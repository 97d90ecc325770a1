"""In-memory call spans, recorded by wrapping module attributes.

A :class:`Target` names a function by its home module and attribute. While
:func:`wrapped` is active, every module of the package that holds that same
function object under that name (the home module, a module that did
``from .home import name``, the package re-export) sees a wrapper instead.
This matters because a caller that imported the name binds its own module
attribute: ``survey.unit_circle_check`` must be wrapped as well as
``permcheck.unit_circle_check``. A target missing from its home module is
reported as absent, not raised.

Each call becomes a :class:`Span` with the op label current at the time,
its parent span and any counts the target derives from the call's
arguments and result. Self time is a span's duration minus the part of it
that its direct children cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import ModuleType
from typing import Callable, Iterator, Optional

Counter = Callable[[tuple, dict, object], dict]


@dataclass
class Span:
    name: str
    op: str
    start: float
    end: float = 0.0
    parent: int = -1  # index of the enclosing span, -1 at top level
    nested: bool = False  # an enclosing span has the same name
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; one tracer per traced pass."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.op = ""
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        nested = any(self.spans[i].name == name for i in self._stack)
        self.spans.append(Span(name, self.op, self.clock(), parent=parent, nested=nested))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        popped = self._stack.pop()
        assert popped == idx, "spans must close in LIFO order"


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the union of its direct children's
    intervals, clipped to the span."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append(s.duration - covered)
    return out


@dataclass(frozen=True)
class Target:
    module: str  # home module, relative to the package
    attr: str
    counter: Optional[Counter] = None  # (args, kwargs, result) -> counts

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


def _wrap(tracer: Tracer, target: Target, fn: Callable) -> Callable:
    name = target.name
    counter = target.counter

    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if counter is not None:
            tracer.spans[idx].counts = counter(args, kwargs, result)
        return result

    return wrapper


@contextmanager
def wrapped(
    tracer: Tracer, modules: dict[str, ModuleType], targets: list[Target]
) -> Iterator[list[str]]:
    """Install wrappers for the targets; yields the names of absent targets.

    ``modules`` maps module names (as used in Target.module, "" for the
    package itself) to the loaded modules whose attributes may be rebound.
    Every binding is restored on exit.
    """
    saved: list[tuple[ModuleType, str, Callable]] = []
    absent: list[str] = []
    try:
        for target in targets:
            home = modules.get(target.module)
            fn = getattr(home, target.attr, None) if home is not None else None
            if not callable(fn):
                absent.append(target.name)
                continue
            wrapper = _wrap(tracer, target, fn)
            for mod in modules.values():
                if getattr(mod, target.attr, None) is fn:
                    saved.append((mod, target.attr, fn))
                    setattr(mod, target.attr, wrapper)
        yield absent
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)
