"""The README names only code that exists: every backticked span that
starts with a dotted name whose first part is a module of the package
(``permcheck.pair_verdicts``, ``nihoperm.cli``) resolves to an attribute of
that module."""

import importlib
import re
from pathlib import Path

import nihoperm

SRC = Path(nihoperm.__file__).parent
README = Path(__file__).resolve().parent.parent / "README.md"

#: the modules of the package
MODULES = {path.stem for path in SRC.glob("*.py")} - {"__init__"}


def _resolves(dotted: str) -> bool:
    """module.name[.attr] is an attribute chain of nihoperm.module;
    nihoperm.module[.name] reads as module[.name], and any other
    nihoperm.name[.attr] as a chain of the package."""
    first, *rest = dotted.split(".")
    if first == "nihoperm" and rest[0] in MODULES:
        first, *rest = rest
    obj = importlib.import_module("nihoperm" if first == "nihoperm" else f"nihoperm.{first}")
    for part in rest:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def _unresolved(text: str) -> set[str]:
    """The dotted names at the start of the backticked spans of a markdown
    text, fenced code aside, that are checked and do not resolve."""
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    names = {match.group(1) for span in re.findall(r"`([^`]*)`", text)
             if (match := re.match(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)", span))}
    return {name for name in names
            if name.split(".")[0] in MODULES | {"nihoperm"} and not _resolves(name)}


def test_readme_names_only_code_that_exists():
    assert _unresolved(README.read_text()) == set()


def test_a_removed_name_is_flagged():
    text = ("`permcheck.unit_circle_check(tower, pair)` and\n"
            "`permcheck.zieve_check(ctx, r, s, h)`, `nihoperm.survey`, `nihoperm.gone`,\n"
            "`tower.CANONICAL_GAMMA`, `gf.nothing` and `TrinomialSpec.nothing`\n"
            "```\nfield.nothing\n```\n")
    assert _unresolved(text) == {"permcheck.zieve_check", "nihoperm.gone"}
