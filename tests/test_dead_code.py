"""No dead code in the package: every top-level function or class of
src/nihoperm has a caller elsewhere in the package, and so does every
method or property of its classes, or it is on the allowlist below with its
reason. Being public (in ``nihoperm.__all__``) is not a use, and a use only
in tests is not a use either: a test's reference implementation lives in
the test. An attribute name is a use of every member of that name, so a
member whose name another class also has is checked only where it is on
the reviewed map below. Nor dead error types: every refusal raises
NihopermError, and an exception class that no except clause in the
package names does not exist. Nor unused imports: every name a module
imports at its top level is read in that module."""

import ast
import builtins
import shutil
from collections import Counter
from pathlib import Path

import nihoperm

SRC = Path(nihoperm.__file__).parent

#: module.name or module.Class.member -> why it stays without a caller in
#: the package
ALLOWED = {
    "field.FieldCtx.exp_log": "perfbench's setup_s asserts it (ROADMAP item 2)",
}

#: method or property name -> every class in the package with a field,
#: method or property of that name, each member of it reviewed to have a
#: caller: an attribute of that name cannot tell which class it reads
SHARED = {
    "s": {"niho.NihoPair", "survey.PairSweep"},
    "t": {"niho.NihoPair", "survey.PairSweep"},
    "to_json_dict": {"niho.NihoPair", "niho.TrinomialSpec", "permcheck.PermReport"},
}


def _module_aliases(tree: ast.Module) -> dict[str, str]:
    """Local name -> module for `import numpy as np` and `from . import field as gf`."""
    return {alias.asname or alias.name: alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            or (isinstance(node, ast.ImportFrom) and node.module is None)
            for alias in node.names}


def _member_names(cls: ast.ClassDef) -> set[str]:
    """The fields, methods and properties of a class body."""
    return {sub.name if isinstance(sub, ast.FunctionDef) else sub.target.id
            for sub in cls.body
            if isinstance(sub, ast.FunctionDef)
            or (isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name))}


def _uncalled(src: Path = SRC) -> set[str]:
    """module.name of every top-level definition that no other top-level
    statement of the package mentions, and module.Class.member of every
    method or property, dunders aside, that no attribute outside its own
    body names. A name counts for every module; an attribute counts for
    every member of that name, but for a top-level definition only through
    a module alias, and only for that module (``gf.mul`` is a use of
    field.mul, ``np.add`` and ``seen.add`` are not uses of field.add). A
    member whose name is not its class's alone counts as uncalled unless
    :data:`SHARED` lists exactly the classes with that name."""
    defs, members, users, attrs, owners = [], [], {}, Counter(), {}
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = _module_aliases(tree)
        for node in tree.body:
            owner = (path.stem, getattr(node, "name", None))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append(owner)
            if isinstance(node, ast.ClassDef):
                members += [(path.stem, node.name, sub) for sub in node.body
                            if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__")]
                for name in _member_names(node):
                    owners.setdefault(name, set()).add(f"{path.stem}.{node.name}")
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    users.setdefault(sub.id, set()).add(owner)
                elif isinstance(sub, ast.Attribute):
                    attrs[sub.attr] += 1
                    if isinstance(sub.value, ast.Name) and sub.value.id in aliases:
                        users.setdefault((aliases[sub.value.id], sub.attr), set()).add(owner)
    uncalled = {f"{mod}.{name}" for mod, name in defs
                if not (users.get(name, set()) | users.get((mod, name), set())) - {(mod, name)}}
    for mod, cls, member in members:
        own = sum(isinstance(sub, ast.Attribute) and sub.attr == member.name
                  for sub in ast.walk(member))
        shared = owners[member.name] != SHARED.get(member.name, {f"{mod}.{cls}"})
        if shared or attrs[member.name] == own:
            uncalled.add(f"{mod}.{cls}.{member.name}")
    return uncalled


def test_every_definition_has_a_caller_in_the_package():
    # an allowlisted name that gains a caller must leave the allowlist too
    assert _uncalled() == set(ALLOWED)


def test_a_member_named_like_another_class_member_is_flagged(tmp_path):
    # NihoPair.modulus has no caller, but ctx.modulus, which reads
    # FieldCtx.modulus, is an attribute of the same name
    copy = tmp_path / "nihoperm"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    niho = copy / "niho.py"
    label = '        return f"{self.s},{self.t}"\n'
    assert niho.read_text().count(label) == 1
    niho.write_text(niho.read_text().replace(label, label + (
        "\n    @property\n    def modulus(self) -> int:\n        return (1 << self.m) + 1\n")))
    assert _uncalled(copy) - _uncalled() == {"niho.NihoPair.modulus"}


def _unused_imports(src: Path = SRC) -> set[str]:
    """module.name of every name that a top-level import of a module binds
    and no name in that module reads; ``__init__.py``, whose imports are
    the public API, and ``from __future__`` aside."""
    unused = set()
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                and node.module != "__future__"):
                bound = {(alias.asname or alias.name).split(".")[0] for alias in node.names}
                unused |= {f"{path.stem}.{name}" for name in bound - read}
    return unused


def test_every_import_is_read():
    assert _unused_imports() == set()


def test_an_unused_import_is_flagged(tmp_path):
    # loweq with the field import that it kept no use for
    text = (SRC / "loweq.py").read_text()
    anchor = "from . import _kernels\n"
    assert text.count(anchor) == 1
    (tmp_path / "loweq.py").write_text(text.replace(anchor, anchor + "from . import field as gf\n"))
    assert _unused_imports(tmp_path) == {"loweq.gf"}


def _name(node: ast.expr | None) -> str | None:
    """The class a raise or an except clause names: `X`, `mod.X` or `X(...)`."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


#: module.function -> why its raise statements raise an exception object
#: that the package caught, unchanged, and no refusal of its own
RERAISES = {
    "_kernels.in_shares": "a share's exception, caught on the share's thread, "
                          "is raised again on the calling thread",
}


def _reraises(tree: ast.Module, module: str) -> set[int]:
    """The ids of the raise statements of the functions of RERAISES in a module."""
    return {id(sub) for node in tree.body
            if isinstance(node, ast.FunctionDef) and f"{module}.{node.name}" in RERAISES
            for sub in ast.walk(node) if isinstance(sub, ast.Raise)}


def _error_classes() -> tuple[set[str], set[str], set[str]]:
    """The exception classes src/nihoperm defines, the names its except
    clauses catch, and the names its raise statements raise, those of
    :data:`RERAISES` aside."""
    classes, caught, raised = [], set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        reraises = _reraises(tree, path.stem)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                classes.append(node)
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                caught.update(_name(t) for t in types)
            elif isinstance(node, ast.Raise) and node.exc is not None and id(node) not in reraises:
                raised.add(_name(node.exc))
    errors = {name for name in dir(builtins)
              if isinstance(getattr(builtins, name), type)
              and issubclass(getattr(builtins, name), BaseException)}
    defined = set()
    while True:  # a class is an exception when one of its bases is
        new = {c.name for c in classes if {_name(b) for b in c.bases} & (errors | defined)}
        if new == defined:
            return defined, caught, raised
        defined = new


def test_every_exception_class_is_caught_and_every_refusal_is_nihoperm_error():
    # one error type: a subclass that no except clause names only renames
    # a NihopermError, and a refusal of another type escapes `except NihopermError`
    defined, caught, raised = _error_classes()
    assert defined - caught - {"NihopermError"} == set()
    assert raised - {"NihopermError", "AssertionError"} == set()
    # an entry of RERAISES that no longer raises must leave it
    assert {f"{path.stem}.{node.name}" for path in SRC.glob("*.py")
            for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.FunctionDef)
            and any(isinstance(sub, ast.Raise) for sub in ast.walk(node))} >= set(RERAISES)
