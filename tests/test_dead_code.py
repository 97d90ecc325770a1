"""No dead code in the package: every top-level function or class of
src/nihoperm is public (in ``nihoperm.__all__``), has a caller elsewhere in
the package, or is on the allowlist below with its reason. A use only in
tests is not a use: a test's reference implementation lives in the test."""

import ast
from pathlib import Path

import nihoperm

SRC = Path(nihoperm.__file__).parent

#: module.name -> why it stays without a caller in the package
ALLOWED = {
    "loweq.quadratic_roots": "the quadratic step of the Cardano certificate (ROADMAP item 3)",
}


def _uncalled() -> set[str]:
    """module.name of every top-level definition that no other top-level
    statement of the package mentions (as a name or an attribute)."""
    defs, users = [], {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            owner = (path.stem, getattr(node, "name", None))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append(owner)
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    users.setdefault(sub.id, set()).add(owner)
                elif isinstance(sub, ast.Attribute):
                    users.setdefault(sub.attr, set()).add(owner)
    public = set(nihoperm.__all__)
    return {f"{mod}.{name}" for mod, name in defs
            if name not in public and not users.get(name, set()) - {(mod, name)}}


def test_every_private_definition_has_a_caller_in_the_package():
    # an allowlisted name that gains a caller must leave the allowlist too
    assert _uncalled() == set(ALLOWED)
