"""Every public name of the library has a caller.

A name in a module's ``__all__`` must be loaded somewhere outside its own
definition: in other library code, in the module itself, in the CLI, in the
benchmark's correctness gate or in the acceptance tests.  The package
``__init__`` only re-exports, so it counts as no caller, and neither do the
unit tests, which would keep alive a name that only they reach.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tiltlab"
CALLERS = (ROOT / "perfbench" / "check.py", ROOT / "tests" / "test_acceptance.py")


def loaded_names(path: Path) -> set[str]:
    """Names read in a file, as bare names or as attributes."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def public_names(path: Path) -> list[str]:
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def test_every_public_name_has_a_caller():
    modules = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    used = set().union(*(loaded_names(path) for path in (*modules, *CALLERS)))
    uncalled = [f"{path.stem}.{name}" for path in modules for name in public_names(path) if name not in used]
    assert modules and not uncalled, f"public names with no caller: {uncalled}"
