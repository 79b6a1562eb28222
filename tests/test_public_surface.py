"""Every public name of the library, and every public member of a public
class, has a caller.

A name in a module's ``__all__`` must be loaded somewhere outside its own
definition: in other library code, in the module itself, in the CLI, in the
benchmark's correctness gate or in the acceptance tests.  The package
``__init__`` only re-exports, so it counts as no caller, and neither do the
unit tests, which would keep alive a name that only they reach.

The same holds for the dataclass fields, properties, methods and
classmethods of each public class: one of those files must read the
member's name as an attribute.  A keyword argument in a constructor call
sets a field and does not read it, so it does not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tiltlab"
CALLERS = (ROOT / "perfbench" / "check.py", ROOT / "tests" / "test_acceptance.py")
MODULES = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
# Members kept without a caller, each with the reason.
EXEMPT_MEMBERS = {
    # read by ROADMAP items 4 and 8; delete this entry when one lands
    "exact.ConditionalWeights.event_log_prob",
}


def loaded_names(path: Path) -> set[str]:
    """Names read in a file, as bare names or as attributes."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def read_attributes(path: Path) -> set[str]:
    """Names read in a file as attributes."""
    return {
        node.attr
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def public_names(path: Path) -> list[str]:
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def public_members(path: Path) -> list[str]:
    """``Class.member`` for the public fields and methods of each class in
    the module's ``__all__``."""
    exported = set(public_names(path))
    members = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ClassDef) and node.name in exported:
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    name = item.target.id
                elif isinstance(item, ast.FunctionDef):
                    name = item.name
                else:
                    continue
                if not name.startswith("_"):
                    members.append(f"{node.name}.{name}")
    return members


def test_every_public_name_has_a_caller():
    used = set().union(*(loaded_names(path) for path in (*MODULES, *CALLERS)))
    uncalled = [f"{path.stem}.{name}" for path in MODULES for name in public_names(path) if name not in used]
    assert MODULES and not uncalled, f"public names with no caller: {uncalled}"


def test_every_public_class_member_has_a_caller():
    used = set().union(*(read_attributes(path) for path in (*MODULES, *CALLERS)))
    members = [f"{path.stem}.{member}" for path in MODULES for member in public_members(path)]
    uncalled = [m for m in members if m.rpartition(".")[2] not in used and m not in EXEMPT_MEMBERS]
    assert members and not uncalled, f"public class members with no caller: {uncalled}"
    assert EXEMPT_MEMBERS <= set(members), f"exempt members that no longer exist: {EXEMPT_MEMBERS - set(members)}"
