"""Every public name of the library, and every public member of a public
class, has a caller.

A name in a module's ``__all__`` must be loaded somewhere outside its own
definition: in other library code, in the module itself, in the CLI, in the
benchmark's correctness gate or in the acceptance tests.  The package
``__init__`` only re-exports, so it counts as no caller, and neither do the
unit tests, which would keep alive a name that only they reach.

The same holds for the fields, properties, methods and classmethods of
each public class: one of those files must read the member's name as an
attribute.  A keyword argument in a constructor call sets a field and does
not read it, so it does not count.

Every class of the library follows one record rule: it is an exception, a
``NamedTuple``, or a frozen dataclass that validates its input in
``__post_init__``.
"""

import ast
import builtins
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tiltlab"
CALLERS = (ROOT / "perfbench" / "check.py", ROOT / "tests" / "test_acceptance.py")
MODULES = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
# Members kept without a caller, each with the reason.
EXEMPT_MEMBERS = {
    # read by ROADMAP items 3 and 9; delete this entry when one lands
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


def keeps_record_rule(node: ast.ClassDef) -> bool:
    """Is the class an exception, a NamedTuple, or a frozen dataclass that
    defines ``__post_init__``?"""
    for base in node.bases:
        name = getattr(base, "id", None) or getattr(base, "attr", "")
        builtin = getattr(builtins, name, None)
        if name == "NamedTuple" or (isinstance(builtin, type) and issubclass(builtin, BaseException)):
            return True
    frozen = any(
        isinstance(d, ast.Call)
        and getattr(d.func, "id", None) == "dataclass"
        and any(k.arg == "frozen" and getattr(k.value, "value", None) is True for k in d.keywords)
        for d in node.decorator_list
    )
    return frozen and any(isinstance(item, ast.FunctionDef) and item.name == "__post_init__" for item in node.body)


def test_every_class_keeps_the_record_rule():
    classes = [
        f"{path.stem}.{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef) and not keeps_record_rule(node)
    ]
    assert not classes, f"classes that are no exception, NamedTuple or validated frozen dataclass: {classes}"
