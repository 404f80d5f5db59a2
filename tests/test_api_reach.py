"""Every public function, class or method of the package serves something besides its tests.

A public top-level ``def`` or ``class`` in ``src/symbidisk``, and a public
method (or property) of a public class, must be referenced as code (a name, an
attribute or an import alias; strings do not count) from the package itself,
the bench, the tools or the acceptance suite.  A method counts as reached when
its name is, whichever object it is read from.  Unit tests alone do not keep a
function alive: API that only its own tests reach is deleted with those tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "symbidisk"

# Public API kept without a caller in the package, bench, tools or acceptance suite.
ALLOWED = {
    # the README library tour documents these
    "caratheodory_two_point",
    "transfer_eval",
    # report readers: their round-trip tests are what checks that the encoders
    # write re-checkable certificates
    "decode_kernel",
    "decode_colligation",
    # synthesis from a witness's blocks as given; realize purifies the witness
    # first, and its tests check that it equals this when nothing moves
    "lurking_isometry",
}


def _modules():
    return sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def public_definitions() -> set[str]:
    names = set()
    for path in _modules():
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                names.add(node.name)
    return names


def public_methods() -> set[str]:
    """``Class.method`` for every public method of a public top-level class."""
    names = set()
    for path in _modules():
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                names.update(
                    f"{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                )
    return names


def referenced_names() -> set[str]:
    files = [*_modules(), *(ROOT / "bench").glob("*.py"), *(ROOT / "tools").glob("*.py"),
             ROOT / "tests" / "test_acceptance.py"]
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.split(".")[-1])
    return names


def test_no_public_api_is_reached_only_by_unit_tests():
    unreached = public_definitions() - referenced_names() - ALLOWED
    assert not unreached, f"public API reached only by unit tests: {sorted(unreached)}"


def test_allow_list_names_existing_api():
    assert ALLOWED <= public_definitions()


def test_no_public_method_is_reached_only_by_unit_tests():
    reached = referenced_names()
    unreached = {m for m in public_methods() if m.split(".")[1] not in reached}
    assert not unreached, f"public methods reached only by unit tests: {sorted(unreached)}"
