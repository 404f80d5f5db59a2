"""Private names cross module boundaries inside the package only where listed.

A private name (a leading underscore) that one ``src/symbidisk`` module
imports from another couples the two to a decision that the first should
own.  Each such import is listed here with the reason it stays; a new one is
either made public or kept inside its module, and one that goes is deleted
from the list.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "symbidisk"

# (importing module, source module, name).
ALLOWED = {
    # _Conic builds the masks from the phi values it also keeps for its factors
    ("feasibility", "kernels", "_masks"),
    # the minimal-norm bracket is one run of the conic solver
    ("pick", "feasibility", "_conic_minimum"),
}


def private_imports():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for alias in node.names:
                    if alias.name.startswith("_"):
                        found.add((path.stem, node.module, alias.name))
    return found


def test_private_imports_between_modules_are_the_listed_ones():
    assert private_imports() == ALLOWED
