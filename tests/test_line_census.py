import ast
import functools
import glob
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LISTED = re.compile(r"src/symbidisk/(\w+)\.py:(\d+): (.+)")


@functools.cache
def module_lines(module):
    """The stripped source lines of one module of the package."""
    with open(os.path.join(ROOT, "src", "symbidisk", f"{module}.py")) as fh:
        return [line.strip() for line in fh]


def source_line(module, text):
    """The 1-based number of the one line of the module whose stripped text is ``text``."""
    found = [i for i, line in enumerate(module_lines(module), 1) if line == text]
    assert len(found) == 1, (module, text, found)
    return found[0]


def census(test_file):
    """The (module, line) pairs the census of one test file lists, checked for format."""
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "line_census.py"),
         "-q", "-p", "no:cacheprovider", str(test_file)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    out = proc.stdout.splitlines()
    count = int(re.fullmatch(r"(\d+) lines never ran", out[-1])[1])
    listed = [LISTED.fullmatch(line) for line in out[-1 - count:-1]]
    assert count > 0 and all(listed)
    keys = [(m[1], int(m[2])) for m in listed]
    assert keys == sorted(set(keys))
    assert all(module_lines(m[1])[int(m[2]) - 1] == m[3] for m in listed)
    return set(keys)


def test_census_of_one_test_file():
    # tests/test_input_checks.py documents two guards that validated input
    # never reaches: the census of that file lists them, and not the checks
    # it reaches
    never = census("tests/test_input_checks.py")
    assert ("geometry", source_line("geometry", "return 1.0 if abs(a - b) > 0 else 0.0")) in never
    masks_guard = 'raise ValidationError("a node maps outside the unit disk under some grid alpha")'
    assert ("kernels", source_line("kernels", masks_guard)) in never
    shape_check = 'raise ValidationError(f"target shape {m.shape} != ({n}, {n})")'
    assert ("feasibility", source_line("feasibility", shape_check)) not in never


def test_census_of_a_test_that_imports_nothing(tmp_path):
    # no module of the package is imported: each is listed from its first
    # statement on, and no line of its docstring is
    test_file = tmp_path / "test_nothing.py"
    test_file.write_text("def test_nothing():\n    pass\n")
    never = census(test_file)
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "symbidisk", "*.py"))):
        module = os.path.basename(path)[:-3]
        with open(path) as fh:
            body = ast.parse(fh.read()).body
        doc = body[0] if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) else None
        first = body[1] if doc else body[0]
        assert (module, first.lineno) in never
        if doc:
            assert not any((module, line) in never for line in range(doc.lineno, doc.end_lineno + 1))
