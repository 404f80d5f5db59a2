"""Every public function, class, method, parameter or field of the package serves
something besides its tests.

A public top-level ``def`` or ``class`` in ``src/symbidisk``, and a public
method (or property) of a public class, must be referenced as code (a name or
an attribute; an import alone and strings do not count) from the package itself,
the bench, the tools or the acceptance suite.  A method counts as reached when
its name is, whichever object it is read from.  In the same files, every
defaulted parameter of a public function or method must be passed, by position
or by keyword, to a call of that name, and every field of a public dataclass
must be read as an attribute of some object.  Unit tests alone do not keep API
alive: what only its own tests reach is deleted with those tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "symbidisk"

# Public API kept without a caller in the package, bench, tools or acceptance suite.
ALLOWED = {
    # the README library tour documents these
    "caratheodory_two_point",
}

# Defaulted parameters kept without a call that passes them.
ALLOWED_PARAMETERS = {
    # the console entry point: the installed script calls main() with no
    # argument, and then the arguments are read from sys.argv
    "cli.main.argv",
}


def _modules():
    return sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _public_classes():
    for path in _modules():
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                yield node


def public_definitions() -> set[str]:
    names = set()
    for path in _modules():
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                names.add(node.name)
    return names


def public_methods() -> set[str]:
    """``Class.method`` for every public method of a public top-level class."""
    return {
        f"{cls.name}.{item.name}"
        for cls in _public_classes()
        for item in cls.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
    }


def defaulted_parameters() -> dict[str, tuple[str, str, int | None]]:
    """``module.function.param`` or ``Class.method.param`` for every defaulted
    parameter of a public function or method, mapped to (function name,
    parameter, position in a call, None for a keyword-only one)."""
    defs = []  # (qualified name, def, number of leading parameters a call does not pass)
    for path in _modules():
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                defs.append((f"{path.stem}.{node.name}", node, 0))
    for cls in _public_classes():
        for item in cls.body:
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                static = any(getattr(d, "id", None) == "staticmethod" for d in item.decorator_list)
                defs.append((f"{cls.name}.{item.name}", item, 0 if static else 1))
    out = {}
    for qualname, fn, bound in defs:
        args = fn.args
        positional = [*args.posonlyargs, *args.args]
        for i in range(len(positional) - len(args.defaults), len(positional)):
            out[f"{qualname}.{positional[i].arg}"] = (fn.name, positional[i].arg, i - bound)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                out[f"{qualname}.{arg.arg}"] = (fn.name, arg.arg, None)
    return out


def dataclass_fields() -> set[str]:
    """``Class.field`` for every public field of a public top-level dataclass."""
    names = set()
    for cls in _public_classes():
        decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
        if any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass" for d in decorators):
            names.update(
                f"{cls.name}.{item.target.id}"
                for item in cls.body
                if isinstance(item, ast.AnnAssign) and not item.target.id.startswith("_")
            )
    return names


def _reaching_trees():
    """The parsed files of the package, the bench, the tools and the acceptance suite."""
    files = [*_modules(), *(ROOT / "bench").glob("*.py"), *(ROOT / "tools").glob("*.py"),
             ROOT / "tests" / "test_acceptance.py"]
    return [ast.parse(path.read_text()) for path in files]


def _reaching_nodes():
    """Every AST node of the package, the bench, the tools and the acceptance suite."""
    for tree in _reaching_trees():
        yield from ast.walk(tree)


def _outside_roots(tree) -> set[str]:
    """The names ``tree`` binds by importing a module from outside the repo.

    The repo's own modules are the package and the files of the bench, the
    tools and the tests (``conftest``, ``workloads``, ``run`` and the like).
    """
    local = {"symbidisk", *(p.stem for d in ("bench", "tools", "tests") for p in (ROOT / d).glob("*.py"))}
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(
                (alias.asname or alias.name).split(".")[0]
                for alias in node.names
                if alias.name.split(".")[0] not in local
            )
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] not in local:
                roots.update(alias.asname or alias.name for alias in node.names)
    return roots


def _chain_root(func):
    """The name an attribute chain ``a.b.c`` starts from; None for any other callee."""
    if not isinstance(func, ast.Attribute):
        return None
    while isinstance(func, ast.Attribute):
        func = func.value
    return getattr(func, "id", None)


def referenced_names() -> set[str]:
    names = set()
    for node in _reaching_nodes():
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def passed_arguments() -> set[tuple[str, str | int]]:
    """(callee name, keyword or position) of every argument of every call.

    A ``*args`` splat is recorded as position ``"*"`` and a ``**kwargs`` one
    as keyword ``"**"``: either may pass any parameter.  A call through a
    module from outside the repo (``np.linalg.solve(a, b)``,
    ``pytest.main(args)``) passes nothing to the package's function of the
    same name, and is skipped.
    """
    passed = set()
    for tree in _reaching_trees():
        outside = _outside_roots(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or _chain_root(node.func) in outside:
                continue
            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
            for i, arg in enumerate(node.args):
                passed.add((callee, "*" if isinstance(arg, ast.Starred) else i))
            passed.update((callee, kw.arg or "**") for kw in node.keywords)
    return passed


def is_passed(passed, fn, param, position) -> bool:
    """Whether a call in ``passed`` (from passed_arguments) passes ``param`` of ``fn``."""
    marks = [param, "**"] if position is None else [param, "**", position, "*"]
    return any((fn, mark) in passed for mark in marks)


def read_attributes() -> set[str]:
    return {
        node.attr
        for node in _reaching_nodes()
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_no_public_api_is_reached_only_by_unit_tests():
    unreached = public_definitions() - referenced_names() - ALLOWED
    assert not unreached, f"public API reached only by unit tests: {sorted(unreached)}"


def test_allow_list_names_existing_api():
    assert ALLOWED <= public_definitions()
    assert ALLOWED_PARAMETERS <= defaulted_parameters().keys()


def test_allow_list_entries_are_unreached():
    # an entry that gains a caller leaves the list, which stays minimal
    reached = ALLOWED & referenced_names()
    assert not reached, f"allowed names that the package, bench or tools reach: {sorted(reached)}"
    passed, specs = passed_arguments(), defaulted_parameters()
    called = {name for name in ALLOWED_PARAMETERS if is_passed(passed, *specs[name])}
    assert not called, f"allowed parameters that a call passes: {sorted(called)}"


def test_no_public_method_is_reached_only_by_unit_tests():
    reached = referenced_names()
    unreached = {m for m in public_methods() if m.split(".")[1] not in reached}
    assert not unreached, f"public methods reached only by unit tests: {sorted(unreached)}"


def test_every_defaulted_parameter_is_passed():
    passed = passed_arguments()
    unpassed = {
        name
        for name, spec in defaulted_parameters().items()
        if name not in ALLOWED_PARAMETERS and not is_passed(passed, *spec)
    }
    assert not unpassed, f"defaulted parameters only unit tests pass: {sorted(unpassed)}"


def test_every_dataclass_field_is_read():
    read = read_attributes()
    unread = {f for f in dataclass_fields() if f.split(".")[1] not in read}
    assert not unread, f"dataclass fields only unit tests read: {sorted(unread)}"
