"""Command-line entry point and corpus runner.

Problems are JSON documents ``{"format": 1, "kind": ..., "payload": ...}``
with optional ``grid`` and ``opts`` members, the only source of the grid and
the solver options; absent or null, each takes its defaults.  FIELDS lists
the fields that each object of a problem file may hold, matrix objects
included; any other field is an input error, found before any work runs.  A
single run is load, check, execute, write; reports echo the problem, the
seed, and the tool version, and serialize every numerical artifact needed to
replay the run from the echoed problem alone.  One table (_outcome) maps
what a run raises to its status, message and exit code, for single runs and
corpus rows alike: 0 for a completed run (Infeasible and Unknown included),
1 for input errors, 2 for numerical failures and for any other exception, an
internal error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import time
import traceback
from typing import Any

import numpy as np

from . import __version__
from .corona import CoronaProblem, solve_corona
from .errors import NumericsError, ValidationError
from .feasibility import SolveOptions, SolveStatus
from .gamma_ops import (
    AtomicMeasure,
    OperatorPair,
    atomic_h2_model,
    gamma_isometry_check,
    gamma_unitary_check,
)
from .geometry import DEFAULT_MEMBERSHIP_TOL, BGammaPoint, membership
from .kernels import AlphaGrid
from .pick import PickProblem, solve_pick
from .realization import Factorization
from .sequences import (
    MAX_KERNELS,
    SequenceTruncation,
    best_carleson_alpha,
    grammian_bounds,
    strong_separation,
)
from .serialize import (
    FORMAT_VERSION,
    decode_complex,
    decode_nodes,
    decode_point_rows,
    encode_colligation,
    encode_complex,
    encode_kernel,
    encode_membership,
    encode_report,
    encode_solve_report,
    read_number,
)

KINDS = ("membership", "pick", "corona", "sequence", "gamma-check", "measure-model")

# The fields each object of a problem file, and of a corpus sidecar, may hold,
# as (required, optional).  Any other field is an input error that names it.
FIELDS = {
    "problem": (("format", "kind", "payload"), ("grid", "opts")),
    "opts": ((), ("seed", "tol", "max_iter")),
    "membership payload": (("s", "p"), ("tol",)),
    "pick payload": (("nodes", "targets"), ("norm_bound",)),
    "corona payload": (("nodes", "phi_samples", "delta"), ("theta_samples",)),
    "sequence payload": (("nodes",), ("kernels", "bound")),
    "gamma-check payload": (("first", "second"), ("mode", "tol")),
    "measure-model payload": (("atoms",), ("weights", "tol")),
    "explicit grid": (("alphas",), ("kind",)),
    "boundary grid": (("kind", "n"), ("include_zero",)),
    "solver_default grid": (("kind",), ()),
    "matrix": (("rows", "cols", "entries"), ()),
    "sidecar": ((), ("equals", "approx")),
}
GRID_KINDS = tuple(row.removesuffix(" grid") for row in FIELDS if row.endswith(" grid"))


def main(argv: list[str] | None = None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    if args.command is None:
        parser.print_help()
        return 1
    try:
        if args.command == "corpus":
            return corpus(args)
        return _run_single(args)
    except Exception as exc:
        status, message, code = _outcome(exc)
        print(f"{status.replace('-', ' ')}: {message}", file=sys.stderr)
        return code


def _outcome(exc: Exception) -> tuple[str, str, int]:
    """(status, message, exit code) of what a run raised, for run and corpus alike."""
    if isinstance(exc, json.JSONDecodeError):
        where = f"line {exc.lineno}, column {exc.colno}"
        return "input-error", f"malformed JSON at {where}: {exc.msg}", 1
    if isinstance(exc, OverflowError):
        return "input-error", f"input magnitude overflows a double: {exc}", 1
    if isinstance(exc, ValidationError):
        return "input-error", str(exc), 1
    if isinstance(exc, (NumericsError, np.linalg.LinAlgError)):
        return "numerical-failure", str(exc), 2
    where = traceback.extract_tb(exc.__traceback__)[-1]
    at = f"{os.path.basename(where.filename)}:{where.lineno}"
    return "internal-error", f"{type(exc).__name__}: {exc} (at {at})", 2


@functools.cache  # built once: corpus runs call run() per pass
def _build_parser() -> argparse.ArgumentParser:
    # no abbreviations: a prefix such as --i is a usage error, not --in
    parser = argparse.ArgumentParser(
        prog="symbidisk",
        description="Interpolation, sequence diagnostics, and corona solves "
        "on the symmetrized bidisk",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command")
    for kind in KINDS:
        p = sub.add_parser(kind, help=f"run a {kind} problem", allow_abbrev=False)
        p.add_argument("--in", dest="in_path", default=None, help="problem file (default stdin)")
        p.add_argument("--out", dest="out_path", default=None, help="report file (default stdout)")
    p = sub.add_parser(
        "corpus", help="run a directory of problems against expectations", allow_abbrev=False
    )
    p.add_argument("--in", dest="in_path", required=True, help="directory of problem files")
    p.add_argument("--out", dest="out_path", default=None, help="directory for reports")
    p.add_argument(
        "--jobs", type=int, default=None, help="accepted and ignored: files run one after another"
    )
    return parser


def _run_single(args) -> int:
    _, text = _execute(_load_problem(args.in_path), args.command)
    if args.out_path:
        _atomic_write(args.out_path, text)
    else:
        print(text)
    return 0


def _load_problem(path: str | None) -> dict:
    """The parsed problem at ``path`` (stdin when None); unreadable input is a ValidationError."""
    try:
        if path is None:
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except FileNotFoundError:
        raise ValidationError(f"problem file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read problem file {path or '<stdin>'}: {exc}") from None
    return _parse_json(text)


def _parse_json(text: str):
    """Parse problem JSON, rejecting numbers that are not finite doubles.

    ``NaN``, ``Infinity`` and literals that overflow a double (``1e999``)
    raise ValidationError, so they never reach a solver or the report hash.
    """
    return json.loads(text, parse_constant=finite, parse_float=finite, parse_int=_bounded_int)


def finite(text: str) -> float:
    """float(text) for a JSON number or constant; ValidationError unless finite."""
    if math.isfinite(value := float(text)):
        return value
    raise ValidationError(f"{text!r} is not a finite number")


def _bounded_int(text: str) -> int:
    if len(text.lstrip("-")) > 308:
        raise ValidationError(f"integer literal of {len(text)} characters is out of range")
    return int(text)


def _fields(obj: Any, row: str, what: str) -> dict:
    """``obj``, an object holding only fields of its FIELDS ``row`` and all its required ones.

    ``what`` names ``obj`` when it is not an object.
    """
    if not isinstance(obj, dict):
        raise ValidationError(f"{what} must be an object, got {type(obj).__name__}")
    required, optional = FIELDS[row]
    for name in obj:
        if name not in required and name not in optional:
            known = ", ".join(required + optional)
            raise ValidationError(f"unknown field {name!r} in {row} (known: {known})")
    for name in required:
        if name not in obj:
            raise ValidationError(f"missing required field '{name}'")
    return obj


def _choice(value: Any, field: str, choices: tuple[str, ...]) -> str:
    """``value`` of the field ``field``, which must be one of ``choices``."""
    if value not in choices:
        raise ValidationError(f"field '{field}' must be one of {', '.join(choices)}; got {value!r}")
    return value


def _read_problem(problem: Any, command: str | None) -> tuple:
    """(kind, payload, grid, solver options, seed) of a problem file, each object read by _fields.

    A ``command`` is the subcommand that the problem's kind must match.
    """
    _fields(problem, "problem", "problem file")
    if type(problem["format"]) is not int or problem["format"] != FORMAT_VERSION:
        got = problem["format"]
        raise ValidationError(f"field 'format' must be the integer {FORMAT_VERSION}, got {got!r}")
    kind = _choice(problem["kind"], "kind", KINDS)
    if command is not None and kind != command:
        raise ValidationError(f"problem kind {kind!r} does not match subcommand {command!r}")
    payload = _fields(problem["payload"], f"{kind} payload", "field 'payload'")
    opts, seed = _solve_options(problem.get("opts"))
    return kind, payload, _read_grid(problem.get("grid")), opts, seed


def decode_matrix(obj: Any, field: str) -> np.ndarray:
    """The matrix of a ``{rows, cols, entries}`` object of the field ``field``.

    Its entries are row-major [re, im] pairs.
    """
    _fields(obj, "matrix", f"field '{field}'")
    rows = read_number(obj["rows"], "rows", integral=True)
    cols = read_number(obj["cols"], "cols", integral=True)
    entries = [decode_complex(v, "entries") for v in _as_list(obj["entries"], "entries")]
    if min(rows, cols) < 0 or len(entries) != rows * cols:
        raise ValidationError("matrix entry count disagrees with its shape")
    return np.array(entries, dtype=complex).reshape(rows, cols)


def _read_grid(obj: Any) -> AlphaGrid:
    """The problem's ``grid``; the solver default when it is absent or null."""
    if obj is None:
        return AlphaGrid.solver_default()
    # a kind-less grid is explicit; _fields refuses a grid that is not an object
    kind = obj.get("kind", "explicit") if isinstance(obj, dict) else "explicit"
    _fields(obj, f"{_choice(kind, 'kind', GRID_KINDS)} grid", "field 'grid'")
    if kind == "explicit":
        alphas = _as_list(obj["alphas"], "alphas")
        return AlphaGrid(np.array([decode_complex(a, "alphas") for a in alphas]))
    if kind == "boundary":
        include_zero = obj.get("include_zero", True)
        if not isinstance(include_zero, bool):
            raise ValidationError(f"field 'include_zero' must be a boolean, got {include_zero!r}")
        return AlphaGrid.boundary(read_number(obj["n"], "n", integral=True), include_zero)
    return AlphaGrid.solver_default()


def execute_problem(problem: dict) -> dict:
    """Dispatch a parsed ProblemFile and assemble the ReportFile dict."""
    return _execute(problem)[0]


def _solve_options(obj: Any) -> tuple[SolveOptions, int]:
    """(solver options, seed) of a problem's ``opts``, their only source; the defaults when None.

    The seed and max_iter must be integers >= 0 and tol a finite number >= 0;
    SolveOptions itself checks the values of tol and max_iter.  Only the
    sequence census reads the seed, and every report echoes it.
    """
    opts_obj = {} if obj is None else _fields(obj, "opts", "field 'opts'")
    seed = read_number(opts_obj.get("seed", 0), "seed", integral=True)
    tol = read_number(opts_obj.get("tol", SolveOptions.tol), "tol")
    max_iter = opts_obj.get("max_iter", SolveOptions.max_iter)
    max_iter = read_number(max_iter, "max_iter", integral=True)
    if seed < 0:
        raise ValidationError(f"field 'seed' must be an integer >= 0, got {seed}")
    return SolveOptions(tol=tol, max_iter=max_iter), seed


def _read_tol(value) -> float:
    """A payload's ``tol`` field: a number that SolveOptions takes as its tol."""
    return SolveOptions(tol=read_number(value, "tol")).tol


def _execute(problem: Any, command: str | None = None) -> tuple[dict, str]:
    """(report, text): the report of ``problem`` alone, and its text, encoded once."""
    kind, payload, grid, opts, seed = _read_problem(problem, command)
    t0 = time.perf_counter()
    body = _HANDLERS[kind](payload, grid, opts, seed)
    report = {
        "format": FORMAT_VERSION,
        "kind": kind,
        "problem": problem,
        "seed": seed,
        "tool_version": __version__,
        **body,
        "timings": {**body.get("timings", {}), "total": time.perf_counter() - t0},
    }
    report["report_hash"], text = encode_report(report)
    return report, text


def _as_list(value, field: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"field '{field}' must be a list, got {type(value).__name__}")
    return value


def _factorization_body(solution: Factorization, key: str) -> dict:
    """Fields pick and corona reports share; ``key`` names the realized function."""
    body: dict[str, Any] = {
        "solve": encode_solve_report(solution.report),
        "status": solution.status.value,
        "timings": {"solve": solution.report.wall_time},
    }
    if solution.interpolant is not None:
        body[key] = encode_colligation(solution.interpolant)
        body["node_residual"] = solution.node_residual
    return body


def _handle_membership(payload, grid, opts, seed) -> dict:
    tol = _read_tol(payload.get("tol", DEFAULT_MEMBERSHIP_TOL))
    rep = membership(decode_complex(payload["s"], "s"), decode_complex(payload["p"], "p"), tol=tol)
    return encode_membership(rep)


def _handle_pick(payload, grid, opts, seed) -> dict:
    nodes = decode_nodes(payload["nodes"], "nodes")
    targets = tuple(
        decode_matrix(t, "targets") if isinstance(t, dict)
        else np.array([[decode_complex(t, "targets")]])
        for t in _as_list(payload["targets"], "targets")
    )
    norm_bound = read_number(payload.get("norm_bound", PickProblem.norm_bound), "norm_bound")
    problem = PickProblem(nodes=nodes, targets=targets, norm_bound=norm_bound)
    return _factorization_body(solve_pick(problem, grid, opts), "interpolant")


def _handle_corona(payload, grid, opts, seed) -> dict:
    nodes = decode_nodes(payload["nodes"], "nodes")
    raw_phis = _as_list(payload["phi_samples"], "phi_samples")
    phis = tuple(decode_matrix(m, "phi_samples") for m in raw_phis)
    thetas = payload.get("theta_samples")
    if thetas is not None:  # absent or null: Theta = sqrt(delta) I
        thetas = tuple(decode_matrix(m, "theta_samples") for m in _as_list(thetas, "theta_samples"))
    problem = CoronaProblem(
        nodes=nodes,
        phi_samples=phis,
        delta=read_number(payload["delta"], "delta"),
        theta_samples=thetas,
    )
    solution = solve_corona(problem, grid, opts)
    body = _factorization_body(solution, "psi")
    if solution.interpolant is not None:
        norm = solution.interpolant.norm  # bounds sup ||Psi||
        body["sampled_norm"] = norm  # an older key: psi's norm, not a sample
        # the left inverse's norm when Theta = sqrt(delta) I
        body["normalized_norm"] = norm / np.sqrt(problem.delta)
        # solve_corona measured max |Phi_i Psi(node_i) - Theta_i| on this colligation
        body["left_inverse_node_residual"] = solution.node_residual
    return body


def _handle_sequence(payload, grid, opts, seed) -> dict:
    trunc = SequenceTruncation(nodes=decode_nodes(payload["nodes"], "nodes"))
    kernel_count = read_number(payload.get("kernels", 8), "kernels", integral=True)
    if not 1 <= kernel_count <= MAX_KERNELS:
        raise ValidationError(f"field 'kernels' must be in [1, {MAX_KERNELS}], got {kernel_count}")
    bound = read_number(payload.get("bound", 2.0), "bound")
    if not bound > 0:
        raise ValidationError(f"field 'bound' must be positive, got {bound}")

    alpha_star, delta_hat = best_carleson_alpha(trunc, grid)
    gram = grammian_bounds(trunc, grid, seed, kernel_count)
    separation = strong_separation(trunc, bound, grid, opts)
    strong = {
        "bound": bound,
        "statuses": [rep.status.value for rep in separation],
        "all_feasible": all(rep.status is SolveStatus.FEASIBLE for rep in separation),
    }
    # like encode_solve_report's certificate: written only when some node is certified
    certified = [{"node": i, "kernel": encode_kernel(rep.certificate)}
                 for i, rep in enumerate(separation)
                 if rep.status is SolveStatus.INFEASIBLE_CERTIFIED]
    if certified:
        strong["certificates"] = certified
    return {
        "n": trunc.n,
        "carleson": {"alpha": encode_complex(alpha_star), "delta_hat": delta_hat},
        "grammian": {
            "worst_lower": gram.worst_lower,
            "worst_upper": gram.worst_upper,
            "kernel_count": len(gram.per_kernel),
            "per_kernel": [
                {"id": kid, "min": lo, "max": hi} for kid, lo, hi in gram.per_kernel
            ],
        },
        "strong_separation": strong,
    }


def _handle_gamma_check(payload, grid, opts, seed) -> dict:
    pair = OperatorPair(
        first=decode_matrix(payload["first"], "first"),
        second=decode_matrix(payload["second"], "second"),
    )
    mode = _choice(payload.get("mode", "unitary"), "mode", ("unitary", "isometry"))
    tol = _read_tol(payload.get("tol", 1e-10))
    check = (gamma_unitary_check if mode == "unitary" else gamma_isometry_check)(pair, tol)
    return {
        "mode": mode,
        "passed": check.passed,
        "isometry_defect": check.isometry_defect,
        "twist_defect": check.twist_defect,
        "norm_first": check.norm_first,
        "tol": check.tol,
    }


def _handle_measure_model(payload, grid, opts, seed) -> dict:
    tol = _read_tol(payload.get("tol", 1e-10))
    atoms = tuple(BGammaPoint(s, p) for s, p in decode_point_rows(payload["atoms"], "atoms"))
    weights = _as_list(payload.get("weights", [1.0] * len(atoms)), "weights")
    weights = tuple(read_number(w, "weights") for w in weights)
    pair = atomic_h2_model(AtomicMeasure(atoms=atoms, weights=weights))
    check = gamma_isometry_check(pair, tol=tol)
    return {
        "dim": pair.dim,
        "first_diag": [encode_complex(z) for z in np.diag(pair.first)],
        "second_diag": [encode_complex(z) for z in np.diag(pair.second)],
        "isometry_passed": check.passed,
    }


_HANDLERS = {
    "membership": _handle_membership,
    "pick": _handle_pick,
    "corona": _handle_corona,
    "sequence": _handle_sequence,
    "gamma-check": _handle_gamma_check,
    "measure-model": _handle_measure_model,
}


def corpus(args) -> int:
    """Run every problem in a directory and compare against expectations.

    Problems are ``*.json`` files (excluding ``*.expected.json`` and the
    ``*.report.json`` this runner writes, so ``--out`` may be ``--in``); a sidecar
    ``<stem>.expected.json`` may pin exact fields (``equals``) and numeric
    fields with tolerances (``approx``: {field: [value, tol]}).  Reports are
    written atomically when an output directory is given.  Files run one
    after another (``--jobs`` is accepted and ignored).  A file that raises
    is a row of its own, its status and message from _outcome.  Exit 1 when
    any row is not ok.
    """
    in_dir = args.in_path
    if not os.path.isdir(in_dir):
        raise ValidationError(f"not a directory: {in_dir}")
    names = sorted(
        f
        for f in os.listdir(in_dir)
        if f.endswith(".json") and not f.endswith((".expected.json", ".report.json"))
    )
    if args.out_path:
        try:
            os.makedirs(args.out_path, exist_ok=True)
        except OSError as exc:
            raise ValidationError(f"cannot make report directory {args.out_path}: {exc}") from None

    def run_one(name: str) -> tuple[str, str, str]:
        path = os.path.join(in_dir, name)
        try:
            report, text = _execute(_load_problem(path))
        except Exception as exc:  # one bad file never takes down the run
            status, message, _ = _outcome(exc)
            return name, status, message
        stem = name[: -len(".json")]
        if args.out_path:
            _atomic_write(os.path.join(args.out_path, f"{stem}.report.json"), text)
        expected_path = os.path.join(in_dir, f"{stem}.expected.json")
        if not os.path.exists(expected_path):
            return name, "ok", "no expectation"
        try:
            with open(expected_path, "r", encoding="utf-8") as fh:
                expected = _parse_json(fh.read())  # NaN, Infinity and 1e999 are corrupt here too
            verdict = _compare_expected(report, expected)
        except (OSError, json.JSONDecodeError, TypeError, KeyError, ValueError) as exc:
            return name, "corrupt-expected", str(exc)
        return name, ("ok" if verdict is None else "mismatch"), (verdict or "matched")

    results = [run_one(name) for name in names]

    width = max([len(n) for n in names], default=4)
    ok = 0
    for name, status, detail in results:
        flag = "PASS" if status == "ok" else "FAIL"
        ok += status == "ok"
        print(f"{flag}  {name:<{width}}  {status}: {detail}")
    print(f"corpus: {ok}/{len(results)} passed")
    return 0 if ok == len(results) else 1


def _compare_expected(report: dict, expected: dict) -> str | None:
    """The first mismatch of ``report`` against a sidecar, or None; ValueError on a malformed one.

    ``expected`` is read by _parse_json, so every number in it is finite.
    """
    _fields(expected, "sidecar", "sidecar")
    for field in ("equals", "approx"):
        if not isinstance(expected.get(field, {}), dict):
            raise ValueError(f"field {field!r} must be an object")
    for key, want in expected.get("equals", {}).items():
        got = report.get(key)
        if got != want:
            return f"field {key!r}: expected {want!r}, got {got!r}"
    for key, spec in expected.get("approx", {}).items():
        numbers = isinstance(spec, list) and all(type(x) in (int, float) for x in spec)
        if not (numbers and len(spec) == 2 and spec[1] >= 0):
            raise ValueError(f"approx field {key!r} must be [value, tol] with tol >= 0, got {spec!r}")
        want, tol = spec
        got = report.get(key)
        if isinstance(got, bool) or not isinstance(got, (int, float)):  # np.float64 is a float
            return f"field {key!r}: expected a number near {want}, got {got!r}"
        if abs(float(got) - want) > tol:
            return f"field {key!r}: |{got} - {want}| > {tol}"
    return None


def _atomic_write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file; an OSError is a ValidationError."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise ValidationError(f"cannot write report file {path}: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
