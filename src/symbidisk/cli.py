"""Command-line entry point and corpus runner.

Problems are JSON documents ``{"format": 1, "kind": ..., "payload": ...}``
with optional ``grid`` and ``opts`` members; reports echo the problem, the
seed, and the tool version, and serialize every numerical artifact needed to
replay the run.  Exit codes: 0 for a completed run (Infeasible and Unknown
included), 1 for input errors, 2 for internal numerical failures.
"""

from __future__ import annotations

import argparse
import concurrent.futures
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
from .errors import NumericsError, SymbidiskError, ValidationError
from .feasibility import SolveOptions, SolveStatus
from .gamma_ops import (
    AtomicMeasure,
    OperatorPair,
    atomic_h2_model,
    cyclic_rank,
    gamma_isometry_check,
    gamma_unitary_check,
)
from .geometry import BGammaPoint, membership
from .kernels import AlphaGrid
from .pick import PickProblem, minimal_norm, solve_pick
from .sequences import (
    SequenceTruncation,
    best_carleson_alpha,
    grammian_bounds,
    sample_kernel_census,
    strong_separation,
)
from .serialize import (
    FORMAT_VERSION,
    decode_complex,
    decode_grid,
    decode_matrix,
    decode_nodes,
    encode_colligation,
    encode_complex,
    encode_membership,
    encode_solve_report,
    report_hash,
)

KINDS = ("membership", "pick", "corona", "sequence", "gamma-check", "measure-model")


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
    except ValidationError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except OverflowError as exc:
        print(f"input error: input magnitude overflows a double: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(
            f"input error: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return 1
    except (NumericsError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except SymbidiskError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symbidisk",
        description="Interpolation, sequence diagnostics, and corona solves "
        "on the symmetrized bidisk",
    )
    sub = parser.add_subparsers(dest="command")
    for kind in KINDS:
        p = sub.add_parser(kind, help=f"run a {kind} problem")
        _add_common_flags(p)
        if kind == "membership":
            p.add_argument("--s", nargs=2, type=finite, metavar=("RE", "IM"))
            p.add_argument("--p", nargs=2, type=finite, metavar=("RE", "IM"))
        if kind == "sequence":
            p.add_argument("--n", type=int, default=None, help="truncation length")
            p.add_argument("--kernels", type=int, default=None, help="kernel census size")
            p.add_argument("--alpha-samples", type=int, default=None)
            p.add_argument("--bound", type=float, default=None)
    p = sub.add_parser("corpus", help="run a directory of problems against expectations")
    p.add_argument("--in", dest="in_path", required=True, help="directory of problem files")
    p.add_argument("--out", dest="out_path", default=None, help="directory for reports")
    p.add_argument("--jobs", type=int, default=4)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--max-iter", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--grid", type=int, default=None)
    return parser


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="in_path", default=None, help="problem file (default stdin)")
    p.add_argument("--out", dest="out_path", default=None, help="report file (default stdout)")
    p.add_argument("--grid", type=int, default=None, help="boundary grid size override")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--max-iter", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)


def _run_single(args) -> int:
    kind = args.command
    if kind == "membership" and args.in_path is None and args.s is not None:
        problem = {
            "format": FORMAT_VERSION,
            "kind": "membership",
            "payload": {"s": list(args.s), "p": list(args.p or (0.0, 0.0))},
        }
    else:
        problem = _load_problem(args.in_path)
    _validate_problem(problem, kind)
    if kind == "sequence":
        for field in ("n", "kernels", "alpha_samples", "bound"):
            value = getattr(args, field, None)
            if value is not None:
                problem["payload"][field] = value
    report = execute_problem(problem, _cli_overrides(args))
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out_path:
        _atomic_write(args.out_path, text)
    else:
        print(text)
    return 0


def _cli_overrides(args) -> dict:
    out = {}
    for key in ("tol", "seed", "grid"):
        v = getattr(args, key, None)
        if v is not None:
            out[key] = v
    v = getattr(args, "max_iter", None)
    if v is not None:
        out["max_iter"] = v
    return out


def _load_problem(path: str | None) -> dict:
    if path is None:
        return _parse_json(sys.stdin.read())
    if not os.path.exists(path):
        raise ValidationError(f"problem file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        return _parse_json(fh.read())


def _parse_json(text: str):
    """Parse problem JSON, rejecting numbers that are not finite doubles.

    ``NaN``, ``Infinity`` and literals that overflow a double (``1e999``)
    raise ValidationError, so they never reach a solver or the report hash.
    """
    return json.loads(text, parse_constant=finite, parse_float=finite, parse_int=_bounded_int)


def finite(text: str) -> float:
    """float(text) for a JSON number or a CLI flag, rejecting non-finite values."""
    value = float(text)
    if not math.isfinite(value):
        raise ValidationError(f"number {text} is not a finite double")
    return value


def _bounded_int(text: str) -> int:
    if len(text.lstrip("-")) > 308:
        raise ValidationError(f"integer literal of {len(text)} characters is out of range")
    return int(text)


def _validate_problem(problem: Any, kind: str | None = None) -> None:
    if not isinstance(problem, dict):
        raise ValidationError("problem file must hold a JSON object")
    if problem.get("format") != FORMAT_VERSION:
        raise ValidationError(f"missing or unsupported field 'format' (expected {FORMAT_VERSION})")
    if "kind" not in problem:
        raise ValidationError("missing required field 'kind'")
    if problem["kind"] not in KINDS:
        raise ValidationError(f"unknown kind {problem['kind']!r}")
    if kind is not None and problem["kind"] != kind:
        raise ValidationError(
            f"problem kind {problem['kind']!r} does not match subcommand {kind!r}"
        )
    if "payload" not in problem or not isinstance(problem["payload"], dict):
        raise ValidationError("missing required field 'payload'")


def execute_problem(problem: dict, overrides: dict | None = None) -> dict:
    """Dispatch a parsed ProblemFile and assemble the ReportFile dict."""
    overrides = overrides or {}
    _validate_problem(problem)
    kind = problem["kind"]
    payload = problem["payload"]

    opts_obj = dict(problem.get("opts") or {})
    for key in ("tol", "max_iter", "seed"):
        if key in overrides:
            opts_obj[key] = overrides[key]
    seed = int(opts_obj.get("seed", 0))
    opts = SolveOptions(
        tol=float(opts_obj.get("tol", 1e-8)),
        max_iter=int(opts_obj.get("max_iter", 20000)),
        seed=seed,
    )
    if "grid" in overrides:
        grid = AlphaGrid.boundary(int(overrides["grid"]), include_zero=True)
    else:
        grid = decode_grid(problem.get("grid"))

    t0 = time.perf_counter()
    handler = _HANDLERS[kind]
    body = handler(payload, grid, opts)
    report = {
        "format": FORMAT_VERSION,
        "kind": kind,
        "problem": problem,
        "seed": seed,
        "tool_version": __version__,
        **body,
        "timings": {"total": time.perf_counter() - t0},
    }
    report["report_hash"] = report_hash(report)
    return report


def _require(payload: dict, field: str):
    if field not in payload:
        raise ValidationError(f"missing required field '{field}'")
    return payload[field]


def _handle_membership(payload, grid, opts) -> dict:
    s = payload.get("s")
    p = payload.get("p")
    if s is None or p is None:
        raise ValidationError("missing required field 's' or 'p'")
    rep = membership(decode_complex(s), decode_complex(p), tol=float(payload.get("tol", 1e-10)))
    return encode_membership(rep)


def _handle_pick(payload, grid, opts) -> dict:
    nodes = decode_nodes(_require(payload, "nodes"))
    raw_targets = _require(payload, "targets")
    targets = tuple(
        decode_matrix(t) if isinstance(t, dict) else np.array([[decode_complex(t)]])
        for t in raw_targets
    )
    problem = PickProblem(
        nodes=nodes, targets=targets, norm_bound=float(payload.get("norm_bound", 1.0))
    )
    solution = solve_pick(problem, grid, opts)
    body: dict[str, Any] = {"solve": encode_solve_report(solution.report)}
    body["status"] = solution.status.value
    if solution.interpolant is not None:
        body["interpolant"] = encode_colligation(solution.interpolant.colligation)
        body["node_residual"] = solution.node_residual
    if payload.get("minimal_norm", False):
        body["minimal_norm"] = minimal_norm(problem, grid, opts)
    return body


def _handle_corona(payload, grid, opts) -> dict:
    nodes = decode_nodes(_require(payload, "nodes"))
    phis = tuple(decode_matrix(m) for m in _require(payload, "phi_samples"))
    thetas = payload.get("theta_samples")
    problem = CoronaProblem(
        nodes=nodes,
        phi_samples=phis,
        delta=float(_require(payload, "delta")),
        theta_samples=tuple(decode_matrix(m) for m in thetas) if thetas else None,
    )
    solution = solve_corona(problem, grid, opts)
    body: dict[str, Any] = {
        "solve": encode_solve_report(solution.report),
        "status": solution.status.value,
    }
    if solution.psi is not None:
        body["psi"] = encode_colligation(solution.psi.colligation)
        body["node_residual"] = solution.node_residual
        body["sampled_norm"] = solution.sampled_norm
        body["normalized_norm"] = solution.normalized_norm
        body["bound_inv_sqrt_delta"] = solution.bound_inv_sqrt_delta
        body["bound_inv_delta"] = solution.bound_inv_delta
        # solve_corona measured max |Phi_i Psi(node_i) - Theta_i| on this colligation
        body["left_inverse_node_residual"] = solution.node_residual
    return body


def _handle_sequence(payload, grid, opts) -> dict:
    nodes = decode_nodes(_require(payload, "nodes"))
    n = int(payload.get("n", len(nodes)))
    trunc = SequenceTruncation(nodes=nodes.prefix(n))
    kernel_count = int(payload.get("kernels", 8))
    alpha_samples = int(payload.get("alpha_samples", len(grid)))
    bound = float(payload.get("bound", 2.0))

    scan_grid = grid if alpha_samples >= len(grid) else AlphaGrid(grid.alphas[:alpha_samples])
    alpha_star, delta_hat = best_carleson_alpha(trunc, scan_grid)
    census = sample_kernel_census(trunc, grid, seed=opts.seed, count=kernel_count)
    gram = grammian_bounds(trunc, census, grid)
    separation = strong_separation(trunc, bound, grid, opts)
    return {
        "n": trunc.n,
        "carleson": {"alpha": encode_complex(alpha_star), "delta_hat": delta_hat},
        "grammian": {
            "worst_lower": gram.worst_lower,
            "worst_upper": gram.worst_upper,
            "kernel_count": gram.kernel_count,
            "per_kernel": [
                {"id": kid, "min": lo, "max": hi} for kid, lo, hi in gram.per_kernel
            ],
        },
        "strong_separation": {
            "bound": bound,
            "statuses": [sol.status.value for sol in separation],
            "all_feasible": all(
                sol.status is SolveStatus.FEASIBLE for sol in separation
            ),
        },
    }


def _handle_gamma_check(payload, grid, opts) -> dict:
    pair = OperatorPair(
        first=decode_matrix(_require(payload, "first")),
        second=decode_matrix(_require(payload, "second")),
    )
    mode = payload.get("mode", "unitary")
    tol = float(payload.get("tol", 1e-10))
    if mode == "unitary":
        check = gamma_unitary_check(pair, tol)
    elif mode == "isometry":
        check = gamma_isometry_check(pair, tol)
    else:
        raise ValidationError(f"unknown mode {mode!r}")
    return {
        "mode": mode,
        "passed": check.passed,
        "isometry_defect": check.isometry_defect,
        "twist_defect": check.twist_defect,
        "norm_first": check.norm_first,
        "tol": check.tol,
    }


def _handle_measure_model(payload, grid, opts) -> dict:
    rows = _require(payload, "atoms")
    atoms = tuple(
        BGammaPoint(
            complex(float(r[0]), float(r[1])), complex(float(r[2]), float(r[3]))
        )
        for r in rows
    )
    weights = tuple(float(w) for w in payload.get("weights", [1.0] * len(atoms)))
    mu = AtomicMeasure(atoms=atoms, weights=weights)
    pair = atomic_h2_model(mu)
    check = gamma_isometry_check(pair, tol=float(payload.get("tol", 1e-10)))
    return {
        "dim": pair.dim,
        "first_diag": [encode_complex(z) for z in np.diag(pair.first)],
        "second_diag": [encode_complex(z) for z in np.diag(pair.second)],
        "isometry_passed": check.passed,
        "cyclic_rank": cyclic_rank(pair),
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

    Problems are ``*.json`` files (excluding ``*.expected.json``); a sidecar
    ``<stem>.expected.json`` may pin exact fields (``equals``) and numeric
    fields with tolerances (``approx``: {field: [value, tol]}).  Reports are
    written atomically when an output directory is given.  Nonzero exit on
    any mismatch or corrupted expectation.
    """
    in_dir = args.in_path
    if not os.path.isdir(in_dir):
        raise ValidationError(f"not a directory: {in_dir}")
    names = sorted(
        f
        for f in os.listdir(in_dir)
        if f.endswith(".json") and not f.endswith(".expected.json")
    )
    if args.out_path:
        os.makedirs(args.out_path, exist_ok=True)

    overrides = {}
    for key in ("tol", "seed", "grid"):
        v = getattr(args, key, None)
        if v is not None:
            overrides[key] = v
    if getattr(args, "max_iter", None) is not None:
        overrides["max_iter"] = args.max_iter

    def run_one(name: str) -> tuple[str, str, str]:
        path = os.path.join(in_dir, name)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                problem = _parse_json(fh.read())
            report = execute_problem(problem, overrides)
        except (ValidationError, json.JSONDecodeError, OverflowError) as exc:
            return name, "input-error", str(exc)
        except (NumericsError, np.linalg.LinAlgError) as exc:
            return name, "numerical-failure", str(exc)
        except Exception as exc:  # one bad file never takes down the run
            where = traceback.extract_tb(exc.__traceback__)[-1]
            detail = f"{type(exc).__name__}: {exc} (at {os.path.basename(where.filename)}:{where.lineno})"
            return name, "internal-error", detail
        if args.out_path:
            out_file = os.path.join(args.out_path, name.replace(".json", ".report.json"))
            _atomic_write(out_file, json.dumps(report, indent=2, sort_keys=True))
        expected_path = os.path.join(in_dir, name.replace(".json", ".expected.json"))
        if not os.path.exists(expected_path):
            return name, "ok", "no expectation"
        try:
            with open(expected_path, "r", encoding="utf-8") as fh:
                expected = json.load(fh)
            verdict = _compare_expected(report, expected)
        except (json.JSONDecodeError, TypeError, KeyError, ValueError) as exc:
            return name, "corrupt-expected", str(exc)
        return name, ("ok" if verdict is None else "mismatch"), (verdict or "matched")

    results: list[tuple[str, str, str]] = []
    if names:
        jobs = max(1, int(getattr(args, "jobs", 4) or 4))
        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run_one, names))

    width = max([len(n) for n in names], default=4)
    ok = 0
    for name, status, detail in results:
        flag = "PASS" if status == "ok" else "FAIL"
        ok += status == "ok"
        print(f"{flag}  {name:<{width}}  {status}: {detail}")
    print(f"corpus: {ok}/{len(results)} passed")
    if any(status == "corrupt-expected" or status == "input-error" for _, status, _ in results):
        return 1
    return 0 if ok == len(results) else 1


def _compare_expected(report: dict, expected: dict) -> str | None:
    for key, want in (expected.get("equals") or {}).items():
        got = report.get(key)
        if got != want:
            return f"field {key!r}: expected {want!r}, got {got!r}"
    for key, spec in (expected.get("approx") or {}).items():
        want, tol = float(spec[0]), float(spec[1])
        got = report.get(key)
        if got is None or not isinstance(got, (int, float)):
            return f"field {key!r}: expected a number near {want}, got {got!r}"
        if abs(float(got) - want) > tol:
            return f"field {key!r}: |{got} - {want}| > {tol}"
    return None


def _atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


if __name__ == "__main__":
    sys.exit(main())
