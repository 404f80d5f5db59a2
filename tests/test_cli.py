import json
import math
import os
import subprocess
import sys

import pytest

import symbidisk
import symbidisk.cli
from symbidisk.cli import execute_problem, run
from symbidisk.serialize import canonical_json, report_hash

from conftest import (
    LOOP_FILE_NODES,
    LOOP_FILE_TARGETS,
    MEASURE_REPORT_FIELDS,
    near_threshold_problem,
)


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


# One node more than a feasibility target allows (MAX_TARGET_DIM = 20 rows).
NODES_21 = tuple((0.04 * k, 0.0, 0.0, 0.0) for k in range(21))


def near_threshold_obj(max_iter):
    """near_threshold_problem() asking for its minimal norm within max_iter iterations."""
    problem = near_threshold_problem()
    nodes = [(q.s.real, q.s.imag, q.p.real, q.p.imag) for q in problem.nodes.points]
    obj = pick_problem_obj(ws=(1.0, 1.0, -1.0), nodes=nodes)
    obj["payload"]["minimal_norm"] = True
    obj["opts"]["max_iter"] = max_iter
    return obj


def pick_problem_obj(ws=(0.5,), nodes=((0.0, 0.0, 0.0, 0.0),)):
    return {
        "format": 1,
        "kind": "pick",
        "payload": {
            "nodes": [list(n) for n in nodes],
            "targets": [[w, 0.0] for w in ws],
            "norm_bound": 1.0,
        },
        "grid": {"kind": "solver_default"},
        "opts": {"tol": 1e-8, "max_iter": 20000, "seed": 0},
    }


class TestRun:
    def test_pick_file_roundtrip(self, tmp_path, capsys):
        p_in = tmp_path / "p.json"
        p_out = tmp_path / "r.json"
        write_json(p_in, pick_problem_obj())
        code = run(["pick", "--in", str(p_in), "--out", str(p_out)])
        assert code == 0
        report = json.loads(p_out.read_text())
        assert report["status"] == "Feasible"
        assert report["problem"] == pick_problem_obj()
        assert report["tool_version"]

    def test_membership_flags(self, capsys):
        code = run(["membership", "--s", "0.8", "0", "--p", "0.15", "0"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["is_member"] is True

    def test_membership_nonmember_still_exit_zero(self, capsys):
        code = run(["membership", "--s", "2.0", "0", "--p", "1.0", "0"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["is_member"] is False
        assert out["reason"] == "s out of range"

    def test_membership_pole_on_circle_writes_null_sup(self, capsys):
        # |s| = 2 with s^2 != 4p: the sup of |phi| on the circle is unbounded
        code = run(["membership", "--s", "2", "0", "--p", "0.5", "0"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["is_member"] is False
        assert out["sup_modulus"] is None

    @pytest.mark.parametrize(
        "literal",
        ["NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400],
        ids=["nan", "inf", "-inf", "1e999", "int-1e400"],
    )
    def test_non_finite_number_is_an_input_error(self, tmp_path, capsys, literal):
        p_in = tmp_path / "p.json"
        text = json.dumps(pick_problem_obj()).replace("[0.5, 0.0]", f"[{literal}, 0.0]")
        assert literal in text
        p_in.write_text(text)
        code = run(["pick", "--in", str(p_in)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("input error:") and captured.err.count("\n") == 1

    def test_non_finite_flag_rejected(self, capsys):
        assert run(["membership", "--s", "nan", "0", "--p", "0", "0"]) == 1

    def test_huge_pick_target_is_one_input_error_line(self, tmp_path):
        # finite input whose square overflows: J = 1 - 1e600 is not a double
        p_in = tmp_path / "huge.json"
        write_json(p_in, pick_problem_obj(ws=(1e300,), nodes=((0.1, 0.0, 0.0, 0.0),)))
        src = os.path.dirname(os.path.dirname(symbidisk.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "symbidisk.cli", "pick", "--in", str(p_in)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("input error:")

    def test_minimal_norm_budget_is_one_numerical_failure_line(self, tmp_path):
        p_in = tmp_path / "budget.json"
        write_json(p_in, near_threshold_obj(max_iter=3))
        src = os.path.dirname(os.path.dirname(symbidisk.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "symbidisk.cli", "pick", "--in", str(p_in)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical failure: minimal-norm")

    def test_minimal_norm_of_a_loop_file_with_close_nodes(self, tmp_path, capsys):
        # its bracket once stalled at sigma = 1e8 (exit 2, "stalled at relative width")
        p_in = tmp_path / "loop.json"
        obj = {
            "format": 1,
            "kind": "pick",
            "payload": {
                "nodes": LOOP_FILE_NODES, "targets": LOOP_FILE_TARGETS, "minimal_norm": True
            },
            "opts": {"max_iter": 2000},
        }
        write_json(p_in, obj)
        code = run(["pick", "--in", str(p_in)])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert json.loads(captured.out)["minimal_norm"] == pytest.approx(0.8336077, abs=2e-4)

    def test_pick_out_of_budget_reports_unknown(self, tmp_path, capsys):
        # just above the loop file's minimal norm, two interior-point iterations
        # decide nothing
        p_in = tmp_path / "loop.json"
        obj = {
            "format": 1,
            "kind": "pick",
            "payload": {
                "nodes": LOOP_FILE_NODES, "targets": LOOP_FILE_TARGETS, "norm_bound": 0.8337
            },
            "opts": {"max_iter": 2},
        }
        write_json(p_in, obj)
        reports = []
        for _ in range(2):
            code = run(["pick", "--in", str(p_in)])
            captured = capsys.readouterr()
            assert code == 0, captured.err
            reports.append(json.loads(captured.out))
        first, again = reports
        assert first["status"] == "Unknown"
        assert first["solve"]["iterations"] == 2
        assert "interpolant" not in first
        assert first["report_hash"] == again["report_hash"]
        assert report_hash(first) == first["report_hash"]

    @pytest.mark.parametrize("content", [b"\xff\xfe{", None], ids=["non-utf8", "directory"])
    def test_unreadable_problem_file_is_one_input_error_line(self, tmp_path, capsys, content):
        p_in = tmp_path / "p.json"
        if content is None:
            p_in.mkdir()
        else:
            p_in.write_bytes(content)
        assert run(["pick", "--in", str(p_in)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("input error:"), lines

    @pytest.mark.parametrize("argv", [
        ["membership", "--s", "1e300", "0"],
        ["membership", "--s", "1e160", "0", "--p", "0.5", "0"],
    ])
    def test_huge_membership_input_is_an_input_error(self, argv, capsys):
        assert run(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("input error:")

    def test_missing_field_names_it(self, tmp_path, capsys):
        p_in = tmp_path / "p.json"
        obj = pick_problem_obj()
        del obj["payload"]["targets"]
        write_json(p_in, obj)
        code = run(["pick", "--in", str(p_in)])
        assert code == 1
        assert "targets" in capsys.readouterr().err

    def test_malformed_json_diagnostic(self, tmp_path, capsys):
        p_in = tmp_path / "broken.json"
        p_in.write_text('{"format": 1,,}')
        code = run(["pick", "--in", str(p_in)])
        assert code == 1
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_infeasible_is_still_a_completed_run(self, tmp_path):
        p_in = tmp_path / "p.json"
        obj = pick_problem_obj(ws=(1.5,))
        write_json(p_in, obj)
        p_out = tmp_path / "r.json"
        assert run(["pick", "--in", str(p_in), "--out", str(p_out)]) == 0
        assert json.loads(p_out.read_text())["status"] == "InfeasibleCertified"

    def test_unknown_kind_rejected(self, tmp_path, capsys):
        p_in = tmp_path / "p.json"
        write_json(p_in, {"format": 1, "kind": "mystery", "payload": {}})
        assert run(["pick", "--in", str(p_in)]) == 1

    def test_gamma_check(self, tmp_path, capsys):
        obj = {
            "format": 1,
            "kind": "gamma-check",
            "payload": {
                "first": {"rows": 2, "cols": 2, "entries": [[0.0, 0.0]] * 4},
                "second": {
                    "rows": 2,
                    "cols": 2,
                    "entries": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
                },
                "mode": "unitary",
            },
        }
        p_in = tmp_path / "g.json"
        write_json(p_in, obj)
        assert run(["gamma-check", "--in", str(p_in)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["passed"] is True

    def test_measure_model(self, tmp_path, capsys):
        obj = {
            "format": 1,
            "kind": "measure-model",
            "payload": {"atoms": [[2.0, 0.0, 1.0, 0.0]], "weights": [1.0]},
        }
        p_in = tmp_path / "m.json"
        write_json(p_in, obj)
        assert run(["measure-model", "--in", str(p_in)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["isometry_passed"] is True and out["dim"] == 1
        # no rank field: distinct atoms with positive weights are cyclic by construction
        assert set(out) == MEASURE_REPORT_FIELDS

    def test_sequence_kind(self, tmp_path, capsys):
        obj = {
            "format": 1,
            "kind": "sequence",
            "payload": {
                "nodes": [[1.0, 0.0, 0.25, 0.0], [-1.0, 0.0, 0.25, 0.0]],
                "kernels": 4,
                "bound": 1.5,
            },
            "grid": {"kind": "solver_default"},
        }
        p_in = tmp_path / "s.json"
        write_json(p_in, obj)
        assert run(["sequence", "--in", str(p_in)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["carleson"]["delta_hat"] == pytest.approx(0.8, abs=1e-9)
        assert out["strong_separation"]["all_feasible"] is True

    def test_sequence_flags_override_payload(self, tmp_path, capsys):
        obj = {
            "format": 1,
            "kind": "sequence",
            "payload": {
                "nodes": [[1.0, 0.0, 0.25, 0.0], [-1.0, 0.0, 0.25, 0.0]],
                "kernels": 4,
                "bound": 1.5,
            },
        }
        p_in = tmp_path / "s.json"
        write_json(p_in, obj)
        code = run(
            ["sequence", "--in", str(p_in), "--n", "1", "--bound", "1.0", "--kernels", "2"]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["n"] == 1
        assert out["strong_separation"]["bound"] == 1.0


class TestDeterminismAndEcho:
    def test_identical_reruns_hash_identical(self):
        obj = pick_problem_obj(ws=(0.3, -0.4), nodes=((1.0, 0, 0.25, 0), (-1.0, 0, 0.25, 0)))
        r1 = execute_problem(obj)
        r2 = execute_problem(obj)
        assert r1["report_hash"] == r2["report_hash"]
        assert report_hash(r1) == r1["report_hash"]

    def test_problem_echo_reparses_equal(self, tmp_path):
        obj = pick_problem_obj()
        r = execute_problem(obj)
        text = json.dumps(r["problem"])
        assert json.loads(text) == obj


# Problems keyed by case name with their report hashes, pinned from reports
# that were still pretty-printed and still carried a nested ``solve.wall_time``:
# the report text may change form, the hash of the same problem may not.
# ``pick``, ``pick-certified`` and ``corona`` were re-pinned when the
# interior-point method took over the feasibility solve: their witness blocks,
# certificate and notes come from it.
GOLDEN = {
    "pick": (
        {
            "format": 1,
            "kind": "pick",
            "payload": {
                "nodes": [[1.0, 0, 0.25, 0], [-1.0, 0, 0.25, 0]],
                "targets": [[-0.5, 0], [0.5, 0]],
            },
            "grid": {"kind": "solver_default"},
            "opts": {"seed": 7},
        },
        "9f9a2c9aa8b329bea773ee9944b277a97959a625fc5af4aceba1a4ca687dd599",
    ),
    "pick-certified": (
        {
            "format": 1,
            "kind": "pick",
            "payload": {
                "nodes": [[1.0, 0, 0.25, 0], [-1.0, 0, 0.25, 0]],
                "targets": [[-0.9, 0], [0.9, 0]],
            },
            "opts": {"seed": 11},
        },
        "bfd2493d09b5d95b316aeabb6978d6edbf6404e0bf15bc68d7be040921fba0af",
    ),
    "corona": (
        {
            "format": 1,
            "kind": "corona",
            "payload": {
                "nodes": [[0.3, 0.1, 0.05, 0.0], [-0.2, 0.0, 0.0, 0.1]],
                "phi_samples": [
                    {"rows": 1, "cols": 2, "entries": [[0.2, 0.0], [0.7, 0.0]]},
                    {"rows": 1, "cols": 2, "entries": [[-0.1, 0.05], [0.7, 0.0]]},
                ],
                "delta": 0.3,
            },
            "opts": {"seed": 5},
        },
        "993d90b17bf8e6f50deb153b254f824afb38f6913caa3cbd2cae74fb4a3f2d2a",
    ),
    "sequence": (
        {
            "format": 1,
            "kind": "sequence",
            "payload": {
                "nodes": [[1.0, 0, 0.25, 0], [-1.0, 0, 0.25, 0]],
                "kernels": 4,
                "bound": 1.5,
            },
            "opts": {"seed": 3},
        },
        "1d519319888d220ef1f85467d565bc05ab9f2deb0e5e09f1c58aeb222c9687d0",
    ),
    "membership": (
        {"format": 1, "kind": "membership", "payload": {"s": [0.8, 0], "p": [0.15, 0]}},
        "f0bcf15f1b2669522b7f39419a170c9ce3a6e65097c404dc7e45aceca5c98a27",
    ),
}


EMPTY_0X0 = {"rows": 0, "cols": 0, "entries": []}
EMPTY_1X0 = {"rows": 1, "cols": 0, "entries": []}

# One malformed field per problem: (kind, path to the field, value).  Each is
# an input error (exit 1, one line), never a traceback.
MALFORMED = {
    "grid-without-alphas": ("pick", ("grid",), {"kind": "explicit"}),
    "grid-string": ("pick", ("grid",), "solver_default"),
    "grid-n-not-integer": ("pick", ("grid",), {"kind": "boundary", "n": "eight"}),
    "max-iter-string": ("pick", ("opts", "max_iter"), "x"),
    "opts-list": ("pick", ("opts",), [1, 2]),
    "nodes-integer": ("pick", ("payload", "nodes"), 3),
    "node-row-string": ("pick", ("payload", "nodes", 0, 0), "a"),
    "target-entry-string": ("pick", ("payload", "targets", 0, 0), "a"),
    "norm-bound-string": ("pick", ("payload", "norm_bound"), "x"),
    "norm-bound-numeric-string": ("pick", ("payload", "norm_bound"), "2.0"),
    "max-iter-numeric-string": ("pick", ("opts", "max_iter"), "7"),
    "grid-n-fractional": ("pick", ("grid",), {"kind": "boundary", "n": 2.7}),
    "grid-n-huge": ("pick", ("grid",), {"kind": "boundary", "n": 1e12}),
    "include-zero-string": (
        "pick", ("grid",), {"kind": "boundary", "n": 8, "include_zero": "false"}
    ),
    "minimal-norm-string": ("pick", ("payload", "minimal_norm"), "false"),
    "matrix-shape-negative": (
        "corona",
        ("payload", "phi_samples", 0),
        {"rows": -1, "cols": -2, "entries": [[0.2, 0.0], [0.7, 0.0]]},
    ),
    "delta-string": ("corona", ("payload", "delta"), "x"),
    "membership-tol-string": ("membership", ("payload", "tol"), "x"),
    "atom-row-short": ("measure-model", ("payload", "atoms", 0), [2.0, 0.0, 1.0]),
    "weights-string": ("measure-model", ("payload", "weights"), "ab"),
    "sequence-n-negative": ("sequence", ("payload", "n"), -1),
    "sequence-n-above-nodes": ("sequence", ("payload", "n"), 10),
    "alpha-samples-negative": ("sequence", ("payload", "alpha_samples"), -3),
    "sequence-kernels-zero": ("sequence", ("payload", "kernels"), 0),
    "sequence-kernels-negative": ("sequence", ("payload", "kernels"), -2),
    "sequence-kernels-above-cap": ("sequence", ("payload", "kernels"), 1025),
    "sequence-21-nodes": ("sequence", ("payload", "nodes"), [list(n) for n in NODES_21]),
    # zero-dimension matrices
    "pick-targets-0x0": ("pick", ("payload", "targets"), [EMPTY_0X0] * 2),
    "pick-targets-1x0": ("pick", ("payload", "targets"), [EMPTY_1X0] * 2),
    "phi-samples-0x0": ("corona", ("payload", "phi_samples"), [EMPTY_0X0] * 2),
    "theta-samples-1x0": ("corona", ("payload", "theta_samples"), [EMPTY_1X0] * 2),
    "gamma-pair-0x0": ("gamma-check", ("payload",), {"first": EMPTY_0X0, "second": EMPTY_0X0}),
    # list fields given a number
    "targets-integer": ("pick", ("payload", "targets"), 5),
    "phi-samples-integer": ("corona", ("payload", "phi_samples"), 5),
    "theta-samples-integer": ("corona", ("payload", "theta_samples"), 7),
    # solver options out of range
    "seed-negative": ("corona", ("opts", "seed"), -1),
    "sequence-seed-negative": ("sequence", ("opts", "seed"), -1),
    "tol-negative": ("pick", ("opts", "tol"), -1e-8),
    "max-iter-negative": ("pick", ("opts", "max_iter"), -1),
    # finite input whose target entries pass MAX_TARGET_ENTRY
    "pick-target-huge": ("pick", ("payload", "targets", 0), [1e80, 0.0]),
    "corona-delta-huge": ("corona", ("payload", "delta"), 1e160),
}

# Solver flags out of range: (kind, flag, value).
BAD_FLAGS = [
    ("corona", "--seed", "-1"),
    ("sequence", "--seed", "-1"),
    ("pick", "--tol", "nan"),
    ("pick", "--tol", "inf"),
    ("pick", "--tol", "-1"),
    ("pick", "--max-iter", "-1"),
]


def malformed_problem(case):
    kind, path, value = MALFORMED[case]
    if kind == "measure-model":
        obj = {"format": 1, "kind": kind, "payload": {"atoms": [[2.0, 0.0, 1.0, 0.0]]}}
    elif kind == "gamma-check":
        obj = {"format": 1, "kind": kind, "payload": {}}
    else:
        obj = json.loads(json.dumps(GOLDEN[kind][0]))
    parent = obj
    for key in path[:-1]:
        parent = parent.setdefault(key, {}) if isinstance(parent, dict) else parent[key]
    parent[path[-1]] = value
    return obj


def golden_corpus(tmp_path):
    d = tmp_path / "golden"
    d.mkdir()
    for case, (problem, _) in GOLDEN.items():
        write_json(d / f"{case}.json", problem)
    return d


class TestMalformedFields:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_one_input_error_line(self, case, tmp_path, capsys):
        p_in = tmp_path / "p.json"
        write_json(p_in, malformed_problem(case))
        code = run([MALFORMED[case][0], "--in", str(p_in)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("input error:"), lines

    @pytest.mark.parametrize(
        "case", ["sequence-kernels-zero", "sequence-kernels-negative", "sequence-kernels-above-cap"]
    )
    def test_kernel_count_error_names_the_field(self, case, capsys):
        with pytest.raises(symbidisk.ValidationError, match="'kernels'"):
            execute_problem(malformed_problem(case))

    @pytest.mark.parametrize("case", ["targets-integer", "phi-samples-integer",
                                      "theta-samples-integer"])
    def test_non_list_error_names_the_field(self, case):
        field = MALFORMED[case][1][-1]
        with pytest.raises(symbidisk.ValidationError, match=f"'{field}' must be a list"):
            execute_problem(malformed_problem(case))

    def test_corona_phi_without_columns_is_certified_infeasible(self):
        # Phi_i of shape 1 x 0 cannot reach Theta_i = sqrt(delta): a valid problem
        obj = malformed_problem("phi-samples-0x0")
        obj["payload"]["phi_samples"] = [EMPTY_1X0] * 2
        assert execute_problem(obj)["status"] == "InfeasibleCertified"

    def test_pick_above_the_node_cap_is_one_input_error_line(self, tmp_path, capsys):
        p_in = tmp_path / "p.json"
        write_json(p_in, pick_problem_obj(ws=(0.0,) * 21, nodes=NODES_21))
        assert run(["pick", "--in", str(p_in)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("input error:"), lines
        assert "21 rows" in lines[0]

    def test_measure_above_the_atom_cap_is_one_input_error_line(self, tmp_path, capsys):
        # s = 2 cos(t), p = 1: distinct points of the boundary of the symmetrized bidisk
        rows = [[2.0 * math.cos(math.pi * k / 1024), 0.0, 1.0, 0.0] for k in range(1025)]
        p_in = tmp_path / "m.json"
        write_json(p_in, {"format": 1, "kind": "measure-model", "payload": {"atoms": rows}})
        assert run(["measure-model", "--in", str(p_in)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("input error:"), lines
        assert "1025 atoms" in lines[0]

    def test_kernels_flag_above_the_cap_is_one_input_error_line(self, tmp_path, capsys):
        p_in = tmp_path / "s.json"
        write_json(p_in, GOLDEN["sequence"][0])
        assert run(["sequence", "--in", str(p_in), "--kernels", "1025"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("input error:"), lines
        assert "'kernels'" in lines[0]

    @pytest.mark.parametrize("kind, flag, value", BAD_FLAGS)
    def test_bad_solver_flag_is_one_input_error_line(self, kind, flag, value, tmp_path, capsys):
        p_in = tmp_path / "p.json"
        write_json(p_in, GOLDEN[kind][0])
        assert run([kind, "--in", str(p_in), flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("input error:"), lines
        assert f"'{flag[2:].replace('-', '_')}'" in lines[0]

    def test_non_finite_report_is_one_numerical_failure_line(self, tmp_path, capsys, monkeypatch):
        # the encoder's backstop behind the input checks
        monkeypatch.setitem(symbidisk.cli._HANDLERS, "membership", lambda *a: {"x": math.inf})
        p_in = tmp_path / "m.json"
        write_json(p_in, GOLDEN["membership"][0])
        assert run(["membership", "--in", str(p_in)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical failure:"), lines
        d = golden_corpus(tmp_path)
        assert run(["corpus", "--in", str(d)]) == 1
        lines = capsys.readouterr().out.splitlines()
        fails = [line for line in lines if line.startswith("FAIL")]
        assert len(fails) == 1 and fails[0].startswith("FAIL  membership.json"), lines
        assert "numerical-failure" in fails[0]

    def test_huge_grid_flag_is_one_input_error_line(self, tmp_path, capsys):
        p_in = tmp_path / "p.json"
        write_json(p_in, GOLDEN["pick"][0])
        assert run(["pick", "--in", str(p_in), "--grid", "1000000000000"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("input error:"), lines


class TestReportFiles:
    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_golden_hash(self, case):
        problem, want = GOLDEN[case]
        assert execute_problem(json.loads(json.dumps(problem)))["report_hash"] == want

    def test_written_reports_are_canonical_json(self, tmp_path, capsys):
        d = golden_corpus(tmp_path)
        out_dir = tmp_path / "reports"
        assert run(["corpus", "--in", str(d), "--out", str(out_dir)]) == 0
        assert run(["pick", "--in", str(d / "pick.json"), "--out", str(tmp_path / "r.json")]) == 0
        capsys.readouterr()
        assert run(["pick", "--in", str(d / "pick.json")]) == 0
        texts = {
            "pick stdout": capsys.readouterr().out.removesuffix("\n"),
            "pick --out": (tmp_path / "r.json").read_text(),
        }
        for case in GOLDEN:
            texts[case] = (out_dir / f"{case}.report.json").read_text()
        for name, text in texts.items():
            report = json.loads(text)
            assert text == canonical_json(report), name
            case = name if name in GOLDEN else "pick"
            assert report_hash(report) == report["report_hash"] == GOLDEN[case][1]
            if report["kind"] in ("pick", "corona"):
                assert report["timings"]["solve"] >= 0.0
                assert "wall_time" not in report["solve"]
                report["timings"]["solve"] += 1.0
                assert report_hash(report) == report["report_hash"]

    def test_corpus_encodes_each_report_once(self, tmp_path, capsys, monkeypatch):
        # the hashed and the written text are joined from one encoding of
        # each top-level member, so the encoder sees the written text less its
        # keys, braces and hash (encoding twice would show about twice it)
        d = golden_corpus(tmp_path)
        out_dir = tmp_path / "reports"
        encoded = []
        real = symbidisk.serialize.canonical_json

        def counted(obj):
            text = real(obj)
            encoded.append(len(text))
            return text

        for module in (symbidisk.serialize, symbidisk.cli):  # wherever the name is bound
            if hasattr(module, "canonical_json"):
                monkeypatch.setattr(module, "canonical_json", counted)
        assert run(["corpus", "--in", str(d), "--out", str(out_dir)]) == 0
        written = sum(len(p.read_text()) for p in out_dir.iterdir())
        assert 0.5 * written < sum(encoded) <= written

    def test_jobs_is_accepted_and_ignored(self, tmp_path, capsys):
        d = golden_corpus(tmp_path)
        texts = []
        for jobs in ("1", "8"):
            out_dir = tmp_path / f"jobs{jobs}"
            assert run(["corpus", "--in", str(d), "--out", str(out_dir), "--jobs", jobs]) == 0
            reports = {}
            for name in sorted(os.listdir(out_dir)):
                report = json.loads((out_dir / name).read_text())
                del report["timings"]
                reports[name] = canonical_json(report)
            texts.append(reports)
        assert len(texts[0]) == len(GOLDEN)
        assert texts[0] == texts[1]


class TestCorpus:
    def _make_corpus(self, tmp_path):
        d = tmp_path / "corpus"
        d.mkdir()
        write_json(d / "a.json", pick_problem_obj())
        write_json(d / "a.expected.json", {"equals": {"status": "Feasible"}})
        write_json(d / "b.json", pick_problem_obj(ws=(1.5,)))
        write_json(d / "b.expected.json", {"equals": {"status": "InfeasibleCertified"}})
        mem = {
            "format": 1,
            "kind": "membership",
            "payload": {"s": [0.8, 0.0], "p": [0.15, 0.0]},
        }
        write_json(d / "c.json", mem)
        write_json(
            d / "c.expected.json",
            {"equals": {"is_member": True}, "approx": {"sup_modulus": [0.41666666, 1e-6]}},
        )
        return d

    def test_golden_corpus_passes(self, tmp_path, capsys):
        d = self._make_corpus(tmp_path)
        out_dir = tmp_path / "reports"
        code = run(["corpus", "--in", str(d), "--out", str(out_dir), "--jobs", "2"])
        assert code == 0
        assert "3/3 passed" in capsys.readouterr().out
        assert sorted(os.listdir(out_dir)) == [
            "a.report.json",
            "b.report.json",
            "c.report.json",
        ]

    def test_corpus_rerun_hashes_match(self, tmp_path):
        d = self._make_corpus(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run(["corpus", "--in", str(d), "--out", str(out1)]) == 0
        assert run(["corpus", "--in", str(d), "--out", str(out2)]) == 0
        for name in os.listdir(out1):
            a = json.loads((out1 / name).read_text())
            b = json.loads((out2 / name).read_text())
            assert report_hash(a) == report_hash(b)

    def test_status_mismatch_fails(self, tmp_path, capsys):
        d = tmp_path / "corpus"
        d.mkdir()
        write_json(d / "a.json", pick_problem_obj())
        write_json(d / "a.expected.json", {"equals": {"status": "InfeasibleCertified"}})
        assert run(["corpus", "--in", str(d)]) == 1

    def test_corrupted_expected_fails(self, tmp_path):
        d = tmp_path / "corpus"
        d.mkdir()
        write_json(d / "a.json", pick_problem_obj())
        (d / "a.expected.json").write_text("{not json")
        assert run(["corpus", "--in", str(d)]) == 1

    @pytest.mark.parametrize(
        "sidecar",
        [[1, 2], {"equals": ["status"]}, {"approx": 3}, "Feasible", None],
        ids=["list", "equals-list", "approx-number", "string", "directory"],
    )
    def test_malformed_expected_fails_alone(self, tmp_path, capsys, sidecar):
        d = self._make_corpus(tmp_path)
        write_json(d / "d.json", pick_problem_obj())
        if sidecar is None:
            (d / "d.expected.json").mkdir()
        else:
            write_json(d / "d.expected.json", sidecar)
        assert run(["corpus", "--in", str(d)]) == 1
        lines = capsys.readouterr().out.splitlines()
        fails = [line for line in lines if line.startswith("FAIL")]
        assert len(fails) == 1 and fails[0].startswith("FAIL  d.json"), lines
        assert "corrupt-expected" in fails[0]
        assert lines[-1] == "corpus: 3/4 passed"

    def test_non_utf8_file_fails_alone(self, tmp_path, capsys):
        d = self._make_corpus(tmp_path)
        (d / "bad.json").write_bytes(b"\xff\xfe{")
        assert run(["corpus", "--in", str(d)]) == 1
        lines = capsys.readouterr().out.splitlines()
        fails = [line for line in lines if line.startswith("FAIL")]
        assert len(fails) == 1 and fails[0].startswith("FAIL  bad.json"), lines
        assert "input-error" in fails[0]
        assert lines[-1] == "corpus: 3/4 passed"

    def test_non_finite_file_fails_alone(self, tmp_path, capsys):
        d = self._make_corpus(tmp_path)
        (d / "bad.json").write_text(
            json.dumps(pick_problem_obj()).replace("[0.5, 0.0]", "[NaN, 0.0]")
        )
        assert run(["corpus", "--in", str(d), "--jobs", "2"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith("FAIL  bad.json") and "input-error" in line for line in lines)
        assert sum(line.startswith("PASS") for line in lines) == 3
        assert lines[-1] == "corpus: 3/4 passed"

    def test_malformed_field_fails_alone(self, tmp_path, capsys):
        d = self._make_corpus(tmp_path)
        write_json(d / "bad.json", malformed_problem("max-iter-string"))
        assert run(["corpus", "--in", str(d)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[2].startswith("FAIL  bad.json") and "input-error" in lines[2]
        assert sum(line.startswith("PASS") for line in lines) == 3
        assert lines[-1] == "corpus: 3/4 passed"

    def test_huge_file_fails_alone(self, tmp_path, capsys):
        d = tmp_path / "corpus"
        d.mkdir()
        write_json(d / "good.json", pick_problem_obj())
        write_json(d / "good.expected.json", {"equals": {"status": "Feasible"}})
        write_json(d / "huge.json", pick_problem_obj(ws=(1e300,)))
        mem = {"format": 1, "kind": "membership", "payload": {"s": [1e300, 0.0], "p": [0.0, 0.0]}}
        write_json(d / "huge_member.json", mem)
        assert run(["corpus", "--in", str(d), "--jobs", "2"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("PASS  good.json")
        assert all(
            line.startswith(f"FAIL  {name}") and "input-error" in line
            for line, name in zip(lines[1:3], ("huge.json", "huge_member.json"))
        )
        assert lines[-1] == "corpus: 1/3 passed"

    def test_every_malformed_file_is_an_input_error(self, tmp_path, capsys):
        d = tmp_path / "corpus"
        d.mkdir()
        for case in MALFORMED:
            write_json(d / f"{case}.json", malformed_problem(case))
        assert run(["corpus", "--in", str(d)]) == 1
        lines = capsys.readouterr().out.splitlines()
        fails = [line for line in lines if line.startswith("FAIL")]
        assert len(fails) == len(MALFORMED)
        assert all("input-error" in line for line in fails), fails
        assert lines[-1] == f"corpus: 0/{len(MALFORMED)} passed"

    def test_pick_above_the_node_cap_fails_alone(self, tmp_path, capsys):
        d = tmp_path / "corpus"
        d.mkdir()
        write_json(d / "big.json", pick_problem_obj(ws=(0.0,) * 21, nodes=NODES_21))
        write_json(d / "good.json", pick_problem_obj())
        write_json(d / "good.expected.json", {"equals": {"status": "Feasible"}})
        assert run(["corpus", "--in", str(d)]) == 1
        lines = capsys.readouterr().out.splitlines()
        fails = [line for line in lines if line.startswith("FAIL")]
        assert len(fails) == 1 and fails[0].startswith("FAIL  big.json"), lines
        assert "input-error" in fails[0]
        assert any(line.startswith("PASS  good.json") for line in lines)
        assert lines[-1] == "corpus: 1/2 passed"

    def test_minimal_norm_budget_fails_alone(self, tmp_path, capsys):
        d = self._make_corpus(tmp_path)
        write_json(d / "budget.json", near_threshold_obj(max_iter=3))
        assert run(["corpus", "--in", str(d)]) == 1
        lines = capsys.readouterr().out.splitlines()
        fails = [line for line in lines if line.startswith("FAIL")]
        assert len(fails) == 1 and fails[0].startswith("FAIL  budget.json"), lines
        assert "numerical-failure: minimal-norm" in fails[0]
        assert lines[-1] == "corpus: 3/4 passed"

    def test_unexpected_exception_fails_one_file(self, tmp_path, capsys, monkeypatch):
        d = self._make_corpus(tmp_path)
        real = symbidisk.cli._execute  # what corpus calls: execute_problem's report and text

        def flaky(problem, overrides=None):
            if problem["kind"] == "membership":
                raise RuntimeError("boom")
            return real(problem, overrides)

        monkeypatch.setattr(symbidisk.cli, "_execute", flaky)
        assert run(["corpus", "--in", str(d), "--jobs", "2"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert any(
            line.startswith("FAIL  c.json") and "internal-error: RuntimeError: boom" in line
            for line in lines
        )
        assert lines[-1] == "corpus: 2/3 passed"

    def test_empty_directory_passes(self, tmp_path, capsys):
        d = tmp_path / "empty"
        d.mkdir()
        assert run(["corpus", "--in", str(d)]) == 0
        assert "0/0 passed" in capsys.readouterr().out
