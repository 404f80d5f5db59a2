import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import time
import unittest.mock
import warnings
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import symbidisk
import symbidisk.cli
from symbidisk.cli import execute_problem, run
from symbidisk.kernels import coefficient_masks, szego_pullbacks
from symbidisk.serialize import canonical_json, encode_grid, encode_matrix, report_hash

from conftest import (
    LOOP_FILE_NODES,
    LOOP_FILE_TARGETS,
    MEASURE_REPORT_FIELDS,
)

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))

import verify  # noqa: E402
import workloads  # noqa: E402


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def input_error_line(code, out, err):
    """The one stderr line of a run that ended in an input error: exit 1, nothing on stdout."""
    lines = err.splitlines()
    assert code == 1 and out == "", (code, out, lines)
    assert len(lines) == 1 and lines[0].startswith("input error:"), lines
    return lines[0]


# One node more than a feasibility target allows (MAX_TARGET_DIM = 20 rows).
NODES_21 = tuple((0.04 * k, 0.0, 0.0, 0.0) for k in range(21))


# Flags that once overrode a problem's grid and solver options: (flag, value).
DELETED_FLAGS = [("--grid", "16"), ("--tol", "1e-4"), ("--max-iter", "5"), ("--seed", "3")]


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
    @pytest.mark.parametrize(
        "argv, stdin, code, stream, start",
        [
            ([], "", 1, "out", "usage: symbidisk"),
            (["pick", "--in", "absent.json"], "", 1, "err",
             "input error: problem file not found: absent.json"),
            (["pick"], json.dumps(pick_problem_obj()), 0, "out", '{"format":1,'),
        ],
        ids=["no-subcommand", "missing-in-file", "problem-on-stdin"],
    )
    def test_run_reads_stdin_or_refuses_what_it_cannot_read(
        self, argv, stdin, code, stream, start, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        assert run(argv) == code
        out, err = capsys.readouterr()
        assert (out if stream == "out" else err).startswith(start)
        if code == 0:  # the report of the problem read from stdin
            assert json.loads(out)["problem"] == json.loads(stdin)

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

    def test_membership_member(self, tmp_path, capsys):
        assert run(["membership", "--in", membership_file(tmp_path, 0.8, 0.15)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["is_member"] is True

    def test_membership_nonmember_still_exit_zero(self, tmp_path, capsys):
        assert run(["membership", "--in", membership_file(tmp_path, 2.0, 1.0)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["is_member"] is False
        assert out["reason"] == "s out of range"

    def test_membership_pole_on_circle_writes_null_sup(self, tmp_path, capsys):
        # |s| = 2 with s^2 != 4p: the sup of |phi| on the circle is unbounded
        assert run(["membership", "--in", membership_file(tmp_path, 2.0, 0.5)]) == 0
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
        input_error_line(run(["pick", "--in", str(p_in)]), *capsys.readouterr())

    @pytest.mark.parametrize(
        "s, p",
        [
            pytest.param("[NaN, 0]", "[0, 0]", id="s-nan"),
            pytest.param("[0, Infinity]", "[0, 0]", id="s-inf"),
            pytest.param("[0, 0]", "[1e309, 0]", id="p-1e309"),
            pytest.param("[0, 0]", "[0, NaN]", id="p-nan"),
            pytest.param('["abc", 0]', "[0, 0]", id="s-abc"),
            pytest.param("[0, 0]", '[0, "abc"]', id="p-abc"),
        ],
    )
    def test_bad_point_is_one_input_error_line(self, tmp_path, capsys, s, p):
        p_in = tmp_path / "m.json"
        p_in.write_text(f'{{"format": 1, "kind": "membership", "payload": {{"s": {s}, "p": {p}}}}}')
        input_error_line(run(["membership", "--in", str(p_in)]), *capsys.readouterr())

    @pytest.mark.parametrize(
        "flags",
        [["--s", "0.8", "0", "--p", "0.15", "0"], ["--in", "FILE", "--p", "1.0", "0"]],
        ids=["point", "point-with-file"],
    )
    def test_point_flags_are_a_usage_error(self, tmp_path, capsys, flags):
        # a membership problem comes from its file only
        p_in = write_input(tmp_path, "membership")
        assert run(["membership", *(str(p_in) if f == "FILE" else f for f in flags)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: symbidisk")
        assert "unrecognized arguments: --" in captured.err

    def test_huge_pick_target_is_one_input_error_line(self, tmp_path):
        # finite input whose square overflows: J = 1 - 1e600 is not a double
        p_in = tmp_path / "huge.json"
        write_json(p_in, pick_problem_obj(ws=(1e300,), nodes=((0.1, 0.0, 0.0, 0.0),)))
        src = os.path.dirname(os.path.dirname(symbidisk.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "symbidisk.cli", "pick", "--in", str(p_in)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        input_error_line(proc.returncode, proc.stdout, proc.stderr)

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
        input_error_line(run(["pick", "--in", str(p_in)]), *capsys.readouterr())

    # p = 1e308 and 1e308 i: 4p overflows, and the sup once came out inf with
    # a NaN argmax, which only the report encoder caught (exit 2)
    @pytest.mark.parametrize(
        "s, p", [(1e300, 0.0), (1e160, 0.5), (0.1, 1e308), (0.1, 1e308j)]
    )
    def test_huge_membership_input_is_an_input_error(self, s, p, tmp_path, capsys):
        input_error_line(run(["membership", "--in", membership_file(tmp_path, s, p)]),
                         *capsys.readouterr())

    @pytest.mark.parametrize("p", [1e200, 1e300, 1e300j])
    def test_large_membership_input_is_a_non_member(self, p, tmp_path, capsys):
        assert run(["membership", "--in", membership_file(tmp_path, 0.1, p)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["is_member"] is False and out["sup_modulus"] > 1e199

    def test_malformed_json_diagnostic(self, tmp_path, capsys):
        # one message, whether the file runs alone or in a corpus
        d = tmp_path / "corpus"
        d.mkdir()
        p_in = d / "broken.json"
        p_in.write_text('{"format": 1,,}')
        line = input_error_line(run(["pick", "--in", str(p_in)]), *capsys.readouterr())
        want = "malformed JSON at line 1, column 14: Expecting property name enclosed in double quotes"
        assert line == f"input error: {want}"
        assert run(["corpus", "--in", str(d)]) == 1
        assert capsys.readouterr().out.splitlines()[0] == f"FAIL  broken.json  input-error: {want}"

    def test_unexpected_exception_is_one_internal_error_line(self, tmp_path, capsys, monkeypatch):
        # as corpus reports it: a traceback would end in exit 1, the input-error code
        def boom(*args):
            raise RuntimeError("boom")

        monkeypatch.setitem(symbidisk.cli._HANDLERS, "membership", boom)
        assert run(["membership", "--in", str(write_input(tmp_path, "membership"))]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("internal error: RuntimeError: boom (at "), lines

    def test_seed_reaches_only_the_sequence_census(self):
        # every report echoes opts.seed; only the sequence census draws from it
        picks = [execute_problem({**GOLDEN["pick"][0], "opts": {"seed": s}}) for s in (0, 9)]
        assert [r["seed"] for r in picks] == [0, 9]
        assert picks[0]["solve"] == picks[1]["solve"]
        assert picks[0]["interpolant"] == picks[1]["interpolant"]
        for seed in (0, 9):
            report = execute_problem({**GOLDEN["sequence"][0], "opts": {"seed": seed}})
            ids = [row["id"] for row in report["grammian"]["per_kernel"]]
            assert ids[-1] == f"rand[{seed + 1}]", ids
        assert [f.name for f in dataclasses.fields(symbidisk.SolveOptions)] == ["tol", "max_iter"]

    def test_infeasible_is_still_a_completed_run(self, tmp_path):
        p_in = tmp_path / "p.json"
        obj = pick_problem_obj(ws=(1.5,))
        write_json(p_in, obj)
        p_out = tmp_path / "r.json"
        assert run(["pick", "--in", str(p_in), "--out", str(p_out)]) == 0
        assert json.loads(p_out.read_text())["status"] == "InfeasibleCertified"

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

    def test_gamma_check_isometry_mode(self, tmp_path, capsys):
        p_in = tmp_path / "g.json"
        write_json(p_in, {"format": 1, "kind": "gamma-check",
                          "payload": {**GAMMA_PAIR_0_1, "mode": "isometry"}})
        assert run(["gamma-check", "--in", str(p_in)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["mode"] == "isometry" and out["passed"] is True

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
        assert "certificates" not in out["strong_separation"]

    def test_sequence_report_carries_its_certificates(self):
        # at bound 1, below the separation constant 1 / 0.8 of these two
        # nodes, neither unit-vector problem is solvable: each written kernel
        # is grid-admissible and violates its node's target at the bound
        obj = valid_problem("sequence")
        obj["payload"]["bound"] = 1.0
        strong = execute_problem(obj)["strong_separation"]
        assert strong["statuses"] == ["InfeasibleCertified"] * 2
        assert [cert["node"] for cert in strong["certificates"]] == [0, 1]
        for cert in strong["certificates"]:
            assert cert["kernel"]["nodes"] == obj["payload"]["nodes"]
            # n x n on the truncation's nodes
            kernel = np.array([complex(*z) for z in cert["kernel"]["entries"]]).reshape(2, 2)
            rows = np.array(cert["kernel"]["nodes"])
            s, p = rows[:, 0] + 1j * rows[:, 1], rows[:, 2] + 1j * rows[:, 3]
            j = verify.pick_target(list(np.eye(2)[cert["node"]]), 1.0)
            assert verify.certificate_ok(j, verify.SOLVER_GRID, kernel, s, p, 1e-8)

    @pytest.mark.parametrize(
        "pairs, kernels, checks",
        [
            # every pullback passes: candidates are tried until kernels // 2 are kept
            ([[1.0, 0, 0.25, 0], [-1.0, 0, 0.25, 0]], 4, 2),
            # none passes: all nine solver-grid candidates are tried
            ([[0.5, 0, 0.1, 0], [0.2, 0, -0.3, 0], [-0.6, 0, 0.05, 0]], 8, 9),
        ],
        ids=["pullbacks-kept", "pullbacks-dropped"],
    )
    def test_sequence_report_checks_each_pullback_once(self, pairs, kernels, checks, monkeypatch):
        # the census checks each pullback candidate on the grid once, and no
        # random draw, which is admissible by construction
        checked, drawn = [], []
        sequences = symbidisk.sequences
        check, draw = sequences.admissibility_check, sequences.random_admissible_kernel

        def counting_check(kern, *args):
            checked.append(kern)
            return check(kern, *args)

        def recording_draw(*args, **kwargs):
            drawn.append(draw(*args, **kwargs))
            return drawn[-1]

        monkeypatch.setattr(sequences, "admissibility_check", counting_check)
        monkeypatch.setattr(sequences, "random_admissible_kernel", recording_draw)
        problem = {"format": 1, "kind": "sequence",
                   "payload": {"nodes": pairs, "kernels": kernels, "bound": 1.5}}
        report = execute_problem(problem)
        assert report["grammian"]["kernel_count"] == kernels
        assert len(checked) == checks
        grid = symbidisk.AlphaGrid.solver_default()
        pullbacks = szego_pullbacks(coefficient_masks(grid, checked[0].nodes))
        for kern, pullback in zip(checked, pullbacks):
            assert np.array_equal(kern.matrix, pullback)
        kept = sum(row["id"].startswith("b[") for row in report["grammian"]["per_kernel"])
        assert len(drawn) == kernels - kept
        assert not any(d is k for d in drawn for k in checked)

    @pytest.mark.parametrize("flag, value", [("--n", "1"), ("--kernels", "2"),
                                             ("--alpha-samples", "4"), ("--bound", "1.0")])
    def test_sequence_payload_flags_are_rejected(self, tmp_path, capsys, flag, value):
        # a sequence problem comes from its file only
        p_in = tmp_path / "s.json"
        write_json(p_in, GOLDEN["sequence"][0])
        assert run(["sequence", "--in", str(p_in), flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {flag}" in captured.err

    def test_sequence_fields_in_the_file_set_the_report(self, tmp_path, capsys):
        obj = {
            "format": 1,
            "kind": "sequence",
            "payload": {"nodes": [[1.0, 0.0, 0.25, 0.0]], "kernels": 2, "bound": 1.0},
        }
        p_in = tmp_path / "s.json"
        write_json(p_in, obj)
        assert run(["sequence", "--in", str(p_in)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["n"] == 1
        assert out["strong_separation"]["bound"] == 1.0
        # echoing the two-node file that asked for its first node with "n": 1
        # gives the hash that `--n 1 --bound 1.0 --kernels 2` gave on a file
        # holding kernels 4 and bound 1.5, when those flags overrode the payload
        two_nodes = [[1.0, 0.0, 0.25, 0.0], [-1.0, 0.0, 0.25, 0.0]]
        echoed = {**obj, "payload": {**obj["payload"], "nodes": two_nodes, "n": 1}}
        assert report_hash({**out, "problem": echoed}) == (
            "1f5782c47c1168b6834c15d7524ba7975d8cb77533db25c0505fb27b8a28e32d"
        )

    @pytest.mark.parametrize("case", ["missing-dir", "directory", "corpus-out-is-a-file"])
    def test_unwritable_out_is_one_input_error_line(self, case, tmp_path, capsys):
        command = "corpus" if case.startswith("corpus") else "membership"
        p_in = write_input(tmp_path, command)
        out = {
            "missing-dir": tmp_path / "missing_dir" / "r.json",
            "directory": tmp_path / "d",
            "corpus-out-is-a-file": p_in / "a.json",
        }[case]
        (tmp_path / "d").mkdir()
        before = sorted(tmp_path.rglob("*"))
        input_error_line(run([command, "--in", str(p_in), "--out", str(out)]), *capsys.readouterr())
        assert sorted(tmp_path.rglob("*")) == before  # no temporary file is left

    @pytest.mark.parametrize("flag, value", DELETED_FLAGS)
    @pytest.mark.parametrize("command", [*symbidisk.cli.KINDS, "corpus"])
    def test_solver_flag_is_a_usage_error(self, command, flag, value, tmp_path, capsys):
        # the grid and the solver options come from the problem file only
        argv = [command, "--in", str(write_input(tmp_path, command)), flag, value]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {flag} {value}" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["pick", "--i", "IN"],
            ["pick", "--in", "IN", "--ou", "OUT"],
            ["membership", "--i", "IN"],
            ["sequence", "--in", "IN", "--s", "3"],  # once --seed 3
            ["corpus", "--i", "IN"],
            ["corpus", "--in", "IN", "--ou", "OUT"],
        ],
        ids=["pick-i", "pick-ou", "membership-i", "sequence-s", "corpus-i", "corpus-ou"],
    )
    def test_flag_prefix_is_a_usage_error(self, argv, tmp_path, capsys):
        # a prefix of a flag does not stand for the flag
        paths = {"IN": str(write_input(tmp_path, argv[0])), "OUT": str(tmp_path / "out")}
        assert run([paths.get(a, a) for a in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: symbidisk")
        assert not (tmp_path / "out").exists()


def membership_file(tmp_path, s, p):
    """The path of a membership problem at the point (s, p)."""
    path = tmp_path / "m.json"
    payload = {"s": [s.real, s.imag], "p": [p.real, p.imag]}
    write_json(path, {"format": 1, "kind": "membership", "payload": payload})
    return str(path)


def write_input(tmp_path, command):
    """The --in path of a valid run of ``command``: a problem file, or for
    ``corpus`` a directory holding one."""
    if command == "corpus":
        d = tmp_path / "problems"
        d.mkdir()
        write_json(d / "a.json", valid_problem("pick"))
        return d
    path = tmp_path / "p.json"
    write_json(path, valid_problem(command))
    return path


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

    def test_every_written_report_replays_from_its_problem(self, tmp_path):
        # a report is a function of the problem it echoes, whichever command wrote it
        d = golden_corpus(tmp_path)
        bench_files = workloads.CorpusFiles(100)
        bench_files.write(str(d))
        out_dir, singles = tmp_path / "reports", tmp_path / "singles"
        assert run(["corpus", "--in", str(d), "--out", str(out_dir)]) == 0
        singles.mkdir()
        for case, (problem, _) in GOLDEN.items():
            argv = [problem["kind"], "--in", str(d / f"{case}.json")]
            assert run([*argv, "--out", str(singles / case)]) == 0
        written = [*out_dir.iterdir(), *singles.iterdir()]
        assert len(written) == 2 * len(GOLDEN) + len(bench_files.files)
        for path in written:
            report = json.loads(path.read_text())
            replayed = execute_problem(report["problem"])["report_hash"]
            assert replayed == report["report_hash"], path.name
        for name, (_, expected) in bench_files.files.items():
            report = json.loads((out_dir / f"{name}.report.json").read_text())
            assert workloads.check_report(report, expected) == "ok", name


# Problems keyed by case name with their report hashes, pinned from reports
# that were still pretty-printed and still carried a nested ``solve.wall_time``:
# the report text may change form, the hash of the same problem may not.
# ``pick``, ``pick-certified`` and ``corona`` were re-pinned when the
# interior-point method took over the feasibility solve: their witness blocks,
# certificate and notes come from it.  ``pick-certified`` was re-pinned again
# when the Schur complement came to be assembled from the masks' rank-two
# factors: the new summation order moves the last bits of its certificate.
# ``corona`` was re-pinned when its ``sampled_norm`` came to hold the norm of
# psi's colligation, one SVD, in place of a 2000-sample sup of ||psi||.
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
        "6d0d725b0b066228984b24f3fd17bc30863e3b33afdb4438cbf0bff211573448",
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
        "fe2323720e16c8f2edf38270c63402bd23d5a428bad996318792107fbc595e42",
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
        "c47869c6fc935374a9b41ed93742005e679d00944eb5f3448247e159b956f6ec",
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


# The valid gamma-check pair (R, U) = (0, 1).
GAMMA_PAIR_0_1 = {
    "first": {"rows": 1, "cols": 1, "entries": [[0.0, 0.0]]},
    "second": {"rows": 1, "cols": 1, "entries": [[1.0, 0.0]]},
}

EMPTY_0X0 = {"rows": 0, "cols": 0, "entries": []}
EMPTY_1X0 = {"rows": 1, "cols": 0, "entries": []}

# One malformed field per problem: (kind, path to the field, value).  Each is
# an input error (exit 1, one line), never a traceback.  A field dropped,
# renamed or given a value of another JSON type is a generated case
# (field_cases); these are the cases with a history and the values out of range.
MALFORMED = {
    # an opts that is not absent, null or an object, and a format that is not the integer 1
    "opts-zero": ("pick", ("opts",), 0),
    "opts-empty-string": ("pick", ("opts",), ""),
    "opts-false": ("pick", ("opts",), False),
    "opts-empty-list": ("pick", ("opts",), []),
    "format-true": ("pick", ("format",), True),
    "format-float": ("pick", ("format",), 1.0),
    "node-row-string": ("pick", ("payload", "nodes", 0, 0), "a"),
    "target-entry-string": ("pick", ("payload", "targets", 0, 0), "a"),
    "grid-n-fractional": ("pick", ("grid",), {"kind": "boundary", "n": 2.7}),
    "grid-n-huge": ("pick", ("grid",), {"kind": "boundary", "n": 1e12}),
    "matrix-shape-negative": (
        "corona",
        ("payload", "phi_samples", 0),
        {"rows": -1, "cols": -2, "entries": [[0.2, 0.0], [0.7, 0.0]]},
    ),
    "gamma-mode-unknown": ("gamma-check", ("payload", "mode"), "spectral"),
    "sequence-bound-zero": ("sequence", ("payload", "bound"), 0),
    "sequence-bound-negative": ("sequence", ("payload", "bound"), -1.5),
    # a payload tol, as an opts one, must be >= 0
    "membership-tol-negative": ("membership", ("payload", "tol"), -0.5),
    "gamma-tol-negative": ("gamma-check", ("payload", "tol"), -1),
    "measure-tol-negative": ("measure-model", ("payload", "tol"), -1e-10),
    "atom-row-short": ("measure-model", ("payload", "atoms", 0), [2.0, 0.0, 1.0]),
    # fields that are no longer read (RETIRED): unknown fields, never silently ignored
    "sequence-alpha-samples": ("sequence", ("payload", "alpha_samples"), 9),
    "sequence-n": ("sequence", ("payload", "n"), 2),
    "pick-minimal-norm": ("pick", ("payload", "minimal_norm"), True),
    "sequence-kernels-zero": ("sequence", ("payload", "kernels"), 0),
    "sequence-kernels-negative": ("sequence", ("payload", "kernels"), -2),
    "sequence-kernels-above-cap": ("sequence", ("payload", "kernels"), 1025),
    "sequence-21-nodes": ("sequence", ("payload", "nodes"), [list(n) for n in NODES_21]),
    # zero-dimension matrices
    "pick-targets-0x0": ("pick", ("payload", "targets"), [EMPTY_0X0] * 2),
    "pick-targets-1x0": ("pick", ("payload", "targets"), [EMPTY_1X0] * 2),
    "phi-samples-0x0": ("corona", ("payload", "phi_samples"), [EMPTY_0X0] * 2),
    # once read as the default Theta, as an absent or null field is
    "theta-samples-empty": ("corona", ("payload", "theta_samples"), []),
    "theta-samples-1x0": ("corona", ("payload", "theta_samples"), [EMPTY_1X0] * 2),
    "gamma-pair-0x0": ("gamma-check", ("payload",), {"first": EMPTY_0X0, "second": EMPTY_0X0}),
    # solver options out of range
    "seed-negative": ("corona", ("opts", "seed"), -1),
    "sequence-seed-negative": ("sequence", ("opts", "seed"), -1),
    "tol-negative": ("pick", ("opts", "tol"), -1e-8),
    "max-iter-negative": ("pick", ("opts", "max_iter"), -1),
    # finite input whose target entries pass MAX_TARGET_ENTRY
    "pick-target-huge": ("pick", ("payload", "targets", 0), [1e80, 0.0]),
    "corona-delta-huge": ("corona", ("payload", "delta"), 1e160),
}

# Payload fields that are no longer read, with the kind whose payload held each.
RETIRED = [("pick", "minimal_norm"), ("sequence", "n"), ("sequence", "alpha_samples")]

# Problem files that are not a problem of the subcommand's kind, each run as
# ``pick``: every one is an input error.
BAD_PROBLEMS = {
    "not-an-object": [1, 2],
    "format-2": {"format": 2, "kind": "pick", "payload": {}},
    "kind-unknown": {"format": 1, "kind": "mystery", "payload": {}},
    "kind-other-subcommand": GOLDEN["membership"][0],
}

def valid_problem(kind):
    """A fresh copy of a valid problem of ``kind``."""
    if kind == "measure-model":
        return {"format": 1, "kind": kind, "payload": {"atoms": [[2.0, 0.0, 1.0, 0.0]]}}
    if kind == "gamma-check":
        return {"format": 1, "kind": kind, "payload": dict(GAMMA_PAIR_0_1)}
    return json.loads(json.dumps(GOLDEN[kind][0]))


def malformed_problem(case):
    kind, path, value = MALFORMED[case]
    obj = valid_problem(kind)
    parent = obj
    for key in path[:-1]:
        parent = parent.setdefault(key, {}) if isinstance(parent, dict) else parent[key]
    parent[path[-1]] = value
    return obj


def is_matrix(value):
    return isinstance(value, dict) and set(value) == {"rows", "cols", "entries"}


def numeric_fields(obj, path=()):
    """Paths of every matrix object and every other number under ``obj``."""
    if is_matrix(obj) or (isinstance(obj, (int, float)) and not isinstance(obj, bool)):
        yield path
    elif isinstance(obj, (dict, list)):
        for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from numeric_fields(value, path + (key,))


# Optional payload fields that the valid problems leave out, at valid values.
OPTIONAL_FIELDS = {
    "membership": {"tol": 1e-10},
    "pick": {"norm_bound": 1.0},
    "corona": {"theta_samples": [{"rows": 1, "cols": 1, "entries": [[0.5, 0.0]]}] * 2},
    "sequence": {},
    "gamma-check": {"mode": "unitary", "tol": 1e-10},
    "measure-model": {"weights": [1.0], "tol": 1e-10},
}


def full_problem(kind):
    """valid_problem(kind) with every optional field of the problem, its payload
    and its opts given, at the values that an absent field takes."""
    obj = valid_problem(kind)
    obj["payload"].update(json.loads(json.dumps(OPTIONAL_FIELDS[kind])))  # a test may edit it
    obj.setdefault("grid", {"kind": "solver_default"})
    obj["opts"] = {"seed": 0, "tol": 1e-8, "max_iter": 20000, **obj.get("opts", {})}
    return obj


# (kind, paths) of each matrix and number field of a kind's full payload, one
# at a time and then all of them at once.
HUGE_FIELDS = [
    (kind, sel)
    for kind in symbidisk.cli.KINDS
    for fields in [list(numeric_fields(full_problem(kind)["payload"], ("payload",)))]
    for sel in [[path] for path in fields] + [fields]
]


def huge_id(case):
    kind, paths = case
    return f"{kind}-all" if len(paths) > 1 else "-".join(map(str, (kind, *paths[0][1:])))


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
        line = input_error_line(run([MALFORMED[case][0], "--in", str(p_in)]), *capsys.readouterr())
        if case.endswith("-tol-negative"):
            assert "'tol' must be a finite number >= 0" in line
        if case.startswith("sequence-bound-"):
            assert "field 'bound' must be positive" in line
        kind, path, _ = MALFORMED[case]
        if (kind, path[-1]) in RETIRED:
            assert f"unknown field '{path[-1]}' in {kind} payload" in line

    @pytest.mark.parametrize(
        "case, message",
        [("sequence-bound-zero", "field 'bound' must be positive"),
         ("sequence-bound-negative", "field 'bound' must be positive"),
         ("sequence-alpha-samples", "unknown field 'alpha_samples'")],
        ids=["sequence-bound-zero", "sequence-bound-negative", "sequence-alpha-samples"],
    )
    def test_sequence_field_is_checked_before_any_work(self, case, message, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("ran before the payload was checked")

        for name in ("best_carleson_alpha", "grammian_bounds", "strong_separation"):
            monkeypatch.setattr(symbidisk.cli, name, forbidden)
        with pytest.raises(symbidisk.ValidationError, match=message):
            execute_problem(malformed_problem(case))

    @pytest.mark.parametrize("kind, field", RETIRED)
    def test_retired_field_is_refused_before_any_work(self, kind, field, monkeypatch):
        # neither the grid nor the kind's handler is reached
        def forbidden(*args, **kwargs):
            raise AssertionError("ran before the payload was checked")

        monkeypatch.setattr(symbidisk.cli, "_read_grid", forbidden)
        monkeypatch.setitem(symbidisk.cli._HANDLERS, kind, forbidden)
        obj = valid_problem(kind)
        obj["payload"][field] = True
        with pytest.raises(symbidisk.ValidationError, match=f"unknown field '{field}'"):
            execute_problem(obj)

    @pytest.mark.parametrize("case", sorted(BAD_PROBLEMS))
    def test_bad_problem_is_one_input_error_line(self, case, tmp_path, capsys):
        p_in = tmp_path / "p.json"
        write_json(p_in, BAD_PROBLEMS[case])
        input_error_line(run(["pick", "--in", str(p_in)]), *capsys.readouterr())

    @pytest.mark.parametrize(
        "case", ["sequence-kernels-zero", "sequence-kernels-negative", "sequence-kernels-above-cap"]
    )
    def test_kernel_count_error_names_the_field(self, case, capsys):
        with pytest.raises(symbidisk.ValidationError, match="'kernels'"):
            execute_problem(malformed_problem(case))

    def test_corona_phi_without_columns_is_certified_infeasible(self):
        # Phi_i of shape 1 x 0 cannot reach Theta_i = sqrt(delta): a valid problem
        obj = malformed_problem("phi-samples-0x0")
        obj["payload"]["phi_samples"] = [EMPTY_1X0] * 2
        assert execute_problem(obj)["status"] == "InfeasibleCertified"

    def test_pick_above_the_node_cap_is_one_input_error_line(self, tmp_path, capsys):
        p_in = tmp_path / "p.json"
        write_json(p_in, pick_problem_obj(ws=(0.0,) * 21, nodes=NODES_21))
        assert "21 rows" in input_error_line(run(["pick", "--in", str(p_in)]), *capsys.readouterr())

    def test_measure_above_the_atom_cap_is_one_input_error_line(self, tmp_path, capsys):
        # s = 2 cos(t), p = 1: distinct points of the boundary of the symmetrized bidisk
        rows = [[2.0 * math.cos(math.pi * k / 1024), 0.0, 1.0, 0.0] for k in range(1025)]
        p_in = tmp_path / "m.json"
        write_json(p_in, {"format": 1, "kind": "measure-model", "payload": {"atoms": rows}})
        line = input_error_line(run(["measure-model", "--in", str(p_in)]), *capsys.readouterr())
        assert "1025 atoms" in line

    @pytest.mark.parametrize("scale", [1e200, 1e300])
    @pytest.mark.parametrize("case", HUGE_FIELDS, ids=huge_id)
    def test_huge_field_runs_or_is_one_input_error_line(self, case, scale, tmp_path, capsys):
        # every number of the fields, matrix entries included, set to scale
        kind, paths = case
        obj = full_problem(kind)
        for path in paths:
            parent = obj
            for key in path[:-1]:
                parent = parent[key]
            value = parent[path[-1]]
            if is_matrix(value):
                parent[path[-1]] = {**value, "entries": [[scale, 0.0]] * len(value["entries"])}
            else:
                parent[path[-1]] = scale
        p_in = tmp_path / "p.json"
        write_json(p_in, obj)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run([kind, "--in", str(p_in)])
        lines = capsys.readouterr().err.splitlines()
        assert not caught, [str(w.message) for w in caught]
        one_input_error = code == 1 and len(lines) == 1 and lines[0].startswith("input error:")
        assert code == 0 or one_input_error, (code, lines)

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


# The mutations of the fuzz test: delete or duplicate an entry, swap in a
# value of another type, scale a number by one of FUZZ_SCALES or set it to
# one of FUZZ_VALUES, or rename a member to a near miss.
FUZZ_SCALES = (1e150, 1e300, 1e-300, -1.0, 0.0)
FUZZ_VALUES = (1e154, 1e-12, 0.9999999, 1e308)
FUZZ_OTHER_TYPES = ("x", None, True, 2.5, [], {}, [[1.0, 0.0]])
FUZZ_PER_KIND = 200


def entries(obj, path=()):
    """Paths of every member and item under ``obj``."""
    if isinstance(obj, (dict, list)):
        for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield path + (key,)
            yield from entries(value, path + (key,))


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def mutant(obj, choose, scales=FUZZ_SCALES, values=FUZZ_VALUES):
    """A copy of ``obj`` with one to three mutations, ``choose(options)``
    making each choice."""
    obj = _copy(obj)
    for _ in range(choose((1, 2, 3))):
        op = choose(("delete", "duplicate", "swap", "scale", "set", "rename"))
        paths = list(entries(obj))
        if op in ("scale", "set"):
            paths = [path for path in paths if is_number(_at(obj, path))] or paths
        elif op == "rename":
            paths = [path for path in paths if isinstance(_at(obj, path[:-1]), dict)]
        if not paths:
            break
        path = choose(paths)
        parent, key = _at(obj, path[:-1]), path[-1]
        value = parent[key]
        if op == "rename":
            rename(parent, key)
        elif op == "delete":
            del parent[key]
        elif op == "duplicate" and isinstance(parent, list):
            parent.insert(key, _copy(value))
        elif op == "duplicate":
            parent[f"{key}2"] = _copy(value)
        elif op == "swap" or not is_number(value):
            parent[key] = _copy(choose([v for v in FUZZ_OTHER_TYPES if type(v) is not type(value)]))
        elif op == "scale":
            parent[key] = value * choose(scales)
        else:
            parent[key] = choose(values)
    return obj


def seeded(rng):
    """A ``choose`` for mutant: a uniform draw of ``rng``."""
    return lambda options: options[rng.integers(len(options))]


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _copy(obj):
    return json.loads(json.dumps(obj))


def rename(obj, key):
    """Rename ``key`` of the object ``obj`` in place to a near miss, keeping its position."""
    items = list(obj.items())
    obj.clear()
    obj.update((f"{k}_x" if k == key else k, v) for k, v in items)


def matrix_target_pick():
    """full_problem("pick") with its first target written as a 1 x 1 matrix object."""
    obj = full_problem("pick")
    targets = obj["payload"]["targets"]
    targets[0] = {"rows": 1, "cols": 1, "entries": [targets[0]]}
    return obj


# The valid problems whose objects the generated field cases break: the full
# problem of each kind, on the solver_default grid, a pick problem with a
# matrix target, and a pick problem on each other grid kind, every field given.
SOURCES = {
    **{kind: full_problem(kind) for kind in symbidisk.cli.KINDS},
    "pick-matrix": matrix_target_pick(),
    "pick-explicit": {**full_problem("pick"), "grid": {"kind": "explicit", "alphas": [[0.5, 0.0]]}},
    "pick-boundary": {**full_problem("pick"), "grid": {"kind": "boundary", "n": 8,
                                                       "include_zero": True}},
}

# What the handlers call once their payload is read.
SOLVERS = ("solve_pick", "solve_corona", "gamma_unitary_check", "gamma_isometry_check",
           "membership", "atomic_h2_model", "best_carleson_alpha", "grammian_bounds",
           "strong_separation")

# A value of another JSON type, by the type of a field's valid value.
WRONG_TYPE = {int: "7", float: "7", list: 5, dict: "x", str: 5, bool: "true"}


def read_objects(problem):
    """(row, path) of each object that a valid run of ``problem`` reads through cli._fields."""
    fields, read = symbidisk.cli._fields, []

    def recording(obj, row, what):
        read.append((obj, row))
        return fields(obj, row, what)

    with unittest.mock.patch.object(symbidisk.cli, "_fields", recording):
        execute_problem(problem)
    paths = [(), *entries(problem)]
    return [(row, next(path for path in paths if _at(problem, path) is obj)) for obj, row in read]


class FieldCase(NamedTuple):
    id: str
    family: str  # "drop", "rename" or "type"
    row: str  # the broken object's row of cli.FIELDS
    field: str
    kind: str  # the subcommand that runs the problem
    problem: dict
    want: str  # what its one input error line says


def field_error(obj, row):
    """The field check's error on ``obj``, an object of ``row`` with a field
    dropped or renamed: its first unknown field, else its first missing one.
    A grid without a ``kind`` is read as explicit."""
    if row.endswith(" grid") and "kind" not in obj:
        row = "explicit grid"
    required, optional = symbidisk.cli.FIELDS[row]
    unknown = [key for key in obj if key not in required + optional]
    if unknown:
        return f"unknown field '{unknown[0]}' in {row}"
    return f"missing required field '{next(key for key in required if key not in obj)}'"


def field_cases():
    """Each field of an object of a SOURCES problem, as its valid run reads it
    through a cli.FIELDS row: dropped if required, renamed to a near miss, and
    given a value of another JSON type.  The objects of one row are broken
    once for each field that holds them, so each matrix field (a pick target,
    a corona sample, a gamma-check operator) is broken on its own."""
    done = set()
    for source, problem in SOURCES.items():
        for row, path in read_objects(problem):
            holder = next((key for key in reversed(path) if isinstance(key, str)), None)
            if (row, holder) in done:
                continue
            done.add((row, holder))
            required, optional = symbidisk.cli.FIELDS[row]
            for field in required + optional:
                families = ("drop", "rename", "type") if field in required else ("rename", "type")
                for family in families:
                    obj = _copy(problem)
                    parent = _at(obj, path)
                    if family == "drop":
                        del parent[field]
                    elif family == "rename":
                        rename(parent, field)
                    else:
                        parent[field] = WRONG_TYPE[type(parent[field])]
                    want = f"'{field}'" if family == "type" else field_error(parent, row)
                    case_id = "-".join([family, ".".join(map(str, (source, *path, field)))])
                    yield FieldCase(case_id, family, row, field, problem["kind"], obj, want)


FIELD_CASES = list(field_cases())


def run_mutants(problems, count, rng, tmp_path, capsys):
    """Exit codes of ``count`` seeded mutants of each problem, each run by run_checked."""
    return [run_checked(problem["kind"], mutant(problem, seeded(rng)), tmp_path, capsys)
            for problem in problems for _ in range(count)]


def run_checked(kind, obj, tmp_path, capsys):
    """Exit code of ``obj`` run in process as ``kind`` with every warning an
    error: bad input never ends in exit 2, an internal error or a traceback."""
    p_in = tmp_path / "p.json"
    p_in.write_text(json.dumps(obj))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run([kind, "--in", str(p_in)])
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    case = (kind, code, lines, obj)
    assert "Traceback" not in captured.err and "internal error" not in captured.err, case
    if code != 0:
        assert code == 1 and captured.out == "", case
        assert len(lines) == 1 and lines[0].startswith("input error:"), case
    return code


# Bench corpus seeds whose problem files the fuzz test mutates.
FUZZ_CORPUS_SEEDS = (100, 101, 102)

# The Hypothesis fuzz: the full problem of every kind and every golden
# problem, each number scaled by 1e+-150 or 1e+-300, or set to a zero, a unit
# or a boundary modulus (|s| = 2; |p| = |alpha| = 1, and just inside).
HYPOTHESIS_PROBLEMS = {
    **{f"full-{kind}": full_problem(kind) for kind in symbidisk.cli.KINDS},
    **{f"golden-{case}": problem for case, (problem, _) in GOLDEN.items()},
}
HYPOTHESIS_SCALES = (1e150, 1e-150, 1e300, 1e-300)
HYPOTHESIS_VALUES = (0, -0.0, 1, -1, 1.0 - 1e-12, 2.0, -2.0)


class TestMutationFuzz:
    def test_every_mutant_runs_or_is_one_input_error_line(self, tmp_path, capsys):
        # mutants of one full problem per kind
        rng = np.random.default_rng(2341)
        t0 = time.process_time()
        problems = [full_problem(kind) for kind in symbidisk.cli.KINDS]
        codes = run_mutants(problems, FUZZ_PER_KIND, rng, tmp_path, capsys)
        assert len(codes) >= 500 and 0 < codes.count(0) < len(codes)
        assert time.process_time() - t0 < 3.0

    @pytest.mark.parametrize("name", sorted(HYPOTHESIS_PROBLEMS))
    @settings(max_examples=60, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_hypothesis_mutants_run_or_are_one_input_error_line(
        self, name, data, tmp_path, capsys
    ):
        problem = HYPOTHESIS_PROBLEMS[name]

        def choose(options):
            return data.draw(st.sampled_from(options))

        obj = mutant(problem, choose, HYPOTHESIS_SCALES, HYPOTHESIS_VALUES)
        run_checked(problem["kind"], obj, tmp_path, capsys)

    def test_mutants_of_golden_and_bench_files(self, tmp_path, capsys):
        # mutants of every golden problem and of every file of a few bench
        # corpus directories, loop-bound ones included
        rng = np.random.default_rng(2342)
        t0 = time.process_time()
        bench = [problem for seed in FUZZ_CORPUS_SEEDS
                 for _, (problem, _) in sorted(workloads.CorpusFiles(seed).files.items())]
        codes = run_mutants([problem for problem, _ in GOLDEN.values()], 20, rng, tmp_path, capsys)
        codes += run_mutants(bench, 5, rng, tmp_path, capsys)
        assert len(codes) == 20 * len(GOLDEN) + 5 * len(bench)
        assert 0 < codes.count(0) < len(codes)
        assert time.process_time() - t0 < 2.0

    def test_corpus_of_mutants_has_a_row_per_file(self, tmp_path, capsys):
        # one mutant of every file of a bench directory and of every golden
        # problem, beside the unmutated sidecars: each file is a row of its own
        rng = np.random.default_rng(2343)
        d = tmp_path / "mutants"
        workloads.CorpusFiles(FUZZ_CORPUS_SEEDS[-1] + 1).write(str(d))
        for case, (problem, _) in GOLDEN.items():
            write_json(d / f"{case}.json", problem)
        names = sorted(path.name for path in d.glob("*.json")
                       if not path.name.endswith(".expected.json"))
        for name in names:
            write_json(d / name, mutant(json.loads((d / name).read_text()), seeded(rng)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["corpus", "--in", str(d), "--out", str(tmp_path / "reports")])
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert captured.err == "" and code in (0, 1)
        assert [line.split()[1] for line in lines[:-1]] == names
        assert all(line.split()[0] in ("PASS", "FAIL") for line in lines[:-1])
        assert not any("internal-error" in line for line in lines), lines
        passed = sum(line.startswith("PASS") for line in lines[:-1])
        assert lines[-1] == f"corpus: {passed}/{len(names)} passed"
        assert code == (passed < len(names))


class TestFields:
    @pytest.mark.parametrize("case", FIELD_CASES, ids=lambda case: case.id)
    def test_field_case_is_one_input_error_line(self, case, tmp_path, capsys, monkeypatch):
        # an unknown or missing field of an object other than a matrix is
        # refused before the kind's handler runs; any other case before any
        # solver or check runs
        def forbidden(*args, **kwargs):
            raise AssertionError("ran before the problem was checked")

        for name in SOLVERS:
            monkeypatch.setattr(symbidisk.cli, name, forbidden)
        if case.family != "type" and case.row != "matrix":
            monkeypatch.setitem(symbidisk.cli._HANDLERS, case.kind, forbidden)
        p_in = tmp_path / "p.json"
        write_json(p_in, case.problem)
        line = input_error_line(run([case.kind, "--in", str(p_in)]), *capsys.readouterr())
        assert case.want in line

    def test_field_cases_are_input_error_rows(self, tmp_path, capsys):
        d = golden_corpus(tmp_path)
        for case in FIELD_CASES:
            write_json(d / f"{case.id}.json", case.problem)
        assert run(["corpus", "--in", str(d)]) == 1
        lines = capsys.readouterr().out.splitlines()
        rows = {line.split()[1]: line.split(maxsplit=2) for line in lines[:-1]}
        assert len(rows) == len(FIELD_CASES) + len(GOLDEN)
        for case in FIELD_CASES:
            flag, _, detail = rows.pop(f"{case.id}.json")
            assert flag == "FAIL" and detail.startswith("input-error:"), (case.id, detail)
            assert case.want in detail, (case.id, detail)
        assert all(flag == "PASS" for flag, _, _ in rows.values()), rows

    def test_every_fields_row_has_its_cases(self):
        # every field of every row but the sidecar's (whose errors are corpus
        # rows) is renamed and given another type, and each required one is
        # dropped: a new row, or one that no SOURCES problem holds, fails here
        want = {
            (family, row, field)
            for row, (required, optional) in symbidisk.cli.FIELDS.items() if row != "sidecar"
            for field in required + optional
            for family in ("drop", "rename", "type") if family != "drop" or field in required
        }
        assert {(case.family, case.row, case.field) for case in FIELD_CASES} == want

    def test_every_object_is_read_by_the_field_check(self):
        # each JSON object of a problem file, matrix objects included, passes
        # through cli._fields
        problems = [problem for problem, _ in GOLDEN.values()] + list(SOURCES.values())
        problems += [problem for seed in FUZZ_CORPUS_SEEDS
                     for problem, _ in workloads.CorpusFiles(seed).files.values()]
        for problem in problems:
            read = {path for _, path in read_objects(problem)}
            objects = {path for path in [(), *entries(problem)]
                       if isinstance(_at(problem, path), dict)}
            assert objects <= read, (problem["kind"], objects - read)

    def test_matrix_round_trip(self, rng):
        m = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        assert np.array_equal(symbidisk.cli.decode_matrix(encode_matrix(m), "first"), m)
        with pytest.raises(symbidisk.ValidationError, match="entry count disagrees"):
            symbidisk.cli.decode_matrix({"rows": 2, "cols": 2, "entries": [[1.0, 0.0]]}, "first")

    def test_grid_round_trip(self, solver_grid):
        read_grid = symbidisk.cli._read_grid
        assert np.array_equal(read_grid(encode_grid(solver_grid)).alphas, solver_grid.alphas)
        assert len(read_grid({"kind": "boundary", "n": 4})) == 5
        assert np.array_equal(read_grid(None).alphas, solver_grid.alphas)
        with pytest.raises(symbidisk.ValidationError, match="field 'kind' must be one of explicit, "
                           "boundary, solver_default; got 'mystery'"):
            read_grid({"kind": "mystery"})


class TestReportFiles:
    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_golden_hash(self, case):
        problem, want = GOLDEN[case]
        assert execute_problem(json.loads(json.dumps(problem)))["report_hash"] == want

    def test_canonical_json_is_json_dumps_on_every_kind(self):
        # canonical_json's one shared encoder writes what json.dumps with the
        # same options writes, on a report of every kind
        gamma = {
            "first": {"rows": 1, "cols": 1, "entries": [[0.0, 0.0]]},
            "second": {"rows": 1, "cols": 1, "entries": [[1.0, 0.0]]},
        }
        problems = [problem for problem, _ in GOLDEN.values()] + [
            {"format": 1, "kind": "gamma-check", "payload": gamma},
            {"format": 1, "kind": "measure-model", "payload": {"atoms": [[2.0, 0.0, 1.0, 0.0]]}},
        ]
        reports = [execute_problem(json.loads(json.dumps(problem))) for problem in problems]
        assert {report["kind"] for report in reports} == set(symbidisk.cli.KINDS)
        for report in reports:
            want = json.dumps(report, sort_keys=True, separators=(",", ":"), allow_nan=False)
            assert canonical_json(report) == want
            with pytest.raises(symbidisk.NumericsError, match="cannot encode"):
                canonical_json({**report, "residual": math.nan})

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

    def test_only_the_suffix_names_sidecar_and_report(self, tmp_path, capsys):
        # a.json.json pairs with a.json.expected.json and writes a.json.report.json
        d, out = tmp_path / "corpus", tmp_path / "out"
        d.mkdir()
        write_json(d / "a.json.json", pick_problem_obj())
        write_json(d / "a.json.expected.json", {"equals": {"status": "InfeasibleCertified"}})
        assert run(["corpus", "--in", str(d), "--out", str(out)]) == 1
        assert capsys.readouterr().out.startswith("FAIL  a.json.json  mismatch:")
        assert os.listdir(out) == ["a.json.report.json"]

    def test_reports_written_into_the_input_directory_are_not_rerun(self, tmp_path, capsys):
        d = tmp_path / "corpus"
        d.mkdir()
        write_json(d / "a.json", pick_problem_obj())
        assert run(["corpus", "--in", str(d), "--out", str(d)]) == 0
        assert run(["corpus", "--in", str(d), "--out", str(d)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "corpus: 1/1 passed"
        assert sorted(os.listdir(d)) == ["a.json", "a.report.json"]

    @pytest.mark.parametrize(
        "approx",
        [{"sup_modulus": [0.5, 1e-6]}, {"kind": [1.0, 0.5]}, {"is_member": [1.0, 0.5]},
         {"node_residual": [0.0, 1.0]}],
        ids=["out-of-tolerance", "string", "bool", "absent"],
    )
    def test_approx_mismatch_fails(self, tmp_path, capsys, approx):
        d = self._make_corpus(tmp_path)
        write_json(d / "c.expected.json", {"approx": approx})
        assert run(["corpus", "--in", str(d)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        fails = [line for line in lines if line.startswith("FAIL")]
        assert len(fails) == 1 and fails[0].startswith("FAIL  c.json  mismatch:"), lines
        assert lines[-1] == "corpus: 2/3 passed"

    def test_approx_on_a_numpy_float_passes(self, tmp_path, capsys):
        # corona's normalized_norm is an np.float64 in the report the sidecar is checked against
        problem = GOLDEN["corona"][0]
        want = float(execute_problem(problem)["normalized_norm"])
        d = tmp_path / "corpus"
        d.mkdir()
        write_json(d / "a.json", problem)
        write_json(d / "a.expected.json", {"approx": {"normalized_norm": [want, 1e-6]}})
        assert run(["corpus", "--in", str(d)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "corpus: 1/1 passed"

    def test_in_naming_a_file_is_one_input_error_line(self, tmp_path, capsys):
        p_in = tmp_path / "p.json"
        write_json(p_in, pick_problem_obj())
        line = input_error_line(run(["corpus", "--in", str(p_in)]), *capsys.readouterr())
        assert line.startswith("input error: not a directory")

    def test_corrupted_expected_fails(self, tmp_path):
        d = tmp_path / "corpus"
        d.mkdir()
        write_json(d / "a.json", pick_problem_obj())
        (d / "a.expected.json").write_text("{not json")
        assert run(["corpus", "--in", str(d)]) == 1

    @pytest.mark.parametrize(
        "sidecar",
        [[1, 2], {"equals": ["status"]}, {"approx": 3}, "Feasible", None]
        + [
            {"approx": {"node_residual": spec}}
            for spec in ([], [1], [float("nan"), 1], "x", {}, [10**400, 1])
        ],
        ids=["list", "equals-list", "approx-number", "string", "directory"]
        + ["approx-empty", "approx-one", "approx-nan", "approx-string", "approx-object",
           "approx-overflow"],
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

    def test_misspelled_sidecar_key_fails(self, tmp_path, capsys):
        # beside a member, {"equals": {"is_member": false}} would be a mismatch:
        # the misspelling must not pass as an empty expectation
        d = tmp_path / "corpus"
        d.mkdir()
        write_json(d / "a.json", GOLDEN["membership"][0])
        write_json(d / "a.expected.json", {"equal": {"is_member": False}})
        assert run(["corpus", "--in", str(d)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("FAIL  a.json  corrupt-expected: unknown field 'equal'"), lines
        assert lines[-1] == "corpus: 0/1 passed"

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
        write_json(d / "bad.json", malformed_problem("max-iter-negative"))
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

    def test_unexpected_exception_fails_one_file(self, tmp_path, capsys, monkeypatch):
        d = self._make_corpus(tmp_path)
        real = symbidisk.cli._execute  # what corpus calls: execute_problem's report and text

        def flaky(problem):
            if problem["kind"] == "membership":
                raise RuntimeError("boom")
            return real(problem)

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
