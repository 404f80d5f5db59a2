import json
import os
import subprocess
import sys

import pytest

import symbidisk
import symbidisk.cli
from symbidisk.cli import execute_problem, run
from symbidisk.serialize import report_hash


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


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
        assert out["isometry_passed"] is True and out["cyclic_rank"] == 1

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

    def test_unexpected_exception_fails_one_file(self, tmp_path, capsys, monkeypatch):
        d = self._make_corpus(tmp_path)
        real = symbidisk.cli.execute_problem

        def flaky(problem, overrides=None):
            if problem["kind"] == "membership":
                raise RuntimeError("boom")
            return real(problem, overrides)

        monkeypatch.setattr(symbidisk.cli, "execute_problem", flaky)
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
