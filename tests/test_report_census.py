import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools"))

import report_census  # noqa: E402
from report_census import RAISED, Row, execute_problem, workloads  # noqa: E402

SEEDS = range(100, 117)  # 17 seeds of 30 files, three of them loop-bound


@pytest.fixture(scope="module")
def censused():
    return {seed: report_census.census(seed) for seed in SEEDS}


def test_census_of_one_seed(censused, monkeypatch, capsys):
    # the 30 files of one bench corpus directory
    rows = censused[100]
    assert len(rows) == 30
    assert [row[:2] for row in rows] == sorted(row[:2] for row in rows)
    kinds = {row.kind for row in rows}
    assert kinds == {"membership", "pick", "corona", "sequence", "gamma-check", "measure-model"}
    assert all(row.status != RAISED and row.verdict == "ok" for row in rows)
    assert all(len(row.hash) == 64 for row in rows)
    # a state dimension exactly for the Feasible pick and corona files
    assert all((row.dim is not None) == (row.status == "Feasible") for row in rows)
    assert {row.status for row in rows if row.kind in ("pick", "corona")} <= {
        "Feasible", "InfeasibleCertified"
    }
    # iterations and a deciding path exactly for the reports that carry a solve
    assert all((row.iterations is not None) == (row.kind in ("pick", "corona")) for row in rows)
    assert all((report_census.path(row) is None) == (row.iterations is None) for row in rows)

    # pinned: a change that moves a report on purpose updates this and says why
    # (last moved by the infeasible pick files: solve offers every iterate's
    # kernel with no trace filter, so the identity certifies some at iteration 0)
    assert report_census.digest(rows) == "516172b00ee5883d"

    # the digest follows every hash
    changed = rows[:-1] + [rows[-1]._replace(hash="0")]
    assert report_census.digest(rows) != report_census.digest(changed)

    # the report: per kind, then the totals
    monkeypatch.setattr(report_census, "census", censused.__getitem__)
    assert report_census.main(["--seeds", "100", "100"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 7
    assert out[-1] == (f"seeds 100-100: 30 files, 0 raised, ok 30, failed 0, wrong 0,"
                       f" digest {report_census.digest(rows)}")
    pick = [row for row in rows if row.kind == "pick"]
    assert out[4].startswith(f"pick: {len(pick)} files, ")
    assert out[4].endswith(f"digest {report_census.digest(pick)}")
    dims = [row.dim for row in pick if row.dim is not None]
    assert f", state dim mean {sum(dims) / len(dims):.2f} max {max(dims)}, " in out[4]
    assert max(dims) <= 36  # N^2 = 36 at most: pick files have <= 3 nodes, 2 x 2 targets
    assert f", {sum(row.iterations for row in pick)} iterations, " in out[4]
    assert ", paths -, state dim -, " in out[3]  # membership solves and realizes nothing


def test_loop_files_are_decided_by_the_iterates(censused):
    # no single-atom witness decides these files: the interior-point core does
    loop = [row for seed in SEEDS for row in censused[seed] if row.name.startswith("z_loop_")]
    assert len(loop) == 51
    assert {row.name for row in loop} == {"z_loop_pick_2x2", "z_loop_pick_0", "z_loop_pick_1"}
    assert all(row.verdict in ("ok", "failed") for row in loop)
    assert all(row.status != "Unknown" for row in loop if row.verdict == "ok")
    assert all(report_census.path(row).startswith("iterate ") for row in loop)
    # pinned: a change that moves the iterates on purpose updates this and says why
    assert sum(row.iterations for row in loop) == 138


def test_paths_of_every_kind(censused, monkeypatch, capsys):
    rows = [row for seed in SEEDS for row in censused[seed]]
    monkeypatch.setattr(report_census, "census", censused.__getitem__)
    assert report_census.main(["--seeds", "100", "116"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == (f"seeds 100-116: 510 files, 0 raised, ok 510, failed 0, wrong 0,"
                       f" digest {report_census.digest(rows)}")
    for line in out[:-1]:
        kind = line.split(":")[0]
        kept = [row for row in rows if row.kind == kind]
        assert f", {report_census.paths(kept)}, " in line
    pick = [row for row in rows if row.kind == "pick"]
    assert report_census.paths(pick) == (
        "paths iteration-0 witness 102, iteration-0 kernel 26, iterate witness 51,"
        f" iterate kernel 25, {sum(row.iterations for row in pick)} iterations"
    )
    corona = [row for row in rows if row.kind == "corona"]
    assert report_census.paths(corona) == "paths iteration-0 witness 68, 0 iterations"


@pytest.mark.parametrize(
    "row, line, code",
    [
        (Row(100, "z_loop_pick_0", "pick", "Unknown", "h", None, "failed", 45),
         "seed 100 z_loop_pick_0: failed (Unknown, 45 iterations)", 0),
        (Row(100, "sequence_0", "sequence", "-", "h", None, "wrong", None),
         "seed 100 sequence_0: wrong (-)", 1),
        (Row(100, "x", "pick", RAISED, "NumericsError: boom", None, "failed", None),
         "seed 100 x: raised NumericsError: boom", 1),
    ],
    ids=["stalled", "wrong", "raised"],
)
def test_a_file_that_is_not_ok_is_printed(censused, row, line, code, monkeypatch, capsys):
    # a stalled file is printed; a wrong or raising one also fails the census
    monkeypatch.setattr(report_census, "census", lambda seed: censused[seed] + [row])
    assert report_census.main(["--seeds", "100", "100"]) == code
    out = capsys.readouterr().out.splitlines()
    assert out[0] == line
    assert out[-1].startswith(f"seeds 100-100: 31 files, {int(row.status == RAISED)} raised, ")


def test_a_file_that_raises_is_a_row(monkeypatch):
    monkeypatch.setattr(report_census, "execute_problem", lambda problem: 1 / 0)
    rows = report_census.census(100)
    assert len(rows) == 30
    assert all(row[3:] == (RAISED, "ZeroDivisionError: division by zero", None, "failed", None)
               for row in rows)


def transformed(problem, node, datum):
    """The problem with each node (s, p) mapped by ``node`` and each complex datum by ``datum``."""

    def cx(z):
        return [z.real, z.imag]

    def data(x):  # a [re, im] pair or a matrix object
        if isinstance(x, list):
            return cx(datum(complex(*x)))
        return {**x, "entries": [cx(datum(complex(*e))) for e in x["entries"]]}

    payload = dict(problem["payload"])
    payload["nodes"] = [sum(map(cx, node(complex(*row[:2]), complex(*row[2:]))), [])
                        for row in payload["nodes"]]
    for key in ("targets", "phi_samples"):
        if key in payload:
            payload[key] = [data(x) for x in payload[key]]
    return {**problem, "payload": payload}


def test_rotation_and_conjugation_keep_the_verdicts_of_corpus_files():
    # (s, p) -> (w s, w^2 p), w = e^{2 pi i / 8}, maps phi(alpha, .) to w phi(w alpha, .),
    # and conjugating nodes and data maps it to conj(phi(conj(alpha), .)): both
    # permute the solver grid's alphas, so each file keeps its answer
    w = np.exp(2j * np.pi / 8)
    transforms = [
        (lambda s, p: (w * s, w * w * p), lambda z: z),
        (lambda s, p: (s.conjugate(), p.conjugate()), lambda z: z.conjugate()),
    ]

    def verdict(problem):
        report = execute_problem(problem)
        return report.get("status") or report["strong_separation"]["statuses"]

    files = [problem for problem, _ in workloads.CorpusFiles(100).files.values()
             if problem["kind"] in ("pick", "corona", "sequence")]
    assert len(files) == 18
    for problem in files:
        expected = verdict(problem)
        for node, datum in transforms:
            assert verdict(transformed(problem, node, datum)) == expected, problem
