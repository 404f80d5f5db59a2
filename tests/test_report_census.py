import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools"))

import report_census  # noqa: E402


def test_census_of_one_seed(monkeypatch, capsys):
    # the 30 files of one bench corpus directory
    rows = report_census.census(100)
    assert len(rows) == 30
    assert [row[:2] for row in rows] == sorted(row[:2] for row in rows)
    kinds = {row[2] for row in rows}
    assert kinds == {"membership", "pick", "corona", "sequence", "gamma-check", "measure-model"}
    assert all(row[3] != report_census.RAISED for row in rows)
    assert all(len(row[4]) == 64 for row in rows)
    # a state dimension exactly for the Feasible pick and corona files
    assert all((row[5] is not None) == (row[3] == "Feasible") for row in rows)
    assert {row[3] for row in rows if row[2] in ("pick", "corona")} <= {
        "Feasible", "InfeasibleCertified"
    }

    # pinned: a change that moves a report on purpose updates this and says why
    # (last moved by the corona files: sampled_norm became the colligation's norm)
    assert report_census.digest(rows) == "8e93c7ab06ce506d"

    # the digest follows every hash
    changed = rows[:-1] + [rows[-1][:4] + ("0", None)]
    assert report_census.digest(rows) != report_census.digest(changed)

    # the report: per kind, then the totals
    assert report_census.main(["--seeds", "100", "100"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 7
    assert out[-1] == f"seeds 100-100: 30 files, 0 raised, digest {report_census.digest(rows)}"
    pick = [row for row in rows if row[2] == "pick"]
    assert f"pick: {len(pick)} files, " in out[4]
    assert out[4].endswith(f"digest {report_census.digest(pick)}")
    dims = [row[5] for row in pick if row[5] is not None]
    assert f", state dim mean {sum(dims) / len(dims):.2f} max {max(dims)}, " in out[4]
    assert max(dims) <= 36  # N^2 = 36 at most: pick files have <= 3 nodes, 2 x 2 targets
    assert ", state dim -, " in out[3]  # membership realizes nothing

    # a file whose run raises is printed and fails the census
    raised = (100, "x", "pick", report_census.RAISED, "NumericsError: boom", None)
    monkeypatch.setattr(report_census, "census", lambda seed: rows + [raised])
    assert report_census.main(["--seeds", "100", "100"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "seed 100 x: raised NumericsError: boom"
    assert out[-1].startswith("seeds 100-100: 31 files, 1 raised, digest ")


def test_a_file_that_raises_is_a_row(monkeypatch):
    monkeypatch.setattr(report_census, "execute_problem", lambda problem: 1 / 0)
    rows = report_census.census(100)
    assert len(rows) == 30
    assert all(row[3:] == (report_census.RAISED, "ZeroDivisionError: division by zero", None)
               for row in rows)
