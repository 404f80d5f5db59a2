import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools"))

import loop_census  # noqa: E402


def test_census_of_one_bench_seed(monkeypatch, capsys):
    # 17 directories of three z_loop_* files each
    rows = loop_census.census(1)
    assert len(rows) == 51
    assert {row[1] for row in rows} == {f"in{d:02d}" for d in range(17)}
    assert {row[2] for row in rows} == {"z_loop_pick_2x2", "z_loop_pick_0", "z_loop_pick_1"}
    assert all(row[3] in ("ok", "failed") for row in rows)
    assert all(row[4] != "Unknown" for row in rows if row[3] == "ok")
    iterations = sum(row[5] for row in rows)
    assert iterations > 0

    # the report: every file that is not ok, then the totals
    stalled = (1, "in03", "z_loop_pick_0", "failed", "Unknown", 45)
    monkeypatch.setattr(loop_census, "census", lambda seed: rows[:50] + [stalled])
    assert loop_census.main(["--seeds", "1", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    ok = sum(row[3] == "ok" for row in rows[:50])
    iterations = sum(row[5] for row in rows[:50]) + 45
    assert out[-2:] == [
        "seed 1 in03 z_loop_pick_0: failed (Unknown, 45 iterations)",
        f"seeds 1-1: 51 files, ok {ok}, failed {51 - ok}, wrong 0,"
        f" {iterations} interior-point iterations",
    ]
