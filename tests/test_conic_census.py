import hashlib
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools"))

import conic_census  # noqa: E402


def test_census_of_one_bench_seed(monkeypatch, capsys):
    # the 35 items of a 40 s sandwich run
    rows = conic_census.census(1)
    assert len(rows) == 35
    assert [row[:2] for row in rows] == [(1, k) for k in range(35)]
    assert all(row[2] in ("ok", "failed") for row in rows)
    assert all(row[3] == "closed" for row in rows if row[2] == "ok")
    # every iteration takes two stacked eigensolves, one per step to the PSD boundary
    assert all(0 < 2 * row[4] <= row[5] for row in rows)
    # pinned: a change that moves the iterates on purpose updates this and says why
    assert (sum(row[4] for row in rows), sum(row[5] for row in rows)) == (270, 680)
    # and so are the bits of every bracket, lo.hex() hi.hex() per item
    assert digest(rows) == "61046f6ad2a6b506"

    # the report: every item that is not ok, then the totals
    raised = (1, 34, "failed", "NumericsError", 1000, 27000, "")
    monkeypatch.setattr(conic_census, "census", lambda seed: rows[:34] + [raised])
    assert conic_census.main(["--seeds", "1", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    kept = rows[:34] + [raised]
    ok = sum(row[2] == "ok" for row in kept)
    iterations = sorted(row[4] for row in kept)
    eigensolves = sum(row[5] for row in kept)
    assert out[-2:] == [
        "seed 1 item 34: failed (NumericsError, 1000 iterations)",
        f"seeds 1-1: 35 items, ok {ok}, failed {35 - ok}, wrong 0, {sum(iterations)}"
        f" interior-point iterations (p50 {iterations[17]}, p99 1000, max 1000),"
        f" {eigensolves} eigensolves, brackets {digest(kept)}",
    ]

    # a wrong value fails the census
    wrong = (1, 0, "wrong", "closed", 30, 40, "0x1.0p+0 0x1.0p+0")
    monkeypatch.setattr(conic_census, "census", lambda seed: [wrong])
    assert conic_census.main(["--seeds", "1", "1"]) == 1


def digest(rows):
    """The census's bracket digest: sha256 of one ``lo.hex() hi.hex()`` line per row."""
    return hashlib.sha256("".join(f"{row[6]}\n" for row in rows).encode()).hexdigest()[:16]
