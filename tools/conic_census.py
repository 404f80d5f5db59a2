"""Census of the minimal-norm brackets of the bench ``sandwich`` workload.

    python3 tools/conic_census.py --seeds A B

For every bench seed S in A..B (inclusive) it builds the items that
``python3 bench/run.py --workload sandwich --seed S --seconds 40`` runs,
brackets each minimal norm with ``pick.minimal_norm_bracket`` at the
workload's options and width, and checks the bracket's midpoint with the
bench's ``Sandwich._check``.  An item whose bracket raises is ``failed``, as
in the bench.  It prints every item that raises or does not check ``ok``
(bench seed, item, verdict, what the bracket ended with, interior-point
iterations), then the number of items, the verdict counts, the total, median,
99th percentile and largest iterations per item, and the total of
eigensolves (stacked ``eigvalsh`` calls while the bracket runs).  A 35-item
bench run seldom meets a bracket that spends its whole budget; a census over
many seeds does.  It exits 1 when a check finds a wrong value.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections import Counter
from unittest import mock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import run  # noqa: E402  (pins BLAS to one thread before numpy is imported)
import workloads  # noqa: E402
import numpy as np  # noqa: E402
from symbidisk import feasibility  # noqa: E402
from symbidisk.pick import minimal_norm_bracket  # noqa: E402

RUN_SECONDS = 40  # the run length whose items are censused


def _counted(calls: Counter, key: str, fn, stacked=False):
    """fn, counting its calls under key (with stacked, only those on a 3-d array)."""

    def wrapper(a, *args):
        calls[key] += not stacked or np.ndim(a) == 3
        return fn(a, *args)

    return wrapper


def census(seed: int):
    """One row per item of a bench seed: (seed, item, verdict, ended, iterations, eigensolves).

    ``ended`` is ``closed`` or the name of the exception the bracket raised;
    iterations and eigensolves are those of the bracket, not of the check.
    """
    count = run.item_count("sandwich", RUN_SECONDS)
    wl = run.make_workload("sandwich", seed, count, workdir=None)  # writes no files
    rows = []
    for k, problem in enumerate(wl.items):
        calls = Counter()
        with mock.patch.object(
            feasibility, "_hkm_schur", _counted(calls, "iterations", feasibility._hkm_schur)
        ), mock.patch.object(
            np.linalg, "eigvalsh", _counted(calls, "eigensolves", np.linalg.eigvalsh, True)
        ):
            try:
                lo, hi = minimal_norm_bracket(problem, workloads.GRID, wl.opts, wl.width)
                ended = "closed"
            except Exception as exc:  # a raising item is a failed item, as in the bench
                ended = type(exc).__name__
        verdict = wl._check(k, 0.5 * (lo + hi)) if ended == "closed" else "failed"
        rows.append((seed, k, verdict, ended, calls["iterations"], calls["eigensolves"]))
    return rows


def _rank(values, q: float) -> int:
    """Nearest-rank q-quantile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs=2, required=True, metavar=("A", "B"))
    args = parser.parse_args(argv)
    first, last = args.seeds
    verdicts, iterations, eigensolves = Counter(), [], 0
    for seed in range(first, last + 1):
        for row in census(seed):
            verdicts[row[2]] += 1
            iterations.append(row[4])
            eigensolves += row[5]
            if row[2] != "ok":
                print("seed {} item {}: {} ({}, {} iterations)".format(*row), flush=True)
    print(f"seeds {first}-{last}: {len(iterations)} items, "
          + ", ".join(f"{v} {verdicts[v]}" for v in ("ok", "failed", "wrong"))
          + f", {sum(iterations)} interior-point iterations (p50 {_rank(iterations, 0.5)},"
          + f" p99 {_rank(iterations, 0.99)}, max {max(iterations)}), {eigensolves} eigensolves")
    return 1 if verdicts["wrong"] else 0


if __name__ == "__main__":
    sys.exit(main())
