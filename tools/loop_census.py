"""Census of the loop-bound files of the bench ``corpus`` workload.

    python3 tools/loop_census.py --seeds A B

For every bench seed S in A..B (inclusive) it builds the problem
directories that ``python3 bench/run.py --workload corpus --seed S
--seconds 40`` passes over, solves each ``z_loop_*`` file with
``cli.execute_problem`` and checks the report with the bench's
``check_report``.  It prints every file that
does not check ``ok`` (bench seed, directory, file name, verdict, status,
interior-point iterations), then the number of files, the verdict counts and
the total of interior-point iterations.  No single-atom witness decides
these files, so the census exercises the interior-point core on
near-boundary inputs; ``Unknown`` files show where it stalls.  It exits 1
when a report contradicts its plant.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import run  # noqa: E402  (pins BLAS to one thread before numpy is imported)
import workloads  # noqa: E402
from symbidisk.cli import execute_problem  # noqa: E402

RUN_SECONDS = 40  # the run length whose directories are censused


def census(seed: int):
    """One row per loop file of a bench seed: (seed, directory, name, verdict, status, iterations)."""
    count = run.item_count("corpus", RUN_SECONDS)
    with tempfile.TemporaryDirectory() as workdir:
        corpus = run.make_workload("corpus", seed, count, workdir)
    rows = []
    for path, generated in corpus.dirs:
        for name, (problem, expected) in sorted(generated.files.items()):
            if not name.startswith("z_loop_"):
                continue
            # the text round trip hands execute_problem what `corpus` reads from disk
            report = execute_problem(json.loads(json.dumps(problem, sort_keys=True)))
            verdict = workloads.check_report(report, expected)
            row = (seed, os.path.basename(path), name, verdict, report["status"])
            rows.append(row + (report["solve"]["iterations"],))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs=2, required=True, metavar=("A", "B"))
    args = parser.parse_args(argv)
    first, last = args.seeds
    verdicts, iterations, files = Counter(), 0, 0
    for seed in range(first, last + 1):
        for row in census(seed):
            files += 1
            verdicts[row[3]] += 1
            iterations += row[5]
            if row[3] != "ok":
                print("seed {} {} {}: {} ({}, {} iterations)".format(*row), flush=True)
    print(f"seeds {first}-{last}: {files} files, "
          + ", ".join(f"{v} {verdicts[v]}" for v in ("ok", "failed", "wrong"))
          + f", {iterations} interior-point iterations")
    return 1 if verdicts["wrong"] else 0


if __name__ == "__main__":
    sys.exit(main())
