"""Census of the report hashes of the bench's generated problem files.

    python3 tools/report_census.py --seeds A B

For every seed S in A..B (inclusive) it builds the bench's
``CorpusFiles(S)``, one directory's worth of files of every kind with the
loop-bound ones, and runs each problem through ``cli.execute_problem``
after the JSON text round trip that ``corpus`` reads from disk.  It prints
per kind the number of files, the counts of their ``status`` field (``-``
for kinds whose reports have none), the mean and largest state dimension of
the realized functions (``interpolant`` or ``psi``; ``-`` when none is
realized) and a digest of their report hashes, then the number of files and
the digest over all of them.  Two commits with the same digest wrote the
same hashed report for every file.  A file whose run raises is printed
(seed, file name, exception) and makes it exit 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from collections import Counter, defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import run  # noqa: E402,F401  (pins BLAS to one thread before numpy is imported)
import workloads  # noqa: E402
from symbidisk.cli import execute_problem  # noqa: E402

RAISED = "raised"


def census(seed: int):
    """One row per file of CorpusFiles(seed): (seed, name, kind, status, hash, state dim).

    The state dimension is that of the report's realized function, None
    when it has none.  A file whose run raises has status ``raised``, for its
    hash the exception's name and message, and no state dimension.
    """
    rows = []
    for name, (problem, _) in sorted(workloads.CorpusFiles(seed).files.items()):
        try:
            report = execute_problem(json.loads(json.dumps(problem, sort_keys=True)))
        except Exception as exc:  # a raising file is reported, not fatal
            error = f"{type(exc).__name__}: {exc}"
            rows.append((seed, name, problem["kind"], RAISED, error, None))
            continue
        fn = report.get("interpolant") or report.get("psi")
        dim = None if fn is None else sum(fn["multiplicities"])
        status = report.get("status", "-")
        rows.append((seed, name, problem["kind"], status, report["report_hash"], dim))
    return rows


def digest(rows) -> str:
    """First 16 hex digits of the sha256 of the rows' seeds, names and hashes."""
    text = "".join(f"{row[0]} {row[1]} {row[4]}\n" for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def state_dims(rows) -> str:
    """Mean and largest state dimension of the rows' realized functions."""
    dims = [row[5] for row in rows if row[5] is not None]
    return f"state dim mean {sum(dims) / len(dims):.2f} max {max(dims)}" if dims else "state dim -"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs=2, required=True, metavar=("A", "B"))
    args = parser.parse_args(argv)
    first, last = args.seeds
    rows = [row for seed in range(first, last + 1) for row in census(seed)]
    by_kind = defaultdict(list)
    for row in rows:
        by_kind[row[2]].append(row)
        if row[3] == RAISED:
            print("seed {} {}: {} {}".format(row[0], row[1], RAISED, row[4]), flush=True)
    for kind, kept in sorted(by_kind.items()):
        statuses = Counter(row[3] for row in kept)
        print(f"{kind}: {len(kept)} files, "
              + ", ".join(f"{s} {statuses[s]}" for s in sorted(statuses))
              + f", {state_dims(kept)}, digest {digest(kept)}")
    raised = sum(row[3] == RAISED for row in rows)
    print(f"seeds {first}-{last}: {len(rows)} files, {raised} raised, digest {digest(rows)}")
    return 1 if raised else 0


if __name__ == "__main__":
    sys.exit(main())
