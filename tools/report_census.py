"""Census of the bench's generated problem files: report hashes, verdicts and deciding paths.

    python3 tools/report_census.py --seeds A B

For every seed S in A..B (inclusive) it builds the bench's
``CorpusFiles(S)``, one directory's worth of files of every kind with the
loop-bound ones, runs each problem through ``cli.execute_problem`` after the
JSON text round trip that ``corpus`` reads from disk, and checks the report
with the bench's ``check_report``.  It prints every file that raises or does
not check ``ok``, then per kind:

- the number of files and the counts of their ``status`` field (``-`` for
  kinds whose reports have none);
- the paths that decided their solves, read from ``status`` and
  ``solve.iterations`` (a witness or a kernel at iteration 0 or after
  interior-point iterations, or ``Unknown``), and the total of those
  iterations (``paths -`` for kinds whose reports carry no solve);
- the mean and largest state dimension of the realized functions
  (``interpolant`` or ``psi``; ``-`` when none is realized);
- a digest of their report hashes.

The last line gives the number of files, the verdict counts and the digest
over all of them.  Two commits with the same digest wrote the same hashed
report for every file.  It exits 1 when a file raises or a report
contradicts its plant (``wrong``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from collections import Counter, defaultdict
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import run  # noqa: E402,F401  (pins BLAS to one thread before numpy is imported)
import workloads  # noqa: E402
from symbidisk.cli import execute_problem  # noqa: E402

RAISED = "raised"
VERDICTS = ("ok", "failed", "wrong")
PATHS = ("iteration-0 witness", "iteration-0 kernel", "iterate witness", "iterate kernel",
         "Unknown")


class Row(NamedTuple):
    """One file of a census.

    ``dim`` is the state dimension of the report's realized function and
    ``iterations`` the interior-point iterations of its solve, each None
    when the report has none.  A file whose run raises has status ``raised``,
    for its hash the exception's name and message, and verdict ``failed``.
    """

    seed: int
    name: str
    kind: str
    status: str
    hash: str
    dim: int | None
    verdict: str
    iterations: int | None


def census(seed: int) -> list[Row]:
    """One row per file of CorpusFiles(seed), in file-name order."""
    rows = []
    for name, (problem, expected) in sorted(workloads.CorpusFiles(seed).files.items()):
        try:
            report = execute_problem(json.loads(json.dumps(problem, sort_keys=True)))
        except Exception as exc:  # a raising file is reported, not fatal
            error = f"{type(exc).__name__}: {exc}"
            rows.append(Row(seed, name, problem["kind"], RAISED, error, None, "failed", None))
            continue
        fn = report.get("interpolant") or report.get("psi")
        solve = report.get("solve")
        rows.append(Row(
            seed, name, problem["kind"], report.get("status", "-"), report["report_hash"],
            None if fn is None else sum(fn["multiplicities"]),
            workloads.check_report(report, expected),
            None if solve is None else solve["iterations"],
        ))
    return rows


def digest(rows) -> str:
    """First 16 hex digits of the sha256 of the rows' seeds, names and hashes."""
    text = "".join(f"{row.seed} {row.name} {row.hash}\n" for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def path(row: Row) -> str | None:
    """The path that decided the row's solve, None when its report has none."""
    if row.iterations is None:
        return None
    if row.status == "Unknown":
        return "Unknown"
    proof = "witness" if row.status == "Feasible" else "kernel"
    return f"{'iterate' if row.iterations else 'iteration-0'} {proof}"


def paths(rows) -> str:
    """Counts of the rows' deciding paths and their total of iterations."""
    counts = Counter(path(row) for row in rows if row.iterations is not None)
    if not counts:
        return "paths -"
    iterations = sum(row.iterations or 0 for row in rows)
    return ("paths " + ", ".join(f"{p} {counts[p]}" for p in PATHS if counts[p])
            + f", {iterations} iterations")


def state_dims(rows) -> str:
    """Mean and largest state dimension of the rows' realized functions."""
    dims = [row.dim for row in rows if row.dim is not None]
    return f"state dim mean {sum(dims) / len(dims):.2f} max {max(dims)}" if dims else "state dim -"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs=2, required=True, metavar=("A", "B"))
    args = parser.parse_args(argv)
    first, last = args.seeds
    rows = [row for seed in range(first, last + 1) for row in census(seed)]
    by_kind = defaultdict(list)
    for row in rows:
        by_kind[row.kind].append(row)
        if row.status == RAISED:
            print(f"seed {row.seed} {row.name}: {RAISED} {row.hash}", flush=True)
        elif row.verdict != "ok":
            detail = row.status if row.iterations is None else (
                f"{row.status}, {row.iterations} iterations")
            print(f"seed {row.seed} {row.name}: {row.verdict} ({detail})", flush=True)
    for kind, kept in sorted(by_kind.items()):
        statuses = Counter(row.status for row in kept)
        print(f"{kind}: {len(kept)} files, "
              + ", ".join(f"{s} {statuses[s]}" for s in sorted(statuses))
              + f", {paths(kept)}, {state_dims(kept)}, digest {digest(kept)}")
    raised = sum(row.status == RAISED for row in rows)
    verdicts = Counter(row.verdict for row in rows)
    print(f"seeds {first}-{last}: {len(rows)} files, {raised} raised, "
          + ", ".join(f"{v} {verdicts[v]}" for v in VERDICTS)
          + f", digest {digest(rows)}")
    return 1 if raised or verdicts["wrong"] else 0


if __name__ == "__main__":
    sys.exit(main())
