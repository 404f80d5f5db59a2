"""Verdicts of ``feasibility.solve`` on random block targets.

    python3 tools/block_scan.py [--targets N]

Draws N block targets (default 2000) from ``np.random.default_rng(7)``: per
target n = 2..4 nodes and block d = 2..3, then one of four generators in
turn:

- ``diagonal``: J = (1 ⊗ I_d) − w w*, w an (n·d × d) complex Gaussian scaled
  to spectral norm U(0.2, 1.2)·√n, at diagonal nodes ``symmetrize(z, z)``,
  z uniform by area in |z| ≤ 0.85;
- ``random``: the same J at ``random_nodes``;
- ``planted``: ``conftest.planted_infeasible`` at ``random_nodes``;
- ``vectors``: planted_infeasible with the kernel's entries seen through unit
  vectors v_i, the construction of
  ``tests/test_feasibility.py::TestSolve::test_eigenvector_compression_certifies_where_the_block_trace_does_not``.

Each target is solved on ``AlphaGrid.solver_default()`` with
``SolveOptions(max_iter=400)``.  It prints one line per target (index,
generator, n, d, status, iterations), then the verdict counts, how many
certificates came after iteration 0 (from an iterate's kernel rather than
the start's), the total of iterations, and how many certificates fail
``conftest.certificate_holds``.  Comparing the per-target lines of two trees
with ``diff`` shows every target whose verdict or iteration count moved.  It
exits 1 when a certificate fails its check.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import conftest  # noqa: E402  (pins BLAS to one thread before numpy is imported)
import numpy as np  # noqa: E402
from symbidisk import AlphaGrid, FeasibilityTarget, NodeSet, SolveOptions, solve  # noqa: E402
from symbidisk.feasibility import SolveStatus  # noqa: E402
from symbidisk.geometry import symmetrize  # noqa: E402

SEED = 7
OPTIONS = SolveOptions(max_iter=400)
GENERATORS = ("diagonal", "random", "planted", "vectors")


def diagonal_nodes(rng, n, rmax=0.85, min_sep=1e-2):
    """n nodes symmetrize(z, z), the z uniform by area in |z| <= rmax and apart."""
    zs = []
    while len(zs) < n:
        z = rmax * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        if all(abs(z - o) > min_sep for o in zs):
            zs.append(z)
    return NodeSet(tuple(symmetrize(z, z) for z in zs))


def pick_target(rng, nodes, d):
    """(1 ⊗ I_d) − w w*, w complex Gaussian at spectral norm U(0.2, 1.2)·√n."""
    n = len(nodes)
    w = rng.standard_normal((n * d, d)) + 1j * rng.standard_normal((n * d, d))
    w *= rng.uniform(0.2, 1.2) * np.sqrt(n) / np.linalg.norm(w, 2)
    return FeasibilityTarget(nodes, np.kron(np.ones((n, n)), np.eye(d)) - w @ w.conj().T, d)


def vector_target(rng, nodes, grid, d):
    """planted_infeasible with the kernel's entries seen through unit vectors v_i."""
    n = len(nodes)
    base = conftest.colligation_target(rng, nodes, grid, 3, 0.9, d)
    k = conftest.random_admissible_kernel(nodes, grid, seed=int(rng.integers(1000))).matrix
    v = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    v = (v / np.linalg.norm(v, axis=1, keepdims=True)).ravel()
    big_v, ones = np.outer(v, v.conj()), np.ones((d, d))
    off = np.kron(k.conj() - np.diag(np.diag(k.conj())), ones) * big_v
    tested = np.sum(base.matrix * np.kron(k, ones) * big_v.conj()).real
    c = 1.1 * tested / np.sum(np.abs(off) ** 2)
    return FeasibilityTarget(nodes=nodes, matrix=base.matrix - c * off, block=d)


def targets(count: int, grid):
    """(generator, target) for the first count draws of the scan."""
    rng = np.random.default_rng(SEED)
    for i in range(count):
        kind = GENERATORS[i % len(GENERATORS)]
        n, d = int(rng.integers(2, 5)), int(rng.integers(2, 4))
        if kind == "diagonal":
            yield kind, pick_target(rng, diagonal_nodes(rng, n), d)
        elif kind == "random":
            yield kind, pick_target(rng, conftest.random_nodes(rng, n), d)
        elif kind == "planted":
            yield kind, conftest.planted_infeasible(rng, conftest.random_nodes(rng, n), grid, d)
        else:
            yield kind, vector_target(rng, conftest.random_nodes(rng, n), grid, d)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--targets", type=int, default=2000, help="number of targets drawn")
    args = parser.parse_args(argv)
    grid = AlphaGrid.solver_default()
    verdicts, later, iterations, bad = Counter(), 0, 0, 0
    for i, (kind, target) in enumerate(targets(args.targets, grid)):
        report = solve(target, grid, OPTIONS)
        n, d = len(target.nodes), target.block
        print(f"{i} {kind} n={n} d={d} {report.status.name} {report.iterations}")
        verdicts[report.status.name] += 1
        iterations += report.iterations
        if report.status is SolveStatus.INFEASIBLE_CERTIFIED:
            later += report.iterations > 0
            bad += not conftest.certificate_holds(target, grid, report.certificate.matrix)
    print(f"targets: {args.targets}")
    print("verdicts: " + " ".join(f"{k}={v}" for k, v in sorted(verdicts.items())))
    print(f"certified after iteration 0: {later}")
    print(f"iterations: {iterations}")
    print(f"certificates failing certificate_holds: {bad}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
