"""Finite-truncation diagnostics for interpolating sequences.

Whether a sequence of domain points admits bounded interpolation of every
bounded target sequence is controlled by two-sided eigenvalue bounds of the
normalized Grammians of admissible kernels, by strong separation (unit
vectors interpolated with a uniform bound), and by a family of Carleson-type
products through any single coordinate function.  Everything here works on
finite truncations: the universally quantified kernel conditions are sampled
(grid-admissible kernels only), so the reports are one-sided evidence, never
a verdict on the infinite sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .feasibility import MAX_TARGET_DIM, SolveOptions, SolveReport, solve
from .geometry import phi_values, pseudo_hyperbolic
from .kernels import (
    AlphaGrid,
    KernelMatrix,
    NodeSet,
    admissibility_check,
    coefficient_masks,
    grammian_normalize,
    random_admissible_kernel,
    szego_pullbacks,
)
from .pick import PickProblem, minimal_norm_bracket
from .realization import factor_target

# Kernels a sequence census may ask for.  Each costs one stacked eigensolve on
# the whole grid (a pullback's admissibility check, or a random draw's shift)
# and its share of one stacked Grammian eigensolve: on the 9-alpha solver grid,
# 1024 kernels take 0.15-0.16 CPU-s at 3 nodes and 0.55 at 20 (x86_64 Xeon,
# one BLAS thread).
MAX_KERNELS = 1024
# A pullback joins the census when every lambda_min(C_m . K) >= -this on the
# grid; the Grammian bounds are evidence over grid-admissible kernels only.
_ADMISSIBLE_TOL = 1e-8


@dataclass(frozen=True)
class SequenceTruncation:
    """First n terms of a sequence, as a node set."""

    nodes: NodeSet

    def __post_init__(self):
        # strong separation solves scalar Picks on the whole truncation
        if len(self.nodes) > MAX_TARGET_DIM:
            raise ValidationError(f"truncation capped at {MAX_TARGET_DIM} nodes")

    @property
    def n(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class GrammianReport:
    per_kernel: tuple[tuple[str, float, float], ...]  # (kernel id, lam_min, lam_max)
    worst_lower: float
    worst_upper: float


def grammian_bounds(
    trunc: SequenceTruncation,
    grid: AlphaGrid,
    seed: int,
    count: int,
    tol: float = _ADMISSIBLE_TOL,
) -> GrammianReport:
    """Eigenvalue range of each census kernel's normalized Grammian on the truncation.

    The census holds grid-admissible kernels only.  The pullback (b-type)
    kernels, the Szego kernels of kernels.szego_pullbacks in grid order, are
    admissible at their own alpha by construction but not at every other
    alpha, so each candidate is checked once on the full grid to ``tol`` and
    dropped if it fails; up to count // 2 are kept.  Random draws with
    seeds seed, seed + 1, ... fill the census to ``count``; they are admissible
    by construction.  The bounds are evidence over the sampled kernels only.
    """
    if count < 1:
        raise ValidationError(f"kernel census needs count >= 1, got {count}")
    census: list[tuple[str, KernelMatrix]] = []
    for m, pullback in enumerate(szego_pullbacks(coefficient_masks(grid, trunc.nodes))):
        if len(census) >= count // 2:
            break
        kern = KernelMatrix(trunc.nodes, pullback)
        if admissibility_check(kern, grid, tol):
            census.append((f"b[{m}]", kern))
    for k in range(seed, seed + count - len(census)):
        census.append((f"rand[{k}]", random_admissible_kernel(trunc.nodes, grid, seed=k)))
    lams = np.linalg.eigvalsh(np.stack([grammian_normalize(kern) for _, kern in census]))
    return GrammianReport(
        per_kernel=tuple(
            (kid, float(lam[0]), float(lam[-1])) for (kid, _), lam in zip(census, lams)
        ),
        worst_lower=float(lams[:, 0].min()),
        worst_upper=float(lams[:, -1].max()),
    )


def carleson_condition(trunc: SequenceTruncation, alpha: complex) -> float:
    """Worst Carleson product of the truncation through phi(alpha, .).

    Returns min over k of prod over j != k of the pseudo-hyperbolic distance
    of the coordinate images; positive values certify separation through this
    single coordinate direction (coincident images give zero).
    """
    if not abs(alpha) <= 1.0 + 1e-12:
        raise ValidationError("|alpha| <= 1 required")
    z = phi_values(np.array([alpha]), trunc.nodes.s, trunc.nodes.p)[0]
    n = trunc.n
    if n == 1:
        return 1.0
    worst = np.inf
    for k in range(n):
        prod = 1.0
        for j in range(n):
            if j == k:
                continue
            prod *= pseudo_hyperbolic(complex(z[j]), complex(z[k]))
        worst = min(worst, prod)
    return float(worst)


def best_carleson_alpha(
    trunc: SequenceTruncation, grid: AlphaGrid
) -> tuple[complex, float]:
    """Grid alpha with the largest Carleson product for the truncation."""
    best_alpha = complex(grid.alphas[0])
    best = -np.inf
    for alpha in grid.alphas:
        v = carleson_condition(trunc, complex(alpha))
        if v > best:
            best = v
            best_alpha = complex(alpha)
    return best_alpha, float(best)


def strong_separation(
    trunc: SequenceTruncation,
    bound: float,
    grid: AlphaGrid | None = None,
    opts: SolveOptions = SolveOptions(),
) -> list[SolveReport]:
    """One unit-vector problem per node: f_i(node_i) = 1, zero elsewhere.

    All Feasible means the truncation is strongly separated with constant at
    most ``bound``.  Decided as solve_pick decides, but nothing is synthesized.
    """
    if not 0 < bound < np.inf:
        raise ValidationError(f"field 'bound' must be positive and finite, got {bound}")
    grid = grid or AlphaGrid.solver_default()
    out = []
    for i in range(trunc.n):
        targets = [
            np.array([[1.0 + 0.0j if j == i else 0.0 + 0.0j]]) for j in range(trunc.n)
        ]
        problem = PickProblem(nodes=trunc.nodes, targets=tuple(targets), norm_bound=bound)
        out.append(solve(factor_target(problem), grid, opts))
    return out


def phase_pattern_family(n: int, budget: int = 64) -> np.ndarray:
    """Unimodular target patterns forming a full residue-class group.

    Patterns are all n-tuples of L-th roots of unity with L chosen so the
    family size L**n stays within the budget (at least L = 2).  Averaging
    over this family reproduces the exact character orthogonality the
    Grammian sandwich argument needs, so the interpolation-constant estimate
    it produces bounds every sampled normalized Grammian two-sidedly.
    """
    lroot = max(2, int(np.floor(budget ** (1.0 / n) + 1e-9)))
    roots = np.exp(2j * np.pi * np.arange(lroot) / lroot)
    grids = np.meshgrid(*([roots] * n), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)  # (L**n, n)


def interpolation_constant(
    trunc: SequenceTruncation,
    grid: AlphaGrid | None = None,
    opts: SolveOptions = SolveOptions(),
) -> float:
    """Measured interpolation constant: max minimal norm over phase patterns.

    Each pattern contributes the upper endpoint of its minimal-norm bracket, a
    bound with an exact, re-verified grid witness, so every pattern is known
    solvable at the returned constant and the Grammian sandwich derived from
    it holds without a sampling gap.
    """
    grid = grid or AlphaGrid.solver_default()
    best = 0.0
    family = phase_pattern_family(trunc.n)
    # a global phase leaves the target unchanged: one pattern per class
    for pattern in family[family[:, 0] == 1]:
        problem = PickProblem(
            nodes=trunc.nodes,
            targets=tuple(np.array([[w]]) for w in pattern),
        )
        _, hi = minimal_norm_bracket(problem, grid, opts)
        best = max(best, hi)
    return best
