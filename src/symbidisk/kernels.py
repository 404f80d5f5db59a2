"""Kernels restricted to finite node sets, and their admissibility.

A kernel on a finite node set is an n x n PSD Hermitian matrix, one entry per
node pair, whose diagonal does not vanish.  Kernels are scalar even where the
data are operator-valued: a d x d target J is tested against K (x) 1_d, each
entry of K scaling one d x d block of J.  A kernel K is *admissible on an
alpha grid* when, for every grid alpha, the matrix

    (1 - phi(alpha, node_i) * conj(phi(alpha, node_j))) . K_ij

is PSD.  This is the finite surrogate for admissibility quantified over the
whole closed disk of alpha: certification only holds on the grid.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .geometry import GPoint, phi_values, require_member
from .hermitian import hermitian_part, min_eigenvalue_stack

# Alphas per grid, far above the 9 of solver_default.  The distinctness check
# is O(n^2), every mask stack holds n * N^2 entries, and an interior-point
# iteration costs O(n * N^4) flops and 8 n N^2 entries for its Schur
# complement: at N = 20 on 4096 alphas a step takes 1.6 CPU-s and the solve
# peaks at 0.8 GB.  A larger grid is an input error rather than a memory error.
MAX_GRID_SIZE = 4096


@dataclass(frozen=True)
class NodeSet:
    """Ordered, pairwise-distinct member points of the open domain."""

    points: tuple[GPoint, ...]

    def __post_init__(self):
        if not self.points:
            raise ValidationError("node set must be nonempty")
        seen = []
        for q in self.points:
            require_member(q)
            for other in seen:
                if abs(q.s - other.s) <= 1e-12 and abs(q.p - other.p) <= 1e-12:
                    raise ValidationError(f"duplicate node ({q.s}, {q.p})")
            seen.append(q)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def s(self) -> np.ndarray:
        return np.array([q.s for q in self.points], dtype=complex)

    @property
    def p(self) -> np.ndarray:
        return np.array([q.p for q in self.points], dtype=complex)

    @staticmethod
    def from_pairs(pairs) -> "NodeSet":
        return NodeSet(tuple(GPoint(complex(s), complex(p)) for s, p in pairs))


@dataclass(frozen=True)
class AlphaGrid:
    """Finite discretization of the coordinate parameter alpha in the closed disk."""

    alphas: np.ndarray

    def __post_init__(self):
        al = np.asarray(self.alphas, dtype=complex).ravel()
        if al.size == 0:
            raise ValidationError("alpha grid must be nonempty")
        if al.size > MAX_GRID_SIZE:
            raise ValidationError(f"alpha grid has {al.size} > {MAX_GRID_SIZE} points")
        if not np.all(np.abs(al) <= 1.0 + 1e-12):
            raise ValidationError("alpha grid points must lie in the closed unit disk")
        for i in range(al.size):
            if np.any(np.abs(al[i + 1 :] - al[i]) <= 1e-14):
                raise ValidationError("alpha grid points must be distinct")
        object.__setattr__(self, "alphas", al)

    def __len__(self) -> int:
        return len(self.alphas)

    @staticmethod
    def boundary(n: int, include_zero: bool = True) -> "AlphaGrid":
        """n-th roots of unity, plus the origin."""
        top = MAX_GRID_SIZE - include_zero  # the origin counts toward the cap
        if not 1 <= n <= top:
            origin = " plus the origin" if include_zero else ""
            raise ValidationError(f"need 1 <= n <= {top} boundary points{origin}, got {n}")
        al = np.exp(1j * (2.0 * np.pi * np.arange(n) / n))
        if include_zero:
            al = np.concatenate([[0.0 + 0.0j], al])
        return AlphaGrid(al)

    @staticmethod
    @functools.cache
    def solver_default() -> "AlphaGrid":
        """Compact grid used by the feasibility solvers: {0} plus 8 boundary points.

        Built once, on first use (the distinctness check above is O(n^2)),
        and shared by every caller, so its alphas are read-only.
        """
        grid = AlphaGrid.boundary(8, include_zero=True)
        grid.alphas.flags.writeable = False
        return grid


@dataclass(frozen=True)
class KernelMatrix:
    """An n x n matrix on the nodes, kept as its Hermitian part.

    The type checks only the shape.  A positive diagonal is checked where it
    is needed (grammian_normalize), and admissibility by admissibility_check.
    """

    nodes: NodeSet
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        n = len(self.nodes)
        if m.shape != (n, n):
            raise ValidationError(f"kernel matrix shape {m.shape} != ({n}, {n})")
        object.__setattr__(self, "matrix", hermitian_part(m))


def coefficient_masks(grid: AlphaGrid, nodes: NodeSet) -> np.ndarray:
    """Stack of matrices C_m(i, j) = 1 - phi(alpha_m, node_i) conj(phi(alpha_m, node_j)).

    Each C_m is exactly Hermitian, bit for bit: the complex products for (i, j)
    and (j, i) are not exact conjugates, so the stack is symmetrized.  Schur
    products of exactly Hermitian matrices are then exactly Hermitian, which
    lets the solver's eigensolves skip their own symmetrization.
    """
    return _masks(phi_values(grid.alphas, nodes.s, nodes.p))


def _masks(vals: np.ndarray) -> np.ndarray:
    """coefficient_masks from the values phi(alpha_m, node_i), shape (M, N)."""
    if np.any(np.abs(vals) >= 1.0):
        raise ValidationError("a node maps outside the unit disk under some grid alpha")
    return hermitian_part(1.0 - vals[:, :, None] * vals.conj()[:, None, :])


def expand_masks(masks: np.ndarray, block: int) -> np.ndarray:
    """Per node-pair scalars replicated across the d x d entries of each block.

    Takes a stack of masks or one kernel matrix: J . expand_masks(K, d) is the
    Schur product J . (K (x) 1_d) of a block-d target with a kernel.
    """
    if block == 1:
        return masks
    return np.kron(masks, np.ones((block, block)))


def admissibility_check(kernel: KernelMatrix, grid: AlphaGrid, tol: float = 1e-10) -> bool:
    """Whether every C_m . K has min eigenvalue >= -tol, by one stacked
    eigensolve; a grid-level certificate only."""
    lams = min_eigenvalue_stack(coefficient_masks(grid, kernel.nodes) * kernel.matrix)
    return bool(lams.min() >= -tol)


def szego_pullbacks(masks: np.ndarray) -> np.ndarray:
    """The Szego kernel 1 / C_m of phi(alpha_m, .) pulled back to the nodes, per mask C_m.

    With u = phi(alpha_m, .), 1 / (1 - u_i conj(u_j)) = sum_k u_i^k conj(u_j)^k
    is a sum of rank-one PSD matrices, so each is PSD; each is exactly
    Hermitian, bit for bit.  Its Schur product with C_m is the all-ones
    matrix, so it is admissible at its own alpha, though not always at the
    others.
    """
    return hermitian_part(1.0 / masks)


def grammian_normalize(kernel: KernelMatrix) -> np.ndarray:
    """Entrywise rescaling K_ij / sqrt(K_ii K_jj); unit diagonal.

    A positive diagonal congruence, so it keeps K PSD and keeps every mask's
    Schur product with K PSD.  ValidationError unless every K_ii > 0 (a NaN
    diagonal included).
    """
    k, diag = kernel.matrix, np.real(np.diag(kernel.matrix))
    if not np.all(diag > 0):
        raise ValidationError("not a kernel (weak kernel only): vanishing diagonal")
    d = 1.0 / np.sqrt(diag)
    g = k * np.outer(d, d)
    np.fill_diagonal(g, 1.0)
    return hermitian_part(g)


def admissible_shift(masks: np.ndarray, k: np.ndarray) -> float:
    """Closed-form s >= 0 that makes every masks[m] . (k + s I) PSD.

    s = max(0, -min_m lambda_min(masks[m] . k)) / min_(m, i) masks[m](i, i),
    as masks[m] . (k + s I) = masks[m] . k + s diag(masks[m]) dominates
    (lambda_min + s min diag) I; s = 0 when every masks[m] . k is PSD.
    ``masks`` and ``k`` must be exactly Hermitian, bit for bit (eigvalsh
    reads one triangle), and the masks' diagonals positive.
    """
    cdiag = float(np.real(np.diagonal(masks, axis1=1, axis2=2)).min())
    return max(0.0, -float(np.linalg.eigvalsh(masks * k)[:, 0].min())) / cdiag


def random_admissible_kernel(nodes: NodeSet, grid: AlphaGrid, seed: int = 0) -> KernelMatrix:
    """Seeded random kernel passing the grid admissibility check.

    Draws K0 = I + c bump, bump a random PSD matrix of unit spectral norm and
    c in [0.3, 0.8), and returns K0 + s I with s = admissible_shift on the
    grid's coefficient masks: 0 whenever the draw is already admissible, as
    it is at nodes well inside the domain.  K is positive definite with
    diagonal >= 1.  Deterministic in the seed.
    """
    rng = np.random.default_rng(seed)
    n = len(nodes)
    w = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    bump = w @ w.conj().T
    nb = np.linalg.norm(bump, 2)
    if nb > 0:
        bump /= nb
    k = hermitian_part(np.eye(n) + (0.3 + 0.5 * rng.random()) * bump)
    shift = admissible_shift(coefficient_masks(grid, nodes), k)
    return KernelMatrix(nodes=nodes, matrix=k + shift * np.eye(n))
