"""Kernels restricted to finite node sets, and their admissibility.

A kernel on a finite node set is a PSD Hermitian matrix (scalar case) or a
block-PSD matrix with one block per node pair (operator-valued case) whose
diagonal does not vanish.  A kernel K is *admissible on an alpha grid* when,
for every grid alpha, the matrix

    (1 - phi(alpha, node_i) * conj(phi(alpha, node_j))) . K_ij

is PSD.  This is the finite surrogate for admissibility quantified over the
whole closed disk of alpha: certification only holds on the grid, and
reports always carry the worst alpha so callers can refine.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .geometry import GPoint, phi_values, require_member
from .hermitian import hermitian_part, min_eigenvalue_stack

MAX_BLOCK_SIZE = 16
# Alphas per grid, far above the 193 of check_default.  The distinctness check
# is O(n^2), every mask stack holds n * N^2 entries, and an interior-point
# iteration costs O(n * N^4) flops for its Schur complement, whose n * N^4
# Kronecker entries feasibility builds in slabs of atoms rather than at once.
# A larger grid is an input error rather than a memory error.
MAX_GRID_SIZE = 4096
# Alphas per stacked eigensolve in admissibility_check are capped so that a
# stack of scaled kernels holds at most this many entries.
_CHECK_CHUNK_ENTRIES = 2**16


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

    def prefix(self, n: int) -> "NodeSet":
        return NodeSet(self.points[:n])


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
        if np.any(np.abs(al) > 1.0 + 1e-12):
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

    # The default grids are built once, on first use (the distinctness check
    # above is O(n^2)), and shared by every caller, so their alphas are read-only.

    @staticmethod
    @functools.cache
    def solver_default() -> "AlphaGrid":
        """Compact grid used by the feasibility solvers: {0} plus 8 boundary points."""
        return _read_only(AlphaGrid.boundary(8, include_zero=True))

    @staticmethod
    @functools.cache
    def check_default() -> "AlphaGrid":
        """Dense grid for admissibility audits: 64 boundary points, the origin,
        and 8 interior radii times 16 angles."""
        parts = [np.exp(2j * np.pi * np.arange(64) / 64), np.array([0.0 + 0.0j])]
        radii = (np.arange(1, 9) / 9.0)[:, None]
        angles = np.exp(2j * np.pi * np.arange(16) / 16)[None, :]
        parts.append((radii * angles).ravel())
        return _read_only(AlphaGrid(np.concatenate(parts)))


def _read_only(grid: AlphaGrid) -> AlphaGrid:
    grid.alphas.flags.writeable = False
    return grid


@dataclass(frozen=True)
class KernelMatrix:
    """A PSD node-indexed matrix with nonvanishing diagonal blocks."""

    nodes: NodeSet
    matrix: np.ndarray
    block: int = 1

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        n = len(self.nodes) * self.block
        if self.block < 1 or self.block > MAX_BLOCK_SIZE:
            raise ValidationError(f"block size must be in [1, {MAX_BLOCK_SIZE}]")
        if m.shape != (n, n):
            raise ValidationError(f"kernel matrix shape {m.shape} != ({n}, {n})")
        object.__setattr__(self, "matrix", hermitian_part(m))


@dataclass(frozen=True)
class AdmissibilityReport:
    min_eig_per_alpha: tuple[tuple[complex, float], ...]
    worst_alpha: complex
    is_admissible_on_grid: bool
    tol: float


def coefficient_masks(grid: AlphaGrid, nodes: NodeSet) -> np.ndarray:
    """Stack of matrices C_m(i, j) = 1 - phi(alpha_m, node_i) conj(phi(alpha_m, node_j)).

    Each C_m is exactly Hermitian, bit for bit: the complex products for (i, j)
    and (j, i) are not exact conjugates, so the stack is symmetrized.  Schur
    products of exactly Hermitian matrices are then exactly Hermitian, which
    lets the solver's eigensolves skip their own symmetrization.
    """
    vals = phi_values(grid.alphas, nodes.s, nodes.p)  # (M, N)
    if np.any(np.abs(vals) >= 1.0):
        raise ValidationError("a node maps outside the unit disk under some grid alpha")
    return hermitian_part(1.0 - vals[:, :, None] * vals.conj()[:, None, :])


def expand_masks(masks: np.ndarray, block: int) -> np.ndarray:
    """Per node-pair scalars replicated across the d x d entries of each block."""
    if block == 1:
        return masks
    return np.kron(masks, np.ones((block, block)))


def admissibility_check(
    kernel: KernelMatrix, grid: AlphaGrid, tol: float = 1e-10
) -> AdmissibilityReport:
    """Per-alpha minimum eigenvalue of the scaled kernel; grid-level certificate only."""
    masks = coefficient_masks(grid, kernel.nodes)
    step = max(1, _CHECK_CHUNK_ENTRIES // kernel.matrix.size)
    lams = np.concatenate(
        [
            min_eigenvalue_stack(expand_masks(masks[lo : lo + step], kernel.block) * kernel.matrix)
            for lo in range(0, len(grid), step)
        ]
    )
    worst = int(np.argmin(lams))
    return AdmissibilityReport(
        min_eig_per_alpha=tuple(
            (complex(alpha), float(lam)) for alpha, lam in zip(grid.alphas, lams)
        ),
        worst_alpha=complex(grid.alphas[worst]),
        is_admissible_on_grid=bool(lams[worst] >= -tol),
        tol=tol,
    )


def make_b_kernel(alpha: complex, nodes: NodeSet) -> KernelMatrix:
    """Szego-type pullback 1 / (1 - phi(alpha, .) conj(phi(alpha, .))); always PSD."""
    if abs(alpha) > 1.0 + 1e-12:
        raise ValidationError("|alpha| <= 1 required")
    vals = phi_values(np.array([alpha]), nodes.s, nodes.p)[0]
    mat = 1.0 / (1.0 - np.outer(vals, vals.conj()))
    return KernelMatrix(nodes=nodes, matrix=mat)


def grammian_normalize(kernel: KernelMatrix) -> np.ndarray:
    """Entrywise rescaling K_ij / sqrt(K_ii K_jj); unit diagonal.

    A positive diagonal congruence, so it keeps K PSD and, block kernels
    included, keeps every expanded mask's Schur product with K PSD.
    """
    if np.any(np.real(np.diag(kernel.matrix)) <= 0):
        raise ValidationError("not a kernel (weak kernel only): vanishing diagonal")
    return unit_diagonal(kernel.matrix)


def unit_diagonal(k: np.ndarray) -> np.ndarray:
    """K_ij / sqrt(K_ii K_jj) of a Hermitian matrix whose diagonal is positive."""
    d = 1.0 / np.sqrt(np.real(np.diag(k)))
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
