"""Semidefinite feasibility core.

Decides whether a Hermitian node-indexed target J splits as

    J = sum_m C_m . B_m,      C_m(i, j) = 1 - phi(alpha_m, i) conj(phi(alpha_m, j)),

with every B_m PSD, where "." scales block (i, j) of B_m by the scalar
C_m(i, j).  This is the finite, grid-atomic form of representing J against
the coordinate family, and a witness is exactly the data the realization
builder needs.

Algorithm: semismooth Newton ascent on the Lagrange dual of the minimum-norm
problem  min 1/2 sum_m ||B_m||^2  subject to  sum_m C_m . B_m = J, B_m PSD.
Over Hermitian Y the dual function

    theta(Y) = Re<J, Y> - 1/2 sum_m ||P+(conj(C_m) . Y)||^2

is concave, C^1 and strongly semismooth (P+ is the PSD projection).  Its
gradient J - sum_m C_m . P+(conj(C_m) . Y) is the residual of the primal
point B_m = P+(conj(C_m) . Y), so when J is feasible the maximizer gives the
minimum-norm witness.  Each step solves (V(Y) + mu I) d = grad theta by
matrix-free conjugate gradients, V being the generalized Hessian, and
backtracks on theta (Qi & Sun, SIAM J. Matrix Anal. Appl. 2006; Zhao, Sun &
Toh, SIAM J. Optim. 2010).  The regularization mu = ||grad|| / ||Y||, clipped
to [1e-10, 1e-2], is scale-free: near the feasibility threshold the maximizer
lies far out (||Y|| in the thousands), and a mu that does not shrink with
1 / ||Y|| would cap every step at a length of order one.

Infeasibility is certified by a grid-admissible kernel K whose Schur product
with J has a negative eigenvalue: any exact witness would force
J . K = sum_m B_m . (C_m . K) to be PSD term by term, so a violating K and a
witness cannot coexist on the same grid.  When J is infeasible theta grows
without bound along a direction -D with every conj(C_m) . D PSD and
Re<J, D> < 0, so K = conj(D) is such a kernel; the ascent reads it off its
iterate.  When the residual stops halving and no certificate emerges the
honest terminal status is Unknown; the exact dichotomy holds only for the
full alpha continuum, not the grid.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ValidationError
from .hermitian import (
    hermitian_part,
    min_eigenvalue,
    psd_project,
    psd_project_stack,
    schur_oslash,
)
from .kernels import (
    AlphaGrid,
    KernelMatrix,
    NodeSet,
    admissibility_check,
    coefficient_masks,
    grammian_normalize,
)

_ARMIJO = 1e-4  # sufficient-increase constant of the backtracking search
_MU_RANGE = (1e-10, 1e-2)  # clip of the regularization mu = ||grad|| / ||Y||
# Conjugate-gradient iterations per Newton step.  Not the dimension n^2: with
# mu down to 1e-10 the system is ill-conditioned, and CG stopped at n^2
# iterations returns directions that make the final steps zig-zag.
_CG_MAX = 200
_POLISH_STEPS = 8  # extra steps toward polish_tol once tol is met
_STALL_STEPS = 40  # Unknown when the best residual has not halved in this many steps


class SolveStatus(str, Enum):
    FEASIBLE = "Feasible"
    INFEASIBLE_CERTIFIED = "InfeasibleCertified"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class SolveOptions:
    tol: float = 1e-8
    max_iter: int = 20000  # Newton steps
    seed: int = 0
    # residual polish after the tolerance is first met; improves downstream
    # synthesis without changing the decision
    polish_tol: float = 1e-12


@dataclass(frozen=True)
class FeasibilityTarget:
    """Hermitian node-indexed target; block (i, j) must equal block (j, i)*."""

    nodes: NodeSet
    matrix: np.ndarray
    block: int = 1

    def __post_init__(self):
        n = len(self.nodes) * self.block
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (n, n):
            raise ValidationError(f"target shape {m.shape} != ({n}, {n})")
        if not np.all(np.isfinite(m)):
            raise ValidationError("target has non-finite entries (input magnitude overflows)")
        if np.abs(m - m.conj().T).max(initial=0.0) > 1e-10 * max(
            1.0, np.abs(m).max(initial=0.0)
        ):
            raise ValidationError("target is not self-adjoint")
        object.__setattr__(self, "matrix", hermitian_part(m))


@dataclass(frozen=True)
class CPBlocks:
    """One PSD block per grid alpha; the discretized representation data."""

    grid: AlphaGrid
    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.blocks) != len(self.grid):
            raise ValidationError("need exactly one block per grid alpha")

    def stacked(self) -> np.ndarray:
        return np.stack(self.blocks)


@dataclass(frozen=True)
class SolveReport:
    status: SolveStatus
    residual: float
    iterations: int
    wall_time: float
    blocks: CPBlocks | None = None
    certificate: KernelMatrix | None = None
    certificate_min_eig: float | None = None
    notes: tuple[str, ...] = field(default_factory=tuple)


def _expand_masks(masks: np.ndarray, block: int) -> np.ndarray:
    """Per node-pair scalars replicated across the d x d entries of each block."""
    if block == 1:
        return masks
    return np.kron(masks, np.ones((block, block)))


def residual(target: FeasibilityTarget, blocks: CPBlocks) -> float:
    """Frobenius mismatch of the affine identity plus total PSD violation."""
    masks = coefficient_masks(blocks.grid, target.nodes)
    cexp = _expand_masks(masks, target.block)
    stack = blocks.stacked()
    if stack.shape != cexp.shape:
        raise ValidationError("blocks do not conform to target/grid shapes")
    mismatch = np.linalg.norm(np.einsum("mij,mij->ij", cexp, stack) - target.matrix)
    psd_violation = 0.0
    for b in stack:
        lam = min_eigenvalue(b)
        if lam < 0:
            psd_violation += -lam
    return float(mismatch + psd_violation)


def solve(
    target: FeasibilityTarget, grid: AlphaGrid, opts: SolveOptions = SolveOptions()
) -> SolveReport:
    """Decide grid feasibility of the target; see module docstring.

    Feasible reports carry the witness blocks with residual <= tol.
    InfeasibleCertified reports carry a grid-admissible kernel certificate.
    Deterministic given (target, grid, opts).
    """
    t0 = time.perf_counter()
    masks = coefficient_masks(grid, target.nodes)  # raises if a node leaves the disk
    cexp = _expand_masks(masks, target.block)

    atom = _single_atom_witness(target, grid, cexp, opts)
    if atom is not None:
        blocks, res0 = atom
        return SolveReport(
            status=SolveStatus.FEASIBLE,
            residual=res0,
            iterations=0,
            wall_time=time.perf_counter() - t0,
            blocks=blocks,
            notes=("single-atom witness",),
        )

    cheap = _cheap_certificates(target, grid, masks, opts)
    if cheap is not None:
        kern, lam = cheap
        return SolveReport(
            status=SolveStatus.INFEASIBLE_CERTIFIED,
            residual=float(np.linalg.norm(target.matrix)),
            iterations=0,
            wall_time=time.perf_counter() - t0,
            certificate=kern,
            certificate_min_eig=lam,
            notes=("certified by direct kernel candidate",),
        )

    j = target.matrix
    cconj = cexp.conj()
    cdiag = float(np.real(np.diagonal(cexp, axis1=1, axis2=2)).min())
    jnorm = float(np.linalg.norm(j))
    notes: list[str] = []
    y = np.zeros_like(j)
    b, grad, theta = _dual_point(j, cexp, y)
    res = float(np.linalg.norm(grad))
    best_res, best_b = res, b
    history = [res]  # best residual after each step
    polish_end = None
    it = 0
    while True:
        if polish_end is None and res <= opts.tol:
            polish_end = it + _POLISH_STEPS
            notes.append(f"tolerance met at step {it}; polishing")
        lam, vecs = np.linalg.eigh(cconj * y)
        if polish_end is None:
            cert = _dual_certificate(target, grid, y, float(lam[:, -1].max()), cdiag, opts)
            if cert is not None:
                kern, lam_k = cert
                return SolveReport(
                    status=SolveStatus.INFEASIBLE_CERTIFIED,
                    residual=res,
                    iterations=it,
                    wall_time=time.perf_counter() - t0,
                    certificate=kern,
                    certificate_min_eig=lam_k,
                    notes=tuple(notes) + (f"certified by the dual iterate at step {it}",),
                )
            if it >= _STALL_STEPS and history[it] > 0.5 * history[it - _STALL_STEPS]:
                notes.append(f"residual not halved in {_STALL_STEPS} steps")
                break
        elif res <= opts.polish_tol or it >= polish_end:
            break
        if it >= opts.max_iter:
            break
        it += 1

        hess = _generalized_hessian(cexp, lam, vecs)
        ny = float(np.linalg.norm(y))
        mu = float(np.clip(res / ny, *_MU_RANGE)) if ny > 0 else _MU_RANGE[1]
        d = _conjugate_gradient(hess, grad, mu, min(0.1, res) * res)
        slope = float(np.vdot(grad, d).real)
        step = 1.0
        while step >= 1e-10:
            b_t, grad_t, theta_t = _dual_point(j, cexp, y + step * d)
            res_t = float(np.linalg.norm(grad_t))
            if theta_t >= theta + _ARMIJO * step * slope:
                break
            # where theta's change is below its roundoff, accept a lower residual
            if res_t < res and theta_t >= theta - 1e-13 * (1.0 + jnorm * ny):
                break
            step *= 0.5
        else:
            notes.append(f"line search failed at step {it}")
            break
        y = y + step * d
        b, grad, theta, res = b_t, grad_t, theta_t, res_t
        if res < best_res:
            best_res, best_b = res, b
        history.append(best_res)

    wall = time.perf_counter() - t0
    if best_res <= opts.tol:
        return SolveReport(
            status=SolveStatus.FEASIBLE,
            residual=best_res,
            iterations=it,
            wall_time=wall,
            blocks=CPBlocks(grid=grid, blocks=tuple(hermitian_part(x) for x in best_b)),
            notes=tuple(notes),
        )
    return SolveReport(
        status=SolveStatus.UNKNOWN,
        residual=best_res,
        iterations=it,
        wall_time=wall,
        notes=tuple(notes) + (f"best residual {best_res:.3e}",),
    )


def _dual_point(j, cexp, y):
    """Blocks P+(conj(C_m) . Y), the gradient J - sum C_m . B_m and theta(Y)."""
    b = psd_project_stack(cexp.conj() * y)
    grad = j - np.einsum("mij,mij->ij", cexp, b)
    theta = float(np.vdot(j, y).real - 0.5 * np.vdot(b, b).real)
    return b, grad, theta


def _generalized_hessian(cexp, lam, vecs):
    """H -> sum_m C_m . (U_m (Omega_m . (U_m* (conj(C_m) . H) U_m)) U_m*).

    conj(C_m) . Y = U_m diag(lam_m) U_m*; Omega_m holds the divided
    differences of max(lam, 0): 1 on pairs of positive eigenvalues, 0 on pairs
    of non-positive ones, lam_+ / (lam_i - lam_j) across the sign change.
    """
    pos = lam > 0
    lp = np.where(pos, lam, 0.0)
    both = pos[:, :, None] & pos[:, None, :]
    mixed = pos[:, :, None] ^ pos[:, None, :]
    gap = np.where(mixed, lam[:, :, None] - lam[:, None, :], 1.0)
    omega = np.where(both, 1.0, np.where(mixed, (lp[:, :, None] - lp[:, None, :]) / gap, 0.0))
    vh = vecs.conj().transpose(0, 2, 1)
    cconj = cexp.conj()

    def apply(h):
        inner = omega * (vh @ (cconj * h) @ vecs)
        return np.einsum("mij,mij->ij", cexp, vecs @ inner @ vh)

    return apply


def _conjugate_gradient(apply, g, mu, tol):
    """Solve (V + mu I) d = g over Hermitian matrices to a residual <= tol."""
    d = np.zeros_like(g)
    r = g.copy()
    p = r.copy()
    rr = float(np.vdot(r, r).real)
    for _ in range(_CG_MAX):
        if rr <= tol * tol:
            break
        q = apply(p) + mu * p
        a = rr / float(np.vdot(p, q).real)
        d += a * p
        r -= a * q
        rr_new = float(np.vdot(r, r).real)
        p = r + (rr_new / rr) * p
        rr = rr_new
    return hermitian_part(d)


def _dual_certificate(target, grid, y, lam_max, cdiag, opts):
    """Grid-admissible kernel from the ascent direction -Y / ||Y||, if it certifies.

    ``lam_max`` is the largest eigenvalue over m of conj(C_m) . Y.  Shifting
    D = -Y / ||Y|| by t I, t = max(0, lam_max / ||Y||) / min C_m(i, i), makes
    every conj(C_m) . D' PSD.  Blocks with sum C_m . B_m = J + R then give
    Re<J + R, D'> = sum Re<B_m, conj(C_m) . D'> >= 0, so
    -Re<J, D'> > tol ||D'|| rules out every witness of residual <= tol.  The
    block trace, a completely positive map, compresses D' to n x n; the kernel
    K = conj(D') is re-verified by _normalize_certificate.
    """
    ny = float(np.linalg.norm(y))
    if ny == 0.0:
        return None
    dual = -y / ny + (max(0.0, lam_max / ny) / cdiag) * np.eye(len(y))
    if -np.vdot(target.matrix, dual).real <= opts.tol * np.linalg.norm(dual):
        return None
    n, d = len(target.nodes), target.block
    k = dual.reshape(n, d, n, d).trace(axis1=1, axis2=3)
    return _normalize_certificate(target, grid, k.conj(), opts)


def _single_atom_witness(target, grid, cexp, opts):
    """Closed-form witness concentrated at one grid alpha, when one exists.

    C_m . B = J is solved exactly by B = J / C_m entrywise; whenever that
    quotient is PSD the problem is feasible with zero residual, a geometry
    an iterative method approaches only asymptotically (every other block
    sits on the cone boundary).
    """
    j = target.matrix
    scale = max(1.0, float(np.abs(j).max(initial=0.0)))
    best = None
    for m in range(cexp.shape[0]):
        cand = hermitian_part(j / cexp[m])
        lam = min_eigenvalue(cand)
        if lam >= -1e-12 * scale:
            stack = np.zeros_like(cexp, dtype=complex)
            stack[m] = psd_project(cand)
            blocks = CPBlocks(grid=grid, blocks=tuple(stack))
            res = residual(target, blocks)
            if res <= opts.tol and (best is None or res < best[1]):
                best = (blocks, res)
                if res == 0.0:
                    break
    return best


def _cheap_certificates(target, grid, masks, opts):
    """Identity kernel and per-alpha b-kernels, filtered by grid admissibility."""
    n = len(target.nodes)
    candidates = [np.eye(n, dtype=complex)]
    for m in range(len(grid)):
        candidates.append(1.0 / masks[m])
    for k in candidates:
        lam, _ = _most_negative_pair(target.matrix, k, target.block)
        if lam <= -opts.tol:
            cand = _normalize_certificate(target, grid, k, opts)
            if cand is not None:
                return cand
    return None


def _most_negative_pair(j, k, block) -> tuple[float, np.ndarray]:
    prod = schur_oslash(j, k, block, 1)
    prod = hermitian_part(prod)
    lam, vecs = np.linalg.eigh(prod)
    return float(lam[0]), vecs[:, 0]


def _normalize_certificate(target, grid, k, opts) -> tuple[KernelMatrix, float] | None:
    """Unit-diagonal rescale, then re-verify admissibility and the violation."""
    k = hermitian_part(k)
    diag = np.real(np.diag(k))
    if np.any(diag <= 1e-14):
        k = k + 1e-12 * np.eye(k.shape[0])
        diag = np.real(np.diag(k))
    kern = KernelMatrix(nodes=target.nodes, matrix=k)
    g = grammian_normalize(kern)
    kern = KernelMatrix(nodes=target.nodes, matrix=g)
    report = admissibility_check(kern, grid, tol=opts.tol)
    if not report.is_admissible_on_grid:
        return None
    lam, _ = _most_negative_pair(target.matrix, kern.matrix, target.block)
    if lam > -opts.tol:
        return None
    return kern, lam
