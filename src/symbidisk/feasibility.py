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
minimum-norm witness.  Each step solves (V(Y) + mu I) d = grad theta, V being
the generalized Hessian, and backtracks on theta (Qi & Sun, SIAM J. Matrix
Anal. Appl. 2006; Zhao, Sun & Toh, SIAM J. Optim. 2010).  From Y = 0, where
V vanishes and d = J / mu, the line search is exact instead: P+ is positively
homogeneous, so theta(s d) is a concave quadratic in s, and the one dual point
at d gives its maximizer (_ray_step).  One stacked eigensolve per dual point
serves P+, the gradient, the next step's V and the certificate's lambda_max;
the masks C_m are exactly Hermitian, like every dual iterate, so that
eigensolve symmetrizes nothing.  With N = n * block the system has N^2
unknowns.  V is assembled as one dense N^2 x N^2 matrix, summed over chunks of
atoms so that no slab of the assembly outgrows a fixed entry budget, and the
system is solved directly; the O(M N^6) flops of that assembly are why targets
are capped at N = MAX_TARGET_DIM.  The regularization
mu = (||grad|| / ||Y||) (||grad|| / ||J||)^(1/4), clipped to [1e-14, 1e-2],
is scale-free: near the feasibility threshold the maximizer or the
certificate direction lies far out (||Y|| up to 1e5-1e6), and a mu that does
not shrink with 1 / ||Y|| would cap every step along V's near-null directions
at a length of ||grad|| / mu.  The second factor shrinks mu like
||grad||^1.25, a Levenberg-Marquardt order that keeps local quadratic
convergence (Fan & Yuan, Computing 2005); with the first alone, trials near
the threshold zig-zag while ||Y|| creeps outward.

Infeasibility is certified by a grid-admissible kernel K whose Schur product
with J has a negative eigenvalue: any exact witness would force
J . K = sum_m B_m . (C_m . K) to be PSD term by term, so a violating K and a
witness cannot coexist on the same grid.  When J is infeasible theta grows
without bound along a direction -D with every conj(C_m) . D PSD and
Re<J, D> < 0, so K = conj(D) is such a kernel; the ascent reads it off its
iterate.  When the residual stops halving and no certificate emerges the
honest terminal status is Unknown; the exact dichotomy holds only for the
full alpha continuum, not the grid.

The linear conic program behind Pick minimal norms, min t subject to
t E - G = sum_m C_m . B_m with every B_m PSD, is solved by a primal-dual
interior-point method on it and its dual (_conic_minimum).  Its Schur
complement is an N^2 x N^2 matrix built in O(M N^4) flops.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import NumericsError, ValidationError
from .hermitian import (
    hermitian_part,
    min_eigenvalue,
    min_eigenvalue_stack,
    psd_project_stack,
    schur_oslash,
)
from .kernels import (
    AlphaGrid,
    KernelMatrix,
    NodeSet,
    admissible_shift,
    coefficient_masks,
    expand_masks,
    unit_diagonal,
)

_ARMIJO = 1e-4  # sufficient-increase constant of the backtracking search
# Clip of the regularization mu (module docstring).  The floor is the Newton
# system's precision limit: V's eigenvalues lie in [0, sum_m max |C_m|^2], at
# most 4M, and about machine epsilon times that is the smallest shift that
# keeps V + mu I solvable.  A higher floor caps the steps along V's near-null
# directions (module docstring), and near-threshold solves then creep until
# the stall rule ends them Unknown.
_MU_RANGE = (1e-14, 1e-2)
# The power of ||grad|| / ||J|| in mu.  1/4 cut the Newton steps of 20 sandwich
# bisections by a third and left 2 of 15300 loop-bound corpus files Unknown
# (3 with 0; tools/loop_census.py); 1/2 to 1 cut more steps, left more Unknown.
# It also ends some N = 16 targets Unknown that 0 decides (ROADMAP item 8).
_MU_EXPONENT = 0.25
# Largest N = n * block a target may have.  Every Newton step solves a dense
# N^2 x N^2 system built in O(M N^6) flops.  On the 9-atom grid (one BLAS
# thread, 2-vCPU Xeon VM) a step takes 0.14 s at N = 20, 0.40 s at N = 24 and
# 1.8 s at N = 32, and planted colligation targets at N = 20 take 44-166
# steps, about 14 CPU-s per solve.  It bounds scalar Pick nodes, sequence
# truncations and n * d of matrix Pick and corona problems.
MAX_TARGET_DIM = 20
# Largest modulus a target entry may have.  ||J||^2 overflows near
# |J| = 1e154, and the first Newton direction of solve is J / 1e-2.  Measured
# with target moduli up to 1e160 (2-node, 6-node and 20-node Pick and 2-node
# corona targets): every solve reached its verdict at |J| <= 1e150 and at
# about 6e150, none at 1e152 and above (Unknown, a LinAlgError, or a report
# holding inf).
MAX_TARGET_ENTRY = 1e150
# Atoms per slab of the dense Hessian assembly are capped so that the slab E
# holds at most this many entries (N^2 rows, N^2 columns per atom).
_HESSIAN_CHUNK_ENTRIES = 2**20
# Once tol is met, up to _POLISH_STEPS more steps push the residual toward
# _POLISH_TOL; this improves downstream synthesis without changing the decision.
_POLISH_STEPS = 8
_POLISH_TOL = 1e-12
_STALL_STEPS = 40  # Unknown when the best residual has not halved in this many steps
# The interior-point iterations of _conic_minimum take this fraction of the
# step to the PSD boundary.
_STEP_FRACTION = 0.95
# _conic_minimum starts from the single-atom witness at t_w moved strictly
# inside the cone: by _START_SZEGO t_w (Sz_m (x) I) at every Szego-safe atom m,
# which keeps the primal identity to roundoff, and by _START_SHIFT t_w I at the
# others, whose singular Sz_m would fail the first Cholesky factorization.
# At 0.03 the sandwich item of tests/test_pick.py takes 7 iterations and its
# two budget items 9 each; 0.01-0.02 took a budget item to 10, and 0.05-0.3
# the sandwich item to 8.  On the sandwich census (tools/conic_census.py
# --seeds 33001 33040) the iterations fell 12765 -> 11271 against the witness
# + _START_SHIFT t_w I at every atom.
_START_SZEGO = 0.03
_START_SHIFT = 3e-3
# Steps below this on both sides leave the iterate where it is, and so would
# every later one: the conic solve has stalled.
_MIN_STEP = 1e-10
# _conic_minimum repairs its witness only at atoms whose Szego kernel Sz_k is
# safely positive definite, lambda_min(Sz_k) > _SZEGO_FLOOR lambda_max(Sz_k).
# Two nodes with the same phi(alpha_k, .) make Sz_k singular: at alpha = 0,
# where phi = -s / 2, every pair of nodes with equal s does.
_SZEGO_FLOOR = 1e-12


class SolveStatus(str, Enum):
    FEASIBLE = "Feasible"
    INFEASIBLE_CERTIFIED = "InfeasibleCertified"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class SolveOptions:
    tol: float = 1e-8
    max_iter: int = 20000  # Newton steps; interior-point iterations in _conic_minimum
    seed: int = 0


@dataclass(frozen=True)
class FeasibilityTarget:
    """Hermitian node-indexed target; block (i, j) must equal block (j, i)*."""

    nodes: NodeSet
    matrix: np.ndarray
    block: int = 1

    def __post_init__(self):
        if self.block < 1:
            raise ValidationError(f"target block must be >= 1, got {self.block}")
        n = len(self.nodes) * self.block
        if n > MAX_TARGET_DIM:
            raise ValidationError(
                f"target has n * block = {n} rows, more than the {MAX_TARGET_DIM} allowed"
            )
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (n, n):
            raise ValidationError(f"target shape {m.shape} != ({n}, {n})")
        if not np.all(np.isfinite(m)):
            raise ValidationError("target has non-finite entries (input magnitude overflows)")
        top = float(np.abs(m).max(initial=0.0))
        if top > MAX_TARGET_ENTRY:
            raise ValidationError(
                f"target has an entry of modulus {top:.3g}, more than the"
                f" {MAX_TARGET_ENTRY:g} at which the solve's norms stay finite"
            )
        if np.abs(m - m.conj().T).max(initial=0.0) > 1e-10 * max(1.0, top):
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


def residual(target: FeasibilityTarget, blocks: CPBlocks) -> float:
    """Frobenius mismatch of the affine identity plus total PSD violation."""
    masks = coefficient_masks(blocks.grid, target.nodes)
    cexp = expand_masks(masks, target.block)
    stack = blocks.stacked()
    if stack.shape != cexp.shape:
        raise ValidationError("blocks do not conform to target/grid shapes")
    mismatch = np.linalg.norm(np.einsum("mij,mij->ij", cexp, stack) - target.matrix)
    lam = min_eigenvalue_stack(stack)
    return float(mismatch - lam[lam < 0].sum())


def solve(
    target: FeasibilityTarget,
    grid: AlphaGrid,
    opts: SolveOptions = SolveOptions(),
) -> SolveReport:
    """Decide grid feasibility of the target; see module docstring.

    Feasible reports carry the witness blocks with residual <= tol.
    InfeasibleCertified reports carry a grid-admissible kernel certificate.
    Deterministic given (target, grid, opts).
    """
    t0 = time.perf_counter()
    masks = coefficient_masks(grid, target.nodes)  # raises if a node leaves the disk
    cexp = expand_masks(masks, target.block)

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

    j = target.matrix
    cconj = cexp.conj()
    cdiag = float(np.real(np.diagonal(cexp, axis1=1, axis2=2)).min())
    jnorm = _norm(j)
    trj = float(np.trace(j).real)
    notes: list[str] = []
    y = np.zeros_like(j)
    b, grad, theta, lam, vecs = _dual_point(j, cexp, cconj, y)
    res = _norm(grad)
    best_res, best_b = res, b
    history = [res]  # best residual after each step
    polish_end = None
    it = 0
    while True:
        if polish_end is None and res <= opts.tol:
            polish_end = it + _POLISH_STEPS
            notes.append(f"tolerance met at step {it}; polishing")
        ny = _norm(y)
        if polish_end is None:
            cert = _dual_certificate(
                target, masks, y, ny, float(lam[:, -1].max()), cdiag, trj, opts
            )
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
        elif res <= _POLISH_TOL or it >= polish_end:
            break
        if it >= opts.max_iter:
            break
        it += 1

        shift = res / ny * (res / jnorm) ** _MU_EXPONENT if ny > 0 else math.inf
        mu = min(max(shift, _MU_RANGE[0]), _MU_RANGE[1])
        v = _dense_hessian(cexp, lam, vecs)
        v.flat[:: grad.size + 1] += mu
        d = hermitian_part(np.linalg.solve(v, grad.ravel()).reshape(grad.shape))
        slope = float(np.vdot(grad, d).real)
        if ny == 0.0:
            step, (b_t, grad_t, theta_t, lam_t, vecs_t) = _ray_step(j, cexp, cconj, d, slope)
            res_t = _norm(grad_t)
        else:

            def at(s):
                point = _dual_point(j, cexp, cconj, y + s * d)
                return point[2], _norm(point[1]), point

            found = _line_search(at, theta, slope, res, 1e-13 * (1.0 + jnorm * ny))
            if found is None:
                notes.append(f"line search failed at step {it}")
                break
            step, (b_t, grad_t, theta_t, lam_t, vecs_t), res_t = found
        y = y + step * d
        b, grad, theta, res, lam, vecs = b_t, grad_t, theta_t, res_t, lam_t, vecs_t
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


def _norm(a):
    """Frobenius norm as sqrt(Re<a, a>), one BLAS call."""
    return math.sqrt(np.vdot(a, a).real)


def _dual_point(j, cexp, cconj, y):
    """P+(conj(C_m) . Y), the gradient J - sum C_m . B_m, theta(Y), and the eigenpairs.

    ``cconj`` is conj(C_m).  The masks and every dual iterate are exactly
    Hermitian, so their Schur product is too, as psd_project_stack requires.
    """
    b, lam, vecs = psd_project_stack(cconj * y)
    grad = j - np.einsum("mij,mij->ij", cexp, b)
    theta = float(np.vdot(j, y).real - 0.5 * np.vdot(b, b).real)
    return b, grad, theta, lam, vecs


def _ray_step(j, cexp, cconj, d, slope):
    """Exact line search from Y = 0 along d: the step s and the dual point at s d.

    At Y = 0 the generalized Hessian vanishes, so d is J / mu, a step that
    backtracking would halve about eight times.  P+ is positively homogeneous,
    so theta(s d) = s slope - s^2 q / 2, slope = Re<J, d> and
    q = sum_m ||P+(conj(C_m) . d)||^2: the one dual point at d scales to the
    one at the maximizer s = slope / q.  When q = 0, theta grows without bound
    along d, and the full step is taken, as backtracking would take it.
    """
    b, grad, theta, lam, vecs = _dual_point(j, cexp, cconj, d)
    q = float(np.vdot(b, b).real)
    if q == 0.0:
        return 1.0, (b, grad, theta, lam, vecs)
    s = slope / q
    return s, (s * b, j - s * (j - grad), 0.5 * s * slope, s * lam, vecs)


def _line_search(at, value, slope, res, noise):
    """Armijo backtracking along an ascent direction: (step, point, residual), or None.

    at(s) returns (value, residual, point) at step s.  A step is accepted on
    sufficient increase, or, where the value's change is below its roundoff
    ``noise``, on a lower residual.  None once the step falls below 1e-10.
    """
    step = 1.0
    while step >= 1e-10:
        value_t, res_t, point = at(step)
        if value_t >= value + _ARMIJO * step * slope:
            return step, point, res_t
        if res_t < res and value_t >= value - noise:
            return step, point, res_t
        step *= 0.5
    return None


def _omega(lam):
    """Divided differences of max(lam, 0) over each stack of eigenvalues.

    1 on pairs of positive eigenvalues, 0 on pairs of non-positive ones,
    lam_+ / (lam_i - lam_j) across the sign change.
    """
    pos = lam > 0
    lp = np.maximum(lam, 0.0)
    out = (pos[:, :, None] & pos[:, None, :]).astype(float)
    return np.divide(
        lp[:, :, None] - lp[:, None, :],
        lam[:, :, None] - lam[:, None, :],
        out=out,
        where=pos[:, :, None] ^ pos[:, None, :],
    )


def _dense_hessian(cexp, lam, vecs):
    """The generalized Hessian as one N^2 x N^2 matrix acting on row-major vec(H).

    V = sum_m E_m diag(vec Omega_m) E_m* with
    E_m[(i, j), (a, b)] = C_m(i, j) U_m(i, a) conj(U_m(j, b)), where
    conj(C_m) . Y = U_m diag(lam_m) U_m* and Omega_m = _omega(lam)[m]: the
    operator H -> sum_m C_m . (U_m (Omega_m . (U_m* (conj(C_m) . H) U_m)) U_m*).
    The atoms of a chunk are laid side by side, so its sum over m is one
    matrix product; a chunk holds at most _HESSIAN_CHUNK_ENTRIES entries of E.
    """
    n = lam.shape[1]
    omega = _omega(lam)
    step = max(1, _HESSIAN_CHUNK_ENTRIES // n**4)
    v = None
    for lo in range(0, len(lam), step):
        c, u, w = cexp[lo : lo + step], vecs[lo : lo + step], omega[lo : lo + step]
        e = np.einsum("mij,mia,mjb->ijmab", c, u, u.conj()).reshape(n * n, -1)
        term = (e * w.ravel()) @ e.conj().T
        v = term if v is None else v + term
    return v


def _dual_certificate(target, masks, y, ny, lam_max, cdiag, trj, opts):
    """Grid-admissible kernel from the ascent direction -Y / ||Y||, if it certifies.

    ``masks`` are the grid's coefficient masks, ``ny`` is ||Y||, ``lam_max``
    the largest eigenvalue over m of conj(C_m) . Y, ``trj`` the trace of J.
    Shifting D = -Y / ||Y|| by t I,
    t = max(0, lam_max / ||Y||) / min C_m(i, i), makes every conj(C_m) . D'
    PSD.  Blocks with sum C_m . B_m = J + R then give
    Re<J + R, D'> = sum Re<B_m, conj(C_m) . D'> >= 0, so
    -Re<J, D'> > tol ||D'|| rules out every witness of residual <= tol.  As
    -Re<J, D'> = Re<J, Y> / ||Y|| - t tr J, most iterates fail before D' is
    built.  D' is compressed to n x n by block-diagonal congruences, which
    keep every conj(C_m) . D' PSD because C_m is constant on blocks: the block
    trace and, when block > 1, the top eigenvector of each diagonal block.
    The second recovers K exactly when D' = (conj(K) (x) 1) . x x*, where the
    trace can average the violation away: a block target on diagonal nodes
    that a b-kernel violates diverges along nearly such a D'.  Each kernel
    K = conj(compression) is rescaled and re-verified.
    """
    if ny == 0.0:
        return None
    shift = max(0.0, lam_max / ny) / cdiag
    if np.vdot(target.matrix, y).real / ny <= shift * trj:
        return None
    dual = -y / ny + shift * np.eye(len(y))
    if -np.vdot(target.matrix, dual).real <= opts.tol * _norm(dual):
        return None
    for k in _compressions(dual, len(target.nodes), target.block):
        kern = _admissible_kernel(target.nodes, masks, k.conj(), opts.tol)
        cert = None if kern is None else _violation(target, kern, opts)
        if cert is not None:
            return cert
    return None


def _compressions(dual, n, d):
    """n x n compressions of an N x N dual by block-diagonal congruences.

    The block trace and, when d > 1, the top eigenvector of each diagonal
    block; both keep every conj(C_m) . dual PSD, because C_m is constant on
    blocks.
    """
    blocks = dual.reshape(n, d, n, d)
    out = [blocks.trace(axis1=1, axis2=3)]
    if d > 1:
        v = np.linalg.eigh(blocks[np.arange(n), :, np.arange(n), :])[1][:, :, -1]
        out.append(np.einsum("ia,iajb,jb->ij", v.conj(), blocks, v))
    return out


def _single_atom_witness(target, grid, cexp, opts):
    """Closed-form witness concentrated at one grid alpha, when one exists.

    C_m . B = J is solved exactly by B = J / C_m entrywise; whenever that
    quotient is PSD the problem is feasible with zero residual, a geometry
    an iterative method approaches only asymptotically (every other block
    sits on the cone boundary).
    """
    j = target.matrix
    scale = max(1.0, float(np.abs(j).max(initial=0.0)))
    cands = hermitian_part(j / cexp)
    atoms = np.flatnonzero(np.linalg.eigvalsh(cands)[:, 0] >= -1e-12 * scale)
    if atoms.size == 0:
        return None
    # residual() of B at each such atom and zeros elsewhere, B = the PSD
    # projection of the quotient; einsum and the per-atom norm round as
    # residual() does
    bs = hermitian_part(psd_project_stack(cands[atoms])[0])
    mismatch = np.einsum("kij,kij->kij", cexp[atoms], bs) - j
    res = np.array([np.linalg.norm(r) for r in mismatch])
    res -= np.minimum(np.linalg.eigvalsh(bs)[:, 0], 0.0)
    # the smallest residual within tol, the first atom on a tie
    k = int(np.argmin(np.where(res <= opts.tol, res, np.inf)))
    if not res[k] <= opts.tol:
        return None
    stack = np.zeros_like(cexp)
    stack[atoms[k]] = bs[k]
    return CPBlocks(grid=grid, blocks=tuple(stack)), float(res[k])


def _admissible_kernel(nodes, masks, k, tol) -> KernelMatrix | None:
    """Unit-diagonal rescale of k, when it is grid-admissible.

    ``masks`` are the grid's coefficient masks, which the caller already holds.
    The rescale is grammian_normalize's and the test admissibility_check's,
    bit for bit.
    """
    k = hermitian_part(k)
    if np.any(np.real(np.diag(k)) <= 1e-14):
        k = k + 1e-12 * np.eye(k.shape[0])
    if not np.all(np.real(np.diag(k)) > 0.0):  # grammian_normalize raises: no kernel
        return None
    g = unit_diagonal(k)
    if not min_eigenvalue_stack(masks * g).min() >= -tol:
        return None
    return KernelMatrix(nodes=nodes, matrix=g)


def _violation(target, kern, opts) -> tuple[KernelMatrix, float] | None:
    """(kern, lambda_min(J . K)) when the kernel violates the target by tol."""
    lam = min_eigenvalue(schur_oslash(target.matrix, kern.matrix, target.block, 1))
    if lam > -opts.tol:
        return None
    return kern, lam


class _HermitianBasis:
    """A real orthonormal basis Q of the n x n Hermitian matrices, on row-major vec.

    Its n^2 elements are e_ii, and (e_ij + e_ji) / sqrt 2 and
    i (e_ij - e_ji) / sqrt 2 for i < j; Q is unitary.
    """

    root_half = math.sqrt(0.5)

    def __init__(self, n):
        i, j = np.triu_indices(n, 1)
        self.n, self.diag, self.up, self.low = n, np.arange(n) * (n + 1), i * n + j, j * n + i

    def rows(self, w):
        """Q* w, over the leading axis of w (real for a Hermitian vec w)."""
        up, low, r = w[self.up], w[self.low], self.root_half
        return np.concatenate([w[self.diag], r * (up + low), -1j * r * (up - low)])

    def matrix(self, v):
        """Re(Q* V Q): real symmetric, and positive definite when V is."""
        return self.rows(self.rows(v).conj().T).real

    def hermitian(self, x):
        """The Hermitian matrix Q x of real coordinates x, exactly Hermitian."""
        n, k = self.n, len(self.up)
        out = np.empty(n * n, dtype=complex)
        out[self.diag] = x[:n]
        out[self.up] = self.root_half * (x[n : n + k] + 1j * x[n + k :])
        out[self.low] = out[self.up].conj()
        return out.reshape(n, n)


@functools.cache
def _hermitian_basis(n):
    """_HermitianBasis(n), built once per size."""
    return _HermitianBasis(n)


def _hkm_schur(cexp, b, sinv):
    """sum_m diag(vec C_m)(B_m (x) S_m^-T)diag(vec conj(C_m)), an N^2 x N^2 matrix.

    It acts on row-major vec(dZ) as dZ -> sum_m C_m . (B_m (conj(C_m) . dZ) S_m^-1),
    and is Hermitian positive definite when every B_m and S_m is.  Its sum
    over m is taken in chunks of atoms whose Kronecker products hold at most
    _HESSIAN_CHUNK_ENTRIES entries.
    """
    n = b.shape[1]
    sinv_t = sinv.transpose(0, 2, 1)
    step = max(1, _HESSIAN_CHUNK_ENTRIES // n**4)
    v = None
    for lo in range(0, len(b), step):
        c = cexp[lo : lo + step].reshape(-1, n * n)
        kron = b[lo : lo + step, :, None, :, None] * sinv_t[lo : lo + step, None, :, None, :]
        term = np.einsum("ma,mab,mb->ab", c, kron.reshape(len(c), n * n, n * n), c.conj())
        v = term if v is None else v + term
    return v


def _interior_start(t_w, witness, szego, safe):
    """(t, B): the witness of t_w E - G moved strictly inside the PSD cone.

    ``szego`` holds Sz_m (x) I = E / C_m for every atom m, and ``safe`` the
    atoms where it is safely positive definite.  B_m gains
    eps (Sz_m (x) I), eps = _START_SZEGO t_w, at the safe atoms, and
    C_m . (Sz_m (x) I) = E, so t = t_w + |safe| eps keeps
    t E - G = sum_m C_m . B_m to roundoff.  The other atoms gain
    _START_SHIFT t_w I, which leaves a residual of their diagonal masks.
    """
    eps = _START_SZEGO * t_w
    b = witness + _START_SHIFT * t_w * np.eye(witness.shape[1])
    b[safe] = witness[safe] + eps * szego[safe]
    return t_w + len(safe) * eps, b


def _conic_minimum(nodes, grid, g, block, gap, opts):
    """(lo, t, blocks) with lo <= sqrt(t*) <= sqrt(t) <= lo + gap, for the conic program

        t* = min t  subject to  t E - G = sum_m C_m . B_m,  B_m PSD,

    E = 1 (x) I_block and G Hermitian PSD whose largest diagonal-block
    eigenvalue is 1, so t* >= 1.  ``blocks`` witnesses t: the affine identity
    holds and the blocks are PSD up to roundoff.

    Its dual is  max Re<G, Z>  subject to  Re<E, Z> = 1,  S_m = conj(C_m) . Z PSD,
    and any witness (t, B) and dual Z give
    t - Re<G, Z> = sum_m Re<B_m, S_m> >= 0.  An infeasible primal-dual
    path-following method drives (t, B, Z) to the optimal pair along the HKM
    direction (Helmberg, Rendl, Vanderbei & Wolkowicz, SIAM J. Optim. 1996)
    with Mehrotra's predictor-corrector (SIAM J. Optim. 1992).  Linearizing
    B_m S_m = nu I as dB_m = K_m - B_m - sym(B_m dS_m S_m^-1),
    dS_m = conj(C_m) . dZ, turns the primal identity into
    H(dZ) + dt E = G - t E + sum_m C_m . K_m, with Re<E, dZ> = 1 - Re<E, Z>.
    H = sum_m diag(vec C_m)(B_m (x) S_m^-T)diag(vec conj(C_m)) (_hkm_schur)
    is real symmetric positive definite in a real orthonormal basis of the
    Hermitian matrices (_HermitianBasis); bordered by the t row, the system
    is solved by LU.  The predictor has K_m = 0.  Its longest steps to the PSD
    boundary give the complementarity nu_aff they would reach, from
    nu = sum_m Re<B_m, S_m> / (M N), and the corrector has
    K_m = sym((sigma nu I - dB_m dS_m) S_m^-1), sigma = (nu_aff / nu)^3, dB and
    dS the predictor's.  The primal (t, B) and the dual Z then each take
    _STEP_FRACTION of the corrector's step to the PSD boundary, at most 1.
    Each step to the boundary is one stacked eigvalsh, whitened by one
    Cholesky factorization of the stacked [B; S] per iteration; the basis,
    the t border of the system and its right-hand side are built once per
    solve.

    The start is feasible on both sides.  The dual starts at Z = I / N, where
    Re<E, Z> = 1 and every S_m is diagonal and positive.  The primal starts
    from the single-atom witness (t_w, W) that repair builds from B = 0:
    W_k is PSD, but singular, and every other W_m is 0.  As
    C_m . (Sz_m (x) I) = E exactly (Sz_m below), B_m = W_m + eps (Sz_m (x) I)
    at every atom m whose Sz_m is safely positive definite, with
    t = t_w + eps times their number, still satisfies t E - G = sum_m C_m . B_m
    to roundoff, and every such B_m is positive definite (_interior_start).
    A Newton step keeps a linear identity that already holds, so no
    iteration is spent restoring it.  The atoms where Sz_m is not safe get
    _START_SHIFT t_w I instead, and leave a residual.

    The iterate's t is no upper end (its primal identity holds only to
    roundoff, and only in the limit when an atom is not safe), nor its Z a
    rigorous lower one (S_m is PSD only to roundoff).  Once
    |sqrt(t) - sqrt(Re<G, Z> / Re<E, Z>)| <= gap, both ends are taken from it,
    and kept where they tighten:

    * t: E = C_k . (Sz_k (x) I) at every atom k, Sz_k = 1 / C_k being the
      Szego kernel of phi(alpha_k, .).  So adding R / C_k + eps (Sz_k (x) I)
      to B_k, R = t E - G - sum_m C_m . B_m the residual, gives a witness at
      t + eps, eps = max(0, -lambda_min) of B_k + R / C_k relative to
      Sz_k (x) I, at the atom of least eps among those where Sz_k is safely
      positive definite.  A direct eigensolve of the repaired block then adds
      what the whitening by Sz_k rounded away.  From B = 0 and t = 1 this is
      the best single-atom witness.
    * lo: Z' = Z + s I, s = max(0, -min_m lambda_min(conj(C_m) . Z)) / min C_m(i, i)
      (kernels.admissible_shift), makes every conj(C_m) . Z' PSD.  Any
      witness (t, B) then gives
      t Re<E, Z'> - Re<G, Z'> = sum_m Re<B_m, conj(C_m) . Z'> >= 0, so
      lo = sqrt(Re<G, Z'> / Re<E, Z'>) when Re<E, Z'> > 0: the dual objective
      of the iterate, or the kernel conj(Z') tested on the all-ones vector.

    opts.max_iter caps the interior-point iterations; opts.tol is not read
    here (the caller re-verifies the witness to it).  NumericsError when no
    atom's Sz_k is safely positive definite, so that no witness can be
    repaired; when the bracket has not closed within the budget; or when the
    iterate stalls: it is no longer numerically interior (a factorization
    fails), or neither step reaches _MIN_STEP.
    The widths it names are those of sqrt(t), relative to the targets' scale.
    """
    n = len(nodes)
    dim = n * block
    ee = np.kron(np.ones((n, n)), np.eye(block))
    cexp = expand_masks(coefficient_masks(grid, nodes), block)
    cconj = cexp.conj()
    szego = hermitian_part(ee / cexp)  # Sz_k (x) I
    lam_s, vec_s = np.linalg.eigh(szego)
    safe = np.flatnonzero(lam_s[:, 0] > _SZEGO_FLOOR * lam_s[:, -1])
    if safe.size == 0:
        raise NumericsError(
            "minimal-norm bracket has no upper end: no grid atom's Szego kernel is"
            " safely positive definite at these nodes, so no witness can be repaired"
        )
    whiten = vec_s[safe] / np.sqrt(lam_s[safe])[:, None, :]  # Sz_k^(-1) = W W*

    def repair(t, b):
        """(t + eps, blocks): the witness of t E - G repaired at the best safe atom."""
        r = t * ee - g - np.einsum("mij,mij->ij", cexp, b)
        x = hermitian_part(b[safe] + r / cexp[safe])
        rel = whiten.conj().transpose(0, 2, 1) @ x @ whiten
        eps = np.maximum(-np.linalg.eigvalsh(rel)[:, 0], 0.0)
        i = int(np.argmin(eps))
        k, e = int(safe[i]), float(eps[i])
        low = float(np.linalg.eigvalsh(x[i] + e * szego[k])[0])
        e += max(0.0, -low) / float(lam_s[k, 0])  # Weyl: now PSD up to roundoff
        out = b.copy()
        out[k] = x[i] + e * szego[k]
        return t + e, out

    def lower(y):
        """sqrt(Re<G, Z> / Re<E, Z>) at Z = Y + s I, or 0 when Re<E, Z> <= 0.

        s = admissible_shift(conj(C), Y), the shift that also places the
        draws of random_admissible_kernel.
        """
        z = y + admissible_shift(cconj, y) * np.eye(len(y))
        ez = float(np.vdot(ee, z).real)
        return math.sqrt(max(0.0, float(np.vdot(g, z).real)) / ez) if ez > 0.0 else 0.0

    lo = 1.0  # forced by the diagonal blocks
    hi2, witness = repair(1.0, np.zeros_like(cexp))
    t, b = _interior_start(hi2, witness, szego, safe)
    z = np.eye(dim) / dim

    def bracket():
        """Both ends from the iterate (t, b, z), kept where they tighten; the width."""
        nonlocal lo, hi2, witness
        cand, blocks = repair(t, b)
        if cand < hi2:
            hi2, witness = cand, blocks
        lo = max(lo, lower(z))
        return math.sqrt(hi2) - lo

    basis = _hermitian_basis(dim)
    kkt = np.zeros((dim * dim + 1,) * 2)  # the Schur complement bordered by the t row
    kkt[:-1, -1] = kkt[-1, :-1] = basis.rows(ee.ravel()).real
    rhs = np.empty(len(kkt))
    m, size = len(cexp), len(cexp) * dim
    it = 0
    while True:
        ez = float(np.vdot(ee, z).real)
        estimate = math.sqrt(t) - math.sqrt(max(0.0, float(np.vdot(g, z).real)) / ez)
        if abs(estimate) <= gap or it == opts.max_iter:
            bracket()
        if math.sqrt(hi2) - lo <= gap:
            return lo, hi2, witness
        if it == opts.max_iter:
            raise NumericsError(
                f"minimal-norm bracket not closed in {opts.max_iter} interior-point"
                f" iterations: relative width {math.sqrt(hi2) - lo:.3e} > {gap:.3e}"
            )
        it += 1
        try:
            s = cconj * z
            linv = np.linalg.inv(np.linalg.cholesky(np.concatenate([b, s])))
            linv_h = linv.conj().transpose(0, 2, 1)
            sinv = linv_h[m:] @ linv[m:]
            nu = float(np.vdot(b, s).real) / size
            kkt[:-1, :-1] = basis.matrix(_hkm_schur(cexp, b, sinv))
            rhs[-1] = 1.0 - ez

            def direction(r):
                """(dt, dz, ds) solving the bordered system for the primal right side r."""
                rhs[:-1] = basis.rows(r.ravel()).real
                sol = np.linalg.solve(kkt, rhs)
                dz = basis.hermitian(sol[:-1])
                return float(sol[-1]), dz, cconj * dz

            def steps(db, ds, fraction):
                """min(1, fraction times the step to the PSD boundary) along db and along ds."""
                d = np.concatenate([db, ds])
                lam = np.linalg.eigvalsh(linv @ d @ linv_h)[:, 0]
                lows = (-float(lam[:m].min()), -float(lam[m:].min()))
                return tuple(1.0 if low <= fraction else fraction / low for low in lows)

            base = g - t * ee
            _, _, ds_a = direction(base)
            db_a = -b - hermitian_part(b @ ds_a @ sinv)
            ap, ad = steps(db_a, ds_a, 1.0)
            nu_aff = float(np.vdot(b + ap * db_a, s + ad * ds_a).real) / size
            sigma = (nu_aff / nu) ** 3
            k = hermitian_part(sigma * nu * sinv - db_a @ ds_a @ sinv)
            dt, dz, ds = direction(base + np.einsum("mij,mij->ij", cexp, k))
            db = k - b - hermitian_part(b @ ds @ sinv)
            ap, ad = steps(db, ds, _STEP_FRACTION)
        except np.linalg.LinAlgError:
            ap = ad = 0.0  # the iterate is not numerically interior: no step is left
        if max(ap, ad) < _MIN_STEP:
            raise NumericsError(
                f"minimal-norm bracket stalled at relative width {bracket():.3e} > {gap:.3e}"
            )
        t, b, z = t + ap * dt, b + ap * db, z + ad * dz
