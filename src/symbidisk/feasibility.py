"""Semidefinite feasibility core.

Decides whether a Hermitian node-indexed target J splits as

    J = sum_m C_m . B_m,      C_m(i, j) = 1 - phi(alpha_m, i) conj(phi(alpha_m, j)),

with every B_m PSD, where "." scales block (i, j) of B_m by the scalar
C_m(i, j).  This is the finite, grid-atomic form of representing J against
the coordinate family, and a witness is exactly the data the realization
builder needs.

Both questions this module answers are one linear conic program and its dual,

    t* = min t  subject to  t E - G = sum_m C_m . B_m,  B_m PSD,
         max Re<G, Z>  subject to  Re<E, Z> = 1,  conj(C_m) . Z PSD,

E = 1 (x) I_block, solved by one primal-dual interior-point method: one
sequence of iterates, _Conic.path, whose start and centering it describes.
Pick minimal norms take G = W W* and stop once the iterates bracket t*
(_conic_minimum).  Feasibility takes G = E - J (J equilibrated), and J is
grid-feasible exactly when t* <= 1; it stops at a witness or a certificate:

* E = C_k . (Sz_k (x) I) at every atom k, Sz_k = 1 / C_k being the Szego
  kernel of phi(alpha_k, .), which is PSD.  So a primal point (t, B) with
  t <= 1 becomes a witness for J once (1 - t)(Sz_k (x) I) is added to B_k;
  nothing is inverted.
* Infeasibility is certified by a grid-admissible kernel K whose Schur
  product with J has a negative eigenvalue: any exact witness would force
  J . K = sum_m B_m . (C_m . K) to be PSD term by term, so a violating K and
  a witness cannot coexist on the same grid.  A dual point Z whose objective
  passes 1 has Re<J, Z> < 0, and once shifted by kernels.admissible_shift,
  K = conj(Z) is such a kernel: the dual iterate is the certificate.  For
  block targets Z is N x N, and each iterate gives one n x n kernel: the
  one compression of Z by the top eigenvector of each diagonal block.  A
  kernel may violate J before the objective passes 1, as the start's
  identity does for any J with a negative diagonal entry, so solve tests
  the kernel of every iterate.

When neither appears (see solve), the honest terminal status is Unknown;
the exact dichotomy holds only for the full alpha continuum, not the grid.
One iteration assembles an N^2 x N^2 Schur complement in O(M N^4) flops,
N = n * block.
"""

from __future__ import annotations

import functools
import math
import numbers
import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import NumericsError, ValidationError
from .geometry import phi_values
from .hermitian import (
    hermitian_basis,
    hermitian_part,
    min_eigenvalue,
    min_eigenvalue_stack,
    # Unused here, but kept bound: bench/test_bench.py::
    # test_install_wraps_every_binding_and_uninstall_restores asserts that the
    # tracer wraps this binding and restores it.
    psd_project_stack,  # noqa: F401
)
from .kernels import (
    AlphaGrid,
    KernelMatrix,
    NodeSet,
    _masks,
    admissibility_check,
    admissible_shift,
    coefficient_masks,
    expand_masks,
    grammian_normalize,
    szego_pullbacks,
)

# Largest N = n * block a target may have; it bounds scalar Pick nodes,
# sequence truncations and n * d of matrix Pick and corona problems.  An
# iteration builds an N^2 x N^2 Schur complement in O(M N^4) flops and solves
# it by LU in O(N^6): on the 9-atom grid (one BLAS thread, 2-vCPU Xeon VM) in
# 6 ms at N = 16, 13 ms at N = 20, 27 ms at N = 24 and 0.1 s at N = 32.
# Planted targets at N = 20 (tests/test_pick.py::planted_problem, seeds 0-2,
# no Szego-safe atom) are decided in 17 iterations, 0.28 CPU-s each.  Raising
# the cap is an input contract change and waits for planted targets above 20.
MAX_TARGET_DIM = 20
# Largest modulus a target entry may have: where residual(), taken on J
# itself, once overflowed.  On the equilibrated D J D, 6-node Pick and scaled
# corona targets are decided at iteration 0 up to |J| = 1e300 with the cap
# lifted; raising it waits for the CLI's audits to be measured there.
MAX_TARGET_ENTRY = 1e150
# The interior-point iterations take this fraction of the step to the PSD
# boundary.
_STEP_FRACTION = 0.95
# The interior-point method starts from the single-atom witness at t_w moved
# strictly inside the cone: by _START_SZEGO t_w (Sz_m (x) I) at every
# Szego-safe atom m, which keeps the primal identity to roundoff, and by
# _START_SHIFT t_w I at the others, whose singular Sz_m would fail the first
# Cholesky factorization.  At 0.03 the sandwich item of tests/test_pick.py
# takes 7 iterations and its two budget items 9 each; 0.01-0.02 took a budget
# item to 10, and 0.05-0.3 the sandwich item to 8.  On the sandwich census
# (tools/conic_census.py --seeds 33001 33040) the iterations fell
# 12765 -> 11271 against the witness + _START_SHIFT t_w I at every atom.
_START_SZEGO = 0.03
_START_SHIFT = 3e-3
# Steps below this on both sides leave the iterate where it is, and so would
# every later one: the interior-point method has stalled.
_MIN_STEP = 1e-10
# Witnesses are repaired only at atoms whose Szego kernel Sz_k is safely
# positive definite, lambda_min(Sz_k) > _SZEGO_FLOOR lambda_max(Sz_k).  Two
# nodes with the same phi(alpha_k, .) make Sz_k singular: at alpha = 0, where
# phi = -s / 2, every pair of nodes with equal s does.
_SZEGO_FLOOR = 1e-12


class SolveStatus(str, Enum):
    FEASIBLE = "Feasible"
    INFEASIBLE_CERTIFIED = "InfeasibleCertified"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class SolveOptions:
    tol: float = 1e-8
    max_iter: int = 20000  # interior-point iterations

    def __post_init__(self):
        if not (isinstance(self.tol, numbers.Real) and 0.0 <= self.tol < math.inf):
            raise ValidationError(f"field 'tol' must be a finite number >= 0, got {self.tol!r}")
        if not isinstance(self.max_iter, numbers.Integral) or self.max_iter < 0:
            raise ValidationError(f"field 'max_iter' must be an integer >= 0, got {self.max_iter}")


@dataclass(frozen=True)
class FeasibilityTarget:
    """Hermitian node-indexed target; block (i, j) must equal block (j, i)*.

    ``equilibration``, D, scales each row by the power of two that takes a
    diagonal entry of modulus >= 4 into [1, 4).  solve and residual() work on
    D J D: its witnesses are D B_m D, and its certificates are J's.  So
    self-adjointness is tested on D J D too, where a small node's block is
    not hidden beside a large one's.
    """

    nodes: NodeSet
    matrix: np.ndarray
    block: int = 1
    equilibration: np.ndarray = field(init=False, repr=False, compare=False)

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
        size = np.maximum(1.0, np.abs(np.diag(m).real))
        object.__setattr__(self, "equilibration", np.ldexp(1.0, -((np.frexp(size)[1] - 1) // 2)))
        dj = m * np.outer(self.equilibration, self.equilibration)
        if np.abs(dj - dj.conj().T).max() > 1e-10 * max(1.0, np.abs(dj).max()):
            raise ValidationError("target is not self-adjoint")
        object.__setattr__(self, "matrix", hermitian_part(m))


@dataclass(frozen=True)
class CPBlocks:
    """One PSD block per grid alpha, stacked (M, N, N); the discretized representation data."""

    grid: AlphaGrid
    blocks: np.ndarray

    def __post_init__(self):
        if len(self.blocks) != len(self.grid):
            raise ValidationError("need exactly one block per grid alpha")


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
    """Frobenius mismatch of the affine identity plus total PSD violation, on D J D."""
    masks = coefficient_masks(blocks.grid, target.nodes)
    cexp = expand_masks(masks, target.block)
    if blocks.blocks.shape != cexp.shape:
        raise ValidationError("blocks do not conform to target/grid shapes")
    dd = np.outer(target.equilibration, target.equilibration)
    return _residual(cexp, target.matrix * dd, blocks.blocks * dd)


def _residual(cexp, j, stack):
    """residual() of the blocks ``stack`` for J = ``j`` on the expanded masks ``cexp``."""
    mismatch = np.linalg.norm(np.einsum("mij,mij->ij", cexp, stack) - j)
    lam = min_eigenvalue_stack(stack)
    return float(mismatch - lam[lam < 0].sum())


def solve(
    target: FeasibilityTarget,
    grid: AlphaGrid,
    opts: SolveOptions = SolveOptions(),
) -> SolveReport:
    """Decide grid feasibility of the target; see module docstring.

    Runs _Conic.path on G = E - D J D, D = target.equilibration, which
    takes a node's scale out of J.  Iteration 0 is its start, the best
    single-atom witness with the dual Z = I / N, whose kernel is the
    identity.  Each iterate (t, B, Z) ends the solve:

    * Feasible once the blocks B_m, with (1 - t)+ (Sz_k (x) I) added at the
      atom whose Sz_k is best conditioned, have residual() <= tol on D J D.
      Mapped back to D^-1 B_m D^-1, they are the report's witness.
    * InfeasibleCertified once the one compression (_compression) of the
      shifted dual iterate Z' (_Conic.shifted), normalized to a unit
      diagonal, is a kernel K that violates D J D by tol and is
      grid-admissible.  As D <= 1, min eig(J . K) (the report's
      certificate_min_eig) is no larger.  Every iterate offers this one
      kernel; its violation (one N x N eigensolve) is tested before its
      admissibility (the masks and M eigensolves).
    * Unknown when the path ends without either: after opts.max_iter steps
      ("budget spent"), or earlier, because a step stalled.

    The report's residual is residual() of the blocks at the last iterate.
    Deterministic given (target, grid, opts).
    """
    t0 = time.perf_counter()
    nodes, n, d = target.nodes, len(target.nodes), target.block
    dd = np.outer(target.equilibration, target.equilibration)
    j = target.matrix * dd
    core = _Conic(nodes, grid, d)
    best = int(np.argmax(core.lam_s[:, 0] / core.lam_s[:, -1]))

    def certificate(z):
        raw = KernelMatrix(nodes, _compression(core.shifted(z), n, d).conj())
        try:
            kern = KernelMatrix(nodes, grammian_normalize(raw))
        except ValidationError:  # a vanishing diagonal: no kernel
            return None
        lam = min_eigenvalue(j * expand_masks(kern.matrix, d))
        if lam > -opts.tol or not admissibility_check(kern, grid, opts.tol):
            return None
        return kern

    for it, (t, b, z) in enumerate(core.path(core.ee - j, opts.max_iter)):
        blocks = b.copy()
        blocks[best] += max(0.0, 1.0 - t) * core.szego[best]
        res = _residual(core.cexp, j, blocks)
        if res <= opts.tol or (cert := certificate(z)) is not None:
            break
    status, fields = SolveStatus.UNKNOWN, {}
    if res <= opts.tol:
        status, fields = SolveStatus.FEASIBLE, {"blocks": CPBlocks(grid, blocks / dd)}
        notes = ("single-atom witness",) if it == 0 else ()
    elif cert is not None:
        status = SolveStatus.INFEASIBLE_CERTIFIED
        lam = min_eigenvalue(target.matrix * expand_masks(cert.matrix, d))
        fields = {"certificate": cert, "certificate_min_eig": lam}
        notes = (f"certified by the dual iterate at iteration {it}",)
    else:
        notes = ("budget spent" if it == opts.max_iter else f"stalled at iteration {it}",)
    return SolveReport(status, res, it, time.perf_counter() - t0, notes=notes, **fields)


def _compression(dual, n, d):
    """The one n x n compression of an N x N dual: its congruence by a unit vector per block.

    Each vector is the top eigenvector of its diagonal block, so the kernel's
    diagonal is the blocks' largest eigenvalues.  The congruence keeps every
    conj(C_m) . dual PSD, because C_m is constant on blocks.  At d = 1 the
    blocks are 1 x 1 and the dual is its own compression.
    """
    if d == 1:
        return dual
    blocks = dual.reshape(n, d, n, d)
    v = np.linalg.eigh(blocks[np.arange(n), :, np.arange(n), :])[1][:, :, -1]
    return np.einsum("ia,iajb,jb->ij", v.conj(), blocks, v)


def _hkm_schur(rows, cols, b, sinv):
    """sum_m diag(vec C_m)(B_m (x) S_m^-T)diag(vec conj(C_m)), an N^2 x N^2 matrix.

    It acts on row-major vec(dZ) as dZ -> sum_m C_m . (B_m (conj(C_m) . dZ) S_m^-1),
    and is Hermitian positive definite when every B_m and S_m is.  Its entry
    ((i, j), (k, l)) is sum_m C_m(i, j) conj(C_m(k, l)) B_m(i, k) S_m^-1(l, j), and as
    C_m(i, j) = sum_x a_x(i) c_x(j), a = (1, -u), c = (1, conj(u)), u = phi(alpha_m, .),
    it is one (N^2 x 4M)(4M x N^2) product, permuted, of the ``rows`` a_x(i) conj(a_y(k))
    times B_m(i, k) and the ``cols`` c_x(j) conj(c_y(l)) times S_m^-1(l, j), over (m, x, y).
    """
    n = b.shape[1]
    p = (rows * b[:, None]).reshape(-1, n * n)
    q = (cols * sinv.transpose(0, 2, 1)[:, None]).reshape(-1, n * n)
    return (p.T @ q).reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)


class _Conic:
    """min t subject to t E - G = sum_m C_m . B_m, B_m PSD, and its dual; set up once.

    Holds what every iteration reads, whatever G (the methods take it): E,
    the masks C_m and their rank-two factors (_hkm_schur), the Szego kernels
    Sz_m (x) I = E / C_m (kernels.szego_pullbacks) with their eigenvalues
    and the atoms where they are safely positive definite, the Hermitian
    basis, and the Schur complement bordered by the t row.  The dual is  max Re<G, Z>  subject to
    Re<E, Z> = 1,  S_m = conj(C_m) . Z PSD, and any primal point (t, B) and
    dual Z give t - Re<G, Z> = sum_m Re<B_m, S_m> >= 0.
    """

    def __init__(self, nodes, grid, block):
        n = len(nodes)
        self.dim = n * block
        self.ee = np.tile(np.eye(block), (n, n))
        vals = phi_values(grid.alphas, nodes.s, nodes.p)
        masks = _masks(vals)  # raises off the disk
        self.cexp = expand_masks(masks, block)
        self.u = np.repeat(vals, block, 1)
        self.cconj = self.cexp.conj()
        sz = szego_pullbacks(masks)
        self.szego = np.kron(sz, np.eye(block)) if block > 1 else sz  # Sz_k (x) I
        self.lam_s, vec_s = np.linalg.eigh(self.szego)
        self.safe = np.flatnonzero(self.lam_s[:, 0] > _SZEGO_FLOOR * self.lam_s[:, -1])
        safe = self.safe
        self.whiten = vec_s[safe] / np.sqrt(self.lam_s[safe])[:, None, :]  # Sz_k^(-1) = W W*
        self.basis = hermitian_basis(self.dim)

    @functools.cached_property
    def factors(self):
        """The masks' rank-two factors for _hkm_schur, built at the first step."""
        u = self.u
        v = np.ones((2, len(u), 2, self.dim), dtype=complex)
        v[0, :, 1], v[1, :, 1] = -u, u.conj()  # a = (1, -u) and c = (1, conj(u)) of _hkm_schur
        f = v[:, :, None, :, :, None] * v.conj()[:, :, :, None, None]  # v_x(i) conj(v_y(k))
        return f.reshape(2, len(u), 4, self.dim, self.dim)

    @functools.cached_property
    def kkt(self):
        """The Schur complement's array bordered by the t row, built at the first step."""
        kkt = np.zeros((self.dim**2 + 1,) * 2)
        kkt[:-1, -1] = kkt[-1, :-1] = self.basis.coords(self.ee.astype(complex))
        return kkt

    def repair(self, g, t, b):
        """(t + eps, blocks): the primal point (t, b) for G = g made exact at the best safe atom.

        E = C_k . (Sz_k (x) I) at every atom k.  So adding R / C_k +
        eps (Sz_k (x) I) to B_k, R = t E - G - sum_m C_m . B_m the residual,
        gives a primal point at t + eps, eps = max(0, -lambda_min) of
        B_k + R / C_k relative to Sz_k (x) I, at the atom of least eps among
        those where Sz_k is safely positive definite.  A direct eigensolve of
        the repaired block then adds what the whitening by Sz_k rounded away.
        From B = 0 and t = 1 this is the best single-atom witness.
        """
        safe, szego = self.safe, self.szego
        r = t * self.ee - g - np.einsum("mij,mij->ij", self.cexp, b)
        x = hermitian_part(b[safe] + r / self.cexp[safe])
        rel = self.whiten.conj().transpose(0, 2, 1) @ x @ self.whiten
        eps = np.maximum(-np.linalg.eigvalsh(rel)[:, 0], 0.0)
        i = int(np.argmin(eps))
        k, e = int(safe[i]), float(eps[i])
        low = float(np.linalg.eigvalsh(x[i] + e * szego[k])[0])
        e += max(0.0, -low) / float(self.lam_s[k, 0])  # Weyl: now PSD up to roundoff
        out = b.copy()
        out[k] = x[i] + e * szego[k]
        return t + e, out

    def shifted(self, z):
        """Z' = Z + s I, s = admissible_shift(conj(C), Z): every conj(C_m) . Z' is PSD."""
        return z + admissible_shift(self.cconj, z) * np.eye(len(z))

    def path(self, g, max_iter):
        """The interior-point iterates (t, B, Z) for G = g: the start, then one per step.

        The start is feasible on the dual side: Z = I / N, where Re<E, Z> = 1
        and every S_m is diagonal and positive.  Its primal point is the best
        single-atom witness (t_w, W), repair from B = 0 at t = 1: W_k is PSD,
        but singular, and every other W_m is 0.  Before the first step it is
        moved strictly inside the cone: B_m gains eps (Sz_m (x) I),
        eps = _START_SZEGO t_w, at the safe atoms, and t gains |safe| eps, so
        no iteration is spent restoring the primal identity; the atoms where
        Sz_m is not safe get _START_SHIFT t_w I instead, and leave a residual
        of their diagonal masks.  With no Szego-safe atom there is no
        witness, and the start is B_m = sigma I at every atom,
        t = sigma (1 + M), sigma = max(1, max |G|), whose primal residual the
        steps remove.

        Every later iterate is one step.  The iterates end after max_iter
        steps, or earlier when a step stalls; a consumer that reads them all
        tells the two apart by the count.  Their centering parameter is 1
        while t < 1: on G = E - J the iterate then stays central while its
        primal residual falls, instead of converging to the optimal face,
        where the residual stalls at 5e-8 to 5e-7 on most planted N = 16 and
        N = 20 targets (tests/test_pick.py::planted_problem).  A PSD G, as in
        the minimal-norm bracket, has t* >= 1, and its steps take Mehrotra's
        centering.
        """
        z = np.eye(self.dim) / self.dim
        if self.safe.size:
            t, b = self.repair(g, 1.0, np.zeros_like(self.cexp))
        else:
            sigma = max(1.0, float(np.abs(g).max()))
            t, b = sigma * (1 + len(self.cexp)), sigma * np.ones_like(self.cexp) * np.eye(self.dim)
        yield t, b, z
        if self.safe.size:  # C_m . (Sz_m (x) I) = E, so the safe atoms keep the primal identity
            eps, safe = _START_SZEGO * t, self.safe
            start = b + _START_SHIFT * t * np.eye(self.dim)
            start[safe] = b[safe] + eps * self.szego[safe]
            t, b = t + len(safe) * eps, start
        for _ in range(max_iter):
            if (nxt := self.step(g, t, b, z)) is None:
                return
            t, b, z = nxt
            yield nxt

    def step(self, g, t, b, z):
        """The next iterate (t, b, z) of one predictor-corrector step, or None when stalled.

        An infeasible primal-dual path-following step along the HKM direction
        (Helmberg, Rendl, Vanderbei & Wolkowicz, SIAM J. Optim. 1996) with
        Mehrotra's predictor-corrector (SIAM J. Optim. 1992).  Linearizing
        B_m S_m = nu I as dB_m = K_m - B_m - sym(B_m dS_m S_m^-1),
        dS_m = conj(C_m) . dZ, turns the primal identity into
        H(dZ) + dt E = G - t E + sum_m C_m . K_m, with Re<E, dZ> = 1 - Re<E, Z>.
        H = sum_m diag(vec C_m)(B_m (x) S_m^-T)diag(vec conj(C_m)) (_hkm_schur)
        is real symmetric positive definite in a real orthonormal basis of
        the Hermitian matrices (hermitian.HermitianBasis); bordered by the t row, the
        system is solved by LU.  A Newton step keeps a linear identity that
        already holds, and a full primal step restores one that does not.
        One computation gives each direction: it solves that system for a
        right side, writes [dB; dS] into one stacked buffer, and reads the
        steps to the PSD boundary along dB and dS off one stacked eigvalsh,
        whitened by one Cholesky factorization of the stacked [B; S].  The
        predictor is that computation at K_m = 0.  Its longest steps give the
        complementarity nu_aff they would reach, from
        nu = sum_m Re<B_m, S_m> / (M N), and the corrector is it at
        K_m = sym((sigma nu I - dB_m dS_m) S_m^-1), sigma = (nu_aff / nu)^3,
        or sigma = 1 while t < 1 (see path); dB and dS are the predictor's.  The
        primal (t, B) and the dual Z then each take _STEP_FRACTION of the
        corrector's step to the PSD boundary, at most 1.

        None when the iterate is no longer numerically interior (a
        factorization fails) or neither step reaches _MIN_STEP.
        """
        cexp, cconj, basis, kkt = self.cexp, self.cconj, self.basis, self.kkt
        m, size = len(cexp), len(cexp) * self.dim
        rhs, dbs = np.empty(len(kkt)), np.empty((2 * m, self.dim, self.dim), dtype=complex)
        try:
            s = cconj * z
            linv = np.linalg.inv(np.linalg.cholesky(np.concatenate([b, s])))
            linv_h = linv.conj().transpose(0, 2, 1)
            sinv = linv_h[m:] @ linv[m:]
            nu = float(np.vdot(b, s).real) / size
            kkt[:-1, :-1] = basis.matrix(_hkm_schur(*self.factors, b, sinv))
            rhs[-1] = 1.0 - float(np.vdot(self.ee, z).real)

            def direction(r, k, fraction):
                """(dt, dz, ap, ad) for the right side r and K = k, with [dB; dS] written to dbs."""
                rhs[:-1] = basis.coords(r)
                sol = np.linalg.solve(kkt, rhs)
                dz = basis.hermitian(sol[:-1])
                np.multiply(cconj, dz, out=dbs[m:])
                np.subtract(k, b, out=dbs[:m])
                dbs[:m] -= hermitian_part(b @ dbs[m:] @ sinv)
                lows = np.linalg.eigvalsh(linv @ dbs @ linv_h)[:, 0].reshape(2, m).min(1).tolist()
                return float(sol[-1]), dz, *(1.0 if x >= -fraction else -fraction / x for x in lows)

            base = g - t * self.ee
            _, _, ap, ad = direction(base, 0.0, 1.0)
            nu_aff = float(np.vdot(b + ap * dbs[:m], s + ad * dbs[m:]).real) / size
            sigma = 1.0 if t < 1.0 else (nu_aff / nu) ** 3
            k = hermitian_part(sigma * nu * sinv - dbs[:m] @ dbs[m:] @ sinv)
            dt, dz, ap, ad = direction(base + np.einsum("mij,mij->ij", cexp, k), k, _STEP_FRACTION)
        except np.linalg.LinAlgError:
            return None
        if max(ap, ad) < _MIN_STEP:
            return None
        return t + ap * dt, b + ap * dbs[:m], z + ad * dz


def _conic_minimum(nodes, grid, g, block, width, floor, opts):
    """(lo, t, blocks) with lo <= sqrt(t*) <= sqrt(t) <= lo + width max(floor, lo), for

        t* = min t  subject to  t E - G = sum_m C_m . B_m,  B_m PSD,

    E = 1 (x) I_block and G Hermitian PSD whose largest diagonal-block
    eigenvalue is 1, so t* >= 1.  ``blocks`` witnesses t: the affine identity
    holds and the blocks are PSD up to roundoff.  The iterates are
    _Conic.path's, whose start (t, B) is the first witness.

    The iterate's t is no upper end (its primal identity holds only to
    roundoff, and only in the limit when an atom is not safe), nor its Z a
    rigorous lower one (S_m is PSD only to roundoff).  Once
    |sqrt(t) - d| <= width max(floor, lo, d), d = sqrt(Re<G, Z> / Re<E, Z>),
    both ends are taken from it, and kept where they tighten:

    * t: _Conic.repair of the iterate.
    * lo: Z' = Z + s I, s = max(0, -min_m lambda_min(conj(C_m) . Z)) / min C_m(i, i)
      (_Conic.shifted), makes every conj(C_m) . Z' PSD.  Any witness (t, B)
      then gives t Re<E, Z'> - Re<G, Z'> = sum_m Re<B_m, conj(C_m) . Z'> >= 0,
      so lo = sqrt(Re<G, Z'> / Re<E, Z'>) when Re<E, Z'> > 0: the dual
      objective of the iterate, or the kernel conj(Z') tested on the
      all-ones vector.

    opts.max_iter caps the steps of the path; opts.tol is not read here (the
    caller re-verifies the witness to it).  NumericsError when no atom's
    Sz_k is safely positive definite, so that no witness can be repaired; or
    when the path ends, after opts.max_iter steps or at a stall
    (_Conic.step), with the bracket still wider than width max(floor, lo);
    the widths it names are those of sqrt(t).
    """
    core = _Conic(nodes, grid, block)
    if core.safe.size == 0:
        raise NumericsError(
            "minimal-norm bracket has no upper end: no grid atom's Szego kernel is"
            " safely positive definite at these nodes, so no witness can be repaired"
        )

    def dual_value(z):
        """sqrt(Re<G, Z> / Re<E, Z>), or 0 when Re<E, Z> <= 0."""
        ez = float(np.vdot(core.ee, z).real)
        return math.sqrt(max(0.0, float(np.vdot(g, z).real)) / ez) if ez > 0.0 else 0.0

    lo = 1.0  # forced by the diagonal blocks
    for it, (t, b, z) in enumerate(core.path(g, opts.max_iter)):
        if it == 0:  # the start is the single-atom witness
            hi2, witness = t, b
        if abs(math.sqrt(t) - (d := dual_value(z))) <= width * max(floor, lo, d):
            cand, blocks = core.repair(g, t, b)  # both ends, kept where they tighten
            if cand < hi2:
                hi2, witness = cand, blocks
            lo = max(lo, dual_value(core.shifted(z)))
        if math.sqrt(hi2) - lo <= width * max(floor, lo):
            return lo, hi2, witness
    gap, bound = math.sqrt(hi2) - lo, width * max(floor, lo)
    if it == opts.max_iter:
        raise NumericsError(
            f"minimal-norm bracket not closed in {opts.max_iter} interior-point"
            f" iterations: relative width {gap:.3e} > {bound:.3e}"
        )
    raise NumericsError(f"minimal-norm bracket stalled at relative width {gap:.3e} > {bound:.3e}")
