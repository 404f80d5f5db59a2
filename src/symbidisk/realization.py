"""Lurking-isometry synthesis and transfer-function evaluation.

A feasible split J = sum_m C_m . B_m can be rearranged, per node pair, into
an equality of Gram operators of two finite families built from the factored
blocks.  Mapping one family onto the other is an isometry.  Its unitary
completion is one SVD polar factor (:func:`hermitian.unitary_completion`),
and partitioning it as [[A, B], [C, D]] yields the realized function

    f(s, p) = A + B Z(s, p) (I - D Z(s, p))^{-1} C,

where Z(s, p) is block-diagonal multiplication by phi(alpha_m, s, p), with
one block per grid alpha (the atomic model) whose size, the multiplicity,
is the numerical rank of the corresponding block.  :func:`realize` is the
one synthesis step: it first purifies the witness to a basic solution of
the identity, Caratheodory's walk on the blocks' eigenvalues
(_purified_factors), so its multiplicities are the ranks of the purified
blocks and sum to at most N^2, N = n * block.  The colligation's norm
bounds f's (:attr:`Colligation.norm`), so a unitary one makes f contractive,
and the construction reproduces the encoded node data exactly when the blocks
solve the identity exactly.

Pick and corona problems are one factorization, L_i f(node_i) = R_i with f
contractive and target J = L L* - R R* (Pick: L_i = I, R_i = W_i / nb; corona:
L_i = Phi_i, R_i = Theta_i).  :func:`factor_target`, :func:`realize` and
:func:`node_residual` each take the problem itself, anything with ``nodes``
and ``tops()`` (the node tops L_i and R_i, which the problem's constructor
has checked), and this module is the one that reads the tops.  Rectangular
top data is zero-padded to a common width and sliced back when evaluating.

Both problems return one :class:`Factorization`, whose ``interpolant`` is
the realized function: a :class:`Colligation`, evaluated with
:func:`transfer_eval_batch` at any number of points.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, ValidationError
from .geometry import phi_values
from .hermitian import hermitian_basis, hermitian_part, unitary_completion
from .kernels import NodeSet, coefficient_masks, expand_masks
from .feasibility import CPBlocks, FeasibilityTarget, SolveReport, SolveStatus

# Points per batched solve are capped so that a stack of colligation-sized
# blocks ((padded + state dim)^2 entries each) holds at most this many entries.
_SOLVE_CHUNK_ENTRIES = 2**14
_NEAR_BOUNDARY_MODULUS = 1.0 - 2e-12
# A block's eigenvalues at or below this fraction of its largest count as zero
# when it is factored into state dimensions; one below minus this fraction
# means the block is not PSD.
_RANK_TOL = 1e-12


@dataclass(frozen=True)
class Colligation:
    """Unitary block operator together with its atomic representation data.

    ``alphas[k]`` carries ``multiplicities[k]`` state dimensions; the block
    matrix [[A, B], [C, D]] is unitary on (padded output dim + state dim).
    ``out_dim`` and ``in_dim`` select the meaningful corner of the padded
    transfer value.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    alphas: np.ndarray
    multiplicities: tuple[int, ...]
    out_dim: int
    in_dim: int

    def __post_init__(self):
        h = sum(self.multiplicities)
        if self.d.shape != (h, h):
            raise ValidationError("state block shape disagrees with multiplicities")

    @property
    def state_dim(self) -> int:
        return int(sum(self.multiplicities))

    @property
    def padded_dim(self) -> int:
        return self.a.shape[0]

    @property
    def norm(self) -> float:
        """||V||_2 of V = [[A, B], [C, D]], one SVD: a bound on the norm of f.

        ||V|| <= 1 + eps gives ||f(s, p)|| <= 1 + eps wherever every state scalar
        |phi(alpha_k, s, p)| <= 1 / (1 + eps), the realization theorem's contractive
        half (Bhattacharyya & Sau; Agler & McCarthy 2002): V maps (u, Z x) to (f u, x),
        x = (I - D Z)^{-1} C u, so ||f u||^2 + ||x||^2 <= (1 + eps)^2 ||u||^2 + ||x||^2.
        A unitary V, as synthesis builds, bounds f by 1 on the whole domain.
        """
        v = np.block([[self.a, self.b], [self.c, self.d]])
        return float(np.linalg.svd(v, compute_uv=False)[0])


def _colligation(alphas, problem, rows, atoms, gram_tol) -> Colligation:
    """The unitary colligation of Gram factors G_m* G_m = B_m, one per alphas[m].

    G_m stacks the ``rows`` whose ``atoms`` entry is m, and ``atoms`` is
    ascending, so each kept alpha's rows are contiguous.

    Node i's tops L_i (d2 x dL) and R_i (d2 x dR) are the problem's
    ``tops()``.  The blocks solve J = sum C_m . B_m for J = L L* - R R*
    exactly when the two vector families built here have equal Gram
    matrices; a relative mismatch beyond ``gram_tol`` means the residual is
    too large for synthesis.
    """
    lhs, rhs = problem.tops()
    d2, d_l = lhs[0].shape
    d_r = rhs[0].shape[1]
    dp = max(d_l, d_r)

    vals = phi_values(alphas, problem.nodes.s, problem.nodes.p)  # (M, N)
    kept, mults = np.unique(atoms, return_counts=True)
    h = len(rows)

    x = np.zeros((dp + h, len(lhs) * d2), dtype=complex)
    y = np.zeros((dp + h, len(lhs) * d2), dtype=complex)
    x[0:d_l] = np.concatenate(lhs).conj().T  # L*, the node tops stacked
    y[0:d_r] = np.concatenate(rhs).conj().T
    x[dp:] = rows * np.repeat(vals[atoms].conj(), d2, axis=1)
    y[dp:] = rows

    try:
        v1 = unitary_completion(x, y, gram_tol=gram_tol)
    except NumericsError as exc:
        raise NumericsError(f"CP residual too large for synthesis: {exc}") from exc
    v = v1.conj().T  # maps (input channel + state) to (output channel + state)
    # the realized value satisfies lhs_i @ f(node_i) = rhs_i: rows of f pair
    # with the lhs channel, columns with the rhs channel
    return Colligation(
        a=v[0:dp, 0:dp],
        b=v[0:dp, dp:],
        c=v[dp:, 0:dp],
        d=v[dp:, dp:],
        alphas=alphas[kept],
        multiplicities=tuple(mults.tolist()),
        out_dim=d_l,
        in_dim=d_r,
    )


def _purified_factors(blocks: CPBlocks, nodes: NodeSet) -> tuple[np.ndarray, np.ndarray]:
    """(rows, atoms): Gram factors G_m of a basic solution of the witness's identity.

    Each N x N block B_m = sum_k lam_k u_k u_k* keeps its eigenpairs above
    _RANK_TOL lambda_max, its numerical rank, and J = sum_m C_m . B_m then
    reads A x = J in a real orthonormal basis of the Hermitian matrices: x
    holds the K kept eigenvalues, and column k of A is C_m . (u_k u_k*).
    When K > N^2, _basic_solution moves x >= 0 to at most N^2 positive
    entries with A x unchanged to roundoff.  ``rows`` stacks sqrt(x_k) u_k*
    over the positive entries, block by block, and ``atoms`` holds each
    row's block m, ascending; G_m is the rows of block m.  So the purified
    blocks G_m* G_m are PSD, meet the identity to roundoff and have
    sum_m rank <= N^2.  When K <= N^2 nothing moves, and G_m is B_m's own
    factor, sqrt(lam_k) u_k* over its kept eigenpairs.  One stacked
    eigensolve, the package's only Gram factorization; NumericsError when a
    block has an eigenvalue below -_RANK_TOL lambda_max.
    """
    lam, vec = np.linalg.eigh(hermitian_part(blocks.blocks))
    scale = np.maximum(lam[:, -1], 0.0)
    low = np.flatnonzero(lam[:, 0] < -_RANK_TOL * np.maximum(scale, 1e-30))
    if low.size:
        raise NumericsError(f"not PSD: min eigenvalue {lam[low[0], 0]:.3e} below -tol*scale")
    ms, ks = np.nonzero(lam > _RANK_TOL * scale[:, None])  # block by block, ascending
    x, u = lam[ms, ks], vec[ms, :, ks]  # u[k] is the eigenvector of x[k]
    dim = vec.shape[1]
    if len(x) > dim * dim:
        cexp = expand_masks(coefficient_masks(blocks.grid, nodes), dim // len(nodes))

        def columns(idx):
            terms = cexp[ms[idx]] * (u[idx, :, None] * u[idx].conj()[:, None, :])
            return hermitian_basis(dim).coords(hermitian_part(terms)).T

        x = _basic_solution(columns, x, 2 * dim * dim)
    live = x > 0.0
    return np.sqrt(x[live])[:, None] * u[live].conj(), ms[live]


def _basic_solution(columns, x, width):
    """x' >= 0 with A x' = A x to roundoff and at most as many positive entries as A has rows.

    ``columns(idx)`` gives the columns idx of A.  Windows of at most
    ``width`` columns, the positive entries so far followed by the next
    columns in order, each get one Caratheodory walk (_walk).  A window
    leaves at most as many positive entries as A has rows, so with
    ``width`` twice that each window takes at least as many new columns.
    """
    x = x.copy()
    live, nxt = np.arange(0), 0
    while nxt < len(x):
        stop = min(len(x), nxt + width - len(live))
        idx = np.concatenate([live, np.arange(nxt, stop)])
        x[idx] = _walk(columns(idx), x[idx])
        live, nxt = idx[x[idx] > 0.0], stop
    return x


def _walk(a, x):
    """x' >= 0 with a x' = a x to roundoff and at most as many positive entries as a has rows.

    The last columns of the complete QR factorization of a^T are an
    orthonormal basis Z of null vectors of a, one per column beyond the
    rows.  Each step moves x along Z's first column v, signed so that its
    largest entry is positive, until the ratio test zeroes an entry k; a
    Householder reflection then leaves one column of Z nonzero in row k, and
    that column is dropped.  The rest are null vectors of a that vanish at
    every zeroed entry, so each step zeroes one more entry, and the walk ends
    when Z has no column left.
    """
    z = np.linalg.qr(a.T, mode="complete")[0][:, len(a) :]
    x = x.copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        while z.shape[1]:
            v = z[:, 0] if z[:, 0].max() >= -z[:, 0].min() else -z[:, 0]
            ratio = x / v
            ratio[v <= 0.0] = np.inf
            k = int(ratio.argmin())
            x -= ratio[k] * v
            np.maximum(x, 0.0, out=x)
            x[k] = 0.0
            h = z[k].copy()
            h[0] += math.copysign(math.sqrt(h @ h), h[0])
            z = z[:, 1:] - np.outer(z @ h, (2.0 / (h @ h)) * h[1:])
            z[k] = 0.0
    return x


def factor_target(problem) -> FeasibilityTarget:
    """J = L L* - R R* in node-block form, L and R the problem's node tops stacked."""
    # an overflow leaves a non-finite entry, which FeasibilityTarget rejects
    with np.errstate(over="ignore", invalid="ignore"):
        lhs, rhs = problem.tops()
        left, right = np.concatenate(lhs), np.concatenate(rhs)
        j = left @ left.conj().T - right @ right.conj().T
    return FeasibilityTarget(nodes=problem.nodes, matrix=j, block=lhs[0].shape[0])


@dataclass(frozen=True)
class Factorization:
    """The result of Pick and corona solves: a decided factorization L_i f(node_i) = R_i.

    ``interpolant``, the colligation of f, and its ``node_residual`` are set
    when the report is Feasible, and None otherwise.
    """

    report: SolveReport
    interpolant: Colligation | None = None
    node_residual: float | None = None

    @property
    def status(self) -> SolveStatus:
        return self.report.status


def realize(report: SolveReport, problem) -> Factorization:
    """The factorization a report on ``factor_target(problem)`` decides: bare unless Feasible.

    A Feasible report's colligation is built from its witness purified to a
    basic solution (_purified_factors), so its state dimension is at most
    N^2; the report's blocks are not changed.
    """
    if report.status is not SolveStatus.FEASIBLE:
        return Factorization(report)
    tol = max(1e-8, 10 * report.residual)
    rows, atoms = _purified_factors(report.blocks, problem.nodes)
    col = _colligation(report.blocks.grid.alphas, problem, rows, atoms, tol)
    return Factorization(report, col, node_residual(col, problem))


def node_residual(col: Colligation, problem) -> float:
    """max_i |L_i f(node_i) - R_i|, entrywise, for the function f of ``col``."""
    vals = transfer_eval_batch(col, problem.nodes.s, problem.nodes.p)
    lhs, rhs = problem.tops()
    return max(float(np.abs(lt @ v - rt).max()) for lt, v, rt in zip(lhs, vals, rhs))


def transfer_eval_batch(col: Colligation, s: np.ndarray, p: np.ndarray) -> np.ndarray:
    """A + B Z (I - D Z)^{-1} C at many points, shape (len(s), out_dim, in_dim).

    ||D|| <= 1 and |z_k| <= r bound the resolvent's condition number by
    (1 + r) / (1 - r), so a batch warns "near-boundary evaluation" when some
    state scalar reaches modulus 1 - 2e-12, where that bound passes 1e12.
    ValidationError unless s and p have one size.
    """
    s = np.asarray(s, dtype=complex).ravel()
    p = np.asarray(p, dtype=complex).ravel()
    if s.size != p.size:
        raise ValidationError(f"one p per s required, got {s.size} s and {p.size} p")
    # padded corner is the realized value; the rest is completion gauge
    corner = (slice(None), slice(0, col.out_dim), slice(0, col.in_dim))
    h = col.state_dim
    reps = np.repeat(np.arange(len(col.multiplicities)), col.multiplicities)
    eye = np.eye(h)
    out = np.empty((s.size, col.out_dim, col.in_dim), dtype=complex)
    step = max(1, _SOLVE_CHUNK_ENTRIES // (col.padded_dim + h) ** 2)
    near = False
    for lo in range(0, s.size, step):
        vals = phi_values(col.alphas, s[lo : lo + step], p[lo : lo + step])
        near = near or bool(vals.size and np.abs(vals).max() >= _NEAR_BOUNDARY_MODULUS)
        z = vals[reps].T[:, None, :]
        rhs = np.broadcast_to(col.c, (z.shape[0],) + col.c.shape)
        f = col.a + (col.b * z) @ np.linalg.solve(eye - col.d * z, rhs)
        out[lo : lo + step] = f[corner]
    if near:
        warnings.warn("near-boundary evaluation", RuntimeWarning, stacklevel=2)
    return out


def _domain_sample(count: int, seed: int, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Seeded (s, p) samples: symmetrized pairs of uniform points of the disk of ``radius``."""
    rng = np.random.default_rng(seed)
    r = np.sqrt(rng.random((2, count))) * radius
    th = rng.random((2, count)) * 2.0 * np.pi
    z1 = r[0] * np.exp(1j * th[0])
    z2 = r[1] * np.exp(1j * th[1])
    return z1 + z2, z1 * z2


def verify_contractivity(col: Colligation, sample_count: int = 10000, seed: int = 0) -> float:
    """Max operator norm of f over seeded domain samples, an oracle for :attr:`Colligation.norm`.

    A sample F's norm is sqrt(lambda_max) of its Gram matrix on the smaller
    side, F F* or F* F, one stacked eigvalsh rather than one SVD per sample.
    ValidationError when sample_count < 1.
    """
    if sample_count < 1:
        raise ValidationError(f"sample_count must be >= 1, got {sample_count}")
    vals = transfer_eval_batch(col, *_domain_sample(sample_count, seed, 0.9999))
    adj = vals.conj().transpose(0, 2, 1)
    gram = vals @ adj if col.out_dim <= col.in_dim else adj @ vals
    return math.sqrt(max(float(np.linalg.eigvalsh(gram)[:, -1].max()), 0.0))
