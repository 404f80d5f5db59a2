"""Lurking-isometry synthesis and transfer-function evaluation.

A feasible split J = sum_m C_m . B_m can be rearranged, per node pair, into
an equality of Gram operators of two finite families built from the factored
blocks.  Mapping one family onto the other is an isometry; completing it to
a unitary and partitioning as [[A, B], [C, D]] yields the realized function

    f(s, p) = A + B Z(s, p) (I - D Z(s, p))^{-1} C,

where Z(s, p) is block-diagonal multiplication by phi(alpha_m, s, p), with
one block of size rank(B_m) per grid alpha (the atomic model; multiplicity
equals the numerical rank of the corresponding block).  Unitarity of the
colligation forces the sampled sup-norm of f to stay at or below one, and
the construction reproduces the encoded node data exactly when the blocks
solve the identity exactly.

Pick and corona problems are one factorization, L_i f(node_i) = R_i with f
contractive and target J = L L* - R R* (Pick: L_i = I, R_i = W_i / nb; corona:
L_i = Phi_i, R_i = Theta_i), served by one :func:`realize` step.  Rectangular
top data is zero-padded to a common width and sliced back when evaluating.

The colligation is the realized function: ``PickSolution.interpolant`` and
``CoronaSolution.psi`` are :class:`Colligation` objects, evaluated with
:func:`transfer_eval` at one point or :func:`transfer_eval_batch` at many.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, ValidationError
from .geometry import GPoint, phi_values
from .hermitian import gram_factor, unitary_completion
from .kernels import NodeSet
from .feasibility import CPBlocks, FeasibilityTarget, SolveReport

# Points per batched solve are capped so that a stack of colligation-sized
# blocks ((padded + state dim)^2 entries each) holds at most this many entries.
_SOLVE_CHUNK_ENTRIES = 2**14
_NEAR_BOUNDARY_MODULUS = 1.0 - 2e-12


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


def lurking_isometry(
    blocks: CPBlocks,
    nodes: NodeSet,
    lhs_tops: list[np.ndarray],
    rhs_tops: list[np.ndarray],
    gram_tol: float = 1e-8,
) -> Colligation:
    """Build the unitary colligation from feasible blocks and node data.

    ``lhs_tops[i]`` (d2 x dL) and ``rhs_tops[i]`` (d2 x dR) encode the two
    sides of the rearranged identity

        lhs_i lhs_j* + sum_m phi_m(i) conj(phi_m(j)) B_m[i, j]
            = rhs_i rhs_j* + sum_m B_m[i, j],

    which holds exactly when the blocks solve J = sum C_m . B_m for
    J = lhs lhs* - rhs rhs*.  The Gram matrices of the two derived vector
    families must then agree; a mismatch beyond ``gram_tol``, which
    :func:`unitary_completion` tests, means the residual is too large for
    synthesis and is rejected.
    """
    n = len(nodes)
    if len(lhs_tops) != n or len(rhs_tops) != n:
        raise ValidationError("one top block per node required on each side")
    lhs = [np.atleast_2d(np.asarray(t, dtype=complex)) for t in lhs_tops]
    rhs = [np.atleast_2d(np.asarray(t, dtype=complex)) for t in rhs_tops]
    d2, d_l = lhs[0].shape
    d_r = rhs[0].shape[1]
    if any(t.shape != (d2, d_l) for t in lhs) or any(t.shape != (d2, d_r) for t in rhs):
        raise ValidationError("top blocks must share shapes (d2 x dL) and (d2 x dR)")
    dp = max(d_l, d_r)

    grid = blocks.grid
    vals = phi_values(grid.alphas, nodes.s, nodes.p)  # (M, N)
    factors: list[np.ndarray] = []
    mults: list[int] = []
    kept: list[int] = []
    for m, bm in enumerate(blocks.blocks):
        g = gram_factor(bm, tol=1e-12)
        if g.shape[0] == 0:
            continue
        factors.append(g)
        mults.append(g.shape[0])
        kept.append(m)
    h = int(sum(mults))

    x = np.zeros((dp + h, n * d2), dtype=complex)
    y = np.zeros((dp + h, n * d2), dtype=complex)
    x[0:d_l] = np.concatenate(lhs).conj().T  # L*, the node tops stacked
    y[0:d_r] = np.concatenate(rhs).conj().T
    row = dp
    for g, m in zip(factors, kept):
        r = g.shape[0]
        scale = np.repeat(vals[m].conj(), d2)
        x[row : row + r, :] = g * scale[None, :]
        y[row : row + r, :] = g
        row += r

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
        alphas=grid.alphas[kept],
        multiplicities=tuple(mults),
        out_dim=d_l,
        in_dim=d_r,
    )


def factor_target(nodes: NodeSet, lhs_tops, rhs_tops) -> FeasibilityTarget:
    """J = L L* - R R* in node-block form, L and R the node tops stacked."""
    left, right = np.concatenate(lhs_tops), np.concatenate(rhs_tops)
    # an overflow leaves a non-finite entry, which FeasibilityTarget rejects
    with np.errstate(over="ignore", invalid="ignore"):
        j = left @ left.conj().T - right @ right.conj().T
    return FeasibilityTarget(nodes=nodes, matrix=j, block=lhs_tops[0].shape[0])


def realize(
    report: SolveReport, nodes: NodeSet, lhs_tops, rhs_tops
) -> tuple[Colligation, float]:
    """The colligation realized from a Feasible report's witness, and its node residual."""
    tol = max(1e-8, 10 * report.residual)
    col = lurking_isometry(report.blocks, nodes, lhs_tops, rhs_tops, gram_tol=tol)
    return col, node_residual(col, nodes, lhs_tops, rhs_tops)


def node_residual(col: Colligation, nodes: NodeSet, lhs_tops, rhs_tops) -> float:
    """max_i |L_i f(node_i) - R_i|, entrywise, for the function f of ``col``."""
    vals = transfer_eval_batch(col, nodes.s, nodes.p)
    return max(float(np.abs(lt @ v - rt).max()) for lt, v, rt in zip(lhs_tops, vals, rhs_tops))


def transfer_eval(col: Colligation, point: GPoint | tuple[complex, complex]) -> np.ndarray:
    """Evaluate the realized function at one point: a batch of one."""
    s, p = (point.s, point.p) if isinstance(point, GPoint) else point
    return transfer_eval_batch(col, [s], [p])[0]


def transfer_eval_batch(col: Colligation, s: np.ndarray, p: np.ndarray) -> np.ndarray:
    """A + B Z (I - D Z)^{-1} C at many points, shape (len(s), out_dim, in_dim).

    ||D|| <= 1 and |z_k| <= r bound the resolvent's condition number by
    (1 + r) / (1 - r), so a batch warns "near-boundary evaluation" when some
    state scalar reaches modulus 1 - 2e-12, where that bound passes 1e12.
    """
    s = np.asarray(s, dtype=complex).ravel()
    p = np.asarray(p, dtype=complex).ravel()
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
    """Max operator norm of the realized function over seeded domain samples.

    Samples are symmetrized pairs of uniform disk points; for any colligation
    whose block matrix is unitary the returned value stays at or below
    1 + 1e-8 up to evaluation roundoff.  ValidationError when sample_count < 1.
    """
    if sample_count < 1:
        raise ValidationError(f"sample_count must be >= 1, got {sample_count}")
    vals = transfer_eval_batch(col, *_domain_sample(sample_count, seed, 0.9999))
    if min(col.out_dim, col.in_dim) == 1:
        # A vector's one singular value is its Euclidean norm.  LAPACK's value
        # may differ from it in the last bit, so only the samples whose norm
        # is within roundoff of the largest go on to the SVD below: the result
        # is bit-identical to an SVD of every sample (a NaN keeps them all).
        sq = (vals.real**2 + vals.imag**2).sum(axis=(1, 2))
        vals = vals[~(sq < sq.max() * (1.0 - 1e-12))]
    sv = np.linalg.svd(vals, compute_uv=False)
    return float(sv[:, 0].max())
