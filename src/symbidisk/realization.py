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

The same builder serves interpolation (left tops the identity, right tops
the targets) and corona synthesis (left tops the given row functions, right
tops the factorization targets); rectangular top data is zero-padded to a
common width and the meaningful corner is sliced out at evaluation time.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, ValidationError
from .geometry import GPoint, phi_values
from .hermitian import gram_factor, unitary_completion
from .kernels import NodeSet
from .feasibility import CPBlocks

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

    def block_matrix(self) -> np.ndarray:
        top = np.hstack([self.a, self.b])
        bottom = np.hstack([self.c, self.d])
        return np.vstack([top, bottom])

    def unitarity_defect(self) -> float:
        v = self.block_matrix()
        eye = np.eye(v.shape[0])
        return float(
            max(
                np.abs(v @ v.conj().T - eye).max(initial=0.0),
                np.abs(v.conj().T @ v - eye).max(initial=0.0),
            )
        )

    def state_scalars(self, point: GPoint | tuple[complex, complex]) -> np.ndarray:
        """Diagonal of Z(s, p): phi(alpha_k, point) repeated per multiplicity."""
        s, p = (point.s, point.p) if isinstance(point, GPoint) else point
        vals = phi_values(self.alphas, np.array([s]), np.array([p]))[:, 0]
        return np.repeat(vals, self.multiplicities)


@dataclass(frozen=True)
class RealizedFunction:
    """A function realized by a unitary colligation; unit-ball by construction."""

    colligation: Colligation

    def __call__(self, point) -> np.ndarray:
        return transfer_eval(self, point)


def lurking_isometry(
    blocks: CPBlocks,
    nodes: NodeSet,
    lhs_tops: list[np.ndarray],
    rhs_tops: list[np.ndarray],
    block: int = 1,
    gram_tol: float = 1e-8,
) -> Colligation:
    """Build the unitary colligation from feasible blocks and node data.

    ``lhs_tops[i]`` (d2 x dL) and ``rhs_tops[i]`` (d2 x dR) encode the two
    sides of the rearranged identity

        lhs_i lhs_j* + sum_m phi_m(i) conj(phi_m(j)) B_m[i, j]
            = rhs_i rhs_j* + sum_m B_m[i, j],

    which holds exactly when the blocks solve J = sum C_m . B_m for
    J = lhs lhs* - rhs rhs*.  The Gram matrices of the two derived vector
    families must then agree; a mismatch beyond ``gram_tol`` means the
    residual is too large for synthesis and is rejected.
    """
    n = len(nodes)
    d2 = block
    if len(lhs_tops) != n or len(rhs_tops) != n:
        raise ValidationError("one top block per node required on each side")
    lhs = [np.atleast_2d(np.asarray(t, dtype=complex)) for t in lhs_tops]
    rhs = [np.atleast_2d(np.asarray(t, dtype=complex)) for t in rhs_tops]
    d_l = lhs[0].shape[1]
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

    cols = n * d2
    x = np.zeros((dp + h, cols), dtype=complex)
    y = np.zeros((dp + h, cols), dtype=complex)
    for i in range(n):
        x[0:d_l, i * d2 : (i + 1) * d2] = lhs[i].conj().T
        y[0:d_r, i * d2 : (i + 1) * d2] = rhs[i].conj().T
    row = dp
    for g, m in zip(factors, kept):
        r = g.shape[0]
        scale = np.repeat(vals[m].conj(), d2)
        x[row : row + r, :] = g * scale[None, :]
        y[row : row + r, :] = g
        row += r

    gx = x.conj().T @ x
    gy = y.conj().T @ y
    mismatch = float(np.abs(gx - gy).max(initial=0.0))
    scale = max(1.0, float(np.abs(gx).max(initial=0.0)))
    if mismatch > gram_tol * scale:
        raise NumericsError(
            f"CP residual too large for synthesis: Gram mismatch {mismatch:.3e}"
        )

    v1 = unitary_completion(x, y, gram_tol=gram_tol)
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


def transfer_eval(
    fn: RealizedFunction | Colligation, point: GPoint | tuple[complex, complex]
) -> np.ndarray:
    """Evaluate the realized function at one point: a batch of one."""
    col = fn.colligation if isinstance(fn, RealizedFunction) else fn
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


def verify_contractivity(
    fn: RealizedFunction, sample_count: int = 10000, seed: int = 0
) -> float:
    """Max operator norm of the realized function over seeded domain samples.

    Samples are symmetrized pairs of uniform disk points; for any colligation
    whose block matrix is unitary the returned value stays at or below
    1 + 1e-8 up to evaluation roundoff.
    """
    col = fn.colligation
    rng = np.random.default_rng(seed)
    r = np.sqrt(rng.random((2, sample_count))) * 0.9999
    th = rng.random((2, sample_count)) * 2.0 * np.pi
    z1 = r[0] * np.exp(1j * th[0])
    z2 = r[1] * np.exp(1j * th[1])
    s = z1 + z2
    p = z1 * z2
    vals = transfer_eval_batch(col, s, p)
    sv = np.linalg.svd(vals, compute_uv=False)
    return float(sv[:, 0].max())


def node_values(col: Colligation, nodes: NodeSet) -> list[np.ndarray]:
    """Realized values at the interpolation nodes."""
    vals = transfer_eval_batch(col, nodes.s, nodes.p)
    return [vals[i] for i in range(len(nodes))]
