"""Finite-matrix operator pairs attached to the closed symmetrized bidisk.

A commuting pair (R, U) is a boundary-unitary pair exactly when U is unitary,
R = R* U, and ||R|| <= 2; replacing "unitary" by "isometry" characterizes the
isometric pairs.  Every pair symmetrized from commuting unitaries passes the
unitary check, and the multiplication pair of a finitely atomic boundary
measure gives the canonical cyclic isometric model.  A sampled polynomial
probe tests the spectral-set inequality from above; ratios above one refute
containment, ratios at or below one are inconclusive because the sup is only
estimated from samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .geometry import BGammaPoint, scale_point

COMMUTATOR_TOL = 1e-10


@dataclass(frozen=True)
class OperatorPair:
    """Commuting square matrices playing the sum/product coordinate roles."""

    first: np.ndarray
    second: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.first, dtype=complex)
        b = np.asarray(self.second, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape != b.shape:
            raise ValidationError("need two square matrices of equal size")
        scale = max(1.0, np.abs(a).max(initial=0.0) * np.abs(b).max(initial=0.0))
        if np.abs(a @ b - b @ a).max(initial=0.0) > COMMUTATOR_TOL * scale:
            raise ValidationError("matrices do not commute")
        object.__setattr__(self, "first", a)
        object.__setattr__(self, "second", b)

    @property
    def dim(self) -> int:
        return self.first.shape[0]


@dataclass(frozen=True)
class AtomicMeasure:
    """Distinct boundary atoms with positive weights."""

    atoms: tuple[BGammaPoint, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if not self.atoms:
            raise ValidationError("need at least one atom")
        if len(self.weights) != len(self.atoms):
            raise ValidationError("one weight per atom required")
        if any(w <= 0 for w in self.weights):
            raise ValidationError("weights must be positive")
        for i, a in enumerate(self.atoms):
            for b in self.atoms[i + 1 :]:
                if abs(a.s - b.s) <= 1e-12 and abs(a.p - b.p) <= 1e-12:
                    raise ValidationError("duplicate atoms")


@dataclass(frozen=True)
class PairCheck:
    passed: bool
    isometry_defect: float
    twist_defect: float  # || R - R* U ||
    norm_first: float
    tol: float

    def __bool__(self) -> bool:
        return self.passed


def gamma_unitary_check(pair: OperatorPair, tol: float = 1e-10) -> PairCheck:
    """True iff U is unitary, R = R* U, and ||R|| <= 2 (all within tol)."""
    u = pair.second
    eye = np.eye(pair.dim)
    unitary_defect = max(
        float(np.abs(u.conj().T @ u - eye).max()),
        float(np.abs(u @ u.conj().T - eye).max()),
    )
    return _pair_check(pair, unitary_defect, tol)


def gamma_isometry_check(pair: OperatorPair, tol: float = 1e-10) -> PairCheck:
    """True iff V is an isometry, T = T* V, and ||T|| <= 2 (all within tol).

    On finite dimensions every isometry is unitary, so true instances are
    also unitary pairs; the isometry form is kept for fidelity.
    """
    v = pair.second
    iso_defect = float(np.abs(v.conj().T @ v - np.eye(pair.dim)).max())
    return _pair_check(pair, iso_defect, tol)


def _pair_check(pair: OperatorPair, defect: float, tol: float) -> PairCheck:
    """The check of (first, second) given the second member's defect."""
    t, v = pair.first, pair.second
    twist = float(np.abs(t - t.conj().T @ v).max())
    nrm = float(np.linalg.norm(t, 2))
    return PairCheck(
        passed=defect <= tol and twist <= tol and nrm <= 2.0 + tol,
        isometry_defect=defect,
        twist_defect=twist,
        norm_first=nrm,
        tol=tol,
    )


def symmetrized_pair(u1: np.ndarray, u2: np.ndarray, tol: float = 1e-10) -> OperatorPair:
    """(U1 + U2, U1 U2) for commuting unitaries; always passes the unitary check."""
    u1 = np.asarray(u1, dtype=complex)
    u2 = np.asarray(u2, dtype=complex)
    eye = np.eye(u1.shape[0])
    for name, u in (("first", u1), ("second", u2)):
        if np.abs(u.conj().T @ u - eye).max(initial=0.0) > tol:
            raise ValidationError(f"{name} factor is not unitary")
    if np.abs(u1 @ u2 - u2 @ u1).max(initial=0.0) > COMMUTATOR_TOL:
        raise ValidationError("factors do not commute")
    return OperatorPair(first=u1 + u2, second=u1 @ u2)


def extract_unitary_factors(
    pair: OperatorPair, tol: float = 1e-8
) -> tuple[np.ndarray, np.ndarray]:
    """Invert symmetrization: commuting unitaries (U1, U2) with sum/product pair.

    Joint-diagonalizes the commuting normal pair through a fixed generic
    linear combination, then splits each joint eigenvalue (s, p) into the
    roots of z^2 - s z + p = 0; the root with nonnegative imaginary part is
    listed first.
    """
    from .errors import NumericsError

    check = gamma_unitary_check(pair, tol=max(tol, 1e-8))
    if not check.passed:
        raise ValidationError("pair does not pass the boundary-unitary check")
    r, u = pair.first, pair.second
    n = pair.dim
    # a generic combination of commuting normals is normal with (generically)
    # simple spectrum; its eigenbasis diagonalizes both members
    comb = (0.6180339887498949 + 0.3141592653589793j) * r + (
        1.0 - 0.2718281828459045j
    ) * u
    _, v = np.linalg.eig(comb)
    q, _ = np.linalg.qr(v)
    rd = q.conj().T @ r @ q
    ud = q.conj().T @ u @ q
    off = max(
        np.abs(rd - np.diag(np.diag(rd))).max(initial=0.0),
        np.abs(ud - np.diag(np.diag(ud))).max(initial=0.0),
    )
    if off > 1e-7 * max(1.0, np.abs(r).max(initial=0.0)):
        raise NumericsError("joint diagonalization failed; spectrum too clustered")
    svals = np.diag(rd)
    pvals = np.diag(ud)
    z1 = np.zeros(n, dtype=complex)
    z2 = np.zeros(n, dtype=complex)
    for k in range(n):
        disc = np.sqrt(svals[k] ** 2 - 4.0 * pvals[k])
        a = (svals[k] + disc) / 2.0
        b = (svals[k] - disc) / 2.0
        if a.imag < b.imag:
            a, b = b, a
        z1[k], z2[k] = a, b
    u1 = q @ np.diag(z1) @ q.conj().T
    u2 = q @ np.diag(z2) @ q.conj().T
    return u1, u2


def atomic_h2_model(mu: AtomicMeasure) -> OperatorPair:
    """Multiplication pair of a finitely atomic boundary measure.

    On the weighted space of functions on the atoms (polynomials separate
    distinct atoms, so they span everything) the coordinate multiplications
    are diagonal in the weighted orthonormal basis.  The pair passes the
    isometry check and is cyclic with the constant function, which is
    verified through the rank of the monomial span.
    """
    s = np.array([a.s for a in mu.atoms], dtype=complex)
    p = np.array([a.p for a in mu.atoms], dtype=complex)
    m = len(mu.atoms)
    if _krylov_rank(s, p, np.sqrt(np.array(mu.weights))) < m:
        raise ValidationError("atoms are not polynomially separable")
    return OperatorPair(first=np.diag(s), second=np.diag(p))


def cyclic_rank(pair: OperatorPair, vector: np.ndarray | None = None) -> int:
    """Rank of the joint Krylov span {T^a V^b vector}."""
    n = pair.dim
    v = np.ones(n, dtype=complex) if vector is None else np.asarray(vector, dtype=complex)
    cols = []
    ta = np.eye(n, dtype=complex)
    for _ in range(n):
        tb = ta.copy()
        for _ in range(n):
            cols.append(tb @ v)
            tb = tb @ pair.second
        ta = ta @ pair.first
    mat = np.stack(cols, axis=1)
    return int(np.linalg.matrix_rank(mat, tol=1e-10 * max(1.0, np.abs(mat).max())))


def toeplitz_positivity(
    phi_scaled_samples,
    mu: AtomicMeasure,
    delta: float,
    r: float,
    tol: float = 1e-10,
) -> tuple[bool, float]:
    """lambda_min of M M* - delta I for multiplication by scaled samples.

    ``phi_scaled_samples`` are the d2 x d1 values at the radially scaled
    atoms (r s_k, r^2 p_k); on the atomic model the multiplication operator
    is block diagonal, so the minimum eigenvalue is a per-atom minimum.
    """
    if not (0.0 < r < 1.0):
        raise ValidationError("scaling radius must lie in (0, 1)")
    for a in mu.atoms:
        scale_point((a.s, a.p), r)  # validates the scaled atom stays in range
    mats = [np.atleast_2d(np.asarray(x, dtype=complex)) for x in phi_scaled_samples]
    if len(mats) != len(mu.atoms):
        raise ValidationError("one sample per atom required")
    worst = np.inf
    d2 = mats[0].shape[0]
    for x in mats:
        gram = x @ x.conj().T - delta * np.eye(d2)
        worst = min(worst, float(np.linalg.eigvalsh((gram + gram.conj().T) / 2)[0]))
    return worst >= -tol, float(worst)


@dataclass(frozen=True)
class ProbeReport:
    max_ratio: float
    worst_poly: int
    is_refuted: bool
    tol: float


def spectral_set_probe(
    pair: OperatorPair,
    degree: int = 4,
    sample_count: int = 100,
    seed: int = 0,
    sup_samples: int = 10000,
    tol: float = 1e-6,
) -> ProbeReport:
    """Sampled necessary-condition probe for the spectral-set inequality.

    Draws seeded random bivariate polynomials of total degree at most
    ``degree`` and compares ||xi(S, P)|| with a sampled sup of |xi| over the
    domain (uniform symmetrized disk pairs plus near-boundary rings).  Ratios
    above 1 + tol refute containment; ratios at or below one are
    inconclusive because the sampled sup only bounds the true sup from below.
    """
    rng = np.random.default_rng(seed)
    s_op, p_op = pair.first, pair.second
    n = pair.dim

    half = sup_samples // 2
    r1 = np.concatenate([np.sqrt(rng.random(half)), np.full(sup_samples - half, 1.0 - 1e-6)])
    r2 = np.concatenate([np.sqrt(rng.random(half)), np.full(sup_samples - half, 1.0 - 1e-6)])
    t1 = rng.random(sup_samples) * 2.0 * np.pi
    t2 = rng.random(sup_samples) * 2.0 * np.pi
    z1 = r1 * np.exp(1j * t1)
    z2 = r2 * np.exp(1j * t2)
    s_vals = z1 + z2
    p_vals = z1 * z2

    monos = [(a, b) for a in range(degree + 1) for b in range(degree + 1) if a + b <= degree]
    s_pows_num = [np.ones_like(s_vals)]
    p_pows_num = [np.ones_like(p_vals)]
    for _ in range(degree):
        s_pows_num.append(s_pows_num[-1] * s_vals)
        p_pows_num.append(p_pows_num[-1] * p_vals)
    s_pows_op = [np.eye(n, dtype=complex)]
    p_pows_op = [np.eye(n, dtype=complex)]
    for _ in range(degree):
        s_pows_op.append(s_pows_op[-1] @ s_op)
        p_pows_op.append(p_pows_op[-1] @ p_op)

    max_ratio = 0.0
    worst = -1
    for k in range(sample_count):
        coeffs = rng.standard_normal(len(monos)) + 1j * rng.standard_normal(len(monos))
        vals = np.zeros_like(s_vals)
        mat = np.zeros((n, n), dtype=complex)
        for c, (a, b) in zip(coeffs, monos):
            vals = vals + c * s_pows_num[a] * p_pows_num[b]
            mat = mat + c * (s_pows_op[a] @ p_pows_op[b])
        sup = float(np.abs(vals).max())
        if sup <= 1e-14:
            continue
        ratio = float(np.linalg.norm(mat, 2)) / sup
        if ratio > max_ratio:
            max_ratio = ratio
            worst = k
    return ProbeReport(
        max_ratio=max_ratio,
        worst_poly=worst,
        is_refuted=max_ratio > 1.0 + tol,
        tol=tol,
    )


def _krylov_rank(s: np.ndarray, p: np.ndarray, weights_sqrt: np.ndarray) -> int:
    m = len(s)
    cols = []
    for a in range(m):
        for b in range(m):
            cols.append((s**a) * (p**b) * weights_sqrt)
    mat = np.stack(cols, axis=1)
    return int(np.linalg.matrix_rank(mat, tol=1e-10 * max(1.0, np.abs(mat).max())))
