"""Finite-matrix operator pairs attached to the closed symmetrized bidisk.

A commuting pair (R, U) is a boundary-unitary pair exactly when U is unitary,
R = R* U, and ||R|| <= 2; replacing "unitary" by "isometry" characterizes the
isometric pairs.  Every pair symmetrized from commuting unitaries passes the
unitary check, and the multiplication pair of a finitely atomic boundary
measure gives the canonical cyclic isometric model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .geometry import BGammaPoint, scale_point

COMMUTATOR_TOL = 1e-10
# Entries a pair may hold: the checks' products of two n x n members then stay
# below n * 1e300, finite for every n a matrix in memory can have.
MAX_PAIR_ENTRY = 1e150
# Atoms an AtomicMeasure may carry.  The model pair and its isometry check
# are dense n x n matrices and the duplicate scan is O(n^2): a 1024-atom
# measure-model costs about 1.7 CPU-s end to end (x86_64, one BLAS thread),
# while 20000 atoms would need several 6.4 GB matrices.
MAX_ATOMS = 1024


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
        if a.shape[0] < 1:
            raise ValidationError("need matrices of size at least 1 x 1")
        top = float(np.abs(np.stack([a, b])).max())
        if not top <= MAX_PAIR_ENTRY:  # NaN fails too
            raise ValidationError(
                f"pair has an entry of modulus {top:.3g}, more than the"
                f" {MAX_PAIR_ENTRY:g} at which its checks stay finite"
            )
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
        if len(self.atoms) > MAX_ATOMS:
            raise ValidationError(f"{len(self.atoms)} atoms, more than the {MAX_ATOMS} allowed")
        if len(self.weights) != len(self.atoms):
            raise ValidationError("one weight per atom required")
        if not all(0 < w < np.inf for w in self.weights):
            raise ValidationError("field 'weights' must be positive and finite")
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


def gamma_unitary_check(pair: OperatorPair, tol: float = 1e-10) -> PairCheck:
    """Passed iff U is unitary, R = R* U, and ||R|| <= 2 (all within tol)."""
    u = pair.second
    eye = np.eye(pair.dim)
    unitary_defect = max(
        float(np.abs(u.conj().T @ u - eye).max()),
        float(np.abs(u @ u.conj().T - eye).max()),
    )
    return _pair_check(pair, unitary_defect, tol)


def gamma_isometry_check(pair: OperatorPair, tol: float = 1e-10) -> PairCheck:
    """Passed iff V is an isometry, T = T* V, and ||T|| <= 2 (all within tol).

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


def symmetrized_pair(u1: np.ndarray, u2: np.ndarray) -> OperatorPair:
    """(U1 + U2, U1 U2) for commuting unitaries; always passes the unitary check."""
    u1 = np.asarray(u1, dtype=complex)
    u2 = np.asarray(u2, dtype=complex)
    eye = np.eye(u1.shape[0])
    for name, u in (("first", u1), ("second", u2)):
        if np.abs(u.conj().T @ u - eye).max(initial=0.0) > 1e-10:
            raise ValidationError(f"{name} factor is not unitary")
    if np.abs(u1 @ u2 - u2 @ u1).max(initial=0.0) > COMMUTATOR_TOL:
        raise ValidationError("factors do not commute")
    return OperatorPair(first=u1 + u2, second=u1 @ u2)


def atomic_h2_model(mu: AtomicMeasure) -> OperatorPair:
    """Multiplication pair of a finitely atomic boundary measure.

    On the weighted space of functions on the atoms the coordinate
    multiplications are diagonal in the weighted orthonormal basis, and the
    pair passes the isometry check.  It is cyclic with the constant function
    because polynomials in (s, p) separate distinct atoms (Lagrange
    interpolation), and AtomicMeasure admits only distinct atoms with
    positive weights, so there is nothing left to verify.
    """
    s = np.array([a.s for a in mu.atoms], dtype=complex)
    p = np.array([a.p for a in mu.atoms], dtype=complex)
    return OperatorPair(first=np.diag(s), second=np.diag(p))


def toeplitz_positivity(
    phi_scaled_samples,
    mu: AtomicMeasure,
    delta: float,
    r: float,
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
    return worst >= -1e-10, float(worst)
