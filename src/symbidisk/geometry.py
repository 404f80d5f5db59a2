"""Points and maps of the symmetrized bidisk.

The open symmetrized bidisk is the set of (s, p) = (z1 + z2, z1 * z2) with
both z's in the open unit disk.  Its function theory is driven by the family
of coordinate functions

    phi(alpha, s, p) = (2*alpha*p - s) / (2 - alpha*s),      |alpha| <= 1,

each a unit-ball holomorphic function of (s, p).  A pair (s, p) with |s| < 2
belongs to the open domain exactly when sup over |alpha| <= 1 of
|phi(alpha, s, p)| is < 1; since alpha -> phi(alpha, s, p) is a Moebius map
with pole at 2/s outside the closed disk, the sup is attained on the unit
circle, whose image is a circle with explicit centre and radius, so
:func:`membership` evaluates the sup in closed form.

All operations here are pure functions of their inputs; values are immutable
and safe to share across threads.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

DEFAULT_MEMBERSHIP_TOL = 1e-10


@dataclass(frozen=True)
class GPoint:
    """A candidate point (s, p) of the symmetrized bidisk.

    Construction does not enforce membership; call :func:`membership` (or use
    :func:`require_member`) where the open-domain invariant matters.
    """

    s: complex
    p: complex

    def as_pair(self) -> tuple[complex, complex]:
        return (complex(self.s), complex(self.p))


@dataclass(frozen=True)
class BGammaPoint:
    """A point of the distinguished boundary: |p| = 1 and s = conj(s) * p."""

    s: complex
    p: complex

    TOL = 1e-8

    def __post_init__(self):
        s, p = complex(self.s), complex(self.p)
        if not abs(abs(p) - 1.0) <= self.TOL:
            raise ValidationError(f"boundary point needs |p| = 1, got |p| = {abs(p)}")
        if not abs(s - s.conjugate() * p) <= self.TOL:
            raise ValidationError("boundary point needs s = conj(s) * p")
        if not abs(s) <= 2.0 + self.TOL:
            raise ValidationError(f"boundary point needs |s| <= 2, got {abs(s)}")


@dataclass(frozen=True)
class MembershipReport:
    """Outcome of the sup|phi| membership test.

    ``is_member`` uses the strict open-domain reading sup < 1 - tolerance.
    ``is_boundary`` flags the band |sup - 1| <= tolerance, where the open and
    closed readings of the domain disagree; callers decide how to treat it.
    """

    is_member: bool
    sup_modulus: float
    argmax_alpha: complex
    tolerance: float
    is_boundary: bool = False
    reason: str = ""


def phi(alpha: complex, point: GPoint | tuple[complex, complex]) -> complex:
    """Coordinate function (2*alpha*p - s) / (2 - alpha*s).

    Requires |alpha| <= 1 and |s| < 2 so the denominator stays away from
    zero; a vanishing denominator signals corrupted input.
    """
    s, p = _coords(point)
    if not abs(alpha) <= 1.0 + 1e-12:
        raise ValidationError(f"|alpha| <= 1 required, got {abs(alpha)}")
    den = 2.0 - alpha * s
    if abs(den) < 1e-14:
        raise ValidationError("phi denominator vanished; point outside |s| < 2")
    return (2.0 * alpha * p - s) / den


def phi_values(alphas: np.ndarray, s: np.ndarray, p: np.ndarray) -> np.ndarray:
    """phi on an alpha grid times a node list, shape (len(alphas), len(s))."""
    al = np.asarray(alphas, dtype=complex).reshape(-1, 1)
    sv = np.asarray(s, dtype=complex).reshape(1, -1)
    pv = np.asarray(p, dtype=complex).reshape(1, -1)
    den = 2.0 - al * sv
    if np.any(np.abs(den) < 1e-14):
        raise ValidationError("phi denominator vanished on the grid")
    return (2.0 * al * pv - sv) / den


def symmetrize(z1: complex, z2: complex) -> GPoint:
    """Map a pair of open-disk points to (z1 + z2, z1 * z2)."""
    if not (abs(z1) < 1.0 and abs(z2) < 1.0):
        raise ValidationError(
            f"symmetrize needs |z| < 1 inputs, got |z1| = {abs(z1)}, |z2| = {abs(z2)}"
        )
    return GPoint(z1 + z2, z1 * z2)


def scale_point(point: GPoint | tuple[complex, complex], r: float) -> GPoint:
    """Radial scaling (s, p) -> (r*s, r^2*p).

    Accepts any point of the closed domain (|s| <= 2); for r < 1 the image of
    a closed-domain point lies in the open domain.
    """
    if not (0.0 <= r < 1.0):
        raise ValidationError(f"scaling radius must lie in [0, 1), got {r}")
    s, p = _coords(point)
    if not abs(s) <= 2.0 + 1e-12:
        raise ValidationError(f"|s| <= 2 required, got {abs(s)}")
    return GPoint(r * s, r * r * p)


def membership(
    s: complex, p: complex, tol: float = DEFAULT_MEMBERSHIP_TOL
) -> MembershipReport:
    """Closed-form sup over |alpha| = 1 of |phi(alpha, s, p)|, and classify.

    For |s| != 2, phi = w0 + k (2 alpha - conj(s)) / (2 - s alpha) with
    w0 = 2 (conj(s) p - s) / (4 - |s|^2) and k = (4p - s^2) / (4 - |s|^2); the
    last factor is unimodular on the circle, so the sup is |w0| + |k| (Agler &
    Young, J. Geom. Anal. 2004), attained where that factor points along w0 / k.
    If w0 = 0 or s^2 = 4p (phi constant -s/2), every alpha attains the sup and
    ``argmax_alpha`` is 1.  If |s| = 2 and s^2 != 4p the pole 2/s lies on the
    circle: the sup is ``math.inf`` and ``argmax_alpha`` is the pole.  Points
    with |s| >= 2 are non-members ("s out of range").  OverflowError, an
    input-magnitude error, when s^2 - 4p, w0 or k overflows a double.
    """
    s, p = complex(s), complex(p)
    det = s * s - 4.0 * p
    den = 4.0 - abs(s) ** 2
    _require_finite(s, p, det)
    if det == 0:
        sup, arg = abs(s) / 2.0, 1.0 + 0.0j
    elif den == 0:
        sup, arg = math.inf, 2.0 / s
    else:
        w0 = 2.0 * (s.conjugate() * p - s) / den
        k = -det / den
        _require_finite(s, p, w0, k)
        sup = abs(w0) + abs(k)
        if w0 == 0:
            arg = 1.0 + 0.0j
        else:
            v = (w0 / abs(w0)) * (abs(k) / k)
            arg = (2.0 * v + s.conjugate()) / (2.0 + v * s)

    in_range = abs(s) < 2.0
    return MembershipReport(
        is_member=in_range and sup < 1.0 - tol,
        sup_modulus=sup,
        argmax_alpha=arg,
        tolerance=tol,
        is_boundary=abs(sup - 1.0) <= tol,
        reason="" if in_range else "s out of range",
    )


def _require_finite(s: complex, p: complex, *terms: complex) -> None:
    if not all(cmath.isfinite(v) for v in terms):
        raise OverflowError(f"the membership terms of ({s}, {p}) are not finite")


def require_member(point: GPoint | tuple[complex, complex]) -> GPoint:
    """Return the point as a GPoint, raising if it fails membership."""
    s, p = _coords(point)
    rep = membership(s, p)
    if not rep.is_member:
        raise ValidationError(
            f"point ({s}, {p}) is not in the open domain (sup|phi| = {rep.sup_modulus:.6g})"
        )
    return GPoint(s, p)


def pseudo_hyperbolic(a: complex, b: complex) -> float:
    """Disk pseudo-hyperbolic distance |a - b| / |1 - conj(b)*a|."""
    den = 1.0 - b.conjugate() * a
    if abs(den) < 1e-15:
        return 1.0 if abs(a - b) > 0 else 0.0
    return abs((a - b) / den)


def caratheodory_two_point(
    a: GPoint | tuple[complex, complex],
    b: GPoint | tuple[complex, complex],
) -> float:
    """Two-point extremal distance through the coordinate family, in closed form.

    The largest pseudo-hyperbolic distance of (phi(alpha, a), phi(alpha, b))
    over |alpha| = 1.  Serves as the two-point solvability oracle: a two-node
    problem with unit bound is solvable exactly when the target
    pseudo-hyperbolic distance does not exceed this value.

    With a_i = 2 p_i and b_i = s_i the distance on the circle is |N| / |M|
    for the quadratics N(w) = -(a1 b2 - a2 b1) w^2 + 2 (a1 - a2) w - 2 (b1 - b2)
    and M(w) = (a1 conj(b2) - 2 b1) w^2 + (4 - conj(a2) a1) w + conj(a2) b1
    - 2 conj(b2) (the moduli of phi's denominators cancel).  There
    |N|^2 / |M|^2 = P / Q with P = N * w^2 conj(N(1 / conj(w))) and Q alike,
    so the maximum sits at a unimodular root of P'Q - PQ' (degree <= 6):
    each root, pushed onto the circle, is a candidate.  P'Q - PQ' vanishes
    identically only where P / Q is constant (royal and flat pairs); then
    every alpha is a maximum, and alpha = 1 is the one fallback, for when
    np.roots finds no root.
    """
    sa, pa = _coords(a)
    sb, pb = _coords(b)
    for s, p in ((sa, pa), (sb, pb)):
        if not membership(s, p).is_member:
            raise ValidationError("caratheodory_two_point needs member points")

    a1, a2 = 2.0 * pa, 2.0 * pb
    n = np.array([a2 * sa - a1 * sb, 2.0 * (a1 - a2), 2.0 * (sb - sa)])
    m = np.array([a1 * sb.conjugate() - 2.0 * sa, 4.0 - a2.conjugate() * a1,
                  a2.conjugate() * sa - 2.0 * sb.conjugate()])
    big_p, big_q = np.polymul(n, n[::-1].conj()), np.polymul(m, m[::-1].conj())
    roots = np.roots(np.polysub(np.polymul(np.polyder(big_p), big_q),
                                np.polymul(big_p, np.polyder(big_q))))
    roots = roots[roots != 0]
    w = np.append(roots / np.abs(roots), 1.0)
    return float(np.max(np.abs(np.polyval(n, w)) / np.abs(np.polyval(m, w))))


def _coords(point) -> tuple[complex, complex]:
    if isinstance(point, GPoint):
        return point.as_pair()
    s, p = point
    return complex(s), complex(p)
