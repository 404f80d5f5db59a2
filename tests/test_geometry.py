import math

import numpy as np
import pytest

from symbidisk import (
    GPoint,
    ValidationError,
    caratheodory_two_point,
    membership,
    phi,
    pseudo_hyperbolic,
    scale_point,
    symmetrize,
)
from symbidisk.geometry import phi_values

from conftest import random_gpoint


def abs_phi_on_circle(theta, s, p):
    al = np.exp(1j * theta)
    return np.abs((2.0 * al * p - s) / (2.0 - al * s))


def sup_phi_on_circle(s, p, n=4096):
    # independent oracle: plain grid maximum, then a second plain grid of n
    # points across the two cells around it (|phi| is unimodal on the circle)
    step = 2.0 * np.pi / n
    coarse = step * np.arange(n)
    k = int(np.argmax(abs_phi_on_circle(coarse, s, p)))
    fine = coarse[k] + step * np.linspace(-1.0, 1.0, n)
    return abs_phi_on_circle(fine, s, p).max()


def phi_distance_on_circle(theta, a, b):
    al = np.exp(1j * theta)
    va, vb = ((2.0 * al * q.p - q.s) / (2.0 - al * q.s) for q in (a, b))
    return np.abs(va - vb) / np.abs(1.0 - vb.conj() * va)


def caratheodory_scan(a, b, n=4096):
    # independent oracle: sup_phi_on_circle's two plain grids, for the
    # pseudo-hyperbolic distance of the two phi images
    step = 2.0 * np.pi / n
    coarse = step * np.arange(n)
    k = int(np.argmax(phi_distance_on_circle(coarse, a, b)))
    fine = coarse[k] + step * np.linspace(-1.0, 1.0, n)
    return phi_distance_on_circle(fine, a, b).max()


def seeded_points(rng, count):
    """Half symmetrized disk pairs, half pairs with one root outside the disk."""
    pts = []
    for _ in range(count):
        z = 0.99 * np.sqrt(rng.random(2)) * np.exp(2j * np.pi * rng.random(2))
        pts.append((z[0] + z[1], z[0] * z[1]))
        z1 = (1.01 + 0.49 * rng.random()) * np.exp(2j * np.pi * rng.random())
        pts.append((z1 + z[1], z1 * z[1]))
    return pts


class TestSymmetrize:
    def test_zero(self):
        q = symmetrize(0.0, 0.0)
        assert q.s == 0 and q.p == 0

    def test_equal_arguments_collapse_phi(self, rng):
        # phi(alpha, 2z, z^2) = -z for every alpha: forced by cancellation
        for _ in range(50):
            z = 0.95 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
            q = symmetrize(z, z)
            assert q.s == pytest.approx(2 * z)
            assert q.p == pytest.approx(z * z)
            for alpha in (0.0, 0.3 + 0.4j, np.exp(1j * 0.7), -1.0):
                assert phi(alpha, q) == pytest.approx(-z, abs=1e-12)

    def test_frozen_example(self):
        q = symmetrize(0.5, 0.3)
        assert q.s == pytest.approx(0.8)
        assert q.p == pytest.approx(0.15)
        assert sup_phi_on_circle(q.s, q.p) < 1.0
        assert membership(q.s, q.p).is_member

    def test_rejects_boundary_inputs(self):
        with pytest.raises(ValidationError):
            symmetrize(1.0, 0.5)
        with pytest.raises(ValidationError):
            symmetrize(0.2, 1.2)

    def test_argument_symmetry(self, rng):
        for _ in range(20):
            z1 = 0.8 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
            z2 = 0.8 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
            a, b = symmetrize(z1, z2), symmetrize(z2, z1)
            assert a.s == pytest.approx(b.s) and a.p == pytest.approx(b.p)


class TestPhi:
    def test_alpha_zero(self, rng):
        for _ in range(10):
            q = random_gpoint(rng)
            assert phi(0.0, q) == pytest.approx(-q.s / 2)

    def test_origin_point(self):
        for alpha in (0.0, 0.5, 1j, -1.0):
            assert phi(alpha, GPoint(0.0, 0.0)) == 0

    def test_hand_arithmetic(self):
        # (2*1*0.15 - 0.8) / (2 - 1*0.8) = -0.5 / 1.2
        assert phi(1.0, GPoint(0.8, 0.15)) == pytest.approx(-0.5 / 1.2)

    def test_rejects_large_alpha(self):
        with pytest.raises(ValidationError):
            phi(1.2, GPoint(0.1, 0.0))

    def test_division_guard_on_corrupted_input(self):
        # cannot occur for member points; a vanishing denominator means the
        # input violated |s| < 2
        with pytest.raises(ValidationError, match="denominator"):
            phi(1.0, GPoint(2.0, 1.0))

    def test_vectorized_matches_scalar(self, rng):
        alphas = np.array([0.0, 0.3 + 0.1j, np.exp(1j)])
        pts = [random_gpoint(rng) for _ in range(4)]
        table = phi_values(alphas, np.array([q.s for q in pts]), np.array([q.p for q in pts]))
        for i, al in enumerate(alphas):
            for j, q in enumerate(pts):
                assert table[i, j] == pytest.approx(phi(al, q))


class TestMembership:
    def test_origin(self):
        rep = membership(0.0, 0.0)
        assert rep.is_member and rep.sup_modulus == pytest.approx(0.0, abs=1e-15)

    def test_boundary_pair(self):
        # symmetrize(1, 1) = (2, 1): phi == -1 identically
        rep = membership(2.0, 1.0)
        assert not rep.is_member
        assert rep.reason == "s out of range"
        assert rep.sup_modulus == pytest.approx(1.0, abs=1e-9)
        assert rep.is_boundary

    def test_interior_example(self):
        rep = membership(0.8, 0.15)
        assert rep.is_member
        assert rep.sup_modulus == pytest.approx(sup_phi_on_circle(0.8, 0.15), abs=1e-9)

    def test_closed_form_matches_grid_oracle(self, rng):
        for s, p in seeded_points(rng, 100):
            if abs(abs(s) - 2.0) < 0.05:
                continue  # near the pole the grid oracle cannot resolve the peak
            rep = membership(s, p)
            sup = sup_phi_on_circle(s, p)
            assert rep.sup_modulus == pytest.approx(sup, rel=1e-9, abs=1e-9)
            assert abs(rep.argmax_alpha) == pytest.approx(1.0, abs=1e-12)
            attained = abs_phi_on_circle(np.angle(rep.argmax_alpha), s, p)
            assert attained == pytest.approx(rep.sup_modulus, rel=1e-9, abs=1e-9)

    def test_s_zero_every_alpha_attains(self):
        # phi(alpha, 0, p) = alpha * p
        rep = membership(0.0, 0.6j)
        assert rep.is_member
        assert rep.sup_modulus == pytest.approx(0.6, abs=1e-15)
        assert rep.argmax_alpha == 1.0

    def test_constant_phi_when_s_squared_is_4p(self):
        # (s, p) = (2z, z^2): phi == -z for every alpha
        z = 0.3 - 0.4j
        rep = membership(2.0 * z, z * z)
        assert rep.is_member
        assert rep.sup_modulus == pytest.approx(abs(z), abs=1e-15)
        # 0.2^2 - 4 * 0.01 rounds to 7e-18, not 0: the argmax must stay defined
        rep = membership(0.2, 0.01)
        assert rep.sup_modulus == pytest.approx(0.1, abs=1e-15)
        assert abs(rep.argmax_alpha) == pytest.approx(1.0, abs=1e-12)

    def test_pole_on_circle_gives_unbounded_sup(self):
        # |s| = 2 with s^2 != 4p: the image of the circle is a line
        rep = membership(2.0, 0.5)
        assert not rep.is_member
        assert rep.reason == "s out of range"
        assert rep.sup_modulus == math.inf
        assert not rep.is_boundary

    @pytest.mark.parametrize("s, p", [(0.1, 1e308), (0.1, 1e308j), (1.9999, 1e305)])
    def test_overflowing_terms_are_an_input_magnitude_error(self, s, p):
        # 4p, or k = (4p - s^2) / (4 - |s|^2), overflows: no finite sup or argmax
        with pytest.raises(OverflowError, match="not finite"):
            membership(s, p)

    def test_members_from_disk_pairs(self, rng):
        for _ in range(50):
            q = random_gpoint(rng, rmax=0.99)
            assert membership(q.s, q.p).is_member

    def test_non_members_detected(self, rng):
        for _ in range(50):
            r1 = 1.01 + 0.4 * rng.random()
            z1 = r1 * np.exp(2j * np.pi * rng.random())
            z2 = 0.95 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
            s, p = z1 + z2, z1 * z2
            assert not membership(s, p).is_member


class TestScalePoint:
    def test_r_zero(self):
        q = scale_point(GPoint(0.8, 0.15), 0.0)
        assert q.s == 0 and q.p == 0

    def test_closed_domain_moves_inside(self):
        q = scale_point(GPoint(2.0, 1.0), 0.5)
        assert q.s == pytest.approx(1.0) and q.p == pytest.approx(0.25)
        assert membership(q.s, q.p).is_member

    def test_arithmetic(self):
        q = scale_point(GPoint(0.8, 0.15), 0.9)
        assert q.s == pytest.approx(0.72) and q.p == pytest.approx(0.1215)

    def test_rejects_bad_radius(self):
        with pytest.raises(ValidationError):
            scale_point(GPoint(0.1, 0.0), 1.0)
        with pytest.raises(ValidationError):
            scale_point(GPoint(0.1, 0.0), -0.1)

    def test_closed_samples_land_inside(self, rng):
        for _ in range(25):
            th = rng.random(2) * 2 * np.pi
            z1, z2 = np.exp(1j * th[0]), np.exp(1j * th[1])  # closed-boundary pair
            s, p = z1 + z2, z1 * z2
            if abs(s) > 2.0 - 1e-12:
                continue
            q = scale_point((s, p), 0.999)
            assert membership(q.s, q.p).is_member


class TestCaratheodoryTwoPoint:
    def test_identical_points(self):
        q = GPoint(0.8, 0.15)
        assert caratheodory_two_point(q, q) == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_closed_form(self):
        # phi images are constant -+0.5; pseudo-hyperbolic d = 1 / 1.25
        a, b = GPoint(1.0, 0.25), GPoint(-1.0, 0.25)
        assert caratheodory_two_point(a, b) == pytest.approx(0.8, abs=1e-12)

    def test_origin_to_diagonal_in_unit_interval(self):
        v = caratheodory_two_point(GPoint(0.0, 0.0), GPoint(1.0, 0.25))
        assert 0.0 < v < 1.0

    def test_requires_members(self):
        with pytest.raises(ValidationError):
            caratheodory_two_point(GPoint(2.0, 1.0), GPoint(0.0, 0.0))

    def test_pseudo_metric_on_triples(self, rng):
        pts = [random_gpoint(rng, 0.7) for _ in range(3)]
        d01 = caratheodory_two_point(pts[0], pts[1])
        d10 = caratheodory_two_point(pts[1], pts[0])
        d02 = caratheodory_two_point(pts[0], pts[2])
        d12 = caratheodory_two_point(pts[1], pts[2])
        assert d01 == pytest.approx(d10, abs=1e-12)
        assert d02 <= d01 + d12 + 1e-6  # triangle within grid tolerance

    @pytest.mark.parametrize("rmax, gap", [(0.95, 1e-11), (0.999, 1e-10)])
    def test_matches_a_dense_scan(self, rng, rmax, gap):
        # the closed form is the circle maximum: no sampled alpha exceeds it,
        # and the scan's grid comes within its step of it
        for _ in range(100):
            a, b = random_gpoint(rng, rmax), random_gpoint(rng, rmax)
            value = caratheodory_two_point(a, b)
            scan = caratheodory_scan(a, b)
            assert scan - 1e-14 <= value <= scan + gap, (a, b, value - scan)

    @pytest.mark.parametrize("variety", ["royal", "flat"])
    def test_disk_distance_on_a_variety(self, rng, variety):
        # phi(alpha, .) is -z at royal nodes (2 z, z^2) and alpha z at flat
        # nodes (0, z): every alpha attains the disk distance
        for _ in range(50):
            z, w = 0.99 * np.sqrt(rng.random(2)) * np.exp(2j * np.pi * rng.random(2))
            pair = [(2 * x, x * x) if variety == "royal" else (0.0, x) for x in (z, w)]
            assert caratheodory_two_point(*pair) == pytest.approx(
                pseudo_hyperbolic(z, w), rel=1e-12, abs=1e-15)


def test_pseudo_hyperbolic_basics():
    assert pseudo_hyperbolic(0.5, 0.5) == 0
    assert pseudo_hyperbolic(-0.5, 0.5) == pytest.approx(0.8)


def test_membership_scaled_gamma_corpus(rng):
    # closed-domain points pushed inside by any r <= 0.999
    for _ in range(10):
        th = rng.random(2) * 2 * np.pi
        z1, z2 = np.exp(1j * th[0]), np.exp(1j * th[1])
        s, p = z1 + z2, z1 * z2
        if abs(s) > 1.999:
            continue
        for r in (0.3, 0.9, 0.999):
            q = scale_point((s, p), r)
            assert membership(q.s, q.p).is_member
