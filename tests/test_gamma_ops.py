import numpy as np
import pytest

from symbidisk import (
    AtomicMeasure,
    BGammaPoint,
    OperatorPair,
    ValidationError,
    atomic_h2_model,
    gamma_isometry_check,
    gamma_unitary_check,
    symmetrized_pair,
    toeplitz_positivity,
)
from symbidisk.cli import execute_problem

from conftest import MEASURE_REPORT_FIELDS


def random_commuting_unitaries(rng, dim):
    q = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0]
    d1 = np.exp(2j * np.pi * rng.random(dim))
    d2 = np.exp(2j * np.pi * rng.random(dim))
    return q @ np.diag(d1) @ q.conj().T, q @ np.diag(d2) @ q.conj().T


def boundary_atoms(rng, m):
    out = []
    while len(out) < m:
        t1, t2 = rng.random(2) * 2 * np.pi
        z1, z2 = np.exp(1j * t1), np.exp(1j * t2)
        cand = BGammaPoint(z1 + z2, z1 * z2)
        if all(abs(cand.s - a.s) + abs(cand.p - a.p) > 1e-6 for a in out):
            out.append(cand)
    return tuple(out)


class TestUnitaryCheck:
    def test_frozen_diagonal_example(self):
        u1, u2 = np.diag([1.0, 1j]), np.diag([-1.0, 1.0])
        pair = OperatorPair(first=u1 + u2, second=u1 @ u2)
        check = gamma_unitary_check(pair)
        assert check.passed
        assert check.norm_first == pytest.approx(np.sqrt(2.0))

    def test_zero_identity(self):
        pair = OperatorPair(first=np.zeros((2, 2)), second=np.eye(2))
        assert gamma_unitary_check(pair).passed

    def test_norm_violation(self):
        pair = OperatorPair(first=3.0 * np.eye(2), second=np.eye(2))
        check = gamma_unitary_check(pair)
        assert not check.passed
        assert check.norm_first > 2.0

    def test_rejects_non_commuting(self):
        with pytest.raises(ValidationError):
            OperatorPair(
                first=np.array([[0.0, 1.0], [0.0, 0.0]]),
                second=np.array([[1.0, 0.0], [0.0, 2.0]]),
            )


class TestIsometryCheck:
    def test_unitary_pairs_pass(self, rng):
        u1, u2 = random_commuting_unitaries(rng, 4)
        pair = symmetrized_pair(u1, u2)
        assert gamma_unitary_check(pair).passed
        assert gamma_isometry_check(pair).passed

    def test_contraction_fails(self):
        pair = OperatorPair(first=np.eye(2), second=0.5 * np.eye(2))
        assert not gamma_isometry_check(pair).passed

    def test_atomic_model_passes(self, rng):
        mu = AtomicMeasure(atoms=boundary_atoms(rng, 4), weights=(1.0, 0.5, 2.0, 0.25))
        assert gamma_isometry_check(atomic_h2_model(mu)).passed


class TestSymmetrizedPair:
    def test_identity_pair(self):
        pair = symmetrized_pair(np.eye(3), np.eye(3))
        assert np.allclose(pair.first, 2 * np.eye(3))
        assert np.allclose(pair.second, np.eye(3))

    def test_random_pairs_pass_check(self, rng):
        for dim in (2, 4, 8):
            u1, u2 = random_commuting_unitaries(rng, dim)
            assert gamma_unitary_check(symmetrized_pair(u1, u2)).passed

    def test_opposite_phases(self):
        th = 0.7
        u1 = np.exp(1j * th) * np.eye(2)
        u2 = np.exp(-1j * th) * np.eye(2)
        pair = symmetrized_pair(u1, u2)
        assert np.allclose(pair.first, 2 * np.cos(th) * np.eye(2))
        assert np.allclose(pair.second, np.eye(2))

    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            symmetrized_pair(0.5 * np.eye(2), np.eye(2))


class TestAtomicModel:
    def test_single_atom(self):
        mu = AtomicMeasure(atoms=(BGammaPoint(2.0, 1.0),), weights=(1.0,))
        pair = atomic_h2_model(mu)
        assert np.allclose(pair.first, [[2.0]])
        assert np.allclose(pair.second, [[1.0]])
        assert gamma_isometry_check(pair).passed

    def test_random_draws_pass(self, rng):
        for _ in range(16):
            m = int(rng.integers(1, 5))
            mu = AtomicMeasure(
                atoms=boundary_atoms(rng, m), weights=tuple(0.5 + rng.random(m))
            )
            assert gamma_isometry_check(atomic_h2_model(mu)).passed

    def test_forty_random_boundary_atoms_are_accepted(self):
        # distinct atoms (min |ds| + |dp| is 0.071) whose monomial columns
        # s^a p^b span magnitudes up to 2^39, so a numerical rank test of that
        # span would call them not separable
        rng = np.random.default_rng(0)
        z = np.exp(2j * np.pi * rng.random((2, 40)))
        s, p = z[0] + z[1], z[0] * z[1]
        rows = [[a.real, a.imag, b.real, b.imag] for a, b in zip(s, p)]
        report = execute_problem(
            {"format": 1, "kind": "measure-model", "payload": {"atoms": rows}}
        )
        assert report["dim"] == 40
        assert report["isometry_passed"] is True
        assert set(report) == MEASURE_REPORT_FIELDS

    def test_duplicate_atoms_rejected(self):
        with pytest.raises(ValidationError):
            AtomicMeasure(
                atoms=(BGammaPoint(2.0, 1.0), BGammaPoint(2.0, 1.0)),
                weights=(1.0, 1.0),
            )


class TestToeplitzPositivity:
    def test_constant_symbol(self, rng):
        mu = AtomicMeasure(atoms=boundary_atoms(rng, 3), weights=(1.0, 1.0, 1.0))
        c = 0.5
        samples = [np.array([[c]]) for _ in range(3)]
        ok, lam = toeplitz_positivity(samples, mu, delta=0.2, r=0.5)
        assert ok
        assert lam == pytest.approx(c * c - 0.2, abs=1e-12)

    def test_delta_monotone(self, rng):
        mu = AtomicMeasure(atoms=boundary_atoms(rng, 3), weights=(1.0, 2.0, 0.5))
        samples = [
            np.array([[0.3 + 0.1j, 0.4]]),
            np.array([[0.5, 0.1]]),
            np.array([[0.2, 0.6j]]),
        ]
        lams = [
            toeplitz_positivity(samples, mu, delta=d, r=0.9)[1]
            for d in (0.05, 0.2, 0.5)
        ]
        assert lams[0] > lams[1] > lams[2]

    def test_oversized_delta_negative(self, rng):
        mu = AtomicMeasure(atoms=boundary_atoms(rng, 2), weights=(1.0, 1.0))
        samples = [np.array([[0.3]]), np.array([[0.2]])]
        ok, lam = toeplitz_positivity(samples, mu, delta=0.5, r=0.5)
        assert not ok and lam < 0

    def test_radius_validation(self, rng):
        mu = AtomicMeasure(atoms=boundary_atoms(rng, 1), weights=(1.0,))
        with pytest.raises(ValidationError):
            toeplitz_positivity([np.eye(1)], mu, delta=0.1, r=1.0)


class TestCrossModuleToeplitzEcho:
    def test_solved_corona_instance_stays_positive(self, rng, solver_grid):
        # a row with a known contractive factor satisfies the boundary-measure
        # positivity at every sampled radius: the per-atom norm of Phi at the
        # scaled atom dominates the constant channel, which dominates delta
        from symbidisk import CoronaProblem, SolveStatus, phi, scale_point, solve_corona

        from conftest import random_nodes

        c0 = 0.75
        delta = 0.8 * c0 * c0
        alpha = solver_grid.alphas[2]

        def row(point):
            return np.array([[0.4 * phi(alpha, point), c0]])

        nodes = random_nodes(rng, 3)
        problem = CoronaProblem(
            nodes=nodes, phi_samples=tuple(row(q) for q in nodes.points), delta=delta
        )
        sol = solve_corona(problem, solver_grid)
        assert sol.status is SolveStatus.FEASIBLE
        assert sol.interpolant.norm <= 1.0 + 1e-8

        mu = AtomicMeasure(atoms=boundary_atoms(rng, 4), weights=(1.0, 0.5, 2.0, 1.5))
        for r in (0.5, 0.9, 0.99):
            samples = [row(scale_point((a.s, a.p), r)) for a in mu.atoms]
            ok, lam = toeplitz_positivity(samples, mu, delta=delta, r=r)
            assert ok, f"positivity lost at r = {r}: {lam}"
