import time

import numpy as np
import pytest

from symbidisk import (
    CoronaProblem,
    NodeSet,
    SolveStatus,
    ValidationError,
    admissibility_check,
    phi,
    solve_corona,
)
from symbidisk.hermitian import min_eigenvalue
from symbidisk.realization import factor_target, transfer_eval_batch

from conftest import disc_whitened, random_nodes, variety_nodes


def constant_row_problem(nodes, delta=1.0):
    row = np.array([[1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)]])
    return CoronaProblem(
        nodes=nodes, phi_samples=tuple(row for _ in nodes.points), delta=delta
    )


def coordinate_and_constant_problem(nodes, delta=0.5):
    # Phi = (phi(0, .), 1) / sqrt(2): known analytic factor (0, sqrt(2 delta))
    phis = tuple(
        np.array([[phi(0.0, q), 1.0]]) / np.sqrt(2.0) for q in nodes.points
    )
    return CoronaProblem(nodes=nodes, phi_samples=phis, delta=delta)


class TestAssemble:
    def test_constant_row_cancels(self, rng):
        nodes = random_nodes(rng, 3)
        prob = constant_row_problem(nodes, delta=1.0)
        target = factor_target(prob)
        assert np.abs(target.matrix).max() <= 1e-12

    def test_coordinate_row_rank_one(self, rng):
        nodes = random_nodes(rng, 3)
        prob = coordinate_and_constant_problem(nodes, 0.5)
        target = factor_target(prob)
        vals = np.array([phi(0.0, q) for q in nodes.points])
        expected = np.outer(vals, vals.conj()) / 2.0
        assert np.abs(target.matrix - expected).max() <= 1e-12
        lam = np.linalg.eigvalsh(target.matrix)
        assert lam[0] >= -1e-12

    def test_oversized_delta_negative_diagonal(self, rng):
        nodes = random_nodes(rng, 2)
        prob = constant_row_problem(nodes, delta=1.5)
        target = factor_target(prob)
        assert np.real(np.diag(target.matrix)).min() < 0


    def test_matches_per_block_loop(self, rng):
        nodes = random_nodes(rng, 3)
        def sample(shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        phis = tuple(sample((2, 3)) for _ in range(3))
        thetas = tuple(sample((2, 2)) for _ in range(3))
        problem = CoronaProblem(nodes=nodes, phi_samples=phis, delta=0.5, theta_samples=thetas)
        expected = np.zeros((6, 6), dtype=complex)
        for i in range(3):
            for k in range(3):
                expected[2 * i : 2 * i + 2, 2 * k : 2 * k + 2] = (
                    phis[i] @ phis[k].conj().T - thetas[i] @ thetas[k].conj().T
                )
        got = factor_target(problem).matrix
        assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()


class TestSolveCorona:
    def test_constant_row(self, rng, solver_grid):
        nodes = random_nodes(rng, 3)
        sol = solve_corona(constant_row_problem(nodes, delta=1.0), solver_grid)
        assert sol.status is SolveStatus.FEASIBLE
        assert sol.node_residual <= 1e-8
        assert sol.interpolant.norm <= 1.0 + 1e-8
        vals = transfer_eval_batch(sol.interpolant, nodes.s, nodes.p)
        row = np.array([[1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)]])
        for v in vals:
            assert abs((row @ v)[0, 0] - 1.0) <= 1e-8

    def test_planted_coordinate_row(self, rng, solver_grid):
        nodes = random_nodes(rng, 3)
        prob = coordinate_and_constant_problem(nodes, delta=0.5)
        sol = solve_corona(prob, solver_grid)
        assert sol.status is SolveStatus.FEASIBLE
        assert sol.node_residual <= 1e-7
        assert sol.interpolant.norm <= 1.0 + 1e-8
        # classical bookkeeping: psi / sqrt(delta) within 1 / sqrt(delta)
        assert sol.interpolant.norm / np.sqrt(prob.delta) <= 1.0 / np.sqrt(prob.delta) + 1e-8

    def test_single_function_diagonal_necessity(self, solver_grid):
        # one function vanishing nearly at a node: delta above min |phi|^2
        # violates the diagonal, hence certified infeasible
        nodes = NodeSet.from_pairs([(0.1, 0.02), (0.8, 0.15)])
        phis = tuple(np.array([[phi(0.0, q)]]) for q in nodes.points)
        small = min(abs(m[0, 0]) ** 2 for m in phis)
        prob = CoronaProblem(nodes=nodes, phi_samples=phis, delta=2.0 * small + 0.05)
        sol = solve_corona(prob, solver_grid)
        assert sol.status is SolveStatus.INFEASIBLE_CERTIFIED

    def test_delta_monotonicity(self, rng, solver_grid):
        nodes = random_nodes(rng, 2)
        prob = coordinate_and_constant_problem(nodes, delta=0.5)
        sol = solve_corona(prob, solver_grid)
        assert sol.status is SolveStatus.FEASIBLE
        smaller = CoronaProblem(
            nodes=nodes, phi_samples=prob.phi_samples, delta=0.25
        )
        assert solve_corona(smaller, solver_grid).status is SolveStatus.FEASIBLE

    def test_unitary_rotation_invariance(self, rng):
        nodes = random_nodes(rng, 2)
        base = tuple(
            np.vstack(
                [
                    np.array([0.4 * phi(0.0, q), 0.7]),
                    np.array([0.1, 0.5 * phi(0.5, q)]),
                ]
            )
            for q in nodes.points
        )
        prob = CoronaProblem(nodes=nodes, phi_samples=base, delta=0.1)
        w = np.linalg.qr(
            rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        )[0]
        # an input-side rotation Phi -> Phi W cancels in Phi Phi* and leaves
        # the target unchanged entrywise
        right = CoronaProblem(
            nodes=nodes, phi_samples=tuple(m @ w for m in base), delta=0.1
        )
        t0 = factor_target(prob)
        t1 = factor_target(right)
        assert np.abs(t0.matrix - t1.matrix).max() <= 1e-10
        # an output-side rotation conjugates each block, preserving spectra
        left = CoronaProblem(
            nodes=nodes,
            phi_samples=tuple(w @ m for m in base),
            delta=0.1,
            theta_samples=tuple(w @ t for t in prob.theta_samples),
        )
        t2 = factor_target(left)
        lam0 = np.linalg.eigvalsh(t0.matrix)
        big_w = np.kron(np.eye(2), w)
        assert np.abs(big_w @ t0.matrix @ big_w.conj().T - t2.matrix).max() <= 1e-10
        assert np.abs(np.linalg.eigvalsh(t2.matrix) - lam0).max() <= 1e-10


class TestVerifyLeftInverse:
    """The left-inverse audit that solve_corona records on its solution."""

    def test_constant_case_zero_residual(self, rng, solver_grid):
        nodes = random_nodes(rng, 2)
        prob = constant_row_problem(nodes, delta=1.0)
        sol = solve_corona(prob, solver_grid)
        assert sol.interpolant is not None
        assert sol.node_residual <= 1e-8
        assert sol.interpolant.norm <= 1.0 + 1e-8

    def test_planted_rerun(self, rng, solver_grid):
        nodes = random_nodes(rng, 3)
        prob = coordinate_and_constant_problem(nodes, 0.5)
        sol = solve_corona(prob, solver_grid)
        assert sol.node_residual <= 1e-7

    def test_off_node_sampling_with_evaluator(self, rng, solver_grid):
        nodes = random_nodes(rng, 3)
        prob = coordinate_and_constant_problem(nodes, 0.5)
        sol = solve_corona(prob, solver_grid)
        # symmetrized pairs of seeded points of the disk of radius 0.98
        r = np.sqrt(rng.random((2, 200))) * 0.98
        z1, z2 = r * np.exp(2j * np.pi * rng.random((2, 200)))
        s, p = z1 + z2, z1 * z2
        psis = transfer_eval_batch(sol.interpolant, s, p)
        theta = np.sqrt(0.5)
        residual = max(
            float(np.abs(np.array([[phi(0.0, (sk, pk)), 1.0]]) / np.sqrt(2.0) @ v - theta).max())
            for sk, pk, v in zip(s, p, psis)
        )
        # the factorization identity extends off the nodes up to the margin
        # left by the finite grid; sampled residual stays bounded by it
        assert residual <= 1.0

    def test_skipped_when_infeasible(self, rng, solver_grid):
        nodes = random_nodes(rng, 2)
        prob = constant_row_problem(nodes, delta=1.5)
        sol = solve_corona(prob, solver_grid)
        assert sol.interpolant is None
        assert sol.node_residual is None


@pytest.mark.parametrize("variety", ["royal", "flat"])
def test_decisions_at_the_exact_corona_threshold(variety, solver_grid):
    # Every atom has the disc's mask at these nodes, so the largest feasible
    # delta is the disc's, delta* = lambda_min(L^-1 ((Phi Phi*) . P) L^-*);
    # the float oracle is good to far better than 1e-3 at n <= 6.
    rng = np.random.default_rng(5)
    t0 = time.process_time()
    for n in range(2, 7):
        for draw in range(5):
            z, nodes = variety_nodes(rng, variety, n)
            rows = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
            exact = np.linalg.eigvalsh(disc_whitened(z, rows @ rows.conj().T))[0]
            phis = tuple(row[None, :] for row in rows)

            below = solve_corona(CoronaProblem(nodes, phis, exact * (1 - 1e-3)), solver_grid)
            assert below.status is SolveStatus.FEASIBLE, (n, draw)
            assert below.node_residual <= 1e-7, (n, draw)

            problem = CoronaProblem(nodes, phis, exact * (1 + 1e-3))
            above = solve_corona(problem, solver_grid)
            assert above.status is SolveStatus.INFEASIBLE_CERTIFIED, (n, draw)
            kernel = above.report.certificate
            assert admissibility_check(kernel, solver_grid, 1e-8), (n, draw)
            target = factor_target(problem).matrix
            assert min_eigenvalue(target * kernel.matrix) < 0, (n, draw)
    assert time.process_time() - t0 < 2.0


def test_validation_errors(rng):
    # the constructor checks the node tops that realization reads
    nodes = random_nodes(rng, 2)
    with pytest.raises(ValidationError, match="one Phi sample per node"):
        CoronaProblem(nodes=nodes, phi_samples=(np.ones((1, 2)),), delta=0.5)
    with pytest.raises(ValidationError, match="Phi samples must share a common shape"):
        CoronaProblem(nodes, (np.ones((1, 2)), np.ones((1, 3))), delta=0.5)
    with pytest.raises(ValidationError):
        CoronaProblem(
            nodes=nodes,
            phi_samples=(np.ones((1, 2)), np.ones((1, 2))),
            delta=-1.0,
        )
    phis = (np.ones((1, 2)),) * 2
    with pytest.raises(ValidationError, match="Theta samples"):  # once an IndexError
        CoronaProblem(nodes, phis, delta=0.5, theta_samples=())
    with pytest.raises(ValidationError, match="Theta samples must share a common shape"):
        CoronaProblem(nodes, phis, delta=0.5, theta_samples=(np.ones((1, 1)), np.ones((1, 2))))
    with pytest.raises(ValidationError, match="Theta output dimension"):
        CoronaProblem(nodes, phis, delta=0.5, theta_samples=(np.ones((2, 1)),) * 2)
