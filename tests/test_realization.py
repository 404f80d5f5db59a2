import tracemalloc
import warnings

import numpy as np
import pytest

from symbidisk import (
    Colligation,
    NodeSet,
    NumericsError,
    PickProblem,
    RealizedFunction,
    phi,
    solve_pick,
    transfer_eval,
    verify_contractivity,
)
from symbidisk.feasibility import CPBlocks
from symbidisk.realization import (
    _SOLVE_CHUNK_ENTRIES,
    lurking_isometry,
    node_values,
    transfer_eval_batch,
)

from conftest import random_gpoint, random_nodes


def random_colligation(rng, state_dim, padded_dim=2):
    """Haar-like unitary split into [[A, B], [C, D]], one state per alpha."""
    n = padded_dim + state_dim
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return Colligation(
        a=q[:padded_dim, :padded_dim],
        b=q[:padded_dim, padded_dim:],
        c=q[padded_dim:, :padded_dim],
        d=q[padded_dim:, padded_dim:],
        alphas=0.9 * np.exp(2j * np.pi * np.arange(state_dim) / max(1, state_dim)),
        multiplicities=(1,) * state_dim,
        out_dim=1,
        in_dim=2,
    )


def reference_values(col, s, p):
    """Per-point A + B Z (I - D Z)^{-1} C, one np.linalg.solve per point."""
    out = []
    for sk, pk in zip(s, p):
        phis = (2.0 * col.alphas * pk - sk) / (2.0 - col.alphas * sk)
        z = np.repeat(phis, col.multiplicities)
        f = col.a + (col.b * z[None, :]) @ np.linalg.solve(
            np.eye(col.state_dim) - col.d * z[None, :], col.c
        )
        out.append(f[: col.out_dim, : col.in_dim])
    return np.array(out)


def solved_interpolant(nodes, targets, grid=None):
    problem = PickProblem(nodes=nodes, targets=tuple(np.array([[w]]) for w in targets))
    sol = solve_pick(problem, grid)
    assert sol.interpolant is not None, sol.status
    return sol


class TestLurkingIsometry:
    def test_one_point_scalar(self):
        nodes = NodeSet.from_pairs([(0.0, 0.0)])
        sol = solved_interpolant(nodes, [0.5])
        col = sol.interpolant.colligation
        # phi(alpha, (0,0)) = 0 for every alpha, so f(0,0) = the A corner
        assert col.a[0, 0] == pytest.approx(0.5, abs=1e-9)
        assert transfer_eval(sol.interpolant, (0.0, 0.0)) == pytest.approx(0.5, abs=1e-9)
        assert col.unitarity_defect() <= 1e-9

    def test_constant_witness(self, rng, solver_grid):
        nodes = random_nodes(rng, 3)
        c = 0.4 - 0.3j
        sol = solved_interpolant(nodes, [c, c, c], solver_grid)
        vals = node_values(sol.interpolant.colligation, nodes)
        for v in vals:
            assert abs(v[0, 0] - c) <= 1e-8

    def test_diagonal_extremal_instance(self, diagonal_pair, solver_grid):
        sol = solved_interpolant(diagonal_pair, [-0.5, 0.5], solver_grid)
        vals = node_values(sol.interpolant.colligation, diagonal_pair)
        assert abs(vals[0][0, 0] + 0.5) <= 1e-7
        assert abs(vals[1][0, 0] - 0.5) <= 1e-7
        # the realized function agrees with a coordinate function at the nodes
        alpha = solver_grid.alphas[0]
        assert vals[0][0, 0] == pytest.approx(phi(alpha, diagonal_pair.points[0]), abs=1e-7)

    def test_gram_mismatch_rejected(self, rng, solver_grid):
        nodes = random_nodes(rng, 2)
        bad = CPBlocks(
            grid=solver_grid,
            blocks=tuple(np.eye(2) for _ in solver_grid.alphas),
        )
        with pytest.raises(NumericsError, match="residual too large"):
            lurking_isometry(
                bad,
                nodes,
                [np.eye(1) for _ in range(2)],
                [np.array([[0.3]]), np.array([[0.1]])],
            )


class TestTransferEval:
    def test_origin_reads_a_corner(self, rng, solver_grid):
        nodes = random_nodes(rng, 2, rmax=0.5)
        sol = solved_interpolant(nodes, [0.2, 0.1], solver_grid)
        col = sol.interpolant.colligation
        v = transfer_eval(sol.interpolant, (0.0, 0.0))
        assert v[0, 0] == pytest.approx(col.a[0, 0], abs=1e-12)

    def test_zero_d_block_is_linear(self):
        # handmade colligation with D = 0: f = A + B Z C
        a = np.array([[0.0]])
        b = np.array([[1.0]])
        c = np.array([[1.0]])
        d = np.array([[0.0]])
        col = Colligation(
            a=a, b=b, c=c, d=d,
            alphas=np.array([0.3 + 0.1j]),
            multiplicities=(1,),
            out_dim=1, in_dim=1,
        )
        q = (0.4, 0.05)
        expected = phi(0.3 + 0.1j, q)
        assert transfer_eval(col, q)[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_batch_matches_scalar(self, rng, solver_grid):
        nodes = random_nodes(rng, 2)
        sol = solved_interpolant(nodes, [0.3, -0.2], solver_grid)
        col = sol.interpolant.colligation
        pts = [random_gpoint(rng) for _ in range(5)]
        batch = transfer_eval_batch(
            col, np.array([q.s for q in pts]), np.array([q.p for q in pts])
        )
        for k, q in enumerate(pts):
            assert batch[k][0, 0] == pytest.approx(
                transfer_eval(sol.interpolant, q)[0, 0], abs=1e-12
            )

    @pytest.mark.parametrize("state_dim", [0, 3, 40])
    def test_batch_matches_per_point_solve(self, rng, state_dim):
        col = random_colligation(rng, state_dim)
        per_chunk = _SOLVE_CHUNK_ENTRIES // (2 + state_dim) ** 2
        count = 2 * per_chunk + 3
        pts = [random_gpoint(rng) for _ in range(count)]
        s = np.array([q.s for q in pts])
        p = np.array([q.p for q in pts])
        batch = transfer_eval_batch(col, s, p)
        assert batch.shape == (count, 1, 2)
        # same arithmetic per point, so equal to the last bit
        np.testing.assert_array_equal(batch, reference_values(col, s, p))

    def test_one_point_is_a_batch_of_one(self, rng):
        col = random_colligation(rng, 5)
        q = random_gpoint(rng)
        np.testing.assert_array_equal(
            transfer_eval(col, q), transfer_eval_batch(col, [q.s], [q.p])[0]
        )

    def test_near_boundary_warning(self):
        # D = 0 and one state at alpha = 0; at symmetrize(r, r) = (2r, r^2)
        # its state scalar is phi(0, 2r, r^2) = -r
        col = Colligation(
            a=np.array([[0.0]]), b=np.array([[1.0]]), c=np.array([[1.0]]),
            d=np.array([[0.0]]), alphas=np.array([0.0]), multiplicities=(1,),
            out_dim=1, in_dim=1,
        )
        r = 1.0 - 1e-13
        with pytest.warns(RuntimeWarning, match="near-boundary evaluation"):
            transfer_eval_batch(col, [0.0, 2.0 * r], [0.0, r * r])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            transfer_eval_batch(col, [0.0, 1.8], [0.0, 0.81])
            transfer_eval(col, (0.8, 0.15))


    def test_near_boundary_warning_fires_once_per_batch(self):
        col = Colligation(
            a=np.array([[0.0]]), b=np.array([[1.0]]), c=np.array([[1.0]]),
            d=np.array([[0.0]]), alphas=np.array([0.0]), multiplicities=(1,),
            out_dim=1, in_dim=1,
        )
        per_chunk = _SOLVE_CHUNK_ENTRIES // (1 + 1) ** 2
        count = 3 * per_chunk
        r = 1.0 - 1e-13
        s = np.zeros(count, dtype=complex)
        p = np.zeros(count, dtype=complex)
        for k in (0, count - 1):  # near-boundary points in the first and last chunk
            s[k], p[k] = 2.0 * r, r * r
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            transfer_eval_batch(col, s, p)
        assert [str(w.message) for w in caught] == ["near-boundary evaluation"]

    def test_working_memory_does_not_grow_with_the_batch(self, rng):
        col = random_colligation(rng, 19)
        per_chunk = _SOLVE_CHUNK_ENTRIES // (2 + 19) ** 2
        extra = []
        for count in (4 * per_chunk, 32 * per_chunk):
            pts = [random_gpoint(rng) for _ in range(count)]
            s = np.array([q.s for q in pts])
            p = np.array([q.p for q in pts])
            tracemalloc.start()
            try:
                out = transfer_eval_batch(col, s, p)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            extra.append(peak - out.nbytes)
        # eight times the points, about the same working memory beyond the output
        assert extra[1] <= 1.5 * extra[0]


class TestContractivity:
    def test_constant_function(self):
        # zero-state colligation: the padded A corner is a unitary dilation of c
        c = 0.35 + 0.1j
        s = np.sqrt(1.0 - abs(c) ** 2)
        col = Colligation(
            a=np.array([[c, s], [s, -np.conj(c)]]),
            b=np.zeros((2, 0)),
            c=np.zeros((0, 2)),
            d=np.zeros((0, 0)),
            alphas=np.array([], dtype=complex),
            multiplicities=(),
            out_dim=1, in_dim=1,
        )
        assert col.unitarity_defect() <= 1e-12
        v = verify_contractivity(RealizedFunction(colligation=col), 2000, seed=1)
        assert v == pytest.approx(abs(c), abs=1e-12)

    def test_single_coordinate_realization(self):
        alpha = 0.6 * np.exp(1j * 0.4)
        col = Colligation(
            a=np.array([[0.0]]),
            b=np.array([[1.0]]),
            c=np.array([[1.0]]),
            d=np.array([[0.0]]),
            alphas=np.array([alpha]),
            multiplicities=(1,),
            out_dim=1, in_dim=1,
        )
        v = verify_contractivity(RealizedFunction(colligation=col), 3000, seed=2)
        assert v < 1.0

    def test_synthesized_functions_stay_contractive(self, rng, solver_grid):
        for _ in range(3):
            nodes = random_nodes(rng, 2)
            targets = 0.6 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
            targets /= max(1.0, np.abs(targets).max() / 0.6)
            sol = solve_pick(
                PickProblem(
                    nodes=nodes, targets=tuple(np.array([[w]]) for w in targets)
                ),
                solver_grid,
            )
            if sol.interpolant is None:
                continue
            v = verify_contractivity(sol.interpolant, sample_count=4000, seed=3)
            assert v <= 1.0 + 1e-8


class TestRepresentationStructure:
    def test_unitarity_and_node_consistency(self, rng, solver_grid):
        nodes = random_nodes(rng, 3)
        targets = [0.3, -0.25 + 0.1j, 0.05]
        sol = solved_interpolant(nodes, targets, solver_grid)
        col = sol.interpolant.colligation
        assert col.unitarity_defect() <= 1e-9
        vals = node_values(col, nodes)
        for v, w in zip(vals, targets):
            assert abs(v[0, 0] - w) <= 1e-7

    def test_evaluation_is_multiplicative(self, rng, solver_grid):
        # block-diagonal evaluation of phi^2 equals the square of the
        # block-diagonal evaluation of phi
        nodes = random_nodes(rng, 2)
        sol = solved_interpolant(nodes, [0.2, 0.4], solver_grid)
        col = sol.interpolant.colligation
        q = random_gpoint(rng)
        z = col.state_scalars(q)
        z_squared_eval = np.diag(z**2)
        assert np.abs(np.diag(z) @ np.diag(z) - z_squared_eval).max() <= 1e-14

    def test_state_dimension_bookkeeping(self, rng, solver_grid):
        nodes = random_nodes(rng, 2)
        sol = solved_interpolant(nodes, [0.3, 0.1], solver_grid)
        col = sol.interpolant.colligation
        assert col.state_dim == sum(col.multiplicities)
        assert col.d.shape == (col.state_dim, col.state_dim)
        assert len(col.alphas) == len(col.multiplicities)
