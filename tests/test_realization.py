import json
import os
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from symbidisk import (
    Colligation,
    NodeSet,
    NumericsError,
    PickProblem,
    ValidationError,
    phi,
    solve_pick,
    verify_contractivity,
)
from symbidisk import realization
from symbidisk.cli import execute_problem
from symbidisk.feasibility import (
    CPBlocks,
    FeasibilityTarget,
    SolveReport,
    SolveStatus,
    residual,
    solve,
)
from symbidisk.geometry import phi_values
from symbidisk.kernels import AlphaGrid, coefficient_masks, expand_masks
from symbidisk.realization import (
    _SOLVE_CHUNK_ENTRIES,
    _colligation,
    _purified_factors,
    factor_target,
    realize,
    transfer_eval_batch,
)

from conftest import (
    gram_factor,
    loop_file_problem,
    random_gpoint,
    random_nodes,
    stall_file_problem,
)

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))

import workloads  # noqa: E402


def unitarity_defect(col):
    """Largest entry of V V* - I and V* V - I for V = [[A, B], [C, D]]."""
    v = np.block([[col.a, col.b], [col.c, col.d]])
    eye = np.eye(v.shape[0])
    return float(
        max(
            np.abs(v @ v.conj().T - eye).max(initial=0.0),
            np.abs(v.conj().T @ v - eye).max(initial=0.0),
        )
    )


def random_colligation(rng, state_dim, padded_dim=2, out_dim=1, in_dim=2):
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
        out_dim=out_dim,
        in_dim=in_dim,
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
        col = sol.interpolant
        # phi(alpha, (0,0)) = 0 for every alpha, so f(0,0) = the A corner
        assert col.a[0, 0] == pytest.approx(0.5, abs=1e-9)
        assert transfer_eval_batch(col, [0.0], [0.0])[0] == pytest.approx(0.5, abs=1e-9)
        assert unitarity_defect(col) <= 1e-9

    def test_constant_witness(self, rng, solver_grid):
        nodes = random_nodes(rng, 3)
        c = 0.4 - 0.3j
        sol = solved_interpolant(nodes, [c, c, c], solver_grid)
        vals = transfer_eval_batch(sol.interpolant, nodes.s, nodes.p)
        for v in vals:
            assert abs(v[0, 0] - c) <= 1e-8

    def test_diagonal_extremal_instance(self, diagonal_pair, solver_grid):
        sol = solved_interpolant(diagonal_pair, [-0.5, 0.5], solver_grid)
        vals = transfer_eval_batch(sol.interpolant, diagonal_pair.s, diagonal_pair.p)
        assert abs(vals[0][0, 0] + 0.5) <= 1e-7
        assert abs(vals[1][0, 0] - 0.5) <= 1e-7
        # the realized function agrees with a coordinate function at the nodes
        alpha = solver_grid.alphas[0]
        assert vals[0][0, 0] == pytest.approx(phi(alpha, diagonal_pair.points[0]), abs=1e-7)

    def test_gram_mismatch_rejected(self, rng, solver_grid):
        nodes = random_nodes(rng, 2)
        bad = CPBlocks(grid=solver_grid, blocks=np.tile(np.eye(2), (len(solver_grid), 1, 1)))
        report = SolveReport(SolveStatus.FEASIBLE, 0.0, iterations=0, wall_time=0.0, blocks=bad)
        problem = PickProblem(nodes=nodes, targets=(np.array([[0.3]]), np.array([[0.1]])))
        with pytest.raises(NumericsError, match="residual too large"):
            realize(report, problem)


def purified(blocks, nodes):
    """The blocks G_m* G_m of _purified_factors, and their total rank."""
    rows, atoms = _purified_factors(blocks, nodes)
    factors = [rows[atoms == m] for m in range(len(blocks.blocks))]
    out = CPBlocks(grid=blocks.grid, blocks=np.stack([g.conj().T @ g for g in factors]))
    return out, len(rows)


def planted_witness(rng, n, block, atoms):
    """Random positive definite blocks on ``atoms`` alphas and the target they split."""
    nodes, grid, dim = random_nodes(rng, n), AlphaGrid.boundary(atoms - 1), n * block
    w = rng.standard_normal((atoms, dim, dim)) + 1j * rng.standard_normal((atoms, dim, dim))
    b = w @ w.conj().transpose(0, 2, 1)
    j = np.einsum("mij,mij->ij", expand_masks(coefficient_masks(grid, nodes), block), b)
    return FeasibilityTarget(nodes=nodes, matrix=j, block=block), CPBlocks(grid, b)


def loop_witness(name):
    """The target and Feasible witness of a loop-bound pick file of tests/conftest.py."""
    problem = loop_file_problem() if name == "loop" else stall_file_problem(name)
    target = factor_target(problem)
    report = solve(target, AlphaGrid.solver_default())
    assert report.status.value == "Feasible"
    return target, report.blocks


class TestPurification:
    """_purified_factors: a basic solution of the witness's identity, rank <= N^2."""

    # loop-bound witnesses, and (nodes, block, atoms) of planted ones; the
    # walk takes one window of 2 N^2 columns at 3x2-on-9, several at the others
    @pytest.mark.parametrize(
        "case",
        ["loop", "151/in11", "237/in12", (3, 1, 9), (2, 1, 33), (3, 2, 9), (2, 2, 65)],
        ids=lambda case: case if isinstance(case, str) else "{}x{}-on-{}".format(*case),
    )
    def test_basic_solution_meets_the_identity(self, rng, case):
        if isinstance(case, str):
            target, blocks = loop_witness(case)
        else:
            target, blocks = planted_witness(rng, *case)
        dim = len(target.matrix)
        assert sum(len(gram_factor(b)) for b in blocks.blocks) > dim * dim
        out, rank = purified(blocks, target.nodes)
        assert rank <= dim * dim
        assert abs(residual(target, out) - residual(target, blocks)) <= 1e-12 * np.linalg.norm(
            target.matrix
        )
        assert all(np.linalg.eigvalsh(b)[0] >= -1e-14 * np.linalg.norm(b, 2) for b in out.blocks)

    def test_a_witness_within_n_squared_is_left_as_it_is(self, rng):
        # 9 blocks of total rank 16 <= N^2 for N = 4, whatever the target
        nodes, grid = random_nodes(rng, 4), AlphaGrid.solver_default()
        ranks = [0, 1, 2, 3, 0, 4, 1, 2, 3]
        blocks = []
        for r in ranks:
            w = rng.standard_normal((4, r)) + 1j * rng.standard_normal((4, r))
            blocks.append(w @ w.conj().T)
        rows, atoms = _purified_factors(CPBlocks(grid, np.stack(blocks)), nodes)
        assert atoms.tolist() == [m for m, r in enumerate(ranks) for _ in range(r)]
        for m, (b, r) in enumerate(zip(blocks, ranks)):
            g, ref = rows[atoms == m], gram_factor(b)
            assert g.shape == (r, 4) and g.tobytes() == ref.tobytes()

    def test_realize_equals_lurking_isometry_when_nothing_moves(self, rng, solver_grid):
        # The name is the paper's lurking-isometry construction, not a function: the
        # reference is _colligation on the per-block factors of tests/conftest.py,
        # stacked in grid order.
        # a single-atom witness: 3 nodes, rank <= 3 <= N^2 = 9
        problem = PickProblem(
            nodes=random_nodes(rng, 3), targets=tuple(np.array([[w]]) for w in (0.3, 0.1, -0.2))
        )
        sol = solve_pick(problem, solver_grid)
        assert sol.report.notes == ("single-atom witness",)
        blocks = sol.report.blocks
        factors = [gram_factor(b) for b in blocks.blocks]
        atoms = np.repeat(np.arange(len(factors)), [len(g) for g in factors])
        rows = np.concatenate(factors)
        ref = _colligation(blocks.grid.alphas, problem, rows, atoms, 1e-8)
        col = sol.interpolant
        for name in ("a", "b", "c", "d", "alphas"):
            assert getattr(col, name).tobytes() == getattr(ref, name).tobytes()
        assert col.multiplicities == ref.multiplicities

    def test_two_calls_give_equal_bits(self):
        target, blocks = loop_witness("151/in11")
        first, second = (_purified_factors(blocks, target.nodes) for _ in range(2))
        assert [a.tobytes() for a in first] == [a.tobytes() for a in second]

    def test_loop_files_realize_with_at_most_n_squared_states(self):
        files = workloads.CorpusFiles(1).files
        names = sorted(name for name in files if name.startswith("z_loop_"))
        assert len(names) == 3
        for name in names:
            problem = files[name][0]
            report = execute_problem(json.loads(json.dumps(problem, sort_keys=True)))
            assert report["status"] == "Feasible"
            assert report["node_residual"] <= 1e-7
            dim = len(problem["payload"]["nodes"]) * report["interpolant"]["out_dim"]
            assert sum(report["interpolant"]["multiplicities"]) <= dim * dim

    def test_non_psd_block_is_rejected(self, rng, solver_grid):
        nodes = random_nodes(rng, 2)
        blocks = np.tile(np.eye(2), (len(solver_grid), 1, 1))
        blocks[-1] = np.diag([1.0, -0.5])
        with pytest.raises(NumericsError, match="not PSD"):
            _purified_factors(CPBlocks(solver_grid, blocks), nodes)


class TestTransferEval:
    def test_origin_reads_a_corner(self, rng, solver_grid):
        nodes = random_nodes(rng, 2, rmax=0.5)
        sol = solved_interpolant(nodes, [0.2, 0.1], solver_grid)
        col = sol.interpolant
        v = transfer_eval_batch(col, [0.0], [0.0])[0]
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
        value = transfer_eval_batch(col, [q[0]], [q[1]])[0, 0, 0]
        assert value == pytest.approx(expected, abs=1e-12)

    def test_batch_matches_scalar(self, rng, solver_grid):
        nodes = random_nodes(rng, 2)
        sol = solved_interpolant(nodes, [0.3, -0.2], solver_grid)
        col = sol.interpolant
        pts = [random_gpoint(rng) for _ in range(5)]
        batch = transfer_eval_batch(
            col, np.array([q.s for q in pts]), np.array([q.p for q in pts])
        )
        for k, q in enumerate(pts):
            assert batch[k][0, 0] == pytest.approx(
                transfer_eval_batch(col, [q.s], [q.p])[0, 0, 0], abs=1e-12
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
            transfer_eval_batch(col, [q.s], [q.p]), reference_values(col, [q.s], [q.p])
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
            transfer_eval_batch(col, [0.8], [0.15])


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
        assert unitarity_defect(col) <= 1e-12
        v = verify_contractivity(col, 2000, seed=1)
        assert v == pytest.approx(abs(c), abs=1e-12)

    @pytest.mark.parametrize("count", [0, -3])
    def test_no_samples_is_an_input_error(self, count):
        col = Colligation(
            a=np.array([[0.0]]), b=np.array([[1.0]]), c=np.array([[1.0]]), d=np.array([[0.0]]),
            alphas=np.array([0.5]), multiplicities=(1,), out_dim=1, in_dim=1,
        )
        with pytest.raises(ValidationError, match="sample_count must be >= 1"):
            verify_contractivity(col, sample_count=count)

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
        v = verify_contractivity(col, 3000, seed=2)
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

    @pytest.mark.parametrize("out_dim,in_dim", [(1, 1), (3, 1), (1, 3)])
    def test_vector_valued_audit_equals_svd_of_every_sample(
        self, rng, monkeypatch, out_dim, in_dim
    ):
        """The audit is the largest singular value over every sample, to roundoff.

        It takes each norm from an eigvalsh of the sample's Gram matrix, so it
        meets the SVD to a few ulps, not bit for bit.
        """
        samples = []

        def recording(col, s, p):
            samples.append(transfer_eval_batch(col, s, p))
            return samples[-1]

        monkeypatch.setattr(realization, "transfer_eval_batch", recording)
        for seed in range(4):
            col = random_colligation(rng, 3, padded_dim=3, out_dim=out_dim, in_dim=in_dim)
            v = verify_contractivity(col, 2000, seed=seed)
            full = np.linalg.svd(samples[-1], compute_uv=False)[:, 0].max()
            assert abs(v - full) <= 1e-15 * full


class TestNormBound:
    @pytest.mark.parametrize(
        "padded_dim,out_dim,in_dim", [(1, 1, 1), (2, 2, 2), (3, 1, 3), (3, 3, 1), (2, 1, 2)]
    )
    def test_unitary_colligation_has_norm_one(self, padded_dim, out_dim, in_dim):
        rng = np.random.default_rng(7)
        for seed in range(6):
            col = random_colligation(
                rng, int(rng.integers(1, 5)), padded_dim=padded_dim, out_dim=out_dim, in_dim=in_dim
            )
            assert abs(col.norm - 1.0) <= 1e-13
            assert col.norm >= verify_contractivity(col, 2000, seed=seed) - 1e-12

    def test_scaled_colligation_bounds_where_the_state_scalars_allow(self):
        # ||V|| = 1.05 bounds ||f|| by 1.05 only where every |phi(alpha_k)| <= 1 / 1.05
        rng = np.random.default_rng(11)
        s, p = realization._domain_sample(4000, 0, 0.9999)
        whole = 0.0
        for _ in range(6):
            col = random_colligation(rng, 3, padded_dim=2, out_dim=1, in_dim=2)
            scaled = Colligation(
                a=1.05 * col.a, b=1.05 * col.b, c=1.05 * col.c, d=1.05 * col.d,
                alphas=col.alphas, multiplicities=col.multiplicities,
                out_dim=col.out_dim, in_dim=col.in_dim,
            )
            assert abs(scaled.norm - 1.05) <= 1e-13
            inside = np.abs(phi_values(col.alphas, s, p)).max(axis=0) <= 1.0 / 1.05
            assert inside.sum() >= 100
            vals = transfer_eval_batch(scaled, s[inside], p[inside])
            assert np.linalg.svd(vals, compute_uv=False)[:, 0].max() <= 1.05
            whole = max(whole, verify_contractivity(scaled, 2000, seed=0))
        assert whole > 1.05  # outside that region the caveat bites


class TestRepresentationStructure:
    def test_unitarity_and_node_consistency(self, rng, solver_grid):
        nodes = random_nodes(rng, 3)
        targets = [0.3, -0.25 + 0.1j, 0.05]
        sol = solved_interpolant(nodes, targets, solver_grid)
        col = sol.interpolant
        assert unitarity_defect(col) <= 1e-9
        vals = transfer_eval_batch(col, nodes.s, nodes.p)
        for v, w in zip(vals, targets):
            assert abs(v[0, 0] - w) <= 1e-7

    def test_evaluation_is_multiplicative(self, rng, solver_grid):
        # block-diagonal evaluation of phi^2 equals the square of the
        # block-diagonal evaluation of phi
        nodes = random_nodes(rng, 2)
        sol = solved_interpolant(nodes, [0.2, 0.4], solver_grid)
        col = sol.interpolant
        q = random_gpoint(rng)
        z = np.repeat(phi_values(col.alphas, [q.s], [q.p])[:, 0], col.multiplicities)
        z_squared_eval = np.diag(z**2)
        assert np.abs(np.diag(z) @ np.diag(z) - z_squared_eval).max() <= 1e-14

    def test_state_dimension_bookkeeping(self, rng, solver_grid):
        nodes = random_nodes(rng, 2)
        sol = solved_interpolant(nodes, [0.3, 0.1], solver_grid)
        col = sol.interpolant
        assert col.state_dim == sum(col.multiplicities)
        assert col.d.shape == (col.state_dim, col.state_dim)
        assert len(col.alphas) == len(col.multiplicities)
