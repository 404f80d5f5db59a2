import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symbidisk import (
    AlphaGrid,
    GPoint,
    NodeSet,
    NumericsError,
    PickProblem,
    SolveOptions,
    SolveStatus,
    admissibility_check,
    assemble_pick_target,
    caratheodory_two_point,
    minimal_norm,
    minimal_norm_bracket,
    pseudo_hyperbolic,
    residual,
    solve,
    solve_pick,
    symmetrize,
    verify_contractivity,
)
from symbidisk import feasibility, pick
from symbidisk.feasibility import SolveReport
from symbidisk.geometry import phi_values
from symbidisk.hermitian import hermitian_part, min_eigenvalue, schur_oslash
from symbidisk.kernels import coefficient_masks
from symbidisk.realization import realize

from conftest import (
    STALL_FILES,
    loop_file_problem,
    near_threshold_problem,
    random_nodes,
    stall_file_problem,
)


def scalar_problem(nodes, ws, bound=1.0):
    return PickProblem(
        nodes=nodes, targets=tuple(np.array([[w]]) for w in ws), norm_bound=bound
    )


def disk_pick_feasible(zs, ws, bound=1.0):
    # classical disk oracle: [(1 - w_i wbar_j / C^2) / (1 - z_i zbar_j)] >= 0
    z = np.asarray(zs, dtype=complex)
    w = np.asarray(ws, dtype=complex) / bound
    mat = (1.0 - np.outer(w, w.conj())) / (1.0 - np.outer(z, z.conj()))
    return np.linalg.eigvalsh((mat + mat.conj().T) / 2).min() >= -1e-10


class TestAssemble:
    def test_zero_targets(self, diagonal_pair):
        target = assemble_pick_target(scalar_problem(diagonal_pair, [0.0, 0.0]))
        assert np.allclose(target.matrix, np.ones((2, 2)))

    def test_unimodular_single(self):
        nodes = NodeSet.from_pairs([(0.0, 0.0)])
        target = assemble_pick_target(scalar_problem(nodes, [1.0]))
        assert np.allclose(target.matrix, [[0.0]])

    def test_frozen_arithmetic(self, diagonal_pair):
        target = assemble_pick_target(scalar_problem(diagonal_pair, [-0.5, 0.5]))
        assert np.allclose(target.matrix, [[0.75, 1.25], [1.25, 0.75]])

    def test_norm_bound_scaling(self, diagonal_pair):
        t = assemble_pick_target(scalar_problem(diagonal_pair, [-0.5, 0.5], bound=2.0))
        assert np.allclose(t.matrix, [[1 - 0.0625, 1 + 0.0625], [1 + 0.0625, 1 - 0.0625]])

    @pytest.mark.parametrize("shape", [(1, 1), (2, 3)])
    def test_matches_per_block_loop(self, shape, rng):
        nodes = random_nodes(rng, 3)
        ws = tuple(rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(3))
        problem = PickProblem(nodes=nodes, targets=ws, norm_bound=1.7)
        d = shape[0]
        expected = np.zeros((3 * d, 3 * d), dtype=complex)
        for i in range(3):
            wi = ws[i] / 1.7
            for k in range(3):
                wk = ws[k] / 1.7
                expected[i * d : (i + 1) * d, k * d : (k + 1) * d] = np.eye(d) - wi @ wk.conj().T
        # one matrix product sums the inner dimension in its own order
        got = assemble_pick_target(problem).matrix
        assert np.abs(got - hermitian_part(expected)).max() <= 1e-14 * np.abs(expected).max()
        if shape == (1, 1):
            assert np.array_equal(got, hermitian_part(expected))


class TestSolvePick:
    def test_single_node_constant(self):
        nodes = NodeSet.from_pairs([(0.0, 0.0)])
        sol = solve_pick(scalar_problem(nodes, [0.5]))
        assert sol.status is SolveStatus.FEASIBLE
        assert sol.node_residual <= 1e-9
        assert verify_contractivity(sol.interpolant, 2000) <= 1.0 + 1e-8

    def test_single_node_oversized_target(self):
        nodes = NodeSet.from_pairs([(0.0, 0.0)])
        sol = solve_pick(scalar_problem(nodes, [1.2]))
        assert sol.status is SolveStatus.INFEASIBLE_CERTIFIED

    def test_diagonal_pair_both_ways(self, diagonal_pair):
        feasible = solve_pick(scalar_problem(diagonal_pair, [-0.5, 0.5]))
        assert feasible.status is SolveStatus.FEASIBLE
        infeasible = solve_pick(scalar_problem(diagonal_pair, [0.0, 0.9]))
        assert infeasible.status is not SolveStatus.FEASIBLE
        assert caratheodory_two_point(*diagonal_pair.points) == pytest.approx(0.8, abs=1e-10)
        assert pseudo_hyperbolic(0.0, 0.9) > 0.8

    def test_diagonal_pullback_matches_disk_oracle(self, rng):
        # diagonal nodes reduce to a disk problem through phi = -z
        for trial in range(20):
            z = 0.8 * np.sqrt(rng.random(2)) * np.exp(2j * np.pi * rng.random(2))
            if abs(z[0] - z[1]) < 0.05:
                continue
            nodes = NodeSet((symmetrize(z[0], z[0]), symmetrize(z[1], z[1])))
            w = 1.1 * (rng.standard_normal(2) + 1j * rng.standard_normal(2)) / 2
            sol = solve_pick(scalar_problem(nodes, list(w)))
            oracle = disk_pick_feasible(z, w)
            if sol.status is SolveStatus.FEASIBLE:
                assert oracle
            elif sol.status is SolveStatus.INFEASIBLE_CERTIFIED:
                assert not oracle

    def test_norm_bound_monotonicity(self, rng, solver_grid):
        nodes = random_nodes(rng, 2)
        ws = [0.4, -0.5 + 0.2j]
        feasible_at = {}
        for bound in (0.8, 1.2, 2.0, 4.0):
            sol = solve_pick(scalar_problem(nodes, ws, bound), solver_grid)
            feasible_at[bound] = sol.status is SolveStatus.FEASIBLE
        seen_feasible = False
        for bound in (0.8, 1.2, 2.0, 4.0):
            if feasible_at[bound]:
                seen_feasible = True
            elif seen_feasible:
                pytest.fail("feasibility lost as the norm bound grew")

    def test_permutation_symmetry(self, rng, solver_grid):
        nodes = random_nodes(rng, 3)
        ws = [0.3, -0.2, 0.1 + 0.2j]
        sol = solve_pick(scalar_problem(nodes, ws), solver_grid)
        perm = [2, 0, 1]
        nodes_p = NodeSet(tuple(nodes.points[i] for i in perm))
        ws_p = [ws[i] for i in perm]
        sol_p = solve_pick(scalar_problem(nodes_p, ws_p), solver_grid)
        assert sol.status == sol_p.status

    def test_block_diagonal_conjunction(self, rng, solver_grid):
        nodes = random_nodes(rng, 2)
        scalar_ws = [(0.3, -0.1), (-0.2, 0.25)]
        scalar_status = [
            solve_pick(scalar_problem(nodes, list(ws)), solver_grid).status
            for ws in zip(*scalar_ws)
        ]
        block_targets = tuple(np.diag(ws) for ws in scalar_ws)
        block_sol = solve_pick(
            PickProblem(nodes=nodes, targets=block_targets), solver_grid
        )
        if all(s is SolveStatus.FEASIBLE for s in scalar_status):
            assert block_sol.status is SolveStatus.FEASIBLE
        if any(s is SolveStatus.INFEASIBLE_CERTIFIED for s in scalar_status):
            assert block_sol.status is not SolveStatus.FEASIBLE


class TestMinimalNorm:
    def test_single_node(self):
        nodes = NodeSet.from_pairs([(0.0, 0.0)])
        assert minimal_norm(scalar_problem(nodes, [0.5])) == pytest.approx(0.5, abs=1e-6)

    def test_diagonal_closed_form(self, diagonal_pair):
        # feasible root of 0.8 C^2 - C + 0.2 = 0 is C = 1
        value = minimal_norm(scalar_problem(diagonal_pair, [-0.5, 0.5]))
        assert value == pytest.approx(1.0, abs=1e-3)

    def test_homogeneity(self, diagonal_pair):
        base = minimal_norm(scalar_problem(diagonal_pair, [-0.5, 0.5]))
        scaled = minimal_norm(scalar_problem(diagonal_pair, [-1.0, 1.0]))
        assert scaled == pytest.approx(2 * base, rel=2e-3)

    def test_zero_targets(self, diagonal_pair):
        assert minimal_norm(scalar_problem(diagonal_pair, [0.0, 0.0])) == 0.0

    def test_bracket_that_cannot_close_raises(self, diagonal_pair):
        # a zero width is never met by a bracket that leaves any roundoff gap,
        # so the solve must end once its iterate is no longer numerically
        # interior and no step is left to take
        problem = scalar_problem(diagonal_pair, [0.3, 0.6j])
        with pytest.raises(NumericsError, match="stalled at relative width"):
            minimal_norm_bracket(problem, width=0.0)

    def test_witness_that_does_not_re_verify_raises(self, diagonal_pair):
        # no residual is <= a negative tolerance, so the witness at hi is refused
        problem = scalar_problem(diagonal_pair, [-0.5, 0.5])
        with pytest.raises(NumericsError, match="does not re-verify"):
            minimal_norm_bracket(problem, opts=SolveOptions(tol=-1.0))


@settings(max_examples=6, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 3))
def test_minimal_norm_homogeneity(seed, n):
    # t a power of two: the scaled targets t W / (t c) are the same floats as W / c
    rng = np.random.default_rng(seed)
    nodes = random_nodes(rng, n)
    ws = 0.9 * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
    width = 1e-4
    base = minimal_norm(scalar_problem(nodes, ws), width=width)
    for t in (0.5, 2.0, 4.0):
        scaled = minimal_norm(scalar_problem(nodes, t * ws), width=width)
        assert abs(scaled - t * base) <= 3 * width * max(1.0, t * base)


def assert_lo_is_sound(problem, width=1e-4):
    """The bracket's lo rules out every witness: the solver finds none just below it.

    A Feasible witness only has residual <= tol, so soundness of the dual
    bound against the solver is checked, not assumed.
    """
    lo, hi = minimal_norm_bracket(problem, width=width)
    top = max(float(np.linalg.norm(t, 2)) for t in problem.targets)
    assert top <= lo <= hi <= lo + width * max(1.0, top)
    below = PickProblem(nodes=problem.nodes, targets=problem.targets, norm_bound=0.999 * lo)
    assert solve_pick(below).status is not SolveStatus.FEASIBLE


@settings(max_examples=8, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 3))
def test_certificate_bounds_are_sound(seed, n):
    rng = np.random.default_rng(seed)
    nodes = random_nodes(rng, n)
    ws = 0.9 * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
    assert_lo_is_sound(scalar_problem(nodes, ws))


@pytest.mark.parametrize("seed", [0, 1])
def test_certificate_bounds_for_block_targets(seed):
    rng = np.random.default_rng(seed)
    nodes = random_nodes(rng, 2 + seed)
    ws = tuple(
        0.5 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        for _ in range(2 + seed)
    )
    assert_lo_is_sound(PickProblem(nodes=nodes, targets=ws))


def test_certificate_bounds_on_the_diagonal_pair(diagonal_pair):
    # closed-form minimal norm 1 (see TestMinimalNorm.test_diagonal_closed_form)
    lo, hi = minimal_norm_bracket(scalar_problem(diagonal_pair, [-0.5, 0.5]))
    assert lo <= 1.0 <= hi


def certificate_bound(ee, ww, kernel, block):
    """sqrt(lambda_max(WW* . K, E . K)), below which the kernel K rules out every witness.

    None when E . K is not positive definite (Cholesky fails).
    """
    a = schur_oslash(ee, kernel, block, 1)
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return None
    half = np.linalg.solve(low, schur_oslash(ww, kernel, block, 1))
    lam = np.linalg.eigvalsh(hermitian_part(np.linalg.solve(low, half.conj().T)))[-1]
    return float(np.sqrt(max(lam, 0.0)))


def reference_bracket(problem, grid, opts, width=1e-4):
    """The bisection on the norm bound that the conic bracket replaced, cold-started.

    Its lo may rest on trials that ended Unknown, so it is a reference, not a
    rigorous bound.
    """
    top = max(float(np.linalg.norm(t, 2)) for t in problem.targets)
    n, d = len(problem.nodes), problem.d_out
    w = np.concatenate(problem.targets)
    ee, ww = np.kron(np.ones((n, n)), np.eye(d)), w @ w.conj().T

    def trial(c):
        scaled = PickProblem(nodes=problem.nodes, targets=problem.targets, norm_bound=c)
        rep = solve(assemble_pick_target(scaled), grid, opts)
        if rep.status is SolveStatus.FEASIBLE:
            return True, c
        if rep.status is SolveStatus.INFEASIBLE_CERTIFIED:
            bound = certificate_bound(ee, ww, rep.certificate.matrix, d)
            if bound is not None:
                return False, max(c, bound)
        return False, c

    feasible, lo = trial(top)
    if feasible:
        return top, top
    hi = top * 1.25
    while True:
        if hi > lo:
            feasible, floor = trial(hi)
            if feasible:
                break
            lo = max(lo, floor)
        hi *= 2.0
    lo = min(lo, hi)
    while hi - lo > width * max(1.0, top):
        mid = 0.5 * (lo + hi)
        feasible, floor = trial(mid)
        if feasible:
            hi = mid
        else:
            lo = min(floor, hi)
    return lo, hi


def assert_matches_reference(problem, grid, opts=SolveOptions(), width=1e-4):
    """The conic bracket overlaps the bisection's, is narrow, and its witness re-verifies."""
    lo, hi, witness = pick._conic_bracket(problem, grid, opts, width)
    ref_lo, ref_hi = reference_bracket(problem, grid, opts, width)
    top = max(float(np.linalg.norm(t, 2)) for t in problem.targets)
    # both brackets close on the same floats where a problem closes exactly
    rounding = 1e-12 * max(1.0, top)
    assert lo <= ref_hi + rounding and ref_lo <= hi + rounding
    assert 0.0 <= hi - lo <= width * max(1.0, top)
    at_hi = PickProblem(nodes=problem.nodes, targets=problem.targets, norm_bound=hi)
    res = residual(assemble_pick_target(at_hi), witness)
    assert res <= opts.tol
    report = SolveReport(
        status=SolveStatus.FEASIBLE, residual=res, iterations=0, wall_time=0.0, blocks=witness
    )
    fn, node_res = realize(report, problem.nodes, *pick._tops(at_hi))
    assert node_res <= 1e-7
    assert verify_contractivity(fn, 2000) <= 1.0 + 1e-8
    return lo, hi


@settings(max_examples=6, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 3))
def test_conic_bracket_matches_the_bisection(seed, n):
    rng = np.random.default_rng(seed)
    nodes = random_nodes(rng, n)
    ws = 0.9 * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
    assert_matches_reference(scalar_problem(nodes, ws), AlphaGrid.solver_default())


@pytest.mark.parametrize("seed", [0, 1])
def test_conic_bracket_matches_the_bisection_on_block_targets(seed, solver_grid):
    # the targets of test_certificate_bounds_for_block_targets
    rng = np.random.default_rng(seed)
    nodes = random_nodes(rng, 2 + seed)
    ws = tuple(
        0.5 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        for _ in range(2 + seed)
    )
    assert_matches_reference(PickProblem(nodes=nodes, targets=ws), solver_grid)


@pytest.mark.parametrize("ds", [0.0, 1e-9])
@pytest.mark.parametrize("ws", [[0.3, -0.6j], [0.9, -0.2]])
def test_conic_bracket_on_nodes_sharing_s(ds, ws, solver_grid):
    # phi(0, s, p) = -s / 2, so the Szego kernel of the alpha = 0 atom is
    # singular (ds = 0) or nearly so; the witness is repaired elsewhere
    nodes = NodeSet.from_pairs([(ds, 0.25), (0.0, -0.25)])
    assert_matches_reference(scalar_problem(nodes, ws), solver_grid)


def test_conic_bracket_matches_the_bisection_near_threshold(solver_grid):
    lo, hi = assert_matches_reference(near_threshold_problem(), solver_grid)
    assert lo <= 2.80045 <= hi


def sandwich_item():
    """Sandwich(2011, 20).items[6] of bench/workloads.py."""
    nodes = NodeSet(
        (
            GPoint(0.7513589780031181 - 0.43634247332993065j, 0.16344692886896717 - 0.18343909804371647j),
            GPoint(1.2283706685653908 - 0.4672041100529152j, 0.3983227866535747 - 0.3632768046679069j),
            GPoint(-0.8381221280825102 + 0.5388262459398014j, 0.08773878342935343 - 0.1898393377439655j),
        )
    )
    targets = tuple(np.array([[w]]) for w in (1.0, -1.0 + 1.2246467991473532e-16j, 1.0))
    return PickProblem(nodes=nodes, targets=targets)


def test_conic_bracket_matches_the_bisection_on_a_sandwich_item(solver_grid):
    assert_matches_reference(sandwich_item(), solver_grid, SolveOptions(max_iter=1000))


def test_conic_newton_steps_on_a_sandwich_item(monkeypatch, solver_grid):
    # at the bench's options; the bisection it replaced took 16 solves and 113
    # Newton steps, and pick.solve is no longer called.  The interior-point
    # conic solve takes 7 iterations (one Schur complement each); the
    # proximal rounds it replaced took 34 Newton steps
    opts, width = SolveOptions(max_iter=1000), 1e-4
    problem = sandwich_item()
    steps, solves = [], []
    schur = feasibility._hkm_schur
    monkeypatch.setattr(feasibility, "_hkm_schur", lambda *a: steps.append(1) or schur(*a))
    monkeypatch.setattr(pick, "solve", lambda *a: solves.append(1) or solve(*a))
    lo, hi = minimal_norm_bracket(problem, solver_grid, opts, width)
    assert lo <= hi <= lo + width * max(1.0, lo)
    assert 0 < len(steps) <= 7 and not solves
    monkeypatch.undo()
    above = PickProblem(
        nodes=problem.nodes, targets=problem.targets, norm_bound=hi + width * max(1.0, hi)
    )
    sol = solve_pick(above, solver_grid, opts)
    assert sol.status is SolveStatus.FEASIBLE
    assert residual(assemble_pick_target(above), sol.report.blocks) <= 2 * opts.tol
    assert sol.node_residual <= 1e-7
    assert verify_contractivity(sol.interpolant, 2000) <= 1.0 + 1e-8


def test_conic_start_is_primal_feasible_on_a_sandwich_item(monkeypatch, solver_grid):
    # E = C_m . Sz_m at every atom, so moving the single-atom witness inside
    # the cone along the Szego kernels keeps t E - G = sum_m C_m . B_m
    starts = []
    start = feasibility._interior_start
    monkeypatch.setattr(
        feasibility, "_interior_start", lambda *a: starts.append(start(*a)) or starts[-1]
    )
    problem = sandwich_item()
    minimal_norm_bracket(problem, solver_grid, SolveOptions(max_iter=1000))
    ((t, b),) = starts
    top = max(float(np.linalg.norm(w, 2)) for w in problem.targets)
    w = np.concatenate(problem.targets) / top
    cexp = coefficient_masks(solver_grid, problem.nodes)
    r = t * np.ones((3, 3)) - w @ w.conj().T - np.einsum("mij,mij->ij", cexp, b)
    assert np.linalg.norm(r) <= 1e-12 * t
    assert np.linalg.eigvalsh(b)[:, 0].min() > 0.0  # every B_m positive definite


# Two sandwich items (minimal norms about 24.048 and 15.942, t* about 580 and
# 250) on which a proximal round at sigma = 1e6-1e7 once sat at its
# gradient's roundoff, accepting steps that left phi and the residual
# unchanged, until 1000 Newton steps ran out.  Nodes are (s, p) pairs,
# targets scalars.
BUDGET_BRACKETS = {
    "A": (
        [
            (-0.11621099850879182 + 0.054562111232834595j, 0.022884014573559597 + 0.007414804796352391j),
            (-1.075774943111471 + 0.42755053316874175j, 0.2621037383995627 - 0.2601069134670138j),
            (0.05786580144709284 + 0.20063814782928963j, -0.011421021693132456 + 0.008077533175764411j),
        ],
        [-1.8369701987210297e-16 - 1j, 1 + 0j, 6.123233995736766e-17 + 1j],
    ),
    "B": (
        [
            (-0.11778980929318392 - 0.2363838030939706j, -0.029375391244156394 + 0.023770636819609357j),
            (0.7856162874631972 - 0.3145559949498325j, 0.13738661543521388 - 0.1051650038250255j),
            (-0.18911574250855487 - 0.10546269541936425j, -0.008342067859610157 - 0.030312334778620213j),
        ],
        [-1.8369701987210297e-16 - 1j, -1.8369701987210297e-16 - 1j, 1 + 0j],
    ),
}


@pytest.mark.parametrize("name", sorted(BUDGET_BRACKETS))
def test_conic_bracket_that_idled_at_roundoff_closes(name, monkeypatch, solver_grid):
    # the check of bench/workloads.py::Sandwich._check at the bench's options;
    # the interior-point solve closes both in 9 iterations from its feasible
    # start (14 and 15 from the shifted one), where the proximal rounds took
    # 61-71 Newton steps
    opts, width = SolveOptions(max_iter=1000), 1e-4
    pairs, ws = BUDGET_BRACKETS[name]
    problem = PickProblem(
        nodes=NodeSet.from_pairs(pairs), targets=tuple(np.array([[w]]) for w in ws)
    )
    steps = []
    schur = feasibility._hkm_schur
    monkeypatch.setattr(feasibility, "_hkm_schur", lambda *a: steps.append(1) or schur(*a))
    lo, hi = minimal_norm_bracket(problem, solver_grid, opts, width)
    assert 0 < len(steps) <= 9
    monkeypatch.undo()
    assert lo <= hi and hi - lo <= width * max(1.0, hi)
    above = PickProblem(
        nodes=problem.nodes, targets=problem.targets, norm_bound=hi + width * max(1.0, hi)
    )
    sol = solve_pick(above, solver_grid, opts)
    assert sol.status is SolveStatus.FEASIBLE
    assert sol.node_residual <= 1e-7


def planted_problem(n, seed):
    """0.95 F at n nodes, F the transfer function of a random unitary colligation.

    Its 3 states sit on 3 distinct atoms of the solver grid, so the targets are
    grid-feasible with minimal norm at most 0.95.
    """
    rng = np.random.default_rng(seed)
    nodes = random_nodes(rng, n, rmax=0.8)
    alphas = AlphaGrid.solver_default().alphas
    q = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    a, b, c, d = q[:1, :1], q[:1, 1:], q[1:, :1], q[1:, 1:]
    atoms = rng.choice(len(alphas), 3, replace=False)
    zs = phi_values(alphas[atoms], nodes.s, nodes.p).T
    f = [a + (b * z) @ np.linalg.solve(np.eye(3) - d * z, c) for z in zs]
    return PickProblem(nodes=nodes, targets=tuple(0.95 * fz for fz in f))


def unimodular_problem(n, seed):
    rng = np.random.default_rng(seed)
    nodes = random_nodes(rng, n, rmax=0.8)
    return scalar_problem(nodes, np.exp(2j * np.pi * rng.random(n)))


@pytest.mark.parametrize("n, seed", [(16, 2), (16, 3), (20, 0)])
def test_bracket_with_no_safe_atom_raises_at_once(n, seed, solver_grid):
    # no solver-grid atom's Szego kernel is safely positive definite at these
    # nodes, so hi can never be repaired; the proximal rounds once ran 30-62 s
    # before raising "stalled at relative width inf"
    problem = planted_problem(n, seed)
    t0 = time.process_time()
    with pytest.raises(NumericsError, match="no grid atom's Szego kernel is safely positive"):
        minimal_norm_bracket(problem, solver_grid, SolveOptions(max_iter=2000))
    assert time.process_time() - t0 < 0.5


@pytest.mark.parametrize("top", [1e160, 1e200, 1e300])
def test_bracket_of_huge_targets_closes(top, diagonal_pair):
    # G = W W* / top^2 is formed from W / top: the product first overflowed
    # above about 1e154, and the bracket ran its whole budget on nan iterates
    problem = scalar_problem(diagonal_pair, [top, 0.5])
    t0 = time.process_time()
    lo, hi = minimal_norm_bracket(problem)
    assert time.process_time() - t0 < 0.5
    assert hi == pytest.approx(1.25 * top, rel=1e-12)
    assert hi - 1e-4 * top <= lo <= hi


# Brackets that once stalled: at sigma = 1e8 a fixed round-end floor of
# 1e-13 sigma ||Y|| ended every round before its first Newton step, with the
# bracket still wider than its width.
STALLED_BRACKETS = {
    "loop-file": loop_file_problem,
    "planted-10-seed-5": lambda: planted_problem(10, 5),
    "planted-12-seed-1": lambda: planted_problem(12, 1),
    "unimodular-14-seed-3": lambda: unimodular_problem(14, 3),
}


@pytest.mark.parametrize("name", sorted(STALLED_BRACKETS))
def test_bracket_that_stalled_at_the_largest_sigma_closes(name, solver_grid):
    opts, width = SolveOptions(max_iter=2000), 1e-4
    problem = STALLED_BRACKETS[name]()
    lo, hi, witness = pick._conic_bracket(problem, solver_grid, opts, width)
    top = max(float(np.linalg.norm(t, 2)) for t in problem.targets)
    assert 0.0 <= hi - lo <= width * max(1.0, top)
    at_hi = PickProblem(nodes=problem.nodes, targets=problem.targets, norm_bound=hi)
    assert residual(assemble_pick_target(at_hi), witness) <= opts.tol
    # the check of bench/workloads.py::Sandwich._check
    above = PickProblem(
        nodes=problem.nodes, targets=problem.targets, norm_bound=hi + width * max(1.0, hi)
    )
    sol = solve_pick(above, solver_grid, opts)
    assert sol.status is SolveStatus.FEASIBLE
    assert sol.node_residual <= 1e-7


@pytest.mark.parametrize("n, seed", [(12, 3), (16, 1)])
def test_planted_bracket_that_stalled_in_the_szego_repair_closes(n, seed, solver_grid):
    # the proximal rounds raised "stalled" at relative widths 5.1e-4 (N = 12)
    # and 2.1e-2 (N = 16)
    opts, width = SolveOptions(max_iter=2000), 1e-4
    problem = planted_problem(n, seed)
    lo, hi, witness = pick._conic_bracket(problem, solver_grid, opts, width)
    top = max(float(np.linalg.norm(t, 2)) for t in problem.targets)
    assert 0.0 <= hi - lo <= width * max(1.0, top)
    assert lo <= 0.95  # the targets are planted at 0.95
    at_hi = PickProblem(nodes=problem.nodes, targets=problem.targets, norm_bound=hi)
    assert residual(assemble_pick_target(at_hi), witness) <= opts.tol
    # the check of bench/workloads.py::Sandwich._check, which semismooth
    # Newton could not pass here (it ended Unknown near the threshold)
    above = PickProblem(
        nodes=problem.nodes, targets=problem.targets, norm_bound=hi + width * max(1.0, hi)
    )
    sol = solve_pick(above, solver_grid, opts)
    assert sol.status is SolveStatus.FEASIBLE
    assert sol.node_residual <= 1e-7


def test_bracket_whose_steps_collapse_raises(monkeypatch, solver_grid):
    # every step is at most 1, so none reaches a floor of 2
    monkeypatch.setattr(feasibility, "_MIN_STEP", 2.0)
    with pytest.raises(NumericsError, match="stalled at relative width"):
        minimal_norm_bracket(sandwich_item(), solver_grid, SolveOptions(max_iter=1000))


# Solves that semismooth Newton ended Unknown, or decided only slowly.  Each
# has a CPU bound below what semismooth Newton took (one BLAS thread, 2-vCPU
# VM) and at least twice the interior-point method's CPU time with the BLAS
# thread count left to OpenBLAS.


@pytest.mark.parametrize("seed", [2, 3, 25])
def test_planted_target_with_no_safe_atom_is_decided(seed, solver_grid):
    # no Szego kernel is safely positive definite, so there is no single-atom
    # witness and the method starts from B_m = sigma I: 16-19 iterations,
    # 0.3-0.45 CPU-s each on one BLAS thread and 0.7-0.9 on two; semismooth
    # Newton took 84 and 68 steps (3.1 and 2.5 CPU-s on one thread) on seeds
    # 2 and 3, and ended seed 25 Unknown after 97 (3.8 CPU-s)
    problem = planted_problem(16, seed)
    szego = np.linalg.eigvalsh(hermitian_part(1.0 / coefficient_masks(solver_grid, problem.nodes)))
    assert not np.any(szego[:, 0] > 1e-12 * szego[:, -1])
    opts = SolveOptions(max_iter=2000)
    t0 = time.process_time()
    sol = solve_pick(problem, solver_grid, opts)
    assert time.process_time() - t0 < 2.0
    assert sol.status is SolveStatus.FEASIBLE and sol.report.iterations > 0
    assert residual(assemble_pick_target(problem), sol.report.blocks) <= opts.tol
    assert sol.node_residual <= 1e-7


@pytest.mark.parametrize("top", [1e30, 1e40, 1e75])
def test_huge_diagonal_target_is_certified_at_once(top, diagonal_pair, solver_grid):
    # J = 1 - w w* has the diagonal entry 1 - top^2, so tr J < 0, and the
    # identity, the kernel of the dual start Z = I / N, certifies at
    # iteration 0; semismooth Newton ended all three Unknown
    problem = scalar_problem(diagonal_pair, [top, 0.5])
    t0 = time.process_time()
    sol = solve_pick(problem, solver_grid)
    assert time.process_time() - t0 < 0.1
    assert sol.status is SolveStatus.INFEASIBLE_CERTIFIED and sol.report.iterations == 0
    kern = sol.report.certificate
    assert admissibility_check(kern, solver_grid, tol=1e-8).is_admissible_on_grid
    j = assemble_pick_target(problem).matrix
    assert min_eigenvalue(schur_oslash(j, kern.matrix)) <= -1e-8
    assert np.isfinite(sol.report.residual)


@pytest.mark.parametrize("name", sorted(STALL_FILES))
def test_loop_file_that_newton_left_unknown_is_decided(name, solver_grid):
    # semismooth Newton ended these Unknown after 45 and 61 steps, in a
    # 2-cycle near the threshold; the interior-point method takes 4 iterations
    problem = stall_file_problem(name)
    opts = SolveOptions(max_iter=2000)
    t0 = time.process_time()
    sol = solve_pick(problem, solver_grid, opts)
    assert time.process_time() - t0 < 0.2
    assert sol.status is SolveStatus.FEASIBLE
    assert residual(assemble_pick_target(problem), sol.report.blocks) <= opts.tol
    assert sol.node_residual <= 1e-7
