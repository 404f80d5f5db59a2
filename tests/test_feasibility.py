import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symbidisk import (
    AlphaGrid,
    CPBlocks,
    FeasibilityTarget,
    NodeSet,
    SolveStatus,
    admissibility_check,
    make_b_kernel,
    residual,
    schur_oslash,
    solve,
)
from symbidisk.feasibility import _expand_masks
from symbidisk.geometry import phi_values
from symbidisk.hermitian import min_eigenvalue
from symbidisk.kernels import coefficient_masks, random_admissible_kernel

from conftest import random_nodes


def planted_target(rng, nodes, grid, block=1):
    masks = coefficient_masks(grid, nodes)
    cexp = _expand_masks(masks, block)
    n = len(nodes) * block
    stack = []
    for _ in range(len(grid)):
        w = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        stack.append(w @ w.conj().T / n)
    stack = np.stack(stack)
    j = np.einsum("mij,mij->ij", cexp, stack)
    j /= max(1.0, np.linalg.norm(j))
    return FeasibilityTarget(nodes=nodes, matrix=j, block=block), stack


def colligation_target(rng, nodes, grid, state_dim, scale, out_dim=1):
    """Pick target I - scale^2 F F* of a random unitary colligation on grid atoms.

    F is the transfer function A + B Z (I - D Z)^{-1} C at the nodes, whose
    states sit on randomly drawn grid alphas; at scale <= 1 the target is
    feasible by construction.
    """
    size = out_dim + state_dim
    q = np.linalg.qr(rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size)))[0]
    a, b, c, d = q[:out_dim, :out_dim], q[:out_dim, out_dim:], q[out_dim:, :out_dim], q[out_dim:, out_dim:]
    atoms = rng.integers(0, len(grid), size=state_dim)
    zs = phi_values(grid.alphas[atoms], nodes.s, nodes.p).T
    f = np.concatenate(
        [a + (b * z) @ np.linalg.solve(np.eye(state_dim) - d * z, c) for z in zs]
    )
    n = len(nodes)
    j = np.kron(np.ones((n, n)), np.eye(out_dim)) - scale**2 * (f @ f.conj().T)
    return FeasibilityTarget(nodes=nodes, matrix=j, block=out_dim)


def needs_iteration(target, grid):
    """No J / C_m is PSD, so no single-atom witness exists."""
    cexp = _expand_masks(coefficient_masks(grid, target.nodes), target.block)
    return all(min_eigenvalue(target.matrix / c) < -1e-6 for c in cexp)


def certificate_holds(target, grid, kernel, tol=1e-8):
    """Grid admissibility and a violation of at least tol, re-checked with numpy."""
    d = target.block
    masks = coefficient_masks(grid, target.nodes)
    admissible = min(min_eigenvalue(c * kernel) for c in masks) >= -tol
    return admissible and min_eigenvalue(target.matrix * np.kron(kernel, np.ones((d, d)))) <= -tol


def cheap_kernels_fail(target, grid, tol=1e-8):
    """Neither the identity nor any grid-admissible b-kernel certifies."""
    masks = coefficient_masks(grid, target.nodes)
    for k in [np.eye(len(target.nodes))] + [1.0 / c for c in masks]:
        scale = 1.0 / np.sqrt(np.real(np.diag(k)))
        if certificate_holds(target, grid, k * np.outer(scale, scale), tol):
            return False
    return True


def planted_infeasible(rng, nodes, grid, out_dim=1):
    """A feasible colligation target pushed past a grid-admissible kernel K.

    J = J0 - c (conj(K) - diag K) (x) 1 keeps the diagonal of J0 (so the
    identity kernel cannot certify) while c makes sum J . (K (x) 1) < 0: K
    then certifies infeasibility by construction.
    """
    base = colligation_target(rng, nodes, grid, 3, 0.9, out_dim)
    k = random_admissible_kernel(nodes, grid, seed=int(rng.integers(1000))).matrix
    off = k.conj() - np.diag(np.diag(k.conj()))
    ones = np.ones((out_dim, out_dim))
    c = 1.1 * np.sum(base.matrix * np.kron(k, ones)).real / (out_dim**2 * np.sum(np.abs(off) ** 2))
    return FeasibilityTarget(nodes=nodes, matrix=base.matrix - c * np.kron(off, ones), block=out_dim)


def dykstra_witness(target, grid, iters):
    """Minimum-norm witness by Dykstra's alternating projections, as an oracle."""
    c = _expand_masks(coefficient_masks(grid, target.nodes), target.block)
    ssum = (np.abs(c) ** 2).sum(axis=0)
    b = np.zeros_like(c)
    corr = np.zeros_like(c)
    for _ in range(iters):
        y = b + corr
        w, v = np.linalg.eigh(y)
        cone = (v * np.clip(w, 0.0, None)[:, None, :]) @ v.conj().transpose(0, 2, 1)
        corr = y - cone
        r = np.einsum("mij,mij->ij", c, cone) - target.matrix
        b = cone - c.conj() * (r / ssum)
    return cone


class TestSolve:
    def test_all_ones_target_is_feasible(self, rng, solver_grid):
        nodes = random_nodes(rng, 3)
        target = FeasibilityTarget(nodes=nodes, matrix=np.ones((3, 3)))
        report = solve(target, solver_grid)
        assert report.status is SolveStatus.FEASIBLE
        assert report.residual <= 1e-8
        # explicit witness: the b-kernel at the first grid alpha
        masks = coefficient_masks(solver_grid, nodes)
        witness = [np.zeros((3, 3), dtype=complex) for _ in solver_grid.alphas]
        witness[0] = 1.0 / masks[0]
        assert residual(target, CPBlocks(grid=solver_grid, blocks=tuple(witness))) <= 1e-12

    def test_zero_target(self, rng, solver_grid):
        nodes = random_nodes(rng, 2)
        target = FeasibilityTarget(nodes=nodes, matrix=np.zeros((2, 2)))
        report = solve(target, solver_grid)
        assert report.status is SolveStatus.FEASIBLE
        assert all(np.abs(b).max() <= 1e-10 for b in report.blocks.blocks)

    def test_two_point_oracle_infeasible(self, diagonal_pair, solver_grid):
        w = np.array([0.0, 0.9])
        target = FeasibilityTarget(
            nodes=diagonal_pair, matrix=1.0 - np.outer(w, w.conj())
        )
        report = solve(target, solver_grid)
        assert report.status is SolveStatus.INFEASIBLE_CERTIFIED
        cert = report.certificate
        assert admissibility_check(cert, solver_grid, tol=1e-8).is_admissible_on_grid
        prod = schur_oslash(target.matrix, cert.matrix)
        assert min_eigenvalue(prod) <= -1e-8

    def test_planted_instances(self, rng, solver_grid):
        for _ in range(5):
            nodes = random_nodes(rng, 3)
            target, _ = planted_target(rng, nodes, solver_grid)
            report = solve(target, solver_grid)
            assert report.status is SolveStatus.FEASIBLE
            assert report.residual <= 1e-8
            assert residual(target, report.blocks) <= 2e-8

    def test_block_planted_instance(self, rng, solver_grid):
        nodes = random_nodes(rng, 2)
        target, _ = planted_target(rng, nodes, solver_grid, block=2)
        report = solve(target, solver_grid)
        assert report.status is SolveStatus.FEASIBLE
        assert report.residual <= 1e-8

    def test_determinism(self, rng, solver_grid):
        nodes = random_nodes(rng, 3)
        target, _ = planted_target(rng, nodes, solver_grid)
        r1 = solve(target, solver_grid)
        r2 = solve(target, solver_grid)
        assert r1.status == r2.status
        assert r1.residual == r2.residual
        assert r1.iterations == r2.iterations
        for b1, b2 in zip(r1.blocks.blocks, r2.blocks.blocks):
            assert b1.tobytes() == b2.tobytes()

    def test_grid_growth_never_flips_feasible(self, rng):
        small = AlphaGrid.boundary(4)
        big = AlphaGrid.boundary(8)
        for _ in range(3):
            nodes = random_nodes(rng, 2)
            target, _ = planted_target(rng, nodes, small)
            rep_small = solve(target, small)
            assert rep_small.status is SolveStatus.FEASIBLE
            rep_big = solve(target, big)
            assert rep_big.status is not SolveStatus.INFEASIBLE_CERTIFIED

    def test_mutual_exclusion_on_reports(self, rng, solver_grid, diagonal_pair):
        # a report never carries both a low-residual witness and a certificate
        cases = []
        nodes = random_nodes(rng, 3)
        cases.append(planted_target(rng, nodes, solver_grid)[0])
        w = np.array([0.0, 0.9])
        cases.append(
            FeasibilityTarget(nodes=diagonal_pair, matrix=1.0 - np.outer(w, w.conj()))
        )
        for target in cases:
            rep = solve(target, solver_grid)
            has_witness = rep.blocks is not None and rep.residual <= 1e-8
            has_cert = rep.certificate is not None
            assert not (has_witness and has_cert)

    def test_newton_witness_matches_dykstra_oracle(self, solver_grid):
        rng = np.random.default_rng(7)
        while True:
            nodes = random_nodes(rng, 3)
            target = colligation_target(rng, nodes, solver_grid, 4, 0.8)
            if needs_iteration(target, solver_grid):
                break
        report = solve(target, solver_grid)
        assert report.status is SolveStatus.FEASIBLE and report.iterations > 0
        oracle = dykstra_witness(target, solver_grid, 20000)
        assert np.abs(report.blocks.stacked() - oracle).max() <= 1e-6

    @pytest.mark.parametrize("scale", [0.8, 0.95, 1.0])
    def test_planted_instances_that_need_the_iteration(self, scale, solver_grid):
        rng = np.random.default_rng(int(100 * scale))
        found = 0
        while found < 4:
            nodes = random_nodes(rng, 3)
            target = colligation_target(rng, nodes, solver_grid, int(rng.integers(3, 6)), scale)
            if not needs_iteration(target, solver_grid):
                continue
            found += 1
            report = solve(target, solver_grid)
            assert report.status is SolveStatus.FEASIBLE
            assert report.iterations > 0
            assert report.residual <= 1e-8
            assert residual(target, report.blocks) <= 2e-8

    def test_planted_infeasible_instances_certified_by_iteration(self, solver_grid):
        rng = np.random.default_rng(11)
        found = 0
        while found < 4:
            nodes = random_nodes(rng, 3)
            target = planted_infeasible(rng, nodes, solver_grid)
            if not cheap_kernels_fail(target, solver_grid):
                continue
            found += 1
            report = solve(target, solver_grid)
            assert report.status is SolveStatus.INFEASIBLE_CERTIFIED
            assert report.iterations > 0
            assert report.blocks is None
            assert certificate_holds(target, solver_grid, report.certificate.matrix)

    def test_block_infeasible_gives_scalar_certificate_or_unknown(self, solver_grid):
        rng = np.random.default_rng(5)
        for _ in range(3):
            nodes = random_nodes(rng, 3)
            target = planted_infeasible(rng, nodes, solver_grid, out_dim=2)
            report = solve(target, solver_grid)
            assert report.status is not SolveStatus.FEASIBLE
            if report.status is SolveStatus.INFEASIBLE_CERTIFIED:
                assert report.certificate.matrix.shape == (3, 3)
                assert certificate_holds(target, solver_grid, report.certificate.matrix)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 3), scale=st.floats(0.5, 1.5))
def test_solve_properties(seed, n, scale):
    rng = np.random.default_rng(seed)
    grid = AlphaGrid.solver_default()
    nodes = random_nodes(rng, n)
    target = colligation_target(rng, nodes, grid, 3, scale)
    report = solve(target, grid)
    # witness and certificate never both appear
    assert report.blocks is None or report.certificate is None
    if report.status is SolveStatus.FEASIBLE:
        assert report.residual <= 1e-8
        assert residual(target, report.blocks) <= 2e-8
    if report.status is SolveStatus.INFEASIBLE_CERTIFIED:
        assert certificate_holds(target, grid, report.certificate.matrix)
    perm = rng.permutation(n)
    permuted = FeasibilityTarget(
        nodes=NodeSet(tuple(nodes.points[i] for i in perm)),
        matrix=target.matrix[np.ix_(perm, perm)],
    )
    assert solve(permuted, grid).status is report.status


class TestResidual:
    def test_exact_witness(self, rng, solver_grid):
        nodes = random_nodes(rng, 3)
        target, stack = planted_target(rng, nodes, solver_grid)
        # the planted stack itself reproduces J after the same normalization
        masks = coefficient_masks(solver_grid, nodes)
        j_raw = np.einsum("mij,mij->ij", masks, stack)
        scale = max(1.0, np.linalg.norm(j_raw))
        blocks = CPBlocks(grid=solver_grid, blocks=tuple(stack / scale))
        assert residual(target, blocks) <= 1e-12

    def test_zero_blocks_measure_target_norm(self, diagonal_pair, solver_grid):
        target = FeasibilityTarget(nodes=diagonal_pair, matrix=np.ones((2, 2)))
        zero = CPBlocks(
            grid=solver_grid,
            blocks=tuple(np.zeros((2, 2)) for _ in solver_grid.alphas),
        )
        assert residual(target, zero) == pytest.approx(2.0)

    def test_single_entry_perturbation(self, solver_grid):
        nodes = NodeSet.from_pairs([(0.05, 0.0), (-0.05, 0.01)])
        target = FeasibilityTarget(nodes=nodes, matrix=np.ones((2, 2)))
        report = solve(target, solver_grid)
        blocks = [b.copy() for b in report.blocks.blocks]
        eps = 1e-3
        blocks[0][0, 0] += eps  # diagonal entry keeps the stack Hermitian
        pert = residual(target, CPBlocks(grid=solver_grid, blocks=tuple(blocks)))
        base = report.residual
        assert eps / 2 <= pert + base and pert - base <= 2 * eps


class TestSolveDecidesProbeCases:
    """The cases that once exercised the separate certificate search, at solve level."""

    def test_psd_target_is_feasible(self, rng, solver_grid):
        nodes = random_nodes(rng, 2)
        target = FeasibilityTarget(nodes=nodes, matrix=np.ones((2, 2)))
        report = solve(target, solver_grid)
        assert report.status is SolveStatus.FEASIBLE
        assert report.certificate is None

    def test_two_node_extremal_certificate(self, diagonal_pair, solver_grid):
        w = np.array([0.0, 0.9])
        target = FeasibilityTarget(
            nodes=diagonal_pair, matrix=1.0 - np.outer(w, w.conj())
        )
        report = solve(target, solver_grid)
        assert report.status is SolveStatus.INFEASIBLE_CERTIFIED
        assert report.certificate_min_eig <= -1e-6
        # the extremal kernel matches the coordinate pullback structure
        b = make_b_kernel(solver_grid.alphas[0], diagonal_pair)
        prod = schur_oslash(target.matrix, b.matrix)
        assert min_eigenvalue(prod) <= -1e-6

    def test_negative_diagonal_certified_by_identity(self, rng, solver_grid):
        nodes = random_nodes(rng, 2)
        target = FeasibilityTarget(nodes=nodes, matrix=np.diag([1.0, -0.5]))
        report = solve(target, solver_grid)
        assert report.status is SolveStatus.INFEASIBLE_CERTIFIED
        assert report.iterations == 0
        assert report.certificate_min_eig <= -1e-8
        assert np.allclose(report.certificate.matrix, np.eye(2))


def test_rejects_malformed_target(diagonal_pair):
    with pytest.raises(Exception):
        FeasibilityTarget(nodes=diagonal_pair, matrix=np.array([[0.0, 1.0], [0.0, 0.0]]))
