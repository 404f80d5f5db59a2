import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symbidisk import (
    AlphaGrid,
    CPBlocks,
    FeasibilityTarget,
    NodeSet,
    NumericsError,
    PickProblem,
    SolveOptions,
    SolveStatus,
    KernelMatrix,
    ValidationError,
    admissibility_check,
    grammian_normalize,
    minimal_norm_bracket,
    residual,
    solve,
    symmetrize,
)
from symbidisk import feasibility
from symbidisk.corona import CoronaProblem
from symbidisk.feasibility import MAX_TARGET_DIM, _Conic, _HermitianBasis, _hkm_schur
from symbidisk.hermitian import hermitian_part, min_eigenvalue, min_eigenvalue_stack
from symbidisk.kernels import (
    coefficient_masks,
    expand_masks,
    random_admissible_kernel,
    szego_pullbacks,
)
from symbidisk.realization import factor_target

from conftest import (
    certificate_holds,
    colligation_target,
    loop_file_problem,
    near_threshold_problem,
    planted_infeasible,
    psd_project,
    random_nodes,
    witnessed_bracket,
)


def planted_target(rng, nodes, grid, block=1):
    masks = coefficient_masks(grid, nodes)
    cexp = expand_masks(masks, block)
    n = len(nodes) * block
    stack = []
    for _ in range(len(grid)):
        w = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        stack.append(w @ w.conj().T / n)
    stack = np.stack(stack)
    j = np.einsum("mij,mij->ij", cexp, stack)
    j /= max(1.0, np.linalg.norm(j))
    return FeasibilityTarget(nodes=nodes, matrix=j, block=block), stack


def needs_iteration(target, grid):
    """No J / C_m is PSD, so no single-atom witness exists."""
    cexp = expand_masks(coefficient_masks(grid, target.nodes), target.block)
    return all(min_eigenvalue(target.matrix / c) < -1e-6 for c in cexp)


def cheap_kernel_certifies(target, grid, tol=1e-8):
    """0 when the identity certifies, 1 when a b-kernel 1 / C_m does, else None.

    Each kernel is tested in its unit-diagonal rescale, grid admissibility
    included.
    """
    masks = coefficient_masks(grid, target.nodes)
    for idx, k in enumerate([np.eye(len(target.nodes))] + [1.0 / c for c in masks]):
        scale = 1.0 / np.sqrt(np.real(np.diag(k)))
        if certificate_holds(target, grid, k * np.outer(scale, scale), tol):
            return min(idx, 1)
    return None


def cheap_kernels_fail(target, grid, tol=1e-8):
    """Neither the identity nor any grid-admissible b-kernel certifies."""
    return cheap_kernel_certifies(target, grid, tol) is None


def dykstra_witness(target, grid, iters):
    """Minimum-norm witness by Dykstra's alternating projections, as an oracle."""
    c = expand_masks(coefficient_masks(grid, target.nodes), target.block)
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
        witness = np.zeros((len(solver_grid), 3, 3), dtype=complex)
        witness[0] = 1.0 / masks[0]
        assert residual(target, CPBlocks(grid=solver_grid, blocks=witness)) <= 1e-12

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
        assert admissibility_check(cert, solver_grid, tol=1e-8)
        prod = target.matrix * cert.matrix
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

    def test_iterated_witness_matches_dykstra_oracle(self, solver_grid):
        # the oracle's alternating projections agree that the target is
        # feasible; the solve's witness is an interior point, not the oracle's
        # minimum-norm one, so it is re-verified instead of compared
        rng = np.random.default_rng(7)
        while True:
            nodes = random_nodes(rng, 3)
            target = colligation_target(rng, nodes, solver_grid, 4, 0.8)
            if needs_iteration(target, solver_grid):
                break
        oracle = dykstra_witness(target, solver_grid, 20000)
        assert residual(target, CPBlocks(grid=solver_grid, blocks=oracle)) <= 1e-6
        report = solve(target, solver_grid)
        assert report.status is SolveStatus.FEASIBLE and report.iterations > 0
        assert report.residual == residual(target, report.blocks) <= 1e-8
        assert min_eigenvalue_stack(report.blocks.blocks).min() >= 0.0

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

    def test_eigenvector_compression_certifies_where_the_block_trace_does_not(
        self, solver_grid, monkeypatch
    ):
        # planted_infeasible with the kernel's entries seen through unit
        # vectors v_i: J = J0 - c (conj(K) - diag K) (x) 1 . V, V = [v_i v_j*],
        # and c makes sum J . (K (x) 1) . conj(V) < 0.  default_rng(602) draws
        # n = 2, block 2; 7 of the first 2000 seeds certify only through the
        # top eigenvectors of the dual's diagonal blocks, this one among them:
        # the block trace of the certifying shifted dual violates nothing.
        rng = np.random.default_rng(602)
        n, d = int(rng.integers(2, 5)), int(rng.integers(2, 4))
        nodes = random_nodes(rng, n)
        base = colligation_target(rng, nodes, solver_grid, 3, 0.9, d)
        k = random_admissible_kernel(nodes, solver_grid, seed=int(rng.integers(1000))).matrix
        v = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        v = (v / np.linalg.norm(v, axis=1, keepdims=True)).ravel()
        big_v, ones = np.outer(v, v.conj()), np.ones((d, d))
        off = np.kron(k.conj() - np.diag(np.diag(k.conj())), ones) * big_v
        tested = np.sum(base.matrix * np.kron(k, ones) * big_v.conj()).real
        c = 1.1 * tested / np.sum(np.abs(off) ** 2)
        target = FeasibilityTarget(nodes=nodes, matrix=base.matrix - c * off, block=d)
        duals, compression = [], feasibility._compression

        def recorded(dual, n, d):
            duals.append(dual)
            return compression(dual, n, d)

        monkeypatch.setattr(feasibility, "_compression", recorded)
        report = solve(target, solver_grid)
        assert report.status is SolveStatus.INFEASIBLE_CERTIFIED
        assert certificate_holds(target, solver_grid, report.certificate.matrix)
        assert len(duals) == report.iterations + 1
        trace = duals[-1].reshape(n, d, n, d).trace(axis1=1, axis2=3).conj()
        kern = grammian_normalize(KernelMatrix(nodes, trace))
        assert min_eigenvalue(target.matrix * np.kron(kern, np.ones((d, d)))) > -1e-8


class TestInteriorPointSystems:
    """The interior-point Schur complement, one product of the masks' factors, and its solves."""

    @pytest.mark.parametrize(
        "block, n, boundary",
        [
            pytest.param(1, 3, None, id="1"),
            pytest.param(2, 3, None, id="2"),
            # phi(alpha_m, .) repeats over the three rows of every block
            pytest.param(3, 3, None, id="3"),
            pytest.param(1, 16, 32, id="many_atoms"),  # N = 16 on 33 alphas
        ],
    )
    def test_hkm_schur_matches_operator(self, block, n, boundary, solver_grid):
        # the interior-point Schur complement, assembled from the masks'
        # rank-two factors, and its real form in the Hermitian basis:
        # symmetric positive definite
        grid = solver_grid if boundary is None else AlphaGrid.boundary(boundary)
        rng = np.random.default_rng(block)
        nodes = random_nodes(rng, n)
        cexp = expand_masks(coefficient_masks(grid, nodes), block)
        size, m = n * block, len(grid)

        def hermitian(*stack):
            shape = stack + (size, size)
            w = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            return w + w.conj().swapaxes(-1, -2)

        b = hermitian(m) + 4 * size * np.eye(size)
        s = hermitian(m) + 4 * size * np.eye(size)
        sinv = np.linalg.inv(s)
        schur = _hkm_schur(*_Conic(nodes, grid, block).factors, b, sinv)
        basis = _HermitianBasis(size)
        real = basis.matrix(schur)
        assert np.abs(real - real.T).max() <= 1e-12 * np.abs(real).max()
        assert np.linalg.eigvalsh(real)[0] > 0.0
        for _ in range(3):
            h = hermitian()
            expected = np.einsum("mij,mij->ij", cexp, b @ (cexp.conj() * h) @ sinv)
            err = np.abs(schur @ h.ravel() - expected.ravel()).max()
            assert err <= 1e-12 * np.abs(expected).max()
            x = basis.coords(h)
            assert np.array_equal(basis.hermitian(x), basis.hermitian(x).conj().T)
            assert np.abs(basis.hermitian(x) - h).max() <= 1e-14 * np.abs(h).max()
            sym = hermitian_part(expected)
            assert np.abs(real @ x - basis.coords(sym)).max() <= 1e-12 * np.abs(sym).max()

    @pytest.mark.parametrize("n", range(1, 7))
    def test_basis_products_are_the_defining_elements(self, n):
        # Q's elements e_ii, (e_ij + e_ji) / sqrt 2 and i (e_ij - e_ji) / sqrt 2,
        # i < j, in the order of the coordinates; on an exactly Hermitian h
        # the coordinates Re<Q_k, h> and the matrix sum_k x_k Q_k, entry by
        # entry, are the bits of one product each
        rng = np.random.default_rng(n)
        basis, r = _HermitianBasis(n), math.sqrt(0.5)
        pairs = list(zip(*np.triu_indices(n, 1)))
        w = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = w + w.conj().T
        coords = np.array(
            [h[i, i].real for i in range(n)]
            + [r * (h[i, j].real + h[j, i].real) for i, j in pairs]
            + [r * (h[i, j].imag - h[j, i].imag) for i, j in pairs]
        )
        assert np.array_equal(basis.coords(h), coords)
        x = rng.standard_normal(n * n)
        expected = np.zeros((n, n), dtype=complex)
        for i in range(n):
            expected[i, i] = x[i]
        for k, (i, j) in enumerate(pairs):
            a, b = x[n + k], x[n + len(pairs) + k]
            expected[i, j], expected[j, i] = complex(r * a, r * b), complex(r * a, -r * b)
        herm = basis.hermitian(x)
        assert np.array_equal(herm, expected)
        assert np.array_equal(herm, herm.conj().T)
        assert np.abs(basis.hermitian(basis.coords(h)) - h).max() <= 1e-15 * np.abs(h).max()

    def test_interior_point_decides_planted_targets_up_to_n16(self, solver_grid):
        rng = np.random.default_rng(3)
        for n, block in [(3, 1), (5, 2), (12, 1), (16, 1)]:
            while True:
                nodes = random_nodes(rng, n)
                target = colligation_target(rng, nodes, solver_grid, 4, 0.9, out_dim=block)
                if needs_iteration(target, solver_grid):
                    break
            report = solve(target, solver_grid)
            assert report.status is SolveStatus.FEASIBLE, (n, block)
            assert report.iterations > 0
            assert report.residual <= 1e-8
            assert residual(target, report.blocks) <= 2e-8

    @pytest.mark.parametrize("n, block", [(21, 1), (7, 3)])
    def test_target_above_the_size_cap_is_rejected(self, n, block, rng):
        assert n * block == MAX_TARGET_DIM + 1
        nodes = random_nodes(rng, n)
        with pytest.raises(ValidationError, match="21 rows"):
            FeasibilityTarget(nodes=nodes, matrix=np.eye(n * block), block=block)
        below = NodeSet(nodes.points[: n - 1])
        FeasibilityTarget(nodes=below, matrix=np.eye((n - 1) * block), block=block)

class TestLeanDualPoint:
    """Exactly Hermitian interior-point stacks, and the dual start's identity kernel."""

    @staticmethod
    def cold_instance(seed, grid, n=3, block=1, scale=0.9):
        rng = np.random.default_rng(seed)
        while True:
            nodes = random_nodes(rng, n)
            target = colligation_target(rng, nodes, grid, 4, scale, out_dim=block)
            if needs_iteration(target, grid):
                return target

    @pytest.mark.parametrize("n, block", [(3, 1), (5, 2)])
    def test_stacks_are_exactly_hermitian_along_a_trajectory(
        self, n, block, monkeypatch, solver_grid
    ):
        # the interior-point iterates of solve and of the conic bracket: the
        # blocks B_m and S_m = conj(C_m) . Z, factorized as one stack
        cholesky, factorized = np.linalg.cholesky, []

        def checking_cholesky(a):
            if np.ndim(a) == 3:
                factorized.append(np.array_equal(a, a.conj().transpose(0, 2, 1)))
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", checking_cholesky)
        target = self.cold_instance(n, solver_grid, n, block)
        cold = solve(target, solver_grid)
        planted = planted_infeasible(np.random.default_rng(11), target.nodes, solver_grid)
        infeasible = solve(planted, solver_grid)
        assert cold.status is SolveStatus.FEASIBLE
        assert cold.iterations > 0 and infeasible.iterations > 0
        assert len(factorized) >= cold.iterations + infeasible.iterations and all(factorized)
        ws = tuple(np.eye(block) * w for w in (1.0, -1.0, 1.0j, 0.5, -0.5)[:n])
        before = len(factorized)
        minimal_norm_bracket(PickProblem(nodes=target.nodes, targets=ws), solver_grid)
        assert len(factorized) > before + 1 and all(factorized)

    @pytest.mark.parametrize("grid", [AlphaGrid.solver_default(), AlphaGrid.boundary(192)])
    def test_szego_stack_is_e_over_the_masks_bit_for_bit(self, grid):
        # Sz_m (x) I from the census's pullbacks equals hermitian_part(E / C_m),
        # signed zeros included, so the solver's start and repairs keep their bits
        rng = np.random.default_rng(41)
        for n, block in [(1, 3), (3, 1), (4, 2), (6, 3), (10, 2), (20, 1)]:
            core = _Conic(random_nodes(rng, n, rmax=0.95), grid, block)
            assert core.szego.tobytes() == hermitian_part(core.ee / core.cexp).tobytes()

    def test_unbounded_ray_is_certified(self, solver_grid):
        # J = -I: every conj(C_m) . J is negative definite, and the dual start
        # Z = I / N has -Re<J, Z> = 1, so its kernel, the identity, certifies
        nodes = random_nodes(np.random.default_rng(3), 3)
        target = FeasibilityTarget(nodes=nodes, matrix=-np.eye(3))
        with np.errstate(divide="raise", invalid="raise"):
            report = solve(target, solver_grid)
        assert report.status is SolveStatus.INFEASIBLE_CERTIFIED
        assert report.iterations == 0
        assert np.array_equal(report.certificate.matrix, np.eye(3))
        assert certificate_holds(target, solver_grid, report.certificate.matrix)


class TestNearThreshold:
    opts = SolveOptions(max_iter=1000)

    def test_cold_solve_is_decided(self, solver_grid):
        problem = near_threshold_problem()
        bound = float.fromhex("0x1.667470892ca5fp+1")
        scaled = PickProblem(nodes=problem.nodes, targets=problem.targets, norm_bound=bound)
        target = factor_target(scaled)
        report = solve(target, solver_grid, self.opts)
        assert report.status is SolveStatus.INFEASIBLE_CERTIFIED
        assert report.iterations > 0
        assert certificate_holds(target, solver_grid, report.certificate.matrix, self.opts.tol)

    def test_conic_bracket_closes_with_a_witness(self, solver_grid):
        # the bisection that this bracket replaced solved at bounds within
        # 1e-4 of the threshold, where a mu floor far above the Newton
        # system's precision made trials stall
        problem = near_threshold_problem()
        lo, hi, witness = witnessed_bracket(problem, solver_grid, self.opts, 1e-4)
        assert lo <= 2.80045 <= hi <= lo + 1e-4
        at_hi = PickProblem(nodes=problem.nodes, targets=problem.targets, norm_bound=hi)
        assert residual(factor_target(at_hi), witness) <= self.opts.tol

    @pytest.mark.parametrize("max_iter", [0, 3])
    def test_budget_ends_in_numerics_error(self, max_iter, solver_grid, monkeypatch):
        # the path takes at most max_iter steps (one Schur complement each)
        steps = []
        monkeypatch.setattr(feasibility, "_hkm_schur", lambda *a: steps.append(1) or _hkm_schur(*a))
        ended = f"not closed in {max_iter} interior-point iterations: relative width"
        with pytest.raises(NumericsError, match=ended):
            minimal_norm_bracket(
                near_threshold_problem(), solver_grid, SolveOptions(max_iter=max_iter)
            )
        assert len(steps) == max_iter


class TestSingleAtomWitness:
    @staticmethod
    def reference(target, grid, cexp, opts):
        """The residual()-based loop: (residual, atom) of the best P+(J / C_m), and every (residual, atom)."""
        j = target.matrix
        scale = max(1.0, float(np.abs(j).max(initial=0.0)))
        cands = hermitian_part(j / cexp)
        best, seen = None, []
        for m in np.flatnonzero(min_eigenvalue_stack(cands) >= -1e-12 * scale):
            stack = np.zeros_like(cexp, dtype=complex)
            stack[m] = psd_project(cands[m])
            res = residual(target, CPBlocks(grid=grid, blocks=stack))
            seen.append((res, int(m)))
            if res <= opts.tol and (best is None or res < best[0]):
                best = (res, int(m))
        return best, seen

    @pytest.mark.parametrize("block", [1, 2])
    def test_matches_residual_reference_bit_for_bit(self, block, diagonal_pair, solver_grid):
        # the interior-point method's repaired start from B = 0 at t = 1 is
        # decided at iteration 0 exactly where one atom P+(J / C_m) passes
        # residual(), at one of those atoms, and reports residual() of its
        # blocks bit for bit
        rng = np.random.default_rng(60 + block)
        opts, multi, ties = SolveOptions(), 0, 0
        for trial in range(60):
            # six of the nine atoms give the images of z = +-0.5 as -+0.5
            # exactly, so they share one mask and their residuals tie
            nodes = random_nodes(rng, 3) if trial % 3 == 0 else diagonal_pair
            n = len(nodes)
            cexp = expand_masks(coefficient_masks(solver_grid, nodes), block)
            w = rng.standard_normal((n * block, block)) + 1j * rng.standard_normal((n * block, block))
            j = np.kron(np.ones((n, n)), np.eye(block)) - rng.uniform(0.0, 0.01) * (w @ w.conj().T)
            target = FeasibilityTarget(nodes=nodes, matrix=j, block=block)
            expected, seen = self.reference(target, solver_grid, cexp, opts)
            report = solve(target, solver_grid, opts)
            at_once = report.status is SolveStatus.FEASIBLE and report.iterations == 0
            assert at_once == (expected is not None)
            if expected is None:
                continue
            multi += len(seen) >= 2
            ties += [res for res, _ in seen].count(expected[0]) >= 2
            assert report.residual == residual(target, report.blocks) <= opts.tol
            nonzero = [m for m, b in enumerate(report.blocks.blocks) if np.any(b)]
            assert len(nonzero) == 1
            assert nonzero[0] in [m for res, m in seen if res <= opts.tol]
        assert multi >= 40 and ties >= 10


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


def mask_check_kernel(rng, nodes, grid, admissible):
    """A kernel, not yet unit-diagonal, that is or is not admissible on the grid."""
    n = len(nodes)
    if admissible:
        k = random_admissible_kernel(nodes, grid, seed=int(rng.integers(1000))).matrix
    else:  # nearly rank one: C_m . K is nearly C_m, which is indefinite
        k = np.ones((n, n)) + 0.01 * np.eye(n)
    scale = rng.uniform(0.5, 2.0, n)
    return k * np.outer(scale, scale)


@pytest.mark.parametrize(
    "n, grid",
    [
        pytest.param(3, AlphaGrid.solver_default(), id="1"),
        pytest.param(19, AlphaGrid.boundary(192), id="2"),
    ],
)
@pytest.mark.parametrize("admissible", [True, False])
def test_grammian_rescale_keeps_grid_admissibility(admissible, n, grid, rng):
    # the certificate loop checks the rescaled compression: a positive diagonal
    # congruence decides as the raw kernel does, on the solver grid and on the
    # 193-alpha boundary grid with 19 nodes
    nodes = random_nodes(rng, n, rmax=0.6)
    raw = KernelMatrix(nodes, mask_check_kernel(rng, nodes, grid, admissible))
    kern = KernelMatrix(nodes=nodes, matrix=grammian_normalize(raw))
    assert admissibility_check(raw, grid, tol=1e-8) is admissible
    assert admissibility_check(kern, grid, tol=1e-8) is admissible


@pytest.mark.parametrize("bad", [0.0, np.nan])
def test_an_iterate_whose_compression_is_no_kernel_certifies_nothing(bad, monkeypatch, solver_grid):
    # a compression whose diagonal vanishes or is NaN at the certifying
    # iterate certifies nothing there, and the solve goes on to the same verdict
    w = np.array([0.0, 0.9])
    nodes = NodeSet.from_pairs([(1.0, 0.25), (-1.0, 0.25)])
    target = FeasibilityTarget(nodes=nodes, matrix=1.0 - np.outer(w, w.conj()))
    first = solve(target, solver_grid)
    assert first.status is SolveStatus.INFEASIBLE_CERTIFIED
    calls, compression = [], feasibility._compression

    def no_kernel_once(dual, n, d):
        calls.append(dual)
        if len(calls) == first.iterations + 1:
            return np.diag([1.0, bad]).astype(complex)
        return compression(dual, n, d)

    monkeypatch.setattr(feasibility, "_compression", no_kernel_once)
    again = solve(target, solver_grid)
    assert again.status is SolveStatus.INFEASIBLE_CERTIFIED
    assert again.iterations > first.iterations
    assert certificate_holds(target, solver_grid, again.certificate.matrix)


def test_a_violating_kernel_that_is_not_grid_admissible_certifies_nothing(
    monkeypatch, solver_grid
):
    # every iterate offers the all-ones kernel: J . 1 = J has a negative
    # eigenvalue, but each mask C_m = 1 . C_m is indefinite, so the
    # admissibility check refuses it at every iterate
    w = np.array([0.0, 0.9])
    nodes = NodeSet.from_pairs([(1.0, 0.25), (-1.0, 0.25)])
    target = FeasibilityTarget(nodes=nodes, matrix=1.0 - np.outer(w, w.conj()))
    ones = KernelMatrix(nodes, np.ones((2, 2)))
    assert min_eigenvalue(target.matrix) < -1e-8
    assert not admissibility_check(ones, solver_grid, 1e-8)
    checked = []

    def recorded(*args):
        checked.append(admissibility_check(*args))
        return checked[-1]

    monkeypatch.setattr(feasibility, "_compression", lambda dual, n, d: ones.matrix)
    monkeypatch.setattr(feasibility, "admissibility_check", recorded)
    report = solve(target, solver_grid, SolveOptions(max_iter=5))
    assert report.status is not SolveStatus.INFEASIBLE_CERTIFIED
    assert report.certificate is None
    assert len(checked) == report.iterations + 1 and not any(checked)


@pytest.mark.parametrize("block", [2, 3])
def test_certificate_min_eig_scales_each_target_block_by_one_kernel_entry(block, solver_grid):
    # J . (K (x) 1_block), built block by block: block (a, b) of J times K_ab
    n = 3
    rng = np.random.default_rng(block)
    nodes = random_nodes(rng, n)
    target = planted_infeasible(rng, nodes, solver_grid, out_dim=block)
    report = solve(target, solver_grid)
    assert report.status is SolveStatus.INFEASIBLE_CERTIFIED
    kern = report.certificate.matrix
    prod = np.empty_like(target.matrix)
    for a in range(n):
        for b in range(n):
            rows, cols = slice(a * block, (a + 1) * block), slice(b * block, (b + 1) * block)
            prod[rows, cols] = target.matrix[rows, cols] * kern[a, b]
    assert report.certificate_min_eig == min_eigenvalue(prod) <= -1e-8
    # a PSD target meets the PSD compression of a PSD dual in a PSD product
    # (Schur): nothing to certify
    size = n * block
    w = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    psd = FeasibilityTarget(nodes=nodes, matrix=w @ w.conj().T, block=block)
    assert solve(psd, solver_grid).status is not SolveStatus.INFEASIBLE_CERTIFIED


@pytest.mark.parametrize("max_iter", [0, 1, 2])
def test_solve_out_of_budget_ends_unknown(max_iter, solver_grid, monkeypatch):
    # the loop file just above its minimal norm (about 0.83361) is feasible,
    # but up to two interior-point iterations neither bring t to 1 nor certify
    target = loop_file_target(0.8337)
    assert solve(target, solver_grid).status is SolveStatus.FEASIBLE
    steps = []
    monkeypatch.setattr(feasibility, "_hkm_schur", lambda *a: steps.append(1) or _hkm_schur(*a))
    rep = solve(target, solver_grid, SolveOptions(max_iter=max_iter))
    assert rep.status is SolveStatus.UNKNOWN
    assert rep.iterations == len(steps) == max_iter
    assert rep.blocks is None and rep.certificate is None
    assert rep.notes == ("budget spent",)
    assert 1e-8 < rep.residual < np.inf  # the residual of the last iterate's blocks


@pytest.mark.parametrize("max_iter", [-1, 2.0])
def test_budget_that_is_not_a_count_is_refused(max_iter):
    # a budget below 0 once ran the solve without one, and _Conic.path
    # counts its steps with range()
    with pytest.raises(ValidationError, match=f"field 'max_iter' must be an integer >= 0, got {max_iter}"):
        SolveOptions(max_iter=max_iter)
    assert SolveOptions(max_iter=np.int64(2)).max_iter == 2


@pytest.mark.parametrize("tol", [np.inf, np.nan, -1.0])
def test_tolerance_that_is_not_a_finite_number_at_least_zero_is_refused(tol):
    # tol = inf once passed every residual, so a certified target came out
    # Feasible at iteration 0; NaN and -1 passed none and ran to a stall
    with pytest.raises(ValidationError, match=f"field 'tol' must be a finite number >= 0, got {tol!r}"):
        SolveOptions(tol=tol)
    assert SolveOptions(tol=0).tol == 0


def loop_file_target(bound):
    problem = loop_file_problem()
    at = PickProblem(nodes=problem.nodes, targets=problem.targets, norm_bound=bound)
    return factor_target(at)


def test_stalled_solve_ends_unknown(solver_grid, monkeypatch):
    # a step that leaves the iterate where it is ends the solve: below
    # _MIN_STEP on both sides, or a factorization that fails
    target = loop_file_target(0.834)
    decided = solve(target, solver_grid)
    assert decided.status is SolveStatus.FEASIBLE and decided.iterations > 3
    monkeypatch.setattr(feasibility, "_MIN_STEP", 2.0)  # every step is at most 1
    rep = solve(target, solver_grid)
    assert rep.status is SolveStatus.UNKNOWN
    assert rep.iterations == 0
    assert rep.blocks is None and rep.certificate is None
    assert rep.notes == ("stalled at iteration 0",)
    monkeypatch.undo()
    cholesky, calls = np.linalg.cholesky, []

    def failing_third(a):
        calls.append(1)
        if len(calls) == 3:
            raise np.linalg.LinAlgError("not positive definite")
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", failing_third)
    rep = solve(target, solver_grid)
    assert rep.status is SolveStatus.UNKNOWN
    assert rep.iterations == 2
    assert rep.notes == ("stalled at iteration 2",)


def test_residual_at_its_roundoff_floor_ends_unknown(solver_grid):
    # a feasible corona target scaled to |J| = 5.3e39: its witnesses meet the
    # identity only to about 1e24, so none re-verifies to tol.  Once t < 1 the
    # residual can only fall by (1 - step) per iteration, up to roundoff; the
    # solve ends when it does not, where it once ran all 20000 iterations
    nodes = NodeSet.from_pairs([(0.3 + 0.1j, 0.05), (-0.2, 0.1j)])
    phis = tuple(1e20 * np.array([row]) for row in ([0.2, 0.7], [-0.1 + 0.05j, 0.7]))
    target = factor_target(CoronaProblem(nodes=nodes, phi_samples=phis, delta=0.3))
    assert np.abs(target.matrix).max() > 1e39
    t0 = time.process_time()
    rep = solve(target, solver_grid)
    assert time.process_time() - t0 < 0.5
    assert rep.status is SolveStatus.UNKNOWN
    assert rep.iterations <= 5
    assert rep.notes == (f"residual at its roundoff floor at iteration {rep.iterations}",)
    assert 1e20 < rep.residual < 1e30


class TestResidual:
    def test_exact_witness(self, rng, solver_grid):
        nodes = random_nodes(rng, 3)
        target, stack = planted_target(rng, nodes, solver_grid)
        # the planted stack itself reproduces J after the same normalization
        masks = coefficient_masks(solver_grid, nodes)
        j_raw = np.einsum("mij,mij->ij", masks, stack)
        scale = max(1.0, np.linalg.norm(j_raw))
        blocks = CPBlocks(grid=solver_grid, blocks=stack / scale)
        assert residual(target, blocks) <= 1e-12

    def test_zero_blocks_measure_target_norm(self, diagonal_pair, solver_grid):
        target = FeasibilityTarget(nodes=diagonal_pair, matrix=np.ones((2, 2)))
        zero = CPBlocks(grid=solver_grid, blocks=np.zeros((len(solver_grid), 2, 2)))
        assert residual(target, zero) == pytest.approx(2.0)

    def test_single_entry_perturbation(self, solver_grid):
        nodes = NodeSet.from_pairs([(0.05, 0.0), (-0.05, 0.01)])
        target = FeasibilityTarget(nodes=nodes, matrix=np.ones((2, 2)))
        report = solve(target, solver_grid)
        blocks = report.blocks.blocks.copy()
        eps = 1e-3
        blocks[0][0, 0] += eps  # diagonal entry keeps the stack Hermitian
        pert = residual(target, CPBlocks(grid=solver_grid, blocks=blocks))
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
        b = szego_pullbacks(coefficient_masks(solver_grid, diagonal_pair))[0]
        prod = target.matrix * b
        assert min_eigenvalue(prod) <= -1e-6

    def test_negative_diagonal_certified_by_identity(self, rng, solver_grid):
        # the identity is the kernel of the dual start Z = I / N, and it
        # violates any J with a negative diagonal entry, whatever the sign
        # of tr J
        nodes = random_nodes(rng, 2)
        for diag in ([-1.0, 0.5], [1.0, -0.5]):
            target = FeasibilityTarget(nodes=nodes, matrix=np.diag(diag))
            report = solve(target, solver_grid)
            assert report.status is SolveStatus.INFEASIBLE_CERTIFIED
            assert report.iterations == 0
            assert report.certificate_min_eig == min(diag)
            assert np.array_equal(report.certificate.matrix, np.eye(2))
            assert certificate_holds(target, solver_grid, report.certificate.matrix)

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_interior_point_certifies_what_the_cheap_kernels_violate(self, block, solver_grid):
        # diagonal nodes share one mask, so their b-kernels are grid-admissible
        # and both kinds of kernel get to violate; on random nodes mostly the
        # identity does.  Solves start cold: solve keeps no memo of certificate
        # candidates between calls, so a repeat solve, and one on a freshly
        # built equal grid, give the same bits
        zs = [0.5, -0.3 + 0.4j, 0.1 - 0.6j]
        node_rng = np.random.default_rng(block)
        node_sets = [NodeSet(tuple(symmetrize(z, z) for z in zs))] * 40
        node_sets += [random_nodes(node_rng, 3) for _ in range(20)]
        fresh = AlphaGrid(alphas=solver_grid.alphas.copy())
        rng = np.random.default_rng(40 + block)
        violated = set()
        for nodes in node_sets:
            n = len(nodes)
            shape = (n * block, block)
            w = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            w *= rng.uniform(0.3, 1.5) / np.abs(w).max()
            j = np.kron(np.ones((n, n)), np.eye(block)) - w @ w.conj().T
            target = FeasibilityTarget(nodes=nodes, matrix=j, block=block)
            kind = cheap_kernel_certifies(target, solver_grid)
            if kind is None:
                continue
            violated.add(kind)
            report = solve(target, solver_grid)
            assert report.status is SolveStatus.INFEASIBLE_CERTIFIED
            assert certificate_holds(target, solver_grid, report.certificate.matrix)
            for again in (solve(target, solver_grid), solve(target, fresh)):
                assert again.status is report.status
                assert again.iterations == report.iterations
                assert again.certificate.matrix.tobytes() == report.certificate.matrix.tobytes()
                assert again.certificate_min_eig == report.certificate_min_eig
        assert violated == {0, 1}


def test_rejects_malformed_target(diagonal_pair):
    with pytest.raises(Exception):
        FeasibilityTarget(nodes=diagonal_pair, matrix=np.array([[0.0, 1.0], [0.0, 0.0]]))
