import numpy as np
import pytest

from symbidisk import (
    AlphaGrid,
    KernelMatrix,
    NodeSet,
    ValidationError,
    admissibility_check,
    grammian_normalize,
    phi,
    random_admissible_kernel,
)
from symbidisk import kernels
from symbidisk.hermitian import hermitian_part, min_eigenvalue, min_eigenvalue_stack
from symbidisk.kernels import coefficient_masks, expand_masks, szego_pullbacks

from conftest import pullback, random_nodes


class TestNodeSet:
    def test_rejects_duplicates(self):
        with pytest.raises(ValidationError):
            NodeSet.from_pairs([(0.1, 0.0), (0.1, 0.0)])

    def test_rejects_non_members(self):
        with pytest.raises(ValidationError):
            NodeSet.from_pairs([(2.0, 1.0)])

    def test_coordinate_arrays(self, diagonal_pair):
        assert np.allclose(diagonal_pair.s, [1.0, -1.0])
        assert np.allclose(diagonal_pair.p, [0.25, 0.25])


def test_kernel_matrix_is_n_by_n_on_its_nodes(diagonal_pair):
    # one entry per node pair: no other shape is a kernel on these nodes
    for shape in ((4, 4), (1, 1), (2, 3)):
        with pytest.raises(ValidationError, match="kernel matrix shape"):
            KernelMatrix(nodes=diagonal_pair, matrix=np.ones(shape))


class TestAlphaGrid:
    def test_boundary_sizes(self):
        assert len(AlphaGrid.boundary(8)) == 9
        assert len(AlphaGrid.boundary(8, include_zero=False)) == 8

    def test_solver_default_is_shared_and_read_only(self):
        grid = AlphaGrid.solver_default()
        assert grid is AlphaGrid.solver_default()
        assert np.array_equal(grid.alphas, AlphaGrid.boundary(8).alphas)
        with pytest.raises(ValueError):
            grid.alphas[0] = 0.5

    def test_rejects_exterior_alpha(self):
        with pytest.raises(ValidationError):
            AlphaGrid(np.array([1.5 + 0.0j]))

    def test_rejects_duplicates(self):
        with pytest.raises(ValidationError):
            AlphaGrid(np.array([0.5, 0.5]))

    def test_size_is_capped_before_allocating(self):
        cap = kernels.MAX_GRID_SIZE
        assert len(AlphaGrid.boundary(cap, include_zero=False)) == cap
        for n in (cap + 1, 10**12):
            with pytest.raises(ValidationError):
                AlphaGrid.boundary(n, include_zero=False)
        with pytest.raises(ValidationError):
            AlphaGrid.boundary(cap, include_zero=True)
        with pytest.raises(ValidationError):
            AlphaGrid(np.zeros(cap + 1))

    def test_boundary_states_the_bound_it_checks(self):
        # the origin counts toward the cap, and the message says so
        cap = kernels.MAX_GRID_SIZE
        with pytest.raises(ValidationError, match=f"need 1 <= n <= {cap - 1} boundary points plus the origin"):
            AlphaGrid.boundary(cap)
        assert len(AlphaGrid.boundary(cap - 1)) == cap
        assert len(AlphaGrid.boundary(cap, include_zero=False)) == cap
        with pytest.raises(ValidationError, match=f"need 1 <= n <= {cap} boundary points, got 0"):
            AlphaGrid.boundary(0, include_zero=False)


class TestAdmissibilityCheck:
    def test_single_node_closed_form(self, solver_grid):
        nodes = NodeSet.from_pairs([(0.8, 0.15)])
        c = 2.5
        kern = KernelMatrix(nodes=nodes, matrix=np.array([[c]]))
        assert admissibility_check(kern, solver_grid)
        lams = min_eigenvalue_stack(coefficient_masks(solver_grid, nodes) * kern.matrix)
        for alpha, lam in zip(solver_grid.alphas, lams):
            expected = (1.0 - abs(phi(alpha, nodes.points[0])) ** 2) * c
            assert lam == pytest.approx(expected, abs=1e-12)

    def test_szego_pullback_at_own_alpha_gives_all_ones(self, diagonal_pair):
        alpha = 0.3 + 0.4j
        kern = pullback(alpha, diagonal_pair)
        grid = AlphaGrid(np.array([alpha]))
        assert admissibility_check(kern, grid)
        # (1 - phi phibar) cancels the kernel: all-ones matrix, min eig 0
        lam = min_eigenvalue_stack(coefficient_masks(grid, diagonal_pair) * kern.matrix)
        assert lam[0] == pytest.approx(0.0, abs=1e-12)

    def test_all_ones_kernel_needs_equal_images(self, solver_grid):
        # ones - v v* is PSD only when the coordinate images v_i coincide, so
        # the all-ones kernel fails admissibility on generic distinct nodes
        nodes = NodeSet.from_pairs([(0.6, 0.05), (-0.4, 0.02), (0.1, -0.2)])
        kern = KernelMatrix(nodes=nodes, matrix=np.ones((3, 3)))
        assert not admissibility_check(kern, solver_grid)
        # a single node always passes: 1 - |phi|^2 > 0
        one = KernelMatrix(
            nodes=NodeSet.from_pairs([(0.6, 0.05)]), matrix=np.ones((1, 1))
        )
        assert admissibility_check(one, solver_grid)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_verdict_turns_at_its_tolerance(self, seed, solver_grid):
        # K - s I, K an admissible draw, with s bisected until
        # min_m lambda_min(C_m . (K - s I)) sits at -10 tol, then at -tol / 2:
        # the check refuses the first and accepts the second, so a bar looser
        # than tol, such as -100 tol, fails here
        tol = 1e-10
        nodes = random_nodes(np.random.default_rng(seed), 3)
        kern = random_admissible_kernel(nodes, solver_grid, seed=seed)
        masks = coefficient_masks(solver_grid, nodes)

        def low(s):
            return float(min_eigenvalue_stack(masks * (kern.matrix - s * np.eye(3))).min())

        def shifted_to(target):
            # low is nonincreasing in s; a stays above target, b at or below it
            a, b = 0.0, float(np.diag(kern.matrix).real.max()) + 1.0
            for _ in range(100):
                mid = 0.5 * (a + b)
                a, b = (mid, b) if low(mid) > target else (a, mid)
            assert low(b) == pytest.approx(target, rel=1e-2)
            return KernelMatrix(nodes=nodes, matrix=kern.matrix - b * np.eye(3))

        assert low(0.0) >= 0.0
        assert not admissibility_check(shifted_to(-10 * tol), solver_grid, tol)
        assert admissibility_check(shifted_to(-tol / 2), solver_grid, tol)

    def test_subgrid_monotonicity(self, rng, solver_grid):
        nodes = random_nodes(rng, 3)
        kern = random_admissible_kernel(nodes, solver_grid, seed=3)
        sub = AlphaGrid(solver_grid.alphas[::3])
        assert admissibility_check(kern, sub, tol=1e-8)

    @pytest.mark.parametrize("n", [1, 2, 50])
    def test_per_alpha_matches_per_slice_loop(self, n, rng):
        # the stacked eigensolve agrees with one eigvalsh per alpha on a PSD
        # kernel of n nodes that need not be admissible
        nodes = random_nodes(rng, n)
        w = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        kern = KernelMatrix(nodes=nodes, matrix=w @ w.conj().T)
        grid = AlphaGrid.boundary(192)
        masks = coefficient_masks(grid, nodes)
        expected = [min_eigenvalue(masks[m] * kern.matrix) for m in range(len(grid))]
        assert admissibility_check(kern, grid) is (min(expected) >= -1e-10)

    @pytest.mark.parametrize("admissible", [True, False])
    @pytest.mark.parametrize("n", [3, 20])
    def test_verdict_matches_per_slice_loop(self, n, admissible, rng):
        # one stacked eigensolve over a 193-alpha grid, however many nodes
        grid = AlphaGrid.boundary(192)
        nodes = random_nodes(rng, n, rmax=0.6)
        if admissible:
            kern = random_admissible_kernel(nodes, grid, seed=n)
        else:  # nearly rank one: C_m . K is nearly C_m, which is indefinite
            kern = KernelMatrix(nodes=nodes, matrix=np.ones((n, n)) + 0.01 * np.eye(n))
        masks = coefficient_masks(grid, nodes)
        lams = [min_eigenvalue_stack(masks[m : m + 1] * kern.matrix)[0] for m in range(len(grid))]
        assert admissibility_check(kern, grid) is admissible
        assert (min(lams) >= -1e-10) == admissible

    def test_admissible_at_the_roots_of_unity_is_admissible_inside(self, rng):
        # For a PSD kernel K and a vector v, alpha -> sum_ij v_i conj(v_j) K_ij
        # phi_i(alpha) conj(phi_j(alpha)) is a sum of squared moduli of
        # functions holomorphic in alpha, so subharmonic: admissibility on the
        # circle gives it on the closed disk.  (C_alpha . K = D_alpha
        # (N(alpha) . K) D_alpha* with N affine in alpha holds on the circle
        # only; inside, C_alpha has a further |alpha|^2 (s s* - 4 p p*) term.)
        # Here the 64 roots of unity stand in for the circle at the origin and
        # 8 radii x 16 angles of modulus <= 8/9, for draws shifted onto
        # admissibility at the roots and draws moved by t I onto its edge (t
        # of either sign, lambda_min = 0 at some root); with 3 or 4 roots
        # some edge kernel fails inside.
        ring = AlphaGrid.boundary(64, include_zero=False)
        inside = (np.arange(1, 9) / 9.0)[:, None] * np.exp(2j * np.pi * np.arange(16) / 16)
        inside = AlphaGrid(np.concatenate([[0.0], inside.ravel()]))
        shifted = 0
        for n in range(2, 21):
            for seed in range(6):
                nodes = random_nodes(rng, n, rmax=0.995, min_sep=1e-3)
                masks = coefficient_masks(ring, nodes)
                draw = TestRandomAdmissibleKernel.draw(n, seed)
                shift = kernels.admissible_shift(masks, draw)
                shifted += shift > 0.0
                d = 1.0 / np.sqrt(np.real(np.diagonal(masks, axis1=1, axis2=2)))
                scaled = masks * draw * (d[:, :, None] * d[:, None, :])
                edge = -np.linalg.eigvalsh(scaled)[:, 0].min()
                for t in (shift, edge):
                    k = draw + t * np.eye(n)
                    assert np.linalg.eigvalsh(k)[0] > 0.0
                    lams = min_eigenvalue_stack(coefficient_masks(inside, nodes) * k)
                    assert lams.min() >= -1e-10, (n, seed, t)
        assert 0 < shifted < 19 * 6  # unshifted draws and shifted ones alike


class TestCoefficientMasks:
    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_masks_are_exactly_hermitian(self, block, rng):
        # the solver's eigensolves read one triangle and do not symmetrize
        grids = [AlphaGrid.solver_default(), AlphaGrid.boundary(192), AlphaGrid.boundary(7)]
        for _ in range(20):
            nodes = random_nodes(rng, int(rng.integers(1, 6)))
            for cexp in (expand_masks(coefficient_masks(g, nodes), block) for g in grids):
                assert np.array_equal(cexp, cexp.conj().transpose(0, 2, 1))
                assert not np.any(np.imag(np.diagonal(cexp, axis1=1, axis2=2)))


class TestSzegoPullbacks:
    def test_single_origin_node(self):
        kern = pullback(0.7, NodeSet.from_pairs([(0.0, 0.0)]))
        assert np.allclose(kern.matrix, [[1.0]])

    def test_diagonal_pair_closed_form(self, diagonal_pair):
        for alpha in (0.0, 0.5j, np.exp(1j * 0.3)):
            kern = pullback(alpha, diagonal_pair)
            expected = np.array([[4.0 / 3.0, 0.8], [0.8, 4.0 / 3.0]])
            assert np.abs(kern.matrix - expected).max() <= 1e-12

    def test_always_psd(self, rng):
        for _ in range(10):
            nodes = random_nodes(rng, 4)
            alpha = 0.9 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
            kern = pullback(alpha, nodes)
            assert min_eigenvalue(kern.matrix) >= -1e-10 * np.abs(kern.matrix).max()

    def test_own_alpha_admissibility_sampled(self, rng):
        for k in range(5):
            nodes = random_nodes(rng, 3)
            alpha = np.exp(2j * np.pi * rng.random())
            kern = pullback(alpha, nodes)
            assert admissibility_check(kern, AlphaGrid(np.array([alpha])), tol=1e-12)

    @pytest.mark.parametrize("grid", [AlphaGrid.solver_default(), AlphaGrid.boundary(192)])
    def test_stack_is_exactly_hermitian_and_one_row_per_alpha(self, rng, grid):
        # row m is the one-alpha pullback at grid alpha m, and exactly Hermitian
        nodes = random_nodes(rng, 5)
        stack = szego_pullbacks(coefficient_masks(grid, nodes))
        assert stack.shape == (len(grid), 5, 5)
        assert np.array_equal(stack, stack.conj().transpose(0, 2, 1))
        for m in (0, len(grid) // 2, len(grid) - 1):
            one = pullback(grid.alphas[m], nodes).matrix
            assert np.abs(stack[m] - one).max() <= 1e-12 * np.abs(one).max()


class TestRandomAdmissibleKernel:
    def test_single_node_scalar(self, solver_grid):
        nodes = NodeSet.from_pairs([(0.4, 0.1)])
        kern = random_admissible_kernel(nodes, solver_grid, seed=0)
        assert kern.matrix.shape == (1, 1)
        assert np.real(kern.matrix[0, 0]) >= 1.0 - 1e-9

    def test_deterministic_in_seed(self, rng, solver_grid):
        nodes = random_nodes(rng, 3)
        k1 = random_admissible_kernel(nodes, solver_grid, seed=11)
        k2 = random_admissible_kernel(nodes, solver_grid, seed=11)
        assert k1.matrix.tobytes() == k2.matrix.tobytes()

    def test_output_passes_own_check(self, rng, solver_grid):
        for seed in range(4):
            nodes = random_nodes(rng, 3)
            kern = random_admissible_kernel(nodes, solver_grid, seed=seed)
            assert admissibility_check(kern, solver_grid, tol=1e-8)

    @staticmethod
    def draw(n, seed):
        """I + c bump, the generator's draw before any shift."""
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        bump = w @ w.conj().T
        bump /= np.linalg.norm(bump, 2)
        return hermitian_part(np.eye(n) + (0.3 + 0.5 * rng.random()) * bump)

    @pytest.mark.parametrize("grid", [AlphaGrid.solver_default(), AlphaGrid.boundary(192)])
    def test_draw_is_returned_unshifted_inside(self, rng, grid):
        for seed in range(30):
            n = int(rng.integers(2, 21))
            nodes = random_nodes(rng, n, rmax=0.85)
            kern = random_admissible_kernel(nodes, grid, seed=seed)
            assert kern.matrix.tobytes() == self.draw(n, seed).tobytes()

    @pytest.mark.parametrize("grid", [AlphaGrid.solver_default(), AlphaGrid.boundary(192)])
    def test_boundary_draws_are_shifted_onto_admissibility(self, rng, grid):
        shifted = 0
        for n in (3, 8, 20):
            for seed in range(20):
                nodes = random_nodes(rng, n, rmax=0.995, min_sep=1e-3)
                kern = random_admissible_kernel(nodes, grid, seed=seed)
                draw = self.draw(n, seed)
                shift = kernels.admissible_shift(coefficient_masks(grid, nodes), draw)
                assert kern.matrix.tobytes() == (draw + shift * np.eye(n)).tobytes()
                shifted += shift > 0.0
                assert admissibility_check(kern, grid, tol=1e-10)
        assert shifted > 0  # the shift path ran


class TestGrammianNormalize:
    def test_unit_diagonal(self, rng, solver_grid):
        nodes = random_nodes(rng, 3)
        kern = random_admissible_kernel(nodes, solver_grid, seed=5)
        g = grammian_normalize(kern)
        assert np.allclose(np.diag(g), 1.0)

    def test_scaling_invariance(self, diagonal_pair):
        kern = KernelMatrix(nodes=diagonal_pair, matrix=3.7 * np.ones((2, 2)))
        assert np.allclose(grammian_normalize(kern), np.ones((2, 2)))

    def test_szego_pullback_value(self, diagonal_pair):
        g = grammian_normalize(pullback(0.2, diagonal_pair))
        assert np.abs(g - np.array([[1.0, 0.6], [0.6, 1.0]])).max() <= 1e-12

    def test_diagonal_congruence_invariance(self, rng, diagonal_pair):
        kern = pullback(0.5, diagonal_pair)
        d = np.diag(rng.random(2) + 0.5)
        conj = KernelMatrix(nodes=diagonal_pair, matrix=d @ kern.matrix @ d)
        assert np.abs(grammian_normalize(conj) - grammian_normalize(kern)).max() <= 1e-12

    @pytest.mark.parametrize("matrix", [np.zeros((2, 2)), np.diag([1.0, np.nan])],
                             ids=["zero", "nan"])
    def test_rejects_vanishing_diagonal(self, matrix, diagonal_pair):
        weak = KernelMatrix(nodes=diagonal_pair, matrix=matrix)
        with pytest.raises(ValidationError):
            grammian_normalize(weak)
