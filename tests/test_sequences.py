import math
import time

import numpy as np
import pytest

from symbidisk import (
    AlphaGrid,
    KernelMatrix,
    NodeSet,
    SolveStatus,
    ValidationError,
    carleson_condition,
    grammian_bounds,
    grammian_normalize,
    pseudo_hyperbolic,
    random_admissible_kernel,
    strong_separation,
)
from symbidisk import pick, realization, sequences
from symbidisk.kernels import coefficient_masks, szego_pullbacks
from symbidisk.pick import PickProblem, solve_pick
from symbidisk.sequences import (
    SequenceTruncation,
    best_carleson_alpha,
    interpolation_constant,
    phase_pattern_family,
)

from conftest import disc_whitened, random_nodes, variety_nodes


@pytest.fixture
def diag_trunc(diagonal_pair):
    return SequenceTruncation(nodes=diagonal_pair)


class TestGrammianBounds:
    def test_single_node(self, solver_grid):
        trunc = SequenceTruncation(nodes=NodeSet.from_pairs([(0.3, 0.05)]))
        rep = grammian_bounds(trunc, solver_grid, 0, 3)
        assert rep.worst_lower == pytest.approx(1.0)
        assert rep.worst_upper == pytest.approx(1.0)

    def test_diagonal_b_kernel_closed_form(self, diag_trunc, solver_grid):
        # b[0], the pullback at alpha = 0, passes the grid check on this pair
        rep = grammian_bounds(diag_trunc, solver_grid, 0, 2)
        kid, lo, hi = rep.per_kernel[0]
        assert kid == "b[0]"
        assert lo == pytest.approx(0.4, abs=1e-10)
        assert hi == pytest.approx(1.6, abs=1e-10)

    def test_near_duplicate_nodes_degenerate(self):
        nodes = NodeSet.from_pairs([(0.3, 0.05), (0.3 + 1e-3, 0.05)])
        trunc = SequenceTruncation(nodes=nodes)
        # the pullback kernel is only admissible at its own alpha here
        own_alpha = AlphaGrid(np.array([0.0 + 0.0j]))
        rep = grammian_bounds(trunc, own_alpha, 0, 2)
        assert rep.per_kernel[0][0] == "b[0]"
        assert rep.worst_lower <= 1e-4

    def test_stacked_eigensolve_matches_one_per_kernel(self, rng, solver_grid):
        trunc = SequenceTruncation(nodes=random_nodes(rng, 3))
        rep = grammian_bounds(trunc, solver_grid, 2, 9)
        pullbacks = szego_pullbacks(coefficient_masks(solver_grid, trunc.nodes))
        census = [KernelMatrix(trunc.nodes, pullbacks[int(kid[2:-1])])
                  for kid, _, _ in rep.per_kernel if kid.startswith("b[")]
        census += [random_admissible_kernel(trunc.nodes, solver_grid, seed=int(kid[5:-1]))
                   for kid, _, _ in rep.per_kernel if kid.startswith("rand[")]
        for kern, (_, lo, hi) in zip(census, rep.per_kernel):
            g = grammian_normalize(kern)
            assert np.allclose(np.diag(g), 1.0)
            lam = np.linalg.eigvalsh(g)
            assert (lo, hi) == (lam[0], lam[-1])
        assert rep.worst_lower == min(lo for _, lo, _ in rep.per_kernel)
        assert rep.worst_upper == max(hi for _, _, hi in rep.per_kernel)


class TestKernelCensus:
    def test_generator_bug_propagates(self, diag_trunc, solver_grid, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("bug in the generator")

        monkeypatch.setattr(sequences, "random_admissible_kernel", broken)
        with pytest.raises(RuntimeError, match="bug in the generator"):
            grammian_bounds(diag_trunc, solver_grid, 7, 8)

    def test_random_draws_fill_the_census_from_the_seed(self, diag_trunc, solver_grid):
        names = [kid for kid, _, _ in grammian_bounds(diag_trunc, solver_grid, 7, 8).per_kernel]
        pullbacks = [name for name in names if name.startswith("b[")]
        assert 0 < len(pullbacks) <= 4
        assert names == pullbacks + [f"rand[{7 + k}]" for k in range(8 - len(pullbacks))]

    def test_empty_census_is_rejected(self, diag_trunc, solver_grid):
        with pytest.raises(ValidationError, match="count"):
            grammian_bounds(diag_trunc, solver_grid, 0, 0)


class TestCarleson:
    def test_single_node_empty_product(self):
        trunc = SequenceTruncation(nodes=NodeSet.from_pairs([(0.1, 0.0)]))
        assert carleson_condition(trunc, 0.2) == 1.0

    def test_diagonal_pair_any_alpha(self, diag_trunc):
        for alpha in (0.0, 0.7, 1j, np.exp(0.4j)):
            assert carleson_condition(diag_trunc, alpha) == pytest.approx(0.8, abs=1e-12)

    def test_alpha_dependence_when_images_collide(self):
        # equal s, different p: phi(0, .) = -s/2 coincides, so delta-hat = 0
        # at alpha = 0 but is positive at some other alpha
        nodes = NodeSet.from_pairs([(0.4, 0.1), (0.4, -0.1)])
        trunc = SequenceTruncation(nodes=nodes)
        assert carleson_condition(trunc, 0.0) == pytest.approx(0.0, abs=1e-12)
        _, best = best_carleson_alpha(trunc, AlphaGrid.boundary(16))
        assert best > 0.05

    def test_validates_alpha(self, diag_trunc):
        with pytest.raises(ValidationError):
            carleson_condition(diag_trunc, 1.5)


class TestSeparation:
    def test_single_node_constant_one(self, solver_grid):
        trunc = SequenceTruncation(nodes=NodeSet.from_pairs([(0.2, 0.01)]))
        sols = strong_separation(trunc, 1.0, solver_grid)
        assert len(sols) == 1
        assert sols[0].status is SolveStatus.FEASIBLE

    def test_diagonal_threshold(self, diag_trunc, solver_grid):
        # disk oracle: two points at pseudo-hyperbolic distance 0.8 are
        # strongly separated exactly at constant 1/0.8 = 1.25
        above = strong_separation(diag_trunc, 1.26, solver_grid)
        assert all(s.status is SolveStatus.FEASIBLE for s in above)
        below = strong_separation(diag_trunc, 1.24, solver_grid)
        assert any(s.status is not SolveStatus.FEASIBLE for s in below)

    def test_near_coincident_nodes_fail(self, solver_grid):
        nodes = NodeSet.from_pairs([(0.3, 0.05), (0.3 + 1e-3, 0.05)])
        trunc = SequenceTruncation(nodes=nodes)
        sols = strong_separation(trunc, 5.0, solver_grid)
        assert any(s.status is not SolveStatus.FEASIBLE for s in sols)

    def test_decides_as_solve_pick_without_synthesis(
        self, diag_trunc, rng, solver_grid, monkeypatch
    ):
        cases = [(diag_trunc, 1.26), (diag_trunc, 1.24)]
        cases.append((SequenceTruncation(nodes=random_nodes(rng, 3, rmax=0.7)), 3.0))
        expected = []
        for trunc, bound in cases:
            statuses = []
            for i in range(trunc.n):
                targets = tuple(np.array([[1.0 if j == i else 0.0]]) for j in range(trunc.n))
                problem = PickProblem(nodes=trunc.nodes, targets=targets, norm_bound=bound)
                statuses.append(solve_pick(problem, solver_grid).status)
            expected.append(statuses)
        assert {SolveStatus.FEASIBLE, SolveStatus.INFEASIBLE_CERTIFIED} <= {
            st for statuses in expected for st in statuses
        }

        def refuse(*args, **kwargs):
            raise AssertionError("strong_separation synthesized an interpolant")

        monkeypatch.setattr(realization, "realize", refuse)
        monkeypatch.setattr(pick, "realize", refuse)
        for (trunc, bound), statuses in zip(cases, expected):
            reps = strong_separation(trunc, bound, solver_grid)
            assert [rep.status for rep in reps] == statuses

    def test_royal_variety_disk_oracle(self):
        # On the royal variety, nodes (2 z, z^2), every phi(alpha, .) is -z, so
        # the problem is the disc's at every grid: node i's unit vector is
        # interpolable with norm c exactly when c >= 1 / prod_(j != i) rho(z_i, z_j).
        rng = np.random.default_rng(5)
        t0 = time.process_time()
        cases = 0
        for n in range(2, 7):
            for _ in range(3):
                while True:
                    z = 0.8 * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
                    rho = np.array([[pseudo_hyperbolic(a, b) for b in z] for a in z])
                    if rho[~np.eye(n, dtype=bool)].min() > 0.3:
                        break
                trunc = SequenceTruncation(nodes=NodeSet.from_pairs([(2 * w, w * w) for w in z]))
                np.fill_diagonal(rho, 1.0)
                for i, c in enumerate(1.0 / rho.prod(axis=1)):
                    above = strong_separation(trunc, 1.001 * c)[i].status
                    below = strong_separation(trunc, 0.999 * c)[i].status
                    assert above is SolveStatus.FEASIBLE, (n, i)
                    assert below is SolveStatus.INFEASIBLE_CERTIFIED, (n, i)
                    cases += 2
        assert cases == 120
        assert time.process_time() - t0 < 2.0

    def test_carleson_implies_strong_separation(self, rng, solver_grid):
        # constructive bound (1 + d)/d^2 from the disk interpolant pulled
        # through the best coordinate direction
        for _ in range(3):
            trunc = SequenceTruncation(nodes=random_nodes(rng, 2, rmax=0.7))
            alpha, delta_hat = best_carleson_alpha(trunc, solver_grid)
            if delta_hat <= 0.2:
                continue
            bound = (1.0 + delta_hat) / delta_hat**2
            sols = strong_separation(trunc, bound, solver_grid)
            assert all(s.status is SolveStatus.FEASIBLE for s in sols)


class TestPatternsAndConstant:
    def test_pattern_family_sizes(self):
        pats2 = phase_pattern_family(2, 64)
        assert pats2.shape == (64, 2)
        assert np.allclose(np.abs(pats2), 1.0)
        pats3 = phase_pattern_family(3, 64)
        assert pats3.shape == (64, 3)

    def test_pattern_family_is_a_group_census(self):
        # averaging w_i conj(w_j) over the family gives the identity pattern
        pats = phase_pattern_family(2, 64)
        avg = np.einsum("ki,kj->ij", pats, pats.conj()) / len(pats)
        assert np.allclose(avg, np.eye(2), atol=1e-12)

    def test_interpolation_constant_diagonal(self, diag_trunc, solver_grid):
        # worst unimodular pattern for two points at distance d = 0.8:
        # antipodal targets, C = (1 + sqrt(1 - d^2)) / d = 2
        m_hat = interpolation_constant(diag_trunc, solver_grid)
        assert m_hat == pytest.approx(2.0, abs=5e-3)

    @pytest.mark.parametrize("variety", ["royal", "flat"])
    def test_interpolation_constant_is_exact_at_variety_nodes(self, variety, solver_grid):
        # every phase class's minimal norm is the disc's at the z_i
        # (conftest.variety_nodes), so the constant is the largest of those
        rng = np.random.default_rng(5)
        cases = 0
        for n in range(2, 7):
            family = phase_pattern_family(n)
            for _ in range(3):
                z, nodes = variety_nodes(rng, variety, n)
                exact = max(
                    math.sqrt(np.linalg.eigvalsh(disc_whitened(z, np.outer(w, w.conj())))[-1])
                    for w in family[family[:, 0] == 1]
                )
                got = interpolation_constant(SequenceTruncation(nodes=nodes), solver_grid)
                assert got == pytest.approx(exact, rel=1e-9), (n, got, exact)
                cases += 1
        assert cases == 15

    def test_sandwich_on_diagonal_pair(self, diag_trunc, solver_grid):
        m_hat = interpolation_constant(diag_trunc, solver_grid)
        rep = grammian_bounds(diag_trunc, solver_grid, 7, 8)
        assert rep.worst_lower >= 1.0 / m_hat**2 - 1e-6
        assert rep.worst_upper <= m_hat**2 + 1e-6
