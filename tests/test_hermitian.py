import math

import numpy as np
import pytest

from symbidisk import (
    AlphaGrid,
    NumericsError,
    ValidationError,
    unitary_completion,
)
from symbidisk.feasibility import _Conic, _hkm_schur
from symbidisk.hermitian import (
    HermitianBasis,
    hermitian_basis,
    hermitian_part,
    min_eigenvalue,
    min_eigenvalue_stack,
    psd_project_stack,
)
from symbidisk.kernels import coefficient_masks, expand_masks

from conftest import psd_project, random_nodes


def random_hermitian(rng, n, scale=1.0):
    w = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * hermitian_part(w)


def random_psd(rng, n, rank=None):
    rank = rank or n
    w = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    return w @ w.conj().T


class TestPsdProject:
    def test_indefinite_diagonal(self):
        assert np.allclose(psd_project(np.diag([1.0, -1.0])), np.diag([1.0, 0.0]))

    def test_fixed_point_on_psd(self, rng):
        h = random_psd(rng, 5)
        assert np.abs(psd_project(h) - h).max() <= 1e-12 * max(1, np.abs(h).max())

    def test_matches_clipping_oracle(self, rng):
        h = random_hermitian(rng, 6)
        # independent clip oracle, written from scratch
        lam, v = np.linalg.eigh(h)
        oracle = v @ np.diag(np.maximum(lam, 0.0)) @ v.conj().T
        assert np.abs(psd_project(h) - oracle).max() <= 1e-10

    def test_idempotent(self, rng):
        h = random_hermitian(rng, 6)
        once = psd_project(h)
        assert np.abs(psd_project(once) - once).max() <= 1e-12 * max(1, np.abs(once).max())


class TestPsdProjectStack:
    def test_slices_match_psd_project_and_spectrum_is_returned(self, rng):
        for _ in range(200):
            m, n = int(rng.integers(1, 10)), int(rng.integers(1, 7))
            # the contract: exactly Hermitian input, which is not symmetrized again
            hs = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
            hs = hermitian_part(hs * 10.0 ** rng.uniform(-3, 3))
            proj, lam, vecs = psd_project_stack(hs)
            for k in range(m):
                assert hermitian_part(proj[k]).tobytes() == psd_project(hs[k]).tobytes()
            assert lam.shape == (m, n) and vecs.shape == (m, n, n)
            assert np.all(np.diff(lam, axis=1) >= 0.0)
            vh = vecs.conj().transpose(0, 2, 1)
            assert np.abs(vh @ vecs - np.eye(n)).max() <= 1e-13
            rebuilt = (vecs * lam[:, None, :]) @ vh
            assert np.linalg.norm(rebuilt - hs) <= 1e-13 * np.linalg.norm(hs)


class TestUnitaryCompletion:
    def test_fixed_vector(self):
        e1 = np.array([[1.0], [0.0]])
        v = unitary_completion(e1, e1)
        assert np.allclose(v @ e1, e1)

    def test_permutation(self):
        e1 = np.array([[1.0], [0.0]])
        e2 = np.array([[0.0], [1.0]])
        v = unitary_completion(e1, e2)
        assert np.allclose(v @ e1, e2, atol=1e-12)
        assert np.abs(v @ v.conj().T - np.eye(2)).max() <= 1e-10

    def test_random_isometric_family(self, rng):
        x = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        q = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))[0]
        y = q @ x
        v = unitary_completion(x, y)
        assert np.abs(v @ x - y).max() <= 1e-9
        assert np.abs(v.conj().T @ v - np.eye(6)).max() <= 1e-10
        assert np.abs(v @ v.conj().T - np.eye(6)).max() <= 1e-10

    def test_ambient_padding(self):
        # both families live in one ambient space: unequal heights, like
        # unequal column counts, are an input error, not zero-padded
        x = np.array([[1.0], [0.0]])            # ambient 2
        y = np.array([[0.0], [0.0], [1.0]])     # ambient 3
        for a, b in ((x, y), (y, x), (x, np.hstack([x, x]))):
            with pytest.raises(ValidationError, match="one shape"):
                unitary_completion(a, b)

    def test_rejects_gram_mismatch(self):
        x = np.array([[1.0], [0.0]])
        y = np.array([[2.0], [0.0]])
        with pytest.raises(NumericsError):
            unitary_completion(x, y)

    def test_dependent_columns(self, rng):
        # 5 vectors spanning 2 dimensions of an ambient 7: rank < columns
        base = rng.standard_normal((7, 2)) + 1j * rng.standard_normal((7, 2))
        x = base @ (rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5)))
        q = np.linalg.qr(rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7)))[0]
        y = q @ x
        v = unitary_completion(x, y)
        assert np.abs(v.conj().T @ v - np.eye(7)).max() <= 1e-13
        assert np.abs(v @ v.conj().T - np.eye(7)).max() <= 1e-13
        assert np.linalg.norm(v @ x - y) <= 1e-13 * np.linalg.norm(x)
        assert unitary_completion(x, y).tobytes() == v.tobytes()

    def test_gram_drift_inside_tolerance(self, rng):
        x = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        q = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))[0]
        drift = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        y = q @ x + 5e-9 * drift
        gx = x.conj().T @ x
        mismatch = np.abs(gx - y.conj().T @ y).max()
        tol = 1e-8
        assert 0.1 * tol < mismatch / np.abs(gx).max() <= tol  # just inside gram_tol
        v = unitary_completion(x, y, gram_tol=tol)
        assert np.abs(v.conj().T @ v - np.eye(6)).max() <= 1e-13
        assert np.abs(v @ v.conj().T - np.eye(6)).max() <= 1e-13
        # the polar factor maps x onto y best among unitaries, so no worse than q:
        # the miss is at most the drift, ||q x - y|| = 5e-9 ||drift||
        assert np.linalg.norm(v @ x - y) <= np.linalg.norm(q @ x - y)
        assert unitary_completion(x, y, gram_tol=tol).tobytes() == v.tobytes()
        with pytest.raises(NumericsError):
            unitary_completion(x, y, gram_tol=0.1 * tol)



def test_min_eigenvalue_stack_matches_per_slice(rng):
    stack = np.stack([random_psd(rng, 4) - 0.5 * np.eye(4) for _ in range(9)])
    stack[:, 0, 1] += 1e-3j  # slightly non-Hermitian input is symmetrized per slice
    lams = min_eigenvalue_stack(stack)
    assert lams.tolist() == [min_eigenvalue(h) for h in stack]


def two_pass_rows(basis, w):
    """Q* w over the leading axis of w, with complex products: the reference the basis replaced."""
    up, low, r = w[basis.up], w[basis.low], basis.root_half
    return np.concatenate([w[basis.diag], r * (up + low), -1j * r * (up - low)])


class TestHermitianBasis:
    """The real orthonormal basis of the Hermitian matrices that the solver and the walk share."""

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
        basis = HermitianBasis(size)
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
        basis, r = HermitianBasis(n), math.sqrt(0.5)
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

    @pytest.mark.parametrize("n", range(1, 21))
    def test_matrix_is_the_two_pass_formula_bit_for_bit(self, n):
        # Re(Q* (Q* V)*) from two complex row passes, on Hermitian and on
        # general complex V, entries spread over 60 decades
        rng = np.random.default_rng(n)
        basis = hermitian_basis(n)
        for _ in range(3):
            shape = (n * n, n * n)
            v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for w in (v, v + v.conj().T, v * 10.0 ** rng.uniform(-30, 30, shape)):
                expected = two_pass_rows(basis, two_pass_rows(basis, w).conj().T).real
                assert basis.matrix(w).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_coords_of_a_stack_are_coords_of_each_slice(self, n):
        rng = np.random.default_rng(n)
        basis = hermitian_basis(n)
        for k in (1, 2, 7):
            w = rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))
            stack = hermitian_part(w)
            got = basis.coords(stack)
            assert got.shape == (k, n * n)
            for h, row in zip(stack, got):
                assert row.tobytes() == basis.coords(h).tobytes()

    @pytest.mark.parametrize("n", range(1, 7))
    def test_walk_columns_are_the_real_rows_of_each_term(self, n):
        # the Caratheodory walk's columns C_m . (u u*), read as coordinates
        # of their Hermitian parts, are the real parts of the complex rows
        rng = np.random.default_rng(n)
        basis = hermitian_basis(n)
        for k in (1, 5, 40):
            c = rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))
            u = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
            terms = c * (u[:, :, None] * u.conj()[:, None, :])
            expected = two_pass_rows(basis, terms.reshape(k, -1).T).real
            got = basis.coords(hermitian_part(terms)).T
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

    def test_basis_is_built_once_per_size(self):
        assert hermitian_basis(5) is hermitian_basis(5)
        assert isinstance(hermitian_basis(5), HermitianBasis)
