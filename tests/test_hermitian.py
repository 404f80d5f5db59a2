import numpy as np
import pytest

from symbidisk import (
    NumericsError,
    ValidationError,
    unitary_completion,
)
from symbidisk.hermitian import (
    hermitian_part,
    min_eigenvalue,
    min_eigenvalue_stack,
    psd_project_stack,
)

from conftest import psd_project


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
