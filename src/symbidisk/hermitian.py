"""Dense complex Hermitian linear algebra used throughout the solvers.

Thin, contract-checked wrappers around LAPACK via numpy: minimum
eigenvalues, unitary completion as one SVD polar factor, and the real basis
of the Hermitian matrices that the Newton step and the Caratheodory walk
share.  Schur products are numpy's entrywise ``*``: kernels are scalar, and a
block target meets one through kernels.expand_masks.  Nothing in the package
projects onto the PSD cone; ``psd_project_stack`` stays only because
``bench/test_bench.py`` binds it, through ``feasibility``, to test the tracer.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import NumericsError, ValidationError


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """Symmetrize on ingest so downstream eigensolves see exact Hermitian data.

    Acts on the last two axes, so a stack of shape (m, n, n) is symmetrized
    matrix by matrix.
    """
    a = np.asarray(a, dtype=complex)
    return (a + a.conj().swapaxes(-1, -2)) / 2.0


def psd_project_stack(hs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frobenius-nearest PSD matrices of a stack (m, n, n), and its eigenpairs.

    Each slice has its negative eigenvalues clipped to zero.  The input must
    be exactly Hermitian, bit for bit: nothing is symmetrized, and the
    eigensolve reads one triangle.  The projections are Hermitian to
    roundoff; hermitian_part of a slice equals, bit for bit, the same
    projection built from one np.linalg.eigh of that slice and symmetrized.
    """
    lam, v = np.linalg.eigh(hs)
    return (v * np.maximum(lam, 0.0)[:, None, :]) @ v.conj().transpose(0, 2, 1), lam, v


def min_eigenvalue(h: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(hermitian_part(h))[0])


def min_eigenvalue_stack(hs: np.ndarray) -> np.ndarray:
    """min_eigenvalue over a stacked array of Hermitian matrices, shape (m, n, n).

    One stacked eigvalsh; each entry equals min_eigenvalue of its slice bit
    for bit.
    """
    return np.linalg.eigvalsh(hermitian_part(hs))[:, 0]


def unitary_completion(
    x_vectors: np.ndarray, y_vectors: np.ndarray, gram_tol: float = 1e-8
) -> np.ndarray:
    """Complete the correspondence x_i -> y_i to a unitary matrix.

    Columns of ``x_vectors`` and ``y_vectors`` are the paired families; their
    Gram matrices must agree within ``gram_tol`` (relative), which is the
    isometry condition, and both live in one ambient space: the two arrays
    have one shape.  The result is the polar factor V = U W* of
    y x* = U S W*, one SVD: when x* x = y* y, y x* is the partial isometry
    x_i -> y_i times x x*, and the polar factor is unique on
    range(x x*) = span(x_i), so V x = y there however U and W complete the
    rest.  With Gram drift, V minimizes the Frobenius miss ||Q x - y|| over
    unitaries Q (orthogonal Procrustes).
    """
    x = np.asarray(x_vectors, dtype=complex)
    y = np.asarray(y_vectors, dtype=complex)
    if x.ndim != 2 or x.shape != y.shape:
        raise ValidationError("2-d vector families of one shape required")
    gx = x.conj().T @ x
    mismatch = float(np.abs(gx - y.conj().T @ y).max(initial=0.0))
    if mismatch > gram_tol * max(1.0, float(np.abs(gx).max(initial=0.0))):
        raise NumericsError(
            f"not an isometric correspondence: Gram mismatch {mismatch:.3e} exceeds tolerance"
        )
    u, _, wh = np.linalg.svd(y @ x.conj().T)
    return u @ wh


class HermitianBasis:
    """A real orthonormal basis Q of the n x n Hermitian matrices, on row-major vec.

    Its n^2 elements are e_ii, and (e_ij + e_ji) / sqrt 2 and i (e_ij - e_ji) / sqrt 2
    for i < j; Q is unitary.  ``coords`` and ``hermitian`` are one gather and one
    real product each, every output entry a single product, so on exactly Hermitian
    input they give the bits of the sums they replace.  ``matrix`` gathers too: a
    dense Q* H Q doubled the step's time at n = 16 and 20.
    """

    root_half = math.sqrt(0.5)

    def __init__(self, n):
        i, j = np.triu_indices(n, 1)
        self.n, self.diag, self.up, self.low = n, np.arange(n) * (n + 1), i * n + j, j * n + i
        m, r = len(i), self.root_half
        # floats of vec(h).view(float) (Re, Im interleaved): Re h_ii, then Re h_ij and Im h_ij
        # for i < j (picks), or for i > j (mirror)
        self.picks = np.concatenate([2 * self.diag, 2 * self.up, 2 * self.up + 1])
        self.mirror = np.concatenate([2 * self.diag, 2 * self.low, 2 * self.low + 1])
        self.scales = np.repeat([1.0, 2.0 * r, 2.0 * r], [n, m, m])  # coords: picks times 1 or 2r
        # hermitian: each float of vec(Q x) is one coordinate times 1, r, -r or 0 (Im h_ii)
        src, wt = np.zeros(2 * n * n, dtype=np.intp), np.zeros(2 * n * n)
        src[self.picks], wt[self.picks] = np.arange(n * n), np.repeat([1.0, r, r], [n, m, m])
        src[self.mirror], wt[self.mirror] = np.arange(n * n), np.repeat([1.0, r, -r], [n, m, m])
        self.sources, self.weights = src, wt

    def coords(self, h):
        """The real coordinates Q* vec(h) of an exactly Hermitian h, or of each h of a stack."""
        return self.scales * h.reshape(h.shape[:-2] + (-1,)).view(float).T[self.picks].T

    def matrix(self, v):
        """Re(Q* V Q): real symmetric, and positive definite when V is; Re(W Q)^T for W = Q* V."""
        n, k, r, p = self.n, self.n + len(self.up), self.root_half, self.picks
        up, low = v[self.up], v[self.low]  # one complex pass over the rows gives W = Q* V
        f = np.concatenate([v[self.diag], r * (up + low), -1j * r * (up - low)]).view(float)
        out = f[:, self.mirror]  # one real pass over the columns of W, read as Re and Im
        out[:, n:k], out[:, k:] = r * (out[:, n:k] + f[:, p[n:k]]), r * (out[:, k:] - f[:, p[k:]])
        return out.T

    def hermitian(self, x):
        """The Hermitian matrix Q x of real coordinates x, exactly Hermitian."""
        return (self.weights * x[self.sources]).view(complex).reshape(self.n, self.n)


hermitian_basis = functools.cache(HermitianBasis)  # HermitianBasis(n), built once per size
