"""Dense complex Hermitian linear algebra used throughout the solvers.

Thin, contract-checked wrappers around LAPACK via numpy: minimum
eigenvalues and unitary completion of an isometric correspondence as one SVD
polar factor.  Schur products are numpy's entrywise ``*``: kernels are
scalar, and a block target meets one through kernels.expand_masks.  Nothing
in the package projects onto the PSD cone; ``psd_project_stack`` stays only
because ``bench/test_bench.py`` binds it, through ``feasibility``, to check
the tracer's wrapping.
"""

from __future__ import annotations

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
