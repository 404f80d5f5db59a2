"""Independent numpy re-verification of solver outputs.

These checks share no code with the package: they rebuild the coordinate
masks, the Pick and corona targets and the transfer function from plain
arrays, so a defect in the program cannot hide behind the same defect in
the check.
"""

from __future__ import annotations

import numpy as np

SOLVER_GRID = np.concatenate([[0.0], np.exp(2j * np.pi * np.arange(8) / 8)])


def phi(alphas, s, p) -> np.ndarray:
    """phi(alpha, s, p) on an alpha list times a point list, shape (M, N)."""
    al = np.asarray(alphas, dtype=complex).reshape(-1, 1)
    s = np.asarray(s, dtype=complex).reshape(1, -1)
    p = np.asarray(p, dtype=complex).reshape(1, -1)
    return (2.0 * al * p - s) / (2.0 - al * s)


def masks(alphas, s, p) -> np.ndarray:
    """C_m(i, j) = 1 - phi_m(i) conj(phi_m(j)), shape (M, N, N)."""
    v = phi(alphas, s, p)
    return 1.0 - v[:, :, None] * v.conj()[:, None, :]


def transfer(a, b, c, d, alphas, mults, s, p) -> np.ndarray:
    """Values of A + B Z (I - D Z)^{-1} C at each point, shape (N, rows, cols)."""
    z = np.repeat(phi(alphas, s, p), mults, axis=0).T  # (N, h)
    out = []
    for zk in z:
        h = len(zk)
        res = np.linalg.solve(np.eye(h) - d * zk[None, :], c) if h else c[:0]
        out.append(a + (b * zk[None, :]) @ res)
    return np.array(out)


def pick_target(targets, norm_bound=1.0) -> np.ndarray:
    """J_ij = I - (W_i / nb)(W_j / nb)* in node-block form."""
    w = np.concatenate([np.atleast_2d(t) for t in targets], axis=0) / norm_bound
    n = len(targets)
    return np.kron(np.ones((n, n)), np.eye(w.shape[0] // n)) - w @ w.conj().T


def corona_target(phis, thetas) -> np.ndarray:
    """J = Phi_i Phi_j* - Theta_i Theta_j* in node-block form."""
    f = np.concatenate(phis, axis=0)
    t = np.concatenate(thetas, axis=0)
    return f @ f.conj().T - t @ t.conj().T


def witness_residual(j, alphas, blocks, s, p) -> float:
    """Frobenius mismatch of sum_m C_m . B_m against J plus PSD violation."""
    d = j.shape[0] // len(s)
    c = np.kron(masks(alphas, s, p), np.ones((d, d)))
    stack = np.asarray(blocks)
    mismatch = np.linalg.norm(np.einsum("mij,mij->ij", c, stack) - j)
    lam = np.linalg.eigvalsh((stack + stack.conj().transpose(0, 2, 1)) / 2)[:, 0]
    return float(mismatch + np.clip(-lam, 0.0, None).sum())


def certificate_ok(j, alphas, kernel, s, p, tol) -> bool:
    """Grid admissibility of K (to 2 tol) and lambda_min(J . K) <= -tol."""
    k = (kernel + kernel.conj().T) / 2
    scaled = masks(alphas, s, p) * k[None, :, :]
    worst = np.linalg.eigvalsh((scaled + scaled.conj().transpose(0, 2, 1)) / 2)[:, 0]
    d = j.shape[0] // len(s)
    prod = j * np.kron(k, np.ones((d, d)))
    lam = np.linalg.eigvalsh((prod + prod.conj().T) / 2)[0]
    return bool(worst.min() >= -2 * tol and lam <= -tol)
