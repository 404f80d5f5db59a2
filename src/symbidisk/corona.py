"""Toeplitz-corona solves on the symmetrized bidisk.

Given row data Phi sampled at nodes and a positivity level delta, the
question is whether a contractive Psi exists with Phi * Psi equal to a
prescribed Theta at the nodes (the classical problem takes Theta to be
sqrt(delta) times the identity, so Psi / sqrt(delta) is a bounded left
inverse of Phi).  Feasibility of the target

    J_ij = Phi_i Phi_j* - Theta_i Theta_j*

through the CP core is equivalent, at grid scale, to the existence of such a
Psi.  It is the factorization of ``realization`` with L_i = Phi_i and
R_i = Theta_i (Pick is the case L_i = I), and the one ``realize`` step that
serves both synthesizes Psi, the result's ``interpolant``, with
Phi(node) @ Psi(node) = Theta(node).  The norm of Psi's colligation bounds
sup ||Psi||; nothing is sampled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .feasibility import SolveOptions, solve
from .kernels import AlphaGrid, NodeSet
from .realization import Factorization, factor_target, realize

MAX_OUTPUT_BLOCK = 8


@dataclass(frozen=True)
class CoronaProblem:
    """Per-node samples Phi_i (d2 x d1) with level delta and optional Theta_i.

    Theta defaults to sqrt(delta) * I_{d2}, the classical left-inverse
    normalization.
    """

    nodes: NodeSet
    phi_samples: tuple[np.ndarray, ...]
    delta: float
    theta_samples: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        if not 0 < self.delta < np.inf:
            raise ValidationError(f"field 'delta' must be positive and finite, got {self.delta}")
        if len(self.phi_samples) != len(self.nodes):
            raise ValidationError("one Phi sample per node required")
        phis = tuple(np.atleast_2d(np.asarray(m, dtype=complex)) for m in self.phi_samples)
        shape = phis[0].shape
        if any(m.shape != shape for m in phis):
            raise ValidationError("Phi samples must share a common shape")
        if shape[0] > MAX_OUTPUT_BLOCK:
            raise ValidationError(f"output block capped at {MAX_OUTPUT_BLOCK}")
        object.__setattr__(self, "phi_samples", phis)
        if self.theta_samples is None:
            d2 = shape[0]
            theta = tuple(
                np.sqrt(self.delta) * np.eye(d2, dtype=complex) for _ in phis
            )
        else:
            theta = tuple(
                np.atleast_2d(np.asarray(m, dtype=complex)) for m in self.theta_samples
            )
            # one per node first: theta[0] exists, as the nodes are nonempty
            if len(theta) != len(self.nodes) or any(m.shape != theta[0].shape for m in theta):
                raise ValidationError("Theta samples must share a common shape per node")
            tshape = theta[0].shape
            if tshape[0] != shape[0]:
                raise ValidationError("Theta output dimension must match Phi's")
            if tshape[1] < 1:
                raise ValidationError("Theta samples need at least one column")
        object.__setattr__(self, "theta_samples", theta)

    def tops(self) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """Node tops L_i = Phi_i and R_i = Theta_i of the problem as a factorization."""
        return self.phi_samples, self.theta_samples


def solve_corona(
    problem: CoronaProblem,
    grid: AlphaGrid | None = None,
    opts: SolveOptions = SolveOptions(),
) -> Factorization:
    """Decide the corona target and synthesize the factor Psi when feasible.

    Psi is the result's ``interpolant``: contractive (a unitary colligation,
    whose ``norm`` bounds sup ||Psi||) with Phi(node) @ Psi(node) = Theta(node).
    """
    return realize(solve(factor_target(problem), grid or AlphaGrid.solver_default(), opts), problem)
