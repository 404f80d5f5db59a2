"""Toeplitz-corona solves on the symmetrized bidisk.

Given row data Phi sampled at nodes and a positivity level delta, the
question is whether a contractive Psi exists with Phi * Psi equal to a
prescribed Theta at the nodes (the classical problem takes Theta to be
sqrt(delta) times the identity, so Psi / sqrt(delta) is a bounded left
inverse of Phi).  Feasibility of the target

    J_ij = Phi_i Phi_j* - Theta_i Theta_j*

through the CP core is equivalent, at grid scale, to the existence of such a
Psi, and a feasible witness synthesizes Psi explicitly: the lurking isometry
maps the Phi-side family onto the Theta-side family, and the completed
colligation evaluates Psi with Phi(node) @ Psi(node) = Theta(node).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .feasibility import (
    FeasibilityTarget,
    SolveOptions,
    SolveReport,
    SolveStatus,
    solve,
)
from .kernels import AlphaGrid, NodeSet
from .realization import (
    RealizedFunction,
    lurking_isometry,
    node_values,
    transfer_eval_batch,
    verify_contractivity,
)

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
        if self.delta <= 0:
            raise ValidationError("delta must be positive")
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
            tshape = theta[0].shape
            if len(theta) != len(self.nodes) or any(m.shape != tshape for m in theta):
                raise ValidationError("Theta samples must share a common shape per node")
            if tshape[0] != shape[0]:
                raise ValidationError("Theta output dimension must match Phi's")
        object.__setattr__(self, "theta_samples", theta)

    @property
    def d2(self) -> int:
        return self.phi_samples[0].shape[0]

    @property
    def d1(self) -> int:
        return self.phi_samples[0].shape[1]

    @property
    def d3(self) -> int:
        return self.theta_samples[0].shape[1]


@dataclass(frozen=True)
class CoronaSolution:
    report: SolveReport
    psi: RealizedFunction | None = None
    node_residual: float | None = None
    sampled_norm: float | None = None
    # Theta = sqrt(delta) I bookkeeping: the normalized left inverse is
    # psi / sqrt(delta); both classical bounds are recorded without asserting
    # which is tight.
    normalized_norm: float | None = None
    bound_inv_sqrt_delta: float | None = None
    bound_inv_delta: float | None = None

    @property
    def status(self) -> SolveStatus:
        return self.report.status


def assemble_corona_target(problem: CoronaProblem) -> FeasibilityTarget:
    """J_ij = Phi_i Phi_j* - Theta_i Theta_j*, self-adjoint by construction."""
    n = len(problem.nodes)
    d2 = problem.d2
    j = np.zeros((n * d2, n * d2), dtype=complex)
    # an overflow leaves a non-finite entry, which FeasibilityTarget rejects
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            for k in range(n):
                j[i * d2 : (i + 1) * d2, k * d2 : (k + 1) * d2] = (
                    problem.phi_samples[i] @ problem.phi_samples[k].conj().T
                    - problem.theta_samples[i] @ problem.theta_samples[k].conj().T
                )
    return FeasibilityTarget(nodes=problem.nodes, matrix=j, block=d2)


def solve_corona(
    problem: CoronaProblem,
    grid: AlphaGrid | None = None,
    opts: SolveOptions = SolveOptions(),
    contractivity_samples: int = 2000,
) -> CoronaSolution:
    """Decide the corona target and synthesize the factor Psi when feasible.

    The synthesized Psi is contractive (unitary colligation) and satisfies
    Phi(node) @ Psi(node) = Theta(node) within the synthesis tolerance.
    """
    grid = grid or AlphaGrid.solver_default()
    target = assemble_corona_target(problem)
    report = solve(target, grid, opts)
    if report.status is not SolveStatus.FEASIBLE:
        return CoronaSolution(report=report)

    col = lurking_isometry(
        report.blocks,
        problem.nodes,
        [m for m in problem.phi_samples],
        [m for m in problem.theta_samples],
        block=problem.d2,
        gram_tol=max(1e-8, 10 * report.residual),
    )
    psi = RealizedFunction(colligation=col)
    vals = node_values(col, problem.nodes)
    node_res = max(
        float(np.abs(problem.phi_samples[i] @ vals[i] - problem.theta_samples[i]).max())
        for i in range(len(problem.nodes))
    )
    sampled = verify_contractivity(psi, sample_count=contractivity_samples, seed=opts.seed)
    return CoronaSolution(
        report=report,
        psi=psi,
        node_residual=node_res,
        sampled_norm=sampled,
        normalized_norm=sampled / np.sqrt(problem.delta),
        bound_inv_sqrt_delta=1.0 / np.sqrt(problem.delta),
        bound_inv_delta=1.0 / problem.delta,
    )


@dataclass(frozen=True)
class LeftInverseReport:
    skipped: bool
    node_residual: float | None = None
    sampled_residual: float | None = None
    sampled_norm: float | None = None


def verify_left_inverse(
    psi: RealizedFunction | None,
    problem: CoronaProblem,
    extra_samples: int = 0,
    evaluator=None,
    seed: int = 0,
) -> LeftInverseReport:
    """Residual audit of a synthesized factor.

    Checks max over nodes of ||Phi_i Psi(node_i) - Theta_i||; when a caller
    supplies ``evaluator`` (point -> (Phi value, Theta value)) the residual is
    also sampled at ``extra_samples`` seeded domain points.  With no factor to
    verify the report is marked skipped.
    """
    if psi is None:
        return LeftInverseReport(skipped=True)
    col = psi.colligation
    vals = node_values(col, problem.nodes)
    node_res = max(
        float(np.abs(problem.phi_samples[i] @ vals[i] - problem.theta_samples[i]).max())
        for i in range(len(problem.nodes))
    )
    sampled_res = None
    if evaluator is not None and extra_samples > 0:
        rng = np.random.default_rng(seed)
        r = np.sqrt(rng.random((2, extra_samples))) * 0.98
        th = rng.random((2, extra_samples)) * 2.0 * np.pi
        z1 = r[0] * np.exp(1j * th[0])
        z2 = r[1] * np.exp(1j * th[1])
        s, p = z1 + z2, z1 * z2
        psis = transfer_eval_batch(col, s, p)
        worst = 0.0
        for k in range(extra_samples):
            phi_val, theta_val = evaluator(complex(s[k]), complex(p[k]))
            worst = max(worst, float(np.abs(phi_val @ psis[k] - theta_val).max()))
        sampled_res = worst
    norm = verify_contractivity(psi, sample_count=max(1000, extra_samples), seed=seed)
    return LeftInverseReport(
        skipped=False,
        node_residual=node_res,
        sampled_residual=sampled_res,
        sampled_norm=norm,
    )
