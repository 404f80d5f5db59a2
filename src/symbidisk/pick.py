"""Pick interpolation on the symmetrized bidisk.

A problem asks for a function of norm at most ``norm_bound`` matching scalar
or matrix targets at finitely many nodes.  Feasibility is decided by the CP
core on the target J_ij = I - (W_i / nb)(W_j / nb)*, and a feasible witness
is synthesized into an explicit interpolant via the lurking isometry; the
returned interpolant is the unit-ball function for the scaled targets, so
callers multiply by ``norm_bound`` to match the raw data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .feasibility import (
    CPBlocks,
    FeasibilityTarget,
    SolveOptions,
    SolveReport,
    SolveStatus,
    solve,
)
from .kernels import AlphaGrid, NodeSet
from .realization import RealizedFunction, lurking_isometry, node_values

MAX_SCALAR_NODES = 64


@dataclass(frozen=True)
class PickProblem:
    """Nodes with one target each; scalars are stored as 1 x 1 matrices."""

    nodes: NodeSet
    targets: tuple[np.ndarray, ...]
    norm_bound: float = 1.0

    def __post_init__(self):
        if self.norm_bound <= 0:
            raise ValidationError("norm_bound must be positive")
        if len(self.targets) != len(self.nodes):
            raise ValidationError("one target per node required")
        mats = tuple(np.atleast_2d(np.asarray(t, dtype=complex)) for t in self.targets)
        shape = mats[0].shape
        if any(m.shape != shape for m in mats):
            raise ValidationError("targets must share a common shape")
        if shape[0] == 1 and shape[1] == 1 and len(self.nodes) > MAX_SCALAR_NODES:
            raise ValidationError(f"scalar problems capped at {MAX_SCALAR_NODES} nodes")
        object.__setattr__(self, "targets", mats)

    @property
    def d_out(self) -> int:
        return self.targets[0].shape[0]

    @property
    def d_in(self) -> int:
        return self.targets[0].shape[1]

    @property
    def is_scalar(self) -> bool:
        return self.d_out == 1 and self.d_in == 1

    def scalar_targets(self) -> np.ndarray:
        if not self.is_scalar:
            raise ValidationError("not a scalar problem")
        return np.array([t[0, 0] for t in self.targets], dtype=complex)


@dataclass(frozen=True)
class PickSolution:
    report: SolveReport
    interpolant: RealizedFunction | None = None
    node_residual: float | None = None

    @property
    def status(self) -> SolveStatus:
        return self.report.status


def assemble_pick_target(problem: PickProblem) -> FeasibilityTarget:
    """Target J_ij = I - (W_i / nb)(W_j / nb)* in node-block form."""
    n = len(problem.nodes)
    d2 = problem.d_out
    nb = problem.norm_bound
    j = np.zeros((n * d2, n * d2), dtype=complex)
    eye = np.eye(d2)
    # an overflow leaves a non-finite entry, which FeasibilityTarget rejects
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            wi = problem.targets[i] / nb
            for k in range(n):
                wk = problem.targets[k] / nb
                j[i * d2 : (i + 1) * d2, k * d2 : (k + 1) * d2] = eye - wi @ wk.conj().T
    return FeasibilityTarget(nodes=problem.nodes, matrix=j, block=d2)


def synthesize_interpolant(
    problem: PickProblem, blocks: CPBlocks, gram_tol: float = 1e-8
) -> RealizedFunction:
    """Lurking-isometry interpolant for the scaled (unit-ball) targets."""
    d2 = problem.d_out
    nb = problem.norm_bound
    lhs = [np.eye(d2, dtype=complex) for _ in range(len(problem.nodes))]
    rhs = [t / nb for t in problem.targets]
    col = lurking_isometry(
        blocks, problem.nodes, lhs, rhs, block=d2, gram_tol=gram_tol
    )
    return RealizedFunction(colligation=col)


def solve_pick(
    problem: PickProblem,
    grid: AlphaGrid | None = None,
    opts: SolveOptions = SolveOptions(),
) -> PickSolution:
    """Decide the problem and, when feasible, return an explicit interpolant.

    On InfeasibleCertified the report's certificate kernel is the node-level
    falsifier: the Schur product of the assembled target with it has a
    negative eigenvalue while staying grid-admissible.
    """
    grid = grid or AlphaGrid.solver_default()
    target = assemble_pick_target(problem)
    report = solve(target, grid, opts)
    if report.status is not SolveStatus.FEASIBLE:
        return PickSolution(report=report)

    fn = synthesize_interpolant(problem, report.blocks, gram_tol=max(1e-8, 10 * report.residual))
    vals = node_values(fn.colligation, problem.nodes)
    scaled = [t / problem.norm_bound for t in problem.targets]
    node_res = max(
        float(np.abs(v - w).max(initial=0.0)) for v, w in zip(vals, scaled)
    )
    return PickSolution(report=report, interpolant=fn, node_residual=node_res)


def minimal_norm(
    problem: PickProblem,
    grid: AlphaGrid | None = None,
    opts: SolveOptions = SolveOptions(),
    width: float = 1e-4,
) -> float:
    """Smallest norm bound at which the problem turns grid-feasible.

    Bisection on the bound: the problem with targets W / C is solved at unit
    norm; the lower endpoint max ||W_i|| is forced by the diagonal, and the
    upper endpoint starts from pairwise two-point estimates and doubles until
    feasible.  Unknown statuses count as not-yet-feasible, which can only
    widen the answer upward.  The midpoint is returned once the bracket is
    narrower than ``width`` (relative to the scale of the bracket).
    """
    grid = grid or AlphaGrid.solver_default()
    norms = [float(np.linalg.norm(t, 2)) for t in problem.targets]
    top = max(norms)
    if top == 0.0:
        return 0.0

    def feasible_at(c: float) -> bool:
        scaled = PickProblem(nodes=problem.nodes, targets=problem.targets, norm_bound=c)
        rep = solve(assemble_pick_target(scaled), grid, opts)
        return rep.status is SolveStatus.FEASIBLE

    lo = top
    if feasible_at(lo):
        return lo

    hi = max(top * 1.25, _pairwise_upper_seed(problem))
    doublings = 0
    while not feasible_at(hi):
        hi *= 2.0
        doublings += 1
        if doublings > 48:
            raise ValidationError("no feasible bound found; targets may be degenerate")

    tol = width * max(1.0, lo)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if feasible_at(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _pairwise_upper_seed(problem: PickProblem) -> float:
    """Safe starting overestimate from two-point pseudo-hyperbolic geometry.

    For a pair with extremal distance d and scalar targets w_i, w_j, the
    bound C with C |w_i - w_j| = d (C^2 - |w_i w_j|) makes the pair feasible;
    the max over pairs seeds the doubling search (which remains correct even
    if the seed is low).
    """
    from .geometry import caratheodory_two_point

    if not problem.is_scalar or len(problem.nodes) < 2:
        return 1.0
    w = problem.scalar_targets()
    best = 1.0
    pts = problem.nodes.points
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = caratheodory_two_point(pts[i], pts[j], grid_size=512)
            if d <= 1e-12:
                continue
            dw = abs(w[i] - w[j])
            prod = abs(w[i] * w[j])
            c = (dw + np.sqrt(dw * dw + 4.0 * d * d * prod)) / (2.0 * d)
            best = max(best, float(c))
    return best
