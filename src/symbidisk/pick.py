"""Pick interpolation on the symmetrized bidisk.

A problem asks for a function of norm at most ``norm_bound`` matching scalar
or matrix targets at finitely many nodes.  It is the factorization of
``realization`` with L_i = I and R_i = W_i / nb, decided by the CP core on
J_ij = I - (W_i / nb)(W_j / nb)* and synthesized by the ``realize`` step that
corona problems share.  The interpolant is the unit-ball function for the
scaled targets, so callers multiply by ``norm_bound`` to match the raw data.
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
from .hermitian import hermitian_part, schur_oslash
from .kernels import AlphaGrid, NodeSet
from .realization import Colligation, factor_target, realize


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
        object.__setattr__(self, "targets", mats)

    @property
    def d_out(self) -> int:
        return self.targets[0].shape[0]


@dataclass(frozen=True)
class PickSolution:
    report: SolveReport
    interpolant: Colligation | None = None
    node_residual: float | None = None

    @property
    def status(self) -> SolveStatus:
        return self.report.status


def _tops(problem: PickProblem) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Node tops L_i = I and R_i = W_i / nb of the problem as a factorization."""
    # an overflow leaves a non-finite entry, which FeasibilityTarget rejects
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = [t / problem.norm_bound for t in problem.targets]
    return [np.eye(problem.d_out)] * len(problem.nodes), rhs


def assemble_pick_target(problem: PickProblem) -> FeasibilityTarget:
    """Target J_ij = I - (W_i / nb)(W_j / nb)* in node-block form."""
    return factor_target(problem.nodes, *_tops(problem))


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
    lhs, rhs = _tops(problem)
    report = solve(factor_target(problem.nodes, lhs, rhs), grid, opts)
    if report.status is not SolveStatus.FEASIBLE:
        return PickSolution(report=report)
    fn, node_res = realize(report, problem.nodes, lhs, rhs)
    return PickSolution(report=report, interpolant=fn, node_residual=node_res)


def minimal_norm(
    problem: PickProblem,
    grid: AlphaGrid | None = None,
    opts: SolveOptions = SolveOptions(),
    width: float = 1e-4,
) -> float:
    """Smallest norm bound at which the problem turns grid-feasible.

    Bisection on the bound c: the problem with targets W / c is solved at
    unit norm, and the midpoint of the final bracket of
    :func:`minimal_norm_bracket` is returned.  The lower endpoint starts at
    max ||W_i||, forced by the diagonal; the upper one starts at 1.25 times
    that and doubles until feasible.  The trials share work:

    * each trial starts the dual ascent from the dual of the last Feasible
      trial, never from an infeasible one, whose iterate diverges along its
      certificate;
    * an InfeasibleCertified trial with kernel K raises the lower endpoint to
      sqrt(lambda_max(WW* . K, E . K)) (capped at the upper one), not just to
      the trial bound: a witness at a bound c' forces
      J(c') . K = E . K - WW* . K / c'^2 to be PSD, because K is
      grid-admissible;
    * Unknown statuses count as not-yet-feasible, which can only widen the
      answer upward.
    """
    lo, hi = minimal_norm_bracket(problem, grid, opts, width)
    return 0.5 * (lo + hi)


def minimal_norm_bracket(
    problem: PickProblem,
    grid: AlphaGrid | None = None,
    opts: SolveOptions = SolveOptions(),
    width: float = 1e-4,
) -> tuple[float, float]:
    """The final bisection bracket (lo, hi) of :func:`minimal_norm`.

    hi - lo <= width * max(1, lo).  hi is a bound at which a solve came out
    Feasible (or max ||W_i||, when that one does); lo is the diagonal bound
    max ||W_i||, a certificate bound, or a trial bound that was not Feasible.
    """
    grid = grid or AlphaGrid.solver_default()
    norms = [float(np.linalg.norm(t, 2)) for t in problem.targets]
    top = max(norms)
    if top == 0.0:
        return 0.0, 0.0
    n, d = len(problem.nodes), problem.d_out
    w = np.concatenate(problem.targets)
    ee, ww = np.kron(np.ones((n, n)), np.eye(d)), w @ w.conj().T
    y0 = None

    def trial(c: float) -> tuple[bool, float]:
        """Solve at bound c: whether Feasible, and else the bound lo may rise to."""
        nonlocal y0
        scaled = PickProblem(nodes=problem.nodes, targets=problem.targets, norm_bound=c)
        rep = solve(assemble_pick_target(scaled), grid, opts, y0)
        if rep.status is SolveStatus.FEASIBLE:
            if rep.dual is not None:
                y0 = rep.dual
            return True, c
        if rep.status is SolveStatus.INFEASIBLE_CERTIFIED:
            bound = _certificate_bound(ee, ww, rep.certificate.matrix, d)
            if bound is not None:
                return False, max(c, bound)
        return False, c

    feasible, lo = trial(top)
    if feasible:
        return top, top

    hi = top * 1.25
    for _ in range(49):
        if hi > lo:  # a bound at or below lo is already known infeasible
            feasible, floor = trial(hi)
            if feasible:
                break
            lo = max(lo, floor)
        hi *= 2.0
    else:
        raise ValidationError("no feasible bound found; targets may be degenerate")

    lo = min(lo, hi)
    tol = width * max(1.0, top)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        feasible, floor = trial(mid)
        if feasible:
            hi = mid
        else:
            lo = min(floor, hi)
    return lo, hi


def _certificate_bound(ee, ww, kernel, block) -> float | None:
    """sqrt(lambda_max(WW* . K, E . K)), below which K rules out every witness.

    None when E . K is not positive definite (Cholesky fails).
    """
    a = schur_oslash(ee, kernel, block, 1)
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return None
    half = np.linalg.solve(low, schur_oslash(ww, kernel, block, 1))
    lam = np.linalg.eigvalsh(hermitian_part(np.linalg.solve(low, half.conj().T)))[-1]
    return float(np.sqrt(max(lam, 0.0)))
