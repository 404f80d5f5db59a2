"""Pick interpolation on the symmetrized bidisk.

A problem asks for a function of norm at most ``norm_bound`` matching scalar
or matrix targets at finitely many nodes.  It is the factorization of
``realization`` with L_i = I and R_i = W_i / nb, decided by the CP core on
J_ij = I - (W_i / nb)(W_j / nb)* and synthesized by the ``realize`` step that
corona problems share.  The interpolant is the unit-ball function for the
scaled targets, so callers multiply by ``norm_bound`` to match the raw data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, ValidationError
from .feasibility import CPBlocks, FeasibilityTarget, SolveOptions, _conic_minimum, residual, solve
from .kernels import AlphaGrid, NodeSet
from .realization import Factorization, factor_target, realize


@dataclass(frozen=True)
class PickProblem:
    """Nodes with one target each; scalars are stored as 1 x 1 matrices."""

    nodes: NodeSet
    targets: tuple[np.ndarray, ...]
    norm_bound: float = 1.0

    def __post_init__(self):
        if not 0 < self.norm_bound < np.inf:
            raise ValidationError(
                f"field 'norm_bound' must be positive and finite, got {self.norm_bound}"
            )
        if len(self.targets) != len(self.nodes):
            raise ValidationError("one target per node required")
        mats = tuple(np.atleast_2d(np.asarray(t, dtype=complex)) for t in self.targets)
        shape = mats[0].shape
        if any(m.shape != shape for m in mats):
            raise ValidationError("targets must share a common shape")
        if not np.isfinite(mats).all():
            raise ValidationError("field 'targets' must have finite entries")
        if shape[1] < 1:
            raise ValidationError("targets need at least one column")
        object.__setattr__(self, "targets", mats)

    @property
    def d_out(self) -> int:
        return self.targets[0].shape[0]

    def tops(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Node tops L_i = I and R_i = W_i / nb of the problem as a factorization."""
        return [np.eye(self.d_out)] * len(self.nodes), [t / self.norm_bound for t in self.targets]


def solve_pick(
    problem: PickProblem,
    grid: AlphaGrid | None = None,
    opts: SolveOptions = SolveOptions(),
) -> Factorization:
    """Decide the problem and, when feasible, return an explicit interpolant.

    On InfeasibleCertified the report's certificate kernel is the node-level
    falsifier: the Schur product of the assembled target with it has a
    negative eigenvalue while staying grid-admissible.
    """
    return realize(solve(factor_target(problem), grid or AlphaGrid.solver_default(), opts), problem)


def minimal_norm(
    problem: PickProblem,
    grid: AlphaGrid | None = None,
    opts: SolveOptions = SolveOptions(),
    width: float = 1e-4,
) -> float:
    """Smallest norm bound at which the problem turns grid-feasible.

    The midpoint of the bracket of :func:`minimal_norm_bracket`, whose ends
    are both rigorous: the problem is grid-infeasible below lo and has an
    exact witness at hi.
    """
    lo, hi = minimal_norm_bracket(problem, grid, opts, width)
    return 0.5 * (lo + hi)


def minimal_norm_bracket(
    problem: PickProblem,
    grid: AlphaGrid | None = None,
    opts: SolveOptions = SolveOptions(),
    width: float = 1e-4,
) -> tuple[float, float]:
    """A bracket (lo, hi) of the grid minimal norm, hi - lo <= width * max(1, lo).

    With t = c^2, G = WW* and E = 1 (x) I, the squared grid minimal norm is
    the linear conic program t* = min t subject to t E - G = sum_m C_m . B_m,
    B_m PSD, and one solve of it (feasibility._conic_minimum) gives both
    ends.  The targets are divided by top = max ||W_i|| first, so the solve
    sees t* >= 1 and power-of-two rescalings of the targets give the same
    bits.  hi carries an exact witness, re-verified through residual() to
    opts.tol.  lo is max ||W_i||, forced by the diagonal, or the dual bound
    of the solve's iterate Z: K = conj(Z) is grid-admissible, and a witness
    at a norm bound c forces c^2 sum(E . K) >= sum(WW* . K), the sums
    running over all entries.  In the solve's units, W / top, the width is
    width max(1 / top, lo).  opts.max_iter caps the interior-point
    iterations; a bracket that has not closed within that budget raises
    NumericsError.  A width that is not positive and finite is refused.
    """
    if not 0 < width < math.inf:
        raise ValidationError(f"field 'width' must be positive and finite, got {width}")
    grid = grid or AlphaGrid.solver_default()
    top = float(np.linalg.svd(np.stack(problem.targets), compute_uv=False).max())
    if top == 0.0:
        return 0.0, 0.0
    # a top that overflows is refused as a norm bound
    at_top = PickProblem(nodes=problem.nodes, targets=problem.targets, norm_bound=top)
    w = np.concatenate(at_top.tops()[1])  # W / top first: W W* overflows above about 1e154
    g = FeasibilityTarget(problem.nodes, w @ w.conj().T, problem.d_out).matrix
    lo, t, blocks = _conic_minimum(problem.nodes, grid, g, problem.d_out, width, 1.0 / top, opts)
    hi = top * math.sqrt(t)
    witness = CPBlocks(grid=grid, blocks=blocks / t)
    at_hi = PickProblem(nodes=problem.nodes, targets=problem.targets, norm_bound=hi)
    if not residual(factor_target(at_hi), witness) <= opts.tol:
        raise NumericsError(f"the minimal-norm witness at {hi!r} does not re-verify")
    return min(top * lo, hi), hi
