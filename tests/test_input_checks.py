"""Input checks that no other test reaches, each with the message it gives.

Two checks stay in the package but out of this table, because validated
input does not reach them.  A ``NodeSet`` holds only member points, whose
images |phi(alpha, .)| stay below 1 - 1e-10 (the membership tolerance) at
every alpha of the closed disk, where an ``AlphaGrid`` lies.  So
``kernels._masks`` never sees a node mapped off the disk, and
``pseudo_hyperbolic`` on two such images (``carleson_condition``) never
meets a denominator 1 - conj(b) a below 2e-10, far above its 1e-15 guard.
"""

import numpy as np
import pytest

from symbidisk import (
    AlphaGrid,
    AtomicMeasure,
    BGammaPoint,
    CoronaProblem,
    CPBlocks,
    FeasibilityTarget,
    NodeSet,
    OperatorPair,
    ValidationError,
    residual,
    symmetrized_pair,
    toeplitz_positivity,
)
from symbidisk.corona import MAX_OUTPUT_BLOCK
from symbidisk.geometry import phi_values, scale_point
from symbidisk.realization import Colligation

PAIR = NodeSet.from_pairs([(0.1, 0.0), (-0.2, 0.05)])
GRID = AlphaGrid.solver_default()

# (what is built, the start of its message)
CASES = {
    "corona-output-block-above-cap": (
        lambda: CoronaProblem(PAIR, (np.ones((MAX_OUTPUT_BLOCK + 1, 1)),) * 2, delta=0.5),
        f"output block capped at {MAX_OUTPUT_BLOCK}",
    ),
    "target-shape": (
        lambda: FeasibilityTarget(nodes=PAIR, matrix=np.eye(3)),
        "target shape (3, 3) != (2, 2)",
    ),
    "blocks-count-not-grid-size": (
        lambda: CPBlocks(grid=GRID, blocks=np.zeros((len(GRID) - 1, 2, 2))),
        "need exactly one block per grid alpha",
    ),
    "residual-misshaped-blocks": (
        lambda: residual(
            FeasibilityTarget(nodes=PAIR, matrix=np.eye(2)),
            CPBlocks(grid=GRID, blocks=np.zeros((len(GRID), 3, 3))),
        ),
        "blocks do not conform to target/grid shapes",
    ),
    "operator-pair-not-square": (
        lambda: OperatorPair(first=np.ones((2, 3)), second=np.ones((2, 3))),
        "need two square matrices of equal size",
    ),
    "symmetrized-pair-not-commuting": (
        lambda: symmetrized_pair(np.array([[0, 1], [1, 0]]), np.diag([1, -1])),
        "factors do not commute",
    ),
    "toeplitz-samples-not-one-per-atom": (
        lambda: toeplitz_positivity(
            [np.ones((1, 1))] * 2, AtomicMeasure((BGammaPoint(2.0, 1.0),), (1.0,)), 0.5, 0.5
        ),
        "one sample per atom required",
    ),
    "phi-denominator-vanishes": (
        lambda: phi_values(np.array([1.0]), np.array([2.0]), np.array([1.0])),
        "phi denominator vanished on the grid",
    ),
    "scale-point-outside": (
        lambda: scale_point((2.5, 1.0), 0.5),
        "|s| <= 2 required, got 2.5",
    ),
    "node-set-empty": (lambda: NodeSet(()), "node set must be nonempty"),
    "alpha-grid-empty": (lambda: AlphaGrid(np.array([])), "alpha grid must be nonempty"),
    "colligation-misshaped": (
        lambda: Colligation(
            a=np.zeros((1, 1)), b=np.zeros((1, 2)), c=np.zeros((2, 1)), d=np.zeros((2, 2)),
            alphas=np.array([0.0]), multiplicities=(3,), out_dim=1, in_dim=1,
        ),
        "state block shape disagrees with multiplicities",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_input_check_refuses_with_its_message(case):
    build, message = CASES[case]
    with pytest.raises(ValidationError) as err:
        build()
    assert str(err.value).startswith(message)
