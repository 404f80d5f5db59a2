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
    SequenceTruncation,
    ValidationError,
    carleson_condition,
    phi,
    residual,
    symmetrize,
    symmetrized_pair,
    toeplitz_positivity,
    transfer_eval_batch,
)
from symbidisk.corona import MAX_OUTPUT_BLOCK
from symbidisk.geometry import phi_values, scale_point
from symbidisk.realization import Colligation

PAIR = NodeSet.from_pairs([(0.1, 0.0), (-0.2, 0.05)])
GRID = AlphaGrid.solver_default()
NAN = float("nan")
# two boundary atoms, and the zero colligation of one state dimension
ATOMS = AtomicMeasure((BGammaPoint(2.0, 1.0), BGammaPoint(-2.0, 1.0)), (1.0, 1.0))
ZERO = Colligation(
    a=np.zeros((1, 1)), b=np.zeros((1, 1)), c=np.zeros((1, 1)), d=np.zeros((1, 1)),
    alphas=np.array([0.0]), multiplicities=(1,), out_dim=1, in_dim=1,
)

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
    "toeplitz-samples-of-two-shapes": (
        lambda: toeplitz_positivity([np.ones((1, 2)), np.ones((2, 2))], ATOMS, 0.5, 0.5),
        "samples must share a common shape",
    ),
    "toeplitz-delta-nan": (
        lambda: toeplitz_positivity([np.ones((1, 1))] * 2, ATOMS, NAN, 0.5),
        "delta must be finite, got nan",
    ),
    "transfer-one-p-for-three-s": (
        lambda: transfer_eval_batch(ZERO, np.zeros(3), np.zeros(1)),
        "one p per s required, got 3 s and 1 p",
    ),
    "transfer-three-p-for-one-s": (
        lambda: transfer_eval_batch(ZERO, np.zeros(1), np.zeros(3)),
        "one p per s required, got 1 s and 3 p",
    ),
    "phi-denominator-vanishes": (
        lambda: phi_values(np.array([1.0]), np.array([2.0]), np.array([1.0])),
        "phi denominator vanished on the grid",
    ),
    "scale-point-outside": (
        lambda: scale_point((2.5, 1.0), 0.5),
        "|s| <= 2 required, got 2.5",
    ),
    # the CLI refuses a longer node list when it decodes it; the library refuses it here
    "sequence-truncation-above-cap": (
        lambda: SequenceTruncation(NodeSet.from_pairs([(0.04 * k, 0.0) for k in range(21)])),
        "truncation capped at 20 nodes",
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

# Range checks read "not x <= bound", which NaN fails: (what is built, the start of its message)
NAN_CASES = {
    "alpha-grid": (
        lambda: AlphaGrid(np.array([0.0, NAN])),
        "alpha grid points must lie in the closed unit disk",
    ),
    "carleson-alpha": (
        lambda: carleson_condition(SequenceTruncation(PAIR), NAN),
        "|alpha| <= 1 required",
    ),
    "phi-alpha": (lambda: phi(NAN, (0.1, 0.0)), "|alpha| <= 1 required, got nan"),
    "boundary-point-p": (lambda: BGammaPoint(NAN, NAN), "boundary point needs |p| = 1, got"),
    "boundary-point-s": (lambda: BGammaPoint(NAN, 1.0), "boundary point needs s = conj(s) * p"),
    "symmetrize-z1": (lambda: symmetrize(NAN, 0.0), "symmetrize needs |z| < 1 inputs"),
    "symmetrize-z2": (lambda: symmetrize(0.0, NAN), "symmetrize needs |z| < 1 inputs"),
    "scale-point-s": (lambda: scale_point((NAN, 0.0), 0.5), "|s| <= 2 required, got nan"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_input_check_refuses_with_its_message(case):
    build, message = CASES[case]
    with pytest.raises(ValidationError) as err:
        build()
    assert str(err.value).startswith(message)


@pytest.mark.parametrize("case", sorted(NAN_CASES))
def test_range_check_refuses_nan(case):
    build, message = NAN_CASES[case]
    with pytest.raises(ValidationError) as err:
        build()
    assert str(err.value).startswith(message)
