import numpy as np
import pytest

from symbidisk import AlphaGrid, GPoint, NodeSet, PickProblem, eigh
from symbidisk.hermitian import hermitian_part


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def solver_grid():
    return AlphaGrid.solver_default()


@pytest.fixture
def diagonal_pair():
    """Nodes symmetrized from z = +-0.5; every coordinate image is -+0.5."""
    return NodeSet.from_pairs([(1.0, 0.25), (-1.0, 0.25)])


def random_gpoint(rng, rmax=0.9):
    r = rmax * np.sqrt(rng.random(2))
    th = rng.random(2) * 2.0 * np.pi
    z1, z2 = r[0] * np.exp(1j * th[0]), r[1] * np.exp(1j * th[1])
    return GPoint(z1 + z2, z1 * z2)


def random_nodes(rng, n, rmax=0.85, min_sep=1e-2):
    pts = []
    while len(pts) < n:
        q = random_gpoint(rng, rmax)
        if all(abs(q.s - o.s) + abs(q.p - o.p) > min_sep for o in pts):
            pts.append(q)
    return NodeSet(tuple(pts))


def psd_project(h):
    """Frobenius-nearest PSD matrix of one Hermitian matrix, by one eigh.

    The reference that hermitian.psd_project_stack matches slice by slice,
    bit for bit, once its slices are symmetrized.
    """
    dec = eigh(h)
    w = np.maximum(dec.values, 0.0)
    return hermitian_part((dec.vectors * w[None, :]) @ dec.vectors.conj().T)


def near_threshold_problem():
    """A three-node Pick problem whose minimal norm is about 2.80045.

    Near its threshold the solution or the certificate direction of the
    feasibility dual lies at ||Y|| ~ 1e5-1e6 while ||grad|| ~ 1e-6, so a mu
    floor far above the Newton system's precision caps every step along the
    generalized Hessian's near-null directions and the solve stalls.
    """
    nodes = NodeSet(
        (
            GPoint(0.33290357102030727 + 0.4319714956732331j, -0.09943046014875011 + 0.02923681478878904j),
            GPoint(0.17053493542780102 + 0.5579579819423474j, -0.16541344773967387 - 0.06428050958907239j),
            GPoint(0.18246604715933512 - 0.384053557489014j, -0.28897853667947726 - 0.42604772948944053j),
        )
    )
    targets = tuple(np.array([[w]]) for w in (1.0, 1.0, -1.0 + 1.2246467991473532e-16j))
    return PickProblem(nodes=nodes, targets=targets)


# A loop-bound pick file of the bench corpus (seed 4, directory in01,
# z_loop_pick_0) as its rows: nodes [s_re, s_im, p_re, p_im], targets [re, im].
# Its nodes lie close together, so every atom's Szego kernel has
# lambda_min / lambda_max of 6e-5 to 1.2e-4; its minimal norm is about 0.83361.
LOOP_FILE_NODES = [
    [0.2565295042345952, 0.7130577503236621, -0.10117269318777285, 0.09065632694060304],
    [-0.13974691415377843, 0.6001291024980986, -0.07575337763952662, -0.044437374324699866],
    [0.27079205976278065, 0.541918020159267, -0.06071848607783768, 0.07175188912867626],
]
LOOP_FILE_TARGETS = [
    [-0.07637141295939631, -0.4918909064022978],
    [-0.09717582219390083, -0.40235209597902216],
    [-0.09805556857999928, -0.48196423366461283],
]


def loop_file_problem():
    nodes = NodeSet.from_pairs(
        [(complex(sr, si), complex(pr, pi)) for sr, si, pr, pi in LOOP_FILE_NODES]
    )
    targets = tuple(np.array([[complex(re, im)]]) for re, im in LOOP_FILE_TARGETS)
    return PickProblem(nodes=nodes, targets=targets)


# Every field of a measure-model report.
MEASURE_REPORT_FIELDS = {
    "format", "kind", "problem", "seed", "tool_version", "timings", "report_hash",
    "dim", "first_diag", "second_diag", "isometry_passed",
}
