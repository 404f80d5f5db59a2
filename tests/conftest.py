import os

# One BLAS thread, as bench/run.py and the tools pin it, set before numpy is
# imported: the CPU-time bounds of the tests count every BLAS thread, and
# threads contending with another process inflate them.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import numpy as np
import pytest

from symbidisk import AlphaGrid, FeasibilityTarget, GPoint, KernelMatrix, NodeSet, PickProblem, pick
from symbidisk.geometry import phi_values
from symbidisk.hermitian import hermitian_part, min_eigenvalue
from symbidisk.kernels import coefficient_masks, random_admissible_kernel, szego_pullbacks


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


def variety_nodes(rng, variety, n):
    """(z, nodes): n points z_i at royal nodes (2 z, z^2) or flat nodes (0, z).

    The z_i are uniform by area in |z| <= 0.8 and pairwise more than 0.05
    apart.  At royal nodes every phi(alpha, .) is -z, and at flat nodes every
    boundary atom's is alpha z, so every atom has the disc's mask
    1 - z_i conj(z_j) and a grid problem there is the disc's at the z_i.
    """
    while True:
        z = 0.8 * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
        gaps = np.abs(z[:, None] - z[None, :])[~np.eye(n, dtype=bool)]
        if gaps.min() > 0.05:
            break
    pairs = [(2 * zi, zi * zi) if variety == "royal" else (0.0, zi) for zi in z]
    return z, NodeSet.from_pairs(pairs)


def disc_whitened(z, f):
    """L^-1 (F . P) L^-*, P = [1 / (1 - z_i conj(z_j))] = L L*, Hermitian.

    Its largest eigenvalue is the disc's squared minimal norm for F = w w*
    (Pick 1916), its smallest the disc's corona threshold for F = Phi Phi*.
    """
    pick = 1.0 / (1.0 - np.outer(z, z.conj()))
    inv = np.linalg.inv(np.linalg.cholesky(pick))
    return hermitian_part(inv @ (f * pick) @ inv.conj().T)


def psd_project(h):
    """Frobenius-nearest PSD matrix of one Hermitian matrix, by one eigh.

    The reference that hermitian.psd_project_stack matches slice by slice,
    bit for bit, once its slices are symmetrized.
    """
    lam, vecs = np.linalg.eigh(hermitian_part(h))
    return hermitian_part((vecs * np.maximum(lam, 0.0)[None, :]) @ vecs.conj().T)


def gram_factor(h, tol=1e-12):
    """G of shape (rank, n) with G* G = H, by one eigh of one block.

    Eigenvalues at or below tol * lambda_max count as zero.  The per-block
    reference that realization._purified_factors matches, bit for bit, when
    the witness's total rank is at most N^2 and nothing moves.
    """
    lam, vecs = np.linalg.eigh(hermitian_part(h))
    keep = lam > tol * max(float(lam[-1]), 0.0)
    return np.sqrt(lam[keep])[:, None] * vecs[:, keep].conj().T


def pullback(alpha, nodes):
    """The Szego pullback kernel of phi(alpha, .) on the nodes, from a one-alpha grid."""
    grid = AlphaGrid(np.array([alpha]))
    return KernelMatrix(nodes, szego_pullbacks(coefficient_masks(grid, nodes))[0])


def colligation_target(rng, nodes, grid, state_dim, scale, out_dim=1):
    """Pick target I - scale^2 F F* of a random unitary colligation on grid atoms.

    F is the transfer function A + B Z (I - D Z)^{-1} C at the nodes, whose
    states sit on randomly drawn grid alphas; at scale <= 1 the target is
    feasible by construction.
    """
    size = out_dim + state_dim
    q = np.linalg.qr(rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size)))[0]
    a, b, c, d = q[:out_dim, :out_dim], q[:out_dim, out_dim:], q[out_dim:, :out_dim], q[out_dim:, out_dim:]
    atoms = rng.integers(0, len(grid), size=state_dim)
    zs = phi_values(grid.alphas[atoms], nodes.s, nodes.p).T
    f = np.concatenate(
        [a + (b * z) @ np.linalg.solve(np.eye(state_dim) - d * z, c) for z in zs]
    )
    n = len(nodes)
    j = np.kron(np.ones((n, n)), np.eye(out_dim)) - scale**2 * (f @ f.conj().T)
    return FeasibilityTarget(nodes=nodes, matrix=j, block=out_dim)


def certificate_holds(target, grid, kernel, tol=1e-8):
    """Grid admissibility and a violation of at least tol, re-checked with numpy.

    The violation is taken on D J D, D = target.equilibration, as solve takes
    it: on J itself a roundoff-level violation of a large target passes tol.
    """
    d = target.block
    dj = target.matrix * np.outer(target.equilibration, target.equilibration)
    masks = coefficient_masks(grid, target.nodes)
    admissible = min(min_eigenvalue(c * kernel) for c in masks) >= -tol
    return admissible and min_eigenvalue(dj * np.kron(kernel, np.ones((d, d)))) <= -tol


def planted_infeasible(rng, nodes, grid, out_dim=1):
    """A feasible colligation target pushed past a grid-admissible kernel K.

    J = J0 - c (conj(K) - diag K) (x) 1 keeps the diagonal of J0 (so the
    identity kernel cannot certify) while c makes sum J . (K (x) 1) < 0: K
    then certifies infeasibility by construction.
    """
    base = colligation_target(rng, nodes, grid, 3, 0.9, out_dim)
    k = random_admissible_kernel(nodes, grid, seed=int(rng.integers(1000))).matrix
    off = k.conj() - np.diag(np.diag(k.conj()))
    ones = np.ones((out_dim, out_dim))
    c = 1.1 * np.sum(base.matrix * np.kron(k, ones)).real / (out_dim**2 * np.sum(np.abs(off) ** 2))
    return FeasibilityTarget(nodes=nodes, matrix=base.matrix - c * np.kron(off, ones), block=out_dim)


def witnessed_bracket(problem, grid, opts, width):
    """(lo, hi, witness): minimal_norm_bracket, and the blocks it re-verified at hi."""
    seen, verify = [], pick.residual

    def recording(target, blocks):
        seen.append(blocks)
        return verify(target, blocks)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pick, "residual", recording)
        lo, hi = pick.minimal_norm_bracket(problem, grid, opts, width)
    return lo, hi, seen[-1]


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


# The two loop-bound 2x2 pick files of the bench corpus that semismooth
# Newton once left Unknown, keyed by bench seed and directory (z_loop_pick_2x2
# of seed 151, in11, and of seed 237, in12).  Rows are nodes
# [s_re, s_im, p_re, p_im] and, per target, its four entries [re, im] row by
# row.  Both are planted feasible; their files run with max_iter 2000.
STALL_FILES = {
    "151/in11": (
        [
            [0.3527472741883056, -0.405136416287464, -0.12719101159934396, -0.024589421881291325],
            [0.26566308915225806, -0.5794115098845836, -0.15641267613536813, 0.007691979195929621],
            [0.07481728747509164, 0.11055615303007177, -0.0352913443593038, 0.07027131536369136],
        ],
        [
            [[-0.02330581224530771, -0.5498574167581041], [0.35569104104883775, -0.023794795367598924],
             [-0.24313167564753696, 0.25391218879677624], [-0.45151668992722044, 0.03387240006662076]],
            [[-0.01631643486115839, -0.5729191789189677], [0.31646955987631675, -0.01463391949793167],
             [-0.25032783191241065, 0.25172794500341256], [-0.4844745817335107, 0.036781114335992175]],
            [[-0.12712591089159633, -0.48728348535357413], [0.4721896821444725, 0.0848336197711161],
             [-0.2579274127232858, 0.30114449381894687], [-0.3362859953667833, 0.16014681880211118]],
        ],
    ),
    "237/in12": (
        [
            [0.15959266704184727, 0.32319980834883083, -0.15027907279877645, 0.3283264792222033],
            [0.36455746896211977, 0.2681335826507464, 0.008083900525085778, -0.07640961771418849],
            [0.39743670801161207, 0.2876518798590925, 0.017336655736813988, -0.06051385667876312],
        ],
        [
            [[-0.6887899646731658, 0.0774861300364023], [0.14924280790208924, -0.3911465846020835],
             [-0.27365441920376754, -0.13281880868773804], [-0.5230978785334099, 0.2456658282800003]],
            [[-0.5704927848335272, 0.20411818059873527], [0.18660888439698328, -0.21415626427914783],
             [-0.13484188183338974, 0.047014021630329694], [-0.48126133317202524, -0.017590114963228]],
            [[-0.5706201153233421, 0.20858047576490055], [0.1824126631249073, -0.20664136550294704],
             [-0.1313875608087663, 0.05361041745411881], [-0.47765898457540834, -0.024481267625182428]],
        ],
    ),
}


def stall_file_problem(name):
    rows, entries = STALL_FILES[name]
    nodes = NodeSet.from_pairs([(complex(sr, si), complex(pr, pi)) for sr, si, pr, pi in rows])
    targets = tuple(
        np.array([complex(re, im) for re, im in target]).reshape(2, 2) for target in entries
    )
    return PickProblem(nodes=nodes, targets=targets)


# Every field of a measure-model report.
MEASURE_REPORT_FIELDS = {
    "format", "kind", "problem", "seed", "tool_version", "timings", "report_hash",
    "dim", "first_diag", "second_diag", "isometry_passed",
}
