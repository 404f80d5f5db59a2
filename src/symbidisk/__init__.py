"""Function theory of the symmetrized bidisk at finite, certified scale.

Interpolation problems, interpolating-sequence diagnostics, and
Toeplitz-corona factorizations are all reduced to one semidefinite
feasibility core (a discretized representation of Hermitian node data
against the coordinate function family) and one synthesis step (a unitary
colligation built by a lurking isometry).  See the README for the CLI.
"""

__version__ = "0.1.0"

from .errors import (
    GenerationError,
    NumericsError,
    SymbidiskError,
    ValidationError,
)
from .geometry import (
    BGammaPoint,
    GPoint,
    MembershipReport,
    caratheodory_two_point,
    membership,
    phi,
    pseudo_hyperbolic,
    scale_point,
    symmetrize,
)
from .hermitian import (
    EigenDecomposition,
    eigh,
    gram_factor,
    psd_project,
    schur_oslash,
    unitary_completion,
)
from .kernels import (
    AdmissibilityReport,
    AlphaGrid,
    KernelMatrix,
    NodeSet,
    admissibility_check,
    grammian_normalize,
    make_b_kernel,
    make_d_kernel,
    random_admissible_kernel,
)
from .feasibility import (
    CPBlocks,
    FeasibilityTarget,
    SolveOptions,
    SolveReport,
    SolveStatus,
    residual,
    solve,
)
from .realization import (
    Colligation,
    RealizedFunction,
    lurking_isometry,
    transfer_eval,
    verify_contractivity,
)
from .pick import (
    PickProblem,
    PickSolution,
    assemble_pick_target,
    minimal_norm,
    solve_pick,
)
from .sequences import (
    GrammianReport,
    SequenceTruncation,
    carleson_condition,
    grammian_bounds,
    interpolation_constant,
    strong_separation,
    weak_separation,
)
from .corona import (
    CoronaProblem,
    CoronaSolution,
    assemble_corona_target,
    solve_corona,
    verify_left_inverse,
)
from .gamma_ops import (
    AtomicMeasure,
    OperatorPair,
    atomic_h2_model,
    extract_unitary_factors,
    gamma_isometry_check,
    gamma_unitary_check,
    spectral_set_probe,
    symmetrized_pair,
    toeplitz_positivity,
)
