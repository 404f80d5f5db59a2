"""Function theory of the symmetrized bidisk at finite, certified scale.

Interpolation problems, interpolating-sequence diagnostics, and
Toeplitz-corona factorizations are all reduced to one semidefinite
feasibility core (a discretized representation of Hermitian node data
against the coordinate function family) and one synthesis step (a unitary
colligation built by a lurking isometry).  See the README for the CLI.
"""

__version__ = "0.1.0"

from .errors import (
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
    unitary_completion,
)
from .kernels import (
    AlphaGrid,
    KernelMatrix,
    NodeSet,
    admissibility_check,
    grammian_normalize,
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
    Factorization,
    transfer_eval_batch,
    verify_contractivity,
)
from .pick import (
    PickProblem,
    minimal_norm,
    minimal_norm_bracket,
    solve_pick,
)
from .sequences import (
    GrammianReport,
    SequenceTruncation,
    carleson_condition,
    grammian_bounds,
    interpolation_constant,
    strong_separation,
)
from .corona import (
    CoronaProblem,
    solve_corona,
)
from .gamma_ops import (
    AtomicMeasure,
    OperatorPair,
    atomic_h2_model,
    gamma_isometry_check,
    gamma_unitary_check,
    symmetrized_pair,
    toeplitz_positivity,
)
