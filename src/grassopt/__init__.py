"""Line-search minimization of orthogonally invariant energies on the
Stiefel/Grassmann manifold, with an adaptive (estimate/judge/improve)
step-size strategy alongside non-monotone Armijo backtracking."""

from .linalg import (
    ConvergenceFailure,
    LinalgError,
    RankDeficient,
    ShapeMismatch,
    svd_thin,
    thin_qr,
)
from .manifold import (
    StiefelPoint,
    TangentVector,
    project_tangent,
    retract_geodesic,
    retract_qr,
)
from .objectives import (
    DenseSymmetric,
    DirichletLaplacian,
    EnergyModel,
    QuadraticTraceModel,
    TraceDensityModel,
    eigen_oracle,
    grassmann_gradient,
    grassmann_hessian_qform,
    harmonic_lattice,
    load_matrix,
    random_symmetric,
)
from .search import (
    IterationRecord,
    SolveConfig,
    SolveResult,
    Status,
    search_direction,
    solve,
)
from .stepsize import (
    DegenerateDenominator,
    MaxBacktracks,
    NonDescentDirection,
    NonMonotoneState,
    StepDecision,
    StepParams,
    adaptive_step,
    backtracking_step,
    bb_initial,
    bb_step_1,
    bb_step_2,
    estimator_zeta,
    improve_step,
    initial_nm_state,
    nm_update,
    unjudged_step,
)

__version__ = "0.1.0"
