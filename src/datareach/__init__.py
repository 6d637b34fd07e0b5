"""Data-driven reachability and near-optimal one-step control.

From a single sampled trajectory of an unknown control-affine system plus
side information, the library builds a differential inclusion that provably
contains the dynamics, propagates interval reach tubes through it, and
synthesizes controls by convex relaxation with a computable suboptimality
bound.
"""

from .errors import (
    AllOrthantsInfeasible,
    ConfigError,
    DataReachError,
    EmptyIntersection,
    InconsistentSample,
    IterationCapExceeded,
    NegativeDomain,
    NonConvexAssembly,
    ShapeMismatch,
    StepTooLarge,
)
from .intervals import (
    Box,
    Interval,
    imat_imat,
    imat_vec,
    inf_norm,
    meet,
    norm2_ext,
    real_mat_iv,
    sqr_ext,
    sqrt_ext,
    tensorT_vec,
    tensor_transpose,
    tensor_vec,
)
from .knowledge import (
    Decoupling,
    GradientBounds,
    KnowledgeBase,
    KnowledgeEntry,
    LipschitzBounds,
    PartialDynamics,
    Sample,
    SideInfoSet,
    VectorFieldBounds,
    append_sample,
    build_knowledge,
    contract_fg,
    f_over,
    f_over_iv,
    G_over,
    G_over_iv,
    jacobian_extensions,
    rebuild,
)
from .reach import (
    ConstantControl,
    ConstCosControl,
    ControlClass,
    PiecewiseConstantControl,
    ReachStepRecord,
    ReachTube,
    beta_of,
    datareach,
    datareach_step,
    datareach_step_c0,
    max_step_size,
    rough_enclosure_explicit,
)
from .control import (
    AffineOverApprox,
    IdealisticQP,
    QuadraticCost,
    assemble_idealistic,
    assemble_optimistic,
    datacontrol_step,
    idealistic_coeffs,
    linearize,
    norm_cost,
    setpoint_cost,
    subopt_bound,
)
from .qpsolve import (
    AdaResConfig,
    AdaResResult,
    BoxQP,
    OptimisticQP,
    OrthantQP,
    QPOptions,
    adares,
    box_project,
    oracle_boxqp,
    solve_idealistic,
    solve_optimistic,
)
from .systems import (
    ExperimentConfig,
    RunReport,
    StepLog,
    SystemSpec,
    advance,
    aircraft,
    by_name,
    excite,
    experiment_for,
    quadrotor,
    rk4_step,
    run_closed_loop,
    unicycle,
    unicycle_knowledge_settings,
)

__version__ = "0.1.0"
