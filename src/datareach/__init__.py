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
    NonConvexAssembly,
    ShapeMismatch,
    StepTooLarge,
)
from .intervals import (
    Box,
    Interval,
    imat_vec,
    meet,
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
    f_over,
    f_over_iv,
    G_over,
    G_over_iv,
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
    max_step_size,
)
from .control import (
    AffineOverApprox,
    QuadraticCost,
    StepLog,
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
    AdaResResult,
    BoxQP,
    OptimisticQP,
    QPOptions,
    oracle_boxqp,
    solve_idealistic,
    solve_optimistic,
)
from .systems import (
    ExperimentConfig,
    RunReport,
    SystemSpec,
    advance,
    aircraft,
    by_name,
    excite,
    experiment_for,
    quadrotor,
    run_closed_loop,
    unicycle,
    unicycle_knowledge_settings,
)

__version__ = "0.1.0"
