"""Benchmark systems, ground-truth simulation and closed-loop experiment driver."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence

import numpy as np

from .control import MODES, QuadraticCost, StepLog, datacontrol_step, norm_cost, setpoint_cost
from .errors import (
    DataReachError, StepTooLarge, check_array, check_choice, check_count, check_finite,
    check_positive, check_unit,
)
from .intervals import Box
from .knowledge import (
    Decoupling,
    LipschitzBounds,
    PartialDynamics,
    Sample,
    SideInfoSet,
    VectorFieldBounds,
    append_sample,
    build_knowledge,
    rebuild,
)
from .qpsolve import QPOptions
from .reach import max_step_size


FloatField = Callable[[Sequence[float], Sequence[float]], Sequence[float]]


@dataclass(frozen=True)
class SystemSpec:
    """Ground-truth control-affine benchmark with its declared side information.

    `h_float`, when given, is the true field f(x) + G(x) u on Python floats:
    it maps the state and control as float sequences to the derivative.  The
    plant simulator (`advance`) integrates it; without it the
    simulator evaluates `h_true` on arrays.  Samples always take their
    derivative from `h_true`.
    """

    n: int
    m: int
    f_true: Callable[[np.ndarray], np.ndarray]
    G_true: Callable[[np.ndarray], np.ndarray]
    U: Box
    X: Box
    lip: LipschitzBounds
    side: SideInfoSet
    name: str
    h_float: Optional[FloatField] = None

    def h_true(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        return self.f_true(x) + self.G_true(x) @ u


# ---------------------------------------------------------------------------
# unicycle
# ---------------------------------------------------------------------------

def unicycle() -> SystemSpec:
    """Planar unicycle: positions driven by speed, heading by the turning rate.

    The vector field is declared unknown; the bounds encode that f is nearly
    constant, that only two G entries respond to the state, and that nothing
    depends on the positions.
    """

    def f_true(x):
        return np.zeros(3)

    def G_true(x):
        th = x[2]
        return np.array([[math.cos(th), 0.0], [math.sin(th), 0.0], [0.0, 1.0]])

    def h_float(x, u):
        th = x[2]
        return [math.cos(th) * u[0], math.sin(th) * u[0], u[1]]

    lip = LipschitzBounds([0.01, 0.01, 0.01], [[1.1, 0.0], [1.1, 0.0], [0.0, 0.1]])
    dep_f = np.zeros((3, 3), bool)
    dep_f[:, 2] = True
    dep_G = np.zeros((3, 2, 3), bool)
    dep_G[:, :, 2] = True
    side = SideInfoSet(decoupling=Decoupling(dep_f, dep_G))
    return SystemSpec(
        n=3, m=2, f_true=f_true, G_true=G_true,
        U=Box([-3.0, -math.pi], [3.0, math.pi]),
        X=Box([-5.0, -5.0, -math.pi], [5.0, 5.0, math.pi]),
        lip=lip, side=side, name="unicycle", h_float=h_float,
    )


def unicycle_knowledge_settings() -> dict:
    """Three nested side-information settings used by the tube comparisons.

    "lipschitz_only" drops the state-decoupling knowledge, "decoupled" is the
    default setting, and "decoupled_bounds" adds the knowledge that f vanishes
    and the heading responds one-to-one to the turning rate.
    """
    sys_b = unicycle()
    g_lo, g_hi = np.full((3, 2), -1e3), np.full((3, 2), 1e3)
    g_lo[2, 1] = g_hi[2, 1] = 1.0
    bounds = VectorFieldBounds(region=sys_b.X, f_range=Box(np.zeros(3), np.zeros(3)),
                               G_range=Box(g_lo, g_hi))
    return {"lipschitz_only": SideInfoSet(), "decoupled": sys_b.side,
            "decoupled_bounds": replace(sys_b.side, vf_bounds=bounds)}


# ---------------------------------------------------------------------------
# planar quadrotor
# ---------------------------------------------------------------------------

_QUAD_CDV = 0.25
_QUAD_CDPHI = 0.02255
_QUAD_G = 9.81
_QUAD_M = 1.25
_QUAD_L = 0.5
_QUAD_IYY = 0.03


def quadrotor() -> SystemSpec:
    """Planar quadrotor, state [px, vx, py, vy, phi, omega], controls [T1, T2].

    The kinematic rows (position and pitch-angle integrators) are declared
    known; drag and thrust effects are learned.
    """

    def f_true(x):
        return np.array([
            x[1],
            -_QUAD_CDV * x[1] / _QUAD_M,
            x[3],
            -_QUAD_G - _QUAD_CDV * x[3] / _QUAD_M,
            x[5],
            -_QUAD_CDPHI * x[5] / (2.0 * _QUAD_IYY),
        ])

    def G_true(x):
        s, c = math.sin(x[4]), math.cos(x[4])
        k = _QUAD_L / (2.0 * _QUAD_IYY)
        return np.array([
            [0.0, 0.0],
            [-s / _QUAD_M, -s / _QUAD_M],
            [0.0, 0.0],
            [c / _QUAD_M, c / _QUAD_M],
            [0.0, 0.0],
            [-k, k],
        ])

    def h_float(x, u):
        _, vx, _, vy, phi, omega = x
        u1, u2 = u
        gx = -math.sin(phi) / _QUAD_M
        gy = math.cos(phi) / _QUAD_M
        k = _QUAD_L / (2.0 * _QUAD_IYY)
        return [
            vx,
            -_QUAD_CDV * vx / _QUAD_M + (gx * u1 + gx * u2),
            vy,
            -_QUAD_G - _QUAD_CDV * vy / _QUAD_M + (gy * u1 + gy * u2),
            omega,
            -_QUAD_CDPHI * omega / (2.0 * _QUAD_IYY) + (-k * u1 + k * u2),
        ]

    lip_full = LipschitzBounds(
        [1.0, 0.3, 1.0, 0.3, 1.0, 0.9],
        [[0.0, 0.0], [0.9, 0.9], [0.0, 0.0], [0.9, 0.9], [0.0, 0.0], [0.01, 0.01]],
    )
    lip_resid = LipschitzBounds(
        [0.0, 0.3, 0.0, 0.3, 0.0, 0.9], lip_full.L_G
    )
    P = np.zeros((6, 6))
    P[0, 1] = P[2, 3] = P[4, 5] = 1.0
    dep_f = np.zeros((6, 6), bool)
    dep_f[:, [1, 3, 5]] = True
    dep_G = np.zeros((6, 2, 6), bool)
    dep_G[:, :, 4] = True
    side = SideInfoSet(
        decoupling=Decoupling(dep_f, dep_G),
        partial_dynamics=PartialDynamics(P, lip_resid),
    )
    return SystemSpec(
        n=6, m=2, f_true=f_true, G_true=G_true,
        U=Box([0.0, 0.0], [18.4, 18.4]),
        X=Box(
            [-20.0, -10.0, -20.0, -10.0, -math.pi / 2, -5.0],
            [20.0, 10.0, 20.0, 10.0, math.pi / 2, 5.0],
        ),
        lip=lip_full, side=side, name="quadrotor", h_float=h_float,
    )


# ---------------------------------------------------------------------------
# damaged aircraft
# ---------------------------------------------------------------------------

def aircraft() -> SystemSpec:
    """Damaged-aircraft model, state [w_l, w_v, q, theta, h] in ft/s/centirad.

    Linear landing-configuration dynamics with nonlinear damage terms on the
    pitch rate; the pitch-angle integrator row is declared known.

    The declared Lipschitz bounds hold on the envelope
    [-8,8]x[-15,15]x[-8,8]x[-8,8]x[-50,150], not on all of `X`: the term
    0.15 sin(x1) x2 of f3 has x1-derivative up to 22.5 at |x2| = 150, against
    L_f[2] = 4.
    """

    def f_true(x):
        x1, x2, x3, x4, _ = x
        return np.array([
            -0.021 * x1 + 0.122 * x2 - 0.322 * x3,
            -0.209 * x1 - 0.53 * x2 + 2.21 * x3,
            0.017 * x1 + 0.01 * math.cos(x1) * x1 - 0.164 * x2
            + 0.15 * math.sin(x1) * x2 - 0.421 * x3,
            x3,
            -x2 + 2.21 * x4,
        ])

    def G_true(x):
        return np.array([
            [0.01, 1.0],
            [-0.064, -0.044],
            [-0.378, 0.544 + 0.5 * math.sin(x[1])],
            [0.0, 0.0],
            [0.0, 0.0],
        ])

    def h_float(x, u):
        x1, x2, x3, x4, _ = x
        u1, u2 = u
        return [
            -0.021 * x1 + 0.122 * x2 - 0.322 * x3 + (0.01 * u1 + u2),
            -0.209 * x1 - 0.53 * x2 + 2.21 * x3 + (-0.064 * u1 - 0.044 * u2),
            0.017 * x1 + 0.01 * math.cos(x1) * x1 - 0.164 * x2
            + 0.15 * math.sin(x1) * x2 - 0.421 * x3
            + (-0.378 * u1 + (0.544 + 0.5 * math.sin(x2)) * u2),
            x3,
            -x2 + 2.21 * x4,
        ]

    LG = np.full((5, 2), 0.01)
    LG[2, 1] = 0.5
    lip_full = LipschitzBounds([0.4, 3.0, 4.0, 1.0, 3.0], LG)
    lip_resid = LipschitzBounds([0.4, 3.0, 4.0, 0.0, 3.0], LG)
    P = np.zeros((5, 5))
    P[3, 2] = 1.0
    dep_f = np.zeros((5, 5), bool)
    dep_f[:, :4] = True
    dep_G = np.zeros((5, 2, 5), bool)
    dep_G[:, :, [1, 2]] = True
    side = SideInfoSet(
        decoupling=Decoupling(dep_f, dep_G),
        partial_dynamics=PartialDynamics(P, lip_resid),
    )
    return SystemSpec(
        n=5, m=2, f_true=f_true, G_true=G_true,
        U=Box([-5.0, -5.0], [5.0, 5.0]),
        X=Box(np.full(5, -50.0), np.full(5, 150.0)),
        lip=lip_full, side=side, name="aircraft", h_float=h_float,
    )


_SYSTEMS = {"unicycle": unicycle, "quadrotor": quadrotor, "aircraft": aircraft}


def by_name(name: str) -> SystemSpec:
    return _SYSTEMS[check_choice("name", name, sorted(_SYSTEMS))]()


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def _rk4(rhs, x, u, h, substeps):
    """`substeps` classical RK4 steps of x' = rhs(x, u) on lists of floats, in
    numpy's operation order: x + (h/2) k and x + (h/6)(k1 + 2 k2 + 2 k3 + k4)
    summed from the left, so an array field gives the array integrator's bits."""
    half, sixth = 0.5 * h, h / 6.0
    for _ in range(substeps):
        k1 = rhs(x, u)
        k2 = rhs([a + half * b for a, b in zip(x, k1)], u)
        k3 = rhs([a + half * b for a, b in zip(x, k2)], u)
        k4 = rhs([a + h * b for a, b in zip(x, k3)], u)
        x = [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
             for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]
    return x


def advance(sys: SystemSpec, x: np.ndarray, u: np.ndarray, dt: float,
            substeps: int = 10) -> np.ndarray:
    """Hold u for dt using `substeps` RK4 sub-steps; x and u must be finite
    with sys.n and sys.m entries, dt positive and finite."""
    check_positive("dt", dt)
    check_count("substeps", substeps, 1)
    x = check_array("x", x, (sys.n,)).tolist()
    u = check_array("u", u, (sys.m,)).tolist()
    rhs = sys.h_float or (lambda x, u: sys.h_true(np.array(x), np.array(u)).tolist())
    return np.array(_rk4(rhs, x, u, dt / substeps, substeps))


EXCITATIONS = ("mixed", "random", "single_axis", "zero")


def _excitation_start(sys: SystemSpec, x0, mode: str) -> np.ndarray:
    """The checked start state (X's centre when None) and mode of an excitation."""
    check_choice("excitation", mode, EXCITATIONS)
    return check_array("x0", sys.X.mid if x0 is None else x0, (sys.n,))


def excite(sys: SystemSpec, N: int, seed: int, dt: float = 0.1,
           x0=None, mode: str = "mixed", substeps: int = 10) -> List[Sample]:
    """Generate a seeded excitation trajectory of N samples.

    Modes: "random" draws uniformly in U each step; "single_axis" keeps one
    random control axis live per step; "zero" applies no control; "mixed"
    interleaves all three, which identifies f and the G columns separately.
    ``dt`` must be positive and finite, and ``x0`` finite.
    """
    check_count("N", N, 1)
    check_count("seed", seed, 0)
    check_count("substeps", substeps, 1)
    check_positive("dt", dt)
    x = _excitation_start(sys, x0, mode)
    rng = np.random.default_rng(int(seed))
    samples = []
    for i in range(int(N)):
        u = rng.uniform(sys.U.lo, sys.U.hi)
        if mode == "zero":
            u = np.zeros(sys.m)
        elif mode == "single_axis":
            keep = rng.integers(sys.m)
            u = np.where(np.arange(sys.m) == keep, u, 0.0)
        elif mode == "mixed":
            roll = rng.random()
            if roll < 0.2:
                u = np.zeros(sys.m)
            elif roll < 0.65:
                keep = rng.integers(sys.m)
                u = np.where(np.arange(sys.m) == keep, u, 0.0)
        samples.append(Sample(x.copy(), sys.h_true(x, u), u, t=i * dt))
        x = advance(sys, x, u, dt, substeps)
    return samples


# ---------------------------------------------------------------------------
# closed-loop experiments
# ---------------------------------------------------------------------------

# steps between the closed loop's full knowledge-base rebuilds
REFRESH_EVERY = 25


@dataclass
class ExperimentConfig:
    dt: float
    init_len: int
    x0: np.ndarray
    cost: QuadraticCost
    stop_level: float
    max_steps: int
    seed: int
    mode: str = "idealistic"
    cost_offset: float = 0.0  # constant dropped from the quadratic form
    excitation: str = "mixed"
    eps: float = 1e-8
    mu0: float = 1.0
    redraw_weights: bool = False
    weights: Optional[tuple] = None  # fixed (w+, w-) override of the seeded draw
    substeps: int = 10
    M: float = 1e3


@dataclass
class RunReport:
    system: str
    mode: str
    seed: int
    reached: bool
    cum_cost: float  # the loop's running sum; Python 3.12's sum() rounds differently
    final_state: np.ndarray
    dt: float  # the control period
    logs: List[StepLog] = field(default_factory=list)
    failure: Optional[str] = None
    # the initial build's invariance passes and final residual (kb.passes, kb.residual)
    build_passes: int = 0
    build_residual: Optional[float] = None

    @property
    def steps_taken(self) -> int:
        return len(self.logs)

    @property
    def steps_to_goal(self) -> Optional[int]:
        return len(self.logs) if self.reached else None

    @property
    def mean_step_micros(self) -> float:
        return float(np.mean([log.micros for log in self.logs])) if self.logs else 0.0

    @property
    def max_step_micros(self) -> float:
        return max(log.micros for log in self.logs) if self.logs else 0.0

    @property
    def max_total_micros(self) -> float:
        """The largest step latency with its knowledge upkeep, micros + kb_micros."""
        return max((log.micros + log.kb_micros for log in self.logs), default=0.0)

    @property
    def overruns(self) -> int:
        """How many steps' micros + kb_micros exceed the control period dt."""
        period = 1e6 * self.dt
        return sum(log.micros + log.kb_micros > period for log in self.logs)

    def to_dict(self) -> dict:
        out = {key: getattr(self, key) for key in (
            "system", "mode", "seed", "reached", "steps_taken", "steps_to_goal", "cum_cost",
            "mean_step_micros", "max_step_micros", "dt", "max_total_micros", "overruns",
            "final_state", "failure", "build_passes", "build_residual")}
        out["final_state"] = [float(v) for v in self.final_state]
        return out


def check_experiment(sys: SystemSpec, cfg: ExperimentConfig) -> QPOptions:
    """Raise ValueError, naming the setting, for a setting `run_closed_loop`
    cannot run; return the solver options of the run."""
    check_choice("mode", cfg.mode, MODES)
    check_positive("dt", cfg.dt)
    for key, least in (("init_len", 1), ("max_steps", 0), ("seed", 0), ("substeps", 1)):
        check_count(key, getattr(cfg, key), least)
    check_positive("M", cfg.M)
    for key in ("stop_level", "cost_offset"):
        check_finite(key, getattr(cfg, key))
    if cfg.weights is not None:
        check_unit("weights", cfg.weights, (2,))
    _excitation_start(sys, cfg.x0, cfg.excitation)
    return QPOptions(eps=cfg.eps, mu0=cfg.mu0)


def run_closed_loop(sys: SystemSpec, cfg: ExperimentConfig) -> RunReport:
    """Excite, build the knowledge base, then control step by step.

    Every applied control appends exactly one sample to the base through the
    linear-cost incremental update; a full invariance refresh runs every
    `REFRESH_EVERY` steps.  Each step's solve starts where the previous
    one ended: the idealistic solve at the previous control, the optimistic
    orthant solves from the previous step's active sets.  Each step keeps
    the `StepLog` of `datacontrol_step`, adding its index, time, realized
    cost and the knowledge-base update time ``kb_micros``.  Stops once the
    realized one-step cost (plus the constant offset) enters the stop
    sublevel set.  Settings are checked by `check_experiment` before
    anything runs.
    """
    opts = check_experiment(sys, cfg)
    limit = max_step_size(sys.lip, sys.U)
    if not cfg.dt < limit:
        raise StepTooLarge(cfg.dt, limit)
    samples = excite(sys, cfg.init_len, cfg.seed, dt=cfg.dt, x0=cfg.x0,
                     mode=cfg.excitation, substeps=cfg.substeps)
    kb = build_knowledge(samples, sys.lip, sys.side, M=cfg.M)
    build_passes, build_residual = kb.passes, kb.residual
    x = advance(sys, samples[-1].x, samples[-1].u, cfg.dt, cfg.substeps)

    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x5EED]))
    if cfg.weights is not None:
        wplus, wminus = float(cfg.weights[0]), float(cfg.weights[1])
    else:
        wplus, wminus = rng.uniform(0.0, 1.0, size=2)
    logs: List[StepLog] = []
    reached = False
    failure = None
    u_prev = start = None
    t = cfg.init_len * cfg.dt
    cum_cost = 0.0

    for i in range(cfg.max_steps):
        try:
            u, log = datacontrol_step(
                kb, x, cfg.cost, sys.U, sys.X, cfg.dt, cfg.mode, opts,
                wplus, wminus, u_prev, start,
            )
        except DataReachError as exc:
            failure = f"step {i}: {type(exc).__name__}: {exc}"
            break
        x_next = advance(sys, x, u, cfg.dt, cfg.substeps)
        realized = cfg.cost.value(u, x_next) + cfg.cost_offset
        cum_cost += realized
        log.i, log.t, log.realized_cost = i, t, realized
        logs.append(log)

        new_sample = Sample(x, sys.h_true(x, u), u, t)
        started = time.perf_counter()
        kb = append_sample(kb, new_sample)
        if (i + 1) % REFRESH_EVERY == 0:
            kb = rebuild(kb)
        log.kb_micros = (time.perf_counter() - started) * 1e6
        x = x_next
        t += cfg.dt
        u_prev, start = u, log.info.active_sets if log.mode_used == "optimistic" else None
        if cfg.redraw_weights and cfg.weights is None:
            wplus, wminus = rng.uniform(0.0, 1.0, size=2)
        if realized <= cfg.stop_level:
            reached = True
            break

    return RunReport(sys.name, cfg.mode, cfg.seed, reached, cum_cost, x, cfg.dt, logs, failure,
                     build_passes, build_residual)


def unicycle_experiment(seed: int = 4, mode: str = "idealistic",
                        max_steps: int = 150) -> ExperimentConfig:
    """Drive the unicycle to the origin under the 0.1-sublevel stop rule.

    One-step greedy control of this cost has a genuine equilibrium short of
    the goal for many post-excitation geometries (even with known dynamics);
    the default seed gives a geometry from which greedy descent succeeds.
    """
    return ExperimentConfig(
        dt=0.1, init_len=10, x0=np.array([-2.0, -2.5, math.pi / 2]),
        cost=norm_cost(3, 2), stop_level=0.1, max_steps=max_steps,
        seed=seed, mode=mode,
    )


def quadrotor_experiment(seed: int = 1, mode: str = "idealistic",
                         max_steps: int = 625) -> ExperimentConfig:
    """Drive the horizontal speed to 5 m/s; stop window |vx - 5| <= 0.1.

    Horizontal speed responds to thrust only through the pitch angle, so the
    one-step model has no first-order signal at hover; redrawing the selection
    weights every step keeps the controller exploring until the coupling is
    identified.
    """
    cost, offset = setpoint_cost(6, 2, index=1, target=5.0)
    return ExperimentConfig(
        dt=0.008, init_len=10, x0=np.array([0.0, 0.0, 5.0, 0.0, 0.0, 0.0]),
        cost=cost, stop_level=0.005, max_steps=max_steps, seed=seed,
        mode=mode, cost_offset=offset, redraw_weights=True,
    )


def aircraft_experiment(seed: int = 3, mode: str = "idealistic",
                        max_steps: int = 300) -> ExperimentConfig:
    """Drive the pitch angle to 5 centirad; stop window |theta - 5| <= 0.5.

    Pitch responds to the controls only through the pitch rate, so the same
    per-step weight redraw as the quadrotor keeps the one-step model decisive.
    """
    cost, offset = setpoint_cost(5, 2, index=3, target=5.0)
    return ExperimentConfig(
        dt=0.01, init_len=10, x0=np.array([0.0, 0.0, 0.0, 0.0, 100.0]),
        cost=cost, stop_level=0.125, max_steps=max_steps, seed=seed,
        mode=mode, cost_offset=offset, redraw_weights=True,
    )


def experiment_for(name: str, **kwargs) -> ExperimentConfig:
    presets = {"unicycle": unicycle_experiment, "quadrotor": quadrotor_experiment,
               "aircraft": aircraft_experiment}
    return presets[name](**kwargs)
