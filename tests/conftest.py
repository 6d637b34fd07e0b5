import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from datareach.intervals import Box
from datareach.knowledge import LipschitzBounds, SideInfoSet, VectorFieldBounds, build_knowledge
from datareach.qpsolve import _dual_solve_orthant, _factor, _orthant_bounds, orthant_rows
from datareach.reach import ConstantControl, ConstCosControl, PiecewiseConstantControl, datareach
from datareach.systems import advance, excite, experiment_for, quadrotor, unicycle

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "datareach"

# every property test runs the same examples in every process
settings.register_profile("datareach", derandomize=True, deadline=None)
settings.load_profile("datareach")

# seed of the reference excitation run; chosen so the trajectory and the
# whole Monte-Carlo fan stay inside the declared unicycle domain
FIG_SEED = 2
SAMPLE_DT = 0.1
T_REF = 1.5  # 15 samples at 0.1 s


def exported():
    """The names `datareach/__init__.py` imports from its modules."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def fg_rows(F, G):
    """One stacked row of an f box (n,) and a G box (n, m), as the lo/hi
    arrays (1, n + n m) that `knowledge._contract` takes."""
    return (np.concatenate((F.lo, G.lo.ravel()))[None],
            np.concatenate((F.hi, G.hi.ravel()))[None])


def exhaustive_optimistic(oqp):
    """Reference of `solve_optimistic` without bounds: every orthant solved
    cold, the smallest (value, index) chosen.  Returns (u, x, value,
    orthant), or None when every orthant is infeasible, and each orthant's
    value (None where infeasible)."""
    fac, m = _factor(oqp.cost), oqp.cost.m
    best, values = None, []
    for j in range(len(oqp.models)):
        _, out = _dual_solve_orthant(fac, *orthant_rows(oqp, j), 500_000)
        if out is None:
            values.append(None)
            continue
        y = out[0]
        values.append(oqp.cost.value(y[:m], y[m:]))
        if best is None or values[-1] < best[2]:
            best = (y[:m], y[m:], values[-1], j)
    return best, values


def assert_matches_exhaustive(oqp, out):
    """`out`, a `solve_optimistic` result of `oqp` or None if it raised
    AllOrthantsInfeasible, picks the exhaustive reference's orthant, with
    (u, x, value) within 1e-10 relative.  Every orthant's bound lies below
    its value, and every skipped orthant's bound above the chosen value.
    Returns the number of skipped orthants."""
    ref, values = exhaustive_optimistic(oqp)
    bounds = _orthant_bounds(oqp, _factor(oqp.cost))
    for bound, value in zip(bounds, values):
        assert value is None or bound <= value
    assert (out is None) == (ref is None)
    if out is None:
        return 0
    (u, x, val, info), (u0, x0, val0, orthant) = out, ref
    assert info.orthant == orthant
    scale = 1.0 + max(np.abs(u0).max(), np.abs(x0).max())
    assert np.abs(u - u0).max() <= 1e-10 * scale
    assert np.abs(x - x0).max() <= 1e-10 * scale
    assert abs(val - val0) <= 1e-10 * (1.0 + abs(val0))
    k = len(oqp.models)
    skipped = np.argsort(bounds, kind="stable")[k - info.pruned:]
    assert all(info.active_sets[j] is None and bounds[j] > val for j in skipped)
    return info.pruned


def exact_integrator_kb():
    """1-D system xdot = u known exactly through range bounds (all L = 0)."""
    lip = LipschitzBounds([0.0], [[0.0]])
    side = SideInfoSet(
        vf_bounds=VectorFieldBounds(
            region=Box([-100.0], [100.0]),
            f_range=Box([0.0], [0.0]),
            G_range=Box([[1.0]], [[1.0]]),
        )
    )
    return build_knowledge([], lip, side)


def constant_f_kb(value=1.0, L_f=0.0):
    """1-D system xdot = value, no control effect, known through range bounds;
    ``L_f`` is the declared Lipschitz bound of f."""
    lip = LipschitzBounds([L_f], [[0.0]])
    side = SideInfoSet(
        vf_bounds=VectorFieldBounds(
            region=Box([-100.0], [100.0]),
            f_range=Box([value], [value]),
            G_range=Box([[0.0]], [[0.0]]),
        )
    )
    return build_knowledge([], lip, side)


@pytest.fixture(scope="session")
def unicycle_system():
    return unicycle()


@pytest.fixture(scope="session")
def unicycle_fig_setup(unicycle_system):
    """Excitation trajectory, knowledge base and tube start used by tube tests."""
    sysu = unicycle_system
    samples = excite(sysu, 15, seed=FIG_SEED, dt=SAMPLE_DT,
                     x0=[-2.0, -2.5, math.pi / 2])
    kb = build_knowledge(samples, sysu.lip, sysu.side)
    x_start = advance(sysu, samples[-1].x, samples[-1].u, SAMPLE_DT)
    return sysu, samples, kb, x_start


def quadrotor_default_tube():
    """The tube `datareach reach` draws for the quadrotor with no reach
    section: 15 preset-spaced samples from the preset start, the constant
    control U.mid from one preset step after them, dt = 0.008, 200 steps,
    intersected with the domain.  Returns the tube and its (kb, control)."""
    sysq, preset = quadrotor(), experiment_for("quadrotor")
    samples = excite(sysq, 15, 2, dt=preset.dt, x0=preset.x0)
    kb = build_knowledge(samples, sysq.lip, sysq.side)
    x_start = advance(sysq, samples[-1].x, samples[-1].u, preset.dt)
    ctrl = ConstantControl(sysq.U.mid)
    tube = datareach(kb, x_start, ctrl, 0.008, 200, t0=samples[-1].t + preset.dt, domain=sysq.X)
    return tube, kb, ctrl


class FirstOrderCos(ConstCosControl):
    """The cosine family without a derivative bound: every step is first order."""

    def eval_deriv_range(self, t0, t1):
        return None


def alternating_turns(period, horizon):
    """Unit speed with the turn rate switching between +3 and -3 rad/s every
    `period` seconds from T_REF, long enough to cover `horizon` seconds."""
    pieces = int(math.ceil(horizon / period)) + 1
    values = [[1.0, 3.0 if k % 2 == 0 else -3.0] for k in range(pieces)]
    return PiecewiseConstantControl(values, period, t0=T_REF)


def batch_rk4_unicycle(X, V, W, dt, substeps=4):
    """Vectorized classical RK4 for a batch of unicycle states and controls."""
    h = dt / substeps

    def field(Xs):
        return np.stack([V * np.cos(Xs[:, 2]), V * np.sin(Xs[:, 2]), W], axis=1)

    for _ in range(substeps):
        k1 = field(X)
        k2 = field(X + 0.5 * h * k1)
        k3 = field(X + 0.5 * h * k2)
        k4 = field(X + h * k3)
        X = X + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return X


def mc_unicycle_rollout(x_start, n_traj, T, dt, t_ref, rng):
    """Trajectory fan under the perturbed constant-speed / cosine-turn family.

    Returns states of shape (T+1, n_traj, 3) on the reach grid.
    """
    a1 = rng.uniform(-0.1, 0.1, n_traj)
    a2 = rng.uniform(-0.01, 0.01, n_traj)
    X = np.tile(np.asarray(x_start, float), (n_traj, 1))
    out = np.empty((T + 1, n_traj, 3))
    out[0] = X
    t = t_ref
    substeps = 4
    for i in range(T):
        # controls vary inside the step; integrate with piecewise-frozen values
        h = dt / substeps
        for k in range(substeps):
            tk = t + k * h
            V = 1.0 + a1
            W = np.cos(6.0 * (tk + 0.5 * h - t_ref)) + a2
            X = batch_rk4_unicycle(X, V, W, h, substeps=1)
        out[i + 1] = X
        t += dt
    return out
