"""Output checks, run outside the timed body.

The reference trajectories are integrated with the benchmark's own
vectorised RK4 of the true unicycle, not with the library.
"""

from __future__ import annotations

import numpy as np

GRID = 201          # grid oracle points per control axis
FAN = 1000          # Monte-Carlo trajectories per tube check
FAN_SUBSTEPS = 10


def _unicycle_field(X, V, W):
    return np.stack([V * np.cos(X[:, 2]), V * np.sin(X[:, 2]), W], axis=1)


def _rk4(X, V, W0, Wm, W1, h):
    """One classical RK4 step with the turn rate given at the step's start, middle and end."""
    k1 = _unicycle_field(X, V, W0)
    k2 = _unicycle_field(X + 0.5 * h * k1, V, Wm)
    k3 = _unicycle_field(X + 0.5 * h * k2, V, Wm)
    k4 = _unicycle_field(X + h * k3, V, W1)
    return X + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def unicycle_fan(x_start, T, dt, t_ref, a1, a2, omega, rng):
    """States (T+1, FAN, 3) of the unicycle under u = [1 + a1, cos(omega (t - t_ref)) + a2]
    with parameters drawn uniformly from the boxes a1 and a2."""
    V = 1.0 + rng.uniform(a1[0], a1[1], FAN)
    A2 = rng.uniform(a2[0], a2[1], FAN)
    X = np.tile(np.asarray(x_start, float), (FAN, 1))
    out = np.empty((T + 1, FAN, 3))
    out[0] = X
    h = dt / FAN_SUBSTEPS
    for i in range(T):
        for k in range(FAN_SUBSTEPS):
            t = t_ref + i * dt + k * h
            X = _rk4(X, V, *(np.cos(omega * (s - t_ref)) + A2 for s in (t, t + 0.5 * h, t + h)), h)
        out[i + 1] = X
    return out


def tube_contains_fan(lo, hi, fan):
    """Every fan state lies in its tube box at every grid time, with no tolerance."""
    if lo.shape[0] != fan.shape[0]:
        return False, f"tube has {lo.shape[0]} boxes, fan has {fan.shape[0]} states"
    inside = (lo[:, None, :] <= fan) & (fan <= hi[:, None, :])
    if inside.all():
        return True, ""
    step = int(np.argwhere(~inside.all(axis=(1, 2)))[0, 0])
    return False, f"{int((~inside).any(axis=2).sum())} fan states outside, first at step {step}"


def grid_optimum(cost, x, U, dt, substeps):
    """Smallest one-step cost over a GRID x GRID control grid, true unicycle dynamics."""
    vs = np.linspace(U.lo[0], U.hi[0], GRID)
    ws = np.linspace(U.lo[1], U.hi[1], GRID)
    VV, WW = np.meshgrid(vs, ws, indexing="ij")
    V, W = VV.ravel(), WW.ravel()
    Y = np.tile(np.asarray(x, float), (V.size, 1))
    h = dt / substeps
    for _ in range(substeps):
        Y = _rk4(Y, V, W, W, W, h)
    Uc = np.stack([V, W], axis=1)
    vals = (
        np.einsum("bi,ij,bj->b", Y, cost.Q, Y)
        + 2.0 * np.einsum("bi,ij,bj->b", Y, cost.S, Uc)
        + np.einsum("bi,ij,bj->b", Uc, cost.R, Uc)
        + Y @ cost.q + Uc @ cost.r
    )
    return float(vals.min())


def unicycle_bound_check(systems, sys, cfg, report):
    """Replay the logged controls and test |c* - model_cost| <= bound at every step.

    Returns (ok, detail, smallest margin)."""
    samples = systems.excite(sys, cfg.init_len, cfg.seed, dt=cfg.dt, x0=cfg.x0,
                             mode=cfg.excitation, substeps=cfg.substeps)
    x = systems.advance(sys, samples[-1].x, samples[-1].u, cfg.dt, cfg.substeps)
    margin = float("inf")
    for log in report.logs:
        c_star = grid_optimum(cfg.cost, x, sys.U, cfg.dt, cfg.substeps)
        gap = log.bound - abs(c_star - log.model_cost)
        margin = min(margin, gap)
        if gap < 0.0:
            return False, f"bound violated at step {log.i}: margin {gap:.4g}", margin
        x = systems.advance(sys, x, log.u, cfg.dt, cfg.substeps)
    if not np.array_equal(x, report.final_state):
        return False, "replay of the logged controls does not reproduce final_state", margin
    return True, "", margin
