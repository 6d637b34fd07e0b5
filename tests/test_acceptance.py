"""Acceptance gate: every criterion at its stated tolerance and time budget.

Run with `pytest tests/test_acceptance.py -s` to see one line per criterion.
"""

import math
import time

import numpy as np
import pytest

from conftest import FIG_SEED, T_REF, batch_rk4_unicycle, fg_rows, mc_unicycle_rollout
from datareach.control import datacontrol_step, norm_cost
from datareach.intervals import (
    Box,
    Interval,
    _prod_sum,
    add_pairs,
    imat_vec,
    mat_vec_pairs,
    scale_pair,
)
from datareach.knowledge import (
    Sample,
    _contract,
    _first_failure,
    _split,
    append_sample,
    build_knowledge,
    f_over,
    G_over,
)
from datareach.qpsolve import BoxQP, QPOptions, oracle_boxqp, solve_idealistic
from datareach.reach import ConstCosControl, datareach, max_step_size
from datareach.systems import (
    advance,
    aircraft,
    aircraft_experiment,
    excite,
    quadrotor,
    quadrotor_experiment,
    run_closed_loop,
    unicycle,
    unicycle_experiment,
    unicycle_knowledge_settings,
)


def report(num, label, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {num:02d} {label}: {elapsed*1e3:.2f} ms (budget {budget*1e3:.0f} ms)")
    return ok


@pytest.fixture(scope="module")
def fig_setup():
    sysu = unicycle()
    samples = excite(sysu, 15, seed=FIG_SEED, dt=0.1, x0=[-2.0, -2.5, math.pi / 2])
    kb = build_knowledge(samples, sysu.lip, sysu.side)
    x_start = advance(sysu, samples[-1].x, samples[-1].u, 0.1)
    return sysu, samples, kb, x_start


def test_01_step_bound_reproduction():
    sysu = unicycle()
    max_step_size(sysu.lip, sysu.U)  # warmup
    t0 = time.perf_counter()
    got = max_step_size(sysu.lip, sysu.U)
    dt = time.perf_counter() - t0
    ok = abs(got - 0.1231) <= 1e-3 and dt < 1e-3
    assert report(1, "step-bound 0.1231 +- 1e-3", ok, dt, 1e-3)


def test_02_contraction_golden_case():
    F = Box([-0.01, -1.0, -1.0], [1.0, 1.0, 1.0])
    G = Box([[-0.05, -0.1], [-1.0, -1.0], [-1.0, -1.0]],
            [[0.05, 1.0], [1.0, 1.0], [1.0, 1.0]])
    s = Sample([0.0, 0.0, math.pi / 2], [0.0, 1.0, 0.1], [1.0, 0.1])
    xdot, u, (lo, hi) = s.xdot[None], s.u[None], fg_rows(F, G)
    _contract(xdot, u, lo, hi)  # warmup
    t0 = time.perf_counter()
    c_lo, c_hi, stages = _contract(xdot, u, lo, hi)
    failure = _first_failure(stages)
    dt = time.perf_counter() - t0
    (cf_lo, cg_lo), (cf_hi, cg_hi) = _split(c_lo[0], 3), _split(c_hi[0], 3)
    tol = 1e-12
    ok = (
        failure is None
        and abs(cf_lo[0] + 0.01) <= tol and abs(cf_hi[0] - 0.06) <= tol
        and abs(cg_lo[0, 0] + 0.05) <= tol and abs(cg_hi[0, 0] - 0.02) <= tol
        and abs(cg_lo[0, 1] + 0.1) <= tol and abs(cg_hi[0, 1] - 0.6) <= tol
        and dt < 1e-3
    )
    assert report(2, "contraction golden endpoints 1e-12", ok, dt, 1e-3)


def test_03_differential_inclusion_soundness(fig_setup):
    sysu, samples, kb, x_start = fig_setup
    t0 = time.perf_counter()
    h = 2.5 / 400
    x = x_start.copy()
    violations = 0
    for k in range(400):
        t = T_REF + k * h
        u = np.array([1.0, math.cos(6.0 * (t - T_REF))])
        xdot_true = sysu.h_true(x, u)
        enc = f_over(x, kb) + imat_vec(G_over(x, kb), u)
        if not enc.contains(xdot_true, atol=1e-9):
            violations += 1
        x = advance(sysu, x, u, h, 1)
    dt = time.perf_counter() - t0
    ok = violations == 0 and dt < 1.0
    assert report(3, "inclusion sound at 400/400 grid points", ok, dt, 1.0)


@pytest.fixture(scope="module")
def fig_tubes(fig_setup):
    """The three side-information tubes of the tube-comparison figure."""
    sysu, samples, _, x_start = fig_setup
    settings = unicycle_knowledge_settings()
    ctrl = ConstCosControl(t_ref=T_REF, a1=Interval(-0.1, 0.1),
                           a2=Interval(-0.01, 0.01))
    tubes = {}
    t0 = time.perf_counter()
    for name, side in settings.items():
        kb = build_knowledge(samples, sysu.lip, side)
        tubes[name] = datareach(kb, x_start, ctrl, 0.02, 200, t0=T_REF,
                                domain=sysu.X)
    return sysu, x_start, tubes, time.perf_counter() - t0


def test_04_tube_containment_monte_carlo(fig_tubes):
    sysu, x_start, tubes, build_time = fig_tubes
    tube = tubes["decoupled"]
    t0 = time.perf_counter()
    assert tube.failure is None
    rng = np.random.default_rng(77)
    fan = mc_unicycle_rollout(x_start, 1000, 200, 0.02, T_REF, rng)
    lo, hi = tube.boxes()
    ok = bool(
        np.all(lo[:, None, :] - 1e-9 <= fan) and np.all(fan <= hi[:, None, :] + 1e-9)
    )
    dt = time.perf_counter() - t0 + build_time
    ok = ok and dt < 30.0
    assert report(4, "1000 MC trajectories inside tube at all 200 steps", ok, dt, 30.0)


def test_05_side_information_monotonicity(fig_tubes):
    sysu, x_start, tubes, build_time = fig_tubes
    t0 = time.perf_counter()
    wa = tubes["lipschitz_only"].terminal_width()
    wb = tubes["decoupled"].terminal_width()
    wc = tubes["decoupled_bounds"].terminal_width()
    ok = (
        all(t.failure is None for t in tubes.values())
        and np.all(wc <= wb + 1e-12) and np.all(wb <= wa + 1e-12)
    )
    dt = time.perf_counter() - t0 + build_time
    ok = ok and dt < 30.0
    assert report(5, "terminal widths (c) <= (b) <= (a)", ok, dt, 30.0)


def test_06_adares_eps_optimality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(123)
    eps, mu0 = 1e-8, 1.0
    ok = True
    bound_hits = 0
    for _ in range(100):
        m = int(rng.integers(1, 4))
        A = rng.normal(size=(m, m + 1))
        Qi = A @ A.T * rng.uniform(0.1, 4)
        if rng.random() < 0.25:
            Qi = np.zeros((m, m))
        qi = rng.normal(size=m) * rng.uniform(0.5, 3)
        lo = rng.uniform(-3, 0, m)
        box = Box(lo, lo + rng.uniform(0.5, 4, m))
        qp = BoxQP(Qi, qi, box)
        _, l_star = oracle_boxqp(qp)
        u, info = solve_idealistic(qp, QPOptions(eps=eps, mu0=mu0))
        if qp.value(u) - l_star > eps:
            ok = False
        if info.converged and mu0 <= info.mu_estimate:
            delta = qp.value(qp.box.mid) - l_star
            if 16 * delta / (eps * mu0) >= math.e:
                K0 = math.ceil(2 * math.sqrt(math.e / mu0) - 1)
                cap = K0 * math.ceil(math.log(16 * delta / (eps * mu0)))
                bound_hits += 1
                if info.iters > cap:
                    ok = False
    dt = time.perf_counter() - t0
    ok = ok and bound_hits > 0 and dt < 5.0
    assert report(6, f"100 box QPs gap <= 1e-8, {bound_hits} bound checks", ok, dt, 5.0)


def test_07_suboptimality_bound_along_run():
    t0 = time.perf_counter()
    sysu = unicycle()
    cfg = unicycle_experiment()
    samples = excite(sysu, cfg.init_len, cfg.seed, dt=cfg.dt, x0=cfg.x0,
                     mode=cfg.excitation)
    kb = build_knowledge(samples, sysu.lip, sysu.side)
    x = advance(sysu, samples[-1].x, samples[-1].u, cfg.dt)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x5EED]))
    wplus, wminus = rng.uniform(0.0, 1.0, size=2)
    cost = norm_cost(3, 2)

    vs = np.linspace(sysu.U.lo[0], sysu.U.hi[0], 201)
    ws = np.linspace(sysu.U.lo[1], sysu.U.hi[1], 201)
    VV, WW = np.meshgrid(vs, ws, indexing="ij")
    V, W = VV.ravel(), WW.ravel()

    ok = True
    u_prev = None
    for i in range(cfg.max_steps):
        u, diag = datacontrol_step(kb, x, cost, sysu.U, sysu.X, cfg.dt,
                                   "idealistic", QPOptions(), wplus, wminus, u_prev)
        nexts = batch_rk4_unicycle(np.tile(x, (V.size, 1)), V, W, cfg.dt, substeps=10)
        c_star = float((0.5 * (nexts**2).sum(axis=1)).min())
        if abs(c_star - diag.model_cost) > diag.bound + 1e-9:
            ok = False
        x_next = advance(sysu, x, u, cfg.dt)
        realized = cost.value(u, x_next)
        kb = append_sample(kb, Sample(x, sysu.h_true(x, u), u))
        x, u_prev = x_next, u
        if realized <= cfg.stop_level:
            break
    dt = time.perf_counter() - t0
    ok = ok and dt < 60.0
    assert report(7, "suboptimality bound holds at every closed-loop step", ok, dt, 60.0)


def test_08_unicycle_closed_loop():
    t0 = time.perf_counter()
    rep = run_closed_loop(unicycle(), unicycle_experiment())
    dt = time.perf_counter() - t0
    ok = rep.reached and rep.steps_to_goal <= 150 and dt < 30.0
    assert report(8, f"unicycle reaches 0.1-sublevel in {rep.steps_to_goal} steps",
                  ok, dt, 30.0)


def test_09_quadrotor_setpoint():
    t0 = time.perf_counter()
    cfg = quadrotor_experiment()
    rep = run_closed_loop(quadrotor(), cfg)
    dt = time.perf_counter() - t0
    sim_seconds = rep.steps_taken * cfg.dt
    ok = rep.reached and sim_seconds <= 5.0 and dt < 60.0
    assert report(9, f"quadrotor vx in [4.9,5.1] after {sim_seconds:.2f} sim s",
                  ok, dt, 60.0)


def test_10_aircraft_setpoint():
    t0 = time.perf_counter()
    cfg = aircraft_experiment()
    rep = run_closed_loop(aircraft(), cfg)
    dt = time.perf_counter() - t0
    ok = rep.reached and rep.steps_to_goal <= 300 and dt < 60.0
    assert report(10, f"aircraft theta in [4.5,5.5] after {rep.steps_taken} steps",
                  ok, dt, 60.0)


def test_11_runtime_scaling():
    t0 = time.perf_counter()
    sysu = unicycle()
    long_traj = excite(sysu, 1000, seed=6, dt=0.1, x0=[-2.0, -2.5, math.pi / 2],
                       mode="mixed", substeps=4)
    kb = build_knowledge(long_traj[:10], sysu.lip, sysu.side)
    cost = norm_cost(3, 2)
    checkpoints = [10, 30, 100, 300, 1000]
    sizes, times = [], []
    idx = 10
    x_probe = np.array([-1.0, -1.0, 0.5])
    for target in checkpoints:
        while idx < target:
            kb = append_sample(kb, long_traj[idx])
            idx += 1
        reps = 20
        datacontrol_step(kb, x_probe, cost, sysu.U, sysu.X, 0.1)  # warmup
        t1 = time.perf_counter()
        for _ in range(reps):
            datacontrol_step(kb, x_probe, cost, sysu.U, sysu.X, 0.1)
        times.append((time.perf_counter() - t1) / reps)
        sizes.append(kb.xs.shape[0])
    slope = float(np.polyfit(np.log(sizes), np.log(times), 1)[0])
    dt = time.perf_counter() - t0
    ok = slope <= 1.2 and dt < 120.0
    assert report(11, f"per-step time scaling exponent {slope:.3f} <= 1.2", ok, dt, 120.0)


def _inside(inner, outer) -> bool:
    return bool(np.all(outer[0] <= inner[0]) and np.all(inner[1] <= outer[1]))


def _kernel_case(rng, kernel):
    """One drawn case of a pair kernel the step pipeline runs.

    Returns the kernel over interval operands, the kernel over sub-intervals
    of them, and the real result at a point of each operand, evaluated in the
    kernel's own order (elementwise products, then the same sum).
    """
    n, m, p = (int(k) for k in rng.integers(1, 5, 3))

    def operand(shape):
        r = rng.random((5,) + shape)
        lo, hi = np.sort(20.0 * r[:2] - 10.0, axis=0)

        def at(u):  # the point a fraction u in [0, 1) across [lo, hi]
            return np.minimum(np.maximum(lo + u * (hi - lo), lo), hi)

        s = np.sort(r[2:4], axis=0)
        return (lo, hi), (at(s[0]), at(s[1])), at(r[4])

    if kernel == "scale_pair":
        a, a_sub, x = operand((n,))
        c = rng.uniform(-10, 10)
        return scale_pair(a, c), scale_pair(a_sub, c), x * c
    if kernel == "add_pairs":
        (a, a_sub, x), (b, b_sub, y) = operand((n,)), operand((n,))
        return add_pairs(a, b), add_pairs(a_sub, b_sub), x + y
    if kernel == "mat_vec_pairs":
        (M, M_sub, A), (v, v_sub, x) = operand((n, m)), operand((m,))
        real = (A * x[None, :]).sum(axis=1)
        return mat_vec_pairs(M, v), mat_vec_pairs(M_sub, v_sub), real
    # _prod_sum as the tensor contraction runs it: (n, m, p) with (1, m, 1)
    (J, J_sub, T), (v, v_sub, x) = operand((n, m, p)), operand((1, m, 1))
    return _prod_sum(*J, *v), _prod_sum(*J_sub, *v_sub), (T * x).sum(axis=1)


def test_12_interval_property_suite():
    """Isotonicity and containment of the pair kernels the step pipeline runs.

    Float rounding is monotone and each check evaluates the same operations
    in the same order on operands of the same shapes, so both hold with no
    tolerance: the kernel over sub-intervals lies inside the kernel over the
    operands, which contains the real result at points of the operands.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    violations = 0
    kernels = ("add_pairs", "scale_pair", "mat_vec_pairs", "_prod_sum")
    for _ in range(10_000):
        big, small, real = _kernel_case(rng, kernels[int(rng.integers(4))])
        if not _inside(small, big):
            violations += 1
        if not _inside((real, real), big):
            violations += 1
    dt = time.perf_counter() - t0
    ok = violations == 0 and dt < 5.0
    assert report(12, f"10^4 isotonicity/containment cases, {violations} violations", ok, dt, 5.0)
