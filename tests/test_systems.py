import json
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import assert_matches_exhaustive
from datareach.control import AffineOverApprox, assemble_optimistic, norm_cost
from datareach.errors import StepTooLarge
from datareach.intervals import Box
from datareach.knowledge import LipschitzBounds, SideInfoSet, VectorFieldBounds
from datareach.qpsolve import solve_optimistic
from datareach.reach import max_step_size
from datareach.systems import (
    ExperimentConfig,
    SystemSpec,
    advance,
    aircraft,
    by_name,
    check_experiment,
    excite,
    experiment_for,
    quadrotor,
    run_closed_loop,
    unicycle,
    unicycle_experiment,
)

MG_HALF = 1.25 * 9.81 / 2.0


def integrator_system():
    """1-D xdot = u with the dynamics declared exactly through range bounds."""
    side = SideInfoSet(
        vf_bounds=VectorFieldBounds(
            region=Box([-100.0], [100.0]),
            f_range=Box([0.0], [0.0]),
            G_range=Box([[1.0]], [[1.0]]),
        )
    )
    return SystemSpec(
        n=1, m=1,
        f_true=lambda x: np.zeros(1),
        G_true=lambda x: np.ones((1, 1)),
        U=Box([-1.0], [1.0]),
        X=Box([-10.0], [10.0]),
        lip=LipschitzBounds([0.0], [[0.0]]),
        side=side,
        name="integrator",
    )


class TestBenchmarkDynamics:
    def test_unicycle_G_entries(self):
        sysu = unicycle()
        G0 = sysu.G_true(np.array([0.0, 0.0, 0.0]))
        assert np.allclose(G0, [[1, 0], [0, 0], [0, 1]])
        G90 = sysu.G_true(np.array([0.0, 0.0, math.pi / 2]))
        assert np.allclose(G90[:, 0], [0, 1, 0], atol=1e-12)
        assert np.allclose(sysu.f_true(np.array([1.0, 2.0, 3.0])), 0.0)

    def test_unicycle_step_bound(self):
        sysu = unicycle()
        assert max_step_size(sysu.lip, sysu.U) == pytest.approx(0.1231, abs=1e-3)

    def test_quadrotor_hover_balance(self):
        sysq = quadrotor()
        x = np.zeros(6)
        u = np.array([MG_HALF, MG_HALF])
        xdot = sysq.h_true(x, u)
        assert xdot[3] == pytest.approx(0.0, abs=1e-12)  # vertical force balance

    def test_quadrotor_gravity_term(self):
        sysq = quadrotor()
        f = sysq.f_true(np.zeros(6))
        assert f[3] == pytest.approx(-9.81)

    def test_quadrotor_equal_thrust_no_torque(self):
        sysq = quadrotor()
        x = np.zeros(6)
        x[5] = 2.0  # spinning
        u = np.array([7.0, 7.0])
        xdot = sysq.h_true(x, u)
        drag_only = -0.02255 * 2.0 / (2 * 0.03)
        assert xdot[5] == pytest.approx(drag_only)

    def test_aircraft_zero_is_equilibrium(self):
        sysa = aircraft()
        assert np.allclose(sysa.h_true(np.zeros(5), np.zeros(2)), 0.0, atol=1e-15)

    def test_aircraft_altitude_row(self):
        sysa = aircraft()
        x = np.zeros(5)
        x[1] = 1.0
        x[3] = 1.0
        assert sysa.f_true(x)[4] == pytest.approx(1.21)

    def test_aircraft_G_row3(self):
        sysa = aircraft()
        G = sysa.G_true(np.zeros(5))
        assert G[2, 0] == pytest.approx(-0.378)
        assert G[2, 1] == pytest.approx(0.544)

    def test_by_name(self):
        assert by_name("unicycle").name == "unicycle"
        with pytest.raises(ValueError, match=r"^name must be one of \['aircraft', 'quadrotor', "
                                             r"'unicycle'\], not 'hovercraft'$"):
            by_name("hovercraft")


class TestLipschitzSoundness:
    """Declared bounds hold on compact flight-envelope boxes, 1e4 pairs each."""

    CASES = [
        ("unicycle", unicycle, [-5, -5, -math.pi], [5, 5, math.pi]),
        ("quadrotor", quadrotor,
         [-20, -10, -20, -10, -math.pi / 2, -5], [20, 10, 20, 10, math.pi / 2, 5]),
        ("aircraft", aircraft, [-8, -15, -8, -8, -50], [8, 15, 8, 8, 150]),
    ]

    # a fixed seed per case: the pairs drawn are the same in every process
    SEEDS = {"unicycle": 1701, "quadrotor": 1702, "aircraft": 1703}

    @pytest.mark.parametrize("name,builder,lo,hi", CASES)
    def test_bounds_hold(self, name, builder, lo, hi):
        sys = builder()
        rng = np.random.default_rng(self.SEEDS[name])
        lo = np.asarray(lo, float)
        hi = np.asarray(hi, float)
        for _ in range(10_000):
            x = rng.uniform(lo, hi)
            y = rng.uniform(lo, hi)
            d = float(np.linalg.norm(x - y))
            df = np.abs(sys.f_true(x) - sys.f_true(y))
            assert np.all(df <= sys.lip.L_f * d + 1e-9)
            dG = np.abs(sys.G_true(x) - sys.G_true(y))
            assert np.all(dG <= sys.lip.L_G * d + 1e-9)

    @pytest.mark.parametrize("name,builder,lo,hi", CASES[1:])
    def test_full_bounds_cover_residual_and_drift(self, name, builder, lo, hi):
        # f_k = P_k x + r_k, so |f_k(x) - f_k(y)| <= (L_r,k + ||P_k||_2) |x - y|,
        # and G is the residual's own; the step bound reads the full bounds
        sys = builder()
        pd = sys.side.partial_dynamics
        assert np.all(sys.lip.L_f >= pd.lip.L_f + np.linalg.norm(pd.P, axis=1))
        assert np.all(sys.lip.L_G >= pd.lip.L_G)
        rng = np.random.default_rng(self.SEEDS[name])
        for _ in range(1_000):
            x, y = rng.uniform(lo, hi), rng.uniform(lo, hi)
            d = float(np.linalg.norm(x - y))
            dr = np.abs(sys.f_true(x) - pd.P @ x - (sys.f_true(y) - pd.P @ y))
            assert np.all(dr <= pd.lip.L_f * d + 1e-9)

    @pytest.mark.xfail(strict=True, reason="the aircraft's L_f[2] = 4 holds only on "
                       "the envelope [-8,8]x[-15,15]x[-8,8]x[-8,8]x[-50,150], not on X")
    def test_aircraft_bound_holds_on_declared_domain(self):
        # at x2 = 150 the term 0.15 sin(x1) x2 of f3 changes by about 22.5 per
        # unit of x1
        sys = aircraft()
        x = np.array([0.0, 150.0, 0.0, 0.0, 0.0])
        delta = 1e-3
        y = x + np.array([delta, 0.0, 0.0, 0.0, 0.0])
        assert sys.X.contains(x) and sys.X.contains(y)
        df3 = abs(sys.f_true(y)[2] - sys.f_true(x)[2])
        assert df3 <= sys.lip.L_f[2] * delta


class TestSimulation:
    def test_rk4_linear_exactness(self):
        sysi = integrator_system()
        x = advance(sysi, np.array([0.0]), np.array([1.0]), 0.1, 1)
        assert x[0] == pytest.approx(0.1, abs=1e-15)

    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf, 0.0, -0.1])
    def test_advance_rejects_bad_dt(self, dt):
        with pytest.raises(ValueError, match="^dt must be positive and finite"):
            advance(unicycle(), np.zeros(3), np.ones(2), dt)

    def test_unicycle_zero_turnrate_keeps_heading(self):
        sysu = unicycle()
        x = np.array([0.0, 0.0, 0.7])
        for _ in range(20):
            x = advance(sysu, x, np.array([1.5, 0.0]), 0.05, 1)
        assert x[2] == pytest.approx(0.7, abs=1e-12)

    def test_rk4_convergence_order(self):
        """Halving h cuts the error roughly 16x (4th order) on the quadrotor."""
        sysq = quadrotor()
        x0 = np.array([0.0, 1.0, 5.0, -1.0, 0.2, 0.3])
        u = np.array([7.0, 5.5])

        def endpoint(h):
            x = x0.copy()
            for _ in range(int(round(1.0 / h))):
                x = advance(sysq, x, u, h, 1)
            return x

        ref = endpoint(1.0 / 1280)
        e1 = np.linalg.norm(endpoint(1.0 / 40) - ref)
        e2 = np.linalg.norm(endpoint(1.0 / 80) - ref)
        assert e1 / e2 == pytest.approx(16.0, rel=0.35)

    def test_substeps_validated(self):
        sysu = unicycle()
        for substeps in (0, -3, 2.5):
            with pytest.raises(ValueError, match="substeps"):
                advance(sysu, np.zeros(3), np.ones(2), 0.1, substeps)
            with pytest.raises(ValueError, match="substeps"):
                excite(sysu, 2, seed=0, dt=0.1, x0=[0, 0, 0], substeps=substeps)

    def test_excite_counts_validated(self):
        sysu = unicycle()
        for N, seed, key in ((2.5, 1, "N"), (0, 1, "N"), (True, 1, "N"), (2, 1.5, "seed"),
                             (2, -1, "seed"), (2, False, "seed")):
            with pytest.raises(ValueError, match=f"^{key} must"):
                excite(sysu, N, seed=seed, dt=0.1, x0=[0, 0, 0])
        assert len(excite(sysu, 2.0, seed=1.0, dt=0.1, x0=[0, 0, 0])) == 2

    def test_state_and_control_lengths_validated(self):
        # the float fields would otherwise drop or ignore extra entries
        sysu = unicycle()
        for x, u, message in ((np.zeros(4), np.ones(2), r"^x must have shape \(3,\), not \(4,\)"),
                              (np.zeros(3), np.ones(3), r"^u must have shape \(2,\), not \(3,\)")):
            with pytest.raises(ValueError, match=message):
                advance(sysu, x, u, 0.1)


def array_rk4(sys, x, u, dt, substeps):
    """The plant integrator on arrays, through `h_true`: the reference the
    float integrator reproduces."""
    h = dt / substeps
    for _ in range(substeps):
        k1 = sys.h_true(x, u)
        k2 = sys.h_true(x + 0.5 * h * k1, u)
        k3 = sys.h_true(x + 0.5 * h * k2, u)
        k4 = sys.h_true(x + h * k3, u)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


PRESETS = [("unicycle", unicycle), ("quadrotor", quadrotor), ("aircraft", aircraft)]


def state_control_pairs(sys, seed, count=500):
    rng = np.random.default_rng(seed)
    return [(rng.uniform(sys.X.lo, sys.X.hi), rng.uniform(sys.U.lo, sys.U.hi))
            for _ in range(count)]


@pytest.mark.parametrize("name, make", PRESETS, ids=[p[0] for p in PRESETS])
class TestFloatField:
    """The presets' fused float fields against their array forms."""

    def test_matches_array_field(self, name, make):
        # G @ u may run through a BLAS kernel that fuses a multiply-add, which
        # rounds once where the float field rounds twice.  With unit roundoff
        # eps/2, the two evaluations of f_i + (G_i0 u_0 + G_i1 u_1) then differ
        # by at most eps |f_i| + 2.5 eps |G_i0 u_0| + 2 eps |G_i1 u_1| (to first
        # order, for either order of the fused product), so the tolerance is
        # 2.5 eps times the sum of the absolute values of the terms.  With
        # the products G_ij u_j rounded one by one, the arrays give the float
        # field's bits, and the unicycle's products (with 0, 1 or a single
        # nonzero column) are exact either way.
        sys = make()
        eps = np.finfo(float).eps
        for x, u in state_control_pairs(sys, 11):
            fused = np.array(sys.h_float(x.tolist(), u.tolist()))
            f, G = sys.f_true(x), sys.G_true(x)
            assert np.array_equal(fused, f + (G[:, 0] * u[0] + G[:, 1] * u[1]))
            blas = f + G @ u
            if name == "unicycle":
                assert np.array_equal(fused, blas)
            terms = np.abs(f) + np.abs(G[:, 0] * u[0]) + np.abs(G[:, 1] * u[1])
            assert np.all(np.abs(fused - blas) <= 2.5 * eps * terms)

    def test_advance_matches_array_rk4(self, name, make):
        sys = make()
        for x, u in state_control_pairs(sys, 12, count=100):
            got = advance(sys, x, u, 0.01, 10)
            assert np.abs(got - array_rk4(sys, x, u, 0.01, 10)).max() <= 1e-13

    def test_array_system_integrates_bitwise(self, name, make):
        # without a float field the simulator runs on `h_true`, whose arrays
        # round exactly as the float integrator's loop does
        sys = replace(make(), h_float=None)
        for x, u in state_control_pairs(sys, 13, count=50):
            assert np.array_equal(advance(sys, x, u, 0.01, 10),
                                  array_rk4(sys, x, u, 0.01, 10))


class TestExcite:
    def test_zero_mode_single_sample(self):
        sysu = unicycle()
        samples = excite(sysu, 1, seed=0, dt=0.1, x0=[0.5, 0.5, 0.0], mode="zero")
        assert len(samples) == 1
        assert np.allclose(samples[0].u, 0.0)
        assert np.allclose(samples[0].xdot, sysu.f_true(samples[0].x))

    @pytest.mark.parametrize("x0", [[0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [[0.0, 0.0, 0.0]]])
    def test_x0_length_validated(self, x0):
        with pytest.raises(ValueError, match=r"^x0 must have shape \(3,\), not "):
            excite(unicycle(), 3, seed=0, dt=0.1, x0=x0)

    @pytest.mark.parametrize("key, value", [
        ("dt", 0.0), ("dt", -0.1), ("dt", math.nan), ("dt", math.inf), ("dt", -math.inf),
        ("x0", [0.0, math.nan, 0.0]), ("x0", [math.inf, 0.0, 0.0]), ("x0", [0.0, 0.0, -math.inf]),
    ])
    def test_step_and_start_validated(self, key, value):
        """A dt that is not positive and finite, or a non-finite x0, is
        rejected before any sample, with an error naming it."""
        kwargs = {"dt": 0.1, "x0": [0.0, 0.0, 0.0], key: value}
        with pytest.raises(ValueError, match=f"^{key} must be"):
            excite(unicycle(), 3, seed=0, **kwargs)

    def test_seeded_determinism(self):
        sysu = unicycle()
        a = excite(sysu, 8, seed=42, dt=0.1, x0=[0, 0, 0])
        b = excite(sysu, 8, seed=42, dt=0.1, x0=[0, 0, 0])
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.x, sb.x)
            assert np.array_equal(sa.u, sb.u)

    def test_single_axis_mode(self):
        sysu = unicycle()
        samples = excite(sysu, 20, seed=3, dt=0.1, x0=[0, 0, 0], mode="single_axis")
        for s in samples:
            assert np.count_nonzero(s.u) <= 1

    def test_controls_in_bounds(self):
        sysq = quadrotor()
        for s in excite(sysq, 20, seed=5, dt=0.008, x0=[0, 0, 5, 0, 0, 0]):
            assert sysq.U.contains(s.u)


class TestStepLatency:
    """`RunReport`'s latency with upkeep, micros + kb_micros, against dt."""

    @staticmethod
    def report(dt, times):
        from datareach.control import StepLog
        from datareach.systems import RunReport

        logs = [StepLog(np.zeros(1), None, 0.0, 0.0, "idealistic", None, micros, kb_micros=kb)
                for micros, kb in times]
        return RunReport("toy", "idealistic", 0, False, 0.0, np.zeros(1), dt, logs)

    def test_max_total_and_overruns(self):
        # 1e6 * 0.01 is 10000.0: a step of exactly the period does not overrun
        rep = self.report(0.01, [(100.0, 50.0), (3000.0, 7500.5), (9000.0, 1000.0),
                                 (200.0, 9800.0), (9500.0, 0.0)])
        assert rep.max_total_micros == 10500.5
        assert rep.overruns == 1
        assert rep.max_step_micros == 9500.0  # the control step alone, as before
        rep = self.report(0.001, [(600.0, 500.0), (100.0, 950.0), (10.0, 20.0)])
        assert (rep.max_total_micros, rep.overruns) == (1100.0, 2)
        out = rep.to_dict()
        assert (out["dt"], out["max_total_micros"], out["overruns"]) == (0.001, 1100.0, 2)

    def test_no_steps(self):
        rep = self.report(0.1, [])
        assert (rep.max_total_micros, rep.overruns, rep.max_step_micros) == (0.0, 0, 0.0)

    def test_closed_loop_reports_its_initial_build(self, monkeypatch):
        """The report and its JSON carry the initial build's passes and
        residual, not those of a later rebuild."""
        from datareach import systems

        built = []
        build = systems.build_knowledge

        def spy(*args, **kwargs):
            built.append(build(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(systems, "build_knowledge", spy)
        cfg = replace(experiment_for("aircraft"), max_steps=30)  # one rebuild, at step 25
        rep = run_closed_loop(aircraft(), cfg)
        (kb,) = built
        assert rep.steps_taken == 30 and kb.passes >= 1
        assert (rep.build_passes, rep.build_residual) == (kb.passes, kb.residual)
        out = json.loads(json.dumps(rep.to_dict()))
        assert (out["build_passes"], out["build_residual"]) == (kb.passes, kb.residual)

    def test_closed_loop_reports_its_period(self):
        cfg = replace(unicycle_experiment(), max_steps=3)
        rep = run_closed_loop(unicycle(), cfg)
        assert rep.dt == cfg.dt and rep.steps_taken == 3
        assert rep.max_total_micros == max(log.micros + log.kb_micros for log in rep.logs)
        assert rep.max_total_micros > rep.max_step_micros


class TestClosedLoop:
    def test_integrator_geometric_decay(self):
        sysi = integrator_system()
        cfg = ExperimentConfig(
            dt=0.1, init_len=1, x0=np.array([1.0]), cost=norm_cost(1, 1),
            stop_level=0.005, max_steps=50, seed=0, excitation="zero",
        )
        rep = run_closed_loop(sysi, cfg)
        assert rep.reached
        # |x| shrinks by the maximal control authority every step
        costs = [log.realized_cost for log in rep.logs]
        assert all(b < a for a, b in zip(costs, costs[1:]))

    def test_unicycle_preset_reaches(self):
        rep = run_closed_loop(unicycle(), unicycle_experiment())
        assert rep.reached
        assert rep.steps_to_goal <= 150

    @pytest.mark.parametrize("seed, steps", [(5, 175), (20, 155)])
    def test_optimistic_quadrotor_near_dependent_rows(self, seed, steps):
        # at step 170 (seed 5) and 149 (seed 20) an orthant QP meets a u-bound
        # row at a rounding-level angle to its active rows; a full step along
        # it made the next R of the active-set solve exactly singular
        cfg = experiment_for("quadrotor", mode="optimistic", seed=seed, max_steps=steps)
        rep = run_closed_loop(quadrotor(), cfg)
        assert rep.failure is None
        assert rep.steps_taken == steps

    def test_determinism_end_to_end(self):
        cfg1 = unicycle_experiment()
        cfg1.max_steps = 8
        cfg2 = unicycle_experiment()
        cfg2.max_steps = 8
        r1 = run_closed_loop(unicycle(), cfg1)
        r2 = run_closed_loop(unicycle(), cfg2)
        assert r1.steps_taken == r2.steps_taken
        for l1, l2 in zip(r1.logs, r2.logs):
            assert np.array_equal(l1.u, l2.u)
            assert l1.realized_cost == l2.realized_cost
        # optimistic steps carry active sets from step to step; a solve of an
        # unrelated problem of the same shape between two runs changes nothing
        sysu = unicycle()
        aff = AffineOverApprox(Box.point([1.0, -1.0, 0.5]), Box.point(np.ones((3, 2))),
                               Box.point(np.ones((3, 2))))
        unrelated = assemble_optimistic(norm_cost(3, 2), aff, sysu.U, sysu.X)
        runs = []
        for k in range(2):
            if k:
                solve_optimistic(unrelated)
            runs.append(run_closed_loop(sysu, unicycle_experiment(mode="optimistic",
                                                                   max_steps=8)))
        r1, r2 = runs
        assert r1.steps_taken == r2.steps_taken == 8
        for l1, l2 in zip(r1.logs, r2.logs):
            assert l1.mode_used == "optimistic"
            assert np.array_equal(l1.u, l2.u)
            assert (l1.realized_cost, l1.model_cost, l1.bound, l1.iters) \
                == (l2.realized_cost, l2.model_cost, l2.bound, l2.iters)

    def test_one_log_per_applied_control(self):
        cfg = unicycle_experiment()
        cfg.max_steps = 6
        rep = run_closed_loop(unicycle(), cfg)
        assert rep.steps_taken == len(rep.logs) == 6
        ts = [log.t for log in rep.logs]
        assert np.allclose(np.diff(ts), cfg.dt)

    def test_loop_keeps_the_step_records(self, monkeypatch):
        import datareach.systems as systems

        returned = []
        step = systems.datacontrol_step

        def spy(*args, **kwargs):
            out = step(*args, **kwargs)
            returned.append(out[1])
            return out

        monkeypatch.setattr(systems, "datacontrol_step", spy)
        cfg = unicycle_experiment(max_steps=4)
        rep = run_closed_loop(unicycle(), cfg)
        assert len(rep.logs) == 4 and all(a is b for a, b in zip(rep.logs, returned))
        cum_cost = 0.0
        for i, log in enumerate(rep.logs):
            assert (log.i, log.iters, log.fell_back) == (i, log.info.iters, False)
            assert log.t == pytest.approx((cfg.init_len + i) * cfg.dt)
            cum_cost += log.realized_cost
        assert rep.cum_cost == cum_cost

    def test_dt_validation(self):
        cfg = unicycle_experiment()
        cfg.dt = 0.2
        with pytest.raises(StepTooLarge):
            run_closed_loop(unicycle(), cfg)

    @pytest.mark.parametrize("key, value", [
        ("substeps", 0), ("substeps", -3), ("substeps", 2.5), ("M", 0.0), ("M", -1.0),
        ("weights", (0.5,)), ("weights", (0.2, 0.3, 0.9)), ("weights", ()),
        ("weights", 0.5), ("weights", (0.5, "half")), ("weights", (0.5, 1.5)),
        ("init_len", 2.5),
        ("max_steps", 2.5), ("max_steps", math.inf), ("seed", 1.5), ("seed", math.nan),
        ("max_steps", True), ("init_len", True), ("seed", False),
        ("M", math.inf), ("M", math.nan),
        ("eps", math.inf), ("mu0", math.inf), ("mu0", 0.0),
        ("stop_level", math.nan), ("stop_level", math.inf),
        ("x0", np.array([math.nan, 0.0, 0.0])), ("x0", np.array([0.0, -math.inf, 0.0])),
    ])
    def test_experiment_settings_validated(self, key, value):
        cfg = unicycle_experiment(max_steps=2)
        setattr(cfg, key, value)
        with pytest.raises(ValueError, match=f"^{key} must"):
            check_experiment(unicycle(), cfg)
        with pytest.raises(ValueError, match=f"^{key} must"):
            run_closed_loop(unicycle(), cfg)

    def test_substeps_validated_before_excitation(self, monkeypatch):
        import datareach.systems as systems

        def no_excite(*args, **kwargs):
            raise AssertionError("excited before validating substeps")

        monkeypatch.setattr(systems, "excite", no_excite)
        cfg = unicycle_experiment()
        cfg.substeps = 0
        with pytest.raises(ValueError, match="substeps"):
            run_closed_loop(unicycle(), cfg)

    def test_record_reach_boxes_contain_next_state(self):
        cfg = unicycle_experiment()
        cfg.max_steps = 6
        sysu = unicycle()
        rep = run_closed_loop(sysu, cfg)
        assert len(rep.logs) == 6
        # each step's predicted box must contain the realized state, which
        # replaying the applied controls reconstructs
        samples = excite(sysu, cfg.init_len, cfg.seed, dt=cfg.dt, x0=cfg.x0,
                         mode=cfg.excitation)
        x = advance(sysu, samples[-1].x, samples[-1].u, cfg.dt)
        for log in rep.logs:
            x = advance(sysu, x, log.u, cfg.dt)
            box = log.predicted_box
            assert np.all(box.lo - 1e-9 <= x) and np.all(x <= box.hi + 1e-9)


OPTIMISTIC_PRESETS = [("unicycle", unicycle, None), ("quadrotor", quadrotor, None),
                      ("aircraft", aircraft, 30)]


def spy_optimistic_solves(monkeypatch, force_cold=False):
    """Record (start passed, active sets returned) of every optimistic solve
    of the control step; with `force_cold` each solve ignores its start."""
    import datareach.control as control

    calls = []
    solve = control.solve_optimistic

    def spy(*args, start=None, **kwargs):
        out = solve(*args, start=None if force_cold else start, **kwargs)
        calls.append((start, out[3].active_sets))
        return out

    monkeypatch.setattr(control, "solve_optimistic", spy)
    return calls


def optimistic_preset_run(name, make, cap):
    cfg = experiment_for(name, mode="optimistic")
    if cap is not None:
        cfg.max_steps = cap
    return run_closed_loop(make(), cfg)


@pytest.mark.parametrize("name, make, cap", OPTIMISTIC_PRESETS,
                         ids=[p[0] for p in OPTIMISTIC_PRESETS])
class TestOptimisticWarmStart:
    def test_matches_forced_cold_run(self, monkeypatch, name, make, cap):
        warm = optimistic_preset_run(name, make, cap)
        spy_optimistic_solves(monkeypatch, force_cold=True)
        cold = optimistic_preset_run(name, make, cap)
        assert warm.failure is None and cold.failure is None
        assert warm.steps_taken == cold.steps_taken
        assert warm.reached == cold.reached
        for lw, lc in zip(warm.logs, cold.logs):
            assert np.abs(lw.u - lc.u).max() <= 1e-9
        assert sum(log.iters for log in warm.logs) < sum(log.iters for log in cold.logs)

    def test_every_step_picks_the_exhaustive_orthant(self, monkeypatch, name, make, cap):
        """Each step's warm, pruned solve picks the orthant that solving every
        orthant cold picks; the runs with more than one orthant skip some."""
        import datareach.control as control

        solves = []
        solve = control.solve_optimistic

        def spy(oqp, *args, **kwargs):
            solves.append((oqp, solve(oqp, *args, **kwargs)))
            return solves[-1][1]

        monkeypatch.setattr(control, "solve_optimistic", spy)
        optimistic_preset_run(name, make, cap)
        pruned = sum(assert_matches_exhaustive(oqp, out) for oqp, out in solves)
        assert (pruned > 0) == (len(solves[0][0].models) > 1)

    def test_each_step_starts_from_the_previous_active_sets(self, monkeypatch, name,
                                                            make, cap):
        calls = spy_optimistic_solves(monkeypatch)
        rep = optimistic_preset_run(name, make, cap)
        assert len(calls) == rep.steps_taken > 1
        assert all(log.mode_used == "optimistic" for log in rep.logs)
        assert calls[0][0] is None
        for (start, _), (_, previous) in zip(calls[1:], calls):
            assert start is not None and start == previous
