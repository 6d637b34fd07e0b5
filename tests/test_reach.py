import math

import numpy as np
import pytest

from conftest import (
    T_REF,
    FirstOrderCos,
    alternating_turns,
    constant_f_kb,
    exact_integrator_kb,
    mc_unicycle_rollout,
    quadrotor_default_tube,
)
from datareach.errors import StepTooLarge
from datareach.intervals import Box, Interval, meet
from datareach.knowledge import LipschitzBounds, build_knowledge
from datareach.systems import advance, excite, quadrotor, unicycle
from datareach.reach import (
    ConstantControl,
    ConstCosControl,
    ControlClass,
    PiecewiseConstantControl,
    beta_of,
    datareach,
    datareach_step,
    max_step_size,
)


class RangeOnly(ControlClass):
    """A family that gives only its range: every step is first order."""

    def __init__(self, u):
        self.u = Box.point(u)

    def eval_range(self, t0, t1):
        return self.u


class TestBeta:
    def test_zero_bounds(self):
        lip = LipschitzBounds([0.0, 0.0], np.zeros((2, 2)))
        assert beta_of(lip, np.array([5.0, 5.0])) == 0.0

    def test_scalar_case(self):
        lip = LipschitzBounds([2.0], [[3.0]])
        assert beta_of(lip, np.array([1.0])) == pytest.approx(5.0)

    @pytest.mark.parametrize("Vabs", [[math.nan], [math.inf], [-1.0], [-math.inf]])
    def test_magnitudes_must_be_finite_and_nonnegative(self, Vabs):
        lip = LipschitzBounds([2.0], [[3.0]])
        with pytest.raises(ValueError, match="^Vabs must be finite and nonnegative"):
            beta_of(lip, np.array(Vabs))

    def test_unicycle_values(self, unicycle_system):
        sysu = unicycle_system
        beta_inf = beta_of(sysu.lip, sysu.U.mag)
        assert beta_inf == pytest.approx(4.692, abs=2e-3)
        assert 1.0 / (math.sqrt(3) * beta_inf) == pytest.approx(0.123, abs=1e-3)


class TestMaxStepSize:
    def test_unicycle(self, unicycle_system):
        got = max_step_size(unicycle_system.lip, unicycle_system.U)
        assert got == pytest.approx(0.1231, abs=1e-3)

    def test_zero_lipschitz_is_unbounded(self):
        lip = LipschitzBounds([0.0], [[0.0]])
        assert max_step_size(lip, Box([-1.0], [1.0])) == math.inf

    def test_scalar_case(self):
        lip = LipschitzBounds([2.0], [[3.0]])
        assert max_step_size(lip, Box([-1.0], [1.0])) == pytest.approx(0.2)

    @pytest.mark.parametrize("lo, hi", [(-math.inf, 1.0), (-1.0, math.inf),
                                        (-math.inf, math.inf)])
    @pytest.mark.parametrize("L_G", [0.0, 3.0])
    def test_unbounded_controls_rejected(self, lo, hi, L_G):
        """At L_G = 0 the product 0 * inf would give NaN."""
        lip = LipschitzBounds([2.0], [[L_G]])
        with pytest.raises(ValueError, match="^U must be bounded"):
            max_step_size(lip, Box([lo], [hi]))


class TestRoughEnclosures:
    """The explicit rough enclosure, as each reach step records it (`S`)."""

    def test_explicit_known_constant_field(self):
        kb = constant_f_kb(1.0)
        R = Box([0.0], [0.0])
        S = datareach_step(R, kb, ConstantControl([0.0]), 0.0, 0.1).S
        assert S[0].lo == pytest.approx(-0.1, abs=1e-9)
        assert S[0].hi == pytest.approx(0.1, abs=1e-9)

    def test_explicit_near_limit_still_contains(self):
        # 1-D: L_f = 2, G = 0 known; true flow is a contraction toward xdot = f
        lip = LipschitzBounds([2.0], [[0.0]])
        from datareach.knowledge import Sample, SideInfoSet, VectorFieldBounds

        side = SideInfoSet(
            vf_bounds=VectorFieldBounds(
                region=Box([-50.0], [50.0]),
                f_range=Box([-10.0], [10.0]),
                G_range=Box([[0.0]], [[0.0]]),
            )
        )
        # samples of xdot = 2 sin(x): Lipschitz constant 2
        xs = np.linspace(-2, 2, 9)
        traj = [Sample([x], [2 * math.sin(x)], [0.0]) for x in xs]
        kb = build_knowledge(traj, lip, side)
        limit = max_step_size(lip, Box([0.0], [0.0]))
        dt = 0.99 * limit
        R = Box([0.2], [0.3])
        S = datareach_step(R, kb, ConstantControl([0.0]), 0.0, dt).S
        assert np.isfinite(S.lo).all() and np.isfinite(S.hi).all()
        # Monte-Carlo trajectories of the true field must stay inside S
        rng = np.random.default_rng(0)
        for _ in range(200)	:
            x = rng.uniform(0.2, 0.3)
            h = dt / 50
            for _ in range(50):
                x = x + h * 2 * math.sin(x)  # Euler fine-steps suffice here
                assert S[0].lo - 1e-6 <= x <= S[0].hi + 1e-6

    def test_explicit_rejects_large_step(self):
        kb = constant_f_kb(1.0, L_f=2.0)  # step limit 1 / (1 * 2) = 0.5
        with pytest.raises(StepTooLarge):
            datareach_step(Box([0.0], [0.0]), kb, ConstantControl([0.0]), 0.0, 1.0)


class TestReachSteps:
    def test_exact_integrator_step(self):
        kb = exact_integrator_kb()
        rec = datareach_step(
            Box([0.0], [0.0]), kb, ConstantControl([2.0]), 0.0, 0.1
        )
        assert rec.R_next[0].lo == pytest.approx(0.2, abs=1e-9)
        assert rec.R_next[0].hi == pytest.approx(0.2, abs=1e-9)

    def test_constant_control_kills_derivative_term(self):
        kb = exact_integrator_kb()
        ctrl = ConstantControl([2.0])
        assert ctrl.eval_deriv_range(0.0, 0.1).mag.max() == 0.0
        rec = datareach_step(Box([0.0], [0.0]), kb, ctrl, 0.0, 0.1)
        # with a zero-derivative control the step is first-order exact
        assert rec.R_next.width[0] <= 1e-9

    def test_c0_step_exact_integrator(self):
        kb = exact_integrator_kb()
        rec = datareach_step(Box([0.0], [0.0]), kb, RangeOnly([2.0]), 0.0, 0.1)
        assert rec.R_next[0].lo == pytest.approx(0.2, abs=1e-9)
        assert rec.R_next[0].hi == pytest.approx(0.2, abs=1e-9)

    @pytest.mark.parametrize("key, value", [
        ("t", math.nan), ("t", math.inf), ("t", -math.inf),
        ("dt", math.nan), ("dt", math.inf), ("dt", -math.inf), ("dt", 0.0), ("dt", -0.1),
    ])
    def test_step_time_validated(self, key, value):
        """A non-finite t, or a dt that is not positive and finite, is
        rejected before the control family is asked for anything."""
        class Untouched(ControlClass):
            def eval_range(self, t0, t1):
                pytest.fail("evaluated")

        times = {"t": 0.0, "dt": 0.1, key: value}
        with pytest.raises(ValueError, match=f"^{key} must be"):
            datareach_step(Box([0.0], [0.0]), exact_integrator_kb(), Untouched(),
                           times["t"], times["dt"])

    def test_c0_tube_wider_than_second_order(self, unicycle_fig_setup):
        """The first-order step compounds into a strictly coarser tube."""
        sysu, _, kb, x_start = unicycle_fig_setup
        ctrl1 = ConstCosControl(t_ref=T_REF, a1=Interval(-0.1, 0.1),
                                a2=Interval(-0.01, 0.01))
        ctrl0 = FirstOrderCos(t_ref=T_REF, a1=Interval(-0.1, 0.1), a2=Interval(-0.01, 0.01))
        tube1 = datareach(kb, x_start, ctrl1, 0.02, 50, t0=T_REF)
        tube0 = datareach(kb, x_start, ctrl0, 0.02, 50, t0=T_REF)
        assert tube0.failure is None and tube1.failure is None
        assert np.all(tube0.terminal_width() >= tube1.terminal_width())

    @pytest.mark.parametrize("dt", [0.5, 1.0, 2.0, 10.0])
    def test_piecewise_derivative_bound_only_inside_a_piece(self, dt):
        """A step that ends or starts on a switch lies in one piece, for
        pieces shorter and longer than 1 s; step times are in pieces."""
        ctrl = PiecewiseConstantControl([[0.0], [2.0]], dt=dt)
        for t0, t1 in ((0.2, 0.8), (0.5, 1.0), (1.0, 1.5), (1.5, 6.0), (0.6, 0.6)):
            assert ctrl.eval_deriv_range(t0 * dt, t1 * dt).mag.max() == 0.0
            assert ctrl.eval_range(t0 * dt, t1 * dt).width.max() == 0.0
        assert ctrl.eval_deriv_range(0.5 * dt, 1.5 * dt) is None

    def test_step_too_large(self, unicycle_fig_setup):
        sysu, _, kb, x_start = unicycle_fig_setup
        ctrl = ConstantControl([3.0, math.pi])
        with pytest.raises(StepTooLarge):
            datareach_step(Box.point(x_start), kb, ctrl, 0.0, 0.2)


class TestDataReachTube:
    def test_zero_steps_gives_seed_box(self):
        kb = exact_integrator_kb()
        tube = datareach(kb, np.array([0.3]), ConstantControl([1.0]), 0.1, 0)
        assert len(tube.steps) == 1
        assert tube.steps[0].R[0].lo == pytest.approx(0.3)
        assert tube.failure is None

    def test_step_count_validated(self):
        kb = exact_integrator_kb()
        for T in (2.5, -1, "3"):
            with pytest.raises(ValueError, match="^T must"):
                datareach(kb, np.array([0.3]), ConstantControl([1.0]), 0.1, T)
        for T, rows in ((0, 1), (2.0, 3)):
            tube = datareach(kb, np.array([0.3]), ConstantControl([1.0]), 0.1, T)
            assert len(tube.steps) == rows and tube.failure is None

    def test_dt_and_start_validated(self, unicycle_fig_setup):
        sysu, _, kb, x_start = unicycle_fig_setup
        ctrl = ConstantControl([1.0, 0.0])
        for dt in (-0.01, math.nan, 0.0, math.inf):
            with pytest.raises(ValueError, match="^dt must be positive and finite"):
                datareach(kb, x_start, ctrl, dt, 5)
        for x in (x_start[:2], np.append(x_start, 0.0)):
            with pytest.raises(ValueError, match="^x_start must have 3 entries"):
                datareach(kb, x, ctrl, 0.02, 5)
        widths = r"^control family gives controls of shape \(\d,\), the knowledge base needs \(2,\)$"
        for bad in (ConstantControl([1.0]), PiecewiseConstantControl(np.ones((2, 3)), 0.5)):
            with pytest.raises(ValueError, match=widths):
                datareach(kb, x_start, bad, 0.02, 5)

    @pytest.mark.parametrize("t0", [math.nan, math.inf, -math.inf])
    def test_start_time_validated(self, unicycle_fig_setup, monkeypatch, t0):
        """A non-finite t0 is rejected before any step, not stamped on a tube."""
        from datareach import reach

        _, _, kb, x_start = unicycle_fig_setup
        monkeypatch.setattr(reach, "datareach_step", lambda *a, **k: pytest.fail("stepped"))
        with pytest.raises(ValueError, match="^t0 must be finite"):
            datareach(kb, x_start, ConstantControl([1.0, 0.0]), 0.05, 3, t0=t0)

    @pytest.mark.parametrize("period", [0.05, 0.03])
    def test_piecewise_switches_contained(self, unicycle_fig_setup, period):
        """Each grid box contains the trajectory that switches inside the
        steps, with no tolerance; the plant's RK4 runs at h <= 1e-4 and
        switches exactly at the piece boundaries."""
        sysu, _, kb, x_start = unicycle_fig_setup
        dt, T = 0.02, 40
        ctrl = alternating_turns(period, T * dt)
        tube = datareach(kb, x_start, ctrl, dt, T, t0=T_REF, domain=sysu.X)
        assert tube.failure is None
        x, t = x_start, T_REF
        for i, rec in enumerate(tube.steps):
            assert np.all(rec.R.lo <= x) and np.all(x <= rec.R.hi), i
            t_next = T_REF + (i + 1) * dt
            while t < t_next:
                k = int(math.floor((t - T_REF) / period + 1e-9))
                t_end = min(T_REF + (k + 1) * period, t_next)
                x = advance(sysu, x, ctrl.values[k], t_end - t,
                            max(1, math.ceil((t_end - t) / 1e-4)))
                t = t_end

    def test_truncates_on_failure(self, unicycle_fig_setup):
        sysu, _, kb, x_start = unicycle_fig_setup
        # control range grows over time until the step bound is violated
        class GrowingControl(ConstantControl):
            def eval_range(self, t0, t1):
                w = min(3.0 + 30.0 * t0, 80.0)
                return Box([-w, -w], [w, w])

        ctrl = GrowingControl([0.5, 0.0])
        tube = datareach(kb, x_start, ctrl, 0.02, 100, t0=0.0)
        assert tube.failure is not None and "StepTooLarge" in tube.failure
        assert len(tube.steps) < 101

    def test_nominal_containment_short(self, unicycle_fig_setup):
        sysu, _, kb, x_start = unicycle_fig_setup
        ctrl = ConstCosControl(t_ref=T_REF, a1=Interval(-0.1, 0.1),
                               a2=Interval(-0.01, 0.01))
        T = 50
        tube = datareach(kb, x_start, ctrl, 0.02, T, t0=T_REF, domain=sysu.X)
        assert tube.failure is None
        rng = np.random.default_rng(1)
        fan = mc_unicycle_rollout(x_start, 64, T, 0.02, T_REF, rng)
        for i, rec in enumerate(tube.steps):
            assert np.all(rec.R.lo[None, :] - 1e-9 <= fan[i])
            assert np.all(fan[i] <= rec.R.hi[None, :] + 1e-9)

    def test_records_satisfy_invariant(self, unicycle_fig_setup):
        sysu, _, kb, x_start = unicycle_fig_setup
        ctrl = ConstCosControl(t_ref=T_REF, a1=Interval(-0.1, 0.1),
                               a2=Interval(-0.01, 0.01))
        tube = datareach(kb, x_start, ctrl, 0.02, 30, t0=T_REF)
        for rec in tube.steps:
            assert rec.S.encloses(rec.R, atol=1e-12)

    def test_dt_refinement_sanity(self, unicycle_fig_setup):
        """Halving dt over the same horizon must not blow up the terminal width."""
        sysu, _, kb, x_start = unicycle_fig_setup
        ctrl = ConstCosControl(t_ref=T_REF, a1=Interval(-0.1, 0.1),
                               a2=Interval(-0.01, 0.01))
        horizon = 1.0
        tube_coarse = datareach(kb, x_start, ctrl, 0.02, int(horizon / 0.02), t0=T_REF)
        tube_fine = datareach(kb, x_start, ctrl, 0.01, int(horizon / 0.01), t0=T_REF)
        wc = tube_coarse.terminal_width()
        wf = tube_fine.terminal_width()
        assert np.all(wf <= 1.05 * wc + 1e-12)


def _assert_clip_record(tube, kb, ctrl, domain):
    """Each step's `clipped` says whether its box, propagated again without
    the domain, leaves the domain, and the record holds that box cut to the
    domain."""
    for rec in tube.steps[:-1]:
        raw = datareach_step(rec.R, kb, ctrl, rec.t, tube.dt).R_next
        leaves = not domain.encloses(raw)
        assert rec.clipped == leaves
        assert rec.R_next == (meet(raw, domain) if leaves else raw)
    assert not tube.steps[-1].clipped
    assert tube.clipped == [i for i, rec in enumerate(tube.steps) if rec.clipped]


class TestDomainClips:
    def test_quadrotor_default_tube(self):
        tube, kb, ctrl = quadrotor_default_tube()
        assert tube.failure is None and len(tube.clipped) > 0
        _assert_clip_record(tube, kb, ctrl, quadrotor().X)

    @pytest.mark.parametrize("setting, clips", [("lipschitz_only", True), ("decoupled", False)])
    def test_figure_tubes(self, unicycle_fig_setup, setting, clips):
        """The figure's lipschitz_only tube runs into the domain; the
        decoupled one stays inside it."""
        from datareach.systems import unicycle_knowledge_settings

        sysu, samples, _, x_start = unicycle_fig_setup
        kb = build_knowledge(samples, sysu.lip, unicycle_knowledge_settings()[setting])
        ctrl = ConstCosControl(t_ref=T_REF, a1=Interval(-0.1, 0.1), a2=Interval(-0.01, 0.01))
        tube = datareach(kb, x_start, ctrl, 0.02, 200, t0=T_REF, domain=sysu.X)
        assert tube.failure is None and bool(tube.clipped) == clips
        _assert_clip_record(tube, kb, ctrl, sysu.X)

    def test_no_domain_no_clips(self, unicycle_fig_setup):
        sysu, _, kb, x_start = unicycle_fig_setup
        ctrl = ConstCosControl(t_ref=T_REF)
        tube = datareach(kb, x_start, ctrl, 0.02, 20, t0=T_REF)
        assert tube.clipped == []


class TestControlFamilies:
    def test_cos_range_covers_truth(self):
        ctrl = ConstCosControl(t_ref=0.0, a1=Interval(0.0), a2=Interval(0.0))
        rng = np.random.default_rng(3)
        for _ in range(200):
            t0 = rng.uniform(0, 4)
            t1 = t0 + rng.uniform(0, 2)
            box = ctrl.eval_range(t0, t1)
            dbox = ctrl.eval_deriv_range(t0, t1)
            for t in np.linspace(t0, t1, 25):
                u = ctrl.eval_point(t)
                assert box.encloses(u, atol=1e-12)
                d = -6.0 * math.sin(6.0 * t)
                assert dbox[1].lo - 1e-12 <= d <= dbox[1].hi + 1e-12

    @pytest.mark.parametrize("u", [[math.inf, 0.0], [0.0, -math.inf],
                                   Box([0.0, -math.inf], [1.0, 0.0])])
    def test_constant_control_must_be_finite(self, u):
        with pytest.raises(ValueError, match="^u must be finite"):
            ConstantControl(u)

    def test_piecewise_constant_range(self):
        ctrl = PiecewiseConstantControl([[0.0], [2.0], [-1.0]], dt=1.0)
        assert ctrl.eval_point(1.5)[0].lo == 2.0
        box = ctrl.eval_range(0.5, 2.5)
        assert box[0].lo == -1.0 and box[0].hi == 2.0

    @pytest.mark.parametrize("values, dt, t0, message", [
        ([0.0, 2.0], 1.0, 0.0, "values must"),
        ([[[0.0]]], 1.0, 0.0, "values must"),
        (np.zeros((0, 2)), 1.0, 0.0, "values must"),
        ([[0.0], [math.nan]], 1.0, 0.0, "values must"),
        ([[math.inf]], 1.0, 0.0, "values must"),
        ([[0.0]], 0.0, 0.0, "dt must"),
        ([[0.0]], -0.1, 0.0, "dt must"),
        ([[0.0]], math.inf, 0.0, "dt must"),
        ([[0.0]], math.nan, 0.0, "dt must"),
        ([[0.0]], 1.0, math.nan, "t0 must"),
        ([[0.0]], 1.0, -math.inf, "t0 must"),
    ], ids=["1d", "3d", "empty", "nan_value", "inf_value", "dt_zero", "dt_negative",
            "dt_inf", "dt_nan", "t0_nan", "t0_inf"])
    def test_piecewise_constant_validated(self, values, dt, t0, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            PiecewiseConstantControl(values, dt=dt, t0=t0)

    def test_point_inside_range(self, unicycle_fig_setup):
        ctrl = ConstCosControl(t_ref=T_REF, a1=Interval(-0.1, 0.1),
                               a2=Interval(-0.01, 0.01))
        for t in np.linspace(T_REF, T_REF + 2, 50):
            assert ctrl.eval_range(t, t).encloses(ctrl.eval_point(t), atol=1e-12)


class TestAlgebraicContractorHook:
    """The user-supplied constraint hook tightens enclosures along the pipeline."""

    def test_hook_is_called_and_tightens(self, unicycle_fig_setup):
        from dataclasses import replace

        from datareach.knowledge import build_knowledge

        sysu, samples, kb_plain, x_start = unicycle_fig_setup
        calls = []

        def circle_contractor(box, ubox, f_enc, G_enc, Jf, JG):
            # speed columns of G are a direction vector: |G_{k,1}| <= 1
            calls.append((len(box), len(ubox)))
            lo = np.array(G_enc.lo)
            hi = np.array(G_enc.hi)
            lo[:2, 0] = np.maximum(lo[:2, 0], -1.0)
            hi[:2, 0] = np.minimum(hi[:2, 0], 1.0)
            return f_enc, Box(lo, hi), Jf, JG

        side_hook = replace(sysu.side, algebraic_contractor=circle_contractor)
        kb_hook = build_knowledge(samples, sysu.lip, side_hook)
        ctrl = ConstCosControl(t_ref=T_REF, a1=Interval(-0.1, 0.1),
                               a2=Interval(-0.01, 0.01))
        tube_plain = datareach(kb_plain, x_start, ctrl, 0.02, 60, t0=T_REF)
        tube_hook = datareach(kb_hook, x_start, ctrl, 0.02, 60, t0=T_REF)
        assert calls, "contractor hook never invoked"
        assert all(n == 3 and m == 2 for n, m in calls)
        assert np.all(tube_hook.terminal_width() <= tube_plain.terminal_width() + 1e-12)

    def test_hook_used_by_linearize(self):
        from dataclasses import replace

        from datareach.control import linearize
        from datareach.knowledge import build_knowledge

        sysu = unicycle()
        samples = excite(sysu, 10, seed=2, dt=0.1, x0=[-2.0, -2.5, math.pi / 2])
        seen = []

        def spy(box, ubox, f_enc, G_enc, Jf, JG):
            seen.append(Jf is not None)
            return f_enc, G_enc, Jf, JG

        side = replace(sysu.side, algebraic_contractor=spy)
        kb = build_knowledge(samples, sysu.lip, side)
        linearize(Box.point(samples[0].x), kb, sysu.U, 0.1)
        # called once without Jacobians (state box) and once with (enclosure box)
        assert True in seen and False in seen
