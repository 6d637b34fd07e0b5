"""The reach / linearize step pipeline against the Box-composed step it replaced.

The reference below composes one step from validated `Box` objects, one per
intermediate result, with its own copies of the box queries, the Jacobian
bands and the interval kernels.  The pipeline (`reach._step_data` and its
three callers) runs on lo/hi arrays and must reproduce the reference bit for
bit.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import T_REF, FirstOrderCos, alternating_turns
from datareach.control import linearize
from datareach.errors import EmptyIntersection, StepTooLarge
from datareach.intervals import Box, Interval
from datareach.knowledge import (
    GradientBounds,
    LipschitzBounds,
    Sample,
    SideInfoSet,
    _jacobian_pairs,
    append_sample,
    build_knowledge,
)
from datareach.reach import (
    ConstCosControl,
    beta_of,
    datareach,
    datareach_step,
)
from datareach.systems import (
    by_name,
    excite,
    experiment_for,
    unicycle_knowledge_settings,
)

MEET_TOL, PAD = 1e-8, 1e-14  # the knowledge base's settle tolerance and pad
DT = 0.02


# ---------------------------------------------------------------------------
# reference: the step composed from Boxes
# ---------------------------------------------------------------------------

def _prod_sum(alo, ahi, blo, bhi):
    p = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
    lo = np.minimum(np.minimum(p[0], p[1]), np.minimum(p[2], p[3]))
    hi = np.maximum(np.maximum(p[0], p[1]), np.maximum(p[2], p[3]))
    return Box(lo.sum(axis=1), hi.sum(axis=1))


def add(a, b):
    return Box(a.lo + b.lo, a.hi + b.hi)


def scale(a, c):
    lo, hi = a.lo * c, a.hi * c
    return Box(np.minimum(lo, hi), np.maximum(lo, hi))


def mat_vec(M, v):
    return _prod_sum(M.lo, M.hi, v.lo[None, :], v.hi[None, :])


def mat_mat(A, B):
    return _prod_sum(A.lo[:, :, None], A.hi[:, :, None], B.lo[None], B.hi[None])


def tensor_vec(J, v):
    """Contraction over the middle axis (of J or of its transpose)."""
    return _prod_sum(J.lo, J.hi, v.lo[None, :, None], v.hi[None, :, None])


def transpose(J):
    return Box(np.transpose(J.lo, (0, 2, 1)), np.transpose(J.hi, (0, 2, 1)))


def meet(alo, ahi, blo, bhi):
    lo, hi = np.maximum(alo, blo), np.minimum(ahi, bhi)
    gap = lo - hi
    if np.any(gap > 0.0):
        assert not np.any(gap > MEET_TOL * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi))))
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    margin = PAD * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
    return Box(lo - margin, hi + margin)


def query(kb, X, part):
    """f_over_iv ("f") or G_over_iv ("G"), one component's distance at a time."""
    n, m = kb.n, kb.m
    far = np.maximum(np.abs(X.lo[None, :] - kb.xs), np.abs(X.hi[None, :] - kb.xs))
    dec = kb.side.decoupling
    if part == "f":
        masks = dec.f_depends if dec is not None else np.ones((n, n), bool)
        L, clo, chi, shape = kb.lip.L_f, kb.cf_lo, kb.cf_hi, (n,)
    else:
        masks = dec.G_depends if dec is not None else np.ones((n, m, n), bool)
        L, clo, chi, shape = kb.lip.L_G, kb.cg_lo, kb.cg_hi, (n, m)
    dist = np.empty((kb.xs.shape[0],) + shape)
    for idx in np.ndindex(*shape):
        dist[(slice(None),) + idx] = np.sqrt((far[:, masks[idx]] ** 2).sum(axis=-1))
    slack = L * dist
    lo, hi = (clo - slack).max(axis=0), (chi + slack).min(axis=0)
    enc = meet(lo, hi, lo, hi)
    pd, vb = kb.side.partial_dynamics, kb.side.vf_bounds
    if pd is not None:
        enc = add(enc, pd.f_known_iv(X) if part == "f" else pd.G_known_iv(X))
    if vb is not None and vb.region.encloses(X):
        rng = vb.f_range if part == "f" else vb.G_range
        enc = meet(enc.lo, enc.hi, rng.lo, rng.hi)
    return enc


def jacobians(kb, S):
    n = kb.n
    jf_hi = np.repeat(kb.lip.L_f[:, None], n, axis=1)
    jg_hi = np.repeat(kb.lip.L_G[:, :, None], n, axis=2)
    dec = kb.side.decoupling
    if dec is not None:
        jf_hi = np.where(dec.f_depends, jf_hi, 0.0)
        jg_hi = np.where(dec.G_depends, jg_hi, 0.0)
    Jf, JG = Box(-jf_hi, jf_hi), Box(-jg_hi, jg_hi)
    pd = kb.side.partial_dynamics
    if pd is not None:
        Jf, JG = add(pd.jac_f_known_iv(S), Jf), add(pd.jac_G_known_iv(S), JG)
    return Jf, JG


def ref_step_data(R, kb, V, dt):
    n = len(R)
    beta = beta_of(kb.lip_total, V.mag)
    if math.sqrt(n) * beta * dt >= 1.0:
        raise StepTooLarge(dt, 1.0 / (math.sqrt(n) * beta))
    fR, GR = query(kb, R, "f"), query(kb, R, "G")
    hook = kb.side.algebraic_contractor
    if hook is not None:
        fR, GR, _, _ = hook(R, V, fR, GR, None, None)
    hV = add(fR, mat_vec(GR, V))
    alpha = float(np.max(hV.mag))
    c = dt * alpha / (1.0 - math.sqrt(n) * dt * beta)
    S = Box(R.lo - c, R.hi + c)
    fS, GS = query(kb, S, "f"), query(kb, S, "G")
    Jf, JG = jacobians(kb, S)
    if hook is not None:
        fS, GS, Jf, JG = hook(S, V, fS, GS, Jf, JG)
    return beta, alpha, S, fR, GR, fS, GS, Jf, JG


def ref_reach_step(R, kb, ctrl, t, dt, domain):
    """(beta, alpha, S, R_next) of the second-order step, or of the first-order one
    when the family has no derivative bound on the step."""
    V = ctrl.eval_range(t, t + dt)
    V1 = ctrl.eval_deriv_range(t, t + dt)
    beta, alpha, S, fR, GR, fS, GS, Jf, JG = ref_step_data(R, kb, V, dt)
    if V1 is None:
        Rn = add(R, scale(add(fS, mat_vec(GS, V)), dt))
    else:
        half_dt2 = 0.5 * dt * dt
        hx = add(fR, mat_vec(GR, ctrl.eval_point(t)))
        hS = add(fS, mat_vec(GS, V))
        M2 = add(Jf, tensor_vec(JG, V))
        Rn = add(R, scale(hx, dt))
        Rn = add(Rn, scale(mat_vec(M2, hS), half_dt2))
        Rn = add(Rn, scale(mat_vec(GS, V1), half_dt2))
    if domain is not None:
        Rn = Rn.intersect(domain)
    return beta, alpha, S, Rn


def ref_linearize(R, kb, U, dt):
    _, _, _, fR, GR, fS, GS, Jf, JG = ref_step_data(R, kb, U, dt)
    half_dt2 = 0.5 * dt * dt
    JGt = transpose(JG)
    B = add(add(R, scale(fR, dt)), scale(mat_vec(Jf, fS), half_dt2))
    Aplus = add(scale(GR, dt), scale(
        add(mat_mat(add(Jf, tensor_vec(JG, U)), GS), tensor_vec(JGt, fS)), half_dt2))
    Aminus = add(scale(GR, dt), scale(
        add(mat_mat(Jf, GS), tensor_vec(JGt, add(fS, mat_vec(GS, U)))), half_dt2))
    return B, Aplus, Aminus


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------

def assert_same_box(a, b):
    assert np.array_equal(a.lo, b.lo) and np.array_equal(a.hi, b.hi)


def assert_tube_matches(kb, x_start, ctrl, T, domain):
    tube = datareach(kb, x_start, ctrl, DT, T, t0=T_REF, domain=domain)
    assert tube.failure is None and len(tube.steps) == T + 1
    for rec in tube.steps[:-1]:
        beta, alpha, S, Rn = ref_reach_step(rec.R, kb, ctrl, rec.t, DT, domain)
        assert (rec.beta, rec.alpha_norm) == (beta, alpha)
        assert_same_box(rec.S, S)
        assert_same_box(rec.R_next, Rn)
    return tube


def assert_linearize_matches(kb, states, U, dt):
    for x in states:
        R = Box.point(x)
        aff = linearize(R, kb, U, dt)
        for got, want in zip((aff.B, aff.Aplus, aff.Aminus), ref_linearize(R, kb, U, dt)):
            assert_same_box(got, want)


def fig_control(family=ConstCosControl):
    return family(t_ref=T_REF, a1=Interval(-0.1, 0.1), a2=Interval(-0.01, 0.01))


@pytest.fixture(scope="module")
def loop_bases():
    """Each closed-loop system with its preset, a 150-sample base and 30 states."""
    out = {}
    for name in ("unicycle", "quadrotor", "aircraft"):
        sys_, exp = by_name(name), experiment_for(name)
        samples = excite(sys_, 150, seed=exp.seed, dt=exp.dt, x0=exp.x0)
        kb = build_knowledge(samples, sys_.lip, sys_.side)
        out[name] = (sys_, exp, kb, [s.x for s in samples[::5]])
    return out


class TestMatchesBoxComposedStep:
    @pytest.mark.parametrize("setting", ["lipschitz_only", "decoupled", "decoupled_bounds"])
    def test_tube_fig_settings(self, unicycle_fig_setup, setting):
        sysu, samples, _, x_start = unicycle_fig_setup
        kb = build_knowledge(samples, sysu.lip, unicycle_knowledge_settings()[setting])
        assert_tube_matches(kb, x_start, fig_control(), 200, sysu.X)

    @pytest.mark.parametrize("name", ["unicycle", "quadrotor", "aircraft"])
    def test_linearize_at_n150(self, loop_bases, name):
        sys_, exp, kb, states = loop_bases[name]
        assert kb.xs.shape[0] == 151 and len(states) == 30
        assert_linearize_matches(kb, states, sys_.U, exp.dt)

    def test_first_order_step(self, unicycle_fig_setup):
        sysu, _, kb, x_start = unicycle_fig_setup
        assert_tube_matches(kb, x_start, fig_control(FirstOrderCos), 100, sysu.X)

    @pytest.mark.parametrize("period, second_order", [
        (2 * DT, True), (DT, True), (0.05, False), (0.03, False)])
    def test_piecewise_switches(self, unicycle_fig_setup, period, second_order):
        """A switch on the grid leaves every step second order; a switch inside
        a step makes that step first order.  Every step matches the reference."""
        sysu, _, kb, x_start = unicycle_fig_setup
        ctrl = alternating_turns(period, 40 * DT)
        tube = assert_tube_matches(kb, x_start, ctrl, 40, sysu.X)
        bounded = [ctrl.eval_deriv_range(rec.t, rec.t + DT) is not None
                   for rec in tube.steps[:-1]]
        assert all(bounded) if second_order else not all(bounded)

    def test_contractor_hook(self, unicycle_fig_setup):
        sysu, samples, _, x_start = unicycle_fig_setup
        calls = []

        def unit_speed_columns(box, ubox, f_enc, G_enc, Jf, JG):
            calls.append(Jf is None)
            lo, hi = np.array(G_enc.lo), np.array(G_enc.hi)
            lo[:2, 0] = np.maximum(lo[:2, 0], -1.0)
            hi[:2, 0] = np.minimum(hi[:2, 0], 1.0)
            if Jf is not None:
                Jf = Box(Jf.lo * 0.5, Jf.hi * 0.5)
            return f_enc, Box(lo, hi), Jf, JG

        side = replace(sysu.side, algebraic_contractor=unit_speed_columns)
        kb = build_knowledge(samples, sysu.lip, side)
        assert_tube_matches(kb, x_start, fig_control(), 60, sysu.X)
        assert_tube_matches(kb, x_start, fig_control(FirstOrderCos), 20, None)
        assert_linearize_matches(kb, [s.x for s in samples], sysu.U, 0.1)
        assert True in calls and False in calls


class TestStepChecks:
    @pytest.mark.parametrize("end", ["lo", "hi"])
    @pytest.mark.parametrize("step", ["second_order", "first_order", "linearize"])
    def test_infinite_heading_is_a_nan_error(self, unicycle_fig_setup, end, step):
        sysu, _, kb, x_start = unicycle_fig_setup
        lo, hi = x_start.copy(), x_start.copy()
        if end == "lo":
            lo[2] = -np.inf
        else:
            hi[2] = np.inf
        R = Box(lo, hi)
        calls = {
            "second_order": lambda: datareach_step(R, kb, fig_control(), T_REF, DT),
            "first_order": lambda: datareach_step(R, kb, fig_control(FirstOrderCos), T_REF, DT),
            "linearize": lambda: linearize(R, kb, sysu.U, DT),
        }
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match="interval endpoints must not be NaN"):
                calls[step]()

    def test_domain_intersection_still_raises(self, unicycle_fig_setup):
        sysu, _, kb, x_start = unicycle_fig_setup
        far_away = Box(x_start + 10.0, x_start + 11.0)
        with pytest.raises(EmptyIntersection):
            datareach_step(Box.point(x_start), kb, fig_control(), T_REF, DT, domain=far_away)

    def test_gradient_contradiction_raises_from_every_call(self):
        lip = LipschitzBounds([1.0], [[0.0]])
        side = SideInfoSet(grad_bounds=GradientBounds(f={(0, 0): Interval(2.0, 3.0)}))
        kb = build_knowledge([Sample([0.0], [0.0], [0.0])], lip, side)
        for _ in range(2):
            with pytest.raises(EmptyIntersection, match="gradient bounds contradict"):
                _jacobian_pairs(kb)
        with pytest.raises(EmptyIntersection, match="gradient bounds contradict"):
            linearize(Box.point([0.0]), kb, Box([-1.0], [1.0]), 0.1)

    def test_bands_shared_by_derived_bases(self, unicycle_fig_setup):
        sysu, samples, kb, _ = unicycle_fig_setup
        kb2 = append_sample(kb, samples[0])
        Jf, JG = _jacobian_pairs(kb2)
        assert np.array_equal(Jf[0], jacobians(kb, None)[0].lo)
        assert kb2._groups.jacobian_bands() is kb._groups.jacobian_bands()
