"""The input rule that every exported entry point keeps.

Every callable that `datareach/__init__.py` exports does one of two things
with a bad numeric input:

- it raises a ValueError or a DataReachError whose message names the
  offending parameter;
- or it returns a result with no NaN, and with no infinity when every input
  was finite, and emits no RuntimeWarning.

Python float arithmetic overflows to inf without a warning, so an infinite
result from finite inputs counts as a failure too.

`TABLE` holds each exported callable with the domain of each numeric
parameter (its "knobs"); a knob may also be a field of a record the call
builds, such as a Lipschitz bound or a sample's state.  Hypothesis draws
one bad value at a time into one knob, the others staying at a valid base:
NaN, +-inf, 0, -1, 1e308 and True for every number, 2.5 for a whole number,
one bad entry or a wrong shape for an array.  A whole number is never drawn
at 1e308: that is a valid request for 1e308 iterations or samples, a run
that never ends.  `Box` checks its own endpoints for NaN and order (the
`Box` row) but takes any magnitude, so a `Box` argument (`BoxArg`) is drawn
with one endpoint at +-1e308 or +-inf; a knob that must be a `Box` of one
shape (`BoxShape`) is drawn at another shape or as a bare (lo, hi) pair.
Records that only the library builds are in `OUTPUTS`, and input records
with no checks of their own in `RECORDS`, with the entry point that checks
them.
"""

import dataclasses
import functools
import math
import re
import warnings
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import datareach
from conftest import exported
from datareach import (
    Box, ConstantControl, ConstCosControl, DataReachError, Interval, KnowledgeBase,
    LipschitzBounds, PartialDynamics, PiecewiseConstantControl, QPOptions, QuadraticCost,
    Sample, BoxQP, advance, append_sample, assemble_idealistic, assemble_optimistic,
    aircraft, beta_of, build_knowledge, by_name, datacontrol_step, datareach as tube,
    datareach_step, excite, experiment_for, f_over, f_over_iv, G_over, G_over_iv,
    idealistic_coeffs, imat_vec, linearize, max_step_size, meet, norm_cost, oracle_boxqp,
    quadrotor, rebuild, run_closed_loop, setpoint_cost, solve_idealistic, solve_optimistic,
    subopt_bound, unicycle, unicycle_knowledge_settings,
)
from datareach.systems import unicycle_experiment


class Num(NamedTuple):
    """A scalar knob: its domain and a valid base value."""

    domain: str
    base: object


class Count(NamedTuple):
    """A whole-number knob of at least `least`; like every domain here, the
    bound documents the knob, and the draws are the same for every count."""

    least: int
    base: int


class Arr(NamedTuple):
    """An array knob: its domain (shape included) and a valid base value."""

    domain: str
    base: object


class BoxArg(NamedTuple):
    """A `Box` knob: its domain and the (lo, hi) of a valid base box."""

    domain: str
    base: tuple


class BoxShape(NamedTuple):
    """A knob that must be a `Box` of one shape: its domain and a valid base box."""

    domain: str
    base: Box


class Choice(NamedTuple):
    """A knob naming one of a fixed set of strings."""

    domain: str
    base: str


class Row(NamedTuple):
    """An exported callable: ``call(**knobs)`` runs it; ``names`` gives the
    other words a message may use for a knob (the parameter a field belongs
    to, or the name its message has always used)."""

    call: Callable
    knobs: dict
    names: dict = {}


@functools.cache
def base():
    """A unicycle knowledge base from six excitation samples, a state one
    step after them, its linearization and the norm cost."""
    sysu = unicycle()
    samples = excite(sysu, 6, seed=2, dt=0.1, x0=[-2.0, -2.5, math.pi / 2])
    kb = build_knowledge(samples, sysu.lip, sysu.side)
    x = advance(sysu, samples[-1].x, samples[-1].u, 0.1)
    aff = linearize(Box.point(x), kb, sysu.U, 0.05)
    return SimpleNamespace(sys=sysu, samples=samples, kb=kb, x=x, aff=aff,
                           cost=norm_cost(3, 2), u=np.array([1.0, 0.5]))


def fig_control():
    return ConstCosControl(t_ref=1.5, a1=Interval(-0.1, 0.1), a2=Interval(-0.01, 0.01))


def with_sample(i, x, u):
    """The base samples with sample i's state and control replaced."""
    samples = list(base().samples)
    s = samples[i]
    samples[i] = Sample(x, s.xdot, u, s.t)
    return samples


def next_sample(x, u):
    b = base()
    return Sample(x, b.sys.h_true(b.x, b.u), u, 1.0)


def piecewise(values, dt, t0):
    ctrl = PiecewiseConstantControl(values, dt, t0)
    return ctrl, ctrl.eval_range(0.0, 1.0), ctrl.eval_point(0.3), ctrl.eval_deriv_range(0.0, 0.1)


def const_cos(v0, omega, t_ref):
    ctrl = ConstCosControl(v0, omega, t_ref, Interval(-0.1, 0.1), Interval(-0.01, 0.01))
    return ctrl, ctrl.eval_range(1.5, 1.52), ctrl.eval_point(1.5), ctrl.eval_deriv_range(1.5, 1.52)


def box_of(value):
    """The `Box` of a (lo, hi) knob value, or None."""
    return None if value is None else Box(*value)


def closed_loop(**knobs):
    """The unicycle preset for two steps with the drawn settings."""
    cfg = dataclasses.replace(unicycle_experiment(max_steps=2), **knobs)
    return run_closed_loop(unicycle(), cfg)


UNICYCLE_L_F = [0.01, 0.01, 0.01]
UNICYCLE_L_G = [[1.1, 0.0], [1.1, 0.0], [0.0, 0.1]]
STATE = Arr("finite (3,)", [-1.9, -2.4, 1.4])
CONTROL = Arr("finite (2,)", [1.0, 0.5])
WEIGHT = Num("finite, >= 0", 0.5)
ENDPOINTS = ("endpoints",)
# a box about the base state, and the unicycle's domain
NEAR_STATE = BoxArg("endpoints", (base().x - 0.1, base().x + 0.1))
DOMAIN = BoxArg("endpoints, or None", (unicycle().X.lo, unicycle().X.hi))

TABLE = {
    # intervals
    "Box": Row(Box, {"lo": Arr("endpoints, lo <= hi", [0.0, 0.0]),
                     "hi": Arr("endpoints, lo <= hi", [1.0, 1.0])},
               {"lo": ENDPOINTS, "hi": ENDPOINTS}),
    "Interval": Row(Interval, {"lo": Num("endpoint, lo <= hi", -1.0),
                               "hi": Num("endpoint, lo <= hi", 1.0)},
                    {"lo": ENDPOINTS, "hi": ENDPOINTS}),
    "imat_vec": Row(lambda v: imat_vec(Box([[0.0, 1.0], [-1.0, 2.0]], [[1.0, 2.0], [0.0, 3.0]]), v),
                    {"v": Arr("finite (2,)", [1.0, 2.0])}),
    "meet": Row(lambda tol, pad: meet(Box([0.0, 0.0], [2.0, 2.0]), Box([1.0, -1.0], [3.0, 1.0]),
                                      tol, pad),
                {"tol": Num("finite, >= 0", 0.0), "pad": Num("finite, >= 0", 1e-14)}),
    # knowledge
    "LipschitzBounds": Row(LipschitzBounds, {"L_f": Arr("finite, >= 0 (n,)", UNICYCLE_L_F),
                                             "L_G": Arr("finite, >= 0 (n, m)", UNICYCLE_L_G)}),
    "PartialDynamics": Row(lambda P: PartialDynamics(P, unicycle().lip),
                           {"P": Arr("finite (n, n)", np.eye(3))}),
    "Sample": Row(Sample, {"x": STATE, "xdot": Arr("finite, x's shape", [1.0, 0.0, 0.5]),
                           "u": CONTROL, "t": Num("finite or None", 0.5)}),
    "build_knowledge": Row(
        lambda x, u, M, fixpoint_tol, max_fixpoint_iters: build_knowledge(
            with_sample(0, x, u), unicycle().lip, unicycle().side, M, fixpoint_tol,
            max_fixpoint_iters),
        {"x": Arr("finite (n,), the first sample's state", base().samples[0].x),
         "u": Arr("finite (m,), the first sample's control", base().samples[0].u),
         "M": Num("positive", 1e3), "fixpoint_tol": Num("positive", 1e-9),
         "max_fixpoint_iters": Count(1, 50)},
        {"x": ("sample", "traj", "data"), "u": ("sample", "traj", "data")}),
    "append_sample": Row(lambda x, u: append_sample(base().kb, next_sample(x, u)),
                         {"x": Arr("finite (n,), the sample's state", base().x), "u": CONTROL},
                         {"x": ("sample",), "u": ("sample",)}),
    "rebuild": Row(lambda fixpoint_tol, max_fixpoint_iters: rebuild(
                       base().kb, fixpoint_tol, max_fixpoint_iters),
                   {"fixpoint_tol": Num("positive", 1e-9), "max_fixpoint_iters": Count(1, 50)}),
    "f_over": Row(lambda x: f_over(x, base().kb), {"x": STATE}),
    "G_over": Row(lambda x: G_over(x, base().kb), {"x": STATE}),
    "f_over_iv": Row(lambda X: f_over_iv(box_of(X), base().kb), {"X": NEAR_STATE}),
    "G_over_iv": Row(lambda X: G_over_iv(box_of(X), base().kb), {"X": NEAR_STATE}),
    # reach
    "ConstantControl": Row(ConstantControl, {"u": CONTROL}),
    "PiecewiseConstantControl": Row(piecewise, {"values": Arr("finite (k, m), k >= 1",
                                                              [[1.0, 0.0], [1.0, 0.5]]),
                                                "dt": Num("positive", 0.5),
                                                "t0": Num("finite", 0.0)}),
    "ConstCosControl": Row(const_cos, {"v0": Num("finite", 1.0), "omega": Num("finite", 6.0),
                                       "t_ref": Num("finite", 1.5)}),
    "beta_of": Row(lambda L_f, L_G, Vabs: beta_of(LipschitzBounds(L_f, L_G), Vabs),
                   {"L_f": Arr("finite, >= 0 (n,)", UNICYCLE_L_F),
                    "L_G": Arr("finite, >= 0 (n, m)", UNICYCLE_L_G),
                    "Vabs": Arr("finite, >= 0 (m,)", [3.0, math.pi])}),
    "max_step_size": Row(lambda L_f, L_G: max_step_size(LipschitzBounds(L_f, L_G), unicycle().U),
                         {"L_f": Arr("finite, >= 0 (n,)", UNICYCLE_L_F),
                          "L_G": Arr("finite, >= 0 (n, m)", UNICYCLE_L_G)}),
    "datareach_step": Row(lambda R, t, dt, domain: datareach_step(
                              box_of(R), base().kb, fig_control(), t, dt, box_of(domain)),
                          {"R": BoxArg("endpoints", (base().x, base().x)),
                           "t": Num("finite", 1.5), "dt": Num("positive", 0.02),
                           "domain": DOMAIN}),
    "datareach": Row(lambda x_start, start_box, dt, T, t0, domain: tube(
                         base().kb, x_start if start_box is None else box_of(start_box),
                         fig_control(), dt, T, t0, box_of(domain)),
                     {"x_start": STATE, "start_box": BoxArg("endpoints, or None", None),
                      "dt": Num("positive", 0.02), "T": Count(0, 3), "t0": Num("finite", 1.5),
                      "domain": DOMAIN},
                     {"start_box": ("x_start",)}),
    # control
    "QuadraticCost": Row(QuadraticCost, {"Q": Arr("finite, symmetric (n, n)", 0.5 * np.eye(3)),
                                         "R": Arr("finite, symmetric (m, m)", np.zeros((2, 2))),
                                         "S": Arr("finite (n, m)", np.zeros((3, 2))),
                                         "q": Arr("finite (n,)", np.zeros(3)),
                                         "r": Arr("finite (m,)", np.zeros(2))}),
    "setpoint_cost": Row(setpoint_cost, {"n": Count(1, 3), "m": Count(1, 2),
                                         "index": Count(0, 1), "target": Num("finite", 5.0),
                                         "weight": WEIGHT}),
    "norm_cost": Row(norm_cost, {"n": Count(1, 3), "m": Count(1, 2), "weight": WEIGHT}),
    "linearize": Row(lambda dt: linearize(Box.point(base().x), base().kb, unicycle().U, dt),
                     {"dt": Num("positive", 0.05)}),
    "idealistic_coeffs": Row(lambda wplus, wminus: idealistic_coeffs(base().aff, wplus, wminus),
                             {"wplus": Num("in [0, 1]", 0.3), "wminus": Num("in [0, 1]", 0.6)}),
    "assemble_idealistic": Row(
        lambda A_ide, b_ide: assemble_idealistic(base().cost, A_ide, b_ide, unicycle().U),
        {"A_ide": Arr("(n, m), a finite QP", idealistic_coeffs(base().aff, 0.5, 0.5)[0]),
         "b_ide": Arr("(n,), a finite QP", idealistic_coeffs(base().aff, 0.5, 0.5)[1])}),
    "assemble_optimistic": Row(lambda: assemble_optimistic(base().cost, base().aff,
                                                           unicycle().U, unicycle().X), {}),
    "subopt_bound": Row(lambda: subopt_bound(base().cost, base().aff, unicycle().U,
                                             unicycle().X), {}),
    "datacontrol_step": Row(
        lambda x, dt, mode, wplus, wminus, u_prev: datacontrol_step(
            base().kb, x, base().cost, unicycle().U, unicycle().X, dt, mode, None, wplus,
            wminus, u_prev),
        {"x": STATE, "dt": Num("positive", 0.05), "mode": Choice("idealistic, optimistic",
                                                                 "idealistic"),
         "wplus": Num("in [0, 1]", 0.3), "wminus": Num("in [0, 1]", 0.6),
         "u_prev": CONTROL}),
    # qpsolve
    "BoxQP": Row(lambda Qi, qi, pi: BoxQP(Qi, qi, Box([-1.0, -1.0], [1.0, 1.0]), pi),
                 {"Qi": Arr("finite, symmetric, PSD (m, m)", np.eye(2)),
                  "qi": Arr("finite (m,)", [1.0, -1.0]), "pi": Num("finite", 0.0)}),
    "QPOptions": Row(QPOptions, {"eps": Num("positive", 1e-8), "mu0": Num("positive", 1.0),
                                 "max_total_iters": Count(1, 500_000)}),
    "solve_idealistic": Row(lambda y0: solve_idealistic(
                                BoxQP(np.eye(2), [1.0, -1.0], Box([-1.0, -1.0], [1.0, 1.0])),
                                None, y0),
                            {"y0": Arr("finite (m,)", [0.0, 0.0])}),
    "solve_optimistic": Row(lambda: solve_optimistic(assemble_optimistic(
        base().cost, base().aff, unicycle().U, unicycle().X)), {}),
    "oracle_boxqp": Row(lambda: oracle_boxqp(
        BoxQP(np.eye(2), [1.0, -1.0], Box([-1.0, -1.0], [1.0, 1.0]))), {}),
    # systems
    "advance": Row(lambda x, u, dt, substeps: advance(unicycle(), x, u, dt, substeps),
                   {"x": STATE, "u": CONTROL, "dt": Num("positive", 0.1),
                    "substeps": Count(1, 10)}),
    "excite": Row(lambda N, seed, dt, x0, mode, substeps: excite(unicycle(), N, seed, dt, x0,
                                                                 mode, substeps),
                  {"N": Count(1, 3), "seed": Count(0, 0), "dt": Num("positive", 0.1),
                   "x0": STATE, "mode": Choice("an excitation", "mixed"),
                   "substeps": Count(1, 10)},
                  {"mode": ("excitation",)}),
    "run_closed_loop": Row(closed_loop, {
        "dt": Num("positive, below the step bound", 0.1), "init_len": Count(1, 10),
        "x0": Arr("finite (n,)", [-2.0, -2.5, math.pi / 2]),
        "stop_level": Num("finite", 0.1), "max_steps": Count(0, 2), "seed": Count(0, 4),
        "mode": Choice("idealistic, optimistic", "idealistic"),
        "excitation": Choice("an excitation", "mixed"), "eps": Num("positive", 1e-8),
        "mu0": Num("positive", 1.0),
        "weights": Arr("None, 'random' or (w+, w-) in [0, 1]", (0.5, 0.5)),
        "substeps": Count(1, 10), "M": Num("positive", 1e3),
        "cost_offset": Num("finite", 0.0)}),
    # the spec with the drawn boxes, and two excitation samples, which use both
    "SystemSpec": Row(lambda U, X: excite(dataclasses.replace(unicycle(), U=U, X=X), 2, 0),
                      {"U": BoxShape("a Box of shape (m,)", unicycle().U),
                       "X": BoxShape("a Box of shape (n,)", unicycle().X)}),
    "experiment_for": Row(experiment_for,
                          {"name": Choice("unicycle, quadrotor, aircraft", "unicycle")}),
    "unicycle": Row(unicycle, {}),
    "quadrotor": Row(quadrotor, {}),
    "aircraft": Row(aircraft, {}),
    "unicycle_knowledge_settings": Row(unicycle_knowledge_settings, {}),
    "by_name": Row(lambda: by_name("aircraft"), {}),
}

# records only the library builds: what they hold was checked on the way in
OUTPUTS = {
    "KnowledgeBase": "built by build_knowledge, append_sample and rebuild",
    "KnowledgeEntry": "built by KnowledgeBase.entries",
    "ReachStepRecord": "built by datareach_step",
    "ReachTube": "built by datareach",
    "AffineOverApprox": "built by linearize",
    "StepLog": "built by datacontrol_step",
    "OptimisticQP": "built by assemble_optimistic",
    "AdaResResult": "built by solve_idealistic",
    "RunReport": "built by run_closed_loop",
}

# input records with no checks of their own, and the entry point that checks them
RECORDS = {
    "Decoupling": "build_knowledge checks the mask shapes",
    "SideInfoSet": "build_knowledge",
    "VectorFieldBounds": "build_knowledge checks the box shapes",
    "GradientBounds": "datareach_step and linearize, where the Jacobian bands are built",
    "ExperimentConfig": "run_closed_loop (systems.check_experiment)",
    "ControlClass": "the abstract base of the control families, which have rows",
}

NUMBERS = [math.nan, math.inf, -math.inf, 0.0, -1.0, 1e308, True]
COUNTS = [math.nan, math.inf, -math.inf, 0, -1, True, 2.5]
CHOICES = ["bogus", "", None, 1, True]


def exported_callables():
    return {name for name in exported()
            if not (isinstance(getattr(datareach, name), type)
                    and issubclass(getattr(datareach, name), BaseException))}


def test_table_covers_every_export():
    listed = set(TABLE) | set(OUTPUTS) | set(RECORDS)
    assert sorted(exported_callables() - listed) == []
    assert sorted(listed - exported_callables()) == []


def _arrays(out, seen):
    """Every float array or number in a result, through its records."""
    if id(out) in seen or out is None or isinstance(out, (str, bool)) or callable(out):
        return
    seen.add(id(out))
    if isinstance(out, (int, float, np.number, np.ndarray)):
        yield np.asarray(out)
    elif isinstance(out, (Box, Interval)):
        yield from (np.asarray(out.lo), np.asarray(out.hi))
    elif isinstance(out, KnowledgeBase):
        yield from (out.xs, out.c_lo, out.c_hi)
    elif isinstance(out, (tuple, list)):
        for item in out:
            yield from _arrays(item, seen)
    elif isinstance(out, dict):
        for item in out.values():
            yield from _arrays(item, seen)
    elif dataclasses.is_dataclass(out):
        for f in dataclasses.fields(out):
            yield from _arrays(getattr(out, f.name), seen)
    elif type(out).__module__.startswith("datareach"):
        yield from _arrays(vars(out), seen)


def _names(message, words):
    return any(re.search(rf"(?<!\w){re.escape(w)}(?!\w)", message) for w in words)


def _check_rule(name, knob, value, knobs, finite_input):
    row = TABLE[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            out = row.call(**knobs)
        except (ValueError, DataReachError) as exc:
            if knob is None:
                raise
            words = (knob,) + row.names.get(knob, ())
            assert _names(str(exc), words), (
                f"{name}({knob}={value!r}) raised {type(exc).__name__}: {exc}")
            return
    for a in _arrays(out, set()):
        if a.dtype.kind in "fc":
            assert not np.isnan(a).any(), f"{name}({knob}={value!r}) returned NaN"
            assert not finite_input or np.isfinite(a).all(), (
                f"{name}({knob}={value!r}) returned inf from finite input")


def _bad_array(data, spec):
    """One bad entry, or a wrong shape, of the array knob `spec`."""
    good = np.array(spec.base, dtype=float)
    kind = data.draw(st.sampled_from(["entry", "shape"]))
    if kind == "entry":
        bad = good.copy()
        bad.flat[data.draw(st.integers(0, good.size - 1))] = data.draw(
            st.sampled_from(NUMBERS[:-1]))
        return bad
    return data.draw(st.sampled_from([
        True, 0.0, good.ravel()[:-1], np.append(good.ravel(), 0.0), good[None],
    ]))


def _bad_box(data, spec):
    """A valid (lo, hi) with one entry at +-1e308 or +-inf: a lower end
    pushed down, an upper end pushed up, or both ends moved to it.  A knob
    whose base is None starts from `NEAR_STATE`."""
    lo, hi = (np.array(a, dtype=float) for a in (spec.base or NEAR_STATE.base))
    i = data.draw(st.integers(0, lo.size - 1))
    v = data.draw(st.sampled_from([1e308, -1e308, math.inf, -math.inf]))
    if data.draw(st.booleans()):
        lo[i] = hi[i] = v
    elif v < 0:
        lo[i] = v
    else:
        hi[i] = v
    return lo, hi


def _bad_shape(data, spec):
    """The base box of the `BoxShape` knob `spec` cut, extended or lifted
    to another shape, or its bare (lo, hi) pair."""
    lo, hi = spec.base.lo, spec.base.hi
    return data.draw(st.sampled_from([
        Box(lo[:-1], hi[:-1]), Box(np.append(lo, 0.0), np.append(hi, 0.0)),
        Box(lo[None], hi[None]), Box(0.0, 0.0), (lo, hi),
    ]))


def _bad_value(data, spec):
    if isinstance(spec, BoxShape):
        return _bad_shape(data, spec)
    if isinstance(spec, BoxArg):
        return _bad_box(data, spec)
    if isinstance(spec, Arr):
        return _bad_array(data, spec)
    if isinstance(spec, Count):
        return data.draw(st.sampled_from(COUNTS))
    if isinstance(spec, Choice):
        return data.draw(st.sampled_from(CHOICES))
    return data.draw(st.sampled_from(NUMBERS))


CASES = [(name, knob) for name in sorted(TABLE) for knob in TABLE[name].knobs]


@pytest.mark.parametrize("name", sorted(TABLE))
def test_base_call_is_clean(name):
    """Each row's base values are valid: the call returns a clean result."""
    row = TABLE[name]
    _check_rule(name, None, None, {k: spec.base for k, spec in row.knobs.items()}, True)


@pytest.mark.parametrize("name, knob", CASES, ids=[f"{n}-{k}" for n, k in CASES])
@settings(max_examples=100)  # more than any knob has draws, so each draw is made
@given(data=st.data())
def test_bad_input_is_named_or_harmless(name, knob, data):
    row = TABLE[name]
    value = _bad_value(data, row.knobs[knob])
    knobs = {k: spec.base for k, spec in row.knobs.items()}
    knobs[knob] = value
    drawn = np.asarray(value)
    _check_rule(name, knob, value, knobs,
                drawn.dtype.kind not in "fc" or bool(np.isfinite(drawn).all()))


def test_setpoint_cost_names_target_and_weight():
    """Each of target and weight is in range, but the linear term
    -2 weight target they give is not: the message names both, not the
    cost's q."""
    with pytest.raises(ValueError, match=r"^target and weight must") as err:
        setpoint_cost(3, 2, 0, target=1e75, weight=1e75)
    assert "q " not in str(err.value)
    # the constant weight target^2 alone out of range
    with pytest.raises(ValueError, match=r"^target and weight must"):
        setpoint_cost(3, 2, 0, target=1e50, weight=1e-2)
