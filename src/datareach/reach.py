"""Reachable-set over-approximation over the data-driven differential inclusion.

One step propagates an interval box through an interval Taylor expansion,
of second order where the control family bounds u' on the step and of
first order elsewhere, whose Jacobians come from Lipschitz bounds and side
information; an a priori rough enclosure controls the remainder term.  The
enclosure is the closed-form one whose existence the step-size bound
sqrt(n) beta dt < 1 guarantees; each step returns it as `ReachStepRecord.S`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import (
    LIMIT, DataReachError, StepTooLarge, check_array, check_box, check_count, check_finite,
    check_interval, check_positive,
)
from .intervals import (
    Box, Interval, add_pairs, mat_vec_pairs, meet, scale_pair, symmetric,
    tensor_vec_pairs,
)
from .knowledge import KnowledgeBase, LipschitzBounds, _box_query, _jacobian_pairs


# ---------------------------------------------------------------------------
# admissible control classes
# ---------------------------------------------------------------------------

class ControlClass:
    """Range information about a family of admissible control signals.

    A family needs only `eval_range` to get first-order reach steps.
    `eval_deriv_range(t0, t1)` returns a bound on u' over the step, or None
    where the family has none (the default); a bound selects the
    second-order step, which also evaluates `eval_point` at the step's start.
    """

    def eval_point(self, t: float) -> Box:
        raise NotImplementedError

    def eval_range(self, t0: float, t1: float) -> Box:
        raise NotImplementedError

    def eval_deriv_range(self, t0: float, t1: float) -> Optional[Box]:
        return None


class ConstantControl(ControlClass):
    """A single constant control value (or box of values)."""

    def __init__(self, u):
        self.u = Box(*check_array("u", [u.lo, u.hi] if isinstance(u, Box) else [u, u]))
        self._zero = Box.point(np.zeros(self.u.shape))

    def eval_point(self, t):
        return self.u

    def eval_range(self, t0, t1):
        return self.u

    def eval_deriv_range(self, t0, t1):
        return self._zero


class PiecewiseConstantControl(ControlClass):
    """Piecewise-constant signal switching on a uniform grid.

    The derivative is zero on a step inside one piece; a step that contains
    a switch has no derivative bound and so takes the first-order step.
    """

    def __init__(self, values, dt: float, t0: float = 0.0):
        self.values = check_array("values", values)
        if self.values.ndim != 2 or not self.values.shape[0]:
            raise ValueError("values must be a non-empty 2-D array, one control per row")
        self.dt = check_positive("dt", dt)
        self.t0 = check_finite("t0", t0)
        self._zero = Box.point(np.zeros(self.values.shape[1]))

    def _index(self, t: float, margin: float = 1e-12) -> int:
        """The piece holding t, with `margin` (in pieces) absorbing rounding;
        clamped before the floor, so that a far t cannot overflow it."""
        k = min(max((t - self.t0) / self.dt + margin, 0.0), self.values.shape[0] - 1)
        return int(math.floor(k))

    def eval_point(self, t):
        return Box.point(self.values[self._index(t)])

    def _pieces(self, t0, t1):
        """First and last piece of [t0, t1]; a step ending on a switch ends
        in the piece before it."""
        k0 = self._index(t0)
        return k0, max(k0, self._index(t1, -1e-12))

    def eval_range(self, t0, t1):
        k0, k1 = self._pieces(t0, t1)
        chunk = self.values[k0 : k1 + 1]
        return Box(chunk.min(axis=0), chunk.max(axis=0))

    def eval_deriv_range(self, t0, t1):
        k0, k1 = self._pieces(t0, t1)
        return self._zero if k0 == k1 else None


def _cos_range(phi_lo: float, phi_hi: float) -> Interval:
    if phi_hi - phi_lo >= 2.0 * math.pi:
        return Interval(-1.0, 1.0)
    lo = min(math.cos(phi_lo), math.cos(phi_hi))
    hi = max(math.cos(phi_lo), math.cos(phi_hi))
    two_pi = 2.0 * math.pi
    if math.ceil(phi_lo / two_pi) <= math.floor(phi_hi / two_pi):
        hi = 1.0
    if math.ceil((phi_lo - math.pi) / two_pi) <= math.floor((phi_hi - math.pi) / two_pi):
        lo = -1.0
    return Interval(lo, hi)


def _sin_range(phi_lo: float, phi_hi: float) -> Interval:
    return _cos_range(phi_lo - 0.5 * math.pi, phi_hi - 0.5 * math.pi)


class ConstCosControl(ControlClass):
    """Two-input family: constant speed plus a cosine turning rate.

    u(t) = [v0 + a1, cos(omega (t - t_ref)) + a2] with interval parameters
    a1, a2; point/range/derivative enclosures are analytic.
    """

    def __init__(self, v0: float = 1.0, omega: float = 6.0, t_ref: float = 0.0,
                 a1: Interval = Interval(0.0), a2: Interval = Interval(0.0)):
        self.v0, self.omega, self.t_ref = (check_finite(key, value) for key, value in (
            ("v0", v0), ("omega", omega), ("t_ref", t_ref)))
        self.a1, self.a2 = check_interval("a1", a1), check_interval("a2", a2)
        check_array("a1 and a2", [a1.lo, a1.hi, a2.lo, a2.hi])
        # the controls' ends: v0 + a1, and a cosine in [-1, 1] plus a2
        ends = (self.v0 + a1.lo, self.v0 + a1.hi, a2.lo - 1.0, a2.hi + 1.0)
        if max(map(abs, ends)) > LIMIT:
            raise ValueError(f"v0, a1 and a2 must give controls v0 + a1 and cos + a2 at most "
                             f"{LIMIT:g} in magnitude, not v0={v0!r}, a1={a1!r} and a2={a2!r}")

    def eval_point(self, t):
        c = math.cos(self.omega * (t - self.t_ref))
        return Box._fresh(np.array([self.v0 + self.a1.lo, c + self.a2.lo]),
                          np.array([self.v0 + self.a1.hi, c + self.a2.hi]))

    def eval_range(self, t0, t1):
        phi0 = self.omega * (t0 - self.t_ref)
        phi1 = self.omega * (t1 - self.t_ref)
        c = _cos_range(min(phi0, phi1), max(phi0, phi1))
        return Box._fresh(np.array([self.v0 + self.a1.lo, c.lo + self.a2.lo]),
                          np.array([self.v0 + self.a1.hi, c.hi + self.a2.hi]))

    def eval_deriv_range(self, t0, t1):
        phi0 = self.omega * (t0 - self.t_ref)
        phi1 = self.omega * (t1 - self.t_ref)
        s = _sin_range(min(phi0, phi1), max(phi0, phi1))
        a, b = s.lo * -self.omega, s.hi * -self.omega
        return Box._fresh(np.array([0.0, min(a, b)]), np.array([0.0, max(a, b)]))


# ---------------------------------------------------------------------------
# step size and a priori rough enclosures
# ---------------------------------------------------------------------------

def beta_of(lip: LipschitzBounds, Vabs: np.ndarray) -> float:
    """Lipschitz constant of the closed-loop field for control magnitudes Vabs."""
    return _beta(lip, check_array("Vabs", Vabs, (lip.m,), nonneg=True))


def _beta(lip: LipschitzBounds, Vabs: np.ndarray) -> float:
    """`beta_of` of magnitudes Vabs its caller has checked."""
    rows = lip.L_f + lip.L_G @ Vabs
    return float(math.sqrt(float(rows @ rows)))


def max_step_size(lip: LipschitzBounds, U: Box) -> float:
    """Largest admissible step: callers must pick dt strictly below this."""
    beta_inf = beta_of(lip, check_box("U", U, (lip.m,)).mag)
    if beta_inf == 0.0:
        return math.inf
    return 1.0 / (math.sqrt(lip.n) * beta_inf)


def _pair(box: Box):
    return box.lo, box.hi


# ---------------------------------------------------------------------------
# reach step and tube
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReachStepRecord:
    """State box at a grid time plus the enclosure data of the outgoing step.

    `R_next` is the over-approximation propagated to t + dt (equal to R on the
    terminal record, whose S collapses to R as well); `clipped` tells whether
    the domain intersection cut it.
    """

    t: float
    R: Box
    S: Box
    beta: float
    alpha_norm: float
    R_next: Box
    clipped: bool = False

    def __post_init__(self):
        if not self.S.encloses(self.R, atol=1e-12):
            raise ValueError("rough enclosure must contain the state box")


@dataclass
class ReachTube:
    steps: List[ReachStepRecord]
    dt: float
    failure: Optional[str] = None

    def __len__(self):
        return len(self.steps)

    def boxes(self):
        """(T+1, n) lo and hi arrays of the tube."""
        lo = np.array([rec.R.lo for rec in self.steps])
        hi = np.array([rec.R.hi for rec in self.steps])
        return lo, hi

    def terminal_width(self) -> np.ndarray:
        return self.steps[-1].R.width

    @property
    def clipped(self) -> List[int]:
        """The indices of the steps whose propagated box the domain cut."""
        return [i for i, rec in enumerate(self.steps) if rec.clipped]


def _hooked(hook, X: Box, V: Box, *encs):
    """Run the contractor hook on Boxes; its results come back as pairs."""
    out = hook(X, V, *(None if e is None else Box(*e) for e in encs))
    return [None if b is None else _pair(b) for b in out]


def _step_data(R: Box, kb: KnowledgeBase, V: Box, dt: float, key: str = "U"):
    """The query sequence shared by the reach steps and `control.linearize`.

    Checks the step size sqrt(n) beta dt < 1, queries f and G over R, builds
    the explicit rough enclosure S = R + [-c, c], c = dt alpha / (1 -
    sqrt(n) beta dt) (its Box construction validates it), then queries f, G
    and the Jacobians over S, running the contractor hook over R and over S.
    Returns beta, the sup-norm alpha of f(R) + G(R) V, S, and f(R), G(R),
    f(S), G(S), Jf(S), JG(S) as lo/hi pairs, and whether Jf, JG and V are
    sign-symmetric.  A bad V raises a ValueError naming ``key``.
    """
    # the family's beta and V's symmetry for the last control box; a loop
    # passes the same U
    beta, v_sym = _kept(kb, "beta", (V, kb.lip_total), lambda: _beta_sym(kb, V, key))
    root_n = math.sqrt(len(R))
    denom = 1.0 - root_n * dt * beta
    if denom <= 0.0:
        raise StepTooLarge(dt, 1.0 / (root_n * beta))
    fR, GR = _box_query(kb, R)
    hook = kb.side.algebraic_contractor
    if hook is not None:
        fR, GR, _, _ = _hooked(hook, R, V, fR, GR, None, None)
    h = add_pairs(fR, mat_vec_pairs(GR, _pair(V), 2 * v_sym))
    alpha = float(np.max(np.maximum(np.abs(h[0]), np.abs(h[1])))) if len(R) else 0.0
    c = dt * alpha / denom
    S = Box._fresh(R.lo - c, R.hi + c)
    fS, GS = _box_query(kb, S)
    Jf, JG = _jacobian_pairs(kb)
    if hook is not None:
        fS, GS, Jf, JG = _hooked(hook, S, V, fS, GS, Jf, JG)
    # kept while the band arrays repeat; a contractor hook's new bands recompute
    bands = _kept(kb, "bands", (*Jf, *JG), lambda: (symmetric(*Jf), symmetric(*JG)))
    return beta, alpha, S, fR, GR, fS, GS, Jf, JG, (*bands, v_sym)


def _beta_sym(kb: KnowledgeBase, V: Box, key: str):
    """The family's beta for the control box V, and whether V is symmetric.
    A `Box`'s magnitudes hold no NaN and no negative, so `check_box` could
    reject only another type or shape, or a magnitude past `errors.LIMIT`;
    only those call it."""
    Vabs = V.mag if isinstance(V, Box) else None
    if Vabs is None or Vabs.shape != (kb.m,) or max(Vabs.tolist(), default=0.0) > LIMIT:
        check_box(key, V, (kb.m,))  # raises
    return _beta(kb.lip_total, Vabs), symmetric(V.lo, V.hi)


def _kept(kb: KnowledgeBase, name, key, make):
    """``make()``, kept for the base's family under ``name`` while the
    objects of the tuple ``key``, every (immutable) object the value is
    made from, repeat; they are compared by identity."""
    hit = kb._groups.kept.get(name)
    if hit is None or not all(map(operator.is_, hit[0], key)):
        hit = kb._groups.kept[name] = (key, make())
    return hit[1]


def _record(t, R: Box, beta, alpha, S: Box, R_next, domain: Optional[Box]):
    """The step's record.  One fused comparison tells whether R_next leaves
    the domain; only then is it intersected with it, which elsewhere
    changes nothing.  With no domain, an R_next that a step would reject as
    its R ends the tube."""
    Rn, clipped = Box._fresh(*R_next), False
    if domain is not None:
        clipped = bool(np.count_nonzero((Rn.lo < domain.lo) | (domain.hi < Rn.hi)))
        if clipped:
            Rn = meet(Rn, domain)
    elif min(Rn.lo.tolist(), default=0.0) < -LIMIT or max(Rn.hi.tolist(), default=0.0) > LIMIT:
        raise DataReachError(f"the tube diverged: the box propagated from t = {t:g} has "
                             f"endpoints beyond {LIMIT:g} in magnitude")
    return ReachStepRecord(t, R, S, beta, alpha, Rn, clipped)


def datareach_step(
    R: Box,
    kb: KnowledgeBase,
    ctrl: ControlClass,
    t: float,
    dt: float,
    domain: Optional[Box] = None,
) -> ReachStepRecord:
    """One interval Taylor step over the differential inclusion.

    Second order where the family bounds u' on the step; first order,
    R + dt (f(S) + G(S) V), where `eval_deriv_range` returns None.  The
    propagated box is intersected with `domain` when one is supplied; with
    none, a propagated box with an endpoint beyond `errors.LIMIT` in
    magnitude raises a DataReachError.  t must be finite, dt positive and
    finite, R and domain `Box`es of shape (kb.n,), and the family's controls
    `Box`es of shape (kb.m,), each with endpoints at most `errors.LIMIT` in
    magnitude.
    """
    check_finite("t", t)
    check_positive("dt", dt)
    check_box("R", R, (kb.n,))
    if domain is not None:
        check_box("domain", domain, (kb.n,))
    V = ctrl.eval_range(t, t + dt)
    V1 = ctrl.eval_deriv_range(t, t + dt)
    beta, alpha, S, fR, GR, fS, GS, Jf, JG, (jf_sym, jg_sym, v_sym) = _step_data(
        R, kb, V, dt, "ctrl's control box")
    V = _pair(V)
    hS = add_pairs(fS, mat_vec_pairs(GS, V, 2 * v_sym))
    if V1 is None:
        return _record(t, R, beta, alpha, S, add_pairs(_pair(R), scale_pair(hS, dt)), domain)
    half_dt2 = 0.5 * dt * dt
    hx = add_pairs(fR, mat_vec_pairs(GR, _pair(ctrl.eval_point(t))))
    M2 = add_pairs(Jf, tensor_vec_pairs(JG, V, jg_sym))
    Rn = add_pairs(_pair(R), scale_pair(hx, dt))
    Rn = add_pairs(Rn, scale_pair(mat_vec_pairs(M2, hS, jf_sym and jg_sym), half_dt2))
    Rn = add_pairs(Rn, scale_pair(mat_vec_pairs(GS, _pair(V1)), half_dt2))
    return _record(t, R, beta, alpha, S, Rn, domain)


def datareach(
    kb: KnowledgeBase,
    x_start: np.ndarray,
    ctrl: ControlClass,
    dt: float,
    T: int,
    t0: float = 0.0,
    domain: Optional[Box] = None,
) -> ReachTube:
    """Over-approximate the reachable sets at t0 + dt, ..., t0 + T dt.

    The tube starts from the singleton {x_start}.  On the first failing step
    the tube is truncated and the reason recorded in `failure`.  T must be
    a whole number >= 0; T = 0 gives the tube of the start alone.  dt must
    be positive and finite, t0 finite, x_start hold kb.n entries and the
    family's controls kb.m entries, and a Box x_start and domain be `Box`es
    of shape (kb.n,) with endpoints at most `errors.LIMIT` in magnitude.
    """
    check_count("T", T, 0)
    check_positive("dt", dt)
    check_finite("t0", t0)
    if isinstance(x_start, Box):
        R = check_box("x_start", x_start, (kb.n,))
    else:
        R = Box.point(check_array("x_start", x_start, (kb.n,)))
    if domain is not None:
        check_box("domain", domain, (kb.n,))
    width = ctrl.eval_range(t0, t0 + dt).shape
    if width != (kb.m,):
        raise ValueError(f"control family gives controls of shape {width}, "
                         f"the knowledge base needs ({kb.m},)")
    steps: List[ReachStepRecord] = []
    failure = None
    t = t0
    for _ in range(int(T)):
        try:
            rec = datareach_step(R, kb, ctrl, t, dt, domain=domain)
        except DataReachError as exc:
            failure = f"{type(exc).__name__}: {exc}"
            break
        steps.append(rec)
        R = rec.R_next
        t += dt
    steps.append(ReachStepRecord(t, R, R, 0.0, 0.0, R))
    return ReachTube(steps, dt, failure)
