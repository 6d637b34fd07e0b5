"""One-step near-optimal control over the data-driven over-approximation.

The next-state over-approximation is linearized into control-affine interval
models; minimizing through them yields a box-constrained QP (idealistic) or a
small family of coupled QPs (optimistic), with a computable bound on the gap
to the optimum under known dynamics.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .errors import (
    LIMIT, AllOrthantsInfeasible, NonConvexAssembly, check_array, check_box, check_choice,
    check_count, check_finite, check_positive, check_unit,
)
from .intervals import (
    Box, add_pairs, check_pair, imat_vec, mat_mat_pairs, mat_vec_pairs, meet,
    real_mat_pairs, scale_pair, symmetric, tensor_vec_pairs,
)
from .knowledge import KnowledgeBase
from .qpsolve import (
    AdaResResult, BoxQP, OptimisticInfo, OptimisticQP, QPOptions, solve_idealistic,
    solve_optimistic,
)
from .reach import _kept, _pair, _step_data

MODES = ("idealistic", "optimistic")  # the two convex relaxations of a step


def _mag(lo, hi):
    return np.maximum(np.abs(lo), np.abs(hi))


@dataclass(frozen=True)
class _LoopTerms:
    """What a closed loop's steps share through one cost, U and X: |U| and
    whether U is sign-symmetric, Q's (max(Q, 0), min(Q, 0)) split, the part
    2|S U| + q of `subopt_bound`'s gradient factor and the norm of its
    domain term, and the (k, m) bounds `u_lo`, `u_hi` of U's k sign orthants
    with the (k, 1, 1, m) mask of each one's nonnegative axes.  The arrays
    are read-only."""

    U: Box
    X: Box
    U_abs: np.ndarray
    U_sym: bool
    Q_split: tuple
    SU_q: np.ndarray
    domain_norm: float
    u_lo: np.ndarray
    u_hi: np.ndarray
    nonneg: np.ndarray


@dataclass(frozen=True)
class QuadraticCost:
    """Convex quadratic one-step cost c(x, u, y) = [y;u]' [[Q,S],[S',R]] [y;u] + [q;r]'[y;u].

    Only (u, y) enter the value; the current state is irrelevant to the cost.
    """

    Q: np.ndarray
    R: np.ndarray
    S: np.ndarray
    q: np.ndarray
    r: np.ndarray
    # `_LoopTerms` of the last (U, X) this cost met, see `_loop_terms`
    _terms: Optional[_LoopTerms] = field(default=None, init=False, repr=False, compare=False)
    # factor of the optimistic solve, see `qpsolve._factor`
    _factored: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        Q, R, S, q, r = (check_array(key, getattr(self, key)) for key in "QRSqr")
        n, m = q.size, r.size
        shapes, want = [a.shape for a in (Q, R, S, q, r)], [(n, n), (m, m), (n, m), (n,), (m,)]
        if shapes != want:
            raise ValueError(f"Q, R, S, q and r must have shapes {want}, not {shapes}")
        if not np.allclose(Q, Q.T, atol=1e-10) or not np.allclose(R, R.T, atol=1e-10):
            raise ValueError("Q and R must be symmetric")
        Q, R = 0.5 * (Q + Q.T), 0.5 * (R + R.T)
        joint = np.block([[Q, S], [S.T, R]])
        if float(np.linalg.eigvalsh(joint).min()) < -1e-9:
            raise ValueError("the joint matrix [[Q, S], [S', R]] must be positive semidefinite")
        # read-only copies: a cost is an immutable value, so `_loop_terms`
        # and `qpsolve._factor` may reuse what they computed from it
        for name, val in (("Q", Q), ("R", R), ("S", S), ("q", q), ("r", r)):
            val = np.array(val)
            val.flags.writeable = False
            object.__setattr__(self, name, val)

    @property
    def n(self) -> int:
        return self.q.shape[0]

    @property
    def m(self) -> int:
        return self.r.shape[0]

    def _loop_terms(self, U: Box, X: Box) -> _LoopTerms:
        """The step terms that depend only on this cost, U and X, checked and
        made once while the same (immutable) boxes repeat, as in a closed loop."""
        t = self._terms
        if t is None or t.U is not U or t.X is not X:
            check_box("U", U, (self.m,))
            check_box("X", X, (self.n,))
            U_abs = _mag(*_pair(U))
            Q_split = (np.maximum(self.Q, 0.0), np.minimum(self.Q, 0.0))
            SU_q = 2.0 * _mag(*check_pair(*real_mat_pairs(self.S, _pair(U)))) + self.q
            Q_X = _mag(*check_pair(*real_mat_pairs(Q_split, _pair(X))))
            domain_norm = np.linalg.norm(SU_q + 2.0 * Q_X)
            u_lo, u_hi = _split_orthants(U)
            nonneg = (u_lo >= 0.0)[:, None, None, :]
            for a in (U_abs, *Q_split, SU_q, u_lo, u_hi, nonneg):
                a.flags.writeable = False
            t = _LoopTerms(U, X, U_abs, symmetric(*_pair(U)), Q_split, SU_q, domain_norm,
                           u_lo, u_hi, nonneg)
            object.__setattr__(self, "_terms", t)
        return t

    def value(self, u: np.ndarray, y: np.ndarray) -> float:
        return float(
            y @ self.Q @ y + 2.0 * y @ self.S @ u + u @ self.R @ u
            + self.q @ y + self.r @ u
        )


def setpoint_cost(n: int, m: int, index: int, target: float, weight: float = 0.5
                  ) -> Tuple[QuadraticCost, float]:
    """Cost weight*(y[index] - target)^2 in (Q, S, R, q, r) form plus its
    constant; index must be a whole number in [0, n), target finite, weight >= 0,
    and the linear term -2 weight target and the constant weight target^2 at
    most `errors.LIMIT` in magnitude."""
    n, m = check_count("n", n, 1), check_count("m", m, 1)
    target = check_finite("target", target)
    weight = float(check_array("weight", weight, (), nonneg=True))
    index = check_count("index", index, 0)
    if index >= n:
        raise ValueError(f"index must be < n = {n}, not {index}")
    linear, constant = -2.0 * weight * target, weight * target * target
    if not max(abs(linear), constant) <= LIMIT:
        raise ValueError(f"target and weight must give a linear term -2 weight target and a "
                         f"constant weight target^2 at most {LIMIT:g} in magnitude, not "
                         f"target={target!r} and weight={weight!r}")
    Q = np.zeros((n, n))
    Q[index, index] = weight
    q = np.zeros(n)
    q[index] = linear
    cost = QuadraticCost(Q, np.zeros((m, m)), np.zeros((n, m)), q, np.zeros(m))
    return cost, constant


def norm_cost(n: int, m: int, weight: float = 0.5) -> QuadraticCost:
    """Cost weight * ||y||_2^2; weight must be finite and nonnegative."""
    n, m = check_count("n", n, 1), check_count("m", m, 1)
    check_array("weight", weight, (), nonneg=True)
    return QuadraticCost(weight * np.eye(n), np.zeros((m, m)), np.zeros((n, m)),
                         np.zeros(n), np.zeros(m))


@dataclass(frozen=True)
class AffineOverApprox:
    """Control-affine interval model of the next state: (B + A+ u) cap (B + A- u)."""

    B: Box
    Aplus: Box
    Aminus: Box


def linearize(
    R: Box,
    kb: KnowledgeBase,
    U: Box,
    dt: float,
) -> AffineOverApprox:
    """Control-affine linearization of the next-step over-approximation.

    The rough enclosure is the explicit one evaluated with the whole control
    set, so the model is valid for every constant control in U (dt > 0).
    R and U must be `Box`es of shapes (kb.n,) and (kb.m,) within `errors.LIMIT`.
    """
    check_positive("dt", dt)
    check_box("R", R, (kb.n,))
    *_, fR, GR, fS, GS, Jf, JG, (jf, jg, u_sym) = _step_data(R, kb, U, dt)
    u = _pair(U)
    half_dt2 = 0.5 * dt * dt
    # fixed while the bands and U repeat; a contractor hook's new bands recompute
    JGt, JfU = _kept(kb, "linearize", (*Jf, *JG, U), lambda: _band_terms(Jf, JG, u, jg))
    B = add_pairs(add_pairs(_pair(R), scale_pair(fR, dt)),
                  scale_pair(mat_vec_pairs(Jf, fS, jf), half_dt2))
    plus = add_pairs(mat_mat_pairs(JfU, GS, jf and jg), tensor_vec_pairs(JGt, fS, jg))
    GSu = mat_vec_pairs(GS, u, 2 * u_sym)
    minus = add_pairs(mat_mat_pairs(Jf, GS, jf), tensor_vec_pairs(JGt, add_pairs(fS, GSu), jg))
    GR_dt = scale_pair(GR, dt)
    A = [Box._fresh(*add_pairs(GR_dt, scale_pair(a, half_dt2))) for a in (plus, minus)]
    return AffineOverApprox(Box._fresh(*B), *A)


def _band_terms(Jf, JG, u, jg_sym):
    """JG's (0, 2, 1) transpose and Jf + JG u, as read-only lo/hi pairs."""
    JGt = tuple(np.transpose(a, (0, 2, 1)) for a in JG)
    JfU = add_pairs(Jf, tensor_vec_pairs(JG, u, jg_sym))
    for a in JfU:
        a.flags.writeable = False
    return JGt, JfU


# ---------------------------------------------------------------------------
# idealistic relaxation
# ---------------------------------------------------------------------------

def idealistic_coeffs(
    aff: AffineOverApprox, wplus: float, wminus: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Weighted endpoint selection (weights in [0, 1]) of one affine trajectory in the model."""
    check_unit("wplus, wminus", (wplus, wminus), (2,))
    B, Ap, Am = aff.B, aff.Aplus, aff.Aminus
    b_ide = 0.5 * (
        wplus * B.hi + (1.0 - wplus) * B.lo + wminus * B.hi + (1.0 - wminus) * B.lo
    )
    A_ide = 0.5 * (
        wplus * Ap.hi + (1.0 - wplus) * Ap.lo
        + wminus * Am.hi + (1.0 - wminus) * Am.lo
    )
    return A_ide, b_ide


def assemble_idealistic(
    cost: QuadraticCost, A_ide: np.ndarray, b_ide: np.ndarray, U: Box
) -> BoxQP:
    """Substitute y = b + A u into the cost; the result is a convex QP over U.

    Raises NonConvexAssembly, naming the entry, when the QP data is not
    finite or its Hessian is not positive semidefinite."""
    Q, S, Rm, q, r = cost.Q, cost.S, cost.R, cost.q, cost.r
    shapes = np.shape(A_ide), np.shape(b_ide)
    if shapes != ((cost.n, cost.m), (cost.n,)):
        raise ValueError(f"A_ide and b_ide must have shapes {(cost.n, cost.m)} and "
                         f"{(cost.n,)}, not {shapes}")
    if cost._terms is None or cost._terms.U is not U:  # a loop's U was checked there
        check_box("U", U, (cost.m,))
    # an overflow or a NaN is reported below, naming the entry
    with np.errstate(over="ignore", invalid="ignore"):
        Qi = 2.0 * A_ide.T @ Q @ A_ide + 4.0 * A_ide.T @ S + 2.0 * Rm
        Qi = 0.5 * (Qi + Qi.T)
        qi = 2.0 * (S + Q @ A_ide).T @ b_ide + A_ide.T @ q + r
        pi = float(b_ide @ Q @ b_ide + q @ b_ide)
    for name, val in (("Qi", Qi), ("qi", qi), ("pi", np.asarray(pi))):
        if np.count_nonzero(np.isfinite(val)) != val.size:
            at = np.unravel_index(np.argmin(np.isfinite(val)), val.shape)
            raise NonConvexAssembly(f"idealistic QP entry {name}{list(map(int, at))} is "
                                    f"{val[at]}: A_ide or b_ide is not finite or too large")
    eigs = np.linalg.eigvalsh(Qi) if Qi.size else np.zeros(0)
    if eigs.size and float(eigs.min()) < -1e-8:
        raise NonConvexAssembly(
            f"idealistic Hessian has eigenvalue {float(eigs.min()):g}; "
            "the quadratic cost is not jointly convex"
        )
    if eigs.size and float(eigs.min()) < 0.0:
        # clip the numeric negatives to zero
        w, V = np.linalg.eigh(Qi)
        Qi = (V * np.maximum(w, 0.0)) @ V.T
        Qi = 0.5 * (Qi + Qi.T)
    return BoxQP._prechecked(Qi, qi, U, pi)


# ---------------------------------------------------------------------------
# optimistic relaxation
# ---------------------------------------------------------------------------

def _check_fit(cost: QuadraticCost, n: int, m: int):
    """Raise ValueError unless the cost's dimensions are (n, m)."""
    if (cost.n, cost.m) != (n, m):
        raise ValueError(f"cost must have n = {n} and m = {m}, not {cost.n} and {cost.m}")


def _split_orthants(U: Box):
    """The (k, m) lower and upper ends of U's k sign orthants, the last axis
    varying fastest: an axis whose interior holds 0 splits there."""
    axes = [[(lo, 0.0), (0.0, hi)] if lo < 0.0 < hi else [(lo, hi)] for lo, hi in zip(U.lo, U.hi)]
    ends = np.array(list(itertools.product(*axes)), dtype=float).reshape(-1, len(axes), 2)
    return ends[..., 0], ends[..., 1]


def assemble_optimistic(
    cost: QuadraticCost, aff: AffineOverApprox, U: Box, X: Box
) -> OptimisticQP:
    """Split U into sign orthants and pick each model's ends by the sign rule:
    on a nonnegative axis A_l is the lower end and A_s the upper, else the reverse."""
    _check_fit(cost, *aff.Aplus.shape)
    t, ends = cost._loop_terms(U, X), np.stack([*_pair(aff.Aplus), *_pair(aff.Aminus)])
    return OptimisticQP(np.where(t.nonneg, ends, ends[[1, 0, 3, 2]]), t.u_lo, t.u_hi,
                        cost, aff.B, X)


# ---------------------------------------------------------------------------
# suboptimality bound
# ---------------------------------------------------------------------------

def _K_of(B, A, U, terms: _LoopTerms) -> float:
    """Gradient-magnitude factor of one model (lo/hi pairs); the domain term is shared."""
    reach = check_pair(*add_pairs(B, check_pair(*mat_vec_pairs(A, U, 2 * terms.U_sym))))
    term_reach = terms.SU_q + 2.0 * _mag(*check_pair(*real_mat_pairs(terms.Q_split, reach)))
    return float(min(np.linalg.norm(term_reach), terms.domain_norm))


def subopt_bound(
    cost: QuadraticCost, aff: AffineOverApprox, U: Box, X: Box
) -> float:
    """Bound on |c* - c| for either relaxation, driven by the model widths."""
    _check_fit(cost, *aff.Aplus.shape)
    terms = cost._loop_terms(U, X)
    u, B = _pair(U), _pair(aff.B)
    tp = float(np.linalg.norm(aff.B.width + aff.Aplus.width @ terms.U_abs))
    tm = float(np.linalg.norm(aff.B.width + aff.Aminus.width @ terms.U_abs))
    return max(
        tp * _K_of(B, _pair(aff.Aplus), u, terms),
        tm * _K_of(B, _pair(aff.Aminus), u, terms),
    )


# ---------------------------------------------------------------------------
# per-step orchestration
# ---------------------------------------------------------------------------

@dataclass
class StepLog:
    """One control step.  `datacontrol_step` fills the control `u`, its model
    `aff`, `bound`, the relaxation's optimum `model_cost`, `mode_used`, the
    solve's certificate `info` and `micros`; the closed loop fills the rest."""

    u: np.ndarray
    aff: AffineOverApprox
    bound: float
    model_cost: float
    mode_used: str
    info: AdaResResult | OptimisticInfo
    micros: float
    i: Optional[int] = None
    t: Optional[float] = None
    realized_cost: Optional[float] = None
    kb_micros: float = 0.0  # this step's append_sample plus any rebuild

    @property
    def iters(self) -> int:
        return self.info.iters

    @property
    def fell_back(self) -> bool:
        return self.mode_used == "idealistic(fallback)"

    @property
    def predicted_box(self) -> Box:
        """The model's box of next states under `u`: (B + A+ u) cap (B + A- u)."""
        aff = self.aff
        return meet(aff.B + imat_vec(aff.Aplus, self.u),
                    aff.B + imat_vec(aff.Aminus, self.u), 1e-12)


def datacontrol_step(
    kb: KnowledgeBase,
    x: np.ndarray,
    cost: QuadraticCost,
    U: Box,
    X: Box,
    dt: float,
    mode: str = "idealistic",
    opts: Optional[QPOptions] = None,
    wplus: float = 0.5,
    wminus: float = 0.5,
    u_prev: Optional[np.ndarray] = None,
    start: Optional[tuple] = None,
) -> Tuple[np.ndarray, StepLog]:
    """Compute the control to apply over [t, t+dt] from the current state.

    Builds the control-affine model at the singleton {x}, then solves the
    selected convex relaxation.  `u_prev` starts the idealistic solve.  In
    optimistic mode `start` warm-starts the orthant solves (the previous
    step's `info.active_sets`, see `solve_optimistic`).  When every
    optimistic orthant is infeasible the step falls back to the idealistic
    problem and records `mode_used` "idealistic(fallback)".  x must be finite,
    x, the cost, U and X fit kb, dt be positive and the weights lie in [0, 1];
    U and X must be `Box`es with endpoints within `errors.LIMIT`.
    """
    check_choice("mode", mode, MODES)
    check_positive("dt", dt)
    check_unit("wplus, wminus", (wplus, wminus), (2,))
    if u_prev is not None:
        check_array("u_prev", u_prev, (kb.m,))
    _check_fit(cost, kb.n, kb.m)
    opts = opts or QPOptions()
    started = time.perf_counter()
    x = check_array("x", x, (kb.n,))  # a copy, the point box's two ends
    cost._loop_terms(U, X)  # checks U and X when they change
    aff = linearize(Box._fresh(x, x), kb, U, dt)
    bound = subopt_bound(cost, aff, U, X)

    mode_used = mode
    if mode == "optimistic":
        try:
            u_hat, _, model_cost, info = solve_optimistic(
                assemble_optimistic(cost, aff, U, X), opts, start=start)
        except AllOrthantsInfeasible:
            mode_used = "idealistic(fallback)"
    if mode_used != "optimistic":
        qp = assemble_idealistic(cost, *idealistic_coeffs(aff, wplus, wminus), U)
        u_hat, info = solve_idealistic(qp, opts, y0=u_prev)
        model_cost = qp.value(u_hat)
    micros = (time.perf_counter() - started) * 1e6
    return u_hat, StepLog(u_hat, aff, bound, model_cost, mode_used, info, micros)
