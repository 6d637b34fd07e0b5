"""Solvers for the one-step control relaxations.

`solve_idealistic` solves a box-constrained QP by accelerated projected
gradient with adaptive restart and geometric refinement of the local
quadratic-growth estimate; it reaches eps-optimality without knowing the
growth constant.  `solve_optimistic` solves the sign-orthant pieces of the
coupled (u, next-state) QP exactly with the dual active-set method of
Goldfarb & Idnani ("A numerically stable dual method for solving strictly
convex quadratic programs", Math. Prog. 1983), best-first by a lower bound
on each piece's cost, skipping the pieces the bound rules out (branch and
bound, Land & Doig, Econometrica 1960).  It factors the cost once for all
orthants and can start each orthant from the active rows of an earlier
solve, as in the online active-set strategy of Ferreau, Bock & Diehl (IJRNC
2008): in a closed loop consecutive steps end on nearly the same active
sets.  Both read `QPOptions` and return their certificate with the solution:
`AdaResResult` and `OptimisticInfo`.  `oracle_boxqp` is an exact active-set
enumeration used by the tests.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .errors import (
    AllOrthantsInfeasible, IterationCapExceeded, check_array, check_count, check_finite,
    check_positive,
)
from .intervals import Box

_L_MIN_SCALE = 1e-12
_EPS = float(np.finfo(float).eps)
_ROW_SIGNS = np.array([1.0, -1.0, 1.0, -1.0])[:, None, None]  # +A_l, -A_s in `orthant_rows`
# Tikhonov weight of the optimistic solve's cost, see `solve_optimistic`
_SIGMA = 1e-6
# margins that keep the orthant bounds sound, see `_orthant_bounds`
_BOUND_WIDEN = 1e-9
_BOUND_ROUND = 1e-12


@dataclass(frozen=True)
class BoxQP:
    """minimize 0.5 u' Qi u + qi' u + pi over a box."""

    Qi: np.ndarray
    qi: np.ndarray
    box: Box
    pi: float = 0.0

    def __post_init__(self):
        Qi, qi = check_array("Qi", self.Qi), check_array("qi", self.qi)
        if qi.ndim != 1 or Qi.shape != (qi.size, qi.size):
            raise ValueError("Qi/qi shapes disagree")
        check_finite("pi", self.pi)
        if not np.allclose(Qi, Qi.T, atol=1e-10):
            raise ValueError("Qi must be symmetric")
        Qi = 0.5 * (Qi + Qi.T)
        if Qi.size and float(np.linalg.eigvalsh(Qi).min()) < -1e-8:
            raise ValueError("Qi must be positive semidefinite")
        object.__setattr__(self, "Qi", Qi)
        object.__setattr__(self, "qi", qi)

    @classmethod
    def _prechecked(cls, Qi: np.ndarray, qi: np.ndarray, box: Box, pi: float) -> "BoxQP":
        """The BoxQP of finite float arrays whose Qi is already exactly
        symmetric and checked PSD, built without repeating the checks; only
        `assemble_idealistic` calls it.  The checked constructor would store
        the same values."""
        qp = object.__new__(cls)
        for name, val in (("Qi", Qi), ("qi", qi), ("box", box), ("pi", pi)):
            object.__setattr__(qp, name, val)
        return qp

    @property
    def m(self) -> int:
        return self.qi.shape[0]

    def value(self, u: np.ndarray) -> float:
        return float(0.5 * u @ self.Qi @ u + self.qi @ u + self.pi)

    def gradient(self, u: np.ndarray) -> np.ndarray:
        return self.Qi @ u + self.qi


@dataclass
class AdaResResult:
    """Certificate of `solve_idealistic`: `converged` means the residual test
    certified eps-optimality at the returned solution; otherwise the
    iteration cap stopped the solve and the solution is the best point seen."""

    iters: int
    mu_estimate: float
    converged: bool


@dataclass(frozen=True)
class QPOptions:
    """Solver options of both relaxations; smoothness constants are derived per QP."""

    eps: float = 1e-8
    mu0: float = 1.0
    max_total_iters: int = 500_000

    def __post_init__(self):
        check_positive("eps", self.eps)
        check_positive("mu0", self.mu0)
        check_count("max_total_iters", self.max_total_iters, 1)


def _theta_seq(K: int) -> np.ndarray:
    """theta_0..theta_K with theta_{k+1}^2 = (1 - theta_{k+1}) theta_k^2 (positive root)."""
    th = np.empty(K + 1)
    th[0] = 1.0
    for k in range(K):
        t = th[k]
        th[k + 1] = 0.5 * (-t * t + t * math.sqrt(t * t + 4.0))
    return th


@functools.lru_cache(maxsize=16)
def _cycle(K: int):
    """The momentum weights beta_0..beta_{K-1} (a read-only array) and
    theta_{K-1}^2 of a cycle of K accelerated steps, in float64."""
    th = _theta_seq(K)
    betas = np.array([th[k] * (1.0 - th[k]) / (th[k] ** 2 + th[k + 1]) for k in range(K)])
    betas.flags.writeable = False
    return betas, th[K - 1] ** 2


def smoothness_constant(qp: BoxQP) -> float:
    """L = sqrt(m) ||Qi||_inf, floored so the gradient step stays defined."""
    m = qp.m
    row_sum = float(np.abs(qp.Qi).sum(axis=1).max()) if m else 0.0
    floor = _L_MIN_SCALE * max(1.0, float(np.abs(qp.qi).max(initial=0.0)))
    return max(math.sqrt(m) * row_sum, floor)


def solve_idealistic(
    qp: BoxQP,
    opts: Optional[QPOptions] = None,
    y0: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, AdaResResult]:
    """Solve the box QP to eps-optimality from `y0` (default: the box
    centre) by accelerated projected gradient with adaptive restart.

    Cycles of K_s = ceil(2 sqrt(e/mu_s) - 1) accelerated steps are repeated
    until either the projected-gradient residual has decayed at the rate the
    current growth estimate mu_s predicts (restart) or the residual certifies
    eps-optimality; mu_s starts at `opts.mu0` and halves after every cycle.
    All progress tests use the gradient-mapping residual
    ||P(y - grad(y)/L) - y||, whose smallness under quadratic growth bounds
    the objective gap.  `opts.max_total_iters` caps the projected and
    accelerated steps.  Returns the solution and its `AdaResResult`.

    The scheme follows Fercoq & Qu, "Adaptive restart of accelerated gradient
    methods under local quadratic growth condition", IMA J. Numer. Anal.
    (2019).
    """
    opts = opts or QPOptions()
    L, eps = smoothness_constant(qp), opts.eps
    if not L > 0:
        raise ValueError(f"smoothness constant must be positive, not {L!r}")
    y0 = qp.box.mid if y0 is None else check_array("y0", y0, (qp.m,))
    Qi, qi, lo, hi, objective = qp.Qi, qp.qi, qp.box.lo, qp.box.hi, qp.value

    def pg(y):  # y - qp.gradient(y) / L, clamped onto qp.box
        return np.minimum(np.maximum(y - (Qi @ y + qi) / L, lo), hi)

    mu = opts.mu0
    y_prev_end = y0
    y_start = pg(y0)
    iters = 1  # counts projected / accelerated steps
    best_y = y_start
    best_val = objective(y_start)

    while True:
        diff = y_start - y_prev_end
        C = 16.0 / mu * float(diff @ diff)
        K = max(1, math.ceil(2.0 * math.sqrt(math.e / mu) - 1.0))
        betas, theta_sq = _cycle(K)
        rho = theta_sq / mu
        t = 0
        y = y_start
        while True:
            x_cur = y
            z = y
            for beta in betas:
                x_new = pg(z)
                z = x_new + beta * (x_new - x_cur)
                x_cur = x_new
            iters += K
            y = z
            t += 1
            y_pg = pg(y)
            gap = float(((y_pg - y) ** 2).sum())
            val = objective(y_pg)
            if val < best_val:
                best_val, best_y = val, y_pg
            restart_ok = gap <= C * rho**t
            eps_ok = L * L * gap <= eps * mu / 8.0
            if restart_ok or eps_ok:
                break
            if iters >= opts.max_total_iters:
                return best_y, AdaResResult(iters, mu, False)
        iters += 1
        y_start, y_prev_end = y_pg, y
        if eps_ok:
            return y_start, AdaResResult(iters, mu, True)
        if iters >= opts.max_total_iters:
            return best_y, AdaResResult(iters, mu, False)
        mu *= 0.5


# ---------------------------------------------------------------------------
# optimistic relaxation: per-orthant QP in (u, x_next), solved exactly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OptimisticQP:
    """The optimistic problem over U's k sign orthants: per orthant, `models`
    (k, 4, n, m) holds A_l+, A_s+, A_l-, A_s- in `orthant_rows` order and
    `u_lo`, `u_hi` (k, m) its controls."""

    models: np.ndarray
    u_lo: np.ndarray
    u_hi: np.ndarray
    cost: "QuadraticCost"
    B: Box
    X: Box


@dataclass
class OptimisticInfo:
    """Certificate of the chosen orthant solve.

    `iters` sums the active-set iterations over the solved orthants,
    including those spent proving an orthant infeasible and the rows a
    warm start dropped.  `feasible_orthants` counts the solved orthants
    that are feasible, and `pruned` the orthants whose lower bound ruled
    them out unsolved.  `multipliers` belong to the chosen orthant's rows
    in the order of `orthant_rows`, and `kkt_residual` is the largest of
    its scaled primal infeasibility, negative multiplier, complementarity
    and stationarity residuals.  `active_sets` has one entry per orthant:
    the indices (in `orthant_rows` order) of the rows active at its
    solution, in the order they entered, or None when the orthant has no
    start: it is infeasible or was skipped.  It is the `start` of the next,
    nearby solve.
    """

    orthant: int
    iters: int
    sigma_effect: float
    feasible_orthants: int
    pruned: int
    kkt_residual: float
    multipliers: np.ndarray
    active_sets: tuple


def orthant_rows(oqp: OptimisticQP, j: int):
    """Constraints A y <= b of orthant j in y = (u, x_next).

    Row blocks, in order: x >= B.lo + A_l+ u, x <= B.hi + A_s+ u, the same
    pair for the minus model, u <= u_hi[j], u >= u_lo[j], x <= X.hi and
    x >= X.lo.
    """
    B, X, (n, m) = oqp.B, oqp.X, oqp.models.shape[2:]
    A = _fixed_rows(n, m).copy()
    A[:4 * n, :m] = (oqp.models[j] * _ROW_SIGNS).reshape(4 * n, m)
    b = np.concatenate([-B.lo, B.hi, -B.lo, B.hi, oqp.u_hi[j], -oqp.u_lo[j], X.hi, -X.lo])
    return A, b


@functools.lru_cache(maxsize=16)
def _fixed_rows(n: int, m: int) -> np.ndarray:
    """The `orthant_rows` matrix with its four model blocks in u zero: the
    +-I columns in x of the model rows and the U and X rows, which depend
    only on (n, m).  Read-only; `orthant_rows` fills a copy."""
    Ix, Iu, Z = np.eye(n), np.eye(m), np.zeros((n, m))
    A = np.block([[Z, -Ix], [Z, Ix], [Z, -Ix], [Z, Ix], [Iu, Z.T], [-Iu, Z.T], [Z, Ix], [Z, -Ix]])
    A.flags.writeable = False
    return A


def _kkt_residual(H, h, A, b, y, lam) -> float:
    """Largest scaled KKT residual of (y, lam) for min 0.5 y'Hy + h'y s.t. Ay <= b."""
    slack = A @ y - b
    Hy, Atl = H @ y, A.T @ lam
    b_scale = 1.0 + float(np.abs(b).max(initial=0.0))
    lam_scale = 1.0 + float(np.abs(lam).max(initial=0.0))
    return float(max(
        slack.max(initial=0.0) / b_scale,
        -lam.min(initial=0.0) / lam_scale,
        np.abs(lam * slack).max(initial=0.0) / (b_scale * lam_scale),
        np.abs(Hy + h + Atl).max()
        / (1.0 + max(np.abs(Hy).max(), np.abs(h).max(), np.abs(Atl).max())),
    ))


class _Factor(NamedTuple):
    """What the optimistic solve derives from the cost alone, see `_factor`."""

    H: np.ndarray  # 2M + sigma I, the Hessian the orthant solves minimize
    h: np.ndarray
    Linv: np.ndarray  # L^-1 with H = L L'
    g: np.ndarray  # L^-1 h
    y_min: np.ndarray  # minimizer of 0.5 y'Hy + h'y
    M: np.ndarray  # joint matrix: the cost is y'My + h'y
    y_cost: np.ndarray  # a least-squares stationary point of the cost, 2My = -h
    M_abs: np.ndarray  # |M| and |h|, which scale the bound's rounding margin
    h_abs: np.ndarray


def _factor(cost) -> _Factor:
    """The orthant-independent part of the solve and of its bounds.

    It depends only on the cost, so the cost keeps it (a cost is
    immutable).  The arrays are read-only."""
    if cost._factored is not None:
        return cost._factored
    M = np.block([[cost.R, cost.S.T], [cost.S, cost.Q]])
    H = 2.0 * M + _SIGMA * np.eye(M.shape[0])
    h = np.concatenate([cost.r, cost.q])
    Linv = np.linalg.inv(np.linalg.cholesky(H))
    g = Linv @ h
    fac = _Factor(H, h, Linv, g, -Linv.T @ g, M, np.linalg.pinv(-2.0 * M) @ h,
                  np.abs(M), np.abs(h))
    for a in fac:
        a.flags.writeable = False
    object.__setattr__(cost, "_factored", fac)
    return fac


def _orthant_bounds(oqp: "OptimisticQP", fac: _Factor) -> np.ndarray:
    """A lower bound on each orthant's optimal cost, from a box relaxation.

    Orthant j's rows confine y = (u, x) to the box u in [u_lo[j], u_hi[j]],
    x >= max(B.lo + min_u A_l+- u, X.lo) and x <= min(B.hi + max_u A_s+- u,
    X.hi).  With y0 = `fac.y_cost` clipped into that box and g the cost's
    gradient at y0, convexity gives c(y) >= c(y0) + g'(y - y0) on it, whose
    box minimum is the bound; on a separable cost it is the exact box
    minimum.  An empty box gives +inf: the orthant is infeasible.

    The bound is kept sound against the solve's own inexactness.  The box
    is widened by `_BOUND_WIDEN` (1 + the largest |B|, |U| or |X| bound)
    (1 + the largest row sum of |A|), more than a hundred times what the
    per-row feasibility tolerance 1e-12 (1 + |b_i| + |a_i|.|y|) of
    `_dual_solve_orthant` lets a solution stray from it.  The bound is then
    lowered by `_BOUND_ROUND` (1 + the summed magnitudes of the cost's
    terms on the box), which covers the float rounding of the bound and of
    the orthant's computed value.  So no orthant's computed value lies
    below its bound.
    """
    models, u_lo, u_hi, B, X = oqp.models, oqp.u_lo, oqp.u_hi, oqp.B, oqp.X
    at_lo, at_hi = models * u_lo[:, None, None], models * u_hi[:, None, None]
    x_lo = B.lo + np.minimum(at_lo, at_hi).sum(axis=3)[:, ::2].max(axis=1)
    x_hi = B.hi + np.maximum(at_lo, at_hi).sum(axis=3)[:, 1::2].min(axis=1)
    data = np.abs(np.concatenate([B.lo, B.hi, X.lo, X.hi, u_lo.ravel(), u_hi.ravel()])).max()
    widen = _BOUND_WIDEN * (1.0 + data) * (1.0 + np.abs(models).sum(axis=3).max())
    lo = np.concatenate([u_lo, np.maximum(x_lo, X.lo)], axis=1) - widen
    hi = np.concatenate([u_hi, np.minimum(x_hi, X.hi)], axis=1) + widen
    y0 = np.minimum(np.maximum(fac.y_cost, lo), hi)
    My = y0 @ fac.M
    grad = 2.0 * My + fac.h
    bound = ((My + fac.h) * y0).sum(axis=1) \
        + np.minimum(grad * (lo - y0), grad * (hi - y0)).sum(axis=1)
    z = np.maximum(-lo, hi)
    bound -= _BOUND_ROUND * (1.0 + ((z @ fac.M_abs + fac.h_abs) * z).sum(axis=1))
    bound[(lo > hi).any(axis=1)] = math.inf
    return bound


def _min_angle(cond: float, p: int) -> float:
    """Smallest angle (rad) between a row and span(N) that counts as independence.

    The computed span is accurate only to an angle of about p eps cond(R)
    (cond estimated from R's diagonal), so a smaller angle, or one below
    1e-12 rad, counts as dependence: a full step along a rounding-level
    direction makes the next R singular.
    """
    return max(1e-12, p * _EPS * cond)


def _qr(W, active):
    """Complete Q and square R of the QR of the active columns of W."""
    Q, R = np.linalg.qr(W[:, active], mode="complete")
    return Q, R[: len(active)]


def _equality_point(Q, R, b_act, Linv, g):
    """Minimizer with the active rows held at equality, and their multipliers."""
    q = len(b_act)
    w = np.linalg.solve(R.T, b_act)
    lam_act = -np.linalg.solve(R, w + Q[:, :q].T @ g)
    y = Linv.T @ (Q[:, :q] @ w - Q[:, q:] @ (Q[:, q:].T @ g))
    return y, lam_act


def _enter_start(W, rows, p):
    """Active rows of a warm start, with the QR of their columns of W.

    The rows enter in order until p are active; a row that fails the
    dependence test of a full step against the rows before it is skipped.
    """
    rows = list(rows)
    while True:
        active = rows[:p]
        Q, R = _qr(W, active)
        diag = np.abs(np.diag(R)).tolist()
        norm2 = (W[:, active] ** 2).sum(axis=0).tolist()
        for j, (rj, nj) in enumerate(zip(diag, norm2)):
            angle = _min_angle(max(diag[:j]) / min(diag[:j]) if j else 1.0, p)
            if not rj * rj > angle * angle * nj:
                del rows[j]
                break
        else:
            return active, Q, R


def _dual_solve_orthant(fac, A, b, max_iters, start=None):
    """Exact dual active-set solve (Goldfarb & Idnani) of one orthant QP.

    Minimizes 0.5 y'Hy + h'y subject to A y <= b, with `fac` from
    `_factor` and (A, b) an orthant's `orthant_rows`.  A cold solve
    starts at the unconstrained minimizer.  A warm one enters the
    `start` rows first (see `_enter_start`), holds them at equality and
    drops the row with the most negative multiplier until none is negative;
    each drop counts as one iteration.  From that dual-feasible point the
    method adds in turn the row whose violation most exceeds its own
    tolerance 1e-12 (1 + |b_i| + |a_i|.|y|); while a row enters, each step
    either makes it tight (a full step) or drops the active row whose
    multiplier reaches zero first (a partial step), and each counts as one
    iteration.  Rows are normalized, and the active normals N enter only
    through J = L^-T Q from a QR of L^-1 N, which keeps the steps accurate
    when H is ill-conditioned.  After every full step the active rows hold
    with equality, so y and their multipliers are recomputed in closed form
    rather than carried along.  A `start` entry with an index outside the
    orthant's rows is ignored.

    Returns (iters, solution): `solution` is (y, multipliers of the
    normalized rows, active rows, A, b, row norms), or None when the orthant
    is infeasible, and `iters` counts the iterations in both cases.  Raises
    IterationCapExceeded after `max_iters` iterations.
    """
    Linv, g, y = fac.Linv, fac.g, fac.y_min.copy()  # never return the kept y_min
    norms = np.linalg.norm(A, axis=1)
    A, b = A / norms[:, None], b / norms
    p = A.shape[1]
    W = Linv @ A.T  # L^-1 a_i, one column per row
    lam = np.zeros(A.shape[0])
    active: list = []
    Q, R = np.eye(p), np.zeros((0, 0))
    iters = 0

    def count_iteration():
        nonlocal iters
        if iters >= max_iters:
            raise IterationCapExceeded(
                f"orthant QP not solved within {max_iters} active-set iterations"
            )
        iters += 1

    if start is not None and all(0 <= k < len(b) for k in start):
        active, Q, R = _enter_start(W, start, p)
        while active:
            y_eq, lam_act = _equality_point(Q, R, b[active], Linv, g)
            worst = int(np.argmin(lam_act))
            if lam_act[worst] >= 0.0:
                y, lam[active] = y_eq, lam_act
                break
            count_iteration()
            del active[worst]
            Q, R = _qr(W, active)
    while True:
        viol = A @ y - b
        viol[active] = -math.inf
        if viol.max() <= 1e-12:  # no row's tolerance is smaller
            break
        excess = viol - 1e-12 * (1.0 + np.abs(b) + np.abs(A) @ np.abs(y))
        k = int(np.argmax(excess))
        if excess[k] <= 0.0:
            break
        vk = viol[k]
        while True:  # bring row k into the active set
            count_iteration()
            q = len(active)
            d = Q.T @ W[:, k]
            d2 = d[q:]
            t1, drop, cond = math.inf, -1, 1.0
            if q:
                r = np.linalg.solve(R, d[:q])
                lam_act = lam[active]
                # partial step: the longest one keeping every active multiplier >= 0
                for i in np.flatnonzero(r > 0.0):
                    if lam_act[i] / r[i] < t1:
                        t1, drop = lam_act[i] / r[i], i
                diag = np.abs(np.diag(R))
                cond = diag.max() / diag.min()
            # full step: row k becomes tight; impossible once a_k lies in span(N)
            dz = float(d2 @ d2)
            angle = _min_angle(cond, p)
            t2 = vk / dz if dz > angle * angle * float(d @ d) else math.inf
            if t1 == math.inf and t2 == math.inf:
                return iters, None  # row k cannot be met with the active rows
            t = min(t1, t2)
            if q:
                lam[active] = lam_act - t * r
            lam[k] += t
            full = t2 <= t1
            if full:
                active.append(k)
            else:
                if t2 < math.inf:
                    vk -= t * dz
                lam[active[drop]] = 0.0
                del active[drop]
            Q, R = _qr(W, active)
            if full:
                break
        y, lam[active] = _equality_point(Q, R, b[active], Linv, g)
    return iters, (y, lam, active, A, b, norms)


def solve_optimistic(
    oqp: OptimisticQP,
    opts: Optional[QPOptions] = None,
    start: Optional[tuple] = None,
) -> Tuple[np.ndarray, np.ndarray, float, OptimisticInfo]:
    """Solve the optimistic problem exactly by branch and bound over its
    sign orthants; return the best (u, x, value) and its `OptimisticInfo`.

    The orthants are solved in ascending order of a sound lower bound on
    their cost (`_orthant_bounds`), and an orthant whose bound exceeds the
    best value found so far is skipped unsolved: its value cannot be
    smaller.  The chosen orthant is the one with the smallest (value,
    index) among all orthants, as if every orthant were solved.

    The sigma * I Tikhonov term (sigma = 1e-6) makes the inner problem
    strongly convex; its effect on the reported cost is bounded by
    sigma (|u|^2 + |x|^2), returned in the info record.
    `opts.max_total_iters` caps the active-set iterations of each orthant;
    `opts.eps` and `opts.mu0` do not apply.

    `start` warm-starts each orthant from the active rows of an earlier
    solve, usually the `active_sets` of the previous control step.  It is a
    hint: a start whose length differs from the number of orthants is
    ignored, and so is an entry that is None or names a row the orthant
    does not have.  Consecutive closed-loop steps end on nearly the same
    active sets, so a warm orthant mostly needs no iteration.  Without a
    start every orthant starts cold, from the unconstrained minimizer.
    """
    opts = opts or QPOptions()
    cost, fac, k = oqp.cost, _factor(oqp.cost), len(oqp.models)
    if start is not None and len(start) != k:
        start = None
    # -inf, the trivial bound, where one orthant leaves nothing to order or skip
    bounds = _orthant_bounds(oqp, fac) if k > 1 else [-math.inf] * k
    order = np.argsort(bounds, kind="stable").tolist()
    best = None
    solved = feasible = total_it = 0
    active_sets = [None] * k
    for j in order:
        if best is not None and bounds[j] > best[0]:
            break  # the bounds ascend: no orthant left can beat the best
        solved += 1
        iters, out = _dual_solve_orthant(fac, *orthant_rows(oqp, j), opts.max_total_iters,
                                         None if start is None else start[j])
        total_it += iters
        if out is None:
            continue
        y, _, active = out[:3]
        active_sets[j] = tuple(int(i) for i in active)
        feasible += 1
        val = cost.value(y[:cost.m], y[cost.m:])
        if best is None or (val, j) < best[:2]:
            best = (val, j, out)
    if best is None:
        raise AllOrthantsInfeasible(f"all {k} orthant subproblems are infeasible")
    val, best_orth, (y, lam, _, A, b, norms) = best
    u, x = y[:cost.m], y[cost.m:]
    return u, x, val, OptimisticInfo(
        orthant=best_orth, iters=total_it, sigma_effect=_SIGMA * float(u @ u + x @ x),
        feasible_orthants=feasible, pruned=k - solved,
        kkt_residual=_kkt_residual(fac.H, fac.h, A, b, y, lam),
        multipliers=lam / norms, active_sets=tuple(active_sets),
    )


# ---------------------------------------------------------------------------
# exact small-instance oracle
# ---------------------------------------------------------------------------

def oracle_boxqp(qp: BoxQP) -> Tuple[np.ndarray, float]:
    """Exact box-QP solution by enumerating all 3^m active-set patterns.

    Each coordinate is pinned at its lower bound, upper bound, or left free;
    the free block is solved exactly and infeasible or non-stationary patterns
    are discarded.  Exact for convex problems with m <= 6.
    """
    m = qp.m
    if m > 6:
        raise ValueError("oracle limited to m <= 6")
    lo, hi = qp.box.lo, qp.box.hi
    best_u, best_val = None, math.inf
    for pattern in itertools.product((0, 1, 2), repeat=m):
        u = np.where(np.array(pattern) == 1, hi, lo).astype(float)
        free = [l for l in range(m) if pattern[l] == 2]
        if free:
            fixed = [l for l in range(m) if pattern[l] != 2]
            Qff = qp.Qi[np.ix_(free, free)]
            rhs = -(qp.qi[free] + qp.Qi[np.ix_(free, fixed)] @ u[fixed])
            try:
                uf = np.linalg.solve(Qff, rhs)
            except np.linalg.LinAlgError:
                uf, *_ = np.linalg.lstsq(Qff, rhs, rcond=None)
                if not np.allclose(Qff @ uf, rhs, atol=1e-9 * (1 + np.abs(rhs).max())):
                    continue  # no stationary point on this face
            if np.any(uf < lo[free] - 1e-12) or np.any(uf > hi[free] + 1e-12):
                continue
            u[free] = np.clip(uf, lo[free], hi[free])
        val = qp.value(u)
        if val < best_val:
            best_u, best_val = u, val
    return best_u, best_val
