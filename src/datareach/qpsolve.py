"""Solvers for the one-step control relaxations.

`solve_idealistic` solves a box-constrained QP by accelerated projected
gradient with adaptive restart and geometric refinement of the local
quadratic-growth estimate; it reaches eps-optimality without knowing the
growth constant.  `solve_optimistic` solves each sign-orthant piece of the
coupled (u, next-state) QP exactly with the dual active-set method of
Goldfarb & Idnani ("A numerically stable dual method for solving strictly
convex quadratic programs", Math. Prog. 1983).  It factors the cost once for
all orthants and can start each orthant from the active rows of an earlier
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
from typing import Optional, Tuple

import numpy as np

from .errors import AllOrthantsInfeasible, IterationCapExceeded, check_count, check_positive
from .intervals import Box

_L_MIN_SCALE = 1e-12
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class BoxQP:
    """minimize 0.5 u' Qi u + qi' u + pi over a box."""

    Qi: np.ndarray
    qi: np.ndarray
    box: Box
    pi: float = 0.0

    def __post_init__(self):
        Qi = np.asarray(self.Qi, dtype=float)
        qi = np.asarray(self.qi, dtype=float)
        if Qi.shape != (qi.shape[0], qi.shape[0]):
            raise ValueError("Qi/qi shapes disagree")
        if not (np.isfinite(Qi).all() and np.isfinite(qi).all() and np.isfinite(self.pi)):
            raise ValueError("Qi, qi and pi must be finite")
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
    certified eps-optimality at `y`; otherwise the iteration cap stopped the
    solve and `y` is the best point seen."""

    y: np.ndarray
    iters: int
    mu_estimate: float
    converged: bool
    objective: float
    cycles: int


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


def box_project(v: np.ndarray, box: Box) -> np.ndarray:
    """Componentwise clamp onto a box."""
    return np.minimum(np.maximum(np.asarray(v, dtype=float), box.lo), box.hi)


def _theta_seq(K: int) -> np.ndarray:
    """theta_0..theta_K with theta_{k+1}^2 = (1 - theta_{k+1}) theta_k^2 (positive root)."""
    th = np.empty(K + 1)
    th[0] = 1.0
    for k in range(K):
        t = th[k]
        th[k + 1] = 0.5 * (-t * t + t * math.sqrt(t * t + 4.0))
    return th


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
    y0 = qp.box.mid if y0 is None else np.asarray(y0, dtype=float)
    grad, objective, box = qp.gradient, qp.value, qp.box

    def pg(y):
        return box_project(y - grad(y) / L, box)

    mu = opts.mu0
    y_prev_end = y0
    y_start = pg(y0)
    iters = 1  # counts projected / accelerated steps
    best_y = y_start
    best_val = objective(y_start)
    cycles = 0

    while True:
        diff = y_start - y_prev_end
        C = 16.0 / mu * float(diff @ diff)
        K = max(1, math.ceil(2.0 * math.sqrt(math.e / mu) - 1.0))
        thetas = _theta_seq(K)
        rho = thetas[K - 1] ** 2 / mu
        t = 0
        y = y_start
        while True:
            x_cur = y
            z = y
            for k in range(K):
                x_new = box_project(z - grad(z) / L, box)
                beta = thetas[k] * (1.0 - thetas[k]) / (thetas[k] ** 2 + thetas[k + 1])
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
                return best_y, AdaResResult(best_y, iters, mu, False, best_val, cycles)
        cycles += 1
        iters += 1
        y_start, y_prev_end = y_pg, y
        if eps_ok:
            return y_start, AdaResResult(y_start, iters, mu, True, objective(y_start), cycles)
        if iters >= opts.max_total_iters:
            return best_y, AdaResResult(best_y, iters, mu, False, best_val, cycles)
        mu *= 0.5


# ---------------------------------------------------------------------------
# optimistic relaxation: per-orthant QP in (u, x_next), solved exactly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrthantQP:
    """One sign-orthant piece of the optimistic problem."""

    A_s_plus: np.ndarray
    A_l_plus: np.ndarray
    A_s_minus: np.ndarray
    A_l_minus: np.ndarray
    Ubox: Box


@dataclass(frozen=True)
class OptimisticQP:
    orthants: tuple
    cost: "QuadraticCost"
    B: Box
    X: Box


@dataclass
class OptimisticInfo:
    """Certificate of the chosen orthant solve.

    `iters` sums the active-set iterations over all orthants, including
    those spent proving an orthant infeasible and the rows a warm start
    dropped.  `multipliers` belong to the chosen orthant's rows in the order
    of `orthant_rows`, and `kkt_residual` is the largest of its scaled
    primal infeasibility, negative multiplier, complementarity and
    stationarity residuals.  `active_sets` has one entry per orthant: the
    indices (in `orthant_rows` order) of the rows active at its solution,
    in the order they entered, or None if the orthant is infeasible.  It is
    the `start` of the next, nearby solve.
    """

    orthant: int
    iters: int
    sigma_effect: float
    feasible_orthants: int
    kkt_residual: float
    multipliers: np.ndarray
    active_sets: tuple


def orthant_rows(B: Box, X: Box, orth: OrthantQP):
    """Constraints A y <= b of one orthant in y = (u, x_next).

    Row blocks, in order: x >= B.lo + A_l+ u, x <= B.hi + A_s+ u, the same
    pair for the minus model, u <= Ubox.hi, u >= Ubox.lo, x <= X.hi and
    x >= X.lo.
    """
    m = orth.Ubox.lo.shape[0]
    n = B.lo.shape[0]
    A = _fixed_rows(n, m).copy()
    A[:n, :m] = orth.A_l_plus
    np.negative(orth.A_s_plus, out=A[n:2 * n, :m])
    A[2 * n:3 * n, :m] = orth.A_l_minus
    np.negative(orth.A_s_minus, out=A[3 * n:4 * n, :m])
    neg_lo = -B.lo
    b = np.concatenate(
        [neg_lo, B.hi, neg_lo, B.hi,
         orth.Ubox.hi, -orth.Ubox.lo, X.hi, -X.lo]
    )
    return A, b


@functools.lru_cache(maxsize=16)
def _fixed_rows(n: int, m: int) -> np.ndarray:
    """The `orthant_rows` matrix with its four model blocks in u zero: the
    +-I columns in x of the model rows and the U and X rows, which depend
    only on (n, m).  Read-only; `orthant_rows` fills a copy."""
    Ix, Iu = np.eye(n), np.eye(m)
    A = np.zeros((6 * n + 2 * m, m + n))
    for k, right in enumerate((-Ix, Ix, -Ix, Ix)):
        A[k * n:(k + 1) * n, m:] = right
    A[4 * n:4 * n + m, :m] = Iu
    A[4 * n + m:4 * n + 2 * m, :m] = -Iu
    A[4 * n + 2 * m:5 * n + 2 * m, m:] = Ix
    A[5 * n + 2 * m:, m:] = -Ix
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


def _factor(cost, sigma):
    """The orthant-independent part of the solve: H = 2M + sigma I, h,
    L^-1 with H = L L', g = L^-1 h and the unconstrained minimizer.

    It depends only on the cost and sigma, so the cost keeps the factor of
    the last sigma it was solved with (a cost is immutable).  The arrays
    are read-only."""
    kept = cost._factored
    if kept is not None and kept[0] == sigma:
        return kept[1]
    M = np.block([[cost.R, cost.S.T], [cost.S, cost.Q]])
    H = 2.0 * M + sigma * np.eye(M.shape[0])
    h = np.concatenate([cost.r, cost.q])
    Linv = np.linalg.inv(np.linalg.cholesky(H))
    g = Linv @ h
    fac = (H, h, Linv, g, -Linv.T @ g)
    for a in fac:
        a.flags.writeable = False
    object.__setattr__(cost, "_factored", (sigma, fac))
    return fac


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


def _dual_solve_orthant(fac, B, X, orth: OrthantQP, max_iters, start=None):
    """Exact dual active-set solve (Goldfarb & Idnani) of one orthant QP.

    Minimizes 0.5 y'Hy + h'y subject to A y <= b, with `fac` = `_factor`'s
    (H, h, L^-1, g, unconstrained minimizer).  A cold solve starts at the
    unconstrained minimizer.  A warm one enters the `start` rows first (see
    `_enter_start`), holds them at equality and drops the row with the most
    negative multiplier until none is negative; each drop counts as one
    iteration.  From that dual-feasible point the method adds the most
    violated row in turn; while a row enters, each step either makes it
    tight (a full step) or drops the active row whose multiplier reaches
    zero first (a partial step), and each counts as one iteration.  Rows
    are normalized, and the active normals N enter only through J = L^-T Q
    from a QR of L^-1 N, which keeps the steps accurate when H is
    ill-conditioned.  After every full step the active rows hold with
    equality, so y and their multipliers are recomputed in closed form
    rather than carried along.  A `start` entry with an index outside the
    orthant's rows is ignored.

    Returns (iters, solution): `solution` is (y, multipliers of the
    normalized rows, active rows, A, b, row norms), or None when the orthant
    is infeasible, and `iters` counts the iterations in both cases.  Raises
    IterationCapExceeded after `max_iters` iterations.
    """
    _, _, Linv, g, y = fac
    y = y.copy()  # the solution may be the kept minimizer; return a fresh array
    A, b = orthant_rows(B, X, orth)
    norms = np.linalg.norm(A, axis=1)
    A, b = A / norms[:, None], b / norms
    p = A.shape[1]
    W = Linv @ A.T  # L^-1 a_i, one column per row
    lam = np.zeros(A.shape[0])
    active: list = []
    Q, R = np.eye(p), np.zeros((0, 0))
    tol = 1e-12 * (1.0 + float(np.abs(b).max(initial=0.0)))
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
        k = int(np.argmax(viol))
        if viol[k] <= tol:
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
    sigma: float = 1e-6,
    start: Optional[tuple] = None,
) -> Tuple[np.ndarray, np.ndarray, float, OptimisticInfo]:
    """Solve every sign-orthant subproblem exactly; return the best (u, x,
    value) and its `OptimisticInfo`.

    The sigma * I Tikhonov term makes the inner problem strongly convex; its
    effect on the reported cost is bounded by sigma (|u|^2 + |x|^2), returned
    in the info record.  `opts.max_total_iters` caps the active-set
    iterations of each orthant; `opts.eps` and `opts.mu0` do not apply.

    `start` warm-starts each orthant from the active rows of an earlier
    solve, usually the `active_sets` of the previous control step.  It is a
    hint: a start whose length differs from the number of orthants is
    ignored, and so is an entry that is None or names a row the orthant
    does not have.  Consecutive closed-loop steps end on nearly the same
    active sets, so a warm orthant mostly needs no iteration.  Without a
    start every orthant starts cold, from the unconstrained minimizer.
    """
    opts = opts or QPOptions()
    cost = oqp.cost
    fac = _factor(cost, sigma)
    if start is not None and len(start) != len(oqp.orthants):
        start = None
    best = None
    best_orth = -1
    feasible = 0
    total_it = 0
    active_sets = []
    for j, orth in enumerate(oqp.orthants):
        iters, out = _dual_solve_orthant(
            fac, oqp.B, oqp.X, orth, opts.max_total_iters,
            None if start is None else start[j],
        )
        total_it += iters
        if out is None:
            active_sets.append(None)
            continue
        y, _, active = out[:3]
        active_sets.append(tuple(int(k) for k in active))
        feasible += 1
        u, x = y[:cost.m], y[cost.m:]
        val = cost.value(u, x)
        if best is None or val < best[2]:
            best = (u, x, val, out)
            best_orth = j
    if best is None:
        raise AllOrthantsInfeasible(
            f"all {len(oqp.orthants)} orthant subproblems are infeasible"
        )
    u, x, val, (y, lam, _, A, b, norms) = best
    return u, x, val, OptimisticInfo(
        orthant=best_orth, iters=total_it, sigma_effect=sigma * float(u @ u + x @ x),
        feasible_orthants=feasible, kkt_residual=_kkt_residual(*fac[:2], A, b, y, lam),
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
