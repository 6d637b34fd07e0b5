import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import assert_matches_exhaustive, exhaustive_optimistic
from datareach.control import (
    AffineOverApprox, QuadraticCost, assemble_optimistic, subopt_bound,
)
from datareach.errors import AllOrthantsInfeasible, EmptyIntersection, IterationCapExceeded
from datareach.intervals import Box, imat_vec, meet
from datareach.qpsolve import (
    BoxQP,
    QPOptions,
    _SIGMA,
    _dual_solve_orthant,
    _factor,
    _fixed_rows,
    _orthant_bounds,
    oracle_boxqp,
    orthant_rows,
    solve_idealistic,
    solve_optimistic,
)

EPS = 1e-8


def random_boxqp(rng):
    m = int(rng.integers(1, 4))
    A = rng.normal(size=(m, m + 1))
    Qi = A @ A.T * rng.uniform(0.1, 4)
    if rng.random() < 0.25:
        Qi = np.zeros((m, m))  # degenerate box LP
    qi = rng.normal(size=m) * rng.uniform(0.5, 3)
    lo = rng.uniform(-3, 0, m)
    hi = lo + rng.uniform(0.5, 4, m)
    return BoxQP(Qi, qi, Box(lo, hi))


class TestBoxQPValidation:
    @pytest.mark.parametrize("Qi, qi, message", [
        (np.eye(2), np.zeros(3), "Qi/qi shapes disagree"),
        (np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2), "Qi must be symmetric"),
        (np.diag([1.0, -1.0]), np.zeros(2), "Qi must be positive semidefinite"),
    ])
    def test_direct_construction_is_checked(self, Qi, qi, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            BoxQP(Qi, qi, Box([-1.0, -1.0], [1.0, 1.0]))

    @pytest.mark.parametrize("Qi, qi, pi, key", [
        (np.eye(2), [math.nan, 0.0], 0.0, "qi"),
        (np.diag([math.inf, 1.0]), np.zeros(2), 0.0, "Qi"),
        (np.eye(2), np.zeros(2), math.nan, "pi"),
    ], ids=["qi_nan", "Qi_inf", "pi_nan"])
    def test_non_finite_data_rejected(self, Qi, qi, pi, key):
        with pytest.raises(ValueError, match=f"^{key} must be finite, not "):
            BoxQP(Qi, qi, Box([-1.0, -1.0], [1.0, 1.0]), pi)


class TestOracle:
    def test_separable_hand_case(self):
        qp = BoxQP(2.0 * np.eye(2), np.array([-4.0, 0.0]), Box([-1, -1], [1, 1]))
        u, val = oracle_boxqp(qp)
        assert u == pytest.approx([1.0, 0.0])
        assert val == pytest.approx(-3.0)

    def test_linear_case(self):
        qp = BoxQP(np.zeros((1, 1)), np.array([1.0]), Box([-1.0], [1.0]))
        u, val = oracle_boxqp(qp)
        assert u == pytest.approx([-1.0])
        assert val == pytest.approx(-1.0)


class TestAdaRes:
    def test_interior_optimum(self):
        qp = BoxQP(np.array([[1.0]]), np.array([0.0]), Box([-1.0], [1.0]))
        u, _ = solve_idealistic(qp, y0=np.array([0.5]))
        assert abs(u[0]) <= 1e-4  # eps-optimal in objective => |u| <= sqrt(2 eps)
        assert qp.value(u) <= EPS

    def test_active_bound(self):
        qp = BoxQP(np.array([[1.0]]), np.array([-2.0]), Box([-1.0], [1.0]))
        u, _ = solve_idealistic(qp)
        assert u[0] == pytest.approx(1.0, abs=1e-6)

    def test_linear_sign_rule(self):
        qp = BoxQP(np.zeros((2, 2)), np.array([1.0, -1.0]), Box([-1, -1], [1, 1]))
        u, _ = solve_idealistic(qp)
        assert u == pytest.approx([-1.0, 1.0], abs=1e-9)

    def test_feasibility_always(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            qp = random_boxqp(rng)
            u, _ = solve_idealistic(qp)
            assert np.all(u >= qp.box.lo - 1e-15)
            assert np.all(u <= qp.box.hi + 1e-15)

    def test_eps_optimality_100_random(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            qp = random_boxqp(rng)
            _, l_star = oracle_boxqp(qp)
            u, info = solve_idealistic(qp, QPOptions(eps=EPS))
            assert info.converged
            assert qp.value(u) - l_star <= EPS

    def test_equals_the_plain_loop_bitwise(self):
        """The kept cycle weights and bound QP data give the iterates of the
        loop that recomputes them, bit for bit, over many cycle lengths."""
        from datareach.qpsolve import AdaResResult, _theta_seq, smoothness_constant

        def reference(qp, opts, y0):
            L, eps = smoothness_constant(qp), opts.eps

            def pg(y):  # the gradient step clamped onto the box
                return np.minimum(np.maximum(y - qp.gradient(y) / L, qp.box.lo), qp.box.hi)

            mu, y_prev_end, y_start, iters = opts.mu0, y0, pg(y0), 1
            best_y, best_val = y_start, qp.value(y_start)
            while True:
                C = 16.0 / mu * float((y_start - y_prev_end) @ (y_start - y_prev_end))
                K = max(1, math.ceil(2.0 * math.sqrt(math.e / mu) - 1.0))
                th = _theta_seq(K)
                rho, t, y = th[K - 1] ** 2 / mu, 0, y_start
                while True:
                    x_cur = z = y
                    for k in range(K):
                        x_new = pg(z)
                        z = x_new + th[k] * (1.0 - th[k]) / (th[k] ** 2 + th[k + 1]) * (
                            x_new - x_cur)
                        x_cur = x_new
                    iters, y, t = iters + K, z, t + 1
                    y_pg = pg(y)
                    gap, val = float(((y_pg - y) ** 2).sum()), qp.value(y_pg)
                    if val < best_val:
                        best_val, best_y = val, y_pg
                    eps_ok = L * L * gap <= eps * mu / 8.0
                    if gap <= C * rho**t or eps_ok:
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

        rng = np.random.default_rng(8)
        for k in range(120):
            qp = random_boxqp(rng)
            opts = QPOptions(eps=EPS, mu0=float(rng.choice([1.0, 1e-2, 1e-4])),
                             max_total_iters=int(rng.choice([50, 5000])))
            y0 = qp.box.lo + rng.uniform(0, 1, qp.m) * qp.box.width
            (u, info), (u_ref, info_ref) = solve_idealistic(qp, opts, y0), reference(qp, opts, y0)
            assert u.tobytes() == u_ref.tobytes() and info == info_ref

    def test_iteration_bound(self):
        """N_hat stays under the certified cap whenever mu0 <= measured mu."""
        rng = np.random.default_rng(123)
        checked = 0
        mu0 = 1.0
        for _ in range(100):
            qp = random_boxqp(rng)
            _, l_star = oracle_boxqp(qp)
            u, info = solve_idealistic(qp, QPOptions(eps=EPS, mu0=mu0))
            if not (info.converged and mu0 <= info.mu_estimate):
                continue
            delta = qp.value(qp.box.mid) - l_star
            if 16 * delta / (EPS * mu0) < math.e:
                continue  # bound degenerates for already-optimal starts
            K0 = math.ceil(2 * math.sqrt(math.e / mu0) - 1)
            cap = K0 * math.ceil(math.log(16 * delta / (EPS * mu0)))
            assert info.iters <= cap
            checked += 1
        assert checked >= 20  # the property must actually bite

    def test_restart_objective_monotone(self):
        rng = np.random.default_rng(5)
        qp = random_boxqp(rng)
        seen = []

        class SpyQP(BoxQP):
            def value(self, u):
                v = super().value(u)
                seen.append(v)
                return v

        solve_idealistic(SpyQP(qp.Qi, qp.qi, qp.box, qp.pi), QPOptions(eps=EPS))
        # objective at successive restart evaluations never increases much
        assert all(b <= a + 1e-12 for a, b in zip(seen, seen[1:]))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            qp = random_boxqp(rng)
            u = rng.uniform(qp.box.lo, qp.box.hi)
            g = qp.gradient(u)
            fd = np.empty_like(g)
            h = 1e-6
            for i in range(len(u)):
                e = np.zeros_like(u)
                e[i] = h
                fd[i] = (qp.value(u + e) - qp.value(u - e)) / (2 * h)
            scale = 1.0 + np.abs(g).max()
            assert np.allclose(g, fd, atol=1e-6 * scale, rtol=1e-6)

    def test_non_positive_smoothness_rejected(self):
        """A QP whose smoothness constant is not positive (here NaN) is
        rejected before any iteration."""
        qp = BoxQP._prechecked(np.full((1, 1), math.nan), np.zeros(1), Box([-1.0], [1.0]), 0.0)
        with pytest.raises(ValueError, match="smoothness constant must be positive"):
            solve_idealistic(qp)

    def test_iteration_cap_returns_best(self):
        qp = BoxQP(np.diag([100.0, 1.0]), np.array([1.0, -1.0]),
                   Box([-1, -1], [1, 1]))
        u, info = solve_idealistic(qp, QPOptions(eps=1e-14, max_total_iters=8))
        assert not info.converged
        assert np.all(u >= qp.box.lo) and np.all(u <= qp.box.hi)


# ---------------------------------------------------------------------------
# optimistic relaxation
# ---------------------------------------------------------------------------

def _inner_min(cost, B, Ap, Am, X, Ug):
    """Closed-form inner minimization over x for each candidate u (Q diagonal)."""
    dQ = np.diag(cost.Q)
    best, ubest = np.inf, None
    for u in Ug:
        def colbnd(A):
            lo = np.where(u[None, :] >= 0, A.lo, A.hi) @ u
            hi = np.where(u[None, :] >= 0, A.hi, A.lo) @ u
            return lo, hi

        lp, hp = colbnd(Ap)
        lm, hm = colbnd(Am)
        xlo = np.maximum.reduce([B.lo + lp, B.lo + lm, X.lo])
        xhi = np.minimum.reduce([B.hi + hp, B.hi + hm, X.hi])
        if np.any(xlo > xhi + 1e-12):
            continue
        lin = 2 * cost.S @ u + cost.q
        xs = np.where(
            dQ > 1e-12, np.clip(-lin / (2 * dQ), xlo, xhi),
            np.where(lin > 0, xlo, xhi),
        )
        v = cost.value(u, xs)
        if v < best:
            best, ubest = v, u
    return best, ubest


def grid_oracle(cost, aff, U, X, n_grid=101):
    """Dense u-grid with one refinement pass around the winner."""
    B, Ap, Am = aff.B, aff.Aplus, aff.Aminus
    axes = [np.linspace(U.lo[l], U.hi[l], n_grid) for l in range(len(U))]
    Ug = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    best, ubest = _inner_min(cost, B, Ap, Am, X, Ug)
    span = [(U.hi[l] - U.lo[l]) / (n_grid - 1) for l in range(len(U))]
    axes = [
        np.linspace(max(U.lo[l], ubest[l] - 2 * span[l]),
                    min(U.hi[l], ubest[l] + 2 * span[l]), n_grid)
        for l in range(len(U))
    ]
    Ug = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    best2, _ = _inner_min(cost, B, Ap, Am, X, Ug)
    return min(best, best2)


class TestOptimistic:
    def test_orthant_count(self):
        cost = QuadraticCost(np.eye(2), np.eye(2), np.zeros((2, 2)),
                             np.zeros(2), np.zeros(2))
        aff = AffineOverApprox(Box.point([0.0, 0.0]),
                               Box.point(np.eye(2)), Box.point(np.eye(2)))
        X = Box([-5.0, -5.0], [5.0, 5.0])
        for U, k in ((Box([0, 0], [1, 2]), 1), (Box([-1, 0], [1, 2]), 2),
                     (Box([-1, -1], [1, 2]), 4)):
            oqp = assemble_optimistic(cost, aff, U, X)
            assert oqp.models.shape == (k, 4, 2, 2)
            assert oqp.u_lo.shape == oqp.u_hi.shape == (k, 2)

    def test_degenerate_matches_idealistic(self):
        from datareach.control import assemble_idealistic, idealistic_coeffs

        rng = np.random.default_rng(2)
        A = rng.normal(size=(4, 5))
        M = A @ A.T / 4
        cost = QuadraticCost(M[:2, :2], M[2:, 2:], M[:2, 2:],
                             rng.normal(size=2), rng.normal(size=2))
        B = Box.point(rng.normal(size=2))
        Amat = Box.point(rng.normal(size=(2, 2)))
        aff = AffineOverApprox(B, Amat, Amat)
        U = Box([-1.0, -1.0], [1.0, 1.0])
        X = Box([-50.0, -50.0], [50.0, 50.0])
        u_o, x_o, c_o, _ = solve_optimistic(assemble_optimistic(cost, aff, U, X))
        A_ide, b_ide = idealistic_coeffs(aff, 0.3, 0.8)  # weights moot at width 0
        u_i, _ = solve_idealistic(assemble_idealistic(cost, A_ide, b_ide, U))
        assert c_o == pytest.approx(cost.value(u_i, b_ide + A_ide @ u_i), abs=1e-6)
        assert np.allclose(u_o, u_i, atol=1e-4)

    def test_disjoint_boxes_infeasible(self):
        cost = QuadraticCost(np.eye(1), np.eye(1), np.zeros((1, 1)),
                             np.zeros(1), np.zeros(1))
        aff = AffineOverApprox(Box([0.0], [1.0]),
                               Box.point([[0.1]]), Box.point([[0.1]]))
        U = Box([0.0], [1.0])
        X = Box([10.0], [11.0])  # unreachable next-state box
        with pytest.raises(AllOrthantsInfeasible):
            solve_optimistic(assemble_optimistic(cost, aff, U, X))

    def test_random_instances_match_grid_oracle(self):
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(12):
            n, m = 2, int(rng.integers(1, 3))
            cost = QuadraticCost(
                np.diag(rng.uniform(0.1, 2, n)), np.diag(rng.uniform(0.05, 1, m)),
                np.zeros((n, m)), rng.normal(size=n), rng.normal(size=m),
            )
            Blo = rng.normal(size=n)
            B = Box(Blo, Blo + rng.uniform(0, 0.5, n))
            Alo = rng.normal(size=(n, m))
            Ap = Box(Alo, Alo + rng.uniform(0, 0.4, (n, m)))
            Alo2 = Ap.lo - rng.uniform(0, 0.2, (n, m))
            Am = Box(Alo2, Alo2 + rng.uniform(0, 0.6, (n, m)))
            U = Box(rng.uniform(-2, -0.5, m), rng.uniform(0.5, 2, m))
            X = Box(np.full(n, -20.0), np.full(n, 20.0))
            aff = AffineOverApprox(B, Ap, Am)
            try:
                _, _, c_o, _ = solve_optimistic(assemble_optimistic(cost, aff, U, X))
            except AllOrthantsInfeasible:
                continue
            assert abs(c_o - grid_oracle(cost, aff, U, X)) <= 1e-4
            checked += 1
        assert checked >= 8

    def test_certificate_satisfies_kkt(self):
        """The chosen orthant's (u, x) and multipliers are a KKT point.

        Random orthant problems with rank-deficient, non-diagonal joint costs
        (S != 0), a third of them with A+ = A-.  The tolerances are fixed
        from float64 rounding, scaled by the data.
        """
        rng = np.random.default_rng(11)
        checked = 0
        for k in range(100):
            cost, aff, U, X = random_orthant_problem(rng, same_models=k % 3 == 0)
            oqp = assemble_optimistic(cost, aff, U, X)
            try:
                u, x, val, info = solve_optimistic(oqp)
            except AllOrthantsInfeasible:
                continue
            A, b = orthant_constraints(oqp, info.orthant)
            lam = info.multipliers
            y = np.concatenate([u, x])
            p = y.size
            M = np.block([[cost.R, cost.S.T], [cost.S, cost.Q]])
            H = 2.0 * M + _SIGMA * np.eye(p)
            h = np.concatenate([cost.r, cost.q])
            slack = A @ y - b
            b_scale = 1.0 + np.abs(b).max()
            lam_scale = 1.0 + np.abs(lam).max()
            assert slack.max() <= 1e-9 * b_scale
            assert lam.min() >= -1e-12 * lam_scale
            assert np.abs(lam * slack).max() <= 1e-9 * b_scale * lam_scale
            grad = H @ y + h + A.T @ lam
            grad_scale = 1.0 + np.abs(h).max() + np.abs(H @ y).max() + np.abs(A.T @ lam).max()
            assert np.abs(grad).max() <= 1e-9 * grad_scale
            assert info.kkt_residual <= 1e-9
            assert val == pytest.approx(cost.value(u, x), abs=0.0)
            checked += 1
        assert checked >= 80

    def test_iters_count_infeasible_orthants(self):
        """Iterations spent proving a solved orthant infeasible are counted.

        x1 = u1 + u2 in [-0.5, 0] and x2 = u2 in [0.5, 1]: the u1 >= 0
        orthant is infeasible, but its box relaxation is not empty, and the
        cost, smallest at u1 = 2, gives it the lower bound.  So it is solved
        first, and the u1 <= 0 orthant after it.
        """
        cost = QuadraticCost(np.eye(2), np.eye(2), np.zeros((2, 2)),
                             np.zeros(2), np.array([-4.0, 0.0]))
        A = Box.point([[1.0, 1.0], [0.0, 1.0]])
        aff = AffineOverApprox(Box.point([0.0, 0.0]), A, A)
        oqp = assemble_optimistic(cost, aff, Box([-3.0, 0.0], [3.0, 1.0]),
                                  Box([-0.5, 0.5], [0.0, 1.0]))
        assert oqp.u_hi[0, 0] == 0.0 and oqp.u_lo[1, 0] == 0.0
        fac = _factor(cost)
        bounds = _orthant_bounds(oqp, fac)
        assert bounds[1] < bounds[0] < math.inf
        infeasible_iters, out = _dual_solve_orthant(fac, *orthant_rows(oqp, 1), 100)
        assert out is None and infeasible_iters > 0
        _, _, _, feasible_only = solve_optimistic(subproblem(oqp, [0]))
        _, _, _, info = solve_optimistic(oqp)
        assert (info.orthant, info.feasible_orthants, info.pruned) == (0, 1, 0)
        assert info.active_sets[1] is None
        assert info.iters == infeasible_iters + feasible_only.iters

    @pytest.mark.parametrize("k", [0, 1, 2, 5, 17, 40])
    def test_orthant_rows_match_a_reference_construction(self, k):
        """Bit for bit, for every orthant, across problem shapes; writing
        into a returned A or b leaves the next call unchanged."""
        oqp = kkt_problems()[k]
        for j in range(len(oqp.models)):
            ref_A, ref_b = orthant_constraints(oqp, j)
            A, b = orthant_rows(oqp, j)
            assert A.tobytes() == ref_A.tobytes() and b.tobytes() == ref_b.tobytes()
            A[:] = 7.0
            b[:] = 7.0
            A, b = orthant_rows(oqp, j)
            assert A.tobytes() == ref_A.tobytes() and b.tobytes() == ref_b.tobytes()

    def test_rows_allow_the_model_meet(self):
        """The sign rule against the model, not against the row format.  At
        each vertex of every orthant's u box and at one interior u, the
        x-interval the orthant's rows allow is meet(B + A+ u, B + A- u) cut
        to X, within 1e-12 relative; where that meet is empty the rows allow
        no x."""
        rng = np.random.default_rng(19)
        met = empty = 0
        for k in range(60):
            cost, aff, U, X = random_orthant_problem(rng, same_models=k % 3 == 0)
            oqp = assemble_optimistic(cost, aff, U, X)
            m = cost.m
            assert len(oqp.models) == 2 ** m  # every axis of U holds 0 inside
            for j in range(len(oqp.models)):
                lo, hi = oqp.u_lo[j], oqp.u_hi[j]
                assert U.encloses(Box(lo, hi)) and np.all((lo >= 0.0) | (hi <= 0.0))
                A, b = orthant_rows(oqp, j)
                corners = [np.where(c, hi, lo) for c in itertools.product((0, 1), repeat=m)]
                for u in corners + [lo + rng.uniform(0.1, 0.9, m) * (hi - lo)]:
                    rhs = b - A[:, :m] @ u
                    x_lo, x_hi = np.full(cost.n, -math.inf), np.full(cost.n, math.inf)
                    for a, r in zip(A[:, m:], rhs):
                        if not a.any():
                            assert r >= 0.0  # a u row: u lies in the orthant
                            continue
                        (c,) = np.flatnonzero(a)
                        if a[c] > 0.0:
                            x_hi[c] = min(x_hi[c], r / a[c])
                        else:
                            x_lo[c] = max(x_lo[c], r / a[c])
                    try:
                        model = meet(aff.B + imat_vec(aff.Aplus, u),
                                     aff.B + imat_vec(aff.Aminus, u))
                    except EmptyIntersection:
                        assert np.any(x_lo > x_hi)
                        empty += 1
                        continue
                    ref_lo, ref_hi = np.maximum(model.lo, X.lo), np.minimum(model.hi, X.hi)
                    for got, ref in ((x_lo, ref_lo), (x_hi, ref_hi)):
                        assert np.all(np.abs(got - ref) <= 1e-12 * (1.0 + np.abs(ref)))
                    met += 1
        assert met >= 600 and empty >= 20

    def test_iteration_cap_raises(self):
        rng = np.random.default_rng(3)
        cost, aff, _, X = random_orthant_problem(rng, same_models=False)
        U = Box(np.zeros(cost.m), np.full(cost.m, 2.0))  # one orthant
        oqp = assemble_optimistic(cost, aff, U, X)
        _, _, _, info = solve_optimistic(oqp)
        assert info.iters > 1
        with pytest.raises(IterationCapExceeded):
            solve_optimistic(oqp, QPOptions(max_total_iters=1))


def random_orthant_problem(rng, same_models):
    """Orthant problem with n in 2..6, m in 1..2 and a rank-deficient joint cost."""
    n, m = int(rng.integers(2, 7)), int(rng.integers(1, 3))
    F = rng.normal(size=(n + m, int(rng.integers(1, n + m))))
    J = F @ F.T * rng.uniform(0.1, 2.0)  # joint matrix in (u, x) order
    cost = QuadraticCost(J[m:, m:], J[:m, :m], J[m:, :m],
                         rng.normal(size=n), rng.normal(size=m))
    Blo = rng.normal(size=n)
    B = Box(Blo, Blo + rng.uniform(0, 0.5, n))
    Alo = rng.normal(size=(n, m))
    Ap = Box(Alo, Alo + rng.uniform(0, 0.4, (n, m)))
    if same_models:
        Am = Ap
    else:
        Alo2 = Ap.lo - rng.uniform(0, 0.2, (n, m))
        Am = Box(Alo2, Alo2 + rng.uniform(0, 0.6, (n, m)))
    U = Box(rng.uniform(-2, -0.5, m), rng.uniform(0.5, 2, m))
    X = Box(np.full(n, rng.uniform(-20, -1)), np.full(n, rng.uniform(1, 20)))
    return cost, AffineOverApprox(B, Ap, Am), U, X


def orthant_constraints(oqp, j):
    """Rows A (u, x) <= b of orthant j, in the order the multipliers use."""
    B, X, u_lo, u_hi = oqp.B, oqp.X, oqp.u_lo[j], oqp.u_hi[j]
    m, n = u_lo.size, B.lo.size
    Iu, Ix, Z = np.eye(m), np.eye(n), np.zeros((n, m))
    A_l_plus, A_s_plus, A_l_minus, A_s_minus = oqp.models[j]
    rows, rhs = [], []
    for A_lo, A_hi in ((A_l_plus, A_s_plus), (A_l_minus, A_s_minus)):
        rows += [np.hstack([A_lo, -Ix]), np.hstack([-A_hi, Ix])]  # x >= B.lo + A_lo u
        rhs += [-B.lo, B.hi]                                       # x <= B.hi + A_hi u
    rows += [np.hstack([Iu, Z.T]), np.hstack([-Iu, Z.T]),
             np.hstack([Z, Ix]), np.hstack([Z, -Ix])]
    rhs += [u_hi, -u_lo, X.hi, -X.lo]
    return np.vstack(rows), np.concatenate(rhs)


def subproblem(oqp, orthants):
    """`oqp` restricted to the listed orthants, in that order."""
    idx = list(orthants)
    return replace(oqp, models=oqp.models[idx], u_lo=oqp.u_lo[idx], u_hi=oqp.u_hi[idx])


def kkt_problems():
    """The 100 random orthant problems of `test_certificate_satisfies_kkt`."""
    rng = np.random.default_rng(11)
    return [assemble_optimistic(*random_orthant_problem(rng, same_models=k % 3 == 0))
            for k in range(100)]


def solve_or_none(oqp, **kwargs):
    try:
        return solve_optimistic(oqp, **kwargs)
    except AllOrthantsInfeasible:
        return None


def assert_same_solution(warm, cold, rel):
    """Same chosen orthant, per-orthant verdicts, (u, x) and value."""
    (u, x, val, info), (u0, x0, val0, info0) = warm, cold
    scale = 1.0 + max(np.abs(u0).max(), np.abs(x0).max())
    assert info.orthant == info0.orthant
    assert [s is None for s in info.active_sets] == [s is None for s in info0.active_sets]
    assert np.abs(u - u0).max() <= rel * scale
    assert np.abs(x - x0).max() <= rel * scale
    assert abs(val - val0) <= rel * (1.0 + abs(val0))
    assert info.kkt_residual <= 1e-9


def assert_identical(out, ref):
    """The same solve bit for bit: (u, x), value and every info field."""
    assert out[0].tobytes() == ref[0].tobytes() and out[1].tobytes() == ref[1].tobytes()
    assert out[2] == ref[2]
    for name in ("orthant", "iters", "feasible_orthants", "pruned", "kkt_residual",
                 "active_sets", "sigma_effect"):
        assert getattr(out[3], name) == getattr(ref[3], name), name
    assert out[3].multipliers.tobytes() == ref[3].multipliers.tobytes()


def copy_solve(out):
    u, x, val, info = out
    return u.copy(), x.copy(), val, replace(info, multipliers=info.multipliers.copy())


def feasible_minimizer_problem():
    """1-D problem whose unconstrained minimizer (u, x) ~ (0.5, 0) is
    feasible, so the solve takes no iteration and returns it."""
    cost = QuadraticCost(np.eye(1), np.eye(1), np.zeros((1, 1)),
                         np.zeros(1), np.array([-1.0]))
    aff = AffineOverApprox(Box([-10.0], [10.0]), Box.point([[0.0]]),
                           Box.point([[0.0]]))
    return assemble_optimistic(cost, aff, Box([0.0], [1.0]), Box([-5.0], [5.0]))


def unit_rows(oqp, j):
    """Rows of orthant j normalized as the solver does."""
    A, b = orthant_rows(oqp, j)
    norms = np.linalg.norm(A, axis=1)
    return A / norms[:, None], b / norms


class TestQPOptions:
    @pytest.mark.parametrize("kwargs, message", [
        ({"max_total_iters": 0}, "^max_total_iters must be >= 1$"),
        ({"max_total_iters": -3}, "^max_total_iters must be >= 1$"),
        ({"eps": -1.0}, "^eps must be positive and finite"),
        ({"eps": 0.0}, "^eps must be positive and finite"),
        ({"mu0": 0.0}, "^mu0 must be positive and finite"),
        ({"eps": math.nan}, "^eps must be positive and finite"),
        ({"eps": math.inf}, "^eps must be positive and finite"),
        ({"mu0": math.inf}, "^mu0 must be positive and finite"),
        ({"max_total_iters": 2.5}, "^max_total_iters must be an integer"),
    ], ids=["iters_zero", "iters_negative", "eps_negative", "eps_zero", "mu0_zero",
            "eps_nan", "eps_inf", "mu0_inf", "iters_fraction"])
    def test_rejects_bad_options(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            QPOptions(**kwargs)


class TestOrthantPruning:
    def test_pruned_solve_picks_the_exhaustive_orthant(self):
        pruned = 0
        for oqp in kkt_problems():
            pruned += assert_matches_exhaustive(oqp, solve_or_none(oqp))
        assert pruned > 0

    def test_warm_pruned_solve_picks_the_exhaustive_orthant(self):
        """A start from the cold solve, whose skipped orthants have none."""
        for oqp in kkt_problems():
            cold = solve_or_none(oqp)
            if cold is not None:
                assert_matches_exhaustive(oqp, solve_optimistic(oqp, start=cold[3].active_sets))

    def test_a_tie_goes_to_the_lower_index(self):
        """x = u <= 0 holds the u >= 0 orthant at u = 0, where the cost
        u^2 - 2u is 0, as it is at the u <= 0 orthant's optimum.  That
        orthant's box reaches u = 1, so its bound is lower and it is solved
        first; the tie still goes to orthant 0, as in the exhaustive loop."""
        cost = QuadraticCost(np.zeros((1, 1)), np.eye(1), np.zeros((1, 1)),
                             np.zeros(1), np.array([-2.0]))
        aff = AffineOverApprox(Box.point([0.0]), Box.point([[1.0]]), Box.point([[1.0]]))
        oqp = assemble_optimistic(cost, aff, Box([-1.0], [1.0]), Box([-1.0], [0.0]))
        bounds = _orthant_bounds(oqp, _factor(cost))
        assert bounds[1] < bounds[0]
        ref, values = exhaustive_optimistic(oqp)
        assert values == [0.0, 0.0] and ref[3] == 0
        assert solve_optimistic(oqp)[3].orthant == 0

    @pytest.mark.parametrize("X_scale", [5.0, 1e8])
    def test_bound_covers_the_feasibility_tolerance(self, X_scale):
        """The steep cost 1e6 (x - 1 - 5e-5)^2 pulls x past the row x <= 1.
        Each row's tolerance scales with that row's own terms, so a wide X
        does not loosen it: at every X scale the row holds within 1e-12
        (1 + |b| + |x|), the value is the cost's minimum over the box and
        the bound lies below it."""
        w, target = 1e6, 1.0 + 5e-5
        cost = QuadraticCost(np.array([[w]]), np.eye(1), np.zeros((1, 1)),
                             np.array([-2.0 * w * target]), np.zeros(1))
        aff = AffineOverApprox(Box([0.0], [1.0]), Box.point([[0.0]]), Box.point([[0.0]]))
        oqp = assemble_optimistic(cost, aff, Box([0.0], [1.0]), Box([-X_scale], [X_scale]))
        box_min = w - 2.0 * w * target
        (_, x, val, _), _ = exhaustive_optimistic(oqp)
        assert x[0] - 1.0 <= 1e-12 * (2.0 + abs(x[0]))
        assert abs(val - box_min) <= 1e-12 * abs(box_min)
        assert _orthant_bounds(oqp, _factor(cost))[0] <= val

    def test_separable_bound_is_the_box_minimum(self):
        """On a diagonal cost the bound is the minimum over the orthant's box
        relaxation, lowered by its margins (by less than 1e-7 here).  The
        rows of this 1-D problem are that box, so the bound is nearly the
        chosen orthant's value."""
        cost = QuadraticCost(np.eye(1), np.eye(1), np.zeros((1, 1)),
                             np.array([-3.0]), np.array([1.0]))
        aff = AffineOverApprox(Box([-1.0], [1.0]), Box.point([[0.0]]), Box.point([[0.0]]))
        oqp = assemble_optimistic(cost, aff, Box([-2.0], [2.0]), Box([-5.0], [5.0]))
        bounds = _orthant_bounds(oqp, _factor(cost))
        # u in [-2, 0] and [0, 2] with r = 1: u = -0.5 and u = 0; x = 1
        expected = [0.25 - 0.5 - 2.0, -2.0]
        assert np.all(bounds <= expected) and np.all(bounds >= np.subtract(expected, 1e-7))
        _, _, val, info = solve_optimistic(oqp)
        assert (info.orthant, info.pruned) == (0, 1)
        assert bounds[0] <= val <= bounds[0] + 1e-7


class TestWarmStart:
    def test_own_active_sets_take_no_iteration(self):
        """Re-solving from a solve's own active sets repeats it without an
        iteration on any feasible orthant (an infeasible one has no start)."""
        for oqp in kkt_problems():
            cold = solve_optimistic(oqp)
            info0 = cold[3]
            warm = solve_optimistic(oqp, start=info0.active_sets)
            assert_same_solution(warm, cold, 1e-12)
            assert warm[3].active_sets == info0.active_sets
            feasible = [j for j, s in enumerate(info0.active_sets) if s is not None]
            _, _, _, info = solve_optimistic(
                subproblem(oqp, feasible), start=tuple(info0.active_sets[j] for j in feasible),
            )
            assert info.iters == 0

    def test_foreign_starts_give_the_cold_solution(self):
        """Starts taken from other random problems of the same shape."""
        problems = kkt_problems()
        cold = [solve_or_none(oqp) for oqp in problems]
        pairs = 0
        for i, oqp in enumerate(problems):
            shape = (oqp.cost.n, oqp.cost.m)
            donors = [c for j, (p, c) in enumerate(zip(problems, cold))
                      if j != i and c is not None and (p.cost.n, p.cost.m) == shape]
            for donor in donors[:3]:
                warm = solve_or_none(oqp, start=donor[3].active_sets)
                assert (warm is None) == (cold[i] is None)
                if warm is not None:
                    assert_same_solution(warm, cold[i], 1e-10)
                pairs += 1
        assert pairs >= 150

    def test_adversarial_starts_give_the_cold_solution(self):
        """Duplicate rows, more than p rows, dependent rows and rows whose
        multipliers are negative at equality all reach the cold solution."""
        for oqp in kkt_problems()[:40]:
            cold = solve_optimistic(oqp)
            sets = cold[3].active_sets
            nrows = 6 * oqp.cost.n + 2 * oqp.cost.m
            p = oqp.cost.n + oqp.cost.m
            starts = {
                "duplicates": tuple(None if s is None else tuple(k for k in s for _ in (0, 1))
                                    for s in sets),
                "all_rows": (tuple(range(nrows)),) * len(sets),
                "all_rows_reversed": (tuple(range(nrows))[::-1],) * len(sets),
                # x <= X.hi and x >= X.lo of one coordinate: opposite normals
                "opposite": ((nrows - 1, nrows - 1 - oqp.cost.n) * p,) * len(sets),
            }
            # rows satisfied strictly at the unconstrained minimizer: held at
            # equality, each one has a negative multiplier
            M = np.block([[oqp.cost.R, oqp.cost.S.T], [oqp.cost.S, oqp.cost.Q]])
            y0 = np.linalg.solve(2.0 * M + 1e-6 * np.eye(p),
                                 -np.concatenate([oqp.cost.r, oqp.cost.q]))
            slack = []
            for j in range(len(sets)):
                A, b = unit_rows(oqp, j)
                slack.append(tuple(int(k) for k in np.flatnonzero(A @ y0 - b < -1e-6)))
            starts["negative_multipliers"] = tuple(slack)
            for name, start in starts.items():
                warm = solve_optimistic(oqp, start=start)
                assert_same_solution(warm, cold, 1e-10)

    def test_out_of_range_and_wrong_length_starts_are_ignored(self):
        for oqp in kkt_problems()[:30]:
            cold = solve_optimistic(oqp)
            k = len(oqp.models)
            nrows = 6 * oqp.cost.n + 2 * oqp.cost.m
            for start in (cold[3].active_sets + ((0,),), cold[3].active_sets[:-1],
                          (), ((nrows,),) * k, ((-1, 0),) * k, (None,) * k):
                assert_identical(solve_optimistic(oqp, start=start), cold)

    @pytest.mark.parametrize("change", ["U", "X", "U and X"])
    def test_kept_cost_solves_as_a_fresh_one(self, change):
        """A cost keeps the terms of its last (U, X) and its factor.  Solved
        again with another U or X it gives the bits a fresh, equal cost
        gives, and so does its bound."""
        rng = np.random.default_rng(5)
        bound_moved = 0
        for k in range(12):
            cost, aff, U, X = random_orthant_problem(rng, same_models=k % 3 == 0)
            solve_or_none(assemble_optimistic(cost, aff, U, X))
            old_bound = subopt_bound(cost, aff, U, X)
            if "U" in change:  # one orthant instead of 2^m
                U = Box(np.zeros(cost.m), U.hi)
            if "X" in change:  # small enough that the domain term binds
                X = Box(1e-3 * X.lo, 1e-3 * X.hi)
            fresh = QuadraticCost(cost.Q, cost.R, cost.S, cost.q, cost.r)
            kept = solve_or_none(assemble_optimistic(cost, aff, U, X))
            new = solve_or_none(assemble_optimistic(fresh, aff, U, X))
            assert (kept is None) == (new is None)
            if new is not None:
                assert_identical(kept, new)
            bound = subopt_bound(cost, aff, U, X)
            assert bound == subopt_bound(fresh, aff, U, X)
            bound_moved += bound != old_bound
        assert bound_moved >= 1

    @pytest.mark.parametrize("name", ["u", "x", "multipliers"])
    @pytest.mark.parametrize("problem", ["feasible_minimizer", "random"])
    def test_writing_into_a_solution_leaves_the_next_solve(self, name, problem):
        """No returned array is a view of what the cost keeps: with the
        feasible minimizer, the returned (u, x) would otherwise be it."""
        if problem == "random":
            oqp = kkt_problems()[0]
        else:
            oqp = feasible_minimizer_problem()
        first = solve_optimistic(oqp)
        kept = copy_solve(first)
        u, x, _, info = first
        {"u": u, "x": x, "multipliers": info.multipliers}[name][:] = 2.0
        assert_identical(solve_optimistic(oqp), kept)

    def test_kept_arrays_are_read_only(self):
        oqp = kkt_problems()[0]
        cost = oqp.cost
        u, x, _, info = solve_optimistic(oqp)
        fac = _factor(cost)
        assert fac is _factor(cost)
        terms = cost._terms
        kept = [*fac, terms.U_abs, *terms.Q_split, terms.SU_q, _fixed_rows(cost.n, cost.m)]
        kept += [terms.u_lo, terms.u_hi, terms.nonneg]
        for a in kept:
            assert not a.flags.writeable
            for out in (u, x, info.multipliers):
                assert not np.shares_memory(out, a)

    def test_infeasible_problem_still_raises(self):
        cost = QuadraticCost(np.eye(1), np.eye(1), np.zeros((1, 1)),
                             np.zeros(1), np.zeros(1))
        aff = AffineOverApprox(Box([0.0], [1.0]),
                               Box.point([[0.1]]), Box.point([[0.1]]))
        oqp = assemble_optimistic(cost, aff, Box([0.0], [1.0]), Box([10.0], [11.0]))
        for start in (((0, 1, 2, 3, 4, 5, 6, 7),), ((7, 6, 5),), ((),), ((6,),)):
            with pytest.raises(AllOrthantsInfeasible):
                solve_optimistic(oqp, start=start)

    def test_drop_counts_against_the_cap(self):
        """A start row that must be dropped costs one iteration; after the
        drop the solve is the cold one."""
        rng = np.random.default_rng(3)
        cost, aff, _, X = random_orthant_problem(rng, same_models=False)
        U = Box(np.zeros(cost.m), np.full(cost.m, 2.0))  # one orthant
        oqp = assemble_optimistic(cost, aff, U, X)
        cold = solve_optimistic(oqp)
        p = cost.n + cost.m
        M = np.block([[cost.R, cost.S.T], [cost.S, cost.Q]])
        y0 = np.linalg.solve(2.0 * M + 1e-6 * np.eye(p), -np.concatenate([cost.r, cost.q]))
        A, b = unit_rows(oqp, 0)
        k = int(np.argmin(A @ y0 - b))
        assert A[k] @ y0 - b[k] < 0.0  # negative multiplier at equality
        warm = solve_optimistic(oqp, start=((k,),))
        assert warm[3].iters == cold[3].iters + 1
        assert np.array_equal(warm[0], cold[0]) and np.array_equal(warm[1], cold[1])
        with pytest.raises(IterationCapExceeded):
            solve_optimistic(oqp, QPOptions(max_total_iters=1), start=((k,),))
        # the same start with the cold iterations to spare solves
        solve_optimistic(oqp, QPOptions(max_total_iters=cold[3].iters + 1), start=((k,),))
