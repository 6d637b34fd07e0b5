import math

import numpy as np
import pytest

from conftest import batch_rk4_unicycle, exact_integrator_kb
from datareach.control import (
    AffineOverApprox,
    QuadraticCost,
    assemble_idealistic,
    assemble_optimistic,
    datacontrol_step,
    idealistic_coeffs,
    linearize,
    norm_cost,
    setpoint_cost,
    subopt_bound,
)
from datareach import control
from datareach.errors import NonConvexAssembly, StepTooLarge
from datareach.intervals import Box, imat_vec, meet, real_mat_pairs
from datareach.knowledge import Sample, append_sample, build_knowledge
from datareach.qpsolve import BoxQP, QPOptions
from datareach.systems import advance, excite, run_closed_loop, unicycle, unicycle_experiment


class TestQuadraticCost:
    def test_symmetry_enforced(self):
        with pytest.raises(ValueError):
            QuadraticCost(np.array([[1.0, 0.2], [0.0, 1.0]]), np.eye(1),
                          np.zeros((2, 1)), np.zeros(2), np.zeros(1))

    def test_joint_psd_enforced(self):
        with pytest.raises(ValueError):
            QuadraticCost(np.zeros((1, 1)), np.zeros((1, 1)),
                          np.array([[1.0]]), np.zeros(1), np.zeros(1))

    def test_norm_cost_value(self):
        cost = norm_cost(3, 2)
        y = np.array([1.0, 2.0, -1.0])
        assert cost.value(np.zeros(2), y) == pytest.approx(0.5 * 6.0)

    @pytest.mark.parametrize("key, value", [
        ("target", math.nan), ("target", math.inf), ("target", -math.inf),
        ("weight", math.nan), ("weight", math.inf),
    ])
    def test_setpoint_cost_must_be_finite(self, key, value):
        kwargs = {"target": 3.0, "weight": 0.5, key: value}
        with pytest.raises(ValueError, match=f"^{key} must be finite"):
            setpoint_cost(2, 1, index=1, **kwargs)

    @pytest.mark.parametrize("index, message", [
        (3, "^index must be < n = 3, not 3$"), (7, "^index must be < n = 3, not 7$"),
        (-1, "^index must be >= 0$"), (1.5, "^index must be an integer"),
        ("1", "^index must be an integer"), (True, "^index must be an integer"),
    ])
    def test_setpoint_cost_index_in_range(self, index, message):
        with pytest.raises(ValueError, match=message):
            setpoint_cost(3, 2, index=index, target=1.0)

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
    def test_norm_cost_weight_must_be_finite(self, weight):
        with pytest.raises(ValueError, match="^weight must be finite"):
            norm_cost(3, 2, weight=weight)

    @pytest.mark.parametrize("key", list("QRSqr"))
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_entries_must_be_finite(self, key, bad):
        """Checked before symmetry: a NaN would otherwise read as asymmetric."""
        parts = {"Q": np.eye(2), "R": np.eye(2), "S": np.zeros((2, 2)),
                 "q": np.zeros(2), "r": np.zeros(2)}
        parts[key][(0,) * parts[key].ndim] = bad
        with pytest.raises(ValueError, match=f"^{key} must be finite, not "):
            QuadraticCost(**parts)

    def test_setpoint_cost_offset(self):
        cost, off = setpoint_cost(2, 1, index=1, target=3.0)
        y = np.array([0.0, 4.5])
        assert cost.value(np.zeros(1), y) + off == pytest.approx(0.5 * 1.5**2)


class TestLinearize:
    def test_exact_integrator(self):
        kb = exact_integrator_kb()
        aff = linearize(Box([0.0], [0.0]), kb, Box([-1.0], [1.0]), 0.1)
        assert aff.B[0].lo == pytest.approx(0.0, abs=1e-9)
        assert aff.B[0].hi == pytest.approx(0.0, abs=1e-9)
        for A in (aff.Aplus, aff.Aminus):
            assert A[0, 0].lo == pytest.approx(0.1, abs=1e-9)
            assert A[0, 0].hi == pytest.approx(0.1, abs=1e-9)
            assert A.width.max() <= 1e-9

    def test_step_bound_enforced(self, unicycle_fig_setup):
        sysu, _, kb, x_start = unicycle_fig_setup
        with pytest.raises(StepTooLarge):
            linearize(Box.point(x_start), kb, sysu.U, 0.2)

    def test_next_state_containment(self, unicycle_fig_setup):
        """(B + A+ u) cap (B + A- u) contains the RK4 next state for 1000 u."""
        sysu, _, kb, x_start = unicycle_fig_setup
        dt = 0.1
        aff = linearize(Box.point(x_start), kb, sysu.U, dt)
        rng = np.random.default_rng(12)
        us = rng.uniform(sysu.U.lo, sysu.U.hi, size=(1000, 2))
        X = np.tile(x_start, (1000, 1))
        truth = batch_rk4_unicycle(X, us[:, 0], us[:, 1], dt, substeps=10)
        for u, xt in zip(us, truth):
            box = meet(aff.B + imat_vec(aff.Aplus, u),
                       aff.B + imat_vec(aff.Aminus, u), 1e-12)
            assert box.contains(xt, atol=1e-9)


class TestIdealisticCoeffs:
    def setup_method(self):
        rng = np.random.default_rng(3)
        Blo = rng.normal(size=2)
        Alo = rng.normal(size=(2, 2))
        self.aff = AffineOverApprox(
            Box(Blo, Blo + rng.uniform(0.1, 1, 2)),
            Box(Alo, Alo + rng.uniform(0.1, 1, (2, 2))),
            Box(Alo - 0.3, Alo + rng.uniform(0.1, 1, (2, 2))),
        )

    def test_full_weights(self):
        A_ide, b_ide = idealistic_coeffs(self.aff, 1.0, 1.0)
        assert np.allclose(b_ide, self.aff.B.hi)
        assert np.allclose(A_ide, 0.5 * (self.aff.Aplus.hi + self.aff.Aminus.hi))

    def test_half_split(self):
        A_ide, b_ide = idealistic_coeffs(self.aff, 1.0, 0.0)
        assert np.allclose(b_ide, self.aff.B.mid)

    def test_degenerate_ignores_weights(self):
        B = Box.point([1.0, -1.0])
        A = Box.point([[0.5, 0.0], [0.0, 0.25]])
        aff = AffineOverApprox(B, A, A)
        for w in ((0.0, 1.0), (0.7, 0.2)):
            A_ide, b_ide = idealistic_coeffs(aff, *w)
            assert np.allclose(A_ide, A.lo) and np.allclose(b_ide, B.lo)

    def test_weights_validated(self):
        with pytest.raises(ValueError):
            idealistic_coeffs(self.aff, -0.1, 0.5)


class TestAssembleIdealistic:
    U = Box([-1.0, -1.0], [1.0, 1.0])

    def test_identity_substitution(self):
        cost = QuadraticCost(np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)),
                             np.zeros(2), np.zeros(2))
        qp = assemble_idealistic(cost, np.eye(2), np.zeros(2), self.U)
        assert qp.box is self.U
        assert np.allclose(qp.Qi, 2.0 * np.eye(2))
        assert np.allclose(qp.qi, 0.0)
        assert qp.pi == 0.0

    def test_control_only_cost(self):
        R = np.array([[2.0, 0.0], [0.0, 0.5]])
        r = np.array([1.0, -1.0])
        cost = QuadraticCost(np.zeros((2, 2)), R, np.zeros((2, 2)),
                             np.zeros(2), r)
        qp = assemble_idealistic(cost, np.eye(2), np.ones(2), self.U)
        assert np.allclose(qp.Qi, 2.0 * R)
        assert np.allclose(qp.qi, r)
        assert qp.pi == 0.0

    def test_qp_value_matches_cost_pointwise(self):
        rng = np.random.default_rng(9)
        M = rng.normal(size=(4, 5))
        joint = M @ M.T / 4
        cost = QuadraticCost(joint[:2, :2], joint[2:, 2:], joint[:2, 2:],
                             rng.normal(size=2), rng.normal(size=2))
        A_ide = rng.normal(size=(2, 2))
        b_ide = rng.normal(size=2)
        qp = assemble_idealistic(cost, A_ide, b_ide, self.U)
        for _ in range(1000):
            u = rng.normal(size=2)
            lhs = 0.5 * u @ qp.Qi @ u + qp.qi @ u + qp.pi
            rhs = cost.value(u, b_ide + A_ide @ u)
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("A_ide, b_ide, entry", [
        ([[1e200, 0.0], [0.0, 1.0]], [0.0, 0.0], r"Qi\[0, 0\] is inf"),
        ([[math.inf, 0.0], [0.0, 1.0]], [0.0, 0.0], r"Qi\[0, 0\] is (inf|nan)"),
        ([[1.0, 0.0], [0.0, 1.0]], [math.nan, 0.0], r"qi\[0\] is nan"),
    ], ids=["overflow", "infinite_model", "nan_offset"])
    def test_non_finite_data_is_an_error(self, A_ide, b_ide, entry):
        """A non-finite QP is a library error naming the entry, raised
        before the solver iterates on it."""
        cost = norm_cost(2, 2)
        with pytest.raises(NonConvexAssembly, match=f"idealistic QP entry {entry}"):
            assemble_idealistic(cost, np.array(A_ide), np.array(b_ide), self.U)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_data_ends_the_episode(self, monkeypatch):
        def huge_model(aff, wplus, wminus):
            return np.full(aff.Aplus.shape, 1e200), aff.B.lo

        monkeypatch.setattr(control, "idealistic_coeffs", huge_model)
        report = run_closed_loop(unicycle(), unicycle_experiment(max_steps=1))
        assert report.steps_taken == 0
        assert report.failure.startswith(
            "step 0: NonConvexAssembly: idealistic QP entry Qi[0, 0] is inf"
        )


class TestAssembleOptimistic:
    def test_single_orthant_endpoints(self):
        cost = norm_cost(1, 2)
        Alo = np.array([[1.0, -2.0]])
        aff = AffineOverApprox(Box([0.0], [1.0]),
                               Box(Alo, Alo + 1.0), Box(Alo, Alo + 0.5))
        U = Box([0.0, 0.0], [1.0, 2.0])
        oqp = assemble_optimistic(cost, aff, U, Box([-9.0], [9.0]))
        assert oqp.models.shape == (1, 4, 1, 2)
        A_l_plus, A_s_plus, A_l_minus, A_s_minus = oqp.models[0]
        assert np.allclose(A_s_plus, aff.Aplus.hi)
        assert np.allclose(A_l_plus, aff.Aplus.lo)
        assert np.allclose(A_s_minus, aff.Aminus.hi)
        assert np.allclose(A_l_minus, aff.Aminus.lo)
        assert np.array_equal(oqp.u_lo, [U.lo]) and np.array_equal(oqp.u_hi, [U.hi])

    def test_sign_indefinite_axis_splits_and_swaps(self):
        cost = norm_cost(1, 1)
        Alo = np.array([[1.0]])
        aff = AffineOverApprox(Box([0.0], [0.0]),
                               Box(Alo, Alo + 1.0), Box(Alo, Alo + 1.0))
        oqp = assemble_optimistic(cost, aff, Box([-1.0], [1.0]),
                                  Box([-9.0], [9.0]))
        assert len(oqp.models) == 2
        neg, pos = sorted(range(2), key=lambda j: oqp.u_lo[j, 0])
        assert oqp.u_hi[neg, 0] == 0.0 and oqp.u_lo[pos, 0] == 0.0
        A_s_plus = oqp.models[:, 1]
        assert A_s_plus[pos, 0, 0] == aff.Aplus.hi[0, 0]
        assert A_s_plus[neg, 0, 0] == aff.Aplus.lo[0, 0]  # roles swap for u <= 0

    def test_degenerate_model_all_matrices_equal(self):
        cost = norm_cost(1, 1)
        A = Box.point([[0.5]])
        aff = AffineOverApprox(Box.point([0.0]), A, A)
        oqp = assemble_optimistic(cost, aff, Box([0.0], [1.0]),
                                  Box([-9.0], [9.0]))
        for mat in oqp.models[0]:
            assert np.allclose(mat, 0.5)


class TestSuboptBound:
    def test_zero_widths_zero_bound(self):
        cost = norm_cost(2, 1)
        A = Box.point([[0.1], [0.2]])
        aff = AffineOverApprox(Box.point([1.0, 2.0]), A, A)
        got = subopt_bound(cost, aff, Box([-1.0], [1.0]),
                           Box([-5.0, -5.0], [5.0, 5.0]))
        assert got == 0.0

    def test_monotone_in_widths(self):
        cost = norm_cost(2, 1)
        rng = np.random.default_rng(4)
        Blo = rng.normal(size=2)
        Alo = rng.normal(size=(2, 1))
        U = Box([-1.0], [1.0])
        X = Box([-5.0, -5.0], [5.0, 5.0])

        def bound_with(extra):
            aff = AffineOverApprox(
                Box(Blo, Blo + 0.1 + extra),
                Box(Alo, Alo + 0.1 + extra),
                Box(Alo, Alo + 0.05),
            )
            return subopt_bound(cost, aff, U, X)

        vals = [bound_with(e) for e in (0.0, 0.1, 0.5, 2.0)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_equals_per_model_formula_bitwise(self):
        """Sharing the S U and domain terms leaves the bound bitwise unchanged."""

        def K_of(cost, B, A, U, X):  # every term recomputed per model
            SU_abs = Box(*real_mat_pairs(cost.S, (U.lo, U.hi))).mag
            reach = B + imat_vec(A, U)
            QR_abs = Box(*real_mat_pairs(cost.Q, (reach.lo, reach.hi))).mag
            term_reach = 2.0 * SU_abs + cost.q + 2.0 * QR_abs
            QX_abs = Box(*real_mat_pairs(cost.Q, (X.lo, X.hi))).mag
            term_domain = 2.0 * SU_abs + cost.q + 2.0 * QX_abs
            return float(min(np.linalg.norm(term_reach), np.linalg.norm(term_domain)))

        def reference(cost, aff, U, X):
            Uabs = U.mag
            tp = float(np.linalg.norm(aff.B.width + aff.Aplus.width @ Uabs))
            tm = float(np.linalg.norm(aff.B.width + aff.Aminus.width @ Uabs))
            return max(tp * K_of(cost, aff.B, aff.Aplus, U, X),
                       tm * K_of(cost, aff.B, aff.Aminus, U, X))

        rng = np.random.default_rng(21)
        for k in range(200):
            n, m = int(rng.integers(1, 7)), int(rng.integers(1, 3))
            F = rng.normal(size=(n + m, n + m))
            J = F @ F.T * rng.uniform(0.1, 3.0)  # joint matrix in (u, x) order
            cost = QuadraticCost(J[m:, m:], J[:m, :m], J[m:, :m],
                                 rng.normal(size=n), rng.normal(size=m))
            Blo = rng.normal(size=n)
            Alo = rng.normal(size=(n, m))
            Alo2 = rng.normal(size=(n, m))
            aff = AffineOverApprox(
                Box(Blo, Blo + rng.uniform(0, 0.5, n)),
                Box(Alo, Alo + rng.uniform(0, 0.4, (n, m))),
                Box(Alo2, Alo2 + rng.uniform(0, 0.4, (n, m))),
            )
            U = Box(rng.uniform(-2, 0.5, m), rng.uniform(0.5, 2, m))
            # small domains make the domain term the smaller one in some cases
            half = rng.uniform(0.1, 20.0, n)
            X = Box(-half, half)
            assert subopt_bound(cost, aff, U, X) == reference(cost, aff, U, X)


    def test_shared_terms_follow_the_arguments(self):
        """The S U and domain terms are reused only for the same (cost, U, X)."""
        cost, _ = setpoint_cost(2, 1, 0, 3.0)
        cost2 = QuadraticCost(cost.Q, np.eye(1), np.array([[0.2], [0.0]]), cost.q, cost.r)
        aff = AffineOverApprox(Box([0.0, 1.0], [0.5, 1.2]), Box([[0.1], [0.0]], [[0.3], [0.1]]),
                               Box([[0.0], [0.0]], [[0.2], [0.1]]))
        U, X = Box([-1.0], [1.0]), Box([-4.0, -4.0], [4.0, 4.0])
        small_X, small_U = Box([-0.2, -0.2], [0.2, 0.2]), Box([-0.1], [0.1])

        def fresh(c, u, x):  # equal arguments that are other objects
            return subopt_bound(QuadraticCost(c.Q, c.R, c.S, c.q, c.r), aff,
                                Box(u.lo, u.hi), Box(x.lo, x.hi))

        for c, u, x in ((cost, U, X), (cost, U, X), (cost, U, small_X), (cost, small_U, X),
                        (cost2, U, X), (cost, U, X)):
            assert subopt_bound(c, aff, u, x) == fresh(c, u, x)
        assert subopt_bound(cost, aff, U, small_X) != subopt_bound(cost, aff, U, X)
        assert not cost.S.flags.writeable and not cost.q.flags.writeable

    @pytest.mark.xfail(strict=True, reason=(
        "the gradient factor adds the signed cost.q; a sound factor bounds "
        "|2 Q y + 2 S u + q| over the model, e.g. mag(2 Q reach + 2 S U + q)"))
    def test_bound_covers_cost_variation_with_negative_q(self):
        """Over y in B = [-1, 0.5] the cost 0.5 (y - 5)^2 varies by 7.875; the bound is 6.0."""
        cost, _ = setpoint_cost(1, 1, 0, 5.0)
        A = Box.point([[0.0]])
        aff = AffineOverApprox(Box([-1.0], [0.5]), A, A)
        ys = np.linspace(-1.0, 0.5, 301)
        values = [cost.value(np.zeros(1), np.array([y])) for y in ys]
        bound = subopt_bound(cost, aff, Box([-1.0], [1.0]), Box([-10.0], [10.0]))
        assert bound == 6.0
        assert max(values) - min(values) <= bound


class TestDataControlStep:
    @pytest.mark.parametrize("weights", [(2.0, -1.0), (-0.1, 0.5), (0.5, math.nan)])
    @pytest.mark.parametrize("mode", ["idealistic", "optimistic"])
    def test_weights_checked_before_any_work(self, mode, weights, monkeypatch):
        """Weights outside [0, 1] are rejected in either mode before the
        model is built, not only when an optimistic step falls back."""
        monkeypatch.setattr(control, "linearize", lambda *a, **k: pytest.fail("linearized"))
        with pytest.raises(ValueError,
                           match=r"^wplus, wminus must (lie in \[0, 1\]|be finite), not "):
            datacontrol_step(exact_integrator_kb(), np.array([1.0]), norm_cost(1, 1),
                             Box([-1.0], [1.0]), Box([-5.0], [5.0]), 0.1, mode=mode,
                             wplus=weights[0], wminus=weights[1])

    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf, 0.0, -0.1])
    @pytest.mark.parametrize("mode", ["idealistic", "optimistic"])
    def test_dt_checked_before_any_work(self, mode, dt, monkeypatch):
        monkeypatch.setattr(control, "linearize", lambda *a, **k: pytest.fail("linearized"))
        with pytest.raises(ValueError, match="^dt must be positive and finite"):
            datacontrol_step(exact_integrator_kb(), np.array([1.0]), norm_cost(1, 1),
                             Box([-1.0], [1.0]), Box([-5.0], [5.0]), dt, mode=mode)

    def test_cost_must_fit_the_base(self):
        with pytest.raises(ValueError, match="^cost must have n = 1 and m = 1, not 2 and 1$"):
            datacontrol_step(exact_integrator_kb(), np.array([1.0]), norm_cost(2, 1),
                             Box([-1.0], [1.0]), Box([-5.0], [5.0]), 0.1)

    def test_exact_integrator_pushes_to_zero(self):
        kb = exact_integrator_kb()
        cost = norm_cost(1, 1)
        u, diag = datacontrol_step(
            kb, np.array([1.0]), cost, Box([-1.0], [1.0]),
            Box([-5.0], [5.0]), 0.1,
        )
        assert u[0] == pytest.approx(-1.0, abs=1e-6)
        assert diag.bound == pytest.approx(0.0, abs=1e-9)
        assert diag.mode_used == "idealistic"

    def test_cost_free_step_is_feasible(self):
        kb = exact_integrator_kb()
        cost = QuadraticCost(np.zeros((1, 1)), np.zeros((1, 1)),
                             np.zeros((1, 1)), np.zeros(1), np.zeros(1))
        U = Box([-1.0], [1.0])
        u, diag = datacontrol_step(kb, np.array([1.0]), cost, U,
                                   Box([-5.0], [5.0]), 0.1)
        assert U.contains(u)
        assert diag.model_cost == pytest.approx(0.0, abs=1e-12)

    def test_idealistic_step_checks_convexity_once(self, unicycle_fig_setup, monkeypatch):
        sysu, _, kb, x_start = unicycle_fig_setup
        cost = norm_cost(3, 2)
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def spy(a, *args, **kwargs):
            calls.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        u, diag = datacontrol_step(kb, x_start, cost, sysu.U, sysu.X, 0.1)
        assert calls == [(2, 2)]
        # the step's QP is the one the checking constructor builds
        qp = assemble_idealistic(cost, *idealistic_coeffs(diag.aff, 0.5, 0.5), sysu.U)
        assert diag.model_cost == BoxQP(qp.Qi, qp.qi, sysu.U, qp.pi).value(u)

    def test_optimistic_mode_runs(self):
        kb = exact_integrator_kb()
        cost = norm_cost(1, 1)
        u, diag = datacontrol_step(
            kb, np.array([1.0]), cost, Box([-1.0], [1.0]),
            Box([-5.0], [5.0]), 0.1, mode="optimistic",
        )
        assert u[0] == pytest.approx(-1.0, abs=1e-4)
        assert diag.mode_used == "optimistic"
        assert not diag.fell_back

    def test_optimistic_step_is_certified(self, unicycle_fig_setup):
        sysu, _, kb, x_start = unicycle_fig_setup
        opts = QPOptions()
        _, diag = datacontrol_step(kb, x_start, norm_cost(3, 2), sysu.U, sysu.X,
                                   0.1, mode="optimistic", opts=opts)
        assert diag.mode_used == "optimistic"
        assert diag.info.kkt_residual <= opts.eps

    def test_optimistic_bound_along_unicycle_run(self):
        """|c* - model_cost| <= bound at every optimistic step of the unicycle run.

        c* is the smallest one-step cost over a 201 x 201 control grid under
        the true dynamics, as in the idealistic acceptance criterion.
        """
        sysu = unicycle()
        cfg = unicycle_experiment(mode="optimistic")
        samples = excite(sysu, cfg.init_len, cfg.seed, dt=cfg.dt, x0=cfg.x0,
                         mode=cfg.excitation)
        kb = build_knowledge(samples, sysu.lip, sysu.side)
        x = advance(sysu, samples[-1].x, samples[-1].u, cfg.dt)
        VV, WW = np.meshgrid(np.linspace(sysu.U.lo[0], sysu.U.hi[0], 201),
                             np.linspace(sysu.U.lo[1], sysu.U.hi[1], 201),
                             indexing="ij")
        V, W = VV.ravel(), WW.ravel()
        steps = 0
        opts = QPOptions()
        for _ in range(cfg.max_steps):
            u, diag = datacontrol_step(kb, x, cfg.cost, sysu.U, sysu.X, cfg.dt,
                                       "optimistic", opts)
            assert diag.mode_used == "optimistic" and diag.info.kkt_residual <= opts.eps
            nexts = batch_rk4_unicycle(np.tile(x, (V.size, 1)), V, W, cfg.dt,
                                       substeps=10)
            c_star = float((0.5 * (nexts**2).sum(axis=1)).min())
            assert abs(c_star - diag.model_cost) <= diag.bound
            x_next = advance(sysu, x, u, cfg.dt)
            kb = append_sample(kb, Sample(x, sysu.h_true(x, u), u))
            x = x_next
            steps += 1
            if cfg.cost.value(u, x) <= cfg.stop_level:
                break
        assert steps >= 5

    def test_diagnostics_record_both_costs(self, unicycle_fig_setup):
        sysu, _, kb, x_start = unicycle_fig_setup
        cost = norm_cost(3, 2)
        u, diag = datacontrol_step(kb, x_start, cost, sysu.U, sysu.X, 0.1,
                                   opts=QPOptions(), wplus=0.3, wminus=0.7)
        assert diag.realized_cost is None  # filled by the closed-loop driver
        # the model cost is the QP optimum of the selected trajectory
        from datareach.control import assemble_idealistic, idealistic_coeffs

        A_ide, b_ide = idealistic_coeffs(diag.aff, 0.3, 0.7)
        qp = assemble_idealistic(cost, A_ide, b_ide, sysu.U)
        direct = 0.5 * u @ qp.Qi @ u + qp.qi @ u + qp.pi
        assert diag.model_cost == pytest.approx(direct, rel=1e-9, abs=1e-9)
        assert diag.micros > 0
        assert diag.bound > 0
