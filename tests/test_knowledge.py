import math

import numpy as np
import pytest

from conftest import fg_rows
from datareach.errors import EmptyIntersection, InconsistentSample
from datareach.intervals import Box, Interval
from datareach.knowledge import (
    GradientBounds,
    LipschitzBounds,
    Sample,
    SideInfoSet,
    VectorFieldBounds,
    _contract,
    _first_failure,
    _jacobian_pairs,
    _split,
    append_sample,
    build_knowledge,
    f_over,
    f_over_iv,
    G_over,
    G_over_iv,
    rebuild,
)
from datareach.systems import excite, unicycle


def eq10_oracle(x, entries, L):
    """Independent scalar evaluation of the Lipschitz-envelope intersection."""
    lo, hi = -math.inf, math.inf
    for xi, clo, chi in entries:
        d = abs(x - xi)
        lo = max(lo, clo - L * d)
        hi = min(hi, chi + L * d)
    return lo, hi


class TestContraction:
    def golden_inputs(self):
        F = Box.of([Interval(-0.01, 1.0), Interval(-1, 1), Interval(-1, 1)])
        G = Box.of(
            [
                [Interval(-0.05, 0.05), Interval(-0.1, 1.0)],
                [Interval(-1, 1), Interval(-1, 1)],
                [Interval(-1, 1), Interval(-1, 1)],
            ]
        )
        s = Sample([0.0, 0.0, math.pi / 2], [0.0, 1.0, 0.1], [1.0, 0.1])
        return s, F, G

    def test_golden_case(self):
        s, F, G = self.golden_inputs()
        c_lo, c_hi, stages = _contract(s.xdot[None], s.u[None], *fg_rows(F, G))
        assert _first_failure(stages) is None
        (cf_lo, cg_lo), (cf_hi, cg_hi) = _split(c_lo[0], 3), _split(c_hi[0], 3)
        assert cf_lo[0] == pytest.approx(-0.01, abs=1e-12)
        assert cf_hi[0] == pytest.approx(0.06, abs=1e-12)
        assert cg_lo[0, 0] == pytest.approx(-0.05, abs=1e-12)
        assert cg_hi[0, 0] == pytest.approx(0.02, abs=1e-12)
        assert cg_lo[0, 1] == pytest.approx(-0.1, abs=1e-12)
        assert cg_hi[0, 1] == pytest.approx(0.6, abs=1e-12)

    def test_contraction_is_contained_and_consistent(self):
        s, F, G = self.golden_inputs()
        c_lo, c_hi, stages = _contract(s.xdot[None], s.u[None], *fg_rows(F, G))
        assert _first_failure(stages) is None
        (cf_lo, cg_lo), (cf_hi, cg_hi) = _split(c_lo[0], 3), _split(c_hi[0], 3)
        CF, CG = Box(cf_lo, cf_hi), Box(cg_lo, cg_hi)
        assert F.encloses(CF, atol=1e-12)
        tol = 1e-9
        assert np.all(CG.lo >= G.lo - tol) and np.all(CG.hi <= G.hi + tol)
        # xdot must stay inside C_F + C_G u
        from datareach.intervals import imat_vec

        total = CF + imat_vec(CG, s.u)
        assert total.contains(s.xdot, atol=1e-9)

    def test_zero_control_leaves_G(self):
        F = Box([-1.0, -1.0], [1.0, 1.0])
        G = Box([[-2.0], [-2.0]], [[2.0], [2.0]])
        s = Sample([0.0, 0.0], [0.25, -0.5], [0.0])
        c_lo, c_hi, stages = _contract(s.xdot[None], s.u[None], *fg_rows(F, G))
        assert _first_failure(stages) is None
        (cf_lo, cg_lo), (cf_hi, cg_hi) = _split(c_lo[0], 2), _split(c_hi[0], 2)
        assert np.allclose(cf_lo, s.xdot) and np.allclose(cf_hi, s.xdot)
        assert np.array_equal(cg_lo, G.lo) and np.array_equal(cg_hi, G.hi)

    def test_exact_identification(self):
        F = Box([0.0], [0.0])
        G = Box([[0.0]], [[5.0]])
        s = Sample([0.0], [2.0], [1.0])
        c_lo, c_hi, stages = _contract(s.xdot[None], s.u[None], *fg_rows(F, G))
        assert _first_failure(stages) is None
        assert c_lo[0, 0] == 0.0 and c_hi[0, 0] == 0.0
        assert c_lo[0, 1] == pytest.approx(2.0, abs=1e-9)
        assert c_hi[0, 1] == pytest.approx(2.0, abs=1e-9)

    def test_inconsistent_sample_raises(self):
        F = Box([0.0], [0.1])
        G = Box([[0.0]], [[0.1]])
        s = Sample([0.0], [5.0], [1.0])  # xdot cannot be f + G u
        _, _, stages = _contract(s.xdot[None], s.u[None], *fg_rows(F, G))
        assert _first_failure(stages) == (0, "contract", (0,))
        # a base whose range bounds at x are F and G rejects the sample
        side = SideInfoSet(vf_bounds=VectorFieldBounds(Box.point(s.x), F, G))
        lip = LipschitzBounds([1.0], [[1.0]])
        with pytest.raises(InconsistentSample) as err:
            build_knowledge([s], lip, side)
        assert (err.value.sample_index, err.value.component) == (0, (0,))
        with pytest.raises(InconsistentSample) as err:
            append_sample(build_knowledge([], lip, side), s)
        assert (err.value.sample_index, err.value.component) == (0, (0,))


def kb_from_entries(entries_data, L_f, L_G):
    """Assemble a knowledge base directly from (x, f_lo, f_hi) triples."""
    from datareach.knowledge import KnowledgeBase, KnowledgeEntry

    lip = LipschitzBounds(L_f, L_G)
    n, m = lip.n, lip.m
    entries = [
        KnowledgeEntry(
            np.atleast_1d(np.asarray(x, dtype=float)),
            Box(np.atleast_1d(flo), np.atleast_1d(fhi)),
            Box(np.full((n, m), -100.0), np.full((n, m), 100.0)),
        )
        for x, flo, fhi in entries_data
    ]
    return KnowledgeBase(tuple(entries), lip, lip)


class TestOverApproximation:
    def kb_1d(self, L=1.0):
        return kb_from_entries(
            [(0.0, 0.5, 0.5), (2.0, 2.4, 2.4)], [L], [[0.0]]
        )

    def test_query_at_entry_returns_entry(self):
        kb = self.kb_1d()
        enc = f_over(np.array([0.0]), kb)
        assert enc[0].lo == pytest.approx(0.5, abs=1e-9)
        assert enc[0].hi == pytest.approx(0.5, abs=1e-9)

    def test_bounds_only_base(self):
        lip = LipschitzBounds([1.0], [[1.0]])
        side = SideInfoSet(
            vf_bounds=VectorFieldBounds(
                region=Box([-5.0], [5.0]),
                f_range=Box([-7.0], [7.0]),
                G_range=Box([[-7.0]], [[7.0]]),
            )
        )
        kb = build_knowledge([], lip, side)
        enc = f_over(np.array([1.0]), kb)
        assert enc[0].lo == pytest.approx(-7.0, abs=1e-9)
        assert enc[0].hi == pytest.approx(7.0, abs=1e-9)

    def test_default_M_box(self):
        lip = LipschitzBounds([0.5], [[0.5]])
        kb = build_knowledge([Sample([0.0], [0.25], [0.0])], lip, M=1e3)
        assert kb.cf_lo[1, 0] == pytest.approx(0.25, abs=1e-9)
        assert kb.cg_lo[1, 0, 0] == pytest.approx(-1e3, rel=1e-12)
        assert kb.cg_hi[1, 0, 0] == pytest.approx(1e3, rel=1e-12)

    def test_hand_case_matches_oracle(self):
        # entries at x=0 with [0,1] and x=2 with [3,4], L=1, query x=1 -> [2,2]
        kb = kb_from_entries([(0.0, 0.0, 1.0), (2.0, 3.0, 4.0)], [1.0], [[0.0]])
        got = f_over(np.array([1.0]), kb)
        lo, hi = eq10_oracle(1.0, [(0.0, 0.0, 1.0), (2.0, 3.0, 4.0)], 1.0)
        assert got[0].lo == pytest.approx(lo, abs=1e-9) == pytest.approx(2.0, abs=1e-9)
        assert got[0].hi == pytest.approx(hi, abs=1e-9) == pytest.approx(2.0, abs=1e-9)

        # interval query against a brute-force sweep of the point formula
        X = Box([0.9], [1.1])
        enc = f_over_iv(X, kb)
        xs = np.linspace(0.9, 1.1, 201)
        vals_lo = []
        vals_hi = []
        for x in xs:
            lo, hi = eq10_oracle(float(x), [(0.0, 0.0, 1.0), (2.0, 3.0, 4.0)], 1.0)
            vals_lo.append(lo)
            vals_hi.append(hi)
        assert enc[0].lo <= min(vals_lo) + 1e-9
        assert enc[0].hi >= max(vals_hi) - 1e-9

    def test_degenerate_interval_query_equals_point(self):
        kb = self.kb_1d()
        x = np.array([0.7])
        p = f_over(x, kb)
        q = f_over_iv(Box.point(x), kb)
        assert p[0].lo == pytest.approx(q[0].lo, abs=1e-9)
        assert p[0].hi == pytest.approx(q[0].hi, abs=1e-9)

    def test_interval_query_isotone(self):
        kb = self.kb_1d()
        small = Box([0.2], [0.4])
        big = Box([0.0], [0.8])
        assert f_over_iv(big, kb).encloses(f_over_iv(small, kb), atol=1e-9)
        assert G_over_iv(big, kb).encloses(G_over_iv(small, kb), atol=1e-9)


class TestBuildKnowledge:
    def test_build_is_idempotent(self):
        sysu = unicycle()
        traj = excite(sysu, 12, seed=7, dt=0.1, x0=[-2.0, -2.5, math.pi / 2])
        kb = build_knowledge(traj, sysu.lip, sysu.side)
        kb2 = rebuild(kb)
        assert kb2.xs.shape[0] == kb.xs.shape[0]
        assert np.allclose(kb.cf_lo, kb2.cf_lo, atol=1e-8)
        assert np.allclose(kb.cf_hi, kb2.cf_hi, atol=1e-8)
        assert np.allclose(kb.cg_lo, kb2.cg_lo, atol=1e-8)
        assert np.allclose(kb.cg_hi, kb2.cg_hi, atol=1e-8)

    def test_soundness_on_unicycle(self):
        sysu = unicycle()
        traj = excite(sysu, 15, seed=3, dt=0.1, x0=[-2.0, -2.5, math.pi / 2])
        kb = build_knowledge(traj, sysu.lip, sysu.side)
        rng = np.random.default_rng(11)
        for _ in range(1000):
            x = rng.uniform(sysu.X.lo, sysu.X.hi)
            fe = f_over(x, kb)
            Ge = G_over(x, kb)
            assert fe.contains(sysu.f_true(x), atol=1e-9)
            assert Ge.contains(sysu.G_true(x), atol=1e-9)

    def test_more_data_never_widens(self):
        sysu = unicycle()
        traj = excite(sysu, 10, seed=5, dt=0.1, x0=[-2.0, -2.5, math.pi / 2])
        kb_small = build_knowledge(traj[:6], sysu.lip, sysu.side)
        kb_big = build_knowledge(traj, sysu.lip, sysu.side)
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.uniform(sysu.X.lo, sysu.X.hi)
            ws = f_over(x, kb_small).width
            wb = f_over(x, kb_big).width
            assert np.all(wb <= ws + 1e-9)
            Gs = G_over(x, kb_small).width
            Gb = G_over(x, kb_big).width
            assert np.all(Gb <= Gs + 1e-9)

    def test_side_info_never_widens(self):
        sysu = unicycle()
        traj = excite(sysu, 10, seed=5, dt=0.1, x0=[-2.0, -2.5, math.pi / 2])
        kb_plain = build_knowledge(traj, sysu.lip, SideInfoSet())
        kb_dec = build_knowledge(traj, sysu.lip, sysu.side)
        rng = np.random.default_rng(4)
        for _ in range(50):
            x = rng.uniform(sysu.X.lo, sysu.X.hi)
            assert np.all(f_over(x, kb_dec).width <= f_over(x, kb_plain).width + 1e-9)
            assert np.all(G_over(x, kb_dec).width <= G_over(x, kb_plain).width + 1e-9)

    def test_append_sample_matches_incremental_build(self):
        sysu = unicycle()
        traj = excite(sysu, 8, seed=9, dt=0.1, x0=[-2.0, -2.5, math.pi / 2])
        kb = build_knowledge(traj[:7], sysu.lip, sysu.side)
        kb2 = append_sample(kb, traj[7])
        assert kb2.xs.shape[0] == kb.xs.shape[0] + 1
        # prior entries untouched by the incremental update
        N = kb.xs.shape[0]
        assert np.array_equal(kb.cf_lo, kb2.cf_lo[:N])

    def test_inconsistent_side_info_aborts_with_index(self):
        lip = LipschitzBounds([0.0], [[0.0]])
        side = SideInfoSet(
            vf_bounds=VectorFieldBounds(
                region=Box([-5.0], [5.0]),
                f_range=Box([0.0], [0.1]),  # wrong: true data says 5.0
                G_range=Box([[-0.1]], [[0.1]]),
            )
        )
        with pytest.raises((InconsistentSample, EmptyIntersection)) as err:
            build_knowledge([Sample([0.0], [5.0], [1.0])], lip, side)
        assert "0" in str(err.value) or getattr(err.value, "sample_index", None) == 0


class TestJacobianExtensions:
    """The Jacobian pairs the step pipeline reads (`_jacobian_pairs`)."""

    def test_unicycle_masks(self):
        sysu = unicycle()
        traj = excite(sysu, 5, seed=1, dt=0.1, x0=[-2.0, -2.5, math.pi / 2])
        kb = build_knowledge(traj, sysu.lip, sysu.side)
        Jf, JG = (Box(*a) for a in _jacobian_pairs(kb))
        # position columns are forced to zero
        assert np.all(Jf.lo[:, :2] == 0) and np.all(Jf.hi[:, :2] == 0)
        assert np.all(JG.lo[:, :, :2] == 0) and np.all(JG.hi[:, :, :2] == 0)
        # theta column keeps the Lipschitz band
        assert Jf.hi[0, 2] == pytest.approx(0.01)
        assert JG.hi[0, 0, 2] == pytest.approx(1.1)
        assert JG.hi[2, 1, 2] == pytest.approx(0.1)
        assert JG.hi[0, 1, 2] == 0.0  # L = 0 entry

    def test_zero_lipschitz_gives_zero_jacobians(self):
        lip = LipschitzBounds([0.0, 0.0], np.zeros((2, 1)))
        kb = build_knowledge([Sample([0.0, 0.0], [0.0, 0.0], [0.0])], lip)
        Jf, JG = (Box(*a) for a in _jacobian_pairs(kb))
        assert np.all(Jf.lo == 0) and np.all(Jf.hi == 0)
        assert np.all(JG.lo == 0) and np.all(JG.hi == 0)

    def test_monotonicity_override(self):
        lip = LipschitzBounds([2.0], [[0.0]])
        side = SideInfoSet(
            grad_bounds=GradientBounds(f={(0, 0): Interval(0.0, math.inf)})
        )
        kb = build_knowledge([Sample([0.0], [0.0], [0.0])], lip, side)
        Jf = Box(*_jacobian_pairs(kb)[0])
        assert Jf.lo[0, 0] == 0.0
        assert Jf.hi[0, 0] == pytest.approx(2.0)


class TestPartialDynamics:
    def test_residual_trajectory_and_query(self):
        from datareach.systems import quadrotor

        sysq = quadrotor()
        traj = excite(sysq, 8, seed=2, dt=0.008, x0=[0, 0, 5, 0, 0, 0])
        kb = build_knowledge(traj, sysq.lip, sysq.side)
        rng = np.random.default_rng(8)
        for _ in range(200)	:
            x = rng.uniform(sysq.X.lo, sysq.X.hi)
            assert f_over(x, kb).contains(sysq.f_true(x), atol=1e-9)
            assert G_over(x, kb).contains(sysq.G_true(x), atol=1e-9)

    def test_known_rows_are_tight(self):
        from datareach.systems import quadrotor

        sysq = quadrotor()
        traj = excite(sysq, 8, seed=2, dt=0.008, x0=[0, 0, 5, 0, 0, 0])
        kb = build_knowledge(traj, sysq.lip, sysq.side)
        x = np.array([1.0, 2.0, 3.0, -1.0, 0.3, 0.5])
        fe = f_over(x, kb)
        # kinematic rows are exactly the known part
        for row, val in ((0, x[1]), (2, x[3]), (4, x[5])):
            assert fe[row].lo == pytest.approx(val, abs=1e-9)
            assert fe[row].hi == pytest.approx(val, abs=1e-9)

    def test_jacobians_include_known_drift(self):
        from datareach.systems import quadrotor

        sysq = quadrotor()
        traj = excite(sysq, 4, seed=2, dt=0.008, x0=[0, 0, 5, 0, 0, 0])
        kb = build_knowledge(traj, sysq.lip, sysq.side)
        Jf = Box(*_jacobian_pairs(kb)[0])
        assert Jf.lo[0, 1] == pytest.approx(1.0)  # known integrator row
        assert Jf.hi[0, 1] == pytest.approx(1.0)

    def test_known_drift_with_range_bounds(self):
        """Known drift plus range bounds: the base equals the per-sample
        reference bit for bit, its queries enclose the true field with no
        tolerance, and the ranges cut some of them."""
        from dataclasses import replace

        from datareach.knowledge import KnowledgeBase
        from datareach.systems import experiment_for, quadrotor

        sysq, cfg = quadrotor(), experiment_for("quadrotor")
        # |f| <= 11.81 and |G| <= 8.34 on X
        vb = VectorFieldBounds(
            region=sysq.X, f_range=Box(np.full(6, -12.0), np.full(6, 12.0)),
            G_range=Box(np.full((6, 2), -9.0), np.full((6, 2), 9.0)),
        )
        side = replace(sysq.side, vf_bounds=vb)
        traj = excite(sysq, 30, seed=3, dt=cfg.dt, x0=cfg.x0)
        kb = _batched_run(traj, sysq.lip, side, 27)
        _assert_same_base(kb, _ref_run(traj, sysq.lip, side, 27))
        # the same entries without the range bounds
        plain = KnowledgeBase(kb.entries, kb.lip, kb.lip_total, sysq.side)
        rng = np.random.default_rng(3)
        tightened = 0
        for _ in range(300):
            x = rng.uniform(sysq.X.lo, sysq.X.hi)
            fe, ge = f_over(x, kb), G_over(x, kb)
            assert fe.contains(sysq.f_true(x)) and ge.contains(sysq.G_true(x))
            tightened += bool((fe.width < f_over(x, plain).width).any()
                              or (ge.width < G_over(x, plain).width).any())
        assert tightened > 0

    def test_range_bounds_bound_f_not_the_residual(self):
        """f(x) = x on [4, 10]: the residual f - P x is 0, outside the range
        [4, 10] of f, so the seed entry and the sample rows must shift the
        range by P x."""
        from datareach.knowledge import PartialDynamics

        lip = LipschitzBounds([0.0], [[0.0]])
        region = Box([4.0], [10.0])
        side = SideInfoSet(
            vf_bounds=VectorFieldBounds(region, Box([4.0], [10.0]), Box([[1.0]], [[1.0]])),
            partial_dynamics=PartialDynamics([[1.0]], lip),
        )
        traj = [Sample([x], [x + u], [u]) for x, u in ((5.0, 0.0), (6.0, 1.0), (12.0, -1.0))]
        kb = build_knowledge(traj, LipschitzBounds([1.0], [[0.0]]), side)
        # the seed entry sits at the region's middle, 7
        assert (kb.cf_lo[0, 0], kb.cf_hi[0, 0]) == (-3.0, 3.0)
        assert np.all(np.abs(kb.cf_lo[1:]) < 1e-12) and np.all(np.abs(kb.cf_hi[1:]) < 1e-12)
        for x in (4.0, 7.5, 10.0):
            assert f_over([x], kb).contains([x]) and f_over([x], kb).width[0] < 1e-12

    @pytest.mark.parametrize("P", [np.zeros((6, 5)), np.zeros(6), np.full((6, 6), np.nan)],
                             ids=["wide", "vector", "nan"])
    def test_drift_must_be_finite_and_square(self, P):
        from datareach.knowledge import PartialDynamics
        from datareach.systems import quadrotor

        lip = quadrotor().side.partial_dynamics.lip
        with pytest.raises(ValueError, match=r"^P must (have shape \(6, 6\)|be finite), not "):
            PartialDynamics(P, lip)

    def test_drift_is_a_read_only_copy(self):
        from datareach.knowledge import PartialDynamics
        from datareach.systems import quadrotor

        P = np.eye(6)
        pd = PartialDynamics(P, quadrotor().side.partial_dynamics.lip)
        P[0, 0] = 2.0
        assert pd.P[0, 0] == 1.0 and not pd.P.flags.writeable


def test_fixpoint_passes_never_widen():
    sysu = unicycle()
    traj = excite(sysu, 12, seed=5, dt=0.1, x0=[-2.0, -2.5, 1.0])
    one_pass = build_knowledge(traj, sysu.lip, sysu.side, max_fixpoint_iters=1)
    settled = build_knowledge(traj, sysu.lip, sysu.side, max_fixpoint_iters=50)
    assert settled.xs.shape[0] == one_pass.xs.shape[0]
    assert np.all(settled.cf_hi - settled.cf_lo <= one_pass.cf_hi - one_pass.cf_lo + 1e-9)
    assert np.all(settled.cg_hi - settled.cg_lo <= one_pass.cg_hi - one_pass.cg_lo + 1e-9)


class TestRandomSystemFuzz:
    """Long append/rebuild workloads on random systems stay sound."""

    @staticmethod
    def _random_system(rng):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        wf = rng.normal(size=(n, n)) * 0.8
        af = rng.normal(size=n)
        wG = rng.normal(size=(n, m, n)) * 0.8
        aG = rng.normal(size=(n, m))

        def f(x):
            return af * np.sin(wf @ x)

        def G(x):
            return aG * np.sin(np.einsum("klp,p->kl", wG, x))

        # |a| * ||w||_2 is the exact Lipschitz constant of a*sin(w.x)
        Lf = np.abs(af) * np.linalg.norm(wf, axis=1)
        LG = np.abs(aG) * np.linalg.norm(wG, axis=2)
        return n, m, f, G, LipschitzBounds(Lf * 1.02, LG * 1.02)

    def test_fuzz_soundness(self):
        for trial in range(4):
            rng = np.random.default_rng(1000 + trial)
            n, m, f, G, lip = self._random_system(rng)
            x = rng.normal(size=n)
            samples = []
            for _ in range(40):
                u = rng.uniform(-2, 2, m)
                samples.append(Sample(x.copy(), f(x) + G(x) @ u, u))
                x = x + 0.05 * rng.normal(size=n)
            kb = build_knowledge(samples[:10], lip, M=50.0)
            for i, s in enumerate(samples[10:]):
                kb = append_sample(kb, s)
                if (i + 1) % 15 == 0:
                    kb = rebuild(kb)
            kb = rebuild(kb)
            for _ in range(50):
                q = rng.normal(size=n) * 2
                assert f_over(q, kb).contains(f(q), atol=1e-8)
                assert G_over(q, kb).contains(G(q), atol=1e-8)


# ---------------------------------------------------------------------------
# the batched pass against a per-sample reference
# ---------------------------------------------------------------------------

class _RefBase:
    """Entries as a plain list, stacked once so that every query reads the same base.

    ``passes`` and ``residual`` record the invariance run that produced it.
    """

    def __init__(self, entries, lip, side, passes=0, residual=None):
        self.entries, self.lip, self.side = list(entries), lip, side
        self.passes, self.residual = passes, residual
        self.xs = np.array([e.x for e in entries])
        self.cf = [np.array([e.C_F.lo for e in entries]), np.array([e.C_F.hi for e in entries])]
        self.cg = [np.array([e.C_G.lo for e in entries]), np.array([e.C_G.hi for e in entries])]

    def with_entry(self, entry):
        return _RefBase(self.entries + [entry], self.lip, self.side)


def _ref_queries(base, x):
    """Residual enclosures at one state, range bounds applied."""
    from datareach.knowledge import _MEET_TOL, _PAD
    from datareach.intervals import meet

    n, m = base.lip.n, base.lip.m
    diff = base.xs - x
    dec = base.side.decoupling
    f_masks = dec.f_depends if dec is not None else np.ones((n, n), bool)
    g_masks = dec.G_depends if dec is not None else np.ones((n, m, n), bool)

    def dist(mask):
        return np.sqrt((diff[:, mask] ** 2).sum(axis=1))

    def settle(lo, hi):
        scale = np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
        assert not np.any(lo - hi > _MEET_TOL * scale)
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
        return lo - _PAD * scale, hi + _PAD * scale

    Df = np.stack([dist(f_masks[k]) for k in range(n)], axis=1)          # (N, n)
    DG = np.array([[dist(g_masks[k, l]) for l in range(m)] for k in range(n)])
    DG = DG.transpose(2, 0, 1)                                           # (N, n, m)
    sf = base.lip.L_f * Df
    sg = base.lip.L_G * DG
    F = Box(*settle((base.cf[0] - sf).max(axis=0), (base.cf[1] + sf).min(axis=0)))
    G = Box(*settle((base.cg[0] - sg).max(axis=0), (base.cg[1] + sg).min(axis=0)))
    vb, pd = base.side.vf_bounds, base.side.partial_dynamics
    if vb is not None and vb.region.contains(x):
        fb, gb = vb.f_range, vb.G_range
        if pd is not None:
            fb = fb - pd.P @ x
        F, G = meet(F, fb, _MEET_TOL, _PAD), meet(G, gb, _MEET_TOL, _PAD)
    return F, G


def _clamp_into(child, prior):
    """Force child back inside prior (used after padded cuts so C subseteq prior)."""
    lo = np.clip(child.lo, prior.lo, prior.hi)
    hi = np.clip(child.hi, lo, prior.hi)
    return Box(lo, hi)


def _ref_contract_fg(s, F, G):
    """The contraction of f and G at one sample (`knowledge._contract` on one
    row), written with interval-box operations."""
    from datareach.intervals import imat_vec, meet
    from datareach.knowledge import _MEET_TOL, _PAD, _U_ZERO_TOL

    u = s.u
    Gu = imat_vec(G, u)
    C_F = _clamp_into(meet(F, s.xdot - Gu, _MEET_TOL, _PAD), F)
    srun = meet(Box.point(s.xdot) - C_F, Gu, _MEET_TOL, _PAD)
    cg_lo, cg_hi = np.array(G.lo), np.array(G.hi)
    col_lo = np.minimum(G.lo * u, G.hi * u)
    col_hi = np.maximum(G.lo * u, G.hi * u)
    for l in range(len(u)):
        tail = Box(col_lo[:, l + 1:].sum(axis=1), col_hi[:, l + 1:].sum(axis=1))
        if abs(u[l]) > _U_ZERO_TOL:
            num = meet(srun - tail, Box(col_lo[:, l], col_hi[:, l]), _MEET_TOL)
            a, b = num.lo / u[l], num.hi / u[l]
            div_pad = 1e-14 * (1.0 + np.maximum(np.abs(num.lo), np.abs(num.hi))) / abs(u[l])
            cg_lo[:, l] = np.clip(np.minimum(a, b) - div_pad, G.lo[:, l], G.hi[:, l])
            cg_hi[:, l] = np.clip(np.maximum(a, b) + div_pad, cg_lo[:, l], G.hi[:, l])
        used_lo = np.minimum(cg_lo[:, l] * u[l], cg_hi[:, l] * u[l])
        used_hi = np.maximum(cg_lo[:, l] * u[l], cg_hi[:, l] * u[l])
        srun = meet(Box(srun.lo - used_hi, srun.hi - used_lo), tail, _MEET_TOL, _PAD)
    return C_F, Box(cg_lo, cg_hi)


def _ref_residual(s, pd):
    if pd is None:
        return s
    return Sample(s.x, s.xdot - (pd.P @ s.x + 0.0), s.u, s.t)


def _ref_entry(base, s):
    from datareach.knowledge import KnowledgeEntry

    return KnowledgeEntry(s.x, *_ref_contract_fg(s, *_ref_queries(base, s.x)))


def _ref_invariance(base, samples, tol=1e-9, max_iters=50):
    """Jacobi passes: every sample is contracted against the previous base."""
    for passes in range(1, max_iters + 1):
        new = [base.entries[0]] + [_ref_entry(base, s) for s in samples]
        change = 0.0
        for old, cur in zip(base.entries[1:], new[1:]):
            for a, b in ((old.C_F.lo, cur.C_F.lo), (old.C_F.hi, cur.C_F.hi),
                         (old.C_G.lo, cur.C_G.lo), (old.C_G.hi, cur.C_G.hi)):
                change = max(change, float(np.max(np.abs(a - b))))
        base = _RefBase(new, base.lip, base.side, passes, change)
        if change < tol:
            break
    return base


def _ref_seed(traj, lip, side, M=1e3):
    """The seed-only base of a trajectory and its (residual) samples."""
    from datareach.knowledge import KnowledgeEntry

    pd, vb = side.partial_dynamics, side.vf_bounds
    qlip = pd.lip if pd is not None else lip
    n, m = qlip.n, qlip.m
    samples = [_ref_residual(s, pd) for s in traj]
    if vb is not None:
        x0, CF0, CG0 = vb.region.mid, vb.f_range, vb.G_range
        if pd is not None:
            CF0 = CF0 - pd.P @ x0
    else:
        x0 = samples[0].x
        CF0 = Box(np.full(n, -M), np.full(n, M))
        CG0 = Box(np.full((n, m), -M), np.full((n, m), M))
    return _RefBase([KnowledgeEntry(x0, CF0, CG0)], qlip, side), samples


def _ref_append(base, samples):
    for s in samples:
        base = base.with_entry(_ref_entry(base, s))
    return base


def _ref_build(seed, samples, **invariance):
    """`build_knowledge` per sample: each sample contracted against the
    seed-only base alone, then the invariance passes."""
    first = [_ref_entry(seed, s) for s in samples]
    return _ref_invariance(_RefBase(seed.entries + first, seed.lip, seed.side), samples,
                           **invariance)


def _ref_run(traj, lip, side, n_init, M=1e3):
    """Per-sample build on the first n_init samples, then append the rest, then rebuild."""
    base, samples = _ref_seed(traj, lip, side, M)
    base = _ref_build(base, samples[:n_init])
    return _ref_invariance(_ref_append(base, samples[n_init:]), samples)


def _batched_run(traj, lip, side, n_init):
    kb = build_knowledge(traj[:n_init], lip, side)
    for s in traj[n_init:]:
        kb = append_sample(kb, s)
    return rebuild(kb)


def _same_bytes(a, b):
    """Equal shapes and bytes: unlike np.array_equal, -0.0 differs from 0.0."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _assert_same_base(got, want):
    assert _same_bytes(got.xs, want.xs)
    assert _same_bytes(got.cf_lo, want.cf[0]) and _same_bytes(got.cf_hi, want.cf[1])
    assert _same_bytes(got.cg_lo, want.cg[0]) and _same_bytes(got.cg_hi, want.cg[1])
    assert got.passes == want.passes and got.residual == want.residual


@pytest.fixture
def pass_log(monkeypatch):
    """Events of the contraction passes: ("envelopes", entries, rows) for each
    envelope computation and ("loosened", result, rows) for each loosening test."""
    from datareach import knowledge

    log = []
    envelopes, loosened = knowledge._envelopes, knowledge._loosened

    def envelopes_spy(kb, X):
        log.append(("envelopes", kb.xs.shape[0], X.shape[0]))
        return envelopes(kb, X)

    def loosened_spy(diff, lo_columns):
        result = loosened(diff, lo_columns)
        log.append(("loosened", result, diff.shape[0]))
        return result

    monkeypatch.setattr(knowledge, "_envelopes", envelopes_spy)
    monkeypatch.setattr(knowledge, "_loosened", loosened_spy)
    return log


@pytest.fixture
def contract_calls(monkeypatch):
    """(entries, rows) of every `_contract_rows` call."""
    from datareach import knowledge

    calls = []
    contract_rows = knowledge._contract_rows

    def spy(kb, settled, X, *rest):
        calls.append((kb.xs.shape[0], X.shape[0]))
        return contract_rows(kb, settled, X, *rest)

    monkeypatch.setattr(knowledge, "_contract_rows", spy)
    return calls


class TestBatchedPass:
    """build_knowledge, append_sample and rebuild equal a per-sample loop exactly."""

    @pytest.mark.parametrize("name", ["unicycle", "quadrotor", "aircraft"])
    @pytest.mark.parametrize("N", [10, 60, 150, 300])
    def test_presets_match_reference(self, name, N):
        from datareach.systems import by_name, experiment_for

        sys_ = by_name(name)
        cfg = experiment_for(name)
        traj = excite(sys_, N + 3, seed=N, dt=cfg.dt, x0=cfg.x0)
        _assert_same_base(
            _batched_run(traj, sys_.lip, sys_.side, N),
            _ref_run(traj, sys_.lip, sys_.side, N),
        )

    @pytest.mark.parametrize("setting", ["lipschitz_only", "decoupled", "decoupled_bounds"])
    def test_unicycle_settings_match_reference(self, setting):
        from datareach.systems import unicycle_knowledge_settings

        sysu = unicycle()
        side = unicycle_knowledge_settings()[setting]
        traj = excite(sysu, 15, seed=2, dt=0.1, x0=[-2.0, -2.5, math.pi / 2])
        _assert_same_base(
            _batched_run(traj, sysu.lip, side, 12), _ref_run(traj, sysu.lip, side, 12)
        )

    def test_closed_loop_sequence_matches_reference(self, pass_log):
        """Build at 10, then three rounds of 25 appends and a rebuild, as a loop does."""
        from datareach.systems import by_name, experiment_for

        sys_ = by_name("aircraft")
        cfg = experiment_for("aircraft")
        traj = excite(sys_, 85, seed=3, dt=cfg.dt, x0=cfg.x0)
        base, samples = _ref_seed(traj, sys_.lip, sys_.side)
        base = _ref_build(base, samples[:10])
        kb = build_knowledge(traj[:10], sys_.lip, sys_.side)
        _assert_same_base(kb, base)
        for start, end in ((10, 35), (35, 60), (60, 85)):
            for s in traj[start:end]:
                kb = append_sample(kb, s)
            pass_log.clear()
            kb = rebuild(kb)
            base = _ref_invariance(_ref_append(base, samples[start:end]), samples[:end])
            _assert_same_base(kb, base)
            # some of the rebuild's passes folded in only the changed entries
            assert any(e[0] == "envelopes" and e[1] < end + 1 for e in pass_log)

    def test_loosened_entry_forces_a_full_pass(self, monkeypatch):
        """After a pass that loosened an entry (forced here through the
        guard), the next pass recomputes every row, and the base still
        equals the per-sample reference."""
        from datareach import knowledge
        from datareach.systems import by_name, experiment_for

        sys_ = by_name("quadrotor")
        cfg = experiment_for("quadrotor")
        traj = excite(sys_, 44, seed=4, dt=cfg.dt, x0=cfg.x0)
        kb = build_knowledge(traj[:40], sys_.lip, sys_.side)
        for s in traj[40:]:
            kb = append_sample(kb, s)
        log = []
        envelopes = knowledge._envelopes

        def envelopes_spy(kb, X):
            log.append(("envelopes", kb.xs.shape[0], X.shape[0]))
            return envelopes(kb, X)

        def loosened_spy(diff, lo_columns):
            log.append(("loosened", diff.shape[0]))
            return len(log) == 2  # the first pass's test reports a loosened entry

        monkeypatch.setattr(knowledge, "_envelopes", envelopes_spy)
        monkeypatch.setattr(knowledge, "_loosened", loosened_spy)
        got = rebuild(kb, max_fixpoint_iters=3)
        base, samples = _ref_seed(traj, sys_.lip, sys_.side)
        base = _ref_build(base, samples[:40])
        want = _ref_invariance(_ref_append(base, samples[40:]), samples, max_iters=3)
        _assert_same_base(got, want)
        # the first pass folded the changed entries (the 4 appended among
        # them) into the cached envelopes and re-contracted only the rows
        # they moved
        kind, entries, rows = log[0]
        assert kind == "envelopes" and 4 <= entries < 45 and rows == 44
        kind, recomputed = log[1]
        assert kind == "loosened" and recomputed < 44
        # the forced verdict dropped the cache: the second pass is a full one
        assert log[2] == ("envelopes", 45, 44)

    @pytest.mark.parametrize("name", ["unicycle", "quadrotor", "aircraft"])
    def test_contract_fg_matches_box_reference(self, name):
        """A one-row `_contract` equals the box reference bit for bit, and a
        corrupted derivative fails in both at the same component."""
        from datareach.knowledge import KnowledgeEntry
        from datareach.systems import by_name, experiment_for

        sys_ = by_name(name)
        cfg = experiment_for(name)
        pd = sys_.side.partial_dynamics
        traj = [_ref_residual(s, pd) for s in excite(sys_, 30, seed=4, dt=cfg.dt, x0=cfg.x0)]
        lip = pd.lip if pd is not None else sys_.lip
        M = np.full((lip.n, lip.m), 1e3)
        base = _RefBase([KnowledgeEntry(traj[0].x, Box(-M[:, 0], M[:, 0]), Box(-M, M))],
                        lip, sys_.side)
        failures = []
        for s in traj:
            F, G = _ref_queries(base, s.x)
            c_lo, c_hi, stages = _contract(s.xdot[None], s.u[None], *fg_rows(F, G))
            assert _first_failure(stages) is None
            (cf_lo, cg_lo), (cf_hi, cg_hi) = _split(c_lo[0], lip.n), _split(c_hi[0], lip.n)
            want_F, want_G = _ref_contract_fg(s, F, G)
            assert np.array_equal(cf_lo, want_F.lo) and np.array_equal(cf_hi, want_F.hi)
            assert np.array_equal(cg_lo, want_G.lo) and np.array_equal(cg_hi, want_G.hi)
            base = base.with_entry(KnowledgeEntry(s.x, want_F, want_G))
            # a corrupted derivative fails in both, at the same component
            bad = Sample(s.x, s.xdot + 50.0 * (np.arange(lip.n) == lip.n - 1), s.u)
            want_comp = None
            try:
                _ref_contract_fg(bad, want_F, want_G)
            except EmptyIntersection as exc:
                want_comp = exc.index
            _, _, stages = _contract(bad.xdot[None], bad.u[None], *fg_rows(want_F, want_G))
            failure = _first_failure(stages)
            assert (None if failure is None else failure[2]) == want_comp
            failures.append(want_comp)
        assert any(c is not None for c in failures)

    @pytest.mark.parametrize(
        "columns",
        [("every", "some", "none"), ("none", "every", "some"), ("some", "none", "every")],
        ids=lambda c: "-".join(c),
    )
    def test_contract_with_dead_columns_matches_box_reference(self, columns):
        """One multi-row `_contract` call in which each control column is dead
        (|u_l| <= _U_ZERO_TOL) on every row, on some rows or on none equals
        the per-row reference bit for bit, and a corrupted row fails at the
        reference's component."""
        from datareach import knowledge
        from datareach.knowledge import _U_ZERO_TOL, _first_failure

        rng = np.random.default_rng(11)
        n, m, k = 3, 3, 8
        dead = {"every": np.ones(k, bool), "some": np.arange(k) % 2 == 0,
                "none": np.zeros(k, bool)}
        U = rng.uniform(-2.0, 2.0, (k, m))
        for l, kind in enumerate(columns):
            tiny = rng.choice([0.0, -0.0, 0.5 * _U_ZERO_TOL, -_U_ZERO_TOL], k)
            U[:, l] = np.where(dead[kind], tiny, U[:, l])
        f, G = rng.normal(size=(k, n)), rng.normal(size=(k, n, m))
        XDOT = f + np.einsum("knm,km->kn", G, U)
        F_lo, F_hi = f - rng.uniform(0.1, 1.0, f.shape), f + rng.uniform(0.1, 1.0, f.shape)
        G_lo, G_hi = G - rng.uniform(0.1, 1.0, G.shape), G + rng.uniform(0.1, 1.0, G.shape)
        LO = np.concatenate((F_lo, G_lo.reshape(k, -1)), axis=1)
        HI = np.concatenate((F_hi, G_hi.reshape(k, -1)), axis=1)
        bad_row = 5
        XDOT[bad_row] += 50.0 * (np.arange(n) == 1)
        c_lo, c_hi, stages = knowledge._contract(XDOT, U, LO, HI)
        for i in range(k):
            s = Sample(np.zeros(n), XDOT[i], U[i])
            F, G_box = Box(F_lo[i], F_hi[i]), Box(G_lo[i], G_hi[i])
            if i == bad_row:
                with pytest.raises(EmptyIntersection) as exc:
                    _ref_contract_fg(s, F, G_box)
                continue
            want_F, want_G = _ref_contract_fg(s, F, G_box)
            assert c_lo[i, :n].tobytes() == want_F.lo.tobytes()
            assert c_hi[i, :n].tobytes() == want_F.hi.tobytes()
            assert c_lo[i, n:].tobytes() == want_G.lo.tobytes()
            assert c_hi[i, n:].tobytes() == want_G.hi.tobytes()
        assert _first_failure(stages) == (bad_row, "contract", exc.value.index)

    @pytest.mark.parametrize("N", [1, 15, 100])
    def test_first_pass_is_one_contraction_call(self, N, contract_calls):
        """A build contracts all its samples against the seed-only base in one
        `_contract_rows` call, whatever N is; each invariance pass makes one
        more."""
        sysu = unicycle()
        traj = excite(sysu, N, seed=4, dt=0.1, x0=[-2.0, -2.5, math.pi / 2])
        kb = build_knowledge(traj, sysu.lip, sysu.side)
        assert contract_calls[0] == (1, N)
        # the passes run on the full base (a delta pass contracts fewer rows)
        assert [entries for entries, _ in contract_calls[1:]] == [N + 1] * kb.passes

    def test_zero_sample_build_from_range_bounds(self, contract_calls):
        """With range bounds and no samples, the first pass contracts no row
        and the base is the seed entry alone."""
        lip = LipschitzBounds([0.5], [[0.0]])
        side = SideInfoSet(vf_bounds=VectorFieldBounds(
            region=Box([-1.0], [1.0]), f_range=Box([-2.0], [3.0]), G_range=Box([[1.0]], [[1.0]])))
        kb = build_knowledge([], lip, side)
        assert contract_calls == [(1, 0), (1, 0)]
        assert kb.xs.shape == (1, 1) and (kb.passes, kb.residual) == (1, 0.0)
        # the ranges, padded outward by the settle's relative pad
        fe, ge = f_over([0.5], kb), G_over([0.5], kb)
        assert fe.encloses(Box([-2.0], [3.0])) and ge.encloses(Box([[1.0]], [[1.0]]))
        assert np.allclose(fe.lo, -2.0, rtol=1e-12) and np.allclose(fe.hi, 3.0, rtol=1e-12)

    @pytest.mark.parametrize("chunk_floats", [None, 1])
    def test_rebuild_raises_for_lowest_failing_sample(self, chunk_floats, monkeypatch):
        from datareach import knowledge

        if chunk_floats is not None:  # one sample per chunk
            monkeypatch.setattr(knowledge, "_CHUNK_FLOATS", chunk_floats)
        sysu = unicycle()
        traj = excite(sysu, 20, seed=7, dt=0.1, x0=[-2.0, -2.5, math.pi / 2])
        kb = build_knowledge(traj, sysu.lip, sysu.side)
        xdot = kb.xdot.copy()
        xdot[[13, 6], 0] += 100.0
        # the same rows with corrupted stored derivatives and no cached
        # envelopes, so the first pass contracts every row
        bad = kb._with_cols(kb._cols, (xdot, kb.u))
        with pytest.raises(InconsistentSample) as err:
            rebuild(bad)
        assert err.value.sample_index == 6
        assert err.value.component == (0,)
        assert str(err.value) == "sample 6 contradicts the enclosures at component (0,)"

    def test_nan_sample_rejected(self):
        lip = LipschitzBounds([1.0], [[1.0]])
        with pytest.raises(ValueError, match=r"^xdot must be finite, not \[nan\]"):
            build_knowledge([Sample([0.0], [0.0], [1.0]), Sample([0.5], [math.nan], [1.0])], lip)

    def test_records_passes_and_residual(self):
        sysu = unicycle()
        traj = excite(sysu, 12, seed=5, dt=0.1, x0=[-2.0, -2.5, 1.0])
        one = build_knowledge(traj, sysu.lip, sysu.side, max_fixpoint_iters=1)
        assert one.passes == 1 and one.residual >= 0.0
        settled = build_knowledge(traj, sysu.lip, sysu.side)
        assert 1 <= settled.passes <= 50
        assert settled.residual < 1e-9 or settled.passes == 50
        again = rebuild(settled, max_fixpoint_iters=3)
        assert 1 <= again.passes <= 3
        grown = append_sample(settled, traj[0])
        assert grown.passes == 0 and grown.residual is None

    @pytest.mark.parametrize("name", ["quadrotor", "aircraft"])
    def test_base_holds_its_residual_samples(self, name):
        from datareach.systems import by_name, experiment_for

        sys_ = by_name(name)
        cfg = experiment_for(name)
        pd = sys_.side.partial_dynamics
        traj = excite(sys_, 30, seed=6, dt=cfg.dt, x0=cfg.x0)
        kb = build_knowledge(traj[:20], sys_.lip, sys_.side)
        for s in traj[20:]:
            kb = append_sample(kb, s)
        for got in (kb, rebuild(kb, max_fixpoint_iters=2)):
            resid = [_ref_residual(s, pd) for s in traj]
            assert np.array_equal(got.xdot, np.array([s.xdot for s in resid]))
            assert np.array_equal(got.u, np.array([s.u for s in traj]))
            assert not np.array_equal(got.xdot, np.array([s.xdot for s in traj]))


# ---------------------------------------------------------------------------
# stacked rows and the point-envelope slot
# ---------------------------------------------------------------------------

@pytest.fixture
def envelope_calls(monkeypatch):
    """Row counts of every envelope computation against a base."""
    from datareach import knowledge

    calls = []
    envelopes = knowledge._envelopes

    def spy(kb, X):
        calls.append(X.shape[0])
        return envelopes(kb, X)

    monkeypatch.setattr(knowledge, "_envelopes", spy)
    return calls


def _assert_same_rows(a, b):
    assert np.array_equal(a.xs, b.xs)
    assert np.array_equal(a.c_lo, b.c_lo) and np.array_equal(a.c_hi, b.c_hi)


class TestStackedRowsAndPointSlot:
    """f and G share one stacked row; a point query's envelope serves the append after it."""

    @staticmethod
    def _preset(name, N=40):
        from datareach.systems import by_name, experiment_for

        sys_ = by_name(name)
        cfg = experiment_for(name)
        traj = excite(sys_, N + 2, seed=N, dt=cfg.dt, x0=cfg.x0)
        return sys_, cfg, traj

    def test_part_arrays_are_read_only_views(self):
        sys_, _, traj = self._preset("quadrotor")
        kb = build_knowledge(traj, sys_.lip, sys_.side)
        n, m = kb.n, kb.m
        assert kb.c_lo.shape == kb.c_hi.shape == (kb.xs.shape[0], n + n * m)
        for part, stacked in ((kb.cf_lo, kb.c_lo), (kb.cf_hi, kb.c_hi),
                              (kb.cg_lo, kb.c_lo), (kb.cg_hi, kb.c_hi)):
            assert np.shares_memory(part, stacked) and not part.flags.writeable
            with pytest.raises(ValueError):
                part[0] = 0.0
        assert np.array_equal(kb.cf_lo, kb.c_lo[:, :n])
        assert np.array_equal(kb.cg_hi.reshape(-1, n * m), kb.c_hi[:, n:])
        assert kb.cg_lo.shape == (kb.xs.shape[0], n, m)

    @pytest.mark.parametrize("name", ["unicycle", "quadrotor", "aircraft"])
    def test_append_after_control_step_equals_fresh_base(self, name, envelope_calls):
        from datareach.control import datacontrol_step

        sys_, cfg, traj = self._preset(name)
        samples, (s, s2) = traj[:-2], traj[-2:]
        stepped = build_knowledge(samples, sys_.lip, sys_.side)
        fresh = build_knowledge(samples, sys_.lip, sys_.side)
        datacontrol_step(stepped, s.x, cfg.cost, sys_.U, sys_.X, cfg.dt)
        envelope_calls.clear()
        got = append_sample(stepped, s)
        assert envelope_calls == []  # the step's envelope served the append
        want = append_sample(fresh, s)
        assert envelope_calls == [1]
        _assert_same_rows(got, want)
        # the reused envelope also joins the delta-pass cache unchanged
        got, want = append_sample(got, s2), append_sample(want, s2)
        _assert_same_rows(rebuild(got), rebuild(want))

    def test_one_ulp_away_misses_the_slot(self, envelope_calls):
        from datareach.control import datacontrol_step

        sys_, cfg, traj = self._preset("unicycle")
        samples, s = traj[:-2], traj[-2]
        stepped = build_knowledge(samples, sys_.lip, sys_.side)
        fresh = build_knowledge(samples, sys_.lip, sys_.side)
        datacontrol_step(stepped, s.x, cfg.cost, sys_.U, sys_.X, cfg.dt)
        x = s.x.copy()
        x[0] = np.nextafter(x[0], np.inf)
        near = Sample(x, s.xdot, s.u, s.t)
        envelope_calls.clear()
        got = append_sample(stepped, near)
        assert envelope_calls == [1]
        _assert_same_rows(got, append_sample(fresh, near))

    @pytest.mark.parametrize("name", ["unicycle", "aircraft"])
    def test_append_settles_once_per_state(self, name, monkeypatch):
        """An append at the last point query's state reuses its settle; one at
        another state settles its own envelope."""
        from datareach import knowledge
        from datareach.control import datacontrol_step

        sys_, cfg, traj = self._preset(name)
        samples, (s, s2) = traj[:-2], traj[-2:]
        stepped = build_knowledge(samples, sys_.lip, sys_.side)
        fresh = build_knowledge(samples, sys_.lip, sys_.side)
        settles = []
        settle = knowledge._settle

        def settle_spy(lo, hi):
            settles.append(lo.shape[0])
            return settle(lo, hi)

        monkeypatch.setattr(knowledge, "_settle", settle_spy)
        datacontrol_step(stepped, s.x, cfg.cost, sys_.U, sys_.X, cfg.dt)
        settles.clear()
        other = append_sample(stepped, s2)
        assert settles == [1]
        _assert_same_rows(other, append_sample(fresh, s2))
        settles.clear()
        same = append_sample(stepped, s)
        assert settles == []
        _assert_same_rows(same, append_sample(fresh, s))

    def test_slot_hit_on_every_step_of_the_preset_loops(self, monkeypatch, envelope_calls):
        import dataclasses

        from datareach import systems

        appends = []
        append = systems.append_sample

        def append_spy(kb, sample):
            before = len(envelope_calls)
            out = append(kb, sample)
            appends.append(len(envelope_calls) - before)
            return out

        monkeypatch.setattr(systems, "append_sample", append_spy)
        for name in ("unicycle", "quadrotor", "aircraft"):
            appends.clear()
            cfg = dataclasses.replace(systems.experiment_for(name), max_steps=30)
            report = systems.run_closed_loop(systems.by_name(name), cfg)
            assert report.failure is None
            assert len(appends) == report.steps_taken > 0
            assert appends == [0] * len(appends)

    def test_f_crossing_reported_before_G_crossing(self):
        from datareach.control import linearize
        from datareach.knowledge import KnowledgeBase, KnowledgeEntry

        lip = LipschitzBounds([0.1], [[0.1]])

        def base(f_far, g_far):
            entries = [
                KnowledgeEntry(np.array([0.0]), Box([0.0], [0.0]), Box([[0.0]], [[0.0]])),
                KnowledgeEntry(np.array([1.0]), Box([f_far], [f_far]), Box([[g_far]], [[g_far]])),
            ]
            return KnowledgeBase(entries, lip, lip)

        s = Sample([0.5], [0.0], [1.0])
        both, only_g = base(5.0, 5.0), base(0.0, 5.0)
        for kb, what, comp in ((both, "f", (0,)), (only_g, "G", (0, 0))):
            with pytest.raises(EmptyIntersection) as fresh:
                append_sample(kb, s)
            assert str(fresh.value).startswith(f"{what}-enclosure empty")
            assert fresh.value.index == comp
            # the failing point query leaves its envelope; the append reuses it
            with pytest.raises(EmptyIntersection, match=f"^{what}-enclosure"):
                linearize(Box.point(s.x), kb, Box([-1.0], [1.0]), 0.1)
            with pytest.raises(EmptyIntersection) as slot:
                append_sample(kb, s)
            assert str(slot.value) == str(fresh.value) and slot.value.index == comp
        with pytest.raises(EmptyIntersection, match="^G-enclosure"):
            G_over_iv(Box([0.4], [0.6]), both)


# ---------------------------------------------------------------------------
# the column layout against a per-entry envelope
# ---------------------------------------------------------------------------

def _entrywise_envelope(kb, lo_x, hi_x):
    """Pre-settle Lipschitz envelope over the box [lo_x, hi_x], one entry and
    one component at a time in Python floats."""
    n, m = kb.n, kb.m
    dec = kb.side.decoupling
    f_masks = dec.f_depends if dec is not None else np.ones((n, n), bool)
    g_masks = dec.G_depends if dec is not None else np.ones((n, m, n), bool)
    masks = [np.flatnonzero(f_masks[k]) for k in range(n)]
    masks += [np.flatnonzero(g_masks[k, l]) for k in range(n) for l in range(m)]
    L = list(kb.lip.L_f) + list(kb.lip.L_G.ravel())
    lo, hi = [-math.inf] * len(L), [math.inf] * len(L)
    for i in range(kb.xs.shape[0]):
        far = [max(abs(a - x), abs(b - x)) for a, b, x in zip(lo_x, hi_x, kb.xs[i])]
        for c, mask in enumerate(masks):
            acc = 0.0
            for p in mask:  # in state order, as numpy sums a short axis
                acc += far[p] * far[p]
            slack = L[c] * math.sqrt(acc)
            lo[c] = max(lo[c], kb.c_lo[i, c] - slack)
            hi[c] = min(hi[c], kb.c_hi[i, c] + slack)
    return np.array(lo), np.array(hi)


def _assert_bitwise(got, want):
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


class TestColumnLayout:
    """Envelopes over the column-major storage equal a per-entry loop, bit for bit."""

    @staticmethod
    def _base(name):
        from datareach.systems import by_name, experiment_for, unicycle_knowledge_settings

        if name == "aircraft":  # two mask groups, partial dynamics
            sys_, side = by_name(name), by_name(name).side
        else:
            sys_, side = unicycle(), unicycle_knowledge_settings()[name]
        cfg = experiment_for(sys_.name)
        traj = excite(sys_, 30, seed=3, dt=cfg.dt, x0=cfg.x0)
        kb = build_knowledge(traj[:24], sys_.lip, side, max_fixpoint_iters=5)
        return kb, traj[24:]

    BASES = ["aircraft", "lipschitz_only", "decoupled_bounds"]

    @pytest.mark.parametrize("name", BASES)
    def test_box_query_envelope(self, name, monkeypatch):
        from datareach import knowledge

        kb, rest = self._base(name)
        seen = []
        unknown = knowledge._unknown

        def spy(kb, dists):
            seen.append(unknown(kb, dists))
            return seen[-1]

        monkeypatch.setattr(knowledge, "_unknown", spy)
        rng = np.random.default_rng(0)
        for s in rest:
            r = rng.uniform(0.0, 0.05, size=kb.n) * (1.0 + np.abs(s.x))
            for lo_x, hi_x in ((s.x, s.x), (s.x - r, s.x + r)):
                knowledge._box_query(kb, Box(lo_x, hi_x))
                want = _entrywise_envelope(kb, lo_x, hi_x)
                _assert_bitwise([a[0] for a in seen[-1]], want)
        # the last point query left its envelope for an append at that state
        _assert_bitwise([a[0] for a in kb._point[1]], _entrywise_envelope(kb, s.x, s.x))

    @pytest.mark.parametrize("chunk_floats", [None, 1])
    @pytest.mark.parametrize("name", BASES)
    def test_envelopes(self, name, chunk_floats, monkeypatch):
        from datareach import knowledge

        if chunk_floats is not None:  # one row per chunk
            monkeypatch.setattr(knowledge, "_CHUNK_FLOATS", chunk_floats)
        kb, rest = self._base(name)
        X = np.array([s.x for s in rest] + [e.x for e in kb.entries[1:]])
        lo, hi = knowledge._envelopes(kb, X)
        for r, x in enumerate(X):
            _assert_bitwise((lo[r], hi[r]), _entrywise_envelope(kb, x, x))

    @pytest.mark.parametrize("name", BASES)
    def test_rebuild_envelopes(self, name, monkeypatch):
        from datareach import knowledge

        kb, rest = self._base(name)
        for s in rest:
            kb = append_sample(kb, s)
        calls = []
        envelopes = knowledge._envelopes

        def spy(base, X):
            calls.append((base, X, envelopes(base, X)))
            return calls[-1][2]

        monkeypatch.setattr(knowledge, "_envelopes", spy)
        rebuild(kb, max_fixpoint_iters=3)
        assert calls
        for base, X, (lo, hi) in calls:
            for r, x in enumerate(X):
                _assert_bitwise((lo[r], hi[r]), _entrywise_envelope(base, x, x))

    @pytest.mark.parametrize("name", BASES)
    def test_public_arrays_are_read_only_views_of_the_columns(self, name):
        kb, rest = self._base(name)
        kb = rebuild(append_sample(kb, rest[0]), max_fixpoint_iters=2)
        n, m, N = kb.n, kb.m, kb.xs.shape[0]
        x_cols, lo_cols, hi_cols = kb._cols
        assert x_cols.shape == (n, N) and lo_cols.shape == hi_cols.shape == (n + n * m, N)
        assert all(a.flags.c_contiguous and not a.flags.writeable for a in kb._cols)
        views = [(kb.xs, x_cols, (N, n)), (kb.c_lo, lo_cols, (N, n + n * m)),
                 (kb.c_hi, hi_cols, (N, n + n * m)), (kb.cf_lo, lo_cols, (N, n)),
                 (kb.cf_hi, hi_cols, (N, n)), (kb.cg_lo, lo_cols, (N, n, m)),
                 (kb.cg_hi, hi_cols, (N, n, m))]
        for view, stored, shape in views:
            assert view.shape == shape and not view.flags.writeable
            assert np.shares_memory(view, stored)
            with pytest.raises(ValueError):
                view[0] = 0.0
        assert np.array_equal(kb.xs, x_cols.T) and np.array_equal(kb.c_hi, hi_cols.T)
        assert np.array_equal(kb.cg_lo, lo_cols[n:].T.reshape(N, n, m))
        assert len(kb.entries) == N


class TestKnowledgeSettings:
    @pytest.mark.parametrize("key, value", [
        ("M", math.inf), ("M", math.nan), ("M", 0.0), ("M", -1.0), ("M", True),
        ("fixpoint_tol", math.nan), ("fixpoint_tol", -1.0), ("fixpoint_tol", 0.0),
        ("fixpoint_tol", math.inf), ("max_fixpoint_iters", 2.5), ("max_fixpoint_iters", -1),
        ("max_fixpoint_iters", 0), ("max_fixpoint_iters", True),
    ])
    def test_build_rejects(self, key, value):
        sysu = unicycle()
        traj = excite(sysu, 5, seed=1, dt=0.1)
        with pytest.raises(ValueError, match=f"^{key} must"):
            build_knowledge(traj, sysu.lip, sysu.side, **{key: value})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize("where", ["L_f", "L_G"])
    def test_lipschitz_bounds_rejected(self, where, bad):
        """A negative, NaN or infinite Lipschitz constant is rejected when the
        bounds are made, before a build could store NaN enclosures."""
        lip = unicycle().lip
        L_f, L_G = lip.L_f.copy(), lip.L_G.copy()
        if where == "L_f":
            L_f[2] = bad
        else:
            L_G[2, 0] = bad
        with pytest.raises(ValueError, match=f"^{where} must be finite and nonnegative, not "):
            LipschitzBounds(L_f, L_G)

    def test_rebuild_rejects_entries_without_samples(self):
        """A base from the constructor holds no samples to re-contract."""
        from datareach.knowledge import KnowledgeBase

        kb = build_knowledge(excite(unicycle(), 5, seed=1, dt=0.1), unicycle().lip)
        plain = KnowledgeBase(kb.entries, kb.lip, kb.lip_total)
        with pytest.raises(ValueError, match="^kb holds entries with no sample"):
            rebuild(plain)

    @pytest.mark.parametrize("key, value", [
        ("fixpoint_tol", math.nan), ("fixpoint_tol", -1.0),
        ("max_fixpoint_iters", 0), ("max_fixpoint_iters", 2.5), ("max_fixpoint_iters", True),
    ])
    def test_rebuild_rejects(self, key, value):
        sysu = unicycle()
        kb = build_knowledge(excite(sysu, 5, seed=1, dt=0.1), sysu.lip, sysu.side)
        with pytest.raises(ValueError, match=f"^{key} must"):
            rebuild(kb, **{key: value})
