"""Hypothesis properties of the knowledge base, checked without tolerance.

Bases are built from samples of random Lipschitz systems, so every query is
consistent.  The one-row contraction on Python floats is checked against
the batched one on drawn rows, consistent or not, byte for byte.  The
conftest profile makes the examples the same in every process.
"""

import itertools
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from datareach import knowledge
from datareach.errors import DataReachError
from datareach.intervals import Box
from datareach.knowledge import (
    _PAD,
    _U_ZERO_TOL,
    Decoupling,
    LipschitzBounds,
    Sample,
    SideInfoSet,
    VectorFieldBounds,
    _contract,
    _contract_row,
    _first_failure,
    _unknown,
    append_sample,
    build_knowledge,
    f_over,
    f_over_iv,
    G_over,
    G_over_iv,
    rebuild,
)


@st.composite
def random_bases(draw):
    """A base from 2-6 samples of f = a sin(W x), G = A sin(V x), its
    system and a random generator for query points.

    The Lipschitz bounds are the exact constants |a| ||w|| raised by 2 %;
    with decoupling, W and V are zero outside random dependency masks, and
    the range bounds are the exact ranges [-|a|, |a|] over a region that
    holds the samples.
    """
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    decoupled, bounded = draw(st.booleans()), draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    wf, wG = rng.normal(size=(n, n)), rng.normal(size=(n, m, n))
    af, aG = rng.normal(size=n), rng.normal(size=(n, m))
    side = {}
    if decoupled:
        f_dep, G_dep = rng.random((n, n)) < 0.6, rng.random((n, m, n)) < 0.6
        wf, wG = wf * f_dep, wG * G_dep
        side["decoupling"] = Decoupling(f_dep, G_dep)

    def f(x):
        return af * np.sin(wf @ x)

    def G(x):
        return aG * np.sin(np.einsum("klp,p->kl", wG, x))

    lip = LipschitzBounds(
        1.02 * np.abs(af) * np.linalg.norm(wf, axis=1),
        1.02 * np.abs(aG) * np.linalg.norm(wG, axis=2),
    )
    if bounded:
        side["vf_bounds"] = VectorFieldBounds(
            Box(np.full(n, -3.0), np.full(n, 3.0)),
            Box(-np.abs(af), np.abs(af)),
            Box(-np.abs(aG), np.abs(aG)),
        )
    samples = []
    for _ in range(draw(st.integers(2, 6))):
        x, u = rng.uniform(-2.0, 2.0, n), rng.uniform(-2.0, 2.0, m)
        samples.append(Sample(x, f(x) + G(x) @ u, u))
    kb = build_knowledge(samples, lip, SideInfoSet(**side), M=50.0)
    return kb, (f, G), rng


def _random_box(rng, n):
    c, r = rng.uniform(-2.5, 2.5, n), rng.uniform(0.0, 0.5, n)
    return Box(c - r, c + r)


def _sub_box(rng, X):
    a = X.lo + rng.random(X.shape) * X.width
    b = X.lo + rng.random(X.shape) * X.width
    return Box(np.clip(np.minimum(a, b), X.lo, X.hi), np.clip(np.maximum(a, b), X.lo, X.hi))


def _nested(inner: Box, outer: Box) -> bool:
    return bool(np.all(outer.lo <= inner.lo) and np.all(inner.hi <= outer.hi))


class TestIsotonicity:
    @given(random_bases())
    def test_sub_box_gives_sub_enclosure(self, case):
        kb, _, rng = case
        for _ in range(4):
            X = _random_box(rng, kb.n)
            Y = _sub_box(rng, X)
            assert _nested(f_over_iv(Y, kb), f_over_iv(X, kb))
            assert _nested(G_over_iv(Y, kb), G_over_iv(X, kb))
            x = Y.lo + rng.random(kb.n) * Y.width
            assert _nested(f_over_iv(Box.point(x), kb), f_over_iv(Y, kb))


class TestMoreDataNeverWidens:
    @given(random_bases(), st.booleans())
    def test_append_sample_never_widens(self, case, point_query_first):
        kb, (f, G), rng = case
        x, u = rng.uniform(-2.0, 2.0, kb.n), rng.uniform(-2.0, 2.0, kb.m)
        if point_query_first:  # the append then reuses this query's envelope
            f_over_iv(Box.point(x), kb)
        grown = append_sample(kb, Sample(x, f(x) + G(x) @ u, u))
        for _ in range(4):
            X = _random_box(rng, kb.n)
            assert _nested(f_over_iv(X, grown), f_over_iv(X, kb))
            assert _nested(G_over_iv(X, grown), G_over_iv(X, kb))
            q = rng.uniform(-2.5, 2.5, kb.n)
            assert _nested(f_over(q, grown), f_over(q, kb))


class TestOneGroupEnvelope:
    @given(random_bases(), st.data())
    def test_broadcast_equals_the_take_path(self, case, data):
        """With one dependency group the envelope scales the distances by
        one broadcast multiply; its bytes are those of taking the group
        per component and scaling in place."""
        kb, _, _ = case
        groups = kb._groups
        assume(len(groups.picks) == 1)
        k = data.draw(st.integers(1, 3))
        dists = data.draw(hnp.arrays(np.float64, (k, 1, kb.xs.shape[0]), elements=st.one_of(
            st.floats(0.0, 1e3, allow_subnormal=True), st.sampled_from([0.0, 1e-300]))))
        slack = np.take(dists, groups.col_group, axis=1)
        slack *= groups.col_L
        want = (kb._cols[1] - slack).max(axis=-1), (kb._cols[2] + slack).min(axis=-1)
        got = _unknown(kb, dists)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def _grown_bases(case, appended):
    """The built base, the `appended` bases `append_sample` grows from it one
    true sample at a time, and the `rebuild` of the last."""
    kb, (f, G), rng = case
    bases = [kb]
    for _ in range(appended):
        x, u = rng.uniform(-2.0, 2.0, kb.n), rng.uniform(-2.0, 2.0, kb.m)
        bases.append(append_sample(bases[-1], Sample(x, f(x) + G(x) @ u, u)))
    bases.append(rebuild(bases[-1]))
    return bases


class TestSoundness:
    @given(random_bases(), st.integers(1, 4))
    def test_built_appended_and_rebuilt_bases_enclose_the_field(self, case, appended):
        """The built base, each base `append_sample` grows from it and their
        `rebuild` contain the true f and G, with no tolerance, at their
        samples and at random points."""
        kb, (f, G), rng = case
        for base in _grown_bases(case, appended):
            for x in [*base.xs[1:], *rng.uniform(-2.5, 2.5, (8, kb.n))]:
                assert f_over(x, base).contains(f(x)) and G_over(x, base).contains(G(x))

    @given(random_bases(), st.integers(1, 4))
    def test_box_queries_enclose_the_field_over_the_box(self, case, appended):
        """Over random boxes around random points, `f_over_iv` / `G_over_iv`
        of the built, appended and rebuilt bases contain the true f and G,
        with no tolerance, at the box's centre, two random corners and
        random points of the box."""
        kb, (f, G), rng = case
        for base in _grown_bases(case, appended):
            for _ in range(4):
                X = _random_box(rng, kb.n)
                F, GX = f_over_iv(X, base), G_over_iv(X, base)
                corners = np.where(rng.random((2, kb.n)) < 0.5, X.lo, X.hi)
                inside = np.clip(X.lo + rng.random((8, kb.n)) * X.width, X.lo, X.hi)
                for x in [X.mid, *corners, *inside]:
                    assert F.contains(f(x)) and GX.contains(G(x))


# values that make exact ties, signed zeros and touching intervals common;
# an endpoint at +-_PAD pads to a signed zero
NICE = (0.0, -0.0, 0.25, -0.5, 1.0, -1.0, 1.5, -2.0, _PAD, -_PAD)
ZEROS = (0.0, -0.0)
# controls at, below and above the magnitude under which a column is left alone
CONTROLS = (0.0, -0.0, _U_ZERO_TOL, -_U_ZERO_TOL, 1.5e-5, -1.5e-5, 5e-6, -5e-6, 0.5, -1.0, 2.0)
SLACK = (0.0, -0.0, 0.25, 1.0)
# offsets of a derivative from f + G u: none, and crossings below and above
# the meet tolerance (1e-8 relative to magnitudes near 1)
OFFSETS = (0.0, -0.0, 5e-9, -5e-9, 2e-8, -2e-8)


@st.composite
def contraction_rows(draw):
    """One row (xdot, u, lo, hi) for `_contract`, n in 1..6 and m in 1..3.

    A true f and G give xdot = f + G u plus a drawn offset.  Each
    enclosure is a pair of signed zeros, the true value widened by drawn
    slack (none makes it touch), or a sorted pair of drawn numbers.
    """
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    number = st.one_of(st.sampled_from(NICE), st.floats(-4.0, 4.0))
    u = [draw(st.one_of(st.sampled_from(CONTROLS), st.floats(-3.0, 3.0))) for _ in range(m)]
    f = [draw(number) for _ in range(n)]
    G = [[draw(number) for _ in range(m)] for _ in range(n)]
    xdot = []
    for fk, row in zip(f, G):
        v = fk
        for g, ul in zip(row, u):
            v += g * ul
        xdot.append(v + draw(st.sampled_from(OFFSETS)))

    def enclosure(v):
        kind = draw(st.sampled_from(["around", "around", "around", "zeros", "pair"]))
        if kind == "zeros":
            return draw(st.sampled_from(ZEROS)), draw(st.sampled_from(ZEROS))
        if kind == "around":
            return v - draw(st.sampled_from(SLACK)), v + draw(st.sampled_from(SLACK))
        a, b = draw(number), draw(number)
        return (a, b) if a <= b else (b, a)

    ends = [enclosure(v) for v in f + [g for row in G for g in row]]
    return tuple(np.array(a) for a in (xdot, u, [e[0] for e in ends], [e[1] for e in ends]))


def _raised(call):
    try:
        call()
    except DataReachError as exc:
        return (type(exc), str(exc), getattr(exc, "sample_index", None),
                getattr(exc, "index", getattr(exc, "component", None)))
    return None


def _assert_row_matches(xdot, u, lo, hi):
    """A consistent row contracts to the bytes of row 0 of `_contract`; on a
    row where `_contract` finds a failure, the float path declines."""
    c_lo, c_hi, stages = _contract(*(np.array([a]) for a in (xdot, u, lo, hi)))
    got = _contract_row(xdot, u, lo, hi)
    if _first_failure(stages) is not None:
        assert got is None
    else:
        assert got is not None
        assert np.array(got[0]).tobytes() == c_lo[0].tobytes()
        assert np.array(got[1]).tobytes() == c_hi[0].tobytes()


class TestFloatRow:
    @settings(max_examples=1000)
    @given(contraction_rows())
    def test_matches_the_batched_row_byte_for_byte(self, row):
        _assert_row_matches(*(a.tolist() for a in row))

    def test_matches_the_batched_row_on_every_small_row(self):
        """Every one-component, one-column row with endpoints, derivative and
        control among signed zeros, +-_PAD and 1.  The drawn rows seldom
        give a clamp an input that ties its bound as a zero of the other
        sign, which is where a tie's order shows."""
        values, controls = (0.0, -0.0, _PAD, -_PAD, 1.0), (0.0, -0.0, 1.0)
        pairs = [(a, b) for a in values for b in values if a <= b]
        for x, ul, (f_lo, f_hi), (g_lo, g_hi) in itertools.product(
                values, controls, pairs, pairs):
            _assert_row_matches([x], [ul], [f_lo, g_lo], [f_hi, g_hi])

    @settings(max_examples=300)
    @given(contraction_rows())
    def test_append_raises_what_a_batched_build_raises(self, row):
        """With zero Lipschitz bounds and the drawn enclosures as range
        bounds, appending a sample to the seed-only base raises the error a
        one-sample build raises when its first pass is batched: the same
        type, message, sample index and component."""
        xdot, u, lo, hi = row
        n, m = xdot.size, u.size
        region = Box(np.full(n, -1.0), np.full(n, 1.0))
        side = SideInfoSet(vf_bounds=VectorFieldBounds(
            region, Box(lo[:n], hi[:n]), Box(lo[n:].reshape(n, m), hi[n:].reshape(n, m))))
        lip = LipschitzBounds(np.zeros(n), np.zeros((n, m)))
        sample = Sample(np.zeros(n), xdot, u)
        appended = _raised(lambda: append_sample(build_knowledge([], lip, side), sample))
        if appended is not None:
            with mock.patch.object(knowledge, "_contract_row", lambda *row: None):
                assert _raised(lambda: build_knowledge([sample], lip, side)) == appended
