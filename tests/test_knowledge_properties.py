"""Hypothesis properties of the knowledge-base queries, checked without tolerance.

Bases are built from samples of random Lipschitz systems, so every query is
consistent.  The conftest profile makes the examples the same in every
process.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from datareach.intervals import Box
from datareach.knowledge import (
    Decoupling,
    LipschitzBounds,
    Sample,
    SideInfoSet,
    VectorFieldBounds,
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
