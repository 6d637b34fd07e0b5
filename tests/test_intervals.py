import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from datareach.errors import EmptyIntersection, ShapeMismatch
from datareach.intervals import (
    Box,
    Interval,
    _pair_prod,
    _prod_sum,
    add_pairs,
    check_pair,
    imat_vec,
    mag_prod_sum,
    mat_mat_pairs,
    mat_vec_pairs,
    meet,
    real_mat_pairs,
    scale_pair,
    settle_arrays,
    symmetric,
    tensor_vec_pairs,
)


def pair(box: Box):
    return box.lo, box.hi


def transposed(J):
    """The (0, 2, 1) transpose of a tensor pair, as `control.linearize` builds it."""
    return tuple(np.transpose(a, (0, 2, 1)) for a in J)


def ends(p):
    """A (lo, hi) pair of scalars or 0-d arrays as a tuple of floats."""
    return float(p[0]), float(p[1])


class TestScalarOps:
    """Hand-worked endpoints on one-component operands: the pair kernels,
    `Box` subtraction, intersection and descriptors, and the `Interval`
    record's constructor."""

    def test_add_endpoints(self):
        assert ends(add_pairs((1.0, 2.0), (3.0, 4.0))) == (4.0, 6.0)

    def test_add_identity(self):
        assert ends(add_pairs((0.0, 0.0), (-2.5, 7.0))) == (-2.5, 7.0)

    def test_sub_dependency_free(self):
        assert Box([-1.0], [1.0]) - Box([-1.0], [1.0]) == Box([-2.0], [2.0])

    def test_mul_mixed_sign(self):
        assert ends(_pair_prod(-1.0, 1.0, 2.0, 3.0)) == (-3.0, 3.0)

    def test_mul_positive(self):
        assert ends(_pair_prod(1.0, 2.0, 3.0, 4.0)) == (3.0, 8.0)

    def test_mul_annihilator(self):
        assert ends(_pair_prod(0.0, 0.0, -5.0, 7.0)) == (0.0, 0.0)

    def test_scalar_mul_negative_flips(self):
        assert ends(scale_pair((1.0, 2.0), -2.0)) == (-4.0, -2.0)

    def test_constructor_rejects_inverted(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)
        with pytest.raises(ValueError, match="NaN"):
            Interval(np.nan)
        assert Interval(1.5) == Interval(1.5, 1.5)

    def test_intersect_paper_case(self):
        got = meet(Box([-0.01], [1.0]), Box([-0.15], [0.06]))
        assert got == Box([-0.01], [0.06])

    def test_intersect_disjoint(self):
        with pytest.raises(EmptyIntersection):
            meet(Box([0.0], [1.0]), Box([2.0], [3.0]))

    def test_intersect_idempotent(self):
        a = Box([-1.25], [3.5])
        assert meet(a, a) == a

    def test_abs_and_width(self):
        assert Box([-3.0], [2.0]).mag[0] == 3
        assert Box([-3.0], [2.0]).width[0] == 5
        assert Box([1.0], [4.0]).mag[0] == 4


class TestAggregates:
    """Matrix and tensor products: `imat_vec` and the pair kernels the step
    pipeline calls (`mat_mat_pairs`, `tensor_vec_pairs`, the latter also on
    the transposed tensor)."""

    def test_imat_vec_identity(self):
        M = Box(np.eye(2), np.eye(2))
        v = Box([1, -2], [1.5, -1])
        got = imat_vec(M, v)
        assert np.allclose(got.lo, v.lo) and np.allclose(got.hi, v.hi)

    def test_imat_vec_zero(self):
        M = Box(np.zeros((2, 2)), np.zeros((2, 2)))
        got = imat_vec(M, Box([1, 2], [3, 4]))
        assert np.allclose(got.lo, 0) and np.allclose(got.hi, 0)

    def test_imat_vec_hand_case(self):
        M = Box([[0, 1]], [[1, 1]])
        got = imat_vec(M, Box([1, 2], [1, 2]))
        assert got[0] == Interval(2, 3)

    def test_imat_imat_shapes(self):
        A = (np.zeros((2, 3)), np.ones((2, 3)))
        B = (np.zeros((3, 4)), np.ones((3, 4)))
        lo, hi = mat_mat_pairs(A, B)
        assert lo.shape == hi.shape == (2, 4)

    def test_tensor_vec_zero(self):
        J = (np.zeros((2, 2, 2)), np.zeros((2, 2, 2)))
        lo, hi = tensor_vec_pairs(J, pair(Box([1, 1], [2, 2])))
        assert np.allclose(lo, 0) and np.allclose(hi, 0)

    def test_tensor_vec_1d(self):
        J = pair(Box([[[-1.0]]], [[[1.0]]]))
        got = Box(*tensor_vec_pairs(J, pair(Box([2.0], [2.0]))))
        assert got[0, 0] == Interval(-2, 2)

    def test_tensor_vec_hand_case(self):
        # n=1, m=2 with entries [0,1] and [1,2]; v = (1, 1)
        J = pair(Box([[[0.0], [1.0]]], [[[1.0], [2.0]]]))
        got = Box(*tensor_vec_pairs(J, pair(Box([1.0, 1.0], [1.0, 1.0]))))
        assert got[0, 0] == Interval(1, 3)

    def test_tensorT_vec_zero(self):
        J = (np.zeros((2, 1, 2)), np.zeros((2, 1, 2)))
        lo, hi = tensor_vec_pairs(transposed(J), pair(Box([1, 1], [1, 1])))
        assert lo.shape == hi.shape == (2, 1)
        assert np.allclose(lo, 0) and np.allclose(hi, 0)

    def test_tensorT_vec_matches_direct_sum(self):
        # n=2, m=1: result_{k,l} = sum_p J_{k,l,p} w_p by an independent loop
        rng = np.random.default_rng(5)
        lo = rng.normal(size=(2, 1, 2))
        J = Box(lo, lo + rng.random(size=(2, 1, 2)))
        w_lo = rng.normal(size=2)
        w = Box(w_lo, w_lo + rng.random(2))
        got = Box(*tensor_vec_pairs(transposed(pair(J)), pair(w)))
        for k in range(2):
            for l in range(1):
                lo = hi = 0.0
                for p in range(2):
                    a, b = J[k, l, p], w[p]
                    prods = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
                    lo, hi = lo + min(prods), hi + max(prods)
                assert got[k, l].lo == pytest.approx(lo, abs=1e-12)
                assert got[k, l].hi == pytest.approx(hi, abs=1e-12)

    def test_real_mat_iv_sign_split(self):
        M = np.array([[1.0, -2.0]])
        v = Box([0, 1], [1, 3])
        got = Box(*real_mat_pairs(M, (v.lo, v.hi)))
        assert got[0] == Interval(0 - 6, 1 - 2)

    def test_real_mat_pairs_split_and_point_forms(self):
        """A kept (max(M, 0), min(M, 0)) split gives the matrix's bits, and a
        pair of one array, a point, gives those of two equal arrays."""
        rng = np.random.default_rng(3)
        for n, m in ((1, 1), (3, 5), (6, 6)):
            M = rng.normal(size=(n, m)) * (rng.random((n, m)) < 0.7)
            split = (np.maximum(M, 0.0), np.minimum(M, 0.0))
            lo = rng.normal(size=m)
            hi = lo + rng.uniform(0, 1, m)
            point = (real_mat_pairs(split, (lo, lo)), real_mat_pairs(M, (lo, lo.copy())))
            for got, want in ((real_mat_pairs(split, (lo, hi)), real_mat_pairs(M, (lo, hi))), point):
                for g, w in zip(got, want):
                    assert g.tobytes() == w.tobytes()

    def test_meet_tolerant(self):
        a = Box([0.0], [1.0])
        b = Box([1.0 + 1e-12], [2.0])
        got = meet(a, b, tol=1e-9)
        assert got.lo[0] <= got.hi[0]
        with pytest.raises(EmptyIntersection):
            meet(a, Box([1.1], [2.0]), tol=1e-9)

    def test_settle_pad_margin_from_negated_lo(self):
        """For lo <= hi, max(-lo, hi) equals max(|lo|, |hi|), at signed zeros
        and infinities too, so the padded settle gives the bits of the |.|
        formula; a NaN endpoint stays NaN."""
        ends = [-np.inf, -3.5, -1.0, -0.0, 0.0, 5e-324, 2.0, np.inf]
        lo, hi = np.array([(a, b) for a in ends for b in ends if a <= b]).T
        assert np.array_equal(np.maximum(-lo, hi), np.maximum(np.abs(lo), np.abs(hi)))
        margin = 1e-14 * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
        with np.errstate(invalid="ignore"):  # inf - inf at [inf, inf]
            got_lo, got_hi, genuine = settle_arrays(lo, hi, 1e-8, 1e-14)
            assert got_lo.tobytes() == (lo - margin).tobytes()
            assert got_hi.tobytes() == (hi + margin).tobytes()
        assert not genuine.any()
        got_lo, got_hi, genuine = settle_arrays(
            np.array([np.nan, -1.0]), np.array([1.0, np.nan]), 1e-8, 1e-14
        )
        assert np.isnan(got_lo).all() and np.isnan(got_hi).all() and not genuine.any()


class TestBox:
    """One box type for every shape: operands are guarded by shape alone."""

    @pytest.mark.parametrize(
        "op",
        [
            lambda a, b: a + b,
            lambda a, b: a - b,
            lambda a, b: a.encloses(b),
            lambda a, b: meet(a, b),
        ],
        ids=["add", "sub", "encloses", "meet"],
    )
    def test_shape_mismatch_between_vector_and_column(self, op):
        vec = Box([0.0, 0.0], [1.0, 1.0])
        col = Box([[0.0], [0.0]], [[1.0], [1.0]])
        with pytest.raises(ShapeMismatch):
            op(vec, col)
        with pytest.raises(ShapeMismatch):
            op(col, vec)

    def test_full_index_gives_interval_partial_gives_box(self):
        lo = np.arange(12.0).reshape(2, 3, 2)
        b = Box(lo, lo + 1.0)
        assert b[1, 2, 0] == Interval(10.0, 11.0)
        row = b[1]
        assert isinstance(row, Box) and row.shape == (3, 2)
        assert row == Box(lo[1], lo[1] + 1.0)
        col = b[:, 1, 0]
        assert isinstance(col, Box) and col == Box([2.0, 8.0], [3.0, 9.0])
        assert Box([1.0, 2.0], [3.0, 4.0])[1] == Interval(2.0, 4.0)

    def test_round_trips_three_level_grid(self):
        rng = np.random.default_rng(7)
        lo = rng.normal(size=(2, 3, 4))
        hi = lo + rng.random(size=(2, 3, 4))
        b = Box(lo, hi)
        assert b.shape == (2, 3, 4)
        assert np.array_equal(b.lo, lo) and np.array_equal(b.hi, hi)
        assert all(b[idx] == Interval(lo[idx], hi[idx]) for idx in np.ndindex(2, 3, 4))

    def test_rejects_nan_inverted_and_mismatched_3d(self):
        lo = np.zeros((2, 2, 2))
        hi = np.ones((2, 2, 2))
        bad = hi.copy()
        bad[1, 0, 1] = np.nan
        with pytest.raises(ValueError):
            Box(lo, bad)
        with pytest.raises(ValueError):
            Box(bad, hi)
        inverted = hi.copy()
        inverted[0, 1, 0] = -1.0
        with pytest.raises(ValueError):
            Box(lo, inverted)
        with pytest.raises(ShapeMismatch):
            Box(lo, hi[:, :, :1])


class TestValidation:
    """Every box, kernel results included, passes the one constructor check."""

    def test_nan_from_inf_times_zero_raises(self):
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="NaN"):
            Box.point([np.inf, 1.0]) * 0.0

    def test_nan_inside_matvec_kernel_raises(self):
        M = Box([[np.inf, 0.0]], [[np.inf, 1.0]])
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="NaN"):
            imat_vec(M, np.zeros(2))

    def test_inverted_input_raises(self):
        with pytest.raises(ValueError, match="lo > hi"):
            Box([0.0, 2.0], [1.0, 1.0])

    def test_nan_reported_before_inversion(self):
        with pytest.raises(ValueError, match="NaN"):
            Box([2.0, np.nan], [1.0, 1.0])

    def test_box_owns_copies_of_caller_arrays(self):
        lo = np.array([0.0, 1.0])
        hi = np.array([1.0, 2.0])
        b = Box(lo, hi)
        lo[0], hi[1] = -5.0, 9.0
        assert np.array_equal(b.lo, [0.0, 1.0]) and np.array_equal(b.hi, [1.0, 2.0])

    def test_point_endpoints_distinct_and_read_only(self):
        v = np.array([1.0, -2.0])
        b = Box.point(v)
        assert b.lo is not b.hi and not np.shares_memory(b.lo, b.hi)
        assert not np.shares_memory(b.lo, v)
        assert not b.lo.flags.writeable and not b.hi.flags.writeable
        with pytest.raises(ValueError):
            b.lo[0] = 0.0


_COORD = st.floats(-1e3, 1e3, allow_nan=False)
_UNIT = st.floats(0.0, 1.0, allow_nan=False)


def _array(shape, elements):
    return hnp.arrays(np.float64, shape, elements=elements, fill=st.nothing())


@st.composite
def box_and_points(draw, shape):
    """A random box of the given shape and three real points in it: lo, hi and
    a random interior point.  Endpoints are a sorted pair of draws, so a
    component can lie below zero, above it or across it."""
    a, b = draw(_array(shape, _COORD)), draw(_array(shape, _COORD))
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    t = draw(_array(shape, _UNIT))
    return Box(lo, hi), (lo, hi, np.clip(lo + t * (hi - lo), lo, hi))


_DIM = st.integers(1, 4)


def _holds(enc, value) -> bool:
    """Whether a Box or a lo/hi pair contains ``value``."""
    lo, hi = pair(enc) if isinstance(enc, Box) else enc
    return bool(np.all(lo <= value) and np.all(value <= hi))


class TestContainmentProperties:
    """Each kernel's box contains the real result at points of its operands.

    The real result is evaluated in the kernel's own order (elementwise
    products, then a sum over the same axis), and float rounding is monotone,
    so containment holds without any tolerance.  `real_mat_pairs` goes through
    BLAS, so its check allows rounding at 8 ulps of |M| |x|.
    """

    @given(st.data(), _DIM)
    def test_add_sub(self, data, n):
        a, xs = data.draw(box_and_points((n,)))
        b, ys = data.draw(box_and_points((n,)))
        for x, y in itertools.product(xs, ys):
            assert _holds(a + b, x + y) and _holds(a - b, x - y)
            assert _holds(a + y, x + y) and _holds(a - y, x - y)
            assert _holds(y - a, y - x)

    @given(st.data(), _DIM, _COORD)
    def test_scalar_and_interval_mul(self, data, n, c):
        a, xs = data.draw(box_and_points((n,)))
        s, zs = data.draw(box_and_points(()))
        prod = _pair_prod(*pair(a), *pair(s))
        for x, z in itertools.product(xs, zs):
            assert _holds(a * c, x * c) and _holds(prod, x * z)

    @given(st.data(), _DIM, _DIM)
    def test_imat_vec(self, data, n, m):
        M, As = data.draw(box_and_points((n, m)))
        v, xs = data.draw(box_and_points((m,)))
        for A, x in itertools.product(As, xs):
            real = (A * x[None, :]).sum(axis=1)
            assert _holds(imat_vec(M, v), real)
            assert _holds(imat_vec(M, x), real)

    @given(st.data(), _DIM, _DIM, _DIM)
    def test_imat_imat(self, data, n, m, p):
        P, As = data.draw(box_and_points((n, m)))
        Q, Bs = data.draw(box_and_points((m, p)))
        enc = mat_mat_pairs(pair(P), pair(Q))
        for A, B in itertools.product(As, Bs):
            assert _holds(enc, (A[:, :, None] * B[None, :, :]).sum(axis=1))

    @given(st.data(), _DIM, _DIM)
    def test_tensor_vec(self, data, n, m):
        J, Ts = data.draw(box_and_points((n, m, n)))
        v, xs = data.draw(box_and_points((m,)))
        enc = tensor_vec_pairs(pair(J), pair(v))
        for T, x in itertools.product(Ts, xs):
            assert _holds(enc, (T * x[None, :, None]).sum(axis=1))

    @given(st.data(), _DIM, _DIM)
    def test_tensorT_vec(self, data, n, m):
        # J is (n, m, n); its (0, 2, 1) transpose contracts with a length-n w
        J, Ts = data.draw(box_and_points((n, m, n)))
        w, xs = data.draw(box_and_points((n,)))
        enc = tensor_vec_pairs(transposed(pair(J)), pair(w))
        for T, x in itertools.product(Ts, xs):
            real = (np.transpose(T, (0, 2, 1)) * x[None, :, None]).sum(axis=1)
            assert _holds(enc, real)

    @given(st.data(), _DIM, _DIM)
    def test_real_mat_iv(self, data, n, m):
        M = data.draw(_array((n, m), _COORD))
        v, xs = data.draw(box_and_points((m,)))
        enc = Box(*real_mat_pairs(M, (v.lo, v.hi)))
        slack = 8 * np.finfo(float).eps * (np.abs(M) @ np.maximum(np.abs(v.lo), np.abs(v.hi)))
        for x in xs:
            real = M @ x
            assert np.all(enc.lo - slack <= real) and np.all(real <= enc.hi + slack)


@st.composite
def pair_and_sub(draw, shape):
    """A random lo/hi pair of the given shape and a pair inside it (possibly
    a point, possibly the whole pair)."""
    a, b = draw(_array(shape, _COORD)), draw(_array(shape, _COORD))
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    s, t = draw(_array(shape, _UNIT)), draw(_array(shape, _UNIT))
    sub_lo = np.clip(lo + np.minimum(s, t) * (hi - lo), lo, hi)
    sub_hi = np.clip(lo + np.maximum(s, t) * (hi - lo), sub_lo, hi)
    return (lo, hi), (sub_lo, sub_hi)


def _inside(inner, outer) -> bool:
    return bool(np.all(outer[0] <= inner[0]) and np.all(inner[1] <= outer[1]))


class TestKernelIsotonicity:
    """Each pair kernel's result over sub-boxes of its operands lies inside
    its result over the boxes, with no tolerance.

    Both calls evaluate the same operations in the same order on operands of
    the same shapes, and float rounding is monotone, so each endpoint of the
    sub-box result lies on the inner side of the box result's endpoint.
    """

    @pytest.mark.parametrize(
        "kernel, shapes",
        [
            (add_pairs, lambda n, m, p: ((n, m), (n, m))),
            (mat_vec_pairs, lambda n, m, p: ((n, m), (m,))),
            (mat_mat_pairs, lambda n, m, p: ((n, m), (m, p))),
            (tensor_vec_pairs, lambda n, m, p: ((n, m, p), (m,))),
        ],
        ids=["add_pairs", "mat_vec_pairs", "mat_mat_pairs", "tensor_vec_pairs"],
    )
    @given(data=st.data(), dims=st.tuples(_DIM, _DIM, _DIM))
    def test_interval_operands(self, kernel, shapes, data, dims):
        (a, a_sub), (b, b_sub) = (data.draw(pair_and_sub(s)) for s in shapes(*dims))
        assert _inside(kernel(a_sub, b_sub), kernel(a, b))

    @given(st.data(), _DIM, _DIM, _COORD)
    def test_scale_pair(self, data, n, m, c):
        a, a_sub = data.draw(pair_and_sub((n, m)))
        assert _inside(scale_pair(a_sub, c), scale_pair(a, c))

    @given(st.data(), _DIM, _DIM)
    def test_real_mat_pairs(self, data, n, m):
        M = data.draw(_array((n, m), _COORD))
        v, v_sub = data.draw(pair_and_sub((m,)))
        assert _inside(real_mat_pairs(M, v_sub), real_mat_pairs(M, v))


# finite values, exact zeros of both signs and NaN
_EDGE = st.one_of(st.floats(-1e3, 1e3, allow_nan=False), st.sampled_from([0.0, -0.0, np.nan]))


@st.composite
def general_pair(draw, shape):
    """A lo/hi pair of two sorted draws; a NaN stays in the end it was drawn in."""
    a, b = draw(_array(shape, _EDGE)), draw(_array(shape, _EDGE))
    swap = a > b
    return np.where(swap, b, a), np.where(swap, a, b)


@st.composite
def symmetric_pair(draw, shape):
    """A sign-symmetric pair (-s, s): s >= 0, exact zeros of both signs, or NaN."""
    s = draw(_array(shape, _EDGE))
    s = np.where(s < 0.0, -s, s)
    return -s, s


def _same_values(got, want) -> bool:
    return all(np.array_equal(g, w, equal_nan=True) for g, w in zip(got, want))


_KERNELS = {
    "mat_vec_pairs": (mat_vec_pairs, lambda n, m, p: ((n, m), (m,))),
    "mat_mat_pairs": (mat_mat_pairs, lambda n, m, p: ((n, m), (m, p))),
    "tensor_vec_pairs": (tensor_vec_pairs, lambda n, m, p: ((n, m, p), (m,))),
    # the (0, 2, 1) transpose `control.linearize` contracts, a strided layout
    "tensor_vec_pairs_transposed": (
        lambda J, v, sym=0: tensor_vec_pairs(transposed(J), v, sym),
        lambda n, m, p: ((n, p, m), (m,))),
}
# summed axes (m) past 8 reach numpy's blocked pairwise summation
_DIMS = st.tuples(_DIM, st.integers(1, 10), _DIM)


class TestMagnitudeKernel:
    """One product serves a sign-symmetric operand: the magnitude kernel
    equals the general kernel by value, with no tolerance, on operands with
    exact zeros of both signs and NaN.  Only the sign of a zero may differ;
    the bytes are held by the benchmark's output hashes."""

    @pytest.mark.parametrize("sym", [1, 2])
    @pytest.mark.parametrize("name", sorted(_KERNELS))
    @given(data=st.data(), dims=_DIMS)
    def test_kernel_equals_general_kernel(self, name, sym, data, dims):
        kernel, shapes = _KERNELS[name]
        a, b = (data.draw(symmetric_pair(s) if sym == k else general_pair(s))
                for k, s in enumerate(shapes(*dims), 1))
        assert _same_values(kernel(a, b, sym), kernel(a, b))

    @pytest.mark.parametrize("sym", [1, 2])
    @given(data=st.data(), dims=_DIMS)
    def test_magnitude_kernel_equals_prod_sum(self, sym, data, dims):
        """On the (n, m, p) and (1, m, 1) operands of the tensor contraction."""
        n, m, p = dims
        a, b = (data.draw(symmetric_pair(s) if sym == k else general_pair(s))
                for k, s in enumerate([(n, m, p), (1, m, 1)], 1))
        mags = [x[1] if sym == k else np.maximum(np.abs(x[0]), np.abs(x[1]))
                for k, x in enumerate((a, b), 1)]
        assert _same_values(mag_prod_sum(*mags), _prod_sum(*a, *b))

    @given(data=st.data(), n=_DIM, m=_DIM)
    def test_symmetric(self, data, n, m):
        s = data.draw(symmetric_pair((n, m)))
        a = data.draw(general_pair((n, m)))
        assert symmetric(*s) == (not np.isnan(s[1]).any())
        assert symmetric(*a) == bool(np.array_equal(a[0], -a[1]))

    @given(data=st.data(), n=_DIM, m=_DIM,
           c=st.floats(0.0, 1e3, exclude_min=True, allow_subnormal=True))
    def test_scale_pair_by_a_positive_float(self, data, n, m, c):
        """The ends keep their order, as the reordering path finds; a NaN
        stays in the end it was in."""
        lo, hi = data.draw(general_pair((n, m)))
        got = scale_pair((lo, hi), c)
        reordered = np.minimum(lo * c, hi * c), np.maximum(lo * c, hi * c)
        drawn = np.isnan(lo) | np.isnan(hi)
        assert _same_values((got[0][~drawn], got[1][~drawn]),
                            (reordered[0][~drawn], reordered[1][~drawn]))
        assert np.array_equal(np.isnan(got[0]), np.isnan(lo))
        assert np.array_equal(np.isnan(got[1]), np.isnan(hi))


# reference forms of the checks, each reduced by `.all()`
def _check_pair_by_all(lo, hi):
    if not (lo <= hi).all():
        if np.isnan(lo).any() or np.isnan(hi).any():
            raise ValueError("interval endpoints must not be NaN")
        raise ValueError("invalid interval bounds: lo > hi somewhere")
    return lo, hi


def _box_by_all(lo, hi):
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    if lo.shape != hi.shape:
        raise ShapeMismatch(f"lo shape {lo.shape} != hi shape {hi.shape}")
    return _check_pair_by_all(lo, hi)


def _encloses_by_all(a, b, atol):
    return bool((a.lo - atol <= b.lo).all() and (b.hi <= a.hi + atol).all())


def _contains_by_all(a, v, atol):
    return bool((a.lo - atol <= v).all() and (v <= a.hi + atol).all())


def _outcome(call):
    """What a call returns, or the type and message of what it raises."""
    try:
        return "returned", call()
    except Exception as exc:  # the comparison is of the error itself
        return type(exc), str(exc)


def _same_outcome(got, want) -> bool:
    if got[0] != "returned" or want[0] != "returned":
        return got == want
    return all(g.shape == w.shape and g.tobytes() == w.tobytes()
               for g, w in zip(got[1], want[1]))


# NaN, infinities, exact zeros of both signs and finite values
_ODD = st.one_of(st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0]),
                 st.floats(-1e3, 1e3, allow_nan=False))
# 0-d and empty shapes included
_SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)
_ATOL = st.sampled_from([0.0, -0.0, 1e-12, 0.5, -0.5, np.inf, np.nan])


@st.composite
def _valid_box(draw, shape):
    """A Box of the shape with ends among _ODD's values other than NaN."""
    a = draw(_array(shape, _ODD.filter(lambda v: not np.isnan(v))))
    b = draw(_array(shape, _ODD.filter(lambda v: not np.isnan(v))))
    return Box(np.minimum(a, b), np.maximum(a, b))


class TestOneCountChecks:
    """`check_pair`, `Box` and `encloses` count the components that pass
    instead of calling `.all()`; they accept and reject exactly what the
    `.all()` forms did, with the same messages, and `Box._fresh` builds
    the box `Box` builds without copying."""

    @given(data=st.data(), shape=_SHAPES, same=st.booleans())
    def test_box_and_check_pair(self, data, shape, same):
        lo = data.draw(_array(shape, _ODD))
        hi = data.draw(_array(shape if same else data.draw(_SHAPES), _ODD))
        want = _outcome(lambda: _box_by_all(lo, hi))
        assert _same_outcome(_outcome(lambda: (lambda b: (b.lo, b.hi))(Box(lo, hi))), want)
        fresh = _outcome(lambda: Box._fresh(lo.copy(), hi.copy()))
        if want[0] == "returned":
            assert fresh[1] == Box(lo, hi)
            assert not fresh[1].lo.flags.writeable and not fresh[1].hi.flags.writeable
        else:
            assert fresh == want
        if same:
            assert _same_outcome(_outcome(lambda: check_pair(lo, hi)),
                                 _outcome(lambda: _check_pair_by_all(lo, hi)))

    @given(data=st.data(), shape=_SHAPES, atol=_ATOL)
    def test_encloses_and_contains(self, data, shape, atol):
        a, b = data.draw(_valid_box(shape)), data.draw(_valid_box(shape))
        v = data.draw(_array(shape, _ODD))
        with np.errstate(invalid="ignore"):  # inf - inf, with an infinite atol
            for x, y in ((a, b), (b, a), (a, a)):
                assert x.encloses(y) is _encloses_by_all(x, y, 0.0)
                assert x.encloses(y, atol=atol) is _encloses_by_all(x, y, atol)
            assert a.contains(v) is _contains_by_all(a, v, 0.0)
            assert a.contains(v, atol=atol) is _contains_by_all(a, v, atol)

    def test_fresh_adopts_its_arrays(self):
        lo, hi = np.array([0.0, 1.0]), np.array([1.0, 2.0])
        b = Box._fresh(lo, hi)
        assert b.lo is lo and b.hi is hi and not lo.flags.writeable

    def test_box_leaves_the_callers_arrays_writable(self):
        lo, hi = np.array([0.0, 1.0]), np.array([1.0, 2.0])
        Box(lo, hi)
        Box.point(lo)
        assert lo.flags.writeable and hi.flags.writeable


class TestRandomizedProperties:
    """Containment and point reduction over random cases."""

    def test_matvec_containment(self):
        rng = np.random.default_rng(44)
        for _ in range(300):
            n, m = rng.integers(1, 4, 2)
            Alo = rng.uniform(-3, 3, (n, m))
            Ahi = Alo + rng.uniform(0, 2, (n, m))
            vlo = rng.uniform(-3, 3, m)
            vhi = vlo + rng.uniform(0, 2, m)
            enc = imat_vec(Box(Alo, Ahi), Box(vlo, vhi))
            for _ in range(10):
                A = rng.uniform(Alo, Ahi)
                v = rng.uniform(vlo, vhi)
                assert enc.contains(A @ v, atol=1e-9)

    def test_point_ops_reduce_to_reals(self):
        """On point operands each operation gives the point of the real result."""
        rng = np.random.default_rng(45)
        for _ in range(1000):
            x, y = rng.uniform(-50, 50, 2)
            assert ends(add_pairs((x, x), (y, y))) == (x + y, x + y)
            assert ends(_pair_prod(x, x, y, y)) == (x * y, x * y)
            assert ends(scale_pair((x, x), y)) == (x * y, x * y)
            assert Box.point([x]) - Box.point([y]) == Box.point([x - y])


def test_imat_imat_hand_case():
    # 1x2 times 2x1: [0,1]*1 + [1,1]*2 = [2,3]
    A = Box([[0.0, 1.0]], [[1.0, 1.0]])
    B = Box([[1.0], [2.0]], [[1.0], [2.0]])
    got = Box(*mat_mat_pairs(pair(A), pair(B)))
    assert got.shape == (1, 1)
    assert got[0, 0] == Interval(2, 3)
