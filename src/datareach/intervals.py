"""Validated interval arithmetic on `Box`es and the `Interval` record.

An `Interval` is a validated scalar [lo, hi] pair with no arithmetic of its
own: the control families and gradient bounds take their interval parameters
as `Interval`s, and indexing a `Box` at a full index returns one.  All
interval arithmetic runs on arrays.

A `Box` holds lo/hi float64 arrays of any shape, so one type serves interval
vectors, matrices and rank-3 tensors.  Constructing a `Box` validates it by
one fused reduction, a count of the components with lo <= hi, which comes
up short at any NaN as well as at any inverted component; only then is the
cause looked up to pick the error.  `Box(lo, hi)` copies its ends; `Box._fresh`
validates and freezes arrays just made (by `meet`, `Box.point`) without copying.

Each formula (sum, real scaling, matrix-vector, matrix-matrix, the tensor
contraction over the middle axis and the real-matrix product) exists once,
as an array kernel on (lo, hi) pairs of ndarrays that validates nothing.
The three product sums share one general kernel, four products per term,
and one magnitude kernel, one product per term, for an operand its caller
knows to be sign-symmetric ([-s, s]: a Lipschitz band, a control box).
The `Box` operations and `imat_vec` wrap those kernels and validate their
result, and `check_pair` validates a bare pair the same way.
The reach and linearization step (`reach._step_data` and its callers) runs
on the kernels directly and validates the rough enclosure and every output
`Box` it returns; a NaN made anywhere in the step flows into one of them,
since every kernel propagates NaN.  `control.subopt_bound` runs on the
kernels too and checks each intermediate pair.

Endpoints are plain float64 with no directed rounding.  Both types are
immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyIntersection, ShapeMismatch, check_array, check_box

# ---------------------------------------------------------------------------
# scalar intervals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Interval:
    """Closed real interval [lo, hi]; `Interval(x)` is the degenerate [x, x]."""

    lo: float
    hi: float

    def __init__(self, lo, hi=None):
        lo = float(lo)
        hi = lo if hi is None else float(hi)
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError("interval endpoints must not be NaN")
        if lo > hi:
            raise ValueError(f"invalid interval: lo={lo} > hi={hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __repr__(self):
        return f"[{self.lo:.12g}, {self.hi:.12g}]"


# ---------------------------------------------------------------------------
# interval boxes (lo/hi ndarray pairs of any shape)
# ---------------------------------------------------------------------------

class Box:
    """Componentwise interval array: a vector, matrix or tensor of intervals."""

    __array_ufunc__ = None  # keep numpy from coercing mixed expressions

    def __init__(self, lo, hi):
        self._own(np.array(lo, dtype=float), np.array(hi, dtype=float))

    def _own(self, lo, hi):
        if lo.shape != hi.shape:
            raise ShapeMismatch(f"lo shape {lo.shape} != hi shape {hi.shape}")
        check_pair(lo, hi)
        lo.setflags(write=False)
        hi.setflags(write=False)
        self.lo, self.hi = lo, hi

    # -- constructors ------------------------------------------------------
    @classmethod
    def _fresh(cls, lo, hi):
        """`Box(lo, hi)` on float64 arrays no caller holds, as a kernel
        returns them: validated and made read-only, but not copied."""
        box = object.__new__(cls)
        box._own(lo, hi)
        return box

    @classmethod
    def point(cls, values):
        v = np.array(values, dtype=float)
        return cls._fresh(v, v)

    @property
    def shape(self):
        return self.lo.shape

    def __len__(self):
        return self.lo.shape[0]

    def __getitem__(self, idx):
        """An Interval at a full index, a Box at a partial one."""
        lo, hi = self.lo[idx], self.hi[idx]
        if np.ndim(lo) == 0:
            return Interval(lo, hi)
        return Box(lo, hi)

    # -- componentwise arithmetic -------------------------------------------
    def __add__(self, other):
        if isinstance(other, Box):
            self._check_same(other)
            return Box(*add_pairs((self.lo, self.hi), (other.lo, other.hi)))
        v = np.asarray(other, dtype=float)
        return Box(*add_pairs((self.lo, self.hi), (v, v)))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Box):
            self._check_same(other)
            return Box(self.lo - other.hi, self.hi - other.lo)
        v = np.asarray(other, dtype=float)
        return Box(self.lo - v, self.hi - v)

    def __rsub__(self, other):
        v = np.asarray(other, dtype=float)
        return Box(v - self.hi, v - self.lo)

    def __neg__(self):
        return Box(-self.hi, -self.lo)

    def __mul__(self, other):
        """Scaling by a real scalar."""
        return Box(*scale_pair((self.lo, self.hi), float(other)))

    __rmul__ = __mul__

    # -- set operations ------------------------------------------------------
    def contains(self, values, atol: float = 0.0) -> bool:
        v = np.asarray(values, dtype=float)
        return _all((self.lo - atol <= v) & (v <= self.hi + atol))

    def encloses(self, other, atol: float = 0.0) -> bool:
        self._check_same(other)
        return _all((self.lo - atol <= other.lo) & (other.hi <= self.hi + atol))

    # -- descriptors -----------------------------------------------------------
    @property
    def width(self):
        return self.hi - self.lo

    @property
    def mid(self):
        return 0.5 * (self.lo + self.hi)

    @property
    def mag(self):
        """Componentwise interval absolute value max(|lo|, |hi|)."""
        return np.maximum(np.abs(self.lo), np.abs(self.hi))

    def _check_same(self, other):
        check_shape(other, self.shape)

    def __eq__(self, other):
        return (
            isinstance(other, Box)
            and np.array_equal(self.lo, other.lo)
            and np.array_equal(self.hi, other.hi)
        )

    def __repr__(self):
        return f"Box(lo={self.lo!r}, hi={self.hi!r})"


def _all(mask) -> bool:
    """``mask.all()`` as one count, which is cheaper on small arrays."""
    return bool(np.count_nonzero(mask) == mask.size)


def check_pair(lo, hi):
    """Validate a lo/hi pair as a `Box` does and return it.

    One fused test: any NaN or any inverted component makes ``lo <= hi``
    false somewhere; only then is the cause looked up to pick the error.
    """
    if not _all(lo <= hi):
        if np.isnan(lo).any() or np.isnan(hi).any():
            raise ValueError("interval endpoints must not be NaN")
        raise ValueError("invalid interval bounds: lo > hi somewhere")
    return lo, hi


def check_shape(box, shape) -> None:
    """Raise ShapeMismatch unless ``box`` is a Box of the given shape."""
    if not isinstance(box, Box) or box.shape != shape:
        raise ShapeMismatch(
            f"incompatible operands: Box{shape} vs "
            f"{type(box).__name__}{getattr(box, 'shape', '')}"
        )


# ---------------------------------------------------------------------------
# array kernels on (lo, hi) pairs
# ---------------------------------------------------------------------------
# Each takes and returns lo/hi ndarray pairs and validates nothing; the shape
# checks and the validation are the callers'.  The summing kernels take the
# `sym` of `_prod_sum`.

def _pair_prod(alo, ahi, blo, bhi):
    """Elementwise interval product bounds for broadcastable arrays."""
    p1 = alo * blo
    p2 = alo * bhi
    p3 = ahi * blo
    p4 = ahi * bhi
    return (
        np.minimum(np.minimum(p1, p2), np.minimum(p3, p4)),
        np.maximum(np.maximum(p1, p2), np.maximum(p3, p4)),
    )


def symmetric(lo, hi) -> bool:
    """Whether the pair is sign-symmetric, lo = -hi everywhere (NaN is not)."""
    return not np.count_nonzero(lo != -hi)


def add_pairs(a, b):
    """Interval sum of two broadcastable pairs."""
    return a[0] + b[0], a[1] + b[1]


def scale_pair(a, c):
    """Interval times the real c: a scalar, or an array broadcasting against
    the pair; a positive float keeps the ends in order."""
    lo, hi = a[0] * c, a[1] * c
    if isinstance(c, float) and c > 0.0:
        return lo, hi
    return np.minimum(lo, hi), np.maximum(lo, hi)


def mag_prod_sum(a, b):
    """`_prod_sum` of broadcastable operands one of which is sign-symmetric,
    from magnitudes: s for [-s, s], max(|l|, |h|) for [l, h].  The product
    [-s, s]·[l, h] is ±s·max(|l|, |h|), rounded as the largest of the four
    products is, so hi = Σ a·b and lo = 0 − hi.  By value this is
    `_prod_sum`; only the sign of a zero may differ."""
    hi = np.add.reduce(a * b, axis=1)
    return 0.0 - hi, hi


def _prod_sum(alo, ahi, blo, bhi, sym=0):
    """Interval products of broadcastable arrays, summed over axis 1; sym = 1
    (2) says the first (second) operand is sign-symmetric, for `mag_prod_sum`."""
    if sym:  # where lo <= hi, max(-lo, hi) is max(|lo|, |hi|)
        return mag_prod_sum(ahi if sym == 1 else np.maximum(-alo, ahi),
                            bhi if sym == 2 else np.maximum(-blo, bhi))
    plo, phi = _pair_prod(alo, ahi, blo, bhi)
    return np.add.reduce(plo, axis=1), np.add.reduce(phi, axis=1)


def mat_vec_pairs(M, v, sym=0):
    """Interval (n, m) matrix times interval length-m vector."""
    return _prod_sum(M[0], M[1], v[0][None, :], v[1][None, :], sym)


def mat_mat_pairs(A, B, sym=0):
    """Interval matrix product (n, m) @ (m, p)."""
    return _prod_sum(A[0][:, :, None], A[1][:, :, None], B[0][None], B[1][None], sym)


def tensor_vec_pairs(J, v, sym=0):
    """Contract a rank-3 interval tensor with a vector over its middle axis.

    (J v)_{k,p} = sum_l J_{k,l,p} v_l.  Applied to the (0, 2, 1) transpose of
    J it gives sum_p J_{k,l,p} w_p, as `control.linearize` uses it.
    """
    return _prod_sum(J[0], J[1], v[0][None, :, None], v[1][None, :, None], sym)


def imat_vec(M: Box, v) -> Box:
    """Interval matrix times interval (or real) vector: M a `Box` of two
    axes, v of M's column count, each within `errors.LIMIT` in magnitude."""
    if not (isinstance(M, Box) and M.lo.ndim == 2):
        raise ValueError(f"M must be a Box of two axes, not {M!r}")
    m = check_box("M", M, M.shape).shape[1]
    v = check_box("v", v, (m,)) if isinstance(v, Box) else Box.point(check_array("v", v, (m,)))
    return Box(*mat_vec_pairs((M.lo, M.hi), (v.lo, v.hi)))


def meet(a, b, tol: float = 0.0, pad: float = 0.0):
    """Componentwise intersection forgiving float-level crossings.

    Crossings no larger than tol * max(1, |endpoint|) are treated as touching
    intervals perturbed by rounding and become the (tiny) hull of the crossing
    region; larger ones raise EmptyIntersection.  `pad` adds a relative
    outward margin to the result so repeated cuts cannot erode soundness;
    both must be finite and nonnegative.
    """
    check_array("tol and pad", (tol, pad), nonneg=True)
    a._check_same(b)
    lo, hi, genuine = meet_arrays(a.lo, a.hi, b.lo, b.hi, tol, pad)
    if genuine.any():
        idx = tuple(int(i) for i in np.argwhere(genuine)[0])
        raise EmptyIntersection(f"empty intersection at component {idx}", index=idx)
    return Box._fresh(np.asarray(lo), np.asarray(hi))  # a 0-d meet gives numpy scalars


def meet_arrays(alo, ahi, blo, bhi, tol: float = 0.0, pad: float = 0.0):
    """Array kernel of `meet` for broadcastable lo/hi arrays; does not raise.

    Returns (lo, hi, genuine), where `genuine` marks the crossings larger than
    the tolerance (there lo and hi are meaningless).
    """
    return settle_arrays(np.maximum(alo, blo), np.minimum(ahi, bhi), tol, pad)


def settle_arrays(lo, hi, tol: float = 0.0, pad: float = 0.0):
    """`meet_arrays` of an array pair with itself (max(a, a) = a exactly)."""
    genuine = lo > hi
    if np.count_nonzero(genuine):
        genuine = lo - hi > tol * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    if pad:
        # lo <= hi (or NaN) from here on, where max(-lo, hi) is max(|lo|, |hi|)
        margin = pad * np.maximum(1.0, np.maximum(-lo, hi))
        lo = lo - margin
        hi = hi + margin
    return lo, hi, genuine


def real_mat_pairs(M, v):
    """Real (n, m) matrix times interval length-m vector pair, exact per
    component.  M may also be its (max(M, 0), min(M, 0)) split, which a
    caller that reuses M keeps.  A pair of one array, a point, takes one
    product, returned as both endpoints."""
    pos, neg = M if isinstance(M, tuple) else (np.maximum(M, 0.0), np.minimum(M, 0.0))
    lo = pos @ v[0] + neg @ v[1]
    return lo, lo if v[0] is v[1] else pos @ v[1] + neg @ v[0]
