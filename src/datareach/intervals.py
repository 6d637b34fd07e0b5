"""Validated interval arithmetic on `Box`es and the `Interval` record.

An `Interval` is a validated scalar [lo, hi] pair with no arithmetic of its
own: the control families and gradient bounds take their interval parameters
as `Interval`s, and indexing a `Box` at a full index returns one.  All
interval arithmetic runs on arrays.

A `Box` holds lo/hi float64 arrays of any shape, so one type serves interval
vectors, matrices and rank-3 tensors.  Constructing a `Box` validates it by
one fused comparison `(lo <= hi).all()`, which is false at any NaN as well
as at any inverted component; only then is the cause looked up to pick the
error.

Each formula (sum, real scaling, matrix-vector, matrix-matrix, the tensor
contraction over the middle axis and the real-matrix product) exists once,
as an array kernel on (lo, hi) pairs of ndarrays that validates nothing.
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

from .errors import EmptyIntersection, ShapeMismatch, check_array

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
        lo = np.array(lo, dtype=float)
        hi = np.array(hi, dtype=float)
        if lo.shape != hi.shape:
            raise ShapeMismatch(f"lo shape {lo.shape} != hi shape {hi.shape}")
        check_pair(lo, hi)
        lo.flags.writeable = False
        hi.flags.writeable = False
        self.lo = lo
        self.hi = hi

    # -- constructors ------------------------------------------------------
    @classmethod
    def point(cls, values):
        v = np.asarray(values, dtype=float)
        return cls(v, v)

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
        return bool((self.lo - atol <= v).all() and (v <= self.hi + atol).all())

    def encloses(self, other, atol: float = 0.0) -> bool:
        self._check_same(other)
        return bool(
            (self.lo - atol <= other.lo).all() and (other.hi <= self.hi + atol).all()
        )

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


def check_pair(lo, hi):
    """Validate a lo/hi pair as a `Box` does and return it.

    One fused test: any NaN or any inverted component makes ``lo <= hi``
    false somewhere; only then is the cause looked up to pick the error.
    """
    if not (lo <= hi).all():
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
# checks and the validation are the callers'.

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


def add_pairs(a, b):
    """Interval sum of two broadcastable pairs."""
    return a[0] + b[0], a[1] + b[1]


def scale_pair(a, c):
    """Interval times the real c: a scalar, or an array broadcasting against the pair."""
    lo, hi = a[0] * c, a[1] * c
    return np.minimum(lo, hi), np.maximum(lo, hi)


def _prod_sum(alo, ahi, blo, bhi):
    """Interval products of broadcastable arrays, summed over axis 1."""
    plo, phi = _pair_prod(alo, ahi, blo, bhi)
    return plo.sum(axis=1), phi.sum(axis=1)


def mat_vec_pairs(M, v):
    """Interval (n, m) matrix times interval length-m vector."""
    return _prod_sum(M[0], M[1], v[0][None, :], v[1][None, :])


def mat_mat_pairs(A, B):
    """Interval matrix product (n, m) @ (m, p)."""
    return _prod_sum(A[0][:, :, None], A[1][:, :, None], B[0][None], B[1][None])


def tensor_vec_pairs(J, v):
    """Contract a rank-3 interval tensor with a vector over its middle axis.

    (J v)_{k,p} = sum_l J_{k,l,p} v_l.  Applied to the (0, 2, 1) transpose of
    J it gives sum_p J_{k,l,p} w_p, as `control.linearize` uses it.
    """
    return _prod_sum(J[0], J[1], v[0][None, :, None], v[1][None, :, None])


def imat_vec(M: Box, v) -> Box:
    """Interval matrix times interval (or real) vector."""
    n, m = M.shape
    v = v if isinstance(v, Box) else Box.point(check_array("v", v, (m,)))
    if len(v) != m:
        raise ShapeMismatch(f"matrix {M.shape} times vector of length {len(v)}")
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
    return Box(lo, hi)


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
