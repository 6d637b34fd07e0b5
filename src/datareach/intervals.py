"""Validated interval arithmetic: scalar `Interval`s and interval `Box`es.

A `Box` holds lo/hi float64 arrays of any shape, so one type serves interval
vectors, matrices and rank-3 tensors; the contractions below check the shapes
they need.  Every `Box`, including each kernel result, is validated by one
fused comparison `(lo <= hi).all()`, which is false at any NaN as well as at
any inverted component; only then is the cause looked up to pick the error.
Endpoints are plain float64 with no directed rounding; an
optional global inflation margin (`set_inflate_eps`) is available for
paranoid runs.  Both types are immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyIntersection, NegativeDomain, ShapeMismatch

_INFLATE_EPS = 0.0


def set_inflate_eps(eps: float) -> None:
    """Set the global outward-inflation margin applied to every arithmetic result."""
    global _INFLATE_EPS
    if eps < 0:
        raise ValueError("inflation margin must be nonnegative")
    _INFLATE_EPS = float(eps)


def get_inflate_eps() -> float:
    return _INFLATE_EPS


def _out(lo, hi):
    """Apply the outward-inflation margin (no-op by default)."""
    if _INFLATE_EPS == 0.0:
        return lo, hi
    pad = _INFLATE_EPS * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
    return lo - pad, hi + pad


# ---------------------------------------------------------------------------
# scalar intervals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Interval:
    """Closed real interval [lo, hi]; degenerate intervals represent exact reals."""

    lo: float
    hi: float

    __array_ufunc__ = None  # keep numpy from coercing mixed expressions

    def __init__(self, lo, hi=None):
        lo = float(lo)
        hi = lo if hi is None else float(hi)
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError("interval endpoints must not be NaN")
        if lo > hi:
            raise ValueError(f"invalid interval: lo={lo} > hi={hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other):
        o = _as_interval(other)
        return _mk(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __sub__(self, other):
        o = _as_interval(other)
        return _mk(self.lo - o.hi, self.hi - o.lo)

    def __rsub__(self, other):
        return _as_interval(other) - self

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __mul__(self, other):
        o = _as_interval(other)
        lo, hi = _prod_bounds(self.lo, self.hi, o.lo, o.hi)
        return _mk(lo, hi)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        s = float(scalar)
        if s == 0.0:
            raise ZeroDivisionError("interval division by exact zero")
        a, b = self.lo / s, self.hi / s
        return _mk(min(a, b), max(a, b))

    # -- set operations ----------------------------------------------------
    def intersect(self, other: "Interval") -> "Interval":
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            raise EmptyIntersection(f"{self} and {other} do not intersect")
        return Interval(lo, hi)

    def contains(self, x: float, atol: float = 0.0) -> bool:
        return self.lo - atol <= x <= self.hi + atol

    def encloses(self, other: "Interval", atol: float = 0.0) -> bool:
        return self.lo - atol <= other.lo and other.hi <= self.hi + atol

    # -- scalar descriptors --------------------------------------------------
    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def mag(self) -> float:
        """Absolute value of the interval: max(|lo|, |hi|)."""
        return max(abs(self.lo), abs(self.hi))

    def __repr__(self):
        return f"[{self.lo:.12g}, {self.hi:.12g}]"


def _as_interval(x) -> Interval:
    if isinstance(x, Interval):
        return x
    return Interval(float(x))


def _mk(lo, hi):
    lo, hi = _out(lo, hi)
    return Interval(lo, hi)


def _prod_bounds(alo, ahi, blo, bhi):
    cands = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
    return min(cands), max(cands)


def sqrt_ext(a: Interval) -> Interval:
    """Interval extension of the square root; requires a.lo >= 0."""
    if a.lo < 0:
        raise NegativeDomain(f"sqrt of {a}")
    return _mk(math.sqrt(a.lo), math.sqrt(a.hi))


def sqr_ext(a: Interval) -> Interval:
    """Interval extension of squaring, exact on intervals containing 0."""
    lo2, hi2 = a.lo * a.lo, a.hi * a.hi
    if a.lo <= 0.0 <= a.hi:
        return _mk(0.0, max(lo2, hi2))
    return _mk(min(lo2, hi2), max(lo2, hi2))


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
        # one fused test: any NaN or any inverted component makes it false
        if not (lo <= hi).all():
            if np.isnan(lo).any() or np.isnan(hi).any():
                raise ValueError("interval endpoints must not be NaN")
            raise ValueError("invalid interval bounds: lo > hi somewhere")
        lo.flags.writeable = False
        hi.flags.writeable = False
        self.lo = lo
        self.hi = hi

    # -- constructors ------------------------------------------------------
    @classmethod
    def _new(cls, lo, hi):
        lo, hi = _out(lo, hi)
        return cls(lo, hi)

    @classmethod
    def point(cls, values):
        v = np.asarray(values, dtype=float)
        return cls(v, v)

    @classmethod
    def of(cls, nested):
        """Box from nested sequences of Intervals (any depth, rectangular)."""
        return cls(_endpoints(nested, "lo"), _endpoints(nested, "hi"))

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
            return self._new(self.lo + other.lo, self.hi + other.hi)
        v = np.asarray(other, dtype=float)
        return self._new(self.lo + v, self.hi + v)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Box):
            self._check_same(other)
            return self._new(self.lo - other.hi, self.hi - other.lo)
        v = np.asarray(other, dtype=float)
        return self._new(self.lo - v, self.hi - v)

    def __rsub__(self, other):
        v = np.asarray(other, dtype=float)
        return self._new(v - self.hi, v - self.lo)

    def __neg__(self):
        return Box(-self.hi, -self.lo)

    def __mul__(self, other):
        """Scaling by a real scalar or by a scalar Interval (componentwise)."""
        if isinstance(other, Interval):
            return self._new(*_pair_prod(self.lo, self.hi, other.lo, other.hi))
        c = float(other)
        a, b = self.lo * c, self.hi * c
        return self._new(np.minimum(a, b), np.maximum(a, b))

    __rmul__ = __mul__

    # -- set operations ------------------------------------------------------
    def intersect(self, other):
        self._check_same(other)
        lo = np.maximum(self.lo, other.lo)
        hi = np.minimum(self.hi, other.hi)
        bad = lo > hi
        if np.any(bad):
            idx = tuple(int(i) for i in np.argwhere(bad)[0])
            raise EmptyIntersection(
                f"empty intersection at component {idx}", index=idx
            )
        return Box(lo, hi)

    def contains(self, values, atol: float = 0.0) -> bool:
        v = np.asarray(values, dtype=float)
        return bool(np.all(self.lo - atol <= v) and np.all(v <= self.hi + atol))

    def encloses(self, other, atol: float = 0.0) -> bool:
        self._check_same(other)
        return bool(
            np.all(self.lo - atol <= other.lo) and np.all(other.hi <= self.hi + atol)
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
        if not isinstance(other, Box) or other.shape != self.shape:
            raise ShapeMismatch(
                f"incompatible operands: Box{self.shape} vs "
                f"{type(other).__name__}{getattr(other, 'shape', '')}"
            )

    def __eq__(self, other):
        return (
            isinstance(other, Box)
            and np.array_equal(self.lo, other.lo)
            and np.array_equal(self.hi, other.hi)
        )

    def __repr__(self):
        return f"Box(lo={self.lo!r}, hi={self.hi!r})"


def _endpoints(nested, end: str):
    if isinstance(nested, Interval):
        return getattr(nested, end)
    return [_endpoints(item, end) for item in nested]


# ---------------------------------------------------------------------------
# aggregate operations
# ---------------------------------------------------------------------------

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


def norm2_ext(s: Box) -> Interval:
    """Interval extension of the Euclidean norm: sqrt of the sum of squares."""
    crosses = (s.lo <= 0.0) & (0.0 <= s.hi)
    lo2 = np.where(crosses, 0.0, np.minimum(s.lo**2, s.hi**2))
    hi2 = np.maximum(s.lo**2, s.hi**2)
    return sqrt_ext(Interval(float(lo2.sum()), float(hi2.sum())))


def inf_norm(v: Box) -> float:
    """sup-norm of an interval vector: max componentwise |.|."""
    return float(np.max(v.mag)) if len(v) else 0.0


def imat_vec(M: Box, v) -> Box:
    """Interval matrix times interval (or real) vector."""
    if not isinstance(v, Box):
        v = Box.point(v)
    n, m = M.shape
    if len(v) != m:
        raise ShapeMismatch(f"matrix {M.shape} times vector of length {len(v)}")
    plo, phi = _pair_prod(M.lo, M.hi, v.lo[None, :], v.hi[None, :])
    return Box._new(plo.sum(axis=1), phi.sum(axis=1))


def imat_imat(A: Box, B: Box) -> Box:
    """Interval matrix product (n x m) @ (m x p)."""
    n, m = A.shape
    m2, p = B.shape
    if m != m2:
        raise ShapeMismatch(f"cannot multiply {A.shape} by {B.shape}")
    plo, phi = _pair_prod(
        A.lo[:, :, None], A.hi[:, :, None], B.lo[None, :, :], B.hi[None, :, :]
    )
    return Box._new(plo.sum(axis=1), phi.sum(axis=1))


def tensor_vec(J: Box, v) -> Box:
    """Contract a (n,m,n) tensor with a length-m vector over its middle axis.

    (J v)_{k,p} = sum_l J_{k,l,p} v_l, an n x n interval matrix.
    """
    if not isinstance(v, Box):
        v = Box.point(v)
    n, m, n2 = J.shape
    if len(v) != m:
        raise ShapeMismatch(f"tensor {J.shape} contracted with vector length {len(v)}")
    plo, phi = _pair_prod(
        J.lo, J.hi, v.lo[None, :, None], v.hi[None, :, None]
    )
    return Box._new(plo.sum(axis=1), phi.sum(axis=1))


def tensor_transpose(J: Box) -> Box:
    """Swap the last two axes: (J^T)_{k,p,l} = J_{k,l,p}."""
    return Box(np.transpose(J.lo, (0, 2, 1)), np.transpose(J.hi, (0, 2, 1)))


def tensorT_vec(Jt: Box, w) -> Box:
    """Contract a transposed (n,n,m) tensor with a length-n vector.

    result_{k,l} = sum_p Jt_{k,p,l} w_p = sum_p J_{k,l,p} w_p, an n x m matrix.
    """
    if not isinstance(w, Box):
        w = Box.point(w)
    n, n2, m = Jt.shape
    if len(w) != n2:
        raise ShapeMismatch(f"tensor {Jt.shape} contracted with vector length {len(w)}")
    plo, phi = _pair_prod(
        Jt.lo, Jt.hi, w.lo[None, :, None], w.hi[None, :, None]
    )
    return Box._new(plo.sum(axis=1), phi.sum(axis=1))


def meet(a, b, tol: float = 0.0, pad: float = 0.0):
    """Componentwise intersection forgiving float-level crossings.

    Crossings no larger than tol * max(1, |endpoint|) are treated as touching
    intervals perturbed by rounding and become the (tiny) hull of the crossing
    region; larger ones raise EmptyIntersection.  `pad` adds a relative
    outward margin to the result so repeated cuts cannot erode soundness.
    """
    a._check_same(b)
    lo, hi, genuine = meet_arrays(a.lo, a.hi, b.lo, b.hi, tol, pad)
    if np.any(genuine):
        idx = tuple(int(i) for i in np.argwhere(genuine)[0])
        raise EmptyIntersection(f"empty intersection at component {idx}", index=idx)
    return Box(lo, hi)


def meet_arrays(alo, ahi, blo, bhi, tol: float = 0.0, pad: float = 0.0):
    """Array kernel of `meet` for broadcastable lo/hi arrays; does not raise.

    Returns (lo, hi, genuine), where `genuine` marks the crossings larger than
    the tolerance (there lo and hi are meaningless).
    """
    lo = np.maximum(alo, blo)
    hi = np.minimum(ahi, bhi)
    gap = lo - hi
    genuine = gap > 0.0
    if np.any(genuine):
        genuine = gap > tol * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    if pad:
        margin = pad * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
        lo = lo - margin
        hi = hi + margin
    return lo, hi, genuine


def real_mat_iv(M, v: Box) -> Box:
    """Real matrix times interval vector, exact per component."""
    M = np.asarray(M, dtype=float)
    pos = np.maximum(M, 0.0)
    neg = np.minimum(M, 0.0)
    return Box._new(pos @ v.lo + neg @ v.hi, pos @ v.hi + neg @ v.lo)
