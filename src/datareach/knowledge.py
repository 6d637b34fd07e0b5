"""Data-driven differential inclusion for unknown control-affine dynamics.

A sampled trajectory of ``xdot = f(x) + G(x) u`` plus Lipschitz bounds (and
optional further side information) is turned into interval-valued maps
``f_over`` / ``G_over`` such that the true vector field is guaranteed to
satisfy ``xdot in f_over(x) + G_over(x) u`` everywhere.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import reduce
from operator import add, mul
from typing import Callable, Dict, NamedTuple, Optional, Tuple

import numpy as np

from .errors import (
    EmptyIntersection, InconsistentSample, check_array, check_box, check_count, check_finite,
    check_positive,
)
from .intervals import (
    Box, Interval, add_pairs, check_shape, meet_arrays, real_mat_pairs, scale_pair, settle_arrays,
)


# crossings below this (relative) size are float artifacts of touching
# intervals, not data inconsistencies
_MEET_TOL = 1e-8
# relative outward padding absorbing per-cut rounding so that repeated
# contraction passes cannot erode soundness (kept small enough that even
# division-amplified pads stay below golden-test endpoint tolerances)
_PAD = 1e-14
# contracting a G column divides by u_l, amplifying rounding by 1/|u_l|;
# below this magnitude the column is left untouched (no information anyway)
_U_ZERO_TOL = 1e-5
# the default stopping tolerance of an invariance run
FIXPOINT_TOL = 1e-9


@dataclass(frozen=True)
class Sample:
    """One trajectory data point: state, state derivative and applied control."""

    x: np.ndarray
    xdot: np.ndarray
    u: np.ndarray
    t: Optional[float] = None

    def __post_init__(self):
        for name in ("x", "xdot", "u"):
            object.__setattr__(self, name, check_array(name, getattr(self, name)))
        if self.x.shape != self.xdot.shape:
            raise ValueError("x and xdot must have the same length")
        if self.t is not None:
            check_finite("t", self.t)


@dataclass(frozen=True)
class LipschitzBounds:
    """Upper bounds on the componentwise Lipschitz constants of f and G."""

    L_f: np.ndarray  # (n,)
    L_G: np.ndarray  # (n, m)

    def __post_init__(self):
        for name in ("L_f", "L_G"):
            object.__setattr__(self, name, check_array(name, getattr(self, name), nonneg=True))
        if self.L_f.ndim != 1 or self.L_G.ndim != 2:
            raise ValueError("L_f must be a vector and L_G a matrix")
        if self.L_G.shape[0] != self.L_f.shape[0]:
            raise ValueError("L_f and L_G disagree on the state dimension")

    @property
    def n(self) -> int:
        return self.L_f.shape[0]

    @property
    def m(self) -> int:
        return self.L_G.shape[1]


@dataclass(frozen=True)
class VectorFieldBounds:
    """Known supersets of the ranges of f and G over a state box."""

    region: Box   # (n,)
    f_range: Box  # (n,)
    G_range: Box  # (n, m)


@dataclass(frozen=True)
class GradientBounds:
    """Per-entry interval bounds on Jacobian components, e.g. monotonicity."""

    f: Dict[Tuple[int, int], Interval] = field(default_factory=dict)
    G: Dict[Tuple[int, int, int], Interval] = field(default_factory=dict)


@dataclass(frozen=True)
class Decoupling:
    """Boolean dependency masks; a False entry means the derivative is identically 0.

    ``f_depends[k, p]`` tells whether f_k may depend on state p, and
    ``G_depends[k, l, p]`` the same for G_{k,l}.
    """

    f_depends: np.ndarray  # (n, n) bool
    G_depends: np.ndarray  # (n, m, n) bool

    def __post_init__(self):
        object.__setattr__(self, "f_depends", np.asarray(self.f_depends, dtype=bool))
        object.__setattr__(self, "G_depends", np.asarray(self.G_depends, dtype=bool))


# User-supplied constraint hook: contracts (f enclosure, G enclosure, Jf, JG)
# of shapes (n,), (n, m), (n, n), (n, m, n) over a state box (n,) and a control
# box (m,).  Jf / JG may be None when the caller only needs the vector-field
# enclosures.
Contractor = Callable[
    [Box, Box, Box, Box, Optional[Box], Optional[Box]],
    Tuple[Box, Box, Optional[Box], Optional[Box]],
]


@dataclass(frozen=True)
class PartialDynamics:
    """A known linear drift f_kn(x) = P x, with G_kn = 0, and bounds for the
    unknown residual; the knowledge layer derives every enclosure of the
    known part from P, a finite (n, n) matrix for ``lip.n``."""

    P: np.ndarray  # (n, n)
    lip: LipschitzBounds  # bounds for the unknown residual only

    def __post_init__(self):
        P = check_array("P", self.P, (self.lip.n,) * 2)
        P.flags.writeable = False
        object.__setattr__(self, "P", P)


@dataclass(frozen=True)
class SideInfoSet:
    """Optional structural knowledge used to tighten the inclusion."""

    vf_bounds: Optional[VectorFieldBounds] = None
    grad_bounds: Optional[GradientBounds] = None
    decoupling: Optional[Decoupling] = None
    algebraic_contractor: Optional[Contractor] = None
    partial_dynamics: Optional[PartialDynamics] = None


@dataclass(frozen=True)
class KnowledgeEntry:
    """A state together with contracted enclosures of f and G at that state."""

    x: np.ndarray
    C_F: Box
    C_G: Box


def _as_slice(mask):
    """The slice selecting what the boolean ``mask`` selects, when its set
    entries form one contiguous run; otherwise the mask itself."""
    set_at = np.flatnonzero(mask)
    if set_at.size and set_at[-1] - set_at[0] + 1 == set_at.size:
        return slice(int(set_at[0]), int(set_at[-1]) + 1)
    return mask


class _Groups:
    """Distinct dependency masks of the f rows and G entries.

    Distances from a query to the entry states are computed once per mask.
    The stacked components are the n f components, then the n m G entries
    in row-major order; ``col_group`` picks each component's mask and
    ``col_L`` (one row per component) is its Lipschitz constant.  Like the
    masks, the Jacobian bands (built on first use), P's sign split, the
    range bounds and what `reach._kept` keeps depend only on the bounds and
    the side information, so the bases derived from one another share them.
    """

    def __init__(self, lip: LipschitzBounds, side: SideInfoSet):
        self._lip, self._side, self._bands, self.kept = lip, side, None, {}
        n, m, pd, vb = lip.n, lip.m, side.partial_dynamics, side.vf_bounds
        self.P_split = None if pd is None else (np.maximum(pd.P, 0.0), np.minimum(pd.P, 0.0))
        self.G_zero = np.zeros(n * m)  # the known G_kn = 0, stacked
        self.ranges = None if vb is None else _stacked(vb.f_range, vb.G_range, n, m)
        dec = side.decoupling
        f_masks = dec.f_depends if dec is not None else np.ones((n, n), bool)
        g_masks = dec.G_depends if dec is not None else np.ones((n, m, n), bool)
        masks = {}

        def mask_id(mask):
            key = mask.tobytes()
            if key not in masks:
                masks[key] = (len(masks), mask.copy())
            return masks[key][0]

        self.col_group = np.array(
            [mask_id(f_masks[k]) for k in range(n)]
            + [mask_id(g_masks[k, l]) for k in range(n) for l in range(m)]
        )
        self.col_L = np.concatenate((lip.L_f, lip.L_G.ravel()))[:, None]
        # each group's mask, or a slice where it selects one contiguous run
        # of states: a view with the same elements in the same order
        self.picks = [_as_slice(mask) for _, mask in sorted(masks.values())]

    def dists(self, offsets):
        """Per-group Euclidean norms of the offsets (..., n, N) -> (..., ngroups, N).

        Squares the offsets in place.  Each norm sums its states in order
        along the state axis, as a sum over a contiguous row of the states
        would, so the distances do not depend on the layout.
        """
        sq = np.square(offsets, out=offsets)
        out = np.empty(sq.shape[:-2] + (len(self.picks), sq.shape[-1]))
        for g, pick in enumerate(self.picks):
            np.sqrt(sq[..., pick, :].sum(axis=-2), out=out[..., g, :])
        return out

    def jacobian_bands(self):
        """The read-only `_jacobian_bands`, built on first use; a
        contradiction raises on every call."""
        if self._bands is None:
            bands = _jacobian_bands(self._lip, self._side)
            for a in bands:
                a.flags.writeable = False
            self._bands = bands
        return self._bands


class _Entries(Sequence):
    """The rows of a knowledge base as `KnowledgeEntry` objects, built on access.

    The library and its tests read the arrays; the benchmark's tracer
    (`perfbench/tracer.py`) still sizes bases by ``len(kb.entries)``.
    """

    def __init__(self, kb: "KnowledgeBase"):
        self._kb = kb

    def __len__(self):
        return self._kb.xs.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        kb = self._kb
        return KnowledgeEntry(
            kb.xs[i], Box(kb.cf_lo[i], kb.cf_hi[i]), Box(kb.cg_lo[i], kb.cg_hi[i])
        )


def _split(a, n: int):
    """The f (..., n) and G (..., n, m) parts of stacked columns (..., n + n m), as views."""
    m = (a.shape[-1] - n) // n
    return a[..., :n], a[..., n:].reshape(a.shape[:-1] + (n, m))


def _stacked(f: Box, G: Box, n: int, m: int):
    """The lo/hi pair of stacked columns of an f box (n,) and a G box (n, m)."""
    check_shape(f, (n,))
    check_shape(G, (n, m))
    return (np.concatenate((f.lo, G.lo.ravel())), np.concatenate((f.hi, G.hi.ravel())))


class _Envelopes(NamedTuple):
    """Pre-settle envelopes of a base's sample rows, kept for delta passes.

    ``rows`` holds the lo/hi (k, n + n m) envelopes each sample row was last
    contracted from; a row appended since the last pass has the one from
    the base it was appended to.  ``dirty`` (k + 1,) marks the entries
    changed or appended since those envelopes were taken; every other entry
    is as the envelopes saw it.
    """

    rows: Tuple[np.ndarray, np.ndarray]
    dirty: np.ndarray


class KnowledgeBase:
    """The set of contracted enclosures defining the differential inclusion.

    Stored column-major, one column per entry, in read-only arrays: the
    states (n, N) and the enclosures' lo/hi (n + n m, N), whose rows are the
    n components of f followed by the n m entries of G in row-major order.
    So one array operation serves f and G, and every Lipschitz envelope
    reduces over the entries along contiguous memory.  The public arrays
    are read-only (N, ·) views of that storage, one row per entry: states
    ``xs`` (N, n), enclosures ``c_lo``/``c_hi`` (N, n + n m), and their f
    and G parts ``cf_lo``/``cf_hi`` (N, n) and ``cg_lo``/``cg_hi``
    (N, n, m).  Entry 0 is the seed entry and entry i + 1 that of sample i;
    ``entries`` presents them as `KnowledgeEntry` objects.  ``xdot``
    (N - 1, n) and ``u`` (N - 1, m) hold the derivative (residual, when
    partial dynamics are known) and control that each sample entry is
    contracted from, so that `rebuild` needs nothing but the base.  Entries
    given to the constructor have no sample; their ``xdot`` and ``u`` are
    NaN, and `rebuild` rejects such a base.

    ``lip`` bounds the part learned from data (the residual when partial
    dynamics are known); ``lip_total`` bounds the full system and is what
    step-size conditions must use.  ``passes`` and ``residual`` record the
    invariance run of `build_knowledge` / `rebuild` that produced the base:
    how many passes it ran and the largest endpoint change of the last one
    (0 and None for a base made any other way).

    A point query leaves its pre-settle envelope and its settle on the base,
    keyed by the state's bytes, for an `append_sample` at that state.
    """

    def __init__(self, entries, lip: LipschitzBounds, lip_total: LipschitzBounds,
                 side: Optional[SideInfoSet] = None):
        entries = tuple(entries)
        if len(entries) == 0:
            raise ValueError("a knowledge base needs at least its seed entry")
        self.lip, self.lip_total = lip, lip_total
        self.side = side if side is not None else SideInfoSet()
        self._groups = _Groups(lip, self.side)
        n, m, N = lip.n, lip.m, len(entries)
        cols = np.empty((n, N)), np.empty((n + n * m, N)), np.empty((n + n * m, N))
        for i, e in enumerate(entries):
            cols[0][:, i] = e.x
            cols[1][:, i], cols[2][:, i] = _stacked(e.C_F, e.C_G, n, m)
        self._set_cols(cols, np.full((N - 1, n), np.nan), np.full((N - 1, m), np.nan))

    def _set_cols(self, cols, xdot, u, passes=0, residual=None):
        for a in (*cols, xdot, u):
            a.flags.writeable = False
        self._cols, self.xdot, self.u = tuple(cols), xdot, u
        self.passes, self.residual = passes, residual
        self._env: Optional[_Envelopes] = None
        # (state bytes, envelope, settle) of the last point query
        self._point: Optional[Tuple[bytes, tuple, tuple]] = None
        self._slack = None  # (rows X, their slack against the entries) in a run

    def _with_cols(self, cols, inputs=None, passes=0, residual=None) -> "KnowledgeBase":
        """A base with this one's bounds and side information and the given
        stored (n, N), (n + n m, N), (n + n m, N) arrays, one column per
        entry; ``inputs`` are the (xdot, u) of its sample entries, this
        base's by default."""
        kb = object.__new__(KnowledgeBase)
        kb.lip, kb.lip_total, kb.side, kb._groups = (
            self.lip, self.lip_total, self.side, self._groups
        )
        kb._set_cols(cols, *(inputs or (self.xdot, self.u)), passes=passes, residual=residual)
        return kb

    @property
    def n(self) -> int:
        return self.lip.n

    @property
    def m(self) -> int:
        return self.lip.m

    xs = property(lambda self: self._cols[0].T)
    c_lo = property(lambda self: self._cols[1].T)
    c_hi = property(lambda self: self._cols[2].T)
    cf_lo = property(lambda self: _split(self.c_lo, self.n)[0])
    cf_hi = property(lambda self: _split(self.c_hi, self.n)[0])
    cg_lo = property(lambda self: _split(self.c_lo, self.n)[1])
    cg_hi = property(lambda self: _split(self.c_hi, self.n)[1])

    @property
    def entries(self) -> Sequence:
        return _Entries(self)

    def _point_dists(self, X):
        """Per-group distances (k, ngroups, N) from the rows of X to the entry states."""
        return self._groups.dists(self._cols[0] - X[:, :, None])

    def _box_dists(self, X: Box, point: bool):
        """Per-group upper bounds (1, ngroups, N) of |y - x_i| over all y in
        the box X, max(x_i - lo, hi - x_i); for a ``point`` box (lo = hi)
        that is |x - x_i|."""
        xs, lo = self._cols[0], X.lo[:, None]
        far = np.abs(lo - xs) if point else np.maximum(xs - lo, X.hi[:, None] - xs)
        return self._groups.dists(far[None])


# ---------------------------------------------------------------------------
# stacked interval kernels
# ---------------------------------------------------------------------------
# The contraction pass and the queries work on rows stacked along a leading
# sample axis.  Instead of raising, a kernel returns the mask of components
# whose intersection came out genuinely empty, so that a batch can report the
# failure a per-sample loop would have hit first.

# a batched pass cuts the sample axis into chunks so that no temporary holds
# more float64s than this (a chunk has at least one sample)
_CHUNK_FLOATS = 1 << 15


def _settle(lo, hi):
    """Absorb float-level crossings of the entry intersection; flag real ones."""
    return settle_arrays(lo, hi, _MEET_TOL, _PAD)


def _first_index(mask):
    return tuple(int(i) for i in np.argwhere(mask)[0])


def _empty(what, index) -> EmptyIntersection:
    """The error of a genuine crossing in a settle ("f" / "G") or a meet (None)."""
    if what is None:
        return EmptyIntersection(f"empty intersection at component {index}", index=index)
    return EmptyIntersection(
        f"{what}-enclosure empty at component {index}: Lipschitz bounds and "
        "data are mutually inconsistent",
        index=index,
    )


def _first_failure(stages):
    """(row, kind, component) of the lowest failing row, or None.

    ``stages`` lists (mask, kind) pairs in the order one sample evaluates
    them; a row's failure is its first stage with a set mask entry.
    """
    # whether each row (leading index) of each stage's mask is set anywhere
    hit = np.stack([bad.any(axis=tuple(range(1, bad.ndim))) for bad, _ in stages])
    failing = np.flatnonzero(hit.any(axis=0))
    if failing.size == 0:
        return None
    row = int(failing[0])
    bad, kind = stages[int(np.argmax(hit[:, row]))]
    return row, kind, _first_index(bad[row])


# ---------------------------------------------------------------------------
# contraction at a data point
# ---------------------------------------------------------------------------

def _clamp(a, lo, hi, out=None):
    """``np.clip(a, lo, hi)`` as two ufunc calls, written into ``out`` if given."""
    out = np.maximum(a, lo, out=out)
    return np.minimum(out, hi, out=out)


class _Controls(NamedTuple):
    """What `_contract` derives from the controls u (k, m) alone, kept by an
    invariance run: where |u_l| > _U_ZERO_TOL (live), each column's live
    count (Python ints), the divisors (u where live, else 1) and their |.|."""

    live: np.ndarray
    counts: list
    safe: np.ndarray
    safe_abs: np.ndarray

    @classmethod
    def of(cls, u):
        live = np.abs(u) > _U_ZERO_TOL
        safe = np.where(live, u, 1.0)
        return cls(live, live.sum(axis=0).tolist(), safe, np.abs(safe))

    def take(self, rows):
        live = self.live[rows]
        return _Controls(live, live.sum(axis=0).tolist(), self.safe[rows], self.safe_abs[rows])


def _contract(xdot, u, lo, hi, controls: Optional[_Controls] = None):
    """Contract enclosures of f(x) and G(x) against xdot = f(x) + G(x) u, on
    stacked rows: xdot (k, n), u (k, m), lo/hi (k, n + n m); ``controls``
    are u's `_Controls`, derived here when not given.

    Sequential two-step forward/backward pruning: first the f-enclosure is cut
    with xdot - G u, then each column of G is cut in turn while a running
    interval tracks the part of G u not yet attributed.  A near-zero control
    component leaves its column untouched (no information, and dividing by it
    would amplify rounding).  Returns the contracted lo/hi rows and the
    (mask, "contract") failure stages of its intersections.
    """
    n, m = xdot.shape[1], u.shape[1]
    (F_lo, G_lo), (F_hi, G_hi) = _split(lo, n), _split(hi, n)
    col_lo, col_hi = scale_pair((G_lo, G_hi), u[:, None, :])
    gu_lo, gu_hi = col_lo.sum(axis=2), col_hi.sum(axis=2)
    f_lo, f_hi, bad = meet_arrays(
        F_lo, F_hi, xdot - gu_hi, xdot - gu_lo, _MEET_TOL, _PAD
    )
    stages = [bad]
    c_lo, c_hi = lo.copy(), hi.copy()
    (cf_lo, cg_lo), (cf_hi, cg_hi) = _split(c_lo, n), _split(c_hi, n)
    _clamp(f_lo, F_lo, F_hi, out=cf_lo)
    _clamp(f_hi, cf_lo, F_hi, out=cf_hi)
    s_lo, s_hi, bad = meet_arrays(
        xdot - cf_hi, xdot - cf_lo, gu_lo, gu_hi, _MEET_TOL, _PAD
    )
    stages.append(bad)
    live, counts, safe_all, abs_all = controls or _Controls.of(u)
    for l in range(m):
        last = l == m - 1
        # suffix sums over columns l+1..m-1 of G u; the last column's is empty
        if last:
            tail_lo = tail_hi = 0.0
        else:
            tail_lo = col_lo[:, :, l + 1 :].sum(axis=2)
            tail_hi = col_hi[:, :, l + 1 :].sum(axis=2)
        ul = u[:, l : l + 1]
        if counts[l]:
            num_lo, num_hi, bad = meet_arrays(
                s_lo - tail_hi, s_hi - tail_lo, col_lo[:, :, l], col_hi[:, :, l],
                _MEET_TOL,
            )
            # a column dead on some rows divides there by 1 and keeps G
            safe = safe_all[:, l : l + 1]
            mixed = counts[l] < len(u)
            if mixed:
                live_l = live[:, l : l + 1]
                bad = bad & live_l
            stages.append(bad)
            a, b = num_lo / safe, num_hi / safe
            # dividing amplifies rounding by 1/|u_l|; pad accordingly (the
            # settled num_lo <= num_hi, so max(-lo, hi) is max(|lo|, |hi|))
            div_pad = 1e-14 * (1.0 + np.maximum(-num_lo, num_hi)) / abs_all[:, l : l + 1]
            g_lo = np.minimum(a, b) - div_pad
            g_hi = np.maximum(a, b) + div_pad
            _clamp(g_lo, G_lo[:, :, l], G_hi[:, :, l], out=g_lo)
            _clamp(g_hi, g_lo, G_hi[:, :, l], out=g_hi)
            if mixed:
                g_lo = np.where(live_l, g_lo, G_lo[:, :, l])
                g_hi = np.where(live_l, g_hi, G_hi[:, :, l])
            cg_lo[:, :, l], cg_hi[:, :, l] = g_lo, g_hi
        used_lo, used_hi = scale_pair((cg_lo[:, :, l], cg_hi[:, :, l]), ul)
        # the last remainder is discarded but for its failure mask, which
        # the pad does not change
        s_lo, s_hi, bad = meet_arrays(
            s_lo - used_hi, s_hi - used_lo, tail_lo, tail_hi, _MEET_TOL,
            0.0 if last else _PAD,
        )
        stages.append(bad)
    return c_lo, c_hi, [(bad, "contract") for bad in stages]


# A one-row pass dispatches about as many numpy calls as a batched one, so
# `_contract_row` redoes `_contract` on Python floats, one component at a
# time.  It takes the same operations in the same order, and where numpy's
# choice shows in the bits it chooses as numpy does: np.maximum(a, b) and
# np.minimum(a, b) return b on a tie, which decides between 0.0 and -0.0,
# and an axis sum adds its terms in order to +0.0, so [-0.0, -0.0] sums to
# +0.0.  A settle that finds any crossing swaps the endpoints of every
# component, not just the crossed ones; that moves only the sign of a zero
# where lo == hi, and each such zero is next either padded or divided and
# then padded, which gives the same bits for either sign.  So settling one
# component at a time gives the bits of settling them all together.

# the float path takes rows whose endpoints, derivatives and controls have
# magnitudes summing to at most this: every value it then forms (products of
# two, sums of a few, quotients by |u_l| > _U_ZERO_TOL) is finite, so no NaN
# arises where numpy's max / min would propagate it and Python's would not
_ROW_LIMIT = 1e100


def _meet_one(alo, ahi, blo, bhi, pad):
    """`meet_arrays` of one component with ``_MEET_TOL`` and ``pad``, or None
    at a genuine crossing."""
    lo = alo if alo > blo else blo
    hi = ahi if ahi < bhi else bhi
    if lo > hi:
        if lo - hi > _MEET_TOL * max(1.0, abs(lo), abs(hi)):
            return None
        lo, hi = hi, lo
    if pad:
        d = -lo if -lo > hi else hi
        d = pad * (d if d > 1.0 else 1.0)
        return lo - d, hi + d
    return lo, hi


def _clamp_one(a, lo, hi):
    """`_clamp` of one component."""
    a = a if a > lo else lo
    return a if a < hi else hi


def _contract_row(xdot, u, lo, hi):
    """`_contract` of one row of Python floats, with the same bits: xdot
    (n,), u (m,) and lo/hi (n + n m,) as lists.

    Returns the contracted lo/hi lists, or None where a meet or settle
    crosses genuinely (`_contract` then finds the failure) or where the
    row's magnitudes exceed ``_ROW_LIMIT``.
    """
    n, m = len(xdot), len(u)
    if not sum(map(abs, xdot + u + lo + hi)) <= _ROW_LIMIT:
        return None
    live = [abs(ul) > _U_ZERO_TOL for ul in u]
    c_lo, c_hi = lo[:], hi[:]
    for k, x in enumerate(xdot):
        first = n + k * m
        G_lo, G_hi = lo[first : first + m], hi[first : first + m]
        # scale_pair of the G row by u
        col_lo, col_hi = [], []
        for a, b in zip(map(mul, G_lo, u), map(mul, G_hi, u)):
            col_lo.append(a if a < b else b)
            col_hi.append(a if a > b else b)
        gu_lo, gu_hi = reduce(add, col_lo, 0.0), reduce(add, col_hi, 0.0)
        F_lo, F_hi = lo[k], hi[k]
        f = _meet_one(F_lo, F_hi, x - gu_hi, x - gu_lo, _PAD)
        if f is None:
            return None
        cf_lo = c_lo[k] = _clamp_one(f[0], F_lo, F_hi)
        cf_hi = c_hi[k] = _clamp_one(f[1], cf_lo, F_hi)
        s = _meet_one(x - cf_hi, x - cf_lo, gu_lo, gu_hi, _PAD)
        for l, ul in enumerate(u):
            if s is None:
                return None
            s_lo, s_hi = s
            # the sums over columns l+1..m-1; the last column's is 0.0
            tail_lo = reduce(add, col_lo[l + 1 :], 0.0)
            tail_hi = reduce(add, col_hi[l + 1 :], 0.0)
            g_lo, g_hi = G_lo[l], G_hi[l]
            if live[l]:
                num = _meet_one(s_lo - tail_hi, s_hi - tail_lo, col_lo[l], col_hi[l], 0.0)
                if num is None:
                    return None
                num_lo, num_hi = num
                a, b = num_lo / ul, num_hi / ul
                div_pad = 1e-14 * (1.0 + max(-num_lo, num_hi)) / abs(ul)
                g_lo = _clamp_one((a if a < b else b) - div_pad, G_lo[l], G_hi[l])
                g_hi = _clamp_one((a if a > b else b) + div_pad, g_lo, G_hi[l])
                c_lo[first + l], c_hi[first + l] = g_lo, g_hi
            a, b = g_lo * ul, g_hi * ul
            s = _meet_one(s_lo - (a if a > b else b), s_hi - (a if a < b else b),
                          tail_lo, tail_hi, 0.0 if l == m - 1 else _PAD)
        if s is None:
            return None
    return c_lo, c_hi


# ---------------------------------------------------------------------------
# over-approximation queries
# ---------------------------------------------------------------------------

def _unknown(kb: KnowledgeBase, dists) -> Tuple[np.ndarray, np.ndarray]:
    """Lipschitz envelope lo/hi (k, n + n m) of the learned f and G, from
    distances (k, ngroups, N): a max / min over the entries along the
    contiguous last axis."""
    slack, (_, c_lo, c_hi) = _slack(kb, dists), kb._cols
    return (c_lo - slack).max(axis=-1), np.add(c_hi, slack, out=slack).min(axis=-1)


def _slack(kb: KnowledgeBase, dists):
    """The Lipschitz slack L d (k, n + n m, N) of distances (k, ngroups, N)."""
    groups = kb._groups
    if dists.shape[1] == 1:  # one group: the same products, broadcast
        return dists * groups.col_L
    # (k, n + n m, N), C-ordered; fancy indexing would lay the components outermost
    slack = np.take(dists, groups.col_group, axis=1)
    slack *= groups.col_L
    return slack


def _box_query(kb: KnowledgeBase, X: Box, parts: str = "fG"):
    """Enclosures over the state box X as lo/hi pairs: f for "f", G for "G".

    One distance computation and one envelope serve both parts.  Each part
    is the settled Lipschitz envelope, plus the known dynamics over X, cut
    by the range bounds when their region encloses X; a genuine crossing in
    a requested part raises, the f settle and meet before the G ones.
    Nothing here validates the result; see `f_over_iv` / `G_over_iv`.  When
    X is a single point, its pre-settle envelope is left on the base for an
    `append_sample` at that state, with its settle.  Each stage's failure
    mask is counted once; only a failure splits the masks into their parts.
    """
    n, groups = kb.n, kb._groups
    point = not np.count_nonzero(X.lo != X.hi)
    env = _unknown(kb, kb._box_dists(X, point))
    lo, hi, bad = settled = _settle(*env)
    if point:
        for a in (*env, *settled):
            a.setflags(write=False)
        kb._point = (X.lo.tobytes(), env, settled)
    enc = (lo[0], hi[0])
    stages = [(bad[0], "fG")]  # failure masks: the settle's, then the meet's
    if groups.P_split is not None:
        # P X exactly per component (one product at a point), stacked over
        # G_kn = 0, whose + 0.0 keeps the signed zeros of adding it
        known = real_mat_pairs(groups.P_split, (X.lo, X.lo if point else X.hi))
        enc = add_pairs(enc, [np.concatenate((k, groups.G_zero)) for k in known])
    vb = kb.side.vf_bounds
    if vb is not None and vb.region.encloses(X):
        *enc, bad = meet_arrays(*enc, *groups.ranges, _MEET_TOL, _PAD)
        stages.append((bad, (None, None)))
    if any(np.count_nonzero(bad) for bad, _ in stages):
        # the f settle and meet, then the G ones
        for part, what in enumerate("fG"):
            for bad, kinds in stages:
                bad = _split(bad, n)[part]
                if what in parts and np.count_nonzero(bad):
                    raise _empty(kinds[part], _first_index(bad))
    pairs = list(zip(_split(enc[0], n), _split(enc[1], n)))
    return [pairs["fG".index(what)] for what in parts]


def f_over_iv(X: Box, kb: KnowledgeBase) -> Box:
    """Inclusion-isotone interval enclosure of f over the state box X, a `Box`
    of shape (kb.n,) whose endpoints must be at most `errors.LIMIT` in magnitude."""
    return Box(*_box_query(kb, check_box("X", X, (kb.n,)), "f")[0])


def G_over_iv(X: Box, kb: KnowledgeBase) -> Box:
    """Inclusion-isotone interval enclosure of G over the state box X, a `Box`
    of shape (kb.n,) whose endpoints must be at most `errors.LIMIT` in magnitude."""
    return Box(*_box_query(kb, check_box("X", X, (kb.n,)), "G")[0])


def f_over(x: np.ndarray, kb: KnowledgeBase) -> Box:
    """Interval enclosure of f(x) from the knowledge base: the box query at {x}."""
    return f_over_iv(Box.point(check_array("x", x, (kb.n,))), kb)


def G_over(x: np.ndarray, kb: KnowledgeBase) -> Box:
    """Interval enclosure of G(x) from the knowledge base: the box query at {x}."""
    return G_over_iv(Box.point(check_array("x", x, (kb.n,))), kb)


# ---------------------------------------------------------------------------
# knowledge-base construction
# ---------------------------------------------------------------------------

def _stack(samples, pd: Optional[PartialDynamics], n, m):
    """States, derivatives and controls of the samples as (k, n), (k, n), (k, m).

    With partial dynamics the derivatives are the residuals left after the
    known part.
    """
    if shapes := {(s.x.shape, s.u.shape) for s in samples} - {((n,), (m,))}:
        raise ValueError(f"sample x and u must have shapes {(n,)} and {(m,)}, not {shapes}")
    k = len(samples)
    X = np.array([s.x for s in samples], dtype=float).reshape(k, n)
    XDOT = np.array([s.xdot for s in samples], dtype=float).reshape(k, n)
    U = np.array([s.u for s in samples], dtype=float).reshape(k, m)
    if pd is not None:
        # the + 0.0 stands for G_kn u = 0
        XDOT = XDOT - (X @ pd.P.T + 0.0)
    return X, XDOT, U


def _envelopes(kb: KnowledgeBase, X):
    """Pre-settle Lipschitz envelopes lo/hi (k, n + n m) of the learned part
    at the rows of X over all entries of ``kb``, computed chunk by chunk
    along the rows.  A base that an invariance run made for exactly these
    rows holds their slack, and the envelopes only reduce it."""
    if kb._slack is not None and kb._slack[0] is X:
        slack, (_, c_lo, c_hi) = kb._slack[1], kb._cols
        return (c_lo - slack).max(axis=-1), (c_hi + slack).min(axis=-1)
    N, cols = kb.c_lo.shape
    k = X.shape[0]
    step = max(1, _CHUNK_FLOATS // (N * max(cols, len(kb._groups.picks))))
    if step >= k:
        return _unknown(kb, kb._point_dists(X))
    lo, hi = np.empty((k, cols)), np.empty((k, cols))
    for a in range(0, k, step):
        lo[a : a + step], hi[a : a + step] = _unknown(kb, kb._point_dists(X[a : a + step]))
    return lo, hi


def _settled_rows(kb: KnowledgeBase, settled, X):
    """Apply the range bounds to the `_settle`d envelopes at the rows of X.

    Returns the stacked lo/hi (k, n + n m) and the (k, n + n m) failure
    masks of the settle and, with range bounds, of the range meet.
    """
    n, side = kb.n, kb.side
    lo, hi, bad = settled
    masks = [bad]
    vb = side.vf_bounds
    if vb is not None:
        inside = np.all((vb.region.lo <= X) & (X <= vb.region.hi), axis=1)
        rng = kb._groups.ranges
        pd = side.partial_dynamics
        if pd is not None:
            # the residual's ranges: those of f less P x, and G's as G_kn = 0
            known = np.zeros(lo.shape)
            known[:, :n] = X @ pd.P.T
            rng = (rng[0] - known, rng[1] - known)
        sel = inside[:, None]
        m_lo, m_hi, bad = meet_arrays(lo, hi, *rng, _MEET_TOL, _PAD)
        lo, hi = np.where(sel, m_lo, lo), np.where(sel, m_hi, hi)
        masks.append(bad & sel)
    return lo, hi, masks


def _contract_rows(kb: KnowledgeBase, settled, X, XDOT, U, index, controls=None):
    """Bound and contract the rows of X, XDOT, U given their settled envelopes.

    ``index`` maps each row to its sample index; ``controls`` are U's kept
    `_Controls`, if any.  Returns the new stacked lo/hi rows; once one count
    of every failure mask is not zero, raises what a per-sample loop would
    raise first, for the lowest failing sample.  One row contracts on floats
    (`_contract_row`); several rows, and a row that fails or that the float
    path declines, contract batched, so every failure is found in one place.
    """
    lo, hi, q_masks = _settled_rows(kb, settled, X)
    if X.shape[0] == 1 and not np.count_nonzero(q_masks):
        row = _contract_row(XDOT[0].tolist(), U[0].tolist(), lo[0].tolist(), hi[0].tolist())
        if row is not None:
            return [np.array([r]) for r in row]
    *new, c_stages = _contract(XDOT, U, lo, hi, controls)
    if np.count_nonzero(np.concatenate(q_masks + [bad for bad, _ in c_stages], axis=1)):
        # the f settle, the G settle, the f meet, the G meet, then the contraction
        q_stages = [stage for bad, kinds in zip(q_masks, ("fG", (None, None)))
                    for stage in zip(_split(bad, kb.n), kinds)]
        _raise_failure(_first_failure(q_stages + c_stages), index)
    return new


def _raise_failure(failure, index):
    row, kind, comp = failure
    idx = int(index[row])
    if kind != "contract":
        raise _empty(kind, comp)
    raise InconsistentSample(
        f"sample {idx} contradicts the enclosures at component {comp}",
        sample_index=idx, component=comp,
    ) from _empty(None, comp)


def _seed_entry(side: SideInfoSet, X, n, m, M) -> KnowledgeEntry:
    vb = side.vf_bounds
    pd = side.partial_dynamics
    if vb is not None:
        x0 = vb.region.mid
        CF0, CG0 = vb.f_range, vb.G_range
        if pd is not None:
            CF0 = CF0 - pd.P @ x0
    else:
        x0 = X[0]
        CF0 = Box(np.full(n, -M), np.full(n, M))
        CG0 = Box(np.full((n, m), -M), np.full((n, m), M))
    return KnowledgeEntry(np.asarray(x0, float), CF0, CG0)


def build_knowledge(
    traj,
    lip: LipschitzBounds,
    side: Optional[SideInfoSet] = None,
    M: float = 1e3,
    fixpoint_tol: float = FIXPOINT_TOL,
    max_fixpoint_iters: int = 50,
) -> KnowledgeBase:
    """Contract the trajectory into a knowledge base, iterating to invariance.

    The first pass contracts every sample against the seed-only base in one
    batched call, whatever the number of samples.  Jacobi passes then
    re-contract the base until no endpoint moves by ``fixpoint_tol``
    (widths never grow, so this terminates); after the first, a pass
    re-contracts only the rows whose Lipschitz envelope moved, bit for bit
    as re-contracting them all.  ``M`` must bound |f| and |G| on the domain
    for the result to be sound when no range bounds are supplied.  The base
    records the invariance passes and the last one's residual (at least
    ``fixpoint_tol`` if the run stopped at ``max_fixpoint_iters``).  ``M``
    and ``fixpoint_tol`` must be positive and finite, and
    ``max_fixpoint_iters`` a whole number of at least 1.
    """
    M = check_positive("M", M)
    tol, iters = _invariance_settings(fixpoint_tol, max_fixpoint_iters)
    side = side or SideInfoSet()
    pd = side.partial_dynamics
    qlip = pd.lip if pd is not None else lip
    dec = side.decoupling
    if dec is not None and (
        dec.f_depends.shape != (qlip.n, qlip.n)
        or dec.G_depends.shape != (qlip.n, qlip.m, qlip.n)
    ):
        raise ValueError("decoupling mask shapes do not match the system dimensions")
    X, XDOT, U = _stack(list(traj), pd, qlip.n, qlip.m)
    if X.shape[0] == 0 and side.vf_bounds is None:
        raise ValueError("need at least one sample or vector-field bounds")

    kb = KnowledgeBase(
        (_seed_entry(side, X, qlip.n, qlip.m, M),), qlip, lip, side
    )
    return _iterate_to_invariance(_append(kb, X, XDOT, U, 0), tol, iters)


def _invariance_settings(fixpoint_tol, max_fixpoint_iters):
    """The checked (tolerance, pass cap) of an invariance run."""
    return (check_positive("fixpoint_tol", fixpoint_tol),
            check_count("max_fixpoint_iters", max_fixpoint_iters, 1))


def _append(kb: KnowledgeBase, X, XDOT, U, first) -> KnowledgeBase:
    point = kb._point
    if X.shape[0] == 1 and point is not None and point[0] == X.tobytes():
        _, env, settled = point
    else:
        env = _envelopes(kb, X)
        settled = _settle(*env)
    new = _contract_rows(kb, settled, X, XDOT, U, range(first, first + X.shape[0]))
    # the stored columns stay C-ordered however numpy lays out the join
    out = kb._with_cols(
        [np.ascontiguousarray(np.concatenate((a, r.T), axis=1))
         for a, r in zip(kb._cols, [X] + new)],
        (np.concatenate((kb.xdot, XDOT)), np.concatenate((kb.u, U))),
    )
    cache = kb._env
    if cache is not None:
        out._env = _Envelopes(
            tuple(np.concatenate((a, e)) for a, e in zip(cache.rows, env)),
            np.concatenate((cache.dirty, np.ones(X.shape[0], bool))),
        )
    return out


# a pass folds the changed entries into the cached envelopes only while at
# most this share of the entries changed; otherwise it recomputes every row
_DELTA_SHARE = 0.5


def _loosened(diff, lo_columns):
    """Whether a pass's endpoint changes (rows of new minus old, the
    ``lo_columns`` lo endpoints first) moved an endpoint outward."""
    return bool(
        diff[:, :lo_columns].min(initial=0.0) < 0.0
        or diff[:, lo_columns:].max(initial=0.0) > 0.0
    )


def _iterate_to_invariance(kb, tol, max_iters) -> KnowledgeBase:
    """Jacobi passes over the base's own samples until no endpoint moves by
    ``tol``, re-contracting only the rows that can change.

    Each pass contracts every sample against the base the previous pass
    left.  A row's envelope is a max / min over the entries, and max and
    min are exact.  So as long as no entry loosened, folding the entries
    that changed since a row's cached envelope into it gives the envelope a
    full pass would compute, bit for bit, and a row whose envelope did not
    move would contract to the row it already has.  So a delta pass
    re-contracts only the rows whose envelope moved.  A pass recomputes
    every row against every entry when there is no cache, when more than
    ``_DELTA_SHARE`` of the entries changed, or after a pass that loosened
    an entry.

    A run derives once what its fixed states and controls give: the
    `_Controls`, and the rows' slack against the entries if it fits one
    ``_CHUNK_FLOATS`` chunk, which full passes reduce and delta passes read
    the changed columns of (else every pass computes envelopes by chunks).
    Passes update one working copy of the enclosures, made a base once.
    """
    X, XDOT, U = kb.xs[1:], kb.xdot, kb.u
    k = X.shape[0]
    cache, controls = kb._env, _Controls.of(U)
    # the working columns, and a base reading them through read-only views
    x_cols, lo_w, hi_w = kb._cols[0], kb._cols[1].copy(), kb._cols[2].copy()
    work = kb._with_cols([x_cols, lo_w[:], hi_w[:]])
    N, cols = kb.c_lo.shape
    if k * N * max(cols, len(kb._groups.picks)) <= _CHUNK_FLOATS:
        work._slack = (X, _slack(kb, kb._point_dists(X)))
    for passes in range(1, max_iters + 1):
        if cache is None or np.count_nonzero(cache.dirty) > _DELTA_SHARE * (k + 1):
            env = _envelopes(work, X)
            at = slice(1, None)
            new = _contract_rows(work, _settle(*env), X, XDOT, U, range(k), controls)
        else:
            env, changed = cache.rows, np.flatnonzero(cache.dirty)
            moved = np.zeros(k, bool)
            if changed.size:
                # np.take returns C-ordered columns, where a[:, changed] would not
                part = work._with_cols([np.take(a, changed, axis=1) for a in work._cols])
                if work._slack is not None:
                    part._slack = (X, np.take(work._slack[1], changed, axis=2))
                lo, hi = _envelopes(part, X)
                moved = (lo > env[0]).any(axis=1) | (hi < env[1]).any(axis=1)
                env = (np.maximum(env[0], lo), np.minimum(env[1], hi))
            rows = np.flatnonzero(moved)
            at = rows + 1
            new = _contract_rows(work, _settle(*(e[rows] for e in env)), X[rows], XDOT[rows],
                                 U[rows], rows, controls.take(rows))

        # one array of the rows' endpoint changes, lo columns first, gives
        # the residual, the changed entries and the loosening test
        diff = np.concatenate((new[0] - lo_w[:, at].T, new[1] - hi_w[:, at].T), axis=1)
        change = np.abs(diff).max(axis=1, initial=0.0)
        residual = float(change.max(initial=0.0))
        lo_w[:, at], hi_w[:, at] = new[0].T, new[1].T
        dirty = np.zeros(k + 1, bool)
        dirty[at] = change > 0.0
        # keep the envelopes only for a delta pass that can use them: not when
        # the next pass recomputes every row anyway, or when an entry moved
        # outward, which makes the fold inexact
        cache = None
        if (np.count_nonzero(dirty) <= _DELTA_SHARE * (k + 1)
                and not _loosened(diff, cols)):
            cache = _Envelopes(env, dirty)
        if residual < tol:
            break
    out = kb._with_cols([x_cols, lo_w, hi_w], passes=passes, residual=residual)
    out._env = cache
    return out


def append_sample(kb: KnowledgeBase, sample: Sample) -> KnowledgeBase:
    """Add one data point with a single query-and-contract pass.

    Older entries stay untouched and one row is appended to the stacked
    arrays, so the cost is linear in the base size.  When the last point
    query on ``kb`` (such as the one `datacontrol_step` makes) was at
    exactly this sample's state, its envelope and settle are reused; the
    result is the same bit for bit.  The new row's envelope joins the
    base's cached ones, so that a later `rebuild` re-contracts only the rows
    the new entries can tighten.
    """
    X, XDOT, U = _stack([sample], kb.side.partial_dynamics, kb.n, kb.m)
    return _append(kb, X, XDOT, U, kb.xs.shape[0] - 1)


def rebuild(kb, fixpoint_tol=FIXPOINT_TOL, max_fixpoint_iters=50) -> KnowledgeBase:
    """Re-run the invariance passes on the samples the base holds.

    The passes start from the envelopes the base keeps: the first folds in
    the entries appended or changed since and re-contracts only the rows
    whose envelope moved.  The result equals a full Jacobi re-run bit for
    bit; settings, pass count and residual are as in `build_knowledge`.
    """
    if np.isnan(kb.u).any():
        raise ValueError("kb holds entries with no sample, which rebuild cannot re-contract")
    return _iterate_to_invariance(kb, *_invariance_settings(fixpoint_tol, max_fixpoint_iters))


# ---------------------------------------------------------------------------
# Jacobian interval extensions
# ---------------------------------------------------------------------------

def _jacobian_bands(lip: LipschitzBounds, side: SideInfoSet):
    """Jacobian bands (jf_lo, jf_hi, jg_lo, jg_hi) of f and G: L [-1, 1] for
    the learned part, zeroed by the decoupling masks and intersected with
    the gradient bounds, plus P for a known drift."""
    n = lip.n
    jf_hi = np.repeat(lip.L_f[:, None], n, axis=1)
    jg_hi = np.repeat(lip.L_G[:, :, None], n, axis=2)
    dec = side.decoupling
    if dec is not None:
        jf_hi = np.where(dec.f_depends, jf_hi, 0.0)
        jg_hi = np.where(dec.G_depends, jg_hi, 0.0)
    jf_lo, jg_lo = -jf_hi, -jg_hi

    gb = side.grad_bounds
    if gb is not None:
        jf_lo, jf_hi = jf_lo.copy(), jf_hi.copy()
        jg_lo, jg_hi = jg_lo.copy(), jg_hi.copy()
        for (k, p), iv in gb.f.items():
            jf_lo[k, p] = max(jf_lo[k, p], iv.lo)
            jf_hi[k, p] = min(jf_hi[k, p], iv.hi)
        for (k, l, p), iv in gb.G.items():
            jg_lo[k, l, p] = max(jg_lo[k, l, p], iv.lo)
            jg_hi[k, l, p] = min(jg_hi[k, l, p], iv.hi)
        if np.any(jf_lo > jf_hi) or np.any(jg_lo > jg_hi):
            raise EmptyIntersection("gradient bounds contradict Lipschitz bounds")
    pd = side.partial_dynamics
    if pd is not None:
        # the + 0.0 of the zero G part keeps the signed zeros of adding JG_kn = 0
        jf_lo, jf_hi = jf_lo + pd.P, jf_hi + pd.P
        jg_lo, jg_hi = jg_lo + 0.0, jg_hi + 0.0
    return jf_lo, jf_hi, jg_lo, jg_hi


def _jacobian_pairs(kb: KnowledgeBase):
    """The Jacobian bands of the base as lo/hi pairs (Jf, JG)."""
    jf_lo, jf_hi, jg_lo, jg_hi = kb._groups.jacobian_bands()
    return (jf_lo, jf_hi), (jg_lo, jg_hi)
