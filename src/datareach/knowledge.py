"""Data-driven differential inclusion for unknown control-affine dynamics.

A sampled trajectory of ``xdot = f(x) + G(x) u`` plus Lipschitz bounds (and
optional further side information) is turned into interval-valued maps
``f_over`` / ``G_over`` such that the true vector field is guaranteed to
satisfy ``xdot in f_over(x) + G_over(x) u`` everywhere.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable, Dict, NamedTuple, Optional, Tuple

import numpy as np

from .errors import EmptyIntersection, InconsistentSample
from .intervals import (
    Box, Interval, add_pairs, check_shape, meet_arrays, scale_pair, settle_arrays,
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


@dataclass(frozen=True)
class Sample:
    """One trajectory data point: state, state derivative and applied control."""

    x: np.ndarray
    xdot: np.ndarray
    u: np.ndarray
    t: Optional[float] = None

    def __post_init__(self):
        for name in ("x", "xdot", "u"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.x.shape != self.xdot.shape:
            raise ValueError("x and xdot must have the same length")


@dataclass(frozen=True)
class LipschitzBounds:
    """Upper bounds on the componentwise Lipschitz constants of f and G."""

    L_f: np.ndarray  # (n,)
    L_G: np.ndarray  # (n, m)

    def __post_init__(self):
        object.__setattr__(self, "L_f", np.asarray(self.L_f, dtype=float))
        object.__setattr__(self, "L_G", np.asarray(self.L_G, dtype=float))
        if self.L_f.ndim != 1 or self.L_G.ndim != 2:
            raise ValueError("L_f must be a vector and L_G a matrix")
        if self.L_G.shape[0] != self.L_f.shape[0]:
            raise ValueError("L_f and L_G disagree on the state dimension")
        if np.any(self.L_f < 0) or np.any(self.L_G < 0):
            raise ValueError("Lipschitz bounds must be nonnegative")

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
    """Known additive part of the dynamics plus bounds for the unknown residual."""

    f_known: Callable[[np.ndarray], np.ndarray]
    G_known: Callable[[np.ndarray], np.ndarray]
    f_known_iv: Callable[[Box], Box]  # state box (n,) -> (n,)
    G_known_iv: Callable[[Box], Box]  # -> (n, m)
    jac_f_known_iv: Callable[[Box], Box]  # -> (n, n)
    jac_G_known_iv: Callable[[Box], Box]  # -> (n, m, n)
    lip: LipschitzBounds  # bounds for the unknown residual only


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


class _Groups:
    """Distinct dependency masks of the f rows and G entries.

    Distances from a query to the entry states are computed once per mask.
    The columns of a stacked row are the n f components, then the n m G
    entries in row-major order; ``col_group`` picks each column's mask and
    ``col_L`` is its Lipschitz constant.  The instance also holds the
    Jacobian bands, built on first use; like the masks they depend only on
    the bounds and the side information, so the bases derived from one
    another share them.
    """

    def __init__(self, lip: LipschitzBounds, side: SideInfoSet):
        self._lip, self._side, self._bands = lip, side, None
        n, m = lip.n, lip.m
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
        self.col_L = np.concatenate((lip.L_f, lip.L_G.ravel()))
        self.masks = [mask for _, mask in sorted(masks.values())]

    def dists(self, offsets):
        """Per-group Euclidean norms of the offsets (..., n) -> (..., ngroups)."""
        out = np.empty(offsets.shape[:-1] + (len(self.masks),))
        for g, mask in enumerate(self.masks):
            np.sqrt((offsets[..., mask] ** 2).sum(axis=-1), out=out[..., g])
        return out

    def jacobian_bands(self):
        """Read-only Jacobian bands (jf_lo, jf_hi, jg_lo, jg_hi) of the learned part.

        Baseline entries are L [-1, 1]; decoupling masks zero entries and
        gradient bounds intersect them.  A contradiction raises on every call.
        """
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

    Stored as stacked read-only arrays, one row per entry: states ``xs``
    (N, n) and enclosures ``c_lo``/``c_hi`` (N, n + n m), whose columns are
    the n components of f followed by the n m entries of G in row-major
    order, so that one array operation serves f and G.  ``cf_lo``/``cf_hi``
    (N, n) and ``cg_lo``/``cg_hi`` (N, n, m) are read-only views of them.
    Row 0 is the seed entry and row i + 1 the entry of sample i; ``entries``
    presents the rows as `KnowledgeEntry` objects.  ``xdot`` (N - 1, n) and
    ``u`` (N - 1, m) hold the derivative (residual, when partial dynamics
    are known) and control that each sample row is contracted from, so that
    `rebuild` needs nothing but the base.  Rows given to the constructor
    have no sample; their ``xdot`` and ``u`` are NaN, which `rebuild`
    rejects.

    ``lip`` bounds the part learned from data (the residual when partial
    dynamics are known); ``lip_total`` bounds the full system and is what
    step-size conditions must use.  ``passes`` and ``residual`` record the
    invariance run of `build_knowledge` / `rebuild` that produced the base:
    how many passes it ran and the largest endpoint change of the last one
    (0 and None for a base made any other way).

    A query over a single point leaves its pre-settle envelope on the base,
    keyed by the state's bytes; `append_sample` at that exact state reuses
    it instead of recomputing it (the two computations agree bit for bit).
    """

    def __init__(self, entries, lip: LipschitzBounds, lip_total: LipschitzBounds,
                 side: Optional[SideInfoSet] = None):
        entries = tuple(entries)
        if len(entries) == 0:
            raise ValueError("a knowledge base needs at least its seed entry")
        self.lip, self.lip_total = lip, lip_total
        self.side = side if side is not None else SideInfoSet()
        self._groups = _Groups(lip, self.side)
        lo, hi = zip(*(_stacked(e.C_F, e.C_G, lip.n, lip.m) for e in entries))
        k = len(entries) - 1
        self._set_rows(
            np.array([e.x for e in entries], dtype=float), np.array(lo), np.array(hi),
            np.full((k, lip.n), np.nan), np.full((k, lip.m), np.nan),
        )

    def _set_rows(self, xs, c_lo, c_hi, xdot, u, passes=0, residual=None):
        for a in (xs, c_lo, c_hi, xdot, u):
            a.flags.writeable = False
        self.xs, self.c_lo, self.c_hi, self.xdot, self.u = xs, c_lo, c_hi, xdot, u
        self.passes, self.residual = passes, residual
        self._env: Optional[_Envelopes] = None
        # (state bytes, envelope) of the last point query
        self._point: Optional[Tuple[bytes, Tuple[np.ndarray, np.ndarray]]] = None

    def _rows(self):
        return self.xs, self.c_lo, self.c_hi

    def _with_rows(self, rows, inputs=None, passes=0, residual=None) -> "KnowledgeBase":
        """A base with this one's bounds and side information and the given
        rows; ``inputs`` are the (xdot, u) of its sample rows, this base's by
        default."""
        kb = object.__new__(KnowledgeBase)
        kb.lip, kb.lip_total, kb.side, kb._groups = (
            self.lip, self.lip_total, self.side, self._groups
        )
        kb._set_rows(*rows, *(inputs or (self.xdot, self.u)), passes=passes, residual=residual)
        return kb

    @property
    def n(self) -> int:
        return self.lip.n

    @property
    def m(self) -> int:
        return self.lip.m

    cf_lo = property(lambda self: _split(self.c_lo, self.n)[0])
    cf_hi = property(lambda self: _split(self.c_hi, self.n)[0])
    cg_lo = property(lambda self: _split(self.c_lo, self.n)[1])
    cg_hi = property(lambda self: _split(self.c_hi, self.n)[1])

    @property
    def entries(self) -> Sequence:
        return _Entries(self)

    def _point_dists(self, X):
        """Per-group distances (k, N, ngroups) from the rows of X to the entry states."""
        return self._groups.dists(self.xs - X[:, None, :])

    def _box_dists(self, X: Box):
        """Per-group upper bounds (1, N, ngroups) of |y - x_i| over all y in the box X."""
        far = np.maximum(np.abs(X.lo - self.xs), np.abs(X.hi - self.xs))
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


def _any_per_row(a):
    """Whether each row (leading index) of ``a`` has a nonzero entry."""
    return a.any(axis=tuple(range(1, a.ndim)))


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
    if not any(bad.any() for bad, _ in stages):
        return None
    hit = np.stack([_any_per_row(bad) for bad, _ in stages])
    failing = np.flatnonzero(hit.any(axis=0))
    if failing.size == 0:
        return None
    row = int(failing[0])
    bad, kind = stages[int(np.argmax(hit[:, row]))]
    return row, kind, _first_index(bad[row])


# ---------------------------------------------------------------------------
# contraction at a data point
# ---------------------------------------------------------------------------

def _contract(xdot, u, lo, hi):
    """`contract_fg` on stacked rows: xdot (k, n), u (k, m), lo/hi (k, n + n m).

    Returns the contracted lo/hi rows and the (mask, "contract") failure
    stages of its intersections.
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
    np.clip(f_lo, F_lo, F_hi, out=cf_lo)
    np.clip(f_hi, cf_lo, F_hi, out=cf_hi)
    s_lo, s_hi, bad = meet_arrays(
        xdot - cf_hi, xdot - cf_lo, gu_lo, gu_hi, _MEET_TOL, _PAD
    )
    stages.append(bad)
    # suffix sums over columns l+1..m-1 of G u
    for l in range(m):
        tail_lo = col_lo[:, :, l + 1 :].sum(axis=2)
        tail_hi = col_hi[:, :, l + 1 :].sum(axis=2)
        ul = u[:, l : l + 1]
        live = np.abs(ul) > _U_ZERO_TOL
        if live.any():
            num_lo, num_hi, bad = meet_arrays(
                s_lo - tail_hi, s_hi - tail_lo, col_lo[:, :, l], col_hi[:, :, l],
                _MEET_TOL,
            )
            stages.append(bad & live)
            safe = np.where(live, ul, 1.0)
            a, b = num_lo / safe, num_hi / safe
            # dividing amplifies rounding by 1/|u_l|; pad accordingly
            div_pad = 1e-14 * (1.0 + np.maximum(np.abs(num_lo), np.abs(num_hi))) / np.abs(safe)
            g_lo = np.clip(np.minimum(a, b) - div_pad, G_lo[:, :, l], G_hi[:, :, l])
            g_hi = np.clip(np.maximum(a, b) + div_pad, g_lo, G_hi[:, :, l])
            cg_lo[:, :, l] = np.where(live, g_lo, G_lo[:, :, l])
            cg_hi[:, :, l] = np.where(live, g_hi, G_hi[:, :, l])
        used_lo, used_hi = scale_pair((cg_lo[:, :, l], cg_hi[:, :, l]), ul)
        s_lo, s_hi, bad = meet_arrays(
            s_lo - used_hi, s_hi - used_lo, tail_lo, tail_hi, _MEET_TOL, _PAD
        )
        stages.append(bad)
    return c_lo, c_hi, [(bad, "contract") for bad in stages]


def contract_fg(s: Sample, F: Box, G: Box) -> Tuple[Box, Box]:
    """Contract enclosures of f(x) and G(x) against xdot = f(x) + G(x) u.

    Sequential two-step forward/backward pruning: first the f-enclosure is cut
    with xdot - G u, then each column of G is cut in turn while a running
    interval tracks the part of G u not yet attributed.  A near-zero control
    component leaves its column untouched (no information, and dividing by it
    would amplify rounding).
    """
    lo, hi = _stacked(F, G, len(F), len(s.u))
    c_lo, c_hi, stages = _contract(s.xdot[None], s.u[None], lo[None], hi[None])
    failure = _first_failure(stages)
    if failure is not None:
        exc = _empty(None, failure[2])
        raise InconsistentSample(
            f"data point contradicts the current enclosures ({exc})",
            component=exc.index,
        ) from exc
    (cf_lo, cg_lo), (cf_hi, cg_hi) = _split(c_lo[0], len(F)), _split(c_hi[0], len(F))
    return Box(cf_lo, cf_hi), Box(cg_lo, cg_hi)


# ---------------------------------------------------------------------------
# over-approximation queries
# ---------------------------------------------------------------------------

def _unknown(kb: KnowledgeBase, dists) -> Tuple[np.ndarray, np.ndarray]:
    """Lipschitz envelope lo/hi (k, n + n m) of the learned f and G, from
    distances (k, N, ngroups)."""
    slack = kb._groups.col_L * dists[..., kb._groups.col_group]    # (k, N, n + n m)
    return (kb.c_lo - slack).max(axis=-2), (kb.c_hi + slack).min(axis=-2)


def _box_query(kb: KnowledgeBase, X: Box, parts: str = "fG"):
    """Enclosures over the state box X as lo/hi pairs: f for "f", G for "G".

    One distance computation and one envelope serve both parts.  Each part
    is the settled Lipschitz envelope, plus the known dynamics over X, cut
    by the range bounds when their region encloses X; a genuine crossing in
    a requested part raises, the f settle and meet before the G ones.
    Nothing here validates the result; see `f_over_iv` / `G_over_iv`.  When
    X is a single point, its pre-settle envelope is left on the base for an
    `append_sample` at that state.
    """
    n, m = kb.n, kb.m
    env = _unknown(kb, kb._box_dists(X))
    if (X.lo == X.hi).all():
        for a in env:
            a.flags.writeable = False
        kb._point = (X.lo.tobytes(), env)
    lo, hi, bad = _settle(*env)
    enc = (lo[0], hi[0])
    # failure masks: f settle, G settle, then f meet, G meet
    checks = list(zip(_split(bad[0], n), "fG"))
    pd, vb = kb.side.partial_dynamics, kb.side.vf_bounds
    if pd is not None:
        enc = add_pairs(enc, _stacked(pd.f_known_iv(X), pd.G_known_iv(X), n, m))
    if vb is not None and vb.region.encloses(X):
        *enc, bad = meet_arrays(*enc, *_stacked(vb.f_range, vb.G_range, n, m), _MEET_TOL, _PAD)
        checks += zip(_split(bad, n), (None, None))
    for part, what in enumerate("fG"):
        if what in parts:
            for bad, kind in checks[part::2]:
                if bad.any():
                    raise _empty(kind, _first_index(bad))
    pairs = list(zip(_split(enc[0], n), _split(enc[1], n)))
    return [pairs["fG".index(what)] for what in parts]


def f_over_iv(X: Box, kb: KnowledgeBase) -> Box:
    """Inclusion-isotone interval enclosure of f over the state box X."""
    return Box(*_box_query(kb, X, "f")[0])


def G_over_iv(X: Box, kb: KnowledgeBase) -> Box:
    """Inclusion-isotone interval enclosure of G over the state box X."""
    return Box(*_box_query(kb, X, "G")[0])


def f_over(x: np.ndarray, kb: KnowledgeBase) -> Box:
    """Interval enclosure of f(x) from the knowledge base: the box query at {x}."""
    return f_over_iv(Box.point(x), kb)


def G_over(x: np.ndarray, kb: KnowledgeBase) -> Box:
    """Interval enclosure of G(x) from the knowledge base: the box query at {x}."""
    return G_over_iv(Box.point(x), kb)


# ---------------------------------------------------------------------------
# knowledge-base construction
# ---------------------------------------------------------------------------

def _stack(samples, pd: Optional[PartialDynamics], n, m):
    """States, derivatives and controls of the samples as (k, n), (k, n), (k, m).

    With partial dynamics the derivatives are the residuals left after the
    known part.
    """
    k = len(samples)
    X = np.array([s.x for s in samples], dtype=float).reshape(k, n)
    XDOT = np.array([s.xdot for s in samples], dtype=float).reshape(k, n)
    U = np.array([s.u for s in samples], dtype=float).reshape(k, m)
    if pd is not None:
        known = [pd.f_known(s.x) + pd.G_known(s.x) @ s.u for s in samples]
        XDOT = XDOT - np.array(known, dtype=float).reshape(k, n)
    return X, XDOT, U


def _envelopes(kb: KnowledgeBase, X):
    """Pre-settle Lipschitz envelopes lo/hi (k, n + n m) of the learned part
    at the rows of X over all entries of ``kb``, computed chunk by chunk
    along the rows."""
    N, cols = kb.c_lo.shape
    k = X.shape[0]
    step = max(1, _CHUNK_FLOATS // (N * max(cols, len(kb._groups.masks))))
    if step >= k:
        return _unknown(kb, kb._point_dists(X))
    lo, hi = np.empty((k, cols)), np.empty((k, cols))
    for a in range(0, k, step):
        lo[a : a + step], hi[a : a + step] = _unknown(kb, kb._point_dists(X[a : a + step]))
    return lo, hi


def _settled_rows(kb: KnowledgeBase, env, X):
    """Settle the envelopes at the rows of X and apply the range bounds.

    Returns the stacked lo/hi (k, n + n m) and the failure stages of the
    settles and range meets, in the order one query evaluates them: the f
    settle, the G settle, the f meet, the G meet.
    """
    n, side = kb.n, kb.side
    lo, hi, bad = _settle(*env)
    stages = list(zip(_split(bad, n), "fG"))
    vb = side.vf_bounds
    if vb is not None:
        inside = np.all((vb.region.lo <= X) & (X <= vb.region.hi), axis=1)
        rng = _stacked(vb.f_range, vb.G_range, n, kb.m)
        pd = side.partial_dynamics
        if pd is not None:
            known = np.zeros(lo.shape)
            for r in np.flatnonzero(inside):
                known[r, :n] = pd.f_known(X[r])
                known[r, n:] = np.ravel(pd.G_known(X[r]))
            rng = (rng[0] - known, rng[1] - known)
        sel = inside[:, None]
        m_lo, m_hi, bad = meet_arrays(lo, hi, *rng, _MEET_TOL, _PAD)
        lo, hi = np.where(sel, m_lo, lo), np.where(sel, m_hi, hi)
        stages += zip(_split(bad & sel, n), (None, None))
    return lo, hi, stages


def _contract_rows(kb: KnowledgeBase, env, X, XDOT, U, index):
    """Settle, bound and contract the rows of X, XDOT, U given their envelopes.

    ``index`` maps each row to its sample index.  Returns the new stacked
    lo/hi rows; on failure raises what a per-sample loop would raise first,
    for the lowest failing sample.
    """
    nan = np.isnan(X).any(axis=1) | np.isnan(XDOT).any(axis=1) | np.isnan(U).any(axis=1)
    lo, hi, q_stages = _settled_rows(kb, env, X)
    *new, c_stages = _contract(XDOT, U, lo, hi)
    failure = _first_failure([(nan[:, None], "nan")] + q_stages + c_stages)
    if failure is not None:
        _raise_failure(failure, index)
    return new


def _raise_failure(failure, index):
    row, kind, comp = failure
    idx = int(index[row])
    if kind == "nan":
        raise ValueError(f"sample {idx}: interval endpoints must not be NaN")
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
            CF0 = CF0 - pd.f_known(x0)
            CG0 = CG0 - pd.G_known(x0)
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
    fixpoint_tol: float = 1e-9,
    max_fixpoint_iters: int = 50,
) -> KnowledgeBase:
    """Contract the trajectory into a knowledge base, iterating to invariance.

    Each data point is first processed against the base built so far, then the
    whole base is re-contracted in Jacobi passes until no endpoint moves by
    more than ``fixpoint_tol`` (widths are monotone non-increasing, so this
    terminates).  After the first pass, a pass re-contracts only the rows
    whose Lipschitz envelope moved, with the same result bit for bit as
    re-contracting them all.  ``M`` must genuinely bound |f| and |G| on the
    domain for the result to be sound when no range bounds are supplied.
    The returned base records the number of invariance passes and the
    residual of the last one, and keeps each row's envelope for `rebuild`.
    """
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
    for i in range(X.shape[0]):
        kb = _append(kb, X[i : i + 1], XDOT[i : i + 1], U[i : i + 1], i)
    return _iterate_to_invariance(kb, fixpoint_tol, max_fixpoint_iters)


def _append(kb: KnowledgeBase, X, XDOT, U, first) -> KnowledgeBase:
    point = kb._point
    if X.shape[0] == 1 and point is not None and point[0] == X.tobytes():
        env = point[1]
    else:
        env = _envelopes(kb, X)
    new = _contract_rows(kb, env, X, XDOT, U, range(first, first + X.shape[0]))
    out = kb._with_rows(
        [np.concatenate((a, r)) for a, r in zip(kb._rows(), [X] + new)],
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
    move would contract to the row it already has.  A delta pass therefore
    re-contracts only the rows whose envelope moved.  A pass recomputes
    every row against every entry when there is no cache, when more than
    ``_DELTA_SHARE`` of the entries changed, or after a pass that loosened
    an entry.
    """
    X, XDOT, U = kb.xs[1:], kb.xdot, kb.u
    k = X.shape[0]
    cache = kb._env
    for passes in range(1, max_iters + 1):
        old = [a[1:] for a in kb._rows()[1:]]
        if cache is None or np.count_nonzero(cache.dirty) > _DELTA_SHARE * (k + 1):
            env = _envelopes(kb, X)
            rows = None
            new = _contract_rows(kb, env, X, XDOT, U, range(k))
        else:
            env = cache.rows
            moved = np.zeros(k, bool)
            changed = np.flatnonzero(cache.dirty)
            if changed.size:
                lo, hi = _envelopes(kb._with_rows([a[changed] for a in kb._rows()]), X)
                moved = (lo > env[0]).any(axis=1) | (hi < env[1]).any(axis=1)
                env = (np.maximum(env[0], lo), np.minimum(env[1], hi))
            rows = np.flatnonzero(moved)
            new = _contract_rows(
                kb, [e[rows] for e in env], X[rows], XDOT[rows], U[rows], rows
            )
            old = [a[rows] for a in old]

        # one array of the rows' endpoint changes, lo columns first, gives
        # the residual, the changed entries and the loosening test
        diff = np.concatenate((new[0] - old[0], new[1] - old[1]), axis=1)
        change = np.abs(diff).max(axis=1, initial=0.0)
        residual = float(change.max(initial=0.0))
        dirty = np.zeros(k + 1, bool)
        if rows is None:
            arrays = [kb.xs] + [np.concatenate((a[:1], r)) for a, r in zip(kb._rows()[1:], new)]
            dirty[1:] = change > 0.0
        else:
            arrays = [kb.xs]
            for a, r in zip(kb._rows()[1:], new):
                a = a.copy()
                a[rows + 1] = r
                arrays.append(a)
            dirty[rows[change > 0.0] + 1] = True
        kb = kb._with_rows(arrays, passes=passes, residual=residual)
        # keep the envelopes only for a delta pass that can use them: not when
        # the next pass recomputes every row anyway, or when an entry moved
        # outward, which makes the fold inexact
        cache = None
        if (np.count_nonzero(dirty) <= _DELTA_SHARE * (k + 1)
                and not _loosened(diff, kb.c_lo.shape[1])):
            cache = _Envelopes(env, dirty)
        kb._env = cache
        if residual < tol:
            break
    return kb


def append_sample(kb: KnowledgeBase, sample: Sample) -> KnowledgeBase:
    """Add one data point with a single query-and-contract pass.

    The incremental update leaves older entries untouched and appends one
    row to the stacked arrays, so its cost is linear in the base size.  When
    the last point query on ``kb`` (such as the one `datacontrol_step` makes)
    was at exactly this sample's state, its envelope is reused instead of
    recomputed; the result is the same bit for bit.  The new row's envelope
    joins the base's cached ones, so that a later `rebuild` re-contracts
    only the rows the new entries can tighten.
    """
    X, XDOT, U = _stack([sample], kb.side.partial_dynamics, kb.n, kb.m)
    return _append(kb, X, XDOT, U, kb.xs.shape[0] - 1)


def rebuild(kb, fixpoint_tol=1e-9, max_fixpoint_iters=50) -> KnowledgeBase:
    """Re-run the invariance passes on the samples the base holds.

    The passes start from the envelopes the base keeps: the first folds in
    the entries appended or changed since and re-contracts only the rows
    whose envelope moved.  The result equals a full Jacobi re-run bit for
    bit, and records the pass count and final residual, as
    `build_knowledge` does.
    """
    return _iterate_to_invariance(kb, fixpoint_tol, max_fixpoint_iters)


# ---------------------------------------------------------------------------
# Jacobian interval extensions
# ---------------------------------------------------------------------------

def _jacobian_bands(lip: LipschitzBounds, side: SideInfoSet):
    """Jacobian bands (jf_lo, jf_hi, jg_lo, jg_hi) from the bounds and side information."""
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
    return jf_lo, jf_hi, jg_lo, jg_hi


def _shifted(enc, known: Box):
    """A lo/hi pair plus a Box of known dynamics of the same shape."""
    check_shape(known, enc[0].shape)
    return add_pairs(enc, (known.lo, known.hi))


def _jacobian_pairs(kb: KnowledgeBase, state_box: Optional[Box] = None):
    """Interval Jacobians (Jf, JG) of f and G over ``state_box`` as lo/hi pairs.

    The learned part's bands are L [-1, 1], with decoupling masks zeroing
    entries and gradient bounds intersecting them; known partial dynamics
    add their Jacobian over ``state_box``, which they require.
    """
    jf_lo, jf_hi, jg_lo, jg_hi = kb._groups.jacobian_bands()
    Jf, JG = (jf_lo, jf_hi), (jg_lo, jg_hi)
    pd = kb.side.partial_dynamics
    if pd is None:
        return Jf, JG
    if state_box is None:
        raise ValueError("state_box is required when partial dynamics are declared")
    return (
        _shifted(Jf, pd.jac_f_known_iv(state_box)),
        _shifted(JG, pd.jac_G_known_iv(state_box)),
    )
