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
from .intervals import Box, Interval, _out, get_inflate_eps, meet, meet_arrays


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

    Distances from a query to the entry states are computed once per mask;
    ``f_group`` (n,) and ``g_group`` (n, m) pick each component's mask.
    """

    def __init__(self, lip: LipschitzBounds, side: SideInfoSet):
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

        self.f_group = np.array([mask_id(f_masks[k]) for k in range(n)])
        self.g_group = np.array(
            [[mask_id(g_masks[k, l]) for l in range(m)] for k in range(n)]
        )
        self.masks = [mask for _, mask in sorted(masks.values())]

    def dists(self, offsets):
        """Per-group Euclidean norms of the offsets (..., n) -> (..., ngroups)."""
        out = np.empty(offsets.shape[:-1] + (len(self.masks),))
        for g, mask in enumerate(self.masks):
            np.sqrt((offsets[..., mask] ** 2).sum(axis=-1), out=out[..., g])
        return out


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


class _Envelopes(NamedTuple):
    """Pre-settle envelopes of a base's sample rows, kept for delta passes.

    ``rows`` holds the f lo/hi (k, n) and G lo/hi (k, n, m) envelopes each
    sample row was last contracted from, and ``xdot`` (k, n) / ``u`` (k, m)
    the inputs it was contracted with, under the inflation margin
    ``inflate``.  ``dirty`` (k + 1,) marks the entries changed since those
    envelopes were taken; every other entry is as the envelopes saw it.
    ``appended`` holds (envelopes, xdot, u) of the rows appended since, each
    against the base it was appended to; their entries count as changed.
    """

    rows: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    xdot: np.ndarray
    u: np.ndarray
    inflate: float
    dirty: np.ndarray
    appended: tuple = ()

    def stacked(self) -> "_Envelopes":
        """The same cache with the appended rows stacked onto the others."""
        if not self.appended:
            return self
        env, xdot, u = zip(*self.appended)
        return _Envelopes(
            tuple(np.concatenate((a,) + parts) for a, parts in zip(self.rows, zip(*env))),
            np.concatenate((self.xdot,) + xdot),
            np.concatenate((self.u,) + u),
            self.inflate,
            np.concatenate((self.dirty, np.ones(len(xdot), bool))),
        )


class KnowledgeBase:
    """The set of contracted enclosures defining the differential inclusion.

    Stored as stacked read-only arrays, one row per entry: states ``xs``
    (N, n), f enclosures ``cf_lo``/``cf_hi`` (N, n) and G enclosures
    ``cg_lo``/``cg_hi`` (N, n, m).  Row 0 is the seed entry and row i + 1 the
    entry of sample i; ``entries`` presents the rows as `KnowledgeEntry`
    objects.

    ``lip`` bounds the part learned from data (the residual when partial
    dynamics are known); ``lip_total`` bounds the full system and is what
    step-size conditions must use.  ``passes`` and ``residual`` record the
    invariance run of `build_knowledge` / `rebuild` that produced the base:
    how many passes it ran and the largest endpoint change of the last one
    (0 and None for a base made any other way).
    """

    def __init__(self, entries, lip: LipschitzBounds, lip_total: LipschitzBounds,
                 side: Optional[SideInfoSet] = None):
        entries = tuple(entries)
        if len(entries) == 0:
            raise ValueError("a knowledge base needs at least its seed entry")
        self.lip, self.lip_total = lip, lip_total
        self.side = side if side is not None else SideInfoSet()
        self._groups = _Groups(lip, self.side)
        self._set_rows(
            np.array([e.x for e in entries], dtype=float),
            np.array([e.C_F.lo for e in entries]),
            np.array([e.C_F.hi for e in entries]),
            np.array([e.C_G.lo for e in entries]),
            np.array([e.C_G.hi for e in entries]),
        )

    def _set_rows(self, xs, cf_lo, cf_hi, cg_lo, cg_hi, passes=0, residual=None):
        for a in (xs, cf_lo, cf_hi, cg_lo, cg_hi):
            a.flags.writeable = False
        self.xs, self.cf_lo, self.cf_hi = xs, cf_lo, cf_hi
        self.cg_lo, self.cg_hi = cg_lo, cg_hi
        self.passes, self.residual = passes, residual
        self._env: Optional[_Envelopes] = None

    def _rows(self):
        return self.xs, self.cf_lo, self.cf_hi, self.cg_lo, self.cg_hi

    def _with_rows(self, rows, passes=0, residual=None) -> "KnowledgeBase":
        """A base with this one's bounds and side information and the given rows."""
        kb = object.__new__(KnowledgeBase)
        kb.lip, kb.lip_total, kb.side, kb._groups = (
            self.lip, self.lip_total, self.side, self._groups
        )
        kb._set_rows(*rows, passes=passes, residual=residual)
        return kb

    @property
    def n(self) -> int:
        return self.lip.n

    @property
    def m(self) -> int:
        return self.lip.m

    @property
    def entries(self) -> Sequence:
        return _Entries(self)

    def _point_dists(self, X):
        """Per-group distances (k, N, ngroups) from the rows of X to the entry states."""
        return self._groups.dists(self.xs - X[:, None, :])

    def _box_dists(self, X: Box):
        """Per-group upper bounds (1, N, ngroups) of |y - x_i| over all y in the box X."""
        far = np.maximum(np.abs(X.lo[None, :] - self.xs), np.abs(X.hi[None, :] - self.xs))
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
    return meet_arrays(lo, hi, lo, hi, _MEET_TOL, _PAD)


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

def _contract(xdot, u, F_lo, F_hi, G_lo, G_hi):
    """`contract_fg` on stacked rows: xdot (k, n), u (k, m), F (k, n), G (k, n, m).

    Returns the contracted f and G rows and the (mask, "contract") failure
    stages of its intersections.
    """
    m = u.shape[1]
    uc = u[:, None, :]
    col_lo = np.minimum(G_lo * uc, G_hi * uc)
    col_hi = np.maximum(G_lo * uc, G_hi * uc)
    gu_lo, gu_hi = _out(col_lo.sum(axis=2), col_hi.sum(axis=2))
    lo, hi, bad = meet_arrays(
        F_lo, F_hi, *_out(xdot - gu_hi, xdot - gu_lo), _MEET_TOL, _PAD
    )
    stages = [bad]
    cf_lo = np.clip(lo, F_lo, F_hi)
    cf_hi = np.clip(hi, cf_lo, F_hi)
    s_lo, s_hi, bad = meet_arrays(
        *_out(xdot - cf_hi, xdot - cf_lo), gu_lo, gu_hi, _MEET_TOL, _PAD
    )
    stages.append(bad)
    cg_lo, cg_hi = G_lo.copy(), G_hi.copy()
    # suffix sums over columns l+1..m-1 of G u
    for l in range(m):
        tail_lo = col_lo[:, :, l + 1 :].sum(axis=2)
        tail_hi = col_hi[:, :, l + 1 :].sum(axis=2)
        ul = u[:, l : l + 1]
        live = np.abs(ul) > _U_ZERO_TOL
        if live.any():
            num_lo, num_hi, bad = meet_arrays(
                *_out(s_lo - tail_hi, s_hi - tail_lo), col_lo[:, :, l], col_hi[:, :, l],
                _MEET_TOL,
            )
            stages.append(bad & live)
            safe = np.where(live, ul, 1.0)
            a, b = num_lo / safe, num_hi / safe
            # dividing amplifies rounding by 1/|u_l|; pad accordingly
            div_pad = 1e-14 * (1.0 + np.maximum(np.abs(num_lo), np.abs(num_hi))) / np.abs(safe)
            lo = np.clip(np.minimum(a, b) - div_pad, G_lo[:, :, l], G_hi[:, :, l])
            hi = np.clip(np.maximum(a, b) + div_pad, lo, G_hi[:, :, l])
            cg_lo[:, :, l] = np.where(live, lo, G_lo[:, :, l])
            cg_hi[:, :, l] = np.where(live, hi, G_hi[:, :, l])
        used_lo = np.minimum(cg_lo[:, :, l] * ul, cg_hi[:, :, l] * ul)
        used_hi = np.maximum(cg_lo[:, :, l] * ul, cg_hi[:, :, l] * ul)
        s_lo, s_hi, bad = meet_arrays(
            s_lo - used_hi, s_hi - used_lo, tail_lo, tail_hi, _MEET_TOL, _PAD
        )
        stages.append(bad)
    return cf_lo, cf_hi, cg_lo, cg_hi, [(bad, "contract") for bad in stages]


def contract_fg(s: Sample, F: Box, G: Box) -> Tuple[Box, Box]:
    """Contract enclosures of f(x) and G(x) against xdot = f(x) + G(x) u.

    Sequential two-step forward/backward pruning: first the f-enclosure is cut
    with xdot - G u, then each column of G is cut in turn while a running
    interval tracks the part of G u not yet attributed.  A near-zero control
    component leaves its column untouched (no information, and dividing by it
    would amplify rounding).
    """
    *rows, stages = _contract(
        s.xdot[None], s.u[None], F.lo[None], F.hi[None], G.lo[None], G.hi[None]
    )
    failure = _first_failure(stages)
    if failure is not None:
        exc = _empty(None, failure[2])
        raise InconsistentSample(
            f"data point contradicts the current enclosures ({exc})",
            component=exc.index,
        ) from exc
    cf_lo, cf_hi, cg_lo, cg_hi = rows
    return Box(cf_lo[0], cf_hi[0]), Box(cg_lo[0], cg_hi[0])


# ---------------------------------------------------------------------------
# over-approximation queries
# ---------------------------------------------------------------------------

def _unknown_f(kb: KnowledgeBase, dists) -> Tuple[np.ndarray, np.ndarray]:
    """Lipschitz envelope (k, n) of the learned f, from distances (k, N, ngroups)."""
    slack = kb.lip.L_f * dists[..., kb._groups.f_group]            # (k, N, n)
    return (kb.cf_lo - slack).max(axis=-2), (kb.cf_hi + slack).min(axis=-2)


def _unknown_G(kb: KnowledgeBase, dists) -> Tuple[np.ndarray, np.ndarray]:
    """Lipschitz envelope (k, n, m) of the learned G, from distances (k, N, ngroups)."""
    slack = kb.lip.L_G * dists[..., kb._groups.g_group]            # (k, N, n, m)
    return (kb.cg_lo - slack).max(axis=-3), (kb.cg_hi + slack).min(axis=-3)


def _settled(lo, hi, what):
    """The settled envelope of a single query; raises on a genuine crossing."""
    lo, hi, bad = _settle(lo, hi)
    if bad.any():
        raise _empty(what, _first_index(bad[0]))
    return lo[0], hi[0]


def f_over(x: np.ndarray, kb: KnowledgeBase) -> Box:
    """Interval enclosure of f(x) from the knowledge base (Lipschitz envelope)."""
    x = np.asarray(x, dtype=float)
    enc = Box(*_settled(*_unknown_f(kb, kb._point_dists(x[None])), "f"))
    pd = kb.side.partial_dynamics
    if pd is not None:
        enc = enc + pd.f_known(x)
    vb = kb.side.vf_bounds
    if vb is not None and vb.region.contains(x):
        enc = meet(enc, vb.f_range, _MEET_TOL, _PAD)
    return enc


def G_over(x: np.ndarray, kb: KnowledgeBase) -> Box:
    """Interval enclosure of G(x) from the knowledge base."""
    x = np.asarray(x, dtype=float)
    enc = Box(*_settled(*_unknown_G(kb, kb._point_dists(x[None])), "G"))
    pd = kb.side.partial_dynamics
    if pd is not None:
        enc = enc + pd.G_known(x)
    vb = kb.side.vf_bounds
    if vb is not None and vb.region.contains(x):
        enc = meet(enc, vb.G_range, _MEET_TOL, _PAD)
    return enc


def f_over_iv(X: Box, kb: KnowledgeBase) -> Box:
    """Inclusion-isotone interval extension of f_over to state boxes."""
    enc = Box(*_settled(*_unknown_f(kb, kb._box_dists(X)), "f"))
    pd = kb.side.partial_dynamics
    if pd is not None:
        enc = enc + pd.f_known_iv(X)
    vb = kb.side.vf_bounds
    if vb is not None and vb.region.encloses(X):
        enc = meet(enc, vb.f_range, _MEET_TOL, _PAD)
    return enc


def G_over_iv(X: Box, kb: KnowledgeBase) -> Box:
    """Inclusion-isotone interval extension of G_over to state boxes."""
    enc = Box(*_settled(*_unknown_G(kb, kb._box_dists(X)), "G"))
    pd = kb.side.partial_dynamics
    if pd is not None:
        enc = enc + pd.G_known_iv(X)
    vb = kb.side.vf_bounds
    if vb is not None and vb.region.encloses(X):
        enc = meet(enc, vb.G_range, _MEET_TOL, _PAD)
    return enc


# ---------------------------------------------------------------------------
# knowledge-base construction
# ---------------------------------------------------------------------------

def _residual_sample(s: Sample, pd: Optional[PartialDynamics]) -> Sample:
    if pd is None:
        return s
    resid = s.xdot - (pd.f_known(s.x) + pd.G_known(s.x) @ s.u)
    return Sample(s.x, resid, s.u, s.t)


def _stack(samples, n, m):
    """States, derivatives and controls of the samples as (k, n), (k, n), (k, m)."""
    k = len(samples)
    return (
        np.array([s.x for s in samples], dtype=float).reshape(k, n),
        np.array([s.xdot for s in samples], dtype=float).reshape(k, n),
        np.array([s.u for s in samples], dtype=float).reshape(k, m),
    )


def _envelopes(kb: KnowledgeBase, X):
    """Pre-settle Lipschitz envelopes of the learned part at the rows of X.

    Returns f lo/hi (k, n) and G lo/hi (k, n, m) over all entries of ``kb``,
    computed chunk by chunk along the rows.
    """
    N, n = kb.xs.shape
    k, m = X.shape[0], kb.m
    step = max(1, _CHUNK_FLOATS // (N * max(n * m, n, len(kb._groups.masks))))
    if step >= k:
        dists = kb._point_dists(X)
        return _unknown_f(kb, dists) + _unknown_G(kb, dists)
    env = (np.empty((k, n)), np.empty((k, n)), np.empty((k, n, m)), np.empty((k, n, m)))
    for a in range(0, k, step):
        dists = kb._point_dists(X[a : a + step])
        for out, part in zip(env, _unknown_f(kb, dists) + _unknown_G(kb, dists)):
            out[a : a + step] = part
    return env


def _settled_rows(side: SideInfoSet, env, X):
    """Settle the envelopes at the rows of X and apply the range bounds.

    Returns F lo/hi (k, n), G lo/hi (k, n, m) and the failure stages of the
    settles and range meets, in the order one query evaluates them.
    """
    flo, fhi, f_bad = _settle(env[0], env[1])
    glo, ghi, g_bad = _settle(env[2], env[3])
    stages = [(f_bad, "f"), (g_bad, "G")]
    vb = side.vf_bounds
    if vb is not None:
        inside = np.all((vb.region.lo <= X) & (X <= vb.region.hi), axis=1)
        fb = (vb.f_range.lo, vb.f_range.hi)
        gb = (vb.G_range.lo, vb.G_range.hi)
        pd = side.partial_dynamics
        if pd is not None:
            f_known, G_known = np.zeros(flo.shape), np.zeros(glo.shape)
            for r in np.flatnonzero(inside):
                f_known[r], G_known[r] = pd.f_known(X[r]), pd.G_known(X[r])
            fb = _out(fb[0] - f_known, fb[1] - f_known)
            gb = _out(gb[0] - G_known, gb[1] - G_known)
        sel = inside[:, None]
        lo, hi, bad = meet_arrays(flo, fhi, *fb, _MEET_TOL, _PAD)
        flo, fhi = np.where(sel, lo, flo), np.where(sel, hi, fhi)
        stages.append((bad & sel, None))
        sel = sel[:, :, None]
        lo, hi, bad = meet_arrays(glo, ghi, *gb, _MEET_TOL, _PAD)
        glo, ghi = np.where(sel, lo, glo), np.where(sel, hi, ghi)
        stages.append((bad & sel, None))
    return flo, fhi, glo, ghi, stages


def _contract_rows(kb: KnowledgeBase, env, X, XDOT, U, index):
    """Settle, bound and contract the rows of X, XDOT, U given their envelopes.

    ``index`` maps each row to its sample index.  Returns the new f and G
    rows; on failure raises what a per-sample loop would raise first, for
    the lowest failing sample.
    """
    nan = np.isnan(X).any(axis=1) | np.isnan(XDOT).any(axis=1) | np.isnan(U).any(axis=1)
    *enc, q_stages = _settled_rows(kb.side, env, X)
    *new, c_stages = _contract(XDOT, U, *enc)
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


def _seed_entry(side: SideInfoSet, samples, n, m, M) -> KnowledgeEntry:
    vb = side.vf_bounds
    pd = side.partial_dynamics
    if vb is not None:
        x0 = vb.region.mid
        CF0, CG0 = vb.f_range, vb.G_range
        if pd is not None:
            CF0 = CF0 - pd.f_known(x0)
            CG0 = CG0 - pd.G_known(x0)
    else:
        x0 = samples[0].x
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
    samples = [_residual_sample(s, pd) for s in traj]
    if not samples and side.vf_bounds is None:
        raise ValueError("need at least one sample or vector-field bounds")

    kb = KnowledgeBase(
        (_seed_entry(side, samples, qlip.n, qlip.m, M),), qlip, lip, side
    )
    X, XDOT, U = _stack(samples, qlip.n, qlip.m)
    for i in range(len(samples)):
        kb = _append(kb, X[i : i + 1], XDOT[i : i + 1], U[i : i + 1], i)
    return _iterate_to_invariance(kb, X, XDOT, U, fixpoint_tol, max_fixpoint_iters)


def _append(kb: KnowledgeBase, X, XDOT, U, first) -> KnowledgeBase:
    env = _envelopes(kb, X)
    new = _contract_rows(kb, env, X, XDOT, U, range(first, first + X.shape[0]))
    out = kb._with_rows(
        [np.concatenate((a, r)) for a, r in zip(kb._rows(), [X] + new)]
    )
    cache = kb._env
    if cache is not None and cache.inflate == get_inflate_eps():
        out._env = cache._replace(appended=cache.appended + ((env, XDOT, U),))
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


def _iterate_to_invariance(kb, X, XDOT, U, tol, max_iters) -> KnowledgeBase:
    """Jacobi passes until no endpoint moves by ``tol``, re-contracting only
    the rows that can change.

    Each pass contracts every sample against the base the previous pass
    left.  A row's envelope is a max / min over the entries, and max and
    min are exact.  So as long as no entry loosened, folding the entries
    that changed since a row's cached envelope into it gives the envelope a
    full pass would compute, bit for bit, and a row whose envelope and
    inputs did not move would contract to the row it already has.  A delta
    pass therefore re-contracts only the rows whose envelope moved or whose
    (xdot, u) differ from the cached ones.  A pass recomputes every row
    against every entry when there is no cache, when the states or the
    inflation margin differ from the cache's, when more than
    ``_DELTA_SHARE`` of the entries changed, or after a pass that loosened
    an entry.
    """
    k = X.shape[0]
    same_x = np.array_equal(X, kb.xs[1:])
    cache = kb._env
    if cache is not None and same_x and cache.inflate == get_inflate_eps():
        cache = cache.stacked()
    else:
        cache = None
    stale = None
    if cache is not None:
        stale = (XDOT != cache.xdot).any(axis=1) | (U != cache.u).any(axis=1)
    for passes in range(1, max_iters + 1):
        old = [a[1:] for a in kb._rows()[1:]]
        if cache is None or np.count_nonzero(cache.dirty) > _DELTA_SHARE * (k + 1):
            env = _envelopes(kb, X)
            rows = None
            new = _contract_rows(kb, env, X, XDOT, U, range(k))
        else:
            env = cache.rows
            moved = np.zeros(k, bool) if stale is None else stale
            changed = np.flatnonzero(cache.dirty)
            if changed.size:
                part = _envelopes(kb._with_rows([a[changed] for a in kb._rows()]), X)
                for c, p, inward in zip(env, part, (np.greater, np.less) * 2):
                    moved = moved | _any_per_row(inward(p, c))
                env = (np.maximum(env[0], part[0]), np.minimum(env[1], part[1]),
                       np.maximum(env[2], part[2]), np.minimum(env[3], part[3]))
            rows = np.flatnonzero(moved)
            new = _contract_rows(
                kb, [e[rows] for e in env], X[rows], XDOT[rows], U[rows], rows
            )
            old = [a[rows] for a in old]

        # one array of the rows' endpoint changes, lo columns (f, G) first,
        # gives the residual, the changed entries and the loosening test
        nm = kb.n * kb.m
        diff = np.concatenate((
            new[0] - old[0], (new[2] - old[2]).reshape(len(new[2]), nm),
            new[1] - old[1], (new[3] - old[3]).reshape(len(new[3]), nm),
        ), axis=1)
        change = np.abs(diff).max(axis=1, initial=0.0)
        residual = float(change.max(initial=0.0))
        dirty = np.zeros(k + 1, bool)
        if rows is None:
            xs = kb.xs if same_x else np.concatenate((kb.xs[:1], X))
            arrays = [xs] + [np.concatenate((a[:1], r)) for a, r in zip(kb._rows()[1:], new)]
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
        # they were taken against other states, when the next pass recomputes
        # every row anyway, or when an entry moved outward, which makes the
        # fold inexact
        cache = None
        if (same_x and np.count_nonzero(dirty) <= _DELTA_SHARE * (k + 1)
                and not _loosened(diff, kb.n + nm)):
            cache = _Envelopes(env, XDOT, U, get_inflate_eps(), dirty)
        kb._env = cache
        same_x, stale = True, None
        if residual < tol:
            break
    return kb


def append_sample(kb: KnowledgeBase, sample: Sample) -> KnowledgeBase:
    """Add one data point with a single query-and-contract pass.

    The incremental update leaves older entries untouched and appends one
    row to the stacked arrays, so its cost is linear in the base size.  The
    new row's envelope joins the base's cached ones, so that a later
    `rebuild` re-contracts only the rows the new entries can tighten.
    """
    s = _residual_sample(sample, kb.side.partial_dynamics)
    return _append(kb, *_stack([s], kb.n, kb.m), kb.xs.shape[0] - 1)


def rebuild(kb, samples, fixpoint_tol=1e-9, max_fixpoint_iters=50) -> KnowledgeBase:
    """Re-run the invariance passes against an externally kept list of raw samples.

    ``samples`` holds the base's samples in order, one per non-seed row.
    The passes start from the envelopes the base keeps: the first folds in
    the entries appended or changed since and re-contracts only the rows
    whose envelope moved, plus the rows whose sample's (xdot, u) differ from
    the ones they were contracted with.  Samples at other states, or a
    changed inflation margin, make the first pass recompute every row.  The
    result equals a full Jacobi re-run bit for bit, and records the pass
    count and final residual, as `build_knowledge` does.
    """
    side_samples = [_residual_sample(s, kb.side.partial_dynamics) for s in samples]
    if len(side_samples) != kb.xs.shape[0] - 1:
        raise ValueError("sample list does not match the knowledge base")
    return _iterate_to_invariance(
        kb, *_stack(side_samples, kb.n, kb.m), fixpoint_tol, max_fixpoint_iters
    )


# ---------------------------------------------------------------------------
# Jacobian interval extensions
# ---------------------------------------------------------------------------

def jacobian_extensions(
    kb: KnowledgeBase, state_box: Optional[Box] = None
) -> Tuple[Box, Box]:
    """Interval Jacobians of f and G from Lipschitz bounds and side information.

    Baseline entries are L [-1,1]; decoupling masks zero entries, gradient
    bounds intersect them, and known partial dynamics contribute their exact
    Jacobian evaluated over ``state_box``.
    """
    n, m = kb.n, kb.m
    lf, lg = kb.lip.L_f, kb.lip.L_G

    jf_hi = np.repeat(lf[:, None], n, axis=1)
    jg_hi = np.repeat(lg[:, :, None], n, axis=2)
    dec = kb.side.decoupling
    if dec is not None:
        jf_hi = np.where(dec.f_depends, jf_hi, 0.0)
        jg_hi = np.where(dec.G_depends, jg_hi, 0.0)
    jf_lo, jg_lo = -jf_hi, -jg_hi

    gb = kb.side.grad_bounds
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

    Jf = Box(jf_lo, jf_hi)
    JG = Box(jg_lo, jg_hi)
    pd = kb.side.partial_dynamics
    if pd is not None:
        if state_box is None:
            raise ValueError(
                "state_box is required when partial dynamics are declared"
            )
        Jf = pd.jac_f_known_iv(state_box) + Jf
        JG = pd.jac_G_known_iv(state_box) + JG
    return Jf, JG
