"""Stabbing vertical segments with leftward rays, factor-2 heuristic.

Two engines produce the same selection: ``solve`` follows the iteration
structure literally (and can record a token trace for property checks),
``solve_fast`` reaches the same set in O((n+m) log (n+m)) from a static
query per segment and one pass over the segments.

``normalize`` works on each axis scaled to ints and returns an instance
that keeps those int columns: its shared-abscissa split, its ``Fraction``
coordinates and its ``HRay``/``VSeg`` objects are built only when someone
reads ``rays``, ``segments`` or the columns, so
``solve_fast(normalize(inst))`` builds none of them.
Sub-instances travel the same way: ``normalize`` and ``solve_fast`` read
the columns of a ``from_columns`` instance directly (every step compares
within one axis, so any shift and scale will do).  ``solve_fast`` picks
the same rays with or without ``normalize``, so the pipelines' per-label
sub-problems (psd's strip boundaries, stabbedl's vertical label) go to it
raw, as columns with segments in id order: solving them builds no
coordinates and no second instance.

The fast engine rests on one observation.  ``solve`` retires rays in
(reach, id) order, so a segment no selected ray covers collapses onto the
last of its stabbers in that order exactly when the second-last one
retires: every earlier stabber has retired by then, as a selected one
would already cover it.  The two are found up front, per segment, by
sparse-table range maxima over ray ranks (rays in y order), each
segment's stabbers being the ranks of its ``geom._runs`` run that reach
its x.  ``solve_fast`` then takes the segments in the order their
second-last stabbers retire and selects the last stabber of every one
that no selected ray covers yet.  These lists live in a ``_Compressed``;
abscissas and reaches stay the columns' ints, and the engine compares an
abscissa only with reaches.  ``normalize`` builds it from its unsplit int
columns and hands it to the first ``solve_fast`` on the instance it
returns.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import InfeasibleSegmentError, InvalidInputError
from .geom import StabColumns, StabInstance, _runs, intersects


class SsrInstance(StabInstance):
    """Segments to stab with rays (see ``geom.StabInstance``)."""


@dataclass(frozen=True)
class CriticalEvent:
    """One ray entering the answer, with the state needed to audit it.

    ``witness`` is the segment that forced the selection (smallest id among
    those the ray uniquely stabs).  ``other_tokens`` maps every *input* ray
    intersecting the witness, other than the selected one, to its token at
    that moment.
    """

    iteration: int
    ray: int
    witness: int
    ray_token: frozenset[int]
    witness_input_stabbers: frozenset[int]
    other_tokens: dict[int, frozenset[int]]


@dataclass(frozen=True)
class TraceIteration:
    index: int
    live_rays: frozenset[int]
    live_segments: frozenset[int]
    selected: frozenset[int]
    tokens: dict[int, frozenset[int]]


@dataclass(frozen=True)
class TokenTrace:
    iterations: tuple[TraceIteration, ...]
    events: tuple[CriticalEvent, ...]
    final_tokens: dict[int, frozenset[int]]
    selected: tuple[int, ...]


class _Compressed(NamedTuple):
    """Flat rank space of an instance for the fast engine.

    Rays are numbered 0..n-1 by increasing y (their "ranks"), and each
    segment's ``seg_lo``..``seg_hi`` is its ``geom._runs`` run of ranks;
    abscissas and reaches stay the instance's ints.  A segment's stabbers
    are the ranks of its run that reach its x.  Per segment, ``top`` is the
    rank of its last stabber in (reach, id) order and ``second`` the
    position in that order of its second-last one, or -1 when it has only
    one.  Segment lists follow the instance's order.
    """

    ray_id: list[int]  # rank -> ray id
    reach: list[int]  # rank -> the ray's reach
    seg_x: list[int]
    seg_lo: list[int]  # segment -> least rank with y >= y_lo
    seg_hi: list[int]  # segment -> greatest rank with y <= y_hi
    top: list[int]  # segment -> rank of its last stabber
    second: list[int]  # segment -> position of its second-last stabber, or -1


def _last_two_stabbers(
    ray_id: list[int], reach: list[int], seg_id: list[int], seg_x: list[int],
    seg_lo: list[int], seg_hi: list[int],
) -> tuple[list[int], list[int]]:
    """``(top, second)`` of ``_Compressed`` for rays given by rank.

    Rank r holds the key p, its position in (reach, id) order, so the
    greatest key over a span is the span's last ray in that order, and the
    rays of the span that reach x are its keys from the first position
    whose reach is >= x.  Span maxima take two lookups in a sparse table
    whose level k holds the maximum of every 2**k consecutive keys, built
    up to the widest span; the second-last stabber is the greater of the
    maxima on either side of the top.  Raises for the first stabberless
    segment in (decreasing x, input order).
    """
    n = len(reach)
    by_choice = sorted(sorted(range(n), key=ray_id.__getitem__), key=reach.__getitem__)
    pos = [0] * n
    for p, r in enumerate(by_choice):
        pos[r] = p
    # reach by position; key -1 (an empty span) reads the end, below every x
    reach_at = [reach[r] for r in by_choice] + [min(seg_x, default=0) - 1]
    widest = max([b - a + 1 for a, b in zip(seg_lo, seg_hi)], default=0)
    levels = [pos]
    while 2 ** len(levels) <= widest:
        row, w = levels[-1], 2 ** (len(levels) - 1)
        levels.append([a if a > b else b for a, b in zip(row, row[w:])])

    def span_max(a: int, b: int) -> int:
        if a > b:
            return -1
        k = (b - a + 1).bit_length() - 1
        row = levels[k]
        s, t = row[a], row[b + 1 - (1 << k)]
        return s if s > t else t

    top, second = [], []
    missing = []  # segments with no stabber
    for j, (x, a, b) in enumerate(zip(seg_x, seg_lo, seg_hi)):
        t = span_max(a, b)
        if reach_at[t] < x:
            missing.append(j)
            continue
        r = by_choice[t]
        s, u = span_max(a, r - 1), span_max(r + 1, b)
        if u > s:
            s = u
        top.append(r)
        second.append(s if reach_at[s] >= x else -1)
    if missing:
        # min keeps the first of equal keys, so input order breaks x ties
        raise InfeasibleSegmentError(seg_id[min(missing, key=lambda j: -seg_x[j])])
    return top, second


def _compress(c: StabColumns) -> _Compressed:
    """Rank space of int columns.  Ranks depend only on the y order, and
    every x comparison is of a segment's x with a reach, so shifts and
    scales are ignored.  Raises on repeated ray heights or a segment with
    no stabber."""
    ray_y = c.ray_y
    if len(set(ray_y)) != len(ray_y):
        raise InvalidInputError("rays must have pairwise distinct y")
    order, seg_lo, seg_hi = _runs(ray_y, c.seg_lo, c.seg_hi)
    ray_id = [c.ray_id[i] for i in order]
    reach = [c.reach[i] for i in order]
    top, second = _last_two_stabbers(ray_id, reach, c.seg_id, c.seg_x, seg_lo, seg_hi)
    return _Compressed(ray_id, reach, c.seg_x, seg_lo, seg_hi, top, second)


def normalize(inst: SsrInstance) -> SsrInstance:
    """Translate into the first quadrant, split shared segment abscissas,
    and verify feasibility.

    The split (``geom.split_shared_x``) lists the segments in id order and
    moves those that share an abscissa leftward by multiples of an eps
    small enough that the ray/segment intersection matrix is unchanged and
    formerly equal abscissas become distinct.  All arithmetic runs on each
    axis scaled to ints: a ``from_columns`` instance's own columns,
    whatever their shift and scale (the output is translated afresh), or
    else ``int_coords`` of its fields.

    The returned instance keeps those ints (``geom.StabColumns``), with the
    segments in id order when some share an abscissa and the split left
    pending (``split_x``).  The split and the output's ``rays`` and
    ``segments`` are built on the first read of the fields, ``==``, hash,
    repr or ``_int_columns``, with each distinct output coordinate as one
    Fraction of two ints; a caller that only solves never pays for them.
    The feasibility check builds the rank space of the unsplit ints, which
    has the same intersection matrix (all the fast engine reads) and puts
    tied segments in id order as the split does; the instance carries it,
    and the first ``solve_fast`` on it takes it off instead of building it
    again.  It is not a field, so it does not change ``==``, hash or
    repr.
    """
    c = inst._int_columns()
    if not c.ray_id and not c.seg_id:
        return inst
    # translate so the least x and the least y both become 1
    columns = c._replace(
        y_shift=c.y_scale - min(c.ray_y + c.seg_lo), x_shift=c.x_scale - min(c.seg_x + c.reach)
    )
    seg_ids = c.seg_id
    if len(set(c.seg_x)) != len(seg_ids):
        columns = columns._replace(split_x=True)
        # the split moves tied segments in id order, and a raise names the
        # first stabberless one in list order among tied abscissas
        if seg_ids != sorted(seg_ids):
            by_id = sorted(range(len(seg_ids)), key=seg_ids.__getitem__)
            columns = columns._replace(
                seg_id=[seg_ids[k] for k in by_id], seg_x=[c.seg_x[k] for k in by_id],
                seg_lo=[c.seg_lo[k] for k in by_id], seg_hi=[c.seg_hi[k] for k in by_id],
            )
    # raises on repeated ray heights or an unstabbable segment
    comp = _compress(columns)
    out = SsrInstance.from_columns(columns)
    object.__setattr__(out, "_sweep_data", comp)
    return out


def solve(inst: SsrInstance):
    """Literal round-by-round selection, returned with its ``TokenTrace``.

    Each round: rays that are now the sole live stabber of some live
    segment join the answer and their segments are removed; then the live
    ray with smallest reach hands its token to whichever y-neighbours share
    a live segment with it and disappears.
    """
    rays = {r.id: r for r in inst.rays}
    segs = {v.id: v for v in inst.segments}
    input_stabbers = {
        v.id: frozenset(r.id for r in inst.rays if intersects(r, v)) for v in inst.segments
    }
    tokens: dict[int, set[int]] = {rid: {rid} for rid in rays}
    live_rays = dict(rays)  # selected rays leave this immediately
    live_segs = dict(segs)
    selected: list[int] = []
    events: list[CriticalEvent] = []
    snapshots: list[TraceIteration] = []
    iteration = 0

    def freeze_tokens():
        return {rid: frozenset(t) for rid, t in tokens.items()}

    while live_segs:
        iteration += 1
        # (a) collect every ray that is the unique live stabber of a live segment
        witness_of: dict[int, int] = {}
        for vid in sorted(live_segs):
            v = live_segs[vid]
            stab = [rid for rid, r in live_rays.items() if intersects(r, v)]
            if not stab:
                raise InfeasibleSegmentError(vid)
            if len(stab) == 1:
                witness_of.setdefault(stab[0], vid)
        new_criticals = sorted(witness_of)
        for u in new_criticals:
            w = witness_of[u]
            events.append(
                CriticalEvent(
                    iteration=iteration,
                    ray=u,
                    witness=w,
                    ray_token=frozenset(tokens[u]),
                    witness_input_stabbers=input_stabbers[w],
                    other_tokens={
                        x: frozenset(tokens[x]) for x in input_stabbers[w] if x != u
                    },
                )
            )
            selected.append(u)
        # (b) their segments are covered; the rays leave the live pool with
        # their tokens frozen in place
        for u in new_criticals:
            r = rays[u]
            for vid in [vid for vid, v in live_segs.items() if intersects(r, v)]:
                del live_segs[vid]
            del live_rays[u]
        if not live_segs:
            snapshots.append(
                TraceIteration(
                    iteration,
                    frozenset(live_rays),
                    frozenset(),
                    frozenset(selected),
                    freeze_tokens(),
                )
            )
            break
        # (c) retire the live ray with smallest reach, passing its token to
        # any y-neighbour that shares a live segment with it
        c = min(live_rays.values(), key=lambda r: (r.x_right, r.id))
        by_y = sorted(live_rays.values(), key=lambda r: r.y)
        pos = by_y.index(c)
        below = by_y[pos - 1] if pos > 0 else None
        above = by_y[pos + 1] if pos + 1 < len(by_y) else None
        for x in sorted(tokens[c.id]):
            xr = rays[x]
            for nb in (above, below):
                if nb is None:
                    continue
                if any(
                    intersects(v, xr) and intersects(v, nb) and intersects(v, c)
                    for v in live_segs.values()
                ):
                    tokens[nb.id].add(x)
        tokens[c.id] = set()
        del live_rays[c.id]
        snapshots.append(
            TraceIteration(
                iteration,
                frozenset(live_rays),
                frozenset(live_segs),
                frozenset(selected),
                freeze_tokens(),
            )
        )

    return set(selected), TokenTrace(tuple(snapshots), tuple(events), freeze_tokens(), tuple(selected))


class _MaxTree:
    """Range-max over ray ranks of the reach of already-selected rays;
    ``none`` where no ray is selected."""

    def __init__(self, n: int, none: int):
        self.n = n
        self.none = none
        self.val = [none] * (2 * n)

    def update(self, i: int, x: int) -> None:
        # values only grow, so an ancestor already >= x stops the climb
        val = self.val
        i += self.n
        while i and val[i] < x:
            val[i] = x
            i >>= 1

    def range_max(self, lo: int, hi: int) -> int:
        val = self.val
        best = self.none
        lo += self.n
        hi += self.n + 1
        while lo < hi:
            if lo & 1:
                if val[lo] > best:
                    best = val[lo]
                lo += 1
            if hi & 1:
                hi -= 1
                if val[hi] > best:
                    best = val[hi]
            lo >>= 1
            hi >>= 1
        return best


def solve_fast(inst: SsrInstance) -> set[int]:
    """The selection of ``solve``, without its trace, in one pass over the
    segments in the order their second-last stabbers retire.

    ``solve`` retires rays in (reach, id) order, so a segment that is not
    yet covered collapses onto its last stabber (``top``) exactly when its
    second-last one (``second``) retires: every earlier stabber has retired
    by then, as a selected one would already cover it.  A segment with one
    stabber collapses before the first retirement.  So the selection is
    every ``top`` whose segment no selected ray covers when it fires; the
    loop takes the segments by ``second`` and checks that with a range
    maximum of selected reaches over the segment's run.  Within one
    retirement the order does not matter: a ray picked there that stabs
    another segment filed under it is that segment's ``top``, later in
    (reach, id) order than the retiring ray.

    The rank space comes from ``normalize`` when ``inst`` is the instance it
    returned and this is the first call on it, with the shared-abscissa
    split still pending (the engine compares abscissas only with reaches,
    so the split changes nothing here); otherwise it is built here, from
    the columns of a ``from_columns`` instance or from ``int_coords``.
    Neither way reads ``inst.rays`` or ``inst.segments`` of a columns
    instance, so its coordinates stay unbuilt.
    """
    comp = inst.__dict__.pop("_sweep_data", None)
    if comp is None:
        columns = inst._int_columns()
        comp = _compress(columns) if columns.seg_id else None
    if comp is None or not comp.top:
        return set()
    ray_id, reach, seg_x, seg_lo, seg_hi, top, second = comp
    n = len(ray_id)
    picked = [False] * n
    cover = _MaxTree(n, min(seg_x) - 1)
    # -1 first: segments with one stabber fire before any retirement
    for j in sorted(range(len(top)), key=second.__getitem__):
        r = top[j]
        # a picked top covers the segment already, without a range maximum
        if not picked[r] and cover.range_max(seg_lo[j], seg_hi[j]) < seg_x[j]:
            picked[r] = True
            cover.update(r, reach[r])
    return {ray_id[r] for r in range(n) if picked[r]}
