"""Stabbing vertical segments with leftward rays, factor-2 heuristic.

Two engines produce the same selection: ``solve`` follows the iteration
structure literally (and can record a token trace for property checks),
``solve_fast`` reaches the same set in O((n+m) log (n+m)) via an
event-driven sweep.

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

The fast path works on flat int lists indexed by ray rank (rays in y
order) or by segment index, held in a ``_Compressed``: ray ids and
reaches per rank, abscissa and rank span (its ``geom._runs`` run) per
segment, and the rays that alone stab some segment at the start, found
by sparse-table range maxima.
Abscissas and reaches stay the columns' ints, unranked.  ``normalize``
builds these from its unsplit int columns and hands them to the first
``solve_fast`` on the instance it returns.  The sweep keeps its live
ranks in a ``geom.LiveRanks`` (linked neighbours plus a "next live rank"
union-find), its windows in per-rank linked lists and its active segments
in a lazy-deletion ``geom.IntervalStore``.  A selection covers every
active segment whose window holds its rank and then only removes the
rank; the sweep's retirement of the live ray with smallest reach is the
one step that shifts windows.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import InfeasibleSegmentError, InvalidInputError
from .geom import IntervalStore, LiveRanks, StabColumns, StabInstance, _runs, intersects


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
    abscissas, ray reaches and segment xs, stay the instance's ints, so
    every sweep comparison is int on int with all ties kept.  Segment lists
    follow the instance's order; a segment whose y-range holds no ray
    height has ``seg_lo > seg_hi``.
    """

    ray_id: list[int]  # rank -> ray id
    reach: list[int]  # rank -> the ray's reach
    seg_id: list[int]
    seg_x: list[int]
    seg_lo: list[int]  # segment -> least rank with y >= y_lo
    seg_hi: list[int]  # segment -> greatest rank with y <= y_hi
    unique: list[int]  # per segment with one stabber, its rank (may repeat)


def _initial_unique_stabbers(
    reach: list[int], seg_id: list[int], seg_x: list[int], seg_lo: list[int], seg_hi: list[int]
) -> list[int]:
    """Ranks of the rays that alone stab some segment at time zero.

    Rank r holds the key ``reach[r] * n + r``, so the greatest key over a
    span holds the greatest reach there (``key // n``) and its rank
    (``key % n``).  Span maxima take two lookups in a sparse table whose
    level k holds the maximum of every 2**k consecutive keys, built up to
    the widest span.  A segment at x has a stabber when the top of its span
    reaches x, and exactly one when both sides of that top stay below x.
    Raises for the first stabberless segment in (decreasing x, input order).
    """
    n = len(reach)
    none = min(seg_x, default=0) * n - 1  # below every key a segment accepts
    widest = max([b - a + 1 for a, b in zip(seg_lo, seg_hi)], default=0)
    levels = [[r * n + k for k, r in enumerate(reach)]]
    while 2 ** len(levels) <= widest:
        row, w = levels[-1], 2 ** (len(levels) - 1)
        levels.append([a if a > b else b for a, b in zip(row, row[w:])])

    def span_max(a: int, b: int) -> int:
        if a > b:
            return none
        k = (b - a + 1).bit_length() - 1
        row = levels[k]
        s, t = row[a], row[b + 1 - (1 << k)]
        return s if s > t else t

    out = []
    missing = []  # segments with no stabber
    for j, (x, a, b) in enumerate(zip(seg_x, seg_lo, seg_hi)):
        top = span_max(a, b)
        floor = x * n  # keys below it have reach < x
        if top < floor:
            missing.append(j)
        else:
            r = top % n
            if span_max(a, r - 1) < floor and span_max(r + 1, b) < floor:
                out.append(r)
    if missing:
        # min keeps the first of equal keys, so input order breaks x ties
        raise InfeasibleSegmentError(seg_id[min(missing, key=lambda j: -seg_x[j])])
    return out


def _compress(c: StabColumns) -> _Compressed:
    """Rank space of int columns.  Ranks depend only on the y order, and
    every x comparison is within the x axis, so shifts and scales are
    ignored (and x values may be any keys with the abscissas' order and
    ties).  Raises on repeated ray heights or a segment with no stabber."""
    ray_id, ray_y, reach = c.ray_id, c.ray_y, c.reach
    if len(set(ray_y)) != len(ray_y):
        raise InvalidInputError("rays must have pairwise distinct y")
    order, seg_lo, seg_hi = _runs(ray_y, c.seg_lo, c.seg_hi)
    reach = [reach[i] for i in order]
    unique = _initial_unique_stabbers(reach, c.seg_id, c.seg_x, seg_lo, seg_hi)
    return _Compressed([ray_id[i] for i in order], reach, c.seg_id, c.seg_x, seg_lo, seg_hi, unique)


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
    has the same intersection matrix and abscissa order, ties apart, and
    puts tied segments in id order as the split does; the instance carries
    it, and the first ``solve_fast`` on it takes it off instead of building
    it again.  It is not a field, so it does not change ``==``, hash or
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
        # the split moves tied segments in id order, and a raise names the
        # first stabberless one in list order among tied abscissas
        by_id = sorted(range(len(seg_ids)), key=seg_ids.__getitem__)
        columns = columns._replace(
            seg_id=[seg_ids[k] for k in by_id], seg_x=[c.seg_x[k] for k in by_id],
            seg_lo=[c.seg_lo[k] for k in by_id], seg_hi=[c.seg_hi[k] for k in by_id],
            split_x=True,
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
    """Event-driven equivalent of ``solve`` without trace support.

    Segments become relevant ("activate") once the retirement sweep reaches
    their abscissa; from then on their live stabbers are exactly the live
    ranks inside a contiguous window, so criticality shows up as the window
    collapsing to a single rank.

    All state is flat lists indexed by rank or segment index: the live
    ranks are a ``geom.LiveRanks`` (linked ``prev``/``next`` plus a
    "next live rank" union-find), so a window over the rank span [a, b] is
    ``lo = find(a)``, ``hi = prev[find(b + 1)]``.  The segments whose window
    starts (ends) at a rank form a linked list through ``lo_head``/``lo_link``
    (``hi_head``/``hi_link``); a covered segment stays in its lists and is
    skipped when their rank retires.  Selecting a rank covers every active
    segment whose window holds it and only removes the rank, so no window
    shifts; the sweep's retirement is the one step that shifts windows, and
    the ranks whose windows it collapses are selected before the next one.

    The rank space comes from ``normalize`` when ``inst`` is the instance it
    returned and this is the first call on it, with the shared-abscissa
    split still pending; otherwise it is built here, from the columns of a
    ``from_columns`` instance or from ``int_coords``.  Neither way reads
    ``inst.rays`` or ``inst.segments`` of a columns instance, so its
    coordinates stay unbuilt.
    """
    comp = inst.__dict__.pop("_sweep_data", None)
    if comp is None:
        columns = inst._int_columns()
        comp = _compress(columns) if columns.seg_id else None
    if comp is None or not comp.seg_id:
        return set()
    ray_id, reach, seg_id, seg_x, seg_lo, seg_hi, unique = comp
    n, m = len(ray_id), len(seg_id)

    # stable sorts: by (reach, id); by x, as segments sharing an abscissa
    # activate in one step, in any order
    by_choice = sorted(sorted(range(n), key=ray_id.__getitem__), key=reach.__getitem__)
    by_x = sorted(range(m), key=seg_x.__getitem__)

    live = LiveRanks(n)
    prev, nxt, find = live.prev, live.next, live.find
    selected: set[int] = set()
    cover = _MaxTree(n, min(seg_x) - 1)
    store = IntervalStore(n)
    cur_lo = [-1] * m  # -1 once the segment is covered
    cur_hi = [-1] * m
    # segments whose window starts (ends) at a rank, as singly linked lists:
    # head per rank, link per segment, -1 ends a list
    lo_head = [-1] * n
    lo_link = [-1] * m
    hi_head = [-1] * n
    hi_link = [-1] * m
    pending = set(unique)  # ranks
    remaining = m
    choice = 0
    act = 0

    while remaining > 0:
        # a pending rank is live, so it lies inside every active window it
        # bounds and stab_pop covers those segments before it leaves: taking
        # it shifts no window and collapses none, and a batch's picks commute
        for rank in pending:
            selected.add(ray_id[rank])
            cover.update(rank, reach[rank])
            for j in store.stab_pop(rank):
                cur_lo[j] = cur_hi[j] = -1
                remaining -= 1
            live.remove(rank)
        pending.clear()
        if remaining == 0:
            break
        # pick the live unselected ray with smallest (reach, id)
        while choice < n and by_choice[choice] not in live:
            choice += 1
        if choice == n:
            # a segment activates before any ray that reaches it retires, so
            # one the sweep never reached has only selected stabbers (and
            # _compress raised if it had none)
            break
        chosen = by_choice[choice]
        choice += 1
        x = reach[chosen]
        # activate every segment whose abscissa the sweep has reached
        while act < m and seg_x[by_x[act]] <= x:
            j = by_x[act]
            act += 1
            a, b = seg_lo[j], seg_hi[j]
            if cover.range_max(a, b) >= seg_x[j]:
                remaining -= 1  # already stabbed by a selected ray
                continue
            lo, hi = find(a), prev[find(b + 1)]
            cur_lo[j] = lo
            cur_hi[j] = hi
            lo_link[j] = lo_head[lo]
            lo_head[lo] = j
            hi_link[j] = hi_head[hi]
            hi_head[hi] = j
            store.insert(j, lo, hi)
        # retire the chosen rank, shifting the windows it bounds
        below, above = prev[chosen], nxt[chosen]
        live.remove(chosen)
        j = lo_head[chosen]
        while j >= 0:
            k = lo_link[j]
            if cur_lo[j] == chosen:
                cur_lo[j] = above  # above exists: the window still holds its hi
                lo_link[j] = lo_head[above]
                lo_head[above] = j
                if above == cur_hi[j]:
                    pending.add(above)
            j = k
        j = hi_head[chosen]
        while j >= 0:
            k = hi_link[j]
            if cur_hi[j] == chosen:
                cur_hi[j] = below
                hi_link[j] = hi_head[below]
                hi_head[below] = j
                if below == cur_lo[j]:
                    pending.add(below)
            j = k
    return selected
