"""Stabbing vertical segments with leftward rays, factor-2 heuristic.

Two engines produce the same selection: ``solve`` follows the iteration
structure literally (and can record a token trace for property checks),
``solve_fast`` reaches the same set in O((n+m) log (n+m)) via an
event-driven sweep.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from sortedcontainers import SortedList

from .errors import InfeasibleSegmentError, InvalidInputError
from .geom import Fenwick, HRay, IntervalStore, VSeg, int_coords, intersects


@dataclass(frozen=True)
class SsrInstance:
    rays: tuple[HRay, ...]
    segments: tuple[VSeg, ...]

    def __post_init__(self):
        object.__setattr__(self, "rays", tuple(self.rays))
        object.__setattr__(self, "segments", tuple(self.segments))
        rids = [r.id for r in self.rays]
        if len(rids) != len(set(rids)):
            raise InvalidInputError("duplicate ray ids")
        sids = [s.id for s in self.segments]
        if len(sids) != len(set(sids)):
            raise InvalidInputError("duplicate segment ids")


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


class _Compressed:
    """Integer rank space for the fast engine.

    Ray ys become ranks 0..n-1; every abscissa (ray reach or segment x)
    becomes its index in the merged sorted order of distinct values, so
    all sweep comparisons are int on int with equalities preserved."""

    def __init__(self, inst: SsrInstance):
        rays, segs = inst.rays, inst.segments
        c = int_coords(rays, segs)
        order = sorted(range(len(rays)), key=c.ray_y.__getitem__)
        ys = [c.ray_y[i] for i in order]
        if any(a == b for a, b in zip(ys, ys[1:])):
            raise InvalidInputError("rays must have pairwise distinct y")
        self.ray_order = [rays[i] for i in order]
        self.rank_of = {r.id: i for i, r in enumerate(self.ray_order)}
        x_rank = {x: i for i, x in enumerate(sorted({*c.reach, *c.seg_x}))}
        self.reach_rank = {r.id: x_rank[x] for r, x in zip(rays, c.reach)}
        self.seg_x_rank = {v.id: x_rank[x] for v, x in zip(segs, c.seg_x)}
        self.seg_span = {
            v.id: (bisect_left(ys, a), bisect_right(ys, b) - 1)
            for v, a, b in zip(segs, c.seg_lo, c.seg_hi)
        }


def _initial_unique_stabbers(inst: SsrInstance, comp: _Compressed) -> list[int]:
    """Offline sweep giving, per segment, its stabber count at time zero.

    Returns the unique ray id of every count-1 segment and raises for
    count-0 segments.  Rays are inserted in decreasing reach, so when a
    segment at x is processed exactly its stabbers are present.
    """
    n = len(comp.ray_order)
    count = Fenwick(n)
    idsum = Fenwick(n)
    by_reach = sorted(inst.rays, key=lambda r: -comp.reach_rank[r.id])
    segs = sorted(inst.segments, key=lambda v: -comp.seg_x_rank[v.id])
    out = []
    ptr = 0
    for v in segs:
        xr = comp.seg_x_rank[v.id]
        while ptr < n and comp.reach_rank[by_reach[ptr].id] >= xr:
            rk = comp.rank_of[by_reach[ptr].id]
            count.add(rk, 1)
            idsum.add(rk, by_reach[ptr].id)
            ptr += 1
        a, b = comp.seg_span[v.id]
        c = count.range_sum(a, b)
        if c == 0:
            raise InfeasibleSegmentError(v.id)
        if c == 1:
            out.append(idsum.range_sum(a, b))
    return out


def _sweep_data(inst: SsrInstance) -> tuple[_Compressed, list[int]]:
    """Rank space and initial unique stabbers of ``inst``; raises when a
    segment has no stabber.

    ``normalize`` needs them for its feasibility check and leaves them on
    the instance it returns; the first ``solve_fast`` on that instance takes
    them from there instead of building them again.
    """
    handed_over = inst.__dict__.pop("_sweep_data", None)
    if handed_over is not None:
        return handed_over
    comp = _Compressed(inst)
    return comp, _initial_unique_stabbers(inst, comp)


def normalize(inst: SsrInstance) -> SsrInstance:
    """Translate into the first quadrant, split shared segment abscissas,
    and verify feasibility.

    Shifts move segments leftward by multiples of an eps smaller than a
    quarter of the least positive difference among segment x values and
    positive (segment x - ray reach) gaps, so the ray/segment intersection
    matrix is unchanged and formerly equal abscissas become distinct.
    All arithmetic runs on each axis scaled to ints; every output
    coordinate is built once, as a Fraction of two ints.
    """
    rays, segs = inst.rays, inst.segments
    if not rays and not segs:
        return inst
    c = int_coords(rays, segs)
    ly, lx = c.y_scale, c.x_scale

    # translate so the least x and the least y both become 1
    tx = lx - min(c.seg_x + c.reach)
    ty = ly - min(c.ray_y + c.seg_lo)
    out_rays = tuple(
        HRay(r.id, Fraction(y + ty, ly), Fraction(x + tx, lx))
        for r, y, x in zip(rays, c.ray_y, c.reach)
    )

    seg_xs = sorted(set(c.seg_x))
    if len(seg_xs) == len(segs):
        out_segs = tuple(
            VSeg(v.id, Fraction(x + tx, lx), Fraction(a + ty, ly), Fraction(b + ty, ly))
            for v, x, a, b in zip(segs, c.seg_x, c.seg_lo, c.seg_hi)
        )
    else:
        gaps = [b - a for a, b in zip(seg_xs, seg_xs[1:])]
        reaches = sorted(set(c.reach))
        for x in seg_xs:
            # closest ray reach strictly left of this abscissa
            j = bisect_left(reaches, x) - 1
            if j >= 0:
                gaps.append(x - reaches[j])
        # eps = min(d, 1) / den in x units, i.e. step / (lx * den) after scaling
        step = min(min(gaps), lx) if gaps else lx
        den = 4 * (len(segs) + 1)
        # segments sharing an abscissa move left by 0, eps, 2 eps, ... in id order
        taken: dict[int, int] = {}
        moved = []
        for k in sorted(range(len(segs)), key=lambda k: segs[k].id):
            x = c.seg_x[k]
            shift = taken.get(x, 0)
            taken[x] = shift + 1
            moved.append(
                VSeg(
                    segs[k].id,
                    Fraction((x + tx) * den - shift * step, lx * den),
                    Fraction(c.seg_lo[k] + ty, ly),
                    Fraction(c.seg_hi[k] + ty, ly),
                )
            )
        out_segs = tuple(moved)

    out = SsrInstance(out_rays, out_segs)
    # raises on repeated ray heights or an unstabbable segment
    object.__setattr__(out, "_sweep_data", _sweep_data(out))
    return out


def solve(inst: SsrInstance, want_trace: bool = False):
    """Literal round-by-round selection.

    Each round: rays that are now the sole live stabber of some live
    segment join the answer and their segments are removed; then the live
    ray with smallest reach hands its token to whichever y-neighbours share
    a live segment with it and disappears.
    """
    rays = {r.id: r for r in inst.rays}
    if not inst.segments:
        return set(), (TokenTrace((), (), {r: frozenset({r}) for r in rays}, ()) if want_trace else None)

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
            if want_trace:
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
            if want_trace:
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
        if want_trace:
            snapshots.append(
                TraceIteration(
                    iteration,
                    frozenset(live_rays),
                    frozenset(live_segs),
                    frozenset(selected),
                    freeze_tokens(),
                )
            )

    trace = (
        TokenTrace(tuple(snapshots), tuple(events), freeze_tokens(), tuple(selected))
        if want_trace
        else None
    )
    return set(selected), trace


class _MaxTree:
    """Range-max over ray ranks of the reach rank of already-selected rays."""

    def __init__(self, n: int):
        self.n = n
        self.val: list[Optional[int]] = [None] * (2 * n)

    def update(self, i: int, x: int) -> None:
        i += self.n
        if self.val[i] is None or self.val[i] < x:
            self.val[i] = x
            i >>= 1
            while i:
                left, right = self.val[2 * i], self.val[2 * i + 1]
                best = left if right is None or (left is not None and left >= right) else right
                if self.val[i] == best:
                    break
                self.val[i] = best
                i >>= 1

    def range_max(self, lo: int, hi: int) -> Optional[int]:
        if lo > hi:
            return None
        best = None
        lo += self.n
        hi += self.n + 1
        while lo < hi:
            if lo & 1:
                v = self.val[lo]
                if v is not None and (best is None or v > best):
                    best = v
                lo += 1
            if hi & 1:
                hi -= 1
                v = self.val[hi]
                if v is not None and (best is None or v > best):
                    best = v
            lo >>= 1
            hi >>= 1
        return best


def solve_fast(inst: SsrInstance) -> set[int]:
    """Event-driven equivalent of ``solve`` without trace support.

    Segments become relevant ("activate") once the retirement sweep reaches
    their abscissa; from then on their live stabbers are exactly the live
    ranks inside a contiguous window, so criticality shows up as the window
    collapsing to a single rank.
    """
    if not inst.segments:
        return set()
    comp, unique_rays = _sweep_data(inst)
    rank_of = comp.rank_of
    reach_rank = comp.reach_rank
    seg_x_rank = comp.seg_x_rank
    seg_span = comp.seg_span
    n = len(comp.ray_order)
    ray_at_rank = {i: r for i, r in enumerate(comp.ray_order)}

    pending: set[int] = set(unique_rays)

    by_choice = sorted(inst.rays, key=lambda r: (reach_rank[r.id], r.id))
    by_x = sorted(inst.segments, key=lambda v: (seg_x_rank[v.id], v.id))

    live = SortedList(range(n))
    dead: set[int] = set()  # ray ids
    selected: set[int] = set()
    cover = _MaxTree(n)
    store = IntervalStore(n)
    cur_lo: dict[int, int] = {}
    cur_hi: dict[int, int] = {}
    low_at: dict[int, set[int]] = {}
    high_at: dict[int, set[int]] = {}
    remaining = len(inst.segments)
    choice_ptr = 0
    act_ptr = 0

    def drop_segment(vid: int) -> None:
        nonlocal remaining
        low_at.get(cur_lo[vid], set()).discard(vid)
        high_at.get(cur_hi[vid], set()).discard(vid)
        store.remove(vid)
        remaining -= 1

    def retire_ray(rank: int) -> None:
        """Remove a live rank, shifting the windows it bounded."""
        pos = live.index(rank)
        below = live[pos - 1] if pos > 0 else None
        above = live[pos + 1] if pos + 1 < len(live) else None
        live.remove(rank)
        for vid in low_at.pop(rank, set()):
            cur_lo[vid] = above  # above exists: the window still holds its hi
            low_at.setdefault(above, set()).add(vid)
            if above == cur_hi[vid]:
                pending.add(ray_at_rank[above].id)
        for vid in high_at.pop(rank, set()):
            cur_hi[vid] = below
            high_at.setdefault(below, set()).add(vid)
            if below == cur_lo[vid]:
                pending.add(ray_at_rank[below].id)

    while remaining > 0:
        if pending:
            batch = sorted(pending)
            pending.clear()
            for u in batch:
                if u in selected or u in dead:
                    continue
                selected.add(u)
                dead.add(u)
                rk = rank_of[u]
                cover.update(rk, reach_rank[u])
                for vid in store.stab_pop(rk):
                    drop_segment(vid)
                retire_ray(rk)
            if remaining == 0:
                break
            if pending:
                # a selection collapsed another window; its ray must be taken
                # before the sweep is allowed to retire anything
                continue
        # pick the live unselected ray with smallest (reach, id)
        while choice_ptr < len(by_choice) and by_choice[choice_ptr].id in dead:
            choice_ptr += 1
        if choice_ptr == len(by_choice):
            # all rays spent; segments the sweep never reached can still be
            # covered by selected rays taken out of reach order
            while act_ptr < len(by_x):
                v = by_x[act_ptr]
                a, b = seg_span[v.id]
                best = cover.range_max(a, b) if a <= b else None
                if best is None or best < seg_x_rank[v.id]:
                    raise InfeasibleSegmentError(v.id)
                act_ptr += 1
                remaining -= 1
            break
        chosen = by_choice[choice_ptr]
        choice_ptr += 1
        reach = reach_rank[chosen.id]
        # activate every segment whose abscissa the sweep has reached
        while act_ptr < len(by_x) and seg_x_rank[by_x[act_ptr].id] <= reach:
            v = by_x[act_ptr]
            act_ptr += 1
            a, b = seg_span[v.id]
            best = cover.range_max(a, b)
            if best is not None and best >= seg_x_rank[v.id]:
                remaining -= 1  # already stabbed by a selected ray
                continue
            lo_pos = live.bisect_left(a)
            lo = live[lo_pos]
            hi_pos = live.bisect_right(b) - 1
            hi = live[hi_pos]
            cur_lo[v.id] = lo
            cur_hi[v.id] = hi
            low_at.setdefault(lo, set()).add(v.id)
            high_at.setdefault(hi, set()).add(v.id)
            store.insert(v.id, lo, hi)
        dead.add(chosen.id)
        retire_ray(rank_of[chosen.id])
    return selected
