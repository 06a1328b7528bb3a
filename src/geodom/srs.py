"""Stabbing leftward rays with vertical segments, factor-2 heuristic.

Round structure: take the live ray of smallest reach, keep the extreme two
segments of its live neighbourhood, and retire every ray those two touch.
A retired ray always intersects one of the kept segments, and a chosen
ray's live neighbourhood equals its input neighbourhood, which is what the
factor-2 LP argument needs.

``solve`` reads the ints of a ``from_columns`` instance (stabbedl's
horizontal label builds its sub-instance that way) without building its
rays and segments, and ``int_coords`` of any other.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .errors import InfeasibleRayError
from .geom import IntervalStore, LiveRanks, StabInstance


class SrsInstance(StabInstance):
    """Rays to stab with segments (see ``geom.StabInstance``)."""


@dataclass(frozen=True)
class SrsRound:
    index: int
    chosen_ray: int
    neighborhood: frozenset[int]
    v_top: int
    v_bot: int
    removed_rays: frozenset[int]


@dataclass(frozen=True)
class SrsTrace:
    rounds: tuple[SrsRound, ...]
    tokens: dict[int, frozenset[int]]


def solve(inst: SrsInstance):
    """Greedy extreme-segment selection; returns (segment ids, trace).

    Runs as a sweep in O((n+m) log(n+m)).  Rays are taken in (reach, id)
    order, skipping removed ones, which is the literal "live ray of smallest
    reach".  Segments with x <= reach are activated into a stabbing store
    over ray-y ranks, so the chosen ray's live neighbourhood is one
    delete-on-report query at its rank.  Every live ray has reach >= the
    chosen reach >= the kept segments' x, so the rays they touch are the
    live ranks inside their y-ranges.
    """
    c = inst._int_columns()
    n, m = len(c.ray_id), len(c.seg_id)
    by_y = sorted(range(n), key=c.ray_y.__getitem__)
    ys = [c.ray_y[i] for i in by_y]
    rank_of = [0] * n
    for k, i in enumerate(by_y):
        rank_of[i] = k
    # y-rank window of the rays each segment can touch (empty when a > b)
    span = [(bisect_left(ys, a), bisect_right(ys, b) - 1) for a, b in zip(c.seg_lo, c.seg_hi)]
    by_x = sorted(range(m), key=c.seg_x.__getitem__)

    live = LiveRanks(n)  # y-ranks of live rays
    store = IntervalStore(n)
    tokens: dict[int, frozenset[int]] = dict.fromkeys(c.seg_id, frozenset())
    selected: set[int] = set()
    rounds: list[SrsRound] = []
    act = 0
    for i in sorted(range(n), key=lambda i: (c.reach[i], c.ray_id[i])):
        rank = rank_of[i]
        if rank not in live:
            continue
        while act < m and c.seg_x[by_x[act]] <= c.reach[i]:
            a, b = span[by_x[act]]
            if a <= b:
                store.insert(by_x[act], a, b)
            act += 1
        hood = store.stab_pop(rank)
        if not hood:
            raise InfeasibleRayError(c.ray_id[i])
        top = min(hood, key=lambda j: (-c.seg_hi[j], c.seg_id[j]))
        bot = min(hood, key=lambda j: (c.seg_lo[j], c.seg_id[j]))
        hood_ids = frozenset(c.seg_id[j] for j in hood)
        v_top, v_bot = c.seg_id[top], c.seg_id[bot]
        selected.add(v_top)
        selected.add(v_bot)
        tokens[v_top] = hood_ids
        tokens[v_bot] = hood_ids
        # filled as a set in rank order, so each removed_rays frozenset
        # iterates, and the trace prints, exactly as in earlier versions
        gone = set(live.pop_range(*span[top]) + live.pop_range(*span[bot]))
        removed = frozenset(c.ray_id[by_y[k]] for k in gone)
        rounds.append(SrsRound(len(rounds) + 1, c.ray_id[i], hood_ids, v_top, v_bot, removed))
    return selected, SrsTrace(tuple(rounds), tokens)
