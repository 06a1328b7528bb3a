"""Stabbing leftward rays with vertical segments, factor-2 heuristic.

Round structure: take the live ray of smallest reach, keep the extreme two
segments of its live neighbourhood, and retire every ray those two touch.
A retired ray always intersects one of the kept segments, and a chosen
ray's live neighbourhood equals its input neighbourhood, which is what the
factor-2 LP argument needs.

``solve`` works on ray ranks (``geom._runs``: rays by height, and each
segment's run of ranks) and reads the ints of a ``from_columns`` instance
(stabbedl's horizontal label builds its sub-instance that way) without
building its rays and segments, and ``int_coords`` of any other.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InfeasibleRayError
from .geom import IntervalStore, LiveRanks, StabInstance, _runs


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

    Runs as a sweep in O((n+m) log(n+m)) over ray ranks.  Ranks are taken
    in (reach, id) order, skipping removed ones, which is the literal "live
    ray of smallest reach".  Segments with x <= reach are activated into a
    stabbing store over the ranks, so the chosen ray's live neighbourhood
    is one delete-on-report query at its rank.  Every live ray has reach >=
    the chosen reach >= the kept segments' x, so the rays they touch are
    the live ranks inside their windows.
    """
    c = inst._int_columns()
    n, m = len(c.ray_id), len(c.seg_id)
    order, seg_lo, seg_hi = _runs(c.ray_y, c.seg_lo, c.seg_hi)
    ray_id = [c.ray_id[i] for i in order]
    reach = [c.reach[i] for i in order]
    by_x = sorted(range(m), key=c.seg_x.__getitem__)

    live = LiveRanks(n)
    store = IntervalStore(n)
    tokens: dict[int, frozenset[int]] = dict.fromkeys(c.seg_id, frozenset())
    selected: set[int] = set()
    rounds: list[SrsRound] = []
    act = 0
    for rank in sorted(range(n), key=lambda k: (reach[k], ray_id[k])):
        if rank not in live:
            continue
        while act < m and c.seg_x[by_x[act]] <= reach[rank]:
            j = by_x[act]
            if seg_lo[j] <= seg_hi[j]:
                store.insert(j, seg_lo[j], seg_hi[j])
            act += 1
        hood = store.stab_pop(rank)
        if not hood:
            raise InfeasibleRayError(ray_id[rank])
        top = min(hood, key=lambda j: (-c.seg_hi[j], c.seg_id[j]))
        bot = min(hood, key=lambda j: (c.seg_lo[j], c.seg_id[j]))
        hood_ids = frozenset(c.seg_id[j] for j in hood)
        v_top, v_bot = c.seg_id[top], c.seg_id[bot]
        selected.update((v_top, v_bot))
        tokens[v_top] = tokens[v_bot] = hood_ids
        gone = live.pop_range(seg_lo[top], seg_hi[top]) + live.pop_range(seg_lo[bot], seg_hi[bot])
        removed = frozenset(ray_id[k] for k in gone)
        rounds.append(SrsRound(len(rounds) + 1, ray_id[rank], hood_ids, v_top, v_bot, removed))
    return selected, SrsTrace(tuple(rounds), tokens)
