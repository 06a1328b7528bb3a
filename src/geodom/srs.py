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
from .geom import StabInstance, _runs


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


class _LiveRanks:
    """Ranks 0..n-1, each live until popped, as a union-find in which a
    popped rank points at the rank above it: ``find`` is the least live
    rank at or above its argument, or n when there is none."""

    __slots__ = ("_up",)

    def __init__(self, n: int):
        self._up = list(range(n + 1))

    def __contains__(self, rank: int) -> bool:
        return self._up[rank] == rank

    def find(self, rank: int) -> int:
        up = self._up
        while up[rank] != rank:
            up[rank] = up[up[rank]]  # path halving
            rank = up[rank]
        return rank

    def pop_range(self, lo: int, hi: int) -> list[int]:
        """Pop the live ranks in [lo, hi] and return them in order."""
        out = []
        rank = self.find(lo)
        while rank <= hi:
            self._up[rank] = rank + 1
            out.append(rank)
            rank = self.find(rank + 1)
        return out


class _StabTree:
    """Segment tree over ranks 0..n-1: ``insert`` files a member in the
    nodes that tile its rank window, and ``stab`` returns the members filed
    on a rank's leaf-to-root path, which are those whose window holds it.

    Nothing is deleted.  Every node on a stab's path lies inside the window
    of each member filed there, and ``solve`` pops the whole window of each
    member it reports and stabs only live ranks, so no later stab meets a
    member already reported.
    """

    def __init__(self, n: int):
        self.n = n
        self.nodes: list[list[int]] = [[] for _ in range(2 * n)]

    def insert(self, member: int, lo: int, hi: int) -> None:
        """File ``member`` over [lo, hi]; lo > hi files nothing."""
        nodes = self.nodes
        a, b = lo + self.n, hi + self.n + 1
        while a < b:
            if a & 1:
                nodes[a].append(member)
                a += 1
            if b & 1:
                b -= 1
                nodes[b].append(member)
            a >>= 1
            b >>= 1

    def stab(self, rank: int) -> list[int]:
        nodes = self.nodes
        hits: list[int] = []
        i = rank + self.n
        while i:
            hits += nodes[i]
            i >>= 1
        return hits


def solve(inst: SrsInstance):
    """Greedy extreme-segment selection; returns (segment ids, trace).

    Runs as a sweep in O((n+m) log(n+m)) over ray ranks.  Ranks are taken
    in (reach, id) order, skipping removed ones, which is the literal "live
    ray of smallest reach".  Segments with x <= reach are activated into a
    stab tree over the ranks, so the chosen ray's live neighbourhood is one
    stab at its rank.  Every live ray has reach >= the chosen reach >= the
    kept segments' x, so the rays they touch are the live ranks inside
    their windows.

    Invariant: ``top`` has the greatest y_hi and ``bot`` the least y_lo of
    the neighbourhood, and both windows hold the chosen rank, so
    ``[seg_lo[bot], seg_hi[top]]`` is one rank range and holds the window
    of every neighbourhood segment.  One range pop removes the rays the two
    kept segments touch, and with them every window the round reported, so
    a later stab, which only ever targets a live rank, never meets a
    segment already reported (see ``_StabTree``).
    """
    c = inst._int_columns()
    n, m = len(c.ray_id), len(c.seg_id)
    order, seg_lo, seg_hi = _runs(c.ray_y, c.seg_lo, c.seg_hi)
    ray_id = [c.ray_id[i] for i in order]
    reach = [c.reach[i] for i in order]
    by_x = sorted(range(m), key=c.seg_x.__getitem__)

    live = _LiveRanks(n)
    tree = _StabTree(n)
    tokens: dict[int, frozenset[int]] = dict.fromkeys(c.seg_id, frozenset())
    selected: set[int] = set()
    rounds: list[SrsRound] = []
    act = 0
    for rank in sorted(range(n), key=lambda k: (reach[k], ray_id[k])):
        if rank not in live:
            continue
        while act < m and c.seg_x[by_x[act]] <= reach[rank]:
            j = by_x[act]
            tree.insert(j, seg_lo[j], seg_hi[j])
            act += 1
        hood = tree.stab(rank)
        if not hood:
            raise InfeasibleRayError(ray_id[rank])
        top = min(hood, key=lambda j: (-c.seg_hi[j], c.seg_id[j]))
        bot = min(hood, key=lambda j: (c.seg_lo[j], c.seg_id[j]))
        hood_ids = frozenset(c.seg_id[j] for j in hood)
        v_top, v_bot = c.seg_id[top], c.seg_id[bot]
        selected.update((v_top, v_bot))
        tokens[v_top] = tokens[v_bot] = hood_ids
        removed = frozenset(ray_id[k] for k in live.pop_range(seg_lo[bot], seg_hi[top]))
        rounds.append(SrsRound(len(rounds) + 1, ray_id[rank], hood_ids, v_top, v_bot, removed))
    return selected, SrsTrace(tuple(rounds), tokens)
