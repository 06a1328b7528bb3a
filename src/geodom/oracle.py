"""Exact brute-force baselines for domination and stabbing at desk scale.

``cover_rows`` gives every kind's constraint -> candidates rows in ids,
read off the geometry code that finds contacts, and one bitmask set-cover
engine searches them.  It uses no heuristic's selection and is independent
of the LP-based branch-and-bound in ``lp``, so the exact routes can certify
each other in tests.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Optional

from . import instances, psd, stabbedl, uvpg
from .errors import InvalidInputError, SizeCapExceededError
from .geom import OrthoInstance, int_coords, int_segs
from .srs import SrsInstance
from .ssr import SsrInstance

DEFAULT_CAP = 16


def _resolve_cap(cap: Optional[int]) -> int:
    if cap is None:
        return DEFAULT_CAP
    if cap < 0:
        raise InvalidInputError(f"cap must be nonnegative, got {cap}")
    return cap


@dataclass(frozen=True)
class AbstractGraph:
    """Finite graph given by closed neighborhoods (every vertex in its own)."""

    n: int
    closed: tuple[frozenset[int], ...]

    def __post_init__(self):
        object.__setattr__(self, "closed", tuple(frozenset(s) for s in self.closed))
        if len(self.closed) != self.n:
            raise InvalidInputError("need one neighborhood per vertex")
        for u, nbrs in enumerate(self.closed):
            if u not in nbrs:
                raise InvalidInputError(f"vertex {u} missing from its neighborhood")
            for v in nbrs:
                if not (0 <= v < self.n):
                    raise InvalidInputError(f"vertex id {v} out of range")
                if u not in self.closed[v]:
                    raise InvalidInputError(f"adjacency not symmetric on ({u}, {v})")


def _min_cover(ids, rows) -> set[int]:
    """Smallest subset of ``ids`` meeting every row, where a row holds the
    ids of the candidates meeting one constraint.

    Iterative deepening on cardinality over constraint bitmasks; branches
    on the lowest uncovered constraint and tries its candidates in ``ids``
    order, so completeness is immediate.  Callers guarantee that no row is
    empty and that every row holds only ids from ``ids``.
    """
    if not rows:
        return set()
    full = (1 << len(rows)) - 1
    meets: dict[int, list[int]] = {c: [] for c in ids}
    for b, row in enumerate(rows):
        for c in row:
            meets[c].append(b)
    covers_bit: list[list[tuple[int, int]]] = [[] for _ in rows]
    for c, bits in meets.items():
        mask = sum(1 << b for b in bits)
        for b in bits:
            covers_bit[b].append((c, mask))
    max_gain = max(map(len, meets.values()))

    def dfs(covered: int, budget: int, chosen: list[int]) -> Optional[list[int]]:
        if covered == full:
            return chosen
        missing = (full & ~covered).bit_count()
        if budget == 0 or missing > budget * max_gain:
            return None
        low = ((full & ~covered) & -(full & ~covered)).bit_length() - 1
        for cid, mask in covers_bit[low]:
            got = dfs(covered | mask, budget - 1, chosen + [cid])
            if got is not None:
                return got
        return None

    lower = -(-len(rows) // max_gain)
    for budget in range(lower, len(meets) + 1):
        got = dfs(0, budget, [])
        if got is not None:
            return set(got)
    raise InvalidInputError("cover search exhausted on a feasible input")


def exact_mds(g: AbstractGraph, cap: Optional[int] = None) -> set[int]:
    """A minimum dominating set, by exhaustive cardinality-ordered search."""
    limit = _resolve_cap(cap)
    if g.n > limit:
        raise SizeCapExceededError(f"graph has {g.n} vertices, cap is {limit}")
    return _min_cover(range(g.n), g.closed)


def _ray_rows(inst) -> list[list[int]]:
    """Per segment, the ids of the rays meeting it: one bisection of its
    y-span over the rays sorted by height, then a reach test, all on
    ``int_coords`` ints."""
    c = int_coords(inst.rays, inst.segments)
    by_y = sorted(range(len(c.ray_y)), key=c.ray_y.__getitem__)
    ys = sorted(c.ray_y)
    return [
        [c.ray_id[r] for r in by_y[bisect_left(ys, lo):bisect_right(ys, hi)] if c.reach[r] >= x]
        for x, lo, hi in zip(c.seg_x, c.seg_lo, c.seg_hi)
    ]


def cover_rows(data) -> tuple[list[int], list[int], tuple[frozenset[int], ...]]:
    """(candidate ids, constraint ids, rows) of an instance of any kind: row
    i holds the ids of the candidates meeting constraint i, and may be
    empty.  ssr and srs keep instance order (srs rows are the ssr table
    transposed); ortho_psd and the graph kinds, whose rows are closed
    neighbourhoods, go in id order."""
    if isinstance(data, SsrInstance):
        rows = map(frozenset, _ray_rows(data))
        return [r.id for r in data.rays], [s.id for s in data.segments], tuple(rows)
    if isinstance(data, SrsInstance):
        cols: dict[int, list[int]] = {r.id: [] for r in data.rays}
        for s, row in zip(data.segments, _ray_rows(data)):
            for r in row:
                cols[r].append(s.id)
        return [s.id for s in data.segments], list(cols), tuple(map(frozenset, cols.values()))
    if isinstance(data, OrthoInstance):
        cands, cons = sorted(data.candidate_ids), sorted(data.constraint_ids)
        seg, horiz = psd._seg_view(*int_segs(data.hsegs, data.vsegs)[1:])
        rows = psd._cover_rows(seg, horiz, cons, cands)
        return cands, cons, tuple(same | cross for same, cross in rows)
    if isinstance(data, stabbedl.StabbedLInstance):
        closed = stabbedl.build_graph(data)[0]
    elif isinstance(data, instances.UnitBkInstance):
        closed = uvpg.build_graph(list(data.paths)).neighborhoods
    else:
        raise InvalidInputError(f"unsupported instance type {type(data).__name__}")
    ids = sorted(closed)
    return ids, ids, tuple(map(closed.__getitem__, ids))


def exact_stab(instance, cap: Optional[int] = None) -> set[int]:
    """Minimum candidate subset meeting every constraint of an instance of
    any kind; on stabbed_l and unit_bk, a minimum dominating set."""
    limit = _resolve_cap(cap)
    cands, cons, rows = cover_rows(instance)
    # a graph kind has no error for an unmet row: a closed neighbourhood is never empty
    unmet = next(k.unmet for k in instances.KIND_TABLE.values() if isinstance(instance, k.record))
    if len(cands) > limit:
        graph = unmet is None
        size = f"graph has {len(cands)} vertices" if graph else f"{len(cands)} candidates"
        raise SizeCapExceededError(f"{size}, cap is {limit}")
    for u, row in zip(cons, rows):
        if not row:
            raise unmet(u)
    return _min_cover(cands, rows)
