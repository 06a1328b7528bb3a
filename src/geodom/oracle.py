"""Exact brute-force baselines for domination and stabbing at desk scale.

``cover_rows`` gives every kind's constraint -> candidates rows, read off
the geometry code that finds contacts, and one bitmask set-cover engine
searches them.  It uses no heuristic's selection and is independent of the
LP-based branch-and-bound in ``lp``, so the exact routes can certify each
other in tests.
"""
from __future__ import annotations

import os
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Optional, Union

from . import instances, psd, stabbedl, uvpg
from .errors import (
    InfeasibleConstraintError,
    InfeasibleRayError,
    InfeasibleSegmentError,
    InvalidInputError,
    SizeCapExceededError,
)
from .geom import OrthoInstance, int_coords
from .srs import SrsInstance
from .ssr import SsrInstance

DEFAULT_CAP = 16
_CAP_ENV = "GEODOM_SIZE_CAP"


def _resolve_cap(cap: Optional[int]) -> int:
    if cap is not None:
        return cap
    raw = os.environ.get(_CAP_ENV)
    if raw is None:
        return DEFAULT_CAP
    try:
        return int(raw)
    except ValueError:
        raise InvalidInputError(f"{_CAP_ENV} must be an integer, got {raw!r}")


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

    @classmethod
    def from_edges(cls, n: int, edges) -> "AbstractGraph":
        nbrs = [{u} for u in range(n)]
        for u, v in edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return cls(n, tuple(frozenset(s) for s in nbrs))


def _min_cover(ids, rows) -> set[int]:
    """Smallest subset of ``ids`` meeting every row, where a row holds the
    positions in ``ids`` of the candidates meeting one constraint.

    Iterative deepening on cardinality over constraint bitmasks; branches
    on the lowest uncovered constraint, so completeness is immediate.
    Callers guarantee that no row is empty.
    """
    if not rows:
        return set()
    full = (1 << len(rows)) - 1
    masks = [0] * len(ids)
    for b, row in enumerate(rows):
        for p in row:
            masks[p] |= 1 << b
    covers_bit = [[(ids[p], masks[p]) for p in sorted(row)] for row in rows]
    max_gain = max(m.bit_count() for m in masks)

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
    for budget in range(lower, len(ids) + 1):
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
    """Per segment, the positions of the rays meeting it: one bisection of
    its y-span over the rays sorted by height, then a reach test, all on
    ``int_coords`` ints."""
    c = int_coords(inst.rays, inst.segments)
    by_y = sorted(range(len(c.ray_y)), key=c.ray_y.__getitem__)
    ys = sorted(c.ray_y)
    return [
        [r for r in by_y[bisect_left(ys, lo):bisect_right(ys, hi)] if c.reach[r] >= x]
        for x, lo, hi in zip(c.seg_x, c.seg_lo, c.seg_hi)
    ]


def cover_rows(data) -> tuple[list[int], list[int], tuple[frozenset[int], ...]]:
    """(candidate ids, constraint ids, rows) of an instance of any kind: row
    i holds the positions of the candidates meeting constraint i, and may be
    empty.  ssr and srs keep instance order (srs rows are the ssr table
    transposed); ortho_psd and the graph kinds, whose rows are closed
    neighbourhoods, go in id order."""
    if isinstance(data, SsrInstance):
        rows = map(frozenset, _ray_rows(data))
        return [r.id for r in data.rays], [s.id for s in data.segments], tuple(rows)
    if isinstance(data, SrsInstance):
        cols: list[list[int]] = [[] for _ in data.rays]
        for s, row in enumerate(_ray_rows(data)):
            for r in row:
                cols[r].append(s)
        return [s.id for s in data.segments], [r.id for r in data.rays], tuple(map(frozenset, cols))
    if isinstance(data, OrthoInstance):
        cands, cons = sorted(data.candidate_ids), sorted(data.constraint_ids)
        _, seg, horiz = psd._int_view(data)
        pos = {c: i for i, c in enumerate(cands)}.__getitem__
        rows = psd._cover_rows(seg, horiz, cons, cands)
        return cands, cons, tuple(frozenset(map(pos, same | cross)) for same, cross in rows)
    if isinstance(data, stabbedl.StabbedLInstance):
        closed = stabbedl.build_graph(data)[0]
    elif isinstance(data, instances.UnitBkInstance):
        closed = uvpg.build_graph(list(data.paths)).neighborhoods
    else:
        raise InvalidInputError(f"unsupported instance type {type(data).__name__}")
    ids = sorted(closed)
    pos = {u: i for i, u in enumerate(ids)}
    return ids, ids, tuple(frozenset(map(pos.__getitem__, closed[u])) for u in ids)


#: the error of each stabbing kind for a constraint nothing meets
_UNMET = ((SsrInstance, InfeasibleSegmentError), (SrsInstance, InfeasibleRayError),
          (OrthoInstance, InfeasibleConstraintError))


def exact_stab(
    instance: Union[SsrInstance, SrsInstance, OrthoInstance],
    cap: Optional[int] = None,
) -> set[int]:
    """Minimum candidate subset meeting every constraint of the instance."""
    limit = _resolve_cap(cap)
    misses = next((err for kind, err in _UNMET if isinstance(instance, kind)), None)
    if misses is None:
        raise InvalidInputError(f"unsupported instance type {type(instance).__name__}")
    cands, cons, rows = cover_rows(instance)
    if len(cands) > limit:
        raise SizeCapExceededError(f"{len(cands)} candidates, cap is {limit}")
    for u, row in zip(cons, rows):
        if not row:
            raise misses(u)
    return _min_cover(cands, rows)
