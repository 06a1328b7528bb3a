"""Exact brute-force baselines for domination and stabbing at desk scale.

One bitmask set-cover engine drives both entry points.  It is deliberately
independent of the LP-based branch-and-bound in ``lp`` so the two exact
routes can certify each other in tests.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Union

from .errors import (
    InfeasibleConstraintError,
    InfeasibleRayError,
    InfeasibleSegmentError,
    InvalidInputError,
    SizeCapExceededError,
)
from .geom import OrthoInstance, intersects
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


def _min_cover(num_constraints: int, candidates: list[tuple[int, int]]) -> set[int]:
    """Smallest candidate subset whose masks OR to the full constraint set.

    Iterative deepening on cardinality; branches on the lowest uncovered
    constraint, so completeness is immediate.  Callers guarantee that the
    union of all masks is full.
    """
    if num_constraints == 0:
        return set()
    full = (1 << num_constraints) - 1
    covers_bit: dict[int, list[tuple[int, int]]] = {
        b: [] for b in range(num_constraints)
    }
    for cid, mask in candidates:
        m = mask
        while m:
            b = (m & -m).bit_length() - 1
            covers_bit[b].append((cid, mask))
            m &= m - 1
    max_gain = max(mask.bit_count() for _, mask in candidates)

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

    lower = -(-num_constraints // max_gain)
    for budget in range(lower, len(candidates) + 1):
        got = dfs(0, budget, [])
        if got is not None:
            return set(got)
    raise InvalidInputError("cover search exhausted on a feasible input")


def exact_mds(g: AbstractGraph, cap: Optional[int] = None) -> set[int]:
    """A minimum dominating set, by exhaustive cardinality-ordered search."""
    limit = _resolve_cap(cap)
    if g.n > limit:
        raise SizeCapExceededError(f"graph has {g.n} vertices, cap is {limit}")
    cands = []
    for u in range(g.n):
        mask = 0
        for v in g.closed[u]:
            mask |= 1 << v
        cands.append((u, mask))
    return _min_cover(g.n, cands)


def stab_sides(instance: Union[SsrInstance, SrsInstance, OrthoInstance]):
    """(candidates, constraints, error raised for an uncoverable constraint)
    of a covering instance."""
    if isinstance(instance, SsrInstance):
        return list(instance.rays), list(instance.segments), InfeasibleSegmentError
    if isinstance(instance, SrsInstance):
        return list(instance.segments), list(instance.rays), InfeasibleRayError
    if isinstance(instance, OrthoInstance):
        table = instance.segment_by_id()
        cands = [table[i] for i in sorted(instance.candidate_ids)]
        return cands, [table[i] for i in sorted(instance.constraint_ids)], InfeasibleConstraintError
    raise InvalidInputError(f"unsupported instance type {type(instance).__name__}")


def exact_stab(
    instance: Union[SsrInstance, SrsInstance, OrthoInstance],
    cap: Optional[int] = None,
) -> set[int]:
    """Minimum candidate subset meeting every constraint of the instance."""
    limit = _resolve_cap(cap)
    cands, cons, misses = stab_sides(instance)
    if len(cands) > limit:
        raise SizeCapExceededError(f"{len(cands)} candidates, cap is {limit}")

    masks = []
    for c in cands:
        mask = 0
        for b, u in enumerate(cons):
            if intersects(c, u):
                mask |= 1 << b
        masks.append((c.id, mask))
    union = 0
    for _, m in masks:
        union |= m
    for b, u in enumerate(cons):
        if not (union >> b) & 1:
            raise misses(u.id)
    return _min_cover(len(cons), masks)
