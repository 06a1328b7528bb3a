"""Output checks that share no code with the solvers they check.

Every predicate here works on the plain coordinates of the generated
instances in exact rational arithmetic.  Nothing calls into ``geodom``, so
a layer that a later change rewrites cannot vouch for its own output, and
tracing never counts the checks as layer work.
"""
from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from fractions import Fraction

_UNIT = {"L": (-1, 0), "R": (1, 0), "U": (0, 1), "D": (0, -1)}


# ---------------------------------------------------------------------------
# closed axis-parallel pieces as tuples
#   ("h", y, x_lo, x_hi)   horizontal segment
#   ("v", x, y_lo, y_hi)   vertical segment


def _meet(a, b) -> bool:
    if a[0] == b[0]:
        return a[1] == b[1] and a[2] <= b[3] and b[2] <= a[3]
    h, v = (a, b) if a[0] == "h" else (b, a)
    return h[2] <= v[1] <= h[3] and v[2] <= h[1] <= v[3]


def _piece(seg):
    if hasattr(seg, "x_lo"):
        return ("h", seg.y, seg.x_lo, seg.x_hi)
    return ("v", seg.x, seg.y_lo, seg.y_hi)


def _l_legs(p):
    return (
        ("v", p.corner_x, p.corner_y, p.corner_y + p.vlen),
        ("h", p.corner_y, p.corner_x, p.corner_x + p.hlen),
    )


def _unit_legs(p):
    legs = []
    x, y = p.start_x, p.start_y
    for d in p.legs:
        dx, dy = _UNIT[d]
        nx, ny = x + dx, y + dy
        if dy == 0:
            legs.append(("h", y, min(x, nx), max(x, nx)))
        else:
            legs.append(("v", x, min(y, ny), max(y, ny)))
        x, y = nx, ny
    return legs


# ---------------------------------------------------------------------------
# covers


def ssr_cover_ok(inst, chosen) -> bool:
    """Do the chosen rays stab every segment?  O((n+m) log(n+m)).

    The chosen rays are sorted by y; a segment is stabbed when the largest
    reach among chosen rays with y inside its span is at least its x, which
    an iterative max segment tree answers per segment.
    """
    chosen = set(chosen)
    rays = sorted((r for r in inst.rays if r.id in chosen), key=lambda r: r.y)
    if len(rays) != len(chosen):
        return False
    ys = [r.y for r in rays]
    size = max(1, len(rays))
    tree = [None] * (2 * size)
    for i, r in enumerate(rays):
        tree[size + i] = r.x_right
    for i in range(size - 1, 0, -1):
        a, b = tree[2 * i], tree[2 * i + 1]
        tree[i] = a if b is None or (a is not None and a >= b) else b
    for seg in inst.segments:
        lo = bisect_left(ys, seg.y_lo) + size
        hi = bisect_right(ys, seg.y_hi) + size
        best = None
        while lo < hi:
            if lo & 1:
                if tree[lo] is not None and (best is None or tree[lo] > best):
                    best = tree[lo]
                lo += 1
            if hi & 1:
                hi -= 1
                if tree[hi] is not None and (best is None or tree[hi] > best):
                    best = tree[hi]
            lo >>= 1
            hi >>= 1
        if best is None or best < seg.x:
            return False
    return True


def srs_cover_ok(inst, chosen) -> bool:
    """Do the chosen segments stab every ray?  O((n+m) log(n+m)).

    Sweep upward in y keeping the open chosen segments in a heap keyed by
    x: a ray is stabbed when the leftmost open segment lies at or left of
    its reach.  Segments open before rays at the same height and close
    after them, matching closed intervals.
    """
    chosen = set(chosen)
    segs = [s for s in inst.segments if s.id in chosen]
    if len(segs) != len(chosen):
        return False
    events = []
    for s in segs:
        events.append((s.y_lo, 0, s.x, s.id))
    for r in inst.rays:
        events.append((r.y, 1, r.x_right, r.id))
    events.sort()
    closes = sorted((s.y_hi, s.id) for s in segs)
    open_heap: list = []
    closed: set = set()
    ci = 0
    for y, tag, x, ident in events:
        while ci < len(closes) and closes[ci][0] < y:
            closed.add(closes[ci][1])
            ci += 1
        if tag == 0:
            heapq.heappush(open_heap, (x, ident))
            continue
        while open_heap and open_heap[0][1] in closed:
            heapq.heappop(open_heap)
        if not open_heap or open_heap[0][0] > x:
            return False
    return True


def ortho_cover_ok(inst, chosen) -> bool:
    """Do the chosen candidate segments meet every constraint segment?"""
    chosen = set(chosen)
    if not chosen <= set(inst.candidate_ids):
        return False
    table = {s.id: _piece(s) for s in list(inst.hsegs) + list(inst.vsegs)}
    picked = [table[i] for i in chosen]
    return all(
        any(_meet(table[u], c) for c in picked) for u in inst.constraint_ids
    )


def _dominates(legs_of: dict, chosen) -> bool:
    chosen = set(chosen)
    if not chosen <= set(legs_of):
        return False
    picked = [legs_of[s] for s in chosen]
    for u, legs_u in legs_of.items():
        if u in chosen:
            continue
        if not any(_meet(a, b) for legs_s in picked for a in legs_u for b in legs_s):
            return False
    return True


def stabbed_l_dominates(inst, chosen) -> bool:
    """Does every L-path meet a chosen path (or is chosen itself)?"""
    return _dominates({p.id: _l_legs(p) for p in inst.paths}, chosen)


def unit_bk_dominates(inst, chosen) -> bool:
    """Does every unit k-bend path meet a chosen path (or is chosen)?"""
    return _dominates({p.id: _unit_legs(p) for p in inst.paths}, chosen)


def selection_ok(kind: str, inst, chosen) -> bool:
    """Cover or domination check for one instance of the given kind."""
    if kind == "ssr":
        return ssr_cover_ok(inst, chosen)
    if kind == "srs":
        return srs_cover_ok(inst, chosen)
    if kind == "ortho_psd":
        return ortho_cover_ok(inst, chosen)
    if kind == "stabbed_l":
        return stabbed_l_dominates(inst, chosen)
    if kind == "unit_bk":
        return unit_bk_dominates(inst, chosen)
    raise ValueError(f"unknown kind {kind!r}")


def bounds_problems(size: int, lp_opt, ratio, exact=None) -> list[str]:
    """``lp_opt <= exact <= size <= ratio * lp_opt``, exactly."""
    problems = []
    size = Fraction(size)
    if lp_opt is not None:
        if not size >= lp_opt:
            problems.append(f"size {size} below lp_opt {lp_opt}")
        if not size <= ratio * lp_opt:
            problems.append(f"size {size} above {ratio} * lp_opt {lp_opt}")
    if exact is not None:
        if lp_opt is not None and not lp_opt <= exact:
            problems.append(f"exact {exact} below lp_opt {lp_opt}")
        if not exact <= size:
            problems.append(f"exact {exact} above size {size}")
    return problems
