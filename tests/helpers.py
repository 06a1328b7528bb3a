"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: exhaustive subset search for covers,
vertex enumeration for LPs, quadratic scans for geometry.  None of it shares
code with the solvers under test.
"""
from bisect import bisect_left
from fractions import Fraction
from itertools import combinations
from typing import Optional

from geodom import oracle, stabbedl, uvpg
from geodom.errors import (
    InfeasibleConstraintError,
    InfeasibleRayError,
    InfeasibleSegmentError,
    InvalidInputError,
    SizeCapExceededError,
)
from geodom.geom import HRay, HSeg, OrthoInstance, VSeg, intersects
from geodom.instances import UnitBkInstance
from geodom.lp import CoverProgram, CoverSolution
from geodom.srs import SrsInstance
from geodom.ssr import SsrInstance
from geodom.stabbedl import StabbedLInstance


def solve_linear(a, b):
    """Solve a square rational system by Gaussian elimination.

    Returns None when singular.
    """
    n = len(a)
    m = [list(row) + [rhs] for row, rhs in zip(a, b)]
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        pv = m[col][col]
        m[col] = [v / pv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [v - f * w for v, w in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def lp_min_bruteforce(program) -> Fraction:
    """Covering LP optimum by enumerating basic feasible points.

    Every vertex of {sum_{j in row} x_j >= 1, x >= 0} lies on n tight
    constraints; small sizes only.
    """
    n = program.num_vars
    if n == 0:
        return Fraction(0)
    cons = []
    for row in program.rows:
        cons.append(([Fraction(1 if j in row else 0) for j in range(n)], Fraction(1)))
    for j in range(n):
        cons.append(([Fraction(1 if i == j else 0) for i in range(n)], Fraction(0)))
    best = Fraction(n)  # all-ones is always feasible
    for subset in combinations(range(len(cons)), n):
        a = [cons[i][0] for i in subset]
        b = [cons[i][1] for i in subset]
        x = solve_linear(a, b)
        if x is None:
            continue
        if any(v < 0 for v in x):
            continue
        if any(sum(x[j] for j in row) < 1 for row in program.rows):
            continue
        best = min(best, sum(x, Fraction(0)))
    return best


def naive_min_cover(sets: dict, universe) -> set:
    """Smallest key subset whose sets union to the universe; None if none."""
    universe = frozenset(universe)
    ids = sorted(sets)
    for r in range(len(ids) + 1):
        for combo in combinations(ids, r):
            got = frozenset().union(*(sets[i] for i in combo)) if combo else frozenset()
            if universe <= got:
                return set(combo)
    return None


def naive_min_stab(candidates, constraints) -> set:
    table = {
        c.id: frozenset(u.id for u in constraints if intersects(c, u))
        for c in candidates
    }
    return naive_min_cover(table, frozenset(u.id for u in constraints))


def naive_min_dominating(neighborhoods: dict) -> set:
    return naive_min_cover(neighborhoods, frozenset(neighborhoods))


def intersection_matrix(segments) -> dict:
    out = {}
    for a in segments:
        for b in segments:
            out[(a.id, b.id)] = intersects(a, b)
    return out


# ---------------------------------------------------------------------------
# plain accessors and the Fraction leg walks, written out here so that the
# references below stay independent of the package's int walks


def segments_of(inst) -> list:
    """Every segment of an ``OrthoInstance``: the horizontal ones, then the
    vertical ones."""
    return list(inst.hsegs) + list(inst.vsegs)


def segment_table(inst) -> dict:
    """An ``OrthoInstance``'s segments by id."""
    return {s.id: s for s in segments_of(inst)}


def intervals_meet(a, b) -> bool:
    """Two closed ``psd.Interval``s share a point."""
    return a.lo <= b.hi and b.lo <= a.hi


def graph_from_edges(n: int, edges) -> oracle.AbstractGraph:
    nbrs = [{u} for u in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return oracle.AbstractGraph(n, tuple(frozenset(s) for s in nbrs))


def lpath_vleg(p) -> VSeg:
    """An ``LPath``'s vertical leg, rising from its corner."""
    return VSeg(p.id, p.corner_x, p.corner_y, p.corner_y + p.vlen)


def lpath_hleg(p) -> HSeg:
    """An ``LPath``'s horizontal leg, running right from its corner."""
    return HSeg(p.id, p.corner_y, p.corner_x, p.corner_x + p.hlen)


_FLIP = {"L": "R", "R": "L", "U": "D", "D": "U"}


def reference_canonical(path):
    """A ``UnitKBendPath`` reoriented to start at its lexicographically
    smaller endpoint; an exact tie keeps the start."""
    pts = path.points()
    if pts[-1] < pts[0]:
        flipped = tuple(_FLIP[d] for d in reversed(path.legs))
        return uvpg.UnitKBendPath(path.id, pts[-1][0], pts[-1][1], flipped)
    return path


def reference_leg_segments(path) -> list:
    """Leg i (1-based) of a ``UnitKBendPath`` as a unit segment with id i,
    walked on Fractions in the path's own orientation."""
    segs = []
    pts = path.points()
    for i, ((x0, y0), (x1, y1)) in enumerate(zip(pts, pts[1:]), start=1):
        if y0 == y1:
            segs.append(HSeg(i, y0, min(x0, x1), max(x0, x1)))
        else:
            segs.append(VSeg(i, x0, min(y0, y1), max(y0, y1)))
    return segs


def reference_vertical_shrink(paths_by_id, constraint_ids) -> Fraction:
    """How far ``stabbedl.solve_mds`` raises each constrained vertical leg,
    on Fractions: half the least positive gap between corner heights,
    capped by the shortest constrained vertical leg."""
    ys = sorted({Fraction(p.corner_y) for p in paths_by_id.values()})
    lens = [Fraction(paths_by_id[pid].vlen) for pid in constraint_ids]
    return min([b - a for a, b in zip(ys, ys[1:])] + lens) / 2


def ssr_cover_ok(inst, chosen_ids) -> bool:
    """Range-max check that the chosen rays stab every segment.

    Linearithmic so it can validate the 10^5-sized instances.
    """
    from bisect import bisect_left, bisect_right

    chosen = sorted(
        (r for r in inst.rays if r.id in chosen_ids), key=lambda r: r.y
    )
    if not chosen and inst.segments:
        return False
    ys = [r.y for r in chosen]
    size = 1
    while size < max(len(chosen), 1):
        size *= 2
    tree = [None] * (2 * size)
    for i, r in enumerate(chosen):
        tree[size + i] = r.x_right
    for i in range(size - 1, 0, -1):
        kids = [v for v in (tree[2 * i], tree[2 * i + 1]) if v is not None]
        tree[i] = max(kids) if kids else None

    def range_max(lo, hi):  # inclusive index range
        best = None
        lo += size
        hi += size + 1
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
        return best

    for seg in inst.segments:
        a = bisect_left(ys, seg.y_lo)
        b = bisect_right(ys, seg.y_hi) - 1
        if a > b:
            return False
        best = range_max(a, b)
        if best is None or best < seg.x:
            return False
    return True


def srs_cover_ok(inst, chosen_ids) -> bool:
    """Sweep check that the chosen segments stab every ray.

    Rays go by increasing reach; each chosen segment the sweep has reached
    adds +1 over its range of ray heights in a difference Fenwick tree, so
    a ray is covered when the count at its height is positive.
    Linearithmic so it can validate large instances.
    """
    from bisect import bisect_left, bisect_right

    heights = sorted({r.y for r in inst.rays})
    tree = [0] * (len(heights) + 2)

    def add(i, delta):
        i += 1
        while i < len(tree):
            tree[i] += delta
            i += i & (-i)

    def count(i):
        i += 1
        total = 0
        while i > 0:
            total += tree[i]
            i -= i & (-i)
        return total

    chosen = sorted((v for v in inst.segments if v.id in chosen_ids), key=lambda v: v.x)
    k = 0
    for ray in sorted(inst.rays, key=lambda r: r.x_right):
        while k < len(chosen) and chosen[k].x <= ray.x_right:
            a = bisect_left(heights, chosen[k].y_lo)
            b = bisect_right(heights, chosen[k].y_hi) - 1
            if a <= b:
                add(a, 1)
                add(b + 1, -1)
            k += 1
        if count(bisect_left(heights, ray.y)) <= 0:
            return False
    return True


# ---------------------------------------------------------------------------
# literal references for the fast paths: plain Fraction arithmetic and
# whole-pool scans, kept as the definitions the fast code must reproduce


def reference_srs_solve(inst, want_trace=False):
    """Round-by-round ``srs.solve``: every round rescans the live pool."""
    from geodom.srs import SrsRound, SrsTrace

    live_rays = {r.id: r for r in inst.rays}
    live_segs = {v.id: v for v in inst.segments}
    tokens = {vid: frozenset() for vid in live_segs}
    selected = set()
    rounds = []
    index = 0
    while live_rays:
        index += 1
        r = min(live_rays.values(), key=lambda x: (x.x_right, x.id))
        hood = [v for v in live_segs.values() if intersects(r, v)]
        if not hood:
            raise InfeasibleRayError(r.id)
        v_top = min(hood, key=lambda v: (-v.y_hi, v.id))
        v_bot = min(hood, key=lambda v: (v.y_lo, v.id))
        hood_ids = frozenset(v.id for v in hood)
        selected.add(v_top.id)
        selected.add(v_bot.id)
        tokens[v_top.id] = hood_ids
        tokens[v_bot.id] = hood_ids
        removed = frozenset(
            rr.id
            for rr in live_rays.values()
            if intersects(rr, v_top) or intersects(rr, v_bot)
        )
        for rid in removed:
            del live_rays[rid]
        for vid in hood_ids:
            del live_segs[vid]
        if want_trace:
            rounds.append(SrsRound(index, r.id, hood_ids, v_top.id, v_bot.id, removed))
    trace = SrsTrace(tuple(rounds), dict(tokens)) if want_trace else None
    return selected, trace


def reference_ssr_normalize(inst):
    """``ssr.normalize`` in Fraction arithmetic with a quadratic feasibility
    check that reports the uncovered segment of largest x."""
    from geodom.ssr import SsrInstance

    rays, segs = list(inst.rays), list(inst.segments)
    if not rays and not segs:
        return inst
    ys = sorted(r.y for r in rays)
    if any(a == b for a, b in zip(ys, ys[1:])):
        raise InvalidInputError("rays must have pairwise distinct y")
    tx = 1 - min([v.x for v in segs] + [r.x_right for r in rays])
    ty = 1 - min([r.y for r in rays] + [v.y_lo for v in segs])
    rays = [HRay(r.id, r.y + ty, r.x_right + tx) for r in rays]
    segs = [VSeg(v.id, v.x + tx, v.y_lo + ty, v.y_hi + ty) for v in segs]

    seg_xs = sorted({v.x for v in segs})
    groups = {}
    for v in segs:
        groups.setdefault(v.x, []).append(v)
    if any(len(g) > 1 for g in groups.values()):
        gaps = [b - a for a, b in zip(seg_xs, seg_xs[1:])]
        reaches = sorted({r.x_right for r in rays})
        for x in seg_xs:
            j = bisect_left(reaches, x) - 1
            if j >= 0:
                gaps.append(x - reaches[j])
        d = min(gaps) if gaps else Fraction(1)
        eps = min(d, Fraction(1)) / (4 * (len(segs) + 1))
        shifted = []
        for x in seg_xs:
            members = sorted(groups[x], key=lambda v: v.id)
            for k, v in enumerate(members):
                shifted.append(VSeg(v.id, v.x - k * eps, v.y_lo, v.y_hi))
        segs = sorted(shifted, key=lambda v: v.id)

    for v in sorted(segs, key=lambda v: v.x, reverse=True):
        if not any(intersects(r, v) for r in rays):
            raise InfeasibleSegmentError(v.id)
    return SsrInstance(tuple(rays), tuple(segs))


class ReferenceFenwick:
    """Prefix sums over 0..n-1 with point updates."""

    def __init__(self, n: int):
        self.n = n
        self.tree = [0] * (n + 1)

    def add(self, i: int, delta: int) -> None:
        i += 1
        while i <= self.n:
            self.tree[i] += delta
            i += i & (-i)

    def prefix(self, i: int) -> int:
        # sum of entries 0..i inclusive
        s = 0
        i += 1
        while i > 0:
            s += self.tree[i]
            i -= i & (-i)
        return s

    def range_sum(self, lo: int, hi: int) -> int:
        if lo > hi:
            return 0
        return self.prefix(hi) - (self.prefix(lo - 1) if lo > 0 else 0)


def reference_initial_unique_stabbers(reach, seg_id, seg_x, seg_lo, seg_hi):
    """``ssr._initial_unique_stabbers`` as an offline Fenwick sweep.

    Rays are inserted in decreasing reach, so when a segment is processed
    (in decreasing x, input order among equals) exactly its stabbers are
    present.  One Fenwick tree holds ``1 + (n+1) * rank`` per inserted
    rank: a range sum ``s`` counts ``s % (n+1)`` stabbers, and when that
    count is 1, ``s // (n+1)`` is the stabber's rank.  Returns those ranks
    and raises for the first segment with no stabber.
    """
    n = len(reach)
    base = n + 1
    tree = ReferenceFenwick(n)
    by_reach = sorted(range(n), key=reach.__getitem__, reverse=True)
    out = []
    ptr = 0
    # reverse=True keeps the sort stable: equal xs stay in input order
    for j in sorted(range(len(seg_x)), key=seg_x.__getitem__, reverse=True):
        x = seg_x[j]
        while ptr < n and reach[by_reach[ptr]] >= x:
            rank = by_reach[ptr]
            tree.add(rank, 1 + base * rank)
            ptr += 1
        s = tree.range_sum(seg_lo[j], seg_hi[j])
        count = s % base
        if count == 0:
            raise InfeasibleSegmentError(seg_id[j])
        if count == 1:
            out.append(s // base)
    return out


class ReferenceIntervalStore:
    """``geom.IntervalStore`` with eager deletion: a dict of member sets
    per segment-tree node, and per member the nodes it sits in."""

    def __init__(self, n: int):
        self.n = max(n, 1)
        self.node_members: dict[int, set[int]] = {}
        self.member_nodes: dict[int, list[int]] = {}

    def insert(self, member: int, lo: int, hi: int) -> None:
        nodes = []
        a, b = lo + self.n, hi + self.n + 1
        while a < b:
            if a & 1:
                nodes.append(a)
                a += 1
            if b & 1:
                b -= 1
                nodes.append(b)
            a >>= 1
            b >>= 1
        for nd in nodes:
            self.node_members.setdefault(nd, set()).add(member)
        self.member_nodes[member] = nodes

    def remove(self, member: int) -> None:
        for nd in self.member_nodes.pop(member, ()):
            s = self.node_members.get(nd)
            if s is not None:
                s.discard(member)

    def stab_pop(self, rank: int) -> list[int]:
        hits: list[int] = []
        i = rank + self.n
        while i:
            s = self.node_members.get(i)
            if s:
                hits.extend(s)
            i >>= 1
        for member in hits:
            self.remove(member)
        return hits


class _ReferenceCompressed:
    """Integer rank space for the fast engine.

    Ray ys become ranks 0..n-1; every abscissa (ray reach or segment x)
    becomes its index in the merged sorted order of distinct values, so
    all sweep comparisons are int on int with equalities preserved."""

    def __init__(self, inst):
        from bisect import bisect_right

        from geodom.geom import int_coords

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


def _reference_initial_unique_stabbers(inst, comp):
    """Offline sweep giving, per segment, its stabber count at time zero.

    Returns the unique ray id of every count-1 segment and raises for
    count-0 segments.  Rays are inserted in decreasing reach, so when a
    segment at x is processed exactly its stabbers are present.
    """
    n = len(comp.ray_order)
    count = ReferenceFenwick(n)
    idsum = ReferenceFenwick(n)
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


class _ReferenceMaxTree:
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


def reference_ssr_solve_fast(inst):
    """``ssr.solve_fast`` on id-keyed dicts and a ``SortedList`` of live
    ranks: the event-driven sweep the flat rank-array engine must
    reproduce (same selections, same errors).  It always builds its own
    rank space and leaves a handed-over one on the instance untouched.
    Shares only ``geom.int_coords`` with the engine, which other tests
    cover."""
    from sortedcontainers import SortedList

    if not inst.segments:
        return set()
    comp = _ReferenceCompressed(inst)
    unique_rays = _reference_initial_unique_stabbers(inst, comp)
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
    cover = _ReferenceMaxTree(n)
    store = ReferenceIntervalStore(n)
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


def reference_gen_ssr(rng, n, m, span):
    """The ``ssr`` generator as a per-segment scan of every ray, O(n m)."""
    from geodom.ssr import SsrInstance

    ys = rng.sample(range(1, span + 2 * n + 1), n)
    reaches = [rng.randint(1, span) for _ in range(n)]
    reaches[rng.randrange(n)] = span
    rays = tuple(HRay(i, Fraction(ys[i]), Fraction(reaches[i])) for i in range(n))
    segments = []
    for j in range(m):
        x = rng.randint(1, span)
        anchors = [r for r in rays if r.x_right >= x]
        a = rng.choice(anchors)
        lo = a.y - rng.randint(0, 4)
        hi = a.y + rng.randint(0, 4)
        segments.append(VSeg(j, Fraction(x), lo, hi))
    return SsrInstance(rays, tuple(segments))


ZERO = Fraction(0)
ONE = Fraction(1)


def solve_lp_reference(program: CoverProgram) -> CoverSolution:
    """The Fraction-tableau primal simplex (Bland's rule) that ``solve_lp``
    reproduces on integer rows; ``solve_lp`` must return the same values,
    objective and duals (y_i is the final reduced cost of surplus column s_i).

    Variable layout: x_0..x_{n-1}, surplus s per row, upper-bound slack w
    per variable.  Starting from the all-ones point gives a feasible basis
    immediately (every row is non-empty), so no phase-1 is needed.
    """
    n = program.num_vars
    m = len(program.rows)
    if n == 0:
        return CoverSolution((), ZERO, True, ())
    # column ids: x_j = j; s_i = n + i; w_j = n + m + j
    total = 2 * n + m

    # rows in canonical form wrt the initial basis {x_0..x_{n-1}, s_0..s_{m-1}}:
    #   x_j + w_j = 1
    #   s_i + sum_{j in row_i} w_j = |row_i| - 1
    basis: list[int] = []
    tableau: list[dict[int, Fraction]] = []
    rhs: list[Fraction] = []
    for j in range(n):
        basis.append(j)
        tableau.append({j: ONE, n + m + j: ONE})
        rhs.append(ONE)
    for i, row in enumerate(program.rows):
        basis.append(n + i)
        entry = {n + m + j: ONE for j in row}
        entry[n + i] = ONE
        tableau.append(entry)
        rhs.append(Fraction(len(row) - 1))

    # reduced costs: z = n - sum_j w_j over the nonbasic w columns
    cost = {n + m + j: -ONE for j in range(n)}
    in_basis = [False] * total
    for b in basis:
        in_basis[b] = True

    while True:
        entering = -1
        for col in range(total):
            if not in_basis[col] and cost.get(col, ZERO) < ZERO:
                entering = col
                break
        if entering < 0:
            break
        # ratio test, Bland tie-break on the leaving basic variable's id
        leave_idx = -1
        best_ratio: Optional[Fraction] = None
        for r in range(len(tableau)):
            a = tableau[r].get(entering, ZERO)
            if a > ZERO:
                ratio = rhs[r] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[r] < basis[leave_idx])
                ):
                    best_ratio = ratio
                    leave_idx = r
        if leave_idx < 0:
            raise InvalidInputError("unbounded covering LP (malformed program)")

        piv_row = tableau[leave_idx]
        piv = piv_row[entering]
        if piv != ONE:
            tableau[leave_idx] = piv_row = {c: v / piv for c, v in piv_row.items()}
            rhs[leave_idx] /= piv
        for r in range(len(tableau)):
            if r == leave_idx:
                continue
            a = tableau[r].get(entering, ZERO)
            if a == ZERO:
                continue
            row_r = tableau[r]
            for c, v in piv_row.items():
                nv = row_r.get(c, ZERO) - a * v
                if nv == ZERO:
                    row_r.pop(c, None)
                else:
                    row_r[c] = nv
            rhs[r] -= a * rhs[leave_idx]
        a = cost.get(entering, ZERO)
        if a != ZERO:
            for c, v in piv_row.items():
                nv = cost.get(c, ZERO) - a * v
                if nv == ZERO:
                    cost.pop(c, None)
                else:
                    cost[c] = nv
        in_basis[basis[leave_idx]] = False
        in_basis[entering] = True
        basis[leave_idx] = entering

    values = [ZERO] * n
    for r, b in enumerate(basis):
        if b < n:
            values[b] = rhs[r]
    objective = sum(values, ZERO)
    integral = all(v in (ZERO, ONE) for v in values)
    duals = tuple(cost.get(n + i, ZERO) for i in range(m))
    sol = CoverSolution(tuple(values), objective, integral, duals)
    sol.check_feasible(program)
    return sol


# ---------------------------------------------------------------------------
# all-pairs geometry, as the pipelines computed it before their sweeps


def _reference_bbox(obj):
    # (x_lo, x_hi, y_lo, y_hi)
    if isinstance(obj, VSeg):
        return obj.x, obj.x, obj.y_lo, obj.y_hi
    return obj.x_lo, obj.x_hi, obj.y, obj.y


def _reference_chebyshev_gap(a, b):
    ax_lo, ax_hi, ay_lo, ay_hi = _reference_bbox(a)
    bx_lo, bx_hi, by_lo, by_hi = _reference_bbox(b)
    dx = max(Fraction(0), ax_lo - bx_hi, bx_lo - ax_hi)
    dy = max(Fraction(0), ay_lo - by_hi, by_lo - ay_hi)
    return max(dx, dy)


def reference_coordinate_family_gap(inst):
    families = (
        [s.x for s in inst.vsegs],
        [s.y_lo for s in inst.vsegs],
        [s.y_hi for s in inst.vsegs],
        [s.y for s in inst.hsegs],
        [s.x_lo for s in inst.hsegs],
        [s.x_hi for s in inst.hsegs],
    )
    best = None
    for fam in families:
        vals = sorted(set(fam))
        for lo, hi in zip(vals, vals[1:]):
            if best is None or hi - lo < best:
                best = hi - lo
    return best


def reference_min_positive_gap(inst):
    """All-pairs Chebyshev scan behind ``geom.min_positive_gap``."""
    segs = segments_of(inst)
    best_dist = None
    for i, a in enumerate(segs):
        for b in segs[i + 1:]:
            if intersects(a, b):
                continue
            d = _reference_chebyshev_gap(a, b)
            if best_dist is None or d < best_dist:
                best_dist = d
    if best_dist is None:
        return None
    fam = reference_coordinate_family_gap(inst)
    if fam is not None and fam < best_dist:
        return fam
    return best_dist


def reference_leg_contacts(legs):
    """All-pairs ``geom.leg_contacts``: each leg box becomes a ``VSeg`` (or an
    ``HSeg`` when its x extent is not a point) and pairs meet by ``intersects``."""
    def seg(box):
        x_lo, x_hi, y_lo, y_hi = box
        return VSeg(0, x_lo, y_lo, y_hi) if x_lo == x_hi else HSeg(0, y_lo, x_lo, x_hi)

    segs = [[seg(box) for box in own] for own in legs]
    found = []
    for p, q in combinations(range(len(segs)), 2):
        hits = [
            (i, j)
            for i, a in enumerate(segs[p], start=1)
            for j, b in enumerate(segs[q], start=1)
            if intersects(a, b)
        ]
        if hits:
            found.append((p, q, hits))
    return found


def _reference_paths_intersect(a, b):
    if a.id == b.id:
        return True
    return (
        intersects(lpath_vleg(a), lpath_hleg(b))
        or intersects(lpath_vleg(b), lpath_hleg(a))
        or intersects(lpath_vleg(a), lpath_vleg(b))
        or intersects(lpath_hleg(a), lpath_hleg(b))
    )


def reference_stabbedl_build_graph(inst):
    """All-pairs ``stabbedl.build_graph``: (neighborhoods, (horizontal, vertical))."""
    adjacency = {p.id: {p.id} for p in inst.paths}
    horizontal = {p.id: {p.id} for p in inst.paths}
    vertical = {p.id: set() for p in inst.paths}
    paths = list(inst.paths)
    for i, a in enumerate(paths):
        for b in paths[i + 1:]:
            if not _reference_paths_intersect(a, b):
                continue
            adjacency[a.id].add(b.id)
            adjacency[b.id].add(a.id)
            if intersects(lpath_vleg(b), lpath_hleg(a)):
                horizontal[a.id].add(b.id)
            else:
                vertical[a.id].add(b.id)
            if intersects(lpath_vleg(a), lpath_hleg(b)):
                horizontal[b.id].add(a.id)
            else:
                vertical[b.id].add(a.id)
    freeze = lambda d: {u: frozenset(v) for u, v in d.items()}  # noqa: E731
    return freeze(adjacency), (freeze(horizontal), freeze(vertical))


def reference_uvpg_build_graph(paths):
    """All ordered pairs (self-pairs included) of ``uvpg.build_graph``:
    (neighborhoods, phi, partition)."""
    canon = {p.id: reference_canonical(p) for p in paths}
    legs = {pid: reference_leg_segments(p) for pid, p in canon.items()}
    neighborhoods = {pid: set() for pid in canon}
    phi = {}
    order = sorted(canon)
    for u in order:
        for v in order:
            label = None
            for i, su in enumerate(legs[u], start=1):
                for j, sv in enumerate(legs[v], start=1):
                    if label is None and intersects(su, sv):
                        label = (i, j)
            if label is not None:
                neighborhoods[u].add(v)
                phi[(u, v)] = label
    partition = {}
    for u in order:
        blocks = {}
        for v in neighborhoods[u]:
            blocks.setdefault(phi[(u, v)], set()).add(v)
        partition[u] = {lab: frozenset(vs) for lab, vs in blocks.items()}
    return {u: frozenset(ns) for u, ns in neighborhoods.items()}, phi, partition


def reference_psd_rows(inst):
    """All-pairs cover rows of ``psd.psd_solve``: per constraint in id order,
    (same, cross) sets of candidate indices; None for the first constraint
    no candidate meets, as (None, id)."""
    table = segment_table(inst)
    horiz = {s.id for s in inst.hsegs}
    cand_order = sorted(inst.candidate_ids)
    index_of = {cid: i for i, cid in enumerate(cand_order)}
    out = []
    for u in sorted(inst.constraint_ids):
        hits = [c for c in cand_order if intersects(table[u], table[c])]
        if not hits:
            return None, u
        same = frozenset(index_of[c] for c in hits if (c in horiz) == (u in horiz))
        cross = frozenset(index_of[c] for c in hits if (c in horiz) != (u in horiz))
        out.append((same, cross))
    return out, None


def reference_interval_cover(candidates, targets) -> set:
    """Minimum subset of candidate intervals meeting every target interval:
    ``psd._interval_cover`` as it was on ``psd.Interval`` objects, greedy
    over targets by right endpoint, always taking the deepest-reaching
    candidate."""
    from geodom.errors import InfeasibleTargetError

    chosen = []
    chosen_ids = set()
    for t in sorted(targets, key=lambda iv: (iv.hi, iv.id)):
        if any(intervals_meet(c, t) for c in chosen):
            continue
        hits = [c for c in candidates if intervals_meet(c, t)]
        if not hits:
            raise InfeasibleTargetError(t.id)
        best = min(hits, key=lambda c: (-c.hi, c.id))
        chosen.append(best)
        chosen_ids.add(best.id)
    return chosen_ids


def reference_collinear_exact(constraints, candidates) -> set:
    """Exact same-orientation cover of ``psd.psd_solve``'s same label as it
    was on segments: decompose per carrier line, then cover intervals
    greedily with ``reference_interval_cover``."""
    from geodom.geom import HSeg
    from geodom.psd import Interval

    def key_and_interval(seg):
        if isinstance(seg, HSeg):
            return ("h", seg.y), Interval(seg.id, seg.x_lo, seg.x_hi)
        return ("v", seg.x), Interval(seg.id, seg.y_lo, seg.y_hi)

    def by_line(segs):
        out = {}
        for seg in segs:
            key, iv = key_and_interval(seg)
            out.setdefault(key, []).append(iv)
        return out

    cands_by_line, targets_by_line = by_line(candidates), by_line(constraints)
    chosen = set()
    for key in sorted(targets_by_line, key=str):
        chosen |= reference_interval_cover(cands_by_line.get(key, []), targets_by_line[key])
    return chosen


# ---------------------------------------------------------------------------
# per-item Fraction formulas, as the LP pipelines' per-label steps computed
# them before their int kernels


def reference_threshold_split(program, sol, parts, theta):
    """``lp.threshold_split`` with each block's mass summed as Fractions."""
    from geodom.errors import UncoveredRowError

    sol.check_feasible(program)
    out_rows, out_vars = {}, {}
    for i, row in enumerate(program.rows):
        if i not in parts:
            raise InvalidInputError(f"row {i} has no partition")
        blocks = parts[i]
        merged, count = set(), 0
        for block in blocks.values():
            merged |= block
            count += len(block)
        if merged != set(row) or count != len(row):
            raise InvalidInputError(f"row {i} partition does not tile its variable set")
        hit = False
        for label, block in blocks.items():
            if sum((sol.values[j] for j in block), Fraction(0)) >= theta:
                hit = True
                out_rows.setdefault(label, set()).add(i)
                out_vars.setdefault(label, set()).update(block)
        if not hit:
            raise UncoveredRowError(i)
    return {label: (frozenset(out_rows[label]), frozenset(out_vars[label])) for label in out_rows}


def reference_containment_violation(intervals):
    """``geom.containment_violation`` sorting Fraction (lo, -hi, id) keys."""
    prev = None
    for lo, hi, iid in sorted(intervals, key=lambda t: (t[0], -t[1], t[2])):
        if prev is not None and hi <= prev[1]:
            return prev[2], iid
        prev = (lo, hi, iid)
    return None


def reference_properize(inst):
    """``geom.properize`` ranking and shifting Fraction endpoints, with the
    all-pairs gap references."""
    from geodom.geom import HSeg, OrthoInstance

    segs = segments_of(inst)
    if not segs:
        return inst
    if len({s.x_hi - s.x_lo if isinstance(s, HSeg) else s.y_hi - s.y_lo for s in segs}) != 1:
        raise InvalidInputError("properize requires all segments of equal length")
    gap = reference_min_positive_gap(inst)
    if gap is None:
        gap = reference_coordinate_family_gap(inst)
        if gap is None:
            gap = Fraction(1)

    def stretch(items, low, grow):
        eps = gap / (4 * (len(items) + 1))
        order = sorted(items, key=lambda s: (low(s), s.id))
        out = [grow(s, i * eps, (len(items) - i) * eps) for i, s in enumerate(order)]
        return sorted(out, key=lambda s: s.id)

    new_h = stretch(inst.hsegs, lambda s: s.x_lo, lambda s, a, b: HSeg(s.id, s.y, s.x_lo - a, s.x_hi + b))
    new_v = stretch(inst.vsegs, lambda s: s.y_lo, lambda s, a, b: VSeg(s.id, s.x, s.y_lo - a, s.y_hi + b))
    return OrthoInstance(tuple(new_h), tuple(new_v), inst.constraint_ids, inst.candidate_ids)


def reference_stabbedl_normalize(inst):
    """``stabbedl.normalize`` shifting every path and checking the layout
    rules on Fractions."""
    from geodom.errors import AssumptionViolationError
    from geodom.stabbedl import LPath, StabbedLInstance

    shift = inst.line_x
    paths = tuple(
        LPath(p.id, p.corner_x - shift, p.corner_y, p.vlen, p.hlen) for p in inst.paths
    )
    missing = [p.id for p in paths if p.corner_x > 0 or p.corner_x + p.hlen < 0]
    if missing:
        raise AssumptionViolationError("i", missing)
    on_line = [p.id for p in paths if p.corner_x == 0]
    if on_line:
        raise AssumptionViolationError("ii", on_line)
    by_y = {}
    for p in paths:
        by_y.setdefault(p.corner_y, []).append(p.id)
    clashes = [ids for ids in by_y.values() if len(ids) > 1]
    if clashes:
        raise AssumptionViolationError("iii", sorted(clashes[0]))
    by_x = {}
    for p in paths:
        by_x.setdefault(p.corner_x, []).append(p)
    for group in by_x.values():
        group.sort(key=lambda p: p.corner_y)
        for lo, hi in zip(group, group[1:]):
            if lo.corner_y + lo.vlen > hi.corner_y:
                raise AssumptionViolationError("iii", sorted([lo.id, hi.id]))
    return StabbedLInstance(paths, Fraction(0))


#: the Fraction operations the int kernels must not make
FRACTION_OPS = ("__eq__", "__lt__", "__le__", "__gt__", "__ge__", "__add__", "__radd__")


def count_fraction_ops(monkeypatch) -> dict:
    """Patch ``Fraction``'s comparisons and additions to count their calls
    into the returned dict, until ``monkeypatch`` undoes it."""
    counts = dict.fromkeys(FRACTION_OPS, 0)

    def counted(name, fn):
        def op(*args):
            counts[name] += 1
            return fn(*args)

        return op

    for name in FRACTION_OPS:
        monkeypatch.setattr(Fraction, name, counted(name, getattr(Fraction, name)))
    return counts


# ---------------------------------------------------------------------------
# the covering view before ``oracle.cover_rows``: literal copies of the
# all-pairs code it replaced, kept as references for its consumers


def reference_stab_sides(instance):
    """(candidates, constraints, error raised for an uncoverable constraint)
    of a covering instance."""
    if isinstance(instance, SsrInstance):
        return list(instance.rays), list(instance.segments), InfeasibleSegmentError
    if isinstance(instance, SrsInstance):
        return list(instance.segments), list(instance.rays), InfeasibleRayError
    if isinstance(instance, OrthoInstance):
        table = segment_table(instance)
        cands = [table[i] for i in sorted(instance.candidate_ids)]
        return cands, [table[i] for i in sorted(instance.constraint_ids)], InfeasibleConstraintError
    raise InvalidInputError(f"unsupported instance type {type(instance).__name__}")


def reference_neighborhoods(data) -> Optional[dict[int, frozenset[int]]]:
    """Closed neighbourhoods of a graph kind, None for the other kinds."""
    if isinstance(data, StabbedLInstance):
        return stabbedl.build_graph(data)[0]
    if isinstance(data, UnitBkInstance):
        return uvpg.build_graph(list(data.paths)).neighborhoods
    return None


def reference_cover_rows(data):
    """``oracle.cover_rows`` of a stabbing kind by an all-pairs
    ``intersects`` scan over ``reference_stab_sides``."""
    cands, cons, _ = reference_stab_sides(data)
    rows = tuple(
        frozenset(i for i, c in enumerate(cands) if intersects(c, u)) for u in cons
    )
    return [c.id for c in cands], [u.id for u in cons], rows


def reference_min_cover(num_constraints: int, candidates: list[tuple[int, int]]) -> set[int]:
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


def reference_exact_stab(instance, cap: Optional[int] = None) -> set[int]:
    """Minimum candidate subset meeting every constraint of the instance."""
    limit = oracle._resolve_cap(cap)
    cands, cons, misses = reference_stab_sides(instance)
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
    return reference_min_cover(len(cons), masks)


def reference_verify_problems(f, selected: set[int]) -> list[str]:
    data = f.data
    problems = []
    if isinstance(data, (SsrInstance, SrsInstance, OrthoInstance)):
        cands, cons, _ = reference_stab_sides(data)
        table = {c.id: c for c in cands}
        unknown = selected - set(table)
        if unknown:
            problems.append(f"selected ids not selectable: {sorted(unknown)}")
            return problems
        picked = [table[i] for i in sorted(selected)]
        for u in cons:
            if not any(intersects(c, u) for c in picked):
                problems.append(f"constraint {u.id} is not covered")
        return problems
    neighborhoods = reference_neighborhoods(data)
    if neighborhoods is None:
        raise InvalidInputError(f"cannot verify kind {f.kind!r}")
    unknown = selected - set(neighborhoods)
    if unknown:
        problems.append(f"selected ids not in the instance: {sorted(unknown)}")
        return problems
    for u, nbrs in sorted(neighborhoods.items()):
        if not (nbrs & selected):
            problems.append(f"vertex {u} is not dominated")
    return problems


# ---------------------------------------------------------------------------
# psd's strip layer before it ran on ints: literal copies of the Fraction
# scan, of the boundary sub-problem built from HRay/VSeg objects, and of
# ``poss_solve`` on top of them


def reference_build_strips(candidates, targets):
    """``psd.build_strips`` as an all-pairs ``intersects`` scan."""
    from bisect import bisect_right

    from geodom.psd import StripDecomposition

    picked_rights = []
    last_r = None
    for c in sorted(candidates, key=lambda c: (c.x_hi, c.x_lo, c.id)):
        if last_r is None or c.x_lo > last_r:
            picked_rights.append(c.x_hi)
            last_r = c.x_hi
    coords = (
        [c.x_lo for c in candidates]
        + [c.x_hi for c in candidates]
        + [t.x for t in targets]
    )
    if not coords:
        return StripDecomposition((), (), (), {}, {}, {})
    q = min(coords) - 1
    q_prime = max(coords) + 1
    points = tuple([q] + picked_rights + [q_prime])
    strips = [set() for _ in range(len(points) - 1)]
    strip_of = {}
    left = {}
    right = {}
    for t in targets:
        i = bisect_right(points, t.x) - 1
        strips[i].add(t.id)
        strip_of[t.id] = i
        meets = [c for c in candidates if intersects(c, t)]
        left[t.id] = frozenset(c.id for c in meets if c.x_lo <= points[i] <= c.x_hi)
        right[t.id] = frozenset(c.id for c in meets if c.x_lo <= points[i + 1] <= c.x_hi)
    return StripDecomposition(
        points, tuple(picked_rights), tuple(frozenset(s) for s in strips),
        strip_of, left, right,
    )


def _reference_dedup_rays(rays):
    # same-height rays: only the farthest-reaching one can matter
    best = {}
    for r in rays:
        cur = best.get(r.y)
        if cur is None or (r.x_right, -r.id) > (cur.x_right, -cur.id):
            best[r.y] = r
    return sorted(best.values(), key=lambda r: r.id)


def reference_solve_boundary_side(candidates, targets, mirror):
    """One strip/side sub-problem as a Fraction ``SsrInstance``."""
    from geodom import ssr

    if mirror:
        rays = [HRay(c.id, c.y, -c.x_lo) for c in candidates]
        segs = [VSeg(t.id, -t.x, t.y_lo, t.y_hi) for t in targets]
    else:
        rays = [HRay(c.id, c.y, c.x_hi) for c in candidates]
        segs = [VSeg(t.id, t.x, t.y_lo, t.y_hi) for t in targets]
    inst = ssr.normalize(ssr.SsrInstance(tuple(_reference_dedup_rays(rays)), tuple(segs)))
    return ssr.solve_fast(inst)


def reference_poss_solve(candidates, targets, want_details=False):
    """``psd.poss_solve`` over ``reference_build_strips`` and
    ``reference_solve_boundary_side``."""
    from geodom.errors import InfeasibleTargetError, NotProperError
    from geodom.geom import containment_violation
    from geodom.lp import HALF, lp_round
    from geodom.psd import PossDetails

    bad = containment_violation((c.x_lo, c.x_hi, c.id) for c in candidates)
    if bad is not None:
        raise NotProperError("h", list(bad))
    cand_by_id = {c.id: c for c in candidates}
    if len(cand_by_id) != len(candidates):
        raise InvalidInputError("duplicate candidate ids")
    target_by_id = {t.id: t for t in targets}
    if len(target_by_id) != len(targets):
        raise InvalidInputError("duplicate target ids")

    dec = reference_build_strips(candidates, targets)
    for tid in sorted(target_by_id):
        if not (dec.left[tid] or dec.right[tid]):
            raise InfeasibleTargetError(tid)
    parts = {tid: {"left": dec.left[tid], "right": dec.right[tid]} for tid in target_by_id}

    def solve_label(side, rows, cands):
        step = 0 if side == "left" else 1
        pool = [cand_by_id[c] for c in sorted(cands)]
        selected = set()
        for i, strip in enumerate(dec.strips):
            strip_targets = [target_by_id[tid] for tid in sorted(strip & rows)]
            if strip_targets:
                boundary = dec.points[i + step]
                near = [c for c in pool if c.x_lo <= boundary <= c.x_hi]
                selected |= reference_solve_boundary_side(near, strip_targets, mirror=step == 1)
        return selected

    res = lp_round(cand_by_id, parts, HALF, solve_label, 8)
    if not want_details:
        return res.certificate
    (l_rows, l_vars), (r_rows, r_vars) = res.part("left"), res.part("right")
    return res.certificate, PossDetails(
        program=res.program,
        lp_solution=res.lp_solution,
        var_order=res.var_ids,
        decomposition=dec,
        left_rows=l_rows,
        right_rows=r_rows,
        left_vars=l_vars,
        right_vars=r_vars,
        left_selected=res.selected.get("left", frozenset()),
        right_selected=res.selected.get("right", frozenset()),
    )


# ---------------------------------------------------------------------------
# uvpg before it ran on ints: literal copies of ``solve_mds`` and
# ``_label_instance``, which walk each path's canonical leg segments and
# send every label through an ``OrthoInstance``, ``properize`` and
# ``psd_solve``; here ``properize`` is the Fraction ``reference_properize``
# and the contacts come from the all-pairs ``reference_uvpg_build_graph``


def _reference_label_instance(label, legs, row_ids, var_ids):
    """Geometric covering instance for one contact label.

    ``legs[pid]`` is the ``reference_leg_segments`` of path pid's canonical
    form.
    Constraints are the i-th legs of the row paths, candidates the j-th legs
    of the column paths.  A leg playing both roles is entered twice under
    fresh ids; the maps recover path ids afterwards.
    """
    i, j = label
    hsegs = []
    vsegs = []
    constraint_ids = set()
    candidate_ids = set()
    cand_owner = {}
    next_id = 0

    def add(seg, role_constraint, owner):
        nonlocal next_id
        rid = next_id
        next_id += 1
        if isinstance(seg, HSeg):
            hsegs.append(HSeg(rid, seg.y, seg.x_lo, seg.x_hi))
        else:
            vsegs.append(VSeg(rid, seg.x, seg.y_lo, seg.y_hi))
        if role_constraint:
            constraint_ids.add(rid)
        else:
            candidate_ids.add(rid)
            cand_owner[rid] = owner

    for pid in row_ids:
        add(legs[pid][i - 1], True, pid)
    for pid in var_ids:
        add(legs[pid][j - 1], False, pid)
    inst = OrthoInstance(
        tuple(hsegs), tuple(vsegs), frozenset(constraint_ids), frozenset(candidate_ids)
    )
    return inst, cand_owner


def reference_uvpg_solve_mds(paths, k, want_details=False):
    """``uvpg.solve_mds`` on canonical ``reference_leg_segments`` and one
    ``OrthoInstance`` per label."""
    from geodom.errors import InvalidPathError
    from geodom.lp import lp_round
    from geodom.psd import psd_solve
    from geodom.uvpg import ContactStructure, LabelOutcome, UvpgDetails

    if k < 0:
        raise InvalidInputError("negative bend bound")
    for p in paths:
        if len(p.legs) > k + 1:
            raise InvalidPathError(p.id, f"more than {k + 1} legs")
    if len({p.id for p in paths}) != len(paths):
        raise InvalidInputError("duplicate path ids")
    contacts = ContactStructure(*reference_uvpg_build_graph(paths))
    # every label reads one leg of each of its paths: build them once
    legs = {p.id: reference_leg_segments(reference_canonical(p)) for p in paths}
    labels = {}

    def solve_label(label, rows, cands):
        inst, cand_owner = _reference_label_instance(label, legs, sorted(rows), sorted(cands))
        cert = psd_solve(reference_properize(inst))
        picked = frozenset(cand_owner[rid] for rid in cert.heuristic_ids)
        labels[label] = LabelOutcome(
            rows=rows,
            vars=cands,
            certificate=cert,
            chosen_paths=picked,
        )
        return picked

    theta, ratio = Fraction(1, (k + 1) ** 2), 18 * (k + 1) ** 4
    res = lp_round(contacts.neighborhoods, contacts.partition, theta, solve_label, ratio)
    if not want_details:
        return res.certificate
    return res.certificate, UvpgDetails(
        program=res.program,
        lp_solution=res.lp_solution,
        order=res.var_ids,
        contacts=contacts,
        labels=labels,
    )
