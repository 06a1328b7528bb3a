"""Domination among axis-parallel segments with proper projections.

Three layers: an exact greedy for covering intervals with intervals (LP-
integral when candidates are proper), an 8-approximation for covering
vertical targets with horizontal candidates via strip decomposition, and
the 18-approximation combining both over a mixed instance.  The last two
are ``lp.lp_round``: each LP row is split by strip boundary (left/right)
or by orientation (same/cross), and each label is solved on its own.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Optional

from . import ssr
from .errors import (
    InfeasibleConstraintError,
    InfeasibleTargetError,
    InvalidInputError,
    NotProperError,
)
from .geom import (
    HRay,
    HSeg,
    OrthoInstance,
    Rat,
    VSeg,
    containment_violation,
    intersects,
    scaled,
)
from .lp import HALF, CoverProgram, CoverSolution, SolveCertificate, lp_round
from .lp import solve_lp  # noqa: F401  re-exported: perfbench's tracer tests rebind psd.solve_lp


@dataclass(frozen=True)
class Interval:
    id: int
    lo: Rat
    hi: Rat

    def __post_init__(self):
        if self.lo > self.hi:
            raise InvalidInputError(f"interval {self.id}: lo > hi")

    def meets(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi


@dataclass(frozen=True)
class ProperIntervalSet:
    intervals: tuple[Interval, ...]

    def __post_init__(self):
        object.__setattr__(self, "intervals", tuple(self.intervals))
        ids = [iv.id for iv in self.intervals]
        if len(ids) != len(set(ids)):
            raise InvalidInputError("duplicate interval ids")
        bad = containment_violation((iv.lo, iv.hi, iv.id) for iv in self.intervals)
        if bad is not None:
            raise InvalidInputError(
                f"interval {bad[1]} is contained in interval {bad[0]}"
            )

    def by_id(self) -> dict[int, Interval]:
        return {iv.id: iv for iv in self.intervals}


def _interval_cover(targets, hits, hi) -> set[int]:
    """Minimum set of candidate ids meeting every target id.

    ``hits[t]`` holds the candidates meeting target t, all of them on t's
    line, and ``hi`` maps every id to its interval's right end.  Greedy over
    targets by right end, taking the deepest-reaching hit of each target no
    chosen candidate meets yet; an exchange argument makes this optimal for
    arbitrary intervals (properness is only needed for LP integrality, not
    here).  Targets on different lines share no hit, so each line is
    covered on its own.
    """
    chosen: set[int] = set()
    for t in sorted(targets, key=lambda t: (hi[t], t)):
        if chosen.isdisjoint(hits[t]):
            chosen.add(min(hits[t], key=lambda c: (-hi[c], c)))
    return chosen


def spid_exact(s: ProperIntervalSet, t_ids) -> set[int]:
    """Optimal domination of the sub-family T by members of S."""
    table = s.by_id()
    t_ids = set(t_ids)
    missing = t_ids - set(table)
    if missing:
        raise InvalidInputError(f"target ids not in the interval set: {sorted(missing)}")
    # no interval contains another, so right ends rise with left ends and
    # the intervals meeting t are one run of the left-end order
    ivs = sorted(s.intervals, key=lambda iv: iv.lo)
    los, his = [iv.lo for iv in ivs], [iv.hi for iv in ivs]
    hits = {
        t: [iv.id for iv in ivs[bisect_left(his, table[t].lo):bisect_right(los, table[t].hi)]]
        for t in t_ids
    }
    return _interval_cover(t_ids, hits, {iv.id: iv.hi for iv in ivs})


@dataclass(frozen=True)
class StripDecomposition:
    """Hit points and per-target boundary candidate sets.

    ``points`` includes the two sentinels; strip i spans
    [points[i], points[i+1]).  ``left``/``right`` map each target id to the
    candidates that reach it across the strip's left/right boundary line.
    """

    points: tuple[Rat, ...]
    interior: tuple[Rat, ...]
    strips: tuple[frozenset[int], ...]
    strip_of: dict[int, int]
    left: dict[int, frozenset[int]]
    right: dict[int, frozenset[int]]


def build_strips(candidates: list[HSeg], targets: list[VSeg]) -> StripDecomposition:
    """Greedy disjoint-subfamily hit points plus boundary membership."""
    picked_rights: list[Rat] = []
    last_r: Optional[Rat] = None
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
    strips: list[set[int]] = [set() for _ in range(len(points) - 1)]
    strip_of: dict[int, int] = {}
    left: dict[int, frozenset[int]] = {}
    right: dict[int, frozenset[int]] = {}
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


@dataclass(frozen=True)
class PossDetails:
    program: CoverProgram
    lp_solution: CoverSolution
    var_order: tuple[int, ...]
    decomposition: StripDecomposition
    left_rows: frozenset[int]
    right_rows: frozenset[int]
    left_vars: frozenset[int]
    right_vars: frozenset[int]
    left_selected: frozenset[int]
    right_selected: frozenset[int]


def _require_proper(orientation: str, spans) -> None:
    bad = containment_violation(spans)
    if bad is not None:
        raise NotProperError(orientation, list(bad))


def _dedup_rays(rays: list[HRay]) -> list[HRay]:
    # same-height rays: only the farthest-reaching one can matter
    best: dict[Rat, HRay] = {}
    for r in rays:
        cur = best.get(r.y)
        if cur is None or (r.x_right, -r.id) > (cur.x_right, -cur.id):
            best[r.y] = r
    return sorted(best.values(), key=lambda r: r.id)


def _solve_boundary_side(candidates: list[HSeg], targets: list[VSeg], mirror: bool) -> set[int]:
    """One strip/side sub-problem as a canonical ray-stabbing instance.

    Left boundaries keep orientation (a candidate reaches rightward targets
    up to x_hi, exactly a leftward ray's coverage); right boundaries are
    mirrored so the relevant reach x_lo becomes a leftward reach again.
    """
    if mirror:
        rays = [HRay(c.id, c.y, -c.x_lo) for c in candidates]
        segs = [VSeg(t.id, -t.x, t.y_lo, t.y_hi) for t in targets]
    else:
        rays = [HRay(c.id, c.y, c.x_hi) for c in candidates]
        segs = [VSeg(t.id, t.x, t.y_lo, t.y_hi) for t in targets]
    inst = ssr.normalize(ssr.SsrInstance(tuple(_dedup_rays(rays)), tuple(segs)))
    return ssr.solve_fast(inst)


def poss_solve(candidates: list[HSeg], targets: list[VSeg], want_details: bool = False):
    """8-approximate cover of vertical targets by horizontal candidates.

    Row i of the LP is the candidates meeting target i, split by the strip
    boundary they cross.  Every candidate contains a hit point, so one that
    meets a target crosses its strip's left or right boundary, and
    left | right is exactly that row.
    """
    _require_proper("h", ((c.x_lo, c.x_hi, c.id) for c in candidates))
    cand_by_id = {c.id: c for c in candidates}
    if len(cand_by_id) != len(candidates):
        raise InvalidInputError("duplicate candidate ids")
    target_by_id = {t.id: t for t in targets}
    if len(target_by_id) != len(targets):
        raise InvalidInputError("duplicate target ids")

    dec = build_strips(candidates, targets)
    for tid in sorted(target_by_id):
        if not (dec.left[tid] or dec.right[tid]):
            raise InfeasibleTargetError(tid)
    parts = {tid: {"left": dec.left[tid], "right": dec.right[tid]} for tid in target_by_id}

    def solve_label(side, rows, cands):
        step = 0 if side == "left" else 1
        pool = [cand_by_id[c] for c in sorted(cands)]
        selected: set[int] = set()
        for i, strip in enumerate(dec.strips):
            strip_targets = [target_by_id[tid] for tid in sorted(strip & rows)]
            if strip_targets:
                boundary = dec.points[i + step]
                near = [c for c in pool if c.x_lo <= boundary <= c.x_hi]
                selected |= _solve_boundary_side(near, strip_targets, mirror=step == 1)
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


@dataclass(frozen=True)
class PsdDetails:
    program: CoverProgram
    lp_solution: CoverSolution
    var_order: tuple[int, ...]
    same_rows: frozenset[int]
    cross_rows: frozenset[int]
    same_vars: frozenset[int]
    cross_vars: frozenset[int]
    exact_selected: frozenset[int]
    cross_selected: frozenset[int]
    poss_certs: tuple[SolveCertificate, ...]


def _rotate_h(seg: HSeg) -> VSeg:
    return VSeg(seg.id, seg.y, seg.x_lo, seg.x_hi)


def _rotate_v(seg: VSeg) -> HSeg:
    return HSeg(seg.id, seg.x, seg.y_lo, seg.y_hi)


def _cover_rows(table, horiz, constraints, cand_order):
    """(same, cross) candidate-index sets meeting each constraint, in order
    (both empty when nothing meets it), and each segment id's high end as
    an int.

    Both axes go to ints once, on one scale.  Parallel segments meet only on
    a shared carrier line, so same-orientation candidates are bucketed by
    line; crossing candidates are sorted by line, and those whose line falls
    inside the constraint's span are found by bisection.
    """
    segs = [table[u] for u in constraints] + [table[c] for c in cand_order]
    is_h = [s.id in horiz for s in segs]
    x_vals = [s.x_lo if h else s.x for s, h in zip(segs, is_h)]
    x_vals += [s.x_hi if h else s.x for s, h in zip(segs, is_h)]
    y_vals = [s.y if h else s.y_lo for s, h in zip(segs, is_h)]
    y_vals += [s.y if h else s.y_hi for s, h in zip(segs, is_h)]
    _, (xs, ys) = scaled(x_vals, y_vals)
    n = len(segs)
    # (line, lo, hi): the carrier line (y or x) and the span along it
    spans = [
        (ys[i], xs[i], xs[n + i]) if is_h[i] else (xs[i], ys[i], ys[n + i])
        for i in range(n)
    ]
    k = len(constraints)
    cands = spans[k:]
    on_line: dict[tuple[bool, int], list[int]] = {}
    by_line: dict[bool, list[tuple[int, int]]] = {True: [], False: []}
    for idx, (line, _, _) in enumerate(cands):
        h = is_h[k + idx]
        on_line.setdefault((h, line), []).append(idx)
        by_line[h].append((line, idx))
    for pairs in by_line.values():
        pairs.sort()
    lines = {h: [line for line, _ in pairs] for h, pairs in by_line.items()}
    out = []
    for r in range(len(constraints)):
        h = is_h[r]
        line, lo, hi = spans[r]
        same = sorted(
            idx for idx in on_line.get((h, line), ())
            if cands[idx][1] <= hi and lo <= cands[idx][2]
        )
        a = bisect_left(lines[not h], lo)
        b = bisect_right(lines[not h], hi)
        cross = sorted(
            idx for _, idx in by_line[not h][a:b]
            if cands[idx][1] <= line <= cands[idx][2]
        )
        out.append((frozenset(same), frozenset(cross)))
    return out, {s.id: span[2] for s, span in zip(segs, spans)}


def psd_solve(inst: OrthoInstance, want_details: bool = False):
    """18-approximation for covering marked segments with marked segments."""
    _require_proper("h", ((s.x_lo, s.x_hi, s.id) for s in inst.hsegs))
    _require_proper("v", ((s.y_lo, s.y_hi, s.id) for s in inst.vsegs))

    table = inst.segment_by_id()
    horiz = {s.id for s in inst.hsegs}
    constraints = sorted(inst.constraint_ids)
    cand_order = sorted(inst.candidate_ids)
    cover, hi = _cover_rows(table, horiz, constraints, cand_order)
    parts = {}
    for u, (same, cross) in zip(constraints, cover):
        if not same and not cross:
            raise InfeasibleConstraintError(u)
        parts[u] = {
            "same": frozenset(map(cand_order.__getitem__, same)),
            "cross": frozenset(map(cand_order.__getitem__, cross)),
        }
    poss_certs: list[SolveCertificate] = []

    def solve_label(label, rows, cands):
        if label == "same":
            # a same block holds only contacts on the constraint's own line
            return _interval_cover(rows, {u: parts[u]["same"] for u in rows}, hi)
        targets = [table[u] for u in sorted(rows)]
        pool = [table[c] for c in sorted(cands)]
        selected: set[int] = set()
        v_targets = [u for u in targets if u.id not in horiz]
        if v_targets:
            cert = poss_solve([c for c in pool if c.id in horiz], v_targets)
            poss_certs.append(cert)
            selected |= cert.heuristic_ids
        h_targets = [u for u in targets if u.id in horiz]
        if h_targets:
            # quarter-turn the plane so candidates become horizontal again
            v_cands = [c for c in pool if c.id not in horiz]
            cert = poss_solve([_rotate_v(s) for s in v_cands], [_rotate_h(s) for s in h_targets])
            poss_certs.append(cert)
            selected |= cert.heuristic_ids
        return selected

    res = lp_round(cand_order, parts, HALF, solve_label, 18)
    if not want_details:
        return res.certificate
    (s_rows, s_vars), (c_rows, c_vars) = res.part("same"), res.part("cross")
    return res.certificate, PsdDetails(
        program=res.program,
        lp_solution=res.lp_solution,
        var_order=res.var_ids,
        same_rows=s_rows,
        cross_rows=c_rows,
        same_vars=s_vars,
        cross_vars=c_vars,
        exact_selected=res.selected.get("same", frozenset()),
        cross_selected=res.selected.get("cross", frozenset()),
        poss_certs=tuple(poss_certs),
    )
