"""Domination among axis-parallel segments with proper projections.

Three layers: an exact greedy for covering intervals with intervals (LP-
integral when candidates are proper), an 8-approximation for covering
vertical targets with horizontal candidates via strip decomposition, and
the 18-approximation combining both over a mixed instance.  The last two
are ``lp.lp_round``: each LP row is split by strip boundary (left/right)
or by orientation (same/cross), and each label is solved on its own.

Both run on one int view of their segments, made once per call: a
``geom.Seg`` (id, line, lo, hi) holds ``geom.scaled`` ints on one scale,
the segment's carrier line (the y of a horizontal segment, the x of a
vertical one) and its extent along it.  ``psd_solve`` is ``_psd`` on its
instance's ``geom.int_segs``; ``uvpg`` hands ``_psd`` the stretched
``Seg``s of each label directly, and ``_seg_view`` indexes them by id.  A
quarter turn of the plane keeps every ``Seg``, so the cross label covers
horizontal targets with vertical candidates through the same core.  The
strips are found on the same ints, and each strip boundary's sub-problem
goes to ``ssr.solve_fast`` as ``geom.StabColumns``, without
``ssr.normalize``.  No ``HRay``/``VSeg`` and no ``Fraction`` is built
between the LP and the selected ids.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple

from . import ssr
from .errors import (
    InfeasibleConstraintError,
    InfeasibleTargetError,
    InvalidInputError,
    NotProperError,
)
from .geom import (
    HSeg,
    OrthoInstance,
    Rat,
    Seg,
    StabColumns,
    VSeg,
    containment_violation,
    int_segs,
)
from .lp import HALF, CoverProgram, CoverSolution, RoundingResult, SolveCertificate, lp_round
from .lp import solve_lp  # noqa: F401  re-exported: perfbench's tracer tests rebind psd.solve_lp


@dataclass(frozen=True)
class Interval:
    id: int
    lo: Rat
    hi: Rat

    def __post_init__(self):
        if self.lo > self.hi:
            raise InvalidInputError(f"interval {self.id}: lo > hi")


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


class _Strips(NamedTuple):
    """A ``StripDecomposition`` on the ints of the ``Seg``s it was built
    from: ``points`` are the hit points, between two sentinels one unit
    (the ``Seg``s' scale) outside every abscissa."""

    points: list[int]
    strips: list[set[int]]
    strip_of: dict[int, int]
    left: dict[int, frozenset[int]]
    right: dict[int, frozenset[int]]


def _strips(cands: list[Seg], targets: list[Seg], scale: int) -> _Strips:
    """The strips of horizontal candidates and vertical targets on the int
    ``scale``.  The hit points are the right ends of a greedy disjoint
    subfamily, by right end.  The candidates meeting a target are those of
    the y-sorted run inside its y extent, found by bisection, whose x extent
    holds its x."""
    xs = [c[2] for c in cands] + [c[3] for c in cands] + [t[1] for t in targets]
    if not xs:
        return _Strips([], [], {}, {}, {})
    points = [min(xs) - scale]
    for c in sorted(cands, key=lambda c: (c[3], c[2], c[0])):
        if c[2] > points[-1]:
            points.append(c[3])
    points.append(max(xs) + scale)
    by_y = sorted(range(len(cands)), key=lambda k: cands[k][1])
    ys = [cands[k][1] for k in by_y]
    strips: list[set[int]] = [set() for _ in range(len(points) - 1)]
    strip_of: dict[int, int] = {}
    left: dict[int, frozenset[int]] = {}
    right: dict[int, frozenset[int]] = {}
    for tid, x, y_lo, y_hi in targets:
        i = bisect_right(points, x) - 1
        strips[i].add(tid)
        strip_of[tid] = i
        # in input order, which fixes each frozenset's iteration order
        meets = [cands[k] for k in sorted(
            k for k in by_y[bisect_left(ys, y_lo):bisect_right(ys, y_hi)]
            if cands[k][2] <= x <= cands[k][3]
        )]
        a, b = points[i], points[i + 1]
        left[tid] = frozenset(c[0] for c in meets if c[2] <= a <= c[3])
        right[tid] = frozenset(c[0] for c in meets if c[2] <= b <= c[3])
    return _Strips(points, strips, strip_of, left, right)


def _decomposition(st: _Strips, scale: int) -> StripDecomposition:
    """The ``StripDecomposition`` of the strips ``st``, with their int
    points on ``scale`` as ``Fraction``s."""
    points = tuple(Fraction(p, scale) for p in st.points)
    return StripDecomposition(
        points, points[1:-1], tuple(map(frozenset, st.strips)), st.strip_of, st.left, st.right,
    )


def build_strips(candidates: list[HSeg], targets: list[VSeg]) -> StripDecomposition:
    """Greedy disjoint-subfamily hit points plus boundary membership.

    The work runs once on the inputs' ``Seg``s; the points are their ints
    turned back into ``Fraction``s, equal to the inputs' own values.
    """
    scale, cands, tgts = int_segs(candidates, targets)
    return _decomposition(_strips(cands, tgts, scale), scale)


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


def _solve_boundary_side(cands: list[Seg], targets: list[Seg], mirror: bool, scale: int) -> set[int]:
    """One strip/side sub-problem as a canonical ray-stabbing instance, on
    the int ``scale`` of the ``Seg``s.

    Left boundaries keep orientation (a candidate reaches rightward targets
    up to x_hi, exactly a leftward ray's coverage); right boundaries are
    mirrored (x negated) so the relevant reach x_lo becomes a leftward
    reach again.  Of same-height rays only the farthest-reaching one can
    matter.  Targets go to ``ssr.solve_fast`` in id order, which fixes the
    infeasible segment it reports among equal abscissas.
    """
    best: dict[int, tuple[int, int, int]] = {}
    for cid, y, lo, hi in cands:
        reach = -lo if mirror else hi
        cur = best.get(y)
        if cur is None or (reach, -cid) > (cur[2], -cur[0]):
            best[y] = (cid, y, reach)
    rays = sorted(best.values())
    targets = sorted(targets)
    sign = -1 if mirror else 1
    columns = StabColumns(
        [r[0] for r in rays], [r[1] for r in rays], [r[2] for r in rays],
        [t[0] for t in targets], [sign * t[1] for t in targets],
        [t[2] for t in targets], [t[3] for t in targets], 0, scale, 0, scale,
    )
    return ssr.solve_fast(ssr.SsrInstance.from_columns(columns))


def _poss(cands: list[Seg], targets: list[Seg], st: _Strips, scale: int) -> RoundingResult:
    """``poss_solve`` on horizontal candidates and vertical targets, each
    family with distinct ids, and their strips ``st``.

    Row i of the LP is the candidates meeting target i, split by the strip
    boundary they cross.  Every candidate contains a hit point, so one that
    meets a target crosses its strip's left or right boundary, and
    left | right is exactly that row.  A proper candidate contains exactly
    one hit point (two would be the right ends of disjoint candidates, one
    of them nested in it), so the candidates at a boundary are those whose
    point it is.
    """
    for tid in sorted(t[0] for t in targets):
        if not (st.left[tid] or st.right[tid]):
            raise InfeasibleTargetError(tid)
    parts = {t[0]: {"left": st.left[t[0]], "right": st.right[t[0]]} for t in targets}
    cand_by_id = {c[0]: c for c in cands}
    target_by_id = {t[0]: t for t in targets}

    def solve_label(side, rows, var_ids):
        step = 0 if side == "left" else 1
        at_point: dict[int, list[Seg]] = {}
        for c in map(cand_by_id.__getitem__, sorted(var_ids)):
            at_point.setdefault(bisect_right(st.points, c[3]) - 1, []).append(c)
        selected: set[int] = set()
        for i, strip in enumerate(st.strips):
            strip_targets = [target_by_id[t] for t in sorted(strip & rows)]
            if strip_targets:
                near = at_point.get(i + step, [])
                selected |= _solve_boundary_side(near, strip_targets, step == 1, scale)
        return selected

    return lp_round(cand_by_id, parts, HALF, solve_label, 8)


def poss_solve(candidates: list[HSeg], targets: list[VSeg], want_details: bool = False):
    """8-approximate cover of vertical targets by horizontal candidates (see
    ``_poss``), on the inputs' ``Seg``s."""
    scale, cands, tgts = int_segs(candidates, targets)
    _require_proper("h", ((lo, hi, cid) for cid, _, lo, hi in cands))
    if len({c[0] for c in cands}) != len(cands):
        raise InvalidInputError("duplicate candidate ids")
    if len({t[0] for t in tgts}) != len(tgts):
        raise InvalidInputError("duplicate target ids")
    st = _strips(cands, tgts, scale)
    res = _poss(cands, tgts, st, scale)
    if not want_details:
        return res.certificate
    (l_rows, l_vars), (r_rows, r_vars) = res.part("left"), res.part("right")
    return res.certificate, PossDetails(
        program=res.program,
        lp_solution=res.lp_solution,
        var_order=res.var_ids,
        decomposition=_decomposition(st, scale),
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


def _seg_view(h: list[Seg], v: list[Seg]) -> tuple[dict[int, Seg], frozenset[int]]:
    """Every ``Seg`` of the horizontal ``h`` and vertical ``v`` by id, and
    the horizontal ids."""
    seg = {s[0]: s for s in h}
    seg.update((s[0], s) for s in v)
    return seg, frozenset(s[0] for s in h)


def _cover_rows(seg, horiz, constraints, cand_order) -> list[tuple[frozenset[int], frozenset[int]]]:
    """(same, cross) ids of the candidates meeting each constraint, in
    order (both empty when nothing meets it), from ``_seg_view``'s
    ``Seg`` by id and horizontal ids.

    Parallel segments meet only on a shared carrier line, so same-orientation
    candidates are bucketed by line; crossing candidates are sorted by line,
    and those whose line falls inside the constraint's span are found by
    bisection.
    """
    on_line: dict[tuple[bool, int], list[Seg]] = {}
    by_line: dict[bool, list[Seg]] = {True: [], False: []}
    for c in cand_order:
        h = c in horiz
        on_line.setdefault((h, seg[c][1]), []).append(seg[c])
        by_line[h].append(seg[c])
    for segs in by_line.values():
        segs.sort(key=lambda s: s[1])
    lines = {h: [s[1] for s in segs] for h, segs in by_line.items()}
    out = []
    for u in constraints:
        h = u in horiz
        _, line, lo, hi = seg[u]
        same = frozenset(c[0] for c in on_line.get((h, line), ()) if c[2] <= hi and lo <= c[3])
        crossing = by_line[not h][bisect_left(lines[not h], lo):bisect_right(lines[not h], hi)]
        cross = frozenset(sorted(c[0] for c in crossing if c[2] <= line <= c[3]))
        out.append((same, cross))
    return out


def _psd(
    scale: int,
    h: list[Seg],
    v: list[Seg],
    constraint_ids: Iterable[int],
    candidate_ids: Iterable[int],
) -> tuple[RoundingResult, list[SolveCertificate]]:
    """``psd_solve`` on the horizontal and vertical ``Seg``s ``h`` and
    ``v``, on the int ``scale`` and with distinct ids, for the given role
    ids: the rounding result and the cross label's poss certificates."""
    _require_proper("h", (s[2:] + (s[0],) for s in h))
    _require_proper("v", (s[2:] + (s[0],) for s in v))
    seg, horiz = _seg_view(h, v)

    constraints = sorted(constraint_ids)
    cand_order = sorted(candidate_ids)
    parts = {}
    for u, (same, cross) in zip(constraints, _cover_rows(seg, horiz, constraints, cand_order)):
        if not same and not cross:
            raise InfeasibleConstraintError(u)
        parts[u] = {"same": same, "cross": cross}
    poss_certs: list[SolveCertificate] = []

    def solve_label(label, rows, cands):
        if label == "same":
            # a same block holds only contacts on the constraint's own line
            hi = {i: s[3] for i, s in seg.items()}
            return _interval_cover(rows, {u: parts[u]["same"] for u in rows}, hi)
        rows, cands = sorted(rows), sorted(cands)
        selected: set[int] = set()
        # vertical targets take horizontal candidates; then, after a quarter
        # turn of the plane, which keeps every Seg, horizontal targets take
        # vertical ones
        for turned in (False, True):
            targets = [seg[u] for u in rows if (u in horiz) == turned]
            if targets:
                pool = [seg[c] for c in cands if (c in horiz) != turned]
                cert = _poss(pool, targets, _strips(pool, targets, scale), scale).certificate
                poss_certs.append(cert)
                selected |= cert.heuristic_ids
        return selected

    return lp_round(cand_order, parts, HALF, solve_label, 18), poss_certs


def psd_solve(inst: OrthoInstance, want_details: bool = False):
    """18-approximation for covering marked segments with marked segments
    (``_psd`` on the instance's ``Seg``s)."""
    res, poss_certs = _psd(*int_segs(inst.hsegs, inst.vsegs), inst.constraint_ids, inst.candidate_ids)
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
