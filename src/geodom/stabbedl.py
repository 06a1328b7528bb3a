"""Dominating-set 8-approximation on L-paths crossed by one vertical line.

Every path is an L: a vertical leg rising from the corner plus a horizontal
leg running right from it.  The pipeline is ``lp.lp_round`` over the
domination LP, with each closed neighbourhood row split into its
horizontal-leg and vertical-leg contacts; the two labels reduce to the
ray/segment stabbing problems ``srs`` and ``ssr``.  ``build_graph`` reads
both labels off ``geom.leg_contacts``.  The layout checks of ``normalize``,
the graph and both labels read the paths' ``geom.scaled`` ints, one scale
per axis, which ``solve_mds`` makes once per call: each label's
sub-instance travels as ``geom.StabColumns`` of mirrored rays and vertical
legs, and the vertical label's shrink is an int.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import srs, ssr
from .errors import AssumptionViolationError, InvalidInputError
from .geom import Rat, StabColumns, leg_contacts, scaled
from .lp import HALF, CoverProgram, CoverSolution, lp_round


@dataclass(frozen=True)
class LPath:
    id: int
    corner_x: Rat
    corner_y: Rat
    vlen: Rat
    hlen: Rat

    def __post_init__(self):
        if self.vlen <= 0 or self.hlen <= 0:
            raise InvalidInputError(f"LPath {self.id}: legs need positive length")


@dataclass(frozen=True)
class StabbedLInstance:
    paths: tuple[LPath, ...]
    line_x: Rat = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "paths", tuple(self.paths))
        ids = [p.id for p in self.paths]
        if len(ids) != len(set(ids)):
            raise InvalidInputError("duplicate path ids")


def _int_paths(paths) -> tuple[int, list[int], list[int], int, list[int], list[int]]:
    """(x scale, corner xs, hlens, y scale, corner ys, vlens) of the paths
    as ``scaled`` ints, one scale per axis."""
    sx, (x0, hlen) = scaled([p.corner_x for p in paths], [p.hlen for p in paths])
    sy, (y0, vlen) = scaled([p.corner_y for p in paths], [p.vlen for p in paths])
    return sx, x0, hlen, sy, y0, vlen


def _at_origin(inst: StabbedLInstance) -> tuple[LPath, ...]:
    """The paths with the stabbing line moved to x=0 (the input paths when
    it is there already)."""
    shift = inst.line_x
    return inst.paths if shift == 0 else tuple(
        LPath(p.id, p.corner_x - shift, p.corner_y, p.vlen, p.hlen) for p in inst.paths
    )


def _check_layout(ids: list[int], view) -> None:
    """``normalize``'s layout checks on the paths' ``_int_paths`` view."""
    _, x0, hlen, _, y0, vlen = view
    missing = [i for i, x, h in zip(ids, x0, hlen) if x > 0 or x + h < 0]
    if missing:
        raise AssumptionViolationError("i", missing)
    on_line = [i for i, x in zip(ids, x0) if x == 0]
    if on_line:
        raise AssumptionViolationError("ii", on_line)
    by_y: dict[int, list[int]] = {}
    for i, y in zip(ids, y0):
        by_y.setdefault(y, []).append(i)
    clashes = [group for group in by_y.values() if len(group) > 1]
    if clashes:
        raise AssumptionViolationError("iii", sorted(clashes[0]))
    by_x: dict[int, list[int]] = {}  # positions in ``ids``
    for k, x in enumerate(x0):
        by_x.setdefault(x, []).append(k)
    for group in by_x.values():
        group.sort(key=y0.__getitem__)
        for lo, hi in zip(group, group[1:]):
            if y0[lo] + vlen[lo] > y0[hi]:
                raise AssumptionViolationError("iii", sorted([ids[lo], ids[hi]]))


def normalize(inst: StabbedLInstance) -> StabbedLInstance:
    """Translate the stabbing line to x=0 and validate the layout rules.

    (i) the line meets every path, (ii) no corner lies on the line, and
    (iii) no two paths share more than a single point.  Because every
    horizontal leg must cross x=0 while corners sit strictly left of it,
    equal corner heights always force an overlap, so (iii) reduces to
    distinct corner heights plus non-overlapping collinear vertical legs.

    The input paths are kept when the line is already at x=0.  The checks
    run on ``scaled`` ints, one scale per axis.
    """
    paths = _at_origin(inst)
    _check_layout([p.id for p in paths], _int_paths(paths))
    return StabbedLInstance(paths, Fraction(0))


@dataclass(frozen=True)
class NeighborhoodPartition:
    """Closed neighbourhoods split by contact type.

    horizontal[u] holds the members of N[u] whose path touches u's
    horizontal leg (u always included); vertical[u] holds the remaining
    neighbours, each of which touches u's vertical leg strictly above the
    corner.
    """

    horizontal: dict[int, frozenset[int]]
    vertical: dict[int, frozenset[int]]


def build_graph(inst: StabbedLInstance):
    """Adjacency (closed neighbourhoods) plus the leg-contact partition.

    Each path is passed to ``geom.leg_contacts`` as its vertical leg (leg 1)
    and its horizontal leg (leg 2), in ints with one scale per axis.  v
    joins horizontal[u] exactly when u's horizontal leg meets v's vertical
    one.  Sets are filled in the input-order pair sequence of the all-pairs
    definition.
    """
    return _build_graph([p.id for p in inst.paths], _int_paths(inst.paths))


def _build_graph(ids: list[int], view):
    """``build_graph`` of paths with these ids and ``_int_paths`` view."""
    _, x0, hlen, _, y0, vlen = view
    legs = [((x, x, y, y + v), (x, x + h, y, y)) for x, h, y, v in zip(x0, hlen, y0, vlen)]
    horizontal: dict[int, set[int]] = {u: {u} for u in ids}
    vertical: dict[int, set[int]] = {u: set() for u in ids}
    for i, j, hits in leg_contacts(legs):
        a, b = ids[i], ids[j]
        # contact classification is per endpoint's own horizontal leg
        (horizontal if (2, 1) in hits else vertical)[a].add(b)
        (horizontal if (1, 2) in hits else vertical)[b].add(a)
    neighborhoods = {u: frozenset(horizontal[u] | vertical[u]) for u in horizontal}
    partition = NeighborhoodPartition(
        {u: frozenset(v) for u, v in horizontal.items()},
        {u: frozenset(v) for u, v in vertical.items()},
    )
    return neighborhoods, partition


@dataclass(frozen=True)
class StabbedLDetails:
    """Intermediate pipeline state, exposed for end-to-end auditing;
    ``ssr_instance`` is the vertical label's sub-instance after
    ``ssr.normalize`` (the solve reads it raw)."""

    program: CoverProgram
    lp_solution: CoverSolution
    index_of: dict[int, int]
    h_rows: frozenset[int]
    v_rows: frozenset[int]
    h_candidates: frozenset[int]
    v_candidates: frozenset[int]
    srs_instance: Optional[srs.SrsInstance]
    ssr_instance: Optional[ssr.SsrInstance]
    srs_selected: frozenset[int]
    ssr_selected: frozenset[int]


def _lift(ys, lens) -> int:
    """The least positive difference among the corner heights ``ys``, capped
    by the shortest constrained vertical leg in ``lens``, as an int on
    their common scale."""
    ys = sorted(set(ys))
    return min([b - a for a, b in zip(ys, ys[1:])] + lens)


def solve_mds(inst: StabbedLInstance, want_details: bool = False):
    """8-approximate dominating set over the path intersection graph."""
    # one int view of the translated paths serves the layout checks, the
    # graph and both labels
    paths = _at_origin(inst)
    ids = [p.id for p in paths]
    view = _int_paths(paths)
    _check_layout(ids, view)
    _, partition = _build_graph(ids, view)
    sx, x0, _, sy, y0, vlen = view
    pos = {u: k for k, u in enumerate(ids)}
    parts = {u: {"h": partition.horizontal[u], "v": partition.vertical[u]} for u in pos}
    subs = {}

    def columns(ray_ids, leg_ids, f=1, lift=0):
        # paths as leftward rays and vertical legs, x mirrored; y on f times
        # its scale, legs raised by lift
        r = [pos[u] for u in ray_ids]
        v = [pos[u] for u in leg_ids]
        return StabColumns(
            ray_ids, [f * y0[k] for k in r], [-x0[k] for k in r],
            leg_ids, [-x0[k] for k in v], [f * y0[k] + lift for k in v],
            [f * (y0[k] + vlen[k]) for k in v], 0, f * sy, 0, sx,
        )

    def solve_label(label, rows, cands):
        rows, cands = sorted(rows), sorted(cands)
        if label == "h":
            # constrained paths become rays, candidate vertical legs stay exact
            subs[label] = srs.SrsInstance.from_columns(columns(rows, cands))
            return srs.solve(subs[label])[0]
        # candidate paths become rays, constrained vertical legs lose half a
        # lift above the corner so a path cannot satisfy its own row
        # through the shared corner point
        lift = _lift(y0, [vlen[pos[u]] for u in rows])
        subs[label] = ssr.SsrInstance.from_columns(columns(cands, rows, 2, lift))
        return ssr.solve_fast(subs[label])

    res = lp_round(pos, parts, HALF, solve_label, 8)
    if not want_details:
        return res.certificate
    (h_rows, h_vars), (v_rows, v_vars) = res.part("h"), res.part("v")
    details = StabbedLDetails(
        program=res.program,
        lp_solution=res.lp_solution,
        index_of={pid: i for i, pid in enumerate(res.var_ids)},
        h_rows=h_rows,
        v_rows=v_rows,
        h_candidates=h_vars,
        v_candidates=v_vars,
        srs_instance=subs.get("h"),
        ssr_instance=ssr.normalize(subs["v"]) if "v" in subs else None,
        srs_selected=res.selected.get("h", frozenset()),
        ssr_selected=res.selected.get("v", frozenset()),
    )
    return res.certificate, details
