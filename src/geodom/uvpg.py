"""Dominating sets in intersection graphs of unit axis-parallel paths.

A path is a chain of unit-length legs, alternating between horizontal and
vertical.  Two paths are adjacent when any pair of legs meets, which
``geom.leg_contacts`` finds.  Domination is ``lp.lp_round`` over the
domination LP with each row split by first-contact label (i, j), read off
those leg contacts; each label reduces to segment covering with proper
projections, solved by psd's core.

``solve_mds`` walks every path's legs once per call, on ``geom.scaled``
ints of one scale for both axes (``_int_legs``).  Those leg boxes feed the
contact sweep, and each label's legs reach ``geom``'s int stretch and psd's
core as ``Seg`` tuples, so no segment, instance or coordinate ``Fraction``
is built between the input paths and the selected ids.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidInputError, InvalidPathError
from .geom import Box, Rat, Seg, _properize_segs, as_rat, leg_contacts, scaled
from .geom import properize  # noqa: F401  re-exported: perfbench's tracer tests read uvpg.properize
from .lp import CoverProgram, CoverSolution, SolveCertificate, lp_round
from .psd import _psd
from .psd import psd_solve  # noqa: F401  re-exported: perfbench's tracer tests read uvpg.psd_solve

_STEP = {"L": (-1, 0), "R": (1, 0), "U": (0, 1), "D": (0, -1)}


def _axis(direction: str) -> str:
    return "h" if direction in ("L", "R") else "v"


@dataclass(frozen=True)
class UnitKBendPath:
    id: int
    start_x: Rat
    start_y: Rat
    legs: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "start_x", as_rat(self.start_x))
        object.__setattr__(self, "start_y", as_rat(self.start_y))
        object.__setattr__(self, "legs", tuple(self.legs))
        if not self.legs:
            raise InvalidPathError(self.id, "path needs at least one leg")
        for d in self.legs:
            if d not in _STEP:
                raise InvalidPathError(self.id, f"unknown direction {d!r}")
        for a, b in zip(self.legs, self.legs[1:]):
            if _axis(a) == _axis(b):
                raise InvalidPathError(
                    self.id, f"legs {a!r},{b!r} do not alternate orientation"
                )

    def points(self) -> list[tuple[Rat, Rat]]:
        pts = [(self.start_x, self.start_y)]
        x, y = self.start_x, self.start_y
        for d in self.legs:
            dx, dy = _STEP[d]
            x, y = x + dx, y + dy
            pts.append((x, y))
        return pts


@dataclass(frozen=True)
class ContactStructure:
    neighborhoods: dict[int, frozenset[int]]
    phi: dict[tuple[int, int], tuple[int, int]]
    partition: dict[int, dict[tuple[int, int], frozenset[int]]]


def _int_legs(paths: list[UnitKBendPath]) -> tuple[int, list[list[Box]]]:
    """Every path's legs as closed int boxes (x_lo, x_hi, y_lo, y_hi), in
    canonical order, and their ``scaled`` scale, shared by both axes.

    A path's canonical orientation runs from its lexicographically smaller
    endpoint, (x, y) compared as a pair; an exact tie, a path ending where
    it starts, keeps the start.  Leg i (1-based) is the i-th leg in that
    orientation, so a path is walked once from its start and its boxes are
    reversed when its end is the smaller endpoint.  A leg is its own box,
    so two legs meet exactly when their boxes do.
    """
    scale, (xs, ys) = scaled([p.start_x for p in paths], [p.start_y for p in paths])
    steps = {d: (dx * scale, dy * scale) for d, (dx, dy) in _STEP.items()}
    out = []
    for p, x, y in zip(paths, xs, ys):
        start = (x, y)
        boxes = []
        for d in p.legs:
            dx, dy = steps[d]
            nx, ny = x + dx, y + dy
            boxes.append((min(x, nx), max(x, nx), min(y, ny), max(y, ny)))
            x, y = nx, ny
        if (x, y) < start:
            boxes.reverse()
        out.append(boxes)
    return scale, out


def _contacts(ids: list[int], legs: list[list[Box]]) -> ContactStructure:
    """``build_graph`` of paths with these ids and canonical leg boxes."""
    if len(ids) != len(set(ids)):
        raise InvalidInputError("duplicate path ids")
    # contacts[u][v] is phi[(u, v)]
    contacts = {u: {u: (1, 1)} for u in sorted(ids)}
    for p, q, hits in leg_contacts(legs):
        u, v = ids[p], ids[q]
        contacts[u][v] = hits[0]
        contacts[v][u] = min([(j, i) for i, j in hits])
    phi = {(u, v): row[v] for u, row in contacts.items() for v in sorted(row)}
    partition: dict[int, dict[tuple[int, int], frozenset[int]]] = {}
    for u, row in contacts.items():
        blocks: dict[tuple[int, int], set[int]] = {}
        for v, label in row.items():
            blocks.setdefault(label, set()).add(v)
        partition[u] = {lab: frozenset(vs) for lab, vs in blocks.items()}
    return ContactStructure({u: frozenset(contacts[u]) for u in ids}, phi, partition)


def build_graph(paths: list[UnitKBendPath]) -> ContactStructure:
    """Closed neighborhoods, first-contact labels, and the label partition.

    phi[(u, v)] is the lexicographically least pair (i, j) with leg i of u
    meeting leg j of v; minimality in lex order already rules out any
    strictly smaller crossing pair, so it matches the partition rule.  A
    path meets itself first at (1, 1).

    Other pairs come from ``geom.leg_contacts`` over the canonical leg
    boxes of ``_int_legs``: phi[(u, v)] is the first of its hits and
    phi[(v, u)] the least of them reversed.
    """
    return _contacts([p.id for p in paths], _int_legs(paths)[1])


@dataclass(frozen=True)
class LabelOutcome:
    rows: frozenset[int]
    vars: frozenset[int]
    certificate: SolveCertificate
    chosen_paths: frozenset[int]


@dataclass(frozen=True)
class UvpgDetails:
    program: CoverProgram
    lp_solution: CoverSolution
    order: tuple[int, ...]
    contacts: ContactStructure
    labels: dict[tuple[int, int], LabelOutcome]


def _label_segs(
    rows: list[list[Box]], cands: list[list[Box]], i: int, j: int
) -> tuple[list[Seg], list[Seg]]:
    """The horizontal and vertical ``Seg``s of one contact label (i, j):
    leg i of each row path's boxes, then leg j of each candidate path's,
    under fresh ids 0, 1, ... in that order, so a leg playing both roles is
    entered twice."""
    h: list[Seg] = []
    v: list[Seg] = []
    legs = [b[i - 1] for b in rows] + [b[j - 1] for b in cands]
    for rid, (x_lo, x_hi, y_lo, y_hi) in enumerate(legs):
        if y_lo == y_hi:
            h.append((rid, y_lo, x_lo, x_hi))
        else:
            v.append((rid, x_lo, y_lo, y_hi))
    return h, v


def solve_mds(paths: list[UnitKBendPath], k: int, want_details: bool = False):
    """Dominating set within 18(k+1)^4 of the fractional optimum.

    Each label (i, j) covers leg i of its row paths with leg j of its
    candidate paths: ``geom``'s int stretch makes both projection families
    proper, and psd's core solves the cover on those ``Seg``s.
    """
    if k < 0:
        raise InvalidInputError("negative bend bound")
    for p in paths:
        if len(p.legs) > k + 1:
            raise InvalidPathError(p.id, f"more than {k + 1} legs")
    ids = [p.id for p in paths]
    scale, legs = _int_legs(paths)
    contacts = _contacts(ids, legs)
    legs_of = dict(zip(ids, legs))
    labels: dict[tuple[int, int], LabelOutcome] = {}

    def solve_label(label, rows, cands):
        row_ids, cand_ids = sorted(rows), sorted(cands)
        h, v = _label_segs(
            [legs_of[u] for u in row_ids], [legs_of[u] for u in cand_ids], *label
        )
        n = len(row_ids)
        res, _ = _psd(*_properize_segs(scale, h, v), range(n), range(n, n + len(cand_ids)))
        cert = res.certificate
        picked = frozenset(cand_ids[rid - n] for rid in cert.heuristic_ids)
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


def grid_to_unit_b1(height: int, width: int) -> list[UnitKBendPath]:
    """Single-bend paths whose contact graph is the height-by-width grid.

    Cell (x, y), 1-based, maps to id (x-1)*width + (y-1).  Columns are
    sheared downward by (x-1)/(height*width) so horizontal contacts happen
    strictly inside vertical legs while diagonal pairs stay apart.
    """
    if height < 1 or width < 1:
        raise InvalidInputError("grid dimensions must be positive")
    eps = Fraction(1, height * width)
    paths = []
    for x in range(1, height + 1):
        for y in range(1, width + 1):
            pid = (x - 1) * width + (y - 1)
            top = Fraction(y) - eps * (x - 1)
            paths.append(UnitKBendPath(pid, Fraction(x), top, ("D", "R")))
    return paths
