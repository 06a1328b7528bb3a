"""Dominating sets in intersection graphs of unit axis-parallel paths.

A path is a chain of unit-length legs, alternating between horizontal and
vertical.  Two paths are adjacent when any pair of legs meets, which
``geom.leg_contacts`` finds.  Domination is ``lp.lp_round`` over the
domination LP with each row split by first-contact label (i, j), read off
those leg contacts; each label reduces to segment covering with proper
projections, solved by ``psd.psd_solve``.  ``solve_mds`` builds each path's
canonical leg segments once per call and every label's instance indexes
into them; ``geom.properize`` stretches each label's legs on ints.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import InvalidInputError, InvalidPathError
from .geom import Box, HSeg, OrthoInstance, Rat, VSeg, as_rat, leg_contacts, properize, scaled
from .lp import CoverProgram, CoverSolution, SolveCertificate, lp_round
from .psd import psd_solve

_STEP = {"L": (-1, 0), "R": (1, 0), "U": (0, 1), "D": (0, -1)}
_FLIP = {"L": "R", "R": "L", "U": "D", "D": "U"}


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

    def leg_segments(self) -> list[Union[HSeg, VSeg]]:
        """Leg i (1-based) as a unit segment; segment id is the leg number."""
        segs: list[Union[HSeg, VSeg]] = []
        pts = self.points()
        for i, d in enumerate(self.legs):
            (x0, y0), (x1, y1) = pts[i], pts[i + 1]
            if _axis(d) == "h":
                segs.append(HSeg(i + 1, y0, min(x0, x1), max(x0, x1)))
            else:
                segs.append(VSeg(i + 1, x0, min(y0, y1), max(y0, y1)))
        return segs

    def canonical(self) -> "UnitKBendPath":
        """Reorient so traversal starts at the lexicographically smaller
        endpoint; leg numbering is only meaningful on canonical paths."""
        pts = self.points()
        if pts[-1] < pts[0]:
            flipped = tuple(_FLIP[d] for d in reversed(self.legs))
            return UnitKBendPath(self.id, pts[-1][0], pts[-1][1], flipped)
        return self


@dataclass(frozen=True)
class ContactStructure:
    neighborhoods: dict[int, frozenset[int]]
    phi: dict[tuple[int, int], tuple[int, int]]
    partition: dict[int, dict[tuple[int, int], frozenset[int]]]


def _leg_boxes(legs: tuple[str, ...], x: int, y: int, lx: int, ly: int) -> list[Box]:
    """Legs as closed boxes (x_lo, x_hi, y_lo, y_hi), axes scaled by lx, ly,
    walked from the start point (x, y) on those scales.

    A leg is its own box, so two legs meet exactly when their boxes do.
    """
    boxes = []
    for d in legs:
        dx, dy = _STEP[d]
        nx, ny = x + dx * lx, y + dy * ly
        boxes.append((min(x, nx), max(x, nx), min(y, ny), max(y, ny)))
        x, y = nx, ny
    return boxes


def build_graph(paths: list[UnitKBendPath]) -> ContactStructure:
    """Closed neighborhoods, first-contact labels, and the label partition.

    phi[(u, v)] is the lexicographically least pair (i, j) with leg i of u
    meeting leg j of v; minimality in lex order already rules out any
    strictly smaller crossing pair, so it matches the partition rule.  A
    path meets itself first at (1, 1).

    Other pairs come from ``geom.leg_contacts`` over the canonical paths'
    ``_leg_boxes``: phi[(u, v)] is the first of its hits and phi[(v, u)] the
    least of them reversed.
    """
    ids = [p.id for p in paths]
    if len(ids) != len(set(ids)):
        raise InvalidInputError("duplicate path ids")
    canon = [p.canonical() for p in paths]
    # every point of a path is its start plus whole steps
    lx, (xs,) = scaled([p.start_x for p in canon])
    ly, (ys,) = scaled([p.start_y for p in canon])
    legs = [_leg_boxes(p.legs, x, y, lx, ly) for p, x, y in zip(canon, xs, ys)]
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


def _label_instance(
    label: tuple[int, int],
    legs: dict[int, list[Union[HSeg, VSeg]]],
    row_ids: list[int],
    var_ids: list[int],
):
    """Geometric covering instance for one contact label.

    ``legs[pid]`` is the ``leg_segments`` of path pid's canonical form.
    Constraints are the i-th legs of the row paths, candidates the j-th legs
    of the column paths.  A leg playing both roles is entered twice under
    fresh ids; the maps recover path ids afterwards.
    """
    i, j = label
    hsegs: list[HSeg] = []
    vsegs: list[VSeg] = []
    constraint_ids = set()
    candidate_ids = set()
    cand_owner: dict[int, int] = {}
    next_id = 0

    def add(seg, role_constraint: bool, owner: int):
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


def solve_mds(paths: list[UnitKBendPath], k: int, want_details: bool = False):
    """Dominating set within 18(k+1)^4 of the fractional optimum."""
    if k < 0:
        raise InvalidInputError("negative bend bound")
    for p in paths:
        if len(p.legs) > k + 1:
            raise InvalidPathError(p.id, f"more than {k + 1} legs")
    contacts = build_graph(paths)
    # every label reads one leg of each of its paths: build them once
    legs = {p.id: p.canonical().leg_segments() for p in paths}
    labels: dict[tuple[int, int], LabelOutcome] = {}

    def solve_label(label, rows, cands):
        inst, cand_owner = _label_instance(label, legs, sorted(rows), sorted(cands))
        cert = psd_solve(properize(inst))
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
