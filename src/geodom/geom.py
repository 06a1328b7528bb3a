"""Exact axis-parallel geometry: rays, segments, gap analysis, perturbation.

All coordinates are exact rationals (``fractions.Fraction``).  Intersection
is closed: touching at a single point counts.  A leftward ray is the closed
half-line {(t, y) : t <= x_right}.

The per-item kernels (``properize``'s stretch, ``min_positive_gap``,
``leg_contacts``) compare, rank and shift ``scaled`` ints and build a
``Fraction`` only for a value they return.
"""
from __future__ import annotations

import math
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter, itemgetter
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .errors import InvalidInputError

Rat = Fraction

#: Designated "+infinity" marker returned by min_positive_gap when the
#: instance has no disjoint pair of segments.
NO_GAP = None


#: the strings ``rat_str`` writes: ASCII digits, no leading zero, no "-0",
#: and a denominator above 1 if any
_CANONICAL = re.compile(r"(0|-?[1-9][0-9]*)(?:/([2-9]|[1-9][0-9]+))?")


def as_rat(value) -> Rat:
    """Coerce an int, Fraction, or canonical "p/q" string to a Rat.

    A string must be exactly what ``rat_str`` writes for its value ("p", or
    "p/q" with q > 1 and gcd(p, q) = 1), so "1e1", " 0.5", "1_000", "+2",
    "2/4" and non-ASCII digits are rejected.  The value is built from the
    two ints.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        m = _CANONICAL.fullmatch(value)
        if m is not None:
            try:
                p, q = int(m[1]), int(m[2] or 1)
            except ValueError:  # past the interpreter's int digit limit
                pass
            else:
                if math.gcd(p, q) == 1:
                    return Fraction(p, q)
        raise InvalidInputError(f"bad rational literal {value!r}")
    raise InvalidInputError(f"cannot interpret {value!r} as a rational")


def rat_str(value: Rat) -> str:
    """Canonical serialization: "p/q" with gcd(p,q)=1, q>0; "p" when q=1."""
    return str(value)


@dataclass(frozen=True)
class HRay:
    """Horizontal leftward ray ending at (x_right, y)."""

    id: int
    y: Rat
    x_right: Rat


@dataclass(frozen=True)
class VSeg:
    """Vertical closed segment at abscissa x spanning [y_lo, y_hi]."""

    id: int
    x: Rat
    y_lo: Rat
    y_hi: Rat

    def __post_init__(self):
        if self.y_lo > self.y_hi:
            raise InvalidInputError(f"VSeg {self.id}: y_lo > y_hi")


@dataclass(frozen=True)
class HSeg:
    """Horizontal closed segment at ordinate y spanning [x_lo, x_hi]."""

    id: int
    y: Rat
    x_lo: Rat
    x_hi: Rat

    def __post_init__(self):
        if self.x_lo > self.x_hi:
            raise InvalidInputError(f"HSeg {self.id}: x_lo > x_hi")


GeomObject = Union[HRay, VSeg, HSeg]


def _ranges_overlap(a_lo, a_hi, b_lo, b_hi) -> bool:
    return a_lo <= b_hi and b_lo <= a_hi


def intersects(a: GeomObject, b: GeomObject) -> bool:
    """Closed intersection test for any pair of rays/segments."""
    if isinstance(a, HRay):
        if isinstance(b, HRay):
            return a.y == b.y
        if isinstance(b, VSeg):
            return b.x <= a.x_right and b.y_lo <= a.y <= b.y_hi
        if isinstance(b, HSeg):
            return a.y == b.y and b.x_lo <= a.x_right
    elif isinstance(a, VSeg):
        if isinstance(b, HRay):
            return intersects(b, a)
        if isinstance(b, VSeg):
            return a.x == b.x and _ranges_overlap(a.y_lo, a.y_hi, b.y_lo, b.y_hi)
        if isinstance(b, HSeg):
            return b.x_lo <= a.x <= b.x_hi and a.y_lo <= b.y <= a.y_hi
    elif isinstance(a, HSeg):
        if isinstance(b, HSeg):
            return a.y == b.y and _ranges_overlap(a.x_lo, a.x_hi, b.x_lo, b.x_hi)
        return intersects(b, a)
    raise InvalidInputError(f"cannot intersect {type(a).__name__} with {type(b).__name__}")


#: a closed int box (x_lo, x_hi, y_lo, y_hi); a leg is a degenerate one
Box = tuple[int, int, int, int]


def leg_contacts(legs: Sequence[Sequence[Box]]) -> list[tuple[int, int, list[tuple[int, int]]]]:
    """``(p, q, hits)`` for every pair of positions p < q in ``legs`` whose
    legs meet, in (p, q) order; ``hits`` lists, in lex order, the (i, j) with
    leg i of p meeting leg j of q, legs numbered from 1.

    One sweep over the owners' bounding boxes in y_lo order: a box meets
    later ones only up to its y_hi, and pairs with disjoint x extents are
    skipped before any legs are compared.
    """
    boxes = []
    for own in legs:
        x_lo, x_hi, y_lo, y_hi = zip(*own)
        boxes.append((min(x_lo), max(x_hi), min(y_lo), max(y_hi)))
    numbered = [list(enumerate(own, start=1)) for own in legs]
    by_y = sorted(range(len(boxes)), key=lambda p: boxes[p][2])
    found = []
    for pos, p in enumerate(by_y):
        px0, px1, _, py1 = boxes[p]
        for r in range(pos + 1, len(by_y)):
            q = by_y[r]
            qx0, qx1, qy0, _ = boxes[q]
            if qy0 > py1:
                break
            if qx0 > px1 or px0 > qx1:
                continue
            lo, hi = (p, q) if p < q else (q, p)
            hits = [
                (i, j)
                for i, (ax0, ax1, ay0, ay1) in numbered[lo]
                for j, (bx0, bx1, by0, by1) in numbered[hi]
                if ax0 <= bx1 and bx0 <= ax1 and ay0 <= by1 and by0 <= ay1
            ]
            if hits:
                found.append((lo, hi, hits))
    found.sort()  # (p, q) pairs are distinct, so no two hit lists are compared
    return found


_numerator = attrgetter("numerator")
_denominator = attrgetter("denominator")


def scaled(*families: Sequence[Rat]) -> tuple[int, list[list[int]]]:
    """``(scale, ints)``: ``scale`` is the LCM of every denominator in the
    families, and ``ints`` holds each family times ``scale``.  Ints on one
    scale order, tie and subtract exactly as the rationals do."""
    denominators = set()
    for fam in families:
        denominators.update(map(_denominator, fam))
    scale = math.lcm(*denominators)
    if scale == 1:  # integral families are their numerators
        return 1, [list(map(_numerator, fam)) for fam in families]
    return scale, [[v.numerator * (scale // v.denominator) for v in fam] for fam in families]


class StabColumns(NamedTuple):
    """Rays and vertical segments as int columns, in instance order; an int
    ``v`` on the y (x) axis stands for ``(v + y_shift) / y_scale``
    (``(v + x_shift) / x_scale``).  With ``split_x`` set, the segments are
    in id order and stand for ``split_shared_x`` of the columns: those
    sharing an abscissa are still on it, and reading them moves them apart."""

    ray_id: list[int]
    ray_y: list[int]
    reach: list[int]
    seg_id: list[int]
    seg_x: list[int]
    seg_lo: list[int]
    seg_hi: list[int]
    y_shift: int
    y_scale: int
    x_shift: int
    x_scale: int
    split_x: bool = False


def split_shared_x(c: StabColumns) -> StabColumns:
    """``c`` with the segments that share an abscissa moved apart, the
    first in list order staying put and each later one moving left by one
    more eps, with eps smaller than a quarter of the least positive
    difference among segment xs and positive (segment x - ray reach) gaps.
    So the ray/segment intersection matrix and the order of distinct
    abscissas are unchanged.  Every x is an int on the scale ``x_scale * den``."""
    seg_xs = sorted(set(c.seg_x))
    gaps = [b - a for a, b in zip(seg_xs, seg_xs[1:])]
    reaches = sorted(set(c.reach))
    for x in seg_xs:
        # closest ray reach strictly left of this abscissa
        j = bisect_left(reaches, x) - 1
        if j >= 0:
            gaps.append(x - reaches[j])
    # eps = min(d, 1) / den in x units, i.e. step / (x_scale * den) after scaling
    step = min(min(gaps), c.x_scale) if gaps else c.x_scale
    den = 4 * (len(c.seg_id) + 1)
    taken: dict[int, int] = {}
    seg_x = []
    for x in c.seg_x:
        shift = taken.get(x, 0)
        taken[x] = shift + 1
        seg_x.append(x * den - shift * step)
    return c._replace(
        reach=[x * den for x in c.reach], seg_x=seg_x, x_shift=c.x_shift * den,
        x_scale=c.x_scale * den, split_x=False,
    )


def int_coords(rays: Sequence[HRay], segs: Sequence[VSeg]) -> StabColumns:
    """The columns of a ray/segment family, unshifted, each axis on its own
    ``scaled`` scale.  Every ray/segment predicate compares coordinates of
    a single axis, so the ints order and tie exactly as the rationals do."""
    ly, (ray_y, seg_lo, seg_hi) = scaled(
        [r.y for r in rays], [v.y_lo for v in segs], [v.y_hi for v in segs]
    )
    lx, (reach, seg_x) = scaled([r.x_right for r in rays], [v.x for v in segs])
    ray_id, seg_id = [r.id for r in rays], [v.id for v in segs]
    return StabColumns(ray_id, ray_y, reach, seg_id, seg_x, seg_lo, seg_hi, 0, ly, 0, lx)


def materialize(c: StabColumns) -> tuple[tuple[HRay, ...], tuple[VSeg, ...]]:
    """The rays and segments ``c`` stands for; one Fraction per distinct
    int of each axis."""
    if c.split_x:
        c = split_shared_x(c)
    yf = {y: Fraction(y + c.y_shift, c.y_scale) for y in {*c.ray_y, *c.seg_lo, *c.seg_hi}}
    xf = {x: Fraction(x + c.x_shift, c.x_scale) for x in {*c.reach, *c.seg_x}}
    return (
        tuple(HRay(i, yf[y], xf[x]) for i, y, x in zip(c.ray_id, c.ray_y, c.reach)),
        tuple(
            VSeg(i, xf[x], yf[a], yf[b])
            for i, x, a, b in zip(c.seg_id, c.seg_x, c.seg_lo, c.seg_hi)
        ),
    )


@dataclass(frozen=True)
class StabInstance:
    """Leftward rays and vertical segments with unique ids per family; the
    data of both stabbing problems (``ssr.SsrInstance``, ``srs.SrsInstance``).

    An instance made by ``from_columns`` holds ``StabColumns`` instead of
    its two fields and builds both on the first read of either; ``==``,
    ``hash``, ``repr``, ``dataclasses.replace`` read the fields, so they see
    the built values.  A pending ``split_x`` runs on the first read of the
    fields or of ``_int_columns``.  Copies and pickles carry the columns as
    they stand.
    """

    rays: tuple[HRay, ...]
    segments: tuple[VSeg, ...]

    def __post_init__(self):
        object.__setattr__(self, "rays", tuple(self.rays))
        object.__setattr__(self, "segments", tuple(self.segments))
        rids = [r.id for r in self.rays]
        if len(rids) != len(set(rids)):
            raise InvalidInputError("duplicate ray ids")
        sids = [s.id for s in self.segments]
        if len(sids) != len(set(sids)):
            raise InvalidInputError("duplicate segment ids")

    @classmethod
    def from_columns(cls, columns: StabColumns):
        """An instance of ``columns``, whose ids the caller has checked."""
        out = object.__new__(cls)
        object.__setattr__(out, "_columns", columns)
        return out

    def _int_columns(self) -> StabColumns:
        """The columns of a ``from_columns`` instance whose fields are not
        built yet, with any pending split done (and kept), else
        ``int_coords`` of the fields; reading them builds no field."""
        columns = self.__dict__.get("_columns")
        if columns is None:
            return int_coords(self.rays, self.segments)
        if columns.split_x:
            split = split_shared_x(columns)
            # unless a concurrent first read of the fields dropped them meanwhile
            if self.__dict__.get("_columns") is columns:
                object.__setattr__(self, "_columns", split)
            return split
        return columns

    def __getattr__(self, name: str):
        # reached only when normal lookup fails; copy and pickle probe other
        # names on a bare object, so those must fail before anything is read
        columns = self.__dict__.get("_columns") if name in ("rays", "segments") else None
        if columns is not None:
            rays, segments = materialize(columns)
            object.__setattr__(self, "rays", rays)
            object.__setattr__(self, "segments", segments)
            self.__dict__.pop("_columns", None)
        try:
            # also set when a concurrent first read won the race
            return self.__dict__[name]
        except KeyError:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}") from None


@dataclass(frozen=True)
class OrthoInstance:
    """A mixed family of axis-parallel segments with role annotations.

    ``constraint_ids`` are the segments that must be covered, and
    ``candidate_ids`` the segments that may be selected.  The two sets may
    overlap.  Segment ids are unique across both orientation lists.
    """

    hsegs: tuple[HSeg, ...]
    vsegs: tuple[VSeg, ...]
    constraint_ids: frozenset[int]
    candidate_ids: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "hsegs", tuple(self.hsegs))
        object.__setattr__(self, "vsegs", tuple(self.vsegs))
        object.__setattr__(self, "constraint_ids", frozenset(self.constraint_ids))
        object.__setattr__(self, "candidate_ids", frozenset(self.candidate_ids))
        ids = [s.id for s in self.hsegs] + [s.id for s in self.vsegs]
        if len(ids) != len(set(ids)):
            raise InvalidInputError("duplicate segment ids in OrthoInstance")
        known = set(ids)
        if not self.constraint_ids <= known or not self.candidate_ids <= known:
            raise InvalidInputError("role ids refer to unknown segments")


#: (id, line, lo, hi): a segment's id, its carrier line (the y of a
#: horizontal segment, the x of a vertical one) and its extent along that
#: line, as ints
Seg = tuple[int, int, int, int]


def int_segs(hsegs: Sequence[HSeg], vsegs: Sequence[VSeg]) -> tuple[int, list[Seg], list[Seg]]:
    """The common ``scaled`` scale of both families and their ``Seg``s in
    input order: (id, y, x_lo, x_hi) of a horizontal segment, (id, x, y_lo,
    y_hi) of a vertical one."""
    scale, (hy, hlo, hhi, vx, vlo, vhi) = scaled(
        [s.y for s in hsegs], [s.x_lo for s in hsegs], [s.x_hi for s in hsegs],
        [s.x for s in vsegs], [s.y_lo for s in vsegs], [s.y_hi for s in vsegs],
    )
    return (
        scale,
        list(zip([s.id for s in hsegs], hy, hlo, hhi)),
        list(zip([s.id for s in vsegs], vx, vlo, vhi)),
    )


def _families(h: list[Seg], v: list[Seg]) -> list[list[int]]:
    """The six endpoint-coordinate families (VSeg.x, VSeg.y_lo, VSeg.y_hi,
    HSeg.y, HSeg.x_lo, HSeg.x_hi) of ``Seg``s on one scale, shared by both
    axes, so differences compare across axes too."""
    return [[s[k] for s in fam] for fam in (v, h) for k in (1, 2, 3)]


def _family_gap(families: Iterable[Sequence[int]]) -> Optional[int]:
    """Smallest positive difference inside any one family; kept per family
    so that a segment's own height never caps the gap between two parallel
    segments."""
    best = None
    for fam in families:
        vals = sorted(set(fam))
        for lo, hi in zip(vals, vals[1:]):
            if best is None or hi - lo < best:
                best = hi - lo
    return best


def _min_gap(families: Sequence[Sequence[int]]) -> Optional[int]:
    """``min_positive_gap`` on the six int families of ``_families``, in
    that order; None when every pair of segments meets."""
    vx, vlo, vhi, hy, hlo, hhi = families
    boxes = sorted(list(zip(hlo, hhi, hy, hy)) + list(zip(vx, vx, vlo, vhi)))
    # boxes pairwise meet exactly when both projections pairwise overlap,
    # i.e. when every low end is at most every high end on each axis
    if not boxes or (
        max(b[0] for b in boxes) <= min(b[1] for b in boxes)
        and max(b[2] for b in boxes) <= min(b[3] for b in boxes)
    ):
        return None
    best = _family_gap(families)
    n = len(boxes)
    for i in range(n):
        _, x_hi, y_lo, y_hi = boxes[i]
        for j in range(i + 1, n):
            bx_lo, _, by_lo, by_hi = boxes[j]
            dx = bx_lo - x_hi  # boxes[j] starts no further left
            if best is not None and dx >= best:
                break
            gap = max(dx, by_lo - y_hi, y_lo - by_hi)
            if gap > 0 and (best is None or gap < best):
                best = gap
    return best


def min_positive_gap(inst: OrthoInstance) -> Optional[Rat]:
    """Safety margin for perturbations: the smaller of the minimum
    separation between disjoint segments and the minimum positive
    coordinate-family difference.

    Returns NO_GAP (None) when the instance has no disjoint pair.
    Separation is measured in the Chebyshev metric, which is exact over the
    rationals and never exceeds the Euclidean distance, so any perturbation
    below half of it preserves disjointness.

    A closed axis-parallel segment is its own bounding box, so two segments
    meet exactly when their Chebyshev gap is 0.  The closest disjoint pair
    is found by a sweep over the boxes sorted by x_lo; a row stops once the
    x-distance alone reaches the best gap so far, which starts at the
    family gap because the answer never exceeds it.
    """
    scale, h, v = int_segs(inst.hsegs, inst.vsegs)
    best = _min_gap(_families(h, v))
    return NO_GAP if best is None else Fraction(best, scale)


def _properize_segs(scale: int, h: list[Seg], v: list[Seg]) -> tuple[int, list[Seg], list[Seg]]:
    """``properize`` on the horizontal and vertical ``Seg``s ``h``, ``v``
    of one int ``scale``: the new scale and the stretched ``Seg``s of each
    family in rank order.  Ids must be distinct.

    Over the new scale ``scale * mult``, with ``mult`` a multiple of
    4(n + 1) for both families' sizes n, a family's eps = gap / (4(n + 1))
    is a whole number of steps.
    """
    if not h and not v:
        return scale, h, v
    if len({s[3] - s[2] for fam in (h, v) for s in fam}) != 1:
        raise InvalidInputError("properize requires all segments of equal length")
    families = _families(h, v)
    gap = _min_gap(families)
    if gap is None:
        # Everything pairwise intersects; new intersections are impossible,
        # but distinct anchors must keep their order, so fall back to the
        # coordinate-family gap before the unit default.
        gap = _family_gap(families)
        if gap is None:
            gap = scale
    mult = math.lcm(4 * (len(h) + 1), 4 * (len(v) + 1))

    def stretch(fam: list[Seg]) -> list[Seg]:
        n = len(fam)
        step = gap * (mult // (4 * (n + 1)))
        ranked = sorted(fam, key=lambda s: (s[2], s[0]))
        return [
            (sid, line * mult, lo * mult - i * step, hi * mult + (n - i) * step)
            for i, (sid, line, lo, hi) in enumerate(ranked)
        ]

    return scale * mult, stretch(h), stretch(v)


def properize(inst: OrthoInstance) -> OrthoInstance:
    """Stretch equal-length segments so each orientation's projection family
    becomes proper (no interval contains another) without changing any
    pairwise intersection.

    Every segment must have the same length.  Within one orientation the
    segments are ranked by (low endpoint, id); rank i is extended by i*eps
    at its low end and (N - i)*eps at its high end, so all modified lengths
    stay equal and containment would force two identical intervals, which
    distinct ranks rule out.  eps is chosen well below half the instance
    gap, so disjoint segments stay disjoint.

    The stretch runs on the segments' ``int_segs`` (``_properize_segs``);
    each returned coordinate is one ``Fraction(p, q)``.
    """
    if not inst.hsegs and not inst.vsegs:
        return inst
    scale, h, v = _properize_segs(*int_segs(inst.hsegs, inst.vsegs))

    def read(cls, fam):
        return tuple(
            cls(sid, Fraction(line, scale), Fraction(lo, scale), Fraction(hi, scale))
            for sid, line, lo, hi in sorted(fam)
        )

    return OrthoInstance(read(HSeg, h), read(VSeg, v), inst.constraint_ids, inst.candidate_ids)


def containment_violation(
    intervals: Iterable[tuple[Rat, Rat, int]],
) -> Optional[tuple[int, int]]:
    """Ids (outer, inner) of a pair of closed intervals ``(lo, hi, id)``
    where one contains the other (identical ones included), or None.

    In (lo, -hi, id) order an interval is contained in an earlier one exactly
    when its hi does not pass its predecessor's.  Three stable sorts take
    that order on the values as given, which ints and Fractions order alike.
    """
    order = sorted(intervals, key=itemgetter(2))
    order.sort(key=itemgetter(1), reverse=True)  # reverse=True keeps ties in order
    order.sort(key=itemgetter(0))
    for (_, outer_hi, outer), (_, inner_hi, inner) in zip(order, order[1:]):
        if inner_hi <= outer_hi:
            return outer, inner
    return None


class Fenwick:
    """Counts over 0..n-1 with point updates and k-th search, for sweeps."""

    def __init__(self, n: int):
        self.n = n
        self.tree = [0] * (n + 1)

    def add(self, i: int, delta: int) -> None:
        i += 1
        while i <= self.n:
            self.tree[i] += delta
            i += i & (-i)

    def kth(self, k: int) -> int:
        """Least index whose prefix sum exceeds k; entries must be >= 0."""
        pos = 0
        step = 1 << self.n.bit_length()
        while step:
            if pos + step <= self.n and self.tree[pos + step] <= k:
                pos += step
                k -= self.tree[pos]
            step >>= 1
        return pos


def _runs(keys: Sequence[int], los: Iterable[int], his: Iterable[int]) -> tuple[list[int], ...]:
    """``(order, first, last)``: the positions of ``keys`` by key, ties in
    list order, and per query i the run ``order[first[i]:last[i] + 1]`` of
    keys in ``[los[i], his[i]]``, with ``first[i] > last[i]`` when empty."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    ks = [keys[i] for i in order]
    return order, [bisect_left(ks, lo) for lo in los], [bisect_right(ks, hi) - 1 for hi in his]

