"""Hypothesis strategies for degenerate axis-parallel geometry.

``GRID`` coordinates are signed multiples of 1/2 and 1/3 in [-12, 12], so
shared abscissas, touching endpoints and collinear overlaps are common.
``WIDE`` coordinates have numerators up to 1e6 over denominators up to 1e5,
mostly coprime, so the per-axis int scale grows large.
"""
from fractions import Fraction

from hypothesis import strategies as st

from geodom.geom import HRay, HSeg, OrthoInstance, VSeg
from geodom.ssr import SsrInstance
from geodom.stabbedl import LPath, StabbedLInstance
from geodom.uvpg import UnitKBendPath

GRID = st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3]))
GRID_LENGTHS = st.builds(Fraction, st.integers(0, 6), st.sampled_from([1, 2, 3]))
WIDE = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**5))
WIDE_LENGTHS = st.builds(Fraction, st.integers(0, 10**6), st.integers(1, 10**5))


def _ids(draw, n):
    # sparse and shuffled, so id order differs from input order
    return draw(st.lists(st.integers(0, 4 * n + 4), min_size=n, max_size=n, unique=True))


@st.composite
def ortho_instances(draw, coords=GRID, lengths=GRID_LENGTHS, max_side=8, roles=False):
    """Horizontal and vertical segments; every segment constrains and
    competes unless ``roles`` draws the two role sets."""
    nh = draw(st.integers(0, max_side))
    nv = draw(st.integers(0, max_side))
    ids = _ids(draw, nh + nv)
    hsegs = []
    for sid in ids[:nh]:
        lo = draw(coords)
        hsegs.append(HSeg(sid, draw(coords), lo, lo + draw(lengths)))
    vsegs = []
    for sid in ids[nh:]:
        lo = draw(coords)
        vsegs.append(VSeg(sid, draw(coords), lo, lo + draw(lengths)))
    everything = frozenset(ids)
    if roles and ids:
        constraints = draw(st.frozensets(st.sampled_from(ids)))
        candidates = draw(st.frozensets(st.sampled_from(ids)))
    else:
        constraints = candidates = everything
    return OrthoInstance(tuple(hsegs), tuple(vsegs), constraints, candidates)


@st.composite
def star_instances(draw, coords=GRID, lengths=GRID_LENGTHS, max_side=8):
    """Segments through one common point: every pair meets."""
    cx, cy = draw(coords), draw(coords)
    nh = draw(st.integers(0, max_side))
    nv = draw(st.integers(0, max_side))
    ids = _ids(draw, nh + nv)
    hsegs = tuple(HSeg(sid, cy, cx - draw(lengths), cx + draw(lengths)) for sid in ids[:nh])
    vsegs = tuple(VSeg(sid, cx, cy - draw(lengths), cy + draw(lengths)) for sid in ids[nh:])
    everything = frozenset(ids)
    return OrthoInstance(hsegs, vsegs, everything, everything)


@st.composite
def lpath_instances(draw, coords=GRID, max_size=12):
    """L-paths anywhere in the plane (not normalized)."""
    n = draw(st.integers(0, max_size))
    positive = st.builds(Fraction, st.integers(1, 8), st.sampled_from([1, 2, 3]))
    paths = tuple(
        LPath(pid, draw(coords), draw(coords), draw(positive), draw(positive))
        for pid in _ids(draw, n)
    )
    return StabbedLInstance(paths)


@st.composite
def unit_path_lists(draw, k, coords=GRID, max_size=10):
    """Unit paths with at most k bends, starts on the coordinate grid."""
    n = draw(st.integers(0, max_size))
    paths = []
    for pid in _ids(draw, n):
        horizontal = draw(st.booleans())
        legs = []
        for _ in range(draw(st.integers(1, k + 1))):
            legs.append(draw(st.sampled_from("LR" if horizontal else "UD")))
            horizontal = not horizontal
        paths.append(UnitKBendPath(pid, draw(coords), draw(coords), tuple(legs)))
    return paths


@st.composite
def ssr_instances(draw, coords=GRID, lengths=GRID_LENGTHS, max_side=10):
    """Rays and vertical segments drawn from a few abscissas, so segments
    share an x, sit at x == reach and have zero length; segment ends snap
    to ray heights or fall between them, so some segments touch no ray
    height.  Ray heights are distinct unless the draw allows repeats."""
    abscissas = draw(st.lists(coords, min_size=1, max_size=4))
    ys = draw(st.lists(coords, max_size=max_side, unique=draw(st.booleans())))
    rays = tuple(
        HRay(rid, y, draw(st.sampled_from(abscissas)))
        for rid, y in zip(_ids(draw, len(ys)), ys)
    )
    segs = []
    for sid in _ids(draw, draw(st.integers(0, max_side))):
        lo = draw(st.sampled_from(ys) | coords) if ys else draw(coords)
        segs.append(VSeg(sid, draw(st.sampled_from(abscissas)), lo, lo + draw(lengths)))
    return SsrInstance(rays, tuple(segs))


@st.composite
def equal_length_instances(draw, coords=GRID, lengths=GRID_LENGTHS, max_side=8, y_coords=None):
    """``ortho_instances`` with one length for every segment (the input of
    ``geom.properize``), or now and then one segment a little longer.
    ``y_coords``, when given, draws the y coordinates and ``coords`` the x
    ones."""
    ys = coords if y_coords is None else y_coords
    nh = draw(st.integers(0, max_side))
    nv = draw(st.integers(0, max_side))
    ids = _ids(draw, nh + nv)
    length = draw(lengths)
    spans = [draw(coords) for _ in ids[:nh]] + [draw(ys) for _ in ids[nh:]]
    ends = [lo + length for lo in spans]
    if ids and draw(st.integers(0, 9)) == 0:
        ends[-1] += Fraction(1, 7)
    hsegs = tuple(HSeg(sid, draw(ys), lo, hi) for sid, lo, hi in zip(ids[:nh], spans, ends))
    vsegs = tuple(
        VSeg(sid, draw(coords), lo, hi) for sid, lo, hi in zip(ids[nh:], spans[nh:], ends[nh:])
    )
    everything = frozenset(ids)
    return OrthoInstance(hsegs, vsegs, everything, everything)


@st.composite
def stabbed_l_layouts(draw, coords=GRID, max_size=10):
    """L-paths around a drawn line x = line_x, most of them crossing it:
    corners on or left of the line at a few abscissas, horizontal legs that
    end near it, so each layout rule of ``stabbedl.normalize`` fails now and
    then (a missed line, a corner on it, a shared corner height, overlapping
    collinear vertical legs)."""
    line_x = draw(coords)
    offsets = st.builds(Fraction, st.integers(-6, 0), st.sampled_from([1, 2, 3]))
    abscissas = draw(st.lists(offsets, min_size=1, max_size=3))
    positive = st.builds(Fraction, st.integers(1, 8), st.sampled_from([1, 2, 3]))
    paths = []
    for pid in _ids(draw, draw(st.integers(0, max_size))):
        x = draw(st.sampled_from(abscissas))
        reach = draw(st.builds(Fraction, st.integers(-1, 4), st.sampled_from([1, 2])))
        hlen = max(reach - x, Fraction(1, 3))
        paths.append(LPath(pid, line_x + x, draw(coords), draw(positive), hlen))
    return StabbedLInstance(tuple(paths), line_x)


def _over(dens, lo=-24, hi=24):
    return st.builds(Fraction, st.integers(lo, hi), st.sampled_from(dens))


@st.composite
def poss_families(draw, x_dens=(1, 2, 3), y_dens=(1, 2, 3), proper=True, max_side=9):
    """(horizontal candidates, vertical targets) for ``psd.poss_solve``.

    Candidates form a proper family unless ``proper`` is false; their heights
    come from a few values, so same-height candidates are common.  Target
    abscissas come from a few values too, mostly candidate endpoints (so
    some sit exactly on a hit point and some touch a candidate only at its
    end), and target ends snap to candidate heights now and then.  x and y
    coordinates are multiples of 1/d for the d of ``x_dens`` and
    ``y_dens``, which may be coprime to each other.
    """
    n = draw(st.integers(0, max_side))
    ids = _ids(draw, n)
    heights = draw(st.lists(_over(y_dens), min_size=1, max_size=4))
    step = st.builds(Fraction, st.integers(1, 6), st.sampled_from(x_dens))
    cands = []
    lo = draw(_over(x_dens))
    hi = lo + draw(_over(x_dens, 0, 6))
    for k, cid in enumerate(ids):
        if not proper:
            lo = draw(_over(x_dens))
            hi = lo + draw(_over(x_dens, 0, 12))
        elif k:  # both ends strictly rise, so no candidate contains another
            lo += draw(step)
            hi = max(hi + draw(step), lo)
        cands.append(HSeg(cid, draw(st.sampled_from(heights)), lo, hi))
    cands = draw(st.permutations(cands))
    ends = [c.x_lo for c in cands] + [c.x_hi for c in cands]
    xs = draw(st.lists(st.sampled_from(ends) | _over(x_dens) if ends else _over(x_dens),
                       min_size=1, max_size=3))
    ys = st.sampled_from(heights) | _over(y_dens)
    targets = []
    for tid in _ids(draw, draw(st.integers(0, max_side))):
        a, b = sorted((draw(ys), draw(ys)))
        targets.append(VSeg(tid, draw(st.sampled_from(xs)), a, b))
    return cands, targets
