import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geodom.errors import InvalidInputError
from geodom.geom import (
    NO_GAP,
    HRay,
    HSeg,
    IntervalStore,
    LiveRanks,
    OrthoInstance,
    VSeg,
    as_rat,
    containment_violation,
    intersects,
    leg_contacts,
    min_positive_gap,
    properize,
    rat_str,
    scaled,
)
from geodom import geom, instances
from helpers import (
    count_fraction_ops,
    intersection_matrix,
    reference_canonical,
    reference_containment_violation,
    reference_leg_contacts,
    reference_leg_segments,
    reference_min_positive_gap,
    reference_properize,
    segments_of,
)
from strategies import (
    GRID,
    GRID_LENGTHS,
    WIDE,
    WIDE_LENGTHS,
    equal_length_instances,
    ortho_instances,
    star_instances,
)


def test_as_rat_accepts_ints_fractions_and_strings():
    assert as_rat(3) == F(3)
    assert as_rat("7/2") == F(7, 2)
    assert as_rat("-4") == F(-4)
    assert as_rat(F(1, 3)) == F(1, 3)


def test_as_rat_rejects_garbage():
    for bad in ("3/0", "abc", "1.5.2", None, 2.5):
        with pytest.raises(InvalidInputError):
            as_rat(bad)


@pytest.mark.parametrize(
    "bad",
    ["1e1", " 0.5", "1_000", "+2", "\u0663", "2/4", "-0", "3/1", "007", "0/5", "1/-2", "1/2 "],
)
def test_as_rat_accepts_only_canonical_strings(bad):
    with pytest.raises(InvalidInputError, match="bad rational literal"):
        as_rat(bad)


def test_as_rat_keeps_its_messages():
    for value, message in (
        ("1/0", "bad rational literal '1/0'"),
        ("x", "bad rational literal 'x'"),
        (2.5, "cannot interpret 2.5 as a rational"),
        (None, "cannot interpret None as a rational"),
    ):
        with pytest.raises(InvalidInputError) as exc:
            as_rat(value)
        assert str(exc.value) == message


@settings(max_examples=300, deadline=None)
@given(st.one_of(WIDE, GRID, st.integers(-10**30, 10**30).map(F)))
def test_as_rat_reads_back_what_rat_str_writes(value):
    assert as_rat(rat_str(value)) == value
    assert type(as_rat(rat_str(value))) is F


def test_scaled_integral_families_are_their_numerators():
    scale, (a, b) = scaled([F(3), -2, F(0)], [F(-7)])
    assert (scale, a, b) == (1, [3, -2, 0], [-7])
    assert all(type(v) is int for v in a + b)
    assert scaled([F(1, 2), 3], [F(-1, 3)]) == (6, [[3, 18], [-2]])
    assert scaled() == (1, [])


def test_rat_str_is_canonical():
    assert rat_str(F(4, 2)) == "2"
    assert rat_str(F(-3, 6)) == "-1/2"


def test_ray_segment_intersection_closed_semantics():
    r = HRay(0, F(2), F(5))
    assert intersects(r, VSeg(1, F(5), F(0), F(4)))     # touches at the tip
    assert intersects(r, VSeg(2, F(1), F(2), F(2)))     # degenerate segment on the ray
    assert not intersects(r, VSeg(3, F(6), F(0), F(4))) # right of the tip
    assert not intersects(r, VSeg(4, F(3), F(3), F(9))) # above
    assert intersects(VSeg(5, F(0), F(1), F(2)), r)  # argument order is symmetric


def test_segment_segment_intersection():
    h = HSeg(0, F(1), F(0), F(4))
    assert intersects(h, VSeg(1, F(4), F(1), F(5)))      # corner touch
    assert not intersects(h, VSeg(2, F(5), F(0), F(5)))
    assert intersects(h, HSeg(3, F(1), F(4), F(6)))      # collinear touch
    assert not intersects(h, HSeg(4, F(2), F(0), F(4)))
    assert intersects(VSeg(5, F(0), F(0), F(2)), VSeg(6, F(0), F(2), F(3)))


@st.composite
def _leg_owners(draw):
    """1-4 legs on a 7-point grid, so zero-length legs, legs on one line
    and touching ends are common."""
    coord, length = st.integers(-2, 4), st.integers(0, 3)
    legs = []
    for _ in range(draw(st.integers(1, 4))):
        at, lo, span = draw(coord), draw(coord), draw(length)
        legs.append((at, at, lo, lo + span) if draw(st.booleans()) else (lo, lo + span, at, at))
    return legs


def test_leg_contacts_small_cases():
    assert leg_contacts([]) == []
    assert leg_contacts([[(0, 0, 0, 2)]]) == []
    # an L (up, then right) whose horizontal leg ends on the next one's
    # vertical foot, and a point leg on the first one's vertical leg
    first = [(0, 0, 0, 2), (0, 3, 2, 2)]
    second = [(3, 3, 2, 5), (-1, 3, 5, 5)]
    assert leg_contacts([first, second, [(0, 0, 1, 1)]]) == [
        (0, 1, [(2, 1)]),
        (0, 2, [(1, 1)]),
    ]
    assert leg_contacts([second, first]) == [(0, 1, [(1, 2)])]


@settings(max_examples=500, deadline=None)
@given(st.lists(_leg_owners(), max_size=8))
def test_leg_contacts_matches_all_pairs(legs):
    assert leg_contacts(legs) == reference_leg_contacts(legs)


def test_vseg_rejects_inverted_range():
    with pytest.raises(InvalidInputError):
        VSeg(0, F(0), F(3), F(1))


def test_min_positive_gap_two_vsegs():
    inst = OrthoInstance(
        (), (VSeg(0, F(0), F(0), F(1)), VSeg(1, F(3), F(0), F(1))),
        frozenset({0, 1}), frozenset({0, 1}),
    )
    assert min_positive_gap(inst) == F(3)


def test_min_positive_gap_half_grid():
    segs = [VSeg(i, F(i, 2), F(0), F(1)) for i in range(4)]
    inst = OrthoInstance((), tuple(segs), frozenset(range(4)), frozenset(range(4)))
    assert min_positive_gap(inst) == F(1, 2)


def test_min_positive_gap_no_disjoint_pair():
    # everything touches everything: no positive separation to measure
    inst = OrthoInstance(
        (HSeg(0, F(0), F(0), F(2)),),
        (VSeg(1, F(1), F(-1), F(1)),),
        frozenset({0, 1}), frozenset({0, 1}),
    )
    assert min_positive_gap(inst) is NO_GAP


def test_properize_requires_equal_lengths():
    inst = OrthoInstance(
        (HSeg(0, F(0), F(0), F(2)), HSeg(1, F(1), F(0), F(3))),
        (), frozenset({0, 1}), frozenset({0, 1}),
    )
    with pytest.raises(InvalidInputError):
        properize(inst)


def test_properize_identical_segments_stay_intersecting():
    inst = OrthoInstance(
        (HSeg(0, F(1), F(0), F(2)), HSeg(1, F(1), F(0), F(2))),
        (), frozenset({0, 1}), frozenset({0, 1}),
    )
    out = properize(inst)
    assert intersects(out.hsegs[0], out.hsegs[1])
    assert containment_violation((s.x_lo, s.x_hi, s.id) for s in out.hsegs) is None


def test_properize_tight_offsets_still_resolve():
    # x-projections differ by 1/12 while lengths are all 1: the stretch must
    # keep them distinct and nested-free
    inst = OrthoInstance(
        (HSeg(0, F(0), F(0), F(1)), HSeg(1, F(2), F(1, 12), F(13, 12))),
        (VSeg(2, F(1, 2), F(0), F(1)),),
        frozenset({0, 1, 2}), frozenset({0, 1, 2}),
    )
    out = properize(inst)
    assert intersection_matrix(segments_of(out)) == intersection_matrix(segments_of(inst))
    assert containment_violation((s.x_lo, s.x_hi, s.id) for s in out.hsegs) is None
    assert containment_violation((s.y_lo, s.y_hi, s.id) for s in out.vsegs) is None


def _random_equal_length_instance(rng, n, m):
    length = F(rng.randint(1, 3))
    hsegs = []
    for i in range(n):
        lo = F(rng.randint(0, 10), rng.choice([1, 2]))
        hsegs.append(HSeg(i, F(rng.randint(0, 8)), lo, lo + length))
    vsegs = []
    for j in range(m):
        lo = F(rng.randint(0, 10), rng.choice([1, 2]))
        vsegs.append(VSeg(n + j, F(rng.randint(0, 8)), lo, lo + length))
    ids = frozenset(range(n + m))
    return OrthoInstance(tuple(hsegs), tuple(vsegs), ids, ids)


def test_properize_random_sweep_preserves_matrix():
    rng = random.Random(7)
    for _ in range(120):
        inst = _random_equal_length_instance(rng, rng.randint(1, 5), rng.randint(1, 5))
        out = properize(inst)
        assert intersection_matrix(segments_of(out)) == intersection_matrix(segments_of(inst))
        assert containment_violation((s.x_lo, s.x_hi, s.id) for s in out.hsegs) is None
        assert containment_violation((s.y_lo, s.y_hi, s.id) for s in out.vsegs) is None


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except InvalidInputError as exc:
        return "error", type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(st.one_of(equal_length_instances(), star_instances(lengths=st.just(F(1)))))
def test_properize_matches_fraction_reference(inst):
    got, want = _outcome(properize, inst), _outcome(reference_properize, inst)
    assert got == want and repr(got) == repr(want)


@settings(max_examples=100, deadline=None)
@given(equal_length_instances(coords=WIDE, lengths=WIDE_LENGTHS, max_side=6))
def test_properize_matches_fraction_reference_coprime(inst):
    got, want = _outcome(properize, inst), _outcome(reference_properize, inst)
    assert got == want and repr(got) == repr(want)


def _stretched_by_id(scale, h, v):
    """Stretched ``Seg``s as rationals: (line, lo, hi) by id, per family."""
    def read(fam):
        return {sid: (F(line, scale), F(lo, scale), F(hi, scale)) for sid, line, lo, hi in fam}
    return read(h), read(v)


def _int_stretch(inst):
    return _stretched_by_id(*geom._properize_segs(*geom.int_segs(inst.hsegs, inst.vsegs)))


def _fraction_stretch(properize_fn):
    def run(inst):
        out = properize_fn(inst)
        return (
            {s.id: (s.y, s.x_lo, s.x_hi) for s in out.hsegs},
            {s.id: (s.x, s.y_lo, s.y_hi) for s in out.vsegs},
        )
    return run


def _over(dens, lo=-24):
    return st.builds(F, st.integers(lo, 24), st.sampled_from(dens))


_ONE_H = OrthoInstance((HSeg(3, F(1, 2), F(0), F(1)),), (), {3}, {3})
_TWIN_V = OrthoInstance((), (VSeg(1, F(2), F(0), F(1)), VSeg(4, F(2), F(0), F(1))), {1, 4}, {1, 4})


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    equal_length_instances(),
    star_instances(lengths=st.just(F(1))),
    equal_length_instances(coords=_over((2, 4)), y_coords=_over((3, 9)), lengths=_over((6,), 0)),
    equal_length_instances(coords=_over((5, 7)), y_coords=_over((11, 13))),
    equal_length_instances(coords=WIDE, lengths=WIDE_LENGTHS, max_side=6),
))
@example(_ONE_H)  # no gap and no family gap: the unit default
@example(_TWIN_V)  # identical segments: no gap, no family gap
def test_int_stretch_matches_fraction_properize(inst):
    """``geom._properize_segs`` read as rationals equals the Fraction
    reference and ``geom.properize``: both orientations, the NO_GAP and
    family-gap fallbacks, and x and y on coprime denominators."""
    want = _outcome(_fraction_stretch(reference_properize), inst)
    assert _outcome(_int_stretch, inst) == want
    assert _outcome(_fraction_stretch(properize), inst) == want


def _spans(coords, lengths):
    """(lo, hi, id) lists with unique ids; ends often tie, and an interval
    may be empty or inverted."""
    span = st.tuples(coords, st.one_of(lengths, lengths.map(lambda v: -v)))
    return st.lists(span, max_size=12).flatmap(
        lambda spans: st.permutations(range(len(spans))).map(
            lambda ids: [(lo, lo + d, i) for (lo, d), i in zip(spans, ids)]
        )
    )


@settings(max_examples=500, deadline=None)
@given(st.one_of(_spans(GRID, GRID_LENGTHS), _spans(WIDE, WIDE_LENGTHS)))
def test_containment_violation_matches_fraction_reference(spans):
    assert containment_violation(spans) == reference_containment_violation(spans)
    assert containment_violation(iter(spans)) == reference_containment_violation(spans)


def test_containment_violation_sorts_the_values_as_given(monkeypatch):
    """No ``scaled`` pass and no Fraction arithmetic, so many large coprime
    denominators cost only their comparisons."""
    rng = random.Random(200)
    # distinct left ends and one length: no interval contains another
    los = [F(7 * i, 3) - F(rng.randint(0, 50), 23) for i in range(200)]
    proper = [(lo, lo + 3, i) for i, lo in enumerate(los)]
    rng.shuffle(proper)
    nested = proper + [(proper[0][0] + F(1, 2), proper[0][0] + 1, 200)]
    want = reference_containment_violation(nested)

    def refuse(*args):
        raise AssertionError("containment_violation scaled or negated a value")

    monkeypatch.setattr(geom, "scaled", refuse)
    monkeypatch.setattr(F, "__neg__", refuse)
    counts = count_fraction_ops(monkeypatch)
    assert containment_violation(proper) is None
    got = containment_violation(nested)
    assert counts["__add__"] == counts["__radd__"] == 0
    assert counts["__lt__"] > 0  # the counting patch is live
    assert got[1] == 200 and got == want


def test_containment_violation_small_cases():
    assert containment_violation([(F(0), F(2), 0), (F(1), F(3), 1)]) is None
    assert containment_violation([(F(0), F(3), 0), (F(1), F(2), 1)]) is not None   # nested
    assert containment_violation([(F(0), F(2), 0), (F(0), F(2), 1)]) is not None   # identical
    assert containment_violation([]) is None


@settings(max_examples=400, deadline=None)
@given(st.one_of(ortho_instances(), star_instances()))
def test_min_positive_gap_matches_all_pairs_scan(inst):
    assert min_positive_gap(inst) == reference_min_positive_gap(inst)


@settings(max_examples=100, deadline=None)
@given(ortho_instances(coords=WIDE, lengths=WIDE_LENGTHS, max_side=6))
def test_min_positive_gap_matches_all_pairs_scan_coprime(inst):
    assert min_positive_gap(inst) == reference_min_positive_gap(inst)


def test_min_positive_gap_on_generated_and_label_instances():
    for seed in range(12):
        ortho = instances.generate("ortho_psd", {"n": 40, "m": 40}, seed).data
        assert min_positive_gap(ortho) == reference_min_positive_gap(ortho)
        for k in range(4):
            paths = instances.generate("unit_bk", {"n": 25, "k": k}, seed).data.paths
            # every leg of every path, renumbered
            legs = [leg for p in paths for leg in reference_leg_segments(reference_canonical(p))]
            hsegs = [HSeg(i, s.y, s.x_lo, s.x_hi) for i, s in enumerate(legs) if isinstance(s, HSeg)]
            vsegs = [VSeg(i, s.x, s.y_lo, s.y_hi) for i, s in enumerate(legs) if isinstance(s, VSeg)]
            ids = frozenset(range(len(legs)))
            unit = OrthoInstance(tuple(hsegs), tuple(vsegs), ids, ids)
            assert min_positive_gap(unit) == reference_min_positive_gap(unit)


def test_min_positive_gap_2000_unit_segments_under_2s():
    rng = random.Random(2000)
    hsegs, vsegs = [], []
    for i in range(2000):
        x, y = F(rng.randint(0, 400), 2), F(rng.randint(0, 400), 2)
        if i % 2:
            hsegs.append(HSeg(i, y, x, x + 1))
        else:
            vsegs.append(VSeg(i, x, y, y + 1))
    ids = frozenset(range(2000))
    inst = OrthoInstance(tuple(hsegs), tuple(vsegs), ids, ids)
    start = time.perf_counter()
    gap = min_positive_gap(inst)
    elapsed = time.perf_counter() - start
    assert gap == F(1, 2)
    assert elapsed < 2.0, f"min_positive_gap on 2000 unit segments took {elapsed:.2f}s"


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 12), st.data())
def test_live_ranks_match_a_sorted_list(n, data):
    live = LiveRanks(n)
    alive = list(range(n))
    # the ranges a bisection over n heights can give: 0 <= lo <= n, -1 <= hi < n
    ranges = st.tuples(st.integers(0, n), st.integers(-1, n - 1))
    for lo, hi in data.draw(st.lists(ranges, max_size=12)):
        assert live.pop_range(lo, hi) == [r for r in alive if lo <= r <= hi]
        alive = [r for r in alive if not lo <= r <= hi]
        assert [r for r in range(n) if r in live] == alive
        assert [live.find(r) for r in range(n + 1)] == [
            min([a for a in alive if a >= r], default=n) for r in range(n + 1)
        ]
        walk, r = [], live.next[n]
        while r != n:
            walk.append(r)
            r = live.next[r]
        assert walk == alive
        assert [live.prev[r] for r in alive + [n]] == [-1] + alive


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 16), st.data())
def test_interval_store_matches_a_brute_force_list(n, data):
    store = IntervalStore(n)
    held = []  # (member, lo, hi) inserted and not yet reported
    reported = set()
    ranks = st.integers(0, n - 1)
    ops = st.one_of(st.tuples(ranks, ranks), ranks)  # an insert or a stab
    for member, op in enumerate(data.draw(st.lists(ops, max_size=30))):
        if isinstance(op, tuple):
            store.insert(member, *op)  # lo > hi holds no rank
            held.append((member, *op))
            continue
        hits = store.stab_pop(op)
        assert len(hits) == len(set(hits))
        assert set(hits) == {m for m, lo, hi in held if lo <= op <= hi}
        assert reported.isdisjoint(hits)
        reported.update(hits)
        held = [h for h in held if h[0] not in reported]
