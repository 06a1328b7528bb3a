"""Sweep-solver tests: frozen small instances plus randomized equivalence."""

import copy
import dataclasses
import pickle
import random
import sys
import threading
import time
from fractions import Fraction as F

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from geodom import HRay, VSeg, SrsInstance, SsrInstance, exact_stab
from geodom.errors import GeodomError, InfeasibleSegmentError, InvalidInputError
from geodom import geom, instances, lp, srs, ssr

from helpers import (
    intersection_matrix,
    naive_min_stab,
    reference_last_two_stabbers,
    reference_ssr_normalize,
    reference_ssr_solve_fast,
    ssr_cover_ok,
)
from strategies import WIDE, WIDE_LENGTHS, ssr_instances
from test_acceptance import _big_ssr


def fig_instance() -> SsrInstance:
    rays = [
        HRay(1, F(4), F(4)),
        HRay(2, F(3), F(3)),
        HRay(3, F(2), F(2)),
        HRay(4, F(1), F(6)),
    ]
    segs = [
        VSeg(1, F(1), F(2), F(3)),
        VSeg(2, F(2), F(1), F(3)),
        VSeg(3, F(4), F(1), F(4)),
    ]
    return SsrInstance(tuple(rays), tuple(segs))


def cover_program(inst: SsrInstance) -> lp.CoverProgram:
    from geodom import intersects

    ids = [r.id for r in inst.rays]
    pos = {rid: k for k, rid in enumerate(ids)}
    rows = []
    for seg in inst.segments:
        hit = frozenset(pos[r.id] for r in inst.rays if intersects(r, seg))
        rows.append(hit)
    return lp.CoverProgram(len(ids), tuple(rows))


def test_frozen_selection_and_tokens():
    inst = ssr.normalize(fig_instance())
    sel, trace = ssr.solve(inst)
    assert set(sel) == {2, 4}
    assert trace.final_tokens == {
        1: frozenset(),
        2: frozenset({2, 3}),
        3: frozenset(),
        4: frozenset({1, 3, 4}),
    }
    evs = [(e.iteration, e.ray, e.witness, set(e.ray_token)) for e in trace.events]
    assert evs == [(2, 2, 1, {2, 3}), (3, 4, 3, {1, 3, 4})]
    assert set(ssr.solve_fast(inst)) == {2, 4}


def test_trace_snapshots_shrink():
    inst = ssr.normalize(fig_instance())
    _, trace = ssr.solve(inst)
    live_counts = [len(snap.live_rays) for snap in trace.iterations]
    assert live_counts == sorted(live_counts, reverse=True)
    assert trace.iterations[-1].live_segments == frozenset()
    # Token snapshots only ever mention real ray ids.
    all_ids = {r.id for r in inst.rays}
    for snap in trace.iterations:
        assert set(snap.tokens) <= all_ids
        for members in snap.tokens.values():
            assert members <= all_ids


def test_normalize_is_deterministic_and_grid_like():
    rng = random.Random(7)
    for _ in range(40):
        inst = instances.generate("ssr", {"n": 6, "m": 6}, seed=rng.randrange(10**6)).data
        norm1 = ssr.normalize(inst)
        norm2 = ssr.normalize(inst)
        assert norm1 == norm2
        xs = [s.x for s in norm1.segments]
        assert len(set(xs)) == len(xs)
        lo = min(
            [r.y for r in norm1.rays]
            + [s.y_lo for s in norm1.segments]
        )
        assert lo >= 0
        before = {
            (r.id, s.id)
            for r in inst.rays
            for s in inst.segments
            if ssr_hit(r, s)
        }
        after = {
            (r.id, s.id)
            for r in norm1.rays
            for s in norm1.segments
            if ssr_hit(r, s)
        }
        assert before == after


def ssr_hit(ray, seg) -> bool:
    return seg.y_lo <= ray.y <= seg.y_hi and seg.x <= ray.x_right


def test_normalize_splits_equal_x():
    rays = [HRay(0, F(0), F(9)), HRay(1, F(5), F(9))]
    segs = [VSeg(0, F(2), F(0), F(5)), VSeg(1, F(2), F(0), F(5))]
    norm = ssr.normalize(SsrInstance(tuple(rays), tuple(segs)))
    xs = {s.id: s.x for s in norm.segments}
    assert xs[0] != xs[1]
    assert ssr_hit(norm.rays[0], norm.segments[0])
    assert ssr_hit(norm.rays[0], norm.segments[1])


def test_duplicate_ray_y_rejected():
    rays = [HRay(0, F(1), F(2)), HRay(1, F(1), F(5))]
    segs = [VSeg(0, F(1), F(0), F(2))]
    with pytest.raises(InvalidInputError):
        ssr.normalize(SsrInstance(tuple(rays), tuple(segs)))


def test_unstabbable_segment_raises():
    rays = [HRay(0, F(1), F(2))]
    segs = [VSeg(0, F(5), F(0), F(3))]
    inst = SsrInstance(tuple(rays), tuple(segs))
    with pytest.raises(InfeasibleSegmentError) as exc:
        ssr.normalize(inst)
    assert exc.value.segment_id == 0
    with pytest.raises(InfeasibleSegmentError):
        ssr.solve(inst)
    with pytest.raises(InfeasibleSegmentError):
        ssr.solve_fast(inst)


def test_slow_fast_agree():
    rng = random.Random(1105)
    for _ in range(300):
        inst = instances.generate(
            "ssr",
            {"n": rng.randint(1, 9), "m": rng.randint(1, 9)},
            seed=rng.randrange(10**9),
        ).data
        norm = ssr.normalize(inst)
        slow, _ = ssr.solve(norm)
        fast = ssr.solve_fast(norm)
        assert set(slow) == set(fast)


def test_selection_covers_and_ratio_two():
    rng = random.Random(2200)
    for _ in range(200):
        inst = instances.generate(
            "ssr",
            {"n": rng.randint(1, 8), "m": rng.randint(1, 8)},
            seed=rng.randrange(10**9),
        ).data
        norm = ssr.normalize(inst)
        sel = ssr.solve_fast(norm)
        assert ssr_cover_ok(norm, set(sel))
        assert ssr_cover_ok(inst, set(sel))
        opt = exact_stab(inst)
        assert len(sel) <= 2 * len(opt)
        relaxed = lp.solve_lp(cover_program(inst))
        assert F(len(sel)) <= 2 * relaxed.objective_value
        # Independent third route on the tiniest cases.
        if len(inst.rays) <= 6 and len(inst.segments) <= 6:
            brute = naive_min_stab(inst.rays, inst.segments)
            assert brute is not None and len(opt) == len(brute)


def test_token_multiplicity_and_event_shape():
    rng = random.Random(3300)
    seen_event = False
    for _ in range(150):
        inst = instances.generate(
            "ssr",
            {"n": rng.randint(2, 9), "m": rng.randint(2, 9)},
            seed=rng.randrange(10**9),
        ).data
        norm = ssr.normalize(inst)
        _, trace = ssr.solve(norm)
        counts: dict[int, int] = {}
        for members in trace.final_tokens.values():
            for rid in members:
                counts[rid] = counts.get(rid, 0) + 1
        assert all(c <= 2 for c in counts.values())
        for ev in trace.events:
            seen_event = True
            assert ev.witness_input_stabbers <= ev.ray_token
            assert all(tok == frozenset() for tok in ev.other_tokens.values())
    assert seen_event


# ---------------------------------------------------------------------------
# integer kernel: every axis scaled to ints must reproduce Fraction arithmetic


def kernel_rat(rng):
    pick = rng.random()
    if pick < 0.2:  # huge numerator over a large denominator
        return F(rng.randint(-10**30, 10**30), rng.randint(10**11, 10**12))
    den = rng.choice([1, 2, 3, 4, 6, 9, 10, 35])  # mixed denominators
    return F(rng.randint(-7 * den, 7 * den), den)


def kernel_instance(rng) -> SsrInstance:
    """Rays with distinct y, few segment abscissas (so many are shared)
    separated by fractional gaps, segments anchored near ray heights."""
    ys = list({kernel_rat(rng) for _ in range(rng.randint(0, 8))})
    rng.shuffle(ys)
    abscissas = [kernel_rat(rng) for _ in range(rng.randint(1, 3))]
    reaches = abscissas + [kernel_rat(rng) for _ in range(2)]
    rays = tuple(HRay(i, y, rng.choice(reaches)) for i, y in enumerate(ys))
    segs = []
    for j in range(rng.randint(0, 8)):
        mid = rng.choice(ys) if ys and rng.random() < 0.8 else kernel_rat(rng)
        lo = mid - rng.choice([0, 0, F(1, 3), kernel_rat(rng) ** 2])
        hi = mid + rng.choice([0, 0, F(1, 2), kernel_rat(rng) ** 2])
        segs.append(VSeg(j, rng.choice(abscissas), lo, hi))
    rng.shuffle(segs)
    return SsrInstance(rays, tuple(segs))


def normalized_or_error(normalizer, inst):
    try:
        return normalizer(inst)
    except InfeasibleSegmentError as exc:
        return ("infeasible", exc.segment_id)
    except InvalidInputError:
        return ("invalid",)


def test_integer_normalize_matches_fraction_reference():
    rng = random.Random(8181)
    solved = 0
    for _ in range(2000):
        inst = kernel_instance(rng)
        got = normalized_or_error(ssr.normalize, inst)
        assert got == normalized_or_error(reference_ssr_normalize, inst)
        if isinstance(got, tuple):
            continue
        solved += 1
        assert all(type(c) is F for r in got.rays for c in (r.y, r.x_right))
        assert all(type(c) is F for v in got.segments for c in (v.x, v.y_lo, v.y_hi))
        xs = [v.x for v in got.segments]
        assert len(set(xs)) == len(xs)
        assert intersection_pairs(got) == intersection_pairs(inst)
        assert ssr.solve_fast(got) == ssr.solve(got)[0]
    assert solved > 400


def intersection_pairs(inst):
    return {(r.id, v.id) for r in inst.rays for v in inst.segments if ssr_hit(r, v)}


def test_integer_kernel_separates_float_equal_heights():
    base = F(10**30, 10**12)
    tiny = F(1, 10**12)
    assert float(base) == float(base + tiny)
    rays = (HRay(0, base + tiny, F(3)), HRay(1, base, F(5, 2)), HRay(2, -base, F(7)))
    segs = (
        VSeg(0, F(5, 2), base + tiny, base + tiny),  # only ray 0 reaches it
        VSeg(1, F(5, 2), base - tiny, base),  # only ray 1
        VSeg(2, F(1, 3), -base, base + tiny),  # all three
    )
    inst = SsrInstance(rays, segs)
    norm = ssr.normalize(inst)
    assert norm == reference_ssr_normalize(inst)
    assert intersection_pairs(norm) == intersection_pairs(inst)
    assert ssr.solve_fast(norm) == ssr.solve(norm)[0] == {0, 1}
    with pytest.raises(InvalidInputError):
        ssr.normalize(SsrInstance(rays + (HRay(3, base, F(1)),), segs))


# ---------------------------------------------------------------------------
# flat rank-array engine against the id-keyed SortedList reference sweep


def solved_or_error(solver, inst):
    try:
        return solver(inst)
    except InfeasibleSegmentError as exc:
        return ("infeasible", exc.segment_id)
    except InvalidInputError:
        return ("invalid",)


def assert_fast_matches_reference(inst):
    """Raw and normalized outcomes of ``solve_fast`` equal the reference's,
    and each other when ``normalize`` succeeds; the normalized one runs on
    the rank space ``normalize`` hands over.  Returns the raw outcome."""
    raw = solved_or_error(ssr.solve_fast, inst)
    assert raw == solved_or_error(reference_ssr_solve_fast, inst)
    norm = normalized_or_error(ssr.normalize, inst)
    if isinstance(norm, tuple):
        return raw
    expected = reference_ssr_solve_fast(norm)
    assert raw == expected  # the pipelines solve their sub-problems raw
    assert ("_sweep_data" in vars(norm)) == bool(inst.rays or inst.segments)
    assert ssr.solve_fast(norm) == expected
    assert "_sweep_data" not in vars(norm)
    assert ssr.solve_fast(norm) == expected  # rebuilt, not handed over
    return raw


def test_fast_matches_reference_on_kernel_corpus():
    rng = random.Random(8282)
    kinds = {"solved": 0, "infeasible": 0}
    for _ in range(2000):
        raw = assert_fast_matches_reference(kernel_instance(rng))
        kinds[raw[0] if isinstance(raw, tuple) else "solved"] += 1
    assert min(kinds.values()) > 200


@settings(max_examples=400, deadline=None)
@given(ssr_instances())
def test_fast_matches_reference_on_degenerate_geometry(inst):
    raw = assert_fast_matches_reference(inst)
    event("raw outcome: " + (raw[0] if isinstance(raw, tuple) else "solved"))


def test_fast_matches_reference_at_scale():
    """n = m = 2e4, where the literal ``solve`` is too slow to compare."""
    inst = _big_ssr(random.Random(8383), 20_000, 20_000)
    norm = ssr.normalize(inst)
    expected = reference_ssr_solve_fast(norm)
    assert ssr.solve_fast(norm) == expected
    assert ssr.solve_fast(inst) == reference_ssr_solve_fast(inst)


# ---------------------------------------------------------------------------
# last two stabbers: sparse-table range maxima against a brute-force scan


@st.composite
def rank_spaces(draw):
    """Arguments of ``ssr._last_two_stabbers``: an id and a reach per ray
    rank, and per segment an id, an x and a span of ray ranks.  Few xs, so
    reaches and xs tie often and ids break the ties in any order; a span
    may be empty (lo > hi), and a last segment may span all n ranks, which
    needs every level."""
    n = draw(st.integers(0, 20))
    xs = st.integers(0, 5)
    ray_id = draw(st.permutations(range(n)))
    reach = draw(st.lists(xs, min_size=n, max_size=n))
    m = draw(st.integers(0, 10))
    seg_id = draw(st.lists(st.integers(0, 4 * m + 4), min_size=m, max_size=m, unique=True))
    seg_x = draw(st.lists(xs, min_size=m, max_size=m))
    seg_lo = draw(st.lists(st.integers(0, n), min_size=m, max_size=m))
    seg_hi = [draw(st.integers(lo - 1, n - 1)) for lo in seg_lo]
    if draw(st.booleans()):
        seg_id.append(-1)
        seg_x.append(draw(xs))
        seg_lo.append(0)
        seg_hi.append(n - 1)
    return ray_id, reach, seg_id, seg_x, seg_lo, seg_hi


def top_two_outcome(fn, args):
    try:
        return "pairs", fn(*args)
    except InfeasibleSegmentError as exc:
        return "infeasible", exc.segment_id


TOP_REACH = [0, 5, 1, 5, 2, 0, 3, 1, 4, 0, 2, 1, 0]


@settings(max_examples=500, deadline=None)
@given(rank_spaces())
@example(([], [], [], [], [], []))  # n = 0
@example(([], [], [4], [0], [0], [-1]))  # n = 0, one segment
@example(([7], [2], [4], [2], [0], [0]))  # n = 1, a lone stabber
@example(([7], [2], [4, 1], [2, 3], [0, 0], [0, 0]))  # n = 1, then a segment it misses
@example((list(range(13)), TOP_REACH, [9], [5], [0], [12]))  # two at the top: id 3 last
@example((list(range(13))[::-1], TOP_REACH, [9], [5], [0], [12]))  # now id 11 (rank 1) last
@example((list(range(13)), TOP_REACH, [9, 3], [5, 5], [0, 12], [12, 11]))  # lo > hi
@example(([0, 1, 2], [1, 0, 1], [5, 2, 8], [1, 1, 0], [1, 3, 0], [1, 2, 2]))  # equal xs: 5 first
def test_last_two_stabbers_match_brute_force(args):
    want = top_two_outcome(reference_last_two_stabbers, args)
    assert top_two_outcome(ssr._last_two_stabbers, args) == want
    if want[0] == "pairs":
        event("some segment has one stabber" if -1 in want[1][1] else "every segment has two")
    else:
        event("infeasible")


def compressed_top_two(columns):
    comp = ssr._compress(columns)
    return comp.top, comp.second


def test_last_two_stabbers_match_brute_force_on_kernel_corpus():
    """The rank spaces of the corpus: raw, as ``solve_fast`` builds them,
    and the one ``normalize`` hands over."""
    rng = random.Random(8989)
    kinds = {"pairs": 0, "infeasible": 0}
    for _ in range(2000):
        inst = kernel_instance(rng)
        raw = inst._int_columns()
        if len(set(raw.ray_y)) < len(raw.ray_y):
            continue
        spaces = [raw]
        norm = normalized_or_error(ssr.normalize, inst)
        if not isinstance(norm, tuple) and inst.segments:
            cols = vars(norm)["_columns"]
            assert vars(norm)["_sweep_data"] == ssr._compress(cols)
            spaces.append(cols)
        for cols in spaces:
            order, seg_lo, seg_hi = geom._runs(cols.ray_y, cols.seg_lo, cols.seg_hi)
            ray_id, reach = [cols.ray_id[i] for i in order], [cols.reach[i] for i in order]
            args = (ray_id, reach, cols.seg_id, cols.seg_x, seg_lo, seg_hi)
            got = top_two_outcome(compressed_top_two, (cols,))
            assert got == top_two_outcome(reference_last_two_stabbers, args)
            kinds[got[0]] += 1
    assert min(kinds.values()) > 400


def assert_materializes_after_solve(inst):
    """``solve_fast`` on a normalized instance builds none of its
    coordinates; reading them afterwards gives the reference's."""
    norm = normalized_or_error(ssr.normalize, inst)
    expected = normalized_or_error(reference_ssr_normalize, inst)
    if isinstance(norm, tuple):
        assert norm == expected
        return
    sel = ssr.solve_fast(norm)
    if inst.rays or inst.segments:
        assert "rays" not in vars(norm) and "segments" not in vars(norm)
    assert (norm.rays, norm.segments) == (expected.rays, expected.segments)
    assert norm == expected and repr(norm) == repr(expected)
    assert sel == reference_ssr_solve_fast(expected)


def test_materialize_after_solve_on_kernel_corpus():
    rng = random.Random(8888)
    for _ in range(2000):
        assert_materializes_after_solve(kernel_instance(rng))


@settings(max_examples=300, deadline=None)
@given(ssr_instances())
def test_materialize_after_solve_on_degenerate_geometry(inst):
    assert_materializes_after_solve(inst)


def _moved_columns(inst, k, y_shift, x_shift):
    """The columns of ``inst`` on k times its scales, shifted: each int v
    becomes k * v - shift, which stands for the same rational."""
    c = geom.int_coords(inst.rays, inst.segments)

    def ys(vs):
        return [k * v - y_shift for v in vs]

    def xs(vs):
        return [k * v - x_shift for v in vs]

    return c._replace(
        ray_y=ys(c.ray_y), reach=xs(c.reach), seg_x=xs(c.seg_x), seg_lo=ys(c.seg_lo),
        seg_hi=ys(c.seg_hi), y_shift=y_shift, y_scale=k * c.y_scale, x_shift=x_shift,
        x_scale=k * c.x_scale,
    )


def _run(fn, inst):
    try:
        return "ok", fn(inst)
    except GeodomError as exc:
        return "error", type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(
    ssr_instances() | ssr_instances(WIDE, WIDE_LENGTHS),
    st.integers(1, 6), st.integers(-60, 60), st.integers(-60, 60),
)
def test_column_instances_solve_like_their_materialized_twins(inst, k, y_shift, x_shift):
    """The engines read a ``from_columns`` instance's ints, whatever their
    shift and scale, and build none of its fields."""
    cols = _moved_columns(inst, k, y_shift, x_shift)
    engines = [
        (SsrInstance, ssr.normalize),
        (SsrInstance, lambda i: ssr.solve_fast(ssr.normalize(i))),
        (SsrInstance, ssr.solve_fast),
        (SrsInstance, srs.solve),
    ]
    for cls, fn in engines:
        twin = cls(*geom.materialize(cols))
        assert (twin.rays, twin.segments) == (inst.rays, inst.segments)
        lazy = cls.from_columns(cols)
        got = _run(fn, lazy)
        assert "rays" not in vars(lazy) and "segments" not in vars(lazy)
        want = _run(fn, twin)
        assert got == want and repr(got) == repr(want)


def _selection_or_error(solve, inst):
    try:
        return solve(inst)
    except GeodomError as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(ssr_instances() | ssr_instances(WIDE, WIDE_LENGTHS), st.data())
def test_moving_abscissas_between_reaches_keeps_the_selection(inst, data):
    """Permuting the segments of a ``from_columns`` instance and moving
    each abscissa anywhere no reach separates it from keeps every stabber
    set, so ``solve_fast`` picks the same rays, raw and normalized, or
    raises the same kind of error (an infeasible instance may name another
    segment)."""
    c = geom.int_coords(inst.rays, inst.segments)

    def between(x):
        lo = max((r + 1 for r in c.reach if r < x), default=x - 5)
        hi = min((r for r in c.reach if r >= x), default=x + 5)
        return data.draw(st.integers(lo, hi))

    perm = data.draw(st.permutations(range(len(c.seg_id))))
    moved = c._replace(
        seg_id=[c.seg_id[j] for j in perm], seg_x=[between(c.seg_x[j]) for j in perm],
        seg_lo=[c.seg_lo[j] for j in perm], seg_hi=[c.seg_hi[j] for j in perm],
    )
    event("moved" if sorted(moved.seg_x) != sorted(c.seg_x) else "only permuted")
    for solve in (ssr.solve_fast, lambda i: ssr.solve_fast(ssr.normalize(i))):
        want = _selection_or_error(solve, SsrInstance.from_columns(c))
        assert _selection_or_error(solve, SsrInstance.from_columns(moved)) == want
    event("selection" if isinstance(want, set) else want.__name__)


def test_each_critical_ray_is_its_witness_last_stabber():
    """``solve`` takes a ray when every other stabber of its witness has
    retired, which happens in (reach, id) order: the ray is the witness's
    last stabber in that order, the one ``solve_fast`` selects."""
    rng = random.Random(9090)
    events = 0
    for k in range(600):
        if k % 2:
            inst = kernel_instance(rng)
        else:
            params = {"n": rng.randint(2, 9), "m": rng.randint(2, 9)}
            inst = instances.generate("ssr", params, seed=rng.randrange(10**9)).data
        try:
            _, trace = ssr.solve(inst)
        except InfeasibleSegmentError:
            continue
        reach = {r.id: r.x_right for r in inst.rays}
        for ev in trace.events:
            assert ev.ray == max(ev.witness_input_stabbers, key=lambda rid: (reach[rid], rid))
            events += 1
    assert events > 600


def test_normalize_hands_over_rank_space_once():
    inst = _big_ssr(random.Random(8484), 100, 100)
    norm = ssr.normalize(inst)
    bare = SsrInstance(norm.rays, norm.segments)
    assert "_sweep_data" in vars(norm) and "_sweep_data" not in vars(bare)
    assert norm == bare and hash(norm) == hash(bare) and repr(norm) == repr(bare)
    first = ssr.solve_fast(norm)
    assert "_sweep_data" not in vars(norm)
    assert ssr.solve_fast(norm) == first == ssr.solve_fast(bare)
    assert first == ssr.solve(norm)[0]


def _counting_split(monkeypatch) -> list:
    """Patch ``geom.split_shared_x`` to log each call; returns the log."""
    calls = []
    real = geom.split_shared_x

    def counted(c):
        calls.append(len(c.seg_id))
        return real(c)

    monkeypatch.setattr(geom, "split_shared_x", counted)
    return calls


SHARED_X = instances.generate("ssr", {"n": 12, "m": 12}, seed=8787).data


def test_solve_after_normalize_splits_nothing_and_ranks_no_abscissa(monkeypatch):
    """Solving reads no field and runs no split: the engine compares
    abscissas only with reaches (see
    ``test_moving_abscissas_between_reaches_keeps_the_selection``), so the
    columns' own ints serve."""
    calls = _counting_split(monkeypatch)
    for inst in (SHARED_X, _big_ssr(random.Random(8484), 100, 100)):
        norm = ssr.normalize(inst)
        cols = vars(norm)["_columns"]
        xs = [v.x for v in inst.segments]
        assert cols.split_x == (len(set(xs)) < len(xs))
        if cols.split_x:
            assert cols.seg_id == sorted(cols.seg_id)
        assert ssr.solve_fast(norm) == reference_ssr_solve_fast(inst)
        assert "rays" not in vars(norm) and "segments" not in vars(norm)
    assert calls == []


@pytest.mark.parametrize("first", ["rays", "segments", "eq", "hash", "repr", "columns"])
def test_first_read_runs_the_split_once(monkeypatch, first):
    calls = _counting_split(monkeypatch)
    want = reference_ssr_normalize(SHARED_X)
    norm = ssr.normalize(SHARED_X)
    ssr.solve_fast(norm)
    assert calls == []
    reads = {
        "rays": lambda: norm.rays,
        "segments": lambda: norm.segments,
        "eq": lambda: norm == want,
        "hash": lambda: hash(norm),
        "repr": lambda: repr(norm),
        "columns": norm._int_columns,
    }
    reads[first]()
    assert calls == [len(SHARED_X.segments)]
    for read in reads.values():
        read()
    assert ssr.solve_fast(norm) == ssr.solve_fast(want)
    assert calls == [len(SHARED_X.segments)]
    assert norm == want and repr(norm) == repr(want) and hash(norm) == hash(want)
    assert geom.materialize(norm._int_columns()) == (want.rays, want.segments)


def test_normalize_plus_solve_fast_5e4_under_5s():
    inst = _big_ssr(random.Random(8585), 50_000, 50_000)
    t0 = time.perf_counter()
    sel = ssr.solve_fast(ssr.normalize(inst))
    elapsed = time.perf_counter() - t0
    assert ssr_cover_ok(inst, sel)
    assert elapsed < 5.0


def _normalized_states(inst):
    """A fresh normalized copy of ``inst`` in each state a caller can leave
    it in: solved or not, its coordinates read or not, in either order."""

    def read(x):
        x.rays, x.segments

    yield "fresh", ssr.normalize(inst)
    x = ssr.normalize(inst)
    ssr.solve_fast(x)
    yield "solved", x
    x = ssr.normalize(inst)
    read(x)
    yield "read", x
    x = ssr.normalize(inst)
    read(x)
    ssr.solve_fast(x)
    yield "read then solved", x
    x = ssr.normalize(inst)
    ssr.solve_fast(x)
    read(x)
    yield "solved then read", x


COPIERS = {
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "replace": dataclasses.replace,
}


@pytest.mark.parametrize("copier", sorted(COPIERS))
@pytest.mark.parametrize(
    "inst",
    [
        _big_ssr(random.Random(8686), 200, 200),
        instances.generate("ssr", {"n": 12, "m": 12}, seed=8787).data,  # shared abscissas
    ],
    ids=["distinct-x", "shared-x"],
)
def test_normalized_instance_copies_and_pickles(inst, copier):
    expected = ssr.solve_fast(ssr.normalize(inst))
    for state, x in _normalized_states(inst):
        y = COPIERS[copier](x)
        assert ssr.solve_fast(y) == expected, state
        bare = SsrInstance(x.rays, x.segments)
        assert y == bare and hash(y) == hash(bare) and repr(y) == repr(bare), state
        assert ssr.solve_fast(y) == ssr.solve_fast(x) == expected, state


def test_concurrent_first_reads_agree():
    """Threads racing on the first read of one normalized instance all get
    its coordinates (none sees the fields missing) and agree on them."""
    inst = _big_ssr(random.Random(9090), 300, 300)
    expected = reference_ssr_normalize(inst)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(30):
            norm = ssr.normalize(inst)
            got, errors = [], []

            def read():
                try:
                    got.append((norm.segments, norm.rays))
                except Exception as exc:  # reported by the assertion below
                    errors.append(exc)

            threads = [threading.Thread(target=read) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert not errors
            assert got == [(expected.segments, expected.rays)] * len(threads)
            assert norm == expected
    finally:
        sys.setswitchinterval(old)


def test_concurrent_split_reads_agree():
    """Threads racing on the first reads of a normalized instance whose
    split is pending, half through the fields and half through
    ``_int_columns``, all see the split coordinates."""
    expected = reference_ssr_normalize(SHARED_X)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(30):
            norm = ssr.normalize(SHARED_X)
            got, errors = [], []

            def read(k):
                try:
                    if k % 2:
                        got.append((norm.rays, norm.segments))
                    else:
                        c = norm._int_columns()
                        got.append(geom.materialize(c))
                        assert not c.split_x
                except Exception as exc:  # reported by the assertion below
                    errors.append(exc)

            threads = [threading.Thread(target=read, args=(k,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert not errors
            assert got == [(expected.rays, expected.segments)] * len(threads)
            assert norm == expected
            assert geom.materialize(norm._int_columns()) == (expected.rays, expected.segments)
    finally:
        sys.setswitchinterval(old)
