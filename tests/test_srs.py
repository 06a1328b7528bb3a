"""Segment-side heuristic: frozen rounds plus randomized ratio checks."""

import random
import time
from fractions import Fraction as F

import pytest

from geodom import HRay, VSeg, SrsInstance, exact_stab, intersects
from geodom.errors import InfeasibleRayError
from geodom import instances, lp, srs

from helpers import naive_min_stab, reference_srs_solve, srs_cover_ok


def tiny() -> SrsInstance:
    rays = (HRay(0, F(1), F(5)),)
    segs = (VSeg(0, F(1), F(0), F(2)), VSeg(1, F(2), F(1), F(3)))
    return SrsInstance(rays, segs)


def ray_program(inst: SrsInstance) -> lp.CoverProgram:
    pos = {v.id: k for k, v in enumerate(inst.segments)}
    rows = tuple(
        frozenset(pos[v.id] for v in inst.segments if intersects(r, v))
        for r in inst.rays
    )
    return lp.CoverProgram(len(inst.segments), rows)


def test_frozen_round():
    sel, trace = srs.solve(tiny())
    assert sel == {0, 1}
    assert trace.tokens == {0: frozenset({0, 1}), 1: frozenset({0, 1})}
    (rd,) = trace.rounds
    assert rd.index == 1
    assert rd.chosen_ray == 0
    assert rd.neighborhood == frozenset({0, 1})
    assert rd.v_top == 1
    assert rd.v_bot == 0
    assert rd.removed_rays == frozenset({0})


def test_unstabbable_ray():
    rays = (HRay(3, F(1), F(5)), HRay(4, F(9), F(1)))
    segs = (VSeg(0, F(1), F(0), F(2)),)
    with pytest.raises(InfeasibleRayError) as exc:
        srs.solve(SrsInstance(rays, segs))
    assert exc.value.ray_id == 4


def test_rounds_partition_rays():
    rng = random.Random(414)
    for _ in range(150):
        inst = instances.generate(
            "srs",
            {"n": rng.randint(1, 9), "m": rng.randint(1, 9)},
            seed=rng.randrange(10**9),
        ).data
        sel, trace = srs.solve(inst)
        seen: set[int] = set()
        hoods: set[int] = set()
        for rd in trace.rounds:
            assert rd.chosen_ray in rd.removed_rays
            assert not (rd.removed_rays & seen)
            seen |= rd.removed_rays
            assert {rd.v_top, rd.v_bot} <= rd.neighborhood
            assert not (rd.neighborhood & hoods)
            hoods |= rd.neighborhood
        assert seen == {r.id for r in inst.rays}
        assert {rd.v_top for rd in trace.rounds} | {
            rd.v_bot for rd in trace.rounds
        } == sel


def test_token_multiplicity():
    rng = random.Random(515)
    for _ in range(150):
        inst = instances.generate(
            "srs",
            {"n": rng.randint(2, 10), "m": rng.randint(2, 10)},
            seed=rng.randrange(10**9),
        ).data
        _, trace = srs.solve(inst)
        counts: dict[int, int] = {}
        for members in trace.tokens.values():
            for vid in members:
                counts[vid] = counts.get(vid, 0) + 1
        assert all(c <= 2 for c in counts.values())
        # a segment never keeps a token unless it was kept in some round
        kept = {rd.v_top for rd in trace.rounds} | {rd.v_bot for rd in trace.rounds}
        for vid, members in trace.tokens.items():
            if members:
                assert vid in kept


def test_coverage_and_ratio_two():
    rng = random.Random(616)
    for _ in range(200):
        inst = instances.generate(
            "srs",
            {"n": rng.randint(1, 8), "m": rng.randint(1, 8)},
            seed=rng.randrange(10**9),
        ).data
        sel, _ = srs.solve(inst)
        chosen = [v for v in inst.segments if v.id in sel]
        for r in inst.rays:
            assert any(intersects(r, v) for v in chosen)
        opt = exact_stab(inst)
        assert len(sel) <= 2 * len(opt)
        relaxed = lp.solve_lp(ray_program(inst))
        assert F(len(sel)) <= 2 * relaxed.objective_value
        if len(inst.rays) <= 6 and len(inst.segments) <= 6:
            brute = naive_min_stab(inst.segments, inst.rays)
            assert brute is not None and len(opt) == len(brute)


# ---------------------------------------------------------------------------
# the sweep against the literal round-by-round definition


def _rat(rng):
    den = rng.choice([1, 1, 2, 3, 7])
    return F(rng.randint(-5 * den, 5 * den), den)


def degenerate_srs(rng) -> SrsInstance:
    """Few distinct coordinates, so rays share y, endpoints touch ray
    heights, segment x equals some reach, and some segments cover no ray."""
    heights = [_rat(rng) for _ in range(rng.randint(1, 5))]
    abscissas = [_rat(rng) for _ in range(rng.randint(1, 4))]
    rays = tuple(
        HRay(i, rng.choice(heights), rng.choice(abscissas))
        for i in range(rng.randint(0, 9))
    )
    segs = []
    for j in range(rng.randint(0, 9)):
        lo, hi = sorted(rng.choice(heights + [_rat(rng)]) for _ in range(2))
        segs.append(VSeg(j, rng.choice(abscissas + [_rat(rng)]), lo, hi))
    rng.shuffle(segs)
    return SrsInstance(rays, tuple(segs))


def outcome(solver, inst):
    try:
        return solver(inst)
    except InfeasibleRayError as exc:
        return ("infeasible", exc.ray_id)


def test_sweep_matches_literal_rounds():
    rng = random.Random(7171)
    kinds = {"solved": 0, "infeasible": 0}
    for _ in range(3000):
        inst = degenerate_srs(rng)
        got = outcome(srs.solve, inst)
        assert got == outcome(lambda i: reference_srs_solve(i, want_trace=True), inst)
        kinds["infeasible" if got[0] == "infeasible" else "solved"] += 1
    assert min(kinds.values()) > 500


def test_sweep_matches_literal_on_generated():
    rng = random.Random(7272)
    for _ in range(150):
        inst = instances.generate(
            "srs",
            {"n": rng.randint(1, 40), "m": rng.randint(1, 40), "coord_range": rng.randint(2, 30)},
            seed=rng.randrange(10**9),
        ).data
        assert srs.solve(inst) == reference_srs_solve(inst, want_trace=True)


def large_srs(rng, n: int) -> SrsInstance:
    """n rays and n segments; segment j is anchored on a distinct ray, so
    every ray is stabbable.  O(n log n) to draw."""
    ys = [F(rng.randint(1, 4 * n), rng.choice([1, 2])) for _ in range(n)]
    reaches = [F(rng.randint(1, 10**6)) for _ in range(n)]
    rays = tuple(HRay(i, ys[i], reaches[i]) for i in range(n))
    anchors = list(range(n))
    rng.shuffle(anchors)
    segs = tuple(
        VSeg(j, F(rng.randint(1, int(reaches[a]))), ys[a] - rng.randint(0, 6), ys[a] + rng.randint(0, 6))
        for j, a in enumerate(anchors)
    )
    return SrsInstance(rays, segs)


def test_sweep_scales():
    inst = large_srs(random.Random(7373), 20_000)
    t0 = time.perf_counter()
    sel, _ = srs.solve(inst)
    elapsed = time.perf_counter() - t0
    assert srs_cover_ok(inst, sel)
    assert elapsed < 5.0
