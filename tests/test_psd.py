"""Proper-projection covering stack: interval cover, strips, both solvers."""

import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geodom import HSeg, VSeg, OrthoInstance, exact_stab, intersects
from geodom.errors import (
    GeodomError,
    InfeasibleConstraintError,
    InfeasibleTargetError,
    InvalidInputError,
    NotProperError,
)
from geodom import geom, instances, lp, psd, srs, ssr, stabbedl, uvpg
from helpers import (
    intervals_meet,
    reference_build_strips,
    reference_collinear_exact,
    reference_interval_cover,
    reference_poss_solve,
    reference_psd_rows,
    reference_solve_boundary_side,
    segment_table,
    segments_of,
)
from strategies import WIDE, WIDE_LENGTHS, ortho_instances, poss_families


def proper_hsegs(rng: random.Random, count: int, y_span: int = 6) -> list[HSeg]:
    """Strictly increasing lo and hi walks give a proper family."""
    segs = []
    lo = rng.randint(-8, 0)
    hi = lo + rng.randint(1, 4)
    for i in range(count):
        segs.append(HSeg(i, F(rng.randint(0, y_span)), F(lo), F(hi)))
        lo += rng.randint(1, 3)
        hi = max(hi + rng.randint(1, 3), lo + 1)
    return segs


def anchored_targets(rng: random.Random, cands: list[HSeg], count: int) -> list[VSeg]:
    out = []
    for i in range(count):
        c = rng.choice(cands)
        x = c.x_lo + F(rng.randint(0, int(c.x_hi - c.x_lo)))
        pad_lo = rng.randint(0, 3)
        pad_hi = rng.randint(0, 3)
        out.append(VSeg(i, x, c.y - pad_lo, c.y + pad_hi))
    return out


def hit_program(cands, targets):
    order = sorted(c.id for c in cands)
    pos = {cid: k for k, cid in enumerate(order)}
    rows = tuple(
        frozenset(pos[c.id] for c in cands if intersects(c, t)) for t in targets
    )
    return lp.CoverProgram(len(order), rows), order


def test_interval_validation():
    with pytest.raises(InvalidInputError):
        psd.Interval(0, F(3), F(2))
    a = psd.Interval(0, F(0), F(2))
    b = psd.Interval(1, F(2), F(5))
    c = psd.Interval(2, F(3), F(4))
    with pytest.raises(InvalidInputError):
        psd.ProperIntervalSet((a, psd.Interval(3, F(0), F(5))))
    with pytest.raises(InvalidInputError):
        psd.ProperIntervalSet((a, psd.Interval(4, F(0), F(2))))
    with pytest.raises(InvalidInputError):
        psd.ProperIntervalSet((a, psd.Interval(0, F(6), F(7))))


def test_interval_cover_frozen():
    s = psd.ProperIntervalSet(
        (
            psd.Interval(0, F(0), F(2)),
            psd.Interval(1, F(1), F(3)),
            psd.Interval(2, F(5), F(6)),
        )
    )
    assert psd.spid_exact(s, [0, 1, 2]) == {1, 2}
    assert psd.spid_exact(s, [2]) == {2}
    with pytest.raises(InvalidInputError):
        psd.spid_exact(s, [0, 9])


def test_interval_cover_matches_ilp():
    rng = random.Random(4040)
    for _ in range(150):
        n = rng.randint(1, 10)
        ivs = []
        lo = rng.randint(-5, 5)
        hi = lo + rng.randint(0, 3)
        for i in range(n):
            ivs.append(psd.Interval(i, F(lo), F(hi)))
            lo += rng.randint(1, 4)
            hi = max(hi + rng.randint(1, 4), lo)
        s = psd.ProperIntervalSet(tuple(ivs))
        t_ids = sorted(rng.sample(range(n), rng.randint(1, n)))
        got = psd.spid_exact(s, t_ids)
        by_id = s.by_id()
        for tid in t_ids:
            assert any(intervals_meet(by_id[g], by_id[tid]) for g in got)
        rows = tuple(
            frozenset(j for j in range(n) if intervals_meet(ivs[j], ivs[tid]))
            for tid in t_ids
        )
        prog = lp.CoverProgram(n, rows)
        relaxed = lp.solve_lp(prog)
        integral = lp.solve_ilp_exact(prog)
        assert F(len(got)) == relaxed.objective_value
        assert len(got) == integral.objective_value
        # hitters of each target sit consecutively in left-endpoint order
        for row in rows:
            members = sorted(row)
            assert members == list(range(members[0], members[-1] + 1))


def test_strip_points_and_boundary_tiling():
    rng = random.Random(5050)
    for _ in range(120):
        cands = proper_hsegs(rng, rng.randint(1, 9))
        targets = anchored_targets(rng, cands, rng.randint(1, 9))
        dec = psd.build_strips(cands, targets)
        pts = dec.points
        assert list(pts) == sorted(pts)
        assert pts[0] < min(c.x_lo for c in cands)
        assert pts[-1] > max(c.x_hi for c in cands)
        # every candidate straddles at least one interior hit point
        for c in cands:
            inside = [p for p in dec.interior if c.x_lo <= p <= c.x_hi]
            assert len(inside) == 1
        for t in targets:
            i = dec.strip_of[t.id]
            assert pts[i] <= t.x < pts[i + 1]
            hits = {c.id for c in cands if intersects(c, t)}
            assert dec.left[t.id] | dec.right[t.id] == hits
            assert not (dec.left[t.id] & dec.right[t.id])


def test_poss_rejects_improper_candidates():
    cands = [HSeg(0, F(0), F(0), F(10)), HSeg(1, F(1), F(2), F(3))]
    with pytest.raises(NotProperError) as exc:
        psd.poss_solve(cands, [VSeg(0, F(2), F(-1), F(2))])
    assert exc.value.orientation == "h"
    assert exc.value.ids == (0, 1)


def test_poss_unreachable_target():
    cands = [HSeg(0, F(0), F(0), F(2))]
    with pytest.raises(InfeasibleTargetError) as exc:
        psd.poss_solve(cands, [VSeg(3, F(5), F(-1), F(1))])
    assert exc.value.target_id == 3


def test_poss_rejects_duplicate_target_ids():
    # rows come from the strip decomposition, which is keyed by target id,
    # so the unreachable first twin would otherwise take the second's row
    cands = [HSeg(0, F(0), F(0), F(4))]
    twins = [VSeg(1, F(9), F(5), F(6)), VSeg(1, F(1), F(-1), F(1))]
    with pytest.raises(InvalidInputError, match="duplicate target ids"):
        psd.poss_solve(cands, twins)


def test_poss_rejects_duplicate_candidate_ids():
    twins = [HSeg(0, F(0), F(0), F(2)), HSeg(0, F(1), F(1), F(3))]
    with pytest.raises(InvalidInputError, match="^duplicate candidate ids$"):
        psd.poss_solve(twins, [VSeg(1, F(1), F(0), F(1))])


def test_poss_single_candidate():
    cands = [HSeg(0, F(1), F(0), F(4))]
    targets = [VSeg(0, F(1), F(0), F(2)), VSeg(1, F(3), F(1), F(5))]
    cert = psd.poss_solve(cands, targets)
    assert cert.heuristic_ids == frozenset({0})
    assert cert.lp_opt == 1


def test_poss_coverage_and_ratio():
    rng = random.Random(6060)
    for _ in range(150):
        cands = proper_hsegs(rng, rng.randint(1, 8))
        targets = anchored_targets(rng, cands, rng.randint(1, 8))
        cert, det = psd.poss_solve(cands, targets, want_details=True)
        chosen = [c for c in cands if c.id in cert.heuristic_ids]
        for t in targets:
            assert any(intersects(c, t) for c in chosen)
        prog, _ = hit_program(cands, targets)
        relaxed = lp.solve_lp(prog)
        assert relaxed.objective_value == cert.lp_opt
        assert F(cert.heuristic_size) <= 8 * cert.lp_opt
        integral = lp.solve_ilp_exact(prog)
        assert cert.heuristic_size <= 8 * integral.objective_value
        assert det.left_selected | det.right_selected == cert.heuristic_ids


def plus_sign() -> OrthoInstance:
    return OrthoInstance(
        hsegs=(HSeg(0, F(1), F(0), F(2)),),
        vsegs=(VSeg(1, F(1), F(0), F(2)),),
        constraint_ids=frozenset({0, 1}),
        candidate_ids=frozenset({0, 1}),
    )


def test_psd_plus_sign():
    cert = psd_solve_small(plus_sign())
    assert cert.heuristic_size == 1
    assert cert.lp_opt == 1
    assert cert.claimed_ratio_bound == 18


def psd_solve_small(inst):
    return psd.psd_solve(inst)


def test_psd_rejects_improper():
    inst = OrthoInstance(
        hsegs=(HSeg(0, F(0), F(0), F(9)), HSeg(1, F(2), F(1), F(2))),
        vsegs=(VSeg(2, F(1), F(0), F(3)),),
        constraint_ids=frozenset({2}),
        candidate_ids=frozenset({0, 1, 2}),
    )
    with pytest.raises(NotProperError) as exc:
        psd.psd_solve(inst)
    assert exc.value.orientation == "h"
    vert = OrthoInstance(
        hsegs=(),
        vsegs=(VSeg(0, F(0), F(0), F(9)), VSeg(1, F(0), F(1), F(2))),
        constraint_ids=frozenset({1}),
        candidate_ids=frozenset({0, 1}),
    )
    with pytest.raises(NotProperError) as exc:
        psd.psd_solve(vert)
    assert exc.value.orientation == "v"


def test_psd_unreachable_constraint():
    inst = OrthoInstance(
        hsegs=(HSeg(0, F(0), F(0), F(2)), HSeg(1, F(10), F(5), F(8))),
        vsegs=(),
        constraint_ids=frozenset({1}),
        candidate_ids=frozenset({0}),
    )
    with pytest.raises(InfeasibleConstraintError) as exc:
        psd.psd_solve(inst)
    assert exc.value.constraint_id == 1


def test_psd_coverage_ratio_and_chain():
    rng = random.Random(7070)
    for _ in range(120):
        inst = instances.generate(
            "ortho_psd",
            {"n": rng.randint(1, 5), "m": rng.randint(1, 5)},
            seed=rng.randrange(10**9),
        ).data
        cert, det = psd.psd_solve(inst, want_details=True)
        table = segment_table(inst)
        chosen = [table[c] for c in cert.heuristic_ids]
        assert cert.heuristic_ids <= inst.candidate_ids
        for u in inst.constraint_ids:
            assert any(intersects(table[u], c) for c in chosen)
        assert F(cert.heuristic_size) <= 18 * cert.lp_opt
        opt = exact_stab(inst)
        assert cert.heuristic_size <= 18 * len(opt)
        # chain: the same-orientation half is solved optimally, the
        # cross-orientation half within factor 8 of its own relaxations
        pos = {cid: j for j, cid in enumerate(det.var_order)}
        if det.same_rows:
            sub_rows = tuple(
                frozenset(
                    pos[c]
                    for c in det.same_vars
                    if type(table[c]) is type(table[u])
                    and intersects(table[u], table[c])
                )
                for u in sorted(det.same_rows)
            )
            sub = lp.CoverProgram(len(det.var_order), sub_rows)
            best = lp.solve_ilp_exact(sub)
            assert len(det.exact_selected) == best.objective_value
        for sub_cert in det.poss_certs:
            assert F(sub_cert.heuristic_size) <= 8 * sub_cert.lp_opt


def _rows_as_reference(inst):
    """``psd._cover_rows`` in ``reference_psd_rows``' shape: candidate ids
    as indices in id order, and (None, id) of the first constraint whose
    row is empty."""
    constraints = sorted(inst.constraint_ids)
    cand_order = sorted(inst.candidate_ids)
    seg, horiz = psd._seg_view(*geom.int_segs(inst.hsegs, inst.vsegs)[1:])
    index_of = {c: i for i, c in enumerate(cand_order)}
    rows = [
        (frozenset(index_of[c] for c in same), frozenset(index_of[c] for c in cross))
        for same, cross in psd._cover_rows(seg, horiz, constraints, cand_order)
    ]
    for u, (same, cross) in zip(constraints, rows):
        if not same and not cross:
            return None, u
    return rows, None


@settings(max_examples=400, deadline=None)
@given(ortho_instances(roles=True))
def test_cover_rows_match_all_pairs_scan(inst):
    assert _rows_as_reference(inst) == reference_psd_rows(inst)


@settings(max_examples=60, deadline=None)
@given(ortho_instances(coords=WIDE, lengths=WIDE_LENGTHS, roles=True))
def test_cover_rows_match_all_pairs_scan_coprime(inst):
    assert _rows_as_reference(inst) == reference_psd_rows(inst)


def test_cover_rows_match_all_pairs_scan_on_generated():
    for seed in range(10):
        inst = instances.generate("ortho_psd", {"n": 60, "m": 60}, seed).data
        rows, missing = _rows_as_reference(inst)
        assert missing is None
        assert (rows, missing) == reference_psd_rows(inst)


def _same_label_inputs(inst):
    """Constraints with a non-empty same row, their same-line hits and the
    int high ends, as ``psd_solve``'s same label reads them from
    ``psd._cover_rows`` (candidate ids) and ``psd._seg_view``."""
    table = segment_table(inst)
    horiz = {s.id for s in inst.hsegs}
    cand_order = sorted(inst.candidate_ids)
    targets = [
        u for u in sorted(inst.constraint_ids)
        if any((c in horiz) == (u in horiz) and intersects(table[u], table[c]) for c in cand_order)
    ]
    seg, _ = psd._seg_view(*geom.int_segs(inst.hsegs, inst.vsegs)[1:])
    rows = psd._cover_rows(seg, frozenset(horiz), targets, cand_order)
    return {u: sorted(same) for u, (same, _) in zip(targets, rows)}, {i: s[3] for i, s in seg.items()}


# few lines, so several constraints and candidates share one
NARROW = st.builds(F, st.integers(-4, 4), st.sampled_from([1, 2]))


@settings(max_examples=400, deadline=None)
@given(st.one_of(ortho_instances(roles=True), ortho_instances(coords=NARROW, roles=True)))
def test_same_label_matches_reference_per_line_cover(inst):
    hits, int_hi = _same_label_inputs(inst)
    hi = {s.id: s.x_hi for s in inst.hsegs} | {s.id: s.y_hi for s in inst.vsegs}
    table = segment_table(inst)
    pool = sorted({c for row in hits.values() for c in row})
    want = reference_collinear_exact([table[u] for u in hits], [table[c] for c in pool])
    assert psd._interval_cover(hits, hits, hi) == want
    assert psd._interval_cover(hits, hits, int_hi) == want


def test_psd_same_label_matches_reference_on_generated():
    rng = random.Random(9090)
    compared = 0
    for seed in range(40):
        params = {"n": rng.randint(5, 40), "m": rng.randint(5, 40), "coord_range": rng.choice([4, 12])}
        inst = instances.generate("ortho_psd", params, seed).data
        if seed % 3 == 2:
            ids = sorted(s.id for s in segments_of(inst))
            cons = frozenset(i for i in ids if rng.random() < 0.7)
            inst = OrthoInstance(inst.hsegs, inst.vsegs, cons, frozenset(ids))
        _, det = psd.psd_solve(inst, want_details=True)
        table = segment_table(inst)
        want = reference_collinear_exact(
            [table[u] for u in sorted(det.same_rows)], [table[c] for c in sorted(det.same_vars)]
        )
        assert det.exact_selected == want
        compared += bool(det.same_rows)
    assert compared >= 20


def test_spid_exact_matches_reference():
    rng = random.Random(505)
    for _ in range(300):
        n = rng.randint(1, 12)
        ivs = []
        lo = rng.randint(-6, 6)
        hi = lo + rng.randint(0, 4)
        for i in rng.sample(range(3 * n), n):
            ivs.append(psd.Interval(i, F(lo), F(hi)))
            lo += rng.randint(1, 4)
            hi = max(hi + rng.randint(1, 4), lo)
        rng.shuffle(ivs)
        s = psd.ProperIntervalSet(tuple(ivs))
        table = s.by_id()
        t_ids = sorted(rng.sample(sorted(table), rng.randint(1, n)))
        want = reference_interval_cover(list(s.intervals), [table[i] for i in t_ids])
        assert psd.spid_exact(s, t_ids) == want


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except GeodomError as exc:
        return "error", type(exc), str(exc)


#: grid coordinates; coprime denominators, different per axis; and wide ones
POSS_FAMILIES = st.one_of(
    poss_families(),
    poss_families(x_dens=(5, 7), y_dens=(3, 4)),
    poss_families(x_dens=(9973, 10007), y_dens=(7919, 104729)),
)


@settings(max_examples=500, deadline=None)
@given(st.one_of(POSS_FAMILIES, poss_families(proper=False)))
def test_build_strips_matches_fraction_scan(family):
    cands, targets = family
    got = psd.build_strips(cands, targets)
    want = reference_build_strips(cands, targets)
    assert got == want and repr(got) == repr(want)
    assert [list(s) for s in got.strips] == [list(s) for s in want.strips]
    assert all(list(got.left[t]) == list(want.left[t]) for t in want.left)
    assert set(vars(got)) == {"points", "interior", "strips", "strip_of", "left", "right"}
    solved = _outcome(psd.poss_solve, cands, targets, True)
    if solved[0] == "ok":
        assert solved[1][1].decomposition == got


#: two same-height candidates; a target on the hit point 2, one touching
#: candidate 1 only at its left end, and two sharing the abscissa 4
TOUCHING = (
    [HSeg(0, F(0), F(0), F(2)), HSeg(1, F(0), F(3), F(5)), HSeg(2, F(1), F(1), F(4))],
    [VSeg(5, F(2), F(-1), F(0)), VSeg(6, F(3), F(0), F(0)), VSeg(7, F(4), F(1), F(2)),
     VSeg(8, F(4), F(0), F(1))],
)
#: x over sevenths, y over fifths
COPRIME = (
    [HSeg(3, F(1, 5), F(-3, 7), F(2, 7)), HSeg(4, F(2, 5), F(1, 7), F(6, 7))],
    [VSeg(0, F(2, 7), F(1, 5), F(2, 5)), VSeg(1, F(6, 7), F(0), F(3, 5))],
)


@settings(max_examples=500, deadline=None)
@given(st.one_of(POSS_FAMILIES, poss_families(proper=False)))
@example(TOUCHING)
@example(COPRIME)
def test_poss_solve_matches_fraction_reference(family):
    cands, targets = family
    got = _outcome(psd.poss_solve, cands, targets, True)
    assert got == _outcome(reference_poss_solve, cands, targets, True)
    if got[0] == "ok":
        assert psd.poss_solve(cands, targets) == got[1][0]


@settings(max_examples=300, deadline=None)
@given(POSS_FAMILIES, st.booleans())
def test_boundary_side_matches_fraction_reference(family, mirror):
    """Every candidate against every target, duplicate heights and all,
    on the int ``Seg``s and on HRay/VSeg objects."""
    cands, targets = family
    scale, *segs = geom.int_segs(cands, targets)
    want = _outcome(reference_solve_boundary_side, cands, targets, mirror)
    assert _outcome(psd._solve_boundary_side, *segs, mirror, scale) == want


def test_build_strips_2000_under_1s():
    # seven candidate heights, so a target's y extent holds hundreds of them
    rng = random.Random(2000)
    cands = proper_hsegs(rng, 2000)
    targets = anchored_targets(rng, cands, 2000)
    start = time.process_time()
    dec = psd.build_strips(cands, targets)
    elapsed = time.process_time() - start
    assert len(dec.interior) > 100
    assert all(dec.left[t.id] or dec.right[t.id] for t in targets)
    assert elapsed < 1.0, f"build_strips on 2000 + 2000 segments took {elapsed:.2f}s"


def test_label_sub_problems_build_no_geometry(monkeypatch):
    """From the LP split to the ids ssr/srs return, the pipelines build no
    HRay/VSeg/HSeg and hand the engines unbuilt column instances, which
    they solve without ``ssr.normalize``; only stabbedl's details call it."""
    ortho = [instances.generate("ortho_psd", {"n": 40, "m": 40}, s).data for s in range(4)]
    paths = [instances.generate("stabbed_l", {"n": 30}, s).data for s in range(4)]
    unit = [instances.generate("unit_bk", {"n": 30, "k": 2}, s).data for s in range(2)]
    rng = random.Random(477)
    cands = proper_hsegs(rng, 40)
    targets = anchored_targets(rng, cands, 40)
    built = []
    for cls in (geom.HRay, geom.VSeg, geom.HSeg):
        init = cls.__init__
        monkeypatch.setattr(cls, "__init__", lambda self, *a, _init=init, **k: built.append(a) or _init(self, *a, **k))
    fed = []

    def watch(name, fn):
        def run(inst, *args):
            fed.append((name, inst))
            out = fn(inst, *args)
            assert "rays" not in vars(inst) and "segments" not in vars(inst)
            return out
        return run

    for mod, name in ((ssr, "normalize"), (ssr, "solve_fast"), (srs, "solve")):
        monkeypatch.setattr(mod, name, watch(name, getattr(mod, name)))
    for inst in ortho:
        psd.psd_solve(inst)
    for inst in paths:
        stabbedl.solve_mds(inst)
    for inst in unit:
        uvpg.solve_mds(list(inst.paths), inst.k)
    psd.poss_solve(cands, targets)
    assert built == []
    assert len(fed) > 20 and all("_columns" in vars(inst) for _, inst in fed)
    assert [name for name, _ in fed].count("normalize") == 0
    stabbedl.solve_mds(paths[0], want_details=True)
    assert [name for name, _ in fed].count("normalize") >= 1
    assert built == []
    geom.HRay(0, F(0), F(0))
    assert built  # the counting patch is live
