"""L-path domination: layout validation, frozen graph, ratio sweeps."""

import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings

from geodom import AbstractGraph, HRay, LPath, SsrInstance, StabbedLInstance, VSeg, exact_mds
from geodom.errors import AssumptionViolationError
from geodom import instances, ssr, stabbedl

from helpers import (
    naive_min_dominating,
    reference_stabbedl_build_graph,
    reference_stabbedl_normalize,
    reference_vertical_shrink,
)
from strategies import WIDE, lpath_instances, stabbed_l_layouts


def crossing_triple() -> StabbedLInstance:
    return StabbedLInstance(
        (
            LPath(0, F(-3), F(0), F(4), F(5)),
            LPath(1, F(-1), F(-2), F(5), F(3)),
            LPath(2, F(-2), F(3), F(2), F(6)),
        )
    )


def test_normalize_rule_i():
    inst = StabbedLInstance((LPath(0, F(-5), F(0), F(1), F(2)),))
    with pytest.raises(AssumptionViolationError) as exc:
        stabbedl.normalize(inst)
    assert exc.value.which == "i"
    assert tuple(exc.value.ids) == (0,)
    right = StabbedLInstance((LPath(0, F(1), F(0), F(1), F(2)),))
    with pytest.raises(AssumptionViolationError):
        stabbedl.normalize(right)


def test_normalize_rule_ii():
    inst = StabbedLInstance((LPath(7, F(0), F(0), F(1), F(2)),))
    with pytest.raises(AssumptionViolationError) as exc:
        stabbedl.normalize(inst)
    assert exc.value.which == "ii"
    assert tuple(exc.value.ids) == (7,)


def test_normalize_rule_iii_equal_heights():
    inst = StabbedLInstance(
        (LPath(0, F(-2), F(1), F(1), F(3)), LPath(1, F(-4), F(1), F(2), F(5)))
    )
    with pytest.raises(AssumptionViolationError) as exc:
        stabbedl.normalize(inst)
    assert exc.value.which == "iii"
    assert tuple(exc.value.ids) == (0, 1)


def test_normalize_rule_iii_overlapping_collinear_vlegs():
    inst = StabbedLInstance(
        (LPath(0, F(-2), F(0), F(3), F(3)), LPath(1, F(-2), F(2), F(2), F(5)))
    )
    with pytest.raises(AssumptionViolationError) as exc:
        stabbedl.normalize(inst)
    assert exc.value.which == "iii"
    # touching end-to-start is a single shared point, which stays legal
    ok = StabbedLInstance(
        (LPath(0, F(-2), F(0), F(2), F(3)), LPath(1, F(-2), F(2), F(2), F(5)))
    )
    assert stabbedl.normalize(ok).paths[0].corner_x == F(-2)


def test_normalize_shifts_line():
    inst = StabbedLInstance(
        (LPath(0, F(2), F(0), F(4), F(5)), LPath(1, F(4), F(-2), F(5), F(3))),
        line_x=F(5),
    )
    norm = stabbedl.normalize(inst)
    assert norm.line_x == 0
    assert [p.corner_x for p in norm.paths] == [F(-3), F(-1)]
    assert [p.corner_y for p in norm.paths] == [F(0), F(-2)]


def _normalize_outcome(fn, inst):
    try:
        return "ok", fn(inst)
    except AssumptionViolationError as exc:
        return "error", exc.which, tuple(exc.ids), str(exc)


@settings(max_examples=500, deadline=None)
@given(stabbed_l_layouts() | stabbed_l_layouts(coords=WIDE) | lpath_instances())
def test_normalize_matches_fraction_reference(inst):
    got = _normalize_outcome(stabbedl.normalize, inst)
    assert got == _normalize_outcome(reference_stabbedl_normalize, inst)
    if got[0] == "ok" and inst.line_x == 0:
        assert got[1].paths is inst.paths  # the line is already at x=0


def test_int_coordinates_solve_like_fractions():
    # int coordinates once made the vertical label's shrink a float
    triples = [(0, -1, 0, 2, 3), (1, -2, 1, 2, 4), (2, -3, 5, 1, 5)]
    ints = StabbedLInstance(tuple(LPath(*t) for t in triples))
    fracs = StabbedLInstance(tuple(LPath(t[0], *map(F, t[1:])) for t in triples))
    cert, det = stabbedl.solve_mds(ints, want_details=True)
    assert det.v_rows  # the vertical label ran
    assert cert == stabbedl.solve_mds(fracs)
    # the vertical label's shrunk sub-instance is the same exact one
    assert det.ssr_instance == stabbedl.solve_mds(fracs, want_details=True)[1].ssr_instance


def test_solve_mds_scales_its_paths_once(monkeypatch):
    inst = instances.generate("stabbed_l", {"n": 60}, seed=4).data
    shifted = StabbedLInstance(
        tuple(LPath(p.id, p.corner_x + F(5, 3), p.corner_y, p.vlen, p.hlen) for p in inst.paths),
        F(5, 3),
    )
    want = stabbedl.solve_mds(inst, want_details=True)
    calls = []
    int_paths = stabbedl._int_paths
    monkeypatch.setattr(stabbedl, "_int_paths", lambda paths: calls.append(len(paths)) or int_paths(paths))
    for case in (inst, shifted):
        calls.clear()
        got = stabbedl.solve_mds(case, want_details=True)
        assert calls == [len(inst.paths)]
        assert got == want


@settings(max_examples=200, deadline=None)
@given(stabbed_l_layouts())
def test_solve_mds_checks_the_layout_like_normalize(inst):
    want = _normalize_outcome(stabbedl.normalize, inst)
    if want[0] == "ok":
        assert stabbedl.solve_mds(inst) == stabbedl.solve_mds(want[1])
    else:
        assert _normalize_outcome(stabbedl.solve_mds, inst)[1:] == want[1:]


def test_frozen_graph_and_partition():
    norm = stabbedl.normalize(crossing_triple())
    nb, parts = stabbedl.build_graph(norm)
    assert nb == {
        0: frozenset({0, 1}),
        1: frozenset({0, 1, 2}),
        2: frozenset({1, 2}),
    }
    assert parts.horizontal == {
        0: frozenset({0, 1}),
        1: frozenset({1}),
        2: frozenset({1, 2}),
    }
    assert parts.vertical == {
        0: frozenset(),
        1: frozenset({0, 2}),
        2: frozenset(),
    }
    for u in nb:
        assert parts.horizontal[u] | parts.vertical[u] == nb[u]


def test_frozen_solution():
    cert = stabbedl.solve_mds(crossing_triple())
    assert cert.heuristic_ids == frozenset({1})
    assert cert.heuristic_size == 1
    assert cert.lp_opt == 1
    assert cert.claimed_ratio_bound == 8


def test_details_split_is_a_partition():
    rng = random.Random(808)
    for _ in range(80):
        inst = instances.generate(
            "stabbed_l", {"n": rng.randint(1, 9)}, seed=rng.randrange(10**9)
        ).data
        cert, det = stabbedl.solve_mds(inst, want_details=True)
        all_ids = {p.id for p in inst.paths}
        assert det.h_rows | det.v_rows == all_ids
        assert det.srs_selected <= det.h_candidates
        assert det.ssr_selected <= all_ids
        assert cert.heuristic_ids == det.srs_selected | det.ssr_selected


def test_details_ssr_instance_equals_a_fresh_normalize():
    """The details keep the solved, still unbuilt normalized instance;
    reading it gives what normalizing the same vertical half again gives."""
    rng = random.Random(8989)
    seen = 0
    for _ in range(60):
        inst = instances.generate(
            "stabbed_l", {"n": rng.randint(2, 12)}, seed=rng.randrange(10**9)
        ).data
        _, det = stabbedl.solve_mds(inst, want_details=True)
        if det.ssr_instance is None:
            continue
        seen += 1
        assert "rays" not in vars(det.ssr_instance)
        by_id = {p.id: p for p in stabbedl.normalize(inst).paths}
        delta = reference_vertical_shrink(by_id, det.v_rows)
        fresh = ssr.normalize(
            SsrInstance(
                tuple(HRay(v, by_id[v].corner_y, -by_id[v].corner_x) for v in sorted(det.v_candidates)),
                tuple(
                    VSeg(u, -by_id[u].corner_x, by_id[u].corner_y + delta, by_id[u].corner_y + by_id[u].vlen)
                    for u in sorted(det.v_rows)
                ),
            )
        )
        assert det.ssr_instance == fresh and repr(det.ssr_instance) == repr(fresh)
        assert det.ssr_selected == ssr.solve_fast(fresh)
    assert seen > 20


def test_domination_and_ratio_eight():
    rng = random.Random(909)
    for _ in range(150):
        inst = instances.generate(
            "stabbed_l", {"n": rng.randint(1, 9)}, seed=rng.randrange(10**9)
        ).data
        cert = stabbedl.solve_mds(inst)
        norm = stabbedl.normalize(inst)
        nb, _ = stabbedl.build_graph(norm)
        chosen = cert.heuristic_ids
        for u in nb:
            assert nb[u] & chosen, f"path {u} undominated"
        order = sorted(nb)
        pos = {u: i for i, u in enumerate(order)}
        g = AbstractGraph(
            len(order), tuple(frozenset(pos[v] for v in nb[u]) for u in order)
        )
        opt = exact_mds(g)
        assert cert.heuristic_size <= 8 * len(opt)
        assert F(cert.heuristic_size) <= 8 * cert.lp_opt
        if len(order) <= 7:
            brute = naive_min_dominating(nb)
            assert brute is not None and len(brute) == len(opt)


def _graph_as_reference(inst):
    nb, parts = stabbedl.build_graph(inst)
    return nb, (parts.horizontal, parts.vertical)


@settings(max_examples=400, deadline=None)
@given(lpath_instances())
def test_build_graph_matches_all_pairs_scan(inst):
    assert _graph_as_reference(inst) == reference_stabbedl_build_graph(inst)


@settings(max_examples=60, deadline=None)
@given(lpath_instances(coords=WIDE))
def test_build_graph_matches_all_pairs_scan_coprime(inst):
    assert _graph_as_reference(inst) == reference_stabbedl_build_graph(inst)


def test_build_graph_matches_all_pairs_scan_on_generated():
    for seed in range(10):
        inst = instances.generate("stabbed_l", {"n": 60, "coord_range": 15}, seed).data
        for case in (inst, stabbedl.normalize(inst)):
            assert _graph_as_reference(case) == reference_stabbedl_build_graph(case)


def test_build_graph_1000_paths_under_2s():
    inst = stabbedl.normalize(
        instances.generate("stabbed_l", {"n": 1000, "coord_range": 250}, 1000).data
    )
    start = time.perf_counter()
    nb, _ = stabbedl.build_graph(inst)
    elapsed = time.perf_counter() - start
    assert sum(len(v) - 1 for v in nb.values()) > 0
    assert elapsed < 2.0, f"build_graph on 1000 paths took {elapsed:.2f}s"
