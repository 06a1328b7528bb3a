"""Unit-leg path graphs: contacts, first-contact labels, domination."""

import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodom import AbstractGraph, UnitKBendPath, exact_mds, grid_to_unit_b1
from geodom.errors import GeodomError, InvalidInputError, InvalidPathError
from geodom import geom, instances, uvpg

from helpers import (
    naive_min_dominating,
    reference_canonical,
    reference_uvpg_build_graph,
    reference_uvpg_solve_mds,
)
from strategies import WIDE, unit_path_lists


def test_path_validation():
    with pytest.raises(InvalidPathError):
        UnitKBendPath(0, F(0), F(0), ())
    with pytest.raises(InvalidPathError):
        UnitKBendPath(0, F(0), F(0), ("R", "X"))
    with pytest.raises(InvalidPathError) as exc:
        UnitKBendPath(5, F(0), F(0), ("R", "L"))
    assert exc.value.path_id == 5


def test_instance_rejects_a_negative_bend_bound():
    with pytest.raises(InvalidInputError, match="^bend bound must be nonnegative$"):
        instances.UnitBkInstance(-1, ())


def test_points_and_leg_segments():
    p = UnitKBendPath(0, F(0), F(0), ("R", "U"))
    assert p.points() == [(0, 0), (1, 0), (1, 1)]
    # leg boxes (x_lo, x_hi, y_lo, y_hi) on the scale of the start points
    assert uvpg._int_legs([p]) == (1, [[(0, 1, 0, 0), (1, 1, 0, 1)]])
    half = UnitKBendPath(1, F(1, 2), F(0), ("U", "R"))
    assert uvpg._int_legs([p, half]) == (
        2, [[(0, 2, 0, 0), (2, 2, 0, 2)], [(1, 1, 0, 2), (1, 3, 2, 2)]]
    )


def test_canonical_reverses_to_smaller_endpoint():
    # the end (0, 0) is smaller than the start (1, 0): leg 1 is walked R
    p = UnitKBendPath(3, F(1), F(0), ("L",))
    assert uvpg._int_legs([p]) == (1, [[(0, 1, 0, 0)]])
    # from (2, 2) down then left to (1, 1): canonically right then up, so
    # the horizontal leg is leg 1
    bent = UnitKBendPath(4, F(2), F(2), ("D", "L"))
    assert uvpg._int_legs([bent]) == (1, [[(1, 2, 1, 1), (2, 2, 1, 2)]])
    # the same path walked from its smaller end keeps its order
    up = UnitKBendPath(5, F(1), F(1), ("R", "U"))
    assert uvpg._int_legs([up]) == (1, [[(1, 2, 1, 1), (2, 2, 1, 2)]])


def test_first_contact_labels():
    u = UnitKBendPath(0, F(0), F(0), ("R", "U"))
    w = UnitKBendPath(1, F(1, 2), F(-1, 2), ("U", "R"))
    v = UnitKBendPath(2, F(-1, 2), F(-1), ("R", "U"))
    contacts = uvpg.build_graph([u, w, v])
    assert contacts.phi[(0, 0)] == (1, 1)
    assert contacts.phi[(0, 1)] == (1, 1)
    assert contacts.phi[(1, 0)] == (1, 1)
    # v touches u only through its second leg
    assert contacts.phi[(0, 2)] == (1, 2)
    assert contacts.phi[(2, 0)] == (2, 1)
    assert contacts.neighborhoods[0] == frozenset({0, 1, 2})


def test_closed_path_keeps_its_leg_numbering():
    # a path ending where it starts is already canonical: an exact tie keeps
    # the start, so its first leg stays leg 1
    loop = UnitKBendPath(0, F(0), F(0), ("R", "U", "L", "D"))
    assert uvpg._int_legs([loop]) == (1, [[(0, 1, 0, 0), (1, 1, 0, 1), (0, 1, 1, 1), (0, 0, 0, 1)]])
    stick = UnitKBendPath(1, F(1, 2), F(-1, 2), ("U",))
    contacts = uvpg.build_graph([loop, stick])
    assert contacts.phi[(0, 1)] == (1, 1) and contacts.phi[(1, 0)] == (1, 1)
    want = reference_uvpg_solve_mds([loop, stick], 3, want_details=True)
    assert uvpg.solve_mds([loop, stick], 3, want_details=True) == want


def test_build_graph_rejects_duplicate_ids():
    p = UnitKBendPath(0, F(0), F(0), ("R",))
    q = UnitKBendPath(0, F(5), F(5), ("U",))
    with pytest.raises(InvalidInputError):
        uvpg.build_graph([p, q])


def test_partition_tiles_neighborhoods():
    rng = random.Random(7171)
    for _ in range(80):
        k = rng.choice([0, 1, 2])
        inst = instances.generate(
            "unit_bk", {"n": rng.randint(1, 8), "k": k}, seed=rng.randrange(10**9)
        ).data
        contacts = uvpg.build_graph(list(inst.paths))
        nb = contacts.neighborhoods
        for u, blocks in contacts.partition.items():
            assert u in nb[u]
            merged: set[int] = set()
            total = 0
            for lab, vs in blocks.items():
                assert 1 <= lab[0] <= k + 1 and 1 <= lab[1] <= k + 1
                merged |= vs
                total += len(vs)
            assert merged == set(nb[u])
            assert total == len(nb[u])
            assert u in blocks.get((1, 1), frozenset())
        for u in nb:
            for v in nb[u]:
                assert u in nb[v]


def test_grid_two_by_three():
    paths = grid_to_unit_b1(2, 3)
    contacts = uvpg.build_graph(paths)
    edges = {
        (u, v)
        for u in contacts.neighborhoods
        for v in contacts.neighborhoods[u]
        if u < v
    }
    assert edges == {(0, 1), (0, 3), (1, 2), (1, 4), (2, 5), (3, 4), (4, 5)}


def test_grid_edges_exact_small():
    for h in range(1, 4):
        for w in range(1, 4):
            paths = grid_to_unit_b1(h, w)
            assert len(paths) == h * w
            contacts = uvpg.build_graph(paths)
            want = set()
            for x in range(h):
                for y in range(w):
                    a = x * w + y
                    if y + 1 < w:
                        want.add((a, a + 1))
                    if x + 1 < h:
                        want.add((a, a + w))
            got = {
                (u, v)
                for u in contacts.neighborhoods
                for v in contacts.neighborhoods[u]
                if u < v
            }
            assert got == want


def test_grid_validation():
    with pytest.raises(InvalidInputError):
        grid_to_unit_b1(0, 3)
    with pytest.raises(InvalidInputError):
        grid_to_unit_b1(2, -1)


def test_solve_rejects_oversized_paths():
    p = UnitKBendPath(0, F(0), F(0), ("R", "U", "R"))
    with pytest.raises(InvalidPathError):
        uvpg.solve_mds([p], k=1)
    with pytest.raises(InvalidInputError):
        uvpg.solve_mds([p], k=-1)
    cert = uvpg.solve_mds([p], k=2)
    assert cert.heuristic_ids == frozenset({0})


def test_domination_and_bound():
    rng = random.Random(8181)
    for _ in range(60):
        k = rng.choice([0, 1, 2])
        inst = instances.generate(
            "unit_bk", {"n": rng.randint(1, 7), "k": k}, seed=rng.randrange(10**9)
        ).data
        cert, det = uvpg.solve_mds(list(inst.paths), k, want_details=True)
        nb = det.contacts.neighborhoods
        for u in nb:
            assert nb[u] & cert.heuristic_ids, f"path {u} undominated"
        bound = 18 * (k + 1) ** 4
        assert cert.claimed_ratio_bound == bound
        assert F(cert.heuristic_size) <= bound * cert.lp_opt
        order = sorted(nb)
        pos = {u: i for i, u in enumerate(order)}
        g = AbstractGraph(
            len(order), tuple(frozenset(pos[v] for v in nb[u]) for u in order)
        )
        opt = exact_mds(g)
        assert cert.heuristic_size <= bound * len(opt)
        if len(order) <= 6:
            brute = naive_min_dominating(nb)
            assert brute is not None and len(brute) == len(opt)
        for lab, outcome in det.labels.items():
            assert outcome.chosen_paths <= outcome.vars


def test_solve_mds_builds_each_paths_legs_once(monkeypatch):
    """The legs are walked once per call, on ints, by one ``_int_legs``."""
    paths = list(instances.generate("unit_bk", {"n": 60, "k": 2}, seed=5).data.paths)
    want = uvpg.solve_mds(paths, 2, want_details=True)
    calls = []
    int_legs = uvpg._int_legs
    monkeypatch.setattr(uvpg, "_int_legs", lambda ps: calls.append(len(ps)) or int_legs(ps))
    got = uvpg.solve_mds(paths, 2, want_details=True)
    assert calls == [60]
    assert len(got[1].labels) > 1
    assert got == want


def _contacts_as_reference(paths):
    contacts = uvpg.build_graph(paths)
    return contacts.neighborhoods, contacts.phi, contacts.partition


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 3).flatmap(unit_path_lists))
def test_build_graph_matches_all_pairs_scan(paths):
    assert _contacts_as_reference(paths) == reference_uvpg_build_graph(paths)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3).flatmap(lambda k: unit_path_lists(k, coords=WIDE)))
def test_build_graph_matches_all_pairs_scan_coprime(paths):
    assert _contacts_as_reference(paths) == reference_uvpg_build_graph(paths)


def test_build_graph_matches_all_pairs_scan_on_generated():
    for seed in range(6):
        for k in range(4):
            paths = list(instances.generate("unit_bk", {"n": 50, "k": k}, seed).data.paths)
            assert _contacts_as_reference(paths) == reference_uvpg_build_graph(paths)


def test_build_graph_2000_paths_under_2s():
    params = {"n": 2000, "k": 2, "coord_range": 100}
    paths = list(instances.generate("unit_bk", params, 2000).data.paths)
    start = time.perf_counter()
    contacts = uvpg.build_graph(paths)
    elapsed = time.perf_counter() - start
    assert sum(len(v) - 1 for v in contacts.neighborhoods.values()) > 0
    assert elapsed < 2.0, f"build_graph on 2000 paths took {elapsed:.2f}s"


def _solve_outcome(solve, paths, k):
    try:
        return "ok", solve(paths, k, want_details=True)
    except GeodomError as exc:
        return "error", type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 3).flatmap(lambda k: st.tuples(st.just(k), unit_path_lists(k))))
def test_solve_mds_matches_leg_segment_reference(case):
    k, paths = case
    got = _solve_outcome(uvpg.solve_mds, paths, k)
    assert got == _solve_outcome(reference_uvpg_solve_mds, paths, k)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3).flatmap(lambda k: st.tuples(st.just(k), unit_path_lists(k, coords=WIDE))))
def test_solve_mds_matches_leg_segment_reference_coprime(case):
    k, paths = case
    got = _solve_outcome(uvpg.solve_mds, paths, k)
    assert got == _solve_outcome(reference_uvpg_solve_mds, paths, k)


def test_solve_mds_matches_leg_segment_reference_on_generated():
    for seed in range(3):
        for k in range(4):
            paths = list(instances.generate("unit_bk", {"n": 40, "k": k}, seed).data.paths)
            got = uvpg.solve_mds(paths, k, want_details=True)
            assert got == reference_uvpg_solve_mds(paths, k, want_details=True)


def test_solve_mds_builds_no_segment_instance_or_path(monkeypatch):
    """From the input paths to the selected ids, uvpg works on ints: no
    HSeg, VSeg, OrthoInstance or UnitKBendPath is constructed, and no
    path's points are walked on Fractions."""
    paths = list(instances.generate("unit_bk", {"n": 60, "k": 2}, seed=5).data.paths)
    assert any(reference_canonical(p) is not p for p in paths)  # some paths need flipping
    want = reference_uvpg_solve_mds(paths, 2, want_details=True)
    made = []
    for cls in (geom.HSeg, geom.VSeg, geom.OrthoInstance, UnitKBendPath):
        post_init = cls.__post_init__
        monkeypatch.setattr(
            cls, "__post_init__", lambda self, cls=cls, f=post_init: made.append(cls.__name__) or f(self)
        )
    points = UnitKBendPath.points
    monkeypatch.setattr(UnitKBendPath, "points", lambda self: made.append("points") or points(self))
    got = uvpg.solve_mds(paths, 2, want_details=True)
    assert made == []
    UnitKBendPath(0, F(0), F(0), ("R",)).points()
    assert made == ["UnitKBendPath", "points"]  # the patches are live
    assert got == want
