"""Brute-force baselines cross-checked against the LP branch-and-bound."""

import copy
import pickle
import random
from fractions import Fraction as F

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from geodom import (
    AbstractGraph,
    HRay,
    HSeg,
    OrthoInstance,
    SrsInstance,
    SsrInstance,
    VSeg,
    exact_mds,
    exact_stab,
    intersects,
)
from geodom.errors import (
    AssumptionViolationError,
    GenerationExhaustedError,
    InfeasibleConstraintError,
    InfeasibleError,
    InfeasibleRayError,
    InfeasibleSegmentError,
    InfeasibleTargetError,
    InvalidInputError,
    InvalidPathError,
    NotProperError,
    SizeCapExceededError,
    UncoveredRowError,
    UnmetConstraintError,
)
from geodom import cli, instances, lp, oracle, srs, ssr
from geodom.instances import UnitBkInstance

from helpers import (
    graph_from_edges,
    naive_min_dominating,
    reference_cover_rows,
    reference_exact_stab,
    reference_neighborhoods,
)
from strategies import lpath_instances, ortho_instances, ssr_instances, unit_path_lists

GRAPH_INSTANCES = st.one_of(
    lpath_instances(),
    st.integers(0, 2).flatmap(lambda k: unit_path_lists(k).map(lambda ps: UnitBkInstance(k, tuple(ps)))),
)


def test_graph_validation():
    with pytest.raises(InvalidInputError):
        AbstractGraph(2, (frozenset({0}),))
    with pytest.raises(InvalidInputError):
        AbstractGraph(1, (frozenset(),))
    with pytest.raises(InvalidInputError):
        AbstractGraph(2, (frozenset({0, 1}), frozenset({1})))
    with pytest.raises(InvalidInputError):
        AbstractGraph(1, (frozenset({0, 3}),))


def test_mds_frozen_examples():
    triangle = graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert len(exact_mds(triangle)) == 1
    path4 = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert exact_mds(path4) == {0, 2} or len(exact_mds(path4)) == 2
    isolated = AbstractGraph(3, tuple(frozenset({u}) for u in range(3)))
    assert exact_mds(isolated) == {0, 1, 2}


def test_mds_matches_ilp_and_bruteforce():
    rng = random.Random(1212)
    for _ in range(120):
        n = rng.randint(1, 8)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.4
        ]
        g = graph_from_edges(n, edges)
        got = exact_mds(g)
        for u in range(n):
            assert g.closed[u] & got
        prog = lp.CoverProgram(n, tuple(g.closed))
        via_ilp = lp.solve_ilp_exact(prog)
        assert len(got) == via_ilp.objective_value
        if n <= 7:
            nb = {u: g.closed[u] for u in range(n)}
            assert len(naive_min_dominating(nb)) == len(got)


def test_mds_edge_monotone():
    # adding an edge never makes domination harder
    rng = random.Random(1313)
    for _ in range(40):
        n = rng.randint(2, 7)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.3
        ]
        g = graph_from_edges(n, edges)
        base = len(exact_mds(g))
        missing = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if (u, v) not in edges
        ]
        if not missing:
            continue
        extra = rng.choice(missing)
        g2 = graph_from_edges(n, edges + [extra])
        assert len(exact_mds(g2)) <= base


def test_stab_dispatch_matches_ilp():
    rng = random.Random(1414)
    for _ in range(80):
        inst = instances.generate(
            "ssr",
            {"n": rng.randint(1, 8), "m": rng.randint(1, 8)},
            seed=rng.randrange(10**9),
        ).data
        got = exact_stab(inst)
        pos = {r.id: i for i, r in enumerate(inst.rays)}
        rows = tuple(
            frozenset(pos[r.id] for r in inst.rays if intersects(r, s))
            for s in inst.segments
        )
        sol = lp.solve_ilp_exact(lp.CoverProgram(len(inst.rays), rows))
        assert len(got) == sol.objective_value


@settings(max_examples=600, deadline=None)
@given(ssr_instances())
def test_oracle_matches_ilp_and_bounds_both_engines(inst):
    """On degenerate geometry: the oracle's ssr optimum is the exact ILP's,
    ``ssr.solve_fast`` picks at most twice it, and ``srs.solve`` on the
    same rays and segments at most twice the oracle's srs optimum."""
    try:
        norm = ssr.normalize(inst)
    except (InvalidInputError, InfeasibleSegmentError):
        event("ssr skipped")
    else:
        pos = {r.id: i for i, r in enumerate(inst.rays)}
        rows = tuple(
            frozenset(pos[r.id] for r in inst.rays if intersects(r, s)) for s in inst.segments
        )
        opt = lp.solve_ilp_exact(lp.CoverProgram(len(inst.rays), rows)).objective_value
        assert len(exact_stab(inst)) == opt
        assert len(ssr.solve_fast(norm)) <= 2 * opt
    flipped = SrsInstance(inst.rays, inst.segments)
    try:
        sel, _ = srs.solve(flipped)
    except InfeasibleRayError:
        event("srs skipped")
    else:
        assert len(sel) <= 2 * len(exact_stab(flipped))


def test_stab_infeasible_kinds():
    ssr_bad = SsrInstance(
        (HRay(0, F(0), F(1)),), (VSeg(9, F(5), F(-1), F(1)),)
    )
    with pytest.raises(InfeasibleSegmentError) as e1:
        exact_stab(ssr_bad)
    assert e1.value.segment_id == 9
    srs_bad = SrsInstance(
        (HRay(4, F(10), F(1)),), (VSeg(0, F(1), F(0), F(2)),)
    )
    with pytest.raises(InfeasibleRayError) as e2:
        exact_stab(srs_bad)
    assert e2.value.ray_id == 4
    ortho_bad = OrthoInstance(
        hsegs=(HSeg(0, F(0), F(0), F(1)), HSeg(1, F(5), F(0), F(1))),
        vsegs=(),
        constraint_ids=frozenset({1}),
        candidate_ids=frozenset({0}),
    )
    with pytest.raises(InfeasibleConstraintError) as e3:
        exact_stab(ortho_bad)
    assert e3.value.constraint_id == 1
    with pytest.raises(InvalidInputError):
        exact_stab("not an instance")


@pytest.mark.parametrize(
    "cls, role, message",
    [
        (InfeasibleSegmentError, "segment", "segment 7 intersects no ray"),
        (InfeasibleRayError, "ray", "ray 7 intersects no segment"),
        (InfeasibleTargetError, "target", "target 7 intersects no candidate"),
        (InfeasibleConstraintError, "constraint", "constraint 7 intersects no candidate"),
    ],
)
def test_unmet_constraint_errors_share_one_class(cls, role, message):
    exc = cls(7)
    assert isinstance(exc, UnmetConstraintError) and isinstance(exc, InfeasibleError)
    assert (exc.id, exc.role, str(exc)) == (7, role, message)
    assert getattr(exc, f"{role}_id") == 7


@pytest.mark.parametrize(
    "exc",
    [
        UnmetConstraintError(7),
        InfeasibleSegmentError(3),
        InfeasibleRayError(4),
        InfeasibleTargetError(5),
        InfeasibleConstraintError(6),
        AssumptionViolationError("iii", [9, 2]),
        NotProperError("h", [1, 2]),
        InvalidPathError(8, "legs 'L','R' do not alternate orientation"),
        UncoveredRowError(11),
        InvalidInputError("bad rational literal 'x'"),
        GenerationExhaustedError(),
    ],
    ids=lambda exc: type(exc).__name__,
)
def test_errors_survive_pickle_and_copy(exc):
    copies = [pickle.loads(pickle.dumps(exc, protocol=p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for got in copies + [copy.copy(exc), copy.deepcopy(exc)]:
        assert type(got) is type(exc)
        assert (str(got), repr(got), got.args) == (str(exc), repr(exc), exc.args)
        assert vars(got) == vars(exc)


def test_size_cap():
    g = AbstractGraph(20, tuple(frozenset({u}) for u in range(20)))
    with pytest.raises(SizeCapExceededError):
        exact_mds(g)
    assert len(exact_mds(g, cap=20)) == 20
    rays = tuple(HRay(i, F(i), F(1)) for i in range(20))
    segs = (VSeg(0, F(0), F(0), F(25)),)
    inst = SsrInstance(rays, segs)
    with pytest.raises(SizeCapExceededError):
        exact_stab(inst)
    assert len(exact_stab(inst, cap=25)) == 1


def test_cap_env_override(monkeypatch):
    g = AbstractGraph(18, tuple(frozenset({u}) for u in range(18)))
    with pytest.raises(SizeCapExceededError):
        exact_mds(g)
    assert len(exact_mds(g, cap=18)) == 18
    # the environment does not move the default cap
    monkeypatch.setenv("GEODOM_SIZE_CAP", "100")
    with pytest.raises(SizeCapExceededError, match="^graph has 18 vertices, cap is 16$"):
        exact_mds(g)
    # a negative cap is bad input
    with pytest.raises(InvalidInputError, match="^cap must be nonnegative, got -1$"):
        exact_mds(g, cap=-1)


# ---------------------------------------------------------------------------
# the covering view against the all-pairs code it replaced


def _id_rows(view):
    """A ``reference_cover_rows`` view with its rows' positions read as
    candidate ids."""
    cands, cons, rows = view
    return cands, cons, tuple(frozenset(cands[p] for p in row) for row in rows)


@settings(max_examples=500, deadline=None)
@given(ssr_instances())
def test_cover_rows_match_all_pairs_scan_as_ssr_and_srs(inst):
    """Shared abscissas, repeated heights, x == reach and touching ends,
    read both ways: ssr rows, and srs rows as their transpose."""
    assert oracle.cover_rows(inst) == _id_rows(reference_cover_rows(inst))
    flipped = SrsInstance(inst.rays, inst.segments)
    assert oracle.cover_rows(flipped) == _id_rows(reference_cover_rows(flipped))


@settings(max_examples=400, deadline=None)
@given(ortho_instances(roles=True))
def test_cover_rows_match_all_pairs_scan_on_ortho(inst):
    assert oracle.cover_rows(inst) == _id_rows(reference_cover_rows(inst))


def _as_neighborhoods(view):
    ids, cons, rows = view
    assert cons == ids == sorted(ids)
    return dict(zip(ids, rows))


@settings(max_examples=300, deadline=None)
@given(GRAPH_INSTANCES)
def test_cover_rows_of_graph_kinds_match_old_neighborhoods(data):
    assert _as_neighborhoods(oracle.cover_rows(data)) == reference_neighborhoods(data)


def _graph_outcome(data, cap):
    """``exact_mds`` on the graph of a graph kind, its vertices numbered in
    id order and mapped back to ids, or the cap error's message."""
    nbrs = reference_neighborhoods(data)
    ids = sorted(nbrs)
    pos = {u: i for i, u in enumerate(ids)}
    graph = AbstractGraph(len(ids), tuple(frozenset(pos[v] for v in nbrs[u]) for u in ids))
    try:
        return {ids[p] for p in exact_mds(graph, cap)}
    except SizeCapExceededError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(GRAPH_INSTANCES, st.sampled_from([None, 0, 4, 12]))
def test_exact_stab_on_graph_kinds_matches_exact_mds(data, cap):
    """The one exact path gives the graph kinds the set and cap message
    ``exact_mds`` gives on their relabelled graph."""
    try:
        got = exact_stab(data, cap)
    except SizeCapExceededError as exc:
        got = str(exc)
    assert got == _graph_outcome(data, cap)


def _desk_instance(rng: random.Random, kind: str):
    """A seeded desk-size instance; some lose candidates (so may be
    infeasible) and some have more candidates than the default cap."""
    top = 9 if kind == "ortho_psd" else 18
    data = instances.generate(kind, {"n": rng.randint(1, top), "m": rng.randint(1, top)},
                              rng.randrange(10**9)).data
    if rng.random() < 0.3:
        if kind == "ssr":
            data = SsrInstance(tuple(r for r in data.rays if rng.random() < 0.6), data.segments)
        elif kind == "srs":
            data = SrsInstance(data.rays, tuple(s for s in data.segments if rng.random() < 0.6))
        else:
            kept = frozenset(c for c in data.candidate_ids if rng.random() < 0.6)
            data = OrthoInstance(data.hsegs, data.vsegs, data.constraint_ids, kept)
    return data


def _stab_outcome(fn, data, cap):
    try:
        return fn(data, cap)
    except UnmetConstraintError as exc:
        return type(exc), exc.id
    except SizeCapExceededError as exc:
        return type(exc), str(exc)


def test_exact_stab_matches_old_all_pairs_function():
    rng = random.Random(1313)
    seen = {"set": 0, "unmet": 0, "cap": 0}
    for i in range(3000):
        data = _desk_instance(rng, ("ssr", "srs", "ortho_psd")[i % 3])
        cap = rng.choice([None, None, None, 4])
        got = _stab_outcome(exact_stab, data, cap)
        assert got == _stab_outcome(reference_exact_stab, data, cap)
        if isinstance(got, set):
            seen["set"] += 1
        else:
            seen["cap" if got[0] is SizeCapExceededError else "unmet"] += 1
    assert min(seen.values()) >= 200, seen


@settings(max_examples=500, deadline=None)
@given(st.one_of(
    ssr_instances(),
    ssr_instances().map(lambda inst: SrsInstance(inst.rays, inst.segments)),
    ortho_instances(roles=True),
))
def test_exact_stab_and_certificate_match_references_on_shuffled_ids(data):
    """Sparse ids in shuffled order: the all-pairs function's set or error,
    and for ssr and srs a certificate whose ``lp_opt`` is the LP over the
    all-pairs rows."""
    got = _stab_outcome(exact_stab, data, 12)
    assert got == _stab_outcome(reference_exact_stab, data, 12)
    if isinstance(data, OrthoInstance) or not isinstance(got, set):
        return
    try:
        if isinstance(data, SsrInstance):
            sel = ssr.solve_fast(ssr.normalize(data))
        else:
            sel, _ = srs.solve(data)
    except InvalidInputError:
        event("heuristic skipped")
        return
    cands, _, rows = reference_cover_rows(data)
    cert = cli._stab_certificate(data, sel)
    assert cert.heuristic_ids == frozenset(sel)
    assert cert.lp_opt == lp.solve_lp(lp.CoverProgram(len(cands), rows)).objective_value
