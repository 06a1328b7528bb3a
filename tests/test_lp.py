import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodom import instances, psd, stabbedl, uvpg
from geodom.errors import InvalidInputError, SizeCapExceededError, UncoveredRowError
from geodom.lp import (
    HALF,
    CoverProgram,
    CoverSolution,
    SolveCertificate,
    lp_round,
    solve_ilp_exact,
    solve_lp,
    threshold_split,
)
from helpers import (
    count_fraction_ops,
    lp_min_bruteforce,
    naive_min_cover,
    reference_threshold_split,
    solve_lp_reference,
)


def test_cover_program_validation():
    with pytest.raises(InvalidInputError):
        CoverProgram(2, (frozenset(),))           # empty row
    with pytest.raises(InvalidInputError):
        CoverProgram(2, (frozenset({2}),))        # id out of range
    CoverProgram(0, ())                            # vacuous program is fine


def test_triangle_lp_is_three_halves():
    prog = CoverProgram(3, (frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})))
    sol = solve_lp(prog)
    assert sol.objective_value == F(3, 2)
    assert sol.values == (F(1, 2), F(1, 2), F(1, 2))
    sol.check_feasible(prog)
    ilp = solve_ilp_exact(prog)
    assert ilp.objective_value == F(2)
    assert ilp.integral


def test_single_row_lp():
    prog = CoverProgram(4, (frozenset({2}),))
    sol = solve_lp(prog)
    assert sol.objective_value == F(1)
    assert sol.values[2] == F(1)


def _random_program(rng, max_vars=5, max_rows=6):
    n = rng.randint(1, max_vars)
    m = rng.randint(1, max_rows)
    rows = []
    for _ in range(m):
        size = rng.randint(1, n)
        rows.append(frozenset(rng.sample(range(n), size)))
    return CoverProgram(n, tuple(rows))


def test_lp_matches_vertex_enumeration():
    rng = random.Random(42)
    for _ in range(150):
        prog = _random_program(rng)
        sol = solve_lp(prog)
        sol.check_feasible(prog)
        assert sol.objective_value == lp_min_bruteforce(prog)


def test_ilp_matches_naive_cover():
    rng = random.Random(43)
    for _ in range(120):
        prog = _random_program(rng, max_vars=7, max_rows=8)
        ilp = solve_ilp_exact(prog)
        sets = {
            j: frozenset(i for i, row in enumerate(prog.rows) if j in row)
            for j in range(prog.num_vars)
        }
        naive = naive_min_cover(sets, range(len(prog.rows)))
        assert ilp.objective_value == F(len(naive))
        assert ilp.integral
        ilp.check_feasible(prog)
        # ILP never beats the relaxation
        assert ilp.objective_value >= solve_lp(prog).objective_value


def test_ilp_size_cap():
    prog = CoverProgram(30, tuple(frozenset({j}) for j in range(30)))
    with pytest.raises(SizeCapExceededError):
        solve_ilp_exact(prog, size_cap=24)
    assert solve_ilp_exact(prog, size_cap=30).objective_value == F(30)


def test_threshold_split_two_labels():
    prog = CoverProgram(2, (frozenset({0, 1}),))
    sol = solve_lp(prog)
    # optimum puts everything on one variable; partition row into singletons
    parts = {0: {"a": frozenset({0}), "b": frozenset({1})}}
    split = threshold_split(prog, sol, parts, HALF)
    picked = set(split)
    assert len(picked) >= 1
    for label, (rows, vars_) in split.items():
        assert rows == frozenset({0})
        assert vars_ <= frozenset({0, 1})


def test_threshold_split_requires_tiling():
    prog = CoverProgram(2, (frozenset({0, 1}),))
    sol = solve_lp(prog)
    with pytest.raises(InvalidInputError):
        threshold_split(prog, sol, {0: {"a": frozenset({0})}}, HALF)


def test_threshold_split_uncovered_row():
    prog = CoverProgram(4, (frozenset({0, 1, 2, 3}),))
    sol = solve_lp(prog)
    parts = {0: {str(j): frozenset({j}) for j in range(4)}}
    # mass 1 spread over four singleton parts cannot reach a 1/2 threshold
    # unless the simplex landed on a sparse vertex; force the bad case
    if max(sol.values) < HALF:
        with pytest.raises(UncoveredRowError):
            threshold_split(prog, sol, parts, HALF)
    else:
        threshold_split(prog, sol, parts, HALF)


def _split_outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (InvalidInputError, UncoveredRowError) as exc:
        return "error", type(exc), str(exc)


@st.composite
def split_cases(draw):
    """(program, solution, parts, theta): values with denominators up to 6,
    rows kept only where the values cover them, each row's variables dealt
    to up to three labels (an empty block now and then), and theta either a
    block's exact mass (a tie) or any small rational, zero or negative ones
    included."""
    n = draw(st.integers(1, 7))
    values = tuple(draw(st.builds(F, st.integers(0, 6), st.just(6))) for _ in range(n))
    rows = [
        frozenset(r)
        for r in draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1), max_size=6))
        if sum((values[j] for j in r), F(0)) >= 1
    ]
    prog = CoverProgram(n, tuple(rows))
    sol = CoverSolution(values, sum(values, F(0)), all(v in (0, 1) for v in values))
    parts = {}
    masses = [F(0)]
    for i, row in enumerate(rows):
        blocks = {}
        for j in sorted(row):
            blocks.setdefault(draw(st.sampled_from("abc")), set()).add(j)
        if draw(st.booleans()):
            blocks.setdefault("z", set())
        parts[i] = {label: frozenset(b) for label, b in blocks.items()}
        masses += [sum((values[j] for j in b), F(0)) for b in parts[i].values()]
    theta = draw(st.one_of(st.sampled_from(masses), st.builds(F, st.integers(-3, 8), st.integers(1, 7))))
    return prog, sol, parts, theta


@settings(max_examples=400, deadline=None)
@given(split_cases())
def test_threshold_split_matches_fraction_reference(case):
    assert _split_outcome(threshold_split, *case) == _split_outcome(reference_threshold_split, *case)


def test_threshold_split_matches_fraction_reference_on_dropped_rows():
    prog = CoverProgram(2, (frozenset({0, 1}), frozenset({1})))
    sol = solve_lp(prog)
    parts = {1: {"a": frozenset({1})}}  # row 0 has no partition
    assert _split_outcome(threshold_split, prog, sol, parts, HALF) == _split_outcome(
        reference_threshold_split, prog, sol, parts, HALF
    )


def test_threshold_split_makes_no_fraction_comparisons_or_additions(monkeypatch):
    inst = stabbedl.normalize(instances.generate("stabbed_l", {"n": 200, "coord_range": 25}, seed=11).data)
    _, part = stabbedl.build_graph(inst)
    ids = sorted(p.id for p in inst.paths)
    prog = CoverProgram(200, tuple(part.horizontal[u] | part.vertical[u] for u in ids))
    parts = {u: {"h": part.horizontal[u], "v": part.vertical[u]} for u in ids}
    sol = solve_lp(prog)
    assert len(prog.rows) == 200 and sol.duals is not None
    counts = count_fraction_ops(monkeypatch)
    got = threshold_split(prog, sol, parts, HALF)
    assert sum(counts.values()) == 0
    assert got == reference_threshold_split(prog, sol, parts, HALF)
    assert sum(counts.values()) > 0  # the counting patch is live


# the triangle program (LP optimum 3/2, every x_j = 1/2) with labelled rows;
# label "z" owns only an empty block, so no row ever reaches it
TRIANGLE_PARTS = [
    {"b": frozenset({0}), "a": frozenset({1}), "z": frozenset()},
    {"c": frozenset({1, 2})},
    {"a": frozenset({0}), "b": frozenset({2})},
]


def test_lp_round_solves_each_label_once_in_sorted_order():
    calls = []

    def solve_label(label, rows, vars_):
        calls.append((label, rows, vars_))
        return {10 + len(calls)}

    res = lp_round(range(3), dict(enumerate(TRIANGLE_PARTS)), HALF, solve_label, 2)
    assert res.program.rows == (frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2}))
    assert res.lp_solution == solve_lp(res.program)
    split = threshold_split(
        res.program, res.lp_solution, dict(enumerate(TRIANGLE_PARTS)), HALF
    )
    assert res.split == split
    assert calls == [
        ("a", frozenset({0, 2}), frozenset({0, 1})),
        ("b", frozenset({0, 2}), frozenset({0, 2})),
        ("c", frozenset({1}), frozenset({1, 2})),
    ]
    assert [label for label, _, _ in calls] == sorted(split)
    assert res.selected == {"a": {11}, "b": {12}, "c": {13}}
    assert res.part("z") == (frozenset(), frozenset())
    assert res.certificate == SolveCertificate(
        heuristic_ids=frozenset({11, 12, 13}),
        heuristic_size=3,
        lp_opt=F(3, 2),
        claimed_ratio_bound=F(2),
    )


def test_lp_round_never_calls_an_absent_label():
    seen = []
    lp_round(range(3), dict(enumerate(TRIANGLE_PARTS)), HALF, lambda label, rows, vars_: seen.append(label) or {label}, 3)
    assert "z" not in seen and seen == ["a", "b", "c"]


def test_lp_round_validates_the_certificate():
    # 3 ids against ratio 1 x LP 3/2 breaks the claimed bound
    with pytest.raises(InvalidInputError, match="claimed ratio bound violated"):
        lp_round(range(3), dict(enumerate(TRIANGLE_PARTS)), HALF, lambda label, rows, vars_: {label}, 1)
    # no ids at all is below the LP lower bound
    with pytest.raises(InvalidInputError, match="smaller than the LP"):
        lp_round(range(3), dict(enumerate(TRIANGLE_PARTS)), HALF, lambda label, rows, vars_: set(), 2)


def test_lp_round_speaks_ids_in_sorted_order():
    # sparse ids, given out of order: columns and rows still go in id order
    # (3, 7, 11 and 5, 20), and everything handed back is ids again
    parts = {
        20: {"a": frozenset({11}), "b": frozenset({3})},
        5: {"a": frozenset({3}), "b": frozenset({7})},
    }
    calls = []

    def solve_label(label, rows, vars_):
        calls.append((label, rows, vars_))
        return vars_

    res = lp_round([11, 3, 7], parts, HALF, solve_label, 2)
    assert res.var_ids == (3, 7, 11)
    assert res.program == CoverProgram(3, (frozenset({0, 1}), frozenset({0, 2})))
    assert res.lp_solution.values == (1, 0, 0)
    # row 5 reaches "a" through x_3 = 1, row 20 reaches "b" the same way
    assert calls == [
        ("a", frozenset({5}), frozenset({3})),
        ("b", frozenset({20}), frozenset({3})),
    ]
    assert res.part("b") == (frozenset({20}), frozenset({3}))
    assert res.selected == {"a": {3}, "b": {3}}
    assert res.certificate.heuristic_ids == {3}


def test_lp_round_names_a_block_id_outside_the_variables():
    def never(label, rows, vars_):
        raise AssertionError("no label may run")

    with pytest.raises(InvalidInputError, match="row 5 names id 4") as exc:
        lp_round([3], {5: {"a": frozenset({3, 4})}}, HALF, never, 2)
    assert not isinstance(exc.value, KeyError)
    # the first row in id order that names one, whatever the dict order
    parts = {9: {"a": frozenset({8})}, 2: {"a": frozenset({3}), "b": frozenset({7})}}
    with pytest.raises(InvalidInputError, match="row 2 names id 7"):
        lp_round([3, 8], parts, HALF, never, 2)


def _never(label, rows, vars_):
    raise AssertionError("no label may run")


def test_lp_round_names_the_row_id_of_overlapping_blocks():
    with pytest.raises(InvalidInputError, match="row 5 partition does not tile"):
        lp_round([3, 7], {5: {"a": frozenset({3}), "b": frozenset({3, 7})}}, HALF, _never, 2)


def test_lp_round_names_the_row_id_that_reaches_no_block():
    # a triangle on ids 4, 6, 8: the LP optimum is 1/2 everywhere, so no
    # singleton block reaches 2/3, and row 10 is the first in id order
    parts = {
        30: {"a": frozenset({4}), "b": frozenset({8})},
        10: {"a": frozenset({4}), "b": frozenset({6})},
        20: {"a": frozenset({6}), "b": frozenset({8})},
    }
    with pytest.raises(UncoveredRowError, match="row 10 reaches") as exc:
        lp_round([8, 4, 6], parts, F(2, 3), _never, 2)
    assert exc.value.row_index == 10


def test_lp_round_names_the_row_id_whose_blocks_are_all_empty():
    parts = {2: {"a": frozenset({3, 7})}, 5: {"a": frozenset(), "b": frozenset()}}
    with pytest.raises(InvalidInputError, match="row 5 is empty"):
        lp_round([3, 7], parts, HALF, _never, 2)


@st.composite
def id_rounding_cases(draw):
    """(var ids, parts, theta): sparse var ids in shuffled order, sparse row
    ids, each row a nonempty set of var ids dealt to up to three labels (an
    empty block now and then), theta a small rational."""
    var_ids = draw(st.permutations(sorted(draw(st.sets(st.integers(0, 999), min_size=1, max_size=6)))))
    row_ids = draw(st.sets(st.integers(0, 999), min_size=1, max_size=6))
    parts = {}
    for r in row_ids:
        blocks = {}
        for v in sorted(draw(st.sets(st.sampled_from(var_ids), min_size=1))):
            blocks.setdefault(draw(st.sampled_from("abc")), set()).add(v)
        if draw(st.booleans()):
            blocks.setdefault("z", set())
        parts[r] = {label: frozenset(b) for label, b in blocks.items()}
    theta = draw(st.builds(F, st.integers(-1, 4), st.integers(1, 4)))
    return var_ids, parts, theta


@settings(max_examples=300, deadline=None)
@given(id_rounding_cases())
def test_lp_round_splits_as_threshold_split_does_on_positions(case):
    var_ids, parts, theta = case
    cols, rows = sorted(var_ids), sorted(parts)
    pos = {v: j for j, v in enumerate(cols)}
    pos_parts = {
        i: {label: frozenset(pos[v] for v in b) for label, b in parts[r].items()}
        for i, r in enumerate(rows)
    }
    program = CoverProgram(
        len(cols), tuple(frozenset().union(*bs.values()) for bs in pos_parts.values())
    )
    try:
        want = threshold_split(program, solve_lp(program), pos_parts, theta)
    except UncoveredRowError as exc:
        with pytest.raises(UncoveredRowError) as got:
            lp_round(var_ids, parts, theta, _never, len(cols))
        assert got.value.row_index == rows[exc.row_index]
        return
    res = lp_round(var_ids, parts, theta, lambda *_: frozenset(cols), len(cols))
    assert res.program == program
    assert res.split == {
        label: (frozenset(rows[i] for i in r), frozenset(cols[j] for j in c))
        for label, (r, c) in want.items()
    }


def test_certificate_validation():
    cert = SolveCertificate(
        heuristic_ids=frozenset({1, 2}),
        heuristic_size=2,
        lp_opt=F(3, 2),
        claimed_ratio_bound=F(2),
    )
    cert.validate()
    bad = SolveCertificate(
        heuristic_ids=frozenset({1, 2, 3, 4}),
        heuristic_size=4,
        lp_opt=F(3, 2),
        claimed_ratio_bound=F(2),
    )
    with pytest.raises(InvalidInputError):
        bad.validate()   # 4 > 2 * 3/2
    with pytest.raises(InvalidInputError):
        SolveCertificate(
            heuristic_ids=frozenset({1}),
            heuristic_size=1,
            lp_opt=F(2),
            claimed_ratio_bound=F(2),
        ).validate()     # heuristic below the LP bound is impossible


def test_ilp_respects_exact_small_branching():
    # classic bad-for-greedy instance: one big set vs two halves
    rows = (
        frozenset({0, 1}),
        frozenset({0, 2}),
        frozenset({1, 2}),
        frozenset({0, 1, 2}),
    )
    prog = CoverProgram(3, rows)
    assert solve_ilp_exact(prog).objective_value == F(2)


def _odd_cycle(k):
    return CoverProgram(k, tuple(frozenset({j, (j + 1) % k}) for j in range(k)))


def test_duals_certify_the_optimum():
    prog = _odd_cycle(5)
    sol = solve_lp(prog)
    assert sol.objective_value == F(5, 2)
    assert sol.duals is not None and len(sol.duals) == 5
    assert all(y >= 0 for y in sol.duals)
    assert solve_ilp_exact(prog).duals is None


def test_tampered_duals_are_rejected():
    prog = _odd_cycle(5)
    sol = solve_lp(prog)
    y = list(sol.duals)
    bumped = y[:]
    bumped[0] += F(1, 7)
    negative = y[:]
    negative[1] = F(-1, 3)
    # same sum as the optimal duals, but variable 0 is over-covered
    shifted = [F(1), F(0)] + y[2:]
    for duals in (tuple(bumped), tuple(negative), tuple(shifted), tuple(y[:-1])):
        with pytest.raises(InvalidInputError):
            replace(sol, duals=duals).check_feasible(prog)
    # the optimal duals do not certify a feasible but worse point
    ones = replace(sol, values=(F(1),) * 5, objective_value=F(5), integral=True)
    with pytest.raises(InvalidInputError):
        ones.check_feasible(prog)
    replace(ones, duals=None).check_feasible(prog)


def _count_full_checks(monkeypatch) -> list:
    """Record every full ``_check`` run, values and duals alike."""
    calls = []
    check = CoverSolution._check
    monkeypatch.setattr(CoverSolution, "_check", lambda s, p, *a: calls.append(p) or check(s, p, *a))
    return calls


def test_equal_but_distinct_program_is_checked_in_full(monkeypatch):
    prog = _odd_cycle(5)
    sol = solve_lp(prog)
    twin = CoverProgram(prog.num_vars, prog.rows)
    assert twin == prog and twin is not prog
    calls = _count_full_checks(monkeypatch)
    sol.check_feasible(twin)
    assert calls == [twin]
    # and a program the solution does not satisfy is still rejected
    stricter = CoverProgram(5, prog.rows + (frozenset({0}),))
    with pytest.raises(InvalidInputError):
        sol.check_feasible(stricter)


def test_hand_built_and_tampered_solutions_still_raise():
    prog = _odd_cycle(5)
    sol = solve_lp(prog)
    with pytest.raises(InvalidInputError):
        CoverSolution((F(1, 2),) * 5, F(3), False, sol.duals).check_feasible(prog)
    with pytest.raises(InvalidInputError):
        replace(sol, objective_value=F(3)).check_feasible(prog)
    # a field changed in place after solve_lp's check is checked again,
    # by check_feasible and by threshold_split alike
    object.__setattr__(sol, "values", (F(1, 2),) * 4 + (F(0),))
    with pytest.raises(InvalidInputError):
        sol.check_feasible(prog)
    parts = {i: {"all": row} for i, row in enumerate(prog.rows)}
    with pytest.raises(InvalidInputError, match="^row 3 not covered$"):
        threshold_split(prog, sol, parts, F(1, 2))


def test_solved_solution_equals_a_bare_copy():
    prog = _odd_cycle(5)
    sol = solve_lp(prog)
    bare = CoverSolution(sol.values, sol.objective_value, sol.integral, sol.duals)
    assert sol == bare and hash(sol) == hash(bare) and repr(sol) == repr(bare)
    # a negative multiplier can meet the bound equation and still prove nothing
    pair = CoverProgram(2, (frozenset({0}), frozenset({1}), frozenset({0, 1})))
    sol = solve_lp(pair)
    assert sol.objective_value == F(2)
    with pytest.raises(InvalidInputError):
        replace(sol, duals=(F(3, 2), F(1), F(-1, 2))).check_feasible(pair)


def _shaped_program(rng, shape):
    n = rng.randint(1, 10)
    rows = [frozenset(rng.sample(range(n), rng.randint(1, n))) for _ in range(rng.randint(0, 4))]
    if shape == "singleton":
        rows += [frozenset({rng.randrange(n)}) for _ in range(rng.randint(1, 4))]
    elif shape == "duplicate":
        base = [frozenset(rng.sample(range(n), rng.randint(1, n))) for _ in range(rng.randint(1, 4))]
        rows += base + [rng.choice(base) for _ in range(rng.randint(1, 4))]
    elif shape == "nested":
        order = rng.sample(range(n), n)
        rows += [frozenset(order[:k]) for k in range(1, n + 1) if rng.random() < 0.7]
    elif shape == "full":
        rows += [frozenset(range(n))] * rng.randint(1, 3)
    elif shape == "interval":
        for _ in range(rng.randint(1, 12)):
            a = rng.randrange(n)
            b = rng.randrange(a, n)
            rows.append(frozenset(range(a, b + 1)))
    elif shape == "odd_cycle":
        k = rng.choice([c for c in (3, 5, 7, 9) if c <= max(n, 3)])
        n = max(n, k)
        shift = rng.randrange(n - k + 1)
        rows += [frozenset({shift + j, shift + (j + 1) % k}) for j in range(k)]
    if not rows:
        rows = [frozenset({0})]
    rng.shuffle(rows)
    return CoverProgram(n, tuple(rows))


def _answer(sol):
    return sol.values, sol.objective_value, sol.duals


@pytest.mark.parametrize(
    "shape", ["singleton", "duplicate", "nested", "full", "interval", "odd_cycle"]
)
def test_solve_lp_matches_fraction_reference(shape):
    rng = random.Random(f"lp-{shape}")
    fractional = 0
    for _ in range(150):
        prog = _shaped_program(rng, shape)
        sol = solve_lp(prog)
        assert _answer(sol) == _answer(solve_lp_reference(prog))
        fractional += not sol.integral
    if shape == "odd_cycle":
        assert fractional > 0


def test_solve_lp_matches_reference_on_pipeline_programs():
    programs = []
    for seed in (1, 2, 4):
        sl = instances.generate("stabbed_l", {"n": 40, "coord_range": 40}, seed).data
        programs.append(stabbedl.solve_mds(sl, want_details=True)[1].program)
        ortho = instances.generate("ortho_psd", {"n": 30, "m": 30, "coord_range": 40}, seed).data
        programs.append(psd.psd_solve(ortho, want_details=True)[1].program)
        bk = instances.generate("unit_bk", {"n": 40, "k": 2, "coord_range": 5}, seed).data
        programs.append(uvpg.solve_mds(list(bk.paths), bk.k, want_details=True)[1].program)
    fractional = 0
    for prog in programs:
        sol = solve_lp(prog)
        assert _answer(sol) == _answer(solve_lp_reference(prog))
        fractional += not sol.integral
    assert fractional >= 3


@st.composite
def _programs(draw):
    n = draw(st.integers(1, 7))
    row = st.frozensets(st.integers(0, n - 1), min_size=1)
    return CoverProgram(n, tuple(draw(st.lists(row, min_size=1, max_size=9))))


@settings(max_examples=300, deadline=None)
@given(_programs())
def test_solve_lp_matches_reference_property(prog):
    assert _answer(solve_lp(prog)) == _answer(solve_lp_reference(prog))
