"""Exact rational covering LP/ILP layer.

Programs are 0/1 covering problems: minimize the sum of all variables
subject to one "sum over a variable subset >= 1" row per constraint and
0 <= x <= 1.  The simplex solver runs Bland's rule on integer rows (int
numerators over one shared denominator per row), so it takes the same
pivots and reaches the same vertex as a Fraction tableau, and objective
values are usable as certificates without tolerance.  The cost row is one
more tableau row, row z, and each LP answer reads its objective and a dual
witness off it; ``check_feasible`` verifies the witness in O(nnz).

``lp_round`` is the LP-rounding skeleton the three MDS pipelines share:
solve the covering LP, split each row by which labelled block holds mass
>= theta, solve each label as a sub-problem and certify the union, all in
ids; only the program it builds numbers rows and columns by position.
The ssr/srs certificate runs it too, with one block per row.

The checks and the split run on the values as ``geom.scaled`` ints: row
sums and block masses are int sums, compared with 1, theta and the
objective on that one scale.  The dual bound is an int sum on the duals'
scale, which ``solve_lp`` takes from row z as it stands.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from math import gcd
from typing import Callable, Iterable, Optional

from .errors import (
    InvalidInputError,
    SizeCapExceededError,
    UncoveredRowError,
)
from .geom import Rat, scaled

DEFAULT_SIZE_CAP = 24

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


def _equals(value: Rat, num: int, den: int) -> bool:
    """value == num / den, by one int cross-multiplication."""
    return value.numerator * den == num * value.denominator


@dataclass(frozen=True)
class CoverProgram:
    """min sum(x) s.t. for each row R: sum_{j in R} x_j >= 1, 0 <= x <= 1."""

    num_vars: int
    rows: tuple[frozenset[int], ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(frozenset(r) for r in self.rows))
        if self.num_vars < 0:
            raise InvalidInputError("num_vars must be nonnegative")
        for i, row in enumerate(self.rows):
            if not row:
                raise InvalidInputError(f"row {i} is empty")
            for j in row:
                if not (0 <= j < self.num_vars):
                    raise InvalidInputError(f"row {i} references unknown variable {j}")


@dataclass(frozen=True)
class CoverSolution:
    """A feasible point of a CoverProgram.

    ``duals`` (one multiplier per row, set by ``solve_lp``) certifies that
    ``objective_value`` is the LP optimum: for any y >= 0,
    sum(y) - sum_j max(0, colsum_j(y) - 1) is a lower bound on the LP, so a
    feasible point whose objective meets it is optimal.
    """

    values: tuple[Rat, ...]
    objective_value: Rat
    integral: bool
    duals: Optional[tuple[Rat, ...]] = None

    def check_feasible(self, program: CoverProgram) -> None:
        scale, (xs,) = scaled(self.values)
        self._check(program, scale, xs, None if self.duals is None else scaled(self.duals))

    def _check(self, program: CoverProgram, scale: int, xs: list[int], duals) -> None:
        """``check_feasible`` on the values as ``scaled`` ints ``(scale,
        xs)`` and the duals as ``scaled``'s ``(scale, [ints])``, or None
        when there are none.  Every check compares ints."""
        if len(xs) != program.num_vars:
            raise InvalidInputError("solution length mismatch")
        for x in xs:
            if not (0 <= x <= scale):
                raise InvalidInputError("variable value outside [0,1]")
        for i, row in enumerate(program.rows):
            if sum(map(xs.__getitem__, row)) < scale:
                raise InvalidInputError(f"row {i} not covered")
        if not _equals(self.objective_value, sum(xs), scale):
            raise InvalidInputError("objective_value inconsistent with values")
        if self.integral and any(x not in (0, scale) for x in xs):
            raise InvalidInputError("integral flag set on fractional values")
        if duals is None:
            return
        scale, (ys,) = duals
        if len(ys) != len(program.rows):
            raise InvalidInputError("dual length mismatch")
        if any(y < 0 for y in ys):
            raise InvalidInputError("negative dual multiplier")
        colsum = [0] * program.num_vars
        for y, row in zip(ys, program.rows):
            if y:
                for j in row:
                    colsum[j] += y
        bound = sum(ys) - sum(c - scale for c in colsum if c > scale)
        if not _equals(self.objective_value, bound, scale):
            raise InvalidInputError("dual bound differs from objective_value")


@dataclass(frozen=True)
class SolveCertificate:
    """Bundles a heuristic answer with the bounds that certify its quality."""

    heuristic_ids: frozenset[int]
    heuristic_size: int
    lp_opt: Rat
    claimed_ratio_bound: Rat
    exact_opt: Optional[int] = None

    def validate(self) -> None:
        if self.heuristic_size != len(self.heuristic_ids):
            raise InvalidInputError("heuristic_size disagrees with heuristic_ids")
        if Fraction(self.heuristic_size) < self.lp_opt:
            raise InvalidInputError("heuristic smaller than the LP lower bound")
        if Fraction(self.heuristic_size) > self.claimed_ratio_bound * self.lp_opt:
            raise InvalidInputError("claimed ratio bound violated")
        if self.exact_opt is not None:
            if not (self.lp_opt <= Fraction(self.exact_opt) <= Fraction(self.heuristic_size)):
                raise InvalidInputError("exact optimum outside [lp_opt, heuristic_size]")


def solve_lp(program: CoverProgram) -> CoverSolution:
    """Exact optimal fractional solution via primal simplex (Bland's rule).

    Variable layout: x_0..x_{n-1}, surplus s per row, upper-bound slack w
    per variable.  Starting from the all-ones point gives a feasible basis
    immediately (every row is non-empty), so no phase-1 is needed.

    Each tableau row is a dict of int numerators over one positive int
    denominator that its rhs shares, kept divided by the gcd of all of
    them.  The last row, z = n + m, is the cost row: its entries are the
    reduced costs and its rhs is minus the objective, and the elimination
    updates it like any other row.  A column -> rows index limits the ratio
    test and the elimination to the rows that have a nonzero in the
    entering column.  The pivots are Bland's: the entering column is the
    least one with a negative reduced cost (the top of a heap whose entries
    are dropped once their column's cost is no longer negative), and the
    leaving row minimizes (rhs_r / a_r, basis[r]); since the row
    denominator cancels in that ratio, rows compare by one int
    cross-multiplication.  Row z never leaves, because its entry in the
    entering column is negative.

    The objective and the dual witness are read off row z: y_i is the final
    reduced cost of surplus column s_i.  Both are checked against the values
    on row z's ints.
    """
    n = program.num_vars
    m = len(program.rows)
    if n == 0:
        return CoverSolution((), ZERO, True, ())
    # column ids: x_j = j; s_i = n + i; w_j = n + m + j
    # rows in canonical form wrt the initial basis {x_0..x_{n-1}, s_0..s_{m-1}}:
    #   x_j + w_j = 1
    #   s_i + sum_{j in row_i} w_j = |row_i| - 1
    # and the cost row z, from objective = n - sum_j w_j:
    #   -objective - sum_j w_j = -n
    # row r < z starts with basic column r; col_rows[c] holds the rows with a
    # nonzero in column c
    z = w0 = n + m
    basis = list(range(z))
    tableau: list[dict[int, int]] = [{j: 1, w0 + j: 1} for j in range(n)]
    rhs = [1] * n
    col_rows: list[set[int]] = [{j} for j in range(n)]
    col_rows += [{n + i} for i in range(m)]
    col_rows += [{j, z} for j in range(n)]
    for i, row in enumerate(program.rows):
        entry = {w0 + j: 1 for j in row}
        entry[n + i] = 1
        tableau.append(entry)
        rhs.append(len(row) - 1)
        for j in row:
            col_rows[w0 + j].add(n + i)
    tableau.append({w0 + j: -1 for j in range(n)})
    rhs.append(-n)
    den = [1] * (z + 1)
    # the columns with a negative reduced cost, none of them basic, and a
    # heap over them that may also hold columns that have left the set
    negative = set(tableau[z])
    heap = sorted(negative)

    while True:
        while heap and heap[0] not in negative:
            heappop(heap)
        if not heap:
            break
        entering = heap[0]
        # ratio test, Bland tie-break on the leaving basic variable's id
        leave = -1
        best_rhs = best_a = 0
        for r in col_rows[entering]:
            a = tableau[r][entering]
            if a > 0:
                lhs = rhs[r] * best_a
                rhs_best = best_rhs * a
                if leave < 0 or lhs < rhs_best or (lhs == rhs_best and basis[r] < basis[leave]):
                    leave, best_rhs, best_a = r, rhs[r], a
        if leave < 0:
            raise InvalidInputError("unbounded covering LP (malformed program)")

        # the pivot row keeps its numerators over the new denominator piv
        piv_row = tableau[leave]
        piv = piv_row[entering]
        piv_rhs = rhs[leave]
        g = gcd(piv, piv_rhs, *piv_row.values()) if piv != 1 else 1
        if g != 1:
            piv //= g
            piv_rhs //= g
            tableau[leave] = piv_row = {c: v // g for c, v in piv_row.items()}
        den[leave] = piv
        rhs[leave] = piv_rhs
        others = [(c, v) for c, v in piv_row.items() if c != entering]
        # row_r <- (row_r * piv - a * piv_row) / (den_r * piv)
        for r in col_rows[entering]:
            if r == leave:
                continue
            row_r = tableau[r]
            a = row_r.pop(entering)
            d = den[r]
            b = rhs[r]
            if piv != 1:
                row_r = {c: v * piv for c, v in row_r.items()}
                tableau[r] = row_r
                d *= piv
                b *= piv
            b -= a * piv_rhs
            for c, v in others:
                nv = row_r.get(c, 0) - a * v
                if nv:
                    if c not in row_r:
                        col_rows[c].add(r)
                    row_r[c] = nv
                elif c in row_r:
                    del row_r[c]
                    col_rows[c].discard(r)
            g = gcd(d, b)
            if g != 1:
                for v in row_r.values():
                    g = gcd(g, v)
                    if g == 1:
                        break
                else:
                    tableau[r] = {c: v // g for c, v in row_r.items()}
                    d //= g
                    b //= g
            den[r] = d
            rhs[r] = b
        col_rows[entering] = {leave}
        basis[leave] = entering
        # only the pivot row's columns changed in row z
        cost = tableau[z]
        negative.discard(entering)
        for c, _ in others:
            if cost.get(c, 0) < 0:
                if c not in negative:
                    negative.add(c)
                    heappush(heap, c)
            else:
                negative.discard(c)

    values = [ZERO] * n
    for r, b in enumerate(basis):
        if b < n:
            values[b] = Fraction(rhs[r], den[r])
    scale, (xs,) = scaled(values)
    integral = scale == 1  # all ints, each in [0, 1] as check_feasible confirms
    cost = tableau[z]
    ys = [cost.get(n + i, 0) for i in range(m)]
    duals = tuple(Fraction(y, den[z]) for y in ys)
    sol = CoverSolution(tuple(values), Fraction(-rhs[z], den[z]), integral, duals)
    sol._check(program, scale, xs, (den[z], [ys]))
    return sol


def _greedy_rounded(program: CoverProgram, lp_sol: CoverSolution) -> set[int]:
    # every row of size <= L has a variable of mass >= 1/L, so taking all
    # variables at or above that threshold covers every row
    biggest = max(len(r) for r in program.rows) if program.rows else 1
    theta = Fraction(1, biggest)
    return {j for j in range(program.num_vars) if lp_sol.values[j] >= theta}


def solve_ilp_exact(program: CoverProgram, size_cap: int = DEFAULT_SIZE_CAP) -> CoverSolution:
    """Minimum-cardinality integral cover via branch and bound.

    LP relaxations provide the lower bounds; branching fixes the fractional
    variable closest to 1/2 first to 1, then to 0.
    """
    if program.num_vars > size_cap:
        raise SizeCapExceededError(
            f"{program.num_vars} variables exceed the exact-solve cap {size_cap}"
        )
    if not program.rows:
        return CoverSolution((ZERO,) * program.num_vars, ZERO, True)

    root_lp = solve_lp(program)
    best = _greedy_rounded(program, root_lp)

    def recurse(rows: tuple[frozenset[int], ...], chosen: set[int]) -> None:
        nonlocal best
        if len(chosen) >= len(best):
            return
        if not rows:
            best = set(chosen)
            return
        live = sorted(frozenset().union(*rows))
        remap = {v: k for k, v in enumerate(live)}
        sub = CoverProgram(len(live), tuple(frozenset(remap[j] for j in r) for r in rows))
        lp = solve_lp(sub)
        bound = lp.objective_value
        if len(chosen) + (bound.numerator + bound.denominator - 1) // bound.denominator >= len(best):
            return
        # an integral LP optimum already solves this subtree exactly
        if lp.integral:
            cand = set(chosen) | {live[j] for j in range(len(live)) if lp.values[j] == ONE}
            if len(cand) < len(best):
                best = cand
            return
        pick = min(
            (j for j in range(len(live)) if ZERO < lp.values[j] < ONE),
            key=lambda j: (abs(lp.values[j] - HALF), j),
        )
        var = live[pick]
        # branch var = 1
        kept = tuple(r for r in rows if var not in r)
        chosen.add(var)
        recurse(kept, chosen)
        chosen.discard(var)
        # branch var = 0
        reduced = []
        for r in rows:
            rr = r - {var}
            if not rr:
                return  # row became uncoverable on this branch
            reduced.append(rr)
        recurse(tuple(reduced), chosen)

    recurse(program.rows, set())
    values = tuple(ONE if j in best else ZERO for j in range(program.num_vars))
    sol = CoverSolution(values, Fraction(len(best)), True)
    sol.check_feasible(program)
    return sol


def threshold_split(
    program: CoverProgram,
    sol: CoverSolution,
    parts: dict[int, dict[object, frozenset[int]]],
    theta: Rat,
) -> dict[object, tuple[frozenset[int], frozenset[int]]]:
    """Split rows among labeled parts by fractional mass.

    ``parts[i]`` partitions row i's variable set into labeled blocks.  A row
    joins every label whose block holds mass >= theta (ties inclusive, so one
    row may land in several labels).  Returns, per label, the selected row
    ids and the union of that label's blocks over those rows.

    The solution is checked in full first; masses are int sums of its
    ``scaled`` values, compared with theta on that scale.
    """
    scale, (xs,) = scaled(sol.values)
    sol._check(program, scale, xs, None if sol.duals is None else scaled(sol.duals))
    return _split(enumerate(program.rows), xs, scale, parts, theta)


def _split(rows, x, scale, parts, theta) -> dict[object, tuple[frozenset[int], frozenset[int]]]:
    """``threshold_split`` over ``(row key, variable set)`` pairs, where
    ``x[v]`` is the checked ``scaled`` int of variable v; rows and
    variables come back, and errors name rows, by the keys given."""
    # an int sum reaches theta * scale exactly when it reaches its ceiling
    need = -(-theta.numerator * scale // theta.denominator)
    out_rows: dict[object, set[int]] = {}
    out_vars: dict[object, set[int]] = {}
    for i, row in rows:
        if i not in parts:
            raise InvalidInputError(f"row {i} has no partition")
        blocks = parts[i]
        if sum(map(len, blocks.values())) != len(row) or row.union(*blocks.values()) != row:
            raise InvalidInputError(f"row {i} partition does not tile its variable set")
        hit = False
        for label, block in blocks.items():
            if sum(map(x.__getitem__, block)) >= need:
                hit = True
                out_rows.setdefault(label, set()).add(i)
                out_vars.setdefault(label, set()).update(block)
        if not hit:
            raise UncoveredRowError(i)
    return {
        label: (frozenset(out_rows[label]), frozenset(out_vars[label]))
        for label in out_rows
    }


@dataclass(frozen=True)
class RoundingResult:
    """Everything ``lp_round`` computed, for the pipelines' ``*Details``:
    the program in positions, column j being ``var_ids[j]``; the rest in ids."""

    program: CoverProgram
    lp_solution: CoverSolution
    var_ids: tuple[int, ...]
    split: dict[object, tuple[frozenset[int], frozenset[int]]]
    selected: dict[object, frozenset[int]]
    certificate: SolveCertificate

    def part(self, label) -> tuple[frozenset[int], frozenset[int]]:
        """(row ids, var ids) of a label; both empty if no row reached it."""
        return self.split.get(label, (frozenset(), frozenset()))


def lp_round(
    var_ids: Iterable[int],
    parts: dict[int, dict[object, frozenset[int]]],
    theta: Rat,
    solve_label: Callable[[object, frozenset[int], frozenset[int]], frozenset[int]],
    ratio: Rat,
) -> RoundingResult:
    """Threshold rounding of the covering LP with one row per key of
    ``parts``: row r is the union of the var-id blocks of ``parts[r]``.

    Columns go in sorted ``var_ids`` order and rows in sorted row-id order.
    ``solve_label(label, row ids, var ids)`` runs once per label of the
    split, in sorted label order, and returns the ids it selects; their
    union is the answer, certified against the LP optimum with ``ratio``.
    Every error names the row id: an empty row, a block id outside
    ``var_ids``, overlapping blocks, and ``UncoveredRowError.row_index``.
    """
    var_ids = tuple(sorted(var_ids))
    index = {v: j for j, v in enumerate(var_ids)}
    rows = {}
    for r in sorted(parts):
        row = frozenset().union(*parts[r].values())
        if not row:
            raise InvalidInputError(f"row {r} is empty")
        unknown = [v for v in row if v not in index]
        if unknown:
            raise InvalidInputError(f"row {r} names id {min(unknown)}, which is not among the variables")
        rows[r] = row
    program = CoverProgram(
        len(var_ids), tuple(frozenset(map(index.__getitem__, row)) for row in rows.values())
    )
    lp_sol = solve_lp(program)
    scale, (xs,) = scaled(lp_sol.values)
    split = _split(rows.items(), dict(zip(var_ids, xs)), scale, parts, theta)
    selected = {
        label: frozenset(solve_label(label, *split[label])) for label in sorted(split)
    }
    chosen = frozenset().union(*selected.values())
    cert = SolveCertificate(
        heuristic_ids=chosen,
        heuristic_size=len(chosen),
        lp_opt=lp_sol.objective_value,
        claimed_ratio_bound=Fraction(ratio),
    )
    cert.validate()
    return RoundingResult(program, lp_sol, var_ids, split, selected, cert)
