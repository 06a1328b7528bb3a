"""End-to-end acceptance gate.

One test per shipped guarantee, each over freshly seeded random sweeps at
the promised instance counts.  All numeric comparisons are exact rationals;
nothing here tolerates drift.  Each test prints a PASS line so a -s run
reads as a checklist.
"""

import random
import time
from fractions import Fraction as F

from geodom import (
    AbstractGraph,
    HRay,
    HSeg,
    OrthoInstance,
    SsrInstance,
    VSeg,
    exact_mds,
    exact_stab,
    grid_to_unit_b1,
    intersects,
    properize,
)
from geodom import instances, lp, psd, srs, ssr, stabbedl, uvpg
from geodom.cli import run_cli
from geodom.geom import containment_violation

from helpers import intervals_meet, segment_table, ssr_cover_ok


def _ssr_cases(count: int, top: int, salt: int):
    rng = random.Random(salt)
    return [
        (rng.randint(1, top), rng.randint(1, top), rng.randrange(10**9))
        for _ in range(count)
    ]


def _cover_rows(cands, cons):
    order = [c.id for c in cands]
    pos = {cid: i for i, cid in enumerate(order)}
    rows = tuple(
        frozenset(pos[c.id] for c in cands if intersects(c, u)) for u in cons
    )
    return lp.CoverProgram(len(order), rows)


def test_criterion_1_ssr_ratio():
    start = time.perf_counter()
    for n, m, seed in _ssr_cases(1000, 12, salt=101):
        inst = instances.generate("ssr", {"n": n, "m": m}, seed).data
        sel = ssr.solve_fast(ssr.normalize(inst))
        opt = exact_stab(inst)
        assert len(sel) <= 2 * len(opt)
        relaxed = lp.solve_lp(_cover_rows(inst.rays, inst.segments))
        assert F(len(sel)) <= 2 * relaxed.objective_value
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"PASS criterion 1: ssr ratio <= 2x exact and 2x lp on 1000 instances "
          f"({elapsed:.1f}s)")


def test_criterion_2_ssr_token_invariants():
    events_seen = 0
    for n, m, seed in _ssr_cases(1000, 12, salt=101):
        inst = instances.generate("ssr", {"n": n, "m": m}, seed).data
        _, trace = ssr.solve(ssr.normalize(inst))
        counts: dict[int, int] = {}
        for members in trace.final_tokens.values():
            for rid in members:
                counts[rid] = counts.get(rid, 0) + 1
        assert all(c <= 2 for c in counts.values())
        for ev in trace.events:
            events_seen += 1
            assert ev.witness_input_stabbers <= ev.ray_token
            assert all(tok == frozenset() for tok in ev.other_tokens.values())
    assert events_seen > 0
    print(f"PASS criterion 2: token multiplicity <= 2 and critical-event "
          f"containment on 1000 traces ({events_seen} events)")


def test_criterion_3_srs_ratio_and_tokens():
    rng = random.Random(303)
    for _ in range(1000):
        n, m = rng.randint(1, 12), rng.randint(1, 12)
        inst = instances.generate("srs", {"n": n, "m": m}, rng.randrange(10**9)).data
        sel, trace = srs.solve(inst)
        opt = exact_stab(inst)
        assert len(sel) <= 2 * len(opt)
        relaxed = lp.solve_lp(_cover_rows(inst.segments, inst.rays))
        assert F(len(sel)) <= 2 * relaxed.objective_value
        counts: dict[int, int] = {}
        for members in trace.tokens.values():
            for vid in members:
                counts[vid] = counts.get(vid, 0) + 1
        assert all(c <= 2 for c in counts.values())
    print("PASS criterion 3: srs ratio <= 2x exact and 2x lp, token "
          "multiplicity <= 2 on 1000 instances")


def _big_ssr(rng: random.Random, n: int, m: int) -> SsrInstance:
    ys = list(range(1, n + 1))
    rng.shuffle(ys)
    reaches = [rng.randint(1, 10**6) for _ in range(n)]
    reaches[0] = 10**6
    rays = tuple(HRay(i, F(ys[i]), F(reaches[i])) for i in range(n))
    segs = []
    for j in range(m):
        a = rays[rng.randrange(n)]
        x = rng.randint(1, int(a.x_right))
        segs.append(VSeg(j, F(x), a.y - rng.randint(0, 3), a.y + rng.randint(0, 3)))
    return SsrInstance(rays, tuple(segs))


def _timed_fast(inst: SsrInstance) -> tuple[float, float]:
    """Wall and process seconds of one ``solve_fast`` run."""
    t0, c0 = time.perf_counter(), time.process_time()
    sel = ssr.solve_fast(inst)
    dt, dc = time.perf_counter() - t0, time.process_time() - c0
    assert ssr_cover_ok(inst, sel)
    return dt, dc


def test_criterion_4_fast_engine():
    for n, m, seed in _ssr_cases(1000, 10, salt=404):
        inst = ssr.normalize(instances.generate("ssr", {"n": n, "m": m}, seed).data)
        slow, _ = ssr.solve(inst)
        assert set(slow) == set(ssr.solve_fast(inst))
    rng = random.Random(405)
    half = _big_ssr(rng, 50_000, 50_000)
    full = _big_ssr(rng, 100_000, 100_000)
    runs_half = [_timed_fast(half) for _ in range(3)]
    runs_full = [_timed_fast(full) for _ in range(2)]
    t_full = min(wall for wall, _ in runs_full)
    # the doubling factor is taken on process time, which leaves out time spent waiting for a CPU
    c_half = min(cpu for _, cpu in runs_half)
    c_full = min(cpu for _, cpu in runs_full)
    assert t_full < 10.0
    assert c_full < 3.0 * c_half
    print(f"PASS criterion 4: slow/fast agree on 1000 instances; 1e5 run "
          f"{t_full:.2f}s with doubling factor {c_full / c_half:.2f}")


def test_criterion_5_interval_domination_integrality():
    rng = random.Random(505)
    for _ in range(200):
        n = rng.randint(1, 12)
        ivs = []
        lo = rng.randint(-6, 6)
        hi = lo + rng.randint(0, 4)
        for i in range(n):
            ivs.append(psd.Interval(i, F(lo), F(hi)))
            lo += rng.randint(1, 4)
            hi = max(hi + rng.randint(1, 4), lo)
        s = psd.ProperIntervalSet(tuple(ivs))
        t_ids = sorted(rng.sample(range(n), rng.randint(1, n)))
        got = psd.spid_exact(s, t_ids)
        rows = tuple(
            frozenset(j for j in range(n) if intervals_meet(ivs[j], ivs[t])) for t in t_ids
        )
        prog = lp.CoverProgram(n, rows)
        assert F(len(got)) == lp.solve_lp(prog).objective_value
        assert len(got) == lp.solve_ilp_exact(prog).objective_value
        for row in rows:
            members = sorted(row)
            assert members == list(range(members[0], members[-1] + 1))
    print("PASS criterion 5: greedy = LP = ILP with consecutive-ones rows "
          "on 200 proper instances")


def _proper_hsegs(rng: random.Random, count: int) -> list[HSeg]:
    segs = []
    lo = rng.randint(-8, 0)
    hi = lo + rng.randint(1, 4)
    for i in range(count):
        segs.append(HSeg(i, F(rng.randint(0, 6)), F(lo), F(hi)))
        lo += rng.randint(1, 3)
        hi = max(hi + rng.randint(1, 3), lo + 1)
    return segs


def test_criterion_6_boundary_cover():
    rng = random.Random(606)
    for _ in range(300):
        cands = _proper_hsegs(rng, rng.randint(1, 7))
        targets = []
        for i in range(rng.randint(1, 7)):
            c = rng.choice(cands)
            x = c.x_lo + F(rng.randint(0, int(c.x_hi - c.x_lo)))
            targets.append(VSeg(i, x, c.y - rng.randint(0, 3), c.y + rng.randint(0, 3)))
        cert, det = psd.poss_solve(cands, targets, want_details=True)
        chosen = [c for c in cands if c.id in cert.heuristic_ids]
        for t in targets:
            assert any(intersects(c, t) for c in chosen)
        relaxed = lp.solve_lp(_cover_rows(cands, sorted(targets, key=lambda t: t.id)))
        assert relaxed.objective_value == cert.lp_opt
        assert F(cert.heuristic_size) <= 8 * cert.lp_opt
        dec = det.decomposition
        for c in cands:
            assert sum(1 for p in dec.interior if c.x_lo <= p <= c.x_hi) == 1
        for t in targets:
            assert not (dec.left[t.id] & dec.right[t.id])
    print("PASS criterion 6: boundary cover feasible and <= 8x lp with strip "
          "invariants on 300 instances")


def test_criterion_7_proper_segment_domination():
    rng = random.Random(707)
    for _ in range(300):
        inst = instances.generate(
            "ortho_psd",
            {"n": rng.randint(1, 7), "m": rng.randint(1, 7)},
            seed=rng.randrange(10**9),
        ).data
        cert, det = psd.psd_solve(inst, want_details=True)
        table = segment_table(inst)
        chosen = [table[c] for c in cert.heuristic_ids]
        for u in inst.constraint_ids:
            assert any(intersects(table[u], c) for c in chosen)
        assert F(cert.heuristic_size) <= 18 * cert.lp_opt
        # chain: exact same-orientation half plus 8x the cross half
        pos = {cid: j for j, cid in enumerate(det.var_order)}
        same_opt = 0
        if det.same_rows:
            rows = tuple(
                frozenset(
                    pos[c]
                    for c in det.same_vars
                    if type(table[c]) is type(table[u])
                    and intersects(table[u], table[c])
                )
                for u in sorted(det.same_rows)
            )
            sub = lp.CoverProgram(len(det.var_order), rows)
            same_opt = lp.solve_ilp_exact(sub).objective_value
            assert len(det.exact_selected) == same_opt
        cross_opt = 0
        if det.cross_rows:
            rows = tuple(
                frozenset(
                    pos[c]
                    for c in det.cross_vars
                    if type(table[c]) is not type(table[u])
                    and intersects(table[u], table[c])
                )
                for u in sorted(det.cross_rows)
            )
            sub = lp.CoverProgram(len(det.var_order), rows)
            cross_opt = lp.solve_ilp_exact(sub).objective_value
        assert cert.heuristic_size <= same_opt + 8 * cross_opt
    print("PASS criterion 7: segment domination <= 18x lp and within the "
          "exact-plus-8x-cross chain on 300 instances")


def test_criterion_8_stabbed_l_domination():
    rng = random.Random(808)
    for trial in range(300):
        n = rng.randint(1, 10) if trial % 5 else rng.randint(11, 14)
        inst = instances.generate("stabbed_l", {"n": n}, rng.randrange(10**9)).data
        cert, det = stabbedl.solve_mds(inst, want_details=True)
        nb, parts = stabbedl.build_graph(stabbedl.normalize(inst))
        for u in nb:
            assert nb[u] & cert.heuristic_ids
        order = sorted(nb)
        pos = {u: i for i, u in enumerate(order)}
        g = AbstractGraph(
            len(order), tuple(frozenset(pos[v] for v in nb[u]) for u in order)
        )
        assert cert.heuristic_size <= 8 * len(exact_mds(g))
        # chain over the two leg-contact half-programs, exact rationals
        full = lp.solve_lp(det.program).objective_value

        def half_lp(row_ids, blocks, cand_ids):
            if not row_ids:
                return F(0)
            rows = tuple(
                frozenset(det.index_of[v] for v in blocks[u] & cand_ids)
                for u in sorted(row_ids)
            )
            prog = lp.CoverProgram(det.program.num_vars, rows)
            return lp.solve_lp(prog).objective_value

        lp_h = half_lp(det.h_rows, parts.horizontal, det.h_candidates)
        lp_v = half_lp(det.v_rows, parts.vertical, det.v_candidates)
        assert F(cert.heuristic_size) <= 2 * (lp_h + lp_v)
        assert 2 * (lp_h + lp_v) <= 8 * full
    print("PASS criterion 8: stabbed-L domination <= 8x exact with the "
          "two-half chain on 300 instances")


def test_criterion_9_unit_bk_domination():
    rng = random.Random(909)
    for k in (0, 1, 2):
        for trial in range(200):
            n = rng.randint(1, 8) if trial % 8 else rng.randint(9, 12)
            inst = instances.generate(
                "unit_bk", {"n": n, "k": k}, rng.randrange(10**9)
            ).data
            cert, det = uvpg.solve_mds(list(inst.paths), k, want_details=True)
            nb = det.contacts.neighborhoods
            for u in nb:
                assert nb[u] & cert.heuristic_ids
            order = sorted(nb)
            pos = {u: i for i, u in enumerate(order)}
            g = AbstractGraph(
                len(order), tuple(frozenset(pos[v] for v in nb[u]) for u in order)
            )
            bound = 18 * (k + 1) ** 4
            assert cert.heuristic_size <= bound * len(exact_mds(g))
            for u, blocks in det.contacts.partition.items():
                merged: set[int] = set()
                total = 0
                for vs in blocks.values():
                    merged |= vs
                    total += len(vs)
                assert merged == set(nb[u]) and total == len(nb[u])
    print("PASS criterion 9: unit bend-bounded domination within "
          "18(k+1)^4 x exact for k in {0,1,2}, 200 instances each")


def test_criterion_10_grid_representation():
    t0 = time.perf_counter()
    for h in range(1, 7):
        for w in range(1, 7):
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
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"PASS criterion 10: grid contact graphs exact for all h,w <= 6 "
          f"({elapsed * 1000:.0f}ms)")


def test_criterion_11_properize():
    rng = random.Random(1111)
    for _ in range(500):
        length = rng.choice([F(1), F(2), F(1, 2)])
        nh = rng.randint(0, 6)
        nv = rng.randint(0 if nh else 1, 6)
        hsegs = []
        vsegs = []
        for i in range(nh):
            x0 = F(rng.randint(0, 12), 2)
            hsegs.append(HSeg(i, F(rng.randint(0, 12), 2), x0, x0 + length))
        for j in range(nv):
            y0 = F(rng.randint(0, 12), 2)
            vsegs.append(VSeg(nh + j, F(rng.randint(0, 12), 2), y0, y0 + length))
        ids = frozenset(range(nh + nv))
        inst = OrthoInstance(tuple(hsegs), tuple(vsegs), ids, ids)
        out = properize(inst)
        before = {s.id: s for s in list(inst.hsegs) + list(inst.vsegs)}
        after = {s.id: s for s in list(out.hsegs) + list(out.vsegs)}
        assert set(before) == set(after)
        for a in before.values():
            for b in before.values():
                assert intersects(a, b) == intersects(after[a.id], after[b.id])
        assert containment_violation((s.x_lo, s.x_hi, s.id) for s in out.hsegs) is None
        assert containment_violation((s.y_lo, s.y_hi, s.id) for s in out.vsegs) is None
    print("PASS criterion 11: properize keeps the intersection matrix and "
          "yields proper projections on 500 instances")


def test_certify_and_verify_wall_clock(tmp_path, capsys):
    """gen, solve --certify and verify on one ssr file at n = m = 5000, in
    one process, under a fixed 10 s."""
    inst, sol = str(tmp_path / "big.json"), str(tmp_path / "big.sol.json")
    t0 = time.perf_counter()
    assert run_cli(["gen", "--kind", "ssr", "-n", "5000", "-m", "5000", "--seed", "5", "-o", inst]) == 0
    assert run_cli(["solve", "--alg", "ssr", "-i", inst, "-o", sol, "--certify"]) == 0
    assert run_cli(["verify", "-i", inst, "-s", sol]) == 0
    elapsed = time.perf_counter() - t0
    assert "solution verified" in capsys.readouterr().out
    assert elapsed < 10.0
    print(f"PASS gen + solve --certify + verify, ssr n=m=5000 ({elapsed:.2f}s)")
