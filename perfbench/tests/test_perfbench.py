"""Tests of the benchmark itself: seeded inputs, trace transparency, checks.

Run from the repository root:  python -m pytest perfbench/tests -q
"""
import json
import shutil
import subprocess
import sys

import pytest

from perfbench import checks
from perfbench.run import ROOT, Run, trace
from perfbench.trace import Tracer, TraceError
from perfbench.workloads import WORKLOADS, Request, big_ssr, import_lib, solve_srs, solve_ssr


@pytest.fixture(scope="module")
def lib():
    return import_lib()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(lib, name):
    w = WORKLOADS[name]
    first = w.build(lib, 7)
    assert first == w.build(lib, 7)
    assert first != w.build(lib, 8)
    assert all(len(b) == len(w.kinds) for b in first)
    assert [r.kind for r in first[0]] == list(w.kinds)


def _small_stab_basket(lib):
    return (
        Request("ssr", big_ssr(lib, 3, 2000, 2000)),
        Request("srs", lib.instances.generate("srs", {"n": 200, "m": 200}, 3).data),
    )


def _serve_all(lib, workload, requests, tracer=None):
    if tracer is None:
        return [workload.serve(lib, req) for req in requests]
    with tracer:
        return [workload.serve(lib, req) for req in requests]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_outputs_agree(lib, name):
    w = WORKLOADS[name]
    if name == "stab-large":
        baskets = [_small_stab_basket(lib)]
    elif name == "lp-pipelines":
        baskets = w.build(lib, 5)[:1]
    else:
        baskets = w.build(lib, 5)[:40]
    requests = [req for basket in baskets for req in basket]
    tracer = Tracer(name)
    plain = _serve_all(lib, w, requests)
    traced = _serve_all(lib, w, requests, tracer)
    assert plain == traced
    assert any(o.lp_opt is not None for o in plain) == (name != "stab-large")
    assert tracer.spans and tracer.counts["geom.intersects.calls"] > 0
    for req, out in zip(requests, plain):
        assert w.check(req, out) == []


def test_tracer_restores_every_binding(lib):
    originals = (lib.lp.solve_lp, lib.psd.solve_lp, lib.uvpg.properize, lib.geom.intersects)
    with Tracer("x"):
        assert lib.psd.solve_lp is not originals[1]
        assert lib.uvpg.psd_solve is lib.psd.psd_solve
    assert (lib.lp.solve_lp, lib.psd.solve_lp, lib.uvpg.properize, lib.geom.intersects) == originals


def test_tracer_fails_loudly_on_a_missing_name(lib, monkeypatch):
    monkeypatch.delattr(lib.psd, "build_strips")
    with pytest.raises(TraceError, match="geodom.psd.build_strips"):
        Tracer("x").install()


def test_self_times_subtract_children():
    t = Tracer("x")
    t.spans = [("a", 0.0, 10.0, None), ("b", 1.0, 4.0, 0), ("c", 2.0, 3.0, 1), ("b", 5.0, 6.0, 0)]
    assert dict(t.self_times()) == {"a": 6.0, "b": 3.0, "c": 1.0}


def test_trace_counts_repeat_exactly_for_one_seed():
    results = []
    for _ in range(2):
        run = Run(WORKLOADS["certify-desk"], 11)
        run.setup()
        results.append(trace(run, 1.0))
        assert run.failed == 0 and run.attempted > 0
    a, b = results
    assert a["baskets"] == b["baskets"]
    assert a["counts"] == b["counts"]
    assert a["labels"] == b["labels"]


def test_ssr_check_rejects_one_ray_removed(lib):
    inst = big_ssr(lib, 9, 3000, 3000)
    chosen = solve_ssr(lib, inst).selected
    assert checks.ssr_cover_ok(inst, chosen)
    for rid in sorted(chosen)[:5]:
        assert not checks.ssr_cover_ok(inst, chosen - {rid})


def test_srs_check_rejects_one_segment_removed(lib):
    inst = lib.instances.generate("srs", {"n": 300, "m": 300}, 9).data
    chosen = solve_srs(lib, inst).selected
    assert checks.srs_cover_ok(inst, chosen)
    assert not checks.srs_cover_ok(inst, frozenset())
    # a ray stabbed by only one chosen segment must show up as uncovered
    assert any(not checks.srs_cover_ok(inst, chosen - {s}) for s in chosen)


def test_domination_checks_reject_an_empty_selection(lib):
    sl = lib.instances.generate("stabbed_l", {"n": 10}, 2).data
    ub = lib.instances.generate("unit_bk", {"n": 10, "k": 2}, 2).data
    assert checks.stabbed_l_dominates(sl, {p.id for p in sl.paths})
    assert not checks.stabbed_l_dominates(sl, set())
    assert checks.unit_bk_dominates(ub, {p.id for p in ub.paths})
    assert not checks.unit_bk_dominates(ub, set())


def test_bounds_problems():
    assert checks.bounds_problems(3, 2, 2, 2) == []
    assert checks.bounds_problems(5, 2, 2) != []
    assert checks.bounds_problems(3, 2, 2, 4) != []


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *cmd[1:], "--workload", "certify-desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
