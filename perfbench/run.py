"""Seeded benchmark for geodom: one workload per invocation.

    python3 perfbench/run.py --workload stab-large --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
run prints a human-readable report and, as its last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones, and
writes the spans under ``.perfbench_out/``.  See WORKLOADS.md.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETUP_REPEATS = 5
MIN_PASSES = 2
OUT_DIR = ".perfbench_out"


def _bootstrap() -> None:
    src = ROOT / "src"
    if not (src / "geodom" / "__init__.py").is_file():
        sys.exit(f"perfbench: no geodom package under {src}; run from a source checkout")
    for p in (str(ROOT), str(src)):
        if p not in sys.path:
            sys.path.insert(0, p)


def _quantile(sorted_values, q: float):
    """Nearest-rank quantile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Run:
    """State of one benchmark run: set-up, the timed loop and its checks."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.setup_times: list[float] = []
        self.lib = None
        self.pool: list = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first: dict = {}  # (basket, slot) -> Outcome of the first pass
        self._last_gc = 0.0

    def setup(self) -> None:
        from perfbench.workloads import import_lib

        for _ in range(SETUP_REPEATS):
            self.lib = self.pool = None
            gc.collect()
            t0 = time.perf_counter()
            lib = import_lib()
            pool = self.workload.build(lib, self.seed)
            self.setup_times.append(time.perf_counter() - t0)
            self.lib, self.pool = lib, pool

    def _maybe_collect(self) -> None:
        # start each basket from a collected heap, at most once a second so
        # the collector's own cost stays small against millisecond baskets
        now = time.perf_counter()
        if now - self._last_gc >= 1.0:
            gc.collect()
            self._last_gc = time.perf_counter()

    def serve_basket(self, index: int, tracer=None) -> list[tuple[str, float]]:
        """Serve basket ``index`` of the pool; returns (kind, seconds) per
        request.  Checks run after each request, outside its timing."""
        basket = self.pool[index % len(self.pool)]
        self._maybe_collect()
        timings = []
        for slot, req in enumerate(basket):
            out = error = None
            t0 = time.perf_counter()
            with tracer.span("bench.request") if tracer else nullcontext():
                try:
                    out = self.workload.serve(self.lib, req)
                except Exception as exc:  # a failed request is counted, not fatal
                    error = exc
            dt = time.perf_counter() - t0
            timings.append((req.kind, dt))
            self._record(index % len(self.pool), slot, req, out, error)
        return timings

    def _record(self, basket: int, slot: int, req, out, error) -> None:
        self.attempted += 1
        key = (basket, slot)
        if error is not None:
            problems = [f"{req.kind}: {type(error).__name__}: {error}"]
        elif key not in self.first:
            problems = self.workload.check(req, out)
            self.first[key] = out
        elif out != self.first[key]:
            problems = [f"{req.kind}: output differs from the first pass over basket {basket}"]
        else:
            problems = []
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def size_over_bound(self):
        field = self.workload.bound_field
        if field is None or not self.first:
            return None
        size = sum(len(o.selected) for o in self.first.values())
        bound = sum(getattr(o, field) for o in self.first.values())
        return float(size / bound)


def measure(run: Run, seconds: float) -> dict:
    """Closed loop, one caller: whole passes over the pool, back to back,
    at least ``MIN_PASSES`` and more while the next pass is expected to end
    within ``seconds``.  Whole passes weigh every instance of the pool
    equally; a fixed floor keeps a slow first pass from halving the run."""
    by_kind: dict[str, list[float]] = {k: [] for k in run.workload.kinds}
    pass_s: list[float] = []  # request time of each pass
    start = time.perf_counter()
    while True:
        pass_s.append(0.0)
        for i in range(len(run.pool)):
            for kind, dt in run.serve_basket(i):
                by_kind[kind].append(dt)
                pass_s[-1] += dt
        passes = len(pass_s)
        elapsed = time.perf_counter() - start
        if passes >= MIN_PASSES and elapsed * (passes + 1) / passes > seconds:
            break
    return {"passes": passes, "baskets": passes * len(run.pool), "by_kind": by_kind,
            "pass_s": pass_s, "wall_s": elapsed}


def trace(run: Run, seconds: float) -> dict:
    """Per-layer numbers: one traced set-up pass, then pairs of the same
    basket served untraced and traced."""
    from perfbench.trace import Tracer

    tracer = Tracer(run.workload.name)
    with tracer:
        with tracer.span("bench.setup"):
            run.workload.build(run.lib, run.seed)
    setup_self = tracer.self_times()
    setup_counts = dict(tracer.counts)
    first_span = len(tracer.spans)

    k = run.workload.trace_baskets(seconds, len(run.pool))
    untraced = traced = 0.0
    for i in range(k):
        untraced += sum(dt for _, dt in run.serve_basket(i))
        with tracer:
            traced += sum(dt for _, dt in run.serve_basket(i, tracer))

    selfs = tracer.self_times(first_span)
    counts = {key: v - setup_counts.get(key, 0) for key, v in tracer.counts.items()}
    for name in ("instances.generate", "instances.dumps"):
        selfs[name] = setup_self.get(name, 0.0)
    out_dir = ROOT / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"{run.workload.name}-seed{run.seed}-spans.json")
    return {
        "selfs": selfs,
        "counts": counts,
        "baskets": k,
        "untraced_s": untraced,
        "traced_s": traced,
        "labels": tracer.child_count("uvpg.solve_mds", "psd.psd_solve", first_span),
    }


# ---------------------------------------------------------------------------
# reporting

#: report name of each kind's median request time
KIND_METRIC = {
    "ssr": "ssr_solve_s",
    "srs": "srs_solve_s",
    "stabbed_l": "stabbed_l_solve_s",
    "ortho_psd": "psd_solve_s",
    "unit_bk": "uvpg_solve_s",
}


#: counts reported by a traced run (besides self times, which cover every span)
COUNTS = (
    "lp.solve_lp.calls", "lp.solve_lp.rows", "lp.solve_lp.nnz", "lp.threshold_split.calls",
    "ssr.normalize.calls", "ssr.solve.calls", "srs.solve.calls",
    "stabbedl.build_graph.edges", "uvpg.build_graph.edges",
    "psd.psd_solve.calls", "psd.poss_solve.calls", "geom.properize.calls",
    "geom.intersects.calls", "oracle.exact_stab.calls", "oracle.exact_mds.calls",
)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(run: Run, m: dict) -> tuple[dict, list[str]]:
    """The end-to-end metrics, and report lines for them and for every
    per-kind metric the workload has."""
    total = sum(m["pass_s"])
    metrics = {
        "setup_s": (statistics.median(run.setup_times), "s"),
        "solve_s": (total / m["baskets"], "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    lines = [
        f"{run.workload.name} seed {run.seed}: {m['passes']} passes over "
        f"{len(run.pool)} baskets in {m['wall_s']:.1f} s, one caller, one thread",
        f"  setup_s             {metrics['setup_s'][0]:.4f} s    median of {len(run.setup_times)}",
        f"  solve_s             {metrics['solve_s'][0]:.4f} s    mean per basket over {m['baskets']}",
        "  pass_s              " + " ".join(f"{t:.4f}" for t in m["pass_s"])
        + " s    request time of each pass",
    ]
    if run.workload.name == "certify-desk":
        lat = sorted(dt for v in m["by_kind"].values() for dt in v)
        lines += [
            f"  desk_inst_per_s     {len(lat) / sum(lat):.2f} 1/s  over {len(lat)} instances",
            f"  desk_latency_p50_ms {1000 * _quantile(lat, 0.50):.3f} ms   of {len(lat)}",
            f"  desk_latency_p99_ms {1000 * _quantile(lat, 0.99):.3f} ms   of {len(lat)}",
        ]
    else:
        for kind, values in m["by_kind"].items():
            lines.append(
                f"  {KIND_METRIC[kind]:<19} {statistics.median(values):.4f} s    median of {len(values)}"
            )
    ratio = run.size_over_bound()
    if ratio is not None:
        lines.append(
            f"  size_over_bound     {ratio:.6f}      over {len(run.first)} distinct instances"
        )
    lines += [
        f"  failed_frac         {run.failed / run.attempted:.4f}      {run.failed} of {run.attempted}",
        f"  peak_rss_mb         {metrics['peak_rss_mb'][0]:.1f} MB",
    ]
    return metrics, lines


def per_layer(t: dict) -> tuple[dict, list[str]]:
    from perfbench.trace import SPANNED

    metrics = {}
    for mod, names in SPANNED.items():
        for fn in names:
            label = f"{mod}.{fn}"
            metrics[f"{label}.self_s"] = (t["selfs"].get(label, 0.0), "s")
    for key in COUNTS:
        metrics[key] = (t["counts"].get(key, 0), "count")
    metrics["uvpg.labels"] = (t["labels"], "count")
    metrics["bench.self_s"] = (t["selfs"].get("bench.request", 0.0), "s")
    metrics["trace.untraced_s"] = (t["untraced_s"], "s")
    metrics["trace.traced_s"] = (t["traced_s"], "s")
    metrics["trace.overhead_s"] = (t["traced_s"] - t["untraced_s"], "s")
    # generate and dumps ran in the set-up pass, outside the traced baskets
    setup_only = ("instances.generate.self_s", "instances.dumps.self_s")
    layer_sum = sum(v for k, (v, _) in metrics.items()
                    if k.endswith(".self_s") and k not in setup_only)
    lines = [f"  {k:<34} {v:.6g} {u}" for k, (v, u) in metrics.items() if v]
    lines.append(
        f"  layer self times + bench.self_s = {layer_sum:.4f} s; untraced "
        f"{t['untraced_s']:.4f} s + overhead {t['traced_s'] - t['untraced_s']:.4f} s "
        f"over {t['baskets']} baskets"
    )
    return metrics, lines


def main(argv=None) -> int:
    from perfbench.workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    run = Run(WORKLOADS[args.workload], args.seed)
    run.setup()
    if args.trace:
        t = trace(run, args.seconds)
        metrics, lines = per_layer(t)
        lines.insert(0, f"{args.workload} seed {args.seed}: traced {t['baskets']} baskets")
    else:
        metrics, lines = end_to_end(run, measure(run, args.seconds))
    for line in lines + [f"  problem: {p}" for p in run.problems[:20]]:
        print(line)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    _bootstrap()
    sys.exit(main())
