"""Split the stab-large ssr request by process time into its layers.

    python tests/ssr_layers.py                      # n = m = 5e4, seed 201
    python tests/ssr_layers.py --n 2000 --rounds 1 --out split.json

The request is perfbench's ``solve_fast(normalize(big_ssr(...)))``.  Its
layers, each timed alone with ``time.process_time`` on the same instance:

- ``columns``: ``inst._int_columns()``, the instance scaled to ints;
- ``runs``: ``geom._runs`` on those columns, the rays' y order and each
  segment's run of ranks;
- ``top_two``: ``ssr._last_two_stabbers`` on that rank space;
- ``fire``: ``ssr.solve_fast`` on a fresh ``normalize`` output, which
  takes over the rank space it was handed;
- ``normalize``: all of ``ssr.normalize``, so ``normalize_rest`` (what is
  left after columns, runs and top-two) is its own bookkeeping.

Each layer keeps the minimum over ``--rounds`` calls.  The result is the
``in_process_split`` block of ``--out`` (default ``BENCH_ssr_fire.json``
at the repo root); any other block already in that file is kept.
"""
from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.workloads import big_ssr, import_lib  # noqa: E402


def split(lib, inst, rounds: int) -> dict[str, float]:
    geom, ssr, clock = lib.geom, lib.ssr, time.process_time
    best: dict[str, float] = {}

    def keep(name: str, seconds: float) -> None:
        best[name] = min(best.get(name, seconds), seconds)

    for _ in range(rounds):
        t0 = clock()
        c = inst._int_columns()
        t1 = clock()
        order, seg_lo, seg_hi = geom._runs(c.ray_y, c.seg_lo, c.seg_hi)
        t2 = clock()
        ray_id = [c.ray_id[i] for i in order]
        reach = [c.reach[i] for i in order]
        t3 = clock()
        ssr._last_two_stabbers(ray_id, reach, c.seg_id, c.seg_x, seg_lo, seg_hi)
        t4 = clock()
        norm = ssr.normalize(inst)
        t5 = clock()
        ssr.solve_fast(norm)
        t6 = clock()
        keep("columns", t1 - t0)
        keep("runs", t2 - t1)
        keep("top_two", t4 - t3)
        keep("normalize", t5 - t4)
        keep("fire", t6 - t5)
        keep("request", t6 - t4)
    best["normalize_rest"] = best["normalize"] - best["columns"] - best["runs"] - best["top_two"]
    return {k: round(v, 4) for k, v in best.items()}


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=50_000, help="rays and segments (default 5e4)")
    ap.add_argument("--seed", type=int, default=201)
    ap.add_argument("--rounds", type=int, default=5, help="calls per layer; the minimum is kept")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_ssr_fire.json")
    args = ap.parse_args(argv)
    lib = import_lib()
    inst = big_ssr(lib, args.seed, args.n, args.n)
    layers = split(lib, inst, args.rounds)
    block = {
        "method": (
            f"time.process_time, min of {args.rounds} calls per layer, one process, on the "
            f"stab-large ssr request (perfbench big_ssr, seed {args.seed}, n = m = {args.n}); "
            "layers as in tests/ssr_layers.py"
        ),
        "python": platform.python_version(),
        "seconds": layers,
    }
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data["in_process_split"] = block
    args.out.write_text(json.dumps(data, indent=1) + "\n")
    print(json.dumps(block["seconds"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
