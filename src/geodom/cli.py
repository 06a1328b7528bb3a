"""Command-line surface: gen, solve, exact, verify, bench, render.

Exit codes: 0 success, 2 infeasible instance, 3 invalid input, 4 size cap
exceeded.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import replace
from fractions import Fraction
from typing import Optional

from . import instances, oracle, psd, render, srs, ssr, stabbedl, uvpg
from .errors import (
    GenerationExhaustedError,
    InfeasibleError,
    InputError,
    InvalidInputError,
    SizeCapExceededError,
)
from .geom import rat_str
from .instances import InstanceFile
from .lp import SolveCertificate, lp_round


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; 2 means "infeasible" here,
    # so route usage problems through the normal invalid-input path instead
    def error(self, message):
        raise InvalidInputError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="geodom", description="stabbing and domination heuristics")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a random instance file")
    g.add_argument("--kind", required=True, choices=instances.KINDS)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("-n", type=int, default=None, help="primary entity count")
    g.add_argument("-m", type=int, default=None, help="secondary entity count")
    g.add_argument("-k", type=int, default=None, help="bend bound (unit_bk)")
    g.add_argument("--coord-range", type=int, default=None)
    g.add_argument("-o", "--out", required=True)
    g.set_defaults(func=_cmd_gen)

    s = sub.add_parser("solve", help="run a heuristic on an instance file")
    algs = sorted(k.alg for k in instances.KIND_TABLE.values())
    s.add_argument("--alg", required=True, choices=algs)
    s.add_argument("-i", "--infile", required=True)
    s.add_argument("-o", "--out", required=True)
    s.add_argument("--trace", default=None, help="token trace output (ssr, srs)")
    s.add_argument("--certify", action="store_true")
    s.add_argument("--cap", type=int, default=None, help="oracle cap for --certify")
    s.set_defaults(func=_cmd_solve)

    e = sub.add_parser("exact", help="exact optimum via the oracle")
    e.add_argument("-i", "--infile", required=True)
    e.add_argument("-o", "--out", default=None)
    e.add_argument("--cap", type=int, default=None)
    e.set_defaults(func=_cmd_exact)

    v = sub.add_parser("verify", help="re-check a solution file")
    v.add_argument("-i", "--infile", required=True)
    v.add_argument("-s", "--solution", required=True)
    v.set_defaults(func=_cmd_verify)

    b = sub.add_parser("bench", help="ratio benchmark sweep, CSV output")
    b.add_argument("--kind", required=True, choices=instances.KINDS)
    b.add_argument("--max", type=int, default=10, help="largest instance size")
    b.add_argument("--trials", type=int, default=20)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("-k", type=int, default=1, help="bend bound (unit_bk)")
    b.add_argument("--cap", type=int, default=None)
    b.add_argument("-o", "--out", required=True)
    b.set_defaults(func=_cmd_bench)

    r = sub.add_parser("render", help="draw an instance (and solution) as SVG")
    r.add_argument("-i", "--infile", required=True)
    r.add_argument("-s", "--solution", default=None)
    r.add_argument("-o", "--out", required=True)
    r.set_defaults(func=_cmd_render)
    return p


# ---------------------------------------------------------------------------
# shared pieces


def _stab_certificate(data, selected) -> SolveCertificate:
    """Factor-2 certificate of a stabbing answer against the covering LP.
    Each row is one block and a feasible LP point puts mass >= 1 on it, so
    theta = 1 keeps every row and the one label returns ``selected``."""
    cands, cons, rows = oracle.cover_rows(data)
    parts = {u: {"all": row} for u, row in zip(cons, rows)}
    return lp_round(cands, parts, 1, lambda *_: selected, 2).certificate


def _certificate_payload(cert: SolveCertificate) -> dict:
    payload = {
        "lp_opt": rat_str(cert.lp_opt),
        "bound": rat_str(cert.claimed_ratio_bound),
    }
    if cert.exact_opt is not None:
        payload["exact_opt"] = cert.exact_opt
    return payload


def _exact_opt(f: InstanceFile, cap) -> Optional[int]:
    """The oracle optimum's size, None when the instance is over the cap."""
    try:
        return len(oracle.exact_stab(f.data, cap))
    except SizeCapExceededError:
        return None


def _certified(f: InstanceFile, selected, cert: Optional[SolveCertificate], cap) -> SolveCertificate:
    """The run's certificate (the stab certificate of ``selected`` when the
    solver gave none) with the oracle optimum added, validated."""
    cert = replace(cert or _stab_certificate(f.data, selected), exact_opt=_exact_opt(f, cap))
    cert.validate()
    return cert


def _solve_for(f: InstanceFile, want_trace: bool):
    """(selected ids, certificate or None, trace payload or None)."""
    data = f.data  # of the kind's record, as InstanceFile checks
    if f.kind == "ssr":
        norm = ssr.normalize(data)
        if want_trace:
            sel, trace = ssr.solve(norm)
            return sel, None, instances.to_json(trace)
        return ssr.solve_fast(norm), None, None
    if f.kind == "srs":
        sel, trace = srs.solve(data)
        return sel, None, instances.to_json(trace) if want_trace else None
    if f.kind == "stabbed_l":
        return None, stabbedl.solve_mds(data), None
    if f.kind == "ortho_psd":
        return None, psd.psd_solve(data), None
    if f.kind == "unit_bk":
        return None, uvpg.solve_mds(list(data.paths), data.k), None
    raise InvalidInputError(f"cannot solve kind {f.kind!r}")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen(args) -> int:
    params = {"n": args.n, "m": args.m, "k": args.k, "coord_range": args.coord_range}
    reads = instances.KIND_TABLE[args.kind].params
    for key, value in params.items():
        if value is not None and key not in reads:
            flag = f"-{key}" if len(key) == 1 else "--" + key.replace("_", "-")
            raise InvalidInputError(f"kind {args.kind} does not read {flag}")
    f = instances.generate(args.kind, params, args.seed)
    instances.dump(f, args.out)
    print(f"wrote {args.kind} instance to {args.out}")
    return 0


def _cmd_solve(args) -> int:
    if args.cap is not None and not args.certify:
        raise InvalidInputError("--cap only applies with --certify")
    f = instances.load(args.infile)
    if instances.KIND_TABLE[f.kind].alg != args.alg:
        raise InvalidInputError(
            f"algorithm {args.alg!r} does not apply to kind {f.kind!r}"
        )
    if args.trace and args.alg not in ("ssr", "srs"):
        raise InvalidInputError("--trace is only available for ssr and srs")

    start = time.perf_counter()
    selected, cert, trace_payload = _solve_for(f, want_trace=bool(args.trace))
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    if cert is not None:
        selected = set(cert.heuristic_ids)
    if args.certify:
        cert = _certified(f, selected, cert, args.cap)

    payload = {
        "kind": f.kind,
        "algorithm": args.alg,
        "selected": sorted(selected),
        "size": len(selected),
    }
    if cert is not None:
        payload["certificate"] = _certificate_payload(cert)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(instances.canonical_json(payload))
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(instances.canonical_json(trace_payload))
    print(f"selected {len(selected)} of kind {f.kind} in {elapsed_ms:.1f} ms")
    return 0


def _cmd_exact(args) -> int:
    f = instances.load(args.infile)
    chosen = oracle.exact_stab(f.data, args.cap)
    payload = {"kind": f.kind, "selected": sorted(chosen), "size": len(chosen)}
    text = instances.canonical_json(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _load_solution(path: str, kind: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}")
    except (ValueError, RecursionError) as exc:  # bad JSON or bytes that are not UTF-8
        raise InvalidInputError(f"solution file is not valid JSON: {exc}")
    if not isinstance(payload, dict) or "selected" not in payload:
        raise InvalidInputError("solution file needs a 'selected' list")
    sel = payload["selected"]
    if type(sel) is not list or not all(type(v) is int for v in sel):
        raise InvalidInputError("'selected' must be a list of integers")
    if len(set(sel)) != len(sel):
        raise InvalidInputError("'selected' repeats an id")
    if payload.get("kind", kind) != kind:
        raise InvalidInputError(f"solution is for kind {payload['kind']!r}, not {kind!r}")
    return payload


def _verify_problems(f: InstanceFile, selected: set[int]) -> list[str]:
    cands, cons, rows = oracle.cover_rows(f.data)
    graph = instances.KIND_TABLE[f.kind].unmet is None
    unknown = selected - set(cands)
    if unknown:
        where = "not in the instance" if graph else "not selectable"
        return [f"selected ids {where}: {sorted(unknown)}"]
    unmet = "vertex {} is not dominated" if graph else "constraint {} is not covered"
    return [unmet.format(u) for u, row in zip(cons, rows) if selected.isdisjoint(row)]


def _claim_problems(sol: dict) -> list[str]:
    """Problems with what the solution claims: ``size`` against the selected
    ids, then the first failing ``SolveCertificate.validate`` check of its
    ``certificate`` block.  ``size`` may be left out only without a block;
    a malformed field is invalid input."""
    picked = frozenset(sol["selected"])
    problems = []
    if "size" in sol or "certificate" in sol:
        size = instances._int(sol.get("size"), "size")
        if size != len(picked):
            problems.append(f"size {size} is not the number of selected ids ({len(picked)})")
    if "certificate" not in sol:
        return problems
    block = sol["certificate"]
    if type(block) is not dict:
        raise InvalidInputError("'certificate' must be a JSON object")
    exact = block.get("exact_opt")
    cert = SolveCertificate(
        picked,
        len(picked),
        instances._rat(block.get("lp_opt"), "lp_opt"),
        instances._rat(block.get("bound"), "bound"),
        None if exact is None else instances._int(exact, "exact_opt"),
    )
    try:
        cert.validate()
    except InvalidInputError as exc:
        problems.append(f"certificate: {exc}")
    return problems


def _cmd_verify(args) -> int:
    f = instances.load(args.infile)
    sol = _load_solution(args.solution, f.kind)
    problems = _verify_problems(f, set(sol["selected"])) + _claim_problems(sol)
    if problems:
        for line in problems:
            print(f"FAIL: {line}", file=sys.stderr)
        return 2
    print("solution verified")
    return 0


_BENCH_HEADER = [
    "kind", "seed", "sizes", "heuristic_size", "lp_opt", "exact_opt", "ratio", "bound", "wall_time_ms",
]


def _bench_one(kind: str, size: int, trial: int, seed: int, k: int, cap) -> list:
    inst_seed = ((seed * 1000003 + size) * 1000003 + trial) % (1 << 61)
    params = {"n": size, "m": size, "k": k}
    f = instances.generate(kind, params, inst_seed)
    start = time.perf_counter()
    selected, cert, _ = _solve_for(f, want_trace=False)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    cert = _certified(f, selected, cert, cap)
    exact = cert.exact_opt
    ratio = rat_str(Fraction(cert.heuristic_size, exact)) if exact else ""
    reads = instances.KIND_TABLE[kind].params
    sizes = ";".join(f"{key}={params[key]}" for key in reads if key in params)
    return [
        kind,
        inst_seed,
        sizes,
        cert.heuristic_size,
        rat_str(cert.lp_opt),
        "" if exact is None else exact,
        ratio,
        rat_str(cert.claimed_ratio_bound),
        f"{elapsed_ms:.3f}",
    ]


def _cmd_bench(args) -> int:
    if args.max < 2 or args.trials < 1:
        raise InvalidInputError("need --max >= 2 and --trials >= 1")
    # serial on purpose: each wall_time_ms is the cost of a trial run alone
    records = [
        _bench_one(args.kind, size, trial, args.seed, args.k, args.cap)
        for size in range(2, args.max + 1)
        for trial in range(args.trials)
    ]
    records.sort(key=lambda r: (r[1], r[2]))  # seed, sizes
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_BENCH_HEADER)
        writer.writerows(records)
    print(f"wrote {len(records)} bench records to {args.out}")
    return 0


def _cmd_render(args) -> int:
    f = instances.load(args.infile)
    selected = None
    if args.solution:
        selected = set(_load_solution(args.solution, f.kind)["selected"])
    svg = render.render_svg(f, selected)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    print(f"wrote {args.out}")
    return 0


def run_cli(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        code = exc.code
        return 0 if code in (0, None) else int(code)
    except SizeCapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InputError, GenerationExhaustedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main():
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
