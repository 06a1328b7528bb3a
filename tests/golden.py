"""Golden-output corpus for the stabbing engines and the LP pipelines.

    python tests/golden.py           # list the cases whose output changed
    python tests/golden.py --write   # regenerate tests/golden.json

Each case is the sha256 of the ``repr`` of one output for a fixed seed:
the ``instances.dumps`` text of generated instances, ``ssr.normalize``
outputs (read after the ``solve_fast`` that consumes them), ssr and srs
selections, the ssr ``TokenTrace`` and the ``SrsTrace``; for stabbed_l,
ortho_psd, unit_bk (k = 0..2) and ``psd.poss_solve`` called directly,
the ``solve_lp`` values and duals on the pipeline's program, its
``SolveCertificate`` and its ``*Details``, or the (error type, id) it
raised; the bytes (or exit code and message) of
``geodom solve --certify`` for all five kinds; the bytes (or exit code
and message) of ``geodom solve --trace`` files for ssr and srs; the
``instances.dumps`` text of generated stabbed_l, ortho_psd and unit_bk
(k = 0..3) instances; and, for a seeded corpus of instance files of all
five kinds with one fault each (a deleted field or key, a bad rational,
id or legs, sparse or duplicate ids, an inverted span, a zero-length L
leg, an unknown kind or role id, invalid JSON, a top level that is not an
object), the file and the (error type, message) ``instances.loads``
raised; and a ``normalize`` slice: outputs (read after the solve) or
``InfeasibleSegmentError`` ids of instances with sparse ids out of input
order, shared abscissas, negative and coprime-denominator coordinates,
also as shifted ``from_columns`` instances and normalized twice.  Sets
and dict keys are sorted before printing, so a hash moves only when some value does, never
with the iteration order of a set.  Regenerating the file is a behaviour
change: list every changed case with the reason.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"

if __name__ == "__main__":
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from geodom import cli, geom, instances, lp, psd, srs, ssr, stabbedl, uvpg  # noqa: E402
from geodom.errors import GeodomError, InfeasibleError, InfeasibleSegmentError, InvalidInputError  # noqa: E402
from geodom.geom import HRay, OrthoInstance, VSeg  # noqa: E402

from test_acceptance import _big_ssr  # noqa: E402
from test_psd import proper_hsegs  # noqa: E402
from test_ssr import kernel_instance  # noqa: E402


def canon(x):
    """``x`` with every set sorted and every dataclass spelled out as
    (type name, fields), so its ``repr`` depends only on values."""
    if isinstance(x, (set, frozenset)):
        return ("set", sorted(canon(v) for v in x))
    if isinstance(x, dict):
        return ("dict", sorted((k, canon(v)) for k, v in x.items()))
    if isinstance(x, (tuple, list)):
        return tuple(canon(v) for v in x)
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        fields = dataclasses.fields(x)
        return (type(x).__name__, tuple((f.name, canon(getattr(x, f.name))) for f in fields))
    return x


def _outcome(fn, inst):
    try:
        return fn(inst)
    except InfeasibleSegmentError as exc:
        return ("infeasible", exc.segment_id)
    except InvalidInputError:
        return ("invalid",)


def _ssr_cases(name: str, inst, trace: bool):
    norm = _outcome(ssr.normalize, inst)
    if isinstance(norm, tuple):
        yield f"{name}/normalize", norm
        return
    # solve before printing: the normalized instance is read after the
    # solve that consumes what normalize hands over
    yield f"{name}/solve_fast", sorted(ssr.solve_fast(norm))
    yield f"{name}/normalize", norm
    yield f"{name}/solve_fast_raw", sorted(ssr.solve_fast(inst))
    if trace:
        yield f"{name}/trace", ssr.solve(norm)


def _srs_cases(name: str, inst):
    sel, trace = srs.solve(inst)
    yield f"{name}/selection", sorted(sel)
    yield f"{name}/trace", trace


def cases():
    """(name, output) for every case, in a fixed order."""
    rng = random.Random(6060)
    for i in range(40):
        params = {"n": rng.randint(1, 12), "m": rng.randint(1, 12)}
        params["coord_range"] = rng.choice([4, 12, 40])
        seed = rng.randrange(10**9)
        for kind in ("ssr", "srs"):
            f = instances.generate(kind, params, seed)
            name = f"{kind}/gen{i}"
            yield f"{name}/dumps", instances.dumps(f)
            yield from (_ssr_cases(name, f.data, True) if kind == "ssr" else _srs_cases(name, f.data))
    for i, (n, span) in enumerate([(300, 12), (2000, 10**4)]):
        seed = rng.randrange(10**9)
        f = instances.generate("ssr", {"n": n, "m": n, "coord_range": span}, seed)
        yield f"ssr/big{i}/dumps", instances.dumps(f)
        yield from _ssr_cases(f"ssr/big{i}", f.data, False)
        f = instances.generate("srs", {"n": n, "m": n, "coord_range": span}, seed)
        yield f"srs/big{i}/dumps", instances.dumps(f)
        yield from _srs_cases(f"srs/big{i}", f.data)
    yield from _ssr_cases("ssr/criterion4", _big_ssr(random.Random(6161), 20_000, 20_000), False)
    krng = random.Random(6262)
    for i in range(300):
        yield from _ssr_cases(f"ssr/kernel{i}", kernel_instance(krng), i < 60)
    yield from pipeline_cases()
    yield from trace_cases()
    yield from codec_cases()
    yield from normalize_cases()


def _error(exc: GeodomError):
    """(error type, id) for an infeasible instance, (type, message) else."""
    if isinstance(exc, InfeasibleError):
        names = ("segment_id", "ray_id", "target_id", "constraint_id")
        ids = [getattr(exc, a) for a in names if hasattr(exc, a)]
        return ("error", type(exc).__name__, *ids)
    return ("error", type(exc).__name__, str(exc))


def _pipeline_cases(name: str, solve):
    """LP values and duals, certificate and details of one pipeline run."""
    try:
        cert, det = solve()
    except GeodomError as exc:
        yield f"{name}/outcome", _error(exc)
        return
    sol = lp.solve_lp(det.program)
    yield f"{name}/lp", (sol.values, sol.objective_value, sol.duals)
    yield f"{name}/certificate", cert
    yield f"{name}/details", det


def _poss_input(rng: random.Random, stray: float):
    """Proper horizontal candidates and vertical targets, each of which is
    placed at random (and may meet no candidate) with probability
    ``stray``; target ids are shuffled against x order."""
    cands = proper_hsegs(rng, rng.randint(1, 9))
    x_hi = int(max(c.x_hi for c in cands)) + 2
    count = rng.randint(1, 9)
    ids = rng.sample(range(3 * count), count)
    targets = []
    for tid in ids:
        if rng.random() >= stray:
            c = rng.choice(cands)
            x = c.x_lo + rng.randint(0, int(c.x_hi - c.x_lo))
            targets.append(VSeg(tid, x, c.y - rng.randint(0, 3), c.y + rng.randint(0, 3)))
        else:
            lo = rng.randint(-2, 8)
            targets.append(VSeg(tid, Fraction(rng.randint(-10, x_hi)), Fraction(lo), Fraction(lo + rng.randint(0, 2))))
    return cands, targets


def _with_roles(rng: random.Random, inst: OrthoInstance) -> OrthoInstance:
    ids = sorted(s.id for s in inst.hsegs + inst.vsegs)
    cons = frozenset(i for i in ids if rng.random() < 0.6)
    cands = frozenset(i for i in ids if rng.random() < 0.6)
    return OrthoInstance(inst.hsegs, inst.vsegs, cons, cands)


def _unreachable(f: instances.InstanceFile) -> instances.InstanceFile:
    """The stabbing instance plus one constraint that nothing can meet."""
    data = f.data
    rays, segs = list(data.rays), list(data.segments)
    if f.kind == "ssr":
        segs.append(VSeg(len(segs), Fraction(10**6), Fraction(0), Fraction(1)))
    else:
        rays.append(HRay(len(rays), Fraction(10**6), Fraction(5)))
    return instances.InstanceFile(f.kind, type(data)(tuple(rays), tuple(segs)))


def _solve_file(f: instances.InstanceFile, flags: list[str], trace: bool = False):
    """``geodom solve`` with ``flags`` on the instance: the text of the
    solution file (of the ``--trace`` file when ``trace``), or the exit code
    and the error message."""
    with tempfile.TemporaryDirectory() as tmp:
        src, out, tr = (Path(tmp) / name for name in ("inst.json", "sol.json", "trace.json"))
        instances.dump(f, str(src))
        argv = ["solve", "--alg", instances.KIND_TABLE[f.kind].alg, "-i", str(src), "-o", str(out), *flags]
        if trace:
            argv += ["--trace", str(tr)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.run_cli(argv)
        return (tr if trace else out).read_text() if code == 0 else (code, err.getvalue())


def pipeline_cases():
    """(name, output) for the LP pipelines and the ``--certify`` files."""
    rng = random.Random(7070)
    for i in range(60):
        params = {"n": rng.randint(1, 24), "coord_range": rng.choice([3, 8, 25])}
        f = instances.generate("stabbed_l", params, rng.randrange(10**9))
        yield from _pipeline_cases(f"stabbed_l/gen{i}", lambda: stabbedl.solve_mds(f.data, want_details=True))
    for i in range(60):
        params = {"n": rng.randint(1, 16), "m": rng.randint(1, 16), "coord_range": rng.choice([4, 12])}
        inst = instances.generate("ortho_psd", params, rng.randrange(10**9)).data
        if i % 3 == 2:
            inst = _with_roles(rng, inst)
        yield from _pipeline_cases(f"ortho_psd/gen{i}", lambda: psd.psd_solve(inst, want_details=True))
    for k in range(3):
        for i in range(20):
            params = {"n": rng.randint(1, 18), "k": k, "coord_range": rng.choice([2, 4, 8])}
            f = instances.generate("unit_bk", params, rng.randrange(10**9))
            yield from _pipeline_cases(
                f"unit_bk/k{k}/gen{i}", lambda: uvpg.solve_mds(list(f.data.paths), k, want_details=True)
            )
    for i in range(90):
        cands, targets = _poss_input(rng, 0.15 if i % 3 == 2 else 0.0)
        yield from _pipeline_cases(f"poss/gen{i}", lambda: psd.poss_solve(cands, targets, want_details=True))
    big = [
        ("stabbed_l", {"n": 100, "coord_range": 25}),
        ("ortho_psd", {"n": 120, "m": 120}),
        ("unit_bk", {"n": 100, "k": 2, "coord_range": 8}),
    ]
    for kind, params in big:
        f = instances.generate(kind, params, 201)
        solve = {
            "stabbed_l": lambda: stabbedl.solve_mds(f.data, want_details=True),
            "ortho_psd": lambda: psd.psd_solve(f.data, want_details=True),
            "unit_bk": lambda: uvpg.solve_mds(list(f.data.paths), f.data.k, want_details=True),
        }[kind]
        yield from _pipeline_cases(f"{kind}/big", solve)
    for kind in instances.KINDS:
        for i in range(12):
            params = {"n": rng.randint(1, 12), "m": rng.randint(1, 12), "k": rng.randint(0, 2)}
            f = instances.generate(kind, params, rng.randrange(10**9))
            if kind == "ortho_psd" and i % 4 == 3:
                f = instances.InstanceFile(kind, _with_roles(rng, f.data))
            if kind in ("ssr", "srs") and i % 4 == 3:
                f = _unreachable(f)
            yield f"certify/{kind}/{i}", _solve_file(f, ["--certify", "--cap", "10"])


def trace_cases():
    """(name, output) for the ``geodom solve --trace`` files of ssr and srs."""
    rng = random.Random(8080)
    for kind in ("ssr", "srs"):
        for i in range(30):
            n = rng.choice([3, 8, 15])
            params = {"n": n, "m": rng.randint(1, n + 3), "coord_range": rng.choice([4, 12, 40])}
            f = instances.generate(kind, params, rng.randrange(10**9))
            if i % 10 == 9:
                f = _unreachable(f)
            yield f"trace/{kind}/{i}", _solve_file(f, [], trace=True)


#: payload key -> the record fields holding a rational
_RATIONALS = {
    "rays": ("y", "x_right"),
    "segments": ("x", "y_lo", "y_hi"),
    "vsegs": ("x", "y_lo", "y_hi"),
    "hsegs": ("y", "x_lo", "x_hi"),
    "paths": ("corner_x", "corner_y", "vlen", "hlen", "start_x", "start_y"),
}


def _fault(rng: random.Random, kind: str, p: dict) -> str:
    """The text of the instance payload ``p`` with one fault; every other
    value keeps the type its field expects."""
    lists = [key for key in _RATIONALS if p.get(key)]
    key = rng.choice(lists)
    recs = p[key]
    rec = rng.choice(recs)
    faults = ["drop_field", "drop_key", "bad_rat", "bad_id", "sparse_id", "dup_id",
              "bad_kind", "bad_json", "not_object"]
    if kind in ("ssr", "srs", "ortho_psd"):
        faults.append("inverted")
    if kind == "stabbed_l":
        faults.append("zero_leg")
    if kind == "unit_bk":
        faults += ["empty_legs", "bad_legs", "many_legs"]
    if kind == "ortho_psd":
        faults.append("unknown_role")
    fault = rng.choice(faults)
    if fault == "drop_field":
        del rec[rng.choice(sorted(rec))]
    elif fault == "drop_key":
        del p[rng.choice(sorted(p))]
    elif fault == "bad_rat":
        rats = [(rec, name) for name in _RATIONALS[key] if name in rec]
        if "line_x" in p:
            rats.append((p, "line_x"))
        target, name = rng.choice(rats)
        target[name] = rng.choice(["1/0", "x", 2.5, None])
    elif fault == "bad_id":
        rec["id"] = rng.choice([1.5, "0", str(rec["id"]), None])
    elif fault == "sparse_id":
        total = sum(len(p[k]) for k in ("hsegs", "vsegs")) if kind == "ortho_psd" else len(recs)
        rec["id"] = total + rng.randint(0, 5)
    elif fault == "dup_id":
        pool = p["hsegs"] + p["vsegs"] if kind == "ortho_psd" else recs
        others = [r["id"] for r in pool if r is not rec]
        if others:
            rec["id"] = rng.choice(others)
        else:
            recs.append(dict(rec))
    elif fault == "bad_kind":
        p["kind"] = rng.choice(["mystery", kind.upper(), kind + " ", ""])
    elif fault == "bad_json":
        text = instances.canonical_json(p)
        return text[: rng.randrange(len(text) - 2)]
    elif fault == "not_object":
        return json.dumps(rng.choice([[p], 3, "ssr", None]))
    elif fault == "inverted":
        rec = rng.choice([r for k in ("segments", "hsegs", "vsegs") for r in p.get(k, [])])
        lo, hi = ("x_lo", "x_hi") if "x_lo" in rec else ("y_lo", "y_hi")
        rec[lo] = str(Fraction(rec[hi]) + Fraction(rng.randint(1, 3), rng.randint(1, 2)))
    elif fault == "zero_leg":
        rec[rng.choice(["vlen", "hlen"])] = rng.choice(["0", "-1", "-1/2"])
    elif fault == "empty_legs":
        rec["legs"] = ""
    elif fault == "bad_legs":
        rec["legs"] = rng.choice(["X", "RX", "RR", "UD", "LRL", "r"])
    elif fault == "many_legs":
        first = rng.choice("LRUD")
        legs = [first]
        while len(legs) < p["k"] + 2:
            legs.append(rng.choice("UD" if legs[-1] in "LR" else "LR"))
        rec["legs"] = "".join(legs)
    elif fault == "unknown_role":
        ids = [r["id"] for r in p["hsegs"] + p["vsegs"]]
        p[rng.choice(["constraint_ids", "candidate_ids"])].append(max(ids) + rng.randint(1, 4))
    return instances.canonical_json(p)


def _loads_outcome(text: str):
    try:
        return ("ok", instances.dumps(instances.loads(text)))
    except GeodomError as exc:
        return ("error", type(exc).__name__, str(exc))


def codec_cases():
    """(name, output) for the ``instances.dumps`` bytes of generated
    stabbed_l, ortho_psd and unit_bk instances, and for ``instances.loads``
    on seeded single-fault files of all five kinds."""
    rng = random.Random(9090)
    for i in range(20):
        params = {"n": rng.randint(1, 14), "coord_range": rng.choice([3, 8, 25])}
        yield f"codec/dumps/stabbed_l/{i}", instances.dumps(
            instances.generate("stabbed_l", params, rng.randrange(10**9))
        )
    for i in range(20):
        params = {"n": rng.randint(1, 10), "m": rng.randint(1, 10), "coord_range": rng.choice([4, 12])}
        f = instances.generate("ortho_psd", params, rng.randrange(10**9))
        if i % 2:
            f = instances.InstanceFile("ortho_psd", _with_roles(rng, f.data))
        yield f"codec/dumps/ortho_psd/{i}", instances.dumps(f)
    for k in range(4):
        for i in range(10):
            params = {"n": rng.randint(1, 12), "k": k, "coord_range": rng.choice([2, 4, 8])}
            f = instances.generate("unit_bk", params, rng.randrange(10**9))
            yield f"codec/dumps/unit_bk/k{k}/{i}", instances.dumps(f)
    for kind in instances.KINDS:
        for i in range(60):
            params = {"n": rng.randint(2, 5), "m": rng.randint(2, 5), "k": rng.randint(0, 2)}
            f = instances.generate(kind, params, rng.randrange(10**9))
            if kind == "ortho_psd" and i % 2:
                f = instances.InstanceFile(kind, _with_roles(rng, f.data))
            text = _fault(rng, kind, json.loads(instances.dumps(f)))
            yield f"codec/loads/{kind}/{i}", (text, _loads_outcome(text))


_DENS = (1, 2, 3, 7, 11, 13, 97, 9973, 99991)  # pairwise coprime after 1


def _rat(rng: random.Random, span: int) -> Fraction:
    """A signed rational with one of a few pairwise coprime denominators."""
    den = rng.choice(_DENS)
    return Fraction(rng.randint(-span * den, span * den), den)


def _normalize_instance(rng: random.Random, n: int, m: int) -> ssr.SsrInstance:
    """Rays and segments with sparse ids shuffled against input order, a
    few shared segment abscissas (some equal to a reach), segments near
    ray heights; some segments meet no ray and some heights repeat."""
    span = rng.choice([3, 20, 10**6])
    ys = [_rat(rng, span) for _ in range(n)]
    if n > 1 and rng.random() < 0.1:
        ys[-1] = ys[0]  # repeated height: invalid input
    reaches = [_rat(rng, span) for _ in range(max(1, n // 2))]
    abscissas = [
        rng.choice(reaches) - rng.choice([0, 0, Fraction(1, 7), abs(_rat(rng, span))]) if rng.random() < 0.8
        else _rat(rng, span)
        for _ in range(rng.randint(1, 4))
    ]
    ray_ids = rng.sample(range(3 * n + 3), n)
    rays = tuple(HRay(i, y, rng.choice(reaches)) for i, y in zip(ray_ids, ys))
    seg_ids = rng.sample(range(3 * m + 3), m)
    segs = []
    for i in seg_ids:
        mid = rng.choice(ys) if ys and rng.random() < 0.9 else _rat(rng, span)
        lo = mid - rng.choice([0, Fraction(1, 3), _rat(rng, 2) ** 2])
        hi = mid + rng.choice([0, Fraction(1, 2), _rat(rng, 2) ** 2])
        segs.append(VSeg(i, rng.choice(abscissas), lo, hi))
    return ssr.SsrInstance(rays, tuple(segs))


def _columns_twin(rng: random.Random, inst: ssr.SsrInstance) -> ssr.SsrInstance:
    """``inst`` as a ``from_columns`` instance on k times its scales,
    shifted, so every int differs from ``int_coords``' own."""
    c = geom.int_coords(inst.rays, inst.segments)
    k, ty, tx = rng.randint(2, 5), rng.randint(-50, 50), rng.randint(-50, 50)
    return ssr.SsrInstance.from_columns(c._replace(
        ray_y=[k * v - ty for v in c.ray_y], reach=[k * v - tx for v in c.reach],
        seg_x=[k * v - tx for v in c.seg_x], seg_lo=[k * v - ty for v in c.seg_lo],
        seg_hi=[k * v - ty for v in c.seg_hi], y_shift=ty, y_scale=k * c.y_scale,
        x_shift=tx, x_scale=k * c.x_scale,
    ))


def _normalized_cases(name: str, inst):
    """``normalize``'s output read after the solve, then normalized again,
    or the error it raised."""
    norm = _outcome(ssr.normalize, inst)
    if isinstance(norm, tuple):
        yield f"{name}/normalize", norm
        return
    yield f"{name}/solve_fast", sorted(ssr.solve_fast(norm))
    twice = ssr.normalize(norm)  # reads the columns of an unread instance
    yield f"{name}/normalize", norm
    yield f"{name}/normalize_twice", twice


def normalize_cases():
    """(name, output) for ``ssr.normalize`` on instances whose ids are
    out of input order, with shared abscissas, negative coordinates and
    coprime denominators, raw and as shifted column instances."""
    rng = random.Random(9191)
    for i in range(400):
        size = 200 if i % 40 == 39 else 12
        inst = _normalize_instance(rng, rng.randint(0, size), rng.randint(0, size))
        yield from _normalized_cases(f"normalize/{i}", inst)
        yield from _normalized_cases(f"normalize/{i}/columns", _columns_twin(rng, inst))


def digest(value) -> str:
    text = value if isinstance(value, str) else repr(canon(value))
    return hashlib.sha256(text.encode()).hexdigest()


def compute() -> dict[str, str]:
    return {name: digest(value) for name, value in cases()}


def changed(got: dict[str, str], want: dict[str, str]) -> list[str]:
    """Names of the cases that are missing, new or hash differently."""
    return sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))


def main(argv: list[str]) -> int:
    got = compute()
    if argv == ["--write"]:
        GOLDEN.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(got)} cases to {GOLDEN}")
        return 0
    if argv:
        print(__doc__)
        return 2
    diff = changed(got, json.loads(GOLDEN.read_text()))
    for name in diff:
        print(name)
    print(f"{len(diff)} of {len(got)} cases changed")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
