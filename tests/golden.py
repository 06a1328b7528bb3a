"""Golden-output corpus for the stabbing engines (``ssr``, ``srs``).

    python tests/golden.py           # list the cases whose output changed
    python tests/golden.py --write   # regenerate tests/golden.json

Each case is the sha256 of the ``repr`` of one output for a fixed seed:
the ``instances.dumps`` text of generated instances, ``ssr.normalize``
outputs (read after the ``solve_fast`` that consumes them), ssr and srs
selections, the ssr ``TokenTrace`` and the ``SrsTrace``.  Sets and dict
keys are sorted before printing, so a hash moves only when some value
does, never with the iteration order of a set.  Regenerating the file
is a behaviour change: list every changed case with the reason.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"

if __name__ == "__main__":
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from geodom import instances, srs, ssr  # noqa: E402
from geodom.errors import InfeasibleSegmentError, InvalidInputError  # noqa: E402

from test_acceptance import _big_ssr  # noqa: E402
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
        yield f"{name}/trace", ssr.solve(norm, want_trace=True)


def _srs_cases(name: str, inst):
    sel, trace = srs.solve(inst, want_trace=True)
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
