"""Instance files: canonical JSON schemas, parsing, and seeded generators.

Every rational is serialized as a canonical "p/q" string (plain "p" when
integral), ids are dense from 0, and object keys are sorted, so dumping a
parsed file reproduces it byte for byte.
"""
from __future__ import annotations

import json
import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import GenerationExhaustedError, InvalidInputError
from .geom import Fenwick, HRay, HSeg, OrthoInstance, StabInstance, VSeg, as_rat, intersects, rat_str
from .srs import SrsInstance
from .ssr import SsrInstance
from .stabbedl import LPath, StabbedLInstance
from .uvpg import UnitKBendPath

KINDS = ("ssr", "srs", "stabbed_l", "ortho_psd", "unit_bk")
_STAB_TYPES = {"ssr": SsrInstance, "srs": SrsInstance}

_RETRIES = 400


@dataclass(frozen=True)
class UnitBkInstance:
    k: int
    paths: tuple[UnitKBendPath, ...]

    def __post_init__(self):
        object.__setattr__(self, "paths", tuple(self.paths))
        if self.k < 0:
            raise InvalidInputError("bend bound must be nonnegative")


InstanceData = Union[SsrInstance, SrsInstance, StabbedLInstance, OrthoInstance, UnitBkInstance]


@dataclass(frozen=True)
class InstanceFile:
    kind: str
    data: InstanceData

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidInputError(f"unknown instance kind {self.kind!r}")


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _require(payload: dict, key: str):
    if key not in payload:
        raise InvalidInputError(f"missing field {key!r}")
    return payload[key]


def _int_field(payload: dict, key: str) -> int:
    value = _require(payload, key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidInputError(f"field {key!r} must be an integer")
    return value


def _rat_field(payload: dict, key: str) -> Fraction:
    value = _require(payload, key)
    if not isinstance(value, (str, int)):
        raise InvalidInputError(f"field {key!r} must be a rational string")
    return as_rat(value)


def _check_dense(ids: list[int], what: str):
    if sorted(ids) != list(range(len(ids))):
        raise InvalidInputError(f"{what} ids must be dense from 0")


def _vseg_json(s: VSeg) -> dict:
    return {"id": s.id, "x": rat_str(s.x), "y_lo": rat_str(s.y_lo), "y_hi": rat_str(s.y_hi)}


def _encode_data(data: InstanceData) -> dict:
    if isinstance(data, StabInstance):
        return {
            "rays": [
                {"id": r.id, "y": rat_str(r.y), "x_right": rat_str(r.x_right)}
                for r in sorted(data.rays, key=lambda r: r.id)
            ],
            "segments": [_vseg_json(s) for s in sorted(data.segments, key=lambda s: s.id)],
        }
    if isinstance(data, StabbedLInstance):
        return {
            "line_x": rat_str(data.line_x),
            "paths": [
                {
                    "id": p.id,
                    "corner_x": rat_str(p.corner_x),
                    "corner_y": rat_str(p.corner_y),
                    "vlen": rat_str(p.vlen),
                    "hlen": rat_str(p.hlen),
                }
                for p in sorted(data.paths, key=lambda p: p.id)
            ],
        }
    if isinstance(data, OrthoInstance):
        return {
            "hsegs": [
                {
                    "id": s.id,
                    "y": rat_str(s.y),
                    "x_lo": rat_str(s.x_lo),
                    "x_hi": rat_str(s.x_hi),
                }
                for s in sorted(data.hsegs, key=lambda s: s.id)
            ],
            "vsegs": [_vseg_json(s) for s in sorted(data.vsegs, key=lambda s: s.id)],
            "constraint_ids": sorted(data.constraint_ids),
            "candidate_ids": sorted(data.candidate_ids),
        }
    if isinstance(data, UnitBkInstance):
        return {
            "k": data.k,
            "paths": [
                {
                    "id": p.id,
                    "start_x": rat_str(p.start_x),
                    "start_y": rat_str(p.start_y),
                    "legs": "".join(p.legs),
                }
                for p in sorted(data.paths, key=lambda p: p.id)
            ],
        }
    raise InvalidInputError(f"unsupported data type {type(data).__name__}")


def dumps(f: InstanceFile) -> str:
    payload = {"kind": f.kind}
    payload.update(_encode_data(f.data))
    return canonical_json(payload)


def _decode_rays(items) -> tuple[HRay, ...]:
    rays = tuple(
        HRay(_int_field(r, "id"), _rat_field(r, "y"), _rat_field(r, "x_right"))
        for r in items
    )
    _check_dense([r.id for r in rays], "ray")
    return tuple(sorted(rays, key=lambda r: r.id))


def _vseg(s: dict) -> VSeg:
    return VSeg(_int_field(s, "id"), _rat_field(s, "x"), _rat_field(s, "y_lo"), _rat_field(s, "y_hi"))


def _decode_vsegs(items) -> tuple[VSeg, ...]:
    segs = tuple(_vseg(s) for s in items)
    _check_dense([s.id for s in segs], "segment")
    return tuple(sorted(segs, key=lambda s: s.id))


def loads(text: str) -> InstanceFile:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"not valid JSON: {exc}")
    if not isinstance(payload, dict):
        raise InvalidInputError("instance file must be a JSON object")
    kind = _require(payload, "kind")
    if kind in _STAB_TYPES:
        return InstanceFile(
            kind,
            _STAB_TYPES[kind](
                _decode_rays(_require(payload, "rays")),
                _decode_vsegs(_require(payload, "segments")),
            ),
        )
    if kind == "stabbed_l":
        paths = tuple(
            LPath(
                _int_field(p, "id"),
                _rat_field(p, "corner_x"),
                _rat_field(p, "corner_y"),
                _rat_field(p, "vlen"),
                _rat_field(p, "hlen"),
            )
            for p in _require(payload, "paths")
        )
        _check_dense([p.id for p in paths], "path")
        return InstanceFile(
            "stabbed_l",
            StabbedLInstance(
                tuple(sorted(paths, key=lambda p: p.id)),
                _rat_field(payload, "line_x"),
            ),
        )
    if kind == "ortho_psd":
        hsegs = tuple(
            HSeg(
                _int_field(s, "id"),
                _rat_field(s, "y"),
                _rat_field(s, "x_lo"),
                _rat_field(s, "x_hi"),
            )
            for s in _require(payload, "hsegs")
        )
        vsegs = tuple(_vseg(s) for s in _require(payload, "vsegs"))
        _check_dense([s.id for s in hsegs] + [s.id for s in vsegs], "segment")
        cons = _require(payload, "constraint_ids")
        cands = _require(payload, "candidate_ids")
        if not isinstance(cons, list) or not isinstance(cands, list):
            raise InvalidInputError("role id fields must be lists")
        return InstanceFile(
            "ortho_psd",
            OrthoInstance(
                tuple(sorted(hsegs, key=lambda s: s.id)),
                tuple(sorted(vsegs, key=lambda s: s.id)),
                frozenset(cons),
                frozenset(cands),
            ),
        )
    if kind == "unit_bk":
        k = _int_field(payload, "k")
        paths = []
        for p in _require(payload, "paths"):
            legs = _require(p, "legs")
            if not isinstance(legs, str) or not legs:
                raise InvalidInputError("path legs must be a nonempty string")
            paths.append(
                UnitKBendPath(
                    _int_field(p, "id"),
                    _rat_field(p, "start_x"),
                    _rat_field(p, "start_y"),
                    tuple(legs),
                )
            )
        _check_dense([p.id for p in paths], "path")
        for p in paths:
            if len(p.legs) > k + 1:
                raise InvalidInputError(f"path {p.id} exceeds the bend bound")
        return InstanceFile(
            "unit_bk", UnitBkInstance(k, tuple(sorted(paths, key=lambda p: p.id)))
        )
    raise InvalidInputError(f"unknown instance kind {kind!r}")


def load(path: str) -> InstanceFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return loads(fh.read())
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}")


def dump(f: InstanceFile, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(f))


# ---------------------------------------------------------------------------
# seeded generators


def _params(params: Optional[dict]) -> dict:
    merged = {"n": 8, "m": 8, "k": 1, "coord_range": 12}
    if params:
        merged.update({k: v for k, v in params.items() if v is not None})
    for key in ("n", "m", "k", "coord_range"):
        value = merged[key]
        if not isinstance(value, int) or value < 0:
            raise InvalidInputError(f"parameter {key!r} must be a nonnegative integer")
    if merged["n"] < 1:
        raise InvalidInputError("need at least one primary entity")
    if merged["coord_range"] < 2:
        raise InvalidInputError("coord_range too small")
    return merged


def _gen_ssr(rng: random.Random, n: int, m: int, span: int) -> SsrInstance:
    ys = rng.sample(range(1, span + 2 * n + 1), n)
    reaches = [rng.randint(1, span) for _ in range(n)]
    reaches[rng.randrange(n)] = span
    rays = tuple(HRay(i, Fraction(ys[i]), Fraction(reaches[i])) for i in range(n))
    # Each segment anchors on a uniform ray among those reaching its x, taken
    # in id order.  The draw depends only on how many there are, so it is made
    # in sequence and the anchors are resolved afterwards, sweeping x downward.
    sorted_reaches = sorted(reaches)
    draws = []
    for _ in range(m):
        x = rng.randint(1, span)
        idx = rng.choice(range(n - bisect_left(sorted_reaches, x)))
        draws.append((x, idx, rng.randint(0, 4), rng.randint(0, 4)))
    anchor = [0] * m
    reaching = Fenwick(n)  # 1 at the id of every ray reaching the sweep's x
    by_reach = sorted(range(n), key=lambda i: -reaches[i])
    ptr = 0
    for j in sorted(range(m), key=lambda j: -draws[j][0]):
        while ptr < n and reaches[by_reach[ptr]] >= draws[j][0]:
            reaching.add(by_reach[ptr], 1)
            ptr += 1
        anchor[j] = reaching.kth(draws[j][1])
    segments = tuple(
        VSeg(j, Fraction(x), rays[anchor[j]].y - lo, rays[anchor[j]].y + hi)
        for j, (x, _, lo, hi) in enumerate(draws)
    )
    return SsrInstance(rays, segments)


def _gen_srs(rng: random.Random, n: int, m: int, span: int) -> SrsInstance:
    ys = rng.sample(range(1, span + 2 * n + 1), n)
    reaches = [rng.randint(1, span) for _ in range(n)]
    rays = tuple(HRay(i, Fraction(ys[i]), Fraction(reaches[i])) for i in range(n))
    if m < 1:
        raise InvalidInputError("need at least one segment")
    order = list(range(n))
    rng.shuffle(order)
    groups = min(m, n)
    cuts = sorted(rng.sample(range(1, n), groups - 1)) if groups > 1 else []
    bounds = [0] + cuts + [n]
    segments = []
    for j in range(groups):
        members = [rays[i] for i in order[bounds[j]:bounds[j + 1]]]
        x = rng.randint(1, int(min(r.x_right for r in members)))
        lo = min(r.y for r in members) - rng.randint(0, 2)
        hi = max(r.y for r in members) + rng.randint(0, 2)
        segments.append(VSeg(j, Fraction(x), lo, hi))
    for j in range(groups, m):
        a = rays[rng.randrange(n)]
        x = rng.randint(1, int(a.x_right))
        lo = a.y - rng.randint(0, 3)
        hi = a.y + rng.randint(0, 3)
        segments.append(VSeg(j, Fraction(x), lo, hi))
    return SrsInstance(rays, tuple(segments))


def _gen_stabbed_l(rng: random.Random, n: int, span: int) -> StabbedLInstance:
    corner_ys = rng.sample(range(0, 3 * n + span), n)
    by_x: dict[int, list[tuple[int, int]]] = {}
    paths = []
    for i in range(n):
        cy = corner_ys[i]
        for _ in range(_RETRIES):
            cx = -rng.randint(1, span)
            vlen = rng.randint(1, span)
            taken = by_x.get(cx, [])
            if all(not (cy < hi and lo < cy + vlen) for lo, hi in taken):
                break
        else:
            raise GenerationExhaustedError(f"no room for path {i}")
        hlen = -cx + rng.randint(0, span)
        by_x.setdefault(cx, []).append((cy, cy + vlen))
        paths.append(LPath(i, Fraction(cx), Fraction(cy), Fraction(vlen), Fraction(hlen)))
    return StabbedLInstance(tuple(paths), Fraction(0))


def _proper_walk(rng: random.Random, count: int, span: int) -> list[tuple[int, int]]:
    lo = rng.randint(0, 3)
    hi = lo + rng.randint(0, span)
    out = [(lo, hi)]
    for _ in range(count - 1):
        lo += rng.randint(1, 3)
        hi = max(hi + rng.randint(1, 3), lo)
        out.append((lo, hi))
    return out


def _gen_ortho(rng: random.Random, n: int, m: int, span: int) -> OrthoInstance:
    hsegs = tuple(
        HSeg(i, Fraction(rng.randint(0, span)), Fraction(lo), Fraction(hi))
        for i, (lo, hi) in enumerate(_proper_walk(rng, n, span))
    )
    vsegs = tuple(
        VSeg(n + j, Fraction(rng.randint(0, span)), Fraction(lo), Fraction(hi))
        for j, (lo, hi) in enumerate(_proper_walk(rng, m, span))
    )
    everything = frozenset(range(n + m))
    return OrthoInstance(hsegs, vsegs, everything, everything)


def _is_simple(path: UnitKBendPath) -> bool:
    segs = path.leg_segments()
    for i in range(len(segs)):
        for j in range(i + 2, len(segs)):
            if intersects(segs[i], segs[j]):
                return False
    return True


def _gen_unit_bk(rng: random.Random, n: int, k: int, span: int) -> UnitBkInstance:
    paths = []
    for i in range(n):
        for _ in range(_RETRIES):
            sx = Fraction(rng.randint(0, 2 * span), 2)
            sy = Fraction(rng.randint(0, 2 * span), 2)
            legs = []
            horizontal = rng.random() < 0.5
            for _ in range(rng.randint(1, k + 1)):
                legs.append(rng.choice("LR") if horizontal else rng.choice("UD"))
                horizontal = not horizontal
            candidate = UnitKBendPath(i, sx, sy, tuple(legs))
            if _is_simple(candidate):
                paths.append(candidate)
                break
        else:
            raise GenerationExhaustedError(f"no simple path for id {i}")
    return UnitBkInstance(k, tuple(paths))


def generate(kind: str, params: Optional[dict] = None, seed: int = 0) -> InstanceFile:
    """Deterministic valid instance for the given kind and seed."""
    p = _params(params)
    rng = random.Random(seed)
    n, m, k, span = p["n"], p["m"], p["k"], p["coord_range"]
    if kind == "ssr":
        return InstanceFile("ssr", _gen_ssr(rng, n, m, span))
    if kind == "srs":
        return InstanceFile("srs", _gen_srs(rng, n, m, span))
    if kind == "stabbed_l":
        return InstanceFile("stabbed_l", _gen_stabbed_l(rng, n, span))
    if kind == "ortho_psd":
        return InstanceFile("ortho_psd", _gen_ortho(rng, n, m, span))
    if kind == "unit_bk":
        return InstanceFile("unit_bk", _gen_unit_bk(rng, n, k, span))
    raise InvalidInputError(f"unknown instance kind {kind!r}")
