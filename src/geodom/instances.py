"""Instance files: one JSON codec driven by dataclass fields, and seeded
generators.

A file is one JSON object: its ``kind`` plus the fields of that kind's data
record, under their dataclass field names, and every nested record the
same way.  A rational is written as its canonical "p/q" string (plain "p"
when integral), a set of ids as a sorted list, records as a list in id
order with ids dense from 0, and a path's legs as one string.  Object keys
are sorted, so dumping a parsed file reproduces it byte for byte.  Fields
are read and written by their type hints: a rational field is written as a
string whatever the Python type of its value, and read only in the
canonical form ``geom.as_rat`` accepts.  A file that breaks the schema
raises ``InvalidInputError``.
"""
from __future__ import annotations

import json
import random
from bisect import bisect_left
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from functools import cache, partial
from operator import attrgetter
from typing import Callable, NamedTuple, Optional, Union, get_args, get_type_hints

from .errors import (
    GenerationExhaustedError,
    InfeasibleConstraintError,
    InfeasibleRayError,
    InfeasibleSegmentError,
    InvalidInputError,
)
from .geom import Fenwick, HRay, HSeg, OrthoInstance, VSeg, as_rat, rat_str
from .srs import SrsInstance
from .ssr import SsrInstance
from .stabbedl import LPath, StabbedLInstance
from .uvpg import UnitKBendPath, _int_legs

_RETRIES = 400


@dataclass(frozen=True)
class UnitBkInstance:
    k: int
    paths: tuple[UnitKBendPath, ...]

    def __post_init__(self):
        object.__setattr__(self, "paths", tuple(self.paths))
        # before the sign of k, so a negative k with paths names a path
        for p in self.paths:
            if len(p.legs) > self.k + 1:
                raise InvalidInputError(f"path {p.id} exceeds the bend bound")
        if self.k < 0:
            raise InvalidInputError("bend bound must be nonnegative")


InstanceData = Union[SsrInstance, SrsInstance, StabbedLInstance, OrthoInstance, UnitBkInstance]


class Kind(NamedTuple):
    """One instance kind, as ``KIND_TABLE`` holds it."""

    record: type  # the data record
    id_spaces: dict[str, tuple[str, ...]]  # id name -> the list fields sharing its ids
    generator: Callable  # generator(rng, *params)
    params: tuple[str, ...]  # the ``generate`` parameters it reads, in argument order
    alg: str  # its ``solve --alg`` name
    unmet: Optional[type]  # error for a constraint nothing meets; None on a graph kind


def _kind(name) -> Kind:
    if not isinstance(name, str) or name not in KIND_TABLE:
        raise InvalidInputError(f"unknown instance kind {name!r}")
    return KIND_TABLE[name]


@dataclass(frozen=True)
class InstanceFile:
    kind: str
    data: InstanceData

    def __post_init__(self):
        record = _kind(self.kind).record
        if type(self.data) is not record:
            raise InvalidInputError(
                f"{self.kind} data must be a {record.__name__}, not {type(self.data).__name__}"
            )


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


_by_id = attrgetter("id")


@cache
def _encoded_fields(cls: type) -> Optional[tuple[tuple[str, bool], ...]]:
    """(name, whether its type hint is a rational) per field of ``cls``;
    None when ``cls`` is not a dataclass."""
    if not is_dataclass(cls):
        return None
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name] is Fraction) for f in fields(cls))


def to_json(x):
    """``x`` as JSON values: a dataclass becomes an object keyed by its
    field names, a rational its ``rat_str``, a map's keys strings, a
    collection of ids a sorted list, records with ids a list in id order,
    and a tuple of strings (a path's legs) one string.  A dataclass field
    is a rational when its type hint says so, whatever type its value has."""
    spec = _encoded_fields(type(x))
    if spec is not None:
        out = {}
        for name, rational in spec:  # rationals and ints, most of a file, without a call
            v = getattr(x, name)
            out[name] = rat_str(v) if rational else v if type(v) is int else to_json(v)
        return out
    if type(x) is Fraction:
        return rat_str(x)
    if isinstance(x, dict):
        return {str(k): to_json(v) for k, v in x.items()}
    if isinstance(x, (tuple, frozenset)):  # of one type, as the field hints say
        first = next(iter(x), 0)
        if type(first) is int:
            return sorted(x)
        if type(first) is str:
            return "".join(x)
        if hasattr(first, "id"):
            x = sorted(x, key=_by_id)
        return [to_json(v) for v in x]
    return x


def dumps(f: InstanceFile) -> str:
    return canonical_json({"kind": f.kind, **to_json(f.data)})


def _int(value, key: str) -> int:
    if type(value) is not int:
        raise InvalidInputError(f"field {key!r} must be an integer")
    return value


def _rat(value, key: str) -> Fraction:
    if type(value) is not str and type(value) is not int:
        raise InvalidInputError(f"field {key!r} must be a rational string")
    return as_rat(value)


def _ids(value, key: str) -> frozenset[int]:
    if type(value) is not list:
        raise InvalidInputError("role id fields must be lists")
    if not all(type(v) is int for v in value):
        raise InvalidInputError(f"field {key!r} must list integer ids")
    return frozenset(value)


def _legs(value, key: str) -> tuple[str, ...]:
    if type(value) is not str or not value:
        raise InvalidInputError("path legs must be a nonempty string")
    return tuple(value)


def _records(cls: type, value, key: str) -> tuple:
    if type(value) is not list:
        raise InvalidInputError(f"field {key!r} must be a list")
    return tuple(sorted((cls(*_read(cls, v)) for v in value), key=_by_id))


_PARSERS = {int: _int, Fraction: _rat, frozenset[int]: _ids, tuple[str, ...]: _legs}


@cache
def _parsers(cls: type) -> tuple:
    """(name, parser) of each field of ``cls``; a field whose hint is not in
    ``_PARSERS`` is a tuple of records."""
    hints = get_type_hints(cls)
    return tuple(
        (f.name, _PARSERS.get(hints[f.name]) or partial(_records, get_args(hints[f.name])[0]))
        for f in fields(cls)
    )


def _read(cls: type, obj) -> list:
    """The fields of a ``cls`` record, in field order, parsed from its JSON
    object."""
    if type(obj) is not dict:
        raise InvalidInputError(f"each {cls.__name__} must be a JSON object")
    out = []
    for name, parse in _parsers(cls):
        if name not in obj:
            raise InvalidInputError(f"missing field {name!r}")
        out.append(parse(obj[name], name))
    return out


def loads(text: str) -> InstanceFile:
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InvalidInputError(f"not valid JSON: {exc}")
    if type(payload) is not dict:
        raise InvalidInputError("instance file must be a JSON object")
    if "kind" not in payload:
        raise InvalidInputError("missing field 'kind'")
    kind = payload["kind"]
    spec = _kind(kind)
    values = _read(spec.record, payload)
    named = {name: v for (name, _), v in zip(_parsers(spec.record), values)}
    for what, keys in spec.id_spaces.items():
        ids = sorted(r.id for key in keys for r in named[key])
        if ids != list(range(len(ids))):
            raise InvalidInputError(f"{what} ids must be dense from 0")
    return InstanceFile(kind, spec.record(*values))


def load(path: str) -> InstanceFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}")
    return loads(text)


def dump(f: InstanceFile, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(f))


# ---------------------------------------------------------------------------
# seeded generators


def _params(params: Optional[dict], keys: tuple[str, ...]) -> list[int]:
    """The values of ``keys`` (every kind reads ``n`` and ``coord_range``),
    defaults filled in; only these are range-checked."""
    merged = {"n": 8, "m": 8, "k": 1, "coord_range": 12}
    if params:
        merged.update({k: v for k, v in params.items() if v is not None})
    for key in keys:
        value = merged[key]
        if type(value) is not int or value < 0:
            raise InvalidInputError(f"parameter {key!r} must be a nonnegative integer")
    if merged["n"] < 1:
        raise InvalidInputError("need at least one primary entity")
    if merged["coord_range"] < 2:
        raise InvalidInputError("coord_range too small")
    return [merged[key] for key in keys]


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
    _, (legs,) = _int_legs([path])
    return not any(
        ax0 <= bx1 and bx0 <= ax1 and ay0 <= by1 and by0 <= ay1
        for i, (ax0, ax1, ay0, ay1) in enumerate(legs)
        for bx0, bx1, by0, by1 in legs[i + 2:]
    )


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
    """Deterministic valid instance for the given kind and seed.  ``params``
    may hold keys the kind's generator does not read; those are not checked.
    An unknown kind is reported before a bad parameter."""
    spec = _kind(kind)
    return InstanceFile(kind, spec.generator(random.Random(seed), *_params(params, spec.params)))


#: kind name -> Kind: the one place each kind's facts are written down
KIND_TABLE = {
    "ssr": Kind(SsrInstance, {"ray": ("rays",), "segment": ("segments",)},
                _gen_ssr, ("n", "m", "coord_range"), "ssr", InfeasibleSegmentError),
    "srs": Kind(SrsInstance, {"ray": ("rays",), "segment": ("segments",)},
                _gen_srs, ("n", "m", "coord_range"), "srs", InfeasibleRayError),
    "stabbed_l": Kind(StabbedLInstance, {"path": ("paths",)},
                      _gen_stabbed_l, ("n", "coord_range"), "stabbed-l", None),
    "ortho_psd": Kind(OrthoInstance, {"segment": ("hsegs", "vsegs")},
                      _gen_ortho, ("n", "m", "coord_range"), "psd", InfeasibleConstraintError),
    "unit_bk": Kind(UnitBkInstance, {"path": ("paths",)},
                    _gen_unit_bk, ("n", "k", "coord_range"), "uvpg", None),
}
KINDS = tuple(KIND_TABLE)
