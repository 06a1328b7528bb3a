"""Workload definitions: seeded instance pools and the timed requests.

A workload serves *baskets*: a fixed sequence of requests of the kinds it
covers.  Its pool of baskets is generated from the seed during set-up; the
run cycles through the pool.  ``serve`` is the only code inside the timed
region and calls the library through its public entry points only, along
the same path the ``geodom`` command takes for that kind.
"""
from __future__ import annotations

import importlib
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Optional

from . import checks

LAYERS = ("instances", "geom", "lp", "ssr", "srs", "stabbedl", "psd", "uvpg", "oracle")


def import_lib() -> SimpleNamespace:
    """Import the package afresh (dropping any earlier import) and return
    its layer modules; set-up is timed around this, so it is repeatable."""
    for name in [m for m in sys.modules if m == "geodom" or m.startswith("geodom.")]:
        del sys.modules[name]
    importlib.import_module("geodom")
    return SimpleNamespace(
        **{name: importlib.import_module(f"geodom.{name}") for name in LAYERS}
    )


@dataclass(frozen=True)
class Request:
    kind: str
    inst: object  # the generated instance data, kept for the checks
    text: Optional[str] = None  # certify-desk: the serialized instance


@dataclass(frozen=True)
class Outcome:
    selected: frozenset
    lp_opt: Optional[Fraction] = None
    ratio: Optional[Fraction] = None
    exact: Optional[int] = None


def _seeds(tag: str, seed: int):
    rng = random.Random(f"{tag}:{seed}")
    while True:
        yield rng.randrange(1 << 31)


# ---------------------------------------------------------------------------
# instance builders


def big_ssr(lib, seed: int, n: int, m: int):
    """ssr instance with the distribution of the criterion-4 timing case.

    ``instances.generate("ssr")`` scans every ray per segment, which is
    O(n m) and far too slow at n = m = 5e4, so the benchmark draws this one
    itself."""
    rng = random.Random(seed)
    HRay, VSeg, F = lib.geom.HRay, lib.geom.VSeg, Fraction
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
    return lib.ssr.SsrInstance(rays, tuple(segs))


def _gen(lib, kind: str, params: dict, seed: int):
    return lib.instances.generate(kind, params, seed).data


# ---------------------------------------------------------------------------
# timed requests: one per kind, each mirroring ``geodom solve``


def _cover_lp_opt(lib, cands, cons) -> Fraction:
    """``solve --certify`` bound for ssr/srs: LP over the cover rows."""
    index_of = {c.id: i for i, c in enumerate(cands)}
    rows = tuple(
        frozenset(index_of[c.id] for c in cands if lib.geom.intersects(c, u)) for u in cons
    )
    return lib.lp.solve_lp(lib.lp.CoverProgram(len(cands), rows)).objective_value


def _from_cert(cert) -> Outcome:
    return Outcome(frozenset(cert.heuristic_ids), cert.lp_opt, cert.claimed_ratio_bound)


def solve_ssr(lib, inst) -> Outcome:
    return Outcome(frozenset(lib.ssr.solve_fast(lib.ssr.normalize(inst))))


def solve_srs(lib, inst) -> Outcome:
    selected, _ = lib.srs.solve(inst)
    return Outcome(frozenset(selected))


def solve_stabbed_l(lib, inst) -> Outcome:
    return _from_cert(lib.stabbedl.solve_mds(inst))


def solve_ortho_psd(lib, inst) -> Outcome:
    return _from_cert(lib.psd.psd_solve(inst))


def solve_unit_bk(lib, inst) -> Outcome:
    return _from_cert(lib.uvpg.solve_mds(list(inst.paths), inst.k))


SOLVERS = {
    "ssr": solve_ssr,
    "srs": solve_srs,
    "stabbed_l": solve_stabbed_l,
    "ortho_psd": solve_ortho_psd,
    "unit_bk": solve_unit_bk,
}


def certify(lib, text: str) -> Outcome:
    """``geodom solve --certify`` on one serialized instance: parse, solve,
    bound by LP, compare with the oracle optimum, validate."""
    f = lib.instances.loads(text)
    data = f.data
    out = SOLVERS[f.kind](lib, data)
    if f.kind == "ssr":
        out = Outcome(out.selected, _cover_lp_opt(lib, data.rays, data.segments), Fraction(2))
    elif f.kind == "srs":
        out = Outcome(out.selected, _cover_lp_opt(lib, data.segments, data.rays), Fraction(2))
    if f.kind in ("ssr", "srs", "ortho_psd"):
        exact = len(lib.oracle.exact_stab(data))
    else:
        if f.kind == "stabbed_l":
            neighborhoods, _ = lib.stabbedl.build_graph(data)
        else:
            neighborhoods = lib.uvpg.build_graph(list(data.paths)).neighborhoods
        n = len(neighborhoods)
        graph = lib.oracle.AbstractGraph(n, tuple(neighborhoods[u] for u in range(n)))
        exact = len(lib.oracle.exact_mds(graph))
    cert = lib.lp.SolveCertificate(
        heuristic_ids=out.selected,
        heuristic_size=len(out.selected),
        lp_opt=out.lp_opt,
        claimed_ratio_bound=out.ratio,
        exact_opt=exact,
    )
    cert.validate()
    return Outcome(out.selected, out.lp_opt, out.ratio, exact)


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""
    #: the kind of each request of a basket, in order
    kinds: tuple[str, ...] = ()
    #: untraced seconds per basket on a 2-core x86 host; sets how many
    #: baskets a traced run of a given length covers (see ``trace_baskets``)
    nominal_basket_s = 1.0
    #: the lower bound behind size_over_bound, if the workload has one
    bound_field: Optional[str] = None

    def build(self, lib, seed: int) -> list[tuple[Request, ...]]:
        raise NotImplementedError

    def serve(self, lib, req: Request) -> Outcome:
        return SOLVERS[req.kind](lib, req.inst)

    def check(self, req: Request, out: Outcome) -> list[str]:
        """Problems with one output; empty when it is correct."""
        problems = []
        if not checks.selection_ok(req.kind, req.inst, out.selected):
            problems.append(f"{req.kind}: selection does not cover or dominate")
        problems += checks.bounds_problems(len(out.selected), out.lp_opt, out.ratio, out.exact)
        return problems

    def trace_baskets(self, seconds: float, pool: int) -> int:
        """Baskets a traced run covers: a fixed function of --seconds, so two
        traced runs of one seed do the same work and count the same."""
        return max(1, min(pool, int(seconds / (2 * self.nominal_basket_s))))


class StabLarge(Workload):
    name = "stab-large"
    kinds = ("ssr", "srs")
    nominal_basket_s = 13.3
    SSR_N = 50_000
    SRS_N = 1000

    def build(self, lib, seed):
        seeds = _seeds(self.name, seed)
        ssr = Request("ssr", big_ssr(lib, next(seeds), self.SSR_N, self.SSR_N))
        srs = Request("srs", _gen(lib, "srs", {"n": self.SRS_N, "m": self.SRS_N}, next(seeds)))
        return [(ssr, srs)]


class LpPipelines(Workload):
    name = "lp-pipelines"
    kinds = ("stabbed_l", "stabbed_l", "ortho_psd", "unit_bk")
    nominal_basket_s = 3.1
    bound_field = "lp_opt"
    UNIT_BK_N = (100, 150, 200, 150)
    POOL = 4

    def build(self, lib, seed):
        seeds = _seeds(self.name, seed)
        pool = []
        for i in range(self.POOL):
            s, t = next(seeds), next(seeds)
            pool.append((
                Request("stabbed_l", _gen(lib, "stabbed_l", {"n": 100, "coord_range": 25}, s)),
                Request("stabbed_l", _gen(lib, "stabbed_l", {"n": 100, "coord_range": 25}, t)),
                Request("ortho_psd", _gen(lib, "ortho_psd", {"n": 200, "m": 200}, s)),
                Request("unit_bk", _gen(lib, "unit_bk", {"n": self.UNIT_BK_N[i], "k": 2}, s)),
            ))
        return pool


class CertifyDesk(Workload):
    name = "certify-desk"
    kinds = ("ssr", "srs", "stabbed_l", "ortho_psd", "unit_bk")
    nominal_basket_s = 0.017
    bound_field = "exact"
    POOL = 600  # baskets, so 3000 instances

    def build(self, lib, seed):
        rng = random.Random(f"{self.name}:{seed}")
        pool = []
        for _ in range(self.POOL):
            basket = []
            for kind in self.kinds:
                if kind == "ortho_psd":
                    params = {"n": rng.randint(1, 8), "m": rng.randint(1, 8)}
                else:
                    params = {"n": rng.randint(2, 12), "m": rng.randint(2, 12), "k": rng.randint(1, 2)}
                f = lib.instances.generate(kind, params, rng.randrange(1 << 31))
                basket.append(Request(kind, f.data, lib.instances.dumps(f)))
            pool.append(tuple(basket))
        return pool

    def serve(self, lib, req):
        return certify(lib, req.text)


WORKLOADS = {w.name: w for w in (StabLarge(), LpPipelines(), CertifyDesk())}
