"""Instance files, generators, and the command-line surface."""

import csv
import dataclasses
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodom.errors import GenerationExhaustedError, InvalidInputError
import geodom
from geodom import cli, instances, psd, srs, ssr, stabbedl, uvpg
from geodom.cli import run_cli
from geodom.geom import HRay, HSeg, OrthoInstance, VSeg
from geodom.srs import SrsInstance
from geodom.ssr import SsrInstance
from geodom.stabbedl import LPath, StabbedLInstance

from helpers import reference_gen_ssr, reference_verify_problems, segments_of
from strategies import GRID, GRID_LENGTHS, WIDE, WIDE_LENGTHS, lpath_instances, ortho_instances, ssr_instances, unit_path_lists


# ---------------------------------------------------------------------------
# serialization


def test_roundtrip_all_kinds():
    rng = random.Random(121)
    for kind in instances.KINDS:
        for _ in range(20):
            seed = rng.randrange(10**9)
            f = instances.generate(kind, {"n": 5, "m": 4, "k": 2}, seed)
            text = instances.dumps(f)
            again = instances.loads(text)
            assert again == f
            assert instances.dumps(again) == text
            assert text.endswith("\n")
            # same seed, same bytes
            g = instances.generate(kind, {"n": 5, "m": 4, "k": 2}, seed)
            assert instances.dumps(g) == text


def _dense(*families):
    """The record families with their ids, one space across them,
    relabelled 0, 1, ... in id order; each family sorted by id."""
    by_id = lambda r: r.id  # noqa: E731
    new_id = {r.id: i for i, r in enumerate(sorted((r for fam in families for r in fam), key=by_id))}
    return [tuple(sorted((dataclasses.replace(r, id=new_id[r.id]) for r in fam), key=by_id)) for fam in families]


@st.composite
def _any_file(draw):
    """An instance file of any kind, with negative and non-integer
    rationals (``GRID``, sometimes ``WIDE``) and ids dense from 0."""
    kind = draw(st.sampled_from(instances.KINDS))
    wide = draw(st.booleans())
    coords, lengths = (WIDE, WIDE_LENGTHS) if wide else (GRID, GRID_LENGTHS)
    if kind in ("ssr", "srs"):
        inst = draw(ssr_instances(coords, lengths))
        cls = SsrInstance if kind == "ssr" else SrsInstance
        data = cls(*_dense(inst.rays), *_dense(inst.segments))
    elif kind == "stabbed_l":
        data = StabbedLInstance(*_dense(draw(lpath_instances(coords)).paths), draw(coords))
    elif kind == "ortho_psd":
        inst = draw(ortho_instances(coords, lengths, roles=True))
        rank = {sid: i for i, sid in enumerate(sorted(s.id for s in segments_of(inst)))}
        roles = (frozenset(map(rank.get, ids)) for ids in (inst.constraint_ids, inst.candidate_ids))
        data = OrthoInstance(*_dense(inst.hsegs, inst.vsegs), *roles)
    else:
        k = draw(st.integers(0, 3))
        data = instances.UnitBkInstance(k, *_dense(draw(unit_path_lists(k, coords))))
    return instances.InstanceFile(kind, data)


@settings(max_examples=300, deadline=None)
@given(_any_file())
def test_roundtrip_property_all_kinds(f):
    text = instances.dumps(f)
    again = instances.loads(text)
    assert again == f
    assert instances.dumps(again) == text
    # records are written in id order, whatever order the instance holds
    reversed_records = {
        field.name: getattr(f.data, field.name)[::-1]
        for field in dataclasses.fields(f.data)
        if field.name in ("rays", "segments", "paths", "hsegs", "vsegs")
    }
    shuffled = instances.InstanceFile(f.kind, dataclasses.replace(f.data, **reversed_records))
    assert instances.dumps(shuffled) == text


def _mutated(kind, path, value):
    """The text of a small generated ``kind`` file with the value at
    ``path`` (keys and list indices) replaced by ``value``."""
    payload = json.loads(instances.dumps(instances.generate(kind, {"n": 2, "m": 2, "k": 1}, seed=1)))
    *head, last = path
    target = payload
    for step in head:
        target = target[step]
    target[last] = value
    return json.dumps(payload)


# one case per way a file breaks the schema's structure: a non-list for a
# list, a non-object for a record, a bool for an int or a rational, a
# non-string kind, a role id that is not an int, and JSON that Python's
# decoder cannot hold
MALFORMED = {
    "rays-string": _mutated("ssr", ["rays"], ""),
    "segments-object": _mutated("ssr", ["segments"], {}),
    "paths-int": _mutated("stabbed_l", ["paths"], 3),
    "paths-null": _mutated("unit_bk", ["paths"], None),
    "roles-string": _mutated("ortho_psd", ["constraint_ids"], "0"),
    "ray-int": _mutated("ssr", ["rays", 0], 1),
    "hseg-list": _mutated("ortho_psd", ["hsegs", 0], [0, "1", "2", "3"]),
    "path-string": _mutated("unit_bk", ["paths", 0], "RU"),
    "id-bool": _mutated("srs", ["segments", 0, "id"], False),
    "rational-bool": _mutated("ssr", ["rays", 0, "y"], True),
    "line_x-bool": _mutated("stabbed_l", ["line_x"], False),
    "k-bool": _mutated("unit_bk", ["k"], True),
    "kind-list": _mutated("ssr", ["kind"], ["ssr"]),
    "kind-object": _mutated("srs", ["kind"], {"srs": 1}),
    "kind-null": _mutated("ssr", ["kind"], None),
    "role-string": _mutated("ortho_psd", ["constraint_ids", 0], "0"),
    "role-list": _mutated("ortho_psd", ["candidate_ids", 0], [0]),
    "role-float": _mutated("ortho_psd", ["candidate_ids", 0], 0.0),
    "role-bool": _mutated("ortho_psd", ["constraint_ids", 0], True),
    "huge-int": '{"kind": "ssr", "rays": [], "segments": [], "x": 1' + "0" * 5000 + "}",
    "deep-nesting": "[" * 100_000,
}


def _assert_cli_rejects(tmp_path, capsys, raw: bytes):
    """``solve``, ``verify`` and ``render`` on the file ``raw`` exit 3 with
    one ``error:`` line."""
    inst, sol = tmp_path / "bad.json", tmp_path / "bad.sol.json"
    inst.write_bytes(raw)
    sol.write_text('{"selected": []}')
    for argv in (
        ["solve", "--alg", "ssr", "-i", str(inst), "-o", str(tmp_path / "out.json")],
        ["verify", "-i", str(inst), "-s", str(sol)],
        ["render", "-i", str(inst), "-o", str(tmp_path / "out.svg")],
    ):
        capsys.readouterr()
        assert run_cli(argv) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_files_are_invalid_input(tmp_path, capsys, name):
    text = MALFORMED[name]
    with pytest.raises(InvalidInputError):
        instances.loads(text)
    _assert_cli_rejects(tmp_path, capsys, text.encode())


def test_undecodable_file_is_invalid_input(tmp_path, capsys):
    _assert_cli_rejects(tmp_path, capsys, b'{"kind": "ssr\xff"}')


def test_dump_load_files(tmp_path):
    f = instances.generate("ssr", {"n": 3, "m": 3}, seed=5)
    path = tmp_path / "inst.json"
    instances.dump(f, str(path))
    assert instances.load(str(path)) == f
    with pytest.raises(InvalidInputError):
        instances.load(str(tmp_path / "missing.json"))


def test_loads_rejects_malformed():
    with pytest.raises(InvalidInputError):
        instances.loads("{not json")
    with pytest.raises(InvalidInputError):
        instances.loads('["kind"]')
    with pytest.raises(InvalidInputError):
        instances.loads('{"kind": "mystery"}')
    with pytest.raises(InvalidInputError):
        instances.loads('{"kind": "ssr", "rays": []}')  # no segments field
    bad_rat = {
        "kind": "ssr",
        "rays": [{"id": 0, "y": "1/0", "x_right": "4"}],
        "segments": [],
    }
    with pytest.raises(InvalidInputError):
        instances.loads(json.dumps(bad_rat))
    sparse = {
        "kind": "stabbed_l",
        "line_x": "0",
        "paths": [
            {"id": 0, "corner_x": "-1", "corner_y": "0", "vlen": "1", "hlen": "2"},
            {"id": 2, "corner_x": "-1", "corner_y": "5", "vlen": "1", "hlen": "2"},
        ],
    }
    with pytest.raises(InvalidInputError):
        instances.loads(json.dumps(sparse))
    too_bent = {
        "kind": "unit_bk",
        "k": 0,
        "paths": [{"id": 0, "start_x": "0", "start_y": "0", "legs": "RU"}],
    }
    with pytest.raises(InvalidInputError):
        instances.loads(json.dumps(too_bent))


def test_loads_normalizes_rationals():
    # a rational field holding a Python int is written as its canonical
    # string, as a Fraction is, so the bytes survive a round trip
    files = [
        instances.InstanceFile("ssr", SsrInstance((HRay(0, 3, 2),), (VSeg(0, 1, -1, F(7, 2)),))),
        instances.InstanceFile("stabbed_l", StabbedLInstance((LPath(0, -1, 0, 2, 3),), 0)),
        instances.InstanceFile(
            "ortho_psd", OrthoInstance((HSeg(0, 1, 0, 2),), (VSeg(1, 1, 0, 2),), {0, 1}, {0})
        ),
    ]
    for f in files:
        text = instances.dumps(f)
        payload = json.loads(text)
        for key, value in payload.items():
            if key == "line_x":
                assert type(value) is str
            if type(value) is list and value and type(value[0]) is dict:
                for record in value:
                    assert all(type(v) is str for k, v in record.items() if k != "id"), record
        assert instances.dumps(instances.loads(text)) == text
    assert '"x_right":"2","y":"3"' in instances.dumps(files[0])


@pytest.mark.parametrize("literal", ["6/2", "1e1", " 0.5", "1_000", "+2", "-0", "3/1", "007"])
def test_loads_rejects_non_canonical_rationals(literal):
    text = _mutated("ssr", ["rays", 0, "y"], literal)
    with pytest.raises(InvalidInputError, match="bad rational literal"):
        instances.loads(text)


# ---------------------------------------------------------------------------
# generators


def test_generated_instances_are_valid():
    rng = random.Random(232)
    for _ in range(40):
        seed = rng.randrange(10**9)
        n, m = rng.randint(1, 7), rng.randint(1, 7)
        ssr_inst = instances.generate("ssr", {"n": n, "m": m}, seed).data
        ssr.normalize(ssr_inst)
        srs_inst = instances.generate("srs", {"n": n, "m": m}, seed).data
        srs.solve(srs_inst)
        l_inst = instances.generate("stabbed_l", {"n": n}, seed).data
        stabbedl.normalize(l_inst)
        ortho = instances.generate("ortho_psd", {"n": n, "m": m}, seed).data
        assert ortho.constraint_ids == ortho.candidate_ids
        psd.psd_solve(ortho)
        k = rng.choice([0, 1, 2])
        unit = instances.generate("unit_bk", {"n": n, "k": k}, seed).data
        assert unit.k == k
        for p in unit.paths:
            assert 1 <= len(p.legs) <= k + 1
        uvpg.solve_mds(list(unit.paths), k)


def test_ssr_generator_matches_quadratic_reference():
    rng = random.Random(4242)
    for _ in range(400):
        n, m, span = rng.randint(1, 40), rng.randint(0, 40), rng.randint(2, 60)
        seed = rng.randrange(10**9)
        got = instances.generate("ssr", {"n": n, "m": m, "coord_range": span}, seed)
        want = reference_gen_ssr(random.Random(seed), n, m, span)
        assert instances.dumps(got) == instances.dumps(instances.InstanceFile("ssr", want))


def test_zero_bend_paths_are_single_legs():
    inst = instances.generate("unit_bk", {"n": 6, "k": 0}, seed=11).data
    assert all(len(p.legs) == 1 for p in inst.paths)


def test_generate_param_validation():
    with pytest.raises(InvalidInputError):
        instances.generate("ssr", {"n": 0})
    with pytest.raises(InvalidInputError):
        instances.generate("ssr", {"coord_range": 1})
    with pytest.raises(InvalidInputError):
        instances.generate("ssr", {"n": "three"})
    with pytest.raises(InvalidInputError):
        instances.generate("mystery")
    with pytest.raises(InvalidInputError, match="^need at least one segment$"):
        instances.generate("srs", {"m": 0})


@pytest.mark.parametrize("key", ["n", "m", "k", "coord_range"])
def test_generate_rejects_bool_params(key):
    # a bool is an int to isinstance, but the codec would not read it back
    params = {"n": 3, "m": 3, "k": 1, "coord_range": 12, key: True}
    readers = [kind for kind, spec in instances.KIND_TABLE.items() if key in spec.params]
    assert readers
    for kind in readers:
        with pytest.raises(InvalidInputError, match=f"parameter '{key}'"):
            instances.generate(kind, params)


@pytest.mark.parametrize("kind,key", [("stabbed_l", "m"), ("ssr", "k"), ("unit_bk", "m")])
def test_generate_ignores_params_the_kind_does_not_read(kind, key):
    want = instances.dumps(instances.generate(kind, {"n": 3}))
    for value in (-1, True, "three"):
        assert instances.dumps(instances.generate(kind, {"n": 3, key: value})) == want


def test_generate_checks_the_kind_before_its_params():
    with pytest.raises(InvalidInputError, match="parameter 'm'"):
        instances.generate("ssr", {"n": 3, "m": -1})
    with pytest.raises(InvalidInputError, match="unknown instance kind 'mystery'"):
        instances.generate("mystery", {"n": -1})


def test_instance_file_rejects_data_of_another_kind():
    # dumps would write this ssr instance as an srs file, a different problem
    ssr_data = instances.generate("ssr", {"n": 2, "m": 2}, seed=1).data
    with pytest.raises(InvalidInputError, match="srs data must be a SrsInstance, not SsrInstance"):
        instances.InstanceFile("srs", ssr_data)
    for kind in instances.KINDS:
        data = instances.generate(kind, {"n": 2, "m": 2}, seed=1).data
        assert type(data) is instances.KIND_TABLE[kind].record
        for other in instances.KINDS:
            if other != kind:
                want = f"{other} data must be a .*, not {type(data).__name__}"
                with pytest.raises(InvalidInputError, match=want):
                    instances.InstanceFile(other, data)


# ---------------------------------------------------------------------------
# command line


def gen(tmp_path, kind, name, seed=7, extra=()):
    out = tmp_path / name
    code = run_cli(
        ["gen", "--kind", kind, "--seed", str(seed), "-o", str(out), *extra]
    )
    assert code == 0
    return out


def read_flags(kind, **values):
    """``gen`` flags for ``values``, keeping only the parameters ``kind`` reads."""
    reads = instances.KIND_TABLE[kind].params
    return [x for key, v in values.items() if key in reads for x in (f"-{key}", str(v))]


@pytest.mark.parametrize("kind, extra, flag", [
    ("stabbed_l", ["-n", "3", "-m", "99"], "-m"),
    ("unit_bk", ["-m", "4"], "-m"),
    ("ssr", ["-k", "2"], "-k"),
])
def test_gen_rejects_flags_the_kind_does_not_read(tmp_path, capsys, kind, extra, flag):
    out = tmp_path / "g.json"
    assert run_cli(["gen", "--kind", kind, *extra, "-o", str(out)]) == 3
    assert capsys.readouterr().err == f"error: kind {kind} does not read {flag}\n"
    assert not out.exists()
    # the library call still takes every key: bench and the benchmark pass m and k to all kinds
    params = {"n": 3, "m": 4, "k": 2}
    assert instances.generate(kind, params) == instances.generate(
        kind, {key: params[key] for key in instances.KIND_TABLE[kind].params if key in params})


def test_gen_solve_verify_pipeline(tmp_path):
    for kind in instances.KINDS:
        inst = gen(tmp_path, kind, f"{kind}.json", extra=read_flags(kind, n=5, m=5))
        sol = tmp_path / f"{kind}.sol.json"
        alg = instances.KIND_TABLE[kind].alg
        assert run_cli(["solve", "--alg", alg, "-i", str(inst), "-o", str(sol)]) == 0
        payload = json.loads(sol.read_text())
        assert payload["kind"] == kind
        assert payload["size"] == len(payload["selected"])
        assert run_cli(["verify", "-i", str(inst), "-s", str(sol)]) == 0


def test_solve_certify_embeds_certificate(tmp_path):
    inst = gen(tmp_path, "ssr", "c.json", extra=["-n", "5", "-m", "5"])
    sol = tmp_path / "c.sol.json"
    assert run_cli(
        ["solve", "--alg", "ssr", "-i", str(inst), "-o", str(sol), "--certify"]
    ) == 0
    cert = json.loads(sol.read_text())["certificate"]
    assert cert["bound"] == "2"
    assert "exact_opt" in cert
    assert F(json.loads(sol.read_text())["size"]) <= 2 * F(cert["lp_opt"])
    # a tiny oracle cap silently drops only the exact field
    sol2 = tmp_path / "c2.sol.json"
    assert run_cli(
        ["solve", "--alg", "ssr", "-i", str(inst), "-o", str(sol2),
         "--certify", "--cap", "2"]
    ) == 0
    cert2 = json.loads(sol2.read_text())["certificate"]
    assert "exact_opt" not in cert2
    assert cert2["lp_opt"] == cert["lp_opt"]


def test_solve_trace_file(tmp_path):
    inst = gen(tmp_path, "ssr", "t.json", extra=["-n", "6", "-m", "6"])
    sol = tmp_path / "t.sol.json"
    tr = tmp_path / "t.trace.json"
    assert run_cli(
        ["solve", "--alg", "ssr", "-i", str(inst), "-o", str(sol),
         "--trace", str(tr)]
    ) == 0
    trace = json.loads(tr.read_text())
    assert set(trace) == {"iterations", "events", "final_tokens", "selected"}
    assert trace["selected"] == json.loads(sol.read_text())["selected"]
    psd_inst = gen(tmp_path, "ortho_psd", "t2.json", extra=["-n", "4", "-m", "4"])
    assert run_cli(
        ["solve", "--alg", "psd", "-i", str(psd_inst), "-o", str(sol),
         "--trace", str(tr)]
    ) == 3


def test_solve_wrong_algorithm(tmp_path):
    inst = gen(tmp_path, "ssr", "w.json")
    out = tmp_path / "w.sol.json"
    assert run_cli(["solve", "--alg", "srs", "-i", str(inst), "-o", str(out)]) == 3


def test_exact_stdout_and_cap(tmp_path, capsys):
    inst = gen(tmp_path, "ssr", "e.json", extra=["-n", "4", "-m", "4"])
    capsys.readouterr()  # drop the gen chatter
    assert run_cli(["exact", "-i", str(inst)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "ssr"
    assert payload["size"] == len(payload["selected"])
    assert run_cli(["exact", "-i", str(inst), "--cap", "2"]) == 4
    # the graph kinds keep their own cap message
    for kind in ("stabbed_l", "unit_bk"):
        inst = gen(tmp_path, kind, f"{kind}.json", extra=read_flags(kind, n=6, k=1))
        capsys.readouterr()
        assert run_cli(["exact", "-i", str(inst), "--cap", "5"]) == 4
        assert capsys.readouterr().err == "error: graph has 6 vertices, cap is 5\n"
        assert run_cli(["exact", "-i", str(inst), "--cap", "6"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == kind and payload["size"] == len(payload["selected"]) >= 1


def test_negative_oracle_cap_is_invalid_input(tmp_path, capsys):
    inst = gen(tmp_path, "ssr", "neg.json", extra=["-n", "3", "-m", "3"])
    sol = tmp_path / "neg.sol.json"
    solve = ["solve", "--alg", "ssr", "-i", str(inst), "-o", str(sol), "--certify"]
    capsys.readouterr()
    assert run_cli(["exact", "-i", str(inst), "--cap", "-1"]) == 3
    assert capsys.readouterr().err == "error: cap must be nonnegative, got -1\n"
    assert run_cli([*solve, "--cap", "-1"]) == 3
    assert capsys.readouterr().err == "error: cap must be nonnegative, got -1\n"
    assert not sol.exists()
    # 0 is a valid cap
    assert run_cli(["exact", "-i", str(inst), "--cap", "0"]) == 4
    assert capsys.readouterr().err == "error: 3 candidates, cap is 0\n"
    assert run_cli([*solve, "--cap", "0"]) == 0
    assert "exact_opt" not in json.loads(sol.read_text())["certificate"]


@pytest.mark.parametrize("cap", ["-1", "0", "10"])
def test_solve_cap_without_certify_is_invalid_input(tmp_path, capsys, cap):
    inst = gen(tmp_path, "ssr", "cap.json", extra=["-n", "3", "-m", "3"])
    sol = tmp_path / "cap.sol.json"
    capsys.readouterr()
    assert run_cli(["solve", "--alg", "ssr", "-i", str(inst), "-o", str(sol), "--cap", cap]) == 3
    assert capsys.readouterr().err == "error: --cap only applies with --certify\n"
    assert not sol.exists()


def test_verify_rejects_undersized_solution(tmp_path, capsys):
    inst = gen(tmp_path, "ssr", "v.json", extra=["-n", "5", "-m", "5"])
    sol = tmp_path / "v.sol.json"
    assert run_cli(["exact", "-i", str(inst), "-o", str(sol)]) == 0
    payload = json.loads(sol.read_text())
    assert run_cli(["verify", "-i", str(inst), "-s", str(sol)]) == 0
    payload["selected"] = payload["selected"][1:]
    sol.write_text(json.dumps(payload))
    assert run_cli(["verify", "-i", str(inst), "-s", str(sol)]) == 2
    assert "FAIL" in capsys.readouterr().err
    sol.write_text(json.dumps({"selected": ["zero"]}))
    assert run_cli(["verify", "-i", str(inst), "-s", str(sol)]) == 3


def _with_unmet_constraint(f):
    """``f`` plus one constraint, far from everything, that nothing meets."""
    data, far = f.data, F(10**6)
    if f.kind == "ssr":
        data = SsrInstance(data.rays, data.segments + (VSeg(len(data.segments), far, F(0), F(1)),))
    elif f.kind == "srs":
        data = SrsInstance(data.rays + (HRay(len(data.rays), far, F(0)),), data.segments)
    else:
        new = HSeg(1 + max(s.id for s in segments_of(data)), far, F(0), F(1))
        data = OrthoInstance(data.hsegs + (new,), data.vsegs, data.constraint_ids | {new.id},
                             data.candidate_ids)
    return instances.InstanceFile(f.kind, data)


def test_verify_problems_match_old_all_pairs_function():
    """Every kind, with the solver's selection, one pick dropped, and an id
    the instance does not have added; every other stabbing instance has a
    constraint nothing meets."""
    rng = random.Random(2024)
    failing = 0
    for i in range(250):
        kind = instances.KINDS[i % len(instances.KINDS)]
        f = instances.generate(kind, {"n": rng.randint(1, 12), "m": rng.randint(1, 12), "k": 1},
                               rng.randrange(10**9))
        selected, cert, _ = cli._solve_for(f, want_trace=False)
        picks = sorted(cert.heuristic_ids if cert is not None else selected)
        if i % 2 and kind in ("ssr", "srs", "ortho_psd"):
            f = _with_unmet_constraint(f)
        dropped = set(picks) - {rng.choice(picks)} if picks else set()
        for sel in (set(picks), dropped, set(picks) | {1000 + i}):
            got = cli._verify_problems(f, sel)
            assert got == reference_verify_problems(f, sel)
            failing += bool(got)
    assert failing >= 400


def _certified_one_ray(tmp_path):
    inst = tmp_path / "one.json"
    inst.write_text(json.dumps({
        "kind": "ssr",
        "rays": [{"id": 0, "y": "1", "x_right": "2"}],
        "segments": [{"id": 0, "x": "1", "y_lo": "0", "y_hi": "3"}],
    }))
    sol = tmp_path / "one.sol.json"
    assert run_cli(["solve", "--alg", "ssr", "-i", str(inst), "-o", str(sol), "--certify"]) == 0
    payload = json.loads(sol.read_text())
    assert payload["certificate"] == {"bound": "2", "exact_opt": 1, "lp_opt": "1"}
    return inst, sol, payload


@pytest.mark.parametrize("where, key, value, line", [
    ("certificate", "lp_opt", "1000", "certificate: heuristic smaller than the LP lower bound"),
    ("certificate", "bound", "1/2", "certificate: claimed ratio bound violated"),
    ("certificate", "exact_opt", 7, "certificate: exact optimum outside [lp_opt, heuristic_size]"),
    (None, "size", 9, "size 9 is not the number of selected ids (1)"),
])
def test_verify_rejects_tampered_certificate(tmp_path, capsys, where, key, value, line):
    inst, sol, payload = _certified_one_ray(tmp_path)
    capsys.readouterr()
    assert run_cli(["verify", "-i", str(inst), "-s", str(sol)]) == 0
    assert capsys.readouterr().out == "solution verified\n"
    (payload[where] if where else payload)[key] = value
    sol.write_text(json.dumps(payload))
    assert run_cli(["verify", "-i", str(inst), "-s", str(sol)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"FAIL: {line}"]


@pytest.mark.parametrize("edit", [
    lambda p: p["certificate"].update(lp_opt="x"),
    lambda p: p["certificate"].update(bound=2.0),
    lambda p: p["certificate"].update(exact_opt="7"),
    lambda p: p["certificate"].pop("lp_opt"),
    lambda p: p.pop("size"),
    lambda p: p.update(certificate=["1"]),
], ids=["bad-rational", "float-bound", "string-exact", "no-lp-opt", "no-size", "not-object"])
def test_verify_rejects_malformed_certificate(tmp_path, capsys, edit):
    inst, sol, payload = _certified_one_ray(tmp_path)
    edit(payload)
    sol.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run_cli(["verify", "-i", str(inst), "-s", str(sol)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


def test_missing_or_list_solution_file_is_invalid_input(tmp_path, capsys):
    inst = gen(tmp_path, "ssr", "m.json", extra=["-n", "3", "-m", "3"])
    sol = tmp_path / "m.sol.json"
    capsys.readouterr()
    assert run_cli(["verify", "-i", str(inst), "-s", str(sol)]) == 3
    assert capsys.readouterr().err.startswith(f"error: cannot read {sol}: ")
    sol.write_text(json.dumps([0, 1]))
    assert run_cli(["verify", "-i", str(inst), "-s", str(sol)]) == 3
    assert capsys.readouterr().err.splitlines() == ["error: solution file needs a 'selected' list"]


def _uncertified_ssr(tmp_path):
    inst = gen(tmp_path, "ssr", "u.json", seed=1, extra=["-n", "4", "-m", "4"])
    sol = tmp_path / "u.sol.json"
    assert run_cli(["solve", "--alg", "ssr", "-i", str(inst), "-o", str(sol)]) == 0
    payload = json.loads(sol.read_text())
    assert "certificate" not in payload
    return inst, sol, payload


def test_verify_checks_size_without_certificate(tmp_path, capsys):
    inst, sol, payload = _uncertified_ssr(tmp_path)
    picked = len(payload["selected"])
    payload["size"] = 9
    sol.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run_cli(["verify", "-i", str(inst), "-s", str(sol)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"FAIL: size 9 is not the number of selected ids ({picked})"
    ]
    del payload["size"]  # size is optional without a certificate block
    sol.write_text(json.dumps(payload))
    assert run_cli(["verify", "-i", str(inst), "-s", str(sol)]) == 0


def test_verify_rejects_non_integer_size_without_certificate(tmp_path, capsys):
    inst, sol, payload = _uncertified_ssr(tmp_path)
    payload["size"] = str(payload["size"])
    sol.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run_cli(["verify", "-i", str(inst), "-s", str(sol)]) == 3
    assert capsys.readouterr().err.splitlines() == ["error: field 'size' must be an integer"]


@pytest.mark.parametrize("certified", [False, True], ids=["plain", "certified"])
def test_verify_rejects_repeated_selected_id(tmp_path, capsys, certified):
    inst, sol, payload = (_certified_one_ray if certified else _uncertified_ssr)(tmp_path)
    first = payload["selected"][0]
    payload["selected"] = [first] + payload["selected"]
    payload["size"] = len(payload["selected"])
    sol.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run_cli(["verify", "-i", str(inst), "-s", str(sol)]) == 3
    assert capsys.readouterr().err.splitlines() == ["error: 'selected' repeats an id"]


@pytest.mark.parametrize("raw", [
    b'{"selected": [1\xff]}',
    b'{"selected": [1' + b"0" * 5000 + b"]}",
    b"[" * 100_000,
], ids=["not-utf8", "huge-int", "deep-nesting"])
def test_undecodable_solution_file_is_invalid_input(tmp_path, capsys, raw):
    inst = gen(tmp_path, "ssr", "u.json", extra=["-n", "3", "-m", "3"])
    sol = tmp_path / "u.sol.json"
    sol.write_bytes(raw)
    capsys.readouterr()
    assert run_cli(["verify", "-i", str(inst), "-s", str(sol)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


def test_infeasible_instance_exits_two(tmp_path):
    bad = {
        "kind": "ssr",
        "rays": [{"id": 0, "y": "1", "x_right": "2"}],
        "segments": [{"id": 0, "x": "5", "y_lo": "0", "y_hi": "3"}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    out = tmp_path / "bad.sol.json"
    assert run_cli(["solve", "--alg", "ssr", "-i", str(path), "-o", str(out)]) == 2
    assert run_cli(["exact", "-i", str(path)]) == 2


def test_usage_and_io_errors(tmp_path):
    assert run_cli(["--help"]) == 0
    assert run_cli(["solve", "--no-such-flag"]) == 3
    assert run_cli(["gen", "--kind", "ssr", "-n", "0", "-o", str(tmp_path / "x")]) == 3
    out = tmp_path / "nope.sol.json"
    assert run_cli(
        ["solve", "--alg", "ssr", "-i", str(tmp_path / "absent.json"), "-o", str(out)]
    ) == 3


def test_generation_exhaustion_maps_to_input_error(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise GenerationExhaustedError("out of room")

    monkeypatch.setattr(instances, "generate", boom)
    code = run_cli(["gen", "--kind", "ssr", "-o", str(tmp_path / "g.json")])
    assert code == 3


def test_bench_csv(tmp_path):
    out1 = tmp_path / "b1.csv"
    out2 = tmp_path / "b2.csv"
    args = ["bench", "--kind", "ssr", "--max", "4", "--trials", "2",
            "--seed", "3"]
    assert run_cli(args + ["-o", str(out1)]) == 0
    assert run_cli(args + ["-o", str(out2)]) == 0
    rows1 = list(csv.reader(out1.open()))
    rows2 = list(csv.reader(out2.open()))
    header = rows1[0]
    assert header == ["kind", "seed", "sizes", "heuristic_size", "lp_opt",
                      "exact_opt", "ratio", "bound", "wall_time_ms"]
    assert len(rows1) == 1 + 3 * 2
    # identical apart from wall time
    assert [r[:-1] for r in rows1] == [r[:-1] for r in rows2]
    keys = [(r[1], r[2]) for r in rows1[1:]]
    assert keys == sorted(keys)
    for r in rows1[1:]:
        assert r[0] == "ssr"
        if r[6]:
            assert F(r[6]) <= F(r[7])
        assert F(r[3]) <= F(r[7]) * F(r[4])
    assert run_cli(["bench", "--kind", "ssr", "--max", "1", "--trials", "1",
                    "-o", str(out1)]) == 3


def test_bench_and_certify_reject_an_optimum_outside_the_certificate(tmp_path, capsys, monkeypatch):
    """An oracle optimum above the heuristic size fails validation in both
    ``bench`` and ``solve --certify``, and neither writes its output."""
    inst = gen(tmp_path, "stabbed_l", "l.json", extra=["-n", "3"])
    monkeypatch.setattr(cli, "_exact_opt", lambda f, cap: 10**6)
    line = "error: exact optimum outside [lp_opt, heuristic_size]"
    capsys.readouterr()
    out = tmp_path / "b.csv"
    assert run_cli(["bench", "--kind", "stabbed_l", "--max", "3", "--trials", "1", "-o", str(out)]) == 3
    assert capsys.readouterr().err.splitlines() == [line]
    assert not out.exists()
    sol = tmp_path / "l.sol.json"
    assert run_cli(["solve", "--alg", "stabbed-l", "-i", str(inst), "-o", str(sol), "--certify"]) == 3
    assert capsys.readouterr().err.splitlines() == [line]
    assert not sol.exists()


@pytest.mark.parametrize("kind, sizes", [
    ("ssr", "n=2;m=2"), ("srs", "n=2;m=2"), ("stabbed_l", "n=2"),
    ("ortho_psd", "n=2;m=2"), ("unit_bk", "n=2;k=1"),
])
def test_bench_sizes_column_names_what_the_kind_reads(tmp_path, kind, sizes):
    out = tmp_path / "b.csv"
    assert run_cli(["bench", "--kind", kind, "--max", "2", "--trials", "1", "-o", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert [(r["kind"], r["sizes"]) for r in rows] == [(kind, sizes)]


@pytest.mark.parametrize("kind", instances.KINDS)
def test_bench_reads_k_only_where_gen_does(tmp_path, capsys, kind):
    out = tmp_path / "b.csv"
    code = run_cli(["bench", "--kind", kind, "--max", "2", "--trials", "1", "-k", "5", "-o", str(out)])
    if "k" in instances.KIND_TABLE[kind].params:
        assert code == 0 and [r["sizes"] for r in csv.DictReader(out.open())] == ["n=2;k=5"]
    else:
        assert code == 3 and capsys.readouterr().err == f"error: kind {kind} does not read -k\n"
        assert not out.exists()


def test_render_svg(tmp_path):
    for kind in instances.KINDS:
        inst = gen(tmp_path, kind, f"r-{kind}.json", extra=read_flags(kind, n=4, m=4))
        pic = tmp_path / f"{kind}.svg"
        assert run_cli(["render", "-i", str(inst), "-o", str(pic)]) == 0
        body = pic.read_text()
        assert body.startswith("<svg")
        assert "polyline" in body or "line" in body
    inst = gen(tmp_path, "ssr", "r2.json", extra=["-n", "4", "-m", "4"])
    sol = tmp_path / "r2.sol.json"
    assert run_cli(["solve", "--alg", "ssr", "-i", str(inst), "-o", str(sol)]) == 0
    pic = tmp_path / "r2.svg"
    assert run_cli(["render", "-i", str(inst), "-s", str(sol), "-o", str(pic)]) == 0
    assert "#d62728" in pic.read_text()  # highlight stroke for chosen items


def test_render_of_an_empty_instance_is_a_placeholder(tmp_path):
    inst = tmp_path / "empty.json"
    inst.write_text(instances.dumps(instances.InstanceFile("ssr", SsrInstance((), ()))))
    pic = tmp_path / "empty.svg"
    assert run_cli(["render", "-i", str(inst), "-o", str(pic)]) == 0
    assert pic.read_text() == '<svg xmlns="http://www.w3.org/2000/svg" width="64" height="64"/>\n'



@pytest.mark.parametrize("coords", [
    {"x_right": "1" + "0" * 400},                    # no float holds it
    {"x_right": "1" + "0" * 308, "x": "-1" + "0" * 308},  # floats, but the extent is not
], ids=["coordinate", "extent"])
def test_render_rejects_coordinates_beyond_floats(tmp_path, capsys, coords):
    payload = json.loads(instances.dumps(instances.generate("ssr", {"n": 2, "m": 2}, seed=1)))
    payload["rays"][0]["x_right"] = coords["x_right"]
    payload["segments"][0]["x"] = coords.get("x", payload["segments"][0]["x"])
    inst = tmp_path / "big.json"
    inst.write_text(json.dumps(payload))
    sol = tmp_path / "big.sol.json"
    assert run_cli(["solve", "--alg", "ssr", "--certify", "-i", str(inst), "-o", str(sol)]) == 0
    capsys.readouterr()
    assert run_cli(["render", "-i", str(inst), "-s", str(sol), "-o", str(tmp_path / "b.svg")]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: coordinates are too large to draw with floats"
    ]
    assert not (tmp_path / "b.svg").exists()


def test_verify_and_render_reject_a_solution_of_another_kind(tmp_path, capsys):
    ssr_inst = gen(tmp_path, "ssr", "k.ssr.json", seed=3, extra=["-n", "6", "-m", "6"])
    srs_inst = gen(tmp_path, "srs", "k.srs.json", seed=3, extra=["-n", "6", "-m", "6"])
    sol = tmp_path / "k.sol.json"
    assert run_cli(["solve", "--alg", "srs", "--certify", "-i", str(srs_inst), "-o", str(sol)]) == 0
    capsys.readouterr()
    assert run_cli(["verify", "-i", str(ssr_inst), "-s", str(sol)]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: solution is for kind 'srs', not 'ssr'"
    ]
    assert run_cli(["verify", "-i", str(srs_inst), "-s", str(sol)]) == 0
    # render reads the same file the same way
    pic = tmp_path / "k.svg"
    assert run_cli(["render", "-i", str(ssr_inst), "-s", str(sol), "-o", str(pic)]) == 3
    assert not pic.exists()
    # without a kind the ids are read against the instance, as before
    payload = json.loads(sol.read_text())
    del payload["kind"]
    sol.write_text(json.dumps(payload))
    assert run_cli(["verify", "-i", str(srs_inst), "-s", str(sol)]) == 0
    assert run_cli(["verify", "-i", str(ssr_inst), "-s", str(sol)]) == 2
    assert run_cli(["render", "-i", str(ssr_inst), "-s", str(sol), "-o", str(pic)]) == 0


# ---------------------------------------------------------------------------
# the installed entry points, run as separate processes


def run_module(*argv):
    src = str(Path(geodom.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", *argv], capture_output=True, text=True, env=env, timeout=120
    )


@pytest.mark.parametrize("module", ["geodom", "geodom.cli"])
def test_module_help_prints_usage(module):
    proc = run_module(module, "--help")
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: geodom")
    assert "solve" in proc.stdout


@pytest.mark.parametrize("module", ["geodom", "geodom.cli"])
def test_module_solve_matches_run_cli(tmp_path, module):
    for kind in ("ssr", "srs"):
        inst = gen(tmp_path, kind, f"{kind}.json", extra=["-n", "6", "-m", "6"])
        via_api = tmp_path / f"{kind}.api.json"
        via_proc = tmp_path / f"{kind}.proc.json"
        assert run_cli(["solve", "--alg", kind, "-i", str(inst), "-o", str(via_api)]) == 0
        proc = run_module(module, "solve", "--alg", kind, "-i", str(inst), "-o", str(via_proc))
        assert proc.returncode == 0, proc.stderr
        assert via_proc.read_bytes() == via_api.read_bytes()


def test_module_exit_codes():
    assert run_module("geodom", "solve", "--no-such-flag").returncode == 3
