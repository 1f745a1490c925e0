from __future__ import annotations

import dataclasses
import importlib.util
import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from stacklab import cli
from stacklab.cli import (
    EXIT_EXHAUSTED,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_VALIDATION,
    main,
)
from stacklab.config import KNOWN_OPS, ConfigError, config_hash, load_config, parse_rational

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

TINY_DOC = json.loads((FIXTURES / "entropy_tiny.json").read_text())


def test_parse_rational():
    assert parse_rational("3/2", "x") == Fraction(3, 2)
    assert parse_rational(2, "x") == 2
    with pytest.raises(ConfigError, match="x"):
        parse_rational("3//2", "x")


def test_load_config_validations():
    with pytest.raises(ConfigError, match="operations"):
        load_config({"seed": 1})
    doc = json.loads(json.dumps(TINY_DOC))
    doc["operations"] = []
    with pytest.raises(ConfigError, match="operations"):
        load_config(doc)
    doc = json.loads(json.dumps(TINY_DOC))
    doc["operations"][0].pop("length")
    with pytest.raises(ConfigError, match="length"):
        load_config(doc)
    doc = json.loads(json.dumps(TINY_DOC))
    doc["stacking"]["spacer_cap"] = 0
    with pytest.raises(ConfigError, match="spacer_cap"):
        load_config(doc)
    doc = json.loads(json.dumps(TINY_DOC))
    doc["operations"][0]["op"] = "unknown"
    with pytest.raises(ConfigError, match="unknown"):
        load_config(doc)


def test_seed_override_changes_hash():
    cfg1 = load_config(TINY_DOC)
    cfg2 = load_config(TINY_DOC, seed_override=99)
    assert cfg1.hash != cfg2.hash
    assert cfg2.seed == 99


def test_describe_lists_heights(capsys):
    code = main(["describe", "--config", str(FIXTURES / "entropy_tiny.json")])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "heights: 2, 5" in out


def test_describe_recipe_flex(capsys, tmp_path):
    doc = {
        "seed": 0,
        "operations": [{"op": "recipe", "name": "flex", "h": 2, "beta": "1", "kappa": "2", "L": 3}],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    code = main(["describe", "--config", str(path)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "q=5" in out


@pytest.mark.parametrize(
    "argv",
    [
        *(["describe", {"kind": "power", "alpha": alpha, "horizon": 8}]
          for alpha in (3.14159, "314159/100000", 0.3333333)),
        ["recipe", "--name", "poly", "--h", "10", "--alpha", "5", "--beta", "0.3333333"],
        ["recipe", "--name", "flex", "--h", "10", "--beta", "0.3333333", "--kappa", "2", "--L", "3"],
        # Cut counts q of more digits than an int may print as.
        ["recipe", "--name", "nlog", "--h", "10", "--alpha", "2", "--beta", "2"],
        ["recipe", "--name", "poly", "--h", "100000", "--alpha", "3", "--beta", "2"],
        ["recipe", "--name", "flex", "--h", "100000", "--beta", "1", "--kappa", "2", "--L", "3"],
        ["run", {"op": "recipe", "name": "nlog", "h": 3, "alpha": 2, "beta": "5/2"}],
    ],
)
def test_large_exponents_hit_the_resource_guard(tmp_path, capsys, argv):
    # Exact roots of n^p with p near 10^6 once ran for minutes.
    path = tmp_path / "cfg.json"
    if argv[0] == "describe":
        path.write_text(json.dumps({"sequence": argv[1], "operations": [{"op": "seq"}]}))
        argv = ["describe", "--config", str(path)]
    elif argv[0] == "run":
        path.write_text(json.dumps({"operations": [argv[1]]}))
        argv = ["run", "--config", str(path), "--out", str(tmp_path / "o")]
    start = time.perf_counter()
    assert main(argv) == EXIT_RESOURCE
    assert time.perf_counter() - start < 1.0
    assert "resource guard: exponent" in capsys.readouterr().err


def _load_probe_doc() -> dict:
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", FIXTURES.parent / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.probe_doc()


def _probe_tower_entropy(**op) -> dict:
    """The 79-bit perfbench probe tower with one exact entropy op."""
    return {**_load_probe_doc(), "operations": [{"op": "entropy", "length": 8, **op}]}


_TINY_OP = TINY_DOC["operations"][0]
_GENERIC_OP = {"op": "generic", "length": 2, "floor_length": 0, "q": 10**12,
               "alphabet": 2, "trial_cap": 1}
_HUGE_H = str(10**400)
# Each probe once hung, exhausted memory or ended in a traceback.
_PROBES = {
    "power-root-order": (["describe", {"sequence": {"kind": "power", "alpha": "1e-400",
                                                    "horizon": 8}, "operations": [{"op": "seq"}]}],
                         EXIT_VALIDATION, "strictly increasing"),
    "flex-root-order": (["recipe", "--name", "flex", "--h", "3", "--beta", "1e-400",
                         "--kappa", "2", "--L", "3"], EXIT_OK, ""),
    "flex-kappa-float": (["recipe", "--name", "flex", "--h", "3", "--beta", "1",
                          "--kappa", "1e400", "--L", "3"], EXIT_RESOURCE, "kappa"),
    "flex-float-power": (["recipe", "--name", "flex", "--h", "5", "--beta", "3/2",
                          "--kappa", "1e100", "--L", "3"], EXIT_RESOURCE, "q = "),
    "flex-h-float": (["recipe", "--name", "flex", "--h", _HUGE_H, "--beta", "1/1000",
                      "--kappa", "2", "--L", "3"], EXIT_RESOURCE, "h is too large"),
    "flex-q-above-2^53": (["recipe", "--name", "flex", "--h", "5", "--beta", "3/2",
                           "--kappa", "30", "--L", "3"], EXIT_RESOURCE, "reaches 2^53"),
    "nlog-h30": (["recipe", "--name", "nlog", "--h", "30", "--alpha", "1", "--beta", "2"],
                 EXIT_RESOURCE, "the cut count q = 2^N0"),
    "nlog-h10": (["recipe", "--name", "nlog", "--h", "10", "--alpha", "2", "--beta", "2"],
                 EXIT_RESOURCE, "the cut count q = 2^N0"),
    "nlog-h-400-digits": (["recipe", "--name", "nlog", "--h", _HUGE_H, "--alpha", "1",
                           "--beta", "2"], EXIT_RESOURCE, "the cut count q = 2^N0"),
    "exact-enumeration": (["run", _probe_tower_entropy(stage=8, reference=8)],
                          EXIT_RESOURCE, "into blocks"),
    "exact-lifted-windows": (["run", _probe_tower_entropy(stage=8, reference=7)],
                             EXIT_RESOURCE, "into blocks"),
    "sampled-draws": (["run", {**TINY_DOC, "operations": [
        {**_TINY_OP, "method": "sampled", "count": 10**12}]}], EXIT_RESOURCE, "into blocks"),
    "markov-period": (["markov", "--period", str(10**8)], EXIT_RESOURCE, "period"),
    "markov-op-period": (["run", {"operations": [{"op": "markov", "period": 1025}]}],
                         EXIT_RESOURCE, "period"),
    "generic-q": (["run", {**TINY_DOC, "operations": [_GENERIC_OP]}],
                  EXIT_RESOURCE, "expansion guard"),
}
_PROBE_SECONDS = 2.0
_PROBE_BYTES = 2 << 30


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (_PROBE_BYTES, _PROBE_BYTES))


@pytest.mark.parametrize("argv, code, message", _PROBES.values(), ids=_PROBES.keys())
def test_probes_exit_with_documented_codes(tmp_path, argv, code, message):
    # In its own process under a wall-clock and address-space limit, so a
    # probe that hangs or allocates without bound fails instead of stalling
    # the suite or exhausting memory.
    if isinstance(argv[1], dict):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(argv[1]))
        argv = [argv[0], "--config", str(path)]
        if argv[0] == "run":
            argv += ["--out", str(tmp_path / "o")]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [
               str(FIXTURES.parent / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "stacklab.cli", *argv], capture_output=True, text=True,
        env=env, timeout=_PROBE_SECONDS, preexec_fn=_limit_address_space,
    )
    assert "Traceback" not in proc.stderr
    assert proc.returncode == code, proc.stderr
    assert message in proc.stderr


def test_run_golden_fixture(tmp_path):
    out = tmp_path / "run"
    code = main(["run", "--config", str(FIXTURES / "entropy_tiny.json"), "--out", str(out)])
    assert code == EXIT_OK
    got = (out / "entropy.csv").read_bytes()
    expected = (FIXTURES / "golden" / "entropy_tiny__entropy.csv").read_bytes()
    assert got == expected
    got = (out / "summary.txt").read_bytes()
    expected = (FIXTURES / "golden" / "entropy_tiny__summary.txt").read_bytes()
    assert got == expected
    meta = json.loads((out / "meta.json").read_text())
    assert meta["config_hash"] == config_hash(json.loads((out / "config.json").read_text()))


def test_run_golden_determinism_fixture(tmp_path):
    out = tmp_path / "run"
    code = main(
        ["run", "--config", str(FIXTURES / "acceptance_determinism.json"), "--out", str(out)]
    )
    assert code == EXIT_OK
    for name in (
        "entropy.csv",
        "entropy_2.csv",
        "generic.csv",
        "markov.csv",
        "seq.csv",
        "summary.txt",
    ):
        got = (out / name).read_bytes()
        expected = (FIXTURES / "golden" / f"acceptance_determinism__{name}").read_bytes()
        assert got == expected, name


def test_run_contains_expected_entropy_row(tmp_path):
    out = tmp_path / "run"
    main(["run", "--config", str(FIXTURES / "entropy_tiny.json"), "--out", str(out)])
    body = (out / "entropy.csv").read_text().splitlines()
    header = body[1].split(",")
    row = body[2].split(",")
    h_per_n = float(row[header.index("H_per_N")])
    assert abs(h_per_n - 0.34657359027997264) < 1e-12


def test_validation_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"seed": 1, "operations": []}))
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
    assert main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == EXIT_VALIDATION


def test_word_cap_exit_code(tmp_path):
    doc = json.loads(json.dumps(TINY_DOC))
    out = tmp_path / "o"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    code = main(["run", "--config", str(path), "--out", str(out), "--cap-words", "1"])
    assert code == EXIT_RESOURCE
    # A cap of 0 is rejected like "caps": {"words": 0}, not ignored.
    code = main(["run", "--config", str(path), "--out", str(out), "--cap-words", "0"])
    assert code == EXIT_VALIDATION


@pytest.mark.parametrize(
    "field, op",
    [
        ("lengths", {"op": "profile", "lengths": [], "cuts": 100}),
        ("lengths", {"op": "profile", "lengths": 3, "cuts": 100}),
        ("lengths", {"op": "profile", "lengths": [1, "2"], "cuts": 100}),
        ("stage", {"op": "entropy", "stage": "2", "length": 2}),
        ("reference", {"op": "entropy", "stage": 2, "reference": "1", "length": 2}),
        ("length", {"op": "entropy", "stage": 2, "length": "2"}),
        ("count", {"op": "entropy", "stage": 2, "length": 2, "method": "sampled", "count": "8"}),
    ],
)
def test_op_field_types_exit_code(tmp_path, capsys, field, op):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(TINY_DOC, operations=[op])))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
    assert f"operations[0].{field}:" in capsys.readouterr().err


_GENERIC = {"op": "generic", "length": 2, "floor_length": 0, "q": 4, "alphabet": 2, "trial_cap": 2}
_BOUNDS = {"op": "bounds", "phi": "log", "cuts": "constant", "horizon": 10}


@pytest.mark.parametrize(
    "field, op",
    [
        *((name, dict(_GENERIC, **{name: "2"})) for name in
          ("length", "floor_length", "q", "alphabet", "trial_cap")),
        ("q", dict(_GENERIC, q=4.0)),
        ("trial_cap", dict(_GENERIC, trial_cap=True)),
        ("horizon", dict(_BOUNDS, horizon="10")),
        ("cuts", dict(_BOUNDS, cuts="cubic")),
        ("cuts", dict(_BOUNDS, cuts=[1])),
        ("cuts", dict(_BOUNDS, cuts=True)),
        ("limit", {"op": "seq", "limit": "4"}),
        ("cuts", {"op": "profile", "lengths": [1], "cuts": True}),
        ("h", {"op": "recipe", "name": "poly", "h": "2", "beta": "1", "alpha": "2"}),
        # Integers below the field's minimum.
        ("alphabet", dict(_GENERIC, alphabet=0)),
        ("alphabet", dict(_GENERIC, alphabet=1)),
        ("period", {"op": "markov", "period": 1}),
        # Fields that a cut schedule or a growth gauge reads.
        ("alpha", dict(_BOUNDS, cuts="power", beta=1)),
        ("beta", dict(_BOUNDS, cuts="power", alpha=2)),
        ("alpha", {"op": "profile", "lengths": [1], "cuts": "power", "beta": 1}),
        ("c", dict(_BOUNDS, c="x")),
        ("c", dict(_BOUNDS, c=0)),
        ("beta", dict(_BOUNDS, phi="power")),
        ("beta", dict(_BOUNDS, phi="exp_power")),
        ("beta", dict(_BOUNDS, phi="power", beta="x")),
        ("phi", dict(_BOUNDS, phi="cubic")),
        ("lam", {"op": "profile", "lengths": [1], "rule": "lambda", "lam": "x"}),
    ],
)
def test_op_schema_field_types_exit_code(tmp_path, capsys, field, op):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(TINY_DOC, operations=[op])))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"operations[0].{field}:" in err and "Traceback" not in err


def test_json_booleans_are_not_integers(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    for doc, field in ((dict(TINY_DOC, seed=True), "seed:"),
                       (dict(TINY_DOC, caps={"words": True}), "caps.words:")):
        path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
        assert field in capsys.readouterr().err
    # A real boolean field still takes a boolean.
    op = dict(_GENERIC, floor_length=2, evaluate_all=True)
    path.write_text(json.dumps(dict(TINY_DOC, operations=[op])))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_OK


_SEEDED_STAGE = {"q": 3, "seed": 9, "distribution": "uniform"}
_POWER = {"kind": "power", "alpha": "3/2", "horizon": 4}


@pytest.mark.parametrize(
    "change, message",
    [
        # JSON booleans where the documents want integers.
        ({"stacking": dict(TINY_DOC["stacking"], initial_height=True)}, "initial_height"),
        ({"stacking": dict(TINY_DOC["stacking"], spacer_cap=True)}, "spacer_cap"),
        ({"stacking": dict(TINY_DOC["stacking"], stages=[{"q": 2, "spacers": [True]}])},
         "stacking: stage 1: spacer 1"),
        ({"stacking": dict(TINY_DOC["stacking"], stages=[dict(_SEEDED_STAGE, seed=True)])},
         "stacking: stage 1: seed"),
        ({"sequence": {"kind": "explicit", "values": [True, 2]}}, "sequence: explicit"),
        # Values of the wrong type.
        ({"stacking": [1]}, "stacking:"),
        ({"stacking": dict(TINY_DOC["stacking"], stages={})}, "stacking: stages:"),
        ({"stacking": dict(TINY_DOC["stacking"], stages=[2])}, "stacking: stage 1:"),
        ({"stacking": dict(TINY_DOC["stacking"], stages=[{"q": 2, "spacers": 1}])},
         "stacking: stage 1: spacers"),
        *(({"stacking": dict(TINY_DOC["stacking"], stages=[dict(_SEEDED_STAGE, seed=seed)])},
           "stacking: stage 1: seed") for seed in ("x", [1], 2.5)),
        ({"sequence": {"kind": "explicit", "values": 2}}, "sequence: explicit"),
        ({"sequence": {"kind": "explicit", "values": [1, 2.5]}}, "sequence: explicit"),
        ({"caps": 3}, "caps:"),
        ({"sequence": {"kind": "explicit", "values": [1, 2], "n0": "x"}}, "sequence: n0"),
        ({"sequence": dict(_POWER, horizon="x")}, "sequence: horizon"),
        ({"sequence": dict(_POWER, n0=-1)}, "sequence: n0"),
        ({"sequence": {"kind": "nlog", "alpha": 1, "horizon": 4, "n0": 0}}, "sequence: n0"),
    ],
)
def test_malformed_documents_exit_code(tmp_path, capsys, change, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(TINY_DOC, **change)))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
    assert message in capsys.readouterr().err


def test_generic_exhausted_exit_code(tmp_path):
    # Impossible cap: N large, N0 = 0, so counts must be <= a tiny fraction.
    doc = {
        "stacking": {"initial_height": 2, "spacer_cap": 2, "stages": []},
        "sequence": {"kind": "explicit", "values": [1, 2, 3]},
        "seed": 5,
        "operations": [
            {
                "op": "generic",
                "length": 3,
                "floor_length": 0,
                "q": 4,
                "alphabet": 2,
                "trial_cap": 6,
            }
        ],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    code = main(["generic", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == EXIT_EXHAUSTED
    body = (tmp_path / "o" / "generic.csv").read_text().splitlines()
    assert len(body) == 2 + 6  # hash line + header + one row per trial


def test_generic_empty_word_exit_code(tmp_path):
    doc = {
        "stacking": {"initial_height": 2, "spacer_cap": 2, "stages": []},
        "sequence": {"kind": "explicit", "values": [1, 2, 3]},
        "seed": 5,
        "operations": [
            {"op": "generic", "length": 0, "floor_length": 0, "q": 4, "alphabet": 2, "trial_cap": 6}
        ],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["generic", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_VALIDATION


def test_verify_detects_tampering(tmp_path):
    out = tmp_path / "run"
    main(["run", "--config", str(FIXTURES / "entropy_tiny.json"), "--out", str(out)])
    assert main(["verify", "--out", str(out)]) == EXIT_OK
    csv = out / "entropy.csv"
    text = csv.read_text().replace(config_hash(TINY_DOC), "0" * 64)
    csv.write_text(text)
    assert main(["verify", "--out", str(out)]) == EXIT_VALIDATION


def test_verify_detects_edited_data_row(tmp_path, capsys):
    out = tmp_path / "run"
    main(["run", "--config", str(FIXTURES / "entropy_tiny.json"), "--out", str(out)])
    csv = out / "entropy.csv"
    lines = csv.read_text().splitlines()
    lines[2] = lines[2].replace("1", "2", 1)  # first data row; hash line untouched
    csv.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", "--out", str(out)]) == EXIT_VALIDATION
    assert "REJECTED: entropy.csv does not match its digest" in capsys.readouterr().out


def test_verify_rejects_missing_digest_or_output(tmp_path):
    out = tmp_path / "run"
    main(["run", "--config", str(FIXTURES / "entropy_tiny.json"), "--out", str(out)])
    meta_path = out / "meta.json"
    meta = json.loads(meta_path.read_text())
    del meta["sha256"]["summary.txt"]
    meta_path.write_text(json.dumps(meta))
    assert main(["verify", "--out", str(out)]) == EXIT_VALIDATION
    out2 = tmp_path / "run2"
    main(["run", "--config", str(FIXTURES / "entropy_tiny.json"), "--out", str(out2)])
    (out2 / "entropy.csv").unlink()
    assert main(["verify", "--out", str(out2)]) == EXIT_VALIDATION


@pytest.mark.parametrize(
    "field, value",
    [
        ("outputs", ["../other/x.csv"]),
        ("outputs", ["sub/x.csv"]),
        ("outputs", [".."]),
        ("outputs", [7]),
        ("outputs", "entropy.csv"),
        ("sha256", 5),
        ("sha256", None),
    ],
)
def test_verify_rejects_malformed_meta(tmp_path, field, value):
    out = tmp_path / "run"
    main(["run", "--config", str(FIXTURES / "entropy_tiny.json"), "--out", str(out)])
    meta_path = out / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta[field] = value
    meta_path.write_text(json.dumps(meta))
    assert main(["verify", "--out", str(out)]) == EXIT_VALIDATION


@pytest.mark.parametrize("name", ["meta.json", "config.json"])
def test_verify_rejects_invalid_json(tmp_path, capsys, name):
    out = tmp_path / "run"
    main(["run", "--config", str(FIXTURES / "entropy_tiny.json"), "--out", str(out)])
    (out / name).write_text("{not json")
    capsys.readouterr()
    assert main(["verify", "--out", str(out)]) == EXIT_VALIDATION
    assert f"REJECTED: {name} is not valid JSON" in capsys.readouterr().out


def test_describe_and_run_agree_on_an_empty_word(tmp_path, capsys):
    doc = json.loads(json.dumps(TINY_DOC))
    doc["operations"][0]["length"] = 0
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["describe", "--config", str(path)]) == EXIT_OK
    # Heights 2, 5: K is levels 0, 1, 3, 4 at t_N = 0, and h_1 = 2 > 0.
    assert "|K|=4 coverage=0.800000000000 alphabet=3 path=compressed" in capsys.readouterr().out
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_OK
    assert json.loads((out / "meta.json").read_text())["paths"] == {"entropy.csv": ["compressed"]}


def test_describe_names_the_decoder(tmp_path, capsys):
    assert main(["describe", "--config", str(FIXTURES / "acceptance_determinism.json")]) == EXIT_OK
    lines = [line for line in capsys.readouterr().out.splitlines() if "path=" in line]
    assert len(lines) == 2 and all(line.endswith(" decoder=int64") for line in lines)
    # h_1 = 2 and 7 stages of q = 2048: tower 6 has 2^56 levels, tower 8 2^78.
    stacking = {"initial_height": 2, "spacer_cap": 2,
                "stages": [{"q": 2048, "spacers": [0] * 2047}] * 7}
    op = {"op": "entropy", "stage": 8, "reference": 1, "length": 2}
    doc = dict(TINY_DOC, stacking=stacking, operations=[
        op, dict(op, method="sampled", count=64), dict(op, stage=6)])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["describe", "--config", str(path)]) == EXIT_OK
    decoders = [line.split()[-1] for line in capsys.readouterr().out.splitlines() if "path=" in line]
    assert decoders == ["decoder=bigint", "decoder=bigint", "decoder=int64"]


def test_meta_records_entropy_paths(tmp_path, capsys):
    doc = json.loads(json.dumps(TINY_DOC))
    sampled = dict(doc["operations"][0], method="sampled", count=8)
    doc["operations"] = [doc["operations"][0], sampled, {"op": "markov", "period": 3}]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["describe", "--config", str(path)]) == EXIT_OK
    text = capsys.readouterr().out
    # Heights 2, 5 and t_N = 2: K is levels 0 and 1, both starting in copy 0,
    # so a lift from reference 1 would decode the same 2 windows as
    # enumeration and build a key besides: the exact op enumerates.
    assert "path=enumerate windows=2" in text and "path=sampled windows=8" in text
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_OK
    meta = json.loads((out / "meta.json").read_text())
    assert meta["paths"] == {"entropy.csv": ["enumerate"], "entropy_2.csv": ["sampled"]}
    assert meta["windows"] == {"entropy.csv": [2], "entropy_2.csv": [8]}
    assert "path" not in (out / "summary.txt").read_text()
    assert all("path" not in p.read_text() for p in out.glob("*.csv"))
    # The reference equal to the tower leaves nothing to lift from.
    doc["operations"] = [dict(doc["operations"][0], reference=2)]
    path.write_text(json.dumps(doc))
    assert main(["describe", "--config", str(path)]) == EXIT_OK
    assert "path=enumerate windows=2" in capsys.readouterr().out
    assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_OK
    assert json.loads((out / "meta.json").read_text())["paths"] == {"entropy.csv": ["enumerate"]}


def test_telemetry_leaves_csvs_and_summary_unchanged(tmp_path, monkeypatch):
    config = FIXTURES / "acceptance_determinism.json"
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "with")]) == EXIT_OK
    runners = dict(cli._RUNNERS)
    for kind, run in runners.items():
        monkeypatch.setitem(
            cli._RUNNERS, kind,
            lambda cfg, op, w, run=run: dataclasses.replace(run(cfg, op, w), paths=(), windows=()),
        )
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "without")]) == EXIT_OK
    with_meta = json.loads((tmp_path / "with" / "meta.json").read_text())
    without_meta = json.loads((tmp_path / "without" / "meta.json").read_text())
    assert with_meta["paths"] and with_meta["windows"].keys() == with_meta["paths"].keys()
    assert without_meta["paths"] == without_meta["windows"] == {}
    for name in with_meta["outputs"] + ["summary.txt"]:
        assert (tmp_path / "with" / name).read_bytes() == (tmp_path / "without" / name).read_bytes()
    assert with_meta["sha256"] == without_meta["sha256"]


def test_sampled_entropy_on_tower_above_64_bits(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_load_probe_doc()))
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_OK
    assert main(["verify", "--out", str(out)]) == EXIT_OK


def test_bounds_subcommand(tmp_path):
    doc = {
        "stacking": {"initial_height": 2, "spacer_cap": 2, "stages": [{"q": 2, "spacers": [1]}]},
        "sequence": {"kind": "power", "alpha": "3/2", "horizon": 200},
        "seed": 0,
        "operations": [{"op": "bounds", "phi": "log", "cuts": "constant", "horizon": 100}],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(["bounds", "--config", str(path), "--out", str(out)]) == EXIT_OK
    body = (out / "bounds.csv").read_text().splitlines()
    assert body[1] == "n,c_n,diag_balance,diag_phi,diag_binom,tau"
    assert len(body) == 2 + 99  # n runs 2..100


@pytest.mark.parametrize("phi", ["log", "power", "exp_power"])
@pytest.mark.parametrize("cuts", ["constant", "power", "loglog"])
def test_bounds_op_every_cut_schedule_and_gauge(tmp_path, cuts, phi):
    op = {"op": "bounds", "phi": phi, "cuts": cuts, "horizon": 100, "alpha": "3/2", "beta": "1/2"}
    doc = {"sequence": {"kind": "power", "alpha": "3/2", "horizon": 200}, "operations": [op]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_OK
    body = (out / "bounds.csv").read_text().splitlines()
    assert body[1] == "n,c_n,diag_balance,diag_phi,diag_binom,tau"
    assert len(body) == 2 + 99  # n runs 2..100


@pytest.mark.parametrize(
    "sequence, described",
    [
        ({"kind": "linear", "a": 2, "b": 1, "horizon": 16},
         {"kind": "linear", "n0": 1, "horizon": 16, "a": 2, "b": 1}),
        # C = 1/2 gives term 0 at n = 1, so n0 moves to 2.
        ({"kind": "nlog", "C": "1/2", "alpha": 1, "horizon": 16},
         {"kind": "nlog", "n0": 2, "horizon": 16, "C": 0.5, "alpha": 1.0, "requested_n0": 1}),
    ],
)
def test_describe_and_run_seq_op(capsys, tmp_path, sequence, described):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"sequence": sequence, "operations": [{"op": "seq"}]}))
    assert main(["describe", "--config", str(path)]) == EXIT_OK
    assert f"sequence: {described}\n" in capsys.readouterr().out
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_OK
    summary = (out / "summary.txt").read_text()
    assert f"seq: kind={described['kind']} n0={described['n0']} horizon=16\n" in summary


def test_every_known_op_has_a_runner():
    assert set(cli._RUNNERS) == set(KNOWN_OPS)


def test_seq_subcommands(capsys, tmp_path):
    # no operations needed for pure sequence diagnostics
    doc = {
        "sequence": {"kind": "power", "alpha": "2", "horizon": 16},
        "seed": 0,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["seq", "gaps", "--config", str(path), "--limit", "4"]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "index,value,gap"
    assert out[1] == "1,1,"
    assert out[4] == "4,16,7"
    assert main(["seq", "kvalue", "--config", str(path), "--r", "0", "--n", "5"]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "0,5,1/1,1.000000000000"
    assert main(["seq", "describe", "--config", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "dilating on horizon" in out


def test_markov_subcommand(capsys):
    assert main(["markov", "--period", "3"]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "state,stationary,exact"
    assert out[1].endswith("2/7")
    assert out[4].endswith("1/7")


def test_recipe_subcommand(capsys):
    code = main(
        ["recipe", "--name", "poly", "--h", "4", "--beta", "1", "--alpha", "2"]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "q=32" in out and "N0=5" in out and "N=8" in out


def test_profile_op_via_config(tmp_path):
    doc = {
        "stacking": {"initial_height": 2, "spacer_cap": 2, "stages": [{"q": 2, "spacers": [1]}]},
        "sequence": {"kind": "explicit", "values": [1, 2]},
        "seed": 0,
        "operations": [{"op": "profile", "lengths": [1, 2], "cuts": 100}],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_OK
    body = (out / "profile.csv").read_text().splitlines()
    assert body[1].startswith("N,stage,")
    assert len(body) == 4
    # Both points code tower 2 against reference 1 (h_1 = 2).  At t_N = 1
    # the lift decodes 2 of the |K| = 3 windows; at t_N = 2 it would decode
    # all |K| = 2 and build a key besides, so that point enumerates.
    meta = json.loads((out / "meta.json").read_text())
    assert meta["paths"] == {"profile.csv": ["compressed", "enumerate"]}
    assert meta["windows"]["profile.csv"] == [2, 2]
    # lambda-form selection rule
    doc["operations"] = [{"op": "profile", "lengths": [2], "rule": "lambda", "lam": "5"}]
    path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o2")]) == EXIT_OK


def test_entropy_run_filter(tmp_path):
    out = tmp_path / "o"
    code = main(
        [
            "entropy",
            "run",
            "--config",
            str(FIXTURES / "acceptance_determinism.json"),
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    names = {p.name for p in out.glob("*.csv")}
    assert "entropy.csv" in names and "entropy_2.csv" in names
    assert "generic.csv" not in names


def test_entropy_run_matches_run(tmp_path):
    path = str(FIXTURES / "entropy_tiny.json")
    assert main(["run", "--config", path, "--out", str(tmp_path / "run")]) == EXIT_OK
    assert main(["entropy", "run", "--config", path, "--out", str(tmp_path / "ent")]) == EXIT_OK
    expected = (tmp_path / "run" / "entropy.csv").read_bytes()
    assert (tmp_path / "ent" / "entropy.csv").read_bytes() == expected
    doc = {
        "sequence": {"kind": "power", "alpha": "3/2", "horizon": 200},
        "seed": 0,
        "operations": [{"op": "bounds", "phi": "log", "cuts": "constant", "horizon": 10}],
    }
    bounds_only = tmp_path / "bounds.json"
    bounds_only.write_text(json.dumps(doc))
    code = main(["entropy", "run", "--config", str(bounds_only), "--out", str(tmp_path / "o")])
    assert code == EXIT_VALIDATION


_MISSING = object()
# Each JSON kind, plus values at the edges of the integer fields.  No huge
# values: a large `period` or `q` is a real, long run, not a malformed one.
_MUTATIONS = ("x", [1], {}, 2.5, True, -1, 0, None, _MISSING)


def _json_paths(node, path=()):
    """The path of every key and list element in a JSON document."""
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield path + (key,)
            yield from _json_paths(child, path + (key,))


def _mutated(doc, path, value):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is _MISSING:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def test_config_fuzz_exits_with_documented_codes(tmp_path):
    # Every single-field mutation of the fixture configs ends in a
    # documented exit code, never in an exception out of `main`.
    path, failures = tmp_path / "cfg.json", []
    for name in ("entropy_tiny.json", "acceptance_determinism.json"):
        doc = json.loads((FIXTURES / name).read_text())
        for field in _json_paths(doc):
            for value in _MUTATIONS:
                path.write_text(json.dumps(_mutated(doc, field, value)))
                argv = ["run", "--config", str(path), "--out", str(tmp_path / "o"), "--workers", "1"]
                try:
                    code = main(argv)
                except Exception as e:  # any escape from main is a finding
                    code = f"{type(e).__name__}: {e}"
                if code not in (EXIT_OK, EXIT_VALIDATION, EXIT_RESOURCE, EXIT_EXHAUSTED):
                    failures.append((name, field, "missing" if value is _MISSING else value, code))
    assert not failures, f"{len(failures)} mutations escaped:\n" + "\n".join(map(repr, failures))
