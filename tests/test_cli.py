from __future__ import annotations

import dataclasses
import errno
import importlib.util
import inspect
import json
import os
import pkgutil
import re
import resource
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import stacklab
from stacklab import cli
from stacklab.bounds import BoundsError
from stacklab.cli import (
    EXIT_EXHAUSTED,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_VALIDATION,
    describe,
    fmt,
    main,
)
from stacklab.config import KNOWN_OPS, ConfigError, config_hash, load_config, parse_rational
from stacklab.intarith import InvalidInput, ResourceGuard
from stacklab.sequences import SamplingSequence, dilation_diagnostic, krug_K_estimate
from stacklab.tower import StackingData, exact_plan

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
_ABOVE_STAGE_DOC = {
    **TINY_DOC,
    "stacking": {"initial_height": 2, "spacer_cap": 2,
                 "stages": [{"q": 3, "spacers": [1, 0]}, {"q": 3, "spacers": [1, 1]}]},
    "operations": [dict(_TINY_OP, stage=2, reference=3)],
}


def _nlog_seq_doc(**sequence) -> dict:
    return {"sequence": {"kind": "nlog", "horizon": 10, **sequence}, "operations": [{"op": "seq"}]}


def _gauge_doc(phi: str, beta: str) -> dict:
    op = {"op": "bounds", "phi": phi, "beta": beta, "cuts": 1, "horizon": 20}
    return {"sequence": {"kind": "power", "alpha": "3/2", "horizon": 64}, "operations": [op]}


def _power300_doc(**op) -> dict:
    op = {"op": "bounds", "cuts": 1, "horizon": 1000, **op}
    return {"sequence": {"kind": "power", "alpha": 300, "horizon": 1000}, "operations": [op]}


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
    # q // t_N = 2^2001 // t_N is past the float range.
    "poly-p-fail-float": (["recipe", {"sequence": {"kind": "power", "alpha": "3/2",
                                                   "horizon": 4000}},
                           "--name", "poly", "--h", "2000", "--alpha", "2", "--beta", "1"],
                          EXIT_OK, ""),
    "poly-eps-float": (["recipe", "--name", "poly", "--h", "4", "--alpha", "2", "--beta", "1",
                        "--eps", "1e400"], EXIT_VALIDATION, "eps must lie in (0, 1/3)"),
    "poly-eps-delta-above-1": (["recipe", "--name", "poly", "--h", "4", "--alpha", "2",
                                "--beta", "1", "--eps", "7"],
                               EXIT_VALIDATION, "eps must lie in (0, 1/3)"),
    "flex-eps-float": (["recipe", "--name", "flex", "--h", "3", "--beta", "1", "--kappa", "2",
                        "--L", "3", "--eps", "1e400"], EXIT_VALIDATION, "eps must lie in (0, 1/2)"),
    # kappa's float is 1.0, so the digit check of q passes.
    "flex-h^beta-float": (["recipe", "--name", "flex", "--h", str(10**300), "--beta", "2",
                           "--kappa", "1.00000000000000000001", "--L", "3"],
                          EXIT_RESOURCE, "h^beta"),
    # kappa just above 1 passes the digit check with a small q, while its
    # numerator and denominator raised to h^beta = 10^12 or 10^200 do not fit.
    "flex-power-bits-kappa-20-digits": (["recipe", "--name", "flex", "--h", "1000000", "--beta",
                                         "2", "--kappa", "1.00000000000000000001", "--L", "3"],
                                        EXIT_RESOURCE, "kappa"),
    "flex-power-bits-kappa-12-digits": (["recipe", "--name", "flex", "--h", "1000000", "--beta",
                                         "2", "--kappa", "1.000000000001", "--L", "3"],
                                        EXIT_RESOURCE, "kappa"),
    "flex-power-bits-h-10^100": (["recipe", "--name", "flex", "--h", str(10**100), "--beta", "2",
                                  "--kappa", "1.00000000000000000001", "--L", "3"],
                                 EXIT_RESOURCE, "kappa"),
    "sequence-horizon": (["describe", {"sequence": {"kind": "linear", "a": 1,
                                                    "horizon": 3000000000},
                                       "operations": [{"op": "seq"}]}],
                         EXIT_RESOURCE, "horizon"),
    "nlog-alpha-float": (["describe", _nlog_seq_doc(alpha="1e400")],
                         EXIT_RESOURCE, "sequence.alpha is too large for a float"),
    "nlog-C-float": (["describe", _nlog_seq_doc(C="1e400", alpha=1)],
                     EXIT_RESOURCE, "sequence.C is too large for a float"),
    # C * n leaves the float range at n = 2, log(n)^1000 at n = 8.
    "nlog-term-C-float": (["describe", _nlog_seq_doc(C="1e308", alpha=1)],
                          EXIT_RESOURCE, "nlog term at index 2 is too large for a float"),
    "nlog-term-alpha-float": (["describe", _nlog_seq_doc(C=1, alpha="1000")],
                              EXIT_RESOURCE, "nlog term at index 8 is too large for a float"),
    # n^1000 leaves the float range from n = 3 on; the gauge reads inf there.
    "power-gauge-inf": (["run", _gauge_doc("power", "1000")], EXIT_OK, ""),
    "power-gauge-beta-float": (["run", _gauge_doc("power", "1e400")],
                               EXIT_RESOURCE, "beta is too large for a float"),
    "exp-power-gauge-beta-float": (["run", _gauge_doc("exp_power", "1e400")],
                                   EXIT_RESOURCE, "beta is too large for a float"),
    "workers-zero": (["run", TINY_DOC, "--workers", "0"], EXIT_VALIDATION,
                     "argument --workers: must be at least 1, got 0"),
    # h_r^N reaches 5^500 ~ 1e349: the bound's terms read 0 there, the worst ratio inf.
    "generic-float-power": (["run", {**TINY_DOC, "sequence": {"kind": "linear", "a": 1,
                                                              "horizon": 1000},
                                     "operations": [dict(_GENERIC_OP, length=500, q=200)]}],
                            EXIT_EXHAUSTED, "search exhausted"),
    # t_n = n^300 passes the float range from n = 12 on.
    "bounds-log-quotient-float": (["run", _power300_doc(phi="log")], EXIT_OK, ""),
    "bounds-power-quotient-float": (["run", _power300_doc(phi="power", beta=1)], EXIT_OK, ""),
    # The word caps 2 h_r^(N0 - N) |K| grow past the float range for N0 >> N.
    "generic-floor-above-length": (["run", {**TINY_DOC, "operations": [
        dict(_GENERIC_OP, floor_length=2000, q=3)]}], EXIT_VALIDATION, "floor length 2000"),
    "generic-floor-negative": (["run", {**TINY_DOC, "operations": [
        dict(_GENERIC_OP, floor_length=-1, q=3)]}], EXIT_VALIDATION, "floor length -1"),
    # Heights 2, 7, 23: `describe` plans the op, so it must reject it as `run` does.
    "entropy-reference-above-stage-describe": (["describe", _ABOVE_STAGE_DOC], EXIT_VALIDATION,
                                               "operations[0].reference: must be at most stage 2"),
    "entropy-reference-above-stage-run": (["run", _ABOVE_STAGE_DOC], EXIT_VALIDATION,
                                          "operations[0].reference: must be at most stage 2"),
}
_PROBE_SECONDS = 2.0
_PROBE_BYTES = 2 << 30


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (_PROBE_BYTES, _PROBE_BYTES))


def _cli_env() -> dict:
    """The environment of a `python -m stacklab.cli` child: this checkout's src first."""
    return {**os.environ, "OPENBLAS_NUM_THREADS": "1",
            "PYTHONPATH": os.pathsep.join(filter(None, [
                str(FIXTURES.parent / "src"), os.environ.get("PYTHONPATH")]))}


def _run_probe(tmp_path, argv, code, message, seconds):
    # In its own process under a wall-clock and address-space limit, so a
    # probe that hangs or allocates without bound fails instead of stalling
    # the suite or exhausting memory.
    if isinstance(argv[1], dict):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(argv[1]))
        argv = [argv[0], "--config", str(path), *argv[2:]]
        if argv[0] == "run":
            argv += ["--out", str(tmp_path / "o")]
    proc = subprocess.run(
        [sys.executable, "-m", "stacklab.cli", *argv], capture_output=True, text=True,
        env=_cli_env(), timeout=seconds, preexec_fn=_limit_address_space,
    )
    assert "Traceback" not in proc.stderr
    assert proc.returncode == code, proc.stderr
    assert message in proc.stderr
    return proc


@pytest.mark.parametrize("argv, code, message", _PROBES.values(), ids=_PROBES.keys())
def test_probes_exit_with_documented_codes(tmp_path, argv, code, message):
    _run_probe(tmp_path, argv, code, message, _PROBE_SECONDS)


def test_seq_kvalue_past_the_float_range_exits_3(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"sequence": {"kind": "linear", "a": 1, "horizon": 100}}))
    argv = ["seq", "kvalue", "--config", str(path), "--r", _HUGE_H, "--n", "2"]
    _run_probe(tmp_path, argv, EXIT_RESOURCE, "kvalue is too large for a float", _PROBE_SECONDS)


def test_every_error_class_maps_to_an_exit_code():
    # main maps InvalidInput to exit 2 and ResourceGuard to exit 3; an error
    # class under neither base would end in a traceback and exit 1.
    errors = [
        cls
        for info in pkgutil.walk_packages(stacklab.__path__, "stacklab.")
        for _, cls in inspect.getmembers(importlib.import_module(info.name), inspect.isclass)
        if issubclass(cls, BaseException) and cls.__module__ == info.name
    ]
    assert len(errors) >= 13  # the scan reached every module
    stray = [
        f"{cls.__module__}.{cls.__qualname__}"
        for cls in errors
        if not issubclass(cls, (InvalidInput, ResourceGuard)) and cls is not cli.SearchExhausted
    ]
    assert not stray


def test_key_bytes_probe_exits_with_the_resource_code(tmp_path):
    # The exact point N = 2048 at reference 5 on the 2^32-level squaring
    # tower: 65 536 distinct words of 2048 four-byte symbols, 512 MiB of
    # keys.  The guard trips after block 5 of 21; that took 4.1 s on 2 cores.
    stages = [{"q": q, "spacers": [0] * (q - 1)} for q in (2, 4, 16, 256, 65536)]
    doc = {"stacking": {"initial_height": 2, "spacer_cap": 1, "stages": stages},
           "sequence": {"kind": "power", "alpha": "3/2", "horizon": 2048},
           "operations": [{"op": "entropy", "stage": 6, "reference": 5, "length": 2048}]}
    _run_probe(tmp_path, ["run", doc], EXIT_RESOURCE, "key bytes", 30.0)


def test_kvalue_probe_counts_wide_windows(tmp_path):
    # Windows of 2 * 10^9 + 1 points each, which once all went into one set.
    argv = ["seq", "kvalue", "--config", str(FIXTURES / "entropy_tiny.json"),
            "--r", "1000000000", "--n", "2"]
    proc = _run_probe(tmp_path, argv, EXIT_OK, "", _PROBE_SECONDS)
    assert proc.stdout.splitlines()[1] == "1000000000,2,1000000001/1,1000000001.000000000000"


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
        ("evaluate_all", dict(_GENERIC, evaluate_all="no")),
        ("count", dict(_TINY_OP, method="sampled", count=0)),
    ],
)
def test_op_schema_field_types_exit_code(tmp_path, capsys, field, op):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(TINY_DOC, operations=[op])))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"operations[0].{field}:" in err and "Traceback" not in err
    assert main(["describe", "--config", str(path)]) == EXIT_VALIDATION
    assert f"operations[0].{field}:" in capsys.readouterr().err


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


_PROFILE = {"op": "profile", "lengths": [2]}
_G = {"op": "generic", "length": 2, "floor_length": 1, "q": 4, "alphabet": 2, "trial_cap": 1}
_LOG_BOUNDS = {"op": "bounds", "phi": "log", "cuts": 1}
_LATE_T2 = {"kind": "explicit", "values": [1, 50]}
# Heights 2, 7, 23, 70 and t_N = N^2: the tower a profile point evaluates
# on depends on its N and its cut schedule.
_H70 = {"initial_height": 2, "spacer_cap": 2, "stages": [
    {"q": 3, "spacers": [1, 0]}, {"q": 3, "spacers": [1, 1]}, {"q": 3, "spacers": [0, 1]}]}
_SQUARES = {"kind": "power", "alpha": "2", "horizon": 50}
_H70_DOC = {"stacking": _H70, "sequence": _SQUARES}
# Past sequences.MAX_TERMS: an op may read any one term, but not list them all.
_LONG_LINEAR = {"kind": "linear", "a": 1, "horizon": 3 * 10**9}
# Ops that `run` rejects before any work, as changes to entropy_tiny.json
# (heights 2, 5, spacer cap 2, sequence 1, 2), each with run's exit code;
# `describe` must reject them too.
_REJECTED_OPS = {
    "profile-rule": (EXIT_VALIDATION, {"operations": [dict(_PROFILE, rule="bogus")]}),
    "profile-mode": (EXIT_VALIDATION, {"operations": [dict(_PROFILE, mode="bogus")]}),
    "profile-lambda-without-lam": (EXIT_VALIDATION,
                                   {"operations": [dict(_PROFILE, rule="lambda")]}),
    "profile-cuts-0": (EXIT_VALIDATION, {"operations": [dict(_PROFILE, cuts=0)]}),
    "profile-no-stage-qualifies": (EXIT_VALIDATION,
                                   {"operations": [_PROFILE], "sequence": _LATE_T2}),
    "profile-past-horizon": (EXIT_VALIDATION, {"operations": [dict(_PROFILE, lengths=[9])]}),
    # t_N / (lam N) at N = 0 once ended in a ZeroDivisionError.
    "profile-lambda-N-0": (EXIT_VALIDATION, {
        "operations": [dict(_PROFILE, lengths=[0], rule="lambda", lam=1)],
        "sequence": {"kind": "linear", "a": 1, "b": 1, "n0": 0, "horizon": 4}}),
    # Four cuts keep tau at 1, so N = 3 evaluates on tower 2 at t_N = 9 >= h_2.
    "profile-empty-K": (EXIT_VALIDATION, dict(_H70_DOC, operations=[
        dict(_PROFILE, lengths=[3, 4, 5], cuts=4)])),
    "profile-tau-decreases": (EXIT_VALIDATION, dict(_H70_DOC, operations=[
        dict(_PROFILE, lengths=[4, 2])])),
    "profile-refined-without-cap": (EXIT_VALIDATION, dict(_H70_DOC, stacking={
        k: v for k, v in _H70.items() if k != "spacer_cap"}, operations=[
        dict(_PROFILE, lengths=[2, 3], mode="refined")])),
    "generic-q-1": (EXIT_VALIDATION, {"operations": [dict(_G, q=1)]}),
    "generic-trial-cap-0": (EXIT_VALIDATION, {"operations": [dict(_G, trial_cap=0)]}),
    "generic-length-0": (EXIT_VALIDATION, {"operations": [dict(_G, length=0, floor_length=0)]}),
    "generic-t_N-past-q-h_n": (EXIT_VALIDATION, {
        "operations": [dict(_G, q=2)], "sequence": {"kind": "explicit", "values": [1, 500]}}),
    "generic-alphabet-above-cap": (EXIT_VALIDATION, {"operations": [dict(_G, alphabet=3)]}),
    "bounds-horizon-0": (EXIT_VALIDATION, {"operations": [dict(_LOG_BOUNDS, horizon=0)]}),
    "bounds-horizon-past-sequence": (EXIT_VALIDATION,
                                     {"operations": [dict(_LOG_BOUNDS, horizon=50)]}),
    "bounds-cuts-0": (EXIT_VALIDATION, {"operations": [dict(_LOG_BOUNDS, cuts=0, horizon=2)]}),
    "bounds-beta-0": (EXIT_VALIDATION,
                      {"operations": [dict(_LOG_BOUNDS, phi="power", beta=0, horizon=2)]}),
    "bounds-exponential": (EXIT_VALIDATION, {
        "operations": [dict(_LOG_BOUNDS, horizon=7)],
        "sequence": {"kind": "explicit", "values": [1, 2, 4, 8, 16, 32, 64]}}),
    "entropy-empty-K": (EXIT_VALIDATION, {"operations": [_TINY_OP], "sequence": _LATE_T2}),
    "markov-period-above-bound": (EXIT_RESOURCE,
                                  {"operations": [{"op": "markov", "period": 5000}]}),
    "seq-rows-past-max-terms": (EXIT_RESOURCE,
                                {"operations": [{"op": "seq"}], "sequence": _LONG_LINEAR}),
    "bounds-horizon-past-max-terms": (EXIT_RESOURCE, {
        "operations": [dict(_LOG_BOUNDS, horizon=(1 << 22) + 1)], "sequence": _LONG_LINEAR}),
    # c_n = floor(n^(6667/2)): c_2 has 3334 bits, and c_100 is past floor_pow's work bound.
    "bounds-cut-count-past-the-float-range": (EXIT_RESOURCE, {
        "operations": [{"op": "bounds", "phi": "log", "cuts": "power", "alpha": "20001/3",
                        "beta": 1, "horizon": 100}],
        "sequence": {"kind": "power", "alpha": "3/2", "horizon": 200}}),
}


@pytest.mark.parametrize("code, change", _REJECTED_OPS.values(), ids=_REJECTED_OPS.keys())
def test_describe_and_run_reject_the_same_ops(tmp_path, capsys, code, change):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(TINY_DOC, **change)))
    outcomes = []
    for argv in (["describe"], ["run", "--out", str(tmp_path / "o")]):
        exit_code = main([*argv, "--config", str(path)])
        outcomes.append((exit_code, capsys.readouterr().err.splitlines()[-1:]))
    assert outcomes[0][0] == code
    assert outcomes[0] == outcomes[1]


def test_entropy_on_a_horizon_past_max_terms(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(TINY_DOC, sequence=_LONG_LINEAR)))
    assert main(["describe", "--config", str(path)]) == EXIT_OK
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_OK


def test_describe_builds_only_the_terms_its_ops_read(monkeypatch, capsys):
    calls = []
    raw_term = SamplingSequence._raw_term
    monkeypatch.setattr(SamplingSequence, "_raw_term",
                        lambda seq, i: calls.append(i) or raw_term(seq, i))
    # Heights 2, 4, 16, 256; t_8 = floor(8^(3/2)) = 22.
    stacking = {"initial_height": 2, "spacer_cap": 1,
                "stages": [{"q": q, "spacers": [0] * (q - 1)} for q in (2, 4, 16)]}
    doc = {"stacking": stacking, "sequence": {"kind": "power", "alpha": "3/2", "horizon": 1 << 22},
           "operations": [{"op": "entropy", "stage": 4, "reference": 1, "length": 8}]}
    describe(load_config(doc))
    assert "path=" in capsys.readouterr().out
    assert len(calls) <= 36 and max(calls) == 1 << 22
    assert sorted(set(calls)) == [*range(1, 9), 1 << 22]


def test_load_errors_name_their_op():
    # A library error keeps its type (and so its exit code) and names the op.
    doc = dict(TINY_DOC, operations=[_TINY_OP, dict(_PROFILE, rule="bogus")])
    with pytest.raises(BoundsError) as excinfo:
        load_config(doc)
    assert str(excinfo.value) == "unknown tau rule 'bogus' (operations[1])"


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
    assert len(lines) == 2 and all(" decoder=int64 key_bytes=" in line for line in lines)
    # h_1 = 2 and 7 stages of q = 2048: tower 6 has 2^56 levels, tower 8 2^78.
    stacking = {"initial_height": 2, "spacer_cap": 2,
                "stages": [{"q": 2048, "spacers": [0] * 2047}] * 7}
    op = {"op": "entropy", "stage": 8, "reference": 1, "length": 2}
    doc = dict(TINY_DOC, stacking=stacking, operations=[
        op, dict(op, method="sampled", count=64), dict(op, stage=6)])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["describe", "--config", str(path)]) == EXIT_OK
    lines = [line.split() for line in capsys.readouterr().out.splitlines() if "path=" in line]
    assert [line[-2] for line in lines] == ["decoder=bigint", "decoder=bigint", "decoder=int64"]
    # Key bytes are symbol width x length: alphabets 3, 2^56 + 1 and about 2^78.
    doc["operations"] = [op, dict(op, stage=6, reference=6), dict(op, reference=8)]
    path.write_text(json.dumps(doc))
    assert main(["describe", "--config", str(path)]) == EXIT_OK
    lines = [line.split() for line in capsys.readouterr().out.splitlines() if "path=" in line]
    assert [line[-1] for line in lines] == ["key_bytes=2", "key_bytes=16", "key_bytes=32"]


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
    # Two distinct words of two one-byte symbols.
    assert meta["keys"]["entropy.csv"] == [{"distinct_words": 2, "key_bytes": 4}]
    assert [k["key_bytes"] for k in meta["keys"]["entropy_2.csv"]] == [
        2 * k["distinct_words"] for k in meta["keys"]["entropy_2.csv"]]
    assert "path" not in (out / "summary.txt").read_text()
    assert all("path" not in p.read_text() for p in out.glob("*.csv"))
    # At the reference equal to the tower every level of K is its own word,
    # counted without decoding a window.
    doc["operations"] = [dict(doc["operations"][0], reference=2)]
    path.write_text(json.dumps(doc))
    assert main(["describe", "--config", str(path)]) == EXIT_OK
    assert "path=distinct windows=0" in capsys.readouterr().out
    assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_OK
    meta = json.loads((out / "meta.json").read_text())
    assert meta["paths"] == {"entropy.csv": ["distinct"]}
    assert meta["windows"] == {"entropy.csv": [0]}


def test_sampled_op_runs_no_key_loop(tmp_path, monkeypatch, capsys):
    # The lift's key loop reads each lifted stage's spacers.  A sampled op is
    # planned before it, so once the slice starts are built only the same
    # op in exact mode, which lifts, reads them.
    stacking = {"initial_height": 3, "spacer_cap": 3,
                "stages": [{"q": 3, "spacers": [1, 2]}, {"q": 2001, "seed": 5}]}
    op = {"op": "entropy", "stage": 3, "reference": 1, "length": 4,
          "method": "sampled", "count": 500}
    cfg = load_config({"stacking": stacking, "sequence": {"kind": "power", "alpha": "3/2",
                                                          "horizon": 64}, "operations": [op]})
    for m in (1, 2):
        cfg.stacking.slice_starts(m)
    reads = []
    spacers = StackingData.stage_spacers
    monkeypatch.setattr(StackingData, "stage_spacers",
                        lambda sd, m: reads.append(m) or spacers(sd, m))
    describe(cfg)
    assert "path=sampled windows=500" in capsys.readouterr().out
    cli.execute(cfg, tmp_path / "o")
    assert json.loads((tmp_path / "o" / "meta.json").read_text())["paths"] == {
        "entropy.csv": ["sampled"]}
    assert reads == []
    args = cfg.operations[0][1]
    assert exact_plan(args["levels"], args["spec"], args["offsets"])[0] == "compressed"
    assert reads == [1, 2]


def test_telemetry_leaves_csvs_and_summary_unchanged(tmp_path, monkeypatch):
    config = FIXTURES / "acceptance_determinism.json"
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "with")]) == EXIT_OK
    runners = dict(cli._RUNNERS)
    for kind, run in runners.items():
        monkeypatch.setitem(
            cli._RUNNERS, kind,
            lambda cfg, op, w, run=run: dataclasses.replace(run(cfg, op, w), hists=()),
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


@pytest.mark.parametrize("alpha", ["3/2", 2])  # not dilating, dilating
def test_seq_op_lists_its_terms_once(tmp_path, monkeypatch, alpha):
    cfg = load_config({"sequence": {"kind": "power", "alpha": alpha, "horizon": 64},
                       "operations": [{"op": "seq", "limit": 40}]})
    verdict = dilation_diagnostic(cfg.sequence, 40).dilating
    calls = []
    raw_term = SamplingSequence._raw_term
    monkeypatch.setattr(SamplingSequence, "_raw_term",
                        lambda seq, i: calls.append(i) or raw_term(seq, i))
    cli.execute(cfg, tmp_path / "o")
    assert sorted(calls) == list(range(1, 41))
    assert f"dilation verdict (finite-horizon heuristic) = {verdict}\n" in (
        tmp_path / "o" / "summary.txt").read_text()


def test_bounds_op_lists_its_terms_once(tmp_path, monkeypatch):
    # One listing of t_n0 .. t_H gives every row its diagnostics and its tau.
    cfg = load_config({"stacking": _H70, "sequence": _SQUARES, "operations": [
        {"op": "bounds", "phi": "log", "cuts": 2, "horizon": 40}]})
    calls = []
    raw_term = SamplingSequence._raw_term
    monkeypatch.setattr(SamplingSequence, "_raw_term",
                        lambda seq, i: calls.append(i) or raw_term(seq, i))
    cli.execute(cfg, tmp_path / "o")
    assert sorted(calls) == list(range(1, 41))
    taus = [line.rsplit(",", 1)[1] for line in
            (tmp_path / "o" / "bounds.csv").read_text().splitlines()[2:]]
    # t_n / c_n = n^2 / 2 passes the tallest height, 70, at n = 12.
    assert taus == ["2"] * 2 + ["3"] * 3 + ["4"] * 5 + [""] * 29


def test_seq_op_holds_no_row_tuples(tmp_path):
    # The rows are generated from the one list of terms as the CSV is
    # written; a tuple held per row would take about 185 bytes a row.
    horizon = 1 << 18
    cfg = load_config({"sequence": {"kind": "power", "alpha": "3/2", "horizon": horizon},
                       "operations": [{"op": "seq"}]})
    tracemalloc.start()
    try:
        cli.execute(cfg, tmp_path / "o")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len((tmp_path / "o" / "seq.csv").read_text().splitlines()) == horizon + 2
    assert peak < 128 * horizon


def test_bounds_op_holds_no_row_tuples(tmp_path):
    # The rows stream into the CSV; the summary line, appended once they are
    # written, reads only the first and the last.  Held, the rows would take
    # about 200 bytes each.
    horizon = 1 << 16
    cfg = load_config({"stacking": _H70, "operations": [
        {"op": "bounds", "phi": "log", "cuts": 2, "horizon": horizon}],
        "sequence": {"kind": "power", "alpha": "3/2", "horizon": horizon}})
    tracemalloc.start()
    try:
        cli.execute(cfg, tmp_path / "o")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len((tmp_path / "o" / "bounds.csv").read_text().splitlines()) == horizon + 1
    assert (tmp_path / "o" / "summary.txt").read_text().endswith(
        "bounds: n=2..65536 balance 0.000000000000 -> 0.000181599199, "
        "phi-diag 0.000000000000 -> 0.000243261492\n")
    assert peak < 16 * horizon


def _counted_everywhere(monkeypatch, fn, calls: list) -> None:
    """Replace `fn` by a call-counting wrapper in every stacklab module
    that holds it."""

    def counted(*args, **kwargs):
        calls.append(fn.__name__)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "stacklab" or name.startswith("stacklab."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)


def test_op_builders_run_once_per_op(tmp_path, monkeypatch, capsys):
    # describe and run each read the arguments that load built.
    from stacklab.entropy import profile_points
    from stacklab.randomstacks import recipe_params

    calls = []
    _counted_everywhere(monkeypatch, profile_points, calls)
    _counted_everywhere(monkeypatch, recipe_params, calls)
    recipe = {"op": "recipe", "name": "poly", "h": 2, "alpha": 2, "beta": 1}
    doc = dict(_EVERY_OP_DOC, operations=[
        {"op": "profile", "lengths": [1, 2], "mode": "refined"}, recipe,
        {"op": "profile", "lengths": [1]}])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    for argv in (["describe"], ["run", "--out", str(tmp_path / "o")]):
        calls.clear()
        assert main([*argv, "--config", str(path)]) == EXIT_OK
        assert sorted(calls) == ["profile_points", "profile_points", "recipe_params"]
    assert "N=2 stage=2 reference=2" in capsys.readouterr().out
    assert (tmp_path / "o" / "recipe.csv").read_text().count("\n") == 3


_RECIPE_ARGV = ["recipe", "--name", "poly", "--h", "2", "--alpha", "2", "--beta", "1"]


# Each once ended in a traceback and exit 1.  "{d}" stands for a directory
# that holds latin1.json, list.json, caps.json, tiny.json and an empty file.
@pytest.mark.parametrize("argv, named", [
    (["describe", "--config", "{d}"], "{d}"),
    (["run", "--config", "{d}", "--out", "{d}/o"], "{d}"),
    ([*_RECIPE_ARGV, "--config", "{d}"], "{d}"),
    (["describe", "--config", "{d}/latin1.json"], "{d}/latin1.json"),
    (["run", "--config", "{d}/latin1.json", "--out", "{d}/o"], "{d}/latin1.json"),
    ([*_RECIPE_ARGV, "--config", "{d}/latin1.json"], "{d}/latin1.json"),
    (["describe", "--config", "{d}/list.json", "--cap-words", "5"],
     "configuration must be a JSON object"),
    (["describe", "--config", "{d}/caps.json", "--cap-words", "5"], "caps: must be an object"),
    (["run", "--config", "{d}/tiny.json", "--out", "{d}/file"],
     "--out: cannot make directory {d}/file"),
], ids=["describe-directory", "run-directory", "recipe-directory", "describe-non-utf8",
        "run-non-utf8", "recipe-non-utf8", "cap-words-on-a-list", "cap-words-on-list-caps",
        "out-is-a-file"])
def test_unreadable_inputs_exit_2(tmp_path, capsys, argv, named):
    (tmp_path / "latin1.json").write_bytes(b'{"seed": "\xe9"}')
    (tmp_path / "list.json").write_text("[1]")
    (tmp_path / "caps.json").write_text(json.dumps(dict(TINY_DOC, caps=[1])))
    (tmp_path / "tiny.json").write_text(json.dumps(TINY_DOC))
    (tmp_path / "file").write_text("")
    assert main([arg.format(d=tmp_path) for arg in argv]) == EXIT_VALIDATION
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and named.format(d=tmp_path) in err[0]


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


@pytest.mark.parametrize(
    "sequence",
    [{"kind": "power", "alpha": "3/2", "horizon": 64}, {"kind": "linear", "a": 3, "horizon": 64}],
)
def test_seq_describe_lists_terms_once(capsys, tmp_path, monkeypatch, sequence):
    # Neither kind scans its terms at construction, so every listing counted
    # here is one of `seq describe`'s.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"sequence": sequence}))
    listings = []
    terms = SamplingSequence.terms

    def counted(self, start, stop):
        listings.append((start, stop))
        return terms(self, start, stop)

    monkeypatch.setattr(SamplingSequence, "terms", counted)
    assert main(["seq", "describe", "--config", str(path), "--limit", "40"]) == EXIT_OK
    assert listings == [(1, 41)]
    out = capsys.readouterr().out.splitlines()
    seq = load_config({"sequence": sequence}, require_operations=False).sequence
    densities = [krug_K_estimate(seq, r, 40) for r in (1, 2, 4)]
    assert out[-3:] == [
        f"thickened density r={r}: {k.numerator}/{k.denominator} = {fmt(float(k))}"
        for r, k in zip((1, 2, 4), densities)
    ]


def test_seq_limit_zero_or_negative_prints_no_terms(capsys, tmp_path):
    # A limit below n0 = 1 covers no term, on the command line and in the op.
    sequence = {"kind": "power", "alpha": "2", "horizon": 16}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"sequence": sequence, "operations": [{"op": "seq", "limit": 0}]}))
    for limit in ("0", "-5"):
        assert main(["seq", "gaps", "--config", str(path), "--limit", limit]) == EXIT_OK
        assert capsys.readouterr().out == "index,value,gap\n"
        assert main(["seq", "describe", "--config", str(path), "--limit", limit]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and lines[0].startswith("sequence: ")
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_OK
    assert (out / "seq.csv").read_text().splitlines()[-1] == "index,value,gap"


def test_closed_stdout_exits_0_without_a_traceback(tmp_path):
    # 10^5 rows are about 1.9 MB, far past a pipe's buffer, so the command
    # is still writing when the reader closes the pipe after two lines.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"sequence": {"kind": "power", "alpha": "3/2", "horizon": 10**5}}))
    proc = subprocess.Popen(
        [sys.executable, "-m", "stacklab.cli", "seq", "gaps", "--config", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env(),
    )
    lines = [proc.stdout.readline(), proc.stdout.readline()]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_OK
    assert lines == [b"index,value,gap\n", b"1,1,\n"]
    assert err == b""


def test_csv_lines_are_written_as_they_are_formatted(tmp_path):
    # Only the rows are held: the lines and their joined text never are.
    seq = SamplingSequence.linear(1, horizon=1 << 18)
    rows = list(cli._gap_rows(1, seq.terms(1, seq.horizon + 1)))
    path, header = tmp_path / "seq.csv", ("index", "value", "gap")
    tracemalloc.start()
    try:
        cli._write_csv(path, header, rows, "f" * 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lines = [f"# config_hash={'f' * 64}", ",".join(header), *(",".join(map(fmt, r)) for r in rows)]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
    assert len(rows) == 1 << 18 and peak < path.stat().st_size


def _cli(*argv) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "stacklab.cli", *map(str, argv)],
                          capture_output=True, text=True, env=_cli_env(), timeout=60)


def test_verify_rejects_a_csv_that_is_not_utf8(tmp_path):
    out = tmp_path / "run"
    assert main(["run", "--config", str(FIXTURES / "entropy_tiny.json"), "--out", str(out)]) == 0
    csv = out / "entropy.csv"
    csv.write_bytes(csv.read_bytes() + b"\xe9\n")
    proc = _cli("verify", "--out", out)
    assert proc.returncode == EXIT_VALIDATION and "Traceback" not in proc.stderr
    assert "REJECTED: entropy.csv does not match its digest in meta.json" in proc.stdout
    csv.write_bytes(b"\xff" + csv.read_bytes())
    proc = _cli("verify", "--out", out)
    assert proc.returncode == EXIT_VALIDATION and "Traceback" not in proc.stderr
    assert "REJECTED: entropy.csv carries a different hash" in proc.stdout


@pytest.mark.parametrize("name", ["meta.json", "config.json"])
def test_verify_rejects_a_directory_in_place_of_a_json_file(tmp_path, name):
    out = tmp_path / "run"
    assert main(["run", "--config", str(FIXTURES / "entropy_tiny.json"), "--out", str(out)]) == 0
    (out / name).unlink()
    (out / name).mkdir()
    proc = _cli("verify", "--out", out)
    assert proc.returncode == EXIT_VALIDATION and "Traceback" not in proc.stderr
    assert proc.stdout == f"REJECTED: {name} cannot be read: Is a directory\n"


def test_verify_rejects_a_report_that_cannot_be_opened(tmp_path, monkeypatch, capsys):
    # Permissions do not bind root, so opening the CSV is made to fail instead.
    out = tmp_path / "run"
    assert main(["run", "--config", str(FIXTURES / "entropy_tiny.json"), "--out", str(out)]) == 0
    real_open = Path.open

    def refusing(self, *args, **kwargs):
        if self.name == "entropy.csv":
            raise PermissionError(errno.EACCES, "Permission denied", str(self))
        return real_open(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", refusing)
    capsys.readouterr()
    assert main(["verify", "--out", str(out)]) == EXIT_VALIDATION
    assert capsys.readouterr().out == (
        "REJECTED: entropy.csv cannot be read: Permission denied\nok: summary.txt\n"
    )


@pytest.mark.parametrize("name", ["entropy.csv", "summary.txt", "meta.json"])
def test_run_rejects_an_out_file_that_is_a_directory(tmp_path, name):
    (tmp_path / "o" / name).mkdir(parents=True)
    proc = _cli("run", "--config", FIXTURES / "entropy_tiny.json", "--out", tmp_path / "o")
    assert proc.returncode == EXIT_VALIDATION and "Traceback" not in proc.stderr
    assert proc.stderr == f"error: --out: cannot write {name}: Is a directory\n"


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


@pytest.mark.parametrize("argv, q", [
    (["--h", "14000", "--beta", "1", "--kappa", "2"], 2**14000 + 1),
    (["--h", "24000", "--beta", "1", "--kappa", "3/2"], 3**24000 // 2**24000 + 1),
    (["--h", "10", "--beta", "2", "--kappa", "1.00000000000000000001"], 2),
], ids=["kappa-2", "kappa-3/2", "kappa-near-1"])
def test_recipe_flex_exact_cut_counts(capsys, argv, q):
    # Exact powers kappa^(h^beta) inside the bound on their bits.
    assert main(["recipe", "--name", "flex", *argv, "--L", "3"]) == EXIT_OK
    assert f"\nq={q}\n" in capsys.readouterr().out




def test_profile_op_via_config(tmp_path, capsys):
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
    assert [k["distinct_words"] for k in meta["keys"]["profile.csv"]] == [
        int(row.split(",")[5]) for row in body[2:]]
    # `describe` plans each point as `run` then takes it.  Point lines are
    # matched by their start, since recipe lines hold `N=` further in.
    assert main(["describe", "--config", str(path)]) == EXIT_OK
    lines = [line.split() for line in capsys.readouterr().out.splitlines()
             if re.match(r"\s*N=\d+ stage=", line)]
    assert [line[:2] for line in lines] == [["N=1", "stage=2"], ["N=2", "stage=2"]]
    assert [line[6:8] for line in lines] == [
        [f"path={p}", f"windows={w}"]
        for p, w in zip(meta["paths"]["profile.csv"], meta["windows"]["profile.csv"])]
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


# One op of every kind, on heights 2, 7, 23 and t_n = n^2; it runs clean.
_EVERY_OP_DOC = {
    "stacking": {"initial_height": 2, "spacer_cap": 2,
                 "stages": [{"q": 3, "spacers": [1, 0]}, {"q": 3, "spacers": [1, 1]}]},
    "sequence": {"kind": "power", "alpha": "2", "horizon": 6},
    "seed": 3,
    "operations": [
        {"op": "entropy", "stage": 3, "reference": 1, "length": 2},
        {"op": "profile", "lengths": [1, 2], "mode": "refined"},
        {"op": "seq", "limit": 3},
        {"op": "markov", "period": 3},
        {"op": "generic", "length": 2, "floor_length": 1, "q": 5, "alphabet": 2,
         "trial_cap": 16},
        {"op": "bounds", "phi": "log", "cuts": 1, "horizon": 4},
        {"op": "recipe", "name": "poly", "h": 2, "alpha": 2, "beta": 1},
    ],
}


def _exit_code(argv):
    try:
        return main(argv)
    except Exception as e:  # any escape from main is a finding
        return f"{type(e).__name__}: {e}"


def test_config_fuzz_exits_with_documented_codes(tmp_path, capsys):
    # Every single-field mutation of these configs ends in a documented
    # exit code, never in an exception out of `main`, and `describe` exits
    # with run's code, save that only the search itself can exhaust (exit 4).
    path, failures = tmp_path / "cfg.json", []
    docs = {name: json.loads((FIXTURES / name).read_text())
            for name in ("entropy_tiny.json", "acceptance_determinism.json")}
    docs["every-op"] = _EVERY_OP_DOC
    for name, doc in docs.items():
        for field in _json_paths(doc):
            for value in _MUTATIONS:
                path.write_text(json.dumps(_mutated(doc, field, value)))
                argv = ["--config", str(path), "--workers", "1"]
                code = _exit_code(["run", *argv, "--out", str(tmp_path / "o")])
                described = _exit_code(["describe", *argv])
                capsys.readouterr()
                documented = code in (EXIT_OK, EXIT_VALIDATION, EXIT_RESOURCE, EXIT_EXHAUSTED)
                if not documented or described != (EXIT_OK if code == EXIT_EXHAUSTED else code):
                    value = "missing" if value is _MISSING else value
                    failures.append((name, field, value, code, described))
    assert not failures, f"{len(failures)} mutations failed:\n" + "\n".join(map(repr, failures))
