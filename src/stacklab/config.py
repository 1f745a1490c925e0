"""Experiment configuration: a single JSON-compatible document.

Numeric parameters may be given as exact rationals ("3/2") anywhere a
float is accepted; they are kept as Fractions internally.  Two runs from
an identical document (same effective seed) must produce byte-identical
data outputs, so the document hash is computed over the canonical JSON of
the effective configuration and embedded in every report.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

from .entropy import DEFAULT_WORD_CAP
from .intarith import InvalidInput, as_float, as_fraction, is_int
from .sequences import SamplingSequence, SequenceError
from .tower import StackingData, TowerError

_CUT_SCHEDULES = ("constant", "power", "loglog")
_GAUGES = ("log", "power", "exp_power")
_RATIONALS = ("alpha", "beta", "gamma", "eps", "kappa", "lam")
# The fields that a `cuts` schedule or a `phi` gauge reads from its op.
_CHOICE_FIELDS = {
    ("cuts", "power"): ("alpha", "beta"),
    ("phi", "power"): ("beta",),
    ("phi", "exp_power"): ("beta",),
}


class ConfigError(InvalidInput):
    """Invalid configuration; the message names the offending field."""


def parse_rational(value, fieldname: str) -> Fraction:
    return as_fraction(value, fieldname, ConfigError)


def canonical_json(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def config_hash(doc: Any) -> str:
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


def build_sequence(doc: dict) -> SamplingSequence:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ConfigError("sequence: needs an object with a 'kind'")
    kind = doc["kind"]
    n0 = doc.get("n0", 1)
    try:
        if kind == "power":
            return SamplingSequence.power(
                parse_rational(doc["alpha"], "sequence.alpha"),
                horizon=doc["horizon"],
                n0=n0,
            )
        if kind == "nlog":
            return SamplingSequence.nlog(
                as_float(parse_rational(doc.get("C", 1), "sequence.C"), "sequence.C"),
                as_float(parse_rational(doc["alpha"], "sequence.alpha"), "sequence.alpha"),
                horizon=doc["horizon"],
                n0=n0,
            )
        if kind == "linear":
            return SamplingSequence.linear(
                doc["a"], doc.get("b", 0), horizon=doc.get("horizon", 1 << 20), n0=n0
            )
        if kind == "explicit":
            return SamplingSequence.explicit(doc["values"], n0=n0)
    except KeyError as e:
        raise ConfigError(f"sequence: missing {e.args[0]!r} for kind {kind!r}") from None
    except SequenceError as e:
        raise ConfigError(f"sequence: {e}") from None
    raise ConfigError(f"sequence.kind: unknown kind {kind!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    doc: dict = field(repr=False)
    stacking: StackingData | None
    sequence: SamplingSequence | None
    operations: tuple[dict, ...]
    seed: int
    word_cap: int

    @property
    def hash(self) -> str:
        return config_hash(self.doc)


def load_config(
    doc: dict, seed_override: int | None = None, require_operations: bool = True
) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a JSON object")
    doc = json.loads(canonical_json(doc))  # defensive copy, JSON-clean
    if seed_override is not None:
        doc["seed"] = seed_override
    seed = doc.get("seed", 0)
    if not is_int(seed) or seed < 0:
        raise ConfigError("seed: must be a nonnegative integer")
    stacking = None
    if "stacking" in doc:
        try:
            stacking = StackingData.from_dict(doc["stacking"])
        except TowerError as e:
            raise ConfigError(f"stacking: {e}") from None
    sequence = build_sequence(doc["sequence"]) if "sequence" in doc else None
    ops = doc.get("operations", [])
    if not ops and require_operations:
        raise ConfigError("operations: at least one operation is required")
    if not isinstance(ops, list):
        raise ConfigError("operations: must be a list")
    for i, op in enumerate(ops):
        if not isinstance(op, dict) or "op" not in op:
            raise ConfigError(f"operations[{i}]: needs an 'op' name")
        if op["op"] not in KNOWN_OPS:
            raise ConfigError(
                f"operations[{i}].op: unknown operation {op['op']!r} "
                f"(known: {', '.join(KNOWN_OPS)})"
            )
        _validate_op(i, op, {"stacking": stacking, "sequence": sequence})
    caps = doc.get("caps", {})
    if not isinstance(caps, dict):
        raise ConfigError("caps: must be an object")
    word_cap = caps.get("words", DEFAULT_WORD_CAP)
    if not is_int(word_cap) or word_cap < 1:
        raise ConfigError("caps.words: must be a positive integer")
    return ExperimentConfig(
        doc=doc,
        stacking=stacking,
        sequence=sequence,
        operations=tuple(ops),
        seed=seed,
        word_cap=word_cap,
    )


_GENERIC_FIELDS = ("length", "floor_length", "q", "alphabet", "trial_cap")
# Per op: the fields it requires, the fields that must be integers when
# present, each with its minimum (None for none), and the documents it needs.
_OP_SCHEMA = {
    "entropy": (("stage", "length"), dict.fromkeys(("stage", "reference", "length", "count")),
                ("stacking", "sequence")),
    "profile": (("lengths",), {"c": 1}, ("stacking", "sequence")),
    "seq": ((), {"limit": None}, ("sequence",)),
    "markov": (("period",), {"period": 2}, ()),
    "generic": (_GENERIC_FIELDS, dict.fromkeys(_GENERIC_FIELDS) | {"alphabet": 2},
                ("stacking", "sequence")),
    "bounds": (("phi", "cuts", "horizon"), {"horizon": None, "c": 1}, ("sequence",)),
    "recipe": (("name", "h", "beta"), dict.fromkeys(("h", "L")), ()),
}
KNOWN_OPS = tuple(_OP_SCHEMA)


def _validate_op(i: int, op: dict, docs: dict) -> None:
    kind = op["op"]
    required, integers, needs = _OP_SCHEMA[kind]
    for name in required:
        if name not in op:
            raise ConfigError(f"operations[{i}].{name}: required for op {kind!r}")
    for name, low in integers.items():
        if name in op and not (is_int(op[name]) and (low is None or op[name] >= low)):
            at_least = "" if low is None else f" >= {low}"
            raise ConfigError(f"operations[{i}].{name}: must be an integer{at_least}")
    for name in needs:
        if docs[name] is None:
            raise ConfigError(f"operations[{i}]: {kind} needs a {name!r} document")
    if kind == "entropy" and op.get("method", "exact") not in ("exact", "sampled"):
        raise ConfigError(f"operations[{i}].method: must be 'exact' or 'sampled'")
    if kind == "entropy" and op.get("method") == "sampled" and op.get("count", 0) < 1:
        raise ConfigError(f"operations[{i}].count: required for sampled mode as an integer >= 1")
    if kind == "entropy" and "reference" in op and op["reference"] > op["stage"]:
        raise ConfigError(f"operations[{i}].reference: must be at most stage {op['stage']}")
    lengths = op.get("lengths")
    if kind == "profile" and not (
        isinstance(lengths, list) and lengths and all(map(is_int, lengths))
    ):
        raise ConfigError(f"operations[{i}].lengths: must be a non-empty list of integers")
    if "cuts" in op and not (is_int(op["cuts"]) or op["cuts"] in _CUT_SCHEDULES):
        raise ConfigError(
            f"operations[{i}].cuts: must be an integer or one of {', '.join(_CUT_SCHEDULES)}"
        )
    if kind == "generic" and not isinstance(op.get("evaluate_all", False), bool):
        raise ConfigError(f"operations[{i}].evaluate_all: must be a boolean")
    if "phi" in op and op["phi"] not in _GAUGES:
        raise ConfigError(f"operations[{i}].phi: must be one of {', '.join(_GAUGES)}")
    for (name, choice), fields in _CHOICE_FIELDS.items():
        for field_name in fields:
            if op.get(name) == choice and field_name not in op:
                raise ConfigError(f"operations[{i}].{field_name}: required for {name} {choice!r}")
    for name in _RATIONALS:
        if name in op:
            parse_rational(op[name], f"operations[{i}].{name}")
