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
from .sequences import SamplingSequence, SequenceError
from .tower import StackingData, TowerError

KNOWN_OPS = ("entropy", "profile", "seq", "markov", "generic", "bounds", "recipe")
_CUT_SCHEDULES = ("constant", "power", "loglog")


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


def parse_rational(value, fieldname: str) -> Fraction:
    try:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, bool):
            raise TypeError
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return Fraction(value)
        if isinstance(value, float):
            return Fraction(value).limit_denominator(10**12)
    except (ValueError, ZeroDivisionError, TypeError):
        pass
    raise ConfigError(f"{fieldname}: expected a number or 'p/q' rational, got {value!r}")


def canonical_json(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def config_hash(doc: Any) -> str:
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


def build_sequence(doc: dict, fieldname: str = "sequence") -> SamplingSequence:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ConfigError(f"{fieldname}: needs an object with a 'kind'")
    kind = doc["kind"]
    n0 = doc.get("n0", 1)
    try:
        if kind == "power":
            return SamplingSequence.power(
                parse_rational(doc["alpha"], f"{fieldname}.alpha"),
                horizon=doc["horizon"],
                n0=n0,
            )
        if kind == "nlog":
            return SamplingSequence.nlog(
                float(parse_rational(doc.get("C", 1), f"{fieldname}.C")),
                float(parse_rational(doc["alpha"], f"{fieldname}.alpha")),
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
        raise ConfigError(f"{fieldname}: missing {e.args[0]!r} for kind {kind!r}") from None
    except SequenceError as e:
        raise ConfigError(f"{fieldname}: {e}") from None
    raise ConfigError(f"{fieldname}.kind: unknown kind {kind!r}")


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
    if not _is_int(seed) or seed < 0:
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
    word_cap = caps.get("words", DEFAULT_WORD_CAP)
    if not _is_int(word_cap) or word_cap < 1:
        raise ConfigError("caps.words: must be a positive integer")
    return ExperimentConfig(
        doc=doc,
        stacking=stacking,
        sequence=sequence,
        operations=tuple(ops),
        seed=seed,
        word_cap=word_cap,
    )


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


_GENERIC_FIELDS = ("length", "floor_length", "q", "alphabet", "trial_cap")
# Per op: the fields it requires, the fields that must be integers when
# present, each with its minimum (None for none), and the documents it needs.
_OP_SCHEMA = {
    "entropy": (("stage", "length"), dict.fromkeys(("stage", "reference", "length", "count")),
                ("stacking", "sequence")),
    "profile": (("lengths",), {}, ("stacking", "sequence")),
    "seq": ((), {"limit": None}, ("sequence",)),
    "markov": (("period",), {"period": 2}, ()),
    "generic": (_GENERIC_FIELDS, dict.fromkeys(_GENERIC_FIELDS) | {"alphabet": 2},
                ("stacking", "sequence")),
    "bounds": (("phi", "cuts", "horizon"), {"horizon": None}, ("sequence",)),
    "recipe": (("name", "h", "beta"), dict.fromkeys(("h", "L")), ()),
}


def _validate_op(i: int, op: dict, docs: dict) -> None:
    kind = op["op"]
    required, integers, needs = _OP_SCHEMA[kind]
    for name in required:
        if name not in op:
            raise ConfigError(f"operations[{i}].{name}: required for op {kind!r}")
    for name, low in integers.items():
        if name in op and not (_is_int(op[name]) and (low is None or op[name] >= low)):
            at_least = "" if low is None else f" >= {low}"
            raise ConfigError(f"operations[{i}].{name}: must be an integer{at_least}")
    for name in needs:
        if docs[name] is None:
            raise ConfigError(f"operations[{i}]: {kind} needs a {name!r} document")
    if kind == "entropy" and op.get("method", "exact") not in ("exact", "sampled"):
        raise ConfigError(f"operations[{i}].method: must be 'exact' or 'sampled'")
    if kind == "entropy" and op.get("method") == "sampled" and "count" not in op:
        raise ConfigError(f"operations[{i}].count: required for sampled mode")
    lengths = op.get("lengths")
    if kind == "profile" and not (
        isinstance(lengths, list) and lengths and all(map(_is_int, lengths))
    ):
        raise ConfigError(f"operations[{i}].lengths: must be a non-empty list of integers")
    if "cuts" in op and not (_is_int(op["cuts"]) or op["cuts"] in _CUT_SCHEDULES):
        raise ConfigError(
            f"operations[{i}].cuts: must be an integer or one of {', '.join(_CUT_SCHEDULES)}"
        )
