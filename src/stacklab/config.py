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
from functools import partial
from typing import Any

from .bounds import (
    check_balancing_horizon, constant_cuts, loglog_cuts, phi_exp_power, phi_log, phi_power,
    power_cuts, select_tau,
)
from .entropy import DEFAULT_WORD_CAP, orbit_levels, profile_points
from .intarith import InvalidInput, ResourceGuard, as_float, as_fraction, is_int
from .randomstacks import recipe_params
from .randomstacks.generic import search_offsets
from .randomstacks.markov import check_period
from .sequences import SamplingSequence, SequenceError
from .tower import CodingSpec, StackingData, TowerError


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
    operations: tuple[tuple[str, dict], ...]  # (op name, runner arguments) per op
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
    operations = []
    for i, op in enumerate(ops):
        if not isinstance(op, dict) or "op" not in op:
            raise ConfigError(f"operations[{i}]: needs an 'op' name")
        if op["op"] not in KNOWN_OPS:
            raise ConfigError(
                f"operations[{i}].op: unknown operation {op['op']!r} "
                f"(known: {', '.join(KNOWN_OPS)})"
            )
        operations.append((op["op"], _build_op(i, op, stacking, sequence)))
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
        operations=tuple(operations),
        seed=seed,
        word_cap=word_cap,
    )


_GENERIC_FIELDS = ("length", "floor_length", "q", "alphabet", "trial_cap")  # search_offsets order
# Per op: the fields it requires, the fields that must be integers when
# present, each with its minimum (None for none), and the documents it needs.
_OP_SCHEMA = {
    "entropy": (("stage", "length"), dict.fromkeys(("stage", "reference", "length", "count")),
                ("stacking", "sequence")),
    "profile": (("lengths",), {"c": 1}, ("stacking", "sequence")),
    "seq": ((), {"limit": None}, ("sequence",)),
    "markov": (("period",), {"period": 2}, ()),  # minimum as in check_period, to name the field
    "generic": (_GENERIC_FIELDS, dict.fromkeys(_GENERIC_FIELDS) | {"alphabet": 2},
                ("stacking", "sequence")),
    "bounds": (("phi", "cuts", "horizon"), {"horizon": None, "c": 1}, ("sequence",)),
    "recipe": (("name", "h", "beta"), dict.fromkeys(("h", "L")), ()),
}
KNOWN_OPS = tuple(_OP_SCHEMA)


# -- op builders: the one reader of their fields.  A field error is a
# ConfigError "<field>: ..."; a library error keeps its own type and text.


def _required_rational(op: dict, name: str, reader: str) -> Fraction:
    if name not in op:
        raise ConfigError(f"{name}: required for {reader}")
    return parse_rational(op[name], name)


def cuts_from_op(op: dict):
    """The cut schedule `cuts` names: an integer, or constant (at `c`),
    power (at `alpha`, `beta`) or loglog."""
    cuts = op.get("cuts", 1)
    if cuts == "power":
        alpha, beta = (_required_rational(op, name, "cuts 'power'") for name in ("alpha", "beta"))
        return power_cuts(alpha, beta)
    if cuts == "loglog":
        return loglog_cuts()
    if cuts == "constant" or is_int(cuts):
        return constant_cuts(op.get("c", 1) if cuts == "constant" else cuts)
    raise ConfigError("cuts: must be an integer or one of constant, power, loglog")


def phi_from_op(op: dict):
    """The growth gauge `phi` names: log, or power or exp_power at `beta`."""
    phi = op["phi"]
    if phi == "log":
        return phi_log()
    if phi in ("power", "exp_power"):
        gauge = phi_power if phi == "power" else phi_exp_power
        return gauge(_required_rational(op, "beta", f"phi {phi!r}"))
    raise ConfigError("phi: must be one of log, power, exp_power")


def tau_from_op(op: dict, stacking: StackingData, sequence: SamplingSequence):
    """N -> tau(N), the stage that `select_tau` picks under the op's `rule`:
    strict, at its cut schedule, or lambda, at `lam`."""
    rule = op.get("rule", "strict")
    cuts = None if rule == "lambda" else cuts_from_op(op)
    lam = parse_rational(op["lam"], "lam") if rule == "lambda" and "lam" in op else None
    return partial(select_tau, stacking.heights(), sequence, cuts, rule=rule, lam=lam)


def recipe_bundle(op: dict, sequence):
    """`recipe_params` on the op's fields; those it lacks take its defaults."""
    names = ("beta", "alpha", "gamma", "eps", "kappa")
    rationals = {name: parse_rational(op[name], name) for name in names if name in op}
    return recipe_params(op["name"], h=op["h"], L=op.get("L"), A=sequence, **rationals)


def _build_op(i: int, op: dict, stacking, sequence) -> dict:
    """The arguments that op i's runner in `cli` reads, built from its
    fields with the checks the library makes before sizing any work, so
    `describe` rejects op i wherever `run` would.  A library error keeps
    its type, and its message gains ` (operations[i])`."""
    kind = op["op"]
    required, integers, needs = _OP_SCHEMA[kind]
    for name, doc in (("stacking", stacking), ("sequence", sequence)):
        if name in needs and doc is None:
            raise ConfigError(f"operations[{i}]: {kind} needs a {name!r} document")
    try:
        for name in required:
            if name not in op:
                raise ConfigError(f"{name}: required for op {kind!r}")
        for name, low in integers.items():
            if name in op and not (is_int(op[name]) and (low is None or op[name] >= low)):
                at_least = "" if low is None else f" >= {low}"
                raise ConfigError(f"{name}: must be an integer{at_least}")
        if kind == "entropy":
            method = op.get("method", "exact")
            if method not in ("exact", "sampled"):
                raise ConfigError("method: must be 'exact' or 'sampled'")
            count = op.get("count", 0) if method == "sampled" else None
            if method == "sampled" and count < 1:
                raise ConfigError("count: required for sampled mode as an integer >= 1")
            # Also rejected by orbit_levels (tower._coding); checked here to name the field.
            if "reference" in op and op["reference"] > op["stage"]:
                raise ConfigError(f"reference: must be at most stage {op['stage']}")
            spec = CodingSpec(reference=op.get("reference", 1), mode=op.get("mode", "base"))
            offsets, levels = orbit_levels(stacking, spec, op["stage"], sequence, op["length"])
            return {"spec": spec, "offsets": offsets, "levels": levels, "method": method,
                    "count": count}
        if kind == "profile":
            lengths = op["lengths"]
            if not (isinstance(lengths, list) and lengths and all(map(is_int, lengths))):
                raise ConfigError("lengths: must be a non-empty list of integers")
            tau = tau_from_op(op, stacking, sequence)
            return {"points": profile_points(stacking, sequence, tau, lengths,
                                             op.get("mode", "base"))}
        if kind == "seq":  # MAX_TERMS on the rows that the runner lists; builds no term
            limit = min(op.get("limit", sequence.horizon), sequence.horizon)
            sequence.terms(sequence.n0, limit + 1)
            return {"limit": limit}
        if kind == "markov":
            check_period(op["period"])
            return {"period": op["period"]}
        if kind == "generic":
            evaluate_all = op.get("evaluate_all", False)
            if not isinstance(evaluate_all, bool):
                raise ConfigError("evaluate_all: must be a boolean")
            fields = {name: op[name] for name in _GENERIC_FIELDS}
            search_offsets(stacking, sequence, *fields.values())
            return {**fields, "evaluate_all": evaluate_all}
        if kind == "bounds":
            cuts, phi = cuts_from_op(op), phi_from_op(op)
            check_balancing_horizon(sequence, cuts, op["horizon"])
            return {"phi": phi, "cuts": cuts, "horizon": op["horizon"]}
        return {"bundle": recipe_bundle(op, sequence)}  # recipe
    except ConfigError as e:
        raise ConfigError(f"operations[{i}].{e}") from None
    except (InvalidInput, ResourceGuard) as e:
        e.args = (f"{e} (operations[{i}])",)
        raise
