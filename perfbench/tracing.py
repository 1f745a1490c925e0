"""Spans at stacklab's module boundaries, recorded from the benchmark's side.

`Tracer.install()` wraps the public functions at each boundary and rebinds
each wrapper in every stacklab module that imported the name (for
example `entropy` and `randomstacks.generic` import `code_orbit`, and
`entropy` imports `uniform_int`).  Spans record name, start, end, parent
span and run id; they are kept in memory and written out by `dump()`.

Two kinds of call are too frequent for one record each, so they are
folded into one record per (name, parent span) that carries the call
count and the summed time: `code_orbit` and `uniform_int`.

Wrappers installed in this process do not report back from pool
workers, so the benchmark reads `parallel.*` from a run at the
workload's worker count and the layers that run inside blocks from a
workers=1 replay of the same workload.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import pickle
import sys
import time
import types
from pathlib import Path


class TimedBlock:
    """A block function that also returns its own wall time; picklable."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, block):
        start = time.perf_counter()
        result = self.fn(block)
        return result, time.perf_counter() - start


def _orbit_symbols(args, kwargs) -> int:
    return len(kwargs["offsets"] if "offsets" in kwargs else args[4])


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.folded: dict[tuple[str, int], list] = {}
        self._stack = [0]
        self._ids = itertools.count(1)
        self._lazy: list[tuple[dict, object, tuple]] = []

    # -- recording -------------------------------------------------------

    def _call(self, name, fn, args, kwargs, attrs=None):
        sid = next(self._ids)
        parent = self._stack[-1]
        self._stack.append(sid)
        record = {"id": sid, "parent": parent, "name": name, "run": self.run_id, "calls": 1}
        record["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as e:
            record["error"] = type(e).__name__
            raise
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(record)
        if attrs is not None:
            # Counters are computed in dump(), outside every span.
            self._lazy.append((record, attrs, (args, kwargs, result)))
        return result

    def span(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs, attrs)

        return wrapper

    def leaf(self, name, fn, size=None):
        folded, stack, clock = self.folded, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                key = (name, stack[-1])
                entry = folded.get(key)
                if entry is None:
                    entry = folded[key] = [0, 0.0, 0, start, end]
                entry[0] += 1
                entry[1] += end - start
                entry[4] = end
                if size is not None:
                    entry[2] += size(args, kwargs)

        return wrapper

    def event(self, name: str) -> None:
        key = (name, self._stack[-1])
        now = time.perf_counter()
        entry = self.folded.setdefault(key, [0, 0.0, 0, now, now])
        entry[0] += 1

    def first_call(self, name, method):
        """Trace only the first call per instance of a cached method.

        `StackingData.heights` is called for every decoded symbol but
        computes only once per instance; wrapping every call would cost
        more than the decode it sits in.  After the first call the
        instance gets the plain bound method, which shadows the wrapper.
        """
        traced = self.span(name, method)

        @functools.wraps(method)
        def wrapper(obj, *args, **kwargs):
            result = traced(obj, *args, **kwargs)
            object.__setattr__(obj, method.__name__, types.MethodType(method, obj))
            return result

        return wrapper

    def run_blocks(self, run_blocks):
        def traced(fn, blocks, workers=1):
            pairs = run_blocks(TimedBlock(fn), blocks, workers=workers)
            return [r for r, _ in pairs], pairs

        def attrs(args, kwargs, out):
            blocks = args[1]
            workers = kwargs.get("workers", args[2] if len(args) > 2 else 1)
            pairs = out[1]
            return {
                "blocks": len(blocks),
                "workers": workers,
                "block_s": sum(dt for _, dt in pairs),
                "arg_bytes": sum(len(pickle.dumps(b)) for b in blocks),
                "result_bytes": sum(len(pickle.dumps(r)) for r, _ in pairs),
            }

        @functools.wraps(run_blocks)
        def wrapper(fn, blocks, workers=1):
            return self._call("parallel.run_blocks", traced, (fn, blocks, workers), {}, attrs)[0]

        return wrapper

    # -- installation ----------------------------------------------------

    def _rebind(self, original, wrapper) -> None:
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "") or ""
            if name != "stacklab" and not name.startswith("stacklab."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        # `stacklab.entropy` is shadowed by the function of that name in the
        # package namespace, so modules are looked up by their full names.
        mod = {name: importlib.import_module(f"stacklab.{name}") for name in (
            "cli", "config", "entropy", "parallel", "rng", "tower",
            "randomstacks.generic", "randomstacks.markov")}
        cli, config, entropy, parallel = mod["cli"], mod["config"], mod["entropy"], mod["parallel"]
        rng, tower = mod["rng"], mod["tower"]
        generic, markov = mod["randomstacks.generic"], mod["randomstacks.markov"]

        spans = {
            config.load_config: ("config.load_config", None),
            tower.valid_levels: ("tower.valid_levels", None),
            entropy.empirical_sequence_entropy: ("entropy.empirical_sequence_entropy", _entropy_attrs),
            generic.evaluate_candidate: ("generic.evaluate_candidate", _candidate_attrs),
            markov.conditional_limits_mc: ("markov.conditional_limits_mc", _mc_attrs),
            markov.stationary_distribution_exact: ("markov.stationary_distribution_exact", None),
            cli.execute: ("cli.execute", _execute_attrs),
            cli.verify: ("cli.verify", None),
        }
        for fn, (name, attrs) in spans.items():
            self._rebind(fn, self.span(name, fn, attrs))
        self._rebind(tower.code_orbit, self.leaf("tower.code_orbit", tower.code_orbit, _orbit_symbols))
        self._rebind(rng.uniform_int, self.leaf("rng.uniform_int", rng.uniform_int))
        self._rebind(parallel.run_blocks, self.run_blocks(parallel.run_blocks))

        sd = tower.StackingData
        from_dict = sd.__dict__["from_dict"].__func__
        sd.from_dict = classmethod(self.span("tower.from_dict", from_dict))
        sd.heights = self.first_call("tower.heights", sd.heights)
        rng.SpacerProcess.chunk = self.span("rng.chunk", rng.SpacerProcess.chunk, _chunk_attrs)

        tracer = self

        class CountedPool(parallel.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                tracer.event("parallel.pool")
                super().__init__(*args, **kwargs)

        self._rebind(parallel.ProcessPoolExecutor, CountedPool)

    # -- output ----------------------------------------------------------

    def records(self) -> list[dict]:
        for record, attrs, (args, kwargs, result) in self._lazy:
            record.update(attrs(args, kwargs, result))
        self._lazy.clear()
        out = [dict(r, busy=r["end"] - r["start"]) for r in self.spans]
        for (name, parent), (calls, busy, symbols, start, end) in self.folded.items():
            out.append(
                {"id": next(self._ids), "parent": parent, "name": name, "run": self.run_id,
                 "calls": calls, "start": start, "end": end, "busy": busy, "symbols": symbols}
            )
        return out

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.records()), encoding="utf-8")


def _entropy_attrs(args, kwargs, result):
    hist = result.histogram
    return {"words": hist.total, "distinct_words": hist.distinct_words}


def _candidate_attrs(args, kwargs, record):
    base = args[0]
    return {"accepted": int(record.accepted), "words": record.valid_count * base.num_towers}


def _mc_attrs(args, kwargs, estimates):
    h, pattern, samples = kwargs["h"], kwargs["pattern"], kwargs["samples"]
    period = h * (len(pattern) + 1) + sum(pattern)
    est = next(iter(estimates.values()))
    window_bits = (est.position + est.separation) // period + 2
    return {"samples": samples, "philox_bits": samples * window_bits}


def _execute_attrs(args, kwargs, reports):
    # The data outputs only: meta.json holds a timestamp of varying length.
    outdir = Path(args[1])
    files = list(outdir.glob("*.csv")) + [outdir / "summary.txt"]
    return {"report_bytes": sum(p.stat().st_size for p in files)}


def _chunk_attrs(args, kwargs, result):
    proc, start, stop = args
    return {"key": f"{proc.alphabet}:{proc.seed}:{proc.stream}:{start}:{stop}"}


# -- per-layer metrics ----------------------------------------------------------


def _rate(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _self_times(records: list[dict]) -> dict[int, float]:
    child_busy: dict[int, float] = {}
    for r in records:
        child_busy[r["parent"]] = child_busy.get(r["parent"], 0.0) + r["busy"]
    return {r["id"]: r["busy"] - child_busy.get(r["id"], 0.0) for r in records}


def layer_metrics(replay: list[dict], run: list[dict], overhead_s: float) -> dict[str, float]:
    """Per-layer metrics from a workers=1 replay and a run at the workload's
    worker count; the run supplies `parallel.*` and `cli.*`."""

    def pick(records, name):
        return [r for r in records if r["name"] == name]

    def total(records, name, key="busy"):
        return sum(r.get(key, 0) for r in pick(records, name))

    def calls(records, name):
        return total(records, name, "calls")

    self_time = _self_times(replay)
    m: dict[str, float] = {}
    m["config.load_s"] = total(replay, "config.load_config")

    m["tower.heights_s"] = total(replay, "tower.heights")
    m["tower.from_dict_calls"] = calls(replay, "tower.from_dict")
    m["tower.valid_levels_calls"] = calls(replay, "tower.valid_levels")
    m["tower.orbits"] = calls(replay, "tower.code_orbit")
    m["tower.symbols"] = total(replay, "tower.code_orbit", "symbols")
    m["tower.code_orbit_s"] = total(replay, "tower.code_orbit")
    m["tower.symbols_per_s"] = _rate(m["tower.symbols"], m["tower.code_orbit_s"])

    m["rng.sha256_draws"] = calls(replay, "rng.uniform_int")
    m["rng.sha256_s"] = total(replay, "rng.uniform_int")
    m["rng.sha256_draws_per_s"] = _rate(m["rng.sha256_draws"], m["rng.sha256_s"])
    chunks = pick(replay, "rng.chunk")
    m["rng.spacer_expansions"] = len(chunks)
    m["rng.spacer_expand_s"] = total(replay, "rng.chunk")
    m["rng.useful_expansion_ratio"] = _rate(len({c["key"] for c in chunks}), len(chunks))

    blocks = pick(run, "parallel.run_blocks")
    m["parallel.calls"] = len(blocks)
    m["parallel.pools"] = calls(run, "parallel.pool")
    m["parallel.blocks"] = sum(b["blocks"] for b in blocks)
    m["parallel.arg_bytes"] = sum(b["arg_bytes"] for b in blocks)
    m["parallel.result_bytes"] = sum(b["result_bytes"] for b in blocks)
    m["parallel.run_blocks_s"] = sum(b["busy"] for b in blocks)
    m["parallel.efficiency"] = _rate(
        sum(b["block_s"] for b in blocks), sum(b["workers"] * b["busy"] for b in blocks)
    )

    ent = pick(replay, "entropy.empirical_sequence_entropy")
    m["entropy.words"] = sum(r["words"] for r in ent)
    m["entropy.distinct_words"] = sum(r["distinct_words"] for r in ent)
    m["entropy.s"] = sum(r["busy"] for r in ent)
    m["entropy.words_per_s"] = _rate(m["entropy.words"], m["entropy.s"])
    m["entropy.merge_s"] = sum(self_time[r["id"]] for r in ent)

    cand = pick(replay, "generic.evaluate_candidate")
    m["generic.trials"] = len(cand)
    m["generic.candidate_s"] = sum(r["busy"] for r in cand)
    m["generic.words"] = sum(r["words"] for r in cand)
    m["generic.words_per_s"] = _rate(m["generic.words"], m["generic.candidate_s"])
    m["generic.accept_rate"] = _rate(sum(r["accepted"] for r in cand), len(cand))

    mc = pick(replay, "markov.conditional_limits_mc")
    m["markov.exact_s"] = total(replay, "markov.stationary_distribution_exact")
    m["markov.mc_samples"] = sum(r["samples"] for r in mc)
    m["markov.mc_s"] = sum(r["busy"] for r in mc)
    m["markov.mc_samples_per_s"] = _rate(m["markov.mc_samples"], m["markov.mc_s"])
    m["markov.philox_bits"] = sum(r["philox_bits"] for r in mc)

    m["cli.execute_s"] = total(run, "cli.execute")
    m["cli.verify_s"] = total(run, "cli.verify")
    m["cli.report_bytes"] = total(run, "cli.execute", "report_bytes")

    m["trace.overhead_s"] = overhead_s
    return m


# Unit of every per-layer metric, in the order layer_metrics reports them.
UNITS = {
    "config.load_s": "s",
    "tower.heights_s": "s",
    "tower.from_dict_calls": "count",
    "tower.valid_levels_calls": "count",
    "tower.orbits": "count",
    "tower.symbols": "count",
    "tower.code_orbit_s": "s",
    "tower.symbols_per_s": "1/s",
    "rng.sha256_draws": "count",
    "rng.sha256_s": "s",
    "rng.sha256_draws_per_s": "1/s",
    "rng.spacer_expansions": "count",
    "rng.spacer_expand_s": "s",
    "rng.useful_expansion_ratio": "ratio",
    "parallel.calls": "count",
    "parallel.pools": "count",
    "parallel.blocks": "count",
    "parallel.arg_bytes": "bytes",
    "parallel.result_bytes": "bytes",
    "parallel.run_blocks_s": "s",
    "parallel.efficiency": "ratio",
    "entropy.words": "count",
    "entropy.distinct_words": "count",
    "entropy.s": "s",
    "entropy.words_per_s": "1/s",
    "entropy.merge_s": "s",
    "generic.trials": "count",
    "generic.candidate_s": "s",
    "generic.words": "count",
    "generic.words_per_s": "1/s",
    "generic.accept_rate": "ratio",
    "markov.exact_s": "s",
    "markov.mc_samples": "count",
    "markov.mc_s": "s",
    "markov.mc_samples_per_s": "1/s",
    "markov.philox_bits": "bits",
    "cli.execute_s": "s",
    "cli.verify_s": "s",
    "cli.report_bytes": "bytes",
    "trace.overhead_s": "s",
}


# Count metrics must repeat exactly between two traced runs of one seed.
COUNT_METRICS = (
    "tower.from_dict_calls", "tower.valid_levels_calls", "tower.orbits", "tower.symbols",
    "rng.sha256_draws", "rng.spacer_expansions", "rng.useful_expansion_ratio",
    "parallel.calls", "parallel.pools", "parallel.blocks", "parallel.arg_bytes",
    "parallel.result_bytes", "entropy.words", "entropy.distinct_words", "generic.trials",
    "generic.words", "generic.accept_rate", "markov.mc_samples", "markov.philox_bits",
    "cli.report_bytes",
)
