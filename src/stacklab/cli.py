"""Command-line harness tying construction, entropy runs, randomized
searches, and bound evaluations into reproducible experiments.

One experiment = one JSON config document.  Data outputs (CSV, summary)
are byte-deterministic for a fixed effective config; timestamps live only
in meta.json.  Every report embeds the config hash; `verify` rejects
mixed-provenance output directories.

Exit codes: 0 success, 2 validation error (`InvalidInput`), 3 resource
guard (`ResourceGuard`), 4 search exhausted (`SearchExhausted`).  A reader
that closes stdout early (`| head`) ends the command with 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice, pairwise
from pathlib import Path
from typing import Iterable, Iterator

from . import __version__, bounds as bounds_mod
from .config import (
    ConfigError, ExperimentConfig, canonical_json, config_hash, load_config, recipe_bundle,
)
from .entropy import empirical_sequence_entropy, histogram_point, points_entropy
from .intarith import InvalidInput, ResourceGuard, as_float
from .randomstacks import (
    build_markov_matrix,
    genericness_search,
    stationary_distribution,
    stationary_distribution_exact,
)
from .rng import BULK_RNG_ID, SPACER_RNG_ID
from .sequences import dilation_diagnostic, gaps_dilation, krug_K_estimate, thickened_count
from .tower import exact_plan, level_dtype, symbol_width

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RESOURCE = 3
EXIT_EXHAUSTED = 4

LN2 = math.log(2.0)


class SearchExhausted(RuntimeError):
    """A randomized search ran out of trials without acceptance."""


def fmt(x) -> str:
    """Deterministic CSV formatting; floats at fixed precision 12, None blank."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, float):
        if math.isnan(x) or math.isinf(x):
            return repr(x)
        if x == 0.0:
            return "0.000000000000"
        if 1e-12 <= abs(x) < 1e16:
            return f"{x:.12f}"
        return f"{x:.12e}"
    return str(x)


@dataclass
class Report:
    """One operation's tabular output plus its summary lines.  `execute`
    reads `rows` once, as it writes the CSV, so it may be an iterator, and
    reads `summary` only after `rows`, so the iterator may append to it."""

    header: tuple[str, ...]
    rows: Iterable[tuple]
    summary: list[str]
    accepted: bool | None = None  # searches only
    hists: tuple = ()  # each histogram's ProfilePoint, for meta.json only


# -- operation runners ---------------------------------------------------------
# Each reads the arguments that `config.load_config` built for its op.


# The columns that close the row of every word histogram.  `_h_columns` and
# `execute` read a histogram's scalars from its ProfilePoint, which keeps
# them without the counts, so an op's counts are freed before the next op.
_H_COLUMNS = ("H_nats", "H_per_N", "H_per_N_bits", "distinct_words", "coverage")


def _h_columns(p) -> tuple:
    return (p.h_nats, p.h_per_sample, p.h_per_sample / LN2, p.distinct_words, p.coverage)


def _run_entropy(cfg: ExperimentConfig, args: dict, workers: int) -> Report:
    spec, method = args["spec"], args["method"]
    stage = args["levels"].n
    length = len(args["offsets"])
    # The entropy entry point, which re-derives the offsets and K in O(N),
    # not `levels_entropy` on them: perfbench/tracing.py reads its entropy.*
    # metrics from a span of `empirical_sequence_entropy`.
    res = empirical_sequence_entropy(
        cfg.stacking, spec, stage, cfg.sequence, length, method=method,
        sample_count=args["count"], seed=cfg.seed, word_cap=cfg.word_cap, workers=workers,
    )
    p = histogram_point(length, spec.reference, res)
    row = (length, stage, spec.reference, f"{method}/{spec.mode}", *_h_columns(p), cfg.seed)
    header = ("N", "stage", "reference", "mode", *_H_COLUMNS, "seed")
    summary = [
        f"entropy: stage={stage} reference={spec.reference} mode={method}/{spec.mode} "
        f"N={length} H_per_N={fmt(p.h_per_sample)} distinct={p.distinct_words} "
        f"coverage={fmt(p.coverage)}"
    ]
    return Report(header=header, rows=[row], summary=summary, hists=(p,))


def _run_profile(cfg: ExperimentConfig, args: dict, workers: int) -> Report:
    points = points_entropy(args["points"], cfg.word_cap, workers)
    summary = [
        f"profile: N={points[0].length}..{points[-1].length} "
        f"H_per_N {fmt(points[0].h_per_sample)} -> {fmt(points[-1].h_per_sample)}"
    ]
    return Report(
        header=("N", "stage", *_H_COLUMNS),
        rows=[(p.length, p.stage, *_h_columns(p)) for p in points],
        summary=summary,
        hists=tuple(points),
    )


def _gap_rows(n0: int, values: Iterable[int]) -> Iterator[tuple]:
    """(index, value, gap) for terms listed from index n0; the first gap is blank."""
    prev = None
    for n, t in enumerate(values, n0):
        yield n, t, "" if prev is None else t - prev
        prev = t


def _run_seq(cfg: ExperimentConfig, args: dict, workers: int) -> Report:
    seq = cfg.sequence
    values = list(seq.terms(seq.n0, args["limit"] + 1))
    summary = [f"seq: kind={seq.kind} n0={seq.n0} horizon={seq.horizon}"]
    if len(values) >= 2:
        verdict = gaps_dilation(tuple(b - a for a, b in pairwise(values))).dilating
        summary.append(f"seq: dilation verdict (finite-horizon heuristic) = {verdict}")
    return Report(header=("index", "value", "gap"), rows=_gap_rows(seq.n0, values),
                  summary=summary)


def _run_markov(cfg: ExperimentConfig, args: dict, workers: int) -> Report:
    H = args["period"]
    model = build_markov_matrix(H)
    pi = stationary_distribution(model)
    exact = stationary_distribution_exact(model)
    rows = [
        (i + 1, float(pi[i]), exact[i].numerator, exact[i].denominator)
        for i in range(H + 1)
    ]
    # Each column's sum of float(entry) * pi[j] in the order of j, over the
    # nonzero entries only: a zero entry's term is 0.0 * pi[j] = +0.0, as
    # pi >= 0, and adding it to a sum that starts at 0 never changes it.
    sums = [0] * (H + 1)
    for j, row in enumerate(model.nonzero):
        for i, x in row:
            sums[i] += float(x) * pi[j]
    residual = max(abs(s - p) for s, p in zip(sums, pi))
    summary = [
        f"markov: period={H} stationary head={fmt(float(pi[0]))} "
        f"tail={fmt(float(pi[-1]))} residual={residual:.3e}"
    ]
    return Report(header=("state", "stationary", "exact_num", "exact_den"), rows=rows,
                  summary=summary)


def _run_generic(cfg: ExperimentConfig, args: dict, workers: int) -> Report:
    report = genericness_search(
        cfg.stacking, cfg.sequence, N=args["length"], N0=args["floor_length"], q=args["q"],
        alphabet=args["alphabet"], trial_cap=args["trial_cap"], seed=cfg.seed,
        evaluate_all=args["evaluate_all"],
    )
    rows = [
        (r.trial, r.accepted, r.worst_count / r.valid_count, r.worst_cap / r.valid_count,
         report.analytic_bound)
        for r in report.records
    ]
    header = ("trial", "accepted", "worst_word_frequency", "cap", "p_failure_bound")
    if report.accepted is not None:
        summary = [
            f"generic: accepted at trial {report.accepted_trial} of "
            f"{report.trials_used}; spacers={','.join(map(str, report.accepted))}"
        ]
    else:
        summary = [
            f"generic: EXHAUSTED after {report.trials_used} trials; "
            f"best worst-ratio {fmt(report.best_ratio)}"
        ]
    summary.append(
        f"generic: empirical failure rate {fmt(report.empirical_failure_rate)} "
        f"vs analytic bound {fmt(report.analytic_bound)} (rng={report.rng})"
    )
    return Report(header=header, rows=rows, summary=summary, accepted=report.accepted is not None)


def _run_bounds(cfg: ExperimentConfig, args: dict, workers: int) -> Report:
    heights = cfg.stacking.heights() if cfg.stacking is not None else None
    summary: list[str] = []

    def rows() -> Iterator[tuple]:
        # Keeps only the first and the last row, which the summary line reads
        # once `execute` has written them all.
        first = None
        for last in bounds_mod.balancing_rows(cfg.sequence, args["phi"], args["cuts"],
                                              args["horizon"], heights):
            first = first or last  # (n, c_n, diag_balance, diag_phi, ...)
            yield last
        summary.append(
            f"bounds: n={first[0]}..{last[0]} balance {fmt(first[2])} -> "
            f"{fmt(last[2])}, phi-diag {fmt(first[3])} -> {fmt(last[3])}"
        )

    return Report(header=("n", "c_n", "diag_balance", "diag_phi", "diag_binom", "tau"),
                  rows=rows(), summary=summary)


def _run_recipe(cfg: ExperimentConfig, args: dict, workers: int) -> Report:
    bundle = args["bundle"]
    header = ("name", "N0", "N", "q", "m", "delta", "t_N", "p_fail_horizon_floor",
              "p_fail_range_floor")
    row = (bundle.name, bundle.floor_length, bundle.word_length, bundle.cuts,
           bundle.dependence_range, bundle.deviation, bundle.horizon_term,
           bundle.p_fail_horizon_floor, bundle.p_fail_range_floor)
    summary = [
        f"recipe {bundle.name}: q={bundle.cuts} N={bundle.word_length} "
        f"N0={bundle.floor_length}"
    ]
    summary.extend(f"recipe note: {note}" for note in bundle.notes)
    return Report(header=header, rows=[row], summary=summary)


_RUNNERS = {
    "entropy": _run_entropy,
    "profile": _run_profile,
    "seq": _run_seq,
    "markov": _run_markov,
    "generic": _run_generic,
    "bounds": _run_bounds,
    "recipe": _run_recipe,
}


# -- output writing --------------------------------------------------------------


def _read(path: Path) -> tuple[bytes, str]:
    """The first line of a report, without its newline, and the SHA-256
    digest of the whole file, read once in fixed-size chunks."""
    digest = hashlib.sha256()
    with path.open("rb") as f:
        first = f.readline()
        digest.update(first)
        while chunk := f.read(1 << 16):
            digest.update(chunk)
    return first.removesuffix(b"\n"), digest.hexdigest()


def _write(path: Path, lines: Iterable[str]) -> str:
    """Write `lines` to `path` as UTF-8, a batch of lines at a time as they
    are formatted, and return the SHA-256 digest of the bytes written."""
    digest = hashlib.sha256()
    lines = iter(lines)
    try:
        with path.open("wb") as f:
            while batch := "".join(islice(lines, 1024)).encode("utf-8"):
                digest.update(batch)
                f.write(batch)
    except OSError as e:
        raise ConfigError(f"--out: cannot write {path.name}: {e.strerror}") from None
    return digest.hexdigest()


def _write_csv(path: Path, header: tuple[str, ...], rows, cfg_hash: str) -> str:
    """Write the report CSV and return its digest."""
    head = f"# config_hash={cfg_hash}\n{','.join(header)}\n"
    return _write(path, chain((head,), (",".join(map(fmt, row)) + "\n" for row in rows)))


def execute(
    cfg: ExperimentConfig, outdir: Path, workers: int = 1, op_filter: tuple[str, ...] | None = None
) -> list[Report]:
    """Run the config's operations and write the report bundle."""
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"--out: cannot make directory {outdir}: {e.strerror}") from None
    cfg_hash = cfg.hash
    reports: list[Report] = []
    digests: dict[str, str] = {}
    seen: dict[str, int] = {}
    summary_lines = [f"# config_hash={cfg_hash}", f"seed={cfg.seed}"]
    for kind, args in cfg.operations:
        if op_filter is not None and kind not in op_filter:
            continue
        report = _RUNNERS[kind](cfg, args, workers)
        seen[kind] = seen.get(kind, 0) + 1
        filename = f"{kind}.csv" if seen[kind] == 1 else f"{kind}_{seen[kind]}.csv"
        digests[filename] = _write_csv(outdir / filename, report.header, report.rows, cfg_hash)
        summary_lines.extend(report.summary)
        reports.append(report)
    if not reports:
        raise ConfigError("operations: nothing to run after filtering")
    filenames = list(digests)
    digests["summary.txt"] = _write(outdir / "summary.txt", ["\n".join(summary_lines) + "\n"])
    _write(outdir / "config.json", [canonical_json(cfg.doc) + "\n"])

    def per_hist(value) -> dict:
        return {name: [value(h) for h in r.hists] for name, r in zip(filenames, reports) if r.hists}

    meta = {
        "tool": "stacklab",
        "version": __version__,
        "config_hash": cfg_hash,
        "seed": cfg.seed,
        "workers": workers,
        "rng": {"spacer": SPACER_RNG_ID, "bulk": BULK_RNG_ID},
        "outputs": filenames,
        "paths": per_hist(lambda h: h.path),
        "windows": per_hist(lambda h: h.windows),
        "keys": per_hist(lambda h: {"distinct_words": h.distinct_words,
                                    "key_bytes": h.distinct_words * h.key_bytes}),
        "sha256": digests,
        "created_unix": time.time(),
    }
    _write(outdir / "meta.json", [json.dumps(meta, sort_keys=True, indent=2) + "\n"])
    return reports


def _describe_histogram(cfg: ExperimentConfig, spec, offsets, K, count=None) -> str:
    """The plan of one word histogram on the offsets and valid levels K of
    `orbit_levels`: K, alphabet, path and windows (`exact_plan`), decoder
    and key bytes."""
    path, _, windows = exact_plan(K, spec, offsets, count)
    return (
        f"stage={K.n} reference={spec.reference} "
        f"|K|={K.count} coverage={fmt(K.coverage)} "
        f"alphabet={spec.alphabet_size(cfg.stacking)} path={path} windows={windows} "
        f"decoder={'bigint' if level_dtype(cfg.stacking, K.n) is object else 'int64'} "
        f"key_bytes={symbol_width(cfg.stacking, spec) * len(offsets)}"
    )


def describe(cfg: ExperimentConfig) -> None:
    """Print derived quantities without executing heavy work."""
    print(f"config hash: {cfg.hash}")
    print(f"seed: {cfg.seed}")
    if cfg.stacking is not None:
        heights = cfg.stacking.heights()
        print(f"heights: {', '.join(map(str, heights))}")
        if cfg.stacking.spacer_cap is not None:
            print(f"spacer cap: {cfg.stacking.spacer_cap}")
    if cfg.sequence is not None:
        d = cfg.sequence.describe()
        print(f"sequence: {d}")
    for i, (kind, args) in enumerate(cfg.operations):
        print(f"[{i}] op={kind}")
        if kind == "entropy":
            hist = _describe_histogram(cfg, args["spec"], args["offsets"], args["levels"],
                                       args["count"])
            print(f"    {hist}")
        elif kind == "profile":
            for N, spec, offsets, K in args["points"]:
                print(f"    N={N} {_describe_histogram(cfg, spec, offsets, K)}")
        elif kind == "generic":
            h_n = cfg.stacking.heights()[-1]
            print(
                f"    q={args['q']} candidate height >= {args['q'] * h_n} "
                f"trial_cap={args['trial_cap']}"
            )
        elif kind == "recipe":
            for line in _run_recipe(cfg, args, 1).summary:
                print(f"    {line}")
        elif kind == "markov":
            print(f"    period={args['period']}")


def verify(outdir: Path, out=None) -> int:
    """Check that every report in a run directory matches its config hash
    and the SHA-256 digest recorded for it in meta.json."""
    out = out if out is not None else sys.stdout
    docs = []
    for path in (outdir / "meta.json", outdir / "config.json"):
        try:
            docs.append(json.loads(path.read_text(encoding="utf-8")))
        except OSError as e:  # missing, a directory or unreadable
            print(f"REJECTED: {path.name} cannot be read: {e.strerror}", file=out)
            return EXIT_VALIDATION
        except ValueError as e:
            print(f"REJECTED: {path.name} is not valid JSON: {e}", file=out)
            return EXIT_VALIDATION
    meta, config_doc = docs
    outputs = meta.get("outputs") if isinstance(meta, dict) else None
    digests = meta.get("sha256") if isinstance(meta, dict) else None
    if not (
        isinstance(outputs, list)
        and isinstance(digests, dict)
        and all(isinstance(n, str) and n not in ("", "..") and Path(n).name == n for n in outputs)
    ):
        print("REJECTED: meta.json needs a list of output names and a digest table", file=out)
        return EXIT_VALIDATION
    declared = meta.get("config_hash", "")
    actual = config_hash(config_doc)
    ok = True
    if actual != declared:
        print(f"REJECTED: config.json hashes to {actual}, meta says {declared}", file=out)
        ok = False
    head = f"# config_hash={declared}".encode("utf-8", "backslashreplace")
    csvs = {p.name for p in outdir.glob("*.csv")} | set(outputs)
    for name in sorted(csvs) + ["summary.txt"]:
        path = outdir / name
        try:
            first, digest = _read(path) if path.is_file() else (None, None)
        except OSError as e:  # there, but unreadable
            print(f"REJECTED: {name} cannot be read: {e.strerror}", file=out)
            ok = False
            continue
        if first is None:
            print(f"REJECTED: {name} is missing", file=out)
            ok = False
        elif first != head:
            print(f"REJECTED: {name} carries a different hash", file=out)
            ok = False
        elif name not in digests:
            print(f"REJECTED: {name} has no digest in meta.json", file=out)
            ok = False
        elif digest != digests[name]:
            print(f"REJECTED: {name} does not match its digest in meta.json", file=out)
            ok = False
        else:
            print(f"ok: {name}", file=out)
    if ok:
        print(f"verified: {declared}", file=out)
        return EXIT_OK
    return EXIT_VALIDATION


# -- argument parsing -------------------------------------------------------------


def _load_doc(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as e:
        raise ConfigError(f"config file {path} cannot be read: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise ConfigError(f"config file {path} is not UTF-8: byte {e.start} {e.reason}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from None


def _cfg_from_args(args) -> ExperimentConfig:
    doc = _load_doc(args.config)
    caps = doc.get("caps", {}) if isinstance(doc, dict) else None
    if args.cap_words is not None and isinstance(caps, dict):  # else load_config names the field
        doc["caps"] = {**caps, "words": args.cap_words}
    return load_config(doc, seed_override=args.seed)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stacklab",
        description="cut-and-stack tower simulator and sequence-entropy lab",
    )
    parser.add_argument("--version", action="version", version=f"stacklab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_out=True):
        p.add_argument("--config", required=True, help="experiment config (JSON)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument(
            "--workers", type=int, default=1,
            help="forked worker processes for blocked work, at most one per block; "
                 "serial where os.fork is missing (default 1)",
        )
        p.add_argument("--cap-words", type=int, default=None, dest="cap_words")
        if needs_out:
            p.add_argument("--out", required=True, help="output directory")

    p_desc = sub.add_parser("describe", help="print derived quantities, no heavy work")
    common(p_desc, needs_out=False)

    p_run = sub.add_parser("run", help="execute all configured operations")
    common(p_run)

    p_seq = sub.add_parser("seq", help="sampling-sequence diagnostics")
    seq_sub = p_seq.add_subparsers(dest="seq_command", required=True)
    for name in ("describe", "gaps", "kvalue"):
        sp = seq_sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--limit", type=int, default=None)
        if name == "kvalue":
            sp.add_argument("--r", type=int, required=True)
            sp.add_argument("--n", type=int, required=True)

    p_ent = sub.add_parser("entropy", help="entropy operations")
    ent_sub = p_ent.add_subparsers(dest="entropy_command", required=True)
    p_ent_run = ent_sub.add_parser("run")
    common(p_ent_run)

    p_markov = sub.add_parser("markov", help="companion chain and stationary vector")
    p_markov.add_argument("--period", type=int, required=True)

    p_gen = sub.add_parser("generic", help="genericness search")
    common(p_gen)

    p_bounds = sub.add_parser("bounds", help="balancing diagnostics")
    common(p_bounds)

    p_recipe = sub.add_parser("recipe", help="construction parameter bundles")
    p_recipe.add_argument("--name", required=True, choices=("poly", "nlog", "flex"))
    p_recipe.add_argument("--h", type=int, required=True)
    p_recipe.add_argument("--beta", required=True)
    p_recipe.add_argument("--alpha", default=None)
    p_recipe.add_argument("--kappa", default=None)
    p_recipe.add_argument("--L", type=int, default=None)
    p_recipe.add_argument("--gamma", default=None)
    p_recipe.add_argument("--eps", default=None)
    p_recipe.add_argument("--config", default=None, help="optional, supplies the sequence")
    p_recipe.add_argument("--seed", type=int, default=None)

    p_verify = sub.add_parser("verify", help="check report hashes in a run directory")
    p_verify.add_argument("--out", required=True)
    return parser


# The subcommands that execute the config's operations, and which ops each runs.
_EXECUTE_FILTERS = {
    "run": None,
    "entropy": ("entropy", "profile"),
    "generic": ("generic",),
    "bounds": ("bounds",),
}


def _dispatch(args) -> int:
    if args.command == "describe":
        describe(_cfg_from_args(args))
        return EXIT_OK
    if args.command in _EXECUTE_FILTERS:
        op_filter = _EXECUTE_FILTERS[args.command]
        reports = execute(_cfg_from_args(args), Path(args.out), args.workers, op_filter)
        if any(r.accepted is False for r in reports):
            raise SearchExhausted("no spacer sequence accepted within the trial cap")
        return EXIT_OK
    if args.command == "markov":
        rows = _run_markov(None, {"period": args.period}, 1).rows
        print("state,stationary,exact")
        for state, p, num, den in rows:
            print(f"{state},{fmt(p)},{num}/{den}")
        return EXIT_OK
    if args.command == "recipe":
        sequence = None
        if args.config:
            cfg = load_config(
                _load_doc(args.config), seed_override=args.seed, require_operations=False
            )
            sequence = cfg.sequence
        fields = ("name", "h", "beta", "alpha", "kappa", "L", "gamma", "eps")
        op = {name: getattr(args, name) for name in fields if getattr(args, name) is not None}
        bundle = recipe_bundle(op, sequence)
        print(f"recipe={bundle.name}")
        print(f"q={bundle.cuts}")
        print(f"N0={bundle.floor_length}")
        print(f"N={bundle.word_length}")
        print(f"m={bundle.dependence_range}")
        print(f"delta={bundle.deviation}")
        for note in bundle.notes:
            print(f"note: {note}")
        return EXIT_OK
    if args.command == "seq":
        return _dispatch_seq(args)
    if args.command == "verify":
        return verify(Path(args.out))
    raise ConfigError(f"unknown command {args.command!r}")


def _dispatch_seq(args) -> int:
    cfg = load_config(
        _load_doc(args.config), seed_override=args.seed, require_operations=False
    )
    if cfg.sequence is None:
        raise ConfigError("sequence: required for seq subcommands")
    seq = cfg.sequence
    limit = seq.horizon if args.limit is None else min(args.limit, seq.horizon)
    if args.seq_command == "describe":
        print(f"sequence: {seq.describe()}")
        if limit >= seq.n0 + 1:
            rep = dilation_diagnostic(seq, limit)
            print(f"max gap s_{limit} = {max(rep.gaps)}")
            print(f"dilating on horizon (heuristic): {rep.dilating}")
            for r in (1, 2, 4):
                # krug_K_estimate(seq, r, limit), from the terms listed once above
                k = Fraction(thickened_count(rep.gaps, r), len(rep.gaps) + 1)
                print(f"thickened density r={r}: {k.numerator}/{k.denominator} = {fmt(float(k))}")
        return EXIT_OK
    if args.seq_command == "gaps":
        print("index,value,gap")
        for row in _gap_rows(seq.n0, seq.terms(seq.n0, limit + 1)):
            print(",".join(map(str, row)))
        return EXIT_OK
    if args.seq_command == "kvalue":
        value = krug_K_estimate(seq, args.r, args.n)
        approx = fmt(as_float(value, "kvalue"))
        print("r,n,kvalue_exact,kvalue")
        print(f"{args.r},{args.n},{value.numerator}/{value.denominator},{approx}")
        return EXIT_OK
    raise ConfigError(f"unknown seq subcommand {args.seq_command!r}")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "workers", 1) < 1:
        parser.error(f"argument --workers: must be at least 1, got {args.workers}")
    try:
        code = _dispatch(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout (`| head`): it has what it wanted.  Point
        # stdout at devnull so the interpreter's last flush cannot fail too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except InvalidInput as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except ResourceGuard as e:
        print(f"resource guard: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except SearchExhausted as e:
        print(f"search exhausted: {e}", file=sys.stderr)
        return EXIT_EXHAUSTED


if __name__ == "__main__":
    sys.exit(main())
