"""Command-line harness tying construction, entropy runs, randomized
searches, and bound evaluations into reproducible experiments.

One experiment = one JSON config document.  Data outputs (CSV, summary)
are byte-deterministic for a fixed effective config; timestamps live only
in meta.json.  Every report embeds the config hash; `verify` rejects
mixed-provenance output directories.

Exit codes: 0 success, 2 validation error, 3 resource guard, 4 search
exhausted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import __version__, bounds as bounds_mod
from .config import (
    ConfigError,
    ExperimentConfig,
    canonical_json,
    load_config,
    parse_rational,
)
from .entropy import (
    EntropyError,
    WordCapExceeded,
    empirical_sequence_entropy,
    seq_entropy_upper_profile,
)
from .randomstacks import (
    build_markov_matrix,
    genericness_search,
    recipe_params,
    stationary_distribution,
    stationary_distribution_exact,
)
from .randomstacks.generic import GenericSearchError
from .randomstacks.markov import MarkovError
from .randomstacks.recipes import RecipeError
from .rng import BULK_RNG_ID, SPACER_RNG_ID
from .sequences import (
    SequenceError,
    dilation_diagnostic,
    krug_K_estimate,
    max_gap,
    sampling_offsets,
)
from .tower import (
    CodingSpec, ResourceGuard, TowerError, exact_plan, int64_decodes, valid_levels,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RESOURCE = 3
EXIT_EXHAUSTED = 4

LN2 = math.log(2.0)

_VALIDATION_ERRORS = (
    ConfigError,
    TowerError,
    SequenceError,
    EntropyError,
    bounds_mod.BoundsError,
    MarkovError,
    GenericSearchError,
    RecipeError,
)


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
    """One operation's tabular output plus its summary lines."""

    name: str
    header: tuple[str, ...]
    rows: list[tuple]
    summary: list[str]
    accepted: bool | None = None  # searches only
    paths: tuple[str, ...] = ()  # entropy paths taken, for meta.json only
    windows: tuple[int, ...] = ()  # windows decoded per entropy point, meta.json only


# -- operation runners ---------------------------------------------------------


def _coding_spec(op: dict) -> CodingSpec:
    return CodingSpec(reference=op.get("reference", 1), mode=op.get("mode", "base"))


def _run_entropy(cfg: ExperimentConfig, op: dict, workers: int) -> Report:
    spec = _coding_spec(op)
    stage = op["stage"]
    length = op["length"]
    method = op.get("method", "exact")
    res = empirical_sequence_entropy(
        cfg.stacking,
        spec,
        stage,
        cfg.sequence,
        length,
        method=method,
        sample_count=op.get("count"),
        seed=cfg.seed,
        word_cap=cfg.word_cap,
        workers=workers,
    )
    hist = res.histogram
    row = (
        length,
        stage,
        spec.reference,
        f"{method}/{spec.mode}",
        res.h_nats,
        res.h_per_sample,
        res.h_per_sample / LN2,
        hist.distinct_words,
        hist.coverage,
        cfg.seed,
    )
    header = (
        "N",
        "stage",
        "reference",
        "mode",
        "H_nats",
        "H_per_N",
        "H_per_N_bits",
        "distinct_words",
        "coverage",
        "seed",
    )
    summary = [
        f"entropy: stage={stage} reference={spec.reference} mode={method}/{spec.mode} "
        f"N={length} H_per_N={fmt(res.h_per_sample)} distinct={hist.distinct_words} "
        f"coverage={fmt(hist.coverage)}"
    ]
    return Report(
        name="entropy",
        header=header,
        rows=[row],
        summary=summary,
        paths=(hist.path,),
        windows=(hist.windows,),
    )


def _tau_from_op(cfg: ExperimentConfig, op: dict):
    heights = cfg.stacking.heights()
    rule = op.get("rule", "strict")
    cuts = _cuts_from_op(op)
    lam = parse_rational(op["lam"], "lam") if "lam" in op else None

    def tau(N: int) -> int:
        return bounds_mod.select_tau(heights, cfg.sequence, cuts, N, rule=rule, lam=lam)

    return tau


def _cuts_from_op(op: dict):
    """The op's cut schedule; `load_config` has checked its fields."""
    cuts = op.get("cuts", 1)
    if cuts == "power":
        return bounds_mod.power_cuts(
            parse_rational(op["alpha"], "cuts.alpha"),
            parse_rational(op["beta"], "cuts.beta"),
        )
    if cuts == "loglog":
        return bounds_mod.loglog_cuts()
    return bounds_mod.constant_cuts(op.get("c", 1) if cuts == "constant" else cuts)


def _run_profile(cfg: ExperimentConfig, op: dict, workers: int) -> Report:
    tau = _tau_from_op(cfg, op)
    points = seq_entropy_upper_profile(
        cfg.stacking,
        cfg.sequence,
        tau,
        op["lengths"],
        coding_mode=op.get("mode", "base"),
        workers=workers,
        word_cap=cfg.word_cap,
    )
    header = (
        "N",
        "stage",
        "H_nats",
        "H_per_N",
        "H_per_N_bits",
        "distinct_words",
        "coverage",
    )
    rows = [
        (
            p.length,
            p.stage,
            p.h_nats,
            p.h_per_sample,
            p.h_per_sample / LN2,
            p.distinct_words,
            p.coverage,
        )
        for p in points
    ]
    summary = [
        f"profile: N={points[0].length}..{points[-1].length} "
        f"H_per_N {fmt(points[0].h_per_sample)} -> {fmt(points[-1].h_per_sample)}"
    ]
    return Report(
        name="profile",
        header=header,
        rows=rows,
        summary=summary,
        paths=tuple(p.path for p in points),
        windows=tuple(p.windows for p in points),
    )


def _gap_rows(seq, limit: int) -> list[tuple]:
    """(index, value, gap) for the terms n0 .. limit; the first gap is blank."""
    values = [seq.generate(i) for i in range(seq.n0, limit + 1)]
    return [(seq.n0 + j, t, t - values[j - 1] if j else "") for j, t in enumerate(values)]


def _run_seq(cfg: ExperimentConfig, op: dict, workers: int) -> Report:
    seq = cfg.sequence
    limit = op.get("limit", seq.horizon)
    rows = _gap_rows(seq, min(limit, seq.horizon))
    summary = [f"seq: kind={seq.kind} n0={seq.n0} horizon={seq.horizon}"]
    if len(rows) >= 2:
        report = dilation_diagnostic(seq, min(limit, seq.horizon))
        summary.append(
            f"seq: dilation verdict (finite-horizon heuristic) = {report.dilating}"
        )
    return Report(name="seq", header=("index", "value", "gap"), rows=rows, summary=summary)


def _run_markov(cfg: ExperimentConfig, op: dict, workers: int) -> Report:
    H = op["period"]
    model = build_markov_matrix(H)
    pi = stationary_distribution(model)
    exact = stationary_distribution_exact(model)
    rows = [
        (i + 1, float(pi[i]), exact[i].numerator, exact[i].denominator)
        for i in range(H + 1)
    ]
    residual = max(
        abs(sum(float(model.rows[j][i]) * pi[j] for j in range(H + 1)) - pi[i])
        for i in range(H + 1)
    )
    summary = [
        f"markov: period={H} stationary head={fmt(float(pi[0]))} "
        f"tail={fmt(float(pi[-1]))} residual={residual:.3e}"
    ]
    return Report(
        name="markov",
        header=("state", "stationary", "exact_num", "exact_den"),
        rows=rows,
        summary=summary,
    )


def _run_generic(cfg: ExperimentConfig, op: dict, workers: int) -> Report:
    report = genericness_search(
        cfg.stacking,
        cfg.sequence,
        N=op["length"],
        N0=op["floor_length"],
        q=op["q"],
        alphabet=op["alphabet"],
        trial_cap=op["trial_cap"],
        seed=cfg.seed,
        evaluate_all=op.get("evaluate_all", False),
    )
    rows = [
        (
            r.trial,
            r.accepted,
            r.worst_count / r.valid_count,
            r.worst_cap / r.valid_count,
            report.analytic_bound,
        )
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
    return Report(
        name="generic",
        header=header,
        rows=rows,
        summary=summary,
        accepted=report.accepted is not None,
    )


def _phi_from_op(op: dict):
    """The op's growth gauge; `load_config` has checked its fields."""
    phi = op["phi"]
    if phi == "log":
        return bounds_mod.phi_log()
    gauge = bounds_mod.phi_power if phi == "power" else bounds_mod.phi_exp_power
    return gauge(parse_rational(op["beta"], "phi.beta"))


def _run_bounds(cfg: ExperimentConfig, op: dict, workers: int) -> Report:
    phi = _phi_from_op(op)
    cuts = _cuts_from_op(op)
    horizon = op["horizon"]
    profile = bounds_mod.balancing_profile(cfg.sequence, phi, cuts, horizon)
    heights = cfg.stacking.heights() if cfg.stacking is not None else None
    rows = []
    for r in profile.rows:
        tau = ""
        if heights is not None:
            try:
                tau = bounds_mod.select_tau(heights, cfg.sequence, cuts, r.n)
            except bounds_mod.BoundsError:
                tau = ""
        rows.append((r.n, r.c_n, r.diag_balance, r.diag_phi, r.diag_binom, tau))
    first, last = profile.rows[0], profile.rows[-1]
    summary = [
        f"bounds: n={first.n}..{last.n} balance {fmt(first.diag_balance)} -> "
        f"{fmt(last.diag_balance)}, phi-diag {fmt(first.diag_phi)} -> {fmt(last.diag_phi)}"
    ]
    return Report(
        name="bounds",
        header=("n", "c_n", "diag_balance", "diag_phi", "diag_binom", "tau"),
        rows=rows,
        summary=summary,
    )


def _recipe_bundle(op: dict, sequence):
    """`recipe_params` on the op's fields; those it lacks take its defaults."""
    rationals = {
        name: parse_rational(op[name], name)
        for name in ("beta", "alpha", "gamma", "eps", "kappa")
        if name in op
    }
    return recipe_params(op["name"], h=op["h"], L=op.get("L"), A=sequence, **rationals)


def _run_recipe(cfg: ExperimentConfig, op: dict, workers: int) -> Report:
    bundle = _recipe_bundle(op, cfg.sequence)
    header = (
        "name",
        "N0",
        "N",
        "q",
        "m",
        "delta",
        "t_N",
        "p_fail_horizon_floor",
        "p_fail_range_floor",
    )
    row = (
        bundle.name,
        bundle.floor_length,
        bundle.word_length,
        bundle.cuts,
        bundle.dependence_range,
        bundle.deviation,
        bundle.horizon_term,
        bundle.p_fail_horizon_floor,
        bundle.p_fail_range_floor,
    )
    summary = [
        f"recipe {bundle.name}: q={bundle.cuts} N={bundle.word_length} "
        f"N0={bundle.floor_length}"
    ]
    summary.extend(f"recipe note: {note}" for note in bundle.notes)
    return Report(name="recipe", header=header, rows=[row], summary=summary)


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


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_csv(path: Path, header: tuple[str, ...], rows, cfg_hash: str) -> None:
    lines = [f"# config_hash={cfg_hash}", ",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(x) for x in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def execute(
    cfg: ExperimentConfig, outdir: Path, workers: int = 1, op_filter: tuple[str, ...] | None = None
) -> list[Report]:
    """Run the config's operations and write the report bundle."""
    outdir.mkdir(parents=True, exist_ok=True)
    cfg_hash = cfg.hash
    reports: list[Report] = []
    filenames: list[str] = []
    seen: dict[str, int] = {}
    summary_lines = [f"# config_hash={cfg_hash}", f"seed={cfg.seed}"]
    for op in cfg.operations:
        if op_filter is not None and op["op"] not in op_filter:
            continue
        report = _RUNNERS[op["op"]](cfg, op, workers)
        seen[report.name] = seen.get(report.name, 0) + 1
        suffix = "" if seen[report.name] == 1 else f"_{seen[report.name]}"
        filename = f"{report.name}{suffix}.csv"
        _write_csv(outdir / filename, report.header, report.rows, cfg_hash)
        filenames.append(filename)
        summary_lines.extend(report.summary)
        reports.append(report)
    if not reports:
        raise ConfigError("operations: nothing to run after filtering")
    (outdir / "summary.txt").write_text("\n".join(summary_lines) + "\n", encoding="utf-8")
    (outdir / "config.json").write_text(canonical_json(cfg.doc) + "\n", encoding="utf-8")
    digests = {name: _sha256(outdir / name) for name in filenames + ["summary.txt"]}
    meta = {
        "tool": "stacklab",
        "version": __version__,
        "config_hash": cfg_hash,
        "seed": cfg.seed,
        "workers": workers,
        "rng": {"spacer": SPACER_RNG_ID, "bulk": BULK_RNG_ID},
        "outputs": filenames,
        "paths": {name: list(r.paths) for name, r in zip(filenames, reports) if r.paths},
        "windows": {name: list(r.windows) for name, r in zip(filenames, reports) if r.windows},
        "sha256": digests,
        "created_unix": time.time(),
    }
    (outdir / "meta.json").write_text(
        json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return reports


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
    for i, op in enumerate(cfg.operations):
        kind = op["op"]
        print(f"[{i}] op={kind}")
        if kind == "entropy" and cfg.stacking is not None:
            offsets = sampling_offsets(cfg.sequence, op["length"])
            K = valid_levels(cfg.stacking, op["stage"], offsets[-1] if offsets else 0)
            spec = _coding_spec(op)
            if op.get("method", "exact") != "exact":
                path, windows = "sampled", op["count"]
            else:
                path, windows, _ = exact_plan(K, spec, offsets)
            print(
                f"    stage={op['stage']} reference={spec.reference} "
                f"|K|={K.count} coverage={fmt(K.coverage)} "
                f"alphabet={spec.alphabet_size(cfg.stacking)} path={path} windows={windows} "
                f"decoder={'int64' if int64_decodes(cfg.stacking, op['stage']) else 'bigint'}"
            )
        elif kind == "generic":
            h_n = cfg.stacking.heights()[-1]
            print(
                f"    q={op['q']} candidate height >= {op['q'] * h_n} "
                f"trial_cap={op['trial_cap']}"
            )
        elif kind == "recipe":
            rep = _run_recipe(cfg, op, 1)
            for line in rep.summary:
                print(f"    {line}")
        elif kind == "markov":
            print(f"    period={op['period']}")


def verify(outdir: Path, out=None) -> int:
    """Check that every report in a run directory matches its config hash
    and the SHA-256 digest recorded for it in meta.json."""
    out = out if out is not None else sys.stdout
    meta_path = outdir / "meta.json"
    config_path = outdir / "config.json"
    if not meta_path.exists() or not config_path.exists():
        print("REJECTED: missing meta.json or config.json", file=out)
        return EXIT_VALIDATION
    docs = []
    for path in (meta_path, config_path):
        try:
            docs.append(json.loads(path.read_text(encoding="utf-8")))
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
    from .config import config_hash as hash_fn

    actual = hash_fn(config_doc)
    ok = True
    if actual != declared:
        print(f"REJECTED: config.json hashes to {actual}, meta says {declared}", file=out)
        ok = False
    csvs = {p.name for p in outdir.glob("*.csv")} | set(outputs)
    for name in sorted(csvs) + ["summary.txt"]:
        path = outdir / name
        if not path.is_file():
            print(f"REJECTED: {name} is missing", file=out)
            ok = False
        elif path.read_text(encoding="utf-8").split("\n", 1)[0] != f"# config_hash={declared}":
            print(f"REJECTED: {name} carries a different hash", file=out)
            ok = False
        elif name not in digests:
            print(f"REJECTED: {name} has no digest in meta.json", file=out)
            ok = False
        elif _sha256(path) != digests[name]:
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
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from None


def _cfg_from_args(args) -> ExperimentConfig:
    doc = _load_doc(args.config)
    if getattr(args, "cap_words", None) is not None:
        doc.setdefault("caps", {})["words"] = args.cap_words
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
        p.add_argument("--workers", type=int, default=1)
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
        bundle = _recipe_bundle(op, sequence)
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
    limit = args.limit or seq.horizon
    limit = min(limit, seq.horizon)
    if args.seq_command == "describe":
        print(f"sequence: {seq.describe()}")
        if limit >= seq.n0 + 1:
            rep = dilation_diagnostic(seq, limit)
            print(f"max gap s_{limit} = {max_gap(seq, limit)}")
            print(f"dilating on horizon (heuristic): {rep.dilating}")
            for r in (1, 2, 4):
                k = krug_K_estimate(seq, r, limit)
                print(f"thickened density r={r}: {k.numerator}/{k.denominator} = {fmt(float(k))}")
        return EXIT_OK
    if args.seq_command == "gaps":
        print("index,value,gap")
        for row in _gap_rows(seq, limit):
            print(",".join(map(str, row)))
        return EXIT_OK
    if args.seq_command == "kvalue":
        value = krug_K_estimate(seq, args.r, args.n)
        print("r,n,kvalue_exact,kvalue")
        print(f"{args.r},{args.n},{value.numerator}/{value.denominator},{fmt(float(value))}")
        return EXIT_OK
    raise ConfigError(f"unknown seq subcommand {args.seq_command!r}")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except _VALIDATION_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ResourceGuard, WordCapExceeded) as e:
        print(f"resource guard: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except SearchExhausted as e:
        print(f"search exhausted: {e}", file=sys.stderr)
        return EXIT_EXHAUSTED


if __name__ == "__main__":
    sys.exit(main())
