"""stacklab benchmark: three experiment workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

  python3 perfbench/run.py --workload exact-squaring --seed 0 --seconds 40 --trace 0

measures the workload for about --seconds seconds and prints, as its last
line, one JSON object with `correct`, `attempted`, `failed` and the
end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).

  python3 perfbench/run.py --report [--out FILE]

runs every workload at the default and the held-out seed plus one traced
run each, prints every metric by name with its unit and sample count,
runs the known-failure probe and writes a results file with provenance.

  python3 perfbench/run.py --selftest

checks that a one-byte change in a golden output makes the error rate
nonzero, that traced outputs equal untraced ones byte for byte, and that
every count metric repeats exactly across two traced runs.

  python3 perfbench/run.py --capture

regenerates the golden outputs from the checked-out program; the
committed goldens come from commit 566bdc8.

Every iteration runs in a fresh process (child.py), so set-up time
includes the import and peak RSS belongs to that iteration alone.

`run_s` and `setup_s` are scaled to a nominal machine speed.  On the
two-core reference machine the speed of the same code drifts by up to a
factor of two within minutes, with load from outside the benchmark, and
a process's CPU time drifts with its wall time: the cores themselves run
slower.  While each timed iteration runs, and again while the set-up
processes after it run, a thread of this process times a tiny fixed
kernel that uses no stacklab code every PROBE_PERIOD_S (see
`SpeedProbe`).  The kernel time is the thread's CPU time, so waiting for
a core that the program keeps busy does not count: on the reference
machine it reads within about 1% of its idle value with one or both
cores kept busy.  The reported times are the wall times multiplied by
PROBE_NOMINAL_S / (mean kernel time over the same interval);
PROBE_NOMINAL_S is about the kernel's time on the reference machine, so
the scaled times read close to its wall times.  The raw wall times and
probe times are kept and printed beside them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from bisect import bisect_right
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

GOLDEN = HERE / "golden"
RESULTS = HERE / "results"
SCRATCH = ROOT / ".perfbench"
CHILD_TIMEOUT_S = 170.0
SETUPS_PER_ITERATION = 2
TRACE_PAIRS = 3
PROBE_PERIOD_S = 0.05
PROBE_NOMINAL_S = 0.0017

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MiB", "success_rate": "ratio"}
# Every sample series a timed run keeps; run_s and setup_s are speed-scaled.
SAMPLE_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MiB", "wall_setup_s": "s",
                "wall_run_s": "s", "probe_s": "s"}


class ChildFailed(RuntimeError):
    """An iteration process exited abnormally or timed out."""


def spawn(spec: dict, timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run one iteration in a fresh process group and wait for all of it."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        out, err = "", f"iteration exceeded {timeout:.0f} s"
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stray pool workers, if any
        except ProcessLookupError:
            pass
        proc.communicate()
    if proc.returncode != 0 or not out.strip():
        raise ChildFailed(err.strip().splitlines()[-1] if err.strip() else "no output")
    return json.loads(out.strip().splitlines()[-1])


def load_goldens(workload: str) -> dict:
    return json.loads((GOLDEN / f"{workload}.json").read_text(encoding="utf-8"))


def check(result: dict, golden: dict) -> list[tuple[str, bool]]:
    """(operation, ok) for every checked output of one iteration.

    The operations are each CSV report, summary.txt, the verify call and
    the Monte Carlo call; one that raised leaves its output missing.
    """
    want, got = golden["files"], result.get("files", {})
    ops = [(name, got.get(name) == want.get(name)) for name in sorted(set(want) | set(got))]
    ops.append(("verify", result.get("verify") == golden["verify"]))
    if golden["mc"] is not None:
        ops.append(("mc", result.get("mc") == golden["mc"]))
    return ops


class Session:
    """One workload at one seed: spawns iterations and tallies their checks."""

    def __init__(self, workload: str, seed: int, goldens: dict | None, tag: str):
        self.workload = workload
        self.seed = workloads.program_seed(seed)
        self.workers = workloads.WORKERS.get(workload, 1)
        self.golden = None if goldens is None else goldens["seeds"][str(self.seed)]
        self.dir = SCRATCH / f"{workload}-{os.getpid()}-{tag}"
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []

    def spec(self, phase: str, workers: int | None = None, trace: bool = False) -> dict:
        self.count += 1
        spec = {
            "root": str(ROOT),
            "workload": self.workload,
            "seed": self.seed,
            "workers": self.workers if workers is None else workers,
            "phase": phase,
            "outdir": str(self.dir / f"out{self.count}"),
        }
        if trace:
            spec["trace"] = str(self.dir / f"spans{self.count}.json")
            spec["run_id"] = f"{self.workload}/{self.seed}/w{spec['workers']}/{self.count}"
        return spec

    def setup(self) -> float:
        return spawn(self.spec("setup"))["setup_s"]

    def iterate(self, workers: int | None = None, trace: bool = False) -> dict | None:
        """One checked iteration; None when the process itself failed."""
        spec = self.spec("run", workers, trace)
        ops = len(check({}, self.golden)) if self.golden else 1
        try:
            result = spawn(spec)
        except ChildFailed as e:
            self.attempted += ops
            self.failed += ops
            self.mismatches.append(f"iteration failed: {e}")
            return None
        if self.golden is not None:
            for name, ok in check(result, self.golden):
                self.attempted += 1
                if not ok:
                    self.failed += 1
                    self.mismatches.append(name)
        for where, text in result["errors"].items():
            self.mismatches.append(f"{where} raised: {text.strip().splitlines()[-1]}")
        if trace:
            result["spans"] = json.loads(Path(spec["trace"]).read_text(encoding="utf-8"))
        return result

    def __enter__(self):
        self.dir.mkdir(parents=True, exist_ok=True)
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass


def _probe_kernel() -> None:
    # The kinds of work stacklab does: bisection, tuple keys, dict counts, SHA-256.
    starts = list(range(0, 1 << 12, 37))
    table: dict[tuple[int, int], int] = {}
    for i in range(2000):
        k = bisect_right(starts, (i * 40503) & 0xFFF)
        key = (k & 63, i & 3)
        table[key] = table.get(key, 0) + 1
        if i & 3 == 0:
            hashlib.sha256(i.to_bytes(32, "big")).digest()


class SpeedProbe:
    """Times `_probe_kernel` every PROBE_PERIOD_S on a thread while child
    processes work, so the mean kernel time tracks the machine's speed over
    exactly that interval.  Each sample is the thread's CPU time, which
    leaves out the time it waits for a core.  Its duty cycle is about 4%
    of one core."""

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(PROBE_PERIOD_S):
            self._sample()

    def _sample(self) -> None:
        start = time.thread_time()
        _probe_kernel()
        self.samples.append(time.thread_time() - start)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        if not self.samples:
            self._sample()

    @property
    def mean_s(self) -> float:
        return statistics.fmean(self.samples)

    @property
    def scale(self) -> float:
        """Converts a wall time measured under the probe to nominal speed."""
        return PROBE_NOMINAL_S / self.mean_s


def measure(workload: str, seed: int, seconds: float, goldens: dict) -> dict:
    """Timed iterations until the next one would pass `seconds`; tracing off.

    Each iteration is followed by SETUPS_PER_ITERATION set-up-only
    processes.  The iteration and the set-ups each have their own probe,
    which scales their wall times to the nominal machine speed.
    """
    with Session(workload, seed, goldens, "timed") as s:
        start = time.perf_counter()
        deadline = start + seconds
        s.setup()  # untimed warm-up: bytecode and file caches
        samples: dict[str, list[float]] = {k: [] for k in SAMPLE_UNITS}
        walls = []
        while True:
            t = time.perf_counter()
            with SpeedProbe() as probe:
                result = s.iterate()
            if result is None:
                break
            with SpeedProbe() as setup_probe:
                setups = [s.setup() for _ in range(SETUPS_PER_ITERATION)]
            samples["probe_s"].append(probe.mean_s)
            samples["wall_run_s"].append(result["run_s"])
            samples["run_s"].append(result["run_s"] * probe.scale)
            samples["peak_rss_mb"].append(result["peak_rss_mb"])
            samples["wall_setup_s"].extend(setups)
            samples["setup_s"].extend(x * setup_probe.scale for x in setups)
            walls.append(time.perf_counter() - t)
            if time.perf_counter() + statistics.median(walls) > deadline:
                break
        return {
            "workload": workload,
            "seed": seed,
            "program_seed": s.seed,
            "workers": s.workers,
            "seconds": time.perf_counter() - start,
            "attempted": s.attempted,
            "failed": s.failed,
            "mismatches": s.mismatches,
            "samples": samples,
        }


def end_to_end(m: dict) -> dict:
    s = m["samples"]
    return {
        "setup_s": statistics.median(s["setup_s"]),
        "run_s": statistics.median(s["run_s"]),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"]),
        "success_rate": 1.0 - m["failed"] / m["attempted"],
    }


def traced(workload: str, seed: int, goldens: dict) -> dict:
    """Per-layer metrics: TRACE_PAIRS alternating untraced and traced
    iterations at the workload's worker count, then a traced workers=1
    replay.  `trace.overhead_s` is the median of the pairs' run_s
    differences, so that the machine's drift between pairs cancels."""
    with Session(workload, seed, goldens, "traced") as s:
        s.setup()
        pairs = [(s.iterate(), s.iterate(trace=True)) for _ in range(TRACE_PAIRS)]
        run = pairs[-1][1]
        replay = run if s.workers == 1 else s.iterate(workers=1, trace=True)
        if replay is None or None in (r for pair in pairs for r in pair):
            return {"attempted": s.attempted, "failed": s.failed, "mismatches": s.mismatches,
                    "metrics": None}
        # Tracing must not change a single output byte.
        plain = pairs[0][0]
        for other in [t for _, t in pairs] + ([] if replay is run else [replay]):
            s.attempted += 1
            if [other[k] for k in ("files", "verify", "mc")] != [
                plain[k] for k in ("files", "verify", "mc")
            ]:
                s.failed += 1
                s.mismatches.append("traced output differs from untraced output")
        overhead = statistics.median(t["run_s"] - p["run_s"] for p, t in pairs)
        metrics = tracing.layer_metrics(replay["spans"], run["spans"], overhead)
        return {"attempted": s.attempted, "failed": s.failed, "mismatches": s.mismatches,
                "metrics": metrics}


def known_failure() -> dict:
    """The known ROADMAP 4a defect: sampled mode above 2**64 levels."""
    with Session(workloads.PROBE_NAME, workloads.DEFAULT_SEED, None, "probe") as s:
        result = s.iterate()
    if result is None:
        return {"name": workloads.PROBE_NAME, "status": "process failed",
                "error": s.mismatches[-1]}
    error = result["errors"].get("execute")
    return {
        "name": workloads.PROBE_NAME,
        "status": "known failure" if error else "passes",
        "error": error.strip().splitlines()[-1] if error else None,
    }


# -- modes ------------------------------------------------------------------


def _check_program(need_goldens: bool) -> None:
    if not (ROOT / "src" / "stacklab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no stacklab sources under {ROOT / 'src'}; run from a checkout")
    if need_goldens and not GOLDEN.is_dir():
        sys.exit(f"perfbench: golden outputs missing in {GOLDEN}")


def run_workload(args) -> int:
    goldens = load_goldens(args.workload)
    if args.trace:
        t = traced(args.workload, args.seed, goldens)
        if t["metrics"] is None:
            print(f"perfbench: {args.workload}: {t['mismatches']}", file=sys.stderr)
            return 1
        metrics = {k: {"value": v, "unit": tracing.UNITS[k]} for k, v in t["metrics"].items()}
        attempted, failed, mismatches = t["attempted"], t["failed"], t["mismatches"]
    else:
        m = measure(args.workload, args.seed, args.seconds, goldens)
        if not m["samples"]["run_s"]:
            print(f"perfbench: {args.workload}: {m['mismatches']}", file=sys.stderr)
            return 1
        e2e = end_to_end(m)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
        attempted, failed, mismatches = m["attempted"], m["failed"], m["mismatches"]
        print(
            f"{args.workload} seed={args.seed}: "
            + ", ".join(f"{k}={v:.6g}" for k, v in e2e.items())
            + ", wall: "
            + ", ".join(
                f"{k}={statistics.median(m['samples'][k]):.6g}"
                for k in ("wall_run_s", "wall_setup_s", "probe_s")
            )
            + f" (n={len(m['samples']['run_s'])} runs, {len(m['samples']['setup_s'])} set-ups)"
        )
    for line in mismatches:
        print(f"perfbench: {args.workload}: mismatch: {line}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples above it."""
    n = len(values)
    if n <= 10:
        return None
    ordered = sorted(values)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def provenance(seeds, seconds) -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        commit = done.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "seeds": list(seeds),
        "program_seeds": [workloads.program_seed(s) for s in seeds],
        "workers": dict(workloads.WORKERS),
        "seconds": seconds,
        "date_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def report(args) -> int:
    seeds = (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED)
    out = {"provenance": provenance(seeds, args.seconds), "workloads": {}}
    ok = True
    for w in workloads.WORKLOADS:
        goldens = load_goldens(w)
        runs = [measure(w, seed, args.seconds, goldens) for seed in seeds]
        layer = traced(w, workloads.DEFAULT_SEED, goldens)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        ok &= failed == 0 and layer["failed"] == 0
        print(f"\n== {w}  (workers {workloads.WORKERS[w]}; {workloads.WHY[w]})")
        for key, unit in SAMPLE_UNITS.items():
            pooled = [v for r in runs for v in r["samples"][key]]
            tail = tail_percentile(pooled)
            tail_txt = f"p{tail[0]:.0f} {tail[1]:.4f}" if tail else "no tail percentile"
            per_seed = ", ".join(
                f"seed {r['seed']}: {statistics.median(r['samples'][key]):.4f}" for r in runs
            )
            print(f"  {key:<12} median {statistics.median(pooled):.4f} {unit}, {tail_txt} "
                  f"(n={len(pooled)}; {per_seed})")
        print(f"  {'error_rate':<12} {failed / attempted:.4f} ratio "
              f"({failed} failed of {attempted} operations)")
        for r in runs:
            for line in r["mismatches"]:
                print(f"  mismatch (seed {r['seed']}): {line}")
        print(f"  per-layer (traced, seed {workloads.DEFAULT_SEED}):")
        for key, value in (layer["metrics"] or {}).items():
            print(f"    {key:<30} {value:.6g} {tracing.UNITS[key]}")
        out["workloads"][w] = {
            "why": workloads.WHY[w],
            "timed": [dict(r, metrics=end_to_end(r)) for r in runs],
            "error_rate": failed / attempted,
            "traced": layer,
        }
    out["probes"] = [known_failure()]
    for p in out["probes"]:
        print(f"\nprobe {p['name']}: {p['status']}" + (f" ({p['error']})" if p["error"] else ""))
    target = Path(args.out) if args.out else RESULTS / "latest.json"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"\nwrote {target}")
    return 0 if ok else 1


def selftest(args) -> int:
    failures = []
    # 1. A one-byte change in a golden output must make the error rate nonzero.
    w = "sampled-seeded"
    goldens = load_goldens(w)
    key = str(workloads.program_seed(workloads.DEFAULT_SEED))
    text = goldens["seeds"][key]["files"]["summary.txt"]
    flipped = json.loads(json.dumps(goldens))
    flipped["seeds"][key]["files"]["summary.txt"] = text[:-2] + chr(ord(text[-2]) ^ 1) + text[-1]
    for label, g, want_failed in (("intact", goldens, False), ("one byte flipped", flipped, True)):
        with Session(w, workloads.DEFAULT_SEED, g, "selftest") as s:
            s.iterate()
        rate = s.failed / s.attempted
        print(f"golden gate, {label}: error_rate {rate:.4f} ({s.failed}/{s.attempted})")
        if (rate > 0) != want_failed:
            failures.append(f"golden gate ({label})")
    # 2. Traced outputs equal untraced ones; counts repeat exactly.
    for w in workloads.WORKLOADS:
        goldens = load_goldens(w)
        first = traced(w, workloads.DEFAULT_SEED, goldens)
        second = traced(w, workloads.DEFAULT_SEED, goldens)
        for t in (first, second):
            if t["failed"] or t["metrics"] is None:
                failures.append(f"{w}: traced run: {t['mismatches']}")
        if first["metrics"] and second["metrics"]:
            diff = [k for k in tracing.COUNT_METRICS
                    if first["metrics"][k] != second["metrics"][k]]
            print(f"{w}: traced outputs byte-identical: {not first['failed']}; "
                  f"counts repeat: {not diff}")
            if diff:
                failures.append(f"{w}: counts differ: {diff}")
    print("selftest: " + ("FAILED " + "; ".join(failures) if failures else "ok"))
    return 1 if failures else 0


def capture(args) -> int:
    GOLDEN.mkdir(exist_ok=True)
    commit = provenance((), 0)["git_commit"]
    for w in workloads.WORKLOADS:
        seeds = {}
        for seed in range(workloads.POOL_SIZE):
            with Session(w, seed, None, "capture") as s:
                result = s.iterate()
            if result is None or result["errors"]:
                print(f"capture {w} seed {seed} failed: {s.mismatches}", file=sys.stderr)
                return 1
            seeds[str(seed)] = {k: result[k] for k in ("files", "verify", "mc")}
            print(f"captured {w} seed {seed}", flush=True)
        doc = {"workload": w, "commit": commit, "seeds": seeds}
        (GOLDEN / f"{w}.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--report", action="store_true")
    p.add_argument("--out", default=None, help="results file of --report")
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--capture", action="store_true")
    args = p.parse_args(argv)
    _check_program(need_goldens=not args.capture)
    if args.capture:
        return capture(args)
    if args.report:
        return report(args)
    if args.selftest:
        return selftest(args)
    if args.workload is None:
        p.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
