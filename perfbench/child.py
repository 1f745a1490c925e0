"""One benchmark iteration in a fresh process.

Usage: python3 perfbench/child.py '<json spec>'

The spec names the checkout root, the workload, the program seed, the
worker count, an output directory, the phase ("setup" or "run") and an
optional span-dump path that turns tracing on.  The process times its own
set-up (importing stacklab, `load_config`, `StackingData.heights()`), then
the workload's operations, and prints one JSON line with the timings, the
peak resident set of itself and its pool workers, and the outputs to be
checked against the goldens.  A fresh process per iteration keeps one
iteration's imports, caches and memory out of the next one's numbers.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; the children are the pool workers.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def _outputs(outdir: Path) -> dict[str, str]:
    if not outdir.is_dir():
        return {}
    names = sorted(p.name for p in outdir.glob("*.csv")) + ["summary.txt"]
    return {n: (outdir / n).read_text(encoding="utf-8") for n in names if (outdir / n).exists()}


def main(spec: dict) -> dict:
    import workloads  # beside this script, so first on sys.path

    root = Path(spec["root"])
    doc = workloads.config_doc(spec["workload"], spec["seed"])
    mc_kwargs = workloads.mc_call(spec["workload"], spec["seed"])
    workers = spec["workers"]

    t0 = time.perf_counter()
    sys.path.insert(0, str(root / "src"))
    import stacklab  # noqa: F401
    from stacklab import cli, config
    from stacklab.randomstacks import markov

    tracer = None
    if spec.get("trace"):
        import tracing

        t_install = time.perf_counter()
        tracer = tracing.Tracer(spec["run_id"])
        tracer.install()
        t0 += time.perf_counter() - t_install
    cfg = config.load_config(doc)
    cfg.stacking.heights()
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s}
    if spec["phase"] == "setup":
        return result

    outdir = Path(spec["outdir"])
    errors: dict[str, str] = {}
    verify_out = io.StringIO()
    verify_rc = None
    mc = None
    t1 = time.perf_counter()
    try:
        cli.execute(cfg, outdir, workers)
    except Exception:
        errors["execute"] = traceback.format_exc()
    try:
        verify_rc = cli.verify(outdir, out=verify_out)
    except Exception:
        errors["verify"] = traceback.format_exc()
    if mc_kwargs is not None:
        try:
            mc = markov.conditional_limits_mc(**mc_kwargs, workers=workers)
        except Exception:
            errors["mc"] = traceback.format_exc()
    run_s = time.perf_counter() - t1
    result.update(
        run_s=run_s,
        peak_rss_mb=_peak_rss_mb(),
        files=_outputs(outdir),
        verify={"rc": verify_rc, "out": verify_out.getvalue()},
        mc=None if mc is None else [f"{k}: {v!r}" for k, v in mc.items()],
        errors=errors,
    )
    if tracer is not None:
        tracer.dump(Path(spec["trace"]))
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
