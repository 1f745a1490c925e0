"""The benchmark's tracer (perfbench/tracing.py) against the program: its
wrappers must leave every output unchanged and still find the functions
whose spans the per-layer metrics read."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from stacklab import cli
from stacklab.config import load_config

ROOT = Path(__file__).resolve().parent.parent

# Heights 2, 4, 16, 256 and t_8 = 22: one op on each path with blocks but
# the distinct one.
DOC = {
    "stacking": {"initial_height": 2, "spacer_cap": 1,
                 "stages": [{"q": q, "spacers": [0] * (q - 1)} for q in (2, 4, 16)]},
    "sequence": {"kind": "power", "alpha": "3/2", "horizon": 64},
    "seed": 3,
    "operations": [
        {"op": "entropy", "stage": 4, "reference": 4, "length": 8},
        {"op": "entropy", "stage": 4, "reference": 1, "length": 8},
        {"op": "entropy", "stage": 4, "reference": 2, "length": 8, "method": "sampled",
         "count": 100},
    ],
}

# `Tracer.install()` rebinds functions in every stacklab module for good, so
# the traced run has a process of its own.  It prints the names of the
# spans recorded.
TRACED_RUN = """
import json, sys
from pathlib import Path
root, out, doc = Path(sys.argv[1]), Path(sys.argv[2]), json.loads(sys.argv[3])
sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
import tracing
from stacklab import cli, config
tracer = tracing.Tracer("test")
tracer.install()
cli.execute(config.load_config(doc), out)
print(json.dumps(sorted({record["name"] for record in tracer.records()})))
"""

# The spans whose records perfbench/tracing.py's `layer_metrics` reads
# for the config, tower, entropy and parallel layers.
READ_SPANS = ("config.load_config", "tower.valid_levels",
              "entropy.empirical_sequence_entropy", "parallel.run_blocks")


def _without_time(meta: dict) -> dict:
    return {key: value for key, value in meta.items() if key != "created_unix"}


def test_traced_run_writes_the_untraced_outputs_and_records_the_spans(tmp_path):
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    cli.execute(load_config(DOC), plain)
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(ROOT), str(traced), json.dumps(DOC)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    names = set(json.loads(proc.stdout))
    assert set(READ_SPANS) <= names
    meta = json.loads((plain / "meta.json").read_text())
    assert meta["paths"] == {"entropy.csv": ["distinct"], "entropy_2.csv": ["compressed"],
                             "entropy_3.csv": ["sampled"]}
    files = sorted(p.name for p in plain.iterdir())
    assert sorted(p.name for p in traced.iterdir()) == files
    for name in files:
        if name != "meta.json":
            assert (traced / name).read_bytes() == (plain / name).read_bytes(), name
    assert _without_time(json.loads((traced / "meta.json").read_text())) == _without_time(meta)
