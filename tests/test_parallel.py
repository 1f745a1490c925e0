"""The forked block pool of `parallel.run_blocks`: results in block order,
block errors raised at their turn, no child left behind, and the same
bytes at any worker count.  Each pool runs in a fresh interpreter under a
timeout, so a pool that hangs fails its test instead of stalling the suite."""

from __future__ import annotations

import importlib
import inspect
import json
import os
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import stacklab
from stacklab import cli, parallel
from stacklab.tower import OrbitEscape, WordCapExceeded

SRC = Path(__file__).resolve().parents[1] / "src"

# Counts the children `run_blocks` forks; `left()` lists those not reaped.
PREAMBLE = """
import json, os
from stacklab import parallel
from stacklab.intarith import ResourceGuard
from stacklab.tower import TowerError

forked = []
_fork = os.fork


def _recording_fork():
    pid = _fork()
    if pid:
        forked.append(pid)
    return pid


os.fork = _recording_fork


def left():
    out = []
    for pid in forked:
        try:
            os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            continue
        out.append(pid)
    return out


def run(fn, blocks, workers):
    got = []
    try:
        for result in parallel.run_blocks(fn, blocks, workers):
            got.append(result)
    except (TowerError, ResourceGuard) as error:
        return got, [type(error).__name__, str(error)]
    return got, None
"""


def _run(body: str) -> dict:
    """The JSON that `body`, after PREAMBLE, prints in a fresh interpreter."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", PREAMBLE + body], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_block_error_is_raised_at_its_turn():
    out = _run("""
def fn(b):
    if b == 3:
        raise TowerError(f"block {b} is malformed")
    return b * b

got, error = run(fn, range(8), 2)
print(json.dumps({"got": got, "error": error, "forked": len(forked), "left": left()}))
""")
    assert out["got"] == [0, 1, 4]
    assert out["error"] == ["TowerError", "block 3 is malformed"]
    assert out["forked"] == 2 and out["left"] == []


def test_closing_after_the_first_result_leaves_no_child():
    out = _run("""
import time

def fn(b):
    time.sleep(0.01)
    return b

blocks = parallel.run_blocks(fn, range(30), 3)
first = next(blocks)
blocks.close()
print(json.dumps({"first": first, "forked": len(forked), "left": left()}))
""")
    assert out == {"first": 0, "forked": 3, "left": []}


def test_child_that_exits_without_a_result_raises_resource_guard():
    out = _run("""
def fn(b):
    if b == 2:
        os._exit(7)
    return b

got, error = run(fn, range(6), 2)
print(json.dumps({"got": got, "error": error, "left": left()}))
""")
    assert out["got"] == [0, 1]
    name, message = out["error"]
    assert name == "ResourceGuard"
    assert "block 2 of 6" in message and f"wait status {7 << 8}" in message
    assert out["left"] == []


def test_without_fork_blocks_run_in_the_caller(monkeypatch):
    monkeypatch.delattr(os, "fork")
    out = list(parallel.run_blocks(lambda b: (b * b, os.getpid()), range(5), 3))
    assert out == [(b * b, os.getpid()) for b in range(5)]


def test_three_workers_give_the_bytes_of_one():
    # Each histogram and the Monte Carlo run span more than three blocks,
    # so workers=3 forks three children.
    out = _run("""
import hashlib, pickle
from stacklab.parallel import BLOCK_SIZE
from stacklab.randomstacks.markov import _MC_BLOCK, conditional_limits_mc
from stacklab.tower import CodingSpec, Stage, StackingData, blocked_word_counts, exact_plan, valid_levels

sd = StackingData(30000, (Stage(q=3, spacers=(1, 0)), Stage(q=2, spacers=(1,))), spacer_cap=2)
spec, offsets = CodingSpec(1, "refined"), (0, 2, 5, 9)
levels = valid_levels(sd, 3, offsets[-1])
path, plan, windows = exact_plan(levels, spec, offsets)
runs = {
    "enumerated": (levels, levels.count, None),
    "compressed": (plan, windows, None),
    "sampled": (levels, 5 * BLOCK_SIZE + 3, 4),
}
out = {"path": path, "blocks": {k: -(-total // BLOCK_SIZE) for k, (_, total, _) in runs.items()}}
for name, (plan, total, seed) in runs.items():
    out[name] = [
        hashlib.sha256(pickle.dumps(list(blocked_word_counts(
            spec, plan, total, offsets, workers=w, seed=seed).items()))).hexdigest()
        for w in (1, 3)
    ]
kwargs = dict(h=2, pattern=(0,), l0=1, separation=100, samples=3 * _MC_BLOCK + 1000, seed=4)
out["mc"] = [repr(sorted(conditional_limits_mc(**kwargs, workers=w).items())) for w in (1, 3)]
out["left"] = left()
print(json.dumps(out))
""")
    assert out["path"] == "compressed"
    assert min(out["blocks"].values()) > 3
    for name in ("enumerated", "compressed", "sampled", "mc"):
        one, three = out[name]
        assert one == three, name
    assert out["left"] == []


def test_every_error_class_survives_pickling():
    # Block errors cross a pipe pickled; a class whose __init__ takes other
    # arguments than its message needs a __reduce__ to come back whole.
    args = {WordCapExceeded: (5,), OrbitEscape: (3, 40, 38)}
    errors = [
        cls
        for info in pkgutil.walk_packages(stacklab.__path__, "stacklab.")
        for _, cls in inspect.getmembers(importlib.import_module(info.name), inspect.isclass)
        if issubclass(cls, BaseException) and cls.__module__ == info.name
    ]
    assert len(errors) >= 13 and cli.SearchExhausted in errors
    for cls in errors:
        error = cls(*args.get(cls, ("a message",)))
        back = pickle.loads(pickle.dumps(error))
        assert type(back) is cls and str(back) == str(error), cls
    assert pickle.loads(pickle.dumps(WordCapExceeded(5))).cap == 5
