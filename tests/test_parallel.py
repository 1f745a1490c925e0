"""The forked block pool of `parallel.run_blocks`: results in block order,
block errors raised at their turn, no child or file descriptor left
behind, and the same bytes at any worker count.  Each pool runs in a
fresh interpreter under a timeout, so a pool that hangs fails its test
instead of stalling the suite, and in development mode with resource
warnings as errors, so an unclosed pipe reader fails it too."""

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

import pytest

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


# Open descriptors: a raw pipe end left open raises no ResourceWarning, so
# each pool compares them before and after.
def fds():
    return sorted(os.listdir("/proc/self/fd"))


def run(fn, blocks, workers):
    got, before = [], fds()
    try:
        for result in parallel.run_blocks(fn, blocks, workers):
            got.append(result)
    except (TowerError, ResourceGuard) as error:
        return got, [type(error).__name__, str(error)]
    finally:
        assert fds() == before, f"the pool left descriptors open: {before} -> {fds()}"
    return got, None
"""


def _run(body: str) -> dict:
    """The JSON that `body`, after PREAMBLE, prints in a fresh interpreter."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c", PREAMBLE + body],
        capture_output=True, text=True, env=env, timeout=120,
    )
    # A warning raised in a finalizer is printed, not raised: stderr must be empty.
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
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

before = fds()
blocks = parallel.run_blocks(fn, range(30), 3)
first = next(blocks)
blocks.close()
print(json.dumps({"first": first, "forked": len(forked), "left": left(),
                  "fds": fds() == before}))
""")
    assert out == {"first": 0, "forked": 3, "left": [], "fds": True}


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


@pytest.mark.parametrize("call", ["fork", "pipe"])
def test_a_worker_that_cannot_start_raises_resource_guard(call):
    # Every second os.fork (or os.pipe) fails, as past a limit on processes
    # or open files.  The pool raises ResourceGuard naming the worker and
    # the reason, closes the failed worker's pipe, and kills the child
    # already forked; `stacklab run --workers 2` exits 3.
    out = _run(f"""
import contextlib, errno, io, shutil, tempfile
from pathlib import Path
from stacklab import cli

calls, real = [], os.{call}


def failing(*args):
    calls.append(args)
    if len(calls) % 2 == 0:
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
    return real(*args)


os.{call} = failing
before = fds()
got, error = run(lambda b: b, range(4), 2)
out = {{"got": got, "error": error, "fds": fds() == before, "left": left()}}
tmp = Path(tempfile.mkdtemp())
doc = {{"stacking": {{"initial_height": 2, "spacer_cap": 2, "stages": [{{"q": 2, "spacers": [1]}}]}},
       "sequence": {{"kind": "explicit", "values": [1, 2]}}, "seed": 1,
       "operations": [{{"op": "entropy", "stage": 2, "length": 2, "method": "sampled",
                       "count": 3 * parallel.BLOCK_SIZE}}]}}
(tmp / "config.json").write_text(json.dumps(doc))
stderr = io.StringIO()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
    code = cli.main(["run", "--config", str(tmp / "config.json"), "--out", str(tmp / "out"),
                     "--workers", "2"])
shutil.rmtree(tmp)
out.update(code=code, stderr=stderr.getvalue(), calls=len(calls), fds_after_run=fds() == before,
           left_after_run=left())
print(json.dumps(out))
""")
    reason = "could not start: [Errno 11] Resource temporarily unavailable"
    assert out["got"] == []
    assert out["error"] == ["ResourceGuard", f"worker process 2 of 2 {reason}"]
    assert out["fds"] and out["left"] == []
    assert out["code"] == 3 and out["calls"] == 4
    assert out["stderr"] == f"resource guard: worker process 2 of 2 {reason}\n"
    assert out["fds_after_run"] and out["left_after_run"] == []


def test_without_fork_blocks_run_in_the_caller(monkeypatch):
    monkeypatch.delattr(os, "fork")
    out = list(parallel.run_blocks(lambda b: (b * b, os.getpid()), range(5), 3))
    assert out == [(b * b, os.getpid()) for b in range(5)]


def test_pool_starts_no_more_processes_than_blocks():
    # Each block reports the process that ran it: min(workers, blocks)
    # distinct forked children, or this process for a single block.  The
    # block function closes over a lock, which cannot be pickled, so the
    # children run what they inherit.
    out = _run("""
import pickle, threading

def counter(lock):
    def fn(b):
        with lock:
            return abs(b), os.getpid()
    return fn

fn = counter(threading.Lock())
try:
    pickle.dumps(fn)
    picklable = True
except Exception:
    picklable = False
out = {"picklable": picklable, "me": os.getpid(), "runs": []}
for workers, count in ((1000, 3), (2, 5), (1000, 1)):
    blocks = range(-count, 0)
    got, error = run(fn, blocks, workers)
    out["runs"].append([workers, count, [r for r, _ in got], sorted({p for _, p in got}), error])
out["forked"], out["left"] = len(forked), left()
print(json.dumps(out))
""")
    assert out["picklable"] is False
    for workers, count, results, pids, error in out["runs"]:
        assert error is None
        assert results == [abs(b) for b in range(-count, 0)]
        assert len(pids) == min(workers, count)
        assert (out["me"] in pids) == (count == 1)
    assert out["forked"] == 3 + 2 and out["left"] == []


# Three histograms and a Monte Carlo run, each of more than three blocks;
# `outputs(w)` gives their bytes (as digests and reprs) at w workers.
WORKLOAD = """
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
kwargs = dict(h=2, pattern=(0,), l0=1, separation=100, samples=3 * _MC_BLOCK + 1000, seed=4)


def outputs(w):
    before, out = fds(), {}
    for name, (plan, total, seed) in runs.items():
        counts = blocked_word_counts(spec, plan, total, offsets, workers=w, seed=seed)
        out[name] = hashlib.sha256(pickle.dumps(list(counts.items()))).hexdigest()
        assert fds() == before, name
    out["mc"] = repr(sorted(conditional_limits_mc(**kwargs, workers=w).items()))
    assert fds() == before, "mc"
    return out
"""


def test_three_workers_give_the_bytes_of_one():
    # Each histogram and the Monte Carlo run span more than three blocks,
    # so workers=3 forks three children.
    out = _run(WORKLOAD + """
out = {"path": path, "blocks": {k: -(-total // BLOCK_SIZE) for k, (_, total, _) in runs.items()}}
one, three = outputs(1), outputs(3)
for name in one:
    out[name] = [one[name], three[name]]
out["left"] = left()
print(json.dumps(out))
""")
    assert out["path"] == "compressed"
    assert min(out["blocks"].values()) > 3
    for name in ("enumerated", "compressed", "sampled", "mc"):
        one, three = out[name]
        assert one == three, name
    assert out["left"] == []


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call")
def test_two_workers_on_one_cpu_give_the_bytes_of_one():
    # The interpreter, and so every child it forks, is pinned to one CPU:
    # two children share it, and the results must not depend on how their
    # runs interleave.
    out = _run("""
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
""" + WORKLOAD + """
one, two = outputs(1), outputs(2)
print(json.dumps({"cpus": len(os.sched_getaffinity(0)), "forked": len(forked),
                  "one": one, "two": two, "left": left()}))
""")
    assert out["cpus"] == 1 and out["forked"] == 4 * 2
    assert sorted(out["one"]) == ["compressed", "enumerated", "mc", "sampled"]
    assert out["one"] == out["two"]
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
