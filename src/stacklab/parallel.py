"""Deterministic block-parallel execution.

Work is always split into a block decomposition that depends only on the
problem size (never on the worker count); blocks are evaluated serially or
on forked worker processes and merged in block order, so results are
identical for any number of workers.  A block is an `index_blocks` span
(lo, hi); callers bind the arguments fixed for a call to their kernel
once (`functools.partial`), so `fn(span)` is the block's work.

`run_blocks` forks k = min(workers, blocks) children, which inherit the
block function and the block list, so nothing is sent to them.  Child j
runs blocks j, j + k, j + 2k, ... in order and writes each result, or the
exception its block raised, pickled to its own pipe; the parent reads
block i from child i mod k and runs no block itself, so its memory holds
only the merged result.  Results are handed over one block at a time; a
child runs ahead of the consumer only until its pipe fills, and a
consumer that stops early (a guard tripped, an error raised) kills every
child, so the blocks not yet run stay unrun.  A child that cannot be
started raises ResourceGuard, and so does one that ends without its
block's result; either way every child already forked is killed and
reaped.  Where `os.fork` is missing, blocks run serially, with the same
results.
"""

from __future__ import annotations

import os
import pickle
import signal
# Unused here: a pool class the benchmark tracer subclasses at install.
from concurrent.futures import ProcessPoolExecutor  # noqa: F401
from typing import Callable, Iterator, Sequence, TypeVar

from .intarith import ResourceGuard

A = TypeVar("A")
R = TypeVar("R")

BLOCK_SIZE = 8192

# The most items a block list may cover.  The list of (lo, hi) ranges is
# built before any block runs, so a count far past what could be evaluated
# (|K| of a 79-bit tower, say) would exhaust memory listing its blocks
# instead of stopping.  2^32 items is 2^19 blocks of BLOCK_SIZE; the
# largest count that tests and benchmark workloads run is 2^20.
MAX_BLOCK_ITEMS = 1 << 32


def check_block_items(total: int) -> None:
    """The block-list guard: `total` items above MAX_BLOCK_ITEMS raise."""
    if total > MAX_BLOCK_ITEMS:
        raise ResourceGuard(
            f"a {total.bit_length()}-bit count of items to split into blocks, "
            f"above the bound of 2^{MAX_BLOCK_ITEMS.bit_length() - 1}"
        )


def index_blocks(total: int, block_size: int = BLOCK_SIZE) -> list[tuple[int, int]]:
    """Half-open [lo, hi) ranges covering [0, total), fixed-size blocks,
    after `check_block_items`."""
    check_block_items(total)
    return [(lo, min(lo + block_size, total)) for lo in range(0, total, block_size)]


def _serve(fn: Callable, blocks: Sequence, fd: int) -> None:
    """A forked child's work: `fn` of each block in turn, written to the
    pipe `fd` as pickled (True, result), or (False, error) for the first
    block that raises, after which no block runs."""
    with os.fdopen(fd, "wb") as out:
        for block in blocks:
            try:
                message = pickle.dumps((True, fn(block)))
            except Exception as error:  # crosses to the parent, raised there
                out.write(pickle.dumps((False, error)))
                return
            out.write(message)
            out.flush()


def run_blocks(fn: Callable[[A], R], blocks: Sequence[A], workers: int = 1) -> Iterator[R]:
    """`fn` of each block, yielded in block order.

    At most one child per block is forked (none at one worker or where
    `os.fork` is missing).  A block's exception is raised here at that
    block's turn; a child that cannot start (`os.pipe` or `os.fork`
    failing, as past a limit on open files or processes) or that ends
    without its block's result raises ResourceGuard.  Closing the
    generator (as a consumer that stops early should), an error or an
    interrupt kills and reaps every child.
    """
    workers = min(workers, len(blocks))
    if workers <= 1 or not hasattr(os, "fork"):
        yield from map(fn, blocks)
        return
    children: list = []  # (pid, read end) of each child; pid None once reaped
    try:
        for j in range(workers):
            fds = ()
            try:
                fds = read, write = os.pipe()
                pid = os.fork()
            except OSError as error:  # out of fds or processes: a resource, not a bug
                for fd in fds:
                    os.close(fd)
                raise ResourceGuard(
                    f"worker process {j + 1} of {workers} could not start: {error}"
                ) from None
            if pid == 0:  # the child: serve blocks j, j + k, ..., then exit
                status = 1
                try:
                    os.close(read)
                    for _, reader in children:
                        reader.close()
                    _serve(fn, blocks[j::workers], write)
                    status = 0
                finally:
                    os._exit(status)
            children.append((pid, os.fdopen(read, "rb")))
            os.close(write)
        for i in range(len(blocks)):
            pid, reader = children[i % workers]
            try:
                ok, value = pickle.load(reader)
            except (EOFError, pickle.UnpicklingError):
                _, status = os.waitpid(pid, 0)
                children[i % workers] = (None, reader)
                raise ResourceGuard(
                    f"the worker process running block {i} of {len(blocks)} ended "
                    f"without its result (wait status {status})"
                ) from None
            if not ok:
                raise value
            yield value
    finally:
        for pid, reader in children:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            reader.close()
