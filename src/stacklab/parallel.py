"""Deterministic block-parallel execution.

Work is always split into a block decomposition that depends only on the
problem size (never on the worker count); blocks are evaluated serially or
on a process pool and merged in block order, so results are identical for
any number of workers.  Each pool worker receives the block function and
the whole block list once, through the pool initializer (inherited without
pickling under the fork start method, pickled once per worker otherwise),
and is then sent only block indices.  Results are handed over one block at
a time, so a consumer that stops early (a guard tripped, an error raised)
leaves the remaining blocks unrun, and only the merged result need be
held, not every block's.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ProcessPoolExecutor
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

# The block function and blocks of the pool this worker process serves.
_worker_fn: Callable | None = None
_worker_blocks: Sequence = ()


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


def _init_worker(fn: Callable, blocks: Sequence) -> None:
    global _worker_fn, _worker_blocks
    _worker_fn, _worker_blocks = fn, blocks


def _run_block(index: int):
    return _worker_fn(_worker_blocks[index])


def run_blocks(fn: Callable[[A], R], blocks: Sequence[A], workers: int = 1) -> Iterator[R]:
    """`fn` of each block, yielded in block order.

    The pool starts no more processes than there are blocks.  On it, at
    most two blocks per worker are submitted, counting the one whose
    result is awaited, so finished results do not pile up.
    Closing the generator (as a consumer that stops early should) shuts
    the pool down and cancels the blocks not yet started.
    """
    workers = min(workers, len(blocks))
    if workers <= 1:
        yield from map(fn, blocks)
        return
    pool = ProcessPoolExecutor(max_workers=workers, initializer=_init_worker, initargs=(fn, blocks))
    pending: deque = deque()
    try:
        for i in range(len(blocks)):
            pending.append(pool.submit(_run_block, i))
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
