"""Deterministic block-parallel execution.

Work is always split into a block decomposition that depends only on the
problem size (never on the worker count); blocks are evaluated serially or
on a process pool and merged in block order, so results are identical for
any number of workers.  Each pool worker receives the block function and
the whole block list once, through the pool initializer (inherited without
pickling under the fork start method, pickled once per worker otherwise),
and is then sent only block indices.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence, TypeVar

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


def index_blocks(total: int, block_size: int = BLOCK_SIZE) -> list[tuple[int, int]]:
    """Half-open [lo, hi) ranges covering [0, total), fixed-size blocks."""
    if total > MAX_BLOCK_ITEMS:
        raise ResourceGuard(
            f"a {total.bit_length()}-bit count of items to split into blocks, "
            f"above the bound of 2^{MAX_BLOCK_ITEMS.bit_length() - 1}"
        )
    return [(lo, min(lo + block_size, total)) for lo in range(0, total, block_size)]


def _init_worker(fn: Callable, blocks: Sequence) -> None:
    global _worker_fn, _worker_blocks
    _worker_fn, _worker_blocks = fn, blocks


def _run_block(index: int):
    return _worker_fn(_worker_blocks[index])


def run_blocks(fn: Callable[[A], R], blocks: Sequence[A], workers: int = 1) -> list[R]:
    if workers <= 1 or len(blocks) <= 1:
        return [fn(b) for b in blocks]
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(fn, blocks)
    ) as pool:
        return list(pool.map(_run_block, range(len(blocks))))
