from __future__ import annotations

import random

import pytest
from hypothesis import settings

from stacklab.tower import Stage, StackingData, decode_words

# Property tests draw the same examples on every run and have no per-example
# deadline, so they repeat exactly and do not flake on a loaded machine.
settings.register_profile(
    "stacklab", derandomize=True, deadline=None, max_examples=300, database=None
)
settings.load_profile("stacklab")


def decoded(counts, width: int) -> dict:
    """Counts keyed by word keys (`tower.code_orbits`), keyed instead by the
    words they decode to (`tower.decode_words`), in the same order."""
    return dict(zip(decode_words(counts, width), counts.values()))


def random_stacking(
    rng: random.Random,
    max_stages: int = 5,
    max_q: int = 6,
    spacer_cap: int = 3,
    height_limit: int = 10_000,
    h1_range: tuple[int, int] = (1, 4),
) -> StackingData:
    """A random construction with heights kept below `height_limit`."""
    h = rng.randint(*h1_range)
    stages: list[Stage] = []
    height = h
    for _ in range(rng.randint(1, max_stages)):
        q = rng.randint(2, max_q)
        spacers = tuple(rng.randrange(spacer_cap) for _ in range(q - 1))
        nxt = q * height + sum(spacers)
        if nxt > height_limit:
            break
        stages.append(Stage(q=q, spacers=spacers))
        height = nxt
    if not stages:
        q = 2
        spacers = (rng.randrange(spacer_cap),)
        stages.append(Stage(q=q, spacers=spacers))
    return StackingData(h, tuple(stages), spacer_cap)


@pytest.fixture
def tiny_tower() -> StackingData:
    """Heights (2, 5); the reference-1 word of tower 2 is 1 2 0 1 2."""
    return StackingData(2, (Stage(q=2, spacers=(1,)),), spacer_cap=2)
