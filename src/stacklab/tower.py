"""Cut-and-stack towers with implicit symbolic decoding.

A tower of height h_n is cut into q_n slices which are restacked with
spacer levels in between, producing a tower of height
h_{n+1} = q_n*h_n + a_n.  The word encoding tower n over the alphabet of
a reference tower r <= n is exponentially long, so it is never
materialized: a level's symbol is resolved by arithmetic descent through
per-stage prefix-sum tables, one binary search per stage; a window at a
rank of the valid-level set K may find its copy of tower n-1 from the
rank's copy instead, and read its symbols off one table of that tower.
Exact word histograms over a whole valid-level set are lifted stage by
stage through the stacking grammar where they can be, instead of
decoding every level.

Levels and heights are arbitrary-precision integers throughout.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from itertools import repeat
from math import prod
from typing import Iterable, Iterator, Sequence

import numpy as np

from .intarith import InvalidInput, ResourceGuard, is_int
from .parallel import BLOCK_SIZE, check_block_items, index_blocks, run_blocks
from .rng import SpacerProcess, uniform_ints

# Seeded stages regenerate their spacers on demand; expanding more than
# this many is treated as a resource guard, not an error in the data.
SEEDED_STAGE_GUARD = 1 << 22

# Stream id for sampled-mode level draws (counter RNG).
_STREAM_LEVEL_SAMPLE = 1


class TowerError(InvalidInput):
    """Malformed stacking data or an out-of-range level query."""


class WordCapExceeded(ResourceGuard):
    """Histogram grew past the configured cap; a memory guard, not a bug."""

    def __init__(self, cap: int):
        self.cap = cap
        super().__init__(
            f"distinct-word histogram exceeded the configured cap of {cap} entries"
        )

    def __reduce__(self):
        return type(self), (self.cap,)


class OrbitEscape(TowerError):
    """An orbit sample left the tower.

    Carries the 1-based index of the first offending sample.
    """

    def __init__(self, index: int, level: int, height: int):
        self.index = index
        self.level = level
        self.height = height
        super().__init__(
            f"orbit escapes tower at sample {index}: level {level} >= height {height}"
        )

    def __reduce__(self):
        return type(self), (self.index, self.level, self.height)


@dataclass(frozen=True)
class Stage:
    """One cut-and-stack step: q slices separated by q-1 spacer blocks.

    Spacer counts are given explicitly or regenerated from a seed (uniform
    over [0, spacer_cap - 1]); exactly one of the two forms must be used.
    """

    q: int
    spacers: tuple[int, ...] | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.spacers is not None and not isinstance(self.spacers, tuple):
            object.__setattr__(self, "spacers", tuple(self.spacers))


@dataclass(frozen=True)
class StackingData:
    """The full defining data of a finite-stage cut-and-stack construction.

    `stages[m-1]` holds the cut count q_m and spacer counts a_{m,1..q_m-1}
    used to build tower m+1 from tower m; spacer counts lie in
    [0, spacer_cap - 1] (spacer_cap=None means unbounded).
    """

    initial_height: int
    stages: tuple[Stage, ...]
    spacer_cap: int | None = None
    _cache: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not isinstance(self.stages, tuple):
            object.__setattr__(self, "stages", tuple(self.stages))
        if not is_int(self.initial_height) or self.initial_height < 1:
            raise TowerError("initial_height must be a positive integer")
        if self.spacer_cap is not None and (
            not is_int(self.spacer_cap) or self.spacer_cap < 1
        ):
            raise TowerError("spacer_cap must be a positive integer or None")
        for m, stage in enumerate(self.stages, start=1):
            self._validate_stage(m, stage)

    def _validate_stage(self, m: int, stage: Stage) -> None:
        if not is_int(stage.q) or stage.q < 2:
            raise TowerError(f"stage {m}: cut count q must be an integer >= 2, got {stage.q!r}")
        explicit = stage.spacers is not None
        seeded = stage.seed is not None
        if explicit == seeded:
            raise TowerError(
                f"stage {m}: exactly one of spacers/seed must be given"
            )
        if explicit:
            if len(stage.spacers) != stage.q - 1:
                raise TowerError(
                    f"stage {m}: expected {stage.q - 1} spacer counts, "
                    f"got {len(stage.spacers)}"
                )
            for i, a in enumerate(stage.spacers, start=1):
                if not is_int(a) or a < 0:
                    raise TowerError(
                        f"stage {m}: spacer {i} must be a nonnegative integer, got {a!r}"
                    )
                if self.spacer_cap is not None and a > self.spacer_cap - 1:
                    raise TowerError(
                        f"stage {m}: spacer {i} = {a} exceeds cap "
                        f"{self.spacer_cap - 1}"
                    )
        else:
            if not is_int(stage.seed):
                raise TowerError(f"stage {m}: seed must be an integer, got {stage.seed!r}")
            if self.spacer_cap is None or self.spacer_cap < 2:
                raise TowerError(
                    f"stage {m}: seeded spacers require a finite spacer_cap of at least 2"
                )

    # -- derived tables ----------------------------------------------------

    @property
    def num_towers(self) -> int:
        return len(self.stages) + 1

    def stage_spacers(self, m: int) -> tuple[int, ...]:
        """Spacer counts a_{m,1..q_m-1} of stage m (1-based), materialized."""
        key = ("spc", m)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        stage = self.stages[m - 1]
        if stage.spacers is not None:
            out = stage.spacers
        else:
            if stage.q - 1 > SEEDED_STAGE_GUARD:
                raise ResourceGuard(
                    f"stage {m}: seeded stage with q={stage.q} exceeds the "
                    f"expansion guard ({SEEDED_STAGE_GUARD})"
                )
            proc = SpacerProcess(self.spacer_cap, stage.seed)
            out = proc.chunk(0, stage.q - 1)
        self._cache[key] = out
        return out

    def heights(self) -> tuple[int, ...]:
        """Heights h_1..h_M, via h_{m+1} = q_m*h_m + sum of stage-m spacers."""
        cached = self._cache.get("hts")
        if cached is not None:
            return cached
        hs = [self.initial_height]
        for m, stage in enumerate(self.stages, start=1):
            hs.append(stage.q * hs[-1] + sum(self.stage_spacers(m)))
        out = tuple(hs)
        self._cache["hts"] = out
        return out

    def height(self, n: int) -> int:
        if not 1 <= n <= self.num_towers:
            raise TowerError(f"tower index {n} out of range 1..{self.num_towers}")
        return self.heights()[n - 1]

    def slice_starts(self, m: int) -> np.ndarray:
        """P_i = i*h_m + (a_{m,1}+...+a_{m,i}) for i = 0..q_m-1, as one
        cached array of dtype `level_dtype(self, m + 1)`.

        P_i is the start of slice i+1 inside tower m+1; spacer block i+1
        occupies [P_i + h_m, P_{i+1}).  The largest step is recorded as
        `largest_gap(m)`.
        """
        key = ("pfx", m)
        starts = self._cache.get(key)
        if starts is None:
            steps = np.zeros(self.stages[m - 1].q, dtype=level_dtype(self, m + 1))
            steps[1:] = self.stage_spacers(m)
            steps[1:] += self.heights()[m - 1]
            self._cache[("gap", m)] = int(np.max(steps))
            starts = self._cache[key] = np.cumsum(steps)
        return starts

    def largest_gap(self, m: int) -> int:
        """The largest gap between stage m's slice starts, h_m plus its
        largest spacer."""
        self.slice_starts(m)
        return self._cache[("gap", m)]

    def search_table(self, m: int):
        """Stage m's slice starts in a form `bisect` reads as Python ints,
        cached: an `array("q")` copy of an int64 table (2-3x faster to search
        than numpy scalars), an object table as it is."""
        key = ("search", m)
        table = self._cache.get(key)
        if table is None:
            starts = self.slice_starts(m)
            table = starts if starts.dtype.hasobject else array("q", starts.tobytes())
            self._cache[key] = table
        return table

    def extended(self, stage: Stage) -> "StackingData":
        """A new construction with one more stage appended."""
        return StackingData(self.initial_height, self.stages + (stage,), self.spacer_cap)

    # -- serialization (exact field names of the document schema) ----------

    @classmethod
    def from_dict(cls, doc: dict) -> "StackingData":
        if not isinstance(doc, dict) or "initial_height" not in doc:
            raise TowerError("stacking document needs an object with an 'initial_height'")
        items = doc.get("stages", [])
        if not isinstance(items, list):
            raise TowerError("stages: must be a list")
        stages = []
        for idx, item in enumerate(items, start=1):
            if not isinstance(item, dict) or "q" not in item:
                raise TowerError(f"stage {idx}: needs an object with a 'q'")
            if "spacers" in item:
                if not isinstance(item["spacers"], list):
                    raise TowerError(f"stage {idx}: spacers must be a list")
                stages.append(Stage(q=item["q"], spacers=tuple(item["spacers"])))
            elif "seed" in item:
                # Seeded spacers are uniform, the one distribution the field may name.
                if item.get("distribution", "uniform") != "uniform":
                    raise TowerError(
                        f"stage {idx}: unknown spacer distribution "
                        f"{item['distribution']!r} (only 'uniform')"
                    )
                stages.append(Stage(q=item["q"], seed=item["seed"]))
            else:
                raise TowerError(f"stage {idx}: needs 'spacers' or 'seed'")
        return cls(doc["initial_height"], tuple(stages), doc.get("spacer_cap"))


@dataclass(frozen=True)
class CodingSpec:
    """Reference partition for symbol decoding.

    base mode: levels inside a copy of tower `reference` code to their
    offset + 1; every spacer level codes to 0.  refined mode: the spacer
    at position j of a block codes to h_r + j + 1 instead, giving the
    alphabet {0, ..., h_r + spacer_cap - 1} (0 is reserved for points
    outside the tower and never produced by in-tower decoding).
    """

    reference: int
    mode: str = "base"

    def __post_init__(self) -> None:
        if self.mode not in ("base", "refined"):
            raise TowerError(f"unknown coding mode {self.mode!r}")
        if self.reference < 1:
            raise TowerError("reference stage must be >= 1")

    def alphabet_size(self, sd: StackingData) -> int:
        h_r = sd.height(self.reference)
        if self.mode == "base":
            return h_r + 1
        if sd.spacer_cap is None:
            raise TowerError("refined mode requires a finite spacer_cap")
        return h_r + sd.spacer_cap


def decode_symbol(sd: StackingData, spec: CodingSpec, n: int, k: int) -> int:
    """The k-th symbol of the word encoding tower n over reference spec.

    Equals entry k of the fully expanded word without materializing it.
    """
    return code_orbit(sd, spec, n, k, (0,))[0]


@dataclass(frozen=True)
class ValidLevels:
    """The level set K of tower n for a sampling horizon t_N.

    K = { k : 0 <= k <= h_n - t_N - 1, level k is not inside a spacer
    block added by stage n-1 }.  The set is never materialized: its size
    is counted, and its levels read by rank (`at`), off stage n-1's slice
    starts, so uniform sampling needs no enumeration.
    """

    sd: StackingData
    n: int
    t_max: int
    count: int

    def __len__(self) -> int:
        return self.count

    def at(self, pos: np.ndarray) -> np.ndarray:
        """The levels of K at the ranks `pos`, an array of tower n's
        `level_dtype`: rank u is level P_{u // h_{n-1}} + u % h_{n-1}, with P
        stage n-1's slice starts, so K's levels increase with their rank."""
        h = self.sd.heights()[self.n - 2]
        copies = (pos // h).astype(np.int64, copy=False)
        return self.sd.slice_starts(self.n - 1)[copies] + pos % h

    @property
    def coverage(self) -> float:
        """|K| / h_n, the mass fraction the conditioning retains."""
        return self.count / self.sd.height(self.n)


def valid_levels(sd: StackingData, n: int, t_max: int) -> ValidLevels:
    """Valid-level set K for tower n and horizon t_max (= t_N).

    t_max >= h_n yields an empty set rather than an error.
    """
    if n < 2:
        raise TowerError("valid_levels needs n >= 2 (a previous stage must exist)")
    if t_max < 0:
        raise TowerError("t_max must be nonnegative")
    h_n = sd.height(n)
    bound = h_n - t_max - 1
    if bound < 0:
        return ValidLevels(sd=sd, n=n, t_max=t_max, count=0)
    # Copy i of tower n-1 starts at P_i: the copies below it give i*h levels
    # of K, and copy i those of its h levels at or below the bound.
    starts, h = sd.slice_starts(n - 1), sd.heights()[n - 2]
    i = bisect_right(starts, bound) - 1
    count = i * h + min(bound - int(starts[i]) + 1, h)
    return ValidLevels(sd=sd, n=n, t_max=t_max, count=count)


def _coding(sd: StackingData, spec: CodingSpec, n: int) -> tuple[int, bool]:
    """h_r and whether spec is refined, once spec is checked against tower n."""
    r = spec.reference
    if r > n:
        raise TowerError(f"reference stage {r} exceeds tower index {n}")
    refined = spec.mode == "refined"
    if refined and sd.spacer_cap is None:
        raise TowerError("refined mode requires a finite spacer_cap")
    return sd.heights()[r - 1], refined


def code_orbit(
    sd: StackingData,
    spec: CodingSpec,
    n: int,
    k: int,
    offsets: Sequence[int],
) -> tuple[int, ...]:
    """Coded orbit word: symbol i is the level k + offsets[i] of tower n.

    The single-orbit decoder, exact at any height, and the oracle of
    `code_orbits`: the level is checked once per orbit, the tower and
    coding once per (n, reference, mode), whose descent tables stay cached
    on `sd`; then each symbol descends through the stage tables n-1 ..
    reference, stopping early in a spacer block.  Raises OrbitEscape with
    the 1-based sample index if the orbit leaves the tower.
    """
    key = ("orbit", n, spec.reference, spec.mode)
    setup = sd._cache.get(key)
    h_n = sd.height(n) if setup is None else setup[0]
    if not 0 <= k < h_n:
        raise TowerError(f"level {k} out of range [0, {h_n}) for tower {n}")
    if setup is None:
        h_r, refined = _coding(sd, spec, n)
        heights = sd.heights()
        descent = tuple(
            (sd.search_table(m), heights[m - 1]) for m in range(n - 1, spec.reference - 1, -1)
        )
        setup = sd._cache[key] = (h_n, h_r, refined, descent)
    _, h_r, refined, descent = setup
    word = []
    for i, t in enumerate(offsets, start=1):
        lvl = k + t
        if lvl >= h_n:
            raise OrbitEscape(i, lvl, h_n)
        if lvl < 0:
            raise TowerError(f"level {lvl} out of range [0, {h_n}) for tower {n}")
        for starts, h in descent:
            lvl -= starts[bisect_right(starts, lvl) - 1]
            if lvl >= h:
                word.append(h_r + lvl - h + 1 if refined else 0)
                break
        else:
            word.append(lvl + 1)
    return tuple(word)


def level_dtype(sd: StackingData, n: int) -> type:
    """The dtype of the level arrays of tower n: int64 when h_n < 2^63,
    object (Python ints) otherwise."""
    return np.int64 if sd.height(n) < 1 << 63 else object


def symbol_width(sd: StackingData, spec: CodingSpec) -> int:
    """Bytes per symbol of a word key: the fewest of 1, 2, 4, 8, 16, ...
    that hold every symbol below `spec.alphabet_size(sd)`."""
    top, width = spec.alphabet_size(sd) - 1, 1
    while top >> 8 * width:
        width *= 2
    return width


def encode_word(word: Sequence[int], width: int) -> bytes:
    """The key of a coded word: each symbol as `width` little-endian bytes."""
    return b"".join(x.to_bytes(width, "little") for x in word)


def decode_words(keys: Iterable[bytes], width: int) -> Iterator[tuple[int, ...]]:
    """The coded words of `keys`, in order; the inverse of `encode_word`."""
    for key in keys:
        yield tuple(int.from_bytes(key[i : i + width], "little") for i in range(0, len(key), width))


def code_orbits(
    sd: StackingData, spec: CodingSpec, n: int, ks: Sequence[int], offsets: Sequence[int]
) -> list[bytes]:
    """`[encode_word(code_orbit(sd, spec, n, k, offsets), w) for k in ks]`
    with w = `symbol_width(sd, spec)`, decoded at once.

    `ks` may be a list or a 1-d numpy array.  The levels form one
    len(ks) x len(offsets) array of dtype `level_dtype(sd, n)`, which
    `_symbol_keys` decodes through every stage n-1 .. r.  A level outside
    [0, h_n) raises `code_orbit`'s error at the first offending level.
    """
    if len(ks) == 0:
        return []
    lowest = int(np.min(ks)) + min((0, *offsets))
    highest = int(np.max(ks)) + max((0, *offsets))
    if not (0 <= lowest and highest < sd.height(n)):
        # lowest and highest are each a level or sample code_orbit checks: some k raises.
        for k in ks:
            code_orbit(sd, spec, n, int(k), offsets)
    _coding(sd, spec, n)
    if not offsets:
        return [b""] * len(ks)
    dtype = level_dtype(sd, n)
    lvl = np.add.outer(np.asarray(ks, dtype=dtype), np.array(offsets, dtype=dtype))
    return _symbol_keys(sd, spec, n, lvl)


def _descend(sd: StackingData, spec: CodingSpec, m: int, lvl: np.ndarray) -> np.ndarray:
    """The symbols of `lvl`, levels of tower m or past its top in the spacer
    block above a copy of it, overwriting `lvl`: one `searchsorted` per
    stage m-1 .. r, then the slice start is subtracted.  A level in a
    spacer block lies above every slice start of the stages below, so it
    keeps its excess over the height down to tower r and ends at h_r + (its
    position in the block): refined mode codes it, like a level inside a
    copy, as its final value + 1, and base mode codes every final value
    >= h_r as 0."""
    for s in range(m - 1, spec.reference - 1, -1):
        starts = sd.slice_starts(s)
        lvl -= starts[np.searchsorted(starts, lvl, side="right") - 1]
    if spec.mode != "refined":
        lvl[lvl >= sd.heights()[spec.reference - 1]] = -1
    lvl += 1
    return lvl


def _symbol_keys(
    sd: StackingData, spec: CodingSpec, m: int, lvl: np.ndarray, table: np.ndarray | None = None
) -> list[bytes]:
    """The keys of the rows of `lvl`, levels of tower m or past its top in
    the spacer block above a copy of it (`lvl` is overwritten): one gather
    from `table`, the symbols of [0, len(table)), when given, else
    `_descend`.  The rows are cast to w-byte little-endian integers, w =
    `symbol_width(sd, spec)`, and cut into keys (`encode_word` above 8
    bytes)."""
    width = symbol_width(sd, spec)
    sym = _descend(sd, spec, m, lvl) if table is None else table[lvl.astype(np.int64, copy=False)]
    if width > 8:
        return [encode_word(row, width) for row in sym.tolist()]
    return sym.astype(f"<u{width}").view(f"V{width * sym.shape[1]}").ravel().tolist()


# Levels per `code_orbits` call: bounds its level arrays and the lists
# built from them, whatever the size of a block.
DECODE_BATCH = 1024

# The most bytes of distinct word keys a histogram may hold (distinct keys
# times `len(offsets) * symbol_width`), checked after each block.  Long
# words exhaust memory long before the word cap trips: at N = 2048 and
# 4-byte symbols, 2^16 keys hold 512 MiB.  2^28 stops such a run well
# inside a 2 GiB address space; the largest benchmark histogram holds
# about 16 MiB of keys.
MAX_KEY_BYTES = 1 << 28


@dataclass(frozen=True, eq=False)
class Ranges:
    """The `count` windows a lift decodes, laid end to end: position j,
    with ends[i-1] <= j < ends[i], is the start base[i] + j, a level of
    tower n, and stands for weights[i] levels of K.  `base` and `ends`
    have tower n's `level_dtype`; `weights` holds Python ints."""

    sd: StackingData
    n: int
    count: int
    ends: np.ndarray
    base: np.ndarray
    weights: np.ndarray


def exact_plan(
    levels: ValidLevels, spec: CodingSpec, offsets: Sequence[int], count: int | None = None
) -> tuple[str, ValidLevels | Ranges, int]:
    """The one choice of a word histogram's path over K: the path, the plan
    it counts and the windows it decodes, checked in this order.
    - "sampled", K and `count` when a count of draws is given.
    - "distinct", K and 0 when r = n, N >= 1, every offset lies in [0, t_N]
      and K is nonempty: coding tower n against itself is the identity on
      levels, so each level of K is its own word (`DistinctWords`).
    - "enumerate", K and |K| otherwise when r = n, and when an offset lies
      outside [0, t_N], the keys would read more than |K| spacers, or the
      windows plus the distinct keys exceed |K|.
    - "compressed", the lift's `Ranges` and their `count`: first the
      h_r - t_N windows inside tower r, then the starts of tower m+1 for
      each stage m = r .. n-1.

    The reads (the sum over j < q_m of min(j, t_N // h_m + 2)) are counted
    before any key is built; their bound is one of memory, as it keeps at
    most one spacer reference per level of K in the keys.  The keys check
    is one of speed, set when a distinct key cost about one window's
    decode.  With levels decoded in int64 batches into bytes keys, a
    distinct key costs about ten enumerated levels (its tuple and dict
    entry, built in Python in this process) and a lifted window about two
    (its weighted count), so the lift is already slower than enumeration
    from about 0.25 |K| in windows plus keys.

    Tower m+1 is copies 0 .. q_m-1 of tower m at P_0 .. P_{q_m-1} with
    spacer blocks between, so H_{m+1} = q_m * H_m + (the windows that leave
    a copy).  The starts [P_i + max(0, h_m - t_N), P_{i+1}) whose windows
    leave copy i see at most t_N // h_m + 1 more copies, so they depend
    only on the key spacers[i : i + t_N // h_m + 2] and are decoded at its
    first region, weighted by the regions that share it times the copies
    q_{m+1} ... q_{n-1} of tower m+1 in tower n.  A key cut short by the
    top of the tower is unique to its region and carries its clip
    s + t_N < h_{m+1}; at the top stage K drops the starts inside spacer
    blocks.
    """
    if count is not None:
        return "sampled", levels, count
    sd, n, t, r = levels.sd, levels.n, levels.t_max, spec.reference
    in_range = all(0 <= o <= t for o in offsets)
    if r == n or not in_range:
        if in_range and offsets and levels.count:
            return "distinct", levels, 0
        return "enumerate", levels, levels.count
    heights, reads = sd.heights(), 0
    for m in range(r, n):
        q, width = sd.stages[m - 1].q, t // heights[m - 1] + 2
        c = min(width, q - 1)
        reads += c * (c + 1) // 2 + (q - 1 - c) * width
    if reads > levels.count:
        return "enumerate", levels, levels.count
    windows, keys = max(0, heights[r - 1] - t), 0
    # (end, base, weight) per range, as in `Ranges`; tower r's come first.
    ranges = [(windows, 0, prod(stage.q for stage in sd.stages[r - 1 : n - 1]))]
    for m in range(r, n):
        h, width, top = heights[m - 1], t // heights[m - 1] + 2, m == n - 1
        spacers, starts = sd.stage_spacers(m), sd.slice_starts(m)
        groups: dict[tuple[int, ...], list[int]] = {}
        for i in range(len(spacers)):
            group = groups.get(spacers[i : i + width])
            if group is not None:
                group[2] += 1
                continue
            start = int(starts[i])
            lo = start + max(0, h - t)
            hi = max(lo, min(start + h if top else int(starts[i + 1]), heights[m] - t))
            windows, keys = windows + hi - lo, keys + 1
            groups[spacers[i : i + width]] = [windows, hi - windows, 1]
            if windows + keys > levels.count:
                return "enumerate", levels, levels.count
        above = prod(stage.q for stage in sd.stages[m : n - 1])
        ranges.extend((end, base, mult * above) for end, base, mult in groups.values())
    ends, base, weights = zip(*ranges)
    dtype = level_dtype(sd, n)
    return "compressed", Ranges(
        sd, n, windows, np.array(ends, dtype=dtype), np.array(base, dtype=dtype),
        np.array(weights, dtype=object),
    ), windows


def _rank_path(
    spec: CodingSpec, levels: ValidLevels, offsets: Sequence[int], windows: int, sampled: bool
) -> tuple[int | None, np.ndarray | None] | None:
    """How `_rank_keys` decodes a histogram of `windows` windows at ranks
    of K, drawn at random when `sampled`: None for `code_orbits` of their
    levels when r = n, N = 0 or an offset lies outside [0, t_N]; else
    (follow, table).

    A window level at rank u then lies in the copy of tower n-1, or the
    spacer block above it, that starts at one of P_c .. P_{c+f}, with c =
    u // h_{n-1} and f = min((h_{n-1} - 1 + the largest offset) //
    h_{n-1}, q_{n-1} - 1).  Draws walk those starts (follow = f) while
    64 f^4 <= q_{n-1}, where the walk beat one search over all q_{n-1}
    starts in every case timed (ROADMAP aim 1).  Otherwise follow = None
    searches, as enumerated ranks always do: they run in order, which
    makes the search cheap.

    `table`, cached per (n, reference, mode), holds the symbols of [0, L),
    L = `sd.largest_gap(n - 1)`, where every window level less its copy's
    start lies.  `_descend` builds it when L <= windows and 8L bytes fit in
    MAX_KEY_BYTES, so it costs at most one symbol per window; otherwise it
    is None and `_symbol_keys` descends.
    """
    sd, n = levels.sd, levels.n
    _coding(sd, spec, n)
    if spec.reference == n or not offsets or min(offsets) < 0 or max(offsets) > levels.t_max:
        return None
    h, q = sd.heights()[n - 2], sd.stages[n - 2].q
    follow = min((h - 1 + max(offsets)) // h, q - 1)
    size, key, table = sd.largest_gap(n - 1), ("symbols", n, spec.reference, spec.mode), None
    if size <= windows and 8 * size <= MAX_KEY_BYTES:
        table = sd._cache.get(key)
        if table is None:
            residuals = np.arange(size, dtype=level_dtype(sd, n - 1))
            table = sd._cache[key] = _descend(sd, spec, n - 1, residuals)
    return (follow if sampled and 64 * follow**4 <= q else None), table


def _rank_keys(
    spec: CodingSpec, levels: ValidLevels, pos: np.ndarray, offsets: Sequence[int],
    path: tuple[int | None, np.ndarray | None] | None,
) -> list[bytes]:
    """The keys of the windows at ranks `pos` of K, on `_rank_path`'s
    `path`.  Rank u is the level P_c + x of copy c = u // h_{n-1} of tower
    n-1, x = u % h_{n-1}.  The walk gathers P_c .. P_{c+follow} at once
    and takes, for each window level P_c + x + o, the last of them at or
    below it by `follow` masked copies; the search takes it from all of
    stage n-1's starts.  `_symbol_keys` decodes the level less that
    start."""
    sd, n = levels.sd, levels.n
    if path is None:
        return code_orbits(sd, spec, n, levels.at(pos), offsets)
    follow, table = path
    starts = sd.slice_starts(n - 1)
    if follow is None:
        rel = np.add.outer(levels.at(pos), np.array(offsets, dtype=starts.dtype))
        rel -= starts[np.searchsorted(starts, rel, side="right") - 1]
        return _symbol_keys(sd, spec, n - 1, rel, table)
    h = sd.heights()[n - 2]
    copies = np.add.outer((pos // h).astype(np.int64, copy=False), np.arange(follow + 1))
    # Past the last copy the index repeats it: its start is the last at or below the level.
    ahead = starts[np.minimum(copies, len(starts) - 1)]
    ahead = ahead[:, 1:] - ahead[:, :1]
    rel = np.add.outer(pos % h, np.array(offsets, dtype=ahead.dtype))
    below = np.zeros_like(rel)
    for j in range(follow):
        np.copyto(below, ahead[:, j : j + 1], where=ahead[:, j : j + 1] <= rel)
    rel -= below
    return _symbol_keys(sd, spec, n - 1, rel, table)


def _count_block(spec, plan, offsets, seed, path, span) -> Counter:
    """Word counts at the positions [lo, hi) = `span` of a plan, or at the
    draws [lo, hi) of the counter RNG from [0, plan.count) when a seed is
    given.  Positions have tower n's `level_dtype`.  On K, position u is a
    rank (`ValidLevels.at`), decoded by `_rank_keys` on `path`, the
    histogram's `_rank_path`; on the lift's `Ranges`, which take no path,
    one `searchsorted` over the ends finds each position's range, whose
    windows count `weights` times.  Both decode DECODE_BATCH positions at
    a time, a batch of lifted windows by `code_orbits` in the lowest tower
    m >= r that holds all of it: a window of tower m+1 that starts at s is
    level s of every tower above, as copy 0 of each lies at its level 0."""
    lo, hi = span
    sd = plan.sd
    dtype = level_dtype(sd, plan.n)
    if seed is None:
        pos = np.arange(lo, hi, dtype=dtype)
    else:
        pos = uniform_ints(seed, _STREAM_LEVEL_SAMPLE, lo, hi, plan.count).astype(dtype, copy=False)
    part: Counter = Counter()
    if isinstance(plan, ValidLevels):
        for j in range(0, len(pos), DECODE_BATCH):
            part.update(_rank_keys(spec, plan, pos[j : j + DECODE_BATCH], offsets, path))
        return part
    i = np.searchsorted(plan.ends, pos, side="right")
    ks, weights = plan.base[i] + pos, plan.weights[i]
    heights, reach = sd.heights(), max(offsets, default=0)
    for j in range(0, len(pos), DECODE_BATCH):
        batch = slice(j, j + DECODE_BATCH)
        m = max(spec.reference, bisect_right(heights, int(np.max(ks[batch])) + reach) + 1)
        for word, weight in zip(code_orbits(sd, spec, m, ks[batch], offsets), weights[batch]):
            part[word] += weight
    return part


def _check_histogram(distinct: int, key_bytes: int, word_cap: int | None) -> None:
    """The guards of a histogram of `distinct` keys of `key_bytes` bytes,
    checked after each block: the word cap, then MAX_KEY_BYTES."""
    if word_cap is not None and distinct > word_cap:
        raise WordCapExceeded(word_cap)
    if distinct * key_bytes > MAX_KEY_BYTES:
        raise ResourceGuard(
            f"word histogram holds {distinct} distinct keys of {key_bytes} bytes, "
            f"{distinct * key_bytes} key bytes above the bound of "
            f"2^{MAX_KEY_BYTES.bit_length() - 1} (MAX_KEY_BYTES)"
        )


def blocked_word_counts(
    spec: CodingSpec, plan: ValidLevels | Ranges, total: int, offsets: Sequence[int],
    word_cap: int | None = None, workers: int = 1, seed: int | None = None,
) -> Counter:
    """Word counts (`_count_block`) at the positions [0, total) of `plan`,
    or at `total` uniform draws from it when a seed is given, over the
    spans of `index_blocks(total)`, run on `workers` processes and merged
    in block order; the kernel is bound once, to the `_rank_path` on K
    among the rest.  `_check_histogram` runs after each block (all keys of
    one histogram have one length); a tripped check stops the blocks.
    """
    spans, path = index_blocks(total), None
    if spans and isinstance(plan, ValidLevels):
        # Once per histogram: its table is cached before the pool forks.
        path = _rank_path(spec, plan, offsets, total, seed is not None)
    kernel = partial(_count_block, spec, plan, offsets, seed, path)
    counts: Counter = Counter()
    results = run_blocks(kernel, spans, workers=workers)
    try:
        for part in results:
            # `counts.update(part)` in C: the shared keys' sums, then part's
            # new keys appended in its order, then the sums written over
            # part's counts; the first-seen key order is Counter.update's.
            summed = {k: counts[k] + part[k] for k in part.keys() & counts.keys()}
            dict.update(counts, part)
            dict.update(counts, summed)
            _check_histogram(len(counts), len(next(iter(counts), b"")), word_cap)
    finally:
        # Kills the workers now rather than when the generator is collected; a
        # wrapped run_blocks may return a list, which has nothing to stop.
        close = getattr(results, "close", None)
        if close is not None:
            close()
    return counts


class DistinctWords:
    """The histogram of K on `exact_plan`'s distinct path, where coding is
    the identity on levels: level k codes to (k + t_1 + 1, ..., k + t_N + 1),
    so every level of K is its own word, counted once.  Iterating yields
    the keys, decoded by `code_orbits` DECODE_BATCH levels at a time in
    K's order, which is enumeration's first-seen order; `values()` is a
    run of |K| ones and `items()` pairs each key with its 1, so building,
    sizing and summing the histogram decode nothing."""

    def __init__(self, levels: ValidLevels, spec: CodingSpec, offsets: Sequence[int]):
        self.levels, self.spec, self.offsets = levels, spec, tuple(offsets)
        self.key_bytes = symbol_width(levels.sd, spec) * len(self.offsets)

    def __len__(self) -> int:
        return self.levels.count

    def __iter__(self) -> Iterator[bytes]:
        levels, dtype = self.levels, level_dtype(self.levels.sd, self.levels.n)
        for lo in range(0, levels.count, DECODE_BATCH):
            pos = np.arange(lo, min(lo + DECODE_BATCH, levels.count), dtype=dtype)
            yield from code_orbits(levels.sd, self.spec, levels.n, levels.at(pos), self.offsets)

    def values(self) -> _Ones:
        return _Ones(self.levels.count)

    def items(self) -> Iterator[tuple[bytes, int]]:
        return zip(self, repeat(1))


class _Ones:
    """The counts of a `DistinctWords`: one per key, without its keys;
    sized and re-iterable, as `counts_entropy` reads them twice."""

    def __init__(self, count: int):
        self.count = count

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[int]:
        return repeat(1, self.count)


def _distinct_words(
    levels: ValidLevels, spec: CodingSpec, offsets: Sequence[int], word_cap: int | None
) -> DistinctWords:
    """The "distinct" histogram of K, after the checks the blocks would
    make, in their order: the block-list guard, the coding, then
    `_check_histogram`.  The blocks hold min(end, |K|) distinct keys at
    each block end, and their guards pass up to `passes` keys, so the
    first block end past `passes`, if any, is the one that trips."""
    check_block_items(levels.count)
    _coding(levels.sd, spec, levels.n)
    words = DistinctWords(levels, spec, offsets)
    passes = min(MAX_KEY_BYTES // words.key_bytes, levels.count if word_cap is None else word_cap)
    if levels.count > passes:
        end = (passes // BLOCK_SIZE + 1) * BLOCK_SIZE
        _check_histogram(min(levels.count, end), words.key_bytes, word_cap)
    return words


def exact_word_counts(
    levels: ValidLevels, spec: CodingSpec, offsets: Sequence[int], word_cap: int | None = None,
    workers: int = 1, level_cap: int | None = None, count: int | None = None, seed: int = 0,
) -> tuple[Counter | DistinctWords, str, int]:
    """The word histogram of K on the path of `exact_plan`, in first-seen
    order, with that path and its windows.  |K| above `level_cap` raises
    ResourceGuard on every path but compressed.

    sampled counts `count` uniform draws from K with `seed`.  distinct
    decodes no key: it returns a `DistinctWords` over K after the guards
    the blocks would trip (`_distinct_words`).  enumerate counts K itself
    in blocks, the oracle of that mapping.  compressed counts the plan's
    weighted ranges: first the h_r - t_N windows inside tower r, which need
    no descent, then each stage's keys in order of first region, each past
    every level already seen, so the words come out in enumeration's
    order.  The blocks do not depend on the worker count.  Every word seen
    occurs in copy 0 of tower n, which lies in K, so checking `word_cap`
    after every block trips exactly when enumeration's check would.
    """
    path, plan, windows = exact_plan(levels, spec, offsets, count)
    if path != "compressed" and level_cap is not None and levels.count > level_cap:
        raise ResourceGuard(
            f"valid-level set has {levels.count} levels, above the cap {level_cap}"
        )
    if path == "distinct":
        return _distinct_words(levels, spec, offsets, word_cap), path, windows
    draws = seed if path == "sampled" else None
    counts = blocked_word_counts(spec, plan, windows, offsets, word_cap, workers, draws)
    return counts, path, windows
