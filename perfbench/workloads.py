"""The benchmark's workloads: config documents generated from a seed.

Each workload is one experiment a stacklab user would run: a config
document passed through `stacklab.cli.execute` and then `cli.verify`, and
for `search-chain` one more library call, `conditional_limits_mc`.  The
program receives only the documents and arguments built here.

The benchmark seed selects one entry of a pool of POOL_SIZE program
seeds.  Golden outputs for every pool entry were captured from the seed
commit (`run.py --capture`), so every run is checked byte for byte whatever
seed it is given.  The seed drives the sampled level draws, the seeded
spacer stage, the genericness search and the Monte Carlo.
"""

from __future__ import annotations

POOL_SIZE = 32
DEFAULT_SEED = 0
# Not used while the benchmark was tuned; checked once before it landed.
HELD_OUT_SEED = 29

WORKLOADS = ("exact-squaring", "sampled-seeded", "search-chain")

WHY = {
    "exact-squaring": (
        "tower decode dominates while rng and parallel idle; the two ops are the two "
        "extremes of histogram size and the largest resident set"
    ),
    "sampled-seeded": (
        "rng and parallel dominate: every block re-parses the config and re-expands "
        "200000 SHA-256 spacer draws, and each call builds its own pool"
    ),
    "search-chain": (
        "randomstacks: genericness search over short towers and many references, exact "
        "Markov limits, and a Philox Monte Carlo on numpy blocks"
    ),
}

# Worker counts stay within the two cores of the reference machine.
WORKERS = {"exact-squaring": 1, "sampled-seeded": 2, "search-chain": 2}

# Sampled-mode probe on a 79-bit tower (7 stages of q=2048).  It fails at
# the seed commit with "bound exceeds 64-bit draw range"; it is run untimed
# and reported, never part of a timed workload.
PROBE_NAME = "sampled-79bit"


def program_seed(seed: int) -> int:
    return seed % POOL_SIZE


def _squaring_stacking() -> dict:
    # Heights 2, 4, 16, 256, 65536: each stage squares the height.
    stages = [{"q": q, "spacers": [0] * (q - 1)} for q in (2, 4, 16, 256)]
    return {"initial_height": 2, "spacer_cap": 1, "stages": stages}


def config_doc(workload: str, seed: int) -> dict:
    """The experiment config of `workload` for program seed `seed`."""
    if workload == PROBE_NAME:
        return probe_doc()
    if workload == "exact-squaring":
        return {
            "stacking": _squaring_stacking(),
            "sequence": {"kind": "power", "alpha": "3/2", "horizon": 160},
            "seed": seed,
            "operations": [
                # |K| = 65024 levels, 65024 distinct words.
                {"op": "entropy", "stage": 5, "reference": 5, "length": 64,
                 "method": "exact"},
                # |K| = 65472 levels, 2 distinct words.
                {"op": "entropy", "stage": 5, "reference": 1, "length": 16,
                 "method": "exact"},
            ],
        }
    if workload == "sampled-seeded":
        return {
            "stacking": {
                "initial_height": 3,
                "spacer_cap": 3,
                "stages": [
                    {"q": 3, "spacers": [1, 2]},
                    {"q": 5, "spacers": [0, 2, 1, 1]},
                    {"q": 200001, "seed": seed, "distribution": "uniform"},
                ],
            },
            "sequence": {"kind": "power", "alpha": "3/2", "horizon": 64},
            "seed": seed,
            "operations": [
                {"op": "entropy", "stage": 4, "reference": 2, "mode": "refined",
                 "length": 8, "method": "sampled", "count": 32768},
                {"op": "entropy", "stage": 4, "reference": 1, "mode": "base",
                 "length": 12, "method": "sampled", "count": 32768},
            ],
        }
    if workload == "search-chain":
        return {
            "stacking": {
                "initial_height": 2,
                "spacer_cap": 2,
                "stages": [{"q": 3, "spacers": [1, 0]}, {"q": 3, "spacers": [1, 1]}],
            },
            "sequence": {"kind": "explicit", "values": [1, 3, 6, 10, 15, 21, 28, 36]},
            "seed": seed,
            "operations": [
                {"op": "generic", "length": 8, "floor_length": 7, "q": 256,
                 "alphabet": 2, "trial_cap": 8, "evaluate_all": True},
                {"op": "markov", "period": 64},
            ],
        }
    raise KeyError(workload)


def mc_call(workload: str, seed: int) -> dict | None:
    """Keyword arguments of the workload's `conditional_limits_mc` call, if any."""
    if workload != "search-chain":
        return None
    return {"h": 2, "pattern": [0], "l0": 1, "separation": 600, "samples": 1 << 20,
            "seed": seed}


def probe_doc() -> dict:
    """Sampled entropy on a tower of more than 2**64 levels."""
    return {
        "stacking": {
            "initial_height": 2,
            "spacer_cap": 2,
            "stages": [{"q": 2048, "spacers": [0] * 2047} for _ in range(7)],
        },
        "sequence": {"kind": "power", "alpha": "3/2", "horizon": 64},
        "seed": DEFAULT_SEED,
        "operations": [
            {"op": "entropy", "stage": 8, "reference": 1, "length": 8,
             "method": "sampled", "count": 64},
        ],
    }
