"""stacklab: cut-and-stack tower simulator and sequence-entropy lab.

Towers are represented implicitly through their stacking data; symbols of
the exponentially long tower words are decoded on demand.  On top of the
decoder sit empirical sequence-entropy measurements, the probabilistic
stack machinery (Markov limits, dependent-variable tail bounds, the
genericness search), combinatorial word-count bounds, and a reproducible
experiment harness.
"""

__version__ = "0.1.0"

from .bounds import (  # noqa: F401
    bounded_spacer_word_bound,
    tradeoff_upper_value,
    trend_toward_zero,
)
from .entropy import (  # noqa: F401
    EntropyResult,
    WeightedPartition,
    WordHistogram,
    conditional_entropy,
    empirical_sequence_entropy,
    entropy,
    seq_entropy_upper_profile,
    subsequence_entropy_check,
)
from .sequences import (  # noqa: F401
    SamplingSequence,
    dilation_diagnostic,
    krug_K_estimate,
    lower_density_estimate,
    max_gap,
)
from .tower import (  # noqa: F401
    CodingSpec,
    OrbitEscape,
    Stage,
    StackingData,
    code_orbit,
    decode_symbol,
    valid_levels,
)
