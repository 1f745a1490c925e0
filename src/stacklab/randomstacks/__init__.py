"""Probabilistic stack machinery: spacer processes, the block-repeat Markov
chain and its conditional limits, dependent-variable tail bounds, the
genericness search, and the parameter recipes."""

from ..rng import SpacerProcess  # noqa: F401
from .generic import (  # noqa: F401
    GenericnessReport,
    TrialRecord,
    analytic_failure_bound,
    genericness_search,
    hoeffding_bound,
)
from .markov import (  # noqa: F401
    MarkovModel,
    McEstimate,
    build_markov_matrix,
    conditional_limit_chain,
    conditional_limits_mc,
    pattern_word,
    stationary_distribution,
    stationary_distribution_exact,
)
from .recipes import (  # noqa: F401
    FlexibilityBounds,
    RecipeBundle,
    flexibility_bounds,
    recipe_params,
)
