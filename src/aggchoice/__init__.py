"""Random-utility rationality testing for aggregated stochastic choice.

A library (and CLI) for choice data over aggregates whose composition
varies across markets and is hidden from the analyst: axiom checks,
constructive rationalization, polytope geometry, conditions restoring
aggregate-level random utility, and the logit misspecification-bias
simulation pipeline.
"""

from .axioms import (
    AxiomReport,
    Violation,
    bm_polynomial,
    check_aru_rational,
    check_limited_monotonicity,
    check_partial_ru,
    check_ru_rational,
)
from .conditions import (
    ConditionReport,
    collapse_to_aru,
    is_menu_independent,
    is_non_overlapping,
    lift_aru_to_nonoverlapping,
    unconditional_joint,
)
from .errors import (
    AggChoiceError,
    AggregateNotInMenu,
    AxiomViolated,
    DomainClosureViolated,
    DomainTooLarge,
    GroundMismatch,
    IncompleteDomain,
    InvalidGridStep,
    InvalidProbability,
    InvalidTuple,
    ItemNotInMenu,
    MissingLambdaForMenu,
    MissingUtility,
    NoConvergence,
    NotIdentified,
    NotMenuIndependent,
    NotRURational,
    TooLarge,
    VariantUnavailable,
    VerificationBug,
)
from .geometry import (
    DistanceResult,
    GridOracleResult,
    SparseApproximation,
    approx_caratheodory,
    aru_distance,
    build_nesting_counterexample,
    grid_oracle_ru_n,
    ru_vertex_lmo,
    vertex_count_lower_bound,
)
from .model import (
    AggregateSpace,
    AggregationCorrespondence,
    ChoiceDomain,
    CompositionDistribution,
    CompositionTuple,
    LinearOrder,
    Menu,
    MenuCollectionFamily,
    PreferenceDistribution,
    StochasticChoice,
    all_orders,
    aru_evaluate,
    forward_evaluate,
    rum_prob,
    vertex_choice,
)
from .rationalize import (
    Rationalization,
    build_lambda_for_menu,
    extend_preferences,
    rationalize,
)
from .simulation import (
    MinMaxRow,
    SweepRow,
    bias,
    fit_aggregated_logit,
    logit_choice,
    make_world,
    minmax_bias,
    reduce_dataset,
    sweep,
)

__version__ = "0.1.0"
