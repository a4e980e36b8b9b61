"""matchleak: a simulation lab for information leakage in threshold-based
Hamming matchers.

Build a sealed match oracle over Z_q^n with a configurable leak (distance,
error positions, or positions plus signed values; on accepted queries only
or on every query), run the recovery attack matching that scenario, and
check the spent queries or sessions against the scenario's worst-case bound.
"""

from .attacks import (
    AttackOutcome,
    PartialTemplate,
    SearchStrategy,
    accumulation_collect,
    attack_below_distance,
    attack_below_positions,
    attack_below_positions_values,
    attack_both_distance,
    attack_both_positions,
    attack_both_positions_values,
    attack_minimal_binary,
    center_search_binary,
    collect_observations,
    fault_controlled_collect,
    resolve_error_value,
)
from .bounds import BoundReport, greedy_cover_bound, theoretical_bounds, worst_case_queries
from .covering import (
    Cover,
    coordinate_fixing_cover,
    covering_search,
    exact_min_cover_size,
    greedy_cover,
    load_cover,
    save_cover,
    verify_cover,
)
from .errors import CapacityError, InternalError, UsageError
from .harness import (
    ExperimentConfig,
    TrialRecord,
    bench_table,
    emit,
    run_experiment,
)
from .oracle import (
    ClientModel,
    LeakageMode,
    MatchResponse,
    Observation,
    Oracle,
    Payload,
    Scope,
    SessionShape,
    observation_from_json,
    observation_to_json,
    response_from_json,
    response_to_json,
)
from .space import (
    SpaceParams,
    Template,
    ball_volume,
    coupon_bracket,
    hamming_distance,
    harmonic_number_exact,
    q_ary_entropy,
    sample_template,
)

__version__ = "0.1.0"
