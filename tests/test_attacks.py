import itertools
from dataclasses import replace

import pytest

from matchleak import harness
from matchleak.attacks import (
    ATTACKS,
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
    client_for,
    collect_observations,
    fault_controlled_collect,
    resolve_error_value,
)
from matchleak.bounds import greedy_cover_bound
from matchleak.covering import covering_search, greedy_cover
from matchleak.errors import CapacityError, InternalError, UsageError
from matchleak.harness import ExperimentConfig
from matchleak.oracle import ClientModel, LeakageMode, Observation, Oracle, Payload, Scope, SessionShape
from matchleak.space import SpaceParams, hamming_distance, harmonic_number_exact, sample_template

from conftest import answers_to, ball_templates, unknown_positions

BELOW = Scope.BELOW_ONLY
BOTH = Scope.ALWAYS


def make(secret, q, n, eps, scope, payload):
    return Oracle(secret, SpaceParams(q, n, eps), LeakageMode(scope, payload))


def random_secret(params, rng):
    return sample_template(params, rng)


class TestModeDiscipline:
    """Every attack refuses to run against a mode other than its own."""

    CASES = [
        (attack_below_distance, BELOW, Payload.DISTANCE),
        (attack_below_positions, BELOW, Payload.POSITIONS),
        (attack_below_positions_values, BELOW, Payload.POSITIONS_VALUES),
        (attack_minimal_binary, BOTH, Payload.NONE),
        (attack_both_distance, BOTH, Payload.DISTANCE),
        (attack_both_positions, BOTH, Payload.POSITIONS),
        (attack_both_positions_values, BOTH, Payload.POSITIONS_VALUES),
    ]

    @pytest.mark.parametrize("attack,scope,payload", CASES)
    def test_wrong_modes_fail_fast(self, attack, scope, payload):
        for other_scope in Scope:
            for other_payload in Payload:
                mode = LeakageMode(other_scope, other_payload)
                if mode == LeakageMode(scope, payload):
                    continue
                oracle = make((0,) * 6, 2, 6, 2, mode.scope, mode.payload)
                with pytest.raises(UsageError):
                    attack(oracle)
                assert oracle.query_count == 0  # failed before any query

    def test_threshold_must_be_below_dimension(self):
        oracle = make((0, 0, 0), 2, 3, 3, BELOW, Payload.DISTANCE)
        with pytest.raises(UsageError):
            attack_below_distance(oracle)


class TestExhaustiveSearch:
    def test_all_zero_secret_found_first(self):
        oracle = make((0,) * 6, 2, 6, 2, BOTH, Payload.NONE)
        found = covering_search(oracle)[0]
        assert oracle.query_count == 1
        assert oracle.query(found).accepted

    def test_single_query_budget_when_eps_is_n_minus_1(self, rng):
        params = SpaceParams(2, 5, 4)
        for _ in range(20):
            oracle = Oracle(random_secret(params, rng), params, LeakageMode(BOTH, Payload.NONE))
            covering_search(oracle)[0]
            assert oracle.query_count <= 2

    def test_worst_case_bound_exhaustively(self):
        # every secret of a small space stays within q^(n-eps) queries
        params = SpaceParams(2, 8, 2)
        worst = 0
        for secret in itertools.product(range(2), repeat=8):
            oracle = Oracle(secret, params, LeakageMode(BOTH, Payload.NONE))
            y = covering_search(oracle)[0]
            assert hamming_distance(y, secret) <= 2
            worst = max(worst, oracle.query_count)
        assert worst <= 2**6

    def test_bound_is_tight_for_adversarial_secret(self):
        # all-ones free block forces the scan to its very last candidate
        params = SpaceParams(2, 10, 3)
        oracle = Oracle((1,) * 10, params, LeakageMode(BOTH, Payload.NONE))
        found = covering_search(oracle)[0]
        assert oracle.query_count == 2**7
        assert found == (1,) * 7 + (0,) * 3


class TestBelowDistance:
    def test_degenerate_all_zero_secret(self):
        oracle = make((0,) * 8, 2, 8, 2, BELOW, Payload.DISTANCE)
        out = attack_below_distance(oracle)
        assert out.recovered == (0,) * 8
        assert oracle.query_count <= 1 + 1 * 2

    def test_random_binary_trials(self, rng):
        params = SpaceParams(2, 8, 2)
        worst = 0
        for _ in range(300):
            secret = random_secret(params, rng)
            oracle = Oracle(secret, params, LeakageMode(BELOW, Payload.DISTANCE))
            out = attack_below_distance(oracle)
            assert out.recovered == secret
            worst = max(worst, oracle.query_count)
        assert worst <= 2**6 + 2 + 2

    @pytest.mark.parametrize("q,n,eps", [(3, 6, 2), (4, 5, 2), (2, 9, 3)])
    def test_random_qary_trials(self, q, n, eps, rng):
        params = SpaceParams(q, n, eps)
        for _ in range(120):
            secret = random_secret(params, rng)
            oracle = Oracle(secret, params, LeakageMode(BELOW, Payload.DISTANCE))
            out = attack_below_distance(oracle)
            assert out.recovered == secret
            assert oracle.query_count <= q ** (n - eps) + (q - 1) * eps

    def test_prefix_error_instance(self):
        # errors outside the pinned block: the first accepted scan point is
        # not the prefix-exact one, the arg-min of the leaked distance is
        secret = (1, 0, 0)
        oracle = make(secret, 2, 3, 1, BELOW, Payload.DISTANCE)
        out = attack_below_distance(oracle)
        assert out.recovered == secret


class TestBelowPositions:
    def test_quaternary_sweep_example(self):
        # hidden (0,1,3,2,2) with a wide-open threshold: the zero vector is
        # accepted immediately and the sweep repairs it in <= 3 more queries
        secret = (0, 1, 3, 2, 2)
        oracle = make(secret, 4, 5, 4, BELOW, Payload.POSITIONS)
        out = attack_below_positions(oracle)
        assert out.recovered == secret
        assert oracle.query_count - 1 <= 3

    def test_binary_needs_no_sweep(self, rng):
        params = SpaceParams(2, 9, 3)
        for _ in range(100):
            secret = random_secret(params, rng)
            oracle = Oracle(secret, params, LeakageMode(BELOW, Payload.POSITIONS))
            scan_budget = 2**6
            out = attack_below_positions(oracle)
            assert out.recovered == secret
            assert oracle.query_count <= scan_budget  # complement is query-free

    def test_ternary_trials(self, rng):
        params = SpaceParams(3, 9, 3)
        for _ in range(150):
            secret = random_secret(params, rng)
            oracle = Oracle(secret, params, LeakageMode(BELOW, Payload.POSITIONS))
            out = attack_below_positions(oracle)
            assert out.recovered == secret
            assert oracle.query_count <= 3**6 + 2


class TestBelowPositionsValues:
    def test_leak_is_a_full_correction(self, rng):
        params = SpaceParams(4, 6, 2)
        for _ in range(150):
            secret = random_secret(params, rng)
            oracle = Oracle(secret, params, LeakageMode(BELOW, Payload.POSITIONS_VALUES))
            out = attack_below_positions_values(oracle)
            assert out.recovered == secret
            assert oracle.query_count <= 4**4 + 1

    def test_secret_equal_to_scan_point(self):
        oracle = make((0, 0, 0, 0, 0, 0), 4, 6, 2, BELOW, Payload.POSITIONS_VALUES)
        out = attack_below_positions_values(oracle)
        assert out.recovered == (0,) * 6
        assert oracle.query_count == 1

    def test_binary_routes_through_position_logic(self, rng):
        params = SpaceParams(2, 10, 3)
        for _ in range(100):
            secret = random_secret(params, rng)
            oracle = Oracle(secret, params, LeakageMode(BELOW, Payload.POSITIONS_VALUES))
            out = attack_below_positions_values(oracle)
            assert out.recovered == secret
            assert oracle.query_count <= 2**7 + 1


class TestCenterSearch:
    def test_rejects_nonbinary(self):
        oracle = make((0, 0, 0), 3, 3, 1, BOTH, Payload.NONE)
        with pytest.raises(UsageError):
            center_search_binary(oracle, (0, 0, 0))

    def test_rejects_unaccepted_start(self):
        oracle = make((0,) * 6, 2, 6, 1, BOTH, Payload.NONE)
        with pytest.raises(UsageError):
            center_search_binary(oracle, (1,) * 6)

    def test_zero_threshold_start_is_secret(self):
        oracle = make((1, 0, 1, 1), 2, 4, 0, BOTH, Payload.NONE)
        assert center_search_binary(oracle, (1, 0, 1, 1)) == (1, 0, 1, 1)
        assert oracle.query_count == 1  # the start verification only

    def test_worked_seven_bit_instance(self):
        secret = (0, 0, 1, 1, 0, 1, 0)
        oracle = make(secret, 2, 7, 3, BOTH, Payload.NONE)
        start = (1, 1, 0, 1, 0, 1, 0)  # distance 3
        assert center_search_binary(oracle, start) == secret
        assert oracle.query_count <= 7 + 2 * 3 + 1

    def test_walk_can_stall_and_still_recover(self):
        # complement pair inside the ball: the coordinate walk never meets a
        # rejection and the consistent-set fallback finishes the job
        oracle = make((0, 0, 0), 2, 3, 2, BOTH, Payload.NONE)
        assert center_search_binary(oracle, (0, 1, 0)) == (0, 0, 0)
        assert oracle.query_count <= 3 + 2 * 2 + 1

    def test_exhaustive_small_grid(self):
        # all secrets x all in-ball starts for the regular regime cells
        for n, eps in [(4, 1), (5, 2), (6, 2)]:
            params = SpaceParams(2, n, eps)
            budget = n + 2 * eps + 1
            for secret in itertools.product(range(2), repeat=n):
                oracle = Oracle(secret, params, LeakageMode(BOTH, Payload.NONE))
                for start in ball_templates(params, secret):
                    before = oracle.query_count
                    assert center_search_binary(oracle, start) == secret
                    assert oracle.query_count - before <= budget

    def test_fallback_guard_dimension(self, rng):
        # degenerate regime at large n is refused rather than left to crawl
        params = SpaceParams(2, 24, 20)
        secret = (0,) * 24
        oracle = Oracle(secret, params, LeakageMode(BOTH, Payload.NONE))
        start = tuple([1] * 12 + [0] * 12)  # stalls the walk: complement in ball
        with pytest.raises(CapacityError):
            center_search_binary(oracle, start)


class TestMinimalBinary:
    def test_requires_binary(self):
        oracle = make((0, 0, 0, 0), 3, 4, 1, BOTH, Payload.NONE)
        with pytest.raises(UsageError):
            attack_minimal_binary(oracle)

    def test_random_trials(self, rng):
        params = SpaceParams(2, 10, 2)
        for _ in range(200):
            secret = random_secret(params, rng)
            oracle = Oracle(secret, params, LeakageMode(BOTH, Payload.NONE))
            out = attack_minimal_binary(oracle)
            assert out.recovered == secret
            assert oracle.query_count <= 2**8 + 10 + 5

    def test_zero_threshold_degenerates_to_pure_search(self):
        params = SpaceParams(2, 6, 0)
        worst = 0
        for secret in itertools.product(range(2), repeat=6):
            oracle = Oracle(secret, params, LeakageMode(BOTH, Payload.NONE))
            out = attack_minimal_binary(oracle)
            assert out.recovered == secret
            worst = max(worst, oracle.query_count)
        assert worst <= 2**6 + 1  # scan plus the start re-check

    def test_greedy_cover_strategy(self, rng):
        params = SpaceParams(2, 8, 1)
        cover_size = len(greedy_cover(params))
        assert cover_size <= greedy_cover_bound(params)
        for _ in range(40):
            secret = random_secret(params, rng)
            oracle = Oracle(secret, params, LeakageMode(BOTH, Payload.NONE))
            out = attack_minimal_binary(oracle, SearchStrategy.GREEDY_COVER)
            assert out.recovered == secret
            assert oracle.query_count <= cover_size + 8 + 2 + 1


class TestBothDistance:
    def test_all_zero_secret_single_query(self):
        oracle = make((0,) * 9, 2, 9, 2, BOTH, Payload.DISTANCE)
        out = attack_both_distance(oracle)
        assert out.recovered == (0,) * 9
        assert oracle.query_count == 1

    def test_quaternary_example(self):
        secret = (0, 1, 3, 2, 2)
        oracle = make(secret, 4, 5, 1, BOTH, Payload.DISTANCE)
        out = attack_both_distance(oracle)
        assert out.recovered == secret
        assert oracle.query_count <= 5 * 3 + 1

    def test_property_run(self, rng):
        for _ in range(150):
            q = int(rng.integers(2, 7))
            n = int(rng.integers(1, 65))
            eps = int(rng.integers(0, n + 1))
            params = SpaceParams(q, n, eps)
            secret = random_secret(params, rng)
            oracle = Oracle(secret, params, LeakageMode(BOTH, Payload.DISTANCE))
            out = attack_both_distance(oracle)
            assert out.recovered == secret
            assert oracle.query_count <= n * (q - 1) + 1

    @pytest.mark.parametrize("q", [2**63, 2**64])
    def test_exact_counts_past_int64(self, q):
        # 2**63 holds the secret's row as int64 and 2**64 as objects; the
        # climb's probe count, about 3q, passes int64 at both
        params = SpaceParams(q, 4, 1)
        oracle = Oracle((q - 1, 0, q - 2, q // 2 + 1), params, LeakageMode(BOTH, Payload.DISTANCE))
        out = attack_both_distance(oracle)
        secret = oracle.audit_secret()
        assert out.recovered == secret
        assert oracle.query_count == 1 + sum(max(1, s) for s in secret)
        assert oracle.query_count <= params.n * (q - 1) + 1


class TestBothPositions:
    def test_quaternary_flag_sets(self):
        # constant sweep over the hidden (0,1,3,2,2): flags shrink exactly as
        # the per-query table prescribes and the last exchange is skipped
        params = SpaceParams(4, 5, 1)
        mode = LeakageMode(BOTH, Payload.POSITIONS)
        secret = (0, 1, 3, 2, 2)
        probe = Oracle(secret, params, mode)
        assert probe.query((0,) * 5).error_positions == frozenset({2, 3, 4, 5})
        assert probe.query((1,) * 5).error_positions == frozenset({1, 3, 4, 5})
        assert probe.query((2,) * 5).error_positions == frozenset({1, 2, 3})
        oracle = Oracle(secret, params, mode)
        out = attack_both_positions(oracle)
        assert out.recovered == secret
        assert oracle.query_count == 3

    def test_binary_single_query(self, rng):
        params = SpaceParams(2, 16, 4)
        for _ in range(50):
            secret = random_secret(params, rng)
            oracle = Oracle(secret, params, LeakageMode(BOTH, Payload.POSITIONS))
            out = attack_both_positions(oracle)
            assert out.recovered == secret
            assert oracle.query_count == 1

    def test_six_symbol_alphabet(self, rng):
        params = SpaceParams(6, 40, 5)
        for _ in range(60):
            secret = random_secret(params, rng)
            oracle = Oracle(secret, params, LeakageMode(BOTH, Payload.POSITIONS))
            out = attack_both_positions(oracle)
            assert out.recovered == secret
            assert oracle.query_count == 5

    def test_exhaustive_tiny(self):
        for q, n in [(2, 6), (3, 4)]:
            params = SpaceParams(q, n, 1)
            for secret in itertools.product(range(q), repeat=n):
                oracle = Oracle(secret, params, LeakageMode(BOTH, Payload.POSITIONS))
                out = attack_both_positions(oracle)
                assert out.recovered == secret
                assert oracle.query_count <= q - 1

    def test_exhaustive_binary_grid(self):
        # every binary secret across the small-parameter grid
        for n in range(1, 11):
            for eps in range(0, min(3, n) + 1):
                params = SpaceParams(2, n, eps)
                for secret in itertools.product(range(2), repeat=n):
                    oracle = Oracle(secret, params, LeakageMode(BOTH, Payload.POSITIONS))
                    out = attack_both_positions(oracle)
                    assert out.recovered == secret
                    assert oracle.query_count == 1


def loop_both_positions(oracle: Oracle) -> tuple[tuple[int, ...], int]:
    """The constant sweep with one n-long loop per constant, as the
    reference for the set-based attack: the template and queries used."""
    params = oracle.params
    q0 = oracle.query_count
    x = [None] * params.n
    for c in range(params.q - 1):
        flagged = oracle.query((c,) * params.n).error_positions
        for i in range(params.n):
            if x[i] is None and (i + 1) not in flagged:
                x[i] = c
    return tuple(params.q - 1 if v is None else v for v in x), oracle.query_count - q0


class TestBothPositionsSetSweep:
    @pytest.mark.parametrize("q", [2, 3, 16])
    @pytest.mark.parametrize("n", [1, 7, 64, 300])
    def test_matches_loop_reference(self, q, n, rng):
        params = SpaceParams(q, n, min(n, 3))
        mode = LeakageMode(BOTH, Payload.POSITIONS)
        secrets = [random_secret(params, rng) for _ in range(20)]
        secrets += [(0,) * n, (q - 1,) * n, tuple(i % q for i in range(n))]
        for secret in secrets:
            fast_tap, loop_tap = [], []
            oracle = Oracle(secret, params, mode, tap=answers_to(fast_tap))
            out = attack_both_positions(oracle)
            expect, used = loop_both_positions(Oracle(secret, params, mode, tap=answers_to(loop_tap)))
            assert (out.recovered, oracle.query_count) == (expect, used)
            assert out.recovered == secret
            assert fast_tap == loop_tap


class TestBothPositionsValues:
    def test_single_query_any_secret(self, rng):
        for _ in range(100):
            q = int(rng.integers(2, 7))
            n = int(rng.integers(1, 65))
            params = SpaceParams(q, n, int(rng.integers(0, n + 1)))
            secret = random_secret(params, rng)
            oracle = Oracle(secret, params, LeakageMode(BOTH, Payload.POSITIONS_VALUES))
            out = attack_both_positions_values(oracle)
            assert out.recovered == secret
            assert oracle.query_count == 1

    def test_quaternary_value_leak(self):
        secret = (0, 1, 3, 2, 2)
        params = SpaceParams(4, 5, 1)
        mode = LeakageMode(BOTH, Payload.POSITIONS_VALUES)
        resp = Oracle(secret, params, mode).query((0,) * 5)
        assert resp.error_values == {2: 1, 3: 3, 4: 2, 5: 2}
        out = attack_both_positions_values(Oracle(secret, params, mode))
        assert out.recovered == secret

    def test_zero_secret(self):
        oracle = make((0,) * 5, 4, 5, 2, BOTH, Payload.POSITIONS_VALUES)
        out = attack_both_positions_values(oracle)
        assert out.recovered == (0,) * 5 and oracle.query_count == 1


class TestValueResolution:
    def test_binary_signs(self):
        assert resolve_error_value(1, 2) == 1
        assert resolve_error_value(-1, 2) == 0

    def test_qary_endpoints_only(self):
        # extreme integer differences pin the coordinate; middles stay open
        assert resolve_error_value(3, 4) == 3
        assert resolve_error_value(-3, 4) == 0
        assert resolve_error_value(2, 4) is None
        assert resolve_error_value(-1, 4) is None


class TestAccumulation:
    MODE = LeakageMode(BELOW, Payload.POSITIONS_VALUES)

    def test_two_session_script(self):
        # secret (0,0,1,1,0,1,0): first session reveals bits 1..3, second
        # reveals 3..5, leaving exactly two unknowns
        params = SpaceParams(2, 7, 3)
        obs = [
            Observation(errors={1: -1, 2: -1, 3: 1}),
            Observation(errors={3: 1, 4: 1, 5: -1}),
        ]
        partial = collect_observations(params, (o.errors.items() for o in obs))
        assert partial.coords == (0, 0, 1, 1, 0, None, None)
        assert unknown_positions(partial) == (6, 7)
        # two unknowns <= threshold: any completion lies in the ball
        assert hamming_distance(partial.fill(0), (0, 0, 1, 1, 0, 1, 0)) <= 3

    def test_disagreeing_observations_raise(self):
        with pytest.raises(InternalError, match="coordinate 2"):
            collect_observations(SpaceParams(2, 4, 2), [[(1, 1), (2, -1)], [(2, 1)]])

    def test_live_collection_exact(self, rng):
        params = SpaceParams(2, 12, 3)
        secret = random_secret(params, rng)
        oracle = Oracle(secret, params, self.MODE)
        out = accumulation_collect(oracle, ClientModel.uniform(12), rng)
        assert out.exact_recovery and out.within_ball
        assert out.recovered.fill() == secret
        assert oracle.query_count == 0
        assert oracle.session_count > 0

    def test_requires_binary_and_mode(self, rng):
        params = SpaceParams(4, 6, 2)
        oracle = Oracle((0,) * 6, params, self.MODE)
        with pytest.raises(UsageError):
            accumulation_collect(oracle, ClientModel.uniform(6), rng)
        oracle2 = make((0,) * 6, 2, 6, 2, BOTH, Payload.POSITIONS_VALUES)
        with pytest.raises(UsageError):
            accumulation_collect(oracle2, ClientModel.uniform(6), rng)

    def test_nonvariable_coordinates_stay_private(self, rng):
        params = SpaceParams(2, 8, 3)
        secret = random_secret(params, rng)
        client = ClientModel((0.0, 0.0) + (1 / 6,) * 6)
        oracle = Oracle(secret, params, self.MODE)
        out = accumulation_collect(oracle, client, rng)
        assert out.recovered.coords[0] is None and out.recovered.coords[1] is None
        assert not out.exact_recovery
        assert out.within_ball  # 2 unknowns <= eps: authentication still broken
        assert hamming_distance(out.ball_guess, secret) <= 3

    def test_client_built_once_per_setting(self):
        params = SpaceParams(2, 16, 3)
        cfg = ExperimentConfig(2, 16, 3, attack="accumulation", alpha=1.5)
        client = client_for(cfg, params)
        assert client is client_for(replace(cfg, trials=3, master_seed=9), params)
        assert client == ClientModel.rare_first(16, 1.5)
        assert client_for(replace(cfg, session_shape="multi"), params).shape is SessionShape.MULTI_ERROR
        assert client_for(replace(cfg, alpha=None), params) == ClientModel.uniform(16)

    @pytest.mark.parametrize("shape", ["single", "multi"])
    @pytest.mark.parametrize("alpha", [None, 1, 1.5, 7.5, 40])
    @pytest.mark.parametrize("n", [1, 2, 16, 1024])
    def test_every_configured_client_has_every_coordinate_variable(self, n, alpha, shape):
        # the harness's summary expects every accumulation trial to recover
        # exactly, which needs every coordinate to err with positive chance
        cfg = ExperimentConfig(2, n, 1, attack="accumulation", alpha=alpha, session_shape=shape)
        assert client_for(cfg, SpaceParams(2, n, 1)).variable_positions() == tuple(range(1, n + 1))

    def test_uniform_collector_mean_smoke(self, rng):
        # classic collector: mean draws near n*H(n) for the single-error model
        params = SpaceParams(2, 10, 2)
        totals = []
        for _ in range(400):
            oracle = Oracle(random_secret(params, rng), params, self.MODE)
            accumulation_collect(oracle, ClientModel.uniform(10), rng)
            totals.append(oracle.session_count)
        mean = sum(totals) / len(totals)
        assert mean == pytest.approx(10 * float(harmonic_number_exact(10)), rel=0.10)


class TestFaultControlled:
    MODE = LeakageMode(BELOW, Payload.POSITIONS_VALUES)

    def test_seven_over_three(self, rng):
        params = SpaceParams(2, 7, 3)
        secret = random_secret(params, rng)
        oracle = Oracle(secret, params, self.MODE)
        out = fault_controlled_collect(oracle)
        assert oracle.session_count == 3 and out.recovered == secret

    def test_threshold_equals_dimension(self, rng):
        params = SpaceParams(2, 9, 9)
        secret = random_secret(params, rng)
        oracle = Oracle(secret, params, self.MODE)
        out = fault_controlled_collect(oracle)
        assert oracle.session_count == 1 and out.recovered == secret

    def test_twelve_over_four(self, rng):
        params = SpaceParams(2, 12, 4)
        secret = random_secret(params, rng)
        oracle = Oracle(secret, params, self.MODE)
        out = fault_controlled_collect(oracle)
        assert oracle.session_count == 3 and out.exact_recovery

    def test_requires_posvalues_below(self):
        oracle = make((0,) * 6, 2, 6, 2, BOTH, Payload.POSITIONS_VALUES)
        with pytest.raises(UsageError):
            fault_controlled_collect(oracle)


class TestIsolation:
    """Attacks only ever touch the oracle through queries and sessions."""

    def test_no_audit_reads_during_attacks(self, rng):
        runs = [
            (attack_below_distance, 2, 8, 2, BELOW, Payload.DISTANCE),
            (attack_below_positions, 3, 6, 2, BELOW, Payload.POSITIONS),
            (attack_below_positions_values, 4, 5, 2, BELOW, Payload.POSITIONS_VALUES),
            (attack_minimal_binary, 2, 8, 2, BOTH, Payload.NONE),
            (attack_both_distance, 4, 6, 2, BOTH, Payload.DISTANCE),
            (attack_both_positions, 4, 6, 2, BOTH, Payload.POSITIONS),
            (attack_both_positions_values, 4, 6, 2, BOTH, Payload.POSITIONS_VALUES),
            (fault_controlled_collect, 2, 8, 2, BELOW, Payload.POSITIONS_VALUES),
        ]
        for attack, q, n, eps, scope, payload in runs:
            params = SpaceParams(q, n, eps)
            secret = random_secret(params, rng)
            oracle = Oracle(secret, params, LeakageMode(scope, payload))
            out = attack(oracle)
            assert oracle.audit_count == 0
            if isinstance(out.recovered, tuple):
                assert out.recovered == oracle.audit_secret()

    def test_partial_template_helpers(self):
        partial = PartialTemplate((1, None, 0, None))
        assert partial.known_count() == 2
        assert unknown_positions(partial) == (2, 4)
        assert partial.fill(1) == (1, 1, 0, 1)


class TestQueryTraffic:
    """At the configurations of perfbench's ``binary`` and ``qary``
    workloads, ``Oracle.scan`` and ``Oracle.climb`` answer nearly every
    query, and ``Oracle.query`` sees only the few counted here per trial.
    A change that routes bulk traffic back through ``query`` fails here;
    the per-query fast paths dropped while it saw this little traffic
    should then be measured again."""

    CASES = [
        ("below_distance", 2, 20, 4, {}),
        ("below_positions", 2, 20, 4, {}),
        ("below_posvalues", 2, 20, 4, {}),
        ("minimal", 2, 20, 4, {"strategy": "fixing"}),
        ("both_distance", 2, 1024, 4, {}),
        ("below_distance", 3, 8, 2, {}),
        ("below_positions", 4, 7, 2, {}),
        ("below_posvalues", 5, 6, 2, {}),
        ("both_distance", 4, 256, 8, {}),
        ("both_positions", 16, 1024, 8, {}),
        ("both_posvalues", 16, 1024, 8, {}),
    ]

    @staticmethod
    def allowed(attack: str, q: int, n: int, eps: int) -> range:
        """The query calls one trial of the attack may make."""
        return {
            "below_distance": range(1),
            "below_posvalues": range(1),
            "below_positions": range(q),
            "minimal": range(n + 2 * eps + 2),
            "both_distance": range(1, 2),
            "both_positions": range(q - 1, q),
            "both_posvalues": range(1, 2),
        }[attack]

    @pytest.mark.parametrize("attack,q,n,eps,settings", CASES)
    def test_query_sees_only_the_per_query_steps(self, attack, q, n, eps, settings, monkeypatch):
        calls = []
        query = Oracle.query

        def counted(self, y):
            calls.append(1)
            return query(self, y)

        def stepwise(self, *args):
            raise AssertionError("the distance climb ran probe by probe")

        monkeypatch.setattr(Oracle, "query", counted)
        monkeypatch.setattr(Oracle, "_climb_stepwise", stepwise)
        config = ExperimentConfig(q=q, n=n, epsilon=eps, attack=attack, trials=4, master_seed=3, **settings)
        params = harness.validate_config(config)
        bound = harness.attack_bound(config, params)
        for trial in range(config.trials):
            del calls[:]
            record = harness.run_trial(config, trial, params, bound)
            assert record.exact
            assert len(calls) in self.allowed(attack, q, n, eps)
            assert len(calls) <= record.queries


QUERY_ATTACKS = [spec.id for spec in ATTACKS.values() if spec.counter == "queries"]


def _tapped(secret, params, mode):
    """An oracle whose tap keeps every (submission, answer) pair, and the
    list it keeps them in."""
    pairs = []
    return Oracle(secret, params, mode, tap=lambda y, answer: pairs.append((y, answer))), pairs


def _replay(secret, params, mode, pairs):
    """Submit every tapped template again through query on a fresh oracle
    over the same secret: each must get the answer that was tapped."""
    fresh = Oracle(secret, params, mode)
    for y, answer in pairs:
        assert type(y) is tuple
        assert fresh.query(y) == answer
    assert fresh.query_count == len(pairs)


class TestTappedTrafficReplays:
    """Every pair the tap sees on a fast path (packed and row scans, greedy
    cover scans, the distance climb read off the secret's row) replays to
    the same answer through the per-query path."""

    CASES = [
        (attack, q, strategy)
        for attack in QUERY_ATTACKS
        for q in (2, 3)
        for strategy in (("fixing", "greedy") if attack == "minimal" else ("fixing",))
        if q == 2 or not ATTACKS[attack].binary
    ]

    @pytest.mark.parametrize("attack,q,strategy", CASES)
    def test_attack_pairs_replay_through_query(self, attack, q, strategy, rng, monkeypatch):
        # q = 2 scans packed words, q = 3 digit rows; the attacks' climbs
        # all take the fast path.  An accept search opens its attack, and
        # taps the candidates it answers in the order committed.
        def stepwise(self, *args):
            raise AssertionError("the distance climb ran probe by probe")

        scanned = []
        scan = Oracle.scan

        def counted_scan(self, *args, **kwargs):
            q0 = self.query_count
            hit = scan(self, *args, **kwargs)
            scanned.append(self.query_count - q0)
            return hit

        monkeypatch.setattr(Oracle, "_climb_stepwise", stepwise)
        monkeypatch.setattr(Oracle, "scan", counted_scan)
        spec = ATTACKS[attack]
        params = SpaceParams(2, 9, 2) if q == 2 else SpaceParams(3, 6, 2)
        n, eps = params.n, params.epsilon
        config = ExperimentConfig(q, n, eps, attack=attack, strategy=strategy)
        if strategy == "greedy":
            centers = list(greedy_cover(params).centers)
        else:
            centers = [head + (0,) * eps for head in itertools.product(range(q), repeat=n - eps)]
        for secret in [sample_template(params, rng) for _ in range(6)] + [(0,) * n, (q - 1,) * n]:
            scanned.clear()
            o, pairs = _tapped(secret, params, spec.mode)
            out = spec.run(o, config, rng)
            assert out.recovered == secret
            assert len(pairs) == o.query_count > 0
            _replay(secret, params, spec.mode, pairs)
            k = sum(scanned)
            assert [y for y, _ in pairs[:k]] == centers[:k]

    @pytest.mark.parametrize("q", [2, 3, 257])
    @pytest.mark.parametrize("scope", list(Scope))
    def test_climb_pairs_replay_through_query(self, q, scope, rng, monkeypatch):
        # starts that are 0 on the climbed positions at their true distance
        # take the fast path unless below-only scope rejects them; other
        # starts take _climb_stepwise; forward, reversed and stride-2 ranges
        stepwise = []
        loop = Oracle._climb_stepwise
        monkeypatch.setattr(Oracle, "_climb_stepwise", lambda self, *a: stepwise.append(1) or loop(self, *a))
        mode = LeakageMode(scope, Payload.DISTANCE)
        fast = 0
        for _ in range(20):
            n = int(rng.integers(1, 8))
            params = SpaceParams(q, n, int(rng.integers(0, n + 1)))
            secret = sample_template(params, rng)
            for positions in (range(n), range(n - 1, -1, -1), range(1, n, 2)):
                for start in ((0,) * n, sample_template(params, rng)):
                    o, pairs = _tapped(secret, params, mode)
                    calls = len(stepwise)
                    o.climb(start, hamming_distance(start, secret), positions)
                    fast += len(stepwise) == calls
                    assert len(pairs) == o.query_count
                    _replay(secret, params, mode, pairs)
        assert fast and stepwise

    def test_faulted_session_pairs_replay_through_faulted_session(self, rng):
        params = SpaceParams(2, 16, 3)
        mode = ATTACKS["fault_control"].mode
        for secret in [sample_template(params, rng) for _ in range(5)] + [(0,) * 16]:
            o, pairs = _tapped(secret, params, mode)
            fault_controlled_collect(o)
            assert len(pairs) == o.session_count
            fresh = Oracle(secret, params, mode)
            for positions, obs in pairs:
                assert positions == sorted(positions)
                assert fresh.faulted_session(positions) == obs
            assert fresh.session_count == len(pairs)

    @pytest.mark.parametrize("shape", list(SessionShape))
    def test_genuine_sessions_are_tapped_without_a_submission(self, shape, rng):
        params = SpaceParams(2, 16, 3)
        o, pairs = _tapped(sample_template(params, rng), params, ATTACKS["accumulation"].mode)
        out = accumulation_collect(o, ClientModel.uniform(16, shape), rng)
        assert len(pairs) == o.session_count > 0
        assert all(y is None and isinstance(obs, Observation) for y, obs in pairs)
        assert collect_observations(params, (obs.errors.items() for _, obs in pairs)) == out.recovered
