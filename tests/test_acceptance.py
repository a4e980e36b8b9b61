"""Release acceptance suite.

One test per criterion; each prints a single PASS/FAIL line with its
measured evidence (run pytest with -s or -rA to see the lines for passing
criteria too).

Criterion 4 runs the full exhaustive grid it states, including the
degenerate cell (n=4, eps=3).  That cell's query budget is unattainable for
any strategy -- with the accept bit alone each accepted probe rules out
exactly one candidate secret, and 15 candidates remain once the start is
known to be in the ball, so at least 14 probes are needed against a budget
of 11.  The attack still recovers the secret exactly there; only the budget
check fails, and the failure is reported rather than papered over.
"""

import itertools
import math
import statistics
import time

import numpy as np

from matchleak.attacks import (
    accumulation_collect,
    attack_below_distance,
    attack_below_positions,
    attack_below_positions_values,
    attack_both_distance,
    attack_both_positions,
    attack_both_positions_values,
    attack_minimal_binary,
    center_search_binary,
    fault_controlled_collect,
)
from matchleak.bounds import greedy_cover_bound
from matchleak.covering import coordinate_fixing_cover, exact_min_cover_size, greedy_cover, verify_cover
from matchleak.harness import bench_table, emit_bench
from matchleak.oracle import ClientModel, LeakageMode, Oracle, Payload, Scope, SessionShape
from matchleak.space import (
    SpaceParams,
    ball_volume,
    coupon_bracket,
    harmonic_number_exact,
    q_ary_entropy,
    sample_template,
)
from conftest import ball_templates

from conftest import weight_histogram

BELOW = Scope.BELOW_ONLY
BOTH = Scope.ALWAYS


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def random_instances(rng, count, q_hi=6, n_hi=64):
    for _ in range(count):
        q = int(rng.integers(2, q_hi + 1))
        n = int(rng.integers(1, n_hi + 1))
        eps = int(rng.integers(0, n + 1))
        yield SpaceParams(q, n, eps)


def test_criterion_01_single_query_recovery():
    """positions+values on every query: exactly one query, 1000 instances."""
    rng = np.random.default_rng(101)
    t0 = time.time()
    failures = 0
    for params in random_instances(rng, 1000):
        secret = sample_template(params, rng)
        oracle = Oracle(secret, params, LeakageMode(BOTH, Payload.POSITIONS_VALUES))
        out = attack_both_positions_values(oracle)
        if oracle.query_count != 1 or out.recovered != secret:
            failures += 1
    elapsed = time.time() - t0
    ok = failures == 0 and elapsed < 1.0
    report("1 single-query recovery", ok, f"1000 instances, {failures} failures, {elapsed:.2f}s")
    assert failures == 0
    assert elapsed < 1.0


def test_criterion_02_constant_sweep():
    """position leak on every query: <= q-1 queries, plus the worked
    quaternary instance with its exact per-query flag sets."""
    rng = np.random.default_rng(102)
    t0 = time.time()
    failures = 0
    for params in random_instances(rng, 1000):
        secret = sample_template(params, rng)
        oracle = Oracle(secret, params, LeakageMode(BOTH, Payload.POSITIONS))
        out = attack_both_positions(oracle)
        if out.recovered != secret or oracle.query_count > params.q - 1:
            failures += 1

    params = SpaceParams(4, 5, 1)
    mode = LeakageMode(BOTH, Payload.POSITIONS)
    secret = (0, 1, 3, 2, 2)
    probe = Oracle(secret, params, mode)
    flags_ok = (
        probe.query((0,) * 5).error_positions == frozenset({2, 3, 4, 5})
        and probe.query((1,) * 5).error_positions == frozenset({1, 3, 4, 5})
        and probe.query((2,) * 5).error_positions == frozenset({1, 2, 3})
    )
    oracle = Oracle(secret, params, mode)
    out = attack_both_positions(oracle)
    instance_ok = flags_ok and out.recovered == secret and oracle.query_count == 3
    elapsed = time.time() - t0
    ok = failures == 0 and instance_ok and elapsed < 1.0
    report(
        "2 constant sweep", ok,
        f"1000 instances, {failures} failures, worked instance {'ok' if instance_ok else 'BAD'}, {elapsed:.2f}s",
    )
    assert failures == 0 and instance_ok
    assert elapsed < 1.0


def test_criterion_03_distance_hill_climb():
    """distance leak on every query: exact within n(q-1)+1 queries."""
    rng = np.random.default_rng(103)
    t0 = time.time()
    failures = 0
    for params in random_instances(rng, 1000):
        secret = sample_template(params, rng)
        oracle = Oracle(secret, params, LeakageMode(BOTH, Payload.DISTANCE))
        out = attack_both_distance(oracle)
        if out.recovered != secret or oracle.query_count > params.n * (params.q - 1) + 1:
            failures += 1
    elapsed = time.time() - t0
    ok = failures == 0 and elapsed < 5.0
    report("3 distance hill climb", ok, f"1000 instances, {failures} failures, {elapsed:.2f}s")
    assert failures == 0
    assert elapsed < 5.0


def test_criterion_04_minimal_leak_exhaustive():
    """accept bit only, binary: exhaustive over n <= 10, eps <= 3, every
    secret and every in-ball start, against the stated budgets."""
    t0 = time.time()
    attack_violations: dict[tuple, int] = {}
    search_violations: dict[tuple, int] = {}
    exact_failures = 0
    mode = LeakageMode(BOTH, Payload.NONE)
    for n in range(1, 11):
        for eps in range(0, min(3, n - 1) + 1):
            params = SpaceParams(2, n, eps)
            attack_budget = 2 ** (n - eps) + n + 2 * eps + 1
            search_budget = n + 2 * eps + 1
            for secret in itertools.product(range(2), repeat=n):
                oracle = Oracle(secret, params, mode)
                out = attack_minimal_binary(oracle)
                if out.recovered != secret:
                    exact_failures += 1
                if oracle.query_count > attack_budget:
                    attack_violations[(n, eps)] = attack_violations.get((n, eps), 0) + 1
                walker = Oracle(secret, params, mode)
                for start in ball_templates(params, secret):
                    before = walker.query_count
                    found = center_search_binary(walker, start)
                    used = walker.query_count - before
                    if found != secret:
                        exact_failures += 1
                    if used > search_budget:
                        search_violations[(n, eps)] = search_violations.get((n, eps), 0) + 1
    elapsed = time.time() - t0
    ok = not attack_violations and not search_violations and exact_failures == 0 and elapsed < 120
    report(
        "4 minimal-leak exhaustive", ok,
        f"exact failures {exact_failures}, attack budget violations {dict(sorted(attack_violations.items()))}, "
        f"center-search budget violations {dict(sorted(search_violations.items()))}, {elapsed:.1f}s",
    )
    assert elapsed < 120
    assert exact_failures == 0
    assert not attack_violations and not search_violations, (
        "query budgets exceeded at "
        f"{sorted(set(attack_violations) | set(search_violations))}; "
        "the (n=4, eps=3) budget is unattainable for any strategy: each "
        "accepted probe eliminates exactly one candidate secret, leaving 15 "
        "candidates to distinguish within a budget of 11"
    )


def test_criterion_05_below_threshold_trio():
    """below-threshold leaks: randomized trials per alphabet, zero
    violations of the per-scenario budgets."""
    t0 = time.time()
    configs = [(2, 10, 3), (2, 14, 4), (3, 8, 3), (4, 6, 2)]
    trials = 200
    violations = []
    rng = np.random.default_rng(105)
    for q, n, eps in configs:
        params = SpaceParams(q, n, eps)
        search = q ** (n - eps)
        budgets = {
            "distance": search + (q - 1) * eps + eps,
            "positions": search + q - 1,
            "posvalues": search + 1,
        }
        for _ in range(trials):
            secret = sample_template(params, rng)
            for name, attack, payload in [
                ("distance", attack_below_distance, Payload.DISTANCE),
                ("positions", attack_below_positions, Payload.POSITIONS),
                ("posvalues", attack_below_positions_values, Payload.POSITIONS_VALUES),
            ]:
                oracle = Oracle(secret, params, LeakageMode(BELOW, payload))
                out = attack(oracle)
                if out.recovered != secret or oracle.query_count > budgets[name]:
                    violations.append((q, n, eps, name))
    elapsed = time.time() - t0
    ok = not violations and elapsed < 120
    report(
        "5 below-threshold trio", ok,
        f"{len(configs)}x{trials} trials x3 scenarios, {len(violations)} violations, {elapsed:.1f}s",
    )
    assert not violations
    assert elapsed < 120


def test_criterion_06_ball_volume():
    """closed-form ball sizes match enumeration; entropy upper bound holds
    on the log scale within 1e-9."""
    mismatches = 0
    entropy_misses = 0
    for q in (2, 3, 4):
        for n in range(1, 11):
            hist = weight_histogram(q, n)
            running = np.cumsum(hist)
            for eps in range(n + 1):
                params = SpaceParams(q, n, eps)
                vol = ball_volume(params)
                if vol != int(running[eps]):
                    mismatches += 1
                if eps / n <= 1 - 1 / q:
                    if math.log(vol, q) > n * q_ary_entropy(q, eps / n) + 1e-9:
                        entropy_misses += 1
    ok = mismatches == 0 and entropy_misses == 0
    report("6 ball volume", ok, f"{mismatches} enumeration mismatches, {entropy_misses} entropy-bound misses")
    assert mismatches == 0
    assert entropy_misses == 0


def test_criterion_07_covering():
    """greedy covers certified up to 2^16 points and within the harmonic
    guarantee; exact <= greedy <= coordinate-fixing on tiny instances."""
    certified_grid = [
        (2, 8, 1), (2, 8, 2), (2, 10, 2), (2, 12, 2), (2, 12, 3),
        (2, 16, 2), (3, 8, 2), (4, 6, 1), (4, 8, 2),
    ]
    guarantee_misses = 0
    uncertified = 0
    for q, n, eps in certified_grid:
        params = SpaceParams(q, n, eps)
        cover = greedy_cover(params)
        if not (cover.certified and verify_cover(cover)):
            uncertified += 1
        if len(cover) > greedy_cover_bound(params):
            guarantee_misses += 1

    sandwich_grid = [
        (2, 2, 1), (2, 3, 1), (2, 3, 2), (2, 4, 1), (2, 4, 2), (2, 4, 3),
        (2, 5, 1), (2, 5, 2), (3, 3, 1), (3, 3, 2), (4, 2, 1), (4, 3, 2),
    ]
    sandwich_breaks = 0
    for q, n, eps in sandwich_grid:
        params = SpaceParams(q, n, eps)
        exact = exact_min_cover_size(params)
        greedy = len(greedy_cover(params))
        fixing = len(coordinate_fixing_cover(params))
        if not exact <= greedy <= fixing:
            sandwich_breaks += 1

    tiny_exact_ok = exact_min_cover_size(SpaceParams(2, 3, 1)) == 2
    ok = uncertified == 0 and guarantee_misses == 0 and sandwich_breaks == 0 and tiny_exact_ok
    report(
        "7 covering", ok,
        f"{len(certified_grid)} certified instances, {guarantee_misses} guarantee misses, "
        f"{sandwich_breaks} sandwich breaks, tiny optimum {'ok' if tiny_exact_ok else 'BAD'}",
    )
    assert uncertified == 0 and guarantee_misses == 0 and sandwich_breaks == 0 and tiny_exact_ok


def test_criterion_08_accumulation():
    """passive collection: classic-collector mean, weighted bracket, and
    the multi-error speedup."""
    t0 = time.time()
    mode = LeakageMode(BELOW, Payload.POSITIONS_VALUES)

    # (a) uniform single-error collection matches n*H(n) within 5%
    params = SpaceParams(2, 20, 3)
    client = ClientModel.uniform(20)
    sessions = []
    for trial in range(2000):
        rng = np.random.default_rng((108, trial))
        oracle = Oracle(sample_template(params, rng), params, mode)
        accumulation_collect(oracle, client, rng)
        sessions.append(oracle.session_count)
    mean_uniform = statistics.mean(sessions)
    expected = 20 * float(harmonic_number_exact(20))
    uniform_ok = abs(mean_uniform - expected) / expected < 0.05

    # (b) weighted collection lands inside the expectation bracket
    bracket_ok = True
    bracket_detail = []
    params16 = SpaceParams(2, 16, 3)
    for alpha in (1.0, 1.5):
        client = ClientModel.rare_first(16, alpha)
        lo, hi = coupon_bracket(16, client.min_prob())
        vals = []
        for trial in range(2000):
            rng = np.random.default_rng((109, int(alpha * 10), trial))
            oracle = Oracle(sample_template(params16, rng), params16, mode)
            accumulation_collect(oracle, client, rng)
            vals.append(oracle.session_count)
        mean = statistics.mean(vals)
        bracket_detail.append(f"alpha={alpha}: {mean:.1f} in [{lo:.1f},{hi:.1f}]")
        if not lo <= mean <= hi:
            bracket_ok = False

    # (c) multiple errors per session collect at least as fast (3 sigma)
    def mean_se(shape, tag):
        vals = []
        for trial in range(800):
            rng = np.random.default_rng((110, tag, trial))
            oracle = Oracle(sample_template(params16, rng), params16, mode)
            accumulation_collect(oracle, ClientModel.uniform(16, shape), rng)
            vals.append(oracle.session_count)
        return statistics.mean(vals), statistics.stdev(vals) / math.sqrt(len(vals))
    m_single, se_single = mean_se(SessionShape.SINGLE_ERROR, 0)
    m_multi, se_multi = mean_se(SessionShape.MULTI_ERROR, 1)
    sigma = math.hypot(se_single, se_multi)
    multi_ok = m_multi <= m_single + 3 * sigma

    elapsed = time.time() - t0
    ok = uniform_ok and bracket_ok and multi_ok and elapsed < 60
    report(
        "8 accumulation", ok,
        f"uniform mean {mean_uniform:.2f} vs {expected:.2f}; {'; '.join(bracket_detail)}; "
        f"multi {m_multi:.1f} <= single {m_single:.1f} (+3sig); {elapsed:.1f}s",
    )
    assert uniform_ok and bracket_ok and multi_ok
    assert elapsed < 60


def test_criterion_09_fault_controlled():
    """attacker-chosen error locations: exactly ceil(n/eps) sessions."""
    rng = np.random.default_rng(111)
    mode = LeakageMode(BELOW, Payload.POSITIONS_VALUES)
    pairs = [(1, 1), (7, 3), (12, 4), (64, 1), (64, 64), (64, 63), (33, 5)]
    while len(pairs) < 60:
        n = int(rng.integers(1, 65))
        pairs.append((n, int(rng.integers(1, n + 1))))
    failures = 0
    for n, eps in pairs:
        params = SpaceParams(2, n, eps)
        secret = sample_template(params, rng)
        oracle = Oracle(secret, params, mode)
        out = fault_controlled_collect(oracle)
        if oracle.session_count != math.ceil(n / eps) or out.recovered != secret:
            failures += 1
    ok = failures == 0
    report("9 fault-controlled", ok, f"{len(pairs)} (n, eps) pairs, {failures} failures")
    assert failures == 0


def test_criterion_10_bench(tmp_path):
    """the bench covers all eight scenarios at desk scale with zero
    violations and byte-identical output for a fixed seed."""
    rows = bench_table(q=2, n=12, epsilon=3, trials=200, master_seed=0)
    rows_again = bench_table(q=2, n=12, epsilon=3, trials=200, master_seed=0)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_bench(rows, "csv", a)
    emit_bench(rows_again, "csv", b)
    deterministic = a.read_bytes() == b.read_bytes()
    violations = sum(r.violations for r in rows)
    all_ok = all(r.ok for r in rows)
    ok = len(rows) == 8 and violations == 0 and all_ok and deterministic
    report(
        "10 bench", ok,
        f"{len(rows)} rows, {violations} violations, deterministic={deterministic}",
    )
    assert len(rows) == 8
    assert violations == 0 and all_ok
    assert deterministic
