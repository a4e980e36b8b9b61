"""Correctness checks computed apart from the program.

Every expected value here is recomputed from the paper's definitions: the
secret of each trial, the oracle's answer to a submission, the worst-case
cost of each scenario, the expected-session bracket of passive accumulation,
and the coverage of a ball cover.  Nothing is taken from ``matchleak``'s own
bookkeeping; program objects are only read through their public fields.

Each check returns a list of problems (empty when the output is correct), so
the self-test can feed it corrupted values and expect a complaint.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

# attack -> (scope, payload) it exploits; "below/none" does not occur
MODES: dict[str, tuple[str, str]] = {
    "below_distance": ("below", "distance"),
    "below_positions": ("below", "positions"),
    "below_posvalues": ("below", "posvalues"),
    "minimal": ("both", "none"),
    "both_distance": ("both", "distance"),
    "both_positions": ("both", "positions"),
    "both_posvalues": ("both", "posvalues"),
    "accumulation": ("below", "posvalues"),
    "fault_control": ("below", "posvalues"),
}

# stop listing problems of one kind after this many
_MAX_PROBLEMS = 5


# --- trial inputs ---------------------------------------------------------------


def trial_seed(master_seed: int, trial: int) -> int:
    """The documented per-trial seed: 64 bits drawn from (master seed, trial)."""
    state = np.random.SeedSequence([master_seed, trial]).generate_state(1, dtype=np.uint64)
    return int(state[0])


def secret_from_seed(q: int, n: int, seed: int) -> tuple[int, ...]:
    """The secret a trial with this seed draws first: n uniform symbols."""
    return tuple(int(v) for v in np.random.default_rng(seed).integers(0, q, size=n))


# --- costs ------------------------------------------------------------------------


def ball_volume(q: int, n: int, eps: int) -> int:
    return sum(math.comb(n, i) * (q - 1) ** i for i in range(eps + 1))


def cover_size_limit(q: int, n: int, eps: int) -> Fraction:
    """Greedy set-cover guarantee q^n * H(n) / |B|."""
    harmonic = sum((Fraction(1, i) for i in range(1, n + 1)), Fraction(0))
    return Fraction(q**n) * harmonic / ball_volume(q, n, eps)


def cost_rule(attack: str, q: int, n: int, eps: int, strategy: str = "fixing") -> tuple[str, str, int]:
    """(counter, relation, limit) that every trial of the attack must meet.

    The counter is "queries" or "sessions"; the other counter must be 0.
    """
    search = q ** (n - eps)
    if attack == "below_distance":
        return "queries", "<=", search + (q - 1) * eps
    if attack == "below_positions":
        return "queries", "<=", search + q - 1
    if attack == "below_posvalues":
        return "queries", "<=", search + 1
    if attack == "minimal":
        if strategy == "greedy":
            search = math.floor(cover_size_limit(q, n, eps))
        return "queries", "<=", search + n + 2 * eps + 1
    if attack == "both_distance":
        return "queries", "<=", n * (q - 1) + 1
    if attack == "both_positions":
        return "queries", "==", q - 1
    if attack == "both_posvalues":
        return "queries", "==", 1
    if attack == "fault_control":
        return "sessions", "==", math.ceil(n / eps)
    if attack == "accumulation":
        # a session reveals at most eps coordinates
        return "sessions", ">=", math.ceil(n / eps)
    raise ValueError(f"no cost rule for {attack!r}")


def _holds(value: int, relation: str, limit: int) -> bool:
    if relation == "<=":
        return value <= limit
    if relation == "==":
        return value == limit
    return value >= limit


def check_trials(config, records: Sequence, recovered: Mapping[int, Sequence]) -> list[str]:
    """Check one experiment's records and the templates its attacks returned.

    ``recovered`` maps trial index -> recovered coordinates as captured from
    the attack's outcome.
    """
    q, n, eps = config.q, config.n, config.epsilon
    label = f"{config.attack} ({q},{n},{eps}) master seed {config.master_seed}"
    problems: list[str] = []
    if [r.trial for r in records] != list(range(config.trials)):
        return [f"{label}: records do not cover trials 0..{config.trials - 1} in order"]
    counter, relation, limit = cost_rule(config.attack, q, n, eps, config.strategy)
    for r in records:
        if len(problems) >= _MAX_PROBLEMS:
            break
        where = f"{label} trial {r.trial}"
        seed = trial_seed(config.master_seed, r.trial)
        if r.seed != seed:
            problems.append(f"{where}: record seed {r.seed}, expected {seed}")
            continue
        secret = secret_from_seed(q, n, seed)
        got = recovered.get(r.trial)
        if got is None:
            problems.append(f"{where}: no recovered template was captured")
        elif tuple(got) != secret:
            problems.append(f"{where}: recovered template differs from the secret")
        spent, other = (r.queries, r.sessions) if counter == "queries" else (r.sessions, r.queries)
        if other != 0 or not _holds(spent, relation, limit):
            problems.append(
                f"{where}: spent {r.queries} queries and {r.sessions} sessions; "
                f"{counter} must be {relation} {limit} and the other 0"
            )
    return problems


# --- passive accumulation ------------------------------------------------------


def client_probs(n: int, alpha: float | None) -> list[float]:
    """Per-coordinate error probabilities: uniform, or coordinate 1 at n^-alpha
    with the rest sharing the remaining mass."""
    if alpha is None:
        return [1.0 / n] * n
    p1 = float(n) ** (-alpha)
    return [p1] + [(1.0 - p1) / (n - 1)] * (n - 1)


def observation_probs(probs: Sequence[float], multi: bool, eps: int) -> list[float]:
    """Chance that each coordinate is observed in one genuine session.

    Single-error sessions observe coordinate i with probability p_i / sum(p).
    Multi-error sessions draw k uniformly from 1..eps and k distinct
    positions one after another, each proportional to p among those left;
    the inclusion probability is summed over every ordered draw.
    """
    total = sum(probs)
    w = [p / total for p in probs]
    if not multi:
        return w
    live = [i for i, p in enumerate(w) if p > 0.0]
    incl = [0.0] * len(w)
    for k in range(1, eps + 1):
        k = min(k, len(live))
        if math.perm(len(live), k) > 200_000:
            raise ValueError("too many ordered draws to enumerate")
        for seq in itertools.permutations(live, k):
            prob, used = 1.0, 0.0
            for j in seq:
                prob *= w[j] / (1.0 - used)
                used += w[j]
            for j in seq:
                incl[j] += prob / eps
    return incl


def session_bracket(n: int, alpha: float | None, multi: bool, eps: int) -> tuple[float, float]:
    """Bracket on the expected sessions until every coordinate is observed:
    1/p <= E <= (ln n + 1)/p, p the smallest per-session observation chance."""
    p = min(x for x in observation_probs(client_probs(n, alpha), multi, eps) if x > 0.0)
    return 1.0 / p, (math.log(n) + 1.0) / p


def check_bracket(config, records: Sequence) -> list[str]:
    """The mean sessions of an accumulation experiment lie in the bracket."""
    lo, hi = session_bracket(config.n, config.alpha, config.session_shape == "multi", config.epsilon)
    mean = sum(r.sessions for r in records) / len(records)
    if lo <= mean <= hi:
        return []
    return [
        f"accumulation ({config.n}, alpha {config.alpha}, {config.session_shape}): "
        f"mean {mean:.2f} sessions outside [{lo:.2f}, {hi:.2f}]"
    ]


# --- oracle answers --------------------------------------------------------------


def expected_response(secret: Sequence[int], y: Sequence[int], eps: int, scope: str, payload: str):
    """(accepted, distance, positions, values) the oracle must answer."""
    wrong = [i for i, (a, b) in enumerate(zip(secret, y)) if a != b]
    accepted = len(wrong) <= eps
    leak = accepted or scope == "both"
    distance = positions = values = None
    if leak and payload in ("distance", "posvalues"):
        distance = len(wrong)
    if leak and payload in ("positions", "posvalues"):
        positions = frozenset(i + 1 for i in wrong)
    if leak and payload == "posvalues":
        values = {i + 1: secret[i] - y[i] for i in wrong}
    return accepted, distance, positions, values


def check_response(secret, eps: int, scope: str, payload: str, y, resp) -> list[str]:
    want = expected_response(secret, y, eps, scope, payload)
    got = (resp.accepted, resp.distance, resp.error_positions, resp.error_values)
    if got == want:
        return []
    return [f"{scope}/{payload} response {got} to a submission, expected {want}"]


def check_genuine(secret, q: int, eps: int, multi: bool, obs) -> list[str]:
    """A genuine session errs on 1..eps coordinates (exactly 1 when
    single-error), each with a difference x_i - y_i some y_i != x_i in Z_q gives."""
    errors = obs.errors
    count_ok = 1 <= len(errors) <= eps if multi else len(errors) == 1
    values_ok = all(
        1 <= pos <= len(secret) and delta != 0 and 0 <= secret[pos - 1] - delta < q
        for pos, delta in errors.items()
    )
    if count_ok and values_ok:
        return []
    return [f"genuine session leaked {errors}, impossible for the secret"]


def check_faulted(secret, q: int, positions, obs) -> list[str]:
    """An injected fault adds 1 (mod q) at each chosen position."""
    want = {p: secret[p - 1] - (secret[p - 1] + 1) % q for p in sorted(set(positions))}
    if obs.errors == want:
        return []
    return [f"faulted session leaked {obs.errors}, expected {want}"]


# --- ball covers -----------------------------------------------------------------


def check_cover(q: int, n: int, eps: int, centers: Sequence[Sequence[int]]) -> list[str]:
    """Size within the greedy guarantee, and every point of Z_q^n within eps
    of some center, checked point by point."""
    problems = []
    limit = cover_size_limit(q, n, eps)
    if len(centers) > limit:
        problems.append(f"cover ({q},{n},{eps}) has {len(centers)} centers, above {float(limit):.1f}")
    ids = np.arange(q**n, dtype=np.int64)
    points = np.stack([(ids // q ** (n - 1 - i)) % q for i in range(n)], axis=1).astype(np.int8)
    covered = np.zeros(len(ids), dtype=bool)
    for c in centers:
        if len(c) != n or not all(0 <= v < q for v in c):
            return problems + [f"cover ({q},{n},{eps}) has a malformed center {tuple(c)}"]
        covered |= (points != np.asarray(c, dtype=np.int8)).sum(axis=1) <= eps
    missing = int(len(ids) - covered.sum())
    if missing:
        problems.append(f"cover ({q},{n},{eps}) leaves {missing} points uncovered")
    return problems
