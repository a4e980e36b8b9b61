"""Template-recovery attacks, one per leakage scenario.

Active attacks drive the oracle through ``query``, ``scan`` (by way of
``covering.covering_search``) and ``climb``, and report how many queries
they spent; passive attacks consume genuine-session observations and report
sessions instead.  Every routine fails fast with a UsageError when run
against a different leakage mode or parameters than its row in the attack
registry (``ATTACKS``, at the end of this module) declares, and none of them
ever touches the sealed secret directly (the harness verifies outcomes
post-hoc through the audit seal).  The registry is also the one place that
states each attack's worst-case bound, with s = q^(n-eps) for the
pinned-coordinate accept search.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .covering import covering_search, greedy_cover
from .errors import CapacityError, InternalError, UsageError
from .oracle import ClientModel, LeakageMode, MatchResponse, Oracle, SessionShape
from .space import SpaceParams, Template, as_template, coupon_bracket

# the minimal-leak fallback for n <= 2*eps materializes the whole space
_ELIMINATION_DIM_GUARD = 16
# above this many candidates, skip the balanced-split probe search
_SPLIT_POOL_LIMIT = 512


@dataclass(frozen=True, slots=True)
class PartialTemplate:
    """A template with some coordinates still unknown (None)."""

    coords: tuple[int | None, ...]

    def known_count(self) -> int:
        return sum(1 for c in self.coords if c is not None)

    def fill(self, value: int = 0) -> Template:
        """Complete the template by writing ``value`` into every unknown."""
        return tuple(value if c is None else c for c in self.coords)


@dataclass(frozen=True, slots=True)
class AttackOutcome:
    recovered: Template | PartialTemplate
    queries_used: int
    exact_recovery: bool
    within_ball: bool
    sessions_used: int = 0
    ball_guess: Template | None = None


class SearchStrategy(Enum):
    COORDINATE_FIXING = "fixing"
    GREEDY_COVER = "greedy"


def _correct(y: Template, resp: MatchResponse) -> Template:
    """Apply a positions-and-values leak: x_i = y_i + delta_i where flagged."""
    z = list(y)
    for pos, delta in resp.error_values.items():
        z[pos - 1] += delta
    return tuple(z)


def _outcome(oracle: Oracle, q0: int, recovered: Template) -> AttackOutcome:
    return AttackOutcome(
        recovered=recovered,
        queries_used=oracle.query_count - q0,
        exact_recovery=True,
        within_ball=True,
    )


# --- below-threshold scenarios ------------------------------------------------


def attack_below_distance(oracle: Oracle) -> AttackOutcome:
    """Recover the secret when the distance leaks on accepted queries only.

    Scans all q^(n-eps) pinned-coordinate candidates and keeps the accepted
    one with the smallest leaked distance; that candidate matches the secret
    on every free coordinate (its errors are confined to the pinned block,
    and any free-coordinate mismatch would add to the distance).  One
    ``Oracle.climb`` over the pinned block, which the candidate holds at 0,
    then finishes the job, rejected probes counting as "worse".  Worst case
    q^(n-eps) + (q-1)*eps queries.
    """
    ATTACKS["below_distance"].require(oracle)
    params = oracle.params
    q0 = oracle.query_count
    best, resp = covering_search(oracle, exact=True)
    pinned = range(params.n - params.epsilon, params.n)
    return _outcome(oracle, q0, oracle.climb(best, resp.distance, pinned))


def _fix_from_positions(oracle: Oracle, y: Template, resp: MatchResponse) -> Template:
    """Value sweep for the position leak: given an accepted point and its
    flagged positions, pin down the flagged coordinates.

    Binary alphabet: a flagged coordinate can only be the complement, no
    further queries.  Otherwise sweep candidate values 0..q-2 on all
    still-flagged positions simultaneously; a position whose flag clears
    holds that value, and whatever survives the whole sweep is q-1.
    """
    params = oracle.params
    z = list(y)
    remaining = set(resp.error_positions)
    if params.q == 2:
        for pos in remaining:
            z[pos - 1] ^= 1
        return tuple(z)
    previous = y
    for v in range(params.q - 1):
        if not remaining:
            break
        probe = list(z)
        for pos in remaining:
            probe[pos - 1] = v
        probe_t = tuple(probe)
        if probe_t == previous:
            continue  # identical submission would leak nothing new
        sweep = oracle.query(probe_t)
        if not sweep.accepted:
            raise InternalError("sweep query unexpectedly rejected")
        still = set(sweep.error_positions)
        for pos in remaining - still:
            z[pos - 1] = v
        remaining = still
        previous = probe_t
    for pos in remaining:
        z[pos - 1] = params.q - 1
    return tuple(z)


def attack_below_positions(oracle: Oracle) -> AttackOutcome:
    """Recover the secret when error positions leak on accepted queries.

    One accept-search (<= q^(n-eps) queries), then the simultaneous value
    sweep over the flagged positions (<= q-1 further queries; none for a
    binary alphabet, where flagged means complemented).
    """
    ATTACKS["below_positions"].require(oracle)
    q0 = oracle.query_count
    y, resp = covering_search(oracle)
    return _outcome(oracle, q0, _fix_from_positions(oracle, y, resp))


def attack_below_positions_values(oracle: Oracle) -> AttackOutcome:
    """Recover the secret when positions and signed error values leak on
    accepted queries.

    The accepting query's leak is a complete correction: x_i = y_i + delta_i
    on flagged positions.  Worst case q^(n-eps) queries (the contract allows
    one more for an optional confirmation; none is issued).
    """
    ATTACKS["below_posvalues"].require(oracle)
    q0 = oracle.query_count
    y, resp = covering_search(oracle)
    return _outcome(oracle, q0, _correct(y, resp))


# --- minimal leakage (accept bit only, binary alphabet) -----------------------


def center_search_binary(oracle: Oracle, start: Sequence[int]) -> Template:
    """Recover the exact secret from any accepted point, accept bit only.

    The start is re-queried once (usage error if it is rejected).  Then the
    walk flips coordinates 1..n one at a time, keeping accepted flips: every
    flip moves the distance by exactly 1, so the first rejection certifies
    that the pre-rejection point sits exactly on the acceptance frontier.
    From the frontier, flipping coordinate i is rejected precisely when the
    frontier already agrees with the secret there, so one probe per
    unresolved coordinate reads off the secret.  The rejected walk
    coordinate and the final kept flip come out resolved for free.

    Within n + 2*eps + 1 queries whenever the walk meets a rejection, which
    is guaranteed for n >= 2*eps + 1.  In the degenerate regime n <= 2*eps
    the walk can stay inside the ball; the search then falls back to
    consistent-set elimination (exact, but the query budget is not promised:
    for some (n, eps) near eps = n-1 no strategy can meet it).
    """
    params = oracle.params
    if params.q != 2 or params.epsilon >= params.n:
        raise UsageError(f"center search needs q = 2 and epsilon < n (got {params})")
    y0 = as_template(params, start)
    if not oracle.query(y0).accepted:
        raise UsageError("center search requires an accepted starting point")
    n, eps = params.n, params.epsilon
    if eps == 0:
        return y0  # the acceptance ball is the secret itself

    # both phases resubmit one buffer, flipped in place
    z = bytearray(y0)
    visited = [y0]
    resolved: dict[int, int] = {}
    for i in range(n):
        z[i] ^= 1
        if oracle.query(z).accepted:
            visited.append(tuple(z))
            continue
        z[i] ^= 1
        frontier = tuple(z)
        resolved[i] = frontier[i]  # rejected flip: coordinate was right
        if i > 0:
            # the flip onto the frontier went eps-1 -> eps, so it broke i-1
            resolved[i - 1] = 1 - frontier[i - 1]
        break
    else:  # every flip stayed accepted
        return _eliminate_consistent(oracle, visited)

    x = list(frontier)
    for i in range(n):
        if i in resolved:
            x[i] = resolved[i]
            continue
        z[i] ^= 1
        # an accepted flip means the frontier had coordinate i wrong
        x[i] = frontier[i] ^ oracle.query(z).accepted
        z[i] ^= 1
    return tuple(x)


def _eliminate_consistent(oracle: Oracle, accepted: list[Template]) -> Template:
    """Identify the secret among all templates consistent with the accepted
    observations, one membership query at a time.

    Only reachable when every coordinate flip stayed accepted, which forces
    n <= 2*eps.  Each probe w answers "is the secret within eps of w", i.e.
    membership of the secret in the ball around w's complement of radius
    n - eps - 1.  A separator probe for the two smallest candidates always
    exists, so every query removes at least one candidate; when the
    candidate set is small a balanced-split probe is chosen instead.
    """
    params = oracle.params
    n, eps = params.n, params.epsilon
    if n > _ELIMINATION_DIM_GUARD:
        raise CapacityError(
            f"minimal-leak search with epsilon >= n/2 materializes 2^n candidates; "
            f"n={n} exceeds the guard {_ELIMINATION_DIM_GUARD}"
        )

    def dec(v: int) -> Template:
        return tuple((v >> i) & 1 for i in range(n))

    full = (1 << n) - 1
    accepted_ids = [sum(b << i for i, b in enumerate(t)) for t in accepted]
    cand = {
        v
        for v in range(1 << n)
        if all((v ^ a).bit_count() <= eps for a in accepted_ids)
    }
    if not cand:
        raise InternalError("no template is consistent with the observed responses")

    radius = n - eps - 1
    # offsets of weight <= radius, as bit masks
    shells = [
        sum(1 << b for b in bits) for w in range(radius + 1) for bits in itertools.combinations(range(n), w)
    ]

    while len(cand) > 1:
        first = min(cand)
        second = min(cand - {first})
        probe = _separator_probe(first, second, n, eps)
        if len(cand) <= _SPLIT_POOL_LIMIT:

            def worst(p: int) -> int:
                inside = sum(1 for v in cand if (v ^ p).bit_count() <= eps)
                return max(inside, len(cand) - inside)

            # the first probe, in increasing order, with the smallest worst case
            probe = min(sorted({probe} | {full ^ c for c in cand}), key=worst)
        resp = oracle.query(dec(probe))
        ball = {(full ^ probe) ^ m for m in shells}  # secrets that reject the probe
        if resp.accepted:
            cand -= ball
        else:
            cand &= ball
        if not cand:
            raise InternalError("candidate set emptied; oracle responses inconsistent")
    return dec(cand.pop())


def _separator_probe(u: int, v: int, n: int, eps: int) -> int:
    """A probe rejected when the secret is u but accepted when it is v.

    If u and v differ in more than eps bits, move u toward v on eps+1 of
    them; otherwise start from v and flip eps+1-d agreeing bits.  Valid
    whenever d(u, v) <= 2*eps + 1, which holds in the n <= 2*eps regime.
    """
    diff = u ^ v
    d = diff.bit_count()
    w, pick, left = (u, diff, eps + 1) if d > eps else (v, ~diff, eps + 1 - d)
    for i in range(n):
        if left == 0:
            break
        if (pick >> i) & 1:
            w ^= 1 << i
            left -= 1
    return w


def attack_minimal_binary(
    oracle: Oracle, strategy: SearchStrategy = SearchStrategy.COORDINATE_FIXING
) -> AttackOutcome:
    """Recover a binary secret from the accept bit alone.

    Phase one finds any accepted point by scanning a cover's centers: the
    pinned-coordinate centers (at most 2^(n-eps) queries) or a greedy ball
    cover (at most the cover's size).  Phase two hands the point to the
    center search, within n + 2*eps + 1 further queries.
    """
    ATTACKS["minimal"].require(oracle)
    q0 = oracle.query_count
    greedy = SearchStrategy(strategy) is SearchStrategy.GREEDY_COVER
    y0, _ = covering_search(oracle, greedy_cover(oracle.params) if greedy else None)
    return _outcome(oracle, q0, center_search_binary(oracle, y0))


# --- leaks on both sides of the threshold --------------------------------------


def attack_both_distance(oracle: Oracle) -> AttackOutcome:
    """Hill climb when the distance leaks on every query.

    Query the all-zeros baseline, then climb every coordinate in one
    ``Oracle.climb``, which spends s probes on a coordinate holding s > 0
    and one on a 0, and stops once the distance reaches 0.
    Worst case n*(q-1) + 1 queries.
    """
    ATTACKS["both_distance"].require(oracle)
    n = oracle.params.n
    q0 = oracle.query_count
    y = (0,) * n
    cur = oracle.query(y).distance
    return _outcome(oracle, q0, oracle.climb(y, cur, range(n)))


def attack_both_positions(oracle: Oracle) -> AttackOutcome:
    """Constant sweep when error positions leak on every query.

    Submit (c, ..., c) for c = 0..q-2; the unflagged positions of each
    response are exactly the coordinates equal to c, so each coordinate is
    unflagged by at most one constant.  Whatever stays flagged throughout
    must be q-1, so the last constant is never submitted.  Always exactly
    q-1 queries.
    """
    ATTACKS["both_positions"].require(oracle)
    params = oracle.params
    q0 = oracle.query_count
    x = [params.q - 1] * params.n
    every = frozenset(range(1, params.n + 1))
    for c in range(params.q - 1):
        for pos in every - oracle.query((c,) * params.n).error_positions:
            x[pos - 1] = c
    return _outcome(oracle, q0, tuple(x))


def attack_both_positions_values(oracle: Oracle) -> AttackOutcome:
    """Single-query recovery when positions and values leak on every query:
    any submission comes back with its own full correction."""
    ATTACKS["both_posvalues"].require(oracle)
    q0 = oracle.query_count
    y = (0,) * oracle.params.n
    return _outcome(oracle, q0, _correct(y, oracle.query(y)))


# --- passive attacks -----------------------------------------------------------


def resolve_error_value(delta: int, q: int) -> int | None:
    """Deduce x_i from a leaked integer difference x_i - y_i when possible.

    Binary alphabet: +1 means x_i = 1, -1 means x_i = 0, so every leak is
    decisive.  For q > 2 only the extreme differences pin the coordinate
    down: q-1 forces x_i = q-1 and -(q-1) forces x_i = 0 (the attainable
    range is [-(q-1), q-1], so these are the only unambiguous cases);
    anything else leaves x_i ambiguous without knowing y_i.
    """
    if delta == q - 1:
        return q - 1
    if delta == -(q - 1):
        return 0
    return None


def collect_observations(
    params: SpaceParams, observations: Iterable[Iterable[tuple[int, int]]]
) -> PartialTemplate:
    """Fold observations into a partial template.

    Each observation is an iterable of (1-based position, x_i - y_i) pairs:
    a chunk of ``Oracle.watch``, or a session's ``errors.items()``.  Each
    coordinate takes the value its first resolvable leak gives, and every
    later one must agree.
    """
    q = params.q
    known: dict[int, int] = {}
    for pairs in observations:
        for pos, delta in pairs:
            val = resolve_error_value(delta, q)
            if val is not None and known.setdefault(pos, val) != val:
                raise InternalError(f"observations disagree on coordinate {pos}")
    return PartialTemplate(tuple(known.get(i + 1) for i in range(params.n)))


def accumulation_collect(
    oracle: Oracle,
    client: ClientModel,
    rng: np.random.Generator,
    max_sessions: int | None = None,
) -> AttackOutcome:
    """Passive accumulation: watch genuine sessions until every variable
    coordinate of the client has been observed at least once.

    Zero attack queries; sessions are counted instead.  Coordinates that
    never err stay unknown.  If at most epsilon coordinates remain unknown,
    the partial template is also completed into a guess that is guaranteed
    to sit inside the acceptance ball.
    """
    ATTACKS["accumulation"].require(oracle)
    params = oracle.params
    s0 = oracle.session_count
    partial = collect_observations(params, oracle.watch(client, rng, max_sessions))
    unknown = params.n - partial.known_count()
    within = unknown <= params.epsilon
    return AttackOutcome(
        recovered=partial,
        queries_used=0,
        exact_recovery=unknown == 0,
        within_ball=within,
        sessions_used=oracle.session_count - s0,
        ball_guess=partial.fill(0) if within else None,
    )


def fault_controlled_collect(oracle: Oracle) -> AttackOutcome:
    """Fault-injection collection: the attacker dictates which coordinates
    err in each session, covering 1..n in epsilon-sized chunks.

    Exactly ceil(n/epsilon) sessions, zero queries, exact recovery.
    """
    ATTACKS["fault_control"].require(oracle)
    n, eps = oracle.params.n, oracle.params.epsilon
    s0 = oracle.session_count
    chunks = (range(lo, min(lo + eps, n + 1)) for lo in range(1, n + 1, eps))
    partial = collect_observations(oracle.params, (oracle.faulted_session(c).errors.items() for c in chunks))
    if None in partial.coords:
        raise InternalError("fault-controlled sessions left coordinates unknown")
    return AttackOutcome(
        recovered=partial.coords,
        queries_used=0,
        exact_recovery=True,
        within_ball=True,
        sessions_used=oracle.session_count - s0,
    )


# --- attack registry -------------------------------------------------------------


def client_for(config: Any, params: SpaceParams) -> ClientModel:
    """The genuine client an experiment configuration describes: uniform,
    or rare-first with exponent config.alpha."""
    return _client(params.n, config.alpha, config.session_shape)


@lru_cache(maxsize=32)
def _client(n: int, alpha: float | None, shape: str) -> ClientModel:
    """One immutable client per (n, alpha, shape), shared by every trial."""
    if alpha is None:
        return ClientModel.uniform(n, SessionShape(shape))
    return ClientModel.rare_first(n, alpha, SessionShape(shape))


def accumulation_bracket(params: SpaceParams, config: Any) -> tuple[float, float]:
    """Bracket on the expected sessions of accumulation_collect: the coupon
    bracket at the smallest per-session observation chance, each end taken
    at the end of that chance's interval which keeps it valid."""
    client = client_for(config, params)
    lo_p, hi_p = client.observation_chance(params.epsilon)
    coupons = len(client.variable_positions())
    return coupon_bracket(coupons, hi_p)[0], coupon_bracket(coupons, lo_p)[1]


@lru_cache(maxsize=32)
def _greedy_cover_size(params: SpaceParams) -> int:
    return len(greedy_cover(params))


def _accept_search(params: SpaceParams, config: Any = None) -> int:
    """Worst-case queries of the accept search: the configured greedy
    cover's size, or q^(n-eps) for the pinned-coordinate scan."""
    if config is not None and config.strategy == SearchStrategy.GREEDY_COVER.value:
        return _greedy_cover_size(params)
    return params.q ** (params.n - params.epsilon)


@dataclass(frozen=True, slots=True)
class AttackSpec:
    """One attack's row in ``ATTACKS``: everything the lab knows about it
    besides its code.

    The harness validates configurations, runs trials, checks bounds and
    builds the bench table from these rows; ``bounds.worst_case_queries``
    reads its per-mode worst case here; every attack checks its own mode and
    parameters against its row.

    * ``run(oracle, config, rng)`` runs one trial.  It is a lambda so that
      the attack function is looked up in this module when the trial runs.
    * ``bound(params, config)`` is what each trial's ``counter`` ("queries"
      or "sessions") is checked against; config None means the default
      strategy.
    * With ``bracket`` set the per-trial count is random: the bound is
      informational, and the summary checks the mean against
      ``bracket(params, config)``.
    * Rows with a ``bench`` label form the bench table, in registry order.
    * ``reads`` names the ExperimentConfig settings, beyond the space, mode
      and run settings every attack takes, that ``run`` or ``bound`` reads;
      the harness rejects any other such setting away from its default.
    """

    id: str
    mode: LeakageMode
    run: Callable[[Oracle, Any, np.random.Generator], AttackOutcome]
    bound: Callable[[SpaceParams, Any], float | int]
    counter: str = "queries"
    binary: bool = False
    eps_below_n: bool = False
    eps_positive: bool = False
    bracket: Callable[[SpaceParams, Any], tuple[float, float]] | None = None
    bench: str | None = None
    reads: tuple[str, ...] = ()

    def require(self, oracle: Oracle) -> None:
        """Fail fast, before any interaction, unless the oracle leaks this
        attack's mode over parameters it runs at."""
        if oracle.mode != self.mode:
            raise UsageError(f"{self.id} requires leakage mode {self.mode}; oracle leaks {oracle.mode}")
        self.check(oracle.params)

    def check(self, params: SpaceParams) -> None:
        """Raise UsageError unless the attack runs at these parameters."""
        if self.binary and params.q != 2:
            raise UsageError(f"attack {self.id!r} needs q = 2 (got q={params.q})")
        if self.eps_below_n and params.epsilon >= params.n:
            raise UsageError(
                f"attack {self.id!r} needs epsilon < n (got epsilon={params.epsilon}, n={params.n})"
            )
        if self.eps_positive and params.epsilon < 1:
            raise UsageError(f"attack {self.id!r} needs epsilon >= 1")


ATTACKS: dict[str, AttackSpec] = {
    spec.id: spec
    for spec in (
        AttackSpec("below_distance", LeakageMode.parse("below", "distance"),
                   run=lambda o, c, rng: attack_below_distance(o),
                   bound=lambda p, c: _accept_search(p) + (p.q - 1) * p.epsilon,
                   eps_below_n=True, bench="below/distance"),
        AttackSpec("below_positions", LeakageMode.parse("below", "positions"),
                   run=lambda o, c, rng: attack_below_positions(o),
                   bound=lambda p, c: _accept_search(p) + p.q - 1,
                   eps_below_n=True, bench="below/positions"),
        AttackSpec("below_posvalues", LeakageMode.parse("below", "posvalues"),
                   run=lambda o, c, rng: attack_below_positions_values(o),
                   bound=lambda p, c: _accept_search(p) + 1,
                   eps_below_n=True, bench="below/posvalues"),
        AttackSpec("accumulation", LeakageMode.parse("below", "posvalues"),
                   run=lambda o, c, rng: accumulation_collect(o, client_for(c, o.params), rng),
                   bound=lambda p, c: accumulation_bracket(p, c)[1], bracket=accumulation_bracket,
                   counter="sessions", binary=True, eps_positive=True, bench="below/posvalues accumulation",
                   reads=("alpha", "session_shape")),
        AttackSpec("minimal", LeakageMode.parse("both", "none"),
                   run=lambda o, c, rng: attack_minimal_binary(o, SearchStrategy(c.strategy)),
                   bound=lambda p, c: _accept_search(p, c) + p.n + 2 * p.epsilon + 1,
                   binary=True, eps_below_n=True, bench="both/minimal", reads=("strategy",)),
        AttackSpec("both_distance", LeakageMode.parse("both", "distance"),
                   run=lambda o, c, rng: attack_both_distance(o),
                   bound=lambda p, c: p.n * (p.q - 1) + 1,
                   bench="both/distance"),
        AttackSpec("both_positions", LeakageMode.parse("both", "positions"),
                   run=lambda o, c, rng: attack_both_positions(o),
                   bound=lambda p, c: p.q - 1,
                   bench="both/positions"),
        AttackSpec("both_posvalues", LeakageMode.parse("both", "posvalues"),
                   run=lambda o, c, rng: attack_both_positions_values(o),
                   bound=lambda p, c: 1,
                   bench="both/posvalues"),
        AttackSpec("fault_control", LeakageMode.parse("below", "posvalues"),
                   run=lambda o, c, rng: fault_controlled_collect(o),
                   bound=lambda p, c: math.ceil(p.n / p.epsilon),
                   counter="sessions", binary=True, eps_positive=True),
    )
}
