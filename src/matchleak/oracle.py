"""Leaky threshold matcher.

The oracle holds a sealed secret template and answers membership queries:
accept iff the Hamming distance to the secret is at most epsilon.  Depending
on the configured leakage mode it additionally reveals the distance, the
erroneous coordinate positions, or positions plus signed error values.
``_respond`` builds every query's response and ``_emit_observation`` every
session's leak, save that ``watch`` applies the same formula to a block of
binary single-error sessions at once.  ``_charge`` is the one place that
counts interactions and passes them to the tap.

Two kinds of interaction are counted separately:

* ``query`` -- an active attacker submission (query_count),
* ``genuine_session`` / ``watch`` / ``faulted_session`` -- passive
  observations of a legitimate client authenticating (session_count).

``scan`` answers a batch of queries the attacker committed to in advance, in
vectorised chunks, counts exactly the queries it answers and returns the
hit it stops on.  ``watch`` is its passive counterpart: it yields the leaks
of genuine sessions, chunk by chunk, until every variable coordinate has
erred, and is the one place that stop lives.  A binary single-error session
consumes exactly one double of the generator (the shift to the other bit
draws nothing), so such sessions come in chunks of at most 2^16, each one
``rng.random(m)``; the generator state is saved before each chunk and, when
the stop falls inside one, restored and advanced by the sessions used.
Every other client's chunk is one ``genuine_session``.  Counts, taps and
the generator's final state are those of the per-session loop.

``climb`` answers the coordinate-wise distance climb.  From a start that is
0 on the climbed positions and at the distance the caller read, every probe
is set by the secret's digits there, and it reads them off the secret's row
in one pass; any other call submits the probes through ``query``.  Counts,
taps and result are those of the per-query loop either way.

``query`` answers one submission, checked by ``space.digit_bytes`` as
``as_template`` checks it.  With the accept searches in ``scan`` and the
climbs in ``climb``, it carries only the steps taken one query at a time.

Attack code must reach the secret only through these; ``audit_secret`` exists
for post-hoc verification and counts its reads so tests can prove that no
attack peeked.
"""

from __future__ import annotations

import json
import math
import operator
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from functools import cache
from itertools import accumulate, compress
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import UsageError
from .space import BYTE_SEQUENCES, SpaceParams, Template, as_template, digit_bytes, template_index, unpack_words

# scan compares packed uint64 words at q = 2 up to this dimension
PACKED_MAX_N = 63
# sessions in watch's first chunk; each further chunk doubles, up to the cap
_WATCH_CHUNK = 64
_WATCH_MAX_CHUNK = 1 << 16


class Scope(Enum):
    """When extra information leaks: only on accepted queries, or always."""

    BELOW_ONLY = "below"
    ALWAYS = "both"


class Payload(Enum):
    """What extra information leaks alongside the accept bit."""

    NONE = "none"
    DISTANCE = "distance"
    POSITIONS = "positions"
    POSITIONS_VALUES = "posvalues"


@dataclass(frozen=True, slots=True)
class LeakageMode:
    scope: Scope
    payload: Payload

    def __post_init__(self) -> None:
        # Below-only with nothing to leak is plain minimal leakage; normalize
        # so the two spellings compare equal.
        if self.scope is Scope.BELOW_ONLY and self.payload is Payload.NONE:
            object.__setattr__(self, "scope", Scope.ALWAYS)

    def __str__(self) -> str:
        return f"({self.scope.value}, {self.payload.value})"

    @classmethod
    def parse(cls, scope: str, payload: str) -> "LeakageMode":
        try:
            return cls(Scope(scope), Payload(payload))
        except ValueError as exc:
            raise UsageError(str(exc)) from None


@dataclass(frozen=True, slots=True)
class MatchResponse:
    """One oracle answer.

    Positions are 1-based.  ``error_values`` maps position -> x_i - y_i
    computed over the integers (never zero, always in [-(q-1), q-1]).
    Fields are populated exactly per the leakage payload; on a rejected
    query under below-only scope every optional field is None.  Positions-
    and-values responses also carry the distance, since the flagged set
    implies it anyway.
    """

    accepted: bool
    distance: int | None = None
    error_positions: frozenset[int] | None = None
    error_values: dict[int, int] | None = None


# the two answers that carry nothing but the accept bit
_ACCEPTED = MatchResponse(accepted=True)
_REJECTED = MatchResponse(accepted=False)


@cache
def _positions(n: int) -> tuple[int, ...]:
    """The 1-based positions 1..n, which ``compress`` filters into a
    position payload."""
    return tuple(range(1, n + 1))


@dataclass(frozen=True, slots=True)
class Observation:
    """Leak harvested from one accepted genuine session.

    ``errors`` maps 1-based position -> x_i - y_i for every erroneous
    coordinate.  The client model never produces error-free sessions, so
    1 <= len(errors) <= epsilon.
    """

    errors: dict[int, int]


class SessionShape(Enum):
    SINGLE_ERROR = "single"
    MULTI_ERROR = "multi"


@dataclass(frozen=True, slots=True)
class ClientModel:
    """Per-coordinate error behaviour of the legitimate client.

    ``error_probs[i]`` is the chance that coordinate i+1 errs in a session;
    the probabilities must be finite and nonnegative with sum <= 1 and at
    least one positive entry.  Coordinates with probability zero are
    non-variable and can never be observed passively.

    Session shapes:

    * SINGLE_ERROR -- exactly one error per session, coordinate i with
      probability p_i / sum(p).
    * MULTI_ERROR -- the error count is uniform on {1, ..., epsilon} and the
      positions are drawn without replacement proportionally to p_i.
    """

    error_probs: tuple[float, ...]
    shape: SessionShape = SessionShape.SINGLE_ERROR
    # derived once per client: the normalised weights and their normalised
    # cumulative sums (for sample_positions and watch), and the 1-based
    # variable coordinates
    _weights: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _cdf: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _variable: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        probs = tuple(float(p) for p in self.error_probs)
        object.__setattr__(self, "error_probs", probs)
        bad = next((p for p in probs if not math.isfinite(p)), None)
        if bad is not None:
            raise UsageError(f"error probabilities must be finite (got {bad})")
        if any(p < 0.0 for p in probs):
            raise UsageError("error probabilities must be nonnegative")
        if sum(probs) > 1.0 + 1e-9:
            raise UsageError("error probabilities must sum to at most 1")
        if not any(p > 0.0 for p in probs):
            raise UsageError("at least one coordinate must be variable")
        arr = np.asarray(probs)
        weights = tuple((arr / arr.sum()).tolist())  # numpy's pairwise sum, as rng.choice was given
        object.__setattr__(self, "_weights", weights)
        object.__setattr__(self, "_cdf", tuple(_normalised_cumsum(weights)))
        object.__setattr__(self, "_variable", tuple(i + 1 for i, p in enumerate(probs) if p > 0.0))

    @classmethod
    def uniform(
        cls, n: int, shape: SessionShape = SessionShape.SINGLE_ERROR
    ) -> "ClientModel":
        return cls((1.0 / n,) * n, shape)

    @classmethod
    def rare_first(
        cls, n: int, alpha: float, shape: SessionShape = SessionShape.SINGLE_ERROR
    ) -> "ClientModel":
        """Coordinate 1 errs with probability n**(-alpha) (alpha >= 1), the
        rest share the remaining mass equally.  alpha = 1 is the uniform
        model.  An alpha so large that n**(-alpha) is 0 in floating point
        is rejected: coordinate 1 would never err."""
        if not alpha >= 1.0:
            raise UsageError("alpha must be >= 1")
        p1 = float(n) ** (-alpha)
        if p1 == 0.0:
            raise UsageError(
                f"alpha={alpha} makes coordinate 1's error probability n**(-alpha) underflow to 0 at n={n}"
            )
        rest = (1.0 - p1) / (n - 1) if n > 1 else 0.0
        return cls((p1,) + (rest,) * (n - 1), shape)

    def sample_positions(self, k: int, rng: np.random.Generator) -> list[int]:
        """k distinct 0-based coordinates drawn without replacement
        proportionally to the error probabilities, in draw order.

        Makes the same calls on ``rng`` and returns the same coordinates as
        ``rng.choice(n, size=k, replace=False, p=weights)`` with the
        normalised weights, by numpy's own algorithm for that call: draw
        k - found uniforms, bisect each into the normalised cumulative
        weights, keep the first occurrence of each coordinate, and while
        fewer than k are found, zero the found weights and draw again.  The
        weights and their cumulative table are built once per client, not
        once per call.  Requires 1 <= k <= the variable coordinate count.
        """
        cdf = self._cdf
        found: list[int] = []
        while True:
            for x in rng.random(k - len(found)).tolist():
                i = bisect_right(cdf, x)
                if i not in found:
                    found.append(i)
            if len(found) == k:
                return found
            weights = list(self._weights)
            for i in found:
                weights[i] = 0.0
            cdf = _normalised_cumsum(weights)

    def variable_positions(self) -> tuple[int, ...]:
        """1-based positions with positive error probability."""
        return self._variable

    def min_prob(self) -> float:
        """Smallest positive error probability: the rarest variable
        coordinate's."""
        return min(self.error_probs[i - 1] for i in self._variable)

    def observation_chance(self, epsilon: int) -> tuple[float, float]:
        """Bounds (lo, hi) on the smallest per-session chance that a variable
        coordinate is observed.

        A single-error session observes coordinate i with chance
        w_i = p_i / sum(p).  A multi-error session draws k uniformly from
        1..epsilon, then k positions without replacement, each proportional
        to w among those left; the rarest coordinate is then the least
        likely to be drawn.  Given that it is not drawn yet, step j picks it
        with chance w/(1 - removed mass), and bounding the removed mass by
        the j smallest and the j largest other weights brackets its
        inclusion chance.  Both ends agree, so the chance is exact, whenever
        the other weights are equal, as in the uniform and rare-first models.
        """
        total = sum(self.error_probs)
        if abs(total - 1.0) <= 1e-9:
            total = 1.0  # the constructor's tolerance: rounding must not move w
        w, *others = sorted(p / total for p in self.error_probs if p > 0.0)
        if self.shape is SessionShape.SINGLE_ERROR:
            return w, w

        def inclusion(removed: list[float]) -> float:
            missed, acc = 1.0, 0.0
            for k in range(epsilon):  # k + 1 draws, capped at the variable count
                if k <= len(others):
                    missed *= 1.0 - min(1.0, w / (1.0 - sum(removed[:k])))
                acc += 1.0 - missed
            return acc / epsilon

        return inclusion(others), inclusion(others[::-1])


def _normalised_cumsum(weights: Sequence[float]) -> list[float]:
    """Running sums of weights divided by their total, in the order and
    rounding of ``np.cumsum(w) / np.cumsum(w)[-1]``."""
    sums = list(accumulate(weights))
    total = sums[-1]
    return [s / total for s in sums]


@cache
def _distance_response(accepted: bool, d: int) -> MatchResponse:
    """The one shared answer carrying the accept bit and distance d; the
    key holds the accept bit, so oracles with different thresholds never
    share a wrong one."""
    return MatchResponse(accepted=accepted, distance=d)


class Oracle:
    """Match oracle over a sealed secret with strict interaction accounting.

    Single-client: queries against one instance are meant to be serialized.
    Responses and observations are immutable and freely shareable.  An
    optional ``tap(submission, answer)`` sees every interaction in order,
    e.g. for JSONL audit logs: the checked template of a query (also of a
    ``scan`` candidate or a ``climb`` probe), the sorted 1-based positions
    of a ``faulted_session`` or None for a genuine session, with the
    MatchResponse or Observation returned.
    """

    def __init__(
        self,
        secret: Sequence[int],
        params: SpaceParams,
        mode: LeakageMode,
        tap: Callable[[object, MatchResponse | Observation], None] | None = None,
    ) -> None:
        self.params = params
        self.mode = mode
        self.__secret = as_template(params, secret)
        # For q <= 256 a submission is checked and copied by digit_bytes,
        # one byte per coordinate, and the secret is held as the int of its
        # bytes: the coordinates a submission gets wrong are the nonzero
        # bytes of the XOR, and the positions payload is read off them.  The
        # secret is also held as a numpy row (int16 from its bytes; above
        # q = 256 int64, or object for digits past 63 bits): the row minus a
        # submission gives every other position payload, scan compares
        # candidates with it, and binary single-error sessions read their
        # flips from it.  Packed scan chunks compare with the secret's word,
        # made at the first of them.
        q = params.q
        self._digits = q <= 256
        self.__int = None
        self.__word = None
        if self._digits:
            raw = bytes(self.__secret)
            self.__int = int.from_bytes(raw, "big")
            self.__row = np.frombuffer(raw, dtype=np.uint8).astype(np.int16)
        else:
            self.__row = np.array(self.__secret, dtype=np.int64 if q <= 1 << 63 else object)
        self._query_count = 0
        self._session_count = 0
        self._audit_count = 0
        self._tap = tap

    # -- counters ----------------------------------------------------------

    @property
    def query_count(self) -> int:
        return self._query_count

    @property
    def session_count(self) -> int:
        return self._session_count

    @property
    def audit_count(self) -> int:
        return self._audit_count

    def _charge(self, k: int, pairs: Callable[[], Iterable[tuple]], sessions: bool = False) -> None:
        """Count k queries or, with ``sessions``, k sessions, then pass the
        tap, if one is set, each of their (submission, answer) pairs in
        order.  ``pairs()`` builds them only then, so an untapped oracle
        builds none.  No other method moves a counter or calls the tap."""
        if sessions:
            self._session_count += k
        else:
            self._query_count += k
        if self._tap is not None:
            for submission, answer in pairs():
                self._tap(submission, answer)

    # -- active queries ------------------------------------------------------

    def query(self, y: Sequence[int]) -> MatchResponse:
        """Answer one submission.  Malformed submissions (wrong length, a
        coordinate that is not an integer or lies outside the alphabet) raise
        UsageError, with ``as_template``'s message, and do not advance the
        query counter.

        For q <= 256 the submission is checked and copied by ``digit_bytes``,
        so a caller may change a submitted buffer and submit it again, and
        its int XOR the secret's is zero exactly at the right coordinates."""
        params = self.params
        if type(y) not in BYTE_SEQUENCES:
            y = list(y)  # element-wise: never an ndarray's or array's raw buffer
        digits = digit_bytes(params, y)
        wrong = None
        if digits is None:
            digits = as_template(params, y)  # q > 256, or UsageError naming what is wrong
            d = sum(1 for a, c in zip(self.__secret, digits) if a != c)
        else:
            wrong = (int.from_bytes(digits, "big") ^ self.__int).to_bytes(params.n, "big")
            d = params.n - wrong.count(0)
        resp = self._respond(digits, d, wrong)
        self._charge(1, lambda: ((tuple(digits), resp),))
        return resp

    def _respond(
        self, y: bytes | bytearray | Template | None, d: int, wrong: bytes | None = None
    ) -> MatchResponse:
        """The response to a counted submission y at distance d: one byte
        per coordinate for q <= 256, plain int digits above.  Only position
        payloads read y, so a distance climb passes None.

        A positions payload at q <= 256 comes from ``wrong``, y's bytes XOR
        the secret's, nonzero exactly where y errs (built here when the
        caller has not), through ``compress`` over the positions 1..n.
        Every other position payload comes from the secret's numpy row
        minus y."""
        accepted = d <= self.params.epsilon
        payload = self.mode.payload
        if payload is Payload.NONE or not (accepted or self.mode.scope is Scope.ALWAYS):
            return _ACCEPTED if accepted else _REJECTED
        if payload is Payload.DISTANCE:
            return _distance_response(accepted, d)
        if self._digits and payload is Payload.POSITIONS:
            n = self.params.n
            if wrong is None:
                wrong = (int.from_bytes(y, "big") ^ self.__int).to_bytes(n, "big")
            return MatchResponse(accepted=accepted, error_positions=frozenset(compress(_positions(n), wrong)))
        row = self.__row
        diff = row - (np.frombuffer(y, dtype=np.uint8) if self._digits else np.array(y, dtype=row.dtype))
        at = np.flatnonzero(diff)
        positions = (at + 1).tolist()
        if payload is Payload.POSITIONS:
            return MatchResponse(accepted=accepted, error_positions=frozenset(positions))
        values = dict(zip(positions, diff[at].tolist()))
        return MatchResponse(
            accepted=accepted, distance=d, error_positions=frozenset(values), error_values=values
        )

    def scan(
        self, batches: Iterable[np.ndarray], exact: bool = False
    ) -> tuple[Template, MatchResponse] | None:
        """Answer a sequence of candidates committed in advance, in order, as
        ``query`` would answer them one at a time, up to and including the
        stop point, and return the hit the scan stops on.

        ``batches`` yields the candidates in chunks, each either a 1-D uint64
        array of packed words (q = 2 and n <= PACKED_MAX_N only; coordinate 1
        is the most significant of the low n bits), compared by popcount, or
        a 2-D integer array with one row of n digits per candidate, compared
        row by row.  The stop point is the first accepted candidate or, with
        ``exact``, the first one at distance 0 (for payloads that reveal the
        distance of an accepted query); without one the scan ends with the
        last candidate.  Chunks are drawn only up to the stop.  Every
        answered candidate counts one query and reaches the tap, in order,
        with the response ``query`` would return.  A malformed chunk raises
        UsageError before any of its candidates counts.

        Returns (template, response) for the first accepted candidate or,
        with ``exact``, for the first one at the smallest accepted distance;
        None when no answered candidate is accepted.  Without a tap, at most
        one candidate per chunk is decoded and answered in full.
        """
        if exact and self.mode.payload is Payload.NONE:
            raise UsageError("a scan cannot stop at distance 0 when responses hide the distance")
        eps = self.params.epsilon
        hit, nearest = None, eps + 1
        for batch in batches:
            dist = self._distances(batch)
            accepted = dist <= eps
            stops = np.flatnonzero(dist == 0 if exact else accepted)
            count = int(stops[0]) + 1 if len(stops) else len(dist)
            self._charge(count, lambda: self._answers(batch[:count], dist))
            hits = np.flatnonzero(accepted[:count])
            if len(hits):
                i = int(hits[np.argmin(dist[hits])])
                if dist[i] < nearest:
                    hit, nearest = next(self._answers(batch[i : i + 1], dist[i : i + 1])), int(dist[i])
            if len(stops):
                break
        return hit

    def _distances(self, batch: np.ndarray) -> np.ndarray:
        """Distance from the secret of every candidate in a scan chunk."""
        params = self.params
        n = params.n
        if not isinstance(batch, np.ndarray):
            raise UsageError("scan candidates must come as numpy arrays")
        if batch.ndim == 1 and batch.dtype == np.uint64:
            if params.q != 2 or n > PACKED_MAX_N:
                raise UsageError(f"packed candidates need q = 2 and n <= {PACKED_MAX_N} (got {params})")
            if len(batch) and int(batch.max()) >> n:
                raise UsageError(f"packed candidate has bits above the low n={n}")
            if self.__word is None:
                self.__word = np.uint64(template_index(params, self.__secret))
            return np.bitwise_count(batch ^ self.__word)
        if batch.ndim != 2 or batch.shape[1] != n or batch.dtype.kind not in "iu":
            raise UsageError(f"scan candidates must be packed words or rows of n={n} integer digits")
        if batch.size and (batch.min() < 0 or batch.max() >= params.q):
            raise UsageError(f"scan candidate has a coordinate outside [0, {params.q - 1}]")
        return np.count_nonzero(batch != self.__row, axis=1)

    def _answers(self, batch: np.ndarray, dist: np.ndarray) -> Iterator[tuple[Template, MatchResponse]]:
        """Each candidate of a scan chunk as a template, with its response
        at the distance ``dist`` gives it, in order; packed words are
        decoded in one step."""
        rows = batch if batch.ndim == 2 else unpack_words(self.params.n, batch)
        for row, d in zip(rows.tolist(), dist.tolist()):
            y = tuple(row)
            yield y, self._respond(bytes(y) if self._digits else y, d)

    def climb(self, start: Sequence[int], cur: int, positions: Iterable[int]) -> Template:
        """Climb the leaked distance coordinate by coordinate from ``start``,
        whose distance the caller read as ``cur``, and return where it ends.

        The probes are those of this loop, each answered as ``query`` would
        answer it.  For each 0-based position, in order: stop if cur is 0,
        else set the position to 1, 2, ..., q-1 in turn until a probe's
        distance d differs from cur.  A drop (d < cur) keeps the value and
        sets cur = d; a raise (d > cur, or a rejected probe under below-only
        scope, which carries no distance) resets the position to 0; a
        position whose every value ties keeps q-1.  Each probe counts one
        query and reaches the tap once, in order.

        When the positions are distinct, start is 0 at each of them, cur is
        start's distance and, under below-only scope, cur <= epsilon, every
        probe is set by the secret's digit s at its position: s = 0 costs
        one raise, any other s costs s-1 ties and a drop.  Those probes are
        then read off the secret's row at once, with exact int counts at any
        q; without a tap no probe is built.  Any other call submits the
        loop's probes through ``query``.  Both give the same counts, taps
        and result, so which one ran tells nothing of the secret.

        A payload other than distance, a start ``query`` would reject, a cur
        that is not an integer or a position outside [0, n) raises
        UsageError before any probe counts.
        """
        params = self.params
        if self.mode.payload is not Payload.DISTANCE:
            raise UsageError("a distance climb needs the distance payload")
        start = as_template(params, start)
        try:
            cur = operator.index(cur)
        except TypeError:
            raise UsageError(f"the climb's starting distance must be an integer, got {cur!r}") from None
        at = self._climb_positions(positions)
        row = self.__row
        ys = np.frombuffer(bytes(start), dtype=np.uint8) if self._digits else np.array(start, dtype=row.dtype)
        if not (
            (cur <= params.epsilon or self.mode.scope is Scope.ALWAYS)
            and cur == np.count_nonzero(ys != row)
            and not ys[at].any()
            and (isinstance(positions, range) or len(np.unique(at)) == len(at))
        ):
            return self._climb_by_query(start, cur, at.tolist())
        if cur == 0:
            return start
        s = row[at]
        # every nonzero digit drops cur by one, and start's other errors lie
        # off the positions, so the climb ends after the cur-th nonzero digit
        # if there are that many
        nonzero = np.flatnonzero(s)
        if len(nonzero) == cur:
            at, s = at[: nonzero[-1] + 1], s[: nonzero[-1] + 1]
        # max(1, s) summed: an int16 row sums exactly in int64, wider digits as ints
        probes = (int(s.sum()) if self._digits else sum(s.tolist())) + len(s) - len(nonzero)
        self._charge(probes, lambda: self._climb_probes(start, cur, at, s))
        out = ys.copy()
        out[at] = s
        return tuple(out.tolist())

    def _climb_probes(self, start: Template, cur: int, at: np.ndarray, s: np.ndarray) -> Iterator[tuple]:
        """The fast climb's probes with their answers, in order, given the
        secret's digits s at the positions: at a digit s > 0 the values
        1..s-1 tie and s drops cur; at 0 the value 1 raises it."""
        y = list(start)
        for p, digit in zip(at.tolist(), s.tolist()):
            for v in range(1, max(digit, 1) + 1):
                y[p] = v
                yield tuple(y), self._respond(None, cur if v < digit else cur - 1 if digit else cur + 1)
            y[p] = digit
            cur -= bool(digit)

    def _climb_positions(self, positions: Iterable[int]) -> np.ndarray:
        """The climb's positions as an integer array, checked to lie in
        [0, n)."""
        n = self.params.n
        if isinstance(positions, range):
            at = np.arange(positions.start, positions.stop, positions.step)
            # a range lies between its ends
            ok = not positions or (0 <= positions[0] < n and 0 <= positions[-1] < n)
        else:
            at = np.array(list(positions))
            ok = at.ndim == 1 and (not at.size or (at.dtype.kind in "iu" and at.min() >= 0 and at.max() < n))
        if not ok:
            raise UsageError(f"climb positions must be integers in [0, {n - 1}]")
        return at.astype(np.intp, copy=False)

    def _climb_by_query(self, start: Template, cur: int, positions: list[int]) -> Template:
        """The climb's loop, one ``query`` per probe; it resubmits one
        working list, changed in place."""
        y = list(start)
        for pos in positions:
            if cur == 0:
                break
            for v in range(1, self.params.q):
                y[pos] = v
                d = self.query(y).distance
                d = cur + 1 if d is None else d
                if d < cur:
                    cur = d
                    break
                if d > cur:
                    y[pos] = 0
                    break
        return tuple(y)

    # -- passive sessions ---------------------------------------------------

    def genuine_session(
        self, client: ClientModel, rng: np.random.Generator
    ) -> Observation:
        """Simulate one accepted authentication of the legitimate client and
        return the server-side leak.

        The drawn attempt always stays within distance epsilon of the secret,
        so the session is accepted by construction.  Requires the
        positions-and-values payload (there is nothing to observe otherwise)
        and epsilon >= 1 (the model never emits error-free sessions).
        """
        self._check_client(client)
        k = 1
        if client.shape is SessionShape.MULTI_ERROR:
            k = min(int(rng.integers(1, self.params.epsilon + 1)), len(client._variable))
        positions = client.sample_positions(k, rng)
        # each erring coordinate moves to a uniformly drawn other symbol, one
        # draw per position in draw order; for k <= epsilon, scalar draws are
        # faster than one vector draw.  At q = 2 the other symbol is the only
        # one, and rng.integers(1, 2) draws nothing, so the draws are skipped.
        q = self.params.q
        shifts = [1] * k if q == 2 else [int(rng.integers(1, q)) for _ in positions]
        return self._emit_observation(sorted(zip(positions, shifts)))

    def watch(self, client: ClientModel, rng: np.random.Generator) -> Iterator[Iterable[tuple[int, int]]]:
        """Answer genuine sessions, as ``genuine_session`` would answer them
        one at a time, up to and including the first one after which every
        variable coordinate has erred.

        Every answered session counts one session and reaches the tap once,
        in order, with the observation ``genuine_session`` would return, and
        the generator is left where that loop would leave it.  What
        ``genuine_session`` rejects raises UsageError, at the call.

        Yields, chunk by chunk, the distinct (1-based position, error value
        x_i - y_i) pairs that the chunk's sessions leaked.  Binary
        single-error sessions come in blocks of 64, then doubling up to
        2^16, where a coordinate's error value is the same in every session;
        every other client's chunk is one ``genuine_session``.  It is lazy:
        a chunk is answered (drawn, counted and tapped) when iteration
        reaches it, and only one chunk is held at a time.
        """
        self._check_client(client)
        return self._watch(client, rng)

    def _watch(self, client: ClientModel, rng: np.random.Generator) -> Iterator[Iterable[tuple[int, int]]]:
        """watch's chunks, after its checks at the call."""
        unseen = set(client.variable_positions())
        blocks = client.shape is SessionShape.SINGLE_ERROR and self.params.q == 2
        if blocks:
            cdf = np.asarray(client._cdf)
            bits = self.__row
            flips = bits - (bits + 1) % 2  # each coordinate's error value, as _emit_observation builds it
        size = _WATCH_CHUNK
        while unseen:
            if blocks:
                errors = self._session_block(cdf, flips, rng, size, unseen)
                size = min(2 * size, _WATCH_MAX_CHUNK)
            else:
                errors = self.genuine_session(client, rng).errors
            unseen.difference_update(errors)
            yield errors.items()

    def _session_block(
        self, cdf: np.ndarray, flips: np.ndarray, rng: np.random.Generator, size: int, unseen: set[int]
    ) -> dict[int, int]:
        """Answer up to ``size`` binary single-error sessions, stopping after
        the first one that leaves no position of ``unseen`` unseen.  Returns
        the first error value of each position they leaked."""
        # one double per session (see the module docstring): a block is one
        # vector draw, redrawn from its start up to the stop if the stop
        # falls inside it
        gen = rng.bit_generator
        state = gen.state
        pos = np.searchsorted(cdf, rng.random(size), side="right")
        first = np.full(len(cdf), size)
        np.minimum.at(first, pos, np.arange(size))
        need = np.fromiter(unseen, dtype=np.intp, count=len(unseen)) - 1
        stop = int(first[need].max()) + 1  # size + 1 while a variable coordinate stays unseen
        if stop < size:
            gen.state = state
            rng.random(stop)
            pos = pos[:stop]
        self._charge(len(pos), lambda: (
            (None, Observation(errors={p: v})) for p, v in zip((pos + 1).tolist(), flips[pos].tolist())
        ), sessions=True)
        seen = np.flatnonzero(first < len(pos))
        return dict(zip((seen + 1).tolist(), flips[seen].tolist()))

    def _check_client(self, client: ClientModel) -> None:
        """Raise UsageError unless this oracle can answer the client's
        genuine sessions."""
        params = self.params
        if self.mode.payload is not Payload.POSITIONS_VALUES:
            raise UsageError("genuine sessions require the positions+values payload")
        if params.epsilon < 1:
            raise UsageError("client sessions need epsilon >= 1")
        if len(client.error_probs) != params.n:
            raise UsageError(
                f"client model has {len(client.error_probs)} coordinates, expected {params.n}"
            )

    def faulted_session(self, positions: Iterable[int]) -> Observation:
        """Session whose error locations the attacker controls (fault
        injection): the given 1-based coordinates err, everything else
        matches the secret.  At most epsilon positions per session."""
        params = self.params
        if self.mode.payload is not Payload.POSITIONS_VALUES:
            raise UsageError("faulted sessions require the positions+values payload")
        try:
            pos = sorted(set(map(operator.index, positions)))  # integers only, as in query
        except TypeError:
            raise UsageError("error positions must be integers") from None
        if not pos:
            raise UsageError("a faulted session needs at least one error position")
        if len(pos) > params.epsilon:
            raise UsageError(
                f"{len(pos)} injected errors exceed the threshold {params.epsilon}"
            )
        if pos[0] < 1 or pos[-1] > params.n:
            raise UsageError("error positions must lie in [1, n]")
        return self._emit_observation(((p - 1, 1) for p in pos), pos)

    def _emit_observation(self, shifts: Iterable[tuple[int, int]], submission: object = None) -> Observation:
        """Count, tap with ``submission`` and return one session given its
        (0-based coordinate, shift) pairs, in that order: the secret's digit
        x there moves to (x + shift) mod q.  This is the one place a
        session's error value x - (x + shift) mod q is built."""
        secret, q = self.__secret, self.params.q
        obs = Observation(errors={p + 1: secret[p] - (secret[p] + s) % q for p, s in shifts})
        self._charge(1, lambda: ((submission, obs),), sessions=True)
        return obs

    # -- verification seal ----------------------------------------------------

    def audit_secret(self) -> Template:
        """Reveal the secret for post-hoc verification only.  Every read is
        counted; a clean attack leaves audit_count at zero."""
        self._audit_count += 1
        return self.__secret


# --- audit serialization ------------------------------------------------------
#
# JSON lines schema:
#   {"accepted": 0|1, "distance": int?, "positions": [int]?, "values": {"i": int}?}
# Optional fields are omitted when absent; positions are sorted ascending.

# json.dumps(doc, separators=(",", ":")) without building an encoder per call
_encode = json.JSONEncoder(separators=(",", ":")).encode


def response_to_json(resp: MatchResponse) -> str:
    doc: dict = {"accepted": int(resp.accepted)}
    if resp.distance is not None:
        doc["distance"] = resp.distance
    if resp.error_positions is not None:
        doc["positions"] = sorted(resp.error_positions)
    if resp.error_values is not None:
        doc["values"] = {str(k): v for k, v in sorted(resp.error_values.items())}
    return _encode(doc)


def response_from_json(line: str) -> MatchResponse:
    doc = json.loads(line)
    positions = doc.get("positions")
    values = doc.get("values")
    return MatchResponse(
        accepted=bool(doc["accepted"]),
        distance=doc.get("distance"),
        error_positions=None if positions is None else frozenset(positions),
        error_values=None if values is None else {int(k): v for k, v in values.items()},
    )


def observation_to_json(obs: Observation) -> str:
    doc = {"accepted": 1, "values": {str(k): v for k, v in sorted(obs.errors.items())}}
    return _encode(doc)


def observation_from_json(line: str) -> Observation:
    doc = json.loads(line)
    return Observation(errors={int(k): v for k, v in doc["values"].items()})
