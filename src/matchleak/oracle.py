"""Leaky threshold matcher.

The oracle holds a sealed secret template and answers membership queries:
accept iff the Hamming distance to the secret is at most epsilon.  Depending
on the configured leakage mode it additionally reveals the distance, the
erroneous coordinate positions, or positions plus signed error values.

Two kinds of interaction are counted separately:

* ``query`` -- an active attacker submission (query_count),
* ``genuine_session`` / ``watch`` / ``faulted_session`` -- passive
  observations of a legitimate client authenticating (session_count).

``scan`` answers a batch of queries the attacker committed to in advance, in
vectorised chunks, and counts exactly the queries it answers.  ``watch`` is
its passive counterpart: it lazily answers binary single-error genuine
sessions in chunks of at most 2^16 until every target coordinate has erred.
Such a session consumes exactly one double of the generator (the shift to
the other bit draws nothing), so a chunk is one ``rng.random(m)``; the
generator state is saved before each chunk and, when the stop falls inside
one, restored and advanced by the sessions used.  Counts, taps and the
generator's final state are those of the per-session loop.

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
from itertools import accumulate
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import CapacityError, UsageError
from .space import SpaceParams, Template, as_template, template_index

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
# submissions query takes as they are; anything else is listed first
_SEQUENCES = frozenset({tuple, list, bytes, bytearray})
# binary digit string of a packed word -> one byte per coordinate
_BITS = bytes.maketrans(b"01", b"\x00\x01")


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

    def collection_target(self, target: Iterable[int] | None = None) -> set[int]:
        """The 1-based positions a passive collection waits for: target, by
        default every variable coordinate.  An empty target, or one holding
        a never-erring coordinate, raises UsageError, since collection could
        not terminate."""
        variable = set(self._variable)
        tgt = set(target) if target is not None else variable
        if not tgt:
            raise UsageError("empty collection target")
        if not tgt <= variable:
            dead = sorted(tgt - variable)
            raise UsageError(f"target coordinates {dead} never err; collection cannot terminate")
        return tgt

    def min_prob(self, target: Iterable[int] | None = None) -> float:
        """Smallest error probability among target positions (1-based)."""
        if target is None:
            target = self.variable_positions()
        return min(self.error_probs[i - 1] for i in target)

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


def _errors(secret: Template, y: Sequence[int]) -> dict[int, int]:
    """1-based position -> x_i - y_i for every coordinate where y errs."""
    return {i + 1: secret[i] - y[i] for i in range(len(secret)) if secret[i] != y[i]}


class Oracle:
    """Match oracle over a sealed secret with strict interaction accounting.

    Single-client: queries against one instance are meant to be serialized.
    Responses and observations are immutable and freely shareable.  Optional
    ``on_response`` / ``on_observation`` callbacks tap the emitted stream,
    e.g. for JSONL audit logs.
    """

    def __init__(
        self,
        secret: Sequence[int],
        params: SpaceParams,
        mode: LeakageMode,
        on_response: Callable[[MatchResponse], None] | None = None,
        on_observation: Callable[[Observation], None] | None = None,
    ) -> None:
        self.params = params
        self.mode = mode
        self.__secret = as_template(params, secret)
        # For q <= 256 a submission is checked and converted in C, as one
        # byte per coordinate, and the secret is held as the int of its
        # bytes: the coordinates a submission gets wrong are the nonzero
        # bytes of the XOR, and at q = 2 their count is its popcount.  The
        # secret's int16 row, minus a submission's bytes, gives the
        # position payloads.
        self._digits = bytes(range(params.q)) if params.q <= 256 else None
        self.__int = self.__row = None
        if self._digits:
            raw = bytes(self.__secret)
            self.__int = int.from_bytes(raw, "big")
            self.__row = np.frombuffer(raw, dtype=np.uint8).astype(np.int16)
        self._query_count = 0
        self._session_count = 0
        self._audit_count = 0
        self._on_response = on_response
        self._on_observation = on_observation

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

    # -- active queries ------------------------------------------------------

    def query(self, y: Sequence[int]) -> MatchResponse:
        """Answer one submission.  Malformed submissions (wrong length, a
        coordinate that is not an integer or lies outside the alphabet) raise
        UsageError and do not advance the query counter.

        ``bytes`` and ``bytearray`` submissions hold one coordinate per
        byte; for q <= 256 they are checked and answered as they are, so a
        caller may resubmit one buffer it changes between queries."""
        params = self.params
        n = params.n
        kind = type(y)
        if kind not in _SEQUENCES:
            y = list(y)  # bytearray() of an ndarray or array would read its raw buffer
        if len(y) != n:
            raise UsageError(f"query has length {len(y)}, expected n={n}")
        digits = None
        if self._digits:
            if kind is bytes or kind is bytearray:
                digits = y
            else:
                try:
                    digits = bytearray(y)  # faster than bytes() on a tuple
                except (TypeError, ValueError):
                    pass
        if digits is None or digits.translate(None, self._digits):
            digits = as_template(params, y)  # q > 256, or UsageError naming the bad coordinate
            d = sum(1 for a, c in zip(self.__secret, digits) if a != c)
        elif params.q == 2:
            d = (int.from_bytes(digits, "big") ^ self.__int).bit_count()
        else:
            d = n - (int.from_bytes(digits, "big") ^ self.__int).to_bytes(n, "big").count(0)
        self._query_count += 1
        resp = self._respond(digits, d)
        if self._on_response is not None:
            self._on_response(resp)
        return resp

    def _respond(self, y: bytes | bytearray | Template, d: int) -> MatchResponse:
        """The response to a counted submission y at distance d: one byte
        per coordinate for q <= 256, plain int digits above."""
        accepted = d <= self.params.epsilon
        payload = self.mode.payload
        if payload is Payload.NONE or not (accepted or self.mode.scope is Scope.ALWAYS):
            return _ACCEPTED if accepted else _REJECTED
        if payload is Payload.DISTANCE:
            return _distance_response(accepted, d)
        if self._digits:
            diff = self.__row - np.frombuffer(y, dtype=np.uint8)
            wrong = np.flatnonzero(diff)
            positions = (wrong + 1).tolist()
            if payload is Payload.POSITIONS:
                return MatchResponse(accepted=accepted, error_positions=frozenset(positions))
            values = dict(zip(positions, diff[wrong].tolist()))
        else:
            secret = self.__secret
            if payload is Payload.POSITIONS:
                positions = frozenset(i for i, (a, b) in enumerate(zip(secret, y), 1) if a != b)
                return MatchResponse(accepted=accepted, error_positions=positions)
            values = _errors(secret, y)
        return MatchResponse(
            accepted=accepted, distance=d, error_positions=frozenset(values), error_values=values
        )

    def scan(
        self, batches: Iterable[np.ndarray], stop_at_exact: bool = False
    ) -> Iterator[tuple[Template, MatchResponse]]:
        """Answer a sequence of candidates committed in advance, in order, as
        ``query`` would answer them one at a time, up to and including the
        stop point.

        ``batches`` yields the candidates in chunks, each either a 1-D uint64
        array of packed words (q = 2 and n <= PACKED_MAX_N only; coordinate 1
        is the most significant of the low n bits), compared by popcount, or
        a 2-D integer array with one row of n digits per candidate, compared
        row by row.  The stop point is the first accepted candidate or, with
        ``stop_at_exact``, the first one at distance 0 (for payloads that
        reveal the distance of an accepted query); without one the scan ends
        with the last candidate.  Every answered candidate counts one query
        and fires ``on_response`` once, in order, with the response ``query``
        would return.  A malformed chunk raises UsageError before any of its
        candidates counts.

        Yields, in order, every answered candidate whose response carries
        more than a bare rejection, with that response.  The scan is lazy:
        a chunk is answered (counted and tapped) when iteration reaches it,
        and only one chunk's answers are held at a time.
        """
        if stop_at_exact and self.mode.payload is Payload.NONE:
            raise UsageError("a scan cannot stop at distance 0 when responses hide the distance")
        bare = self.mode.payload is Payload.NONE or self.mode.scope is Scope.BELOW_ONLY
        tap = self._on_response
        for batch in batches:
            dist = self._distances(batch)
            accepted = dist <= self.params.epsilon
            stops = np.flatnonzero(dist == 0 if stop_at_exact else accepted)
            count = int(stops[0]) + 1 if len(stops) else len(dist)
            self._query_count += count
            rows = np.flatnonzero(accepted[:count]) if bare else range(count)
            built = {}
            for i in map(int, rows):
                y = self._candidate(batch, i)
                built[i] = (y, self._respond(bytes(y) if self._digits else y, int(dist[i])))
            if tap is not None:
                for i in range(count):
                    tap(built[i][1] if i in built else _REJECTED)
            yield from built.values()
            if len(stops):
                return

    def _distances(self, batch: np.ndarray) -> np.ndarray:
        """Distance from the secret of every candidate in a scan chunk."""
        params = self.params
        n = params.n
        if not isinstance(batch, np.ndarray):
            raise UsageError("scan candidates must come as numpy arrays")
        if batch.ndim == 1 and batch.dtype == np.uint64:
            if params.q != 2 or n > PACKED_MAX_N:
                raise UsageError(f"packed candidates need q = 2 and n <= {PACKED_MAX_N} (got {params})")
            if np.any(batch >> np.uint64(n)):
                raise UsageError(f"packed candidate has bits above the low n={n}")
            return np.bitwise_count(batch ^ np.uint64(template_index(params, self.__secret)))
        if batch.ndim != 2 or batch.shape[1] != n or batch.dtype.kind not in "iu":
            raise UsageError(f"scan candidates must be packed words or rows of n={n} integer digits")
        if batch.size and (batch.min() < 0 or batch.max() >= params.q):
            raise UsageError(f"scan candidate has a coordinate outside [0, {params.q - 1}]")
        return np.count_nonzero(batch != np.array(self.__secret), axis=1)

    def _candidate(self, batch: np.ndarray, i: int) -> Template:
        """Row i of a scan chunk as a template."""
        if batch.ndim == 1:
            return tuple(format(int(batch[i]), f"0{self.params.n}b").encode().translate(_BITS))
        return tuple(batch[i].tolist())

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
        secret, q = self.__secret, self.params.q
        shifts = [1] * k if q == 2 else [int(rng.integers(1, q)) for _ in positions]
        return self._emit_observation(
            {p + 1: secret[p] - (secret[p] + s) % q for p, s in sorted(zip(positions, shifts))}
        )

    def watch(
        self,
        client: ClientModel,
        rng: np.random.Generator,
        target: Iterable[int] | None = None,
        max_sessions: int | None = None,
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Answer binary single-error genuine sessions, as ``genuine_session``
        would answer them one at a time, up to and including the first one
        after which every target coordinate (1-based; default: every
        variable one, see ``ClientModel.collection_target``) has erred.

        Every answered session counts one session and fires
        ``on_observation`` once, in order, with the observation
        ``genuine_session`` would return, and the generator is left where
        that loop would leave it.  With ``max_sessions`` set, CapacityError
        is raised once that many sessions, all counted and tapped, leave a
        target coordinate unseen.  Besides what ``genuine_session`` rejects,
        a multi-error client or q != 2 raises UsageError, at the call.

        Yields, chunk by chunk, the 1-based error position and the error
        value x_i - y_i of every answered session, in order.  Like ``scan``
        it is lazy: a chunk is answered (drawn, counted and tapped) when
        iteration reaches it, and only one chunk is held at a time.
        """
        self._check_client(client)
        if client.shape is not SessionShape.SINGLE_ERROR or self.params.q != 2:
            raise UsageError("watch answers single-error sessions at q = 2 only")
        tgt = client.collection_target(target)
        return self._watch(client, rng, tgt, max_sessions)

    def _watch(
        self, client: ClientModel, rng: np.random.Generator, tgt: set[int], max_sessions: int | None
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """watch's chunks, after its checks at the call."""
        n = self.params.n
        need = np.array([i in tgt for i in range(1, n + 1)])  # target coordinates not yet seen
        cdf = np.asarray(client._cdf)
        bits = self.__row
        flips = bits - (bits + 1) % 2  # each coordinate's error value, as genuine_session builds it
        gen = rng.bit_generator
        tap = self._on_observation
        done, size = 0, _WATCH_CHUNK
        while need.any():
            if max_sessions is not None:
                if done >= max_sessions:
                    raise CapacityError(f"collection incomplete after {done} sessions")
                size = min(size, max_sessions - done)
            # one double per session (see the module docstring): a chunk is
            # one vector draw, redrawn from its start up to the stop if the
            # stop falls inside it
            state = gen.state
            pos = np.searchsorted(cdf, rng.random(size), side="right")
            first = np.full(n, size)
            np.minimum.at(first, pos, np.arange(size))
            stop = int(first[need].max()) + 1  # size + 1 while a target coordinate stays unseen
            if stop < size:
                gen.state = state
                rng.random(stop)
                pos = pos[:stop]
            need &= first == size
            self._session_count += len(pos)
            if tap is not None:
                for p, v in zip((pos + 1).tolist(), flips[pos].tolist()):
                    tap(Observation(errors={p: v}))
            done += len(pos)
            size = min(2 * size, _WATCH_MAX_CHUNK)
            yield pos + 1, flips[pos]

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
        secret, q = self.__secret, params.q
        return self._emit_observation({p: secret[p - 1] - (secret[p - 1] + 1) % q for p in pos})

    def _emit_observation(self, errors: dict[int, int]) -> Observation:
        self._session_count += 1
        obs = Observation(errors=errors)
        if self._on_observation is not None:
            self._on_observation(obs)
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


def response_to_json(resp: MatchResponse) -> str:
    doc: dict = {"accepted": int(resp.accepted)}
    if resp.distance is not None:
        doc["distance"] = resp.distance
    if resp.error_positions is not None:
        doc["positions"] = sorted(resp.error_positions)
    if resp.error_values is not None:
        doc["values"] = {str(k): v for k, v in sorted(resp.error_values.items())}
    return json.dumps(doc, separators=(",", ":"))


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
    return json.dumps(doc, separators=(",", ":"))


def observation_from_json(line: str) -> Observation:
    doc = json.loads(line)
    return Observation(errors={int(k): v for k, v in doc["values"].items()})
