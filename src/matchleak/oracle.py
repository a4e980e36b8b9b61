"""Leaky threshold matcher.

The oracle holds a sealed secret template and answers membership queries:
accept iff the Hamming distance to the secret is at most epsilon.  Depending
on the configured leakage mode it additionally reveals the distance, the
erroneous coordinate positions, or positions plus signed error values.

Two kinds of interaction are counted separately:

* ``query`` -- an active attacker submission (query_count),
* ``genuine_session`` / ``faulted_session`` -- passive observations of a
  legitimate client authenticating (session_count).

Attack code must reach the secret only through these; ``audit_secret`` exists
for post-hoc verification and counts its reads so tests can prove that no
attack peeked.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import UsageError
from .space import SpaceParams, Template, as_template, perturb


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
    the probabilities must be nonnegative with sum <= 1 and at least one
    positive entry.  Coordinates with probability zero are non-variable and
    can never be observed passively.

    Session shapes:

    * SINGLE_ERROR -- exactly one error per session, coordinate i with
      probability p_i / sum(p).
    * MULTI_ERROR -- the error count is uniform on {1, ..., epsilon} and the
      positions are drawn without replacement proportionally to p_i.
    """

    error_probs: tuple[float, ...]
    shape: SessionShape = SessionShape.SINGLE_ERROR

    def __post_init__(self) -> None:
        probs = tuple(float(p) for p in self.error_probs)
        object.__setattr__(self, "error_probs", probs)
        if any(p < 0.0 for p in probs):
            raise UsageError("error probabilities must be nonnegative")
        if sum(probs) > 1.0 + 1e-9:
            raise UsageError("error probabilities must sum to at most 1")
        if not any(p > 0.0 for p in probs):
            raise UsageError("at least one coordinate must be variable")

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
        model."""
        if alpha < 1.0:
            raise UsageError("alpha must be >= 1")
        p1 = float(n) ** (-alpha)
        rest = (1.0 - p1) / (n - 1) if n > 1 else 0.0
        return cls((p1,) + (rest,) * (n - 1), shape)

    def variable_positions(self) -> tuple[int, ...]:
        """1-based positions with positive error probability."""
        return tuple(i + 1 for i, p in enumerate(self.error_probs) if p > 0.0)

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
        """Answer one submission.  Malformed submissions raise UsageError and
        do not advance the query counter."""
        secret = self.__secret
        params = self.params
        if len(y) != params.n:
            raise UsageError(f"query has length {len(y)}, expected n={params.n}")
        q = params.q
        d = 0
        for a, b in zip(secret, y):
            if b < 0 or b >= q:
                raise UsageError(f"coordinate {b} outside [0, {q - 1}]")
            if a != b:
                d += 1
        self._query_count += 1
        accepted = d <= params.epsilon

        payload = self.mode.payload
        if not (accepted or self.mode.scope is Scope.ALWAYS) or payload is Payload.NONE:
            resp = MatchResponse(accepted=accepted)
        elif payload is Payload.DISTANCE:
            resp = MatchResponse(accepted=accepted, distance=d)
        elif payload is Payload.POSITIONS:
            positions = frozenset(i for i, (a, b) in enumerate(zip(secret, y), 1) if a != b)
            resp = MatchResponse(accepted=accepted, error_positions=positions)
        else:
            values = _errors(secret, y)
            resp = MatchResponse(
                accepted=accepted, distance=d, error_positions=frozenset(values), error_values=values
            )
        if self._on_response is not None:
            self._on_response(resp)
        return resp

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
        params = self.params
        if self.mode.payload is not Payload.POSITIONS_VALUES:
            raise UsageError("genuine sessions require the positions+values payload")
        if params.epsilon < 1:
            raise UsageError("client sessions need epsilon >= 1")
        if len(client.error_probs) != params.n:
            raise UsageError(
                f"client model has {len(client.error_probs)} coordinates, expected {params.n}"
            )

        probs = np.asarray(client.error_probs, dtype=float)
        weights = probs / probs.sum()
        variable = int(np.count_nonzero(probs))
        k = 1
        if client.shape is SessionShape.MULTI_ERROR:
            k = min(int(rng.integers(1, params.epsilon + 1)), variable)
        positions = rng.choice(params.n, size=k, replace=False, p=weights)
        secret = self.__secret
        return self._emit_observation(secret, perturb(params, secret, positions, rng))

    def faulted_session(self, positions: Iterable[int]) -> Observation:
        """Session whose error locations the attacker controls (fault
        injection): the given 1-based coordinates err, everything else
        matches the secret.  At most epsilon positions per session."""
        params = self.params
        if self.mode.payload is not Payload.POSITIONS_VALUES:
            raise UsageError("faulted sessions require the positions+values payload")
        pos = sorted(set(int(p) for p in positions))
        if not pos:
            raise UsageError("a faulted session needs at least one error position")
        if len(pos) > params.epsilon:
            raise UsageError(
                f"{len(pos)} injected errors exceed the threshold {params.epsilon}"
            )
        if pos[0] < 1 or pos[-1] > params.n:
            raise UsageError("error positions must lie in [1, n]")
        secret = self.__secret
        y = list(secret)
        for p in pos:
            y[p - 1] = (y[p - 1] + 1) % params.q
        return self._emit_observation(secret, y)

    def _emit_observation(self, secret: Template, y: Sequence[int]) -> Observation:
        self._session_count += 1
        obs = Observation(errors=_errors(secret, y))
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
