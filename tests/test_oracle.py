import itertools
from array import array
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchleak import (
    ClientModel,
    LeakageMode,
    MatchResponse,
    Observation,
    Oracle,
    PartialTemplate,
    Payload,
    Scope,
    SessionShape,
    SpaceParams,
    UsageError,
    accumulation_collect,
    observation_from_json,
    observation_to_json,
    resolve_error_value,
    response_from_json,
    response_to_json,
    sample_template,
)
from matchleak import covering
from matchleak import oracle as oracle_module
from matchleak.covering import fixing_batches
from matchleak.space import as_template

from conftest import answers_to, perturb

P7 = SpaceParams(2, 7, 3)
SECRET7 = (0, 0, 1, 1, 0, 1, 0)


def below(payload: Payload) -> LeakageMode:
    return LeakageMode(Scope.BELOW_ONLY, payload)


def always(payload: Payload) -> LeakageMode:
    return LeakageMode(Scope.ALWAYS, payload)


class TestLeakageMode:
    def test_minimal_normalization(self):
        # below-only with no payload is the same contract as always/none
        assert below(Payload.NONE) == always(Payload.NONE)
        assert below(Payload.NONE).scope is Scope.ALWAYS

    def test_parse(self):
        assert LeakageMode.parse("below", "posvalues") == below(Payload.POSITIONS_VALUES)
        with pytest.raises(UsageError):
            LeakageMode.parse("sideways", "none")


class TestOracleBasics:
    def test_fresh_counters(self):
        o = Oracle(SECRET7, P7, always(Payload.NONE))
        assert o.query_count == 0
        assert o.session_count == 0
        assert o.audit_count == 0

    def test_counter_increments_by_one(self):
        o = Oracle(SECRET7, P7, always(Payload.NONE))
        for k in range(5):
            o.query((0,) * 7)
            assert o.query_count == k + 1

    def test_malformed_secret(self):
        with pytest.raises(UsageError):
            Oracle((0, 1), P7, always(Payload.NONE))
        with pytest.raises(UsageError):
            Oracle((0, 0, 1, 1, 0, 1, 9), P7, always(Payload.NONE))

    def test_malformed_query_does_not_count(self):
        o = Oracle(SECRET7, P7, always(Payload.NONE))
        with pytest.raises(UsageError):
            o.query((0, 1))
        with pytest.raises(UsageError):
            o.query((0, 0, 1, 1, 0, 1, 5))
        assert o.query_count == 0

    def test_whole_space_threshold_accepts_everything(self, rng):
        params = SpaceParams(3, 5, 5)
        o = Oracle((0, 1, 2, 0, 1), params, always(Payload.NONE))
        for _ in range(50):
            assert o.query(sample_template(params, rng)).accepted

    def test_accept_boundary(self):
        o = Oracle(SECRET7, P7, always(Payload.DISTANCE))
        assert o.query((1, 1, 0, 1, 0, 1, 0)).accepted  # distance 3 == threshold
        assert not o.query((1, 1, 0, 0, 0, 1, 0)).accepted  # distance 4


class TestLeakPayloads:
    def test_worked_leak_example(self):
        o = Oracle(SECRET7, P7, below(Payload.POSITIONS_VALUES))
        resp = o.query((1, 1, 0, 1, 0, 1, 0))
        assert resp.accepted
        assert resp.error_positions == frozenset({1, 2, 3})
        assert resp.error_values == {1: -1, 2: -1, 3: 1}
        assert resp.distance == 3  # implied by the flags, also populated

    def test_query_equal_to_secret(self):
        for payload in Payload:
            o = Oracle(SECRET7, P7, below(payload))
            resp = o.query(SECRET7)
            assert resp.accepted
            if payload is Payload.DISTANCE:
                assert resp.distance == 0
            if payload is Payload.POSITIONS:
                assert resp.error_positions == frozenset()
            if payload is Payload.POSITIONS_VALUES:
                assert resp.error_positions == frozenset()
                assert resp.error_values == {}

    def test_quaternary_position_leak(self):
        params = SpaceParams(4, 5, 2)
        o = Oracle((0, 1, 3, 2, 2), params, always(Payload.POSITIONS))
        resp = o.query((0, 0, 0, 0, 0))
        assert not resp.accepted
        assert resp.error_positions == frozenset({2, 3, 4, 5})
        assert resp.distance is None  # positions payload carries positions only

    def test_distance_payload_exactly(self):
        o = Oracle(SECRET7, P7, below(Payload.DISTANCE))
        resp = o.query((0, 0, 1, 1, 0, 1, 1))
        assert resp.accepted and resp.distance == 1
        assert resp.error_positions is None and resp.error_values is None

    def test_below_only_rejections_leak_nothing(self, rng):
        params = SpaceParams(4, 8, 1)
        secret = sample_template(params, rng)
        o = Oracle(secret, params, below(Payload.POSITIONS_VALUES))
        draws = rng.integers(0, 4, size=(110_000, 8))
        rejected = 0
        for row in draws:
            if rejected >= 100_000:
                break
            resp = o.query(tuple(int(v) for v in row))
            if not resp.accepted:
                rejected += 1
                assert resp.distance is None
                assert resp.error_positions is None
                assert resp.error_values is None
        assert rejected >= 100_000

    def test_always_scope_leaks_above_threshold(self):
        o = Oracle(SECRET7, P7, always(Payload.DISTANCE))
        resp = o.query((1, 1, 0, 0, 1, 0, 1))
        assert not resp.accepted
        assert resp.distance == 7

    def test_leak_soundness_random(self, rng):
        params = SpaceParams(5, 10, 4)
        secret = sample_template(params, rng)
        o = Oracle(secret, params, always(Payload.POSITIONS_VALUES))
        for _ in range(500):
            y = sample_template(params, rng)
            resp = o.query(y)
            truth = o.audit_secret()
            expect = {i + 1 for i in range(10) if truth[i] != y[i]}
            assert resp.error_positions == expect
            assert resp.distance == len(expect)
            for pos, delta in resp.error_values.items():
                assert delta == truth[pos - 1] - y[pos - 1]
                assert delta != 0
                assert -(params.q - 1) <= delta <= params.q - 1


class TestGenuineSessions:
    def test_requires_posvalues(self, rng):
        o = Oracle(SECRET7, P7, below(Payload.DISTANCE))
        with pytest.raises(UsageError):
            o.genuine_session(ClientModel.uniform(7), rng)

    def test_single_error_shape(self, rng):
        o = Oracle(SECRET7, P7, below(Payload.POSITIONS_VALUES))
        for _ in range(100):
            obs = o.genuine_session(ClientModel.uniform(7), rng)
            assert len(obs.errors) == 1
        assert o.session_count == 100
        assert o.query_count == 0  # sessions never touch the query counter

    def test_multi_error_shape_bounds(self, rng):
        o = Oracle(SECRET7, P7, below(Payload.POSITIONS_VALUES))
        client = ClientModel.uniform(7, SessionShape.MULTI_ERROR)
        counts = {len(o.genuine_session(client, rng).errors) for _ in range(300)}
        assert counts <= {1, 2, 3}
        assert counts == {1, 2, 3}  # uniform over 1..eps, all arise in 300 draws

    def test_binary_sign_rule(self, rng):
        # +1 pins the bit to 1, -1 pins it to 0
        o = Oracle(SECRET7, P7, below(Payload.POSITIONS_VALUES))
        for _ in range(200):
            obs = o.genuine_session(ClientModel.uniform(7), rng)
            for pos, delta in obs.errors.items():
                assert delta in (-1, 1)
                assert SECRET7[pos - 1] == (1 if delta == 1 else 0)

    def test_sessions_respect_nonvariable_coordinates(self, rng):
        client = ClientModel((0.0, 0.5, 0.5), SessionShape.SINGLE_ERROR)
        params = SpaceParams(2, 3, 2)
        o = Oracle((1, 0, 1), params, below(Payload.POSITIONS_VALUES))
        seen = set()
        for _ in range(200):
            seen |= o.genuine_session(client, rng).errors.keys()
        assert 1 not in seen

    def test_faulted_session_exact_positions(self):
        o = Oracle(SECRET7, P7, below(Payload.POSITIONS_VALUES))
        obs = o.faulted_session([2, 5, 7])
        assert set(obs.errors) == {2, 5, 7}
        with pytest.raises(UsageError):
            o.faulted_session([1, 2, 3, 4])  # more than epsilon
        with pytest.raises(UsageError):
            o.faulted_session([])
        with pytest.raises(UsageError):
            o.faulted_session([0])

    def test_faulted_session_takes_integer_positions_only(self):
        # as in query: no truncated float, no parsed string, nothing counted
        o = Oracle(SECRET7, P7, below(Payload.POSITIONS_VALUES))
        for bad in ([1.7, 2], ["3"], [2, Fraction(3)]):
            with pytest.raises(UsageError, match="error positions must be integers"):
                o.faulted_session(bad)
        assert o.session_count == 0
        assert set(o.faulted_session([np.int64(2), True]).errors) == {1, 2}

    @pytest.mark.parametrize("payload", [Payload.NONE, Payload.DISTANCE, Payload.POSITIONS])
    def test_faulted_session_needs_the_posvalues_payload(self, payload):
        o = Oracle(SECRET7, P7, below(payload))
        with pytest.raises(UsageError, match=r"faulted sessions require the positions\+values payload"):
            o.faulted_session([1])
        assert o.session_count == 0

    def test_client_model_rejects_non_finite_probabilities(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(UsageError, match=f"error probabilities must be finite \\(got {bad}\\)"):
                ClientModel((0.5, bad, 0.2))

    def test_client_model_validation(self):
        with pytest.raises(UsageError):
            ClientModel((0.5, 0.7))  # mass over 1
        with pytest.raises(UsageError):
            ClientModel((0.0, 0.0))
        with pytest.raises(UsageError):
            ClientModel((-0.1, 0.5))
        assert ClientModel((0.25, 0.0, 0.5)).variable_positions() == (1, 3)
        assert ClientModel.rare_first(16, 1.5).min_prob() == pytest.approx(16**-1.5)
        for alpha in (0.5, float("nan")):
            with pytest.raises(UsageError, match="alpha must be >= 1"):
                ClientModel.rare_first(16, alpha)
        for alpha in (float("inf"), 1e308, 300.0):
            with pytest.raises(UsageError, match="underflow to 0 at n=16"):
                ClientModel.rare_first(16, alpha)
        assert ClientModel.rare_first(16, 40.0).variable_positions() == tuple(range(1, 17))

    @staticmethod
    def _inclusion_by_enumeration(probs, eps):
        """Chance each coordinate is drawn in a multi-error session, summed
        over every ordered draw without replacement."""
        total = sum(probs)
        w = [p / total for p in probs]
        live = [i for i, p in enumerate(w) if p > 0.0]
        incl = [0.0] * len(w)
        for k in range(1, eps + 1):
            for seq in itertools.permutations(live, min(k, len(live))):
                prob, used = 1.0, 0.0
                for j in seq:
                    prob *= w[j] / (1.0 - used)
                    used += w[j]
                for j in seq:
                    incl[j] += prob / eps
        return min(x for x, p in zip(incl, w) if p > 0.0)

    @pytest.mark.parametrize(
        "client,eps",
        [
            (ClientModel.uniform(6, SessionShape.MULTI_ERROR), 3),
            (ClientModel.rare_first(7, 1.5, SessionShape.MULTI_ERROR), 3),
            (ClientModel.rare_first(5, 2.0, SessionShape.MULTI_ERROR), 5),
            (ClientModel((0.1, 0.0, 0.2, 0.3, 0.4), SessionShape.MULTI_ERROR), 2),
            (ClientModel((0.05, 0.15, 0.3), SessionShape.MULTI_ERROR), 3),
        ],
    )
    def test_multi_error_observation_chance_brackets_enumeration(self, client, eps):
        lo, hi = client.observation_chance(eps)
        exact = self._inclusion_by_enumeration(client.error_probs, eps)
        assert lo - 1e-12 <= exact <= hi + 1e-12
        if len(set(p for p in client.error_probs[1:] if p > 0.0)) == 1:
            assert lo == pytest.approx(exact, rel=1e-12) and hi == pytest.approx(exact, rel=1e-12)

    def test_single_error_observation_chance(self):
        assert ClientModel.rare_first(16, 1.5).observation_chance(3) == (16**-1.5, 16**-1.5)
        assert ClientModel((0.1, 0.0, 0.3)).observation_chance(2) == pytest.approx((0.25, 0.25))


# the sampler's clients: uniform, rare-first and one with non-variable
# coordinates, whose zero weights the cumulative table must step over
SAMPLER_CLIENTS = {
    "uniform": ClientModel.uniform(16),
    "rare_first": ClientModel.rare_first(16, 1.5),
    "zero_prob": ClientModel((0.1, 0.0, 0.3, 0.0, 0.2, 0.05, 0.0, 0.35)),
}


def reference_genuine_errors(params, secret, client, rng) -> dict[int, int]:
    """One genuine session drawn by rng.choice and perturb, as the
    oracle drew it before the client's own sampler replaced that call."""
    probs = np.asarray(client.error_probs, dtype=float)
    weights = probs / probs.sum()
    variable = int(np.count_nonzero(probs))
    k = 1
    if client.shape is SessionShape.MULTI_ERROR:
        k = min(int(rng.integers(1, params.epsilon + 1)), variable)
    positions = rng.choice(params.n, size=k, replace=False, p=weights)
    y = perturb(params, secret, positions, rng)
    return {i + 1: secret[i] - y[i] for i in range(params.n) if secret[i] != y[i]}


class TestSessionSampler:
    @pytest.mark.parametrize("name", sorted(SAMPLER_CLIENTS))
    def test_matches_generator_choice(self, name):
        client = SAMPLER_CLIENTS[name]
        probs = np.asarray(client.error_probs)
        weights = probs / probs.sum()
        for k in range(1, len(client.variable_positions()) + 1):
            redraws = 0
            for seed in range(200):
                ours, ref, plain = (np.random.default_rng(seed) for _ in range(3))
                got = client.sample_positions(k, ours)
                assert got == ref.choice(len(probs), size=k, replace=False, p=weights).tolist()
                assert ours.bit_generator.state == ref.bit_generator.state
                assert ours.random() == ref.random()
                plain.random(k + 1)  # k uniforms, then the draw compared above
                redraws += plain.bit_generator.state != ours.bit_generator.state
            # a duplicate among the first k draws forces a redraw; with 200
            # seeds that happens at every k >= 2
            assert redraws > 0 if k >= 2 else redraws == 0

    @pytest.mark.parametrize("q", [2, 3, 5])
    @pytest.mark.parametrize("shape", list(SessionShape))
    @pytest.mark.parametrize("name", sorted(SAMPLER_CLIENTS))
    def test_genuine_session_matches_reference(self, q, shape, name):
        client = ClientModel(SAMPLER_CLIENTS[name].error_probs, shape)
        params = SpaceParams(q, len(client.error_probs), 3)
        secret = sample_template(params, np.random.default_rng(q))
        o = Oracle(secret, params, always(Payload.POSITIONS_VALUES))
        ours, ref = np.random.default_rng(7), np.random.default_rng(7)
        for _ in range(300):
            got = o.genuine_session(client, ours).errors
            assert list(got.items()) == list(reference_genuine_errors(params, secret, client, ref).items())
        assert ours.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_faulted_session_matches_reference(self, q):
        params = SpaceParams(q, 9, 3)
        secret = sample_template(params, np.random.default_rng(q))
        o = Oracle(secret, params, always(Payload.POSITIONS_VALUES))
        for pos in itertools.chain.from_iterable(
            itertools.combinations(range(1, 10), r) for r in range(1, 4)
        ):
            y = list(secret)
            for p in pos:
                y[p - 1] = (y[p - 1] + 1) % q
            want = {i + 1: secret[i] - y[i] for i in range(9) if secret[i] != y[i]}
            assert list(o.faulted_session(pos).errors.items()) == list(want.items())


class TestWatch:
    """watch against a genuine_session loop with its own stop, the
    per-session path it replaces."""

    MODE = below(Payload.POSITIONS_VALUES)

    @staticmethod
    def _start(seed: int) -> np.random.Generator:
        """A generator at a seed-dependent state; odd seeds hold a cached
        32-bit half-word, which a block draw must leave in place."""
        rng = np.random.default_rng(seed)
        rng.integers(0, 2**31, size=seed % 3)
        return rng

    def _pair(self, client, seed, q=2):
        """Two oracles over one secret, each with its own tap and generator."""
        params = SpaceParams(q, len(client.error_probs), 3)
        secret = sample_template(params, np.random.default_rng(seed + 1000))
        sides = []
        for _ in range(2):
            taps = []
            sides.append((Oracle(secret, params, self.MODE, tap=answers_to(taps)), taps, self._start(seed)))
        return params, sides

    @staticmethod
    def _loop(oracle, client, rng):
        """The reference: one genuine_session per session until every
        variable coordinate has erred.  Returns each session's errors, in
        order."""
        unseen = set(client.variable_positions())
        sessions = []
        while unseen:
            errors = oracle.genuine_session(client, rng).errors
            unseen -= errors.keys()
            sessions.append(errors)
        return sessions

    @staticmethod
    def _partial(params, sessions):
        """The partial template of the reference sessions: each coordinate
        resolved from its first leak."""
        known = {}
        for errors in sessions:
            for p, v in errors.items():
                known.setdefault(p, resolve_error_value(v, params.q))
        return PartialTemplate(tuple(known.get(i) for i in range(1, params.n + 1)))

    @staticmethod
    def _drain(o, client, rng):
        """Every pair watch yields, and the session count after each chunk."""
        pairs, counts = set(), []
        for chunk in o.watch(client, rng):
            pairs.update(chunk)
            counts.append(o.session_count)
        return pairs, counts

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("shape", list(SessionShape))
    @pytest.mark.parametrize("name", sorted(SAMPLER_CLIENTS))
    def test_matches_session_loop(self, q, shape, name):
        client = ClientModel(SAMPLER_CLIENTS[name].error_probs, shape)
        for seed in range(60):
            params, ((o, taps, rng), (ref, ref_taps, ref_rng)) = self._pair(client, seed, q)
            sessions = self._loop(ref, client, ref_rng)
            pairs, counts = self._drain(o, client, rng)
            assert pairs == {pair for errors in sessions for pair in errors.items()}
            assert counts[-1] == len(sessions) == o.session_count == ref.session_count
            assert taps == ref_taps
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            assert o.query_count == 0

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("shape", list(SessionShape))
    @pytest.mark.parametrize("name", sorted(SAMPLER_CLIENTS))
    def test_session_cap(self, q, shape, name):
        # a caller caps the sessions by leaving the iteration: only the
        # chunks it reached are drawn, counted and tapped, as that many
        # genuine_session calls would be
        client = ClientModel(SAMPLER_CLIENTS[name].error_probs, shape)
        for seed in range(30):
            params, ((o, _, rng), _) = self._pair(client, seed, q)
            _, counts = self._drain(o, client, rng)
            for reached in sorted({0, 1, len(counts) - 1}):
                params, ((o, taps, rng), (ref, ref_taps, ref_rng)) = self._pair(client, seed, q)
                chunks = o.watch(client, rng)
                pairs = set()
                for chunk in itertools.islice(chunks, reached):
                    pairs.update(chunk)
                chunks.close()
                cap = counts[reached - 1] if reached else 0
                sessions = [ref.genuine_session(client, ref_rng).errors for _ in range(cap)]
                assert pairs == {pair for errors in sessions for pair in errors.items()}
                assert o.session_count == ref.session_count == cap
                assert taps == ref_taps
                assert rng.bit_generator.state == ref_rng.bit_generator.state

    # accumulation is a binary attack
    @pytest.mark.parametrize("shape", list(SessionShape))
    @pytest.mark.parametrize("name", sorted(SAMPLER_CLIENTS))
    def test_accumulation_matches_session_loop(self, shape, name):
        client = ClientModel(SAMPLER_CLIENTS[name].error_probs, shape)
        for seed in range(60):
            params, ((o, taps, rng), (ref, ref_taps, ref_rng)) = self._pair(client, seed)
            sessions = self._loop(ref, client, ref_rng)
            out = accumulation_collect(o, client, rng)
            assert out.recovered == self._partial(params, sessions)
            assert len(sessions) == o.session_count == ref.session_count
            assert taps == ref_taps
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_capped_chunks_match_session_loop(self, monkeypatch):
        # chunks capped at their first size, 64 sessions, so every chunk is
        # capped; the rare coordinate errs with chance 1/4096
        monkeypatch.setattr(oracle_module, "_WATCH_MAX_CHUNK", 64)
        client = ClientModel.rare_first(16, 3.0)
        for seed in range(12):
            params, ((o, taps, rng), (ref, ref_taps, ref_rng)) = self._pair(client, seed)
            sessions = self._loop(ref, client, ref_rng)
            out = accumulation_collect(o, client, rng)
            assert len(sessions) > 3 * 64
            assert out.recovered == self._partial(params, sessions)
            assert o.session_count == ref.session_count == len(sessions)
            assert taps == ref_taps
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_chunks_stop_doubling_at_the_cap(self):
        # coordinate 1 errs with chance 16**-5; at this seed it first errs
        # after 294,537 sessions: the chunks double from 64 to 2**16, then
        # stay there
        rng = np.random.default_rng(2)
        params = SpaceParams(2, 16, 3)
        o = Oracle(sample_template(params, rng), params, self.MODE)
        counts = []
        for chunk in o.watch(ClientModel.rare_first(16, 5.0), rng):
            counts.append(o.session_count)
            # the distinct pairs of the chunk: at most one per coordinate
            assert len(dict(chunk)) == len(chunk) <= 16
        assert np.diff([0, *counts]).tolist() == [64 << i for i in range(11)] + [65536, 65536, 32457]
        assert o.session_count == 294_537 > 1 << 17

    def test_rejects_what_it_cannot_answer(self, rng):
        single = ClientModel.uniform(7)
        posvalues = below(Payload.POSITIONS_VALUES)
        cases = [
            (Oracle(SECRET7, P7, below(Payload.POSITIONS)), single, r"positions\+values payload"),
            (Oracle(SECRET7, SpaceParams(2, 7, 0), posvalues), single, "epsilon >= 1"),
            (Oracle(SECRET7, P7, posvalues), ClientModel.uniform(6), "has 6 coordinates"),
        ]
        for o, client, message in cases:
            state = rng.bit_generator.state
            with pytest.raises(UsageError, match=message):
                o.watch(client, rng)
            assert o.session_count == 0 and rng.bit_generator.state == state


class TestAuditSeal:
    def test_counts_reads(self):
        o = Oracle(SECRET7, P7, always(Payload.NONE))
        assert o.audit_count == 0
        assert o.audit_secret() == SECRET7
        assert o.audit_count == 1


class TestSerialization:
    def test_response_roundtrip(self):
        o = Oracle(SECRET7, P7, below(Payload.POSITIONS_VALUES))
        resp = o.query((1, 1, 0, 1, 0, 1, 0))
        line = response_to_json(resp)
        assert line == '{"accepted":1,"distance":3,"positions":[1,2,3],"values":{"1":-1,"2":-1,"3":1}}'
        assert response_from_json(line) == resp

    def test_minimal_response_serialization(self):
        o = Oracle(SECRET7, P7, always(Payload.NONE))
        line = response_to_json(o.query((1,) * 7))
        assert line == '{"accepted":0}'

    def test_observation_roundtrip(self):
        obs = Observation(errors={3: 1, 1: -1})
        assert observation_from_json(observation_to_json(obs)) == obs

    def test_response_tap(self):
        seen = []
        o = Oracle(SECRET7, P7, below(Payload.DISTANCE), tap=answers_to(seen))
        o.query(SECRET7)
        o.query((1,) * 7)
        assert len(seen) == 2 and seen[0].distance == 0


# --- fast paths against the per-coordinate reference ------------------------------


def reference_response(secret, y, eps: int, mode: LeakageMode) -> MatchResponse:
    """The oracle's answer computed one coordinate at a time, as a plain
    tuple comparison."""
    wrong = [i for i in range(len(secret)) if secret[i] != y[i]]
    accepted = len(wrong) <= eps
    if mode.payload is Payload.NONE or not (accepted or mode.scope is Scope.ALWAYS):
        return MatchResponse(accepted=accepted)
    if mode.payload is Payload.DISTANCE:
        return MatchResponse(accepted=accepted, distance=len(wrong))
    positions = frozenset(i + 1 for i in wrong)
    if mode.payload is Payload.POSITIONS:
        return MatchResponse(accepted=accepted, error_positions=positions)
    values = {i + 1: secret[i] - y[i] for i in wrong}
    return MatchResponse(accepted=accepted, distance=len(wrong), error_positions=positions, error_values=values)


MODES = [LeakageMode(scope, payload) for scope in Scope for payload in Payload]


@st.composite
def submissions(draw):
    """A space (most of them binary; q = 256 has the largest one-byte
    digit, and q = 257 and 300 take the path past one byte per digit), a
    secret, and queries near it as well as uniform ones, so that both
    answers arise.  n is drawn up to 256, or from the word and byte-path
    edges up to 1024."""
    q = draw(st.sampled_from([2, 2, 2, 2, 3, 5, 256, 257, 300]))
    n = draw(st.one_of(st.integers(1, 256), st.sampled_from([1, 64, 65, 256, 1024])))
    eps = draw(st.integers(0, n))

    def digits(v: int) -> tuple[int, ...]:
        return tuple((v // q ** (n - 1 - i)) % q for i in range(n))

    secret = digits(draw(st.integers(0, q**n - 1)))
    shift = draw(st.integers(1, q - 1))
    flips = st.sets(st.integers(0, n - 1), max_size=min(n, eps + 2))
    near = flips.map(lambda f: tuple((c + shift) % q if i in f else c for i, c in enumerate(secret)))
    uniform = st.integers(0, q**n - 1).map(digits)
    queries = draw(st.lists(st.one_of(uniform, near), min_size=1, max_size=8))
    return SpaceParams(q, n, eps), secret, queries, draw(st.sampled_from(MODES))


class TestQueryKernels:
    @settings(max_examples=300, deadline=None)
    @given(submissions())
    def test_matches_tuple_reference(self, case):
        # every query as a tuple and a list, and for q <= 256 as bytes and
        # as a bytearray, one coordinate per byte
        params, secret, queries, mode = case
        forms = (tuple, list, bytes, bytearray) if params.q <= 256 else (tuple, list)
        seen = []
        o = Oracle(secret, params, mode, tap=answers_to(seen))
        for k, y in enumerate(queries, 1):
            expect = reference_response(secret, y, params.epsilon, mode)
            for form in forms:
                assert o.query(form(y)) == expect
            assert o.query_count == len(forms) * k
        assert seen == [reference_response(secret, y, params.epsilon, mode) for y in queries for _ in forms]

    @pytest.mark.parametrize("n", [1, 64, 65, 256, 1024])
    @pytest.mark.parametrize("q", [256, 257])
    def test_byte_edges(self, q, n, rng):
        # digit 255 is the last that fits a byte; q = 257 has one digit past it
        params = SpaceParams(q, n, min(n, 8))
        secret = (255, *sample_template(params, rng)[1:])
        if n > 1:
            secret = (*secret[:-1], q - 1)
        queries = [secret, (0,) * n, (q - 1,) * n, (255,) * n, sample_template(params, rng)]
        for k in sorted({1, min(n, params.epsilon + 1), max(1, n // 2), n}):
            queries.append(tuple(perturb(params, secret, rng.choice(n, k, replace=False), rng)))
        forms = (tuple, list, bytes, bytearray) if q <= 256 else (tuple, list)
        for mode in MODES:
            expect = [reference_response(secret, y, params.epsilon, mode) for y in queries]
            seen = []
            o = Oracle(secret, params, mode, tap=answers_to(seen))
            for y, answer in zip(queries, expect):
                for form in forms:
                    assert o.query(form(y)) == answer
            assert seen == [answer for answer in expect for _ in forms]

    @pytest.mark.parametrize("q", [2**63, 2**64, 2**70])
    @pytest.mark.parametrize("mode", MODES)
    def test_digits_past_int64(self, q, mode):
        # the secret's row is int64 while every digit fits, object dtype past that
        params = SpaceParams(q, 6, 3)
        secret = (q - 1, 0, q // 2, 5, q - 2, 1)
        queries = [secret, (0,) * 6, (q - 1,) * 6, (q - 1, 1, q // 2, 5, 0, 1), (0, 0, q // 2 + 1, 5, q - 2, 1)]
        seen = []
        o = Oracle(secret, params, mode, tap=answers_to(seen))
        for y in queries:
            assert o.query(y) == reference_response(secret, y, params.epsilon, mode)
        assert seen == [reference_response(secret, y, params.epsilon, mode) for y in queries]

    @settings(max_examples=150, deadline=None)
    @given(submissions())
    def test_scan_rows_match_reference(self, case):
        # the same candidates as digit rows and, at q = 2 and n <= 63, as
        # packed words, against the per-query loop and the reference answers
        params, secret, queries, mode = case
        batches = [np.array(queries, dtype=np.int64)]
        if params.q == 2 and params.n <= 63:
            batches.append(np.array([int("".join(map(str, y)), 2) for y in queries], dtype=np.uint64))
        expect = [reference_response(secret, y, params.epsilon, mode) for y in queries]
        for exact in (False, True) if mode.payload is not Payload.NONE else (False,):
            loop_tap = []
            loop = Oracle(secret, params, mode, tap=answers_to(loop_tap))
            hit = _loop_scan(loop, queries, exact)
            assert loop_tap == expect[: loop.query_count]
            for batch in batches:
                seen = []
                o = Oracle(secret, params, mode, tap=answers_to(seen))
                assert o.scan([batch], exact=exact) == hit
                assert o.query_count == loop.query_count
                assert seen == loop_tap


class TestBufferSubmissions:
    @pytest.mark.parametrize("kind", [bytes, bytearray])
    @pytest.mark.parametrize("q", [2, 3, 16, 255])
    def test_malformed_buffers_do_not_count(self, kind, q):
        for payload in Payload:
            o = Oracle((0, 1, 0, 1), SpaceParams(q, 4, 1), always(payload))
            for bad in ([0, 1, 0, q], [q, 1, 0, 1], [255, 1, 0, 1], [0, 1, 0], [0, 1, 0, 1, 0], []):
                with pytest.raises(UsageError):
                    o.query(kind(bad))
            assert o.query_count == 0

    @pytest.mark.parametrize("n", [1, 8, 9, 1024])
    @pytest.mark.parametrize("q", [2, 3, 4, 16, 128, 256, 257])
    def test_digits_outside_the_alphabet_do_not_count(self, q, n):
        # query checks a submission with as_template's one byte check, so
        # both raise the same message; a bad byte at either end of the
        # submission catches a check misaligned there, and at q = 256 every
        # byte is a digit
        params = SpaceParams(q, n, 1)
        secret = tuple(i % q for i in range(n))
        bads = [(0,) * (n - 1), (0,) * (n + 1)]
        for c in {q, 255, -1, 0.5} - set(range(q)):
            bads += [(c,) + (0,) * (n - 1), (0,) * (n - 1) + (c,)]
        top = ((q - 1,) * n, (q - 1,) + (0,) * (n - 1), (0,) * (n - 1) + (q - 1,))

        def forms(t):
            out = [tuple, list, lambda t: (c for c in t)]
            if all(isinstance(c, int) and 0 <= c <= 255 for c in t):
                out += [bytes, bytearray]
            return out

        for payload in Payload:
            o = Oracle(secret, params, always(payload))
            for bad in bads:
                for form in forms(bad):
                    with pytest.raises(UsageError) as expected:
                        as_template(params, form(bad))
                    with pytest.raises(UsageError, match="length" if len(bad) != n else "outside|integers") as raised:
                        o.query(form(bad))
                    assert str(raised.value) == str(expected.value)
            assert o.query_count == 0
            answered = 0
            for y in top:
                for form in forms(y):
                    assert o.query(form(y)) == reference_response(secret, y, params.epsilon, always(payload))
                    answered += 1
            assert o.query_count == answered

    @pytest.mark.parametrize("mode", MODES)
    def test_response_outlives_the_buffer(self, mode):
        # changing the submitted buffer afterwards leaves the answer as it
        # was, and the oracle holds no view that would stop a resize
        params = SpaceParams(4, 6, 3)
        secret = (0, 1, 2, 3, 0, 1)
        o = Oracle(secret, params, mode)
        buf = bytearray([1, 1, 2, 0, 0, 3])
        expect = reference_response(secret, tuple(buf), params.epsilon, mode)
        resp = o.query(buf)
        buf[:] = bytes(secret)
        buf.append(0)
        assert resp == expect
        assert o.query(bytes(secret)) == reference_response(secret, secret, params.epsilon, mode)

    def test_shared_distance_responses_keep_their_accept_bit(self):
        # oracles with different thresholds share distance-only answers, and
        # the accept bit is part of what each one shares
        n = 8
        secret = (0,) * n
        oracles = {eps: Oracle(secret, SpaceParams(2, n, eps), always(Payload.DISTANCE)) for eps in range(n + 1)}
        for d in range(n + 1):
            y = bytearray([1] * d + [0] * (n - d))
            answers = {eps: o.query(y) for eps, o in oracles.items()}
            for eps, resp in answers.items():
                assert resp == MatchResponse(accepted=d <= eps, distance=d)
            assert all(answers[eps] is answers[d] for eps in range(d, n + 1))
        assert Oracle(secret, SpaceParams(2, n, 2), below(Payload.DISTANCE)).query((1,) * n) == MatchResponse(False)

    @pytest.mark.parametrize("payload", [Payload.POSITIONS, Payload.POSITIONS_VALUES])
    @pytest.mark.parametrize("scope", list(Scope))
    def test_large_position_payloads(self, scope, payload, rng):
        params = SpaceParams(16, 1024, 8)
        mode = LeakageMode(scope, payload)
        secret = sample_template(params, rng)
        queries = [secret, (0,) * params.n, (15,) * params.n, sample_template(params, rng)]
        for k in (1, 8, 9, 128, 129, 500):
            queries.append(tuple(perturb(params, secret, rng.choice(params.n, k, replace=False), rng)))
        o = Oracle(secret, params, mode)
        for y in queries:
            expect = reference_response(secret, y, params.epsilon, mode)
            for form in (tuple, bytes, bytearray):
                assert o.query(form(y)) == expect
        assert o.query_count == 3 * len(queries)


def _pinned_centers(params: SpaceParams):
    """The q^(n-eps) templates with the last epsilon coordinates 0, in
    lexicographic order: what fixing_batches chunks."""
    tail = (0,) * params.epsilon
    return (head + tail for head in itertools.product(range(params.q), repeat=params.n - params.epsilon))


def _loop_scan(oracle: Oracle, centers, exact: bool):
    """The per-query loop Oracle.scan replaces: query each center in order
    up to the first acceptance (with exact, the first distance 0), and
    return the first accepted center with its response (with exact, the
    first at the smallest distance), or None."""
    hit = best = None
    for y in centers:
        resp = oracle.query(y)
        if resp.accepted:
            d = resp.distance if resp.distance is not None else len(resp.error_positions or ())
            if hit is None or d < best:
                hit, best = (tuple(y), resp), d
            if not exact or d == 0:
                break
    return hit


def _first_cover(cover, x) -> int:
    """Index of the first center of cover within epsilon of x."""
    eps = cover.params.epsilon
    return next(i for i, c in enumerate(cover.centers) if sum(a != b for a, b in zip(c, x)) <= eps)


class TestScan:
    @pytest.mark.parametrize(
        "q,n,eps",
        [(2, 10, 3), (2, 12, 4), (3, 6, 2), (5, 5, 2), (2, 70, 64), (2, 64, 59)],
    )
    @pytest.mark.parametrize("chunk", [7, covering.SCAN_CHUNK])
    def test_matches_per_query_loop(self, q, n, eps, chunk, rng, monkeypatch):
        monkeypatch.setattr(covering, "SCAN_CHUNK", chunk)  # small chunks cross boundaries
        params = SpaceParams(q, n, eps)
        secrets = [sample_template(params, rng) for _ in range(12)]
        secrets += [(0,) * n, (q - 1,) * n]  # first candidate; the scan's very end
        cases = [(mode, False) for mode in MODES]
        cases += [(mode, True) for mode in MODES if mode.payload is not Payload.NONE]
        for secret in secrets:
            for mode, exact in cases:
                fast_tap, loop_tap = [], []
                fast = Oracle(secret, params, mode, tap=answers_to(fast_tap))
                loop = Oracle(secret, params, mode, tap=answers_to(loop_tap))
                hit = _loop_scan(loop, _pinned_centers(params), exact)
                assert hit is not None and hit[1].accepted
                assert fast.scan(fixing_batches(params), exact=exact) == hit
                assert fast.query_count == loop.query_count  # the same stop index
                assert fast_tap == loop_tap
                untapped = Oracle(secret, params, mode)
                assert untapped.scan(fixing_batches(params), exact=exact) == hit
                assert untapped.query_count == loop.query_count

    @pytest.mark.parametrize("q,n,eps", [(2, 9, 2), (3, 5, 1)])
    @pytest.mark.parametrize("chunk", [7, covering.SCAN_CHUNK])
    def test_cover_search_matches_per_query_loop(self, q, n, eps, chunk, rng, monkeypatch):
        monkeypatch.setattr(covering, "SCAN_CHUNK", chunk)
        params = SpaceParams(q, n, eps)
        cover = covering.greedy_cover(params)
        secrets = [sample_template(params, rng) for _ in range(12)]
        # a point only the last center covers: the scan's very end
        secrets.append(max(itertools.product(range(q), repeat=n), key=lambda x: _first_cover(cover, x)))
        for secret in secrets:
            for mode, exact in [(always(Payload.NONE), False), (below(Payload.DISTANCE), True)]:
                fast_tap, loop_tap = [], []
                fast = Oracle(secret, params, mode, tap=answers_to(fast_tap))
                loop = Oracle(secret, params, mode, tap=answers_to(loop_tap))
                found = covering.covering_search(fast, cover, exact=exact)
                assert found == _loop_scan(loop, cover.centers, exact)
                assert fast.query_count == loop.query_count
                assert fast_tap == loop_tap

    @pytest.mark.parametrize("packed", [False, True])
    def test_exact_tie_across_a_chunk_boundary(self, packed, monkeypatch):
        # rows 6 and 7, the last of the first chunk of 7 and the first of the
        # second, tie at the smallest distance 1: the first of them wins
        monkeypatch.setattr(covering, "SCAN_CHUNK", 7)
        params = SpaceParams(2, 6, 2)
        secret = (1,) * 6
        centers = [(0, 0, 0, 0, 0, 0), (0, 0, 0, 1, 1, 1), (1, 0, 0, 0, 1, 0), (0, 0, 1, 1, 1, 1),
                   (0, 1, 0, 1, 0, 1), (1, 1, 0, 0, 0, 0), (0, 1, 1, 1, 1, 1), (1, 0, 1, 1, 1, 1),
                   (1, 1, 0, 1, 1, 1), (1, 1, 1, 1, 0, 0), (0, 0, 1, 0, 1, 1)]
        rows = np.array(centers, dtype=np.int64)
        if packed:
            rows = np.array([int("".join(map(str, c)), 2) for c in centers], dtype=np.uint64)
        mode = below(Payload.DISTANCE)
        expect = [reference_response(secret, c, params.epsilon, mode) for c in centers]
        for tap in ([], None):
            o = Oracle(secret, params, mode, tap=None if tap is None else answers_to(tap))
            assert o.scan([rows[:7], rows[7:]], exact=True) == (centers[6], expect[6])
            assert o.query_count == len(centers)
            assert tap is None or tap == expect
        cover = covering.Cover(params=params, centers=tuple(centers), certified=True)
        assert covering.covering_search(Oracle(secret, params, mode), cover, exact=True) == (centers[6], expect[6])

    @pytest.mark.parametrize("q,n,eps", [(2, 16, 3), (3, 9, 1)])
    @pytest.mark.parametrize("mode", [below(Payload.DISTANCE), always(Payload.POSITIONS_VALUES)])
    def test_untapped_scan_decodes_one_candidate_per_chunk(self, q, n, eps, mode, rng, monkeypatch):
        # packed words and digit rows, both scopes: without a tap only a
        # chunk's nearest accepted row is decoded and answered in full
        params = SpaceParams(q, n, eps)
        decoded = []
        answers = Oracle._answers
        monkeypatch.setattr(
            Oracle, "_answers", lambda self, batch, dist: decoded.append(len(batch)) or answers(self, batch, dist)
        )
        for secret in [sample_template(params, rng) for _ in range(8)] + [(q - 1,) * n]:
            for exact in (False, True):
                decoded.clear()
                chunks = []
                o = Oracle(secret, params, mode)
                assert o.scan((chunks.append(b) or b for b in fixing_batches(params)), exact=exact)
                assert 1 <= len(decoded) <= len(chunks) and set(decoded) == {1}

    @pytest.mark.parametrize("payload", [Payload.POSITIONS, Payload.POSITIONS_VALUES])
    def test_dense_position_payloads(self, payload, rng):
        # every candidate answered in full at n = 1024: far ones (about 960
        # wrong coordinates), middling ones, and last one coordinate off the
        # secret, where the scan stops
        params = SpaceParams(16, 1024, 8)
        mode = always(payload)
        secret = sample_template(params, rng)
        rows = [sample_template(params, rng), (0,) * params.n, (15,) * params.n]
        for k in (960, 129, 128, 1):
            rows.append(tuple(perturb(params, secret, rng.choice(params.n, k, replace=False), rng)))
        rows.append(secret)
        expect = [reference_response(secret, y, params.epsilon, mode) for y in rows]
        for exact, stop in ((False, len(rows) - 1), (True, len(rows))):
            seen = []
            o = Oracle(secret, params, mode, tap=answers_to(seen))
            assert o.scan([np.array(rows, dtype=np.int64)], exact=exact) == (rows[stop - 1], expect[stop - 1])
            assert o.query_count == stop
            assert seen == expect[:stop]

    def test_kernel_follows_q_and_n(self):
        assert next(fixing_batches(SpaceParams(2, 63, 3))).dtype == np.uint64
        for params in (SpaceParams(2, 64, 3), SpaceParams(2, 1024, 1016), SpaceParams(3, 8, 2)):
            assert next(fixing_batches(params)).ndim == 2  # the digit path

    def test_chunks_stay_small(self):
        batches = fixing_batches(SpaceParams(2, 40, 4))  # 2^36 candidates
        assert len(next(batches)) == 4096
        assert len(next(fixing_batches(SpaceParams(2**40, 2, 1)))) <= 4096  # one coordinate, 2^40 values

    def test_chunks_split_an_alphabet_larger_than_a_chunk(self, monkeypatch):
        monkeypatch.setattr(covering, "SCAN_CHUNK", 7)
        params = SpaceParams(10, 3, 1)
        chunks = list(fixing_batches(params))
        assert all(len(chunk) <= 7 for chunk in chunks)
        assert [tuple(row) for chunk in chunks for row in chunk.tolist()] == list(_pinned_centers(params))

    def test_chunks_at_the_largest_alphabet(self):
        # q = 2**63 passes int64, so the chunk table is built from ints: the
        # first chunks are rows 0.. with the pinned coordinate 0
        q, chunk = 2**63, covering.SCAN_CHUNK
        params = SpaceParams(q, 2, 1)
        batches = fixing_batches(params)
        for lo in (0, chunk):
            assert next(batches).tolist() == [[i, 0] for i in range(lo, lo + chunk)]
        o = Oracle((5000, q - 1), params, below(Payload.POSITIONS))  # in the second chunk
        assert covering.covering_search(o)[0] == (5000, 0)
        assert o.query_count == 5001

    def test_malformed_chunks_do_not_count(self):
        o = Oracle((0, 1, 2, 0), SpaceParams(3, 4, 1), below(Payload.DISTANCE))
        for bad in (
            np.array([1, 2], dtype=np.uint64),  # packed words need q = 2
            np.array([[0, 1, 3, 0]], dtype=np.uint8),  # digit outside the alphabet
            np.array([[0, 1, 2]], dtype=np.uint8),  # wrong length
            np.array([[0.0, 1.0, 2.0, 0.0]]),  # not integers
            [[0, 1, 2, 0]],  # not an array
        ):
            with pytest.raises(UsageError):
                o.scan([bad])
        b = Oracle((0, 1, 1), SpaceParams(2, 3, 1), always(Payload.NONE))
        with pytest.raises(UsageError):
            b.scan([np.array([8], dtype=np.uint64)])  # a bit above n
        with pytest.raises(UsageError):
            b.scan([np.array([0], dtype=np.uint64)], exact=True)  # would leak distance 0
        assert o.query_count == b.query_count == 0


def _loop_climb(params: SpaceParams, secret, mode: LeakageMode, start, cur: int, positions):
    """The per-query distance climb Oracle.climb replaces, every probe
    answered by reference_response: returns the end point and the answers
    in order."""
    y = list(start)
    answers = []
    for pos in positions:
        if cur == 0:
            break
        for v in range(1, params.q):
            y[pos] = v
            resp = reference_response(secret, y, params.epsilon, mode)
            answers.append(resp)
            d = cur + 1 if resp.distance is None else resp.distance
            if d < cur:
                cur = d
                break
            if d > cur:
                y[pos] = 0
                break
    return tuple(y), answers


class TestClimb:
    @pytest.mark.parametrize("q", [2, 3, 4, 16, 256, 257])
    @pytest.mark.parametrize("scope", list(Scope))
    def test_matches_per_query_loop(self, q, scope, rng, monkeypatch):
        # starts that are and are not 0 on the climbed positions, right and
        # wrong starting distances (wrong ones only at small q, where the
        # loop may try every value), distinct, repeated and empty positions,
        # tapped and untapped: both of climb's paths must run, and each must
        # give the loop's result, count and answers
        mode = LeakageMode(scope, Payload.DISTANCE)
        by_query = []
        loop = Oracle._climb_by_query
        monkeypatch.setattr(Oracle, "_climb_by_query", lambda self, *a: by_query.append(1) or loop(self, *a))
        fast = 0
        for _ in range(40 if q <= 16 else 10):
            n = int(rng.integers(1, 10))
            params = SpaceParams(q, n, int(rng.integers(0, n + 1)))
            secret = list(sample_template(params, rng))
            for i in rng.choice(n, int(rng.integers(0, n + 1)), replace=False):
                secret[i] = 0  # zero digits, so that raises arise
            order = rng.permutation(n).tolist()
            for positions in (range(n), order[: int(rng.integers(0, n + 1))], order + order[:2], []):
                climbed = set(positions)
                zero = tuple(0 if i in climbed else int(rng.integers(0, q)) for i in range(n))
                for start in (zero, sample_template(params, rng)):
                    d = sum(a != b for a, b in zip(secret, start))
                    for cur in (d, d - 1, d + 1) if q <= 16 else (d,):
                        expect, answers = _loop_climb(params, secret, mode, start, cur, positions)
                        for tap in ([], None):
                            o = Oracle(secret, params, mode, tap=None if tap is None else answers_to(tap))
                            calls = len(by_query)
                            assert o.climb(start, cur, positions) == expect
                            assert o.query_count == len(answers)
                            assert tap is None or tap == answers
                            fast += len(by_query) == calls
        assert fast and by_query

    def test_malformed_calls_do_not_count(self):
        params = SpaceParams(4, 5, 2)
        seen = []
        o = Oracle((0, 1, 2, 3, 0), params, always(Payload.DISTANCE), tap=answers_to(seen))
        zero = (0,) * 5
        for start, cur, positions in (
            ((0, 0, 0, 0), 3, range(4)),  # wrong length
            ((0, 0, 0, 0, 4), 3, range(5)),  # a digit outside the alphabet
            ((0, 0, 0, 0, 0.5), 3, range(5)),  # not an integer
            (zero, 3.0, range(5)),
            (zero, None, range(5)),
            (zero, 3, [0, 5]),  # a position outside [0, n)
            (zero, 3, [-1]),
            (zero, 3, range(-1, 2)),
            (zero, 3, [0.0]),
            (zero, 3, [True]),
            (zero, 3, [[0, 1]]),
            (zero, 3, [[]]),
        ):
            with pytest.raises(UsageError):
                o.climb(start, cur, positions)
        assert o.query_count == 0 and seen == []
        for mode in MODES:
            if mode.payload is not Payload.DISTANCE:
                other = Oracle((0, 1, 2, 3, 0), params, mode)
                with pytest.raises(UsageError, match="distance payload"):
                    other.climb(zero, 3, range(5))
                assert other.query_count == 0


class TestIntegerInput:
    @pytest.mark.parametrize("params", [SpaceParams(2, 4, 1), SpaceParams(3, 4, 1), SpaceParams(300, 4, 1)])
    def test_non_integers_rejected_before_counting(self, params):
        o = Oracle((0, 1, 0, 1), params, always(Payload.DISTANCE))
        for bad in (
            (0.5, 1, 0, 1),
            (0.0, 1, 0, 1),
            (Fraction(1, 2), 1, 0, 1),
            ("0", 1, 0, 1),
            (None, 1, 0, 1),
            (-1, 1, 0, 1),
            (params.q, 1, 0, 1),
            np.array([0.5, 1, 0, 1]),
            np.array([0.0, 1.0, 0.0, 1.0]),
        ):
            with pytest.raises(UsageError):
                o.query(bad)
        assert o.query_count == 0

    def test_integer_likes_accepted(self):
        o = Oracle((0, 1, 0, 1), SpaceParams(2, 4, 1), always(Payload.DISTANCE))
        for y in (
            (True, True, False, 1),
            [np.int64(1), np.uint8(1), 0, 1],
            np.array([1, 1, 0, 1]),  # converted element-wise, not read as a raw buffer
            np.array([1, 1, 0, 1], dtype=np.uint8),
            array("i", [1, 1, 0, 1]),
        ):
            assert o.query(y) == MatchResponse(accepted=True, distance=1)
        assert o.query_count == 5
