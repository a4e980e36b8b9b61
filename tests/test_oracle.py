import itertools
from array import array
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchleak import (
    CapacityError,
    ClientModel,
    LeakageMode,
    MatchResponse,
    Observation,
    Oracle,
    Payload,
    Scope,
    SessionShape,
    SpaceParams,
    UsageError,
    accumulation_collect,
    collect_observations,
    observation_from_json,
    observation_to_json,
    response_from_json,
    response_to_json,
    sample_template,
)
from matchleak import covering
from matchleak import oracle as oracle_module
from matchleak.covering import fixing_batches, fixing_centers

from conftest import perturb

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
    """watch against a genuine_session loop folded by collect_observations,
    the per-session path it replaces."""

    MODE = below(Payload.POSITIONS_VALUES)

    @staticmethod
    def _start(seed: int) -> np.random.Generator:
        """A generator at a seed-dependent state; odd seeds hold a cached
        32-bit half-word, which a block draw must leave in place."""
        rng = np.random.default_rng(seed)
        rng.integers(0, 2**31, size=seed % 3)
        return rng

    def _pair(self, client, seed):
        """Two oracles over one secret, each with its own tap and generator."""
        params = SpaceParams(2, len(client.error_probs), 3)
        secret = sample_template(params, np.random.default_rng(seed + 1000))
        sides = []
        for _ in range(2):
            taps = []
            sides.append((Oracle(secret, params, self.MODE, on_observation=taps.append), taps, self._start(seed)))
        return params, sides

    @staticmethod
    def _loop(params, oracle, client, rng, target, max_sessions=None):
        """The reference: one genuine_session per session, capped as
        accumulation_collect caps them."""

        def sessions():
            for done in itertools.count():
                if max_sessions is not None and done >= max_sessions:
                    raise CapacityError(f"collection incomplete after {done} sessions")
                yield oracle.genuine_session(client, rng)

        return collect_observations(params, sessions(), client.collection_target(target))

    @staticmethod
    def _targets(client):
        live = client.variable_positions()
        return [None, {live[0], live[-1]}]

    @pytest.mark.parametrize("name", sorted(SAMPLER_CLIENTS))
    def test_matches_session_loop(self, name):
        client = SAMPLER_CLIENTS[name]
        for target in self._targets(client):
            for seed in range(60):
                params, ((o, taps, rng), (ref, ref_taps, ref_rng)) = self._pair(client, seed)
                _, used = self._loop(params, ref, client, ref_rng, target)
                positions, values = map(np.concatenate, zip(*o.watch(client, rng, target)))
                assert len(positions) == used == o.session_count == ref.session_count
                assert taps == ref_taps
                assert [{p: v} for p, v in zip(positions.tolist(), values.tolist())] == [
                    obs.errors for obs in ref_taps
                ]
                assert rng.bit_generator.state == ref_rng.bit_generator.state
                assert o.query_count == 0

    @pytest.mark.parametrize("name", sorted(SAMPLER_CLIENTS))
    def test_accumulation_matches_session_loop(self, name):
        client = SAMPLER_CLIENTS[name]
        for target in self._targets(client):
            for seed in range(60):
                params, ((o, taps, rng), (ref, ref_taps, ref_rng)) = self._pair(client, seed)
                partial, used = self._loop(params, ref, client, ref_rng, target)
                out = accumulation_collect(o, client, rng, target)
                assert out.recovered == partial
                assert out.sessions_used == used == o.session_count == ref.session_count
                assert taps == ref_taps
                assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("name", sorted(SAMPLER_CLIENTS))
    def test_session_cap(self, name):
        client = SAMPLER_CLIENTS[name]
        for seed in range(30):
            params, ((o, _, rng), _) = self._pair(client, seed)
            used = accumulation_collect(o, client, rng).sessions_used
            # one short of the stop: every capped session is counted, tapped
            # and drawn, then the cap raises as the loop's does
            params, ((o, taps, rng), (ref, ref_taps, ref_rng)) = self._pair(client, seed)
            with pytest.raises(CapacityError) as want:
                self._loop(params, ref, client, ref_rng, None, used - 1)
            with pytest.raises(CapacityError) as got:
                accumulation_collect(o, client, rng, max_sessions=used - 1)
            assert str(got.value) == str(want.value) == f"collection incomplete after {used - 1} sessions"
            assert o.session_count == ref.session_count == used - 1
            assert taps == ref_taps
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            # a cap at the stop itself is never reached
            params, ((o, taps, rng), (ref, ref_taps, ref_rng)) = self._pair(client, seed)
            partial, _ = self._loop(params, ref, client, ref_rng, None, used)
            out = accumulation_collect(o, client, rng, max_sessions=used)
            assert (out.recovered, out.sessions_used) == (partial, used)
            assert taps == ref_taps
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_capped_chunks_match_session_loop(self, monkeypatch):
        # chunks capped at their first size, 64 sessions, so every chunk is
        # capped; the rare coordinate errs with chance 1/4096
        monkeypatch.setattr(oracle_module, "_WATCH_MAX_CHUNK", 64)
        client = ClientModel.rare_first(16, 3.0)
        for seed in range(12):
            params, ((o, taps, rng), (ref, ref_taps, ref_rng)) = self._pair(client, seed)
            partial, used = self._loop(params, ref, client, ref_rng, None)
            out = accumulation_collect(o, client, rng)
            assert used > 3 * 64
            assert (out.recovered, out.sessions_used) == (partial, used)
            assert o.session_count == ref.session_count == used
            assert taps == ref_taps
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            # a cap inside a capped chunk: the same sessions, then the same error
            cap = used - 100
            params, ((o, taps, rng), (ref, ref_taps, ref_rng)) = self._pair(client, seed)
            with pytest.raises(CapacityError) as want:
                self._loop(params, ref, client, ref_rng, None, cap)
            sizes = []
            with pytest.raises(CapacityError) as got:
                for positions, _ in o.watch(client, rng, max_sessions=cap):
                    sizes.append(len(positions))
            assert str(got.value) == str(want.value)
            assert max(sizes) == 64 and sum(sizes) == cap == o.session_count == ref.session_count
            assert taps == ref_taps
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_chunks_stop_doubling_at_the_cap(self, rng):
        # coordinate 1 errs with chance 16**-6, so 200,000 sessions leave it
        # unseen: the chunks double from 64 to 2**16, then stay there
        o = Oracle(sample_template(SpaceParams(2, 16, 3), rng), SpaceParams(2, 16, 3), self.MODE)
        sizes = []
        with pytest.raises(CapacityError, match="after 200000 sessions"):
            for positions, values in o.watch(ClientModel.rare_first(16, 6.0), rng, max_sessions=200_000):
                sizes.append(len(positions))
                assert len(values) == len(positions)
        assert sizes == [64 << i for i in range(11)] + [65536, 3456]
        assert o.session_count == 200_000

    def test_rejects_what_it_cannot_answer(self, rng):
        single = ClientModel.uniform(7)
        posvalues = below(Payload.POSITIONS_VALUES)
        cases = [
            (Oracle(SECRET7, P7, posvalues), ClientModel.uniform(7, SessionShape.MULTI_ERROR), "single-error"),
            (Oracle((0, 1, 2, 0, 1, 2, 0), SpaceParams(3, 7, 3), posvalues), single, "q = 2"),
            (Oracle(SECRET7, P7, below(Payload.POSITIONS)), single, r"positions\+values payload"),
            (Oracle(SECRET7, SpaceParams(2, 7, 0), posvalues), single, "epsilon >= 1"),
            (Oracle(SECRET7, P7, posvalues), ClientModel.uniform(6), "has 6 coordinates"),
        ]
        for o, client, message in cases:
            state = rng.bit_generator.state
            with pytest.raises(UsageError, match=message):
                o.watch(client, rng)
            assert o.session_count == 0 and rng.bit_generator.state == state
        o = Oracle(SECRET7, P7, below(Payload.POSITIONS_VALUES))
        for target in (set(), {8}):
            with pytest.raises(UsageError):
                o.watch(ClientModel((0.0,) + (1 / 6,) * 6), rng, target)
        with pytest.raises(UsageError, match=r"\[1\] never err"):
            o.watch(ClientModel((0.0,) + (1 / 6,) * 6), rng, {1, 2})


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
        o = Oracle(SECRET7, P7, below(Payload.DISTANCE), on_response=seen.append)
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
    """A space (half of them binary; q = 300 takes the path past one byte
    per digit), a secret, and queries near it as well as uniform ones, so
    that both answers arise."""
    q = draw(st.sampled_from([2, 2, 2, 3, 5, 300]))
    n = draw(st.integers(1, 256))
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
        o = Oracle(secret, params, mode, on_response=seen.append)
        for k, y in enumerate(queries, 1):
            expect = reference_response(secret, y, params.epsilon, mode)
            for form in forms:
                assert o.query(form(y)) == expect
            assert o.query_count == len(forms) * k
        assert seen == [reference_response(secret, y, params.epsilon, mode) for y in queries for _ in forms]

    @settings(max_examples=150, deadline=None)
    @given(submissions())
    def test_scan_rows_match_reference(self, case):
        # the same candidates as digit rows and, at q = 2 and n <= 63, as packed words
        params, secret, queries, mode = case
        batches = [np.array(queries, dtype=np.int64)]
        if params.q == 2 and params.n <= 63:
            batches.append(np.array([int("".join(map(str, y)), 2) for y in queries], dtype=np.uint64))
        expect = [reference_response(secret, y, params.epsilon, mode) for y in queries]
        stop = next((i + 1 for i, r in enumerate(expect) if r.accepted), len(expect))
        for batch in batches:
            seen = []
            o = Oracle(secret, params, mode, on_response=seen.append)
            found = list(o.scan([batch]))
            assert o.query_count == stop
            assert seen == expect[:stop]
            assert found == [(queries[i], expect[i]) for i in range(stop) if expect[i] != MatchResponse(False)]


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
        for k in (1, 8, 9, 500):
            queries.append(tuple(perturb(params, secret, rng.choice(params.n, k, replace=False), rng)))
        o = Oracle(secret, params, mode)
        for y in queries:
            expect = reference_response(secret, y, params.epsilon, mode)
            for form in (tuple, bytes, bytearray):
                assert o.query(form(y)) == expect
        assert o.query_count == 3 * len(queries)


def _loop_scan(oracle: Oracle, centers, exact: bool) -> None:
    """The per-query loop Oracle.scan replaces: query each center in order
    up to the first acceptance (with exact, the first distance 0)."""
    for y in centers:
        resp = oracle.query(y)
        if resp.accepted and (not exact or resp.distance == 0):
            return


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
        cases = [(LeakageMode(Scope.BELOW_ONLY, p), False) for p in Payload]
        cases += [(LeakageMode(Scope.ALWAYS, Payload.POSITIONS), False)]
        cases += [(LeakageMode(Scope.BELOW_ONLY, p), True) for p in (Payload.DISTANCE, Payload.POSITIONS_VALUES)]
        for secret in secrets:
            for mode, exact in cases:
                fast_tap, loop_tap = [], []
                fast = Oracle(secret, params, mode, on_response=fast_tap.append)
                loop = Oracle(secret, params, mode, on_response=loop_tap.append)
                found = list(fast.scan(fixing_batches(params), stop_at_exact=exact))
                _loop_scan(loop, fixing_centers(params), exact)
                assert fast.query_count == loop.query_count  # the same stop index
                assert fast_tap == loop_tap
                centers = itertools.islice(fixing_centers(params), loop.query_count)
                assert found == [(y, r) for y, r in zip(centers, loop_tap) if r != MatchResponse(False)]

    def test_kernel_follows_q_and_n(self):
        assert next(fixing_batches(SpaceParams(2, 63, 3))).dtype == np.uint64
        for params in (SpaceParams(2, 64, 3), SpaceParams(2, 1024, 1016), SpaceParams(3, 8, 2)):
            assert next(fixing_batches(params)).ndim == 2  # the digit path

    def test_chunks_stay_small(self):
        batches = fixing_batches(SpaceParams(2, 40, 4))  # 2^36 candidates
        assert len(next(batches)) == 4096

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
                list(o.scan([bad]))
        b = Oracle((0, 1, 1), SpaceParams(2, 3, 1), always(Payload.NONE))
        with pytest.raises(UsageError):
            list(b.scan([np.array([8], dtype=np.uint64)]))  # a bit above n
        with pytest.raises(UsageError):
            list(b.scan([np.array([0], dtype=np.uint64)], stop_at_exact=True))  # would leak distance 0
        assert o.query_count == b.query_count == 0


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
