import math
import operator
from array import array
from fractions import Fraction

import numpy as np
import pytest

from matchleak.errors import UsageError
from matchleak.space import (
    SpaceParams,
    as_template,
    ball_volume,
    hamming_distance,
    harmonic_number_exact,
    q_ary_entropy,
    sample_template,
    template_from_index,
    template_index,
    unpack_words,
)

from conftest import ball_templates, brute_ball_count, enumerate_templates, sample_at_distance


class TestParams:
    def test_validation(self):
        SpaceParams(2, 1, 0)
        SpaceParams(6, 64, 64)
        for bad in [(1, 3, 1), (2, 0, 0), (2, 3, -1), (2, 3, 4)]:
            with pytest.raises(UsageError):
                SpaceParams(*bad)

    def test_space_size(self):
        assert SpaceParams(4, 5, 0).space_size() == 1024


class TestAsTemplate:
    P = SpaceParams(3, 3, 1)

    def test_integer_likes_pass(self):
        for coords in [(0, 1, 2), [True, False, 2], (np.int64(2), np.uint8(1), np.int8(0)), np.array([2, 0, 1])]:
            t = as_template(self.P, coords)
            assert t == tuple(int(c) for c in coords)
            assert all(type(c) is int for c in t)

    def test_non_integers_rejected(self):
        for coords in [(0, 1.0, 2), (0, 0.5, 2), (Fraction(1), 0, 0), (np.float64(1), 0, 0), ("1", 0, 0),
                       np.array([0.0, 1.0, 2.0])]:
            with pytest.raises(UsageError, match="must be integers"):
                as_template(self.P, coords)

    def test_length_and_range(self):
        for coords in [(0, 1), (0, 1, 2, 0), (0, 1, 3), (-1, 0, 0)]:
            with pytest.raises(UsageError):
                as_template(self.P, coords)

    def test_iterator_names_the_non_integer(self):
        # the first pass must not spend the iterator before the culprit is named
        for params in (SpaceParams(2, 2, 1), SpaceParams(300, 2, 1)):
            with pytest.raises(UsageError, match="got 0.5"):
                as_template(params, (x for x in (0, 0.5)))
        assert as_template(SpaceParams(2, 2, 1), (x for x in (1, 0))) == (1, 0)


def per_coordinate_as_template(params: SpaceParams, coords) -> tuple[int, ...]:
    """as_template checked one coordinate at a time, with no byte path: the
    reference its byte check must agree with.  The input is listed first,
    so an iterator is searched for its culprit too."""
    coords = list(coords)
    try:
        t = tuple(map(operator.index, coords))
    except TypeError:
        for c in coords:
            try:
                operator.index(c)
            except TypeError:
                raise UsageError(f"template coordinates must be integers, got {c!r}") from None
        raise
    if len(t) != params.n:
        raise UsageError(f"template has length {len(t)}, expected n={params.n}")
    if min(t) < 0 or max(t) >= params.q:
        bad = next(c for c in t if not 0 <= c < params.q)
        raise UsageError(f"coordinate {bad} outside [0, {params.q - 1}]")
    return t


def _outcome(fn, params, coords):
    """fn's result, or the text of the UsageError it raised."""
    try:
        return fn(params, coords)
    except UsageError as exc:
        return f"UsageError: {exc}"


class TestAsTemplateBytes:
    @pytest.mark.parametrize("q", [2, 16, 256, 257])
    def test_matches_per_coordinate_reference(self, q):
        # each input is built afresh for each of the two calls, since one
        # form is a generator; ndarrays and array.array must be read per
        # coordinate, never as their raw buffers
        params = SpaceParams(q, 4, 1)
        rows = [
            (0, 1, 0, 1), (q - 1, 0, 1, q - 1), (True, True, False, 1), (np.True_, 1, 0, 1),
            (np.int64(1), np.uint8(1), 0, 1), (np.int8(-1), 0, 0, 0), (np.uint16(q), 0, 0, 0),
            (0.5, 1, 0, 1), (0.0, 1, 0, 1), (np.float64(1), 0, 0, 0), (Fraction(1, 2), 1, 0, 1),
            ("0", 1, 0, 1), (None, 1, 0, 1), (-1, 1, 0, 1), (q, 1, 0, 1), (255, 1, 0, 1), (256, 1, 0, 1),
            (2**70, 1, 0, 1), (0, 1, 0), (0, 1, 0, 1, 0), (0, 1, 0.5), (-1, 0, 0), (q, 0, 0, 0, 0),
        ]
        forms = [tuple, list, iter, lambda r: np.array(r, dtype=object)]
        makers = [lambda r=r, form=form: form(r) for r in rows for form in forms]
        others = [
            np.array([1, 1, 0, 1]), np.array([1, 1, 0, 1], dtype=np.uint8), np.array([0.5, 1, 0, 1]),
            np.array([0.0, 1.0, 0.0, 1.0]), np.array([257, 1, 0, 1]), np.array([1, 1, 0], dtype=np.uint8),
            array("i", [1, 1, 0, 1]), array("B", [1, 1, 0, 1]), array("i", [256, 0, 0, 1]), "0101", "01",
            bytes([0, 1, 0, 1]), bytes([255, 0, 0, 0]), bytes([0, 1, 0]), bytes([min(q, 256) - 1, 0, 0, 1]),
            bytearray([0, 1, 0, 1]), bytearray([255, 0, 0, 0]), bytearray([0, 1, 0, 1, 1]),
        ]
        makers += [lambda c=c: c for c in others]
        for make in makers:
            expect = _outcome(per_coordinate_as_template, params, make())
            got = _outcome(as_template, params, make())
            assert got == expect, make()
            if isinstance(got, tuple):
                assert all(type(c) is int for c in got)


class TestHammingDistance:
    def test_worked_example(self):
        # session vector three errors away from the enrolled template
        assert hamming_distance((0, 0, 1, 1, 0, 1, 0), (1, 1, 0, 1, 0, 1, 0)) == 3

    def test_identity(self):
        assert hamming_distance((0, 1, 3, 2, 2), (0, 1, 3, 2, 2)) == 0

    def test_quaternary_example(self):
        assert hamming_distance((0, 1, 3, 2, 2), (0, 0, 0, 0, 0)) == 4

    def test_dimension_mismatch(self):
        with pytest.raises(UsageError):
            hamming_distance((0, 1), (0, 1, 2))

    def test_metric_axioms_on_random_triples(self, rng):
        params = SpaceParams(4, 9, 2)
        for _ in range(300):
            x = sample_template(params, rng)
            y = sample_template(params, rng)
            z = sample_template(params, rng)
            assert hamming_distance(x, y) >= 0
            assert hamming_distance(x, y) == hamming_distance(y, x)
            assert hamming_distance(x, z) <= hamming_distance(x, y) + hamming_distance(y, z)
            assert (hamming_distance(x, y) == 0) == (x == y)


class TestBallVolume:
    def test_small_binary(self):
        # 8 vectors, 4 within distance 1 of the origin (enumerated)
        params = SpaceParams(2, 3, 1)
        assert ball_volume(params) == 4
        assert ball_volume(params) == brute_ball_count(params, (0, 0, 0))

    def test_radius_zero(self):
        assert ball_volume(SpaceParams(2, 5, 0)) == 1

    def test_whole_space(self):
        assert ball_volume(SpaceParams(4, 5, 5)) == 1024

    def test_matches_enumeration_small_grid(self):
        for q, n in [(2, 6), (3, 4), (4, 3)]:
            for eps in range(n + 1):
                params = SpaceParams(q, n, eps)
                assert ball_volume(params) == brute_ball_count(params, (0,) * n)

    def test_center_invariance(self, rng):
        params = SpaceParams(3, 4, 2)
        center = sample_template(params, rng)
        assert ball_volume(params) == brute_ball_count(params, center)

    def test_monotone_in_radius(self):
        for q, n in [(2, 12), (5, 6)]:
            vols = [ball_volume(SpaceParams(q, n, e)) for e in range(n + 1)]
            assert vols == sorted(vols)
            assert vols[-1] == q**n

    def test_exact_at_large_n(self):
        # far beyond 64-bit range; spot value via independent Fraction arithmetic
        params = SpaceParams(4, 200, 3)
        expected = (
            1 + 200 * 3 + math.comb(200, 2) * 9 + math.comb(200, 3) * 27
        )
        assert ball_volume(params) == expected
        assert ball_volume(SpaceParams(2, 500, 500)) == 2**500

    def test_entropy_upper_bound(self):
        # vol <= q**(n*h_q(eps/n)) whenever eps/n <= 1 - 1/q
        for q in (2, 4):
            for n in range(1, 21):
                for eps in range(n + 1):
                    if eps / n > 1 - 1 / q:
                        continue
                    params = SpaceParams(q, n, eps)
                    lhs = math.log(ball_volume(params), q)
                    assert lhs <= n * q_ary_entropy(q, eps / n) + 1e-9


class TestEntropy:
    def test_binary_maximum(self):
        assert q_ary_entropy(2, 0.5) == pytest.approx(1.0)

    def test_zero_convention(self):
        assert q_ary_entropy(2, 0.0) == 0.0
        assert q_ary_entropy(7, 0.0) == 0.0

    def test_one_convention(self):
        assert q_ary_entropy(4, 1.0) == pytest.approx(math.log(3, 4))
        assert q_ary_entropy(2, 1.0) == 0.0

    def test_quaternary_peak(self):
        # r = 1 - 1/q maximizes h_q at exactly 1
        assert q_ary_entropy(4, 0.75) == pytest.approx(1.0, abs=1e-12)

    def test_maximum_and_concavity_grid(self):
        for q in (2, 3, 5):
            peak = 1 - 1 / q
            assert q_ary_entropy(q, peak) == pytest.approx(1.0, abs=1e-12)
            rs = np.linspace(0.001, peak, 41)
            hs = [q_ary_entropy(q, r) for r in rs]
            assert all(h <= 1.0 + 1e-12 for h in hs)
            # midpoint concavity on the rising stretch
            for a, b in zip(rs[:-2:2], rs[2::2]):
                mid = q_ary_entropy(q, (a + b) / 2)
                assert mid >= (q_ary_entropy(q, a) + q_ary_entropy(q, b)) / 2 - 1e-12

    def test_domain(self):
        with pytest.raises(UsageError):
            q_ary_entropy(2, 1.5)


class TestHarmonic:
    def test_first(self):
        assert harmonic_number_exact(1) == 1

    def test_fourth_by_summation(self):
        assert harmonic_number_exact(4) == Fraction(25, 12)

    def test_matches_the_direct_sum(self):
        for n in [*range(1, 301), 4000]:
            assert harmonic_number_exact(n) == sum((Fraction(1, i) for i in range(1, n + 1)), Fraction(0))

    def test_log_bound(self):
        # exact at small n; the float sums below reach a million
        for n in [1, 2, 10, 1000]:
            assert harmonic_number_exact(n) <= math.log(n) + 1

    def test_log_bound_every_n_up_to_a_million(self):
        # vectorized float sums, independent of harmonic_number_exact's code path
        ns = np.arange(1, 10**6 + 1, dtype=np.float64)
        partial = np.cumsum(1.0 / ns)
        assert np.all(partial <= np.log(ns) + 1)


class TestIndexing:
    def test_roundtrip_lexicographic(self):
        params = SpaceParams(3, 4, 1)
        seen = []
        for idx, t in enumerate(enumerate_templates(params)):
            assert template_index(params, t) == idx
            assert template_from_index(params, idx) == t
            seen.append(t)
        assert seen == sorted(seen)
        assert len(seen) == 81

    @pytest.mark.parametrize("n", [1, 5, 20, 63])
    def test_unpacked_words_are_their_templates(self, n, rng):
        # the vectorised decoder against the divmod loop, ends included
        params = SpaceParams(2, n, 0)
        words = [0, (1 << n) - 1, *rng.integers(0, 1 << n, size=50, dtype=np.uint64).tolist()]
        rows = unpack_words(n, np.array(words, dtype=np.uint64))
        assert rows.dtype == np.uint8 and rows.shape == (len(words), n)
        assert [tuple(r) for r in rows.tolist()] == [template_from_index(params, w) for w in words]
        assert unpack_words(n, np.array([], dtype=np.uint64)).shape == (0, n)

    def test_ball_enumeration_matches_distance_filter(self):
        params = SpaceParams(3, 4, 2)
        center = (0, 2, 1, 1)
        members = set(ball_templates(params, center))
        expected = {
            t
            for t in enumerate_templates(params)
            if hamming_distance(t, center) <= params.epsilon
        }
        assert members == expected
        assert len(members) == ball_volume(params)


class TestSampling:
    def test_deterministic_for_fixed_seed(self):
        params = SpaceParams(4, 16, 2)
        a = sample_template(params, np.random.default_rng(99))
        b = sample_template(params, np.random.default_rng(99))
        assert a == b

    def test_range(self, rng):
        params = SpaceParams(4, 5, 1)
        for _ in range(200):
            t = sample_template(params, rng)
            assert all(0 <= v <= 3 for v in t)

    def test_uniform_coordinate_mean(self, rng):
        params = SpaceParams(2, 1000, 0)
        means = [sum(sample_template(params, rng)) / 1000 for _ in range(50)]
        assert abs(sum(means) / len(means) - 0.5) < 0.05

    def test_distance_sampler_zero(self, rng):
        params = SpaceParams(5, 8, 0)
        x = sample_template(params, rng)
        assert sample_at_distance(params, x, 0, rng) == x

    def test_distance_sampler_exact(self, rng):
        params = SpaceParams(4, 9, 3)
        for _ in range(200):
            x = sample_template(params, rng)
            k = int(rng.integers(0, 10))
            y = sample_at_distance(params, x, k, rng)
            assert hamming_distance(x, y) == k

    def test_distance_sampler_range_check(self, rng):
        params = SpaceParams(2, 4, 1)
        with pytest.raises(UsageError):
            sample_at_distance(params, (0, 0, 0, 0), 5, rng)

    def test_distance_sampler_hits_known_neighbor(self, rng):
        # at distance 3 from the worked 7-bit template, one valid outcome
        # is the session vector from the distance example
        params = SpaceParams(2, 7, 3)
        x = (0, 0, 1, 1, 0, 1, 0)
        outcomes = {sample_at_distance(params, x, 3, rng) for _ in range(3000)}
        assert (1, 1, 0, 1, 0, 1, 0) in outcomes
        assert all(hamming_distance(x, y) == 3 for y in outcomes)
