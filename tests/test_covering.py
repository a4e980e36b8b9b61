import itertools
import math

import numpy as np
import pytest

from matchleak.bounds import greedy_cover_bound
from matchleak.covering import (
    Cover,
    _BallIndex,
    coordinate_fixing_cover,
    covering_search,
    exact_min_cover_size,
    greedy_cover,
    load_cover,
    save_cover,
    verify_cover,
)
from matchleak.errors import CapacityError, UsageError
from matchleak.oracle import LeakageMode, Oracle, Payload, Scope
from matchleak.space import (
    SpaceParams,
    ball_volume,
    hamming_distance,
    sample_template,
    template_from_index,
    template_index,
)

from conftest import ball_templates


def covers_all(cover: Cover) -> bool:
    """Independent certification: pure-Python distance scan."""
    params = cover.params
    for point in itertools.product(range(params.q), repeat=params.n):
        if all(hamming_distance(point, c) > params.epsilon for c in cover.centers):
            return False
    return True


class TestCoordinateFixing:
    def test_binary_example(self):
        cover = coordinate_fixing_cover(SpaceParams(2, 3, 1))
        assert sorted(cover.centers) == [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)]
        assert cover.certified and covers_all(cover)

    def test_whole_space_single_center(self):
        cover = coordinate_fixing_cover(SpaceParams(3, 4, 4))
        assert cover.centers == ((0, 0, 0, 0),)

    def test_zero_radius_is_everything(self):
        cover = coordinate_fixing_cover(SpaceParams(2, 4, 0))
        assert len(cover) == 16 and covers_all(cover)

    def test_guard(self):
        with pytest.raises(CapacityError):
            coordinate_fixing_cover(SpaceParams(2, 30, 1))


class TestGreedy:
    def test_tiny_perfect_cover(self):
        cover = greedy_cover(SpaceParams(2, 3, 1))
        assert len(cover) == 2
        assert cover.centers == ((0, 0, 0), (1, 1, 1))
        assert covers_all(cover)

    def test_whole_space_single_center(self):
        assert len(greedy_cover(SpaceParams(4, 3, 3))) == 1

    def test_seven_bit_radius_one(self):
        # the harmonic guarantee allows 41; the greedy actually matches the
        # perfect-code optimum here
        params = SpaceParams(2, 7, 1)
        cover = greedy_cover(params)
        assert len(cover) <= math.floor(greedy_cover_bound(params))
        assert len(cover) == 16
        assert covers_all(cover)

    @pytest.mark.parametrize(
        "q,n,eps",
        [(2, 6, 1), (2, 8, 2), (2, 10, 2), (3, 5, 1), (4, 4, 1), (3, 6, 2)],
    )
    def test_certified_and_within_guarantee(self, q, n, eps):
        params = SpaceParams(q, n, eps)
        cover = greedy_cover(params)
        assert cover.certified
        assert verify_cover(cover)
        assert len(cover) <= greedy_cover_bound(params)

    def test_guard(self):
        with pytest.raises(CapacityError):
            greedy_cover(SpaceParams(2, 26, 2))

    def test_deterministic(self):
        a = greedy_cover(SpaceParams(3, 4, 1))
        b = greedy_cover(SpaceParams(3, 4, 1))
        assert a.centers == b.centers

    @pytest.mark.parametrize(
        "q,n,eps",
        [(2, 5, 0), (2, 6, 2), (2, 4, 4), (3, 4, 0), (3, 4, 2), (3, 3, 3), (4, 3, 0), (4, 3, 1), (4, 3, 3)],
    )
    def test_ball_index_matches_brute_force_balls(self, q, n, eps):
        params = SpaceParams(q, n, eps)
        ids = np.arange(params.space_size())
        balls = _BallIndex(params).balls(ids)
        assert balls.shape == (len(ids), ball_volume(params))
        for point, row in zip(ids, balls):
            center = template_from_index(params, int(point))
            expected = {template_index(params, t) for t in ball_templates(params, center)}
            assert row[0] == point
            assert len(set(row.tolist())) == len(row)
            assert set(row.tolist()) == expected


class TestVerifyCover:
    @pytest.mark.parametrize(
        "center,message",
        [((0, 1, 5), "coordinate 5 outside"), ((0, 1, -1), "coordinate -1 outside"), ((0, 1), "length 2")],
    )
    def test_rejects_malformed_center(self, center, message):
        # (0, 1, 5) would alias (1, 1, 1) in the index encoding
        cover = Cover(SpaceParams(2, 3, 1), ((0, 0, 0), center), False)
        with pytest.raises(UsageError, match=message):
            verify_cover(cover)


class TestExactCover:
    def test_known_small_values(self):
        assert exact_min_cover_size(SpaceParams(2, 3, 1)) == 2
        assert exact_min_cover_size(SpaceParams(2, 2, 1)) == 2
        assert exact_min_cover_size(SpaceParams(2, 4, 4)) == 1

    def test_binary_radius_one_optima(self):
        # covering-code optima for radius 1: 4 at n=4, 7 at n=5
        assert exact_min_cover_size(SpaceParams(2, 4, 1)) == 4
        assert exact_min_cover_size(SpaceParams(2, 5, 1)) == 7

    def test_antipodal_pair(self):
        assert exact_min_cover_size(SpaceParams(2, 5, 2)) == 2

    def test_volume_lower_bound(self):
        for q, n, eps in [(2, 4, 1), (2, 5, 2), (3, 3, 1), (4, 2, 1)]:
            params = SpaceParams(q, n, eps)
            lower = -(-params.space_size() // ball_volume(params))
            assert exact_min_cover_size(params) >= lower

    def test_sandwich(self):
        for q, n, eps in [(2, 3, 1), (2, 4, 1), (2, 4, 2), (2, 5, 2), (3, 3, 1), (4, 2, 1)]:
            params = SpaceParams(q, n, eps)
            exact = exact_min_cover_size(params)
            greedy = len(greedy_cover(params))
            fixing = len(coordinate_fixing_cover(params))
            assert exact <= greedy <= fixing

    def test_guard(self):
        with pytest.raises(CapacityError):
            exact_min_cover_size(SpaceParams(2, 13, 1))


class TestCoveringSearch:
    def test_secret_at_center_rank(self):
        params = SpaceParams(2, 4, 0)
        cover = coordinate_fixing_cover(params)
        secret = cover.centers[5]
        oracle = Oracle(secret, params, LeakageMode(Scope.ALWAYS, Payload.NONE))
        found, resp = covering_search(oracle, cover)
        assert found == secret and resp.accepted and oracle.query_count == 6

    def test_acceptance_guaranteed(self, rng):
        params = SpaceParams(2, 8, 2)
        cover = greedy_cover(params)
        for _ in range(50):
            secret = sample_template(params, rng)
            oracle = Oracle(secret, params, LeakageMode(Scope.ALWAYS, Payload.NONE))
            found, resp = covering_search(oracle, cover)
            assert resp.accepted and hamming_distance(found, secret) <= 2
            assert oracle.query_count <= len(cover)
            assert len(cover) <= greedy_cover_bound(params)

    def test_uncertified_cover_rejected(self):
        params = SpaceParams(2, 3, 1)
        cover = Cover(params=params, centers=((0, 0, 0),), certified=False)
        oracle = Oracle((1, 1, 1), params, LeakageMode(Scope.ALWAYS, Payload.NONE))
        with pytest.raises(UsageError):
            covering_search(oracle, cover)

    def test_params_mismatch_rejected(self):
        cover = coordinate_fixing_cover(SpaceParams(2, 3, 1))
        oracle = Oracle((0, 0, 0, 0), SpaceParams(2, 4, 1), LeakageMode(Scope.ALWAYS, Payload.NONE))
        with pytest.raises(UsageError):
            covering_search(oracle, cover)


class TestExport:
    def test_roundtrip(self, tmp_path):
        cover = greedy_cover(SpaceParams(4, 4, 1))
        path = tmp_path / "cover.txt"
        save_cover(cover, path)
        loaded = load_cover(path)
        assert loaded.params == cover.params
        assert loaded.centers == cover.centers
        assert loaded.certified == cover.certified

    def test_file_shape(self, tmp_path):
        cover = greedy_cover(SpaceParams(2, 3, 1))
        path = tmp_path / "c.txt"
        save_cover(cover, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# q=2 n=3 epsilon=1")
        assert lines[1:] == ["000", "111"]

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("000\n111\n")
        with pytest.raises(UsageError):
            load_cover(path)

    def test_edited_certified_cover_loads_uncertified(self, tmp_path):
        # a hand-edited cover keeps its certified=1 header but no longer covers
        params = SpaceParams(2, 3, 1)
        path = tmp_path / "edited.txt"
        path.write_text("# q=2 n=3 epsilon=1 certified=1\n000\n")
        loaded = load_cover(path)
        assert not loaded.certified
        oracle = Oracle((1, 1, 1), params, LeakageMode(Scope.ALWAYS, Payload.NONE))
        with pytest.raises(UsageError):
            covering_search(oracle, loaded)

    @pytest.mark.parametrize(
        "center, problem",
        [("0000", "has wrong length"), ("020", "has a digit outside the alphabet"), ("0-0", "has a digit outside")],
    )
    def test_bad_center_rejected(self, center, problem, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(f"# q=2 n=3 epsilon=1 certified=1\n000\n{center}\n")
        with pytest.raises(UsageError, match=f"center '{center}' {problem}"):
            load_cover(path)

    def test_header_token_without_equals_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# q=2 n=3 epsilon certified=1\n000\n111\n")
        with pytest.raises(UsageError):
            load_cover(path)

    def test_header_missing_key_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# q=2 n=3 certified=1\n000\n111\n")
        with pytest.raises(UsageError):
            load_cover(path)
