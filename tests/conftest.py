"""Shared brute-force oracles for the test suite.

These deliberately avoid the library's own combinatorics so that derived
expectations stay independent of the code paths they check.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

import numpy as np
import pytest

from matchleak.attacks import PartialTemplate
from matchleak.errors import UsageError
from matchleak.space import SpaceParams, Template, as_template


def brute_ball_count(params: SpaceParams, center: tuple[int, ...]) -> int:
    """Count ball members by scanning the whole space, pure-Python distance."""
    count = 0
    for point in itertools.product(range(params.q), repeat=params.n):
        d = sum(1 for a, b in zip(center, point) if a != b)
        if d <= params.epsilon:
            count += 1
    return count


def weight_histogram(q: int, n: int) -> np.ndarray:
    """Number of points at each distance from the all-zeros vector, by
    enumeration of integer encodings (digit counting, no binomials)."""
    ids = np.arange(q**n, dtype=np.int64)
    nonzero = np.zeros(q**n, dtype=np.int16)
    base = 1
    for _ in range(n):
        nonzero += ((ids // base) % q != 0).astype(np.int16)
        base *= q
    return np.bincount(nonzero, minlength=n + 1)


def enumerate_templates(params: SpaceParams) -> Iterator[Template]:
    """All q^n templates in lexicographic order."""
    return itertools.product(range(params.q), repeat=params.n)


def ball_templates(params: SpaceParams, center: Sequence[int]) -> Iterator[Template]:
    """All templates within distance epsilon of center.

    Deterministic order: distance ascending, then changed-position sets and
    replacement values lexicographically.
    """
    center = tuple(center)
    q, n, eps = params.q, params.n, params.epsilon
    yield center
    for w in range(1, eps + 1):
        for positions in itertools.combinations(range(n), w):
            choices = [
                [v for v in range(q) if v != center[p]] for p in positions
            ]
            for values in itertools.product(*choices):
                t = list(center)
                for p, v in zip(positions, values):
                    t[p] = v
                yield tuple(t)


def sample_at_distance(
    params: SpaceParams, x: Sequence[int], k: int, rng: np.random.Generator
) -> Template:
    """A uniform template at Hamming distance exactly k from x.

    Rejection-free: picks the k error positions uniformly among C(n,k)
    subsets, then each erroneous value uniformly among the q-1 non-matching
    symbols.  O(n) cost and an exact distance guarantee.
    """
    if not 0 <= k <= params.n:
        raise UsageError(f"k must lie in [0, n], got {k}")
    x = as_template(params, x)
    if k == 0:
        return x
    return tuple(perturb(params, x, rng.choice(params.n, size=k, replace=False), rng))


def perturb(
    params: SpaceParams, x: Sequence[int], positions: Iterable[int], rng: np.random.Generator
) -> list[int]:
    """x with each given 0-based coordinate moved to a uniformly drawn other
    symbol, one draw per position in the given order."""
    y = list(x)
    for p in positions:
        y[p] = (y[p] + int(rng.integers(1, params.q))) % params.q
    return y


def answers_to(seen: list):
    """An oracle tap that appends each answer to seen, without its
    submission."""
    return lambda submission, answer: seen.append(answer)


def unknown_positions(partial: PartialTemplate) -> tuple[int, ...]:
    """1-based positions of a partial template still unknown."""
    return tuple(i + 1 for i, c in enumerate(partial.coords) if c is None)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240811)
