"""Q-ary vector space with the Hamming metric.

Templates live in Z_q^n = {0, ..., q-1}^n and are represented as plain
tuples of ints.  This module holds the metric, ball combinatorics,
entropy/harmonic helpers, the coupon-collector bracket, index encoding
(lexicographic rank), and seeded sampling.  Everything here is pure given
its inputs.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import UsageError

Template = tuple[int, ...]


@dataclass(frozen=True, slots=True)
class SpaceParams:
    """Alphabet size q, dimension n, and acceptance threshold epsilon.

    q >= 2, n >= 1 and 0 <= epsilon <= n are enforced here.  Attacks that
    additionally need epsilon < n check that at their own entry points.
    """

    q: int
    n: int
    epsilon: int

    def __post_init__(self) -> None:
        if not isinstance(self.q, numbers.Integral) or self.q < 2:
            raise UsageError(f"alphabet size q must be an integer >= 2, got {self.q!r}")
        if not isinstance(self.n, numbers.Integral) or self.n < 1:
            raise UsageError(f"dimension n must be an integer >= 1, got {self.n!r}")
        if not isinstance(self.epsilon, numbers.Integral) or not 0 <= self.epsilon <= self.n:
            raise UsageError(
                f"threshold epsilon must be an integer in [0, n], got {self.epsilon!r}"
            )
        object.__setattr__(self, "q", int(self.q))
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "epsilon", int(self.epsilon))

    def space_size(self) -> int:
        """Number of points in the space, q**n (exact int)."""
        return self.q**self.n


# sequences read as one byte per coordinate at q <= 256; bytearray() of an
# ndarray or an array.array would read its raw buffer, not its coordinates
BYTE_SEQUENCES = frozenset({tuple, list, bytes, bytearray})
# every byte; its first q are the digits of Z_q
_ALL_BYTES = bytes(range(256))


def digit_bytes(params: SpaceParams, coords: Sequence[int]) -> bytearray | None:
    """The coordinates of a BYTE_SEQUENCES object as a fresh bytearray, one
    byte each, or None unless q <= 256, the length is n and every
    coordinate is a digit of Z_q: the one check of a submission's digits,
    made in C."""
    if params.q > 256:
        return None
    try:
        raw = bytearray(coords)  # faster than bytes() on a tuple
    except (TypeError, ValueError):
        return None
    if len(raw) != params.n or raw.translate(None, _ALL_BYTES[: params.q]):
        return None
    return raw


def as_template(params: SpaceParams, coords: Sequence[int]) -> Template:
    """Validate a coordinate sequence against params and return it as a tuple.

    Raises UsageError on wrong length, non-integer entries (anything without
    ``__index__``: floats, Fractions; bools and numpy integers pass), or
    out-of-range values.  Anything but a tuple, list, bytes or bytearray is
    first read into a list, element-wise, so that an iterator is read once.
    For q <= 256 the coordinates are then checked by ``digit_bytes``;
    anything that check rejects is checked one coordinate at a time, so the
    message names what is wrong.
    """
    if type(coords) not in BYTE_SEQUENCES:
        coords = list(coords)
    raw = digit_bytes(params, coords)
    if raw is not None:
        return tuple(raw)
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


def hamming_distance(x: Sequence[int], y: Sequence[int]) -> int:
    """Number of coordinates where x and y differ.

    Symmetric, zero iff x == y.  Raises UsageError on length mismatch.
    """
    if len(x) != len(y):
        raise UsageError(f"dimension mismatch: {len(x)} vs {len(y)}")
    return sum(1 for a, b in zip(x, y) if a != b)


def ball_volume(params: SpaceParams) -> int:
    """|B(x, epsilon)| = sum_{i<=epsilon} C(n,i) (q-1)^i, exact integer.

    Independent of the center x.  Uses arbitrary-precision arithmetic so it
    stays exact far beyond 64-bit range.
    """
    q, n, eps = params.q, params.n, params.epsilon
    return sum(math.comb(n, i) * (q - 1) ** i for i in range(eps + 1))


def q_ary_entropy(q: int, r: float) -> float:
    """q-ary entropy h_q(r) = r log_q(q-1) - r log_q r - (1-r) log_q(1-r).

    Endpoint conventions are fixed explicitly: h_q(0) = 0 and
    h_q(1) = log_q(q-1) (the 0*log 0 terms vanish).
    """
    if q < 2:
        raise UsageError("q must be >= 2")
    if not 0.0 <= r <= 1.0:
        raise UsageError(f"r must lie in [0, 1], got {r}")
    if r == 0.0:
        return 0.0
    if r == 1.0:
        return math.log(q - 1) / math.log(q)
    lq = math.log(q)
    return (
        r * math.log(q - 1) / lq
        - r * math.log(r) / lq
        - (1.0 - r) * math.log(1.0 - r) / lq
    )


def harmonic_number_exact(n: int) -> Fraction:
    """H(n) = sum_{i=1}^{n} 1/i as an exact rational.  Satisfies
    H(n) <= ln(n) + 1.

    Summed by binary splitting: each half of 1..n is summed as an
    unreduced fraction, the halves are added by cross-multiplying, and the
    one gcd is taken at the end, so the operands of the big products stay
    balanced."""
    if n < 1:
        raise UsageError("n must be >= 1")

    def split(a: int, b: int) -> tuple[int, int]:
        """sum_{i=a}^{b-1} 1/i as an unreduced (numerator, denominator)."""
        if b - a == 1:
            return 1, a
        m = (a + b) // 2
        p1, q1 = split(a, m)
        p2, q2 = split(m, b)
        return p1 * q2 + p2 * q1, q1 * q2

    return Fraction(*split(1, n + 1))


def coupon_bracket(n_coupons: int, p_min: float) -> tuple[float, float]:
    """Bracket on the expected sessions to collect every coupon when the
    rarest one appears with probability p_min per round:
    1/p_min <= E <= (ln n + 1)/p_min."""
    if n_coupons < 1:
        raise UsageError("need at least one coupon")
    if not 0.0 < p_min <= 1.0:
        raise UsageError("p_min must lie in (0, 1]")
    return 1.0 / p_min, (math.log(n_coupons) + 1.0) / p_min


# --- lexicographic index encoding -----------------------------------------
#
# Coordinate 1 is the most significant digit, so integer order on indices
# equals lexicographic order on templates.  Used by the covering module and
# by brute-force test oracles.


def template_index(params: SpaceParams, t: Sequence[int]) -> int:
    """Lexicographic rank of t in Z_q^n."""
    idx = 0
    for c in t:
        idx = idx * params.q + int(c)
    return idx


def template_from_index(params: SpaceParams, idx: int) -> Template:
    """Inverse of template_index."""
    q, n = params.q, params.n
    coords = [0] * n
    for i in range(n - 1, -1, -1):
        idx, coords[i] = divmod(idx, q)
    return tuple(coords)


# --- seeded sampling --------------------------------------------------------


def sample_template(params: SpaceParams, rng: np.random.Generator) -> Template:
    """Uniform draw from Z_q^n; deterministic for a fixed generator state."""
    return tuple(rng.integers(0, params.q, size=params.n).tolist())
