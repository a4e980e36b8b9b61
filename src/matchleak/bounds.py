"""Worst-case cost bounds per leakage scenario.

Search-cost estimates for the accept-finding phase (naive pinned-coordinate
enumeration, the greedy-cover size estimate, and the entropy approximation
of the optimal-cover size), and the per-mode worst-case query bound as the
attack registry states it.

Exact integer arithmetic is used wherever a quantity is exact (naive search,
ball volume, the rational greedy-cover estimate); the entropy approximation
is a float (a Fraction beyond float range) and is reported, never asserted
as a bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .attacks import ATTACKS
from .errors import UsageError
from .oracle import LeakageMode
from .space import SpaceParams, ball_volume, harmonic_number_exact, q_ary_entropy


@dataclass(frozen=True, slots=True)
class BoundReport:
    """Cost landscape for one space/mode configuration.

    ``entropy_approx`` is only defined for eps/n <= 1 - 1/q and
    ``worst_case_queries`` only when the scenario has an active attack that
    runs at these parameters; undefined fields are None, never silently
    zero.  An ``entropy_approx`` beyond float range is a Fraction.
    """

    params: SpaceParams
    mode: LeakageMode
    ball_volume: int
    naive_search: int
    greedy_cover_bound: Fraction
    entropy_approx: float | Fraction | None
    worst_case_queries: int | None


def worst_case_queries(params: SpaceParams, mode: LeakageMode) -> int | None:
    """Worst-case query count of the active attack matching the leakage mode,
    as its row in the attack registry states it.

    None when no such attack runs at these parameters, by the row's own
    check (the accept-bit-only attack needs q = 2, and the below-threshold
    ones need epsilon < n).
    """
    for spec in ATTACKS.values():
        if spec.mode == mode and spec.counter == "queries":
            try:
                spec.check(params)
            except UsageError:
                return None
            return spec.bound(params, None)
    return None


def greedy_cover_bound(params: SpaceParams) -> Fraction:
    """The greedy-cover size estimate q^n H(n) / |B|, exactly.

    An estimate, not a theorem: the proved greedy factor is H(|B|), and
    greedy_cover builds 42 centers at (5, 5, 2), where this reads 39.42.
    """
    return Fraction(params.space_size()) * harmonic_number_exact(params.n) / ball_volume(params)


def theoretical_bounds(params: SpaceParams, mode: LeakageMode) -> BoundReport:
    """Assemble the full bound report for one configuration."""
    q, n, eps = params.q, params.n, params.epsilon
    ratio = eps / n
    entropy = None
    if ratio <= 1.0 - 1.0 / q:
        exponent = n * (1.0 - q_ary_entropy(q, ratio))
        try:
            entropy = float(q) ** exponent
        except OverflowError:
            # q**exponent as 2**bits: an exact power of two times a float mantissa
            bits = exponent * math.log2(q)
            entropy = Fraction(2.0 ** (bits % 1.0)) * 2 ** math.floor(bits)
    return BoundReport(
        params=params,
        mode=mode,
        ball_volume=ball_volume(params),
        naive_search=q ** (n - eps),
        greedy_cover_bound=greedy_cover_bound(params),
        entropy_approx=entropy,
        worst_case_queries=worst_case_queries(params, mode),
    )
