"""Ball coverings of Z_q^n.

A cover is a list of centers whose radius-epsilon Hamming balls blanket the
whole space; querying the centers in order is guaranteed to hit the secret's
acceptance ball.  Three constructions live here:

* the trivial coordinate-fixing cover (pin epsilon coordinates, enumerate
  the rest),
* greedy set cover, whose size bounds.greedy_cover_bound estimates,
* an exact branch-and-bound minimum (tiny instances; test oracle).

covering_search is the one accept search: Oracle.scan over a cover's
centers, or Oracle.scan_fixing over the fixing centers, which the oracle
module defines (fixing_batches) and answers without building that cover.

Spaces are materialized as integer indices (lexicographic rank), so
construction is guarded by a point budget rather than allowed to thrash.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import CapacityError, InternalError, UsageError
from .oracle import SCAN_CHUNK, MatchResponse, Oracle, fixing_batches
from .space import (
    SpaceParams,
    Template,
    as_template,
    ball_volume,
    template_from_index,
    template_index,
    unpack_words,
)

GREEDY_POINT_GUARD = 1 << 24
EXACT_POINT_GUARD = 1 << 12

_EXPORT_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True, slots=True)
class Cover:
    """Centers plus a certification bit (full coverage verified)."""

    params: SpaceParams
    centers: tuple[Template, ...]
    certified: bool

    def __len__(self) -> int:
        return len(self.centers)


def _guard(points: int, limit: int, what: str) -> None:
    if points > limit:
        raise CapacityError(f"{what} needs {points} points materialized (guard {limit})")


class _BallIndex:
    """Vectorized ball enumeration over integer-encoded points.

    A ball member is its center plus a nonzero digit offset (mod q) at each
    of at most epsilon positions.  Adding offset v at coordinate p is one
    step; step p*(q-1) + v-1 of a point is the change it makes to the
    point's index.  The |B| - 1 offset patterns are held per weight w as w
    rows of step numbers, positions outer and offsets inner.
    """

    def __init__(self, params: SpaceParams):
        q, n = params.q, params.n
        self.q = q
        self.volume = ball_volume(params)
        # place values, coordinate 1 first
        self.weights = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
        self.offsets = np.arange(1, q, dtype=np.int64)
        self.groups = []
        for w in range(1, params.epsilon + 1):
            combos = np.array(list(itertools.combinations(range(n), w)), dtype=np.int64)
            values = np.array(list(itertools.product(range(q - 1), repeat=w)), dtype=np.int64)
            steps = combos[:, None, :] * (q - 1) + values
            self.groups.append(steps.reshape(-1, w).T.copy())

    def balls(self, ids: np.ndarray) -> np.ndarray:
        """Ball members for each id, shape (len(ids), volume); column 0 is
        the point itself."""
        ids = np.asarray(ids, dtype=np.int64)
        digits = (ids[:, None] // self.weights % self.q)[:, :, None]
        steps = ((digits + self.offsets) % self.q - digits) * self.weights[:, None]
        steps = steps.reshape(len(ids), len(self.weights) * len(self.offsets))
        out = np.empty((len(ids), self.volume), dtype=np.int64)
        out[:, 0] = ids
        col = 1
        for rows in self.groups:
            members = out[:, col : col + rows.shape[1]]
            np.add(ids[:, None], steps[:, rows[0]], out=members)
            for row in rows[1:]:
                members += steps[:, row]
            col += rows.shape[1]
        return out


def coordinate_fixing_cover(params: SpaceParams) -> Cover:
    """The fixing centers as a certified cover (see oracle.fixing_batches)."""
    _guard(params.q ** (params.n - params.epsilon), GREEDY_POINT_GUARD, "coordinate-fixing cover")
    centers = tuple(
        tuple(row)
        for chunk in fixing_batches(params)
        for row in (chunk if chunk.ndim == 2 else unpack_words(params.n, chunk)).tolist()
    )
    return Cover(params=params, centers=centers, certified=True)


def greedy_cover(params: SpaceParams) -> Cover:
    """Classic greedy set cover over radius-epsilon balls.

    Repeatedly picks the center covering the most still-uncovered points,
    breaking ties toward the lexicographically smallest center, until all
    of Z_q^n is covered.  Certified by construction; callers and tests
    compare the size with bounds.greedy_cover_bound.
    """
    size = params.space_size()
    _guard(size, GREEDY_POINT_GUARD, "greedy cover")
    index = _BallIndex(params)
    gain = np.full(size, index.volume, dtype=np.int64)
    covered = np.zeros(size, dtype=bool)
    remaining = size
    chosen: list[int] = []
    while remaining > 0:
        c = int(np.argmax(gain))  # first max == lexicographically smallest
        ball = index.balls(np.array([c], dtype=np.int64))[0]
        fresh = ball[~covered[ball]]
        if len(fresh) == 0:
            raise InternalError("greedy selected a useless center")
        covered[fresh] = True
        remaining -= len(fresh)
        touched = index.balls(fresh).ravel()
        np.subtract.at(gain, touched, 1)
        chosen.append(c)
    centers = tuple(template_from_index(params, c) for c in chosen)
    return Cover(params=params, centers=centers, certified=True)


def check_verifiable(params: SpaceParams) -> None:
    """Raise CapacityError unless verify_cover can check a cover of this
    space."""
    _guard(params.space_size(), GREEDY_POINT_GUARD, "cover verification")


def verify_cover(cover: Cover) -> bool:
    """Exhaustively re-check that every point lies within epsilon of some
    center.  Independent of the construction bookkeeping.  A center that is
    not a template of the space raises UsageError."""
    params = cover.params
    check_verifiable(params)
    size = params.space_size()
    index = _BallIndex(params)
    covered = np.zeros(size, dtype=bool)
    ids = np.array([template_index(params, as_template(params, c)) for c in cover.centers], dtype=np.int64)
    covered[index.balls(ids).ravel()] = True
    return bool(covered.all())


def exact_min_cover_size(params: SpaceParams) -> int:
    """Exact minimum number of radius-epsilon balls covering Z_q^n.

    Branch and bound: always branch on the smallest uncovered point (any
    cover must pick a center inside its ball), prune with the volume lower
    bound ceil(uncovered / |B|), seed the incumbent with the greedy size.
    Tiny instances only.
    """
    size = params.space_size()
    _guard(size, EXACT_POINT_GUARD, "exact cover")
    index = _BallIndex(params)
    vol = index.volume
    balls = index.balls(np.arange(size, dtype=np.int64))
    ball_mask = [sum(1 << int(m) for m in row) for row in balls]

    full = (1 << size) - 1
    best = len(greedy_cover(params))

    def branch(uncovered: int, used: int) -> None:
        nonlocal best
        if uncovered == 0:
            best = min(best, used)
            return
        missing = uncovered.bit_count()
        if used + (missing + vol - 1) // vol >= best:
            return
        p = (uncovered & -uncovered).bit_length() - 1  # lowest uncovered point
        for center in balls[p]:
            branch(uncovered & ~ball_mask[int(center)], used + 1)

    branch(full, 0)
    return best


def covering_search(
    oracle: Oracle, cover: Cover | None = None, exact: bool = False
) -> tuple[Template, MatchResponse]:
    """The accept search: one Oracle.scan over the centers of a certified
    cover, in chunks of at most SCAN_CHUNK digit rows, or, when cover is
    None, Oracle.scan_fixing over the fixing centers (fixing_batches).

    Returns the scan's hit: the first accepted center with its response
    or, with ``exact`` (for the distance payload), the first accepted
    center of smallest leaked distance, the scan stopping at distance 0.
    The centers cover the space, so the scan always meets an acceptance;
    running out indicates a broken oracle/cover pairing.
    """
    if cover is None:
        return oracle.scan_fixing(exact=exact)
    if not cover.certified:
        raise UsageError("covering search requires a certified cover")
    if cover.params != oracle.params:
        raise UsageError("cover and oracle disagree on space parameters")
    centers = cover.centers
    batches = (np.array(centers[i : i + SCAN_CHUNK]) for i in range(0, len(centers), SCAN_CHUNK))
    hit = oracle.scan(batches, exact=exact)
    if hit is None:
        raise InternalError("covering centers exhausted without an acceptance")
    return hit


# --- export / import ----------------------------------------------------------


def check_exportable(params: SpaceParams) -> None:
    """Raise UsageError unless save_cover can write a cover of this space."""
    if params.q > len(_EXPORT_DIGITS):
        raise UsageError(f"export supports q <= {len(_EXPORT_DIGITS)}")


def save_cover(cover: Cover, path: str | Path) -> None:
    """Write one q-ary digit string per center, preceded by a parameter
    header line."""
    params = cover.params
    check_exportable(params)
    lines = [
        f"# q={params.q} n={params.n} epsilon={params.epsilon} certified={int(cover.certified)}"
    ]
    lines += ("".join(_EXPORT_DIGITS[v] for v in c) for c in cover.centers)
    Path(path).write_text("\n".join(lines) + "\n")


def load_cover(path: str | Path) -> Cover:
    """Read a cover written by save_cover.

    A malformed header raises UsageError.  The header's certification bit is
    not trusted: the cover loads as certified only if verify_cover confirms
    it (a space too large to verify loads uncertified).
    """
    text = Path(path).read_text()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("#"):
        raise UsageError("cover file missing parameter header")
    try:
        fields = dict(part.split("=", 1) for part in lines[0][1:].split())
        q, n, eps, certified = (int(fields[key]) for key in ("q", "n", "epsilon", "certified"))
    except (KeyError, ValueError):
        raise UsageError(f"malformed cover header {lines[0]!r}") from None
    params = SpaceParams(q, n, eps)
    centers = []
    for ln in lines[1:]:
        if len(ln) != params.n:
            raise UsageError(f"center {ln!r} has wrong length")
        centers.append(tuple(_EXPORT_DIGITS.find(ch) for ch in ln))
        if not all(0 <= v < params.q for v in centers[-1]):
            raise UsageError(f"center {ln!r} has a digit outside the alphabet")
    cover = Cover(params=params, centers=tuple(centers), certified=False)
    if certified:
        try:
            return replace(cover, certified=verify_cover(cover))
        except CapacityError:
            pass
    return cover
