"""Allen interval algebra over discrete time, temporally qualified assertions,
and checking of assertions against finite truth histories.

Time points are non-negative integers; every interval is half-open and
non-singular, so ``[l, r)`` always satisfies ``l < r``.

This is the one definition of the interval semantics in the package: the
validator reads each fluent as its maximal constant-truth segments and
states every window, frame and interference rule as a relation between
those segments and action intervals (see ``validator`` for the boundary
context that extends a fluent one tick before 0 and one tick past the end).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, Sequence


class AllenRelation(enum.Enum):
    """The thirteen pairwise-exclusive relations between two intervals."""

    EQUAL = "equal"
    BEFORE = "before"
    AFTER = "after"
    MEETS = "meets"
    MET_BY = "met_by"
    CONTAINS = "contains"
    DURING = "during"
    STARTS = "starts"
    STARTED_BY = "started_by"
    FINISHES = "finishes"
    FINISHED_BY = "finished_by"
    OVERLAPS = "overlaps"
    OVERLAPPED_BY = "overlapped_by"


INVERSE = {
    AllenRelation.EQUAL: AllenRelation.EQUAL,
    AllenRelation.BEFORE: AllenRelation.AFTER,
    AllenRelation.AFTER: AllenRelation.BEFORE,
    AllenRelation.MEETS: AllenRelation.MET_BY,
    AllenRelation.MET_BY: AllenRelation.MEETS,
    AllenRelation.CONTAINS: AllenRelation.DURING,
    AllenRelation.DURING: AllenRelation.CONTAINS,
    AllenRelation.STARTS: AllenRelation.STARTED_BY,
    AllenRelation.STARTED_BY: AllenRelation.STARTS,
    AllenRelation.FINISHES: AllenRelation.FINISHED_BY,
    AllenRelation.FINISHED_BY: AllenRelation.FINISHES,
    AllenRelation.OVERLAPS: AllenRelation.OVERLAPPED_BY,
    AllenRelation.OVERLAPPED_BY: AllenRelation.OVERLAPS,
}


class CompositeRelation(enum.Enum):
    """Disjunctive relations used for mutual exclusion and homogeneity."""

    DISJOINT = "disjoint"
    SUBINTERVAL = "subinterval"


class HistoryTooShortError(ValueError):
    """An assertion's interval extends past the history's declared prefix."""


@dataclass(frozen=True, order=True)
class Interval:
    """Half-open interval ``[left, right)`` of integer time points."""

    left: int
    right: int

    def __post_init__(self) -> None:
        if self.left < 0:
            raise ValueError(f"interval start must be non-negative, got {self.left}")
        if self.left >= self.right:
            raise ValueError(f"interval [{self.left}, {self.right}) is empty or reversed")

    @property
    def size(self) -> int:
        return self.right - self.left

    def contains_point(self, t: int) -> bool:
        return self.left <= t < self.right

    def __str__(self) -> str:
        return f"[{self.left}, {self.right})"


@dataclass(frozen=True)
class Tqa:
    """A temporally qualified assertion: ``atom`` holds with ``polarity``
    throughout ``interval``."""

    atom: str
    polarity: bool
    interval: Interval

    def __str__(self) -> str:
        sign = "" if self.polarity else "not "
        return f"{sign}{self.atom}@{self.interval}"


def allen_relation(x: Interval, y: Interval) -> AllenRelation:
    """Return the unique Allen relation holding between ``x`` and ``y``.

    ``FINISHES`` follows the standard reading (x is a proper final part of
    y): equal right bounds with ``x.left > y.left``.
    """
    if x.right < y.left:
        return AllenRelation.BEFORE
    if y.right < x.left:
        return AllenRelation.AFTER
    if x.right == y.left:
        return AllenRelation.MEETS
    if y.right == x.left:
        return AllenRelation.MET_BY
    if x.left == y.left:
        if x.right == y.right:
            return AllenRelation.EQUAL
        return AllenRelation.STARTS if x.right < y.right else AllenRelation.STARTED_BY
    if x.right == y.right:
        return AllenRelation.FINISHES if x.left > y.left else AllenRelation.FINISHED_BY
    if x.left < y.left:
        return AllenRelation.CONTAINS if y.right < x.right else AllenRelation.OVERLAPS
    return AllenRelation.DURING if x.right < y.right else AllenRelation.OVERLAPPED_BY


def holds_composite(rel: CompositeRelation, x: Interval, y: Interval) -> bool:
    """Evaluate a composite relation.

    ``DISJOINT`` is symmetric: the intervals share no time point.
    ``SUBINTERVAL`` is the non-strict inclusion of ``y`` within ``x``
    (the union of contains, starts, finishes and equal), which gives the
    homogeneity axiom its reflexive reading.
    """
    if rel is CompositeRelation.DISJOINT:
        return x.right <= y.left or y.right <= x.left
    if rel is CompositeRelation.SUBINTERVAL:
        return x.left <= y.left and y.right <= x.right
    raise ValueError(f"unknown composite relation: {rel!r}")


def decompose(tqa: Tqa, cuts: Sequence[int]) -> list[Tqa]:
    """Split a TQA at the given cut points into a chain of adjacent TQAs.

    Cuts must be strictly increasing and strictly inside the interval; the
    pieces meet pairwise, the first starts the original, the last finishes
    it, and their union equals the original interval.
    """
    interval = tqa.interval
    prev = interval.left
    pieces: list[Tqa] = []
    for cut in cuts:
        if not interval.left < cut < interval.right:
            raise ValueError(f"cut {cut} outside the open interior of {interval}")
        if cut <= prev and pieces:
            raise ValueError(f"cuts must be strictly increasing, got {list(cuts)}")
        pieces.append(Tqa(tqa.atom, tqa.polarity, Interval(prev, cut)))
        prev = cut
    pieces.append(Tqa(tqa.atom, tqa.polarity, Interval(prev, interval.right)))
    return pieces


class History:
    """Total truth assignment for a set of atoms over the prefix ``[0, horizon)``."""

    def __init__(self, horizon: int, truth: Mapping[str, Sequence[bool]]):
        if horizon < 0:
            raise ValueError("horizon must be non-negative")
        self.horizon = horizon
        self._truth: dict[str, tuple[bool, ...]] = {}
        for atom, values in truth.items():
            row = tuple(bool(v) for v in values)
            if len(row) != horizon:
                raise ValueError(f"atom {atom!r} has {len(row)} values, expected {horizon}")
            self._truth[atom] = row

    @classmethod
    def from_true_segments(
        cls, horizon: int, segments: Mapping[str, Sequence[Interval]]
    ) -> "History":
        """Build a history where each atom is true exactly on its segments."""
        truth = {}
        for atom, intervals in segments.items():
            row = [False] * horizon
            for iv in intervals:
                if iv.right > horizon:
                    raise ValueError(f"segment {iv} of {atom!r} exceeds horizon {horizon}")
                for t in range(iv.left, iv.right):
                    row[t] = True
            truth[atom] = row
        return cls(horizon, truth)


def check_tqa(h: History, tqa: Tqa) -> bool:
    """True iff the history assigns ``tqa.polarity`` to the atom throughout
    the interval.  Raises ``HistoryTooShortError`` past the prefix."""
    iv = tqa.interval
    if iv.right > h.horizon:
        raise HistoryTooShortError(
            f"history too short: {iv} exceeds prefix [0, {h.horizon})"
        )
    row = h._truth[tqa.atom]
    want = tqa.polarity
    return all(row[t] == want for t in range(iv.left, iv.right))
