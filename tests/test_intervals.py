"""Interval algebra, TQAs, and history model checking."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, strategies as st

from tqaplan.intervals import (
    INVERSE,
    AllenRelation,
    CompositeRelation,
    History,
    HistoryTooShortError,
    Interval,
    Tqa,
    allen_relation,
    check_tqa,
    decompose,
    holds_composite,
)


def intervals_with_bounds(limit: int) -> list[Interval]:
    return [Interval(l, r) for l in range(limit) for r in range(l + 1, limit + 1)]


def test_interval_shape():
    assert Interval(0, 2).size == 2
    assert Interval(3, 4).contains_point(3)
    assert not Interval(3, 4).contains_point(4)
    with pytest.raises(ValueError):
        Interval(2, 2)
    with pytest.raises(ValueError):
        Interval(5, 3)
    with pytest.raises(ValueError):
        Interval(-1, 3)


def test_relation_examples():
    assert allen_relation(Interval(0, 2), Interval(2, 5)) is AllenRelation.MEETS
    assert allen_relation(Interval(0, 5), Interval(1, 3)) is AllenRelation.CONTAINS
    assert allen_relation(Interval(0, 3), Interval(2, 5)) is AllenRelation.OVERLAPS
    assert allen_relation(Interval(0, 3), Interval(0, 3)) is AllenRelation.EQUAL
    assert allen_relation(Interval(0, 2), Interval(0, 5)) is AllenRelation.STARTS
    # a proper final part finishes its container
    assert allen_relation(Interval(3, 5), Interval(0, 5)) is AllenRelation.FINISHES
    assert allen_relation(Interval(0, 5), Interval(3, 5)) is AllenRelation.FINISHED_BY


def test_exactly_one_and_inverse_exhaustive_small():
    ivs = intervals_with_bounds(10)
    for x, y in itertools.product(ivs, ivs):
        rel = allen_relation(x, y)
        assert INVERSE[rel] is allen_relation(y, x)


@given(
    st.tuples(st.integers(0, 64), st.integers(0, 64)).filter(lambda p: p[0] < p[1]),
    st.tuples(st.integers(0, 64), st.integers(0, 64)).filter(lambda p: p[0] < p[1]),
)
def test_exactly_one_relation_holds(p, q):
    x, y = Interval(*p), Interval(*q)
    rel = allen_relation(x, y)
    hits = [
        candidate
        for candidate in AllenRelation
        if allen_relation(x, y) is candidate
    ]
    assert hits == [rel]
    assert INVERSE[rel] is allen_relation(y, x)


def test_composites():
    assert holds_composite(CompositeRelation.DISJOINT, Interval(0, 2), Interval(2, 4))
    assert not holds_composite(CompositeRelation.DISJOINT, Interval(0, 3), Interval(2, 4))
    assert holds_composite(CompositeRelation.SUBINTERVAL, Interval(0, 4), Interval(1, 2))
    # reflexive inclusion supports the homogeneity axiom
    assert holds_composite(CompositeRelation.SUBINTERVAL, Interval(1, 4), Interval(1, 4))
    assert not holds_composite(CompositeRelation.SUBINTERVAL, Interval(1, 4), Interval(0, 2))


def test_disjoint_agrees_with_relation_classes():
    ivs = intervals_with_bounds(8)
    disjoint_tags = {
        AllenRelation.BEFORE,
        AllenRelation.AFTER,
        AllenRelation.MEETS,
        AllenRelation.MET_BY,
    }
    for x, y in itertools.product(ivs, ivs):
        expected = allen_relation(x, y) in disjoint_tags
        assert holds_composite(CompositeRelation.DISJOINT, x, y) == expected


def test_decompose_examples():
    tqa = Tqa("p", True, Interval(0, 5))
    assert decompose(tqa, [2]) == [
        Tqa("p", True, Interval(0, 2)),
        Tqa("p", True, Interval(2, 5)),
    ]
    assert decompose(tqa, []) == [tqa]
    three = decompose(Tqa("p", True, Interval(0, 4)), [1, 3])
    assert [p.interval for p in three] == [Interval(0, 1), Interval(1, 3), Interval(3, 4)]
    with pytest.raises(ValueError):
        decompose(tqa, [0])
    with pytest.raises(ValueError):
        decompose(tqa, [5])
    with pytest.raises(ValueError):
        decompose(Tqa("p", True, Interval(0, 4)), [3, 1])


@given(
    st.integers(0, 20),
    st.integers(1, 6),
    st.sets(st.integers(1, 5), max_size=4),
)
def test_decompose_chains_and_covers(left, size, raw_cuts):
    interval = Interval(left, left + size)
    cuts = sorted(left + c for c in raw_cuts if 0 < c < size)
    pieces = decompose(Tqa("p", True, interval), cuts)
    assert pieces[0].interval.left == interval.left
    assert pieces[-1].interval.right == interval.right
    for a, b in zip(pieces, pieces[1:]):
        assert allen_relation(a.interval, b.interval) is AllenRelation.MEETS
    covered = [t for p in pieces for t in range(p.interval.left, p.interval.right)]
    assert covered == list(range(interval.left, interval.right))


def history_p_true_on(horizon: int, *segs: Interval) -> History:
    return History.from_true_segments(horizon, {"p": list(segs)})


def test_check_tqa_examples():
    h = history_p_true_on(5, Interval(0, 3))
    assert check_tqa(h, Tqa("p", True, Interval(0, 3)))
    assert not check_tqa(h, Tqa("p", True, Interval(0, 4)))
    assert check_tqa(h, Tqa("p", False, Interval(3, 5)))
    with pytest.raises(HistoryTooShortError):
        check_tqa(h, Tqa("p", True, Interval(3, 6)))


def test_homogeneity_exhaustive():
    # truth over the whole interval iff truth over every subinterval
    for bits in itertools.product((False, True), repeat=8):
        h = History(8, {"p": list(bits)})
        for left in range(8):
            for right in range(left + 1, 9):
                outer = check_tqa(h, Tqa("p", True, Interval(left, right)))
                subs = all(
                    check_tqa(h, Tqa("p", True, Interval(a, b)))
                    for a in range(left, right)
                    for b in range(a + 1, right + 1)
                )
                assert outer == subs


def test_mutex_by_enumeration():
    # a history satisfying p@X and (not p)@Y forces X and Y disjoint
    for bits in itertools.product((False, True), repeat=6):
        h = History(6, {"p": list(bits)})
        ivs = intervals_with_bounds(6)
        for x in ivs:
            if not check_tqa(h, Tqa("p", True, x)):
                continue
            for y in ivs:
                if check_tqa(h, Tqa("p", False, y)):
                    assert holds_composite(CompositeRelation.DISJOINT, x, y)


def test_decompose_check_consistency():
    for bits in itertools.product((False, True), repeat=6):
        h = History(6, {"p": list(bits)})
        for iv in intervals_with_bounds(6):
            if iv.size < 2:
                continue
            cuts = [iv.left + 1] if iv.size == 2 else [iv.left + 1, iv.right - 1]
            pieces = decompose(Tqa("p", True, iv), cuts)
            whole = check_tqa(h, Tqa("p", True, iv))
            assert whole == all(check_tqa(h, piece) for piece in pieces)
