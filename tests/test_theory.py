"""Theory instantiation: index tables, copy ranges, and stable numbering."""

from __future__ import annotations

import random

import pytest

from randgen import random_tiny_domain
from tqaplan.benchgen import GadgetSpec, gen_cushing
from tqaplan.domain import Domain, Fluent, Skill, SkillKind
from tqaplan.theory import InvalidDomainError, effective_copy_cap, instantiate

ONE_EACH = Domain(
    (Fluent("p"),),
    (Skill("a", SkillKind.DELAY, 2, raises=frozenset({"p"})),),
)


def test_counting_example():
    shape = instantiate(ONE_EACH, 2, 1, 4)
    assert len(shape.flow_id) == 1 * 2 * 4  # 8 flow ids
    assert len(shape.use_id) == 1  # one action, one copy
    assert len(shape.boundary_id) == 3  # b0, b1, b2


def test_gadget_counting_matches_table_formula():
    domain = gen_cushing(GadgetSpec("I", 1))
    shape = instantiate(domain, 6, 1, 12)
    n_fluents = len(domain.fluents)
    assert len(shape.flow_id) == n_fluents * 6 * 4
    assert len(shape.use_id) == 3 * 1  # three skills, one copy each


def test_preconditions():
    with pytest.raises(ValueError):
        instantiate(ONE_EACH, 0)
    with pytest.raises(ValueError):
        instantiate(ONE_EACH, 3, horizon=2)
    broken = Domain((Fluent("p"),), (Skill("a", SkillKind.DELAY, 0),))
    with pytest.raises(InvalidDomainError):
        instantiate(broken, 1)
    spaced = Domain((Fluent("p q"),), (Skill("a", SkillKind.DELAY, 1),))
    with pytest.raises(InvalidDomainError, match="name-without-whitespace"):
        instantiate(spaced, 1)


def test_copy_cap_rules():
    assert effective_copy_cap(None, 1) == 1
    assert effective_copy_cap(None, 2) == 1
    assert effective_copy_cap(None, 5) == 4
    assert effective_copy_cap(3, 5) == 3
    assert effective_copy_cap(9, 3) == 2
    with pytest.raises(ValueError):
        effective_copy_cap(0, 3)


def test_tables_are_contiguous_bijections():
    shape = instantiate(ONE_EACH, 4, None, 8)
    bool_ids = sorted(shape.flow_id.values()) + sorted(shape.use_id.values())
    assert sorted(bool_ids) == list(range(len(shape.bool_names)))
    int_ids = (
        list(shape.boundary_id.values())
        + list(shape.split_id.values())
        + list(shape.left_id.values())
        + list(shape.right_id.values())
        + list(shape.start_id.values())
        + list(shape.end_id.values())
    )
    assert sorted(int_ids) == list(range(len(shape.int_decls)))


def test_prefix_monotonicity_across_stage_counts():
    domain = gen_cushing(GadgetSpec("I", 1))
    horizon = 40
    prev = instantiate(domain, 1, None, horizon)
    for n in range(2, 6):
        cur = instantiate(domain, n, None, horizon)
        # shared indices keep their ids and form a prefix of the numbering
        # (declared bounds may tighten as the stage count grows)
        assert cur.bool_names[: len(prev.bool_names)] == prev.bool_names
        assert [d[0] for d in cur.int_decls[: len(prev.int_decls)]] == [
            d[0] for d in prev.int_decls
        ]
        for key, value in prev.flow_id.items():
            assert cur.flow_id[key] == value
        for key, value in prev.use_id.items():
            assert cur.use_id[key] == value
        for table in ("left_id", "right_id", "start_id", "end_id", "boundary_id", "split_id"):
            for key, value in getattr(prev, table).items():
                assert getattr(cur, table)[key] == value
        prev = cur


def test_ids_deterministic():
    a = instantiate(ONE_EACH, 3, None, 6)
    b = instantiate(ONE_EACH, 3, None, 6)
    assert a.bool_names == b.bool_names
    assert a.int_decls == b.int_decls
    assert a.flow_id == b.flow_id


def test_action_and_temporal_lookups_match_a_scan():
    domains = [gen_cushing(GadgetSpec(*spec)) for spec in (("I", 3, None), ("II", 2, 2))]
    domains += [random_tiny_domain(random.Random(seed)) for seed in range(60)]
    temporal_seen = 0
    for domain in domains:
        shape = instantiate(domain, 2, 1)
        for ref in shape.actions:
            first = next(
                j for j, r in enumerate(shape.actions) if (r.name, r.actor) == (ref.name, ref.actor)
            )
            assert shape.action_index(ref.name, ref.actor) == first
            if ref.kind == "temporal":
                temporal_seen += 1
                assert shape.temporal_of(ref) == next(
                    t for t in domain.temporal_actions if t.name == ref.name
                )
        with pytest.raises(KeyError):
            shape.action_index(shape.actions[0].name, domain.actors + 1)
    assert temporal_seen > 0
