"""Domain parsing, validation, and the derived lowering relation."""

from __future__ import annotations

import random

import pytest

from randgen import random_tiny_domain
from tqaplan.benchgen import GadgetSpec, gen_cushing
from tqaplan.domain import (
    ConstraintRel,
    ConstraintSpec,
    Domain,
    DomainFormatError,
    Fluent,
    FluentRole,
    Skill,
    SkillKind,
    TemporalAction,
    lowers,
    parse_domain,
    raises_of,
    serialize_domain,
    validate_domain,
)

MINIMAL = """
{"fluents": ["g"],
 "skills": [{"name": "a", "kind": "delay", "duration": 2, "raises": ["g"]}],
 "goal": ["g"]}
"""


def test_parse_minimal():
    d = parse_domain(MINIMAL)
    assert [f.name for f in d.fluents] == ["g"]
    assert d.actors == 1
    skill = d.skills[0]
    assert skill.kind is SkillKind.DELAY and skill.duration == 2
    assert d.goal == frozenset({"g"})
    assert validate_domain(d) == []


def test_parse_rejects_unknown_keys():
    with pytest.raises(DomainFormatError) as err:
        parse_domain('{"fluents": [], "extra": 1}')
    assert "extra" in str(err.value)
    with pytest.raises(DomainFormatError) as err:
        parse_domain('{"skills": [{"name": "a", "kind": "delay", "duration": 1, "weird": 2}]}')
    assert "$.skills[0]" in str(err.value)


def test_parse_rejects_missing_duration():
    with pytest.raises(DomainFormatError) as err:
        parse_domain('{"skills": [{"name": "a", "kind": "delay"}]}')
    assert "duration required" in str(err.value)


def test_parse_rejects_duplicates_and_dangling():
    with pytest.raises(DomainFormatError):
        parse_domain('{"fluents": ["p", "p"]}')
    with pytest.raises(DomainFormatError):
        parse_domain('{"skills": [{"name": "a", "kind": "timer", "raises": ["nope"]}]}')
    with pytest.raises(DomainFormatError):
        parse_domain('{"fluents": ["p"], "interference": [["p", "q"]]}')
    with pytest.raises(DomainFormatError):
        parse_domain('{"goal": ["q"]}')


def test_cost_parsing():
    d = parse_domain(
        '{"skills": [{"name": "a", "kind": "delay", "duration": 1, "cost": "3/2"}]}'
    )
    assert d.skills[0].cost.numerator == 3 and d.skills[0].cost.denominator == 2
    with pytest.raises(DomainFormatError):
        parse_domain('{"skills": [{"name": "a", "kind": "delay", "duration": 1, "cost": 1.5}]}')


def test_round_trip():
    doc = """
    {"fluents": [{"name": "p", "role": "resource"}, "q"],
     "actors": 2,
     "skills": [
       {"name": "a", "kind": "delay", "duration": 3, "cost": "1/2",
        "constraints": [{"fluent": "p", "rel": "equals"}], "raises": ["q"],
        "actors": [1]},
       {"name": "b", "kind": "timer"}],
     "interference": [["p", "q"]],
     "temporal_actions": [],
     "init": ["q"],
     "goal": ["q"]}
    """
    d = parse_domain(doc)
    assert parse_domain(serialize_domain(d)) == d


def test_validate_diagnostics():
    bad_duration = Domain(
        (Fluent("g"),),
        (Skill("a", SkillKind.DELAY, 0, raises=frozenset({"g"})),),
    )
    rules = [diag.rule for diag in validate_domain(bad_duration)]
    assert "finite-positive-duration" in rules

    # a document cannot say this: parse_domain rejects a timer's duration
    fixed_timer = Domain((Fluent("p"),), (Skill("a", SkillKind.TIMER, 3),))
    assert [str(diag) for diag in validate_domain(fixed_timer)] == [
        "[timer-no-duration] timer skill 'a' must not fix a duration"
    ]

    self_interference = Domain((Fluent("p"),), (), interference=frozenset({("p", "p")}))
    rules = [diag.rule for diag in validate_domain(self_interference)]
    assert "interference-irreflexive" in rules

    equals_on_ordinary = Domain(
        (Fluent("p"),),
        (Skill("a", SkillKind.DELAY, 2, constraints=(ConstraintSpec("p", ConstraintRel.EQUALS),)),),
    )
    rules = [diag.rule for diag in validate_domain(equals_on_ordinary)]
    assert "equals-needs-resource" in rules

    resource_goal = Domain(
        (Fluent("p", FluentRole.RESOURCE),), (), goal=frozenset({"p"})
    )
    rules = [diag.rule for diag in validate_domain(resource_goal)]
    assert "boundary-ordinary-only" in rules

    shared_component = Domain(
        (Fluent("p"),),
        (Skill("a", SkillKind.DELAY, 1), Skill("b", SkillKind.DELAY, 1)),
        temporal_actions=(TemporalAction("t1", ("a",)), TemporalAction("t2", ("a", "b"))),
    )
    rules = [diag.rule for diag in validate_domain(shared_component)]
    assert "skill-single-aggregate" in rules

    spaced = Domain(
        (Fluent("p q"),),
        (Skill("a b", SkillKind.DELAY, 1),),
        temporal_actions=(TemporalAction("t\tu", ("a b",)),),
    )
    messages = [str(diag) for diag in validate_domain(spaced)]
    assert messages == [
        "[name-without-whitespace] fluent 'p q' contains whitespace",
        "[name-without-whitespace] skill 'a b' contains whitespace",
        "[name-without-whitespace] temporal action 't\\tu' contains whitespace",
    ]


def test_lowers_examples():
    d = Domain(
        (Fluent("p"), Fluent("q")),
        (
            Skill("a", SkillKind.DELAY, 2, raises=frozenset({"p"})),
            Skill("b", SkillKind.DELAY, 2),
        ),
        interference=frozenset({("p", "q")}),
    )
    assert lowers(d, "a") == frozenset({"q"})
    assert lowers(d, "b") == frozenset()
    no_interference = Domain(
        (Fluent("p"),), (Skill("a", SkillKind.DELAY, 2, raises=frozenset({"p"})),)
    )
    assert lowers(no_interference, "a") == frozenset()
    with pytest.raises(KeyError):
        lowers(d, "nope")


def test_lowers_monotone_in_interference():
    base = Domain(
        (Fluent("p"), Fluent("q"), Fluent("r")),
        (Skill("a", SkillKind.DELAY, 2, raises=frozenset({"p"})),),
        interference=frozenset({("p", "q")}),
    )
    grown = Domain(
        base.fluents, base.skills, 1, frozenset({("p", "q"), ("p", "r")})
    )
    assert lowers(base, "a") <= lowers(grown, "a")


def test_equals_registers_both_transitions():
    d = Domain(
        (Fluent("w", FluentRole.RESOURCE),),
        (Skill("a", SkillKind.DELAY, 4, constraints=(ConstraintSpec("w", ConstraintRel.EQUALS),)),),
    )
    assert raises_of(d, "a") == frozenset({"w"})
    assert lowers(d, "a") == frozenset({"w"})


def _raises_from_scratch(d: Domain, name: str) -> frozenset[str]:
    skill = next(s for s in reversed(d.skills) if s.name == name)
    return skill.raises | frozenset(
        c.fluent for c in skill.constraints if c.rel is ConstraintRel.EQUALS
    )


def _lowers_from_scratch(d: Domain, name: str) -> frozenset[str]:
    skill = next(s for s in reversed(d.skills) if s.name == name)
    out = {c.fluent for c in skill.constraints if c.rel is ConstraintRel.EQUALS}
    for raised in _raises_from_scratch(d, name):
        for a, b in d.interference:
            if a == raised:
                out.add(b)
            elif b == raised:
                out.add(a)
    return frozenset(out)


def test_lookup_tables_match_their_definitions():
    """The per-domain tables behind skill_map/raises_of/lowers/interferers
    agree with the definitions recomputed from the domain's fields."""
    domains = [random_tiny_domain(random.Random(seed)) for seed in range(300)]
    domains += [
        gen_cushing(GadgetSpec(*spec)) for spec in (("I", 4, None), ("II", 2, 3), ("III", 2, 2))
    ]
    for d in domains:
        assert dict(d.skill_map()) == {s.name: s for s in d.skills}
        for s in d.skills:
            assert raises_of(d, s.name) == _raises_from_scratch(d, s.name)
            assert lowers(d, s.name) == _lowers_from_scratch(d, s.name)
        for f in d.fluents:
            assert d.interferers(f.name) == frozenset(
                b if a == f.name else a for a, b in d.interference if f.name in (a, b)
            )
    d = domains[0]
    with pytest.raises(KeyError):
        raises_of(d, "nope")
    with pytest.raises(KeyError, match="unknown skill"):
        lowers(d, "nope")
    with pytest.raises(TypeError):
        d.skill_map()["x"] = d.skills[0]  # the shared table is read-only
    # the tables are not fields: equality, hashing and repr ignore them
    twin = Domain(d.fluents, d.skills, d.actors, d.interference, d.temporal_actions, d.init, d.goal)
    assert twin == d and hash(twin) == hash(d) and repr(twin) == repr(d)
