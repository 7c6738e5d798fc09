"""Random tiny domains and random raw constraint models for agreement suites."""

from __future__ import annotations

import random
from fractions import Fraction

from tqaplan.cpmodel import (
    BOOL,
    EQ,
    INT,
    LE,
    Clause,
    Cmp,
    CspModel,
    IffConj,
    Implies,
    Lin,
    Lit,
    Term,
)
from tqaplan.domain import (
    ConstraintRel,
    ConstraintSpec,
    Domain,
    Fluent,
    FluentRole,
    Skill,
    SkillKind,
    TemporalAction,
    validate_domain,
)


def random_tiny_domain(rng: random.Random) -> Domain:
    """A domain with at most two fluents and two skills, small durations,
    and a sprinkling of constraints, interference, and temporal actions."""
    n_fluents = rng.choice((1, 2, 2))
    fluent_names = ["p", "q"][:n_fluents]
    n_skills = rng.choice((1, 2, 2))
    skill_names = ["a", "b"][:n_skills]

    resource_targets: set[str] = set()
    skills = []
    for name in skill_names:
        kind = SkillKind.DELAY if rng.random() < 0.7 else SkillKind.TIMER
        duration = rng.choice((1, 2, 2, 3)) if kind is SkillKind.DELAY else None
        raises = frozenset(f for f in fluent_names if rng.random() < 0.45)
        constraints = []
        if rng.random() < 0.55:
            target = rng.choice(fluent_names)
            rel = rng.choice(
                (
                    ConstraintRel.CONTAINS,
                    ConstraintRel.OVERLAPS,
                    ConstraintRel.EQUALS,
                )
            )
            if rel is ConstraintRel.EQUALS:
                resource_targets.add(target)
            constraints.append(ConstraintSpec(target, rel))
        skills.append(
            Skill(
                name,
                kind,
                duration,
                Fraction(rng.randrange(0, 4)),
                tuple(constraints),
                raises,
            )
        )

    fluents = tuple(
        Fluent(f, FluentRole.RESOURCE if f in resource_targets else FluentRole.ORDINARY)
        for f in fluent_names
    )
    ordinary = [f.name for f in fluents if f.role is FluentRole.ORDINARY]

    interference = set()
    if n_fluents == 2 and rng.random() < 0.35:
        interference.add(("p", "q"))

    temporal_actions = ()
    if n_skills == 2 and rng.random() < 0.2:
        temporal_actions = (TemporalAction("t", ("a", "b")),)

    init = frozenset(f for f in ordinary if rng.random() < 0.35)
    goal = frozenset(f for f in ordinary if rng.random() < 0.5)

    domain = Domain(
        fluents,
        tuple(skills),
        1,
        frozenset(interference),
        temporal_actions,
        init,
        goal,
    )
    assert validate_domain(domain) == []
    return domain


def random_small_model(rng: random.Random) -> CspModel:
    """A raw constraint model small enough for the enumeration guard."""
    m = CspModel()
    n_bools = rng.randrange(2, 6)
    n_ints = rng.randrange(1, 4)
    for i in range(n_bools):
        m.new_bool(f"x{i}")
    for i in range(n_ints):
        lo = rng.randrange(0, 3)
        m.new_int(f"v{i}", lo, lo + rng.randrange(1, 4))
    blit = lambda: Lit(rng.randrange(n_bools), rng.random() < 0.5)

    def atom():
        if rng.random() < 0.5:
            return blit()
        var = rng.randrange(n_ints)
        lo, hi = m.int_decls[var][1], m.int_decls[var][2]
        op = rng.choice((LE, "ge", EQ))
        return Cmp(var, op, rng.randrange(lo, hi + 1))

    def lin():
        terms = []
        for _ in range(rng.randrange(1, 4)):
            coef = rng.choice((-2, -1, 1, 2))
            if rng.random() < 0.4:
                terms.append(Term(coef, BOOL, rng.randrange(n_bools)))
            else:
                terms.append(Term(coef, INT, rng.randrange(n_ints)))
        op = LE if rng.random() < 0.7 else EQ
        return Lin(tuple(terms), op, rng.randrange(-3, 7))

    for _ in range(rng.randrange(2, 8)):
        kind = rng.random()
        if kind < 0.3:
            m.add(Clause(tuple(blit() for _ in range(rng.randrange(1, 4)))))
        elif kind < 0.55:
            m.add(lin())
        elif kind < 0.75:
            m.add(Implies(tuple(atom() for _ in range(rng.randrange(1, 3))), lin()))
        elif kind < 0.9:
            m.add(IffConj(blit(), tuple(atom() for _ in range(rng.randrange(1, 3)))))
        else:
            # exactly one true literal, a negated literal -b counting as 1 - b
            lits = [blit() for _ in range(rng.randrange(1, 4))]
            terms = tuple(Term(1 if lit.val else -1, BOOL, lit.var) for lit in lits)
            m.add(Lin(terms, EQ, 1 - sum(not lit.val for lit in lits)))
    if rng.random() < 0.5:
        terms = []
        for _ in range(rng.randrange(1, 3)):
            if rng.random() < 0.5:
                terms.append(Term(rng.choice((1, 2, 3)), BOOL, rng.randrange(n_bools)))
            else:
                terms.append(Term(rng.choice((1, 2)), INT, rng.randrange(n_ints)))
        m.minimize(terms)
    return m
