"""Required-concurrency benchmark generator.

The base gadget coordinates three skills: a1 opens a resource window w1,
a2 opens w2 while overlapping w1 from inside it, and a3 must run strictly
inside both windows; a per-copy goal fluent raised by a3 forces every copy
to execute.

Default durations (a1=8, a2=6, a3=2) are the smallest making the shape
feasible with strict containment and the one-tick window insets: a window
strictly containing a k-tick action needs k+2 ticks, windows lose two ticks
to the insets, and an action hosting a fluent rise needs an interior time
point, hence at least two ticks.

Type I instances are disjoint copies of the gadget.  Type II stacks copies:
each level's a3 carries an extra window that must strictly contain the next
level's a1, so durations grow by 10 per level outward.  Type III adds
sequencing fluents between consecutive stacks' top-level a1 skills, forcing
their starts into a total order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .domain import (
    ConstraintRel,
    ConstraintSpec,
    Domain,
    Fluent,
    FluentRole,
    Skill,
    SkillKind,
    validate_domain,
)

BASE_DURATIONS = (8, 6, 2)  # a1, a2, a3 at the innermost level
STACK_STEP = 10  # duration growth per level of nesting


@dataclass(frozen=True)
class GadgetSpec:
    bench_type: str  # "I" | "II" | "III"
    copies: int
    height: Optional[int] = None  # stack levels, Type II/III only

    def __post_init__(self) -> None:
        if self.bench_type not in ("I", "II", "III"):
            raise ValueError(f"bench type must be I, II or III, got {self.bench_type!r}")
        if self.copies < 1:
            raise ValueError(f"copies must be at least 1, got {self.copies}")
        if self.bench_type == "I":
            if self.height is not None:
                raise ValueError(f"height must be unset for Type I, got {self.height}")
        else:
            if self.height is None or not 2 <= self.height <= 8:
                raise ValueError(f"height must be in [2, 8] for Type II/III, got {self.height}")


def level_durations(depth_below: int) -> tuple[int, int, int]:
    """Durations for a gadget with `depth_below` nested levels inside it."""
    a1, a2, a3 = BASE_DURATIONS
    step = depth_below * STACK_STEP
    return (a1 + step, a2 + step, a3 + step)


def _gadget(tag: str, durations: tuple[int, int, int]) -> tuple[list[Fluent], list[Skill]]:
    d1, d2, d3 = durations
    w1, w2, goal = f"w1_{tag}", f"w2_{tag}", f"goal_{tag}"
    fluents = [
        Fluent(w1, FluentRole.RESOURCE),
        Fluent(w2, FluentRole.RESOURCE),
        Fluent(goal),
    ]
    skills = [
        Skill(
            f"a1_{tag}",
            SkillKind.DELAY,
            d1,
            Fraction(d1),
            (ConstraintSpec(w1, ConstraintRel.EQUALS),),
        ),
        Skill(
            f"a2_{tag}",
            SkillKind.DELAY,
            d2,
            Fraction(d2),
            (
                ConstraintSpec(w2, ConstraintRel.EQUALS),
                ConstraintSpec(w1, ConstraintRel.OVERLAPS),
            ),
        ),
        Skill(
            f"a3_{tag}",
            SkillKind.DELAY,
            d3,
            Fraction(d3),
            (
                ConstraintSpec(w1, ConstraintRel.CONTAINS),
                ConstraintSpec(w2, ConstraintRel.CONTAINS),
            ),
            frozenset({goal}),
        ),
    ]
    return fluents, skills


def gen_cushing(spec: GadgetSpec) -> Domain:
    """Generate the benchmark domain for the given spec; deterministic."""
    fluents: list[Fluent] = []
    skills: list[Skill] = []
    goal: set[str] = set()

    if spec.bench_type == "I":
        for i in range(1, spec.copies + 1):
            tag = f"g{i}"
            fl, sk = _gadget(tag, level_durations(0))
            fluents += fl
            skills += sk
            goal.add(f"goal_{tag}")
        domain = Domain(tuple(fluents), tuple(skills), 1, goal=frozenset(goal))
    else:
        height = spec.height
        link_contains: dict[str, str] = {}  # a1 skill name -> link fluent it sits in
        link_equals: dict[str, str] = {}  # a3 skill name -> link fluent it opens
        for stack in range(1, spec.copies + 1):
            for level in range(1, height + 1):
                tag = f"s{stack}l{level}"
                fl, sk = _gadget(tag, level_durations(height - level))
                fluents += fl
                skills += sk
                goal.add(f"goal_{tag}")
                if level < height:
                    link = f"link_{tag}"
                    fluents.append(Fluent(link, FluentRole.RESOURCE))
                    link_equals[f"a3_{tag}"] = link
                    link_contains[f"a1_s{stack}l{level + 1}"] = link
        seq_raises: dict[str, str] = {}
        seq_contains: dict[str, str] = {}
        if spec.bench_type == "III":
            for stack in range(1, spec.copies):
                seq = f"seq_{stack}"
                fluents.append(Fluent(seq))
                seq_raises[f"a1_s{stack}l1"] = seq
                seq_contains[f"a1_s{stack + 1}l1"] = seq

        rewired = []
        for skill in skills:
            constraints = list(skill.constraints)
            raises = set(skill.raises)
            if skill.name in link_equals:
                constraints.append(ConstraintSpec(link_equals[skill.name], ConstraintRel.EQUALS))
            if skill.name in link_contains:
                constraints.append(
                    ConstraintSpec(link_contains[skill.name], ConstraintRel.CONTAINS)
                )
            if skill.name in seq_raises:
                raises.add(seq_raises[skill.name])
            if skill.name in seq_contains:
                constraints.append(
                    ConstraintSpec(seq_contains[skill.name], ConstraintRel.CONTAINS)
                )
            rewired.append(
                Skill(
                    skill.name,
                    skill.kind,
                    skill.duration,
                    skill.cost,
                    tuple(constraints),
                    frozenset(raises),
                )
            )
        domain = Domain(tuple(fluents), tuple(rewired), 1, goal=frozenset(goal))

    diags = validate_domain(domain)
    if diags:
        raise AssertionError(f"generated domain failed validation: {diags}")
    return domain
