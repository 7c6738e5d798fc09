"""Planning domain model: fluents, skills, interference, actors, boundary
conditions, plus strict JSON parsing and static validation."""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Any, Iterable, Mapping, Optional


class DomainFormatError(ValueError):
    """Raised when a domain document violates the schema; carries the field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class FluentRole(enum.Enum):
    ORDINARY = "ordinary"
    RESOURCE = "resource"


class SkillKind(enum.Enum):
    TIMER = "timer"
    DELAY = "delay"


class ConstraintRel(enum.Enum):
    """Temporal constraint a skill imposes between a fluent and its own interval.

    CONTAINS: the fluent's true window strictly contains the action interval.
    OVERLAPS: the fluent's true window overlaps the action interval from the
    left (true when the action starts, falls exactly once during it).
    EQUALS: resource fluents only; the fluent mirrors the action interval
    inset by one tick on each side.
    """

    CONTAINS = "contains"
    OVERLAPS = "overlaps"
    EQUALS = "equals"


@dataclass(frozen=True)
class Fluent:
    name: str
    role: FluentRole = FluentRole.ORDINARY


@dataclass(frozen=True)
class ConstraintSpec:
    fluent: str
    rel: ConstraintRel


@dataclass(frozen=True)
class Skill:
    name: str
    kind: SkillKind
    duration: Optional[int] = None  # delays only; timers take any size >= 1
    cost: Fraction = Fraction(0)
    constraints: tuple[ConstraintSpec, ...] = ()
    raises: frozenset[str] = frozenset()
    actors: Optional[tuple[int, ...]] = None  # None = every actor


@dataclass(frozen=True)
class TemporalAction:
    """A named sequence of skills that must execute back to back."""

    name: str
    skills: tuple[str, ...]


@dataclass(frozen=True)
class Domain:
    fluents: tuple[Fluent, ...] = ()
    skills: tuple[Skill, ...] = ()
    actors: int = 1
    interference: frozenset[tuple[str, str]] = frozenset()  # pairs stored sorted
    temporal_actions: tuple[TemporalAction, ...] = ()
    init: frozenset[str] = frozenset()
    goal: frozenset[str] = frozenset()

    def fluent_map(self) -> dict[str, Fluent]:
        return {f.name: f for f in self.fluents}

    def skill_map(self) -> Mapping[str, Skill]:
        """Skills by name: a read-only view of a table built once per domain."""
        return MappingProxyType(self._skill_by_name)

    def interferers(self, fluent: str) -> frozenset[str]:
        return self._interferers.get(fluent, frozenset())

    # Lookup tables, built on first use.  The fields are immutable, so a
    # table can never go stale; dataclass equality and hashing ignore them.

    @cached_property
    def _skill_by_name(self) -> dict[str, Skill]:
        return {s.name: s for s in self.skills}

    @cached_property
    def _interferers(self) -> dict[str, frozenset[str]]:
        out: dict[str, set[str]] = {}
        for a, b in self.interference:
            out.setdefault(a, set()).add(b)
            out.setdefault(b, set()).add(a)
        return {name: frozenset(names) for name, names in out.items()}

    @cached_property
    def _movers(self) -> dict[str, tuple[frozenset[str], frozenset[str]]]:
        """Per skill name, the fluents it can raise and those it can lower."""
        out = {}
        for s in self.skills:
            resources = equals_resources(s)
            raised = s.raises | resources
            lowered = set(resources)
            for fluent in raised:
                lowered.update(self.interferers(fluent))
            out[s.name] = (raised, frozenset(lowered))
        return out

    def max_delay(self) -> int:
        durations = [s.duration for s in self.skills if s.duration is not None]
        return max(durations, default=1)


@dataclass(frozen=True)
class Diagnostic:
    """One static-validation finding; ``rule`` names the violated assumption."""

    rule: str
    message: str

    def __str__(self) -> str:
        return f"[{self.rule}] {self.message}"


def _norm_pair(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


def _parse_cost(value: Any, path: str) -> Fraction:
    if isinstance(value, bool):
        raise DomainFormatError(path, "cost must be an integer or a 'p/q' string")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise DomainFormatError(path, f"not a rational: {value!r}") from None
    raise DomainFormatError(path, f"cost must be an integer or a 'p/q' string, got {value!r}")


def _expect_keys(obj: dict, allowed: Iterable[str], path: str) -> None:
    unknown = set(obj) - set(allowed)
    if unknown:
        raise DomainFormatError(path, f"unknown keys: {sorted(unknown)}")


def _expect_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise DomainFormatError(path, f"expected a list, got {type(value).__name__}")
    return value


def _expect_str(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise DomainFormatError(path, f"expected a string, got {type(value).__name__}")
    return value


# the top-level keys of a domain document
DOMAIN_KEYS = ("fluents", "actors", "skills", "interference", "temporal_actions", "init", "goal")


def read_document(text: str) -> Any:
    """The JSON value of a domain document's text: the one place that
    rejects text that is not JSON."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainFormatError("$", f"not valid JSON: {exc}") from None


def parse_domain(text: str) -> Domain:
    """Parse a domain document (strict: unknown keys are rejected)."""
    return domain_from_document(read_document(text))


def domain_from_document(doc: Any) -> Domain:
    """The domain a document's JSON value describes (strict: unknown keys
    are rejected).

    Top-level keys: fluents, actors, skills, interference, temporal_actions,
    init, goal; all optional with empty/1 defaults.
    """
    if not isinstance(doc, dict):
        raise DomainFormatError("$", "top level must be an object")
    _expect_keys(doc, DOMAIN_KEYS, "$")

    fluents = []
    for i, entry in enumerate(_expect_list(doc.get("fluents", []), "$.fluents")):
        path = f"$.fluents[{i}]"
        if isinstance(entry, str):
            fluents.append(Fluent(entry))
            continue
        if not isinstance(entry, dict):
            raise DomainFormatError(path, "expected a name or an object")
        _expect_keys(entry, ("name", "role"), path)
        name = _expect_str(entry.get("name"), f"{path}.name")
        role_text = entry.get("role", "ordinary")
        try:
            role = FluentRole(role_text)
        except ValueError:
            raise DomainFormatError(f"{path}.role", f"unknown role {role_text!r}") from None
        fluents.append(Fluent(name, role))

    actors = doc.get("actors", 1)
    if not isinstance(actors, int) or isinstance(actors, bool) or actors < 1:
        raise DomainFormatError("$.actors", f"expected a positive integer, got {actors!r}")

    skills = []
    for i, entry in enumerate(_expect_list(doc.get("skills", []), "$.skills")):
        path = f"$.skills[{i}]"
        if not isinstance(entry, dict):
            raise DomainFormatError(path, "expected an object")
        _expect_keys(
            entry, ("name", "kind", "duration", "cost", "actors", "constraints", "raises"), path
        )
        name = _expect_str(entry.get("name"), f"{path}.name")
        kind_text = entry.get("kind")
        try:
            kind = SkillKind(kind_text)
        except ValueError:
            raise DomainFormatError(f"{path}.kind", f"expected 'timer' or 'delay', got {kind_text!r}") from None
        duration = entry.get("duration")
        if kind is SkillKind.DELAY and duration is None:
            raise DomainFormatError(f"{path}.duration", "duration required for delay skills")
        if kind is SkillKind.TIMER and duration is not None:
            raise DomainFormatError(f"{path}.duration", "timers take no fixed duration")
        if duration is not None and (not isinstance(duration, int) or isinstance(duration, bool)):
            raise DomainFormatError(f"{path}.duration", f"expected an integer, got {duration!r}")
        cost = _parse_cost(entry.get("cost", 0), f"{path}.cost")
        skill_actors = entry.get("actors")
        if skill_actors is not None:
            parsed_actors = []
            for v in _expect_list(skill_actors, f"{path}.actors"):
                if not isinstance(v, int) or isinstance(v, bool):
                    raise DomainFormatError(f"{path}.actors", f"expected integers, got {v!r}")
                parsed_actors.append(v)
            skill_actors = tuple(parsed_actors)
        constraints = []
        for j, spec in enumerate(_expect_list(entry.get("constraints", []), f"{path}.constraints")):
            spec_path = f"{path}.constraints[{j}]"
            if not isinstance(spec, dict):
                raise DomainFormatError(spec_path, "expected an object")
            _expect_keys(spec, ("fluent", "rel"), spec_path)
            target = _expect_str(spec.get("fluent"), f"{spec_path}.fluent")
            rel_text = spec.get("rel")
            try:
                rel = ConstraintRel(rel_text)
            except ValueError:
                raise DomainFormatError(
                    f"{spec_path}.rel", f"expected contains|overlaps|equals, got {rel_text!r}"
                ) from None
            constraints.append(ConstraintSpec(target, rel))
        raises = frozenset(
            _expect_str(v, f"{path}.raises[{j}]")
            for j, v in enumerate(_expect_list(entry.get("raises", []), f"{path}.raises"))
        )
        skills.append(
            Skill(name, kind, duration, cost, tuple(constraints), raises, skill_actors)
        )

    interference = set()
    for i, entry in enumerate(_expect_list(doc.get("interference", []), "$.interference")):
        path = f"$.interference[{i}]"
        pair = _expect_list(entry, path)
        if len(pair) != 2:
            raise DomainFormatError(path, f"expected a pair, got {len(pair)} elements")
        interference.add(_norm_pair(_expect_str(pair[0], path), _expect_str(pair[1], path)))

    temporal_actions = []
    for i, entry in enumerate(_expect_list(doc.get("temporal_actions", []), "$.temporal_actions")):
        path = f"$.temporal_actions[{i}]"
        if not isinstance(entry, dict):
            raise DomainFormatError(path, "expected an object")
        _expect_keys(entry, ("name", "skills"), path)
        name = _expect_str(entry.get("name"), f"{path}.name")
        seq = tuple(
            _expect_str(v, f"{path}.skills[{j}]")
            for j, v in enumerate(_expect_list(entry.get("skills", []), f"{path}.skills"))
        )
        temporal_actions.append(TemporalAction(name, seq))

    init = frozenset(
        _expect_str(v, f"$.init[{i}]") for i, v in enumerate(_expect_list(doc.get("init", []), "$.init"))
    )
    goal = frozenset(
        _expect_str(v, f"$.goal[{i}]") for i, v in enumerate(_expect_list(doc.get("goal", []), "$.goal"))
    )

    domain = Domain(
        tuple(fluents), tuple(skills), actors, frozenset(interference),
        tuple(temporal_actions), init, goal,
    )
    check_references(domain)
    return domain


def check_references(d: Domain) -> None:
    """Reject duplicate names and dangling references outright; softer
    structural issues go through validate_domain diagnostics.  parse_domain
    runs it on every document, instantiate and enumerate_models on every
    domain, however it was built."""
    fluent_names = [f.name for f in d.fluents]
    if len(set(fluent_names)) != len(fluent_names):
        dup = sorted({n for n in fluent_names if fluent_names.count(n) > 1})
        raise DomainFormatError("$.fluents", f"duplicate fluent names: {dup}")
    skill_names = [s.name for s in d.skills]
    if len(set(skill_names)) != len(skill_names):
        dup = sorted({n for n in skill_names if skill_names.count(n) > 1})
        raise DomainFormatError("$.skills", f"duplicate skill names: {dup}")
    ta_names = [t.name for t in d.temporal_actions]
    if len(set(ta_names)) != len(ta_names) or set(ta_names) & set(skill_names):
        raise DomainFormatError("$.temporal_actions", "temporal action names must be fresh and unique")
    declared = set(fluent_names)
    for s in d.skills:
        for spec in s.constraints:
            if spec.fluent not in declared:
                raise DomainFormatError(
                    f"$.skills[{s.name}].constraints", f"unknown fluent {spec.fluent!r}"
                )
        for name in s.raises:
            if name not in declared:
                raise DomainFormatError(f"$.skills[{s.name}].raises", f"unknown fluent {name!r}")
    for a, b in d.interference:
        for name in (a, b):
            if name not in declared:
                raise DomainFormatError("$.interference", f"unknown fluent {name!r}")
    skill_set = set(skill_names)
    for ta in d.temporal_actions:
        for name in ta.skills:
            if name not in skill_set:
                raise DomainFormatError(
                    f"$.temporal_actions[{ta.name}]", f"unknown skill {name!r}"
                )
    for name in d.init | d.goal:
        if name not in declared:
            raise DomainFormatError("$.init/goal", f"unknown fluent {name!r}")


def serialize_domain(d: Domain) -> str:
    """Canonical JSON form; parse_domain(serialize_domain(d)) == d."""
    doc = {
        "fluents": [{"name": f.name, "role": f.role.value} for f in d.fluents],
        "actors": d.actors,
        "skills": [
            {
                "name": s.name,
                "kind": s.kind.value,
                **({"duration": s.duration} if s.duration is not None else {}),
                "cost": str(s.cost) if s.cost.denominator != 1 else s.cost.numerator,
                **({"actors": list(s.actors)} if s.actors is not None else {}),
                "constraints": [{"fluent": c.fluent, "rel": c.rel.value} for c in s.constraints],
                "raises": sorted(s.raises),
            }
            for s in d.skills
        ],
        "interference": [list(p) for p in sorted(d.interference)],
        "temporal_actions": [
            {"name": t.name, "skills": list(t.skills)} for t in d.temporal_actions
        ],
        "init": sorted(d.init),
        "goal": sorted(d.goal),
    }
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


def validate_domain(d: Domain) -> list[Diagnostic]:
    """Check the structural assumptions; an empty list means the domain is
    ready for theory instantiation."""
    out: list[Diagnostic] = []
    roles = {f.name: f.role for f in d.fluents}

    # names become parts of constraint-model variable names, which are
    # whitespace-free
    named = (("fluent", d.fluents), ("skill", d.skills), ("temporal action", d.temporal_actions))
    for kind, items in named:
        for item in items:
            if any(map(str.isspace, item.name)):
                out.append(
                    Diagnostic("name-without-whitespace", f"{kind} {item.name!r} contains whitespace")
                )

    for s in d.skills:
        if s.kind is SkillKind.DELAY:
            if s.duration is None or s.duration < 1:
                out.append(
                    Diagnostic(
                        "finite-positive-duration",
                        f"delay skill {s.name!r} needs an integer duration >= 1, got {s.duration!r}",
                    )
                )
        elif s.duration is not None:
            out.append(
                Diagnostic(
                    "timer-no-duration", f"timer skill {s.name!r} must not fix a duration"
                )
            )
        if s.cost < 0:
            out.append(Diagnostic("non-negative-cost", f"skill {s.name!r} has cost {s.cost}"))
        for spec in s.constraints:
            if spec.rel is ConstraintRel.EQUALS and roles.get(spec.fluent) is not FluentRole.RESOURCE:
                out.append(
                    Diagnostic(
                        "equals-needs-resource",
                        f"skill {s.name!r} equates non-resource fluent {spec.fluent!r}",
                    )
                )
        if s.actors is not None:
            bad = [j for j in s.actors if not 1 <= j <= d.actors]
            if bad:
                out.append(
                    Diagnostic("actor-range", f"skill {s.name!r} names actors {bad} outside 1..{d.actors}")
                )
            if not s.actors:
                out.append(Diagnostic("actor-range", f"skill {s.name!r} restricts to no actor"))

    for a, b in d.interference:
        if a == b:
            out.append(Diagnostic("interference-irreflexive", f"fluent {a!r} interferes with itself"))

    for name in sorted(d.init | d.goal):
        if roles.get(name) is FluentRole.RESOURCE:
            out.append(
                Diagnostic(
                    "boundary-ordinary-only",
                    f"resource fluent {name!r} cannot appear in init or goal",
                )
            )

    seen_in_ta: dict[str, str] = {}
    skill_by_name = d.skill_map()
    for ta in d.temporal_actions:
        if not ta.skills:
            out.append(Diagnostic("temporal-action-nonempty", f"{ta.name!r} aggregates no skills"))
        if len(set(ta.skills)) != len(ta.skills):
            out.append(
                Diagnostic(
                    "skill-single-aggregate", f"{ta.name!r} repeats a skill in its sequence"
                )
            )
        for name in ta.skills:
            if name in seen_in_ta and seen_in_ta[name] != ta.name:
                out.append(
                    Diagnostic(
                        "skill-single-aggregate",
                        f"skill {name!r} appears in both {seen_in_ta[name]!r} and {ta.name!r}",
                    )
                )
            seen_in_ta[name] = ta.name
            skill = skill_by_name.get(name)
            if skill is not None and skill.actors is not None:
                out.append(
                    Diagnostic(
                        "temporal-action-actors",
                        f"skill {name!r} in {ta.name!r} must be available to every actor",
                    )
                )

    return out


def equals_resources(skill: Skill) -> frozenset[str]:
    return frozenset(c.fluent for c in skill.constraints if c.rel is ConstraintRel.EQUALS)


def raises_of(d: Domain, skill_name: str) -> frozenset[str]:
    """Fluents the skill can push to true: declared raises plus any
    equality-bound resources (those toggle both ways inside the action)."""
    return d._movers[skill_name][0]


def lowers(d: Domain, skill_name: str) -> frozenset[str]:
    """Fluents the skill can push to false: everything interfering with a
    raised fluent, plus equality-bound resources."""
    movers = d._movers.get(skill_name)
    if movers is None:
        raise KeyError(f"unknown skill: {skill_name!r}")
    return movers[1]
