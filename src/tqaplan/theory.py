"""Bounded-theory instantiation: ground actions, copy ranges, and the
variable index tables shared by the encoder and the decoder.

Variables are numbered in stage-indexed blocks so that the tables for
``n_stages = N`` extend those for ``N - 1`` as a prefix; ids are stable
across growing horizons.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from .domain import Domain, Skill, TemporalAction, check_references, validate_domain


class InvalidDomainError(ValueError):
    def __init__(self, diagnostics):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = list(diagnostics)


@dataclass(frozen=True)
class ActionRef:
    """One ground action: a skill or temporal action assigned to an actor."""

    name: str
    actor: int
    kind: str  # "skill" | "temporal"

    def label(self) -> str:
        return f"{self.name}@{self.actor}"


FLOW_TAGS = ((0, 0), (0, 1), (1, 0), (1, 1))


@dataclass
class TheoryShape:
    domain: Domain
    n_stages: int
    copy_cap: int  # effective cap, already folded with max(1, n-1)
    horizon: int
    actions: tuple[ActionRef, ...] = ()
    bool_names: list[str] = field(default_factory=list)
    int_decls: list[tuple[str, int, int]] = field(default_factory=list)
    flow_id: dict[tuple[str, int, int, int], int] = field(default_factory=dict)
    use_id: dict[tuple[int, int], int] = field(default_factory=dict)
    left_id: dict[tuple[int, int], int] = field(default_factory=dict)
    right_id: dict[tuple[int, int], int] = field(default_factory=dict)
    start_id: dict[tuple[int, int], int] = field(default_factory=dict)
    end_id: dict[tuple[int, int], int] = field(default_factory=dict)
    boundary_id: dict[int, int] = field(default_factory=dict)
    split_id: dict[tuple[str, int], int] = field(default_factory=dict)
    action_id: dict[tuple[str, int], int] = field(default_factory=dict)
    skill_by_name: Mapping[str, Skill] = field(default_factory=dict)
    temporal_by_name: dict[str, TemporalAction] = field(default_factory=dict)

    @property
    def fluent_names(self) -> list[str]:
        return [f.name for f in self.domain.fluents]

    def copies(self) -> range:
        return range(1, self.copy_cap + 1)

    def skill_of(self, ref: ActionRef) -> Skill:
        return self.skill_by_name[ref.name]

    def temporal_of(self, ref: ActionRef) -> TemporalAction:
        return self.temporal_by_name[ref.name]

    def action_index(self, name: str, actor: int) -> int:
        ai = self.action_id.get((name, actor))
        if ai is None:
            raise KeyError(f"no ground action {name}@{actor}")
        return ai


def effective_copy_cap(requested: Optional[int], n_stages: int) -> int:
    """Copies run 1 <= k < N, except that a single-stage theory still admits
    one copy; a user cap only ever shrinks the range."""
    natural = max(1, n_stages - 1)
    if requested is None:
        return natural
    if requested < 1:
        raise ValueError(f"copy cap must be >= 1, got {requested}")
    return min(requested, natural)


def default_horizon(domain: Domain, n_stages: int) -> int:
    return n_stages * max(1, domain.max_delay())


def ground_actions(domain: Domain) -> tuple[ActionRef, ...]:
    refs = []
    for skill in domain.skills:
        actors = skill.actors if skill.actors is not None else tuple(range(1, domain.actors + 1))
        for j in actors:
            refs.append(ActionRef(skill.name, j, "skill"))
    for ta in domain.temporal_actions:
        for j in range(1, domain.actors + 1):
            refs.append(ActionRef(ta.name, j, "temporal"))
    return tuple(refs)


def instantiate(
    domain: Domain,
    n_stages: int,
    copy_cap: Optional[int] = None,
    horizon: Optional[int] = None,
) -> TheoryShape:
    """Build the index tables for the theory with ``n_stages`` dateline stages.

    Raises DomainFormatError on a duplicate name or a dangling reference,
    InvalidDomainError on a domain with diagnostics, ValueError on a
    non-positive stage count or a horizon smaller than the stage count.
    """
    check_references(domain)
    diags = validate_domain(domain)
    if diags:
        raise InvalidDomainError(diags)
    if n_stages < 1:
        raise ValueError(f"need at least one stage, got {n_stages}")
    if horizon is None:
        horizon = default_horizon(domain, n_stages)
    if horizon < n_stages:
        raise ValueError(f"horizon too small: {horizon} < {n_stages} stages of size >= 1")

    cap = effective_copy_cap(copy_cap, n_stages)
    shape = TheoryShape(domain, n_stages, cap, horizon, ground_actions(domain))
    n, h = n_stages, horizon
    fluents = shape.fluent_names
    shape.skill_by_name = domain.skill_map()
    # first match wins, as a scan in declaration order would find it
    for ai, ref in enumerate(shape.actions):
        shape.action_id.setdefault((ref.name, ref.actor), ai)
    for ta in domain.temporal_actions:
        shape.temporal_by_name.setdefault(ta.name, ta)

    def new_bool(name: str) -> int:
        shape.bool_names.append(name)
        return len(shape.bool_names) - 1

    def new_int(name: str, lo: int, hi: int) -> int:
        shape.int_decls.append((name, lo, hi))
        return len(shape.int_decls) - 1

    def cap_at(stages: int) -> int:
        if stages <= 0:
            return 0
        return min(cap, max(1, stages - 1))

    for t in range(1, n + 1):
        new_copies = range(cap_at(t - 1) + 1, cap_at(t) + 1)

        for name in fluents:
            for v, w in FLOW_TAGS:
                shape.flow_id[(name, t, v, w)] = new_bool(f"flow[{name},{t},{v}{w}]")
        for k in new_copies:
            for ai, ref in enumerate(shape.actions):
                shape.use_id[(ai, k)] = new_bool(f"u[{ref.label()},{k}]")

        if t == 1:
            # the encoder writes no row b[0] = 0; this domain says it
            shape.boundary_id[0] = new_int("b[0]", 0, 0)
        # the encoder writes no row b[N] <= h; this domain says it at t = N
        shape.boundary_id[t] = new_int(f"b[{t}]", t, h - (n - t))
        for name in fluents:
            shape.split_id[(name, t)] = new_int(f"s[{name},{t}]", t - 1, h - (n - t))
        for k in new_copies:
            for ai, ref in enumerate(shape.actions):
                label = f"{ref.label()},{k}"
                shape.left_id[(ai, k)] = new_int(f"l[{label}]", 1, n + 1)
                shape.right_id[(ai, k)] = new_int(f"r[{label}]", 0, n + 1)
                shape.start_id[(ai, k)] = new_int(f"S[{label}]", 0, h)
                shape.end_id[(ai, k)] = new_int(f"E[{label}]", 0, h)

    return shape
