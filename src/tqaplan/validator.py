"""Independent semantic plan checking against interval-logic semantics, and
an exhaustive model enumerator used as the encoder's ground-truth oracle.

No constraint-model machinery is consulted.  Each fluent is read as its
maximal constant-truth segments, and every rule is a relation between those
segments and action intervals in the Allen algebra of ``intervals``; the
cost follows the number of entries, not the length of the horizon.

Boundary context: for the window rules a fluent gains one virtual tick
before time 0 that is true iff the fluent is an initial condition, and one
after the plan's end that is true iff it is a goal (the same before/after
context the theory's boundary intervals provide).  All context coordinates
are shifted by +1 so that the virtual tick before 0 is ``[0, 1)``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .domain import ConstraintRel, Domain, Skill, SkillKind, lowers, raises_of
from .intervals import AllenRelation, CompositeRelation, Interval, allen_relation, holds_composite
from .search import ActionKey, Plan, Segment, diagram_from_plan, merge_segments, stage_entries
from .solver import GuardExceededError
from .theory import instantiate


@dataclass(frozen=True)
class Violation:
    rule: str
    subjects: tuple[str, ...]
    message: str

    def __str__(self) -> str:
        return f"[{self.rule}] {self.message}"


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def verdict(self) -> str:
        return "valid" if not self.violations else "invalid"

    @property
    def is_valid(self) -> bool:
        return not self.violations


# -- rules on maximal segments, shared by validation and enumeration ---------


def _true_intervals(segments: Sequence[Segment]) -> list[Interval]:
    return [seg.interval for seg in segments if seg.truth]


def _context(true: Sequence[Interval], total: int, in_init: bool, in_goal: bool) -> list[Interval]:
    """True segments in boundary-context coordinates (see module docstring)."""
    pieces = [Segment(True, Interval(iv.left + 1, iv.right + 1)) for iv in true]
    if in_init:
        pieces.append(Segment(True, Interval(0, 1)))
    if in_goal:
        pieces.append(Segment(True, Interval(total + 1, total + 2)))
    return [seg.interval for seg in merge_segments(pieces)]


def _window_ok(rel: ConstraintRel, context: Sequence[Interval], start: int, end: int) -> bool:
    """contains: a true segment strictly contains the action, context ticks
    included.  overlaps: a true segment overlaps the action from the left
    and no other rises and falls again inside it.  equals: a true segment is
    exactly the action with one-tick insets."""
    if rel is ConstraintRel.EQUALS:
        if end - start < 3:
            return False
        inset = Interval(start + 2, end)
        return any(allen_relation(seg, inset) is AllenRelation.EQUAL for seg in context)
    action = Interval(start + 1, end + 1)
    relations = {allen_relation(seg, action) for seg in context}
    if rel is ConstraintRel.CONTAINS:
        return AllenRelation.CONTAINS in relations
    return AllenRelation.OVERLAPS in relations and AllenRelation.DURING not in relations


def _unjustified(
    true: Sequence[Interval],
    total: int,
    raisers: Sequence[Interval],
    lowerers: Sequence[Interval],
) -> tuple[list[int], list[int]]:
    """Rises and falls (tick boundaries inside the plan) that lie strictly
    inside no raiser, respectively lowerer, span."""

    def covered(x: int, spans: Sequence[Interval]) -> bool:
        around = Interval(x - 1, x + 1)
        return any(holds_composite(CompositeRelation.SUBINTERVAL, span, around) for span in spans)

    rises = [iv.left for iv in true if iv.left > 0 and not covered(iv.left, raisers)]
    falls = [iv.right for iv in true if iv.right < total and not covered(iv.right, lowerers)]
    return rises, falls


def _first_shared_tick(a: Sequence[Interval], b: Sequence[Interval]) -> Optional[int]:
    """Earliest tick where two fluents are both true, if any."""
    return min(
        (
            max(x.left, y.left)
            for x in a
            for y in b
            if not holds_composite(CompositeRelation.DISJOINT, x, y)
        ),
        default=None,
    )


def _coverage_fault(fluent: str, segments: Sequence[Segment], total: int) -> Optional[str]:
    """The segments must tile [0, total) without gaps or conflicting truth."""
    reach = 0
    for seg in segments:
        if seg.interval.left > reach:
            break
        if seg.interval.left < reach:
            return f"conflicting truth for {fluent!r} from time {seg.interval.left}"
        reach = seg.interval.right
    if reach < total:
        return f"no truth recorded for {fluent!r} at time {reach}"
    return None


def _mover_spans(d: Domain, fluent: str, skill_entries) -> tuple[list[Interval], list[Interval]]:
    """Spans of the skill entries that can raise, and that can lower, the fluent."""
    raisers = [iv for key, iv in skill_entries if fluent in raises_of(d, key.name)]
    lowerers = [iv for key, iv in skill_entries if fluent in lowers(d, key.name)]
    return raisers, lowerers


# -- full plan validation ------------------------------------------------------


def validate_plan(d: Domain, plan: Plan) -> ValidationReport:
    """Check a plan against initial/terminal conditions, frame justification,
    the per-skill temporal constraints, interference, durations, copy
    disjointness, and temporal-action chaining."""
    report = ValidationReport()
    add = report.violations.append
    skill_by_name = d.skill_map()
    ta_by_name = {t.name: t for t in d.temporal_actions}
    declared = set(d.fluent_map())
    total = plan.end_time

    for key, (truth, left, right) in plan.fluent_entries.items():
        if key.fluent not in declared:
            add(Violation("unknown-symbol", (key.fluent,), f"undeclared fluent {key.fluent!r}"))
        if not 0 <= left < right <= total:
            add(
                Violation(
                    "entry-shape",
                    (key.fluent,),
                    f"fluent entry [{left}, {right}) outside [0, {total})",
                )
            )
    for key, (start, end) in plan.action_entries.items():
        if key.name not in skill_by_name and key.name not in ta_by_name:
            add(Violation("unknown-symbol", (key.name,), f"undeclared action {key.name!r}"))
        elif not 1 <= key.actor <= d.actors:
            add(Violation("unknown-symbol", (key.label(),), f"actor {key.actor} out of range"))
        elif key.name in skill_by_name:
            allowed = skill_by_name[key.name].actors
            if allowed is not None and key.actor not in allowed:
                add(
                    Violation(
                        "unknown-symbol",
                        (key.label(),),
                        f"skill {key.name!r} not available to actor {key.actor}",
                    )
                )
        if not 0 <= start < end <= total:
            add(
                Violation(
                    "entry-shape",
                    (key.label(),),
                    f"action interval [{start}, {end}) outside [0, {total})",
                )
            )
    if report.violations:
        return report

    diagram = diagram_from_plan(plan)
    for fluent in sorted(declared):
        fault = _coverage_fault(fluent, diagram.fluents.get(fluent, ()), total)
        if fault is not None:
            add(Violation("timeline-coverage", (fluent,), fault))
            return report
    true = {fluent: _true_intervals(diagram.fluents[fluent]) for fluent in declared}

    for fluent in sorted(declared):
        segments = diagram.fluents[fluent]
        if fluent in d.init and not segments[0].truth:
            add(Violation("initial-condition", (fluent,), f"{fluent!r} must start true"))
        if fluent not in d.init and segments[0].truth:
            add(
                Violation(
                    "initial-condition",
                    (fluent,),
                    f"{fluent!r} is not an initial condition but starts true",
                )
            )
        if fluent in d.goal and not segments[-1].truth:
            add(Violation("terminal-condition", (fluent,), f"{fluent!r} must end true"))

    skill_entries = [
        (key, Interval(*span))
        for key, span in sorted(plan.action_entries.items(), key=lambda kv: kv[0].label())
        if key.name in skill_by_name
    ]
    for fluent in sorted(declared):
        rises, falls = _unjustified(
            true[fluent], total, *_mover_spans(d, fluent, skill_entries)
        )
        for x in rises:
            add(
                Violation(
                    "frame",
                    (fluent,),
                    f"rise of {fluent!r} at time {x} has no covering raiser",
                )
            )
        for x in falls:
            add(
                Violation(
                    "frame",
                    (fluent,),
                    f"fall of {fluent!r} at time {x} has no covering lowerer",
                )
            )

    contexts = {
        fluent: _context(true[fluent], total, fluent in d.init, fluent in d.goal)
        for fluent in declared
    }
    messages = {
        ConstraintRel.CONTAINS: "does not strictly contain {}",
        ConstraintRel.OVERLAPS: "does not overlap {} from the left",
        ConstraintRel.EQUALS: "does not mirror {} with one-tick insets",
    }
    for key, span in skill_entries:
        start, end = span.left, span.right
        skill = skill_by_name[key.name]
        if skill.kind is SkillKind.DELAY and end - start != skill.duration:
            add(
                Violation(
                    "duration",
                    (key.label(),),
                    f"delay {key.name!r} spans {end - start}, declared {skill.duration}",
                )
            )
        for spec in skill.constraints:
            if not _window_ok(spec.rel, contexts[spec.fluent], start, end):
                add(
                    Violation(
                        spec.rel.value,
                        (key.label(), spec.fluent),
                        f"{spec.fluent!r} " + messages[spec.rel].format(key.label()),
                    )
                )

    for first, second in sorted(d.interference):
        clash = _first_shared_tick(true[first], true[second])
        if clash is not None:
            add(
                Violation(
                    "interference",
                    (first, second),
                    f"{first!r} and {second!r} are both true at time {clash}",
                )
            )

    by_ground: dict[tuple[str, int], list] = {}
    for key, span in plan.action_entries.items():
        by_ground.setdefault((key.name, key.actor), []).append(span)
    for (name, actor), spans in sorted(by_ground.items()):
        spans.sort()
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            if e1 > s2:
                add(
                    Violation(
                        "self-overlap",
                        (f"{name}@{actor}",),
                        f"two copies of {name}@{actor} overlap: [{s1},{e1}) and [{s2},{e2})",
                    )
                )

    in_parent = {
        skill_name: ta.name for ta in d.temporal_actions for skill_name in ta.skills
    }
    for key, (start, end) in plan.action_entries.items():
        ta = ta_by_name.get(key.name)
        if ta is not None:
            cursor = start
            for skill_name in ta.skills:
                comp_key = ActionKey(skill_name, key.actor, key.copy)
                comp = plan.action_entries.get(comp_key)
                if comp is None:
                    add(
                        Violation(
                            "temporal-chain",
                            (key.label(), skill_name),
                            f"{key.label()} lacks component {skill_name!r}",
                        )
                    )
                    cursor = None
                    break
                if comp[0] != cursor:
                    add(
                        Violation(
                            "temporal-chain",
                            (key.label(), skill_name),
                            f"component {skill_name!r} starts at {comp[0]}, expected {cursor}",
                        )
                    )
                cursor = comp[1]
            if cursor is not None and cursor != end:
                add(
                    Violation(
                        "temporal-chain",
                        (key.label(),),
                        f"components of {key.label()} end at {cursor}, parent ends at {end}",
                    )
                )
        elif key.name in in_parent:
            parent_key = ActionKey(in_parent[key.name], key.actor, key.copy)
            if parent_key not in plan.action_entries:
                add(
                    Violation(
                        "temporal-chain",
                        (key.label(),),
                        f"component {key.label()} runs without parent {in_parent[key.name]!r}",
                    )
                )

    return report


# -- exhaustive semantic enumeration -----------------------------------------


@dataclass
class EnumerationOutcome:
    status: str  # "sat" | "unsat"
    witness: Optional[Plan] = None
    objective: Optional[int] = None  # best makespan over valid candidates

    @property
    def is_sat(self) -> bool:
        return self.status == "sat"


def _flows(n: int, boundaries, in_init: bool, in_goal: bool) -> list[tuple]:
    """All stage-aligned truth profiles of one fluent that start as the
    initial condition says and end true if it is a goal: per stage either
    constant or one interior transition (needs two ticks of room).  Each is
    (stages, true segments, boundary context), stages a list of (v, w, split)."""
    total = boundaries[-1]
    out = []

    def rec(t: int, value: bool, stages: list):
        if t > n:
            pieces = []
            for u, (v, w, split) in enumerate(stages, start=1):
                if split > boundaries[u - 1]:
                    pieces.append(Segment(v, Interval(boundaries[u - 1], split)))
                pieces.append(Segment(w, Interval(split, boundaries[u])))
            segments = merge_segments(pieces)
            if in_goal and not segments[-1].truth:
                return
            true = _true_intervals(segments)
            out.append((tuple(stages), true, _context(true, total, in_init, in_goal)))
            return
        lo, hi = boundaries[t - 1], boundaries[t]
        rec(t + 1, value, stages + [(value, value, lo)])
        for split in range(lo + 1, hi):
            rec(t + 1, not value, stages + [(value, not value, split)])

    rec(1, in_init, [])
    return out


def _count_flow_sequences(n: int, boundaries) -> int:
    count = 1
    for t in range(1, n + 1):
        count *= boundaries[t] - boundaries[t - 1]
    return count


def _span_sets(n: int, cap: int):
    """Ordered disjoint stage spans (l, r) with 1 <= l < r <= n + 1, at most
    cap of them; the empty set means the action never runs."""
    singles = [(l, r) for l in range(1, n + 1) for r in range(l + 1, n + 2)]

    def rec(min_l: int, left: int):
        yield ()
        if left == 0:
            return
        for l, r in singles:
            if l >= min_l:
                for rest in rec(r, left - 1):
                    yield ((l, r),) + rest

    yield from rec(1, cap)


def _duration_fits(skill: Skill, boundaries, span) -> bool:
    """A delay's span lasts its duration.  Any span fits a timer: it covers
    a stage, and boundaries strictly increase."""
    l, r = span
    return skill.kind is not SkillKind.DELAY or boundaries[r - 1] - boundaries[l - 1] == skill.duration


def _compositions(stages: int, parts: int):
    if parts == 1:
        yield (stages,)
        return
    for head in range(1, stages - parts + 2):
        for rest in _compositions(stages - head, parts - 1):
            yield (head,) + rest


def enumerate_models(
    d: Domain,
    n_stages: int,
    copy_cap: Optional[int] = None,
    horizon: Optional[int] = None,
    objective: str = "none",
    guard: int = 1 << 22,
) -> EnumerationOutcome:
    """Enumerate every stage-aligned candidate plan in the bounded universe
    and keep those that validate; with objective="makespan" the best
    makespan over valid candidates is reported.

    This is the semantic ground truth the encoder is tested against; it
    shares only the validation rules, never the constraint encoding.
    """
    # the theory's preconditions, defaults and ground actions; the index
    # tables it also builds are never read here
    shape = instantiate(d, n_stages, copy_cap, horizon)
    if objective not in ("none", "makespan"):
        raise ValueError("enumeration supports objective 'none' or 'makespan'")

    n, cap, horizon, actions = n_stages, shape.copy_cap, shape.horizon, shape.actions
    skill_by_name, ta_by_name = shape.skill_by_name, shape.temporal_by_name
    in_parent = {name for ta in d.temporal_actions for name in ta.skills}
    fluents = shape.fluent_names

    boundary_vectors = [
        (0,) + combo for combo in itertools.combinations(range(1, horizon + 1), n)
    ]

    def action_options(ref, boundaries):
        """Per ground action: list of copy tuples (l, r, start, end).
        Temporal actions enumerate their internal component partitions; the
        result maps every involved ground action to its entries."""
        if ref.kind == "skill":
            if ref.name in in_parent:
                return None  # components follow their parent
            skill = skill_by_name[ref.name]
            options = []
            for spans in _span_sets(n, cap):
                if all(_duration_fits(skill, boundaries, s) for s in spans):
                    entries = {
                        ActionKey(ref.name, ref.actor, k + 1): (
                            boundaries[s[0] - 1],
                            boundaries[s[1] - 1],
                        )
                        for k, s in enumerate(spans)
                    }
                    options.append(entries)
            return options
        ta = ta_by_name[ref.name]
        comps = [skill_by_name[name] for name in ta.skills]
        options = []
        for spans in _span_sets(n, cap):
            for partition in _partitions_for(spans, comps, boundaries):
                entries = {}
                for k, (span, comp_spans) in enumerate(zip(spans, partition)):
                    key = ActionKey(ref.name, ref.actor, k + 1)
                    entries[key] = (
                        boundaries[span[0] - 1],
                        boundaries[span[1] - 1],
                    )
                    for comp, cspan in zip(comps, comp_spans):
                        entries[ActionKey(comp.name, ref.actor, k + 1)] = (
                            boundaries[cspan[0] - 1],
                            boundaries[cspan[1] - 1],
                        )
                options.append(entries)
        return options

    def _partitions_for(spans, comps, boundaries):
        """Component stage-spans chaining across each parent span."""
        if not spans:
            yield ()
            return
        per_span = []
        for l, r in spans:
            choices = []
            for comp_sizes in _compositions(r - l, len(comps)):
                cursor = l
                comp_spans = []
                ok = True
                for comp, size in zip(comps, comp_sizes):
                    cspan = (cursor, cursor + size)
                    if not _duration_fits(comp, boundaries, cspan):
                        ok = False
                        break
                    comp_spans.append(cspan)
                    cursor += size
                if ok:
                    choices.append(tuple(comp_spans))
            per_span.append(choices)
        yield from itertools.product(*per_span)

    # guard: count the bounded universe before enumerating
    total_candidates = 0
    per_b_options: dict[tuple, list] = {}
    for boundaries in boundary_vectors:
        option_lists = []
        for ref in actions:
            opts = action_options(ref, boundaries)
            if opts is not None:
                option_lists.append(opts)
        per_b_options[boundaries] = option_lists
        combos = 1
        for opts in option_lists:
            combos *= len(opts)
        flows = 1
        for _ in fluents:
            flows *= _count_flow_sequences(n, boundaries)
        total_candidates += combos * flows
        if total_candidates > guard:
            raise GuardExceededError(
                f"candidate universe exceeds guard {guard} (at least {total_candidates})"
            )

    best_makespan: Optional[int] = None
    best_witness: Optional[Plan] = None
    flow_cache: dict[tuple, list[tuple]] = {}

    for boundaries in boundary_vectors:
        total = boundaries[-1]
        for chosen in itertools.product(*per_b_options[boundaries]):
            # copies of one ground action never overlap: _span_sets yields
            # ordered disjoint spans, and a component follows only its parent
            entries: dict[ActionKey, tuple[int, int]] = {}
            for part in chosen:
                entries.update(part)
            makespan = max((end for _, end in entries.values()), default=0)
            if (
                objective == "makespan"
                and best_makespan is not None
                and makespan >= best_makespan
            ):
                continue

            skill_entries = [
                (key, Interval(*span))
                for key, span in entries.items()
                if key.name in skill_by_name
            ]
            survivors: list[list] = []
            for fluent in fluents:
                raisers, lowerers = _mover_spans(d, fluent, skill_entries)
                specs = [
                    (span.left, span.right, spec.rel)
                    for key, span in skill_entries
                    for spec in skill_by_name[key.name].constraints
                    if spec.fluent == fluent
                ]
                flow_key = (boundaries, fluent in d.init, fluent in d.goal)
                if flow_key not in flow_cache:
                    flow_cache[flow_key] = _flows(n, *flow_key)
                ok_flows = [
                    flow
                    for flow in flow_cache[flow_key]
                    if _unjustified(flow[1], total, raisers, lowerers) == ([], [])
                    and all(_window_ok(rel, flow[2], start, end) for start, end, rel in specs)
                ]
                if not ok_flows:
                    break
                survivors.append(ok_flows)
            if len(survivors) < len(fluents):
                continue

            combo = _compatible_combo(d, fluents, survivors)
            if combo is None:
                continue
            plan = _build_plan(fluents, combo, entries, boundaries, n)
            check = validate_plan(d, plan)
            if not check.is_valid:
                raise AssertionError(
                    f"enumeration produced an invalid witness: {check.violations}"
                )
            if objective == "none":
                return EnumerationOutcome("sat", plan)
            if best_makespan is None or makespan < best_makespan:
                best_makespan, best_witness = makespan, plan

    if best_witness is not None:
        return EnumerationOutcome("sat", best_witness, best_makespan)
    return EnumerationOutcome("unsat")


def _compatible_combo(d: Domain, fluents, survivors):
    """Pick one surviving flow per fluent such that interfering pairs are
    never co-true; first match in enumeration order."""
    index = {name: i for i, name in enumerate(fluents)}
    earlier_partners: dict[int, list[int]] = {i: [] for i in range(len(fluents))}
    for a, b in sorted(d.interference):
        ia, ib = index[a], index[b]
        lo, hi = min(ia, ib), max(ia, ib)
        earlier_partners[hi].append(lo)

    def rec(i: int, picked: list):
        if i == len(fluents):
            yield list(picked)
            return
        for flow in survivors[i]:
            if any(
                _first_shared_tick(picked[j][1], flow[1]) is not None
                for j in earlier_partners[i]
            ):
                continue
            picked.append(flow)
            yield from rec(i + 1, picked)
            picked.pop()

    return next(rec(0, []), None)


def _build_plan(fluents, combo, entries, boundaries, n) -> Plan:
    fluent_entries = {}
    for fluent, (stages, *_) in zip(fluents, combo):
        for t, stage in enumerate(stages, start=1):
            fluent_entries.update(stage_entries(fluent, t, boundaries, *stage))
    return Plan(fluent_entries, dict(entries), tuple(boundaries), n)
