"""Outer search over the stage count, decoding of satisfying assignments
into plans and timing diagrams, and the plan document format."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .cpmodel import acyclic
from .domain import Domain
from .encoder import Encoder, cost_scale
from .intervals import Interval
from .solver import Assignment, Engine, check_budgets, solve
from .theory import TheoryShape, instantiate

FOUND, EXHAUSTED, RESOURCE_LIMIT = "found", "exhausted", "limit"


class PlanFormatError(ValueError):
    pass


@dataclass(frozen=True)
class FluentTqaKey:
    """One fluent sub-interval assertion: stage plus part (0 = opening
    sub-interval, 1 = closing; constant stages emit only part 1)."""

    fluent: str
    stage: int
    part: int


@dataclass(frozen=True)
class ActionKey:
    name: str
    actor: int
    copy: int

    def label(self) -> str:
        return f"{self.name}@{self.actor}#{self.copy}"


@dataclass
class Plan:
    """Partial map from TQA keys to (truth, start, end) triples."""

    fluent_entries: dict[FluentTqaKey, tuple[bool, int, int]]
    action_entries: dict[ActionKey, tuple[int, int]]
    boundaries: tuple[int, ...]
    n_used: int
    objective: Optional[Fraction] = None

    @property
    def end_time(self) -> int:
        return self.boundaries[-1]


@dataclass(frozen=True)
class Segment:
    truth: bool
    interval: Interval


@dataclass
class TimingDiagram:
    """Per-fluent maximal constant-truth segments plus action intervals."""

    fluents: dict[str, tuple[Segment, ...]]
    actions: tuple[tuple[ActionKey, Interval], ...]
    boundaries: tuple[int, ...]

    def true_segments(self, fluent: str) -> list[Interval]:
        return [s.interval for s in self.fluents[fluent] if s.truth]

    def action_interval(self, name: str, actor: int = 1, copy: int = 1) -> Interval:
        for key, interval in self.actions:
            if (key.name, key.actor, key.copy) == (name, actor, copy):
                return interval
        raise KeyError(f"no action entry {name}@{actor}#{copy}")


def stage_entries(fluent: str, t: int, boundaries, v: int, w: int, split: int):
    """The TQA entries of ``fluent`` at stage ``t`` with truth ``v`` before
    ``split`` and ``w`` after it: one part-1 entry over the whole stage when
    ``v == w`` (``split`` unread), else a part-0 and a part-1 entry."""
    left, right = boundaries[t - 1], boundaries[t]
    if v == w:
        return ((FluentTqaKey(fluent, t, 1), (bool(w), left, right)),)
    return (
        (FluentTqaKey(fluent, t, 0), (bool(v), left, split)),
        (FluentTqaKey(fluent, t, 1), (bool(w), split, right)),
    )


def decode(shape: TheoryShape, assignment: Assignment) -> tuple[Plan, TimingDiagram]:
    """Turn a satisfying assignment into per-stage TQA entries and the merged
    timing diagram.  Trips an assertion if the flow exactly-one invariant is
    broken (that would be a solver or encoder bug, not bad input)."""
    n = shape.n_stages
    boundaries = tuple(assignment.ints[shape.boundary_id[t]] for t in range(n + 1))
    fluent_entries: dict[FluentTqaKey, tuple[bool, int, int]] = {}
    for fluent in shape.fluent_names:
        for t in range(1, n + 1):
            tags = [
                (v, w)
                for v in (0, 1)
                for w in (0, 1)
                if assignment.bools[shape.flow_id[(fluent, t, v, w)]]
            ]
            if len(tags) != 1:
                raise AssertionError(
                    f"flow invariant violated for ({fluent}, stage {t}): {tags}"
                )
            split = assignment.ints[shape.split_id[(fluent, t)]]
            fluent_entries.update(stage_entries(fluent, t, boundaries, *tags[0], split))

    action_entries: dict[ActionKey, tuple[int, int]] = {}
    for ai, ref in enumerate(shape.actions):
        for k in shape.copies():
            if assignment.bools[shape.use_id[(ai, k)]]:
                action_entries[ActionKey(ref.name, ref.actor, k)] = (
                    assignment.ints[shape.start_id[(ai, k)]],
                    assignment.ints[shape.end_id[(ai, k)]],
                )

    plan = Plan(fluent_entries, action_entries, boundaries, n)
    return plan, diagram_from_plan(plan)


def merge_segments(pieces: Iterable[Segment]) -> tuple[Segment, ...]:
    """Sort pieces by time and merge same-truth pieces that meet or overlap.

    Pieces apart by a gap, and overlapping pieces of opposite truth, are
    kept apart, so a gap or a conflict in the input stays visible."""
    merged: list[Segment] = []
    for seg in sorted(pieces, key=lambda s: s.interval):
        if merged:
            prev = merged[-1]
            if prev.truth == seg.truth and seg.interval.left <= prev.interval.right:
                if seg.interval.right > prev.interval.right:
                    merged[-1] = Segment(
                        prev.truth, Interval(prev.interval.left, seg.interval.right)
                    )
                continue
        merged.append(seg)
    return tuple(merged)


@dataclass(frozen=True)
class SearchLimits:
    """Bounds on the outer search.  The time budget covers the whole search;
    the node budget applies to each stage-count probe on its own."""

    max_n: int = 20
    copy_cap: Optional[int] = None
    horizon: Optional[int] = None
    time_budget: float = 300.0
    node_budget: int = 100_000_000

    def __post_init__(self) -> None:
        if self.max_n < 1:
            raise ValueError("max_n must be at least 1")
        if self.horizon is not None and self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        check_budgets(self.time_budget, self.node_budget)


@dataclass
class FindOutcome:
    status: str  # found | exhausted | limit
    plan: Optional[Plan] = None
    diagram: Optional[TimingDiagram] = None
    n_found: Optional[int] = None
    nodes: int = 0
    wall_time: float = 0.0
    minimal_n_guaranteed: bool = True
    model_stats: tuple[int, int] = (0, 0)  # (bools, ints) of the last probed model
    last_n: Optional[int] = None  # the last stage count probed
    limit_reason: Optional[str] = None  # "node budget" or "time budget", for a limit

    @property
    def found(self) -> bool:
        return self.status == FOUND


def _n_schedule(max_n: int, geometric: bool) -> Sequence[int]:
    """The stage counts to probe, in order; a range is O(1) in ``max_n``."""
    if not geometric:
        return range(1, max_n + 1)
    out, n = [], 1
    while n <= max_n:
        out.append(n)
        n *= 2
    return out


@acyclic
def find_plan(
    d: Domain,
    objective: str = "none",
    limits: SearchLimits = SearchLimits(),
    geometric: bool = False,
) -> FindOutcome:
    """Probe stage counts in order and decode the first satisfiable theory.

    The probes share one :class:`~tqaplan.encoder.Encoder` and one compiled
    engine: each probe encodes and compiles once only the rows new at its
    stage count, plus a small tail of rows that depend on the count, then
    propagates from its own root domains and searches.  With an objective
    the plan is optimal for the first satisfiable stage count only.
    Geometric probing skips stage counts, so it cannot guarantee the
    minimal one, and exhaustion then speaks only for the counts probed: with
    a fixed horizon a skipped count may have a plan.  Each probe gets the
    remainder of the limits' time budget and their full node budget.
    """
    started = time.monotonic()
    total_nodes = 0
    grower = Encoder(objective, limits.copy_cap)
    engine = Engine()
    model = None
    last_n = None

    def outcome(status: str, **fields) -> FindOutcome:
        return FindOutcome(
            status,
            nodes=total_nodes,
            wall_time=time.monotonic() - started,
            minimal_n_guaranteed=not geometric,
            model_stats=(model.n_bools, model.n_ints),
            last_n=last_n,
            **fields,
        )

    for n in _n_schedule(limits.max_n, geometric):
        if limits.horizon is not None and limits.horizon < n:
            break
        last_n = n
        shape = instantiate(d, n, limits.copy_cap, limits.horizon)
        model, n_stable, order = grower.advance(shape)
        engine.load(model, n_stable, order)
        remaining = limits.time_budget - (time.monotonic() - started)
        if remaining <= 0:
            return outcome(RESOURCE_LIMIT, limit_reason="time budget")
        result = solve(model, engine, time_budget=remaining, node_budget=limits.node_budget)
        total_nodes += result.nodes
        if result.status == "limit":
            return outcome(RESOURCE_LIMIT, limit_reason=result.reason)
        if result.is_sat:
            values = result.assignment
            plan, diagram = decode(
                shape,
                Assignment(
                    tuple(values.bools[i] for i in grower.bool_ids),
                    tuple(values.ints[i] for i in grower.int_ids),
                ),
            )
            if result.objective is not None:
                scale = cost_scale(d) if objective == "costs" else 1
                plan.objective = Fraction(result.objective, scale)
            return outcome(FOUND, plan=plan, diagram=diagram, n_found=n)
    return outcome(EXHAUSTED)


# -- plan document format ----------------------------------------------------


def plan_to_document(plan: Plan) -> str:
    """Serialize boundaries, maximal fluent segments, and action entries."""
    diagram = diagram_from_plan(plan)
    doc = {
        "n": plan.n_used,
        "boundaries": list(plan.boundaries),
        "objective": str(plan.objective) if plan.objective is not None else None,
        "fluents": {
            fluent: [
                {"truth": seg.truth, "start": seg.interval.left, "end": seg.interval.right}
                for seg in segs
            ]
            for fluent, segs in diagram.fluents.items()
        },
        "actions": [
            {
                "name": key.name,
                "actor": key.actor,
                "copy": key.copy,
                "start": interval.left,
                "end": interval.right,
            }
            for key, interval in diagram.actions
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def _integer(value, what: str) -> int:
    # bool is an int subclass, and JSON true must not pass for 1
    if type(value) is not int:
        raise PlanFormatError(f"{what} must be a JSON integer, got {value!r}")
    return value


def _field(entry, name: str, what: str):
    if not isinstance(entry, dict) or name not in entry:
        raise PlanFormatError(f"{what} needs key {name!r}: {entry!r}")
    return entry[name]


def plan_from_document(text: str) -> Plan:
    """Rebuild per-stage TQA entries by slicing segments at the stage
    boundaries; a fluent changing twice inside one stage has no TQA form and
    is rejected.  Times, counts, actors and copies must be JSON integers and
    truths JSON booleans; nothing is coerced."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PlanFormatError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise PlanFormatError("top level must be an object")
    unknown = set(doc) - {"n", "boundaries", "objective", "fluents", "actions"}
    if unknown:
        raise PlanFormatError(f"unknown keys: {sorted(unknown)}")
    n = _integer(_field(doc, "n", "a plan"), "'n'")
    raw_boundaries = _field(doc, "boundaries", "a plan")
    if not isinstance(raw_boundaries, list):
        raise PlanFormatError("'boundaries' must be a list of integers")
    boundaries = tuple(_integer(b, "a boundary") for b in raw_boundaries)
    if n < 1 or len(boundaries) != n + 1 or any(
        boundaries[i] >= boundaries[i + 1] for i in range(n)
    ):
        raise PlanFormatError(
            "boundaries must be strictly increasing with n+1 entries, n at least 1"
        )
    if boundaries[0] != 0:
        raise PlanFormatError("the dateline starts at time 0")

    objective = doc.get("objective")
    if objective is not None:
        if not isinstance(objective, str):
            raise PlanFormatError(f"'objective' must be null or a string, got {objective!r}")
        try:
            objective = Fraction(objective)
        except (ValueError, ZeroDivisionError):
            raise PlanFormatError(f"'objective' is not a rational: {objective!r}") from None

    fluent_entries: dict[FluentTqaKey, tuple[bool, int, int]] = {}
    fluents = doc.get("fluents", {})
    if not isinstance(fluents, dict):
        raise PlanFormatError("'fluents' must map names to segment lists")
    for fluent, segs in fluents.items():
        if not isinstance(segs, list):
            raise PlanFormatError(f"segments of {fluent!r} must be a list")
        edges: list[tuple[int, int, bool]] = []
        cursor = 0
        for seg in segs:
            what = f"a segment of {fluent!r}"
            left = _integer(_field(seg, "start", what), "'start'")
            right = _integer(_field(seg, "end", what), "'end'")
            truth = _field(seg, "truth", what)
            if not isinstance(truth, bool):
                raise PlanFormatError(f"'truth' must be a JSON boolean, got {truth!r}")
            if left != cursor or right <= left:
                raise PlanFormatError(f"segments of {fluent!r} must tile [0, end) in order")
            edges.append((left, right, truth))
            cursor = right
        if cursor != boundaries[-1]:
            raise PlanFormatError(
                f"segments of {fluent!r} cover [0, {cursor}), expected [0, {boundaries[-1]})"
            )
        for t in range(1, n + 1):
            lo, hi = boundaries[t - 1], boundaries[t]
            inside = [e for e in edges if e[0] < hi and e[1] > lo]
            if len(inside) == 1:
                truth = inside[0][2]
                fluent_entries[FluentTqaKey(fluent, t, 1)] = (truth, lo, hi)
            elif len(inside) == 2 and inside[0][1] == inside[1][0]:
                split = inside[0][1]
                fluent_entries[FluentTqaKey(fluent, t, 0)] = (inside[0][2], lo, split)
                fluent_entries[FluentTqaKey(fluent, t, 1)] = (inside[1][2], split, hi)
            else:
                raise PlanFormatError(
                    f"fluent {fluent!r} changes more than once inside stage {t}"
                )

    actions = doc.get("actions", [])
    if not isinstance(actions, list):
        raise PlanFormatError("'actions' must be a list of action entries")
    action_entries: dict[ActionKey, tuple[int, int]] = {}
    for entry in actions:
        name = _field(entry, "name", "an action entry")
        if not isinstance(name, str):
            raise PlanFormatError(f"action 'name' must be a string, got {name!r}")
        key = ActionKey(
            name,
            _integer(_field(entry, "actor", "an action entry"), "'actor'"),
            _integer(_field(entry, "copy", "an action entry"), "'copy'"),
        )
        start = _integer(_field(entry, "start", "an action entry"), "'start'")
        end = _integer(_field(entry, "end", "an action entry"), "'end'")
        if key in action_entries:
            raise PlanFormatError(f"duplicate action entry {key.label()}")
        action_entries[key] = (start, end)

    return Plan(fluent_entries, action_entries, boundaries, n, objective)


def diagram_from_plan(plan: Plan) -> TimingDiagram:
    """Merge the plan's per-stage entries into maximal segments, with fluents
    sorted by name and actions by (name, actor, copy)."""
    pieces: dict[str, list[Segment]] = {}
    for key, (truth, left, right) in plan.fluent_entries.items():
        pieces.setdefault(key.fluent, []).append(Segment(truth, Interval(left, right)))
    actions = tuple(
        (key, Interval(start, end))
        for key, (start, end) in sorted(
            plan.action_entries.items(), key=lambda kv: (kv[0].name, kv[0].actor, kv[0].copy)
        )
    )
    return TimingDiagram(
        {f: merge_segments(pieces[f]) for f in sorted(pieces)}, actions, plan.boundaries
    )
