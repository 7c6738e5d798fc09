"""Stage-count search, decoding, diagrams, and the plan document format."""

from __future__ import annotations

import dataclasses
import gc
import json
import random
import re
import sys
import time
from fractions import Fraction

import pytest

from randgen import random_tiny_domain
from tqaplan.benchgen import GadgetSpec, gen_cushing
from tqaplan.cli import CSV_COLUMNS, _run_record
from tqaplan.cpmodel import export_model, parse_model
from tqaplan.domain import (
    ConstraintRel,
    ConstraintSpec,
    Domain,
    DomainFormatError,
    Fluent,
    Skill,
    SkillKind,
    TemporalAction,
    parse_domain,
    serialize_domain,
)
from tqaplan.encoder import cost_scale, encode
from tqaplan.intervals import Interval
from tqaplan.search import (
    ActionKey,
    PlanFormatError,
    SearchLimits,
    decode,
    diagram_from_plan,
    find_plan,
    _n_schedule,
    plan_from_document,
    plan_to_document,
)
from tqaplan.solver import solve
from tqaplan.theory import instantiate
from tqaplan.validator import enumerate_models, validate_plan

TINY = parse_domain(
    '{"fluents": ["g"],'
    ' "skills": [{"name": "a", "kind": "delay", "duration": 2, "raises": ["g"], "cost": 3}],'
    ' "goal": ["g"]}'
)
NO_RAISER = parse_domain(
    '{"fluents": ["g"], "skills": [{"name": "a", "kind": "delay", "duration": 2}], "goal": ["g"]}'
)


def test_find_plan_minimal_domain():
    outcome = find_plan(TINY, limits=SearchLimits(max_n=3))
    assert outcome.found and outcome.n_found == 1
    assert outcome.plan.action_entries[ActionKey("a", 1, 1)] == (0, 2)
    report = validate_plan(TINY, outcome.plan)
    assert report.is_valid
    # oracle confirms the stage count is minimal (nothing below 1 to probe)
    assert enumerate_models(TINY, 1).is_sat


def test_a_huge_max_n_builds_no_schedule():
    # the schedule is a range, so its size does not grow with max_n
    assert sys.getsizeof(_n_schedule(10**12, False)) == sys.getsizeof(_n_schedule(4, False))
    huge = find_plan(TINY, limits=SearchLimits(max_n=10**12))
    small = find_plan(TINY, limits=SearchLimits(max_n=4))
    assert huge.found and (huge.n_found, huge.nodes) == (small.n_found, small.nodes)
    assert plan_to_document(huge.plan) == plan_to_document(small.plan)


def test_find_plan_exhausts_on_unreachable_goal():
    outcome = find_plan(NO_RAISER, limits=SearchLimits(max_n=3))
    assert outcome.status == "exhausted"
    assert outcome.plan is None


def test_geometric_mode_flags_non_minimality():
    outcome = find_plan(TINY, limits=SearchLimits(max_n=4), geometric=True)
    assert outcome.found
    assert outcome.minimal_n_guaranteed is False


def test_resource_limit_outcome():
    outcome = find_plan(
        TINY,
        limits=SearchLimits(max_n=3, time_budget=60, node_budget=1),
    )
    assert outcome.status in ("found", "limit")  # propagation may settle it without nodes


def test_limit_and_exhaustion_report_the_last_probed_model():
    exhausted = find_plan(NO_RAISER, limits=SearchLimits(max_n=3))
    last = encode(instantiate(NO_RAISER, 3))
    assert (exhausted.status, exhausted.last_n) == ("exhausted", 3)
    assert exhausted.model_stats == (last.n_bools, last.n_ints) != (0, 0)

    # II m=1 h=2 at copy cap 2 needs search nodes from N = 5 on
    domain = gen_cushing(GadgetSpec("II", 1, 2))
    limited = find_plan(domain, limits=SearchLimits(copy_cap=2, horizon=22, node_budget=1))
    assert limited.status == "limit"
    last = encode(instantiate(domain, limited.last_n, 2, 22))
    assert limited.model_stats == (last.n_bools, last.n_ints)

    for outcome in (exhausted, limited):
        record = _run_record("x", outcome)
        assert record["last_n"] == outcome.last_n
        assert (record["bool_vars"], record["int_vars"]) == outcome.model_stats
    assert "last_n" not in CSV_COLUMNS


def test_a_limit_names_the_budget_that_ran_out():
    domain = gen_cushing(GadgetSpec("II", 1, 2))
    limited = find_plan(domain, limits=SearchLimits(copy_cap=2, horizon=22, node_budget=1))
    assert (limited.status, limited.limit_reason) == ("limit", "node budget")
    assert _run_record("x", limited)["limit_reason"] == "node budget"
    found = find_plan(TINY, limits=SearchLimits(max_n=3))
    assert found.found and _run_record("x", found)["limit_reason"] is None
    assert "limit_reason" not in CSV_COLUMNS


def test_a_probe_stops_at_the_time_budget():
    # default-cap II m=1 h=3 gets no verdict for minutes, so the budget ends it
    domain = gen_cushing(GadgetSpec("II", 1, 3))
    start = time.monotonic()
    outcome = find_plan(domain, limits=SearchLimits(time_budget=0.5))
    assert time.monotonic() - start < 1.0
    assert (outcome.status, outcome.limit_reason) == ("limit", "time budget")


@pytest.mark.parametrize("budgets", [{"time_budget": float("nan")}, {"node_budget": 0}])
def test_budgets_that_are_not_positive_are_rejected(budgets):
    with pytest.raises(ValueError):
        find_plan(TINY, limits=SearchLimits(max_n=3, **budgets))


_SKILL = Skill("a", SkillKind.DELAY, 2, raises=frozenset({"g"}))
_ON_Q = (ConstraintSpec("q", ConstraintRel.CONTAINS),)
DANGLING = {  # each refers to an undeclared fluent q or skill b, or repeats a name
    "constraint": Domain((Fluent("g"),), (dataclasses.replace(_SKILL, constraints=_ON_Q),)),
    "raises": Domain((Fluent("g"),), (dataclasses.replace(_SKILL, raises=frozenset({"q"})),)),
    "interference": Domain((Fluent("g"),), (_SKILL,), interference=frozenset({("g", "q")})),
    "goal": Domain((Fluent("g"),), (_SKILL,), goal=frozenset({"q"})),
    "component": Domain(
        (Fluent("g"),), (_SKILL,), temporal_actions=(TemporalAction("t", ("a", "b")),)
    ),
    "duplicate": Domain((Fluent("g"), Fluent("g")), (_SKILL,)),
}


@pytest.mark.parametrize("domain", DANGLING.values(), ids=DANGLING.keys())
def test_a_domain_built_directly_gets_the_reference_checks_of_a_document(domain):
    with pytest.raises(DomainFormatError) as parsed:
        parse_domain(serialize_domain(domain))
    message = re.escape(str(parsed.value))
    with pytest.raises(DomainFormatError, match=message):
        find_plan(domain, limits=SearchLimits(max_n=2))
    with pytest.raises(DomainFormatError, match=message):
        encode(instantiate(domain, 2))
    with pytest.raises(DomainFormatError, match=message):
        enumerate_models(domain, 2)


def _reference_find_plan(d, objective, limits, geometric):
    """find_plan as a loop that builds every probe afresh: instantiate,
    encode and solve at each stage count.  Returns what find_plan reports."""
    nodes = 0
    for n in _n_schedule(limits.max_n, geometric):
        if limits.horizon is not None and limits.horizon < n:
            break
        shape = instantiate(d, n, limits.copy_cap, limits.horizon)
        result = solve(encode(shape, objective), time_budget=60)
        nodes += result.nodes
        if result.is_sat:
            plan, _ = decode(shape, result.assignment)
            if result.objective is not None:
                scale = cost_scale(d) if objective == "costs" else 1
                plan.objective = Fraction(result.objective, scale)
            return "found", n, nodes, plan.objective, plan_to_document(plan)
        assert result.is_unsat
    return "exhausted", None, nodes, None, None


def _reported(outcome):
    plan = outcome.plan
    return (
        outcome.status,
        outcome.n_found,
        outcome.nodes,
        plan.objective if plan else None,
        plan_to_document(plan) if plan else None,
    )


def test_find_plan_matches_a_fresh_model_per_probe():
    """One growing model and engine give the status, stage count, node count,
    objective and plan document of a loop that rebuilds every probe."""
    cases = [
        (gen_cushing(GadgetSpec("I", 3, None)), "none", SearchLimits(copy_cap=1)),
        # found at N = 9; the geometric schedule probes 1, 2, 4, 8 and exhausts
        (gen_cushing(GadgetSpec("II", 1, 2)), "none", SearchLimits(9, copy_cap=2, horizon=22)),
    ]
    objectives = ("none", "costs", "makespan")
    for seed in range(100):
        domain = random_tiny_domain(random.Random(seed))
        cap = (1, 2, None)[seed % 3]
        horizon = None if seed % 2 else 6
        limits = SearchLimits(max_n=4, copy_cap=cap, horizon=horizon, time_budget=60)
        cases.append((domain, objectives[seed % 3], limits))
    for domain, objective, limits in cases:
        for geometric in (False, True):
            got = find_plan(domain, objective, limits, geometric)
            want = _reference_find_plan(domain, objective, limits, geometric)
            assert _reported(got) == want


# (type, copies, height), objective, limits, and what find_plan reports:
# status, n*, objective value and the node count of every probe
PINNED_PROBES = [
    (("II", 3, 3), "makespan", SearchLimits(copy_cap=1), ("found", 14, 28, [0] * 13 + [15])),
    (("III", 3, 3), "costs", SearchLimits(copy_cap=1), ("found", 17, 414, [0] * 16 + [15])),
    (
        ("II", 1, 2), "none", SearchLimits(copy_cap=2, horizon=22),
        ("found", 9, None, [0, 0, 0, 1, 3, 4, 8, 21, 24]),
    ),
    (
        ("II", 1, 2), "makespan", SearchLimits(copy_cap=2, horizon=22),
        ("found", 9, 18, [0, 0, 0, 1, 3, 4, 8, 21, 33]),
    ),
    (
        ("II", 1, 2), "none", SearchLimits(8, copy_cap=2),
        ("exhausted", None, None, [0, 0, 0, 1, 3, 4, 8, 25]),
    ),
    (("II", 1, 2), "none", SearchLimits(), ("found", 9, None, [0, 0, 0, 1, 3, 4, 10, 31, 27])),
]


@pytest.mark.parametrize(
    "spec, objective, limits, want",
    PINNED_PROBES,
    ids=[
        "II-m3h3-makespan", "III-m3h3-costs", "cap2-h22", "cap2-h22-makespan", "cap2-n8", "II-m1h2"
    ],
)
def test_per_probe_node_counts_are_pinned(monkeypatch, spec, objective, limits, want):
    """Search explores exactly the pinned trees: a propagator that misses a
    wake-up, or a row compiled differently, shows up as a changed count."""
    nodes = []

    def counting_solve(*args, **kwargs):
        result = solve(*args, **kwargs)
        nodes.append(result.nodes)
        return result

    monkeypatch.setattr("tqaplan.search.solve", counting_solve)
    # a node budget far above the pinned counts makes a blown-up tree fail fast
    limits = dataclasses.replace(limits, node_budget=10_000)
    outcome = find_plan(gen_cushing(GadgetSpec(*spec)), objective, limits)
    value = outcome.plan.objective if outcome.found else None
    assert (outcome.status, outcome.n_found, value, nodes) == want


# II m=1 h=3 below its answer: copy cap, stage count, and the nodes that
# solve takes to refute the single-count model
HARD_REFUTATIONS = [
    (None, 9, 21), (None, 10, 40), (None, 11, 64), (2, 10, 21), (2, 11, 42), (2, 12, 90)
]


@pytest.mark.parametrize(
    "cap, n, want",
    HARD_REFUTATIONS,
    ids=[f"cap{cap or 'default'}-n{n}" for cap, n, _ in HARD_REFUTATIONS],
)
def test_hard_refutations_are_pinned(cap, n, want):
    """The refutations that need real search take exactly the pinned trees:
    a row that stops pruning, or a heuristic that drifts, moves a count."""
    shape = instantiate(gen_cushing(GadgetSpec("II", 1, 3)), n, cap)
    result = solve(encode(shape), node_budget=10_000)
    assert (result.status, result.nodes) == ("unsat", want)


@pytest.mark.parametrize(
    "spec, objective", [(("I", 2, None), "none"), (("II", 1, 2), "makespan")], ids=["I-m2", "II-m1h2"]
)
def test_model_calls_leave_no_cyclic_garbage(spec, objective):
    """The calls that pause the collector must free all their garbage by
    reference counting: with it off, a collection afterwards finds none."""
    domain = gen_cushing(GadgetSpec(*spec))
    limits = SearchLimits(copy_cap=1)
    gc.collect()
    gc.disable()
    try:
        outcome = find_plan(domain, objective, limits)
        model = encode(instantiate(domain, outcome.n_found, 1), objective)
        back = parse_model(export_model(model))
        result = solve(back)
        assert outcome.found and back == model and result.is_sat
        del outcome, model, back, result
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_the_collector_is_paused_inside_find_plan(monkeypatch):
    enabled = []

    def recording_solve(*args, **kwargs):
        enabled.append(gc.isenabled())
        return solve(*args, **kwargs)

    monkeypatch.setattr("tqaplan.search.solve", recording_solve)
    assert gc.isenabled()
    assert find_plan(TINY, limits=SearchLimits(max_n=3)).found
    assert enabled == [False] and gc.isenabled()


def test_objective_values_descaled():
    outcome = find_plan(TINY, objective="costs", limits=SearchLimits(max_n=2))
    assert outcome.found and outcome.plan.objective == Fraction(3)
    outcome2 = find_plan(TINY, objective="makespan", limits=SearchLimits(max_n=2))
    assert outcome2.found and outcome2.plan.objective == Fraction(2)


def test_decode_constant_and_transition_segments():
    domain = parse_domain(
        '{"fluents": ["g", "idle"],'
        ' "skills": [{"name": "a", "kind": "delay", "duration": 2, "raises": ["g"]}],'
        ' "goal": ["g"]}'
    )
    shape = instantiate(domain, 2, 1, 4)
    res = solve(encode(shape), time_budget=30)
    assert res.is_sat
    plan, diagram = decode(shape, res.assignment)
    total = plan.boundaries[-1]
    idle_segments = diagram.fluents["idle"]
    assert len(idle_segments) == 1
    assert idle_segments[0].truth is False
    assert idle_segments[0].interval == Interval(0, total)
    g_segments = diagram.fluents["g"]
    assert [s.truth for s in g_segments] == [False, True]
    assert g_segments[0].interval.right == g_segments[1].interval.left
    # diagram covers the plan span with meeting segments for every fluent
    for segs in diagram.fluents.values():
        assert segs[0].interval.left == 0
        assert segs[-1].interval.right == total
        for a, b in zip(segs, segs[1:]):
            assert a.interval.right == b.interval.left
            assert a.truth != b.truth


def test_diagram_reconstruction_idempotent():
    outcome = find_plan(TINY, limits=SearchLimits(max_n=2))
    rebuilt = diagram_from_plan(outcome.plan)
    assert rebuilt.fluents == outcome.diagram.fluents
    assert rebuilt.actions == outcome.diagram.actions
    assert rebuilt.boundaries == outcome.diagram.boundaries


def test_plan_document_round_trip():
    outcome = find_plan(TINY, objective="costs", limits=SearchLimits(max_n=2))
    text = plan_to_document(outcome.plan)
    again = plan_from_document(text)
    assert again.boundaries == outcome.plan.boundaries
    assert again.n_used == outcome.plan.n_used
    assert again.objective == outcome.plan.objective
    assert again.action_entries == outcome.plan.action_entries
    assert again.fluent_entries == outcome.plan.fluent_entries
    assert plan_to_document(again) == text


def test_plan_document_rejections():
    with pytest.raises(PlanFormatError):
        plan_from_document("")
    with pytest.raises(PlanFormatError):
        plan_from_document("{}")
    with pytest.raises(PlanFormatError):
        plan_from_document('{"n": 1, "boundaries": [0, 2], "surprise": 1}')
    # a fluent flipping twice inside one stage has no two-part TQA form
    doc = (
        '{"n": 1, "boundaries": [0, 4], "fluents": {"p": ['
        '{"truth": false, "start": 0, "end": 1},'
        '{"truth": true, "start": 1, "end": 2},'
        '{"truth": false, "start": 2, "end": 4}]}, "actions": []}'
    )
    with pytest.raises(PlanFormatError):
        plan_from_document(doc)


def test_invalid_max_n():
    with pytest.raises(ValueError):
        find_plan(TINY, limits=SearchLimits(max_n=0))


def _document(n=1, boundaries=(0, 2), objective=None, fluents=None, actions=None):
    doc = {
        "n": n,
        "boundaries": list(boundaries),
        "objective": objective,
        "fluents": {"g": [{"truth": False, "start": 0, "end": 2}]} if fluents is None else fluents,
        "actions": [] if actions is None else actions,
    }
    return json.dumps(doc)


def _action(**overrides):
    entry = {"name": "a", "actor": 1, "copy": 1, "start": 0, "end": 2}
    entry.update(overrides)
    return [entry]


def _segment(**overrides):
    seg = {"truth": False, "start": 0, "end": 2}
    seg.update(overrides)
    return {"g": [seg]}


STRICT_CASES = {
    "truth-string-false": _document(fluents=_segment(truth="false")),
    "truth-string-no": _document(fluents=_segment(truth="no")),
    "truth-integer": _document(fluents=_segment(truth=0)),
    "end-float": _document(fluents=_segment(end=2.5)),
    "end-string": _document(fluents=_segment(end="2")),
    "boundary-float": _document(boundaries=(0, 2.9)),
    "boundary-bool": _document(boundaries=(0, True), fluents=_segment(end=1)),
    "n-float": _document(n=1.0),
    "n-bool": _document(n=True),
    "n-zero": _document(n=0, boundaries=(0,), fluents={}),
    "copy-float": _document(actions=_action(copy=1.9)),
    "actor-string": _document(actions=_action(actor="1")),
    "start-bool": _document(actions=_action(start=False)),
    "name-integer": _document(actions=_action(name=7)),
    "objective-garbage": _document(objective="abc"),
    "objective-zero-denominator": _document(objective="1/0"),
    "objective-number": _document(objective=3),
    "segments-not-a-list": _document(fluents={"g": 5}),
    "actions-not-a-list": _document(actions=5),
}


@pytest.mark.parametrize("text", STRICT_CASES.values(), ids=STRICT_CASES.keys())
def test_plan_document_types_are_strict(text):
    with pytest.raises(PlanFormatError):
        plan_from_document(text)
