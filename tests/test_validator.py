"""Independent plan validation and the exhaustive semantic enumerator."""

from __future__ import annotations

import itertools
import random
import tracemalloc
from dataclasses import replace

import pytest

from randgen import random_tiny_domain
from tqaplan.benchgen import GadgetSpec, gen_cushing
from tqaplan.domain import parse_domain
from tqaplan.encoder import encode
from tqaplan.intervals import History, Interval, Tqa, check_tqa
from tqaplan.search import ActionKey, FluentTqaKey, Plan, SearchLimits, find_plan
from tqaplan.solver import GuardExceededError, solve
from tqaplan.theory import default_horizon, instantiate
from tqaplan.validator import enumerate_models, validate_plan

TINY = parse_domain(
    '{"fluents": ["g"],'
    ' "skills": [{"name": "a", "kind": "delay", "duration": 2, "raises": ["g"]}],'
    ' "goal": ["g"]}'
)


def rules_of(report):
    return {v.rule for v in report.violations}


def solved_gadget():
    domain = gen_cushing(GadgetSpec("I", 1))
    outcome = find_plan(domain, limits=SearchLimits(max_n=6, copy_cap=1))
    assert outcome.found
    return domain, outcome.plan


def test_decoded_gadget_plan_is_valid():
    domain, plan = solved_gadget()
    assert validate_plan(domain, plan).is_valid


def test_contains_is_strict():
    domain, plan = solved_gadget()
    key = ActionKey("a3_g1", 1, 1)
    start, end = plan.action_entries[key]
    # stretch the contained action to touch the window's right edge
    w1_fall = next(
        right
        for fk, (truth, left, right) in plan.fluent_entries.items()
        if fk.fluent == "w1_g1" and truth
        and right == max(r for fk2, (t2, _, r) in plan.fluent_entries.items()
                         if fk2.fluent == "w1_g1" and t2)
    )
    plan.action_entries[key] = (start, w1_fall)
    report = validate_plan(domain, plan)
    assert not report.is_valid
    assert "contains" in rules_of(report) or "duration" in rules_of(report)


def test_frame_violation_detected():
    outcome = find_plan(TINY, limits=SearchLimits(max_n=2))
    plan = outcome.plan
    del plan.action_entries[ActionKey("a", 1, 1)]
    report = validate_plan(TINY, plan)
    assert not report.is_valid
    assert "frame" in rules_of(report)


def test_unknown_symbols_rejected():
    outcome = find_plan(TINY, limits=SearchLimits(max_n=2))
    plan = outcome.plan
    plan.action_entries[ActionKey("ghost", 1, 1)] = (0, 1)
    report = validate_plan(TINY, plan)
    assert not report.is_valid
    assert "unknown-symbol" in rules_of(report)


def test_closed_world_initial_state():
    outcome = find_plan(TINY, limits=SearchLimits(max_n=2))
    plan = outcome.plan
    for key in list(plan.fluent_entries):
        truth, left, right = plan.fluent_entries[key]
        plan.fluent_entries[key] = (True, left, right)
    report = validate_plan(TINY, plan)
    assert not report.is_valid
    assert "initial-condition" in rules_of(report)


def test_terminal_condition_checked():
    domain = parse_domain(
        '{"fluents": ["g"],'
        ' "skills": [{"name": "a", "kind": "delay", "duration": 2, "raises": ["g"]}]}'
    )
    outcome = find_plan(domain, limits=SearchLimits(max_n=1))
    assert outcome.found  # no goal: the empty-ish plan is fine
    plan = outcome.plan
    goal_domain = TINY
    # same skills/fluents, but now g must hold at the end
    if not any(truth for key, (truth, *_rest) in plan.fluent_entries.items()):
        report = validate_plan(goal_domain, plan)
        assert "terminal-condition" in rules_of(report)


def test_interference_and_self_overlap():
    domain = parse_domain(
        '{"fluents": ["p", "q"],'
        ' "skills": [{"name": "a", "kind": "delay", "duration": 2, "raises": ["p"]}],'
        ' "interference": [["p", "q"]], "goal": ["p"]}'
    )
    outcome = find_plan(domain, limits=SearchLimits(max_n=2))
    plan = outcome.plan
    # force q true over the whole span: clashes with p's true segment
    for key in list(plan.fluent_entries):
        if key.fluent == "q":
            truth, left, right = plan.fluent_entries[key]
            plan.fluent_entries[key] = (True, left, right)
    report = validate_plan(domain, plan)
    assert "interference" in rules_of(report)
    assert "initial-condition" in rules_of(report)  # q not in init either

    outcome2 = find_plan(domain, limits=SearchLimits(max_n=2))
    plan2 = outcome2.plan
    span = plan2.action_entries[ActionKey("a", 1, 1)]
    plan2.action_entries[ActionKey("a", 1, 2)] = span  # identical overlapping copy
    report2 = validate_plan(domain, plan2)
    assert "self-overlap" in rules_of(report2)


def test_duration_rule():
    outcome = find_plan(TINY, limits=SearchLimits(max_n=2))
    plan = outcome.plan
    start, end = plan.action_entries[ActionKey("a", 1, 1)]
    plan.action_entries[ActionKey("a", 1, 1)] = (start, end + 1)
    report = validate_plan(TINY, plan)
    assert "duration" in rules_of(report) or "entry-shape" in rules_of(report)


def test_enumerate_examples():
    assert enumerate_models(TINY, 1).is_sat
    no_raiser = parse_domain(
        '{"fluents": ["g"], "skills": [{"name": "a", "kind": "delay", "duration": 2}],'
        ' "goal": ["g"]}'
    )
    for n in (1, 2):
        assert not enumerate_models(no_raiser, n).is_sat


def test_enumerate_guard():
    domain = gen_cushing(GadgetSpec("I", 2))
    with pytest.raises(GuardExceededError):
        enumerate_models(domain, 4, None, 16)


def test_enumerate_witness_validates():
    out = enumerate_models(TINY, 1)
    assert out.witness is not None
    assert validate_plan(TINY, out.witness).is_valid


def test_gadget_subminimal_stage_counts_unsat():
    domain = gen_cushing(GadgetSpec("I", 1))
    # the CP side refutes 1..3 and finds 4; the enumerator is only tractable
    # for the smallest stage counts, where it agrees
    for n in (1, 2):
        assert not enumerate_models(domain, n, 1, 8 if n > 1 else 4).is_sat
    for n in (1, 2, 3):
        assert solve(encode(instantiate(domain, n, 1)), time_budget=60).is_unsat
    assert solve(encode(instantiate(domain, 4, 1)), time_budget=60).is_sat


def test_agreement_with_encoder_small_batch():
    rng = random.Random(123)
    checked = 0
    for _ in range(30):
        d = random_tiny_domain(rng)
        for n in (1, 2):
            h = min(default_horizon(d, n), 5)
            if h < n:
                continue
            mine = solve(encode(instantiate(d, n, None, h)), time_budget=30)
            try:
                truth = enumerate_models(d, n, None, h)
            except GuardExceededError:
                continue
            assert mine.is_sat == truth.is_sat
            if truth.is_sat:
                assert validate_plan(d, truth.witness).is_valid
            checked += 1
    assert checked >= 40


# -- window, coverage and chain rules on hand-built plans ---------------------


def hand_plan(total, fluents, actions):
    """A one-stage plan over [0, total): fluents map to (truth, start, end)
    pieces, actions map labels "name@actor#copy" to (start, end)."""
    fluent_entries = {
        FluentTqaKey(name, 1, part): piece
        for name, pieces in fluents.items()
        for part, piece in enumerate(pieces)
    }
    action_entries = {}
    for label, span in actions.items():
        name, rest = label.split("@")
        actor, copy = rest.split("#")
        action_entries[ActionKey(name, int(actor), int(copy))] = span
    return Plan(fluent_entries, action_entries, (0, total), 1)


def found(report, rule):
    return [v.subjects for v in report.violations if v.rule == rule]


WINDOWS = parse_domain(
    '{"fluents": [{"name": "p", "role": "resource"}],'
    ' "skills": ['
    '{"name": "c", "kind": "timer", "constraints": [{"fluent": "p", "rel": "contains"}]},'
    '{"name": "o", "kind": "timer", "constraints": [{"fluent": "p", "rel": "overlaps"}]},'
    '{"name": "q", "kind": "timer", "constraints": [{"fluent": "p", "rel": "equals"}]}]}'
)


def reference_windows(bits, in_init, in_goal, start, end):
    """The window relations read off a truth history, tick by tick, with one
    context tick before 0 (the initial condition) and one after the end (the
    goal); history time x is plan time x - 1."""
    h = History(len(bits) + 2, {"p": [in_init, *bits, in_goal]})

    def holds(truth, left, right):
        return check_tqa(h, Tqa("p", truth, Interval(left, right)))

    contains = holds(True, start, end + 2)
    falls = sum(holds(True, x, x + 1) and holds(False, x + 1, x + 2) for x in range(start + 1, end))
    overlaps = holds(True, start, start + 2) and falls == 1
    equals = (
        end - start >= 3
        and holds(False, start + 1, start + 2)
        and holds(True, start + 2, end)
        and holds(False, end, end + 1)
    )
    return {"contains": contains, "overlaps": overlaps, "equals": equals}


def test_window_rules_match_tick_reference_exhaustively():
    checked = 0
    for size in range(1, 7):
        for bits in itertools.product((False, True), repeat=size):
            pieces = [(b, x, x + 1) for x, b in enumerate(bits)]
            for in_init, in_goal in itertools.product((False, True), repeat=2):
                domain = replace(
                    WINDOWS,
                    init=frozenset({"p"} if in_init else ()),
                    goal=frozenset({"p"} if in_goal else ()),
                )
                for start in range(size):
                    for end in range(start + 1, size + 1):
                        plan = hand_plan(
                            size, {"p": pieces}, {f"{s}@1#1": (start, end) for s in "coq"}
                        )
                        report = validate_plan(domain, plan)
                        got = {
                            rule: not found(report, rule)
                            for rule in ("contains", "overlaps", "equals")
                        }
                        assert got == reference_windows(bits, in_init, in_goal, start, end), (
                            bits, in_init, in_goal, start, end
                        )
                        checked += 1
    assert checked == 8184


def test_overlaps_rule():
    # p true on [0, 3) and falls once inside the action [2, 5)
    ok = hand_plan(6, {"p": [(True, 0, 3), (False, 3, 6)]}, {"o@1#1": (2, 5)})
    assert not found(validate_plan(WINDOWS, ok), "overlaps")
    # false when the action starts
    late = hand_plan(6, {"p": [(True, 0, 3), (False, 3, 6)]}, {"o@1#1": (3, 5)})
    assert found(validate_plan(WINDOWS, late), "overlaps") == [("o@1#1", "p")]
    # falls twice inside the action
    twice = hand_plan(
        8, {"p": [(True, 0, 3), (False, 3, 4), (True, 4, 5), (False, 5, 8)]}, {"o@1#1": (1, 7)}
    )
    assert found(validate_plan(WINDOWS, twice), "overlaps") == [("o@1#1", "p")]


def test_equals_rule():
    pieces = [(False, 0, 2), (True, 2, 4), (False, 4, 6)]
    ok = hand_plan(6, {"p": pieces}, {"q@1#1": (1, 5)})
    assert not found(validate_plan(WINDOWS, ok), "equals")
    wide = hand_plan(6, {"p": pieces}, {"q@1#1": (1, 6)})
    assert found(validate_plan(WINDOWS, wide), "equals") == [("q@1#1", "p")]
    short = hand_plan(6, {"p": [(False, 0, 6)]}, {"q@1#1": (1, 3)})
    assert found(validate_plan(WINDOWS, short), "equals") == [("q@1#1", "p")]


def test_frame_transition_strictly_inside_the_action():
    domain = parse_domain(
        '{"fluents": ["g"], "skills": [{"name": "a", "kind": "timer", "raises": ["g"]}],'
        ' "goal": ["g"]}'
    )
    rise = {"g": [(False, 0, 2), (True, 2, 4)]}
    assert validate_plan(domain, hand_plan(4, rise, {"a@1#1": (1, 3)})).is_valid
    for span in ((2, 4), (0, 2)):
        report = validate_plan(domain, hand_plan(4, rise, {"a@1#1": span}))
        assert found(report, "frame") == [("g",)]


def test_timeline_coverage_gap_and_conflict():
    gap = hand_plan(4, {"g": [(False, 0, 2), (False, 3, 4)]}, {})
    report = validate_plan(TINY, gap)
    assert [(v.rule, v.subjects) for v in report.violations] == [("timeline-coverage", ("g",))]
    assert "at time 2" in report.violations[0].message

    conflict = hand_plan(4, {"g": [(False, 0, 4), (True, 1, 2)]}, {})
    report = validate_plan(TINY, conflict)
    assert [(v.rule, v.subjects) for v in report.violations] == [("timeline-coverage", ("g",))]
    assert "conflicting truth" in report.violations[0].message
    assert "time 1" in report.violations[0].message


CHAINED = parse_domain(
    '{"fluents": ["g"],'
    ' "skills": [{"name": "s1", "kind": "delay", "duration": 2},'
    '            {"name": "s2", "kind": "delay", "duration": 2}],'
    ' "temporal_actions": [{"name": "t", "skills": ["s1", "s2"]}]}'
)


def test_temporal_chain_rule():
    idle = {"g": [(False, 0, 6)]}
    chained = hand_plan(6, idle, {"t@1#1": (0, 4), "s1@1#1": (0, 2), "s2@1#1": (2, 4)})
    assert validate_plan(CHAINED, chained).is_valid

    missing = hand_plan(6, idle, {"t@1#1": (0, 4), "s1@1#1": (0, 2)})
    report = validate_plan(CHAINED, missing)
    assert found(report, "temporal-chain") == [("t@1#1", "s2")]

    misaligned = hand_plan(6, idle, {"t@1#1": (0, 5), "s1@1#1": (0, 2), "s2@1#1": (3, 5)})
    report = validate_plan(CHAINED, misaligned)
    assert found(report, "temporal-chain") == [("t@1#1", "s2")]
    assert "starts at 3, expected 2" in report.violations[0].message


TWO_ACTORS = parse_domain(
    '{"fluents": ["g"], "actors": 2,'
    ' "skills": [{"name": "a", "kind": "delay", "duration": 2, "actors": [1]}]}'
)
IDLE = {"g": [(False, 0, 6)]}

# a plan, and the one violation validate_plan reports on it
PLAN_VIOLATIONS = {
    "undeclared-fluent": (
        TINY,
        hand_plan(2, {"g": [(True, 0, 2)], "h": [(False, 0, 2)]}, {}),
        ("unknown-symbol", ("h",), "undeclared fluent 'h'"),
    ),
    "actor-out-of-range": (
        TINY,
        hand_plan(2, {"g": [(True, 0, 2)]}, {"a@2#1": (0, 2)}),
        ("unknown-symbol", ("a@2#1",), "actor 2 out of range"),
    ),
    "actor-may-not-run-the-skill": (
        TWO_ACTORS,
        hand_plan(2, {"g": [(False, 0, 2)]}, {"a@2#1": (0, 2)}),
        ("unknown-symbol", ("a@2#1",), "skill 'a' not available to actor 2"),
    ),
    "fluent-entry-shape": (
        TINY,
        hand_plan(2, {"g": [(True, 0, 3)]}, {}),
        ("entry-shape", ("g",), "fluent entry [0, 3) outside [0, 2)"),
    ),
    "components-end-early": (
        CHAINED,
        hand_plan(6, IDLE, {"t@1#1": (0, 5), "s1@1#1": (0, 2), "s2@1#1": (2, 4)}),
        ("temporal-chain", ("t@1#1",), "components of t@1#1 end at 4, parent ends at 5"),
    ),
    "component-without-parent": (
        CHAINED,
        hand_plan(6, IDLE, {"s1@1#1": (0, 2)}),
        ("temporal-chain", ("s1@1#1",), "component s1@1#1 runs without parent 't'"),
    ),
}


@pytest.mark.parametrize("domain, plan, want", PLAN_VIOLATIONS.values(), ids=PLAN_VIOLATIONS.keys())
def test_each_rule_names_its_violation(domain, plan, want):
    report = validate_plan(domain, plan)
    assert [(v.rule, v.subjects, v.message) for v in report.violations] == [want]


def test_validation_cost_does_not_grow_with_the_horizon():
    horizon = 10**7
    domain = parse_domain(
        '{"fluents": ["g"], "skills": [{"name": "a", "kind": "timer", "raises": ["g"]}],'
        ' "goal": ["g"]}'
    )
    plan = hand_plan(
        horizon,
        {"g": [(False, 0, horizon // 2), (True, horizon // 2, horizon)]},
        {"a@1#1": (0, horizon)},
    )
    tracemalloc.start()
    try:
        report = validate_plan(domain, plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.is_valid
    assert peak < 1 << 20
