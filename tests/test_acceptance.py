"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Later criteria (flow invariant, frame soundness) audit every satisfying
assignment and decoded plan collected by the earlier ones.
"""

from __future__ import annotations

import csv
import itertools
import random
import time

import conftest
from randgen import random_small_model, random_tiny_domain
from tqaplan.benchgen import GadgetSpec, gen_cushing
from tqaplan.cli import CSV_COLUMNS, main as cli_main
from tqaplan.domain import lowers, raises_of
from tqaplan.encoder import encode
from tqaplan.intervals import INVERSE, AllenRelation, Interval, allen_relation
from tqaplan.search import SearchLimits, decode, find_plan
from tqaplan.solver import (
    GuardExceededError,
    brute_force_solve,
    solve,
)
from tqaplan.theory import default_horizon, instantiate
from tqaplan.validator import enumerate_models, validate_plan

collected_assignments = []  # (shape, assignment)
collected_plans = []  # (domain, plan)


def report(number: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    conftest.acceptance_lines.append(line)
    assert ok, line


def record_sat(shape, assignment, domain=None):
    collected_assignments.append((shape, assignment))
    if domain is not None:
        plan, _ = decode(shape, assignment)
        collected_plans.append((domain, plan))


def test_criterion_1_allen_exactly_one():
    started = time.monotonic()
    intervals = [Interval(l, r) for l in range(33) for r in range(l + 1, 33)]
    tags = list(AllenRelation)
    checked = 0
    for x, y in itertools.product(intervals, intervals):
        rel = allen_relation(x, y)
        assert rel in tags
        assert INVERSE[rel] is allen_relation(y, x)
        checked += 1
    elapsed = time.monotonic() - started
    report(
        1,
        elapsed < 5.0,
        f"exactly-one and inverse consistency over {checked} interval pairs "
        f"(bounds <= 32) in {elapsed:.2f}s",
    )


def test_criterion_2_encoder_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(20240614)
    instances = 0
    mismatches = 0
    while instances < 220:
        domain = random_tiny_domain(rng)
        for n in (1, 2, 3):
            horizon = min(default_horizon(domain, n), 6)
            if horizon < n:
                continue
            shape = instantiate(domain, n, None, horizon)
            mine = solve(encode(shape), time_budget=60)
            assert mine.status != "limit"
            try:
                truth = enumerate_models(domain, n, None, horizon)
            except GuardExceededError:
                continue
            instances += 1
            if mine.is_sat != truth.is_sat:
                mismatches += 1
            if mine.is_sat:
                record_sat(shape, mine.assignment, domain)
    elapsed = time.monotonic() - started
    report(
        2,
        mismatches == 0 and elapsed < 120.0,
        f"{instances} randomized tiny instances, {mismatches} mismatches, "
        f"{elapsed:.1f}s",
    )


def test_criterion_3_solver_brute_force_agreement():
    started = time.monotonic()
    rng = random.Random(777)
    status_mismatch = objective_mismatch = 0
    for _ in range(220):
        model = random_small_model(rng)
        mine = solve(model, time_budget=60)
        truth = brute_force_solve(model)
        if mine.is_sat != truth.is_sat:
            status_mismatch += 1
        elif mine.is_sat and model.objective is not None and mine.objective != truth.objective:
            objective_mismatch += 1
    elapsed = time.monotonic() - started
    report(
        3,
        status_mismatch == 0 and objective_mismatch == 0 and elapsed < 120.0,
        f"220 random models, {status_mismatch} status and {objective_mismatch} "
        f"objective mismatches, {elapsed:.1f}s",
    )


def test_criterion_4_gadget_reproduction():
    relations_ok = True
    for copies in range(1, 6):
        domain = gen_cushing(GadgetSpec("I", copies))
        started = time.monotonic()
        outcome = find_plan(
            domain,
            limits=SearchLimits(max_n=8, copy_cap=1, time_budget=55),
        )
        elapsed = time.monotonic() - started
        assert outcome.found, f"Type I m={copies} not solved"
        assert elapsed < 60.0, f"Type I m={copies} took {elapsed:.1f}s"
        check = validate_plan(domain, outcome.plan)
        assert check.is_valid, check.violations
        collected_plans.append((domain, outcome.plan))
        if copies == 1:
            diagram = outcome.diagram
            w1 = diagram.true_segments("w1_g1")[0]
            w2 = diagram.true_segments("w2_g1")[0]
            a2 = diagram.action_interval("a2_g1")
            a3 = diagram.action_interval("a3_g1")
            relations_ok = (
                allen_relation(w1, a2) is AllenRelation.OVERLAPS
                and allen_relation(w1, a3) is AllenRelation.CONTAINS
                and allen_relation(w2, a3) is AllenRelation.CONTAINS
            )
    report(
        4,
        relations_ok,
        "Type I m=1..5 found and valid; m=1 diagram shows the window "
        "overlapping a2 and both windows strictly containing a3",
    )


def test_criterion_5_scaled_sweep(tmp_path):
    worst = 0.0
    for copies in range(1, 11):
        domain = gen_cushing(GadgetSpec("I", copies))
        started = time.monotonic()
        outcome = find_plan(
            domain,
            limits=SearchLimits(max_n=8, copy_cap=1, time_budget=290),
        )
        elapsed = time.monotonic() - started
        worst = max(worst, elapsed)
        assert outcome.found and elapsed < 300.0, f"Type I m={copies}: {elapsed:.1f}s"
        assert validate_plan(domain, outcome.plan).is_valid
        collected_plans.append((domain, outcome.plan))
    for copies in (1, 2, 3):
        for height in (2, 3):
            domain = gen_cushing(GadgetSpec("II", copies, height))
            started = time.monotonic()
            outcome = find_plan(
                domain,
                limits=SearchLimits(max_n=16, copy_cap=1, time_budget=290),
            )
            elapsed = time.monotonic() - started
            worst = max(worst, elapsed)
            assert outcome.found and elapsed < 300.0, (
                f"Type II m={copies} h={height}: {elapsed:.1f}s"
            )
            assert validate_plan(domain, outcome.plan).is_valid
            collected_plans.append((domain, outcome.plan))
    # sequencing instances: validated, no runtime bound asserted
    for copies in (1, 2, 3):
        domain = gen_cushing(GadgetSpec("III", copies, 2))
        outcome = find_plan(
            domain, limits=SearchLimits(max_n=20, copy_cap=1, time_budget=300)
        )
        assert outcome.found
        assert validate_plan(domain, outcome.plan).is_valid
        collected_plans.append((domain, outcome.plan))

    csv_path = tmp_path / "bench.csv"
    code = cli_main(
        [
            "bench", "--type", "I", "--copies", "1..10",
            "--max-copies", "1", "--out", str(csv_path),
        ]
    )
    assert code == 0
    code = cli_main(
        [
            "bench", "--type", "II", "--copies", "1..3", "--height", "2..3",
            "--max-copies", "1", "--out", str(csv_path),
        ]
    )
    assert code == 0
    with csv_path.open() as handle:
        rows = list(csv.DictReader(handle))
    assert list(rows[0].keys()) == list(CSV_COLUMNS)
    assert len(rows) == 16
    assert all(row["verdict"] == "valid" for row in rows)
    report(
        5,
        True,
        f"Type I m<=10 and Type II (m<=3, h<=3) solved+validated "
        f"(worst {worst:.1f}s); Type III m<=3 validated; 16-row bench CSV",
    )


def test_criterion_6_flow_invariant():
    assert collected_assignments, "criteria 2-5 collected no assignments"
    violations = 0
    for shape, assignment in collected_assignments:
        for fluent in shape.fluent_names:
            for t in range(1, shape.n_stages + 1):
                total = sum(
                    assignment.bools[shape.flow_id[(fluent, t, v, w)]]
                    for v in (0, 1)
                    for w in (0, 1)
                )
                if total != 1:
                    violations += 1
    report(
        6,
        violations == 0,
        f"exactly one flow per (fluent, stage) over {len(collected_assignments)} "
        f"satisfying assignments; {violations} violations",
    )


def test_criterion_7_frame_soundness():
    assert collected_plans, "criteria 2-5 collected no plans"
    violations = 0
    for domain, plan in collected_plans:
        total = plan.end_time
        timeline = {f.name: [False] * total for f in domain.fluents}
        for key, (truth, left, right) in plan.fluent_entries.items():
            for x in range(left, right):
                timeline[key.fluent][x] = truth
        spans = {}
        for key, span in plan.action_entries.items():
            if key.name in domain.skill_map():
                spans.setdefault(key.name, []).append(span)
        for fluent, row in timeline.items():
            for x in range(1, total):
                if row[x] == row[x - 1]:
                    continue
                relation = raises_of if row[x] else lowers
                covered = any(
                    start < x < end
                    for skill in domain.skill_map()
                    if fluent in relation(domain, skill)
                    for start, end in spans.get(skill, ())
                )
                if not covered:
                    violations += 1
    report(
        7,
        violations == 0,
        f"every transition strictly covered by a justifying action across "
        f"{len(collected_plans)} decoded plans; {violations} violations",
    )


def test_criterion_8_minimal_stage_count():
    rng = random.Random(4242)
    checked = 0
    disagreements = 0
    while checked < 20:
        domain = random_tiny_domain(rng)
        outcome = find_plan(domain, limits=SearchLimits(max_n=3, horizon=6))
        if not outcome.found or outcome.n_found < 2:
            continue
        try:
            below = enumerate_models(domain, outcome.n_found - 1, None, 6)
            at = enumerate_models(domain, outcome.n_found, None, 6)
        except GuardExceededError:
            continue
        checked += 1
        if below.is_sat or not at.is_sat:
            disagreements += 1
    report(
        8,
        disagreements == 0,
        f"linear search minimality vs the enumeration oracle on {checked} "
        f"domains with N >= 2; {disagreements} disagreements",
    )


def test_criterion_9_makespan_optimality():
    rng = random.Random(31337)
    checked = 0
    mismatches = 0
    while checked < 20:
        domain = random_tiny_domain(rng)
        n = rng.choice((1, 2))
        horizon = min(default_horizon(domain, n), 6)
        if horizon < n:
            continue
        shape = instantiate(domain, n, None, horizon)
        mine = solve(encode(shape, "makespan"), time_budget=60)
        if not mine.is_sat:
            continue
        try:
            truth = enumerate_models(domain, n, None, horizon, objective="makespan")
        except GuardExceededError:
            continue
        checked += 1
        if not truth.is_sat or mine.objective != truth.objective:
            mismatches += 1
    report(
        9,
        mismatches == 0,
        f"makespan optimum equals the enumeration optimum on {checked} "
        f"instances; {mismatches} mismatches",
    )
