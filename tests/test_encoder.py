"""Encoder semantics: each constraint family is pinned down by forcing
partial assignments and checking what every surviving solution must satisfy."""

from __future__ import annotations

import hashlib
import itertools
import random
from collections import Counter

from randgen import random_tiny_domain
from tqaplan.benchgen import GadgetSpec, gen_cushing
from tqaplan.cpmodel import (
    BOOL,
    EQ,
    INT,
    LE,
    Clause,
    CspModel,
    IffConj,
    Implies,
    Lin,
    Lit,
    Term,
    export_model,
    parse_model,
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
    parse_domain,
    raises_of,
)
from tqaplan.encoder import Encoder, encode
from tqaplan.solver import (
    Engine,
    GuardExceededError,
    brute_force_solve,
    constraint_holds,
    solve,
)
from tqaplan.theory import default_horizon, instantiate
from tqaplan.validator import enumerate_models


def pinned(model, lits=(), int_eqs=()):
    """Copy-free pinning: append unit constraints and return the model."""
    for var, val in lits:
        model.add(Clause((Lit(var, val),)))
    for var, val in int_eqs:
        model.add(Lin((Term(1, INT, var),), EQ, val))
    return model


def forced_true(domain, n, pins_b=(), pins_i=(), query=None, horizon=None, cap=1):
    """True iff every solution of the pinned encoding satisfies the query
    literal; established by refuting the negation."""
    shape = instantiate(domain, n, cap, horizon)
    model = encode(shape)
    pinned(model, pins_b(shape) if callable(pins_b) else pins_b,
           pins_i(shape) if callable(pins_i) else pins_i)
    var, val = query(shape)
    model.add(Clause((Lit(var, not val),)))
    return solve(model, time_budget=60).is_unsat


def _over_only(con, bools):
    """True for a clause or linear row that mentions only ``bools``."""
    if isinstance(con, Clause):
        return {lit.var for lit in con.lits} <= bools
    return isinstance(con, Lin) and all(t.space == BOOL and t.var in bools for t in con.terms)


def test_flow_init_goal_rows_force_steady_truth():
    # the encoder's own rows over the four stage-1 flows of a fluent that is
    # both an initial condition and a goal, at one stage: enumerating the
    # flows against them leaves only steady truth
    d = Domain(
        (Fluent("p"),),
        (Skill("a", SkillKind.DELAY, 2),),
        init=frozenset({"p"}),
        goal=frozenset({"p"}),
    )
    shape = instantiate(d, 1)
    enc = Encoder()
    model = enc.advance(shape, inline=True)[0]
    tags = ((0, 0), (0, 1), (1, 0), (1, 1))
    flows = [enc.flow_id[("p", 1, v, w)] for v, w in tags]
    (flow_span,) = enc._family_rows[0]  # the flow family's rows, from one advance
    rows = [model.constraints[i] for i in flow_span]
    rows = [con for con in rows if _over_only(con, set(flows))]
    assert len(rows) == 4  # the initial pair, the two zero flows, the goal pair
    bools = [False] * model.n_bools
    solutions = []
    for bits in itertools.product((False, True), repeat=4):
        for var, bit in zip(flows, bits):
            bools[var] = bit
        if all(constraint_holds(con, bools, ()) for con in rows):
            solutions.append(dict(zip(tags, bits)))
    assert solutions == [{(0, 0): False, (0, 1): False, (1, 0): False, (1, 1): True}]

    res = solve(model, time_budget=30)
    assert res.is_sat
    assert res.assignment.bools[enc.flow_id[("p", 1, 1, 1)]]


def test_no_fluents_no_flow_rows():
    d = Domain((), (Skill("a", SkillKind.TIMER),))
    enc = Encoder()
    model = enc.advance(instantiate(d, 2, 1, 4), inline=True)[0]
    (flow_span,) = enc._family_rows[0]  # the flow family is written first
    assert not flow_span and model.constraints


def test_duration_forces_boundary_gap():
    # one delay of three ticks spanning exactly stage 1 pins b1 - b0 = 3
    d = Domain((), (Skill("a", SkillKind.DELAY, 3),))
    shape = instantiate(d, 2, 1, 6)
    model = encode(shape)
    pinned(
        model,
        [(shape.use_id[(0, 1)], True)],
        [(shape.left_id[(0, 1)], 1), (shape.right_id[(0, 1)], 2)],
    )
    check = encode(shape)
    pinned(
        check,
        [(shape.use_id[(0, 1)], True)],
        [(shape.left_id[(0, 1)], 1), (shape.right_id[(0, 1)], 2)],
    )
    gap = (Term(1, INT, shape.boundary_id[1]), Term(-1, INT, shape.boundary_id[0]))
    model.add(Lin(gap, EQ, 3))
    assert solve(model, time_budget=30).is_sat
    check.add(Lin(gap, "le", 2))
    assert solve(check, time_budget=30).is_unsat


def test_unused_copy_is_parked():
    """In the solution of each satisfiable model, every copy out of use has
    l, r, S and E at their declared lower bounds."""
    cases = [
        (gen_cushing(GadgetSpec(*spec)), (n,))
        for spec, n in ((("I", 2, None), 4), (("II", 1, 2), 9), (("III", 1, 2), 9))
    ]
    cases += [(random_tiny_domain(random.Random(seed)), (1, 2, 3)) for seed in range(30)]
    parked = 0
    for domain, stage_counts in cases:
        for cap in (1, 2, None):
            for n in stage_counts:
                shape = instantiate(domain, n, cap)
                res = solve(encode(shape), time_budget=30)
                if not res.is_sat:
                    continue
                for key, u in shape.use_id.items():
                    if res.assignment.bools[u]:
                        continue
                    for ids in (shape.left_id, shape.right_id, shape.start_id, shape.end_id):
                        var = ids[key]
                        assert res.assignment.ints[var] == shape.int_decls[var][1]
                    parked += 1
    assert parked >= 300


def test_copy_symmetry_and_ordering():
    d = Domain((), (Skill("a", SkillKind.DELAY, 1),))
    shape = instantiate(d, 3, 2, 6)
    model = encode(shape)
    pinned(model, [(shape.use_id[(0, 2)], True), (shape.use_id[(0, 1)], False)])
    assert solve(model, time_budget=30).is_unsat  # u2 -> u1
    model2 = encode(shape)
    pinned(model2, [(shape.use_id[(0, 2)], True)])
    res = solve(model2, time_budget=30)
    assert res.is_sat
    r1 = res.assignment.ints[shape.right_id[(0, 1)]]
    l2 = res.assignment.ints[shape.left_id[(0, 2)]]
    assert r1 <= l2


CONTAINS_DOMAIN = Domain(
    (Fluent("p"), Fluent("g")),
    (
        Skill("mk", SkillKind.DELAY, 2, raises=frozenset({"p"})),
        Skill("use", SkillKind.DELAY, 2, constraints=(ConstraintSpec("p", ConstraintRel.CONTAINS),)),
    ),
    goal=frozenset(),
)


def test_contains_spans_force_truth():
    # a copy spanning stages 2..3 of four forces p true through both stages
    # and at the surrounding boundary instants
    shape = instantiate(CONTAINS_DOMAIN, 4, 1, 12)
    use_idx = shape.action_index("use", 1)
    pins_b = [(shape.use_id[(use_idx, 1)], True)]
    pins_i = [(shape.left_id[(use_idx, 1)], 2), (shape.right_id[(use_idx, 1)], 4)]
    for stage in (2, 3):
        model = encode(shape)
        pinned(model, pins_b, pins_i)
        model.add(Clause((Lit(shape.flow_id[("p", stage, 1, 1)], False),)))
        assert solve(model, time_budget=60).is_unsat
    # true at the end of stage 1: one of the two stage-1 "ends true" flows
    model = encode(shape)
    pinned(model, pins_b, pins_i)
    model.add(Clause((Lit(shape.flow_id[("p", 1, 0, 1)], False),)))
    model.add(Clause((Lit(shape.flow_id[("p", 1, 1, 1)], False),)))
    assert solve(model, time_budget=60).is_unsat
    # true at the start of stage 4
    model = encode(shape)
    pinned(model, pins_b, pins_i)
    model.add(Clause((Lit(shape.flow_id[("p", 4, 1, 0)], False),)))
    model.add(Clause((Lit(shape.flow_id[("p", 4, 1, 1)], False),)))
    assert solve(model, time_budget=60).is_unsat


def test_contains_boundary_gates():
    # starting at stage 1 needs the fluent in the initial conditions
    shape = instantiate(CONTAINS_DOMAIN, 2, 1, 8)
    use_idx = shape.action_index("use", 1)
    model = encode(shape)
    pinned(model, [(shape.use_id[(use_idx, 1)], True)], [(shape.left_id[(use_idx, 1)], 1)])
    assert solve(model, time_budget=60).is_unsat

    with_init = Domain(
        CONTAINS_DOMAIN.fluents,
        CONTAINS_DOMAIN.skills,
        init=frozenset({"p"}),
    )
    shape2 = instantiate(with_init, 2, 1, 8)
    model2 = encode(shape2)
    pinned(model2, [(shape2.use_id[(use_idx, 1)], True)], [(shape2.left_id[(use_idx, 1)], 1)])
    assert solve(model2, time_budget=60).is_sat


def test_overlaps_forces_single_fall_inside_span():
    # the window fluent is true at the start and falls exactly once inside;
    # at one stage this pins the stage-1 fall flow
    d = Domain(
        (Fluent("p"), Fluent("q")),
        (
            Skill("drop", SkillKind.DELAY, 2, raises=frozenset({"q"})),
            Skill(
                "ride",
                SkillKind.DELAY,
                2,
                constraints=(ConstraintSpec("p", ConstraintRel.OVERLAPS),),
            ),
        ),
        interference=frozenset({("p", "q")}),
        init=frozenset({"p"}),
    )
    shape = instantiate(d, 1, 1, 4)
    ride = shape.action_index("ride", 1)
    model = encode(shape)
    pinned(model, [(shape.use_id[(ride, 1)], True)])
    model.add(Clause((Lit(shape.flow_id[("p", 1, 1, 0)], False),)))
    assert solve(model, time_budget=60).is_unsat
    model2 = encode(shape)
    pinned(model2, [(shape.use_id[(ride, 1)], True)])
    assert solve(model2, time_budget=60).is_sat


def test_overlaps_start_gate_needs_init():
    d = Domain(
        (Fluent("p"),),
        (Skill("ride", SkillKind.DELAY, 2, constraints=(ConstraintSpec("p", ConstraintRel.OVERLAPS),)),),
    )
    shape = instantiate(d, 1, 1, 4)
    model = encode(shape)
    pinned(model, [(shape.use_id[(0, 1)], True)])
    assert solve(model, time_budget=60).is_unsat  # p never true, no fall


def test_temporal_action_chains_components():
    d = Domain(
        (),
        (Skill("a1", SkillKind.DELAY, 1), Skill("a2", SkillKind.DELAY, 1)),
        temporal_actions=(TemporalAction("t", ("a1", "a2")),),
    )
    shape = instantiate(d, 2, 1, 4)
    t_idx = shape.action_index("t", 1)
    a1, a2 = shape.action_index("a1", 1), shape.action_index("a2", 1)
    model = encode(shape)
    pinned(
        model,
        [(shape.use_id[(t_idx, 1)], True)],
        [(shape.left_id[(t_idx, 1)], 1), (shape.right_id[(t_idx, 1)], 3)],
    )
    res = solve(model, time_budget=60)
    assert res.is_sat
    ints = res.assignment.ints
    assert ints[shape.end_id[(a1, 1)]] == ints[shape.start_id[(a2, 1)]]
    assert ints[shape.start_id[(a1, 1)]] == ints[shape.start_id[(t_idx, 1)]]
    assert ints[shape.end_id[(a2, 1)]] == ints[shape.end_id[(t_idx, 1)]]
    # components may not run without the parent
    model2 = encode(shape)
    pinned(model2, [(shape.use_id[(a1, 1)], True), (shape.use_id[(t_idx, 1)], False)])
    assert solve(model2, time_budget=60).is_unsat


def test_resource_window_insets():
    d = Domain(
        (Fluent("w", FluentRole.RESOURCE),),
        (Skill("a", SkillKind.DELAY, 6, constraints=(ConstraintSpec("w", ConstraintRel.EQUALS),)),),
    )
    shape = instantiate(d, 4, 1, 8)
    model = encode(shape)
    pinned(
        model,
        [(shape.use_id[(0, 1)], True)],
        [(shape.left_id[(0, 1)], 1), (shape.right_id[(0, 1)], 5)],
    )
    res = solve(model, time_budget=60)
    assert res.is_sat
    ints = res.assignment.ints
    assert ints[shape.split_id[("w", 1)]] == ints[shape.boundary_id[0]] + 1
    assert ints[shape.split_id[("w", 4)]] == ints[shape.boundary_id[4]] - 1
    bools = res.assignment.bools
    assert bools[shape.flow_id[("w", 1, 0, 1)]]
    assert bools[shape.flow_id[("w", 2, 1, 1)]] and bools[shape.flow_id[("w", 3, 1, 1)]]
    assert bools[shape.flow_id[("w", 4, 1, 0)]]


def test_frame_empty_disjunction_makes_goal_unreachable():
    d = parse_domain(
        '{"fluents": ["g"], "skills": [{"name": "a", "kind": "delay", "duration": 2}],'
        ' "goal": ["g"]}'
    )
    for n in (1, 2, 3):
        assert solve(encode(instantiate(d, n)), time_budget=60).is_unsat


def test_interference_cut_rejects_joint_goals():
    d = Domain(
        (Fluent("p"), Fluent("q")),
        (
            Skill("a", SkillKind.DELAY, 2, raises=frozenset({"p"})),
            Skill("b", SkillKind.DELAY, 2, raises=frozenset({"q"})),
        ),
        interference=frozenset({("p", "q")}),
        goal=frozenset({"p", "q"}),
    )
    for n in (1, 2, 3):
        assert solve(encode(instantiate(d, n)), time_budget=120).is_unsat


def test_encode_deterministic():
    d = parse_domain(
        '{"fluents": ["g"], "skills": [{"name": "a", "kind": "delay", "duration": 2,'
        ' "raises": ["g"]}], "goal": ["g"]}'
    )
    a = export_model(encode(instantiate(d, 2), "makespan"))
    b = export_model(encode(instantiate(d, 2), "makespan"))
    assert a == b


def test_flow_exactly_one_on_solutions():
    rng = random.Random(17)
    found = 0
    while found < 15:
        d = random_tiny_domain(rng)
        n = rng.choice((1, 2))
        h = min(default_horizon(d, n), 6)
        if h < n:
            continue
        shape = instantiate(d, n, None, h)
        res = solve(encode(shape), time_budget=30)
        if not res.is_sat:
            continue
        found += 1
        for fluent in shape.fluent_names:
            for t in range(1, n + 1):
                total = sum(
                    res.assignment.bools[shape.flow_id[(fluent, t, v, w)]]
                    for v in (0, 1)
                    for w in (0, 1)
                )
                assert total == 1


def test_oracle_equivalence_batch():
    rng = random.Random(31)
    checked = 0
    for _ in range(40):
        d = random_tiny_domain(rng)
        for n in (1, 2, 3):
            h = min(default_horizon(d, n), 6)
            if h < n:
                continue
            res = solve(encode(instantiate(d, n, None, h)), time_budget=60)
            try:
                truth = enumerate_models(d, n, None, h)
            except GuardExceededError:
                continue
            assert res.is_sat == truth.is_sat
            checked += 1
    assert checked >= 60


# sha256 of the concatenated export_model text over GOLDEN_GRID, computed on
# the encoder that leaves b[0] = 0 and b[N] <= h to the declared domains,
# parks an unused copy's l at 1 and writes none of the rows that
# _left_out_rows lists
GOLDEN_DIGEST = "1d324e60f0a0718e2c8de64468f5d60392b6e0f79a654b1fb7ff646cbae98fa9"
# (type, copies, height), n*: the minimal stage count at copy cap 1
GOLDEN_GRID = ((("I", 20, None), 4), (("II", 3, 3), 14), (("III", 3, 3), 17), (("II", 1, 2), 9))


def test_models_are_byte_identical_to_the_golden_digest():
    """Every model over the grid (caps 1, 2 and default, N = 1..n*, all
    three objectives) exports to exactly the pinned text."""
    digest = hashlib.sha256()
    for spec, n_star in GOLDEN_GRID:
        domain = gen_cushing(GadgetSpec(*spec))
        for cap in (1, 2, None):
            for n in range(1, n_star + 1):
                shape = instantiate(domain, n, cap)
                for objective in ("none", "costs", "makespan"):
                    digest.update(export_model(encode(shape, objective)).encode())
    assert digest.hexdigest() == GOLDEN_DIGEST


def test_declared_domains_fix_the_first_boundary_and_cap_the_last():
    """The encoder writes no row b[0] = 0 and none b[N] <= h: the declared
    domains of the boundaries say both."""
    domains = [(gen_cushing(GadgetSpec(*spec)), range(1, n_star + 1)) for spec, n_star in GOLDEN_GRID]
    domains += [(random_tiny_domain(random.Random(seed)), (1, 2, 3)) for seed in range(100)]
    for domain, stage_counts in domains:
        for cap in (1, 2, None):
            for n in stage_counts:
                shape = instantiate(domain, n, cap)
                _, lo, hi = shape.int_decls[shape.boundary_id[0]]
                assert (lo, hi) == (0, 0)
                assert shape.int_decls[shape.boundary_id[n]][2] <= shape.horizon


# the same, over random tiny domains: several raisers per fluent, equality
# resources, interference and temporal actions, which the gadgets lack
GOLDEN_TINY_DIGEST = "12a2d7381061e8b4cdaf481b6b6b316faaadef9a5462afa6d3104e826effb761"


def test_tiny_domain_models_are_byte_identical_to_the_golden_digest():
    digest = hashlib.sha256()
    for seed in range(100):
        domain = random_tiny_domain(random.Random(seed))
        for cap in (1, 2, None):
            for n in (1, 2, 3):
                shape = instantiate(domain, n, cap)
                for objective in ("none", "costs", "makespan"):
                    text = export_model(encode(shape, objective))
                    # the reader's memos give back the very text they read
                    assert export_model(parse_model(text)) == text
                    digest.update(text.encode())
    assert digest.hexdigest() == GOLDEN_TINY_DIGEST


def _named_rows(model):
    """The rows, the objective and the domains of a model, with variable names
    in place of ids, so that models numbered differently compare."""
    bools, ints = model.bool_names, [name for name, _, _ in model.int_decls]

    def atoms(items):
        return " ".join(
            f"{'+' if a.val else '-'}{bools[a.var]}" if isinstance(a, Lit)
            else f"{ints[a.var]}{a.op}{a.k}"
            for a in items
        )

    def terms(items):
        return " ".join(f"{t.coef}*{(bools if t.space == BOOL else ints)[t.var]}" for t in items)

    def row(con):
        if isinstance(con, Lin):
            return f"lin {con.op} {con.const}: {terms(con.terms)}"
        if isinstance(con, Implies):
            return f"imp {atoms(con.guard)} -> {row(con.body)}"
        if isinstance(con, IffConj):
            return f"iff {atoms((con.lit,))} = {atoms(con.atoms)}"
        return f"{type(con).__name__} {atoms(con.lits)}"

    objective = terms(model.objective) if model.objective is not None else None
    domains = {name: (lo, hi) for name, lo, hi in model.int_decls}
    return Counter(map(row, model.constraints)), objective, set(bools), domains


STRUCTURE_SETTINGS = [
    (horizon, objective) for horizon in (None, 9) for objective in ("none", "costs", "makespan")
]


def _growing_matches_encode(domain, cap, horizon, objective, counts=(1, 2, 3, 4)):
    grower = Encoder(objective, cap)
    for n in counts:
        model, n_stable, order = grower.advance(instantiate(domain, n, cap, horizon))
        assert sorted(order) == list(range(len(model.constraints)))
        assert 0 < n_stable <= len(model.constraints)
        single = encode(instantiate(domain, n, cap, horizon), objective)
        assert _named_rows(model) == _named_rows(single), (cap, horizon, objective, n)


def test_growing_model_equals_the_single_count_model():
    """At every stage count the grown model is the model encode writes, up to
    the numbering of its variables: the same multiset of rows, domains and
    objective.  The gadgets run every cap, horizon and objective; each random
    domain runs every cap, with the horizon and objective taken in turn."""
    for spec in (("I", 2, None), ("II", 1, 2), ("III", 1, 2)):
        domain = gen_cushing(GadgetSpec(*spec))
        for cap in (1, 2, None):
            for horizon, objective in STRUCTURE_SETTINGS:
                _growing_matches_encode(domain, cap, horizon, objective)
        # counts that skip, as the geometric schedule does
        _growing_matches_encode(domain, None, None, "makespan", (1, 2, 4, 8))
    for seed in range(100):
        domain = random_tiny_domain(random.Random(seed))
        for ci, cap in enumerate((1, 2, None)):
            horizon, objective = STRUCTURE_SETTINGS[(3 * seed + ci) % len(STRUCTURE_SETTINGS)]
            _growing_matches_encode(domain, cap, horizon, objective)


def test_growing_model_rejects_a_falling_stage_count():
    domain = gen_cushing(GadgetSpec("I", 1, None))
    grower = Encoder("none", 1)
    grower.advance(instantiate(domain, 2, 1))
    try:
        grower.advance(instantiate(domain, 2, 1))
    except ValueError:
        return
    raise AssertionError("a repeated stage count was accepted")


def test_each_atom_is_held_once_as_its_own_key():
    """The encoder holds each literal, comparison and term once, as the key
    of its kind's table; the negation of a negation is the literal itself;
    and the atoms a grown model's rows reach are exactly the held ones."""
    domain = gen_cushing(GadgetSpec("II", 1, 2))
    grower = Encoder("none", 2)
    for n in range(1, 10):
        model, _, _ = grower.advance(instantiate(domain, n, 2))
    tables = (grower.lits, grower.cmps, grower.terms)
    assert all(k is v for table in tables for k, v in table.items())
    reached = {}
    for con in model.constraints:
        if isinstance(con, Implies):
            reached.update((id(a), a) for a in con.guard)
            con = con.body
        if isinstance(con, IffConj):
            atoms = (con.lit, *con.atoms)
        else:
            atoms = con.terms if isinstance(con, Lin) else con.lits
        reached.update((id(a), a) for a in atoms)
    assert reached.keys() == {id(a) for table in tables for a in table}
    assert all(grower._not(grower._not(lit)) is lit for lit in list(grower.lits))


def _left_out_rows(shape):
    """Rows the encoder leaves to the rest of the model, each negated and
    paired with the Boolean that guards it: per fluent and stage, the six
    single-flow split rows (a transition f01 or f10 puts the split strictly
    inside the stage, a constant flow f00 or f11 parks it at t - 1; the
    negation of s = t - 1 is checked as each of its two halves); every
    copy's span width E - S >= r - l; a timer's S - E <= -1 and an equals
    window's S - E <= -2; at copy cap 1, the single-provider window cuts on
    end points, under the conditions emit_implied_cuts writes its rows."""
    d = shape.domain

    def at_least(x, y, k):  # x - y >= k, the negation of x - y <= k - 1
        return Lin((Term(1, INT, y), Term(-1, INT, x)), LE, -k)

    rows = []
    for fluent in shape.fluent_names:
        for t in range(1, shape.n_stages + 1):
            s = shape.split_id[(fluent, t)]
            b_prev, b_cur = shape.boundary_id[t - 1], shape.boundary_id[t]
            for tag in ((0, 1), (1, 0)):
                f = shape.flow_id[(fluent, t, *tag)]
                rows += [(f, at_least(b_prev, s, 0)), (f, at_least(s, b_cur, 0))]
            below, above = Lin((Term(1, INT, s),), LE, t - 2), Lin((Term(-1, INT, s),), LE, -t)
            for v in (0, 1):
                f = shape.flow_id[(fluent, t, v, v)]
                rows += [(f, below), (f, above)]
    for ai, ref in enumerate(shape.actions):
        skill = shape.skill_of(ref) if ref.kind == "skill" else None
        for k in shape.copies():
            u = shape.use_id[(ai, k)]
            l, r = shape.left_id[(ai, k)], shape.right_id[(ai, k)]
            s, e = shape.start_id[(ai, k)], shape.end_id[(ai, k)]
            width = (Term(1, INT, e), Term(-1, INT, s), Term(-1, INT, r), Term(1, INT, l))
            rows.append((u, Lin(width, LE, -1)))
            if skill is None:
                continue
            if skill.kind is SkillKind.TIMER:
                rows.append((u, at_least(s, e, 0)))
            if any(c.rel is ConstraintRel.EQUALS for c in skill.constraints):
                rows.append((u, at_least(s, e, -1)))
    if shape.copy_cap != 1:
        return rows
    skill_ais = [ai for ai, ref in enumerate(shape.actions) if ref.kind == "skill"]
    roles = {f.name: f.role for f in d.fluents}
    for ai in skill_ais:
        for spec in shape.skill_of(shape.actions[ai]).constraints:
            if spec.rel is ConstraintRel.EQUALS or spec.fluent in d.init:
                continue
            providers = [
                bi for bi in skill_ais if spec.fluent in raises_of(d, shape.actions[bi].name)
            ]
            if len(providers) != 1 or roles[spec.fluent] is not FluentRole.RESOURCE:
                continue
            bi = providers[0]
            window = ConstraintSpec(spec.fluent, ConstraintRel.EQUALS)
            if window not in shape.skill_of(shape.actions[bi]).constraints:
                continue
            u = shape.use_id[(ai, 1)]
            e_a, e_b = shape.end_id[(ai, 1)], shape.end_id[(bi, 1)]
            if spec.rel is ConstraintRel.CONTAINS:
                rows.append((u, at_least(e_a, e_b, -1)))
            else:
                r_a, r_b = shape.right_id[(ai, 1)], shape.right_id[(bi, 1)]
                s_a = shape.start_id[(ai, 1)]
                rows += [(u, at_least(r_b, r_a, 1)), (u, at_least(e_b, e_a, 1))]
                rows.append((u, at_least(s_a, e_b, -1)))
    return rows


def test_left_out_rows_are_implied():
    """The model with a copy in use and any left-out row negated has no
    solution: brute force decides where the model fits its guard, search
    elsewhere."""
    shapes = [
        (gen_cushing(GadgetSpec(*spec)), range(1, 5))
        for spec in (("I", 1, None), ("II", 1, 2), ("III", 1, 2))
    ]
    shapes += [(random_tiny_domain(random.Random(seed)), range(1, 4)) for seed in range(100)]
    checks = Counter()
    for domain, stage_counts in shapes:
        for cap in (1, 2, None):
            for n in stage_counts:
                shape = instantiate(domain, n, cap)
                model = encode(shape)
                # brute force's guard reads only the domains, which every
                # check of a model shares; past it, one engine compiles the
                # model once and each check's two rows as its tail
                engine = None
                for u, negation in _left_out_rows(shape):
                    rows = model.constraints + [Clause((Lit(u),)), negation]
                    probe = CspModel(model.bool_names, model.int_decls, rows)
                    if engine is None:
                        try:
                            result = brute_force_solve(probe)
                        except GuardExceededError:
                            engine = Engine()
                    if engine is not None:
                        engine.load(probe, len(model.constraints))
                        result = solve(probe, engine)
                    assert result.status == "unsat", (shape.n_stages, cap, u, negation)
                    checks["brute force" if engine is None else "search"] += 1
    assert checks["brute force"] >= 400 and checks["search"] >= 400, checks
