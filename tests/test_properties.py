"""Cross-module properties: decoded plans viewed through the interval-logic
layer, grounding with actor restrictions, and round trips under random data."""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from randgen import random_small_model, random_tiny_domain
from tqaplan.domain import parse_domain, serialize_domain
from tqaplan.cpmodel import (
    Clause,
    Cmp,
    IffConj,
    Implies,
    Lin,
    Lit,
    ModelFormatError,
    export_model,
    parse_model,
)
from tqaplan.encoder import encode
from tqaplan.intervals import History, Interval, Tqa, check_tqa
from tqaplan.search import SearchLimits, find_plan
from tqaplan.solver import brute_force_solve, solve
from tqaplan.theory import ground_actions, instantiate
from tqaplan.validator import validate_plan


def test_valid_plan_history_is_homogeneous():
    domain = parse_domain(
        '{"fluents": ["g"],'
        ' "skills": [{"name": "a", "kind": "delay", "duration": 4, "raises": ["g"]}],'
        ' "goal": ["g"]}'
    )
    outcome = find_plan(domain, limits=SearchLimits(max_n=3))
    assert outcome.found
    diagram = outcome.diagram
    total = diagram.boundaries[-1]
    history = History.from_true_segments(total, {"g": diagram.true_segments("g")})
    for segment in diagram.fluents["g"]:
        iv = segment.interval
        if iv.size > 8:
            continue
        assert check_tqa(history, Tqa("g", segment.truth, iv))
        for left in range(iv.left, iv.right):
            for right in range(left + 1, iv.right + 1):
                assert check_tqa(history, Tqa("g", segment.truth, Interval(left, right)))


def test_interfering_fluents_never_cotemporal_in_found_plans():
    domain = parse_domain(
        '{"fluents": ["p", "q"],'
        ' "skills": ['
        '  {"name": "mk_p", "kind": "delay", "duration": 2, "raises": ["p"]},'
        '  {"name": "mk_q", "kind": "delay", "duration": 2, "raises": ["q"]}],'
        ' "interference": [["p", "q"]],'
        ' "init": ["p"], "goal": ["q"]}'
    )
    outcome = find_plan(domain, limits=SearchLimits(max_n=4))
    assert outcome.found
    p_true = outcome.diagram.true_segments("p")
    q_true = outcome.diagram.true_segments("q")
    for a in p_true:
        for b in q_true:
            assert a.right <= b.left or b.right <= a.left
    assert validate_plan(domain, outcome.plan).is_valid


def test_actor_restricted_skills_ground_and_validate():
    domain = parse_domain(
        '{"fluents": ["g"],'
        ' "actors": 2,'
        ' "skills": [{"name": "a", "kind": "delay", "duration": 2, "raises": ["g"],'
        '             "actors": [2]}],'
        ' "goal": ["g"]}'
    )
    refs = ground_actions(domain)
    assert [(r.name, r.actor) for r in refs] == [("a", 2)]
    outcome = find_plan(domain, limits=SearchLimits(max_n=2))
    assert outcome.found
    (key,) = outcome.plan.action_entries
    assert key.actor == 2
    assert validate_plan(domain, outcome.plan).is_valid


def test_domain_round_trip_randomized():
    rng = random.Random(2718)
    for _ in range(60):
        domain = random_tiny_domain(rng)
        assert parse_domain(serialize_domain(domain)) == domain


def test_model_text_round_trip_preserves_solving():
    rng = random.Random(3141)
    for _ in range(40):
        model = random_small_model(rng)
        again = parse_model(export_model(model))
        assert again == model
        a = solve(model, time_budget=20)
        b = solve(again, time_budget=20)
        assert (a.status, a.objective, a.nodes) == (b.status, b.objective, b.nodes)


def test_encoded_model_survives_its_text_form():
    domain = parse_domain(
        '{"fluents": ["g"],'
        ' "skills": [{"name": "a", "kind": "delay", "duration": 2, "raises": ["g"]}],'
        ' "goal": ["g"]}'
    )
    model = encode(instantiate(domain, 2), "makespan")
    text = export_model(model)
    again = parse_model(text)
    assert again == model
    assert export_model(again) == text
    first = solve(model, time_budget=30)
    second = solve(again, time_budget=30)
    assert first.is_sat and second.is_sat
    assert first.objective == second.objective


# variable names that may be empty or hold whitespace, line breaks included
_names = st.text(st.sampled_from("xy_[,]0 \t\n\r\x0b\x1c\u2028"), max_size=4)


@st.composite
def _redrawn_models(draw):
    """A random small model with a few names and domains redrawn, empty
    names, whitespace and empty domains among them."""
    m = random_small_model(random.Random(draw(st.integers(0, 2**32 - 1))))
    for i in draw(st.sets(st.integers(0, m.n_bools - 1), max_size=2)):
        m.bool_names[i] = draw(_names)
    for j in draw(st.sets(st.integers(0, m.n_ints - 1), max_size=2)):
        name, lo, hi = m.int_decls[j]
        m.int_decls[j] = (draw(st.one_of(st.just(name), _names)), lo, draw(st.integers(lo - 2, hi)))
    return m


def _outcome(run, m):
    try:
        res = run(m)
    except Exception as exc:  # which error, not where it was raised
        return type(exc)
    return res


@settings(max_examples=150, deadline=None)
@given(_redrawn_models())
def test_written_models_read_back_as_themselves(m):
    text = _outcome(export_model, m)
    assert text is ModelFormatError or parse_model(text) == m


def _edited(con, edit: str, i: int):
    """One row edit.  ``same`` rebuilds the row from its fields and
    ``kind`` builds a row of another kind from the same fields.  ``const``
    moves a linear body's constant; otherwise it and ``flip`` edit the atom
    at ``i`` (see :func:`_edited_atoms`), or ``flip`` negates the IffConj's
    literal or a linear row's coefficient at ``i``."""
    if edit == "same":
        return type(con)(*con)
    if edit == "kind":
        if isinstance(con, Clause):
            return IffConj(con.lits[0], con.lits[1:])
        if isinstance(con, Lin):
            return Implies((), con)
        if isinstance(con, Implies):
            return con.body
        return Implies(con.atoms, Clause((con.lit,)))
    if isinstance(con, Implies):
        if edit == "const" and isinstance(con.body, Lin):
            return Implies(con.guard, _edited(con.body, edit, i))
        return Implies(_edited_atoms(con.guard, i), con.body)
    if isinstance(con, Lin):
        if edit == "const":
            return Lin(con.terms, con.op, con.const + 1)
        j = i % len(con.terms)
        term = con.terms[j]._replace(coef=-con.terms[j].coef)
        return Lin(con.terms[:j] + (term,) + con.terms[j + 1 :], con.op, con.const)
    if isinstance(con, Clause):
        return Clause(_edited_atoms(con.lits, i))
    if edit == "flip":
        return IffConj(con.lit.negate(), con.atoms)
    return IffConj(con.lit, _edited_atoms(con.atoms, i))


def _edited_atoms(atoms: tuple, i: int) -> tuple:
    """``atoms`` with the one at ``i`` changed: a literal negated, a
    comparison's constant moved by one."""
    j = i % len(atoms)
    a = atoms[j]
    a = a.negate() if isinstance(a, Lit) else Cmp(a.var, a.op, a.k + 1)
    return atoms[:j] + (a,) + atoms[j + 1 :]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 99),
    st.sampled_from(("same", "const", "flip", "kind")),
    st.integers(0, 3),
)
def test_models_are_equal_exactly_when_their_texts_are(seed, row, edit, i):
    """Rows are tuples, so equality must still tell the kinds apart: a
    one-row edit leaves the model equal exactly when it leaves the text."""
    m = random_small_model(random.Random(seed))
    edited = random_small_model(random.Random(seed))
    row %= len(m.constraints)
    edited.constraints[row] = _edited(m.constraints[row], edit, i)
    assert (m == edited) == (export_model(m) == export_model(edited))
    assert (m == edited) == (edit == "same")
    for model in (m, edited):
        assert parse_model(export_model(model)) == model


@settings(max_examples=150, deadline=None)
@given(_redrawn_models())
def test_solver_and_enumerator_reject_and_decide_alike(m):
    res = _outcome(lambda m: solve(m, node_budget=20_000), m)
    ref = _outcome(brute_force_solve, m)
    if isinstance(ref, type):
        assert res is ref
    else:
        assert (res.status, res.objective) == (ref.status, ref.objective)
