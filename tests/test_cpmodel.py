"""Constraint-model IR and the canonical text form."""

from __future__ import annotations

import gc
import random

import pytest

from randgen import random_small_model
from tqaplan.cpmodel import (
    BOOL,
    EQ,
    GE,
    INT,
    LE,
    Clause,
    Cmp,
    CspModel,
    IffConj,
    Implies,
    Lin,
    Lit,
    ModelFormatError,
    Term,
    acyclic,
    export_model,
    parse_model,
)
from tqaplan.solver import brute_force_solve, solve


def sample_model() -> CspModel:
    m = CspModel()
    b0 = m.new_bool("use[a]")
    b1 = m.new_bool("flag")
    x = m.new_int("x", 0, 7)
    y = m.new_int("y", -2, 4)
    m.add(Clause((Lit(b0), Lit(b1, False))))
    m.add(Lin((Term(2, INT, x), Term(-1, INT, y), Term(1, BOOL, b1)), LE, 9))
    m.add(Lin((Term(1, INT, x), Term(1, INT, y)), EQ, 3))
    m.add(Implies((Lit(b0), Cmp(x, EQ, 2)), Lin((Term(1, INT, y),), LE, 1)))
    m.add(Implies((Cmp(y, GE, 0),), Clause((Lit(b1),))))
    m.add(IffConj(Lit(b1), (Lit(b0), Cmp(x, LE, 5))))
    m.add(Lin((Term(1, BOOL, b0), Term(1, BOOL, b1)), EQ, 1))
    m.minimize((Term(1, INT, x), Term(3, BOOL, b0)))
    return m


def test_round_trip_and_determinism():
    m = sample_model()
    text = export_model(m)
    again = parse_model(text)
    assert again == m
    assert export_model(again) == text
    assert export_model(sample_model()) == text


@pytest.mark.parametrize("enabled", [True, False])
def test_the_caller_gets_its_collector_state_back(enabled):
    text = export_model(sample_model())

    @acyclic
    def nested():
        return gc.isenabled(), parse_model(text)

    (gc.enable if enabled else gc.disable)()
    try:
        assert nested() == (False, sample_model())
        assert gc.isenabled() is enabled
        with pytest.raises(ModelFormatError):
            parse_model(text + "clause 1 +b9\n")
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


def test_empty_model_exports_header_only():
    assert export_model(CspModel()) == "cspmodel 1\n"
    assert parse_model("cspmodel 1\n") == CspModel()


def test_rejects_bad_documents():
    with pytest.raises(ModelFormatError):
        parse_model("not a model")
    with pytest.raises(ModelFormatError):
        parse_model("cspmodel 1\nfrobnicate 3\n")
    with pytest.raises(ModelFormatError):
        parse_model("cspmodel 1\nclause 1 +q3\n")


def test_well_formedness_checks():
    m = CspModel()
    m.new_bool("b")
    m.add(Clause((Lit(7),)))
    with pytest.raises(ModelFormatError):
        m.check_well_formed()
    # building checks nothing: the checker rejects an empty domain and the
    # writer a name that is not one whitespace-free token
    empty = CspModel()
    empty.new_int("x", 3, 1)
    with pytest.raises(ModelFormatError):
        empty.check_well_formed()
    spaced = CspModel()
    spaced.new_bool("has space")
    with pytest.raises(ModelFormatError):
        export_model(spaced)


@pytest.mark.parametrize("name", ["x\nclause 0", "has space", ""])
def test_export_rejects_a_name_that_is_not_one_token(name):
    # "x\nclause 0" would read back as a bool x plus an empty clause
    with pytest.raises(ModelFormatError):
        export_model(CspModel(bool_names=[name]))
    with pytest.raises(ModelFormatError):
        export_model(CspModel(int_decls=[(name, 0, 1)]))


def test_an_empty_domain_is_rejected_by_every_consumer():
    m = CspModel(int_decls=[("x", 3, 1)])
    for consume in (
        lambda m: solve(m, time_budget=5),
        brute_force_solve,
        export_model,
        lambda _: parse_model("cspmodel 1\nint 3 1 x\n"),
    ):
        with pytest.raises(ModelFormatError, match="empty domain"):
            consume(m)
    m.int_decls[0] = ("x", 3, 3)  # assignment is not construction-checked either
    assert solve(m, time_budget=5).assignment.ints == (3,)


def test_an_iff_row_reifying_a_comparison_is_rejected_by_every_consumer():
    # the text form has no such line, and the engine compiles no such row
    m = CspModel(bool_names=["b0"], int_decls=[("x", 0, 3)])
    m.add(IffConj(Cmp(0, LE, 2), (Lit(0),)))
    for consume in (
        lambda m: solve(m, time_budget=5),
        brute_force_solve,
        export_model,
        CspModel.check_well_formed,
    ):
        with pytest.raises(ModelFormatError, match="iff row: expected a boolean literal"):
            consume(m)
    with pytest.raises(ModelFormatError, match="expected a boolean literal"):
        parse_model("cspmodel 1\nbool b0\nint 0 3 x\niff i0<=2 1 +b0\n")


HEADER = "cspmodel 1\nbool b0\nbool b1\nint 0 3 x\n"


@pytest.mark.parametrize(
    "line",
    [
        "clause 3 +b0",  # declares 3 literals, gives 1
        "clause 1 +b0 +b1",  # declares 1, gives 2
        "clause x +b0",
        "clause -1",
        "clause 1 +b",
        "clause 1 i0<=2",  # a clause holds boolean literals only
        "int 0 a y",
        "int 3 1 y",  # empty domain
        "int 0 1",
        "bool",
        "bool a b",
        "imp",
        "imp x",
        "imp 1 +b0",
        "imp 1 +b0 clause",
        "imp 1 +b0 clause 2 +b1",
        "imp 2 +b0 clause 1 +b1",
        "iff",
        "iff +b0",
        "iff +b0 2 +b1",
        "iff i0==1 0",
        "exactone 1 +b0",  # unknown kind: an exactly-one is written as a lin eq row
        "lin",
        "lin le",
        "lin le 0 1",
        "lin le 0 1 1*b0 1*b1",
        "lin le z 1 1*b0",
        "lin ge 0 1 1*b0",
        "minimize 1 3*",
        "minimize 1 3*b",
        "minimize 1 x*b0",
        "minimize 1 1*q0",
        "minimize 1 1*b0\nminimize 1 1*b1",
        "clause 1 i0<=y",
        "clause 1_0",
    ],
)
def test_parse_rejects_every_malformed_line(line):
    with pytest.raises(ModelFormatError):
        parse_model(HEADER + line + "\n")


@pytest.mark.parametrize(
    "doc",
    [
        # accepted as a guard atom first, still no clause literal after
        "imp 1 i0<=2 clause 1 +b0\nclause 1 i0<=2\n",
        # accepted as a literal and as an atom first, still no term after
        "clause 1 +b0\nimp 1 +b0 clause 0\nlin le 1 1 +b0\n",
        "iff +b0 1 +b0\nminimize 1 +b0\n",
        # accepted as a term first, still no atom after
        "lin le 1 1 1*b0\nimp 1 1*b0 clause 0\n",
        # accepted as an integer first, still no count after
        "lin le -1 0\nclause -1\n",
    ],
)
def test_a_token_read_in_one_role_is_still_rejected_in_another(doc):
    with pytest.raises(ModelFormatError):
        parse_model(HEADER + doc)


def test_a_repeated_malformed_token_fails_at_its_first_line():
    doc = HEADER + "clause 1 +b0\nclause 1 +q3\nfrobnicate\nclause 1 +q3\n"
    for _ in range(2):  # and again: a document's memos die with its read
        with pytest.raises(ModelFormatError, match=r"boolean literal, got '\+q3'"):
            parse_model(doc)


def test_one_token_in_one_document_is_one_object():
    m = parse_model(
        HEADER
        + "imp 2 +b0 i0<=2 clause 1 +b1\n"
        + "clause 2 +b1 +b0\n"
        + "iff +b0 1 i0<=2\n"
        + "lin le 3 1 1*i0\n"
        + "minimize 2 1*i0 1*b1\n"
    )
    guarded, clause, iff, lin = m.constraints
    assert guarded.guard[0] is clause.lits[1] is iff.lit  # +b0 as atom and literal
    assert guarded.body.lits[0] is clause.lits[0]  # +b1
    assert guarded.guard[1] is iff.atoms[0]  # i0<=2
    assert lin.terms[0] is m.objective[0]  # 1*i0
    assert parse_model(export_model(m)) == m


def test_parse_accepts_empty_counts():
    m = parse_model(HEADER + "clause 0\niff +b0 0\nimp 0 lin le 3 1 1*i0\nminimize 0\n")
    assert parse_model(export_model(m)) == m


def _reference_check(m: CspModel) -> None:
    """The nested per-atom well-formedness check, kept as the reference for
    the flat one."""

    def check_atom(a):
        if isinstance(a, Lit):
            if not 0 <= a.var < m.n_bools:
                raise ModelFormatError(f"boolean id {a.var} out of range")
        else:
            if not 0 <= a.var < m.n_ints:
                raise ModelFormatError(f"integer id {a.var} out of range")
            if a.op not in (LE, GE, EQ):
                raise ModelFormatError(f"bad comparison op {a.op!r}")

    def check_terms(terms):
        for t in terms:
            if t.space == BOOL:
                if not 0 <= t.var < m.n_bools:
                    raise ModelFormatError(f"boolean id {t.var} out of range")
            elif t.space == INT:
                if not 0 <= t.var < m.n_ints:
                    raise ModelFormatError(f"integer id {t.var} out of range")
            else:
                raise ModelFormatError(f"bad variable space {t.space!r}")

    def check_body(c):
        if isinstance(c, Clause):
            for lit in c.lits:
                check_atom(lit)
        else:
            if c.op not in (LE, EQ):
                raise ModelFormatError(f"bad linear op {c.op!r}")
            check_terms(c.terms)

    for con in m.constraints:
        if isinstance(con, (Clause, Lin)):
            check_body(con)
        elif isinstance(con, Implies):
            for a in con.guard:
                check_atom(a)
            check_body(con.body)
        elif isinstance(con, IffConj):
            if not isinstance(con.lit, Lit):
                raise ModelFormatError(f"iff row: expected a boolean literal, got {con.lit!r}")
            check_atom(con.lit)
            for a in con.atoms:
                check_atom(a)
        else:
            raise ModelFormatError(f"unknown constraint type {type(con).__name__}")
    if m.objective is not None:
        check_terms(m.objective)


def _verdict(check, m):
    try:
        check(m)
    except ModelFormatError as exc:
        return str(exc)
    return None


def _corrupt(rng: random.Random, m: CspModel) -> None:
    """Replace a few random pieces with out-of-range ids, bad ops or spaces."""

    def bad_atom(a):
        roll = rng.random()
        if isinstance(a, Lit):
            return Lit(rng.choice((-1, m.n_bools, m.n_bools + 5)), a.val)
        if roll < 0.5:
            return Cmp(rng.choice((-1, m.n_ints)), a.op, a.k)
        return Cmp(a.var, "ne", a.k)

    def bad_terms(terms):
        i = rng.randrange(len(terms))
        t = terms[i]
        roll = rng.random()
        if roll < 0.4:
            t = Term(t.coef, t.space, -1 if rng.random() < 0.5 else 99)
        elif roll < 0.7:
            t = Term(t.coef, "q", t.var)
        return terms[:i] + (t,) + terms[i + 1 :]

    def bad_atoms(atoms):
        if not atoms:
            return atoms
        i = rng.randrange(len(atoms))
        return atoms[:i] + (bad_atom(atoms[i]),) + atoms[i + 1 :]

    def bad_body(body):
        if isinstance(body, Clause):
            return Clause(bad_atoms(body.lits))
        if rng.random() < 0.3:
            return Lin(body.terms, "ge", body.const)
        return Lin(bad_terms(body.terms), body.op, body.const)

    for _ in range(rng.randrange(1, 4)):
        i = rng.randrange(len(m.constraints))
        con = m.constraints[i]
        if isinstance(con, (Clause, Lin)):
            con = bad_body(con)
        elif isinstance(con, Implies):
            con = Implies(bad_atoms(con.guard), con.body) if rng.random() < 0.5 else Implies(
                con.guard, bad_body(con.body)
            )
        elif rng.random() < 0.3:
            lit = bad_atom(con.lit) if rng.random() < 0.7 else Cmp(0, LE, 1)
            con = IffConj(lit, con.atoms)
        else:
            con = IffConj(con.lit, bad_atoms(con.atoms))
        m.constraints[i] = con
    if m.objective and rng.random() < 0.3:
        m.objective = bad_terms(m.objective)
    if rng.random() < 0.1:
        m.constraints.insert(rng.randrange(len(m.constraints) + 1), "not a constraint")


def test_flat_check_matches_the_nested_reference():
    """Same verdict and same message (so the same first offending row and
    atom) as the per-atom reference, on clean and corrupted models."""
    rng = random.Random(11)
    rejected = 0
    for _ in range(2000):
        m = random_small_model(rng)
        # random_small_model guards only linear bodies; add clause bodies too
        if rng.random() < 0.5:
            lits = tuple(Lit(rng.randrange(m.n_bools)) for _ in range(rng.randrange(1, 3)))
            guard = (Lit(0), Cmp(0, LE, 1))[: rng.randrange(1, 3)]
            m.add(Implies(guard, Clause(lits)))
        if rng.random() < 0.8:
            _corrupt(rng, m)
        expected = _verdict(_reference_check, m)
        assert _verdict(CspModel.check_well_formed, m) == expected
        rejected += expected is not None
    assert rejected > 1000
