"""Solver behaviour: toy models, determinism, budgets, re-checking, and
agreement with the exhaustive enumerator."""

from __future__ import annotations

import dataclasses
import hashlib
import random

import pytest

from randgen import random_small_model
from tqaplan.benchgen import GadgetSpec, gen_cushing
from tqaplan.cpmodel import (
    BOOL,
    EQ,
    GE,
    INT,
    LE,
    Clause,
    Cmp,
    CspModel,
    Implies,
    Lin,
    Lit,
    ModelFormatError,
    Term,
)
from tqaplan.solver import (
    Engine,
    GuardExceededError,
    brute_force_solve,
    check_assignment,
    objective_value,
    solve,
)
from tqaplan.encoder import Encoder, encode
from tqaplan.theory import instantiate


def test_unsat_bounds():
    m = CspModel()
    x = m.new_int("x", 0, 3)
    m.add(Lin((Term(-1, INT, x),), LE, -2))  # x >= 2
    m.add(Lin((Term(1, INT, x),), LE, 1))  # x <= 1
    assert solve(m).is_unsat
    assert brute_force_solve(m).is_unsat


def test_tautology_sat():
    m = CspModel()
    b = m.new_bool("b")
    m.add(Clause((Lit(b), Lit(b, False))))
    res = solve(m)
    assert res.is_sat
    assert check_assignment(m, res.assignment)
    assert brute_force_solve(m).is_sat


def test_optimization_closed():
    m = CspModel()
    x = m.new_int("x", 0, 9)
    b = m.new_bool("pick")
    m.add(Clause((Lit(b),)))
    m.add(Lin((Term(-1, INT, x), Term(2, BOOL, b)), LE, 0))  # x >= 2b
    m.minimize((Term(1, INT, x),))
    res = solve(m)
    assert res.is_sat and res.objective == 2
    assert brute_force_solve(m).objective == 2


def test_determinism_including_node_count():
    rng = random.Random(42)
    for _ in range(30):
        m = random_small_model(rng)
        first = solve(m, time_budget=10)
        second = solve(m, time_budget=10)
        assert first.status == second.status
        assert first.nodes == second.nodes
        assert first.assignment == second.assignment
        assert first.objective == second.objective


def test_node_budget_reports_limit():
    m = CspModel()
    xs = [m.new_int(f"x{i}", 0, 30) for i in range(12)]
    for a, b in zip(xs, xs[1:]):
        m.add(Lin((Term(1, INT, a), Term(-1, INT, b)), LE, -1))
    m.add(Lin((Term(1, INT, xs[-1]), Term(-1, INT, xs[0])), LE, 5))  # tight cycle
    res = solve(m, node_budget=1)
    assert res.status in ("limit", "unsat")  # tiny budgets may still refute at the root
    res_big = solve(m)
    assert res_big.status == "unsat"


def test_a_limit_names_the_budget_that_ran_out():
    # four pigeons, three holes: no propagation refutes it at the root, and
    # search needs more than one decision (three pigeons in two holes need one)
    m = CspModel()
    x = [[m.new_bool(f"p{i}h{j}") for j in range(3)] for i in range(4)]
    for row in x:
        m.add(Clause(tuple(Lit(b) for b in row)))
    for j in range(3):
        for a in range(4):
            for b in range(a + 1, 4):
                m.add(Clause((Lit(x[a][j], False), Lit(x[b][j], False))))
    res = solve(m, node_budget=1)
    assert (res.status, res.reason) == ("limit", "node budget")
    assert solve(m, time_budget=float("inf")).is_unsat


@pytest.mark.parametrize("budgets", [{"time_budget": float("nan")}, {"time_budget": 0}])
def test_budgets_that_are_not_positive_are_rejected(budgets):
    with pytest.raises(ValueError):
        solve(CspModel(), **budgets)


def test_malformed_model_rejected_before_search():
    m = CspModel()
    m.add(Clause((Lit(3),)))
    with pytest.raises(ModelFormatError, match="boolean id 3 out of range"):
        solve(m)


def test_a_node_budget_spent_in_branch_and_bound_returns_the_best_so_far():
    # minimize 2y - x subject to x + y >= 5: the first solution, x = 0 and
    # y = 5, is far from the optimum x = 9, y = 0
    m = CspModel()
    x, y = m.new_int("x", 0, 9), m.new_int("y", 0, 9)
    m.add(Lin((Term(-1, INT, x), Term(-1, INT, y)), LE, -5))
    m.minimize((Term(-1, INT, x), Term(2, INT, y)))
    first = Engine(m)
    assert first.search(float("inf"), 10**9)[0] == "sat"
    full = solve(m)
    assert full.is_sat and full.objective == brute_force_solve(m).objective
    objectives = []
    for budget in range(first.nodes, full.nodes):
        res = solve(m, node_budget=budget)
        assert (res.status, res.reason) == ("limit", "node budget")
        assert res.assignment is not None and check_assignment(m, res.assignment)
        assert res.objective == objective_value(m, res.assignment) > full.objective
        objectives.append(res.objective)
    assert objectives == sorted(objectives, reverse=True)
    assert len(set(objectives)) > 2


def test_brute_force_guard():
    m = CspModel()
    for i in range(30):
        m.new_int(f"x{i}", 0, 9)
    with pytest.raises(GuardExceededError):
        brute_force_solve(m)
    # the guard reads only the declarations and runs before the model check;
    # a model within it is still checked before it is enumerated
    m.add(Clause((Lit(3),)))
    with pytest.raises(GuardExceededError):
        brute_force_solve(m)
    small = CspModel(int_decls=[("x", 0, 9)], constraints=[Clause((Lit(3),))])
    with pytest.raises(ModelFormatError, match="boolean id 3 out of range"):
        brute_force_solve(small)
    empty = CspModel(int_decls=[("x", 0, -2), ("y", 0, -2)])
    with pytest.raises(ModelFormatError, match="empty domain"):
        brute_force_solve(empty, guard=0)


def test_agreement_random_models():
    rng = random.Random(99)
    for trial in range(150):
        m = random_small_model(rng)
        mine = solve(m, time_budget=20)
        truth = brute_force_solve(m)
        assert mine.is_sat == truth.is_sat, trial
        if mine.is_sat:
            assert check_assignment(m, mine.assignment)
            if m.objective is not None:
                assert mine.objective == truth.objective, trial


def _pin(m: CspModel, var: int, value: int) -> None:
    m.add(Lin((Term(1, INT, var),), EQ, value))


def _channel(m: CspModel, use: int, idx: int, t: int, tgt: int, b: int) -> None:
    """The row (use and idx = t) -> tgt - b = 0, the shape the encoder gives
    its per-stage timestamp channelling."""
    m.add(
        Implies(
            (Lit(use), Cmp(idx, EQ, t)),
            Lin((Term(1, INT, tgt), Term(-1, INT, b)), EQ, 0),
        )
    )


def _agrees_with_brute_force(m: CspModel):
    mine, truth = solve(m), brute_force_solve(m)
    assert mine.status == truth.status
    if mine.is_sat:
        assert check_assignment(m, mine.assignment)
        assert mine.objective == truth.objective
    return mine


def test_channel_rows_with_the_index_outside_their_range():
    # idx = 4 selects no row, so nothing ties tgt and the model is SAT
    m = CspModel()
    u = m.new_bool("u")
    idx = m.new_int("idx", 0, 5)
    tgt = m.new_int("tgt", 0, 5)
    b1, b2 = m.new_int("b1", 0, 5), m.new_int("b2", 0, 5)
    m.add(Clause((Lit(u),)))
    _pin(m, idx, 4)
    _pin(m, b1, 3)
    _pin(m, b2, 4)
    _channel(m, u, idx, 1, tgt, b1)
    _channel(m, u, idx, 2, tgt, b2)
    assert _agrees_with_brute_force(m).is_sat


def test_two_channel_rows_for_one_index_value():
    # idx = 1 ties tgt to both 3 and 4, so the model is UNSAT
    m = CspModel()
    u = m.new_bool("u")
    idx = m.new_int("idx", 1, 2)
    tgt = m.new_int("tgt", 0, 6)
    b1, b2, b3 = (m.new_int(f"b{i}", 0, 6) for i in (1, 2, 3))
    m.add(Clause((Lit(u),)))
    _pin(m, idx, 1)
    _pin(m, b1, 3)
    _pin(m, b2, 4)
    _pin(m, b3, 5)
    _channel(m, u, idx, 1, tgt, b1)
    _channel(m, u, idx, 1, tgt, b2)
    _channel(m, u, idx, 2, tgt, b3)
    assert _agrees_with_brute_force(m).is_unsat


def test_agreement_on_random_models_with_channel_rows():
    rng = random.Random(2024)
    for _ in range(100):
        m = random_small_model(rng)
        use = rng.randrange(m.n_bools)
        # the rows cover [first, first + rows - 1], strictly inside idx's domain
        rows = rng.randrange(2, 4)
        first = rng.randrange(1, 3)
        idx = m.new_int("idx", 0, first + rows)
        tgt = m.new_int("tgt", 0, 3)
        bs = [m.new_int(f"c{t}", 0, 3) for t in range(rows)]
        for t, b in enumerate(bs):
            _channel(m, use, idx, first + t, tgt, b)
        if rng.random() < 0.3:
            # a second row for one index value
            _channel(m, use, idx, first + rng.randrange(rows), tgt, rng.choice(bs))
        if rng.random() < 0.5:
            m.add(Clause((Lit(use),)))
        if rng.random() < 0.5:
            m.add(Lin((Term(1, INT, tgt), Term(-1, INT, rng.choice(bs))), LE, -1))
        if rng.random() < 0.5:
            m.minimize((*(m.objective or ()), Term(rng.choice((-1, 1)), INT, idx)))
        _agrees_with_brute_force(m)


def _with_guarded_clauses(m: CspModel, rng: random.Random) -> CspModel:
    """Append rows (guard) -> clause whose guards mix Boolean literals with
    <=, >= and == integer atoms, some of them outside the integer's domain."""
    for _ in range(rng.randrange(1, 4)):
        guard = []
        for _ in range(rng.randrange(1, 4)):
            if rng.random() < 0.4:
                guard.append(Lit(rng.randrange(m.n_bools), rng.random() < 0.5))
            else:
                var = rng.randrange(m.n_ints)
                _, lo, hi = m.int_decls[var]
                guard.append(Cmp(var, rng.choice((LE, GE, EQ)), rng.randrange(lo - 1, hi + 2)))
        body = tuple(
            Lit(rng.randrange(m.n_bools), rng.random() < 0.5) for _ in range(rng.randrange(0, 3))
        )
        m.add(Implies(tuple(guard), Clause(body)))
    return m


def test_agreement_on_random_models_with_guarded_clauses():
    rng = random.Random(7)
    for _ in range(200):
        _agrees_with_brute_force(_with_guarded_clauses(random_small_model(rng), rng))


def _schedule_models(seed: int) -> list[CspModel]:
    rng = random.Random(seed)
    models = [random_small_model(rng) for _ in range(100)]
    models += [_with_guarded_clauses(random_small_model(rng), rng) for _ in range(100)]
    return models


def _root_fixpoint(engine: Engine):
    """Per-uid bounds after propagation, or None on a conflict."""
    return (engine.lo[:], engine.hi[:]) if engine.propagate() else None


def test_the_root_fixpoint_does_not_depend_on_the_queue_order():
    rng = random.Random(13)
    for m in _schedule_models(14):
        rows = list(range(len(m.constraints)))
        shuffled = rows[:]
        rng.shuffle(shuffled)
        fixpoints = []
        for order in (rows, rows[::-1], shuffled):
            engine = Engine()
            engine.load(m, len(m.constraints), order)
            fixpoints.append(_root_fixpoint(engine))
        assert fixpoints[0] == fixpoints[1] == fixpoints[2]


def test_a_load_after_a_solve_drops_every_row_added_since_the_last():
    """Bound rows and learned rows go with the next load, and every row
    wakes: the engine is that of a fresh one, and so is its root fixpoint."""
    for m in _schedule_models(15):
        engine = Engine(m)
        solve(m, engine)
        engine.load(m, len(m.constraints))
        fresh = Engine(m)
        assert (engine.cons, engine.watchers) == (fresh.cons, fresh.watchers)
        assert _root_fixpoint(engine) == _root_fixpoint(fresh)


def _guarded_row_at_the_root(pin_g1: bool, body: Lin):
    """The row (g0 and g1 and y >= 3) -> body over x, y in 0..5 with x >= 2,
    propagated at the root, with g0 true and g1 true when ``pin_g1``.
    Returns the bounds of g1 and the upper bound of y."""
    m = CspModel()
    g0, g1 = m.new_bool("g0"), m.new_bool("g1")
    x, y = m.new_int("x", 0, 5), m.new_int("y", 0, 5)
    m.add(Lin((Term(-1, INT, x),), LE, -2))
    m.add(Clause((Lit(g0),)))
    if pin_g1:
        m.add(Clause((Lit(g1),)))
    m.add(Implies((Lit(g0), Lit(g1), Cmp(y, GE, 3)), body))
    engine = Engine(m)
    assert engine.propagate()
    uid_g1 = engine.bool_uid[g1]
    return engine.lo[uid_g1], engine.hi[uid_g1], engine.hi[engine.int_uid[y]]


X_LE_1 = Lin((Term(1, INT, 0),), LE, 1)  # refuted: x >= 2
X_PLUS_Y_EQ_12 = Lin((Term(1, INT, 0), Term(1, INT, 1)), EQ, 12)  # refuted on >= only


@pytest.mark.parametrize("body", [X_LE_1, X_PLUS_Y_EQ_12], ids=["le", "eq"])
def test_a_refuted_body_forces_the_one_open_guard_literal(body):
    # g0 and g1 hold, so y >= 3 is the one open guard literal: it must fail
    assert _guarded_row_at_the_root(True, body) == (1, 1, 2)


@pytest.mark.parametrize(
    "pin_g1, body",
    [
        (False, X_LE_1),  # two open guard literals: g1 and y >= 3
        (False, X_PLUS_Y_EQ_12),
        (True, Lin((Term(1, INT, 0), Term(1, INT, 1)), LE, 10)),  # entailed
        (True, Lin((Term(1, INT, 0), Term(1, INT, 1)), EQ, 9)),  # open
    ],
    ids=["two-open-le", "two-open-eq", "entailed", "open-body"],
)
def test_nothing_is_forced_while_the_body_may_hold_or_the_guard_is_open(pin_g1, body):
    assert _guarded_row_at_the_root(pin_g1, body) == (int(pin_g1), 1, 5)


# sha256 over (status, nodes, assignment, objective) of the solves in
# test_search_is_pinned_on_random_models, computed on the conflict-driven
# engine, whose node is a decision and whose branch and bound keeps its
# learned rows and resumes from the root it reached
RANDOM_SEARCH_DIGEST = "1b818b0e696b6d0300b0d24d41f39357a000481efabc38f92946d036d753e57c"


def test_search_is_pinned_on_random_models():
    """Same fixpoints, same branching: node counts and answers are exact."""
    digest = hashlib.sha256()
    plain, guarded = random.Random(11), random.Random(12)
    models = [random_small_model(plain) for _ in range(400)]
    models += [_with_guarded_clauses(random_small_model(guarded), guarded) for _ in range(400)]
    for m in models:
        res = solve(m)
        digest.update(repr((res.status, res.nodes, res.assignment, res.objective)).encode())
    assert digest.hexdigest() == RANDOM_SEARCH_DIGEST


@pytest.mark.parametrize("n, objective", [(9, "none"), (5, "makespan"), (9, "makespan")])
def test_search_does_not_read_variable_names(n, objective):
    # II m=1 h=2 at copy cap 2, horizon 22: UNSAT at N=5, SAT from N=9
    domain = gen_cushing(GadgetSpec("II", 1, 2))
    m = encode(instantiate(domain, n, 2, 22), objective)
    renamed = dataclasses.replace(
        m,
        bool_names=[f"x{i}" for i in range(m.n_bools)],
        int_decls=[(f"y{j}", lo, hi) for j, (_, lo, hi) in enumerate(m.int_decls)],
    )
    first, second = solve(m), solve(renamed)
    assert first.status == second.status
    assert first.objective == second.objective
    assert first.nodes == second.nodes
    assert first.assignment == second.assignment


@pytest.mark.parametrize("objective_first", [True, False])
def test_objective_integers_are_branched_last(objective_first):
    # minimize y subject to x + y >= 3: where y is declared must not change
    # the search, since the objective's integers are branched last
    m = CspModel()
    if objective_first:
        y, x = m.new_int("y", 0, 3), m.new_int("x", 0, 3)
    else:
        x, y = m.new_int("x", 0, 3), m.new_int("y", 0, 3)
    m.add(Lin((Term(-1, INT, x), Term(-1, INT, y)), LE, -3))
    m.minimize((Term(1, INT, y),))
    res = solve(m)
    assert (res.objective, res.nodes) == (0, 5)
    assert (res.assignment.ints[x], res.assignment.ints[y]) == (3, 0)


class _RowReads(list):
    """The engine's row list, recording every row propagation runs."""

    def __getitem__(self, idx):
        self.ran.append(idx)
        return super().__getitem__(idx)


def _asleep(engine):
    """The rows asleep on the trail: its int entries, oldest first."""
    return [entry for entry in engine.trail if type(entry) is int]


def _false(engine, lit) -> bool:
    uid, ge, k = lit
    return engine.hi[uid] < k if ge else engine.lo[uid] > k


def _entailed(engine, row) -> bool:
    """Every value left in the domains satisfies each clause of ``row``: a
    literal holds, or every half of the body does at its greatest value."""
    lo, hi = engine.lo, engine.hi
    for lits, body in row:
        if any(lo[uid] >= k if ge else hi[uid] <= k for uid, ge, k in lits):
            continue
        if body is None:
            return False
        for terms, const in body:
            if sum(c * (hi[uid] if c > 0 else lo[uid]) for c, uid in terms) > const:
                return False
    return True


class _AuditedEngine(Engine):
    """Every bound change tightens an open literal.  After every propagation,
    at the root and at every node, conflicts included: every domain is
    non-empty, a row is marked queued exactly when it sleeps, it sleeps
    once, and no row that slept when propagation began has run.  A row
    sleeps either at the root, marked queued with no id on the trail, or
    above it, with its id on the trail.  After a propagation at the root
    the trail is empty, every row that slept at the root still sleeps, and
    every row that fell asleep there is entailed.  After every cut of the
    trail, both queues are empty and a row is marked queued exactly when it
    sleeps.  Each learned clause is false before the backjump and unit after
    it: one literal open, the rest false.  ``learned`` holds each one with
    the bound rows of its search.  It loads one model."""

    def __init__(self, model):
        super().__init__()
        self.cons = _RowReads()
        self.bounds, self.learned, self.asleep_at_root = [], [], set()
        self.load(model, len(model.constraints))

    def _force(self, uid, ge, k, reason):
        lo, hi = self.lo[uid], self.hi[uid]
        assert lo < k <= hi if ge else lo <= k < hi, (uid, ge, k, lo, hi)
        super()._force(uid, ge, k, reason)

    def _check_sleepers(self):
        asleep = _asleep(self)
        assert len(set(asleep)) == len(asleep)
        assert not self.asleep_at_root & set(asleep)
        assert {i for i, q in enumerate(self.queued) if q} == self.asleep_at_root | set(asleep)

    def _undo_to(self, mark):
        super()._undo_to(mark)
        assert not self.queue and not self.pending
        self._check_sleepers()

    def propagate(self):
        asleep_before = self.asleep_at_root | set(_asleep(self))
        self.cons.ran = []
        ok = super().propagate()
        assert all(map(int.__le__, self.lo, self.hi))
        assert not self.queue and not self.pending
        if not self.decisions:
            assert self.trail == []
            asleep = {i for i, q in enumerate(self.queued) if q}
            assert self.asleep_at_root <= asleep
            rows = list(self.cons)  # read past _RowReads, which counts runs
            assert all(_entailed(self, rows[i]) for i in asleep - self.asleep_at_root)
            self.asleep_at_root = asleep
        self._check_sleepers()
        assert not asleep_before & set(self.cons.ran)
        return ok

    def _learn(self, lits, level):
        assert all(_false(self, lit) for lit in lits), lits
        super()._learn(lits, level)
        open_lits = [lit for lit in lits if not _false(self, lit)]
        assert len(open_lits) == 1, lits
        uid, ge, k = open_lits[0]
        assert self.lo[uid] < k if ge else self.hi[uid] > k, lits
        self.learned.append((lits, tuple(self.bounds)))

    def add_bound(self, terms, const):
        self.bounds.append((terms, const))
        super().add_bound(terms, const)


def test_a_row_that_forces_its_own_variable_runs_once_and_sleeps_once():
    m = CspModel(bool_names=["x"], constraints=[Clause((Lit(0),))])
    engine = _AuditedEngine(m)
    assert engine.propagate()
    assert engine.cons.ran == [0] and engine.trail == [] and engine.queued == [True]


def test_a_row_that_tightens_what_it_read_runs_again_at_the_root():
    # 2x - y = 0 over x in 0..10, y in 1..10: its first half caps x at 5,
    # its second half then raises x to 1, which the first half has already
    # read, so only a second run raises y to 2; the root writes no trail
    # entry, so the engine counts bound changes to know the row ran again
    m = CspModel()
    x, y = m.new_int("x", 0, 10), m.new_int("y", 1, 10)
    m.add(Lin((Term(2, INT, x), Term(-1, INT, y)), EQ, 0))
    engine = _AuditedEngine(m)
    assert engine.propagate()
    ux, uy = engine.int_uid[x], engine.int_uid[y]
    assert (engine.lo[ux], engine.hi[ux], engine.lo[uy], engine.hi[uy]) == (1, 5, 2, 10)
    assert engine.cons.ran == [0, 0, 0] and engine.trail == []


def test_rows_sleep_once_and_never_run_asleep():
    rng = random.Random(5)
    models = [random_small_model(rng) for _ in range(150)]
    models.append(encode(instantiate(gen_cushing(GadgetSpec("II", 1, 2)), 9, 2, 22)))
    statuses = set()
    for m in models:
        res, plain = solve(m, _AuditedEngine(m)), solve(m)
        assert (res.status, res.nodes, res.objective) == (plain.status, plain.nodes, plain.objective)
        statuses.add(res.status)
    assert statuses == {"sat", "unsat"}



# sha256 over the compiled rows and watch lists of Engine(m) on four models
# and of each probe of two grown engines, and the rows each grown engine's
# search ran, computed on the encoder that leaves b[0] = 0 and b[N] <= h to
# the declared domains, parks an unused copy's l at 1 and writes none of the
# rows that test_encoder._left_out_rows lists; the rows run are those of the
# conflict-driven search, whose branch and bound resumes from the root it
# reached
COMPILED_ROWS_DIGEST = "49340c9e8c39448040f4b06de20d98eb8cc0a6a8e5749d5f09c0148893462411"


def test_compiled_rows_are_pinned():
    """The engine compiles every row to the same clauses, watches the same
    variables and runs the same rows in search."""
    digest = hashlib.sha256()

    def pin(engine: Engine) -> None:
        digest.update(repr((engine.cons, engine.watchers)).encode())

    for spec, n, cap, horizon, objective in [
        (("I", 50, None), 4, 1, None, "none"),
        (("II", 3, 3), 14, 1, None, "makespan"),
        (("III", 3, 3), 17, 1, None, "costs"),
        (("II", 1, 2), 9, 2, 22, "none"),
    ]:
        domain = gen_cushing(GadgetSpec(*spec))
        pin(Engine(encode(instantiate(domain, n, cap, horizon), objective)))
    # grown engines that solve every probe: a copies chain and deep's cap-1
    # chain, whose rows run rise when a cut that keeps every node is lost
    for spec, n_max, cap, horizon, objective in [
        (("II", 1, 2), 9, 2, 22, "none"),
        (("II", 3, 3), 14, 1, None, "makespan"),
    ]:
        domain = gen_cushing(GadgetSpec(*spec))
        grower, engine = Encoder(objective, cap), Engine()
        engine.cons = _RowReads()
        engine.cons.ran = []
        for n in range(1, n_max + 1):
            model, n_stable, order = grower.advance(instantiate(domain, n, cap, horizon))
            engine.load(model, n_stable, order)
            pin(engine)
            solve(model, engine)
        digest.update(repr(len(engine.cons.ran)).encode())
    assert digest.hexdigest() == COMPILED_ROWS_DIGEST


def _negated(m: CspModel, engine: Engine, lits, bounds) -> CspModel:
    """``m`` without its objective, with the bound rows ``(terms, const)``
    and the negation of the learned clause ``lits`` as rows."""
    var = {uid: (BOOL, v) for v, uid in enumerate(engine.bool_uid)}
    var.update({uid: (INT, v) for v, uid in enumerate(engine.int_uid)})
    rows = list(m.constraints) + [Lin(terms, LE, const) for terms, const in bounds]
    for uid, ge, k in lits:
        space, v = var[uid]
        # not x >= k is x <= k - 1, and not x <= k is -x <= -(k + 1)
        rows.append(Lin((Term(1, space, v),), LE, k - 1) if ge else Lin((Term(-1, space, v),), LE, -k - 1))
    return dataclasses.replace(m, constraints=rows, objective=None)


def test_every_learned_clause_is_implied_by_the_model():
    """The oracle for learning: a learned clause holds in every solution of
    the model and the bound rows of its search, so with its negation added
    the enumeration finds none."""
    rng = random.Random(27)
    models = [random_small_model(rng) for _ in range(1000)]
    models += [_with_guarded_clauses(random_small_model(rng), rng) for _ in range(1000)]
    learned = 0
    for m in models:
        engine = _AuditedEngine(m)
        solve(m, engine)
        for lits, bounds in engine.learned:
            assert brute_force_solve(_negated(m, engine, lits, bounds)).is_unsat, lits
        learned += len(engine.learned)
    assert learned >= 200


def test_the_clauses_learned_in_a_refutation_are_implied():
    # II m=1 h=2 at copy cap 2 has no plan at N=8, and search must show it
    m = encode(instantiate(gen_cushing(GadgetSpec("II", 1, 2)), 8, 2))
    engine = _AuditedEngine(m)
    assert solve(m, engine).is_unsat
    assert engine.learned
    for lits, bounds in engine.learned:
        assert solve(_negated(m, engine, lits, bounds)).is_unsat, lits
