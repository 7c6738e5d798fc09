"""Backtracking finite-domain solver with unit propagation, bounds
consistency, guard/reification propagation, and branch-and-bound
optimization, plus an exhaustive enumeration oracle for small models.

The engine compiles each row of the model, as written, into a tuple of
clauses over one variable space in which a variable gets its place when
the engine first meets it (for a single model: the Booleans, then the
integers).  Every atom becomes bound literals of one form, ``x >= k`` or
``x <= k``: ``x == k`` is the pair of both, a Boolean literal is ``b >= 1``
or ``b <= 0``, and negation is exact (not ``x >= k`` is ``x <= k - 1``).
A clause is bound literals and a body, which is either nothing or a linear
row that acts as the clause's last disjunct (an equality ``sum = k`` is
the two halves ``sum <= k`` and ``-sum <= -k``).  A clause row is one
clause; a guarded row ``g1 and ... and gn -> body`` is the clause ``(not
g1 or ... or not gn or body)``; a reified conjunction ``lit <-> a1 and ...
and an`` is the clause ``(not a1 or ... or not an or lit)`` plus the
binary clauses ``(not lit or ai)``, kept in one row; and a linear row, an
exactly-one among them, is a clause with no literals and the row as its
body.  One propagator runs every clause, and ``_force`` tightens every
bound.  A model that grows keeps its compiled rows: only new rows and a
per-model tail are compiled.

Propagation runs rows from two queues.  A bound change wakes the rows
that watch its variable into a FIFO queue, which runs oldest first; the
root sweep (every row, in the order ``load`` was given) is consumed only
while no woken row waits, so a bound found at the root reaches its
neighbours before the sweep goes on.  A row waiting in either queue, or
running, is not queued again; a row that changed a bound and is not yet
entailed goes back to the queue once it has run.  A row found entailed
sleeps on the trail: nothing wakes it or runs it until search undoes the
trail below the point where it fell asleep.  The fixpoint, and so every
node count, does not depend on this order.

Branching is static and reads no variable names: first the Booleans, those
watched by the most rows first (ties in id order), then the integers in
declaration order, those in the objective last.  Every branch tries the
lower half of the domain first, so a Boolean tries false first.  Names are
labels for the text form only.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from dataclasses import dataclass
from typing import Optional

from .cpmodel import (
    BOOL,
    EQ,
    GE,
    INT,
    LE,
    Clause,
    CspModel,
    IffConj,
    Implies,
    Lin,
    Lit,
    Term,
)

__all__ = [
    "Assignment",
    "Engine",
    "GuardExceededError",
    "SolveResult",
    "brute_force_solve",
    "check_assignment",
    "objective_value",
    "solve",
]

SAT, UNSAT, LIMIT = "sat", "unsat", "limit"


class GuardExceededError(ValueError):
    """The enumeration oracle refuses search spaces past its guard."""


def check_budgets(time_budget: float, node_budget: int) -> None:
    """Reject a budget that is not positive, NaN included."""
    if not (time_budget > 0 and node_budget > 0):
        raise ValueError("budgets must be positive")


@dataclass(frozen=True)
class Assignment:
    bools: tuple[bool, ...]
    ints: tuple[int, ...]


@dataclass
class SolveResult:
    status: str
    assignment: Optional[Assignment] = None
    objective: Optional[int] = None
    reason: str = ""  # the budget that ran out, for a limit
    nodes: int = 0

    @property
    def is_sat(self) -> bool:
        return self.status == SAT

    @property
    def is_unsat(self) -> bool:
        return self.status == UNSAT


# -- direct evaluation (the semantic definition; shared by the re-check and
#    the enumeration oracle, never by the propagation engine) ---------------


def _atom_holds(atom, bools, ints) -> bool:
    if isinstance(atom, Lit):
        return bools[atom.var] == atom.val
    v = ints[atom.var]
    if atom.op == LE:
        return v <= atom.k
    if atom.op == GE:
        return v >= atom.k
    return v == atom.k


def _body_holds(body, bools, ints) -> bool:
    if isinstance(body, Clause):
        return any(_atom_holds(l, bools, ints) for l in body.lits)
    total = 0
    for t in body.terms:
        total += t.coef * (bools[t.var] if t.space == BOOL else ints[t.var])
    return total <= body.const if body.op == LE else total == body.const


def constraint_holds(con, bools, ints) -> bool:
    """Evaluate one constraint on a total assignment."""
    if isinstance(con, (Clause, Lin)):
        return _body_holds(con, bools, ints)
    if isinstance(con, Implies):
        if all(_atom_holds(a, bools, ints) for a in con.guard):
            return _body_holds(con.body, bools, ints)
        return True
    if isinstance(con, IffConj):
        return _atom_holds(con.lit, bools, ints) == all(
            _atom_holds(a, bools, ints) for a in con.atoms
        )
    raise TypeError(f"unknown constraint {type(con).__name__}")


def check_assignment(m: CspModel, a: Assignment) -> bool:
    return all(constraint_holds(con, a.bools, a.ints) for con in m.constraints)


def objective_value(m: CspModel, a: Assignment) -> Optional[int]:
    if m.objective is None:
        return None
    total = 0
    for t in m.objective:
        total += t.coef * (a.bools[t.var] if t.space == BOOL else a.ints[t.var])
    return total


# -- propagation engine -------------------------------------------------------


def _negate(lit: tuple[int, bool, int]) -> tuple[int, bool, int]:
    """not (x >= k) is x <= k - 1, and not (x <= k) is x >= k + 1."""
    uid, ge, k = lit
    return (uid, False, k - 1) if ge else (uid, True, k + 1)


class Engine:
    """Trail-based propagation and chronological backtracking search.

    Each variable gets a uid when the engine first meets it, so compiled
    rows stay valid while the model grows.  :meth:`load` takes on a larger
    model: its rows past the stable ones compiled so far are compiled once,
    and the rest form a tail that replaces the previous one.  A bound
    literal is ``(uid, ge, k)``: ``x >= k`` when ``ge``, else ``x <= k``.
    A row is a tuple of clauses ``(lits, body)``: the bound literals
    ``lits``, or ``body`` when it is not None, a linear body: the halves
    ``(terms, const)``, each ``sum(c * x) <= const``, one for ``<=`` and
    two for ``=``.  Only :meth:`_force` tightens a bound and pushes a trail
    entry ``(uid, ge, old bound)``.

    ``queue`` holds woken rows, run first and oldest first; ``pending``
    holds the root sweep, run from its end.  ``queued[idx]`` is set while
    row ``idx`` waits in either, runs, or sleeps: ``sleepers`` holds
    ``(trail length, row)`` once for each entailed row, released by
    :meth:`_undo_to` once the trail is cut below that length.
    """

    def __init__(self, model: Optional[CspModel] = None):
        self.lo: list[int] = []
        self.hi: list[int] = []
        self.bool_uid: list[int] = []  # by model id
        self.int_uid: list[int] = []
        self.watchers: list[list[int]] = []
        self.cons: list[tuple] = []
        self.n_stable = 0
        self.tail_uids: list[int] = []  # uids watched by rows past the stable ones
        self.trail: list[tuple[int, bool, int]] = []
        self.queued: list[bool] = []  # waiting in a queue, running, or asleep
        self.queue: deque[int] = deque()  # woken rows, oldest first
        self.pending: list[int] = []  # the root sweep, from its end
        self.sleepers: list[tuple[int, int]] = []  # (trail length, row)
        self.conflict = False
        self.nodes = 0
        self.order: Optional[list[int]] = None
        if model is not None:
            self.load(model, len(model.constraints))

    def load(
        self, model: CspModel, n_stable: int, queue_order: Optional[list[int]] = None
    ) -> None:
        """Take on ``model``, whose first ``n_stable`` rows extend the stable
        rows compiled so far; its other rows replace the previous tail and
        any bound rows.  Every bound restarts from the model's domains and
        every row is queued, in ``queue_order`` (row indices, the last one
        propagated first; model order by default)."""
        cut = self.n_stable
        watchers = self.watchers
        for uid in self.tail_uids:
            watch = watchers[uid]
            while watch and watch[-1] >= cut:
                watch.pop()
        self.tail_uids = []
        del self.cons[cut:]
        model.check_well_formed(cut)
        for uids, count in ((self.bool_uid, model.n_bools), (self.int_uid, model.n_ints)):
            for _ in range(len(uids), count):
                uids.append(len(self.lo))
                self.lo.append(0)
                self.hi.append(0)
                watchers.append([])
        lo, hi = self.lo, self.hi
        for uid in self.bool_uid:
            lo[uid], hi[uid] = 0, 1
        for uid, (_, d_lo, d_hi) in zip(self.int_uid, model.int_decls):
            lo[uid], hi[uid] = d_lo, d_hi
        self.n_stable = n_stable
        for con in itertools.islice(model.constraints, cut, None):
            self._compile(con)
        self.model = model
        self.root_queue = list(range(len(self.cons))) if queue_order is None else queue_order
        self.trail = []
        self.reset()
        self.nodes = 0
        self.order = None

    def _branch_order(self) -> list[int]:
        """Booleans watched by the most rows first, ties in id order, then
        the integers in declaration order, those in the objective last."""
        watchers = self.watchers
        order = sorted(self.bool_uid, key=lambda uid: -len(watchers[uid]))
        last = {self.int_uid[t.var] for t in self.model.objective or () if t.space == INT}
        order += [uid for uid in self.int_uid if uid not in last]
        order += [uid for uid in self.int_uid if uid in last]
        return order

    # -- compilation --------------------------------------------------------

    def _literals(self, atoms) -> list[tuple[int, bool, int]]:
        """The bound literals whose conjunction is that of ``atoms``."""
        bool_uid, int_uid = self.bool_uid, self.int_uid
        out = []
        for a in atoms:
            if type(a) is Lit:
                out.append((bool_uid[a.var], True, 1) if a.val else (bool_uid[a.var], False, 0))
            elif a.op == LE:
                out.append((int_uid[a.var], False, a.k))
            elif a.op == GE:
                out.append((int_uid[a.var], True, a.k))
            else:
                uid = int_uid[a.var]
                out += ((uid, True, a.k), (uid, False, a.k))
        return out

    def _register(self, compiled, uids) -> None:
        idx = len(self.cons)
        self.cons.append(compiled)
        self.queued.append(True)
        self.queue.append(idx)
        uids = set(uids)
        for uid in uids:
            self.watchers[uid].append(idx)
        if idx >= self.n_stable:
            self.tail_uids.extend(uids)

    def _compile(self, con) -> None:
        if isinstance(con, IffConj):
            # lit <-> a1 and ... and an: the clause (not a1 or ... or lit)
            # and the binary clauses (not lit or ai)
            (lit,) = self._literals((con.lit,))
            atoms = self._literals(con.atoms)
            clauses = [(*map(_negate, atoms), lit)]
            clauses += [(_negate(lit), a) for a in atoms]
            self._register(tuple((c, None) for c in clauses), [u for u, _, _ in clauses[0]])
            return
        # (g1 and ... and gn) -> body is (not g1 or ... or not gn or body)
        guard: tuple = ()
        if isinstance(con, Implies):
            guard, con = tuple(map(_negate, self._literals(con.guard))), con.body
        if isinstance(con, Clause):
            clause = guard + tuple(self._literals(con.lits))
            self._register(((clause, None),), [u for u, _, _ in clause])
            return
        # a linear row, guarded or not, is the body of that clause: sum <= k,
        # or for an equality sum = k the pair of halves sum <= k, -sum <= -k
        bool_uid, int_uid = self.bool_uid, self.int_uid
        terms = tuple(
            (t.coef, bool_uid[t.var] if t.space == BOOL else int_uid[t.var]) for t in con.terms
        )
        body = ((terms, con.const),)
        if con.op == EQ:
            body += ((tuple((-c, u) for c, u in terms), -con.const),)
        uids = [u for u, _, _ in guard] + [u for _, u in terms]
        self._register(((guard, body),), uids)

    # -- domain updates -------------------------------------------------------

    def _force(self, uid: int, ge: bool, k: int) -> None:
        """Tighten ``x >= k`` when ``ge``, else ``x <= k``: the one place a
        bound changes.  The old bound goes on the trail and the rows that
        watch ``x`` wake; a bound past the other one is a conflict."""
        lo, hi = self.lo, self.hi
        if ge:
            if k <= lo[uid]:
                return
            if k > hi[uid]:
                self.conflict = True
                return
            self.trail.append((uid, True, lo[uid]))
            lo[uid] = k
        else:
            if k >= hi[uid]:
                return
            if k < lo[uid]:
                self.conflict = True
                return
            self.trail.append((uid, False, hi[uid]))
            hi[uid] = k
        queued, queue = self.queued, self.queue
        for idx in self.watchers[uid]:
            if not queued[idx]:
                queued[idx] = True
                queue.append(idx)

    # -- constraint propagation -------------------------------------------------

    def _prop_clause(self, lits, body) -> bool:
        """Propagate the clause ``lits or body``, where ``body`` is None or
        a tuple of halves ``(terms, const)``.  True when the clause holds
        under current bounds, so the row may sleep on the trail."""
        lo, hi = self.lo, self.hi
        unknown = None
        for lit in lits:
            uid, ge, k = lit
            if ge:
                if lo[uid] >= k:
                    return True
                if hi[uid] < k:
                    continue
            else:
                if hi[uid] <= k:
                    return True
                if lo[uid] > k:
                    continue
            if unknown is not None:
                return False
            unknown = lit
        if body is not None:
            if unknown is None:
                return self._prop_lin_le(body)
            for terms, const in body:
                if self._lin_min(terms) > const:
                    break
            else:  # no half is refuted, so the body may still hold
                return False
        elif unknown is None:
            self.conflict = True
            return False
        # every other disjunct is false: the one open literal must hold
        self._force(*unknown)
        return True

    def _prop_lin_le(self, body) -> bool:
        """Tighten bounds so that every half ``sum(c * x) <= const`` of
        ``body`` can hold.  True when all are entailed under current bounds,
        so the row may sleep on the trail."""
        lo, hi = self.lo, self.hi
        done = True
        for terms, const in body:
            mn = mx = 0
            for coef, uid in terms:
                if coef > 0:
                    mn += coef * lo[uid]
                    mx += coef * hi[uid]
                else:
                    mn += coef * hi[uid]
                    mx += coef * lo[uid]
            if mx <= const:
                continue
            if mn > const:
                self.conflict = True
                return False
            done = False
            slack = const - mn
            for coef, uid in terms:
                if coef > 0:
                    limit = lo[uid] + slack // coef
                    if limit < hi[uid]:
                        self._force(uid, False, limit)
                        if self.conflict:
                            return False
                else:
                    limit = hi[uid] - slack // (-coef)
                    if limit > lo[uid]:
                        self._force(uid, True, limit)
                        if self.conflict:
                            return False
        return done

    def _lin_min(self, terms) -> int:
        """The least value of ``sum(c * x)`` within current bounds."""
        lo, hi = self.lo, self.hi
        mn = 0
        for coef, uid in terms:
            mn += coef * (lo[uid] if coef > 0 else hi[uid])
        return mn

    def propagate(self) -> bool:
        queue, pending, queued, cons = self.queue, self.pending, self.queued, self.cons
        sleepers, trail = self.sleepers, self.trail
        while not self.conflict:
            if queue:
                idx = queue.popleft()
            elif pending:
                idx = pending.pop()
            else:
                break
            # still marked queued while it runs, so its own bound changes do
            # not wake it; it goes back to the queue only if it may force more
            mark = len(trail)
            done = True
            for lits, body in cons[idx]:
                if not self._prop_clause(lits, body):
                    if self.conflict:
                        break
                    done = False
            if self.conflict:
                queued[idx] = False
            elif done:  # marked queued, an entailed row sleeps until _undo_to
                sleepers.append((len(trail), idx))
            elif len(trail) > mark:
                queue.append(idx)
            else:
                queued[idx] = False
        if self.conflict:
            for idx in itertools.chain(queue, pending):
                queued[idx] = False
            queue.clear()
            pending.clear()
            return False
        return True

    # -- search ------------------------------------------------------------------

    def _undo_to(self, mark: int) -> None:
        trail, lo, hi = self.trail, self.lo, self.hi
        while len(trail) > mark:
            uid, changed_lo, old = trail.pop()
            if changed_lo:
                lo[uid] = old
            else:
                hi[uid] = old
        sleepers, queued = self.sleepers, self.queued
        while sleepers and sleepers[-1][0] > mark:
            queued[sleepers.pop()[1]] = False
        self.conflict = False

    def _next_var(self, start: int) -> int:
        order, lo, hi = self.order, self.lo, self.hi
        i = start
        n = len(order)
        while i < n and lo[order[i]] == hi[order[i]]:
            i += 1
        return i

    def search(self, deadline: float, node_budget: int):
        """``(status, x)``: x is the assignment when SAT, the budget that
        ran out (``"node budget"`` or ``"time budget"``) at a limit, and
        None when UNSAT."""
        if not self.propagate():
            return UNSAT, None
        if self.order is None:
            self.order = self._branch_order()
        order, lo, hi = self.order, self.lo, self.hi
        stack: list[list] = []
        pos = 0
        while True:
            # a consistent node: a solution, or a frame for the next open
            # variable with its two windows, x <= mid first, then x > mid
            pos = self._next_var(pos)
            if pos == len(order):
                return SAT, self._extract()
            uid = order[pos]
            mid = (lo[uid] + hi[uid]) // 2
            stack.append([len(self.trail), pos, ((uid, False, mid), (uid, True, mid + 1)), 0])
            while True:  # down the next window that propagates
                if not stack:
                    return UNSAT, None
                frame = stack[-1]
                mark, pos, windows, child = frame
                if child == 2:
                    stack.pop()
                    continue
                frame[3] = child + 1
                self._undo_to(mark)
                self.nodes += 1
                if self.nodes > node_budget:
                    return LIMIT, "node budget"
                if time.monotonic() > deadline:
                    return LIMIT, "time budget"
                self._force(*windows[child])
                if self.propagate():
                    break

    def _extract(self) -> Assignment:
        lo = self.lo
        return Assignment(
            tuple(bool(lo[uid]) for uid in self.bool_uid), tuple(lo[uid] for uid in self.int_uid)
        )

    def reset(self) -> None:
        """Back to the root: every row awake and in the root sweep, bound
        rows first."""
        self._undo_to(0)
        self.sleepers.clear()
        self.queue.clear()
        self.pending = self.root_queue + list(range(len(self.root_queue), len(self.cons)))
        self.queued = [True] * len(self.cons)

    def add_bound(self, terms: tuple[Term, ...], const: int) -> None:
        self._compile(Lin(terms, LE, const))


def solve(
    m: CspModel,
    engine: Optional[Engine] = None,
    *,
    time_budget: float = 300.0,
    node_budget: int = 100_000_000,
) -> SolveResult:
    """Decide satisfiability (optimizing when the model has an objective).

    ``engine``, if given, has just loaded ``m`` (see :meth:`Engine.load`);
    otherwise ``m`` is compiled here.  The budgets, in seconds and in nodes,
    cover the whole solve and must be positive.  Every satisfying assignment
    returned has been re-checked against the raw constraint list; optimal
    results come from a closed branch-and-bound.
    """
    check_budgets(time_budget, node_budget)
    if engine is None:
        engine = Engine(m)
    deadline = time.monotonic() + time_budget
    best = best_val = None
    while True:
        status, x = engine.search(deadline, node_budget)
        if status == LIMIT:
            return SolveResult(LIMIT, best, best_val, reason=x, nodes=engine.nodes)
        if status == UNSAT:
            return SolveResult(UNSAT if best is None else SAT, best, best_val, nodes=engine.nodes)
        _assert_model_holds(m, x)
        if m.objective is None:
            return SolveResult(SAT, x, nodes=engine.nodes)
        # branch and bound: search again for a strictly better objective
        best, best_val = x, objective_value(m, x)
        engine.reset()
        engine.add_bound(m.objective, best_val - 1)


def _assert_model_holds(m: CspModel, a: Assignment) -> None:
    if not check_assignment(m, a):
        raise AssertionError("solver returned an assignment violating the model")


def brute_force_solve(m: CspModel, guard: int = 1 << 24) -> SolveResult:
    """Exhaustively enumerate assignments in declaration order, pruning a
    branch as soon as some fully-assigned constraint fails.

    With an objective, returns the true optimum; the search space (product
    of domain sizes) must stay within the guard.
    """
    m.check_well_formed()
    space = 1
    for _ in range(m.n_bools):
        space *= 2
        if space > guard:
            raise GuardExceededError(f"search space exceeds guard {guard}")
    for _, lo, hi in m.int_decls:
        space *= hi - lo + 1
        if space > guard:
            raise GuardExceededError(f"search space exceeds guard {guard}")

    nb, ni = m.n_bools, m.n_ints
    nv = nb + ni

    def max_ref(con) -> int:
        """The last variable a row mentions (Booleans first), or -1."""
        atoms: tuple = ()
        if isinstance(con, Implies):
            atoms, con = con.guard, con.body
        if isinstance(con, IffConj):
            atoms = (con.lit, *con.atoms)
        elif isinstance(con, Clause):
            atoms += con.lits
        uids = [a.var if isinstance(a, Lit) else nb + a.var for a in atoms]
        if isinstance(con, Lin):
            uids += [t.var if t.space == BOOL else nb + t.var for t in con.terms]
        return max(uids, default=-1)

    by_last_var: list[list] = [[] for _ in range(nv + 1)]
    for con in m.constraints:
        by_last_var[max_ref(con) + 1].append(con)

    bools = [False] * nb
    ints = [0] * ni
    nodes = 0
    best: Optional[Assignment] = None
    best_val: Optional[int] = None

    def domain_of(uid: int):
        if uid < nb:
            return (False, True)
        lo, hi = m.int_decls[uid - nb][1], m.int_decls[uid - nb][2]
        return range(lo, hi + 1)

    def record() -> bool:
        nonlocal best, best_val
        a = Assignment(tuple(bools), tuple(ints))
        if m.objective is None:
            best = a
            return True
        val = objective_value(m, a)
        if best_val is None or val < best_val:
            best, best_val = a, val
        return False

    def descend(uid: int) -> bool:
        nonlocal nodes
        if uid == nv:
            return record()
        for value in domain_of(uid):
            nodes += 1
            if uid < nb:
                bools[uid] = value
            else:
                ints[uid - nb] = value
            if all(constraint_holds(c, bools, ints) for c in by_last_var[uid + 1]):
                if descend(uid + 1):
                    return True
        return False

    if all(constraint_holds(c, bools, ints) for c in by_last_var[0]):
        descend(0)
    if best is None:
        return SolveResult(UNSAT, nodes=nodes)
    _assert_model_holds(m, best)
    return SolveResult(SAT, best, best_val, nodes=nodes)
