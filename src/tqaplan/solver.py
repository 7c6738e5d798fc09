"""Conflict-driven finite-domain solver with unit propagation, bounds
consistency, guard/reification propagation, learned nogoods, backjumping
and branch-and-bound optimization, plus an exhaustive enumeration oracle
for small models.

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
body.  One loop compiles new rows, with one dispatch on each row's type,
and one loop, ``propagate``, runs every clause; ``_prop_lin_le`` tightens
linear halves, and ``_force`` is the one place a bound changes.  ``_force``
is only given open literals, so it tightens a bound and cannot conflict: a
conflict is found only in ``propagate``, at a clause whose literals are all
false and whose body, if any, has a refuted linear half.  A model that
grows keeps its compiled rows: only new rows and a tail are compiled, and
the next load drops that tail with every row added after it.

Propagation runs rows from two queues.  A bound change wakes the rows
that watch its variable into a FIFO queue, which runs oldest first; the
root sweep (every row, in the order ``load`` was given) is consumed only
while no woken row waits, so a bound found at the root reaches its
neighbours before the sweep goes on.  A row waiting in either queue, or
running, is not queued again; a row that changed a bound and is not yet
entailed goes back to the queue once it has run.  A row found entailed
sleeps: nothing wakes it or runs it until search undoes the trail below
the point where it fell asleep, or, when it fell asleep at the root, until
the next load.  The fixpoint does not depend on this order; the trail's
order, and so which reasons analysis reads and the nogoods it learns, does.

Search is conflict-driven, as in lazy clause generation.  A node is a
decision: the next open variable, in a static order that reads no variable
names (first the Booleans, those watched by the most rows first, ties in id
order, then the integers in declaration order, those in the objective
last), gets ``x <= mid``, the lower half of its domain, so a Boolean tries
false first.  The trail is the undo log of the levels above the root: the
root, which nothing undoes, writes no entry, as in a SAT solver's level 0.
Every trail entry records its reason, a reference to the clause that
forced it (None for a decision), and the previous entry on the same side
of the same variable; no explanation is built while propagating.  On a
conflict, analysis reads the bounds at any trail position back from these
chains, rebuilds the explanation of each entry it resolves from the clause
(the other literals, all false, and a refuted linear half; or, for a
linear tightening, the other terms of the half) and stops at the first
unique implication point of the current level.  The learned nogood, a
clause over bound literals with root facts left out, is added as a
one-clause row; search backjumps to the level at which it is unit, and
propagation asserts it, so the other side of a decision is only ever
reached that way.  Learned rows last, like the bound rows of branch and
bound, until the next :meth:`Engine.load`: a bound row only tightens, so
each improvement backjumps to the root it reached and keeps every learned
row.  Names are labels for the text form only.
"""

from __future__ import annotations

import itertools
import time
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional

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
    acyclic,
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
    if type(atom) is Lit:
        var, val = atom
        return bools[var] == val
    var, op, k = atom
    v = ints[var]
    if op == LE:
        return v <= k
    if op == GE:
        return v >= k
    return v == k


def _all_hold(atoms, bools, ints) -> bool:
    for atom in atoms:
        if not _atom_holds(atom, bools, ints):
            return False
    return True


def _body_holds(body, bools, ints) -> bool:
    if type(body) is Clause:
        for lit in body[0]:
            if _atom_holds(lit, bools, ints):
                return True
        return False
    terms, op, const = body
    total = 0
    for coef, space, var in terms:
        total += coef * (bools[var] if space == BOOL else ints[var])
    return total <= const if op == LE else total == const


def constraint_holds(con, bools, ints) -> bool:
    """Evaluate one constraint on a total assignment."""
    kind = type(con)
    if kind is Implies:
        guard, body = con
        return not _all_hold(guard, bools, ints) or _body_holds(body, bools, ints)
    if kind is Clause or kind is Lin:
        return _body_holds(con, bools, ints)
    if kind is IffConj:
        lit, atoms = con
        return _atom_holds(lit, bools, ints) == _all_hold(atoms, bools, ints)
    raise TypeError(f"unknown constraint {kind.__name__}")


def check_assignment(m: CspModel, a: Assignment) -> bool:
    bools, ints = a.bools, a.ints
    for con in m.constraints:
        if not constraint_holds(con, bools, ints):
            return False
    return True


def objective_value(m: CspModel, a: Assignment) -> Optional[int]:
    if m.objective is None:
        return None
    total = 0
    for t in m.objective:
        total += t.coef * (a.bools[t.var] if t.space == BOOL else a.ints[t.var])
    return total


# -- propagation engine -------------------------------------------------------


class Engine:
    """Trail-based propagation and conflict-driven search.

    Each variable gets a uid when the engine first meets it, so compiled
    rows stay valid while the model grows.  :meth:`load` takes on a larger
    model: it drops every row past the stable ones (the previous tail, bound
    rows and learned rows), and one pass of :meth:`_compile` compiles the
    model's rows past the stable ones compiled so far, the last of them the
    new tail.  A bound literal ``(uid, ge, k)`` is ``x >= k`` when
    ``ge``, else ``x <= k``.  A row is a tuple of clauses ``(lits, body)``:
    the bound literals ``lits``, or ``body`` when it is not None, a linear
    body of halves ``(terms, const)``, each ``sum(c * x) <= const``, one
    for ``<=`` and two for ``=``.
    :meth:`propagate` runs every clause itself and returns False on a
    conflict, leaving the clause that failed in ``failed``;
    :meth:`_prop_lin_le` tightens the halves of a body and reports a
    refuted one, and only :meth:`_force` tightens a bound; it takes open
    literals only, so it never fails, and it counts each change in
    ``changes``.

    ``queue`` holds woken rows, run first and oldest first; ``pending``
    holds the root sweep, run from its end.  ``queued[idx]`` is set while
    row ``idx`` waits in either, runs, or sleeps.  The trail is the undo
    log of the levels above the root, of two kinds of entry: a bound
    change ``(uid, ge, old bound, reason, prev)``, where ``reason`` is the
    clause that forced it (None for a decision) and ``prev`` the position
    of the previous such entry on the same side of the variable, -1 when
    that side last changed at the root; and the int ``idx`` of a row found
    entailed, which sleeps until :meth:`_undo_to` cuts the trail below its
    entry.  ``lo_at`` and ``hi_at`` hold each variable's latest entry.
    Nothing undoes the root, so it writes no trail entry: a bound it sets
    lasts until the next :meth:`load`, and so does a row it finds
    entailed, which stays marked queued with no id on the trail.
    ``decisions`` holds the trail position of each decision, so the
    decision level of a position is the number at or below it.

    A node is a decision.  :meth:`_analyse` derives a 1-UIP nogood from a
    conflict, and :meth:`_learn` backjumps and appends it to ``cons`` as a
    one-clause row.  :meth:`add_bound` backjumps to the root and appends a
    bound row.  Learned rows and bound rows last until the next
    :meth:`load`; :meth:`_branch_order` runs before the first of them.
    """

    def __init__(self, model: Optional[CspModel] = None):
        self.lo: list[int] = []
        self.hi: list[int] = []
        self.bool_uid: list[int] = []  # by model id
        self.int_uid: list[int] = []
        self.watchers: list[list[int]] = []
        self.cons: list[tuple] = []
        self.n_stable = 0
        self.trail: list = []  # above the root: bound changes, or a sleeping row's idx
        self.changes = 0  # bound changes so far
        self.lo_at: list[int] = []  # by uid, the latest trail entry, or -1
        self.hi_at: list[int] = []
        self.decisions: list[int] = []  # the trail position of each decision
        self.failed: Optional[tuple] = None  # the clause of the last conflict
        self.queued: list[bool] = []  # waiting in a queue, running, or asleep
        self.queue: deque[int] = deque()  # woken rows, oldest first
        self.pending: list[int] = []  # the root sweep, from its end
        self.nodes = 0
        self.order: Optional[list[int]] = None
        if model is not None:
            self.load(model, len(model.constraints))

    def load(
        self, model: CspModel, n_stable: int, queue_order: Optional[Iterable[int]] = None
    ) -> None:
        """Take on ``model``, whose first ``n_stable`` rows extend the stable
        rows compiled so far; every row added since the last load (its tail,
        bound rows and learned rows) goes, and the model's other rows form
        the new tail.  Every bound restarts from the model's domains, so the
        root facts and the trail go, and every row is queued, in
        ``queue_order`` (row indices, read once into the root sweep, the
        last one propagated first; model order by default)."""
        cut = self.n_stable
        watchers = self.watchers
        for watch in watchers:  # each watch list is in row order
            while watch and watch[-1] >= cut:
                watch.pop()
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
        # the last model's tail rows and trail go before the new rows compile
        self.model = model
        self.trail, self.decisions = [], []
        self._compile(itertools.islice(model.constraints, cut, None))
        self.queue.clear()
        self.pending = list(range(len(self.cons)) if queue_order is None else queue_order)
        self.queued = [True] * len(self.cons)
        self.lo_at, self.hi_at = [-1] * len(lo), [-1] * len(lo)
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

    def _compile(self, rows) -> None:
        """Compile each of ``rows`` to a tuple of clauses, append it to
        ``cons`` and to the watch list of each variable it reads, once; the
        caller queues it.  Every tuple built here, a clause's literals among
        them, is replaced by the first tuple equal to it that this call
        built: share(x, x) for each x of xs is map(share, xs, xs).  The table
        lasts one call, so the engine keeps none."""
        share = {}.setdefault
        bool_uid, int_uid = self.bool_uid, self.int_uid
        cons, watchers, idx = self.cons, self.watchers, len(self.cons)
        for con in rows:
            kind = type(con)
            lits = []  # the clause's bound literals, so far
            if kind is Implies:
                # (g1 and ... and gn) -> body is (not g1 or ... or not gn or body)
                guard, con = con
                kind = type(con)
                for a in guard:
                    if type(a) is Lit:
                        var, val = a
                        lits.append((bool_uid[var], False, 0) if val else (bool_uid[var], True, 1))
                        continue
                    var, op, k = a
                    uid = int_uid[var]
                    if op != LE:
                        lits.append((uid, False, k - 1))
                    if op != GE:
                        lits.append((uid, True, k + 1))
            if kind is Lin:
                # a linear row, guarded or not, is the body of that clause:
                # sum <= k, or for sum = k the pair of halves sum <= k, -sum <= -k
                terms, op, const = con
                pairs = [(c, bool_uid[v] if s == BOOL else int_uid[v]) for c, s, v in terms]
                terms = tuple(map(share, pairs, pairs))
                body = ((share(terms, terms), const),)
                if op == EQ:
                    pairs = [(-c, u) for c, u in terms]
                    neg = tuple(map(share, pairs, pairs))
                    body += ((share(neg, neg), -const),)
                clause = tuple(map(share, lits, lits))
                row = ((share(clause, clause), body),)
                uids = [u for u, _, _ in clause] + [u for _, u in terms]
            else:
                # a clause's literals, or the atoms a1 ... an of lit <-> a1 and
                # ... and an: the clause (not a1 or ... or not an or lit) and
                # the binary clauses (not lit or ai)
                for a in con[0] if kind is Clause else con[1]:
                    if type(a) is Lit:
                        var, val = a
                        lits.append((bool_uid[var], True, 1) if val else (bool_uid[var], False, 0))
                        continue
                    var, op, k = a
                    uid = int_uid[var]
                    if op != LE:
                        lits.append((uid, True, k))
                    if op != GE:
                        lits.append((uid, False, k))
                lits = tuple(map(share, lits, lits))
                if kind is Clause:
                    row = ((share(lits, lits), None),)
                else:
                    var, val = con[0]
                    lit = (bool_uid[var], True, 1) if val else (bool_uid[var], False, 0)
                    nots = [(u, not ge, k - 1 if ge else k + 1) for u, ge, k in (*lits, lit)]
                    not_lit, nots[-1] = share(nots[-1], nots[-1]), lit  # the clause ends in lit
                    row = ((tuple(map(share, nots, nots)), None),)
                    row += tuple([((not_lit, a), None) for a in lits])
                uids = [u for u, _, _ in row[0][0]]
            cons.append(row)
            for uid in uids:
                watch = watchers[uid]
                if not watch or watch[-1] != idx:
                    watch.append(idx)
            idx += 1

    # -- domain updates -------------------------------------------------------

    def _force(self, uid: int, ge: bool, k: int, reason: Optional[tuple]) -> None:
        """Tighten ``x >= k`` when ``ge``, else ``x <= k``: the one place a
        bound changes.  Every caller passes an open literal, ``lo < k <= hi``
        for ``x >= k`` and ``lo <= k < hi`` for ``x <= k``, so the bound
        tightens and cannot conflict.  The change is counted, and the rows
        that watch ``x`` wake.  While a decision is on the stack, the old
        bound goes on the trail with ``reason`` (the clause that forced it,
        None for a decision) and the side's previous entry; at the root,
        which nothing undoes, no entry is written."""
        lo, hi = self.lo, self.hi
        if ge:
            old = lo[uid]
            lo[uid] = k
        else:
            old = hi[uid]
            hi[uid] = k
        self.changes += 1
        if self.decisions:
            trail = self.trail
            at = self.lo_at if ge else self.hi_at
            trail.append((uid, ge, old, reason, at[uid]))
            at[uid] = len(trail) - 1
        queued, queue = self.queued, self.queue
        for idx in self.watchers[uid]:
            if not queued[idx]:
                queued[idx] = True
                queue.append(idx)

    # -- constraint propagation -------------------------------------------------

    def _prop_lin_le(self, clause) -> Optional[bool]:
        """Tighten bounds so that every half ``sum(c * x) <= const`` of the
        body of ``clause``, whose literals are all false, can hold.  True
        when all are entailed under current bounds, so the row may sleep on
        the trail; False while one is still open; None when one is refuted."""
        lo, hi = self.lo, self.hi
        done = True
        for terms, const in clause[1]:
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
                return None
            done = False
            slack = const - mn
            for coef, uid in terms:
                if coef > 0:
                    limit = lo[uid] + slack // coef
                    if limit < hi[uid]:
                        self._force(uid, False, limit, clause)
                else:
                    limit = hi[uid] - slack // (-coef)
                    if limit > lo[uid]:
                        self._force(uid, True, limit, clause)
        return done

    def propagate(self) -> bool:
        """Run woken rows, then the root sweep, to a fixpoint, each clause
        ``lits or body`` of a row in this loop; False on a conflict: a clause
        whose literals are all false and whose body, if any, has a refuted
        half.  That clause is left in ``failed``.  A row found entailed
        sleeps: above the root its id goes on the trail, and at the root,
        which nothing undoes, it just stays marked queued."""
        lo, hi, force, prop_lin_le = self.lo, self.hi, self._force, self._prop_lin_le
        queue, pending, queued, cons = self.queue, self.pending, self.queued, self.cons
        asleep = self.trail if self.decisions else None
        conflict = None
        while True:
            if queue:
                idx = queue.popleft()
            elif pending:
                idx = pending.pop()
            else:
                return True
            # still marked queued while it runs, so its own bound changes do
            # not wake it; it goes back to the queue only if it may force more
            mark = self.changes
            done = True  # every clause holds under current bounds
            for clause in cons[idx]:
                lits, body = clause
                unknown = None  # the one open literal
                for lit in lits:
                    uid, ge, k = lit
                    if ge:
                        if lo[uid] >= k:
                            break
                        if hi[uid] < k:
                            continue
                    elif hi[uid] <= k:
                        break
                    elif lo[uid] > k:
                        continue
                    if unknown is not None:
                        done = False
                        break
                    unknown = lit
                else:  # no literal holds, and at most one is open
                    if body is not None:
                        if unknown is None:
                            held = prop_lin_le(clause)
                            if held is None:
                                conflict = clause
                                break
                            if not held:
                                done = False
                            continue
                        for terms, const in body:
                            mn = 0  # the least value of sum(c * x)
                            for coef, uid in terms:
                                mn += coef * (lo[uid] if coef > 0 else hi[uid])
                            if mn > const:
                                break
                        else:  # no half is refuted, so the body may still hold
                            done = False
                            continue
                    elif unknown is None:
                        conflict = clause
                        break
                    # every other disjunct is false: the one open literal must hold
                    force(*unknown, clause)
            if conflict:
                self.failed = conflict
                queued[idx] = False
                for idx in itertools.chain(queue, pending):
                    queued[idx] = False
                queue.clear()
                pending.clear()
                return False
            if done:  # marked queued, an entailed row sleeps
                if asleep is not None:
                    asleep.append(idx)
            elif self.changes > mark:
                queue.append(idx)
            else:
                queued[idx] = False

    # -- conflict analysis ------------------------------------------------------

    def _bound_at(self, uid: int, ge: bool, q: int) -> tuple[int, int]:
        """The lower bound of ``x`` when ``ge``, else its upper bound, before
        trail position ``q``, and the position of the entry that set it (-1
        when it was set at the root)."""
        trail = self.trail
        if ge:
            value, pos = self.lo[uid], self.lo_at[uid]
        else:
            value, pos = self.hi[uid], self.hi_at[uid]
        while pos >= q:
            _, _, value, _, pos = trail[pos]
        return value, pos

    def _since(self, uid: int, ge: bool, k: int, q: int) -> Optional[int]:
        """The position of the entry that made the literal ``(uid, ge, k)``
        true before trail position ``q``: -1 when it held at the root, None
        when it does not hold before ``q``."""
        value, pos = self._bound_at(uid, ge, q)
        if value < k if ge else value > k:
            return None
        trail = self.trail
        while pos >= 0:
            _, _, old, _, prev = trail[pos]
            if old < k if ge else old > k:
                return pos
            pos = prev
        return -1

    def _explain(self, clause, q: int, forced: Optional[tuple], add) -> None:
        """Call ``add(uid, ge, k, pos)`` for literals, each true before trail
        position ``q`` since ``pos``, that with ``clause`` imply ``forced``,
        the literal ``(uid, ge, k)`` that the entry at ``q`` made true, or,
        when ``forced`` is None, that falsify ``clause`` at ``q``.

        The clause forced one of its literals, the one open at ``q``, when
        its other literals and a linear half were false; or all its literals
        were false and a half tightened ``forced``'s side of its variable,
        from the bounds of its other terms.  Either is read back at ``q``."""
        lits, body = clause
        open_lit = False
        for uid, ge, k in lits:
            # not x >= k is x <= k - 1, and not x <= k is x >= k + 1
            k = k - 1 if ge else k + 1
            pos = self._since(uid, not ge, k, q)
            if pos is None:
                open_lit = True
            else:
                add(uid, not ge, k, pos)
        if body is None:
            return
        bound_at = self._bound_at
        for terms, const in body:
            # each term's least value, c * lo for c > 0 and c * hi for c < 0
            least = [(c, uid, *bound_at(uid, c > 0, q)) for c, uid in terms]
            total = sum(c * value for c, _, value, _ in least)
            skip = None
            if forced is None or open_lit:
                if total <= const:
                    continue  # a half that is not refuted
            else:
                uid, ge, k = forced
                for term in least:
                    c, u, value, _ = term
                    if u != uid or (c < 0) != ge:
                        continue
                    rest = const - (total - c * value)
                    if rest // c <= k if c > 0 else -(rest // -c) >= k:
                        skip = term  # the term whose tightening implies forced
                        break
                else:
                    continue
            for term in least:
                if term is not skip:
                    c, uid, value, pos = term
                    add(uid, c > 0, value, pos)
            return
        raise AssertionError("no half of the clause explains the entry")

    def _analyse(self) -> tuple[tuple, int]:
        """1-UIP analysis of the conflict at ``failed``: resolve it against
        the reasons of the current level's entries, latest first, until one
        literal of that level is left.  Returns the learned clause, the
        negation of the literals left (root facts left out), and the level
        at which it is unit."""
        trail, decisions = self.trail, self.decisions
        start = decisions[-1]
        need: dict[tuple[int, bool], tuple[int, int]] = {}  # (uid, ge) -> (k, pos)
        n_open = 0  # literals of need made true at the current level

        def add(uid, ge, k, pos):
            nonlocal n_open
            if pos < 0:
                return
            have = need.get((uid, ge))
            if have is not None:
                if have[0] >= k if ge else have[0] <= k:
                    return
                n_open -= have[1] >= start
            n_open += pos >= start
            need[uid, ge] = (k, pos)

        self._explain(self.failed, len(trail), None, add)
        q = len(trail)
        while True:
            q -= 1
            entry = trail[q]
            if type(entry) is int:
                continue
            uid, ge, _, reason, _ = entry
            have = need.get((uid, ge))
            if have is None or have[1] != q:
                continue
            if n_open == 1:
                break
            del need[uid, ge]
            n_open -= 1
            self._explain(reason, q, (uid, ge, have[0]), add)
        lits, level = [], 0
        for (uid, ge), (k, pos) in need.items():
            lits.append((uid, not ge, k - 1 if ge else k + 1))
            if pos < start:
                level = max(level, bisect_right(decisions, pos))
        return tuple(lits), level

    def _learn(self, lits: tuple, level: int) -> None:
        """Backjump to decision level ``level``, where the clause ``lits`` is
        unit, and append it as a one-clause row queued to run first."""
        self._undo_to(self.decisions[level])
        del self.decisions[level:]
        cons, watchers, idx = self.cons, self.watchers, len(self.cons)
        cons.append(((lits, None),))
        for uid, _, _ in lits:
            watch = watchers[uid]
            if not watch or watch[-1] != idx:
                watch.append(idx)
        self.queued.append(True)
        self.queue.append(idx)

    # -- search ------------------------------------------------------------------

    def _undo_to(self, mark: int) -> None:
        """Undo the trail down to ``mark``, a decision's position: each bound
        and its side's latest entry return, and each row asleep above wakes."""
        trail, lo, hi, queued = self.trail, self.lo, self.hi, self.queued
        lo_at, hi_at = self.lo_at, self.hi_at
        for entry in reversed(trail[mark:]):
            if type(entry) is int:
                queued[entry] = False
                continue
            uid, ge, old, _, prev = entry
            if ge:
                lo[uid], lo_at[uid] = old, prev
            else:
                hi[uid], hi_at[uid] = old, prev
        del trail[mark:]

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
        None when UNSAT.  Each node decides ``x <= mid`` on the next open
        variable; each conflict above the root adds a learned row and
        backjumps to the level at which it asserts."""
        if not self.propagate():
            return UNSAT, None
        if self.order is None:
            self.order = self._branch_order()
        order, lo, hi, trail, decisions = self.order, self.lo, self.hi, self.trail, self.decisions
        starts: list[int] = []  # by level, the order position of its decision
        pos = 0
        while True:
            pos = self._next_var(pos)
            if pos == len(order):
                return SAT, self._extract()
            self.nodes += 1
            if self.nodes > node_budget:
                return LIMIT, "node budget"
            if time.monotonic() > deadline:
                return LIMIT, "time budget"
            uid = order[pos]
            decisions.append(len(trail))
            starts.append(pos)
            self._force(uid, False, (lo[uid] + hi[uid]) // 2, None)
            while not self.propagate():
                if not decisions:
                    return UNSAT, None
                lits, level = self._analyse()
                # variables before the next decision's were fixed at or below level
                pos = starts[level]
                del starts[level:]
                self._learn(lits, level)

    def _extract(self) -> Assignment:
        lo = self.lo
        return Assignment(
            tuple(bool(lo[uid]) for uid in self.bool_uid), tuple(lo[uid] for uid in self.int_uid)
        )

    def add_bound(self, terms: tuple[Term, ...], const: int) -> None:
        """Backjump to the root, compile the row ``sum(terms) <= const`` and
        queue it to run first.  A row added keeps every bound and learned
        row derived so far valid, so search resumes from the root it reached."""
        if self.decisions:
            self._undo_to(self.decisions[0])
            self.decisions = []
        self._compile((Lin(terms, LE, const),))
        self.queued.append(True)
        self.queue.append(len(self.cons) - 1)


@acyclic
def solve(
    m: CspModel,
    engine: Optional[Engine] = None,
    *,
    time_budget: float = 300.0,
    node_budget: int = 100_000_000,
) -> SolveResult:
    """Decide satisfiability (optimizing when the model has an objective).

    ``engine``, if given, has just loaded ``m`` (see :meth:`Engine.load`);
    otherwise ``m`` is compiled here.  The budgets, in seconds and in nodes
    (decisions), cover the whole solve and must be positive.  Every
    satisfying assignment returned has been re-checked against the raw
    constraint list; optimal results come from a closed branch-and-bound.
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
        engine.add_bound(m.objective, best_val - 1)


def _assert_model_holds(m: CspModel, a: Assignment) -> None:
    if not check_assignment(m, a):
        raise AssertionError("solver returned an assignment violating the model")


def brute_force_solve(m: CspModel, guard: int = 1 << 24) -> SolveResult:
    """Exhaustively enumerate assignments in declaration order, pruning a
    branch as soon as some fully-assigned constraint fails.

    With an objective, returns the true optimum; the search space (product
    of domain sizes) must stay within the guard, which reads only the
    declarations, so a model past it is refused before the model check.
    """
    space = 1
    for _ in range(m.n_bools):
        space *= 2
        if space > guard:
            raise GuardExceededError(f"search space exceeds guard {guard}")
    for _, lo, hi in m.int_decls:
        space *= max(hi - lo + 1, 0)
        if space > guard:
            raise GuardExceededError(f"search space exceeds guard {guard}")
    m.check_well_formed()

    nb, ni = m.n_bools, m.n_ints
    nv = nb + ni

    def max_ref(con) -> int:
        """The last variable a row mentions (Booleans first), or -1."""
        kind, atoms, terms = type(con), (), ()
        if kind is Implies:
            atoms, con = con
            kind = type(con)
        if kind is Clause:
            atoms += con[0]
        elif kind is Lin:
            terms = con[0]
        else:  # IffConj: check_well_formed let through only the four row types
            atoms = (con[0], *con[1])
        uids = [a[0] if type(a) is Lit else nb + a[0] for a in atoms]
        uids += [var if space == BOOL else nb + var for _, space, var in terms]
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
