"""Translate a theory shape into a finite-domain constraint model.

Variable semantics: for each fluent and stage, four flow Booleans pick the
truth values over the stage's two sub-intervals, and a split point places
the stage's transition; each action copy carries a use Boolean, stage
indices l/r (the copy spans stages l..r-1), and channelled start/end
timestamps.  Exactly one flow holds per fluent and stage, which lets three
rows place each split point (:meth:`Encoder.emit_flow`).  Emission order is
fixed, so equal inputs produce byte-identical models.

Most integer rows instantiate one of two schemata: the difference row
``x - y op k`` (:meth:`Encoder._diff`), which orders stage boundaries, copy
stage indices, timestamps and split points as in a simple temporal network,
and the bound row ``x op k`` (:meth:`Encoder._var`), which parks or caps one
variable.  Every literal, comparison and term is built once per encoder and
shared by the rows that use it, held in one table per kind
(:attr:`Encoder.lits`, :attr:`Encoder.cmps`, :attr:`Encoder.terms`).
Rows of any other shape (flow conservation, the exactly-ones, the
objectives) are written out where they are used.

Every family walks a stage range and a copy range.  A row belongs to the
stage and copy it first exists at; rows whose form depends on the stage
count itself (the last stage, the copy set while it can still grow) go
through one hook, :attr:`Encoder.tail`.  One :class:`Encoder`
grows the models of rising stage counts: each :meth:`Encoder.advance`
walks only what is new and keeps the hooked rows apart, as a tail rewritten
at every count.  :func:`encode` is the first advance of a fresh encoder
with the hook writing in place, so it writes one model in one fixed order.
"""

from __future__ import annotations

from math import lcm
from typing import Callable, Optional

from .cpmodel import (
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
    Term,
    acyclic,
)
from .domain import ConstraintRel, Domain, FluentRole, SkillKind, lowers, raises_of
from .theory import FLOW_TAGS, TheoryShape

OBJECTIVE_KINDS = ("none", "costs", "makespan")


def cost_scale(domain: Domain) -> int:
    """Smallest multiplier turning every skill cost into an integer."""
    return lcm(*(s.cost.denominator for s in domain.skills), 1)


def _held(table: dict, atom):
    """``atom``, held from now on as its own key in ``table``, where a plain
    tuple of its fields finds it: a ``NamedTuple`` equals, and hashes as,
    the tuple of its fields."""
    return table.setdefault(atom, atom)


class Encoder:
    """The models of one domain at rising stage counts, grown as one model.

    Each :meth:`advance` takes the next shape (same domain, copy cap and
    horizon argument, more stages) and writes, once, only the rows that are
    new there: the rows of its new stages and of its new copies.  A variable
    keeps the id it got when first declared, so ids follow the order of
    growth; the first advance numbers them as the shape does.  The rows that
    depend on the stage count, and every row over the copy set while the set
    can still grow, form a tail that is written afresh at every count.
    """

    def __init__(self, objective: str = "none", copy_cap: Optional[int] = None):
        self.model = CspModel()
        # each distinct literal, comparison and term, one table per kind
        self.lits, self.cmps, self.terms = {}, {}, {}
        self.objective = objective
        self.copy_cap = copy_cap
        self.shape: Optional[TheoryShape] = None
        # growing ids of the shape's variables, by shape id
        self.bool_ids: list[int] = []
        self.int_ids: list[int] = []
        self.flow_id, self.use_id = {}, {}
        self.left_id, self.right_id, self.start_id, self.end_id = {}, {}, {}, {}
        self.boundary_id, self.split_id = {}, {}
        self._family_rows: list[list[int]] = [[] for _ in self._families()]

    # -- shared atoms and lookups ----------------------------------------------

    def _lit(self, var: int, val: bool = True) -> Lit:
        return self.lits.get((var, val)) or _held(self.lits, Lit(var, val))

    def _not(self, lit: Lit) -> Lit:
        return self.lits.get((lit.var, not lit.val)) or _held(self.lits, lit.negate())

    def _cmp(self, var: int, op: str, k: int) -> Cmp:
        return self.cmps.get((var, op, k)) or _held(self.cmps, Cmp(var, op, k))

    def _term(self, coef: int, space: str, var: int) -> Term:
        return self.terms.get((coef, space, var)) or _held(self.terms, Term(coef, space, var))

    def _diff(self, x: int, y: int, op: str, k: int) -> Lin:
        """The difference row ``x - y op k`` over two integer variables."""
        return Lin((self._term(1, INT, x), self._term(-1, INT, y)), op, k)

    def _var(self, x: int, op: str, k: int) -> Lin:
        """The bound row ``x op k`` over one integer variable."""
        return Lin((self._term(1, INT, x),), op, k)

    def _flow(self, fluent: str, t: int, v: int, w: int, val: bool = True) -> Lit:
        return self._lit(self.flow_id[(fluent, t, v, w)], val)

    def _one_flow(self, fluent: str, t: int, *tags: tuple[int, int]) -> Lin:
        """Exactly one of the flows ``tags`` of ``fluent`` at stage ``t``."""
        flow = self.flow_id
        return Lin(tuple(self._term(1, BOOL, flow[(fluent, t, v, w)]) for v, w in tags), EQ, 1)

    def contains_lit(self, ai: int, k: int, t: int) -> Lit:
        """The reified 'copy k of action ai spans stage t' literal."""
        return self._lit(self._contains_id[(ai, k, t)])

    def _stages(self, lo: int, hi: int, k: int = 0, shift: int = 0) -> range:
        """``range(lo, hi)`` cut to the rows new at this stage count.  Row
        ``t`` first exists at stage ``t + shift``; every row of a new copy
        ``k`` is new (``k = 0``: the row belongs to no copy)."""
        if k >= self.k0:
            return range(lo, hi)
        return range(max(lo, self.t0 - shift), hi)

    # -- flow and stage-partition constraints --------------------------------

    def emit_flow(self) -> None:
        """Initial/goal rows, conservation, redundant per-stage exactly-one,
        and split-point geometry per fluent and stage.

        The initial rows pin all four stage-1 flows (the listed pair sums to
        one, the complementary pair is zero); together with conservation this
        makes exactly one flow true per (fluent, stage).

        So neither constant flow holding means a transition, and neither
        transition holding means a constant stage: three rows place the split
        point, each guarded by the two flows it excludes.  A transition splits
        its stage strictly inside the stage's boundaries; a constant stage has
        no transition to place, so its split parks at its lower bound, which
        decode never reads.
        """
        shape, m = self.shape, self.model
        n = shape.n_stages
        init, goal = shape.domain.init, shape.domain.goal
        flow = self.flow_id
        for fluent in shape.fluent_names:
            if self.t0 == 1:
                if fluent in init:
                    m.add(self._one_flow(fluent, 1, (1, 0), (1, 1)))
                    m.add(Clause((self._flow(fluent, 1, 0, 0, False),)))
                    m.add(Clause((self._flow(fluent, 1, 0, 1, False),)))
                else:
                    m.add(self._one_flow(fluent, 1, (0, 1), (0, 0)))
                    m.add(Clause((self._flow(fluent, 1, 1, 0, False),)))
                    m.add(Clause((self._flow(fluent, 1, 1, 1, False),)))
            for t in self._stages(1, n, shift=1):
                for w in (0, 1):
                    m.add(
                        Lin(
                            (
                                self._term(1, BOOL, flow[(fluent, t, 0, w)]),
                                self._term(1, BOOL, flow[(fluent, t, 1, w)]),
                                self._term(-1, BOOL, flow[(fluent, t + 1, w, 0)]),
                                self._term(-1, BOOL, flow[(fluent, t + 1, w, 1)]),
                            ),
                            EQ,
                            0,
                        )
                    )
            if fluent in goal:
                self.tail(self._one_flow(fluent, n, (0, 1), (1, 1)))
            for t in self._stages(2, n + 1):
                m.add(self._one_flow(fluent, t, *FLOW_TAGS))
            for t in self._stages(1, n + 1):
                s = self.split_id[(fluent, t)]
                off = {tag: self._flow(fluent, t, *tag, False) for tag in FLOW_TAGS}
                moves, stays = (off[0, 0], off[1, 1]), (off[0, 1], off[1, 0])
                m.add(Implies(moves, self._diff(self.boundary_id[t - 1], s, LE, -1)))
                m.add(Implies(moves, self._diff(s, self.boundary_id[t], LE, -1)))
                m.add(Implies(stays, self._var(s, EQ, t - 1)))

    # -- action structure -----------------------------------------------------

    def emit_action_structure(self) -> None:
        """Boundary chain, use/span coupling, copy ordering, timestamp
        channelling, and duration rules."""
        shape, m = self.shape, self.model
        n = shape.n_stages
        b = self.boundary_id
        for t in self._stages(1, n + 1):
            m.add(self._diff(b[t - 1], b[t], LE, -1))

        for ai, ref in enumerate(shape.actions):
            skill = shape.skill_of(ref) if ref.kind == "skill" else None
            has_equals = skill is not None and any(
                c.rel is ConstraintRel.EQUALS for c in skill.constraints
            )
            for k in shape.copies():
                new = k >= self.k0
                u = self._lit(self.use_id[(ai, k)])
                l_v, r_v = self.left_id[(ai, k)], self.right_id[(ai, k)]
                s_v, e_v = self.start_id[(ai, k)], self.end_id[(ai, k)]
                if new:
                    m.add(Implies((u,), self._diff(l_v, r_v, LE, -1)))
                    # an unused copy sits at its declared lower bounds; no
                    # other row reads its indices unless the copy is used
                    for x, lo in ((l_v, 1), (r_v, 0), (s_v, 0), (e_v, 0)):
                        m.add(Implies((self._not(u),), self._var(x, EQ, lo)))
                if new and k > 1:
                    m.add(Clause((self._not(u), self._lit(self.use_id[(ai, k - 1)]))))
                    m.add(Implies((u,), self._diff(self.right_id[(ai, k - 1)], l_v, LE, 0)))
                for t in self._stages(1, n + 1, k):
                    m.add(Implies((u, self._cmp(l_v, EQ, t)), self._diff(s_v, b[t - 1], EQ, 0)))
                for t in self._stages(2, n + 2, k, shift=-1):
                    m.add(Implies((u, self._cmp(r_v, EQ, t)), self._diff(e_v, b[t - 1], EQ, 0)))
                # no row E - S >= r - l: channelling and the boundary chain imply it
                if not new or skill is None:
                    continue
                if skill.kind is SkillKind.DELAY:
                    m.add(Implies((u,), self._diff(e_v, s_v, EQ, skill.duration)))
                    m.add(Implies((u,), self._diff(r_v, l_v, LE, skill.duration)))
                if has_equals:
                    # one-tick insets on both sides need two ticks of slack
                    m.add(Implies((u,), self._diff(l_v, r_v, LE, -2)))

    # -- precondition/effect constraint families ------------------------------

    def _emit_window_start_rule(self, fluent: str, u: Lit, l_v: int, k: int) -> None:
        """The fluent must already be true when the copy starts; starting at
        stage 1 draws the before-context from the initial conditions."""
        shape, m = self.shape, self.model
        for t in self._stages(2, shape.n_stages + 1, k):
            m.add(
                Implies(
                    (u, self._cmp(l_v, EQ, t)),
                    Clause((self._flow(fluent, t - 1, 0, 1), self._flow(fluent, t - 1, 1, 1))),
                )
            )
        if k >= self.k0 and fluent not in shape.domain.init:
            m.add(Implies((u,), Lin((self._term(-1, INT, l_v),), LE, -2)))

    def emit_tc_constraints(self) -> None:
        """Reify span literals and emit the contains/overlaps families.

        contains: the fluent stays true across every spanned stage and at
        both boundary instants (goal conditions supply the after-context
        when a copy runs through the last stage).
        overlaps: the fluent is true at the start instant and falls exactly
        once strictly inside the span.
        """
        shape, m = self.shape, self.model
        n = shape.n_stages
        for ai in self._skill_ais:
            ref = shape.actions[ai]
            skill = shape.skill_of(ref)
            for k in shape.copies():
                u = self._lit(self.use_id[(ai, k)])
                l_v, r_v = self.left_id[(ai, k)], self.right_id[(ai, k)]
                for t in self._stages(1, n + 1, k):
                    c = m.new_bool(f"c[{ref.label()},{k},{t}]")
                    self._contains_id[(ai, k, t)] = c
                    spans = (u, self._cmp(l_v, LE, t), self._cmp(r_v, GE, t + 1))
                    m.add(IffConj(self._lit(c), spans))
                for si, spec in enumerate(skill.constraints):
                    if spec.rel is ConstraintRel.CONTAINS:
                        self._emit_window_start_rule(spec.fluent, u, l_v, k)
                        for t in self._stages(2, n + 1, k):
                            m.add(
                                Implies(
                                    (u, self._cmp(r_v, EQ, t)),
                                    Clause(
                                        (
                                            self._flow(spec.fluent, t, 1, 0),
                                            self._flow(spec.fluent, t, 1, 1),
                                        )
                                    ),
                                )
                            )
                        if spec.fluent not in shape.domain.goal:
                            self.tail(Implies((u,), self._var(r_v, LE, n)))
                        for t in self._stages(1, n + 1, k):
                            m.add(
                                Clause(
                                    (
                                        self._not(self.contains_lit(ai, k, t)),
                                        self._flow(spec.fluent, t, 1, 1),
                                    )
                                )
                            )
                    elif spec.rel is ConstraintRel.OVERLAPS:
                        self._emit_window_start_rule(spec.fluent, u, l_v, k)
                        for t in self._stages(1, n + 1, k):
                            g = m.new_bool(f"g[{ref.label()},{k},{spec.fluent},{t}]")
                            self._fall_id[(ai, k, si, t)] = g
                            m.add(
                                IffConj(
                                    self._lit(g),
                                    (
                                        self._flow(spec.fluent, t, 1, 0),
                                        self.contains_lit(ai, k, t),
                                    ),
                                )
                            )
                        fall = self._fall_id
                        fall_terms = tuple(
                            self._term(1, BOOL, fall[(ai, k, si, t)]) for t in range(1, n + 1)
                        )
                        self.tail(Implies((u,), Lin(fall_terms, EQ, 1)))

    # -- operational constraints ----------------------------------------------

    def emit_operational(self) -> None:
        """Temporal-action chaining and resource-equality windows."""
        shape, m = self.shape, self.model
        n = shape.n_stages
        new_copies = range(self.k0, shape.copy_cap + 1)

        component_parents: dict[tuple[str, int], int] = {}
        for ai, ref in enumerate(shape.actions):
            if ref.kind != "temporal":
                continue
            ta = shape.temporal_of(ref)
            comp_ids = [shape.action_index(name, ref.actor) for name in ta.skills]
            for comp in comp_ids:
                component_parents[(shape.actions[comp].name, ref.actor)] = ai
            for k in new_copies:
                u = self._lit(self.use_id[(ai, k)])
                for comp in comp_ids:
                    m.add(Clause((self._not(u), self._lit(self.use_id[(comp, k)]))))
                left, right = self.left_id, self.right_id
                m.add(Implies((u,), self._diff(left[(comp_ids[0], k)], left[(ai, k)], EQ, 0)))
                m.add(Implies((u,), self._diff(right[(comp_ids[-1], k)], right[(ai, k)], EQ, 0)))
                for first, second in zip(comp_ids, comp_ids[1:]):
                    m.add(Implies((u,), self._diff(right[(first, k)], left[(second, k)], EQ, 0)))
        for (name, actor), parent_ai in sorted(component_parents.items()):
            comp_ai = shape.action_index(name, actor)
            for k in new_copies:
                m.add(
                    Clause(
                        (
                            self._lit(self.use_id[(comp_ai, k)], False),
                            self._lit(self.use_id[(parent_ai, k)]),
                        )
                    )
                )

        for ai in self._skill_ais:
            ref = shape.actions[ai]
            skill = shape.skill_of(ref)
            equals_specs = [c for c in skill.constraints if c.rel is ConstraintRel.EQUALS]
            if not equals_specs:
                continue
            for k in shape.copies():
                u = self._lit(self.use_id[(ai, k)])
                l_v, r_v = self.left_id[(ai, k)], self.right_id[(ai, k)]
                for t in self._stages(2, n, k, shift=1):
                    d = m.new_bool(f"d[{ref.label()},{k},{t}]")
                    self._interior_id[(ai, k, t)] = d
                    inside = (u, self._cmp(l_v, LE, t - 1), self._cmp(r_v, GE, t + 2))
                    m.add(IffConj(self._lit(d), inside))
                for spec in equals_specs:
                    rho = spec.fluent
                    for t in self._stages(1, n + 1, k):
                        guard = (u, self._cmp(l_v, EQ, t))
                        m.add(Implies(guard, Clause((self._flow(rho, t, 0, 1),))))
                        s = self.split_id[(rho, t)]
                        m.add(Implies(guard, self._diff(s, self.boundary_id[t - 1], EQ, 1)))
                    for t_end in self._stages(2, n + 2, k, shift=-1):
                        guard = (u, self._cmp(r_v, EQ, t_end))
                        m.add(Implies(guard, Clause((self._flow(rho, t_end - 1, 1, 0),))))
                        s = self.split_id[(rho, t_end - 1)]
                        m.add(Implies(guard, self._diff(s, self.boundary_id[t_end - 1], EQ, -1)))
                    for t in self._stages(2, n, k, shift=1):
                        m.add(
                            Clause(
                                (
                                    self._lit(self._interior_id[(ai, k, t)], False),
                                    self._flow(rho, t, 1, 1),
                                )
                            )
                        )

    # -- frame and interference -------------------------------------------------

    def emit_frame_and_interference(self) -> None:
        """Every transition needs a justifying span; interfering fluents are
        cut apart both by Boolean exclusions and by split ordering.  The
        frame clauses range over the copy set."""
        shape, m = self.shape, self.model
        n = shape.n_stages
        domain = shape.domain

        for fluent in shape.fluent_names:
            for t in range(self.set_t0, n + 1):
                rise_lits = [self._flow(fluent, t, 0, 1, False)]
                for ai in self._raisers[fluent]:
                    for k in shape.copies():
                        rise_lits.append(self.contains_lit(ai, k, t))
                self.set_add(Clause(tuple(rise_lits)))
                fall_lits = [self._flow(fluent, t, 1, 0, False)]
                for ai in self._lowerers[fluent]:
                    for k in shape.copies():
                        fall_lits.append(self.contains_lit(ai, k, t))
                self.set_add(Clause(tuple(fall_lits)))

        split = self.split_id
        for first, second in sorted(domain.interference):
            for t in self._stages(1, n + 1):
                for v in (0, 1):
                    for w in (0, 1):
                        m.add(
                            Clause(
                                (
                                    self._flow(first, t, v, 1, False),
                                    self._flow(second, t, w, 1, False),
                                )
                            )
                        )
                        if (v, w) != (1, 1):
                            m.add(
                                Clause(
                                    (
                                        self._flow(first, t, 1, v, False),
                                        self._flow(second, t, 1, w, False),
                                    )
                                )
                            )
                for riser, faller in ((first, second), (second, first)):
                    guard = (self._flow(riser, t, 0, 1), self._flow(faller, t, 1, 0))
                    m.add(Implies(guard, self._diff(split[(faller, t)], split[(riser, t)], LE, 0)))

    def emit_implied_cuts(self) -> None:
        """Redundant rows that never change satisfiability but let bound
        propagation walk the containment chains directly.  All of them range
        over the copy set.

        Goal support: a goal fluent that starts false needs some raiser copy
        in use.  Single-provider windows: when a constrained fluent outside
        the initial conditions has exactly one candidate raiser copy, the
        constrained copy needs the provider in use, starting at an earlier
        stage and at least two ticks earlier.  If that fluent is a resource
        the provider holds as an equals window, the constrained copy also
        ends at an earlier stage (contains) or starts at a stage before the
        provider ends (overlaps)."""
        shape, add = self.shape, self.set_add
        domain = shape.domain
        if self.set_t0 > 1:
            return

        for fluent in shape.fluent_names:
            if fluent in domain.goal and fluent not in domain.init:
                lits = tuple(
                    self._lit(self.use_id[(ai, k)])
                    for ai in self._raisers[fluent]
                    for k in shape.copies()
                )
                add(Clause(lits))

        if shape.copy_cap != 1:
            return
        roles = {f.name: f.role for f in domain.fluents}
        for ai in self._skill_ais:
            skill = shape.skill_of(shape.actions[ai])
            for spec in skill.constraints:
                if spec.rel is ConstraintRel.EQUALS or spec.fluent in domain.init:
                    continue
                providers = self._raisers[spec.fluent]
                if len(providers) != 1:
                    continue
                bi = providers[0]
                u = self._lit(self.use_id[(ai, 1)])
                l_a, r_a = self.left_id[(ai, 1)], self.right_id[(ai, 1)]
                l_b, r_b = self.left_id[(bi, 1)], self.right_id[(bi, 1)]
                s_a, s_b = self.start_id[(ai, 1)], self.start_id[(bi, 1)]
                add(Clause((self._not(u), self._lit(self.use_id[(bi, 1)]))))
                add(Implies((u,), self._diff(l_b, l_a, LE, -1)))
                add(Implies((u,), self._diff(s_b, s_a, LE, -2)))
                window = (
                    roles.get(spec.fluent) is FluentRole.RESOURCE
                    and spec.fluent
                    in {
                        c.fluent
                        for c in shape.skill_of(shape.actions[bi]).constraints
                        if c.rel is ConstraintRel.EQUALS
                    }
                )
                if not window:
                    continue
                if spec.rel is ConstraintRel.CONTAINS:
                    add(Implies((u,), self._diff(r_a, r_b, LE, -1)))
                else:  # the provider's window must fall strictly inside the span
                    add(Implies((u,), self._diff(l_a, r_b, LE, -1)))

    # -- objective -----------------------------------------------------------

    def emit_objective(self) -> None:
        shape, m, kind = self.shape, self.model, self.objective
        if kind == "none":
            return
        if kind == "costs":
            scale = cost_scale(shape.domain)
            terms = []
            for ai in self._skill_ais:
                coef = int(shape.skill_of(shape.actions[ai]).cost * scale)
                if coef == 0:
                    continue
                for k in shape.copies():
                    terms.append(self._term(coef, BOOL, self.use_id[(ai, k)]))
            m.minimize(terms)
            return
        if kind == "makespan":
            if self._span is None:
                self._span = m.new_int("makespan", 0, shape.horizon)
            span = self._span
            m.int_decls[span] = ("makespan", 0, shape.horizon)
            for ai in self._skill_ais:
                for k in range(self.k0, shape.copy_cap + 1):
                    u = self._lit(self.use_id[(ai, k)])
                    m.add(Implies((u,), self._diff(self.end_id[(ai, k)], span, LE, 0)))
            m.minimize((self._term(1, INT, span),))
            return
        raise ValueError(f"unknown objective kind {kind!r}; use one of {OBJECTIVE_KINDS}")

    def _families(self) -> tuple[Callable[[], None], ...]:
        """The emit steps in the order their rows are written."""
        return (
            self.emit_flow,
            self.emit_action_structure,
            self.emit_tc_constraints,
            self.emit_operational,
            self.emit_frame_and_interference,
            self.emit_implied_cuts,
            self.emit_objective,
        )

    def _copies_final(self, shape: TheoryShape) -> bool:
        return self.copy_cap is not None and shape.copy_cap == self.copy_cap

    def advance(
        self, shape: TheoryShape, *, inline: bool = False
    ) -> tuple[CspModel, int, list[int]]:
        """Grow to ``shape`` and return its model, the number of stable rows
        that open it (the rows after them are this count's tail), and the
        row indices family by family, in the order the families are written.
        The model holds every variable declared so far, with ``shape``'s
        domains.  ``inline`` writes the tail in place among the stable rows,
        for a model that will not grow (see :func:`encode`)."""
        prev, m = self.shape, self.model
        if prev is None:
            self.t0 = self.k0 = 1
            final_before = False
            # state that stays fixed across the stage counts of one domain
            self._contains_id: dict[tuple[int, int, int], int] = {}
            self._interior_id: dict[tuple[int, int, int], int] = {}
            self._fall_id: dict[tuple[int, int, int, int], int] = {}
            self._span: Optional[int] = None
            self._skill_ais = [i for i, ref in enumerate(shape.actions) if ref.kind == "skill"]
            # per fluent, the skill actions that can raise / lower it, in action order
            self._raisers: dict[str, list[int]] = {f: [] for f in shape.fluent_names}
            self._lowerers: dict[str, list[int]] = {f: [] for f in shape.fluent_names}
            for ai in self._skill_ais:
                skill_name = shape.actions[ai].name
                for fluent in raises_of(shape.domain, skill_name):
                    self._raisers[fluent].append(ai)
                for fluent in lowers(shape.domain, skill_name):
                    self._lowerers[fluent].append(ai)
        elif shape.n_stages <= prev.n_stages:
            raise ValueError(f"stage counts must rise: {prev.n_stages} then {shape.n_stages}")
        else:
            self.t0, self.k0 = prev.n_stages + 1, prev.copy_cap + 1
            final_before = self._copies_final(prev)
        self.shape = shape
        for name in shape.bool_names[len(self.bool_ids) :]:
            self.bool_ids.append(m.new_bool(name))
        for name, lo, hi in shape.int_decls[len(self.int_ids) :]:
            self.int_ids.append(m.new_int(name, lo, hi))
        for gid, decl in zip(self.int_ids, shape.int_decls):
            m.int_decls[gid] = decl
        for mine, theirs, ids in (
            (self.flow_id, shape.flow_id, self.bool_ids),
            (self.use_id, shape.use_id, self.bool_ids),
            (self.left_id, shape.left_id, self.int_ids),
            (self.right_id, shape.right_id, self.int_ids),
            (self.start_id, shape.start_id, self.int_ids),
            (self.end_id, shape.end_id, self.int_ids),
            (self.boundary_id, shape.boundary_id, self.int_ids),
            (self.split_id, shape.split_id, self.int_ids),
        ):
            for key, sid in theirs.items():
                if key not in mine:
                    mine[key] = ids[sid]
        tail: list = []
        self.tail = m.add if inline else tail.append
        # rows over the copy set are stable once the set stops growing; they
        # are new at every stage until the count at which it stopped
        self.set_add = m.add if self._copies_final(shape) else self.tail
        self.set_t0 = self.t0 if final_before else 1
        tail_spans = []
        for rows, emit in zip(self._family_rows, self._families()):
            first, tail_first = len(m.constraints), len(tail)
            emit()
            rows.extend(range(first, len(m.constraints)))
            tail_spans.append((tail_first, len(tail)))
        n_stable = len(m.constraints)
        order: list[int] = []
        for rows, (first, end) in zip(self._family_rows, tail_spans):
            order += rows
            order += range(n_stable + first, n_stable + end)
        probe = CspModel(list(m.bool_names), list(m.int_decls), m.constraints + tail, m.objective)
        return probe, n_stable, order


@acyclic
def encode(shape: TheoryShape, objective: str = "none") -> CspModel:
    """Pure function of (shape, objective): the model of one stage count,
    every row in place and every variable numbered as the shape numbers it."""
    return Encoder(objective).advance(shape, inline=True)[0]
