"""Translate a theory shape into a finite-domain constraint model.

Variable semantics: for each fluent and stage, four flow Booleans pick the
truth values over the stage's two sub-intervals; each action copy carries a
use Boolean, stage indices l/r (the copy spans stages l..r-1), and
channelled start/end timestamps.  Emission order is fixed, so equal inputs
produce byte-identical models.
"""

from __future__ import annotations

from math import lcm

from .cpmodel import (
    BOOL,
    EQ,
    GE,
    INT,
    LE,
    Clause,
    Cmp,
    CspModel,
    ExactlyOne,
    IffConj,
    Implies,
    Lin,
    Lit,
    Term,
)
from .domain import ConstraintRel, Domain, FluentRole, SkillKind, lowers, raises_of
from .theory import TheoryShape

OBJECTIVE_KINDS = ("none", "costs", "makespan")


def cost_scale(domain: Domain) -> int:
    """Smallest multiplier turning every skill cost into an integer."""
    return lcm(*(s.cost.denominator for s in domain.skills), 1)


class Encoder:
    """Stateful emitter; create one per (shape, objective) pair and call
    :meth:`encode`, or drive the individual emit steps in tests."""

    def __init__(self, shape: TheoryShape):
        self.shape = shape
        self.model = CspModel()
        for name in shape.bool_names:
            self.model.new_bool(name)
        for name, lo, hi in shape.int_decls:
            self.model.new_int(name, lo, hi)
        self._contains_id: dict[tuple[int, int, int], int] = {}
        self._interior_id: dict[tuple[int, int, int], int] = {}
        # per fluent, the skill actions that can raise / lower it, in action order
        self._raisers: dict[str, list[int]] = {f: [] for f in shape.fluent_names}
        self._lowerers: dict[str, list[int]] = {f: [] for f in shape.fluent_names}
        for ai in self._skill_action_indices():
            skill_name = shape.actions[ai].name
            for fluent in raises_of(shape.domain, skill_name):
                self._raisers[fluent].append(ai)
            for fluent in lowers(shape.domain, skill_name):
                self._lowerers[fluent].append(ai)

    # -- shared lookups -----------------------------------------------------

    def _flow(self, fluent: str, t: int, v: int, w: int) -> Lit:
        return Lit(self.shape.flow_id[(fluent, t, v, w)])

    def _skill_action_indices(self) -> list[int]:
        return [i for i, ref in enumerate(self.shape.actions) if ref.kind == "skill"]

    def contains_lit(self, ai: int, k: int, t: int) -> Lit:
        """The reified 'copy k of action ai spans stage t' literal."""
        return Lit(self._contains_id[(ai, k, t)])

    # -- flow and stage-partition constraints --------------------------------

    def emit_flow(self) -> None:
        """Initial/goal rows, conservation, redundant per-stage exactly-one,
        and split-point geometry per fluent and stage.

        The initial rows pin all four stage-1 flows (the listed pair sums to
        one, the complementary pair is zero); together with conservation this
        makes exactly one flow true per (fluent, stage).
        """
        shape, m = self.shape, self.model
        n = shape.n_stages
        init, goal = shape.domain.init, shape.domain.goal
        for fluent in shape.fluent_names:
            if fluent in init:
                m.add(ExactlyOne((self._flow(fluent, 1, 1, 0), self._flow(fluent, 1, 1, 1))))
                m.add(Clause((self._flow(fluent, 1, 0, 0).negate(),)))
                m.add(Clause((self._flow(fluent, 1, 0, 1).negate(),)))
            else:
                m.add(ExactlyOne((self._flow(fluent, 1, 0, 1), self._flow(fluent, 1, 0, 0))))
                m.add(Clause((self._flow(fluent, 1, 1, 0).negate(),)))
                m.add(Clause((self._flow(fluent, 1, 1, 1).negate(),)))
            for t in range(1, n):
                for w in (0, 1):
                    m.add(
                        Lin(
                            (
                                Term(1, BOOL, self._flow(fluent, t, 0, w).var),
                                Term(1, BOOL, self._flow(fluent, t, 1, w).var),
                                Term(-1, BOOL, self._flow(fluent, t + 1, w, 0).var),
                                Term(-1, BOOL, self._flow(fluent, t + 1, w, 1).var),
                            ),
                            EQ,
                            0,
                        )
                    )
            if fluent in goal:
                m.add(ExactlyOne((self._flow(fluent, n, 0, 1), self._flow(fluent, n, 1, 1))))
            for t in range(2, n + 1):
                m.add(
                    ExactlyOne(
                        tuple(self._flow(fluent, t, v, w) for v in (0, 1) for w in (0, 1))
                    )
                )
            for t in range(1, n + 1):
                s = shape.split_id[(fluent, t)]
                b_prev = shape.boundary_id[t - 1]
                b_cur = shape.boundary_id[t]
                for v, w in ((0, 1), (1, 0)):
                    guard = (self._flow(fluent, t, v, w),)
                    m.add(
                        Implies(
                            guard,
                            Lin((Term(1, INT, b_prev), Term(-1, INT, s)), LE, -1),
                        )
                    )
                    m.add(
                        Implies(
                            guard,
                            Lin((Term(1, INT, s), Term(-1, INT, b_cur)), LE, -1),
                        )
                    )
                # constant stages have no transition to place; park the split
                # at its lower bound (decode never reads it there)
                for v in (0, 1):
                    m.add(
                        Implies(
                            (self._flow(fluent, t, v, v),),
                            Lin((Term(1, INT, s),), EQ, t - 1),
                        )
                    )

    # -- action structure -----------------------------------------------------

    def emit_action_structure(self) -> None:
        """Boundary chain, use/span coupling, copy ordering, timestamp
        channelling, and duration rules."""
        shape, m = self.shape, self.model
        n, h = shape.n_stages, shape.horizon
        m.add(Lin((Term(1, INT, shape.boundary_id[0]),), EQ, 0))
        for t in range(1, n + 1):
            m.add(
                Lin(
                    (
                        Term(1, INT, shape.boundary_id[t - 1]),
                        Term(-1, INT, shape.boundary_id[t]),
                    ),
                    LE,
                    -1,
                )
            )
        m.add(Lin((Term(1, INT, shape.boundary_id[n]),), LE, h))

        for ai, ref in enumerate(shape.actions):
            skill = shape.skill_of(ref) if ref.kind == "skill" else None
            has_equals = skill is not None and any(
                c.rel is ConstraintRel.EQUALS for c in skill.constraints
            )
            for k in shape.copies():
                u = Lit(shape.use_id[(ai, k)])
                l_v, r_v = shape.left_id[(ai, k)], shape.right_id[(ai, k)]
                s_v, e_v = shape.start_id[(ai, k)], shape.end_id[(ai, k)]
                m.add(Implies((u,), Lin((Term(1, INT, l_v), Term(-1, INT, r_v)), LE, -1)))
                m.add(Implies((u.negate(),), Lin((Term(1, INT, l_v),), EQ, n + 1)))
                m.add(Implies((u.negate(),), Lin((Term(1, INT, r_v),), EQ, 0)))
                m.add(Implies((u.negate(),), Lin((Term(1, INT, s_v),), EQ, 0)))
                m.add(Implies((u.negate(),), Lin((Term(1, INT, e_v),), EQ, 0)))
                if k > 1:
                    prev_u = Lit(shape.use_id[(ai, k - 1)])
                    m.add(Clause((u.negate(), prev_u)))
                    m.add(
                        Implies(
                            (u,),
                            Lin(
                                (
                                    Term(1, INT, shape.right_id[(ai, k - 1)]),
                                    Term(-1, INT, l_v),
                                ),
                                LE,
                                0,
                            ),
                        )
                    )
                for t in range(1, n + 1):
                    m.add(
                        Implies(
                            (u, Cmp(l_v, EQ, t)),
                            Lin(
                                (Term(1, INT, s_v), Term(-1, INT, shape.boundary_id[t - 1])),
                                EQ,
                                0,
                            ),
                        )
                    )
                for t in range(2, n + 2):
                    m.add(
                        Implies(
                            (u, Cmp(r_v, EQ, t)),
                            Lin(
                                (Term(1, INT, e_v), Term(-1, INT, shape.boundary_id[t - 1])),
                                EQ,
                                0,
                            ),
                        )
                    )
                # stages are at least one tick wide, so E - S >= r - l
                m.add(
                    Implies(
                        (u,),
                        Lin(
                            (
                                Term(-1, INT, e_v),
                                Term(1, INT, s_v),
                                Term(1, INT, r_v),
                                Term(-1, INT, l_v),
                            ),
                            LE,
                            0,
                        ),
                    )
                )
                if skill is None:
                    continue
                if skill.kind is SkillKind.DELAY:
                    m.add(
                        Implies(
                            (u,),
                            Lin((Term(1, INT, e_v), Term(-1, INT, s_v)), EQ, skill.duration),
                        )
                    )
                    m.add(
                        Implies(
                            (u,),
                            Lin((Term(1, INT, r_v), Term(-1, INT, l_v)), LE, skill.duration),
                        )
                    )
                else:
                    m.add(Implies((u,), Lin((Term(1, INT, s_v), Term(-1, INT, e_v)), LE, -1)))
                if has_equals:
                    # one-tick insets on both sides need two ticks of slack
                    m.add(Implies((u,), Lin((Term(1, INT, s_v), Term(-1, INT, e_v)), LE, -2)))
                    m.add(Implies((u,), Lin((Term(1, INT, l_v), Term(-1, INT, r_v)), LE, -2)))

    # -- precondition/effect constraint families ------------------------------

    def _emit_window_start_rule(self, fluent: str, u: Lit, l_v: int) -> None:
        """The fluent must already be true when the copy starts; starting at
        stage 1 draws the before-context from the initial conditions."""
        shape, m = self.shape, self.model
        for t in range(2, shape.n_stages + 1):
            m.add(
                Implies(
                    (u, Cmp(l_v, EQ, t)),
                    Clause((self._flow(fluent, t - 1, 0, 1), self._flow(fluent, t - 1, 1, 1))),
                )
            )
        if fluent not in shape.domain.init:
            m.add(Implies((u,), Lin((Term(-1, INT, l_v),), LE, -2)))

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
        for ai in self._skill_action_indices():
            ref = shape.actions[ai]
            skill = shape.skill_of(ref)
            for k in shape.copies():
                u = Lit(shape.use_id[(ai, k)])
                l_v, r_v = shape.left_id[(ai, k)], shape.right_id[(ai, k)]
                for t in range(1, n + 1):
                    c = m.new_bool(f"c[{ref.label()},{k},{t}]")
                    self._contains_id[(ai, k, t)] = c
                    m.add(
                        IffConj(Lit(c), (u, Cmp(l_v, LE, t), Cmp(r_v, GE, t + 1)))
                    )
                for spec in skill.constraints:
                    if spec.rel is ConstraintRel.CONTAINS:
                        self._emit_window_start_rule(spec.fluent, u, l_v)
                        for t in range(2, n + 1):
                            m.add(
                                Implies(
                                    (u, Cmp(r_v, EQ, t)),
                                    Clause(
                                        (
                                            self._flow(spec.fluent, t, 1, 0),
                                            self._flow(spec.fluent, t, 1, 1),
                                        )
                                    ),
                                )
                            )
                        if spec.fluent not in shape.domain.goal:
                            m.add(Implies((u,), Lin((Term(1, INT, r_v),), LE, n)))
                        for t in range(1, n + 1):
                            m.add(
                                Clause(
                                    (
                                        self.contains_lit(ai, k, t).negate(),
                                        self._flow(spec.fluent, t, 1, 1),
                                    )
                                )
                            )
                    elif spec.rel is ConstraintRel.OVERLAPS:
                        self._emit_window_start_rule(spec.fluent, u, l_v)
                        fall_terms = []
                        for t in range(1, n + 1):
                            g = m.new_bool(f"g[{ref.label()},{k},{spec.fluent},{t}]")
                            m.add(
                                IffConj(
                                    Lit(g),
                                    (
                                        self._flow(spec.fluent, t, 1, 0),
                                        self.contains_lit(ai, k, t),
                                    ),
                                )
                            )
                            fall_terms.append(Term(1, BOOL, g))
                        m.add(Implies((u,), Lin(tuple(fall_terms), EQ, 1)))

    # -- operational constraints ----------------------------------------------

    def emit_operational(self) -> None:
        """Temporal-action chaining and resource-equality windows."""
        shape, m = self.shape, self.model
        n = shape.n_stages

        component_parents: dict[tuple[str, int], int] = {}
        for ai, ref in enumerate(shape.actions):
            if ref.kind != "temporal":
                continue
            ta = shape.temporal_of(ref)
            comp_ids = [shape.action_index(name, ref.actor) for name in ta.skills]
            for comp in comp_ids:
                component_parents[(shape.actions[comp].name, ref.actor)] = ai
            for k in shape.copies():
                u = Lit(shape.use_id[(ai, k)])
                for comp in comp_ids:
                    m.add(Clause((u.negate(), Lit(shape.use_id[(comp, k)]))))
                m.add(
                    Implies(
                        (u,),
                        Lin(
                            (
                                Term(1, INT, shape.left_id[(comp_ids[0], k)]),
                                Term(-1, INT, shape.left_id[(ai, k)]),
                            ),
                            EQ,
                            0,
                        ),
                    )
                )
                m.add(
                    Implies(
                        (u,),
                        Lin(
                            (
                                Term(1, INT, shape.right_id[(comp_ids[-1], k)]),
                                Term(-1, INT, shape.right_id[(ai, k)]),
                            ),
                            EQ,
                            0,
                        ),
                    )
                )
                for first, second in zip(comp_ids, comp_ids[1:]):
                    m.add(
                        Implies(
                            (u,),
                            Lin(
                                (
                                    Term(1, INT, shape.right_id[(first, k)]),
                                    Term(-1, INT, shape.left_id[(second, k)]),
                                ),
                                EQ,
                                0,
                            ),
                        )
                    )
        for (name, actor), parent_ai in sorted(component_parents.items()):
            comp_ai = shape.action_index(name, actor)
            for k in shape.copies():
                m.add(
                    Clause(
                        (
                            Lit(shape.use_id[(comp_ai, k)]).negate(),
                            Lit(shape.use_id[(parent_ai, k)]),
                        )
                    )
                )

        for ai in self._skill_action_indices():
            ref = shape.actions[ai]
            skill = shape.skill_of(ref)
            equals_specs = [c for c in skill.constraints if c.rel is ConstraintRel.EQUALS]
            if not equals_specs:
                continue
            for k in shape.copies():
                u = Lit(shape.use_id[(ai, k)])
                l_v, r_v = shape.left_id[(ai, k)], shape.right_id[(ai, k)]
                for t in range(2, n):
                    d = m.new_bool(f"d[{ref.label()},{k},{t}]")
                    self._interior_id[(ai, k, t)] = d
                    m.add(
                        IffConj(Lit(d), (u, Cmp(l_v, LE, t - 1), Cmp(r_v, GE, t + 2)))
                    )
                for spec in equals_specs:
                    rho = spec.fluent
                    for t in range(1, n + 1):
                        guard = (u, Cmp(l_v, EQ, t))
                        m.add(Implies(guard, Clause((self._flow(rho, t, 0, 1),))))
                        m.add(
                            Implies(
                                guard,
                                Lin(
                                    (
                                        Term(1, INT, shape.split_id[(rho, t)]),
                                        Term(-1, INT, shape.boundary_id[t - 1]),
                                    ),
                                    EQ,
                                    1,
                                ),
                            )
                        )
                    for t_end in range(2, n + 2):
                        guard = (u, Cmp(r_v, EQ, t_end))
                        m.add(
                            Implies(guard, Clause((self._flow(rho, t_end - 1, 1, 0),)))
                        )
                        m.add(
                            Implies(
                                guard,
                                Lin(
                                    (
                                        Term(1, INT, shape.split_id[(rho, t_end - 1)]),
                                        Term(-1, INT, shape.boundary_id[t_end - 1]),
                                    ),
                                    EQ,
                                    -1,
                                ),
                            )
                        )
                    for t in range(2, n):
                        m.add(
                            Clause(
                                (
                                    Lit(self._interior_id[(ai, k, t)]).negate(),
                                    self._flow(rho, t, 1, 1),
                                )
                            )
                        )

    # -- frame and interference -------------------------------------------------

    def emit_frame_and_interference(self) -> None:
        """Every transition needs a justifying span; interfering fluents are
        cut apart both by Boolean exclusions and by split ordering."""
        shape, m = self.shape, self.model
        n = shape.n_stages
        domain = shape.domain

        for fluent in shape.fluent_names:
            for t in range(1, n + 1):
                rise_lits = [self._flow(fluent, t, 0, 1).negate()]
                for ai in self._raisers[fluent]:
                    for k in shape.copies():
                        rise_lits.append(self.contains_lit(ai, k, t))
                m.add(Clause(tuple(rise_lits)))
                fall_lits = [self._flow(fluent, t, 1, 0).negate()]
                for ai in self._lowerers[fluent]:
                    for k in shape.copies():
                        fall_lits.append(self.contains_lit(ai, k, t))
                m.add(Clause(tuple(fall_lits)))

        for first, second in sorted(domain.interference):
            for t in range(1, n + 1):
                for v in (0, 1):
                    for w in (0, 1):
                        m.add(
                            Clause(
                                (
                                    self._flow(first, t, v, 1).negate(),
                                    self._flow(second, t, w, 1).negate(),
                                )
                            )
                        )
                        if (v, w) != (1, 1):
                            m.add(
                                Clause(
                                    (
                                        self._flow(first, t, 1, v).negate(),
                                        self._flow(second, t, 1, w).negate(),
                                    )
                                )
                            )
                for riser, faller in ((first, second), (second, first)):
                    m.add(
                        Implies(
                            (self._flow(riser, t, 0, 1), self._flow(faller, t, 1, 0)),
                            Lin(
                                (
                                    Term(1, INT, shape.split_id[(faller, t)]),
                                    Term(-1, INT, shape.split_id[(riser, t)]),
                                ),
                                LE,
                                0,
                            ),
                        )
                    )

    def emit_implied_cuts(self) -> None:
        """Redundant rows that never change satisfiability but let bound
        propagation walk the containment chains directly.

        Goal support: a goal fluent that starts false needs some raiser copy
        in use.  Single-provider windows: when a constrained fluent outside
        the initial conditions has exactly one candidate raiser copy, the
        window geometry pins offsets between the two copies' stage and time
        variables (one-tick insets for equality-bound resources; rises
        strictly inside the provider's span otherwise)."""
        shape, m = self.shape, self.model
        domain = shape.domain

        for fluent in shape.fluent_names:
            if fluent in domain.goal and fluent not in domain.init:
                lits = tuple(
                    Lit(shape.use_id[(ai, k)])
                    for ai in self._raisers[fluent]
                    for k in shape.copies()
                )
                m.add(Clause(lits))

        if shape.copy_cap != 1:
            return
        roles = {f.name: f.role for f in domain.fluents}
        for ai in self._skill_action_indices():
            skill = shape.skill_of(shape.actions[ai])
            for spec in skill.constraints:
                if spec.rel is ConstraintRel.EQUALS or spec.fluent in domain.init:
                    continue
                providers = self._raisers[spec.fluent]
                if len(providers) != 1:
                    continue
                bi = providers[0]
                u = Lit(shape.use_id[(ai, 1)])
                l_a, r_a = shape.left_id[(ai, 1)], shape.right_id[(ai, 1)]
                s_a, e_a = shape.start_id[(ai, 1)], shape.end_id[(ai, 1)]
                l_b, r_b = shape.left_id[(bi, 1)], shape.right_id[(bi, 1)]
                s_b, e_b = shape.start_id[(bi, 1)], shape.end_id[(bi, 1)]
                m.add(Clause((u.negate(), Lit(shape.use_id[(bi, 1)]))))
                m.add(Implies((u,), Lin((Term(1, INT, l_b), Term(-1, INT, l_a)), LE, -1)))
                m.add(Implies((u,), Lin((Term(1, INT, s_b), Term(-1, INT, s_a)), LE, -2)))
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
                    m.add(Implies((u,), Lin((Term(1, INT, r_a), Term(-1, INT, r_b)), LE, -1)))
                    m.add(Implies((u,), Lin((Term(1, INT, e_a), Term(-1, INT, e_b)), LE, -2)))
                else:  # the provider's window must fall strictly inside the span
                    m.add(Implies((u,), Lin((Term(1, INT, r_b), Term(-1, INT, r_a)), LE, 0)))
                    m.add(Implies((u,), Lin((Term(1, INT, l_a), Term(-1, INT, r_b)), LE, -1)))
                    m.add(Implies((u,), Lin((Term(1, INT, e_b), Term(-1, INT, e_a)), LE, 0)))
                    m.add(Implies((u,), Lin((Term(1, INT, s_a), Term(-1, INT, e_b)), LE, -2)))

    # -- objective -----------------------------------------------------------

    def emit_objective(self, kind: str) -> None:
        shape, m = self.shape, self.model
        if kind == "none":
            return
        if kind == "costs":
            scale = cost_scale(shape.domain)
            terms = []
            for ai in self._skill_action_indices():
                coef = int(shape.skill_of(shape.actions[ai]).cost * scale)
                if coef == 0:
                    continue
                for k in shape.copies():
                    terms.append(Term(coef, BOOL, shape.use_id[(ai, k)]))
            m.minimize(terms)
            return
        if kind == "makespan":
            span = m.new_int("makespan", 0, shape.horizon)
            for ai in self._skill_action_indices():
                for k in shape.copies():
                    m.add(
                        Implies(
                            (Lit(shape.use_id[(ai, k)]),),
                            Lin(
                                (
                                    Term(1, INT, shape.end_id[(ai, k)]),
                                    Term(-1, INT, span),
                                ),
                                LE,
                                0,
                            ),
                        )
                    )
            m.minimize((Term(1, INT, span),))
            return
        raise ValueError(f"unknown objective kind {kind!r}; use one of {OBJECTIVE_KINDS}")

    def encode(self, objective: str = "none") -> CspModel:
        self.emit_flow()
        self.emit_action_structure()
        self.emit_tc_constraints()
        self.emit_operational()
        self.emit_frame_and_interference()
        self.emit_implied_cuts()
        self.emit_objective(objective)
        self.model.check_well_formed()
        return self.model


def encode(shape: TheoryShape, objective: str = "none") -> CspModel:
    """Pure function of (shape, objective); see :class:`Encoder`."""
    return Encoder(shape).encode(objective)
