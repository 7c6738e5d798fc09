"""Finite-domain constraint model: Boolean/integer variables, clause and
linear constraints with conjunctive guards and reified conjunctions, plus a
canonical text form that round-trips exactly.

Building a model checks nothing; each rule lives in one place.  Every
consumer runs :meth:`CspModel.check_well_formed` (domains, ids, ops);
:func:`export_model` wants each name to be one whitespace-free token, and
:func:`parse_model` checks each line's tokens (kinds, counts, syntax)."""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

BOOL = "b"
INT = "i"

# ops for integer comparison atoms and linear constraints
LE, GE, EQ = "le", "ge", "eq"


@dataclass(frozen=True)
class Lit:
    """Boolean variable pinned to a value."""

    var: int
    val: bool = True

    def negate(self) -> "Lit":
        return Lit(self.var, not self.val)

    def token(self) -> str:
        return f"{'+' if self.val else '-'}b{self.var}"


@dataclass(frozen=True)
class Cmp:
    """Integer comparison atom: ``var op k`` with op in le/ge/eq."""

    var: int
    op: str
    k: int

    def token(self) -> str:
        sym = {LE: "<=", GE: ">=", EQ: "=="}[self.op]
        return f"i{self.var}{sym}{self.k}"


Atom = Union[Lit, Cmp]


@dataclass(frozen=True)
class Term:
    """One linear term ``coef * var`` where the variable may be Boolean (0/1)."""

    coef: int
    space: str  # BOOL | INT
    var: int

    def token(self) -> str:
        return f"{self.coef}*{self.space}{self.var}"


@dataclass(frozen=True)
class Clause:
    lits: tuple[Lit, ...]


@dataclass(frozen=True)
class Lin:
    """``sum(terms) op const`` with op in le/eq."""

    terms: tuple[Term, ...]
    op: str
    const: int


@dataclass(frozen=True)
class Implies:
    """Conjunctive guard implies a clause or a linear constraint."""

    guard: tuple[Atom, ...]
    body: Union[Clause, Lin]


@dataclass(frozen=True)
class IffConj:
    """Boolean literal reified to a conjunction of atoms."""

    lit: Lit
    atoms: tuple[Atom, ...]


Constraint = Union[Clause, Lin, Implies, IffConj]


class ModelFormatError(ValueError):
    pass


_CMP_OPS = (LE, GE, EQ)
_LIN_OPS = (LE, EQ)


def _check_terms(terms: tuple[Term, ...], nb: int, ni: int) -> None:
    for t in terms:
        if t.space == BOOL:
            if not 0 <= t.var < nb:
                raise ModelFormatError(f"boolean id {t.var} out of range")
        elif t.space == INT:
            if not 0 <= t.var < ni:
                raise ModelFormatError(f"integer id {t.var} out of range")
        else:
            raise ModelFormatError(f"bad variable space {t.space!r}")


_is_name = re.compile(r"\S+").fullmatch


@dataclass
class CspModel:
    bool_names: list[str] = field(default_factory=list)
    int_decls: list[tuple[str, int, int]] = field(default_factory=list)
    constraints: list[Constraint] = field(default_factory=list)
    objective: Optional[tuple[Term, ...]] = None  # always minimized

    # -- construction -----------------------------------------------------

    def new_bool(self, name: str) -> int:
        self.bool_names.append(name)
        return len(self.bool_names) - 1

    def new_int(self, name: str, lo: int, hi: int) -> int:
        self.int_decls.append((name, lo, hi))
        return len(self.int_decls) - 1

    def add(self, constraint: Constraint) -> None:
        self.constraints.append(constraint)

    def minimize(self, terms: Iterable[Term]) -> None:
        self.objective = tuple(terms)

    # -- helpers ----------------------------------------------------------

    @property
    def n_bools(self) -> int:
        return len(self.bool_names)

    @property
    def n_ints(self) -> int:
        return len(self.int_decls)

    def check_well_formed(self, first_row: int = 0) -> None:
        """Reject empty integer domains, dangling variable references and
        malformed pieces in the rows from ``first_row`` on and the objective.

        One flat pass over the rows; the first offending atom or term, in
        row order and left to right within a row, decides the error."""
        for name, lo, hi in self.int_decls:
            if lo > hi:
                raise ModelFormatError(f"empty domain [{lo}, {hi}] for {name!r}")
        nb, ni = len(self.bool_names), len(self.int_decls)
        for con in itertools.islice(self.constraints, first_row, None):
            lin = None
            if isinstance(con, Implies):
                body = con.body
                if isinstance(body, Clause):
                    atom_groups = (con.guard, body.lits)
                else:
                    atom_groups, lin = (con.guard,), body
            elif isinstance(con, Clause):
                atom_groups = (con.lits,)
            elif isinstance(con, Lin):
                atom_groups, lin = (), con
            elif isinstance(con, IffConj):
                atom_groups = ((con.lit,), con.atoms)
            else:
                raise ModelFormatError(f"unknown constraint type {type(con).__name__}")
            for atoms in atom_groups:
                for a in atoms:
                    if isinstance(a, Lit):
                        if not 0 <= a.var < nb:
                            raise ModelFormatError(f"boolean id {a.var} out of range")
                    elif not 0 <= a.var < ni:
                        raise ModelFormatError(f"integer id {a.var} out of range")
                    elif a.op not in _CMP_OPS:
                        raise ModelFormatError(f"bad comparison op {a.op!r}")
            if lin is not None:
                if lin.op not in _LIN_OPS:
                    raise ModelFormatError(f"bad linear op {lin.op!r}")
                _check_terms(lin.terms, nb, ni)
        if self.objective is not None:
            _check_terms(self.objective, nb, ni)


# -- canonical text form ---------------------------------------------------


def _body_tokens(body: Union[Clause, Lin]) -> list[str]:
    if isinstance(body, Clause):
        return ["clause", str(len(body.lits))] + [lit.token() for lit in body.lits]
    toks = ["lin", body.op, str(body.const), str(len(body.terms))]
    toks += [t.token() for t in body.terms]
    return toks


def export_model(m: CspModel) -> str:
    """Serialize to the canonical line format; equal models export to
    byte-identical text.  Each name must be one whitespace-free token."""
    m.check_well_formed()
    for name in itertools.chain(m.bool_names, (decl[0] for decl in m.int_decls)):
        if not _is_name(name):
            raise ModelFormatError(f"variable name {name!r} is not one whitespace-free token")
    lines = ["cspmodel 1"]
    for name in m.bool_names:
        lines.append(f"bool {name}")
    for name, lo, hi in m.int_decls:
        lines.append(f"int {lo} {hi} {name}")
    for con in m.constraints:
        if isinstance(con, (Clause, Lin)):
            lines.append(" ".join(_body_tokens(con)))
        elif isinstance(con, Implies):
            toks = ["imp", str(len(con.guard))] + [a.token() for a in con.guard]
            lines.append(" ".join(toks + _body_tokens(con.body)))
        elif isinstance(con, IffConj):
            toks = ["iff", con.lit.token(), str(len(con.atoms))]
            lines.append(" ".join(toks + [a.token() for a in con.atoms]))
    if m.objective is not None:
        lines.append(
            " ".join(["minimize", str(len(m.objective))] + [t.token() for t in m.objective])
        )
    return "\n".join(lines) + "\n"


_INTEGER = re.compile(r"-?[0-9]+")
_LIT_TOKEN = re.compile(r"([+-])b(-?[0-9]+)")
_CMP_TOKEN = re.compile(r"i(-?[0-9]+)(<=|>=|==)(-?[0-9]+)")
_TERM_TOKEN = re.compile(r"(-?[0-9]+)\*([bi])(-?[0-9]+)")
_CMP_SYMBOLS = {"<=": LE, ">=": GE, "==": EQ}


def _int(token: str) -> int:
    if not _INTEGER.fullmatch(token):
        raise ModelFormatError(f"expected an integer, got {token!r}")
    return int(token)


def _parse_lit(token: str) -> Lit:
    lit = _LIT_TOKEN.fullmatch(token)
    if lit is None:
        raise ModelFormatError(f"expected a boolean literal, got {token!r}")
    return Lit(int(lit[2]), lit[1] == "+")


def _parse_atom(token: str) -> Atom:
    lit = _LIT_TOKEN.fullmatch(token)
    if lit is not None:
        return Lit(int(lit[2]), lit[1] == "+")
    cmp = _CMP_TOKEN.fullmatch(token)
    if cmp is None:
        raise ModelFormatError(f"bad atom token {token!r}")
    return Cmp(int(cmp[1]), _CMP_SYMBOLS[cmp[2]], int(cmp[3]))


def _parse_term(token: str) -> Term:
    term = _TERM_TOKEN.fullmatch(token)
    if term is None:
        raise ModelFormatError(f"bad term token {token!r}")
    return Term(int(term[1]), term[2], int(term[3]))


def _counted(tokens: list[str], i: int, line: str) -> tuple[list[str], list[str]]:
    """Split off the items whose count is declared at ``tokens[i]``; every
    declared item must be present.  Returns (items, the tokens after them)."""
    count = tokens[i] if i < len(tokens) else ""
    if not (count.isascii() and count.isdigit()):
        raise ModelFormatError(f"bad item count {count!r} in {line!r}")
    n = int(count)
    items = tokens[i + 1 : i + 1 + n]
    if len(items) != n:
        raise ModelFormatError(f"line declares {n} items but has {len(items)}: {line!r}")
    return items, tokens[i + 1 + n :]


def _exactly(tokens: list[str], i: int, line: str) -> list[str]:
    """Like :func:`_counted`, for a count that must end the line."""
    items, rest = _counted(tokens, i, line)
    if rest:
        raise ModelFormatError(f"line declares {len(items)} items but has more: {line!r}")
    return items


def _parse_body(tokens: list[str], line: str) -> Union[Clause, Lin]:
    kind = tokens[0] if tokens else None
    if kind == "clause":
        return Clause(tuple(_parse_lit(t) for t in _exactly(tokens, 1, line)))
    if kind == "lin" and len(tokens) >= 3:
        terms = _exactly(tokens, 3, line)
        return Lin(tuple(_parse_term(t) for t in terms), tokens[1], _int(tokens[2]))
    raise ModelFormatError(f"bad constraint body in {line!r}")


def parse_model(text: str) -> CspModel:
    """Parse the canonical text form back into an equal model.  Every
    declared count must match the tokens that follow it; any malformed line
    raises ModelFormatError."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].split() != ["cspmodel", "1"]:
        raise ModelFormatError("missing 'cspmodel 1' header")
    m = CspModel()
    for ln in lines[1:]:
        tokens = ln.split()
        kind = tokens[0]
        if kind == "bool":
            if len(tokens) != 2:
                raise ModelFormatError(f"bad bool line {ln!r}")
            m.new_bool(tokens[1])
        elif kind == "int":
            if len(tokens) != 4:
                raise ModelFormatError(f"bad int line {ln!r}")
            m.new_int(tokens[3], _int(tokens[1]), _int(tokens[2]))
        elif kind in ("clause", "lin"):
            m.add(_parse_body(tokens, ln))
        elif kind == "imp":
            guard, body = _counted(tokens, 1, ln)
            m.add(Implies(tuple(_parse_atom(t) for t in guard), _parse_body(body, ln)))
        elif kind == "iff":
            atoms = _exactly(tokens, 2, ln)
            m.add(IffConj(_parse_lit(tokens[1]), tuple(_parse_atom(t) for t in atoms)))
        elif kind == "minimize":
            if m.objective is not None:
                raise ModelFormatError(f"second objective line {ln!r}")
            m.minimize(_parse_term(t) for t in _exactly(tokens, 1, ln))
        else:
            raise ModelFormatError(f"unknown line kind {kind!r}")
    m.check_well_formed()
    return m
