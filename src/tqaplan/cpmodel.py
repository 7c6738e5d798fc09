"""Finite-domain constraint model: Boolean/integer variables, clause and
linear constraints with conjunctive guards and reified conjunctions, plus a
canonical text form that round-trips exactly.

Atoms, terms and rows are immutable tuples (``NamedTuple``), compared and
hashed by value.  Equal pieces are interchangeable, so each producer builds
one object per distinct atom or term and shares it: the encoder through one
table per kind, :func:`parse_model` through one memo per token role, and
:func:`export_model` formats each distinct atom once.  Two well-formed rows
of different kinds never compare equal: the kinds differ in arity or in
the types of their fields, and comparisons and terms use disjoint codes.

Building a model checks nothing; each rule lives in one place.  Every
consumer runs :meth:`CspModel.check_well_formed` (domains, ids, ops);
:func:`export_model` wants each name to be one whitespace-free token, and
:func:`parse_model` checks each line's tokens (kinds, counts, syntax).

A model is some 100k small objects with no reference cycles, so the cyclic
garbage collector finds nothing in it, yet would walk all of it again and
again while it is built and read.  The five calls that build or walk a
whole model, :func:`~tqaplan.search.find_plan`,
:func:`~tqaplan.solver.solve`, :func:`~tqaplan.encoder.encode`,
:func:`export_model` and :func:`parse_model`, pause the collector
(:func:`acyclic`).  That is safe because these calls create no reference
cycles: reference counting frees all their garbage, as a test checks."""

from __future__ import annotations

import functools
import gc
import itertools
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Optional, Union

BOOL = "b"
INT = "i"

# ops for integer comparison atoms and linear constraints
LE, GE, EQ = "le", "ge", "eq"


class Lit(NamedTuple):
    """Boolean variable pinned to a value."""

    var: int
    val: bool = True

    def negate(self) -> "Lit":
        return Lit(self.var, not self.val)

    def token(self) -> str:
        return f"{'+' if self.val else '-'}b{self.var}"


class Cmp(NamedTuple):
    """Integer comparison atom: ``var op k`` with op in le/ge/eq."""

    var: int
    op: str
    k: int

    def token(self) -> str:
        sym = {LE: "<=", GE: ">=", EQ: "=="}[self.op]
        return f"i{self.var}{sym}{self.k}"


Atom = Union[Lit, Cmp]


class Term(NamedTuple):
    """One linear term ``coef * var`` where the variable may be Boolean (0/1)."""

    coef: int
    space: str  # BOOL | INT
    var: int

    def token(self) -> str:
        return f"{self.coef}*{self.space}{self.var}"


class Clause(NamedTuple):
    lits: tuple[Lit, ...]


class Lin(NamedTuple):
    """``sum(terms) op const`` with op in le/eq."""

    terms: tuple[Term, ...]
    op: str
    const: int


class Implies(NamedTuple):
    """Conjunctive guard implies a clause or a linear constraint."""

    guard: tuple[Atom, ...]
    body: Union[Clause, Lin]


class IffConj(NamedTuple):
    """Boolean literal reified to a conjunction of atoms."""

    lit: Lit
    atoms: tuple[Atom, ...]


Constraint = Union[Clause, Lin, Implies, IffConj]


class ModelFormatError(ValueError):
    pass


def acyclic(fn: Callable) -> Callable:
    """Run ``fn`` with the cyclic garbage collector paused, and switch it
    back on afterwards only if it was on when ``fn`` was called, so nested
    calls, a call that raises and a caller that paused it are all safe.

    For a call that creates no reference cycles: its garbage is freed by
    reference counting alone, and the collector would only walk the live
    model again and again while the call builds or reads it.  The switch
    is process-wide: a thread that switches the collector while such a
    call runs in another thread may find its setting undone."""

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


class Memo(dict):
    """Each distinct key's value, computed once by ``read`` on first use;
    a repeated key costs one lookup and returns the same object."""

    __slots__ = ("read",)

    def __init__(self, read: Callable):
        super().__init__()
        self.read = read

    def __missing__(self, key):
        self[key] = value = self.read(key)
        return value


_CMP_OPS = (LE, GE, EQ)
_LIN_OPS = (LE, EQ)


def _check_terms(terms: tuple[Term, ...], nb: int, ni: int) -> None:
    for _, space, var in terms:
        if space == BOOL:
            if not 0 <= var < nb:
                raise ModelFormatError(f"boolean id {var} out of range")
        elif space == INT:
            if not 0 <= var < ni:
                raise ModelFormatError(f"integer id {var} out of range")
        else:
            raise ModelFormatError(f"bad variable space {space!r}")


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
            kind, lin = type(con), None
            if kind is Implies:
                guard, body = con
                if type(body) is Clause:
                    atom_groups = (guard, body[0])
                else:
                    atom_groups, lin = (guard,), body
            elif kind is Clause:
                atom_groups = con  # the 1-tuple (lits,)
            elif kind is Lin:
                atom_groups, lin = (), con
            elif kind is IffConj:
                lit, atoms = con
                if type(lit) is not Lit:
                    raise ModelFormatError(f"iff row: expected a boolean literal, got {lit!r}")
                atom_groups = ((lit,), atoms)
            else:
                raise ModelFormatError(f"unknown constraint type {kind.__name__}")
            for atoms in atom_groups:
                for a in atoms:
                    if type(a) is Lit:
                        if not 0 <= a[0] < nb:
                            raise ModelFormatError(f"boolean id {a[0]} out of range")
                        continue
                    var, op, _ = a
                    if not 0 <= var < ni:
                        raise ModelFormatError(f"integer id {var} out of range")
                    if op not in _CMP_OPS:
                        raise ModelFormatError(f"bad comparison op {op!r}")
            if lin is not None:
                terms, op, _ = lin
                if op not in _LIN_OPS:
                    raise ModelFormatError(f"bad linear op {op!r}")
                _check_terms(terms, nb, ni)
        if self.objective is not None:
            _check_terms(self.objective, nb, ni)


# -- canonical text form ---------------------------------------------------


@acyclic
def export_model(m: CspModel) -> str:
    """Serialize to the canonical line format; equal models export to
    byte-identical text.  Each name must be one whitespace-free token.
    Each distinct atom or term is formatted once."""
    m.check_well_formed()
    for name in itertools.chain(m.bool_names, (decl[0] for decl in m.int_decls)):
        if not _is_name(name):
            raise ModelFormatError(f"variable name {name!r} is not one whitespace-free token")
    # each distinct atom or term's token once, with the space before it; a
    # well-formed model's literals, comparisons and terms never compare
    # equal across kinds (arity, and the disjoint op and space codes)
    spaced = Memo(lambda atom: " " + atom.token()).__getitem__
    join = "".join

    lines = ["cspmodel 1"]
    lines += [f"bool {name}" for name in m.bool_names]
    lines += [f"int {lo} {hi} {name}" for name, lo, hi in m.int_decls]
    for con in m.constraints:
        kind, line = type(con), ""
        if kind is Implies:
            guard, con = con
            kind, line = type(con), f"imp {len(guard)}{join(map(spaced, guard))} "
        if kind is Clause:
            (lits,) = con
            lines.append(f"{line}clause {len(lits)}{join(map(spaced, lits))}")
        elif kind is Lin:
            terms, op, const = con
            lines.append(f"{line}lin {op} {const} {len(terms)}{join(map(spaced, terms))}")
        else:  # IffConj: check_well_formed let through only the four row types
            lit, atoms = con
            lines.append(f"iff{spaced(lit)} {len(atoms)}{join(map(spaced, atoms))}")
    if m.objective is not None:
        lines.append(f"minimize {len(m.objective)}{join(map(spaced, m.objective))}")
    return "\n".join(lines) + "\n"


_INTEGER = re.compile(r"-?[0-9]+")
_LIT_TOKEN = re.compile(r"([+-])b(-?[0-9]+)")
_CMP_TOKEN = re.compile(r"i(-?[0-9]+)(<=|>=|==)(-?[0-9]+)")
_TERM_TOKEN = re.compile(r"(-?[0-9]+)\*([bi])(-?[0-9]+)")
_CMP_SYMBOLS = {"<=": LE, ">=": GE, "==": EQ}
_SHARED_LIN_OPS = {op: op for op in _LIN_OPS}  # every row read shares these strings


def _read_int(token: str) -> int:
    if not _INTEGER.fullmatch(token):
        raise ModelFormatError(f"expected an integer, got {token!r}")
    return int(token)


def _read_count(token: str) -> int:
    """A declared item count, or -1 for a token that is not one."""
    return int(token) if token.isascii() and token.isdigit() else -1


def _read_lit(token: str) -> Lit:
    lit = _LIT_TOKEN.fullmatch(token)
    if lit is None:
        raise ModelFormatError(f"expected a boolean literal, got {token!r}")
    return Lit(int(lit[2]), lit[1] == "+")


def _read_cmp(token: str) -> Cmp:
    cmp = _CMP_TOKEN.fullmatch(token)
    if cmp is None:
        raise ModelFormatError(f"bad atom token {token!r}")
    return Cmp(int(cmp[1]), _CMP_SYMBOLS[cmp[2]], int(cmp[3]))


def _read_term(token: str) -> Term:
    term = _TERM_TOKEN.fullmatch(token)
    if term is None:
        raise ModelFormatError(f"bad term token {token!r}")
    return Term(int(term[1]), term[2], int(term[3]))


def _count_error(tokens: list[str], i: int, line: str) -> ModelFormatError:
    """Why the item count declared at ``tokens[i]`` does not fit the line."""
    count = tokens[i] if i < len(tokens) else ""
    if _read_count(count) < 0:
        return ModelFormatError(f"bad item count {count!r} in {line!r}")
    n, have = int(count), len(tokens) - i - 1
    if have < n:
        return ModelFormatError(f"line declares {n} items but has {have}: {line!r}")
    return ModelFormatError(f"line declares {n} items but has more: {line!r}")


def _check_last_count(count: Callable, tokens: list[str], i: int, line: str) -> None:
    """The item count declared at ``tokens[i]`` must count every token
    after it."""
    n = count(tokens[i]) if i < len(tokens) else -1
    if n < 0 or len(tokens) != i + 1 + n:
        raise _count_error(tokens, i, line)


@acyclic
def parse_model(text: str) -> CspModel:
    """Parse the canonical text form back into an equal model.  Every
    declared count must match the tokens that follow it; any malformed line
    raises ModelFormatError.

    Each line is split once and its counts checked by length.  Tokens go
    through one memo per role (literal, atom, term, count, integer), so
    each distinct token is read once, strictly, and its occurrences in a
    document are one object; a literal read as an atom is that literal."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].split() != ["cspmodel", "1"]:
        raise ModelFormatError("missing 'cspmodel 1' header")
    lit = Memo(_read_lit).__getitem__
    atom = Memo(lambda token: lit(token) if _LIT_TOKEN.fullmatch(token) else _read_cmp(token))
    atom = atom.__getitem__
    term = Memo(_read_term).__getitem__
    count = Memo(_read_count).__getitem__
    integer = Memo(_read_int).__getitem__
    m = CspModel()
    add = m.constraints.append
    for ln in lines[1:]:
        tokens = ln.split()
        end = len(tokens)
        kind = tokens[0]
        guard, i = None, 0  # the body starts at tokens[i]
        if kind == "imp":
            n = count(tokens[1]) if end > 1 else -1
            i = n + 2
            if n < 0 or i > end:
                raise _count_error(tokens, 1, ln)
            guard = tuple(map(atom, tokens[2:i]))
            kind = tokens[i] if i < end else None
            if kind != "clause" and kind != "lin":
                raise ModelFormatError(f"bad constraint body in {ln!r}")
        if kind == "clause":
            _check_last_count(count, tokens, i + 1, ln)
            body = Clause(tuple(map(lit, tokens[i + 2 :])))
        elif kind == "lin":
            if end < i + 3:
                raise ModelFormatError(f"bad constraint body in {ln!r}")
            _check_last_count(count, tokens, i + 3, ln)
            terms = tuple(map(term, tokens[i + 4 :]))
            op = tokens[i + 1]
            body = Lin(terms, _SHARED_LIN_OPS.get(op, op), integer(tokens[i + 2]))
        elif kind == "iff":
            _check_last_count(count, tokens, 2, ln)
            add(IffConj(lit(tokens[1]), tuple(map(atom, tokens[3:]))))
            continue
        elif kind == "bool":
            if end != 2:
                raise ModelFormatError(f"bad bool line {ln!r}")
            m.new_bool(tokens[1])
            continue
        elif kind == "int":
            if end != 4:
                raise ModelFormatError(f"bad int line {ln!r}")
            m.new_int(tokens[3], integer(tokens[1]), integer(tokens[2]))
            continue
        elif kind == "minimize":
            if m.objective is not None:
                raise ModelFormatError(f"second objective line {ln!r}")
            _check_last_count(count, tokens, 1, ln)
            m.minimize(map(term, tokens[2:]))
            continue
        else:
            raise ModelFormatError(f"unknown line kind {kind!r}")
        add(body if guard is None else Implies(guard, body))
    m.check_well_formed()
    return m
