"""Linear integer arithmetic: terms, formulas, Cooper-style quantifier
elimination, and a decision procedure for closed sentences.

Terms are linear combinations of integer variables with arbitrary-precision
coefficients.  Formulas are built from comparisons, divisibility atoms,
boolean connectives and quantifiers.  Divisibility atoms are produced by
elimination and are accepted on input; the surface language never emits them.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from typing import Iterable, Iterator, Mapping

from .record import Record


# ---------------------------------------------------------------------------
# linear terms


class LinTerm(Record):
    """const + sum(coeff * var); coeffs sorted by var name, zero-free."""

    __slots__ = ("const", "coeffs", "_vars")
    __match_args__ = ("const", "coeffs")

    def __init__(self, const: int,
                 coeffs: tuple[tuple[str, int], ...] = ()) -> None:
        self.const = const
        self.coeffs = coeffs
        self._hash = None
        self._vars = None

    @staticmethod
    def of_const(c: int) -> "LinTerm":
        return LinTerm(c)

    @staticmethod
    def of_var(name: str, coeff: int = 1) -> "LinTerm":
        if coeff == 0:
            return LinTerm(0)
        return LinTerm(0, ((name, coeff),))

    @staticmethod
    def make(const: int, coeffs: Mapping[str, int]) -> "LinTerm":
        items = tuple(sorted([(v, c) for v, c in coeffs.items() if c != 0]))
        return LinTerm(const, items)

    def coeff(self, var: str) -> int:
        for v, c in self.coeffs:
            if v == var:
                return c
        return 0

    @property
    def vars(self) -> tuple[str, ...]:
        vs = self._vars
        if vs is None:
            vs = self._vars = tuple([v for v, _ in self.coeffs])
        return vs

    def is_const(self) -> bool:
        return not self.coeffs

    def add(self, other: "LinTerm") -> "LinTerm":
        return LinTerm(self.const + other.const,
                       _merge(self.coeffs, other.coeffs, 1))

    def neg(self) -> "LinTerm":
        return LinTerm(-self.const, tuple([(v, -c) for v, c in self.coeffs]))

    def sub(self, other: "LinTerm") -> "LinTerm":
        return LinTerm(self.const - other.const,
                       _merge(self.coeffs, other.coeffs, -1))

    def scale(self, k: int) -> "LinTerm":
        if k == 0:
            return LinTerm(0)
        return LinTerm(self.const * k,
                       tuple([(v, c * k) for v, c in self.coeffs]))

    def drop(self, var: str) -> "LinTerm":
        return LinTerm(self.const,
                       tuple([(v, c) for v, c in self.coeffs if v != var]))

    def subst(self, pins: Mapping[str, "LinTerm"]) -> "LinTerm":
        """Replace each variable in pins by its term, in one pass over the
        coefficients; self when no variable of pins occurs."""
        if pins.keys().isdisjoint(self.vars):
            return self
        const = self.const
        d: dict[str, int] = {}
        for v, c in self.coeffs:
            t = pins.get(v)
            if t is None:
                d[v] = d.get(v, 0) + c
                continue
            const += c * t.const
            for u, k in t.coeffs:
                d[u] = d.get(u, 0) + c * k
        return LinTerm.make(const, d)

    def eval(self, env: Mapping[str, int]) -> int:
        """The value under env; a variable absent from env reads as 0."""
        total = self.const
        for v, c in self.coeffs:
            total += c * env.get(v, 0)
        return total

    def __str__(self) -> str:
        parts = []
        for v, c in self.coeffs:
            if c == 1:
                parts.append(v)
            elif c == -1:
                parts.append(f"-{v}")
            else:
                parts.append(f"{c}*{v}")
        if self.const != 0 or not parts:
            parts.append(str(self.const))
        return " + ".join(parts).replace("+ -", "- ")


def _merge(xs: tuple, ys: tuple, k: int) -> tuple:
    """The coefficients of xs + k*ys, for coefficient tuples sorted by
    variable and zero-free: one pass over both, zero sums dropped."""
    if not ys:
        return xs
    if not xs and k == 1:
        return ys
    out = []
    i = j = 0
    nx, ny = len(xs), len(ys)
    while i < nx and j < ny:
        v, c = xs[i]
        u, d = ys[j]
        if v < u:
            out.append(xs[i])
            i += 1
        elif u < v:
            out.append((u, k * d))
            j += 1
        else:
            c += k * d
            if c:
                out.append((v, c))
            i += 1
            j += 1
    out += xs[i:]
    out += ys[j:] if k == 1 else [(u, k * d) for u, d in ys[j:]]
    return tuple(out)


_ONE = LinTerm(1)


# ---------------------------------------------------------------------------
# formulas


class TrueF(Record):
    __slots__ = ()

    def __str__(self) -> str:
        return "true"


class FalseF(Record):
    __slots__ = ()

    def __str__(self) -> str:
        return "false"


TRUE = TrueF()
FALSE = FalseF()

# comparison ops are over "t op 0": each op's test of a value of t, and
# the op of its negation
_HOLDS = {"<": operator.lt, "<=": operator.le, "=": operator.eq,
          "!=": operator.ne, ">=": operator.ge, ">": operator.gt}
_NEG_OP = {"<": ">=", "<=": ">", "=": "!=", "!=": "=", ">=": "<", ">": "<="}


class Cmp(Record):
    __slots__ = __match_args__ = ("op", "t")

    def __init__(self, op: str, t: LinTerm) -> None:
        if op not in _HOLDS:
            raise ValueError(f"bad comparison op {op!r}")
        self.op = op
        self.t = t
        self._hash = None

    def __str__(self) -> str:
        return f"({self.t} {self.op} 0)"


class Div(Record):
    """d | t (or its negation when neg is set)."""

    __slots__ = __match_args__ = ("d", "t", "neg")

    def __init__(self, d: int, t: LinTerm, neg: bool = False) -> None:
        self.d = d
        self.t = t
        self.neg = neg
        self._hash = None

    def __str__(self) -> str:
        bar = "∤" if self.neg else "|"
        return f"({self.d} {bar} {self.t})"


class Not(Record):
    __slots__ = __match_args__ = ("f",)

    def __str__(self) -> str:
        return f"(not {self.f})"


class _Connective(Record):
    __slots__ = __match_args__ = ("args",)


class And(_Connective):
    __slots__ = ()

    def __str__(self) -> str:
        return "(and " + " ".join(map(str, self.args)) + ")"


class Or(_Connective):
    __slots__ = ()

    def __str__(self) -> str:
        return "(or " + " ".join(map(str, self.args)) + ")"


class Exists(Record):
    __slots__ = __match_args__ = ("var", "body")

    def __str__(self) -> str:
        return f"(exists ({self.var}) {self.body})"


class Forall(Record):
    __slots__ = __match_args__ = ("var", "body")

    def __str__(self) -> str:
        return f"(forall ({self.var}) {self.body})"


Formula = TrueF | FalseF | Cmp | Div | Not | And | Or | Exists | Forall


# constructors with on-the-fly simplification -------------------------------


def cmp_atom(op: str, t: LinTerm) -> Formula:
    """'t op 0' in the one literal form: TRUE/FALSE once t is constant,
    else a '<=', '=' or '!=' literal over a term whose coefficients have
    gcd 1, the constraint form of the Omega test (Pugh, CACM 1992)."""
    if t.is_const():
        return TRUE if _HOLDS[op](t.const, 0) else FALSE
    if op == ">" or op == ">=":  # -t < 0, -t <= 0
        op, t = ("<" if op == ">" else "<="), t.neg()
    if op == "<":  # t + 1 <= 0
        op, t = "<=", LinTerm(t.const + 1, t.coeffs)
    g = math.gcd(*[c for _, c in t.coeffs])
    if g > 1:
        # t = g*u + c: g*u + c <= 0 iff u + ceil(c/g) <= 0; '=' needs g | c
        c = t.const
        if op != "<=" and c % g:
            return TRUE if op == "!=" else FALSE
        t = LinTerm(-(-c // g), tuple([(v, k // g) for v, k in t.coeffs]))
    return Cmp(op, t)


def le(a: LinTerm, b: LinTerm) -> Formula:
    return cmp_atom("<=", a.sub(b))


def lt(a: LinTerm, b: LinTerm) -> Formula:
    return cmp_atom("<", a.sub(b))


def eq(a: LinTerm, b: LinTerm) -> Formula:
    return cmp_atom("=", a.sub(b))


def ne(a: LinTerm, b: LinTerm) -> Formula:
    return cmp_atom("!=", a.sub(b))


def ge(a: LinTerm, b: LinTerm) -> Formula:
    return cmp_atom(">=", a.sub(b))


def gt(a: LinTerm, b: LinTerm) -> Formula:
    return cmp_atom(">", a.sub(b))


def div_atom(d: int, t: LinTerm, neg: bool = False) -> Formula:
    d = abs(d)
    if d == 0:
        raise ValueError("divisibility by zero")
    if d == 1:
        return FALSE if neg else TRUE
    if t.is_const():
        holds = t.const % d == 0
        return (TRUE if holds else FALSE) if not neg else (FALSE if holds else TRUE)
    return Div(d, t, neg)


def _connective(kind: type[_Connective], unit: Formula, zero: Formula,
                args: Iterable[Formula]) -> Formula:
    """The kind (And or Or) of args: an argument of that kind reads as its
    own arguments, the unit is dropped and each argument is kept once, in
    the order first read.  zero, the absorbing element, is returned as soon
    as it is read, so args is not advanced past it."""
    out: dict[Formula, None] = {}
    unit_t, zero_t = type(unit), type(zero)
    for a in args:
        for x in a.args if isinstance(a, kind) else (a,):
            if isinstance(x, zero_t):
                return zero
            if not isinstance(x, unit_t):
                out.setdefault(x)
    if len(out) == 1:
        return next(iter(out))
    return kind(tuple(out)) if out else unit


def conj(args: Iterable[Formula]) -> Formula:
    return _connective(And, TRUE, FALSE, args)


def disj(args: Iterable[Formula]) -> Formula:
    return _connective(Or, FALSE, TRUE, args)


def neg_f(f: Formula) -> Formula:
    if isinstance(f, TrueF):
        return FALSE
    if isinstance(f, FalseF):
        return TRUE
    if isinstance(f, Not):
        return f.f
    return Not(f)


def implies(a: Formula, b: Formula) -> Formula:
    return disj([neg_f(a), b])


# ---------------------------------------------------------------------------
# free variables, substitution, evaluation


def free_vars(f: Formula) -> frozenset[str]:
    match f:
        case TrueF() | FalseF():
            return frozenset()
        case Cmp(_, t) | Div(_, t, _):
            return frozenset(t.vars)
        case Not(g):
            return free_vars(g)
        case And(args) | Or(args):
            s: frozenset[str] = frozenset()
            for a in args:
                s |= free_vars(a)
            return s
        case Exists(v, b) | Forall(v, b):
            return free_vars(b) - {v}
    raise TypeError(f)


def subst(f: Formula, pins: Mapping[str, LinTerm]) -> Formula:
    """f with each free variable in pins replaced by its term; f itself
    when none of them occurs."""
    match f:
        case TrueF() | FalseF():
            return f
        case Cmp(op, u):
            t = u.subst(pins)
            return f if t is u else cmp_atom(op, t)
        case Div(d, u, neg):
            t = u.subst(pins)
            return f if t is u else div_atom(d, t, neg)
        case Not(g):
            h = subst(g, pins)
            return f if h is g else neg_f(h)
        case And(args) | Or(args):
            new = [subst(a, pins) for a in args]
            if all(x is a for x, a in zip(new, args)):
                return f
            return conj(new) if type(f) is And else disj(new)
        case Exists(v, b) | Forall(v, b):
            inner = {k: t for k, t in pins.items() if k != v}
            if any(v in t.vars for t in inner.values()):
                raise ValueError("substitution would capture bound variable")
            return type(f)(v, subst(b, inner))
    raise TypeError(f)


def evaluate(f: Formula, env: Mapping[str, int]) -> bool:
    """Evaluate a quantifier-free formula; a variable absent from env reads
    as 0, as in every witness the solver returns."""
    match f:
        case TrueF():
            return True
        case FalseF():
            return False
        case Cmp(op, t):
            return _HOLDS[op](t.eval(env), 0)
        case Div(d, t, neg):
            holds = t.eval(env) % d == 0
            return not holds if neg else holds
        case Not(g):
            return not evaluate(g, env)
        case And(args):
            return all(evaluate(a, env) for a in args)
        case Or(args):
            return any(evaluate(a, env) for a in args)
    raise ValueError(f"quantifier in evaluate: {f}")


# ---------------------------------------------------------------------------
# negation normal form with strict-< literals, the form Cooper elimination
# reads (the solve paths keep cmp_atom's form)


def _lt(t: LinTerm) -> Formula:
    """'t < 0' as a strict literal over a gcd-1 term, or TRUE/FALSE."""
    f = cmp_atom("<", t)
    return Cmp("<", f.t.sub(_ONE)) if type(f) is Cmp else f


def _nnf(f: Formula, neg: bool) -> Formula:
    match f:
        case TrueF():
            return FALSE if neg else TRUE
        case FalseF():
            return TRUE if neg else FALSE
        case Not(g):
            return _nnf(g, not neg)
        case And(args):
            if neg:
                return disj(_nnf(a, True) for a in args)
            return conj(_nnf(a, False) for a in args)
        case Or(args):
            if neg:
                return conj(_nnf(a, True) for a in args)
            return disj(_nnf(a, False) for a in args)
        case Div(d, t, n):
            return div_atom(d, t, n != neg)
        case Cmp(op, t):
            if neg:
                op = _NEG_OP[op]
            match op:
                case "<":
                    return _lt(t)
                case "<=":
                    return _lt(t.sub(_ONE))  # t <= 0  <=>  t - 1 < 0
                case "=":
                    return conj([_lt(t.sub(_ONE)), _lt(t.neg().sub(_ONE))])
                case "!=":
                    return disj([_lt(t), _lt(t.neg())])
                case ">=":
                    return _lt(t.neg().sub(_ONE))
                case ">":
                    return _lt(t.neg())
        case Exists(v, b):
            if neg:
                return Forall(v, _nnf(b, True))
            return Exists(v, _nnf(b, False))
        case Forall(v, b):
            if neg:
                return Exists(v, _nnf(b, True))
            return Forall(v, _nnf(b, False))
    raise TypeError(f)


def nnf(f: Formula) -> Formula:
    return _nnf(f, False)


# ---------------------------------------------------------------------------
# Cooper elimination


def _atoms_with(f: Formula, var: str) -> list[Formula]:
    out: list[Formula] = []

    def walk(g: Formula) -> None:
        match g:
            case Cmp(_, t) | Div(_, t, _):
                if t.coeff(var) != 0:
                    out.append(g)
            case And(args) | Or(args):
                for a in args:
                    walk(a)
            case _:
                pass

    walk(f)
    return out


def _map_atoms(f: Formula, fn) -> Formula:
    match f:
        case And(args):
            return conj(_map_atoms(a, fn) for a in args)
        case Or(args):
            return disj(_map_atoms(a, fn) for a in args)
        case _:
            return fn(f)


def _cooper(var: str, f: Formula) -> Formula:
    """Eliminate (exists var . f) for f quantifier-free in NNF with strict-<
    comparison literals and (possibly negated) divisibility literals."""
    atoms = _atoms_with(f, var)
    if not atoms:
        return f

    delta = 1
    for a in atoms:
        t = a.t  # type: ignore[union-attr]
        delta = math.lcm(delta, t.coeff(var))

    # Rescale every literal so the variable's coefficient is +-delta, then
    # read it through x' = delta * var.  Literal shapes after rescaling:
    #   ('ub', s): x' + s < 0      ('lb', s): s < x'      ('div', d, s, neg): d | x' + s
    def rescale(g: Formula):
        match g:
            case Cmp(op, t):
                c = t.coeff(var)
                if c == 0:
                    return g
                assert op == "<", f"non-strict literal reached cooper: {g}"
                m = delta // abs(c)
                t2 = t.scale(m)
                rest = t2.drop(var)
                if c > 0:
                    return ("ub", rest)
                return ("lb", rest)
            case Div(d, t, neg):
                c = t.coeff(var)
                if c == 0:
                    return g
                m = delta // abs(c)
                t2 = t.scale(m)
                rest = t2.drop(var)
                if c < 0:
                    rest = rest.neg()  # d | -x' + s  <=>  d | x' - s
                return ("div", d * m, rest, neg)
        return g

    lbs: list[LinTerm] = []
    ubs: list[LinTerm] = []
    bigd = delta
    for a in atoms:
        r = rescale(a)
        if isinstance(r, tuple):
            if r[0] == "lb":
                lbs.append(r[1])
            elif r[0] == "ub":
                ubs.append(r[1])
            else:
                bigd = math.lcm(bigd, r[1])

    # Build substituted instances directly: given a LinTerm x_t for x',
    # rebuild each literal from its rescaled shape.  At -infinity (inf < 0)
    # every upper bound holds and every lower bound fails; at +infinity
    # (inf > 0) the other way round.
    def build(x_t: LinTerm, inf: int) -> Formula:
        def fn(g: Formula) -> Formula:
            r = rescale(g)
            if not isinstance(r, tuple):
                return r  # atom without var
            if r[0] == "div":
                return div_atom(r[1], x_t.add(r[2]), r[3])
            if inf:
                return TRUE if (r[0] == "ub") == (inf < 0) else FALSE
            if r[0] == "ub":
                return _lt(x_t.add(r[1]))
            return _lt(r[1].sub(x_t))

        return _map_atoms(f, fn)

    # Every candidate x' must also satisfy delta | x' (from x' = delta * x).
    if len(lbs) <= len(ubs):
        cands = [(LinTerm.of_const(j), -1) for j in range(1, bigd + 1)] + [
            (b.add(LinTerm.of_const(j)), 0) for b in lbs for j in range(1, bigd + 1)
        ]
    else:
        # mirror form: sample below each upper bound and at +infinity.
        # x' + s < 0 gives upper bound x' < -s; sample x' = -s - j.
        cands = [(LinTerm.of_const(-j), 1) for j in range(1, bigd + 1)] + [
            (s.neg().sub(LinTerm.of_const(j)), 0) for s in ubs for j in range(1, bigd + 1)
        ]
    return disj(conj([div_atom(delta, x_t), build(x_t, inf)])
                for x_t, inf in cands)


def _relativize(f: Formula, nat_vars: frozenset[str]) -> Formula:
    """Constrain quantifiers over naturals to non-negative values."""
    zero = LinTerm.of_const(0)
    match f:
        case Exists(v, b):
            b2 = _relativize(b, nat_vars)
            if v in nat_vars:
                return Exists(v, conj([ge(LinTerm.of_var(v), zero), b2]))
            return Exists(v, b2)
        case Forall(v, b):
            b2 = _relativize(b, nat_vars)
            if v in nat_vars:
                return Forall(v, implies(ge(LinTerm.of_var(v), zero), b2))
            return Forall(v, b2)
        case Not(g):
            return neg_f(_relativize(g, nat_vars))
        case And(args):
            return conj(_relativize(a, nat_vars) for a in args)
        case Or(args):
            return disj(_relativize(a, nat_vars) for a in args)
        case _:
            return f


def eliminate(f: Formula, nat_vars: Iterable[str] = ()) -> Formula:
    """Return an equivalent quantifier-free formula (may contain Div atoms).

    Variables listed in nat_vars range over the naturals wherever quantified;
    free occurrences are left unconstrained (callers add their own bounds).
    """
    f = _relativize(f, frozenset(nat_vars))

    def go(g: Formula) -> Formula:
        match g:
            case Exists(v, b):
                return _cooper(v, nnf(go(b)))
            case Forall(v, b):
                return neg_f(_cooper(v, _nnf(go(b), True)))
            case Not(h):
                return neg_f(go(h))
            case And(args):
                return conj(go(a) for a in args)
            case Or(args):
                return disj(go(a) for a in args)
            case _:
                return g

    return go(f)


def decide(f: Formula, nat_vars: Iterable[str] = ()) -> bool:
    """Decide a closed sentence."""
    if free_vars(f):
        raise ValueError(f"decide requires a sentence; free: {sorted(free_vars(f))}")
    g = eliminate(f, nat_vars)
    return evaluate(nnf(g), {})


# ---------------------------------------------------------------------------
# fast path: satisfiability of a single existential block
#
# The solver's hot queries are "exists xs . matrix" with no quantifier
# alternation.  The walk reads the formulas the library builds: TRUE,
# FALSE, a Cmp in cmp_atom's form, a Div (div_atom), And and Or; callers
# write every negation positively, and a raw '<' would be read as '<='.
# We lazily expand the matrix into conjunctive branches (a '!=' is a
# disjunction of '<' and '>' there) and decide each branch by
# unit-equality substitution and Cooper-style elimination one variable at
# a time with early exit.  One node step,
# _child, builds every node of this search: the walk's root, each branch
# alternative, each elimination candidate and residue, and each child of
# a branch (branch_child, which sat_branch probes).  It takes the
# admitted literals the node adds, refutes the node outright when one of
# them has no solution in its parent's box (most dead alternatives end
# there, before any copy), and otherwise narrows a copy of the parent's
# bounds (_narrow) with only those, so a refuted node is neither expanded
# nor decided.  The walk splits each pending disjunction into admitted
# alternatives once, and its nodes share that split.
# Every solve path of the library goes through here; a query over a
# projection leaves the projected variables free.  Cooper `eliminate` and
# `decide` above are the reference the tests check this path against.


def _lits_of(f: Formula, acc: list, pending: list) -> bool:
    """Split f into atomic literals (acc) and non-atomic parts (pending),
    reading each 't != 0' as the pending disjunction of cmp_atom's 't < 0'
    and 't > 0'.  f is TRUE, FALSE, a Cmp in cmp_atom's form, a Div, or an
    And or Or of these.  Returns False if f is trivially unsatisfiable."""
    match f:
        case TrueF():
            return True
        case FalseF():
            return False
        case Cmp():
            if f.op == "!=":
                pending.append(Or((cmp_atom("<", f.t), cmp_atom(">", f.t))))
            else:
                acc.append(f)
            return True
        case Div():
            acc.append(f)
            return True
        case And(args):
            for a in args:
                if not _lits_of(a, acc, pending):
                    return False
            return True
        case Or():
            pending.append(f)
            return True
    raise ValueError("branch expansion reads TRUE, FALSE, cmp_atom and "
                     f"div_atom literals, And and Or; got {f}")


# visits per row in one _narrow call: a row whose bounds keep moving
# (x <= y - 1 and y <= x - 1 over a wide box) is visited no more often
_NARROW_VISITS = 40
# the search nodes _child has built: driver.solve's unit of effort
nodes = 0


def _narrow(rows: list, lo: dict[str, int], hi: dict[str, int],
            todo: Iterable[int]) -> bool:
    """Interval propagation over the '<=' and '=' literals among rows (the
    Div literals are skipped; rows hold no '!='), in the manner of AC-3
    (Mackworth, AIJ 8, 1977).
    lo and hi map variables to integer bounds that rows imply (a variable
    absent is unbounded); they are tightened in place.  The rows at the
    indices in todo are visited first, then, first in first out, every row
    that mentions a variable whose bound moved, each row at most
    _NARROW_VISITS times.  Returns False when an interval empties, so rows
    have no integer solution; True when inconclusive.

    A row over one variable is a bound whatever the other bounds are: its
    visit from todo applies it for good, and no moved bound re-queues it.

    From scratch, todo is every row and the bounds start empty.  A branch
    that adds rows to a parent starts from a copy of the parent's bounds
    and is seeded with the added rows only: the parent's bounds hold on
    every solution of the branch, so what the visits derive from them does
    too.  _child calls it only for a node that the parent's box alone does
    not refute (_box_refutes)."""
    queue = deque(todo)
    queued = set(queue)
    visits = [0] * len(rows)
    occ: dict[str, list[int]] | None = None  # var -> rows of 2+ variables

    def moved(v: str) -> None:
        nonlocal occ
        if occ is None:
            occ = {}
            for j, g in enumerate(rows):
                if type(g) is Cmp and len(g.t.coeffs) > 1:
                    for u, _ in g.t.coeffs:
                        occ.setdefault(u, []).append(j)
        for j in occ.get(v, ()):
            if j not in queued:
                queued.add(j)
                queue.append(j)

    def upper(v: str, b: int) -> bool:  # b below hi[v]; False once empty
        hi[v] = b
        if v in lo and lo[v] > b:
            return False
        moved(v)
        return True

    def lower(v: str, b: int) -> bool:  # b above lo[v]; False once empty
        lo[v] = b
        if v in hi and hi[v] < b:
            return False
        moved(v)
        return True

    while queue:
        i = queue.popleft()
        queued.discard(i)
        f = rows[i]
        if type(f) is not Cmp or visits[i] == _NARROW_VISITS:
            continue
        visits[i] += 1
        # interval of the whole term: finite partial sums plus a count of
        # unbounded contributions, so excluding one variable is O(1)
        bounds = []
        lo_sum = hi_sum = f.t.const
        lo_none = hi_none = 0
        for v, c in f.t.coeffs:
            vl, vh = (lo.get(v), hi.get(v)) if c > 0 else \
                (hi.get(v), lo.get(v))
            bounds.append((v, c, vl, vh))
            if vl is None:
                lo_none += 1
            else:
                lo_sum += c * vl
            if vh is None:
                hi_none += 1
            else:
                hi_sum += c * vh
        iseq = f.op == "="
        for v, c, vl, vh in bounds:
            # literal: c*v + rest <= 0 (or = 0)
            if lo_none == (vl is None):
                tlo = lo_sum if vl is None else lo_sum - c * vl
                # c*v <= -rest <= -tlo
                if c > 0:
                    b = -tlo // c
                    if (vh is None or b < vh) and not upper(v, b):
                        return False
                else:
                    b = -(-tlo // -c)
                    if (vh is None or b > vh) and not lower(v, b):
                        return False
            if iseq and hi_none == (vh is None):
                thi = hi_sum if vh is None else hi_sum - c * vh
                # c*v = -rest >= -thi
                if c > 0:
                    b = -(thi // c)
                    if (vl is None or b > vl) and not lower(v, b):
                        return False
                else:
                    b = thi // -c
                    if (vl is None or b < vl) and not upper(v, b):
                        return False
    return True


def _child(lits: list, rows: list | None, lo: dict[str, int],
           hi: dict[str, int]) -> tuple[list, dict, dict] | None:
    """The one step that builds a search node (the walk's root, a DNF
    alternative, an elimination candidate or residue, a branch probe):
    rows, admitted (_admit), appended to the parent's lits, and a copy of
    the parent's bounds lo/hi narrowed (_narrow) with only the added rows.
    None when rows is None (they folded to false), when one of them has no
    solution in the parent's box (_box_refutes, before anything is copied)
    or when an interval empties; the parent's own lits and bounds when
    rows is empty (nothing writes to a node's lits or bounds but _narrow,
    here on copies)."""
    global nodes
    nodes += 1
    if not rows:
        return None if rows is None else (lits, lo, hi)
    if _box_refutes(rows, lo, hi):
        return None
    child, clo, chi = lits + rows, dict(lo), dict(hi)
    if not _narrow(child, clo, chi, range(len(lits), len(child))):
        return None
    return child, clo, chi


def _box_refutes(rows: list, lo: dict[str, int], hi: dict[str, int]) -> bool:
    """Some '<=' or '=' literal of rows has no solution in the box lo/hi:
    the range of its term there excludes 0 (the least value is above 0,
    or, for '=', the greatest is below 0).  _narrow's visit of that row,
    from these bounds or tighter ones, empties an interval."""
    for f in rows:
        if type(f) is Cmp:
            least = _term_min(f.t, lo, hi)
            if least is not None and least > 0:
                return True
            if f.op == "=":
                most = _term_min(f.t, hi, lo)
                if most is not None and most < 0:
                    return True
    return False


def _term_min(t: LinTerm, lo: dict[str, int],
              hi: dict[str, int]) -> int | None:
    """The least value of t over the box lo/hi (its greatest with lo and
    hi swapped); None when it is unbounded."""
    total = t.const
    for v, c in t.coeffs:
        b = (lo if c > 0 else hi).get(v)
        if b is None:
            return None
        total += c * b
    return total


def _sat_lits(lits: list, lo: dict[str, int],
              hi: dict[str, int]) -> dict[str, int] | None:
    """Satisfying assignment for a search node (_child): literals in
    cmp_atom's form without '!=', and the bounds _narrow found for them.
    None when there is none; variables absent from the result are free,
    read them as 0.  Unit equalities are pinned first (_pin_units); the
    bounds still hold on the variables that remain."""
    pins: dict[str, LinTerm] = {}
    lits = _pin_units([], pins, lits)
    if lits is None:
        return None
    w = _sat_reduced(lits, lo, hi)
    if w is not None:
        for v, t in pins.items():
            w[v] = t.eval(w)
    return w


def _sat_reduced(lits: list, lo: dict[str, int],
                 hi: dict[str, int]) -> dict[str, int] | None:
    """_sat_lits of a node without a unit equality: Cooper-style
    elimination of the cheapest variable, trying its candidate values (or
    its residues, when it is unbounded in one direction) with early exit.
    Each is a child node (_child) of the literals without the variable, so
    it narrows the node's bounds with only the literals it adds; a
    solution of the child extends to one of the node, on which the bounds
    hold."""
    # per-variable elimination cost, in one pass over the literals
    stats: dict[str, list] = {}  # var -> [delta, nlb, nub, ndiv, has_eq]
    for f in lits:
        isdiv = isinstance(f, Div)
        for v, c in f.t.coeffs:
            st = stats.get(v)
            if st is None:
                st = stats[v] = [1, 0, 0, 0, False]
            if c != 1 and c != -1:
                st[0] = math.lcm(st[0], c)
            if isdiv:
                st[3] += 1
            elif f.op == "=":
                st[4] = True
            elif c > 0:
                st[2] += 1
            else:
                st[1] += 1
    if not stats:
        return {}

    def cost(v: str) -> tuple:
        d, nlb, nub, ndiv, has_eq = stats[v]
        if has_eq:
            return (0, 0, v)
        return (1, d * (min(nlb, nub) + 1) + ndiv, v)

    var = min(stats, key=cost)
    delta = stats[var][0]

    # rescale literals so the coefficient is +-delta; x' = delta * var
    eq_terms: list[LinTerm] = []
    lb_terms: list[LinTerm] = []   # x' >= s
    ub_terms: list[LinTerm] = []   # x' <= s
    divs: list[tuple[int, LinTerm, bool]] = []  # d | x' + s
    others: list = []
    for f in lits:
        c = f.t.coeff(var)
        if c == 0:
            others.append(f)
            continue
        m = delta // abs(c)
        t2 = f.t.scale(m)
        rest = t2.drop(var)
        if isinstance(f, Div):
            if c < 0:
                rest = rest.neg()
            divs.append((f.d * m, rest, f.neg))
        elif f.op == "=":
            eq_terms.append(rest.neg() if c > 0 else rest)
        elif c > 0:
            ub_terms.append(rest.neg())  # x' + rest <= 0
        else:
            lb_terms.append(rest)  # -x' + rest <= 0  =>  x' >= rest

    bigd = delta
    for d, _, _ in divs:
        bigd = math.lcm(bigd, d)

    def try_candidate(x_t: LinTerm) -> dict[str, int] | None:
        new: list = [div_atom(delta, x_t)]
        for s in eq_terms:
            new.append(cmp_atom("=", x_t.sub(s)))
        for s in ub_terms:
            new.append(cmp_atom("<=", x_t.sub(s)))
        for s in lb_terms:
            new.append(cmp_atom("<=", s.sub(x_t)))
        for d, s, ng in divs:
            new.append(div_atom(d, x_t.add(s), ng))
        node = _child(others, _admit(new), lo, hi)
        w = None if node is None else _sat_lits(*node)
        if w is not None:
            w[var] = x_t.eval(w) // delta  # exact: delta | x_t was added
        return w

    if eq_terms:
        return try_candidate(eq_terms[0])
    if not lb_terms or not ub_terms:
        # x' = delta*var is unbounded in one direction: every lb/ub literal
        # holds far enough out, only residues mod bigd matter
        for j in range(0, bigd, delta):
            node = _child(others, _admit([
                div_atom(d, s.add(LinTerm.of_const(j)), ng)
                for d, s, ng in divs]), lo, hi)
            w = None if node is None else _sat_lits(*node)
            if w is None:
                continue
            if lb_terms:
                base = max(b.eval(w) for b in lb_terms)
                xp = base + ((j - base) % bigd)
            elif ub_terms:
                top = min(a.eval(w) for a in ub_terms)
                xp = top - ((top - j) % bigd)
            else:
                xp = j
            w[var] = xp // delta
            return w
        return None
    side = lb_terms if len(lb_terms) <= len(ub_terms) else ub_terms
    sign = 1 if side is lb_terms else -1
    for b in side:
        for j in range(bigd):
            w = try_candidate(b.add(LinTerm.of_const(sign * j)))
            if w is not None:
                return w
    return None


def _pin_units(lits: list, pins: dict[str, LinTerm],
               reduced: list) -> list | None:
    """Fold the pins already recorded into the literals and normalise them
    (_admit), after the reduced literals, which are normalised and mention
    no pinned variable; then eliminate every variable pinned by a
    unit-coefficient equality: substitute its solution into the literals
    that mention it, each of them back through _admit, and record
    var -> term in pins (updated in place; entries are kept reduced, so no
    pinned variable occurs in a value).  The result, read with pins, is
    equivalent to the input over the remaining variables; None when it
    folds to false."""
    lits = _admit(lits, pins)
    if lits is None:
        return None
    lits = reduced + lits
    while True:
        pin = None
        for idx, f in enumerate(lits):
            if type(f) is Cmp and f.op == "=":
                for v, c in f.t.coeffs:
                    if c == 1 or c == -1:
                        rest = f.t.drop(v)
                        pin = (idx, v, rest.neg() if c == 1 else rest)
                        break
                if pin:
                    break
        if pin is None:
            return lits
        idx, v, t = pin
        del lits[idx]
        one = {v: t}
        out: list = []
        for f in lits:
            if v not in _vars(f):
                out.append(f)
                continue
            new = _admit([f], one)
            if new is None:
                return None
            out += new
        lits = out
        for k, tv in pins.items():
            if v in tv.vars:
                pins[k] = tv.subst(one)
        pins[v] = t


def reduce_conj(fs: Iterable[Formula], pins: dict[str, LinTerm],
                residual: list) -> list | None:
    """Conjoin fs onto a reduced system: pins and the residual an earlier
    call returned with them (or {} and []).  fs is flattened, the pins are
    folded into it, and every variable pinned by a unit-coefficient
    equality is eliminated (_pin_units) and recorded var -> term in pins.
    Every comparison of the result is a '<=', '=' or '!=' literal, and each
    literal occurs once: a new one that repeats a residual literal, or
    that a pin makes equal to another, is dropped.  Returns None when the
    conjunction folds to false."""
    lits: list = []
    stack = list(fs)
    while stack:
        f = stack.pop()
        if isinstance(f, And):
            stack.extend(f.args)
        else:
            lits.append(f)
    # both lists last to first: the order decides which unit equality goes
    # first, and so the pins and witnesses the search sees
    out = _pin_units(lits, pins, residual[::-1])
    return None if out is None else list(dict.fromkeys(out))


def _vars(f: Formula) -> Iterable[str]:
    return f.t.vars if type(f) is Cmp or type(f) is Div else free_vars(f)


def _admit(lits: list, pins: Mapping[str, LinTerm] | None = None) -> list | None:
    """Normalise literals once, as they join a branch or are substituted
    into: pins folded into each one that mentions a pinned variable (a
    conjunction this yields is split), in order, TRUE dropped; None when
    one is FALSE."""
    out = []
    for f in lits:
        if pins and not pins.keys().isdisjoint(_vars(f)):
            f = subst(f, pins)
            if type(f) is And:
                new = _admit(f.args)
                if new is None:
                    return None
                out += new
                continue
        if f is FALSE:
            return None
        if f is not TRUE:
            out.append(f)
    return out


def _leaves(lits: list, lo: dict[str, int], hi: dict[str, int],
            pends: list, splits: dict) -> Iterator[tuple[list, dict, dict]]:
    """The DNF leaves below a node (_child) and its pending disjunctions,
    in branch order, as nodes.  Each alternative of the pending
    disjunction with the fewest is a child node; a child whose bounds
    empty is neither expanded nor yielded.  splits is the walk's memo
    (branches): each disjunction maps to its alternatives, split by _lits_of
    into admitted rows and pending disjunctions, less those that split to
    false; so a disjunction is split once per walk, not once per node."""
    if not pends:
        yield lits, lo, hi
        return
    i = min(range(len(pends)), key=lambda j: len(pends[j].args))
    rest, split = pends[:i] + pends[i + 1:], pends[i]
    alts = splits.get(split)
    if alts is None:
        alts = splits[split] = []
        for alt in split.args:
            new: list = []
            sub: list = []
            if _lits_of(alt, new, sub):
                alts.append((_admit(new), sub))
    for rows, sub in alts:
        node = _child(lits, rows, lo, hi)
        if node is not None:
            yield from _leaves(*node, rest + sub, splits)


def branches(matrices: list[Formula]) -> Iterator[tuple[list, dict, dict]]:
    """The conjunctive branches of a conjunction of quantifier-free
    formulas, as the walk's leaf nodes (_leaves) below the root node, a
    child of [] and empty bounds: lists of '<=', '=' and Div literals in
    cmp_atom's form whose disjunction is equivalent to it, less branches
    that interval propagation refutes, each with the bounds lo/hi that
    _narrow found for it.  The memo of split disjunctions that _leaves
    shares lives for this walk only."""
    acc: list = []
    pend: list = []
    for f in matrices:
        if not _lits_of(f, acc, pend):
            return
    root = _child([], _admit(acc), {}, {})
    if root is not None:
        yield from _leaves(*root, pend, {})


def branch_child(node: tuple[list, dict, dict],
                 rows: list[Formula]) -> tuple[list, dict, dict] | None:
    """The child node (_child) of a branch node (branches) that conjoins
    rows, literals in cmp_atom's form without '!=', admitted (_admit): the
    node's literals and bounds are neither re-admitted nor re-narrowed.
    None when the rows fold to false or the child's bounds empty."""
    lits, lo, hi = node
    return _child(lits, _admit(rows), lo, hi)


def sat_branch(node: tuple[list, dict, dict],
               rows: list[Formula]) -> dict[str, int] | None:
    """Satisfying assignment for a branch node (branches) conjoined with
    rows (absent variables read as 0), or None: _sat_lits of its
    branch_child.  A fresh sat_exists_all of the same literals gives the
    same assignment, but re-admits and re-narrows the node's literals."""
    child = branch_child(node, rows)
    return None if child is None else _sat_lits(*child)


def sat_exists_all(matrices: list[Formula]) -> dict[str, int] | None:
    """Satisfying assignment for a conjunction of quantifier-free formulas
    (variables absent from the result are free; read them as 0), or None:
    the assignment _sat_lits gives the first satisfiable branch."""
    for node in branches(matrices):
        w = _sat_lits(*node)
        if w is not None:
            return w
    return None


def recession_cone(leaf: list) -> list:
    """The homogeneous system of a branch's literals (branches): every
    comparison with its constant dropped, Div literals dropped.  Its integer
    solutions d are the directions of the branch: from any integer point x
    of the branch, x + t*k*d stays in it for all t >= 0 (k the lcm of the
    Div moduli); and a branch whose integer points grow without bound in
    some coordinates has such a direction that is positive in all of
    them."""
    return [cmp_atom(f.op, LinTerm(0, f.t.coeffs))
            for f in leaf if type(f) is Cmp]
