"""Finite-presentation models and the model-checking semi-procedure.

A candidate model interprets every predicate by a finite table.  A predicate
whose sort takes a numeric-domain argument (an *active* predicate) is a
function that is monotone in that argument; such a function into a finite
boolean table is exactly a family of upward-closed numeric sets, so we store
one upset descriptor per combination of the non-numeric arguments.  A
predicate without a numeric argument (*inactive*) is a plain boolean table.

Frames — the finite spaces the non-numeric variables of a clause range
over — are built in stages: base sorts are listed outright, arrows without a
numeric argument are full function spaces, and arrows with a numeric argument
are populated by ``{top} ∪ partial applications of lower-order predicates``,
deduplicated extensionally.

Clause checking enumerates valuations of the non-numeric variables over these
frames and translates each instance into a linear-arithmetic sentence over
the numeric variables, decided by the ``presburger`` module.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from . import presburger as P
from .background import (ALL, EMPTY, Antichain, Theory, Upset, compile_atom,
                         components, upset_from_json, upset_to_json, w_comps)
from .record import Record
from .syntax import (FIN, MAX_DEPTH, PROP, W, AndF, App, Arrow, Atom,
                     BgAtom, BodyF, Clause, FgAtom, PredRef, Problem,
                     SConst, Sort, SyntaxProblem, Term, Var, WLit, WOp,
                     arg_sorts, mk_app, parse_sort, print_sort, read_one,
                     w_position)
from .typesys import classify, type_order


class FrameTooLarge(Exception):
    pass


class StageOrderViolation(Exception):
    pass


class MissingValuation(Exception):
    pass


class SchemaError(Exception):
    pass


class FrameInconsistency(Exception):
    pass


MAX_FRAME = 1 << 16


# ---------------------------------------------------------------------------
# extensional values
#
# A frame element is one of
#   bool                        sort o
#   str                         finite-sort constant
#   FnVal(sort, vals)           arrow without numeric argument: one boolean
#                               per row of the sort
#   ActVal(sort, descs)         arrow with a numeric argument: one upset
#                               descriptor per row of the sort
#
# The rows of a sort are the combinations of its non-numeric arguments
# (``EntwinedStructure.rows``), row-major over their frames, so both kinds
# are flat tables, built by _table from one cell per row (at o, the one
# row's cell is the value itself): applying a value to its first
# non-numeric argument takes the slice of rows that start with it.
#
# Values are compared structurally; because every descriptor is canonical
# where it is made (Theory.canonicalize: enumerate_upsets, upset_from_json,
# extract_upset, _widen) and tables are fully materialized, structural
# equality is extensional equality.


class FnVal(Record):
    __slots__ = __match_args__ = ("sort", "vals")


class ActVal(Record):
    __slots__ = __match_args__ = ("sort", "descs")


Value = bool | str | FnVal | ActVal


def _table(s: Sort, cells: Sequence) -> Value:
    """The relational value of sort s with one cell per row of s: at o the
    one cell itself, else an ActVal for an active sort (the cells upset
    descriptors) and an FnVal otherwise (the cells truth values)."""
    if s == PROP:
        return cells[0]
    return (ActVal if W in arg_sorts(s) else FnVal)(s, tuple(cells))


def _cells(v: Value) -> tuple:
    """The cells of a relational value, one per row of its sort."""
    if isinstance(v, ActVal):
        return v.descs
    if isinstance(v, FnVal):
        return v.vals
    return (v,)


def nonw_sorts(s: Sort) -> list[Sort]:
    return [a for a in arg_sorts(s) if a != W]


def suffix_sort(s: Sort, k: int) -> Sort:
    for _ in range(k):
        if not isinstance(s, Arrow):
            raise ValueError("suffix past result sort")
        s = s.res
    return s


# ---------------------------------------------------------------------------
# structures


class EntwinedStructure:
    """A full interpretation of every declared predicate, plus the frames it
    induces.  Immutable once constructed, so its memos (frames, names, and
    the membership formulas the model checker reads) never go stale and
    die with it.

    A frame element's name is its witness JSON, a dict of exactly one key:
    ``{"top": sort}``, ``{"s": constant}`` (``"true"``/``"false"`` at o),
    ``{"app": [P, *argument names]}`` for a partial application, and
    ``{"table": [[argument names], ...]}`` for a table of an inactive sort
    by its true rows, in frame order."""

    def __init__(self, problem: Problem, theory: Theory,
                 interps: Mapping[str, Value]):
        self.problem = problem
        self.theory = theory
        self.interps = dict(interps)
        self._frames: dict[Sort, list[Value]] = {}
        # per frame: each value's first position in it and its name (a
        # table other than the top is named when first asked for)
        self._index: dict[Sort, dict[Value, tuple]] = {}
        # membership formulas by (descriptor, component terms, polarity)
        self._memberships: dict[tuple, P.Formula] = {}

    # -- frames --------------------------------------------------------

    def frame(self, s: Sort) -> list[Value]:
        if s in self._frames:
            return self._frames[s]
        if s == PROP:
            named: Iterable = [(False, {"s": "false"}), (True, {"s": "true"})]
        elif s == FIN:
            named = [(c, {"s": c}) for c in self.problem.fin_elems]
        elif s == W:
            raise StageOrderViolation("the numeric sort has no finite frame")
        elif isinstance(s, Arrow):
            if classify(s) == "noninitial":
                raise StageOrderViolation(
                    f"sort {print_sort(s)} has no materializable frame")
            if classify(s) == "active":
                named = self._active_frame(s).items()
            else:
                named = self._function_space(s)
        else:
            raise TypeError(s)
        vals = self._frames[s] = []
        index = self._index[s] = {}
        for v, c in named:
            index.setdefault(v, (len(vals), c))
            vals.append(v)
        return vals

    def _function_space(self, s: Arrow) -> Iterable:
        """The tables of s with their names, in binary order; one row per
        combination of the argument frames."""
        nrows = math.prod(len(self.frame(a)) for a in nonw_sorts(s))
        if nrows > MAX_FRAME.bit_length() - 1:  # 2^nrows > MAX_FRAME
            raise FrameTooLarge(
                f"frame of {print_sort(s)} has 2^{nrows} elements "
                f"(limit {MAX_FRAME})")
        # another table is named from its rows when a witness asks for it
        top = {"top": print_sort(s)}
        return ((_table(s, bits), top if all(bits) else None)
                for bits in itertools.product((False, True), repeat=nrows))

    def _active_frame(self, s: Arrow) -> dict[Value, dict | None]:
        """{top} ∪ extensionally distinct partial applications of predicates
        of order ≤ order(s) whose sort ends in s, with their names."""
        order = type_order(s)
        named: dict[Value, dict | None] = {
            self.top(s): {"top": print_sort(s)}}
        for pname, psort in self.problem.decls:
            if type_order(psort) > order or pname not in self.interps:
                continue
            pargs = arg_sorts(psort)
            wpos = w_position(psort)
            stop = len(pargs) if wpos is None else wpos
            for k in range(stop + 1):
                if suffix_sort(psort, k) != s:
                    continue
                prefix = pargs[:k]
                for combo in itertools.product(*(self.frame(a) for a in prefix)):
                    v = self.interps[pname]
                    for a in combo:
                        v = self.apply(v, a)
                    if v not in named:
                        arg_canons = [self._try_canon(a_s, a)
                                      for a_s, a in zip(prefix, combo)]
                        named[v] = (
                            {"app": [pname, *arg_canons]}
                            if all(c is not None for c in arg_canons)
                            else None)
        if len(named) > MAX_FRAME:
            raise FrameTooLarge(f"frame of {print_sort(s)} too large")
        return named

    def _try_canon(self, s: Sort, v: Value) -> dict | None:
        """v's name in the memo, which callers must not change; None when
        v has none."""
        self.frame(s)
        i, c = self._index[s][v]
        if c is None and isinstance(v, FnVal):
            c = self._table_name(v)
            if c is not None:
                self._index[s][v] = (i, c)
        return c

    def _table_name(self, v: FnVal) -> dict | None:
        """v's true rows, each by the names of its arguments; None when an
        argument has no name."""
        sorts = arg_sorts(v.sort)
        rows = []
        for row, b in zip(self.rows(v.sort), v.vals):
            if b:
                names = [self._try_canon(a_s, a) for a_s, a in zip(sorts, row)]
                if any(c is None for c in names):
                    return None
                rows.append(names)
        return {"table": rows}

    def canon_of(self, s: Sort, v: Value) -> dict:
        """v's name, a copy the caller may change."""
        c = self._try_canon(s, v)
        if c is None:
            raise SchemaError(
                f"element of {print_sort(s)} has no canonical value-term")
        return copy.deepcopy(c)

    def resolve_canon(self, s: Sort, d, depth: int = 0) -> Value:
        """The element of s's frame that the name d, read from JSON, names;
        a SchemaError or FrameInconsistency when it names none."""
        # a name nests no deeper than its sort, and the reader bounds sorts
        if depth > MAX_DEPTH:
            raise SchemaError("canonical value nested too deeply")
        if not isinstance(d, dict) or len(d) != 1:
            raise SchemaError(f"bad canonical value {d!r}")
        ((key, x),) = d.items()
        match key:
            case "top":
                ts = _sort_from_str(x)
                if ts != s:
                    raise FrameInconsistency(
                        f"top of {print_sort(ts)} used at {print_sort(s)}")
                try:
                    return self.top(s)
                except StageOrderViolation as e:
                    raise FrameInconsistency(str(e))
            case "s":
                if not isinstance(x, str):
                    raise SchemaError(
                        f"constant name {json.dumps(x)} is not a string")
                if s == PROP:
                    if x not in ("true", "false"):
                        raise SchemaError(f"bad boolean constant {x!r}")
                    return x == "true"
                if s != FIN:
                    raise SchemaError(f"constant {x!r} used at {print_sort(s)}")
                if x not in self.problem.fin_elems:
                    raise SchemaError(f"unknown finite constant {x!r}")
                return x
            case "app":
                if not isinstance(x, list) or not x or \
                        not isinstance(x[0], str):
                    raise SchemaError("bad application value")
                pname, args = x[0], x[1:]
                try:
                    psort = self.problem.decl(pname)
                except KeyError:
                    raise SchemaError(f"undeclared predicate {pname!r}")
                if pname not in self.interps:
                    raise FrameInconsistency(
                        f"{pname} is not interpreted below {print_sort(s)}")
                pargs = arg_sorts(psort)
                if len(args) > len(pargs):
                    raise SchemaError(f"too many arguments to {pname}")
                v: Value = self.interps[pname]
                for a_s, a in zip(pargs, args):
                    v = self.apply(v, self.resolve_canon(a_s, a, depth + 1))
                if suffix_sort(psort, len(args)) != s:
                    raise FrameInconsistency(
                        f"{pname} applied to {len(args)} arguments does not "
                        f"have sort {print_sort(s)}")
                return v
            case "table":
                if not isinstance(x, list) or \
                        not all(isinstance(r, list) for r in x):
                    raise SchemaError("a table is a list of rows, each a list")
                if not isinstance(s, Arrow) or classify(s) != "inactive":
                    raise SchemaError(f"table used at {print_sort(s)}")
                sorts = arg_sorts(s)
                index = {r: i for i, r in enumerate(self.rows(s))}
                bits = [False] * len(index)
                for names in x:
                    if len(names) != len(sorts):
                        raise SchemaError(
                            f"table row of {len(names)} arguments at "
                            f"{print_sort(s)}")
                    i = index.get(tuple(self.resolve_canon(a_s, a, depth + 1)
                                        for a_s, a in zip(sorts, names)))
                    if i is None:
                        raise SchemaError(
                            f"table row outside the frame of {print_sort(s)}")
                    if bits[i]:
                        raise SchemaError(
                            f"repeated table row at {print_sort(s)}")
                    bits[i] = True
                return _table(s, bits)
        raise SchemaError(f"bad canonical value {d!r}")

    # -- rows and the top table -----------------------------------------

    def rows(self, s: Sort) -> list[tuple[Value, ...]]:
        return list(itertools.product(*(self.frame(a) for a in nonw_sorts(s))))

    def top(self, s: Sort) -> Value:
        kind = classify(s)  # S and W are noninitial, o inactive
        if kind == "noninitial":
            raise StageOrderViolation(f"no top element at {print_sort(s)}")
        return _table(s, (ALL if kind == "active" else True,)
                      * len(self.rows(s)))

    # -- memberships -----------------------------------------------------

    def membership(self, desc: Upset, terms: tuple[P.LinTerm, ...],
                   positive: bool) -> P.Formula:
        """The formula 'the point whose components are terms lies in desc'
        (positive) or its complement, written by the theory once per key
        and structure: the clauses of one check read the same rows at the
        same terms again and again."""
        key = (desc, terms, positive)
        f = self._memberships.get(key)
        if f is None:
            write = self.theory.upset_formula if positive \
                else self.theory.complement_formula
            f = self._memberships[key] = write(desc, terms)
        return f

    # -- application -----------------------------------------------------

    def apply(self, v: Value, arg) -> Value:
        """Apply a value to a concrete argument (a Value, or a concrete
        numeric point for the numeric slot of an active value)."""
        if not isinstance(v, (FnVal, ActVal)):
            raise TypeError(f"cannot apply {v!r}")
        s: Arrow = v.sort
        cells = _cells(v)
        if s.arg == W:
            # each row collapses to 'does the point lie in its upset'
            return _table(s.res, [self.theory.member(arg, d) for d in cells])
        stride = len(cells) // len(self.frame(s.arg))
        i = self._index[s.arg][arg][0]
        return _table(s.res, cells[i * stride:(i + 1) * stride])


# ---------------------------------------------------------------------------
# term evaluation (no numeric variable)


def eval_term(m: EntwinedStructure, t: Term) -> object:
    """Evaluate a closed term: the single case of _sym_eval with no
    numeric variable.  A numeric term evaluates to its point, an int
    tuple."""
    ((_, v),) = _sym_eval(m, t, set(), {})
    return v


# ---------------------------------------------------------------------------
# clause checking
#
# Non-numeric variables are enumerated over their frames; numeric variables
# stay symbolic as component variables.  Evaluating a term symbolically
# yields a list of guarded outcomes: each case is (guard formula, value),
# the guards exclusive and exhaustive; an outcome of sort o that depends on
# numeric variables is a Membership instead of a value.  A numeric argument
# compiles to one term per component (``components``); when one of them
# holds a variable, passing it into an active value whose residual sort is
# not o splits into one case per candidate frame element (region
# splitting).  A case whose guard folds to FALSE is dropped where it is
# made, and every membership formula is written through the structure's
# memo (EntwinedStructure.membership).


class Membership(Record):
    """The outcome 'the point whose components are terms lies in desc',
    written only when it is read, as is or negated, and then through the
    structure's memo (EntwinedStructure.membership)."""

    __slots__ = __match_args__ = ("desc", "terms")


_Cases = list[tuple[P.Formula, object]]


def _w_terms(t: Term, dim: int) -> tuple[tuple[P.LinTerm, ...],
                                         tuple[int, ...] | None]:
    """A numeric argument's component terms (a scalar broadcast to every
    coordinate), and its point when every term is constant."""
    ts = tuple(components(t, dim))
    if len(ts) == 1:
        ts = ts * dim
    if any(x.coeffs for x in ts):
        return ts, None
    return ts, tuple(x.const for x in ts)


def _sym_apply(m: EntwinedStructure, cases: _Cases, arg_t: Term,
               wvars: set[str], val: dict) -> _Cases:
    th = m.theory
    # numeric argument?
    if isinstance(arg_t, (WLit, WOp)) or (
            isinstance(arg_t, Var) and arg_t.name in wvars):
        terms, point = _w_terms(arg_t, th.dim)
        out: _Cases = []
        for g, v in cases:
            if not isinstance(v, ActVal) or v.sort.arg != W:
                raise TypeError("numeric argument to a non-active value")
            if point is not None:
                out.append((g, m.apply(v, point)))
                continue
            res = v.sort.res
            if res == PROP:
                out.append((g, Membership(v.descs[0], terms)))
                continue
            # region split: one case per candidate residual value; conj
            # stops at the first FALSE row, so a row is written only when a
            # live prefix reads it
            for u in m.frame(res):
                guard = P.conj(itertools.chain([g], (
                    m.membership(d, terms, b)
                    for d, b in zip(v.descs, u.vals))))
                if guard is not P.FALSE:
                    out.append((guard, u))
        return out
    # ordinary argument: evaluate it (itself possibly case-split)
    sub = _sym_eval(m, arg_t, wvars, val)
    out = []
    for g1, v1 in cases:
        for g2, a in sub:
            if isinstance(a, Membership):
                # boolean argument whose truth depends on numeric variables:
                # split on it
                for b in (True, False):
                    guard = P.conj([g1, g2, m.membership(a.desc, a.terms, b)])
                    if guard is not P.FALSE:
                        out.append((guard, m.apply(v1, b)))
            else:
                out.append((P.conj([g1, g2]), m.apply(v1, a)))
    return out


def _sym_eval(m: EntwinedStructure, t: Term, wvars: set[str],
              val: dict) -> _Cases:
    match t:
        case Var(n):
            if n in wvars:
                raise MissingValuation(
                    f"numeric variable {n} outside an argument position")
            if n not in val:
                raise MissingValuation(n)
            return [(P.TRUE, val[n])]
        case PredRef(n):
            return [(P.TRUE, m.interps[n])]
        case SConst(n):
            return [(P.TRUE, n)]
        case WLit() | WOp():
            _, point = _w_terms(t, m.theory.dim)
            if point is None:
                raise MissingValuation(
                    f"numeric term {t} outside an argument position")
            return [(P.TRUE, point)]
        case App(fn, arg):
            return _sym_apply(m, _sym_eval(m, fn, wvars, val), arg, wvars, val)
    raise TypeError(t)


def _atom_formula(m: EntwinedStructure, a: Atom, wvars: set[str],
                  val: dict, positive: bool = True) -> P.Formula:
    """An atom as a formula over the numeric component variables: guard ∧
    outcome over the cases of its term.  Negated (positive False; a head,
    never a background atom), only the outcomes are: the guards are
    exclusive and exhaustive, a region split running over a full
    function-space frame and a boolean split over True and False."""
    if isinstance(a, BgAtom):
        sval_env = {n: v for n, v in val.items() if isinstance(v, str)}
        return compile_atom(a, m.theory, sval_env)
    parts = []
    for g, v in _sym_eval(m, a.term, wvars, val):
        if isinstance(v, Membership):
            f = m.membership(v.desc, v.terms, positive)
        else:
            f = P.TRUE if v == positive else P.FALSE
        parts.append(P.conj([g, f]))
    return P.disj(parts)


def _body_formula(m: EntwinedStructure, b: BodyF, wvars: set[str],
                  val: dict) -> P.Formula:
    """The body of a normalized clause: an AndF of atoms, or one atom."""
    if isinstance(b, AndF):
        return P.conj(_atom_formula(m, x, wvars, val) for x in b.args)
    return _atom_formula(m, b, wvars, val)


def _instances(structure: Callable[[], EntwinedStructure],
               c: Clause) -> Iterator[tuple[dict, P.Formula]]:
    """Each valuation of c's non-numeric variables over their frames, with
    c's body under it as a formula over the numeric component variables.
    The body is read on structure() as it stands when its valuation comes
    up: fo_least_model replaces its structure whenever a row grows."""
    wset = {n for n, s in c.vars if s == W}
    others = [(n, s) for n, s in c.vars if s != W]
    frames = [structure().frame(s) for _, s in others]
    for combo in itertools.product(*frames):
        val = {n: v for (n, _), v in zip(others, combo)}
        yield val, _body_formula(structure(), c.body, wset, val)


def clause_queries(m: EntwinedStructure,
                   c: Clause) -> Iterator[list[P.Formula]]:
    """The conjunctions check_clause asks, one per valuation of the
    clause's non-numeric variables over their frames: body ∧ ¬head
    (_atom_formula, TRUE for a goal) with the nat bounds of the numeric
    components.  The memberships both sides read come from m's memo, so
    the clauses of one model check share them."""
    wvars = [n for n, s in c.vars if s == W]
    wset = set(wvars)
    bounds = m.theory.nat_bounds(w_comps(wvars, m.theory.dim))
    head = None if c.head is None else \
        FgAtom(mk_app(PredRef(c.head[0]), list(c.head[1])))
    for val, body in _instances(lambda: m, c):
        not_head = P.TRUE if head is None else \
            _atom_formula(m, head, wset, val, False)
        yield [body, not_head] + bounds


def check_clause(m: EntwinedStructure, c: Clause) -> bool:
    """Does body → head hold at each valuation of the clause's non-numeric
    variables over their frames, for all numeric values?  It does iff no
    query of clause_queries has a numeric witness."""
    return not any(P.sat_exists_all(q) is not None
                   for q in clause_queries(m, c))


def check_model(m: EntwinedStructure, p: Problem) -> bool:
    return all(check_clause(m, c) for c in itertools.chain(p.clauses, p.goals))


# ---------------------------------------------------------------------------
# fair enumeration of candidate structures


def _upset_pool(k: int, cache: list[Upset], it: Iterator[Upset]) -> Upset:
    while len(cache) <= k:
        cache.append(next(it))
    return cache[k]


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _pred_choices(m: EntwinedStructure, pname: str, psort: Sort, weight: int,
                  cache: list, it) -> Iterator[Value]:
    """All interpretations of one predicate with the given size measure,
    relative to the already-fixed lower interpretations held by m."""
    nrows = len(m.rows(psort))
    if classify(psort) == "active":
        for idxs in _compositions(weight, nrows):
            yield _table(psort, [_upset_pool(k, cache, it) for k in idxs])
    # inactive (o too): finite table space, index = weight, none for
    # weight >= 2^rows
    elif weight.bit_length() <= nrows:
        yield _table(psort, [bool((weight >> i) & 1) for i in range(nrows)])


def enumerate_structures(p: Problem,
                         theory: Theory) -> Iterator[EntwinedStructure]:
    """Fair enumeration: every finitely presented structure appears at some
    finite index.  Ends when the space is finite and used up: the totals
    that yield a structure run without gaps from 0, so the first total that
    yields none is past the last one."""
    preds = sorted(p.decls, key=lambda d: (type_order(d[1]), d[0]))
    cache: list[Upset] = []
    pool = theory.enumerate_upsets()

    def gen(i: int, budget: int, interps: dict) -> Iterator[dict]:
        if i == len(preds):
            if budget == 0:
                yield dict(interps)
            return
        pname, psort = preds[i]
        m = EntwinedStructure(p, theory, interps)
        last = i == len(preds) - 1
        weights = [budget] if last else range(budget + 1)
        for w in weights:
            for v in _pred_choices(m, pname, psort, w, cache, pool):
                interps[pname] = v
                yield from gen(i + 1, budget - w, interps)
                del interps[pname]

    for total in itertools.count():
        found = False
        for interps in gen(0, total, {}):
            found = True
            yield EntwinedStructure(p, theory, interps)
        if not found:
            return


# ---------------------------------------------------------------------------
# first-order least model
#
# For first-order problems the immediate-consequence operator maps descriptor
# tables to descriptor tables: the one-step consequence of a clause at a fixed
# valuation of the finite-sort variables is a Presburger-definable set of
# numeric points, upward closed in the working order once the limit clauses
# are folded in, and such a set is exactly representable by a descriptor.
# When the iteration converges the result is the least model: the problem is
# satisfiable iff the least model satisfies the goals.


def extract_upset(theory: Theory, phi: P.Formula, comps: list[str],
                  base: Upset = EMPTY) -> Upset:
    """Descriptor of a set of numeric points given by a formula over the
    component variables; the set must be upward closed in the working
    order (the caller guarantees it, e.g. via limit clauses).  Every other
    free variable of phi is read existentially, so the set is a projection
    that needs no quantifier elimination; phi must be quantifier-free (a
    ValueError otherwise).  The branch tests below hold in the larger
    space: the components are among a branch's variables, so its points
    grow without bound in some components exactly when those of its
    projection do.

    The descriptor is the set's minimal points in the working order, with
    None (ω) marking unbounded coordinates.  Over y = s·x, with s = +1 in
    the flipped order and s = -1 otherwise, they are the maximal points of
    a set closed downward in y.  The DNF branches of phi and the nat
    bounds are walked once (P.branches), and each branch is covered
    before the next: its points lie under the generators once it is done.
    The complement of ↑gens is kept across branches, cut by each new
    generator (Theory.cut).  Per branch, until it is covered:
    - quick cover check: the top corner (in y) of the box that
      interval propagation found for the branch lies under a generator,
      so the branch is done without a query;
    - seed: a point of the branch in one piece of the complement, asked
      piece by piece with the piece's box rows (P.sat_branch); none, and
      the branch is done;
    - growth: coordinate i is maximised on one child node of the branch
      (P.branch_child) with the earlier coordinates fixed to their
      generator values and the later ones kept at y_j >= the seed's.  It
      is ω iff that node has an integer recession direction d with
      s·d_j >= 1 on J, the ω coordinates so far, and on i; the cone test
      is skipped where the node's bounds cap y_i, as the nat bounds do for
      every y_i under nat upward (y = -x <= 0), so ω never arises there.
      Otherwise a probe y_i >= v asks the node (P.sat_branch), galloping
      from the seed's value, or, where the node caps y_i, one probe at the
      cap, then bisection below it.  Under nat downward x >= 0 gives
      d >= 0, so the direction positive on J that made those coordinates
      ω keeps them ω at the largest y_i.

    The result is the same antichain as a search over the whole set:
    each generator is a maximal point of its branch's projection, so a
    point of the set; the walk ends with every branch covered, so the
    generators' downward closure (in y) is the whole set, and its maximal
    points, the minimal points of ↑(base ∪ phi) that canonicalize keeps,
    are those of the generators whichever branch came first.

    ``base`` is a descriptor the result must include (a row's current
    value): the result describes the upward closure of base ∪ phi.  Its
    generators seed the cover, and new ones grow from phi alone.  lia is
    the one-coordinate case: the result is EMPTY, ALL (an (ω) generator)
    or the working-minimal threshold.

    FrameTooLarge once more than 256 generators are kept; a generator
    that a later one covers is dropped.  A branch's own maximal points
    may outnumber the set's before a later branch covers them, so this
    can fire on a set that a search over the whole set would finish."""
    if base == ALL:
        return ALL
    s = 1 if theory.flipped else -1
    cterms = [P.LinTerm.of_var(c) for c in comps]
    gens: list[tuple[int | None, ...]] = (
        list(base.gens) if isinstance(base, Antichain) else [])
    outside = theory.complement_pieces(gens)  # the complement of ↑gens

    def atleast(c: str, v: int) -> P.Formula:
        return P.ge(P.LinTerm.of_var(c, s), P.LinTerm.of_const(v))

    def cap(node: tuple, c: str) -> int | None:
        # the node's bound on y_c, None where it has none
        b = (node[2] if s > 0 else node[1]).get(c)
        return None if b is None else s * b

    cones: dict[tuple, bool] = {}  # cone query -> answer, in this call

    def recedes(leaf: list, cs: list[str]) -> bool:
        # some integer direction of the node has s·d >= 1 on every cs
        cone = tuple(P.recession_cone(leaf) + [atleast(c, 1) for c in cs])
        if cone not in cones:
            cones[cone] = P.sat_exists_all(list(cone)) is not None
        return cones[cone]

    def reach(node: tuple, ci: str, v: int) -> int | None:
        # y_i of a point of the node with y_i >= v, or None
        w = P.sat_branch(node, [atleast(ci, v)])
        return None if w is None else s * w.get(ci, 0)

    def covered(branch: tuple) -> bool:
        top = [cap(branch, c) for c in comps]
        return any(all(gj is None or (tj is not None and tj <= s * gj)
                       for tj, gj in zip(top, g)) for g in gens)

    def seed_of(branch: tuple) -> list[int] | None:
        for piece in outside:
            w = P.sat_branch(branch, theory.piece_rows(piece, cterms))
            if w is not None:
                return [s * w.get(c, 0) for c in comps]
        return None

    def grow(branch: tuple, seed: list[int]) -> tuple[int | None, ...]:
        # the node is satisfiable: the seed, then the point that set the
        # last coordinate, is in it
        g: list[int | None] = []
        for i, ci in enumerate(comps):
            node = P.branch_child(branch, [
                P.eq(ct, P.LinTerm.of_const(gj))
                for ct, gj in zip(cterms, g) if gj is not None] + [
                atleast(cj, sj) for cj, sj in zip(comps[i + 1:], seed[i + 1:])])
            top = cap(node, ci)
            omega = [cj for cj, gj in zip(comps, g) if gj is None]
            if top is None and recedes(node[0], omega + [ci]):
                g.append(None)
                continue
            # the seed's own value is reached, so no smaller one needs a
            # query; jump to each witness's value
            lo = reach(node, ci, seed[i])
            if top is None:
                step = 1
                while (up := reach(node, ci, lo + step)) is not None:
                    lo = up
                    step *= 2
                hi = lo + step  # no point of the node gets here
            elif lo < top and reach(node, ci, top) is None:
                hi = top
            else:
                lo = hi = top
            while hi - lo > 1:
                mid = (lo + hi) // 2
                up = reach(node, ci, mid)
                if up is None:
                    hi = mid
                else:
                    lo = up
            g.append(s * lo)
        return tuple(g)

    for branch in P.branches([phi] + theory.nat_bounds(comps)):
        while not covered(branch) and (seed := seed_of(branch)) is not None:
            g = grow(branch, seed)
            gens = [h for h in gens if not theory.w_leq(g, h)] + [g]
            outside = theory.cut(outside, g)
            if len(gens) > 256:
                raise FrameTooLarge("descriptor extraction did not converge")
    return theory.canonicalize(Antichain(tuple(gens)))


# After this many fixpoint rounds without convergence, accelerate growing
# descriptors to their limit (Karp-Miller style).  The result is then a
# post-fixpoint rather than the least model, but every candidate is
# re-verified by check_model before it is reported, so acceleration can
# only cost completeness, never soundness.
_WIDEN_AFTER = 6
# fo_least_model gives up (returns None) after this many rounds
_MAX_ROUNDS = 50


def _widen(theory: Theory, old: Upset, new: Upset) -> Upset:
    """Extrapolate a strictly growing descriptor towards its limit: where a
    new generator lies below an old one, each coordinate in which they
    differ goes to the working order's bottom (under lia ω, so the result
    is ALL)."""
    if isinstance(old, Antichain) and isinstance(new, Antichain):
        oldset = set(old.gens)
        out = []
        for g in new.gens:
            if g not in oldset:
                for o in old.gens:
                    if theory.w_leq(g, o):  # g strictly enlarges o
                        g = tuple(gi if gi == oi else theory.bottom
                                  for gi, oi in zip(g, o))
            out.append(g)
        return theory.canonicalize(Antichain(tuple(out)))
    return new


def fo_least_model(p: Problem, theory: Theory) -> EntwinedStructure | None:
    """Compute the least model of a first-order problem by fixpoint
    iteration over descriptor tables; None if the iteration does not
    converge within _MAX_ROUNDS.  ``p`` must be normalized
    (``normalize_problem``): every head argument is a distinct variable.
    Clause bodies are translated by the model checker's ``_body_formula``
    on the structure the current tables describe.  The numeric variables
    of a clause other than the head's are left free in the formula handed
    to ``extract_upset``, which reads them existentially, with the row's
    current descriptor as its base; a row stays as it is when the result
    equals that descriptor.

    Evaluation is semi-naive: each predicate carries a version, bumped
    whenever one of its rows changes, and a clause is skipped when its
    body predicates have the versions they had when it last started.
    Tables only grow (widening too), so such a clause would find every
    body already inside its head row; the rounds, widening and result are
    those of running every clause every round."""
    for _, psort in p.decls:
        if any(s not in (FIN, PROP) for s in nonw_sorts(psort)):
            raise ValueError("least-model engine requires a first-order "
                             "problem")
    if any(not isinstance(t, Var) for c in p.clauses for t in c.head[1]):
        raise ValueError("least-model engine requires head arguments to be "
                         "variables (a normalized problem)")
    base = EntwinedStructure(p, theory, {})
    # per predicate: row of ground arguments -> descriptor (active) or bool
    tables = {pname: dict.fromkeys(
        base.rows(psort),
        EMPTY if W in arg_sorts(psort) else False)
        for pname, psort in p.decls}

    def structure() -> EntwinedStructure:
        return EntwinedStructure(p, theory, {
            pname: _table(psort, list(tables[pname].values()))
            for pname, psort in p.decls})

    version = dict.fromkeys(tables, 0)
    body_preds = [sorted({a.head.name for a in c.body_atoms()
                          if isinstance(a, FgAtom)
                          and isinstance(a.head, PredRef)})
                  for c in p.clauses]
    started: list[tuple[int, ...] | None] = [None] * len(p.clauses)
    m = structure()
    for rnd in range(_MAX_ROUNDS):
        changed = False
        for ci, c in enumerate(p.clauses):
            stamp = tuple(version[q] for q in body_preds[ci])
            if started[ci] == stamp:
                continue
            started[ci] = stamp
            hname, hargs = c.head
            wvars = [n for n, s in c.vars if s == W]
            hw = next((t.name for t in hargs if t.name in wvars), None)
            hground = [t.name for t in hargs if t.name not in wvars]
            # the components other than the head's stay free: read
            # existentially (the body is quantifier-free)
            bounds = theory.nat_bounds(
                w_comps([n for n in wvars if n != hw], theory.dim))
            table = tables[hname]
            for val, body in _instances(lambda: m, c):
                if body is P.FALSE:
                    continue
                row = tuple(val[n] for n in hground)
                old = table[row]
                if hw is None:  # a truth value: a purely existential query
                    new = old or P.sat_exists_all([body] + bounds) is not None
                else:
                    new = extract_upset(theory, P.conj([body] + bounds),
                                        w_comps([hw], theory.dim), old)
                    if new != old and rnd >= _WIDEN_AFTER:
                        new = _widen(theory, old, new)
                if new == old:
                    continue
                table[row] = new
                version[hname] += 1
                changed = True
                m = structure()
        if not changed:
            return m
    return None


# ---------------------------------------------------------------------------
# serialization


def _sort_from_str(s) -> Sort:
    if not isinstance(s, str):
        raise SchemaError(f"sort {json.dumps(s)} is not a string")
    try:
        return parse_sort(read_one(s))
    except SyntaxProblem as e:
        raise SchemaError(f"bad sort string {s!r}: {e}")


def serialize_model(m: EntwinedStructure) -> dict:
    p = m.problem
    stages = max((type_order(s) for _, s in p.decls), default=1)
    preds = {}
    for pname, psort in p.decls:
        kind = "active" if classify(psort) == "active" else "inactive"
        wpos = w_position(psort)
        nw = nonw_sorts(psort)
        rows = []
        for row, cell in zip(m.rows(psort), _cells(m.interps[pname])):
            args = [m.canon_of(s_, x) for s_, x in zip(nw, row)]
            rows.append({"pre": args[:wpos], "post": args[wpos:],
                         "upset": upset_to_json(cell, m.theory)}
                        if kind == "active" else
                        {"args": args, "value": cell})
        preds[pname] = {"kind": kind, "rows": rows}
    return {"stages": stages, "predicates": preds}


def deserialize_model(p: Problem, theory: Theory,
                      data: dict) -> EntwinedStructure:
    if not isinstance(data, dict) or "predicates" not in data:
        raise SchemaError("witness must be an object with a 'predicates' key")
    pd = data["predicates"]
    if not isinstance(pd, dict):
        raise SchemaError("'predicates' must be an object")
    decls = p.decl_map
    for name in pd:
        if name not in decls:
            raise SchemaError(f"undeclared predicate {name!r} in witness")
    for name in decls:
        if name not in pd:
            raise SchemaError(f"witness missing predicate {name!r}")

    interps: dict[str, Value] = {}
    for pname, psort in sorted(p.decls, key=lambda d: (type_order(d[1]), d[0])):
        m = EntwinedStructure(p, theory, interps)
        entry = pd[pname]
        kind = "active" if classify(psort) == "active" else "inactive"
        if not isinstance(entry, dict) or \
                entry.keys() != {"kind", "rows"} or entry["kind"] != kind or \
                not isinstance(entry["rows"], list):
            raise SchemaError(f"bad entry for predicate {pname!r}")
        # a row holds exactly its kind's keys, its arguments in lists
        keys, lists = ({"pre", "post", "upset"}, ("pre", "post")) \
            if kind == "active" else ({"args", "value"}, ("args",))
        for r in entry["rows"]:
            if not isinstance(r, dict) or r.keys() != keys or \
                    any(not isinstance(r[k], list) for k in lists):
                raise SchemaError(f"bad row in {pname!r}")
        # one cell per row of the sort (one for o): a descriptor or a
        # truth value
        nw = nonw_sorts(psort)
        table: dict[tuple, Upset | bool] = {}
        for r in entry["rows"]:
            args = r["pre"] + r["post"] if kind == "active" else r["args"]
            # an active row's arguments split at the numeric slot
            if len(args) != len(nw) or kind == "active" and \
                    len(r["pre"]) != w_position(psort):
                raise FrameInconsistency(f"row arity mismatch for {pname!r}")
            key = tuple(m.resolve_canon(s_, x) for s_, x in zip(nw, args))
            if kind == "active":
                try:
                    cell = upset_from_json(r["upset"], theory)
                except Exception as e:
                    raise SchemaError(f"bad upset in {pname!r}: {e}")
            else:
                cell = r["value"]
                if not isinstance(cell, bool):
                    raise SchemaError(f"value in {pname!r} is not a JSON "
                                      f"boolean: {cell!r}")
            if key in table:
                raise FrameInconsistency(f"duplicate row in {pname!r}")
            table[key] = cell
        cells = []
        for row in m.rows(psort):
            if row not in table:
                raise FrameInconsistency(
                    f"witness for {pname!r} misses a frame row")
            cells.append(table.pop(row))
        if table:
            raise FrameInconsistency(
                f"witness for {pname!r} has rows outside the frame")
        interps[pname] = _table(psort, cells)
    return EntwinedStructure(p, theory, interps)


def read_witness(path: str):
    """The JSON value of a witness file; SchemaError when it does not read."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as e:
            raise SchemaError(f"witness is not valid JSON: {e}")
        except UnicodeDecodeError as e:
            raise SchemaError(f"witness is not UTF-8 text: {e}")
        except RecursionError:
            raise SchemaError("witness is nested too deeply to read")


def load_model(p: Problem, theory: Theory, path: str) -> EntwinedStructure:
    return deserialize_model(p, theory, read_witness(path))
