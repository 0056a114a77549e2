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

import itertools
import json
from typing import Iterator, Mapping

from . import presburger as P
from .background import (ALL, EMPTY, Antichain, AtLeast, Theory, Upset,
                         compile_atom, comp_var, components,
                         upset_from_json, upset_to_json)
from .record import Record
from .syntax import (FIN, MAX_DEPTH, PROP, W, AndF, App, Arrow, Atom,
                     BgAtom, BodyF, Clause, FgAtom, OrF, PredRef, Problem,
                     SConst, Sort, Term, Var, WLit, WOp, arg_sorts, mk_app,
                     print_sort, w_position)
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
# canonical value-terms (used for witness serialization and provenance)


class Top(Record):
    __slots__ = __match_args__ = ("sort",)


class SVal(Record):
    __slots__ = __match_args__ = ("const",)


class PredApp(Record):
    __slots__ = __match_args__ = ("pred", "args")


CanonicalValue = Top | SVal | PredApp


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
# are flat tables: applying a value to its first non-numeric argument takes
# the slice of rows that start with it.
#
# Values are compared structurally; because descriptors are kept canonical
# and tables are fully materialized, structural equality is extensional
# equality.


class FnVal(Record):
    __slots__ = __match_args__ = ("sort", "vals")


class ActVal(Record):
    __slots__ = __match_args__ = ("sort", "descs")


Value = bool | str | FnVal | ActVal


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
    induces.  Immutable once constructed."""

    def __init__(self, problem: Problem, theory: Theory,
                 interps: Mapping[str, Value]):
        self.problem = problem
        self.theory = theory
        # canonical descriptors make structural equality extensional
        self.interps = {
            n: ActVal(v.sort, tuple(theory.canonicalize(d) for d in v.descs))
            if isinstance(v, ActVal) else v
            for n, v in interps.items()}
        self._frames: dict[Sort, list[Value]] = {}
        self._canon: dict[Sort, list[CanonicalValue]] = {}

    # -- frames --------------------------------------------------------

    def frame_size(self, s: Sort) -> int:
        """Cardinality of the frame, computed without materializing inactive
        function spaces."""
        if s == PROP:
            return 2
        if s == FIN:
            return len(self.problem.fin_elems)
        if s == W:
            raise StageOrderViolation("the numeric sort has no finite frame")
        if isinstance(s, Arrow):
            if classify(s) == "active":
                return len(self.frame(s))
            return self.frame_size(s.res) ** self.frame_size(s.arg)
        raise TypeError(s)

    def frame(self, s: Sort) -> list[Value]:
        if s in self._frames:
            return self._frames[s]
        if s == PROP:
            vals: list[Value] = [False, True]
            canon: list[CanonicalValue] = [SVal("false"), SVal("true")]
        elif s == FIN:
            vals = list(self.problem.fin_elems)
            canon = [SVal(c) for c in vals]
        elif s == W:
            raise StageOrderViolation("the numeric sort has no finite frame")
        elif isinstance(s, Arrow):
            if classify(s) == "noninitial":
                raise StageOrderViolation(
                    f"sort {print_sort(s)} has no materializable frame")
            if classify(s) == "active":
                vals, canon = self._active_frame(s)
            else:
                vals, canon = self._function_space(s)
        else:
            raise TypeError(s)
        self._frames[s] = vals
        self._canon[s] = canon
        return vals

    def _function_space(self, s: Arrow) -> tuple[list[Value], list]:
        size = self.frame_size(s)
        if size > MAX_FRAME:
            raise FrameTooLarge(
                f"frame of {print_sort(s)} has {size} elements "
                f"(limit {MAX_FRAME})")
        nrows = len(self.rows(s))
        vals: list[Value] = [
            FnVal(s, bits)
            for bits in itertools.product((False, True), repeat=nrows)]
        # the constant-true table is the only one with a canonical name
        top = self.top(s)
        canon = [Top(s) if v == top else None for v in vals]
        return vals, canon

    def _active_frame(self, s: Arrow) -> tuple[list[Value], list]:
        """{top} ∪ extensionally distinct partial applications of predicates
        of order ≤ order(s) whose sort ends in s."""
        order = type_order(s)
        vals: list[Value] = [self.top(s)]
        canon: list[CanonicalValue] = [Top(s)]
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
                    if v not in vals:
                        vals.append(v)
                        arg_canons = [self._try_canon(a_s, a)
                                      for a_s, a in zip(prefix, combo)]
                        canon.append(
                            PredApp(pname, tuple(arg_canons))
                            if all(c is not None for c in arg_canons)
                            else None)
        if len(vals) > MAX_FRAME:
            raise FrameTooLarge(f"frame of {print_sort(s)} too large")
        return vals, canon

    def _try_canon(self, s: Sort, v: Value) -> CanonicalValue | None:
        fr = self.frame(s)
        return self._canon[s][fr.index(v)]

    def canon_of(self, s: Sort, v: Value) -> CanonicalValue:
        c = self._try_canon(s, v)
        if c is None:
            raise SchemaError(
                f"element of {print_sort(s)} has no canonical value-term")
        return c

    def resolve_canon(self, s: Sort, c: CanonicalValue) -> Value:
        match c:
            case Top(ts):
                if ts != s:
                    raise FrameInconsistency(
                        f"top of {print_sort(ts)} used at {print_sort(s)}")
                try:
                    return self.top(s)
                except StageOrderViolation as e:
                    raise FrameInconsistency(str(e))
            case SVal(name):
                if s == PROP:
                    if name not in ("true", "false"):
                        raise SchemaError(f"bad boolean constant {name!r}")
                    return name == "true"
                if s != FIN:
                    raise SchemaError(
                        f"constant {name!r} used at {print_sort(s)}")
                if name not in self.problem.fin_elems:
                    raise SchemaError(f"unknown finite constant {name!r}")
                return name
            case PredApp(pname, args):
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
                for a_s, a_c in zip(pargs, args):
                    v = self.apply(v, self.resolve_canon(a_s, a_c))
                if suffix_sort(psort, len(args)) != s:
                    raise FrameInconsistency(
                        f"{pname} applied to {len(args)} arguments does not "
                        f"have sort {print_sort(s)}")
                return v

    # -- rows of an active sort -----------------------------------------

    def rows(self, s: Sort) -> list[tuple[Value, ...]]:
        return list(itertools.product(*(self.frame(a) for a in nonw_sorts(s))))

    def top(self, s: Sort) -> Value:
        if s == PROP:
            return True
        if not isinstance(s, Arrow) or classify(s) == "noninitial":
            raise StageOrderViolation(f"no top element at {print_sort(s)}")
        if classify(s) == "active":
            return ActVal(s, (ALL,) * len(self.rows(s)))
        return FnVal(s, (True,) * len(self.rows(s)))

    # -- application -----------------------------------------------------

    def apply(self, v: Value, arg) -> Value:
        """Apply a value to a concrete argument (a Value, or a concrete
        numeric point for the numeric slot of an active value)."""
        if not isinstance(v, (FnVal, ActVal)):
            raise TypeError(f"cannot apply {v!r}")
        s: Arrow = v.sort
        if s.arg == W:
            # each row collapses to 'does the point lie in its upset'
            bits = tuple(self.theory.member(arg, d) for d in v.descs)
            return bits[0] if s.res == PROP else FnVal(s.res, bits)
        dom = self.frame(s.arg)
        i = dom.index(arg)
        if isinstance(v, FnVal):
            if s.res == PROP:
                return v.vals[i]
            stride = len(v.vals) // len(dom)
            return FnVal(s.res, v.vals[i * stride:(i + 1) * stride])
        if s.res == PROP:
            raise StageOrderViolation("active value with no numeric slot")
        stride = len(v.descs) // len(dom)
        return ActVal(s.res, v.descs[i * stride:(i + 1) * stride])


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
# yields a list of guarded outcomes: each case is (guard formula, value) with
# mutually exclusive guards; an outcome of sort o is a formula instead of a
# value.  A numeric argument compiles to one term per component
# (``components``); when one of them holds a variable, passing it into an
# active value whose residual sort is not o splits into one case per
# candidate frame element (region splitting).


_Cases = list[tuple[P.Formula, object]]

_FORMULA_TYPES = (P.TrueF, P.FalseF, P.Cmp, P.Div, P.Not, P.And, P.Or,
                  P.Exists, P.Forall)


def _w_comps(name: str, dim: int) -> list[str]:
    return [comp_var(name, i + 1) for i in range(dim)]


def _w_terms(t: Term, dim: int) -> tuple[list[P.LinTerm],
                                         tuple[int, ...] | None]:
    """A numeric argument's component terms (a scalar broadcast to every
    coordinate), and its point when every term is constant."""
    ts = components(t, dim)
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
        ts, point = _w_terms(arg_t, th.dim)
        out: _Cases = []
        for g, v in cases:
            if not isinstance(v, ActVal) or v.sort.arg != W:
                raise TypeError("numeric argument to a non-active value")
            if point is not None:
                out.append((g, m.apply(v, point)))
                continue
            row_fs = [th.upset_formula(d, ts) for d in v.descs]
            res = v.sort.res
            if res == PROP:
                out.append((g, row_fs[0]))
                continue
            # region split: one case per candidate residual value
            for u in m.frame(res):
                parts = [f if b else P.neg_f(f)
                         for f, b in zip(row_fs, u.vals)]
                out.append((P.conj([g] + parts), u))
        return out
    # ordinary argument: evaluate it (itself possibly case-split)
    sub = _sym_eval(m, arg_t, wvars, val)
    out = []
    for g1, v1 in cases:
        for g2, a in sub:
            if isinstance(a, _FORMULA_TYPES):
                # boolean argument whose truth depends on numeric variables:
                # split on it
                out.append((P.conj([g1, g2, a]), m.apply(v1, True)))
                out.append((P.conj([g1, g2, P.neg_f(a)]),
                            m.apply(v1, False)))
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
                  val: dict) -> P.Formula:
    if isinstance(a, BgAtom):
        sval_env = {n: v for n, v in val.items() if isinstance(v, str)}
        return compile_atom(a, m.theory, sval_env)
    cases = _sym_eval(m, a.term, wvars, val)
    parts = []
    for g, v in cases:
        if isinstance(v, bool):
            f = P.TRUE if v else P.FALSE
        else:
            f = v  # a formula of sort o
        parts.append(P.conj([g, f]))
    return P.disj(parts)


def _body_formula(m: EntwinedStructure, b: BodyF, wvars: set[str],
                  val: dict) -> P.Formula:
    if isinstance(b, AndF):
        return P.conj(_body_formula(m, x, wvars, val) for x in b.args)
    if isinstance(b, OrF):
        return P.disj(_body_formula(m, x, wvars, val) for x in b.args)
    return _atom_formula(m, b, wvars, val)


def clause_sentence(m: EntwinedStructure, c: Clause, wvars: list[str],
                    val: dict) -> P.Formula:
    """body → head as a formula over the numeric component variables."""
    wset = set(wvars)
    body = _body_formula(m, c.body, wset, val)
    if c.head is None:
        head: P.Formula = P.FALSE
    else:
        hname, hargs = c.head
        head = _atom_formula(
            m, FgAtom(mk_app(PredRef(hname), list(hargs))), wset, val)
    return P.implies(body, head)


def check_clause(m: EntwinedStructure, c: Clause) -> bool:
    th = m.theory
    wvars = [n for n, s in c.vars if s == W]
    others = [(n, s) for n, s in c.vars if s != W]
    bounds = th.nat_bounds([c_ for n in wvars for c_ in _w_comps(n, th.dim)])
    for combo in itertools.product(*(m.frame(s) for _, s in others)):
        val = {n: v for (n, _), v in zip(others, combo)}
        f = clause_sentence(m, c, wvars, val)
        # the universal closure holds iff its negation has no numeric witness
        if P.sat_exists_all([P.Not(f)] + bounds) is not None:
            return False
    return True


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
    if psort == PROP:
        if weight in (0, 1):
            yield weight == 1
        return
    if classify(psort) == "active":
        nrows = len(m.rows(psort))
        for idxs in _compositions(weight, nrows):
            yield ActVal(psort, tuple(_upset_pool(k, cache, it)
                                      for k in idxs))
        return
    # inactive: finite table space, index = weight
    rows = m.rows(psort)
    if weight >= (1 << len(rows)):
        return
    yield FnVal(psort, tuple(bool((weight >> i) & 1)
                             for i in range(len(rows))))


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
    a set closed downward in y.  Each round asks for a seed point that no
    generator covers and grows a generator from it one coordinate at a
    time: the earlier coordinates are fixed to their generator values
    (substituted into phi) and the later ones kept at y_j >= the seed's.
    With J the ω coordinates so far, on the DNF branches of that query
    coordinate i is ω iff a satisfiable branch has an integer recession
    direction d with s·d_j >= 1 on J and i; else it is the largest y_i of
    a branch with such a direction on J (of any branch when J is empty).
    Under nat upward, x >= 0 keeps every direction d >= 0, so ω never
    arises and no cone test is asked; the others are asked once per call,
    since the branches of later seeds repeat them.

    ``base`` is a descriptor the result must include (a row's current
    value): the result describes the upward closure of base ∪ phi.  Its
    generators seed the cover, and new ones grow from phi alone.  The seed
    order does not matter: each grown generator is a minimal point of its
    set and the loop ends once everything is covered, so the minimal
    points of base ∪ found are those of ↑(base ∪ phi) whichever generators
    came first.  lia is the one-coordinate case: no generator is EMPTY, an
    (ω) makes ALL, and otherwise the working-minimal threshold k gives
    AtLeast(k)."""
    if base == ALL:
        return ALL
    s = 1 if theory.flipped else -1
    bounds = theory.nat_bounds(comps)
    cterms = [P.LinTerm.of_var(c) for c in comps]
    gens: list[tuple[int | None, ...]] = (
        list(base.gens) if isinstance(base, Antichain)
        else [(base.k,)] if isinstance(base, AtLeast) else [])

    def atleast(c: str, v: int) -> P.Formula:
        return P.ge(P.LinTerm.of_var(c, s), P.LinTerm.of_const(v))

    cones: dict[tuple, bool] = {}  # cone query -> answer, in this call

    def recedes(leaf: list, cs: list[str]) -> bool:
        # some integer direction of the branch has s·d >= 1 on every cs;
        # never under nat upward, where x >= 0 keeps every d >= 0
        if theory.nat and not theory.flipped:
            return False
        cone = tuple(P.recession_cone(leaf) + [atleast(c, 1) for c in cs])
        if cone not in cones:
            cones[cone] = P.sat_exists_all(list(cone)) is not None
        return cones[cone]

    def reach(leaf: list, ci: str, v: int) -> int | None:
        # y_i of a point of the branch with y_i >= v, or None
        w = P.sat_exists_all(leaf + [atleast(ci, v)])
        return None if w is None else s * w.get(ci, 0)

    while True:
        ask = [phi] + bounds
        if gens:
            ask.append(P.Not(theory.upset_formula(Antichain(tuple(gens)),
                                                  cterms)))
        w = P.sat_exists_all(ask)
        if w is None:
            break
        seed = [s * w.get(c, 0) for c in comps]
        g: list[int | None] = []
        for i, ci in enumerate(comps):
            fixed = {cj: P.LinTerm.of_const(gj)
                     for cj, gj in zip(comps, g) if gj is not None}
            leaves = list(P.branches(
                [P.subst(f, fixed) for f in [phi] + bounds]
                + [atleast(cj, sj)
                   for cj, sj in zip(comps[i + 1:], seed[i + 1:])]))
            omega = [cj for cj, gj in zip(comps, g) if gj is None]
            if any(recedes(leaf, omega + [ci])
                   and P.sat_exists_all(leaf) is not None
                   for leaf in leaves):
                g.append(None)
                continue
            # bounded on every branch that reaches the ω-fibre: maximise
            # y_i per branch, jumping to each witness's value; the seed's
            # own value is reached, so no smaller one needs a query
            best = seed[i] - 1
            for leaf in leaves:
                lo = reach(leaf, ci, best + 1)
                if lo is None or (omega and not recedes(leaf, omega)):
                    continue
                step = 1
                while (up := reach(leaf, ci, lo + step)) is not None:
                    lo = up
                    step *= 2
                hi = lo + step  # no point of the branch gets here
                while hi - lo > 1:
                    mid = (lo + hi) // 2
                    up = reach(leaf, ci, mid)
                    if up is None:
                        hi = mid
                    else:
                        lo = up
                best = lo
            g.append(s * best)
        gens.append(tuple(g))
        if len(gens) > 256:
            raise FrameTooLarge("descriptor extraction did not converge")
    if theory.nat:
        return theory.canonicalize(Antichain(tuple(gens)))
    if not gens:
        return EMPTY
    if (None,) in gens:
        return ALL
    return AtLeast(s * max(s * g[0] for g in gens))


# After this many fixpoint rounds without convergence, accelerate growing
# descriptors to their limit (Karp-Miller style).  The result is then a
# post-fixpoint rather than the least model, but every candidate is
# re-verified by check_model before it is reported, so acceleration can
# only cost completeness, never soundness.
_WIDEN_AFTER = 6
# fo_least_model gives up (returns None) after this many rounds
_MAX_ROUNDS = 50


def _widen_coord(theory: Theory, gi: int | None, oi: int | None):
    if theory.flipped:
        # working order reversed: strictly larger natural value -> omega
        if oi is not None and (gi is None or gi > oi):
            return None
        return gi
    return 0 if gi < oi else gi


def _widen(theory: Theory, old: Upset, new: Upset) -> Upset:
    """Extrapolate a strictly growing descriptor towards its limit."""
    if isinstance(old, AtLeast) and isinstance(new, AtLeast):
        grew = new.k > old.k if theory.flipped else new.k < old.k
        return ALL if grew else new
    if isinstance(old, Antichain) and isinstance(new, Antichain):
        oldset = set(old.gens)
        out = []
        for g in new.gens:
            if g not in oldset:
                for o in old.gens:
                    if theory.w_leq(g, o):  # g strictly enlarges o
                        g = tuple(_widen_coord(theory, gi, oi)
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
        interps: dict[str, Value] = {}
        for pname, psort in p.decls:
            vals = list(tables[pname].values())
            if W in arg_sorts(psort):
                interps[pname] = ActVal(psort, tuple(vals))
            elif psort == PROP:
                interps[pname] = vals[0]
            else:
                interps[pname] = FnVal(psort, tuple(vals))
        return EntwinedStructure(p, theory, interps)

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
            wset = set(wvars)
            gvars = [(n, s) for n, s in c.vars if s != W]
            hw = next((t.name for t in hargs if t.name in wset), None)
            hground = [t.name for t in hargs if t.name not in wset]
            table = tables[hname]
            for combo in itertools.product(*(m.frame(s) for _, s in gvars)):
                val = {n: v for (n, _), v in zip(gvars, combo)}
                row = tuple(val[n] for n in hground)
                body = _body_formula(m, c.body, wset, val)
                if body is P.FALSE:
                    continue
                if hw is None:
                    if table[row]:
                        continue
                    evars = [v for n in wvars for v in _w_comps(n, theory.dim)]
                    # the body is quantifier-free: a purely existential query
                    if P.sat_exists_all([body] + theory.nat_bounds(evars)) \
                            is not None:
                        table[row] = True
                        version[hname] += 1
                        changed = True
                        m = structure()
                    continue
                old = table[row]
                comps = _w_comps(hw, theory.dim)
                others = [v for n in wvars if n != hw
                          for v in _w_comps(n, theory.dim)]
                # the other components stay free: read existentially
                f = P.conj([body] + theory.nat_bounds(others))
                new = extract_upset(theory, f, comps, old)
                if new == old:
                    continue
                if rnd >= _WIDEN_AFTER:
                    new = _widen(theory, old, new)
                table[row] = new
                version[hname] += 1
                changed = True
                m = structure()
        if not changed:
            return m
    return None


# ---------------------------------------------------------------------------
# serialization


def _canon_to_json(c: CanonicalValue) -> dict:
    match c:
        case Top(s):
            return {"top": print_sort(s)}
        case SVal(n):
            return {"s": n}
        case PredApp(p_, args):
            return {"app": [p_] + [_canon_to_json(a) for a in args]}
    raise TypeError(c)


def _canon_from_json(d, depth: int = 0) -> CanonicalValue:
    # a value nests no deeper than its sort, and the reader bounds sorts
    if depth > MAX_DEPTH:
        raise SchemaError("canonical value nested too deeply")
    if not isinstance(d, dict):
        raise SchemaError(f"bad canonical value {d!r}")
    if "top" in d:
        return Top(_sort_from_str(d["top"]))
    if "s" in d:
        return SVal(str(d["s"]))
    if "app" in d:
        a = d["app"]
        if not isinstance(a, list) or not a or not isinstance(a[0], str):
            raise SchemaError("bad application value")
        return PredApp(a[0], tuple(_canon_from_json(x, depth + 1)
                                   for x in a[1:]))
    raise SchemaError(f"bad canonical value {d!r}")


def _sort_from_str(s: str) -> Sort:
    from .syntax import _parse_sort, read_sexprs
    try:
        return _parse_sort(read_sexprs(s)[0])
    except Exception as e:
        raise SchemaError(f"bad sort string {s!r}: {e}")


def serialize_model(m: EntwinedStructure) -> dict:
    p = m.problem
    stages = max((type_order(s) for _, s in p.decls), default=1)
    preds = {}
    for pname, psort in p.decls:
        v = m.interps[pname]
        kind = "active" if psort != PROP and classify(psort) == "active" \
            else "inactive"
        rows = []
        if kind == "active":
            assert isinstance(v, ActVal)
            wpos = w_position(psort)
            nw = nonw_sorts(psort)
            for row, desc in zip(m.rows(psort), v.descs):
                pre = row[:wpos]
                post = row[wpos:]
                rows.append({
                    "pre": [_canon_to_json(m.canon_of(s_, x))
                            for s_, x in zip(nw[:wpos], pre)],
                    "post": [_canon_to_json(m.canon_of(s_, x))
                             for s_, x in zip(nw[wpos:], post)],
                    "upset": upset_to_json(desc),
                })
        else:
            table = (v,) if psort == PROP else v.vals
            args_sorts = arg_sorts(psort)
            for combo, b in zip(m.rows(psort), table):
                rows.append({
                    "args": [_canon_to_json(m.canon_of(s_, x))
                             for s_, x in zip(args_sorts, combo)],
                    "value": bool(b),
                })
        preds[pname] = {"kind": kind, "rows": rows}
    return {"stages": stages, "predicates": preds}


def _truth(row: dict, pname: str) -> bool:
    v = row["value"]
    if not isinstance(v, bool):
        raise SchemaError(f"value in {pname!r} is not a JSON boolean: {v!r}")
    return v


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
        kind = "active" if psort != PROP and classify(psort) == "active" \
            else "inactive"
        if not isinstance(entry, dict) or entry.get("kind") != kind or \
                not isinstance(entry.get("rows"), list):
            raise SchemaError(f"bad entry for predicate {pname!r}")
        for r in entry["rows"]:
            if not isinstance(r, dict) or any(
                    not isinstance(r.get(k, []), list)
                    for k in ("pre", "post", "args")):
                raise SchemaError(f"bad row in {pname!r}")
        if psort == PROP:
            rows = entry["rows"]
            if len(rows) != 1 or "value" not in rows[0]:
                raise SchemaError(f"bad propositional entry {pname!r}")
            interps[pname] = _truth(rows[0], pname)
            continue
        # one cell per row of the sort: a descriptor or a truth value
        nw = nonw_sorts(psort)
        table: dict[tuple, Upset | bool] = {}
        for r in entry["rows"]:
            if ("upset" if kind == "active" else "value") not in r:
                raise SchemaError(f"bad row in {pname!r}")
            args = r.get("pre", []) + r.get("post", []) \
                if kind == "active" else r.get("args", [])
            # an active row's arguments split at the numeric slot
            if len(args) != len(nw) or kind == "active" and \
                    len(r.get("pre", [])) != w_position(psort):
                raise FrameInconsistency(f"row arity mismatch for {pname!r}")
            key = tuple(m.resolve_canon(s_, _canon_from_json(x))
                        for s_, x in zip(nw, args))
            if kind == "active":
                try:
                    cell = theory.canonicalize(upset_from_json(r["upset"]))
                except Exception as e:
                    raise SchemaError(f"bad upset in {pname!r}: {e}")
            else:
                cell = _truth(r, pname)
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
        interps[pname] = (ActVal if kind == "active" else FnVal)(
            psort, tuple(cells))
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
