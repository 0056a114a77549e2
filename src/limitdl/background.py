"""Background theories and upset descriptors.

A theory fixes the numeric domain (Z for lia, N^d for nat) and a *working*
preorder: the natural componentwise order, or its converse for downward
problems.  Descriptors denote sets that are upward closed in the working
order:

  lia:  Empty | All | AtLeast(k)         ({w : k <=_work w})
  nat:  Antichain(gens)                  (union of principal upsets)

For downward nat problems generators may carry None ("omega") coordinates,
since the converse order needs unbounded generators to describe sets such
as the whole domain.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from . import presburger as P
from .presburger import Formula, LinTerm
from .record import Record
from .syntax import W, BgAtom, SConst, Term, Var, WLit, WOp


class TheoryError(Exception):
    pass


# ---------------------------------------------------------------------------
# descriptors


class Empty(Record):
    __slots__ = ()

    def __str__(self) -> str:
        return "empty"


class All(Record):
    __slots__ = ()

    def __str__(self) -> str:
        return "all"


class AtLeast(Record):
    __slots__ = __match_args__ = ("k",)

    def __str__(self) -> str:
        return f"atleast({self.k})"


class Antichain(Record):
    __slots__ = __match_args__ = ("gens",)  # None in a generator = omega

    def __str__(self) -> str:
        def fmt(g):
            return "(" + ",".join("w" if x is None else str(x) for x in g) + ")"
        return "{" + ",".join(fmt(g) for g in self.gens) + "}"


Upset = Empty | All | AtLeast | Antichain

EMPTY = Empty()
ALL = All()


def upset_to_json(u: Upset) -> dict:
    match u:
        case Empty():
            return {"kind": "empty"}
        case All():
            return {"kind": "all"}
        case AtLeast(k):
            return {"kind": "atleast", "k": k}
        case Antichain(gens):
            return {"kind": "antichain", "min": [list(g) for g in gens]}
    raise TypeError(u)


def upset_from_json(d: dict) -> Upset:
    match d.get("kind"):
        case "empty":
            return EMPTY
        case "all":
            return ALL
        case "atleast":
            return AtLeast(int(d["k"]))
        case "antichain":
            return Antichain(tuple(
                tuple(None if x is None else int(x) for x in g) for g in d["min"]))
    raise TheoryError(f"bad upset descriptor {d!r}")


# ---------------------------------------------------------------------------
# theory handle


def _gen_key(g: tuple[int | None, ...]):
    return tuple((x is None, x if x is not None else 0) for x in g)


class Theory:
    """Background theory with a working order (natural or flipped)."""

    def __init__(self, kind: str, dim: int, flipped: bool):
        if kind not in ("lia", "nat"):
            raise TheoryError(f"unknown theory {kind!r}")
        if kind == "lia" and dim != 1:
            raise TheoryError("lia is one-dimensional")
        self.kind = kind
        self.dim = dim
        self.flipped = flipped

    @property
    def nat(self) -> bool:
        return self.kind == "nat"

    # -- order ---------------------------------------------------------

    def in_domain(self, w: Sequence[int]) -> bool:
        if len(w) != self.dim:
            return False
        return not self.nat or all(x >= 0 for x in w)

    def _leq_nat(self, a, b) -> bool:
        # componentwise, None (omega) above everything
        for x, y in zip(a, b):
            if y is None:
                continue
            if x is None or x > y:
                return False
        return True

    def w_leq(self, a: Sequence[int], b: Sequence[int]) -> bool:
        """a <= b in the working order."""
        a, b = tuple(a), tuple(b)
        return self._leq_nat(b, a) if self.flipped else self._leq_nat(a, b)

    # -- descriptors -----------------------------------------------------

    def member(self, w: Sequence[int], u: Upset) -> bool:
        w = tuple(w)
        if not self.in_domain(w):
            raise TheoryError(f"{w} outside the domain")
        match u:
            case Empty():
                return False
            case All():
                return True
            case AtLeast(k):
                if self.kind != "lia":
                    raise TheoryError("atleast descriptor outside lia")
                return w[0] <= k if self.flipped else w[0] >= k
            case Antichain(gens):
                if self.kind != "nat":
                    raise TheoryError("antichain descriptor outside nat")
                return any(self.w_leq(g, w) for g in gens)
        raise TypeError(u)

    def canonicalize(self, u: Upset) -> Upset:
        """One descriptor per denoted set, so that structural equality is
        extensional: an antichain without generators is EMPTY, one holding
        the working order's bottom is ALL, and any other keeps its minimal
        generators, once each, in a fixed order."""
        match u:
            case Empty() | All() | AtLeast():
                return u
            case Antichain(gens):
                if self.kind != "nat":
                    raise TheoryError("antichain descriptor outside nat")
                if not self.flipped and any(x is None for g in gens for x in g):
                    raise TheoryError("omega coordinates only in the flipped order")
                if not gens:
                    return EMPTY
                if (None if self.flipped else 0,) * self.dim in gens:
                    return ALL
                keep = []
                for g in gens:
                    if any(h != g and self.w_leq(h, g) for h in gens):
                        continue
                    if g not in keep:
                        keep.append(g)
                return Antichain(tuple(sorted(keep, key=_gen_key)))
        raise TypeError(u)

    def upset_formula(self, u: Upset, vs: Sequence[LinTerm]) -> Formula:
        """Membership of the point whose components are the terms vs."""
        if len(vs) != self.dim:
            raise TheoryError("component count mismatch")
        match u:
            case Empty():
                return P.FALSE
            case All():
                return P.TRUE
            case AtLeast(k):
                kk = LinTerm.of_const(k)
                return P.le(vs[0], kk) if self.flipped else P.ge(vs[0], kk)
            case Antichain(gens):
                disjuncts = []
                for g in gens:
                    lits = []
                    for x, gi in zip(vs, g):
                        if gi is None:
                            continue
                        c = LinTerm.of_const(gi)
                        lits.append(P.le(x, c) if self.flipped else P.ge(x, c))
                    disjuncts.append(P.conj(lits))
                return P.disj(disjuncts)
        raise TypeError(u)

    # -- enumeration -----------------------------------------------------

    def enumerate_upsets(self) -> Iterator[Upset]:
        """Fair, injective, canonical enumeration of all descriptors."""
        if self.kind == "lia":
            yield EMPTY
            yield ALL
            yield AtLeast(0)
            k = 1
            while True:
                yield AtLeast(k)
                yield AtLeast(-k)
                k += 1
        else:
            seen: set[Upset] = set()
            budget = 1
            while True:
                entries: list[int | None] = list(range(budget))
                if self.flipped:
                    entries.append(None)
                grid = sorted(itertools.product(entries, repeat=self.dim),
                              key=lambda g: _gen_key(g))

                def extend(prefix: list, start: int) -> Iterator[Upset]:
                    yield self.canonicalize(Antichain(tuple(prefix)))
                    if len(prefix) < budget:
                        for i in range(start, len(grid)):
                            g = grid[i]
                            if all(not self.w_leq(h, g) and not self.w_leq(g, h)
                                   for h in prefix):
                                yield from extend(prefix + [g], i + 1)

                for a in extend([], 0):
                    if a not in seen:
                        seen.add(a)
                        yield a
                budget += 1

    def nat_bounds(self, comps: Sequence[str]) -> list[Formula]:
        """``c >= 0`` for each component variable under nat; none under lia."""
        if not self.nat:
            return []
        return [P.ge(LinTerm.of_var(c), LinTerm.of_const(0)) for c in comps]


def theory_for(kind: str, dim: int, direction: str) -> Theory:
    return Theory(kind, dim, flipped=(direction == "downward"))


# ---------------------------------------------------------------------------
# compiling background atoms to arithmetic


def comp_var(name: str, i: int) -> str:
    """Component variable name for component i (1-based) of W variable name."""
    return f"{name}#{i}"


def w_var_terms(name: str, dim: int) -> list[LinTerm]:
    return [LinTerm.of_var(comp_var(name, i + 1)) for i in range(dim)]


def components(t: Term, dim: int) -> list[LinTerm]:
    """Compile a numeric term to its component LinTerms: dim of them, or one
    for a scalar term, which stands for that value in every coordinate."""
    match t:
        case Var(n):
            return w_var_terms(n, dim)
        case WLit(vals):
            return [LinTerm.of_const(v) for v in vals]
        case WOp("comp", (a,), k):
            cs = components(a, dim)
            if len(cs) != dim:
                raise TheoryError("comp applied to a scalar term")
            return [cs[k - 1]]
        case WOp("scale", (a,), k):
            return [c.scale(k) for c in components(a, dim)]
        case WOp("+" | "-" as op, (a, b)):
            ca = components(a, dim)
            cb = components(b, dim)
            if len(ca) == 1 and len(cb) > 1:
                ca = ca * len(cb)
            if len(cb) == 1 and len(ca) > 1:
                cb = cb * len(ca)
            if len(ca) != len(cb):
                raise TheoryError("component count mismatch in arithmetic")
            if op == "+":
                return [x.add(y) for x, y in zip(ca, cb)]
            return [x.sub(y) for x, y in zip(ca, cb)]
    raise TheoryError(f"not a numeric term: {t}")


def _eqs_side(t: Term, sval_env: dict[str, str] | None) -> str | LinTerm:
    """An eqs argument: a constant's name, or the index variable of an
    unvalued finite-sort variable."""
    if isinstance(t, SConst):
        return t.name
    if isinstance(t, Var):
        if sval_env is not None and t.name in sval_env:
            return sval_env[t.name]
        return LinTerm.of_var(comp_var(t.name, 0))
    raise TheoryError("eqs arguments must be finite constants or variables")


def compile_atom(atom: BgAtom, theory: Theory,
                 sval_env: dict[str, str] | None = None,
                 fin_elems: Sequence[str] = ()) -> Formula:
    """Translate a background atom to arithmetic.  Comparisons are over the
    natural order (the working order only affects descriptors).  An eqs atom
    folds to TRUE or FALSE when both sides are constants or valued by
    sval_env; otherwise a finite-sort variable v reads as the integer
    comp_var(v, 0) and a constant as its index in fin_elems, so the atom is
    an integer equality (FALSE against a constant outside fin_elems)."""
    if atom.rel == "eqs":
        l, r = (_eqs_side(t, sval_env) for t in (atom.lhs, atom.rhs))
        if isinstance(l, str) and isinstance(r, str):
            return P.TRUE if l == r else P.FALSE
        if isinstance(l, str):
            l, r = r, l
        if isinstance(r, str):
            if r not in fin_elems:
                return P.FALSE
            r = LinTerm.of_const(fin_elems.index(r))
        return P.eq(l, r)

    ls = components(atom.lhs, theory.dim)
    rs = components(atom.rhs, theory.dim)
    if len(ls) == 1 and len(rs) > 1:
        ls = ls * len(rs)
    if len(rs) == 1 and len(ls) > 1:
        rs = rs * len(ls)
    if len(ls) != len(rs):
        raise TheoryError("comparison between different component counts")
    pairs = list(zip(ls, rs))
    match atom.rel:
        case "eq":
            return P.conj(P.eq(a, b) for a, b in pairs)
        case "neq":
            return P.disj(P.ne(a, b) for a, b in pairs)
        case "leq":
            return P.conj(P.le(a, b) for a, b in pairs)
        case "geq":
            return P.conj(P.ge(a, b) for a, b in pairs)
        case "lt":
            if len(pairs) == 1:
                return P.lt(*pairs[0])
            return P.conj([P.conj(P.le(a, b) for a, b in pairs),
                           P.disj(P.lt(a, b) for a, b in pairs)])
        case "gt":
            if len(pairs) == 1:
                return P.gt(*pairs[0])
            return P.conj([P.conj(P.ge(a, b) for a, b in pairs),
                           P.disj(P.gt(a, b) for a, b in pairs)])
    raise TheoryError(f"unknown relation {atom.rel!r}")


# ---------------------------------------------------------------------------
# satisfiability of background conjunctions


def exists_sat(atoms: Sequence[BgAtom], varsorts: dict[str, object],
               theory: Theory, fin_elems: Sequence[str]) -> bool:
    """Is the existential closure of the conjunction satisfiable?  Finite-sort
    variables occur only in eqs atoms, which compile to equalities among
    integer indices: satisfiable over Z exactly when over a non-empty S."""
    wvars = [n for n, s in varsorts.items() if s == W]
    fs = [compile_atom(a, theory, fin_elems=fin_elems) for a in atoms]
    fs += theory.nat_bounds([comp_var(n, i + 1) for n in wvars
                             for i in range(theory.dim)])
    return P.sat_exists_all(fs) is not None


# ---------------------------------------------------------------------------
# incremental background state for the refutation search
#
# Goals only ever gain background atoms, so each search node carries the
# equality-reduced residual of its constraint system plus the accumulated
# variable pins; a resolution step then costs work proportional to the few
# atoms it adds rather than to the whole system.


class BgState(Record):
    """A reduced conjunction: the pinned variables, the residual
    quantifier-free formulas (conjoined) and a satisfying assignment,
    witness, in which absent variables read as 0."""

    __slots__ = __match_args__ = ("pins", "residual", "witness")
    __hash__ = None


def bg_state(atoms: Sequence[BgAtom], wvars: Sequence[str], theory: Theory,
             fin_elems: Sequence[str]) -> BgState | None:
    """Reduced state for a fresh conjunction; None when unsatisfiable."""
    st = BgState({}, [], {})
    return bg_extend(st, atoms, wvars, theory, fin_elems)


def bg_extend(state: BgState, new_atoms: Sequence[BgAtom],
              new_wvars: Sequence[str], theory: Theory,
              fin_elems: Sequence[str]) -> BgState | None:
    """Conjoin new atoms (and nonnegativity bounds for new numeric
    variables) onto a reduced state; None when unsatisfiable.  reduce_conj
    folds the parent's pins into the new atoms; the parent's residual is
    already reduced under them."""
    fs = [compile_atom(a, theory, fin_elems=fin_elems) for a in new_atoms]
    fs += theory.nat_bounds([comp_var(n, i + 1) for n in new_wvars
                             for i in range(theory.dim)])
    if not fs:
        return state
    pins = dict(state.pins)
    residual = P.reduce_conj(fs, pins, state.residual)
    if residual is None:
        return None
    # the parent's witness usually still works; solve only when it fails
    w = state.witness
    if all(P.evaluate(f, w) for f in residual):
        return BgState(pins, residual, w)
    w = P.sat_exists_all(residual)
    if w is None:
        return None
    return BgState(pins, residual, w)
