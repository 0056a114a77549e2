"""Background theories and upset descriptors.

A theory fixes the numeric domain (Z for lia, N^d for nat) and a *working*
preorder: the natural componentwise order, or its converse for downward
problems.  A descriptor denotes a set that is upward closed in the working
order by its finite basis of minimal points: Empty, All, or an
Antichain(gens), the union of the principal upsets of its generators.  Over
lia (a total order) the basis has one point, so a threshold k is
Antichain(((k,),)), written to JSON as {"kind": "atleast", "k": k}.

A generator coordinate may be None ("omega"), the working order's bottom
where it has none in the domain (Theory.bottom): under downward nat a
generator needs it to describe sets such as the whole domain.  Under lia
the one coordinate is then the bottom itself, so canonicalize turns any
such generator into All and omega never survives in a lia descriptor.

Descriptors are checked and made canonical where they are made
(canonicalize, upset_from_json); the other consumers trust them.
"""

from __future__ import annotations

import itertools
from functools import reduce
from typing import Iterator, Sequence

from . import presburger as P
from .presburger import Formula, LinTerm
from .record import Record
from .syntax import W, BgAtom, SConst, Term, Var, WLit, WOp, _json_int


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


class Antichain(Record):
    __slots__ = __match_args__ = ("gens",)  # None in a generator = omega

    def __hash__(self) -> int:
        """The hash of the fields with ω read as -1, which no natural takes
        and no canonical lia descriptor holds (ω never survives canonicalize
        there): hash(None) can differ between processes.  Equality is by
        gens."""
        h = self._hash
        if h is None:
            h = self._hash = hash((tuple(
                tuple(-1 if x is None else x for x in g) for g in self.gens),))
        return h

    def __str__(self) -> str:
        def fmt(g):
            return "(" + ",".join("w" if x is None else str(x) for x in g) + ")"
        return "{" + ",".join(fmt(g) for g in self.gens) + "}"


Upset = Empty | All | Antichain

EMPTY = Empty()
ALL = All()


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

    @property
    def bottom(self) -> int | None:
        """The working order's bottom in one coordinate: 0 under nat upward,
        ω (None) where the domain has none in that order."""
        return 0 if self.nat and not self.flipped else None

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
            case Antichain(gens):
                return any(self.w_leq(g, w) for g in gens)
        raise TypeError(u)

    def canonicalize(self, u: Upset) -> Upset:
        """One descriptor per denoted set, so that structural equality is
        extensional: an antichain without generators is EMPTY, one holding
        the working order's bottom is ALL, and any other keeps its minimal
        generators, once each, in a fixed order.  A TheoryError for a
        generator that is not a point of the domain, with ω only where the
        bottom is ω."""
        if not isinstance(u, Antichain):
            return u
        gens = u.gens
        for g in gens:
            if len(g) != self.dim:
                raise TheoryError(f"generator {g} does not have {self.dim} "
                                  "coordinates")
            if None in g and self.bottom is not None:
                raise TheoryError("omega coordinates only in the flipped order")
            if self.nat and any(x is not None and x < 0 for x in g):
                raise TheoryError(f"generator {g} outside the domain")
        if not gens:
            return EMPTY
        if (self.bottom,) * self.dim in gens:
            return ALL
        keep = []
        for g in gens:
            if any(h != g and self.w_leq(h, g) for h in gens):
                continue
            if g not in keep:
                keep.append(g)
        return Antichain(tuple(sorted(keep, key=_gen_key)))

    def upset_formula(self, u: Upset, vs: Sequence[LinTerm]) -> Formula:
        """Membership of the point whose components are the terms vs."""
        if len(vs) != self.dim:
            raise TheoryError("component count mismatch")
        match u:
            case Empty():
                return P.FALSE
            case All():
                return P.TRUE
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

    # -- complements -----------------------------------------------------
    #
    # The complement of an upset is downward closed, a finite union of
    # ideals (Finkel & Goubault-Larrecq, STACS 2009): over the integers,
    # boxes y <= cap with y the point in the working order (x, or -x when
    # flipped) and None for an unbounded coordinate.  A negated membership
    # is read as these pieces, not as the product of negated generators.

    def cut(self, pieces: list[tuple], g: Sequence[int | None]) -> list[tuple]:
        """The pieces of the complement of ↑(G ∪ {g}) from those of ↑G's: a
        piece that misses ↑g stays whole; one that meets it gives way to its
        parts beyond each bound of g, less those inside a kept piece or
        inside another piece's part.  No two pieces nest or repeat; kept
        pieces come first, then parts by parent and coordinate."""
        s = -1 if self.flipped else 1
        caps = [(i, s * x - 1) for i, x in enumerate(g) if x is not None]
        kept: list[tuple] = []
        parts: list[list[tuple]] = []
        for p in pieces:
            if any(p[i] is not None and p[i] <= c for i, c in caps):
                kept.append(p)
            else:
                parts.append([p[:i] + (c,) + p[i + 1:] for i, c in caps])
        out = kept[:]
        for i, mine in enumerate(parts):
            others = kept + [r for j, theirs in enumerate(parts) if j != i
                             for r in theirs]
            out += [q for q in mine
                    if not any(self._leq_nat(q, r) for r in others)]
        return out

    def complement_pieces(self, gens: Sequence[tuple]) -> list[tuple]:
        """The pieces of the complement of ↑gens, cut from the whole space."""
        return reduce(self.cut, gens, [(None,) * self.dim])

    def piece_rows(self, piece: tuple, vs: Sequence[LinTerm]) -> list[Formula]:
        """One piece at the point whose components are vs, as its box's
        literals, one per bounded coordinate."""
        s = -1 if self.flipped else 1
        return [P.le(x.scale(s), LinTerm.of_const(c))
                for x, c in zip(vs, piece) if c is not None]

    def pieces_formula(self, pieces: list[tuple],
                       vs: Sequence[LinTerm]) -> Formula:
        """The union of the pieces at the point whose components are vs."""
        return P.disj(P.conj(self.piece_rows(p, vs)) for p in pieces)

    def complement_formula(self, u: Upset, vs: Sequence[LinTerm]) -> Formula:
        """Non-membership of the point whose components are the terms vs."""
        if len(vs) != self.dim:
            raise TheoryError("component count mismatch")
        match u:
            case Empty():
                return P.TRUE
            case All():
                return P.FALSE
            case Antichain(gens):
                return self.pieces_formula(self.complement_pieces(gens), vs)
        raise TypeError(u)

    # -- enumeration -----------------------------------------------------

    def enumerate_upsets(self) -> Iterator[Upset]:
        """Fair, injective, canonical enumeration of all descriptors."""
        if self.kind == "lia":
            yield EMPTY
            yield ALL
            yield Antichain(((0,),))
            for k in itertools.count(1):
                yield Antichain(((k,),))
                yield Antichain(((-k,),))
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


def upset_to_json(u: Upset, theory: Theory) -> dict:
    match u:
        case Empty():
            return {"kind": "empty"}
        case All():
            return {"kind": "all"}
        case Antichain(((k,),)) if not theory.nat:
            return {"kind": "atleast", "k": k}
        case Antichain(gens):
            return {"kind": "antichain", "min": [list(g) for g in gens]}
    raise TypeError(u)


def upset_from_json(d: dict, theory: Theory) -> Upset:
    """The canonical descriptor a witness row gives (canonicalize): a
    threshold under lia, an antichain under nat; a TheoryError for any
    other."""
    match d.get("kind"), theory.nat:
        case "empty", _:
            return EMPTY
        case "all", _:
            return ALL
        case "atleast", False:
            u = Antichain(((_json_int(d["k"]),),))
        case "antichain", True:
            u = Antichain(tuple(tuple(None if x is None else _json_int(x)
                                      for x in g) for g in d["min"]))
        case _:
            raise TheoryError(f"bad upset descriptor {d!r}")
    return theory.canonicalize(u)


# ---------------------------------------------------------------------------
# compiling background atoms to arithmetic


def comp_var(name: str, i: int) -> str:
    """Component variable name for component i (1-based) of W variable name."""
    return f"{name}#{i}"


def w_var_terms(name: str, dim: int) -> list[LinTerm]:
    return [LinTerm.of_var(comp_var(name, i + 1)) for i in range(dim)]


def components(t: Term, dim: int) -> list[LinTerm]:
    """Compile a numeric term to its component LinTerms: dim of them, or one
    for a scalar term, which stands for that value in every coordinate (so
    each component of a scalar is the scalar)."""
    match t:
        case Var(n):
            return w_var_terms(n, dim)
        case WLit(vals):
            return [LinTerm.of_const(v) for v in vals]
        case WOp("comp", (a,), k):
            cs = components(a, dim)
            return [cs[k - 1] if len(cs) > 1 else cs[0]]
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
    the integer equality lhs - rhs = 0, its sides kept in place (FALSE
    against a constant outside fin_elems)."""
    if atom.rel == "eqs":
        sides = [_eqs_side(t, sval_env) for t in (atom.lhs, atom.rhs)]
        if all(isinstance(x, str) for x in sides):
            return P.TRUE if sides[0] == sides[1] else P.FALSE
        for j, x in enumerate(sides):
            if isinstance(x, str):
                if x not in fin_elems:
                    return P.FALSE
                sides[j] = LinTerm.of_const(fin_elems.index(x))
        return P.eq(*sides)

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


def compile_conj(atoms: Sequence[BgAtom], wvars: Sequence[str],
                 theory: Theory, fin_elems: Sequence[str]) -> list[Formula]:
    """The atoms compiled, then the nat bounds of the components of the W
    variables wvars."""
    fs = [compile_atom(a, theory, fin_elems=fin_elems) for a in atoms]
    return fs + theory.nat_bounds([comp_var(n, i + 1) for n in wvars
                                   for i in range(theory.dim)])


def exists_sat(atoms: Sequence[BgAtom], varsorts: dict[str, object],
               theory: Theory, fin_elems: Sequence[str]) -> bool:
    """Is the existential closure of the conjunction satisfiable?  Finite-sort
    variables occur only in eqs atoms, which compile to equalities among
    integer indices: satisfiable over Z exactly when over a non-empty S."""
    wvars = [n for n, s in varsorts.items() if s == W]
    return P.sat_exists_all(compile_conj(atoms, wvars, theory,
                                         fin_elems)) is not None


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
    return bg_extend(BgState({}, [], {}),
                     compile_conj(atoms, wvars, theory, fin_elems))


def bg_extend(state: BgState, fs: Sequence[Formula]) -> BgState | None:
    """Conjoin compiled formulas (background atoms, and nonnegativity bounds
    for new numeric variables) onto a reduced state; None when
    unsatisfiable.  reduce_conj folds the parent's pins into any formula
    that still mentions a pinned variable; the parent's residual is already
    reduced under them."""
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
