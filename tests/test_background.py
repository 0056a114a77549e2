"""Descriptor and theory tests.

Oracles: membership is cross-checked against the arithmetic formula route
(upset_formula + decide) on sampled points; canonicalization against a
brute-force minimal-generator computation.
"""

import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from limitdl import presburger as P
from limitdl.background import (
    ALL, Antichain, EMPTY, Theory, TheoryError, bg_extend, bg_state,
    comp_var, compile_atom, compile_conj, exists_sat, theory_for,
    upset_from_json, upset_to_json,
)
from limitdl.syntax import BgAtom, FIN, SConst, Var, W, WLit, WOp
from oracles import deadline, enumerated_exists_sat


LIA_UP = Theory("lia", 1, flipped=False)
LIA_DOWN = Theory("lia", 1, flipped=True)
NAT2_UP = Theory("nat", 2, flipped=False)
NAT2_DOWN = Theory("nat", 2, flipped=True)


def test_member_lia():
    assert LIA_UP.member((5,), Antichain(((3,),)))
    assert not LIA_UP.member((2,), Antichain(((3,),)))
    assert LIA_DOWN.member((2,), Antichain(((3,),)))
    assert not LIA_DOWN.member((5,), Antichain(((3,),)))
    assert LIA_UP.member((-10,), ALL)
    assert not LIA_UP.member((-10,), EMPTY)


def test_member_nat():
    u = Antichain(((1, 2), (3, 0)))
    assert NAT2_UP.member((1, 2), u)
    assert NAT2_UP.member((5, 5), u)
    assert not NAT2_UP.member((0, 5), u)
    assert NAT2_UP.member((3, 0), u)
    d = Antichain(((1, 2),))
    assert NAT2_DOWN.member((0, 0), d)
    assert NAT2_DOWN.member((1, 2), d)
    assert not NAT2_DOWN.member((2, 0), d)
    omega = Antichain(((None, 3),))
    assert NAT2_DOWN.member((100, 3), omega)
    assert not NAT2_DOWN.member((0, 4), omega)


def test_domain_check():
    with pytest.raises(TheoryError):
        NAT2_UP.member((-1, 0), ALL)
    with pytest.raises(TheoryError):
        LIA_UP.member((1, 2), ALL)


def test_canonicalize_removes_dominated():
    u = Antichain(((1, 2), (2, 2), (3, 0), (1, 2)))
    c = NAT2_UP.canonicalize(u)
    assert c == Antichain(((1, 2), (3, 0)))
    # flipped: (2,2) dominates (1,2)
    c2 = NAT2_DOWN.canonicalize(u)
    assert c2 == Antichain(((2, 2), (3, 0)))


def test_canonicalize_idempotent_random():
    rng = random.Random(7)
    for _ in range(200):
        gens = tuple(tuple(rng.randint(0, 4) for _ in range(2))
                     for _ in range(rng.randint(0, 5)))
        for th in (NAT2_UP, NAT2_DOWN):
            c = th.canonicalize(Antichain(gens))
            assert th.canonicalize(c) == c
            # same denotation on a sample window
            for w in itertools.product(range(6), repeat=2):
                assert th.member(w, c) == th.member(w, Antichain(gens))


def test_member_monotone_in_working_order():
    rng = random.Random(11)
    for th in (NAT2_UP, NAT2_DOWN):
        ups = []
        it = th.enumerate_upsets()
        for _ in range(60):
            ups.append(next(it))
        for u in ups:
            for _ in range(30):
                a = tuple(rng.randint(0, 6) for _ in range(2))
                b = tuple(rng.randint(0, 6) for _ in range(2))
                if th.w_leq(a, b) and th.member(a, u):
                    assert th.member(b, u)


def test_formula_agreement_1000_samples():
    """member(w, u) must agree with deciding the compiled membership formula."""
    rng = random.Random(3)
    checked = 0
    for th in (LIA_UP, LIA_DOWN, NAT2_UP, NAT2_DOWN):
        it = th.enumerate_upsets()
        ups = [next(it) for _ in range(40)]
        comps = [comp_var("w", i + 1) for i in range(th.dim)]
        for u in ups:
            f = th.upset_formula(u, [P.LinTerm.of_var(c) for c in comps])
            for _ in range(10):
                if th.nat:
                    w = tuple(rng.randint(0, 8) for _ in range(th.dim))
                else:
                    w = (rng.randint(-8, 8),)
                env = dict(zip(comps, w))
                assert P.evaluate(P.nnf(f), env) == th.member(w, u), (th.kind, th.flipped, u, w)
                checked += 1
    assert checked >= 1000


COMPLEMENT_THEORIES = [Theory(kind, dim, flipped=flipped)
                       for kind, dims in (("lia", (1,)), ("nat", (1, 2, 3)))
                       for dim in dims for flipped in (False, True)]


def _rand_gen(rng, th):
    """A generator with entries in [-4, 4] under lia and [0, 4] under nat,
    ω at a fifth of the coordinates where the bottom is ω."""
    lo = -4 if th.kind == "lia" else 0
    return tuple(None if th.bottom is None and rng.random() < 0.2
                 else rng.randint(lo, 4) for _ in range(th.dim))


def _rand_antichain(rng, th):
    """The canonical descriptor of 1-4 fixed-seed generators (_rand_gen):
    an ω under lia gives ALL."""
    return th.canonicalize(Antichain(tuple(
        _rand_gen(rng, th) for _ in range(rng.randint(1, 4)))))


def test_complement_is_the_union_of_its_maximal_pieces():
    """Theory writes a descriptor's complement as a union of boxes.  On
    lia and nat 1-3, in both directions, with 40 fixed-seed antichains
    each: complement_formula holds exactly at the domain points of a grid
    outside the descriptor; its pieces are pairwise not nested, on a grid
    of integers wide enough to tell any two apart; and cutting them by one
    more generator gives the pieces of the canonical descriptor of the
    union built from scratch (the maximal boxes of a finite union are
    unique, so the two lists hold the same pieces) where that descriptor
    is an antichain."""
    rng = random.Random(20261021)
    for th in COMPLEMENT_THEORIES:
        comps = [comp_var("w", i + 1) for i in range(th.dim)]
        vs = [P.LinTerm.of_var(c) for c in comps]
        lo = -6 if th.kind == "lia" else 0
        domain = list(itertools.product(range(lo, 7), repeat=th.dim))
        ints = list(itertools.product(range(-2, 7), repeat=th.dim))
        for _ in range(40):
            u = _rand_antichain(rng, th)
            f = th.complement_formula(u, vs)
            for w in domain:
                assert P.evaluate(f, dict(zip(comps, w))) != th.member(w, u), \
                    (th.kind, th.dim, th.flipped, u, w)
            if not isinstance(u, Antichain):
                continue
            pieces = th.complement_pieces(u.gens)
            sets = [frozenset(w for w in ints if P.evaluate(
                th.pieces_formula([p], vs), dict(zip(comps, w))))
                for p in pieces]
            assert all(not a <= b for a, b in
                       itertools.permutations(sets, 2)), (u, pieces)
            g = _rand_gen(rng, th)
            grown = th.canonicalize(Antichain(u.gens + (g,)))
            if isinstance(grown, Antichain):
                assert sorted(th.cut(pieces, g), key=repr) == sorted(
                    th.complement_pieces(grown.gens), key=repr), (u, g)


def test_complement_of_empty_and_all():
    for th in COMPLEMENT_THEORIES:
        vs = [P.LinTerm.of_var(comp_var("w", i + 1)) for i in range(th.dim)]
        assert th.complement_formula(EMPTY, vs) == P.TRUE
        assert th.complement_formula(ALL, vs) == P.FALSE
        with pytest.raises(TheoryError):
            th.complement_formula(EMPTY, vs + vs)


def test_complement_of_staircase_has_one_piece_per_step():
    """The complement of the nat 2 downward descriptor with the n
    generators (2i, 2(n - i)), a staircase, is n + 1 boxes (one per step),
    not the 2^n branches of its negated product."""
    for n in (1, 2, 5, 9):
        u = NAT2_DOWN.canonicalize(Antichain(tuple(
            (2 * i, 2 * (n - i)) for i in range(n))))
        vs = [P.LinTerm.of_var("x"), P.LinTerm.of_var("y")]
        neg = NAT2_DOWN.complement_formula(u, vs)
        assert type(neg) is P.Or and len(neg.args) == n + 1, neg
        member = NAT2_DOWN.upset_formula(u, vs)
        for x in range(-1, 2 * n + 2):
            for y in range(-1, 2 * n + 2):
                env = {"x": x, "y": y}
                assert P.evaluate(neg, env) != P.evaluate(member, env)


def test_enumeration_injective_and_canonical():
    for th in (LIA_UP, NAT2_UP, NAT2_DOWN):
        it = th.enumerate_upsets()
        seen = set()
        for _ in range(300):
            u = next(it)
            assert u not in seen
            seen.add(u)
            if isinstance(u, Antichain):
                assert th.canonicalize(u) == u


def test_enumeration_reaches_targets():
    def index_of(th, target, cap=5000):
        for i, u in enumerate(th.enumerate_upsets()):
            if u == target:
                return i
            if i > cap:
                raise AssertionError(f"{target} not reached in {cap}")
    assert index_of(LIA_UP, Antichain(((5,),))) < 20
    assert index_of(NAT2_UP, ALL) < 10  # the whole domain
    assert index_of(NAT2_DOWN, ALL) < 10
    assert index_of(NAT2_DOWN, Antichain(((1, 2),))) < 200
    th1 = Theory("nat", 1, flipped=True)
    assert index_of(th1, Antichain(((3,),))) < 30


def test_upset_json_roundtrip():
    """The first descriptors of each theory read back as themselves, lia
    thresholds written as "atleast" rows."""
    nat1 = (Theory("nat", 1, flipped=False), Theory("nat", 1, flipped=True))
    for th in (LIA_UP, LIA_DOWN, NAT2_UP, NAT2_DOWN) + nat1:
        for u in itertools.islice(th.enumerate_upsets(), 60):
            d = upset_to_json(u, th)
            assert upset_from_json(d, th) == u
            if not th.nat and isinstance(u, Antichain):
                assert d == {"kind": "atleast", "k": u.gens[0][0]}
    assert upset_to_json(Antichain(((-7,),)), LIA_UP) == \
        {"kind": "atleast", "k": -7}


ROUNDTRIP_THEORIES = [Theory(kind, dim, flipped=flipped)
                      for kind, dim in (("lia", 1), ("nat", 1), ("nat", 2))
                      for flipped in (False, True)]


@st.composite
def canonical_descriptors(draw):
    """A theory of ROUNDTRIP_THEORIES and a canonical descriptor of it:
    EMPTY, ALL, or 1-4 generators with entries in [-60, 60] under lia and
    [0, 60] under nat, ω allowed where the bottom is ω (nat flipped;
    under lia an ω generator canonicalizes to ALL)."""
    th = draw(st.sampled_from(ROUNDTRIP_THEORIES))
    kind = draw(st.sampled_from(["empty", "all", "antichain"]))
    if kind != "antichain":
        return th, EMPTY if kind == "empty" else ALL
    entry = st.integers(-60 if th.kind == "lia" else 0, 60)
    if th.bottom is None:
        entry = st.one_of(entry, st.none())
    gens = draw(st.lists(st.tuples(*[entry] * th.dim), min_size=1,
                         max_size=4))
    return th, th.canonicalize(Antichain(tuple(gens)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(canonical_descriptors())
def test_upset_json_text_roundtrip(case):
    """A canonical descriptor read back from the JSON text of its row is
    itself, lia thresholds through "atleast" rows."""
    th, u = case
    d = upset_to_json(u, th)
    assert upset_from_json(json.loads(json.dumps(d)), th) == u
    if not th.nat and isinstance(u, Antichain):
        assert d["kind"] == "atleast"


@pytest.mark.parametrize("th,d", [
    (NAT2_UP, {"kind": "atleast", "k": 3}),
    (LIA_UP, {"kind": "antichain", "min": [[3]]}),
    (NAT2_UP, {"kind": "antichain", "min": [[1]]}),
    (NAT2_UP, {"kind": "antichain", "min": [[1, 2, 3]]}),
    (NAT2_UP, {"kind": "antichain", "min": [[-1, 2]]}),
    (NAT2_DOWN, {"kind": "antichain", "min": [[None, -2]]}),
    (NAT2_UP, {"kind": "antichain", "min": [[None, 2]]}),
    (NAT2_UP, {"kind": "threshold"}),
], ids=["atleast-nat", "antichain-lia", "short", "long", "negative",
        "negative-omega", "omega-upward", "unknown"])
def test_upset_from_json_rejects_what_the_theory_lacks(th, d):
    with pytest.raises(TheoryError):
        upset_from_json(d, th)


def test_upset_from_json_is_canonical():
    d = {"kind": "antichain", "min": [[2, 2], [1, 2], [1, 2]]}
    assert upset_from_json(d, NAT2_UP) == Antichain(((1, 2),))
    assert upset_from_json({"kind": "antichain", "min": [[None, None]]},
                           NAT2_DOWN) == ALL
    assert upset_from_json({"kind": "antichain", "min": []}, NAT2_UP) == EMPTY


def test_compile_atom_tuples():
    th = NAT2_UP
    a = BgAtom("leq", Var("x"), WLit((3, 4)))
    f = compile_atom(a, th)
    env = {comp_var("x", 1): 2, comp_var("x", 2): 4}
    assert P.evaluate(P.nnf(f), env)
    env2 = {comp_var("x", 1): 2, comp_var("x", 2): 5}
    assert not P.evaluate(P.nnf(f), env2)
    # strict product-order lt: (3,4) < (3,4) fails, (2,4) < (3,4) holds
    b = BgAtom("lt", Var("x"), WLit((3, 4)))
    g = compile_atom(b, th)
    assert not P.evaluate(P.nnf(g), {comp_var("x", 1): 3, comp_var("x", 2): 4})
    assert P.evaluate(P.nnf(g), {comp_var("x", 1): 2, comp_var("x", 2): 4})


def test_compile_atom_components_and_arith():
    th = NAT2_UP
    a = BgAtom("eq", WOp("comp", (Var("u"),), k=1),
               WOp("+", (WOp("comp", (Var("v"),), k=2), WLit((1,)))))
    f = compile_atom(a, th)
    env = {comp_var("u", 1): 5, comp_var("v", 2): 4}
    assert P.evaluate(P.nnf(f), env)
    # in one dimension every point is a tuple of one: comp 1 is the point
    g = compile_atom(BgAtom("eq", WOp("comp", (Var("u"),), k=1), WLit((5,))),
                     LIA_UP)
    assert P.evaluate(g, {comp_var("u", 1): 5})
    assert not P.evaluate(g, {comp_var("u", 1): 4})
    # a scalar stands in every coordinate, so each of its components is it
    assert compile_atom(BgAtom("eq", WOp("comp", (WLit((5,)),), k=1),
                               WLit((5,))), th) == P.TRUE
    assert compile_atom(BgAtom("eq", WOp("comp", (WLit((4,)),), k=2),
                               WLit((5,))), th) == P.FALSE


def test_compile_eqs():
    th = LIA_UP
    assert compile_atom(BgAtom("eqs", SConst("a"), SConst("a")), th) == P.TRUE
    assert compile_atom(BgAtom("eqs", Var("s"), SConst("a")), th, {"s": "b"}) == P.FALSE
    # unvalued: an integer equality on the index of the constant
    f = compile_atom(BgAtom("eqs", SConst("b"), Var("s")), th,
                     fin_elems=("a", "b"))
    assert P.evaluate(f, {comp_var("s", 0): 1})
    assert not P.evaluate(f, {comp_var("s", 0): 0})
    g = compile_atom(BgAtom("eqs", Var("s"), Var("t")), th, fin_elems=("a",))
    assert P.evaluate(g, {comp_var("s", 0): 0, comp_var("t", 0): 0})
    assert not P.evaluate(g, {comp_var("s", 0): 0, comp_var("t", 0): 1})
    # a constant outside S equals no value of a variable
    assert compile_atom(BgAtom("eqs", Var("s"), SConst("z")), th,
                        fin_elems=("a", "b")) == P.FALSE


def test_exists_sat_basic():
    th = LIA_UP
    atoms = [BgAtom("geq", Var("x"), WLit((5,))), BgAtom("leq", Var("x"), WLit((4,)))]
    assert not exists_sat(atoms, {"x": W}, th, [])
    atoms2 = [BgAtom("geq", Var("x"), WLit((5,))), BgAtom("leq", Var("x"), WLit((9,)))]
    assert exists_sat(atoms2, {"x": W}, th, [])


def test_exists_sat_nat_bounds():
    th = Theory("nat", 1, flipped=False)
    atoms = [BgAtom("lt", Var("x"), WLit((0,)))]
    assert not exists_sat(atoms, {"x": W}, th, [])


def test_exists_sat_with_fin_vars():
    th = LIA_UP
    atoms = [BgAtom("eqs", Var("s"), SConst("b")),
             BgAtom("geq", Var("x"), WLit((0,)))]
    assert exists_sat(atoms, {"s": FIN, "x": W}, th, ["a", "b"])
    assert not exists_sat(atoms, {"s": FIN, "x": W}, th, ["a"])


def random_background(rng: random.Random):
    """A conjunction over 0-3 finite-sort and 0-2 numeric variables: eqs
    atoms among the variables, 0-3 declared constants and one undeclared
    constant `z`, mixed with numeric comparisons."""
    fin = ("a", "b", "c")[:rng.randint(0, 3)]
    svars = ["s", "t", "r"][:rng.randint(0, 3)]
    wvars = ["x", "y"][:rng.randint(0, 2)]
    th = rng.choice([LIA_UP, Theory("nat", 1, flipped=False)])

    def sterm():
        pool = [Var(n) for n in svars] + [SConst(c) for c in fin + ("z",)]
        return rng.choice(pool)

    def wterm():
        if wvars and rng.random() < 0.7:
            t = Var(rng.choice(wvars))
            if rng.random() < 0.3:
                t = WOp("+", (t, WLit((rng.randint(-2, 2),))))
            return t
        return WLit((rng.randint(-3, 3),))

    atoms = []
    for _ in range(rng.randint(0, 4)):
        if rng.random() < 0.5:
            atoms.append(BgAtom("eqs", sterm(), sterm()))
        else:
            rel = rng.choice(["leq", "lt", "geq", "gt", "eq", "neq"])
            atoms.append(BgAtom(rel, wterm(), wterm()))
    varsorts = {**{n: FIN for n in svars}, **{n: W for n in wvars}}
    return atoms, varsorts, th, fin


def test_exists_sat_matches_enumeration():
    # integer indices for finite-sort variables decide exactly what
    # trying every valuation does, as long as S is non-empty or unused
    rng = random.Random(20261018)
    checked = 0
    outcomes = set()
    while checked < 1200:
        atoms, varsorts, th, fin = random_background(rng)
        if not fin and FIN in varsorts.values():
            continue  # normalisation drops such clauses and goals
        want = enumerated_exists_sat(atoms, varsorts, th, fin)
        assert exists_sat(atoms, varsorts, th, fin) == want, \
            (atoms, varsorts, fin)
        outcomes.add(want)
        checked += 1
    assert outcomes == {True, False}


def test_exists_sat_equality_chain():
    # long substitution chains (the saturation workload)
    th = Theory("nat", 2, flipped=True)
    atoms = []
    names = [f"v{i}" for i in range(10)]
    for i in range(9):
        atoms.append(BgAtom("eq", WOp("comp", (Var(names[i + 1]),), k=1),
                            WOp("+", (WOp("comp", (Var(names[i]),), k=1), WLit((1,))))))
    atoms.append(BgAtom("eq", WOp("comp", (Var(names[0]),), k=1), WLit((0,))))
    atoms.append(BgAtom("eq", WOp("comp", (Var(names[9]),), k=1), WLit((9,))))
    assert exists_sat(atoms, {n: W for n in names}, th, [])
    atoms[-1] = BgAtom("eq", WOp("comp", (Var(names[9]),), k=1), WLit((8,)))
    assert not exists_sat(atoms, {n: W for n in names}, th, [])


def random_extension(rng, th, fin, wvars, svars):
    """One step of a goal's background: 1-3 atoms over the variables so far
    and at most one new numeric variable (appended to wvars), which the
    step's nonnegativity bounds then cover.  Under nat 2 the tuple neq, lt
    and gt atoms compile to disjunctions."""
    new_w = []
    if not wvars or rng.random() < 0.4:
        new_w.append(f"x{len(wvars)}")
        wvars.append(new_w[0])

    def wterm():
        r = rng.random()
        if r < 0.6:
            t = Var(rng.choice(wvars))
        else:
            t = WLit(tuple(rng.randint(-1, 4) for _ in range(th.dim)))
        if th.dim > 1 and rng.random() < 0.3:
            t = WOp("comp", (Var(rng.choice(wvars)),), k=rng.randint(1, 2))
        if rng.random() < 0.3:
            t = WOp("+", (t, WLit((rng.randint(-2, 2),))))
        return t

    atoms = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.2:
            rhs = SConst(rng.choice(fin + ("z",)))
            atoms.append(BgAtom("eqs", Var(rng.choice(svars)), rhs))
            continue
        rel = rng.choice(["eq", "eq", "leq", "geq", "neq", "lt", "gt"])
        atoms.append(BgAtom(rel, wterm(), wterm()))
    return atoms, new_w


def test_bg_extend_matches_exists_sat():
    """Chains of bg_state/bg_extend steps agree with exists_sat on the
    atoms accumulated so far, over lia and nat 1 and 2, on 300 fixed-seed
    chains of up to 6 steps; a satisfiable state's witness, extended
    through its pins, satisfies every compiled atom and nonnegativity
    bound.  Later equalities pin variables of the disjunctions already in
    the residual, so substitution runs through them.  Each chain must
    finish within 5 s."""
    theories = [LIA_UP, Theory("nat", 1, flipped=False), NAT2_UP, NAT2_DOWN]
    fin = ("a", "b", "c")
    svars = ["s", "t"]
    rng = random.Random(20261022)
    outcomes = set()
    for _ in range(300):
        th = rng.choice(theories)
        wvars: list[str] = []
        atoms: list[BgAtom] = []
        st = None
        with deadline(5):
            for step in range(rng.randint(1, 6)):
                new_atoms, new_w = random_extension(rng, th, fin, wvars, svars)
                atoms += new_atoms
                if step == 0:
                    st = bg_state(new_atoms, new_w, th, fin)
                else:
                    st = bg_extend(st, compile_conj(new_atoms, new_w, th,
                                                    fin))
                varsorts = {**{n: FIN for n in svars}, **{n: W for n in wvars}}
                want = exists_sat(atoms, varsorts, th, fin)
                assert (st is not None) == want, (th.kind, th.dim, atoms)
                outcomes.add(want)
                if st is None:
                    break
                comps = [comp_var(n, i + 1) for n in wvars
                         for i in range(th.dim)]
                env = dict.fromkeys([comp_var(n, 0) for n in svars] + comps, 0)
                env.update(st.witness)
                env.update({v: t.eval(env) for v, t in st.pins.items()})
                fs = [compile_atom(a, th, fin_elems=fin) for a in atoms]
                for f in fs + th.nat_bounds(comps):
                    assert P.evaluate(f, env), (th.kind, th.dim, atoms, f)
    assert outcomes == {True, False}
