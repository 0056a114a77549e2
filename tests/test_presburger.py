"""Tests for the linear integer arithmetic layer.

Oracles:
- brute: a bounded-quantifier evaluator used on formulas whose quantifiers
  are explicitly range-restricted, so the expansion is exact.
- thirty hand-checked sentences with known truth values.
"""

import itertools
import math
import random

import pytest

from limitdl import presburger as P
from limitdl.presburger import (
    And, Cmp, Div, Exists, Forall, LinTerm, Not, Or, TRUE, FALSE,
    conj, decide, disj, div_atom, eliminate, eq, evaluate, free_vars,
    ge, gt, le, lt, ne, neg_f, nnf,
)
from oracles import close, deadline, listed_conj, listed_disj, swept_bounds


def v(name):
    return LinTerm.of_var(name)


def c(k):
    return LinTerm.of_const(k)


# ---------------------------------------------------------------------------
# independent oracle: quantifiers expanded over [-B, B]


def brute(f, env, bound):
    match f:
        case P.TrueF():
            return True
        case P.FalseF():
            return False
        case P.Cmp() | P.Div():
            return evaluate(f, env)
        case P.Not(g):
            return not brute(g, env, bound)
        case P.And(args):
            return all(brute(a, env, bound) for a in args)
        case P.Or(args):
            return any(brute(a, env, bound) for a in args)
        case P.Exists(x, b):
            return any(brute(b, {**env, x: k}, bound) for k in range(-bound, bound + 1))
        case P.Forall(x, b):
            return all(brute(b, {**env, x: k}, bound) for k in range(-bound, bound + 1))
    raise TypeError(f)


def bounded(x, lo, hi, body, kind):
    """Quantifier explicitly restricted to [lo, hi]; brute with bound >= max|lo|,|hi| is exact."""
    guard = conj([ge(v(x), c(lo)), le(v(x), c(hi))])
    if kind == "exists":
        return Exists(x, conj([guard, body]))
    return Forall(x, disj([neg_f(guard), body]))


# ---------------------------------------------------------------------------
# linear terms


def test_linterm_algebra():
    t = v("x").scale(3).add(v("y")).sub(c(5))
    assert t.eval({"x": 2, "y": 1}) == 2
    assert t.coeff("x") == 3 and t.coeff("z") == 0
    assert t.subst({"x": v("y").add(c(1))}).eval({"y": 2}) == 3 * 3 + 2 - 5
    # every pin in one pass; a term without a pinned variable is kept
    assert t.subst({"x": v("z"), "y": c(4)}) == v("z").scale(3).sub(c(1))
    assert t.subst({"z": c(1)}) is t
    assert v("x").sub(v("x")).is_const()


def test_atom_constant_folding():
    assert lt(c(1), c(2)) == TRUE
    assert eq(c(1), c(2)) == FALSE
    assert div_atom(5, c(10)) == TRUE
    assert div_atom(5, c(11)) == FALSE
    assert div_atom(1, v("x")) == TRUE


def test_connectives_match_their_reference():
    """conj and disj against the list-and-seen-set builders they replaced
    (oracles.listed_conj, listed_disj), equal as ordered records, on
    fixed-seed argument lists: literals with repeats, TRUE and FALSE, and
    nested and hand-built And and Or that themselves hold TRUE, FALSE and
    repeats, from the empty list up."""
    x, y = v("x"), v("y")
    lits = [le(x, c(0)), eq(y, c(1)), ne(x, y), div_atom(3, x)]
    rng = random.Random(34)

    def arg(depth):
        k = rng.randrange(6)
        if depth == 0 or k < 3:
            return rng.choice(lits + [TRUE, FALSE])
        return (And if k < 5 else Or)(
            tuple(arg(depth - 1) for _ in range(rng.randrange(4))))

    cases = [[], [lits[0]], [And(tuple(lits[:2]))], [Or((TRUE,))], [TRUE],
             [FALSE]] + [[arg(2) for _ in range(rng.randrange(6))]
                         for _ in range(2000)]
    for args in cases:
        assert conj(args) == listed_conj(args), args
        assert disj(args) == listed_disj(args), args
        assert conj(iter(args)) == conj(args)
        assert disj(iter(args)) == disj(args)


def test_connectives_stop_at_their_absorbing_element():
    """The absorbing element, alone or inside an argument of the builder's
    own connective, ends the read: the rest of a generator is never
    asked for (the region split relies on this)."""
    x = le(v("x"), c(0))

    def args(*head):
        yield from head
        raise AssertionError("read past the absorbing element")

    assert conj(args(x, TRUE, FALSE)) == FALSE
    assert conj(args(x, And((x, FALSE)))) == FALSE
    assert disj(args(x, FALSE, TRUE)) == TRUE
    assert disj(args(x, Or((TRUE, x)))) == TRUE


def test_gcd_reduction_is_sound():
    # 2x < 5  <=>  x <= 2  <=>  x - 2 <= 0
    a = lt(v("x").scale(2), c(5))
    for k in range(-4, 5):
        assert evaluate(a, {"x": k}) == (2 * k < 5)
    # 3x = 5 is unsatisfiable
    assert eq(v("x").scale(3), c(5)) == FALSE


# ---------------------------------------------------------------------------
# elimination: hand-picked sentences (truth values checked by hand)

KNOWN = [
    # (sentence, truth)
    (Exists("x", eq(v("x"), c(7))), True),
    (Exists("x", conj([gt(v("x"), c(0)), lt(v("x"), c(1))])), False),
    (Forall("x", disj([le(v("x"), c(0)), gt(v("x"), c(0))])), True),
    (Forall("x", ge(v("x"), c(0))), False),
    (Exists("x", eq(v("x").scale(2), c(5))), False),
    (Exists("x", eq(v("x").scale(2), c(6))), True),
    (Forall("x", Exists("y", eq(v("y"), v("x").add(c(1))))), True),
    (Forall("x", Exists("y", eq(v("y").scale(2), v("x")))), False),
    (Exists("x", Forall("y", le(v("x"), v("y")))), False),
    # every integer is even or odd
    (Forall("x", Exists("y", disj([eq(v("x"), v("y").scale(2)),
                                   eq(v("x"), v("y").scale(2).add(c(1)))]))), True),
    # 2x + 3y = 1 solvable (gcd 1)
    (Exists("x", Exists("y", eq(v("x").scale(2).add(v("y").scale(3)), c(1)))), True),
    # 2x + 4y = 7 unsolvable (gcd 2)
    (Exists("x", Exists("y", eq(v("x").scale(2).add(v("y").scale(4)), c(7)))), False),
    # 6 | x and 10 | x implies 30 | x... sample: exists x: 6|x, 10|x, not 30|x
    (Exists("x", conj([div_atom(6, v("x")), div_atom(10, v("x")),
                       div_atom(30, v("x"), neg=True)])), False),
    (Exists("x", conj([div_atom(4, v("x")), div_atom(6, v("x")),
                       ne(v("x"), c(0)), lt(v("x"), c(20)), gt(v("x"), c(0))])), True),
    (Forall("x", Forall("y", disj([le(v("x"), v("y")), le(v("y"), v("x"))]))), True),
    (Forall("x", Forall("y", disj([lt(v("x"), v("y")), lt(v("y"), v("x"))]))), False),
    # between any two integers 2 apart there is one strictly between
    (Forall("x", Exists("y", conj([lt(v("x"), v("y")), lt(v("y"), v("x").add(c(2)))]))), True),
    (Forall("x", Exists("y", conj([lt(v("x"), v("y")), lt(v("y"), v("x").add(c(1)))]))), False),
    # x >= 5 and x <= 4 unsat
    (Exists("x", conj([ge(v("x"), c(5)), le(v("x"), c(4))])), False),
    (Exists("x", conj([ge(v("x"), c(5)), le(v("x"), c(5))])), True),
    # 3 divides one of x, x+1, x+2
    (Forall("x", disj([div_atom(3, v("x")), div_atom(3, v("x").add(c(1))),
                       div_atom(3, v("x").add(c(2)))])), True),
    (Forall("x", disj([div_atom(3, v("x")), div_atom(3, v("x").add(c(1)))])), False),
    # exists x with 5 < 3x < 10 (x = 2 or 3)
    (Exists("x", conj([gt(v("x").scale(3), c(5)), lt(v("x").scale(3), c(10))])), True),
    # exists x with 7 < 3x < 9 (no multiple of 3 strictly between)
    (Exists("x", conj([gt(v("x").scale(3), c(7)), lt(v("x").scale(3), c(9))])), False),
    (Forall("x", Forall("y", Exists("z", eq(v("z"), v("x").add(v("y")))))), True),
    (Exists("x", Exists("y", conj([eq(v("x").add(v("y")), c(10)),
                                   eq(v("x").sub(v("y")), c(3))]))), False),
    (Exists("x", Exists("y", conj([eq(v("x").add(v("y")), c(10)),
                                   eq(v("x").sub(v("y")), c(4))]))), True),
    (Forall("x", ne(v("x").scale(2), v("x").scale(2).add(c(1)))), True),
    (Forall("x", Exists("y", conj([le(v("y"), v("x")),
                                   div_atom(5, v("y")),
                                   gt(v("y"), v("x").sub(c(5)))]))), True),
    (Exists("x", conj([div_atom(2, v("x")), div_atom(2, v("x").add(c(1)))])), False),
]


def test_known_sentence_count():
    assert len(KNOWN) >= 30


@pytest.mark.parametrize("idx", range(len(KNOWN)))
def test_known_sentences(idx):
    f, truth = KNOWN[idx]
    assert decide(f) == truth


def test_nat_relativization():
    # over naturals, exists x < 0 is false; over integers it is true
    f = Exists("x", lt(v("x"), c(0)))
    assert decide(f) is True
    assert decide(f, nat_vars=["x"]) is False
    g = Forall("x", ge(v("x"), c(0)))
    assert decide(g) is False
    assert decide(g, nat_vars=["x"]) is True


def test_eliminate_is_quantifier_free():
    f = Forall("x", Exists("y", eq(v("y"), v("x").add(c(1)))))
    g = eliminate(f)

    def has_q(h):
        match h:
            case P.Exists() | P.Forall():
                return True
            case P.Not(b):
                return has_q(b)
            case P.And(args) | P.Or(args):
                return any(has_q(a) for a in args)
            case _:
                return False

    assert not has_q(g)


# ---------------------------------------------------------------------------
# randomized: eliminate+evaluate versus decide-after-substitution, and both
# versus the bounded brute-force oracle on range-restricted formulas

VARS = ["x", "y", "z", "u"]


def rand_term(rng, fv):
    t = c(rng.randint(-4, 4))
    for name in fv:
        if rng.random() < 0.6:
            t = t.add(v(name).scale(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])))
    return t


def rand_atom(rng, fv):
    kind = rng.random()
    t = rand_term(rng, fv)
    if kind < 0.15 and fv:
        return div_atom(rng.choice([2, 3, 4]), t, neg=rng.random() < 0.3)
    op = rng.choice(["<", "<=", "=", "!=", ">=", ">"])
    return P.cmp_atom(op, t) if not t.is_const() else P.cmp_atom(op, t.add(v(rng.choice(fv or VARS))))


def rand_formula(rng, fv, depth, quants_left, restrict):
    r = rng.random()
    if depth <= 0 or r < 0.35:
        return rand_atom(rng, fv)
    if r < 0.55 and quants_left > 0:
        fresh = next(n for n in VARS if n not in fv)
        body = rand_formula(rng, fv + [fresh], depth - 1, quants_left - 1, restrict)
        kind = rng.choice(["exists", "forall"])
        if restrict:
            return bounded(fresh, -5, 5, body, kind)
        return Exists(fresh, body) if kind == "exists" else Forall(fresh, body)
    args = [rand_formula(rng, fv, depth - 1, quants_left, restrict)
            for _ in range(rng.randint(2, 3))]
    if r < 0.78:
        return conj(args)
    return disj(args)


def test_qe_sampling_equivalence():
    """eliminate(f) evaluated under sampled assignments agrees with decide(close(f))."""
    rng = random.Random(20260826)
    mismatches = 0
    for _ in range(60):
        nfree = rng.randint(1, 2)
        fv = VARS[:nfree]
        f = rand_formula(rng, fv, depth=3, quants_left=3, restrict=False)
        g = nnf(eliminate(f))
        for _ in range(100):
            env = {name: rng.randint(-20, 20) for name in fv}
            lhs = evaluate(g, env)
            rhs = decide(close(f, env))
            if lhs != rhs:
                mismatches += 1
    assert mismatches == 0


def test_qe_against_bounded_brute_force():
    """On range-restricted formulas the bounded expansion is exact and must agree."""
    rng = random.Random(99)
    for _ in range(40):
        fv = VARS[:1]
        f = rand_formula(rng, fv, depth=3, quants_left=2, restrict=True)
        g = nnf(eliminate(f))
        for _ in range(25):
            env = {fv[0]: rng.randint(-8, 8)}
            assert evaluate(g, env) == brute(f, env, bound=6)


def test_decide_requires_sentence():
    with pytest.raises(ValueError):
        decide(lt(v("x"), c(0)))


def test_fast_path_against_box_brute_force():
    """sat_exists_all, alone and after reduce_conj, against brute force.

    Each case is a random quantifier-free formula over x and y conjoined
    with the box -5 <= x, y <= 5, so enumerating the box decides it exactly.
    Every returned witness must satisfy the input.  Cases over three
    variables are left out: at 150 of them the fast path did not finish
    within 100 s, the known slow case of the conjunction solver that the
    planned Omega-test engine is to remove.  Then equality chains, alone
    and with a random formula: x = y + k, 2y = x, and x = y under a
    literal whose coefficients share a factor once x is substituted.  Every
    comparison of a reduce_conj residual must be '<=', '=' or '!=': the
    walker splits a '!=' into '<' and '>', and every node of the search
    reads the others as '<='."""
    rng = random.Random(20261018)
    box = [k for name in ("x", "y")
           for k in (ge(v(name), c(-5)), le(v(name), c(5)))]
    points = [{"x": x, "y": y} for x in range(-5, 6) for y in range(-5, 6)]
    x, y = v("x"), v("y")
    chains = [eq(x, y.add(c(k))) for k in (-3, 0, 2)] + [
        eq(y.scale(2), x),
        conj([eq(x, y), le(x.scale(2).add(y.scale(2)), c(3))]),
        conj([eq(x, y.neg()), lt(x.scale(3).sub(y.scale(3)), c(-7))]),
        conj([eq(x, y.add(c(1))), ge(x.scale(2).add(y.scale(4)), c(5))]),
    ]
    cases = [rand_formula(rng, ["x", "y"], depth=3, quants_left=0,
                            restrict=False) for _ in range(300)]
    cases += chains + [
        conj([chain, rand_formula(rng, ["x", "y"], depth=2, quants_left=0,
                                  restrict=False)])
        for chain in chains for _ in range(10)]
    for g in cases:
        f = conj([g] + box)
        truth = any(evaluate(f, env) for env in points)
        w = P.sat_exists_all([f])
        assert (w is not None) == truth, f
        if w is not None:
            assert P.evaluate(f, w), (f, w)
        pins = {}
        residual = P.reduce_conj([f], pins, [])
        assert residual is None or all(
            type(h) is not Cmp or h.op in ("<=", "=", "!=")
            for h in residual), (f, residual)
        w = None if residual is None else P.sat_exists_all(residual)
        assert (w is not None) == truth, f
        if w is not None:
            env = dict(w)
            env.update((x, t.eval(w)) for x, t in pins.items())
            assert P.evaluate(f, env), (f, env)


def test_search_nodes_narrow_from_their_parents(monkeypatch):
    """Every node of the search narrows a copy of its parent's bounds: on
    the 300 box formulas of test_fast_path_against_box_brute_force,
    _narrow starts from empty bounds over every row at most once per
    sat_exists_all call (at the walk's root), and every list _sat_lits
    receives is a node, '<=', '=' and Div literals in cmp_atom's form with
    no '!='.  Narrowing each elimination level from scratch, or handing
    _sat_lits raw literals or a '!=' to split, fails it."""
    rng = random.Random(20261018)
    box = [k for name in ("x", "y")
           for k in (ge(v(name), c(-5)), le(v(name), c(5)))]
    narrow, sat_lits = P._narrow, P._sat_lits
    rescans: list[int] = []
    bad: list = []

    def counted_narrow(rows, lo, hi, todo):
        if not lo and not hi and list(todo) == list(range(len(rows))):
            rescans[-1] += 1
        return narrow(rows, lo, hi, todo)

    def checked_sat_lits(lits, *rest):
        bad.extend(f for f in lits if not (
            type(f) is Div
            or type(f) is Cmp and f.op in ("<=", "=") and f.t.coeffs))
        return sat_lits(lits, *rest)

    monkeypatch.setattr(P, "_narrow", counted_narrow)
    monkeypatch.setattr(P, "_sat_lits", checked_sat_lits)
    for _ in range(300):
        g = rand_formula(rng, ["x", "y"], depth=3, quants_left=0,
                         restrict=False)
        rescans.append(0)
        P.sat_exists_all([conj([g] + box)])
    over = sum(r > 1 for r in rescans)
    assert over == 0 and not bad, (over, bad[:5])


def test_box_test_refutes_only_dead_rows(monkeypatch):
    """_child's box test runs before it copies or narrows anything, so it
    may refute only what _narrow would: on every node (_child call) of
    sat_exists_all over 300 random formulas (rand_formula over x and y)
    inside the box -5 <= x, y <= 5, whenever _box_refutes finds an added
    row with no solution in the parent's bounds, _narrow on copies of those
    bounds returns False for the node, and no integer point of the bounds
    satisfies that row."""
    rng = random.Random(20261021)
    box = [k for name in ("x", "y")
           for k in (ge(v(name), c(-5)), le(v(name), c(5)))]
    child = P._child
    refuted = [0, 0]  # nodes the box test refutes, nodes with added rows

    def checked_child(lits, rows, lo, hi):
        if rows:
            refuted[1] += 1
        if rows and P._box_refutes(rows, lo, hi):
            refuted[0] += 1
            n = len(lits)
            assert not P._narrow(lits + rows, dict(lo), dict(hi),
                                 range(n, n + len(rows))), (lits, rows)
            dead = [f for f in rows if P._box_refutes([f], lo, hi)]
            assert dead, rows
            for f in dead:
                vs = f.t.vars
                for p in itertools.product(
                        *(range(lo[u], hi[u] + 1) for u in vs)):
                    assert not evaluate(f, dict(zip(vs, p))), (f, lo, hi, p)
        return child(lits, rows, lo, hi)

    monkeypatch.setattr(P, "_child", checked_child)
    for _ in range(300):
        g = rand_formula(rng, ["x", "y"], depth=3, quants_left=0,
                         restrict=False)
        P.sat_exists_all([conj([g] + box)])
    assert 30 < refuted[0] < refuted[1], refuted


def test_term_sum_matches_the_dict_reference():
    """LinTerm.add and sub merge two coefficient tuples sorted by variable
    in one pass; on random terms (disjoint, overlapping, cancelling and
    constant ones) the result equals the reference that sums into a dict
    and sorts it, zero sums dropped."""
    rng = random.Random(20261021)
    names = ["X", "a", "b", "x", "x1", "x_0", "y", "z"]

    def term():
        vs = rng.sample(names, rng.randint(0, len(names)))
        return LinTerm.make(rng.randint(-3, 3),
                            {n: rng.choice([-2, -1, 1, 2]) for n in vs})

    for _ in range(3000):
        s, t = term(), term()
        if rng.random() < 0.1:
            t = s
        for k, got in ((1, s.add(t)), (-1, s.sub(t))):
            d = dict(s.coeffs)
            for u, a in t.coeffs:
                d[u] = d.get(u, 0) + k * a
            want = tuple(sorted((u, a) for u, a in d.items() if a != 0))
            assert type(got.coeffs) is tuple
            assert (got.const, got.coeffs) == (s.const + k * t.const, want), \
                (s, t, k, got)


def _gcd_one_form(f):
    """f is TRUE/FALSE or a '<=', '=' or '!=' literal whose coefficients
    have gcd 1: the one literal form."""
    return f in (TRUE, FALSE) or (
        type(f) is Cmp and f.op in ("<=", "=", "!=") and f.t.coeffs
        and math.gcd(*[k for _, k in f.t.coeffs]) == 1)


@pytest.mark.parametrize("op", ["<", "<=", ">", ">=", "=", "!="])
def test_cmp_atom_gives_the_one_literal_form(op):
    """cmp_atom turns 't op 0', for every op and for terms whose
    coefficients share a factor, into TRUE/FALSE or a gcd-1 '<=', '=' or
    '!=' literal that agrees with it on sampled points.  The walk reads a
    comparison only in this form: no '<', '>' or '>=' reaches a node."""
    rng = random.Random(f"cmp_atom {op}")
    for _ in range(200):
        g = rng.choice([1, 2, 3, 4, 6])
        t = LinTerm.make(rng.randint(-9, 9), {
            "x": g * rng.randint(-3, 3), "y": g * rng.randint(-3, 3)})
        out = P.cmp_atom(op, t)
        assert _gcd_one_form(out), (op, t, out)
        for _ in range(10):
            env = {"x": rng.randint(-8, 8), "y": rng.randint(-8, 8)}
            assert evaluate(out, env) == evaluate(Cmp(op, t), env), \
                (op, t, out, env)


def test_negated_implication_keeps_a_body_equality():
    """check_clause asks for the branches of [body, not_head], with the
    head's complement written positively.  A body equality reaches every
    branch as the one '=' literal _pin_units pins, not as two '<=' literals
    of Cooper's strict NNF."""
    x, y = v("x"), v("y")
    body = conj([eq(x, y.add(c(2))), le(c(0), y)])
    query = [body, gt(x, c(5))]
    same = {("x", 1), ("y", -1)}
    leaves = [lits for lits, _, _ in P.branches(query)]
    assert leaves
    for lits in leaves:
        assert Cmp("=", LinTerm(-2, (("x", 1), ("y", -1)))) in lits, lits
        assert not any(type(g) is Cmp and g.op == "<=" and (
            set(g.t.coeffs) == same or set(g.t.neg().coeffs) == same)
            for g in lits), lits
    w = P.sat_exists_all(query)
    assert w is not None and all(P.evaluate(f, w) for f in query)


def test_nnf_holds_only_strict_comparisons():
    """Cooper's precondition: nnf turns comparisons of every op, built
    directly or by cmp_atom, and under negations and quantifiers, into
    strict '<' literals over gcd-1 terms, with no Not left."""
    rng = random.Random(20261019)
    ops = ["<", "<=", "=", "!=", ">=", ">"]

    def check(g):
        match g:
            case Cmp(op, t):
                assert op == "<" and math.gcd(
                    *[k for _, k in t.coeffs]) == 1, g
            case And(args) | Or(args):
                for a in args:
                    check(a)
            case Exists(_, b) | Forall(_, b):
                check(b)
            case Div() | P.TrueF() | P.FalseF():
                pass
            case _:
                raise AssertionError(g)

    for i in range(300):
        f = rand_formula(rng, VARS[:2], depth=3, quants_left=2,
                         restrict=False)
        if i % 2:  # raw atoms of every op, as callers may build them
            f = conj([f, Not(Cmp(rng.choice(ops), rand_term(rng, VARS[:2])
                                 .add(v("x").scale(2))))])
        check(nnf(f))
        check(nnf(Not(f)))


def test_strict_gcd_literal_regression():
    # 2x + 1 < 0 and x >= 0 has no integer solution; x = 0 was returned
    f = [lt(v("x").scale(2).add(c(1)), c(0)), ge(v("x"), c(0))]
    assert P.sat_exists_all(f) is None
    assert decide(Exists("x", conj(f))) is False
    g = [lt(v("x").scale(2).add(c(1)), c(0)), ge(v("x").add(c(1)), c(0))]
    assert P.sat_exists_all(g) == {"x": -1}


def dnf_first_witness(lits, pends):
    """Reference for sat_exists_all on formulas with disjunctions: expand the
    DNF in _leaves's branch order, without pruning, and return _sat_lits of
    the first satisfiable branch, admitted (_admit) with no bounds."""
    if not pends:
        lits = P._admit(lits)
        return None if lits is None else P._sat_lits(lits, {}, {})
    i = min(range(len(pends)), key=lambda j: len(pends[j].args))
    rest = pends[:i] + pends[i + 1:]
    for alt in pends[i].args:
        acc, sub = list(lits), list(rest)
        if P._lits_of(alt, acc, sub):
            w = dnf_first_witness(acc, sub)
            if w is not None:
                return w
    return None


def _rand_upset(rng, names):
    """The generators of a random antichain upset: one to three points."""
    return [{n: rng.randint(-5, 5) for n in names}
            for _ in range(rng.randint(1, 3))]


def _upset_in(gens):
    """Membership in the upset of gens: an Or of generator boxes."""
    return disj(conj(ge(v(n), c(k)) for n, k in g.items()) for g in gens)


def _upset_out(gens):
    """Its complement written positively: below each generator somewhere."""
    return conj(disj(lt(v(n), c(k)) for n, k in g.items()) for g in gens)


def _rand_atom(rng, names):
    t = LinTerm.make(rng.randint(-6, 6),
                     {n: rng.choice([-2, -1, 1, 2, 3]) for n in names})
    return rng.choice([lt, le, eq, ne, ge, gt])(t, c(0))


def test_branch_search_first_witness():
    """The DNF search returns exactly the assignment of the first
    satisfiable branch, whatever it normalises or prunes on the way.

    The formulas have the shape of check_clause's queries: [body,
    not_head], where body conjoins linear atoms with upset memberships and
    not_head is an upset's complement written positively (TRUE for a goal),
    inside the box -5 <= x, y <= 5."""
    rng = random.Random(20261019)
    names = ["x", "y"]
    box = [k for n in names for k in (ge(v(n), c(-5)), le(v(n), c(5)))]
    points = [{"x": x, "y": y} for x in range(-5, 6) for y in range(-5, 6)]
    found = 0
    for _ in range(300):
        body = conj([_rand_atom(rng, names)
                     for _ in range(rng.randint(0, 2))]
                    + [_upset_in(_rand_upset(rng, names))
                       for _ in range(rng.randint(1, 2))])
        not_head = _upset_out(_rand_upset(rng, names)) \
            if rng.random() < 0.8 else TRUE
        matrices = [body, not_head] + box
        acc, pend = [], []
        ok = all(P._lits_of(f, acc, pend) for f in matrices)
        expected = dnf_first_witness(acc, pend) if ok else None
        w = P.sat_exists_all(matrices)
        assert w == expected, (matrices, w, expected)
        truth = any(all(evaluate(f, e) for f in matrices) for e in points)
        assert (w is not None) == truth, matrices
        if w is not None:
            found += 1
            assert all(P.evaluate(f, w) for f in matrices), (matrices, w)
    assert 30 < found < 270  # both outcomes are exercised


def _rand_row(rng, names):
    """A '<=' or '=' literal in cmp_atom's form over one to three of names,
    or None when it folds to a constant."""
    vs = rng.sample(names, rng.randint(1, len(names)))
    t = LinTerm.make(rng.randint(-6, 6),
                     {n: rng.choice([-3, -2, -1, 1, 2, 3]) for n in vs})
    f = rng.choice([le, le, lt, ge, eq])(t, c(0))
    return f if type(f) is Cmp else None


def _within(points, names, lo, hi):
    return all(lo.get(n, -99) <= p[n] <= hi.get(n, 99)
               for p in points for n in names)


def test_narrow_from_parent_bounds_is_sound():
    """_narrow seeded with only the rows a child adds, from a copy of its
    parent's bounds, against a from-scratch run and brute force.

    Each case is a chain of '<=' and '=' additions over two or three
    variables inside the box -3 <= x, y, z <= 3.  At every link both runs'
    bounds must contain every integer solution in the box, and either run
    may answer False only where there is none.  Then the branches of a
    conjunction of random disjunctions of such rows, whose pruning starts
    each child from its parent's bounds, must together hold every solution
    in the box."""
    rng = random.Random(20261020)
    with deadline(60):
        for case in range(300):
            names = ["x", "y", "z"][:rng.choice([2, 3])]
            grid = [dict(zip(names, p))
                    for p in itertools.product(range(-3, 4), repeat=len(names))]
            rows = [k for n in names
                    for k in (ge(v(n), c(-3)), le(v(n), c(3)))]
            lo, hi = {}, {}
            assert P._narrow(rows, lo, hi, range(len(rows)))
            points = grid
            for _ in range(rng.randint(1, 5)):
                new = [r for r in (_rand_row(rng, names)
                                   for _ in range(rng.randint(1, 2))) if r]
                child = rows + new
                points = [p for p in points
                          if all(evaluate(f, p) for f in new)]
                clo, chi = dict(lo), dict(hi)
                inc = P._narrow(child, clo, chi, range(len(rows), len(child)))
                slo, shi = {}, {}
                full = P._narrow(child, slo, shi, range(len(child)))
                assert inc or not points, (child, points[:1])
                assert full or not points, (child, points[:1])
                if full:
                    assert _within(points, names, slo, shi), (child, slo, shi)
                if not inc:
                    break
                assert _within(points, names, clo, chi), (child, clo, chi)
                rows, lo, hi = child, clo, chi

            box = [k for n in names for k in (ge(v(n), c(-3)), le(v(n), c(3)))]
            ors = [disj(conj(r for r in (_rand_row(rng, names)
                                         for _ in range(rng.randint(1, 2)))
                             if r)
                        for _ in range(rng.randint(2, 3)))
                   for _ in range(rng.randint(1, 3))]
            leaves = [lits for lits, _, _ in P.branches(box + ors)]
            for p in grid:  # the box holds on the grid
                if all(evaluate(f, p) for f in ors):
                    assert any(all(evaluate(f, p) for f in leaf)
                               for leaf in leaves), (ors, p)


def test_narrow_reaches_the_swept_fixpoint():
    """_narrow from scratch against swept_bounds, which revisits every row
    until no bound moves: the same verdict, and the same bounds when it is
    True.  The rows are '<=' and '=' comparisons over one to three of x, y,
    z, built as they stand: coefficients that share a factor and constants
    of either sign that they do not divide, so every bound rounds.  A box
    -B <= v <= B (B <= 2) comes first and bounds every variable, so after
    its visits each bound moves at most 4B times before its interval
    empties, and no row is visited 1 + 3*4B <= 25 < _NARROW_VISITS times:
    the cap never cuts the propagation short."""
    rng = random.Random(20261024)
    assert P._NARROW_VISITS > 25
    names = ["x", "y", "z"]
    for case in range(3000):
        rows = []
        for n in names:
            b = rng.randint(0, 2)
            rows += [Cmp("<=", LinTerm(-b, ((n, 1),))),
                     Cmp("<=", LinTerm(-b, ((n, -1),)))]
        for _ in range(rng.randint(1, 6)):
            vs = rng.sample(names, rng.choice([1, 1, 2, 3]))
            t = LinTerm.make(rng.randint(-9, 9),
                             {n: rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
                              for n in vs})
            rows.append(Div(2, t) if rng.random() < 0.1
                        else Cmp(rng.choice(["<=", "<=", "="]), t))
        lo, hi = {}, {}
        ok = P._narrow(rows, lo, hi, range(len(rows)))
        want, wlo, whi = swept_bounds(rows)
        assert ok == want, (case, rows)
        if ok:
            assert (lo, hi) == (wlo, whi), (case, rows)


def _unbounded_by_cones(matrices, names):
    """Some satisfiable branch has an integer direction positive on names."""
    return any(
        P.sat_exists_all(P.recession_cone(leaf)
                         + [ge(v(n), c(1)) for n in names]) is not None
        and P.sat_exists_all(leaf) is not None
        for leaf, _, _ in P.branches(matrices))


def test_recession_cone_decides_unboundedness():
    """A set of natural points has points with every coordinate in J at
    least m, for every m, exactly when some satisfiable DNF branch has a
    recession direction positive on J; Cooper decides the first-order
    sentence.  The formulas mix linear atoms of every comparison, '!=' and
    divisibility, under disjunction, over two natural variables."""
    rng = random.Random(20261018)
    names = ["x", "y"]
    nat = [ge(v(n), c(0)) for n in names]

    def atom():
        t = LinTerm.make(rng.randint(-6, 6),
                         {n: rng.choice([-2, -1, 0, 1, 2]) for n in names})
        if rng.random() < 0.2:
            return div_atom(rng.choice([2, 3]), t, rng.random() < 0.5)
        return rng.choice([lt, le, eq, ne, ge, gt])(t, c(0))

    seen = set()
    for _ in range(200):
        psi = disj(conj(atom() for _ in range(rng.randint(1, 2)))
                   for _ in range(rng.randint(1, 2)))
        for J in (["x"], ["y"], names):
            big = conj([psi] + nat + [ge(v(n), v("m")) for n in J])
            truth = decide(Forall("m", Exists("x", Exists("y", big))))
            assert _unbounded_by_cones([psi] + nat, J) == truth, (psi, J)
            seen.add(truth)
    assert seen == {True, False}


def _rand_box(rng, names):
    """A box built through cmp_atom: a conjunction of one-variable bounds
    (any op but '!=', coefficients up to 3, variables may repeat),
    sometimes TRUE, FALSE or empty."""
    r = rng.random()
    if r < 0.05:
        return TRUE
    if r < 0.1:
        return FALSE
    lits = [P.cmp_atom(rng.choice(["<", "<=", "=", ">=", ">"]),
                       LinTerm(rng.randint(-3, 3),
                               ((rng.choice(names),
                                 rng.choice([-3, -2, -1, 1, 2, 3])),)))
            for _ in range(rng.randint(1, 3))]
    if r < 0.2:  # empty: x >= k + 1 and x <= k
        x, k = rng.choice(names), rng.randint(-3, 3)
        lits += [ge(v(x), c(k + 1)), le(v(x), c(k))]
    return conj(lits)


def _rand_box_union(rng, names):
    """An Or of boxes and, among them, disjuncts that are not boxes: '!=',
    divisibility, two-variable atoms, nested unions of boxes."""
    args = []
    for _ in range(rng.randint(2, 5)):
        r = rng.random()
        if r < 0.65:
            args.append(_rand_box(rng, names))
        elif r < 0.72:
            args.append(ne(v(rng.choice(names)), c(rng.randint(-3, 3))))
        elif r < 0.79:
            args.append(div_atom(rng.choice([2, 3]),
                                 LinTerm(rng.randint(0, 2),
                                         ((rng.choice(names), 1),)),
                                 rng.random() < 0.5))
        elif r < 0.86:
            args.append(_rand_atom(rng, names[:2]))
        else:  # nested union
            args.append(Or((_rand_box(rng, names), _rand_box(rng, names))))
    return Or(tuple(args))


def test_walker_complements_unions_of_boxes():
    """The branch walker on unions of boxes built through cmp_atom.  On 300
    fixed-seed Ors over two or three variables, inside a box that contains
    every bound: sat_exists_all of the union, alone and inside a guarded
    disjunction, agrees with brute force on the grid and returns a witness
    of the input; Cooper decide agrees on every tenth case.  (The
    complement of a descriptor as a union of boxes is Theory's:
    test_background.py.)"""
    rng = random.Random(20261020)
    for case in range(300):
        names = ["x", "y", "z"][:rng.choice([2, 2, 2, 3])]
        grid = [dict(zip(names, p))
                for p in itertools.product(range(-5, 6), repeat=len(names))]
        g = _rand_box_union(rng, names)
        inside = [evaluate(g, env) for env in grid]

        bound = [k for n in names for k in (ge(v(n), c(-5)), le(v(n), c(5)))]
        atom, h = _rand_atom(rng, names[:2]), _rand_box_union(rng, names)
        guarded = Or((And((atom, g)), And((h, g))))
        held = [ing and (evaluate(atom, env) or evaluate(h, env))
                for env, ing in zip(grid, inside)]
        for query, truth in (([g] + bound, any(inside)),
                             ([guarded] + bound, any(held))):
            w = P.sat_exists_all(query)
            assert (w is not None) == truth, query
            if w is not None:
                assert all(P.evaluate(f, w) for f in query), (query, w)
            if case % 10 == 0:
                sentence = conj(query)
                for n in names:
                    sentence = Exists(n, sentence)
                assert decide(sentence) == truth, query
