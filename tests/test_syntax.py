"""Parser, printer, and normalization tests."""

import pytest

from limitdl.syntax import (
    AndF, Arrow, BgAtom, Clause, FIN, FgAtom, MAX_DEPTH, OrF, PROP, PredRef,
    SConst,
    SyntaxProblem, Var, W, WLit, WOp, mk_arrow, normalize_problem,
    parse_problem, print_problem, read_sexprs,
)

SIMPLE = """
(theory (lia))
(direction upward)
(declare R (-> W o))
(clause ((x W)) (head (R x)) (body (geq x 5)))
(goal ((x W)) (body (and (R x) (leq x 3))))
"""


def test_parse_simple():
    p = parse_problem(SIMPLE)
    assert p.theory_kind == "lia" and p.dim == 1
    assert p.direction == "upward"
    assert p.decl("R") == Arrow(W, PROP)
    assert len(p.clauses) == 1 and len(p.goals) == 1
    cl = p.clauses[0]
    assert cl.head == ("R", (Var("x"),))
    assert cl.body == BgAtom("geq", Var("x"), WLit((5,)))


def test_parse_positions_on_error():
    bad = "(theory (lia))\n(declare R (-> W o))\n(clause ((x W)) (head (Q x)) (body (geq x 5)))"
    with pytest.raises(SyntaxProblem) as e:
        parse_problem(bad)
    assert e.value.line == 3


def test_unbalanced_parens():
    with pytest.raises(SyntaxProblem):
        read_sexprs("(theory (lia)")
    with pytest.raises(SyntaxProblem):
        read_sexprs("(theory))")


def test_nesting_is_bounded():
    assert len(read_sexprs("(" * MAX_DEPTH + ")" * MAX_DEPTH)) == 1
    with pytest.raises(SyntaxProblem) as info:
        read_sexprs("x\n " + "(" * (MAX_DEPTH + 1) + ")" * (MAX_DEPTH + 1))
    assert (info.value.line, info.value.col) == (2, MAX_DEPTH + 2)


def test_unknown_identifier_rejected():
    with pytest.raises(SyntaxProblem):
        parse_problem("(theory (lia))\n(declare R (-> W o))\n"
                      "(goal ((x W)) (body (R y)))")


def test_comments_are_skipped():
    p = parse_problem("""
; a two-counter problem
(theory (nat 2)) ; inline comment
(direction downward)
""")
    assert p.dim == 2 and p.direction == "downward"


def test_tuple_literal():
    p = parse_problem("""
(theory (nat 2))
(declare R (-> W o))
(goal () (body (R (tuple 1 2))))
""")
    body = p.goals[0].body
    assert isinstance(body, FgAtom)
    assert body.args == [WLit((1, 2))]


def test_roundtrip_simple():
    p = parse_problem(SIMPLE)
    assert parse_problem(print_problem(p)) == p


def test_roundtrip_higher_order():
    text = """
(theory (nat 2))
(direction downward)
(declare Exp (-> W o))
(declare Integral (-> W (-> W o) o))
(clause ((u W) (f (-> W o))) (head (Integral u f)) (body (eq (comp u 1) 0)))
(clause ((u W) (v W) (z W) (f (-> W o)))
  (head (Integral u f))
  (body (and (Integral v f) (f z)
             (eq (comp u 1) (+ (+ (comp v 1) (comp z 2)) 1))
             (eq (comp v 2) (+ (comp u 2) 1))
             (eq (comp z 1) (comp u 2)))))
(goal () (body (Integral (tuple 255 0) Exp)))
"""
    p = parse_problem(text)
    assert parse_problem(print_problem(p)) == p
    n = normalize_problem(p)
    # idempotent and round-trips too
    assert normalize_problem(n) == n
    assert parse_problem(print_problem(n)) == n


def test_normalize_splits_disjunction():
    p = parse_problem("""
(theory (lia))
(declare R (-> W o))
(clause ((x W)) (head (R x)) (body (or (geq x 5) (leq x 0))))
""")
    n = normalize_problem(p)
    heads = [c for c in n.clauses if c.head and c.head[0] == "R" and not c.is_limit]
    assert len(heads) == 2


def test_normalize_hoists_arithmetic_args():
    p = parse_problem("""
(theory (lia))
(declare R (-> W o))
(clause ((x W)) (head (R x)) (body (R (+ x 1))))
""")
    n = normalize_problem(p)
    cl = [c for c in n.clauses if not c.is_limit][0]
    atoms = cl.body_atoms()
    fg = [a for a in atoms if isinstance(a, FgAtom)][0]
    assert all(isinstance(a, (Var, WLit, SConst)) or not isinstance(a, WOp)
               for a in fg.args)
    assert any(isinstance(a, BgAtom) and a.rel == "eq" for a in atoms)


def test_normalize_inserts_limit_clause():
    p = parse_problem(SIMPLE)
    n = normalize_problem(p)
    lims = [c for c in n.clauses if c.is_limit]
    assert len(lims) == 1
    lim = lims[0]
    # upward: head's W variable bounded below by the body's
    bg = [a for a in lim.body_atoms() if isinstance(a, BgAtom)][0]
    assert bg.rel == "leq"
    assert bg.rhs == lim.head[1][0]


def test_normalize_respects_existing_limit_clause():
    text = SIMPLE + "(clause ((x W) (y W)) (head (R x)) (body (and (leq y x) (R y))))\n"
    p = parse_problem(text)
    n = normalize_problem(p)
    lims = [c for c in n.clauses if c.is_limit]
    assert len(lims) == 1


def test_downward_limit_direction():
    p = parse_problem("""
(theory (nat 1))
(direction downward)
(declare R (-> W o))
(clause ((x W)) (head (R x)) (body (eq x 0)))
""")
    n = normalize_problem(p)
    lim = [c for c in n.clauses if c.is_limit][0]
    bg = [a for a in lim.body_atoms() if isinstance(a, BgAtom)][0]
    # downward: head's W variable bounded above by the body's
    assert bg.lhs == lim.head[1][0]


def test_normalize_head_constants():
    p = parse_problem("""
(theory (lia))
(finsort S (a b))
(declare R (-> S W o))
(clause ((x W)) (head (R a x)) (body (geq x 5)))
""")
    n = normalize_problem(p)
    cl = [c for c in n.clauses if not c.is_limit][0]
    assert all(isinstance(a, Var) for a in cl.head[1])
    assert any(isinstance(a, BgAtom) and a.rel == "eqs" for a in cl.body_atoms())
