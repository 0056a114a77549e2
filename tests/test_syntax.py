"""Parser, printer, and normalization tests."""

import pytest

from limitdl.background import comp_var, components
from limitdl.cli import main
from limitdl.presburger import LinTerm
from limitdl.syntax import (
    AndF, Arrow, BgAtom, Clause, FIN, FgAtom, MAX_DEPTH, OrF, PROP, PredRef,
    SConst,
    SyntaxProblem, Var, W, WLit, WOp, mk_arrow, normalize_problem,
    parse_problem, print_problem, read_sexprs,
)
from limitdl.typesys import validate

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


# one malformed form after a well-formed preamble: (form, the text at which
# the error points, the message); an anchor of None means no position
BAD_PREAMBLE = "(theory (nat 2))\n(finsort S (a b))\n(declare P (-> W o))\n"
BAD_FORMS = [
    # sorts
    ("(declare Q (-> X o))", "X", "unknown sort 'X'"),
    ("(declare Q (foo o))", "(foo", "expected (-> ...) sort"),
    ("(declare Q (-> o))", "(->", "arrow sort needs argument and result"),
    # terms and atoms
    ("(goal ((x W)) (body (P y)))", "y)", "unknown identifier 'y'"),
    ("(goal () (body (P ())))", "())", "empty application"),
    ("(goal ((x W)) (body (P (tuple 1 x))))", "x))))",
     "tuple entries must be integers"),
    ("(goal ((x W)) (body (P (+ x))))", "(+", "(+ t t) takes two arguments"),
    ("(goal ((x W)) (body (P (* x x))))", "(*",
     "(* k t) takes integer then term"),
    ("(goal ((x W)) (body (P (comp x y))))", "(comp",
     "(comp x i) takes term then index"),
    ("(goal ((x W)) (body (P (comp x 3))))", "3",
     "component 3 out of range 1..2"),
    ("(goal ((x W)) (body (leq x)))", "(leq",
     "(leq t t) takes two arguments"),
    ("(goal () (body 3))", "3",
     "foreground atom must be headed by a predicate or variable"),
    # binders
    ("(goal x (body (P 1)))", "x", "expected binder list"),
    ("(goal (x) (body (P 1)))", "x)", "binder must be (name sort)"),
    ("(goal ((x W) (x W)) (body (P x)))", "(x W))",
     "duplicate variable 'x'"),
    # top-level forms
    ("x", "x", "expected a top-level form"),
    ("(theory lia)", "(", "expected (theory (lia)) or (theory (nat d))"),
    ("(theory (nat 0))", "0", "nat dimension must be positive"),
    ("(theory (real))", "(real", "unknown theory"),
    ("(direction sideways)", "(", "direction must be upward or downward"),
    ("(finsort T (c))", "(", "expected (finsort S (c ...))"),
    ("(finsort S ((c)))", "(c)", "constants must be identifiers"),
    ("(declare Q)", "(", "expected (declare P sort)"),
    ("(declare P (-> W o))", "P", "duplicate declaration of 'P'"),
    ("(declare Q (-> W W))", "(->", "predicate sorts must end in o"),
    ("(clause ())", "(", "expected (clause binders (head ...) (body ...))"),
    ("(clause () (hd (P 1)) (body (P 1)))", "(hd",
     "expected (head (P args...))"),
    ("(clause () (head P) (body (P 1)))", "P)",
     "head must be a predicate application"),
    ("(clause () (head (Q 1)) (body (P 1)))", "(Q",
     "undeclared head predicate 'Q'"),
    ("(clause ((x W)) (head (P x)) (bod (P x)))", "(bod",
     "expected (body formula)"),
    ("(goal ())", "(", "expected (goal binders (body ...))"),
    ("(goal () (bod (P 1)))", "(bod", "expected (body formula)"),
    ("(frobnicate)", "(", "unknown form 'frobnicate'"),
    # found by normalization, at the clause
    ("(clause ((x W)) (head (P x x)) (body (leq x 1)))", "(",
     "head of 'P' applied to 2 of 1 arguments"),
    ("(declare H (-> (-> W o) o)) (clause () (head (H P)) (body (P 1)))",
     "(clause", "higher-order head argument must be a variable"),
]


@pytest.mark.parametrize("form,anchor,msg", BAD_FORMS,
                         ids=[m for _, _, m in BAD_FORMS])
def test_malformed_form_is_a_positioned_syntax_problem(capsys, tmp_path,
                                                       form, anchor, msg):
    line, col = 4, form.index(anchor) + 1
    with pytest.raises(SyntaxProblem) as info:
        normalize_problem(parse_problem(BAD_PREAMBLE + form))
    assert (info.value.line, info.value.col, info.value.msg) == \
        (line, col, msg)
    prob = tmp_path / "p.lchc"
    prob.write_text(BAD_PREAMBLE + form + "\n")
    assert main(["typecheck", str(prob)]) == 1
    assert capsys.readouterr().err == \
        f"SyntaxProblem: {line}:{col}: {msg}\n"


def test_missing_theory_is_a_syntax_problem(capsys, tmp_path):
    with pytest.raises(SyntaxProblem) as info:
        parse_problem("(declare P (-> W o))")
    assert (info.value.line, info.value.msg) == \
        (0, "missing (theory ...) form")
    prob = tmp_path / "p.lchc"
    prob.write_text("(declare P (-> W o))\n")
    assert main(["solve", str(prob)]) == 1
    assert capsys.readouterr().err == \
        "SyntaxProblem: missing (theory ...) form\n"


SCALED = """(theory (nat 2))
(direction downward)
(declare P (-> W o))
(clause ((x W)) (head (P x)) (body (leq (* 3 x) (+ (* 2 (tuple 1 4)) x))))
(goal ((x W)) (body (and (P x) (geq (comp (* -1 x) 2) (* 3 (comp x 1))))))
"""


def test_scaled_terms_round_trip_and_compile():
    p = parse_problem(SCALED)
    assert p.clauses[0].body.lhs == WOp("scale", (Var("x"),), 3)
    text = print_problem(p)
    assert "(leq (* 3 x) (+ (* 2 (tuple 1 4)) x))" in text
    assert "(geq (comp (* -1 x) 2) (* 3 (comp x 1)))" in text
    assert parse_problem(text) == p and print_problem(parse_problem(text)) \
        == text
    cl = p.clauses[0].body
    assert components(cl.lhs, 2) == [LinTerm(0, ((comp_var("x", 1), 3),)),
                                     LinTerm(0, ((comp_var("x", 2), 3),))]
    assert components(cl.rhs.args[0], 2) == [LinTerm(2), LinTerm(8)]
    lhs, rhs = p.goals[0].body.args[1].lhs, p.goals[0].body.args[1].rhs
    assert components(lhs, 2) == [LinTerm(0, ((comp_var("x", 2), -1),))]
    assert components(rhs, 2) == [LinTerm(0, ((comp_var("x", 1), 3),))]
    assert validate(normalize_problem(p)).ok
