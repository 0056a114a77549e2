"""Type order, initiality, and validation tests."""

import pytest
from hypothesis import given, strategies as st

from limitdl.cli import main
from limitdl.syntax import (
    Arrow, FIN, PROP, W, mk_arrow, parse_problem, normalize_problem,
)
from limitdl.typesys import (
    classify, is_initial, type_order, validate, w_position,
)


def arrow(*sorts):
    return mk_arrow(list(sorts[:-1]), sorts[-1])


# order examples: base sorts are order 0; an order-1 binary relation on S;
# an order-2 sort with relational arguments; an order-3 sort taking it
def test_type_order_examples():
    assert type_order(PROP) == 0
    assert type_order(FIN) == 0
    assert type_order(W) == 0
    assert type_order(arrow(FIN, FIN, PROP)) == 1
    rho = arrow(FIN, arrow(FIN, PROP), PROP, W, arrow(W, PROP), PROP)
    assert type_order(rho) == 2
    assert type_order(arrow(W, rho, PROP)) == 3


def test_initiality_verdicts():
    # the four canonical verdicts
    assert is_initial(arrow(FIN, W, PROP)) is True
    assert is_initial(arrow(arrow(W, PROP), W, FIN, arrow(W, PROP), PROP)) is True
    assert is_initial(arrow(W, W, PROP)) is False  # two W arguments
    assert is_initial(arrow(arrow(W, PROP), W, PROP)) is False  # O2


def test_classify():
    assert classify(arrow(FIN, W, PROP)) == "active"
    assert classify(arrow(FIN, FIN, PROP)) == "inactive"
    assert classify(PROP) == "inactive"
    assert classify(arrow(W, W, PROP)) == "noninitial"
    assert w_position(arrow(FIN, W, PROP)) == 1
    assert w_position(arrow(FIN, PROP)) is None


# every suffix of an initial sort (as a sort in its own right) is initial
@st.composite
def sorts(draw, depth=2):
    if depth == 0 or draw(st.booleans()):
        return draw(st.sampled_from([PROP, FIN, W]))
    n = draw(st.integers(1, 3))
    args = [draw(sorts(depth=depth - 1)) for _ in range(n)]
    return mk_arrow(args, PROP)


@given(sorts(depth=3))
def test_initial_suffixes_are_initial(s):
    if not is_initial(s):
        return
    while isinstance(s, Arrow):
        s = s.res
        if s != PROP:
            assert is_initial(s)


@given(sorts(depth=3))
def test_order_is_monotone_in_result(s):
    if isinstance(s, Arrow):
        assert type_order(s) >= type_order(s.res)
        assert type_order(s) >= type_order(s.arg) + 1


ADD_TEXT = """
(theory (lia))
(declare Add1 (-> (-> W o) (-> W o) (-> W o) (-> W o) W o))
(declare Add2 (-> (-> W o) (-> W o) (-> W o) (-> W o) W o))
(declare I51 (-> W o))
(declare I52 (-> W o))
(clause ((x W)) (head (I51 x)) (body (geq x 5)))
(clause ((x W)) (head (I52 x)) (body (geq x -5)))
(clause ((f1 (-> W o)) (f2 (-> W o)) (g1 (-> W o)) (g2 (-> W o)) (x W) (y W) (z W))
  (head (Add1 f1 f2 g1 g2 x))
  (body (and (f1 y) (f2 (- 0 y)) (g1 z) (g2 (- 0 z)) (geq x (+ y z)))))
(clause ((f1 (-> W o)) (f2 (-> W o)) (g1 (-> W o)) (g2 (-> W o)) (x W) (y W) (z W))
  (head (Add2 f1 f2 g1 g2 x))
  (body (and (f1 y) (f2 (- 0 y)) (g1 z) (g2 (- 0 z)) (geq x (- 0 (+ y z))))))
"""


def test_add_program_rejected_for_o2():
    p = normalize_problem(parse_problem(ADD_TEXT))
    rep = validate(p)
    assert rep.mode == "Rejected"
    assert any("Add1" in e and "O2" in e for e in rep.errors)


def test_integral_program_accepted_higher_order():
    text = """
(theory (nat 2))
(direction downward)
(declare Exp (-> W o))
(declare Integral (-> W (-> W o) o))
(clause ((u W) (f (-> W o))) (head (Integral u f)) (body (eq (comp u 1) 0)))
(goal () (body (Integral (tuple 255 0) Exp)))
"""
    p = normalize_problem(parse_problem(text))
    rep = validate(p)
    assert rep.mode == "InitialHigherOrder"
    assert rep.max_order == 2
    assert rep.pred_info["Integral"]["class"] == "active"
    assert rep.pred_info["Exp"]["class"] == "active"


def test_first_order_mode():
    p = normalize_problem(parse_problem("""
(theory (lia))
(finsort S (a b))
(declare R (-> S W o))
(clause ((s S) (x W)) (head (R s x)) (body (geq x 5)))
"""))
    rep = validate(p)
    assert rep.mode == "FirstOrder"
    assert rep.max_order == 1


def test_sort_errors_reported():
    p = normalize_problem(parse_problem("""
(theory (lia))
(declare R (-> W o))
(goal ((x W)) (body (R x x)))
"""))
    rep = validate(p)
    assert rep.mode == "Rejected"


def test_two_w_arguments_rejected():
    p = normalize_problem(parse_problem("""
(theory (lia))
(declare R (-> W W o))
(clause ((x W) (y W)) (head (R x y)) (body (geq x y)))
"""))
    rep = validate(p)
    assert rep.mode == "Rejected"
    assert any("O1" in e for e in rep.errors)


# one ill-sorted clause after a well-sorted preamble, and the error that
# validation reports for it
ILL_PREAMBLE = "(theory (nat 2))\n(finsort S (a b))\n(declare P (-> W o))\n"
ILL_SORTED = [
    ("(goal ((s S)) (body (leq s 1)))", "goal: variable 's' is not numeric"),
    ("(goal ((x W)) (body (leq x (tuple 1 2 3))))",
     "goal: tuple literal of length 3, expected 2"),
    ("(goal ((x W)) (body (leq (comp (comp x 1) 2) 0)))",
     "goal: comp applies to a tuple-valued term"),
    ("(goal ((s S)) (body (leq (* 3 s) 0)))",
     "goal: variable 's' is not numeric"),
    ("(goal ((x W)) (body (leq (+ x (comp x 1)) 0)))",
     "goal: mixed scalar/tuple arithmetic"),
    ("(goal ((x W)) (body (leq a x)))", "goal: not a numeric term: "),
    ("(goal () (body (eqs (a a) b)))", "goal: cannot apply term of sort S"),
    ("(goal ((x W)) (body (eqs x a)))",
     "goal: eqs argument is not of sort S"),
    ("(goal ((s S)) (body (and (P 1) s)))",
     "goal: foreground atom has sort S, not o"),
    ("(goal ((x W)) (body (P x x)))", "goal: cannot apply term of sort o"),
    ("(clause ((s S)) (head (P s)) (body (eqs s a)))",
     "clause for P: head argument sort S, expected W"),
    ("(goal ((f (-> W W o))) (body (P 1)))",
     "variable 'f' has non-initial sort (-> W W o)"),
    ("(goal ((f (-> (-> W o) o))) (body (P 1)))",
     "variable 'f' has order above every predicate"),
]


@pytest.mark.parametrize("clause,error", ILL_SORTED,
                         ids=[e for _, e in ILL_SORTED])
def test_ill_sorted_clause_is_rejected(capsys, tmp_path, clause, error):
    p = normalize_problem(parse_problem(ILL_PREAMBLE + clause))
    rep = validate(p)
    assert rep.mode == "Rejected"
    assert [e for e in rep.errors if e.startswith(error)], rep.errors
    prob = tmp_path / "p.lchc"
    prob.write_text(ILL_PREAMBLE + clause + "\n")
    assert main(["typecheck", str(prob)]) == 2
    out = capsys.readouterr().out
    assert out.startswith("Rejected: ") and error in out
    assert len(out.strip().splitlines()) == 1
