"""Resolution, saturation, and trace replay tests."""

import itertools
import json

import pytest

from limitdl import driver, resolution
from limitdl.background import theory_for
from limitdl.resolution import (
    BudgetExhausted, ProofTrace, Refuted, Saturator, TraceError, TraceStep,
    canonical_goal, goal_of_clause, replay, resolve, saturate, try_refute,
)
from limitdl.syntax import normalize_problem, parse_problem
from corpus import PINNED, problem, proof_sha256
from oracles import printed_goal_key


def load(text):
    p = normalize_problem(parse_problem(text))
    return p, theory_for(p.theory_kind, p.dim, p.direction)


UNSAT_ROWS = [pid for pid, verdict, _, _ in PINNED if verdict == "UNSAT"]

UNSAT_SIMPLE = """
(theory (lia))
(declare R (-> W o))
(clause ((x W)) (head (R x)) (body (geq x 5)))
(goal () (body (R 7)))
"""

SAT_SIMPLE = """
(theory (lia))
(declare R (-> W o))
(clause ((x W)) (head (R x)) (body (geq x 5)))
(goal () (body (and (R 3) (leq 3 3))))
"""


def test_resolve_substitutes_head_args():
    p, th = load(UNSAT_SIMPLE)
    g = goal_of_clause(p.goals[0])
    cl = [c for c in p.clauses if not c.is_limit][0]
    child = resolve(g, 0, cl, itertools.count())
    # the clause body geq(x,5) instantiated at 7 becomes ground
    assert try_refute(child, th, p.fin_elems)


def test_saturate_refutes_and_replays():
    p, th = load(UNSAT_SIMPLE)
    r = saturate(p, th, budget=100)
    assert isinstance(r, Refuted)
    assert replay(r.trace, p, th)


def test_saturate_budget_exhausted_on_sat():
    p, th = load(SAT_SIMPLE)
    r = saturate(p, th, budget=200)
    assert isinstance(r, BudgetExhausted)


def test_saturator_is_resumable():
    p, th = load(UNSAT_SIMPLE)
    s = Saturator(p, th)
    r = s.run(0)
    assert isinstance(r, BudgetExhausted)
    r = s.run(100)
    assert isinstance(r, Refuted)


def test_refutation_needs_limit_clause():
    # downward problem: R holds at 5 and (by closure) below; goal asks at 3
    p, th = load("""
(theory (nat 1))
(direction downward)
(declare R (-> W o))
(clause ((x W)) (head (R x)) (body (eq x 5)))
(goal () (body (R 3)))
""")
    r = saturate(p, th, budget=500)
    assert isinstance(r, Refuted)
    # some step must use the limit clause
    lim_ids = {i for i, c in enumerate(p.clauses) if c.is_limit}
    assert any(s.definite in lim_ids for s in r.trace.steps if s.rule == "resolution")
    assert replay(r.trace, p, th)


def test_recursive_chain():
    base = """
(theory (nat 1))
(declare R (-> W o))
(clause ((x W)) (head (R x)) (body (eq x 10)))
(clause ((x W) (y W)) (head (R x)) (body (and (R y) (eq x (+ y 2)))))
(goal () (body (R %d)))
"""
    # upward closure of {10, 12, 14, ...} is {x : x >= 10}
    p, th = load(base % 16)
    r = saturate(p, th, budget=5000)
    assert isinstance(r, Refuted)
    assert replay(r.trace, p, th)
    p2, th2 = load(base % 13)  # needs the limit clause
    r2 = saturate(p2, th2, budget=5000)
    assert isinstance(r2, Refuted)
    p3, th3 = load(base % 7)  # below the closure: not derivable
    r3 = saturate(p3, th3, budget=3000)
    assert isinstance(r3, BudgetExhausted)


def test_variable_headed_atoms_are_ignored_by_refutation():
    p, th = load("""
(theory (lia))
(declare R (-> (-> W o) o))
(clause ((f (-> W o))) (head (R f)) (body (f 3)))
(goal ((f (-> W o))) (body (R f)))
""")
    # after one resolution the goal is (f 3): variable-headed, no background
    r = saturate(p, th, budget=100)
    assert isinstance(r, Refuted)


def test_trace_json_roundtrip():
    """A trace read back from its JSON replays, and the strict reader takes
    every trace the solver writes: each UNSAT proof of the corpus reads
    back to the same trace, which writes the same text."""
    p, th = load(UNSAT_SIMPLE)
    r = saturate(p, th, budget=100)
    assert isinstance(r, Refuted)
    t2 = ProofTrace.from_json(r.trace.to_json())
    assert replay(t2, p, th)
    for pid in UNSAT_ROWS:
        t = driver.solve(problem(pid)[0]).trace
        text = t.dumps()
        t2 = ProofTrace.from_json(json.loads(text))
        assert t2 == t, pid
        assert t2.dumps() == text, pid


def _edit_step(i, drop=None, **fields):
    def edit(d):
        d["steps"][i].update(fields)
        d["steps"][i].pop(drop, None)
        return d
    return edit


# on the fo/lia_rec_unsat trace; step 2's parent is goal 1, and true would
# stand for it, as step 1's atom 0 and definite 1 would for 1.0 and "1"
MALFORMED_TRACES = {
    "parent-true": _edit_step(2, parent=True),
    "definite-false": _edit_step(0, definite=False),
    "atom-float": _edit_step(1, atom=1.0),
    "definite-string": _edit_step(1, definite="1"),
    "no-goal": _edit_step(1, drop="goal"),
    "rule-null": _edit_step(1, rule=None),
    "step-extra-key": _edit_step(1, note="x"),
    "step-list": lambda d: {**d, "steps": [list(d["steps"][0].values())]},
    "steps-object": lambda d: {**d, "steps": dict(enumerate(d["steps"]))},
    "constraints-null": lambda d: {**d, "constraints": None},
    "trace-extra-key": lambda d: {**d, "note": "x"},
    "trace-list": lambda d: [d],
}


@pytest.mark.parametrize("edit", MALFORMED_TRACES.values(),
                         ids=MALFORMED_TRACES.keys())
def test_trace_reader_is_strict(edit):
    """The reader takes only the JSON that to_json writes; anything else
    is a TraceError before replay reads a field."""
    p, th = problem("fo/lia_rec_unsat")
    r = saturate(p, th, budget=100)
    assert isinstance(r, Refuted)
    assert replay(ProofTrace.from_json(r.trace.to_json()), p, th)
    with pytest.raises(TraceError):
        ProofTrace.from_json(edit(r.trace.to_json()))


def test_replay_rejects_corrupted_trace():
    p, th = load(UNSAT_SIMPLE)
    r = saturate(p, th, budget=100)
    assert isinstance(r, Refuted)
    d = r.trace.to_json()
    # corrupt a recorded goal
    bad = ProofTrace.from_json(d)
    for s in bad.steps:
        if s.rule == "resolution":
            s.goal = s.goal.replace("7", "8")
    with pytest.raises(TraceError):
        replay(bad, p, th)
    # corrupt a clause reference
    bad2 = ProofTrace.from_json(d)
    for s in bad2.steps:
        if s.rule == "resolution":
            s.definite = 10 ** 6
    with pytest.raises(TraceError):
        replay(bad2, p, th)


def test_replay_range_checks_the_refutation_parent():
    """The refutation step's parent is checked like every other parent
    reference; None still names the last goal."""
    p, th = problem("fo/lia_threshold_unsat")
    r = saturate(p, th, budget=100)
    assert isinstance(r, Refuted)
    d = r.trace.to_json()
    ngoals = len(d["steps"]) - 1  # every step but the refutation adds one
    for parent, ok in ((None, True), (ngoals - 1, True), (ngoals, False),
                       (-1, False)):
        t = ProofTrace.from_json(d)
        t.steps[-1].parent = parent
        if ok:
            assert replay(t, p, th)
        else:
            with pytest.raises(TraceError):
                replay(t, p, th)


SECOND_GOAL_REFUTES = """
(theory (lia))
(declare R (-> W o))
(clause ((x W)) (head (R x)) (body (geq x 5)))
(goal () (body (R 3)))
(goal () (body (R 7)))
"""

ROOT_REFUTES = """
(theory (nat 1))
(goal ((x W)) (body (and (geq x 2) (leq x 4))))
"""


@pytest.mark.parametrize("text, rules, steps, sha", [
    (SECOND_GOAL_REFUTES, ["root", "resolution", "refutation"], 5,
     "f3c2fec1320bc06e7e3e287b87b30342e196681d2a0f82535bd0e241cac44d25"),
    (ROOT_REFUTES, ["root", "refutation"], 1,
     "cf0ba6bd562429ee209cb487192dc343c48627fc3c7605bf847798892b83270d"),
], ids=["second_goal", "at_root"])
def test_trace_records_its_goal_clause(text, rules, steps, sha):
    """The root step's definite is the index of the goal clause the proof
    starts from: 1 when the first goal clause dies and the second refutes.
    A goal of background atoms only refutes at its root with no resolution
    step (resolutionSteps counts the refutation rule too).  Both traces
    replay after a JSON round trip."""
    p, th = load(text)
    v = driver.solve(p, driver.SolveConfig())
    assert v.kind == "UNSAT" and v.stats["resolutionSteps"] == steps
    assert [s.rule for s in v.trace.steps] == rules
    assert v.trace.steps[0].definite == len(p.goals) - 1
    assert proof_sha256(v.trace) == sha
    assert replay(ProofTrace.from_json(v.trace.to_json()), p, th)


def test_replay_bounds_a_variable_only_a_clause_body_introduces():
    """Over nat, the body variable y of the first clause is at least 0, so
    (leq (+ y 1) 0) has no solution and (R 3) is not derivable.  A trace
    that resolves through that clause and refutes must fail replay's final
    check, which bounds y although no goal clause binds it."""
    p, th = load("""
(theory (nat 1))
(declare R (-> W o))
(clause ((x W) (y W)) (head (R x)) (body (leq (+ y 1) 0)))
(goal () (body (R 3)))
""")
    assert not p.clauses[0].is_limit
    trace = ProofTrace([
        TraceStep("(R 3)", "root", None, None, 0),
        TraceStep("(leq (+ v0 1) 0)", "resolution", 0, 0, 0),
        TraceStep("(leq (+ v0 1) 0)", "refutation", 1, None, None),
    ], "(leq (+ y$0 1) 0)")
    with pytest.raises(TraceError, match="final refutation check failed"):
        replay(trace, p, th)
    assert driver.solve(p, driver.SolveConfig()).kind == "SAT"


def test_canonical_goal_renaming_invariance():
    p, _ = load(SAT_SIMPLE)
    g = goal_of_clause(p.goals[0])
    assert canonical_goal(g) == canonical_goal(g)
    text2 = SAT_SIMPLE.replace("(x W)", "(zz W)").replace("x 5", "zz 5").replace("(R x)", "(R zz)")
    p2, _ = load(text2)
    assert canonical_goal(goal_of_clause(p2.goals[0])) == canonical_goal(g)


def small_goal(body, binders="((x W) (y W))",
               decls="(declare R (-> W W o))"):
    p, _ = load(f"(theory (lia)) {decls} (goal {binders} (body {body}))")
    return goal_of_clause(p.goals[0])


def goal_key(*args, **kwargs):
    return canonical_goal(small_goal(*args, **kwargs))


def same_partition(goals):
    pairs = {(canonical_goal(g), printed_goal_key(g)) for g in goals}
    return len({k for k, _ in pairs}) == len({o for _, o in pairs}) \
        == len(pairs)


def test_canonical_goal_separates_repeated_variables():
    assert goal_key("(and (R x y) (eq x x))") != \
        goal_key("(and (R x y) (eq x y))")
    assert goal_key("(R x x)") != goal_key("(R x y)")


def test_canonical_goal_permutation_with_renaming():
    base = goal_key("(and (R x y) (geq x 3) (leq y 5) (R y x))")
    assert goal_key("(and (leq b 5) (R a b) (R b a) (geq a 3))",
                    "((a W) (b W))") == base
    assert goal_key("(and (leq b 5) (R a b) (R b a) (geq a 4))",
                    "((a W) (b W))") != base


def test_canonical_goal_percent_in_names():
    decls = "(declare R%d (-> W W o)) (declare R%%d (-> W W o))"
    one = goal_key("(and (R%d x y) (R%%d y x))", decls=decls)
    assert "R%d" in one and "R%%d" in one
    assert one == goal_key("(and (R%%d b a) (R%d a b))", "((a W) (b W))",
                           decls)
    assert one != goal_key("(and (R%d x y) (R%%d x y))", decls=decls)


def test_canonical_goal_keeps_ties_in_goal_order():
    # equal skeletons stay in goal order, so these two are told apart
    # (as by the printed key) although they are renamings of each other
    decls = "(declare R (-> W W o)) (declare S (-> W o))"
    a = small_goal("(and (R x y) (R y x) (S x))", decls=decls)
    b = small_goal("(and (R y x) (R x y) (S x))", decls=decls)
    assert canonical_goal(a) != canonical_goal(b)
    assert same_partition([a, b, small_goal(
        "(and (R b a) (R a b) (S b))", "((a W) (b W))", decls)])


def test_canonical_goal_variable_is_not_a_constant_named_like_a_slot():
    # the constant v0 and a variable must not share a key, or the search
    # drops the refutable goal (R y) as already seen
    p, th = load("""
(theory (lia))
(finsort S (v0 b))
(declare R (-> S o))
(clause ((x S)) (head (R x)) (body (eqs x b)))
(goal () (body (R v0)))
(goal ((y S)) (body (R y)))
""")
    goals = [goal_of_clause(g) for g in p.goals]
    assert canonical_goal(goals[0]) != canonical_goal(goals[1])
    assert same_partition(goals)
    assert isinstance(saturate(p, th, 100), Refuted)


@pytest.mark.parametrize("name", ["mult6", "fo/nat_trade_unsat",
                                  "lcm/m3/b:2,0"])
def test_canonical_goal_matches_printed_key(monkeypatch, name):
    """Along a whole search, the key and the printed-string oracle put the
    same goals together.  A child is keyed by its shapes before it has
    atoms, so the oracle reads the child that resolve builds on the syntax
    path for the same step, whose shapes must be the keyed ones."""
    p, th = problem(name)
    goals, step = [], []
    orig, shapes = resolution.canonical_goal, resolution._Compiled.fill

    def kept_step(cc, goal, i, args, arg_shapes, suffix):
        step[:] = [resolve(goal, i, p.clauses[cc.index],
                           itertools.count(int(suffix[1:])))]
        return shapes(cc, goal, i, args, arg_shapes, suffix)

    def keep(g):
        if g.atoms is None:
            assert step[0].shapes == g.shapes
            g = step.pop()
        goals.append(g)
        return orig(g)

    monkeypatch.setattr(resolution._Compiled, "fill", kept_step)
    monkeypatch.setattr(resolution, "canonical_goal", keep)
    assert isinstance(saturate(p, th, budget=5000), Refuted)
    assert len(goals) > 10
    assert same_partition(goals)
