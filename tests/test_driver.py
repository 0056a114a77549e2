"""End-to-end solve/verify behaviour and verdict stability."""

import itertools
import json
import os
import signal

import pytest

from corpus import (HINTS, MODEL_SHA256, PINNED, PROOF_SHA256, integral,
                    model_sha256, noncanonical_descriptors, problem,
                    proof_sha256)
from oracles import deadline
from limitdl import driver as D
from limitdl import entwined as E
from limitdl import presburger as P
from limitdl import resolution
from limitdl.driver import SolveConfig, Verdict, solve, verify
from limitdl.entwined import enumerate_structures, serialize_model
from limitdl.resolution import BudgetExhausted, Saturator, replay
from limitdl.background import Theory, theory_for
from limitdl.syntax import BgAtom, normalize_problem, parse_problem

FIX = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def load(name):
    with open(os.path.join(FIX, name), encoding="utf-8") as fh:
        return normalize_problem(parse_problem(fh.read()))


SAT_TEXT = """
(theory (lia))
(direction upward)
(declare R (-> W o))
(clause ((y W)) (head (R y)) (body (geq y 5)))
(goal () (body (R 3)))
"""

UNSAT_TEXT = SAT_TEXT.replace("(R 3)", "(R 7)")


def test_fo_sat():
    v = solve(normalize_problem(parse_problem(SAT_TEXT)))
    assert v.kind == "SAT"
    assert v.model is not None
    assert v.report.mode == "FirstOrder"


def test_fo_unsat_trace_replays():
    p = normalize_problem(parse_problem(UNSAT_TEXT))
    v = solve(p)
    assert v.kind == "UNSAT"
    th = theory_for(p.theory_kind, p.dim, p.direction)
    assert replay(v.trace, p, th)


@pytest.mark.parametrize("res", [1, 10, 5000])
def test_verdict_stable_across_slice_sizes(res):
    cfg = SolveConfig(resolution_slice=res)
    assert solve(normalize_problem(parse_problem(SAT_TEXT)), cfg).kind == "SAT"
    assert solve(normalize_problem(parse_problem(UNSAT_TEXT)),
                 cfg).kind == "UNSAT"


def test_invalid_problem_reported():
    text = """
(theory (lia))
(direction upward)
(declare R (-> W W o))
(clause ((x W) (y W)) (head (R x y)) (body (geq x y)))
(goal () (body (R 0 0)))
"""
    v = solve(normalize_problem(parse_problem(text)))
    assert v.kind == "INVALID"
    assert v.report is not None and not v.report.ok


def test_total_budget_gives_unknown():
    # far too little budget for the flagship instance: must stop, not loop
    p = load("integral256.lchc")
    v = solve(p, SolveConfig(resolution_slice=5, total_budget=20))
    assert v.kind == "UNKNOWN"


def test_hint_is_used():
    p = load("integral256.lchc")
    v = solve(p, SolveConfig(hint=os.path.join(FIX, "integral256.model.json"),
                             total_budget=5000))
    assert v.kind == "SAT"
    # the hint is checked before the first resolution slice
    assert v.stats == {"resolutionSteps": 0, "modelsChecked": 1}


def test_failing_hint_costs_one_check(tmp_path):
    # a well-formed witness of the SAT variant is no model of the UNSAT one
    sat = solve(normalize_problem(parse_problem(SAT_TEXT)))
    hint = tmp_path / "hint.json"
    hint.write_text(json.dumps(serialize_model(sat.model)))
    p = normalize_problem(parse_problem(UNSAT_TEXT))
    plain = solve(p)
    hinted = solve(p, SolveConfig(hint=str(hint)))
    assert plain.kind == hinted.kind == "UNSAT"
    assert hinted.stats["resolutionSteps"] == plain.stats["resolutionSteps"]
    assert hinted.stats["modelsChecked"] == plain.stats["modelsChecked"] + 1


def test_bad_hint_is_ignored():
    v = solve(normalize_problem(parse_problem(SAT_TEXT)),
              SolveConfig(hint=os.path.join(FIX, "no-such-file.json")))
    assert v.kind == "SAT"


def test_verify_accepts_good_witness():
    p = load("integral256.lchc")
    with open(os.path.join(FIX, "integral256.model.json")) as fh:
        ok, diag = verify(p, json.load(fh))
    assert ok and diag == "ok"


def test_witness_check_effort_is_pinned(monkeypatch):
    """Checking integral256's witness expands at most 102 frames of the DNF
    walk and hands no leaf to _sat_lits: each node of the walk (_child)
    narrows a copy of its parent's bounds with the literals it adds, and
    that refutes every branch of every check_clause query.  A walk that
    neither box-tests nor narrows its nodes expands 1,002 frames and makes
    2,458 _sat_lits calls here."""
    calls = {"_leaves": 0, "_sat_lits": 0}
    for name in calls:
        def counted(*args, _f=getattr(P, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(P, name, counted)
    p = load("integral256.lchc")
    with open(os.path.join(FIX, "integral256.model.json")) as fh:
        ok, _ = verify(p, json.load(fh))
    assert ok
    assert calls["_sat_lits"] == 0
    assert calls["_leaves"] <= 102, calls


def test_witness_check_builds_no_dead_node(monkeypatch):
    """integral256's witness check builds 921 search nodes (_child), and
    819 of them are dead on arrival: an added row has no solution in the
    parent's box.  _child refutes those with the box test before it copies
    or narrows, so _narrow runs at most 102 times (once per live node);
    and the walk splits each pending disjunction once, not once per node,
    so _lits_of runs at most 330 times.  Narrowing every node makes 921
    _narrow calls here, and splitting at every node 2,579 _lits_of calls."""
    calls = dict.fromkeys(("_child", "_narrow", "_lits_of", "_sat_lits"), 0)
    for name in calls:
        def counted(*args, _f=getattr(P, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(P, name, counted)
    p = load("integral256.lchc")
    with open(os.path.join(FIX, "integral256.model.json")) as fh:
        ok, _ = verify(p, json.load(fh))
    assert ok
    assert calls["_child"] == 921 and calls["_sat_lits"] == 0, calls
    assert calls["_narrow"] <= 102 and calls["_lits_of"] <= 330, calls


def test_witness_check_writes_each_membership_once(monkeypatch):
    """integral256's witness check reads 12 distinct memberships and 10
    distinct complements, and the structure's memo has the theory write
    each once: at most 22 upset_formula and complement_formula calls.
    Writing them per read, as Integral's region split reads both
    polarities of both rows for each value of f, makes 47."""
    calls = {"upset_formula": 0, "complement_formula": 0}
    for name in calls:
        def counted(self, *args, _f=getattr(Theory, name), _name=name):
            calls[_name] += 1
            return _f(self, *args)
        monkeypatch.setattr(Theory, name, counted)
    p = load("integral256.lchc")
    with open(os.path.join(FIX, "integral256.model.json")) as fh:
        ok, _ = verify(p, json.load(fh))
    assert ok
    assert sum(calls.values()) <= 22, calls


def test_witness_check_keeps_no_dead_case(monkeypatch):
    """_sym_apply drops a case whose guard folds to FALSE where it makes
    it: on integral256's witness check it returns 49 cases, none of them
    dead.  Keeping them returns 89, 40 with guard FALSE."""
    returned = []

    def recorded(*args, _f=E._sym_apply):
        out = _f(*args)
        returned.extend(g for g, _ in out)
        return out
    monkeypatch.setattr(E, "_sym_apply", recorded)
    p = load("integral256.lchc")
    with open(os.path.join(FIX, "integral256.model.json")) as fh:
        ok, _ = verify(p, json.load(fh))
    assert ok
    assert len(returned) == 49 and P.FALSE not in returned, returned


def test_verify_rejects_wrong_problem():
    p = load("integral255.lchc")
    with open(os.path.join(FIX, "integral256.model.json")) as fh:
        ok, diag = verify(p, json.load(fh))
    assert not ok
    assert "does not satisfy" in diag


def test_verify_rejects_malformed_witness():
    p = load("integral256.lchc")
    ok, diag = verify(p, {"stages": 1, "predicates": {}})
    assert not ok


def test_config_rejects_nonpositive_slices():
    with pytest.raises(ValueError):
        SolveConfig(resolution_slice=0)
    with pytest.raises(ValueError):
        SolveConfig(resolution_slice=-1)


def test_config_rejects_nonpositive_total_budget():
    for budget in (0, -5):
        with pytest.raises(ValueError):
            SolveConfig(total_budget=budget)


@pytest.mark.parametrize("pid,verdict,steps,models", PINNED,
                         ids=[row[0] for row in PINNED])
def test_corpus_outcomes_are_pinned(pid, verdict, steps, models):
    p, _ = problem(pid)
    v = solve(p, SolveConfig(hint=HINTS.get(pid)))
    assert (v.kind, v.stats) == (verdict, {"resolutionSteps": steps,
                                           "modelsChecked": models})
    if verdict == "SAT":
        assert model_sha256(v.model) == MODEL_SHA256[pid]
        assert noncanonical_descriptors(v.model) == []
    else:
        assert proof_sha256(v.trace) == PROOF_SHA256[pid]


@pytest.fixture
def alarm():
    """Fail within seconds where the code under test would hang."""
    def expire(signum, frame):
        raise TimeoutError("no answer within 10 s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


def test_finite_structure_space_ends(alarm):
    # one inactive predicate over {a, b}: four tables, then the candidate
    # stream ends and a one-step slice still reaches the refutation
    p = normalize_problem(parse_problem("""
(theory (lia))
(finsort S (a b))
(declare R (-> S o))
(clause ((x S)) (head (R x)) (body (eqs x b)))
(goal () (body (R b)))
"""))
    th = theory_for(p.theory_kind, p.dim, p.direction)
    assert len(list(enumerate_structures(p, th))) == 4
    assert solve(p, SolveConfig(resolution_slice=1)).kind == "UNSAT"


def test_omega_generator_is_not_overapproximated(alarm):
    # D = {u2 <= 5} ∪ {u <= (2, 10)}: the least model {(ω,5), (2,10)}
    # keeps both goal points out of D; a generator (ω,10) would put
    # (100, 10) in D and leave only the unending candidate stream
    p = normalize_problem(parse_problem("""
(theory (nat 2)) (direction downward) (declare D (-> W o))
(clause ((u W)) (head (D u)) (body (leq (comp u 2) 5)))
(clause ((u W)) (head (D u)) (body (leq u (tuple 2 10))))
(goal () (body (D (tuple 100 10))))
(goal () (body (D (tuple 2 11))))
"""))
    v = solve(p, SolveConfig())
    assert v.kind == "SAT"
    assert v.stats["modelsChecked"] == 1


EMPTY_S_TEXT = """
(theory (nat 1)) (direction upward) (declare P (-> S W o))
(clause ((s S) (u W)) (head (P s u)) (body (geq u 3)))
(goal ((s S)) (body (P s 5)))
"""


def test_empty_finite_sort_makes_its_clauses_vacuous(alarm):
    # with S empty, the goal binds no value and constrains nothing: the
    # empty model satisfies the problem, so the search must not refute it
    p = normalize_problem(parse_problem(EMPTY_S_TEXT))
    assert p.goals == ()
    v = solve(p)
    assert v.kind == "SAT"
    ok, diag = verify(p, serialize_model(v.model))
    assert ok, diag


FIN_HEAD_TEXT = """
(theory (lia)) (direction upward) (finsort S (a b)) (declare P (-> S W o))
(clause ((u W)) (head (P a u)) (body (geq u 3)))
(goal %s (body %s))
"""


@pytest.mark.parametrize("binders,body,verdict", [
    ("()", "(P b 5)", "SAT"),
    ("()", "(P a 5)", "UNSAT"),
    ("((s S))", "(and (eqs s b) (P s 5))", "SAT"),
    ("((s S))", "(and (eqs s a) (P s 5))", "UNSAT"),
])
def test_constant_head_argument_is_an_eqs_constraint(alarm, binders, body,
                                                     verdict):
    # the clause head's constant `a` becomes an eqs atom on a fresh head
    # variable, which the search compiles to an integer equality
    p = normalize_problem(parse_problem(FIN_HEAD_TEXT % (binders, body)))
    assert any(isinstance(a, BgAtom) and a.rel == "eqs"
               for cl in p.clauses for a in cl.body_atoms())
    v = solve(p)
    assert v.kind == verdict
    if verdict == "SAT":
        assert verify(p, serialize_model(v.model))[0]
    else:
        assert v.stats["resolutionSteps"] == 3
        th = theory_for(p.theory_kind, p.dim, p.direction)
        assert replay(v.trace, p, th)


def test_hintless_integral_twin_is_sat_by_fair_turns():
    """The b = 0 twin of integral255 (Exp below 2^0, goal area 2) is SAT
    only through fair enumeration, as its 438th candidate.  The model turn
    after the first 2,000-step slice may spend the Presburger nodes that
    slice built (about 9.7k), and the 438 candidates need about 2.6k.  With
    50 candidates per slice instead, the same model comes after 18,009
    steps and more than a minute."""
    p, _ = integral(0, 2)
    with deadline(20):
        v = solve(p, SolveConfig())
    assert (v.kind, v.stats) == ("SAT", {"resolutionSteps": 2000,
                                         "modelsChecked": 438})
    ok, diag = verify(p, json.loads(json.dumps(serialize_model(v.model))))
    assert ok, diag


DEAD_CHILDREN_TEXT = """
(theory (lia))
(finsort S (a b c))
(declare R (-> S o))
(clause ((x S)) (head (R x)) (body (and (eqs x b) (R x))))
(clause ((x S)) (head (R x)) (body (and (eqs x c) (R a))))
(goal () (body (R a)))
"""


def test_children_with_dead_backgrounds_end_the_search(monkeypatch, alarm):
    """Both children of the root have an unsatisfiable background.  They
    are generated (two steps) and pruned when popped, spending no step and
    getting no child, so the search ends with an empty frontier; a solve
    with one-step slices still ends, with the least model, checked after
    the first slice's one step."""
    p = normalize_problem(parse_problem(DEAD_CHILDREN_TEXT))
    th = theory_for(p.theory_kind, p.dim, p.direction)
    extended = []

    def recorded(state, fs, _f=resolution.bg_extend):
        extended.append(_f(state, fs))
        return extended[-1]

    monkeypatch.setattr(resolution, "bg_extend", recorded)
    sat = Saturator(p, th)
    r = sat.run(100)
    assert isinstance(r, BudgetExhausted) and r.steps_used == 2
    assert sat.exhausted()
    assert extended == [None, None]
    v = solve(p, SolveConfig(resolution_slice=1))
    assert (v.kind, v.stats) == ("SAT", {"resolutionSteps": 1,
                                         "modelsChecked": 1})


@pytest.mark.parametrize("b", [1, 2, 3, 4, 5])
def test_a_slice_stops_at_its_allotment(b):
    """Saturator.run(b) spends at most b steps, also where b ends inside a
    node's expansion, whose other children the next call generates; the
    saturator is not exhausted while one is left.  Slices of b steps reach
    m2 t:(0,4)'s pinned refutation: 909 steps and the same proof."""
    p, th = problem("lcm/m2/t:0,4")
    sat = Saturator(p, th)
    while True:
        assert not sat.exhausted()
        before = sat.steps_used
        r = sat.run(b)
        assert sat.steps_used - before <= b
        if not isinstance(r, BudgetExhausted):
            break
    assert r.steps_used == 909
    assert proof_sha256(r.trace) == PROOF_SHA256["lcm/m2/t:0,4"]


@pytest.mark.parametrize("b,total", [(0, 10), (0, 61), (None, 100)])
def test_steps_and_checks_stay_within_the_total_budget(b, total):
    """The total budget bounds steps plus checks, and the slice cut to its
    rest stops there, inside an expansion too: the b = 0 twin with 3-step
    slices, whose model turns check candidates, and m2 t:(0,4) with 7-step
    slices, which ends before a model turn."""
    p, _ = problem("lcm/m2/t:0,4") if b is None else integral(b, 2)
    v = solve(p, SolveConfig(resolution_slice=3 if b == 0 else 7,
                             total_budget=total))
    assert v.kind == "UNKNOWN"
    assert v.stats["resolutionSteps"] + v.stats["modelsChecked"] == total


@pytest.mark.parametrize("b,steps", [(3, 223), (4, 424), (5, 736),
                                     (6, 1195)])
def test_integral_family_unsat_steps_are_pinned(b, steps):
    p, _ = integral(b, 2 ** (b + 1) - 1)
    with deadline(20):
        v = solve(p, SolveConfig())
    assert (v.kind, v.stats) == ("UNSAT", {"resolutionSteps": steps,
                                           "modelsChecked": 0})


def record_turns(monkeypatch):
    """Record a solve's turns: per resolution slice, the Presburger nodes
    it built and the charge of each candidate checked after it (the nodes
    built since the previous slice or check ended, at least 1)."""
    turns, mark = [], [0]
    run, holds = Saturator.run, D._holds

    def recorded_run(self, budget):
        before = P.nodes
        r = run(self, budget)
        turns.append((P.nodes - before, []))
        mark[0] = P.nodes
        return r

    def recorded_holds(m, p):
        ok = holds(m, p)
        turns[-1][1].append(max(1, P.nodes - mark[0]))
        mark[0] = P.nodes
        return ok

    monkeypatch.setattr(Saturator, "run", recorded_run)
    monkeypatch.setattr(D, "_holds", recorded_holds)
    return turns


def test_model_turn_spends_the_nodes_of_its_slice(monkeypatch):
    """With one-step slices on the b = 0 twin, every model turn checks at
    least one candidate (also after a slice that built no node), starts no
    candidate once its charges reach the slice's nodes, and ends only
    then, or with the answer."""
    turns = record_turns(monkeypatch)
    p, _ = integral(0, 2)
    with deadline(20):
        v = solve(p, SolveConfig(resolution_slice=1))
    assert v.kind == "SAT"
    assert sum(len(charges) for _, charges in turns) == 438
    assert any(share == 0 for share, _ in turns)
    assert any(len(charges) > 1 for _, charges in turns)
    for i, (share, charges) in enumerate(turns):
        assert charges, i
        assert len(charges) == 1 or sum(charges[:-1]) < share, i
        if i < len(turns) - 1:
            assert sum(charges) >= share, i


def test_model_side_alone_stops_at_the_total_budget(monkeypatch):
    """With no goal the frontier is empty from the start, so the model side
    runs alone; on an endless stream of candidates that all fail, the total
    budget still ends the solve, counting checks, not slice allotments."""
    p = normalize_problem(parse_problem(EMPTY_S_TEXT))
    monkeypatch.setattr(D, "_candidates",
                        lambda *args: itertools.repeat(object()))
    monkeypatch.setattr(D, "_holds", lambda m, p: False)
    with deadline(10):
        v = solve(p, SolveConfig(total_budget=3))
    assert v.kind == "UNKNOWN"
    assert v.stats["resolutionSteps"] + v.stats["modelsChecked"] <= 3
    assert v.stats["modelsChecked"] == 3


def test_node_free_candidates_cannot_starve_resolution(monkeypatch):
    """A candidate that builds no node (a check that fails on a frame too
    large, say) is charged 1, so an endless stream of them still yields to
    the next one-step slice: the refutation comes after as many checks as
    the slices before it built nodes, and at least one per slice."""
    turns = record_turns(monkeypatch)
    p, _ = integral(3, 15)
    monkeypatch.setattr(D, "_candidates",
                        lambda *args: itertools.repeat(object()))
    monkeypatch.setattr(D, "_holds", lambda m, p: False)
    with deadline(10):
        v = solve(p, SolveConfig(resolution_slice=1))
    assert v.kind == "UNSAT" and v.stats["resolutionSteps"] == 223
    assert v.stats["modelsChecked"] == sum(max(share, 1)
                                           for share, _ in turns[:-1])
