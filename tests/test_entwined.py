"""Frame construction, clause checking, model serialization, least models."""

import hashlib
import itertools
import json
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from limitdl import entwined as E
from limitdl import presburger as P
from limitdl.driver import SolveConfig, solve
from limitdl.background import ALL, EMPTY, Antichain, Theory, theory_for
from limitdl.syntax import PROP, W, Arrow, normalize_problem, parse_problem
from limitdl.typesys import validate
from corpus import (EXTRACTION_SHA256, FIRST_ORDER, HINTS, LEAST_MODEL_SHA256,
                    PINNED, extraction_digest, model_sha256,
                    noncanonical_descriptors, problem)
from oracles import bounded_canonical_model, deadline

ROOT = os.path.join(os.path.dirname(__file__), "..")
FIX = os.path.join(ROOT, "fixtures")


def load(name):
    with open(os.path.join(FIX, name), encoding="utf-8") as fh:
        return normalize_problem(parse_problem(fh.read()))


def theory_of(p):
    return theory_for(p.theory_kind, p.dim, p.direction)


# ---------------------------------------------------------------------------
# the worked third-order example: X : S -> (S->o) -> o -> xi with
# xi = W -> (W->o) -> o over the integers in the upward order

XYZ_TEXT = """
(theory (lia))
(direction upward)
(finsort S (club diamond spade heart))
(declare Y (-> S S o))
(declare X (-> S (-> S o) o W (-> W o) o))
(declare Z (-> W (-> S (-> S o) o W (-> W o) o) o))
"""

XI = Arrow(W, Arrow(Arrow(W, PROP), PROP))


def xyz_structure():
    p = normalize_problem(parse_problem(XYZ_TEXT))
    th = theory_of(p)
    m0 = E.EntwinedStructure(p, th, {})
    rho = p.decl_map["X"]
    ysort = p.decl_map["Y"]
    fins = m0.frame(ysort.arg)
    # Y s1 s2 iff both arguments are diamond or spade
    mid = {"diamond", "spade"}
    y_val = E.FnVal(ysort, tuple(s1 in mid and s2 in mid
                                 for s1 in fins for s2 in fins))
    # X s f b w g iff b and f(s) and w > 5; rows cover all non-W argument
    # positions, including the (W -> o) position after the W argument
    descs = []
    for s, f, b, _g in m0.rows(rho):
        hit = bool(b) and m0.apply(f, s) is True
        descs.append(Antichain(((6,),)) if hit else EMPTY)
    x_val = E.ActVal(rho, tuple(descs))
    return E.EntwinedStructure(p, th, {"Y": y_val, "X": x_val}), p, th


def test_xi_frame_has_exactly_three_elements():
    m, p, th = xyz_structure()
    fr = m.frame(XI)
    assert len(fr) == 3
    assert {str(v.descs[0]) for v in fr} == {"all", "empty", "{(6)}"}


def test_stage_two_w_arrow_frame_is_top_only():
    m, p, th = xyz_structure()
    fr = m.frame(Arrow(W, PROP))
    assert len(fr) == 1
    assert fr[0].descs == (ALL,)


def test_xi_nontrivial_element_is_threshold_at_six():
    m, p, th = xyz_structure()
    fr = m.frame(XI)
    mid = [v for v in fr if v.descs == (Antichain(((6,),)),)]
    assert len(mid) == 1
    top_wo = m.frame(Arrow(W, PROP))[0]
    for w, want in ((5, False), (6, True), (100, True)):
        got = m.apply(m.apply(mid[0], (w,)), top_wo)
        assert got is want


def test_inactive_function_space_count():
    m, p, th = xyz_structure()
    s = p.decl_map["Y"]  # S -> S -> o with four elements: (2^4)^4 tables
    assert len(m.frame(s)) == 65536


def test_inactive_frame_is_flat_and_in_binary_order():
    """An inactive value holds one boolean per row, row-major; the k-th
    table of S -> S -> o spells k in binary, most significant bit first,
    and applying it to s1 then s2 reads row i1 * 4 + i2."""
    m, p, th = xyz_structure()
    s = p.decl_map["Y"]
    fins = m.frame(s.arg)
    assert len(m.rows(s)) == 16
    for k, f in enumerate(m.frame(s)):
        assert f.vals == tuple(bool((k >> (15 - j)) & 1) for j in range(16))
        for i1, s1 in enumerate(fins):
            g = m.apply(f, s1)
            assert g == E.FnVal(s.res, f.vals[i1 * 4:(i1 + 1) * 4])
            for i2, s2 in enumerate(fins):
                assert m.apply(g, s2) is f.vals[i1 * 4 + i2]


def test_numeric_slot_application_is_membership_per_row():
    p = load("integral256.lchc")
    th = theory_of(p)
    m = E.load_model(p, th, os.path.join(FIX, "integral256.model.json"))
    integral = m.interps["Integral"]
    rows = m.rows(integral.sort)
    for w in ((0, 0), (3, 1), (10, 5), (255, 0), (256, 0), (300, 7)):
        got = m.apply(integral, w)
        assert got == E.FnVal(integral.sort.res, tuple(
            th.member(w, d) for _, d in zip(rows, integral.descs)))
        for (f,), d in zip(rows, integral.descs):
            assert m.apply(got, f) is th.member(w, d)


def test_frame_too_large(monkeypatch):
    monkeypatch.setattr(E, "MAX_FRAME", 1000)
    p = normalize_problem(parse_problem(XYZ_TEXT))
    th = theory_of(p)
    m = E.EntwinedStructure(p, th, {})
    with pytest.raises(E.FrameTooLarge):
        m.frame(p.decl_map["Y"])


def test_noninitial_sort_rejected():
    m, p, th = xyz_structure()
    with pytest.raises(E.StageOrderViolation):
        m.frame(Arrow(W, Arrow(W, PROP)))


# ---------------------------------------------------------------------------
# clause checking


THRESH = """
(theory (lia))
(direction upward)
(declare R (-> W o))
(clause ((x W)) (head (R x)) (body (geq x 5)))
(goal () (body (R 3)))
"""


def thresh_model(desc):
    p = normalize_problem(parse_problem(THRESH))
    th = theory_of(p)
    m = E.EntwinedStructure(p, th, {"R": E.ActVal(p.decl_map["R"], (desc,))})
    return m, p


def test_check_clause_threshold():
    m, p = thresh_model(Antichain(((5,),)))
    clause = [c for c in p.clauses if not c.is_limit][0]
    assert E.check_clause(m, clause)
    m2, _ = thresh_model(Antichain(((6,),)))
    assert not E.check_clause(m2, clause)  # 5 satisfies the body, not R


def test_membership_memo_lives_on_the_structure(monkeypatch):
    """A structure writes each (descriptor, terms, polarity) once, with
    the theory's writer: checking its model again writes nothing, while a
    second structure over the same theory has its own memo."""
    p = load("integral256.lchc")
    th = theory_of(p)
    path = os.path.join(FIX, "integral256.model.json")
    writes = []
    for name in ("upset_formula", "complement_formula"):
        def counted(self, *args, _f=getattr(Theory, name), _name=name):
            writes.append(_name)
            return _f(self, *args)
        monkeypatch.setattr(Theory, name, counted)
    m = E.load_model(p, th, path)
    assert E.check_model(m, p)
    first = len(writes)
    assert first > 0
    assert E.check_model(m, p) and len(writes) == first
    assert E.check_model(E.load_model(p, th, path), p)
    assert len(writes) == 2 * first
    monkeypatch.undo()
    for (d, ts, positive), f in m._memberships.items():
        write = th.upset_formula if positive else th.complement_formula
        assert f == write(d, ts)


def test_check_model_includes_goal():
    m, p = thresh_model(Antichain(((5,),)))
    assert E.check_model(m, p)  # R 3 is false, so the goal clause holds
    m2, _ = thresh_model(Antichain(((3,),)))
    assert not E.check_model(m2, p)


def test_monotone_in_w_by_construction():
    # every active interpretation denotes an upward-closed relation
    m, p = thresh_model(Antichain(((5,),)))
    r = m.interps["R"]
    prev = False
    for w in range(-10, 11):
        cur = m.apply(r, (w,)) is True
        assert prev <= cur  # once true, stays true in the working order
        prev = cur


def test_enumeration_starts_with_small_descriptors():
    p = normalize_problem(parse_problem(THRESH))
    th = theory_of(p)
    first = list(itertools.islice(E.enumerate_structures(p, th), 6))
    descs = {m.interps["R"].descs[0] for m in first}
    assert EMPTY in descs and ALL in descs
    assert len(descs) == len(first)  # no duplicate candidates


# ---------------------------------------------------------------------------
# flagship higher-order witness


def test_integral_witness_verifies_on_256_not_255():
    p256 = load("integral256.lchc")
    th = theory_of(p256)
    m = E.load_model(p256, th, os.path.join(FIX, "integral256.model.json"))
    assert E.check_model(m, p256)
    p255 = load("integral255.lchc")
    m255 = E.load_model(p255, th, os.path.join(FIX, "integral256.model.json"))
    assert not E.check_model(m255, p255)


def test_serialize_roundtrip():
    p = load("integral256.lchc")
    th = theory_of(p)
    m = E.load_model(p, th, os.path.join(FIX, "integral256.model.json"))
    data = E.serialize_model(m)
    m2 = E.deserialize_model(p, th, data)
    assert m2.interps == m.interps
    assert E.serialize_model(m2) == data


def test_witness_json_roundtrip_over_the_corpus():
    """Every model the corpus solves writes a witness whose JSON text reads
    back to the same interpretations and writes the same text again; the
    fixture witness writes back to the file's JSON value."""
    for pid, verdict, _, _ in PINNED:
        if verdict != "SAT":
            continue
        p, th = problem(pid)
        m = solve(p, SolveConfig(hint=HINTS.get(pid))).model
        text = json.dumps(E.serialize_model(m))
        m2 = E.deserialize_model(p, th, json.loads(text))
        assert m2.interps == m.interps, pid
        assert json.dumps(E.serialize_model(m2)) == text, pid
    p = load("integral256.lchc")
    path = os.path.join(FIX, "integral256.model.json")
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    assert E.serialize_model(E.load_model(p, theory_of(p), path)) == data


SAT_PINNED = [pid for pid, verdict, _, _ in PINNED if verdict == "SAT"]


def _solved(pid):
    p, th = problem(pid)
    return p, th, solve(p, SolveConfig(hint=HINTS.get(pid))).model


@pytest.mark.parametrize("pid", SAT_PINNED + ["integral256.model.json"])
def test_frame_element_names_round_trip(pid):
    """Every element of every frame that checking a model builds (the tops
    and partial applications of active frames too) has a name that
    survives JSON and reads back, in a structure over the same
    interpretations that has named nothing, as the same element."""
    if pid.endswith(".json"):
        p = load("integral256.lchc")
        th = theory_of(p)
        m = E.load_model(p, th, os.path.join(FIX, pid))
    else:
        p, th, m = _solved(pid)
    assert E.check_model(m, p)
    fresh = E.EntwinedStructure(p, th, m.interps)
    keys = set()
    for s, frame in list(m._frames.items()):
        for v in frame:
            d = json.loads(json.dumps(m.canon_of(s, v)))
            keys |= d.keys()
            assert fresh.resolve_canon(s, d) == v, (s, d)
    if pid.startswith("integral256"):
        assert {"top", "app"} <= keys


@pytest.mark.parametrize("pid", ["mult5", "integral256"])
def test_changing_a_written_witness_leaves_the_model_alone(pid):
    """serialize_model hands out names its structure does not keep: after
    every object and list of one witness is changed in place, the next
    witness of the same structure is the first one's text."""

    def scramble(x):
        if isinstance(x, dict):
            for y in x.values():
                scramble(y)
            x["junk"] = 1
        elif isinstance(x, list):
            for y in x:
                scramble(y)
            x.append("junk")

    _, _, m = _solved(pid)
    witness = E.serialize_model(m)
    text = json.dumps(witness)
    scramble(witness)
    assert json.dumps(E.serialize_model(m)) == text


def _bench_sat_rows():
    with open(os.path.join(ROOT, "bench", "problems.json"),
              encoding="utf-8") as fh:
        rows = json.load(fh)["problems"]
    return [r for r in rows if r["expected"] == "SAT"]


def test_sat_certificates_pass_the_cooper_audit():
    """Each SAT row of the bench corpus is solved, its witness read back
    from JSON text, and every query check_clause sends for it (through
    clause_queries) is decided again by Cooper elimination with its free
    variables closed by Exists: none may hold, so the verdict does not
    rest on the conjunction solver alone."""
    audits = []
    for row in _bench_sat_rows():
        p, th = problem(row["id"])  # a bench id names its fixture as here
        hint = os.path.join(ROOT, row["hint"]) if "hint" in row else None
        v = solve(p, SolveConfig(hint=hint))
        assert v.kind == "SAT", row["id"]
        witness = json.loads(json.dumps(E.serialize_model(v.model)))
        audits.append((row["id"], p, E.deserialize_model(p, th, witness)))
    assert len(audits) == 16
    queries = 0
    with deadline(10):
        for rid, p, m in audits:
            for c in itertools.chain(p.clauses, p.goals):
                for q in E.clause_queries(m, c):
                    f = P.conj(q)
                    for x in sorted(P.free_vars(f)):
                        f = P.Exists(x, f)
                    assert P.decide(f) is False, (rid, c)
                    queries += 1
    assert queries >= len(audits)


def test_deserialize_rejects_unknown_predicate():
    p = load("integral256.lchc")
    th = theory_of(p)
    with open(os.path.join(FIX, "integral256.model.json")) as fh:
        data = json.load(fh)
    data["predicates"]["Mystery"] = {"kind": "inactive", "rows": []}
    with pytest.raises(E.SchemaError):
        E.deserialize_model(p, th, data)


def test_deserialize_rejects_missing_rows():
    p = load("integral256.lchc")
    th = theory_of(p)
    with open(os.path.join(FIX, "integral256.model.json")) as fh:
        data = json.load(fh)
    data["predicates"]["Integral"]["rows"] = \
        data["predicates"]["Integral"]["rows"][:1]
    with pytest.raises(E.FrameInconsistency):
        E.deserialize_model(p, th, data)


def test_load_canonicalizes_dominated_generators():
    text = """
(theory (nat 2))
(direction upward)
(declare R (-> W o))
(clause ((u W)) (head (R u)) (body (geq u (tuple 1 1))))
(goal () (body (R (tuple 0 0))))
"""
    p = normalize_problem(parse_problem(text))
    th = theory_of(p)
    data = {"stages": 2, "predicates": {"R": {"kind": "active", "rows": [
        {"pre": [], "post": [],
         "upset": {"kind": "antichain", "min": [[1, 1], [2, 2]]}}]}}}
    m = E.deserialize_model(p, th, data)
    assert m.interps["R"].descs == (Antichain(((1, 1),)),)


# ---------------------------------------------------------------------------
# first-order fixpoint and the bounded differential oracle


def test_least_model_of_multiplication():
    p = load("mult6.lchc")
    th = theory_of(p)
    with deadline(10):
        m = E.fo_least_model(p, th)
    assert m is not None
    assert m.interps["G"].descs == (Antichain(((6, 0),)),)
    f_rows = m.interps["F"].descs
    assert set(f_rows) == {Antichain(((0, 2), (3, 1), (6, 0)))}
    assert not E.check_model(m, p)  # goal G (6,0) is violated: unsatisfiable
    p5 = load("mult5.lchc")
    with deadline(10):
        m5 = E.fo_least_model(p5, th)
    assert E.check_model(m5, p5)


# an inactive and a propositional predicate feeding an active one
INACTIVE_TEXT = """
(theory (nat 1))
(direction upward)
(finsort S (a b c))
(declare R (-> S o))
(declare G o)
(declare T (-> S W o))
(clause ((x S) (u W)) (head (R x)) (body (and (eqs x b) (geq u 3))))
(clause ((x S) (u W)) (head (R x)) (body (and (eqs x c) (geq u 3) (leq u 1))))
(clause () (head (G)) (body (R b)))
(clause ((x S) (u W)) (head (T x u)) (body (and (R x) G (geq u 4))))
(goal () (body (T b 2)))
"""


def test_least_model_with_inactive_and_propositional_heads():
    p = normalize_problem(parse_problem(INACTIVE_TEXT))
    with deadline(10):
        m = E.fo_least_model(p, theory_of(p))
    assert m is not None
    # R c needs a point with u >= 3 and u <= 1, which does not exist
    assert m.interps["R"].vals == (False, True, False)
    assert m.interps["G"] is True
    assert m.interps["T"].descs == (EMPTY, Antichain(((4,),)), EMPTY)
    assert E.check_model(m, p)


def test_candidate_stream_over_o_inactive_and_active_predicates():
    """The first 300 candidates on a problem with a propositional, an
    inactive and an active predicate, each serialized with its keys sorted:
    the stream's order and tables are pinned."""
    p = normalize_problem(parse_problem(INACTIVE_TEXT))
    text = "\n".join(
        json.dumps(E.serialize_model(m), sort_keys=True) for m in
        itertools.islice(E.enumerate_structures(p, theory_of(p)), 300))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "f23237005c28c9ad671dc784c7bee2c9cc4e1087e1617a663f0742f159d8f582"


def test_least_model_requires_variable_heads():
    # normalize_problem would turn the head point into a variable
    p = parse_problem("""
(theory (lia))
(declare R (-> W o))
(clause () (head (R 5)) (body (and)))
(goal () (body (R 3)))
""")
    with pytest.raises(ValueError):
        E.fo_least_model(p, theory_of(p))


@pytest.mark.parametrize("pid,verdict", FIRST_ORDER,
                         ids=[pid for pid, _ in FIRST_ORDER])
def test_least_model_decides_first_order_corpus(pid, verdict):
    # the least model satisfies the goals exactly when the problem is SAT
    p, th = problem(pid)
    with deadline(30):
        m = E.fo_least_model(p, th)
    assert m is not None
    assert model_sha256(m) == LEAST_MODEL_SHA256[pid]
    assert noncanonical_descriptors(m) == []
    assert E.check_model(m, p) == (verdict == "SAT")


def test_extraction_trace_is_pinned():
    """Every extract_upset call that the least models of the first-order
    corpus make, with its formula, components, base and result, in call
    order: a change to extraction that keeps the verdicts and models but
    changes one descriptor, or the inputs of later calls, fails here."""
    with deadline(60):
        digest = extraction_digest([pid for pid, _ in FIRST_ORDER])
    assert digest == EXTRACTION_SHA256


def test_least_model_extraction_effort_is_pinned(monkeypatch):
    """The least models of the first-order SAT rows ask sat_exists_all at
    most 8 times, extract_upset's cone tests and the propositional heads,
    and build at most 1,595 search nodes (presburger.nodes).  extract_upset
    walks the DNF of its formula once: its seeds are branch probes, a
    point of one branch in one piece of the complement, and its reach
    probes ask the child node of that branch that fixes the earlier
    coordinates (sat_branch), which neither re-admits nor re-narrows the
    branch.  A seed query over the whole formula and the whole complement,
    and a fresh walk of the whole formula per coordinate, made 451 calls
    and 4,293 nodes here."""
    calls = [0]
    sat = P.sat_exists_all

    def counted(*args):
        calls[0] += 1
        return sat(*args)

    monkeypatch.setattr(P, "sat_exists_all", counted)
    before = P.nodes
    with deadline(30):
        for pid, verdict in FIRST_ORDER:
            if verdict == "SAT":
                E.fo_least_model(*problem(pid))
    assert calls[0] <= 8, calls
    assert P.nodes - before <= 1595, P.nodes - before


def test_nat_upward_extraction_asks_no_cone(monkeypatch):
    """Under nat upward the nat bounds cap every y_i of a node (y = -x <= 0),
    so extract_upset never asks for a recession cone on the nat-upward
    rows of the first-order corpus: ω cannot arise there."""
    rows = [p for p, _ in map(problem, (pid for pid, _ in FIRST_ORDER))
            if p.theory_kind == "nat" and p.direction == "upward"]
    calls = {"extract_upset": 0, "recession_cone": 0}

    def counted(mod, name):
        f = getattr(mod, name)

        def wrapped(*args):
            calls[name] += 1
            return f(*args)
        monkeypatch.setattr(mod, name, wrapped)

    counted(E, "extract_upset")
    counted(P, "recession_cone")
    with deadline(30):
        for p in rows:
            E.fo_least_model(p, theory_of(p))
    assert rows and calls["extract_upset"] > 0
    assert calls["recession_cone"] == 0


def test_late_widening_least_model_is_pinned(monkeypatch):
    """m2's least model with widening after 20 rounds instead of 6, the
    scale a forward refutation runs at (ROADMAP item 11): the same model
    as with early widening, from at most 6,525 search nodes within 10 s.
    Growing each coordinate over a fresh walk of the whole formula built
    92,095."""
    monkeypatch.setattr(E, "_WIDEN_AFTER", 20)
    monkeypatch.setattr(E, "_MAX_ROUNDS", 30)
    before = P.nodes
    with deadline(10):
        m = E.fo_least_model(*problem("lcm/m2/f:1,1"))
    assert m is not None
    assert model_sha256(m) == LEAST_MODEL_SHA256["lcm/m2/f:1,1"]
    assert P.nodes - before <= 6525, P.nodes - before


# chained predicates, each clause before the one its body waits for: C's
# clause first runs on an empty B, and B's on a false G
CHAIN_TEXT = """
(theory (nat 1))
(direction upward)
(declare A (-> W o))
(declare B (-> W o))
(declare C (-> W o))
(declare G o)
(clause ((u W)) (head (A u)) (body (geq u 3)))
(clause ((u W)) (head (C u)) (body (B u)))
(clause ((u W)) (head (B u)) (body (and (A u) G (geq u 5))))
(clause () (head (G)) (body (A 4)))
(goal () (body (C 4)))
"""


def test_least_model_skips_clauses_with_unchanged_bodies(monkeypatch):
    """A clause runs again only when one of its body predicates has
    changed since it last started.  A's and G's clauses run once; B's
    twice (G turns true after its first start) and C's twice (B gets
    rows after its first start).  Running every clause every round would
    run each one in each of the four rounds."""
    p = normalize_problem(parse_problem(CHAIN_TEXT))
    heads = {c.body: c.head[0] for c in p.clauses if not c.is_limit}
    runs = dict.fromkeys(heads.values(), 0)
    body_formula = E._body_formula

    def counted(m, b, wvars, val):
        if b in heads:
            runs[heads[b]] += 1
        return body_formula(m, b, wvars, val)

    monkeypatch.setattr(E, "_body_formula", counted)
    with deadline(10):
        m = E.fo_least_model(p, theory_of(p))
    assert runs == {"A": 1, "B": 2, "C": 2, "G": 1}
    assert m.interps["C"].descs == (Antichain(((5,),)),)
    assert E.check_model(m, p)


def test_bounded_oracle_upward_closure():
    text = """
(theory (nat 2))
(direction upward)
(declare R (-> W o))
(clause ((u W)) (head (R u)) (body (geq u (tuple 1 1))))
(goal () (body (R (tuple 0 0))))
"""
    p = normalize_problem(parse_problem(text))
    th = theory_of(p)
    bm = bounded_canonical_model(p, th, window=3)
    assert bm.holds("R", ((2, 2),))
    assert bm.holds("R", ((1, 1),))
    assert not bm.holds("R", ((0, 1),))
    assert not bm.goal_violated


def test_extract_upset_downward_omega():
    # {u : u2 = 0} in the downward order is generated by (omega, 0)
    th = theory_for("nat", 2, "downward")
    phi = P.eq(P.LinTerm.of_var("c1"), P.LinTerm.of_const(0))
    with deadline(5):
        u = E.extract_upset(th, phi, ["c0", "c1"])
    assert u == Antichain(((None, 0),))


def test_extract_upset_downward_omega_fibre():
    # the second coordinate of (omega, _) is bounded by the branch b <= 5
    # that reaches arbitrarily large a, not by the branch b <= 10
    th = theory_for("nat", 2, "downward")
    a, b = P.LinTerm.of_var("a"), P.LinTerm.of_var("b")
    k = P.LinTerm.of_const
    phi = P.disj([P.le(b, k(5)), P.conj([P.le(a, k(2)), P.le(b, k(10))])])
    with deadline(5):
        u = E.extract_upset(th, phi, ["a", "b"])
    assert u == Antichain(((2, 10), (None, 5)))


def _rand_closed_set(rng, names, down):
    """A union of 1-3 conjunctions of bounds x <= c, at most one of them of
    the form x + k*y <= c, over the names (>= for an upward-closed set), so
    closed in that direction.  Two-variable bounds keep c <= 15: the set
    {x + k*y <= c} alone has c // k + 1 maximal points, and the
    extractor grows each one as a generator."""
    rel = P.le if down else P.ge
    conjs = []
    for _ in range(rng.randint(1, 3)):
        lits = []
        for j in range(rng.randint(1, 3)):
            x = rng.choice(names)
            t = P.LinTerm.of_var(x)
            others = [n for n in names if n != x]
            if j == 0 and others and rng.random() < 0.5:
                t = t.add(P.LinTerm.of_var(rng.choice(others),
                                           rng.randint(1, 3)))
                c = rng.randint(0, 15)
            else:
                c = rng.randint(0, 40)
            lits.append(rel(t, P.LinTerm.of_const(c)))
        conjs.append(P.conj(lits))
    return P.disj(conjs)


def test_extract_upset_against_grid_membership():
    """Every extractor (lia, nat upward, nat downward) gives a descriptor
    whose membership formula agrees with the input set on the grid
    {0, 5, ..., 35}^d, on 300 fixed-seed sets; each case must finish
    within 5 s."""
    configs = [("lia", 1, "upward"), ("lia", 1, "downward")] + [
        ("nat", d, direction) for d in (1, 2, 3)
        for direction in ("upward", "downward")]
    rng = random.Random(11)
    for _ in range(300):
        kind, dim, direction = rng.choice(configs)
        th = theory_for(kind, dim, direction)
        comps = [f"c{i}" for i in range(dim)]
        phi = _rand_closed_set(rng, comps, direction == "downward")
        with deadline(5):
            u = E.extract_upset(th, phi, comps)
        got = th.upset_formula(u, [P.LinTerm.of_var(c) for c in comps])
        for pt in itertools.product(range(0, 36, 5), repeat=dim):
            env = dict(zip(comps, pt))
            assert P.evaluate(got, env) == P.evaluate(phi, env), \
                (kind, direction, str(phi), u, pt)


def test_extract_upset_seeded_by_base():
    """Seeding the cover with a base descriptor gives the descriptor of
    base ∪ phi: on 100 fixed-seed sets over lia, nat upward and nat
    downward, extract_upset(th, phi, comps, base) equals the extraction of
    upset_formula(base) ∨ phi for each base: another random set's
    descriptor, EMPTY, ALL and, under nat, Antichain(()) and (downward)
    random generators with ω coordinates; each case must finish within
    5 s."""
    configs = [("lia", 1, "upward"), ("lia", 1, "downward")] + [
        ("nat", d, direction) for d in (1, 2, 3)
        for direction in ("upward", "downward")]
    rng = random.Random(20261021)
    for _ in range(100):
        kind, dim, direction = rng.choice(configs)
        down = direction == "downward"
        th = theory_for(kind, dim, direction)
        comps = [f"c{i}" for i in range(dim)]
        phi = _rand_closed_set(rng, comps, down)
        with deadline(5):
            other = E.extract_upset(th, _rand_closed_set(rng, comps, down),
                                    comps)
        bases = [other, EMPTY, ALL]
        if kind == "nat":
            bases.append(Antichain(()))
        if kind == "nat" and down:
            bases.append(th.canonicalize(Antichain(tuple(
                tuple(None if rng.random() < 0.4 else rng.randint(0, 40)
                      for _ in comps)
                for _ in range(rng.randint(1, 3))))))
        for base in bases:
            joined = P.disj([th.upset_formula(
                base, [P.LinTerm.of_var(c) for c in comps]), phi])
            with deadline(5):
                got = E.extract_upset(th, phi, comps, base)
                want = E.extract_upset(th, joined, comps)
            assert got == want, (kind, direction, str(phi), base)


def test_extract_upset_ignores_disjunct_and_base_order():
    """The branches are walked in the order of phi's disjuncts, and the
    cover starts from base's generators in their order; neither order
    changes the result.  On 60 fixed-seed sets over lia, nat upward and
    nat downward, with a base from another random set (under nat
    downward, random generators with ω coordinates), three permutations
    of phi's disjuncts and of base's generators give one descriptor."""
    configs = [("lia", 1, "upward"), ("lia", 1, "downward")] + [
        ("nat", d, direction) for d in (2, 3)
        for direction in ("upward", "downward")]
    rng = random.Random(20261033)
    for _ in range(60):
        kind, dim, direction = rng.choice(configs)
        down = direction == "downward"
        th = theory_for(kind, dim, direction)
        comps = [f"c{i}" for i in range(dim)]
        phi = _rand_closed_set(rng, comps, down)
        if kind == "nat" and down:
            base = th.canonicalize(Antichain(tuple(
                tuple(None if rng.random() < 0.4 else rng.randint(0, 40)
                      for _ in comps)
                for _ in range(rng.randint(1, 3)))))
        else:
            with deadline(5):
                base = E.extract_upset(
                    th, _rand_closed_set(rng, comps, down), comps)
        disjuncts = list(phi.args) if isinstance(phi, P.Or) else [phi]
        gens = list(base.gens) if isinstance(base, Antichain) else []
        with deadline(5):
            want = E.extract_upset(th, phi, comps, base)
        for _ in range(3):
            rng.shuffle(disjuncts)
            rng.shuffle(gens)
            shuffled = Antichain(tuple(gens)) if gens else base
            with deadline(5):
                got = E.extract_upset(th, P.disj(disjuncts), comps, shuffled)
            assert got == want, (kind, direction, str(phi), base)


def test_extract_lia_thresholds_below_zero():
    """lia sets on both sides of 0, in both orders: the descriptor agrees
    with the set on [-45, 45]; each case must finish within 5 s.  Fixed
    cases: projected thresholds, TRUE (ALL) and FALSE (EMPTY); then 60
    fixed-seed unions of bounds with constants in [-40, 40]."""
    x, y = P.LinTerm.of_var("c0"), P.LinTerm.of_var("y")
    k = P.LinTerm.of_const
    cases = [
        # x <= y ∧ 2y <= -9 with y free, that is x <= -5
        ("downward", P.conj([P.le(x, y), P.le(y.scale(2), k(-9))]),
         lambda v: v <= -5, Antichain(((-5,),))),
        # y <= x ∧ 3y >= -20 with y free, that is x >= -6
        ("upward", P.conj([P.le(y, x), P.ge(y.scale(3), k(-20))]),
         lambda v: v >= -6, Antichain(((-6,),))),
    ] + [(d, f, lambda v, b=b: b, u) for d in ("upward", "downward")
         for f, b, u in ((P.TRUE, True, ALL), (P.FALSE, False, EMPTY))]
    rng = random.Random(20261018)
    for _ in range(60):
        direction = rng.choice(("upward", "downward"))
        rel = P.le if direction == "downward" else P.ge
        phi = P.disj(P.conj(rel(x, k(rng.randint(-40, 40)))
                            for _ in range(rng.randint(1, 2)))
                     for _ in range(rng.randint(1, 3)))
        cases.append((direction, phi,
                      lambda v, phi=phi: P.evaluate(phi, {"c0": v}), None))
    for direction, phi, member, want in cases:
        th = theory_for("lia", 1, direction)
        with deadline(5):
            u = E.extract_upset(th, phi, ["c0"])
        assert want is None or u == want, (direction, str(phi), u)
        for v in range(-45, 46):
            assert th.member((v,), u) == member(v), (direction, str(phi), u, v)


def test_extract_upset_projects_free_variables():
    """A variable outside the components is read existentially: on 150
    fixed-seed unions of conjunctions c_i <= a*y + b ∧ y <= h (c_i >= a*y + b
    for an upward set), most with y >= 0, over lia and nat in d = 1, 2 and
    both orders, the descriptor agrees on a grid with Cooper's projection
    eliminate(∃y. phi), the tests' oracle; each case must finish within
    5 s.  Then a fixed ω case, a set that leaves c1 unconstrained, and a
    quantified input, which is refused."""
    configs = [(kind, dim, direction) for kind, dim in
               (("lia", 1), ("nat", 1), ("nat", 2))
               for direction in ("upward", "downward")]
    rng = random.Random(20261019)
    y = P.LinTerm.of_var("y")
    k = P.LinTerm.of_const
    for _ in range(150):
        kind, dim, direction = rng.choice(configs)
        th = theory_for(kind, dim, direction)
        comps = [f"c{i}" for i in range(dim)]
        rel = P.le if direction == "downward" else P.ge
        conjs = []
        for _ in range(rng.randint(1, 3)):
            lits = [P.le(y, k(rng.randint(-3, 6)))]
            if rng.random() < 0.7:
                lits.append(P.ge(y, k(0)))
            for ci in comps:
                a = rng.choice((-3, -2, -1, 1, 2, 3))
                lits.append(rel(P.LinTerm.of_var(ci),
                                y.scale(a).add(k(rng.randint(-6, 10)))))
            conjs.append(P.conj(lits))
        phi = P.disj(conjs)
        with deadline(5):
            u = E.extract_upset(th, phi, comps)
        oracle = P.nnf(P.eliminate(P.Exists("y", phi)))
        side = range(0, 31) if kind == "nat" else range(-40, 41)
        for pt in itertools.product(side, repeat=dim):
            want = P.evaluate(oracle, dict(zip(comps, pt)))
            assert th.member(pt, u) == want, (kind, direction, str(phi), u, pt)
    # c0 is ω only along a direction that lowers y: (ω, 7) and (6, 15)
    th = theory_for("nat", 2, "downward")
    c0, c1 = P.LinTerm.of_var("c0"), P.LinTerm.of_var("c1")
    phi = P.disj([P.conj([P.le(c0, y.scale(-2).add(k(1))), P.le(c1, k(7)),
                          P.le(y, k(2))]),
                  P.conj([P.le(c0, y.add(k(4))),
                          P.le(c1, y.scale(3).add(k(9))),
                          P.ge(y, k(0)), P.le(y, k(2))])])
    assert E.extract_upset(th, phi, ["c0", "c1"]) == \
        Antichain(((6, 15), (None, 7)))
    phi = P.conj([P.le(c0, y), P.le(y, k(4))])
    assert E.extract_upset(th, phi, ["c0", "c1"]) == Antichain(((4, None),))
    with pytest.raises(ValueError):
        E.extract_upset(th, P.Exists("c1", P.conj([P.le(c0, c1),
                                                   P.le(c1, k(4))])),
                        ["c0", "c1"])


def _grid_agrees(u, phi, comps, down, sides):
    """The generators of u (None for ω) and phi give the same membership on
    the grid [0, n) per coordinate, which reaches past every bound of
    phi."""
    for pt in itertools.product(*(range(n) for n in sides)):
        member = any(all(g is None or (x <= g if down else x >= g)
                         for x, g in zip(pt, gen)) for gen in u.gens)
        assert member == P.evaluate(phi, dict(zip(comps, pt))), (u, pt)


def test_extract_nat_down_many_generators_quickly():
    # 19 maximal points; the seed query psi ∧ ¬↓gens used to expand the
    # product of 19 negated generators (about 8 s)
    th = theory_for("nat", 3, "downward")
    comps = ["c0", "c1", "c2"]
    a, b, c = (P.LinTerm.of_var(n) for n in comps)
    k = P.LinTerm.of_const
    phi = P.disj([P.conj([P.le(a.add(b), k(15)), P.le(c, k(1)),
                          P.le(b, k(37))]),
                  P.conj([P.le(a.add(c), k(5)), P.le(b, k(13))])])
    with deadline(2):
        u = E.extract_upset(th, phi, comps)
    assert len(u.gens) == 19
    _grid_agrees(u, phi, comps, True, (17, 39, 7))


def test_extract_nat_up_many_generators_terminates():
    # 69 minimal points; the seed queries used to run for minutes
    th = theory_for("nat", 3, "upward")
    comps = ["c0", "c1", "c2"]
    c0, c1, c2 = (P.LinTerm.of_var(n) for n in comps)
    k = P.LinTerm.of_const
    two_c2 = P.LinTerm.of_var("c2", 2)
    phi = P.disj([P.ge(c1.add(c2), k(34)), P.ge(c2, k(34)),
                  P.conj([P.ge(c0.add(c1), k(34)),
                          P.ge(c1.add(two_c2), k(15)),
                          P.ge(c1.add(two_c2), k(30))])])
    with deadline(30):
        u = E.extract_upset(th, phi, comps)
    assert len(u.gens) == 69
    _grid_agrees(u, phi, comps, False, (36, 36, 36))


# small inactive sorts over S = {c0, ..., c(n-1)}, as (n, sort): every
# frame here has at most 256 tables, and the tower's middle one 16
TABLE_SORTS = [(n, s) for n in (1, 2) for s in (
    "(-> S o)", "(-> S S o)", "(-> o S o)", "(-> (-> S o) o)",
    "(-> (-> S o) S o)")] + [(1, "(-> (-> (-> S o) o) o)")]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(TABLE_SORTS), st.integers(0, 255))
def test_table_names_round_trip(case, pick):
    """Every table of a small inactive sort has a name, the top exactly
    for the all-true one, that survives JSON and reads back, in a
    structure that has not named it, as the same table."""
    n, text = case
    consts = " ".join(f"c{i}" for i in range(n))
    p = normalize_problem(parse_problem(
        f"(theory (lia)) (finsort S ({consts})) (declare Q {text})"))
    s = E._sort_from_str(text)
    frame = E.EntwinedStructure(p, theory_of(p), {}).frame(s)
    v = frame[pick % len(frame)]
    m = E.EntwinedStructure(p, theory_of(p), {})
    c = m.canon_of(s, v)
    assert ("top" in c) == all(v.vals)
    d = json.loads(json.dumps(c))
    assert d == c
    assert E.EntwinedStructure(p, theory_of(p), {}).resolve_canon(s, d) == v
