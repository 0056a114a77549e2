"""Lossy counter machine frontend: schema checks, encoding, simulation."""

import itertools
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from limitdl.cli import main
from limitdl.driver import solve
from limitdl.frontends import (LCM, IllFormedMachine, InstrA, InstrB,
                               LCMConfig, encode_lcm, lcm_from_json)
from limitdl.typesys import validate
from oracles import lcm_to_json, simulate_reachable

FIX = os.path.join(os.path.dirname(__file__), "..", "fixtures", "lcm")


def machine(name):
    with open(os.path.join(FIX, f"{name}.json"), encoding="utf-8") as fh:
        return lcm_from_json(json.load(fh))


def targets():
    with open(os.path.join(FIX, "targets.json"), encoding="utf-8") as fh:
        return json.load(fh)


BASE = {
    "states": ["q0", "q1"], "initial": "q0", "final": "q1", "counters": 1,
    "instructions": [
        {"kind": "A", "from": "q0", "counter": 1, "to": "q1"}],
}


def variant(**kw):
    d = {**BASE, **kw}
    return d


def test_schema_accepts_base():
    m = lcm_from_json(BASE)
    assert m.states == ("q0", "q1")


@pytest.mark.parametrize("broken", [
    variant(states=["q0", "q0"]),                       # duplicate state
    variant(initial="nope"),                            # unknown initial
    variant(counters=0),                                # no counters
    variant(instructions=[{"kind": "C"}]),              # unknown kind
    variant(instructions=[{"kind": "A", "from": "q0",
                           "counter": 2, "to": "q1"}]),  # bad counter index
    variant(instructions=[{"kind": "B", "from": "q0", "counter": 1,
                           "ifZero": "q9", "else": "q1"}]),  # unknown state
    {},                                                 # missing fields
])
def test_schema_rejects_malformed(broken):
    with pytest.raises(IllFormedMachine):
        lcm_from_json(broken)


@pytest.mark.parametrize("instructions", [
    7, [5], [{"kind": "A", "from": "q0"}],
    [{"kind": "B", "from": "q0", "counter": "one", "ifZero": "q1",
      "else": "q1"}],
], ids=["not-a-list", "not-an-object", "missing-field", "bad-counter"])
def test_malformed_instructions_are_ill_formed(capsys, tmp_path,
                                              instructions):
    data = variant(instructions=instructions)
    with pytest.raises(IllFormedMachine):
        lcm_from_json(data)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    assert main(["encode-lcm", str(path), "--target", "q1,1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("IllFormedMachine: ")
    assert len(err.strip().splitlines()) == 1


def test_encoding_is_first_order():
    m = machine("m2")
    p = encode_lcm(m, LCMConfig("f", (0, 3)))
    rep = validate(p)
    assert rep.mode == "FirstOrder"
    assert p.direction == "downward" and p.theory_kind == "nat"
    # one predicate per state, each with its own closure clause
    assert {n for n, _ in p.decls} == {"R_s", "R_t", "R_f"}
    assert sum(c.is_limit for c in p.clauses) == len(m.states)


def test_encoder_rejects_bad_target():
    m = machine("m1")
    with pytest.raises(IllFormedMachine):
        encode_lcm(m, LCMConfig("nope", (0,)))
    with pytest.raises(IllFormedMachine):
        encode_lcm(m, LCMConfig("q0", (0, 0)))
    with pytest.raises(IllFormedMachine):
        encode_lcm(m, LCMConfig("q0", (-1,)))


@pytest.mark.parametrize("mname", ["m1", "m2", "m3"])
def test_solver_agrees_with_simulator(mname):
    m = machine(mname)
    for state, vals in targets()[mname]:
        tgt = LCMConfig(state, tuple(vals))
        reach = simulate_reachable(m, tgt, cap=10)
        v = solve(encode_lcm(m, tgt))
        assert v.kind == ("UNSAT" if reach else "SAT"), (mname, state, vals)


@pytest.mark.parametrize("mname", ["m1", "m2", "m3"])
def test_lossy_monotonicity(mname):
    # anything reachable stays reachable after losing counter value
    m = machine(mname)
    for state in m.states:
        for vals in itertools.product(range(3), repeat=m.counters):
            if simulate_reachable(m, LCMConfig(state, vals), cap=8):
                for low in itertools.product(
                        *(range(v + 1) for v in vals)):
                    assert simulate_reachable(m, LCMConfig(state, low), cap=8)


def test_cover_goal_relaxes_exact_goal():
    # q2 is only reachable with its counter at zero, so both the exact and
    # the covering query for (q2, 1) fail; covering (q1, 4) succeeds
    m = machine("m1")
    tgt = LCMConfig("q2", (1,))
    assert not simulate_reachable(m, tgt, cap=10)
    assert solve(encode_lcm(m, tgt)).kind == "SAT"
    assert solve(encode_lcm(m, tgt, cover=True)).kind == "SAT"
    tgt2 = LCMConfig("q1", (4,))
    assert solve(encode_lcm(m, tgt2, cover=True)).kind == "UNSAT"


@st.composite
def machines(draw):
    """Well-formed machines: 1-4 distinct state names (any text, so JSON
    escapes are exercised), 1-3 counters, up to 6 instructions over them."""
    states = draw(st.lists(st.text(max_size=4), min_size=1, max_size=4,
                           unique=True))
    n = draw(st.integers(1, 3))
    q, k = st.sampled_from(states), st.integers(1, n)
    instrs = draw(st.lists(st.one_of(st.builds(InstrA, q, k, q),
                                     st.builds(InstrB, q, k, q, q)),
                           max_size=6))
    return LCM(tuple(states), draw(q), draw(q), n, tuple(instrs))


@settings(max_examples=100, deadline=None)
@given(machines())
def test_machine_json_round_trip(m):
    """A machine written by lcm_to_json, through JSON text, reads back as
    the same machine."""
    assert lcm_from_json(json.loads(json.dumps(lcm_to_json(m)))) == m


def test_machine_fixtures_are_what_lcm_to_json_writes():
    for name in ("m1", "m2", "m3"):
        with open(os.path.join(FIX, f"{name}.json"), encoding="utf-8") as fh:
            assert lcm_to_json(machine(name)) == json.load(fh)
