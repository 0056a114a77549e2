"""Lossy counter machine frontend: compile reachability queries to clause
problems over tuples of naturals."""

from __future__ import annotations

import json

from .record import Record
from .syntax import (PROP, W, AndF, Arrow, BgAtom, Clause, FgAtom, Problem,
                     PredRef, Var, WLit, WOp, json_int, mk_app,
                     normalize_problem)


class IllFormedMachine(Exception):
    pass


class InstrA(Record):
    """q: c_i := c_i + 1; goto q' (counter is i, 1-based)"""

    __slots__ = __match_args__ = ("src", "counter", "dst")


class InstrB(Record):
    """q: if c_i = 0 then goto q' else c_i := c_i - 1; goto q''"""

    __slots__ = __match_args__ = ("src", "counter", "if_zero", "dec_to")


class LCM(Record):
    __slots__ = __match_args__ = ("states", "initial", "final", "counters",
                                  "instructions")


class LCMConfig(Record):
    __slots__ = __match_args__ = ("state", "values")


def _state(x) -> str:
    """A state name, which JSON writes as a string."""
    if not isinstance(x, str):
        raise IllFormedMachine(f"state name {json.dumps(x)} is not a string")
    return x


def _exact_keys(d: dict, keys: set[str], what: str) -> None:
    if d.keys() != keys:
        raise IllFormedMachine(
            f"{what} has keys {sorted(d)}, not {sorted(keys)}")


def _instr_from_json(d: dict) -> InstrA | InstrB:
    if not isinstance(d, dict):
        raise IllFormedMachine(f"instruction {d!r} is not an object")
    kind = d.get("kind")
    if kind == "A":
        _exact_keys(d, {"kind", "from", "counter", "to"}, "an A instruction")
        return InstrA(_state(d["from"]), json_int(d["counter"]),
                      _state(d["to"]))
    if kind == "B":
        _exact_keys(d, {"kind", "from", "counter", "ifZero", "else"},
                    "a B instruction")
        return InstrB(_state(d["from"]), json_int(d["counter"]),
                      _state(d["ifZero"]), _state(d["else"]))
    raise IllFormedMachine(f"unknown instruction kind {kind!r}")


def lcm_from_json(data: dict) -> LCM:
    """The machine a JSON object of exactly its five keys gives; an
    IllFormedMachine for anything else."""
    if not isinstance(data, dict):
        raise IllFormedMachine("a machine is a JSON object")
    _exact_keys(data, {"states", "initial", "final", "counters",
                       "instructions"}, "a machine")
    try:
        states = tuple(map(_state, data["states"]))
        initial = _state(data["initial"])
        final = _state(data["final"])
        counters = json_int(data["counters"])
        instrs = tuple(map(_instr_from_json, data["instructions"]))
    except (TypeError, ValueError) as e:
        raise IllFormedMachine(f"malformed field: {e}")
    if counters < 1:
        raise IllFormedMachine("at least one counter required")
    if len(set(states)) != len(states):
        raise IllFormedMachine("duplicate state names")
    m = LCM(states, initial, final, counters, instrs)
    check_machine(m)
    return m


def check_machine(m: LCM) -> None:
    known = set(m.states)
    if m.initial not in known or m.final not in known:
        raise IllFormedMachine("initial/final state not declared")
    for ins in m.instructions:
        refs = [ins.src, ins.dst] if isinstance(ins, InstrA) else \
            [ins.src, ins.if_zero, ins.dec_to]
        for q in refs:
            if q not in known:
                raise IllFormedMachine(f"undeclared state {q!r}")
        if not 1 <= ins.counter <= m.counters:
            raise IllFormedMachine(f"counter index {ins.counter} out of range")


def _pred(q: str) -> str:
    return f"R_{q}"


def _comp(v: str, i: int, n: int = 2):
    # a 1-counter configuration is a scalar, not a tuple
    if n == 1:
        return Var(v)
    return WOp("comp", (Var(v),), i)


def _const(k: int):
    return WLit((k,))


def encode_lcm(m: LCM, target: LCMConfig, cover: bool = False) -> Problem:
    """Reachability of the exact target configuration as a clause problem
    over n-tuples of naturals in the downward order (lossy reachability sets
    are downward closed).  The problem is unsatisfiable iff the target is
    lossily reachable.  With cover=True the goal asks for coverability
    (reaching the target state with counters at least the target values)."""
    check_machine(m)
    if target.state not in m.states:
        raise IllFormedMachine(f"undeclared target state {target.state!r}")
    if len(target.values) != m.counters or any(v < 0 for v in target.values):
        raise IllFormedMachine("target counter vector malformed")
    n = m.counters
    wsort = Arrow(W, PROP)
    decls = tuple((_pred(q), wsort) for q in m.states)
    x, y = Var("x"), Var("y")
    clauses: list[Clause] = []

    def cl(head_state: str, body) -> Clause:
        return Clause((("x", W), ("y", W)),
                      (_pred(head_state), (x,)), AndF(tuple(body)))

    # initial configuration: all counters zero
    clauses.append(Clause((("x", W),), (_pred(m.initial), (x,)),
                          AndF(tuple(BgAtom("eq", _comp("x", i, n), _const(0))
                                     for i in range(1, n + 1)))))
    for ins in m.instructions:
        i = ins.counter
        same = [BgAtom("eq", _comp("x", j, n), _comp("y", j, n))
                for j in range(1, n + 1) if j != i]
        if isinstance(ins, InstrA):
            body = [FgAtom(mk_app(PredRef(_pred(ins.src)), [y])),
                    BgAtom("eq", _comp("x", i, n),
                           WOp("+", (_comp("y", i, n), _const(1))))] + same
            clauses.append(cl(ins.dst, body))
        else:
            body0 = [FgAtom(mk_app(PredRef(_pred(ins.src)), [y])),
                     BgAtom("eq", _comp("y", i, n), _const(0)),
                     BgAtom("eq", _comp("x", i, n), _comp("y", i, n))] + same
            clauses.append(cl(ins.if_zero, body0))
            body1 = [FgAtom(mk_app(PredRef(_pred(ins.src)), [y])),
                     BgAtom("gt", _comp("y", i, n), _const(0)),
                     BgAtom("eq", WOp("+", (_comp("x", i, n), _const(1))),
                            _comp("y", i, n))] + same
            clauses.append(cl(ins.dec_to, body1))
    # per-state limit clause (downward closure = spontaneous loss)
    for q in m.states:
        clauses.append(Clause(
            (("x", W), ("y", W)), (_pred(q), (x,)),
            AndF((FgAtom(mk_app(PredRef(_pred(q)), [y])),
                  BgAtom("leq", x, y))), is_limit=True))
    rel = "geq" if cover else "eq"
    goal = Clause(
        (("x", W),), None,
        AndF((FgAtom(mk_app(PredRef(_pred(target.state)), [x])),)
             + tuple(BgAtom(rel, _comp("x", i + 1, n), _const(v))
                     for i, v in enumerate(target.values))))
    p = Problem("nat", n, "downward", (), decls, tuple(clauses), (goal,))
    return normalize_problem(p)


def load_machine(path: str) -> LCM:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as e:
            raise IllFormedMachine(f"machine file is not valid JSON: {e}")
        except RecursionError:
            raise IllFormedMachine("machine file is nested too deeply to read")
    return lcm_from_json(data)
