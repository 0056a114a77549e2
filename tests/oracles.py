"""Test oracles: brute-force reference implementations that share no
search code with the solver.

- `bounded_canonical_model`: least fixpoint of a first-order problem's
  immediate consequence over the numeric points inside a window.
- `simulate_reachable`: breadth-first search over the configurations of a
  lossy counter machine with counters bounded by a cap.
- `lcm_to_json`: a machine in the JSON form that `lcm_from_json` reads.
- `printed_goal_key`: a goal's seen-set key by printing every atom in full,
  the reference for `resolution.canonical_goal`.
- `enumerated_exists_sat`: background satisfiability by trying every
  valuation of the finite-sort variables, the reference for
  `background.exists_sat`.
- `swept_bounds`: interval propagation that revisits every row until a
  whole sweep moves no bound, the reference for `presburger._narrow`.
- `listed_conj`, `listed_disj`: And and Or built in a list with a seen
  set, one copy per connective, the reference for `presburger.conj` and
  `presburger.disj`.
- `close`: substitute an assignment for a formula's free variables.
- `deadline`: fail the running test when a block overruns, so a solver
  that never ends fails one test instead of hanging the suite.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import signal
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

import pytest

from limitdl import presburger as P
from limitdl.background import Theory, comp_var, compile_atom, components
from limitdl.frontends import LCM, InstrA, LCMConfig, check_machine
from limitdl.resolution import Goal
from limitdl.syntax import (FIN, W, App, BgAtom, Clause, PredRef, Problem,
                            SConst, Term, Var, WOp, print_term, spine)


def _point(t: Term, dim: int) -> tuple[int, ...]:
    """A closed numeric term's point, compiled by the library's one numeric
    compiler; a scalar stands for that value in every coordinate."""
    cs = [c.const for c in components(t, dim)]
    return tuple(cs * dim if len(cs) == 1 else cs)


# ---------------------------------------------------------------------------
# bounded canonical model (first-order problems)


@dataclass
class BoundedModel:
    relations: dict[str, set[tuple]]
    goal_violated: bool
    window: int

    def holds(self, pred: str, args: tuple) -> bool:
        return args in self.relations.get(pred, set())


def _window_grid(theory: Theory, window: int) -> list[tuple[int, ...]]:
    if theory.nat:
        return list(itertools.product(range(window + 1), repeat=theory.dim))
    return [(x,) for x in range(-window, window + 1)]


def _py_expr(f: P.Formula, names: dict[str, str]) -> str:
    """Render a quantifier-free formula as a python boolean expression over
    the variables renamed per `names`."""
    def term(t: P.LinTerm) -> str:
        parts = [str(t.const)]
        for v, c in t.coeffs:
            parts.append(f"{c}*{names[v]}")
        return "+".join(parts)

    match f:
        case P.TrueF():
            return "True"
        case P.FalseF():
            return "False"
        case P.Cmp(op, t):
            pyop = {"<=": "<=", "<": "<", "=": "==", "!=": "!=",
                    ">": ">", ">=": ">="}[op]
            return f"(({term(t)}){pyop}0)"
        case P.Div(d, t, neg):
            rel = "!=" if neg else "=="
            return f"((({term(t)})%{d}){rel}0)"
        case P.Not(g):
            return f"(not {_py_expr(g, names)})"
        case P.And(args):
            return "(" + " and ".join(_py_expr(a, names) for a in args) + ")"
        case P.Or(args):
            return "(" + " or ".join(_py_expr(a, names) for a in args) + ")"
    raise TypeError(f"not quantifier-free: {f}")


def bounded_canonical_model(p: Problem, theory: Theory,
                            window: int) -> BoundedModel:
    """Least-fixpoint iteration of immediate consequence over numeric points
    inside the window.  Only meaningful when the derivations of interest stay
    within the window; used to cross-check verdicts on curated problems."""
    grid = _window_grid(theory, window)
    grid_set = set(grid)
    dim = theory.dim
    rels: dict[str, set[tuple]] = {n: set() for n, _ in p.decls}

    def compile_instance(c: Clause, val: dict):
        """For a fixed finite-sort valuation, compile the clause into a fast
        membership test over an assignment tuple of the clause's W vars."""
        wnames = [n for n, s in c.vars if s == W]
        widx = {n: i for i, n in enumerate(wnames)}
        names = {comp_var(n, j + 1): f"w[{i}][{j}]"
                 for n, i in widx.items() for j in range(dim)}
        bgs: list[P.Formula] = []
        fgs: list[tuple[str, list]] = []
        for a in c.body_atoms():
            if isinstance(a, BgAtom):
                bgs.append(compile_atom(a, theory, val))
            else:
                head, args = spine(a.term)
                if not isinstance(head, PredRef):
                    raise ValueError(
                        "bounded oracle requires first-order problems")
                getters = []
                for t in args:
                    if isinstance(t, Var) and t.name in widx:
                        getters.append(("w", widx[t.name]))
                    elif isinstance(t, Var):
                        getters.append(("k", val[t.name]))
                    elif isinstance(t, SConst):
                        getters.append(("k", t.name))
                    else:
                        getters.append(("k", _point(t, dim)))
                fgs.append((head.name, getters))
        bg_f = P.conj(bgs)
        bg_test = eval("lambda w: " + _py_expr(bg_f, names))  # noqa: S307
        return wnames, bg_test, fgs

    def fg_key(getters: list, w: tuple) -> tuple:
        return tuple(w[i] if k == "w" else i for k, i in getters)

    def fin_vals(c: Clause) -> Iterator[dict]:
        gvars = [(n, s) for n, s in c.vars if s != W]
        doms = []
        for _, s in gvars:
            if s == FIN:
                doms.append(list(p.fin_elems))
            else:
                raise ValueError("bounded oracle requires first-order "
                                 "problems")
        for combo in itertools.product(*doms):
            yield {n: v for (n, _), v in zip(gvars, combo)}

    def head_key(hargs, val: dict, wnames: list, w: tuple):
        out = []
        for t in hargs:
            if isinstance(t, Var) and t.name in val:
                out.append(val[t.name])
            elif isinstance(t, Var):
                out.append(w[wnames.index(t.name)])
            elif isinstance(t, SConst):
                out.append(t.name)
            else:
                out.append(_point(t, dim))
        return tuple(out)

    compiled = []
    for c in p.clauses:
        for val in fin_vals(c):
            compiled.append((c, val, *compile_instance(c, val)))

    changed = True
    while changed:
        changed = False
        for c, val, wnames, bg_test, fgs in compiled:
            hname, hargs = c.head
            rel = rels[hname]
            for w in itertools.product(grid, repeat=len(wnames)):
                if not bg_test(w):
                    continue
                if any(fg_key(g, w) not in rels[q] for q, g in fgs):
                    continue
                key = head_key(hargs, val, wnames, w)
                if any(isinstance(x, tuple) and x not in grid_set
                       for x in key):
                    continue  # head point fell outside the window
                if key not in rel:
                    rel.add(key)
                    changed = True

    violated = False
    for g in p.goals:
        for val in fin_vals(g):
            wnames, bg_test, fgs = compile_instance(g, val)
            for w in itertools.product(grid, repeat=len(wnames)):
                if bg_test(w) and \
                        all(fg_key(x, w) in rels[q] for q, x in fgs):
                    violated = True
                    break
            if violated:
                break
        if violated:
            break
    return BoundedModel(rels, violated, window)


# ---------------------------------------------------------------------------
# lossy counter machine simulation


def lcm_to_json(m: LCM) -> dict:
    """The JSON form of a machine (fixtures/lcm/*.json), the inverse of
    frontends.lcm_from_json on a well-formed machine."""
    def instr(ins) -> dict:
        if isinstance(ins, InstrA):
            return {"kind": "A", "from": ins.src, "counter": ins.counter,
                    "to": ins.dst}
        return {"kind": "B", "from": ins.src, "counter": ins.counter,
                "ifZero": ins.if_zero, "else": ins.dec_to}

    return {"states": list(m.states), "initial": m.initial,
            "final": m.final, "counters": m.counters,
            "instructions": [instr(ins) for ins in m.instructions]}


def simulate_reachable(m: LCM, target: LCMConfig, cap: int) -> bool:
    """BFS over configurations with counters bounded by cap; a transition is
    loss* then one instruction then loss*.  Since losses are arbitrary
    componentwise decreases, it suffices to close the reached set downward
    after every instruction step."""
    check_machine(m)

    def down(vals: tuple[int, ...]):
        return itertools.product(*(range(v + 1) for v in vals))

    start = LCMConfig(m.initial, (0,) * m.counters)
    seen: set[LCMConfig] = set()
    queue: deque[LCMConfig] = deque()

    def push(c: LCMConfig) -> None:
        for vals in down(c.values):
            cc = LCMConfig(c.state, vals)
            if cc not in seen:
                seen.add(cc)
                queue.append(cc)

    push(start)
    while queue:
        c = queue.popleft()
        for ins in m.instructions:
            if ins.src != c.state:
                continue
            i = ins.counter - 1
            if isinstance(ins, InstrA):
                if c.values[i] < cap:
                    vals = c.values[:i] + (c.values[i] + 1,) + c.values[i+1:]
                    push(LCMConfig(ins.dst, vals))
            else:
                if c.values[i] == 0:
                    push(LCMConfig(ins.if_zero, c.values))
                else:
                    vals = c.values[:i] + (c.values[i] - 1,) + c.values[i+1:]
                    push(LCMConfig(ins.dec_to, vals))
    return LCMConfig(target.state, target.values) in seen


# ---------------------------------------------------------------------------
# goal keys


def printed_goal_key(g: Goal) -> str:
    """Renaming-invariant key of a goal: atoms stably sorted by a name-blind
    skeleton, variables renamed (0), (1), ... in traversal order (a text no
    constant or predicate name can take), then every atom printed."""
    def skel(a) -> str:
        def blind(t: Term) -> str:
            match t:
                case Var(_):
                    return "_"
                case App(f, x):
                    return f"({blind(f)} {blind(x)})"
                case WOp(op, args, k):
                    return f"({op}{k if k is not None else ''} " + \
                        " ".join(blind(x) for x in args) + ")"
                case _:
                    return print_term(t)
        if isinstance(a, BgAtom):
            return f"({a.rel} {blind(a.lhs)} {blind(a.rhs)})"
        return blind(a.term)

    names: dict[str, str] = {}

    def ren(t: Term) -> Term:
        match t:
            case Var(n):
                if n not in names:
                    names[n] = f"({len(names)})"
                return Var(names[n])
            case App(f, x):
                return App(ren(f), ren(x))
            case WOp(op, args, k):
                return WOp(op, tuple(ren(x) for x in args), k)
            case _:
                return t

    parts = []
    for a in sorted(g.atoms, key=skel):
        if isinstance(a, BgAtom):
            parts.append(f"({a.rel} {print_term(ren(a.lhs))} "
                         f"{print_term(ren(a.rhs))})")
        else:
            parts.append(print_term(ren(a.term)))
    return " & ".join(parts)


# ---------------------------------------------------------------------------
# arithmetic


def enumerated_exists_sat(atoms: Sequence[BgAtom], varsorts: dict,
                          theory: Theory, fin_elems: Sequence[str]) -> bool:
    """Is the existential closure of the conjunction satisfiable?  Every
    valuation of the finite-sort variables in fin_elems is tried in turn;
    under one, each eqs atom folds to TRUE or FALSE and the numeric atoms
    are decided arithmetically."""
    svars = [n for n, s in varsorts.items() if s == FIN]
    wvars = [n for n, s in varsorts.items() if s == W]
    num_atoms = [a for a in atoms if a.rel != "eqs"]
    eqs_atoms = [a for a in atoms if a.rel == "eqs"]
    for combo in itertools.product(fin_elems, repeat=len(svars)):
        env = dict(zip(svars, combo))
        if not all(compile_atom(a, theory, env) == P.TRUE for a in eqs_atoms):
            continue
        fs = [compile_atom(a, theory, env) for a in num_atoms]
        fs += theory.nat_bounds([comp_var(n, i + 1) for n in wvars
                                 for i in range(theory.dim)])
        if P.sat_exists_all(fs) is not None:
            return True
    return False


# ---------------------------------------------------------------------------
# interval propagation by sweeps


def swept_bounds(rows: Sequence[P.Formula]) -> tuple[bool, dict, dict]:
    """Interval propagation over the '<=' and '=' comparisons among rows,
    from no bounds: each sweep visits every row in order and, for each
    variable v of a row c*v + rest op 0, bounds c*v by the range of rest
    over the current bounds; sweeps repeat until one moves no bound.
    Returns (False, lo, hi) as soon as an interval empties, else (True, lo,
    hi) with the bounds of the fixpoint, which is the same for every fair
    order of these steps.  Ends when the rows bound every variable on both
    sides."""
    lo: dict[str, int] = {}
    hi: dict[str, int] = {}

    def extreme(terms, least):
        total = 0
        for u, k in terms:
            b = (lo if (k > 0) == least else hi).get(u)
            if b is None:
                return None
            total += k * b
        return total

    moved = True
    while moved:
        moved = False
        for f in rows:
            if type(f) is not P.Cmp:
                continue
            for v, c in f.t.coeffs:
                rest = [(u, k) for u, k in f.t.coeffs if u != v]
                least, most = extreme(rest, True), extreme(rest, False)
                new = []  # (side, bound) on v
                if least is not None:  # c*v <= -(const + least)
                    q = Fraction(-(f.t.const + least), c)
                    new.append(("hi", math.floor(q)) if c > 0
                               else ("lo", math.ceil(q)))
                if f.op == "=" and most is not None:  # c*v >= -(const + most)
                    q = Fraction(-(f.t.const + most), c)
                    new.append(("lo", math.ceil(q)) if c > 0
                               else ("hi", math.floor(q)))
                for side, b in new:
                    if side == "hi" and (v not in hi or b < hi[v]):
                        hi[v], moved = b, True
                    elif side == "lo" and (v not in lo or b > lo[v]):
                        lo[v], moved = b, True
                    if v in lo and v in hi and lo[v] > hi[v]:
                        return False, lo, hi
    return True, lo, hi


def listed_conj(args: Iterable[P.Formula]) -> P.Formula:
    out: list[P.Formula] = []
    seen: set[P.Formula] = set()
    for a in args:
        if isinstance(a, P.FalseF):
            return P.FALSE
        if isinstance(a, P.TrueF):
            continue
        if isinstance(a, P.And):
            for x in a.args:
                if isinstance(x, P.FalseF):
                    return P.FALSE
                if not isinstance(x, P.TrueF) and x not in seen:
                    seen.add(x)
                    out.append(x)
        elif a not in seen:
            seen.add(a)
            out.append(a)
    if not out:
        return P.TRUE
    if len(out) == 1:
        return out[0]
    return P.And(tuple(out))


def listed_disj(args: Iterable[P.Formula]) -> P.Formula:
    out: list[P.Formula] = []
    seen: set[P.Formula] = set()
    for a in args:
        if isinstance(a, P.TrueF):
            return P.TRUE
        if isinstance(a, P.FalseF):
            continue
        if isinstance(a, P.Or):
            for x in a.args:
                if isinstance(x, P.TrueF):
                    return P.TRUE
                if not isinstance(x, P.FalseF) and x not in seen:
                    seen.add(x)
                    out.append(x)
        elif a not in seen:
            seen.add(a)
            out.append(a)
    if not out:
        return P.FALSE
    if len(out) == 1:
        return out[0]
    return P.Or(tuple(out))


def close(f: P.Formula, env: Mapping[str, int]) -> P.Formula:
    """Substitute an assignment for the free variables of f."""
    return P.subst(f, {v: P.LinTerm.of_const(env[v]) for v in P.free_vars(f)})


@contextlib.contextmanager
def deadline(seconds):
    """Fail the running test once the block has run for seconds.  The
    alarm's TimeoutError is caught here and the test failed outside the
    except block, so a timeout deep inside the solver fails only this test
    and pytest never formats the interrupted frames."""

    def expire(signum, frame):
        raise TimeoutError

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    expired = False
    try:
        yield
    except TimeoutError:
        expired = True
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    if expired:
        pytest.fail(f"took over {seconds} s", pytrace=False)
