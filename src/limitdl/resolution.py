"""Refutation search by resolution.

Goal clauses are negated atom sets.  Resolving a predicate-headed goal atom
against a definite clause substitutes the atom's arguments for the clause's
head variables in a freshly renamed copy of the body; the goal's own
variables are never instantiated, so background constraints only accumulate.
A goal refutes when no predicate-headed foreground atoms remain and its
background part is satisfiable (variable-headed foreground atoms are
satisfied by the top interpretation and are ignored).

The search is uniform-cost: ordinary resolution steps cost 1, limit-clause
steps cost more (they are always applicable and would otherwise flood the
frontier).  Goals whose background part is unsatisfiable are pruned — sound
and complete, since background atoms persist along every branch.  Atom
selection is leftmost predicate-headed, which is complete for Horn programs
because resolution leaves the rest of the goal untouched.
"""

from __future__ import annotations

import heapq
import itertools
import json
from operator import itemgetter
from typing import Sequence

from .background import BgState, Theory, bg_extend, bg_state, exists_sat
from .record import Record
from .syntax import (
    App, Atom, BgAtom, Clause, FgAtom, PredRef, Problem, Sort, Term, Var,
    W, WOp, print_formula, spine,
)

LIMIT_COST = 64


class TraceError(Exception):
    pass


# ---------------------------------------------------------------------------
# substitution / renaming on terms


def subst_term(t: Term, env: dict[str, Term]) -> Term:
    match t:
        case Var(n):
            return env.get(n, t)
        case App(f, a):
            return App(subst_term(f, env), subst_term(a, env))
        case WOp(op, args, k):
            return WOp(op, tuple(subst_term(a, env) for a in args), k)
        case _:
            return t


def subst_atom(a: Atom, env: dict[str, Term]) -> Atom:
    if isinstance(a, BgAtom):
        return BgAtom(a.rel, subst_term(a.lhs, env), subst_term(a.rhs, env))
    return FgAtom(subst_term(a.term, env))


# ---------------------------------------------------------------------------
# goal states


# A shape is an atom's name-blind skeleton with a slot for each variable
# occurrence, plus the variables that fill the slots in traversal order
# (repeats kept).  The skeleton is the atom's printed text (print_formula) as
# a %-format template: each variable reads "%s", and any "%" of another name
# is doubled.  Two atoms have equal skeletons exactly when they are equal up
# to the names of their variables.
Shape = tuple[str, tuple[str, ...]]


def atom_shape(a: Atom) -> Shape:
    occs: list[str] = []

    def name(t: Term) -> str:
        if isinstance(t, Var):
            occs.append(t.name)
            return "%s"
        return t.name.replace("%", "%%")

    return print_formula(a, name), tuple(occs)


class Goal(Record):
    """shapes has one entry per atom, computed when it entered."""

    __slots__ = __match_args__ = ("atoms", "varsorts", "shapes")


def _live(atoms: tuple[Atom, ...], shapes: tuple[Shape, ...],
          varsorts) -> Goal:
    """The goal over these atoms, keeping the variables that still occur."""
    used = set(itertools.chain.from_iterable(o for _, o in shapes))
    return Goal(atoms, tuple((n, s) for n, s in varsorts if n in used),
                shapes)


def goal_of_clause(cl: Clause) -> Goal:
    assert cl.head is None
    atoms = tuple(cl.body_atoms())
    return _live(atoms, tuple(map(atom_shape, atoms)), cl.vars)


def _fill(shapes: Sequence[Shape], slot: str) -> str:
    """The shapes' skeletons joined by " & ", the variables numbered 0, 1,
    ... by first occurrence and printed as slot % number."""
    occs = list(itertools.chain.from_iterable(o for _, o in shapes))
    names = {n: slot % i for i, n in enumerate(dict.fromkeys(occs))}
    return " & ".join([s for s, _ in shapes]) % tuple(map(names.__getitem__,
                                                           occs))


def canonical_goal(g: Goal) -> str:
    """Renaming-invariant seen-set key: atoms sorted by skeleton (stably, so
    equal skeletons keep goal order), then variables renumbered (0), (1), ...
    by first occurrence, which no name or printed term can read (names hold
    no parentheses, and every parenthesised term has a space)."""
    return _fill(sorted(g.shapes, key=itemgetter(0)), "(%d)")


def print_goal(g: Goal) -> str:
    """The goal's atoms in order, variables renamed v0, v1, ... by first
    occurrence: the form a proof trace records."""
    return _fill(g.shapes, "v%d")


# ---------------------------------------------------------------------------
# the two rules


def resolve(goal: Goal, atom_idx: int, cl: Clause, fresh: "itertools.count") -> Goal:
    """Resolve the predicate-headed foreground atom at atom_idx against a
    definite clause (standardized apart)."""
    a = goal.atoms[atom_idx]
    if not isinstance(a, FgAtom):
        raise ValueError("can only resolve foreground atoms")
    head, args = spine(a.term)
    if not isinstance(head, PredRef):
        raise ValueError("can only resolve predicate-headed atoms")
    assert cl.head is not None and cl.head[0] == head.name
    hvars = cl.head[1]
    if len(hvars) != len(args):
        raise ValueError("arity mismatch")

    suffix = f"${next(fresh)}"
    ren = {n: Var(n + suffix) for n, _ in cl.vars}
    env: dict[str, Term] = {}
    for hv, arg in zip(hvars, args):
        assert isinstance(hv, Var)
        env[hv.name] = arg
    for n, _ in cl.vars:
        if n not in env:
            env[n] = ren[n]

    body = tuple(subst_atom(b, env) for b in cl.body_atoms())
    new_atoms = goal.atoms[:atom_idx] + body + goal.atoms[atom_idx + 1:]
    new_shapes = goal.shapes[:atom_idx] + tuple(map(atom_shape, body)) + \
        goal.shapes[atom_idx + 1:]
    new_vars = dict(goal.varsorts)
    hnames = {hv.name for hv in hvars}  # type: ignore[union-attr]
    for n, s in cl.vars:
        if n not in hnames:
            new_vars[n + suffix] = s
    return _live(new_atoms, new_shapes, new_vars.items())


def resolvable_indices(g: Goal) -> list[int]:
    out = []
    for i, a in enumerate(g.atoms):
        if isinstance(a, FgAtom) and isinstance(spine(a.term)[0], PredRef):
            out.append(i)
    return out


def try_refute(g: Goal, theory: Theory, fin_elems) -> bool:
    """Refutation rule, checked in one shot (replay's check, independent of
    the search's incremental states): succeeds when no predicate-headed
    foreground atoms remain and the background conjunction is
    satisfiable."""
    return not resolvable_indices(g) and not bg_unsat(g, theory, fin_elems)


def bg_unsat(g: Goal, theory: Theory, fin_elems) -> bool:
    bg = [a for a in g.atoms if isinstance(a, BgAtom)]
    return not exists_sat(bg, dict(g.varsorts), theory, fin_elems)


# ---------------------------------------------------------------------------
# traces


class TraceStep(Record):
    """goal is the canonical printed form (order-preserving); rule is
    "resolution" or "refutation"."""

    __slots__ = __match_args__ = ("goal", "rule", "parent", "atom",
                                  "definite")
    __hash__ = None


class ProofTrace(Record):
    """constraints prints the final goal's background conjunction."""

    __slots__ = __match_args__ = ("steps", "constraints")
    __hash__ = None

    def to_json(self) -> dict:
        return {
            "steps": [
                {"goal": s.goal, "rule": s.rule, "parent": s.parent,
                 "atom": s.atom, "definite": s.definite}
                for s in self.steps
            ],
            "constraints": self.constraints,
        }

    @staticmethod
    def from_json(d: dict) -> "ProofTrace":
        return ProofTrace(
            [TraceStep(s["goal"], s["rule"], s.get("parent"), s.get("atom"),
                       s.get("definite")) for s in d["steps"]],
            d["constraints"])

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2)


# ---------------------------------------------------------------------------
# saturation


class Refuted(Record):
    __slots__ = __match_args__ = ("trace", "steps_used")
    __hash__ = None


class BudgetExhausted(Record):
    __slots__ = __match_args__ = ("steps_used",)
    __hash__ = None


class _Node(Record):
    __slots__ = __match_args__ = ("goal", "root", "parent", "atom",
                                  "definite", "bg", "via_limit")
    __hash__ = None

    def __init__(self, goal: Goal, root: int, parent: "_Node | None",
                 atom: int | None, definite: int | None, bg: BgState,
                 via_limit: bool = False) -> None:
        self.goal = goal
        self.root = root  # index of originating goal clause
        self.parent = parent
        self.atom = atom
        self.definite = definite
        self.bg = bg  # reduced background state
        self.via_limit = via_limit  # produced by a limit-clause step


class Saturator:
    """Resumable uniform-cost refutation search over all goal clauses."""

    def __init__(self, problem: Problem, theory: Theory):
        self.problem = problem
        self.theory = theory
        self.fresh = itertools.count()
        self.steps_used = 0
        self._seq = itertools.count()
        self._frontier: list[tuple[int, int, _Node]] = []
        self._seen: set[str] = set()
        self._by_pred: dict[str, list[tuple[int, Clause, int]]] = {}
        for i, cl in enumerate(problem.clauses):
            self._by_pred.setdefault(cl.head[0], []).append(  # type: ignore[index]
                (i, cl, len(cl.body_atoms())))
        for ri, gcl in enumerate(problem.goals):
            g = goal_of_clause(gcl)
            st = bg_state([a for a in g.atoms if isinstance(a, BgAtom)],
                          [n for n, s in g.varsorts if s == W], theory,
                          problem.fin_elems)
            if st is None:
                continue  # goal clause can never fire
            node = _Node(g, ri, None, None, None, st)
            heapq.heappush(self._frontier, (0, next(self._seq), node))
            self._seen.add(canonical_goal(g))

    def exhausted(self) -> bool:
        return not self._frontier

    def run(self, budget: int) -> Refuted | BudgetExhausted:
        """Spend up to budget rule applications; resumable."""
        spent = 0
        while self._frontier and spent < budget:
            cost, _, node = heapq.heappop(self._frontier)
            g = node.goal
            idxs = resolvable_indices(g)
            if not idxs:
                # the background part is known satisfiable, so this is a
                # refutation outright
                self.steps_used += 1
                return Refuted(self._build_trace(node), self.steps_used)
            parent_names = {n for n, _ in g.varsorts}
            i = idxs[0]
            a = g.atoms[i]
            pname = spine(a.term)[0].name  # type: ignore[union-attr]
            for ci, cl, nbody in self._by_pred.get(pname, []):
                hvars = cl.head[1]  # type: ignore[index]
                if len(hvars) != len(spine(a.term)[1]):
                    continue
                if cl.is_limit and node.via_limit:
                    # two consecutive limit steps on the same atom are
                    # subsumed by one (the order is transitive)
                    continue
                spent += 1
                self.steps_used += 1
                child = resolve(g, i, cl, self.fresh)
                key = canonical_goal(child)
                if key in self._seen:
                    continue
                self._seen.add(key)
                new_bg = [x for x in child.atoms[i:i + nbody]
                          if isinstance(x, BgAtom)]
                new_w = [n for n, s in child.varsorts
                         if s == W and n not in parent_names]
                st = bg_extend(node.bg, new_bg, new_w, self.theory,
                               self.problem.fin_elems)
                if st is None:
                    continue
                step_cost = LIMIT_COST if cl.is_limit else 1
                heapq.heappush(self._frontier,
                               (cost + step_cost, next(self._seq),
                                _Node(child, node.root, node, i, ci, st,
                                      via_limit=cl.is_limit)))
        return BudgetExhausted(self.steps_used)

    def _build_trace(self, node: _Node) -> ProofTrace:
        chain: list[_Node] = []
        n: _Node | None = node
        while n is not None:
            chain.append(n)
            n = n.parent
        chain.reverse()
        steps = []
        for j, nd in enumerate(chain):
            if nd.parent is None:
                steps.append(TraceStep(print_goal(nd.goal),
                                       "root", None, None, None))
            else:
                steps.append(TraceStep(print_goal(nd.goal),
                                       "resolution", j - 1, nd.atom, nd.definite))
        steps.append(TraceStep(steps[-1].goal, "refutation", len(steps) - 1,
                               None, None))
        # root index is stored in the first step's definite slot
        steps[0].definite = chain[0].root
        bg = [a for a in node.goal.atoms if isinstance(a, BgAtom)]
        constraints = " & ".join(print_formula(a) for a in bg)
        return ProofTrace(steps, constraints)


def saturate(problem: Problem, theory: Theory,
             budget: int) -> Refuted | BudgetExhausted:
    return Saturator(problem, theory).run(budget)


# ---------------------------------------------------------------------------
# replay


def replay(trace: ProofTrace, problem: Problem, theory: Theory) -> bool:
    """Re-execute a trace step by step.  Returns True when every resolution
    step reproduces the recorded goal and the final refutation check
    passes; raises TraceError otherwise."""
    steps = trace.steps
    if not steps or steps[0].rule != "root" or steps[-1].rule != "refutation":
        raise TraceError("malformed trace shape")
    root_idx = steps[0].definite
    if root_idx is None or not 0 <= root_idx < len(problem.goals):
        raise TraceError("bad root goal index")
    fresh = itertools.count()
    goals: list[Goal] = [goal_of_clause(problem.goals[root_idx])]
    if print_goal(goals[0]) != steps[0].goal:
        raise TraceError("root goal mismatch")
    for s in steps[1:-1]:
        if s.rule != "resolution":
            raise TraceError(f"unexpected rule {s.rule!r}")
        if s.parent is None or not 0 <= s.parent < len(goals):
            raise TraceError("bad parent reference")
        parent = goals[s.parent]
        if s.definite is None or not 0 <= s.definite < len(problem.clauses):
            raise TraceError("bad definite clause reference")
        if s.atom is None or not 0 <= s.atom < len(parent.atoms):
            raise TraceError("bad atom index")
        a = parent.atoms[s.atom]
        if not isinstance(a, FgAtom):
            raise TraceError("recorded atom is not foreground")
        head = spine(a.term)[0]
        cl = problem.clauses[s.definite]
        if not isinstance(head, PredRef) or cl.head is None \
                or cl.head[0] != head.name:
            raise TraceError("definite clause head does not match atom")
        child = resolve(parent, s.atom, cl, fresh)
        if print_goal(child) != s.goal:
            raise TraceError("replayed goal differs from recorded goal")
        goals.append(child)
    last = steps[-1].parent
    if last is None:
        last = len(goals) - 1
    if not 0 <= last < len(goals):
        raise TraceError("bad parent reference")
    if not try_refute(goals[last], theory, problem.fin_elems):
        raise TraceError("final refutation check failed")
    return True
