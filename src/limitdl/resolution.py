"""Refutation search by resolution.

Goal clauses are negated atom sets.  Resolving a predicate-headed goal atom
against a definite clause substitutes the atom's arguments for the clause's
head variables in a freshly renamed copy of the body; the goal's own
variables are never instantiated, so background constraints only accumulate.
A goal refutes when no predicate-headed foreground atoms remain and its
background part is satisfiable (variable-headed foreground atoms are
satisfied by the top interpretation and are ignored).  A goal is its atoms
and their shapes, with no sorts: a root's W variables come from its goal
clause's binders, a step's from its clause's, and the refutation check takes
every variable of a numeric background atom as W.

The search is uniform-cost: ordinary resolution steps cost 1, limit-clause
steps cost more (they are always applicable and would otherwise flood the
frontier).  Goals whose background part is unsatisfiable are pruned — sound
and complete, since background atoms persist along every branch.  A child
is keyed into the seen set by its shapes when it is generated, and pruned
when it is popped: only then are its background state and atoms built, so
a child the search never pops costs no background check (lazy successor
evaluation, as in Lazy Weighted A*: Cohen, Phillips & Likhachev, RSS
2014).  Atom selection is leftmost predicate-headed, which is complete for
Horn programs because resolution leaves the rest of the goal untouched.

The search compiles each definite clause once (_Compiled), as a compiled
logic program does (Warren, SRI TN 309, 1983): its body atoms become shape
templates and its background atoms Presburger formulas over its own
component variables, so a step only renames and fills these in, the parent
state's pins folded in.  Replay stays on the syntax path (resolve,
atom_shape, exists_sat), so it checks the search without sharing that code.
"""

from __future__ import annotations

import heapq
import itertools
import json
from collections import deque
from operator import itemgetter
from typing import Sequence

from . import presburger as P
from .background import (
    Theory, bg_extend, bg_state, comp_var, compile_atom, compile_conj,
    components, exists_sat,
)
from .presburger import Formula, LinTerm
from .record import Record
from .syntax import (
    FIN, App, Atom, BgAtom, Clause, FgAtom, PredRef, Problem, SConst, Term,
    Var, W, WLit, WOp, json_int, print_formula, print_term, spine,
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


def _shape(show, x, holes=()) -> Shape:
    """The shape of x as printed by show (print_formula or print_term); a
    variable named in holes prints as a NUL character instead of a slot."""
    occs: list[str] = []

    def name(t: Term) -> str:
        if isinstance(t, Var):
            occs.append(t.name)
            return "\0" if t.name in holes else "%s"
        return t.name.replace("%", "%%")

    return show(x, name), tuple(occs)


def atom_shape(a: Atom) -> Shape:
    return _shape(print_formula, a)


class Goal(Record):
    """shapes has one entry per atom, computed when it entered.  A pending
    search child's goal has its shapes only, and atoms None (_Node)."""

    __slots__ = __match_args__ = ("atoms", "shapes")


def goal_of_clause(cl: Clause) -> Goal:
    assert cl.head is None
    atoms = tuple(cl.body_atoms())
    return Goal(atoms, tuple(map(atom_shape, atoms)))


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
    env: dict[str, Term] = {n: Var(n + suffix) for n, _ in cl.vars}
    env.update((hv.name, arg) for hv, arg in zip(hvars, args))  # type: ignore[union-attr]
    body = tuple(subst_atom(b, env) for b in cl.body_atoms())
    return Goal(_splice(goal.atoms, atom_idx, body),
                _splice(goal.shapes, atom_idx, tuple(map(atom_shape, body))))


def _splice(xs: tuple, i: int, body: tuple) -> tuple:
    """A goal's atoms or shapes with entry i replaced by a resolvent's
    body's."""
    return xs[:i] + body + xs[i + 1:]


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
    """Every variable of a numeric (non-eqs) atom is W, as typesys admits no
    other in numeric terms; a W variable in no background atom is
    unconstrained, so it needs no nat bound."""
    bg = [(a, occs) for a, (_, occs) in zip(g.atoms, g.shapes)
          if isinstance(a, BgAtom)]
    wvars = dict.fromkeys(itertools.chain.from_iterable(
        occs for a, occs in bg if a.rel != "eqs"), W)
    return not exists_sat([a for a, _ in bg], wvars, theory, fin_elems)


# ---------------------------------------------------------------------------
# compiled clauses


class _Compiled:
    """A definite clause compiled once per search.  A step renames it apart
    by a suffix and binds its head variables (hpos: name -> argument
    position), then only fills in: templates, per body atom its shape as a
    %-format string with a slot per head-variable occurrence, their
    argument positions and every variable occurrence (None where a
    head variable heads an application, which printing flattens into the
    argument's spine); formulas, compile_conj of the background atoms and
    the body's non-head W variables, over the clause's own component
    variables (comps); and alts, per lt/gt atom over several components its
    one-pair form, used when the step leaves both sides scalars, as
    compile_atom compiles a comparison of two scalars."""

    def __init__(self, index: int, cl: Clause, theory: Theory,
                 fin_elems: Sequence[str]) -> None:
        self.index, self.limit = index, cl.is_limit
        self.theory, self.fin = theory, fin_elems
        self.hpos = {hv.name: j for j, hv in enumerate(cl.head[1])}  # type: ignore[index,union-attr]
        sorts = dict(cl.vars)
        self.need = [j for n, j in self.hpos.items() if sorts[n] in (W, FIN)]
        self.others = [(n, s) for n, s in cl.vars if n not in self.hpos]
        self.premises = cl.body_atoms()
        self.templates: list = []
        used: set[str] = set()
        for b in self.premises:
            text, occs = _shape(print_formula, b, self.hpos)
            used.update(occs)
            self.templates.append(None if "(\0" in text else (
                text.replace("%", "%%").replace("\0", "%s"),
                [self.hpos[o] for o in occs if o in self.hpos], occs))
        bg = [b for b in self.premises if isinstance(b, BgAtom)]
        self.formulas = compile_conj(
            bg, [n for n, s in self.others if s == W and n in used], theory,
            fin_elems)
        self.alts = [(k, compile_atom(BgAtom(b.rel, WOp("comp", (b.lhs,), 1),
                                             WOp("comp", (b.rhs,), 1)),
                                      theory), b)
                     for k, b in enumerate(bg)
                     if b.rel in ("lt", "gt") and theory.dim > 1]
        free = set().union(*map(P.free_vars, self.formulas),
                           *(P.free_vars(f) for _, f, _ in self.alts))
        self.comps = [(c, n, k) for n, _ in cl.vars
                      for k in range(theory.dim + 1)
                      if (c := comp_var(n, k)) in free]

    def fill(self, goal: Goal, i: int, args: list[Term],
             arg_shapes: list[Shape], suffix: str) -> tuple[Shape, ...]:
        """The shapes of resolve's resolvent of goal's atom i, whose
        arguments are args (printed as arg_shapes), with the clause renamed
        apart by suffix."""
        occs = {n: (n + suffix,) for n, _ in self.others}
        for n, j in self.hpos.items():
            occs[n] = arg_shapes[j][1]
        body = tuple(
            atom_shape(subst_atom(b, self._env(args, suffix))) if t is None
            else (t[0] % tuple([arg_shapes[j][0] for j in t[1]]),
                  tuple(itertools.chain.from_iterable([occs[o]
                                                       for o in t[2]])))
            for b, t in zip(self.premises, self.templates))
        return _splice(goal.shapes, i, body)

    def rename(self, goal: Goal, i: int, args: list[Term],
               suffix: str) -> tuple[Atom, ...]:
        """The atoms of fill's resolvent."""
        env = self._env(args, suffix)
        return _splice(goal.atoms, i,
                       tuple(subst_atom(b, env) for b in self.premises))

    def _env(self, args: list[Term], suffix: str) -> dict[str, Term]:
        """The step's renaming: each head variable to its argument, every
        other variable to its copy renamed apart by suffix."""
        env: dict[str, Term] = {n: Var(n + suffix) for n, _ in self.others}
        env.update((n, args[j]) for n, j in self.hpos.items())
        return env

    def background(self, args: list[Term], suffix: str, pins,
                   terms: dict) -> list[Formula]:
        """The step's formulas, the parent's pins folded in: a head
        variable's component variables become its argument's _arg_terms
        (memoised in terms per parent), every other one its renamed copy."""
        for j in self.need:
            if j not in terms:
                terms[j] = self._arg_terms(args[j], pins)
        sub = {c: terms[self.hpos[n]][0][k] if n in self.hpos
               else LinTerm.of_var(comp_var(n + suffix, k))
               for c, n, k in self.comps}
        fs = [P.subst(f, sub) for f in self.formulas]
        scalars = {n: WLit((0,)) for n, j in self.hpos.items()
                   if j in terms and terms[j][1]}
        for k, f, b in self.alts if scalars else ():
            if all(len(components(subst_term(t, scalars), self.theory.dim))
                   == 1 for t in (b.lhs, b.rhs)):
                fs[k] = P.subst(f, sub)
        return fs

    def _arg_terms(self, t: Term, pins) -> tuple[list[LinTerm], bool]:
        """The terms under pins of comp_var(h, k), k = 0..dim, for a head
        variable h bound to t (k = 0 reads a finite-sort value), and whether
        t is a scalar, which stands in every coordinate."""
        if isinstance(t, SConst):
            return [LinTerm.of_const(self.fin.index(t.name))], False
        dim = self.theory.dim
        cs = components(t, dim)
        scalar = len(cs) < dim
        cs = [LinTerm.of_var(comp_var(t.name, 0)) if isinstance(t, Var)
              else LinTerm(0)] + cs * (dim if scalar else 1)
        return [c.subst(pins) for c in cs], scalar


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
    def from_json(d: object) -> "ProofTrace":
        """The trace a JSON value describes, else a TraceError: an object
        with a list "steps" and a string "constraints" and no other key."""
        if not isinstance(d, dict) or d.keys() != {"steps", "constraints"} \
                or not isinstance(d["steps"], list) \
                or not isinstance(d["constraints"], str):
            raise TraceError("a trace is an object with a list 'steps' and "
                             "a string 'constraints'")
        return ProofTrace([_step_from_json(s) for s in d["steps"]],
                          d["constraints"])

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2)


_STEP_REFS = ("parent", "atom", "definite")


def _step_from_json(s: object) -> TraceStep:
    """A trace step: an object with a string "goal" and "rule", and with
    "parent", "atom" and "definite" each absent, null or a JSON integer."""
    if not isinstance(s, dict) \
            or not s.keys() <= {"goal", "rule", *_STEP_REFS} \
            or not isinstance(s.get("goal"), str) \
            or not isinstance(s.get("rule"), str):
        raise TraceError("a trace step is an object with a string 'goal' "
                         "and 'rule' and optional integer references")
    refs = []
    for k in _STEP_REFS:
        x = s.get(k)
        try:
            refs.append(None if x is None else json_int(x))
        except ValueError:
            raise TraceError(f"trace step {k} {x!r} is not an integer")
    return TraceStep(s["goal"], s["rule"], *refs)


# ---------------------------------------------------------------------------
# saturation


class Refuted(Record):
    __slots__ = __match_args__ = ("trace", "steps_used")
    __hash__ = None


class BudgetExhausted(Record):
    __slots__ = __match_args__ = ("steps_used",)
    __hash__ = None


class _Node(Record):
    """A search node: bg is goal's reduced background state, via_limit marks
    a limit-clause step, and a root's definite is its goal clause's index.

    A root is built whole, with step None.  A child is pending until it is
    popped: its goal holds only its shapes (atoms None), which are all its
    seen-set key needs, bg is None, and step holds what builds the rest,
    the compiled clause, the parent atom's arguments, the suffix and the
    parent expansion's terms memo.  Popping builds bg from the parent's and,
    when that is satisfiable, the atoms, and clears step."""

    __slots__ = __match_args__ = ("goal", "parent", "atom", "definite", "bg",
                                  "via_limit", "step")
    __hash__ = None


class Saturator:
    """Resumable uniform-cost refutation search over all goal clauses."""

    def __init__(self, problem: Problem, theory: Theory):
        self.fresh = itertools.count()
        self.steps_used = 0
        self._seq = itertools.count()
        self._frontier: list[tuple[int, int, _Node]] = []
        self._seen: set[str] = set()
        # the popped node whose children a slice's end cut off: (cost,
        # node, atom index, args, arg shapes, terms memo, the clauses left)
        self._open: tuple | None = None
        self._by_pred: dict[str, list[_Compiled]] = {}
        for i, cl in enumerate(problem.clauses):
            self._by_pred.setdefault(cl.head[0], []).append(  # type: ignore[index]
                _Compiled(i, cl, theory, problem.fin_elems))
        for ri, gcl in enumerate(problem.goals):
            g = goal_of_clause(gcl)
            used = set(itertools.chain.from_iterable(o for _, o in g.shapes))
            st = bg_state([a for a in g.atoms if isinstance(a, BgAtom)],
                          [n for n, s in gcl.vars if s == W and n in used],
                          theory, problem.fin_elems)
            if st is None:
                continue  # goal clause can never fire
            node = _Node(g, None, None, ri, st, False, None)
            heapq.heappush(self._frontier, (0, next(self._seq), node))
            self._seen.add(canonical_goal(g))

    def exhausted(self) -> bool:
        return not self._frontier and self._open is None

    def run(self, budget: int) -> Refuted | BudgetExhausted:
        """Spend up to budget rule applications; resumable.  A step is
        counted when it generates its child, which is pruned, spending
        nothing more, when it is popped with an unsatisfiable background.
        A node's expansion that the budget cuts off resumes at the next
        call, so no call spends more than budget."""
        spent = 0
        while spent < budget:
            if self._open is None:
                if not self._frontier:
                    break
                cost, _, node = heapq.heappop(self._frontier)
                if node.step is not None and not self._build(node):
                    continue
                g = node.goal
                idxs = resolvable_indices(g)
                if not idxs:
                    # the background part is known satisfiable, so this is
                    # a refutation outright
                    self.steps_used += 1
                    return Refuted(self._build_trace(node), self.steps_used)
                i = idxs[0]
                head, args = spine(g.atoms[i].term)  # type: ignore[union-attr]
                ccs = self._by_pred.get(head.name, [])  # type: ignore[union-attr]
                # two consecutive limit steps on the same atom are subsumed
                # by one (the order is transitive)
                rest = deque(cc for cc in ccs if len(cc.hpos) == len(args)
                             and not (cc.limit and node.via_limit))
                self._open = (cost, node, i, args,
                              [_shape(print_term, t) for t in args], {}, rest)
            cost, node, i, args, arg_shapes, terms, rest = self._open
            g = node.goal
            while rest and spent < budget:
                cc = rest.popleft()
                spent += 1
                self.steps_used += 1
                suffix = f"${next(self.fresh)}"
                child = Goal(None, cc.fill(g, i, args, arg_shapes, suffix))
                key = canonical_goal(child)
                if key in self._seen:
                    continue
                self._seen.add(key)
                step_cost = LIMIT_COST if cc.limit else 1
                heapq.heappush(self._frontier,
                               (cost + step_cost, next(self._seq),
                                _Node(child, node, i, cc.index, None,
                                      cc.limit, (cc, args, suffix, terms))))
            if not rest:
                self._open = None
        return BudgetExhausted(self.steps_used)

    @staticmethod
    def _build(node: _Node) -> bool:
        """Build a pending node's background state and, when that is
        satisfiable, its atoms; False when it is not."""
        cc, args, suffix, terms = node.step
        parent = node.parent
        st = bg_extend(parent.bg, cc.background(args, suffix, parent.bg.pins,
                                                terms))
        if st is None:
            return False
        node.goal = Goal(cc.rename(parent.goal, node.atom, args, suffix),
                         node.goal.shapes)
        node.bg, node.step = st, None
        return True

    def _build_trace(self, node: _Node) -> ProofTrace:
        chain: list[_Node] = []
        n: _Node | None = node
        while n is not None:
            chain.append(n)
            n = n.parent
        chain.reverse()
        steps = [TraceStep(print_goal(nd.goal),
                           "resolution" if j else "root", j - 1 if j else None,
                           nd.atom, nd.definite) for j, nd in enumerate(chain)]
        steps.append(TraceStep(steps[-1].goal, "refutation", len(steps) - 1,
                               None, None))
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
