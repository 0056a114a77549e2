"""Compiled clauses: a resolution step of the search fills in what its clause
compiled once, and must give what the syntax path (`resolve`'s renaming and
`atom_shape`, `compile_atom`) gives for the same step."""

import itertools
import os

from hypothesis import given, settings, strategies as st

from limitdl import background, driver, resolution
from limitdl import presburger as P
from limitdl.background import Theory, compile_conj
from limitdl.driver import SolveConfig
from limitdl.presburger import LinTerm
from limitdl.resolution import (
    Goal, Saturator, _Compiled, _shape, _splice, atom_shape, subst_atom,
)
from limitdl.syntax import (
    FIN, PROP, W, AndF, App, Arrow, BgAtom, Clause, FgAtom, PredRef, SConst,
    Var, WLit, WOp, mk_app, normalize_problem, parse_problem, print_term,
)
from corpus import FIX, HINTS, PINNED, problem


def syntax_body(cl, args, suffix):
    """The syntax path's renamed body for one step: the clause's head
    variables bound to args, every other variable renamed by suffix."""
    hnames = [hv.name for hv in cl.head[1]]
    env = {n: Var(n + suffix) for n, _ in cl.vars if n not in hnames}
    env.update(zip(hnames, args))
    return [subst_atom(b, env) for b in cl.body_atoms()]


def expected_formulas(cl, body, suffix, pins, theory, fin_elems):
    """The syntax path's formulas for one step: compile_atom of the renamed
    body's background atoms plus the nat bounds of the new W variables (the
    clause's non-head W binders, renamed by suffix, that occur in the
    renamed body), with the parent's pins folded in."""
    hnames = [hv.name for hv in cl.head[1]]
    used = set(itertools.chain.from_iterable(
        o for _, o in map(atom_shape, body)))
    new_w = [n + suffix for n, s in cl.vars
             if n not in hnames and s == W and n + suffix in used]
    fs = compile_conj([b for b in body if isinstance(b, BgAtom)], new_w,
                      theory, fin_elems)
    return [P.subst(f, pins) for f in fs]


def test_every_search_step_matches_the_syntax_path(monkeypatch):
    """On every step of every corpus row and of integral255, the filled
    templates of each generated child equal atom_shape of the renamed body
    atoms; and for each child popped, its atoms are the renamed body atoms
    and its compiled formulas equal compile_atom of the new background
    atoms plus nat_bounds of the new W variables, under the parent state's
    pins."""
    fill, rename, background_ = (_Compiled.fill, _Compiled.rename,
                                 _Compiled.background)
    checked = {"shapes": 0, "atoms": 0, "formulas": 0}

    def body_of(cc, args, suffix):
        return syntax_body(current[0].clauses[cc.index], args, suffix)

    def checked_fill(cc, goal, i, args, arg_shapes, suffix):
        shapes = fill(cc, goal, i, args, arg_shapes, suffix)
        body = body_of(cc, args, suffix)
        assert shapes == _splice(goal.shapes, i,
                                 tuple(map(atom_shape, body)))
        checked["shapes"] += len(body)
        return shapes

    def checked_rename(cc, goal, i, args, suffix):
        atoms = rename(cc, goal, i, args, suffix)
        body = body_of(cc, args, suffix)
        assert atoms == _splice(goal.atoms, i, tuple(body))
        checked["atoms"] += len(body)
        return atoms

    def checked_background(cc, args, suffix, pins, terms):
        fs = background_(cc, args, suffix, pins, terms)
        p, th = current
        cl = p.clauses[cc.index]
        assert fs == expected_formulas(cl, body_of(cc, args, suffix), suffix,
                                       pins, th, p.fin_elems)
        checked["formulas"] += len(fs)
        return fs

    monkeypatch.setattr(_Compiled, "fill", checked_fill)
    monkeypatch.setattr(_Compiled, "rename", checked_rename)
    monkeypatch.setattr(_Compiled, "background", checked_background)
    rows = [pid for pid, *_ in PINNED] + ["integral255"]
    for pid in rows:
        if pid == "integral255":
            with open(os.path.join(FIX, "integral255.lchc")) as fh:
                p = normalize_problem(parse_problem(fh.read()))
            th = background.theory_for(p.theory_kind, p.dim, p.direction)
        else:
            p, th = problem(pid)
        current = (p, th)
        v = driver.solve(p, SolveConfig(hint=HINTS.get(pid)))
        assert v.kind in ("SAT", "UNSAT"), pid
    assert checked["shapes"] > 10_000 and checked["formulas"] > 5_000 \
        and checked["atoms"] > 4_000, checked


def count_inside_run(monkeypatch, targets):
    """Count the calls of each (module, name) in targets made inside
    Saturator.run, keyed by name."""
    inside = [False]
    calls = {name: 0 for _, name in targets}
    for mod, name in targets:
        def counted(*args, _f=getattr(mod, name), _name=name, **kwargs):
            calls[_name] += inside[0]
            return _f(*args, **kwargs)
        monkeypatch.setattr(mod, name, counted)
    run = Saturator.run

    def flagged(self, budget):
        inside[0] = True
        try:
            return run(self, budget)
        finally:
            inside[0] = False

    monkeypatch.setattr(Saturator, "run", flagged)
    return calls


def corpus_pass() -> int:
    """Solve the 39 corpus rows the search runs on (every row but
    integral256, whose hint answers first) and return the steps spent."""
    steps = 0
    for pid, verdict, _, _ in PINNED:
        if pid == "integral256":
            continue
        v = driver.solve(problem(pid)[0], SolveConfig())
        assert v.kind == verdict, pid
        steps += v.stats["resolutionSteps"]
    return steps


def test_search_compiles_no_atom_and_prints_no_atom(monkeypatch):
    """One pass over the 39 corpus rows the search runs on makes no
    compile_atom call and no atom_shape call inside Saturator.run: clauses
    are compiled when the Saturator is built, and the root goals' shapes
    too.  Compiling and printing at every step made 4,055 compile_atom and
    5,910 atom_shape calls inside Saturator.run on this pass."""
    calls = count_inside_run(monkeypatch, [(background, "compile_atom"),
                                           (resolution, "compile_atom"),
                                           (resolution, "atom_shape")])
    assert corpus_pass() > 2_000
    assert calls == {"compile_atom": 0, "atom_shape": 0}, calls


def test_search_builds_only_popped_children(monkeypatch):
    """On one pass over the 39 corpus rows the search runs on, the search
    checks a child's background (bg_extend) and renames its atoms
    (subst_atom) only when it pops the child: 1,487 bg_extend and 2,311
    subst_atom calls inside Saturator.run, in the same 2,453 steps.
    Building every child when it is generated made 2,429 and 5,910."""
    calls = count_inside_run(monkeypatch, [(resolution, "bg_extend"),
                                           (resolution, "subst_atom")])
    assert corpus_pass() == 2_453
    assert calls["bg_extend"] <= 1_487 and calls["subst_atom"] <= 2_311, \
        calls


# ---------------------------------------------------------------------------
# property: compiling then substituting equals substituting then compiling

FIN_ELEMS = ("a", "b", "c")
HEAD = (("x", W), ("y", W), ("s", FIN), ("f", Arrow(W, PROP)))
OTHERS = (("z", W), ("t", FIN))


def numeric(dim, names, vectors=True):
    """Numeric terms over the W variables names: variables, scalar
    literals, vector literals unless vectors is False, comp, scale, + and
    -."""
    leaves = [st.sampled_from([Var(n) for n in names]),
              st.integers(-3, 3).map(lambda k: WLit((k,)))]
    if vectors:
        leaves.append(st.lists(st.integers(-3, 3), min_size=dim,
                               max_size=dim).map(lambda vs: WLit(tuple(vs))))
    return st.recursive(st.one_of(leaves), lambda sub: st.one_of(
        st.tuples(sub, st.integers(1, dim)).map(
            lambda a: WOp("comp", (a[0],), a[1])),
        st.tuples(sub, st.integers(-2, 3)).map(
            lambda a: WOp("scale", (a[0],), a[1])),
        st.tuples(st.sampled_from("+-"), sub, sub).map(
            lambda a: WOp(a[0], (a[1], a[2])))), max_leaves=4)


def scalar(dim, names):
    """Scalar numeric terms: literals and components of variables."""
    return st.one_of(
        st.integers(-3, 3).map(lambda k: WLit((k,))),
        st.tuples(st.sampled_from(names), st.integers(1, dim)).map(
            lambda a: WOp("comp", (Var(a[0]),), a[1])))


@st.composite
def steps(draw):
    dim = draw(st.sampled_from([1, 2, 2, 3]))
    theory = Theory(draw(st.sampled_from(["nat", "lia"])) if dim == 1
                    else "nat", dim, draw(st.booleans()))
    wterm = numeric(dim, ["x", "y", "z"])
    # a strict comparison over head variables only compiles to one pair
    # once both are bound to scalars
    hterm = numeric(dim, ["x", "y"], vectors=False)
    fin = st.sampled_from([Var("s"), Var("t"), SConst("a"), SConst("c")])
    atom = st.one_of(
        st.tuples(st.sampled_from(["eq", "neq", "leq", "geq", "lt", "gt"]),
                  wterm, wterm).map(lambda a: BgAtom(*a)),
        st.tuples(st.sampled_from(["lt", "gt"]), hterm, hterm).map(
            lambda a: BgAtom(*a)),
        st.tuples(fin, fin).map(lambda a: BgAtom("eqs", *a)),
        wterm.map(lambda t: FgAtom(App(Var("f"), t))),
        st.tuples(wterm, fin).map(
            lambda a: FgAtom(mk_app(PredRef("Q"), list(a)))))
    body = draw(st.lists(atom, min_size=1, max_size=4))
    cl = Clause(HEAD + OTHERS, ("R", tuple(Var(n) for n, _ in HEAD)),
                AndF(tuple(body)))
    # arguments over the goal's variables u, v (W) and r (S); f gets a
    # predicate or a partial application, which printing flattens
    arg = st.one_of(numeric(dim, ["u", "v"]), scalar(dim, ["u", "v"]))
    args = [draw(arg), draw(arg),
            draw(st.sampled_from([Var("r"), SConst("a"), SConst("b")])),
            draw(st.sampled_from([PredRef("P"),
                                  App(PredRef("P2"), WLit((1,)))]))]
    # parent pins: u's components reduced to terms over v's
    pins = {}
    for k in range(1, dim + 1):
        if draw(st.booleans()):
            pins[f"u#{k}"] = LinTerm.make(
                draw(st.integers(-3, 3)),
                {f"v#{draw(st.integers(1, dim))}": draw(st.integers(-2, 2))})
    return theory, cl, args, pins


@settings(max_examples=300, deadline=None, derandomize=True)
@given(steps())
def test_compiled_step_equals_syntax_step(case):
    """For generated clause bodies and head arguments, the compiled step's
    atoms equal the renamed atoms, its shapes atom_shape of them, and its
    formulas equal
    compile_atom of them (subst(compile_atom(b), pins) ==
    compile_atom(subst_atom(b, env))), the parent's pins folded into both:
    eq/neq/leq/geq/lt/gt over several components, scale, comp, scalar
    literals and arguments, eqs over variables and constants, and a
    higher-order variable applied in the body and bound to a partial
    application."""
    theory, cl, args, pins = case
    cc = _Compiled(0, cl, theory, FIN_ELEMS)
    atom = FgAtom(mk_app(PredRef("R"), args))
    goal = Goal((atom,), (atom_shape(atom),))
    suffix = "$0"
    shapes = cc.fill(goal, 0, args, [_shape(print_term, a) for a in args],
                       suffix)
    atoms = cc.rename(goal, 0, args, suffix)
    fs = cc.background(args, suffix, pins, {})
    body = syntax_body(cl, args, suffix)
    assert list(atoms) == body
    assert list(shapes) == [atom_shape(b) for b in body]
    assert fs == expected_formulas(cl, body, suffix, pins, theory, FIN_ELEMS)
