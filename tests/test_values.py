"""Value semantics of the library's record classes.

Every record class (syntax, sorts, Presburger terms and formulas, upset
descriptors, canonical and extensional values, machines, goals, traces,
reports and solver results) is a slotted subclass of `limitdl.record.Record`,
whose constructor sets the fields unless the class defines its own
`__init__`.  These tests pin what the frozen and plain
dataclasses they replaced gave: equality by class and fields, the hash of
the tuple of fields, `match` patterns, `repr`, pickling, and which records
are unhashable because the library assigns them after construction.

Immutable records cache their hash (and `LinTerm.vars`) in slots on first
use.  The caches are only sound if no record changes after construction,
which nothing checks at run time; `test_values_are_never_assigned` checks
the source instead.
"""

import ast
import os
import pickle
import sys

import pytest

from limitdl import background as B
from limitdl import driver as D
from limitdl import entwined as E
from limitdl import frontends as F
from limitdl import presburger as P
from limitdl import resolution as R
from limitdl import syntax as S
from limitdl import typesys as T
from limitdl.presburger import And, Cmp, Div, LinTerm, Not, Or
from limitdl.record import Record

ROOT = os.path.join(os.path.dirname(__file__), "..")
SOURCES = [os.path.join(ROOT, "src", "limitdl"), os.path.dirname(__file__)]

MODULES = (B, D, E, F, P, R, S, T)
# every record class the library defines
RECORDS = [c for m in MODULES for c in vars(m).values()
           if isinstance(c, type) and issubclass(c, Record)
           and c.__module__ == m.__name__]
IMMUTABLE = [c for c in RECORDS if c.__hash__ is not None]


def _t():
    return LinTerm(3, (("x", 2), ("y", -1)))


def _samples():
    """(class, its field names in order, one value per field): a sample of
    every concrete record class, built fresh on each call."""
    t = _t()
    x = S.Var("x")
    arrow = S.Arrow(S.W, S.PROP)
    app = S.App(S.PredRef("P"), x)
    bg = S.BgAtom("leq", x, S.WLit((2,)))
    fg = S.FgAtom(app)
    cl = S.Clause((("x", S.W),), ("P", (x,)), bg, True, (3, 1))
    state = B.BgState({"x": t}, [Cmp("<=", t)], {"x": 1})
    goal = R.Goal((fg,), (("x", S.W),), (("(P %s)", ("x",)),))
    trace = R.ProofTrace([R.TraceStep("(P v0)", "refutation", 0, None,
                                      None)], "true")
    report = T.ValidationReport("FirstOrder", 1, {"P": {"order": 1}}, [])
    return [
        (LinTerm, "const coeffs", (3, (("x", 2), ("y", -1)))),
        (Cmp, "op t", ("<=", t)),
        (Div, "d t neg", (4, t, True)),
        (Not, "f", (Cmp("=", t),)),
        (And, "args", ((Cmp("<", t), P.TRUE),)),
        (Or, "args", ((Cmp("<", t), P.FALSE),)),
        (P.TrueF, "", ()),
        (P.FalseF, "", ()),
        (P.Exists, "var body", ("x", Cmp("=", t))),
        (P.Forall, "var body", ("y", Div(2, t))),
        (S.Prop, "", ()),
        (S.Fin, "", ()),
        (S.WSort, "", ()),
        (S.Arrow, "arg res", (S.FIN, arrow)),
        (S.Var, "name", ("x",)),
        (S.PredRef, "name", ("P",)),
        (S.SConst, "name", ("a",)),
        (S.WLit, "vals", ((1, 2),)),
        (S.WOp, "op args k", ("scale", (x,), 3)),
        (S.App, "fn arg", (S.PredRef("P"), x)),
        (S.BgAtom, "rel lhs rhs", ("leq", x, S.WLit((2,)))),
        (S.FgAtom, "term", (app,)),
        (S.AndF, "args", ((fg, bg),)),
        (S.OrF, "args", ((fg,),)),
        (S.Clause, "vars head body is_limit loc",
         ((("x", S.W),), ("P", (x,)), bg, True, (3, 1))),
        (S.Problem, "theory_kind dim direction fin_elems decls clauses goals",
         ("nat", 1, "upward", ("a",), (("P", arrow),), (cl,), ())),
        (S.SExpr, "val line col", ([S.SExpr("x", 1, 2)], 1, 1)),
        (B.Empty, "", ()),
        (B.All, "", ()),
        (B.AtLeast, "k", (3,)),
        (B.Antichain, "gens", (((0, None), (2, 1)),)),
        (B.BgState, "pins residual witness",
         ({"x": t}, [Cmp("<=", t)], {"x": 1})),
        (E.Top, "sort", (arrow,)),
        (E.SVal, "const", ("a",)),
        (E.PredApp, "pred args", ("P", (E.SVal("a"),))),
        (E.FnVal, "sort vals", (S.Arrow(S.FIN, S.PROP), (True, False))),
        (E.ActVal, "sort descs", (arrow, (B.AtLeast(3), B.ALL))),
        (F.InstrA, "src counter dst", ("q0", 1, "q1")),
        (F.InstrB, "src counter if_zero dec_to", ("q1", 2, "q0", "q2")),
        (F.LCM, "states initial final counters instructions",
         (("q0", "q1"), "q0", "q1", 1, (F.InstrA("q0", 1, "q1"),))),
        (F.LCMConfig, "state values", ("q1", (0, 2))),
        (R.Goal, "atoms varsorts shapes",
         ((fg,), (("x", S.W),), (("(P %s)", ("x",)),))),
        (R.TraceStep, "goal rule parent atom definite",
         ("(P v0)", "resolution", 0, 1, 2)),
        (R.ProofTrace, "steps constraints", ([], "true")),
        (R.Refuted, "trace steps_used", (trace, 3)),
        (R.BudgetExhausted, "steps_used", (5,)),
        (R._Node, "goal root parent atom definite bg via_limit",
         (goal, 0, None, None, None, state, True)),
        (T.ValidationReport, "mode max_order pred_info errors",
         ("FirstOrder", 1, {"P": {"order": 1}}, ["e"])),
        (D.SolveConfig, "resolution_slice model_slice total_budget hint",
         (10, 5, 100, "h.json")),
        (D.Verdict, "kind model trace report stats",
         ("UNSAT", None, trace, report, {"resolutionSteps": 3})),
    ]


SAMPLES = _samples()
IDS = [cls.__name__ for cls, _, _ in SAMPLES]
# records the library assigns after construction, or whose fields are
# mutable containers: unhashable, as the plain dataclasses were
MUTABLE = {S.SExpr, B.BgState, R.TraceStep, R.ProofTrace, R.Refuted,
           R.BudgetExhausted, R._Node, T.ValidationReport, D.SolveConfig,
           D.Verdict}
# fields that equality and hashing skip
IGNORED = {S.Clause: {"is_limit", "loc"}}


def _fresh(i):
    cls, names, args = _samples()[i]
    return cls, names.split(), args


def _key(cls, names, args):
    return tuple(a for n, a in zip(names, args)
                 if n not in IGNORED.get(cls, ()))


def test_every_record_class_has_a_sample():
    bases = {b for c in RECORDS for b in c.__mro__[1:]}
    assert {c for c in RECORDS if c not in bases} == \
        {cls for cls, _, _ in SAMPLES}
    assert {c for c in RECORDS if c.__hash__ is None} == MUTABLE


@pytest.mark.parametrize("i", range(len(SAMPLES)), ids=IDS)
def test_fields_match_args_and_repr(i):
    cls, names, args = _fresh(i)
    x = cls(*args)
    assert cls.__match_args__ == tuple(names)
    # a class pattern binds its positional sub-patterns to these fields
    assert tuple(getattr(x, n) for n in cls.__match_args__) == args
    assert repr(x) == f"{cls.__name__}(" + ", ".join(
        f"{n}={a!r}" for n, a in zip(names, args)) + ")"
    assert cls(**dict(zip(names, args))) == x


def _build(i):
    cls, _, args = _fresh(i)
    return cls(*args)


# one builder per sample, in SAMPLES order: equal values, distinct objects
BUILDS = [lambda i=i: _build(i) for i in range(len(SAMPLES))]


@pytest.mark.parametrize("build", BUILDS)
def test_equal_values_hash_equal_and_share_keys(build):
    a, b = build(), build()
    assert a is not b
    assert a == b and not (a != b)
    c = pickle.loads(pickle.dumps(a))
    assert c == a and c is not a and repr(c) == repr(a)
    if type(a) in MUTABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
        return
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert {a: 1}[b] == 1
    assert list(dict.fromkeys([a, b])) == [a]
    assert c._hash is None  # the cached hash is not carried
    assert hash(c) == hash(a)


def test_hash_is_the_hash_of_the_fields():
    # as the frozen dataclasses hashed, so set and dict orders do not move
    for i in range(len(SAMPLES)):
        cls, names, args = _fresh(i)
        if cls not in MUTABLE:
            assert hash(cls(*args)) == hash(_key(cls, names, args)), cls


def _other(v):
    """A value unlike v that the constructors still accept."""
    if isinstance(v, bool):
        return not v
    if isinstance(v, int):
        return v + 1
    if isinstance(v, str):
        return "<" if v in ("<=", "=") else v + "'"
    return object()


@pytest.mark.parametrize("i", range(len(SAMPLES)), ids=IDS)
def test_equality_is_by_class_and_fields(i):
    cls, names, args = _fresh(i)
    a = cls(*args)
    assert a != _key(cls, names, args) and a != object()
    for j, n in enumerate(names):
        other = list(_fresh(i)[2])
        other[j] = _other(other[j])
        c = cls(*other)
        if n in IGNORED.get(cls, ()):
            assert c == a and hash(c) == hash(a)
        else:
            assert c != a and not (c == a), n


def test_values_of_different_types_differ():
    x = (Cmp("<", _t()),)
    assert And(x) != Or(x)
    assert len({And(x), Or(x)}) == 2
    assert LinTerm(0) != 0 and Cmp("<", _t()) != ("<", _t())
    assert Cmp("<", _t()) != Cmp("<=", _t())
    assert Div(4, _t()) != Div(4, _t(), True)
    assert LinTerm(3) != LinTerm(3, (("x", 1),))
    # classes with equal field tuples
    pairs = [(S.Var("x"), S.PredRef("x")), (S.Var("x"), S.SConst("x")),
             (S.AndF(()), S.OrF(())), (S.PROP, S.FIN), (S.FIN, S.W),
             (B.EMPTY, B.ALL), (P.TRUE, P.FALSE), (B.EMPTY, P.TRUE),
             (P.Exists("x", P.TRUE), P.Forall("x", P.TRUE)),
             (E.FnVal(S.W, ()), E.ActVal(S.W, ())),
             (E.SVal("a"), S.SConst("a"))]
    for a, b in pairs:
        assert a != b and b != a
        assert hash(a) == hash(b) and len({a, b}) == 2


def test_clause_equality_ignores_is_limit_and_loc():
    body = S.BgAtom("leq", S.Var("x"), S.WLit((2,)))
    a = S.Clause((("x", S.W),), None, body)
    b = S.Clause((("x", S.W),), None, body, is_limit=True, loc=(7, 3))
    assert a == b and hash(a) == hash(b) == hash(((("x", S.W),), None, body))
    assert (a.is_limit, a.loc) == (False, (0, 0))
    assert repr(b).endswith(", is_limit=True, loc=(7, 3))")


def test_mutable_records_keep_their_behaviour():
    a, b = D.Verdict("SAT"), D.Verdict("SAT")
    assert a == b and a.stats == {} and a.stats is not b.stats
    r, s = T.ValidationReport("FirstOrder"), T.ValidationReport("FirstOrder")
    assert r.pred_info is not s.pred_info and r.errors is not s.errors
    assert r.max_order == 0 and r.ok
    cfg = D.SolveConfig()
    assert (cfg.resolution_slice, cfg.model_slice, cfg.total_budget,
            cfg.hint) == (2000, 50, None, None)
    for bad in ({"resolution_slice": 0}, {"model_slice": 0},
                {"total_budget": 0}):
        with pytest.raises(ValueError):
            D.SolveConfig(**bad)
    step = R.TraceStep("(P v0)", "resolution", None, 0, 1)
    step.parent = 4
    assert step == R.TraceStep("(P v0)", "resolution", 4, 0, 1)
    node = R._Node(None, 0, None, None, None, None)
    assert node.via_limit is False


def test_vars_is_cached():
    t = _t()
    assert t.vars == ("x", "y") and t.vars is t.vars
    assert LinTerm(7).vars == ()


def test_bad_comparison_op_is_rejected():
    with pytest.raises(ValueError):
        Cmp("<>", _t())


def test_match_patterns_bind():
    t = _t()
    match t:
        case LinTerm(k, cs):
            assert k == 3 and cs is t.coeffs
    match Cmp("<", t):
        case Cmp(op, u):
            assert op == "<" and u is t
    match Div(4, t, True):
        case Div(d, u, neg):
            assert (d, u, neg) == (4, t, True)
    g = Cmp("=", t)
    match Not(g):
        case Not(h):
            assert h is g
    for cls in (And, Or):
        match cls((g, g)):
            case And(args) | Or(args):
                assert args == (g, g)
    match Or((g,)):
        case And(_):
            raise AssertionError("Or matched And")
        case Or(_):
            pass
    x = S.Var("x")
    match S.WOp("comp", (x,), 2):
        case S.WOp("comp", (S.Var(name),), k):
            assert (name, k) == ("x", 2)
    match S.Clause((), None, S.AndF(()), True):
        case S.Clause(vs, None, S.OrF()):
            raise AssertionError("AndF matched OrF")
        case S.Clause(vs, None, S.AndF(()), is_limit=lim):
            assert vs == () and lim
    match B.AtLeast(4):
        case B.Empty() | B.All():
            raise AssertionError("AtLeast matched a constant descriptor")
        case B.AtLeast(k):
            assert k == 4


def test_repr_and_str_are_pinned():
    t = _t()
    assert repr(t) == "LinTerm(const=3, coeffs=(('x', 2), ('y', -1)))"
    assert repr(LinTerm(0)) == "LinTerm(const=0, coeffs=())"
    assert repr(Cmp("<=", LinTerm(-1, (("x", 1),)))) == \
        "Cmp(op='<=', t=LinTerm(const=-1, coeffs=(('x', 1),)))"
    assert repr(Div(4, LinTerm(0, (("x", 1),)))) == \
        "Div(d=4, t=LinTerm(const=0, coeffs=(('x', 1),)), neg=False)"
    assert repr(Not(P.TRUE)) == "Not(f=TrueF())"
    assert repr(And((P.TRUE, P.FALSE))) == "And(args=(TrueF(), FalseF()))"
    assert repr(Or((Not(P.FALSE),))) == "Or(args=(Not(f=FalseF()),))"
    assert repr(S.WOp("+", (S.Var("x"), S.WLit((1,))))) == \
        "WOp(op='+', args=(Var(name='x'), WLit(vals=(1,))), k=None)"
    assert repr(E.ActVal(S.Arrow(S.W, S.PROP), (B.AtLeast(2),))) == \
        "ActVal(sort=Arrow(arg=WSort(), res=Prop()), descs=(AtLeast(k=2),))"
    assert repr(D.Verdict("UNKNOWN")) == ("Verdict(kind='UNKNOWN', "
                                          "model=None, trace=None, "
                                          "report=None, stats={})")
    assert str(t) == "2*x - y + 3"
    assert str(And((Cmp("<", t), Div(4, t, True)))) == \
        "(and (2*x - y + 3 < 0) (4 ∤ 2*x - y + 3))"
    assert str(Or((Not(Cmp("=", LinTerm(0))),))) == "(or (not (0 = 0)))"


# ---------------------------------------------------------------------------
# immutability, checked on the source


def _slots(cls) -> set[str]:
    return {n for k in cls.__mro__ for n in getattr(k, "__slots__", ())}


FIELDS = {n for cls in IMMUTABLE for n in cls.__match_args__}
# cache slot -> the one accessor that fills it
CACHES = {"_hash": "__hash__", "_vars": "vars"}
# (defining file, class) -> slots, for every class that declares slots of
# an immutable record: only its __init__ may set them
OWNERS = {(os.path.basename(sys.modules[k.__module__].__file__),
           k.__name__): _slots(k)
          for cls in IMMUTABLE for k in cls.__mro__[:-1]}
# plain classes whose __init__ sets an attribute that shares its name with
# a record field, and those attributes
OWNERS |= {("background.py", "Theory"): {"dim"},
           ("syntax.py", "_Ctx"): {"decls", "dim"}}


def test_slot_names_are_fields_or_registered_caches():
    assert {n for cls in IMMUTABLE for n in _slots(cls)} == \
        FIELDS | set(CACHES)


def _assigned_attr(node: ast.AST) -> str | None:
    """The attribute node stores to or deletes: `x.a = v`, `x.a += v`,
    `del x.a`, `for x.a in ...`, or a setattr/delattr/object.__setattr__
    call with a literal name."""
    if isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                      (ast.Store, ast.Del)):
        return node.attr
    if isinstance(node, ast.Call) and len(node.args) >= 2 and \
            isinstance(node.args[1], ast.Constant) and \
            isinstance(node.args[1].value, str):
        fn = node.func
        name = fn.id if isinstance(fn, ast.Name) else \
            fn.attr if isinstance(fn, ast.Attribute) else None
        if name in ("setattr", "delattr", "__setattr__", "__delattr__"):
            return node.args[1].value
    return None


def violations(tree: ast.AST, module: str) -> list[str]:
    """Stores to a field or cache slot of an immutable record, except a
    field in its own class's __init__, and a cache slot set to None there or
    filled by its accessor."""
    out = []

    def visit(node: ast.AST, cls: str | None, fn: str | None) -> None:
        if isinstance(node, ast.ClassDef):
            cls, fn = node.name, None
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        attr = _assigned_attr(node)
        if attr in FIELDS or attr in CACHES:
            own = attr in OWNERS.get((module, cls), ())
            if not own or fn not in ("__init__", CACHES.get(attr)):
                out.append(f"{module}:{node.lineno} {cls}.{fn} sets {attr}")
        if isinstance(node, ast.Assign) and fn == "__init__" and \
                (module, cls) in OWNERS:
            for t in node.targets:
                if isinstance(t, ast.Attribute) and t.attr in CACHES and not (
                        isinstance(node.value, ast.Constant)
                        and node.value.value is None):
                    out.append(f"{module}:{node.lineno} {cls}.__init__ "
                               f"fills {t.attr}")
        for child in ast.iter_child_nodes(node):
            visit(child, cls, fn)

    visit(tree, None, None)
    return out


def _sources():
    for d in SOURCES:
        for name in sorted(os.listdir(d)):
            if name.endswith(".py"):
                with open(os.path.join(d, name), encoding="utf-8") as fh:
                    yield name, ast.parse(fh.read(), filename=name)


def test_values_are_never_assigned():
    found = []
    for name, tree in _sources():
        found += violations(tree, name)
    assert found == []


def test_the_immutability_check_catches_stores():
    bad = """
class LinTerm:
    def __init__(self, const):
        self.const = const
        self._hash = hash(const)
    def shift(self):
        self.const += 1
def f(t, g):
    t.coeffs = ()
    del g.args
    object.__setattr__(t, "_vars", ())
    setattr(g, "op", "<")
    for t.neg in (True, False):
        pass
"""
    found = violations(ast.parse(bad), "presburger.py")
    assert [x.split(" ", 1)[1] for x in found] == [
        "LinTerm.__init__ fills _hash",
        "LinTerm.shift sets const",
        "None.f sets coeffs",
        "None.f sets args",
        "None.f sets _vars",
        "None.f sets op",
        "None.f sets neg",
    ]
    good = """
class Cmp:
    def __init__(self, op, t):
        self.op = op
        self.t = t
        self._hash = None
    def __hash__(self):
        self._hash = 1
"""
    assert violations(ast.parse(good), "presburger.py") == []
    # records of the other modules, and their fields, are covered too
    bad = """
class Clause:
    def __init__(self, vars, head):
        self.vars = vars
        self.head = head
        self._hash = None
class Saturator:
    def __init__(self, p):
        self.problem = p
        self.dim = p.dim
def normalize(cl, p, theory):
    cl.is_limit = True
    p.goals = ()
    theory.dim = 2
class Theory:
    def widen(self):
        self.dim += 1
"""
    found = violations(ast.parse(bad), "syntax.py")
    assert [x.split(" ", 1)[1] for x in found] == [
        "Saturator.__init__ sets dim",
        "None.normalize sets is_limit",
        "None.normalize sets goals",
        "None.normalize sets dim",
        "Theory.widen sets dim",
    ]
    # an owner's name only counts in its own module
    assert [x.split(" ", 1)[1] for x in violations(ast.parse(
        "class Clause:\n    def __init__(self, v):\n        self.vars = v\n"),
        "entwined.py")] == ["Clause.__init__ sets vars"]


# ---------------------------------------------------------------------------
# one constructor


def test_the_generic_constructor_binds_by_position_and_name():
    a = S.Arrow(S.FIN, S.W)
    assert S.Arrow(S.FIN, res=S.W) == S.Arrow(res=S.W, arg=S.FIN) == a
    assert a._hash is None and S.Prop()._hash is None
    for args, kwargs in [((S.FIN,), {}), ((), {"res": S.W}),
                         ((S.FIN, S.W, S.W), {}), ((S.FIN,), {"arg": S.W}),
                         ((S.FIN,), {"rez": S.W})]:
        with pytest.raises(TypeError, match=r"^Arrow\(\) "):
            S.Arrow(*args, **kwargs)
    with pytest.raises(TypeError, match=r"^Prop\(\) "):
        S.Prop(S.W)


def copy_only_inits(tree: ast.AST) -> list[str]:
    """The classes whose __init__ only assigns each of its parameters, none
    with a default, to the field of the same name (and None to _hash)."""
    out = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for fn in cls.body:
            if not (isinstance(fn, ast.FunctionDef) and fn.name == "__init__"):
                continue
            a = fn.args
            params = [p.arg for p in a.args[1:]]
            if a.defaults or a.vararg or a.kwarg or a.kwonlyargs or \
                    a.posonlyargs:
                continue
            stored = []
            for st in fn.body:
                if isinstance(st, ast.Expr) and \
                        isinstance(st.value, ast.Constant):
                    continue  # a docstring
                if not (isinstance(st, ast.Assign) and len(st.targets) == 1
                        and isinstance(st.targets[0], ast.Attribute)
                        and isinstance(st.targets[0].value, ast.Name)
                        and st.targets[0].value.id == a.args[0].arg):
                    break
                attr, value = st.targets[0].attr, st.value
                if attr == "_hash" and isinstance(value, ast.Constant) and \
                        value.value is None:
                    continue
                if not (isinstance(value, ast.Name) and value.id == attr
                        and attr in params):
                    break
                stored.append(attr)
            else:
                if sorted(stored) == sorted(params):
                    out.append(cls.name)
    return out


def test_no_record_copies_its_fields_by_hand():
    # Record's constructor does that
    records = {(os.path.basename(sys.modules[c.__module__].__file__),
                c.__name__) for c in RECORDS}
    assert [(name, cls) for name, tree in _sources()
            for cls in copy_only_inits(tree) if (name, cls) in records] == []


def test_the_copy_only_check_catches_plain_inits():
    src = '''
class Copy:
    def __init__(self, a, b):
        """Fields."""
        self.b = b
        self.a = a
        self._hash = None
class Default:
    def __init__(self, a, b=None):
        self.a = a
        self.b = b
class Check:
    def __init__(self, a):
        if a < 0:
            raise ValueError(a)
        self.a = a
class Cache:
    def __init__(self, a):
        self.a = a
        self._vars = None
class Drop:
    def __init__(self, a, b):
        self.a = a
class Rename:
    def __init__(self, a):
        self.b = a
'''
    assert copy_only_inits(ast.parse(src)) == ["Copy"]
