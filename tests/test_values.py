"""Value semantics of the Presburger terms and formulas.

`LinTerm`, `Cmp`, `Div`, `Not`, `And` and `Or` are slotted classes that
cache their hash (and `LinTerm.vars`) in slots on first use.  The caches
are only sound if no value changes after construction, which nothing
checks at run time; `test_values_are_never_assigned` checks the source
instead.  The other tests pin what the frozen dataclasses these classes
replaced gave: equality by class and fields, hashing, `match` patterns,
`repr` and `str`.
"""

import ast
import os
import pickle

import pytest

from limitdl import presburger as P
from limitdl.presburger import And, Cmp, Div, LinTerm, Not, Or

ROOT = os.path.join(os.path.dirname(__file__), "..")
SOURCES = [os.path.join(ROOT, "src", "limitdl"), os.path.dirname(__file__)]

SLOTTED = (LinTerm, Cmp, Div, Not, And, Or)


def _slots(cls) -> set[str]:
    return {n for k in cls.__mro__ for n in getattr(k, "__slots__", ())}


FIELDS = {n for cls in SLOTTED for n in cls.__match_args__}
# cache slot -> the one accessor that fills it
CACHES = {"_hash": "__hash__", "_vars": "vars"}
# every class that declares slots of a value type, with its slots
OWNERS = {k.__name__: _slots(k)
          for cls in SLOTTED for k in cls.__mro__[:-1]}


def _t():
    return LinTerm(3, (("x", 2), ("y", -1)))


# two constructions of each type: equal values, distinct objects
CONSTRUCTIONS = [
    lambda: _t(),
    lambda: Cmp("<=", _t()),
    lambda: Div(4, _t(), True),
    lambda: Not(Cmp("=", _t())),
    lambda: And((Cmp("<", _t()), Div(2, LinTerm(0, (("z", 1),))))),
    lambda: Or((Cmp("<", _t()), Not(Cmp("!=", LinTerm(5))))),
]


def test_slot_names_are_fields_or_registered_caches():
    assert {n for s in OWNERS.values() for n in s} == FIELDS | set(CACHES)


@pytest.mark.parametrize("build", CONSTRUCTIONS)
def test_equal_values_hash_equal_and_share_keys(build):
    a, b = build(), build()
    assert a is not b
    assert a == b and not (a != b)
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert {a: 1}[b] == 1
    assert list(dict.fromkeys([a, b])) == [a]
    c = pickle.loads(pickle.dumps(a))
    assert c == a and hash(c) == hash(a)


def test_values_of_different_types_differ():
    x = (Cmp("<", _t()),)
    assert And(x) != Or(x)
    assert len({And(x), Or(x)}) == 2
    assert LinTerm(0) != 0 and Cmp("<", _t()) != ("<", _t())
    assert Cmp("<", _t()) != Cmp("<=", _t())
    assert Div(4, _t()) != Div(4, _t(), True)
    assert LinTerm(3) != LinTerm(3, (("x", 1),))


def test_hash_is_the_hash_of_the_fields():
    # as the dataclasses hashed, so set orders do not move
    t = _t()
    assert hash(t) == hash((3, (("x", 2), ("y", -1))))
    assert hash(Cmp("<", t)) == hash(("<", t))
    assert hash(Div(4, t)) == hash((4, t, False))
    assert hash(Not(t)) == hash((t,))
    assert hash(And((t,))) == hash(((t,),)) == hash(Or((t,)))


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
    assert str(t) == "2*x - y + 3"
    assert str(And((Cmp("<", t), Div(4, t, True)))) == \
        "(and (2*x - y + 3 < 0) (4 ∤ 2*x - y + 3))"
    assert str(Or((Not(Cmp("=", LinTerm(0))),))) == "(or (not (0 = 0)))"


# ---------------------------------------------------------------------------
# immutability, checked on the source


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
    """Stores to a field or cache slot of a slotted value type, except a
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
            own = module == "presburger.py" and attr in OWNERS.get(cls, ())
            if not own or fn not in ("__init__", CACHES.get(attr)):
                out.append(f"{module}:{node.lineno} {cls}.{fn} sets {attr}")
        if isinstance(node, ast.Assign) and module == "presburger.py" and \
                fn == "__init__" and cls in OWNERS:
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
