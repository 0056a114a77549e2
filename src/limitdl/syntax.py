"""Problem syntax: sorts, terms, clauses, the s-expression reader and
printer, and clause normalization.

Surface grammar (one form per top-level s-expression):

    (theory (lia))               (theory (nat <d>))
    (direction upward|downward)
    (finsort S (c1 c2 ...))
    (declare P <sort>)
    (clause ((x <sort>) ...) (head (P arg ...)) (body <formula>))
    (goal ((x <sort>) ...) (body <formula>))

Sorts: S, W, o, (-> s1 ... sn o).  Formulas: (and f ...), (or f ...),
background atoms (leq|lt|geq|gt|eq|neq t t) and (eqs a b), everything else
a foreground atom (P arg ...) or bare application.  Numeric terms: integer
literals, (tuple k ...), (+ t t), (- t t), (* k t), (comp x i).
"""

from __future__ import annotations

from typing import Callable, Iterator

from .record import Record


class SyntaxProblem(Exception):
    """Parse or well-formedness failure with source position."""

    def __init__(self, msg: str, line: int = 0, col: int = 0):
        super().__init__(f"{line}:{col}: {msg}" if line else msg)
        self.msg = msg
        self.line = line
        self.col = col


def _json_int(x: object) -> int:
    """x when it is a JSON integer, else a ValueError: also for a boolean,
    a float or a numeric string, which int() would accept."""
    if type(x) is not int:
        raise ValueError(f"{x!r} is not an integer")
    return x


# ---------------------------------------------------------------------------
# sorts


class Prop(Record):
    __slots__ = ()

    def __str__(self) -> str:
        return "o"


class Fin(Record):
    __slots__ = ()

    def __str__(self) -> str:
        return "S"


class WSort(Record):
    __slots__ = ()

    def __str__(self) -> str:
        return "W"


class Arrow(Record):
    __slots__ = __match_args__ = ("arg", "res")

    def __str__(self) -> str:
        parts = []
        s: Sort = self
        while isinstance(s, Arrow):
            parts.append(str(s.arg))
            s = s.res
        parts.append(str(s))
        return "(-> " + " ".join(parts) + ")"


Sort = Prop | Fin | WSort | Arrow

PROP = Prop()
FIN = Fin()
W = WSort()


def arg_sorts(s: Sort) -> list[Sort]:
    out = []
    while isinstance(s, Arrow):
        out.append(s.arg)
        s = s.res
    return out


def result_sort(s: Sort) -> Sort:
    while isinstance(s, Arrow):
        s = s.res
    return s


def mk_arrow(args: list[Sort], res: Sort) -> Sort:
    for a in reversed(args):
        res = Arrow(a, res)
    return res


# ---------------------------------------------------------------------------
# terms


class Var(Record):
    __slots__ = __match_args__ = ("name",)


class PredRef(Record):
    __slots__ = __match_args__ = ("name",)


class SConst(Record):
    __slots__ = __match_args__ = ("name",)


class WLit(Record):
    __slots__ = __match_args__ = ("vals",)


class WOp(Record):
    """Numeric operation: op in '+', '-', 'scale', 'comp'.

    'scale' multiplies args[0] by k; 'comp' selects 1-based component k of
    args[0]."""

    __slots__ = __match_args__ = ("op", "args", "k")

    def __init__(self, op: str, args: tuple["Term", ...],
                 k: int | None = None) -> None:
        self.op = op
        self.args = args
        self.k = k
        self._hash = None


class App(Record):
    __slots__ = __match_args__ = ("fn", "arg")


Term = Var | PredRef | SConst | WLit | WOp | App


def spine(t: Term) -> tuple[Term, list[Term]]:
    args: list[Term] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fn
    return t, list(reversed(args))


def mk_app(head: Term, args: list[Term]) -> Term:
    for a in args:
        head = App(head, a)
    return head


# ---------------------------------------------------------------------------
# atoms, formulas, clauses

BG_RELS = ("leq", "lt", "geq", "gt", "eq", "neq")


class BgAtom(Record):
    __slots__ = __match_args__ = ("rel", "lhs", "rhs")  # rel: BG_RELS or "eqs"


class FgAtom(Record):
    __slots__ = __match_args__ = ("term",)  # a spine headed by PredRef or Var

    @property
    def head(self) -> Term:
        return spine(self.term)[0]

    @property
    def args(self) -> list[Term]:
        return spine(self.term)[1]


Atom = BgAtom | FgAtom


class AndF(Record):
    __slots__ = __match_args__ = ("args",)


class OrF(Record):
    __slots__ = __match_args__ = ("args",)


BodyF = BgAtom | FgAtom | AndF | OrF


class Clause(Record):
    """Definite clause when head is set, goal clause when head is None.

    is_limit is set by normalize_problem; it follows from the clause's shape
    and the problem's direction, so like loc it takes no part in equality."""

    __slots__ = __match_args__ = ("vars", "head", "body", "is_limit", "loc")

    def __init__(self, vars: tuple[tuple[str, Sort], ...],
                 head: tuple[str, tuple[Term, ...]] | None, body: BodyF,
                 is_limit: bool = False,
                 loc: tuple[int, int] = (0, 0)) -> None:
        self.vars = vars
        self.head = head
        self.body = body
        self.is_limit = is_limit
        self.loc = loc
        self._hash = None

    def _key(self) -> tuple:
        return self.vars, self.head, self.body

    def body_atoms(self) -> list[Atom]:
        """Flat conjunction view; only valid on normalized clauses."""
        out: list[Atom] = []

        def walk(f: BodyF) -> None:
            if isinstance(f, AndF):
                for a in f.args:
                    walk(a)
            elif isinstance(f, OrF):
                raise ValueError("clause not normalized: disjunctive body")
            else:
                out.append(f)

        walk(self.body)
        return out


class Problem(Record):
    """theory_kind is "lia" or "nat", dim is 1 for lia, and direction is
    "upward" or "downward"."""

    __slots__ = __match_args__ = ("theory_kind", "dim", "direction",
                                  "fin_elems", "decls", "clauses", "goals")

    def decl(self, name: str) -> Sort:
        for n, s in self.decls:
            if n == name:
                return s
        raise KeyError(name)

    @property
    def decl_map(self) -> dict[str, Sort]:
        return dict(self.decls)


# ---------------------------------------------------------------------------
# s-expression reader


class SExpr(Record):
    __slots__ = __match_args__ = ("val", "line", "col")
    __hash__ = None  # val is a list that the reader fills

    def is_list(self) -> bool:
        return isinstance(self.val, list)


def _tokenize(text: str) -> Iterator[tuple[str, int, int]]:
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            i += 1
            col += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "()":
            yield ch, line, col
            i += 1
            col += 1
        else:
            j = i
            while j < n and text[j] not in " \t\r\n();":
                j += 1
            yield text[i:j], line, col
            col += j - i
            i = j


# deepest nesting of parentheses the reader accepts: every later stage
# (parser, normalizer, type checker, compiler, printer) recurses once or
# twice per level, and this keeps them all well inside Python's stack limit
MAX_DEPTH = 200


def read_sexprs(text: str) -> list[SExpr]:
    stack: list[SExpr] = []
    top: list[SExpr] = []
    for tok, line, col in _tokenize(text):
        if tok == "(":
            if len(stack) == MAX_DEPTH:
                raise SyntaxProblem(
                    f"nested deeper than {MAX_DEPTH} levels", line, col)
            node = SExpr([], line, col)
            (stack[-1].val if stack else top).append(node)  # type: ignore[union-attr]
            stack.append(node)
        elif tok == ")":
            if not stack:
                raise SyntaxProblem("unbalanced ')'", line, col)
            stack.pop()
        else:
            try:
                val: str | int = int(tok)
            except ValueError:
                val = tok
            (stack[-1].val if stack else top).append(SExpr(val, line, col))  # type: ignore[union-attr]
    if stack:
        raise SyntaxProblem("unbalanced '('", stack[-1].line, stack[-1].col)
    return top


# ---------------------------------------------------------------------------
# parser


def _parse_sort(e: SExpr) -> Sort:
    if not e.is_list():
        match e.val:
            case "S":
                return FIN
            case "W":
                return W
            case "o":
                return PROP
        raise SyntaxProblem(f"unknown sort {e.val!r}", e.line, e.col)
    items = e.val
    if not items or items[0].val != "->":
        raise SyntaxProblem("expected (-> ...) sort", e.line, e.col)
    if len(items) < 3:
        raise SyntaxProblem("arrow sort needs argument and result", e.line, e.col)
    sorts = [_parse_sort(x) for x in items[1:]]
    return mk_arrow(sorts[:-1], sorts[-1])


class _Ctx:
    def __init__(self, fin_elems: list[str], decls: dict[str, Sort], dim: int):
        self.fin = set(fin_elems)
        self.decls = decls
        self.dim = dim

    def parse_term(self, e: SExpr, vars_: dict[str, Sort]) -> Term:
        if not e.is_list():
            if isinstance(e.val, int):
                return WLit((e.val,))
            name = e.val
            if name in vars_:
                return Var(name)
            if name in self.fin:
                return SConst(name)
            if name in self.decls:
                return PredRef(name)
            raise SyntaxProblem(f"unknown identifier {name!r}", e.line, e.col)
        items = e.val
        if not items:
            raise SyntaxProblem("empty application", e.line, e.col)
        head = items[0]
        if not head.is_list():
            match head.val:
                case "tuple":
                    vals = []
                    for x in items[1:]:
                        if not isinstance(x.val, int):
                            raise SyntaxProblem("tuple entries must be integers", x.line, x.col)
                        vals.append(x.val)
                    return WLit(tuple(vals))
                case "+" | "-":
                    if len(items) != 3:
                        raise SyntaxProblem(f"({head.val} t t) takes two arguments", e.line, e.col)
                    return WOp(head.val, (self.parse_term(items[1], vars_),
                                          self.parse_term(items[2], vars_)))
                case "*":
                    if len(items) != 3 or not isinstance(items[1].val, int):
                        raise SyntaxProblem("(* k t) takes integer then term", e.line, e.col)
                    return WOp("scale", (self.parse_term(items[2], vars_),), k=items[1].val)
                case "comp":
                    if len(items) != 3 or not isinstance(items[2].val, int):
                        raise SyntaxProblem("(comp x i) takes term then index", e.line, e.col)
                    idx = items[2].val
                    if not 1 <= idx <= self.dim:
                        raise SyntaxProblem(f"component {idx} out of range 1..{self.dim}",
                                            items[2].line, items[2].col)
                    return WOp("comp", (self.parse_term(items[1], vars_),), k=idx)
        fn = self.parse_term(items[0], vars_)
        return mk_app(fn, [self.parse_term(x, vars_) for x in items[1:]])

    def parse_formula(self, e: SExpr, vars_: dict[str, Sort]) -> BodyF:
        if e.is_list() and e.val and not e.val[0].is_list():
            op = e.val[0].val
            if op == "and":
                return AndF(tuple(self.parse_formula(x, vars_) for x in e.val[1:]))
            if op == "or":
                return OrF(tuple(self.parse_formula(x, vars_) for x in e.val[1:]))
            if op in BG_RELS or op == "eqs":
                if len(e.val) != 3:
                    raise SyntaxProblem(f"({op} t t) takes two arguments", e.line, e.col)
                return BgAtom(op,  # type: ignore[arg-type]
                              self.parse_term(e.val[1], vars_),
                              self.parse_term(e.val[2], vars_))
        t = self.parse_term(e, vars_)
        h, _ = spine(t)
        if not isinstance(h, (PredRef, Var)):
            raise SyntaxProblem("foreground atom must be headed by a predicate or variable",
                                e.line, e.col)
        return FgAtom(t)


def _parse_binders(e: SExpr) -> tuple[tuple[str, Sort], ...]:
    if not e.is_list():
        raise SyntaxProblem("expected binder list", e.line, e.col)
    out = []
    seen = set()
    for b in e.val:
        if not b.is_list() or len(b.val) != 2 or b.val[0].is_list():
            raise SyntaxProblem("binder must be (name sort)", b.line, b.col)
        name = b.val[0].val
        if name in seen:
            raise SyntaxProblem(f"duplicate variable {name!r}", b.line, b.col)
        seen.add(name)
        out.append((str(name), _parse_sort(b.val[1])))
    return tuple(out)


def parse_problem(text: str) -> Problem:
    theory_kind = "lia"
    dim = 1
    direction = "upward"
    fin_elems: list[str] = []
    decls: dict[str, Sort] = {}
    clauses: list[Clause] = []
    goals: list[Clause] = []
    seen_theory = False

    for form in read_sexprs(text):
        if not form.is_list() or not form.val or form.val[0].is_list():
            raise SyntaxProblem("expected a top-level form", form.line, form.col)
        kw = form.val[0].val
        rest = form.val[1:]
        if kw == "theory":
            if len(rest) != 1 or not rest[0].is_list():
                raise SyntaxProblem("expected (theory (lia)) or (theory (nat d))",
                                    form.line, form.col)
            spec = rest[0].val
            if spec and spec[0].val == "lia" and len(spec) == 1:
                theory_kind, dim = "lia", 1
            elif len(spec) == 2 and spec[0].val == "nat" and isinstance(spec[1].val, int):
                if spec[1].val < 1:
                    raise SyntaxProblem("nat dimension must be positive",
                                        spec[1].line, spec[1].col)
                theory_kind, dim = "nat", spec[1].val
            else:
                raise SyntaxProblem("unknown theory", rest[0].line, rest[0].col)
            seen_theory = True
        elif kw == "direction":
            if len(rest) != 1 or rest[0].val not in ("upward", "downward"):
                raise SyntaxProblem("direction must be upward or downward",
                                    form.line, form.col)
            direction = str(rest[0].val)
        elif kw == "finsort":
            if len(rest) != 2 or rest[0].val != "S" or not rest[1].is_list():
                raise SyntaxProblem("expected (finsort S (c ...))", form.line, form.col)
            for x in rest[1].val:
                if x.is_list():
                    raise SyntaxProblem("constants must be identifiers", x.line, x.col)
                c = str(x.val)
                if c in fin_elems:
                    raise SyntaxProblem(f"duplicate constant {c!r}", x.line, x.col)
                fin_elems.append(c)
        elif kw == "declare":
            if len(rest) != 2 or rest[0].is_list():
                raise SyntaxProblem("expected (declare P sort)", form.line, form.col)
            name = str(rest[0].val)
            if name in decls:
                raise SyntaxProblem(f"duplicate declaration of {name!r}",
                                    rest[0].line, rest[0].col)
            s = _parse_sort(rest[1])
            if result_sort(s) != PROP:
                raise SyntaxProblem("predicate sorts must end in o", rest[1].line, rest[1].col)
            decls[name] = s
        elif kw in ("clause", "goal"):
            ctx = _Ctx(fin_elems, decls, dim)
            if kw == "clause":
                if len(rest) != 3:
                    raise SyntaxProblem("expected (clause binders (head ...) (body ...))",
                                        form.line, form.col)
                binders = _parse_binders(rest[0])
                vmap = dict(binders)
                he = rest[1]
                if not he.is_list() or len(he.val) != 2 or he.val[0].val != "head":
                    raise SyntaxProblem("expected (head (P args...))", he.line, he.col)
                happ = he.val[1]
                if not happ.is_list() or not happ.val or happ.val[0].is_list():
                    raise SyntaxProblem("head must be a predicate application",
                                        happ.line, happ.col)
                pname = str(happ.val[0].val)
                if pname not in decls:
                    raise SyntaxProblem(f"undeclared head predicate {pname!r}",
                                        happ.line, happ.col)
                hargs = tuple(ctx.parse_term(x, vmap) for x in happ.val[1:])
                be = rest[2]
                if not be.is_list() or len(be.val) != 2 or be.val[0].val != "body":
                    raise SyntaxProblem("expected (body formula)", be.line, be.col)
                body = ctx.parse_formula(be.val[1], vmap)
                clauses.append(Clause(binders, (pname, hargs), body,
                                      loc=(form.line, form.col)))
            else:
                if len(rest) != 2:
                    raise SyntaxProblem("expected (goal binders (body ...))",
                                        form.line, form.col)
                binders = _parse_binders(rest[0])
                vmap = dict(binders)
                be = rest[1]
                if not be.is_list() or len(be.val) != 2 or be.val[0].val != "body":
                    raise SyntaxProblem("expected (body formula)", be.line, be.col)
                body = ctx.parse_formula(be.val[1], vmap)
                goals.append(Clause(binders, None, body, loc=(form.line, form.col)))
        else:
            raise SyntaxProblem(f"unknown form {kw!r}", form.line, form.col)

    if not seen_theory:
        raise SyntaxProblem("missing (theory ...) form")
    return Problem(theory_kind, dim, direction, tuple(fin_elems),
                   tuple(decls.items()), tuple(clauses), tuple(goals))


# ---------------------------------------------------------------------------
# printer


def print_sort(s: Sort) -> str:
    return str(s)


def print_term(t: Term, name: Callable[[Term], str] | None = None) -> str:
    """A term's text; ``name``, when given, prints each variable, predicate
    and constant, left to right, in place of its own name."""
    match t:
        case Var(n) | PredRef(n) | SConst(n):
            return n if name is None else name(t)
        case WLit(vals):
            if len(vals) == 1:
                return str(vals[0])
            return "(tuple " + " ".join(map(str, vals)) + ")"
        case WOp("+" | "-" as op, (a, b)):
            return f"({op} {print_term(a, name)} {print_term(b, name)})"
        case WOp("scale", (a,), k):
            return f"(* {k} {print_term(a, name)})"
        case WOp("comp", (a,), k):
            return f"(comp {print_term(a, name)} {k})"
        case App():
            h, args = spine(t)
            return "(" + " ".join([print_term(x, name)
                                   for x in [h] + args]) + ")"
    raise TypeError(t)


def print_formula(f: BodyF, name: Callable[[Term], str] | None = None) -> str:
    match f:
        case BgAtom(rel, l, r):
            return f"({rel} {print_term(l, name)} {print_term(r, name)})"
        case FgAtom(t):
            return print_term(t, name)
        case AndF(args):
            return "(and " + " ".join(print_formula(a, name) for a in args) + ")"
        case OrF(args):
            return "(or " + " ".join(print_formula(a, name) for a in args) + ")"
    raise TypeError(f)


def print_clause(cl: Clause) -> str:
    binders = "(" + " ".join(f"({n} {print_sort(s)})" for n, s in cl.vars) + ")"
    body = f"(body {print_formula(cl.body)})"
    if cl.head is None:
        return f"(goal {binders} {body})"
    pname, hargs = cl.head
    happ = "(" + " ".join([pname] + [print_term(a) for a in hargs]) + ")"
    return f"(clause {binders} (head {happ}) {body})"


def print_problem(p: Problem) -> str:
    lines = []
    if p.theory_kind == "lia":
        lines.append("(theory (lia))")
    else:
        lines.append(f"(theory (nat {p.dim}))")
    lines.append(f"(direction {p.direction})")
    if p.fin_elems:
        lines.append("(finsort S (" + " ".join(p.fin_elems) + "))")
    for name, s in p.decls:
        lines.append(f"(declare {name} {print_sort(s)})")
    for cl in p.clauses:
        lines.append(print_clause(cl))
    for g in p.goals:
        lines.append(print_clause(g))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# normalization


def _fresh(base: str, used: set[str]) -> str:
    if base not in used:
        used.add(base)
        return base
    i = 0
    while f"{base}{i}" in used:
        i += 1
    used.add(f"{base}{i}")
    return f"{base}{i}"


def _dnf(f: BodyF) -> list[list[Atom]]:
    """Distribute the body into a list of conjunctions of atoms."""
    match f:
        case BgAtom() | FgAtom():
            return [[f]]
        case AndF(args):
            acc: list[list[Atom]] = [[]]
            for a in args:
                acc = [x + y for x in acc for y in _dnf(a)]
            return acc
        case OrF(args):
            out: list[list[Atom]] = []
            for a in args:
                out.extend(_dnf(a))
            return out
    raise TypeError(f)


def _hoist_atom(atom: Atom, used: set[str], newvars: list[tuple[str, Sort]],
                extra: list[Atom]) -> Atom:
    """Replace compound numeric arguments of foreground atoms by fresh
    variables constrained with equations."""
    if isinstance(atom, BgAtom):
        return atom
    head, args = spine(atom.term)
    changed = False
    new_args: list[Term] = []
    for a in args:
        if isinstance(a, WOp):
            name = _fresh("w", used)
            nv = Var(name)
            newvars.append((name, W))
            extra.append(BgAtom("eq", nv, a))
            new_args.append(nv)
            changed = True
        else:
            new_args.append(a)
    if not changed:
        return atom
    return FgAtom(mk_app(head, new_args))


def w_position(s: Sort) -> int | None:
    """The index of the first numeric argument of sort s, if any."""
    for i, a in enumerate(arg_sorts(s)):
        if a == W:
            return i
    return None


def _is_limit_clause(cl: Clause, decls: dict[str, Sort],
                     direction: str) -> bool:
    """Recognize: P z.. x z..' <= (leq between body/head W vars) and P z.. y z..'."""
    if cl.head is None:
        return False
    pname, hargs = cl.head
    wpos, nargs = w_position(decls[pname]), len(arg_sorts(decls[pname]))
    if wpos is None or len(hargs) != nargs or \
            not all(isinstance(a, Var) for a in hargs):
        return False
    if len({a.name for a in hargs}) != nargs:  # type: ignore[union-attr]
        return False
    try:
        atoms = cl.body_atoms()
    except ValueError:
        return False
    if len(atoms) != 2:
        return False
    bgs = [a for a in atoms if isinstance(a, BgAtom)]
    fgs = [a for a in atoms if isinstance(a, FgAtom)]
    if len(bgs) != 1 or len(fgs) != 1:
        return False
    bg, fg = bgs[0], fgs[0]
    h, fargs = spine(fg.term)
    if not (isinstance(h, PredRef) and h.name == pname and len(fargs) == nargs):
        return False
    x = hargs[wpos]
    y = fargs[wpos]
    if not isinstance(y, Var) or y.name == x.name:  # type: ignore[union-attr]
        return False
    for i in range(nargs):
        if i != wpos and fargs[i] != hargs[i]:
            return False
    lo, hi = (y, x) if direction == "upward" else (x, y)
    return bg == BgAtom("leq", lo, hi)


def make_limit_clause(p: Problem, pname: str) -> Clause:
    s = dict(p.decls)[pname]
    sorts = arg_sorts(s)
    wpos = w_position(s)
    names = [f"z{i}" for i in range(len(sorts))]
    names[wpos] = "x"
    yname = "y"
    binders = tuple((n, srt) for n, srt in zip(names, sorts)) + ((yname, W),)
    hargs = tuple(Var(n) for n in names)
    fargs = [Var(n) for n in names]
    fargs[wpos] = Var(yname)
    lo, hi = (Var(yname), Var(names[wpos])) if p.direction == "upward" \
        else (Var(names[wpos]), Var(yname))
    body = AndF((BgAtom("leq", lo, hi), FgAtom(mk_app(PredRef(pname), fargs))))
    return Clause(binders, (pname, hargs), body, is_limit=True)


def normalize_problem(p: Problem) -> Problem:
    """Split disjunctive bodies, make head arguments distinct variables,
    hoist compound numeric arguments of foreground atoms, insert missing
    limit clauses, and drop the clauses and goals that bind an S variable
    when S is empty (they hold vacuously)."""
    decls = dict(p.decls)
    new_clauses: list[Clause] = []
    new_goals: list[Clause] = []

    def used_of(vars_: tuple[tuple[str, Sort], ...]) -> set[str]:
        return {n for n, _ in vars_}

    def norm_one(cl: Clause) -> list[Clause]:
        out = []
        for conj_atoms in _dnf(cl.body):
            vars_ = list(cl.vars)
            used = used_of(cl.vars)
            extra: list[Atom] = []
            newvars: list[tuple[str, Sort]] = []
            atoms = [_hoist_atom(a, used, newvars, extra) for a in conj_atoms]
            head = cl.head
            if head is not None:
                pname, hargs = head
                hsorts = arg_sorts(decls[pname])
                if len(hargs) != len(hsorts):
                    raise SyntaxProblem(
                        f"head of {pname!r} applied to {len(hargs)} of "
                        f"{len(hsorts)} arguments", *cl.loc)
                fixed: list[Term] = []
                seen_names: set[str] = set()
                for a, srt in zip(hargs, hsorts):
                    if isinstance(a, Var) and a.name not in seen_names:
                        seen_names.add(a.name)
                        fixed.append(a)
                        continue
                    name = _fresh("h", used)
                    newvars.append((name, srt))
                    nv = Var(name)
                    if srt == FIN:
                        extra.append(BgAtom("eqs", nv, a))
                    elif srt == W:
                        extra.append(BgAtom("eq", nv, a))
                    else:
                        raise SyntaxProblem(
                            "higher-order head argument must be a variable", *cl.loc)
                    seen_names.add(name)
                    fixed.append(nv)
                head = (pname, tuple(fixed))
            body = AndF(tuple(atoms + extra))
            if len(body.args) == 1:
                body2: BodyF = body.args[0]
            else:
                body2 = body
            out.append(Clause(tuple(vars_ + newvars), head, body2,
                              is_limit=cl.is_limit, loc=cl.loc))
        return out

    for cl in p.clauses:
        new_clauses.extend(norm_one(cl))
    for g in p.goals:
        new_goals.extend(norm_one(g))

    # mark detected limit clauses so downstream search can weight them, and
    # add one for each numeric predicate that has none
    marked = []
    limited = set()
    for cl in new_clauses:
        if _is_limit_clause(cl, decls, p.direction):
            limited.add(cl.head[0])
            if not cl.is_limit:
                cl = Clause(cl.vars, cl.head, cl.body, True, cl.loc)
        marked.append(cl)
    limit_additions = [make_limit_clause(p, name) for name, s in p.decls
                       if w_position(s) is not None and name not in limited]

    def live(cls) -> tuple[Clause, ...]:
        return tuple(c for c in cls
                     if p.fin_elems or all(s != FIN for _, s in c.vars))

    return Problem(p.theory_kind, p.dim, p.direction, p.fin_elems, p.decls,
                   live(marked + limit_additions), live(new_goals))
