"""Sort checking, type order, initiality classification, and whole-problem
validation.

A relational sort sigma1 -> ... -> sigmak -> o is *initial* when
  (O1) at most one argument is the numeric sort W,
  (O2) if argument j is W then every earlier argument's order is strictly
       below the order of the suffix starting at j, and
  (O3) every argument is S, W, or itself initial.
Initial sorts with a W argument are *active*, without one *inactive*.
"""

from __future__ import annotations

from .record import Record
from .syntax import (
    App, Arrow, Atom, BgAtom, Clause, FIN, Fin, PredRef, PROP,
    Problem, Prop, SConst, Sort, Var, W, WLit, WOp, WSort, arg_sorts,
    mk_arrow, w_position,
)


class TypeErrorLD(Exception):
    pass


def type_order(s: Sort) -> int:
    match s:
        case Prop() | Fin() | WSort():
            return 0
        case Arrow(a, b):
            return max(type_order(a) + 1, type_order(b))
    raise TypeError(s)


def is_relational(s: Sort) -> bool:
    """Arguments are base sorts or relational; result is o."""
    if s == PROP:
        return True
    if isinstance(s, Arrow):
        a_ok = s.arg in (FIN, W) or is_relational(s.arg)
        return a_ok and is_relational(s.res)
    return False


def _initiality_fault(s: Sort) -> str | None:
    """The first initiality condition s fails, worded for validate's
    report, or None when s is initial."""
    if not is_relational(s):
        return f"sort {s} is not relational"
    args = arg_sorts(s)
    w_idx = [i for i, a in enumerate(args) if a == W]
    if len(w_idx) > 1:
        return "more than one W argument (O1)"
    if w_idx:
        j = w_idx[0]
        bound = type_order(mk_arrow(args[j:], PROP))
        for i, a in enumerate(args[:j]):
            if type_order(a) >= bound:
                return (f"argument {i} has order >= order of the W suffix "
                        "(O2)")
    if any(a not in (FIN, W) and not is_initial(a) for a in args):
        return "non-initial argument (O3)"
    return None


def is_initial(s: Sort) -> bool:
    return _initiality_fault(s) is None


def classify(s: Sort) -> str:
    """'active' | 'inactive' | 'noninitial' for a relational sort."""
    if not is_initial(s):
        return "noninitial"
    return "active" if W in arg_sorts(s) else "inactive"


# ---------------------------------------------------------------------------
# term sort inference


def infer_sort(t, vmap: dict[str, Sort], decls: dict[str, Sort]) -> Sort:
    match t:
        case Var(n):
            if n not in vmap:
                raise TypeErrorLD(f"unbound variable {n!r}")
            return vmap[n]
        case PredRef(n):
            return decls[n]
        case SConst():
            return FIN
        case WLit() | WOp():
            return W
        case App(fn, a):
            fs = infer_sort(fn, vmap, decls)
            if not isinstance(fs, Arrow):
                raise TypeErrorLD(f"cannot apply term of sort {fs}")
            as_ = infer_sort(a, vmap, decls)
            if as_ != fs.arg:
                raise TypeErrorLD(f"argument sort {as_} does not match {fs.arg}")
            return fs.res
    raise TypeError(t)


def _check_numeric(t, vmap, decls, dim: int) -> str:
    """Return 'scalar' or 'tuple' for a numeric term; raise on mismatch."""
    match t:
        case Var(n):
            if vmap.get(n) != W:
                raise TypeErrorLD(f"variable {n!r} is not numeric")
            return "tuple"
        case WLit(vals):
            if len(vals) == 1:
                return "scalar" if dim > 1 else "tuple"
            if len(vals) != dim:
                raise TypeErrorLD(f"tuple literal of length {len(vals)}, expected {dim}")
            return "tuple"
        case WOp("comp", (a,), _):
            if _check_numeric(a, vmap, decls, dim) != "tuple":
                raise TypeErrorLD("comp applies to a tuple-valued term")
            return "scalar"
        case WOp("scale", (a,), _):
            return _check_numeric(a, vmap, decls, dim)
        case WOp("+" | "-", (a, b)):
            ka = _check_numeric(a, vmap, decls, dim)
            kb = _check_numeric(b, vmap, decls, dim)
            if ka != kb:
                # a bare integer literal may stand for either kind
                if isinstance(a, WLit) and len(a.vals) == 1:
                    return kb
                if isinstance(b, WLit) and len(b.vals) == 1:
                    return ka
                raise TypeErrorLD("mixed scalar/tuple arithmetic")
            return ka
    raise TypeErrorLD(f"not a numeric term: {t}")


# ---------------------------------------------------------------------------
# validation


class ValidationReport(Record):
    __slots__ = __match_args__ = ("mode", "max_order", "pred_info", "errors")
    __hash__ = None

    def __init__(self, mode: str, max_order: int = 0,
                 pred_info: dict[str, dict] | None = None,
                 errors: list[str] | None = None) -> None:
        self.mode = mode  # "FirstOrder" | "InitialHigherOrder" | "Rejected"
        self.max_order = max_order
        self.pred_info = {} if pred_info is None else pred_info
        self.errors = [] if errors is None else errors

    @property
    def ok(self) -> bool:
        return self.mode != "Rejected"

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "maxOrder": self.max_order,
            "predicates": self.pred_info,
            "errors": self.errors,
        }


def _check_clause_sorts(cl: Clause, decls: dict[str, Sort], dim: int,
                        errors: list[str]) -> None:
    vmap = dict(cl.vars)
    label = "goal" if cl.head is None else f"clause for {cl.head[0]}"

    def chk_atom(a: Atom) -> None:
        if isinstance(a, BgAtom):
            if a.rel == "eqs":
                for side in (a.lhs, a.rhs):
                    try:
                        s = infer_sort(side, vmap, decls)
                    except TypeErrorLD as e:
                        errors.append(f"{label}: {e}")
                        return
                    if s != FIN:
                        errors.append(f"{label}: eqs argument is not of sort S")
                return
            try:
                _check_numeric(a.lhs, vmap, decls, dim)
                _check_numeric(a.rhs, vmap, decls, dim)
            except TypeErrorLD as e:
                errors.append(f"{label}: {e}")
            return
        try:
            s = infer_sort(a.term, vmap, decls)
        except TypeErrorLD as e:
            errors.append(f"{label}: {e}")
            return
        if s != PROP:
            errors.append(f"{label}: foreground atom has sort {s}, not o")

    for a in cl.body_atoms():
        chk_atom(a)
    if cl.head is not None:
        # normalize_problem has checked the arity and made every head
        # argument a distinct bound variable
        for a, srt in zip(cl.head[1], arg_sorts(decls[cl.head[0]])):
            s = infer_sort(a, vmap, decls)
            if s != srt:
                errors.append(f"{label}: head argument sort {s}, expected {srt}")


def validate(p: Problem) -> ValidationReport:
    """The validation report of a normalized problem (normalize_problem)."""
    errors: list[str] = []
    decls = dict(p.decls)
    pred_info: dict[str, dict] = {}
    max_order = 0
    all_first_order = True
    for name, s in p.decls:
        order = type_order(s)
        cls = classify(s)
        pred_info[name] = {
            "sort": str(s), "order": order, "class": cls,
            "wPosition": w_position(s),
        }
        if cls == "noninitial":
            errors.append(f"predicate {name!r}: {_initiality_fault(s)}")
        max_order = max(max_order, order)
        if order > 1 or any(a not in (FIN, W) for a in arg_sorts(s)):
            all_first_order = False

    for cl in list(p.clauses) + list(p.goals):
        for n, s in cl.vars:
            if s not in (FIN, W) and not is_initial(s):
                errors.append(f"variable {n!r} has non-initial sort {s}")
        _check_clause_sorts(cl, decls, p.dim, errors)

    # variables must live in finite frames at the final stage
    for cl in list(p.clauses) + list(p.goals):
        for n, s in cl.vars:
            if s not in (FIN, W) and type_order(s) > max_order:
                errors.append(f"variable {n!r} has order above every predicate")

    if errors:
        return ValidationReport("Rejected", max_order, pred_info, errors)
    mode = "FirstOrder" if all_first_order else "InitialHigherOrder"
    return ValidationReport(mode, max_order, pred_info, [])
