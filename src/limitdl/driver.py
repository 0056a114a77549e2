"""Top-level decision procedure: resolution (for UNSAT) and the model
candidate stream (for SAT) in turns of equal effort, counted in the
Presburger search nodes that their queries build (`presburger.nodes`).
`total_budget` counts resolution steps (the refutation rule is one) plus
models checked: the stats' `resolutionSteps` and `modelsChecked`."""

from __future__ import annotations

import math
from typing import Iterator

from . import entwined as E
from . import presburger as P
from .background import Theory, theory_for
from .record import Record
from .resolution import ProofTrace, Refuted, Saturator, replay
from .syntax import Problem, normalize_problem
from .typesys import ValidationReport, validate


class SolveConfig(Record):
    __slots__ = __match_args__ = ("resolution_slice", "total_budget", "hint")
    __hash__ = None

    def __init__(self, resolution_slice: int = 2000,
                 total_budget: int | None = None,
                 hint: str | None = None) -> None:
        if resolution_slice < 1:
            raise ValueError("the resolution slice must be at least 1")
        if total_budget is not None and total_budget < 1:
            raise ValueError("the total budget must be at least 1")
        self.resolution_slice = resolution_slice
        self.total_budget = total_budget
        self.hint = hint


class Verdict(Record):
    __slots__ = __match_args__ = ("kind", "model", "trace", "report", "stats")
    __hash__ = None

    def __init__(self, kind: str, model: E.EntwinedStructure | None = None,
                 trace: ProofTrace | None = None,
                 report: ValidationReport | None = None,
                 stats: dict | None = None) -> None:
        self.kind = kind  # SAT | UNSAT | UNKNOWN | INVALID
        self.model = model
        self.trace = trace
        self.report = report
        self.stats = {} if stats is None else stats


def _hint_model(p: Problem, theory: Theory,
                hint: str | None) -> E.EntwinedStructure | None:
    """The structure a hint file describes, or None when there is no hint
    or it does not load (a bad hint only costs the seed)."""
    if hint is None:
        return None
    try:
        return E.load_model(p, theory, hint)
    except (E.SchemaError, E.FrameInconsistency, E.FrameTooLarge, OSError):
        return None


def _candidates(p: Problem, theory: Theory,
                first_order: bool) -> Iterator[E.EntwinedStructure]:
    """Model-side candidate stream after the hint: (for first-order
    problems) the converged least model, then fair enumeration."""
    if first_order:
        try:
            m = E.fo_least_model(p, theory)
            if m is not None:
                yield m
        except (ValueError, E.FrameTooLarge):
            pass
    try:
        yield from E.enumerate_structures(p, theory)
    except E.FrameTooLarge:
        return


def _holds(m: E.EntwinedStructure, p: Problem) -> bool:
    try:
        return E.check_model(m, p)
    except E.FrameTooLarge:
        return False


def solve(p: Problem, cfg: SolveConfig | None = None) -> Verdict:
    cfg = cfg or SolveConfig()
    p = normalize_problem(p)
    report = validate(p)
    if not report.ok:
        return Verdict("INVALID", report=report)

    theory = theory_for(p.theory_kind, p.dim, p.direction)
    models_seen = 0
    # the hint costs one check, so it goes before the first resolution slice
    hint = _hint_model(p, theory, cfg.hint)
    if hint is not None:
        models_seen = 1
        if _holds(hint, p):
            return Verdict("SAT", model=hint, report=report,
                           stats={"resolutionSteps": 0, "modelsChecked": 1})
    sat = Saturator(p, theory)
    stream = _candidates(p, theory, report.mode == "FirstOrder")
    budget = cfg.total_budget or math.inf

    def verdict(kind: str, **kw) -> Verdict:
        return Verdict(kind, report=report, **kw, stats=dict(
            resolutionSteps=sat.steps_used, modelsChecked=models_seen))

    while True:
        share = math.inf  # with an empty frontier, models run alone
        if not sat.exhausted():
            # cut to the budget's rest; with none left, the turn below stops
            before = P.nodes
            r = sat.run(min(cfg.resolution_slice,
                            budget - sat.steps_used - models_seen))
            if isinstance(r, Refuted):
                replay(r.trace, p, theory)  # raises TraceError on a bad trace
                return verdict("UNSAT", trace=r.trace)
            share = P.nodes - before
        spent = 0  # nodes charged to the model turn, at least 1 a candidate
        while not spent or spent < share:
            if sat.steps_used + models_seen >= budget:
                return verdict("UNKNOWN")
            before = P.nodes
            m = next(stream, None)
            if m is None:
                if sat.exhausted():  # both searches ended without an answer
                    return verdict("UNKNOWN")
                break
            models_seen += 1
            if _holds(m, p):
                return verdict("SAT", model=m)
            spent += max(1, P.nodes - before)


def verify(p: Problem, witness: dict) -> tuple[bool, str]:
    """Check a serialized model against a problem; (ok, diagnostic)."""
    p = normalize_problem(p)
    report = validate(p)
    if not report.ok:
        return False, "problem rejected by validation: " + "; ".join(
            report.errors)
    theory = theory_for(p.theory_kind, p.dim, p.direction)
    try:
        m = E.deserialize_model(p, theory, witness)
        if not E.check_model(m, p):
            return False, "witness does not satisfy the clauses"
    except (E.SchemaError, E.FrameInconsistency, E.FrameTooLarge) as e:
        return False, f"{type(e).__name__}: {e}"
    return True, "ok"
