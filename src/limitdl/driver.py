"""Top-level decision procedure: interleave the refutation search with model
enumeration and checking, re-verifying whichever side succeeds first."""

from __future__ import annotations

from typing import Iterator

from . import entwined as E
from .background import Theory, theory_for
from .record import Record
from .resolution import (BudgetExhausted, ProofTrace, Refuted, Saturator,
                         replay)
from .syntax import Problem, normalize_problem
from .typesys import ValidationReport, validate


class SolveConfig(Record):
    __slots__ = __match_args__ = ("resolution_slice", "model_slice",
                                  "total_budget", "hint")
    __hash__ = None

    def __init__(self, resolution_slice: int = 2000, model_slice: int = 50,
                 total_budget: int | None = None,
                 hint: str | None = None) -> None:
        if resolution_slice < 1 or model_slice < 1:
            raise ValueError("slices must be at least 1")
        if total_budget is not None and total_budget < 1:
            raise ValueError("the total budget must be at least 1")
        self.resolution_slice = resolution_slice
        self.model_slice = model_slice
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
    except (E.SchemaError, E.FrameInconsistency, OSError):
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
    spent = 0
    # the hint costs one check, so it goes before the first resolution slice
    hint = _hint_model(p, theory, cfg.hint)
    if hint is not None:
        models_seen = spent = 1
        if _holds(hint, p):
            return Verdict("SAT", model=hint, report=report,
                           stats={"resolutionSteps": 0, "modelsChecked": 1})
    sat = Saturator(p, theory)
    stream = _candidates(p, theory, report.mode == "FirstOrder")
    stream_done = False

    while True:
        if cfg.total_budget is not None and spent >= cfg.total_budget:
            return Verdict("UNKNOWN", report=report,
                           stats={"resolutionSteps": sat.steps_used,
                                  "modelsChecked": models_seen})
        # resolution slice
        r = sat.run(cfg.resolution_slice)
        spent += cfg.resolution_slice
        if isinstance(r, Refuted):
            replay(r.trace, p, theory)  # raises TraceError on a bad trace
            return Verdict("UNSAT", trace=r.trace, report=report,
                           stats={"resolutionSteps": r.steps_used,
                                  "modelsChecked": models_seen})
        # model slice
        for _ in range(cfg.model_slice):
            m = next(stream, None)
            if m is None:
                stream_done = True
                break
            models_seen += 1
            spent += 1
            if _holds(m, p):
                return Verdict("SAT", model=m, report=report,
                               stats={"resolutionSteps": sat.steps_used,
                                      "modelsChecked": models_seen})
        if stream_done and isinstance(r, BudgetExhausted) and \
                sat.exhausted():
            # both searches exhausted without an answer
            return Verdict("UNKNOWN", report=report,
                           stats={"resolutionSteps": sat.steps_used,
                                  "modelsChecked": models_seen})


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
    except (E.SchemaError, E.FrameInconsistency) as e:
        return False, f"{type(e).__name__}: {e}"
    if not E.check_model(m, p):
        return False, "witness does not satisfy the clauses"
    return True, "ok"
