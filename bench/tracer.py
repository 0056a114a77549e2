"""Span tracing of limitdl's layers from outside the library.

`Tracer.install` replaces each function named in LAYERS by a wrapper that
records a span (name, parent span, problem id, start, end, note) and puts the
original back on `uninstall`.  The wrapper is bound at every site that holds
the original object: modules that did `from .x import f` keep their own
reference, so patching only the defining module would miss those calls.

`layer_metrics` turns the spans of one traced pass into the per-layer
metrics listed in PER_LAYER.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time

# Layer boundaries, by defining module.  "Class.method" wraps a method.
LAYERS = {
    "limitdl.syntax": ["parse_problem", "normalize_problem"],
    "limitdl.typesys": ["validate"],
    "limitdl.frontends": ["encode_lcm"],
    "limitdl.driver": ["solve", "verify"],
    "limitdl.resolution": ["Saturator.__init__", "Saturator.run",
                           "canonical_goal", "try_refute", "bg_unsat",
                           "replay"],
    "limitdl.background": ["bg_state", "bg_extend", "exists_sat"],
    "limitdl.presburger": ["sat_exists_all", "reduce_conj", "decide",
                           "eliminate"],
    "limitdl.entwined": ["load_model", "deserialize_model",
                         "serialize_model", "fo_least_model",
                         "enumerate_structures", "check_model",
                         "check_clause", "EntwinedStructure.frame"],
}

# Callers by which the Presburger satisfiability calls are split; a call is
# charged to its nearest enclosing span among these, else to "other".
SAT_CALLERS = ("bg_extend", "check_clause", "fo_least_model")
SAT_SPLITS = ("",) + tuple("." + c for c in SAT_CALLERS) + (".other",)


def span_name(module: str, qualname: str) -> str:
    return module.split(".")[-1] + "." + qualname


# name -> (unit, better, span whose presence means the layer ran).  The
# self-test requires every non-ratio metric to be non-zero where its span
# ran; "bench." metrics describe the harness, not a layer.
PER_LAYER: dict[str, tuple[str, str, str | None]] = {
    "syntax.parse_s": ("s", "lower", "syntax.parse_problem"),
    "frontends.encode_s": ("s", "lower", "frontends.encode_lcm"),
    "syntax.normalize_s": ("s", "lower", "syntax.normalize_problem"),
    "typesys.validate_s": ("s", "lower", "typesys.validate"),
    "resolution.steps": ("count", "lower", "resolution.Saturator.run"),
    "resolution.run_self_s": ("s", "lower", "resolution.Saturator.run"),
    "resolution.canonical_goal_calls": ("count", "lower",
                                        "resolution.canonical_goal"),
    "resolution.canonical_goal_s": ("s", "lower",
                                    "resolution.canonical_goal"),
    "resolution.fresh_ratio": ("ratio", "higher", "resolution.Saturator.run"),
    "resolution.replay_s": ("s", "lower", "resolution.replay"),
    "background.extend_calls": ("count", "lower", "background.bg_extend"),
    "background.extend_self_s": ("s", "lower", "background.bg_extend"),
    "background.extend_pruned_ratio": ("ratio", "higher",
                                       "background.bg_extend"),
    "background.witness_reuse_ratio": ("ratio", "higher",
                                       "background.bg_extend"),
    "background.exists_sat_calls": ("count", "lower", "background.exists_sat"),
    "background.exists_sat_s": ("s", "lower", "background.exists_sat"),
}
for _split in SAT_SPLITS:
    _ran = "presburger.sat_exists_all" + _split
    PER_LAYER["presburger.sat_calls" + _split] = ("count", "lower", _ran)
    PER_LAYER["presburger.sat_s" + _split] = ("s", "lower", _ran)
    PER_LAYER["presburger.sat_p50_ms" + _split] = ("ms", "lower", _ran)
    PER_LAYER["presburger.sat_max_ms" + _split] = ("ms", "lower", _ran)
PER_LAYER.update({
    "presburger.reduce_calls": ("count", "lower", "presburger.reduce_conj"),
    "presburger.reduce_s": ("s", "lower", "presburger.reduce_conj"),
    "presburger.decide_calls": ("count", "lower", "presburger.decide"),
    "presburger.decide_s": ("s", "lower", "presburger.decide"),
    "presburger.decide_max_ms": ("ms", "lower", "presburger.decide"),
    "entwined.least_model_s": ("s", "lower", "entwined.fo_least_model"),
    "entwined.candidates": ("count", "lower", "entwined.check_model"),
    "entwined.check_clause_calls": ("count", "lower", "entwined.check_clause"),
    "entwined.check_clause_s": ("s", "lower", "entwined.check_clause"),
    "entwined.frame_s": ("s", "lower", "entwined.EntwinedStructure.frame"),
    "entwined.load_model_s": ("s", "lower", "entwined.load_model"),
    "driver.steps_before_first_check": ("count", "lower",
                                        "entwined.check_model"),
    "driver.slices": ("count", "lower", "resolution.Saturator.run"),
    "driver.solve_self_s": ("s", "lower", None),
    "driver.unattributed_frac": ("ratio", "lower", None),
    "bench.trace_overhead_s": ("s", "lower", None),
    "bench.failed_frac": ("ratio", "lower", None),
    "bench.count_mismatches": ("count", "lower", None),
    "bench.missing_layers": ("count", "lower", None),
    "bench.selftest_failures": ("count", "lower", None),
})

NAME, PARENT, PROBLEM, T0, T1, NOTE = range(6)


class Tracer:
    """Collects spans in memory while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.problem: str | None = None
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, self.stack[-1] if self.stack else -1, self.problem,
               time.perf_counter(), 0.0, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[T1] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                # one span per resumption: the generator's body runs only
                # while its consumer asks for the next item
                it = fn(*args, **kwargs)
                while True:
                    rec = self._open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(rec)
                    yield item
            return traced_gen

        if name == "resolution.Saturator.run":
            @functools.wraps(fn)
            def traced_run(sat, *args, **kwargs):
                rec = self._open(name)
                before = sat.steps_used
                try:
                    return fn(sat, *args, **kwargs)
                finally:
                    rec[NOTE] = sat.steps_used - before
                    self._close(rec)
            return traced_run

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
                if name == "background.bg_extend":
                    rec[NOTE] = out is None  # pruned
                return out
            finally:
                self._close(rec)
        return traced

    def install(self) -> None:
        """Wrap every layer function at every binding site in limitdl."""
        mods = [m for n, m in sorted(sys.modules.items())
                if n == "limitdl" or n.startswith("limitdl.")]
        for modname, names in LAYERS.items():
            mod = sys.modules.get(modname)
            for qual in names:
                owner_name, _, attr = qual.rpartition(".")
                owner = getattr(mod, owner_name, None) if owner_name else mod
                orig = owner.__dict__.get(attr) if owner is not None else None
                if orig is None:
                    self.missing.append(span_name(modname, qual))
                    continue
                w = self._wrap(span_name(modname, qual), orig)
                if owner_name:
                    self._set(owner, attr, w, orig)
                    continue
                for m in mods:
                    for k, v in list(vars(m).items()):
                        if v is orig:
                            self._set(m, k, w, orig)

    def _set(self, owner, attr: str, new, old) -> None:
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


# ---------------------------------------------------------------------------
# analysis


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


class SpanIndex:
    def __init__(self, spans: list[list]):
        self.spans = spans
        self.children: list[list[int]] = [[] for _ in spans]
        for i, s in enumerate(spans):
            if s[PARENT] >= 0:
                self.children[s[PARENT]].append(i)

    def dur(self, i: int) -> float:
        return self.spans[i][T1] - self.spans[i][T0]

    def self_time(self, i: int) -> float:
        s = self.spans[i]
        kids = [(max(self.spans[c][T0], s[T0]), min(self.spans[c][T1], s[T1]))
                for c in self.children[i]]
        return self.dur(i) - _covered(kids)

    def ancestors(self, i: int):
        p = self.spans[i][PARENT]
        while p >= 0:
            yield p
            p = self.spans[p][PARENT]

    def named(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[NAME] == name]

    def inclusive(self, name: str) -> float:
        """Time under spans of this name, not counting recursion twice."""
        return sum(self.dur(i) for i in self.named(name)
                   if all(self.spans[a][NAME] != name
                          for a in self.ancestors(i)))

    def sat_caller(self, i: int) -> str:
        for a in self.ancestors(i):
            short = self.spans[a][NAME].rsplit(".", 1)[-1]
            if short in SAT_CALLERS:
                return "." + short
        return ".other"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (names as in PER_LAYER, minus
    the bench.* ones, which the harness fills)."""
    ix = SpanIndex(spans)
    sp = spans
    out: dict[str, float] = {}
    out["syntax.parse_s"] = ix.inclusive("syntax.parse_problem")
    out["frontends.encode_s"] = ix.inclusive("frontends.encode_lcm")
    out["syntax.normalize_s"] = ix.inclusive("syntax.normalize_problem")
    out["typesys.validate_s"] = ix.inclusive("typesys.validate")

    runs = ix.named("resolution.Saturator.run")
    steps = sum(sp[i][NOTE] for i in runs)
    out["resolution.steps"] = steps
    out["resolution.run_self_s"] = sum(ix.self_time(i) for i in runs)
    cg = ix.named("resolution.canonical_goal")
    out["resolution.canonical_goal_calls"] = len(cg)
    out["resolution.canonical_goal_s"] = ix.inclusive(
        "resolution.canonical_goal")
    # a child goal that survives deduplication is the only one whose
    # background part the search then checks
    fresh = sum(1 for i in runs for c in ix.children[i]
                if sp[c][NAME] in ("background.bg_extend",
                                   "resolution.bg_unsat"))
    out["resolution.fresh_ratio"] = _ratio(fresh, steps)
    out["resolution.replay_s"] = ix.inclusive("resolution.replay")

    ext = ix.named("background.bg_extend")
    out["background.extend_calls"] = len(ext)
    out["background.extend_self_s"] = sum(ix.self_time(i) for i in ext)
    out["background.extend_pruned_ratio"] = _ratio(
        sum(1 for i in ext if sp[i][NOTE]), len(ext))
    reused = sum(1 for i in ext
                 if not any(sp[c][NAME] == "presburger.sat_exists_all"
                            for c in ix.children[i]))
    out["background.witness_reuse_ratio"] = _ratio(reused, len(ext))
    out["background.exists_sat_calls"] = len(ix.named("background.exists_sat"))
    out["background.exists_sat_s"] = ix.inclusive("background.exists_sat")

    by_split: dict[str, list[float]] = {s: [] for s in SAT_SPLITS}
    for i in ix.named("presburger.sat_exists_all"):
        d = ix.dur(i)
        by_split[""].append(d)
        by_split[ix.sat_caller(i)].append(d)
    for split, ds in by_split.items():
        out["presburger.sat_calls" + split] = len(ds)
        out["presburger.sat_s" + split] = sum(ds)
        out["presburger.sat_p50_ms" + split] = \
            statistics.median(ds) * 1e3 if ds else 0.0
        out["presburger.sat_max_ms" + split] = max(ds) * 1e3 if ds else 0.0

    out["presburger.reduce_calls"] = len(ix.named("presburger.reduce_conj"))
    out["presburger.reduce_s"] = ix.inclusive("presburger.reduce_conj")
    dec = ix.named("presburger.decide")
    out["presburger.decide_calls"] = len(dec)
    out["presburger.decide_s"] = ix.inclusive("presburger.decide")
    out["presburger.decide_max_ms"] = \
        max((ix.dur(i) for i in dec), default=0.0) * 1e3

    solves = ix.named("driver.solve")
    out["entwined.least_model_s"] = ix.inclusive("entwined.fo_least_model")
    out["entwined.candidates"] = sum(
        1 for i in solves for c in ix.children[i]
        if sp[c][NAME] == "entwined.check_model")
    out["entwined.check_clause_calls"] = len(ix.named("entwined.check_clause"))
    out["entwined.check_clause_s"] = ix.inclusive("entwined.check_clause")
    out["entwined.frame_s"] = ix.inclusive("entwined.EntwinedStructure.frame")
    out["entwined.load_model_s"] = ix.inclusive("entwined.load_model")

    before_check = 0
    slices = 0
    for i in solves:
        kids = ix.children[i]
        slices += sum(1 for c in kids
                      if sp[c][NAME] == "resolution.Saturator.run")
        first = next((c for c in kids
                      if sp[c][NAME] == "entwined.check_model"), None)
        if first is not None:
            before_check += sum(sp[c][NOTE] for c in kids if c < first
                                and sp[c][NAME] == "resolution.Saturator.run")
    out["driver.steps_before_first_check"] = before_check
    out["driver.slices"] = slices
    solve_s = sum(ix.dur(i) for i in solves)
    self_s = sum(ix.self_time(i) for i in solves)
    out["driver.solve_self_s"] = self_s
    out["driver.unattributed_frac"] = _ratio(self_s, solve_s)
    return out


def problem_counts(spans: list[list]) -> dict[str, dict[str, int]]:
    """Exact counts per problem id over all spans tagged with it."""
    out: dict[str, dict[str, int]] = {}
    for s in spans:
        if s[PROBLEM] is None:
            continue
        c = out.setdefault(s[PROBLEM], {"presburger.sat_calls": 0,
                                        "presburger.decide_calls": 0})
        if s[NAME] == "presburger.sat_exists_all":
            c["presburger.sat_calls"] += 1
        elif s[NAME] == "presburger.decide":
            c["presburger.decide_calls"] += 1
    return out
