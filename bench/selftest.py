"""Self-test of the benchmark's tracing.

Solves and certifies fo/nat_trade_sat, fo/nat_trade_unsat and mult6 under the
tracer, while an independent call census (sys.setprofile on the original
functions' code objects) records which layers really ran.  Every per-layer
metric whose layer ran must then read non-zero, so a binding site the
tracer missed, or a layer renamed or moved by a refactor, cannot silently
zero a metric.  Ratios may legitimately be zero and are not checked.
Each layer's span count must also equal its call count in the census.

Run:  python3 bench/selftest.py   (exit 1 and one line per failure if broken)
"""

from __future__ import annotations

import json
import sys

import tracer as T
import workload as W

SELFTEST_IDS = ("fo/nat_trade_sat", "fo/nat_trade_unsat", "mult6")


def _census_targets() -> dict:
    """code object -> span name, for every layer function that exists."""
    out = {}
    for modname, names in T.LAYERS.items():
        obj = sys.modules[modname]
        for qual in names:
            fn = obj
            for part in qual.split("."):
                fn = getattr(fn, part, None)
            code = getattr(fn, "__code__", None)
            if code is not None:
                out[code] = T.span_name(modname, qual)
    return out


def run(lib) -> list[str]:
    """Failures, one line each; empty when the tracing is sound."""
    with open(W.PROBLEMS, encoding="utf-8") as fh:
        entries = [e for e in json.load(fh)["problems"]
                   if e["id"] in SELFTEST_IDS]
    targets = _census_targets()
    callers = {c: n for c, n in targets.items()
               if n.rsplit(".", 1)[-1] in T.SAT_CALLERS}
    calls: dict[str, int] = {}

    def census(frame, event, _arg):
        if event != "call":
            return
        name = targets.get(frame.f_code)
        if name is None:
            return
        calls[name] = calls.get(name, 0) + 1
        if name == "presburger.sat_exists_all":
            split = ".other"
            f = frame.f_back
            while f is not None:
                if f.f_code in callers:
                    split = "." + callers[f.f_code].rsplit(".", 1)[-1]
                    break
                f = f.f_back
            calls[name + split] = calls.get(name + split, 0) + 1

    failures = []
    tr = T.Tracer()
    with tr:
        sys.setprofile(census)
        try:
            cases = W.load_cases(lib, entries, tr)
            result = W.run_pass(lib, cases, 1, tr)
        finally:
            sys.setprofile(None)
    failures += [f"missing layer {m}" for m in tr.missing]
    failures += [f"{r['id']}: verdict {r['verdict']}, certified "
                 f"{r['certified']}" for r in result["rows"] if not r["ok"]]
    traced: dict[str, int] = {}
    for s in tr.spans:
        traced[s[T.NAME]] = traced.get(s[T.NAME], 0) + 1
    for name in sorted(set(targets.values())):
        if calls.get(name, 0) != traced.get(name, 0):
            failures.append(f"{name} ran {calls.get(name, 0)} times, "
                            f"{traced.get(name, 0)} traced")
    metrics = T.layer_metrics(tr.spans)
    for name, (unit, _better, layer) in T.PER_LAYER.items():
        if layer is None or unit == "ratio" or layer not in calls:
            continue
        if not metrics.get(name):
            failures.append(f"{name} reads {metrics.get(name)} although "
                            f"{layer} ran")
    return failures


def main() -> int:
    failures = run(W.import_limitdl())
    for f in failures:
        print(f"selftest: {f}", file=sys.stderr)
    print("selftest:", "FAIL" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
