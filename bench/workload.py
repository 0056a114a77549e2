"""Workload process of the limitdl benchmark.

One client in one process solves one problem at a time through the public
`driver.solve` (a closed loop), then re-checks every answer with an
independent certificate:

- SAT: `driver.verify` on the JSON round-trip of `entwined.serialize_model`;
- UNSAT: `resolution.replay` on `ProofTrace.from_json` of the JSON
  round-trip of the trace.

`bench/run.py` starts this process with PYTHONHASHSEED set from the seed and
reads the report it writes; run that instead of this file.  With
`--setup-only` the process stops just before its first `solve` and prints
the monotonic clock, the probe time within set-up and the mean probe time
(bench/hostclock.py), so the parent can time set-up from process start.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

from hostclock import HostClock, scale

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PROBLEMS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "problems.json")

# hint256: the only higher-order SAT (integral256 with its witness): 2,000
#   resolution steps through bg_extend, then a few huge check_clause queries
#   to the same conjunction solver.
# corpus39: every other problem once; first-order least models, Cooper QE,
#   the non-incremental background path and per-problem front-end work.
# integral255, the longest refutation, is in no workload: its one ~25 s solve
# per run cannot be repeated within a run, so on a shared host its time
# spreads beyond any usable bound; hint256 exercises the same layers.
HINT256 = "integral256"
NOT_IN_CORPUS = ("integral255", "integral256")
WORKLOADS = ("hint256", "corpus39")
CORPUS_SIZE = 39

# Re-checks of each answer: at least CERT_MIN_REPS, and more while they have
# taken less than the answer's share of CERT_BUDGET_S per pass.  A shared
# host's speed changes by up to 2x in phases of seconds to minutes, so the
# mean of the repeats is reported (a median would pick one phase's speed).
CERT_MIN_REPS = 2
CERT_MAX_REPS = 200
CERT_BUDGET_S = 2.0
# probes after set-up, in each --setup-only process
SETUP_PROBES = 8


def import_limitdl():
    """Import the library from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    import limitdl
    from limitdl import (background, driver, entwined, frontends,
                         resolution, syntax)
    if not os.path.abspath(limitdl.__file__).startswith(SRC + os.sep):
        raise ImportError(f"limitdl imported from {limitdl.__file__}, "
                          f"not from {SRC}")
    return Lib(background, driver, entwined, frontends, resolution, syntax)


@dataclass
class Lib:
    background: object
    driver: object
    entwined: object
    frontends: object
    resolution: object
    syntax: object


@dataclass
class Case:
    pid: str
    expected: str
    problem: object
    hint: str | None


def workload_entries(workload: str, seed: int) -> list[dict]:
    with open(PROBLEMS, encoding="utf-8") as fh:
        entries = json.load(fh)["problems"]
    if workload == "hint256":
        return [e for e in entries if e["id"] == HINT256]
    rest = [e for e in entries if e["id"] not in NOT_IN_CORPUS]
    if len(rest) != CORPUS_SIZE:
        raise ValueError(f"corpus39 has {len(rest)} problems")
    random.Random(seed).shuffle(rest)
    return rest


def load_cases(lib: Lib, entries: list[dict], tracer=None) -> list[Case]:
    """Read, parse and encode every problem: the work of set-up."""
    cases = []
    for e in entries:
        if tracer is not None:
            tracer.problem = e["id"]
        if "file" in e:
            with open(os.path.join(ROOT, e["file"]), encoding="utf-8") as fh:
                p = lib.syntax.parse_problem(fh.read())
        else:
            with open(os.path.join(ROOT, e["machine"]), encoding="utf-8") as fh:
                m = lib.frontends.lcm_from_json(json.load(fh))
            p = lib.frontends.encode_lcm(
                m, lib.frontends.LCMConfig(e["state"], tuple(e["values"])))
        hint = os.path.join(ROOT, e["hint"]) if "hint" in e else None
        cases.append(Case(e["id"], e["expected"], p, hint))
    if tracer is not None:
        tracer.problem = None
    return cases


def certify(lib: Lib, case: Case, v) -> bool:
    """Re-check a verdict from its serialized certificate, outside solve."""
    if v.kind == "SAT":
        witness = json.loads(json.dumps(lib.entwined.serialize_model(v.model)))
        ok, _ = lib.driver.verify(case.problem, witness)
        return ok
    if v.kind == "UNSAT":
        trace = lib.resolution.ProofTrace.from_json(
            json.loads(json.dumps(v.trace.to_json())))
        p = lib.syntax.normalize_problem(case.problem)
        th = lib.background.theory_for(p.theory_kind, p.dim, p.direction)
        try:
            return lib.resolution.replay(trace, p, th) is True
        except lib.resolution.TraceError:
            return False
    return False


def run_pass(lib: Lib, cases: list[Case], cert_reps: int | None,
             tracer=None, clock: HostClock | None = None) -> dict:
    """Solve every case once and re-check each answer right after its solve,
    so that solve and re-check times sample the same stretches of a shared
    host.  cert_reps=None repeats each re-check as CERT_MIN_REPS and
    CERT_BUDGET_S say; certify_s sums the mean re-check time per answer.
    With a running clock, probe time is left out of every timed span, and
    solve_s and certify_s are also given scaled by the host speed the probes
    measured during the solves and during the re-checks respectively
    (bench/hostclock.py), as solve_scaled_s and certify_scaled_s."""
    clock = clock or HostClock()  # one that is not entered never probes
    rows = []
    solve_s = certify_s = 0.0
    # probe time and probes that fell within the solves and the re-checks
    solve_probe, cert_probe = [0.0, 0], [0.0, 0]
    budget = CERT_BUDGET_S / len(cases)
    start = clock.mark()
    for c in cases:
        if tracer is not None:
            tracer.problem = c.pid
        cfg = lib.driver.SolveConfig(hint=c.hint)
        gc.collect()
        t0 = clock.mark()
        try:
            v = lib.driver.solve(c.problem, cfg)
            err = None
        except Exception as e:  # a raising solve is a failed problem
            traceback.print_exc()
            v, err = None, f"{type(e).__name__}: {e}"
        dt, ps, n = clock.since(t0)
        solve_s += dt
        solve_probe[0] += ps
        solve_probe[1] += n
        row = {"id": c.pid, "expected": c.expected,
               "verdict": v.kind if v else "RAISED",
               "steps": v.stats.get("resolutionSteps") if v else None,
               "candidates": v.stats.get("modelsChecked") if v else None,
               "solve_s": dt, "certify_s": None, "certified": False,
               "error": err}
        rows.append(row)
        if v is None:
            continue

        reps: list[float] = []
        certified = True  # every re-check must pass
        gc.collect()
        t_start = time.perf_counter()
        while True:
            t0 = clock.mark()
            try:
                ok = certify(lib, c, v)
            except Exception as e:  # a raising check is a failed certificate
                traceback.print_exc()
                ok, row["error"] = False, f"{type(e).__name__}: {e}"
            dt, ps, n = clock.since(t0)
            reps.append(dt)
            cert_probe[0] += ps
            cert_probe[1] += n
            certified = certified and ok
            n = len(reps)
            if cert_reps is not None:
                if n >= cert_reps:
                    break
            elif n >= CERT_MAX_REPS or (
                    n >= CERT_MIN_REPS
                    and time.perf_counter() - t_start >= budget):
                break
        row["certify_s"] = statistics.fmean(reps)
        row["certified"] = certified
        certify_s += row["certify_s"]
    if tracer is not None:
        tracer.problem = None
    for row in rows:
        row["ok"] = row["verdict"] == row["expected"] and row["certified"]
    out = {"solve_s": solve_s, "certify_s": certify_s, "rows": rows}
    _, probe_s, probes = clock.since(start)
    if probes:
        # re-checks too short for a probe fall back on the whole pass's
        out.update(
            solve_scaled_s=scale(solve_s, *(solve_probe if solve_probe[1]
                                            else (probe_s, probes))),
            certify_scaled_s=scale(certify_s, *(cert_probe if cert_probe[1]
                                                else (probe_s, probes))),
            probe_mean_s=probe_s / probes, probes=probes)
    return out


def exact_counts(passes: list[dict]) -> tuple[dict, list[str]]:
    """Per-problem counts of the first pass, and every later disagreement."""
    counts: dict[str, dict] = {}
    mismatches = []
    for ps in passes:
        for row in ps["rows"]:
            got = {"resolution.steps": row["steps"],
                   "entwined.candidates": row["candidates"]}
            got.update(ps.get("counts", {}).get(row["id"], {}))
            have = counts.setdefault(row["id"], {})
            for k, val in got.items():
                if k in have and have[k] != val:
                    mismatches.append(f"{row['id']} {k}: {have[k]} then {val}")
                have.setdefault(k, val)
    return counts, mismatches


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--report", help="where to write the JSON report")
    ap.add_argument("--spans", help="where to write the spans (traced run)")
    args = ap.parse_args(argv)

    if args.setup_only:
        # set-up ends just before the first solve; the probes after it make
        # sure even a set-up shorter than one probe interval can be scaled
        with HostClock() as clock:
            lib = import_limitdl()
            load_cases(lib, workload_entries(args.workload, args.seed))
            ready = time.monotonic_ns()
        in_setup = clock.probe_s
        for _ in range(SETUP_PROBES):
            clock.run_probe()
        print(ready, in_setup, clock.probe_s / clock.probes, flush=True)
        return 0

    lib = import_limitdl()
    entries = workload_entries(args.workload, args.seed)
    cases = load_cases(lib, entries)

    report: dict = {"attempted": 0, "failed": 0}
    passes = []
    if args.trace == 0:
        # closed loop: whole passes while another one still fits
        t0 = time.perf_counter()
        with HostClock() as clock:
            while True:
                t_pass = time.perf_counter()
                passes.append(run_pass(lib, cases, None, clock=clock))
                took = time.perf_counter() - t_pass
                if time.perf_counter() - t0 + took > args.seconds:
                    break
        for k in ("solve_s", "certify_s", "solve_scaled_s",
                  "certify_scaled_s", "probe_mean_s"):
            report[k] = statistics.median(p[k] for p in passes)
    else:
        import selftest
        from tracer import Tracer, layer_metrics, problem_counts
        untraced = run_pass(lib, cases, 1)
        selftest_failures = selftest.run(lib)
        tracer = Tracer()
        with tracer:
            traced_cases = load_cases(lib, entries, tracer)
            traced = run_pass(lib, traced_cases, 1, tracer)
        traced["counts"] = problem_counts(tracer.spans)
        passes = [untraced, traced]
        metrics = layer_metrics(tracer.spans)
        metrics["bench.trace_overhead_s"] = \
            traced["solve_s"] - untraced["solve_s"]
        metrics["bench.missing_layers"] = len(tracer.missing)
        metrics["bench.selftest_failures"] = len(selftest_failures)
        for msg in tracer.missing + selftest_failures:
            print(f"trace: {msg}", file=sys.stderr)
        report["per_layer"] = metrics
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                for s in tracer.spans:
                    fh.write(json.dumps(s) + "\n")

    for ps in passes:
        report["attempted"] += len(ps["rows"])
        report["failed"] += sum(1 for r in ps["rows"] if not r["ok"])
    report["counts"], report["count_mismatches"] = exact_counts(passes)
    report["passes"] = [{k: v for k, v in p.items()
                         if k not in ("rows", "counts")} for p in passes]
    report["rows"] = passes[-1]["rows"]
    report["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
