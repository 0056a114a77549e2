"""limitdl benchmark: time to a certified verdict.

    python3 bench/run.py --workload {hint256,corpus39} --seed N
                         --seconds S --trace {0,1}

Run from anywhere inside a checkout; the library is imported from the
checkout's src/.  Each run starts a workload process (bench/workload.py) with
PYTHONHASHSEED derived from the seed; the seed also permutes corpus39's
problem order.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, measured without tracing:
  solve_s      median over passes of the wall time of the pass's solve calls
  certify_s    median over passes of the time to re-check every answer,
               each re-check repeated as bench/workload.py's CERT_* say
  setup_s      median over SETUP_SAMPLES fresh processes, half started
               before the workload process and half after, of the time from
               process start to the first solve (import, read, parse,
               encode), after one discarded warm-up that writes .pyc files
  peak_rss_mb  peak resident memory of the workload process
The three times are scaled to a fixed host speed, measured by a probe that
runs beside the program (bench/hostclock.py), so that the phases in which a
shared host runs everything slower do not read as changes of the program;
the unscaled medians are printed on the line before the result.
--trace 1 runs the tracing self-test (bench/selftest.py), one untraced and
one traced pass, and reports the per-layer metrics of bench/tracer.py; the
spans go to .bench_out/.

A verdict that differs from bench/problems.json, a raised exception or a
failed certificate counts as failed; correct is true only with none.
Per-problem counts that must repeat exactly (resolution steps, candidates
and, when traced, Presburger sat/decide calls) are stored per source-tree
hash in .bench_out/ and any difference between runs of the same code is
reported on stderr and as bench.count_mismatches.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

from hostclock import NOMINAL_S, scale
from workload import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(ROOT, ".bench_out")
WORKLOAD = os.path.join(BENCH, "workload.py")

SETUP_SAMPLES = 8
# the whole run must end within 180 s; leave room to report
DEADLINE_S = 170.0


def tree_hash() -> str:
    """Hash of the library's sources: runs of one code share it."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for d, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(d, f)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def child(args: list[str], env: dict, deadline: float) -> str:
    """Run one workload process to completion and return its stdout."""
    r = subprocess.run([sys.executable, WORKLOAD] + args, env=env,
                       stdout=subprocess.PIPE, text=True,
                       timeout=max(1.0, deadline - time.monotonic()))
    if r.returncode != 0:
        raise RuntimeError(f"workload process exited with {r.returncode}")
    return r.stdout


def setup_samples(n: int, base: list[str], env: dict,
                  deadline: float) -> list[float]:
    """Seconds from process start to just before the first solve, without
    the probes and scaled by the host speed they measured."""
    samples = []
    for _ in range(n):
        t0 = time.monotonic_ns()
        out = child(base + ["--setup-only"], env, deadline).split()
        ready, probe_s, probe_mean_s = int(out[-3]), float(out[-2]), \
            float(out[-1])
        samples.append(scale((ready - t0) / 1e9 - probe_s, probe_mean_s, 1))
    return samples


def check_counts(workload: str, counts: dict) -> list[str]:
    """Compare this run's exact counts with earlier runs of the same code,
    then store the union."""
    path = os.path.join(OUT, f"counts-{workload}-{tree_hash()}.json")
    stored: dict = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            stored = json.load(fh)
    diffs = []
    for pid, cs in counts.items():
        have = stored.setdefault(pid, {})
        for k, v in cs.items():
            if k in have and have[k] != v:
                diffs.append(f"{pid} {k}: {have[k]} in an earlier run, {v} now")
            have.setdefault(k, v)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(stored, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return diffs


def print_rows(rows: list[dict]) -> None:
    print(f"{'problem':<24} {'expected':>8} {'verdict':>8} {'steps':>6} "
          f"{'solve_s':>9} {'certify_s':>9} certified")
    for r in sorted(rows, key=lambda r: r["id"]):
        cert = f"{r['certify_s']:.4f}" if r["certify_s"] is not None else "-"
        print(f"{r['id']:<24} {r['expected']:>8} {r['verdict']:>8} "
              f"{r['steps'] if r['steps'] is not None else '-':>6} "
              f"{r['solve_s']:>9.4f} {cert:>9} {r['certified']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "limitdl", "__init__.py")):
        print(f"bench: no limitdl sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    env = dict(os.environ, PYTHONHASHSEED=str(args.seed % 2**32))
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    report_path = os.path.join(OUT, f"report-{tag}.json")

    setup = []
    try:
        if args.trace == 0:
            child(base + ["--setup-only"], env, deadline)  # warm-up: .pyc
            # half the samples before the workload and half after, so they
            # meet different phases of the host's load
            setup += setup_samples(SETUP_SAMPLES // 2, base, env, deadline)
        child(base + ["--seconds", str(args.seconds),
                      "--trace", str(args.trace), "--report", report_path,
                      "--spans", os.path.join(OUT, f"spans-{tag}.jsonl")],
              env, deadline)
        if args.trace == 0:
            setup += setup_samples(SETUP_SAMPLES - SETUP_SAMPLES // 2, base,
                                   env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1
    with open(report_path, encoding="utf-8") as fh:
        rep = json.load(fh)

    diffs = rep["count_mismatches"] + check_counts(args.workload,
                                                   rep["counts"])
    for d in diffs:
        print(f"bench: count differs between runs: {d}", file=sys.stderr)
    print_rows(rep["rows"])

    if args.trace == 0:
        print(f"unscaled medians: solve {rep['solve_s']:.4f} s, certify "
              f"{rep['certify_s']:.4f} s; host speed: one probe took "
              f"{rep['probe_mean_s'] * 1e3:.3f} ms (nominal "
              f"{NOMINAL_S * 1e3:g} ms) over {len(rep['passes'])} passes")
        metrics = {
            "solve_s": (rep["solve_scaled_s"], "s"),
            "certify_s": (rep["certify_scaled_s"], "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (rep["peak_rss_mb"], "MB"),
        }
    else:
        from tracer import PER_LAYER
        pl = rep["per_layer"]
        pl["bench.failed_frac"] = rep["failed"] / rep["attempted"]
        pl["bench.count_mismatches"] = len(diffs)
        metrics = {k: (pl[k], unit) for k, (unit, _, _) in PER_LAYER.items()}
    print(json.dumps({
        "correct": rep["failed"] == 0,
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
