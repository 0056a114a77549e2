"""The benchmark's contract with the library.

bench/tracer.py wraps the functions named in its LAYERS table, and
bench/workload.py counts an UNSAT answer as certified only when `replay`
returns exactly True.  A rename or a change of protocol would otherwise
show only in a traced benchmark run."""

import importlib
import importlib.util
import inspect
import json
import os

from limitdl import resolution
from limitdl.background import theory_for
from limitdl.driver import solve
from limitdl.resolution import ProofTrace, Refuted, replay, saturate
from limitdl.syntax import normalize_problem, parse_problem

ROOT = os.path.join(os.path.dirname(__file__), "..")


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", os.path.join(ROOT, "bench", "tracer.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_layer_exists():
    layers = load_tracer().LAYERS
    assert layers
    for modname, names in layers.items():
        mod = importlib.import_module(modname)
        for qual in names:
            owner_name, _, attr = qual.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            fn = owner.__dict__.get(attr)
            assert inspect.isfunction(fn), (modname, qual)
            assert fn.__module__ == modname, (modname, qual)


def load_threshold_unsat():
    path = os.path.join(ROOT, "fixtures", "fo", "lia_threshold_unsat.lchc")
    with open(path, encoding="utf-8") as fh:
        return normalize_problem(parse_problem(fh.read()))


def test_every_child_goal_is_keyed_by_the_traced_name(monkeypatch):
    """The resolution.canonical_goal_* layer metrics time the seen-set key
    only while the search calls it, by that name, for every child goal."""
    p = load_threshold_unsat()
    calls = []
    orig = resolution.canonical_goal

    def counted(g):
        calls.append(g)
        return orig(g)

    monkeypatch.setattr(resolution, "canonical_goal", counted)
    r = saturate(p, theory_for(p.theory_kind, p.dim, p.direction), 100)
    assert isinstance(r, Refuted)
    assert len(calls) >= r.steps_used


def test_replay_returns_true_on_a_good_trace():
    p = load_threshold_unsat()
    v = solve(p)
    assert v.kind == "UNSAT"
    trace = ProofTrace.from_json(json.loads(json.dumps(v.trace.to_json())))
    th = theory_for(p.theory_kind, p.dim, p.direction)
    assert replay(trace, p, th) is True
