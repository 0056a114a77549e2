"""Acceptance gate: one test per release criterion, each printing a single
PASS/FAIL line with its elapsed time.  Run with -s to see the lines live."""

import glob
import itertools
import json
import os
import time

import pytest

from limitdl import entwined as E
from limitdl.background import theory_for
from limitdl.driver import SolveConfig, solve, verify
from limitdl.frontends import LCMConfig, encode_lcm, lcm_from_json
from limitdl.resolution import BudgetExhausted, Refuted, Saturator, replay
from limitdl.syntax import mk_arrow, normalize_problem, parse_problem
from limitdl.typesys import is_initial, validate
from limitdl.syntax import FIN, PROP, W
from corpus import proof_sha256
from oracles import bounded_canonical_model, simulate_reachable

FIX = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def load(path):
    with open(path, encoding="utf-8") as fh:
        return normalize_problem(parse_problem(fh.read()))


def fx(*parts):
    return os.path.join(FIX, *parts)


def gate(n, desc, limit_s):
    """Context manager printing one PASS/FAIL line for a criterion."""
    class _Gate:
        def __enter__(self):
            self.t0 = time.monotonic()
            return self

        def __exit__(self, etype, exc, tb):
            dt = time.monotonic() - self.t0
            status = "PASS" if etype is None and dt < limit_s else "FAIL"
            print(f"criterion {n} [{status}] {desc} "
                  f"({dt:.1f}s, limit {limit_s:.0f}s)")
            if etype is None:
                assert dt < limit_s, f"criterion {n} exceeded {limit_s}s"
            return False
    return _Gate()


# shared across criteria 4/6/7 so the corpus is only solved once
_SOLVED: dict[str, str] = {}


def _solve_cached(path, problem=None):
    if path not in _SOLVED:
        p = problem if problem is not None else load(path)
        _SOLVED[path] = solve(p, SolveConfig()).kind
    return _SOLVED[path]


def _lcm_cases():
    with open(fx("lcm", "targets.json"), encoding="utf-8") as fh:
        targets = json.load(fh)
    for mname, tgts in sorted(targets.items()):
        with open(fx("lcm", f"{mname}.json"), encoding="utf-8") as fh:
            m = lcm_from_json(json.load(fh))
        for state, vals in tgts:
            yield mname, m, LCMConfig(state, tuple(vals))


# SHA-256 of integral255's proof trace (corpus.proof_sha256)
INTEGRAL255_PROOF_SHA256 = \
    "7afd721ca8c538c171a10a6ab1709c8a314943d156d398df221a18cc02840a30"


def test_criterion_1_flagship_unsat_and_sat():
    with gate(1, "threshold-255 refuted, threshold-256 modelled", 120):
        p255 = load(fx("integral255.lchc"))
        t0 = time.monotonic()
        v = solve(p255, SolveConfig())
        assert v.kind == "UNSAT"
        th = theory_for(p255.theory_kind, p255.dim, p255.direction)
        assert replay(v.trace, p255, th)
        assert v.stats["resolutionSteps"] == 1840
        assert proof_sha256(v.trace) == INTEGRAL255_PROOF_SHA256
        assert time.monotonic() - t0 < 60
        _SOLVED[fx("integral255.lchc")] = v.kind

        p256 = load(fx("integral256.lchc"))
        t0 = time.monotonic()
        v = solve(p256, SolveConfig(hint=fx("integral256.model.json")))
        assert v.kind == "SAT"
        ok, _ = verify(p256, E.serialize_model(v.model))
        assert ok
        assert time.monotonic() - t0 < 60
        _SOLVED[fx("integral256.lchc")] = v.kind


def test_criterion_2_initiality_gate():
    # outside the timed block: the module pulls in hypothesis and pytest
    import test_typesys
    with gate(2, "type verdicts and the additive-closure rejection", 1):
        a = lambda *s: mk_arrow(list(s[:-1]), s[-1])
        assert is_initial(a(FIN, W, PROP)) is True
        assert is_initial(a(a(W, PROP), W, FIN, a(W, PROP), PROP)) is True
        assert is_initial(a(W, W, PROP)) is False
        assert is_initial(a(a(W, PROP), W, PROP)) is False
        p = normalize_problem(parse_problem(test_typesys.ADD_TEXT))
        rep = validate(p)
        assert rep.mode == "Rejected"
        assert any("Add1" in e for e in rep.errors)


def test_criterion_3_frame_fixture():
    with gate(3, "stage-3 frame has exactly the three expected elements", 1):
        import test_entwined
        from limitdl.background import ALL, EMPTY, Antichain
        m, p, th = test_entwined.xyz_structure()
        fr = m.frame(test_entwined.XI)
        assert len(fr) == 3
        assert {v.descs[0] for v in fr} == {ALL, EMPTY, Antichain(((6,),))}
        from limitdl.syntax import Arrow
        mid = next(v for v in fr if v.descs == (Antichain(((6,),)),))
        top_wo = m.frame(Arrow(W, PROP))[0]
        assert m.apply(m.apply(mid, (5,)), top_wo) is False
        assert m.apply(m.apply(mid, (6,)), top_wo) is True


def test_criterion_4_first_order_differential_suite():
    with gate(4, "solver equals bounded oracle on the first-order suite",
              300):
        with open(fx("fo", "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        cases = [(fx("fo", f"{n}.lchc"), meta["window"], meta["expected"])
                 for n, meta in sorted(manifest.items())]
        cases += [(fx(f"mult{k}.lchc"), 8,
                   "SAT" if k < 6 else "UNSAT") for k in (5, 6, 7)]
        assert len(cases) >= 20
        for path, window, expected in cases:
            p = load(path)
            th = theory_for(p.theory_kind, p.dim, p.direction)
            bm = bounded_canonical_model(p, th, window=window)
            oracle = "UNSAT" if bm.goal_violated else "SAT"
            got = _solve_cached(path, p)
            assert got == oracle == expected, (path, got, oracle, expected)


def test_criterion_5_presburger_suite():
    with gate(5, "known sentences and sampled elimination agreement", 120):
        import test_presburger
        from limitdl.presburger import decide
        assert len(test_presburger.KNOWN) >= 30
        for f, truth in test_presburger.KNOWN:
            assert decide(f) == truth
        test_presburger.test_qe_sampling_equivalence()


def test_criterion_6_lcm_suite():
    with gate(6, "solver equals the lossy simulator on 12 machine targets",
              300):
        count = 0
        for mname, m, tgt in _lcm_cases():
            reach = simulate_reachable(m, tgt, cap=10)
            p = encode_lcm(m, tgt)
            key = f"lcm:{mname}:{tgt.state}:{tgt.values}"
            got = _solve_cached(key, p)
            assert got == ("UNSAT" if reach else "SAT"), (mname, tgt)
            if reach:  # lossy monotonicity of each reported reachable
                for low in itertools.product(
                        *(range(v + 1) for v in tgt.values)):
                    assert simulate_reachable(
                        m, LCMConfig(tgt.state, low), cap=10)
            count += 1
        assert count == 12


def _corpus():
    probs = [fx("integral255.lchc"), fx("integral256.lchc")]
    probs += sorted(glob.glob(fx("fo", "*.lchc")))
    probs += [fx(f"mult{k}.lchc") for k in (5, 6, 7)]
    out = [(path, load(path)) for path in probs]
    for mname, m, tgt in _lcm_cases():
        out.append((f"lcm:{mname}:{tgt.state}:{tgt.values}",
                    encode_lcm(m, tgt)))
    return out


def test_criterion_7_exclusion():
    with gate(7, "no problem yields both a refutation and a model", 600):
        corpus = _corpus()
        assert len(corpus) >= 40
        for key, p in corpus:
            th = theory_for(p.theory_kind, p.dim, p.direction)
            higher = validate(p).mode != "FirstOrder"
            r = Saturator(p, th).run(500 if higher else 3000)
            refuted = isinstance(r, Refuted)
            if refuted:
                assert replay(r.trace, p, th)
            modelled = False
            hint = fx("integral256.model.json") if "256" in key else None
            from limitdl.driver import _candidates, _hint_model
            seed = _hint_model(p, th, hint)
            stream = itertools.chain([] if seed is None else [seed],
                                     _candidates(p, th, not higher))
            for m in itertools.islice(stream, 3 if higher else 30):
                try:
                    if E.check_model(m, p):
                        modelled = True
                        break
                except E.FrameTooLarge:
                    pass
            assert not (refuted and modelled), key


def test_criterion_8_property_suites():
    with gate(8, "standalone property suites", 120):
        import test_background
        import test_entwined
        import test_resolution
        import test_syntax
        test_background.test_formula_agreement_1000_samples()
        test_background.test_canonicalize_idempotent_random()
        test_syntax.test_roundtrip_simple()
        test_syntax.test_roundtrip_higher_order()
        test_resolution.test_saturate_refutes_and_replays()
        test_resolution.test_trace_json_roundtrip()
        test_entwined.test_monotone_in_w_by_construction()
