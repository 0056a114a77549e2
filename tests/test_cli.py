"""Command-line interface contract: exit codes, flags, output streams."""

import json
import os

import pytest

from limitdl import driver
from limitdl.cli import main
from limitdl.resolution import TraceError

FIX = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fx(*parts):
    return os.path.join(FIX, *parts)


def test_typecheck_ok(capsys):
    assert main(["typecheck", fx("integral255.lchc")]) == 0
    assert "InitialHigherOrder" in capsys.readouterr().out


def test_typecheck_json(capsys):
    assert main(["typecheck", fx("integral255.lchc"), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["mode"] == "InitialHigherOrder"


def test_solve_unsat_exit_code(capsys, tmp_path):
    proof = tmp_path / "proof.json"
    rc = main(["solve", fx("fo", "lia_threshold_unsat.lchc"),
               "--emit-proof", str(proof)])
    assert rc == 20
    assert "UNSAT" in capsys.readouterr().out
    assert json.loads(proof.read_text())  # non-empty replayable trace


def test_solve_failed_replay_exit_code(capsys, monkeypatch):
    def bad_replay(trace, problem, theory):
        raise TraceError("replayed goal differs from recorded goal")

    monkeypatch.setattr(driver, "replay", bad_replay)
    rc = main(["solve", fx("fo", "lia_threshold_unsat.lchc")])
    assert rc == 3
    out, err = capsys.readouterr()
    assert "UNSAT" not in out
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert "replayed goal differs" in err


def test_solve_sat_exit_code(capsys, tmp_path):
    model = tmp_path / "model.json"
    rc = main(["solve", fx("fo", "lia_threshold_sat.lchc"),
               "--emit-model", str(model), "--json"])
    assert rc == 10
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "SAT"
    assert json.loads(model.read_text())["predicates"]["R"]["kind"] == "active"


def test_solve_unknown_exit_code(capsys):
    rc = main(["solve", fx("integral256.lchc"), "--total-budget", "10",
               "--budget-resolution", "5", "--budget-models", "1"])
    assert rc == 30


def test_solve_invalid_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.lchc"
    bad.write_text("""(theory (lia))
(declare R (-> W W o))
(clause ((x W) (y W)) (head (R x y)) (body (geq x y)))
(goal () (body (R 0 0)))
""")
    assert main(["solve", str(bad)]) == 2
    assert capsys.readouterr().err  # diagnostics on stderr


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.lchc"
    bad.write_text("(theory (lia)")
    assert main(["solve", str(bad)]) == 1
    assert capsys.readouterr().err


def test_missing_file_exit_code(capsys):
    assert main(["solve", "nonexistent.lchc"]) == 1


def test_verify_model(capsys):
    assert main(["verify-model", fx("integral256.lchc"),
                 fx("integral256.model.json")]) == 0
    assert "true" in capsys.readouterr().out
    assert main(["verify-model", fx("integral255.lchc"),
                 fx("integral256.model.json")]) == 2


# one propositional, one inactive and one active predicate
ROWS_TEXT = """(theory (lia))
(direction upward)
(finsort S (a))
(declare G o)
(declare Q (-> S o))
(declare R (-> S W o))
(clause ((s S) (x W)) (head (R s x)) (body (geq x 3)))
(goal () (body (R a 0)))
"""
ATLEAST3 = {"kind": "atleast", "k": 3}
ROWS = {"G": {"args": [], "value": False},
        "Q": {"args": [{"s": "a"}], "value": False},
        "R": {"pre": [{"s": "a"}], "post": [], "upset": ATLEAST3}}


@pytest.mark.parametrize("pred,row,error", [
    ("G", 5, "SchemaError"),
    ("R", {"pre": 5, "post": [], "upset": ATLEAST3}, "SchemaError"),
    ("Q", {"args": 5, "value": False}, "SchemaError"),
    ("R", {"pre": [{"app": 5}], "post": [], "upset": ATLEAST3},
     "SchemaError"),
    # R is not yet interpreted when its own rows are read
    ("R", {"pre": [{"app": ["R"]}], "post": [], "upset": ATLEAST3},
     "FrameInconsistency"),
    # a truth value must be a JSON boolean, not merely truthy
    ("G", {"args": [], "value": "false"}, "SchemaError"),
    ("Q", {"args": [{"s": "a"}], "value": {}}, "SchemaError"),
    ("Q", {"args": [{"s": "a"}], "value": 1}, "SchemaError"),
    # a finite sort has no top element
    ("Q", {"args": [{"top": "S"}], "value": False}, "FrameInconsistency"),
    # arguments past the sort's arity are not dropped unread
    ("Q", {"args": [{"s": "a"}, {"s": "a"}, {"top": "S"}], "value": False},
     "FrameInconsistency"),
    ("R", {"pre": [{"s": "a"}, {"s": "zzz"}], "post": [{"s": "a"}],
           "upset": ATLEAST3}, "FrameInconsistency"),
    # an active row splits at the numeric slot
    ("R", {"pre": [], "post": [{"s": "a"}], "upset": ATLEAST3},
     "FrameInconsistency"),
])
def test_verify_model_malformed_row(capsys, tmp_path, pred, row, error):
    prob = tmp_path / "p.lchc"
    prob.write_text(ROWS_TEXT)
    wit = tmp_path / "m.json"

    def verify_rows(rows):
        wit.write_text(json.dumps({"predicates": {
            n: {"kind": "active" if n == "R" else "inactive", "rows": [r]}
            for n, r in rows.items()}}))
        return main(["verify-model", str(prob), str(wit)])

    assert verify_rows(ROWS) == 0
    capsys.readouterr()
    assert verify_rows(dict(ROWS, **{pred: row})) == 2
    err = capsys.readouterr().err
    assert error in err and len(err.strip().splitlines()) == 1


# F reads the truth of Q at x + 1, a numeric argument nested under a
# boolean one: the model checker compiles it to a term and splits on it
NESTED_TEXT = """(theory (nat 1))
(direction upward)
(declare Q (-> W o))
(declare F (-> o o))
(clause ((x W)) (head (Q x)) (body (geq x 5)))
(clause ((b o)) (head (F b)) (body b))
(goal ((x W)) (body (and (F (Q (+ x 1))) (leq x {k}))))
"""


def test_nested_numeric_argument(capsys, tmp_path):
    prob = tmp_path / "p.lchc"
    model = tmp_path / "m.json"
    prob.write_text(NESTED_TEXT.format(k=2))
    assert main(["solve", str(prob), "--emit-model", str(model)]) == 10
    assert main(["verify-model", str(prob), str(model)]) == 0
    prob.write_text(NESTED_TEXT.format(k=4))
    capsys.readouterr()
    assert main(["solve", str(prob), "--json"]) == 20
    out = json.loads(capsys.readouterr().out)
    assert out["stats"]["resolutionSteps"] == 4


def test_solve_skips_hint_with_top_at_finite_sort(capsys, tmp_path):
    prob = tmp_path / "p.lchc"
    prob.write_text(ROWS_TEXT)
    hint = tmp_path / "m.json"
    hint.write_text(json.dumps({"predicates": {
        "G": {"kind": "inactive", "rows": [ROWS["G"]]},
        "Q": {"kind": "inactive",
              "rows": [{"args": [{"top": "S"}], "value": False}]},
        "R": {"kind": "active", "rows": [ROWS["R"]]}}}))
    assert main(["solve", str(prob), "--hint", str(hint)]) == 10
    assert capsys.readouterr().err == ""


# a finite constant passed where P expects a numeric point
CONST_AT_W_TEXT = """(theory (nat 1))
(finsort S (c))
(declare P (-> W o))
(declare Q (-> (-> W o) o))
(clause ((x W)) (head (P x)) (body (geq x 3)))
(goal () (body (and (P 0) (Q P))))
"""
CONST_AT_W = {"predicates": {
    "P": {"kind": "active",
          "rows": [{"pre": [], "post": [],
                    "upset": {"kind": "antichain", "min": [[3]]}}]},
    "Q": {"kind": "inactive",
          "rows": [{"args": [{"top": "(-> W o)"}], "value": False},
                   {"args": [{"app": ["P", {"s": "c"}]}], "value": True}]}}}


def test_constant_at_numeric_sort_is_a_schema_error(capsys, tmp_path):
    prob = tmp_path / "p.lchc"
    prob.write_text(CONST_AT_W_TEXT)
    wit = tmp_path / "m.json"
    wit.write_text(json.dumps(CONST_AT_W))
    assert main(["verify-model", str(prob), str(wit)]) == 2
    err = capsys.readouterr().err
    assert "SchemaError" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    # the same witness as a hint is skipped, not a crash
    assert main(["solve", str(prob), "--hint", str(wit)]) == 10
    assert capsys.readouterr().err == ""


NAT_UP = fx("fo", "nat_up_sat.lchc")
MODEL = "<model>"


@pytest.mark.parametrize("argv", [
    ["solve", NAT_UP, "--budget-resolution", "0"],
    ["solve", NAT_UP, "--budget-models", "0"],
    ["eval", NAT_UP, MODEL, "(R (tuple 1 2) 3)"],  # ill-typed
    ["eval", NAT_UP, MODEL, "(R (tuple -1 0))"],  # outside the domain
    ["solve", NAT_UP, "--total-budget", "0"],
    ["solve", NAT_UP, "--total-budget", "-5"],
], ids=["budget-resolution", "budget-models", "eval-ill-typed",
        "eval-outside-domain", "total-budget-zero", "total-budget-negative"])
def test_bad_argument_is_one_line(capsys, tmp_path, argv):
    model = tmp_path / "m.json"
    assert main(["solve", NAT_UP, "--emit-model", str(model)]) == 10
    capsys.readouterr()
    assert main([str(model) if a == MODEL else a for a in argv]) == 1
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


BAD = "<not-utf8>"


@pytest.mark.parametrize("argv,rc", [
    (["solve", BAD], 1),
    (["solve", fx("fo", "lia_threshold_sat.lchc"), "--hint", BAD], 10),
    (["typecheck", BAD], 1),
    (["verify-model", fx("integral256.lchc"), BAD], 2),
    (["verify-model", BAD, fx("integral256.model.json")], 1),
    (["eval", fx("integral256.lchc"), BAD, "(Exp (tuple 0 100))"], 1),
    (["encode-lcm", BAD, "--target", "q,1"], 1),
], ids=["solve", "solve-hint", "typecheck", "verify-model",
        "verify-model-problem", "eval", "encode-lcm"])
def test_non_utf8_input(capsys, tmp_path, argv, rc):
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff\xfe(theory (lia))\n")
    assert main([str(bad) if a == BAD else a for a in argv]) == rc
    err = capsys.readouterr().err
    if rc == 10:  # an unreadable hint is skipped like any other bad hint
        assert err == ""
    else:
        assert "UTF-8" in err or "utf-8" in err
        assert len(err.strip().splitlines()) == 1


DEEP = 1000
# a problem whose goal body nests DEEP levels deep, in three ways
DEEP_PROBLEMS = {
    "term": "(goal ((x W)) (body (Q " + "(+ x " * DEEP + "x" + ")" * DEEP
            + ")))",
    "formula": "(goal ((x W)) (body " + "(and (Q x) " * DEEP + "(Q x)"
               + ")" * DEEP + "))",
    "parens": "(goal ((x W)) (body " + "(" * DEEP + "Q x" + ")" * DEEP
              + "))",
}
WITNESS = "<witness>"


@pytest.mark.parametrize("kind", sorted(DEEP_PROBLEMS))
@pytest.mark.parametrize("cmd", ["solve", "typecheck"])
def test_deeply_nested_problem_is_a_syntax_problem(capsys, tmp_path, kind,
                                                   cmd):
    prob = tmp_path / "p.lchc"
    prob.write_text("(theory (nat 1))\n(declare Q (-> W o))\n"
                    + DEEP_PROBLEMS[kind] + "\n")
    assert main([cmd, str(prob)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("SyntaxProblem: 3:") and "nested deeper" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv,rc", [
    (["verify-model", fx("integral256.lchc"), WITNESS], 2),
    (["eval", fx("integral256.lchc"), WITNESS, "(Exp (tuple 0 100))"], 1),
    (["solve", fx("fo", "lia_threshold_sat.lchc"), "--hint", WITNESS], 10),
    (["encode-lcm", WITNESS, "--target", "q,1"], 1),
], ids=["verify-model", "eval", "solve-hint", "encode-lcm"])
def test_deeply_nested_json_is_one_line(capsys, tmp_path, argv, rc):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 5000 + "]" * 5000)
    assert main([str(deep) if a == WITNESS else a for a in argv]) == rc
    err = capsys.readouterr().err
    if rc == 10:  # a hint too deep to read is skipped like any bad hint
        assert err == ""
    else:
        assert "nested too deeply" in err
        assert len(err.strip().splitlines()) == 1


# a witness for P whose one argument ranges over a frame of 2**25 relations
BIG_FRAME_TEXT = """(theory (lia))
(finsort S (a b c d e))
(declare P (-> (-> S S o) o))
(goal ((f (-> S S o))) (body (P f)))
"""
PROBLEM = "<problem>"


@pytest.mark.parametrize("argv,rc", [
    (["verify-model", PROBLEM, WITNESS], 2),
    (["eval", PROBLEM, WITNESS, "P"], 1),
    (["solve", PROBLEM, "--hint", WITNESS, "--json"], 30),
], ids=["verify-model", "eval", "solve-hint"])
def test_frame_too_large_is_one_line(capsys, tmp_path, argv, rc):
    prob = tmp_path / "p.lchc"
    prob.write_text(BIG_FRAME_TEXT)
    wit = tmp_path / "m.json"
    wit.write_text(json.dumps(
        {"predicates": {"P": {"kind": "inactive", "rows": []}}}))
    paths = {PROBLEM: str(prob), WITNESS: str(wit)}
    assert main([paths.get(a, a) for a in argv]) == rc
    out, err = capsys.readouterr()
    if rc == 30:  # a hint whose frame is too large is skipped unchecked
        assert err == ""
        assert json.loads(out)["stats"]["modelsChecked"] == 0
    else:
        assert err == "FrameTooLarge: frame of (-> S S o) has 33554432 " \
                      "elements (limit 65536)\n"


@pytest.mark.parametrize("content,why", [
    (b"{", "witness is not valid JSON: "),
    (b"[" * 5000 + b"]" * 5000, "witness is nested too deeply to read"),
    (b"\xff{}", "witness is not UTF-8 text: "),
], ids=["json", "deep", "utf-8"])
def test_verify_model_and_eval_read_a_witness_alike(capsys, tmp_path,
                                                     content, why):
    wit = tmp_path / "m.json"
    wit.write_bytes(content)
    prob = fx("integral256.lchc")
    assert main(["verify-model", prob, str(wit)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("SchemaError: " + why)
    assert len(err.strip().splitlines()) == 1
    assert main(["eval", prob, str(wit), "(Exp (tuple 0 100))"]) == 1
    assert capsys.readouterr().err == err


def test_deeply_nested_canonical_value_is_a_schema_error(capsys, tmp_path):
    # shallow enough for the JSON reader, too deep for any sort
    prob = tmp_path / "p.lchc"
    prob.write_text(CONST_AT_W_TEXT)
    value = {"s": "c"}
    for _ in range(450):
        value = {"app": ["P", value]}
    wit = tmp_path / "m.json"
    wit.write_text(json.dumps({"predicates": dict(CONST_AT_W["predicates"], Q={
        "kind": "inactive", "rows": [{"args": [value], "value": True}]})}))
    assert main(["verify-model", str(prob), str(wit)]) == 2
    err = capsys.readouterr().err
    assert err.strip() == "SchemaError: canonical value nested too deeply"
    assert main(["solve", str(prob), "--hint", str(wit)]) == 10
    assert capsys.readouterr().err == ""


def test_eval(capsys):
    rc = main(["eval", fx("integral256.lchc"), fx("integral256.model.json"),
               "(Exp (tuple 0 100))"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "true"
    main(["eval", fx("integral256.lchc"), fx("integral256.model.json"),
          "(Exp (tuple 0 128))"])
    assert capsys.readouterr().out.strip() == "false"


@pytest.mark.parametrize("term,out", [
    ("(Exp)", "ActVal(sort=Arrow(arg=WSort(), res=Prop()), descs=(Antichain("
              "gens=((0, 127), (1, 63), (2, 31), (3, 15), (4, 7), (5, 3), "
              "(6, 1), (7, 0))),))"),
    ("(Integral (tuple 1 2))",
     "FnVal(sort=Arrow(arg=Arrow(arg=WSort(), res=Prop()), res=Prop()), "
     "vals=(True, True))"),
    ("Integral", "ActVal(sort=Arrow(arg=WSort(), res=Arrow(arg=Arrow("
                 "arg=WSort(), res=Prop()), res=Prop())), descs=(All(), "
                 "Antichain(gens=((0, None), (1, 7), (3, 6), (7, 5), (15, 4), "
                 "(31, 3), (63, 2), (127, 1), (255, 0)))))"),
])
def test_eval_prints_the_value_repr(capsys, term, out):
    assert main(["eval", fx("integral256.lchc"),
                 fx("integral256.model.json"), term]) == 0
    assert capsys.readouterr().out == out + "\n"


def test_encode_lcm(capsys, tmp_path):
    out = tmp_path / "m.lchc"
    rc = main(["encode-lcm", fx("lcm", "m1.json"), "--target", "q2,1",
               "-o", str(out)])
    assert rc == 0
    assert main(["solve", str(out)]) == 10  # unreachable -> satisfiable


def test_encode_lcm_bad_target(capsys):
    rc = main(["encode-lcm", fx("lcm", "m1.json"), "--target", "q2,1,2"])
    assert rc == 1
    assert capsys.readouterr().err

