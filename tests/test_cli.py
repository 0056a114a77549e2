"""Command-line interface contract: exit codes, flags, output streams."""

import json
import os
import resource
import subprocess
import sys

import pytest

from limitdl import driver
from limitdl.background import theory_for
from limitdl.cli import main
from limitdl.resolution import ProofTrace, TraceError, replay
from limitdl.syntax import normalize_problem, parse_problem
from oracles import deadline

FIX = os.path.join(os.path.dirname(__file__), "..", "fixtures")
SRC = os.path.join(os.path.dirname(__file__), "..", "src")


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
               "--budget-resolution", "5"])
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
    # an antichain row is a nat descriptor
    ("R", {"pre": [{"s": "a"}], "post": [],
           "upset": {"kind": "antichain", "min": [[3]]}}, "SchemaError"),
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


NAT_UP = fx("fo", "nat_up_sat.lchc")  # R over nat 2, R (2,1) must be false


def nat_up_witness(upset):
    return {"predicates": {"R": {"kind": "active", "rows": [
        {"pre": [], "post": [], "upset": upset}]}}}


@pytest.mark.parametrize("upset", [
    {"kind": "atleast", "k": 1},
    {"kind": "antichain", "min": [[1]]},
    {"kind": "antichain", "min": [[1, 2, 3]]},
    {"kind": "antichain", "min": [[-1, 2]]},
], ids=["atleast", "short", "long", "negative"])
def test_verify_model_malformed_nat_upset(capsys, tmp_path, upset):
    """A descriptor that is not a nat 2 upset is a SchemaError where the
    witness is read: verify-model exits 2 and eval 1, each with one line
    on stderr, and as a hint it only costs the seed."""
    wit = tmp_path / "m.json"
    wit.write_text(json.dumps(nat_up_witness(
        {"kind": "antichain", "min": [[1, 2]]})))
    assert main(["verify-model", NAT_UP, str(wit)]) == 0
    want = main(["solve", NAT_UP])
    assert want == 10
    capsys.readouterr()
    wit.write_text(json.dumps(nat_up_witness(upset)))
    assert main(["verify-model", NAT_UP, str(wit)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("SchemaError: ")
    assert len(err.strip().splitlines()) == 1
    assert main(["eval", NAT_UP, str(wit), "(R (tuple 2 1))"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("SchemaError: ")
    assert len(err.strip().splitlines()) == 1
    assert main(["solve", NAT_UP, "--hint", str(wit)]) == want
    assert capsys.readouterr().err == ""


LIA_THRESHOLD = fx("fo", "lia_threshold_sat.lchc")  # R (lia) must hold at 5


@pytest.mark.parametrize("problem,upset", [
    (NAT_UP, {"kind": "antichain", "min": [[True, 2.9]]}),
    (NAT_UP, {"kind": "antichain", "min": [[1, "2"]]}),
    (NAT_UP, {"kind": "antichain", "min": [[1, 2.0]]}),
    (LIA_THRESHOLD, {"kind": "atleast", "k": "6"}),
    (LIA_THRESHOLD, {"kind": "atleast", "k": "5"}),
    (LIA_THRESHOLD, {"kind": "atleast", "k": False}),
], ids=["bool-float", "string", "integral-float", "k-string-6", "k-string-5",
        "k-bool"])
def test_verify_model_reads_only_json_integers(capsys, tmp_path, problem,
                                               upset):
    """A coordinate or threshold that is not a JSON integer is a
    SchemaError, even where int() would read it as a model's value."""
    wit = tmp_path / "m.json"
    wit.write_text(json.dumps(nat_up_witness(upset)))
    assert main(["verify-model", problem, str(wit)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("SchemaError: ") and "not an integer" in err
    assert len(err.strip().splitlines()) == 1


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


SCALAR_COMP_TEXT = """
(theory (nat 2))
(direction upward)
(declare R (-> W o))
(clause ((u W)) (head (R u)) (body (eq (comp u 1) 3)))
(goal () (body (R 5)))
"""


def test_solve_comp_of_a_scalar_argument(capsys, tmp_path):
    """(R 5) binds u to the scalar 5, which stands in every coordinate, so
    (comp u 1) reads 5: the point (3, 0) derives R and, through the limit
    clause, (R 5).  A component of a scalar once stopped solve with exit 1
    (TheoryError)."""
    prob = tmp_path / "p.lchc"
    proof = tmp_path / "proof.json"
    prob.write_text(SCALAR_COMP_TEXT)
    assert main(["solve", str(prob), "--emit-proof", str(proof)]) == 20
    assert "UNSAT" in capsys.readouterr().out
    p = normalize_problem(parse_problem(SCALAR_COMP_TEXT))
    th = theory_for(p.theory_kind, p.dim, p.direction)
    assert replay(ProofTrace.from_json(json.loads(proof.read_text())), p, th)


def test_solve_strict_comparison_of_scalar_arguments(capsys, tmp_path):
    """The body's lt compares a scalar with a vector, which over nat 2 is
    false; (R 3) binds x to a scalar, and 3 < 2 is false too, so R never
    holds.  The one-pair form of that lt once kept the clause's own
    variables unrenamed, the dead goal lived, and solve stopped with exit 3
    when replay rejected its refutation."""
    prob = tmp_path / "p.lchc"
    prob.write_text("""
(theory (nat 2))
(declare R (-> W o))
(clause ((x W)) (head (R x)) (body (lt (comp x 2) (+ x -1))))
(goal () (body (R 3)))
""")
    assert main(["solve", str(prob)]) == 10
    assert "SAT" in capsys.readouterr().out


def test_eval_rejects_a_problem_that_fails_validation(capsys, tmp_path):
    """eval validates the problem first, as verify-model does: a predicate
    with two W arguments is rejected with exit 2 and one line on stderr,
    not a traceback from evaluating it."""
    prob = tmp_path / "p.lchc"
    prob.write_text("(theory (lia)) (declare Q (-> W W o)) "
                    "(goal () (body (Q 1 2)))")
    model = tmp_path / "w.json"
    model.write_text(json.dumps({"predicates": {"Q": {
        "kind": "inactive", "rows": [{"args": [], "value": True}]}}}))
    want = ("problem rejected by validation: predicate 'Q': more than one W "
            "argument (O1)\n")
    assert main(["eval", str(prob), str(model), "(Q 1 2)"]) == 2
    out = capsys.readouterr()
    assert out.err == want and out.out == ""
    assert main(["verify-model", str(prob), str(model)]) == 2
    assert capsys.readouterr().err == want


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


def test_repeated_finite_constant_is_a_syntax_problem(capsys, tmp_path):
    """A constant listed twice in the finite sort is refused where it is
    read, at its second occurrence, as a repeated declaration is."""
    prob = tmp_path / "p.lchc"
    prob.write_text("""(theory (lia)) (finsort S (a a b))
(declare R (-> S o))
(clause ((x S)) (head (R x)) (body (eqs x b)))
(goal () (body (R a)))
""")
    for cmd in ("typecheck", "solve"):
        assert main([cmd, str(prob)]) == 1
        err = capsys.readouterr().err
        assert err == "SyntaxProblem: 1:30: duplicate constant 'a'\n", err


# the constant True is not the JSON value true
TRUE_CONST_TEXT = """(theory (lia))
(finsort S (True b))
(declare R (-> S o))
(clause ((x S)) (head (R x)) (body (eqs x b)))
(goal () (body (R True)))
"""


@pytest.mark.parametrize("name", [True, 0, None, ["True"]],
                         ids=["bool", "number", "null", "list"])
def test_witness_reads_only_json_constant_names(capsys, tmp_path, name):
    prob = tmp_path / "p.lchc"
    prob.write_text(TRUE_CONST_TEXT)
    rows = [{"args": [{"s": name}], "value": False},
            {"args": [{"s": "b"}], "value": True}]
    wit = tmp_path / "m.json"
    wit.write_text(json.dumps(
        {"predicates": {"R": {"kind": "inactive", "rows": rows}}}))
    assert main(["verify-model", str(prob), str(wit)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("SchemaError: ") and "not a string" in err
    assert len(err.strip().splitlines()) == 1
    rows[0]["args"] = [{"s": "True"}]  # the constant itself is read
    wit.write_text(json.dumps(
        {"predicates": {"R": {"kind": "inactive", "rows": rows}}}))
    assert main(["verify-model", str(prob), str(wit)]) == 0


NAT_UP = fx("fo", "nat_up_sat.lchc")
MODEL = "<model>"


@pytest.mark.parametrize("argv", [
    ["solve", NAT_UP, "--budget-resolution", "0"],
    ["solve", NAT_UP, "--budget-models", "0"],
    ["eval", NAT_UP, MODEL, "(R (tuple 1 2) 3)"],  # ill-typed
    ["eval", NAT_UP, MODEL, "(R (tuple -1 0))"],  # outside the domain
    ["solve", NAT_UP, "--total-budget", "0"],
    ["solve", NAT_UP, "--total-budget", "-5"],
    ["solve"],
    [],
], ids=["budget-resolution", "budget-models", "eval-ill-typed",
        "eval-outside-domain", "total-budget-zero", "total-budget-negative",
        "solve-no-problem", "no-command"])
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
        assert err == "FrameTooLarge: frame of (-> S S o) has 2^25 " \
                      "elements (limit 65536)\n"


def frame_tower_text(n):
    """Q takes sets of binary relations on n constants: the frame of
    (-> S S o) has 2^(n*n) tables, and the frame of the goal variable f
    has 2^(2^(n*n)) sets of them."""
    consts = " ".join(f"c{i}" for i in range(n))
    return (f"(theory (lia)) (finsort S ({consts})) "
            "(declare Q (-> (-> (-> S S o) o) o)) "
            "(goal ((f (-> (-> S S o) o))) (body (Q f)))\n")


@pytest.mark.parametrize("n", [4, 5])
def test_frame_past_the_limit_is_unknown(capsys, tmp_path, n):
    """f's frame (n = 4) or that of (-> S S o) (n = 5) is refused from its
    row count, without computing its size, and the solve is UNKNOWN."""
    path = tmp_path / "q.lchc"
    path.write_text(frame_tower_text(n))
    assert main(["solve", str(path)]) == 30
    assert capsys.readouterr().err == ""


def test_frame_at_the_limit_is_decided():
    """With two constants f ranges over all 65,536 sets of relations, and
    applying Q to each looks its position up once."""
    p = normalize_problem(parse_problem(frame_tower_text(2)))
    with deadline(20):
        v = driver.solve(p, driver.SolveConfig(total_budget=5))
    assert v.kind == "SAT"


def test_frame_of_2_to_the_64_is_refused_in_bounded_memory(tmp_path):
    """With eight constants (-> S S o) has 2^64 tables.  The solve runs in
    a child process under 1 GiB of address space and is UNKNOWN."""
    path = tmp_path / "q.lchc"
    path.write_text(frame_tower_text(8))

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    r = subprocess.run(
        [sys.executable, "-m", "limitdl.cli", "solve", str(path)],
        preexec_fn=limit_memory, timeout=60, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=SRC))
    assert (r.returncode, r.stderr) == (30, "")


SET_OF_SETS_TEXT = ("(theory (lia)) (finsort S (c0 c1)) "
                    "(declare Q (-> (-> S o) o)) "
                    "(goal ((f (-> S o))) (body (Q f)))\n")


@pytest.mark.parametrize("text", [SET_OF_SETS_TEXT, frame_tower_text(1)],
                         ids=["sets", "tower-1"])
def test_sat_prints_a_witness_with_table_names(capsys, tmp_path, text):
    """A SAT model whose rows take tables of an inactive sort as arguments
    names each table by its true rows, so solve prints it (exit 10) and
    verify-model accepts it (exit 0)."""
    prob, wit = tmp_path / "p.lchc", tmp_path / "m.json"
    prob.write_text(text)
    assert main(["solve", str(prob), "--emit-model", str(wit)]) == 10
    assert capsys.readouterr().err == ""
    rows = json.loads(wit.read_text())["predicates"]["Q"]["rows"]
    assert any("table" in r["args"][0] for r in rows)
    assert main(["verify-model", str(prob), str(wit)]) == 0
    assert capsys.readouterr().out == "true\n"


@pytest.mark.parametrize("table,why", [
    ([[{"s": "c2"}]], "unknown finite constant 'c2'"),
    ([[{"s": "c0"}], [{"s": "c0"}]], "repeated table row at (-> S o)"),
    ([[{"s": "c0"}, {"s": "c1"}]], "table row of 2 arguments at (-> S o)"),
    ([[{"top": "(-> S o)"}]], "top of (-> S o) used at S"),
    ({"s": "c0"}, "a table is a list of rows, each a list"),
], ids=["unknown", "repeated", "arity", "sort", "shape"])
def test_verify_model_rejects_a_bad_table_name(capsys, tmp_path, table, why):
    prob, wit = tmp_path / "p.lchc", tmp_path / "m.json"
    prob.write_text(SET_OF_SETS_TEXT)
    rows = [{"args": [{"table": t}], "value": False}
            for t in ([], [[{"s": "c1"}]])]
    rows += [{"args": [{"top": "(-> S o)"}], "value": False},
             {"args": [{"table": table}], "value": False}]
    wit.write_text(json.dumps(
        {"predicates": {"Q": {"kind": "inactive", "rows": rows}}}))
    assert main(["verify-model", str(prob), str(wit)]) == 2
    assert why in capsys.readouterr().err


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


@pytest.mark.parametrize("field,value", [
    ("counters", 1.7), ("counters", "1"), ("counters", True),
    ("counter", True), ("counter", 1.0),
], ids=["counters-float", "counters-string", "counters-bool", "counter-bool",
        "counter-float"])
def test_encode_lcm_reads_only_json_integers(capsys, tmp_path, field, value):
    with open(fx("lcm", "m1.json"), encoding="utf-8") as fh:
        machine = json.load(fh)
    if field == "counters":
        machine["counters"] = value
    else:
        machine["instructions"][0]["counter"] = value
    path = tmp_path / "m.json"
    path.write_text(json.dumps(machine))
    assert main(["encode-lcm", str(path), "--target", "q2,1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("IllFormedMachine: ") and "not an integer" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("name", [["q0"], 7, None],
                         ids=["list", "number", "null"])
def test_encode_lcm_reads_only_json_state_names(capsys, tmp_path, name):
    with open(fx("lcm", "m1.json"), encoding="utf-8") as fh:
        text = fh.read()
    # q0 is a state, the initial state and in every instruction's fields
    path = tmp_path / "m.json"
    path.write_text(text.replace('"q0"', json.dumps(name)))
    assert main(["encode-lcm", str(path), "--target", "q2,1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("IllFormedMachine: ") and "not a string" in err
    assert len(err.strip().splitlines()) == 1


def test_encode_lcm_bad_target(capsys):
    rc = main(["encode-lcm", fx("lcm", "m1.json"), "--target", "q2,1,2"])
    assert rc == 1
    assert capsys.readouterr().err

