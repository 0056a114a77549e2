"""Command-line interface.

Exit codes: 10 satisfiable, 20 unsatisfiable, 30 unknown; 0 for successful
non-verdict subcommands, 1 for usage or parse errors, 2 for validation or
verification rejections, 3 when the solver's own refutation fails its
replay (an internal fault: no verdict is given).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import entwined as E
from .background import TheoryError, theory_for
from .driver import SolveConfig, solve, verify
from .frontends import IllFormedMachine, LCMConfig, encode_lcm, load_machine
from .resolution import TraceError
from .syntax import (SyntaxProblem, _Ctx, normalize_problem, parse_problem,
                     print_problem, read_sexprs)
from .typesys import TypeErrorLD, infer_sort, validate

EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_UNKNOWN = 30
EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REJECTED = 2
EXIT_INTERNAL = 3


def _load_problem(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise SyntaxProblem(f"{path} is not UTF-8 text: {e}")
    return normalize_problem(parse_problem(text))


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(human)


def _cmd_solve(args) -> int:
    p = _load_problem(args.problem)
    cfg = SolveConfig(resolution_slice=args.budget_resolution,
                      model_slice=args.budget_models,
                      total_budget=args.total_budget,
                      hint=args.hint)
    v = solve(p, cfg)
    if v.kind == "INVALID":
        for e in v.report.errors:
            print(e, file=sys.stderr)
        _emit(args, {"verdict": "INVALID",
                     "report": v.report.to_json()}, "INVALID")
        return EXIT_REJECTED
    payload = {"verdict": v.kind, "stats": v.stats}
    if v.kind == "SAT":
        model = E.serialize_model(v.model)
        payload["model"] = model
        if args.emit_model:
            with open(args.emit_model, "w", encoding="utf-8") as fh:
                json.dump(model, fh, indent=1)
        _emit(args, payload, "SAT")
        return EXIT_SAT
    if v.kind == "UNSAT":
        payload["proof"] = v.trace.to_json()
        if args.emit_proof:
            with open(args.emit_proof, "w", encoding="utf-8") as fh:
                fh.write(v.trace.dumps())
        _emit(args, payload, "UNSAT")
        return EXIT_UNSAT
    _emit(args, payload, "UNKNOWN")
    return EXIT_UNKNOWN


def _cmd_typecheck(args) -> int:
    p = _load_problem(args.problem)
    rep = validate(p)
    _emit(args, rep.to_json(),
          rep.mode if rep.ok else
          "Rejected: " + "; ".join(rep.errors))
    return EXIT_OK if rep.ok else EXIT_REJECTED


def _cmd_verify_model(args) -> int:
    p = _load_problem(args.problem)
    try:
        witness = E.read_witness(args.model)
    except E.SchemaError as e:
        print(f"SchemaError: {e}", file=sys.stderr)
        _emit(args, {"ok": False, "error": f"SchemaError: {e}"}, "false")
        return EXIT_REJECTED
    ok, diag = verify(p, witness)
    if not ok:
        print(diag, file=sys.stderr)
    _emit(args, {"ok": ok, "diagnostic": diag}, "true" if ok else "false")
    return EXIT_OK if ok else EXIT_REJECTED


def _parse_target(spec: str, counters: int) -> LCMConfig:
    parts = [s.strip() for s in spec.split(",")]
    if len(parts) != counters + 1:
        raise IllFormedMachine(
            f"target must be 'state,{counters} counter values'")
    try:
        vals = tuple(int(x) for x in parts[1:])
    except ValueError:
        raise IllFormedMachine("target counter values must be integers")
    return LCMConfig(parts[0], vals)


def _cmd_encode_lcm(args) -> int:
    m = load_machine(args.machine)
    target = _parse_target(args.target, m.counters)
    p = encode_lcm(m, target, cover=args.cover)
    text = print_problem(p)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def _cmd_eval(args) -> int:
    p = _load_problem(args.problem)
    theory = theory_for(p.theory_kind, p.dim, p.direction)
    m = E.load_model(p, theory, args.model)
    ctx = _Ctx(list(p.fin_elems), p.decl_map, p.dim)
    exprs = read_sexprs(args.term)
    if len(exprs) != 1:
        print("eval takes exactly one term", file=sys.stderr)
        return EXIT_USAGE
    t = ctx.parse_term(exprs[0], {})
    infer_sort(t, {}, p.decl_map)
    v = E.eval_term(m, t)
    out = str(v).lower() if isinstance(v, bool) else repr(v)
    _emit(args, {"value": v if isinstance(v, (bool, str)) else out}, out)
    return EXIT_OK


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return n


def build_parser() -> argparse.ArgumentParser:
    # a bad option value raises ArgumentError, which main reports in one line
    ap = argparse.ArgumentParser(prog="limitdl",
                                 description="clause solver over ordered "
                                             "numeric background theories",
                                 exit_on_error=False)
    sub = ap.add_subparsers(dest="cmd", required=True,
                            parser_class=functools.partial(
                                argparse.ArgumentParser, exit_on_error=False))

    def common(sp):
        sp.add_argument("--json", action="store_true",
                        help="machine-readable output on stdout")

    sp = sub.add_parser("solve", help="decide satisfiability")
    sp.add_argument("problem")
    sp.add_argument("--budget-resolution", type=_positive_int,
                    default=2000, metavar="N",
                    help="refutation steps per round")
    sp.add_argument("--budget-models", type=_positive_int, default=50,
                    metavar="N", help="model candidates per round")
    sp.add_argument("--total-budget", type=_positive_int, default=None,
                    metavar="N")
    sp.add_argument("--hint", metavar="FILE",
                    help="model witness to try first")
    sp.add_argument("--emit-proof", metavar="FILE")
    sp.add_argument("--emit-model", metavar="FILE")
    common(sp)
    sp.set_defaults(fn=_cmd_solve)

    sp = sub.add_parser("typecheck", help="validate a problem")
    sp.add_argument("problem")
    common(sp)
    sp.set_defaults(fn=_cmd_typecheck)

    sp = sub.add_parser("verify-model", help="check a witness")
    sp.add_argument("problem")
    sp.add_argument("model")
    common(sp)
    sp.set_defaults(fn=_cmd_verify_model)

    sp = sub.add_parser("encode-lcm",
                        help="compile a lossy counter machine query")
    sp.add_argument("machine")
    sp.add_argument("--target", required=True,
                    metavar="q,v1,...", help="target configuration")
    sp.add_argument("-o", "--output", metavar="FILE")
    sp.add_argument("--cover", action="store_true",
                    help="coverability goal (counters at least the target)")
    common(sp)
    sp.set_defaults(fn=_cmd_encode_lcm)

    sp = sub.add_parser("eval", help="evaluate a ground term in a witness")
    sp.add_argument("problem")
    sp.add_argument("model")
    sp.add_argument("term")
    common(sp)
    sp.set_defaults(fn=_cmd_eval)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except argparse.ArgumentError as e:
        print(f"limitdl: error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (SyntaxProblem, IllFormedMachine, E.SchemaError,
            E.FrameInconsistency, E.FrameTooLarge, TypeErrorLD, TheoryError,
            OSError, UnicodeDecodeError) as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_USAGE
    except TraceError as e:
        print(f"internal error: refutation failed its replay: {e}",
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
