"""The fixture corpus by problem id, with the pinned outcome of each solve.

An id names its fixture: `mult6` and `fo/nat_trade_unsat` are `.lchc` files
under `fixtures/`, and `lcm/m3/b:2,0` is machine `m3` with target state `b`
and counter values (2, 0).  `integral255` is left out of `PINNED`: its single
solve takes longer than the rest of the corpus together, and criterion 1
checks its verdict.
"""

import json
import os

from limitdl.background import theory_for
from limitdl.frontends import LCMConfig, encode_lcm, lcm_from_json
from limitdl.syntax import normalize_problem, parse_problem

FIX = os.path.join(os.path.dirname(__file__), "..", "fixtures")
HINTS = {"integral256": os.path.join(FIX, "integral256.model.json")}

# id, verdict, resolutionSteps, modelsChecked of `driver.solve` with the
# default configuration and the hint in HINTS
PINNED = [
    ("integral256", "SAT", 0, 1),
    ("fo/lia_down_sat", "SAT", 3, 1),
    ("fo/lia_down_unsat", "UNSAT", 3, 0),
    ("fo/lia_join_sat", "SAT", 3, 1),
    ("fo/lia_join_unsat", "UNSAT", 5, 0),
    ("fo/lia_rec_sat", "SAT", 5, 1),
    ("fo/lia_rec_unsat", "UNSAT", 16, 0),
    ("fo/lia_shift_sat", "SAT", 9, 1),
    ("fo/lia_shift_unsat", "UNSAT", 5, 0),
    ("fo/lia_threshold_edge", "UNSAT", 3, 0),
    ("fo/lia_threshold_sat", "SAT", 3, 1),
    ("fo/lia_threshold_unsat", "UNSAT", 3, 0),
    ("fo/nat1_down_sat", "SAT", 3, 1),
    ("fo/nat1_down_unsat", "UNSAT", 3, 0),
    ("fo/nat1_rec_unsat", "UNSAT", 19, 0),
    ("fo/nat_axis_sat", "SAT", 3, 1),
    ("fo/nat_axis_unsat", "UNSAT", 3, 0),
    ("fo/nat_down_sat", "SAT", 3, 1),
    ("fo/nat_down_unsat", "UNSAT", 3, 0),
    ("fo/nat_join_sat", "SAT", 5, 1),
    ("fo/nat_join_unsat", "UNSAT", 4, 0),
    ("fo/nat_trade_sat", "SAT", 75, 1),
    ("fo/nat_trade_unsat", "UNSAT", 16, 0),
    ("fo/nat_up_sat", "SAT", 3, 1),
    ("fo/nat_up_unsat", "UNSAT", 3, 0),
    ("mult5", "SAT", 173, 1),
    ("mult6", "UNSAT", 24, 0),
    ("mult7", "UNSAT", 24, 0),
    ("lcm/m1/q0:2", "UNSAT", 21, 0),
    ("lcm/m1/q1:5", "UNSAT", 175, 0),
    ("lcm/m1/q2:0", "UNSAT", 7, 0),
    ("lcm/m1/q2:1", "SAT", 3, 1),
    ("lcm/m2/f:0,3", "UNSAT", 107, 0),
    ("lcm/m2/f:1,1", "SAT", 3, 1),
    ("lcm/m2/s:2,2", "UNSAT", 185, 0),
    ("lcm/m2/t:0,4", "UNSAT", 909, 0),
    ("lcm/m3/f:0,2", "UNSAT", 103, 0),
    ("lcm/m3/f:1,0", "SAT", 3, 1),
    ("lcm/m3/a:3,3", "UNSAT", 173, 0),
    ("lcm/m3/b:2,0", "UNSAT", 342, 0),
]

# the first-order problems: every pinned one but the higher-order integral256
FIRST_ORDER = [(pid, verdict) for pid, verdict, _, _ in PINNED
               if pid != "integral256"]


def problem(pid):
    """The normalized problem of an id, and its theory."""
    if pid.startswith("lcm/"):
        _, mname, target = pid.split("/")
        state, vals = target.split(":")
        with open(os.path.join(FIX, "lcm", f"{mname}.json"),
                  encoding="utf-8") as fh:
            m = lcm_from_json(json.load(fh))
        cfg = LCMConfig(state, tuple(int(v) for v in vals.split(",")))
        p = normalize_problem(encode_lcm(m, cfg))
    else:
        with open(os.path.join(FIX, pid + ".lchc"), encoding="utf-8") as fh:
            p = normalize_problem(parse_problem(fh.read()))
    return p, theory_for(p.theory_kind, p.dim, p.direction)
