"""The fixture corpus by problem id, with the pinned outcome of each solve,
the model of each SAT one and the least model of each first-order one.

An id names its fixture: `mult6` and `fo/nat_trade_unsat` are `.lchc` files
under `fixtures/`, and `lcm/m3/b:2,0` is machine `m3` with target state `b`
and counter values (2, 0).  `integral255` is left out of `PINNED`: its single
solve takes longer than the rest of the corpus together, and criterion 1
checks its verdict.
"""

import hashlib
import json
import os

from limitdl.background import theory_for
from limitdl.entwined import serialize_model
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

# SHA-256 of the model each SAT row's solve returns (see model_sha256)
MODEL_SHA256 = {
    "integral256":
        "786a08806dab1c01caca0ddd6acab8a9d7ec835345a3bfdf2a36e30dce118113",
    "fo/lia_down_sat":
        "72fae7dc05f86354aad082dc74c6e96ddb76fe7e074eeb4e8eee11d96b5d6ccf",
    "fo/lia_join_sat":
        "1c3bdbb51274ad1a7bbcd19e77c23a238da9c1692fa92d0357778ba8ca8ec0d4",
    "fo/lia_rec_sat":
        "002975681da6b90fbd45853f57dbc3f38c80032935fe5484593f5ed82913893b",
    "fo/lia_shift_sat":
        "a5ff75766f39dd95e0c32aabe939389f80e2ce209ce7d037dd74332422c0ec22",
    "fo/lia_threshold_sat":
        "48bbd2071c73072bd631fbab35902c9369d4f4f9147bc9580b2ac0ca0159ef6d",
    "fo/nat1_down_sat":
        "19579aa9a3d0f9cdfd0f50218209ce5d654afa1a7023d508e83d88c84fccd9c3",
    "fo/nat_axis_sat":
        "5e50c05aa9ab57f2b433a363fe6bfd2b3c676c92fc69ae2979ca3219f49a3fed",
    "fo/nat_down_sat":
        "c1a8b1e02ac96bfc0f8dc621fd777fd4739cebf2058ba8a8e9ba7ea595c511d0",
    "fo/nat_join_sat":
        "f98e36d093f8413bb07819e437fbf5faa7f8f57665680de2cbb50e11d1b86ff8",
    "fo/nat_trade_sat":
        "7a6cb47d7e39edc425f4fcebeb6c6405fc169e20f6dc25073f2df68c8f0654ff",
    "fo/nat_up_sat":
        "102131c5dcf636b839dae1820f8433bd68810770e5ca6c4b4e7ae2535b0f5e69",
    "mult5":
        "106b8fa1cbce53adbde082d4fa026720f0e0f2a2180049da7254d47b38ad1762",
    "lcm/m1/q2:1":
        "f200783c84a22d2a2b99d6eb5049a74a07fd4b4def13cee72d8e3baea2df5715",
    "lcm/m2/f:1,1":
        "e02b45c437a8573a45bbda09f9300d526b67a5e86421da4eee0437b39105d02f",
    "lcm/m3/f:1,0":
        "acd91a13ea3e3a51eb7f02fdb12fdde15910ed92a69b893527353d7932cdafef",
}


# SHA-256 of each first-order problem's least model (`fo_least_model`;
# see model_sha256)
LEAST_MODEL_SHA256 = {
    "fo/lia_down_sat":
        "72fae7dc05f86354aad082dc74c6e96ddb76fe7e074eeb4e8eee11d96b5d6ccf",
    "fo/lia_down_unsat":
        "72fae7dc05f86354aad082dc74c6e96ddb76fe7e074eeb4e8eee11d96b5d6ccf",
    "fo/lia_join_sat":
        "1c3bdbb51274ad1a7bbcd19e77c23a238da9c1692fa92d0357778ba8ca8ec0d4",
    "fo/lia_join_unsat":
        "1c3bdbb51274ad1a7bbcd19e77c23a238da9c1692fa92d0357778ba8ca8ec0d4",
    "fo/lia_rec_sat":
        "002975681da6b90fbd45853f57dbc3f38c80032935fe5484593f5ed82913893b",
    "fo/lia_rec_unsat":
        "002975681da6b90fbd45853f57dbc3f38c80032935fe5484593f5ed82913893b",
    "fo/lia_shift_sat":
        "a5ff75766f39dd95e0c32aabe939389f80e2ce209ce7d037dd74332422c0ec22",
    "fo/lia_shift_unsat":
        "a5ff75766f39dd95e0c32aabe939389f80e2ce209ce7d037dd74332422c0ec22",
    "fo/lia_threshold_edge":
        "48bbd2071c73072bd631fbab35902c9369d4f4f9147bc9580b2ac0ca0159ef6d",
    "fo/lia_threshold_sat":
        "48bbd2071c73072bd631fbab35902c9369d4f4f9147bc9580b2ac0ca0159ef6d",
    "fo/lia_threshold_unsat":
        "48bbd2071c73072bd631fbab35902c9369d4f4f9147bc9580b2ac0ca0159ef6d",
    "fo/nat1_down_sat":
        "19579aa9a3d0f9cdfd0f50218209ce5d654afa1a7023d508e83d88c84fccd9c3",
    "fo/nat1_down_unsat":
        "19579aa9a3d0f9cdfd0f50218209ce5d654afa1a7023d508e83d88c84fccd9c3",
    "fo/nat1_rec_unsat":
        "33c26ce2b742fffd4b123b160c6a3d24bfee8f1e0a50a7997438c8a006bcc83d",
    "fo/nat_axis_sat":
        "5e50c05aa9ab57f2b433a363fe6bfd2b3c676c92fc69ae2979ca3219f49a3fed",
    "fo/nat_axis_unsat":
        "5e50c05aa9ab57f2b433a363fe6bfd2b3c676c92fc69ae2979ca3219f49a3fed",
    "fo/nat_down_sat":
        "c1a8b1e02ac96bfc0f8dc621fd777fd4739cebf2058ba8a8e9ba7ea595c511d0",
    "fo/nat_down_unsat":
        "c1a8b1e02ac96bfc0f8dc621fd777fd4739cebf2058ba8a8e9ba7ea595c511d0",
    "fo/nat_join_sat":
        "f98e36d093f8413bb07819e437fbf5faa7f8f57665680de2cbb50e11d1b86ff8",
    "fo/nat_join_unsat":
        "f98e36d093f8413bb07819e437fbf5faa7f8f57665680de2cbb50e11d1b86ff8",
    "fo/nat_trade_sat":
        "7a6cb47d7e39edc425f4fcebeb6c6405fc169e20f6dc25073f2df68c8f0654ff",
    "fo/nat_trade_unsat":
        "7a6cb47d7e39edc425f4fcebeb6c6405fc169e20f6dc25073f2df68c8f0654ff",
    "fo/nat_up_sat":
        "102131c5dcf636b839dae1820f8433bd68810770e5ca6c4b4e7ae2535b0f5e69",
    "fo/nat_up_unsat":
        "102131c5dcf636b839dae1820f8433bd68810770e5ca6c4b4e7ae2535b0f5e69",
    "mult5":
        "106b8fa1cbce53adbde082d4fa026720f0e0f2a2180049da7254d47b38ad1762",
    "mult6":
        "106b8fa1cbce53adbde082d4fa026720f0e0f2a2180049da7254d47b38ad1762",
    "mult7":
        "106b8fa1cbce53adbde082d4fa026720f0e0f2a2180049da7254d47b38ad1762",
    "lcm/m1/q0:2":
        "f200783c84a22d2a2b99d6eb5049a74a07fd4b4def13cee72d8e3baea2df5715",
    "lcm/m1/q1:5":
        "f200783c84a22d2a2b99d6eb5049a74a07fd4b4def13cee72d8e3baea2df5715",
    "lcm/m1/q2:0":
        "f200783c84a22d2a2b99d6eb5049a74a07fd4b4def13cee72d8e3baea2df5715",
    "lcm/m1/q2:1":
        "f200783c84a22d2a2b99d6eb5049a74a07fd4b4def13cee72d8e3baea2df5715",
    "lcm/m2/f:0,3":
        "e02b45c437a8573a45bbda09f9300d526b67a5e86421da4eee0437b39105d02f",
    "lcm/m2/f:1,1":
        "e02b45c437a8573a45bbda09f9300d526b67a5e86421da4eee0437b39105d02f",
    "lcm/m2/s:2,2":
        "e02b45c437a8573a45bbda09f9300d526b67a5e86421da4eee0437b39105d02f",
    "lcm/m2/t:0,4":
        "e02b45c437a8573a45bbda09f9300d526b67a5e86421da4eee0437b39105d02f",
    "lcm/m3/f:0,2":
        "acd91a13ea3e3a51eb7f02fdb12fdde15910ed92a69b893527353d7932cdafef",
    "lcm/m3/f:1,0":
        "acd91a13ea3e3a51eb7f02fdb12fdde15910ed92a69b893527353d7932cdafef",
    "lcm/m3/a:3,3":
        "acd91a13ea3e3a51eb7f02fdb12fdde15910ed92a69b893527353d7932cdafef",
    "lcm/m3/b:2,0":
        "acd91a13ea3e3a51eb7f02fdb12fdde15910ed92a69b893527353d7932cdafef",
}


def model_sha256(m):
    """SHA-256 of a model's serialization, keys sorted."""
    text = json.dumps(serialize_model(m), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


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
