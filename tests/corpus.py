"""The fixture corpus by problem id, with the pinned outcome of each solve,
the model of each SAT one and the least model of each first-order one.

An id names its fixture: `mult6` and `fo/nat_trade_unsat` are `.lchc` files
under `fixtures/`, and `lcm/m3/b:2,0` is machine `m3` with target state `b`
and counter values (2, 0).  `integral255` is left out of `PINNED`: its single
solve takes longer than the rest of the corpus together, and criterion 1
checks its verdict and its proof.
"""

import hashlib
import json
import os

from limitdl import entwined as E
from limitdl.background import EMPTY, theory_for, upset_to_json
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


# SHA-256 of the proof trace each UNSAT row's solve returns (see
# proof_sha256)
PROOF_SHA256 = {
    "fo/lia_down_unsat":
        "2d24617f77d78f6ffaa8416b2c217a7f6d6881d1deec9b3fe9575af4a6a53d7e",
    "fo/lia_join_unsat":
        "a27233b92683c81fe1ef29d772992b081c34decc59622ada1cc7c787097df5f6",
    "fo/lia_rec_unsat":
        "f03c0e6d133bcf33642e5d0a93227ba87c9f371bfd048117536570504f9b98a6",
    "fo/lia_shift_unsat":
        "e18eef79a0954d3de6156fb26ed27da5d6d52f8d74a598e6973b69ac418fa943",
    "fo/lia_threshold_edge":
        "dae693c2e5fed0271d9e197cc0dfbf9a6aa1d59d4aeb6f9d6fe4658d79f6d902",
    "fo/lia_threshold_unsat":
        "e55dbc6fd69fbff9e84ec6b6b8aaff6d98c6d5840b4b2cb81e427fb9186f8c8d",
    "fo/nat1_down_unsat":
        "1eb45167c52998444e26588f30c06bba121e424370e85d2cb9c5a652fcc425fd",
    "fo/nat1_rec_unsat":
        "4b63cdd35deb81d406148a3c2a8e1ba89be12d193e209c46843af469c2f41669",
    "fo/nat_axis_unsat":
        "889b04d2de0d80526f49264ee7f93c8e0d9daaf5f0b0cf7b4951484627fda09c",
    "fo/nat_down_unsat":
        "e643f8ddefe520c1db5b580bbbe1f647489db137645194fa0ad6203a05c164f8",
    "fo/nat_join_unsat":
        "c0451d7916aed70a62f65d34c5406f654eb4b901537fb61b23448e2c034061e4",
    "fo/nat_trade_unsat":
        "dd7159b8e11e7469dd20a8c155ee0b0c511177e8fb06746b4951ce81252805d2",
    "fo/nat_up_unsat":
        "6bd88641507d8666683a537bad4f8635975913e4282396e3d6b787d1eee0b977",
    "mult6":
        "630e4c1552d694131cb12dcf32d8d3b9b8a01bee979881aadc1a91cfaa5a6c8e",
    "mult7":
        "5d1a2802b8aec48f81e97cf6a7bf7c28caef8d09a8ca9864702ab0445ddfeb9f",
    "lcm/m1/q0:2":
        "2774ee36fe31b4c3d1113f5e3d94f4dba81684ce4bc60b1ca32ed3afb976c869",
    "lcm/m1/q1:5":
        "b483f0d5963ba5614f4cfbbc6fe0bc419b32b7cd81b254e9bea4264e0a0afec7",
    "lcm/m1/q2:0":
        "7df5c4ea120011e9bea65169b07f290659f89062a83c108588412845b6010567",
    "lcm/m2/f:0,3":
        "73c98d04b9c31e5487cfd62893274d90bc9d990670c85a556359a3688c181a2b",
    "lcm/m2/s:2,2":
        "cfd014e2303e4c9485d6011151f06f0cc1514defe399414b0cd0d4addd62d60f",
    "lcm/m2/t:0,4":
        "0bc00ccd1820461c79e15b967d54b453979bc57640517036b91327a39d71ccbd",
    "lcm/m3/f:0,2":
        "c6fd35d96621cc1f8e84d43e57f424c62fc93313219f49528355b3355cb96703",
    "lcm/m3/a:3,3":
        "d3507480d4da66886eb08f4b775cb9d9b8e450ed991a9b4072e647c59d478170",
    "lcm/m3/b:2,0":
        "f32ddbcb43e3b353b69dc43ab69859ddf162da59d5bc0156c1f5432b30b498c2",
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

# SHA-256 of the extract_upset calls of the least models of FIRST_ORDER's
# problems, in that order (see extraction_digest)
EXTRACTION_SHA256 = \
    "a13b5070155118d876cf560ae5926ac7bc5e6b7f546048e5762c6bed19efc0f2"


def model_sha256(m):
    """SHA-256 of a model's serialization, keys sorted."""
    text = json.dumps(serialize_model(m), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def noncanonical_descriptors(m):
    """The descriptors of a model that differ from their canonical form, by
    predicate: none, since every producer of one makes it canonical."""
    return [(n, d) for n, v in m.interps.items() if isinstance(v, E.ActVal)
            for d in v.descs if m.theory.canonicalize(d) != d]


def proof_sha256(trace):
    """SHA-256 of a proof trace's JSON text (`ProofTrace.dumps`)."""
    return hashlib.sha256(trace.dumps().encode()).hexdigest()


# the first-order problems: every pinned one but the higher-order integral256
FIRST_ORDER = [(pid, verdict) for pid, verdict, _, _ in PINNED
               if pid != "integral256"]


def extraction_digest(pids):
    """SHA-256 of every `extract_upset` call that the least models of pids
    make, in call order: one line per call with the formula's text, the
    components, the base descriptor and the result, the descriptors in
    their witness form (`upset_to_json`, keys sorted), so the digest does
    not depend on how descriptors are held in memory."""
    lines = []
    extract = E.extract_upset

    def text(u, theory):
        return json.dumps(upset_to_json(u, theory), sort_keys=True)

    def traced(theory, phi, comps, base=EMPTY):
        out = extract(theory, phi, comps, base)
        lines.append(f"{phi} | {comps} | {text(base, theory)} | "
                     f"{text(out, theory)}")
        return out

    E.extract_upset = traced
    try:
        for pid in pids:
            E.fo_least_model(*problem(pid))
    finally:
        E.extract_upset = extract
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def integral(b, goal):
    """integral255.lchc with Exp's bound 2^b in place of 2^7 and the goal
    area in place of 255, normalized, and its theory.  The greatest area
    from band 0 is 2^(b+1) - 1: that goal is derivable (UNSAT), and
    2^(b+1) is not (SAT)."""
    with open(os.path.join(FIX, "integral255.lchc"), encoding="utf-8") as fh:
        text = fh.read()
    for old, new in (("(lt (comp u 2) 128)", f"(lt (comp u 2) {2 ** b})"),
                     ("(tuple 255 0)", f"(tuple {goal} 0)")):
        assert text.count(old) == 1
        text = text.replace(old, new)
    p = normalize_problem(parse_problem(text))
    return p, theory_for(p.theory_kind, p.dim, p.direction)


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
