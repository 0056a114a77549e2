"""Seeded fuzz of the witness and machine readers, through the CLI.

Each case is a fixture with one mutation: a key or list item dropped, a
stray key or item added, a value replaced by one of another JSON type, or
two values (two names, where the document has them) swapped.  A case runs
through `cli.main` (`verify-model` for a witness, `encode-lcm` with one of
the machine's targets for a machine) and must exit 0, 1 or 2; a case that
fails prints exactly one line on stderr, never a traceback.
"""

import copy
import json
import os
import random

import pytest

from limitdl.cli import main
from oracles import deadline

FIX = os.path.join(os.path.dirname(__file__), "..", "fixtures")
SEED = 1
CASES = 200  # per fixture

# one value of each JSON type, and a few that readers trip on
OTHERS = [None, True, 0, -1, 2 ** 70, 1.5, "", "a", [], [1], {},
          {"s": "a"}, {"top": "S"}, {"kind": "all"}]


def _sites(x):
    """Every (container, key or index) position in a JSON value."""
    items = x.items() if isinstance(x, dict) else \
        enumerate(x) if isinstance(x, list) else ()
    for k, y in list(items):
        yield x, k
        yield from _sites(y)


def _is_name(v):
    return isinstance(v, dict) and len(v) == 1 and \
        next(iter(v)) in ("top", "s", "app", "table")


def mutate(doc, rng: random.Random):
    """doc with one mutation, and what the mutation was."""
    doc = copy.deepcopy(doc)
    sites = list(_sites(doc))
    op = rng.choice(["drop", "add", "retype", "swap", "swap"])
    parent, key = rng.choice(sites)
    if op == "drop":
        del parent[key]
    elif op == "add":
        if isinstance(parent, dict):
            parent["junk"] = rng.choice(OTHERS)
        else:
            parent.insert(key, rng.choice(OTHERS))
    elif op == "retype":
        parent[key] = rng.choice([v for v in OTHERS
                                  if type(v) is not type(parent[key])])
    else:
        names = [s for s in sites if _is_name(s[0][s[1]])]
        (p1, k1), (p2, k2) = rng.sample(names if len(names) > 1 else sites, 2)
        p1[k1], p2[k2] = p2[k2], p1[k1]
    return doc, f"{op} at {key!r}"


def _check(capsys, argv, what):
    try:
        rc = main(argv)
    except BaseException as e:  # a traceback the CLI let through
        pytest.fail(f"{what}: {type(e).__name__}: {e}", pytrace=False)
    err = capsys.readouterr().err
    assert rc in (0, 1, 2), (what, rc, err)
    if rc:
        assert len(err.strip().splitlines()) == 1, (what, err)
        assert "Traceback" not in err, what


def _fixture(*parts):
    with open(os.path.join(FIX, *parts), encoding="utf-8") as fh:
        return json.load(fh)


def test_mutated_witnesses_exit_cleanly(capsys, tmp_path):
    witness = _fixture("integral256.model.json")
    rng = random.Random(SEED)
    path = tmp_path / "m.json"
    with deadline(5):
        for i in range(CASES):
            doc, what = mutate(witness, rng)
            path.write_text(json.dumps(doc))
            _check(capsys, ["verify-model", os.path.join(
                FIX, "integral256.lchc"), str(path)], f"case {i}: {what}")


@pytest.mark.parametrize("name", ["m1", "m2", "m3"])
def test_mutated_machines_exit_cleanly(capsys, tmp_path, name):
    machine = _fixture("lcm", f"{name}.json")
    state, values = _fixture("lcm", "targets.json")[name][0]
    target = ",".join([state, *map(str, values)])
    rng = random.Random(SEED)
    path = tmp_path / "m.json"
    with deadline(5):
        for i in range(CASES):
            doc, what = mutate(machine, rng)
            path.write_text(json.dumps(doc))
            _check(capsys, ["encode-lcm", str(path), "--target", target],
                   f"case {i}: {what}")
