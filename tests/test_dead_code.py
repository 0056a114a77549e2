"""No dead functions in the library.

Every function and method defined in `src/limitdl` must be referenced by
name somewhere in `src/limitdl` outside its own body (as a bare name or an
attribute).  Names are matched without scopes, so a reference to any
function of that name counts; dunder methods are called by the language
and are exempt.
"""

import ast
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "limitdl")

# entry points that only callers outside the library use
ALLOWED = {
    "saturate",  # one-call refutation search, for tests and library users
    "from_json",  # ProofTrace.from_json: reads what --emit-proof writes
    "decide",  # Cooper decision of a sentence: the tests' arithmetic oracle
}


def _modules():
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                yield name, ast.parse(fh.read(), filename=name)


def unreferenced_functions() -> list[str]:
    defs = []  # (module, name, first line, last line)
    refs = []  # (module, name, line)
    for mod, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append((mod, node.name, node.lineno, node.end_lineno))
            elif isinstance(node, ast.Name):
                refs.append((mod, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.append((mod, node.attr, node.lineno))
    dead = []
    for mod, name, lo, hi in defs:
        if name in ALLOWED or (name.startswith("__") and name.endswith("__")):
            continue
        if not any(n == name and not (m == mod and lo <= line <= hi)
                   for m, n, line in refs):
            dead.append(f"{mod}:{lo} {name}")
    return dead


def test_every_function_is_referenced():
    assert unreferenced_functions() == []


# Cooper quantifier elimination is the reference the fast path is tested
# against; no solve path of the library may run it
COOPER = {"eliminate", "decide", "_cooper"}


def test_only_presburger_names_cooper():
    named = []
    for mod, tree in _modules():
        if mod == "presburger.py":
            continue
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name) else node.attr
                    if isinstance(node, ast.Attribute) else node.name
                    if isinstance(node, ast.alias) else None)
            if name in COOPER:
                named.append(f"{mod}:{node.lineno} {name}")
    assert named == []


# the solve path: the branch walk and the conjunction solver behind it.
# It keeps cmp_atom's literal form and negates by flipping an op, so no
# function it runs may name Cooper's strict-'<' NNF or Cooper itself
SOLVE_PATH = {"_lits_of", "_wnnf", "_walk", "_leaves", "_child", "_admit",
              "_box_refutes", "_term_min", "_merge",
              "_to_le", "_pin_units", "_sat_lits", "_sat_reduced",
              "reduce_conj", "sat_exists_all", "branches", "recession_cone"}
COOPER_NNF = {"_nnf", "nnf", "_lt", "_cooper", "eliminate", "decide"}


def test_solve_path_never_names_cooper_nnf():
    """Every presburger.py function that a solve-path function calls,
    directly or through others, is checked too."""
    tree = dict(_modules())["presburger.py"]
    funcs = {node.name: node for node in tree.body
             if isinstance(node, ast.FunctionDef)}
    assert SOLVE_PATH <= funcs.keys()
    todo, seen, named = list(SOLVE_PATH), set(SOLVE_PATH), []
    while todo:
        name = todo.pop()
        for node in ast.walk(funcs[name]):
            ref = (node.id if isinstance(node, ast.Name) else node.attr
                   if isinstance(node, ast.Attribute) else None)
            if ref in COOPER_NNF:
                named.append(f"{name}:{node.lineno} {ref}")
            elif ref in funcs and ref not in seen:
                seen.add(ref)
                todo.append(ref)
    assert named == []


def test_no_module_imports_dataclasses():
    """Record classes are plain slotted classes on limitdl.record.Record,
    so importing the library generates and runs no methods."""
    found = []
    for mod, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{mod}:{node.lineno} {n}" for n in names
                      if n.split(".")[0] == "dataclasses"]
    assert found == []
    # nor does anything the library imports
    code = "import sys, limitdl.cli; print('dataclasses' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=os.path.dirname(SRC)))
    assert out.stdout.strip() == "False"


def test_no_module_runs_generated_code():
    """Nothing in the library builds code at run time: no call of exec,
    eval or compile, bare or through builtins."""
    found = []
    for mod, tree in _modules():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            name = fn.id if isinstance(fn, ast.Name) else fn.attr \
                if isinstance(fn, ast.Attribute) and \
                isinstance(fn.value, ast.Name) and \
                fn.value.id == "builtins" else None
            if name in ("exec", "eval", "compile"):
                found.append(f"{mod}:{node.lineno} {name}")
    assert found == []
