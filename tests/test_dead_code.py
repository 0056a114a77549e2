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


def _name_of(node: ast.AST) -> str | None:
    """The name node reads, as a bare name or an attribute."""
    return node.id if isinstance(node, ast.Name) else node.attr \
        if isinstance(node, ast.Attribute) else None


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


def _named_outside_presburger(names: set[str]) -> list[str]:
    """Where a library module other than presburger.py names one of names
    (as a bare name, an attribute or an import)."""
    named = []
    for mod, tree in _modules():
        if mod == "presburger.py":
            continue
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name) else node.attr
                    if isinstance(node, ast.Attribute) else node.name
                    if isinstance(node, ast.alias) else None)
            if name in names:
                named.append(f"{mod}:{node.lineno} {name}")
    return named


def test_only_presburger_names_cooper():
    assert _named_outside_presburger(COOPER) == []


# a descriptor's complement is written by Theory (complement_formula) and
# an outcome's negation by the model checker (_atom_formula), so no other
# module negates a formula
NEGATION = {"Not", "neg_f", "implies"}


def test_only_presburger_names_negation():
    assert _named_outside_presburger(NEGATION) == []


# the solve path: the branch walk and the conjunction solver behind it.
# It reads cmp_atom's literal form and no negation, so no function it runs
# may name Cooper's strict-'<' NNF or Cooper itself
SOLVE_PATH = {"_lits_of", "_leaves", "_child", "_admit",
              "_box_refutes", "_term_min", "_merge",
              "_pin_units", "_sat_lits", "_sat_reduced",
              "reduce_conj", "sat_exists_all", "branches", "branch_child",
              "sat_branch", "recession_cone"}
COOPER_NNF = {"_nnf", "nnf", "_lt", "_cooper", "eliminate", "decide"}


def _presburger_functions() -> dict[str, ast.FunctionDef]:
    tree = dict(_modules())["presburger.py"]
    return {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef)}


def test_solve_path_never_names_cooper_nnf():
    """Every presburger.py function that a solve-path function calls,
    directly or through others, is checked too."""
    funcs = _presburger_functions()
    assert SOLVE_PATH <= funcs.keys()
    todo, seen, named = list(SOLVE_PATH), set(SOLVE_PATH), []
    while todo:
        name = todo.pop()
        for node in ast.walk(funcs[name]):
            ref = _name_of(node)
            if ref in COOPER_NNF:
                named.append(f"{name}:{node.lineno} {ref}")
            elif ref in funcs and ref not in seen:
                seen.add(ref)
                todo.append(ref)
    assert named == []


def test_solve_path_reads_no_negation():
    """The walk's input is what the library builds, with every negation
    already written positively, so no solve-path function itself names a
    negation or the op table that negates a comparison.  (subst, which the
    path calls, keeps its Not case for the tests' reference formulas.)"""
    funcs = _presburger_functions()
    named = [f"{name}:{node.lineno} {_name_of(node)}"
             for name in sorted(SOLVE_PATH)
             for node in ast.walk(funcs[name])
             if _name_of(node) in {"Not", "neg_f", "_NEG_OP"}]
    assert named == []


def test_only_cmp_atom_and_cooper_build_comparisons():
    """Every Cmp of the library is built by cmp_atom, so it is in the one
    literal form, except Cooper's strict literals (_lt).  The walk reads a
    '<=' row as it stands: a raw '<' there would be read as '<='."""
    builders = [f"{mod} {scope}" for mod, tree in _modules()
                for scope in _scopes_of(tree, lambda node: isinstance(
                    node, ast.Call) and _name_of(node.func) == "Cmp")]
    assert sorted(builders) == ["presburger.py _lt",
                                "presburger.py cmp_atom"]


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


def test_no_function_level_imports():
    """Every import of the library is at module level: an import run at
    call time resolves its module through sys.modules then, so a process
    that has imported another copy of the library mixes the two."""
    found = []
    for mod, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{mod}:{n.lineno} in {node.name}"
                          for n in ast.walk(node)
                          if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert found == []


# a membership formula is written once per structure, key and polarity, so
# in entwined.py only that memo asks the theory for one
MEMBERSHIP_WRITERS = {"upset_formula", "complement_formula"}


def _scopes_of(tree: ast.Module, hit) -> list[str]:
    """The qualified name of the innermost function around each node for
    which hit holds, module level as '<module>'."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                inner = child.name if scope == "<module>" \
                    else f"{scope}.{child.name}"
                visit(child, inner)
                continue
            if hit(child):
                found.append(scope)
            visit(child, scope)

    visit(tree, "<module>")
    return found


def test_only_the_structures_memo_writes_memberships():
    """In entwined.py, EntwinedStructure.membership is the one caller of
    upset_formula and complement_formula; extract_upset asks for one box
    of the complement at a time, as its rows (piece_rows), which are not a
    membership of a frame value."""
    callers = _scopes_of(dict(_modules())["entwined.py"],
                         lambda node: _name_of(node) in MEMBERSHIP_WRITERS)
    assert set(callers) == {"EntwinedStructure.membership"}, callers


def test_no_module_reads_anothers_private_names():
    """A library module reads another library module's names only through
    its public ones: no attribute access M._name where M is a library
    module bound by an import (the solve path's node steps are reached
    through branch_child and sat_branch, not P._child or P._admit)."""
    found = []
    for mod, tree in _modules():
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 \
                    and node.module is None:
                aliases |= {a.asname or a.name for a in node.names}
            elif isinstance(node, ast.Import):
                aliases |= {a.asname for a in node.names
                            if a.asname and a.name.startswith("limitdl.")}
        found += [f"{mod}:{node.lineno} {node.value.id}.{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in aliases
                  and node.attr.startswith("_")
                  and not node.attr.endswith("__")]
    assert found == []
