import ast
from pathlib import Path

import delpezzo

# Library names that no library code uses, each with the reason it stays.
_UNCALLED = {
    "blow_up": "perfbench/spans.py times it by name, as the lattice.blow_up span",
    "exceptional_graph": "the toric route of the descent cross-check",
    "on_curve_coefficients": "the closed-form reference of the option-shape and transform tests",
    "node_coefficients": "the closed-form reference of the option-shape and transform tests",
    "random_pseudo_fundamental_ladders": "the fuzz oracle and the fuzz-ladders benchmark workload",
}


def test_every_exported_name_resolves():
    # a deleted function must not stay in the export list
    assert [name for name in delpezzo.__all__ if not hasattr(delpezzo, name)] == []
    assert len(set(delpezzo.__all__)) == len(delpezzo.__all__)
    namespace = {}
    exec("from delpezzo import *", namespace)
    assert set(delpezzo.__all__) <= namespace.keys()


def test_every_library_name_has_a_library_caller():
    # a function, method or class that only tests use goes; a re-export in
    # __init__.py is not a use, and neither is a string or a docstring.  The
    # comparison is exact, so a listed name that gains a caller fails too.
    trees = [ast.parse(path.read_text()) for path in Path(delpezzo.__file__).parent.glob("*.py")
             if path.name != "__init__.py"]
    defined, used = set(), set()
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    defined = {name for name in defined if not (name.startswith("__") and name.endswith("__"))}
    uncalled = defined - used
    orphans, called = sorted(uncalled - _UNCALLED.keys()), sorted(_UNCALLED.keys() - uncalled)
    assert orphans == [], f"no library caller: {orphans}"
    assert called == [], f"listed, but a library caller uses it now: {called}"
