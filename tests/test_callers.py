"""Every function, class and method defined in src/ has a caller.

A name counts as used when it is read (as a name, an attribute or a
string constant, e.g. a `__dict__` key) somewhere in src/, tests/ or
perfbench/, outside its own definition.  An import, such as a package's
re-export, is not a read.  Dunder methods are called by the language and
are skipped.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _reads(tree: ast.AST) -> Counter:
    names: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names[node.value] += 1
    return names


def test_every_definition_has_a_caller():
    reads: Counter = Counter()
    defs = []
    for top in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            reads.update(_reads(tree))
            if top == "src":
                defs += [(path, node) for node in ast.walk(tree) if isinstance(node, _DEFS)]
    unused = [
        f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
        for path, node in defs
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and reads[node.name] <= _reads(node)[node.name]
    ]
    assert not unused, "defined but never used:\n" + "\n".join(unused)
