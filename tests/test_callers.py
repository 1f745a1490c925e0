"""Every function, class and method defined in src/ has a caller, and
every defaulted parameter of one is passed by some call.

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


_EVERY = "*"  # stands for every parameter: the call spreads *args or **kwargs


def _defaulted(node: ast.FunctionDef | ast.AsyncFunctionDef) -> list[tuple[str, set]]:
    """Each defaulted parameter's name, with the keys a call may pass it by:
    its name and, unless it is keyword-only, its position.  A leading
    `self` or `cls` is skipped."""
    args = node.args
    positional = args.posonlyargs + args.args
    if positional and positional[0].arg in ("self", "cls"):
        positional = positional[1:]
    first = len(positional) - len(args.defaults)
    out = [(a.arg, {a.arg, i}) for i, a in enumerate(positional) if i >= first]
    return out + [
        (a.arg, {a.arg}) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
    ]


def _passed(call: ast.Call) -> set:
    """The positions and keyword names a call passes."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
        k.arg is None for k in call.keywords
    ):
        return {_EVERY}
    return set(range(len(call.args))) | {k.arg for k in call.keywords}


def test_every_defaulted_parameter_is_passed():
    """Each defaulted parameter of a function or method in src/ is passed,
    by keyword or by position, by some call in src/, tests/ or perfbench/.
    A call is matched to a definition by name alone."""
    passed: dict[str, set] = {}
    defs = []
    for top in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    passed.setdefault(name, set()).update(_passed(node))
                elif top == "src" and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defs.append((path, node))
    never = [
        f"{path.relative_to(ROOT)}:{node.lineno} {node.name}({param})"
        for path, node in defs
        for param, keys in _defaulted(node)
        if not passed.get(node.name, set()) & (keys | {_EVERY})
    ]
    assert not never, "defaulted parameters that no call passes:\n" + "\n".join(never)
