"""Every function, class and method defined in src/ has a caller, every
defaulted parameter of one is passed by some call, every one serves a
run or the declared library API, and every field of a dataclass there is
read.

A name counts as used when it is read (as a name, an attribute or a
string constant, e.g. a `__dict__` key) somewhere in src/, tests/ or
perfbench/, outside its own definition.  An import, such as a package's
re-export, is not a read.  Dunder methods are called by the language and
are skipped.

A definition serves a run or the API when the name-level call graph of
src/ reaches it from a root: `cli.main` and the module-level code of src/
(tables such as `cli._RUNNERS`), a name the two package `__init__.py`
files re-export, or a name read by tests/test_acceptance.py or perfbench/.
A definition only the other tests reach belongs in tests/, as an oracle
in tests/oracles.py or inline in the test.
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


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _nested(node: ast.AST):
    """The definitions inside `node` that no other definition inside it holds."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _DEFS):
            yield child
        else:
            yield from _nested(child)


def _own_reads(node: ast.AST) -> Counter:
    """The reads of `node` outside the definitions nested in it, which are
    reached by name on their own; a dunder method's reads count as its
    class's, since the language calls it."""
    reads = _reads(node)
    for child in _nested(node):
        if not _dunder(child.name):
            reads -= _reads(child)
    return reads


def test_src_serves_a_run_or_the_declared_api():
    calls: dict[str, set] = {}  # name -> the reads of every src definition of that name
    defs = []  # (path, node, dotted name)
    roots = {"main"}

    def collect(path: Path, node: ast.AST, owner: str) -> None:
        for child in _nested(node):
            defs.append((path, child, owner + child.name))
            calls.setdefault(child.name, set()).update(_own_reads(child))
            collect(path, child, f"{owner}{child.name}.")

    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        roots.update(_own_reads(tree))
        collect(path, tree, "")
        if path.name == "__init__.py":
            roots.update(
                alias.asname or alias.name
                for node in tree.body
                if isinstance(node, ast.ImportFrom)
                for alias in node.names
            )
    for path in [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").rglob("*.py"))]:
        roots.update(_reads(ast.parse(path.read_text(encoding="utf-8"))))
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(calls.get(name, ()))
    stray = [
        f"{path.relative_to(ROOT)}:{node.lineno} {dotted}"
        for path, node, dotted in defs
        if not _dunder(node.name) and node.name not in reached
    ]
    assert not stray, "reached by neither a run nor the declared API:\n" + "\n".join(stray)


def _loads(tree: ast.AST) -> set:
    """The names `tree` loads, as a name or an attribute, and its string
    constants."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def _is_dataclass(node: ast.ClassDef) -> bool:
    """Whether `node` is decorated by `dataclass`, called or not."""
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if "dataclass" in (getattr(target, "id", None), getattr(target, "attr", None)):
            return True
    return False


def test_every_dataclass_field_is_read():
    """Each field annotated in a dataclass of src/ is read somewhere in
    src/, tests/ or perfbench/, as a loaded attribute, a loaded name or a
    string constant.  Passing a field to the constructor is not a read; a
    field is matched by name alone."""
    reads: set = set()
    fields = []
    for top in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            reads |= _loads(tree)
            if top == "src":
                fields += [
                    (path, stmt, f"{node.name}.{stmt.target.id}")
                    for node in ast.walk(tree)
                    if isinstance(node, ast.ClassDef) and _is_dataclass(node)
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                ]
    unread = [
        f"{path.relative_to(ROOT)}:{stmt.lineno} {dotted}"
        for path, stmt, dotted in fields
        if stmt.target.id not in reads
    ]
    assert not unread, "dataclass fields that nothing reads:\n" + "\n".join(unread)
