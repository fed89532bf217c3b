"""Every public name of the library has a caller.

A module-level function or class counts as used when the library itself, a
demo, a benchmark, a tool or perfbench refers to it outside its own
definition, or when an acceptance criterion names it.  A public method,
property or annotated field of a public class counts as used when, in the
same places, its name is read as an attribute or appears as a string
constant outside its own definition.  The unit tests do not count: a name
that only its own tests use is not part of the pipeline.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "solartwin").glob("*.py"))
USERS = [
    path
    for folder in ("demos", "benchmarks", "tools", "perfbench")
    for path in sorted((ROOT / folder).rglob("*.py"))
] + [ROOT / "tests" / "test_acceptance.py"]


def _names(node) -> Counter:
    """How often the node's subtree refers to each name: bare names,
    attributes and imports."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found[sub.name] += 1
    return found


def _reads(node) -> Counter:
    """How often the node's subtree reads each attribute name or holds each
    string constant."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            found[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found[sub.value] += 1
    return found


def _public_definitions(tree: ast.Module) -> list:
    return [
        node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def _public_members(cls: ast.ClassDef) -> list:
    """(name, node) of each public method, property and annotated field."""
    members = []
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            members.append((node.name, node))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            members.append((node.target.id, node))
    return [(name, node) for name, node in members if not name.startswith("_")]


def _unused(count, definitions) -> list:
    """The label of each (label, name, node) definition whose name count
    finds in no file except inside node."""
    trees = [ast.parse(path.read_text(), str(path)) for path in LIBRARY + USERS]
    everywhere = sum(map(count, trees), Counter())
    return [
        label
        for label, name, node in definitions(trees[: len(LIBRARY)])
        if everywhere[name] <= count(node)[name]
    ]


def test_every_public_definition_has_a_caller():
    def definitions(library):
        for path, tree in zip(LIBRARY, library):
            for node in _public_definitions(tree):
                yield f"{path.stem}.{node.name}", node.name, node

    assert _unused(_names, definitions) == []


def test_every_public_member_has_a_reader():
    def members(library):
        for path, tree in zip(LIBRARY, library):
            for cls in _public_definitions(tree):
                if isinstance(cls, ast.ClassDef):
                    for name, node in _public_members(cls):
                        yield f"{path.stem}.{cls.name}.{name}", name, node

    assert _unused(_reads, members) == []


def _aliases(trees) -> dict:
    """Imported name of each ``import ... as`` alias in any file."""
    return {
        alias.asname: alias.name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if alias.asname
    }


def _calls(trees, aliases):
    """(callee name, positional args, keyword names) of every call in the
    trees; ``benchmark(f, *args, **kwargs)`` counts as a call of f."""
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func, args = node.func, node.args
            if isinstance(func, ast.Name) and func.id == "benchmark" and args:
                func, args = args[0], args[1:]
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            yield aliases.get(name, name), args, [kw.arg for kw in node.keywords]


def _omits(call, params, name) -> bool:
    """Whether the call leaves parameter name to its default; a starred
    argument could fill any parameter, so it omits none."""
    _, args, keywords = call
    if None in keywords or any(isinstance(arg, ast.Starred) for arg in args):
        return False
    return name not in keywords and name not in params[: len(args)]


def test_every_parameter_default_is_omitted_by_a_caller():
    trees = [ast.parse(path.read_text(), str(path)) for path in LIBRARY + USERS]
    calls = list(_calls(trees, _aliases(trees)))
    overridden = []
    for path, tree in zip(LIBRARY, trees):
        for fn in _public_definitions(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            params = [arg.arg for arg in fn.args.posonlyargs + fn.args.args]
            defaulted = params[len(params) - len(fn.args.defaults):] + [
                arg.arg
                for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                if default is not None
            ]
            own = [call for call in calls if call[0] == fn.name]
            overridden += [
                f"{path.stem}.{fn.name}({name})"
                for name in defaulted
                if own and not any(_omits(call, params, name) for call in own)
            ]
    assert overridden == []
