"""Every public module-level function and class of the library has a caller.

A name counts as used when the library itself, a demo, a benchmark, a tool
or perfbench refers to it outside its own definition, or when an
acceptance criterion names it.  The unit tests do not count: a function
that only its own tests call is not part of the pipeline.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "solartwin").glob("*.py"))
USERS = [
    path
    for folder in ("demos", "benchmarks", "tools", "perfbench")
    for path in sorted((ROOT / folder).rglob("*.py"))
] + [ROOT / "tests" / "test_acceptance.py"]


def _names(nodes) -> set:
    """Every name the nodes refer to: bare names, attributes and imports."""
    found = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                found.add(sub.attr)
            elif isinstance(sub, ast.alias):
                found.add(sub.name)
    return found


def _public_definitions(tree: ast.Module) -> list:
    return [
        node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def test_every_public_definition_has_a_caller():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in LIBRARY + USERS}
    unused = []
    for path in LIBRARY:
        for definition in _public_definitions(trees[path]):
            # the module itself, less the definition, then every other file
            rest = [node for node in trees[path].body if node is not definition]
            others = [trees[other] for other in trees if other != path]
            if definition.name not in _names(rest + others):
                unused.append(f"{path.stem}.{definition.name}")
    assert unused == []
