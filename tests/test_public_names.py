"""Every public function of ``flowsearch`` has a caller outside the tests.

A public module-level function must be named somewhere in ``src/``,
``bench/`` or ``tools/`` outside its own definition: as a name, an
attribute, an imported name, or a string (the benchmark binds functions by
``getattr``).  A function only the tests call belongs beside them, in
``tests/reference.py``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "flowsearch"

# (module, function): why it stays without a caller outside the tests.
KEPT = {
    ("rewards", "guided_score"): "the reward-tilted score that criterion 12 checks",
}


def _names(node, skip):
    """Every name that ``node`` spells, outside the subtree ``skip``."""
    if node is skip:
        return
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.alias):
        yield node.name.split(".")[-1]
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        yield node.value
    for child in ast.iter_child_nodes(node):
        yield from _names(child, skip)


def test_every_public_function_is_named_outside_the_tests():
    trees = {path: ast.parse(path.read_text())
             for folder in ("src", "bench", "tools") if (ROOT / folder).is_dir()
             for path in sorted((ROOT / folder).rglob("*.py"))}
    uncalled = [(path.stem, node.name)
                for path in sorted(PACKAGE.glob("*.py")) for node in trees[path].body
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                and not any(node.name in _names(tree, node) for tree in trees.values())]
    assert sorted(set(uncalled) - set(KEPT)) == []
    assert set(KEPT) <= set(uncalled), "a kept function has gained a caller: drop its entry"
