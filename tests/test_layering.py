"""Import layering of the package, read from the source with ``ast``.

Module-level package imports only point down the stack
``seeds, lob, analysis -> stgp -> traders -> harness -> coevo -> cli``;
no import is hidden inside a function to dodge a cycle.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "coevomarket"

LAYERS = [{"seeds", "lob", "analysis"}, {"stgp"}, {"traders"}, {"harness"},
          {"coevo"}, {"cli"}]
RANK = {name: i for i, layer in enumerate(LAYERS) for name in layer}

# stgp.run_generation needs the harness until the genome code and the
# evolution code live in separate modules.
ALLOWED_LOCAL = {("stgp", "run_generation", "harness")}


def _package_targets(node):
    """Package modules named by one import statement."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 0:
            if node.module and node.module.startswith("coevomarket."):
                return [node.module.split(".")[1]]
            return []
        if node.module:
            return [node.module.split(".")[0]]
        return [alias.name for alias in node.names]
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[1] for alias in node.names
                if alias.name.startswith("coevomarket.")]
    return []


def _modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf8"))
            for path in sorted(PACKAGE.glob("*.py"))
            if path.stem != "__init__"}


def test_every_module_has_a_layer():
    assert set(_modules()) == set(RANK)


def test_module_level_imports_point_down_the_stack():
    upward = []
    for name, tree in _modules().items():
        for node in tree.body:
            for target in _package_targets(node):
                if RANK[target] >= RANK[name]:
                    upward.append(f"{name} -> {target}")
    assert upward == []


def test_no_function_local_package_imports():
    local = set()
    for name, tree in _modules().items():
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                for target in _package_targets(node):
                    local.add((name, func.name, target))
    assert local == ALLOWED_LOCAL
