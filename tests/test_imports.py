"""The package's import order, read from the sources with `ast`:

    errors, rng <- graph <- labels <- {synthgen, dataio, pipeline} <- cli

The generator and the readers share the labeled-data types with the
trainer through `labels`, so neither imports the trainer or the model, and
no module hides an import inside a function.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "chainrisk")


def _parse(name):
    with open(os.path.join(SRC, f"{name}.py"), encoding="utf-8") as fh:
        return ast.parse(fh.read())


MODULES = {f[:-3]: _parse(f[:-3]) for f in sorted(os.listdir(SRC)) if f.endswith(".py")}


def _imported_modules(node):
    """The chainrisk modules an Import or ImportFrom node names."""
    if isinstance(node, ast.Import):
        parts = [alias.name.split(".") for alias in node.names]
        return {p[1] if len(p) > 1 else "__init__" for p in parts if p[0] == "chainrisk"}
    if node.level == 0 and (node.module or "").split(".")[0] != "chainrisk":
        return set()
    module = (node.module or "").split(".")
    if node.level == 0:
        module = module[1:]
    return {module[0]} if module and module[0] else {alias.name for alias in node.names}


def package_imports(name):
    return set().union(*[_imported_modules(node) for node in ast.walk(MODULES[name])
                         if isinstance(node, (ast.Import, ast.ImportFrom))])


def test_parser_sees_relative_and_absolute_forms():
    tree = ast.parse("from . import rng as r\nfrom .graph import spmm\nimport chainrisk.nn\n"
                     "from chainrisk import dataio\nfrom chainrisk.model import Workspace\nimport numpy\n")
    found = set().union(*map(_imported_modules, tree.body))
    assert found == {"rng", "graph", "nn", "dataio", "model"}


def test_graph_imports_only_errors():
    assert package_imports("graph") <= {"errors"}


def test_labels_imports_only_errors_graph_and_rng():
    assert "labels" in MODULES
    assert package_imports("labels") <= {"errors", "graph", "rng"}


@pytest.mark.parametrize("name", ["synthgen", "dataio"])
def test_generator_and_readers_do_not_import_the_trainer(name):
    assert not package_imports(name) & {"pipeline", "model"}


def test_nothing_imports_cli():
    assert [name for name in MODULES if "cli" in package_imports(name)] == []


def test_no_function_level_imports():
    local = [(name, node.lineno) for name, tree in MODULES.items() for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in tree.body]
    assert local == []
