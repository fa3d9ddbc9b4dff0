"""`dataio` reads every input file one way, read from its source with `ast`:

    read_* -> _read (bytes and SHA-256, once a file)
           -> _read_table / _parse_nodes / _parse_edges -> _parse_table
           -> _bulk_rows (np.loadtxt), or _parse_rows when it declines

so every file gets the bulk path, the row parser, the file's check and the
parsed-input cache the same way.
"""

import ast
import os

import pytest

SOURCE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "chainrisk", "dataio.py")


def _name(func):
    """`f` for a call of `f(...)`, `a.b` for a call of `a.b(...)`, else None."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return f"{func.value.id}.{func.attr}"
    return None


def _calls():
    """{function: the names it calls} for each top-level function of dataio."""
    with open(SOURCE, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return {node.name: {_name(call.func) for call in ast.walk(node) if isinstance(call, ast.Call)} - {None}
            for node in tree.body if isinstance(node, ast.FunctionDef)}


CALLS = _calls()
READERS = sorted(name for name in CALLS if name.startswith("read_"))


def callers(name):
    return {caller for caller, called in CALLS.items() if name in called}


def reached(start):
    """The functions of dataio that `start` calls, directly or through others."""
    seen, todo = set(), [start]
    while todo:
        for name in CALLS[todo.pop()] & CALLS.keys() - seen:
            seen.add(name)
            todo.append(name)
    return seen


def test_every_reader_is_found():
    assert READERS == ["read_graph", "read_ground_truth", "read_mined_edges", "read_node_labels", "read_pair_labels"]


# each function that reads or parses input, and the only functions that call it
ONLY_CALLERS = {
    "np.loadtxt": {"_bulk_rows"},
    "_bulk_rows": {"_parse_table"},
    "_parse_rows": {"_parse_table"},
    "_parse_table": {"_read_table", "_parse_nodes", "_parse_edges"},
    "_read_bytes": {"_read"},
}


@pytest.mark.parametrize("name", ONLY_CALLERS)
def test_one_caller_chain(name):
    assert callers(name) == ONLY_CALLERS[name]


@pytest.mark.parametrize("reader", READERS)
def test_readers_parse_only_through_the_table_reader(reader):
    assert {"_read", "_parse_table"} <= reached(reader)
