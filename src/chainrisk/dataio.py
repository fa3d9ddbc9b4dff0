"""Text dataset formats, digests, and the run manifest.

All files are UTF-8 with LF line endings and `.` decimals. Floats are
written with shortest round-trip repr, so a load-save cycle is lossless.

  nodes.csv       header `id,kind,f1..fF`, one row per node
  edges.tsv       `u<TAB>v<TAB>e1..eFe`, one line per undirected edge, u < v
  labels_dp.tsv   `node<TAB>label`
  labels_sc.tsv   `u<TAB>v<TAB>label`
  ground_truth.tsv  typed rows: `supply u v hidden` and `node id tier label`
  mined_edges.tsv `u<TAB>v<TAB>score`
  roc_points.tsv  `fpr<TAB>tpr`
  scores_dp.tsv   `node<TAB>score`
  grid_table.tsv  a header, then one grid-search cell a line

The writers stream: they turn WRITE_CHUNK rows at a time into Python values
and write WRITE_CHUNK lines at a time (nodes.csv and edges.tsv go through
the graph WRITE_CHUNK nodes at a time), so a writer's working set does not
grow with the file. roc_points.tsv, at most one line per scored example
and one more, is built in one piece (`write_roc_points`).

Every file this module reads (nodes, edges, both label files, mined edges
and ground truth) goes through one table parser, `_parse_table`. It parses
a file in one numpy pass when the file is in the canonical grammar the
writers produce:

  - lines end in LF; no line is blank and no CR appears anywhere;
  - past the nodes.csv header, every byte is an ASCII digit, `+`, `-`, `.`,
    `e`, `E`, the separator, LF or a letter of a tag (a node kind, a
    ground-truth record type);
  - every line has the cell count of the header (nodes.csv), of the first
    line (edges.tsv) or of the format; an integer cell is `[+-]?[0-9]+`
    within int64 and a float cell is a number `float` reads in that
    alphabet.

When this bulk path declines a file, the row parser `_parse_rows` reads
it. It accepts Python `int`/`float` syntax (surrounding whitespace, `_`
digit separators, `nan`, CR and CRLF line breaks), reports the first line
it cannot convert as `path:line`, and gives the table the bulk path would.
A tag cell (a node kind, a label, a record type, a ground-truth flag)
becomes its index in its tags, -1 for any other text, so a label or flag
is exactly `0` or `1`. Then one check per file runs on the table, however
it was read, and reports the first row that breaks a rule as `path:line`:
nodes.csv ids are 0, 1, 2, ... in order and every kind is known; edges
have u < v; a label is 0 or 1; in ground_truth.tsv every record is
`supply` or `node`, node ids are 0, 1, 2, ... in node-row order, a tier
(an integer cell) is 0, 1 or 2 and every flag is 0 or 1. `read_graph`
also names the line of a row `SmeGraph.from_edge_list` rejects (an
endpoint outside the graph, a repeated edge, a non-finite feature). For a
headerless file, `row_error` names the line of a row that a later rule
rejects: a label example the `LabeledSet` built of it rejects (a pair not
in canonical order, a repeated example), or a mined-edges row `enrich`
rejects (a score outside [0, 1]).

Each of these readers hashes the bytes it reads once, with SHA-256. Given a
dict as `digests`, it also stores `path: hex digest` there for every file
it read, on either path, so a manifest can list its inputs without reading
them again.

Parsed-input cache: each text is parsed once, by whichever parser. What a
command derives from it is saved, once the file's check accepts it, as a
binary copy in CACHE_DIR beside the file: `data/.chainrisk-cache/` holds
`graph.npy` for nodes.csv and edges.tsv together, once
`SmeGraph.from_edge_list` accepts them, and `labels_dp.tsv.npy` and the
like for a label file, mined edges or ground truth. A copy is a format tag
(`_COPY_MAGIC`), the SHA-256 of each text it was made from, and its arrays
in the version 1.0 `.npy` format. The graph copy holds the CSR graph
(indptr, indices, node and edge features, each kind as its int8 index in
NODE_KINDS), its normalized adjacency (indptr, indices, values), its model
inputs (`graph.prepare_features`) and the adjacency's product with them
(`NormalizedAdjacency.propagated`), all computed from the parsed text as
`SmeGraph` computes them; a table copy holds the table, each tag as an
int8. Every later read hashes the texts it has just read and uses the copy
only when both digests match and so does each array's dtype and header,
the file ending with the last array. The copy is mapped into memory
read-only, and its arrays are read-only views of it. A loaded table must
pass its file's check; a loaded graph must have the shapes its sizes give
each array and pass the checks that need no sort: both CSR layouts in
bounds, ids rising strictly within each row, no graph row holding its own
id, known kind codes, and finite features, values, model inputs and
product. Any other copy is ignored and rewritten. A copy is written to a
temporary file and moved into place with `os.replace`, never rewritten in
place; a failed write (read-only directory, full disk) only costs the next
read a parse.
Deleting the directory is always safe, and manifests still record the
digests of the text files.
"""

import contextlib
import hashlib
import io
import itertools
import json
import math
import mmap
import os
import re
import time
import warnings

import numpy as np

from .errors import InvalidInput
from .graph import NODE_KINDS, NormalizedAdjacency, SmeGraph, first_row
from .labels import GroundTruth

# bytes of a bulk-read line besides its separator: number characters and LF
_NUMBER_BYTES = b"0123456789+-.eE\n"
# lines per write, and rows per `.tolist()` call, of the writers
WRITE_CHUNK = 1024
# the parsed-input cache: its directory beside each file, the name of the graph's
# copy there, and the first bytes of a copy, followed by the SHA-256 of each text
# it was made from and its arrays as version 1.0 `.npy` arrays
CACHE_DIR = ".chainrisk-cache"
GRAPH_COPY = "graph.npy"
# the graph copy stores spmm's output (`propagated`), so a change to spmm's summation order
# (`graph.SPMM_SLICES`, the `RowSums` layout) must bump this tag, or warm reads would serve other bytes
_COPY_MAGIC = b"CHRKTBL4"
# the arrays of the graph copy: the graph's indptr, indices, node and edge
# features, its normalized adjacency's indptr, indices and values, its model
# inputs and their product with the adjacency, and each node's kind as its
# int8 index in NODE_KINDS
_GRAPH_DTYPES = [np.dtype(code) for code in ("i8", "i8", "f8", "f8", "i8", "i8", "f8", "f8", "f8", "i1")]


def _write_lines(path, lines):
    """Write each of the iterable `lines` and an LF, WRITE_CHUNK lines per write."""
    lines = iter(lines)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        while chunk := [f"{line}\n" for line in itertools.islice(lines, WRITE_CHUNK)]:
            fh.write("".join(chunk))


def _rows(*columns):
    """zip over the rows of `columns`, (array, dtype) pairs, as Python values.

    WRITE_CHUNK rows at a time are cast to the column's dtype (None keeps
    it) and turned into lists with `.tolist()`.
    """
    arrays = [(np.asarray(a), dtype) for a, dtype in columns]
    for lo in range(0, len(arrays[0][0]), WRITE_CHUNK):
        yield from zip(*[np.asarray(a[lo:lo + WRITE_CHUNK], dtype).tolist() for a, dtype in arrays])


def write_graph(out_dir, g):
    nodes_path = os.path.join(out_dir, "nodes.csv")
    edges_path = os.path.join(out_dir, "edges.tsv")
    header = ",".join(["id", "kind", *(f"f{i + 1}" for i in range(g.node_features.shape[1]))])
    rows = enumerate(_rows((g.node_kind, None), (g.node_features, None)))
    _write_lines(nodes_path, itertools.chain(
        [header], (",".join([str(u), kind, *map(repr, x)]) for u, (kind, x) in rows)))

    _write_lines(edges_path, ("\t".join([str(u), str(v), *map(repr, row)])
                              for pairs, feats in _edge_blocks(g)
                              for (u, v), row in _rows((pairs, None), (feats, None))))
    return [nodes_path, edges_path]


def _edge_blocks(g):
    """g.undirected_edges() cut into blocks: the (pairs, features) of the
    edges whose u lies in one run of WRITE_CHUNK nodes, in key order."""
    start = 0
    for lo in range(0, g.num_nodes, WRITE_CHUNK):
        hi = min(lo + WRITE_CHUNK, g.num_nodes)
        cols = g.indices[g.indptr[lo]:g.indptr[hi]]
        rows = np.repeat(np.arange(lo, hi), np.diff(g.indptr[lo:hi + 1]))
        upper = rows < cols
        stop = start + int(np.count_nonzero(upper))
        yield np.column_stack([rows[upper], cols[upper]]), g.edge_features[start:stop]
        start = stop


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def _read(path, digests):
    """(bytes, SHA-256 digest) of `path`; a `digests` dict gets `path: hex digest`."""
    data = _read_bytes(path)
    digest = hashlib.sha256(data).digest()
    if digests is not None:
        digests[path] = digest.hex()
    return data, digest


def _parse_rows(path, data, sep, text, tags, header=False):
    """The lines of `data`, the bytes of `path`, split on `sep`, past the
    first line when there is a `header`, as a 1-d table of the structured
    dtype `text`, whose columns in `tags` hold each cell's text unchanged.

    Lines end at LF, CR or CRLF. A line holds the cells of one row: an
    integer cell is read by `int` within int64, a float cell by `float`. A
    wrong cell count, bytes that are not UTF-8, or a cell that does not
    convert raises InvalidInput naming `path:line`.
    """
    try:
        decoded = data.decode("utf-8")
    except UnicodeDecodeError as err:
        head = data[: err.start].decode("utf-8")
        lineno = 1 + head.count("\n") + head.count("\r") - head.count("\r\n")
        raise InvalidInput(f"{path}:{lineno}: not UTF-8 text") from None
    spans, width = [], 0
    for name in text.names:
        field = text[name]
        size = field.shape[0] if field.shape else 1
        spans.append((_CELL[field.base.kind], width, width + size, bool(field.shape)))
        width += size
    rows = []
    lines = io.StringIO(decoded, newline=None)
    for lineno, line in enumerate(itertools.islice(lines, int(header), None), start=1 + header):
        cells = line.rstrip("\n").split(sep)
        try:
            if len(cells) != width:
                raise ValueError(f"expected {width} cells, got {len(cells)}")
            rows.append(tuple([read(c) for c in cells[lo:hi]] if many else read(cells[lo])
                              for read, lo, hi, many in spans))
        except ValueError as err:
            raise InvalidInput(f"{path}:{lineno}: {err}") from None
    return np.array(rows, _retyped(text, dict.fromkeys(tags, "O")))


def _bulk_rows(data, sep, dtype, letters):
    """The lines of `data` (bytes) as a structured array of `dtype`, or None.

    None declines the file: a byte other than a number character, `sep`, LF
    or one of `letters`, a blank line, a line whose cell count differs from
    the dtype's, or a cell numpy cannot convert.
    """
    if data.translate(None, _NUMBER_BYTES + sep.encode() + letters):
        return None
    if data.startswith(b"\n") or b"\n\n" in data:  # loadtxt skips blank lines
        return None
    if not data:
        return np.zeros(0, dtype=dtype)
    try:
        with warnings.catch_warnings():
            # numpy 1.x reads an integer cell such as 1.0 through float, with this warning
            warnings.simplefilter("error", DeprecationWarning)
            return np.loadtxt(io.BytesIO(data), dtype=dtype, delimiter=sep, comments=None, quotechar=None,
                              ndmin=1, encoding="ascii")
    except (ValueError, DeprecationWarning):
        return None


def _line_error(path, row, reason, header=False):
    """InvalidInput naming the line of `path` that holds table row `row`,
    under the file's `header` line if it has one."""
    return InvalidInput(f"{path}:{row + 1 + header}: {reason}")


def _parse_table(path, data, sep, text, check, tags, header=False):
    """The 1-d table of the lines of `path`, past its header line if it has
    one, once `check` accepts it.

    `data` holds the bytes of `path`. `text` is the structured dtype of a
    line's cells: integers, floats, and text in the columns of `tags`, a
    dict {column: names}, which the table holds as each cell's int8 index in
    its names (-1 for another cell). A tag cell is read as text one
    character wider than the column's longest name, so a longer cell cut to
    that width matches no name. The bulk path parses the file, or the row
    parser when the bulk path declines. `check(table)` gives (row, reason)
    for the first row that breaks a rule of the file, or None; a breach
    raises InvalidInput naming `path:line`.
    """
    text = _retyped(text, {column: f"U{max(map(len, names)) + 1}" for column, names in tags.items()})
    head, _, body = data.partition(b"\n") if header else (b"", b"", data)
    letters = "".join("".join(names) for names in tags.values()).encode()
    table = None if b"\r" in head else _bulk_rows(body, sep, text, letters)
    if table is None:
        table = _parse_rows(path, data, sep, text, tags, header)
    table = _tag_codes(table, tags)
    bad = check(table)
    if bad is not None:
        raise _line_error(path, *bad, header)
    return table


def _retyped(text, types):
    """The structured dtype `text` with each column in the dict `types` of the dtype it gives."""
    return np.dtype([(name, types.get(name, text[name])) for name in text.names])


def _read_table(path, data, digest, sep, text, check, tags):
    """`_parse_table` of a headerless file, through its binary copy.

    `digest` is the SHA-256 of `data`. The copy is loaded if it matches and
    `check` accepts it; else the file is parsed and its table saved as the
    copy.
    """
    text = np.dtype(text)
    copy = os.path.join(os.path.dirname(path), CACHE_DIR, os.path.basename(path) + ".npy")
    loaded = _load_copy(copy, digest, [_retyped(text, dict.fromkeys(tags, "i1"))])
    if loaded is not None and loaded[0].ndim == 1 and check(loaded[0]) is None:
        return loaded[0]
    table = _parse_table(path, data, sep, text, check, tags)
    _save_copy(copy, digest, table)
    return table


def _load_copy(copy, digest, dtypes):
    """The arrays saved in `copy` from text of SHA-256 `digest`, one of each of
    `dtypes` in order, or None.

    The file is mapped into memory read-only and each array is a read-only
    view of its bytes there, so nothing is copied: a copy is only ever
    replaced, never rewritten in place. Each array's header is checked
    against its dtype and the bytes left in the file before the view is
    made, and the file must end with the last array.
    """
    try:
        with open(copy, "rb") as fh:
            data = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        if data.read(len(_COPY_MAGIC) + len(digest)) != _COPY_MAGIC + digest:
            return None
        arrays = []
        for dtype in dtypes:
            if np.lib.format.read_magic(data) != (1, 0):
                return None
            shape, fortran, stored = np.lib.format.read_array_header_1_0(data)
            start, count = data.tell(), math.prod(shape)
            if stored != dtype or fortran or start + count * dtype.itemsize > len(data):
                return None
            arrays.append(np.frombuffer(data, dtype, count, start).reshape(shape))
            data.seek(start + count * dtype.itemsize)
        return arrays if data.tell() == len(data) else None
    except (OSError, ValueError, EOFError):
        return None


def _save_copy(copy, digest, *arrays):
    """Save `arrays` as `copy` atomically; on OSError leave no copy and no temporary file."""
    tmp = f"{copy}.{os.getpid()}.tmp"
    try:
        os.makedirs(os.path.dirname(copy), exist_ok=True)
        with open(tmp, "wb") as fh:
            fh.write(_COPY_MAGIC + digest)
            for array in arrays:
                np.lib.format.write_array(fh, array, version=(1, 0), allow_pickle=False)
        os.replace(tmp, copy)
    except OSError:
        with contextlib.suppress(OSError):
            os.remove(tmp)


def _int(cell):
    value = int(cell)
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"{cell!r} is out of the int64 range")
    return value


# how the row parser reads a cell of each dtype kind: integer, float, text
_CELL = {"i": _int, "f": float, "U": str}


def _tag_codes(table, tags):
    """`table` with each column of `tags`, held as text, turned into each
    cell's int8 index in the column's names (-1 for another cell)."""
    if not tags:
        return table
    coded = np.empty(table.size, _retyped(table.dtype, dict.fromkeys(tags, "i1")))
    for name in coded.dtype.names:
        coded[name] = -1 if name in tags else table[name]
    for column, names in tags.items():
        for code, name in enumerate(names):
            coded[column][table[column] == name] = code
    return coded


def _node_rules(table):
    """The first row of a nodes.csv table whose id is not its row number or whose kind is unknown."""
    kinds = table["kind"]
    return _first_breach(first_row(table["id"] != np.arange(table.size), "ids must be dense and ordered"),
                         first_row((kinds < 0) | (kinds >= len(NODE_KINDS)), f"node kind must be one of {NODE_KINDS}"))


def _first_breach(*breaches):
    """The (row, reason) of the earliest row among `breaches`, `first_row`
    results of a file's rules (the first rule given wins a tie), or None."""
    return min(filter(None, breaches), key=lambda breach: breach[0], default=None)


def _first_line(data):
    """The bytes of `data` up to its first LF or CR."""
    return re.match(rb"[^\r\n]*", data)[0]


def _parse_nodes(path, data):
    """(kind codes, X) of nodes.csv: `_parse_table` of its bytes `data`."""
    try:
        header = _first_line(data).decode("utf-8").split(",")
    except UnicodeDecodeError:
        raise InvalidInput(f"{path}:1: not UTF-8 text") from None
    if header[:2] != ["id", "kind"]:
        raise InvalidInput(f"{path}:1: expected header starting with id,kind")
    text = np.dtype([("id", "i8"), ("kind", "U"), ("f", "f8", (len(header) - 2,))])
    table = _parse_table(path, data, ",", text, _node_rules, {"kind": NODE_KINDS}, header=True)
    return np.ascontiguousarray(table["kind"]), np.ascontiguousarray(table["f"])


def _parse_edges(path, data):
    """(pairs, features) of edges.tsv: `_parse_table` of its bytes `data`."""
    width = max(2, _first_line(data).count(b"\t") + 1)  # a shorter first line fails the cell count
    text = np.dtype([("uv", "i8", (2,)), ("f", "f8", (width - 2,))])
    table = _parse_table(path, data, "\t", text,
                         lambda t: first_row(t["uv"][:, 0] >= t["uv"][:, 1], "edges must satisfy u < v"), {})
    return np.ascontiguousarray(table["uv"]), np.ascontiguousarray(table["f"])


def _sorted_csr(n, indptr, indices, own_ids):
    """Whether `indptr` and `indices` lay out n CSR rows whose ids lie in
    [0, n) and rise strictly within each row, and, unless `own_ids`, no row
    holds its own id."""
    counts = np.diff(indptr)
    if indptr[0] != 0 or indptr[-1] != indices.size or np.any(counts < 0):
        return False
    if indices.size and (indices.min() < 0 or indices.max() >= n):
        return False
    first = np.zeros(indices.size, dtype=bool)  # the first entry of each row
    first[indptr[:-1][counts > 0]] = True
    if not np.all((np.diff(indices) > 0) | first[1:]):
        return False
    return own_ids or not np.any(indices == np.repeat(np.arange(n), counts))


def _load_graph(copy, digest):
    """The graph saved in the graph copy `copy` from texts of SHA-256s
    `digest`, with its adjacency, model inputs and their product set, or None.

    The arrays must have the shapes the graph's sizes give them and pass the
    checks that need no sort: both CSR layouts in bounds and in order, no
    graph row holding its own id, known kind codes, and finite features,
    values, model inputs and product.
    """
    arrays = _load_copy(copy, digest, _GRAPH_DTYPES)
    if arrays is None:
        return None
    indptr, indices, X, E, adj_indptr, adj_indices, values, inputs, product, kinds = arrays
    if kinds.ndim != 1 or X.ndim != 2 or E.ndim != 2:
        return None
    n, m, f = kinds.size, E.shape[0], X.shape[1]
    shapes = [(n + 1,), (2 * m,), (n, f), E.shape, (n + 1,), (2 * m + n,), (2 * m + n,), (n, f + 1), (n, f + 1),
              (n,)]
    if [a.shape for a in arrays] != shapes:
        return None
    if not (_sorted_csr(n, indptr, indices, False) and _sorted_csr(n, adj_indptr, adj_indices, True)):
        return None
    if np.any((kinds < 0) | (kinds >= len(NODE_KINDS))):
        return None
    if not all(np.isfinite(a).all() for a in (X, E, values, inputs, product)):
        return None
    g = SmeGraph(n, indptr, indices, X, E, np.asarray(NODE_KINDS)[kinds])
    g.model_inputs = inputs
    g.adjacency = NormalizedAdjacency(n, adj_indptr, adj_indices, values, inputs)
    g.adjacency.propagated = product
    return g


def read_graph(data_dir, *, digests=None):
    """The graph of `data_dir`'s nodes.csv and edges.tsv; a row that breaks a
    rule of `SmeGraph.from_edge_list` is an InvalidInput naming its line.

    The graph comes from its binary copy, with its adjacency, model inputs
    and their product, when the copy matches both texts; else from the
    text, and the graph, its adjacency, its model inputs and the product
    (computed here) are saved as the copy.
    """
    paths = {"nodes": os.path.join(data_dir, "nodes.csv"), "edges": os.path.join(data_dir, "edges.tsv")}
    (nodes, node_digest), (edges, edge_digest) = _read(paths["nodes"], digests), _read(paths["edges"], digests)
    copy = os.path.join(data_dir, CACHE_DIR, GRAPH_COPY)
    g = _load_graph(copy, node_digest + edge_digest)
    if g is not None:
        return g
    kinds, X = _parse_nodes(paths["nodes"], nodes)
    pairs, feats = _parse_edges(paths["edges"], edges)
    del nodes, edges  # parsed: the graph and its derived arrays are built without the texts held
    try:
        g = SmeGraph.from_edge_list(len(kinds), pairs, node_features=X, edge_features=feats,
                                    node_kind=np.asarray(NODE_KINDS)[kinds])
    except InvalidInput as err:
        if err.row is None:
            raise
        raise _line_error(paths[err.table], err.row, err, header=err.table == "nodes") from None
    adj = g.adjacency
    _save_copy(copy, node_digest + edge_digest, g.indptr, g.indices, g.node_features, g.edge_features,
               adj.indptr, adj.indices, adj.values, g.model_inputs, adj.propagated, kinds)
    return g


def write_node_labels(path, nodes, labels):
    _write_lines(path, (f"{u}\t{y}" for u, y in _rows((nodes, np.int64), (labels, np.int64))))


def _read_labels(path, num_ids, form, digests):
    """(ids, int8 labels) of a label file whose lines are `num_ids` integer
    cells and a 0/1 cell, `form` in the errors. Its examples are checked by
    the LabeledSet a command builds of them; `row_error` names the line of
    one the set rejects."""
    data, digest = _read(path, digests)
    table = _read_table(path, data, digest, "\t", [("ids", "i8", (num_ids,)), ("label", "U")],
                        lambda t: first_row((t["label"] < 0) | (t["label"] > 1), f"expected `{form}`"),
                        {"label": ("0", "1")})
    return np.ascontiguousarray(table["ids"]), np.ascontiguousarray(table["label"])


def read_node_labels(path, *, digests=None):
    nodes, labels = _read_labels(path, 1, "node<TAB>0|1", digests)
    return nodes[:, 0].copy(), labels


def write_pair_labels(path, pairs, labels):
    _write_lines(path, (f"{u}\t{v}\t{y}" for (u, v), y in _rows((pairs, np.int64), (labels, np.int64))))


def read_pair_labels(path, *, digests=None):
    return _read_labels(path, 2, "u<TAB>v<TAB>0|1", digests)


def write_ground_truth(path, truth):
    supply = _rows((truth.supply_edges, None), (truth.hidden_mask, None))
    nodes = enumerate(_rows((truth.tiers, np.int64), (truth.default_labels, np.int64)))
    _write_lines(path, itertools.chain((f"supply\t{u}\t{v}\t{int(hidden)}" for (u, v), hidden in supply),
                                       (f"node\t{u}\t{tier}\t{label}" for u, (tier, label) in nodes)))


def write_dataset(out_dir, graph, pair_set, node_set, truth):
    """Write what `chainrisk generate` writes of one economy into `out_dir`:
    the graph, both label files and the ground truth, in that order of paths.
    The writers are looked up as module globals at call time, so a wrapper
    installed on this module sees each call."""
    paths = write_graph(out_dir, graph)
    paths += [os.path.join(out_dir, name) for name in ("labels_sc.tsv", "labels_dp.tsv", "ground_truth.tsv")]
    write_pair_labels(paths[2], pair_set.examples, pair_set.labels)
    write_node_labels(paths[3], node_set.examples, node_set.labels)
    write_ground_truth(paths[4], truth)
    return paths


# the tags of a ground_truth.tsv row: its record type and its flag (hidden, default label)
_TRUTH_TAGS = {"record": ("supply", "node"), "flag": ("0", "1")}


def _truth_rules(table):
    """The first row of a ground_truth.tsv table of unknown record type, a
    node row whose id is not its place among the node rows or whose tier is
    outside 0-2, or a row whose flag is not 0 or 1."""
    record, (ids, tiers), bad_flag = table["record"], table["cells"].T, table["flag"] < 0
    node = record == 1
    rank = np.cumsum(node) - 1  # each node row's place among the node rows
    return _first_breach(first_row(record < 0, f"unknown record, expected one of {_TRUTH_TAGS['record']}"),
                         first_row(node & (ids != rank), "node ids must be dense and ordered"),
                         first_row(node & ((tiers < 0) | (tiers > 2)), "a tier is 0, 1 or 2"),
                         first_row((record == 0) & bad_flag, "expected `supply<TAB>u<TAB>v<TAB>0|1`"),
                         first_row(node & bad_flag, "expected `node<TAB>id<TAB>tier<TAB>0|1`"))


def read_ground_truth(path, *, digests=None):
    """The GroundTruth of ground_truth.tsv: its supply rows in file order,
    then its node rows' tiers and default labels."""
    data, digest = _read(path, digests)
    table = _read_table(path, data, digest, "\t", [("record", "U"), ("cells", "i8", (2,)), ("flag", "U")],
                        _truth_rules, _TRUTH_TAGS)
    supply, nodes = table[table["record"] == 0], table[table["record"] == 1]
    return GroundTruth(
        supply_edges=np.ascontiguousarray(supply["cells"]),
        hidden_mask=supply["flag"] == 1,
        tiers=nodes["cells"][:, 1].astype(np.int8),
        default_labels=np.ascontiguousarray(nodes["flag"]),
    )


def write_mined_edges(path, pairs, scores):
    _write_lines(path, (f"{u}\t{v}\t{s!r}" for (u, v), s in _rows((pairs, None), (scores, np.float64))))


def read_mined_edges(path, *, digests=None):
    """(pairs, scores): a (k, 2) int64 array and k float64 scores."""
    data, digest = _read(path, digests)
    table = _read_table(path, data, digest, "\t", [("pair", "i8", (2,)), ("score", "f8")], lambda t: None, {})
    return np.ascontiguousarray(table["pair"]), table["score"].copy()


def row_error(path, err):
    """The InvalidInput to raise for `err`, a rule broken by what a reader
    gave of the headerless file `path` (a label file, mined edges): it names
    the line of the row `err` records, or else the file."""
    return InvalidInput(f"{path}: {err}") if err.row is None else _line_error(path, err.row, err)


def write_roc_points(path, points):
    """One `fpr<TAB>tpr` line per row of the (k, 2) `points`, built in one
    piece: each distinct value, by its float64 bits (so -0.0 keeps its own
    text), is formatted once, and the lines are joined in C."""
    points = np.ascontiguousarray(points, dtype=np.float64).reshape(-1, 2)
    bits, inverse = np.unique(points.view(np.int64).reshape(-1), return_inverse=True)
    text = np.array([repr(x) for x in bits.view(np.float64).tolist()], dtype=object)
    lines = "\n".join(map("\t".join, text[inverse.reshape(-1, 2)].tolist()))
    _write_lines(path, [lines] if lines else [])


def write_scores(path, scores):
    _write_lines(path, (f"{i}\t{s!r}" for i, (s,) in enumerate(_rows((scores, np.float64)))))


def write_grid_table(path, rows):
    """One line per `GridSearchResult.table` row; a diverged cell leaves val_auc and best_epoch empty."""
    def blank_or(value, fmt):
        return "" if value is None else fmt(value)

    _write_lines(path, itertools.chain(
        ["learning_rate\tdropout\tnum_layers\tval_auc\tbest_epoch\tstatus"],
        ("\t".join([repr(float(r["learning_rate"])), repr(float(r["dropout"])), str(r["num_layers"]),
                    blank_or(r["val_auc"], lambda x: repr(float(x))), blank_or(r["best_epoch"], str), r["status"]])
         for r in rows)))


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def utc_timestamps():
    """Seconds since the epoch now, or SOURCE_DATE_EPOCH when it is set, for reproducible runs."""
    pinned = os.environ.get("SOURCE_DATE_EPOCH")
    if pinned is not None:
        return float(pinned)
    return time.time()


def write_manifest(path, manifest):
    """Atomic JSON dump with sorted keys; digests cover the listed outputs."""
    blob = json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(blob)
    os.replace(tmp, path)
