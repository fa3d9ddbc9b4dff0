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
grow with the file.

The files a command reads (nodes, edges, both label files and mined edges)
go through one table reader, `_read_table`. It parses a file in one numpy
pass when the file is in the canonical grammar the writers produce:

  - lines end in LF; no line is blank and no CR appears anywhere;
  - past the nodes.csv header, every byte is an ASCII digit, `+`, `-`, `.`,
    `e`, `E`, the separator, LF or a letter of a tag (a node kind);
  - every line has the cell count of the header (nodes.csv), of the first
    line (edges.tsv) or of the format; an integer cell is `[+-]?[0-9]+`
    within int64 and a float cell is a number `float` reads in that
    alphabet.

When this bulk path declines a file, the row parser `_parse_rows` reads
it. It accepts Python `int`/`float` syntax (surrounding whitespace, `_`
digit separators, `nan`, CR and CRLF line breaks), reports the first line
it cannot convert as `path:line`, and gives the table the bulk path would.
A tag cell (a node kind, a label) becomes its index in its tags, -1 for
any other text. Then one check per file runs on the table, however it was
read, and reports the first row that breaks a rule as `path:line`:
nodes.csv ids are 0, 1, 2, ... in order and every kind is known; edges
have u < v; a label is 0 or 1, and the examples are the node ids or
canonical, unrepeated pairs `labels.first_invalid_example` accepts.
`read_graph` also names the line of a row `SmeGraph.from_edge_list`
rejects (an endpoint outside the graph, a repeated edge, a non-finite
feature), and `mined_edges_error` that of a mined-edges row `enrich`
rejects (a score outside [0, 1]). `read_ground_truth`, which no command
calls, uses the row parser only.

Each of these readers hashes the bytes it reads once, with SHA-256. Given a
dict as `digests`, it also stores `path: hex digest` there for every file
it read, on either path, so a manifest can list its inputs without reading
them again.

Parsed-input cache: a file the bulk path reads is parsed once. The table
it gives, if the file's check accepts it, is saved as a binary copy in
CACHE_DIR beside the file (`data/.chainrisk-cache/nodes.csv.npy`), after a
format tag (`_COPY_MAGIC`) and the SHA-256 of the text it was parsed from.
The nodes.csv copy stores each kind as its int8 index in NODE_KINDS, and a
label file's copy each label as an int8. Every later read hashes the text
it has just read and loads the copy, with `np.load(allow_pickle=False)`,
when the digest, the table's dtype and its size all match and the file's
check accepts the loaded table; its header is checked against the copy's
size before the table is allocated. Any other copy is ignored and
rewritten. A copy is written to a temporary file and moved into place
with `os.replace`; a failed write (read-only directory, full disk) only
costs the next read a parse. Files that go to the row parser are never
cached. Deleting the directory is always safe, and manifests still record
the digests of the text files.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import re
import time
import warnings

import numpy as np

from .errors import InvalidInput
from .graph import NODE_KINDS, SmeGraph, first_row
from .labels import GroundTruth, first_invalid_example

# bytes of a bulk-read line besides its separator: number characters and LF
_NUMBER_BYTES = b"0123456789+-.eE\n"
# one character wider than the longest tag, so that a longer kind, cut to this
# width, matches no tag
_KIND_TEXT = f"U{max(map(len, NODE_KINDS)) + 1}"
# lines per write, and rows per `.tolist()` call, of the writers
WRITE_CHUNK = 1024
# the parsed-input cache: its directory beside each file, and the first bytes of a
# copy, followed by the SHA-256 of the text and a version 1.0 `.npy` table
CACHE_DIR = ".chainrisk-cache"
_COPY_MAGIC = b"CHRKTBL3"


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


def _parse_rows(path, data, sep, parse, width, header=False):
    """[parse(cells) for each line of `data`, the bytes of `path`, split on
    `sep`], past the first line when there is a `header`.

    Lines end at LF, CR or CRLF. Every line must have `width` cells. A wrong
    count, bytes that are not UTF-8, or a ValueError from `parse` (a cell
    that is not a number, a row that breaks the format) raises InvalidInput
    naming `path:line`.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        head = data[: err.start].decode("utf-8")
        lineno = 1 + head.count("\n") + head.count("\r") - head.count("\r\n")
        raise InvalidInput(f"{path}:{lineno}: not UTF-8 text") from None
    rows = []
    lines = io.StringIO(text, newline=None)
    for lineno, line in enumerate(itertools.islice(lines, int(header), None), start=1 + header):
        cells = line.rstrip("\n").split(sep)
        try:
            if len(cells) != width:
                raise ValueError(f"expected {width} cells, got {len(cells)}")
            rows.append(parse(cells))
        except ValueError as err:
            raise InvalidInput(f"{path}:{lineno}: {err}") from None
    return rows


def _bulk_rows(data, sep, dtype, letters=b""):
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


def _read_table(path, data, digest, sep, text, check, tags=(None, ()), header=False):
    """The 1-d table of the lines of `path`, past its header line if it has
    one, once `check` accepts it.

    `data` holds the bytes of `path` and `digest` their SHA-256. `text` is
    the structured dtype of a line's cells: integers, floats, and text in
    the column `tags[0]`, which the table holds as each cell's int8 index in
    `tags[1]` (-1 for another cell). The binary copy of the table is loaded
    if it matches and `check` accepts it; else the bulk path parses the
    file, or the row parser when the bulk path declines. `check(table)` gives
    (row, reason) for the first row that breaks a rule of the file, or None;
    a breach raises InvalidInput naming `path:line`. Only a bulk parse is
    saved as the copy.
    """
    text = np.dtype(text)
    column, names = tags
    dtype = np.dtype([(name, "i1" if name == column else text[name]) for name in text.names])
    copy = os.path.join(os.path.dirname(path), CACHE_DIR, os.path.basename(path) + ".npy")
    table = _load_copy(copy, digest, dtype)
    if table is not None and check(table) is None:
        return table
    head, _, body = data.partition(b"\n") if header else (b"", b"", data)
    table = None if b"\r" in head else _bulk_rows(body, sep, text, "".join(names).encode())
    bulk = table is not None
    if not bulk:
        parse, width = _row_parse(text)
        rows = _parse_rows(path, data, sep, parse, width, header)
        table = np.array(rows, [(name, "O" if name == column else text[name]) for name in text.names])
    if column is not None:
        table = _tag_codes(table, dtype, column, names)
    bad = check(table)
    if bad is not None:
        raise _line_error(path, *bad, header)
    if bulk:
        _save_copy(copy, digest, table)
    return table


def _load_copy(copy, digest, dtype):
    """The 1-d `dtype` table saved in `copy` from text of SHA-256 `digest`, or None."""
    try:
        with open(copy, "rb") as fh:
            if fh.read(len(_COPY_MAGIC) + len(digest)) != _COPY_MAGIC + digest:
                return None
            start = fh.tell()
            if np.lib.format.read_magic(fh) != (1, 0):
                return None
            shape, _, stored = np.lib.format.read_array_header_1_0(fh)
            size = os.fstat(fh.fileno()).st_size - fh.tell()
            if stored != dtype or len(shape) != 1 or shape[0] * dtype.itemsize != size:
                return None
            fh.seek(start)
            return np.load(fh, allow_pickle=False)
    except (OSError, ValueError, EOFError):
        return None


def _save_copy(copy, digest, table):
    """Save `table` as `copy` atomically; on OSError leave no copy and no temporary file."""
    tmp = f"{copy}.{os.getpid()}.tmp"
    try:
        os.makedirs(os.path.dirname(copy), exist_ok=True)
        with open(tmp, "wb") as fh:
            fh.write(_COPY_MAGIC + digest)
            np.lib.format.write_array(fh, table, version=(1, 0), allow_pickle=False)
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


def _row_parse(text):
    """(parse, width): the `_parse_rows` parse that gives a line's cells as
    one row of the structured dtype `text`, and the line's cell count."""
    spans, width = [], 0
    for name in text.names:
        field = text[name]
        size = field.shape[0] if field.shape else 1
        spans.append((_CELL[field.base.kind], width, width + size, bool(field.shape)))
        width += size
    return (lambda cells: tuple([read(c) for c in cells[lo:hi]] if many else read(cells[lo])
                                for read, lo, hi, many in spans)), width


def _tag_codes(table, dtype, column, tags):
    """`table`, with `column` as text, as a `dtype` table whose `column` holds
    each cell's index in `tags` (-1 for another tag)."""
    coded = np.empty(table.size, dtype)
    for name in coded.dtype.names:
        coded[name] = -1 if name == column else table[name]
    for code, tag in enumerate(tags):
        coded[column][table[column] == tag] = code
    return coded


def _node_rules(table):
    """The first row of a nodes.csv table whose id is not its row number or whose kind is unknown."""
    kinds = table["kind"]
    breaches = [first_row(table["id"] != np.arange(table.size), "ids must be dense and ordered"),
                first_row((kinds < 0) | (kinds >= len(NODE_KINDS)), f"node kind must be one of {NODE_KINDS}")]
    return min(filter(None, breaches), key=lambda breach: breach[0], default=None)


def _first_line(data):
    """The bytes of `data` up to its first LF or CR."""
    return re.match(rb"[^\r\n]*", data)[0]


def _read_nodes(path, digests):
    """(kinds, X) of nodes.csv."""
    data, digest = _read(path, digests)
    try:
        header = _first_line(data).decode("utf-8").split(",")
    except UnicodeDecodeError:
        raise InvalidInput(f"{path}:1: not UTF-8 text") from None
    if header[:2] != ["id", "kind"]:
        raise InvalidInput(f"{path}:1: expected header starting with id,kind")
    text = [("id", "i8"), ("kind", _KIND_TEXT), ("f", "f8", (len(header) - 2,))]
    table = _read_table(path, data, digest, ",", text, _node_rules, ("kind", NODE_KINDS), header=True)
    return np.asarray(NODE_KINDS)[table["kind"]], np.ascontiguousarray(table["f"])


def _read_edges(path, digests):
    """(pairs, features) of edges.tsv."""
    data, digest = _read(path, digests)
    width = max(2, _first_line(data).count(b"\t") + 1)  # a shorter first line fails the cell count
    table = _read_table(path, data, digest, "\t", [("uv", "i8", (2,)), ("f", "f8", (width - 2,))],
                        lambda t: first_row(t["uv"][:, 0] >= t["uv"][:, 1], "edges must satisfy u < v"))
    return np.ascontiguousarray(table["uv"]), np.ascontiguousarray(table["f"])


def read_graph(data_dir, *, digests=None):
    """The graph of `data_dir`'s nodes.csv and edges.tsv; a row that breaks a
    rule of `SmeGraph.from_edge_list` is an InvalidInput naming its line."""
    paths = {"nodes": os.path.join(data_dir, "nodes.csv"), "edges": os.path.join(data_dir, "edges.tsv")}
    kinds, X = _read_nodes(paths["nodes"], digests)
    pairs, feats = _read_edges(paths["edges"], digests)
    try:
        return SmeGraph.from_edge_list(len(kinds), pairs, node_features=X, edge_features=feats, node_kind=kinds)
    except InvalidInput as err:
        if err.row is None:
            raise
        raise _line_error(paths[err.table], err.row, err, header=err.table == "nodes") from None


def write_node_labels(path, nodes, labels):
    _write_lines(path, (f"{u}\t{y}" for u, y in _rows((nodes, np.int64), (labels, np.int64))))


def _label(cell, form):
    if cell not in ("0", "1"):
        raise ValueError(f"expected `{form}`")
    return int(cell)


def _read_labels(path, num_ids, form, digests):
    """(ids, int8 labels) of a label file whose lines are `num_ids` integer
    cells and a 0/1 cell, `form` in the errors. Its examples are the node ids
    (one cell) or canonical pairs (two) a LabeledSet accepts."""
    data, digest = _read(path, digests)

    def rules(table):
        labels, ids = table["label"], table["ids"]
        return (first_row((labels < 0) | (labels > 1), f"expected `{form}`")
                or first_invalid_example(ids if num_ids == 2 else ids[:, 0]))

    table = _read_table(path, data, digest, "\t", [("ids", "i8", (num_ids,)), ("label", "U2")], rules,
                        ("label", ("0", "1")))
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


def read_ground_truth(path):
    supply, hidden, tiers, labels = [], [], [], []

    def record(cells):
        if cells[0] == "supply":
            supply.append((_int(cells[1]), _int(cells[2])))
            hidden.append(_label(cells[3], "supply<TAB>u<TAB>v<TAB>0|1"))
        elif cells[0] == "node":
            if int(cells[1]) != len(tiers):
                raise ValueError("node ids must be dense and ordered")
            if cells[2] not in ("0", "1", "2"):
                raise ValueError("a tier is 0, 1 or 2")
            tiers.append(int(cells[2]))
            labels.append(_label(cells[3], "node<TAB>id<TAB>tier<TAB>0|1"))
        else:
            raise ValueError(f"unknown record {cells[0]!r}")

    _parse_rows(path, _read_bytes(path), "\t", record, width=4)
    return GroundTruth(
        supply_edges=np.asarray(supply, dtype=np.int64).reshape(-1, 2),
        hidden_mask=np.asarray(hidden, dtype=bool),
        tiers=np.asarray(tiers, dtype=np.int8),
        default_labels=np.asarray(labels, dtype=np.int8),
    )


def write_mined_edges(path, pairs, scores):
    _write_lines(path, (f"{u}\t{v}\t{s!r}" for (u, v), s in _rows((pairs, None), (scores, np.float64))))


def read_mined_edges(path, *, digests=None):
    """(pairs, scores): a (k, 2) int64 array and k float64 scores."""
    data, digest = _read(path, digests)
    table = _read_table(path, data, digest, "\t", [("pair", "i8", (2,)), ("score", "f8")], lambda t: None)
    return np.ascontiguousarray(table["pair"]), table["score"].copy()


def mined_edges_error(path, err):
    """The InvalidInput to raise for `err`, a rule broken by the pairs and
    scores `read_mined_edges(path)` gave: it names the line of the row `err`
    records, if it records one."""
    return err if err.row is None else _line_error(path, err.row, err)


def write_roc_points(path, points):
    _write_lines(path, (f"{fpr!r}\t{tpr!r}" for ((fpr, tpr),) in _rows((points, np.float64))))


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
