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
"""

import hashlib
import json
import os
import time

import numpy as np

from .errors import InvalidInput
from .graph import SmeGraph


def _fmt(value):
    return repr(float(value))


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def write_graph(out_dir, g):
    nodes_path = os.path.join(out_dir, "nodes.csv")
    edges_path = os.path.join(out_dir, "edges.tsv")
    fn = g.node_features.shape[1]
    header = "id,kind," + ",".join(f"f{i + 1}" for i in range(fn)) if fn else "id,kind"
    lines = [header]
    for u in range(g.num_nodes):
        feats = ",".join(_fmt(v) for v in g.node_features[u])
        lines.append(f"{u},{g.node_kind[u]},{feats}" if fn else f"{u},{g.node_kind[u]}")
    _write_lines(nodes_path, lines)

    pairs, feats = g.undirected_edges()
    rows = []
    for (u, v), row in zip(pairs.tolist(), feats):
        cells = [str(u), str(v)] + [_fmt(x) for x in row]
        rows.append("\t".join(cells))
    _write_lines(edges_path, rows)
    return [nodes_path, edges_path]


def _parse_rows(path, sep, parse, width=None):
    """[parse(cells, lineno) for each line of `path` split on `sep`].

    Every line must have `width` cells (the first line's count when None).
    A wrong count, or a ValueError from `parse` (a cell that is not a
    number, a row that breaks the format), raises InvalidInput naming
    `path:line`.
    """
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            cells = line.rstrip("\n").split(sep)
            width = width or len(cells)
            try:
                if len(cells) != width:
                    raise ValueError(f"expected {width} cells, got {len(cells)}")
                rows.append(parse(cells, lineno))
            except ValueError as err:
                raise InvalidInput(f"{path}:{lineno}: {err}") from None
    return rows


def _node_row(cells, lineno):
    if lineno == 1:
        if cells[:2] != ["id", "kind"]:
            raise ValueError("expected header starting with id,kind")
        return cells
    if int(cells[0]) != lineno - 2:
        raise ValueError("ids must be dense and ordered")
    return cells[1], list(map(float, cells[2:]))


def _edge_row(cells, _):
    if len(cells) < 2:
        raise ValueError("need at least u and v")
    u, v = int(cells[0]), int(cells[1])
    if not u < v:
        raise ValueError("edges must satisfy u < v")
    return (u, v), list(map(float, cells[2:]))


def read_graph(data_dir):
    nodes_path = os.path.join(data_dir, "nodes.csv")
    edges_path = os.path.join(data_dir, "edges.tsv")
    rows = _parse_rows(nodes_path, ",", _node_row)
    if not rows:
        raise InvalidInput(f"{nodes_path}:1: expected header starting with id,kind")
    kinds = [kind for kind, _ in rows[1:]]
    X = np.asarray([feats for _, feats in rows[1:]], dtype=np.float64).reshape(len(kinds), len(rows[0]) - 2)
    edges = _parse_rows(edges_path, "\t", _edge_row)
    fe = len(edges[0][1]) if edges else 0
    return SmeGraph.from_edge_list(
        len(kinds),
        np.asarray([e for e, _ in edges], dtype=np.int64).reshape(-1, 2),
        node_features=X,
        edge_features=np.asarray([f for _, f in edges], dtype=np.float64).reshape(len(edges), fe),
        node_kind=np.asarray(kinds, dtype="U8"),
    )


def write_node_labels(path, nodes, labels):
    _write_lines(path, (f"{int(u)}\t{int(y)}" for u, y in zip(nodes, labels)))


def _label(cell, form):
    if cell not in ("0", "1"):
        raise ValueError(f"expected `{form}`")
    return int(cell)


def read_node_labels(path):
    rows = _parse_rows(path, "\t", lambda c, _: (int(c[0]), _label(c[1], "node<TAB>0|1")), width=2)
    return (np.asarray([u for u, _ in rows], dtype=np.int64),
            np.asarray([y for _, y in rows], dtype=np.int8))


def write_pair_labels(path, pairs, labels):
    _write_lines(
        path, (f"{int(u)}\t{int(v)}\t{int(y)}" for (u, v), y in zip(np.asarray(pairs), labels))
    )


def read_pair_labels(path):
    rows = _parse_rows(
        path, "\t", lambda c, _: (int(c[0]), int(c[1]), _label(c[2], "u<TAB>v<TAB>0|1")), width=3
    )
    table = np.asarray(rows, dtype=np.int64).reshape(-1, 3)
    return table[:, :2].copy(), table[:, 2].astype(np.int8)


def write_ground_truth(path, truth):
    lines = []
    for (u, v), hidden in zip(truth.supply_edges.tolist(), truth.hidden_mask.tolist()):
        lines.append(f"supply\t{u}\t{v}\t{int(hidden)}")
    for u in range(truth.num_nodes):
        lines.append(f"node\t{u}\t{int(truth.tiers[u])}\t{int(truth.default_labels[u])}")
    _write_lines(path, lines)


def read_ground_truth(path):
    from .synthgen import GroundTruth

    supply, hidden, tiers, labels = [], [], [], []

    def record(cells, _):
        if cells[0] == "supply":
            supply.append((int(cells[1]), int(cells[2])))
            hidden.append(bool(int(cells[3])))
        elif cells[0] == "node":
            if int(cells[1]) != len(tiers):
                raise ValueError("node ids must be dense and ordered")
            tiers.append(int(cells[2]))
            labels.append(int(cells[3]))
        else:
            raise ValueError(f"unknown record {cells[0]!r}")

    _parse_rows(path, "\t", record, width=4)
    return GroundTruth(
        supply_edges=np.asarray(supply, dtype=np.int64).reshape(-1, 2),
        hidden_mask=np.asarray(hidden, dtype=bool),
        tiers=np.asarray(tiers, dtype=np.int8),
        default_labels=np.asarray(labels, dtype=np.int8),
    )


def write_mined_edges(path, pairs, scores):
    _write_lines(path, (f"{u}\t{v}\t{_fmt(s)}" for (u, v), s in zip(np.asarray(pairs).tolist(), scores)))


def read_mined_edges(path):
    """(pairs, scores): a (k, 2) int64 array and k float64 scores."""
    rows = _parse_rows(path, "\t", lambda c, _: (int(c[0]), int(c[1]), float(c[2])), width=3)
    return (np.asarray([r[:2] for r in rows], dtype=np.int64).reshape(-1, 2),
            np.asarray([r[2] for r in rows], dtype=np.float64))


def write_roc_points(path, points):
    _write_lines(path, (f"{_fmt(fpr)}\t{_fmt(tpr)}" for fpr, tpr in points))


def write_scores(path, scores):
    _write_lines(path, (f"{i}\t{_fmt(s)}" for i, s in enumerate(scores)))


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def utc_timestamps():
    """(start, end) helper honoring SOURCE_DATE_EPOCH for reproducible runs."""
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
