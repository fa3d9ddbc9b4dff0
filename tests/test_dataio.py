import contextlib
import hashlib
import io
import json
import os
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from chainrisk import dataio, graph
from chainrisk.cli import main
from chainrisk.errors import InvalidInput
from chainrisk.graph import NODE_KINDS, SmeGraph
from chainrisk.labels import GroundTruth
from chainrisk.synthgen import generate, paper_calibrated

from conftest import check_graph, random_graph
from test_golden import GENERATE_DIGESTS


@pytest.fixture(scope="module")
def economy():
    return generate(paper_calibrated(num_smes=300, seed=2, sector_size=50))


class TestGraphRoundTrip:
    def test_lossless(self, tmp_path, economy):
        g, _, _, _ = economy
        dataio.write_graph(tmp_path, g)
        back = dataio.read_graph(tmp_path)
        check_graph(back)
        assert back.num_nodes == g.num_nodes
        assert np.array_equal(back.indptr, g.indptr)
        assert np.array_equal(back.indices, g.indices)
        assert np.array_equal(back.node_features, g.node_features)
        assert np.array_equal(back.edge_features, g.edge_features)
        assert np.array_equal(back.node_kind, g.node_kind)

    def test_mixed_kinds_round_trip(self, tmp_path, rng):
        g = SmeGraph.from_edge_list(
            4, [(0, 1), (2, 3)], rng.normal(size=(4, 2)),
            edge_features=rng.normal(size=(2, 3)),
            node_kind=["sme", "owner", "consumer", "sme"],
        )
        dataio.write_graph(tmp_path, g)
        back = dataio.read_graph(tmp_path)
        assert back.node_kind.tolist() == ["sme", "owner", "consumer", "sme"]
        assert np.array_equal(back.edge_features, g.edge_features)

    def test_featureless_edges_round_trip(self, tmp_path, rng):
        g = random_graph(rng, 10, 0.3)
        dataio.write_graph(tmp_path, g)
        back = dataio.read_graph(tmp_path)
        assert np.array_equal(back.indices, g.indices)
        assert back.edge_features.shape[1] == 0

    def test_unsorted_edge_file_rejected(self, tmp_path):
        (tmp_path / "nodes.csv").write_text("id,kind,f1\n0,sme,1.0\n1,sme,2.0\n")
        (tmp_path / "edges.tsv").write_text("1\t0\n")
        with pytest.raises(InvalidInput):
            dataio.read_graph(tmp_path)

    @pytest.mark.parametrize("kind", ["consumerXYZ", "consumers"])
    @pytest.mark.parametrize("reader", ["bulk first", "row parser"])
    def test_long_kind_rejected_not_truncated(self, tmp_path, reader, kind):
        # cut to 8 characters, either would read as consumer
        (tmp_path / "nodes.csv").write_text(f"id,kind,f1\n0,sme,1.0\n1,{kind},2.0\n")
        (tmp_path / "edges.tsv").write_text("0\t1\n")
        with rows_only() if reader == "row parser" else contextlib.nullcontext():
            with pytest.raises(InvalidInput, match="nodes.csv:3: node kind must be one of"):
                dataio.read_graph(tmp_path)


class TestLabelFiles:
    def test_pair_labels_round_trip(self, tmp_path, economy):
        _, d_sc, _, _ = economy
        path = tmp_path / "labels_sc.tsv"
        dataio.write_pair_labels(path, d_sc.examples, d_sc.labels)
        pairs, labels = dataio.read_pair_labels(path)
        assert np.array_equal(pairs, d_sc.examples)
        assert np.array_equal(labels, d_sc.labels)

    def test_node_labels_round_trip(self, tmp_path, economy):
        _, _, d_dp, _ = economy
        path = tmp_path / "labels_dp.tsv"
        dataio.write_node_labels(path, d_dp.examples, d_dp.labels)
        nodes, labels = dataio.read_node_labels(path)
        assert np.array_equal(nodes, d_dp.examples)
        assert np.array_equal(labels, d_dp.labels)

    def test_malformed_label_line_reports_position(self, tmp_path):
        path = tmp_path / "labels_dp.tsv"
        path.write_text("0\t1\n1\t7\n")
        with pytest.raises(InvalidInput, match="labels_dp.tsv:2"):
            dataio.read_node_labels(path)


class TestGroundTruthFile:
    def test_round_trip(self, tmp_path, economy):
        _, _, _, gt = economy
        path = tmp_path / "ground_truth.tsv"
        dataio.write_ground_truth(path, gt)
        back = dataio.read_ground_truth(path)
        assert np.array_equal(back.supply_edges, gt.supply_edges)
        assert np.array_equal(back.hidden_mask, gt.hidden_mask)
        assert np.array_equal(back.tiers, gt.tiers)
        assert np.array_equal(back.default_labels, gt.default_labels)

    def test_unknown_record_rejected(self, tmp_path):
        path = tmp_path / "ground_truth.tsv"
        path.write_text("martian\t1\t2\t3\n")
        with pytest.raises(InvalidInput):
            dataio.read_ground_truth(path)

    @pytest.mark.parametrize("reader", ["bulk first", "row parser"])
    @pytest.mark.parametrize("line,reason", [("node\t1\t3\t0", "a tier is 0, 1 or 2"),
                                             ("node\t1\t2\t2", "expected `node<TAB>id<TAB>tier<TAB>0|1`"),
                                             ("supply\t0\t1\t2", "expected `supply<TAB>u<TAB>v<TAB>0|1`"),
                                             ("supplyX\t0\t1\t1", "unknown record"),
                                             ("node\t2\t1\t0", "node ids must be dense and ordered")],
                             ids=["tier", "label", "hidden", "record", "id"])
    def test_rule_breach_names_its_line_on_both_parsers(self, tmp_path, reader, line, reason):
        path = tmp_path / "ground_truth.tsv"
        path.write_text(f"supply\t0\t1\t0\nnode\t0\t0\t1\n{line}\nnode\t2\t0\t0\n")
        with rows_only() if reader == "row parser" else contextlib.nullcontext():
            with pytest.raises(InvalidInput, match=re.escape(f"{path}:3: {reason}")):
                dataio.read_ground_truth(path)
        assert not (tmp_path / dataio.CACHE_DIR).exists()

    def test_integer_cells_read_as_integers_and_flags_as_exact_tags(self, tmp_path):
        path = tmp_path / "ground_truth.tsv"
        path.write_text("node\t+0\t02\t1\nsupply\t0\t1\t1\nnode\t1\t0\t0\n")
        truth = dataio.read_ground_truth(path)
        assert truth.tiers.tolist() == [2, 0] and truth.default_labels.tolist() == [1, 0]
        assert truth.supply_edges.tolist() == [[0, 1]] and truth.hidden_mask.tolist() == [True]
        assert [a.dtype for a in (truth.supply_edges, truth.hidden_mask, truth.tiers, truth.default_labels)] == [
            np.int64, np.bool_, np.int8, np.int8]
        for flag in ("01", "+1", "1.0"):
            path.write_text(f"node\t0\t0\t{flag}\n")
            with pytest.raises(InvalidInput, match=re.escape(f"{path}:1: expected `node<TAB>id<TAB>tier<TAB>0|1`")):
                dataio.read_ground_truth(path)

    @pytest.mark.parametrize("line", ["node\t0\t300\t1", "supply\t0\t1\t7", "node\t0\t1\t5"],
                             ids=["tier", "hidden", "label"])
    def test_out_of_range_cell_reports_position(self, tmp_path, line):
        path = tmp_path / "ground_truth.tsv"
        path.write_text(f"{line}\n")
        with pytest.raises(InvalidInput, match=f"{path}:1:"):
            dataio.read_ground_truth(path)


class TestMinedAndMisc:
    def test_mined_edges_round_trip(self, tmp_path):
        pairs, scores = np.array([[0, 5], [2, 3]]), np.array([0.925, 1.0])
        path = tmp_path / "mined_edges.tsv"
        dataio.write_mined_edges(path, pairs, scores)
        assert path.read_text() == "0\t5\t0.925\n2\t3\t1.0\n"
        got_pairs, got_scores = dataio.read_mined_edges(path)
        assert got_pairs.dtype == np.int64 and got_pairs.tolist() == pairs.tolist()
        assert got_scores.dtype == np.float64 and got_scores.tolist() == scores.tolist()

    def test_grid_table_leaves_diverged_cells_empty(self, tmp_path):
        rows = [{"learning_rate": 0.01, "dropout": 0.1, "num_layers": 2, "val_auc": 0.75, "best_epoch": 12,
                 "status": "ok"},
                {"learning_rate": 1, "dropout": 0, "num_layers": 3, "val_auc": None, "best_epoch": None,
                 "status": "diverged at epoch 4"}]
        path = tmp_path / "grid_table.tsv"
        dataio.write_grid_table(path, rows)
        assert path.read_bytes() == (b"learning_rate\tdropout\tnum_layers\tval_auc\tbest_epoch\tstatus\n"
                                     b"0.01\t0.1\t2\t0.75\t12\tok\n"
                                     b"1.0\t0.0\t3\t\t\tdiverged at epoch 4\n")

    def test_digest_changes_with_content(self, tmp_path):
        a = tmp_path / "a.txt"
        a.write_text("hello\n")
        d1 = dataio.sha256_file(a)
        a.write_text("hello!\n")
        assert dataio.sha256_file(a) != d1

    def test_manifest_written_atomically_with_sorted_keys(self, tmp_path):
        path = str(tmp_path / "run_manifest.json")
        dataio.write_manifest(path, {"zeta": 1, "alpha": 2})
        text = open(path).read()
        assert text.index('"alpha"') < text.index('"zeta"')
        assert not (tmp_path / "run_manifest.json.tmp").exists()

    def test_timestamps_honor_source_date_epoch(self, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        assert dataio.utc_timestamps() == 1700000000.0
        monkeypatch.delenv("SOURCE_DATE_EPOCH")
        assert dataio.utc_timestamps() > 1700000000.0


class Declined(Exception):
    """The bulk path handed a file to the row parser."""


def bulk_only():
    """Readers run with the row parser replaced by a Declined raise."""
    return mock.patch.object(dataio, "_parse_rows", side_effect=Declined)


def rows_only():
    """Readers run with the bulk path declining every file, binary copies
    included, and saving no copy, so a later read parses again."""
    return mock.patch.multiple(dataio, _bulk_rows=mock.Mock(return_value=None),
                               _load_copy=mock.Mock(return_value=None), _save_copy=mock.Mock())


def _arrays(out):
    if isinstance(out, SmeGraph):
        adj = out.adjacency
        return [np.asarray(out.num_nodes), out.indptr, out.indices, out.node_features, out.edge_features,
                out.node_kind, adj.indptr, adj.indices, adj.values, out.model_inputs]
    if isinstance(out, GroundTruth):
        return [out.supply_edges, out.hidden_mask, out.tiers, out.default_labels]
    return list(out)


def assert_same_arrays(got, want):
    for a, b in zip(_arrays(got), _arrays(want), strict=True):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def write_dataset(out, g, pairs=None, pair_labels=None, nodes=None, node_labels=None, rng=None, truth=None):
    """Writer output of one dataset: the graph, label files and ground truth
    when given, and mined edges scored by `rng` on the labeled pairs."""
    dataio.write_graph(out, g)
    if truth is not None:
        dataio.write_ground_truth(out / "ground_truth.tsv", truth)
    if nodes is not None:
        dataio.write_node_labels(out / "labels_dp.tsv", nodes, node_labels)
    if pairs is not None:
        dataio.write_pair_labels(out / "labels_sc.tsv", pairs, pair_labels)
        dataio.write_mined_edges(out / "mined_edges.tsv", pairs, rng.random(len(pairs)))


# file name -> (reader, whether the reader takes the file's directory)
BULK_READERS = {
    "nodes.csv": (dataio.read_graph, True),
    "edges.tsv": (dataio.read_graph, True),
    "labels_dp.tsv": (dataio.read_node_labels, False),
    "labels_sc.tsv": (dataio.read_pair_labels, False),
    "mined_edges.tsv": (dataio.read_mined_edges, False),
    "ground_truth.tsv": (dataio.read_ground_truth, False),
}


def _economy(name):
    g, pair_set, node_set, truth = generate(paper_calibrated(**GENERATE_DIGESTS[name][0]))
    return dict(g=g, pairs=pair_set.examples, pair_labels=pair_set.labels,
                nodes=node_set.examples, node_labels=node_set.labels, truth=truth)


def _mixed_kinds():
    rng = np.random.default_rng(4)
    g = SmeGraph.from_edge_list(5, [(0, 1), (1, 4), (2, 3)], rng.normal(size=(5, 2)),
                                edge_features=rng.normal(size=(3, 2)),
                                node_kind=["sme", "owner", "consumer", "sme", "owner"])
    return dict(g=g)


BULK_DATASETS = {
    "cli-300": lambda: _economy("cli-300"),
    "paper-2000": lambda: _economy("paper-2000"),
    "mixed-kinds": _mixed_kinds,
    "featureless-edges": lambda: dict(g=random_graph(np.random.default_rng(6), 12, 0.3)),
}


@pytest.mark.parametrize("name", sorted(BULK_DATASETS))
def test_bulk_path_reads_writer_output(tmp_path, name):
    """Writer output never reaches the row parser, and reads as it does there."""
    write_dataset(tmp_path, rng=np.random.default_rng(1), **BULK_DATASETS[name]())
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == sorted(BULK_READERS if name in GENERATE_DIGESTS else ["nodes.csv", "edges.tsv"])
    for fname in files:
        read, whole_dir = BULK_READERS[fname]
        target = tmp_path if whole_dir else tmp_path / fname
        with bulk_only():
            got = read(target)
        with rows_only():
            want = read(target)
        assert_same_arrays(got, want)


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    """A directory holding an 8-node dataset in every bulk-read format, and the bytes of each file."""
    out = tmp_path_factory.mktemp("small")
    rng = np.random.default_rng(5)
    g = SmeGraph.from_edge_list(
        8, [(0, 1), (0, 5), (1, 2), (2, 7), (3, 4), (4, 6)], rng.normal(size=(8, 2)) * [1.0, 1e-6],
        edge_features=rng.normal(size=(6, 1)) * 1e5,
        node_kind=["sme", "owner", "consumer", "sme", "sme", "owner", "sme", "consumer"],
    )
    truth = GroundTruth(supply_edges=np.array([[0, 1], [1, 2], [3, 4], [2, 7]]),
                        hidden_mask=np.array([False, False, False, True]),
                        tiers=np.array([0, 1, 2, 0, 1, 2, 0, 2], dtype=np.int8),
                        default_labels=np.array([0, 1] * 4, dtype=np.int8))
    write_dataset(out, g, pairs=[(0, 1), (2, 7), (3, 6)], pair_labels=[1, 0, 1],
                  nodes=np.arange(8), node_labels=[0, 1] * 4, rng=rng, truth=truth)
    return out, {p.name: p.read_bytes() for p in out.iterdir()}


# cells that each parser may read differently: signs, separators, digit
# separators, non-finite and non-ASCII numbers, over-long kinds and record
# types, line breaks
TOKENS = ["", " ", "x", "1_0", "+1", "-1", "01", "-0", "nan", "inf", "1.0", "1e3", ".5", "5.", "1e", "\u0663",
          "9" * 20, "0", "1", "2", "3", "7", "sme", "owner", "consumerXYZ", "consumers", "sme ", "supply", "node",
          "supplyX", "nodes", "\t", ",", "\r", "\r\n", "\n"]


@st.composite
def corruptions(draw, data, sep):
    """`data` with one random cell, row or byte changed, or its line breaks converted."""
    lines = data.split(b"\n")[:-1]
    what = draw(st.sampled_from(["cell", "row", "byte", "line break"]))
    if what == "byte":
        op = draw(st.sampled_from(["replace", "insert", "delete"]))
        pos = draw(st.integers(0, len(data) - 1))
        byte = draw(st.sampled_from([b"\r", b"\n", b"\t", b",", b" ", b"\xff", b"\x00"])
                    | st.binary(min_size=1, max_size=1))
        if op == "insert":
            return data[:pos] + byte + data[pos:]
        return data[:pos] + (byte if op == "replace" else b"") + data[pos + 1:]
    if what == "line break":
        if draw(st.booleans()):
            return data.replace(b"\n", draw(st.sampled_from([b"\r\n", b"\r"])))
        lines[draw(st.integers(0, len(lines) - 1))] += b"\r"  # one CRLF line
        return b"".join(line + b"\n" for line in lines)
    i = draw(st.integers(0, len(lines) - 1))
    if what == "cell":
        cells = lines[i].split(sep)
        j = draw(st.integers(0, len(cells) - 1))
        cells[j] = draw(st.sampled_from(TOKENS) | st.text(max_size=3)).encode()
        lines[i] = sep.join(cells)
    else:
        op = draw(st.sampled_from(["delete", "duplicate", "blank", "extra cell", "drop cell", "swap"]))
        j = draw(st.integers(0, len(lines) - 1))
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "blank":
            lines.insert(i, b"")
        elif op == "extra cell":
            lines[i] += sep + b"1"
        elif op == "drop cell":
            lines[i] = lines[i].rpartition(sep)[0]
        else:
            lines[i], lines[j] = lines[j], lines[i]
    return b"".join(line + b"\n" for line in lines)


def _outcome(read, target):
    try:
        return read(target)
    except InvalidInput as err:
        return err


@pytest.mark.parametrize("name", sorted(BULK_READERS))
@settings(max_examples=300, derandomize=True, deadline=None)
@given(draw=st.data())
def test_bulk_path_declines_or_matches_row_parser(small_dataset, name, draw):
    """On a corrupted file the bulk path declines or returns the row parser's
    arrays; it never accepts a file the row parser rejects."""
    out, files = small_dataset
    read, whole_dir = BULK_READERS[name]
    target = out if whole_dir else out / name
    (out / name).write_bytes(draw.draw(corruptions(files[name], b"," if name.endswith(".csv") else b"\t")))
    try:
        with rows_only():
            want = _outcome(read, target)
        try:
            with bulk_only():
                got = _outcome(read, target)
        except Declined:
            event("declined")
            return
        if isinstance(want, InvalidInput):  # a check after parsing, which both paths reach
            event("read in bulk, rejected after parsing")
            assert isinstance(got, InvalidInput) and str(got) == str(want)
        else:
            event("read in bulk")
            assert_same_arrays(got, want)
    finally:
        (out / name).write_bytes(files[name])


def _joined(lines):
    return "".join([f"{line}\n" for line in lines])


def reference_files(case):
    """Every writer's file as one string, built whole with `"".join` as the
    writers built it before they streamed chunks."""
    g, truth = case["g"], case["truth"]
    header = ",".join(["id", "kind", *(f"f{i + 1}" for i in range(g.node_features.shape[1]))])
    rows = enumerate(zip(g.node_kind.tolist(), g.node_features.tolist()))
    pairs, feats = g.undirected_edges()
    supply = zip(truth.supply_edges.tolist(), truth.hidden_mask.tolist())
    tiers = zip(truth.tiers.astype(np.int64).tolist(), truth.default_labels.astype(np.int64).tolist())
    node_rows = zip(np.asarray(case["nodes"], dtype=np.int64).tolist(),
                    np.asarray(case["node_labels"], dtype=np.int64).tolist())
    pair_rows = zip(np.asarray(case["pairs"], dtype=np.int64).tolist(),
                    np.asarray(case["pair_labels"], dtype=np.int64).tolist())
    mined = zip(np.asarray(case["mined"]).tolist(), np.asarray(case["mined_scores"], dtype=np.float64).tolist())
    return {
        "nodes.csv": _joined([header] + [",".join([str(u), kind, *map(repr, x)]) for u, (kind, x) in rows]),
        "edges.tsv": _joined(["\t".join([str(u), str(v), *map(repr, row)])
                              for (u, v), row in zip(pairs.tolist(), feats.tolist())]),
        "labels_dp.tsv": _joined([f"{u}\t{y}" for u, y in node_rows]),
        "labels_sc.tsv": _joined([f"{u}\t{v}\t{y}" for (u, v), y in pair_rows]),
        "ground_truth.tsv": _joined([f"supply\t{u}\t{v}\t{int(hidden)}" for (u, v), hidden in supply]
                                    + [f"node\t{u}\t{tier}\t{label}" for u, (tier, label) in enumerate(tiers)]),
        "mined_edges.tsv": _joined([f"{u}\t{v}\t{s!r}" for (u, v), s in mined]),
        "roc_points.tsv": _joined([f"{fpr!r}\t{tpr!r}"
                                   for fpr, tpr in np.asarray(case["roc"], dtype=np.float64).tolist()]),
        "scores.tsv": _joined([f"{i}\t{s!r}"
                               for i, s in enumerate(np.asarray(case["scores"], dtype=np.float64).tolist())]),
    }


def write_every_file(out, case):
    dataio.write_graph(out, case["g"])
    dataio.write_node_labels(out / "labels_dp.tsv", case["nodes"], case["node_labels"])
    dataio.write_pair_labels(out / "labels_sc.tsv", case["pairs"], case["pair_labels"])
    dataio.write_ground_truth(out / "ground_truth.tsv", case["truth"])
    dataio.write_mined_edges(out / "mined_edges.tsv", case["mined"], case["mined_scores"])
    dataio.write_roc_points(out / "roc_points.tsv", case["roc"])
    dataio.write_scores(out / "scores.tsv", case["scores"])


def _generated_case():
    g, pair_set, node_set, truth = generate(paper_calibrated(num_smes=300, seed=2, sector_size=50))
    rng = np.random.default_rng(3)
    return dict(g=g, pairs=pair_set.examples, pair_labels=pair_set.labels, nodes=node_set.examples,
                node_labels=node_set.labels, truth=truth, mined=pair_set.examples[:100], mined_scores=rng.random(100),
                roc=np.sort(rng.random((53, 2)), axis=0), scores=rng.normal(size=300) * 1e-5)


def _empty_case():
    from chainrisk.labels import GroundTruth

    empty = np.zeros(0, dtype=np.int64)
    truth = GroundTruth(supply_edges=np.zeros((0, 2), dtype=np.int64), hidden_mask=np.zeros(0, dtype=bool),
                        tiers=np.zeros(0, dtype=np.int8), default_labels=np.zeros(0, dtype=np.int8))
    return dict(g=SmeGraph.from_edge_list(3, np.zeros((0, 2), dtype=np.int64), np.zeros((3, 0))),
                pairs=np.zeros((0, 2), dtype=np.int64), pair_labels=empty, nodes=empty, node_labels=empty,
                truth=truth, mined=np.zeros((0, 2), dtype=np.int64), mined_scores=np.zeros(0),
                roc=np.zeros((0, 2)), scores=np.zeros(0))


def _cast_case():
    """Inputs the writers cast: lists, bool labels, float32 and int32 columns."""
    rng = np.random.default_rng(8)
    g = SmeGraph.from_edge_list(9, [(0, 1), (0, 8), (2, 3), (3, 8), (5, 6)], rng.normal(size=(9, 2)),
                                edge_features=rng.normal(size=(5, 1)))
    return dict(g=g, pairs=[[0, 1], [2, 5], [3, 7]], pair_labels=np.array([True, False, True]),
                nodes=np.arange(9, dtype=np.int32), node_labels=[1.0, 0.0] * 4 + [1.0],
                truth=_empty_case()["truth"], mined=np.array([[0, 4], [1, 2]], dtype=np.int32),
                mined_scores=np.array([0.1, 0.7], dtype=np.float32), roc=[(0.0, 0.0), (0.25, 0.5), (1.0, 1.0)],
                scores=rng.random(9).astype(np.float32).tolist())


WRITER_CASES = {"generated": _generated_case, "empty": _empty_case, "cast": _cast_case}


@pytest.mark.parametrize("chunk", [1, 7, 10**6])
@pytest.mark.parametrize("name", sorted(WRITER_CASES))
def test_streamed_writers_equal_the_one_string_form(tmp_path, monkeypatch, name, chunk):
    """Every chunk size gives the bytes of one join over all lines: one line
    per chunk, a last chunk that is partial, and one chunk for everything."""
    case = WRITER_CASES[name]()
    want = reference_files(case)
    if name == "generated" and chunk == 7:
        assert any(text.count("\n") % 7 for text in want.values())  # some file ends in a partial chunk
    monkeypatch.setattr(dataio, "WRITE_CHUNK", chunk)
    write_every_file(tmp_path, case)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(want)
    for fname, text in want.items():
        assert (tmp_path / fname).read_bytes() == text.encode("utf-8"), fname


def _traced(call):
    """(result, memory held after the call, peak during it) under tracemalloc, in bytes."""
    tracemalloc.start()
    try:
        result = call()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept, peak


def test_generate_and_writers_working_set(tmp_path):
    """`generate` peaks within a small multiple of what it returns, and the
    writers of `chainrisk generate` need a working set that does not grow
    with the economy: every step holds one block or one chunk at a time.

    Measured at n=20,000: generate peaks at 2.5 times what it keeps (5.8
    when it ranked every admissible pair in one table); the writers peak 1.1
    MB above it at both sizes (6.0 and 25.5 MB when they joined whole files).
    """
    above_kept = {}
    for n in (5000, 20000):
        out, kept, peak = _traced(lambda: generate(paper_calibrated(num_smes=n, seed=0)))
        if n == 20000:
            assert peak <= 3.2 * kept, (peak, kept)
        g, pair_set, node_set, truth = out

        def write():
            dataio.write_graph(tmp_path, g)
            dataio.write_pair_labels(tmp_path / "labels_sc.tsv", pair_set.examples, pair_set.labels)
            dataio.write_node_labels(tmp_path / "labels_dp.tsv", node_set.examples, node_set.labels)
            dataio.write_ground_truth(tmp_path / "ground_truth.tsv", truth)

        _, kept, peak = _traced(write)
        above_kept[n] = peak - kept
    assert above_kept[20000] <= 1.2 * above_kept[5000], above_kept


GRAPH_FILES = ("nodes.csv", "edges.tsv")


def copy_of(path):
    """Where the parsed-input cache keeps the binary copy of `path`'s table,
    or for nodes.csv and edges.tsv the copy of their graph."""
    return path.parent / dataio.CACHE_DIR / (dataio.GRAPH_COPY if path.name in GRAPH_FILES else f"{path.name}.npy")


def copy_key(path):
    """The tag and SHA-256 digests a copy of `path`'s current text starts with
    (of both graph files for either of them)."""
    texts = [path.parent / name for name in GRAPH_FILES] if path.name in GRAPH_FILES else [path]
    return dataio._COPY_MAGIC + b"".join(hashlib.sha256(text.read_bytes()).digest() for text in texts)


def copy_arrays(data):
    """The `.npy` arrays, one after another, in the bytes `data`."""
    fh, arrays = io.BytesIO(data), []
    while fh.tell() < len(data):
        arrays.append(np.load(fh, allow_pickle=False))
    return arrays


def no_parse():
    """Readers run with every bulk parse an error, so only binary copies are read."""
    return mock.patch.object(dataio, "_bulk_rows", side_effect=AssertionError("the bulk path parsed a file"))


# the arrays of the graph copy, in the order it holds them
GRAPH_ARRAYS = ("indptr", "indices", "node_features", "edge_features", "adj_indptr", "adj_indices", "adj_values",
                "model_inputs", "kinds")


def _forged(change):
    """A damage that saves the graph copy's arrays, under the right tag and
    digests, with the arrays `change(arrays)` returns by name in place of
    those."""
    def damage(good, arrays):
        return {**arrays, **change(arrays)}
    return damage


def _set(name, pos, value):
    """A damage that sets the elements `pos` of the flattened array `name` to `value`."""
    def change(arrays):
        array = arrays[name].copy()
        array.reshape(-1)[pos] = value
        return {name: array}
    return _forged(change)


# the small dataset's graph rows: 0: 1 5, 1: 0 2, 2: 1 7, 3: 4, 4: 3 6, 5: 0, 6: 4, 7: 2
GRAPH_COPY_DAMAGE = {
    "truncated": lambda good, arrays: good[:-8],
    "garbage": lambda good, arrays: bytes(range(256)),
    "trailing bytes": lambda good, arrays: good + bytes(8),
    "narrow dtype": _forged(lambda arrays: {"indices": arrays["indices"].astype(np.int32)}),
    # positive int64 bits read as float64 are finite, so only the dtype check stops them
    "wrong dtype": _forged(lambda arrays: {"edge_features": np.abs(arrays["edge_features"]).astype(np.int64)}),
    "wrong shape": _forged(lambda arrays: {"model_inputs": arrays["model_inputs"][:, :-1].copy()}),
    "self-loop": _set("indices", 9, 5),
    "repeated id": _set("indices", 1, 1),
    "out-of-range id": _set("indices", 11, 8),
    "indptr past the ids": _set("indptr", 8, 13),
    "adjacency out of order": _set("adj_indices", [0, 1], [1, 0]),
    "adjacency out-of-range id": _set("adj_indices", -1, 8),
    "unknown kind code": _set("kinds", 3, len(NODE_KINDS)),
    "negative kind code": _set("kinds", 3, -1),
    "non-finite node feature": _set("node_features", 0, np.nan),
    "non-finite edge feature": _set("edge_features", 0, np.inf),
    "non-finite adjacency value": _set("adj_values", 0, np.nan),
    "non-finite model input": _set("model_inputs", 0, -np.inf),
}


class TestParsedInputCache:
    @pytest.fixture()
    def files(self, tmp_path):
        write_dataset(tmp_path, rng=np.random.default_rng(1), **BULK_DATASETS["cli-300"]())
        return tmp_path

    @pytest.mark.parametrize("name", sorted(BULK_READERS))
    def test_cached_read_equals_parsed_read(self, files, name):
        read, whole_dir = BULK_READERS[name]
        target = files if whole_dir else files / name
        assert not copy_of(files / name).exists()
        parsed = read(target)
        assert copy_of(files / name).read_bytes().startswith(copy_key(files / name))
        with no_parse():
            cached = read(target)
        assert_same_arrays(cached, parsed)

    def test_new_text_gives_new_arrays_and_replaces_the_copy(self, tmp_path):
        path = tmp_path / "labels_dp.tsv"
        dataio.write_node_labels(path, [0, 1, 2], [0, 1, 0])
        dataio.read_node_labels(path)
        dataio.write_node_labels(path, [0, 1, 2, 5], [1, 1, 0, 1])
        nodes, labels = dataio.read_node_labels(path)
        assert nodes.tolist() == [0, 1, 2, 5] and labels.tolist() == [1, 1, 0, 1]
        assert copy_of(path).read_bytes().startswith(dataio._COPY_MAGIC + hashlib.sha256(path.read_bytes()).digest())
        with no_parse():
            assert_same_arrays(dataio.read_node_labels(path), (nodes, labels))

    @pytest.mark.parametrize("damage", ["truncated", "garbage", "garbage table", "wrong dtype", "long shape"])
    def test_bad_copy_is_never_loaded_and_is_rewritten(self, tmp_path, damage):
        path = tmp_path / "mined_edges.tsv"
        dataio.write_mined_edges(path, [[0, 5], [2, 3]], [0.5, 0.25])
        want = dataio.read_mined_edges(path)
        copy = copy_of(path)
        good = copy.read_bytes()
        digest = hashlib.sha256(path.read_bytes()).digest()
        if damage == "truncated":
            copy.write_bytes(good[:-8])
        elif damage == "garbage":
            copy.write_bytes(bytes(range(256)))
        elif damage == "garbage table":  # the right digest, then no .npy table
            copy.write_bytes(dataio._COPY_MAGIC + digest + bytes(range(256)))
        elif damage == "wrong dtype":
            dataio._save_copy(str(copy), digest, np.zeros(2, dtype=[("pair", "i4", (2,)), ("score", "f8")]))
        else:  # a header that claims more rows than the file holds
            assert good.count(b"'shape': (2,)") == 1
            copy.write_bytes(good.replace(b"'shape': (2,)", b"'shape': (9,)"))
        with mock.patch.object(np, "frombuffer", side_effect=AssertionError("a bad copy was loaded")):
            assert_same_arrays(dataio.read_mined_edges(path), want)
        assert copy.read_bytes() == good

    def test_loaded_copy_goes_through_the_checks_after_parsing(self, tmp_path):
        path = tmp_path / "labels_dp.tsv"
        dataio.write_node_labels(path, [0, 1, 2], [0, 1, 0])
        dataio.read_node_labels(path)
        good = copy_of(path).read_bytes()
        assert np.load(io.BytesIO(good[len(dataio._COPY_MAGIC) + 32:]))["label"].dtype == np.int8
        forged = np.array([([0], 0), ([1], 7), ([2], 0)], dtype=[("ids", "i8", (1,)), ("label", "i1")])
        dataio._save_copy(str(copy_of(path)), hashlib.sha256(path.read_bytes()).digest(), forged)
        nodes, labels = dataio.read_node_labels(path)
        assert nodes.tolist() == [0, 1, 2] and labels.tolist() == [0, 1, 0]
        assert copy_of(path).read_bytes() == good

    def test_failed_write_leaves_the_read_intact(self, tmp_path, monkeypatch):
        path = tmp_path / "labels_sc.tsv"
        dataio.write_pair_labels(path, [[0, 1], [2, 7]], [1, 0])

        moves = []

        def refuse(src, dst):
            moves.append((os.path.dirname(src), src != dst, dst))
            raise PermissionError(f"cannot replace {dst}")

        monkeypatch.setattr(dataio.os, "replace", refuse)
        pairs, labels = dataio.read_pair_labels(path)
        assert pairs.tolist() == [[0, 1], [2, 7]] and labels.tolist() == [1, 0]
        # the copy is written to a temporary file beside it, then moved into place
        assert moves == [(str(tmp_path / dataio.CACHE_DIR), True, str(copy_of(path)))]
        assert list((tmp_path / dataio.CACHE_DIR).iterdir()) == []  # no copy and no temporary file

    @pytest.mark.parametrize("name", sorted(BULK_READERS))
    def test_crlf_file_is_cached_like_any_other(self, small_dataset, tmp_path, name):
        """A file the row parser reads is saved as a copy once its check
        accepts it, and its next read neither parses nor reaches the row parser."""
        _, files = small_dataset
        for fname, data in files.items():
            (tmp_path / fname).write_bytes(data.replace(b"\n", b"\r\n") if fname == name else data)
        read, whole_dir = BULK_READERS[name]
        target = tmp_path if whole_dir else tmp_path / name
        with rows_only():
            want = read(target)
        assert not copy_of(tmp_path / name).exists()
        assert_same_arrays(read(target), want)
        assert copy_of(tmp_path / name).read_bytes().startswith(copy_key(tmp_path / name))
        with no_parse(), bulk_only():
            assert_same_arrays(read(target), want)

    @pytest.mark.parametrize("route", ["parse", "copy", "row parser"])
    @pytest.mark.parametrize("name", sorted(BULK_READERS))
    def test_readers_record_the_digest_of_what_they_read(self, small_dataset, tmp_path, name, route):
        _, files = small_dataset
        for fname, data in files.items():
            (tmp_path / fname).write_bytes(data.replace(b"\n", b"\r\n") if route == "row parser" and fname == name
                                           else data)
        read, whole_dir = BULK_READERS[name]
        target = tmp_path if whole_dir else tmp_path / name
        if route == "copy":
            read(target)
        digests = {}
        with no_parse() if route == "copy" else contextlib.nullcontext():
            read(target, digests=digests)
        read_files = ["nodes.csv", "edges.tsv"] if whole_dir else [name]
        assert {str(path): digest for path, digest in digests.items()} == {
            str(tmp_path / f): hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in read_files}

    def test_nodes_copy_holds_kind_codes_under_its_own_tag(self, small_dataset, tmp_path):
        """The graph copy stores each node's kind as its int8 index into
        NODE_KINDS; a copy of the same texts and arrays under another tag is
        ignored and rewritten."""
        _, files = small_dataset
        for fname, data in files.items():
            (tmp_path / fname).write_bytes(data)
        want = dataio.read_graph(tmp_path)
        copy, key = copy_of(tmp_path / "nodes.csv"), copy_key(tmp_path / "nodes.csv")
        good = copy.read_bytes()
        *_, kinds = arrays = copy_arrays(good[len(key):])
        assert kinds.dtype == np.int8
        assert [NODE_KINDS[code] for code in kinds] == want.node_kind.tolist()
        kinds[:] = NODE_KINDS.index("owner")
        forged = io.BytesIO()
        for array in arrays:
            np.lib.format.write_array(forged, array, version=(1, 0))
        copy.write_bytes(b"CHRKTBL1" + key[len(dataio._COPY_MAGIC):] + forged.getvalue())
        assert_same_arrays(dataio.read_graph(tmp_path), want)
        assert copy.read_bytes() == good

    @pytest.mark.parametrize("name", GRAPH_FILES)
    def test_changing_one_graph_file_rebuilds_the_copy(self, small_dataset, tmp_path, name):
        _, files = small_dataset
        for fname in GRAPH_FILES:
            (tmp_path / fname).write_bytes(files[fname])
        before = dataio.read_graph(tmp_path)
        if name == "nodes.csv":
            (tmp_path / name).write_bytes(files[name].replace(b"\n0,sme,", b"\n0,owner,", 1))
        else:
            (tmp_path / name).write_bytes(b"".join(files[name].splitlines(keepends=True)[:-1]))
        with rows_only():
            want = dataio.read_graph(tmp_path)
        assert (want.node_kind[0], want.indices.size) != (before.node_kind[0], before.indices.size)
        assert_same_arrays(dataio.read_graph(tmp_path), want)
        assert copy_of(tmp_path / name).read_bytes().startswith(copy_key(tmp_path / name))
        with no_parse():
            assert_same_arrays(dataio.read_graph(tmp_path), want)

    @pytest.mark.parametrize("damage", sorted(GRAPH_COPY_DAMAGE))
    def test_bad_graph_copy_is_never_used_and_is_rewritten(self, small_dataset, tmp_path, damage):
        _, files = small_dataset
        for fname in GRAPH_FILES:
            (tmp_path / fname).write_bytes(files[fname])
        want = dataio.read_graph(tmp_path)
        copy, key = copy_of(tmp_path / "nodes.csv"), copy_key(tmp_path / "nodes.csv")
        good = copy.read_bytes()
        damaged = GRAPH_COPY_DAMAGE[damage](good, dict(zip(GRAPH_ARRAYS, copy_arrays(good[len(key):]))))
        if isinstance(damaged, dict):
            dataio._save_copy(str(copy), key[len(dataio._COPY_MAGIC):], *damaged.values())
        else:
            copy.write_bytes(damaged)
        assert copy.read_bytes() != good
        assert_same_arrays(dataio.read_graph(tmp_path), want)
        assert copy.read_bytes() == good

    def test_failed_graph_write_leaves_the_read_intact(self, small_dataset, tmp_path, monkeypatch):
        _, files = small_dataset
        for fname in GRAPH_FILES:
            (tmp_path / fname).write_bytes(files[fname])
        with rows_only():
            want = dataio.read_graph(tmp_path)

        def refuse(src, dst):
            raise PermissionError(f"cannot replace {dst}")

        monkeypatch.setattr(dataio.os, "replace", refuse)
        assert_same_arrays(dataio.read_graph(tmp_path), want)
        assert list((tmp_path / dataio.CACHE_DIR).iterdir()) == []  # no copy and no temporary file

    def test_table_rejected_after_parsing_is_never_cached(self, tmp_path):
        path = tmp_path / "labels_dp.tsv"
        path.write_text("0\t1\n1\t7\n")
        with pytest.raises(InvalidInput, match="labels_dp.tsv:2"):
            dataio.read_node_labels(path)
        assert not copy_of(path).exists()


def test_second_eval_without_enrichment_builds_nothing(tmp_path):
    """A --no-enrich eval on an unchanged data directory parses no file and
    builds neither the graph nor its model inputs: both come from the copies."""
    gen, train = tmp_path / "gen.json", tmp_path / "train.json"
    gen.write_text(json.dumps({"preset": "paper-calibrated", "num_smes": 300, "seed": 7, "sector_size": 50}))
    train.write_text(json.dumps({"max_epochs": 5, "patience": 4, "hidden_dim": 16, "embed_dim": 16,
                                 "head_hidden": 16, "seed": 3}))
    data, dp = str(tmp_path / "data"), str(tmp_path / "dp")
    assert main(["generate", "--config", str(gen), "--out", data]) == 0
    assert main(["train", "dp", "--data", data, "--config", str(train), "--out", dp, "--no-enrich"]) == 0
    evaluate = ["eval", "--checkpoint", os.path.join(dp, "checkpoint_dp.bin"), "--data", data, "--no-enrich"]
    reports = []
    for out in ("ev1", "ev2"):
        with contextlib.ExitStack() as stack:
            if out == "ev2":
                stack.enter_context(no_parse())
                stack.enter_context(mock.patch.object(SmeGraph, "from_edge_list",
                                                      side_effect=AssertionError("a graph was built")))
                stack.enter_context(mock.patch.object(graph, "standardize_columns",
                                                      side_effect=AssertionError("features were standardized")))
            assert main([*evaluate, "--out", str(tmp_path / out)]) == 0
        reports.append((tmp_path / out / "eval_report.json").read_bytes())
    assert reports[0] == reports[1]


def test_second_eval_parses_nothing(tmp_path):
    gen, train = tmp_path / "gen.json", tmp_path / "train.json"
    gen.write_text(json.dumps({"preset": "paper-calibrated", "num_smes": 300, "seed": 7, "sector_size": 50}))
    train.write_text(json.dumps({"max_epochs": 5, "patience": 4, "hidden_dim": 16, "embed_dim": 16,
                                 "head_hidden": 16, "seed": 3}))
    data, sc, dp = (str(tmp_path / name) for name in ("data", "sc", "dp"))
    assert main(["generate", "--config", str(gen), "--out", data]) == 0
    assert main(["train", "sc", "--data", data, "--config", str(train), "--out", sc]) == 0
    mined = ["--mined", os.path.join(sc, "mined_edges.tsv")]
    assert main(["train", "dp", "--data", data, "--config", str(train), "--out", dp, *mined]) == 0
    evaluate = ["eval", "--checkpoint", os.path.join(dp, "checkpoint_dp.bin"), "--data", data, *mined]
    reports = []
    for out in ("ev1", "ev2"):
        with no_parse() if out == "ev2" else contextlib.nullcontext():
            assert main([*evaluate, "--out", str(tmp_path / out)]) == 0
        reports.append((tmp_path / out / "eval_report.json").read_bytes())
    assert reports[0] == reports[1]
