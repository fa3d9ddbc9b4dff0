import numpy as np
import pytest

from chainrisk import dataio
from chainrisk.errors import InvalidInput
from chainrisk.graph import SmeGraph
from chainrisk.synthgen import generate, paper_calibrated

from conftest import random_graph


@pytest.fixture(scope="module")
def economy():
    return generate(paper_calibrated(num_smes=300, seed=2, sector_size=50))


class TestGraphRoundTrip:
    def test_lossless(self, tmp_path, economy):
        g, _, _, _ = economy
        dataio.write_graph(tmp_path, g)
        back = dataio.read_graph(tmp_path)
        back.validate()
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


class TestMinedAndMisc:
    def test_mined_edges_round_trip(self, tmp_path):
        pairs, scores = np.array([[0, 5], [2, 3]]), np.array([0.925, 1.0])
        path = tmp_path / "mined_edges.tsv"
        dataio.write_mined_edges(path, pairs, scores)
        assert path.read_text() == "0\t5\t0.925\n2\t3\t1.0\n"
        got_pairs, got_scores = dataio.read_mined_edges(path)
        assert got_pairs.dtype == np.int64 and got_pairs.tolist() == pairs.tolist()
        assert got_scores.dtype == np.float64 and got_scores.tolist() == scores.tolist()

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
