import json
import os

import numpy as np
import pytest

from chainrisk import dataio
from chainrisk.cli import main


@pytest.fixture()
def gen_config(tmp_path):
    path = tmp_path / "gen.json"
    path.write_text(json.dumps({
        "preset": "paper-calibrated",
        "num_smes": 300,
        "seed": 7,
        "sector_size": 50,
    }))
    return str(path)


@pytest.fixture()
def train_config(tmp_path):
    path = tmp_path / "train.json"
    path.write_text(json.dumps({
        "learning_rate": 0.01,
        "dropout": 0.1,
        "num_layers": 1,
        "max_epochs": 30,
        "patience": 8,
        "hidden_dim": 16,
        "embed_dim": 16,
        "head_hidden": 16,
        "seed": 3,
    }))
    return str(path)


@pytest.fixture()
def dataset(tmp_path, gen_config):
    out = tmp_path / "data"
    assert main(["generate", "--config", gen_config, "--out", str(out)]) == 0
    return str(out)


def positives_only_copy(tmp_path, dataset):
    """Copy of `dataset` whose labels_sc.tsv keeps only the positive pairs."""
    pairs, labels = dataio.read_pair_labels(os.path.join(dataset, "labels_sc.tsv"))
    pos_dir = tmp_path / "posonly"
    pos_dir.mkdir()
    for name in ("nodes.csv", "edges.tsv", "labels_dp.tsv"):
        (pos_dir / name).write_bytes((tmp_path / "data" / name).read_bytes())
    dataio.write_pair_labels(pos_dir / "labels_sc.tsv", pairs[labels == 1], labels[labels == 1])
    return pos_dir


class TestGenerate:
    def test_writes_all_artifacts_with_manifest(self, tmp_path, gen_config):
        out = tmp_path / "d1"
        assert main(["generate", "--config", gen_config, "--out", str(out)]) == 0
        for name in ("nodes.csv", "edges.tsv", "labels_sc.tsv", "labels_dp.tsv",
                     "ground_truth.tsv", "run_manifest.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["command"] == "generate"
        assert manifest["seed"] == 7
        for name, digest in manifest["outputs"].items():
            assert dataio.sha256_file(str(out / name)) == digest

    def test_round_trips_through_loaders(self, dataset):
        g = dataio.read_graph(dataset)
        g.validate()
        pairs, labels = dataio.read_pair_labels(os.path.join(dataset, "labels_sc.tsv"))
        assert labels.min() == 0 and labels.max() == 1
        truth = dataio.read_ground_truth(os.path.join(dataset, "ground_truth.tsv"))
        assert truth.num_nodes == g.num_nodes

    def test_identical_digests_across_runs(self, tmp_path, gen_config, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["generate", "--config", gen_config, "--out", str(a)]) == 0
        assert main(["generate", "--config", gen_config, "--out", str(b)]) == 0
        for name in ("nodes.csv", "edges.tsv", "labels_sc.tsv", "labels_dp.tsv",
                     "ground_truth.tsv", "run_manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_zero_nodes_exits_two(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"num_smes": 0}))
        assert main(["generate", "--config", cfg.as_posix(), "--out", str(tmp_path / "x")]) == 2

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text('{"num_smes": 100,\n  "seed": }')
        assert main(["generate", "--config", cfg.as_posix(), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "broken.json:2" in err

    def test_missing_config_exits_two(self, tmp_path):
        assert main(["generate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "x")]) == 2


class TestTrainSc:
    def test_train_produces_checkpoint_manifest_and_mined_edges(self, tmp_path, dataset, train_config):
        out = tmp_path / "sc"
        assert main(["train", "sc", "--data", dataset, "--config", train_config,
                     "--out", str(out)]) == 0
        assert (out / "checkpoint_sc.bin").exists()
        assert (out / "mined_edges.tsv").exists()
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert 0.0 <= manifest["metrics"]["test"]["auc"] <= 1.0
        assert manifest["chosen_epoch"] >= 1
        assert len(manifest["trace"]) >= manifest["chosen_epoch"]

    def test_positive_only_labels_trigger_negative_sampling(self, tmp_path, dataset, train_config):
        pos_dir = positives_only_copy(tmp_path, dataset)
        out = tmp_path / "sc2"
        assert main(["train", "sc", "--data", str(pos_dir), "--config", train_config,
                     "--out", str(out)]) == 0

    def test_grid_emits_full_table(self, tmp_path, dataset, train_config):
        cfg = json.loads(open(train_config).read())
        cfg["max_epochs"] = 12
        cfg["patience"] = 4
        cfg["grid"] = {"learning_rates": [0.005, 0.01], "dropouts": [0.1], "layer_counts": [1, 2]}
        grid_cfg = tmp_path / "grid.json"
        grid_cfg.write_text(json.dumps(cfg))
        out = tmp_path / "scgrid"
        assert main(["train", "sc", "--data", dataset, "--config", str(grid_cfg),
                     "--out", str(out), "--grid"]) == 0
        rows = (out / "grid_table.tsv").read_text().strip().split("\n")
        assert len(rows) == 1 + 4  # header + cells
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["grid_cells"] == 4

    @pytest.mark.parametrize("grid, message", [
        ({"learning_rate": [0.5]}, "unknown grid keys: ['learning_rate']"),
        ([0.1], "grid must be an object"),
        ({"dropouts": 0.1}, "every grid axis must be a non-empty list"),
        ({"dropouts": []}, "every grid axis must be a non-empty list"),
    ])
    def test_malformed_grid_section_exits_two(self, tmp_path, dataset, train_config, capsys, grid, message):
        cfg = json.loads(open(train_config).read())
        cfg["grid"] = grid
        grid_cfg = tmp_path / "badgrid.json"
        grid_cfg.write_text(json.dumps(cfg))
        out = tmp_path / "scbad"
        assert main(["train", "sc", "--data", dataset, "--config", str(grid_cfg),
                     "--out", str(out), "--grid"]) == 2
        err = capsys.readouterr().err
        assert str(grid_cfg) in err and message in err
        assert not (out / "grid_table.tsv").exists()

    def test_missing_data_dir_exits_two(self, tmp_path, train_config):
        assert main(["train", "sc", "--data", str(tmp_path / "void"),
                     "--config", train_config, "--out", str(tmp_path / "o")]) == 2

    def test_thread_env_var_controls_grid_workers(self, tmp_path, dataset, train_config, monkeypatch):
        cfg = json.loads(open(train_config).read())
        cfg.update({"max_epochs": 10, "patience": 3})
        cfg["grid"] = {"learning_rates": [0.005, 0.01], "dropouts": [0.1], "layer_counts": [1]}
        grid_cfg = tmp_path / "grid.json"
        grid_cfg.write_text(json.dumps(cfg))
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        monkeypatch.setenv("CHAINRISK_THREADS", "2")
        out_par = tmp_path / "par"
        assert main(["train", "sc", "--data", dataset, "--config", str(grid_cfg),
                     "--out", str(out_par), "--grid"]) == 0
        monkeypatch.setenv("CHAINRISK_THREADS", "1")
        out_ser = tmp_path / "ser"
        assert main(["train", "sc", "--data", dataset, "--config", str(grid_cfg),
                     "--out", str(out_ser), "--grid"]) == 0
        assert (out_par / "grid_table.tsv").read_bytes() == (out_ser / "grid_table.tsv").read_bytes()

    def test_bad_thread_env_var_exits_two(self, tmp_path, dataset, train_config, monkeypatch):
        monkeypatch.setenv("CHAINRISK_THREADS", "many")
        assert main(["train", "sc", "--data", dataset, "--config", train_config,
                     "--out", str(tmp_path / "o"), "--grid"]) == 2

    def test_seed_and_tau_flags_override_config(self, tmp_path, dataset, train_config):
        out = tmp_path / "sc_override"
        assert main(["train", "sc", "--data", dataset, "--config", train_config,
                     "--out", str(out), "--seed", "99", "--tau", "0.5"]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["seed"] == 99
        assert manifest["config"]["tau"] == 0.5


class TestTrainDp:
    def test_requires_enrichment_choice(self, tmp_path, dataset, train_config):
        assert main(["train", "dp", "--data", dataset, "--config", train_config,
                     "--out", str(tmp_path / "dp")]) == 2

    def test_no_enrich_trains(self, tmp_path, dataset, train_config):
        out = tmp_path / "dp"
        assert main(["train", "dp", "--data", dataset, "--config", train_config,
                     "--out", str(out), "--no-enrich"]) == 0
        assert (out / "checkpoint_dp.bin").exists()
        assert (out / "scores_dp.tsv").exists()
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["enriched"] is False
        assert manifest["mined_edge_count"] == 0

    def test_mined_path_feeds_enrichment(self, tmp_path, dataset, train_config):
        sc_out = tmp_path / "sc"
        assert main(["train", "sc", "--data", dataset, "--config", train_config,
                     "--out", str(sc_out)]) == 0
        dp_out = tmp_path / "dp"
        assert main(["train", "dp", "--data", dataset, "--config", train_config,
                     "--out", str(dp_out), "--mined", str(sc_out / "mined_edges.tsv")]) == 0
        manifest = json.loads((dp_out / "run_manifest.json").read_text())
        assert manifest["enriched"] is True
        assert manifest["mined_edge_count"] > 0

    def test_same_seed_reproduces_output_digests(self, tmp_path, dataset, train_config, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["train", "dp", "--data", dataset, "--config", train_config,
                         "--out", str(out), "--no-enrich"]) == 0
            outs.append(out)
        for fname in ("checkpoint_dp.bin", "scores_dp.tsv", "run_manifest.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


class TestEval:
    def test_eval_matches_training_metrics(self, tmp_path, dataset, train_config):
        out = tmp_path / "dp"
        assert main(["train", "dp", "--data", dataset, "--config", train_config,
                     "--out", str(out), "--no-enrich"]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        eval_out = tmp_path / "ev"
        assert main(["eval", "--checkpoint", str(out / "checkpoint_dp.bin"),
                     "--data", dataset, "--out", str(eval_out), "--no-enrich"]) == 0
        report = json.loads((eval_out / "eval_report.json").read_text())
        assert report["auc"] == manifest["metrics"]["test"]["auc"]
        assert report["ks"] == manifest["metrics"]["test"]["ks"]
        assert (eval_out / "roc_points.tsv").exists()

    def test_positive_only_sc_checkpoint_evaluates_like_training(self, tmp_path, dataset, train_config):
        pos_dir = positives_only_copy(tmp_path, dataset)
        out = tmp_path / "sc"
        assert main(["train", "sc", "--data", str(pos_dir), "--config", train_config,
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        eval_out = tmp_path / "ev"
        assert main(["eval", "--checkpoint", str(out / "checkpoint_sc.bin"),
                     "--data", str(pos_dir), "--out", str(eval_out)]) == 0
        report = json.loads((eval_out / "eval_report.json").read_text())
        assert report["auc"] == manifest["metrics"]["test"]["auc"]
        assert report["ks"] == manifest["metrics"]["test"]["ks"]

    def test_missing_checkpoint_exits_two(self, tmp_path, dataset):
        assert main(["eval", "--checkpoint", str(tmp_path / "none.bin"),
                     "--data", dataset]) == 2

    def test_version_mismatch_exits_four(self, tmp_path, dataset, train_config):
        out = tmp_path / "sc"
        assert main(["train", "sc", "--data", dataset, "--config", train_config,
                     "--out", str(out)]) == 0
        ckpt = out / "checkpoint_sc.bin"
        raw = bytearray(ckpt.read_bytes())
        raw[8] = 42
        ckpt.write_bytes(bytes(raw))
        assert main(["eval", "--checkpoint", str(ckpt), "--data", dataset]) == 4

    def test_shuffled_labels_score_near_chance(self, tmp_path, dataset, train_config):
        out = tmp_path / "dp"
        assert main(["train", "dp", "--data", dataset, "--config", train_config,
                     "--out", str(out), "--no-enrich"]) == 0
        nodes, labels = dataio.read_node_labels(os.path.join(dataset, "labels_dp.tsv"))
        rng = np.random.default_rng(5)
        shuffled_dir = tmp_path / "shuffled"
        shuffled_dir.mkdir()
        for name in ("nodes.csv", "edges.tsv", "labels_sc.tsv"):
            (shuffled_dir / name).write_bytes((tmp_path / "data" / name).read_bytes())
        dataio.write_node_labels(shuffled_dir / "labels_dp.tsv", nodes, rng.permutation(labels))
        eval_out = tmp_path / "ev_shuffled"
        assert main(["eval", "--checkpoint", str(out / "checkpoint_dp.bin"),
                     "--data", str(shuffled_dir), "--out", str(eval_out), "--no-enrich"]) == 0
        report = json.loads((eval_out / "eval_report.json").read_text())
        assert 0.3 <= report["auc"] <= 0.7

    def test_enriched_checkpoint_demands_enrichment_flags(self, tmp_path, dataset, train_config):
        sc_out = tmp_path / "sc"
        assert main(["train", "sc", "--data", dataset, "--config", train_config,
                     "--out", str(sc_out)]) == 0
        dp_out = tmp_path / "dp"
        assert main(["train", "dp", "--data", dataset, "--config", train_config,
                     "--out", str(dp_out), "--mined", str(sc_out / "mined_edges.tsv")]) == 0
        assert main(["eval", "--checkpoint", str(dp_out / "checkpoint_dp.bin"),
                     "--data", dataset]) == 2
