import argparse
import json
import os

import numpy as np
import pytest

from chainrisk import dataio
from chainrisk.cli import _task_inputs, main
from chainrisk.errors import InvalidInput
from chainrisk.graph import SmeGraph
from chainrisk.labels import TRAIN, stratified_split
from chainrisk.model import load_checkpoint, save_checkpoint
from chainrisk.pipeline import TrainConfig

from conftest import check_graph


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


def corrupt_cell(path, lineno, col, value="x"):
    """Overwrite one cell of a delimited text file in place."""
    sep = "," if str(path).endswith(".csv") else "\t"
    lines = open(path, encoding="utf-8").read().split("\n")
    cells = lines[lineno - 1].split(sep)
    cells[col] = value
    lines[lineno - 1] = sep.join(cells)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))


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
        check_graph(g)
        pairs, labels = dataio.read_pair_labels(os.path.join(dataset, "labels_sc.tsv"))
        assert labels.min() == 0 and labels.max() == 1
        truth = dataio.read_ground_truth(os.path.join(dataset, "ground_truth.tsv"))
        assert truth.tiers.size == g.num_nodes

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

    def test_neg_ratio_that_samples_no_negatives_exits_two(self, tmp_path, dataset, train_config, capsys):
        pos_dir = positives_only_copy(tmp_path, dataset)
        cfg = json.loads(open(train_config).read())
        cfg["neg_ratio"] = 0.001
        cfg_path = tmp_path / "tiny_ratio.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["train", "sc", "--data", str(pos_dir), "--config", str(cfg_path),
                     "--out", str(tmp_path / "sc")]) == 2
        _, labels = dataio.read_pair_labels(pos_dir / "labels_sc.tsv")
        assert round(0.001 * labels.size) == 0
        err = capsys.readouterr().err
        assert "neg_ratio 0.001" in err and f"{labels.size} positives" in err

    @pytest.mark.parametrize("flags", [["--no-enrich"], ["--mined", "mined_edges.tsv"]], ids=["no-enrich", "mined"])
    def test_enrichment_flags_rejected(self, tmp_path, dataset, train_config, capsys, flags):
        assert main(["train", "sc", "--data", dataset, "--config", train_config,
                     "--out", str(tmp_path / "sc"), *flags]) == 2
        assert "stage sc takes neither --mined nor --no-enrich" in capsys.readouterr().err

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
        ({"learning_rates": ["fast"]}, "grid axis learning_rates: training config key 'learning_rate' must be"),
        ({"layer_counts": [True]}, "grid axis layer_counts: training config key 'num_layers' must be an integer"),
        ({"layer_counts": [4]}, "grid axis layer_counts: num_layers must be 1, 2, or 3"),
        ({"dropouts": [0.1, 1.5]}, "grid axis dropouts: dropout must be in [0, 1)"),
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

    def test_mined_and_no_enrich_are_mutually_exclusive(self, tmp_path, dataset, train_config):
        with pytest.raises(SystemExit) as exit_info:
            main(["train", "dp", "--data", dataset, "--config", train_config, "--out", str(tmp_path / "dp"),
                  "--mined", str(tmp_path / "mined_edges.tsv"), "--no-enrich"])
        assert exit_info.value.code == 2
        assert not (tmp_path / "dp").exists()

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


def test_manifest_inputs_are_the_digests_the_readers_took(tmp_path, dataset, train_config, monkeypatch):
    """train sc, train dp --mined and eval list every file they read with its
    SHA-256 and hash none of the data files again; the checkpoint holds the
    digests of the files train dp read, by file name."""
    real, hashed = dataio.sha256_file, []
    monkeypatch.setattr(dataio, "sha256_file", lambda path: hashed.append(path) or real(path))
    sc, dp, ev = (str(tmp_path / name) for name in ("sc", "dp", "ev"))
    mined = os.path.join(sc, "mined_edges.tsv")
    ckpt = os.path.join(dp, "checkpoint_dp.bin")
    data = [os.path.join(dataset, name) for name in ("nodes.csv", "edges.tsv")]
    runs = [
        (["train", "sc", "--data", dataset, "--config", train_config, "--out", sc],
         [*data, os.path.join(dataset, "labels_sc.tsv")]),
        (["train", "dp", "--data", dataset, "--config", train_config, "--out", dp, "--mined", mined],
         [*data, os.path.join(dataset, "labels_dp.tsv"), mined]),
        (["eval", "--checkpoint", ckpt, "--data", dataset, "--out", ev, "--mined", mined],
         [*data, os.path.join(dataset, "labels_dp.tsv"), mined, ckpt]),
    ]
    for argv, inputs in runs:
        hashed.clear()
        assert main(argv) == 0
        manifest = json.loads(open(os.path.join(argv[argv.index("--out") + 1], "run_manifest.json")).read())
        assert manifest["inputs"] == {path: real(path) for path in inputs}
        assert [path for path in hashed if path in inputs] == ([ckpt] if argv[0] == "eval" else [])
    assert load_checkpoint(ckpt)[1]["inputs"] == {os.path.basename(path): real(path) for path in runs[1][1]}


def test_eval_refuses_a_graph_the_checkpoint_was_not_trained_on(tmp_path, dataset, train_config, capsys):
    sc, dp = str(tmp_path / "sc"), str(tmp_path / "dp")
    mined = os.path.join(sc, "mined_edges.tsv")
    assert main(["train", "sc", "--data", dataset, "--config", train_config, "--out", sc]) == 0
    assert main(["train", "dp", "--data", dataset, "--config", train_config, "--out", dp, "--mined", mined]) == 0
    evaluate = ["eval", "--checkpoint", os.path.join(dp, "checkpoint_dp.bin"), "--data", dataset,
                "--out", str(tmp_path / "ev"), "--mined", mined]
    capsys.readouterr()
    for path in (os.path.join(dataset, "nodes.csv"), os.path.join(dataset, "edges.tsv"), mined):
        text = open(path, "rb").read()
        corrupt_cell(path, 2, 2, "0.5")  # a feature or a score: still a valid file
        assert main(evaluate) == 2
        err = capsys.readouterr().err
        assert f"{path} is not the {os.path.basename(path)}" in err and "Traceback" not in err
        open(path, "wb").write(text)
    assert main(evaluate) == 0


@pytest.fixture(scope="module")
def trained_dp(tmp_path_factory):
    """(data dir, sc output dir, enriched dp checkpoint, base-graph dp checkpoint)
    from one 300-SME economy, 5 epochs, stage 1 at tau 0.5."""
    root = tmp_path_factory.mktemp("bound")
    gen, train = root / "gen.json", root / "train.json"
    gen.write_text(json.dumps({"preset": "paper-calibrated", "num_smes": 300, "seed": 7, "sector_size": 50}))
    train.write_text(json.dumps({"max_epochs": 5, "patience": 4, "hidden_dim": 16, "embed_dim": 16,
                                 "head_hidden": 16, "num_layers": 1, "seed": 3}))
    data, sc, dp, base = (str(root / name) for name in ("data", "sc", "dp", "base"))
    mined = os.path.join(sc, "mined_edges.tsv")
    for argv in (["generate", "--config", str(gen), "--out", data],
                 ["train", "sc", "--data", data, "--config", str(train), "--out", sc, "--tau", "0.5"],
                 ["train", "dp", "--data", data, "--config", str(train), "--out", dp, "--mined", mined],
                 ["train", "dp", "--data", data, "--config", str(train), "--out", base, "--no-enrich"]):
        assert main(argv) == 0
    assert dataio.read_mined_edges(mined)[0].shape[0] > 0
    return data, sc, os.path.join(dp, "checkpoint_dp.bin"), os.path.join(base, "checkpoint_dp.bin")


class TestEvalBinding:
    """eval reads exactly the non-label files, by content, that train read."""

    def evaluate(self, tmp_path, data, checkpoint, *flags):
        return main(["eval", "--checkpoint", checkpoint, "--data", data, "--out", str(tmp_path / "ev"), *flags])

    def test_enriched_checkpoint_refuses_the_base_graph(self, tmp_path, trained_dp, capsys):
        data, _, enriched, _ = trained_dp
        assert self.evaluate(tmp_path, data, enriched, "--no-enrich") == 2
        assert f"{enriched} was also trained on mined_edges.tsv" in capsys.readouterr().err

    def test_base_graph_checkpoint_refuses_mined_edges(self, tmp_path, trained_dp, capsys):
        data, sc, _, base = trained_dp
        mined = os.path.join(sc, "mined_edges.tsv")
        assert self.evaluate(tmp_path, data, base, "--mined", mined) == 2
        assert f"{mined} is not a file {base} was trained on" in capsys.readouterr().err

    def test_enriched_checkpoint_refuses_other_mined_edges(self, tmp_path, trained_dp, capsys):
        data, sc, enriched, _ = trained_dp
        other = tmp_path / "other.tsv"
        other.write_bytes(open(os.path.join(sc, "mined_edges.tsv"), "rb").read())
        corrupt_cell(other, 1, 2, "0.75")  # a score: still a valid file
        assert self.evaluate(tmp_path, data, enriched, "--mined", str(other)) == 2
        assert f"{other} is not a file {enriched} was trained on" in capsys.readouterr().err

    def test_renamed_copy_of_the_mined_edges_passes(self, tmp_path, trained_dp):
        data, sc, enriched, _ = trained_dp
        renamed = tmp_path / "renamed.tsv"
        renamed.write_bytes(open(os.path.join(sc, "mined_edges.tsv"), "rb").read())
        assert self.evaluate(tmp_path, data, enriched, "--mined", str(renamed)) == 0

    def test_mined_edges_named_like_a_graph_file_pass(self, tmp_path, trained_dp):
        """train records the --mined file as mined_edges.tsv, so a copy named
        edges.tsv leaves the graph's edges.tsv digest in place."""
        data, sc, _, _ = trained_dp
        mined = tmp_path / "m" / "edges.tsv"
        mined.parent.mkdir()
        mined.write_bytes(open(os.path.join(sc, "mined_edges.tsv"), "rb").read())
        dp = str(tmp_path / "dp")
        assert main(["train", "dp", "--data", data, "--config", os.path.join(os.path.dirname(data), "train.json"),
                     "--out", dp, "--mined", str(mined)]) == 0
        checkpoint = os.path.join(dp, "checkpoint_dp.bin")
        assert load_checkpoint(checkpoint)[1]["inputs"] == {
            "nodes.csv": dataio.sha256_file(os.path.join(data, "nodes.csv")),
            "edges.tsv": dataio.sha256_file(os.path.join(data, "edges.tsv")),
            "labels_dp.tsv": dataio.sha256_file(os.path.join(data, "labels_dp.tsv")),
            "mined_edges.tsv": dataio.sha256_file(str(mined)),
        }
        assert self.evaluate(tmp_path, data, checkpoint, "--mined", str(mined)) == 0


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

    @pytest.mark.parametrize("flags", [["--mined", "/nonexistent"], ["--no-enrich"]], ids=["mined", "no-enrich"])
    def test_sc_checkpoint_rejects_enrichment_flags(self, tmp_path, dataset, train_config, capsys, flags):
        out = tmp_path / "sc"
        assert main(["train", "sc", "--data", dataset, "--config", train_config,
                     "--out", str(out)]) == 0
        assert main(["eval", "--checkpoint", str(out / "checkpoint_sc.bin"), "--data", dataset,
                     "--out", str(tmp_path / "ev"), *flags]) == 2
        assert "stage sc takes neither --mined nor --no-enrich" in capsys.readouterr().err

    def test_mined_and_no_enrich_are_mutually_exclusive(self, tmp_path, dataset):
        with pytest.raises(SystemExit) as exit_info:
            main(["eval", "--checkpoint", str(tmp_path / "checkpoint_dp.bin"), "--data", dataset,
                  "--mined", str(tmp_path / "mined_edges.tsv"), "--no-enrich"])
        assert exit_info.value.code == 2

    def test_truncated_checkpoint_exits_two(self, tmp_path, dataset, train_config, capsys):
        out = tmp_path / "dp"
        assert main(["train", "dp", "--data", dataset, "--config", train_config,
                     "--out", str(out), "--no-enrich"]) == 0
        ckpt = out / "checkpoint_dp.bin"
        ckpt.write_bytes(ckpt.read_bytes()[:40])
        assert main(["eval", "--checkpoint", str(ckpt), "--data", dataset, "--no-enrich"]) == 2
        assert str(ckpt) in capsys.readouterr().err

    @pytest.mark.parametrize("meta", [
        {"stage": "dp"},
        {"stage": "xx", "config": {}},
        {"stage": "dp", "config": [1, 2]},
        {"stage": "dp", "config": {"max_epochs": "5"}},
    ], ids=["no-config", "bad-stage", "config-list", "config-typed"])
    def test_checkpoint_meta_is_checked(self, tmp_path, dataset, train_config, capsys, meta):
        out = tmp_path / "dp"
        assert main(["train", "dp", "--data", dataset, "--config", train_config,
                     "--out", str(out), "--no-enrich"]) == 0
        ckpt = out / "checkpoint_dp.bin"
        model, _ = load_checkpoint(str(ckpt))
        save_checkpoint(str(ckpt), model, meta)
        assert main(["eval", "--checkpoint", str(ckpt), "--data", dataset, "--no-enrich"]) == 2
        assert str(ckpt) in capsys.readouterr().err


# configs the typed parser rejects, and the key its message names
BAD_TRAIN_CONFIGS = [
    ({"max_epochs": "5"}, "max_epochs"),
    ([1, 2], "object"),
    ({"learning_rate": None}, "learning_rate"),
    ({"num_layers": 1.0}, "num_layers"),
    ({"tau": True}, "tau"),
]
BAD_GEN_CONFIGS = [
    ({"num_smes": "300"}, "num_smes"),
    ([1], "object"),
    ({"num_smes": 300, "seed": True}, "seed"),
    ({"preset": "paper-calibrated", "num_smes": 300, "tier_shares": [0.3, "0.4", 0.3]}, "tier_shares"),
]


@pytest.mark.parametrize("config,key", BAD_TRAIN_CONFIGS, ids=[k for _, k in BAD_TRAIN_CONFIGS])
def test_mistyped_train_config_exits_two(tmp_path, capsys, config, key):
    path = tmp_path / "train.json"
    path.write_text(json.dumps(config))
    assert main(["train", "dp", "--no-enrich", "--data", str(tmp_path / "none"), "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and key in err


@pytest.mark.parametrize("config,key", BAD_GEN_CONFIGS, ids=[k for _, k in BAD_GEN_CONFIGS])
def test_mistyped_generator_config_exits_two(tmp_path, capsys, config, key):
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(config))
    assert main(["generate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and key in err


@pytest.mark.parametrize("config", [
    {"num_smes": 50, "social_density": 0.9},
    {"num_smes": 200, "neg_ratio": 1000},
    {"num_smes": 12, "supply_density": 0.999},
])
def test_more_negatives_than_free_pairs_exits_two(tmp_path, capsys, config):
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(config))
    assert main(["generate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "neg_ratio" in err


# (file, line, column) of the corrupted cell, and the command that reads the file
CORRUPT_CELLS = [
    ("nodes.csv", 3, 2, ["train", "dp", "--no-enrich"]),
    ("edges.tsv", 3, 2, ["train", "dp", "--no-enrich"]),
    ("labels_dp.tsv", 3, 0, ["train", "dp", "--no-enrich"]),
    ("labels_sc.tsv", 3, 1, ["train", "sc"]),
    ("mined_edges.tsv", 2, 2, ["train", "dp", "--mined", "mined_edges.tsv"]),
    ("ground_truth.tsv", 3, 3, None),  # no command reads it; its reader is called directly
]


@pytest.mark.parametrize("name,lineno,col,command", CORRUPT_CELLS, ids=[c[0] for c in CORRUPT_CELLS])
def test_non_numeric_cell_exits_two_with_path_and_line(tmp_path, dataset, train_config, capsys,
                                                       name, lineno, col, command):
    path = os.path.join(dataset, name)
    if name == "mined_edges.tsv":
        dataio.write_mined_edges(path, np.array([[0, 5], [1, 7]]), np.array([0.95, 0.97]))
    corrupt_cell(path, lineno, col)
    if command is None:
        with pytest.raises(InvalidInput, match=f"{path}:{lineno}:"):
            dataio.read_ground_truth(path)
        return
    argv = [path if arg == name else arg for arg in command]
    assert main(argv + ["--data", dataset, "--config", train_config, "--out", str(tmp_path / "o")]) == 2
    assert f"{path}:{lineno}:" in capsys.readouterr().err


def on_line(lineno, edit):
    """A whole-file edit that applies `edit` to the bytes of line `lineno`."""
    def apply(data):
        lines = data.split(b"\n")
        lines[lineno - 1] = edit(lines[lineno - 1])
        return b"\n".join(lines)
    return apply


# (file, edit of its bytes, line a rejection must name or None when it is read, command)
CORRUPT_BYTES = {
    "long-kind": ("nodes.csv", on_line(6, lambda b: b.replace(b",sme,", b",consumerXYZ,")), 6,
                  ["train", "dp", "--no-enrich"]),
    "not-utf8": ("nodes.csv", on_line(4, lambda b: b + b"\xff"), 4, ["train", "dp", "--no-enrich"]),
    "int64-overflow": ("labels_dp.tsv", on_line(3, lambda b: b"9" * 25 + b[b.index(b"\t"):]), 3,
                       ["train", "dp", "--no-enrich"]),
    "blank-line": ("edges.tsv", on_line(5, lambda b: b"\n" + b), 5, ["train", "dp", "--no-enrich"]),
    "lone-cr": ("labels_sc.tsv", on_line(3, lambda b: b.replace(b"\t", b"\r", 1)), 3, ["train", "sc"]),
    "crlf": ("labels_dp.tsv", lambda data: data.replace(b"\n", b"\r\n"), None,
             ["train", "dp", "--no-enrich"]),
}


@pytest.mark.parametrize("case", sorted(CORRUPT_BYTES))
def test_corrupt_bytes_exit_zero_or_two_with_path_and_line(tmp_path, dataset, train_config, capsys, case):
    name, edit, lineno, command = CORRUPT_BYTES[case]
    path = os.path.join(dataset, name)
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path, "wb") as fh:
        fh.write(edit(data))
    code = main(command + ["--data", dataset, "--config", train_config, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if lineno is None:
        assert code == 0, err
    else:
        assert code == 2 and f"{path}:{lineno}:" in err


def first_train_line(path, seed):
    """Line of the first row of a pair label file that `stratified_split` puts in train."""
    _, labels = dataio.read_pair_labels(path)
    return 1 + int(np.flatnonzero(stratified_split(labels, seed=seed) == TRAIN)[0])


# (file, line or None for the first train row, cell, bad id, command)
OUT_OF_RANGE_IDS = {
    "train-dp": ("labels_dp.tsv", 6, 0, "100000", ["train", "dp", "--no-enrich"]),
    "train-dp-negative": ("labels_dp.tsv", 6, 0, "-1", ["train", "dp", "--no-enrich"]),
    "train-sc": ("labels_sc.tsv", None, 1, "300", ["train", "sc"]),
    "train-sc-negative": ("labels_sc.tsv", None, 0, "-7", ["train", "sc"]),
    "mined": ("mined_edges.tsv", 2, 1, "100000", ["train", "dp", "--mined", "mined_edges.tsv"]),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE_IDS))
def test_out_of_range_id_exits_two_with_path_line_and_id(tmp_path, dataset, train_config, capsys, case):
    name, lineno, col, bad, command = OUT_OF_RANGE_IDS[case]
    path = os.path.join(dataset, name)
    if name == "mined_edges.tsv":
        dataio.write_mined_edges(path, np.array([[0, 5], [1, 7]]), np.array([0.95, 0.97]))
    lineno = lineno or first_train_line(path, json.loads(open(train_config).read())["seed"])
    corrupt_cell(path, lineno, col, bad)
    argv = [path if arg == name else arg for arg in command]
    code = main(argv + ["--data", dataset, "--config", train_config, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err
    assert f"{path}:{lineno}: node id {bad} is out of range" in err


@pytest.mark.parametrize("bad", ["100000", "-1"])
def test_eval_of_out_of_range_labels_exits_two_with_path_and_line(tmp_path, dataset, train_config, capsys, bad):
    out = tmp_path / "dp"
    assert main(["train", "dp", "--data", dataset, "--config", train_config,
                 "--out", str(out), "--no-enrich"]) == 0
    path = os.path.join(dataset, "labels_dp.tsv")
    corrupt_cell(path, 6, 0, bad)
    assert main(["eval", "--checkpoint", str(out / "checkpoint_dp.bin"), "--data", dataset,
                 "--out", str(tmp_path / "ev"), "--no-enrich"]) == 2
    err = capsys.readouterr().err
    assert f"{path}:6: node id {bad} is out of range" in err and "Traceback" not in err


def invalid_example(case, lines):
    """(line number, its new text, expected message) of one case on a label file's lines."""
    if case == "duplicate-node":
        node, label = lines[2].split("\t")[0], lines[5].split("\t")[1]
        return 6, f"{node}\t{label}", f"duplicate node {node}"
    if case == "self-pair":
        return 5, "5\t5\t" + lines[4].split("\t")[2], "pair (5, 5) is not in canonical order u < v"
    u, v, _ = lines[3].split("\t")
    return 9, lines[3], f"duplicate pair ({u}, {v})"


INVALID_EXAMPLES = {
    "duplicate-node": ("labels_dp.tsv", ["train", "dp", "--no-enrich"]),
    "self-pair": ("labels_sc.tsv", ["train", "sc"]),
    "repeated-line": ("labels_sc.tsv", ["train", "sc"]),
}


@pytest.mark.parametrize("case", sorted(INVALID_EXAMPLES))
def test_invalid_label_example_exits_two_with_path_and_line(tmp_path, dataset, train_config, capsys, case):
    name, command = INVALID_EXAMPLES[case]
    path = os.path.join(dataset, name)
    lines = open(path, encoding="utf-8").read().split("\n")
    lineno, text, message = invalid_example(case, lines)
    lines[lineno - 1] = text
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))
    code = main(command + ["--data", dataset, "--config", train_config, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err
    assert f"{path}:{lineno}: {message}" in err


def test_repeated_example_names_the_same_line_cold_and_warm(tmp_path, dataset, train_config, capsys):
    """The label file's cells parse, so its copy is saved; the set built from
    the copy rejects the same line."""
    path = os.path.join(dataset, "labels_sc.tsv")
    lines = open(path, encoding="utf-8").read().split("\n")
    lineno, text, message = invalid_example("repeated-line", lines)
    lines[lineno - 1] = text
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))
    copy = os.path.join(dataset, dataio.CACHE_DIR, "labels_sc.tsv.npy")
    errors = []
    for _ in range(2):
        code = main(["train", "sc", "--data", dataset, "--config", train_config, "--out", str(tmp_path / "o")])
        errors.append(capsys.readouterr().err)
        assert code == 2 and os.path.exists(copy)
    assert errors[0] == errors[1] == f"error: {path}:{lineno}: {message}\n"


def unsplittable_labels(case, path):
    """Rewrite the label file `path` as `case`; returns the expected message after the path."""
    if case == "sc-no-positive":
        pairs, labels = dataio.read_pair_labels(path)
        dataio.write_pair_labels(path, pairs[labels == 0], labels[labels == 0])
        return " has no positive pairs"
    nodes, labels = dataio.read_node_labels(path)
    if case == "dp-empty":
        nodes, labels = nodes[:0], labels[:0]
    elif case == "dp-one-class":
        labels = np.zeros_like(labels)
    else:  # two positives
        labels = np.zeros_like(labels)
        labels[[3, 8]] = 1
    dataio.write_node_labels(path, nodes, labels)
    if case == "dp-two-positives":
        return ": every class needs at least 3 examples to split"
    return ": split train must contain both classes"


@pytest.mark.parametrize("case", ["dp-empty", "dp-one-class", "dp-two-positives", "sc-no-positive"])
def test_labels_that_cannot_be_split_name_the_label_file(tmp_path, dataset, train_config, capsys, case):
    stage = case[:2]
    path = os.path.join(dataset, f"labels_{stage}.tsv")
    message = unsplittable_labels(case, path)
    enrichment = ["--no-enrich"] if stage == "dp" else []
    code = main(["train", stage, *enrichment, "--data", dataset, "--config", train_config,
                 "--out", str(tmp_path / "o")])
    assert code == 2 and capsys.readouterr().err == f"error: {path}{message}\n"


# (file, line, cell, its new value, message) of a row a graph or mined-edge rule
# rejects; the cell None makes the line a copy of the line numbered by the value
GRAPH_FAULTS = {
    "edge-endpoint": ("edges.tsv", 4, 1, "100000", "edge endpoint out of range"),
    "repeated-edge": ("edges.tsv", 6, None, 3, "duplicate undirected edges"),
    "nan-edge-feature": ("edges.tsv", 5, 2, "nan", "edge_features contain non-finite values"),
    "nan-node-feature": ("nodes.csv", 7, 3, "nan", "node_features contain non-finite values"),
    "mined-score-above-one": ("mined_edges.tsv", 2, 2, "1.5", "mined scores must lie in [0, 1]"),
    "mined-score-nan": ("mined_edges.tsv", 1, 2, "nan", "mined scores must lie in [0, 1]"),
}


@pytest.mark.parametrize("case", sorted(GRAPH_FAULTS))
def test_graph_and_mined_faults_exit_two_with_path_and_line(tmp_path, dataset, train_config, capsys, case):
    name, lineno, col, value, message = GRAPH_FAULTS[case]
    path = os.path.join(dataset, name)
    if name == "mined_edges.tsv":
        dataio.write_mined_edges(path, np.array([[0, 5], [1, 7]]), np.array([0.95, 0.97]))
    if col is None:
        lines = open(path, encoding="utf-8").read().split("\n")
        lines[lineno - 1] = lines[value - 1]
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines))
    else:
        corrupt_cell(path, lineno, col, value)
    enrichment = ["--mined", path] if name == "mined_edges.tsv" else ["--no-enrich"]
    code = main(["train", "dp", *enrichment, "--data", dataset, "--config", train_config,
                 "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err
    assert f"{path}:{lineno}: {message}" in err


def test_positive_only_negatives_are_drawn_among_smes(tmp_path):
    """20 SMEs, 10 owners and 10 consumers: every sampled negative joins two SMEs,
    the only pairs candidate search scores."""
    kinds = np.array(["sme"] * 20 + ["owner"] * 10 + ["consumer"] * 10)
    edges = [(u, u + 1) for u in range(39)]
    g = SmeGraph.from_edge_list(40, edges, np.zeros((40, 1)), node_kind=kinds)
    dataio.write_graph(str(tmp_path), g)
    positives = np.array([(0, 5), (2, 9), (4, 13), (7, 18)])
    dataio.write_pair_labels(str(tmp_path / "labels_sc.tsv"), positives, np.ones(4, dtype=np.int8))
    args = argparse.Namespace(data=str(tmp_path), mined=None, no_enrich=False)
    _, labeled, _, _ = _task_inputs(args, "sc", TrainConfig(neg_ratio=3.0, seed=1))
    negatives = labeled.examples[labeled.labels == 0]
    assert negatives.shape == (12, 2)
    assert np.all(kinds[negatives] == "sme")
