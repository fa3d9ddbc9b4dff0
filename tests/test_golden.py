"""Pinned outputs of the seeded samplers and of training.

The sampler digests were recorded before the three rejection samplers
(social ties and uniform negatives in the generator, `sample_negatives`)
were merged into `graph.sample_pair_keys`; any change to how they consume
the random stream shows up here. The `knobs-600` economy, with non-default
sector size, acceptance breadth and supply density, was recorded before
supply matching became a rank rule over precomputed ranks.

The training digests (parameters and loss trace of `train_task`, mined pairs
and scores of `run_stage1_mining`) were recorded before the head's joint
keep-mask, the per-training-set scatter plan, the cached first propagation
and block-bounded scoring went in; each of those must leave every bit of
the outputs as it was. The CLI digests (`train sc`, `train dp --no-enrich`
and `eval` on the 300-SME economy) were recorded before the text readers
and writers went bulk. BLAS results can depend on the thread count, so the
training runs in a child process pinned to one BLAS thread. The benchmark
runs on two, so `TRAINING_DIGESTS_2T` pins the same runs there; it was
recorded before every training array came to be reused from epoch to epoch.
`TRAINING_DIGESTS`, `TRAINING_DIGESTS_2T` and `CLI_DIGESTS` were re-recorded
after dropout masks came to be drawn from 16-bit Philox lanes
(`nn.dropout_mask`), which moves every same-seed training output; the
generator digests and the mined pairs did not move. The pair entries were
re-recorded again when the head's backward scatter took `spmm`'s summation
order (a node's rows sum as row 0 + (row 1 + ...)), which the node task,
with distinct ids, does not see; the candidate logits of the mining run were
added then. `CLI_DIGESTS["checkpoint_dp.bin"]` was re-recorded when the
checkpoint meta came to hold the digests of the files training read.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile

import numpy as np
import pytest

from chainrisk import dataio, synthgen
from chainrisk.graph import SmeGraph
from chainrisk.labels import sample_negatives

from conftest import blas_child

GENERATE_DIGESTS = {
    "cli-300": (
        dict(num_smes=300, seed=7, sector_size=50),
        {
            "nodes.csv": "060f101b49752297c22b6efdda67ddc5b2f00656065cccdb49fa4e942489cd9e",
            "edges.tsv": "ebdf75903441dfc3146ed016872d6cf9ab5737611c2fb46ce0441edb00d89d37",
            "labels_sc.tsv": "4ee807bde394d247a27f66f719b4410a5a126a6457e9fe74e3d4c3e064ec3943",
            "labels_dp.tsv": "061968fb25a9e7b33adf73d5b5a0ceb62cc5b6bf3ced5175c2799f252fbfd749",
            "ground_truth.tsv": "3322f3f377690771e7459499e834a4ee659023ba8fa6903a554b8db371d693e6",
        },
    ),
    "paper-2000": (
        dict(num_smes=2000, seed=0),
        {
            "nodes.csv": "fea8de277741eb4276ec08ea3db4c869cb523565ae523f525d0658991756c32f",
            "edges.tsv": "4160bc431743c445026cff7fccd9724f8f27989592de72b941ed266753c8f7d8",
            "labels_sc.tsv": "b1be08280dcf6319ea1cd27e8145b4be457b41c57615b767bf5ff589a5daefb2",
            "labels_dp.tsv": "d067c864fb7a7d1e5b2c6534b35b3452c52c56bcdd695bb375e780cbf9483ae3",
            "ground_truth.tsv": "b39a9622f6a20dfcf90fd5c739bfb84e97439a9cd2dcf5fc57b1be0efc3d7d95",
        },
    ),
    "knobs-600": (
        dict(num_smes=600, seed=5, sector_size=30, accept_breadth=1.5, supply_density=0.2),
        {
            "nodes.csv": "d9d518c8f258fd80ed9ea7c48865a8cc9947d4fd9930c62a85f8b2dfa1b2f46d",
            "edges.tsv": "be41aa2e27a58f440b44eb5b06e546e2282e34a69c586d8ebb2e3b3879498808",
            "labels_sc.tsv": "9a5e40cabb03cb67c10b5e5b9c863d469cdc56ba614611aa16a5abd7d934af21",
            "labels_dp.tsv": "051107aaa59147a10f21abd21b1c671a8611e7c3bf5dffb5995ec3329b00fb9c",
            "ground_truth.tsv": "0d46617ac5e6c9dda2230f8e87c7b39dc364288dca634bcffefc37a187355a83",
        },
    ),
}


def _array_digest(a):
    a = np.ascontiguousarray(np.asarray(a, dtype="<i8"))
    return a.shape, hashlib.sha256(a.tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GENERATE_DIGESTS))
def test_generate_artifacts_are_pinned(tmp_path, name):
    kwargs, expected = GENERATE_DIGESTS[name]
    g, pair_set, node_set, truth = synthgen.generate(synthgen.paper_calibrated(**kwargs))
    paths = dataio.write_graph(str(tmp_path), g)
    for fname, write, args in (
        ("labels_sc.tsv", dataio.write_pair_labels, (pair_set.examples, pair_set.labels)),
        ("labels_dp.tsv", dataio.write_node_labels, (node_set.examples, node_set.labels)),
        ("ground_truth.tsv", dataio.write_ground_truth, (truth,)),
    ):
        paths.append(str(tmp_path / fname))
        write(paths[-1], *args)
    assert {os.path.basename(p): dataio.sha256_file(p) for p in paths} == expected


def _dense_graph():
    """14 nodes with 49 of the 91 pairs linked."""
    rng = np.random.default_rng(0)
    edges = [(u, v) for u in range(14) for v in range(u + 1, 14) if rng.random() < 0.6]
    return SmeGraph.from_edge_list(14, edges, np.zeros((14, 1))), edges


@pytest.fixture(scope="module")
def cli_economy():
    g, pair_set, _, _ = synthgen.generate(synthgen.paper_calibrated(num_smes=300, seed=7, sector_size=50))
    return g, pair_set.examples[pair_set.labels == 1]


def test_sample_negatives_rejection_branch_is_pinned(cli_economy):
    g, positives = cli_economy
    # (positives, ratio, seed, nodes) -> (shape, sha256 of the int64 pairs)
    cases = [
        ((positives, 1.0, 3, None), ((107, 2), "57789181cf27d1dece6e49e0f87a7a00fa4d755660f3ff60815c9d70571cd1da")),
        ((positives[:20], 2.0, 5, np.arange(0, 300, 2)),
         ((40, 2), "1d88fc49ffd54910a8468117c7bb1a98ca99132cecdbd10fa64a9f77d836b9ea")),
        ((positives[:30], 1.5, 11, np.random.default_rng(1).permutation(300)[:150]),
         ((45, 2), "5bf40faf4885a7c8529854653c64a79b9ac2b581b025abc33400514a1dd931fa")),
    ]
    for (pos, ratio, seed, nodes), expected in cases:
        assert _array_digest(sample_negatives(g, pos, ratio, seed, nodes=nodes)) == expected


def test_sample_negatives_over_all_sme_nodes_draws_as_over_all_nodes(cli_economy):
    g, positives = cli_economy
    sme = np.flatnonzero(g.node_kind == "sme")
    assert np.array_equal(sme, np.arange(g.num_nodes))
    expected = sample_negatives(g, positives, 1.0, 3).tobytes()
    assert sample_negatives(g, positives, 1.0, 3, nodes=sme).tobytes() == expected


def test_sample_negatives_dense_pool_branch_is_pinned():
    g, edges = _dense_graph()
    non_edges = [(u, v) for u in range(14) for v in range(u + 1, 14) if (u, v) not in edges]
    # 36 allowed non-edges for 9 draws, and 11 for 3: both at most 4x the count
    full = sample_negatives(g, non_edges[:6], 1.5, 2)
    assert _array_digest(full) == ((9, 2), "443f7f152bfb7663cb9d4bd4d777d00c1289ade4a79f190c96629df15713deca")
    subset = sample_negatives(g, [(13, 2), (7, 4), (0, 1)], 1.0, 9, nodes=np.array([13, 2, 7, 4, 9, 11, 0]))
    assert _array_digest(subset) == ((3, 2), "3a02b769fe8f822c0a4c0233955f7478e35b5bbaa1cc227c7ba5baa39670d324")


# train_task configs on paper_calibrated(num_smes=2000, seed=0): a 1-layer pair
# task and a 2-layer node task at dropout 0.3, both best at their last epoch (the
# pair task stopped early, best epoch 31 of 46, under the float64 dropout draw)
TRAIN_CASES = {
    "pair": dict(seed=0, num_layers=1, dropout=0.1, max_epochs=60, patience=15),
    "node": dict(seed=0, num_layers=2, dropout=0.3, max_epochs=60, patience=15),
}
# at tau 0.5 every mined edge of this run is an injected known link (score 1.0),
# so the mined pairs and scores pin no model score; the digest of the stage-1
# model's candidate logits does
MINING_TAU = 0.5
TRAINING_DIGESTS = {
    "pair": {
        "epochs": 60,
        "best_epoch": 60,
        "parameters": "773a2b1d01638487fac4792eeb41aaada6a0fc8c805d491c9b115c1878f4d516",
        "trace": "41c22eee9ed4ff290b1bd483340b63f752971cc566c6d4fc54fcc2729f643220",
    },
    "node": {
        "epochs": 60,
        "best_epoch": 60,
        "parameters": "c41a1756249d187bda72d0e3c1565f03ece86d292ccae53fa164778778bb07b7",
        "trace": "7720b6d9415521dbf1bd19ec0822a5981070eff964f093cde864651acd90490b",
    },
    "mining": {
        "candidates": 29457,
        "mined": 1252,
        "pairs": "392ecf43ea8f64326b9f4b2872f36c505db56b3c37cc8509b08b15b4f256043b",
        "scores": "a51a58749124b1beeb9d08a26f41857626b3c191c710cf220fc0d3f41f237ee1",
        "logits": "8a6440b6f54788ecbf169ff90328b93be161430db509eef13273fe3c29ccd971",
    },
}


# the same runs on two BLAS threads: the encoder and head products split
# across threads, so parameters, losses and candidate logits differ from one
# thread's in the last bits, while the mined pairs and scores agree
TRAINING_DIGESTS_2T = {
    "pair": {
        "epochs": 60,
        "best_epoch": 60,
        "parameters": "f369b63b1a2beac9cf0092152f410a8af06e354e76a67027440d384bd078b7b9",
        "trace": "8f89aa8f143ad21743d6f6243c50c0ef2bd85761b87f11a9639e3725e4b9f226",
    },
    "node": {
        "epochs": 60,
        "best_epoch": 60,
        "parameters": "357ee4883b834e3b01c04d6c16946aefadf69bef95c7a65f9a8e13a36c5c092a",
        "trace": "c91894a96297f9bfcd960993518e1113ebe418f35de631e2aa854c949f8da1b4",
    },
    "mining": {**TRAINING_DIGESTS["mining"],
               "logits": "9ee8d605e56192d825918db4cfb6df8631e06c5b5c5679b63e88fd0ec0aa4bbd"},
}


def _float_digest(a):
    return hashlib.sha256(np.ascontiguousarray(np.asarray(a, dtype="<f8")).tobytes()).hexdigest()


def training_digests():
    """Digests of the TRAIN_CASES runs and of one stage-1 mining run."""
    from chainrisk import pipeline
    from chainrisk.pipeline import TaskData, TrainConfig, train_task

    g, pair_set, node_set, _ = synthgen.generate(synthgen.paper_calibrated(num_smes=2000, seed=0))
    out = {}
    for name, labeled in (("pair", pair_set), ("node", node_set)):
        result = train_task(TaskData.build(g, labeled), TrainConfig(**TRAIN_CASES[name]))
        out[name] = {
            "epochs": len(result.trace),
            "best_epoch": result.best_epoch,
            "parameters": _float_digest(np.concatenate([p.reshape(-1) for p in result.model.parameters()])),
            "trace": _float_digest([(r["epoch"], r["train_loss"], r["val_loss"]) for r in result.trace]),
        }
    config = TrainConfig(tau=MINING_TAU, **TRAIN_CASES["pair"])
    # the runner's last score_examples call is the one over its candidates
    calls, score = [], pipeline.score_examples
    pipeline.score_examples = lambda *a, **k: calls.append(score(*a, **k)) or calls[-1]
    try:
        stage = pipeline.run_stage1_mining(g, pair_set, config)
    finally:
        pipeline.score_examples = score
    logits = calls[-1][0]
    out["mining"] = {
        "candidates": stage.candidate_count,
        "mined": stage.enriched.num_mined,
        "pairs": _array_digest(stage.enriched.mined_pairs)[1],
        "scores": _float_digest(stage.enriched.mined_scores),
        "logits": _float_digest(logits),
    }
    return out


# train config of the CLI digests: the CLI tests' small model
CLI_TRAIN = dict(learning_rate=0.01, dropout=0.1, num_layers=1, max_epochs=30, patience=8,
                 hidden_dim=16, embed_dim=16, head_hidden=16, seed=3)
CLI_DIGESTS = {
    "mined_edges.tsv": "76a3fd088f74c5bf7a64e3fd8153b3ac354c4743a522bfa0cbac3816895232da",
    "scores_dp.tsv": "4b5b69c682a21f952751095c519af567b3cb14ee94d4968eee694c284fa520b9",
    "checkpoint_dp.bin": "1d04ec3d1d01c446fb5604815cd6b9f718aa38f72860c67c7d6f33810073f917",
    "roc_points.tsv": "17b650eaaaf80a8281fa83cf6396edfff2aa826081cc9650082ffe84a92f77a3",
    "eval_report.json": "c71913e701bb4f404f09f171f001ae2946b7625c770040b61f1e8403a144de46",
}


def cli_digests():
    """Digests of the outputs of generate, train sc, train dp --no-enrich and eval."""
    from chainrisk.cli import main

    kwargs = GENERATE_DIGESTS["cli-300"][0]
    with tempfile.TemporaryDirectory() as work:
        gen, train = os.path.join(work, "gen.json"), os.path.join(work, "train.json")
        with open(gen, "w", encoding="utf-8") as fh:
            json.dump(dict(preset="paper-calibrated", **kwargs), fh)
        with open(train, "w", encoding="utf-8") as fh:
            json.dump(CLI_TRAIN, fh)
        data, sc, dp, ev = (os.path.join(work, d) for d in ("data", "sc", "dp", "ev"))
        commands = [
            ["generate", "--config", gen, "--out", data],
            ["train", "sc", "--data", data, "--config", train, "--out", sc],
            ["train", "dp", "--data", data, "--config", train, "--out", dp, "--no-enrich"],
            ["eval", "--checkpoint", os.path.join(dp, "checkpoint_dp.bin"), "--data", data, "--out", ev,
             "--no-enrich"],
        ]
        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0, argv
        outputs = {"mined_edges.tsv": sc, "scores_dp.tsv": dp, "checkpoint_dp.bin": dp,
                   "roc_points.tsv": ev, "eval_report.json": ev}
        return {name: dataio.sha256_file(os.path.join(d, name)) for name, d in outputs.items()}


def test_training_and_mining_are_pinned():
    assert blas_child("test_golden", "training_digests()") == TRAINING_DIGESTS


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs 2 CPUs for two BLAS threads")
def test_training_and_mining_are_pinned_on_two_blas_threads():
    assert blas_child("test_golden", "training_digests()", threads=2) == TRAINING_DIGESTS_2T


def test_cli_outputs_are_pinned():
    assert blas_child("test_golden", "cli_digests()") == CLI_DIGESTS
