"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The heavy two-stage runs
(criteria 4 and 5) share one fixture so the whole suite stays inside the
stated runtime budgets.
"""

import json
import time

import numpy as np
import pytest

from chainrisk.graph import SmeGraph, normalize_adjacency
from chainrisk.labels import TEST, TRAIN, VAL, stratified_split
from chainrisk.metrics import auc, ks
from chainrisk.model import backward, init_classifier, score_examples
from chainrisk.nn import bce_logit_grad, bce_loss, sigmoid
from chainrisk.pipeline import (
    GridSpec,
    TaskData,
    TrainConfig,
    grid_search,
    run_stage1_mining,
    run_stage2_default,
    train_task,
)
from chainrisk.rng import make_rng
from chainrisk.synthgen import (
    ATTRIBUTES,
    generate,
    null_preset,
    paper_calibrated,
)

from conftest import (
    attribute_availability,
    dense_from_csr,
    grad_check,
    partner_default_curve,
    random_graph,
    supply_graph,
)
from test_metrics import auc_pairwise_oracle, ks_sweep_oracle
from test_pipeline import toy_node_task

SEEDS = (0, 1, 2, 3, 4)


def _report(number, name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {name} ({detail})"
    print(line)
    assert ok, line


def _stage1_fast(seed):
    """Mining config for the lift experiment; speed over last-decimal AUC."""
    return TrainConfig(seed=seed, num_layers=1, learning_rate=0.01, dropout=0.1,
                       max_epochs=300, patience=30, embed_dim=64, head_hidden=64)


def _stage1_robust(seed):
    """Slower schedule that converges dependably for the recoverability gate."""
    return TrainConfig(seed=seed, num_layers=1, learning_rate=0.005, dropout=0.1,
                       max_epochs=400, patience=30, embed_dim=64, head_hidden=64)


def _stage2_config(seed):
    return TrainConfig(seed=seed, num_layers=1, learning_rate=0.005, dropout=0.1,
                       max_epochs=250, patience=25)


@pytest.fixture(scope="module")
def two_stage_runs():
    """Five seeded end-to-end runs on the paper-calibrated preset."""
    runs = []
    for seed in SEEDS:
        g, d_sc, d_dp, _ = generate(paper_calibrated(num_smes=5000, seed=seed))
        t0 = time.time()
        s1 = run_stage1_mining(g, d_sc, _stage1_fast(seed))
        enriched_auc = run_stage2_default(s1.enriched, d_dp, _stage2_config(seed)).reports["test"].auc
        baseline_auc = run_stage2_default(g, d_dp, _stage2_config(seed)).reports["test"].auc
        runs.append({
            "seed": seed,
            "enriched_auc": enriched_auc,
            "baseline_auc": baseline_auc,
            "total_seconds": time.time() - t0,
        })
    return runs


def _min_preact_distance(model, caches, examples):
    """Smallest |pre-activation| across the encoder and head layers.

    The pre-activations are rebuilt: an encoder layer's from its kept S and
    its weights, since the encoder keeps only relu(Z), and the head's from
    the embeddings, since the head keeps only its keep-mask.
    """
    gcn_cache, _ = caches
    values = [np.abs(layer["S"] @ W).min() for layer, W in zip(gcn_cache["layers"], model.gcn.weights)]
    Q = gcn_cache["layers"][-1]["H"]
    rows = np.asarray(examples).reshape(len(examples), -1)
    A = np.concatenate([Q[rows[:, j]] for j in range(rows.shape[1])], axis=1)
    values.append(np.abs(A @ model.head.weights[0] + model.head.biases[0]).min())
    return min(values)


def test_criterion_1_gradient_correctness():
    started = time.time()
    rng = np.random.default_rng(42)
    g = random_graph(rng, 20, 0.18, num_features=4)
    adj = normalize_adjacency(g)
    worst = 0.0
    for task in ("pair", "node"):
        if task == "pair":
            examples = np.array([(u, (u + 7) % 20) for u in range(0, 20, 2)])
        else:
            examples = np.arange(0, 20, 2)
        y = (np.arange(examples.shape[0]) % 2).astype(float)

        # jitter the parameters until every relu input sits clear of its kink,
        # where the subgradient convention and a central difference disagree
        model = None
        for attempt in range(20):
            candidate = init_classifier(task, 4, num_layers=2, hidden_dim=6, embed_dim=5,
                                        head_hidden=4, rng=make_rng(11, 1))
            jitter = make_rng(97, attempt)
            for p in candidate.parameters():
                p += jitter.uniform(-0.3, 0.3, size=p.shape)
            _, caches = score_examples(candidate, adj, g.node_features, examples, training=True)
            if _min_preact_distance(candidate, caches, examples) > 1e-3:
                model = candidate
                break
        assert model is not None, "could not place relu inputs away from zero"

        def f(_):
            logits, caches = score_examples(model, adj, g.node_features, examples, training=True)
            probs = sigmoid(logits)
            return bce_loss(probs, y), backward(model, bce_logit_grad(probs, y), caches)

        worst = max(worst, grad_check(f, model.parameters()))
    elapsed = time.time() - started
    _report(1, "gradient correctness",
            worst < 1e-4 and elapsed < 10.0,
            f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_normalization_spectrum():
    started = time.time()
    rng = np.random.default_rng(7)
    worst_asym = 0.0
    eig_lo, eig_hi = 0.0, 0.0
    for _ in range(100):
        n = int(rng.integers(2, 51))
        g = random_graph(rng, n, edge_prob=float(rng.uniform(0.05, 0.5)))
        adj = normalize_adjacency(g)
        dense = dense_from_csr(n, adj.indptr, adj.indices, adj.values)
        worst_asym = max(worst_asym, float(np.max(np.abs(dense - dense.T))))
        eigs = np.linalg.eigvalsh(dense)
        eig_lo = min(eig_lo, float(eigs.min()))
        eig_hi = max(eig_hi, float(eigs.max()))
    elapsed = time.time() - started
    ok = worst_asym <= 1e-12 and eig_lo >= -1.0 - 1e-9 and eig_hi <= 1.0 + 1e-9 and elapsed < 30.0
    _report(2, "normalization spectrum", ok,
            f"asym {worst_asym:.1e}, eigs [{eig_lo:.9f}, {eig_hi:.9f}], {elapsed:.1f}s")


def test_criterion_3_metric_oracles():
    started = time.time()
    rng = np.random.default_rng(3)
    worst_auc = 0.0
    worst_ks = 0.0
    for trial in range(50):
        if trial % 2 == 0:
            scores = rng.normal(size=200)
        else:
            scores = rng.integers(0, 5, size=200).astype(float)  # tie-heavy
        labels = rng.integers(0, 2, size=200)
        labels[:2] = (0, 1)
        worst_auc = max(worst_auc, abs(auc(scores, labels) - auc_pairwise_oracle(scores.tolist(), labels.tolist())))
        worst_ks = max(worst_ks, abs(ks(scores, labels) - ks_sweep_oracle(scores.tolist(), labels.tolist())))
    elapsed = time.time() - started
    ok = worst_auc < 1e-12 and worst_ks < 1e-12 and elapsed < 10.0
    _report(3, "metric oracles", ok,
            f"auc err {worst_auc:.1e}, ks err {worst_ks:.1e}, {elapsed:.1f}s")


def test_criterion_4_enrichment_lift(two_stage_runs):
    lifts = [r["enriched_auc"] - r["baseline_auc"] for r in two_stage_runs]
    total = sum(r["total_seconds"] for r in two_stage_runs)
    mean_lift = float(np.mean(lifts))
    ok = mean_lift >= 0.02 and total < 300.0
    _report(4, "enrichment lift", ok,
            f"mean lift {mean_lift:+.4f} over {len(lifts)} seeds "
            f"(per-seed {[f'{x:+.3f}' for x in lifts]}), {total:.0f}s")


def test_criterion_5_stage1_recoverability():
    started = time.time()
    g, d_sc, _, _ = generate(paper_calibrated(num_smes=5000, seed=0))
    s1 = run_stage1_mining(g, d_sc, _stage1_robust(0))
    elapsed = time.time() - started
    ok = s1.reports["test"].auc >= 0.90 and elapsed < 120.0
    _report(5, "stage-1 recoverability", ok,
            f"mining test AUC {s1.reports['test'].auc:.4f}, {elapsed:.0f}s")


def test_criterion_6_partner_curve_calibration():
    _, _, _, gt = generate(paper_calibrated(num_smes=10000, seed=1))
    curve = {r["bucket"]: r["rate"] for r in partner_default_curve(supply_graph(gt), gt.default_labels)}
    protective = curve[">10"] <= 0.5 * curve["0-2"]

    _, _, _, gt_null = generate(null_preset(num_smes=10000, seed=1))
    global_rate = gt_null.default_labels.mean()
    null_rows = partner_default_curve(supply_graph(gt_null), gt_null.default_labels)
    flat = all(abs(r["rate"] - global_rate) <= 0.03 for r in null_rows)
    _report(6, "partner-risk calibration", protective and flat,
            f"rate(>10)={curve['>10']:.4f} vs 0.5*rate(0-2)={0.5 * curve['0-2']:.4f}; "
            f"null max dev {max(abs(r['rate'] - global_rate) for r in null_rows):.4f}")


def test_criterion_7_availability_calibration():
    g, _, _, _ = generate(paper_calibrated(num_smes=10000, seed=1))
    rf1 = attribute_availability(g, "patent", 1)
    rf4 = attribute_availability(g, "patent", 4)
    bands = abs(rf1 - 0.015) <= 0.05 and abs(rf4 - 0.227) <= 0.05
    monotone = True
    for attr in ATTRIBUTES:
        vals = [attribute_availability(g, attr, k) for k in (1, 2, 3, 4)]
        monotone &= all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
    _report(7, "attribute availability calibration", bands and monotone,
            f"patent RF1 {100 * rf1:.2f}% (target 1.5+-5), RF4 {100 * rf4:.2f}% (target 22.7+-5), "
            f"monotone={monotone}")


def test_criterion_8_protocol_conformance(tmp_path):
    # stratified split: 70/15/15 within one example per class
    labels = np.r_[np.ones(100, dtype=int), np.zeros(900, dtype=int)]
    split = stratified_split(labels, seed=4)
    split_ok = True
    for cls, total in ((1, 100), (0, 900)):
        for tag, frac in ((TRAIN, 0.70), (VAL, 0.15), (TEST, 0.15)):
            got = int(np.sum((split == tag) & (labels == cls)))
            split_ok &= abs(got - frac * total) <= 1.0

    # early stopping: frozen learning rate halts exactly patience epochs after epoch 1
    g, node_set = toy_node_task()
    data = TaskData.build(g, node_set)
    frozen = train_task(data, TrainConfig(seed=1, learning_rate=0.0, dropout=0.0, patience=5,
                                          max_epochs=60, hidden_dim=8, embed_dim=4, head_hidden=4))
    stop_ok = len(frozen.trace) == 6 and frozen.best_epoch == 1

    # grid search winner carries the table's maximum validation AUC
    grid = GridSpec(learning_rates=(0.001, 0.01), dropouts=(0.0, 0.2), layer_counts=(1, 2))
    result = grid_search(grid, data, TrainConfig(seed=2, max_epochs=20, patience=5,
                                                 hidden_dim=8, embed_dim=4, head_hidden=4))
    winner = [
        r["val_auc"] for r in result.table
        if (r["learning_rate"], r["dropout"], r["num_layers"])
        == (result.best_config.learning_rate, result.best_config.dropout, result.best_config.num_layers)
    ][0]
    grid_ok = winner == max(r["val_auc"] for r in result.table if r["status"] == "ok")

    # identical seeds reproduce bit-identical manifests (timestamps pinned)
    import os

    from chainrisk.cli import main as cli_main

    os.environ["SOURCE_DATE_EPOCH"] = "1700000000"
    try:
        gen_cfg = tmp_path / "gen.json"
        gen_cfg.write_text(json.dumps({"preset": "paper-calibrated", "num_smes": 300,
                                       "seed": 5, "sector_size": 50}))
        data_dir = tmp_path / "data"
        assert cli_main(["generate", "--config", str(gen_cfg), "--out", str(data_dir)]) == 0
        train_cfg = tmp_path / "train.json"
        train_cfg.write_text(json.dumps({"learning_rate": 0.01, "num_layers": 1, "seed": 3,
                                         "max_epochs": 20, "patience": 5, "hidden_dim": 16,
                                         "embed_dim": 16, "head_hidden": 16}))
        blobs = []
        for name in ("m1", "m2"):
            out = tmp_path / name
            assert cli_main(["train", "dp", "--data", str(data_dir), "--config", str(train_cfg),
                             "--out", str(out), "--no-enrich"]) == 0
            blobs.append((out / "run_manifest.json").read_bytes())
        manifest_ok = blobs[0] == blobs[1]
    finally:
        del os.environ["SOURCE_DATE_EPOCH"]

    _report(8, "protocol conformance", split_ok and stop_ok and grid_ok and manifest_ok,
            f"split_ok={split_ok} early_stop_ok={stop_ok} grid_ok={grid_ok} manifest_ok={manifest_ok}")


def test_criterion_9_null_sanity():
    aucs = []
    for seed in SEEDS:
        g, _, d_dp, _ = generate(null_preset(num_smes=2000, seed=seed))
        result = run_stage2_default(g, d_dp, TrainConfig(
            seed=seed, num_layers=1, learning_rate=0.005, dropout=0.1,
            max_epochs=120, patience=20))
        aucs.append(result.reports["test"].auc)
    mean_auc = float(np.mean(aucs))
    _report(9, "null sanity", 0.45 <= mean_auc <= 0.55,
            f"mean stage-2 AUC {mean_auc:.4f} over {len(aucs)} seeds "
            f"({[f'{a:.3f}' for a in aucs]})")
