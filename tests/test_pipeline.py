from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainrisk import graph, pipeline
from chainrisk.errors import InvalidArgument, InvalidInput, NoViableConfig
from chainrisk.graph import NODE_KINDS, SmeGraph, candidate_pairs, enrich, in_sorted
from chainrisk.labels import TEST, TRAIN, VAL, LabeledSet, first_invalid_example, sample_negatives, stratified_split
from chainrisk.metrics import auc
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

from conftest import random_graph


def toy_node_task(n=60, seed=5):
    """Separable node classification that survives neighborhood averaging.

    Two chains with opposite-signed class features and edges only within a
    chain, so aggregation never mixes the classes and a linear probe wins.
    """
    gen = make_rng(seed, 77)
    half = n // 2
    X = gen.normal(size=(n, 4))
    X[:half, 0] = 2.0 + 0.3 * gen.random(half)
    X[half:, 0] = -2.0 - 0.3 * gen.random(n - half)
    edges = [(u, u + 1) for u in range(half - 1)]
    edges += [(u, u + 1) for u in range(half, n - 1)]
    g = SmeGraph.from_edge_list(n, edges, X)
    labels = (X[:, 0] > 0).astype(np.int8)
    split = stratified_split(labels, seed=seed)
    return g, LabeledSet(examples=np.arange(n), labels=labels, split=split)


class TestStratifiedSplit:
    def test_balanced_hundred(self):
        labels = np.r_[np.zeros(50, dtype=int), np.ones(50, dtype=int)]
        split = stratified_split(labels, seed=3)
        for cls in (0, 1):
            counts = [np.sum((split == tag) & (labels == cls)) for tag in (TRAIN, VAL, TEST)]
            assert counts[0] == 35
            assert counts[1] in (7, 8) and counts[2] in (7, 8)
            assert sum(counts) == 50

    def test_deterministic_per_seed(self):
        labels = np.r_[np.zeros(40, dtype=int), np.ones(20, dtype=int)]
        a = stratified_split(labels, seed=9)
        b = stratified_split(labels, seed=9)
        c = stratified_split(labels, seed=10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rare_class_rate_preserved(self):
        gen = make_rng(0, 11)
        labels = np.r_[np.ones(100, dtype=int), np.zeros(900, dtype=int)]
        gen.shuffle(labels)
        split = stratified_split(labels, seed=1)
        for tag in (TRAIN, VAL, TEST):
            rate = labels[split == tag].mean()
            assert 0.09 <= rate <= 0.11

    def test_every_split_gets_both_classes_when_class_is_tiny(self):
        labels = np.r_[np.zeros(60, dtype=int), np.ones(3, dtype=int)]
        split = stratified_split(labels, seed=2)
        for tag in (TRAIN, VAL, TEST):
            assert np.sum((split == tag) & (labels == 1)) >= 1

    def test_class_below_three_rejected(self):
        labels = np.r_[np.zeros(10, dtype=int), np.ones(2, dtype=int)]
        with pytest.raises(InvalidInput):
            stratified_split(labels, seed=0)


class TestSampleNegatives:
    def test_complete_graph_has_no_negatives(self):
        edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
        g = SmeGraph.from_edge_list(5, edges, np.zeros((5, 1)))
        with pytest.raises(InvalidInput):
            sample_negatives(g, np.zeros((3, 2), dtype=int), ratio=1.0, seed=0)

    def test_ratio_one_matches_positive_count(self, rng):
        g = random_graph(rng, 30, 0.1)
        positives = np.array([(0, 1), (2, 3), (4, 5), (6, 7)])
        negs = sample_negatives(g, positives, ratio=1.0, seed=4)
        assert negs.shape == (4, 2)

    def test_samples_are_nonedges_and_nonpositives(self, rng):
        g = random_graph(rng, 25, 0.15)
        positives = np.array([(0, 1), (2, 3)] * 10)[:10]
        negs = sample_negatives(g, positives, ratio=3.0, seed=8)
        pos_set = {tuple(p) for p in positives.tolist()}
        seen = set()
        assert not in_sorted(negs[:, 0] * g.num_nodes + negs[:, 1], g.edge_keys()).any()
        for u, v in negs.tolist():
            assert u < v
            assert (u, v) not in pos_set
            assert (u, v) not in seen
            seen.add((u, v))

    def test_deterministic_per_seed(self, rng):
        g = random_graph(rng, 25, 0.1)
        positives = np.array([(0, 1), (2, 3)])
        a = sample_negatives(g, positives, 2.0, seed=5)
        b = sample_negatives(g, positives, 2.0, seed=5)
        assert np.array_equal(a, b)

    def test_node_subset_respected(self, rng):
        g = random_graph(rng, 30, 0.05)
        negs = sample_negatives(g, np.array([(0, 1)]), 5.0, seed=2, nodes=np.arange(10))
        assert negs.max() < 10

    @pytest.mark.parametrize("positives, nodes", [
        ([(0, 1)], [-1, 2, 3]),
        ([(-1, 5)], None),
        ([(0, 12)], None),
        ([(0, 1)], [0, 3, 11]),
    ])
    def test_out_of_range_ids_rejected(self, positives, nodes):
        g = SmeGraph.from_edge_list(10, [(0, 1), (1, 2)], np.zeros((10, 1)))
        with pytest.raises(InvalidArgument, match="node id out of range"):
            sample_negatives(g, positives, 1.0, seed=0, nodes=nodes)


class TestTaskData:
    def test_propagated_is_the_first_product_and_cannot_go_stale(self):
        import dataclasses

        from chainrisk.graph import spmm

        g, node_set = toy_node_task()
        data = TaskData.build(g, node_set)
        assert data.propagated.tobytes() == spmm(data.adj, data.X).tobytes()
        assert data.propagated is data.propagated
        with pytest.raises(ValueError):
            data.X[0, 0] = 1.0
        with pytest.raises(ValueError):
            data.propagated[0, 0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            data.X = np.zeros_like(data.X)


class TestTrainTask:
    def test_separable_task_reaches_perfect_train_auc(self):
        g, node_set = toy_node_task()
        data = TaskData.build(g, node_set)
        config = TrainConfig(seed=1, num_layers=1, learning_rate=0.01, dropout=0.0,
                             hidden_dim=16, embed_dim=8, head_hidden=8,
                             max_epochs=200, patience=50)
        result = train_task(data, config)
        from chainrisk.model import score_examples
        from chainrisk.nn import sigmoid

        tr = data.split == TRAIN
        logits, _ = score_examples(result.model, data.adj, data.X, data.examples[tr])
        assert auc(sigmoid(logits), data.labels[tr].astype(int)) == 1.0
        # validation loss of the selected epoch is the running minimum
        best = min(row["val_loss"] for row in result.trace)
        assert result.trace[result.best_epoch - 1]["val_loss"] == best

    def test_frozen_learning_rate_stops_after_patience(self):
        g, node_set = toy_node_task()
        data = TaskData.build(g, node_set)
        config = TrainConfig(seed=1, learning_rate=0.0, dropout=0.0, patience=1,
                             max_epochs=50, hidden_dim=8, embed_dim=4, head_hidden=4)
        result = train_task(data, config)
        assert len(result.trace) == config.patience + 1

    def test_patience_counts_epochs_after_last_improvement(self):
        g, node_set = toy_node_task()
        data = TaskData.build(g, node_set)
        config = TrainConfig(seed=3, num_layers=1, learning_rate=0.01, dropout=0.0,
                             hidden_dim=16, embed_dim=8, head_hidden=8,
                             max_epochs=500, patience=7)
        result = train_task(data, config)
        if len(result.trace) < config.max_epochs:
            assert len(result.trace) == result.best_epoch + config.patience

    @pytest.mark.parametrize("bad", [60, -1])
    def test_out_of_range_example_is_an_invalid_argument(self, bad):
        g, node_set = toy_node_task()
        node_set.examples[np.flatnonzero(node_set.split == TRAIN)[0]] = bad
        data = TaskData.build(g, node_set)
        with pytest.raises(InvalidArgument, match="node id out of range"):
            train_task(data, TrainConfig(seed=1, max_epochs=3, patience=1, hidden_dim=8, embed_dim=4,
                                         head_hidden=4))

    def test_divergence_reports_the_failing_epoch(self, monkeypatch):
        from chainrisk import pipeline
        from chainrisk.errors import TrainingDivergence

        g, node_set = toy_node_task()
        data = TaskData.build(g, node_set)
        config = TrainConfig(seed=1, max_epochs=20, patience=5,
                             hidden_dim=8, embed_dim=4, head_hidden=4)
        real_backward = pipeline.backward
        calls = {"n": 0}

        def poisoned(model, dlogits, caches, plans=None):
            calls["n"] += 1
            grads = real_backward(model, dlogits, caches, plans)
            if calls["n"] == 3:
                grads[0] = grads[0] + np.nan
            return grads

        monkeypatch.setattr(pipeline, "backward", poisoned)
        with pytest.raises(TrainingDivergence) as err:
            train_task(data, config)
        assert err.value.epoch == 3

    def test_bit_identical_traces_for_same_seed(self):
        g, node_set = toy_node_task()
        data = TaskData.build(g, node_set)
        config = TrainConfig(seed=9, max_epochs=30, patience=10, dropout=0.3,
                             hidden_dim=8, embed_dim=4, head_hidden=4)
        a = train_task(data, config)
        b = train_task(data, config)
        assert a.trace == b.trace
        for pa, pb in zip(a.model.parameters(), b.model.parameters()):
            assert np.array_equal(pa, pb)


class TestGridSearch:
    def _data(self):
        g, node_set = toy_node_task(n=48, seed=6)
        return TaskData.build(g, node_set)

    def test_single_cell_grid_returns_that_cell(self):
        data = self._data()
        grid = GridSpec(learning_rates=(0.01,), dropouts=(0.1,), layer_counts=(1,))
        config = TrainConfig(seed=2, max_epochs=30, patience=5,
                             hidden_dim=8, embed_dim=4, head_hidden=4)
        result = grid_search(grid, data, config)
        assert result.best_config.learning_rate == 0.01
        assert result.best_config.num_layers == 1
        assert len(result.table) == 1

    def test_winner_has_max_val_auc_in_table(self):
        data = self._data()
        grid = GridSpec(learning_rates=(0.001, 0.01), dropouts=(0.0, 0.2), layer_counts=(1, 2))
        config = TrainConfig(seed=2, max_epochs=25, patience=5,
                             hidden_dim=8, embed_dim=4, head_hidden=4)
        result = grid_search(grid, data, config)
        assert len(result.table) == 8
        best_auc = max(r["val_auc"] for r in result.table if r["status"] == "ok")
        chosen = [
            r for r in result.table
            if r["learning_rate"] == result.best_config.learning_rate
            and r["dropout"] == result.best_config.dropout
            and r["num_layers"] == result.best_config.num_layers
        ]
        assert chosen[0]["val_auc"] == best_auc

    def test_tie_breaks_prefer_fewer_layers(self):
        data = self._data()
        # lr=0 cells cannot learn, so both end at the same (initial) val auc
        grid = GridSpec(learning_rates=(0.0,), dropouts=(0.0,), layer_counts=(1, 2))
        config = TrainConfig(seed=2, max_epochs=10, patience=2,
                             hidden_dim=8, embed_dim=4, head_hidden=4)
        result = grid_search(grid, data, config)
        aucs = [r["val_auc"] for r in result.table]
        if aucs[0] == aucs[1]:
            assert result.best_config.num_layers == 1

    def test_tie_breaks_prefer_lower_learning_rate(self):
        # the separable toy task saturates both cells at val AUC 1.0
        data = self._data()
        grid = GridSpec(learning_rates=(0.01, 0.001), dropouts=(0.0,), layer_counts=(1,))
        config = TrainConfig(seed=2, num_layers=1, max_epochs=120, patience=60,
                             hidden_dim=8, embed_dim=4, head_hidden=4)
        result = grid_search(grid, data, config)
        aucs = {r["learning_rate"]: r["val_auc"] for r in result.table}
        if aucs[0.01] == aucs[0.001]:
            assert result.best_config.learning_rate == 0.001

    def test_parallel_workers_match_serial(self):
        data = self._data()
        grid = GridSpec(learning_rates=(0.005, 0.01), dropouts=(0.1,), layer_counts=(1, 2))
        config = TrainConfig(seed=4, max_epochs=15, patience=4,
                             hidden_dim=8, embed_dim=4, head_hidden=4)
        serial = grid_search(grid, data, config, max_workers=1)
        threaded = grid_search(grid, data, config, max_workers=4)
        assert serial.table == threaded.table
        assert serial.best_config == threaded.best_config

    def test_all_divergent_cells_raise(self, monkeypatch):
        data = self._data()
        grid = GridSpec(learning_rates=(0.01,), dropouts=(0.1,), layer_counts=(1,))
        config = TrainConfig(seed=2, max_epochs=10, patience=2)

        from chainrisk import pipeline
        from chainrisk.errors import TrainingDivergence

        def explode(*a, **kw):
            raise TrainingDivergence("boom", epoch=1)

        monkeypatch.setattr(pipeline, "train_task", explode)
        with pytest.raises(NoViableConfig):
            grid_search(grid, data, config)


class TestCandidatePairs:
    def test_two_hop_ball_on_path_graph(self):
        g = SmeGraph.from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4)], np.zeros((5, 1)))
        cands = candidate_pairs(g, max_hops=2)
        assert set(map(tuple, cands.tolist())) == {(0, 2), (1, 3), (2, 4)}

    def test_three_hop_ball_on_path_graph(self):
        g = SmeGraph.from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4)], np.zeros((5, 1)))
        cands = candidate_pairs(g, max_hops=3)
        assert set(map(tuple, cands.tolist())) == {(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)}

    def test_extra_pairs_merged_and_deduplicated(self):
        g = SmeGraph.from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4)], np.zeros((5, 1)))
        cands = candidate_pairs(g, extra_pairs=np.array([(0, 4), (0, 2), (0, 1)]), max_hops=2)
        # (0,4) enters from the extras, (0,2) is already there, (0,1) is an edge
        assert set(map(tuple, cands.tolist())) == {(0, 2), (1, 3), (2, 4), (0, 4)}

    @pytest.mark.parametrize("extra", [[(-1, 3)], [(0, 5)]])
    def test_out_of_range_extra_pairs_rejected(self, extra):
        g = SmeGraph.from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4)], np.zeros((5, 1)))
        with pytest.raises(InvalidArgument):
            candidate_pairs(g, extra_pairs=extra, max_hops=2)

    def test_non_sme_endpoints_excluded(self):
        # the owner node can sit on a path but never in a candidate pair
        g = SmeGraph.from_edge_list(
            4, [(0, 1), (1, 2), (2, 3)], np.zeros((4, 1)),
            node_kind=["sme", "sme", "owner", "sme"],
        )
        cands = candidate_pairs(g, max_hops=2)
        assert set(map(tuple, cands.tolist())) == {(1, 3)}
        cands3 = candidate_pairs(g, max_hops=3)
        assert set(map(tuple, cands3.tolist())) == {(0, 3), (1, 3)}


def bfs_candidates_oracle(num_nodes, edges, kinds, max_hops, extra):
    """Plain-Python candidate set: a BFS per SME source, then the extras."""
    nbrs = [set() for _ in range(num_nodes)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    allowed = [k == "sme" for k in kinds]
    out = set()
    for u in range(num_nodes):
        if not allowed[u]:
            continue
        dist = {u: 0}
        queue = deque([u])
        while queue:
            x = queue.popleft()
            if dist[x] == max_hops:
                continue
            for y in nbrs[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        out |= {(u, v) for v in dist if v > u and allowed[v] and v not in nbrs[u]}
    for a, b in extra:
        lo, hi = min(a, b), max(a, b)
        if lo != hi and allowed[lo] and allowed[hi] and hi not in nbrs[lo]:
            out.add((lo, hi))
    return sorted(out)


@st.composite
def kinded_graphs(draw):
    """Small graphs with mixed node kinds, isolated nodes and extra pairs."""
    n = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from(NODE_KINDS), min_size=n, max_size=n))
    node = st.integers(0, max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(node, node), max_size=24)) if n else []
    edges = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
    # extras may be reversed, self-pairs, observed edges or touch non-SME nodes
    extra = draw(st.lists(st.tuples(node, node), max_size=8)) if n else []
    return n, edges, kinds, extra


class TestCandidatePairsOracle:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(kinded_graphs(), st.sampled_from((2, 3, 4)))
    def test_matches_bfs_oracle(self, case, max_hops):
        n, edges, kinds, extra = case
        g = SmeGraph.from_edge_list(
            n, np.asarray(edges, dtype=np.int64).reshape(-1, 2), np.zeros((n, 1)), node_kind=kinds
        )
        got = candidate_pairs(g, extra_pairs=extra, max_hops=max_hops)
        assert got.dtype == np.int64 and got.shape == (got.shape[0], 2)
        assert list(map(tuple, got.tolist())) == bfs_candidates_oracle(
            n, edges, kinds, max_hops, extra
        )

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(kinded_graphs(), st.sampled_from((2, 3, 4)), st.sampled_from((1, 7, 10**6)))
    def test_source_blocks_leave_the_pairs_unchanged(self, case, max_hops, block):
        n, edges, kinds, extra = case
        g = SmeGraph.from_edge_list(
            n, np.asarray(edges, dtype=np.int64).reshape(-1, 2), np.zeros((n, 1)), node_kind=kinds
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graph, "CANDIDATE_SOURCES", block)
            got = candidate_pairs(g, extra_pairs=extra, max_hops=max_hops)
        assert got.dtype == np.int64 and got.shape == (got.shape[0], 2)
        assert list(map(tuple, got.tolist())) == bfs_candidates_oracle(n, edges, kinds, max_hops, extra)

    def test_makes_no_dense_propagation(self, monkeypatch):
        from chainrisk.synthgen import generate, paper_calibrated

        g, d_sc, _, _ = generate(paper_calibrated(num_smes=300, seed=4, sector_size=30))

        def forbidden(*args, **kwargs):
            raise AssertionError("candidate search must not propagate through the adjacency")

        monkeypatch.setattr(graph, "spmm", forbidden)
        monkeypatch.setattr(graph, "normalize_adjacency", forbidden)
        cands = candidate_pairs(g, extra_pairs=d_sc.examples, max_hops=3)
        assert cands.shape[0] > 0


class TestStages:
    def _mining_setup(self, seed=0):
        from chainrisk.synthgen import generate, paper_calibrated

        cfg = paper_calibrated(num_smes=600, seed=seed, sector_size=60)
        return generate(cfg)

    def test_stage1_enriches_and_reports(self):
        g, d_sc, d_dp, gt = self._mining_setup()
        config = TrainConfig(seed=0, num_layers=1, max_epochs=60, patience=10,
                             dropout=0.1, embed_dim=16, hidden_dim=16, head_hidden=16)
        result = run_stage1_mining(g, d_sc, config)
        assert set(result.reports) == {"train", "val", "test"}
        assert result.candidate_count > 0
        assert np.all(result.enriched.mined_scores >= config.tau)

    def test_stage2_scores_every_node(self):
        g, d_sc, d_dp, gt = self._mining_setup()
        config = TrainConfig(seed=0, num_layers=1, max_epochs=40, patience=10,
                             dropout=0.1, embed_dim=16, hidden_dim=16, head_hidden=16)
        result = run_stage2_default(enrich(g, (np.zeros((0, 2)), np.zeros(0)), config.tau), d_dp, config)
        assert result.scores.shape == (g.num_nodes,)
        assert np.all((result.scores >= 0) & (result.scores <= 1))
        assert result.reports["test"].num_pos > 0

    def test_stage2_accepts_plain_graph(self):
        g, d_sc, d_dp, gt = self._mining_setup()
        config = TrainConfig(seed=0, num_layers=1, max_epochs=30, patience=10,
                             dropout=0.0, embed_dim=16, hidden_dim=16, head_hidden=16)
        result = run_stage2_default(g, d_dp, config)
        assert result.scores.shape == (g.num_nodes,)

    def test_single_class_labels_rejected(self):
        g, d_sc, d_dp, gt = self._mining_setup()
        all_positive = LabeledSet(
            examples=d_dp.examples,
            labels=np.ones_like(d_dp.labels),
            split=d_dp.split,
        )
        config = TrainConfig(seed=0, max_epochs=10, patience=2)
        with pytest.raises(InvalidInput):
            run_stage2_default(g, all_positive, config)

    def test_stage_determinism(self):
        g, d_sc, d_dp, gt = self._mining_setup()
        config = TrainConfig(seed=7, num_layers=1, max_epochs=30, patience=10,
                             dropout=0.2, embed_dim=16, hidden_dim=16, head_hidden=16)
        a = run_stage1_mining(g, d_sc, config)
        b = run_stage1_mining(g, d_sc, config)
        assert a.trace == b.trace
        assert np.array_equal(a.enriched.mined_pairs, b.enriched.mined_pairs)
        assert np.array_equal(a.enriched.mined_scores, b.enriched.mined_scores)
        assert a.reports["test"].auc == b.reports["test"].auc


class TestLabeledSets:
    def test_pair_set_rejects_wrong_order(self):
        with pytest.raises(InvalidInput):
            LabeledSet(
                examples=np.array([(2, 1)]), labels=np.array([1]), split=np.array([TRAIN])
            ).validate()

    def test_node_set_rejects_duplicates(self):
        with pytest.raises(InvalidInput):
            LabeledSet(
                examples=np.array([1, 1]), labels=np.array([0, 1]), split=np.array([TRAIN, TRAIN])
            ).validate()

    def test_pairs_compare_by_value(self):
        """Negative ids are neither false nor missed duplicates."""
        assert first_invalid_example([[-5, 2], [-4, -1]]) is None
        assert first_invalid_example([[-5, 2], [-4, -1], [-5, 2]]) == (2, "duplicate pair (-5, 2)")
        wide = [[-2**62, 2**62], [-2**62, 0], [0, 2**62], [-2**62, 2**62]]  # no one int64 key holds these
        assert first_invalid_example(wide[:3]) is None
        assert first_invalid_example(wide) == (3, f"duplicate pair ({-2**62}, {2**62})")

    def test_split_must_contain_both_classes(self):
        with pytest.raises(InvalidInput):
            LabeledSet(
                examples=np.arange(6),
                labels=np.array([1, 1, 0, 1, 0, 1]),
                split=np.array([TRAIN, TRAIN, TRAIN, VAL, VAL, TEST]),
            ).validate()
