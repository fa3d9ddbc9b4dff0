import gc
import json
import os
import struct
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainrisk import graph as graph_module
from chainrisk import model as model_module
from chainrisk import pipeline
from chainrisk.errors import ChainriskError, CheckpointVersionError, InvalidArgument, InvalidInput
from chainrisk.graph import NormalizedAdjacency, SmeGraph, normalize_adjacency, spmm
from chainrisk.labels import TEST, TRAIN, VAL, LabeledSet
from chainrisk.model import (
    GcnClassifier,
    Workspace,
    backward,
    example_rows,
    gcn_backward,
    gcn_forward,
    head_backward,
    init_classifier,
    init_gcn,
    init_head,
    load_checkpoint,
    node_logits,
    pair_logits,
    save_checkpoint,
    scatter_plans,
    score_examples,
)
from chainrisk.nn import AdamState, adam_step, bce_logit_grad, bce_loss, sigmoid
from chainrisk.pipeline import TaskData, TrainConfig, train_task
from chainrisk.rng import make_rng

from conftest import blas_child, grad_check, random_graph


def single_node_adj():
    g = SmeGraph.from_edge_list(1, np.zeros((0, 2)), np.zeros((1, 2)))
    return normalize_adjacency(g)


class TestForward:
    def test_single_node_is_plain_mlp_layer(self):
        from chainrisk.model import GcnParams

        adj = single_node_adj()
        X = np.array([[1.0, -2.0]])
        params = GcnParams(weights=[np.eye(2)])
        Q, _ = gcn_forward(adj, X, params)
        assert Q.tolist() == [[1.0, 0.0]]

    def test_zero_weights_give_zero_embeddings(self, rng):
        g = random_graph(rng, 6, 0.4, num_features=3)
        adj = normalize_adjacency(g)
        from chainrisk.model import GcnParams

        params = GcnParams(weights=[np.zeros((3, 4))])
        Q, _ = gcn_forward(adj, g.node_features, params)
        assert np.all(Q == 0.0)

    def test_two_node_hand_computation(self):
        # one edge, A_hat entries all 0.5; W chosen by hand
        g = SmeGraph.from_edge_list(2, [(0, 1)], np.zeros((2, 2)))
        adj = normalize_adjacency(g)
        X = np.array([[1.0, 0.0], [0.0, 2.0]])
        W = np.array([[1.0, -1.0], [0.5, 1.0]])
        from chainrisk.model import GcnParams

        Q, _ = gcn_forward(adj, X, GcnParams(weights=[W]))
        S = 0.5 * (X[0] + X[1])  # both rows aggregate identically
        expected = np.maximum(S @ W, 0.0)
        assert np.allclose(Q, [expected, expected], atol=1e-15)

    def test_shape_mismatch_rejected(self):
        adj = single_node_adj()
        from chainrisk.model import GcnParams

        with pytest.raises(InvalidArgument):
            gcn_forward(adj, np.ones((1, 3)), GcnParams(weights=[np.eye(2)]))

    def test_l_layer_mixing_stays_within_l_hops(self):
        # path 0-1-2-3-4: zeroing features beyond 2 hops of node 0 leaves q_0 alone
        edges = [(0, 1), (1, 2), (2, 3), (3, 4)]
        X = make_rng(3, 1).normal(size=(5, 3))
        g = SmeGraph.from_edge_list(5, edges, X)
        adj = normalize_adjacency(g)
        params = init_gcn([3, 4, 4], make_rng(3, 2))
        X_far_zeroed = X.copy()
        X_far_zeroed[3:] = 0.0
        Q_full, _ = gcn_forward(adj, X, params)
        Q_masked, _ = gcn_forward(adj, X_far_zeroed, params)
        assert np.allclose(Q_full[0], Q_masked[0], atol=1e-12)
        # node 1 is 2 hops from node 3, so it must change in general
        assert not np.allclose(Q_full[2], Q_masked[2], atol=1e-12)

    def test_node_permutation_equivariance(self, rng):
        g = random_graph(rng, 8, 0.35, num_features=4)
        adj = normalize_adjacency(g)
        params = init_gcn([4, 5, 3], make_rng(11, 2))
        Q, _ = gcn_forward(adj, g.node_features, params)

        perm = rng.permutation(8)
        inv = np.argsort(perm)
        pairs, _ = g.undirected_edges()
        relabeled = [(inv[u], inv[v]) for u, v in pairs.tolist()]
        gp = SmeGraph.from_edge_list(8, relabeled, g.node_features[perm])
        Qp, _ = gcn_forward(normalize_adjacency(gp), gp.node_features, params)
        assert np.max(np.abs(Qp - Q[perm])) <= 1e-12


class TestHeads:
    def test_zero_embeddings_score_half(self):
        head = init_head(4, 3, make_rng(5, 2))
        Q = np.zeros((6, 2))
        logits, _ = pair_logits(Q, [(0, 1), (2, 3)], head)
        assert np.allclose(logits, 0.0)
        assert np.allclose(sigmoid(logits), 0.5)

    def test_single_pair_matches_batched_row(self, rng):
        head = init_head(8, 5, make_rng(6, 2))
        Q = rng.normal(size=(10, 4))
        batch, _ = pair_logits(Q, [(1, 2), (3, 4), (5, 6)], head)
        single, _ = pair_logits(Q, [(3, 4)], head)
        assert batch[1] == single[0]

    def test_pair_head_matches_scalar_loop_oracle(self, rng):
        head = init_head(6, 4, make_rng(7, 2))
        Q = rng.normal(size=(8, 3))
        pairs = [(0, 1), (2, 5), (7, 3), (4, 4), (6, 0), (1, 7), (5, 5), (2, 2), (3, 6), (0, 7)]
        logits, _ = pair_logits(Q, pairs, head)
        for i, (u, v) in enumerate(pairs):
            x = list(Q[u]) + list(Q[v])
            h = []
            for j in range(len(head.biases[0])):
                acc = head.biases[0][j]
                for a in range(len(x)):
                    acc += x[a] * head.weights[0][a, j]
                h.append(max(acc, 0.0))
            out = head.biases[1][0]
            for a in range(len(h)):
                out += h[a] * head.weights[1][a, 0]
            assert abs(out - logits[i]) < 1e-12

    def test_pair_order_matters(self, rng):
        head = init_head(6, 4, make_rng(8, 2))
        Q = rng.normal(size=(4, 3))
        fwd, _ = pair_logits(Q, [(0, 1)], head)
        rev, _ = pair_logits(Q, [(1, 0)], head)
        assert fwd[0] != rev[0]

    def test_node_head_hand_computation(self):
        from chainrisk.model import MlpHead

        head = MlpHead(
            weights=[np.array([[1.0], [2.0]]), np.array([[3.0]])],
            biases=[np.array([0.5]), np.array([-1.0])],
        )
        Q = np.array([[2.0, -1.0], [1.0, 1.0]])
        logits, _ = node_logits(Q, [0, 1], head)
        # node 0: relu(2 - 2 + 0.5) * 3 - 1 = 0.5
        # node 1: relu(1 + 2 + 0.5) * 3 - 1 = 9.5
        assert np.allclose(logits, [0.5, 9.5], atol=1e-15)

    def test_node_list_permutation_permutes_outputs(self, rng):
        head = init_head(3, 4, make_rng(9, 2))
        Q = rng.normal(size=(7, 3))
        order = [5, 1, 4, 0]
        base, _ = node_logits(Q, order, head)
        shuffled, _ = node_logits(Q, order[::-1], head)
        assert np.allclose(base[::-1], shuffled)

    def test_out_of_range_ids_rejected(self):
        head = init_head(4, 2, make_rng(10, 2))
        with pytest.raises(InvalidArgument):
            pair_logits(np.zeros((3, 2)), [(0, 3)], head)


def concatenated_head(Q, examples, head):
    """The head in its unfactored form: one row [q_e1 ; ... ; q_ek] per example."""
    A = np.concatenate([Q[examples[:, j]] for j in range(examples.shape[1])], axis=1)
    Z = A @ head.weights[0] + head.biases[0]
    return A, Z, (np.maximum(Z, 0.0) @ head.weights[1] + head.biases[1]).reshape(-1)


def head_logits(Q, examples, head, training=False):
    """pair_logits for k = 2 endpoint columns, node_logits for k = 1."""
    if examples.shape[1] == 2:
        return pair_logits(Q, examples, head, training=training)
    return node_logits(Q, examples.reshape(-1), head, training=training)


FORWARD_CASES = [(0, 7, 3, 5, 20), (1, 40, 16, 8, 300), (2, 2, 1, 1, 1)]


class TestFactoredPairHead:
    @pytest.mark.parametrize("seed,n,d,h,rows,k", [
        pytest.param(*case, k, id=("node-" if k == 1 else "") + "-".join(map(str, case)))
        for k in (2, 1) for case in FORWARD_CASES
    ])
    def test_matches_concatenated_forward(self, seed, n, d, h, rows, k):
        gen = np.random.default_rng(seed)
        head = init_head(k * d, h, make_rng(seed, 2))
        head.biases[0][:] = gen.normal(size=h)
        Q = gen.normal(size=(n, d))
        examples = gen.integers(0, n, size=(rows, k))
        logits, _ = head_logits(Q, examples, head)
        _, _, expected = concatenated_head(Q, examples, head)
        assert np.max(np.abs(logits - expected)) <= 1e-12

    @pytest.mark.parametrize("k", [2, 1], ids=["pair", "node"])
    def test_matches_concatenated_backward(self, rng, k):
        n, d, h = 30, 6, 4
        head = init_head(k * d, h, make_rng(3, 2))
        Q = rng.normal(size=(n, d))
        examples = np.vstack([rng.integers(0, n, size=(50, 2)), [(4, 4), (9, 2), (2, 9)]])[:, :k]
        dlogits = rng.normal(size=examples.shape[0])
        logits, cache = head_logits(Q, examples, head, training=True)
        w_grads, b_grads, dQ = head_backward(dlogits, cache, head)

        A, Z, _ = concatenated_head(Q, examples, head)
        dH = dlogits[:, None] @ head.weights[1].T
        dZ = dH * (Z > 0.0)
        dA = dZ @ head.weights[0].T
        expected_dQ = np.zeros_like(Q)
        for j in range(k):
            np.add.at(expected_dQ, examples[:, j], dA[:, j * d:(j + 1) * d])
        assert np.max(np.abs(w_grads[0] - A.T @ dZ)) <= 1e-12
        assert np.max(np.abs(b_grads[0] - dZ.sum(axis=0))) <= 1e-12
        assert np.max(np.abs(w_grads[1] - np.maximum(Z, 0.0).T @ dlogits[:, None])) <= 1e-12
        assert np.max(np.abs(b_grads[1] - dlogits.sum())) <= 1e-12
        assert np.max(np.abs(dQ - expected_dQ)) <= 1e-12


def bincount_scatter(num_rows, idx, rows):
    """A row scatter that adds each node's rows left to right from zero: one
    flat bincount over (slot, column), the kernel before the scatter plans."""
    d = rows.shape[1]
    flat = (idx[:, None] * d + np.arange(d)).reshape(-1)
    out = np.bincount(flat, weights=rows.reshape(-1), minlength=num_rows * d)
    return out.reshape(num_rows, d)


def add_at_scatter(num_rows, idx, rows):
    out = np.zeros((num_rows, rows.shape[1]))
    np.add.at(out, idx, rows)
    return out


def reduceat_scatter(num_rows, idx, rows):
    """Each node's rows, in example order, summed by one np.add.reduceat."""
    out = np.zeros((num_rows, rows.shape[1]))
    if idx.size:
        order = np.argsort(idx, kind="stable")
        nodes, starts = np.unique(idx[order], return_index=True)
        out[nodes] = np.add.reduceat(rows[order], starts, axis=0)
    return out


def assert_matches_reduceat(got, num_rows, idx, rows):
    """Bit-identical on nodes of at most 8 occurrences; beyond, within 1e-12
    relative to the sum of the absolute rows."""
    expected = reduceat_scatter(num_rows, idx, rows)
    short = np.bincount(idx, minlength=num_rows) <= 8
    assert got[short].tobytes() == expected[short].tobytes()
    assert np.all(np.abs(got - expected) <= 1e-12 * (1.0 + reduceat_scatter(num_rows, idx, np.abs(rows))))


def scatter(idx, num_rows):
    (plan,) = scatter_plans(idx, num_rows)
    return plan


# ids in [0, 8), in some draws with one node repeated 64 to 96 times
scatter_ids = st.one_of(
    st.lists(st.integers(0, 7), max_size=40),
    st.tuples(st.integers(0, 7), st.integers(64, 96),
              st.lists(st.integers(0, 7), max_size=20)).map(lambda t: [t[0]] * t[1] + t[2]),
).flatmap(lambda ids: st.permutations(ids).map(list))
# finite cells, with zeros of both signs over-represented
scatter_cells = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3, allow_nan=False))


class TestScatterPlan:
    """The head's backward scatter: `RowSums` over the ids' stable argsort,
    so each node's rows sum as row 0 + (row 1 + ...), as `spmm`'s rows do."""

    @pytest.mark.parametrize(
        "idx",
        [[3, 1, 3, 0, 3, 1], [5, 4, 3, 2, 1, 0], [2, 2, 2, 2], [0], [], [4] * 70 + [1, 4, 0]],
        ids=["repeated", "unsorted", "one-slot", "single", "empty", "hub"],
    )
    def test_matches_bincount_and_add_at(self, rng, idx):
        idx = np.asarray(idx, dtype=np.int64)
        rows = rng.normal(size=(idx.size, 3))
        got = scatter(idx, 6).apply(rows)
        assert got.shape == (6, 3)
        assert_matches_reduceat(got, 6, idx, rows)
        for oracle in (bincount_scatter, add_at_scatter):  # left to right from zero: equal to rounding
            assert np.max(np.abs(got - oracle(6, idx, rows)), initial=0.0) <= 1e-12

    @settings(max_examples=150, deadline=None)
    @given(ids=scatter_ids, data=st.data())
    def test_bit_identical_to_reduceat(self, ids, data):
        idx = np.asarray(ids, dtype=np.int64)
        width = data.draw(st.integers(1, 3))
        cells = data.draw(st.lists(scatter_cells, min_size=idx.size * width, max_size=idx.size * width))
        rows = np.asarray(cells, dtype=np.float64).reshape(idx.size, width)
        assert_matches_reduceat(scatter(idx, 8).apply(rows), 8, idx, rows)

    def test_negative_zero_rows_sum_to_negative_zero(self):
        rows = np.full((3, 2), -0.0)
        got = scatter([1, 1, 2], 3).apply(rows)
        assert np.signbit(got[1:]).all() and not np.signbit(got[0]).any()

    def test_one_slice_per_occurrence_of_the_busiest_node(self):
        idx = np.array([2] * 70 + [0, 2, 0])
        plan = scatter(idx, 3)
        assert [rows.size for rows, _ in plan.slices] == [2, 2] + [1] * 69 and plan.rank.tolist() == [1, 2, 0]
        assert plan.hubs is None and all(values is None for _, values in plan.slices)
        rows = np.random.default_rng(4).normal(size=(idx.size, 2))
        assert_matches_reduceat(plan.apply(rows), 3, idx, rows)

    def test_rejects_rows_of_another_length(self):
        with pytest.raises(InvalidArgument):
            scatter([0, 1], 2).apply(np.zeros((3, 1)))

    @pytest.mark.parametrize("ids", [[0, 3], [-1, 1]], ids=["past-end", "negative"])
    def test_rejects_ids_outside_the_rows(self, ids):
        with pytest.raises(InvalidArgument, match="node id out of range"):
            scatter(ids, 3)

    def test_one_plan_per_endpoint_column(self):
        pairs = np.array([(0, 1), (2, 1), (0, 3)])
        plans = scatter_plans(pairs, 4)
        rows = np.arange(6.0).reshape(3, 2)
        assert len(plans) == 2 and len(scatter_plans(np.array([3, 0]), 4)) == 1
        for j, plan in enumerate(plans):
            assert plan.apply(rows).tobytes() == reduceat_scatter(4, pairs[:, j], rows).tobytes()

    @pytest.mark.parametrize("k", [2, 1], ids=["pair", "node"])
    def test_head_backward_same_with_and_without_plans(self, rng, k):
        head = init_head(k * 5, 4, make_rng(4, 2))
        Q = rng.normal(size=(20, 5))
        examples = rng.integers(0, 20, size=(60, k))
        dlogits = rng.normal(size=60)
        _, cache = head_logits(Q, examples, head, training=True)
        built = head_backward(dlogits, cache, head)
        # a cache feeds one backward; at dropout 0 a fresh forward is the same forward
        _, cache = head_logits(Q, examples, head, training=True)
        planned = head_backward(dlogits, cache, head, scatter_plans(examples, 20))
        for a, b in zip(built[0] + built[1] + [built[2]], planned[0] + planned[1] + [planned[2]]):
            assert a.tobytes() == b.tobytes()


def unblocked_logits(Q, examples, head):
    """The scoring forward as one pass over every row."""
    d = Q.shape[1]
    W0, W1 = head.weights
    Z = (Q @ W0[:d])[examples[:, 0]]
    for j in range(1, examples.shape[1]):
        Z += (Q @ W0[j * d:(j + 1) * d])[examples[:, j]]
    Z += head.biases[0]
    return (np.maximum(Z, 0.0) @ W1 + head.biases[1]).reshape(-1)


def scoring_case(rows, k=2, n=600, d=16, h=64, seed=5):
    gen = np.random.default_rng(seed)
    head = init_head(k * d, h, make_rng(seed, 2))
    head.biases[0][:] = gen.normal(size=h)
    return gen.normal(size=(n, d)), gen.integers(0, n, size=(rows, k)), head


def blocked_matches_unblocked(rows, k):
    """Bytes of the blocked logits equal the unblocked ones, for SCORE_BLOCK 1024 and 4096."""
    Q, examples, head = scoring_case(rows, k)
    expected = unblocked_logits(Q, examples, head)
    same, saved = [], model_module.SCORE_BLOCK
    try:
        for block in (1024, 4096):
            model_module.SCORE_BLOCK = block
            logits, cache = head_logits(Q, examples, head)
            same.append(cache is None and logits.tobytes() == expected.tobytes())
    finally:
        model_module.SCORE_BLOCK = saved
    return same


class TestBlockedScoring:
    @pytest.mark.parametrize("k", [2, 1], ids=["pair", "node"])
    def test_bit_identical_to_one_pass_on_one_blas_thread(self, k):
        """10,241+ rows end in a ragged block. On several BLAS threads, OpenBLAS's gemv
        sends the rows at each thread split of a partial block (or of the one pass)
        through its tail kernel, so the comparison runs in a one-thread child."""
        assert blas_child("test_model", f"blocked_matches_unblocked(10241 + 4093, {k})") == [True, True]

    @pytest.mark.parametrize("block", [1024, 4096])
    def test_rows_agree_with_one_pass(self, monkeypatch, block):
        monkeypatch.setattr(model_module, "SCORE_BLOCK", block)
        Q, examples, head = scoring_case(3 * block + 517)
        logits, cache = pair_logits(Q, examples, head)
        assert cache is None
        assert np.max(np.abs(logits - unblocked_logits(Q, examples, head))) <= 1e-12

    def test_peak_memory_set_by_the_block(self, monkeypatch):
        monkeypatch.setattr(model_module, "SCORE_BLOCK", 1024)
        h = 64
        for rows in (4 * 1024, 16 * 1024):
            Q, examples, head = scoring_case(rows, n=200, h=h)
            tracemalloc.start()
            try:
                logits, _ = pair_logits(Q, examples, head)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # the output, two n x h first-layer blocks, and a few block x h arrays (the
            # previous block's Z lives on while the next one is gathered)
            bound = 8 * (rows + 2 * 200 * h + 4 * 1024 * h)
            assert peak <= bound, (rows, peak, bound)
            # one full pass would hold a rows x h array
            assert peak < 8 * rows * h or rows == 4 * 1024

    def test_scoring_forward_cannot_be_backpropagated(self):
        Q, examples, head = scoring_case(20)
        logits, cache = pair_logits(Q, examples, head)
        with pytest.raises(ChainriskError):
            head_backward(np.ones_like(logits), cache, head)


def working_set_task(rows, n=300):
    """Pair task on a 300-node graph: `rows` training pairs, rows / 8 each for validation and test."""
    gen = np.random.default_rng(11)
    g = random_graph(gen, n, 0.02)
    u, v = np.triu_indices(n, 1)
    pick = gen.choice(u.size, rows + rows // 4, replace=False)
    split = np.repeat([TRAIN, VAL, TEST], [rows, rows // 8, rows // 8])
    labeled = LabeledSet(np.column_stack([u[pick], v[pick]]), gen.integers(0, 2, size=pick.size), split)
    return TaskData.build(g, labeled)


def traced_peak(data, config):
    """tracemalloc peak of one train_task call, in bytes, and its result."""
    tracemalloc.start()
    try:
        result = train_task(data, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result


def encoder_task(n, rows):
    """Node task on a ring with 2n random chords: `rows` training nodes, rows / 8 each
    for validation and test, so node rows outnumber example rows."""
    gen = np.random.default_rng(3)
    ring = np.column_stack([np.arange(n), (np.arange(n) + 1) % n])
    keys = np.unique(np.sort(np.vstack([ring, gen.integers(0, n, size=(2 * n, 2))]), axis=1) @ [n, 1])
    keys = keys[keys // n != keys % n]
    g = SmeGraph.from_edge_list(n, np.column_stack([keys // n, keys % n]), gen.normal(size=(n, 3)))
    nodes = gen.choice(n, rows + rows // 4, replace=False)
    split = np.repeat([TRAIN, VAL, TEST], [rows, rows // 8, rows // 8])
    return TaskData.build(g, LabeledSet(nodes, gen.integers(0, 2, size=nodes.size), split))


class TestTrainingWorkingSet:
    def test_peak_is_bounded_and_a_cache_feeds_one_backward(self):
        """One copy of each head array is alive: the rows x width float64 buffer that
        holds Z, then H, then dZ (1 unit), the keep-mask and the dropout mask (1/8
        unit each, the second in the spent bytes of a block), a gather block of
        GATHER_ROWS rows, and vectors of rows floats; node rows are few here.
        Measured: 1.48 units. The bound, 1.65, is what releasing the head's buffer
        after each backward measured; a step that kept two epochs' buffers measured
        2.52, and one that also allocated rows x width uniforms, endpoint gathers and
        a separate dZ 3.55."""
        rows, width = 24_000, 64
        data = working_set_task(rows)
        config = TrainConfig(num_layers=1, embed_dim=16, head_hidden=width, dropout=0.1,
                             max_epochs=2, patience=1, seed=0)
        peak, result = traced_peak(data, config)
        unit = rows * width * 8
        assert peak <= 1.65 * unit, peak / unit

        model = result.model
        examples = data.examples[data.split == TRAIN]
        logits, (_, cache) = score_examples(model, data.adj, data.X, examples, 0.1, make_rng(0, 2), training=True)
        head_backward(np.ones_like(logits), cache, model.head)
        with pytest.raises(ChainriskError, match="missing forward cache"):
            head_backward(np.ones_like(logits), cache, model.head)

    def test_peak_is_bounded_when_the_encoder_dominates(self):
        """Two encoder layers of width 64 over 4,000 nodes, 1,000 training rows and a
        head of width 8; a unit is nodes x 64 float64s. One copy per role: per layer
        the pre-activation (which also takes the dropped input), S, H and a 1/8-unit
        dropout mask (S and the first layer's dropout only 4 columns wide), plus one
        node-row buffer for dQ. The second layer's spmm scratch (up to two units) and
        the relu gradient's 1/8-unit mask come and go. Measured: 8.55 units, against
        11.57 when two epochs' caches were alive; the bound allows 0.65 of headroom."""
        n, width = 4000, 64
        config = TrainConfig(num_layers=2, hidden_dim=width, embed_dim=width, head_hidden=8, dropout=0.1,
                             max_epochs=2, patience=1, seed=0)
        data = encoder_task(n, 1000)
        _ = data.adj.propagated  # computed once per graph, before training
        peak, _ = traced_peak(data, config)
        assert peak <= 9.2 * n * width * 8, peak / (n * width * 8)

    @pytest.mark.parametrize("kind", ["pair", "node"])
    def test_peak_does_not_grow_with_epochs(self, kind):
        data = working_set_task(6000) if kind == "pair" else encoder_task(2000, 1000)
        _ = data.adj.propagated
        peaks = []
        for epochs in (2, 6):
            config = TrainConfig(num_layers=2, hidden_dim=32, embed_dim=16, head_hidden=32, dropout=0.1,
                                 max_epochs=epochs, patience=epochs - 1, seed=0)
            peak, result = traced_peak(data, config)
            assert len(result.trace) == epochs
            peaks.append(peak)
        # the trace and the best parameters add a few hundred bytes per epoch
        assert abs(peaks[1] - peaks[0]) <= 16_384, peaks


def reuse_run(task, layers, rate, with_propagated, ws, epochs=3):
    """Bytes of every logit and gradient of `epochs` training steps, each followed by a
    validation pass, on a 30-node graph; `ws` goes to every forward. X is the graph's
    model inputs, whose product the adjacency keeps, or a writeable copy of them."""
    gen = np.random.default_rng(4)
    g = random_graph(gen, 30, 0.15, num_features=3)
    adj = normalize_adjacency(g)
    X = g.model_inputs if with_propagated else g.model_inputs.copy()
    model = init_classifier(task, 4, layers, 7, 5, 6, make_rng(1, 1))
    if task == "pair":
        u, v = np.triu_indices(30, 1)
        examples = np.column_stack([u, v])[gen.choice(u.size, 60, replace=False)]
    else:
        examples = gen.permutation(30)
    train, val = examples[:20], examples[20:]
    y = gen.integers(0, 2, size=20).astype(float)
    plans = scatter_plans(train, 30)
    params = model.parameters()
    state = AdamState(params)
    drop_rng = make_rng(2, 3)
    out = []
    for _ in range(epochs):
        logits, caches = score_examples(model, adj, X, train, rate, drop_rng, training=True, ws=ws)
        grads = backward(model, bce_logit_grad(sigmoid(logits), y), caches, plans)
        out += [logits.tobytes()] + [grad.tobytes() for grad in grads]
        adam_step(params, grads, state, 0.05)
        val_logits, _ = score_examples(model, adj, X, val, ws=ws)
        out.append(val_logits.tobytes())
    if with_propagated:
        assert not adj.propagated.flags.writeable
        assert adj.propagated.tobytes() == spmm(adj, X).tobytes()
    else:
        assert "propagated" not in vars(adj)  # a writeable X is never kept
    return out


class TestWorkspace:
    @pytest.mark.parametrize("with_propagated", [False, True])
    @pytest.mark.parametrize("rate", [0.0, 0.3])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("task", ["pair", "node"])
    def test_reuse_changes_no_byte(self, task, layers, rate, with_propagated):
        assert reuse_run(task, layers, rate, with_propagated, Workspace()) == \
            reuse_run(task, layers, rate, with_propagated, None)

    def test_freed_as_soon_as_training_returns(self, monkeypatch):
        made = []

        class Recorded(Workspace):
            def __init__(self):
                super().__init__()
                made.append(weakref.ref(self))

        monkeypatch.setattr(pipeline, "Workspace", Recorded)
        gc.disable()  # a reference cycle would keep every buffer alive until the collector ran
        try:
            train_task(working_set_task(600), TrainConfig(num_layers=2, max_epochs=2, patience=1, seed=0))
            assert len(made) == 1 and made[0]() is None
        finally:
            gc.enable()

    def test_forward_before_the_backward_raises(self, rng):
        g = random_graph(rng, 12, 0.3, num_features=3)
        adj = normalize_adjacency(g)
        model = init_classifier("pair", 3, 2, 6, 5, 4, make_rng(2, 1))
        pairs = np.array([(0, 3), (2, 7), (5, 11)])
        ws = Workspace()
        logits, caches = score_examples(model, adj, g.node_features, pairs, 0.2, make_rng(1, 5),
                                        training=True, ws=ws)
        for training in (False, True):
            with pytest.raises(ChainriskError, match="has not fed its backward"):
                score_examples(model, adj, g.node_features, pairs, 0.2, make_rng(1, 5), training=training, ws=ws)
        backward(model, np.ones_like(logits), caches)
        score_examples(model, adj, g.node_features, pairs, ws=ws)

    def test_encoder_cache_feeds_one_backward(self, rng):
        g = random_graph(rng, 12, 0.3, num_features=3)
        model = init_classifier("node", 3, 2, 6, 5, 4, make_rng(2, 1))
        logits, caches = score_examples(model, normalize_adjacency(g), g.node_features, np.arange(12), 0.2,
                                        make_rng(1, 5), training=True, ws=Workspace())
        backward(model, np.ones_like(logits), caches)
        with pytest.raises(ChainriskError, match="missing forward cache"):
            gcn_backward(np.ones((12, 5)), caches[0], model.gcn)


def kept_graph(rng):
    """A 25-node graph, its adjacency and a one-layer node model over its model inputs."""
    g = random_graph(rng, 25, 0.2, num_features=3)
    return g, normalize_adjacency(g), init_classifier("node", 4, 1, 6, 5, 4, make_rng(2, 1))


def wrong_product(adj):
    """Set the adjacency's kept product to a wrong one, so a pass that reads it shows."""
    adj.propagated = np.full(adj.inputs.shape, 7.0)


class TestPropagated:
    """The adjacency keeps spmm(adj, X) for the graph's read-only model inputs."""

    @pytest.mark.parametrize("layers", [1, 2])
    def test_precomputed_first_propagation_changes_nothing(self, rng, layers):
        g = random_graph(rng, 25, 0.2, num_features=3)
        adj = normalize_adjacency(g)
        model = init_classifier("node", 4, layers, 6, 5, 4, make_rng(2, 1))
        nodes = np.arange(25)
        plain, _ = score_examples(model, adj, g.model_inputs.copy(), nodes)
        assert "propagated" not in vars(adj)
        cached, _ = score_examples(model, adj, g.model_inputs, nodes)
        assert "propagated" in vars(adj) and adj.keeps(g.model_inputs)
        assert plain.tobytes() == cached.tobytes()

    def test_dropout_forward_ignores_it(self, rng):
        g, adj, model = kept_graph(rng)
        a, _ = score_examples(model, adj, g.model_inputs, np.arange(25), 0.3, make_rng(1, 5), training=True)
        wrong_product(adj)
        b, _ = score_examples(model, adj, g.model_inputs, np.arange(25), 0.3, make_rng(1, 5), training=True)
        assert a.tobytes() == b.tobytes()

    def test_wrong_shape_rejected(self, rng):
        base = normalize_adjacency(random_graph(rng, 6, 0.4, num_features=3))
        X = np.zeros((5, 2))
        X.flags.writeable = False
        adj = NormalizedAdjacency(6, base.indptr, base.indices, base.values, inputs=X)
        with pytest.raises(InvalidArgument):
            gcn_forward(adj, X, init_gcn([2, 3], make_rng(1, 2)))
        with pytest.raises(InvalidArgument):
            _ = adj.propagated

    def test_another_x_is_not_served_the_kept_product(self, rng):
        g, adj, model = kept_graph(rng)
        nodes = np.array([2, 9, 17])
        want, _ = score_examples(model, adj, g.model_inputs.copy(), nodes)
        wrong_product(adj)
        other = g.model_inputs.copy()
        other.flags.writeable = False
        assert not adj.keeps(other)
        got, _ = score_examples(model, adj, other, nodes)
        assert got.tobytes() == want.tobytes()

    def test_a_writeable_x_is_never_kept(self, rng):
        g, adj, model = kept_graph(rng)
        X = g.model_inputs.copy()
        assert X.flags.writeable and not adj.keeps(X)
        score_examples(model, adj, X, np.arange(25))
        assert "propagated" not in vars(adj)
        # an adjacency made around inputs makes them read-only
        NormalizedAdjacency(25, adj.indptr, adj.indices, adj.values, inputs=X)
        assert not X.flags.writeable

    def test_one_layer_restricted_pass_runs_no_spmm_and_lays_out_no_rows(self, rng, monkeypatch):
        g, adj, model = kept_graph(rng)
        nodes = np.array([2, 9, 17])
        want, _ = score_examples(model, adj, g.model_inputs.copy(), nodes)
        _ = adj.propagated
        for owner in (model_module, graph_module):
            monkeypatch.setattr(owner, "spmm", lambda *a, **k: pytest.fail("spmm ran"))
        monkeypatch.setattr(graph_module, "AdjacencyRows", lambda *a, **k: pytest.fail("rows were laid out"))
        got, _ = score_examples(model, adj, g.model_inputs, nodes)
        assert got.tobytes() == want.tobytes()


def every_node_logits(model, adj, X, examples):
    """The scoring pass as it ran before `example_rows`: the encoder on every node, then the head."""
    Q, _ = gcn_forward(adj, X, model.gcn)
    logits = pair_logits if model.task == "pair" else node_logits
    return logits(Q, examples, model.head)[0]


class TestRestrictedScoring:
    """A scoring-only pass runs the last layer and the head on the nodes its examples reach."""

    @pytest.fixture(scope="class")
    def graph(self):
        g = random_graph(np.random.default_rng(8), 60, 0.08, num_features=3)
        return g, normalize_adjacency(g)

    @pytest.mark.parametrize("with_propagated", [False, True], ids=["spmm", "propagated"])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("task", ["pair", "node"])
    @pytest.mark.parametrize("count", [0, 1, 2, 17, 60])
    def test_bit_identical_to_a_pass_over_every_node(self, graph, task, layers, with_propagated, count):
        g, adj = graph
        gen = np.random.default_rng(count)
        model = init_classifier(task, 4, layers, 7, 5, 6, make_rng(3, 1))
        if task == "pair":
            examples = gen.integers(0, 60, size=(count, 2))
            if count == 1:  # one pair whose endpoints are the same node: one reached node
                examples[:, 1] = examples[:, 0]
        else:
            examples = gen.integers(0, 60, size=count) if count < 60 else np.arange(60)
        # the graph's model inputs are kept by the adjacency, whose product is held here; a
        # writeable copy is multiplied
        X = g.model_inputs if with_propagated else g.model_inputs.copy()
        if with_propagated:
            _ = adj.propagated
        expected = every_node_logits(model, adj, g.model_inputs.copy(), examples)
        logits, caches = score_examples(model, adj, X, examples)
        assert caches == (None, None)
        assert logits.tobytes() == expected.tobytes()
        again, _ = score_examples(model, adj, X, examples, rows=example_rows(adj, examples), ws=Workspace())
        assert again.tobytes() == expected.tobytes()

    def test_rows_renumber_the_examples_into_the_reached_nodes(self, graph):
        _, adj = graph
        pairs = np.array([[7, 3], [3, 41], [59, 7]])
        rows = example_rows(adj, pairs)
        assert rows.nodes.tolist() == [3, 7, 41, 59] and rows.size == 4
        assert np.array_equal(rows.nodes[rows.position[rows.ids]], pairs)
        assert spmm(rows.op, np.eye(60)).tobytes() == spmm(adj, np.eye(60))[rows.nodes].tobytes()
        for examples in ([], [5], [[5, 5]], np.arange(60)):  # fewer than two nodes, or every node
            rows = example_rows(adj, examples)
            assert (rows.nodes, rows.op, rows.size) == (slice(None), adj, 60)

    def test_a_strict_subset_never_builds_the_full_layout(self, rng):
        """The first one-layer pass over a strict subset multiplies by the
        reached rows alone, also for the kept X; the second computes the kept
        product, which builds the full layout once, and reads its rows, as does
        every later pass, and none lays out rows."""
        g = random_graph(rng, 40, 0.1, num_features=3)
        adj = normalize_adjacency(g)
        model = init_classifier("node", 4, 1, 6, 5, 4, make_rng(2, 1))
        nodes = np.array([1, 8, 30])
        want, _ = score_examples(model, adj, g.model_inputs.copy(), nodes)
        laid_out = []
        for _ in range(3):
            rows = example_rows(adj, nodes)
            got, _ = score_examples(model, adj, g.model_inputs, nodes, rows=rows)
            assert got.tobytes() == want.tobytes()
            laid_out.append(("op" in vars(rows), "sums" in vars(adj), "propagated" in vars(adj)))
        assert laid_out == [(True, False, False), (False, True, True), (False, True, True)]

    def test_a_pass_over_every_node_keeps_the_product(self, rng):
        g = random_graph(rng, 40, 0.1, num_features=3)
        adj = normalize_adjacency(g)
        score_examples(init_classifier("node", 4, 1, 6, 5, 4, make_rng(2, 1)), adj, g.model_inputs, np.arange(40))
        assert adj.propagated.tobytes() == spmm(adj, g.model_inputs).tobytes()

    def test_rows_of_other_examples_rejected(self, graph):
        g, adj = graph
        model = init_classifier("pair", 3, 1, 6, 5, 4, make_rng(2, 1))
        with pytest.raises(InvalidArgument):
            score_examples(model, adj, g.node_features, np.array([[0, 1], [2, 3]]),
                           rows=example_rows(adj, np.array([[0, 1]])))

    def test_out_of_range_ids_rejected(self, graph):
        g, adj = graph
        model = init_classifier("node", 3, 1, 6, 5, 4, make_rng(2, 1))
        with pytest.raises(InvalidArgument, match="node id out of range"):
            score_examples(model, adj, g.node_features, np.array([0, 60]))


class TestBackward:
    def _setup(self, task, seed=21):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, 20, 0.15, num_features=4)
        adj = normalize_adjacency(g)
        model = init_classifier(task, 4, num_layers=2, hidden_dim=6, embed_dim=5,
                                head_hidden=4, rng=make_rng(seed, 1))
        if task == "pair":
            examples = np.array([(u, (u + 3) % 20) for u in range(0, 20, 2)])
        else:
            examples = np.arange(0, 20, 2)
        y = (np.arange(examples.shape[0]) % 2).astype(float)
        return model, adj, g.node_features, examples, y

    def test_zero_upstream_gives_zero_gradients(self):
        model, adj, X, examples, _ = self._setup("pair")
        logits, caches = score_examples(model, adj, X, examples, training=True)
        grads = backward(model, np.zeros_like(logits), caches)
        assert all(np.all(gr == 0.0) for gr in grads)

    def test_gradients_scale_linearly(self):
        model, adj, X, examples, y = self._setup("node")
        logits, caches = score_examples(model, adj, X, examples, training=True)
        d = bce_logit_grad(sigmoid(logits), y)
        g1 = backward(model, d, caches)
        logits2, caches2 = score_examples(model, adj, X, examples, training=True)
        g2 = backward(model, 2.0 * d, caches2)
        for a, b in zip(g1, g2):
            assert np.allclose(2.0 * a, b, atol=1e-12)

    @pytest.mark.parametrize("task", ["pair", "node"])
    def test_full_model_passes_finite_difference_check(self, task):
        model, adj, X, examples, y = self._setup(task)
        params = model.parameters()

        def f(_):
            logits, caches = score_examples(model, adj, X, examples, training=True)
            probs = sigmoid(logits)
            return bce_loss(probs, y), backward(model, bce_logit_grad(probs, y), caches)

        assert grad_check(f, params) < 1e-4

    def test_missing_cache_raises(self):
        from chainrisk.model import GcnParams

        with pytest.raises(ChainriskError):
            gcn_backward(np.zeros((2, 2)), None, GcnParams(weights=[np.eye(2)]))


class TestCheckpoint:
    def test_roundtrip_preserves_parameters(self, tmp_path, rng):
        model = init_classifier("pair", 5, 2, 8, 4, 6, make_rng(1, 1))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, {"seed": 7, "stage": "sc"})
        loaded, meta = load_checkpoint(path)
        assert meta == {"seed": 7, "stage": "sc"}
        assert loaded.task == "pair"
        for a, b in zip(model.parameters(), loaded.parameters()):
            assert np.array_equal(a, b)

    def test_version_mismatch_raises(self, tmp_path):
        model = init_classifier("node", 3, 1, 4, 2, 3, make_rng(2, 1))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, {})
        raw = bytearray(path.read_bytes())
        raw[8] = 99  # bump the little-endian version field
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointVersionError):
            load_checkpoint(path)

    def test_scoring_survives_roundtrip(self, tmp_path, rng):
        model = init_classifier("node", 4, 2, 6, 3, 4, make_rng(3, 1))
        g = random_graph(rng, 10, 0.3, num_features=4)
        adj = normalize_adjacency(g)
        nodes = np.arange(10)
        before, _ = score_examples(model, adj, g.node_features, nodes)
        save_checkpoint(tmp_path / "m.ckpt", model, {})
        loaded, _ = load_checkpoint(tmp_path / "m.ckpt")
        after, _ = score_examples(loaded, adj, g.node_features, nodes)
        assert np.array_equal(before, after)


DATA = os.path.join(os.path.dirname(__file__), "data")


def split_checkpoint(raw):
    """(header dict, payload bytes) of a v1 checkpoint file's bytes."""
    (blob_len,) = struct.unpack_from("<I", raw, 12)
    return json.loads(raw[16:16 + blob_len]), raw[16 + blob_len:]


def join_checkpoint(header, payload):
    blob = json.dumps(header).encode("utf-8")
    return b"CHRKGCN1" + struct.pack("<II", 1, len(blob)) + blob + payload


def _set(key, value):
    def change(header, payload):
        header[key] = value
        return join_checkpoint(header, payload)
    return change


# each turns a valid pair checkpoint (embed 4, head hidden 6) into one the head cannot score
BROKEN_CHECKPOINTS = {
    "short-header": lambda h, p: join_checkpoint(h, p)[:11],
    "cut-json": lambda h, p: join_checkpoint(h, p)[:40],
    "non-json": lambda h, p: join_checkpoint(h, p).replace(b'"task"', b'#task#'),
    "header-not-object": lambda h, p: join_checkpoint([h], p),
    "task": _set("task", "edge"),
    "three-layer-head": _set("head_w_shapes", [[8, 6], [6, 6], [6, 1]]),
    "head-in-width": _set("head_w_shapes", [[4, 6], [6, 1]]),
    "head-out-width": _set("head_w_shapes", [[8, 6], [6, 2]]),
    "head-biases": _set("head_b_shapes", [[6], [2]]),
    "unchained-encoder": _set("gcn_shapes", [[5, 8], [7, 4]]),
    "short-payload": lambda h, p: join_checkpoint(h, p[:-8]),
    "long-payload": lambda h, p: join_checkpoint(h, p + bytes(8)),
}


class TestCheckpointValidation:
    @pytest.mark.parametrize("name", sorted(BROKEN_CHECKPOINTS))
    def test_unscorable_checkpoint_rejected(self, tmp_path, name):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_classifier("pair", 5, 2, 8, 4, 6, make_rng(1, 1)), {"stage": "sc"})
        path.write_bytes(BROKEN_CHECKPOINTS[name](*split_checkpoint(path.read_bytes())))
        with pytest.raises(InvalidInput, match=str(path)):
            load_checkpoint(path)

    @pytest.mark.parametrize("task", ["pair", "node"])
    def test_checkpoint_of_the_previous_head_scores_the_same(self, task):
        """Checkpoints written by the unfactored node head load and score as they did."""
        g = random_graph(np.random.default_rng(2024), 12, 0.3, num_features=4)
        examples = np.array([(u, (u + 5) % 12) for u in range(12)]) if task == "pair" else np.arange(12)
        with open(os.path.join(DATA, "checkpoint_v1_logits.json"), encoding="utf-8") as fh:
            expected = np.asarray(json.load(fh)[task])
        model, meta = load_checkpoint(os.path.join(DATA, f"checkpoint_v1_{task}.bin"))
        assert meta == {"stage": task, "seed": 31}
        logits, _ = score_examples(model, normalize_adjacency(g), g.node_features, examples)
        if task == "pair":
            assert np.array_equal(logits, expected)
        else:  # the node head's first layer now sums in a different order
            assert np.max(np.abs(logits - expected)) <= 1e-12
