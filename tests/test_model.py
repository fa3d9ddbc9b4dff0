import json
import os
import struct

import numpy as np
import pytest

from chainrisk.errors import CheckpointVersionError, InvalidArgument, InvalidInput
from chainrisk.graph import SmeGraph, normalize_adjacency
from chainrisk.model import (
    GcnClassifier,
    _scatter_rows,
    backward,
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
    score_examples,
)
from chainrisk.nn import bce_logit_grad, bce_loss, grad_check, sigmoid
from chainrisk.rng import make_rng

from conftest import random_graph


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


def head_logits(Q, examples, head):
    """pair_logits for k = 2 endpoint columns, node_logits for k = 1."""
    if examples.shape[1] == 2:
        return pair_logits(Q, examples, head)
    return node_logits(Q, examples.reshape(-1), head)


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
        logits, cache = head_logits(Q, examples, head)
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


class TestScatterRows:
    @pytest.mark.parametrize(
        "idx",
        [[3, 1, 3, 0, 3, 1], [5, 4, 3, 2, 1, 0], [2, 2, 2, 2], [0], []],
        ids=["repeated", "unsorted", "one-slot", "single", "empty"],
    )
    def test_matches_add_at_oracle(self, rng, idx):
        idx = np.asarray(idx, dtype=np.int64)
        rows = rng.normal(size=(idx.size, 3))
        expected = np.zeros((6, 3))
        np.add.at(expected, idx, rows)
        got = _scatter_rows(6, idx, rows)
        assert got.shape == (6, 3)
        assert np.max(np.abs(got - expected), initial=0.0) <= 1e-12


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
        logits, caches = score_examples(model, adj, X, examples)
        grads = backward(model, np.zeros_like(logits), caches)
        assert all(np.all(gr == 0.0) for gr in grads)

    def test_gradients_scale_linearly(self):
        model, adj, X, examples, y = self._setup("node")
        logits, caches = score_examples(model, adj, X, examples)
        d = bce_logit_grad(sigmoid(logits), y)
        g1 = backward(model, d, caches)
        logits2, caches2 = score_examples(model, adj, X, examples)
        g2 = backward(model, 2.0 * d, caches2)
        for a, b in zip(g1, g2):
            assert np.allclose(2.0 * a, b, atol=1e-12)

    @pytest.mark.parametrize("task", ["pair", "node"])
    def test_full_model_passes_finite_difference_check(self, task):
        model, adj, X, examples, y = self._setup(task)
        params = model.parameters()

        def f(_):
            logits, caches = score_examples(model, adj, X, examples)
            probs = sigmoid(logits)
            return bce_loss(probs, y), backward(model, bce_logit_grad(probs, y), caches)

        assert grad_check(f, params) < 1e-4

    def test_missing_cache_raises(self):
        from chainrisk.errors import ChainriskError
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
