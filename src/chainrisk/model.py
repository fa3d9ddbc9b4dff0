"""GCN encoder plus the two scoring heads, with hand-written backprop.

The encoder applies H <- relu(A_hat @ H @ W) per layer, ReLU on every layer
including the last. The pair head scores concatenated embeddings
[q_u ; q_v] (u < v by convention), the node head scores q_u alone; both are
small ReLU MLPs ending in a single logit. Dropout sits on each encoder
layer input and each head hidden activation, training mode only.

The pair head is computed in factored form: its first layer splits as
[q_u ; q_v] W0 = (Q W0[:d])[u] + (Q W0[d:])[v], so the first-layer matmuls
run once over the node rows of Q rather than once per pair, and the
backward pass scatters the first-layer gradient once per endpoint.

Backprop leans on the normalized adjacency being symmetric: the adjoint of
`spmm(adj, .)` is `spmm(adj, .)` itself.
"""

import json
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ChainriskError, CheckpointVersionError, InvalidArgument, InvalidInput
from .graph import spmm
from .nn import dropout, dropout_grad, relu, relu_grad

CHECKPOINT_MAGIC = b"CHRKGCN1"
CHECKPOINT_VERSION = 1


@dataclass
class GcnParams:
    """Per-layer weight matrices; layer l maps width dims[l] to dims[l+1]."""

    weights: list

    @property
    def num_layers(self):
        return len(self.weights)


@dataclass
class MlpHead:
    """Hidden (weight, bias) pairs with ReLU between, then a 1-logit layer."""

    weights: list
    biases: list


@dataclass
class GcnClassifier:
    """Encoder and head trained jointly for one task ("pair" or "node")."""

    gcn: GcnParams
    head: MlpHead
    task: str

    def parameters(self):
        """Trainable arrays in canonical order (encoder, then head W/b pairs)."""
        out = list(self.gcn.weights)
        for w, b in zip(self.head.weights, self.head.biases):
            out.append(w)
            out.append(b)
        return out

    def copy_parameters(self):
        return [p.copy() for p in self.parameters()]

    def load_parameters(self, values):
        params = self.parameters()
        if len(values) != len(params):
            raise InvalidArgument("parameter count mismatch")
        for p, v in zip(params, values):
            p[:] = v


def _uniform_init(rng, fan_in, fan_out):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def init_gcn(dims, rng):
    """Encoder weights for the width chain dims[0] -> ... -> dims[-1]."""
    if len(dims) < 2:
        raise InvalidArgument("need at least input and output widths")
    return GcnParams(weights=[_uniform_init(rng, dims[i], dims[i + 1]) for i in range(len(dims) - 1)])


def init_head(in_dim, hidden_dims, rng):
    widths = [in_dim] + list(hidden_dims) + [1]
    weights = [_uniform_init(rng, widths[i], widths[i + 1]) for i in range(len(widths) - 1)]
    biases = [np.zeros(widths[i + 1]) for i in range(len(widths) - 1)]
    return MlpHead(weights=weights, biases=biases)


def init_classifier(task, in_dim, num_layers, hidden_dim, embed_dim, head_hidden, rng):
    if task not in ("pair", "node"):
        raise InvalidArgument(f"task must be 'pair' or 'node', got {task!r}")
    if num_layers not in (1, 2, 3):
        raise InvalidArgument(f"layer count must be 1, 2, or 3, got {num_layers}")
    dims = [in_dim] + [hidden_dim] * (num_layers - 1) + [embed_dim]
    gcn = init_gcn(dims, rng)
    head_in = 2 * embed_dim if task == "pair" else embed_dim
    head = init_head(head_in, [head_hidden], rng)
    return GcnClassifier(gcn=gcn, head=head, task=task)


def gcn_forward(adj, X, params, dropout_rate=0.0, rng=None, training=False):
    """Run the encoder; returns (embeddings, cache for backward)."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] != adj.num_nodes:
        raise InvalidArgument(f"X has {X.shape[0]} rows for {adj.num_nodes} nodes")
    if X.shape[1] != params.weights[0].shape[0]:
        raise InvalidArgument(
            f"X width {X.shape[1]} does not match W0 input {params.weights[0].shape[0]}"
        )
    H = X
    layers = []
    for W in params.weights:
        D, mask = dropout(H, dropout_rate, rng, training)
        S = spmm(adj, D)
        Z = S @ W
        H = relu(Z)
        layers.append({"S": S, "Z": Z, "mask": mask})
    cache = {"adj": adj, "layers": layers, "rate": dropout_rate}
    return H, cache


def gcn_backward(dQ, cache, params):
    """Gradients of the encoder weights given d(loss)/d(embeddings)."""
    if cache is None or "layers" not in cache:
        raise ChainriskError("missing forward cache")
    adj = cache["adj"]
    rate = cache["rate"]
    grads = [None] * params.num_layers
    upstream = dQ
    for l in range(params.num_layers - 1, -1, -1):
        layer = cache["layers"][l]
        dZ = relu_grad(upstream, layer["Z"])
        grads[l] = layer["S"].T @ dZ
        if l > 0:
            dS = dZ @ params.weights[l].T
            dD = spmm(adj, dS)
            upstream = dropout_grad(dD, layer["mask"], rate)
    return grads


def _head_forward(Z, head, dropout_rate=0.0, rng=None, training=False):
    """Every layer after the first, given the first layer's pre-activation Z."""
    inputs = []
    zs = []
    masks = []
    for W, b in zip(head.weights[1:], head.biases[1:]):
        zs.append(Z)
        A, mask = dropout(relu(Z), dropout_rate, rng, training)
        masks.append(mask)
        inputs.append(A)
        Z = A @ W + b
    return Z.reshape(-1), {"inputs": inputs, "zs": zs, "masks": masks, "rate": dropout_rate}


def _head_backward(dlogits, cache, head):
    """Gradients of layers 1.. and of the first bias, plus d(loss)/d(first pre-activation).

    The first layer's weight gradient is left as None for the caller, which
    knows how that layer's input was formed.
    """
    if cache is None or "inputs" not in cache:
        raise ChainriskError("missing forward cache")
    dZ = np.asarray(dlogits, dtype=np.float64).reshape(-1, 1)
    w_grads = [None] * len(head.weights)
    b_grads = [None] * len(head.biases)
    for i in range(len(head.weights) - 1, 0, -1):
        w_grads[i] = cache["inputs"][i - 1].T @ dZ
        b_grads[i] = dZ.sum(axis=0)
        dA = dropout_grad(dZ @ head.weights[i].T, cache["masks"][i - 1], cache["rate"])
        dZ = relu_grad(dA, cache["zs"][i - 1])
    b_grads[0] = dZ.sum(axis=0)
    return w_grads, b_grads, dZ


def _check_ids(ids, num_nodes):
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= num_nodes):
        raise InvalidArgument("node id out of range")
    return ids


def _scatter_rows(num_rows, idx, rows):
    """Segment-sum `rows` into `idx` slots: one flat bincount over (slot, column)."""
    d = rows.shape[1]
    flat = (idx[:, None] * d + np.arange(d)).reshape(-1)
    out = np.bincount(flat, weights=rows.reshape(-1), minlength=num_rows * d)
    return out.reshape(num_rows, d)


def pair_logits(Q, pairs, head, dropout_rate=0.0, rng=None, training=False):
    """Score node pairs from concatenated embeddings [q_u ; q_v].

    The first layer is applied per node, not per pair:
    [q_u ; q_v] W0 = (Q W0[:d])[u] + (Q W0[d:])[v].
    """
    pairs = _check_ids(pairs, Q.shape[0]).reshape(-1, 2)
    W0 = head.weights[0]
    d = Q.shape[1]
    Z = (Q @ W0[:d])[pairs[:, 0]] + (Q @ W0[d:])[pairs[:, 1]] + head.biases[0]
    logits, cache = _head_forward(Z, head, dropout_rate, rng, training)
    cache["Q"] = Q
    cache["pairs"] = pairs
    return logits, cache


def node_logits(Q, nodes, head, dropout_rate=0.0, rng=None, training=False):
    """Score single nodes from their embeddings."""
    nodes = _check_ids(nodes, Q.shape[0]).reshape(-1)
    A = Q[nodes]
    logits, cache = _head_forward(A @ head.weights[0] + head.biases[0], head, dropout_rate, rng, training)
    cache["A"] = A
    cache["nodes"] = nodes
    cache["num_nodes"] = Q.shape[0]
    return logits, cache


def head_backward(dlogits, cache, head):
    """Head gradients plus the gradient scattered back onto embeddings."""
    w_grads, b_grads, dZ = _head_backward(dlogits, cache, head)
    W0 = head.weights[0]
    if "pairs" in cache:
        # scatter dZ once per endpoint; both W0 halves and dQ follow on node rows
        Q = cache["Q"]
        n, d = Q.shape
        S_u = _scatter_rows(n, cache["pairs"][:, 0], dZ)
        S_v = _scatter_rows(n, cache["pairs"][:, 1], dZ)
        w_grads[0] = np.vstack([Q.T @ S_u, Q.T @ S_v])
        dQ = S_u @ W0[:d].T + S_v @ W0[d:].T
    else:
        w_grads[0] = cache["A"].T @ dZ
        dQ = _scatter_rows(cache["num_nodes"], cache["nodes"], dZ @ W0.T)
    return w_grads, b_grads, dQ


def score_examples(model, adj, X, examples, dropout_rate=0.0, rng=None, training=False):
    """Full forward pass: encoder then the model's head on `examples`."""
    Q, gcn_cache = gcn_forward(adj, X, model.gcn, dropout_rate, rng, training)
    if model.task == "pair":
        logits, head_cache = pair_logits(Q, examples, model.head, dropout_rate, rng, training)
    else:
        logits, head_cache = node_logits(Q, examples, model.head, dropout_rate, rng, training)
    return logits, (gcn_cache, head_cache)


def backward(model, dlogits, caches):
    """Gradients for all parameters, aligned with model.parameters()."""
    gcn_cache, head_cache = caches
    w_grads, b_grads, dQ = head_backward(dlogits, head_cache, model.head)
    gcn_grads = gcn_backward(dQ, gcn_cache, model.gcn)
    out = list(gcn_grads)
    for w, b in zip(w_grads, b_grads):
        out.append(w)
        out.append(b)
    return out


def save_checkpoint(path, model, meta):
    """Binary checkpoint: magic, version, JSON header, float64 LE payload."""
    header = {
        "task": model.task,
        "gcn_shapes": [list(w.shape) for w in model.gcn.weights],
        "head_w_shapes": [list(w.shape) for w in model.head.weights],
        "head_b_shapes": [list(b.shape) for b in model.head.biases],
        "meta": meta,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for arr in model.parameters():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path):
    """Returns (model, meta). Raises CheckpointVersionError on a bad version."""
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise InvalidInput(f"{path} is not a checkpoint file")
        (version,) = struct.unpack("<I", fh.read(4))
        if version != CHECKPOINT_VERSION:
            raise CheckpointVersionError(version, CHECKPOINT_VERSION)
        (blob_len,) = struct.unpack("<I", fh.read(4))
        header = json.loads(fh.read(blob_len).decode("utf-8"))
        payload = fh.read()
    gcn = GcnParams(weights=[np.zeros(s) for s in header["gcn_shapes"]])
    head = MlpHead(
        weights=[np.zeros(s) for s in header["head_w_shapes"]],
        biases=[np.zeros(s) for s in header["head_b_shapes"]],
    )
    model = GcnClassifier(gcn=gcn, head=head, task=header["task"])
    offset = 0
    for p in model.parameters():
        count = p.size
        chunk = np.frombuffer(payload, dtype="<f8", count=count, offset=offset)
        p[:] = chunk.reshape(p.shape)
        offset += count * 8
    if offset != len(payload):
        raise InvalidInput("checkpoint payload size mismatch")
    return model, header["meta"]
