"""GCN encoder plus one scoring head for pairs and nodes, with hand-written backprop.

The encoder applies H <- relu(A_hat @ H @ W) per layer, ReLU on every layer
including the last. The head is a one-hidden-layer ReLU MLP ending in a
single logit. It scores a row of k endpoint ids from the concatenated
embeddings [q_e1 ; ... ; q_ek]: k = 2 for pairs (u < v by convention),
k = 1 for nodes. Dropout sits on each encoder layer input and on the head's
hidden activation, training mode only.

The head's first layer is computed in factored form: it splits as
[q_e1 ; ... ; q_ek] W0 = (Q W0[0:d])[e1] + ... + (Q W0[(k-1)d:kd])[ek],
so the first-layer matmuls run once over the node rows of Q rather than
once per example, and the backward pass scatters the first-layer gradient
once per endpoint.

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
    """One hidden ReLU layer, then a 1-logit layer: weights [W0, W1], biases [b0, b1]."""

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


def init_head(in_dim, hidden, rng):
    weights = [_uniform_init(rng, in_dim, hidden), _uniform_init(rng, hidden, 1)]
    return MlpHead(weights=weights, biases=[np.zeros(hidden), np.zeros(1)])


def init_classifier(task, in_dim, num_layers, hidden_dim, embed_dim, head_hidden, rng):
    if task not in ("pair", "node"):
        raise InvalidArgument(f"task must be 'pair' or 'node', got {task!r}")
    if num_layers not in (1, 2, 3):
        raise InvalidArgument(f"layer count must be 1, 2, or 3, got {num_layers}")
    dims = [in_dim] + [hidden_dim] * (num_layers - 1) + [embed_dim]
    gcn = init_gcn(dims, rng)
    head_in = 2 * embed_dim if task == "pair" else embed_dim
    head = init_head(head_in, head_hidden, rng)
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


def _head_logits(Q, examples, head, dropout_rate, rng, training):
    """Score rows of k endpoint ids from [q_e1 ; ... ; q_ek], factored per endpoint.

    The first layer runs once over the node rows of Q:
    Z = (Q W0[0:d])[e1] + ... + (Q W0[(k-1)d:kd])[ek] + b0.
    """
    d = Q.shape[1]
    W0, W1 = head.weights
    Z = (Q @ W0[:d])[examples[:, 0]]
    for j in range(1, examples.shape[1]):
        Z += (Q @ W0[j * d:(j + 1) * d])[examples[:, j]]
    Z += head.biases[0]
    H, mask = dropout(relu(Z), dropout_rate, rng, training)
    logits = (H @ W1 + head.biases[1]).reshape(-1)
    return logits, {"Q": Q, "examples": examples, "Z": Z, "H": H, "mask": mask, "rate": dropout_rate}


def pair_logits(Q, pairs, head, dropout_rate=0.0, rng=None, training=False):
    """Score node pairs from concatenated embeddings [q_u ; q_v]."""
    pairs = _check_ids(pairs, Q.shape[0]).reshape(-1, 2)
    return _head_logits(Q, pairs, head, dropout_rate, rng, training)


def node_logits(Q, nodes, head, dropout_rate=0.0, rng=None, training=False):
    """Score single nodes from their embeddings."""
    nodes = _check_ids(nodes, Q.shape[0]).reshape(-1, 1)
    return _head_logits(Q, nodes, head, dropout_rate, rng, training)


def head_backward(dlogits, cache, head):
    """Head gradients plus the gradient scattered back onto embeddings.

    dZ is scattered once per endpoint column; the W0 blocks and dQ follow
    on node rows.
    """
    if cache is None or "Z" not in cache:
        raise ChainriskError("missing forward cache")
    W0, W1 = head.weights
    Q, examples = cache["Q"], cache["examples"]
    n, d = Q.shape
    dlogits = np.asarray(dlogits, dtype=np.float64).reshape(-1, 1)
    dH = dropout_grad(dlogits @ W1.T, cache["mask"], cache["rate"])
    dZ = relu_grad(dH, cache["Z"])
    scattered = [_scatter_rows(n, examples[:, j], dZ) for j in range(examples.shape[1])]
    dQ = scattered[0] @ W0[:d].T
    for j in range(1, len(scattered)):
        dQ += scattered[j] @ W0[j * d:(j + 1) * d].T
    w_grads = [np.vstack([Q.T @ S for S in scattered]), cache["H"].T @ dlogits]
    b_grads = [dZ.sum(axis=0), dlogits.sum(axis=0)]
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


def _chain(shapes):
    """Widths [w0, w1, ...] if `shapes` is [[w0, w1], [w1, w2], ...] of positive ints, else None."""
    try:
        widths = [shapes[0][0]] + [s[1] for s in shapes]
    except (TypeError, LookupError):
        return None
    ok = all(type(w) is int and w > 0 for w in widths)
    return widths if ok and shapes == [[a, b] for a, b in zip(widths, widths[1:])] else None


def load_checkpoint(path):
    """Returns (model, meta) for a checkpoint this head can score.

    Raises CheckpointVersionError on a bad version, and InvalidInput naming
    `path` on a short or non-JSON header, a task other than pair/node, an
    encoder whose widths do not chain, a head other than [k * embed, h]
    then [h, 1], or a payload of the wrong length.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    start = len(CHECKPOINT_MAGIC) + 8
    if raw[:len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise InvalidInput(f"{path} is not a checkpoint file")
    if len(raw) < start:
        raise InvalidInput(f"{path}: truncated checkpoint header")
    version, blob_len = struct.unpack_from("<II", raw, len(CHECKPOINT_MAGIC))
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(version, CHECKPOINT_VERSION)
    try:
        header = json.loads(raw[start:start + blob_len].decode("utf-8"))
    except ValueError as err:
        raise InvalidInput(f"{path}: checkpoint header is not JSON ({err})") from None
    if not (isinstance(header, dict) and isinstance(header.get("meta"), dict)):
        raise InvalidInput(f"{path}: checkpoint header must be an object with a meta object")
    k = {"pair": 2, "node": 1}.get(header.get("task"))
    if k is None:
        raise InvalidInput(f"{path}: checkpoint task must be 'pair' or 'node', got {header.get('task')!r}")
    enc, head = _chain(header.get("gcn_shapes")), _chain(header.get("head_w_shapes"))
    if enc is None or head is None or len(head) != 3 or head[0] != k * enc[-1] or head[2] != 1 \
            or header.get("head_b_shapes") != [[head[1]], [1]]:
        raise InvalidInput(f"{path}: checkpoint must hold a chained encoder and a [{k} * embed, h], [h, 1] head")
    model = GcnClassifier(
        gcn=GcnParams(weights=[np.zeros(s) for s in header["gcn_shapes"]]),
        head=MlpHead(weights=[np.zeros(head[:2]), np.zeros(head[1:])], biases=[np.zeros(head[1]), np.zeros(1)]),
        task=header["task"],
    )
    params = model.parameters()
    payload = raw[start + blob_len:]
    expected = 8 * sum(p.size for p in params)
    if len(payload) != expected:
        raise InvalidInput(f"{path}: checkpoint payload has {len(payload)} bytes, expected {expected}")
    offset = 0
    for p in params:
        p[:] = np.frombuffer(payload, dtype="<f8", count=p.size, offset=offset).reshape(p.shape)
        offset += 8 * p.size
    return model, header["meta"]
