"""GCN encoder plus one scoring head for pairs and nodes, with hand-written backprop.

The encoder applies H <- relu(A_hat @ H @ W) per layer, ReLU on every layer
including the last. The head is a one-hidden-layer ReLU MLP ending in a
single logit. It scores a row of k endpoint ids from the concatenated
embeddings [q_e1 ; ... ; q_ek]: k = 2 for pairs (u < v by convention),
k = 1 for nodes. Dropout sits on each encoder layer input and on the head's
hidden activation, training mode only; its masks come from 16-bit lanes of
the dropout stream's Philox words (`nn.dropout_mask`), so the realized drop
probability is round(rate * 65536) / 65536.

The head's first layer is computed in factored form: it splits as
[q_e1 ; ... ; q_ek] W0 = (Q W0[0:d])[e1] + ... + (Q W0[(k-1)d:kd])[ek],
so the first-layer matmuls run once over the node rows of Q rather than
once per example, and the backward pass scatters the first-layer gradient
once per endpoint.

A training forward keeps one joint keep-mask for the head's hidden layer:
the dropout draw ANDed with Z > 0. The forward scales Z by it in place
(H = Z * keep / (1 - rate)) and the backward reuses it
(dZ = dlogits * W1^T * keep / (1 - rate)), so relu and dropout cost one
pass each way. The backward scatters dZ onto node rows through one
`graph.RowSums` layout per endpoint column (`graph.scatter_plans`), the
kernel `spmm` runs, so each node's rows sum as row 0 + (row 1 + ...);
training builds the plans once for its fixed example rows and passes them in.

Z is gathered from the first endpoint block and the later blocks are
added GATHER_ROWS rows at a time; the dropout mask is drawn in chunks
(`nn.dropout_mask`); Z becomes H in place; and the backward takes the W1
gradient H^T dlogits first, then builds dZ in H's buffer. So a training
head cache feeds exactly one backward: `head_backward` removes the
keep-mask from it, and a second call raises ChainriskError. The encoder's
cache does the same (`gcn_backward` removes its layers).

Given a `Workspace`, as every pass of `pipeline.train_task` is, a pass
and the backward of its caches write every array into the bytes the
previous pass used for the same role, so from the second epoch on one
copy of each training array is alive. Roles whose arrays are never alive
at once share bytes (l is an encoder layer, j an endpoint; validation's
last layer and head run on the reached nodes' rows only):

    role          training forward         backward              validation
    ("mask", l)   dropout mask of layer l
    ("Z", l)      dropped input, then Z,   dS (l > 0)            Z, relu in place
                  relu in place
    ("S", l)      S                        dD, scaled in place;  S (l > 0)
                                           then layer l - 1's dZ
    ("block", j)  Q W0_j; then the head's  rows scattered onto   Q W0_j
                  dropout mask (j = 0)     endpoint j; endpoint
                                           j + 1's dQ product
    "rows"        Z, then H in place       dZ in place           a score block's Z
    "spare"       spmm scratch; gather     scatter scratch; dQ,  spmm scratch;
                  block; keep-mask         then the last layer's gather block
                                           dZ; spmm scratch

The encoder keeps relu(Z), not Z: its relu gradient reads H > 0, which
holds exactly where Z > 0, and is written over the upstream gradient.

A forward that would reuse a workspace whose head cache has not fed its
backward raises ChainriskError instead. `TaskData.propagated` is only
ever read. Without a workspace every array is allocated, as numpy's
`out=None` does.

A scoring-only forward (training=False) keeps no cache: the head forms
the `Q W0` blocks once and scores the examples in blocks of `SCORE_BLOCK`
rows, so its memory is set by the block size rather than the row count.
It runs the last encoder layer and the head on the nodes its examples
reach (`example_rows`); the head renumbers each block of examples into
them through an n-sized position table, so no renumbered copy of every
example is held. The layers before run on every node. `gcn_forward`
takes the first propagation `spmm(adj, X)` precomputed (`propagated`)
when that layer has no dropout; `TaskData.propagated` in `pipeline`
holds it once per task. A one-layer validation pass copies the reached
rows of it, outside the workspace.

Each change above keeps every value's arithmetic as it was, so same-seed
outputs stay bit-identical (scoring blocks on one BLAS thread: see `SCORE_BLOCK`;
restricted scoring: see `score_examples`).

Backprop leans on the normalized adjacency being symmetric: the adjoint of
`spmm(adj, .)` is `spmm(adj, .)` itself.
"""

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ChainriskError, CheckpointVersionError, InvalidArgument, InvalidInput
from .graph import check_ids, scatter_plans, spmm
from .nn import dropout, dropout_grad, dropout_mask, relu, relu_grad

CHECKPOINT_MAGIC = b"CHRKGCN1"
CHECKPOINT_VERSION = 1

# rows per block of a scoring-only head pass, a multiple of 1024. OpenBLAS's
# gemv sends a row through its 4-row kernel or its tail kernel by the row's
# place in its thread's share. A full block splits on the 4-row grid over 1,
# 2, 4 or 8 threads, so on one thread every row takes the path it takes in one
# full pass; on more, rows at the thread split of a partial block (or of the
# full pass) can differ from it in the last bit
SCORE_BLOCK = 8192
# rows per gather of a later endpoint's block in the head's first layer; the
# gathered rows are added one by one, so the sums do not depend on it
GATHER_ROWS = 1024


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


class Workspace:
    """The arrays of one training run by role, written again every epoch.

    `take(role, shape, dtype)` views the role's bytes as an array of that
    shape, allocating them on first use and enlarging them when a use needs
    more, so from the second epoch on every array lands where the previous
    epoch's was. Roles whose arrays are never alive at once share bytes
    (see the module docstring).

    A training forward sets `awaiting_backward` and the backward of its
    head cache clears it; while it is set, `take` raises ChainriskError:
    reusing the buffers would overwrite what the backward reads. (A flag,
    not the cache, since the cache refers to the workspace: a cycle would
    keep every buffer alive until the garbage collector ran.)
    """

    def __init__(self):
        self._bytes = {}
        self.awaiting_backward = False

    def take(self, role, shape, dtype=np.float64):
        if self.awaiting_backward:
            raise ChainriskError("a training forward's cache has not fed its backward yet, "
                                 "so its workspace cannot be reused")
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        raw = self._bytes.get(role)
        if raw is None or raw.size < nbytes:
            raw = self._bytes[role] = np.empty(nbytes, dtype=np.uint8)
        return raw[:nbytes].view(dtype).reshape(shape)


def _take(ws, role, shape, dtype=np.float64):
    """The workspace's array for `role`, or None (numpy allocates) without a workspace."""
    return None if ws is None else ws.take(role, shape, dtype)


def gcn_forward(adj, X, params, dropout_rate=0.0, rng=None, training=False, propagated=None, ws=None,
                rows=None):
    """Run the encoder; returns (embeddings, cache for backward).

    Every relu is applied in place; a scoring-only forward (training=False)
    keeps no cache. `propagated`, if given, must be `spmm(adj, X)`; the
    first layer uses it in place of its own product whenever it applies no
    dropout. `ws`, a Workspace, supplies every array the pass writes.
    `rows`, an `ExampleRows` of a scoring-only forward, limits the last
    layer to its nodes, whose embeddings come back in their order.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] != adj.num_nodes:
        raise InvalidArgument(f"X has {X.shape[0]} rows for {adj.num_nodes} nodes")
    if X.shape[1] != params.weights[0].shape[0]:
        raise InvalidArgument(
            f"X width {X.shape[1]} does not match W0 input {params.weights[0].shape[0]}"
        )
    if propagated is not None and np.shape(propagated) != X.shape:
        raise InvalidArgument(f"propagated features have shape {np.shape(propagated)}, X has {X.shape}")
    drops = training and dropout_rate > 0.0
    every = (adj.num_nodes, slice(None), adj)
    H = X
    layers = []
    for l, W in enumerate(params.weights):
        # layers before the last run on every node; the last runs on `rows`
        n, nodes, op = (rows.size, rows.nodes, rows.op) if rows is not None and l == params.num_layers - 1 else every
        # the dropped input is spent once S is formed, so it takes Z's bytes
        out = (_take(ws, ("Z", l), H.shape), _take(ws, ("mask", l), H.shape, bool)) if drops else (None, None)
        D, mask = dropout(H, dropout_rate, rng, training, out=out)
        if l == 0 and mask is None and propagated is not None:
            S = propagated[nodes]
        else:
            S = spmm(op, D, out=_take(ws, ("S", l), (n, D.shape[1])), work=_take(ws, "spare", (n + 1, D.shape[1])))
        Z = np.matmul(S, W, out=_take(ws, ("Z", l), (n, W.shape[1])))
        H = relu(Z, out=Z)
        if training:
            layers.append({"S": S, "H": H, "mask": mask})
    cache = {"adj": adj, "layers": layers, "rate": dropout_rate, "ws": ws} if training else None
    return H, cache


def gcn_backward(dQ, cache, params):
    """Gradients of the encoder weights given d(loss)/d(embeddings).

    The layers leave the cache, whose workspace arrays the backward
    overwrites, so the cache feeds one backward and a second call raises
    ChainriskError. `dQ`, if a float64 array, is overwritten too: the last
    layer's relu gradient is written into it.
    """
    if cache is None or "layers" not in cache:
        raise ChainriskError("missing forward cache")
    adj, rate, ws, layers = cache["adj"], cache["rate"], cache["ws"], cache.pop("layers")
    grads = [None] * params.num_layers
    upstream = np.asarray(dQ, dtype=np.float64)
    for l in range(params.num_layers - 1, -1, -1):
        layer = layers[l]
        # H > 0 wherever Z > 0, so the relu gradient reads the kept H
        dZ = relu_grad(upstream, layer["H"], out=upstream)
        grads[l] = layer["S"].T @ dZ
        if l > 0:
            W = params.weights[l]
            dS = np.matmul(dZ, W.T, out=_take(ws, ("Z", l), (adj.num_nodes, W.shape[0])))
            dD = spmm(adj, dS, out=_take(ws, ("S", l), dS.shape),
                      work=_take(ws, "spare", (adj.num_nodes + 1, dS.shape[1])))
            upstream = dropout_grad(dD, layer["mask"], rate, out=dD)
    return grads


def _first_layer(blocks, examples, bias, out=None, buf=None):
    """Z = (Q W0[0:d])[e1] + ... + (Q W0[(k-1)d:kd])[ek] + b0 for rows of endpoint ids.

    Later endpoint blocks are gathered GATHER_ROWS rows at a time into one
    reused buffer (`buf`, allocated if not given), so besides Z (`out`) the
    pass holds one block of rows.
    """
    # ids were range-checked by the caller, so take need not check them
    Z = np.take(blocks[0], examples[:, 0], axis=0, out=out, mode="clip")
    if len(blocks) > 1 and buf is None:
        buf = np.empty((min(GATHER_ROWS, Z.shape[0]), Z.shape[1]))
    for j in range(1, len(blocks)):
        for start in range(0, Z.shape[0], GATHER_ROWS):
            ids = examples[start:start + GATHER_ROWS, j]
            Z[start:start + ids.size] += np.take(blocks[j], ids, axis=0, out=buf[: ids.size], mode="clip")
    Z += bias
    return Z


def _head_logits(Q, examples, head, dropout_rate, rng, training, ws=None, position=None):
    """Score rows of k endpoint ids from [q_e1 ; ... ; q_ek], factored per endpoint.

    The first layer runs once over the node rows of Q. A training forward
    returns the cache `head_backward` needs; a scoring-only one returns
    None for it and works through SCORE_BLOCK rows at a time, each block's
    ids taken through `position` (node id -> row of Q) when given.
    """
    n, d = Q.shape
    W0, W1 = head.weights
    b0, b1 = head.biases
    width = W0.shape[1]
    blocks = [np.matmul(Q, W0[j * d:(j + 1) * d], out=_take(ws, ("block", j), (n, width)))
              for j in range(examples.shape[1])]
    if not training:
        logits = np.empty(examples.shape[0])
        for start in range(0, examples.shape[0], SCORE_BLOCK):
            part = examples[start:start + SCORE_BLOCK]
            if position is not None:
                part = position[part]
            Z = _first_layer(blocks, part, b0, out=_take(ws, "rows", (len(part), width)),
                             buf=_take(ws, "spare", (min(GATHER_ROWS, len(part)), width)))
            np.maximum(Z, 0.0, out=Z)
            logits[start:start + Z.shape[0]] = (Z @ W1 + b1).reshape(-1)
        return logits, None
    rows = examples.shape[0]
    Z = _first_layer(blocks, examples, b0, out=_take(ws, "rows", (rows, width)),
                     buf=_take(ws, "spare", (min(GATHER_ROWS, rows), width)))
    keep = np.greater(Z, 0.0, out=_take(ws, "spare", Z.shape, bool))
    mask = dropout_mask(Z.shape, dropout_rate, rng, training, out=_take(ws, ("block", 0), Z.shape, bool))
    if mask is not None:
        keep &= mask
    rate = 0.0 if mask is None else dropout_rate
    H = np.multiply(Z, keep, out=Z)  # backward needs only the mask, so H takes Z's buffer
    if rate:
        H /= 1.0 - rate
    logits = (H @ W1 + b1).reshape(-1)
    if ws is not None:
        ws.awaiting_backward = True
    return logits, {"Q": Q, "examples": examples, "H": H, "keep": keep, "rate": rate, "ws": ws}


def _ids(examples, Q, position):
    """`examples` checked against the ids `position` maps (the rows of Q without one)."""
    return check_ids(examples, Q.shape[0] if position is None else position.size)


def pair_logits(Q, pairs, head, dropout_rate=0.0, rng=None, training=False, ws=None, position=None):
    """Score node pairs from concatenated embeddings [q_u ; q_v]; `position`,
    if given, maps node ids to rows of Q (a scoring-only pass)."""
    pairs = _ids(pairs, Q, position).reshape(-1, 2)
    return _head_logits(Q, pairs, head, dropout_rate, rng, training, ws, position)


def node_logits(Q, nodes, head, dropout_rate=0.0, rng=None, training=False, ws=None, position=None):
    """Score single nodes from their embeddings; `position` as in `pair_logits`."""
    nodes = _ids(nodes, Q, position).reshape(-1, 1)
    return _head_logits(Q, nodes, head, dropout_rate, rng, training, ws, position)


def head_backward(dlogits, cache, head, plans=None):
    """Head gradients plus the gradient scattered back onto embeddings.

    The W1 gradient H^T dlogits comes first; dZ is then built in H's
    buffer and the keep-mask leaves the cache, so the cache feeds exactly
    one backward and a second call raises ChainriskError (the cache's "H"
    holds dZ from then on). dZ is scattered once per endpoint column,
    through `plans` (from `scatter_plans` on the same examples) or through
    plans built here; the W0 blocks and dQ follow on node rows. Needs the
    cache of a training forward; the arrays it writes come from that
    forward's workspace, if it had one.
    """
    if cache is None or "keep" not in cache:
        raise ChainriskError("missing forward cache (backward needs a training-mode forward, "
                             "and each forward feeds one backward)")
    W0, W1 = head.weights
    Q, examples = cache["Q"], cache["examples"]
    n, d = Q.shape
    dlogits = np.asarray(dlogits, dtype=np.float64).reshape(-1, 1)
    keep, H, ws = cache.pop("keep"), cache["H"], cache["ws"]
    if ws is not None:
        ws.awaiting_backward = False
    w1_grad = H.T @ dlogits
    # the outer product, each element one multiply; np.multiply broadcasts it one short row at a time
    dZ = np.einsum("i,j->ij", dlogits[:, 0], W1[:, 0], out=H)
    dZ *= keep
    if cache["rate"]:
        dZ /= 1.0 - cache["rate"]
    if plans is None:
        plans = scatter_plans(examples, n)
    width = dZ.shape[1]
    work = _take(ws, "spare", (n + 1, width))
    scattered = [plan.apply(dZ, out=_take(ws, ("block", j), (n, width)), work=work)
                 for j, plan in enumerate(plans)]
    # the W0 gradient reads every endpoint's rows, so it comes before dQ, whose
    # product for endpoint j takes the spent rows of endpoint j - 1
    w_grads = [np.vstack([Q.T @ S for S in scattered]), w1_grad]
    dQ = np.matmul(scattered[0], W0[:d].T, out=_take(ws, "spare", (n, d)))
    for j in range(1, len(scattered)):
        dQ += np.matmul(scattered[j], W0[j * d:(j + 1) * d].T, out=_take(ws, ("block", j - 1), (n, d)))
    b_grads = [dZ.sum(axis=0), dlogits.sum(axis=0)]
    return w_grads, b_grads, dQ


@dataclass
class ExampleRows:
    """The node rows a scoring pass over some examples reaches (`example_rows`)."""

    nodes: object  # the sorted reached ids, or slice(None) for every node
    op: object  # the adjacency's rows `nodes` (`NormalizedAdjacency.rows`), or the adjacency
    size: int  # the number of rows
    ids: np.ndarray  # the examples as range-checked int64 node ids
    position: np.ndarray = None  # n entries: each reached id's place in `nodes`; None for every node


def example_rows(adj, examples):
    """The `ExampleRows` of `examples` (pairs or node ids) on `adj`.

    A flag array over the n nodes and its cumulative sum give the sorted
    reached ids and each id's position among them. Fewer than two reached
    nodes count as every node, since numpy sends a one-row product to gemv,
    whose sums differ from gemm's; a set that reaches every node is every
    node too, so its pass copies no rows.
    """
    n = adj.num_nodes
    ids = check_ids(examples, n)
    reached = np.zeros(n, dtype=bool)
    reached[ids] = True
    size = int(np.count_nonzero(reached))
    if size < 2 or size == n:
        return ExampleRows(slice(None), adj, n, ids)
    nodes = np.flatnonzero(reached)
    return ExampleRows(nodes, adj.rows(nodes), size, ids, np.cumsum(reached) - 1)


def score_examples(model, adj, X, examples, dropout_rate=0.0, rng=None, training=False, propagated=None,
                   ws=None, rows=None):
    """Full forward pass: encoder then the model's head on `examples`.

    Returns (logits, caches). Only a training forward's caches can go to
    `backward`, and only once; at dropout_rate 0 it draws nothing from `rng`.
    `propagated` is `spmm(adj, X)` if the caller holds it. With a Workspace
    `ws` the pass, and the backward of its caches, write into the arrays of
    the previous pass that used it.

    A scoring-only pass (training=False) runs the last encoder layer and
    the head on the nodes the examples reach only, through their
    `ExampleRows`: `rows` if the caller holds `example_rows(adj, examples)`,
    else one built here; the head renumbers the examples one SCORE_BLOCK at
    a time through its position table. In a GEMM of two or more rows each
    output row depends on its input row alone, and each sparse row sums its
    entries in the same order, so the logits equal those of a pass over
    every node bit for bit.
    """
    if training:
        rows = position = None
    else:
        rows = example_rows(adj, examples) if rows is None else rows
        if rows.ids.shape != np.shape(examples):
            raise InvalidArgument(f"rows are for examples of shape {rows.ids.shape}, got {np.shape(examples)}")
        examples, position = rows.ids, rows.position
    Q, gcn_cache = gcn_forward(adj, X, model.gcn, dropout_rate, rng, training, propagated, ws=ws, rows=rows)
    logits_of = pair_logits if model.task == "pair" else node_logits
    logits, head_cache = logits_of(Q, examples, model.head, dropout_rate, rng, training, ws=ws, position=position)
    return logits, (gcn_cache, head_cache)


def backward(model, dlogits, caches, plans=None):
    """Gradients for all parameters, aligned with model.parameters().

    `plans` are the head's scatter plans for the scored examples, if the
    caller keeps them. The head cache is consumed (see `head_backward`).
    """
    gcn_cache, head_cache = caches
    w_grads, b_grads, dQ = head_backward(dlogits, head_cache, model.head, plans)
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
