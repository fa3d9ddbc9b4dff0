"""End-to-end two-stage procedure: train the link miner, enrich the graph,
then train the default predictor on the enriched view.

Training is full batch (desk-scale graphs fit in memory) with Adam, early
stopping on validation loss, and optional grid search over learning rate,
dropout, and depth. Identical (data, config, seed) triples reproduce
bit-identical traces, mined edges, and reports.
"""

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, fields, replace
from functools import cached_property
from itertools import product

import numpy as np

from . import rng as rng_streams
from .errors import (
    InvalidArgument,
    InvalidConfig,
    InvalidInput,
    NoViableConfig,
    TrainingDivergence,
)
from .graph import (
    EnrichedGraph,
    check_ids,
    enrich,
    in_sorted,
    normalize_adjacency,
    sample_pair_keys,
    scatter_plans,
    sorted_unique,
    spmm,
    standardize_columns,
)
from .metrics import EvalReport, auc
from .model import Workspace, backward, init_classifier, score_examples
from .nn import AdamState, adam_step, bce_logit_grad, bce_loss, sigmoid
from .rng import make_rng

TRAIN, VAL, TEST = 0, 1, 2
SPLIT_NAMES = {TRAIN: "train", VAL: "val", TEST: "test"}

# validation loss must improve by more than this to reset the patience clock
MIN_IMPROVEMENT = 1e-6


@dataclass
class LabeledSet:
    """Supervised examples with 0/1 labels and split tags.

    `examples` is an (n, 2) array of node pairs (u < v) for pair tasks or a
    1-d array of node ids for node tasks; `kind` follows its rank.
    """

    examples: np.ndarray
    labels: np.ndarray
    split: np.ndarray

    @property
    def kind(self):
        return "pair" if np.ndim(self.examples) == 2 else "node"

    def validate(self):
        examples = np.asarray(self.examples)
        if self.kind == "pair" and examples.shape[1] != 2:
            raise InvalidInput("pairs must be an (n, 2) array")
        bad = first_invalid_example(examples)
        if bad is not None:
            raise InvalidInput(f"example {bad[0]}: {bad[1]}")
        _validate_labels_and_split(self.labels, self.split, examples.shape[0])


def first_invalid_example(examples):
    """(row, reason) of the first example a LabeledSet rejects, or None.

    `examples` holds node ids (1-d) or pairs ((n, 2)). The first pair not in
    canonical order u < v is reported; failing that, the first node or pair
    equal to an earlier one.
    """
    examples = np.asarray(examples)
    keys = examples
    if examples.ndim == 2:
        bad = np.flatnonzero(examples[:, 0] >= examples[:, 1])
        if bad.size:
            u, v = examples[bad[0]]
            return int(bad[0]), f"pair ({u}, {v}) is not in canonical order u < v"
        keys = examples[:, 0] * (examples.max(initial=0) + 1) + examples[:, 1]
    order = np.argsort(keys, kind="stable")
    repeats = order[1:][keys[order[1:]] == keys[order[:-1]]]  # each later row of an equal run
    if not repeats.size:
        return None
    row = int(repeats.min())
    what = f"pair ({examples[row, 0]}, {examples[row, 1]})" if examples.ndim == 2 else f"node {examples[row]}"
    return row, f"duplicate {what}"


def _validate_labels_and_split(labels, split, n):
    labels = np.asarray(labels)
    split = np.asarray(split)
    if labels.shape != (n,) or split.shape != (n,):
        raise InvalidInput("labels and split must align with the entries")
    if not np.all(np.isin(labels, (0, 1))):
        raise InvalidInput("labels must be 0 or 1")
    for tag in (TRAIN, VAL, TEST):
        part = labels[split == tag]
        if part.size == 0 or part.min() == part.max():
            raise InvalidInput(f"split {SPLIT_NAMES[tag]} must contain both classes")


@dataclass
class TrainConfig:
    """One training cell plus the shared protocol knobs."""

    learning_rate: float = 0.01
    dropout: float = 0.1
    num_layers: int = 2
    weight_decay: float = 1e-4
    max_epochs: int = 200
    patience: int = 20
    seed: int = 0
    tau: float = 0.9
    neg_ratio: float = 1.0
    candidate_hops: int = 3
    hidden_dim: int = 64
    embed_dim: int = 32
    head_hidden: int = 32

    def validate(self):
        if self.learning_rate < 0:
            raise InvalidConfig("learning_rate must be >= 0")
        if not 0.0 <= self.dropout < 1.0:
            raise InvalidConfig("dropout must be in [0, 1)")
        if self.num_layers not in (1, 2, 3):
            raise InvalidConfig("num_layers must be 1, 2, or 3")
        if self.max_epochs < 1 or not 1 <= self.patience < self.max_epochs:
            raise InvalidConfig("need 1 <= patience < max_epochs")
        if not 0.0 <= self.tau <= 1.0:
            raise InvalidConfig("tau must be in [0, 1]")
        if self.neg_ratio <= 0:
            raise InvalidConfig("neg_ratio must be positive")
        if self.candidate_hops not in (2, 3, 4):
            raise InvalidConfig("candidate_hops must be 2, 3, or 4")
        if min(self.hidden_dim, self.embed_dim, self.head_hidden) < 1:
            raise InvalidConfig("model widths must be positive")
        if self.seed < 0:
            raise InvalidConfig("seed must be non-negative")
        return self

    def to_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d):
        return cls(**config_fields(cls, d, "training")).validate()


def _finite_number(value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int past the float range
        return False


def config_fields(cls, raw, what):
    """Keyword arguments for the config dataclass `cls` from a parsed JSON value.

    `raw` must be an object whose keys are fields of `cls`, including every
    field without a default. Each value must match its field's type: int
    fields take ints, float fields take finite ints or floats, and tuple
    fields take lists of those, passed on as tuples; a bool is never a
    number. Raises InvalidConfig naming the key.
    """
    if not isinstance(raw, dict):
        raise InvalidConfig(f"{what} config must be a JSON object, got {type(raw).__name__}")
    types = {f.name: f.type for f in fields(cls)}
    unknown = set(raw) - set(types)
    if unknown:
        raise InvalidConfig(f"unknown {what} config keys: {sorted(unknown)}")
    for f in fields(cls):
        if f.default is MISSING and f.name not in raw:
            raise InvalidConfig(f"{what} config requires {f.name}")
    kwargs = {}
    for key, value in raw.items():
        kind = types[key]
        if kind is int:
            ok = isinstance(value, int) and not isinstance(value, bool)
        elif kind is float:
            ok = _finite_number(value)
        else:
            ok = isinstance(value, list) and all(_finite_number(x) for x in value)
            value = tuple(value) if ok else value
        if not ok:
            expected = {int: "an integer", float: "a finite number"}.get(kind, "a list of finite numbers")
            raise InvalidConfig(f"{what} config key {key!r} must be {expected}, got {json.dumps(value)}")
        kwargs[key] = value
    return kwargs


@dataclass
class GridSpec:
    """Hyperparameter grid for `grid_search`."""

    learning_rates: tuple = (0.001, 0.005, 0.01)
    dropouts: tuple = (0.1, 0.3, 0.5)
    layer_counts: tuple = (1, 2, 3)

    def validate(self):
        if not (self.learning_rates and self.dropouts and self.layer_counts):
            raise InvalidConfig("every grid axis must be non-empty")
        return self

    def cells(self):
        return list(product(self.learning_rates, self.dropouts, self.layer_counts))


def stratified_split(labels, fractions=(0.70, 0.15, 0.15), seed=0):
    """Per-class train/val/test tags; proportions hold within one example.

    Counts come from largest-remainder rounding per class; when a fraction
    rounds a tiny class to zero, one example is moved from that class's
    largest block so every split keeps both classes.
    """
    labels = np.asarray(labels)
    fractions = tuple(float(f) for f in fractions)
    if len(fractions) != 3 or min(fractions) <= 0 or abs(sum(fractions) - 1.0) > 1e-9:
        raise InvalidArgument("fractions must be three positive values summing to 1")
    classes, counts = np.unique(labels, return_counts=True)
    if np.any(counts < 3):
        raise InvalidInput("every class needs at least 3 examples to split")
    gen = make_rng(seed, rng_streams.SPLIT)
    out = np.empty(labels.size, dtype=np.int8)
    for cls in classes:
        idx = np.flatnonzero(labels == cls)
        gen.shuffle(idx)
        alloc = _largest_remainder(idx.size, fractions)
        start = 0
        for tag, k in zip((TRAIN, VAL, TEST), alloc):
            out[idx[start:start + k]] = tag
            start += k
    return out


def _largest_remainder(n, fractions):
    raw = [f * n for f in fractions]
    alloc = [int(math.floor(r)) for r in raw]
    leftovers = np.argsort([-(r - a) for r, a in zip(raw, alloc)], kind="stable")
    for i in range(n - sum(alloc)):
        alloc[leftovers[i]] += 1
    while min(alloc) == 0:
        alloc[alloc.index(0)] += 1
        alloc[int(np.argmax(alloc))] -= 1
    return alloc


def sample_negatives(g, positives, ratio, seed, nodes=None):
    """Uniform non-edge, non-positive pairs in canonical order.

    Draws round(ratio * |positives|) distinct pairs among `nodes` (all nodes
    by default). Raises when the graph is too dense to supply that many.
    """
    if ratio <= 0:
        raise InvalidArgument("ratio must be positive")
    positives = np.asarray(positives, dtype=np.int64).reshape(-1, 2)
    count = int(round(ratio * positives.shape[0]))
    n = g.num_nodes
    nodes = np.arange(n) if nodes is None else np.asarray(nodes, dtype=np.int64)
    allowed = np.zeros(n, dtype=bool)
    allowed[nodes] = True
    edges = g.edge_keys()
    lo = np.minimum(positives[:, 0], positives[:, 1])
    hi = np.maximum(positives[:, 0], positives[:, 1])
    forbidden = sorted_unique(np.concatenate([
        edges[allowed[edges // n] & allowed[edges % n]],
        (lo * n + hi)[allowed[lo] & allowed[hi]],
    ]))
    possible = nodes.size * (nodes.size - 1) // 2 - forbidden.size
    if count > possible:
        raise InvalidInput(
            f"requested {count} negatives but only {possible} non-edge pairs exist"
        )
    gen = make_rng(seed, rng_streams.NEGATIVES)
    if possible <= 4 * count:
        # every allowed non-edge, in the order of the pairs (nodes[i], nodes[j]), i < j
        iu, iv = np.triu_indices(nodes.size, k=1)
        u, v = nodes[iu], nodes[iv]
        pool = np.minimum(u, v) * n + np.maximum(u, v)
        pool = pool[~in_sorted(pool, forbidden)]
        keys = np.sort(pool[gen.choice(pool.size, size=count, replace=False)])
    else:
        keys = sample_pair_keys(gen, n, count, forbidden, lambda need: 2 * need, nodes=nodes)
    return np.column_stack([keys // n, keys % n])


def prepare_features(X):
    """Standardize columns and append a constant-one column.

    Encoder layers have no bias term; the appended one also lets degree leak
    into the aggregation, which node scoring relies on.
    """
    X = standardize_columns(X)
    return np.hstack([X, np.ones((X.shape[0], 1))])


@dataclass(frozen=True)
class TaskData:
    """Everything one training run needs, already in tensor form.

    Frozen, and X is made read-only, so `propagated` cannot go stale.
    """

    adj: object
    X: np.ndarray
    examples: np.ndarray
    labels: np.ndarray
    split: np.ndarray
    kind: str

    def __post_init__(self):
        self.X.flags.writeable = False

    @cached_property
    def propagated(self):
        """spmm(adj, X), computed on first use and shared by every pass whose
        first encoder layer applies no dropout (read-only)."""
        product = spmm(self.adj, self.X)
        product.flags.writeable = False
        return product

    @classmethod
    def build(cls, g_view, labeled):
        """Normalized adjacency, prepared features and the examples of a LabeledSet."""
        labeled.validate()
        return cls(
            adj=normalize_adjacency(g_view),
            X=prepare_features(g_view.node_features),
            examples=np.asarray(labeled.examples, dtype=np.int64),
            labels=np.asarray(labeled.labels, dtype=np.float64),
            split=np.asarray(labeled.split),
            kind=labeled.kind,
        )

    # perfbench/workloads.py still calls this name; the next benchmark change can move it to `build`
    for_pairs = build


@dataclass
class TrainResult:
    model: object
    trace: list
    best_epoch: int
    best_val_loss: float


def train_task(data, config):
    """Full-batch training with early stopping on validation loss.

    Stops once `patience` consecutive epochs fail to improve the best
    validation loss by more than 1e-6, and restores the best epoch's
    parameters. The trace records train and validation loss per epoch.
    """
    config.validate()
    tr = data.split == TRAIN
    va = data.split == VAL
    if not tr.any() or not va.any():
        raise InvalidInput("train and validation splits must be non-empty")
    y_tr = data.labels[tr]
    y_va = data.labels[va]
    ex_tr = data.examples[tr]
    ex_va = data.examples[va]
    plans = scatter_plans(ex_tr, data.adj.num_nodes)

    model = init_classifier(
        data.kind,
        data.X.shape[1],
        config.num_layers,
        config.hidden_dim,
        config.embed_dim,
        config.head_hidden,
        make_rng(config.seed, rng_streams.INIT),
    )
    params = model.parameters()
    state = AdamState(params)
    drop_rng = make_rng(config.seed, rng_streams.DROPOUT)
    ws = Workspace()

    trace = []
    best_val = np.inf
    best_params = None
    best_epoch = 0
    stagnant = 0
    for epoch in range(1, config.max_epochs + 1):
        logits, caches = score_examples(
            model, data.adj, data.X, ex_tr, config.dropout, drop_rng, training=True, propagated=data.propagated, ws=ws
        )
        probs = sigmoid(logits)
        train_loss = bce_loss(probs, y_tr)
        if not np.isfinite(train_loss):
            raise TrainingDivergence(f"non-finite training loss at epoch {epoch}", epoch=epoch)
        grads = backward(model, bce_logit_grad(probs, y_tr), caches, plans)
        try:
            adam_step(params, grads, state, config.learning_rate, config.weight_decay)
        except TrainingDivergence as err:
            raise TrainingDivergence(str(err), epoch=epoch) from None

        val_logits, _ = score_examples(model, data.adj, data.X, ex_va, propagated=data.propagated, ws=ws)
        val_loss = bce_loss(sigmoid(val_logits), y_va)
        if not np.isfinite(val_loss):
            raise TrainingDivergence(f"non-finite validation loss at epoch {epoch}", epoch=epoch)
        trace.append({"epoch": epoch, "train_loss": train_loss, "val_loss": val_loss})

        if val_loss < best_val - MIN_IMPROVEMENT:
            best_val = val_loss
            best_epoch = epoch
            best_params = model.copy_parameters()
            stagnant = 0
        else:
            stagnant += 1
            if stagnant >= config.patience:
                break

    if best_params is not None:
        model.load_parameters(best_params)
    return TrainResult(model=model, trace=trace, best_epoch=best_epoch, best_val_loss=float(best_val))


def evaluate_model(model, data):
    """Probabilities for every labeled example plus one report per split."""
    logits, _ = score_examples(model, data.adj, data.X, data.examples, propagated=data.propagated)
    probs = sigmoid(logits)
    reports = {}
    for tag, name in SPLIT_NAMES.items():
        m = data.split == tag
        reports[name] = EvalReport.from_scores(probs[m], data.labels[m].astype(int), name)
    return probs, reports


@dataclass
class GridSearchResult:
    best_config: TrainConfig
    table: list


def grid_search(grid, data, config, max_workers=1):
    """Train one model per grid cell and keep the best validation AUC.

    Ties break toward lower learning rate, then fewer layers, then lower
    dropout. Cells that diverge are recorded and skipped; if every cell
    diverges the search fails.
    """
    grid.validate()
    cells = grid.cells()

    def run_cell(cell):
        lr, dr, layers = cell
        cfg = replace(config, learning_rate=lr, dropout=dr, num_layers=layers)
        row = {"learning_rate": lr, "dropout": dr, "num_layers": layers}
        try:
            result = train_task(data, cfg)
            va = data.split == VAL
            logits, _ = score_examples(result.model, data.adj, data.X, data.examples[va], propagated=data.propagated)
            row["val_auc"] = auc(sigmoid(logits), data.labels[va].astype(int))
            row["best_epoch"] = result.best_epoch
            row["status"] = "ok"
        except TrainingDivergence as err:
            row["val_auc"] = None
            row["best_epoch"] = None
            row["status"] = f"diverged at epoch {err.epoch}"
        return row

    if max_workers > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            table = list(pool.map(run_cell, cells))
    else:
        table = [run_cell(c) for c in cells]

    viable = [r for r in table if r["status"] == "ok"]
    if not viable:
        raise NoViableConfig("every grid cell diverged")
    best = min(
        viable,
        key=lambda r: (-r["val_auc"], r["learning_rate"], r["num_layers"], r["dropout"]),
    )
    best_config = replace(
        config,
        learning_rate=best["learning_rate"],
        dropout=best["dropout"],
        num_layers=best["num_layers"],
    )
    return GridSearchResult(best_config=best_config, table=table)


# SME sources per frontier join in `candidate_pairs`; keys are `src * n + node`, so
# the blocks' pairs are disjoint and the result does not depend on it
CANDIDATE_SOURCES = 8192


def candidate_pairs(g, extra_pairs=None, max_hops=3):
    """SME non-edges within `max_hops` hops, plus any extra labeled pairs.

    Bounding candidates to a small neighborhood radius keeps scoring far
    below the all-pairs quadratic blowup. Three hops is the useful default:
    in a tiered supply graph an unobserved cross-tier link sits at odd
    distance, so a 2-hop ball would contain none of them. Extra pairs
    (typically the held-out test pairs) are merged in after the same
    observed-edge and kind filters.

    The search is a breadth-first frontier join on the CSR adjacency, run
    for CANDIDATE_SOURCES sources at once on `src * n + node` keys; paths
    may pass through nodes of any kind. Its cost is proportional to the
    summed `max_hops`-ball sizes of the sources, not to n², and its memory
    to those of one block of sources.
    """
    if max_hops not in (2, 3, 4):
        raise InvalidArgument("max_hops must be 2, 3, or 4")
    n = g.num_nodes
    allowed = g.node_kind == "sme"
    sources = np.flatnonzero(allowed)
    chunks = [np.zeros(0, dtype=np.int64)]
    for first in range(0, sources.size, CANDIDATE_SOURCES):
        block = sources[first:first + CANDIDATE_SOURCES]
        # level h holds the sorted keys of every (source, node) pair at distance h;
        # a neighbour of a node at distance h lies at distance h - 1, h or h + 1,
        # so a new level only has to be checked against the last two
        prev = np.zeros(0, dtype=np.int64)
        level = block * n + block
        for hop in range(1, max_hops + 1):
            src, node = np.divmod(level, n)
            deg = g.indptr[node + 1] - g.indptr[node]
            # flat CSR positions of every frontier node's row, concatenated
            offsets = np.arange(deg.sum()) - np.repeat(np.cumsum(deg) - deg - g.indptr[node], deg)
            reached = sorted_unique(np.repeat(src, deg) * n + g.indices[offsets])
            prev, level = level, reached[~(in_sorted(reached, prev) | in_sorted(reached, level))]
            if hop >= 2:  # distance 1 is an observed edge
                u, v = np.divmod(level, n)
                chunks.append(level[(u < v) & allowed[v]])
    if extra_pairs is not None and len(extra_pairs):
        extra = check_ids(extra_pairs, n).reshape(-1, 2)
        lo = np.minimum(extra[:, 0], extra[:, 1])
        hi = np.maximum(extra[:, 0], extra[:, 1])
        keys = lo * n + hi
        keep = (lo != hi) & allowed[lo] & allowed[hi] & ~in_sorted(keys, g.edge_keys())
        chunks.append(keys[keep])
    keys = sorted_unique(np.concatenate(chunks))
    return np.column_stack([keys // n, keys % n])


@dataclass
class StageResult:
    model: object
    reports: dict
    trace: list
    best_epoch: int
    scores: np.ndarray = None
    enriched: EnrichedGraph = None
    candidate_count: int = 0


def run_stage1_mining(g, pair_set, config):
    """Train the pair scorer, then score candidates and enrich the graph.

    The enrichment combines two sources: the labeled positive pairs from
    the train and validation folds, which are known links and enter with
    score 1.0, and model-scored candidates at or above tau. Held-out test
    positives are never injected; they reach the graph only if the model
    scores them highly on its own. Metrics come from the held-out labeled
    pairs only; mined (unlabeled) pairs never enter the reports.
    """
    config.validate()
    data = TaskData.build(g, pair_set)
    result = train_task(data, config)
    _, reports = evaluate_model(result.model, data)

    test_pairs = data.examples[data.split == TEST]
    cands = candidate_pairs(g, extra_pairs=test_pairs, max_hops=config.candidate_hops)
    probs = np.zeros(0)
    if cands.shape[0]:
        logits, _ = score_examples(result.model, data.adj, data.X, cands, propagated=data.propagated)
        probs = sigmoid(logits)
    known = data.examples[(data.labels == 1) & (data.split != TEST)]
    mined = (np.vstack([cands, known]), np.concatenate([probs, np.ones(known.shape[0])]))
    enriched = enrich(g, mined, config.tau)
    return StageResult(
        model=result.model,
        reports=reports,
        trace=result.trace,
        best_epoch=result.best_epoch,
        enriched=enriched,
        candidate_count=int(cands.shape[0]),
    )


def run_stage2_default(g_sc, node_set, config):
    """Train a fresh node scorer on the enriched view; emit every node's score."""
    config.validate()
    g_view = g_sc.graph() if isinstance(g_sc, EnrichedGraph) else g_sc
    data = TaskData.build(g_view, node_set)
    result = train_task(data, config)
    _, reports = evaluate_model(result.model, data)
    all_logits, _ = score_examples(result.model, data.adj, data.X, np.arange(g_view.num_nodes),
                                   propagated=data.propagated)
    return StageResult(
        model=result.model,
        reports=reports,
        trace=result.trace,
        best_epoch=result.best_epoch,
        scores=sigmoid(all_logits),
    )
