"""End-to-end two-stage procedure: train the link miner, enrich the graph,
then train the default predictor on the enriched view.

Training is full batch (desk-scale graphs fit in memory) with Adam, early
stopping on validation loss, and optional grid search over learning rate,
dropout, and depth. Identical (data, config, seed) triples reproduce
bit-identical traces, mined edges, and reports. The labeled sets and their
splits come from `labels`, candidate search from `graph`.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from functools import cached_property
from itertools import product

import numpy as np

from .errors import (
    InvalidConfig,
    InvalidInput,
    NoViableConfig,
    TrainingDivergence,
)
from .graph import (
    EnrichedGraph,
    candidate_pairs,
    enrich,
    normalize_adjacency,
    prepare_features,
    scatter_plans,
    spmm,
)
from .labels import SPLIT_NAMES, TEST, TRAIN, VAL, config_fields
from .metrics import EvalReport, auc
from .model import Workspace, backward, example_rows, init_classifier, score_examples
from .nn import AdamState, adam_step, bce_logit_grad, bce_loss, sigmoid
from .rng import DROPOUT, INIT, make_rng

# validation loss must improve by more than this to reset the patience clock
MIN_IMPROVEMENT = 1e-6


@dataclass(frozen=True)
class TrainConfig:
    """One training cell plus the shared protocol knobs; a config that
    breaks a rule raises InvalidConfig when it is made, by `replace` too."""

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

    def __post_init__(self):
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

    def to_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d):
        return cls(**config_fields(cls, d, "training"))


@dataclass(frozen=True)
class GridSpec:
    """Hyperparameter grid for `grid_search`; every axis must be non-empty."""

    learning_rates: tuple = (0.001, 0.005, 0.01)
    dropouts: tuple = (0.1, 0.3, 0.5)
    layer_counts: tuple = (1, 2, 3)

    def __post_init__(self):
        if not (self.learning_rates and self.dropouts and self.layer_counts):
            raise InvalidConfig("every grid axis must be non-empty")

    def cells(self):
        return list(product(self.learning_rates, self.dropouts, self.layer_counts))


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
        """The graph's normalized adjacency and model inputs, which it builds
        once and keeps, and the examples of a LabeledSet, whose every split
        must hold both classes."""
        labeled.validate()
        return cls(
            adj=normalize_adjacency(g_view),
            X=prepare_features(g_view),
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


def train_task(data, config):
    """Full-batch training with early stopping on validation loss.

    Stops once `patience` consecutive epochs fail to improve the best
    validation loss by more than 1e-6, and restores the best epoch's
    parameters. The trace records train and validation loss per epoch.
    """
    tr = data.split == TRAIN
    va = data.split == VAL
    if not tr.any() or not va.any():
        raise InvalidInput("train and validation splits must be non-empty")
    y_tr = data.labels[tr]
    y_va = data.labels[va]
    ex_tr = data.examples[tr]
    ex_va = data.examples[va]
    plans = scatter_plans(ex_tr, data.adj.num_nodes)
    val_rows = example_rows(data.adj, ex_va)

    model = init_classifier(
        data.kind,
        data.X.shape[1],
        config.num_layers,
        config.hidden_dim,
        config.embed_dim,
        config.head_hidden,
        make_rng(config.seed, INIT),
    )
    params = model.parameters()
    state = AdamState(params)
    drop_rng = make_rng(config.seed, DROPOUT)
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

        val_logits, _ = score_examples(model, data.adj, data.X, ex_va, propagated=data.propagated, ws=ws,
                                       rows=val_rows)
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
    return TrainResult(model=model, trace=trace, best_epoch=best_epoch)


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
    cells = grid.cells()
    va = data.split == VAL
    ex_va, y_va = data.examples[va], data.labels[va].astype(int)
    val_rows = example_rows(data.adj, ex_va)

    def run_cell(cell):
        lr, dr, layers = cell
        cfg = replace(config, learning_rate=lr, dropout=dr, num_layers=layers)
        row = {"learning_rate": lr, "dropout": dr, "num_layers": layers}
        try:
            result = train_task(data, cfg)
            logits, _ = score_examples(result.model, data.adj, data.X, ex_va, propagated=data.propagated,
                                       rows=val_rows)
            row["val_auc"] = auc(sigmoid(logits), y_va)
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


@dataclass
class StageResult:
    model: object
    reports: dict
    trace: list
    best_epoch: int
    scores: np.ndarray = None
    enriched: EnrichedGraph = None
    candidate_count: int = 0


def _fit(view, labeled, config):
    """(data, StageResult) of one stage's common part: build the task data,
    train, and report on every split."""
    data = TaskData.build(view, labeled)
    result = train_task(data, config)
    _, reports = evaluate_model(result.model, data)
    return data, StageResult(result.model, reports, result.trace, result.best_epoch)


def run_stage1_mining(g, pair_set, config):
    """Train the pair scorer, then score candidates and enrich the graph.

    The enrichment combines two sources: the labeled positive pairs from
    the train and validation folds, which are known links and enter with
    score 1.0, and model-scored candidates at or above tau. Held-out test
    positives are never injected; they reach the graph only if the model
    scores them highly on its own. Metrics come from the held-out labeled
    pairs only; mined (unlabeled) pairs never enter the reports.
    """
    data, stage = _fit(g, pair_set, config)
    test_pairs = data.examples[data.split == TEST]
    cands = candidate_pairs(g, extra_pairs=test_pairs, max_hops=config.candidate_hops)
    probs = np.zeros(0)
    if cands.shape[0]:
        logits, _ = score_examples(stage.model, data.adj, data.X, cands, propagated=data.propagated)
        probs = sigmoid(logits)
    known = data.examples[(data.labels == 1) & (data.split != TEST)]
    mined = (np.vstack([cands, known]), np.concatenate([probs, np.ones(known.shape[0])]))
    stage.enriched = enrich(g, mined, config.tau)
    stage.candidate_count = int(cands.shape[0])
    return stage


def run_stage2_default(g_sc, node_set, config):
    """Train a fresh node scorer on the enriched view; emit every node's score."""
    g_view = g_sc.graph() if isinstance(g_sc, EnrichedGraph) else g_sc
    data, stage = _fit(g_view, node_set, config)
    all_logits, _ = score_examples(stage.model, data.adj, data.X, np.arange(g_view.num_nodes),
                                   propagated=data.propagated)
    stage.scores = sigmoid(all_logits)
    return stage
