"""chainrisk: a two-stage GCN engine for SME credit risk.

Stage 1 mines latent supply-chain links by classifying node pairs over GCN
embeddings; stage 2 predicts loan defaults on the link-enriched graph. The
sparse kernels, backpropagation, metrics, and the calibrated synthetic
data generator are all implemented here from first principles.
"""

from .errors import (
    ChainriskError,
    CheckpointVersionError,
    InvalidArgument,
    InvalidConfig,
    InvalidInput,
    NoViableConfig,
    TrainingDivergence,
    UndefinedMetric,
)
from .graph import EnrichedGraph, SmeGraph, enrich, normalize_adjacency, spmm
from .metrics import EvalReport, auc, ks, roc_points
from .model import load_checkpoint, save_checkpoint, score_examples
from .pipeline import (
    GridSpec,
    LabeledSet,
    TaskData,
    TrainConfig,
    candidate_pairs,
    grid_search,
    run_stage1_mining,
    run_stage2_default,
    sample_negatives,
    stratified_split,
    train_task,
)
from .synthgen import (
    GenConfig,
    GroundTruth,
    attribute_availability,
    generate,
    null_preset,
    paper_calibrated,
    partner_default_curve,
)

__version__ = "0.1.0"
