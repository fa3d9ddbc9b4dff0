"""Labeled examples, and the config parsing the generator and the trainer share.

A `LabeledSet` holds node ids or canonical pairs (u < v) with 0/1 labels
and train/val/test tags. `stratified_split` draws the tags and
`sample_negatives` the non-edge pairs that pad a positives-only pair file.
`GroundTruth` is what the generator hides from the observed graph.
"""

import json
import math
from dataclasses import MISSING, dataclass, fields
from functools import cached_property

import numpy as np

from .errors import InvalidArgument, InvalidConfig, InvalidInput
from .graph import check_ids, in_sorted, key_pairs, pair_keys, repeated_rows, sample_pair_keys, sorted_unique
from .rng import NEGATIVES, SPLIT, make_rng

TRAIN, VAL, TEST = 0, 1, 2
SPLIT_NAMES = {TRAIN: "train", VAL: "val", TEST: "test"}
SPLIT_FRACTIONS = (0.70, 0.15, 0.15)  # train, val, test


@dataclass(frozen=True)
class LabeledSet:
    """Supervised examples with 0/1 labels and split tags.

    `examples` is an (n, 2) array of node pairs (u < v) for pair tasks or a
    1-d array of node ids for node tasks; `kind` follows its rank. A set
    checks its examples, labels and split when it is made: a rejected
    example raises InvalidInput with its `row`. `validate` checks that every
    split holds both classes, which a set need not do to exist.
    """

    examples: np.ndarray
    labels: np.ndarray
    split: np.ndarray

    def __post_init__(self):
        examples = np.asarray(self.examples)
        if self.kind == "pair" and examples.shape[1] != 2:
            raise InvalidInput("pairs must be an (n, 2) array")
        bad = first_invalid_example(examples)
        if bad is not None:
            raise InvalidInput(bad[1], row=bad[0])
        labels, split = np.asarray(self.labels), np.asarray(self.split)
        if labels.shape != (examples.shape[0],) or split.shape != labels.shape:
            raise InvalidInput("labels and split must align with the entries")
        if not np.all(np.isin(labels, (0, 1))):
            raise InvalidInput("labels must be 0 or 1")

    @property
    def kind(self):
        return "pair" if np.ndim(self.examples) == 2 else "node"

    def validate(self):
        """Raise InvalidInput unless every split holds both classes."""
        if self._split_breach is not None:
            raise InvalidInput(self._split_breach)

    @cached_property
    def _split_breach(self):
        """The per-split rule's message for the first split without both
        classes, or None; worked out once per set."""
        labels, split = np.asarray(self.labels), np.asarray(self.split)
        for tag, name in SPLIT_NAMES.items():
            part = labels[split == tag]
            if part.size == 0 or part.min() == part.max():
                return f"split {name} must contain both classes"
        return None


def first_invalid_example(examples):
    """(row, reason) of the first example a LabeledSet rejects, or None.

    `examples` holds node ids (1-d) or pairs ((n, 2)). The first pair not in
    canonical order u < v is reported; failing that, the first node or pair
    equal to an earlier one.
    """
    examples = np.asarray(examples)
    columns = [examples]
    if examples.ndim == 2:
        bad = np.flatnonzero(examples[:, 0] >= examples[:, 1])
        if bad.size:
            u, v = examples[bad[0]]
            return int(bad[0]), f"pair ({u}, {v}) is not in canonical order u < v"
        # pairs compare by value: as one int64 key when their ids span fewer than
        # 2**31 values, as a graph's node ids do; one key sorts an order of
        # magnitude faster than the two columns
        lo = int(examples.min(initial=0))
        span = int(examples.max(initial=0)) - lo + 1
        columns = [pair_keys(examples - lo, span)] if span < 2**31 else list(examples.T)
    repeats = np.flatnonzero(repeated_rows(*columns))
    if not repeats.size:
        return None
    row = int(repeats[0])
    what = f"pair ({examples[row, 0]}, {examples[row, 1]})" if examples.ndim == 2 else f"node {examples[row]}"
    return row, f"duplicate {what}"


def stratified_split(labels, seed=0):
    """Per-class train/val/test tags in SPLIT_FRACTIONS; proportions hold
    within one example.

    Counts come from largest-remainder rounding per class; when a fraction
    rounds a tiny class to zero, one example is moved from that class's
    largest block so every split keeps both classes.
    """
    labels = np.asarray(labels)
    classes, counts = np.unique(labels, return_counts=True)
    if np.any(counts < 3):
        raise InvalidInput("every class needs at least 3 examples to split")
    gen = make_rng(seed, SPLIT)
    out = np.empty(labels.size, dtype=np.int8)
    for cls in classes:
        idx = np.flatnonzero(labels == cls)
        gen.shuffle(idx)
        start = 0
        for tag, k in zip((TRAIN, VAL, TEST), largest_remainder(idx.size, SPLIT_FRACTIONS)):
            out[idx[start:start + k]] = tag
            start += k
    return out


def largest_remainder(n, fractions):
    """n split into len(fractions) integer parts by largest-remainder rounding.

    A part that rounds to zero takes one from the largest part, so every part
    is positive when n >= len(fractions).
    """
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
    by default). Raises InvalidArgument when a node id of `positives` or
    `nodes` lies outside the graph, and InvalidInput when the graph is too
    dense to supply that many pairs.
    """
    if ratio <= 0:
        raise InvalidArgument("ratio must be positive")
    n = g.num_nodes
    positives = check_ids(positives, n).reshape(-1, 2)
    count = int(round(ratio * positives.shape[0]))
    nodes = np.arange(n) if nodes is None else check_ids(nodes, n)
    allowed = np.zeros(n, dtype=bool)
    allowed[nodes] = True
    pairs = np.vstack([g.undirected_edges()[0], positives])
    forbidden = sorted_unique(pair_keys(pairs, n)[allowed[pairs].all(axis=1)])
    possible = nodes.size * (nodes.size - 1) // 2 - forbidden.size
    if count > possible:
        raise InvalidInput(
            f"requested {count} negatives but only {possible} non-edge pairs exist"
        )
    gen = make_rng(seed, NEGATIVES)
    if possible <= 4 * count:
        # every allowed non-edge, in the order of the pairs (nodes[i], nodes[j]), i < j
        pool = pair_keys(nodes[np.column_stack(np.triu_indices(nodes.size, k=1))], n)
        pool = pool[~in_sorted(pool, forbidden)]
        keys = np.sort(pool[gen.choice(pool.size, size=count, replace=False)])
    else:
        keys = sample_pair_keys(gen, n, count, forbidden, lambda need: 2 * need, nodes=nodes)
    return key_pairs(keys, n)


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
class GroundTruth:
    """Everything the observed graph hides: the full supply set, the
    observed/hidden partition, tiers, and the drawn default labels."""

    supply_edges: np.ndarray
    hidden_mask: np.ndarray
    tiers: np.ndarray
    default_labels: np.ndarray

    def hidden_supply(self):
        return self.supply_edges[self.hidden_mask]
