"""Seeded synthetic SME economy with ground-truth latent supply links.

The generator builds a three-tier supply network (raw-material suppliers,
manufacturers, retailers) organized into sectors. Within a sector, each
firm has a partner budget and ranks its adjacent-tier peers nearest first
in a latent product space; two firms link when either ranks the other
under its budget and the other ranks it under `accept_breadth` times its
own budget. Realized partner counts stay close to the budgets while a thin
heavy tail of well-connected firms survives. A configured fraction of the
true supply links is withheld from the observed graph and exposed as
positive pairs for the mining task, which is what makes the two-stage
pipeline testable end to end.

Node features carry the tier, a noisy view of the latent position, and
five attribute blocks (revenue, shareholder, mortgage, recruitment,
patent), each a (present, value) column pair with calibrated missingness.
Default labels follow a logistic model in the true partner count, so more
supply partners means lower default risk.

Generation works one sector block (a sector's tier t against its tier
t + 1) at a time: matching keeps two int32 rank matrices per block and
gathers only the linked pairs, and the hard-negative pool is filtered block
by block. No step holds a table of every admissible pair.
"""

from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidConfig, InvalidInput
from .graph import SmeGraph, in_sorted, key_pairs, pair_keys, sample_pair_keys, sorted_unique
from .labels import GroundTruth, LabeledSet, config_fields, largest_remainder, stratified_split
from .rng import GENERATOR, make_rng

ATTRIBUTES = ("revenue", "shareholder", "mortgage", "recruitment", "patent")

PROFILE_DIM = 4
# feature columns: tier one-hot (3) | latent profile | (present, value) per attribute
ATTRIBUTE_COLUMNS = {
    attr: (3 + PROFILE_DIM + 2 * i, 3 + PROFILE_DIM + 2 * i + 1)
    for i, attr in enumerate(ATTRIBUTES)
}
NUM_FEATURE_COLUMNS = 3 + PROFILE_DIM + 2 * len(ATTRIBUTES)

@dataclass(frozen=True)
class GenConfig:
    """Knobs of the synthetic economy; a config with an infeasible value
    raises InvalidConfig when it is made, by `replace` too."""

    num_smes: int
    seed: int = 0
    tier_shares: tuple = (0.3, 0.4, 0.3)
    supply_density: float = 0.10        # linked fraction of same-sector adjacent-tier pairs
    hidden_fraction: float = 0.3        # share of true supply links withheld from the graph
    social_density: float = 3e-5        # share of all node pairs with a social tie
    availability: tuple = (0.15, 0.10, 0.002, 0.012, 0.0028)  # presence rate per ATTRIBUTES entry
    social_shareholder_boost: float = 0.15
    base_log_odds: float = 0.2
    partner_protection: float = 0.6     # log-odds drop per true supply partner
    label_noise_sigma: float = 0.25
    neg_ratio: float = 4.0              # labeled negatives per positive pair
    hard_negative_fraction: float = 0.4  # negatives drawn from plausible (same-sector) pairs
    sector_size: int = 100
    profile_spread: float = 0.7         # latent jitter around the sector center
    profile_noise: float = 0.03         # observation noise on the latent profile
    accept_breadth: float = 3.0         # accepted circle size relative to the proposal budget

    def __post_init__(self):
        if self.num_smes < 12:
            raise InvalidConfig("num_smes must be at least 12")
        if self.seed < 0:
            raise InvalidConfig("seed must be non-negative")
        if len(self.tier_shares) != 3 or min(self.tier_shares) <= 0:
            raise InvalidConfig("tier_shares must be three positive values")
        if abs(sum(self.tier_shares) - 1.0) > 1e-9:
            raise InvalidConfig("tier_shares must sum to 1")
        for name in ("supply_density", "hidden_fraction", "social_density"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise InvalidConfig(f"{name} must lie strictly inside (0, 1)")
        if len(self.availability) != len(ATTRIBUTES):
            raise InvalidConfig(f"availability needs one rate per attribute {ATTRIBUTES}")
        if any(not 0.0 < a < 1.0 for a in self.availability):
            raise InvalidConfig("availability rates must lie in (0, 1)")
        if not 0.0 <= self.hard_negative_fraction <= 1.0:
            raise InvalidConfig("hard_negative_fraction must be in [0, 1]")
        if self.neg_ratio <= 0:
            raise InvalidConfig("neg_ratio must be positive")
        if self.sector_size < 10:
            raise InvalidConfig("sector_size must be at least 10")
        if min(self.profile_spread, self.profile_noise) <= 0:
            raise InvalidConfig("profile spread and noise must be positive")
        if self.accept_breadth < 1.0:
            raise InvalidConfig("accept_breadth must be at least 1")
        if self.label_noise_sigma < 0:
            raise InvalidConfig("label_noise_sigma must be non-negative")

    def to_dict(self):
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["tier_shares"] = list(self.tier_shares)
        d["availability"] = list(self.availability)
        return d


def paper_calibrated(num_smes=5000, seed=0, **overrides):
    """Preset tuned to the qualitative exploratory findings.

    Encodes the calibration targets checked by the generator tests: patent
    reach rising from about 1.5% at depth 1 to about 22.7% at depth 4, the
    >10-partner default rate at most half the 0-2 bucket, higher upstream
    revenue variance, and a shareholder-availability edge for socially tied
    firms.
    """
    return GenConfig(num_smes=num_smes, seed=seed, **overrides)


def null_preset(num_smes=2000, seed=0, **overrides):
    """Same economy, but default labels independent of the graph."""
    return GenConfig(num_smes=num_smes, seed=seed, **{"partner_protection": 0.0, **overrides})


PRESETS = {"paper-calibrated": paper_calibrated, "null": null_preset}


def gen_config_from_dict(d):
    """Config from a parsed JSON object, honoring an optional "preset" key."""
    if not isinstance(d, dict):
        raise InvalidConfig(f"generator config must be a JSON object, got {type(d).__name__}")
    d = dict(d)
    preset = d.pop("preset", None)
    if preset is None:
        return GenConfig(**config_fields(GenConfig, d, "generator"))
    if not isinstance(preset, str) or preset not in PRESETS:
        raise InvalidConfig(f"unknown preset {preset!r}, have {sorted(PRESETS)}")
    return PRESETS[preset](**config_fields(GenConfig, d, "generator"))


def generate(config):
    """Build one economy: graph, labeled sets, and the ground truth.

    Pure function of the config (the seed lives inside it); identical
    configs produce bit-identical outputs.
    """
    n = config.num_smes
    gen = make_rng(config.seed, GENERATOR)

    counts = largest_remainder(n, config.tier_shares)  # no tier is left empty
    tiers = np.repeat(np.arange(3, dtype=np.int8), counts)
    num_sectors = max(1, int(round(n / config.sector_size)))
    sectors = np.concatenate([np.arange(c) % num_sectors for c in counts])  # round-robin per tier

    centers = gen.normal(size=(num_sectors, PROFILE_DIM))
    latent = centers[sectors] + gen.normal(scale=config.profile_spread, size=(n, PROFILE_DIM))

    supply_edges = _sample_supply_edges(config, gen, tiers, sectors, latent)
    m = supply_edges.shape[0]
    if m < 10:
        raise InvalidConfig("config produced fewer than 10 supply links; raise supply_density")
    hidden_mask = np.zeros(m, dtype=bool)
    hidden_mask[gen.permutation(m)[: int(round(config.hidden_fraction * m))]] = True

    supply_keys = sorted_unique(pair_keys(supply_edges, n))
    social_edges = _sample_social_edges(config, gen, n, supply_keys)

    X = _node_features(config, gen, tiers, latent, social_edges, n)

    partner_count = np.bincount(supply_edges.reshape(-1), minlength=n)
    noise = gen.normal(scale=config.label_noise_sigma, size=n)
    log_odds = config.base_log_odds - config.partner_protection * partner_count + noise
    p_default = 1.0 / (1.0 + np.exp(-log_odds))
    labels = (gen.random(n) < p_default).astype(np.int8)

    graph = _observed_graph(config, gen, n, tiers, supply_edges[~hidden_mask], social_edges, X)

    try:  # a tiny economy can leave a label class too small to split
        pair_set = _pair_labels(config, gen, n, tiers, sectors, supply_keys, social_edges,
                                supply_edges[hidden_mask])
        node_split = stratified_split(labels, seed=config.seed)
    except InvalidInput as err:
        raise InvalidConfig(f"the generated labels cannot be split: {err}") from None
    node_set = LabeledSet(examples=np.arange(n, dtype=np.int64), labels=labels.copy(), split=node_split)
    truth = GroundTruth(
        supply_edges=supply_edges,
        hidden_mask=hidden_mask,
        tiers=tiers,
        default_labels=labels,
    )
    return graph, pair_set, node_set, truth


# partner-budget shape: most firms manage a handful of suppliers, a few run many
BUDGET_VALUES = np.array([2, 3, 4, 5, 6, 7, 9, 12, 15])
BUDGET_PROBS = np.array([0.10, 0.22, 0.26, 0.20, 0.10, 0.05, 0.035, 0.025, 0.01])


def _sector_blocks(tiers, sectors):
    """(rows, cols): the ascending ids of sector s's tier t and tier t + 1,
    for each s and t in (0, 1) with both sides non-empty; tiers ascend with
    the id, so every row id is below every column id. One stable sort on
    `sector * 3 + tier` lays out every (sector, tier) group, ids ascending."""
    num_sectors = int(sectors.max()) + 1
    keys = sectors.astype(np.int64) * 3 + tiers
    order = np.argsort(keys, kind="stable")
    bounds = np.searchsorted(keys[order], np.arange(3 * num_sectors + 1))
    for s, t in np.ndindex(num_sectors, 2):
        lo, mid, hi = bounds[3 * s + t:3 * s + t + 3]
        if lo < mid < hi:
            yield order[lo:mid], order[mid:hi]


def _ranked_blocks(tiers, sectors, latent):
    """(rows, cols, by_row, by_col) per `_sector_blocks` pair: by_row[i, j] is
    cols[j]'s rank in rows[i]'s stable nearest-first order and by_col[i, j]
    rows[i]'s rank in cols[j]'s, as int32."""
    blocks = []
    for rows, cols in _sector_blocks(tiers, sectors):
        d2 = np.sum((latent[rows][:, None, :] - latent[cols][None, :, :]) ** 2, axis=2)
        by_row = np.argsort(np.argsort(d2, axis=1, kind="stable"), axis=1).astype(np.int32)
        by_col = np.argsort(np.argsort(d2, axis=0, kind="stable"), axis=0).astype(np.int32)
        blocks.append((rows, cols, by_row, by_col))
    if not blocks:
        raise InvalidConfig("degenerate sector structure; no admissible supply pairs")
    return blocks


def _sample_supply_edges(config, gen, tiers, sectors, latent):
    """Budgeted nearest-neighbor matching over same-sector adjacent-tier pairs.

    Each firm ranks its adjacent-tier peers nearest first in latent space
    (ties by id). A pair links when either side ranks the other under its
    `budget` (a proposal) and the other ranks it under
    `int(accept_breadth * budget)` (an acceptance). The ranks are fixed;
    only the budget scale is calibrated, over up to four rounds, so the
    realized edge count matches supply_density times the admissible pair
    count.
    """
    blocks = _ranked_blocks(tiers, sectors, latent)
    target = config.supply_density * sum(rows.size * cols.size for rows, cols, _, _ in blocks)
    shape = gen.choice(BUDGET_VALUES, size=tiers.size, p=BUDGET_PROBS / BUDGET_PROBS.sum())
    scale = 2.0 * target / float(shape.sum())  # matching yields roughly half the proposals
    for _ in range(4):
        budgets = np.maximum(1, np.rint(scale * shape).astype(np.int64))
        edges = _match_blocks(blocks, budgets, config.accept_breadth, tiers.size)
        ratio = target / edges.shape[0] if edges.shape[0] else 2.0
        if 0.95 <= ratio <= 1.05:
            break
        scale *= ratio
    if edges.shape[0] == 0:
        raise InvalidConfig("supply_density too low for the sector structure")
    return edges


def _match_blocks(blocks, budgets, accept_breadth, n):
    """The pairs (u, v), u < v, that link at these budgets, ordered by u * n + v.

    A pair links when one side proposes, ranking the other under its
    budget, and the other accepts, ranking it under
    int(accept_breadth * budget). Each block of `_ranked_blocks` is matched
    on its own; only the linked keys are gathered and sorted.
    """
    keys = []
    for rows, cols, by_row, by_col in blocks:
        bu, bv = budgets[rows][:, None], budgets[cols][None, :]
        wu = (accept_breadth * bu).astype(np.int64)
        wv = (accept_breadth * bv).astype(np.int64)
        links = ((by_row < bu) & (by_col < wv)) | ((by_col < bv) & (by_row < wu))
        i, j = np.nonzero(links)
        keys.append(rows[i] * n + cols[j])
    return key_pairs(np.sort(np.concatenate(keys)), n)


def _sample_social_edges(config, gen, n, supply_keys):
    """Uniform cross-firm ties that never coincide with a supply link."""
    target = int(round(config.social_density * n * (n - 1) / 2))
    keys = sample_pair_keys(gen, n, target, supply_keys, lambda need: max(64, 2 * need), max_rounds=60)
    if keys.size < target:
        raise InvalidConfig("social_density too high for the available pairs")
    return key_pairs(keys, n)


def _node_features(config, gen, tiers, latent, social_edges, n):
    X = np.zeros((n, NUM_FEATURE_COLUMNS))
    X[np.arange(n), tiers.astype(np.int64)] = 1.0
    X[:, 3:3 + PROFILE_DIM] = latent + gen.normal(scale=config.profile_noise, size=latent.shape)

    has_social = np.zeros(n, dtype=bool)
    has_social[social_edges.reshape(-1)] = True

    # upstream revenue swings harder than downstream (market demand shocks)
    revenue_sigma = np.array([1.0, 0.7, 0.45])[tiers.astype(np.int64)]
    values = {
        "revenue": np.exp(2.0 + revenue_sigma * gen.normal(size=n)),
        "shareholder": 1.0 + gen.poisson(2.0, size=n),
        "mortgage": gen.lognormal(mean=0.0, sigma=1.0, size=n),
        "recruitment": 1.0 + gen.poisson(3.0, size=n),
        "patent": 1.0 + gen.poisson(1.0, size=n),
    }
    for attr, base_rate in zip(ATTRIBUTES, config.availability):
        rate = np.full(n, base_rate)
        if attr == "shareholder":
            rate = np.clip(rate + config.social_shareholder_boost * has_social, 0.0, 0.98)
        present = gen.random(n) < rate
        pcol, vcol = ATTRIBUTE_COLUMNS[attr]
        X[:, pcol] = present
        X[:, vcol] = np.where(present, values[attr], 0.0)
    return X


def _observed_graph(config, gen, n, tiers, observed_supply, social_edges, X):
    all_edges = np.vstack([observed_supply.reshape(-1, 2), social_edges.reshape(-1, 2)])
    feats = np.zeros((all_edges.shape[0], 2))
    n_supply = observed_supply.shape[0]
    feats[:n_supply, 0] = gen.lognormal(mean=0.0, sigma=1.0, size=n_supply)  # transaction volume
    feats[n_supply:, 1] = gen.random(all_edges.shape[0] - n_supply)          # tie strength
    return SmeGraph.from_edge_list(
        n, all_edges, node_features=X, edge_features=feats,
        node_kind=np.full(n, "sme", dtype="U8"),
    )


def _pair_labels(config, gen, n, tiers, sectors, supply_keys, social_edges, positives):
    """Positives are the withheld supply links; negatives mix plausible
    same-sector pairs with uniform random ones, all verified non-links."""
    n_pos = positives.shape[0]
    n_neg = int(round(config.neg_ratio * n_pos))
    n_hard = int(round(config.hard_negative_fraction * n_neg))
    taken = sorted_unique(np.concatenate([supply_keys, pair_keys(social_edges, n)]))

    hard_pool = _hard_pool(tiers, sectors, taken)
    n_hard = min(n_hard, hard_pool.size)
    hard = hard_pool[gen.choice(hard_pool.size, size=n_hard, replace=False)] if n_hard else hard_pool[:0]
    del hard_pool  # free the pool before the uniform draws
    taken = sorted_unique(np.concatenate([taken, hard]))
    free = n * (n - 1) // 2 - taken.size
    if n_neg - n_hard > free:
        raise InvalidConfig(f"neg_ratio {config.neg_ratio} needs {n_neg - n_hard} more negative pairs, "
                            f"but only {free} pairs are unlinked")
    uniform = sample_pair_keys(gen, n, n_neg - n_hard, taken, lambda need: 4 * need)
    neg_keys = sorted_unique(np.concatenate([hard, uniform]))

    pairs = np.vstack([positives, key_pairs(neg_keys, n)])
    labels = np.r_[np.ones(n_pos, dtype=np.int8), np.zeros(neg_keys.size, dtype=np.int8)]
    split = stratified_split(labels, seed=config.seed)
    return LabeledSet(examples=pairs, labels=labels, split=split)


def _hard_pool(tiers, sectors, taken):
    """The keys u * n + v of every same-sector adjacent-tier pair not in the
    sorted `taken`, in `_sector_blocks` order, filtered one block at a time."""
    n = tiers.size
    blocks = list(_sector_blocks(tiers, sectors))
    pool = np.empty(sum(rows.size * cols.size for rows, cols in blocks), dtype=np.int64)
    filled = 0
    for rows, cols in blocks:
        keys = (rows[:, None] * n + cols).reshape(-1)
        keys = keys[~in_sorted(keys, taken)]
        pool[filled:filled + keys.size] = keys
        filled += keys.size
    return pool[:filled]
