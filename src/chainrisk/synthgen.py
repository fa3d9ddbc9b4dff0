"""Seeded synthetic SME economy with ground-truth latent supply links.

The generator builds a three-tier supply network (raw-material suppliers,
manufacturers, retailers) organized into sectors. Within a sector, each
firm manages a partner budget and trades with its nearest peers in a
latent product space: a firm proposes to its budget-many closest
adjacent-tier neighbors and accepts proposals from a somewhat wider
circle, so realized partner counts stay close to the budgets while a thin
heavy tail of well-connected firms survives. A configured fraction of the
true supply links is withheld from the observed graph and exposed as
positive pairs for the mining task, which is what makes the two-stage
pipeline testable end to end.

Node features carry the tier, a noisy view of the latent position, and
five attribute blocks (revenue, shareholder, mortgage, recruitment,
patent), each a (present, value) column pair with calibrated missingness.
Default labels follow a logistic model in the true partner count, so more
supply partners means lower default risk.
"""

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import rng as rng_streams
from .errors import InvalidArgument, InvalidConfig
from .graph import SmeGraph, in_sorted, sample_pair_keys, sorted_unique
from .pipeline import LabeledSet, stratified_split
from .rng import make_rng

ATTRIBUTES = ("revenue", "shareholder", "mortgage", "recruitment", "patent")

PROFILE_DIM = 4
# feature columns: tier one-hot (3) | latent profile | (present, value) per attribute
ATTRIBUTE_COLUMNS = {
    attr: (3 + PROFILE_DIM + 2 * i, 3 + PROFILE_DIM + 2 * i + 1)
    for i, attr in enumerate(ATTRIBUTES)
}
NUM_FEATURE_COLUMNS = 3 + PROFILE_DIM + 2 * len(ATTRIBUTES)

PARTNER_BUCKETS = (("0-2", 0, 2), ("3-5", 3, 5), ("6-10", 6, 10), (">10", 11, None))


@dataclass(frozen=True)
class GenConfig:
    """Knobs of the synthetic economy; `validate` rejects infeasible values."""

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

    def validate(self):
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
        return self

    def to_dict(self):
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["tier_shares"] = list(self.tier_shares)
        d["availability"] = list(self.availability)
        return d

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        if "tier_shares" in d:
            d["tier_shares"] = tuple(d["tier_shares"])
        if "availability" in d:
            d["availability"] = tuple(d["availability"])
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise InvalidConfig(f"unknown generator config keys: {sorted(unknown)}")
        if "num_smes" not in d:
            raise InvalidConfig("generator config requires num_smes")
        return cls(**d).validate()


def paper_calibrated(num_smes=5000, seed=0, **overrides):
    """Preset tuned to the qualitative exploratory findings.

    Encodes the calibration targets checked by the generator tests: patent
    reach rising from about 1.5% at depth 1 to about 22.7% at depth 4, the
    >10-partner default rate at most half the 0-2 bucket, higher upstream
    revenue variance, and a shareholder-availability edge for socially tied
    firms.
    """
    return replace(GenConfig(num_smes=num_smes, seed=seed), **overrides).validate()


def null_preset(num_smes=2000, seed=0, **overrides):
    """Same economy, but default labels independent of the graph."""
    cfg = GenConfig(num_smes=num_smes, seed=seed, partner_protection=0.0)
    return replace(cfg, **overrides).validate()


PRESETS = {"paper-calibrated": paper_calibrated, "null": null_preset}


def gen_config_from_dict(d):
    """Config from a parsed JSON object, honoring an optional "preset" key."""
    d = dict(d)
    preset = d.pop("preset", None)
    if preset is None:
        return GenConfig.from_dict(d)
    if preset not in PRESETS:
        raise InvalidConfig(f"unknown preset {preset!r}, have {sorted(PRESETS)}")
    if "num_smes" not in d:
        raise InvalidConfig("generator config requires num_smes")
    if "tier_shares" in d:
        d["tier_shares"] = tuple(d["tier_shares"])
    if "availability" in d:
        d["availability"] = tuple(d["availability"])
    return PRESETS[preset](**d)


@dataclass
class GroundTruth:
    """Everything the observed graph hides: the full supply set, the
    observed/hidden partition, tiers, and the drawn default labels."""

    supply_edges: np.ndarray
    hidden_mask: np.ndarray
    tiers: np.ndarray
    default_labels: np.ndarray

    @property
    def num_nodes(self):
        return self.tiers.size

    def observed_supply(self):
        return self.supply_edges[~self.hidden_mask]

    def hidden_supply(self):
        return self.supply_edges[self.hidden_mask]

    def partner_counts(self):
        return np.bincount(self.supply_edges.reshape(-1), minlength=self.num_nodes)

    def supply_graph(self):
        """Full supply network as a bare graph (for partner-count analyses)."""
        return SmeGraph.from_edge_list(
            self.num_nodes, self.supply_edges, np.zeros((self.num_nodes, 0))
        )


def _tier_counts(n, shares):
    raw = [s * n for s in shares]
    counts = [int(math.floor(r)) for r in raw]
    order = np.argsort([-(r - c) for r, c in zip(raw, counts)], kind="stable")
    for i in range(n - sum(counts)):
        counts[order[i]] += 1
    return counts


def generate(config):
    """Build one economy: graph, labeled sets, and the ground truth.

    Pure function of the config (the seed lives inside it); identical
    configs produce bit-identical outputs.
    """
    config.validate()
    n = config.num_smes
    gen = make_rng(config.seed, rng_streams.GENERATOR)

    counts = _tier_counts(n, config.tier_shares)
    tiers = np.repeat(np.arange(3, dtype=np.int8), counts)
    num_sectors = max(1, int(round(n / config.sector_size)))
    sectors = np.empty(n, dtype=np.int64)
    for t in range(3):
        members = np.flatnonzero(tiers == t)
        sectors[members] = np.arange(members.size) % num_sectors

    centers = gen.normal(size=(num_sectors, PROFILE_DIM))
    latent = centers[sectors] + gen.normal(scale=config.profile_spread, size=(n, PROFILE_DIM))

    supply_edges = _sample_supply_edges(config, gen, tiers, sectors, latent)
    m = supply_edges.shape[0]
    if m < 10:
        raise InvalidConfig("config produced fewer than 10 supply links; raise supply_density")
    hidden_mask = np.zeros(m, dtype=bool)
    hidden_mask[gen.permutation(m)[: int(round(config.hidden_fraction * m))]] = True

    supply_keys = sorted_unique(supply_edges[:, 0] * n + supply_edges[:, 1])
    social_edges = _sample_social_edges(config, gen, n, supply_keys)

    X = _node_features(config, gen, tiers, latent, social_edges, n)

    partner_count = np.bincount(supply_edges.reshape(-1), minlength=n)
    noise = gen.normal(scale=config.label_noise_sigma, size=n)
    log_odds = config.base_log_odds - config.partner_protection * partner_count + noise
    p_default = 1.0 / (1.0 + np.exp(-log_odds))
    labels = (gen.random(n) < p_default).astype(np.int8)

    graph = _observed_graph(config, gen, n, tiers, supply_edges[~hidden_mask], social_edges, X)

    pair_set = _pair_labels(config, gen, n, tiers, sectors, supply_keys, social_edges,
                            supply_edges[hidden_mask])
    node_set = LabeledSet(
        examples=np.arange(n, dtype=np.int64),
        labels=labels.copy(),
        split=stratified_split(labels, seed=config.seed),
    )
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


def _sample_supply_edges(config, gen, tiers, sectors, latent):
    """Budgeted nearest-neighbor matching over same-sector adjacent-tier pairs.

    Each firm proposes to its `budget` nearest adjacent-tier peers in latent
    space and accepts proposals from its `accept_breadth * budget` nearest;
    an edge forms when a proposal lands inside the acceptance circle. The
    budget scale is calibrated so the realized edge count matches
    supply_density times the admissible pair count.
    """
    num_sectors = int(sectors.max()) + 1
    blocks = []
    admissible = 0
    for s in range(num_sectors):
        for t in (0, 1):
            rows = np.flatnonzero((sectors == s) & (tiers == t))
            cols = np.flatnonzero((sectors == s) & (tiers == t + 1))
            if rows.size == 0 or cols.size == 0:
                continue
            d2 = np.sum((latent[rows][:, None, :] - latent[cols][None, :, :]) ** 2, axis=2)
            blocks.append((rows, cols, d2))
            admissible += d2.size
    if admissible == 0:
        raise InvalidConfig("degenerate sector structure; no admissible supply pairs")
    target = config.supply_density * admissible
    shape = gen.choice(BUDGET_VALUES, size=tiers.size, p=BUDGET_PROBS / BUDGET_PROBS.sum())
    scale = 2.0 * target / float(shape.sum())  # matching yields roughly half the proposals
    edges = None
    for _ in range(4):
        budgets = np.maximum(1, np.rint(scale * shape).astype(np.int64))
        edges = _match_blocks(blocks, budgets, config.accept_breadth, tiers.size)
        if edges.shape[0] == 0:
            scale *= 2.0
            continue
        ratio = target / edges.shape[0]
        if 0.95 <= ratio <= 1.05:
            break
        scale *= ratio
    if edges is None or edges.shape[0] == 0:
        raise InvalidConfig("supply_density too low for the sector structure")
    return edges


def _match_blocks(blocks, budgets, accept_breadth, n):
    proposed = [set() for _ in range(n)]
    accepted = [set() for _ in range(n)]
    for rows, cols, d2 in blocks:
        row_order = np.argsort(d2, axis=1, kind="stable")
        col_order = np.argsort(d2, axis=0, kind="stable")
        for i, u in enumerate(rows.tolist()):
            k = budgets[u]
            picks = cols[row_order[i, : min(k, cols.size)]]
            proposed[u].update(picks.tolist())
            wide = cols[row_order[i, : min(int(accept_breadth * k), cols.size)]]
            accepted[u].update(wide.tolist())
        for j, v in enumerate(cols.tolist()):
            k = budgets[v]
            picks = rows[col_order[: min(k, rows.size), j]]
            proposed[v].update(picks.tolist())
            wide = rows[col_order[: min(int(accept_breadth * k), rows.size), j]]
            accepted[v].update(wide.tolist())
    edges = set()
    for u in range(n):
        for v in proposed[u]:
            if u in accepted[v]:
                edges.add((u, v) if u < v else (v, u))
    if not edges:
        return np.zeros((0, 2), dtype=np.int64)
    return np.asarray(sorted(edges), dtype=np.int64)


def _sample_social_edges(config, gen, n, supply_keys):
    """Uniform cross-firm ties that never coincide with a supply link."""
    target = int(round(config.social_density * n * (n - 1) / 2))
    keys = sample_pair_keys(gen, n, target, supply_keys, lambda need: max(64, 2 * need), max_rounds=60)
    if keys.size < target:
        raise InvalidConfig("social_density too high for the available pairs")
    return np.column_stack([keys // n, keys % n])


def _node_features(config, gen, tiers, latent, social_edges, n):
    X = np.zeros((n, NUM_FEATURE_COLUMNS))
    X[np.arange(n), tiers.astype(np.int64)] = 1.0
    X[:, 3:3 + PROFILE_DIM] = latent + gen.normal(scale=config.profile_noise, size=latent.shape)

    has_social = np.zeros(n, dtype=bool)
    if social_edges.size:
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


def _pair_labels(config, gen, n, tiers, sectors, supply_keys, social_edges, hidden_edges):
    """Positives are the withheld supply links; negatives mix plausible
    same-sector pairs with uniform random ones, all verified non-links."""
    positives = hidden_edges.reshape(-1, 2)
    n_pos = positives.shape[0]
    n_neg = int(round(config.neg_ratio * n_pos))
    n_hard = int(round(config.hard_negative_fraction * n_neg))
    taken = sorted_unique(np.concatenate([supply_keys, social_edges[:, 0] * n + social_edges[:, 1]]))

    hard_pool = []
    num_sectors = sectors.max() + 1
    for s in range(num_sectors):
        for t in (0, 1):
            rows = np.flatnonzero((sectors == s) & (tiers == t))
            cols = np.flatnonzero((sectors == s) & (tiers == t + 1))
            if rows.size == 0 or cols.size == 0:
                continue
            rr, cc = np.meshgrid(rows, cols, indexing="ij")
            lo = np.minimum(rr.reshape(-1), cc.reshape(-1))
            hi = np.maximum(rr.reshape(-1), cc.reshape(-1))
            keys = lo * n + hi
            hard_pool.append(keys[~in_sorted(keys, taken)])
    hard_pool = np.concatenate(hard_pool) if hard_pool else np.zeros(0, dtype=np.int64)
    n_hard = min(n_hard, hard_pool.size)
    hard = hard_pool[gen.choice(hard_pool.size, size=n_hard, replace=False)] if n_hard else hard_pool[:0]
    taken = sorted_unique(np.concatenate([taken, hard]))
    uniform = sample_pair_keys(gen, n, n_neg - n_hard, taken, lambda need: 4 * need)
    neg_keys = sorted_unique(np.concatenate([hard, uniform]))

    pairs = np.vstack([positives, np.column_stack([neg_keys // n, neg_keys % n])])
    labels = np.r_[np.ones(n_pos, dtype=np.int8), np.zeros(neg_keys.size, dtype=np.int8)]
    split = stratified_split(labels, seed=config.seed)
    return LabeledSet(examples=pairs, labels=labels, split=split)


def attribute_availability(g, attribute, rf_depth):
    """Share of nodes whose rf_depth-hop ball holds a non-missing value.

    The ball includes the node itself; depth 1 adds direct neighbors, and
    larger depths widen the reach, so the share is monotone in rf_depth.
    Returns a fraction in [0, 1].
    """
    if attribute not in ATTRIBUTE_COLUMNS:
        raise InvalidArgument(f"unknown attribute {attribute!r}, have {ATTRIBUTES}")
    if rf_depth not in (1, 2, 3, 4):
        raise InvalidArgument("rf_depth must be 1, 2, 3, or 4")
    pcol, _ = ATTRIBUTE_COLUMNS[attribute]
    if g.node_features.shape[1] <= pcol:
        raise InvalidArgument("graph features do not follow the generator schema")
    reach = g.node_features[:, pcol] > 0.5
    for _ in range(rf_depth):
        reach = reach | _any_neighbor(g, reach)
    return float(reach.mean())


def _any_neighbor(g, mask):
    out = np.zeros(g.num_nodes, dtype=bool)
    if g.indices.size == 0:
        return out
    vals = mask[g.indices]
    row_len = np.diff(g.indptr)
    nonempty = row_len > 0
    out[nonempty] = np.logical_or.reduceat(vals, g.indptr[:-1][nonempty])
    return out


def partner_default_curve(g, labels):
    """Default rate per partner-count bucket; empty buckets are omitted.

    Partner count is the node degree of `g`, so pass the full supply graph
    from the ground truth when analyzing the true relationship.
    """
    labels = np.asarray(labels)
    if labels.shape != (g.num_nodes,):
        raise InvalidArgument("labels must cover every node")
    degree = g.degrees()
    curve = []
    for name, lo, hi in PARTNER_BUCKETS:
        mask = degree >= lo if hi is None else (degree >= lo) & (degree <= hi)
        count = int(mask.sum())
        if count == 0:
            continue
        curve.append({"bucket": name, "count": count, "rate": float(labels[mask].mean())})
    return curve
