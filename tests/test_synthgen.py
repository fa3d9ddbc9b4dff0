import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainrisk.errors import InvalidArgument, InvalidConfig
from chainrisk.graph import in_sorted
from chainrisk.labels import TEST, TRAIN, VAL, largest_remainder
from chainrisk.synthgen import (
    ATTRIBUTE_COLUMNS,
    ATTRIBUTES,
    GenConfig,
    _hard_pool,
    _match_blocks,
    _ranked_blocks,
    _sector_blocks,
    gen_config_from_dict,
    generate,
    null_preset,
    paper_calibrated,
)

from conftest import attribute_availability, check_graph, partner_default_curve, supply_graph


@pytest.fixture(scope="module")
def small_economy():
    cfg = paper_calibrated(num_smes=1200, seed=3, sector_size=80)
    return cfg, generate(cfg)


class TestGenConfig:
    def test_invalid_shares_rejected(self):
        with pytest.raises(InvalidConfig):
            GenConfig(num_smes=100, tier_shares=(0.5, 0.5, 0.5)).validate()

    def test_hidden_fraction_bounds(self):
        with pytest.raises(InvalidConfig):
            GenConfig(num_smes=100, hidden_fraction=1.0).validate()

    def test_tiny_economy_rejected(self):
        with pytest.raises(InvalidConfig):
            GenConfig(num_smes=5).validate()

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(InvalidConfig):
            gen_config_from_dict({"num_smes": 100, "flux_capacitor": 1})

    def test_preset_dispatch(self):
        cfg = gen_config_from_dict({"preset": "paper-calibrated", "num_smes": 500, "seed": 9})
        assert cfg.num_smes == 500 and cfg.seed == 9
        null = gen_config_from_dict({"preset": "null", "num_smes": 500})
        assert null.partner_protection == 0.0

    def test_unknown_preset_rejected(self):
        with pytest.raises(InvalidConfig):
            gen_config_from_dict({"preset": "galactic", "num_smes": 100})


class TestGenerate:
    def test_deterministic_per_config(self):
        cfg = paper_calibrated(num_smes=400, seed=11, sector_size=50)
        g1, sc1, dp1, gt1 = generate(cfg)
        g2, sc2, dp2, gt2 = generate(cfg)
        assert np.array_equal(g1.indices, g2.indices)
        assert np.array_equal(g1.node_features, g2.node_features)
        assert np.array_equal(sc1.examples, sc2.examples)
        assert np.array_equal(dp1.labels, dp2.labels)
        assert np.array_equal(gt1.supply_edges, gt2.supply_edges)

    def test_graph_invariants_hold(self, small_economy):
        _, (g, _, _, _) = small_economy
        check_graph(g)

    def test_hidden_count_is_exact(self, small_economy):
        cfg, (g, d_sc, _, gt) = small_economy
        m = gt.supply_edges.shape[0]
        expected_hidden = int(round(cfg.hidden_fraction * m))
        assert int(gt.hidden_mask.sum()) == expected_hidden
        assert int(d_sc.labels.sum()) == expected_hidden

    def test_labeled_sets_validate(self, small_economy):
        _, (_, d_sc, d_dp, _) = small_economy
        d_sc.validate()
        d_dp.validate()

    def test_positives_are_exactly_the_hidden_links(self, small_economy):
        _, (g, d_sc, _, gt) = small_economy
        positives = {tuple(p) for p in d_sc.examples[d_sc.labels == 1].tolist()}
        assert positives == {tuple(e) for e in gt.hidden_supply().tolist()}
        # and none of them leaked into the observed adjacency
        pos = d_sc.examples[d_sc.labels == 1]
        assert not in_sorted(pos[:, 0] * g.num_nodes + pos[:, 1], g.edge_keys()).any()

    def test_negatives_are_true_non_links(self, small_economy):
        _, (g, d_sc, _, gt) = small_economy
        supply = {tuple(e) for e in gt.supply_edges.tolist()}
        negatives = d_sc.examples[d_sc.labels == 0]
        for u, v in negatives.tolist():
            assert (u, v) not in supply
        assert not in_sorted(negatives[:, 0] * g.num_nodes + negatives[:, 1], g.edge_keys()).any()

    def test_negative_ratio_respected(self, small_economy):
        cfg, (_, d_sc, _, _) = small_economy
        n_pos = int(d_sc.labels.sum())
        n_neg = int((d_sc.labels == 0).sum())
        assert n_neg == int(round(cfg.neg_ratio * n_pos))

    def test_default_rate_sane_and_tiers_partition(self, small_economy):
        cfg, (_, _, d_dp, gt) = small_economy
        rate = gt.default_labels.mean()
        assert 0.02 < rate < 0.5
        counts = np.bincount(gt.tiers, minlength=3)
        assert counts.sum() == cfg.num_smes
        assert np.all(counts > 0)

    def test_observed_plus_hidden_partition_supply(self, small_economy):
        _, (_, _, _, gt) = small_economy
        total = gt.supply_edges.shape[0]
        assert np.count_nonzero(~gt.hidden_mask) + gt.hidden_supply().shape[0] == total

    def test_splits_cover_both_label_sets(self, small_economy):
        _, (_, d_sc, d_dp, _) = small_economy
        for tag in (TRAIN, VAL, TEST):
            assert (d_sc.split == tag).any()
            assert (d_dp.split == tag).any()


@pytest.fixture(scope="module")
def big():
    cfg = paper_calibrated(num_smes=10000, seed=1)
    return cfg, generate(cfg)


class TestCalibration:
    """Checks against the qualitative findings the preset encodes."""

    def test_protective_partner_effect(self, big):
        _, (_, _, _, gt) = big
        curve = {row["bucket"]: row for row in partner_default_curve(supply_graph(gt), gt.default_labels)}
        assert ">10" in curve and "0-2" in curve
        assert curve[">10"]["rate"] <= 0.5 * curve["0-2"]["rate"]

    def test_rates_monotone_down_the_buckets(self, big):
        _, (_, _, _, gt) = big
        rates = [row["rate"] for row in partner_default_curve(supply_graph(gt), gt.default_labels)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_null_preset_curve_is_flat(self):
        cfg = null_preset(num_smes=10000, seed=1)
        _, _, _, gt = generate(cfg)
        global_rate = gt.default_labels.mean()
        for row in partner_default_curve(supply_graph(gt), gt.default_labels):
            assert abs(row["rate"] - global_rate) <= 0.03

    def test_patent_reach_bands(self, big):
        _, (g, _, _, _) = big
        rf1 = attribute_availability(g, "patent", 1)
        rf4 = attribute_availability(g, "patent", 4)
        assert abs(rf1 - 0.015) <= 0.05
        assert abs(rf4 - 0.227) <= 0.05

    def test_availability_monotone_in_depth_for_every_attribute(self, big):
        _, (g, _, _, _) = big
        for attr in ATTRIBUTES:
            values = [attribute_availability(g, attr, k) for k in (1, 2, 3, 4)]
            assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_upstream_revenue_varies_more_than_downstream(self, big):
        _, (g, _, _, gt) = big
        pcol, vcol = ATTRIBUTE_COLUMNS["revenue"]
        present = g.node_features[:, pcol] > 0.5
        up = present & (gt.tiers == 0)
        down = present & (gt.tiers == 2)
        assert g.node_features[up, vcol].var() > g.node_features[down, vcol].var()

    def test_social_ties_boost_shareholder_availability(self, big):
        _, (g, _, _, _) = big
        pairs, feats = g.undirected_edges()
        social = np.zeros(g.num_nodes, dtype=bool)
        social[pairs[feats[:, 1] > 0].reshape(-1)] = True
        pcol, _ = ATTRIBUTE_COLUMNS["shareholder"]
        present = g.node_features[:, pcol] > 0.5
        assert present[social].mean() - present[~social].mean() >= 0.10


class TestAvailabilityOp:
    def test_full_presence_saturates(self):
        cfg = paper_calibrated(num_smes=300, seed=5, sector_size=50,
                               availability=(0.999, 0.999, 0.999, 0.999, 0.999))
        g, _, _, _ = generate(cfg)
        for depth in (1, 2, 3, 4):
            assert attribute_availability(g, "patent", depth) > 0.99

    def test_unknown_attribute_rejected(self, small_economy):
        _, (g, _, _, _) = small_economy
        with pytest.raises(InvalidArgument):
            attribute_availability(g, "unicorns", 1)

    def test_bad_depth_rejected(self, small_economy):
        _, (g, _, _, _) = small_economy
        with pytest.raises(InvalidArgument):
            attribute_availability(g, "patent", 5)


class TestPartnerCurve:
    def test_empty_buckets_omitted(self):
        from chainrisk.graph import SmeGraph

        # star graph: center has degree 5, leaves degree 1; no 6-10 or >10 nodes
        edges = [(0, v) for v in range(1, 6)]
        g = SmeGraph.from_edge_list(6, edges, np.zeros((6, 1)))
        labels = np.array([0, 1, 0, 1, 0, 1])
        curve = partner_default_curve(g, labels)
        assert [row["bucket"] for row in curve] == ["0-2", "3-5"]

    def test_counts_and_rates(self):
        from chainrisk.graph import SmeGraph

        g = SmeGraph.from_edge_list(4, [(0, 1)], np.zeros((4, 1)))
        labels = np.array([1, 0, 1, 1])
        (row,) = partner_default_curve(g, labels)
        assert row["bucket"] == "0-2"
        assert row["count"] == 4
        assert row["rate"] == 0.75

    def test_labels_must_cover_nodes(self, small_economy):
        _, (g, _, _, _) = small_economy
        with pytest.raises(InvalidArgument):
            partner_default_curve(g, np.array([0, 1]))


def _scan_blocks(tiers, sectors):
    """The sector blocks by two full-length masks per sector and tier."""
    blocks = []
    for s in range(int(sectors.max()) + 1):
        for t in (0, 1):
            rows = np.flatnonzero((sectors == s) & (tiers == t))
            cols = np.flatnonzero((sectors == s) & (tiers == t + 1))
            if rows.size and cols.size:
                blocks.append((rows, cols))
    return blocks


def _oracle_blocks(tiers, sectors, latent):
    """The sector blocks and distances as the set-based matcher took them."""
    return [(rows, cols, np.sum((latent[rows][:, None, :] - latent[cols][None, :, :]) ** 2, axis=2))
            for rows, cols in _scan_blocks(tiers, sectors)]


def _oracle_match(blocks, budgets, accept_breadth, n):
    """The matcher the rank rule replaced: per-firm proposal and acceptance sets."""
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


def _assert_matches_oracle(tiers, sectors, latent, budgets, accept_breadth):
    want = _oracle_match(_oracle_blocks(tiers, sectors, latent), budgets, accept_breadth, tiers.size)
    got = _match_blocks(_ranked_blocks(tiers, sectors, latent), budgets, accept_breadth, tiers.size)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@st.composite
def block_sets(draw):
    """Tiers, sectors, latents on a coarse grid (so distances tie often) and
    budgets up to past every block's size."""
    counts = draw(st.lists(st.integers(0, 24), min_size=3, max_size=3).filter(any))
    n = sum(counts)
    tiers = np.repeat(np.arange(3, dtype=np.int8), counts)
    sectors = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)), dtype=np.int64)
    latent = np.array(draw(st.lists(st.integers(-2, 2), min_size=2 * n, max_size=2 * n)), dtype=float)
    budgets = np.array(draw(st.lists(st.integers(1, 30), min_size=n, max_size=n)), dtype=np.int64)
    return tiers, sectors, 0.5 * latent.reshape(n, 2), budgets


@settings(max_examples=300, derandomize=True, deadline=None)
@given(block_sets(), st.sampled_from([1.0, 1.5, 3.0, 7.3]))
def test_rank_rule_matches_the_set_based_matcher(blocks, accept_breadth):
    tiers, sectors, latent, budgets = blocks
    if not _oracle_blocks(tiers, sectors, latent):
        with pytest.raises(InvalidConfig):
            _ranked_blocks(tiers, sectors, latent)
        return
    _assert_matches_oracle(tiers, sectors, latent, budgets, accept_breadth)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(block_sets(), st.data())
def test_hard_pool_filters_block_by_block_in_pool_order(blocks, data):
    """The pool equals filtering the concatenation of every block's keys."""
    tiers, sectors, _, _ = blocks
    n = tiers.size
    whole = np.concatenate([np.zeros(0, dtype=np.int64)]
                           + [(rows[:, None] * n + cols).reshape(-1) for rows, cols in _scan_blocks(tiers, sectors)])
    # all, every other or none of the admissible keys, and keys of any pair
    extra = data.draw(st.lists(st.integers(0, max(n * n - 1, 0)), max_size=40))
    taken = np.unique(np.concatenate([data.draw(st.sampled_from([whole, whole[::2], whole[:0]])),
                                      np.asarray(extra, dtype=np.int64)]))
    want = whole[~in_sorted(whole, taken)]
    got = _hard_pool(tiers, sectors, taken)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 4)), min_size=1, max_size=60))
def test_sector_blocks_match_the_mask_scan(firms):
    """Tiers and sectors in any order, with empty sides and empty sectors."""
    tiers = np.array([t for t, _ in firms], dtype=np.int8)
    sectors = np.array([s for _, s in firms], dtype=np.int64)
    got, want = list(_sector_blocks(tiers, sectors)), _scan_blocks(tiers, sectors)
    assert len(got) == len(want)
    for (rows, cols), (want_rows, want_cols) in zip(got, want):
        assert rows.tobytes() == want_rows.tobytes() and cols.tobytes() == want_cols.tobytes()


def test_rank_rule_skips_a_sector_with_an_empty_tier():
    # sector 1 has no tier-2 firm, so only its tier 0-1 block exists
    tiers = np.repeat(np.arange(3, dtype=np.int8), [6, 6, 4])
    sectors = np.array([0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 0, 0, 0])
    latent = np.round(np.random.default_rng(4).normal(size=(16, 2)))
    for accept_breadth in (1.0, 1.5, 3.0, 7.3):
        _assert_matches_oracle(tiers, sectors, latent, np.arange(16) % 5 + 1, accept_breadth)


def test_a_tiny_tier_share_still_gets_a_firm():
    shares = (0.01, 0.45, 0.54)
    assert largest_remainder(40, shares) == [1, 18, 21]
    _, _, _, truth = generate(GenConfig(num_smes=40, tier_shares=shares, sector_size=10))
    assert np.bincount(truth.tiers).tolist() == [1, 18, 21]


def test_a_tiny_middle_tier_is_rejected_as_a_config():
    shares = (0.45, 0.01, 0.54)
    assert largest_remainder(40, shares) == [18, 1, 21]
    with pytest.raises(InvalidConfig):
        generate(GenConfig(num_smes=40, tier_shares=shares, sector_size=10))


@pytest.mark.parametrize("overrides", [
    dict(num_smes=50, social_density=0.9),
    dict(num_smes=200, neg_ratio=1000),
    dict(num_smes=12, supply_density=0.999),
])
def test_more_negatives_than_free_pairs_is_rejected(overrides):
    with pytest.raises(InvalidConfig, match="neg_ratio"):
        generate(GenConfig(**overrides))


_open_unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(num_smes=st.integers(12, 80), seed=st.integers(0, 20), supply_density=_open_unit,
       hidden_fraction=_open_unit, social_density=_open_unit, hard_negative_fraction=st.floats(0.0, 1.0),
       neg_ratio=st.floats(0.0, 1000.0, exclude_min=True), sector_size=st.integers(10, 40),
       accept_breadth=st.floats(1.0, 8.0))
def test_generate_succeeds_or_rejects_the_config(**knobs):
    try:
        generate(GenConfig(**knobs))
    except InvalidConfig:
        pass
