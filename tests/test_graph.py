import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainrisk.errors import InvalidArgument, InvalidInput
from chainrisk.graph import (
    SPMM_SLICES,
    EnrichedGraph,
    NormalizedAdjacency,
    RowSums,
    SmeGraph,
    _csr_from_directed,
    enrich,
    in_sorted,
    normalize_adjacency,
    prepare_features,
    sample_pair_keys,
    sorted_unique,
    spmm,
    standardize_columns,
)

from conftest import check_graph, dense_from_csr, random_graph


class TestStandardize:
    def test_constant_columns_become_zero(self):
        X = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        out = standardize_columns(X)
        assert np.allclose(out[:, 1], 0.0)
        assert abs(out[:, 0].mean()) < 1e-12
        assert abs(out[:, 0].std() - 1.0) < 1e-12

    def test_no_rows_give_no_rows_and_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert standardize_columns(np.zeros((0, 3))).shape == (0, 3)

    def test_bit_identical_to_masked_column_division(self):
        """The masked division it replaced, on columns of mixed signs with a constant
        one in the middle: every byte, signs of zero included."""
        gen = np.random.default_rng(4)
        X = np.column_stack([gen.normal(size=50), np.full(50, -3.0), gen.normal(size=50) * 1e-3,
                             np.r_[np.zeros(49), -1.0]])
        mean, std = X.mean(axis=0), X.std(axis=0)
        expected = X - mean
        nonconst = std > 0.0
        expected[:, nonconst] /= std[nonconst]
        expected[:, ~nonconst] = 0.0
        assert standardize_columns(X).tobytes() == expected.tobytes()


class TestSmeGraph:
    def test_from_edge_list_builds_symmetric_csr(self):
        g = SmeGraph.from_edge_list(3, [(0, 1), (1, 2)], np.zeros((3, 2)))
        check_graph(g)
        assert list(g.degrees()) == [1, 2, 1]
        assert g.edge_keys().tolist() == [0 * 3 + 1, 1 * 3 + 2]
        assert in_sorted(np.array([0 * 3 + 1, 1 * 3 + 2, 0 * 3 + 2]), g.edge_keys()).tolist() == [
            True, True, False
        ]
        # hand-built CSR: row 0 holds (2, 1), out of order
        unsorted = SmeGraph(3, np.array([0, 2, 3, 4]), np.array([2, 1, 0, 0]),
                            np.zeros((3, 1)), np.zeros((2, 0)), np.full(3, "sme"))
        with pytest.raises(InvalidInput, match="row 0 not strictly increasing"):
            check_graph(unsorted)
        # hand-built CSR: row 1 lists column 0 twice
        repeated = SmeGraph(2, np.array([0, 1, 3]), np.array([1, 0, 0]),
                            np.zeros((2, 1)), np.zeros((1, 0)), np.full(2, "sme"))
        with pytest.raises(InvalidInput, match="row 1 not strictly increasing"):
            check_graph(repeated)

    def test_edge_features_follow_undirected_edge_order(self):
        feats = np.array([[1.0, 2.0], [3.0, 4.0]])
        g = SmeGraph.from_edge_list(3, [(2, 1), (0, 1)], np.zeros((3, 1)), edge_features=feats)
        check_graph(g)
        pairs, rows = g.undirected_edges()
        assert pairs.tolist() == [[0, 1], [1, 2]]
        assert np.array_equal(rows, feats[::-1])

    def test_duplicate_edges_rejected(self):
        with pytest.raises(InvalidInput):
            SmeGraph.from_edge_list(3, [(0, 1), (1, 0)], np.zeros((3, 1)))

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidInput):
            SmeGraph.from_edge_list(3, [(1, 1)], np.zeros((3, 1)))

    def test_bad_node_kind_rejected(self):
        with pytest.raises(InvalidInput):
            SmeGraph.from_edge_list(2, [(0, 1)], np.zeros((2, 1)), node_kind=["sme", "bank"])

    def test_long_node_kind_rejected_not_truncated(self):
        with pytest.raises(InvalidInput, match="node_kind tags"):
            SmeGraph.from_edge_list(2, [(0, 1)], np.zeros((2, 1)), node_kind=["sme", "consumerXYZ"])

    @pytest.mark.parametrize("table", ["node", "edge"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_features_rejected(self, table, bad):
        node_feats, edge_feats = np.zeros((3, 1)), np.zeros((2, 1))
        (node_feats if table == "node" else edge_feats)[1, 0] = bad
        with pytest.raises(InvalidInput, match=f"{table}_features contain non-finite values"):
            SmeGraph.from_edge_list(3, [(0, 1), (1, 2)], node_feats, edge_features=edge_feats)


class TestNormalization:
    def test_single_isolated_node(self):
        g = SmeGraph.from_edge_list(1, np.zeros((0, 2)), np.zeros((1, 1)))
        adj = normalize_adjacency(g)
        assert dense_from_csr(adj.num_nodes, adj.indptr, adj.indices, adj.values).tolist() == [[1.0]]

    def test_two_node_edge_gives_all_half(self):
        g = SmeGraph.from_edge_list(2, [(0, 1)], np.zeros((2, 1)))
        adj = normalize_adjacency(g)
        assert np.allclose(dense_from_csr(adj.num_nodes, adj.indptr, adj.indices, adj.values), 0.5)

    def test_path_graph_hand_values(self):
        # degrees+1 = (2, 3, 2)
        g = SmeGraph.from_edge_list(3, [(0, 1), (1, 2)], np.zeros((3, 1)))
        adj = normalize_adjacency(g)
        dense = dense_from_csr(3, adj.indptr, adj.indices, adj.values)
        assert abs(dense[0, 1] - 1.0 / np.sqrt(6.0)) < 1e-15
        assert abs(dense[1, 1] - 1.0 / 3.0) < 1e-15
        assert abs(dense[0, 0] - 0.5) < 1e-15

    def test_isolated_node_inside_larger_graph(self):
        g = SmeGraph.from_edge_list(3, [(0, 1)], np.zeros((3, 1)))
        adj = normalize_adjacency(g)
        dense = dense_from_csr(3, adj.indptr, adj.indices, adj.values)
        assert dense[2, 2] == 1.0
        assert np.all(dense[2, :2] == 0.0)

    def test_random_graphs_symmetric_with_spectrum_in_unit_interval(self, rng):
        for trial in range(20):
            n = int(rng.integers(2, 30))
            g = random_graph(rng, n, edge_prob=0.2)
            adj = normalize_adjacency(g)
            dense = dense_from_csr(n, adj.indptr, adj.indices, adj.values)
            assert np.max(np.abs(dense - dense.T)) <= 1e-12
            assert np.all(adj.values > 0.0) and np.all(adj.values <= 1.0)
            eigs = np.linalg.eigvalsh(dense)
            assert eigs.min() >= -1.0 - 1e-9
            assert eigs.max() <= 1.0 + 1e-9


    def test_built_once_kept_on_the_graph_and_read_only(self, rng):
        g = random_graph(rng, 12, edge_prob=0.3, num_features=2)
        adj = normalize_adjacency(g)
        assert normalize_adjacency(g) is adj is g.adjacency
        assert prepare_features(g) is prepare_features(g) is g.model_inputs
        for array in (adj.indptr, adj.indices, adj.values, g.model_inputs):
            assert not array.flags.writeable

    def test_model_inputs_standardize_and_append_a_ones_column(self, rng):
        g = random_graph(rng, 9, edge_prob=0.3, num_features=3)
        want = np.hstack([standardize_columns(g.node_features), np.ones((9, 1))])
        assert prepare_features(g).tobytes() == want.tobytes() and prepare_features(g).shape == (9, 4)


def sorted_normalization(g):
    """The normalized adjacency as it was built by sorting every entry with the self-loops appended."""
    n, deg = g.num_nodes, g.degrees()
    rows = np.concatenate([np.repeat(np.arange(n), deg), np.arange(n)])
    cols = np.concatenate([g.indices, np.arange(n)])
    indptr, indices = _csr_from_directed(n, rows, cols)
    dtilde = deg.astype(np.float64) + 1.0
    values = 1.0 / np.sqrt(dtilde[np.repeat(np.arange(n), np.diff(indptr))] * dtilde[indices])
    return indptr, indices, values


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.integers(1, 30), st.data())
@example(1, None)  # one node
@example(6, None)  # no edges
def test_normalization_matches_the_sorted_construction(n, data):
    """Self-loops inserted into the sorted rows give the sort's arrays byte for
    byte, with isolated nodes, hubs and empty graphs among the draws."""
    pairs = [] if data is None else data.draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    keys = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
    g = SmeGraph.from_edge_list(n, np.array(keys, dtype=np.int64).reshape(-1, 2), np.zeros((n, 1)))
    adj = normalize_adjacency(g)
    for got, want in zip((adj.indptr, adj.indices, adj.values), sorted_normalization(g), strict=True):
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


class TestSpmm:
    def test_single_node_identity(self):
        g = SmeGraph.from_edge_list(1, np.zeros((0, 2)), np.zeros((1, 1)))
        adj = normalize_adjacency(g)
        H = np.array([[3.0, -1.0]])
        assert np.array_equal(spmm(adj, H), H)

    def test_two_node_average(self):
        g = SmeGraph.from_edge_list(2, [(0, 1)], np.zeros((2, 1)))
        adj = normalize_adjacency(g)
        assert spmm(adj, np.array([[1.0], [3.0]])).tolist() == [[2.0], [2.0]]

    def test_matches_dense_oracle(self, rng):
        g = random_graph(rng, 8, edge_prob=0.4)
        adj = normalize_adjacency(g)
        H = rng.normal(size=(8, 5))
        dense = dense_from_csr(8, adj.indptr, adj.indices, adj.values)
        assert np.max(np.abs(spmm(adj, H) - dense @ H)) < 1e-12

    def test_empty_rows_produce_zeros(self):
        # raw adjacency (no self-loops) exercised through a hand-built operator
        from chainrisk.graph import NormalizedAdjacency

        adj = NormalizedAdjacency(
            num_nodes=3,
            indptr=np.array([0, 1, 1, 1]),
            indices=np.array([2]),
            values=np.array([2.0]),
        )
        out = spmm(adj, np.arange(6.0).reshape(3, 2))
        assert out.tolist() == [[8.0, 10.0], [0.0, 0.0], [0.0, 0.0]]

    def test_shape_mismatch_rejected(self):
        g = SmeGraph.from_edge_list(2, [(0, 1)], np.zeros((2, 1)))
        adj = normalize_adjacency(g)
        with pytest.raises(InvalidArgument):
            spmm(adj, np.ones((3, 2)))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.integers(0, 6), max_size=14), st.integers(0, 8))
@example([], 3)  # no rows
@example([0, 0, 0], 2)  # every row empty
@example([5], 2)  # a single row, longer than the depth
@example([0, 3, 0, 3, 1], 2)  # empty rows and ties
def test_row_sums_layout_matches_a_per_row_listing(counts, depth):
    indptr = np.r_[0, np.cumsum(counts)].astype(np.int64)
    sums = RowSums(indptr, np.arange(indptr[-1]), int(indptr[-1]), depth)  # entry i gathers input row i
    by_count = sorted(range(len(counts)), key=lambda r: -counts[r])  # Python's sort is stable
    depth = min(depth, max(counts, default=0))
    zero_row = sum(c > 0 for c in counts)
    assert sums.rank.tolist() == [by_count.index(r) if counts[r] else zero_row for r in range(len(counts))]
    assert [rows.tolist() for rows, _ in sums.slices] == [[indptr[r] + k for r in by_count if counts[r] > k]
                                                          for k in range(depth)]
    assert all(values is None for _, values in sums.slices)
    hubs = [r for r in by_count if counts[r] > depth]
    if not hubs:
        assert sums.hubs is None
        return
    rows, values, seg = sums.hubs
    assert rows.tolist() == [indptr[r] + k for r in hubs for k in range(depth, counts[r])] and values is None
    assert seg.tolist() == np.r_[0, np.cumsum([counts[r] - depth for r in hubs])[:-1]].tolist()


def reduceat_spmm(adj, H):
    """The kernel `spmm` used before the sliced layout: one nnz x d
    contribution array reduced per CSR row with np.add.reduceat."""
    out = np.zeros((adj.num_nodes, H.shape[1]))
    if adj.indices.size == 0:
        return out
    contrib = H[adj.indices]
    contrib *= adj.values[:, None]
    nonempty = np.diff(adj.indptr) > 0
    out[nonempty] = np.add.reduceat(contrib, adj.indptr[:-1][nonempty], axis=0)
    return out


@st.composite
def operators(draw, max_row):
    """A normalized adjacency, or a hand-built operator with empty rows,
    whose rows hold at most `max_row` entries."""
    n = draw(st.integers(1, min(max_row + 8, 3 * SPMM_SLICES)))
    if draw(st.booleans()):
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
        if draw(st.booleans()):  # a star whose hub may outgrow the slices
            pairs += [(0, v) for v in range(1, n)]
        deg, keys = np.zeros(n, dtype=int), set()
        for u, v in pairs:
            key = (min(u, v), max(u, v))
            if u != v and key not in keys and max(deg[u], deg[v]) < max_row - 1:
                keys.add(key)
                deg[[u, v]] += 1
        edges = np.array(sorted(keys), dtype=np.int64).reshape(-1, 2)
        return normalize_adjacency(SmeGraph.from_edge_list(n, edges, np.zeros((n, 1))))
    row_strategy = st.one_of(st.just([]), st.just(list(range(min(n, max_row)))),
                             st.sets(st.integers(0, n - 1), max_size=min(n, max_row, 6)).map(sorted))
    rows = [draw(row_strategy) for _ in range(n)]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=indptr[1:])
    indices = np.array([c for r in rows for c in r], dtype=np.int64)
    values = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=indices.size)
    return NormalizedAdjacency(num_nodes=n, indptr=indptr, indices=indices, values=values)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(operators(max_row=3 * SPMM_SLICES), st.integers(0, 4), st.integers(0, 2**32 - 1))
def test_spmm_matches_dense_oracle(adj, d, seed):
    H = np.random.default_rng(seed).normal(size=(adj.num_nodes, d))
    dense = dense_from_csr(adj.num_nodes, adj.indptr, adj.indices, adj.values)
    out = spmm(adj, H)
    assert out.shape == (adj.num_nodes, d)
    assert np.max(np.abs(out - dense @ H), initial=0.0) <= 1e-12


@settings(max_examples=150, derandomize=True, deadline=None)
@given(operators(max_row=8), st.integers(0, 4), st.integers(0, 2**32 - 1))
def test_spmm_is_bit_identical_to_reduceat_on_short_rows(adj, d, seed):
    H = np.random.default_rng(seed).normal(size=(adj.num_nodes, d))
    assert spmm(adj, H).tobytes() == reduceat_spmm(adj, H).tobytes()


def test_spmm_layout_of_a_large_star_stays_within_the_slice_cap():
    n = 50_001
    g = SmeGraph.from_edge_list(n, np.column_stack([np.zeros(n - 1, dtype=np.int64), np.arange(1, n)]),
                                np.zeros((n, 1)))
    adj = normalize_adjacency(g)
    assert len(adj.sums.slices) <= SPMM_SLICES
    assert adj.sums.hubs is not None
    H = np.random.default_rng(0).normal(size=(n, 3))
    assert np.max(np.abs(spmm(adj, H) - reduceat_spmm(adj, H))) <= 1e-12


def star_with_chords(n, seed):
    """Node 0 joined to every other node (a hub row past SPMM_SLICES entries), plus random chords."""
    gen = np.random.default_rng(seed)
    chords = gen.integers(1, n, size=(2 * n, 2))
    keys = np.unique(np.sort(np.vstack([np.column_stack([np.zeros(n - 1, dtype=np.int64), np.arange(1, n)]),
                                        chords[chords[:, 0] != chords[:, 1]]]), axis=1) @ [n, 1])
    return SmeGraph.from_edge_list(n, np.column_stack([keys // n, keys % n]), gen.normal(size=(n, 2)))


class TestAdjacencyRows:
    @pytest.mark.parametrize("nodes", [[0, 1], [0, 5, 17, 99], [3, 4, 60], list(range(100))])
    def test_equals_the_full_product_rows_with_a_hub(self, nodes):
        adj = normalize_adjacency(star_with_chords(100, 7))
        assert np.diff(adj.indptr)[0] > SPMM_SLICES
        nodes = np.asarray(nodes)
        H = np.random.default_rng(1).normal(size=(100, 5))
        assert spmm(adj.rows(nodes), H).tobytes() == spmm(adj, H)[nodes].tobytes()

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(operators(max_row=3 * SPMM_SLICES), st.integers(0, 4), st.data())
    def test_equals_the_full_product_rows(self, adj, d, data):
        picked = data.draw(st.sets(st.integers(0, adj.num_nodes - 1)))
        nodes = np.array(sorted(picked), dtype=np.int64)
        H = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).normal(size=(adj.num_nodes, d))
        rows = adj.rows(nodes)
        assert rows.indices.size == int(np.sum(np.diff(adj.indptr)[nodes]))
        assert spmm(rows, H).tobytes() == spmm(adj, H)[nodes].tobytes()

    def test_neither_builds_the_full_layout(self):
        adj = normalize_adjacency(star_with_chords(40, 2))
        spmm(adj.rows(np.array([0, 3])), np.ones((40, 1)))
        assert "sums" not in vars(adj)
        spmm(adj, np.ones((40, 1)))
        assert "sums" in vars(adj)


def test_malformed_operator_rejected():
    with pytest.raises(InvalidArgument):
        NormalizedAdjacency(num_nodes=2, indptr=np.array([0, 1, 2]), indices=np.array([0, 2]),
                            values=np.ones(2))
    with pytest.raises(InvalidArgument):
        NormalizedAdjacency(num_nodes=2, indptr=np.array([0, 2, 1]), indices=np.array([0]),
                            values=np.ones(1))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.lists(st.integers(-50, 50), max_size=40), st.lists(st.integers(-50, 50), max_size=40))
def test_key_set_helpers_match_numpy(a, b):
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    assert np.array_equal(sorted_unique(a), np.unique(a))
    assert np.array_equal(in_sorted(a, np.unique(b)), np.isin(a, b))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.integers(1, 12), st.data())
def test_csr_build_matches_lexsort_order(n, data):
    keys = data.draw(st.lists(st.integers(0, n * n - 1), unique=True, max_size=60))
    rows, cols = np.divmod(np.asarray(keys, dtype=np.int64), n)
    indptr, indices = _csr_from_directed(n, rows, cols)
    counts = np.bincount(rows, minlength=n)
    assert indptr.tobytes() == np.r_[0, np.cumsum(counts)].astype(np.int64).tobytes()
    assert (indices.dtype, indices.tobytes()) == (np.int64, cols[np.lexsort((cols, rows))].tobytes())


def sequential_sampler_oracle(gen, n, count, forbidden, draws, nodes=None, max_rounds=None):
    """The per-draw loop the generator and `sample_negatives` ran before
    `sample_pair_keys` replaced it."""
    size = n if nodes is None else len(nodes)
    chosen = set()
    rounds = 0
    while len(chosen) < count and (max_rounds is None or rounds < max_rounds):
        us = gen.integers(0, size, size=draws(count - len(chosen)))
        vs = gen.integers(0, size, size=us.size)
        if nodes is not None:
            us, vs = nodes[us], nodes[vs]
        for u, v in zip(us.tolist(), vs.tolist()):
            if u == v or len(chosen) >= count:
                continue
            key = min(u, v) * n + max(u, v)
            if key not in forbidden:
                chosen.add(key)
        rounds += 1
    return sorted(chosen)


DRAW_RULES = (lambda need: 2 * need, lambda need: max(64, 2 * need), lambda need: 4 * need)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.data())
def test_sample_pair_keys_matches_sequential_loop(data):
    n = data.draw(st.integers(2, 12))
    nodes = data.draw(st.one_of(st.none(), st.permutations(range(n)).map(np.array)))
    if nodes is not None:
        nodes = nodes[: data.draw(st.integers(2, n))]
    pool = {min(u, v) * n + max(u, v) for u in (range(n) if nodes is None else nodes.tolist())
            for v in (range(n) if nodes is None else nodes.tolist()) if u != v}
    forbidden = sorted(data.draw(st.sets(st.sampled_from(sorted(pool)))))
    max_rounds = data.draw(st.one_of(st.none(), st.integers(1, 3)))
    count = data.draw(st.integers(0, len(pool) - len(forbidden) if max_rounds is None else len(pool)))
    draws = data.draw(st.sampled_from(DRAW_RULES))
    seed = data.draw(st.integers(0, 2**32 - 1))
    gen_a, gen_b = np.random.default_rng(seed), np.random.default_rng(seed)
    got = sample_pair_keys(gen_a, n, count, np.asarray(forbidden, dtype=np.int64), draws,
                           nodes=nodes, max_rounds=max_rounds)
    expected = sequential_sampler_oracle(gen_b, n, count, set(forbidden), draws,
                                         nodes=nodes, max_rounds=max_rounds)
    assert got.dtype == np.int64 and got.tolist() == expected
    assert gen_a.integers(0, 2**62) == gen_b.integers(0, 2**62)  # same share of the stream


def enrich_dict_oracle(num_nodes, edges, mined, tau):
    """Best score per canonical non-edge pair at or above tau, sorted by pair."""
    observed = {(min(u, v), max(u, v)) for u, v in edges}
    best = {}
    for u, v, s in mined:
        key = (min(u, v), max(u, v))
        if u == v or s < tau or key in observed:
            continue
        best[key] = max(best.get(key, s), s)
    return [(u, v, s) for (u, v), s in sorted(best.items())]


def as_arrays(triples):
    """(pairs, scores) arrays from (u, v, score) triples."""
    pairs = np.asarray([(u, v) for u, v, _ in triples], dtype=np.int64).reshape(-1, 2)
    return pairs, np.asarray([s for _, _, s in triples], dtype=np.float64)


def mined_triples(eg):
    return [(int(u), int(v), float(s)) for (u, v), s in zip(eg.mined_pairs, eg.mined_scores)]


class TestEnrich:
    def _graph(self):
        return SmeGraph.from_edge_list(
            5, [(0, 1), (1, 2)], np.zeros((5, 2)), edge_features=np.ones((2, 1))
        )

    def test_empty_mined_keeps_adjacency(self):
        g = self._graph()
        eg = enrich(g, as_arrays([]), tau=0.5)
        assert eg.num_mined == 0
        view = eg.graph()
        assert view is g
        assert np.array_equal(view.indptr, g.indptr)
        assert np.array_equal(view.indices, g.indices)

    def test_view_takes_the_base_model_inputs_and_its_own_adjacency(self):
        g = self._graph()
        view = enrich(g, as_arrays([(0, 3, 0.9)]), tau=0.5).graph()
        assert prepare_features(view) is prepare_features(g)
        assert normalize_adjacency(view).indices.size == normalize_adjacency(g).indices.size + 2

    def test_observed_duplicates_are_dropped(self):
        g = self._graph()
        eg = enrich(g, as_arrays([(0, 1, 0.9)]), tau=0.5)
        assert eg.num_mined == 0

    def test_matches_linear_scan_oracle(self, rng):
        g = self._graph()
        observed = {(0, 1), (1, 2)}
        cands = []
        seen = set()
        while len(cands) < 100:
            u, v = int(rng.integers(0, 5)), int(rng.integers(0, 5))
            if u == v:
                continue
            u, v = min(u, v), max(u, v)
            if (u, v) in seen:
                continue
            seen.add((u, v))
            cands.append((u, v, float(rng.random())))
            if len(seen) == 8:
                break
        expected = {(u, v) for u, v, s in cands if s >= 0.7 and (u, v) not in observed}
        eg = enrich(g, as_arrays(cands), tau=0.7)
        assert {(u, v) for u, v, _ in mined_triples(eg)} == expected

    def test_monotone_in_tau(self, rng):
        g = self._graph()
        cands = as_arrays([(0, 2, 0.95), (0, 3, 0.6), (2, 4, 0.8), (3, 4, 0.3)])
        kept = {}
        for tau in (0.2, 0.5, 0.9):
            kept[tau] = {(u, v) for u, v, _ in mined_triples(enrich(g, cands, tau))}
        assert kept[0.9] <= kept[0.5] <= kept[0.2]

    def test_idempotent_for_fixed_inputs(self):
        g = self._graph()
        cands = as_arrays([(0, 2, 0.95), (3, 4, 0.75)])
        a = enrich(g, cands, tau=0.7)
        b = enrich(g, cands, tau=0.7)
        assert np.array_equal(a.mined_pairs, b.mined_pairs)
        assert np.array_equal(a.mined_scores, b.mined_scores)

    def test_scores_respect_threshold(self):
        g = self._graph()
        eg = enrich(g, as_arrays([(0, 2, 0.71), (0, 3, 0.69)]), tau=0.7)
        assert np.all(eg.mined_scores >= 0.7)
        assert eg.num_mined == 1

    def test_duplicate_candidates_keep_best_score(self):
        g = self._graph()
        eg = enrich(g, as_arrays([(0, 2, 0.8), (2, 0, 0.9)]), tau=0.7)
        assert mined_triples(eg) == [(0, 2, 0.9)]

    def test_bad_tau_rejected(self):
        with pytest.raises(InvalidArgument):
            enrich(self._graph(), as_arrays([]), tau=1.5)

    def test_tau_one_keeps_only_certain_scores(self):
        g = self._graph()
        eg = enrich(g, as_arrays([(0, 2, 0.9999), (0, 3, 1.0)]), tau=1.0)
        assert mined_triples(eg) == [(0, 3, 1.0)]

    def test_tau_zero_retains_every_candidate(self):
        g = self._graph()
        eg = enrich(g, as_arrays([(0, 2, 0.0), (0, 3, 0.4), (2, 4, 0.9)]), tau=0.0)
        assert eg.num_mined == 3

    def test_bad_score_rejected(self):
        with pytest.raises(InvalidInput):
            enrich(self._graph(), as_arrays([(0, 2, 1.2)]), tau=0.5)

    def test_mined_edges_carry_zero_feature_rows(self):
        g = self._graph()
        eg = enrich(g, as_arrays([(0, 2, 0.9)]), tau=0.5)
        view = eg.graph()
        check_graph(view)
        pairs, feats = view.undirected_edges()
        assert pairs.tolist() == [[0, 1], [0, 2], [1, 2]]
        assert feats.tolist() == [[1.0], [0.0], [1.0]]

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.sampled_from((0.0, 0.3, 0.7, 0.7, 1.0))),
                 max_size=25),
        st.sampled_from((0.0, 0.5, 0.7, 1.0)),
    )
    def test_triples_and_arrays_match_dict_oracle(self, mined, tau):
        g = SmeGraph.from_edge_list(6, [(0, 1), (1, 2), (4, 5)], np.zeros((6, 1)))
        expected = enrich_dict_oracle(6, [(0, 1), (1, 2), (4, 5)], mined, tau)
        eg = enrich(g, as_arrays(mined), tau)
        assert mined_triples(eg) == expected
        assert eg.mined_pairs.dtype == np.int64 and eg.mined_pairs.shape == (len(expected), 2)
        assert eg.mined_scores.dtype == np.float64

    def test_array_form_needs_one_score_per_pair(self):
        with pytest.raises(InvalidArgument):
            enrich(self._graph(), (np.array([[0, 2], [0, 3]]), np.array([0.9])), tau=0.5)
