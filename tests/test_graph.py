import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainrisk.errors import InvalidArgument, InvalidInput
from chainrisk.graph import (
    EnrichedGraph,
    SmeGraph,
    enrich,
    in_sorted,
    normalize_adjacency,
    sample_pair_keys,
    sorted_unique,
    spmm,
    standardize_columns,
)

from conftest import dense_from_csr, random_graph


class TestStandardize:
    def test_constant_columns_become_zero(self):
        X = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        out = standardize_columns(X)
        assert np.allclose(out[:, 1], 0.0)
        assert abs(out[:, 0].mean()) < 1e-12
        assert abs(out[:, 0].std() - 1.0) < 1e-12


class TestSmeGraph:
    def test_from_edge_list_builds_symmetric_csr(self):
        g = SmeGraph.from_edge_list(3, [(0, 1), (1, 2)], np.zeros((3, 2)))
        g.validate()
        assert list(g.degrees()) == [1, 2, 1]
        assert g.edge_keys().tolist() == [0 * 3 + 1, 1 * 3 + 2]
        assert in_sorted(np.array([0 * 3 + 1, 1 * 3 + 2, 0 * 3 + 2]), g.edge_keys()).tolist() == [
            True, True, False
        ]
        # hand-built CSR: row 0 holds (2, 1), out of order
        unsorted = SmeGraph(3, np.array([0, 2, 3, 4]), np.array([2, 1, 0, 0]),
                            np.zeros((3, 1)), np.zeros((2, 0)), np.full(3, "sme"))
        with pytest.raises(InvalidInput, match="row 0 not strictly increasing"):
            unsorted.validate()
        # hand-built CSR: row 1 lists column 0 twice
        repeated = SmeGraph(2, np.array([0, 1, 3]), np.array([1, 0, 0]),
                            np.zeros((2, 1)), np.zeros((1, 0)), np.full(2, "sme"))
        with pytest.raises(InvalidInput, match="row 1 not strictly increasing"):
            repeated.validate()

    def test_edge_features_follow_undirected_edge_order(self):
        feats = np.array([[1.0, 2.0], [3.0, 4.0]])
        g = SmeGraph.from_edge_list(3, [(2, 1), (0, 1)], np.zeros((3, 1)), edge_features=feats)
        g.validate()
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


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.lists(st.integers(-50, 50), max_size=40), st.lists(st.integers(-50, 50), max_size=40))
def test_key_set_helpers_match_numpy(a, b):
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    assert np.array_equal(sorted_unique(a), np.unique(a))
    assert np.array_equal(in_sorted(a, np.unique(b)), np.isin(a, b))


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


class TestEnrich:
    def _graph(self):
        return SmeGraph.from_edge_list(
            5, [(0, 1), (1, 2)], np.zeros((5, 2)), edge_features=np.ones((2, 1))
        )

    def test_empty_mined_keeps_adjacency(self):
        g = self._graph()
        eg = enrich(g, [], tau=0.5)
        assert eg.num_mined == 0
        view = eg.graph()
        assert view is g
        assert np.array_equal(view.indptr, g.indptr)
        assert np.array_equal(view.indices, g.indices)

    def test_observed_duplicates_are_dropped(self):
        g = self._graph()
        eg = enrich(g, [(0, 1, 0.9)], tau=0.5)
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
        eg = enrich(g, cands, tau=0.7)
        assert {(u, v) for u, v, _ in eg.mined_edges()} == expected

    def test_monotone_in_tau(self, rng):
        g = self._graph()
        cands = [(0, 2, 0.95), (0, 3, 0.6), (2, 4, 0.8), (3, 4, 0.3)]
        kept = {}
        for tau in (0.2, 0.5, 0.9):
            kept[tau] = {(u, v) for u, v, _ in enrich(g, cands, tau).mined_edges()}
        assert kept[0.9] <= kept[0.5] <= kept[0.2]

    def test_idempotent_for_fixed_inputs(self):
        g = self._graph()
        cands = [(0, 2, 0.95), (3, 4, 0.75)]
        a = enrich(g, cands, tau=0.7)
        b = enrich(g, cands, tau=0.7)
        assert np.array_equal(a.mined_pairs, b.mined_pairs)
        assert np.array_equal(a.mined_scores, b.mined_scores)

    def test_scores_respect_threshold(self):
        g = self._graph()
        eg = enrich(g, [(0, 2, 0.71), (0, 3, 0.69)], tau=0.7)
        assert np.all(eg.mined_scores >= 0.7)
        assert eg.num_mined == 1

    def test_duplicate_candidates_keep_best_score(self):
        g = self._graph()
        eg = enrich(g, [(0, 2, 0.8), (2, 0, 0.9)], tau=0.7)
        assert eg.mined_edges() == [(0, 2, 0.9)]

    def test_bad_tau_rejected(self):
        with pytest.raises(InvalidArgument):
            enrich(self._graph(), [], tau=1.5)

    def test_tau_one_keeps_only_certain_scores(self):
        g = self._graph()
        eg = enrich(g, [(0, 2, 0.9999), (0, 3, 1.0)], tau=1.0)
        assert eg.mined_edges() == [(0, 3, 1.0)]

    def test_tau_zero_retains_every_candidate(self):
        g = self._graph()
        eg = enrich(g, [(0, 2, 0.0), (0, 3, 0.4), (2, 4, 0.9)], tau=0.0)
        assert eg.num_mined == 3

    def test_bad_score_rejected(self):
        with pytest.raises(InvalidInput):
            enrich(self._graph(), [(0, 2, 1.2)], tau=0.5)

    def test_mined_edges_carry_zero_feature_rows(self):
        g = self._graph()
        eg = enrich(g, [(0, 2, 0.9)], tau=0.5)
        view = eg.graph()
        view.validate()
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
        pairs = np.asarray([(u, v) for u, v, _ in mined], dtype=np.int64).reshape(-1, 2)
        scores = np.asarray([s for _, _, s in mined], dtype=np.float64)
        from_triples = enrich(g, mined, tau)
        from_arrays = enrich(g, (pairs, scores), tau)
        assert from_triples.mined_edges() == expected
        for eg in (from_triples, from_arrays):
            assert eg.mined_pairs.dtype == np.int64 and eg.mined_pairs.shape == (len(expected), 2)
            assert eg.mined_scores.dtype == np.float64
        assert from_arrays.mined_pairs.tobytes() == from_triples.mined_pairs.tobytes()
        assert from_arrays.mined_scores.tobytes() == from_triples.mined_scores.tobytes()

    def test_array_form_needs_one_score_per_pair(self):
        with pytest.raises(InvalidArgument):
            enrich(self._graph(), (np.array([[0, 2], [0, 3]]), np.array([0.9])), tau=0.5)
