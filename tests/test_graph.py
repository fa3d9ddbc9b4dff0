import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainrisk.errors import InvalidArgument, InvalidInput
from chainrisk.graph import (
    EnrichedGraph,
    SmeGraph,
    build_graph_from_similarity,
    enrich,
    in_sorted,
    normalize_adjacency,
    sorted_unique,
    spmm,
    standardize_columns,
)

from conftest import dense_from_csr, random_graph


def knn_union_oracle(X, k):
    """Brute-force cosine kNN with low-index tie break, then union symmetrize."""
    n = len(X)
    sims = np.zeros((n, n))
    for u in range(n):
        for v in range(n):
            nu = np.linalg.norm(X[u])
            nv = np.linalg.norm(X[v])
            sims[u, v] = 0.0 if nu == 0 or nv == 0 else float(np.dot(X[u], X[v]) / (nu * nv))
    edges = set()
    for u in range(n):
        others = sorted((v for v in range(n) if v != u), key=lambda v: (-sims[u, v], v))
        for v in others[:k]:
            edges.add((min(u, v), max(u, v)))
    return edges


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
        assert g.has_edge(1, 0) and g.has_edge(1, 2)
        assert not g.has_edge(0, 2)

    def test_edge_features_mirrored_on_both_directions(self):
        feats = np.array([[1.0, 2.0], [3.0, 4.0]])
        g = SmeGraph.from_edge_list(3, [(0, 1), (1, 2)], np.zeros((3, 1)), edge_features=feats)
        g.validate()
        pairs, rows = g.undirected_edges()
        assert pairs.tolist() == [[0, 1], [1, 2]]
        assert np.array_equal(rows, feats)

    def test_duplicate_edges_rejected(self):
        with pytest.raises(InvalidInput):
            SmeGraph.from_edge_list(3, [(0, 1), (1, 0)], np.zeros((3, 1)))

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidInput):
            SmeGraph.from_edge_list(3, [(1, 1)], np.zeros((3, 1)))

    def test_bad_node_kind_rejected(self):
        with pytest.raises(InvalidInput):
            SmeGraph.from_edge_list(2, [(0, 1)], np.zeros((2, 1)), node_kind=["sme", "bank"])


class TestSimilarityConstruction:
    def test_identical_rows_link_to_each_other(self):
        X = np.array([[1.0, 2.0], [1.0, 2.0]])
        g = build_graph_from_similarity(X, k=1)
        pairs, _ = g.undirected_edges()
        assert pairs.tolist() == [[0, 1]]

    def test_orthogonal_rows_break_ties_by_index(self):
        # all similarities are 0, so every node picks its lowest-index peer
        X = np.eye(3)
        g = build_graph_from_similarity(X, k=1)
        pairs, _ = g.undirected_edges()
        assert set(map(tuple, pairs.tolist())) == knn_union_oracle(X, 1) == {(0, 1), (0, 2)}

    def test_union_symmetrization_keeps_degree_at_least_k(self, rng):
        X = rng.normal(size=(10, 4))
        g = build_graph_from_similarity(X, k=3)
        assert np.all(g.degrees() >= 3)

    def test_matches_bruteforce_oracle(self, rng):
        X = rng.normal(size=(12, 3))
        g = build_graph_from_similarity(X, k=2)
        pairs, _ = g.undirected_edges()
        assert set(map(tuple, pairs.tolist())) == knn_union_oracle(X, 2)

    def test_permutation_equivariance_without_ties(self, rng):
        X = rng.normal(size=(9, 5))
        perm = rng.permutation(9)
        g = build_graph_from_similarity(X, k=2)
        gp = build_graph_from_similarity(X[perm], k=2)
        # relabel original edges through the permutation's inverse
        inv = np.argsort(perm)
        pairs, _ = g.undirected_edges()
        relabeled = {(min(inv[u], inv[v]), max(inv[u], inv[v])) for u, v in pairs.tolist()}
        ppairs, _ = gp.undirected_edges()
        assert relabeled == set(map(tuple, ppairs.tolist()))

    def test_k_too_large_rejected(self):
        with pytest.raises(InvalidArgument):
            build_graph_from_similarity(np.eye(3), k=3)

    def test_nonfinite_features_rejected(self):
        X = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(InvalidInput):
            build_graph_from_similarity(X, k=1)


class TestNormalization:
    def test_single_isolated_node(self):
        g = SmeGraph.from_edge_list(1, np.zeros((0, 2)), np.zeros((1, 1)))
        adj = normalize_adjacency(g)
        assert adj.dense().tolist() == [[1.0]]

    def test_two_node_edge_gives_all_half(self):
        g = SmeGraph.from_edge_list(2, [(0, 1)], np.zeros((2, 1)))
        adj = normalize_adjacency(g)
        assert np.allclose(adj.dense(), 0.5)

    def test_path_graph_hand_values(self):
        # degrees+1 = (2, 3, 2)
        g = SmeGraph.from_edge_list(3, [(0, 1), (1, 2)], np.zeros((3, 1)))
        dense = normalize_adjacency(g).dense()
        assert abs(dense[0, 1] - 1.0 / np.sqrt(6.0)) < 1e-15
        assert abs(dense[1, 1] - 1.0 / 3.0) < 1e-15
        assert abs(dense[0, 0] - 0.5) < 1e-15

    def test_isolated_node_inside_larger_graph(self):
        g = SmeGraph.from_edge_list(3, [(0, 1)], np.zeros((3, 1)))
        dense = normalize_adjacency(g).dense()
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

    def test_provenance_column_marks_mined_edges(self):
        g = self._graph()
        eg = enrich(g, [(0, 2, 0.9)], tau=0.5)
        view = eg.graph()
        view.validate()
        pairs, feats = view.undirected_edges()
        flag = dict(zip(map(tuple, pairs.tolist()), feats[:, -1].tolist()))
        assert flag[(0, 2)] == 1.0
        assert flag[(0, 1)] == 0.0 and flag[(1, 2)] == 0.0
        # mined edges carry zero payloads in the original feature columns
        mined_row = feats[pairs.tolist().index([0, 2])]
        assert np.all(mined_row[:-1] == 0.0)

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
