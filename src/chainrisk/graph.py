"""Sparse undirected graph types and kernels.

Adjacency lives in CSR form: `indptr` of length n+1 and `indices` sorted
strictly increasing within each row. The raw adjacency is unweighted and
stores both directions of every undirected edge; edge features are a plain
table with one row per undirected edge, in the order of
`SmeGraph.undirected_edges()`. Normalization produces the symmetric
operator with self-loops that the propagation step multiplies by.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgument, InvalidInput

NODE_KINDS = ("sme", "owner", "consumer")


def standardize_columns(X):
    """Zero-mean, unit-variance per column; constant columns map to zeros."""
    X = np.asarray(X, dtype=np.float64)
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    out = X - mean
    nonconst = std > 0.0
    out[:, nonconst] /= std[nonconst]
    out[:, ~nonconst] = 0.0
    return out


def _csr_from_directed(num_nodes, rows, cols):
    """Build sorted CSR arrays (indptr, indices) from directed entry lists."""
    order = np.lexsort((cols, rows))
    counts = np.bincount(rows, minlength=num_nodes)
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, cols[order].astype(np.int64)


def sorted_unique(keys):
    """np.unique(keys) for 1-d integer keys, by a single sort.

    On millions of `u * n + v` keys numpy's hash-based unique is over 20x
    slower than this.
    """
    keys = np.sort(keys)
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def in_sorted(keys, sorted_keys):
    """np.isin(keys, sorted_keys) by binary search.

    `sorted_keys` must be sorted and duplicate-free. np.isin sorts the
    concatenation of both arrays instead, which is over 10x slower on
    millions of keys.
    """
    pos = np.searchsorted(sorted_keys, keys)
    hit = pos < sorted_keys.size
    hit[hit] = sorted_keys[pos[hit]] == keys[hit]
    return hit


def sample_pair_keys(gen, n, count, forbidden, draws, nodes=None, max_rounds=None):
    """Up to `count` distinct uniform pairs as sorted keys u * n + v (u < v).

    Each round draws `draws(need)` endpoints u, then as many v, from `nodes`
    (all of [0, n) by default) with `gen`, and accepts the pairs in draw
    order, first occurrence only, skipping self-pairs, keys in the sorted
    duplicate-free array `forbidden` and keys already taken, until `count`
    are taken; `max_rounds` caps the rounds, so fewer may come back.
    """
    keys = np.zeros(0, dtype=np.int64)
    size = n if nodes is None else nodes.size
    rounds = 0
    while keys.size < count and (max_rounds is None or rounds < max_rounds):
        us = gen.integers(0, size, size=draws(count - keys.size))
        vs = gen.integers(0, size, size=us.size)
        if nodes is not None:
            us, vs = nodes[us], nodes[vs]
        drawn = np.minimum(us, vs) * n + np.maximum(us, vs)
        ok = (us != vs) & ~in_sorted(drawn, forbidden) & ~in_sorted(drawn, keys)
        drawn = drawn[ok]
        _, first = np.unique(drawn, return_index=True)
        fresh = drawn[np.sort(first)][: count - keys.size]
        keys = sorted_unique(np.concatenate([keys, fresh]))
        rounds += 1
    return keys


@dataclass
class SmeGraph:
    """Undirected enterprise graph with node and per-edge feature tables."""

    num_nodes: int
    indptr: np.ndarray
    indices: np.ndarray
    node_features: np.ndarray
    edge_features: np.ndarray
    node_kind: np.ndarray

    @classmethod
    def from_edge_list(cls, num_nodes, edges, node_features, edge_features=None, node_kind=None):
        """Construct from unique undirected edges given as (u, v) pairs.

        Pairs may come in either order; duplicates and self-loops are
        rejected. `edge_features` has one row per given edge; it is stored
        reordered to match `undirected_edges()`.
        """
        node_features = np.asarray(node_features, dtype=np.float64)
        if node_features.ndim != 2 or node_features.shape[0] != num_nodes:
            raise InvalidInput(f"node_features must be ({num_nodes}, F), got {node_features.shape}")
        if not np.all(np.isfinite(node_features)):
            raise InvalidInput("node_features contain non-finite values")
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        m = edges.shape[0]
        if m > 0:
            if edges.min() < 0 or edges.max() >= num_nodes:
                raise InvalidInput("edge endpoint out of range")
            lo = np.minimum(edges[:, 0], edges[:, 1])
            hi = np.maximum(edges[:, 0], edges[:, 1])
            if np.any(lo == hi):
                raise InvalidInput("self-loops are not allowed")
            key = lo * num_nodes + hi
            if np.unique(key).size != m:
                raise InvalidInput("duplicate undirected edges")
        else:
            lo = hi = key = np.zeros(0, dtype=np.int64)
        if edge_features is None:
            edge_features = np.zeros((m, 0), dtype=np.float64)
        edge_features = np.asarray(edge_features, dtype=np.float64)
        if edge_features.shape[0] != m:
            raise InvalidInput(f"expected {m} edge feature rows, got {edge_features.shape[0]}")
        if node_kind is None:
            node_kind = np.full(num_nodes, "sme", dtype="U8")
        else:
            node_kind = np.asarray(node_kind, dtype="U8")
            if node_kind.shape != (num_nodes,):
                raise InvalidInput("node_kind must have one tag per node")
            if not np.all(np.isin(node_kind, NODE_KINDS)):
                raise InvalidInput(f"node_kind tags must be one of {NODE_KINDS}")

        indptr, indices = _csr_from_directed(
            num_nodes, np.concatenate([lo, hi]), np.concatenate([hi, lo])
        )
        return cls(
            num_nodes=num_nodes,
            indptr=indptr,
            indices=indices,
            node_features=node_features,
            edge_features=edge_features[np.argsort(key)],
            node_kind=node_kind,
        )

    def degrees(self):
        return np.diff(self.indptr)

    def neighbors(self, u):
        return self.indices[self.indptr[u]:self.indptr[u + 1]]

    def undirected_edges(self):
        """(m, 2) array of edges with u < v in key order, plus the feature table."""
        rows = np.repeat(np.arange(self.num_nodes), self.degrees())
        upper = rows < self.indices
        return np.column_stack([rows[upper], self.indices[upper]]), self.edge_features

    def edge_keys(self):
        """Sorted int64 keys u * n + v (u < v), one per undirected edge."""
        pairs, _ = self.undirected_edges()
        return pairs[:, 0] * self.num_nodes + pairs[:, 1]

    def validate(self):
        """Check every structural invariant; raises InvalidInput on failure."""
        n = self.num_nodes
        if self.indptr.shape != (n + 1,) or self.indptr[0] != 0:
            raise InvalidInput("malformed indptr")
        if np.any(np.diff(self.indptr) < 0) or self.indptr[-1] != self.indices.size:
            raise InvalidInput("indptr does not partition indices")
        rows = np.repeat(np.arange(n), np.diff(self.indptr))
        if rows.size and (self.indices.min() < 0 or self.indices.max() >= n):
            raise InvalidInput("column index out of range")
        # consecutive entries of one row must increase; a step across a row start may not
        within = rows[1:] == rows[:-1]
        bad = np.flatnonzero(within & (np.diff(self.indices) <= 0))
        if bad.size:
            raise InvalidInput(f"row {rows[bad[0]]} not strictly increasing")
        if np.any(rows == self.indices):
            raise InvalidInput("self-loop present")
        # symmetry: sorting entries by (col, row) must reproduce (row, col)
        order = np.lexsort((rows, self.indices))
        if not (np.array_equal(self.indices[order], rows) and np.array_equal(rows[order], self.indices)):
            raise InvalidInput("adjacency is not symmetric")
        if self.edge_features.shape[0] != self.indices.size // 2:
            raise InvalidInput("edge feature rows must match undirected edges")


@dataclass
class NormalizedAdjacency:
    """Symmetrically normalized adjacency with self-loops, CSR with values."""

    num_nodes: int
    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray


def normalize_adjacency(g):
    """Scale the self-looped adjacency by inverse square-root degrees.

    Entry (u, v) becomes 1 / sqrt((1 + deg(u)) (1 + deg(v))); the diagonal
    is always present, so an isolated node maps to a lone 1.0.
    """
    n = g.num_nodes
    deg = g.degrees()
    dtilde = deg.astype(np.float64) + 1.0
    rows = np.concatenate([np.repeat(np.arange(n), deg), np.arange(n)])
    cols = np.concatenate([g.indices, np.arange(n)])
    indptr, indices = _csr_from_directed(n, rows, cols)
    entry_rows = np.repeat(np.arange(n), np.diff(indptr))
    # single square root of the degree product keeps (u,v) and (v,u) bitwise equal
    values = 1.0 / np.sqrt(dtilde[entry_rows] * dtilde[indices])
    return NormalizedAdjacency(num_nodes=n, indptr=indptr, indices=indices, values=values)


def spmm(adj, H):
    """Sparse-dense product adj @ H with a deterministic reduction order."""
    H = np.asarray(H, dtype=np.float64)
    if H.ndim != 2 or H.shape[0] != adj.num_nodes:
        raise InvalidArgument(f"H must be ({adj.num_nodes}, d), got {H.shape}")
    out = np.zeros((adj.num_nodes, H.shape[1]))
    if adj.indices.size == 0:
        return out
    contrib = H[adj.indices]
    contrib *= adj.values[:, None]
    row_len = np.diff(adj.indptr)
    nonempty = row_len > 0
    out[nonempty] = np.add.reduceat(contrib, adj.indptr[:-1][nonempty], axis=0)
    return out


@dataclass
class EnrichedGraph:
    """Base graph plus mined candidate edges that cleared the threshold."""

    base: SmeGraph
    mined_pairs: np.ndarray
    mined_scores: np.ndarray
    tau: float
    _view: SmeGraph = field(default=None, repr=False, compare=False)

    @property
    def num_mined(self):
        return int(self.mined_pairs.shape[0])

    def mined_edges(self):
        """List of (u, v, score) tuples in canonical order."""
        return [
            (int(u), int(v), float(s))
            for (u, v), s in zip(self.mined_pairs, self.mined_scores)
        ]

    def graph(self):
        """Combined view used for propagation: `base` itself when nothing
        was mined, else base plus mined edges, which carry zero feature rows."""
        if self.num_mined == 0:
            return self.base
        if self._view is None:
            base_pairs, base_feats = self.base.undirected_edges()
            self._view = SmeGraph.from_edge_list(
                self.base.num_nodes,
                np.vstack([base_pairs, self.mined_pairs]),
                node_features=self.base.node_features,
                edge_features=np.vstack([base_feats, np.zeros((self.num_mined, base_feats.shape[1]))]),
                node_kind=self.base.node_kind,
            )
        return self._view


def enrich(g, mined, tau):
    """Retain scored pairs at or above tau, deduplicated against the graph.

    `mined` holds (u, v, score) triples, or is a `(pairs, scores)` tuple of
    a (k, 2) int array and k scores; scores lie in [0, 1]. Pairs are
    canonicalized to u < v; self-pairs are dropped, duplicates keep their
    best score, and anything already observed is discarded.
    """
    if not 0.0 <= tau <= 1.0:
        raise InvalidArgument(f"tau must be in [0, 1], got {tau}")
    if isinstance(mined, tuple) and len(mined) == 2 and isinstance(mined[0], np.ndarray):
        arr = np.asarray(mined[0], dtype=np.int64).reshape(-1, 2)
        scores = np.asarray(mined[1], dtype=np.float64).reshape(-1)
        if scores.size != arr.shape[0]:
            raise InvalidArgument("need one score per mined pair")
    else:
        mined = list(mined)
        arr = np.asarray([[u, v] for u, v, _ in mined], dtype=np.int64).reshape(-1, 2)
        scores = np.asarray([s for _, _, s in mined], dtype=np.float64)
    if not scores.size:
        return EnrichedGraph(g, np.zeros((0, 2), dtype=np.int64), np.zeros(0), tau)
    if np.any(scores < 0.0) or np.any(scores > 1.0) or not np.all(np.isfinite(scores)):
        raise InvalidInput("mined scores must lie in [0, 1]")
    if arr.min() < 0 or arr.max() >= g.num_nodes:
        raise InvalidArgument("mined pair endpoint out of range")
    lo = np.minimum(arr[:, 0], arr[:, 1])
    hi = np.maximum(arr[:, 0], arr[:, 1])
    keys = lo * g.num_nodes + hi
    keep = (lo != hi) & (scores >= tau) & ~in_sorted(keys, g.edge_keys())
    keys, scores = keys[keep], scores[keep]
    # by key, best score first; the first row of each key is the one kept
    order = np.lexsort((-scores, keys))
    keys, first = np.unique(keys[order], return_index=True)
    scores = scores[order][first]
    pairs = np.column_stack([keys // g.num_nodes, keys % g.num_nodes])
    return EnrichedGraph(g, pairs, scores, tau)
