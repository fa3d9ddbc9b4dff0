"""Sparse undirected graph types and kernels.

Adjacency lives in CSR form: `indptr` of length n+1 and `indices` sorted
strictly increasing within each row. The raw adjacency is unweighted and
stores both directions of every undirected edge; edge features are aligned
with CSR entry order, so the two directions of one edge carry identical
rows. Normalization produces the symmetric operator with self-loops that
the propagation step multiplies by.
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


def _csr_from_directed(num_nodes, rows, cols, payload_ids=None):
    """Build sorted CSR arrays from directed entry lists.

    Returns (indptr, indices) and, when payload_ids is given, the payload id
    per CSR entry in final order.
    """
    order = np.lexsort((cols, rows))
    rows = rows[order]
    cols = cols[order]
    counts = np.bincount(rows, minlength=num_nodes)
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    if payload_ids is None:
        return indptr, cols.astype(np.int64)
    return indptr, cols.astype(np.int64), payload_ids[order]


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
        rejected. `edge_features` has one row per undirected edge and is
        mirrored onto both stored directions.
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
            lo = np.zeros(0, dtype=np.int64)
            hi = np.zeros(0, dtype=np.int64)
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

        rows = np.concatenate([lo, hi])
        cols = np.concatenate([hi, lo])
        eids = np.concatenate([np.arange(m), np.arange(m)])
        indptr, indices, eids = _csr_from_directed(num_nodes, rows, cols, eids)
        return cls(
            num_nodes=num_nodes,
            indptr=indptr,
            indices=indices,
            node_features=node_features,
            edge_features=edge_features[eids] if m > 0 else np.zeros((0, edge_features.shape[1])),
            node_kind=node_kind,
        )

    def degrees(self):
        return np.diff(self.indptr)

    def neighbors(self, u):
        return self.indices[self.indptr[u]:self.indptr[u + 1]]

    def has_edge(self, u, v):
        row = self.neighbors(u)
        i = np.searchsorted(row, v)
        return i < row.size and row[i] == v

    def undirected_edges(self):
        """(m, 2) array of edges with u < v, plus matching feature rows."""
        rows = np.repeat(np.arange(self.num_nodes), self.degrees())
        upper = rows < self.indices
        return np.column_stack([rows[upper], self.indices[upper]]), self.edge_features[upper]

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
        for u in range(n):
            row = self.neighbors(u)
            if np.any(np.diff(row) <= 0):
                raise InvalidInput(f"row {u} not strictly increasing")
        if np.any(rows == self.indices):
            raise InvalidInput("self-loop present")
        # symmetry: sorting entries by (col, row) must reproduce (row, col)
        order = np.lexsort((rows, self.indices))
        if not (np.array_equal(self.indices[order], rows) and np.array_equal(rows[order], self.indices)):
            raise InvalidInput("adjacency is not symmetric")
        if self.edge_features.shape[0] != self.indices.size:
            raise InvalidInput("edge feature rows must match stored directed edges")
        if self.edge_features.size and not np.allclose(
            self.edge_features[order], self.edge_features, rtol=0.0, atol=0.0
        ):
            raise InvalidInput("edge directions carry different feature rows")


@dataclass
class NormalizedAdjacency:
    """Symmetrically normalized adjacency with self-loops, CSR with values."""

    num_nodes: int
    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray

    def dense(self):
        out = np.zeros((self.num_nodes, self.num_nodes))
        rows = np.repeat(np.arange(self.num_nodes), np.diff(self.indptr))
        out[rows, self.indices] = self.values
        return out


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


def build_graph_from_similarity(X, k):
    """Connect each node to its k most cosine-similar peers, then symmetrize.

    Expects feature rows already standardized per column. Ties are broken by
    ascending node index so the edge set is reproducible bit for bit.
    Zero-norm rows score 0 against everything.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise InvalidArgument("X must be a matrix with at least 2 rows")
    if not np.all(np.isfinite(X)):
        raise InvalidInput("feature matrix contains non-finite values")
    n = X.shape[0]
    if k < 1 or k >= n:
        raise InvalidArgument(f"k must be in [1, num_nodes), got {k} for {n} nodes")
    norms = np.linalg.norm(X, axis=1)
    safe = np.where(norms > 0.0, norms, 1.0)
    Xn = X / safe[:, None]
    srcs = []
    dsts = []
    block = 512
    for start in range(0, n, block):
        stop = min(start + block, n)
        sims = Xn[start:stop] @ Xn.T
        sims[np.arange(stop - start), np.arange(start, stop)] = -np.inf
        # stable sort on -sims leaves equal scores in index order
        order = np.argsort(-sims, axis=1, kind="stable")
        nbrs = order[:, :k]
        srcs.append(np.repeat(np.arange(start, stop), k))
        dsts.append(nbrs.reshape(-1))
    src = np.concatenate(srcs)
    dst = np.concatenate(dsts)
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    edges = np.unique(np.column_stack([lo, hi]), axis=0)
    return SmeGraph.from_edge_list(n, edges, node_features=X)


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
        """Combined view used for propagation.

        Edge features gain one trailing provenance column: 0 for observed
        edges, 1 for mined ones. Mined edges carry zero feature payloads.
        The adjacency of a zero-mined enrichment equals the base adjacency.
        """
        if self._view is not None:
            return self._view
        base_pairs, base_feats = self.base.undirected_edges()
        fe = base_feats.shape[1]
        all_pairs = np.vstack([base_pairs, self.mined_pairs.reshape(-1, 2)])
        feats = np.zeros((all_pairs.shape[0], fe + 1))
        feats[: base_pairs.shape[0], :fe] = base_feats
        feats[base_pairs.shape[0]:, fe] = 1.0
        self._view = SmeGraph.from_edge_list(
            self.base.num_nodes,
            all_pairs,
            node_features=self.base.node_features,
            edge_features=feats,
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
