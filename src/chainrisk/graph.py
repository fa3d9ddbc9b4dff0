"""Sparse undirected graph types and kernels.

Adjacency lives in CSR form: `indptr` of length n+1 and `indices` sorted
strictly increasing within each row. The raw adjacency is unweighted and
stores both directions of every undirected edge; edge features are a plain
table with one row per undirected edge, in the order of
`SmeGraph.undirected_edges()`. Normalization produces the symmetric
operator with self-loops that the propagation step multiplies by; a
graph builds it, and the model's input features, once and keeps them, and
the operator keeps its product with those inputs once it is asked for. Both
sparse row sums, `spmm` and the head's backward scatter (`scatter_plans`),
are `RowSums.apply` over a layout of sliced CSR rows, in one summation
order. `candidate_pairs`, the stage-1 candidate search, is a frontier join
over the raw CSR adjacency.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidArgument, InvalidInput

NODE_KINDS = ("sme", "owner", "consumer")


def standardize_columns(X):
    """Zero-mean, unit-variance per column; constant columns map to zeros."""
    X = np.asarray(X, dtype=np.float64)
    if not X.shape[0]:  # no rows to standardize; numpy warns on the mean of none
        return X.copy()
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    out = X - mean
    nonconst = std > 0.0
    # one pass over the whole array; a masked column division gathers and scatters a copy
    out /= np.where(nonconst, std, 1.0)
    out[:, ~nonconst] = 0.0
    return out


def _csr_from_directed(num_nodes, rows, cols):
    """Build sorted CSR arrays (indptr, indices) from distinct directed entries."""
    # one sort of the int64 keys row * n + col; distinct keys leave no ties
    keys = np.sort(rows * num_nodes + cols)
    counts = np.bincount(rows, minlength=num_nodes)
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, keys % num_nodes


def pair_keys(pairs, n):
    """The int64 key min(u, v) * n + max(u, v) of each row (u, v) of `pairs`,
    one per unordered pair; `key_pairs` gives back the pairs with u < v."""
    return np.minimum(pairs[:, 0], pairs[:, 1]) * n + np.maximum(pairs[:, 0], pairs[:, 1])


def key_pairs(keys, n):
    """The (k, 2) pairs (key // n, key % n) of `pair_keys` keys."""
    return np.column_stack([keys // n, keys % n])


def repeated_rows(*columns):
    """Mask of the rows equal, on every one of the 1-d `columns`, to an earlier row."""
    order = np.lexsort(columns)  # stable: each run of equal rows in row order
    same = np.ones(max(order.size - 1, 0), dtype=bool)
    for column in columns:
        same &= column[order[1:]] == column[order[:-1]]
    repeated = np.zeros(order.size, dtype=bool)
    repeated[order[1:][same]] = True
    return repeated


def first_row(bad, reason):
    """(the first row set in the mask `bad`, reason), or None."""
    rows = np.flatnonzero(bad)
    return (int(rows[0]), reason) if rows.size else None


def _check_rows(bad, message, table=None):
    """Raise InvalidInput(message) for the first row set in the mask `bad`,
    recording that row and its `table` on it; do nothing if none is set."""
    breach = first_row(bad, message)
    if breach is not None:
        raise InvalidInput(message, breach[0], table)


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
        drawn = pair_keys(np.column_stack([us, vs]), n)
        ok = (us != vs) & ~in_sorted(drawn, forbidden) & ~in_sorted(drawn, keys)
        drawn = drawn[ok]
        _, first = np.unique(drawn, return_index=True)
        fresh = drawn[np.sort(first)][: count - keys.size]
        keys = sorted_unique(np.concatenate([keys, fresh]))
        rounds += 1
    return keys


@dataclass
class SmeGraph:
    """Undirected enterprise graph with node and per-edge feature tables.

    It owns two read-only arrays derived from those, each built on first
    use: `adjacency`, the normalized operator (`normalize_adjacency`), which
    keeps its product with the model inputs (`NormalizedAdjacency.propagated`),
    and `model_inputs`, the encoder's input rows (`prepare_features`). A
    reader that saved them may set both instead (`dataio.read_graph`). The
    graph's own arrays must not be changed once either is built.
    """

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
        _check_rows(~np.isfinite(node_features).all(axis=1), "node_features contain non-finite values", "nodes")
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        m = edges.shape[0]
        _check_rows(((edges < 0) | (edges >= num_nodes)).any(axis=1), "edge endpoint out of range", "edges")
        key = pair_keys(edges, num_nodes)
        lo, hi = np.divmod(key, num_nodes)
        _check_rows(lo == hi, "self-loops are not allowed", "edges")
        order = np.argsort(key)
        if np.any(np.diff(key[order]) == 0):
            _check_rows(repeated_rows(key), "duplicate undirected edges", "edges")
        if edge_features is None:
            edge_features = np.zeros((m, 0), dtype=np.float64)
        edge_features = np.asarray(edge_features, dtype=np.float64)
        if edge_features.shape[0] != m:
            raise InvalidInput(f"expected {m} edge feature rows, got {edge_features.shape[0]}")
        _check_rows(~np.isfinite(edge_features).all(axis=1), "edge_features contain non-finite values", "edges")
        if node_kind is None:
            node_kind = np.full(num_nodes, "sme", dtype="U8")
        else:
            # check the exact tags first: narrowing to U8 would cut "consumerXYZ" to "consumer"
            node_kind = np.asarray(node_kind)
            if node_kind.shape != (num_nodes,):
                raise InvalidInput("node_kind must have one tag per node")
            _check_rows(~np.isin(node_kind, NODE_KINDS), f"node_kind tags must be one of {NODE_KINDS}", "nodes")
            node_kind = node_kind.astype("U8")

        indptr, indices = _csr_from_directed(
            num_nodes, np.concatenate([lo, hi]), np.concatenate([hi, lo])
        )
        return cls(
            num_nodes=num_nodes,
            indptr=indptr,
            indices=indices,
            node_features=node_features,
            edge_features=edge_features[order],
            node_kind=node_kind,
        )

    def degrees(self):
        return np.diff(self.indptr)

    @cached_property
    def adjacency(self):
        """The self-looped adjacency scaled by inverse square-root degrees.

        Entry (u, v) becomes 1 / sqrt((1 + deg(u)) (1 + deg(v))); the diagonal
        is always present, so an isolated node maps to a lone 1.0. Each row's
        self-loop goes into the sorted CSR rows in one pass, with no sort:
        entry k of row r moves r places on, one more when its id exceeds r, and
        the one place left in each row takes the row's own id. Its `inputs`
        are the graph's model inputs.
        """
        n = self.num_nodes
        deg = self.degrees()
        rows = np.repeat(np.arange(n), deg)
        indptr = self.indptr + np.arange(n + 1)
        moved = np.arange(self.indices.size) + rows + (self.indices > rows)
        indices = np.empty(indptr[-1], dtype=np.int64)
        loops = np.ones(indices.size, dtype=bool)
        loops[moved] = False
        indices[moved] = self.indices
        indices[loops] = np.arange(n)
        dtilde = deg.astype(np.float64) + 1.0
        # single square root of the degree product keeps (u,v) and (v,u) bitwise equal
        values = 1.0 / np.sqrt(dtilde[np.repeat(np.arange(n), deg + 1)] * dtilde[indices])
        return NormalizedAdjacency(num_nodes=n, indptr=indptr, indices=indices, values=values,
                                   inputs=self.model_inputs)

    @cached_property
    def model_inputs(self):
        """The node features standardized per column, with a constant-one column appended.

        Encoder layers have no bias term; the appended one also lets degree leak
        into the aggregation, which node scoring relies on.
        """
        X = standardize_columns(self.node_features)
        X = np.hstack([X, np.ones((X.shape[0], 1))])
        X.flags.writeable = False
        return X

    def undirected_edges(self):
        """(m, 2) array of edges with u < v in key order, plus the feature table."""
        rows = np.repeat(np.arange(self.num_nodes), self.degrees())
        upper = rows < self.indices
        return np.column_stack([rows[upper], self.indices[upper]]), self.edge_features

    def edge_keys(self):
        """Sorted int64 keys u * n + v (u < v), one per undirected edge."""
        return pair_keys(self.undirected_edges()[0], self.num_nodes)


def _terms(H, rows, values, out=None):
    """H's `rows` (range-checked with the layout, so take need not check them) times `values`, if any."""
    terms = np.take(H, rows, axis=0, out=out, mode="clip")
    if values is not None:
        terms *= values
    return terms


class RowSums:
    """Row sums over a CSR row partition: row r of `apply(H)` is the sum of
    values[i] * H[gather[i]] over the entries i of row r.

    The layout orders the rows by entry count, most first (stable). Slice k,
    for k < depth, holds the gathered input row and the value of the k-th
    entry of every row that has one, a prefix of that order; the entries
    past `depth`, which only hub rows have, form one flat run of segments,
    one per hub row. `rank[r]` is row r's place in the order, but every
    empty row points at one shared zero row. Values None mean unit weights,
    with no multiply pass. `apply` relies on the builder's checks of the
    CSR arrays and the gathered ids (`NormalizedAdjacency` checks its
    arrays, `scatter_plans` its ids), so they must not be changed afterwards.
    """

    def __init__(self, indptr, gather, num_inputs, depth, values=None):
        counts = np.diff(indptr)
        self.num_inputs = num_inputs
        order = np.argsort(-counts, kind="stable")
        depth = min(depth, int(counts.max(initial=0)))
        sizes = np.searchsorted(-counts[order], -np.arange(depth + 1), side="left")
        self.rank = np.empty(counts.size, dtype=np.int64)
        self.rank[order] = np.minimum(np.arange(counts.size), sizes[0])

        def pick(pos):
            return gather[pos], None if values is None else values[pos][:, None]

        starts = indptr[:-1][order]
        self.slices = [pick(starts[:sizes[k]] + k) for k in range(depth)]
        hubs = order[: sizes[-1]]
        starts = indptr[hubs] + depth
        lens = indptr[hubs + 1] - starts
        seg = np.cumsum(lens) - lens
        self.hubs = (*pick(np.arange(lens.sum()) + np.repeat(starts - seg, lens)), seg) if hubs.size else None

    def apply(self, H, out=None, work=None):
        """The (rows, d) row sums of the (num_inputs, d) array H, in `out` if given.

        Slices 1, 2, ... are added in order onto a prefix of a tail array,
        hub rows add their remaining entries with one `np.add.reduceat`,
        slice 0 gives each row's first term in a head array, the tail is
        added onto it, and the rows are gathered back into their original
        order. Each row thus sums as entry 0 + (entry 1 + entry 2 + ...),
        the order `np.add.reduceat` over the row's entries uses for rows of
        at most 8 entries, so those rows match it bit for bit; longer rows
        agree to rounding. `out`, sharing no memory with H, takes the sums;
        until the final gather its first rows hold the tail. `work`, if
        given, is a float64 array of rows + 1 rows of that width sharing no
        memory with H or `out`: it holds the terms of slices 2, 3, ... and
        then the head.
        """
        H = np.asarray(H, dtype=np.float64)
        if H.ndim != 2 or H.shape[0] != self.num_inputs:
            raise InvalidArgument(f"expected ({self.num_inputs}, d) input rows, got {H.shape}")
        out = np.empty((self.rank.size, H.shape[1])) if out is None else out
        if not self.slices:  # no entries
            out.fill(0.0)
            return out
        (rows0, values0), *rest = self.slices
        work = np.empty((rows0.size + 1, H.shape[1])) if work is None else work
        if rest:
            rows, values = rest[0]
            tail = _terms(H, rows, values, out=out[: rows.size])
            for rows, values in rest[1:]:
                tail[: rows.size] += _terms(H, rows, values, out=work[: rows.size])
            if self.hubs is not None:
                rows, values, seg = self.hubs
                tail[: seg.size] += np.add.reduceat(_terms(H, rows, values), seg, axis=0)
        head = work[: rows0.size + 1]
        _terms(H, rows0, values0, out=head[:-1])
        head[-1] = 0.0
        if rest:
            head[: tail.shape[0]] += tail
        return np.take(head, self.rank, axis=0, out=out, mode="clip")


# entry positions k < SPMM_SLICES run as one slice each; later ones (hub rows only) share one pass.
# This sets spmm's summation order, whose bytes the graph copy stores (`propagated`): a change to
# that order (this depth, the `RowSums` layout) must bump `dataio._COPY_MAGIC`.
SPMM_SLICES = 32


@dataclass
class NormalizedAdjacency:
    """Symmetrically normalized adjacency with self-loops, CSR with values.

    Construction checks the CSR arrays and makes them, and `inputs`,
    read-only. `sums`, the `RowSums` layout `spmm` runs over at depth
    SPMM_SLICES, is built on first use, and `rows` lays out a subset of the
    rows the same way; both rely on the checks.

    `inputs`, if given, are the n rows of model inputs whose product
    `propagated` keeps (a graph's model inputs). `keeps(X)` tells whether
    X is those inputs, and `product_for` when a pass may read `propagated`
    in place of `spmm(self, X)`.
    """

    num_nodes: int
    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    inputs: np.ndarray = field(default=None, repr=False, compare=False)
    # whether a pass over some nodes has asked `product_for` for `propagated` before
    asked: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self):
        n, indptr, indices = self.num_nodes, self.indptr, self.indices
        if (indptr.shape != (n + 1,) or indptr[0] != 0 or indptr[-1] != indices.size
                or np.any(np.diff(indptr) < 0) or self.values.shape != indices.shape):
            raise InvalidArgument("malformed CSR operator")
        if indices.size and (indices.min() < 0 or indices.max() >= n):
            raise InvalidArgument("column index out of range")
        for array in (indptr, indices, self.values, self.inputs):
            if array is not None:
                array.flags.writeable = False

    @cached_property
    def sums(self):
        return RowSums(self.indptr, self.indices, self.num_nodes, SPMM_SLICES, self.values)

    @cached_property
    def propagated(self):
        """spmm(self, inputs), computed on first use and kept read-only; a
        reader that saved it may set it instead (`dataio.read_graph`)."""
        product = spmm(self, self.inputs)
        product.flags.writeable = False
        return product

    def keeps(self, X):
        """Whether `propagated` is spmm(self, X): X is `inputs` itself."""
        return X is self.inputs

    def product_for(self, X, every):
        """`propagated`, computed if need be, when a pass over X may read it in
        place of spmm(self, X), else None.

        X must be `inputs` itself. A pass over every node (`every`) takes the
        product, which it would form anyway. A pass over some nodes takes it
        once it is held or on its second ask, so a graph scored once pays no
        full spmm and one scored again pays it once.
        """
        if not self.keeps(X):
            return None
        if every or self.asked or "propagated" in vars(self):
            return self.propagated
        self.asked = True
        return None

    def rows(self, nodes):
        """The operator of rows `nodes` (distinct ids) of this one, over all its columns.

        Its layout has the same depth as `sums`, so each row sums its
        entries in the same order: `spmm(adj.rows(nodes), H)` equals
        `spmm(adj, H)[nodes]` bit for bit.
        """
        starts = self.indptr[nodes]
        counts = self.indptr[nodes + 1] - starts
        indptr = np.zeros(nodes.size + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        pos = np.arange(indptr[-1]) + np.repeat(starts - indptr[:-1], counts)
        indices = self.indices[pos]
        return AdjacencyRows(indices, RowSums(indptr, indices, self.num_nodes, SPMM_SLICES, self.values[pos]))


@dataclass
class AdjacencyRows:
    """Some rows of a `NormalizedAdjacency` (`NormalizedAdjacency.rows`): their
    column ids in CSR order, and the `RowSums` layout `spmm` runs over."""

    indices: np.ndarray
    sums: RowSums


def normalize_adjacency(g):
    """The graph's normalized adjacency, `g.adjacency`: built on the first
    call and kept on the graph (read-only)."""
    return g.adjacency


def prepare_features(g):
    """The graph's model inputs, `g.model_inputs`: built on the first call
    and kept on the graph (read-only)."""
    return g.model_inputs


def spmm(adj, H, out=None, work=None):
    """Sparse-dense product adj @ H for a `NormalizedAdjacency` or an
    `AdjacencyRows` of one: `adj.sums.apply(H, out, work)`, whose shape
    check, summation order and buffers are documented there. At most
    SPMM_SLICES + 2 passes run, whatever the longest row."""
    return adj.sums.apply(H, out, work)


def check_ids(ids, num_nodes):
    """`ids` as an int64 array; InvalidArgument if one lies outside [0, num_nodes)."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= num_nodes):
        raise InvalidArgument("node id out of range")
    return ids


def scatter_plans(examples, num_nodes):
    """One `RowSums` per endpoint column of `examples` (pairs or node ids):
    `apply(rows)` sums onto node u every row i whose id is u, over the ids'
    stable argsort at full depth, so no hub pass runs."""
    examples = np.asarray(examples, dtype=np.int64)
    plans = []
    for ids in examples.T if examples.ndim == 2 else [examples]:
        ids = check_ids(ids, num_nodes)
        indptr = np.r_[0, np.cumsum(np.bincount(ids, minlength=num_nodes))]
        plans.append(RowSums(indptr, np.argsort(ids, kind="stable"), ids.size, ids.size))
    return plans


@dataclass
class EnrichedGraph:
    """Base graph plus mined candidate edges that cleared the threshold."""

    base: SmeGraph
    mined_pairs: np.ndarray
    mined_scores: np.ndarray
    _view: SmeGraph = field(default=None, repr=False, compare=False)

    @property
    def num_mined(self):
        return int(self.mined_pairs.shape[0])

    def graph(self):
        """Combined view used for propagation: `base` itself when nothing
        was mined, else base plus mined edges, which carry zero feature rows.
        The view has the base's node features, so it takes the base's model inputs."""
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
            self._view.model_inputs = self.base.model_inputs
        return self._view


def enrich(g, mined, tau):
    """Retain scored pairs at or above tau, deduplicated against the graph.

    `mined` is a `(pairs, scores)` tuple of a (k, 2) int array and k scores
    in [0, 1]. Pairs are canonicalized to u < v; self-pairs are dropped,
    duplicates keep their best score, and anything already observed is
    discarded.
    """
    if not 0.0 <= tau <= 1.0:
        raise InvalidArgument(f"tau must be in [0, 1], got {tau}")
    arr = check_ids(mined[0], g.num_nodes).reshape(-1, 2)
    scores = np.asarray(mined[1], dtype=np.float64).reshape(-1)
    if scores.size != arr.shape[0]:
        raise InvalidArgument("need one score per mined pair")
    if not scores.size:
        return EnrichedGraph(g, np.zeros((0, 2), dtype=np.int64), np.zeros(0))
    _check_rows(~((scores >= 0.0) & (scores <= 1.0)), "mined scores must lie in [0, 1]")
    keys = pair_keys(arr, g.num_nodes)
    keep = (arr[:, 0] != arr[:, 1]) & (scores >= tau) & ~in_sorted(keys, g.edge_keys())
    keys, scores = keys[keep], scores[keep]
    # by key, best score first; the first row of each key is the one kept
    order = np.lexsort((-scores, keys))
    keys, first = np.unique(keys[order], return_index=True)
    scores = scores[order][first]
    return EnrichedGraph(g, key_pairs(keys, g.num_nodes), scores)


# SME sources per frontier join in `candidate_pairs`; keys are `src * n + node`, so
# the blocks' pairs are disjoint and the result does not depend on it
CANDIDATE_SOURCES = 8192


def candidate_pairs(g, extra_pairs=None, max_hops=3):
    """SME non-edges within `max_hops` hops, plus any extra labeled pairs.

    Bounding candidates to a small neighborhood radius keeps scoring far
    below the all-pairs quadratic blowup. Three hops is the useful default:
    in a tiered supply graph an unobserved cross-tier link sits at odd
    distance, so a 2-hop ball would contain none of them. Extra pairs
    (typically the held-out test pairs) are merged in after the same
    observed-edge and kind filters.

    The search is a breadth-first frontier join on the CSR adjacency, run
    for CANDIDATE_SOURCES sources at once on `src * n + node` keys; paths
    may pass through nodes of any kind. Its cost is proportional to the
    summed `max_hops`-ball sizes of the sources, not to n², and its memory
    to those of one block of sources.
    """
    if max_hops not in (2, 3, 4):
        raise InvalidArgument("max_hops must be 2, 3, or 4")
    n = g.num_nodes
    allowed = g.node_kind == "sme"
    sources = np.flatnonzero(allowed)
    chunks = [np.zeros(0, dtype=np.int64)]
    for first in range(0, sources.size, CANDIDATE_SOURCES):
        block = sources[first:first + CANDIDATE_SOURCES]
        # level h holds the sorted keys of every (source, node) pair at distance h;
        # a neighbour of a node at distance h lies at distance h - 1, h or h + 1,
        # so a new level only has to be checked against the last two
        prev = np.zeros(0, dtype=np.int64)
        level = block * n + block
        for hop in range(1, max_hops + 1):
            src, node = np.divmod(level, n)
            deg = g.indptr[node + 1] - g.indptr[node]
            # flat CSR positions of every frontier node's row, concatenated
            offsets = np.arange(deg.sum()) - np.repeat(np.cumsum(deg) - deg - g.indptr[node], deg)
            reached = sorted_unique(np.repeat(src, deg) * n + g.indices[offsets])
            prev, level = level, reached[~(in_sorted(reached, prev) | in_sorted(reached, level))]
            if hop >= 2:  # distance 1 is an observed edge
                u, v = np.divmod(level, n)
                chunks.append(level[(u < v) & allowed[v]])
    if extra_pairs is not None and len(extra_pairs):
        extra = check_ids(extra_pairs, n).reshape(-1, 2)
        keys, (u, v) = pair_keys(extra, n), extra.T
        chunks.append(keys[(u != v) & allowed[u] & allowed[v] & ~in_sorted(keys, g.edge_keys())])
    return key_pairs(sorted_unique(np.concatenate(chunks)), n)
