import json
import os
import subprocess
import sys

import numpy as np
import pytest

from chainrisk.errors import InvalidArgument, InvalidInput
from chainrisk.graph import SmeGraph
from chainrisk.synthgen import ATTRIBUTE_COLUMNS, ATTRIBUTES


def random_graph(rng, n, edge_prob, num_features=3):
    """Erdos-Renyi style undirected test graph with random features."""
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < edge_prob:
                edges.append((u, v))
    X = rng.normal(size=(n, num_features))
    return SmeGraph.from_edge_list(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2), X)


def check_graph(g):
    """Check every structural invariant of an SmeGraph; raises InvalidInput on failure."""
    n = g.num_nodes
    if g.indptr.shape != (n + 1,) or g.indptr[0] != 0:
        raise InvalidInput("malformed indptr")
    if np.any(np.diff(g.indptr) < 0) or g.indptr[-1] != g.indices.size:
        raise InvalidInput("indptr does not partition indices")
    rows = np.repeat(np.arange(n), np.diff(g.indptr))
    if rows.size and (g.indices.min() < 0 or g.indices.max() >= n):
        raise InvalidInput("column index out of range")
    # consecutive entries of one row must increase; a step across a row start may not
    within = rows[1:] == rows[:-1]
    bad = np.flatnonzero(within & (np.diff(g.indices) <= 0))
    if bad.size:
        raise InvalidInput(f"row {rows[bad[0]]} not strictly increasing")
    if np.any(rows == g.indices):
        raise InvalidInput("self-loop present")
    # symmetry: sorting entries by (col, row) must reproduce (row, col)
    order = np.lexsort((rows, g.indices))
    if not (np.array_equal(g.indices[order], rows) and np.array_equal(rows[order], g.indices)):
        raise InvalidInput("adjacency is not symmetric")
    if g.edge_features.shape[0] != g.indices.size // 2:
        raise InvalidInput("edge feature rows must match undirected edges")


PARTNER_BUCKETS = (("0-2", 0, 2), ("3-5", 3, 5), ("6-10", 6, 10), (">10", 11, None))


def supply_graph(truth):
    """The full supply network of a GroundTruth as a bare graph (for partner-count analyses)."""
    return SmeGraph.from_edge_list(truth.tiers.size, truth.supply_edges, np.zeros((truth.tiers.size, 0)))


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


def grad_check(f, params, h=1e-5):
    """Max relative error between analytic and central-difference gradients.

    `f(params) -> (scalar, grads)` with grads aligned to `params`. Each
    coordinate is perturbed by +/- h in place and restored. The relative
    error denominator is max(|analytic|, |numeric|, 1e-8).
    """
    _, analytic = f(params)
    worst = 0.0
    for p, g in zip(params, analytic):
        g = np.asarray(g)
        for idx in np.ndindex(p.shape):
            keep = p[idx]
            p[idx] = keep + h
            hi = f(params)[0]
            p[idx] = keep - h
            lo = f(params)[0]
            p[idx] = keep
            numeric = (hi - lo) / (2.0 * h)
            denom = max(abs(numeric), abs(g[idx]), 1e-8)
            worst = max(worst, abs(numeric - g[idx]) / denom)
    return worst


def dense_from_csr(num_nodes, indptr, indices, values=None):
    """Independent dense reconstruction of a CSR matrix, plain loops."""
    out = np.zeros((num_nodes, num_nodes))
    for u in range(num_nodes):
        for j in range(indptr[u], indptr[u + 1]):
            out[u, indices[j]] = 1.0 if values is None else values[j]
    return out


def blas_child(module, call, threads=1):
    """json.loads of the printed `module.call` (a call expression such as
    `f(1)`), run in a child process pinned to `threads` BLAS threads, since
    BLAS results can depend on the thread count."""
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    count = str(threads)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=count, OMP_NUM_THREADS=count, MKL_NUM_THREADS=count,
               PYTHONPATH=os.pathsep.join([src, here]))
    child = subprocess.run(
        [sys.executable, "-c", f"import json, {module}; print(json.dumps({module}.{call}))"],
        cwd=here, env=env, capture_output=True, text=True, check=False,
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
