"""Pinned outputs of the seeded samplers.

The digests were recorded before the three rejection samplers (social ties
and uniform negatives in the generator, `sample_negatives`) were merged into
`graph.sample_pair_keys`; any change to how they consume the random stream
shows up here.
"""

import hashlib
import os

import numpy as np
import pytest

from chainrisk import dataio, synthgen
from chainrisk.graph import SmeGraph
from chainrisk.pipeline import sample_negatives

GENERATE_DIGESTS = {
    "cli-300": (
        dict(num_smes=300, seed=7, sector_size=50),
        {
            "nodes.csv": "060f101b49752297c22b6efdda67ddc5b2f00656065cccdb49fa4e942489cd9e",
            "edges.tsv": "ebdf75903441dfc3146ed016872d6cf9ab5737611c2fb46ce0441edb00d89d37",
            "labels_sc.tsv": "4ee807bde394d247a27f66f719b4410a5a126a6457e9fe74e3d4c3e064ec3943",
            "labels_dp.tsv": "061968fb25a9e7b33adf73d5b5a0ceb62cc5b6bf3ced5175c2799f252fbfd749",
            "ground_truth.tsv": "3322f3f377690771e7459499e834a4ee659023ba8fa6903a554b8db371d693e6",
        },
    ),
    "paper-2000": (
        dict(num_smes=2000, seed=0),
        {
            "nodes.csv": "fea8de277741eb4276ec08ea3db4c869cb523565ae523f525d0658991756c32f",
            "edges.tsv": "4160bc431743c445026cff7fccd9724f8f27989592de72b941ed266753c8f7d8",
            "labels_sc.tsv": "b1be08280dcf6319ea1cd27e8145b4be457b41c57615b767bf5ff589a5daefb2",
            "labels_dp.tsv": "d067c864fb7a7d1e5b2c6534b35b3452c52c56bcdd695bb375e780cbf9483ae3",
            "ground_truth.tsv": "b39a9622f6a20dfcf90fd5c739bfb84e97439a9cd2dcf5fc57b1be0efc3d7d95",
        },
    ),
}


def _array_digest(a):
    a = np.ascontiguousarray(np.asarray(a, dtype="<i8"))
    return a.shape, hashlib.sha256(a.tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GENERATE_DIGESTS))
def test_generate_artifacts_are_pinned(tmp_path, name):
    kwargs, expected = GENERATE_DIGESTS[name]
    g, pair_set, node_set, truth = synthgen.generate(synthgen.paper_calibrated(**kwargs))
    paths = dataio.write_graph(str(tmp_path), g)
    for fname, write, args in (
        ("labels_sc.tsv", dataio.write_pair_labels, (pair_set.examples, pair_set.labels)),
        ("labels_dp.tsv", dataio.write_node_labels, (node_set.examples, node_set.labels)),
        ("ground_truth.tsv", dataio.write_ground_truth, (truth,)),
    ):
        paths.append(str(tmp_path / fname))
        write(paths[-1], *args)
    assert {os.path.basename(p): dataio.sha256_file(p) for p in paths} == expected


def _dense_graph():
    """14 nodes with 49 of the 91 pairs linked."""
    rng = np.random.default_rng(0)
    edges = [(u, v) for u in range(14) for v in range(u + 1, 14) if rng.random() < 0.6]
    return SmeGraph.from_edge_list(14, edges, np.zeros((14, 1))), edges


@pytest.fixture(scope="module")
def cli_economy():
    g, pair_set, _, _ = synthgen.generate(synthgen.paper_calibrated(num_smes=300, seed=7, sector_size=50))
    return g, pair_set.examples[pair_set.labels == 1]


def test_sample_negatives_rejection_branch_is_pinned(cli_economy):
    g, positives = cli_economy
    # (positives, ratio, seed, nodes) -> (shape, sha256 of the int64 pairs)
    cases = [
        ((positives, 1.0, 3, None), ((107, 2), "57789181cf27d1dece6e49e0f87a7a00fa4d755660f3ff60815c9d70571cd1da")),
        ((positives[:20], 2.0, 5, np.arange(0, 300, 2)),
         ((40, 2), "1d88fc49ffd54910a8468117c7bb1a98ca99132cecdbd10fa64a9f77d836b9ea")),
        ((positives[:30], 1.5, 11, np.random.default_rng(1).permutation(300)[:150]),
         ((45, 2), "5bf40faf4885a7c8529854653c64a79b9ac2b581b025abc33400514a1dd931fa")),
    ]
    for (pos, ratio, seed, nodes), expected in cases:
        assert _array_digest(sample_negatives(g, pos, ratio, seed, nodes=nodes)) == expected


def test_sample_negatives_dense_pool_branch_is_pinned():
    g, edges = _dense_graph()
    non_edges = [(u, v) for u in range(14) for v in range(u + 1, 14) if (u, v) not in edges]
    # 36 allowed non-edges for 9 draws, and 11 for 3: both at most 4x the count
    full = sample_negatives(g, non_edges[:6], 1.5, 2)
    assert _array_digest(full) == ((9, 2), "443f7f152bfb7663cb9d4bd4d777d00c1289ade4a79f190c96629df15713deca")
    subset = sample_negatives(g, [(13, 2), (7, 4), (0, 1)], 1.0, 9, nodes=np.array([13, 2, 7, 4, 9, 11, 0]))
    assert _array_digest(subset) == ((3, 2), "3a02b769fe8f822c0a4c0233955f7478e35b5bbaa1cc227c7ba5baa39670d324")
