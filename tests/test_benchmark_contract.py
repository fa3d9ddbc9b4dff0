"""The benchmark in perfbench/ drives chainrisk from outside; these tests
check the names it relies on without editing it."""

import os

import numpy as np
import pytest

from chainrisk import pipeline, synthgen

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture()
def perfbench_path(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)


def test_every_traced_name_is_still_bound(perfbench_path):
    import layers
    from tracer import Tracer

    tracer = Tracer()
    try:
        # Tracer.patch looks each name up in its owner's namespace and raises if it is gone
        layers.install(tracer)
        patched = list(tracer._patches)
        assert patched
        for owner, attr, raw in patched:
            assert vars(owner)[attr] is not raw, f"{owner.__name__}.{attr} was not rebound"
    finally:
        tracer.restore()
    for owner, attr, raw in patched:
        assert vars(owner)[attr] is raw, f"{owner.__name__}.{attr} was not restored"


def test_task_data_for_pairs_accepts_generated_pair_set():
    g, pair_set, _, _ = synthgen.generate(synthgen.paper_calibrated(num_smes=300, seed=7, sector_size=50))
    data = pipeline.TaskData.for_pairs(g, pair_set)
    assert data.kind == "pair"
    assert np.array_equal(data.examples, pair_set.examples)
    assert np.array_equal(data.split, pair_set.split)
    assert data.X.shape[0] == g.num_nodes
