"""The benchmark in perfbench/ drives chainrisk from outside; these tests
check the names it relies on without editing it."""

import contextlib
import inspect
import io
import json
import os

import numpy as np
import pytest

from chainrisk import cli, dataio, model, pipeline, synthgen
from chainrisk.nn import sigmoid

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


def test_traced_readers_and_writers_take_a_path_first(perfbench_path):
    # layers.install sizes the file at a[0] of every READERS/WRITERS call, and
    # the directory or output list of read_graph/write_graph
    import layers

    for name in layers.READERS + layers.WRITERS:
        first = next(iter(inspect.signature(getattr(dataio, name)).parameters.values()))
        assert (first.name, first.kind) == ("path", first.POSITIONAL_OR_KEYWORD), name
    for name, arg in (("read_graph", "data_dir"), ("write_graph", "out_dir")):
        assert next(iter(inspect.signature(getattr(dataio, name)).parameters)) == arg


def test_traced_cli_run_counts_the_bytes_it_reads(perfbench_path, tmp_path):
    import layers
    from tracer import Tracer

    gen, train = tmp_path / "gen.json", tmp_path / "train.json"
    gen.write_text(json.dumps({"preset": "paper-calibrated", "num_smes": 300, "seed": 7, "sector_size": 50}))
    train.write_text(json.dumps({"num_layers": 1, "max_epochs": 5, "patience": 4, "hidden_dim": 16,
                                 "embed_dim": 16, "head_hidden": 16, "seed": 3}))
    data, run = str(tmp_path / "data"), str(tmp_path / "run")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["generate", "--config", str(gen), "--out", data]) == 0
        tracer = Tracer()
        layers.install(tracer)
        try:
            assert cli.main(["train", "dp", "--data", data, "--config", str(train), "--out", run,
                             "--no-enrich"]) == 0
            assert cli.main(["eval", "--checkpoint", os.path.join(run, "checkpoint_dp.bin"), "--data", data,
                             "--no-enrich"]) == 0
        finally:
            tracer.restore()
    read = sum(os.path.getsize(os.path.join(data, f)) for f in ("nodes.csv", "edges.tsv", "labels_dp.tsv"))
    assert layers.summarize(tracer, 0, len(tracer.spans))["dataio.bytes_read"] == 2 * read > 0


def test_task_data_for_pairs_accepts_generated_pair_set():
    g, pair_set, _, _ = synthgen.generate(synthgen.paper_calibrated(num_smes=300, seed=7, sector_size=50))
    data = pipeline.TaskData.for_pairs(g, pair_set)
    assert data.kind == "pair"
    assert np.array_equal(data.examples, pair_set.examples)
    assert np.array_equal(data.split, pair_set.split)
    assert data.X.shape[0] == g.num_nodes


@pytest.mark.parametrize("shape", ["MINE", "CLI"])
def test_benchmark_train_configs_pass_the_config_rules(perfbench_path, shape):
    # a TrainConfig checks itself when it is made, so a rule that rejects a
    # benchmark shape fails here rather than in a benchmark run
    import workloads

    config = workloads.train_config(3, getattr(workloads, shape))
    assert isinstance(config, pipeline.TrainConfig) and config.patience == config.max_epochs - 1


def test_score_examples_keeps_the_positions_layers_reads():
    # layers.score_call reads the examples at a[3] and the training flag at a[6]
    names = list(inspect.signature(model.score_examples).parameters)
    assert names[3] == "examples" and names[6] == "training"


def test_traced_stage1_scores_its_candidates_in_one_call(perfbench_path, monkeypatch):
    import layers
    from tracer import Tracer

    g, pair_set, _, _ = synthgen.generate(synthgen.paper_calibrated(num_smes=300, seed=7, sector_size=50))
    config = pipeline.TrainConfig(seed=3, num_layers=1, max_epochs=30, patience=8,
                                  hidden_dim=16, embed_dim=16, head_hidden=16)
    # no candidate of this small economy reaches the benchmark's tau of 0.9, so the
    # share is checked at the median candidate score of an untraced run of the same seed
    calls = []
    real = pipeline.score_examples
    monkeypatch.setattr(pipeline, "score_examples", lambda *a, **k: calls.append(real(*a, **k)) or calls[-1])
    pipeline.run_stage1_mining(g, pair_set, config)
    monkeypatch.setattr(pipeline, "score_examples", real)
    probs = sigmoid(calls[-1][0])
    monkeypatch.setattr(layers, "TAU", float(np.median(probs)))

    tracer = Tracer()
    layers.install(tracer)
    try:
        result = pipeline.run_stage1_mining(g, pair_set, config)
    finally:
        tracer.restore()
    spans = tracer.spans
    scoring = [s for i, s in enumerate(spans)
               if s[0] == "model.score_examples" and tracer.parent_name(i) == "pipeline.run_stage1_mining"]
    assert len(scoring) == 1
    assert scoring[0][4]["rows"] == result.candidate_count == probs.size
    flags = [s[4]["training"] for i, s in enumerate(spans)
             if s[0] == "model.score_examples" and tracer.parent_name(i) == "pipeline.train_task"]
    assert flags == [True, False] * len(result.trace)
    metrics = layers.summarize(tracer, 0, len(spans))
    assert metrics["pipeline.mined_share"] == np.mean(probs >= layers.TAU) > 0
    assert metrics["pipeline.train_task.epochs"] == len(result.trace)
