"""Smoke test of `bench/run_bench.py` on a small economy."""

import ast
import contextlib
import importlib.util
import io
import json
import os
import re
import statistics
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_bench():
    spec = importlib.util.spec_from_file_location("run_bench", os.path.join(ROOT, "bench", "run_bench.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_writes_every_documented_phase_and_output(tmp_path):
    bench = load_bench()
    # besides the example command line, the docstring's lines indented by four
    # spaces each name a phase and say what it runs
    documented = re.findall(r"^    ([a-z0-9_]+) ", bench.__doc__, flags=re.MULTILINE)
    documented.remove("python3")
    assert len(documented) == 16 and documented[0] == "generate" and documented[-1] == "stage2_eval"
    with contextlib.redirect_stdout(io.StringIO()):
        assert bench.main(["--smes", "300", "--label", "smoke", "--out", str(tmp_path)]) == 0
    record = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert sorted(record["phases"]) == sorted(documented)
    for phase in record["phases"].values():
        assert phase["s"] > 0 and phase["peak_rss_mb"] > 0
    for name in ("train_task", "stage2_train_task"):
        train = record["phases"][name]
        assert train["epochs"] == len(train["epoch_ms"]) == bench.EPOCHS and train["tracemalloc_peak_mb"] > 0
    for name in ("generate", "write", "read_cold", "read_warm"):
        assert record["phases"][name]["tracemalloc_peak_mb"] > 0
    for name in ("read_cold", "read_warm", "eval", "stage2_eval"):
        phase = record["phases"][name]
        assert len(phase["repeats"]) == bench.REPEATS and phase["s"] == statistics.median(phase["repeats"])
    assert set(record["outputs"]) == {"economy", "files", "val_losses", "candidate_logits", "mined_edges",
                                      "stage2_val_losses", "node_logits", "test_logits", "stage2_test_logits"}
    assert set(record["outputs"]["files"]) == {"nodes.csv", "edges.tsv", "labels_sc.tsv", "labels_dp.tsv",
                                               "ground_truth.tsv"}
    assert record["candidates"] > 0 and 0.0 <= record["test_auc"] <= 1.0


def test_bench_times_the_stage_runners(tmp_path, monkeypatch):
    """The bench runs each stage runner once and reports what the runner returned."""
    bench = load_bench()
    results = {}

    def counting(name, runner):
        def run(*args):
            results.setdefault(name, []).append(runner(*args))
            return results[name][-1]
        return run

    for name in ("run_stage1_mining", "run_stage2_default"):
        monkeypatch.setattr(bench.pipeline, name, counting(name, getattr(bench.pipeline, name)))
    with contextlib.redirect_stdout(io.StringIO()):
        assert bench.main(["--smes", "300", "--label", "runners", "--out", str(tmp_path)]) == 0
    assert {name: len(runs) for name, runs in results.items()} == {"run_stage1_mining": 1, "run_stage2_default": 1}
    (stage1,), (stage2,) = results["run_stage1_mining"], results["run_stage2_default"]
    record = json.loads((tmp_path / "BENCH_runners.json").read_text())
    assert record["candidates"] == stage1.candidate_count > 0
    assert record["mined_edges"] == stage1.enriched.num_mined
    assert record["test_auc"] == stage1.reports["test"].auc
    assert record["stage2_test_auc"] == stage2.reports["test"].auc


def test_every_cold_read_parses_and_no_warm_read_does(tmp_path, monkeypatch):
    bench = load_bench()
    economy = bench.synthgen.generate(bench.synthgen.paper_calibrated(num_smes=300, seed=0))
    bench.dataio.write_dataset(str(tmp_path), *economy)
    saves, save = [], bench.dataio._save_copy
    monkeypatch.setattr(bench.dataio, "_save_copy", lambda *args: saves.append(args[0]) or save(*args))
    phases = bench.Phases()
    bench.read_phases(phases, economy, str(tmp_path))
    assert len(saves) == 3 * bench.REPEATS  # the graph copy and both label files, per cold call
    assert sorted(phases.out) == ["read_cold", "read_warm"]


def test_eval_phase_scores_the_test_split_with_the_stage_model(monkeypatch):
    bench = load_bench()
    calls = []
    monkeypatch.setattr(bench.pipeline, "score_examples", lambda *args, **kwargs: calls.append((args, kwargs)) or
                        (len(calls), None))
    data = bench.pipeline.TaskData(adj="adj", X=bench.np.zeros((3, 1)), examples=bench.np.array([4, 5, 6]),
                                   labels=bench.np.zeros(3), split=bench.np.array([0, 2, 2]), kind="node")
    phases = bench.Phases()
    assert bench.eval_phase(phases, "eval", "model", data) == bench.REPEATS
    assert len(calls) == bench.REPEATS
    for args, kwargs in calls:
        assert args[:3] == ("model", "adj", data.X) and args[3].tolist() == [5, 6] and kwargs == {}
    assert len(phases.out["eval"]["repeats"]) == bench.REPEATS


def test_bench_stops_when_a_stage_runs_a_step_other_than_once(monkeypatch):
    bench = load_bench()
    step = lambda *args: None  # noqa: E731
    monkeypatch.setattr(bench.pipeline, "enrich", step)

    def enrich_twice():
        bench.pipeline.enrich()
        bench.pipeline.enrich()

    with pytest.raises(SystemExit, match="enrich_twice ran enrich twice"):
        bench.run_stage(bench.Phases(), "", ("enrich",), enrich_twice)
    with pytest.raises(SystemExit, match="did not run enrich"):
        bench.run_stage(bench.Phases(), "", ("enrich",), lambda: None)
    assert bench.pipeline.enrich is step


def test_bench_imports_numpy_chainrisk_and_the_standard_library_only():
    with open(os.path.join(ROOT, "bench", "run_bench.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    names += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    roots = {name.split(".")[0] for name in names}
    assert {"numpy", "chainrisk", "tracemalloc"} <= roots
    assert roots - sys.stdlib_module_names - {"numpy", "chainrisk"} == set()
