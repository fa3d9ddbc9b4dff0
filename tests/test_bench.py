"""Smoke test of `bench/run_bench.py` on a small economy."""

import contextlib
import importlib.util
import io
import json
import os
import re

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
    assert len(documented) == 14 and documented[0] == "generate" and documented[-1] == "stage2_scoring"
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
    assert set(record["outputs"]) == {"economy", "files", "val_losses", "candidate_logits", "mined_edges",
                                      "stage2_val_losses", "node_logits"}
    assert set(record["outputs"]["files"]) == {"nodes.csv", "edges.tsv", "labels_sc.tsv", "labels_dp.tsv",
                                               "ground_truth.tsv"}
    assert record["candidates"] > 0 and 0.0 <= record["test_auc"] <= 1.0
