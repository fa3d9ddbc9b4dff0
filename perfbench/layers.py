"""Which chainrisk functions the traced run wraps, and the per-layer metrics
derived from their spans.

Seconds named after a function (`graph.spmm.s`) are self time: the span's
duration minus the time of the traced calls it made. Phase seconds
(`pipeline.candidate_pairs.s`, `pipeline.validation.s`,
`pipeline.score_candidates.s`, the epoch percentiles) are inclusive, taken
from the span of the call that makes up the phase; scoring calls are told
apart by their parent span and their `training` flag.
"""

import os
import statistics

import numpy as np

from chainrisk import cli, dataio, graph, metrics, model, pipeline, synthgen
from chainrisk.nn import sigmoid
from workloads import TAU

WRITERS = ("write_pair_labels", "write_node_labels", "write_ground_truth", "write_mined_edges",
           "write_roc_points", "write_scores", "write_manifest")
READERS = ("read_node_labels", "read_pair_labels", "read_mined_edges", "read_ground_truth")

# (metric name, unit, better); the order is the order of BENCHMARK.json's per_layer
METRICS = [
    ("synthgen.generate.s", "s", "lower"),
    ("dataio.write.s", "s", "lower"),
    ("dataio.read.s", "s", "lower"),
    ("dataio.sha256.s", "s", "lower"),
    ("dataio.bytes_written", "B", "lower"),
    ("dataio.bytes_read", "B", "lower"),
    ("graph.spmm.s", "s", "lower"),
    ("graph.spmm.calls", "count", "lower"),
    ("graph.spmm.flops", "flop", "lower"),
    ("graph.normalize_adjacency.s", "s", "lower"),
    ("graph.enrich.s", "s", "lower"),
    ("pipeline.run_stage.s", "s", "lower"),
    ("pipeline.train_task.s", "s", "lower"),
    ("pipeline.train_task.epochs", "count", "lower"),
    ("pipeline.epoch.ms_p50", "ms", "lower"),
    ("pipeline.epoch.ms_p90", "ms", "lower"),
    ("pipeline.validation.s", "s", "lower"),
    ("pipeline.candidate_pairs.s", "s", "lower"),
    ("pipeline.candidate_pairs.count", "count", "lower"),
    ("pipeline.candidate_pairs.hidden_recall", "ratio", "higher"),
    ("pipeline.score_candidates.s", "s", "lower"),
    ("pipeline.mined_share", "ratio", "higher"),
    ("pipeline.injected_known", "count", "lower"),
    ("pipeline.useful_epoch_share", "ratio", "higher"),
    ("model.gcn_forward.s", "s", "lower"),
    ("model.gcn_backward.s", "s", "lower"),
    ("model.pair_logits.s", "s", "lower"),
    ("model.node_logits.s", "s", "lower"),
    ("model.head_backward.s", "s", "lower"),
    ("model.head.rows", "count", "lower"),
    ("model.save_checkpoint.s", "s", "lower"),
    ("model.load_checkpoint.s", "s", "lower"),
    ("nn.adam_step.s", "s", "lower"),
    ("nn.dropout.s", "s", "lower"),
    ("metrics.eval_report.s", "s", "lower"),
    ("metrics.test_ks", "ratio", "higher"),
    ("cli.generate.s", "s", "lower"),
    ("cli.train.s", "s", "lower"),
    ("cli.eval.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unlisted_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]
UNITS = {name: unit for name, unit, _ in METRICS}
STAGE_SPANS = ("pipeline.run_stage1_mining", "pipeline.run_stage2_default")
# summed over the traced set-up and the traced repetition; the rest come from the repetition
ADDITIVE = {name for name, unit, _ in METRICS if unit in ("s", "B", "flop") or name.endswith(".calls")}


def _size(path):
    return os.path.getsize(path) if os.path.exists(path) else 0


def install(tracer):
    """Wrap every traced function where its callers look it up."""
    p = tracer.patch
    for owner in (synthgen, cli):
        p(owner, "generate", "synthgen.generate")
    p(dataio, "write_graph", "dataio.write",
      on_return=lambda t, i, a, k, out: t.spans[i][4].update(bytes=sum(_size(x) for x in out)))
    for attr in WRITERS:
        p(dataio, attr, "dataio.write",
          on_return=lambda t, i, a, k, out: t.spans[i][4].update(bytes=_size(a[0])))
    p(dataio, "read_graph", "dataio.read",
      on_call=lambda a, k: {"bytes": _size(os.path.join(a[0], "nodes.csv")) + _size(os.path.join(a[0], "edges.tsv"))})
    for attr in READERS:
        p(dataio, attr, "dataio.read", on_call=lambda a, k: {"bytes": _size(a[0])})
    p(dataio, "sha256_file", "dataio.sha256", on_call=lambda a, k: {"bytes": _size(a[0])})

    for owner in (model, pipeline):
        p(owner, "spmm", "graph.spmm",
          on_call=lambda a, k: {"flops": 2 * int(a[0].indices.size) * int(np.shape(a[1])[1])})
    p(pipeline, "normalize_adjacency", "graph.normalize_adjacency")
    for owner in (graph, pipeline, cli):
        p(owner, "enrich", "graph.enrich")

    for owner in (pipeline, cli):
        p(owner, "run_stage1_mining", "pipeline.run_stage1_mining")
        p(owner, "run_stage2_default", "pipeline.run_stage2_default")
    p(pipeline, "train_task", "pipeline.train_task")
    p(pipeline, "evaluate_model", "pipeline.evaluate_model")
    p(pipeline, "candidate_pairs", "pipeline.candidate_pairs")

    def scored(t, i, a, k, out):
        if t.parent_name(i) == "pipeline.run_stage1_mining":
            t.spans[i][4]["at_or_above_tau"] = int(np.sum(sigmoid(out[0]) >= TAU))

    def score_call(a, k):
        training = k.get("training", a[6] if len(a) > 6 else False)
        return {"training": bool(training), "rows": len(a[3])}

    for owner in (pipeline, cli):
        p(owner, "score_examples", "model.score_examples", on_call=score_call, on_return=scored)
    p(model, "gcn_forward", "model.gcn_forward")
    p(model, "gcn_backward", "model.gcn_backward")
    for attr in ("pair_logits", "node_logits"):
        p(model, attr, f"model.{attr}", on_call=lambda a, k: {"rows": len(a[1])})
    p(model, "head_backward", "model.head_backward")
    p(cli, "save_checkpoint", "model.save_checkpoint")
    p(cli, "load_checkpoint", "model.load_checkpoint")
    p(model, "dropout", "nn.dropout")
    p(pipeline, "adam_step", "nn.adam_step")
    p(metrics.EvalReport, "from_scores", "metrics.eval_report")


def combine(setup_part, rep_parts):
    """Median over the traced repetitions, plus the set-up's share of additive metrics."""
    out = {}
    for name, _, _ in METRICS:
        value = statistics.median(r[name] for r in rep_parts)
        out[name] = value + setup_part[name] if name in ADDITIVE else value
    return out


def summarize(tracer, first, last):
    """Per-layer metrics from spans[first:last] (one set-up or one repetition)."""
    spans = tracer.spans
    own = tracer.self_times(first, last)
    out = {name: 0.0 for name, _, _ in METRICS}
    epochs = []
    head_rows = 0
    cand_scored = cand_kept = 0
    for i in range(first, last):
        name, start, end, parent, attrs = spans[i]
        key = "pipeline.run_stage.s" if name in STAGE_SPANS else f"{name}.s"
        out[key if key in out else "trace.unlisted_s"] += own[i]
        if name == "pipeline.candidate_pairs":  # a phase: its spmm calls count here too
            out[key] += end - start - own[i]
        pname = spans[parent][0] if parent >= first else None
        if name == "graph.spmm":
            out["graph.spmm.calls"] += 1
            out["graph.spmm.flops"] += attrs["flops"]
        elif name == "dataio.write":
            out["dataio.bytes_written"] += attrs.get("bytes", 0)
        elif name == "dataio.read":
            out["dataio.bytes_read"] += attrs["bytes"]
        elif name == "model.score_examples" and pname == "pipeline.train_task" and not attrs["training"]:
            out["pipeline.validation.s"] += end - start
        elif name == "model.score_examples" and pname == "pipeline.run_stage1_mining":
            out["pipeline.score_candidates.s"] += end - start
            cand_scored += attrs["rows"]
            cand_kept += attrs["at_or_above_tau"]
        elif name in ("model.pair_logits", "model.node_logits"):
            grand = spans[parent][3] if parent >= first else -1
            if grand >= first and spans[grand][0] == "pipeline.train_task":
                head_rows += attrs["rows"]
        elif name == "pipeline.train_task":
            starts = [spans[j][1] for j in range(i + 1, last)
                      if spans[j][3] == i and spans[j][0] == "model.score_examples" and spans[j][4]["training"]]
            epochs += list(np.diff(starts + [end]))
            out["pipeline.train_task.epochs"] += len(starts)
    if epochs:
        out["pipeline.epoch.ms_p50"] = 1e3 * float(np.percentile(epochs, 50))
        out["pipeline.epoch.ms_p90"] = 1e3 * float(np.percentile(epochs, 90))
    if out["pipeline.train_task.epochs"]:
        out["model.head.rows"] = head_rows / out["pipeline.train_task.epochs"]
    if cand_scored:
        out["pipeline.mined_share"] = cand_kept / cand_scored
    out["trace.spans"] = last - first
    return out
