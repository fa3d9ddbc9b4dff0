#!/usr/bin/env python3
"""Two-stage phase bench: one paper-calibrated economy, one JSON file per run.

    python3 bench/run_bench.py --smes 50000 --label n50000-mine

Run it from the root of a chainrisk checkout; the package is imported from
./src. It writes `BENCH_<label>.json` into --out (default: bench/) with
numpy and the standard library only, measuring this process alone
(`perf_counter`, `getrusage`, `tracemalloc`).

The run first makes and stores its economy:

    generate   synthgen.generate(paper_calibrated(--smes, --seed))
    write      dataio.write_dataset, the call `chainrisk generate` makes (graph,
               both label files and the ground truth), into a temporary
               directory
    read_cold  what `chainrisk train` reads of those files (read_graph and
               both label readers), with the parsed-input cache emptied
               before each call: each text is parsed; read_graph builds the
               graph, its normalized adjacency, its model inputs and their
               product and saves them as the graph copy, and each label
               table is saved as its own copy
    read_warm  the same reads again, each loading its copy (the graph copy
               with the adjacency, model inputs and product)

Each read phase is the median of REPEATS calls (`repeats` holds them all).

It then calls `pipeline.run_stage1_mining`, and each step the runner takes
through `pipeline` is one phase:

    build      from the runner call to its first step:
               pipeline.TaskData.build on the pair set, which checks that
               each split holds both classes (the set checked its examples
               when it was made) and takes the adjacency and model inputs
               from the generated graph (it builds them here, on their
               first use)
    train_task pipeline.train_task, EPOCHS epochs (patience = EPOCHS - 1, so
               every run has EPOCHS epochs)
    evaluate   pipeline.evaluate_model (gives the test AUC)
    candidates graph.candidate_pairs, the CSR frontier join over SME sources
    scoring    model.score_examples over the candidates
    enrich     graph.enrich at the config's tau, with the train and
               validation positives injected at score 1.0

After the runner returns, one phase scores the test split as `chainrisk
eval` does, the median of REPEATS calls:

    eval       model.score_examples on the test examples with the stage's
               model and task data; a one-layer pass reads rows of the
               product the adjacency keeps and runs no spmm

and then `pipeline.run_stage2_default` on the enriched graph, whose steps
are:

    stage2_build      from the runner call to its first step: the enriched
                      view, which builds its own adjacency and takes the
                      base graph's model inputs, and pipeline.TaskData.build
                      on the node set
    stage2_train_task pipeline.train_task, EPOCHS epochs
    stage2_evaluate   pipeline.evaluate_model
    stage2_scoring    model.score_examples over every node
    stage2_eval       as eval, with the stage-2 model and task data

For the length of each runner call the bench rebinds those steps' names in
`pipeline`; a call made inside another step (the scoring inside train_task
and evaluate_model) is part of that step's phase. The candidate and node
logits and the task data of each train_task are read off the steps'
arguments and results, and a stage that runs one of its steps other than
once stops the bench.

The stage-1 training shape is perfbench's `mine-5k` shape: one layer,
embedding and head width 64, dropout 0.1, learning rate 0.03. Stage 2
takes perfbench's `cli-20k` shape: one layer at the default widths,
dropout 0.1, learning rate 0.1. For each phase the file holds its seconds
and the process's peak RSS when it ended. For each train_task it also
holds every epoch's milliseconds and minor page faults (one epoch runs
from one training `score_examples` call to the next), the mean epoch, the
median faults of epochs 2 and later (`median_epoch_faults`: the first
epoch allocates what the later ones may reuse) and the faults of the
whole call. `peak_rss_mb` is the peak RSS at the end of stage 1. After
it is read, each train_task runs once more under `tracemalloc`, whose
peak is `tracemalloc_peak_mb`; its validation losses must equal the timed
run's. Last, generate, write and both reads run once more under
`tracemalloc`, the reads on the second set of files: generate's record
gets its peak and what it keeps when it returns (`tracemalloc_kept_mb`),
write's the peak of the writers alone, each read's its own peak; the
second economy and its files must have the first ones' digests, and every
read must give the generated arrays. `outputs` holds
sha256 digests of the generated arrays, of each written file, of both
stages' validation losses, the candidate logits, the mined edges and the
node scores, and of both stages' test logits, so two checkouts whose
outputs are byte-identical show equal digests.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import tracemalloc
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from chainrisk import dataio, pipeline, synthgen  # noqa: E402

EPOCHS = 10
# calls per read and eval phase, whose median is the phase's seconds
REPEATS = 5
SHAPE = dict(num_layers=1, embed_dim=64, head_hidden=64, dropout=0.1, learning_rate=0.03)
STAGE2_SHAPE = dict(num_layers=1, dropout=0.1, learning_rate=0.1)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def sha256(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class Phases:
    """Seconds and peak RSS per phase, in the order they ran."""

    def __init__(self):
        self.out = {}

    def run(self, name, call, *args, **kwargs):
        t0 = perf_counter()
        result = call(*args, **kwargs)
        self.out[name] = {"s": perf_counter() - t0, "peak_rss_mb": peak_rss_mb()}
        return result

    def median(self, name, call, *args, before=None):
        """call(*args) REPEATS times, each after before() if given; the median
        seconds is the phase's, and `repeats` holds every call's. Returns the
        last result."""
        times = []
        for _ in range(REPEATS):
            if before is not None:
                before()
            result = self.run(name, call, *args)
            times.append(self.out[name]["s"])
        self.out[name].update(s=statistics.median(times), repeats=times)
        return result


def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


# the steps the stage runners call through `pipeline`, and the phase each one's top-level call is timed as
STEPS = {"train_task": "train_task", "evaluate_model": "evaluate", "candidate_pairs": "candidates",
         "score_examples": "scoring", "enrich": "enrich"}


def run_stage(phases, prefix, names, runner, *args):
    """runner(*args), with each step in `names` timed as the phase prefix + STEPS[name].

    prefix + "build" runs from the runner call to its first step, and every
    training score_examples call inside train_task starts an epoch. Returns
    the runner's result and, per phase, the step's positional arguments and
    result.
    """
    steps, running, marks, t0 = {}, [], [], perf_counter()
    saved = {name: getattr(pipeline, name) for name in names}

    def timed(name):
        def step(*a, **kw):
            if running:  # a call inside another step belongs to that step's phase
                if kw.get("training"):
                    marks.append((perf_counter(), minor_faults()))
                return saved[name](*a, **kw)
            phase = prefix + STEPS[name]
            if phase in steps:
                raise SystemExit(f"{runner.__name__} ran {name} twice")
            # the first top-level step ends the build phase
            phases.out.setdefault(prefix + "build", {"s": perf_counter() - t0, "peak_rss_mb": peak_rss_mb()})
            running.append(phase)
            faults = minor_faults()
            steps[phase] = (a, phases.run(phase, saved[name], *a, **kw))
            running.pop()
            if name == "train_task":
                add_epochs(phases.out[phase], steps[phase][1], marks, faults)
            return steps[phase][1]
        return step

    vars(pipeline).update({name: timed(name) for name in names})
    try:
        result = runner(*args)
    finally:
        vars(pipeline).update(saved)
    for name in names:
        if prefix + STEPS[name] not in steps:
            raise SystemExit(f"{runner.__name__} did not run {name}")
    return result, steps


def add_epochs(record, result, marks, faults):
    """Add train_task's per-epoch figures, from the time and minor faults at each epoch's start, to its record."""
    marks.append((perf_counter(), minor_faults()))
    epochs = np.diff(np.asarray(marks), axis=0)
    epoch_ms, epoch_faults = 1e3 * epochs[:, 0], epochs[:, 1].astype(int)
    record.update(epochs=len(result.trace), epoch_ms=[round(float(ms), 3) for ms in epoch_ms],
                  mean_epoch_ms=float(np.mean(epoch_ms)), epoch_faults=epoch_faults.tolist(),
                  median_epoch_faults=float(np.median(epoch_faults[1:])), minor_faults=int(marks[-1][1] - faults))


def add_traced_peak(record, args, timed):
    """Run train_task(*args) again under tracemalloc; its peak goes into `record`.

    Returns the validation losses of `timed`, the timed run's result, which the rerun must equal.
    """
    val_losses = [row["val_loss"] for row in timed.trace]
    result, _, record["tracemalloc_peak_mb"] = traced(pipeline.train_task, *args)
    if [row["val_loss"] for row in result.trace] != val_losses:
        raise SystemExit("train_task under tracemalloc gave different validation losses")
    return val_losses


def traced(call, *args):
    """(call(*args), MB held when it returns, peak MB during it) under tracemalloc."""
    tracemalloc.start()
    try:
        result = call(*args)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept / 2**20, peak / 2**20


def economy_digest(economy):
    g, pair_set, node_set, truth = economy
    return sha256(g.indptr, g.indices, g.node_features, g.edge_features, pair_set.examples, pair_set.labels,
                  pair_set.split, node_set.labels, node_set.split, truth.supply_edges, truth.hidden_mask,
                  truth.default_labels)


def file_digests(paths):
    return {os.path.basename(path): dataio.sha256_file(path) for path in paths}


def read_files(out):
    """What `chainrisk train` reads of the files in `out`: the graph and both label files."""
    return (dataio.read_graph(out), dataio.read_pair_labels(os.path.join(out, "labels_sc.tsv")),
            dataio.read_node_labels(os.path.join(out, "labels_dp.tsv")))


def check_read(read, economy):
    g, pair_set, node_set, _ = economy
    back, (pairs, pair_labels), (nodes, node_labels) = read
    pairs_of_arrays = ((back.indptr, g.indptr), (back.indices, g.indices), (back.node_features, g.node_features),
                       (back.edge_features, g.edge_features), (back.node_kind, g.node_kind),
                       (pairs, pair_set.examples), (pair_labels, pair_set.labels),
                       (nodes, node_set.examples), (node_labels, node_set.labels))
    if not all(np.array_equal(a, b) for a, b in pairs_of_arrays):
        raise SystemExit("the readers gave arrays other than the generated ones")


def read_phases(phases, economy, out):
    """Run read_cold and read_warm on the files in `out`, checking what they give."""
    cache = os.path.join(out, dataio.CACHE_DIR)
    check_read(phases.median("read_cold", read_files, out, before=lambda: shutil.rmtree(cache, ignore_errors=True)),
               economy)
    if len(os.listdir(cache)) != 3:
        raise SystemExit("the cold read did not save the graph copy and a binary copy of each label file")
    check_read(phases.median("read_warm", read_files, out), economy)


def eval_phase(phases, name, model, data):
    """Time the scoring of the test examples of `data` with `model`, as `chainrisk eval` runs it; returns the logits."""
    test = data.examples[data.split == pipeline.TEST]
    return phases.median(name, pipeline.score_examples, model, data.adj, data.X, test)[0]


def add_traced_generate(phases, gen_config, digest, files):
    """Run generate, write and both reads again under tracemalloc; their peaks go into their records."""
    economy, kept, peak = traced(synthgen.generate, gen_config)
    phases.out["generate"].update(tracemalloc_peak_mb=peak, tracemalloc_kept_mb=kept)
    if economy_digest(economy) != digest:
        raise SystemExit("generate under tracemalloc gave a different economy")
    with tempfile.TemporaryDirectory() as out:
        paths, _, phases.out["write"]["tracemalloc_peak_mb"] = traced(dataio.write_dataset, out, *economy)
        if file_digests(paths) != files:
            raise SystemExit("the writers under tracemalloc gave different files")
        for name in ("read_cold", "read_warm"):
            read, _, phases.out[name]["tracemalloc_peak_mb"] = traced(read_files, out)
            check_read(read, economy)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smes", type=int, required=True, help="SMEs in the economy (5000 or 50000)")
    parser.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=os.path.join(ROOT, "bench"))
    args = parser.parse_args(argv)

    config = pipeline.TrainConfig(seed=args.seed, max_epochs=EPOCHS, patience=EPOCHS - 1, **SHAPE)
    gen_config = synthgen.paper_calibrated(num_smes=args.smes, seed=args.seed)
    phases = Phases()
    economy = phases.run("generate", synthgen.generate, gen_config)
    with tempfile.TemporaryDirectory() as out:
        files = file_digests(phases.run("write", dataio.write_dataset, out, *economy))
        read_phases(phases, economy, out)
    digest = economy_digest(economy)
    g, pair_set, node_set, _ = economy
    stage1, steps = run_stage(phases, "", tuple(STEPS), pipeline.run_stage1_mining, g, pair_set, config)
    stage_peak_rss_mb = peak_rss_mb()
    test_logits = eval_phase(phases, "eval", stage1.model, steps["train_task"][0][0])
    val_losses = add_traced_peak(phases.out["train_task"], *steps["train_task"])

    config2 = pipeline.TrainConfig(seed=args.seed, max_epochs=EPOCHS, patience=EPOCHS - 1, **STAGE2_SHAPE)
    stage2, steps2 = run_stage(phases, "stage2_", ("train_task", "evaluate_model", "score_examples"),
                               pipeline.run_stage2_default, stage1.enriched, node_set, config2)
    test_logits2 = eval_phase(phases, "stage2_eval", stage2.model, steps2["stage2_train_task"][0][0])
    val_losses2 = add_traced_peak(phases.out["stage2_train_task"], *steps2["stage2_train_task"])
    add_traced_generate(phases, gen_config, digest, files)

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {
        "label": args.label,
        "smes": args.smes,
        "nodes": g.num_nodes,
        "seed": args.seed,
        "train_rows": int(np.sum(steps["train_task"][0][0].split == pipeline.TRAIN)),
        "config": config.to_dict(),
        "stage2_config": config2.to_dict(),
        "stage2_train_rows": int(np.sum(steps2["stage2_train_task"][0][0].split == pipeline.TRAIN)),
        "phases": phases.out,
        "peak_rss_mb": stage_peak_rss_mb,
        "test_auc": stage1.reports["test"].auc,
        "stage2_test_auc": stage2.reports["test"].auc,
        "candidates": stage1.candidate_count,
        "mined_edges": stage1.enriched.num_mined,
        "outputs": {
            "economy": digest,
            "files": files,
            "val_losses": sha256(np.asarray(val_losses)),
            "candidate_logits": sha256(steps["scoring"][1][0]),
            "mined_edges": sha256(stage1.enriched.mined_pairs, stage1.enriched.mined_scores),
            "stage2_val_losses": sha256(np.asarray(val_losses2)),
            "node_logits": sha256(steps2["stage2_scoring"][1][0]),
            "test_logits": sha256(test_logits),
            "stage2_test_logits": sha256(test_logits2),
        },
        "environment": {
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        },
    }
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name in ("train_task", "stage2_train_task"):
        train = phases.out[name]
        print(f"{path}: {name} {train['s']:.2f} s, {train['mean_epoch_ms']:.1f} ms/epoch, "
              f"{train['median_epoch_faults']:.0f} faults/epoch, "
              f"tracemalloc peak {train['tracemalloc_peak_mb']:.1f} MB")
    for name in ("generate", "write", "read_cold", "read_warm"):
        phase = phases.out[name]
        print(f"{path}: {name} {phase['s']:.2f} s, peak RSS {phase['peak_rss_mb']:.1f} MB, "
              f"tracemalloc peak {phase['tracemalloc_peak_mb']:.1f} MB")
    for name in ("eval", "stage2_eval"):
        print(f"{path}: {name} {1e3 * phases.out[name]['s']:.2f} ms")
    print(f"{path}: stage-1 peak RSS {record['peak_rss_mb']:.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
