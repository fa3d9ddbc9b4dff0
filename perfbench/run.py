#!/usr/bin/env python3
"""chainrisk benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload mine-5k --seed 1 --seconds 55 --trace 0

Run it from the root of a chainrisk checkout; the package is imported from
./src, and scratch files go to ./.perfbench_work (removed on exit). With
--trace 0 the run is a series of rounds, each of which builds the inputs
and then runs the timed part once, until --seconds are used (at least
MIN_REPS rounds); the last line of stdout is a JSON object with the
end-to-end metrics (medians over builds and repetitions). With --trace 1
the inputs are built once, traced, then untraced and traced repetitions
alternate; the object holds the per-layer metrics and the spans go to
./.perfbench_out. A failed operation makes `correct` false; metrics that
no completed repetition measured are null.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# each round builds the inputs at least once, and again while its builds and the
# evals between them take under SETUP_ROUND_SECONDS; spreading builds and evals
# over the whole run makes setup_s and eval_s see the same host drift as the
# timed part, instead of a few short stretches of it
SETUP_ROUND_SECONDS = 2.0
MIN_REPS = 3

# (name, unit); BENCHMARK.json's end_to_end list holds the same names and units
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("samples_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("test_auc", "ratio"),
    ("eval_s", "s"),
]
STAGE_OP = {"mine-5k": "run_stage1_mining", "cli-20k": "train"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(STAGE_OP))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def repeat(seconds, one, min_reps):
    """Call `one` at least `min_reps` times, and again while the next call fits in
    `seconds`; stop as soon as it returns False (a failed round)."""
    start = perf_counter()
    calls = 0
    while True:
        t0 = perf_counter()
        ok = one()
        calls += 1
        took = perf_counter() - t0
        if ok is False or (calls >= min_reps and perf_counter() - start + took > seconds):
            return


class Run:
    """Everything one benchmark run measured, failures included."""

    def __init__(self):
        self.setup_times = []
        self.setup_failures = []
        self.eval_times = []  # evals between builds
        self.eval_failures = []
        self.reps = []

    def build(self, workload, seed, work_dir, tracer=None, min_seconds=0.0, last=None):
        """Build the inputs (at least once) until `min_seconds` have passed.

        After each build, the model of `last` (the last finished repetition) is
        evaluated `workload.evals_per_build` times on the new inputs; that time
        counts towards `min_seconds`. Returns the last inputs, or None if a
        build or an eval failed."""
        start = perf_counter()
        state = None
        while state is None or perf_counter() - start < min_seconds:
            state = None  # release the previous inputs before building the next
            t0 = perf_counter()
            try:
                state = workload.setup(seed, work_dir, tracer)
            except Exception as err:
                self.setup_failures.append(f"setup: raised {err!r}")
                return None
            self.setup_times.append(perf_counter() - t0)
            for _ in range(workload.evals_per_build if last else 0):
                took, problem = workload.evaluate(state, last)
                if problem:
                    self.eval_failures.append(f"eval between builds: {problem}")
                    return None
                self.eval_times.append(took)
        return state

    def completed(self, workload):
        """Repetitions that ran to the end; their test AUC and KS must agree (one seed)."""
        done = [r for r in self.reps if r.finished]
        for rep in done[1:]:
            if (rep.test_auc, rep.test_ks) != (done[0].test_auc, done[0].test_ks):
                rep.fail(STAGE_OP[workload], "test auc/ks differ from the first repetition of this seed")
        return done

    def attempted(self):
        return (len(self.setup_times) + len(self.setup_failures) + len(self.eval_times)
                + len(self.eval_failures) + sum(r.ops for r in self.reps))

    def failed(self):
        return len(self.setup_failures) + len(self.eval_failures) + sum(len(r.failed_ops) for r in self.reps)


def median_or_none(values):
    values = list(values)
    return statistics.median(values) if values else None


def run_plain(args, workload, work_dir):
    run = Run()

    def one_round():
        last = run.reps[-1] if run.reps else None
        state = run.build(workload, args.seed, work_dir, min_seconds=SETUP_ROUND_SECONDS, last=last)
        if state is None:
            return False
        run.reps.append(workload.rep(state))
        return run.reps[-1].finished

    repeat(args.seconds, one_round, MIN_REPS)
    done = run.completed(args.workload)
    values = {
        "setup_s": median_or_none(run.setup_times),
        "wall_s": median_or_none(r.wall_s for r in done),
        "samples_per_s": median_or_none(r.train_examples * r.epochs / r.wall_s for r in done),
        "peak_rss_mb": peak_rss_mb(),
        "test_auc": done[0].test_auc if done else None,
        "eval_s": median_or_none(run.eval_times + [t for r in done for t in r.eval_times]),
    }
    return run, {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def run_traced(args, workload, work_dir):
    import layers
    from tracer import Tracer

    tracer = Tracer()
    spans = tracer.spans
    run = Run()

    def traced(call):
        first = len(spans)
        layers.install(tracer)
        try:
            return call(), (first, len(spans))
        finally:
            tracer.restore()

    state, setup_window = traced(lambda: run.build(workload, args.seed, work_dir, tracer))
    plain, traced_reps, windows = [], [], []

    def pair():
        plain.append(workload.rep(state))
        rep, window = traced(lambda: workload.rep(state, tracer))
        traced_reps.append(rep)
        windows.append(window)
        return plain[-1].finished and rep.finished

    if state is not None:
        repeat(args.seconds, pair, 1)
    run.reps = plain + traced_reps
    done = run.completed(args.workload)
    traced_done = [r for r in traced_reps if r in done]
    plain_done = [r for r in plain if r in done]
    values = dict.fromkeys(layers.UNITS)
    if traced_done:
        values = layers.combine(layers.summarize(tracer, *setup_window),
                                [layers.summarize(tracer, *w) for w, r in zip(windows, traced_reps) if r in done])
        values.update({k: v for k, v in traced_done[0].computed.items() if k in layers.UNITS})
        values["metrics.test_ks"] = traced_done[0].test_ks
        if plain_done:
            values["trace.overhead_s"] = (statistics.median(r.wall_s for r in traced_done)
                                          - statistics.median(r.wall_s for r in plain_done))
        else:
            values["trace.overhead_s"] = None
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.dump(os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.jsonl"))
    for name, unit, _ in layers.METRICS:
        shown = "null" if values[name] is None else f"{values[name]:.6g}"
        print(f"{name:42s} {shown:>16} {unit}")
    return run, {name: {"value": values[name], "unit": unit} for name, unit, _ in layers.METRICS}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "chainrisk", "__init__.py")):
        print(f"error: no chainrisk sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:  # must precede the first numpy import
        os.environ[var] = str(NPROC)
    sys.path.insert(0, SRC)
    import chainrisk

    if os.path.dirname(os.path.abspath(chainrisk.__file__)) != os.path.join(SRC, "chainrisk"):
        print(f"error: imported chainrisk from {chainrisk.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    work_dir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(work_dir)
    try:
        run, metrics = (run_traced if args.trace else run_plain)(args, workload, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            os.rmdir(os.path.dirname(work_dir))
    reps = run.reps
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": environment(),
        "setup_s_samples": run.setup_times,
        "eval_s_between_builds": run.eval_times,
        "reps": [{"wall_s": r.wall_s, "eval_s": r.eval_s, "eval_times": r.eval_times, "epochs": r.epochs,
                  "train_examples": r.train_examples, "test_auc": r.test_auc, "test_ks": r.test_ks}
                 for r in reps],
        "computed": reps[0].computed if reps else {},
        "failures": run.setup_failures + run.eval_failures + [f for r in reps for f in r.failures],
    }
    print(json.dumps(record))
    failed = run.failed()
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted(),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
