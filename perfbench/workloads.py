"""The chainrisk workloads: set-up, one timed repetition, output checks.

Each workload is built from the run seed alone; the program receives only
the generated inputs. An operation is one timed top-level call, the
scoring passes that follow it, or one CLI command. It fails if it raises,
exits non-zero, or fails its output check; `Rep.fail` records which
operation failed and why.
"""

import contextlib
import hashlib
import io
import json
import os
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from chainrisk import cli, metrics, pipeline, synthgen
from chainrisk.nn import sigmoid

# Model shapes follow the acceptance suite (criterion 4's stage-1 shape; stage 2
# at the default widths). Learning rates are raised so that a short run still
# lands near the converged AUC, and patience = max_epochs - 1 keeps early
# stopping from firing, so every seed runs the same number of epochs.
MINE = dict(num_layers=1, embed_dim=64, head_hidden=64, dropout=0.1, learning_rate=0.03, max_epochs=80)
CLI = dict(num_layers=1, dropout=0.1, learning_rate=0.1, max_epochs=30)
TAU = pipeline.TrainConfig().tau
# eval_s samples per untraced repetition (a traced one runs a single pass);
# the run adds more between builds (`evals_per_build`), so that the samples
# are spread over the run rather than bunched after each repetition
EVAL_PASSES = 10
CLI_EVALS = 3


def train_config(seed, shape):
    return pipeline.TrainConfig(seed=seed, patience=shape["max_epochs"] - 1, **shape)


@dataclass(eq=False)
class Rep:
    """One timed repetition of a workload (compared by identity)."""

    wall_s: float = 0.0
    eval_s: float = 0.0  # median of eval_times
    eval_times: list = field(default_factory=list)
    train_examples: int = 0
    epochs: int = 0
    test_auc: float = float("nan")
    test_ks: float = float("nan")
    model: object = None  # the trained model (mine-5k), scored again between builds
    ops: int = 0
    failed_ops: set = field(default_factory=set)
    failures: list = field(default_factory=list)
    computed: dict = field(default_factory=dict)  # exact work counts, not timings

    @property
    def finished(self):
        """The timed part and its scoring passes ran to the end."""
        return self.wall_s > 0 and self.eval_s > 0

    def fail(self, op, message):
        self.failed_ops.add(op)
        self.failures.append(f"{op}: {message}")


@contextlib.contextmanager
def span(tracer, name):
    """A bench-side span around a call into the program; no-op untraced."""
    if tracer is None:
        yield
        return
    idx = tracer.open(name)
    try:
        yield
    finally:
        tracer.close(idx)


@contextlib.contextmanager
def capture_returns(owner, attr, sink):
    """Append every return value of owner.attr to `sink` while active."""
    func = getattr(owner, attr)

    def capturing(*args, **kwargs):
        out = func(*args, **kwargs)
        sink.append(out)
        return out

    setattr(owner, attr, capturing)
    try:
        yield sink
    finally:
        setattr(owner, attr, func)


def _keys(pairs, n):
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return np.minimum(pairs[:, 0], pairs[:, 1]) * n + np.maximum(pairs[:, 0], pairs[:, 1])


class Mine5k:
    """Stage 1: pair-head training, candidate search and scoring, enrichment."""

    name = "mine-5k"
    evals_per_build = 5

    def setup(self, seed, work_dir, tracer=None):
        g, pair_set, _, truth = synthgen.generate(synthgen.paper_calibrated(num_smes=5000, seed=seed))
        return {"seed": seed, "g": g, "pair_set": pair_set, "truth": truth}

    def rep(self, st, tracer=None):
        config = train_config(st["seed"], MINE)
        g, pair_set = st["g"], st["pair_set"]
        rep = Rep(ops=1)
        cands = []
        with capture_returns(pipeline, "candidate_pairs", cands):
            t0 = perf_counter()
            try:
                result = pipeline.run_stage1_mining(g, pair_set, config)
            except Exception as err:
                rep.fail("run_stage1_mining", f"raised {err!r}")
                return rep
            rep.wall_s = perf_counter() - t0
        test = result.reports["test"]
        rep.test_auc, rep.test_ks, rep.model = test.auc, test.ks, result.model
        rep.epochs = len(result.trace)
        rep.train_examples = int(np.sum(np.asarray(pair_set.split) == pipeline.TRAIN))
        rep.ops += 1  # the scoring passes
        for _ in range(1 if tracer else EVAL_PASSES):
            took, problem = self.evaluate(st, rep)
            if problem:
                rep.fail("eval", problem)
                break
            rep.eval_times.append(took)
        else:
            rep.eval_s = statistics.median(rep.eval_times)

        observed = _keys(g.undirected_edges()[0], g.num_nodes)
        if len(cands) != 1 or np.ndim(cands[0]) != 2 or np.shape(cands[0])[1:] != (2,):
            rep.fail("run_stage1_mining", f"expected one (k, 2) candidate array, got {len(cands)} calls")
            return rep
        cand = np.asarray(cands[0], dtype=np.int64)
        cand_keys = cand[:, 0] * g.num_nodes + cand[:, 1]
        if np.any(cand[:, 0] >= cand[:, 1]) or np.unique(cand_keys).size != cand_keys.size:
            rep.fail("run_stage1_mining", "candidates are not canonical (u < v, no duplicates)")
        if np.isin(cand_keys, observed).any():
            rep.fail("run_stage1_mining", "candidates contain an observed edge")
        enriched = result.enriched
        if np.any(enriched.mined_scores < config.tau):
            rep.fail("run_stage1_mining", "an enriched edge scores below tau")
        if np.isin(_keys(enriched.mined_pairs, g.num_nodes), observed).any():
            rep.fail("run_stage1_mining", "an enriched edge duplicates an observed edge")

        hidden = _keys(st["truth"].hidden_supply(), g.num_nodes)
        known = (np.asarray(pair_set.labels) == 1) & (np.asarray(pair_set.split) != pipeline.TEST)
        rep.computed = {
            "pipeline.candidate_pairs.count": int(cand.shape[0]),
            "pipeline.candidate_pairs.hidden_recall": float(np.isin(hidden, cand_keys).mean()),
            "pipeline.injected_known": int(known.sum()),
            "pipeline.enriched_edges": enriched.num_mined,
            "pipeline.useful_epoch_share": result.best_epoch / rep.epochs,
        }
        return rep

    def evaluate(self, st, rep, tracer=None):
        """One scoring pass of `rep`'s model; returns (seconds, failure or None).

        A pass mirrors `chainrisk eval`: build the task tensors, score the test
        examples, report AUC and KS. It must reproduce the stage's own report.
        """
        t0 = perf_counter()
        try:
            data = pipeline.TaskData.for_pairs(st["g"], st["pair_set"])
            mask = data.split == pipeline.TEST
            logits, _ = pipeline.score_examples(rep.model, data.adj, data.X, data.examples[mask])
            report = metrics.EvalReport.from_scores(sigmoid(logits), data.labels[mask].astype(int), "test")
        except Exception as err:
            return perf_counter() - t0, f"raised {err!r}"
        took = perf_counter() - t0
        if (report.auc, report.ks) != (rep.test_auc, rep.test_ks):
            return took, f"test auc/ks {report.auc}/{report.ks} differ from the stage's {rep.test_auc}/{rep.test_ks}"
        return took, None


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _check_manifest(out_dir):
    """Returns (manifest, paths whose listed digest does not match the file)."""
    with open(os.path.join(out_dir, "run_manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    bad = [p for p, d in manifest["inputs"].items() if _sha256(p) != d]
    bad += [p for p, d in manifest["outputs"].items() if _sha256(os.path.join(out_dir, p)) != d]
    return manifest, bad


def _run_cli(argv):
    """In-process `chainrisk` call; returns (exit code, message on failure)."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:
        return -1, f"raised {exc!r}"
    return code, err.getvalue().strip()


class Cli20k:
    """The command line: text formats, digests, checkpoints and `eval`."""

    name = "cli-20k"
    evals_per_build = 1

    def setup(self, seed, work_dir, tracer=None):
        gen_path = os.path.join(work_dir, "gen.json")
        train_path = os.path.join(work_dir, "train.json")
        data_dir = os.path.join(work_dir, "data")
        with open(gen_path, "w", encoding="utf-8") as fh:
            json.dump({"preset": "paper-calibrated", "num_smes": 20000, "seed": seed}, fh)
        with open(train_path, "w", encoding="utf-8") as fh:
            json.dump(train_config(seed, CLI).to_dict(), fh)
        with span(tracer, "cli.generate"):
            code, msg = _run_cli(["generate", "--config", gen_path, "--out", data_dir])
        if code != 0:
            raise RuntimeError(f"chainrisk generate exited {code}: {msg}")
        _, bad = _check_manifest(data_dir)
        if bad:
            raise RuntimeError(f"chainrisk generate: digest mismatch for {bad}")
        return {"work_dir": work_dir, "data": data_dir, "train": train_path}

    def rep(self, st, tracer=None):
        run_dir = os.path.join(st["work_dir"], "run")
        rep = Rep(ops=1)
        t0 = perf_counter()
        with span(tracer, "cli.train"):
            code, msg = _run_cli(["train", "dp", "--data", st["data"], "--config", st["train"],
                                  "--out", run_dir, "--no-enrich"])
        train_s = perf_counter() - t0
        if code != 0:
            rep.fail("train", f"exited {code}: {msg}")
            return rep
        trained, bad = _check_manifest(run_dir)
        if bad:
            rep.fail("train", f"digest mismatch for {bad}")
        test = trained["metrics"]["test"]
        rep.test_auc, rep.test_ks = test["auc"], test["ks"]
        rep.train_examples = trained["metrics"]["train"]["num_pos"] + trained["metrics"]["train"]["num_neg"]
        rep.epochs = len(trained["trace"])
        rep.computed = {"pipeline.useful_epoch_share": trained["chosen_epoch"] / rep.epochs}

        # the timed part is train then eval; further evals only add eval_s samples
        evals = []
        for i in range(1 if tracer else CLI_EVALS):
            rep.ops += 1
            took, problem = self.evaluate(st, rep, tracer)
            if problem:
                rep.fail(f"eval {i + 1}", problem)
                return rep
            evals.append(took)
        rep.wall_s, rep.eval_s, rep.eval_times = train_s + evals[0], statistics.median(evals), evals
        return rep

    def evaluate(self, st, rep, tracer=None):
        """One `chainrisk eval` of the checkpoint `rep` trained; returns (seconds, failure or None).

        The eval must reproduce the test AUC and KS that train reported.
        """
        eval_dir = os.path.join(st["work_dir"], "eval")
        t0 = perf_counter()
        with span(tracer, "cli.eval"):
            code, msg = _run_cli(["eval", "--checkpoint", os.path.join(st["work_dir"], "run", "checkpoint_dp.bin"),
                                  "--data", st["data"], "--no-enrich", "--out", eval_dir])
        took = perf_counter() - t0
        if code != 0:
            return took, f"exited {code}: {msg}"
        try:
            _, bad = _check_manifest(eval_dir)
            with open(os.path.join(eval_dir, "eval_report.json"), encoding="utf-8") as fh:
                evaluated = json.load(fh)
            got = (evaluated["auc"], evaluated["ks"])
        except (OSError, ValueError, KeyError) as err:
            return took, f"unreadable output: {err!r}"
        if bad:
            return took, f"digest mismatch for {bad}"
        if got != (rep.test_auc, rep.test_ks):
            return took, "test auc/ks differ from the values train reported"
        return took, None


WORKLOADS = {w.name: w for w in (Mine5k(), Cli20k())}
