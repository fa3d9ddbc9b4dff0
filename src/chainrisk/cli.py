"""Command-line driver: generate data, train either stage, evaluate.

Exit codes: 0 ok, 2 input/config error, 3 training divergence, 4 checkpoint
version mismatch. Every run writes a manifest listing its inputs, outputs,
and their content digests; with identical inputs and seed the output
digests are identical (set SOURCE_DATE_EPOCH to also pin the timestamps).
"""

import argparse
import json
import os
import sys
from dataclasses import fields, replace

import numpy as np

from . import dataio
from .errors import (
    ChainriskError,
    CheckpointVersionError,
    InvalidArgument,
    InvalidConfig,
    InvalidInput,
    NoViableConfig,
    TrainingDivergence,
)
from .graph import enrich
from .metrics import EvalReport, roc_points
from .model import load_checkpoint, save_checkpoint, score_examples
from .nn import sigmoid
from .pipeline import (
    TEST,
    GridSpec,
    LabeledSet,
    TaskData,
    TrainConfig,
    grid_search,
    run_stage1_mining,
    run_stage2_default,
    sample_negatives,
    stratified_split,
)
from .synthgen import gen_config_from_dict, generate


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InvalidInput(f"config file not found: {path}") from None
    except json.JSONDecodeError as err:
        raise InvalidConfig(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from None


def _threads():
    raw = os.environ.get("CHAINRISK_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise InvalidConfig(f"CHAINRISK_THREADS must be an integer, got {raw!r}") from None


def _manifest_skeleton(command, args_echo, inputs):
    return {
        "command": command,
        "config": args_echo,
        "inputs": {path: dataio.sha256_file(path) for path in inputs},
        "started_at": dataio.utc_timestamps(),
    }


def _finish_manifest(manifest, out_dir, outputs, extra=None):
    manifest["outputs"] = {os.path.basename(p): dataio.sha256_file(p) for p in outputs}
    end = dataio.utc_timestamps()
    manifest["finished_at"] = end
    manifest["wall_clock_seconds"] = max(0.0, end - manifest["started_at"])
    if extra:
        manifest.update(extra)
    path = os.path.join(out_dir, "run_manifest.json")
    dataio.write_manifest(path, manifest)
    return path


def _train_config(args, raw):
    grid_section = raw.pop("grid", None)
    config = TrainConfig.from_dict(raw)
    overrides = {"seed": args.seed, "tau": args.tau}
    config = replace(config, **{k: v for k, v in overrides.items() if v is not None}).validate()
    return config, _grid_spec(args.config, grid_section) if args.grid else None


def _grid_spec(path, section):
    """GridSpec from the config's optional `grid` object of axis lists."""
    if section is None:
        return GridSpec().validate()
    known = [f.name for f in fields(GridSpec)]
    if not isinstance(section, dict):
        raise InvalidConfig(f"{path}: grid must be an object with keys {known}")
    unknown = set(section) - set(known)
    if unknown:
        raise InvalidConfig(f"{path}: unknown grid keys: {sorted(unknown)}")
    if not all(isinstance(v, list) and v for v in section.values()):
        raise InvalidConfig(f"{path}: every grid axis must be a non-empty list")
    return GridSpec(**{k: tuple(v) for k, v in section.items()}).validate()


def cmd_generate(args):
    raw = _load_json(args.config)
    if args.seed is not None:
        raw["seed"] = args.seed
    config = gen_config_from_dict(raw)
    os.makedirs(args.out, exist_ok=True)
    manifest = _manifest_skeleton("generate", config.to_dict(), [args.config])

    graph, pair_set, node_set, truth = generate(config)
    outputs = dataio.write_graph(args.out, graph)
    sc_path = os.path.join(args.out, "labels_sc.tsv")
    dataio.write_pair_labels(sc_path, pair_set.examples, pair_set.labels)
    dp_path = os.path.join(args.out, "labels_dp.tsv")
    dataio.write_node_labels(dp_path, node_set.examples, node_set.labels)
    gt_path = os.path.join(args.out, "ground_truth.tsv")
    dataio.write_ground_truth(gt_path, truth)
    outputs += [sc_path, dp_path, gt_path]
    _finish_manifest(
        manifest,
        args.out,
        outputs,
        extra={
            "seed": config.seed,
            "num_nodes": graph.num_nodes,
            "num_edges": int(graph.indices.size // 2),
            "num_supply_links": int(truth.supply_edges.shape[0]),
            "num_hidden_links": int(truth.hidden_mask.sum()),
        },
    )
    print(f"generated {graph.num_nodes} nodes -> {args.out}")
    return 0


def _task_inputs(args, stage, config):
    """Graph view, labeled set and input paths of one stage, for train and eval.

    Stage sc reads the pair labels and, when they hold only positives, adds
    `config.neg_ratio` sampled negatives per positive. Stage dp reads the
    node labels and enriches the graph from --mined (none with
    --no-enrich). Returns (view, labeled, inputs, num_mined).
    """
    g = dataio.read_graph(args.data)
    inputs = [os.path.join(args.data, "nodes.csv"), os.path.join(args.data, "edges.tsv")]
    num_mined = 0
    if stage == "sc":
        inputs.append(os.path.join(args.data, "labels_sc.tsv"))
        examples, labels = dataio.read_pair_labels(inputs[-1])
        if not labels.any():
            raise InvalidInput("labels_sc.tsv has no positive pairs")
        if labels.min() == 1:
            negatives = sample_negatives(g, examples, config.neg_ratio, config.seed)
            examples = np.vstack([examples, negatives])
            labels = np.r_[labels, np.zeros(len(negatives), dtype=labels.dtype)]
        view = g
    else:
        inputs.append(os.path.join(args.data, "labels_dp.tsv"))
        examples, labels = dataio.read_node_labels(inputs[-1])
        mined = []
        if not args.no_enrich:
            if not args.mined:
                raise InvalidInput("stage dp needs --mined MINED_EDGES_TSV or --no-enrich")
            mined = dataio.read_mined_edges(args.mined)
            inputs.append(args.mined)
        enriched = enrich(g, mined, config.tau)
        view, num_mined = enriched.graph(), enriched.num_mined
    labeled = LabeledSet(examples=examples, labels=labels, split=stratified_split(labels, seed=config.seed))
    return view, labeled, inputs, num_mined


def cmd_train(args):
    raw = _load_json(args.config)
    config, grid = _train_config(args, raw)
    os.makedirs(args.out, exist_ok=True)
    view, labeled, inputs, num_mined = _task_inputs(args, args.stage, config)

    manifest = _manifest_skeleton(f"train {args.stage}", config.to_dict(), inputs)
    extra = {"seed": config.seed, "stage": args.stage, "enriched": args.stage == "dp" and not args.no_enrich}

    grid_rows = None
    if grid is not None:
        search = grid_search(grid, TaskData.build(view, labeled), config, max_workers=_threads())
        config = search.best_config
        grid_rows = search.table
        extra["grid_cells"] = len(search.table)
        extra["chosen_config"] = config.to_dict()

    ckpt_meta = {
        "stage": args.stage,
        "seed": config.seed,
        "config": config.to_dict(),
        "feature_dim": int(view.node_features.shape[1]),
    }
    if args.stage == "sc":
        result = run_stage1_mining(view, labeled, config)
        mined_path = os.path.join(args.out, "mined_edges.tsv")
        dataio.write_mined_edges(mined_path, result.enriched.mined_edges())
        num_mined = result.enriched.num_mined
        extra["candidate_count"] = result.candidate_count
        stage_outputs = [mined_path]
    else:
        result = run_stage2_default(view, labeled, config)
        scores_path = os.path.join(args.out, "scores_dp.tsv")
        dataio.write_scores(scores_path, result.scores)
        ckpt_meta["enriched"] = not args.no_enrich
        ckpt_meta["mined_digest"] = None if args.no_enrich else dataio.sha256_file(args.mined)
        stage_outputs = [scores_path]
    extra["mined_edge_count"] = num_mined

    ckpt_path = os.path.join(args.out, f"checkpoint_{args.stage}.bin")
    save_checkpoint(ckpt_path, result.model, ckpt_meta)
    stage_outputs.append(ckpt_path)

    if grid_rows is not None:
        grid_path = os.path.join(args.out, "grid_table.tsv")
        header = "learning_rate\tdropout\tnum_layers\tval_auc\tbest_epoch\tstatus"
        lines = [header] + [
            "\t".join(
                [
                    repr(float(r["learning_rate"])),
                    repr(float(r["dropout"])),
                    str(r["num_layers"]),
                    "" if r["val_auc"] is None else repr(float(r["val_auc"])),
                    "" if r["best_epoch"] is None else str(r["best_epoch"]),
                    r["status"],
                ]
            )
            for r in grid_rows
        ]
        with open(grid_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        stage_outputs.append(grid_path)

    extra["metrics"] = {name: rep.to_dict() for name, rep in result.reports.items()}
    extra["trace"] = result.trace
    extra["chosen_epoch"] = result.best_epoch
    _finish_manifest(manifest, args.out, stage_outputs, extra=extra)
    test = result.reports["test"]
    print(f"{args.stage} trained: test auc={test.auc:.4f} ks={test.ks:.4f} -> {args.out}")
    return 0


def cmd_eval(args):
    if not os.path.exists(args.checkpoint):
        raise InvalidInput(f"checkpoint not found: {args.checkpoint}")
    model, meta = load_checkpoint(args.checkpoint)
    config = TrainConfig.from_dict(meta["config"])
    stage = meta["stage"]
    if meta.get("enriched") and not (args.mined or args.no_enrich):
        raise InvalidInput("checkpoint was trained on an enriched graph; pass --mined or --no-enrich")
    out_dir = args.out or os.path.dirname(os.path.abspath(args.checkpoint))
    os.makedirs(out_dir, exist_ok=True)
    view, labeled, inputs, _ = _task_inputs(args, stage, config)
    inputs.append(args.checkpoint)
    data = TaskData.build(view, labeled)

    if data.X.shape[1] != model.gcn.weights[0].shape[0]:
        raise InvalidInput(
            f"feature width {data.X.shape[1]} does not match the checkpoint "
            f"({model.gcn.weights[0].shape[0]})"
        )
    manifest = _manifest_skeleton(f"eval {stage}", config.to_dict(), inputs)
    test_mask = data.split == TEST
    logits, _ = score_examples(model, data.adj, data.X, data.examples[test_mask])
    probs = sigmoid(logits)
    y_test = data.labels[test_mask].astype(int)
    report = EvalReport.from_scores(probs, y_test, "test")
    roc_path = os.path.join(out_dir, "roc_points.tsv")
    dataio.write_roc_points(roc_path, roc_points(probs, y_test))
    report_path = os.path.join(out_dir, "eval_report.json")
    dataio.write_manifest(report_path, report.to_dict())
    _finish_manifest(
        manifest, out_dir, [roc_path, report_path],
        extra={"seed": config.seed, "stage": stage, "metrics": {"test": report.to_dict()}},
    )
    print(f"eval {stage}: test auc={report.auc:.4f} ks={report.ks:.4f} -> {out_dir}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="chainrisk",
        description="Two-stage GCN credit-risk engine: mine supply links, predict defaults.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="emit a synthetic economy dataset")
    p_gen.add_argument("--config", required=True, help="generator config JSON")
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_gen.set_defaults(func=cmd_generate)

    p_train = sub.add_parser("train", help="train one stage")
    p_train.add_argument("stage", choices=("sc", "dp"), help="sc: link mining, dp: default prediction")
    p_train.add_argument("--data", required=True, help="dataset directory")
    p_train.add_argument("--config", required=True, help="training config JSON")
    p_train.add_argument("--out", required=True, help="output directory")
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument("--tau", type=float, default=None, help="retention threshold override")
    p_train.add_argument("--grid", action="store_true", help="grid search before the final fit")
    p_train.add_argument("--mined", default=None, help="mined_edges.tsv from a prior sc run (stage dp)")
    p_train.add_argument("--no-enrich", action="store_true", help="stage dp ablation without mined edges")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--out", default=None, help="defaults to the checkpoint directory")
    p_eval.add_argument("--mined", default=None)
    p_eval.add_argument("--no-enrich", action="store_true")
    p_eval.set_defaults(func=cmd_eval)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvalidConfig, InvalidInput, InvalidArgument, NoViableConfig) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except TrainingDivergence as err:
        print(f"training diverged: {err}", file=sys.stderr)
        return 3
    except CheckpointVersionError as err:
        print(f"checkpoint version mismatch: {err}", file=sys.stderr)
        return 4
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
