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
    CheckpointVersionError,
    InvalidArgument,
    InvalidConfig,
    InvalidInput,
    NoViableConfig,
    TrainingDivergence,
)
from .graph import enrich
from .labels import TEST, LabeledSet, sample_negatives, stratified_split
from .metrics import EvalReport, roc_points
from .model import load_checkpoint, save_checkpoint, score_examples
from .nn import sigmoid
from .pipeline import (
    GridSpec,
    TaskData,
    TrainConfig,
    grid_search,
    run_stage1_mining,
    run_stage2_default,
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
    """The manifest before the run: `inputs` maps each input path to its SHA-256 hex digest."""
    return {
        "command": command,
        "config": args_echo,
        "inputs": inputs,
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


def _parse_config(path, parse, raw):
    """parse(raw), naming the config file `path` in an InvalidConfig."""
    try:
        return parse(raw)
    except InvalidConfig as err:
        raise InvalidConfig(f"{path}: {err}") from None


def _train_config(args, raw):
    grid_section = raw.pop("grid", None) if isinstance(raw, dict) else None
    config = _parse_config(args.config, TrainConfig.from_dict, raw)
    overrides = {"seed": args.seed, "tau": args.tau}
    config = replace(config, **{k: v for k, v in overrides.items() if v is not None})
    return config, _grid_spec(args.config, grid_section, config) if args.grid else None


def _grid_spec(path, section, config):
    """GridSpec from the config's optional `grid` object of axis lists, each
    value checked as that field of `config`."""
    if section is None:
        return GridSpec()
    known = [f.name for f in fields(GridSpec)]
    if not isinstance(section, dict):
        raise InvalidConfig(f"{path}: grid must be an object with keys {known}")
    unknown = set(section) - set(known)
    if unknown:
        raise InvalidConfig(f"{path}: unknown grid keys: {sorted(unknown)}")
    if not all(isinstance(v, list) and v for v in section.values()):
        raise InvalidConfig(f"{path}: every grid axis must be a non-empty list")
    key = {"learning_rates": "learning_rate", "dropouts": "dropout", "layer_counts": "num_layers"}
    for axis, values in section.items():
        for value in values:
            try:
                TrainConfig.from_dict({**config.to_dict(), key[axis]: value})
            except InvalidConfig as err:
                raise InvalidConfig(f"{path}: grid axis {axis}: {err}") from None
    return GridSpec(**{k: tuple(v) for k, v in section.items()})


def cmd_generate(args):
    config = _parse_config(args.config, gen_config_from_dict, _load_json(args.config))
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    manifest = _manifest_skeleton("generate", config.to_dict(), {args.config: dataio.sha256_file(args.config)})

    graph, pair_set, node_set, truth = _parse_config(args.config, generate, config)
    _finish_manifest(
        manifest,
        args.out,
        dataio.write_dataset(args.out, graph, pair_set, node_set, truth),
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


def _read_node_ids(read, path, num_nodes, digests):
    """read(path, digests=digests); a node id outside [0, num_nodes) in its
    first array is an InvalidInput naming its line."""
    ids, values = read(path, digests=digests)
    bad = np.argwhere((ids < 0) | (ids >= num_nodes))
    if bad.size:
        at = tuple(bad[0])
        raise dataio.row_error(path, InvalidInput(
            f"node id {ids[at]} is out of range for a graph of {num_nodes} nodes", row=at[0]))
    return ids, values


def _task_inputs(args, stage, config):
    """Graph view, labeled set and input paths of one stage, for train and eval.

    Stage sc takes neither --mined nor --no-enrich; it reads the pair labels
    and, when they hold only positives, adds `config.neg_ratio` sampled
    negatives per positive among the SMEs, the nodes candidate search scores.
    Stage dp reads the node labels and enriches the graph from --mined, or
    uses the base graph with --no-enrich. The readers check each file's own
    cell rules; this checks that every node id read lies in the graph, and
    names the line of a label example the LabeledSet rejects (a pair not in
    canonical order, a repeated example) or of a --mined row that `enrich`
    rejects (a score outside [0, 1]), and the label file whose labels cannot
    be split into train, val and test sets that each hold both classes.
    A breach exits naming its `path:line`, or its path.
    Returns (view, labeled, inputs, num_mined), where `inputs` maps each file
    read to the SHA-256 hex digest its reader took.
    """
    if stage == "sc" and (args.mined or args.no_enrich):
        raise InvalidInput("stage sc takes neither --mined nor --no-enrich")
    inputs = {}
    g = view = dataio.read_graph(args.data, digests=inputs)
    num_mined = 0
    if stage == "sc":
        path = os.path.join(args.data, "labels_sc.tsv")
        examples, labels = _read_node_ids(dataio.read_pair_labels, path, g.num_nodes, inputs)
        if not labels.any():
            raise InvalidInput(f"{path} has no positive pairs")
        if labels.min() == 1:
            sme = np.flatnonzero(g.node_kind == "sme")
            negatives = sample_negatives(g, examples, config.neg_ratio, config.seed, nodes=sme)
            if not len(negatives):
                raise InvalidInput(f"neg_ratio {config.neg_ratio} samples no negatives for the "
                                   f"{len(examples)} positives of {path}")
            examples = np.vstack([examples, negatives])
            labels = np.r_[labels, np.zeros(len(negatives), dtype=labels.dtype)]
    else:
        path = os.path.join(args.data, "labels_dp.tsv")
        examples, labels = _read_node_ids(dataio.read_node_labels, path, g.num_nodes, inputs)
        if not args.no_enrich:
            if not args.mined:
                raise InvalidInput("stage dp needs --mined MINED_EDGES_TSV or --no-enrich")
            mined = _read_node_ids(dataio.read_mined_edges, args.mined, g.num_nodes, inputs)
            try:
                enriched = enrich(g, mined, config.tau)
            except InvalidInput as err:
                raise dataio.row_error(args.mined, err) from None
            view, num_mined = enriched.graph(), enriched.num_mined
    try:
        labeled = LabeledSet(examples=examples, labels=labels, split=stratified_split(labels, seed=config.seed))
        labeled.validate()
    except InvalidInput as err:
        raise dataio.row_error(path, err) from None
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
        # the --mined file goes by its role, so a copy named like a data file keeps that file's digest
        "inputs": {"mined_edges.tsv" if path == args.mined else os.path.basename(path): digest
                   for path, digest in inputs.items()},
    }
    if args.stage == "sc":
        result = run_stage1_mining(view, labeled, config)
        mined_path = os.path.join(args.out, "mined_edges.tsv")
        dataio.write_mined_edges(mined_path, result.enriched.mined_pairs, result.enriched.mined_scores)
        num_mined = result.enriched.num_mined
        extra["candidate_count"] = result.candidate_count
        stage_outputs = [mined_path]
    else:
        result = run_stage2_default(view, labeled, config)
        scores_path = os.path.join(args.out, "scores_dp.tsv")
        dataio.write_scores(scores_path, result.scores)
        ckpt_meta["enriched"] = not args.no_enrich
        stage_outputs = [scores_path]
    extra["mined_edge_count"] = num_mined

    ckpt_path = os.path.join(args.out, f"checkpoint_{args.stage}.bin")
    save_checkpoint(ckpt_path, result.model, ckpt_meta)
    stage_outputs.append(ckpt_path)

    if grid_rows is not None:
        grid_path = os.path.join(args.out, "grid_table.tsv")
        dataio.write_grid_table(grid_path, grid_rows)
        stage_outputs.append(grid_path)

    extra["metrics"] = {name: rep.to_dict() for name, rep in result.reports.items()}
    extra["trace"] = result.trace
    extra["chosen_epoch"] = result.best_epoch
    _finish_manifest(manifest, args.out, stage_outputs, extra=extra)
    test = result.reports["test"]
    print(f"{args.stage} trained: test auc={test.auc:.4f} ks={test.ks:.4f} -> {args.out}")
    return 0


def _check_trained_on(checkpoint, trained_on, inputs, label):
    """InvalidInput, naming the file, unless the files eval read other than
    the label file `label` have exactly the SHA-256 digests train recorded
    for its own. Files match by content, so a renamed copy of the right file
    passes; new labels for the same graph may be scored."""
    left = [digest for name, digest in trained_on.items() if name != label]
    for path, digest in inputs.items():
        name = os.path.basename(path)
        if name == label:
            continue
        if digest not in left:
            what = f"the {name}" if name in trained_on else "a file"
            raise InvalidInput(f"{path} is not {what} {checkpoint} was trained on")
        left.remove(digest)
    if left:
        name = next(name for name, digest in trained_on.items() if digest == left[0] and name != label)
        raise InvalidInput(f"{checkpoint} was also trained on {name}, which this eval does not read "
                           "(pass it with --mined)")


def cmd_eval(args):
    if not os.path.exists(args.checkpoint):
        raise InvalidInput(f"checkpoint not found: {args.checkpoint}")
    model, meta = load_checkpoint(args.checkpoint)
    stage, trained_on = meta.get("stage"), meta.get("inputs", {})
    if stage not in ("sc", "dp") or not isinstance(meta.get("config"), dict) or not isinstance(trained_on, dict):
        raise InvalidInput(f"{args.checkpoint}: checkpoint meta needs a stage of sc or dp, a config object "
                           "and an inputs object")
    config = _parse_config(args.checkpoint, TrainConfig.from_dict, meta["config"])
    out_dir = args.out or os.path.dirname(os.path.abspath(args.checkpoint))
    os.makedirs(out_dir, exist_ok=True)
    view, labeled, inputs, _ = _task_inputs(args, stage, config)
    if "inputs" in meta:
        _check_trained_on(args.checkpoint, trained_on, inputs, f"labels_{stage}.tsv")
    inputs[args.checkpoint] = dataio.sha256_file(args.checkpoint)
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
    enrichment = p_train.add_mutually_exclusive_group()
    enrichment.add_argument("--mined", default=None, help="mined_edges.tsv from a prior sc run (stage dp)")
    enrichment.add_argument("--no-enrich", action="store_true", help="stage dp ablation without mined edges")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--out", default=None, help="defaults to the checkpoint directory")
    enrichment = p_eval.add_mutually_exclusive_group()
    enrichment.add_argument("--mined", default=None, help="mined_edges.tsv (stage dp)")
    enrichment.add_argument("--no-enrich", action="store_true", help="stage dp on the base graph")
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
