"""Command-line entry points.

Subcommands: generate (config -> dataset files), train (config + dataset ->
checkpoint + training log), eval (checkpoint + the dataset's vocab.txt and
test.txt -> report file), and report (training log -> schedule trace and
per-predicate table). Output files are written after the computation
succeeds, each through a temp file renamed into place
(``datagen.open_atomic``), so a failing run leaves no partial artifacts.
"""

import argparse
import os
import sys

from .config import read_config
from .datagen import (
    GeneratorConfig,
    build_prior_bias,
    generate_dataset,
    load_dataset,
    load_split,
    load_vocabulary,
    open_atomic,
    read_field,
    save_dataset,
)
from .metrics import (
    DEFAULT_KS,
    check_ks,
    format_report,
    per_predicate_table,
    recall_cell,
)
from .model import DualBranchModel, check_fit, load_checkpoint, save_checkpoint
from .numerics import ConfigurationError
from .training import (
    _LOG_RECORDS,
    TrainConfig,
    TrainingDiverged,
    evaluate,
    parse_log,
    train,
    write_log,
)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dualrel",
        description="curriculum training for long-tailed relation prediction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic dataset")
    gen.add_argument("--config", required=True, help="key=value generator config")
    gen.add_argument("--out", required=True, help="output dataset directory")

    tr = sub.add_parser("train", help="train on a generated dataset")
    tr.add_argument("--config", required=True, help="key=value training config")
    tr.add_argument("--data", required=True, help="dataset directory")
    tr.add_argument("--out", required=True, help="output directory")

    ev = sub.add_parser("eval", help="evaluate a checkpoint")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data", required=True, help="dataset directory")
    ev.add_argument("--ks", default=",".join(map(str, DEFAULT_KS)),
                    help="comma-separated K values")
    ev.add_argument("--out", required=True, help="report file")

    rep = sub.add_parser("report", help="summarize a training log")
    rep.add_argument("--log", required=True)
    rep.add_argument("--out", required=True)
    return parser


def _cmd_generate(args):
    cfg = read_config(args.config, GeneratorConfig)
    vocab, train_split, test_split = generate_dataset(cfg)
    save_dataset(args.out, vocab, train_split, test_split)
    counts = vocab.train_counts
    print(
        f"wrote {len(train_split)} train / {len(test_split)} test relations, "
        f"{vocab.num_predicates} predicates (max count {int(counts.max())}, "
        f"min {int(counts[1:].min())}) to {args.out}"
    )
    return 0


def _cmd_train(args):
    cfg = read_config(args.config, TrainConfig)
    vocab, train_split, test_split = load_dataset(args.data)
    prior = build_prior_bias(train_split, vocab)
    model = DualBranchModel.build(
        num_object_classes=train_split.num_object_classes,
        num_predicates=vocab.num_predicates,
        feature_dim=train_split.feature_dim,
        hidden_dim=cfg.hidden_dim,
        context_dim=cfg.context_dim,
        prior_table=prior.table,
        seed=cfg.seed,
    )
    try:
        log = train(cfg, vocab, train_split, model, eval_instances=test_split)
    # the config does not suit this dataset, or its learning rate diverges
    except (ConfigurationError, TrainingDiverged) as exc:
        raise ValueError(f"{args.config}: {exc}") from None
    os.makedirs(args.out, exist_ok=True)
    save_checkpoint(os.path.join(args.out, "model.ckpt"), model)
    write_log(os.path.join(args.out, "train.log"), log, vocab)
    final = log.eval_snapshots[-1][1]
    k = final.ks[0]
    print(
        f"trained {cfg.schedule.total_iterations} iterations; final "
        f"r@{k}={final.r_at_k[k]:.4f} mr@{k}={final.mr_at_k[k]:.4f}; "
        f"artifacts in {args.out}"
    )
    return 0


def _parse_ks(text):
    """The K values of ``--ks``, checked by ``metrics.check_ks``; an empty
    item is a bad K."""
    ks = [read_field("--ks", "K", "int", part) for part in text.split(",")]
    try:
        check_ks(ks)
    except ValueError as exc:
        raise ValueError(f"--ks: {exc}") from None
    return tuple(ks)


def _cmd_eval(args):
    ks = _parse_ks(args.ks)
    model = load_checkpoint(args.checkpoint)
    # eval scores the test split only: train.txt is not read
    vocab = load_vocabulary(os.path.join(args.data, "vocab.txt"))
    test_split = load_split(args.data, "test.txt", vocab)
    try:
        check_fit(model, vocab, test_split)
    except ValueError as exc:
        raise ValueError(f"{args.checkpoint} does not fit the dataset {args.data}: "
                         f"{exc}") from None
    report = evaluate(model, test_split, vocab, ks)
    with open_atomic(args.out) as fh:
        fh.write(format_report(report, vocab))
    k = ks[0]
    print(
        f"r@{k}={report.r_at_k[k]:.4f} mr@{k}={report.mr_at_k[k]:.4f} "
        f"m@{k}={report.m_at_k[k]:.4f}; report in {args.out}"
    )
    return 0


def _cmd_report(args):
    rows = parse_log(args.log)
    positional, keys = _LOG_RECORDS["iter"]
    trace = [*positional, *(key for key, kind in keys.items() if kind == "fraction")]
    lines = ["schedule trace", "\t".join(trace)]
    for row in rows["iter"]:
        # str of a float is its repr, as in the log
        lines.append("\t".join(str(row[field]) for field in trace))
    if rows["eval"]:
        lines.append("")
        lines.append("evaluation snapshots")
        positional, keys = _LOG_RECORDS["eval"]
        lines.append("\t".join([*positional, *keys]))
        for row in rows["eval"]:
            lines.append("\t".join([*(str(row[name]) for name in positional),
                                    *(recall_cell(row[key]) for key in keys)]))
    if rows["evalpred"]:
        last_iter = max(row["iteration"] for row in rows["evalpred"])
        recalls = {(row["index"], row["K"]): row["recall"]
                   for row in rows["evalpred"] if row["iteration"] == last_iter}
        ks = sorted({k for _, k in recalls})
        lines.append("")
        lines.append(f"per-predicate recall at iteration {last_iter} "
                     "(descending train count)")
        lines += per_predicate_table(ks, [
            (row["index"], row["name"], row["train_count"],
             [recalls[row["index"], k] for k in ks])
            for row in rows["predicate"]
        ])
    with open_atomic(args.out) as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"report written to {args.out}")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "report": _cmd_report,
}


def run_command(argv):
    """Run one subcommand; returns the process exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
