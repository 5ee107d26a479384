"""Command-line surface: synth, train-head, adapt, validate-theory groups|trace, eval, plot.

Every file a command reads or writes, the ``plot`` SVG included, goes through
``io``. Exit codes: 0 success, 2 invalid input or configuration (an OS error
included), 3 parse error in a persisted artifact, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import io as tio
from .errors import NumericalFailure, ParseError, TcaError
from .experiments import DEFAULT_MAX_ITERS, spearman
from .experiments import validate_alignment_trace, validate_uncertainty_groups
from .head import accuracy, predict, train_head
from .linalg import covariance
from .pipeline import AdaptConfig, adapt_online, adapt_transductive
from .synth import gen_linear_shift, gen_nonlinear_shift

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_PARSE = 3
EXIT_NUMERICAL = 4

_DEFAULTS = AdaptConfig()


def _add_adapt_options(p: argparse.ArgumentParser) -> None:
    """The adaptation options that ``adapt`` and ``validate-theory trace`` share."""
    p.add_argument("--k", type=int, default=_DEFAULTS.k)
    p.add_argument("--eps", type=float, default=_DEFAULTS.eps)
    p.add_argument(
        "--select",
        choices=("global", "class-balanced"),
        default=_DEFAULTS.selection_mode.replace("_", "-"),
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcalign",
        description="Test-time correlation alignment toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic domain-shift dataset")
    p.add_argument("--shift", choices=("linear", "nonlinear"), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("train-head", help="train a softmax head on labeled embeddings")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--epochs", type=int, default=2000)
    p.add_argument("--out", required=True)

    p = sub.add_parser("adapt", help="adapt test embeddings and emit predictions")
    p.add_argument("--test", required=True)
    p.add_argument("--head", required=True)
    p.add_argument("--labels")
    _add_adapt_options(p)
    p.add_argument("--solver", choices=("closed",), default="closed", help="the only solver")
    p.add_argument("--mode", choices=("transductive", "online"), default="transductive")
    p.add_argument("--batch-size", type=int, default=_DEFAULTS.batch_size)
    p.add_argument("--out-preds", required=True)
    p.add_argument("--out-report", required=True)

    p = sub.add_parser("validate-theory", help="run a theory-validation experiment")
    experiments = p.add_subparsers(dest="experiment", required=True)
    groups = experiments.add_parser("groups", help="distance to source per uncertainty group")
    trace = experiments.add_parser("trace", help="distances and accuracy along a gradient solve")
    for p in (groups, trace):
        p.add_argument("--test", required=True)
        p.add_argument("--head", required=True)
        p.add_argument("--source", required=True, help="source embeddings for the reference statistics")
        p.add_argument("--out-csv", required=True)
    groups.add_argument("--n-groups", type=int, default=10)
    trace.add_argument("--labels", required=True, help="test labels for the accuracy column")
    trace.add_argument("--record-every", type=int, default=10)
    _add_adapt_options(trace)
    trace.add_argument("--lr", type=float, help="gradient step (default 1e-3 / lambda_max^2 of S_t)")
    trace.add_argument("--iters", type=int, default=DEFAULT_MAX_ITERS, help="trace iterations")

    p = sub.add_parser("eval", help="score stored predictions against labels")
    p.add_argument("--preds", required=True)
    p.add_argument("--labels", required=True)

    p = sub.add_parser("plot", help="scatter-plot 2-D embeddings to SVG")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--transformed")
    p.add_argument("--out", required=True)

    return parser


def _cfg_from_args(args, **fields) -> AdaptConfig:
    """An AdaptConfig from the shared adaptation options, plus ``fields``."""
    return AdaptConfig(
        k=args.k,
        eps=args.eps,
        selection_mode=args.select.replace("-", "_"),
        **fields,
    )


def _cmd_synth(args) -> int:
    gen = gen_linear_shift if args.shift == "linear" else gen_nonlinear_shift
    data = gen(args.seed)
    os.makedirs(args.out, exist_ok=True)
    tio.write_embeddings(os.path.join(args.out, "source.tcae"), data.source.features)
    tio.write_labels(os.path.join(args.out, "source.tcal"), data.source.labels)
    tio.write_embeddings(os.path.join(args.out, "target.tcae"), data.target.features)
    tio.write_labels(os.path.join(args.out, "target.tcal"), data.target.labels)
    print(
        f"wrote {args.shift} shift (seed {args.seed}): "
        f"source {data.source.features.shape[0]} rows, target {data.target.features.shape[0]} rows -> {args.out}"
    )
    return EXIT_OK


def _cmd_train_head(args) -> int:
    z = tio.read_embeddings(args.embeddings)
    labels = tio.read_labels(args.labels)
    head = train_head(z, labels, lr=args.lr, epochs=args.epochs)
    tio.save_head(head, args.out)
    acc = accuracy(predict(head, z), labels)
    print(f"trained head: c={head.n_classes} d={head.dim} training accuracy {acc:.4f} -> {args.out}")
    return EXIT_OK


def _cmd_adapt(args) -> int:
    test = tio.read_embeddings(args.test)
    head = tio.load_head(args.head)
    labels = tio.read_labels(args.labels) if args.labels else None
    cfg = _cfg_from_args(args, batch_size=args.batch_size)
    if args.mode == "online":
        preds, report = adapt_online(test, head, cfg, labels=labels)
    else:
        preds, report, _ = adapt_transductive(test, head, cfg, labels=labels)
    tio.write_predictions_csv(args.out_preds, preds)
    tio.write_report_json(args.out_report, report.to_dict())
    summary = {
        "mode": report.mode,
        "accuracy_before": report.accuracy_before,
        "accuracy_after": report.accuracy_after,
        "dist_test_to_pseudo_before": report.dist_test_to_pseudo_before,
        "dist_test_to_pseudo_after": report.dist_test_to_pseudo_after,
    }
    print(tio._json_text({k: v for k, v in summary.items() if v is not None}))
    return EXIT_OK


def _cmd_validate_theory(args) -> int:
    test = tio.read_embeddings(args.test)
    head = tio.load_head(args.head)
    source = tio.read_embeddings(args.source)
    source_stats = covariance(source)
    if args.experiment == "groups":
        rows = validate_uncertainty_groups(test, head, source_stats, n_groups=args.n_groups)
        tio.table_to_csv(
            args.out_csv,
            ["group_index", "mean_uncertainty", "dist_to_source"],
            [(r.group_index, r.mean_uncertainty, r.dist_to_source) for r in rows],
        )
        rho = spearman([r.group_index for r in rows], [r.dist_to_source for r in rows])
        print(tio._json_text({"experiment": "groups", "n_groups": len(rows), "spearman": rho}))
        return EXIT_OK

    labels = tio.read_labels(args.labels)
    result = validate_alignment_trace(
        test,
        head,
        _cfg_from_args(args),
        source_stats,
        labels,
        record_every=args.record_every,
        lr=args.lr,
        max_iters=args.iters,
    )
    tio.table_to_csv(
        args.out_csv,
        ["iteration", "dist_to_pseudo", "dist_to_source", "accuracy"],
        [(r.iteration, r.dist_to_pseudo, r.dist_to_source, r.accuracy) for r in result.rows],
    )
    print(
        tio._json_text(
            {
                "experiment": "trace",
                "rows": len(result.rows),
                "spearman_pseudo_vs_source": result.spearman_pseudo_vs_source,
                "spearman_pseudo_vs_accuracy": result.spearman_pseudo_vs_accuracy,
                "r2_pseudo_vs_source": result.r2_pseudo_vs_source,
                "r2_pseudo_vs_accuracy": result.r2_pseudo_vs_accuracy,
            }
        )
    )
    return EXIT_OK


def _cmd_eval(args) -> int:
    preds = tio.read_predictions_csv(args.preds)
    labels = tio.read_labels(args.labels)
    acc = accuracy(preds, labels)
    print(tio._json_text({"n": int(labels.size), "accuracy": acc}))
    return EXIT_OK


def _cmd_plot(args) -> int:
    series = [
        ("source", tio.read_embeddings(args.source)),
        ("target", tio.read_embeddings(args.target)),
    ]
    if args.transformed:
        series.append(("transformed", tio.read_embeddings(args.transformed)))
    tio.write_scatter_svg(args.out, series)
    print(f"wrote {args.out}")
    return EXIT_OK


_COMMANDS = {
    "synth": _cmd_synth,
    "train-head": _cmd_train_head,
    "adapt": _cmd_adapt,
    "validate-theory": _cmd_validate_theory,
    "eval": _cmd_eval,
    "plot": _cmd_plot,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (TcaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ParseError):
            return EXIT_PARSE
        return EXIT_NUMERICAL if isinstance(exc, NumericalFailure) else EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
