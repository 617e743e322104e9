"""Command-line entry points.

Subcommands: gen-sbm, distill (alias report), evaluate, fid, baseline.
Every pipeline hyperparameter is exposed as a flag named exactly like its
config key; flag values override the config file, which overrides defaults.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .dataio import (
    DatasetFormatError,
    load_condensed,
    load_dataset,
    load_flat_toml,
    save_condensed,
    save_dataset,
)
from .evaluate import coreset_herding, coreset_kcenter, coreset_random
from .graph import homophily_ratio, normalized_adjacency
from .pipeline import (
    PipelineConfig,
    SbmSpec,
    evaluate_condensed,
    generate_sbm,
    report_block,
    require_test_nodes,
    resolve_synthetic_size,
    run_pipeline,
)
from .propagate import gls_propagate


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true/false, got {text!r}")


_FIELD_TYPES = {bool: _parse_bool, int: int, float: float, str: str}


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    for f in fields(PipelineConfig):
        key = "lambda" if f.name == "lambda_" else f.name
        parser.add_argument(
            f"--{key}",
            dest=f.name,
            type=_FIELD_TYPES[type(f.default)],
            default=None,
            help=argparse.SUPPRESS,
        )
    parser.add_argument("--config", type=Path, default=None, help="flat TOML config file")


def _build_config(args: argparse.Namespace) -> PipelineConfig:
    entries: dict = {}
    if args.config is not None:
        entries.update(load_flat_toml(args.config))
    cfg = PipelineConfig.from_dict(entries)
    for f in fields(PipelineConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(cfg, f.name, value)
    return cfg


def _cmd_gen_sbm(args: argparse.Namespace) -> int:
    spec = SbmSpec(
        num_nodes=args.nodes,
        num_classes=args.classes,
        intra_prob=args.p,
        inter_prob=args.q,
        feature_dim=args.dim,
        separation=args.separation,
        noise_scale=args.noise,
        seed=args.seed,
    )
    dataset = generate_sbm(spec)
    save_dataset(dataset, args.out_dir)
    print(f"nodes = {dataset.num_nodes}")
    print(f"edges = {dataset.graph.num_edges}")
    print(f"homophily = {homophily_ratio(dataset.graph, dataset.labels):.6g}")
    return 0


def _cmd_distill(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    dataset = load_dataset(args.dataset_dir)
    result = run_pipeline(dataset, cfg)
    if args.out_dir is not None:
        save_condensed(result.condensed, args.out_dir)
    sys.stdout.write(report_block(result))
    return 0


def _load_pair(args: argparse.Namespace):
    """The config, dataset and condensed graph; refuses a graph whose K or d differs."""
    cfg = _build_config(args)
    cfg.validate()
    dataset = load_dataset(args.dataset_dir)
    condensed = load_condensed(args.condensed_dir)
    for name, condensed_value, dataset_value in (
        ("K", condensed.num_classes, dataset.num_classes),
        ("d", condensed.x_prime.shape[1], dataset.num_features),
    ):
        if condensed_value != dataset_value:
            raise DatasetFormatError(
                args.condensed_dir, 0,
                f"condensed {name} = {condensed_value} but the dataset's {name} = {dataset_value}",
            )
    return cfg, dataset, condensed


def _print_accuracies(accuracies: list[float]) -> None:
    accs = np.array(accuracies)
    print(f"accuracy_mean = {accs.mean():.6g}")
    print(f"accuracy_std = {accs.std():.6g}")


def _cmd_evaluate(args: argparse.Namespace) -> int:
    cfg, dataset, condensed = _load_pair(args)
    _print_accuracies(evaluate_condensed(dataset, condensed, cfg)[0])
    return 0


def _cmd_fid(args: argparse.Namespace) -> int:
    cfg, dataset, condensed = _load_pair(args)
    # the FID reads only the first evaluation GCN
    _, value = evaluate_condensed(dataset, condensed, replace(cfg, eval_repeats=1))
    print(f"fid = {value:.6g}")
    return 0


def _cmd_baseline(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    cfg.validate()
    dataset = load_dataset(args.dataset_dir)
    n = resolve_synthetic_size(cfg, dataset)
    require_test_nodes(dataset)
    a_norm = normalized_adjacency(dataset.graph)
    Z = gls_propagate(a_norm, dataset.features, cfg.alpha, cfg.T)
    selector = {
        "random": coreset_random,
        "kcenter": coreset_kcenter,
        "herding": coreset_herding,
    }[args.method]
    condensed = selector(dataset, Z, n, seed=cfg.seed)
    condensed.meta.update(
        {
            "dataset": dataset.name,
            "ratio": float(n) / dataset.num_nodes,
            "seed": cfg.seed,
            "config_hash": cfg.hash(),
        }
    )
    # evaluate first, so that a failed evaluation writes no directory
    accuracies, _ = evaluate_condensed(dataset, condensed, cfg)
    if args.out_dir is not None:
        save_condensed(condensed, args.out_dir)
    print(f"method = {args.method}")
    _print_accuracies(accuracies)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphdistill",
        description="Condense an attributed graph into a small synthetic one.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-sbm", help="write a block-model dataset directory")
    gen.add_argument("--out-dir", type=Path, required=True)
    gen.add_argument("--nodes", type=int, default=1000)
    gen.add_argument("--classes", type=int, default=4)
    gen.add_argument("--p", type=float, default=0.05)
    gen.add_argument("--q", type=float, default=0.005)
    gen.add_argument("--dim", type=int, default=32)
    gen.add_argument("--separation", type=float, default=1.0)
    gen.add_argument("--noise", type=float, default=1.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.set_defaults(func=_cmd_gen_sbm)

    distill = sub.add_parser(
        "distill",
        aliases=["report"],
        help="run the pipeline, print the metric block and save the condensed graph",
    )
    distill.add_argument("--dataset-dir", type=Path, required=True)
    distill.add_argument("--out-dir", type=Path, default=None)
    _add_config_flags(distill)
    distill.set_defaults(func=_cmd_distill)

    evaluate = sub.add_parser("evaluate", help="train the evaluation GCN on a saved condensed graph")
    evaluate.add_argument("--dataset-dir", type=Path, required=True)
    evaluate.add_argument("--condensed-dir", type=Path, required=True)
    _add_config_flags(evaluate)
    evaluate.set_defaults(func=_cmd_evaluate)

    fid_cmd = sub.add_parser("fid", help="Frechet distance between original and condensed representations")
    fid_cmd.add_argument("--dataset-dir", type=Path, required=True)
    fid_cmd.add_argument("--condensed-dir", type=Path, required=True)
    _add_config_flags(fid_cmd)
    fid_cmd.set_defaults(func=_cmd_fid)

    baseline = sub.add_parser("baseline", help="coreset selection baselines")
    baseline.add_argument("method", choices=("random", "kcenter", "herding"))
    baseline.add_argument("--dataset-dir", type=Path, required=True)
    baseline.add_argument("--out-dir", type=Path, default=None)
    _add_config_flags(baseline)
    baseline.set_defaults(func=_cmd_baseline)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # surface a single-line error, not a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
