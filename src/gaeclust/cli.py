"""Command line interface.

Verbs: pretrain, cluster, ablate, robustness, export-embeddings,
verify-theory. Run parameters come from a flat JSON config file
(--config) and/or flags, one per ExperimentConfig field; a flag given on
the command line always wins over the file value.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import typing
from pathlib import Path

from . import experiments
from .errors import ConfigError, GaeClustError

# config keys whose flag has the key as its dest; seeds and perturbation
# are parsed from their own flags in _config_from_args
_CONFIG_FLAG_KEYS = tuple(f.name for f in dataclasses.fields(experiments.ExperimentConfig)
                          if f.name not in ("seeds", "perturbation"))

# the format of a flag whose text _config_from_args parses, by its field's
# type hint; every other flag has its field's type
_TEXT_FORMS = {tuple: "comma-separated integers, e.g. 0,1,2",
               dict: 'JSON object, e.g. \'{"kind": "add_random_edges", "amount": 100}\''}


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    """--config, and one flag per ExperimentConfig field: '--' plus its name
    with '-' for '_', typed by its hint (X | None read as X) and helped by
    its metadata. A bool field gets an exclusive --x/--no-x pair, and the
    list field's flag excludes --seed, its one-element form."""
    p.add_argument("--config", help="flat JSON config file; flags override its keys")
    seed = p.add_mutually_exclusive_group()
    seed.add_argument("--seed", type=int, help="single seed")
    hints = typing.get_type_hints(experiments.ExperimentConfig)
    for f in dataclasses.fields(experiments.ExperimentConfig):
        flag, hint = "--" + f.name.replace("_", "-"), hints[f.name]
        hint = (typing.get_args(hint) or (hint,))[0]
        if hint is bool:
            pair = p.add_mutually_exclusive_group()
            pair.add_argument(flag, action="store_true", default=None, help=f.metadata.get("help"))
            pair.add_argument("--no-" + flag[2:], dest=f.name, action="store_false")
        else:
            form = _TEXT_FORMS.get(hint)
            (seed if hint is tuple else p).add_argument(
                flag, type=str if form else hint, help=f.metadata.get("help", form))


def _config_from_args(args: argparse.Namespace) -> experiments.ExperimentConfig:
    overrides = {key: getattr(args, key) for key in _CONFIG_FLAG_KEYS
                 if getattr(args, key) is not None}
    if args.seed is not None:
        overrides["seeds"] = [args.seed]
    elif args.seeds is not None:
        try:
            overrides["seeds"] = [int(s) for s in args.seeds.split(",") if s.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad --seeds value {args.seeds!r}") from exc
    if args.perturbation is not None:
        try:
            overrides["perturbation"] = json.loads(args.perturbation)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--perturbation is not valid JSON: {exc}") from exc
    if args.config:
        return experiments.ExperimentConfig.from_file(args.config, overrides)
    if "dataset" not in overrides:
        raise ConfigError("--dataset is required when no --config file is given")
    return experiments.ExperimentConfig(**overrides)


def _print_metrics(label: str, metrics: dict | None) -> None:
    if metrics is None:
        print(f"{label}: no ground-truth labels, metrics unavailable")
        return
    keys = [k for k in ("acc", "nmi", "ari") if k in metrics]
    body = "  ".join(f"{k}={metrics[k]:.4f}" for k in keys)
    extra = f"  (seed {metrics['seed']})" if "seed" in metrics else ""
    print(f"{label}: {body}{extra}")


def _cmd_pretrain(args) -> int:
    manifest = experiments.pretrain_only(_config_from_args(args))
    for entry in manifest["checkpoints"]:
        print(f"seed {entry['seed']}: {entry['checkpoint']}  "
              f"sha256={entry['sha256'][:12]}  ({entry['wall_time_s']:.1f}s)")
    return 0


def _cmd_cluster(args) -> int:
    result = experiments.run(_config_from_args(args))
    for entry in result.data["per_seed"]:
        line = f"seed {entry['seed']}: "
        if entry["acc"] is not None:
            line += f"acc={entry['acc']:.4f}  nmi={entry['nmi']:.4f}  ari={entry['ari']:.4f}  "
        line += (f"stop={entry['stop_reason']}  epochs={entry['epochs_run']}  "
                 f"omega={entry['omega_final']}  ({entry['wall_time_s']:.1f}s)")
        print(line)
    _print_metrics("best", result.data["best"])
    _print_metrics("mean", result.data["mean"])
    _print_metrics("std", result.data["std"])
    print(f"results: {result.path}")
    return 0


def _print_grid(record: dict, out: str) -> int:
    """Each cell's best seed, named by its directory under out, then each
    pair's acc deltas (rethink minus plain), from the grid record."""
    names = [os.path.relpath(cell["config"]["out"], out) for cell in record["cells"]]
    for name, cell in zip(names, record["cells"]):
        _print_metrics(name, cell["best"])
    for pair in record["pairs"]:
        print(f"{names[pair['rethink']]} - {names[pair['plain']]}: acc wins={pair['wins']}  "
              f"losses={pair['losses']}  ties={pair['ties']}")
    print(f"results: {Path(out) / 'results_grid.json'}")
    return 0


def _cmd_ablate(args) -> int:
    config = _config_from_args(args)
    axes = [a.strip() for a in args.axes.split(",") if a.strip()]
    return _print_grid(experiments.run_ablation_grid(config, axes), config.out)


def _cmd_robustness(args) -> int:
    raw = args.grid
    try:
        grid = json.loads(Path(raw[1:]).read_text() if raw.startswith("@") else raw)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"--grid is not readable JSON: {exc}") from exc
    if not isinstance(grid, list):
        raise ConfigError("--grid must be a JSON list of perturbation objects")
    config = _config_from_args(args)
    return _print_grid(experiments.run_robustness(config, grid), config.out)


def _cmd_export(args) -> int:
    path = experiments.export_embeddings(args.checkpoint, args.dataset, args.out)
    print(path)
    return 0


def _cmd_verify_theory(args) -> int:
    report = experiments.verify_theory(n_instances=args.instances, seed=args.seed)
    width = max(map(len, [*report["residuals"], *report["grad_checks"]]))
    print(f"identity residuals over {report['instances']} random instances:")
    for key, value in report["residuals"].items():
        print(f"  {key:<{width}} {value:.3e}")
    print("gradient checks against central finite differences:")
    for key, value in report["grad_checks"].items():
        print(f"  {key:<{width}} {value:.3e}")
    ok = (all(v < 1e-8 for v in report["residuals"].values())
          and all(v < 1e-5 for v in report["grad_checks"].values()))
    print("status:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaeclust",
        description="Graph auto-encoder clustering with reliable-node graph rewiring.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("pretrain", help="reconstruction pretraining only")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_pretrain)

    p = sub.add_parser("cluster", help="pretrain (or reuse) + clustering phase")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("ablate", help="run an ablation grid with shared pretraining")
    _add_config_flags(p)
    p.add_argument("--axes", required=True,
                   help="comma-separated ablation names, e.g. no_xi,no_alpha1")
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("robustness", help="paired baseline/rethink runs on perturbed graphs")
    _add_config_flags(p)
    p.add_argument("--grid", required=True,
                   help="JSON list of perturbation objects, or @file.json")
    p.set_defaults(func=_cmd_robustness)

    p = sub.add_parser("export-embeddings", help="write the embedding matrix as TSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("verify-theory",
                       help="check the loss identities and closed-form gradients")
    p.add_argument("--instances", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify_theory)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GaeClustError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
