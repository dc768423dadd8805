"""Command-line entry point: gen / train / explain / ablation.

Every command resolves its parameters from an optional JSON config file
plus flags (flags win), writes a resolved-config snapshot next to its
outputs, and touches nothing outside --out. The default output root is
$CROSSSCALENET_OUT or ./runs.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import traceback
from pathlib import Path

import numpy as np

from .data import dataset_from_csv, make_windows
from .explain import DEFAULT_RATIOS, build_report, export_report_files
from .model import CrossScaleNet, ModelConfig
from .synthgen import (
    BUILTIN_NAMES,
    SynthSpec,
    builtin_spec,
    export_dataset,
    export_mask,
    generate_dataset,
    ground_truth_mask,
    load_mask,
)
from .tensor import NonFiniteError
from .train import TrainConfig, TrainingDiverged, evaluate, train, write_history_csv

DEFAULT_SEED = 42


def _out_root() -> str:
    return os.environ.get("CROSSSCALENET_OUT", "runs")


def _resolve(args: argparse.Namespace, explicit: set[str]) -> dict:
    """Merge JSON config file and flags; flags given on the command line win."""
    resolved = {k: v for k, v in vars(args).items()
                if k not in ("func", "config", "subparser", "command")}
    config_path = getattr(args, "config", None)
    if config_path:
        file_values = json.loads(Path(config_path).read_text())
        for key, value in file_values.items():
            if key not in resolved:
                raise SystemExit(f"unknown config key {key!r} in {config_path}")
            if key not in explicit:
                resolved[key] = value
    # a config file may set "seed": null; 0 is a seed like any other
    resolved["seed"] = DEFAULT_SEED if resolved.get("seed") is None else int(resolved["seed"])
    return resolved


def _explicit_flags(args: argparse.Namespace, argv: list[str]) -> set[str]:
    """Destinations of the flags given on the command line, even at their default.

    Re-parses the subcommand's arguments into a namespace that already holds
    a marker for every destination, so argparse fills in no defaults.
    """
    unset = object()
    given = args.subparser.parse_args(
        argv[argv.index(args.command) + 1 :], argparse.Namespace(**{k: unset for k in vars(args)})
    )
    return {k for k, v in vars(given).items() if v is not unset}


def _write_snapshot(out_dir: Path, command: str, resolved: dict) -> None:
    snapshot = {"command": command, **resolved}
    (out_dir / "resolved_config.json").write_text(json.dumps(snapshot, indent=1, sort_keys=True))


def _prepare_out(path_like) -> Path:
    out = Path(path_like)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_spec(resolved: dict) -> SynthSpec:
    if resolved.get("spec"):
        raw = json.loads(Path(resolved["spec"]).read_text())
        raw.setdefault("seed", resolved["seed"])
        if resolved.get("samples"):
            raw["n_samples"] = resolved["samples"]
        return SynthSpec.from_dict(raw)
    name = resolved["dataset"]
    if name not in BUILTIN_NAMES:
        raise SystemExit(f"unknown dataset {name!r}; expected one of {BUILTIN_NAMES} or --spec FILE")
    return builtin_spec(name, n_samples=resolved["samples"] or 10_000, seed=resolved["seed"])


def cmd_gen(args, explicit: set[str]) -> int:
    resolved = _resolve(args, explicit)
    spec = _load_spec(resolved)
    out = _prepare_out(resolved["out"] or Path(_out_root()) / f"gen_{spec.name}")

    features, target = generate_dataset(spec)
    export_dataset(features, target, spec, out / f"{spec.name}.csv")
    truth = ground_truth_mask(spec, resolved["lookback"])
    export_mask(truth, out / f"{spec.name}_mask.csv")
    _write_snapshot(out, "gen", resolved)
    print(f"wrote {spec.name}.csv, {spec.name}.json, {spec.name}_mask.csv under {out}")
    return 0


def _dataset_for(resolved: dict):
    """Load --data (CSV path or builtin name) into a WindowDataset."""
    data = resolved["data"]
    lookback, horizon = resolved["lookback"], resolved["horizon"]
    if data in BUILTIN_NAMES:
        spec = builtin_spec(data, seed=resolved["seed"])
        features, target = generate_dataset(spec)
        matrix = np.column_stack([features, target])
        names = [f"feat_{j}" for j in range(features.shape[1])] + ["target"]
        return make_windows(matrix, lookback, horizon, column_names=names), f"builtin:{data}"
    # name + content hash: stable provenance, independent of where the file lives
    digest = hashlib.sha256(Path(data).read_bytes()).hexdigest()[:16]
    return (
        dataset_from_csv(data, lookback, horizon, target=resolved.get("target")),
        f"{Path(data).name}:{digest}",
    )


def cmd_train(args, explicit: set[str]) -> int:
    resolved = _resolve(args, explicit)
    dataset, data_ref = _dataset_for(resolved)

    model_config = ModelConfig(
        lookback=resolved["lookback"],
        horizon=resolved["horizon"],
        n_features=dataset.n_columns,
        n_scales=resolved["scales"],
        patch_len=resolved["patch"],
        decomp_kernel=resolved["kernel"],
        hidden_dim=resolved["hidden"],
        variant=resolved["variant"],
        instance_norm=not resolved["no_instance_norm"],
    )
    train_config = TrainConfig(
        learning_rate=resolved["lr"],
        batch_size=resolved["batch"],
        epochs=resolved["epochs"],
        seed=resolved["seed"],
        patience=resolved["patience"],
    )

    out = _prepare_out(resolved["out"] or Path(_out_root()) / "train")
    model = CrossScaleNet(model_config, seed=resolved["seed"])
    _, history = train(model, dataset, train_config)
    metrics = evaluate(model, dataset, "test" if dataset.n_windows("test") else "train")

    model.save(out / "model.ckpt", extra={
        "data": data_ref,
        "target_columns": dataset.target_columns,
        "train_seed": resolved["seed"],
    })
    write_history_csv(history, out / "history.csv")
    (out / "metrics.json").write_text(json.dumps(metrics.to_dict(), indent=1, sort_keys=True))
    _write_snapshot(out, "train", resolved)
    print(f"test mse {metrics.mse:.6f} mae {metrics.mae:.6f}; artifacts under {out}")
    return 0


def cmd_explain(args, explicit: set[str]) -> int:
    resolved = _resolve(args, explicit)
    model, extra = CrossScaleNet.load(resolved["checkpoint"])
    lookback, horizon = model.config.lookback, model.config.horizon

    # a builtin dataset is regenerated with the seed it was trained on
    dataset, _ = _dataset_for({**resolved, "lookback": lookback, "horizon": horizon,
                               "seed": int(extra.get("train_seed", resolved["seed"]))})
    if dataset.n_columns != model.config.n_features:
        raise SystemExit(
            f"checkpoint expects {model.config.n_features} columns, data has {dataset.n_columns}"
        )

    truth = None
    if resolved.get("truth"):
        truth = load_mask(resolved["truth"])
        if truth.mask.shape[0] != lookback:
            raise SystemExit(
                f"truth mask lookback {truth.mask.shape[0]} != checkpoint lookback {lookback}"
            )

    ratios = tuple(float(r) for r in resolved["ratios"].split(","))
    out = _prepare_out(resolved["out"] or Path(_out_root()) / "explain")
    report = build_report(model, dataset, truth=truth, ratios=ratios,
                          ig_steps=resolved["ig_steps"], ig_windows=resolved["ig_windows"])
    export_report_files(report, out)
    _write_snapshot(out, "explain", resolved)
    print(f"report and heatmaps under {out}")
    return 0


def cmd_ablation(args, explicit: set[str]) -> int:
    resolved = _resolve(args, explicit)
    datasets = resolved["datasets"].split(",")
    variants = resolved["variants"].split(",")
    seeds = [int(s) for s in resolved["seeds"].split(",")]
    out = _prepare_out(resolved["out"] or Path(_out_root()) / "ablation")

    rows = []
    failures = []
    for dataset_name in datasets:
        for variant in variants:
            per_seed = []
            for seed in seeds:
                run_dir = out / "runs" / f"{dataset_name}_{variant}_{seed}"
                try:
                    sub = argparse.Namespace(
                        data=dataset_name, variant=variant, lookback=resolved["lookback"],
                        horizon=resolved["horizon"], scales=resolved["scales"],
                        patch=resolved["patch"], kernel=resolved["kernel"],
                        hidden=resolved["hidden"], lr=resolved["lr"], batch=resolved["batch"],
                        epochs=resolved["epochs"], patience=resolved["patience"],
                        no_instance_norm=resolved["no_instance_norm"], seed=seed,
                        target=None, out=str(run_dir), config=None,
                    )
                    cmd_train(sub, set(vars(sub)))
                    metrics = json.loads((run_dir / "metrics.json").read_text())
                    per_seed.append((metrics["mse"], metrics["mae"]))
                except Exception as exc:  # keep sweeping, record the failure
                    failures.append({"dataset": dataset_name, "variant": variant,
                                     "seed": seed, "error": f"{type(exc).__name__}: {exc}"})
                    traceback.print_exc()
            if per_seed:
                mse = float(np.mean([m for m, _ in per_seed]))
                mae = float(np.mean([a for _, a in per_seed]))
                rows.append({"dataset": dataset_name, "variant": variant,
                             "mse": mse, "mae": mae, "n_seeds": len(per_seed)})

    with open(out / "ablation.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["dataset", "variant", "mse", "mae", "n_seeds"])
        writer.writeheader()
        for row in rows:
            writer.writerow({**row, "mse": f"{row['mse']:.17g}", "mae": f"{row['mae']:.17g}"})

    lines = ["| Dataset | Variant | MSE | MAE |", "|---|---|---|---|"]
    for row in rows:
        lines.append(f"| {row['dataset']} | {row['variant']} | {row['mse']:.4f} | {row['mae']:.4f} |")
    (out / "ablation.md").write_text("\n".join(lines) + "\n")

    if failures:
        (out / "failures.json").write_text(json.dumps(failures, indent=1, sort_keys=True))
    _write_snapshot(out, "ablation", resolved)
    print(f"{len(rows)} sweep rows ({len(failures)} failures) under {out}")
    return 0 if not failures else 1


# ---------------------------------------------------------------------------
# argument wiring


def _add_common_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lookback", type=int, default=96)
    p.add_argument("--horizon", type=int, default=16)
    p.add_argument("--scales", type=int, default=3)
    p.add_argument("--patch", type=int, default=16)
    p.add_argument("--kernel", type=int, default=25, help="decomposition moving-average kernel (odd)")
    p.add_argument("--hidden", type=int, default=16)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--patience", type=int, default=5)
    p.add_argument("--no-instance-norm", action="store_true", dest="no_instance_norm")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossscalenet",
        description="Multi-scale forecasting with intrinsic temporal saliency",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a synthetic dataset with ground-truth saliency")
    p_gen.add_argument("--dataset", default="SYN1", help=f"one of {', '.join(BUILTIN_NAMES)}")
    p_gen.add_argument("--spec", default=None, help="JSON recipe file (overrides --dataset)")
    p_gen.add_argument("--samples", type=int, default=None)
    p_gen.add_argument("--lookback", type=int, default=96, help="lookback for the exported mask")
    p_gen.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_gen.add_argument("--out", default=None)
    p_gen.add_argument("--config", default=None)
    p_gen.set_defaults(func=cmd_gen, subparser=p_gen)

    p_train = sub.add_parser("train", help="train a model and write checkpoint/metrics")
    p_train.add_argument("--data", required=True, help="CSV path or builtin dataset name")
    p_train.add_argument("--variant", default="cross_dual_key")
    p_train.add_argument("--target", default=None, help="target column name or index (CSV data)")
    _add_common_train_flags(p_train)
    p_train.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_train.add_argument("--out", default=None)
    p_train.add_argument("--config", default=None)
    p_train.set_defaults(func=cmd_train, subparser=p_train)

    p_explain = sub.add_parser("explain", help="saliency, faithfulness metrics, heatmaps")
    p_explain.add_argument("--checkpoint", required=True)
    p_explain.add_argument("--data", required=True)
    p_explain.add_argument("--target", default=None)
    p_explain.add_argument("--truth", default=None, help="ground-truth mask CSV")
    p_explain.add_argument("--ratios", default=",".join(str(r) for r in DEFAULT_RATIOS))
    p_explain.add_argument("--ig-steps", type=int, default=64, dest="ig_steps")
    p_explain.add_argument("--ig-windows", type=int, default=16, dest="ig_windows")
    p_explain.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_explain.add_argument("--out", default=None)
    p_explain.add_argument("--config", default=None)
    p_explain.set_defaults(func=cmd_explain, subparser=p_explain)

    p_abl = sub.add_parser("ablation", help="cross-product sweep over datasets/variants/seeds")
    p_abl.add_argument("--datasets", default="SYN1")
    p_abl.add_argument("--variants", default="self_attention,patch_attention,cross_shared_key,cross_dual_key")
    p_abl.add_argument("--seeds", default="42")
    _add_common_train_flags(p_abl)
    p_abl.add_argument("--seed", type=int, default=DEFAULT_SEED, help=argparse.SUPPRESS)
    p_abl.add_argument("--out", default=None)
    p_abl.add_argument("--config", default=None)
    p_abl.set_defaults(func=cmd_ablation, subparser=p_abl)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    try:
        # no numpy warnings: tensor._result names the op of a blowup in one NonFiniteError
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args, _explicit_flags(args, argv))
    except (ValueError, FileNotFoundError, NonFiniteError, TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
