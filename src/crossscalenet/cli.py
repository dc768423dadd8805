"""Command-line entry point: gen / train / explain / ablation.

The values of an optional JSON config file (--config) become the
subcommand's argparse defaults, each read as its flag reads its text
(null keeps the flag's default). argparse uses a default only for an
absent flag, so a flag wins even at its default value. Every command
writes a resolved-config snapshot next to its outputs and touches
nothing outside --out. The default output root is $CROSSSCALENET_OUT or ./runs.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import traceback
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .attention import VARIANTS
from .data import dataset_from_csv, make_windows, resolve_target
from .explain import DEFAULT_RATIOS, build_report, export_report_files
from .model import CrossScaleNet, ModelConfig
from .synthgen import (
    BUILTIN_NAMES,
    DEFAULT_N_SAMPLES,
    DEFAULT_SEED,
    SynthSpec,
    builtin_spec,
    export_dataset,
    export_mask,
    feature_names,
    generate_dataset,
    ground_truth_mask,
    load_mask,
)
from .tensor import NonFiniteError
from .train import Metrics, TrainConfig, TrainingDiverged, evaluate, train, write_history_csv


def _out_root() -> str:
    return os.environ.get("CROSSSCALENET_OUT", "runs")


def _read_json_object(path) -> dict:
    """The JSON object in a file; anything else raises ValueError naming the file."""
    try:
        value = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(value, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(value).__name__}")
    return value


def _config_value(action: argparse.Action, value, where: str):
    """A config file's value for one flag, read as the flag reads its command-line text."""
    if action.nargs == 0:  # a switch such as --no-instance-norm
        if isinstance(value, bool):
            return value
        raise ValueError(f"{where}: expected true or false, got {json.dumps(value)}")
    read = action.type or str
    if isinstance(value, (str, int, float)) and not isinstance(value, bool):
        try:
            return read(str(value))
        except ValueError:
            pass
    raise ValueError(f"{where}: expected {read.__name__}, got {json.dumps(value)}")


def _resolve(subparser: argparse.ArgumentParser, config_path) -> dict:
    """The config file's values for the subcommand's flags, typed as each flag
    reads its text; an unknown key raises ValueError naming the file."""
    actions = {a.dest: a for a in subparser._actions if a.dest not in ("help", "config")}
    values = {}
    for key, value in _read_json_object(config_path).items():
        if key not in actions:
            raise ValueError(f"unknown config key {key!r} in {config_path}")
        # null keeps the flag's default, as "seed": null keeps the default seed
        if value is not None:
            values[key] = _config_value(actions[key], value, f"{config_path}: key {key!r}")
    return values


def _write_snapshot(out_dir: Path, command: str, resolved: dict) -> None:
    snapshot = {"command": command, **resolved}
    (out_dir / "resolved_config.json").write_text(json.dumps(snapshot, indent=1, sort_keys=True))


def _prepare_out(path_like) -> Path:
    out = Path(path_like)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_spec(resolved: dict) -> SynthSpec:
    # None, not falsy: --samples 0 reaches SynthSpec, which rejects it
    samples = resolved["samples"]
    if resolved.get("spec"):
        raw = _read_json_object(resolved["spec"])
        raw.setdefault("seed", resolved["seed"])
        if samples is not None:
            raw["n_samples"] = samples
        return SynthSpec.from_dict(raw, source=f"{resolved['spec']}: ")
    name = resolved["dataset"]
    if name not in BUILTIN_NAMES:
        raise ValueError(f"unknown dataset {name!r}; expected one of {BUILTIN_NAMES} or --spec FILE")
    n_samples = DEFAULT_N_SAMPLES if samples is None else samples
    return builtin_spec(name, n_samples=n_samples, seed=resolved["seed"])


def cmd_gen(resolved: dict) -> int:
    spec = _load_spec(resolved)
    features, target = generate_dataset(spec)
    truth = ground_truth_mask(spec, resolved["lookback"])
    # made only now, so a run that fails leaves nothing behind
    out = _prepare_out(resolved["out"] or Path(_out_root()) / f"gen_{spec.name}")
    export_dataset(features, target, spec, out / f"{spec.name}.csv")
    export_mask(truth, out / f"{spec.name}_mask.csv")
    _write_snapshot(out, "gen", resolved)
    print(f"wrote {spec.name}.csv, {spec.name}.json, {spec.name}_mask.csv under {out}")
    return 0


def _dataset_for(data: str, lookback: int, horizon: int, target: str | int | None, seed: int):
    """Window --data (CSV path, or builtin name generated at seed) on target
    (a column name or index, or None for the last column)."""
    if data not in BUILTIN_NAMES:
        return dataset_from_csv(data, lookback, horizon, target)
    spec = builtin_spec(data, seed=seed)
    features, series = generate_dataset(spec)
    # the columns and header of the CSV `gen` writes for this spec
    names = feature_names(spec) + ["target"]
    return make_windows(np.column_stack([features, series]), lookback, horizon,
                        target_columns=resolve_target(names, target), column_names=names)


def _train_run(resolved: dict, out_path: str | Path) -> Metrics:
    """Build the model and training configs from resolved parameters, train,
    evaluate on the test split (train if it is empty) and write model.ckpt,
    history.csv, metrics.json and resolved_config.json under out_path,
    which is made only then, so a run that fails leaves nothing behind."""
    data = resolved["data"]
    dataset = _dataset_for(data, resolved["lookback"], resolved["horizon"], resolved["target"],
                           resolved["seed"])
    # a CSV's name + content hash: stable provenance, independent of where the file lives
    data_ref = (f"builtin:{data}" if data in BUILTIN_NAMES else
                f"{Path(data).name}:{hashlib.sha256(Path(data).read_bytes()).hexdigest()[:16]}")
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

    model = CrossScaleNet(model_config, seed=resolved["seed"])
    _, history = train(model, dataset, train_config)
    metrics = evaluate(model, dataset, "test" if dataset.n_windows("test") else "train")

    out = _prepare_out(out_path)
    model.save(out / "model.ckpt", extra={
        "data": data_ref,
        "target_columns": dataset.target_columns,
        "train_seed": resolved["seed"],
    })
    write_history_csv(history, out / "history.csv")
    (out / "metrics.json").write_text(json.dumps(asdict(metrics), indent=1, sort_keys=True))
    _write_snapshot(out, "train", resolved)
    print(f"test mse {metrics.mse:.6f} mae {metrics.mae:.6f}; artifacts under {out}")
    return metrics


def cmd_train(resolved: dict) -> int:
    _train_run(resolved, resolved["out"] or Path(_out_root()) / "train")
    return 0


def _parse_list(flag: str, text: str, read, what: str) -> tuple:
    """The comma-separated items of a list flag, each read by read; an item
    it refuses raises ValueError naming the flag, the item and what it must be."""
    items = []
    for item in text.split(","):
        try:
            items.append(read(item))
        except ValueError:
            raise ValueError(f"{flag}: cannot read {item!r} as {what}") from None
    return tuple(items)


def _variant(name: str) -> str:
    if name not in VARIANTS:
        raise ValueError(name)
    return name


def _dataset_item(item: str) -> str:
    if item not in BUILTIN_NAMES and not Path(item).is_file():
        raise ValueError(item)
    return item


def cmd_explain(resolved: dict) -> int:
    ratios = _parse_list("--ratios", resolved["ratios"], float, "a number")
    model, extra = CrossScaleNet.load(resolved["checkpoint"])

    # a builtin dataset is regenerated with the seed it was trained on, and
    # without --target the data is windowed on the column the model learned
    trained_on = extra.get("target_columns")
    target = resolved["target"]
    if target is None and trained_on:
        target = trained_on[0]
    dataset = _dataset_for(resolved["data"], model.config.lookback, model.config.horizon, target,
                           int(extra.get("train_seed", resolved["seed"])))
    if dataset.n_columns != model.config.n_features:
        raise ValueError(
            f"checkpoint expects {model.config.n_features} columns, data has {dataset.n_columns}"
        )
    if trained_on is not None and dataset.target_columns != list(trained_on):
        raise ValueError(
            f"checkpoint was trained on target columns {trained_on}, data targets {dataset.target_columns}"
        )

    truth = load_mask(resolved["truth"]) if resolved["truth"] else None
    report = build_report(model, dataset, truth=truth, ratios=ratios,
                          ig_steps=resolved["ig_steps"], ig_windows=resolved["ig_windows"])
    # made only now, so a run that fails leaves no empty directory behind
    out = _prepare_out(resolved["out"] or Path(_out_root()) / "explain")
    export_report_files(report, out)
    _write_snapshot(out, "explain", resolved)
    print(f"report and heatmaps under {out}")
    return 0


def _run_names(datasets: tuple) -> list[str]:
    """Each --datasets item's run-directory name: the builtin name or the CSV's
    stem, so every run stays under --out; a taken name gets the first free -2, -3, ..."""
    names = []
    for item in datasets:
        base = item if item in BUILTIN_NAMES else Path(item).stem
        name, k = base, 2
        while name in names:
            name, k = f"{base}-{k}", k + 1
        names.append(name)
    return names


def cmd_ablation(resolved: dict) -> int:
    datasets = _parse_list("--datasets", resolved["datasets"], _dataset_item,
                           f"a dataset, one of {', '.join(BUILTIN_NAMES)} or an existing file")
    variants = _parse_list("--variants", resolved["variants"], _variant,
                           f"a variant, one of {', '.join(VARIANTS)}")
    seeds = _parse_list("--seeds", resolved["seeds"], int, "an integer")
    out = _prepare_out(resolved["out"] or Path(_out_root()) / "ablation")
    # every run trains with the sweep's training flags
    shared = {k: v for k, v in resolved.items() if k not in ("datasets", "variants", "seeds")}

    rows = []
    failures = []
    for dataset_name, run_name in zip(datasets, _run_names(datasets)):
        for variant in variants:
            per_seed = []
            for seed in seeds:
                run_dir = out / "runs" / f"{run_name}_{variant}_{seed}"
                try:
                    run = {**shared, "data": dataset_name, "variant": variant, "seed": seed,
                           "target": None, "out": str(run_dir)}
                    metrics = _train_run(run, run_dir)
                    per_seed.append((metrics.mse, metrics.mae))
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
    p_train.add_argument("--target", default=None, help="target column name or index (default: the last column)")
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

    # no abbreviated flags: --seed, which train and explain take, would read as --seeds
    p_abl = sub.add_parser("ablation", help="cross-product sweep over datasets/variants/seeds",
                           allow_abbrev=False)
    p_abl.add_argument("--datasets", default="SYN1")
    p_abl.add_argument("--variants", default=",".join(VARIANTS))
    p_abl.add_argument("--seeds", default="42")
    _add_common_train_flags(p_abl)
    p_abl.add_argument("--out", default=None)
    p_abl.add_argument("--config", default=None)
    p_abl.set_defaults(func=cmd_ablation, subparser=p_abl)

    return parser


def main(argv: list[str] | None = None) -> int:
    # a new parser per call: config defaults never carry over to the next call
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # argparse falls back on a default only for an absent flag, so flags win
            args.subparser.set_defaults(**_resolve(args.subparser, args.config))
            args = parser.parse_args(argv)
        resolved = {k: v for k, v in vars(args).items()
                    if k not in ("func", "config", "subparser", "command")}
        # no numpy warnings: tensor._op names the op of a blowup in one NonFiniteError
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(resolved)
    except (ValueError, OSError, NonFiniteError, TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
