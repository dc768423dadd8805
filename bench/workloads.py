"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` and then runs
one operation per ``run`` call, timing the calls it makes into the
package itself. The package is reached only through its public module
attributes, looked up at call time, so that a traced run sees every
call. ``run(check=True)`` also runs the workload's correctness checks,
outside the timed calls, and returns what they found.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import crossscalenet.cli as cli
import crossscalenet.data as data
import crossscalenet.explain as explain
import crossscalenet.model as model_mod
import crossscalenet.synthgen as synthgen
import crossscalenet.tensor as tensor

import checks

# The package re-exports the function train(), which shadows the submodule's name.
train_mod = importlib.import_module("crossscalenet.train")

# The acceptance config: SYN1, horizon 16, 3 scales, patch 16, hidden 16, batch 32, Adam at 1e-3.
HORIZON = 16
MODEL = dict(horizon=HORIZON, n_scales=3, patch_len=16, hidden_dim=16)
TRAIN = dict(learning_rate=1e-3, batch_size=32)
TRAIN_EPOCHS = 1
EXPLAIN_EPOCHS = 1


@dataclass
class Result:
    """One operation: its timed parts (seconds), user-facing figures, and a
    fingerprint that must repeat exactly in every operation of a run."""

    timings: dict[str, float]
    figures: dict[str, float]
    fingerprint: object
    problems: list[str] = field(default_factory=list)


def _syn1(seed: int, lookback: int):
    spec = synthgen.builtin_spec("SYN1", seed=seed)
    features, target = synthgen.generate_dataset(spec)
    matrix = np.column_stack([features, target])
    names = [f"feat_{j}" for j in range(features.shape[1])] + ["target"]
    dataset = data.make_windows(matrix, lookback, HORIZON, column_names=names)
    for split in ("train", "val", "test"):
        dataset.windows(split)
    return spec, features, target, dataset


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


class TrainSyn1:
    """train() from a fixed initialisation for a fixed number of epochs."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> None:
        _, _, _, self.dataset = _syn1(self.seed, 96)
        config = model_mod.ModelConfig(lookback=96, n_features=self.dataset.n_columns, **MODEL)
        self.model = model_mod.CrossScaleNet(config, seed=self.seed)
        self.initial = self.model.params.copy()
        self.windows = self.dataset.n_windows("train") + self.dataset.n_windows("val")

    def run(self, check: bool = False) -> Result:
        self.model.params = self.initial.copy()
        config = train_mod.TrainConfig(epochs=TRAIN_EPOCHS, seed=self.seed, patience=TRAIN_EPOCHS, **TRAIN)
        (_, history), seconds = _timed(train_mod.train, self.model, self.dataset, config)
        val_mse = history[-1].val_mse
        result = Result({"op_s": seconds}, {"val_mse": val_mse}, val_mse)
        if check:
            result.problems = self.check(val_mse)
        return result

    def check(self, val_mse: float) -> list[str]:
        x, y = self.dataset.windows("train")
        x, y = x[:32], y[:32]
        cols = self.dataset.target_columns
        rng = np.random.default_rng(self.seed)
        named = dict(self.model.named_parameters())
        coords = [(name, int(rng.integers(named[name].size)))
                  for name in ("scale1.seasonal.w_time1", "scale2.attention.w_query",
                               "scale3.trend.w_channel", "scale3.gate", "fusion.weight")]
        with tensor.Tape() as tape:
            forecast, _ = self.model.forward(tensor.Tensor(x))
            tape.backward(train_mod.mse_loss(forecast, y, cols))
        analytic = [float(named[name].grad.reshape(-1)[i]) for name, i in coords]
        numeric = checks.central_differences(self.model, x, y, cols, coords)
        xv, yv = self.dataset.windows("val")
        return (checks.check_gradients(analytic, numeric)
                + checks.check_beats_persistence(val_mse, checks.persistence_mse(xv, yv, cols)))

    def figures(self, results: list[Result]) -> dict[str, tuple[float, str]]:
        op_s = _median(results, "op_s")
        return {
            "windows_per_s": (self.windows / op_s, "windows/s"),
            "train_windows_per_s": (self.windows / op_s, "windows/s"),
            "val_mse": (results[0].figures["val_mse"], "mse"),
        }


class ExplainSyn1:
    """The `explain` command, in-process, on a CSV, mask and checkpoint made at set-up."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        spec, features, target, self.dataset = _syn1(self.seed, 96)
        self.csv = self.workdir / "SYN1.csv"
        self.mask = self.workdir / "SYN1_mask.csv"
        self.ckpt = self.workdir / "model.ckpt"
        synthgen.export_dataset(features, target, spec, self.csv)
        synthgen.export_mask(synthgen.ground_truth_mask(spec, 96), self.mask)
        config = model_mod.ModelConfig(lookback=96, n_features=self.dataset.n_columns, **MODEL)
        model = model_mod.CrossScaleNet(config, seed=self.seed)
        train_mod.train(model, self.dataset,
                        train_mod.TrainConfig(epochs=EXPLAIN_EPOCHS, seed=self.seed, **TRAIN))
        model.save(self.ckpt)

    def run(self, check: bool = False) -> Result:
        out = self.workdir / "explain"
        argv = ["explain", "--checkpoint", str(self.ckpt), "--data", str(self.csv),
                "--truth", str(self.mask), "--out", str(out)]
        code, seconds = _timed(cli.main, argv)
        if code != 0:
            raise RuntimeError(f"explain exited with code {code}")
        raw = (out / "report.json").read_bytes()
        report = json.loads(raw)
        result = Result({"op_s": seconds}, {"saliency_auc": report["agreement"]["rank_auc"]},
                        hashlib.sha256(raw).hexdigest())
        if check:
            result.problems = self.check(report)
        return result

    def check(self, report: dict) -> list[str]:
        problems = checks.check_saliency(report["saliency"], self.dataset.lookback)
        problems += checks.check_faithfulness(report["sufficiency"], report["comprehensiveness"])
        model, _ = model_mod.CrossScaleNet.load(self.ckpt)
        cols = self.dataset.target_columns
        x, y = self.dataset.windows("test")
        names = self.dataset.column_names
        channels = [c for c in range(len(names)) if c not in cols]
        problems += checks.check_ablation(
            [report["feature_importance"]["ablation"][names[c]] for c in channels],
            checks.reference_ablation(model, x, y, cols, channels))

        value_and_grad = explain.target_sum_grad_fn(model, cols)
        sums, gaps = [], []
        for i in (0, len(x) // 2, len(x) - 1):
            ig = explain.integrated_gradients(value_and_grad, x[i], steps=64)
            baseline = np.broadcast_to(x[i].mean(axis=0, keepdims=True), x[i].shape)
            forecasts = model.predict(np.stack([x[i], baseline]))[..., cols]
            sums.append(float(ig.sum()))
            gaps.append(float(forecasts[0].sum() - forecasts[1].sum()))
        return problems + checks.check_ig_completeness(sums, gaps)

    def figures(self, results: list[Result]) -> dict[str, tuple[float, str]]:
        op_s = _median(results, "op_s")
        return {
            "windows_per_s": (self.dataset.n_windows("test") / op_s, "windows/s"),
            "explain_s": (op_s, "s"),
            "saliency_auc": (results[0].figures["saliency_auc"], "auc"),
        }


class InferLong336:
    """Tape-free predict plus attention saliency at lookback 336, two untrained variants."""

    VARIANTS = ("cross_dual_key", "self_attention")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> None:
        _, _, _, dataset = _syn1(self.seed, 336)
        self.x, _ = dataset.windows("test")
        self.models = [
            model_mod.CrossScaleNet(
                model_mod.ModelConfig(lookback=336, n_features=dataset.n_columns, variant=v, **MODEL),
                seed=self.seed)
            for v in self.VARIANTS
        ]

    def run(self, check: bool = False) -> Result:
        predict_s = saliency_s = 0.0
        fingerprint, problems = [], []
        for model in self.models:
            forecast, seconds = _timed(model.predict, self.x)
            predict_s += seconds
            t0 = time.perf_counter()
            records = explain.collect_records(model, self.x)
            saliency = explain.aggregate_saliency(records, model.config.lookback)
            saliency_s += time.perf_counter() - t0
            if check:
                problems += checks.check_attention_rows(records)
                problems += self.check(model, forecast)
            del records  # the self-attention maps alone take about 0.5 GB
            fingerprint += [forecast.tobytes(), saliency.values.tobytes()]
        digest = hashlib.sha256(b"".join(fingerprint)).hexdigest()
        return Result({"op_s": predict_s + saliency_s, "predict_s": predict_s,
                       "saliency_s": saliency_s}, {}, digest, problems)

    def check(self, model, forecast: np.ndarray) -> list[str]:
        picks = [0, len(self.x) // 2, len(self.x) - 1]
        problems = checks.check_reference(forecast[picks], checks.reference_forecast(model, self.x[picks]))
        for i in picks:
            problems += checks.check_single_vs_batch(model.predict(self.x[i]), forecast[i])
        shift = np.random.default_rng(self.seed).normal(0.0, 3.0, size=self.x.shape[2])
        head = self.x[:64]
        problems += checks.check_shift(model.predict(head + shift), forecast[:64], shift)
        return problems

    def figures(self, results: list[Result]) -> dict[str, tuple[float, str]]:
        windows = len(self.VARIANTS) * len(self.x)
        predict_rate = windows / _median(results, "predict_s")
        return {
            "windows_per_s": (predict_rate, "windows/s"),
            "predict_windows_per_s": (predict_rate, "windows/s"),
            "saliency_windows_per_s": (windows / _median(results, "saliency_s"), "windows/s"),
        }


def _median(results: list[Result], key: str) -> float:
    return float(np.median([r.timings[key] for r in results]))


WORKLOADS = {"train-syn1": TrainSyn1, "explain-syn1": ExplainSyn1, "infer-long336": InferLong336}
