"""End-to-end CLI runs on miniature configurations."""

import ast
import csv
import json
import shlex
import shutil
import warnings
import zipfile
from pathlib import Path

import numpy as np
import pytest

from crossscalenet.cli import _run_names, build_parser, main, sweep
from crossscalenet.model import CrossScaleNet

FAST_TRAIN = ["--lookback", "32", "--horizon", "8", "--scales", "2", "--patch", "8",
              "--hidden", "8", "--epochs", "1", "--batch", "16"]
# FAST_TRAIN as the training flags a sweep passes to each run
FAST_FLAGS = {"lookback": 32, "horizon": 8, "scales": 2, "patch": 8, "kernel": 25, "hidden": 8,
              "lr": 1e-3, "batch": 16, "epochs": 1, "patience": 5, "no_instance_norm": False}


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def gen_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("gen")
    assert run("gen", "--dataset", "SYN1", "--samples", "400", "--seed", "42",
               "--lookback", "32", "--out", out) == 0
    return out


@pytest.fixture(scope="module")
def train_dir(tmp_path_factory, gen_dir):
    out = tmp_path_factory.mktemp("train")
    assert run("train", "--data", gen_dir / "SYN1.csv", *FAST_TRAIN,
               "--seed", "42", "--out", out) == 0
    return out


def test_gen_writes_three_files_plus_snapshot(gen_dir):
    names = {p.name for p in gen_dir.iterdir()}
    assert names == {"SYN1.csv", "SYN1.json", "SYN1_mask.csv", "resolved_config.json"}
    snapshot = json.loads((gen_dir / "resolved_config.json").read_text())
    assert snapshot["seed"] == 42
    assert snapshot["command"] == "gen"


def test_gen_rerun_is_byte_identical(gen_dir, tmp_path):
    assert run("gen", "--dataset", "SYN1", "--samples", "400", "--seed", "42",
               "--lookback", "32", "--out", tmp_path) == 0
    for name in ("SYN1.csv", "SYN1.json", "SYN1_mask.csv"):
        assert (tmp_path / name).read_bytes() == (gen_dir / name).read_bytes()


def test_gen_seed_zero_is_not_the_default_seed(gen_dir, tmp_path):
    assert run("gen", "--dataset", "SYN1", "--samples", "400", "--seed", "0",
               "--lookback", "32", "--out", tmp_path) == 0
    assert (tmp_path / "SYN1.csv").read_bytes() != (gen_dir / "SYN1.csv").read_bytes()
    assert json.loads((tmp_path / "resolved_config.json").read_text())["seed"] == 0


def test_gen_syn8_sidecar_is_union(tmp_path):
    assert run("gen", "--dataset", "SYN8", "--samples", "200", "--out", tmp_path) == 0
    sidecar = json.loads((tmp_path / "SYN8.json").read_text())
    assert set(sidecar["important_lags"]) == set(range(71, 78)) | set(range(48, 58))
    assert sidecar["important_features"] == [0, 1, 2]


def test_gen_unknown_dataset_fails(tmp_path, capsys):
    assert run("gen", "--dataset", "SYN99", "--out", tmp_path) == 2
    assert "SYN99" in one_error_line(capsys)


def test_gen_samples_zero_is_rejected_not_defaulted(tmp_path, capsys):
    # 0 is a sample count, not "unset": it reaches SynthSpec, which rejects it
    assert run("gen", "--dataset", "SYN1", "--samples", "0", "--out", tmp_path / "x") == 2
    assert "n_samples must be >= 1" in one_error_line(capsys)
    spec_file = tmp_path / "custom.json"
    spec_file.write_text(json.dumps({
        "name": "custom", "important_lags": [1, 2], "important_features": [0],
        "noise_sigma": 0.0, "n_features": 3, "n_samples": 150, "seed": 7,
    }))
    assert run("gen", "--spec", spec_file, "--samples", "0", "--out", tmp_path / "y") == 2
    assert "n_samples must be >= 1" in one_error_line(capsys)
    assert not (tmp_path / "x").exists() and not (tmp_path / "y").exists()


@pytest.mark.parametrize("argv, message", [
    (["--dataset", "SYN1", "--lookback", "10"], "lookback 10 must exceed the largest lag 15"),
    (["--dataset", "SYN5", "--samples", "50"], "n_samples 50 <= max lag 77"),
], ids=["lookback_below_lag", "too_few_samples"])
def test_gen_failure_leaves_no_out_directory(tmp_path, capsys, argv, message):
    # the first left SYN1.csv and SYN1.json behind, the second an empty directory
    assert run("gen", *argv, "--out", tmp_path / "x") == 2
    assert message in one_error_line(capsys)
    assert not (tmp_path / "x").exists()


def test_gen_custom_spec_file(tmp_path):
    spec_file = tmp_path / "custom.json"
    spec_file.write_text(json.dumps({
        "name": "custom", "important_lags": [1, 2], "important_features": [0],
        "noise_sigma": 0.0, "n_features": 3, "n_samples": 150, "seed": 7,
    }))
    out = tmp_path / "out"
    assert run("gen", "--spec", spec_file, "--lookback", "16", "--out", out) == 0
    assert (out / "custom.csv").exists()


def test_train_artifacts(train_dir):
    names = {p.name for p in train_dir.iterdir()}
    assert names == {"model.ckpt", "history.csv", "metrics.json", "resolved_config.json"}
    metrics = json.loads((train_dir / "metrics.json").read_text())
    assert set(metrics) == {"mse", "mae"}
    history = (train_dir / "history.csv").read_text().strip().splitlines()
    assert history[0] == "epoch,train_mse,val_mse"
    assert len(history) == 2  # one epoch


def test_train_builtin_dataset_by_name(tmp_path):
    # SYN5 lags reach 77, so n_samples=10000 default; use the real lookback
    out = tmp_path / "out"
    code = run("train", "--data", "SYN1", "--lookback", "96", "--horizon", "8",
               "--scales", "2", "--patch", "16", "--hidden", "8", "--epochs", "1",
               "--batch", "256", "--out", out)
    assert code == 0
    assert (out / "model.ckpt").exists()


def test_train_invalid_config_leaves_no_partial_output(gen_dir, tmp_path):
    out = tmp_path / "never"
    code = run("train", "--data", gen_dir / "SYN1.csv", "--lookback", "32",
               "--horizon", "8", "--scales", "3", "--patch", "16", "--out", out)
    assert code != 0
    assert not out.exists()


def test_train_all_variants_run(gen_dir, tmp_path):
    for variant in ("self_attention", "patch_attention", "cross_shared_key", "cross_dual_key"):
        out = tmp_path / variant
        assert run("train", "--data", gen_dir / "SYN1.csv", "--variant", variant,
                   *FAST_TRAIN, "--out", out) == 0


def test_explain_with_truth(gen_dir, train_dir, tmp_path):
    out = tmp_path / "explain"
    assert run("explain", "--checkpoint", train_dir / "model.ckpt",
               "--data", gen_dir / "SYN1.csv", "--truth", gen_dir / "SYN1_mask.csv",
               "--ig-steps", "2", "--ig-windows", "2", "--out", out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["agreement"] is not None
    assert set(report["sufficiency"]) == {"0.1", "0.2", "0.5"}

    # heatmap dimensions: width = lookback, height = feature count
    header = (out / "saliency_map.pgm").read_bytes().split(b"\n")
    assert header[0] == b"P5"
    width, height = (int(v) for v in header[1].split())
    assert (width, height) == (32, 7)


def test_explain_without_truth(gen_dir, train_dir, tmp_path):
    out = tmp_path / "explain"
    assert run("explain", "--checkpoint", train_dir / "model.ckpt",
               "--data", gen_dir / "SYN1.csv", "--ig-steps", "2", "--ig-windows", "1",
               "--ratios", "0.2,0.5", "--out", out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["agreement"] is None
    assert set(report["sufficiency"]) == {"0.2", "0.5"}


def test_explain_lookback_mismatch_fails(gen_dir, train_dir, tmp_path, capsys):
    bad_mask = tmp_path / "bad_mask.csv"
    np.savetxt(bad_mask, np.ones((96, 7), dtype=int), fmt="%d", delimiter=",")
    assert run("explain", "--checkpoint", train_dir / "model.ckpt",
               "--data", gen_dir / "SYN1.csv", "--truth", bad_mask, "--out", tmp_path / "x") == 2
    assert "lookback 96" in one_error_line(capsys)


def test_explain_column_count_mismatch_fails(train_dir, tmp_path, capsys):
    wide = tmp_path / "wide.csv"
    np.savetxt(wide, np.ones((200, 8)), delimiter=",", header=",".join("abcdefgh"), comments="")
    assert run("explain", "--checkpoint", train_dir / "model.ckpt", "--data", wide,
               "--out", tmp_path / "x") == 2
    assert "expects 7 columns, data has 8" in one_error_line(capsys)


@pytest.fixture(scope="module")
def trained_on_a(tmp_path_factory):
    """A two-column CSV (a, b) and a checkpoint trained with --target a."""
    root = tmp_path_factory.mktemp("two")
    np.savetxt(root / "ab.csv", np.random.default_rng(3).standard_normal((160, 2)),
               delimiter=",", header="a,b", comments="")
    assert run("train", "--data", root / "ab.csv", "--target", "a", *FAST_TRAIN, "--out", root) == 0
    return root / "ab.csv", root / "model.ckpt"


def test_explain_scores_the_column_the_model_was_trained_on(trained_on_a, tmp_path):
    data, ckpt = trained_on_a
    assert CrossScaleNet.load(ckpt)[1]["target_columns"] == [0]
    assert run("explain", "--checkpoint", ckpt, "--data", data,
               "--ig-steps", "2", "--ig-windows", "1", "--out", tmp_path) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    # the target is scored, so only the other column is an input feature
    assert set(report["feature_importance"]["ablation"]) == {"b"}
    assert set(report["feature_importance"]["integrated_gradients"]) == {"b"}


def test_explain_target_other_than_the_trained_one_fails(trained_on_a, tmp_path, capsys):
    data, ckpt = trained_on_a
    assert run("explain", "--checkpoint", ckpt, "--data", data, "--target", "b",
               "--out", tmp_path / "x") == 2
    assert "target columns [0]" in one_error_line(capsys)
    assert not (tmp_path / "x").exists()


@pytest.fixture(scope="module")
def syn1_on_feat_0(tmp_path_factory):
    """A checkpoint trained on the builtin SYN1 with --target feat_0."""
    out = tmp_path_factory.mktemp("syn1_feat_0")
    assert run("train", "--data", "SYN1", "--target", "feat_0", *FAST_TRAIN,
               "--batch", "256", "--out", out) == 0
    return out / "model.ckpt"


def test_builtin_dataset_trains_on_the_named_target(syn1_on_feat_0):
    assert CrossScaleNet.load(syn1_on_feat_0)[1]["target_columns"] == [0]


def test_explain_builtin_scores_the_named_target(syn1_on_feat_0, tmp_path):
    assert run("explain", "--checkpoint", syn1_on_feat_0, "--data", "SYN1",
               "--ig-steps", "2", "--ig-windows", "1", "--out", tmp_path) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    scored = set(report["feature_importance"]["ablation"])
    assert "feat_0" not in scored and "target" in scored


def test_builtin_dataset_unknown_target_exits_2(tmp_path, capsys):
    assert run("train", "--data", "SYN1", "--target", "nosuchcol", *FAST_TRAIN,
               "--out", tmp_path / "x") == 2
    assert "'nosuchcol' not in header" in one_error_line(capsys)
    assert not (tmp_path / "x").exists()


def test_ablation_sweep(gen_dir, tmp_path):
    out = tmp_path / "sweep"
    code = run("ablation", "--datasets", "SYN1", "--variants", "self_attention,cross_dual_key",
               "--seeds", "11", *FAST_TRAIN, "--out", out)
    assert code == 0
    rows = (out / "ablation.csv").read_text().strip().splitlines()
    assert rows[0] == "dataset,variant,mse,mae,n_seeds"
    assert len(rows) == 3  # 1 dataset x 2 variants
    table = (out / "ablation.md").read_text()
    assert "| Dataset | Variant | MSE | MAE |" in table
    assert (out / "runs" / "SYN1_self_attention_11" / "model.ckpt").exists()

    # builtin datasets resolve by name inside the sweep, so reruns reproduce
    out2 = tmp_path / "sweep2"
    assert run("ablation", "--datasets", "SYN1", "--variants", "self_attention,cross_dual_key",
               "--seeds", "11", *FAST_TRAIN, "--out", out2) == 0
    assert (out2 / "ablation.csv").read_bytes() == (out / "ablation.csv").read_bytes()


@pytest.mark.parametrize("flag, value, message", [
    ("--seeds", "1,x", "--seeds: cannot read 'x' as an integer"),
    ("--variants", "self_attention,foo", "--variants: cannot read 'foo' as a variant, one of "),
    ("--datasets", "SYN1,nosuch.csv",
     "--datasets: cannot read 'nosuch.csv' as a dataset, one of SYN1, SYN2, "),
    ("--seeds", "11,12,011", "--seeds: '011' repeats an earlier item"),
    ("--variants", "self_attention,self_attention", "--variants: 'self_attention' repeats an earlier item"),
    ("--datasets", "SYN1,SYN5,SYN1", "--datasets: 'SYN1' repeats an earlier item"),
], ids=["seed", "variant", "dataset", "repeated_seed", "repeated_variant", "repeated_dataset"])
def test_ablation_bad_list_item_fails_before_any_work(tmp_path, capsys, flag, value, message):
    # a bad seed gave int()'s bare message; a bad variant or a missing
    # dataset file trained the good ones, printed a traceback per bad run
    # and exited 1; a repeated item trained the same run directory twice
    assert run("ablation", flag, value, *FAST_TRAIN, "--out", tmp_path / "x") == 2
    assert message in one_error_line(capsys)
    assert not (tmp_path / "x").exists()


def test_ablation_run_failure_goes_to_failures_json(tmp_path):
    out = tmp_path / "sweep"
    assert run("ablation", "--variants", "self_attention", "--seeds", "11", *FAST_TRAIN,
               "--lr", "1e200", "--out", out) == 1
    (failure,) = json.loads((out / "failures.json").read_text())
    assert failure["variant"] == "self_attention" and failure["seed"] == 11
    assert failure["error"].startswith("TrainingDiverged")
    assert not (out / "runs" / "SYN1_self_attention_11").exists()
    # a clean rerun into the same --out left the diverged entry in failures.json
    assert run("ablation", "--variants", "self_attention", "--seeds", "11", *FAST_TRAIN,
               "--out", out) == 0
    assert json.loads((out / "failures.json").read_text()) == []


def test_sweep_returns_a_row_per_run_that_the_ablation_table_averages(tmp_path):
    variants, seeds = ("self_attention", "cross_dual_key"), (11, 12)
    rows = sweep(("SYN1",), variants, seeds, FAST_FLAGS, tmp_path / "lib")
    assert [(r["dataset"], r["variant"], r["seed"]) for r in rows] == [
        ("SYN1", "self_attention", 11), ("SYN1", "self_attention", 12),
        ("SYN1", "cross_dual_key", 11), ("SYN1", "cross_dual_key", 12)]
    for row in rows:
        metrics = json.loads((tmp_path / "lib" / "runs" / f"SYN1_{row['variant']}_{row['seed']}"
                              / "metrics.json").read_text())
        assert row == {"dataset": "SYN1", "variant": row["variant"], "seed": row["seed"], **metrics}

    with np.errstate(over="ignore", invalid="ignore"):
        diverged = sweep(("SYN1",), ("self_attention",), seeds, {**FAST_FLAGS, "lr": 1e200},
                         tmp_path / "diverged")
    assert [(r["dataset"], r["variant"], r["seed"], sorted(r)) for r in diverged] == [
        ("SYN1", "self_attention", seed, ["dataset", "error", "seed", "variant"]) for seed in seeds]
    assert all(r["error"].startswith("TrainingDiverged: numeric blowup") for r in diverged)
    assert not (tmp_path / "diverged").exists()

    # each ablation.csv mean is the mean of its group's per-run metrics.json
    out = tmp_path / "cli"
    assert run("ablation", "--variants", ",".join(variants), "--seeds", "11,12", *FAST_TRAIN,
               "--out", out) == 0
    with open(out / "ablation.csv", newline="") as fh:
        table = list(csv.DictReader(fh))
    assert [(t["dataset"], t["variant"], t["n_seeds"]) for t in table] == [
        ("SYN1", variant, "2") for variant in variants]
    for t in table:
        runs = [json.loads((out / "runs" / f"SYN1_{t['variant']}_{seed}" / "metrics.json").read_text())
                for seed in seeds]
        for key in ("mse", "mae"):
            assert float(t[key]) == float(np.mean([r[key] for r in runs]))


def test_ablation_has_no_seed_flag_or_key(tmp_path, capsys):
    # every run takes its seed from --seeds; a lone --seed was only recorded
    with pytest.raises(SystemExit) as exc:
        run("ablation", "--seed", "5", *FAST_TRAIN, "--out", tmp_path / "x")
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"seed": 5}))
    assert run("ablation", *FAST_TRAIN, "--config", config, "--out", tmp_path / "x") == 2
    assert "unknown config key 'seed'" in one_error_line(capsys)
    assert not (tmp_path / "x").exists()


def _sweep_one(items, out):
    return run("ablation", "--datasets", ",".join(items), "--variants", "self_attention",
               "--seeds", "11", *FAST_TRAIN, "--out", out)


def _swept_items(out) -> list:
    with open(out / "ablation.csv", newline="") as fh:
        return [row["dataset"] for row in csv.DictReader(fh)]


@pytest.mark.parametrize("form", ["absolute", "relative"])
def test_ablation_writes_only_under_out(gen_dir, tmp_path, monkeypatch, form):
    # a run directory was out/runs/<item>_<variant>_<seed>: an absolute CSV
    # path replaced the whole path, and two ../ climbed out of --out
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    shutil.copy(gen_dir / "SYN1.csv", data_dir / "SYN1.csv")
    work = tmp_path / "a" / "b"
    work.mkdir(parents=True)
    monkeypatch.chdir(work)
    item = str(data_dir / "SYN1.csv") if form == "absolute" else "../../data/SYN1.csv"
    out = work / "sweep"
    before = set(tmp_path.rglob("*"))
    assert _sweep_one([item], out) == 0
    written = set(tmp_path.rglob("*")) - before
    assert written and all(path.is_relative_to(out) for path in written), sorted(written)
    assert [p.name for p in data_dir.iterdir()] == ["SYN1.csv"]
    assert (out / "runs" / "SYN1_self_attention_11" / "model.ckpt").exists()
    assert _swept_items(out) == [item]


def test_ablation_csvs_that_share_a_stem_get_their_own_run_directories(gen_dir, tmp_path):
    items = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        items.append(str(shutil.copy(gen_dir / "SYN1.csv", tmp_path / sub / "SYN1.csv")))
    out = tmp_path / "sweep"
    assert _sweep_one(items, out) == 0
    runs = sorted(p.name for p in (out / "runs").iterdir())
    assert runs == ["SYN1-2_self_attention_11", "SYN1_self_attention_11"]
    assert _swept_items(out) == items


def test_run_names_take_the_first_free_suffix():
    items = ("SYN1", "SYN1", "x/SYN1.csv", "/y/SYN1-2.csv", "z/SYN2.csv")
    assert _run_names(items) == ["SYN1", "SYN1-2", "SYN1-3", "SYN1-2-2", "SYN2"]


def test_config_file_merge_flags_win(gen_dir, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"epochs": 1, "hidden": 8, "out": str(tmp_path / "from_file")}))
    out = tmp_path / "from_flag"
    assert run("train", "--data", gen_dir / "SYN1.csv", "--lookback", "32", "--horizon", "8",
               "--scales", "2", "--patch", "8", "--batch", "16",
               "--config", config, "--out", out) == 0
    assert out.exists()
    assert not (tmp_path / "from_file").exists()  # flag overrode the file value
    snapshot = json.loads((out / "resolved_config.json").read_text())
    assert snapshot["epochs"] == 1  # file value applied where the flag was default
    assert snapshot["hidden"] == 8


def test_config_file_unknown_key_fails(gen_dir, tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"learning_rate_typo": 1}))
    assert run("train", "--data", gen_dir / "SYN1.csv", *FAST_TRAIN,
               "--config", config, "--out", tmp_path / "x") == 2
    assert "learning_rate_typo" in one_error_line(capsys)


def test_flag_at_its_default_still_beats_config(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"lookback": 48}))
    assert run("gen", "--dataset", "SYN1", "--samples", "200", "--lookback", "96",
               "--config", config, "--out", tmp_path / "out") == 0
    mask = np.loadtxt(tmp_path / "out" / "SYN1_mask.csv", delimiter=",", ndmin=2)
    assert mask.shape[0] == 96
    assert json.loads((tmp_path / "out" / "resolved_config.json").read_text())["lookback"] == 96


def test_explain_config_file(gen_dir, train_dir, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"ratios": "0.2", "ig_windows": 2}))
    out = tmp_path / "explain"
    assert run("explain", "--checkpoint", train_dir / "model.ckpt", "--data", gen_dir / "SYN1.csv",
               "--ig-steps", "2", "--config", config, "--out", out) == 0
    assert set(json.loads((out / "report.json").read_text())["sufficiency"]) == {"0.2"}
    snapshot = json.loads((out / "resolved_config.json").read_text())
    assert (snapshot["ratios"], snapshot["ig_windows"], snapshot["ig_steps"]) == ("0.2", 2, 2)


def test_ablation_config_file(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"seeds": "11", "variants": "self_attention"}))
    out = tmp_path / "sweep"
    assert run("ablation", *FAST_TRAIN, "--config", config, "--out", out) == 0
    rows = (out / "ablation.csv").read_text().strip().splitlines()
    assert len(rows) == 2 and rows[1].startswith("SYN1,self_attention,")
    assert (out / "runs" / "SYN1_self_attention_11" / "model.ckpt").exists()


def test_config_defaults_do_not_carry_over_between_calls(tmp_path):
    # each call's config file sets its own defaults; the second call has none
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"lookback": 48, "seed": 7}))
    assert run("gen", "--samples", "200", "--config", config, "--out", tmp_path / "a") == 0
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"seed": 3}))
    assert run("gen", "--samples", "200", "--config", other, "--out", tmp_path / "b") == 0
    assert run("gen", "--samples", "200", "--out", tmp_path / "c") == 0
    read = [json.loads((tmp_path / d / "resolved_config.json").read_text()) for d in "abc"]
    assert [(r["lookback"], r["seed"]) for r in read] == [(48, 7), (96, 3), (96, 42)]


def one_error_line(capsys) -> str:
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return lines[0]


def test_nan_cell_fails_at_the_csv_boundary(gen_dir, tmp_path, capsys):
    rows = (gen_dir / "SYN1.csv").read_text().splitlines()
    header = rows[0].split(",")
    cells = rows[5].split(",")
    cells[2] = "nan"
    rows[5] = ",".join(cells)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(rows) + "\n")
    assert run("train", "--data", bad, *FAST_TRAIN, "--out", tmp_path / "x") == 2
    line = one_error_line(capsys)
    assert "bad.csv" in line and "data row 5" in line and repr(header[2]) in line
    assert not (tmp_path / "x").exists()


def test_diverged_training_exits_2(gen_dir, tmp_path, capsys):
    assert run("train", "--data", gen_dir / "SYN1.csv", *FAST_TRAIN, "--lr", "1e200",
               "--out", tmp_path / "x") == 2
    line = one_error_line(capsys)
    assert "epoch 0" in line and "lr=1e+200" in line


@pytest.mark.parametrize("rate", ["nan", "inf", "0"])
def test_non_finite_or_zero_learning_rate_exits_2_before_training(gen_dir, tmp_path, capsys, rate):
    # --lr nan used to train a batch, then report a numeric blowup in matmul
    assert run("train", "--data", gen_dir / "SYN1.csv", *FAST_TRAIN, "--lr", rate,
               "--out", tmp_path / "x") == 2
    assert "learning_rate must be finite and > 0" in one_error_line(capsys)
    assert not (tmp_path / "x").exists()


def test_diverged_training_leaves_no_out_directory(gen_dir, tmp_path, capsys):
    # the directory used to be made before training, so it was left empty
    assert run("train", "--data", gen_dir / "SYN1.csv", *FAST_TRAIN, "--lr", "1e200",
               "--out", tmp_path / "x") == 2
    assert "lr=1e+200" in one_error_line(capsys)
    assert not (tmp_path / "x").exists()


def test_diverged_training_prints_no_numpy_warning(gen_dir, tmp_path, capsys):
    # warnings as errors: a numpy RuntimeWarning would escape main as a traceback
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("train", "--data", gen_dir / "SYN1.csv", *FAST_TRAIN, "--lr", "1e200",
                   "--out", tmp_path / "x") == 2
    assert "lr=1e+200" in one_error_line(capsys)


def test_non_finite_checkpoint_weights_exit_2(gen_dir, train_dir, tmp_path, capsys):
    model, extra = CrossScaleNet.load(train_dir / "model.ckpt")
    model.params.fusion_weight.data[0, 0] = np.inf
    model.save(tmp_path / "inf.ckpt", extra=extra)
    assert run("explain", "--checkpoint", tmp_path / "inf.ckpt", "--data", gen_dir / "SYN1.csv",
               "--ig-steps", "2", "--ig-windows", "1", "--out", tmp_path / "x") == 2
    assert "non-finite" in one_error_line(capsys)


@pytest.mark.parametrize("windows", ["0", "-1"])
def test_explain_rejects_fewer_than_one_ig_window(gen_dir, train_dir, tmp_path, capsys, windows):
    # 0 windows used to divide by zero and write NaN into report.json
    assert run("explain", "--checkpoint", train_dir / "model.ckpt", "--data", gen_dir / "SYN1.csv",
               "--ig-steps", "2", "--ig-windows", windows, "--out", tmp_path / "x") == 2
    assert f"n_windows must be >= 1, got {windows}" in one_error_line(capsys)
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--ratios", "0.1,1.5", "ratio must be in (0, 1], got 1.5"),
    ("--ig-steps", "0", "steps must be >= 1, got 0"),
    ("--ratios", "0.1,0.10", "--ratios: '0.10' repeats an earlier item"),
], ids=["ratio", "ig_steps", "repeated_ratio"])
def test_explain_rejects_bad_arguments_before_it_works(gen_dir, train_dir, tmp_path, capsys,
                                                        flag, value, message):
    # a bad ratio used to fail only after the battery had run, and both
    # runs left an empty --out directory behind; a repeated ratio was
    # reported once
    args = {"--ig-steps": "2", "--ig-windows": "1", flag: value}
    assert run("explain", "--checkpoint", train_dir / "model.ckpt", "--data", gen_dir / "SYN1.csv",
               *[s for pair in args.items() for s in pair], "--out", tmp_path / "x") == 2
    assert message in one_error_line(capsys)
    assert not (tmp_path / "x").exists()


def test_bad_ratio_item_fails_before_the_checkpoint_loads(gen_dir, tmp_path, capsys):
    # a non-number used to surface as a bare float() error, after the
    # checkpoint was loaded and the data windowed
    assert run("explain", "--checkpoint", tmp_path / "no_such.ckpt", "--data", gen_dir / "SYN1.csv",
               "--ratios", "0.1,abc", "--out", tmp_path / "x") == 2
    assert "--ratios: cannot read 'abc' as a number" in one_error_line(capsys)
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("text, message", [
    ("0,0,1\n0,1,x\n", "row 2, column 3: expected 0 or 1, got 'x'"),
    ("0,0,1\n0,1\n", "row 2 has 2 columns, the rows before it 3"),
    ("", "mask file has no rows"),
], ids=["bad_cell", "ragged", "empty"])
def test_bad_mask_fails_at_the_boundary(gen_dir, train_dir, tmp_path, capsys, text, message):
    # a bad cell or a ragged row used to give numpy's message without the
    # file; an empty file printed numpy's warning and then blamed a
    # lookback mismatch
    mask = tmp_path / "mask.csv"
    mask.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("explain", "--checkpoint", train_dir / "model.ckpt", "--data", gen_dir / "SYN1.csv",
                   "--truth", mask, "--out", tmp_path / "x") == 2
    assert f"mask.csv: {message}" in one_error_line(capsys)
    assert not (tmp_path / "x").exists()


def test_corrupt_checkpoint_archive_exits_2(gen_dir, train_dir, tmp_path, capsys):
    not_zip = tmp_path / "not_zip.ckpt"
    not_zip.write_bytes(b"definitely not a zip archive")
    missing = tmp_path / "missing.ckpt"
    with zipfile.ZipFile(train_dir / "model.ckpt") as src, zipfile.ZipFile(missing, "w") as dst:
        for item in src.infolist():
            if item.filename != "tensors/fusion.weight":
                dst.writestr(item, src.read(item.filename))
    cases = [(not_zip, "BadZipFile"), (missing, "tensors/fusion.weight")]

    # a malformed config.json used to end in a TypeError or AttributeError
    # traceback, or in an error line that did not name the checkpoint
    with zipfile.ZipFile(train_dir / "model.ckpt") as zf:
        header = json.loads(zf.read("config.json"))
    model = header["model"]
    bad_headers = {
        "extra_key": ({**header, "model": {**model, "depth": 2}}, "model keys"),
        "missing_key": ({**header, "model": {k: v for k, v in model.items() if k != "patch_len"}},
                        "model keys"),
        "string_lookback": ({**header, "model": {**model, "lookback": "32"}},
                            "model key 'lookback': expected int, got \"32\""),
        "tensors_list": ({**header, "tensors": []}, "expected an object with the objects"),
        "bad_variant": ({**header, "model": {**model, "variant": "nope"}}, "unknown variant 'nope'"),
        "invalid_json": ("{not json", "Expecting property name"),
    }
    for name, (content, kind) in bad_headers.items():
        ckpt = tmp_path / f"{name}.ckpt"
        with zipfile.ZipFile(train_dir / "model.ckpt") as src, zipfile.ZipFile(ckpt, "w") as dst:
            for item in src.infolist():
                payload = src.read(item.filename)
                if item.filename == "config.json":
                    payload = content if isinstance(content, str) else json.dumps(content)
                dst.writestr(item, payload)
        cases.append((ckpt, kind))

    for ckpt, kind in cases:
        assert run("explain", "--checkpoint", ckpt, "--data", gen_dir / "SYN1.csv",
                   "--out", tmp_path / "x") == 2
        line = one_error_line(capsys)
        assert ckpt.name in line and kind in line


@pytest.mark.parametrize("text, message", [
    ("", "no header row"),
    ("a,b\n", "no data rows after the header"),
], ids=["empty", "header_only"])
def test_csv_without_rows_fails_at_the_boundary(tmp_path, capsys, text, message):
    # an empty file raised StopIteration; a header-only one printed numpy's
    # warning and then blamed a column-count mismatch
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("train", "--data", bad, *FAST_TRAIN, "--out", tmp_path / "x") == 2
    line = one_error_line(capsys)
    assert "bad.csv" in line and message in line


def test_non_numeric_cell_fails_at_the_csv_boundary(gen_dir, tmp_path, capsys):
    # named as a NaN cell is: file, 1-based data row, column name
    rows = (gen_dir / "SYN1.csv").read_text().splitlines()
    header = rows[0].split(",")
    cells = rows[5].split(",")
    cells[2] = "x"
    rows[5] = ",".join(cells)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(rows) + "\n")
    assert run("train", "--data", bad, *FAST_TRAIN, "--out", tmp_path / "x") == 2
    line = one_error_line(capsys)
    assert "bad.csv: non-numeric value 'x' in data row 5" in line and repr(header[2]) in line


@pytest.mark.parametrize("command", ["train", "explain"])
def test_a_directory_where_a_file_belongs_exits_2(gen_dir, train_dir, tmp_path, capsys, command):
    # each ended in an IsADirectoryError traceback
    argv = {"train": ["--data", tmp_path],
            "explain": ["--checkpoint", tmp_path, "--data", gen_dir / "SYN1.csv"]}[command]
    assert run(command, *argv, "--out", tmp_path / "x") == 2
    assert str(tmp_path) in one_error_line(capsys)


@pytest.mark.parametrize("flag, content, message", [
    ("--config", [1, 2], "expected a JSON object, got list"),
    ("--config", {"lookback": "abc"}, "key 'lookback': expected int, got \"abc\""),
    ("--spec", [1, 2], "expected a JSON object, got list"),
    ("--spec", {"name": "c", "important_features": [0], "noise_sigma": 0.0, "n_features": 3,
                "n_samples": 150}, "missing key 'important_lags'"),
], ids=["config_list", "config_type", "spec_list", "spec_missing_key"])
def test_malformed_json_file_exits_2_naming_file_and_key(tmp_path, capsys, flag, content, message):
    path = tmp_path / "file.json"
    path.write_text(json.dumps(content))
    assert run("gen", flag, path, "--samples", "200", "--out", tmp_path / "x") == 2
    assert f"file.json: {message}" in one_error_line(capsys)
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("key, value, message", [
    ("important_lags", "15", "key 'important_lags': expected a list of integers, got \"15\""),
    ("n_samples", 400.9, "key 'n_samples': expected an integer, got 400.9"),
    ("seed", True, "key 'seed': expected an integer, got true"),
    ("lag_typo", [3], "unknown key 'lag_typo'"),
    ("name", 5, "key 'name': expected a string, got 5"),
    ("noise_sigma", True, "key 'noise_sigma': expected a finite number, got true"),
    ("noise_sigma", float("nan"), "key 'noise_sigma': expected a finite number, got NaN"),
], ids=["lags_string", "samples_float", "seed_bool", "unknown_key", "name_number", "sigma_bool",
        "sigma_nan"])
def test_spec_file_reads_each_field_exactly(tmp_path, capsys, key, value, message):
    # each was coerced (lags "15" read as [1, 5], 400.9 as 400, true as 1),
    # or, for an unknown key, ignored; a NaN sigma gave noiseless data and
    # a sidecar that is not valid JSON
    spec = {"name": "c", "important_lags": [1, 2], "important_features": [0],
            "noise_sigma": 0.0, "n_features": 3, "n_samples": 150, "seed": 7}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**spec, key: value}))
    assert run("gen", "--spec", path, "--lookback", "16", "--out", tmp_path / "x") == 2
    assert f"spec.json: {message}" in one_error_line(capsys)
    assert not (tmp_path / "x").exists()


def test_readme_cli_examples_parse():
    # a flag the README documents but the parser lost fails here, and so
    # does a name the library sketch imports that was renamed or unexported
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sketch = readme.split("\n## Library sketch\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    imports = [node for node in ast.parse(sketch).body if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports
    exec(compile(ast.Module(body=imports, type_ignores=[]), "README.md", "exec"), {})
    block = readme.split("\n## CLI\n", 1)[1].split("```", 2)[1]
    commands = [line for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("crossscalenet ")]
    parsed = []
    for command in commands:
        try:
            parsed.append(build_parser().parse_args(shlex.split(command)[1:]).command)
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")
    assert parsed == ["gen", "train", "explain", "ablation"]


def test_config_values_are_read_as_their_flags_read_them(gen_dir, tmp_path):
    # an index target and a null seed keep working; a number is a string
    # flag's text, as on the command line
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"target": 3, "seed": None, "lr": "0.01", "no_instance_norm": True}))
    out = tmp_path / "out"
    assert run("train", "--data", gen_dir / "SYN1.csv", *FAST_TRAIN, "--config", config, "--out", out) == 0
    snapshot = json.loads((out / "resolved_config.json").read_text())
    read = (snapshot["target"], snapshot["seed"], snapshot["lr"], snapshot["no_instance_norm"])
    assert read == ("3", 42, 0.01, True)
    assert CrossScaleNet.load(out / "model.ckpt")[1]["target_columns"] == [3]
