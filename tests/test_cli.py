"""End-to-end CLI runs on miniature configurations."""

import json
import warnings
import zipfile

import numpy as np
import pytest

from crossscalenet.cli import main
from crossscalenet.model import CrossScaleNet

FAST_TRAIN = ["--lookback", "32", "--horizon", "8", "--scales", "2", "--patch", "8",
              "--hidden", "8", "--epochs", "1", "--batch", "16"]


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


def test_gen_unknown_dataset_fails(tmp_path):
    with pytest.raises(SystemExit):
        run("gen", "--dataset", "SYN99", "--out", tmp_path)


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


def test_explain_lookback_mismatch_fails(gen_dir, train_dir, tmp_path):
    bad_mask = tmp_path / "bad_mask.csv"
    np.savetxt(bad_mask, np.ones((96, 7), dtype=int), fmt="%d", delimiter=",")
    with pytest.raises(SystemExit):
        run("explain", "--checkpoint", train_dir / "model.ckpt",
            "--data", gen_dir / "SYN1.csv", "--truth", bad_mask, "--out", tmp_path / "x")


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


def test_config_file_unknown_key_fails(gen_dir, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"learning_rate_typo": 1}))
    with pytest.raises(SystemExit):
        run("train", "--data", gen_dir / "SYN1.csv", *FAST_TRAIN,
            "--config", config, "--out", tmp_path / "x")


def test_flag_at_its_default_still_beats_config(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"lookback": 48}))
    assert run("gen", "--dataset", "SYN1", "--samples", "200", "--lookback", "96",
               "--config", config, "--out", tmp_path / "out") == 0
    mask = np.loadtxt(tmp_path / "out" / "SYN1_mask.csv", delimiter=",", ndmin=2)
    assert mask.shape[0] == 96
    assert json.loads((tmp_path / "out" / "resolved_config.json").read_text())["lookback"] == 96


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


def test_corrupt_checkpoint_archive_exits_2(gen_dir, train_dir, tmp_path, capsys):
    not_zip = tmp_path / "not_zip.ckpt"
    not_zip.write_bytes(b"definitely not a zip archive")
    missing = tmp_path / "missing.ckpt"
    with zipfile.ZipFile(train_dir / "model.ckpt") as src, zipfile.ZipFile(missing, "w") as dst:
        for item in src.infolist():
            if item.filename != "tensors/fusion.weight":
                dst.writestr(item, src.read(item.filename))
    for ckpt, kind in ((not_zip, "BadZipFile"), (missing, "tensors/fusion.weight")):
        assert run("explain", "--checkpoint", ckpt, "--data", gen_dir / "SYN1.csv",
                   "--out", tmp_path / "x") == 2
        line = one_error_line(capsys)
        assert ckpt.name in line and kind in line
