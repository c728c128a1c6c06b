"""End-to-end command-line workflows in temporary directories.

Each test drives ``pmtl.cli.main`` in process with an argv list; stdout
is the JSON summary the real CLI would print.
"""

import json
import math
import re
import subprocess
import sys
from dataclasses import asdict, replace

import numpy as np
import pytest

import pmtl.cli
import pmtl.model
import pmtl.train
from pmtl.checkpoint import load_checkpoint, save_checkpoint
from pmtl.cli import main, score_files
from pmtl.data import (
    FeatureTable,
    LabelTable,
    SynthSpec,
    load_features,
    load_labels_csv,
    load_predictions_csv,
    save_features_binary,
    save_features_csv,
    save_labels_csv,
    save_predictions_csv,
    synth_tables,
)
from pmtl.model import ModelConfig, init_params, param_shapes
from pmtl.rng import RngStream, derive_subseed

TRAIN_CONFIG = {
    "model": {"shared_dims": [12, 6], "age_head_dims": [6, 3],
              "emotion_hidden": 6, "country_hidden": 6},
    "seed": 5,
    "batch_size": 8,
    "max_epochs": 2,
    "patience": 2,
    "standardize": "zscore",
}

SYNTH_CONFIG = {"n_train": 120, "n_val": 48, "dim": 16, "rank": 4, "seed": 17}


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_json(out):
    return json.loads(out.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic data + one finished training run, shared by the module."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    (root / "train_config.json").write_text(json.dumps(TRAIN_CONFIG))
    (root / "synth_config.json").write_text(json.dumps(SYNTH_CONFIG))
    code = main(["synth", "--config", str(root / "synth_config.json"),
                 "--out", str(data), "--format", "both"])
    assert code == 0

    # a labels file restricted to the val split, for score round-trips
    labels = load_labels_csv(data / "labels.csv")
    keep = [i for i, sid in enumerate(labels.ids) if sid.startswith("val_")]
    val_labels = LabelTable(
        ids=tuple(labels.ids[i] for i in keep),
        emotion=labels.emotion[keep],
        age=labels.age[keep],
        country=labels.country[keep],
    )
    save_labels_csv(val_labels, data / "val_labels.csv")

    out = root / "run"
    code = main(["train",
                 "--train-features", str(data / "train_features.csv"),
                 "--val-features", str(data / "val_features.csv"),
                 "--labels", str(data / "labels.csv"),
                 "--config", str(root / "train_config.json"),
                 "--out", str(out)])
    assert code == 0
    return root


def data_args(workspace):
    data = workspace / "data"
    return ["--train-features", str(data / "train_features.csv"),
            "--val-features", str(data / "val_features.csv"),
            "--labels", str(data / "labels.csv")]


# -- synth ------------------------------------------------------------------


def test_synth_outputs(workspace, capsys):
    data = workspace / "data"
    for name in ("train_features.csv", "train_features.bin",
                 "val_features.csv", "val_features.bin",
                 "labels.csv", "synth.json"):
        assert (data / name).exists(), name
    echoed = json.loads((data / "synth.json").read_text())
    assert SynthSpec(**echoed) == SynthSpec(**SYNTH_CONFIG)


def test_synth_seed_override(tmp_path, capsys):
    base = dict(SYNTH_CONFIG, n_train=30, n_val=12)
    cfg = tmp_path / "s.json"
    cfg.write_text(json.dumps(base))
    code, out, _ = run(capsys, ["synth", "--config", str(cfg), "--seed", "99",
                                "--out", str(tmp_path / "d")])
    assert code == 0
    echoed = json.loads((tmp_path / "d" / "synth.json").read_text())
    assert echoed["seed"] == 99


@pytest.mark.parametrize("config,fragment", [
    ({"n_train": 10.5, "n_val": 5}, "n_train must be an integer, got 10.5"),
    ({"dim": True, "rank": 1, "n_train": 10, "n_val": 5}, "dim must be an integer, got True"),
    ({"seed": 1.5}, "seed must be an integer, got 1.5"),
], ids=["fractional-count", "bool-dim", "fractional-seed"])
def test_bad_synth_value_exits_1(tmp_path, capsys, config, fragment):
    cfg = tmp_path / "s.json"
    cfg.write_text(json.dumps(config))
    code, _, err = run(capsys, ["synth", "--config", str(cfg), "--out", str(tmp_path / "d")])
    assert code == 1
    assert err.startswith("pmtl: error:")
    assert fragment in err
    assert "Traceback" not in err
    assert not (tmp_path / "d").exists()


# -- train ------------------------------------------------------------------


def test_train_artifacts(workspace, tmp_path, capsys, monkeypatch):
    returned = []

    def recorded(*args):
        returned.append(pmtl.train.train_run(*args))
        return returned[-1]
    monkeypatch.setattr(pmtl.cli, "train_run", recorded)
    out = tmp_path / "run"
    code, _, err = run(capsys, ["train", *data_args(workspace), "--out", str(out),
                                "--config", str(workspace / "train_config.json")])
    assert code == 0, err
    assert (out / "checkpoint.pmck").exists()
    history = json.loads((out / "history.json").read_text())
    assert set(history) == {"run", "wall_seconds"}
    # the run record is the returned history as it stands, with no clock in it
    [(_, returned_history)] = returned
    assert (json.dumps(history["run"], sort_keys=True)
            == json.dumps(asdict(returned_history), sort_keys=True))
    assert history["wall_seconds"] > 0.0
    assert history["run"]["best_epoch"] >= 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["standardize"] == "zscore"
    assert manifest["epochs_run"] == len(history["run"]["epochs"])
    for entry in manifest["inputs"].values():
        assert len(entry["sha256"]) == 64


@pytest.mark.parametrize("mode,code", [("zscore", 2), ("none", 3), ("minmax", 0)])
def test_train_on_a_column_whose_spread_overflows(tmp_path, capsys, mode, code):
    # 1e300 in three rows of f0: the z-score spread overflows to inf, which would
    # scale the column to zeros; unscaled values overflow in training; the minmax
    # range stays finite. pytest raises any warning, so stderr holds only
    # the error line.
    features, labels = synth_tables(SynthSpec(n_train=40, n_val=12, dim=6, rank=2))
    x = features["train"].features.copy()
    x[:3, 0] = 1e300
    save_features_csv(FeatureTable(features["train"].ids, x), tmp_path / "train.csv")
    save_features_csv(features["val"], tmp_path / "val.csv")
    save_labels_csv(labels, tmp_path / "labels.csv")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(TRAIN_CONFIG, standardize=mode)))
    got, _, err = run(capsys, [
        "train", "--train-features", str(tmp_path / "train.csv"),
        "--val-features", str(tmp_path / "val.csv"), "--labels", str(tmp_path / "labels.csv"),
        "--config", str(config), "--out", str(tmp_path / "run")])
    assert got == code, err
    assert err == {
        "zscore": "pmtl: error: feature f0: values overflow the zscore fit\n",
        "none": "pmtl: error: epoch 1: overflow encountered in multiply\n",
        "minmax": "",
    }[mode]


def _files_with_a_huge_value(tmp_path, train_scale):
    """train.csv with column f2 multiplied by ``train_scale``, val.csv,
    labels.csv, and huge.csv: the val rows with 1.7e308 in f2 of one row."""
    features, labels = synth_tables(SynthSpec(n_train=40, n_val=12, dim=6, rank=2))
    x = features["train"].features.copy()
    x[:, 2] *= train_scale
    save_features_csv(FeatureTable(features["train"].ids, x), tmp_path / "train.csv")
    save_features_csv(features["val"], tmp_path / "val.csv")
    x = features["val"].features.copy()
    x[4, 2] = 1.7e308
    save_features_csv(FeatureTable(features["val"].ids, x), tmp_path / "huge.csv")
    save_labels_csv(labels, tmp_path / "labels.csv")
    return [str(tmp_path / name) for name in ("train.csv", "val.csv", "labels.csv", "huge.csv")]


def test_train_when_standardizing_val_overflows(tmp_path, capsys):
    # f2's train spread is about 1e-3, so 1.7e308 in a val row overflows its
    # z-score; pytest raises any warning, so stderr holds only the error
    train, _, labels, huge = _files_with_a_huge_value(tmp_path, 1e-3)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TRAIN_CONFIG))
    got, _, err = run(capsys, ["train", "--train-features", train, "--val-features", huge,
                               "--labels", labels, "--config", str(config),
                               "--out", str(tmp_path / "run")])
    assert (got, err) == (2, "pmtl: error: feature f2: values overflow the zscore "
                             "standardization\n")


@pytest.mark.parametrize("mode,train_scale,fault", [
    ("zscore", 1e-3, "feature f2: values overflow the zscore standardization"),
    ("minmax", 1.0, "overflow encountered in "),  # standardized, then overflows in predict
])
def test_eval_on_a_value_that_overflows_exits_2(tmp_path, capsys, mode, train_scale, fault):
    train, val, labels, huge = _files_with_a_huge_value(tmp_path, train_scale)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(TRAIN_CONFIG, standardize=mode)))
    assert main(["train", "--train-features", train, "--val-features", val, "--labels", labels,
                 "--config", str(config), "--out", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    got, out, err = run(capsys, ["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.pmck"),
                                 "--features", huge, "--labels", labels])
    assert (got, out) == (2, "")
    assert err.startswith(f"pmtl: error: {huge}: {fault}") and err.count("\n") == 1, err


def test_train_on_val_features_that_overflow_the_untrained_model_exits_2(tmp_path, capsys):
    # minmax over f2's train range leaves 1.7e308 huge, and it overflows the first
    # validation pass; the parameters are fresh from init there, so the data is at fault
    train, _, labels, huge = _files_with_a_huge_value(tmp_path, 1.0)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(TRAIN_CONFIG, standardize="minmax")))
    got, out, err = run(capsys, ["train", "--train-features", train, "--val-features", huge,
                                 "--labels", labels, "--config", str(config),
                                 "--out", str(tmp_path / "run")])
    assert (got, out) == (2, "")
    assert err.startswith("pmtl: error: epoch 0: overflow encountered in ")
    assert err.count("\n") == 1, err


def test_train_on_an_empty_train_split_exits_2_with_one_line(workspace, tmp_path):
    # a fresh process, whose default warning filters would print any RuntimeWarning
    data = workspace / "data"
    empty = tmp_path / "empty.csv"
    empty.write_text((data / "train_features.csv").read_text().splitlines(keepends=True)[0])
    result = subprocess.run(
        [sys.executable, "-m", "pmtl", "train", "--train-features", str(empty),
         "--val-features", str(data / "val_features.csv"), "--labels", str(data / "labels.csv"),
         "--out", str(tmp_path / "run")], capture_output=True, text=True)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == "pmtl: error: empty train split\n"


def test_train_deterministic_artifacts(workspace, capsys):
    args = ["train", *data_args(workspace),
            "--config", str(workspace / "train_config.json")]
    code_a, out_a, _ = run(capsys, args + ["--out", str(workspace / "rerun_a")])
    code_b, out_b, _ = run(capsys, args + ["--out", str(workspace / "rerun_b")])
    assert code_a == code_b == 0
    assert last_json(out_a) == last_json(out_b) | {"out": str(workspace / "rerun_a")}
    ck_a = (workspace / "rerun_a" / "checkpoint.pmck").read_bytes()
    ck_b = (workspace / "rerun_b" / "checkpoint.pmck").read_bytes()
    assert ck_a == ck_b
    hist_a = json.loads((workspace / "rerun_a" / "history.json").read_text())
    hist_b = json.loads((workspace / "rerun_b" / "history.json").read_text())
    assert hist_a["run"] == hist_b["run"]


def test_train_binary_features_match_csv(workspace, capsys):
    data = workspace / "data"
    args = ["train",
            "--train-features", str(data / "train_features.bin"),
            "--val-features", str(data / "val_features.bin"),
            "--labels", str(data / "labels.csv"),
            "--config", str(workspace / "train_config.json"),
            "--out", str(workspace / "run_bin")]
    code, out, _ = run(capsys, args)
    assert code == 0
    ck_bin = (workspace / "run_bin" / "checkpoint.pmck").read_bytes()
    ck_csv = (workspace / "run" / "checkpoint.pmck").read_bytes()
    assert ck_bin == ck_csv


@pytest.mark.parametrize("fmt,save", [("csv", save_features_csv), ("bin", save_features_binary)],
                         ids=["csv", "binary"])
def test_train_and_eval_ignore_feature_row_order(workspace, tmp_path, capsys, fmt, save):
    # sorted files are used as loaded; shuffled ones are gathered into id
    # order (CSV) or read through a row map (binary) to train, and read in
    # file order to eval, which puts its outputs in id order; eval gives the
    # bytes of the sorted CSV file's eval, with and without labels
    data = workspace / "data"
    paths = {"sorted": {split: data / f"{split}_features.{fmt}" for split in ("train", "val")},
             "shuffled": {}}
    for split in paths["sorted"]:
        table = load_features(data / f"{split}_features.csv")  # the binary files' values
        order = np.random.default_rng(len(split)).permutation(len(table))
        assert (order != np.arange(len(table))).any()
        shuffled = tmp_path / f"{split}_shuffled.{fmt}"
        save(FeatureTable(ids=tuple(table.ids[i] for i in order),
                          features=table.features[order]), shuffled)
        paths["shuffled"][split] = shuffled
    checkpoint = tmp_path / "sorted" / "checkpoint.pmck"

    def evals(features):
        """Predictions bytes and stdout of eval on ``features``, unlabeled and labeled."""
        got = []
        for labels in ([], ["--labels", str(data / "val_labels.csv")]):
            code, out, err = run(capsys, [
                "eval", "--checkpoint", str(checkpoint), "--features", str(features),
                "--out-predictions", str(tmp_path / "p.csv"), *labels])
            assert code == 0, err
            got.append(((tmp_path / "p.csv").read_bytes(), out))
        return got
    for name, split_paths in paths.items():
        out = tmp_path / name
        code, _, err = run(capsys, [
            "train", "--train-features", str(split_paths["train"]),
            "--val-features", str(split_paths["val"]), "--labels", str(data / "labels.csv"),
            "--config", str(workspace / "train_config.json"), "--out", str(out)])
        assert code == 0, err
    reference = evals(data / "val_features.csv")
    assert json.loads(reference[0][1])["n"] == 48
    for split_paths in paths.values():
        assert evals(split_paths["val"]) == reference
    assert (tmp_path / "shuffled" / "checkpoint.pmck").read_bytes() == checkpoint.read_bytes()
    history = {name: json.loads((tmp_path / name / "history.json").read_text())
               for name in paths}
    assert history["shuffled"]["run"] == history["sorted"]["run"]


def test_train_flag_overrides_beat_config(workspace, capsys):
    code, out, _ = run(capsys, [
        "train", *data_args(workspace),
        "--config", str(workspace / "train_config.json"),
        "--max-epochs", "1", "--patience", "1",
        "--out", str(workspace / "run_short")])
    assert code == 0
    assert last_json(out)["epochs_run"] == 1


def test_train_infers_input_dim(workspace, capsys):
    # config omits model.input_dim entirely; the feature width fills it in
    manifest = json.loads((workspace / "run" / "manifest.json").read_text())
    assert manifest["train_config"]["model"]["input_dim"] == SYNTH_CONFIG["dim"]


# -- eval and score ---------------------------------------------------------


def test_eval_reproduces_training_best_score(workspace, capsys):
    data = workspace / "data"
    code, out, _ = run(capsys, [
        "eval", "--checkpoint", str(workspace / "run" / "checkpoint.pmck"),
        "--features", str(data / "val_features.csv"),
        "--labels", str(data / "val_labels.csv")])
    assert code == 0
    bundle = last_json(out)
    manifest = json.loads((workspace / "run" / "manifest.json").read_text())
    assert bundle["score"] == manifest["best_val"]["score"]


def test_eval_does_not_import_numpy_ma(workspace):
    # a fresh process: numpy.ma costs every command an import and about 0.5 MB
    data = workspace / "data"
    argv = ["eval", "--checkpoint", str(workspace / "run" / "checkpoint.pmck"),
            "--features", str(data / "val_features.csv"),
            "--labels", str(data / "val_labels.csv")]
    script = ("import sys\nimport numpy\n"
              "if 'numpy.ma' in sys.modules:\n    print('preloaded')\n    sys.exit(0)\n"
              f"from pmtl.cli import main\nassert main({argv!r}) == 0\n"
              "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'\n")
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    if result.stdout.startswith("preloaded"):
        pytest.skip("this numpy imports numpy.ma with numpy itself (numpy < 2)")


def test_only_train_loads_openssl(workspace, tmp_path):
    # a fresh process: hashlib loads OpenSSL's libcrypto, several MB resident,
    # and only train's manifest takes a digest
    data = workspace / "data"
    preds = str(tmp_path / "preds.csv")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"axis": "seed", "values": [1], "runs_per_cell": 1,
                                "base": dict(TRAIN_CONFIG, max_epochs=1, patience=1)}))
    commands = [
        ["eval", "--checkpoint", str(workspace / "run" / "checkpoint.pmck"),
         "--features", str(data / "val_features.csv"),
         "--labels", str(data / "val_labels.csv"), "--out-predictions", preds],
        ["score", "--predictions", preds, "--labels", str(data / "val_labels.csv")],
        ["sweep", *data_args(workspace), "--spec", str(spec), "--out", str(tmp_path / "sweep")],
    ]
    script = ("import sys\nimport pmtl.cli\n"
              f"for argv in {commands!r}:\n    assert pmtl.cli.main(argv) == 0, argv\n"
              "assert '_hashlib' not in sys.modules, 'OpenSSL loaded'\n")
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_eval_predictions_then_score(workspace, capsys, tmp_path):
    data = workspace / "data"
    preds = tmp_path / "preds.csv"
    metrics = tmp_path / "metrics.json"
    code, out, _ = run(capsys, [
        "eval", "--checkpoint", str(workspace / "run" / "checkpoint.pmck"),
        "--features", str(data / "val_features.csv"),
        "--out-predictions", str(preds)])
    assert code == 0
    assert last_json(out)["n"] == SYNTH_CONFIG["n_val"]

    code, out, _ = run(capsys, [
        "score", "--predictions", str(preds),
        "--labels", str(data / "val_labels.csv"),
        "--out-metrics", str(metrics)])
    assert code == 0
    scored = last_json(out)
    manifest = json.loads((workspace / "run" / "manifest.json").read_text())
    assert scored["score"] == pytest.approx(manifest["best_val"]["score"], abs=1e-12)
    assert json.loads(metrics.read_text()) == scored


def test_score_joins_by_id_not_row_order(workspace, tmp_path):
    data = workspace / "data"
    preds = tmp_path / "p.csv"
    main(["eval", "--checkpoint", str(workspace / "run" / "checkpoint.pmck"),
          "--features", str(data / "val_features.csv"),
          "--out-predictions", str(preds)])
    straight = score_files(preds, data / "val_labels.csv")

    ids, emotion, age, country = load_predictions_csv(preds)
    order = np.random.default_rng(3).permutation(len(ids))
    shuffled = tmp_path / "p_shuffled.csv"
    save_predictions_csv(tuple(ids[i] for i in order), emotion[order],
                         age[order], country[order], shuffled)
    assert asdict(score_files(shuffled, data / "val_labels.csv")) == asdict(straight)


def test_score_id_mismatch_exits_2(workspace, capsys):
    data = workspace / "data"
    preds = workspace / "mismatch_preds.csv"
    main(["eval", "--checkpoint", str(workspace / "run" / "checkpoint.pmck"),
          "--features", str(data / "val_features.csv"),
          "--out-predictions", str(preds)])
    capsys.readouterr()
    # full labels file includes train ids the predictions lack
    code, _, err = run(capsys, ["score", "--predictions", str(preds),
                                "--labels", str(data / "labels.csv")])
    assert code == 2
    assert "id mismatch" in err


@pytest.mark.parametrize("extra_in", ["predictions", "labels"])
def test_score_id_mismatch_names_the_extra_id(workspace, tmp_path, capsys, extra_in):
    data = workspace / "data"
    preds = tmp_path / "p.csv"
    main(["eval", "--checkpoint", str(workspace / "run" / "checkpoint.pmck"),
          "--features", str(data / "val_features.csv"), "--out-predictions", str(preds)])
    labels = load_labels_csv(data / "val_labels.csv")
    if extra_in == "predictions":  # the labels lose their last id
        save_labels_csv(LabelTable(labels.ids[:-1], labels.emotion[:-1], labels.age[:-1],
                                   labels.country[:-1]), tmp_path / "l.csv")
    else:
        ids, emotion, age, country = load_predictions_csv(preds)
        save_predictions_csv(ids[:-1], emotion[:-1], age[:-1], country[:-1], preds)
        save_labels_csv(labels, tmp_path / "l.csv")
    capsys.readouterr()
    code, out, err = run(capsys, ["score", "--predictions", str(preds),
                                  "--labels", str(tmp_path / "l.csv")])
    counts = (1, 0) if extra_in == "predictions" else (0, 1)
    extra = [labels.ids[-1]]
    assert (code, out) == (2, "")
    assert err == (f"pmtl: error: id mismatch: {counts[0]} only in predictions "
                   f"{extra if counts[0] else []}, {counts[1]} only in labels "
                   f"{extra if counts[1] else []}\n")


def test_score_components_direct(capsys):
    code, out, _ = run(capsys, ["score", "--components", "0.3", "0.5", "0.4"])
    assert code == 0
    result = last_json(out)
    expected = 3.0 / (1 / 0.3 + 1 / 0.5 + 1 / 0.4)
    assert result["s_mtl"] == pytest.approx(expected, abs=1e-12)
    assert result["nonpositive_component"] is False


def test_score_nan_component_exits_1(capsys):
    code, _, err = run(capsys, ["score", "--components", "nan", "1", "1"])
    assert code == 1
    assert err.startswith("pmtl: error:") and "NaN" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("case", ["train-val", "eval-labels", "score", "score-header-only"])
def test_too_few_rows_exits_2(workspace, tmp_path, capsys, case):
    data = workspace / "data"
    rows = 1 if case != "score-header-only" else 0
    short = tmp_path / "short.csv"
    source = data / ("val_labels.csv" if case.startswith("score") else "val_features.csv")
    short.write_text("".join(source.read_text().splitlines(keepends=True)[:1 + rows]))
    argv = {"train-val": ["train", "--train-features", str(data / "train_features.csv"),
                          "--val-features", str(short), "--labels", str(data / "labels.csv"),
                          "--max-epochs", "1", "--out", str(tmp_path / "o")],
            "eval-labels": ["eval", "--checkpoint", str(workspace / "run" / "checkpoint.pmck"),
                            "--features", str(short), "--labels", str(data / "labels.csv")],
            }.get(case, ["score", "--predictions", str(short), "--labels", str(short)])
    code, _, err = run(capsys, argv)
    assert code == 2
    assert err.startswith("pmtl: error:") and f"got {rows}" in err
    assert "Traceback" not in err


def test_score_overflowing_emotion_exits_2(workspace, tmp_path, capsys):
    # values of 1e308 overflow the CCC moments: a data error naming the column
    labels = load_labels_csv(workspace / "data" / "val_labels.csv")
    preds = tmp_path / "huge.csv"
    save_predictions_csv(labels.ids, np.full_like(labels.emotion, 1e308),
                         labels.age.astype(float), labels.country, preds)
    code, _, err = run(capsys, ["score", "--predictions", str(preds),
                                "--labels", str(workspace / "data" / "val_labels.csv")])
    assert code == 2
    assert err.startswith("pmtl: error: ccc of emotion 0:") and "not finite" in err
    assert "Traceback" not in err


def test_score_overflowing_age_exits_2(workspace, tmp_path, capsys):
    # two predicted ages of 1e308 overflow the sum that the mean divides
    labels = load_labels_csv(workspace / "data" / "val_labels.csv")
    age = labels.age.astype(float)
    age[:2] = 1e308
    preds = tmp_path / "huge.csv"
    save_predictions_csv(labels.ids, labels.emotion, age, labels.country, preds)
    code, stdout, err = run(capsys, ["score", "--predictions", str(preds),
                                     "--labels", str(workspace / "data" / "val_labels.csv")])
    assert (code, stdout) == (2, "")
    assert err == "pmtl: error: mae: values too large, the mean is not finite\n"


def test_eval_without_outputs_exits_1(workspace, capsys):
    data = workspace / "data"
    code, _, err = run(capsys, [
        "eval", "--checkpoint", str(workspace / "run" / "checkpoint.pmck"),
        "--features", str(data / "val_features.csv")])
    assert code == 1
    assert "eval needs" in err


# -- sweep and report -------------------------------------------------------


@pytest.fixture(scope="module")
def sweep_out(workspace, tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    spec = {
        "axis": "seed",
        "values": [1, 2],
        "runs_per_cell": 1,
        "base": TRAIN_CONFIG,
    }
    spec_path = out / "spec.json"
    spec_path.write_text(json.dumps(spec))
    code = main(["sweep", *data_args(workspace), "--spec", str(spec_path),
                 "--out", str(out)])
    assert code == 0
    return out


def test_sweep_outputs(sweep_out):
    assert (sweep_out / "results.json").exists()
    report = (sweep_out / "report.md").read_text()
    assert report.startswith("| cell | ccc | uar | inv_mae | s_mtl | best |")
    assert "seed=1" in report and "seed=2" in report
    assert "*" in report
    sidecar = (sweep_out / "full.csv").read_text()
    assert sidecar.count("\n") == 3  # header + one run per cell


def test_report_rerenders_stored_results(sweep_out, capsys):
    code, out, _ = run(capsys, ["report", "--results",
                                str(sweep_out / "results.json")])
    assert code == 0
    assert out == (sweep_out / "report.md").read_text()
    code, out, _ = run(capsys, ["report", "--results",
                                str(sweep_out / "results.json"),
                                "--format", "csv"])
    assert code == 0
    assert out.startswith("cell,")


def test_sweep_workers_env_byte_identical(workspace, tmp_path, capsys, monkeypatch):
    # a sweep reads no environment: a leftover PMTL_WORKERS, valid or not,
    # changes no byte of its outputs
    spec = {"axis": "batch_size", "values": [4, 8], "runs_per_cell": 1,
            "base": dict(TRAIN_CONFIG, max_epochs=1, patience=1)}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    outputs = {}
    for workers in (None, "2", "zero"):
        if workers is None:
            monkeypatch.delenv("PMTL_WORKERS", raising=False)
        else:
            monkeypatch.setenv("PMTL_WORKERS", workers)
        out = tmp_path / f"w{workers}"
        code, _, _ = run(capsys, ["sweep", *data_args(workspace),
                                  "--spec", str(spec_path), "--out", str(out)])
        assert code == 0
        outputs[workers] = {name: (out / name).read_bytes()
                            for name in ("results.json", "report.md", "full.csv")}
    assert outputs[None] == outputs["2"] == outputs["zero"]


def test_sweep_invalid_workers_env(workspace, tmp_path, capsys, monkeypatch):
    # PMTL_WORKERS is no longer read, so a value that is not a worker count
    # neither fails the sweep nor is mentioned in its diagnostics
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"axis": "seed", "values": [1],
                                     "runs_per_cell": 1, "base": TRAIN_CONFIG}))
    monkeypatch.setenv("PMTL_WORKERS", "zero")
    code, _, err = run(capsys, ["sweep", *data_args(workspace),
                                "--spec", str(spec_path),
                                "--out", str(tmp_path / "o")])
    assert code == 0
    assert "PMTL_WORKERS" not in err
    assert (tmp_path / "o" / "results.json").exists()


@pytest.mark.parametrize("spec", [
    {"axis": "feature_set", "values": ["a"], "feature_sets": {"a": {"train": "t.csv"}}},
    {"axis": "feature_set", "values": ["a"], "feature_sets": {"a": "t.csv"}},
    {"axis": "feature_set", "values": [["a"]], "feature_sets": {"a": {}}},
    {"axis": "feature_set", "values": ["a"],
     "feature_sets": {"a": {"train": "a\u0000.csv", "val": "v.csv"}}},
    {"axis": "seed", "values": [[1]]},
    {"axis": "batch_size", "values": [0]},
    {"axis": "batch_size", "values": ["x"]},
    {"axis": "seed", "values": [1.5]},
    {"axis": "seed", "values": [True]},
    {"axis": "batch_size", "values": [8.9]},
    {"axis": "seed", "values": [1], "runs_per_cell": 1.5},
    {"axis": "seed", "values": [1], "base": 5},
], ids=["feature-set-without-val", "feature-set-not-a-mapping",
        "unhashable-feature-set", "nul-in-feature-set-path", "unhashable-seed",
        "batch-size-0", "batch-size-x", "fractional-seed", "bool-seed", "fractional-batch-size", "fractional-runs-per-cell",
        "base-not-an-object"])
def test_sweep_bad_spec_exits_1(spec, workspace, tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"runs_per_cell": 1, "base": TRAIN_CONFIG, **spec}))
    code, _, err = run(capsys, ["sweep", *data_args(workspace), "--spec", str(spec_path),
                                "--out", str(tmp_path / "o")])
    assert code == 1
    assert err.startswith("pmtl: error:")
    assert not (tmp_path / "o").exists()


def test_sweep_cell_failure_sets_exit_code(tmp_path, capsys):
    # a val split missing one country class: every run in the cell fails
    # with a DataError (recall undefined), the sweep records it and exits
    # with the data error code
    features, labels = synth_tables(
        SynthSpec(n_train=60, n_val=20, dim=5, rank=2, seed=2))
    val_countries = labels.country[[i for i, sid in enumerate(labels.ids)
                                    if sid.startswith("val_")]]
    assert len(set(val_countries.tolist())) < 4  # fixture precondition
    data = tmp_path / "data"
    data.mkdir()
    save_features_csv(features["train"], data / "train.csv")
    save_features_csv(features["val"], data / "val.csv")
    save_labels_csv(labels, data / "labels.csv")
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "axis": "seed", "values": [1], "runs_per_cell": 1,
        "base": dict(TRAIN_CONFIG, max_epochs=1, patience=1)}))
    out = tmp_path / "out"
    code, stdout, _ = run(capsys, [
        "sweep", "--train-features", str(data / "train.csv"),
        "--val-features", str(data / "val.csv"),
        "--labels", str(data / "labels.csv"),
        "--spec", str(spec_path), "--out", str(out)])
    assert code == 2
    summary = last_json(stdout)
    assert summary["failed"] == ["seed=1"]
    assert "DataError: recall undefined: classes" in (out / "report.md").read_text()


# -- exit codes and bad input -----------------------------------------------


@pytest.mark.parametrize("command", ["train", "sweep", "synth"])
@pytest.mark.parametrize("where", ["a-file", "under-a-file"])
def test_unusable_out_fails_before_the_run(workspace, tmp_path, capsys, monkeypatch,
                                           command, where):
    def started(*args):
        raise AssertionError("the run started")
    for name in ("train_run", "run_sweep", "synth_tables"):
        monkeypatch.setattr(pmtl.cli, name, started)
    regular = tmp_path / "regular"
    regular.write_text("kept\n")
    out = regular if where == "a-file" else regular / "run"
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"axis": "seed", "values": [1], "runs_per_cell": 1,
                                "base": TRAIN_CONFIG}))
    given = {"train": [*data_args(workspace), "--config", str(workspace / "train_config.json")],
             "sweep": [*data_args(workspace), "--spec", str(spec)], "synth": []}[command]
    code, stdout, err = run(capsys, [command, *given, "--out", str(out)])
    assert (code, stdout) == (2, "")
    assert err == f"pmtl: error: --out {out}: {regular} is not a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["regular", "spec.json"]
    assert regular.read_text() == "kept\n"


@pytest.mark.parametrize("command,bad_flag", [
    ("eval", "--out-predictions"), ("eval", "--out-metrics"), ("score", "--out-metrics"),
    ("report", "--out"),
], ids=["eval-predictions", "eval-metrics", "score-metrics", "report-out"])
@pytest.mark.parametrize("where", ["under-a-file", "in-a-missing-directory", "a-directory"])
def test_unusable_output_file_fails_before_any_input_is_read(workspace, sweep_out, tmp_path,
                                                             capsys, monkeypatch, command,
                                                             bad_flag, where):
    def read(*args, **kwargs):
        raise AssertionError("an input was read")
    for name in ("load_checkpoint", "feature_dim", "load_features", "load_labels_csv",
                 "load_predictions_csv", "predict", "load_results"):
        monkeypatch.setattr(pmtl.cli, name, read)
    regular = tmp_path / "regular"
    regular.write_text("kept\n")
    bad = {"under-a-file": regular / "out", "in-a-missing-directory": tmp_path / "no" / "out",
           "a-directory": tmp_path}[where]
    message = "is a directory" if where == "a-directory" else f"{bad.parent} is not a directory"
    outputs = {"--out-predictions": tmp_path / "p.csv", "--out-metrics": tmp_path / "m.json"}
    if command != "eval":
        del outputs["--out-predictions"]
    if command == "report":
        del outputs["--out-metrics"]
    outputs[bad_flag] = bad
    labels = ["--labels", str(workspace / "data" / "val_labels.csv")]
    inputs = {"eval": ["--checkpoint", str(workspace / "run" / "checkpoint.pmck"),
                       "--features", str(workspace / "data" / "val_features.csv"), *labels],
              "score": ["--predictions", str(tmp_path / "regular"), *labels],
              "report": ["--results", str(sweep_out / "results.json")]}[command]
    code, stdout, err = run(capsys, [
        command, *inputs, *(arg for pair in outputs.items() for arg in map(str, pair))])
    assert (code, stdout) == (2, "")
    assert err == f"pmtl: error: {bad_flag} {bad}: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["regular"]
    assert regular.read_text() == "kept\n"


@pytest.mark.parametrize("config,flags", [
    ({"batch_size": 0}, []), ({}, ["--batch-size", "0"]),
], ids=["in-the-config", "as-a-flag"])
def test_train_config_is_checked_before_any_data_is_read(workspace, tmp_path, capsys,
                                                         monkeypatch, config, flags):
    def read(*args, **kwargs):
        raise AssertionError("data were read")
    for name in ("load_features", "load_labels_csv", "join_splits", "train_run"):
        monkeypatch.setattr(pmtl.cli, name, read)
    (tmp_path / "config.json").write_text(json.dumps(config))
    data = workspace / "data"
    code, stdout, err = run(capsys, [
        "train", "--train-features", str(data / "train_features.csv"),
        "--val-features", str(tmp_path / "missing.csv"), "--labels", str(data / "labels.csv"),
        "--config", str(tmp_path / "config.json"), *flags, "--out", str(tmp_path / "o")])
    assert (code, stdout) == (1, "")
    assert err == "pmtl: error: bad train config: batch_size must be >= 1, got 0\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


COMPONENTS_ALONE = "--components takes no --predictions, --labels or --out-metrics"
SPEC_PATHS = ("a feature_set sweep takes its paths from 'feature_sets', "
              "not --train-features or --val-features")


@pytest.mark.parametrize("argv,message", [
    (["eval", "--out-predictions", "p.csv", "--out-metrics", "m.json"],
     "eval --out-metrics needs --labels"),
    (["score", "--predictions", "p.csv"], COMPONENTS_ALONE),
    (["score", "--labels", "missing.csv"], COMPONENTS_ALONE),
    (["score", "--out-metrics", "m.json"], COMPONENTS_ALONE),
    (["sweep", "--train-features", "missing.csv"], SPEC_PATHS),
    (["sweep", "--val-features", "missing.csv"], SPEC_PATHS),
], ids=["eval-metrics-without-labels", "score-components-predictions",
        "score-components-labels", "score-components-metrics",
        "feature-set-sweep-train-features", "feature-set-sweep-val-features"])
def test_a_flag_the_command_would_ignore_exits_1_before_anything_is_read(
        workspace, tmp_path, capsys, monkeypatch, argv, message):
    def read(*args, **kwargs):
        raise AssertionError("an input was read")
    for name in ("load_checkpoint", "feature_dim", "load_features", "load_labels_csv",
                 "load_predictions_csv", "predict", "train_run", "run_sweep"):
        monkeypatch.setattr(pmtl.cli, name, read)
    monkeypatch.chdir(tmp_path)
    command, *flags = argv
    extra = {
        "eval": ["--checkpoint", str(workspace / "run" / "checkpoint.pmck"),
                 "--features", str(workspace / "data" / "val_features.csv")],
        "score": ["--components", "0.5", "0.5", "0.5"],
        "sweep": ["--labels", str(workspace / "data" / "labels.csv"),
                  "--spec", "spec.json", "--out", "o"],
    }[command]
    write_feature_set_spec(workspace, tmp_path / "spec.json",
                           {"train": "narrow/train.bin", "val": "narrow/val.bin"})
    code, stdout, err = run(capsys, [command, *extra, *flags])
    assert (code, stdout) == (1, "")
    assert err == f"pmtl: error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]


EVAL_INPUTS = ["eval", "--checkpoint", "c.pmck", "--features", "f.csv", "--labels", "l.csv"]
SAME_FILE = {  # argv, the refused output flag and path, and the flag it collides with
    "eval-predictions-on-labels":
        ([*EVAL_INPUTS, "--out-predictions", "l.csv"], "--out-predictions", "l.csv", "--labels"),
    "eval-predictions-on-checkpoint":
        ([*EVAL_INPUTS, "--out-predictions", "sub/../c.pmck"], "--out-predictions",
         "sub/../c.pmck", "--checkpoint"),
    "eval-metrics-on-features":
        ([*EVAL_INPUTS, "--out-metrics", "./f.csv"], "--out-metrics", "./f.csv", "--features"),
    "eval-predictions-through-a-symlink":
        ([*EVAL_INPUTS, "--out-predictions", "link.csv"], "--out-predictions", "link.csv",
         "--labels"),
    "eval-metrics-on-predictions":
        ([*EVAL_INPUTS, "--out-predictions", "p.csv", "--out-metrics", "p.csv"],
         "--out-metrics", "p.csv", "--out-predictions"),
    "score-metrics-on-predictions":
        (["score", "--predictions", "p.csv", "--labels", "l.csv", "--out-metrics", "p.csv"],
         "--out-metrics", "p.csv", "--predictions"),
    "score-metrics-on-labels":
        (["score", "--predictions", "p.csv", "--labels", "l.csv", "--out-metrics", "l.csv"],
         "--out-metrics", "l.csv", "--labels"),
    "report-on-results":
        (["report", "--results", "r.json", "--out", "r.json"], "--out", "r.json", "--results"),
}


@pytest.mark.parametrize("case", SAME_FILE)
def test_an_output_that_names_an_input_or_another_output_exits_1(
        workspace, sweep_out, tmp_path, capsys, monkeypatch, case):
    def read(*args, **kwargs):
        raise AssertionError("an input was read")
    for name in ("load_checkpoint", "feature_dim", "load_features", "load_labels_csv",
                 "load_predictions_csv", "predict", "load_results"):
        monkeypatch.setattr(pmtl.cli, name, read)
    sources = {"c.pmck": workspace / "run" / "checkpoint.pmck",
               "f.csv": workspace / "data" / "val_features.csv",
               "l.csv": workspace / "data" / "val_labels.csv",
               "p.csv": workspace / "data" / "val_labels.csv",  # labels read as predictions
               "r.json": sweep_out / "results.json"}
    for name, source in sources.items():
        (tmp_path / name).write_bytes(source.read_bytes())
    (tmp_path / "link.csv").symlink_to(tmp_path / "l.csv")
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path)
    argv, flag, path, other = SAME_FILE[case]
    code, stdout, err = run(capsys, argv)
    assert (code, stdout) == (1, "")
    assert err == f"pmtl: error: {flag} {path}: the same file as {other}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*sources, "link.csv", "sub"])
    for name, source in sources.items():
        assert (tmp_path / name).read_bytes() == source.read_bytes(), name


def test_eval_out_metrics_writes_the_bundle_it_prints(workspace, tmp_path, capsys):
    data = workspace / "data"
    metrics = tmp_path / "m.json"
    code, out, _ = run(capsys, [
        "eval", "--checkpoint", str(workspace / "run" / "checkpoint.pmck"),
        "--features", str(data / "val_features.csv"), "--labels", str(data / "labels.csv"),
        "--out-metrics", str(metrics)])
    assert code == 0
    assert json.loads(metrics.read_text()) == last_json(out)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json"]
    code, again, _ = run(capsys, [
        "eval", "--checkpoint", str(workspace / "run" / "checkpoint.pmck"),
        "--features", str(data / "val_features.csv"), "--labels", str(data / "labels.csv")])
    assert (code, again) == (0, out)


@pytest.mark.parametrize("fmt", ["markdown", "csv"])
def test_report_out_writes_what_report_prints(sweep_out, tmp_path, capsys, fmt):
    results = str(sweep_out / "results.json")
    code, printed, _ = run(capsys, ["report", "--results", results, "--format", fmt])
    assert code == 0
    out = tmp_path / "report.txt"
    code, stdout, _ = run(capsys, ["report", "--results", results, "--format", fmt,
                                   "--out", str(out)])
    assert code == 0
    assert json.loads(stdout) == {"report": str(out)}
    assert out.read_bytes() == printed.encode("utf-8")


@pytest.mark.parametrize("fault,message", [
    ("non-finite", "non-finite feature values"), ("repeated-id", "duplicate id 'val_00001'"),
])
def test_binary_features_with_a_bad_value_or_a_repeated_id_exit_2(workspace, tmp_path, capsys,
                                                                  fault, message):
    table = load_features(workspace / "data" / "val_features.bin")
    rows = table.features.take(np.arange(len(table)), axis=0)
    ids = list(table.ids)
    if fault == "non-finite":
        rows[3, 5] = math.inf
    else:
        ids[2] = ids[1]
    bad = tmp_path / "bad.bin"
    save_features_binary(FeatureTable(tuple(ids), rows), bad)
    code, stdout, err = run(capsys, [
        "eval", "--checkpoint", str(workspace / "run" / "checkpoint.pmck"),
        "--features", str(bad), "--labels", str(workspace / "data" / "labels.csv")])
    assert (code, stdout) == (2, "")
    assert err == f"pmtl: error: {bad}: {message}\n"


def test_train_on_splits_of_different_widths_exits_2(workspace, tmp_path, capsys):
    data = workspace / "data"
    table = load_features(data / "val_features.csv")
    narrow = tmp_path / "val.csv"
    save_features_csv(FeatureTable(table.ids, table.features[:, :8]), narrow)
    code, stdout, err = run(capsys, [
        "train", "--train-features", str(data / "train_features.csv"),
        "--val-features", str(narrow), "--labels", str(data / "labels.csv"),
        "--config", str(workspace / "train_config.json"), "--out", str(tmp_path / "o")])
    assert (code, stdout) == (2, "")
    assert err == ("pmtl: error: feature dimensionality differs across splits: "
                   "{'train': 16, 'val': 8}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["val.csv"]


def test_unknown_flag_exits_1(capsys):
    with pytest.raises(SystemExit) as info:
        main(["train", "--bogus"])
    assert info.value.code == 1


def test_missing_subcommand_exits_1(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 1


def test_invalid_config_json_exits_1(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run(capsys, ["train", *data_args(workspace),
                                "--config", str(bad),
                                "--out", str(tmp_path / "o")])
    assert code == 1
    assert "not valid JSON" in err


@pytest.mark.parametrize("body", [b'{"seed": \xff}', b'{"seed": ' + b"1" * 5000 + b"}"],
                         ids=["not-utf8", "over-long-integer"])
def test_undecodable_config_exits_1(workspace, tmp_path, capsys, body):
    bad = tmp_path / "bad.json"
    bad.write_bytes(body)
    code, _, err = run(capsys, ["train", *data_args(workspace), "--config", str(bad),
                                "--out", str(tmp_path / "o")])
    assert code == 1
    assert "not valid JSON" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("model_key,value", [("leaky_slope", 1.5), ("ln_eps", 0.0)])
def test_invalid_model_constant_exits_1(workspace, tmp_path, capsys, model_key, value):
    bad = tmp_path / "bad.json"
    model = dict(TRAIN_CONFIG["model"], **{model_key: value})
    bad.write_text(json.dumps(dict(TRAIN_CONFIG, model=model)))
    code, _, err = run(capsys, ["train", *data_args(workspace),
                                "--config", str(bad),
                                "--out", str(tmp_path / "o")])
    assert code == 1
    assert model_key in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key,value", [("seed", 1.5), ("batch_size", 8.5),
                                       ("max_epochs", 2.5), ("patience", True)])
def test_non_integer_train_count_exits_1(workspace, tmp_path, capsys, key, value):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(TRAIN_CONFIG, **{key: value})))
    code, _, err = run(capsys, ["train", *data_args(workspace),
                                "--config", str(bad),
                                "--out", str(tmp_path / "o")])
    assert code == 1
    assert f"{key} must be an integer" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("section,key,value,fragment", [
    (None, "learning_rate", True, "learning_rate must be a number, got True"),
    ("model", "shared_dims", [64.7, 8], "shared_dims must be a list of integers, got [64.7, 8]"),
    ("model", "emotion_hidden", 8.5, "emotion_hidden must be an integer, got 8.5"),
    ("loss", "alpha_age", "x", "alpha_age must be a number, got 'x'"),
], ids=["bool-learning-rate", "fractional-shared-dims",
        "fractional-emotion-hidden", "string-alpha-age"])
def test_wrong_type_config_value_exits_1(workspace, tmp_path, capsys,
                                         section, key, value, fragment):
    config = json.loads(json.dumps(TRAIN_CONFIG))
    (config.setdefault(section, {}) if section else config)[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    code, _, err = run(capsys, ["train", *data_args(workspace), "--config", str(bad),
                                "--max-epochs", "1", "--out", str(tmp_path / "o")])
    assert code == 1
    assert fragment in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key,value", [("emotion_out", 5), ("country_out", 3),
                                       ("country_out", 6)])
def test_output_width_other_than_labels_exits_1(workspace, tmp_path, capsys, key, value):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(TRAIN_CONFIG, model=dict(TRAIN_CONFIG["model"],
                                                            **{key: value}))))
    code, _, err = run(capsys, ["train", *data_args(workspace), "--config", str(bad),
                                "--max-epochs", "1", "--out", str(tmp_path / "o")])
    assert code == 1
    assert "(emotion_out, country_out) must be (10, 4)" in err
    assert str(value) in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_model_too_large_to_allocate_exits_1(workspace, tmp_path, capsys):
    # 560 TiB of parameters: the allocation fails at once, where a smaller
    # width could really fill memory before it failed
    model = dict(TRAIN_CONFIG["model"], emotion_hidden=10**12)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(TRAIN_CONFIG, model=model)))
    code, _, err = run(capsys, ["train", *data_args(workspace), "--config", str(bad),
                                "--max-epochs", "1", "--out", str(tmp_path / "o")])
    count = sum(math.prod(shape) for _, shape in
                param_shapes(ModelConfig(input_dim=SYNTH_CONFIG["dim"], **model)))
    assert code == 1
    assert f"a model of {count:,} parameters does not fit in memory" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_optimizer_state_too_large_to_allocate_exits_1(workspace, tmp_path, capsys,
                                                       monkeypatch):
    # the parameters fit, the Adam moments do not
    def init_adam(params):
        raise MemoryError

    monkeypatch.setattr(pmtl.train, "init_adam", init_adam)
    code, _, err = run(capsys, ["train", *data_args(workspace), "--config",
                                str(workspace / "train_config.json"), "--max-epochs", "1",
                                "--out", str(tmp_path / "o")])
    count = sum(math.prod(shape) for _, shape in param_shapes(
        ModelConfig(input_dim=SYNTH_CONFIG["dim"], **TRAIN_CONFIG["model"])))
    assert code == 1
    assert f"a model of {count:,} parameters does not fit in memory" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_features_too_large_to_allocate_exit_2(workspace, tmp_path, capsys, refuse_tables):
    code, _, err = run(capsys, ["train", *data_args(workspace), "--config",
                                str(workspace / "train_config.json"), "--max-epochs", "1",
                                "--out", str(tmp_path / "o")])
    assert code == 2
    assert re.search(r"data/\w+\.csv: [0-9,]+ rows of [0-9,]+ values do not fit in memory", err)
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command,body,fragment", [
    ("train", [TRAIN_CONFIG], "must be a JSON object, got list"),
    ("train", dict(TRAIN_CONFIG, model=5), "'model' must be a JSON object, got int"),
    ("train", dict(TRAIN_CONFIG, loss=[0.3]), "'loss' must be a JSON object, got list"),
    ("sweep", [{"axis": "seed", "values": [1], "base": TRAIN_CONFIG}],
     "must be a JSON object, got list"),
    ("synth", [SYNTH_CONFIG], "must be a JSON object, got list"),
], ids=["train-list", "train-model-int", "train-loss-list", "sweep-list", "synth-list"])
def test_malformed_config_file_exits_1(workspace, tmp_path, capsys, command, body, fragment):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(body))
    argv = {"train": ["train", *data_args(workspace), "--config", str(path)],
            "sweep": ["sweep", *data_args(workspace), "--spec", str(path)],
            "synth": ["synth", "--config", str(path), "--seed", "3"]}[command]
    code, _, err = run(capsys, argv + ["--out", str(tmp_path / "o")])
    assert code == 1
    assert err.startswith("pmtl: error:")
    assert fragment in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_max_epochs_flag_clamps_configured_patience(workspace, tmp_path, capsys):
    cfg = tmp_path / "long.json"
    cfg.write_text(json.dumps(dict(TRAIN_CONFIG, max_epochs=20, patience=10)))
    args = ["train", *data_args(workspace), "--config", str(cfg), "--max-epochs", "1"]
    code, _, err = run(capsys, args + ["--out", str(tmp_path / "o")])
    assert code == 0, err
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["train_config"]["patience"] == 1
    assert manifest["epochs_run"] == 1
    # an explicit --patience is taken as given, and still checked
    code, _, err = run(capsys, args + ["--patience", "5", "--out", str(tmp_path / "p")])
    assert code == 1
    assert "patience" in err


def test_unknown_config_key_exits_1(workspace, tmp_path, capsys):
    for key in ("momentum", "clip_norm"):  # training clips no gradient
        bad = tmp_path / f"{key}.json"
        bad.write_text(json.dumps(dict(TRAIN_CONFIG, **{key: 0.9})))
        code, _, err = run(capsys, ["train", *data_args(workspace),
                                    "--config", str(bad),
                                    "--out", str(tmp_path / "o")])
        assert code == 1
        assert key in err


def test_bad_standardize_in_train_config_exits_1(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(TRAIN_CONFIG, standardize="robust")))
    code, _, err = run(capsys, ["train", *data_args(workspace),
                                "--config", str(bad),
                                "--out", str(tmp_path / "o")])
    assert code == 1
    assert "'robust'" in err
    assert "Traceback" not in err


def test_bad_standardization_sweep_value_exits_1(workspace, tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"axis": "standardization", "values": ["zscore", "robust"],
                                     "runs_per_cell": 1, "base": TRAIN_CONFIG}))
    code, _, err = run(capsys, ["sweep", *data_args(workspace), "--spec", str(spec_path),
                                "--out", str(tmp_path / "o")])
    assert code == 1
    assert "'robust'" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_standardization_sweep_cells_match_solo_runs(workspace, tmp_path, capsys):
    # standardize writes in place: no cell may see another cell's scaling
    modes = ["none", "zscore", "minmax"]
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"axis": "standardization", "values": modes,
                                     "runs_per_cell": 1, "base": TRAIN_CONFIG}))
    code, _, err = run(capsys, ["sweep", *data_args(workspace), "--spec", str(spec_path),
                                "--out", str(tmp_path / "sweep")])
    assert code == 0, err
    cells = json.loads((tmp_path / "sweep" / "results.json").read_text())["cells"]
    seed = derive_subseed(TRAIN_CONFIG["seed"], 0)
    for mode, cell in zip(modes, cells, strict=True):
        code, _, err = run(capsys, ["train", *data_args(workspace),
                                    "--config", str(workspace / "train_config.json"),
                                    "--standardize", mode, "--seed", str(seed),
                                    "--out", str(tmp_path / mode)])
        assert code == 0, err
        history = json.loads((tmp_path / mode / "history.json").read_text())
        assert cell["label"] == f"standardization={mode}"
        assert cell["runs"][0]["seed"] == seed
        assert cell["runs"][0]["bundle"] == history["run"]["best_val"]


def narrow_binary_set(workspace, root, width=8):
    """The workspace splits cut to their first ``width`` columns, as binary
    files under ``root``: a second feature set with the same ids and labels."""
    root.mkdir(exist_ok=True)
    for split in ("train", "val"):
        table = load_features(workspace / "data" / f"{split}_features.csv")
        save_features_binary(FeatureTable(table.ids, table.features[:, :width].copy()),
                             root / f"{split}.bin")
    return {"train": str(root / "train.bin"), "val": str(root / "val.bin")}


def write_feature_set_spec(workspace, path, narrow, **fields):
    data = workspace / "data"
    sets = {"wide": {"train": str(data / "train_features.csv"),
                     "val": str(data / "val_features.csv")},
            "narrow": narrow}
    path.write_text(json.dumps({"axis": "feature_set", "values": ["wide", "narrow"],
                                "feature_sets": sets, "runs_per_cell": 1,
                                "base": TRAIN_CONFIG, **fields}))


def test_feature_set_sweep_cells_match_solo_runs(workspace, tmp_path, capsys, monkeypatch):
    # a CSV set 16 wide and a binary set 8 wide, the latter named relative
    # to the current directory
    narrow_binary_set(workspace, tmp_path / "narrow")
    monkeypatch.chdir(tmp_path)
    write_feature_set_spec(workspace, tmp_path / "spec.json",
                           {"train": "narrow/train.bin", "val": "narrow/val.bin"})
    code, _, err = run(capsys, ["sweep", "--labels", str(workspace / "data" / "labels.csv"),
                                "--spec", "spec.json", "--out", "sweep"])
    assert code == 0, err
    cells = json.loads((tmp_path / "sweep" / "results.json").read_text())["cells"]
    seed = derive_subseed(TRAIN_CONFIG["seed"], 0)
    solo_inputs = {"wide": data_args(workspace)[:4],
                   "narrow": ["--train-features", "narrow/train.bin",
                              "--val-features", "narrow/val.bin"]}
    for (name, inputs), cell in zip(solo_inputs.items(), cells, strict=True):
        code, _, err = run(capsys, ["train", *inputs,
                                    "--labels", str(workspace / "data" / "labels.csv"),
                                    "--config", str(workspace / "train_config.json"),
                                    "--seed", str(seed), "--out", name])
        assert code == 0, err
        history = json.loads((tmp_path / name / "history.json").read_text())
        assert cell["label"] == f"feature_set={name}"
        assert cell["runs"][0]["seed"] == seed
        assert cell["runs"][0]["bundle"] == history["run"]["best_val"]


@pytest.mark.parametrize("body,fragment", [
    (None, "No such file"),
    ("id,f0,f2\na,1,2\n", ":1: header must be id,f0..f1"),
], ids=["missing", "bad-header"])
def test_feature_set_sweep_bad_file_exits_2(workspace, tmp_path, capsys, body, fragment):
    # every feature file's header is read before any run trains
    bad = tmp_path / "bad.csv"
    if body is not None:
        bad.write_text(body)
    write_feature_set_spec(workspace, tmp_path / "spec.json",
                           {"train": str(bad), "val": str(workspace / "data" / "val_features.csv")})
    code, _, err = run(capsys, ["sweep", "--labels", str(workspace / "data" / "labels.csv"),
                                "--spec", str(tmp_path / "spec.json"),
                                "--out", str(tmp_path / "o")])
    assert code == 2
    assert err.startswith("pmtl: error:") and fragment in err and "bad.csv" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_feature_set_sweep_bad_row_fails_its_cell(workspace, tmp_path, capsys):
    # a row error shows only when the cell loads its data: that cell fails
    # with the data exit code, the cells before it keep their results
    narrow = narrow_binary_set(workspace, tmp_path / "narrow")
    bad = tmp_path / "val.csv"
    bad.write_text("id,f0\nval_00000,x\n")
    write_feature_set_spec(workspace, tmp_path / "spec.json", dict(narrow, val=str(bad)))
    code, stdout, _ = run(capsys, ["sweep", "--labels", str(workspace / "data" / "labels.csv"),
                                   "--spec", str(tmp_path / "spec.json"),
                                   "--out", str(tmp_path / "o")])
    assert code == 2
    assert last_json(stdout)["failed"] == ["feature_set=narrow"]
    wide, narrow_cell = json.loads((tmp_path / "o" / "results.json").read_text())["cells"]
    assert wide["error"] is None and len(wide["runs"]) == 1
    assert narrow_cell["error"].startswith("DataFormatError:") and narrow_cell["error_code"] == 2


def test_bad_base_standardize_in_sweep_exits_1(workspace, tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"axis": "seed", "values": [1], "runs_per_cell": 1,
                                     "base": dict(TRAIN_CONFIG, standardize="robust")}))
    code, _, err = run(capsys, ["sweep", *data_args(workspace), "--spec", str(spec_path),
                                "--out", str(tmp_path / "o")])
    assert code == 1
    assert "'robust'" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("axis,values,loads", [
    ("seed", [1, 2, 3], 2),
    ("batch_size", [4, 8], 2),
    ("standardization", ["none", "zscore", "minmax"], 2),
])
def test_sweep_loads_features_once_per_distinct_input(workspace, tmp_path, capsys,
                                                      monkeypatch, axis, values, loads):
    calls = []
    monkeypatch.setattr(pmtl.cli, "load_features",
                        lambda path: calls.append(path) or load_features(path))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"axis": axis, "values": values, "runs_per_cell": 1,
                                     "base": dict(TRAIN_CONFIG, max_epochs=1, patience=1)}))
    code, _, err = run(capsys, ["sweep", *data_args(workspace), "--spec", str(spec_path),
                                "--out", str(tmp_path / "o")])
    assert code == 0, err
    assert len(calls) == loads


def _standardization_sweep_peak(tmp_path, capsys, traced_peak, suffix, save, spec):
    """The traced peak of a none/zscore/minmax sweep over the features of
    ``spec`` saved by ``save`` with ``suffix``, and the bytes of those
    features."""
    features, labels = synth_tables(spec)
    for split, table in features.items():
        save(table, tmp_path / f"{split}{suffix}")
    save_labels_csv(labels, tmp_path / "labels.csv")
    nbytes = sum(table.features.nbytes for table in features.values())
    del features, labels
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "axis": "standardization", "values": ["none", "zscore", "minmax"],
        "runs_per_cell": 1, "base": dict(TRAIN_CONFIG, max_epochs=1, patience=1)}))
    code, peak = traced_peak(lambda: main([
        "sweep", "--train-features", str(tmp_path / f"train{suffix}"),
        "--val-features", str(tmp_path / f"val{suffix}"),
        "--labels", str(tmp_path / "labels.csv"),
        "--spec", str(spec_path), "--out", str(tmp_path / "o")]))
    assert code == 0, capsys.readouterr().err
    return peak, nbytes


def test_standardization_sweep_holds_one_copy_of_the_features(tmp_path, capsys, traced_peak):
    # At most the raw arrays plus one working copy, plus a slack of half the
    # features for the labels, the ids, the z-score scratch and the training
    # buffers. Keeping a standardized copy per value would hold four copies.
    peak, nbytes = _standardization_sweep_peak(
        tmp_path, capsys, traced_peak, ".bin", save_features_binary,
        SynthSpec(n_train=400, n_val=100, dim=256, rank=4, seed=3))
    assert peak <= 2.5 * nbytes


def test_csv_standardization_sweep_holds_the_rows_once(tmp_path, capsys, traced_peak):
    # The loaded arrays, once, and each cell's Standardizer, plus the labels,
    # the ids, the fit's scratch, the training buffers and a predict block.
    peak, nbytes = _standardization_sweep_peak(
        tmp_path, capsys, traced_peak, ".csv", save_features_csv,
        SynthSpec(n_train=1600, n_val=400, dim=512, rank=4, seed=3))
    assert peak <= 1.75 * nbytes  # a standardized copy per cell traced 2.17x


def test_missing_feature_file_exits_2(workspace, tmp_path, capsys):
    data = workspace / "data"
    code, _, err = run(capsys, [
        "train", "--train-features", str(tmp_path / "nope.csv"),
        "--val-features", str(data / "val_features.csv"),
        "--labels", str(data / "labels.csv"),
        "--out", str(tmp_path / "o")])
    assert code == 2


def test_corrupt_labels_exit_2(workspace, tmp_path, capsys):
    data = workspace / "data"
    bad = tmp_path / "labels.csv"
    bad.write_text("id,wrong_header\nx,1\n")
    code, _, err = run(capsys, ["train",
                                "--train-features", str(data / "train_features.csv"),
                                "--val-features", str(data / "val_features.csv"),
                                "--labels", str(bad),
                                "--out", str(tmp_path / "o")])
    assert code == 2
    assert "labels.csv" in err


def test_eval_width_mismatch_exits_2(workspace, tmp_path, capsys):
    narrow = tmp_path / "narrow.csv"
    save_features_csv(FeatureTable(ids=("a", "b"), features=np.zeros((2, 5))), narrow)
    code, _, err = run(capsys, [
        "eval", "--checkpoint", str(workspace / "run" / "checkpoint.pmck"),
        "--features", str(narrow), "--out-predictions", str(tmp_path / "p.csv")])
    assert code == 2
    assert "5 features" in err and str(SYNTH_CONFIG["dim"]) in err


def test_eval_checkpoint_missing_tensor_exits_2(workspace, tmp_path, capsys, rewrite_header):
    bad = rewrite_header(workspace / "run" / "checkpoint.pmck", tmp_path / "bad.pmck",
                         lambda h: h.update(tensors=[e for e in h["tensors"]
                                                     if e[0] != "shared1.w"]))
    code, _, err = run(capsys, [
        "eval", "--checkpoint", str(bad),
        "--features", str(workspace / "data" / "val_features.csv"),
        "--labels", str(workspace / "data" / "val_labels.csv")])
    assert code == 2
    assert "shared1.w" in err


@pytest.mark.parametrize("emotion_out,country_out", [(5, 4), (10, 6), (10, 3)])
def test_eval_checkpoint_output_widths_exit_2(workspace, tmp_path, capsys,
                                              emotion_out, country_out):
    # tensors that match the header's output widths, which differ from the
    # labels': only the config check can reject the file
    ck = load_checkpoint(workspace / "run" / "checkpoint.pmck")
    config = replace(ck.config)
    object.__setattr__(config, "emotion_out", emotion_out)
    object.__setattr__(config, "country_out", country_out)
    bad = tmp_path / "bad.pmck"
    save_checkpoint(bad, init_params(config, RngStream(0)), config, ck.age_scaler,
                    ck.standardizer)
    preds = tmp_path / "p.csv"
    code, _, err = run(capsys, [
        "eval", "--checkpoint", str(bad),
        "--features", str(workspace / "data" / "val_features.csv"),
        "--labels", str(workspace / "data" / "val_labels.csv"),
        "--out-predictions", str(preds)])
    assert code == 2
    assert "(emotion_out, country_out) must be (10, 4)" in err
    assert "Traceback" not in err
    assert not preds.exists()


def test_eval_runs_the_forward_pass_once(workspace, tmp_path, capsys, monkeypatch):
    calls = []
    forward = pmtl.model.forward
    monkeypatch.setattr(pmtl.model, "forward", lambda *args: calls.append(args) or forward(*args))
    code, _, _ = run(capsys, [
        "eval", "--checkpoint", str(workspace / "run" / "checkpoint.pmck"),
        "--features", str(workspace / "data" / "val_features.csv"),
        "--labels", str(workspace / "data" / "val_labels.csv"),
        "--out-predictions", str(tmp_path / "p.csv")])
    assert code == 0
    assert len(calls) == 1


def test_eval_sends_each_row_through_forward_once(workspace, tmp_path, capsys, monkeypatch):
    # 700 rows: blocks of 128 rows, the last one 60 rows padded with zeros
    features, _ = synth_tables(SynthSpec(n_train=2, n_val=700, dim=SYNTH_CONFIG["dim"], seed=6))
    save_features_csv(features["val"], tmp_path / "rows.csv")
    blocks = []
    forward = pmtl.model.forward
    monkeypatch.setattr(pmtl.model, "forward",
                        lambda *args: blocks.append(args[2].copy()) or forward(*args))
    code, _, err = run(capsys, [
        "eval", "--checkpoint", str(workspace / "run" / "checkpoint.pmck"),
        "--features", str(tmp_path / "rows.csv"), "--out-predictions", str(tmp_path / "p.csv")])
    assert code == 0, err
    assert [len(x) for x in blocks] == [128] * 6
    rows = np.concatenate(blocks)
    assert not rows[700:].any()
    standardizer = load_checkpoint(workspace / "run" / "checkpoint.pmck").standardizer
    expected = standardizer.apply(load_features(tmp_path / "rows.csv").features)
    assert rows[:700].tobytes() == expected.tobytes()


@pytest.mark.parametrize("command,role", [
    ("score", "labels"), ("score", "predictions"), ("eval", "labels"), ("eval", "features"),
])
def test_non_utf8_input_exits_2(workspace, tmp_path, capsys, command, role):
    data = workspace / "data"
    preds = tmp_path / "preds.csv"
    main(["eval", "--checkpoint", str(workspace / "run" / "checkpoint.pmck"),
          "--features", str(data / "val_features.csv"), "--out-predictions", str(preds)])
    capsys.readouterr()
    files = {"labels": data / "val_labels.csv", "predictions": preds,
             "features": data / "val_features.csv"}
    bad = tmp_path / "bad.csv"
    bad.write_bytes(files[role].read_bytes() + b"\xff\xfe,1\n")
    files[role] = bad
    if command == "score":
        argv = ["score", "--predictions", str(files["predictions"])]
    else:
        argv = ["eval", "--checkpoint", str(workspace / "run" / "checkpoint.pmck"),
                "--features", str(files["features"])]
    code, _, err = run(capsys, argv + ["--labels", str(files["labels"])])
    assert code == 2
    assert "UTF-8" in err


def test_report_on_malformed_results_exits_2(sweep_out, tmp_path, capsys):
    stored = json.loads((sweep_out / "results.json").read_text())
    del stored["axis"]
    bad = tmp_path / "results.json"
    bad.write_text(json.dumps(stored))
    code, _, err = run(capsys, ["report", "--results", str(bad)])
    assert code == 2
    assert "axis" in err


@pytest.mark.parametrize("fmt", ["markdown", "csv"])
@pytest.mark.parametrize("field", ["aggregation", "axis"])
def test_report_of_an_unknown_axis_or_aggregation_exits_2(sweep_out, tmp_path, capsys,
                                                          field, fmt):
    # a value outside the sweep spec's choices rendered a CSV of misshapen rows
    stored = json.loads((sweep_out / "results.json").read_text())
    stored[field] = "foo"
    bad = tmp_path / "results.json"
    bad.write_text(json.dumps(stored))
    report = tmp_path / "report.txt"
    code, out, err = run(capsys, ["report", "--results", str(bad), "--format", fmt,
                                  "--out", str(report)])
    assert code == 2
    assert f"{field} must be one of" in err and "'foo'" in err
    assert out == "" and not report.exists()

