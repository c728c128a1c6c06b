"""A split's rows: an in-memory array (CSV input) or a binary features file
read per batch through a descriptor held open (FileRows). Both give the
same bits through ndarray's ``take``. Eval reads a CSV file's rows as they
are parsed (CsvRows), one block at a time."""

import json
import os
import sys
from dataclasses import replace

import numpy as np
import pytest

import pmtl.data
import pmtl.model
import pmtl.train
from pmtl.checkpoint import save_checkpoint
from pmtl.cli import main
from pmtl.data import (
    FIT_CHUNK,
    READ_BUFFER,
    STANDARDIZE_MODES,
    CsvRows,
    FeatureTable,
    FileRows,
    LabelTable,
    Standardizer,
    SynthSpec,
    build_part,
    join_splits,
    load_features,
    load_labels_csv,
    save_features_binary,
    save_features_csv,
    save_labels_csv,
    synth_tables,
)
from pmtl.model import ModelConfig, init_params
from pmtl.rng import RngStream

TRAIN_CONFIG = {
    "model": {"shared_dims": [12, 6], "age_head_dims": [6, 3],
              "emotion_hidden": 6, "country_hidden": 6},
    "seed": 5, "max_epochs": 3, "patience": 3, "standardize": "zscore",
}


def _columns(rng, shape):
    """Values of several scales, a constant column and a column of signed zeros."""
    n, d = shape
    x = rng.standard_normal(shape) * rng.uniform(0.1, 50.0, d) + rng.normal(0, 9, d)
    if d > 2:
        x[:, 1] = np.where(np.arange(n) % 3 == 1, -0.0, 0.0)
        x[:, 2] = 2.5
    return x


# (n, d): one row; lone columns, which numpy sums pairwise; blocks of
# k = FIT_CHUNK // d - 1 rows that do not divide n; one block; rows wider
# than a block
@pytest.mark.parametrize("shape", [(1, 3), (2, 1), (3001, 1), (5003, 1), (3, 40), (1001, 300),
                                   (5000, 7), (123, 6373), (3, 2 * FIT_CHUNK)], ids=str)
@pytest.mark.parametrize("mode", STANDARDIZE_MODES)
@pytest.mark.parametrize("ids", ["sorted", "unsorted"])
def test_streamed_fit_equals_the_fit_of_the_array(tmp_path, shape, mode, ids):
    n, d = shape
    rng = np.random.default_rng(n * d)
    x = _columns(rng, shape)
    names = tuple(f"r{i:05d}" for i in range(n))
    order = rng.permutation(n) if ids == "unsorted" else np.arange(n)
    save_features_binary(FeatureTable(tuple(names[i] for i in order), x[order]),
                         tmp_path / "x.bin")
    part = build_part(load_features(tmp_path / "x.bin"), None, "train")
    assert isinstance(part.rows, FileRows) and part.ids == names
    got, want = Standardizer.fit(part, mode), Standardizer.fit(x, mode)
    assert got.center.tobytes() == want.center.tobytes()
    assert got.scale.tobytes() == want.scale.tobytes()
    assert got.degenerate_columns == want.degenerate_columns
    lo, hi = x.min(axis=0), x.max(axis=0)
    center, spread = {"none": (np.zeros(d), np.ones(d)),
                      "zscore": (x.mean(axis=0), x.std(axis=0)),
                      "minmax": ((lo + hi) / 2.0, (hi - lo) / 2.0)}[mode]
    assert want.center.tobytes() == center.tobytes()  # and the array's fit is numpy's
    assert want.scale.tobytes() == np.where(spread == 0.0, 1.0, spread).tobytes()


@pytest.mark.parametrize("mode", ["zscore", "minmax"])
def test_streamed_fit_scratch_is_fixed(tmp_path, mode, traced_peak):
    x = np.random.default_rng(2).standard_normal((4000, 300))
    save_features_binary(FeatureTable(tuple(f"r{i:05d}" for i in range(4000)), x),
                         tmp_path / "x.bin")
    rows = load_features(tmp_path / "x.bin").features
    _, peak = traced_peak(lambda: Standardizer.fit(rows, mode))
    assert peak <= 8 * (FIT_CHUNK + np.getbufsize()) + 10 * x[0].nbytes < x.nbytes / 10


def test_take_reads_the_rows_it_is_given(tmp_path):
    x = np.arange(40.0).reshape(10, 4)
    save_features_binary(FeatureTable(tuple("jihgfedcba"), x), tmp_path / "x.bin")
    part = build_part(load_features(tmp_path / "x.bin"), None, "eval")
    out = np.full((6, 4), np.nan)
    rows = np.array([0, 1, 2, 7, 3, 9])
    got = part.take(rows, axis=0, out=out, mode="clip")
    assert got is out
    assert got.tobytes() == x[::-1][rows].tobytes()  # id order is the file order reversed


@pytest.mark.parametrize("case", ["sorted ids", "unsorted ids", "standardized"])
def test_an_array_and_its_file_rows_take_alike(tmp_path, case):
    # the parts of an array and of the FileRows of the same table answer
    # ndarray's call alike, in id order and standardized if they have a
    # standardizer, and leave the loaded rows as they were
    x = np.arange(40.0).reshape(10, 4) ** 1.5
    ids = tuple("jihgfedcba" if case == "unsorted ids" else "abcdefghij")
    table = FeatureTable(ids, x)
    save_features_binary(table, tmp_path / "x.bin")
    parts = [build_part(t, None, "eval") for t in (table, load_features(tmp_path / "x.bin"))]
    at = np.array([0, 1, 2, 7, 3, 9])
    want = (x[::-1] if case == "unsorted ids" else x)[at]  # unsorted: file order reversed
    if case == "standardized":
        std = Standardizer.fit(parts[0], "zscore")
        parts, want = [replace(part, standardizer=std) for part in parts], std.apply(want)
    assert isinstance(parts[0].rows, np.ndarray) and isinstance(parts[1].rows, FileRows)
    for part in parts:
        buf = np.full((6, 4), np.nan)
        assert part.take(at, axis=0, out=buf, mode="clip") is buf
        assert buf.tobytes() == want.tobytes()
        fresh = part.take(at, axis=0, mode="clip")  # no out: a new array
        assert not np.shares_memory(fresh, buf) and fresh.tobytes() == want.tobytes()
        with pytest.raises(ValueError):
            part.take(at, axis=1, out=buf, mode="clip")
        with pytest.raises(TypeError):
            part.take(at, buf)  # an array where the axis goes, as take(rows, out) passed it
    assert x.tobytes() == (np.arange(40.0).reshape(10, 4) ** 1.5).tobytes()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The same synthetic rows as a CSV, a binary file and a binary file
    in shuffled row order, with their labels."""
    root = tmp_path_factory.mktemp("sources")
    features, labels = synth_tables(SynthSpec(n_train=300, n_val=290, dim=16, rank=4, seed=9))
    save_labels_csv(labels, root / "labels.csv")
    for split, table in features.items():
        save_features_csv(table, root / f"{split}.csv")
        save_features_binary(table, root / f"{split}.bin")
        order = np.random.default_rng(len(split)).permutation(len(table))
        save_features_binary(FeatureTable(tuple(table.ids[i] for i in order),
                                          table.features[order]), root / f"{split}_shuffled.bin")
    return root


def _train(root, out, suffix, batch_size):
    """``pmtl train`` on the ``suffix`` files; (exit code, run record, checkpoint bytes)."""
    (root / "config.json").write_text(json.dumps(dict(TRAIN_CONFIG, batch_size=batch_size)))
    code = main(["train", "--train-features", str(root / f"train{suffix}"),
                 "--val-features", str(root / f"val{suffix}"),
                 "--labels", str(root / "labels.csv"),
                 "--config", str(root / "config.json"), "--out", str(out)])
    if code:
        return code, None, None
    history = json.loads((out / "history.json").read_text())
    return code, history["run"], (out / "checkpoint.pmck").read_bytes()


# batch 8 leaves predict to make its own buffer; batch 256, whose plan holds
# 256 rows, lends it its buffer; 300 rows leave a short last batch of 44
@pytest.mark.parametrize("batch_size", [8, 256])
def test_array_and_file_sources_train_the_same_bits(inputs, tmp_path, capsys, batch_size):
    runs = [_train(inputs, tmp_path / suffix, suffix, batch_size)
            for suffix in (".csv", ".bin", "_shuffled.bin")]
    assert all(code == 0 for code, _, _ in runs), capsys.readouterr().err
    (_, history, checkpoint), *others = runs
    assert len(history["epochs"]) == 3
    for _, other_history, other_checkpoint in others:
        assert other_history == history
        assert other_checkpoint == checkpoint


def _after_first_predict(monkeypatch, action):
    """Run ``action`` once, after the untrained validation pass."""
    predict = pmtl.train.predict

    def wrapped(*args):
        result = predict(*args)
        if not wrapped.done:
            wrapped.done = True
            action()
        return result
    wrapped.done = False
    monkeypatch.setattr(pmtl.train, "predict", wrapped)


@pytest.mark.parametrize("split", ["train", "val"])
def test_a_file_cut_during_the_run_is_a_data_error(inputs, tmp_path, capsys, monkeypatch,
                                                   split):
    root = tmp_path / "copy"
    root.mkdir()
    for name in ("train.bin", "val.bin", "labels.csv"):
        (root / name).write_bytes((inputs / name).read_bytes())
    cut = root / f"{split}.bin"
    _after_first_predict(monkeypatch, lambda: os.truncate(cut, cut.stat().st_size // 2))
    code, _, _ = _train(root, tmp_path / "o", ".bin", 32)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"pmtl: error: {cut}: payload ends before row ")
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_a_file_replaced_during_the_run_leaves_its_bits(inputs, tmp_path, capsys, monkeypatch):
    # pmtl and its users write files through a temporary file and os.replace;
    # the open descriptor keeps the inode it opened
    root = tmp_path / "copy"
    root.mkdir()
    for name in ("train.bin", "val.bin", "labels.csv"):
        (root / name).write_bytes((inputs / name).read_bytes())
    _, history, checkpoint = _train(root, tmp_path / "undisturbed", ".bin", 32)

    def replace_both():
        for split in ("train", "val"):
            table = build_part(load_features(root / f"{split}.bin"), None, split)
            x = table.take(np.arange(len(table)), axis=0)
            save_features_binary(FeatureTable(table.ids, -x), root / f"{split}.new")
            os.replace(root / f"{split}.new", root / f"{split}.bin")
    _after_first_predict(monkeypatch, replace_both)
    code, got_history, got_checkpoint = _train(root, tmp_path / "replaced", ".bin", 32)
    assert code == 0, capsys.readouterr().err
    assert got_history == history and got_checkpoint == checkpoint
    # and the files were replaced: the next run differs
    monkeypatch.undo()
    _, next_history, _ = _train(root, tmp_path / "next", ".bin", 32)
    assert next_history != history


def _ids_and_labels_bytes(root):
    """The bytes of the train split's ids and label arrays, which a run holds
    by design: measured on the split as the files load and join."""
    part = join_splits({split: load_features(root / f"{split}.bin") for split in ("train", "val")},
                       load_labels_csv(root / "labels.csv")).train
    return (sys.getsizeof(part.ids) + sum(map(sys.getsizeof, part.ids))
            + sum(a.nbytes for a in (part.y_emotion, part.y_age, part.y_country)))


def test_training_peak_does_not_grow_with_the_rows_of_a_binary_file(tmp_path, traced_peak):
    # 2,000 and 8,000 train rows at width 1,024: 49 MB more features, read a
    # batch at a time. What the peak may still grow by is the extra rows' ids
    # and labels, plus 256 KiB, ten times the spread seen between runs
    peaks, held = [], []
    for n_train in (2000, 8000):
        root = tmp_path / str(n_train)
        root.mkdir()
        features, labels = synth_tables(SynthSpec(n_train=n_train, n_val=300, dim=1024,
                                                  rank=4, seed=4))
        for split, table in features.items():
            save_features_binary(table, root / f"{split}.bin")
        save_labels_csv(labels, root / "labels.csv")
        del features, labels
        held.append(_ids_and_labels_bytes(root))
        (root / "config.json").write_text(json.dumps(dict(TRAIN_CONFIG, batch_size=256,
                                                          max_epochs=1, patience=1)))
        code, peak = traced_peak(lambda: main([
            "train", "--train-features", str(root / "train.bin"),
            "--val-features", str(root / "val.bin"), "--labels", str(root / "labels.csv"),
            "--config", str(root / "config.json"), "--out", str(root / "o")]))
        assert code == 0
        peaks.append(peak)
    assert abs(peaks[1] - peaks[0]) <= held[1] - held[0] + (256 << 10), (peaks, held)


def test_eval_of_a_file_cut_after_its_load_names_it_once(inputs, tmp_path, capsys,
                                                         monkeypatch):
    assert _train(inputs, tmp_path / "run", ".bin", 32)[0] == 0
    cut = tmp_path / "val.bin"
    cut.write_bytes((inputs / "val.bin").read_bytes())

    load = pmtl.data.load_features_binary

    def load_then_cut(path):
        table = load(path)
        os.truncate(path, os.path.getsize(path) - 8)
        return table
    monkeypatch.setattr(pmtl.data, "load_features_binary", load_then_cut)  # eval's load calls it
    code = main(["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.pmck"),
                 "--features", str(cut), "--out-predictions", str(tmp_path / "p.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"pmtl: error: {cut}: payload ends before row ")
    assert err.count(str(cut)) == 1
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("takes", [[1, 5, 128, 66], [200], [199, 1]], ids=str)
def test_csv_rows_are_the_loaded_array_whatever_blocks_take_them(tmp_path, takes):
    # 200 rows of 700 values: a parse block of 5 rows, which takes cut
    x = np.random.default_rng(8).standard_normal((200, 700)) * 1e3
    save_features_csv(FeatureTable(tuple(f"r{i:03d}" for i in range(200)), x), tmp_path / "x.csv")
    table = load_features(tmp_path / "x.csv")
    with open(tmp_path / "x.csv", "rb", buffering=READ_BUFFER) as fh:
        rows = CsvRows(fh, 700)
        assert (len(rows), rows.shape) == (200, (200, 700))
        got = np.concatenate([rows.take(np.arange(start, start + k), axis=0, mode="clip")
                              for start, k in zip(np.cumsum([0] + takes), takes)])
    assert tuple(rows.ids) == table.ids
    assert got.tobytes() == table.features.tobytes()


def test_csv_rows_are_read_once_in_file_order(tmp_path):
    save_features_csv(FeatureTable(("a", "b", "c"), np.ones((3, 2))), tmp_path / "x.csv")
    with open(tmp_path / "x.csv", "rb", buffering=READ_BUFFER) as fh:
        rows = CsvRows(fh, 2)
        for at in ([1, 2], [0, 0]):  # not the next rows
            with pytest.raises(ValueError, match="once, in file order"):
                rows.take(np.array(at), axis=0)
        with pytest.raises(ValueError, match="axis 0"):
            rows.take(np.arange(2), axis=1)
        rows.take(np.arange(2), axis=0)
        with pytest.raises(ValueError, match="once, in file order"):
            rows.take(np.arange(2), axis=0)  # read already
        assert rows.take(np.arange(2, 3), axis=0).tolist() == [[1.0, 1.0]]


def _checkpoint(path, d):
    """A small untrained model of width ``d`` whose standardizer doubles every value."""
    config = ModelConfig(input_dim=d, shared_dims=(12, 6), age_head_dims=(6, 3),
                         emotion_hidden=6, country_hidden=6)
    save_checkpoint(path, init_params(config, RngStream(3)), config,
                    Standardizer("zscore", np.array([30.0]), np.array([5.0])),
                    Standardizer("zscore", np.zeros(d), np.full(d, 0.5)))


def test_eval_peak_does_not_grow_with_the_rows_of_a_csv_file(tmp_path, traced_peak):
    # 300 and 1,200 shuffled rows at width 512: 3.7 MB more features, which
    # eval reads PREDICT_ROWS rows at a time. What the peak may still grow by
    # is what eval holds by design for the extra rows: their ids, in file and
    # in id order, and their 12 outputs, with the copy that puts them in id
    # order, plus 256 KiB
    d = 512
    _checkpoint(tmp_path / "ck.pmck", d)
    peaks, held = [], []
    for n in (300, 1200):
        table = synth_tables(SynthSpec(n_train=2, n_val=n, dim=d, rank=4, seed=4))[0]["val"]
        order = np.random.default_rng(n).permutation(n)
        ids = tuple(table.ids[i] for i in order)
        save_features_csv(FeatureTable(ids, table.features[order]), tmp_path / f"{n}.csv")
        held.append(2 * (sys.getsizeof(ids) + sum(map(sys.getsizeof, ids))) + 2 * 12 * 8 * n)
        del table, ids
        code, peak = traced_peak(lambda: main([
            "eval", "--checkpoint", str(tmp_path / "ck.pmck"), "--features",
            str(tmp_path / f"{n}.csv"), "--out-predictions", str(tmp_path / f"{n}.p")]))
        assert code == 0
        peaks.append(peak)
    assert peaks[1] - peaks[0] <= held[1] - held[0] + (256 << 10), (peaks, held)


@pytest.fixture(scope="module")
def rows400(tmp_path_factory):
    """A ``_checkpoint`` of width 16, and a CSV file of 400 rows (``plain.csv``)
    with their labels."""
    root = tmp_path_factory.mktemp("rows400")
    features, labels = synth_tables(SynthSpec(n_train=2, n_val=400, dim=16, rank=4, seed=3))
    save_features_csv(features["val"], root / "plain.csv")
    save_labels_csv(LabelTable(labels.ids[2:], labels.emotion[2:], labels.age[2:],
                               labels.country[2:]), root / "labels.csv")
    _checkpoint(root / "ck.pmck", 16)
    return root


def _edited(root, path, row, edit):
    """``root/plain.csv`` with ``edit`` applied to the line of row ``row``, at ``path``."""
    lines = (root / "plain.csv").read_text().splitlines(keepends=True)
    lines[1 + row] = edit(lines[1 + row])
    path.write_text("".join(lines))
    return path


def _eval(capsys, root, features, *labels):
    """``pmtl eval`` of ``root``'s checkpoint on ``features``: (exit code,
    stdout, stderr, predictions bytes or None)."""
    out = features.with_suffix(".p")
    code = main(["eval", "--checkpoint", str(root / "ck.pmck"), "--features", str(features),
                 "--out-predictions", str(out), *labels])
    printed = capsys.readouterr()
    return code, printed.out.replace(str(out), "P"), printed.err, \
        out.read_bytes() if out.exists() else None


@pytest.mark.parametrize("edit", [
    lambda line: line.replace(",", ", ", 1),  # " 1.5": float reads it, parse_decimals does not
    lambda line: '"{}",{}'.format(*line.split(",", 1)),  # a quoted id
], ids=["spaced-value", "quoted-id"])
@pytest.mark.parametrize("labeled", [False, True], ids=["unlabeled", "labeled"])
def test_a_csv_refused_part_way_evaluates_as_its_plain_twin(rows400, tmp_path, capsys,
                                                           monkeypatch, edit, labeled):
    # row 300 is in the third block of 128: two blocks run before the fast
    # parse refuses the file, then the csv-module loop's array runs all four
    labels = ["--labels", str(rows400 / "labels.csv")] if labeled else []
    blocks = []
    forward = pmtl.model.forward
    monkeypatch.setattr(pmtl.model, "forward", lambda *args: blocks.append(1) or forward(*args))
    plain = _eval(capsys, rows400, rows400 / "plain.csv", *labels)
    assert plain[0] == 0 and len(blocks) == 4, plain
    twin = _eval(capsys, rows400, _edited(rows400, tmp_path / "twin.csv", 300, edit), *labels)
    assert len(blocks) == 4 + 2 + 4
    assert twin == plain


@pytest.mark.parametrize("token,message", [
    ("inf", "{}:302: column 'f0': non-finite value 'inf'"),
    ("1e308", "{}: feature f0: values overflow the zscore standardization"),
])
def test_a_bad_value_late_in_a_csv_fails_eval_as_before(rows400, tmp_path, capsys, token,
                                                        message):
    bad = _edited(rows400, tmp_path / "bad.csv", 300,
                  lambda line: "{},{},{}".format(*line.split(",", 2)[:1], token,
                                                 line.split(",", 2)[2]))
    code, out, err, predictions = _eval(capsys, rows400, bad)
    assert (code, out, predictions) == (2, "", None)
    assert err == f"pmtl: error: {message.format(bad)}\n"
