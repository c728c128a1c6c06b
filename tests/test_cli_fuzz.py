"""Property test: no input drives ``pmtl`` to a Python traceback.

Hypothesis mutates train configs, sweep specs, ``score --components``
triples, labels and predictions files, the numbers in features, labels and
predictions files, and the model config in a checkpoint's header, and drives
``pmtl.cli.main`` in process on a tiny synthetic dataset. Every example must
end with a documented exit code (0 success, 1 config, 2 data, 3 numerics)
and print no traceback and no warning. Training is
capped at one epoch by ``--max-epochs 1`` or, in sweeps, by the base config.
Model widths are drawn small: a huge width is a valid config whose network
would not fit in memory.
"""

import json
import struct
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pmtl.cli import main
from pmtl.data import COUNTRIES, load_labels_csv, save_predictions_csv

SYNTH = {"n_train": 24, "n_val": 16, "dim": 4, "rank": 2, "seed": 4}
MODEL = {"shared_dims": [4], "age_head_dims": [3, 2], "emotion_hidden": 3, "country_hidden": 3}
BASE = {"model": MODEL, "seed": 1, "batch_size": 8, "max_epochs": 1, "patience": 1}

SWEEP = {"axis": "seed", "values": [1, 2], "runs_per_cell": 1, "base": BASE}

SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 12),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["", "x", "sigmoid", "one-hidden-all", "zscore", "best", "seed"]),
)
HUGE = st.sampled_from([10 ** 30, -10 ** 30, 2 ** 64, 1e308, -1e308, 5e-324, -1000, 1000])
JUNK = st.one_of(SCALARS, st.lists(SCALARS, max_size=3), st.dictionaries(st.just("a"), SCALARS))
ANY = st.one_of(JUNK, HUGE)
WIDTH = st.one_of(JUNK, st.lists(st.integers(-2, 12), max_size=3))
KEYS = {  # section -> key -> strategy for its value
    None: dict.fromkeys(("seed", "batch_size", "learning_rate", "adam_beta1", "adam_beta2",
                         "adam_eps", "patience", "clip_norm", "standardize", "model", "loss",
                         "unknown"), ANY),
    "model": {**dict.fromkeys(("input_dim", "shared_dims", "age_head_dims", "emotion_hidden",
                               "country_hidden", "emotion_out", "country_out"), WIDTH),
              **dict.fromkeys(("leaky_slope", "ln_eps", "head_variant", "emotion_activation",
                               "unknown"), ANY)},
    "loss": dict.fromkeys(("alpha_emotion", "alpha_country", "alpha_age", "unknown"), ANY),
}


@st.composite
def mutated(draw, base, keys):
    """A copy of ``base`` with up to three values replaced; ``keys`` maps a
    section (None for the top level) to the value strategy of each key."""
    config = json.loads(json.dumps(base))
    for _ in range(draw(st.integers(0, 3))):
        section = draw(st.sampled_from(sorted(keys, key=str)))
        key = draw(st.sampled_from(sorted(keys[section])))
        target = config if section is None else config.setdefault(section, {})
        if isinstance(target, dict):
            target[key] = draw(keys[section][key])
    return config


TRAIN_CONFIGS = mutated(BASE, KEYS)
SWEEP_SPECS = mutated(SWEEP, {None: {
    "axis": st.one_of(st.sampled_from(["batch_size", "standardization", "feature_set"]), JUNK),
    "values": st.one_of(st.lists(st.one_of(SCALARS, HUGE), max_size=2), JUNK),
    "runs_per_cell": st.one_of(st.integers(-1, 2), JUNK.filter(
        lambda v: not isinstance(v, int) or v < 3)),
    "aggregation": st.one_of(st.just("best"), JUNK),
    "feature_sets": JUNK,
    "base": st.one_of(TRAIN_CONFIGS, JUNK),
    "unknown": JUNK,
}})

EXIT_CODES = {0, 1, 2, 3}


def run_cli(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors exit through SystemExit
        code = exc.code
    return code, capsys.readouterr().err


def check(code, err):
    assert code in EXIT_CODES, err
    assert "Traceback" not in err, err
    assert "Warning" not in err, err


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "synth.json").write_text(json.dumps(SYNTH))
    assert main(["synth", "--config", str(root / "synth.json"), "--out", str(root)]) == 0
    labels = load_labels_csv(root / "labels.csv")
    val = {int(c) for sid, c in zip(labels.ids, labels.country) if sid.startswith("val_")}
    assert val == set(range(len(COUNTRIES)))  # else every run ends in MissingClassError
    return root


def data_args(root, labels=None):
    return ["--train-features", str(root / "train_features.csv"),
            "--val-features", str(root / "val_features.csv"),
            "--labels", str(labels or root / "labels.csv")]


FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(config=TRAIN_CONFIGS)
def test_mutated_train_config_never_tracebacks(workspace, tmp_path_factory, capsys, config):
    path = tmp_path_factory.mktemp("train") / "config.json"
    path.write_text(json.dumps(config))
    check(*run_cli(capsys, ["train", *data_args(workspace), "--config", str(path),
                            "--max-epochs", "1", "--out", str(path.parent / "out")]))


@FUZZ
@given(spec=SWEEP_SPECS)
def test_mutated_sweep_spec_never_tracebacks(workspace, tmp_path_factory, capsys, spec):
    path = tmp_path_factory.mktemp("sweep") / "spec.json"
    path.write_text(json.dumps(spec))
    check(*run_cli(capsys, ["sweep", *data_args(workspace), "--spec", str(path),
                            "--out", str(path.parent / "out")]))


@FUZZ
@given(components=st.lists(st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "-inf", "inf", "1e400", "0", "-0.0", "x", ""])),
    min_size=3, max_size=3))
def test_score_components_never_traceback(capsys, components):
    check(*run_cli(capsys, ["score", "--components", *components]))


@pytest.fixture(scope="module")
def predictions(workspace):
    """A predictions file for every labeled id, with fractional ages."""
    labels = load_labels_csv(workspace / "labels.csv")
    path = workspace / "predictions.csv"
    save_predictions_csv(labels.ids, labels.emotion * 0.9 + 0.05, labels.age + 0.25,
                         labels.country, path)
    return path


@FUZZ
@given(data=st.data(), command=st.sampled_from(["score-labels", "score-predictions", "train"]))
def test_damaged_labels_file_never_tracebacks(workspace, predictions, tmp_path_factory, capsys,
                                             data, command):
    # score-predictions damages a predictions file, the others the labels file
    source = predictions if command == "score-predictions" else workspace / "labels.csv"
    blob = bytearray(source.read_bytes())
    if data.draw(st.booleans(), label="truncate"):
        del blob[data.draw(st.integers(0, len(blob) - 1), label="keep"):]
    else:
        positions = st.lists(st.integers(0, len(blob) - 1), max_size=4)
        for pos in data.draw(positions, label="positions"):
            blob[pos] ^= data.draw(st.integers(1, 255), label="xor")
    path = tmp_path_factory.mktemp("labels") / "labels.csv"
    path.write_bytes(bytes(blob))
    if command == "train":
        argv = ["train", *data_args(workspace, labels=path), "--max-epochs", "1",
                "--out", str(path.parent / "out")]
    elif command == "score-labels":
        argv = ["score", "--labels", str(path), "--predictions", str(workspace / "labels.csv")]
    else:
        argv = ["score", "--labels", str(workspace / "labels.csv"), "--predictions", str(path)]
    check(*run_cli(capsys, argv))


def _digits(draw_digits, point, sign):
    return sign + (draw_digits if point < 0 else draw_digits[:point] + "." + draw_digits[point:])


EXTREME = st.one_of(
    st.sampled_from([1e308, -1e308, sys.float_info.max, -sys.float_info.max, 5e-324, -5e-324,
                     sys.float_info.min, -sys.float_info.min, 1.7976931348623155e308]).map(repr),
    st.floats(-sys.float_info.min, sys.float_info.min).map(repr),  # subnormals and zeros
    st.floats(1e300, sys.float_info.max).flatmap(lambda v: st.sampled_from([repr(v), repr(-v)])),
    st.builds(_digits, st.text("0123456789", min_size=18, max_size=25), st.integers(-1, 25),
              st.sampled_from(["", "-"])),
)


@FUZZ
@given(data=st.data(), command=st.sampled_from(
    ["train-features", "eval-features", "train-labels", "score-labels", "score-predictions"]))
def test_extreme_numbers_never_traceback(workspace, predictions, checkpoint, tmp_path_factory,
                                         capsys, data, command):
    # replace up to three numbers of one file with extreme values; the numbers
    # are fields 1..d of a features row, 1..11 of a labels or predictions row
    kind = command.split("-")[1]
    source = {"features": workspace / "val_features.csv", "labels": workspace / "labels.csv",
              "predictions": predictions}[kind]
    lines = source.read_text(encoding="utf-8").split("\n")
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        row = data.draw(st.integers(1, len(lines) - 2), label="row")
        fields = lines[row].split(",")
        last = len(fields) - 1 if kind == "features" else 11
        fields[data.draw(st.integers(1, last), label="field")] = data.draw(EXTREME, label="value")
        lines[row] = ",".join(fields)
    root = tmp_path_factory.mktemp("extreme")
    path = root / source.name
    path.write_text("\n".join(lines), encoding="utf-8")
    labels = workspace / "labels.csv"
    if command == "train-features":
        argv = ["train", "--train-features", str(workspace / "train_features.csv"),
                "--val-features", str(path), "--labels", str(labels), "--max-epochs", "1",
                "--out", str(root / "out")]
    elif command == "eval-features":
        (root / "checkpoint.pmck").write_bytes(checkpoint)
        argv = ["eval", "--checkpoint", str(root / "checkpoint.pmck"), "--features", str(path),
                "--out-predictions", str(root / "predictions.csv")]
    elif command == "train-labels":
        argv = ["train", *data_args(workspace, labels=path), "--max-epochs", "1",
                "--out", str(root / "out")]
    elif command == "score-labels":
        argv = ["score", "--labels", str(path), "--predictions", str(labels)]
    else:
        argv = ["score", "--labels", str(labels), "--predictions", str(path)]
    check(*run_cli(capsys, argv))


@pytest.fixture(scope="module")
def checkpoint(workspace):
    out = workspace / "run"
    (workspace / "base.json").write_text(json.dumps(BASE))
    assert main(["train", *data_args(workspace), "--config", str(workspace / "base.json"),
                 "--out", str(out)]) == 0
    return (out / "checkpoint.pmck").read_bytes()


@FUZZ
@given(data=st.data())
def test_mutated_checkpoint_config_never_tracebacks(workspace, checkpoint, tmp_path_factory,
                                                   capsys, data):
    # the header is magic, u16 version, u32 length, then the JSON the length counts
    length, = struct.unpack_from("<I", checkpoint, 6)
    header = json.loads(checkpoint[10:10 + length])
    header["config"] = data.draw(mutated(header["config"], {None: KEYS["model"]}),
                                 label="config")
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    root = tmp_path_factory.mktemp("eval")
    path, preds = root / "checkpoint.pmck", root / "predictions.csv"
    path.write_bytes(checkpoint[:6] + struct.pack("<I", len(blob)) + blob
                     + checkpoint[10 + length:])
    code, err = run_cli(capsys, ["eval", "--checkpoint", str(path),
                                 "--features", str(workspace / "val_features.csv"),
                                 "--labels", str(workspace / "labels.csv"),
                                 "--out-predictions", str(preds)])
    check(code, err)
    if code == 0:
        rows = preds.read_text(encoding="utf-8").splitlines()
        assert len(rows) == SYNTH["n_val"] + 1
        assert all(len(row.split(",")) == 13 for row in rows), rows
