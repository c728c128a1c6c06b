"""Golden runs: pinned digests of two small end-to-end training runs.

Each case synthesizes a tiny dataset with ``pmtl synth``, trains on it
with ``pmtl train`` and pins the sha256 of the canonical ``run`` object of
``history.json`` and of the ``checkpoint.pmck`` bytes. Any change that
moves a single bit of a training run shows here. Update a digest only
together with a CHANGES.md entry that gives the reason.

The digests hold for float64 numpy on x86-64 with OpenBLAS; another BLAS
may round matrix products differently.
"""

import hashlib
import json

import pytest

from pmtl.cli import main

SYNTH = {"n_train": 96, "n_val": 40, "dim": 12, "rank": 4, "seed": 23}

MODEL = {"shared_dims": [10, 6], "age_head_dims": [5, 3],
         "emotion_hidden": 5, "country_hidden": 5}

CASES = {
    "two-layer-age-sigmoid": (
        {"model": MODEL, "seed": 8, "batch_size": 8,
         "max_epochs": 3, "patience": 3},
        "0ed1e14d7ff219c20733695fa8ff6ccc18de983e0df47a27c004d7c2efa84ad8",
        "919588dac86bff27e601e7aa37c84174dcb13901cf31985b8de257389db3e516",
    ),
    "one-hidden-all-linear": (
        {"model": dict(MODEL, age_head_dims=[5], head_variant="one-hidden-all",
                       emotion_activation="linear"),
         "seed": 9, "batch_size": 8, "max_epochs": 3, "patience": 3},
        "169916f6465c6cadd0ddf6b040d10046999b29370684e56fa0d8a0a3900d8539",
        "6d4e7cf00621b701f6bce911655a215a4dfc7f9d3d9fc836ae460cd3d4f4297f",
    ),
}


def _sha256_json(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    (root / "synth.json").write_text(json.dumps(SYNTH))
    assert main(["synth", "--config", str(root / "synth.json"),
                 "--out", str(root / "data")]) == 0
    return root / "data"


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_run_digests(case, synth_dir, tmp_path, capsys):
    config, history_digest, checkpoint_digest = CASES[case]
    (tmp_path / "train.json").write_text(json.dumps(config))
    out = tmp_path / "run"
    assert main(["train",
                 "--train-features", str(synth_dir / "train_features.csv"),
                 "--val-features", str(synth_dir / "val_features.csv"),
                 "--labels", str(synth_dir / "labels.csv"),
                 "--config", str(tmp_path / "train.json"),
                 "--out", str(out)]) == 0
    history = json.loads((out / "history.json").read_text())
    checkpoint = hashlib.sha256((out / "checkpoint.pmck").read_bytes()).hexdigest()
    assert (_sha256_json(history["run"]), checkpoint) == (history_digest,
                                                          checkpoint_digest)
