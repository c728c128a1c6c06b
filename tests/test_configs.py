"""Every config file shipped in ``configs/`` parses as what its name says.

``train_*`` files are train configs, ``sweep_*`` files sweep specs with a
``base`` train config, and ``synth_*`` files synthetic-dataset specs. The
benchmark reads ``train_synth.json`` and ``sweep_seeds.json``, so a field
removed from a config dataclass shows here before it shows there.
"""

import argparse
import json
from pathlib import Path

import pytest

from pmtl.cli import _feature_paths, parse_train_config
from pmtl.data import SynthSpec
from pmtl.sweep import SweepSpec
from pmtl.train import TrainConfig

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))
INPUT_DIM = 64  # stands in for the width that the feature files would give


def test_configs_are_shipped():
    names = {path.name for path in CONFIGS}
    assert {"train_synth.json", "sweep_seeds.json", "synth_small.json"} <= names


@pytest.mark.parametrize("path", CONFIGS, ids=[path.name for path in CONFIGS])
def test_shipped_config_parses(path):
    raw = json.loads(path.read_text(encoding="utf-8"))
    kind = path.name.split("_", 1)[0]
    if kind == "train":
        config, _ = parse_train_config(raw, input_dim=INPUT_DIM)
        assert isinstance(config, TrainConfig)
    elif kind == "sweep":
        # a feature_set sweep takes its paths from the spec and refuses the flags
        train, val = (None, None) if raw["axis"] == "feature_set" else ("train.csv", "val.csv")
        flags = argparse.Namespace(train_features=train, val_features=val, labels="labels.csv")
        _feature_paths(raw, flags)
        spec = dict(raw)
        spec.pop("feature_sets", None)
        base, _ = parse_train_config(spec.pop("base"), input_dim=INPUT_DIM)
        assert SweepSpec(base=base, **spec).base == base
    else:
        assert kind == "synth", f"{path.name}: no parser for a {kind!r} config"
        SynthSpec(**raw)
