"""Command-line interface.

Subcommands: ``train`` (one run), ``eval`` (checkpoint + split -> metrics),
``score`` (prediction-file scoring), ``sweep`` (grid over one axis),
``synth`` (generate a synthetic dataset), ``report`` (re-render stored
sweep results). Exit codes: 0 success, 1 usage or config error, 2 data
error, 3 numerical failure. Every setting lives in config files and
flags; no environment variable is read.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .data import (
    STANDARDIZE_MODES,
    FeatureTable,
    SynthSpec,
    build_part,
    check_mode,
    feature_dim,
    join_splits,
    load_features,
    load_labels_csv,
    load_predictions_csv,
    save_features_binary,
    save_features_csv,
    save_labels_csv,
    save_predictions_csv,
    standardize,
    synth_tables,
    write_json,
    write_text,
)
from .errors import ConfigError, DataError, DataFormatError, PmtlError
from .losses import LossConfig
from .metrics import compute_bundle, multitask_score_detail
from .model import ModelConfig, PredictionSet, predict
from .sweep import (
    SweepSpec,
    report_csv,
    report_markdown,
    load_results,
    run_sweep,
    save_results,
    sidecar_csv,
)
from .train import TrainConfig, evaluate, train_run

PROG = "pmtl"
REPORTS = {"markdown": ("report.md", report_markdown), "csv": ("report.csv", report_csv)}

class _Parser(argparse.ArgumentParser):
    """argparse reports usage errors with status 2; the contract is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _object(value, what: str) -> dict:
    """A copy of ``value``, which must be a JSON object."""
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(value).__name__}")
    return dict(value)


def _read_json(path, kind: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {kind} file {path}: {exc}")
    except ValueError as exc:  # also bytes that are not UTF-8 and over-long integers
        raise ConfigError(f"{kind} file {path} is not valid JSON: {exc}")
    return _object(raw, f"{kind} file {path}")


def _sha256(path) -> str:
    import hashlib  # OpenSSL's libcrypto: loaded by train's manifest only, after training
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def parse_train_config(raw: dict, input_dim: int | None = None):
    """Build (TrainConfig, standardize_mode) from a config dict.

    ``model.input_dim`` may be omitted and is then inferred from the
    loaded feature files. Unknown keys are rejected rather than ignored.
    """
    d = _object(raw, "train config")
    mode = check_mode(d.pop("standardize", "zscore"))
    model_d = _object(d.pop("model", {}), "train config 'model'")
    loss_d = _object(d.pop("loss", {}), "train config 'loss'")
    if model_d.get("input_dim") is None:
        if input_dim is None:
            raise ConfigError("model.input_dim missing and no features to infer it from")
        model_d["input_dim"] = input_dim
    try:
        model = ModelConfig(**model_d)
        loss = LossConfig(**loss_d)
        config = TrainConfig(model=model, loss=loss, **d)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad train config: {exc}")
    return config, mode


def _apply_overrides(raw: dict, args) -> dict:
    """Flags beat the config file. A ``--max-epochs`` given without
    ``--patience`` clamps the configured (or default) patience to it."""
    d = dict(raw)
    for key in ("seed", "batch_size", "learning_rate", "max_epochs", "patience"):
        value = getattr(args, key, None)
        if value is not None:
            d[key] = value
    if args.max_epochs is not None and args.patience is None:
        patience = d.get("patience", TrainConfig.patience)
        if isinstance(patience, int) and patience > args.max_epochs:
            d["patience"] = args.max_epochs
    if getattr(args, "standardize", None) is not None:
        d["standardize"] = args.standardize
    return d


def _out_dir(path) -> Path:
    """``--out`` as a Path, checked before the run, which creates it at the
    end: it, or else its nearest existing ancestor, must be a directory."""
    out = Path(path)
    nearest = next((p for p in (out, *out.parents) if p.exists()), out)
    if not nearest.is_dir():
        raise DataError(f"--out {out}: {nearest} is not a directory")
    return out


def _out_files(args, outputs, inputs) -> None:
    """Check each output file given for ``outputs`` before any input is read:
    its directory must exist, it must not be a directory itself, and it must
    not be the file of an ``inputs`` flag or of another output (compared by
    ``realpath``: ``Path.resolve`` raises on a symlink loop)."""
    named = {}  # real path -> the first flag that names it
    for flag in (*inputs, *outputs):
        path = getattr(args, flag[2:].replace("-", "_"))
        other = named.setdefault(os.path.realpath(path), flag) if path else flag
        if not path or flag not in outputs:
            continue
        if Path(path).is_dir():
            raise DataError(f"{flag} {path}: is a directory")
        if not Path(path).parent.is_dir():
            raise DataError(f"{flag} {path}: {Path(path).parent} is not a directory")
        if other != flag:
            raise ConfigError(f"{flag} {path}: the same file as {other}")


def _load_dataset(train_path, val_path, labels):
    features = {"train": load_features(train_path), "val": load_features(val_path)}
    return join_splits(features, labels)


# -- subcommands ------------------------------------------------------------


def cmd_train(args) -> int:
    out = _out_dir(args.out)
    raw = _read_json(args.config, "config") if args.config else {}
    raw = _apply_overrides(raw, args)
    config, mode = parse_train_config(raw, input_dim=feature_dim(args.train_features))
    ds = _load_dataset(args.train_features, args.val_features, load_labels_csv(args.labels))
    ds = standardize(ds, mode)

    start = time.perf_counter()
    params, history = train_run(config, ds)
    wall_seconds = time.perf_counter() - start

    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out / "checkpoint.pmck", params, config.model,
                    ds.age_scaler, ds.train.standardizer)
    write_json({"run": asdict(history), "wall_seconds": wall_seconds}, out / "history.json")
    manifest = {
        "train_config": asdict(config),
        "standardize": mode,
        "inputs": {key: {"path": str(getattr(args, key)), "sha256": _sha256(getattr(args, key))}
                   for key in ("train_features", "val_features", "labels")},
        "best_epoch": history.best_epoch,
        "best_val": asdict(history.best_val),
        "initial_val": asdict(history.initial_val),
        "stopped_early": history.stopped_early,
        "epochs_run": len(history.epochs),
    }
    write_json(manifest, out / "manifest.json")
    print(json.dumps({
        "best_epoch": history.best_epoch,
        "best_val_score": history.best_val.score,
        "initial_val_score": history.initial_val.score,
        "epochs_run": len(history.epochs),
        "out": str(out),
    }, sort_keys=True))
    return 0


def cmd_eval(args) -> int:
    """Predict the rows of ``--features``, read once in file order, one
    ``predict`` block at a time; eval holds that block, the ids and the
    outputs, and puts them in id order at the end to write and score them."""
    if args.labels is None and args.out_predictions is None:
        raise ConfigError("eval needs --labels, --out-predictions, or both")
    if args.out_metrics is not None and args.labels is None:
        raise ConfigError("eval --out-metrics needs --labels")
    _out_files(args, ("--out-predictions", "--out-metrics"),
               ("--checkpoint", "--features", "--labels"))
    ck = load_checkpoint(args.checkpoint)
    dim = feature_dim(args.features)
    if dim != ck.config.input_dim:
        raise DataError(f"{args.features} has {dim} features per row, "
                        f"the checkpoint expects {ck.config.input_dim}")
    try:  # a value near float_info.max overflows here, not in the loader's checks
        with np.errstate(over="raise", invalid="raise"):
            features, preds = load_features(args.features, lambda rows: predict(
                ck.params, ck.config, rows, ck.age_scaler, standardizer=ck.standardizer))
    except DataFormatError:  # it names the file already
        raise
    except (DataError, FloatingPointError) as exc:
        raise DataError(f"{args.features}: {exc}") from None
    labels = load_labels_csv(args.labels) if args.labels else None
    part = build_part(features, labels, "eval")
    preds = PredictionSet(preds.emotion[part.order], preds.age_years[part.order],
                          preds.country[part.order])  # file order into id order
    if args.out_predictions:
        save_predictions_csv(part.ids, preds.emotion, preds.age_years,
                             preds.country, args.out_predictions)
    if labels is not None:
        bundle = evaluate(preds, part)
        if args.out_metrics:
            write_json(asdict(bundle), args.out_metrics)
        print(json.dumps(asdict(bundle), sort_keys=True))
    else:
        print(json.dumps({"predictions": args.out_predictions, "n": len(part)},
                         sort_keys=True))
    return 0


def score_files(predictions_path, labels_path):
    """Score a predictions CSV against a labels CSV, joined by ``build_part``."""
    ids_p, emotion_p, age_p, country_p = load_predictions_csv(predictions_path)
    labels = load_labels_csv(labels_path)
    set_p, set_l = set(ids_p), set(labels.ids)
    if set_p != set_l:
        only_p, only_l = sorted(set_p - set_l), sorted(set_l - set_p)
        raise DataError(f"id mismatch: {len(only_p)} only in predictions {only_p[:5]}, "
                        f"{len(only_l)} only in labels {only_l[:5]}")
    part = build_part(FeatureTable(ids_p, emotion_p), labels, "score")
    return compute_bundle(emotion_p[part.order], part.y_emotion, country_p[part.order],
                          part.y_country, age_p[part.order], part.y_age)


def cmd_score(args) -> int:
    if args.components is not None:
        if any(v is not None for v in (args.predictions, args.labels, args.out_metrics)):
            raise ConfigError("--components takes no --predictions, --labels or --out-metrics")
        try:
            score, flagged = multitask_score_detail(*args.components)
        except ValueError as exc:  # a NaN component
            raise ConfigError(str(exc)) from None
        print(json.dumps({"s_mtl": score, "nonpositive_component": flagged},
                         sort_keys=True))
        return 0
    if not args.predictions or not args.labels:
        raise ConfigError("score needs --predictions and --labels (or --components)")
    _out_files(args, ("--out-metrics",), ("--predictions", "--labels"))
    bundle = score_files(args.predictions, args.labels)
    if args.out_metrics:
        write_json(asdict(bundle), args.out_metrics)
    print(json.dumps(asdict(bundle), sort_keys=True))
    return 0


def _feature_paths(raw: dict, args):
    """``value -> (train path, val path)`` for a sweep's cells, and all their
    paths in cell order. Only a feature_set sweep's paths depend on the
    value: they come from its ``feature_sets`` mapping, the others' from
    the flags."""
    if raw.get("axis") != "feature_set":
        if None in (args.train_features, args.val_features, args.labels):
            raise ConfigError("sweep needs --train-features, --val-features, and --labels")
        pair = (args.train_features, args.val_features)
        return lambda value: pair, pair
    sets, values = raw.get("feature_sets"), raw.get("values")
    if args.labels is None or not (isinstance(sets, dict) and isinstance(values, list)):
        raise ConfigError("feature_set sweep needs --labels, a 'values' list of names and a "
                          "'feature_sets' mapping {name: {train: path, val: path}}")
    if args.train_features is not None or args.val_features is not None:
        raise ConfigError("a feature_set sweep takes its paths from 'feature_sets', "
                          "not --train-features or --val-features")
    for value in values:
        entry = sets.get(value) if isinstance(value, str) else None
        if not (isinstance(entry, dict) and all(
                isinstance(entry.get(split), str) and "\0" not in entry[split]
                for split in ("train", "val"))):
            raise ConfigError(f"feature_sets needs an entry {{train: path, val: path}} "
                              f"without NUL characters for {value!r}")
    pairs = {value: (sets[value]["train"], sets[value]["val"]) for value in values}
    return pairs.__getitem__, [path for pair in pairs.values() for path in pair]


def _cell_data(spec: SweepSpec, paths, mode: str, labels):
    """``value -> SplitDataset`` for ``run_sweep``. A cell's train and val
    paths, ``paths(value)``, are loaded and joined with ``labels`` once, and
    only the last paths' data are held, raw. Each cell's standardization
    (its value on the standardization axis, else ``mode``) is fit once per
    loaded data and shares their rows."""
    raw, fitted = {}, {}

    def cell_data(value):
        pair = paths(value)
        if pair not in raw:
            raw.clear()
            fitted.clear()
            raw[pair] = _load_dataset(*pair, labels)
        cell_mode = value if spec.axis == "standardization" else mode
        if cell_mode not in fitted:
            fitted[cell_mode] = standardize(raw[pair], cell_mode)
        return fitted[cell_mode]
    return cell_data


def cmd_sweep(args) -> int:
    out = _out_dir(args.out)
    raw = _read_json(args.spec, "sweep spec")
    spec_d = dict(raw)
    spec_d.pop("feature_sets", None)
    base_raw = spec_d.pop("base", None)
    if base_raw is None:
        raise ConfigError("sweep spec needs a 'base' train config")
    paths, files = _feature_paths(raw, args)
    # every distinct feature file's header, before any run trains
    widths = [feature_dim(path) for path in dict.fromkeys(files)]
    base, mode = parse_train_config(base_raw, input_dim=widths[0] if widths else None)
    try:
        spec = SweepSpec(base=base, **spec_d)
    except TypeError as exc:
        raise ConfigError(f"bad sweep spec: {exc}")
    table = run_sweep(spec, _cell_data(spec, paths, mode, load_labels_csv(args.labels)))

    out.mkdir(parents=True, exist_ok=True)
    save_results(table, out / "results.json")
    name, render = REPORTS[args.format]
    report_path = out / name
    write_text(render(table), report_path)
    write_text(sidecar_csv(table), out / "full.csv")

    best = table.best_index()
    print(json.dumps({
        "cells": len(table.cells),
        "failed": [c.label for c in table.cells if c.failed],
        "best": table.cells[best].label if best is not None else None,
        "report": str(report_path),
    }, sort_keys=True))
    return max((c.error_code for c in table.cells if c.failed), default=0)


def cmd_synth(args) -> int:
    out = _out_dir(args.out)
    raw = _read_json(args.config, "synth config") if args.config else {}
    if args.seed is not None:
        raw["seed"] = args.seed
    try:
        spec = SynthSpec(**raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad synth config: {exc}")
    features, labels = synth_tables(spec)

    out.mkdir(parents=True, exist_ok=True)
    written = {}
    for split, table in features.items():
        if args.format in ("csv", "both"):
            path = out / f"{split}_features.csv"
            save_features_csv(table, path)
            written[f"{split}_features_csv"] = str(path)
        if args.format in ("binary", "both"):
            path = out / f"{split}_features.bin"
            save_features_binary(table, path)
            written[f"{split}_features_bin"] = str(path)
    labels_path = out / "labels.csv"
    save_labels_csv(labels, labels_path)
    written["labels"] = str(labels_path)
    write_json(asdict(spec), out / "synth.json")
    print(json.dumps({"written": written, "n": {s: len(t) for s, t in features.items()}},
                     sort_keys=True))
    return 0


def cmd_report(args) -> int:
    _out_files(args, ("--out",), ("--results",))
    table = load_results(args.results)
    text = REPORTS[args.format][1](table)
    if args.out:
        write_text(text, args.out)
        print(json.dumps({"report": str(args.out)}, sort_keys=True))
    else:
        sys.stdout.write(text)
    return 0


# -- argument wiring --------------------------------------------------------


def _add_data_args(p, required=True):
    p.add_argument("--train-features", required=required)
    p.add_argument("--val-features", required=required)
    p.add_argument("--labels", required=required)


def build_parser() -> _Parser:
    parser = _Parser(prog=PROG, description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run one training job")
    _add_data_args(p)
    p.add_argument("--config", help="JSON train config")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--learning-rate", type=float, dest="learning_rate")
    p.add_argument("--max-epochs", type=int, dest="max_epochs")
    p.add_argument("--patience", type=int)
    p.add_argument("--standardize", choices=STANDARDIZE_MODES)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--labels")
    p.add_argument("--out-metrics", dest="out_metrics")
    p.add_argument("--out-predictions", dest="out_predictions")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("score", help="score a predictions file against labels")
    p.add_argument("--predictions")
    p.add_argument("--labels")
    p.add_argument("--out-metrics", dest="out_metrics")
    p.add_argument("--components", nargs=3, type=float,
                   metavar=("CCC", "UAR", "INV_MAE"),
                   help="combine three component scores directly")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("sweep", help="grid sweep over one config axis")
    _add_data_args(p, required=False)  # feature_set sweeps carry paths in the spec file
    p.add_argument("--spec", required=True, help="JSON sweep spec")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--format", choices=tuple(REPORTS), default="markdown")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--config", help="JSON synth spec")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int)
    p.add_argument("--format", choices=("csv", "binary", "both"), default="csv")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("report", help="re-render stored sweep results")
    p.add_argument("--results", required=True, help="results.json from a sweep")
    p.add_argument("--format", choices=tuple(REPORTS), default="markdown")
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PmtlError, OSError) as exc:  # an OSError is a data error
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)
