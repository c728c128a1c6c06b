"""The benchmark's workloads: their inputs, their commands and the checks
on what the commands write.

Every input is made from the workload seed with ``pmtl``'s own synthetic
generator (``synth_tables`` and the ``save_*`` writers) before anything is
timed; the commands only ever see the files. Each training run sets
``patience = max_epochs`` so early stopping cannot change the work a run
does.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass, field
from pathlib import Path


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def sha256_json(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Inputs:
    """The files one workload run reads, and what they hold."""

    files: dict = field(default_factory=dict)   # role -> Path
    shapes: dict = field(default_factory=dict)  # role -> (rows, width) of a table
    rows: int = 0                               # rows the eval workload scores

    def sync(self) -> None:
        """Flush the inputs to disk, so no write-back runs while timing."""
        for path in self.files.values():
            with open(path, "rb") as fh:
                os.fsync(fh.fileno())

    def describe(self) -> dict:
        out = {}
        for role, path in self.files.items():
            out[role] = {"path": path.name, "bytes": path.stat().st_size,
                         "sha256": sha256_file(path)}
            if role in self.shapes:
                out[role]["rows"], out[role]["width"] = self.shapes[role]
        return out


@dataclass(frozen=True)
class Command:
    argv: list
    env: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str          # "train", "sweep" or "eval"
    sizes: dict        # full-size parameters
    smoke_sizes: dict  # toy parameters for --smoke

    def throughput_name(self) -> str:
        return "eval_rows_per_s" if self.kind == "eval" else "train_samples_per_s"


WORKLOADS = {w.name: w for w in (
    Workload(
        name="train_paper_b8_w1024", kind="train",
        sizes=dict(n_train=1000, n_val=250, dim=1024, batch_size=8,
                   epochs=2, format="csv"),
        smoke_sizes=dict(n_train=40, n_val=20, dim=16, batch_size=8,
                         epochs=2, format="csv"),
    ),
    Workload(
        name="train_wide_b256_w6373", kind="train",
        sizes=dict(n_train=2000, n_val=500, dim=6373, batch_size=256,
                   epochs=3, format="binary"),
        smoke_sizes=dict(n_train=40, n_val=20, dim=24, batch_size=16,
                         epochs=2, format="binary"),
    ),
    Workload(
        name="sweep_seeds_w64_x2", kind="sweep",
        sizes=dict(n_train=2000, n_val=500, dim=64, batch_size=8, epochs=1,
                   cells=2, runs_per_cell=2, workers=2, format="binary"),
        smoke_sizes=dict(n_train=40, n_val=20, dim=16, batch_size=8, epochs=2,
                         cells=2, runs_per_cell=2, workers=2, format="binary"),
    ),
    Workload(
        name="eval_score_csv_w1024", kind="eval",
        sizes=dict(n_train=1000, n_val=250, n_test=1000, dim=1024, epochs=1),
        smoke_sizes=dict(n_train=40, n_val=20, n_test=30, dim=16, epochs=1),
    ),
)}


# -- set-up -------------------------------------------------------------------


def _train_config(root: Path, batch_size: int, epochs: int) -> dict:
    with open(root / "configs" / "train_synth.json", encoding="utf-8") as fh:
        cfg = json.load(fh)
    cfg.update(batch_size=batch_size, max_epochs=epochs, patience=epochs)
    return cfg


def _write_json(obj, path: Path) -> Path:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def setup(workload: Workload, root: Path, work: Path, seed: int, smoke: bool) -> Inputs:
    """Write the inputs of one run of ``workload`` under ``work``."""
    from pmtl.data import (LabelTable, SynthSpec, save_features_binary,
                           save_features_csv, save_labels_csv, synth_tables)

    s = workload.smoke_sizes if smoke else workload.sizes
    if workload.kind == "sweep":
        with open(root / "configs" / "synth_small.json", encoding="utf-8") as fh:
            synth = json.load(fh)
        synth.update(n_train=s["n_train"], n_val=s["n_val"], dim=s["dim"], seed=seed)
        spec = SynthSpec(**synth)
    else:
        spec = SynthSpec(n_train=s["n_train"], n_val=s["n_val"],
                         n_test=s.get("n_test", 0), dim=s["dim"],
                         rank=min(8, s["dim"]), seed=seed)
    features, labels = synth_tables(spec)
    inputs = Inputs()

    def features_file(split, fmt):
        table = features[split]
        if fmt == "csv":
            path = work / f"{split}_features.csv"
            save_features_csv(table, path)
        else:
            path = work / f"{split}_features.bin"
            save_features_binary(table, path)
        inputs.files[split] = path
        inputs.shapes[split] = (len(table), table.dim)

    def labels_file(role, table):
        path = work / f"{role}.csv"
        save_labels_csv(table, path)
        inputs.files[role] = path
        inputs.shapes[role] = (len(table), 13)

    if workload.kind == "eval":
        features_file("train", "binary")
        features_file("val", "binary")
        features_file("test", "csv")
        labels_file("labels", labels)
        # score needs the label ids to equal the prediction ids
        n_fit = s["n_train"] + s["n_val"]
        labels_file("test_labels", LabelTable(
            ids=labels.ids[n_fit:], emotion=labels.emotion[n_fit:],
            age=labels.age[n_fit:], country=labels.country[n_fit:]))
        inputs.rows = s["n_test"]
        cfg = _write_json(_train_config(root, 8, s["epochs"]), work / "train_config.json")
        checkpoint_dir = work / "checkpoint_run"
        from pmtl.cli import main as pmtl_main
        with contextlib.redirect_stdout(io.StringIO()):
            rc = pmtl_main([
                "train", "--train-features", str(inputs.files["train"]),
                "--val-features", str(inputs.files["val"]),
                "--labels", str(inputs.files["labels"]),
                "--config", str(cfg), "--out", str(checkpoint_dir)])
        if rc != 0:
            raise RuntimeError(f"set-up training for {workload.name} exited {rc}")
        inputs.files["checkpoint"] = checkpoint_dir / "checkpoint.pmck"
        return inputs

    features_file("train", s["format"])
    features_file("val", s["format"])
    labels_file("labels", labels)
    cfg = _train_config(root, s["batch_size"], s["epochs"])
    if workload.kind == "train":
        inputs.files["config"] = _write_json(cfg, work / "train_config.json")
        return inputs

    with open(root / "configs" / "sweep_seeds.json", encoding="utf-8") as fh:
        sweep = json.load(fh)
    base = dict(sweep["base"], batch_size=s["batch_size"],
                max_epochs=s["epochs"], patience=s["epochs"])
    sweep.update(values=sweep["values"][:s["cells"]],
                 runs_per_cell=s["runs_per_cell"], base=base)
    inputs.files["spec"] = _write_json(sweep, work / "sweep_spec.json")
    return inputs


# -- commands and checks --------------------------------------------------------


def commands(workload: Workload, inputs: Inputs, out: Path, smoke: bool) -> list:
    f = {role: str(path) for role, path in inputs.files.items()}
    data = ["--train-features", f["train"], "--val-features", f["val"],
            "--labels", f["labels"]]
    if workload.kind == "train":
        return [Command(["train", *data, "--config", f["config"], "--out", str(out)])]
    if workload.kind == "sweep":
        s = workload.smoke_sizes if smoke else workload.sizes
        return [Command(["sweep", *data, "--spec", f["spec"], "--out", str(out)],
                        env={"PMTL_WORKERS": str(s["workers"])})]
    predictions = str(out / "predictions.csv")
    return [
        Command(["eval", "--checkpoint", f["checkpoint"], "--features", f["test"],
                 "--labels", f["test_labels"], "--out-predictions", predictions]),
        Command(["score", "--predictions", predictions, "--labels", f["test_labels"]]),
    ]


def check(workload: Workload, inputs: Inputs, out: Path, stdouts: list,
          smoke: bool) -> tuple[dict, list]:
    """Digest what one repeat wrote and check it; returns (digests, problems).

    The digests must repeat across the repeats of one run: same code, same
    seed, same bytes.
    """
    s = workload.smoke_sizes if smoke else workload.sizes
    problems = []
    if workload.kind == "train":
        history = json.loads((out / "history.json").read_text(encoding="utf-8"))
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        digests = {"history_run": sha256_json(history["run"]),
                   "checkpoint": sha256_file(out / "checkpoint.pmck")}
        if not manifest["best_val"]["score"] > manifest["initial_val"]["score"]:
            problems.append("best_val.score is not above initial_val.score")
        if manifest["epochs_run"] != s["epochs"]:
            problems.append(f"ran {manifest['epochs_run']} epochs, not {s['epochs']}")
        return digests, problems

    if workload.kind == "sweep":
        results = json.loads((out / "results.json").read_text(encoding="utf-8"))
        digests = {"results": sha256_file(out / "results.json")}
        failed = [c.get("label") for c in results["cells"] if c.get("error")]
        if failed:
            problems.append(f"failed cells: {failed}")
        if len(results["cells"]) != s["cells"]:
            problems.append(f"{len(results['cells'])} cells, not {s['cells']}")
        return digests, problems

    predictions = out / "predictions.csv"
    eval_bundle, score_bundle = (json.loads(text.strip().splitlines()[-1])
                                 for text in stdouts)
    digests = {"predictions": sha256_file(predictions),
               "bundle": sha256_json(eval_bundle)}
    if eval_bundle != score_bundle:
        problems.append("score printed another bundle than eval --labels")
    with open(predictions, encoding="utf-8") as fh:
        rows = sum(1 for _ in fh) - 1
    if rows != inputs.rows:
        problems.append(f"predictions have {rows} rows, not {inputs.rows}")
    return digests, problems
