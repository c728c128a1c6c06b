"""Grid sweeps over one config axis, with aggregation and report rendering.

A sweep varies exactly one axis (seed, batch_size, feature_set, or
standardization) over a list of values. Each cell executes
``runs_per_cell`` training runs whose seeds are derived as
``derive_subseed(cell_seed, run_index)``, so repeated runs differ but the
whole sweep is a pure function of (spec, data). Cells run one after
another in the spec's value order, in the calling thread: the training
step holds the interpreter lock, so threads would only slow a sweep down.

Aggregation is either ``mean_std`` (per-metric mean and population std
over runs; the combined-score column is the mean of per-run scores, not
the harmonic mean of the other columns) or ``best`` (the single run with
the highest combined score; ties go to the earliest run). A cell in which
any run raises a PmtlError is recorded as failed and excluded from
aggregation and best-cell selection; the sweep itself continues. Any other
exception is a bug and propagates.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, replace
from typing import Literal

import numpy as np

from .data import check_mode, write_json
from .errors import ConfigError, DataFormatError, PmtlError, check_fields
from .metrics import MetricsBundle
from .rng import derive_subseed
from .train import TrainConfig, train_run


@dataclass(frozen=True)
class SweepSpec:
    axis: Literal["seed", "batch_size", "feature_set", "standardization"]
    values: tuple
    base: TrainConfig
    runs_per_cell: int = 5
    aggregation: Literal["mean_std", "best"] = "mean_std"

    def __post_init__(self):
        check_fields(self)
        if not self.values:
            raise ConfigError("sweep needs at least one value")
        if self.runs_per_cell < 1:
            raise ConfigError(f"runs_per_cell must be >= 1, got {self.runs_per_cell}")
        try:
            for value in self.values:
                self.cell_config(value)
                if self.axis == "standardization":
                    check_mode(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad sweep value: {exc}") from None

    def cell_config(self, value) -> TrainConfig:
        """Base config specialized to one cell value. Data-side axes
        (feature_set, standardization) leave the config untouched."""
        if self.axis == "seed":
            return replace(self.base, seed=value)
        if self.axis == "batch_size":
            return replace(self.base, batch_size=value)
        return self.base


@dataclass(frozen=True)
class RunOutcome:
    seed: int
    best_epoch: int
    bundle: MetricsBundle


@dataclass(frozen=True)
class CellResult:
    label: str
    value: object
    runs: tuple[RunOutcome, ...]
    error: str | None = None
    error_code: int | None = None  # exit code class of the failure

    @property
    def failed(self) -> bool:
        return self.error is not None


@dataclass(frozen=True)
class ReportRow:
    label: str
    ccc: float
    uar: float
    inv_mae: float
    s_mtl: float
    ccc_std: float | None = None
    uar_std: float | None = None
    inv_mae_std: float | None = None
    s_mtl_std: float | None = None


# report column -> the MetricsBundle field it aggregates
METRIC_FIELDS = {"ccc": "mean_ccc", "uar": "uar", "inv_mae": "inv_mae", "s_mtl": "score"}
METRIC_NAMES = tuple(METRIC_FIELDS)


@dataclass(frozen=True)
class ReportTable:
    axis: str
    aggregation: str
    cells: tuple[CellResult, ...]

    @property
    def has_failures(self) -> bool:
        return any(c.failed for c in self.cells)

    def rows(self) -> list[ReportRow | None]:
        """One rendered row per cell, None for failed cells."""
        return [None if cell.failed else _aggregate(cell, self.aggregation)
                for cell in self.cells]

    def best_index(self) -> int | None:
        """Index of the highest combined-score row; ties go to the first."""
        best, best_score = None, -np.inf
        for i, row in enumerate(self.rows()):
            if row is not None and row.s_mtl > best_score:
                best, best_score = i, row.s_mtl
        return best


def _aggregate(cell: CellResult, aggregation: str) -> ReportRow:
    if aggregation == "best":
        scores = [r.bundle.score for r in cell.runs]
        best = cell.runs[int(np.argmax(scores))]  # argmax ties -> earliest run
        return ReportRow(cell.label, **{name: getattr(best.bundle, field)
                                        for name, field in METRIC_FIELDS.items()})
    row = {}
    for name, field in METRIC_FIELDS.items():
        column = np.array([getattr(r.bundle, field) for r in cell.runs])
        row[name], row[name + "_std"] = float(column.mean()), float(column.std())
    return ReportRow(cell.label, **row)


# -- execution --------------------------------------------------------------


def _run_cell(spec: SweepSpec, value, cell_data) -> CellResult:
    label = f"{spec.axis}={value}"
    runs = []
    try:
        dataset = cell_data(value)
        config = spec.cell_config(value)
        if spec.axis == "feature_set" and dataset.dim != config.model.input_dim:
            # feature sets legitimately differ in width; size each cell's
            # model to its own data
            config = replace(config, model=replace(config.model, input_dim=dataset.dim))
        for r in range(spec.runs_per_cell):
            run_config = replace(config, seed=derive_subseed(config.seed, r))
            _, history = train_run(run_config, dataset)
            runs.append(RunOutcome(seed=run_config.seed, best_epoch=history.best_epoch,
                                   bundle=history.best_val))
    except PmtlError as exc:
        return CellResult(label=label, value=value, runs=tuple(runs),
                          error=f"{type(exc).__name__}: {exc}", error_code=exc.exit_code)
    return CellResult(label=label, value=value, runs=tuple(runs))


def run_sweep(spec: SweepSpec, cell_data) -> ReportTable:
    """Execute every cell, in value order, and assemble the report.

    ``cell_data(value)`` gives the standardized SplitDataset a cell trains
    on. It is called once per cell, just before that cell's runs, and a
    PmtlError it raises fails that cell. No reference to the dataset is kept
    once the cell has ended, so a ``cell_data`` that builds each cell's data
    lets the sweep hold one cell's data at a time.
    """
    cells = tuple(_run_cell(spec, value, cell_data) for value in spec.values)
    return ReportTable(axis=spec.axis, aggregation=spec.aggregation, cells=cells)


# -- rendering --------------------------------------------------------------


def _report_cells(table: ReportTable):
    """Yield ``(cell, texts, mark)`` per cell. ``texts`` holds, per metric
    in METRIC_NAMES order, its 3-decimal value and, under mean_std, its
    std; it is None for a failed cell. ``mark`` is ``*`` on the best row."""
    best = table.best_index()
    for i, (cell, row) in enumerate(zip(table.cells, table.rows())):
        if row is None:
            yield cell, None, ""
            continue
        texts = [tuple(f"{v:.3f}" for v in (getattr(row, name), getattr(row, name + "_std"))
                       if v is not None)
                 for name in METRIC_NAMES]
        yield cell, texts, "*" if i == best else ""


def report_markdown(table: ReportTable) -> str:
    """Markdown table, one row per cell, 3-decimal values, best row
    marked with ``*``; ± std shown only under mean_std aggregation."""
    header = ["cell", *METRIC_NAMES, "best"]
    lines = ["| " + " | ".join(header) + " |",
             "|" + "---|" * len(header)]
    for cell, texts, mark in _report_cells(table):
        values = (["error"] * len(METRIC_NAMES) if texts is None
                  else [" ± ".join(pair) for pair in texts])
        lines.append("| " + " | ".join([cell.label, *values, mark]) + " |")
    body = "\n".join(lines) + "\n"
    notes = "".join(f"- {c.label}: {c.error}\n" for c in table.cells if c.failed)
    if notes:
        body += "\nFailed cells:\n" + notes
    return body


def report_csv(table: ReportTable) -> str:
    """CSV report at 3-decimal precision; std columns only under mean_std."""
    suffixes = ("", "_std") if table.aggregation == "mean_std" else ("",)
    columns = [name + suffix for name in METRIC_NAMES for suffix in suffixes]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["cell", *columns, "best", "error"])
    for cell, texts, mark in _report_cells(table):
        values = [""] * len(columns) if texts is None else [t for pair in texts for t in pair]
        writer.writerow([cell.label, *values, mark, cell.error])
    return buf.getvalue()


def sidecar_csv(table: ReportTable) -> str:
    """Full-precision per-run values backing the rounded report."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["cell", "run", "seed", "best_epoch",
                     "ccc", "uar", "mae_years", "inv_mae", "s_mtl"])
    for cell in table.cells:
        for r, run in enumerate(cell.runs):
            b = run.bundle
            writer.writerow([
                cell.label, r, run.seed, run.best_epoch,
                repr(b.mean_ccc), repr(b.uar), repr(b.mae_years),
                repr(b.inv_mae), repr(b.score),
            ])
    return buf.getvalue()


def save_results(table: ReportTable, path) -> None:
    write_json(asdict(table), path)


def _table_from_dict(d: dict) -> ReportTable:
    """Inverse of ``asdict(table)`` after a JSON round trip. Raises
    TypeError for a value the report could not render."""
    cells = []
    for c in d["cells"]:
        runs = tuple(RunOutcome(**{**r, "bundle": MetricsBundle.from_dict(r["bundle"])})
                     for r in c["runs"])
        for run in runs:
            b = run.bundle
            numbers = (run.seed, run.best_epoch, *b.ccc_per_emotion, b.mean_ccc, b.uar,
                       b.mae_years, b.inv_mae, b.score)
            if not all(type(v) in (int, float) for v in numbers):
                raise TypeError(f"non-numeric metric in cell {c['label']!r}")
        if not isinstance(c["label"], str):
            raise TypeError(f"cell label {c['label']!r} is not a string")
        cells.append(CellResult(**{**c, "runs": runs}))
    return ReportTable(**{**d, "cells": tuple(cells)})


def load_results(path) -> ReportTable:
    """Read a stored ``results.json``; a file that is not one, or that
    holds a value of the wrong type, raises DataFormatError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return _table_from_dict(json.loads(raw))
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"not a sweep results file: {type(exc).__name__}: {exc}",
                              path) from None
