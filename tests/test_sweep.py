"""Sweep execution, aggregation, fault isolation, and report rendering."""

import csv
import io
import weakref

import numpy as np
import pytest

import pmtl.sweep
from pmtl.data import SynthSpec, standardize, synth_dataset
from pmtl.errors import ConfigError, DataFormatError
from pmtl.metrics import MetricsBundle
from pmtl.model import ModelConfig
from pmtl.rng import derive_subseed
from pmtl.sweep import (
    CellResult,
    ReportTable,
    RunOutcome,
    SweepSpec,
    load_results,
    report_csv,
    report_markdown,
    run_sweep,
    save_results,
    sidecar_csv,
)
from pmtl.train import TrainConfig, train_run
import dataclasses


def base_config(input_dim=16, **overrides):
    model = ModelConfig(input_dim=input_dim, shared_dims=(12, 6),
                        age_head_dims=(6, 3), emotion_hidden=6, country_hidden=6)
    fields = dict(model=model, seed=42, batch_size=8, max_epochs=2, patience=2)
    fields.update(overrides)
    return TrainConfig(**fields)


@pytest.fixture(scope="module")
def sweep_dataset():
    ds = synth_dataset(SynthSpec(n_train=120, n_val=48, dim=16, rank=4, seed=17))
    return standardize(ds, "zscore")


def make_bundle(score, uar=0.5, inv_mae=0.4, mean_ccc=0.3):
    return MetricsBundle(
        ccc_per_emotion=tuple([mean_ccc] * 10),
        mean_ccc=mean_ccc,
        uar=uar,
        mae_years=1.0 / inv_mae - 1.0,
        inv_mae=inv_mae,
        score=score,
    )


def make_cell(label, scores, value=None):
    runs = tuple(
        RunOutcome(seed=i, best_epoch=1, bundle=make_bundle(s))
        for i, s in enumerate(scores)
    )
    return CellResult(label=label, value=value or label, runs=runs)


# -- spec -------------------------------------------------------------------


@pytest.mark.parametrize("overrides", [
    {"axis": "learning_rate"},
    {"values": ()},
    {"runs_per_cell": 0},
    {"aggregation": "median"},
    {"runs_per_cell": 1.5},
    {"runs_per_cell": True},
    {"axis": "standardization", "values": ("zscore", "robust")},
])
def test_sweep_spec_validation(overrides):
    fields = dict(axis="seed", values=(1, 2), base=base_config(),
                  runs_per_cell=2, aggregation="mean_std")
    fields.update(overrides)
    with pytest.raises(ConfigError):
        SweepSpec(**fields)


def test_cell_config_touches_only_its_axis():
    base = base_config()
    assert SweepSpec(axis="seed", values=(7,), base=base).cell_config(7).seed == 7
    bs = SweepSpec(axis="batch_size", values=(4,), base=base).cell_config(4)
    assert bs.batch_size == 4 and bs.seed == base.seed
    for axis, value in (("feature_set", "x"), ("standardization", "minmax")):
        spec = SweepSpec(axis=axis, values=(value,), base=base)
        assert spec.cell_config(value) == base


# -- execution --------------------------------------------------------------


def test_single_cell_sweep_matches_direct_run(sweep_dataset):
    """A one-value one-run sweep is exactly one training run whose seed is
    the first derived sub-seed of the cell seed."""
    spec = SweepSpec(axis="seed", values=(42,), base=base_config(),
                     runs_per_cell=1)
    table = run_sweep(spec, lambda value: sweep_dataset)
    direct_config = dataclasses.replace(base_config(), seed=derive_subseed(42, 0))
    _, history = train_run(direct_config, sweep_dataset)
    run = table.cells[0].runs[0]
    assert run.seed == direct_config.seed
    assert dataclasses.asdict(run.bundle) == dataclasses.asdict(history.best_val)
    assert run.best_epoch == history.best_epoch


def test_runs_within_cell_use_distinct_seeds(sweep_dataset):
    spec = SweepSpec(axis="seed", values=(9,), base=base_config(),
                     runs_per_cell=3)
    table = run_sweep(spec, lambda value: sweep_dataset)
    seeds = [r.seed for r in table.cells[0].runs]
    assert seeds == [derive_subseed(9, r) for r in range(3)]
    assert len(set(seeds)) == 3


def test_cells_reproduce_in_isolation(sweep_dataset):
    # a cell's result depends only on its own value, not on the cells run
    # before it
    spec = SweepSpec(axis="batch_size", values=(4, 8, 16), base=base_config(),
                     runs_per_cell=2)
    table = run_sweep(spec, lambda value: sweep_dataset)
    last = run_sweep(dataclasses.replace(spec, values=(16,)), lambda value: sweep_dataset)
    assert dataclasses.asdict(last.cells[0]) == dataclasses.asdict(table.cells[2])


def test_cell_failure_is_isolated(sweep_dataset):
    bad = synth_dataset(SynthSpec(n_train=60, n_val=20, dim=5, rank=2, seed=1))
    spec = SweepSpec(axis="seed", values=(1, 2), base=base_config(),
                     runs_per_cell=1)
    # dim-5 data against the dim-16 model: that cell alone must fail
    table = run_sweep(spec, {1: sweep_dataset, 2: standardize(bad, "none")}.__getitem__)
    good, failed = table.cells
    assert not good.failed
    assert failed.failed
    assert "ConfigError" in failed.error
    assert failed.error_code == 1
    assert any(c.failed for c in table.cells)
    assert table.rows()[1] is None
    assert table.best_index() == 0


@pytest.mark.parametrize("broken_cell", [1, 2])
def test_programming_error_in_cell_propagates(sweep_dataset, monkeypatch, broken_cell):
    # only PmtlError marks a cell failed; a bug is not a numerical failure,
    # in the first cell or after a cell that succeeded
    def broken_train_run(config, data):
        if config.seed == derive_subseed(broken_cell, 0):
            raise TypeError("unsupported operand")
        return train_run(config, data)

    monkeypatch.setattr(pmtl.sweep, "train_run", broken_train_run)
    spec = SweepSpec(axis="seed", values=(1, 2), base=base_config(), runs_per_cell=1)
    with pytest.raises(TypeError, match="unsupported operand"):
        run_sweep(spec, lambda value: sweep_dataset)


def test_feature_set_axis_adapts_model_width(sweep_dataset):
    narrow = standardize(
        synth_dataset(SynthSpec(n_train=80, n_val=60, dim=5, rank=2, seed=2)),
        "zscore",
    )
    spec = SweepSpec(axis="feature_set", values=("wide", "narrow"),
                     base=base_config(), runs_per_cell=1)
    table = run_sweep(spec, {"wide": sweep_dataset, "narrow": narrow}.__getitem__)
    assert not any(c.failed for c in table.cells)
    assert [c.label for c in table.cells] == ["feature_set=wide", "feature_set=narrow"]


def test_cell_data_error_fails_only_that_cell(sweep_dataset):
    # a data error raised while a cell's data loads is that cell's failure
    def cell_data(value):
        if value == "bad":
            raise DataFormatError("cannot parse 'x' as float", "bad.csv", 3)
        return sweep_dataset

    spec = SweepSpec(axis="feature_set", values=("bad", "good"), base=base_config(),
                     runs_per_cell=1)
    failed, good = run_sweep(spec, cell_data).cells
    assert failed.failed and failed.error_code == 2 and failed.runs == ()
    assert "DataFormatError: bad.csv:3" in failed.error
    assert not good.failed


def test_cell_data_is_requested_per_cell_and_released(sweep_dataset):
    # each cell asks for its data just before its runs, and the sweep keeps
    # no reference to it once the cell has ended
    calls, released = [], []

    def cell_data(value):
        released.append([ref() is None for ref in calls])
        ds = dataclasses.replace(sweep_dataset)  # a new object each cell
        calls.append(weakref.ref(ds))
        return ds

    spec = SweepSpec(axis="batch_size", values=(4, 8, 16), base=base_config(),
                     runs_per_cell=2)
    run_sweep(spec, cell_data)
    assert released == [[], [True], [True, True]]
    assert calls[-1]() is None


# -- aggregation ------------------------------------------------------------


def test_mean_std_aggregation_oracle():
    scores = [0.2, 0.4, 0.9]
    table = ReportTable(axis="seed", aggregation="mean_std",
                        cells=(make_cell("seed=1", scores),))
    row = table.rows()[0]
    mean = sum(scores) / 3
    # population std, by hand
    std = (sum((s - mean) ** 2 for s in scores) / 3) ** 0.5
    assert row.s_mtl == pytest.approx(mean, abs=1e-15)
    assert row.s_mtl_std == pytest.approx(std, abs=1e-15)


def test_best_aggregation_picks_highest_score_earliest_tie():
    table = ReportTable(axis="seed", aggregation="best",
                        cells=(make_cell("seed=1", [0.3, 0.7, 0.7]),))
    row = table.rows()[0]
    assert row.s_mtl == 0.7
    assert row.s_mtl_std is None
    # ties: run index 1, not 2
    cell = table.cells[0]
    scores = [r.bundle.score for r in cell.runs]
    assert int(np.argmax(scores)) == 1


def test_best_index_tie_goes_to_first_cell():
    table = ReportTable(axis="seed", aggregation="best",
                        cells=(make_cell("seed=1", [0.5]),
                               make_cell("seed=2", [0.5])))
    assert table.best_index() == 0


# -- rendering --------------------------------------------------------------


def test_markdown_golden_best():
    table = ReportTable(
        axis="batch_size", aggregation="best",
        cells=(make_cell("batch_size=2", [0.41235]),
               make_cell("batch_size=4", [0.52641])),
    )
    expected = (
        "| cell | ccc | uar | inv_mae | s_mtl | best |\n"
        "|---|---|---|---|---|---|\n"
        "| batch_size=2 | 0.300 | 0.500 | 0.400 | 0.412 |  |\n"
        "| batch_size=4 | 0.300 | 0.500 | 0.400 | 0.526 | * |\n"
    )
    assert report_markdown(table) == expected


def test_markdown_mean_std_has_plus_minus():
    table = ReportTable(axis="seed", aggregation="mean_std",
                        cells=(make_cell("seed=1", [0.4, 0.6]),))
    text = report_markdown(table)
    assert "0.500 ± 0.100" in text
    table_best = ReportTable(axis="seed", aggregation="best",
                             cells=(make_cell("seed=1", [0.4, 0.6]),))
    assert "±" not in report_markdown(table_best)


def test_markdown_failed_cell_row_and_notes():
    failed = CellResult(label="seed=2", value=2, runs=(),
                        error="ConfigError: boom", error_code=1)
    table = ReportTable(axis="seed", aggregation="best",
                        cells=(make_cell("seed=1", [0.5]), failed))
    text = report_markdown(table)
    assert "| seed=2 | error | error | error | error |  |" in text
    assert "Failed cells:" in text
    assert "ConfigError: boom" in text


def test_csv_report_structure():
    table = ReportTable(axis="seed", aggregation="mean_std",
                        cells=(make_cell("seed=1", [0.4, 0.6]),))
    rows = list(csv.reader(io.StringIO(report_csv(table))))
    assert rows[0] == ["cell", "ccc", "ccc_std", "uar", "uar_std",
                       "inv_mae", "inv_mae_std", "s_mtl", "s_mtl_std",
                       "best", "error"]
    assert rows[1][0] == "seed=1"
    assert rows[1][7] == "0.500"
    assert rows[1][9] == "*"

    best_rows = list(csv.reader(io.StringIO(report_csv(
        ReportTable(axis="seed", aggregation="best", cells=table.cells)))))
    assert best_rows[0] == ["cell", "ccc", "uar", "inv_mae", "s_mtl",
                            "best", "error"]


REPORT_GOLDEN = {
    ("markdown", "mean_std"): (
        "| cell | ccc | uar | inv_mae | s_mtl | best |\n"
        "|---|---|---|---|---|---|\n"
        "| seed=1 | 0.300 ± 0.000 | 0.500 ± 0.000 | 0.400 ± 0.000 | 0.500 ± 0.100 |  |\n"
        "| seed=3 | error | error | error | error |  |\n"
        "| seed=2 | 0.300 ± 0.000 | 0.500 ± 0.000 | 0.400 ± 0.000 | 0.600 ± 0.050 | * |\n"
        "\n"
        "Failed cells:\n"
        '- seed=3: DataError: bad, "very" bad\n'
    ),
    ("markdown", "best"): (
        "| cell | ccc | uar | inv_mae | s_mtl | best |\n"
        "|---|---|---|---|---|---|\n"
        "| seed=1 | 0.300 | 0.500 | 0.400 | 0.600 |  |\n"
        "| seed=3 | error | error | error | error |  |\n"
        "| seed=2 | 0.300 | 0.500 | 0.400 | 0.650 | * |\n"
        "\n"
        "Failed cells:\n"
        '- seed=3: DataError: bad, "very" bad\n'
    ),
    ("csv", "mean_std"): (
        "cell,ccc,ccc_std,uar,uar_std,inv_mae,inv_mae_std,s_mtl,s_mtl_std,best,error\n"
        "seed=1,0.300,0.000,0.500,0.000,0.400,0.000,0.500,0.100,,\n"
        'seed=3,,,,,,,,,,"DataError: bad, ""very"" bad"\n'
        "seed=2,0.300,0.000,0.500,0.000,0.400,0.000,0.600,0.050,*,\n"
    ),
    ("csv", "best"): (
        "cell,ccc,uar,inv_mae,s_mtl,best,error\n"
        "seed=1,0.300,0.500,0.400,0.600,,\n"
        'seed=3,,,,,,"DataError: bad, ""very"" bad"\n'
        "seed=2,0.300,0.500,0.400,0.650,*,\n"
    ),
}


@pytest.mark.parametrize("renderer,aggregation", sorted(REPORT_GOLDEN))
def test_report_golden_with_failed_cell(renderer, aggregation):
    failed = CellResult(label="seed=3", value=3, runs=(),
                        error='DataError: bad, "very" bad', error_code=2)
    table = ReportTable(axis="seed", aggregation=aggregation,
                        cells=(make_cell("seed=1", [0.4, 0.6]), failed,
                               make_cell("seed=2", [0.55, 0.65])))
    render = report_markdown if renderer == "markdown" else report_csv
    assert render(table) == REPORT_GOLDEN[renderer, aggregation]


def test_sidecar_preserves_full_precision():
    value = 0.1234567890123456789
    cell = make_cell("seed=1", [value])
    table = ReportTable(axis="seed", aggregation="best", cells=(cell,))
    rows = list(csv.reader(io.StringIO(sidecar_csv(table))))
    assert rows[0] == ["cell", "run", "seed", "best_epoch",
                       "ccc", "uar", "mae_years", "inv_mae", "s_mtl"]
    # repr strings round-trip the float64 exactly
    assert float(rows[1][8]) == cell.runs[0].bundle.score


def test_results_json_round_trip(tmp_path, sweep_dataset):
    spec = SweepSpec(axis="seed", values=(1, 2), base=base_config(),
                     runs_per_cell=1)
    table = run_sweep(spec, lambda value: sweep_dataset)
    path = tmp_path / "results.json"
    save_results(table, path)
    back = load_results(path)
    assert dataclasses.asdict(back) == dataclasses.asdict(table)
    assert report_markdown(back) == report_markdown(table)


@pytest.mark.parametrize("body", [
    '{"aggregation": "best", "cells": []}',  # no axis
    '{"axis": "seed", "aggregation": "best", "cells": [1]}',
    '[1, 2]',
    '{"axis": ',
    '\xff',
    # well formed, but a metric the report would average is a string
    '{"axis": "seed", "aggregation": "best", "cells": [{"label": "seed=1", "value": 1, '
    '"error": null, "error_code": null, "runs": [{"seed": 1, "best_epoch": 1, "bundle": '
    '{"ccc_per_emotion": [0.5], "mean_ccc": "x", "uar": 0.5, "mae_years": 2.0, '
    '"inv_mae": 0.5, "score": 0.5, "flags": []}}]}]}',
])
def test_malformed_results_json_is_a_data_error(tmp_path, body):
    path = tmp_path / "results.json"
    path.write_bytes(body.encode("latin-1"))
    with pytest.raises(DataFormatError, match="results.json"):
        load_results(path)


def test_failed_results_write_leaves_old_file(tmp_path, monkeypatch):
    table = ReportTable(axis="seed", aggregation="best",
                        cells=(make_cell("seed=1", [0.5]),))
    path = tmp_path / "results.json"
    save_results(table, path)
    before = path.read_bytes()

    def disk_full(obj, fh, **kwargs):
        fh.write("{")
        raise OSError("no space left on device")

    monkeypatch.setattr(pmtl.sweep.json, "dump", disk_full)
    with pytest.raises(OSError, match="no space"):
        save_results(table, path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["results.json"]
