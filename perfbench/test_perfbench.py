"""The benchmark's own tests: a broken harness fails here, before it
publishes a number.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import analyze
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_follows_its_format():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    all_names = names + [m["name"] for m in metrics]
    assert len(all_names) == len(set(all_names))
    assert all(NAME.match(n) for n in all_names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    assert all(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
               for m in metrics)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["cli.main", 0.0, 10.0, None, 1, 0, None],
        ["a", 1.0, 4.0, 0, 1, 1, None],
        ["b", 3.0, 6.0, 0, 2, 2, None],   # overlaps a on another thread
        ["c", 1.5, 2.0, 1, 1, 3, None],   # grandchild: not main's child
    ]
    selfs = analyze.self_times(spans)
    assert selfs[0] == 10.0 - 5.0
    assert selfs[1] == 3.0 - 0.5
    assert selfs[3] == 0.5


def test_a_step_runs_from_forward_to_the_next_adam_step():
    spans = [
        ["train.forward", 0.0, 1.0, 9, 1, 0, None],
        ["train.backward", 1.5, 2.0, 9, 1, 1, None],
        ["train.adam_step", 2.0, 3.0, 9, 1, 2, None],
        ["train.forward", 3.5, 4.0, 9, 1, 3, None],
    ]
    assert [(a, b) for a, b, _, _ in analyze.steps(spans)] == [(0.0, 3.0)]


def test_smoke_runs_every_workload_with_its_checks():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [l for l in proc.stdout.splitlines() if l.startswith("smoke ")]
    assert len(lines) == len(workloads.WORKLOADS)
    assert all(": ok " in l for l in lines), proc.stdout


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_paper_b8_w1024",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
