"""Turn the child processes' records into end-to-end and per-layer metrics.

A span is ``[label, start, end, parent, thread, id, attrs]`` with times
from ``time.perf_counter`` (CLOCK_MONOTONIC, shared by every process on
the machine). A span's self time is its duration minus the part of that
interval its child spans cover. A training step runs from the start of
``forward`` to the end of the ``adam_step`` that follows it in the same
thread.

Units: ``.s`` is seconds per repeat of the workload (summed over its
commands and calls, median over repeats); ``.s_p50`` and ``.us_p50`` are
per-call medians; ``.us_p99`` is reported only when at least ten calls
lie beyond it; ``busy_frac`` is time inside the function over the
thread-seconds of the commands: time inside ``pmtl.cli.main``, plus, for a
sweep, ``workers - 1`` times the time inside ``run_sweep``.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

LABEL, START, END, PARENT, THREAD, ID, ATTRS = range(7)

TRAIN_RUN = ("cli.train_run", "sweep.train_run")
FIRST_ENTRY = ("cli.train_run", "cli.run_sweep", "cli.predict")

# metric prefix -> the span labels that are calls of that function
FUNCTIONS = {
    "data.load_features": ("cli.load_features",),
    "data.load_labels_csv": ("cli.load_labels_csv",),
    "data.join_splits": ("cli.join_splits",),
    "data.standardize": ("cli.standardize",),
    "data.batches": ("train.batches",),
    "data.save_predictions_csv": ("cli.save_predictions_csv",),
    "data.load_predictions_csv": ("cli.load_predictions_csv",),
    "model.init_params": ("train.init_params",),
    "model.forward": ("train.forward", "model.forward"),
    "model.backward": ("train.backward",),
    "model.predict": ("cli.predict", "train.predict"),
    "model.params_copy": ("train.params_copy",),
    "losses.mse_loss": ("train.mse_loss",),
    "losses.cross_entropy_loss": ("train.cross_entropy_loss",),
    "losses.combine": ("train.combine",),
    "train.adam_step": ("train.adam_step",),
    "train.evaluate": ("cli.evaluate", "train.evaluate"),
    "metrics.compute_bundle": ("cli.compute_bundle", "train.compute_bundle"),
    "checkpoint.save_checkpoint": ("cli.save_checkpoint",),
    "checkpoint.load_checkpoint": ("cli.load_checkpoint",),
    "sweep.train_run": ("sweep.train_run",),
}
LAYER_FUNCTIONS = tuple(
    f"{op}_{direction}"
    for op in ("linear", "layer_norm", "leaky_relu", "sigmoid")
    for direction in ("forward", "backward")
)
for _fn in LAYER_FUNCTIONS:
    FUNCTIONS[f"layers.{_fn}"] = (f"model.{_fn}",)

P99_MIN_CALLS = 1000  # ten calls beyond the 99th percentile


def percentile(values, q):
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def _duration(span):
    return span[END] - span[START]


def _covered(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """span id -> self time in seconds."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[START], s[END]))
    return {s[ID]: _duration(s) - _covered(children[s[ID]], s[START], s[END])
            for s in spans}


def steps(spans) -> list:
    """(start, end, forward span, adam span) of every training step."""
    by_thread = defaultdict(list)
    for s in spans:
        if s[LABEL] in ("train.forward", "train.adam_step"):
            by_thread[s[THREAD]].append(s)
    out = []
    for seq in by_thread.values():
        seq.sort(key=lambda s: s[START])
        forward = None
        for s in seq:
            if s[LABEL] == "train.forward":
                forward = s
            elif forward is not None:
                out.append((forward[START], s[END], forward, s))
                forward = None
    return out


# -- end-to-end -----------------------------------------------------------------


def repeat_end_to_end(kind: str, rows: int, commands: list) -> dict:
    """End-to-end figures of one repeat from its command records.

    Each record has ``spawn``, ``wall``, ``rss_mb`` and ``timing`` (the
    child's JSON record).
    """
    spans = [s for c in commands for s in c["timing"]["spans"]]
    first = commands[0]
    entries = [s[START] for s in first["timing"]["spans"] if s[LABEL] in FIRST_ENTRY]
    wall = sum(c["wall"] for c in commands)
    out = {
        "wall_s": wall,
        "setup_s": min(entries) - first["spawn"] if entries else math.nan,
        "peak_rss_mb": max(c["rss_mb"] for c in commands),
    }
    if kind == "eval":
        out["eval_rows_per_s"] = rows / wall
        out["throughput_per_s"] = out["eval_rows_per_s"]
    else:
        runs = [s for s in spans if s[LABEL] in TRAIN_RUN]
        samples = sum(s[ATTRS]["samples"] for s in runs)
        out["train_samples_per_s"] = samples / sum(_duration(s) for s in runs)
        out["throughput_per_s"] = out["train_samples_per_s"]
    return out


# -- per layer --------------------------------------------------------------------


class _Pool:
    """Spans of all traced repeats, grouped for the per-layer metrics."""

    def __init__(self, repeats):
        self.calls = defaultdict(list)       # prefix -> durations
        self.self_calls = defaultdict(list)  # prefix -> self times
        self.per_repeat = []                 # prefix -> total seconds, per repeat
        self.capacity = 0.0  # thread-seconds the commands had to work in
        self.step_spans = []
        self.step_self = []
        self.steps = 0
        self.step_calls = defaultdict(int)   # layer label -> calls inside steps
        label_to_prefix = {}
        for prefix, labels in FUNCTIONS.items():
            for label in labels:
                label_to_prefix[label] = prefix
        for commands in repeats:
            totals = defaultdict(float)
            for c in commands:
                spans = c["timing"]["spans"]
                selfs = self_times(spans)
                by_id = {s[ID]: s for s in spans}
                for s in spans:
                    prefix = label_to_prefix.get(s[LABEL])
                    if s[LABEL] == "cli.main":
                        self.capacity += _duration(s)
                        totals["cli.self"] += selfs[s[ID]]
                    elif s[LABEL] == "cli.run_sweep":
                        # each worker thread adds its own capacity
                        self.capacity += (s[ATTRS]["workers"] - 1) * _duration(s)
                    if prefix is None:
                        continue
                    self.calls[prefix].append(_duration(s))
                    self.self_calls[prefix].append(selfs[s[ID]])
                    totals[prefix] += _duration(s)
                    totals[prefix + ".calls"] += 1
                    parent = by_id.get(s[PARENT])
                    if parent is not None and parent[LABEL] in ("train.forward",
                                                                 "train.backward"):
                        self.step_calls[prefix] += 1
                totals["cli.import"] += (c["timing"]["import_end"]
                                         - c["timing"]["import_start"])
                self._add_steps(spans)
            self.per_repeat.append(totals)

    def _add_steps(self, spans):
        step_list = steps(spans)
        if not step_list:
            return
        direct = defaultdict(list)  # (thread, parent) -> intervals
        for s in spans:
            direct[(s[THREAD], s[PARENT])].append((s[START], s[END]))
        for start, end, forward, _ in step_list:
            siblings = direct[(forward[THREAD], forward[PARENT])]
            self.step_spans.append(end - start)
            self.step_self.append(end - start - _covered(siblings, start, end))
        self.steps += len(step_list)

    def median_total(self, key):
        return statistics.median(t.get(key, 0.0) for t in self.per_repeat)


def per_layer(kind: str, traced: list, counted: dict | None) -> dict:
    """Per-layer metrics from traced repeats: ``{name: (value, unit)}``.

    Only functions that ran on the workload get metrics.
    """
    pool = _Pool(traced)
    m = {}

    def us(name, values, p99=True):
        m[f"{name}.us_p50"] = (statistics.median(values) * 1e6, "us")
        if p99 and len(values) >= P99_MIN_CALLS:
            m[f"{name}.us_p99"] = (percentile(values, 99) * 1e6, "us")

    def busy(name, prefix):
        m[f"{name}.busy_frac"] = (sum(pool.calls[prefix]) / pool.capacity, "frac")

    m["cli.import_s"] = (pool.median_total("cli.import"), "s")
    m["cli.self_s"] = (pool.median_total("cli.self"), "s")

    for prefix in ("data.load_features", "data.load_labels_csv", "data.join_splits",
                   "data.standardize", "data.save_predictions_csv",
                   "data.load_predictions_csv", "model.init_params", "model.predict",
                   "checkpoint.save_checkpoint", "checkpoint.load_checkpoint"):
        if pool.calls[prefix]:
            m[f"{prefix}.s"] = (pool.median_total(prefix), "s")
    loads = [s for commands in traced for c in commands
             for s in c["timing"]["spans"] if s[LABEL] == "cli.load_features"]
    if loads:
        mb = sum(s[ATTRS]["bytes"] for s in loads) / 1e6
        m["data.load_features.mb_per_s"] = (mb / sum(map(_duration, loads)), "MB/s")
    if pool.calls["data.batches"]:
        us("data.batches", pool.calls["data.batches"], p99=False)

    for prefix in ("model.forward", "model.backward"):
        if pool.calls[prefix]:
            us(prefix, pool.calls[prefix])
            m[f"{prefix}.self_us_p50"] = (
                statistics.median(pool.self_calls[prefix]) * 1e6, "us")
    if pool.calls["model.params_copy"]:
        m["model.params_copy.calls"] = (pool.median_total("model.params_copy.calls"),
                                        "count")

    for fn in LAYER_FUNCTIONS:
        prefix = f"layers.{fn}"
        if pool.calls[prefix]:
            us(prefix, pool.calls[prefix], p99=False)
            busy(prefix, prefix)
            if pool.steps:
                m[f"{prefix}.calls_per_step"] = (pool.step_calls[prefix] / pool.steps,
                                                 "count")

    for prefix in ("losses.mse_loss", "losses.cross_entropy_loss", "losses.combine"):
        if pool.calls[prefix]:
            us(prefix, pool.calls[prefix], p99=False)
            busy(prefix, prefix)

    if pool.steps:
        us("train.step", pool.step_spans)
        m["train.step.self_us_p50"] = (statistics.median(pool.step_self) * 1e6, "us")
    if pool.calls["train.adam_step"]:
        us("train.adam_step", pool.calls["train.adam_step"])
        busy("train.adam_step", "train.adam_step")
    if pool.calls["train.evaluate"]:
        m["train.evaluate.s_p50"] = (statistics.median(pool.calls["train.evaluate"]), "s")
    if counted and counted.get("calls_per_step") is not None:
        m["train.py_calls_per_step"] = (counted["calls_per_step"], "count")

    if pool.calls["metrics.compute_bundle"]:
        us("metrics.compute_bundle", pool.calls["metrics.compute_bundle"], p99=False)

    ck = [s[ATTRS]["bytes"] for commands in traced for c in commands
          for s in c["timing"]["spans"]
          if s[LABEL] in ("cli.save_checkpoint", "cli.load_checkpoint")]
    if ck:
        m["checkpoint.bytes"] = (max(ck), "bytes")

    if kind == "sweep":
        m["sweep.train_run.s_p50"] = (statistics.median(pool.calls["sweep.train_run"]), "s")
        busy_fracs, waits, failed = [], [], []
        for commands in traced:
            spans = [s for c in commands for s in c["timing"]["spans"]]
            sweep = next(s for s in spans if s[LABEL] == "cli.run_sweep")
            runs = [s for s in spans if s[LABEL] == "sweep.train_run"]
            a = sweep[ATTRS]
            busy_fracs.append(sum(map(_duration, runs))
                              / (a["workers"] * _duration(sweep)))
            first = {s[ATTRS]["seed"]: s[START] for s in runs}
            waits.append(max(first[seed] - sweep[START] for seed in a["cell_first_seeds"]))
            failed.append(a["failed_cells"] / a["cells"])
        m["sweep.worker_busy_frac"] = (statistics.median(busy_fracs), "frac")
        m["sweep.cell_wait_s"] = (statistics.median(waits), "s")
        m["sweep.failed_cell_frac"] = (max(failed), "frac")
    return m
