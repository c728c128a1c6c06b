"""Child process: run one ``pmtl`` command in this process and record spans.

    python3 child.py --src SRC --mode MODE --run-id N --out TIMING.json -- ARGS...

The command runs exactly as the ``pmtl`` console script runs it, through
``pmtl.cli.main(ARGS)``. Before it starts, functions are wrapped where
their caller looks them up (``pmtl.train.adam_step`` is the name
``_epoch_pass`` calls), so the program itself is not changed. Modes:

plain  wraps only the entry points the end-to-end metrics need: the
       ``train_run``, ``run_sweep`` and ``predict`` that ``pmtl.cli`` and
       ``pmtl.sweep`` call.
trace  wraps every public function one module calls in another and
       records a span per call: name, start, end, parent span, thread.
count  counts Python-level calls (``sys.setprofile``, call and c_call
       events) from the start of ``forward`` to the end of ``adam_step``
       over the first COUNT_STEPS training steps, then stops the command.

Spans stay in memory and are written to ``--out`` when the command ends.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import os
import sys
import threading
from time import perf_counter

COUNT_STEPS = 20

# The names each module binds and calls, as "module:name". The span label
# is "module.name" without the package prefix.
ENTRY_POINTS = (
    "cli:train_run", "cli:run_sweep", "cli:predict", "sweep:train_run",
)
TRACED = ENTRY_POINTS + (
    "cli:load_features", "cli:load_labels_csv", "cli:join_splits",
    "cli:standardize", "cli:build_part", "cli:evaluate", "cli:compute_bundle",
    "cli:save_checkpoint", "cli:load_checkpoint",
    "cli:save_predictions_csv", "cli:load_predictions_csv",
    "train:init_params", "train:params_copy", "train:batches",
    "train:forward", "train:backward", "train:mse_loss",
    "train:cross_entropy_loss", "train:combine", "train:adam_step",
    "train:evaluate", "train:predict", "train:compute_bundle",
    "model:forward",
    "model:linear_forward", "model:layer_norm_forward",
    "model:leaky_relu_forward", "model:sigmoid_forward",
    "model:linear_backward", "model:layer_norm_backward",
    "model:leaky_relu_backward", "model:sigmoid_backward",
)


def peak_rss_kb():
    """High-water resident set of this process's own address space.

    ``ru_maxrss`` is not used: on Linux it keeps, across exec, the
    high-water mark of the parent that forked the process, so a child of a
    large benchmark process would report the parent's peak.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _bytes_of_first_arg(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _train_run_facts(args, kwargs, result):
    config, data = args
    _, history = result
    return {"samples": len(data.train) * len(history.epochs), "seed": config.seed}


def _sweep_facts(args, kwargs, result):
    from pmtl.rng import derive_subseed
    spec = args[0]
    return {
        "workers": kwargs.get("workers", 1),
        "cell_first_seeds": [derive_subseed(spec.cell_config(v).seed, 0)
                             for v in spec.values],
        "cells": len(result.cells),
        "failed_cells": sum(1 for c in result.cells if c.failed),
    }


# Facts about a call that the metrics need, read after its span has ended.
FACTS = {
    "cli.load_features": _bytes_of_first_arg,
    "cli.save_checkpoint": _bytes_of_first_arg,
    "cli.load_checkpoint": _bytes_of_first_arg,
    "cli.train_run": _train_run_facts,
    "sweep.train_run": _train_run_facts,
    "cli.run_sweep": _sweep_facts,
}


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._thread_stack()

    def _thread_stack(self):
        self._local.tid = threading.get_ident()
        self._local.stack = []
        return self._local.stack

    def wrap(self, module, name):
        orig = getattr(module, name)
        label = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
        facts = FACTS.get(label)
        local, ids, append = self._local, self._ids, self.spans.append
        tracer = self

        def wrapper(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = tracer._thread_stack()
            main = tracer._main_stack
            # a worker thread's first span was caused by what the main
            # thread is waiting in
            parent = stack[-1] if stack else (main[-1] if main else None)
            sid = next(ids)
            rec = [label, 0.0, 0.0, parent, local.tid, sid, None]
            append(rec)
            stack.append(sid)
            rec[1] = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if facts is not None:
                rec[6] = facts(args, kwargs, result)
            return result

        setattr(module, name, wrapper)
        return wrapper


class StepsCounted(BaseException):
    """Ends a counting pass; not an error of the program."""


class CallCounter:
    """Counts profile call events between the start of a training step's
    ``forward`` and the end of its ``adam_step``."""

    def __init__(self, steps):
        self.limit = steps
        self.active = False
        self.calls = 0
        self.steps = 0

    def profile(self, frame, event, arg):
        if self.active and (event == "call" or event == "c_call"):
            self.calls += 1

    def install(self, train_module):
        forward = train_module.forward
        adam_step = train_module.adam_step
        counter = self

        def counted_forward(*args, **kwargs):
            if counter.steps == 0:
                sys.setprofile(counter.profile)
            counter.active = True
            return forward(*args, **kwargs)

        def counted_adam_step(*args, **kwargs):
            # this wrapper's own call event is counted too; report() removes it
            result = adam_step(*args, **kwargs)
            counter.active = False
            counter.steps += 1
            if counter.steps == counter.limit:
                sys.setprofile(None)
                raise StepsCounted()
            return result

        train_module.forward = counted_forward
        train_module.adam_step = counted_adam_step

    def report(self) -> dict:
        return {"steps": self.steps, "calls": self.calls,
                "calls_per_step": self.calls / self.steps - 1 if self.steps else None}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True)
    ap.add_argument("--mode", choices=("plain", "trace", "count"), required=True)
    ap.add_argument("--run-id", type=int, default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("pmtl_args", nargs=argparse.REMAINDER)
    opts = ap.parse_args(argv)
    pmtl_args = opts.pmtl_args[1:] if opts.pmtl_args[:1] == ["--"] else opts.pmtl_args

    sys.path.insert(0, opts.src)
    t_import = perf_counter()
    import pmtl.cli
    t_imported = perf_counter()

    tracer = Tracer()
    counter = None
    if opts.mode == "count":
        counter = CallCounter(COUNT_STEPS)
        counter.install(importlib.import_module("pmtl.train"))
    else:
        for entry in ENTRY_POINTS if opts.mode == "plain" else TRACED:
            module, name = entry.split(":")
            tracer.wrap(importlib.import_module(f"pmtl.{module}"), name)
    run_main = tracer.wrap(pmtl.cli, "main") if opts.mode == "trace" else pmtl.cli.main

    rc = 1
    try:
        rc = run_main(pmtl_args)
    except StepsCounted:
        rc = 0
    finally:
        sys.setprofile(None)
        record = {
            "mode": opts.mode, "run_id": opts.run_id, "rc": rc,
            "peak_rss_kb": peak_rss_kb(),
            "import_start": t_import, "import_end": t_imported,
            "spans": tracer.spans,
            "count": counter.report() if counter else None,
        }
        with open(opts.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
