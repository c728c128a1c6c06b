"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads NAME [NAME ...] --seeds 1-10 \
        [--seconds S] [--trace 0|1] [--out perfbench/results/FILE.json]

Each seed is one ``run.py`` process, run one after the other. For every
metric the run measured (its record, not only its result line) the table
gives the median over seeds, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median, next to the bound
BENCHMARK.json fixes for it. ``--out`` keeps the summary and every run's
result line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(lines: list, bounds: dict) -> dict:
    names = sorted({k for line in lines for k in line["metrics"]})
    out = {}
    for name in names:
        values = [line["metrics"][name]["value"] for line in lines
                  if name in line["metrics"]]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        out[name] = {"unit": lines[0]["metrics"][name]["unit"], "n": len(values),
                     "median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else None,
                     "bound": bounds.get(name)}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    opts = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = opts.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    report = {"seconds": seconds, "trace": opts.trace, "workloads": {}}
    for workload in opts.workloads:
        lines = []
        for seed in opts.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(opts.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
                return 1
            out = proc.stdout.strip().splitlines()
            line = json.loads(out[-1])
            record_path = next(l.split(" ", 1)[1] for l in out if l.startswith("record "))
            record = json.loads((ROOT / record_path).read_text(encoding="utf-8"))
            # the record holds every metric the run measured, not only the
            # ones on the result line
            line.update(seed=seed, metrics=record["metrics"],
                        digests=record["digests"], provenance=record["provenance"])
            lines.append(line)
            print(f"{workload} seed {seed}: correct={line['correct']} "
                  f"failed={line['failed']}/{line['attempted']}", flush=True)
        summary = summarize(lines, bounds)
        report["workloads"][workload] = {"summary": summary, "runs": lines}
        print(f"\n{workload} ({len(lines)} seeds, {seconds} s each)")
        for name, s in summary.items():
            spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
            bound = "" if s["bound"] is None else f"bound {s['bound']}"
            print(f"  {name:<42} median {s['median']:<14.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {spread:<8} {bound}")
    if opts.out:
        Path(opts.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
