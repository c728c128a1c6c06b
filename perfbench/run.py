"""pmtl benchmark: run one workload the way a user does and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout; nothing needs building, the commands
import ``pmtl`` from ``src/``. One run makes the workload's inputs from
``--seed`` (outside the timed region), then repeats the workload's
``pmtl`` command(s) for ``--seconds``, each in a fresh process
(``child.py``) and one after the other: a closed loop with one client.
OpenBLAS keeps its default thread pool; the sweep adds PMTL_WORKERS=2.

Every repeat's outputs are checked and digested; a repeat fails on a
nonzero exit, a failed check, or a digest that differs from the run's
first repeat. With ``--trace 0`` the last line of standard output is the
JSON result with the ``end_to_end`` metrics that BENCHMARK.json lists;
with ``--trace 1`` the run alternates plain and traced repeats, adds one
call-counting pass, and the JSON carries the ``per_layer`` metrics. The
lines before it name every metric the run measured, with its unit and
sample count. A full record goes to ``perfbench/results/runs/``.

``--smoke`` runs every workload at toy sizes, plain, traced and counted,
with every check on, and prints no metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
RESULTS = HERE / "results" / "runs"

import analyze  # noqa: E402  (sibling module; run.py is run as a script)
import workloads as wl  # noqa: E402

MIN_REPEATS = 3  # per mode, so each median has a middle
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "throughput_per_s": "1/s"}
CHILD_TIMEOUT_S = 60


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# -- provenance -------------------------------------------------------------------


def _blas_threads():
    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() or None


def provenance(seed: int, inputs) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_files = sorted(SRC.rglob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads()},
        "git_commit": _git_commit(),
        "src_sha256": wl.sha256_json({str(p.relative_to(ROOT)): wl.sha256_file(p)
                                      for p in src_files}),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in src_files),
        "workload_seed": seed,
        "inputs": inputs.describe(),
    }


# -- one repeat -------------------------------------------------------------------


def run_command(cmd, mode: str, run_id: int, work: Path) -> dict:
    """Run one pmtl command in a fresh child process; time it and reap it."""
    timing_path = work / f"timing-{run_id}.json"
    stdout_path = work / f"stdout-{run_id}.txt"
    stderr_path = work / f"stderr-{run_id}.txt"
    argv = [sys.executable, str(HERE / "child.py"), "--src", str(SRC),
            "--mode", mode, "--run-id", str(run_id), "--out", str(timing_path),
            "--", *cmd.argv]
    env = dict(os.environ, **cmd.env)
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        spawn = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        # a blocking wait ends the moment the child exits; Popen.wait with a
        # timeout polls and would round the wall time up
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status = os.waitpid(proc.pid, 0)
        except BaseException:
            # interrupted (SIGTERM, Ctrl-C): leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - spawn
        proc.returncode = os.waitstatus_to_exitcode(status)
    record = {"argv": cmd.argv, "mode": mode, "spawn": spawn, "wall": wall,
              "rc": proc.returncode,
              "stdout": stdout_path.read_text(encoding="utf-8", errors="replace"),
              "stderr": stderr_path.read_text(encoding="utf-8", errors="replace")}
    if timing_path.exists():
        record["timing"] = json.loads(timing_path.read_text(encoding="utf-8"))
        record["rss_mb"] = record["timing"]["peak_rss_kb"] / 1024
        timing_path.unlink()
    stdout_path.unlink()
    stderr_path.unlink()
    return record


def run_repeat(workload, inputs, mode: str, index: int, work: Path, smoke: bool,
               reference) -> dict:
    """Run the workload's commands once and check what they wrote."""
    out = work / f"repeat-{index}"
    out.mkdir()
    cmds = wl.commands(workload, inputs, out, smoke)
    if mode == "count":
        # sys.setprofile sees one thread: count a sweep's steps on one worker
        cmds = [wl.Command(cmds[0].argv, dict(cmds[0].env, PMTL_WORKERS="1"))]
    records, problems, digests = [], [], {}
    for j, cmd in enumerate(cmds):
        record = run_command(cmd, mode, 10 * index + j, work)
        records.append(record)
        if record["rc"] != 0 or "timing" not in record:
            problems.append(f"{cmd.argv[0]} exited {record['rc']}: "
                            f"{record['stderr'].strip()[-800:]}")
            break
    if not problems and mode != "count":
        try:
            digests, found = wl.check(workload, inputs, out,
                                      [r["stdout"] for r in records], smoke)
            problems += found
        except (OSError, KeyError, ValueError, StopIteration) as exc:
            problems.append(f"cannot read the outputs: {exc!r}")
        if not problems and reference is not None and digests != reference:
            problems.append(f"digests {digests} differ from the first repeat's "
                            f"{reference}")
    shutil.rmtree(out, ignore_errors=True)
    return {"mode": mode, "commands": records, "digests": digests,
            "problems": problems}


def _median(values):
    return statistics.median(values) if values else None


def run_workload(workload, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    work = WORK / f"{workload.name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = wl.setup(workload, ROOT, work, seed, smoke)
        inputs.sync()
        info = provenance(seed, inputs)
        modes = ("plain", "trace") if trace else ("plain",)
        min_repeats = 2 if smoke else MIN_REPEATS
        repeats, reference = [], None
        deadline = time.perf_counter() + seconds
        while True:
            done = {m: sum(r["mode"] == m for r in repeats) for m in modes}
            if time.perf_counter() >= deadline and min(done.values()) >= min_repeats:
                break
            mode = modes[len(repeats) % len(modes)]
            r = run_repeat(workload, inputs, mode, len(repeats), work, smoke, reference)
            if not r["problems"]:
                reference = reference or r["digests"]
                r["end_to_end"] = analyze.repeat_end_to_end(
                    workload.kind, inputs.rows, r["commands"])
            repeats.append(r)
        counted = None
        if trace and workload.kind != "eval":
            counted = run_repeat(workload, inputs, "count", len(repeats), work, smoke,
                                 None)
            repeats.append(counted)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ok = [r for r in repeats if not r["problems"]]
    e2e_by_mode = {m: [r["end_to_end"] for r in ok if r["mode"] == m] for m in modes}
    metrics = {}
    plain = e2e_by_mode["plain"]
    if plain:
        for name in (*END_TO_END_UNITS, workload.throughput_name()):
            metrics[name] = (_median([e[name] for e in plain]),
                             END_TO_END_UNITS.get(name, "1/s"))
    traced = [r["commands"] for r in ok if r["mode"] == "trace"]
    if traced:
        count = counted["commands"][0].get("timing", {}).get("count") \
            if counted and not counted["problems"] else None
        metrics.update(analyze.per_layer(workload.kind, traced, count))
        if plain:
            untraced = _median([e["throughput_per_s"] for e in plain])
            with_trace = _median([e["throughput_per_s"] for e in e2e_by_mode["trace"]])
            metrics["trace_overhead_frac"] = ((untraced - with_trace) / untraced,
                                              "frac")
    failed = len(repeats) - len(ok)
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "smoke": smoke,
        "sizes": workload.smoke_sizes if smoke else workload.sizes,
        "provenance": info,
        "attempted": len(repeats), "failed": failed,
        "samples": {m: len(v) for m, v in e2e_by_mode.items()},
        "digests": reference,
        "repeats": [{"mode": r["mode"], "problems": r["problems"],
                     "digests": r["digests"],
                     "walls": [c["wall"] for c in r["commands"]],
                     "end_to_end": r.get("end_to_end")}
                    for r in repeats],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


# -- output -----------------------------------------------------------------------


def contract() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        raise BenchError(f"no BENCHMARK.json at {ROOT}")
    return json.loads(path.read_text(encoding="utf-8"))


def result_line(result: dict, spec: dict) -> dict:
    """The JSON result: exactly the metrics BENCHMARK.json lists for the mode."""
    section = spec["per_layer" if result["trace"] else "end_to_end"]
    metrics = {}
    for entry in section:
        have = result["metrics"].get(entry["name"])
        if have is None:
            if result["failed"]:
                continue  # failed repeats left nothing to measure; correct is false
            raise BenchError(f"{result['workload']} measured no {entry['name']}")
        if have["unit"] != entry["unit"]:
            raise BenchError(f"{entry['name']} is in {have['unit']}, "
                             f"BENCHMARK.json says {entry['unit']}")
        metrics[entry["name"]] = have
    return {"correct": result["failed"] == 0 and result["attempted"] > 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def print_report(result: dict) -> None:
    prov = result["provenance"]
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"trace {result['trace']}  repeats {result['samples']}  "
          f"failed_frac {result['failed'] / result['attempted']:.4f} "
          f"({result['failed']}/{result['attempted']})")
    print(f"machine nproc={prov['nproc']} python={prov['python']} "
          f"numpy={prov['numpy']} blas={prov['blas']['name']} "
          f"{prov['blas']['version']} threads={prov['blas']['threads']} "
          f"src_lines={prov['src_lines']} commit={prov['git_commit']}")
    for role, d in prov["inputs"].items():
        shape = f"{d['rows']} x {d['width']}, " if "rows" in d else ""
        print(f"input {role}: {shape}{d['bytes']} bytes, sha256 {d['sha256'][:16]}")
    for r in result["repeats"]:
        for problem in r["problems"]:
            print(f"FAILED repeat ({r['mode']}): {problem}")
    for name, digest in (result["digests"] or {}).items():
        print(f"digest {name} {digest}")
    n = result["samples"]
    plain = {*END_TO_END_UNITS, wl.WORKLOADS[result["workload"]].throughput_name()}
    for name, m in sorted(result["metrics"].items()):
        value = m["value"]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        source = "plain" if name in plain else "trace"
        print(f"  {name:<42} {shown:>14} {m['unit']:<6} "
              f"(median of {n.get(source, 0)} {source} repeats)")


def save_result(result: dict) -> Path:
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / (f"{result['workload']}-seed{result['seed']}"
                      f"-trace{result['trace']}.json")
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def check_checkout() -> None:
    if not (SRC / "pmtl" / "cli.py").exists():
        raise BenchError(f"no pmtl sources under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    # compile every module once, so no timed command pays for it
    import pmtl.cli  # noqa: F401


def smoke(spec: dict) -> int:
    """Every workload at toy size, plain, traced and counted, all checks on."""
    bad = 0
    for workload in wl.WORKLOADS.values():
        result = run_workload(workload, seed=1, seconds=0, trace=True, smoke=True)
        problems = [p for r in result["repeats"] for p in r["problems"]]
        try:
            for trace in (0, 1):
                result_line(dict(result, trace=trace), spec)
        except BenchError as exc:
            problems.append(str(exc))
        status = "ok" if not problems and result["failed"] == 0 else "FAILED"
        bad += status != "ok"
        print(f"smoke {workload.name}: {status} ({result['attempted']} repeats, "
              f"digests {result['digests']})")
        for p in problems:
            print(f"  {p}")
    return 1 if bad else 0


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    # SIGTERM unwinds like Ctrl-C, so the running child is killed and
    # reaped and the scratch directory removed
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    opts = ap.parse_args(argv)
    if not opts.smoke and opts.workload is None:
        ap.error("--workload is required unless --smoke")
    try:
        spec = contract()
        check_checkout()
        if opts.smoke:
            return smoke(spec)
        result = run_workload(wl.WORKLOADS[opts.workload], opts.seed, opts.seconds,
                              bool(opts.trace), smoke=False)
        line = result_line(result, spec)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result["result"] = line
    print_report(result)
    print(f"record {save_result(result).relative_to(ROOT)}")
    print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
