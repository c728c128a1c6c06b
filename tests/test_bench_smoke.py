"""The benchmark's smoke run prints pinned digests: a change that moves a
bit of any workload's output at toy size fails here.

The test only runs ``perfbench/run.py --smoke`` (about 6 s) and reads what
it prints; it changes nothing under ``perfbench/``.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# history and checkpoint of both train workloads, the sweep's results.json,
# eval's predictions file and the bundle eval and score print
SMOKE_DIGESTS = {
    "train_paper_b8_w1024": {
        "history_run": "8c7a83df68a586a84f7301c1190dc169d46874bd2d408aeee82c174372857fb5",
        "checkpoint": "ca04db8a6f392ffd67f140e1d6a2e600bae89cebf3a78c11b7ebf182654b52ea"},
    "train_wide_b256_w6373": {
        "history_run": "f98a1dbbbdd144f82b673b42f1241c4c258a050788487e7bf49f591a92158dcb",
        "checkpoint": "6db81cf34622155cf890200b8dbbb613d05046af12f9bc69e5c48a6f5c79ca6e"},
    "sweep_seeds_w64_x2": {
        "results": "7593c5e20bec18e62276916f8b486ddc8651641f337831dab83ca2321aa2a3d3"},
    "eval_score_csv_w1024": {
        "predictions": "4268b8db6e611f0ec411c4df096119ab956affade92592f32339aa9903954336",
        "bundle": "a0d4f98917488986a40e963861565b5f47f105723b0e6000a6e1f1f5be5e1f2a"},
}


def test_smoke_run_prints_the_pinned_digests():
    done = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = re.findall(r"^smoke (\w+): (\w+) \(\d+ repeats, digests (\{.*\})\)$",
                       done.stdout, re.MULTILINE)
    assert {name: (status, ast.literal_eval(digests)) for name, status, digests in lines} == {
        name: ("ok", digests) for name, digests in SMOKE_DIGESTS.items()}
