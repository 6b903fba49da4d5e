"""homtoric benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The workload runs in a fresh
single-threaded worker process (``worker.py``).  With ``--trace 0`` the
last line of standard output is a JSON object holding every end-to-end
metric; with ``--trace 1`` the worker first runs untraced for half the
time, then traced, and the JSON holds every per-layer metric.  Set-up time
is measured from outside, from starting a worker until it reports READY,
over several set-up-only workers; each is scaled to the reference host
speed by the clock that worker runs during set-up (see ``speed.py``), and
the median is reported.  Results and span files are also written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 5      # set-up-only workers per end-to-end run
DEADLINE_S = 170       # the whole command ends within this, or fails


class BenchError(RuntimeError):
    pass


def worker_env():
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    return env


def start_worker(args, extra, deadline):
    """Start a worker; returns (process, seconds until it printed READY,
    the rest of that line split into words)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed)] + extra
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(),
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = perf_counter() - t0
    words = line.split()
    if words[:1] != ["READY"]:
        finish(proc, deadline)
        raise BenchError(f"worker did not get ready (exit {proc.returncode})")
    return proc, setup, words[1:]


def finish(proc, deadline):
    """Wait for the worker, killing it at the deadline; returns its stdout."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker ran past the deadline and was killed")
    return out


def run(args):
    deadline = perf_counter() + DEADLINE_S
    if not os.path.exists(os.path.join(ROOT, "src", "homtoric", "__init__.py")):
        raise BenchError(f"no homtoric sources under {ROOT}/src")
    setups, raw_setups = [], []
    if not args.trace:
        for _ in range(SETUP_SAMPLES):
            proc, seconds, words = start_worker(args, ["--setup-only"], deadline)
            finish(proc, deadline)
            if proc.returncode != 0 or len(words) != 2:
                raise BenchError(f"set-up-only worker exited {proc.returncode}")
            probe_s, scale = map(float, words)
            raw_setups.append(seconds - probe_s)
            setups.append((seconds - probe_s) * scale)
    proc, _, _ = start_worker(
        args, ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
    out = finish(proc, deadline)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    lines = [l for l in out.splitlines() if l.startswith("RESULT ")]
    if not lines:
        raise BenchError("worker printed no result")
    result = json.loads(lines[-1][len("RESULT "):])
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        result["info"]["setup_samples_s"] = setups
        result["info"]["raw_setup_samples_s"] = raw_setups
    print("facts " + json.dumps(result["facts"], sort_keys=True))
    print("info " + json.dumps(result["info"], sort_keys=True))
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


def main(argv=None):
    parser = argparse.ArgumentParser(description="homtoric benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        run(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
