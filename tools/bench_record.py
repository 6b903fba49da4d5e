"""Record perfbench runs of one or more checkouts into a BENCH json file.

    python3 tools/bench_record.py --out BENCH_13.json \
        --checkout parent=../parent --checkout change=. \
        [--seeds 701 702 703] [--workload markov-large ...] [--seconds 28] \
        [--cli "markov cycle:6 complete-looped:3 --cap 3"]

For every workload and seed, each checkout runs ``perfbench/run.py
--trace 0`` in its own directory; the order of the checkouts alternates
from seed to seed.  The file gets one entry per checkout label: the
commit, the ``src/`` line count and the host facts perfbench reports, and
per workload the min and median of every end-to-end metric, the
``complete_passes`` of every run, the ids of each run's jobs at p50 and
p90 (``jobs_at``, information only) and the raw result lines.  Each ``--cli``
command runs ``CLI_RUNS`` times per checkout as ``python3 -m homtoric.cli``
with that checkout's ``src`` on the path, in rounds that run every command
once per checkout, the order of the checkouts alternating from round to
round; its exit code, the median and min of its wall time and peak RSS and
every sample are recorded, and the exit code must be the same every run.
An existing output file is updated label by label.  When it
holds both a ``parent`` and a ``change`` label, ``pair_wins`` gives per
workload and end-to-end metric how many seeds run by both the change won,
in the direction ``BENCHMARK.json`` names as better, and
``worse_than_bound`` lists per workload every end-to-end metric whose
change median is worse than the parent median by more than that metric's
``bound``, a fraction of the parent median.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shlex
import statistics
import subprocess
import sys
from time import perf_counter

WORKLOADS = ("markov-large", "forest-verify", "spoon-census", "geometry-cli")
BENCH_TIMEOUT_S = 300
BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "BENCHMARK.json")
JOB_QUANTILES = (("p50", 0.5), ("p90", 0.9))      # the job percentiles perfbench reports
CLI_RUNS = 3
CLI_METRICS = ("wall_s", "peak_rss_mb")


def run_bench(root, workload, seed, seconds):
    """One ``perfbench/run.py`` run: (facts, info, result) from its three
    output lines."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True,
                         timeout=BENCH_TIMEOUT_S).stdout.splitlines()
    facts = json.loads(next(l for l in out if l.startswith("facts "))[len("facts "):])
    info = json.loads(next(l for l in out if l.startswith("info "))[len("info "):])
    return facts, info, json.loads(out[-1])


def jobs_at(path):
    """The ids of the jobs at each of ``JOB_QUANTILES`` in one perfbench
    run, from the ``job_seconds`` it wrote to ``path``: the jobs ranked by
    the median of their raw samples, picked by nearest rank as perfbench
    picks its percentiles.  perfbench ranks normalised times, so this is a
    guide."""
    with open(path) as fh:
        samples = json.load(fh)["job_seconds"]
    ranked = sorted(samples, key=lambda job: statistics.median(samples[job]))
    return {name: ranked[max(0, math.ceil(q * len(ranked)) - 1)] for name, q in JOB_QUANTILES}


def run_cli(root, argv):
    """Exit code, wall seconds and peak RSS (MB) of one CLI command."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "homtoric.cli"] + argv, cwd=root, env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"argv": argv, "exit": proc.returncode, "wall_s": round(wall, 3),
            "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
            "stderr": err.strip().splitlines()[-1:]}


def summarize_cli(samples):
    """One record of the runs of one CLI command: its ``argv``, ``exit``
    and ``stderr`` (from the first run), the median of every one of
    ``CLI_METRICS`` under its own name, their ``min`` and the ``samples``.
    Raises ValueError when the runs exit with different codes."""
    exits = sorted({s["exit"] for s in samples})
    if len(exits) > 1:
        raise ValueError(f"{samples[0]['argv']}: exit codes {exits} differ between runs")
    out = {k: samples[0][k] for k in ("argv", "exit", "stderr")}
    for name in CLI_METRICS:
        values = [s[name] for s in samples]
        out[name] = statistics.median(values)
        out.setdefault("min", {})[name] = min(values)
    out["samples"] = [{name: s[name] for name in CLI_METRICS} for s in samples]
    return out


def summarize(runs):
    """min and median of every end-to-end metric over the runs."""
    out = {}
    for name in sorted({m for r in runs for m in r["result"]["metrics"]}):
        values = [r["result"]["metrics"][name]["value"] for r in runs
                  if name in r["result"]["metrics"]]
        unit = next(r["result"]["metrics"][name]["unit"] for r in runs
                    if name in r["result"]["metrics"])
        out[name] = {"unit": unit, "min": min(values), "median": statistics.median(values),
                     "n": len(values)}
    return out


def pair_wins(parent, change, better):
    """{workload: {metric: {"wins", "pairs", "better"}}} over the seeds that
    both the ``parent`` and the ``change`` entries ran: a pair is won when
    the change's value is strictly better (lower or higher, as ``better``
    maps the metric), so ties win neither side."""
    out = {}
    for workload in sorted(set(parent.get("workloads", {})) & set(change.get("workloads", {}))):
        values = [{seed: raw["metrics"] for seed, raw in zip(entry["workloads"][workload]["seeds"],
                                                             entry["workloads"][workload]["raw"])}
                  for entry in (parent, change)]
        seeds = sorted(set(values[0]) & set(values[1]))
        for name, direction in sorted(better.items()):
            pairs = [(values[0][s][name]["value"], values[1][s][name]["value"]) for s in seeds
                     if name in values[0][s] and name in values[1][s]]
            wins = sum((c < p) if direction == "lower" else (c > p) for p, c in pairs)
            if pairs:
                out.setdefault(workload, {})[name] = {"wins": wins, "pairs": len(pairs),
                                                      "better": direction}
    return out


def worse_than_bound(parent, change, metrics):
    """{workload: {metric: {"parent", "change", "bound"}}} for every metric
    of ``metrics`` (name -> its ``BENCHMARK.json`` entry) whose change median
    is worse than the parent median by more than ``bound`` times the parent
    median, in the direction the entry names as better; empty when none is."""
    out = {}
    for workload in sorted(set(parent.get("workloads", {})) & set(change.get("workloads", {}))):
        medians = [entry["workloads"][workload]["metrics"] for entry in (parent, change)]
        for name, spec in sorted(metrics.items()):
            if name not in medians[0] or name not in medians[1]:
                continue
            p, c = medians[0][name]["median"], medians[1][name]["median"]
            worse = c - p if spec["better"] == "lower" else p - c
            if worse > spec["bound"] * abs(p):
                out.setdefault(workload, {})[name] = {"parent": p, "change": c,
                                                      "bound": spec["bound"]}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--checkout", action="append", default=[],
                        help="LABEL=DIR, repeatable; default change=.")
    parser.add_argument("--seeds", type=int, nargs="*", default=[701, 702, 703])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--cli", action="append", default=[])
    args = parser.parse_args(argv)
    checkouts = [c.split("=", 1) for c in args.checkout] or [["change", "."]]
    checkouts = [(label, os.path.abspath(path)) for label, path in checkouts]
    record = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            record = json.load(fh)
    runs = {label: {} for label, _ in checkouts}
    facts = {}
    for workload in args.workload or WORKLOADS:
        for i, seed in enumerate(args.seeds):
            order = checkouts if i % 2 == 0 else checkouts[::-1]
            for label, root in order:
                f, info, result = run_bench(root, workload, seed, args.seconds)
                facts[label] = f
                at = jobs_at(os.path.join(root, "perfbench", "out",
                                          f"{workload}-seed{seed}-trace0.json"))
                runs[label].setdefault(workload, []).append(
                    {"seed": seed, "info": info, "result": result, "jobs_at": at})
                print(f"{workload} seed {seed} {label}: " + json.dumps(
                    {k: round(v["value"], 4) for k, v in result["metrics"].items()})
                    + f" jobs at {json.dumps(at)}", flush=True)
    cli = {label: {command: [] for command in args.cli} for label, _ in checkouts}
    for i in range(CLI_RUNS):
        for label, root in checkouts if i % 2 == 0 else checkouts[::-1]:
            for command in args.cli:
                result = run_cli(root, shlex.split(command))
                cli[label][command].append(result)
                print(f"cli {label} run {i + 1}: {json.dumps(result)}", flush=True)
    for label, root in checkouts:
        entry = record.setdefault(label, {})
        if label in facts:
            entry["facts"] = facts[label]
        for workload, wruns in runs[label].items():
            entry.setdefault("workloads", {})[workload] = {
                "seconds": args.seconds,
                "seeds": [r["seed"] for r in wruns],
                "metrics": summarize(wruns),
                "complete_passes": [r["info"]["complete_passes"] for r in wruns],
                "failed": [r["result"]["failed"] for r in wruns],
                "jobs_at": [r["jobs_at"] for r in wruns],
                "raw": [r["result"] for r in wruns],
            }
        for command, samples in cli[label].items():
            entry.setdefault("cli", {})[command] = summarize_cli(samples)
    if "parent" in record and "change" in record:
        with open(BENCHMARK) as fh:
            metrics = {m["name"]: m for m in json.load(fh)["end_to_end"]}
        record["pair_wins"] = pair_wins(record["parent"], record["change"],
                                        {name: m["better"] for name, m in metrics.items()})
        for workload, wins in record["pair_wins"].items():
            print(f"{workload} change wins: " + json.dumps(
                {name: f"{m['wins']}/{m['pairs']}" for name, m in wins.items()}), flush=True)
        record["worse_than_bound"] = worse_than_bound(record["parent"], record["change"], metrics)
        print("worse than bound: " + json.dumps(record["worse_than_bound"]), flush=True)
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
