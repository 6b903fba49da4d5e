"""Runs one workload in a fresh process; ``run.py`` starts it.

Prints ``READY`` once set-up is done (imports, seeded inputs, references).
With ``--setup-only`` it times its set-up against the host-speed clock (see
``speed``), prints ``READY <probe seconds> <scale>`` instead and exits: the
set-up time measured from outside, less the probe seconds and times the
scale, is the set-up time on the reference host.  Otherwise it runs the
workload as a closed loop with one client and prints one ``RESULT <json>``
line.

``python3 perfbench/worker.py --record`` runs every workload once at the
default seed and rewrites ``references.json`` from its outputs; do that
only for a commit whose outputs are known to be right.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from math import ceil
from time import perf_counter

import speed

# started before the heavy imports, so that it covers all of set-up
SETUP_CLOCK = speed.Clock()
if __name__ == "__main__" and "--setup-only" in sys.argv:
    SETUP_CLOCK.start()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCES = os.path.join(HERE, "references.json")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, SRC)

import homtoric  # noqa: E402
import tracing  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, CheckFailed  # noqa: E402


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, ceil(q * len(ordered)) - 1)]


class Runner:
    """Runs jobs, checks each result, and counts attempts and failures."""

    def __init__(self, workload, seed, jobs, references):
        self.workload = workload
        self.seed = seed
        self.jobs = jobs
        self.references = references
        self.attempted = 0
        self.failed = 0
        self.work = {}
        self.samples = {}       # job id -> wall time of every run, probes included
        self.tracer = None

    def verify(self, job, outcome):
        full, invariant = job.check(outcome)
        refs = self.references.get(self.workload, {})
        pairs = [("invariant", invariant)]
        if self.seed == DEFAULT_SEED:
            pairs.append(("full", full))
        for kind, text in pairs:
            if text is None:
                continue
            expected = refs.get(kind, {}).get(job.id)
            if expected != digest(text):
                raise CheckFailed(f"{job.id}: {kind} output differs from the reference "
                                  f"({digest(text)} != {expected})")

    def run_one(self, job, pass_index):
        """Runs and checks one job; returns its (start, end)."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            if self.tracer is None:
                outcome = job.run()
            else:
                outcome = self.tracer.run_job(f"{pass_index}:{job.id}", job.run)
        except Exception:
            t1 = perf_counter()
            self.failed += 1
            print(f"job {job.id} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return t0, t1
        t1 = perf_counter()
        try:
            self.verify(job, outcome)
            self.work.setdefault(job.id, job.work(outcome))
            if self.tracer is not None:
                self.tracer.last_job.counts.update(job.counts(outcome))
        except Exception:
            self.failed += 1
            print(f"job {job.id} failed its check:\n{traceback.format_exc()}",
                  file=sys.stderr)
        return t0, t1

    def schedule(self, repeat):
        """One pass: every job in job-list order, and a job's
        ``job.repeats`` runs (if ``repeat``) spread evenly over the pass
        instead of run in a row, so a short job's median draws on samples
        from every part of the pass."""
        n = len(self.jobs)
        slots = [((k + i / n) / r, i, job)
                 for i, job in enumerate(self.jobs)
                 for r in [job.repeats if repeat else 1]
                 for k in range(r)]
        return [job for _, _, job in sorted(slots, key=lambda s: s[:2])]

    def run_passes(self, t_end, repeat=True):
        """Closed loop, one client: each job starts when the previous one
        returned, in ``schedule`` order.  The first pass always completes;
        after it, the loop stops before a job whose last duration would
        carry it past ``t_end``.  Returns {job id: [(start, end), ...]}
        and the number of complete passes."""
        spans = {job.id: [] for job in self.jobs}
        order = self.schedule(repeat)
        passes = 0
        while True:
            for job in order:
                if passes and perf_counter() + duration(spans[job.id][-1]) > t_end:
                    return spans, passes
                spans[job.id].append(self.run_one(job, passes))
                self.samples.setdefault(job.id, []).append(duration(spans[job.id][-1]))
            passes += 1


def facts():
    import numpy
    commit = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(path):
                with open(path) as fh:
                    commit = fh.read().strip()
        else:
            commit = ref
    src_lines = 0
    pkg = os.path.join(SRC, "homtoric")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                src_lines += sum(1 for _ in fh)
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "commit": commit, "src_lines": src_lines}


def duration(span):
    return span[1] - span[0]


def pass_seconds(spans, seconds=duration):
    """One pass over the job list, estimated as the sum of every job's
    median over the run's repeats of ``seconds(span)``."""
    return sum(statistics.median(map(seconds, s)) for s in spans.values())


def end_to_end(runner, t_end):
    """Runs untraced until ``t_end`` with the host-speed clock on; every
    job time is normalised by it (see ``speed``)."""
    clock = speed.Clock()
    clock.start()
    try:
        spans, passes = runner.run_passes(t_end)
    finally:
        clock.stop()
    per_job = [statistics.median(clock.normalised(*span) for span in s)
               for s in spans.values()]
    wall = sum(per_job)
    p90 = percentile(per_job, 0.9)
    work = sum(runner.work.get(job.id, 0) for job in runner.jobs)
    metrics = {
        "wall_s": {"value": wall, "unit": "s"},
        "job_s.p50": {"value": percentile(per_job, 0.5), "unit": "s"},
        "job_s.p90": {"value": p90, "unit": "s"},
        "monomials_per_s": {"value": work / wall, "unit": "1/s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }
    info = {"complete_passes": passes, "jobs": len(per_job),
            "job_samples": sum(len(s) for s in spans.values()),
            "jobs_beyond_p90": sum(1 for s in per_job if s > p90),
            "monomials_per_pass": work,
            "raw_wall_s": pass_seconds(
                spans, lambda span: duration(span) - clock.probe_seconds(*span)),
            "probes": len(clock.seconds),
            "probe_ms_median": 1e3 * statistics.median(clock.seconds)}
    return metrics, info


def traced_layers(runner, untraced, t_end):
    tracer = tracing.Tracer()
    tracing.install(tracer)
    runner.tracer = tracer
    try:
        # one run per job and pass, so layer counts are per pass over the job list
        traced, passes = runner.run_passes(t_end, repeat=False)
    finally:
        tracer.uninstall()
        runner.tracer = None
    kept = [s for s in tracer.spans if int(s.job.split(":", 1)[0]) < passes]
    layers = tracing.layer_metrics(kept, passes)
    traced_wall = pass_seconds(traced)
    untraced_wall = pass_seconds(untraced)
    layers["trace.overhead_s"] = {"value": traced_wall - untraced_wall, "unit": "s"}
    layers["trace.spans"] = {"value": len(kept) / passes, "unit": "count"}
    # every span nests in a job span, so self times partition job time
    info = {"traced_passes": passes, "traced_wall_s": traced_wall,
            "untraced_wall_s": untraced_wall,
            "job_span_s_per_pass": sum(s.busy for s in kept if s.name == "bench.job") / passes,
            "self_s_sum_per_pass": sum(s.self_s for s in kept) / passes}
    os.makedirs(OUT, exist_ok=True)
    tracer.dump(os.path.join(OUT, f"{runner.workload}-seed{runner.seed}.spans.jsonl"))
    return layers, info


def record():
    refs = {}
    for name, make in WORKLOADS.items():
        full, invariant = {}, {}
        for job in make(DEFAULT_SEED):
            f, i = job.check(job.run())
            if job.id in full:
                raise ValueError(f"duplicate job id {job.id}")
            full[job.id] = digest(f)
            if i is not None:
                invariant[job.id] = digest(i)
        refs[name] = {"full": full, "invariant": invariant}
        print(f"recorded {name}: {len(full)} jobs", file=sys.stderr)
    with open(REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    start = perf_counter()
    if not os.path.abspath(homtoric.__file__).startswith(SRC + os.sep):
        print(f"homtoric was imported from {homtoric.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.record:
        return record()
    jobs = WORKLOADS[args.workload](args.seed)
    with open(REFERENCES) as fh:
        references = json.load(fh)
    if args.setup_only:
        SETUP_CLOCK.stop()
        t0, ready = SETUP_CLOCK.starts[0], perf_counter()
        probe_s = SETUP_CLOCK.probe_seconds(t0, ready)
        scale = SETUP_CLOCK.normalised(t0, ready) / (ready - t0 - probe_s)
        print(f"READY {probe_s!r} {scale!r}", flush=True)
        return 0
    print("READY", flush=True)

    runner = Runner(args.workload, args.seed, jobs, references)
    if args.trace:
        untraced, _ = runner.run_passes(start + args.seconds / 2)
        metrics, info = traced_layers(runner, untraced, start + args.seconds)
    else:
        metrics, info = end_to_end(runner, start + args.seconds)
    result = {"attempted": runner.attempted, "failed": runner.failed,
              "metrics": metrics,
              "info": info, "facts": facts()}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(dict(result, job_seconds=runner.samples), fh, indent=1, sort_keys=True)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
