import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "tools"))

from bench_record import jobs_at, pair_wins, summarize_cli, worse_than_bound  # noqa: E402


def _entry(runs):
    """A recorded checkout: {workload: [(seed, {metric: value})]}."""
    return {"workloads": {w: {"seeds": [s for s, _ in r],
                              "raw": [{"metrics": {k: {"value": v} for k, v in m.items()}}
                                      for _, m in r]}
                          for w, r in runs.items()}}


def test_pair_wins_pairs_runs_by_seed_in_the_better_direction():
    # seeds pair up whatever their order; a tie wins neither side; a seed
    # or workload that only one side ran is left out
    parent = _entry({"a": [(1, {"wall_s": 2.0, "rate": 5.0}), (2, {"wall_s": 1.0, "rate": 5.0}),
                           (3, {"wall_s": 9.0, "rate": 1.0})],
                     "b": [(1, {"wall_s": 1.0})]})
    change = _entry({"a": [(2, {"wall_s": 1.0, "rate": 6.0}), (1, {"wall_s": 1.5, "rate": 4.0}),
                           (4, {"wall_s": 0.1, "rate": 9.0})]})
    got = pair_wins(parent, change, {"wall_s": "lower", "rate": "higher", "other": "lower"})
    assert got == {"a": {"wall_s": {"wins": 1, "pairs": 2, "better": "lower"},
                         "rate": {"wins": 1, "pairs": 2, "better": "higher"}}}


def test_jobs_at_ranks_jobs_by_their_raw_median(tmp_path):
    # ten jobs ranked by the median of their samples, not by their mean,
    # their first sample or their order in the file: nearest rank puts the
    # 5th at p50 and the 9th at p90
    samples = {f"job{i}": [10.0 * i, i, 0.5 + i] for i in range(10)}
    samples["job0"], samples["job9"] = [100.0, 0.0, 0.1], [9.0, 9.0, 0.0]
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"job_seconds": dict(reversed(list(samples.items())))}))
    assert jobs_at(str(path)) == {"p50": "job4", "p90": "job8"}


def _cli_run(exit, wall, rss, stderr=()):
    return {"argv": ["width", "path:3", "complete:3"], "exit": exit, "wall_s": wall,
            "peak_rss_mb": rss, "stderr": list(stderr)}


def test_summarize_cli_keeps_the_median_min_and_samples_of_every_run():
    # the medians stand under the keys one run used to fill; the min and
    # the samples, in run order, ride along
    runs = [_cli_run(3, 1.14, 40.0, ["too large"]), _cli_run(3, 0.90, 38.5, ["too large"]),
            _cli_run(3, 0.95, 41.0, ["too large"])]
    assert summarize_cli(runs) == {
        "argv": ["width", "path:3", "complete:3"], "exit": 3, "stderr": ["too large"],
        "wall_s": 0.95, "peak_rss_mb": 40.0, "min": {"wall_s": 0.90, "peak_rss_mb": 38.5},
        "samples": [{"wall_s": 1.14, "peak_rss_mb": 40.0}, {"wall_s": 0.90, "peak_rss_mb": 38.5},
                    {"wall_s": 0.95, "peak_rss_mb": 41.0}]}


def test_summarize_cli_refuses_runs_whose_exit_codes_differ():
    with pytest.raises(ValueError, match="exit codes"):
        summarize_cli([_cli_run(0, 1.0, 40.0), _cli_run(3, 0.1, 30.0), _cli_run(0, 1.0, 40.0)])


def _medians(runs):
    """A recorded checkout's summaries: {workload: {metric: median}}."""
    return {"workloads": {w: {"metrics": {k: {"median": v} for k, v in m.items()}}
                          for w, m in runs.items()}}


def test_worse_than_bound_lists_the_metrics_past_their_bound_as_a_fraction():
    # wall_s (lower is better, bound 0.25) may read up to 1.25 times the
    # parent median and rate (higher is better, bound 0.1) down to 0.9
    # times it; gains, metrics without a bound entry and workloads that
    # only one side ran are never listed
    metrics = {"wall_s": {"better": "lower", "bound": 0.25},
               "rate": {"better": "higher", "bound": 0.1}}
    parent = _medians({"a": {"wall_s": 4.0, "rate": 10.0, "other": 1.0},
                       "b": {"wall_s": 2.0, "rate": 10.0}, "c": {"wall_s": 1.0}})
    change = _medians({"a": {"wall_s": 5.0, "rate": 9.0, "other": 9.0},
                       "b": {"wall_s": 2.6, "rate": 8.9}, "d": {"wall_s": 9.0}})
    assert worse_than_bound(parent, change, metrics) == {
        "b": {"wall_s": {"parent": 2.0, "change": 2.6, "bound": 0.25},
              "rate": {"parent": 10.0, "change": 8.9, "bound": 0.1}}}
    better = _medians({"a": {"wall_s": 0.1, "rate": 99.0}})
    assert worse_than_bound(_medians({"a": {"wall_s": 1.0, "rate": 1.0}}), better, metrics) == {}
