#!/usr/bin/env python3
"""Gate benchmark summaries against a committed baseline.

Compares the stable top-level ``summary`` block of a fresh benchmark run
(``benchmarks/bench_batching.py``, ``bench_service.py`` or ``bench_rq1.py``)
against a committed baseline JSON and fails on regressions beyond a
tolerance (default 25%).

Only *machine-portable* metrics are compared by default:

* speedup ratios (``*speedup*`` keys) and cache hit rates / realised batch
  sizes — higher is better, a run fails when it drops below
  ``baseline * (1 - tolerance)``;
* solved-instance counts (``solved_*`` keys, from
  ``benchmarks/bench_rq1.py``) — higher is better at zero tolerance: node
  budgets make them deterministic, so one instance fewer is a regression;
* LP solve counts (``lp_total_solves``) — lower is better, a run fails when
  it grows beyond ``baseline * (1 + tolerance)``;
* robustness counters (``total_job_retries``, ``process_worker_crashes``,
  ``process_transport_downgrades``) — lower is better *and* a zero
  baseline gates: the clean benchmark workload injects no faults, so any
  retry, worker crash or transport downgrade appearing in a fresh run is a
  real stability regression, not noise;
* boolean invariants (``*identical*`` / ``*_equal`` keys) — must still
  hold whenever the baseline holds them.

Absolute per-child times (``median_per_child_us``) are informational: they
are not comparable across machines and are skipped unless
``--compare-times`` is given.  A gated baseline key that is missing from
the current summary is a regression: a renamed or dropped metric must not
silently retire its gate.  Ungated baseline keys and keys present only in
the current summary are ignored, so baseline and current must be produced
with the same flags.

Usage::

    python tools/check_bench_regression.py CURRENT BASELINE [--tolerance 0.25]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Higher-is-better numeric summary metrics stable enough to gate.  The
#: micro-benchmark engine/batched speedups are deliberately absent: they
#: swing by >30% between runs of the tiny smoke workload, so gating them at
#: any useful tolerance would flake — they stay informational in the JSON.
HIGHER_BETTER_KEYS = (
    "min_speedup_incremental",
    "lp_min_micro_hit_rate",
    "min_mean_realised_batch_at_frontier_8",
    "service_min_throughput_speedup",
    "service_min_lp_hit_rate",
    "service_min_bound_hit_rate",
    "process_speedup_over_cooperative",
)
#: Per-key tolerance overrides.  The smoke-workload per-child medians are
#: too short for tight gating on shared CI runners, so the incremental
#: speedup gets extra headroom: with the committed ~1.5x baseline the floor
#: sits just above 1.0 — CI still fails if the incremental path stops
#: helping at all, without flaking on scheduler noise.
TOLERANCE_OVERRIDES = {"min_speedup_incremental": 0.30,
                       # End-to-end wall-clock ratios on the tiny smoke
                       # workload swing with scheduler noise; wider headroom
                       # keeps the gates meaningful without flaking.
                       "service_min_throughput_speedup": 0.30,
                       "service_max_p95_latency_ratio": 0.50,
                       # Process-transport throughput additionally pays a
                       # per-slice pipe round-trip, so on few-core hosts the
                       # ratio sits below 1.0 by design; the gate only
                       # catches the IPC path becoming drastically slower.
                       "process_speedup_over_cooperative": 0.50}
#: Prefix of deterministic solved counts: higher is better, no tolerance.
SOLVED_PREFIX = "solved_"
#: Lower-is-better numeric summary metrics.
LOWER_BETTER_KEYS = ("lp_total_solves", "service_max_p95_latency_ratio",
                     "total_job_retries", "process_worker_crashes",
                     "process_transport_downgrades")
#: Lower-is-better keys where a zero baseline still gates (value must stay
#: zero).  The benchmark workload injects no faults, so these counters are
#: exact invariants rather than noisy measurements.
ZERO_GATED_KEYS = ("total_job_retries", "process_worker_crashes",
                   "process_transport_downgrades")
#: Boolean invariants that must not flip to False.
BOOLEAN_MARKERS = ("identical", "_equal", "verdicts_match")
#: Informational keys skipped without --compare-times.
TIME_KEYS = ("median_per_child_us",)


def _classify(key: str):
    if any(marker in key for marker in BOOLEAN_MARKERS):
        return "boolean"
    if key in LOWER_BETTER_KEYS:
        return "lower"
    if key in HIGHER_BETTER_KEYS or key.startswith(SOLVED_PREFIX):
        return "higher"
    return None


def _gated(key: str, compare_times: bool) -> bool:
    if key in TIME_KEYS:
        return compare_times
    return _classify(key) is not None


def compare_summaries(current: dict, baseline: dict, tolerance: float,
                      compare_times: bool = False):
    """Yield ``(key, message)`` for every regression found."""
    for key, base_value in baseline.items():
        if key not in current:
            if _gated(key, compare_times):
                yield (key, f"gated metric {key} is missing from the "
                            f"current summary")
            continue
        value = current[key]
        if key in TIME_KEYS:
            if not compare_times:
                continue
            for family, base_times in base_value.items():
                times = value.get(family)
                if times is None:
                    continue
                limit = base_times["incremental"] * (1.0 + tolerance)
                if times["incremental"] > limit:
                    yield (key, f"{family} incremental per-child time "
                                f"{times['incremental']:.1f}us exceeds "
                                f"baseline {base_times['incremental']:.1f}us "
                                f"by more than {tolerance:.0%}")
            continue
        kind = _classify(key)
        if kind == "boolean":
            if bool(base_value) and not bool(value):
                yield (key, f"invariant {key} regressed: baseline "
                            f"{base_value} -> current {value}")
        elif kind == "higher" and isinstance(base_value, (int, float)):
            key_tolerance = (0.0 if key.startswith(SOLVED_PREFIX)
                             else TOLERANCE_OVERRIDES.get(key, tolerance))
            floor = base_value * (1.0 - key_tolerance)
            if value < floor:
                yield (key, f"{key} regressed: {value:.4g} < "
                            f"{floor:.4g} (baseline {base_value:.4g} "
                            f"- {key_tolerance:.0%})")
        elif kind == "lower" and isinstance(base_value, (int, float)):
            if base_value == 0:
                if key in ZERO_GATED_KEYS and value > 0:
                    yield (key, f"{key} regressed: {value:.4g} > 0 "
                                f"(baseline 0 — the clean benchmark "
                                f"workload must stay fault-free)")
                continue  # other zero baselines (e.g. no LP reached) gate nothing
            key_tolerance = TOLERANCE_OVERRIDES.get(key, tolerance)
            ceiling = base_value * (1.0 + key_tolerance)
            if value > ceiling:
                yield (key, f"{key} regressed: {value:.4g} > "
                            f"{ceiling:.4g} (baseline {base_value:.4g} "
                            f"+ {key_tolerance:.0%})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", type=Path,
                        help="JSON written by the fresh benchmark run")
    parser.add_argument("baseline", type=Path,
                        help="committed baseline JSON to compare against")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed relative regression (default 0.25)")
    parser.add_argument("--compare-times", action="store_true",
                        help="also gate absolute per-child times (only "
                             "meaningful on the machine that produced the "
                             "baseline)")
    args = parser.parse_args(argv)

    current = json.loads(args.current.read_text())
    baseline = json.loads(args.baseline.read_text())
    current_summary = current.get("summary", {})
    baseline_summary = baseline.get("summary", {})
    if not baseline_summary:
        print("baseline has no summary block", file=sys.stderr)
        return 2

    regressions = list(compare_summaries(current_summary, baseline_summary,
                                         args.tolerance, args.compare_times))
    checked = [key for key in baseline_summary
               if _gated(key, args.compare_times)]
    for key, message in regressions:
        print(f"REGRESSION: {message}", file=sys.stderr)
    print(f"checked {len(checked)} summary metrics against "
          f"{args.baseline} (tolerance {args.tolerance:.0%}): "
          f"{len(regressions)} regression(s)")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
