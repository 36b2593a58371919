"""Which calls the traced run times, and the per-layer metrics it derives.

The verifiers bind some functions by name at import time
(``from repro.verifiers.milp import solve_leaf_lp_batch``), so those are
wrapped at every importing module, not at their definition.  Methods are
wrapped on the class that defines them.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, List, Sequence

from perfbench.metrics import Record, percentile
from perfbench.tracer import Site, Span, self_times, union_length

#: Structural spans the benchmark opens around one problem / one burst;
#: layer spans directly under them (or on no parent) are "top level".
ROOT_SPANS = ("problem", "burst")

#: ``(unit, better)`` of every per-layer metric, in output order.
PER_LAYER_UNITS: Dict[str, tuple] = {
    "heuristic.calls": ("count", "lower"),
    "heuristic.s": ("s", "lower"),
    "heuristic.us_per_call": ("us", "lower"),
    "appver.batch_calls": ("count", "lower"),
    "appver.batch_s": ("s", "lower"),
    "appver.children": ("count", "lower"),
    "appver.us_per_child": ("us", "lower"),
    "appver.mean_batch": ("children/call", "higher"),
    "appver.single_calls": ("count", "lower"),
    "appver.single_s": ("s", "lower"),
    "cache.layer_hit_rate": ("ratio", "higher"),
    "cache.report_hit_rate": ("ratio", "higher"),
    "cache.candidate_hit_rate": ("ratio", "higher"),
    "alpha.batch_s": ("s", "lower"),
    "alpha.single_s": ("s", "lower"),
    "lp.calls": ("count", "lower"),
    "lp.s": ("s", "lower"),
    "lp.leaves": ("count", "lower"),
    "lp.cache_hit_rate": ("ratio", "higher"),
    "mcts.select_calls": ("count", "lower"),
    "mcts.select_s": ("s", "lower"),
    "mcts.backprop_s": ("s", "lower"),
    "engine.rounds": ("count", "lower"),
    "engine.round_s": ("s", "lower"),
    "engine.self_s": ("s", "lower"),
    "attack.pgd_calls": ("count", "lower"),
    "attack.pgd_s": ("s", "lower"),
    "setup.train_s": ("s", "lower"),
    "setup.root_radius_s": ("s", "lower"),
    "setup.attack_radius_s": ("s", "lower"),
    "service.start_job_s": ("s", "lower"),
    "service.slice_roundtrip_s": ("s", "lower"),
    "service.slices": ("count", "lower"),
    "service.queue_wait_p50_s": ("s", "lower"),
    "service.fingerprint_s": ("s", "lower"),
    "service.adopt_payload_s": ("s", "lower"),
    "service.retries": ("count", "lower"),
    "service.lp_hit_rate": ("ratio", "higher"),
    "service.bound_hit_rate": ("ratio", "higher"),
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead": ("ratio", "lower"),
}


def sites() -> List[Site]:
    """Every call the traced run wraps, with its span name."""
    import repro.bab.baseline as baseline
    import repro.baselines.alphabeta_crown as alphabeta
    import repro.core.abonn as abonn
    import repro.experiments.suite as suite
    import repro.verifiers.attack as attack
    from repro.bab.heuristics import BranchingHeuristic, FSBHeuristic
    from repro.bounds.alpha_crown import AlphaCrownAnalyzer
    from repro.engine.driver import DriverRun
    from repro.service.pool import FingerprintCachePool
    from repro.service.process_transport import ShardExecutor
    from repro.verifiers.appver import ApproximateVerifier

    def batch_size(args, kwargs):
        return len(args[1])

    def leaf_count(args, kwargs):
        return len(args[3])

    def job_id(args, kwargs):
        return args[1]

    return [
        Site(BranchingHeuristic, "select", "heuristic"),
        Site(FSBHeuristic, "select", "heuristic"),
        Site(ApproximateVerifier, "evaluate_batch", "appver.batch", batch_size),
        Site(ApproximateVerifier, "evaluate", "appver.single"),
        Site(AlphaCrownAnalyzer, "analyze_batch", "alpha.batch"),
        Site(AlphaCrownAnalyzer, "analyze", "alpha.single"),
        Site(abonn, "solve_leaf_lp_batch", "lp", leaf_count),
        Site(baseline, "solve_leaf_lp_batch", "lp", leaf_count),
        Site(alphabeta, "solve_leaf_lp_batch", "lp", leaf_count),
        Site(abonn, "select_frontier", "mcts.select"),
        Site(abonn, "propagate_rewards", "mcts.backprop"),
        Site(abonn, "propagate_sizes", "mcts.backprop"),
        Site(DriverRun, "step", "engine.round"),
        Site(attack, "pgd_attack", "attack.pgd"),
        Site(alphabeta, "pgd_attack", "attack.pgd"),
        Site(suite, "build_trained_model", "setup.train"),
        Site(suite, "root_certified_radius", "setup.root_radius"),
        Site(suite, "empirical_robustness_radius", "setup.attack_radius"),
        Site(ShardExecutor, "start_job", "service.start_job", job_id),
        Site(ShardExecutor, "run_slice", "service.slice"),
        Site(FingerprintCachePool, "fingerprint_for", "service.fingerprint"),
        Site(FingerprintCachePool, "adopt_payload", "service.adopt_payload"),
    ]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def coverage(spans: Sequence[Span], start: float, end: float) -> float:
    """Share of ``[start, end]`` inside top-level layer spans (any thread)."""
    by_id = {span.id: span for span in spans}
    intervals = [(max(span.start, start), min(span.end, end)) for span in spans
                 if span.name not in ROOT_SPANS
                 and (span.parent is None or by_id[span.parent].name in ROOT_SPANS)
                 and span.end > start and span.start < end]
    return _ratio(union_length(intervals), end - start)


def per_layer(spans: Sequence[Span], records: Sequence[Record], service_stats: dict,
              pass_window: tuple, slowdown: float) -> Dict[str, float]:
    """Per-layer metrics from the traced set-up and pass.

    ``records`` are the traced pass's and ``pass_window`` is its
    ``(start, end)`` on the tracer clock; ``slowdown`` is the traced pass's
    host-normalised time over the same pass's run without wrappers.
    Layer times are raw seconds of that one traced run.
    """
    total: Dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    detail: Dict[str, float] = defaultdict(float)
    for span in spans:
        if span.reentrant:
            continue
        total[span.name] += span.duration
        calls[span.name] += 1
        if isinstance(span.detail, (int, float)):
            detail[span.name] += span.detail
    own = self_times(spans)
    engine_self = sum(own[span.id] for span in spans
                      if span.name == "engine.round" and not span.reentrant)

    extras = [record.result.extras for record in records
              if record.result is not None and record.job_id is None]
    bound = Counter()
    lp_cache = Counter()
    for entry in extras:
        bound.update({key: value for key, value in entry.get("bound_cache", {}).items()
                      if key.endswith(("_hits", "_misses"))})
        lp_cache.update({key: entry["lp_cache"][key] for key in ("hits", "misses")})
    jobs = Counter()
    for record in records:
        jobs.update(record.cache_stats)

    first_start: Dict[str, float] = {}
    for span in spans:
        if span.name == "service.start_job":
            first_start.setdefault(span.detail, span.start)
    waits = [first_start[record.job_id] - record.submitted for record in records
             if record.job_id in first_start]

    start, end = pass_window
    return {
        "heuristic.calls": calls["heuristic"],
        "heuristic.s": total["heuristic"],
        "heuristic.us_per_call": _ratio(total["heuristic"] * 1e6, calls["heuristic"]),
        "appver.batch_calls": calls["appver.batch"],
        "appver.batch_s": total["appver.batch"],
        "appver.children": detail["appver.batch"],
        "appver.us_per_child": _ratio(total["appver.batch"] * 1e6, detail["appver.batch"]),
        "appver.mean_batch": _ratio(detail["appver.batch"], calls["appver.batch"]),
        "appver.single_calls": calls["appver.single"],
        "appver.single_s": total["appver.single"],
        "cache.layer_hit_rate": _ratio(bound["layer_hits"],
                                       bound["layer_hits"] + bound["layer_misses"]),
        "cache.report_hit_rate": _ratio(bound["report_hits"],
                                        bound["report_hits"] + bound["report_misses"]),
        "cache.candidate_hit_rate": _ratio(bound["candidate_hits"],
                                           bound["candidate_hits"] + bound["candidate_misses"]),
        "alpha.batch_s": total["alpha.batch"],
        "alpha.single_s": total["alpha.single"],
        "lp.calls": calls["lp"],
        "lp.s": total["lp"],
        "lp.leaves": detail["lp"],
        "lp.cache_hit_rate": _ratio(lp_cache["hits"], lp_cache["hits"] + lp_cache["misses"]),
        "mcts.select_calls": calls["mcts.select"],
        "mcts.select_s": total["mcts.select"],
        "mcts.backprop_s": total["mcts.backprop"],
        "engine.rounds": calls["engine.round"],
        "engine.round_s": total["engine.round"],
        "engine.self_s": engine_self,
        "attack.pgd_calls": calls["attack.pgd"],
        "attack.pgd_s": total["attack.pgd"],
        "setup.train_s": total["setup.train"],
        "setup.root_radius_s": total["setup.root_radius"],
        "setup.attack_radius_s": total["setup.attack_radius"],
        "service.start_job_s": total["service.start_job"],
        "service.slice_roundtrip_s": total["service.slice"],
        "service.slices": calls["service.slice"],
        "service.queue_wait_p50_s": percentile(waits, 0.5) if waits else 0.0,
        "service.fingerprint_s": total["service.fingerprint"],
        "service.adopt_payload_s": total["service.adopt_payload"],
        "service.retries": service_stats.get("retries", 0),
        "service.lp_hit_rate": _ratio(jobs["lp_hits"], jobs["lp_hits"] + jobs["lp_misses"]),
        "service.bound_hit_rate": _ratio(
            jobs["bound_layer_hits"] + jobs["bound_report_hits"],
            jobs["bound_layer_hits"] + jobs["bound_report_hits"]
            + jobs["bound_layer_misses"] + jobs["bound_report_misses"]),
        "trace.coverage": coverage(spans, start, end),
        "trace.overhead": slowdown - 1.0,
    }
