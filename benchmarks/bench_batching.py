"""Micro-benchmark: batched vs one-child-at-a-time AppVer throughput.

Models the hot path of every BaB-style verifier in the library — expanding
the phase-split children of already-bounded parent sub-problems — and
measures AppVer calls/second on the seed synthetic model families in three
modes:

* ``sequential``      — one ``evaluate`` call per child, cache off: the one
  bound kernel at ``B = 1``, once per child (the pre-batching call
  pattern; the JSON keys keep the ``sequential`` name);
* ``batched``         — one ``evaluate_batch`` call for all children,
  cache off (pure batching);
* ``engine``          — ``evaluate_batch`` with the split-aware bound
  cache, parents already bounded (the shipped default: children reuse
  every cached layer below their newly decided neuron).

With ``--frontier`` the benchmark additionally runs the ABONN verifier
end-to-end at several ``frontier_size`` values on the dense seed families
and reports, per run, the verdict, throughput, and the *realised*
``evaluate_batch`` size histogram from the verifier's own stats — so the
batch sizes the frontier actually achieves are observable in the JSON
instead of inferred from the micro-benchmark.

With ``--lp`` the benchmark exercises the batched + cached leaf-LP path:

* a micro-benchmark solves a workload of fully phase-decided leaves
  (sibling-heavy, as frontier rounds produce them) one-by-one via
  ``solve_leaf_lp``, batched via ``solve_leaf_lp_batch``, and batched again
  against a warm ``LpCache`` — asserting identical optima and reporting
  the cache hit/solve counters and how many leaves the emptiness
  certificate closed before HiGHS (``proven_empty``); the batched optima
  are additionally gated against an independent reference that solves
  each leaf through the hidden-variable ``_encode_problem`` encoding of
  the MILP verifier;
* end-to-end ABONN runs at ``frontier_size ∈ {1, 2, 8}`` *share* one
  ``LpCache`` per problem (sound: the cache key is the canonical split
  assignment scoped by the problem fingerprint), so re-visited leaves
  across the sweep never re-solve — verdicts must not depend on the
  frontier size or on cache hits.

With ``--incremental`` the benchmark measures the incremental (rank-1
parent-pass reuse) bound path: ABONN runs at ``K ∈ {1, 2, 8}`` with the
incremental path on and off must produce identical verdicts, node charges
and counterexamples, and a replay of the recorded ``K=8`` frontier rounds
(mode-interleaved repetitions, min per round) must show the per-child
bound-time speedup the acceptance gate requires (≥1.5x median on the dense
families in full mode).

With ``--alpha`` the benchmark bounds each family's ``_make_problem`` root
with DeepPoly and with α-CROWN's exact-gradient slope ascent and records
both ``p̂`` and α-CROWN's milliseconds per call; ``alpha_never_looser``
holds when no α-CROWN root bound is below its DeepPoly bound.

With ``--kernel`` the benchmark bounds each family's ``_make_problem`` root
and its first frontier (both phase-split children of the root's first
unstable neurons, through the cache and the parent pass, as the engine
bounds them) with the DeepPoly kernel and with the cache-free textbook
oracle of ``tests/reference_bounds.py``.  Per batch it records the largest
bound difference and the fraction of hidden columns dead in every row —
the columns the kernel's live-column substitution skips.
``kernel_matches_reference`` holds when every difference is within 1e-9
and every flag and corner is equal; ``dead_columns_skipped`` when some
batch had a dead column.

Results are printed as JSON and written to
``benchmarks/output/BENCH_batching.json`` so future runs can track the
speedup; a stable top-level ``summary`` block (median per-child bound
times, LP solves, cache hit rates) feeds
``tools/check_bench_regression.py``, which CI runs against the committed
baseline.  Smoke mode (``REPRO_BENCH_SMOKE=1`` or ``--smoke``) shrinks the
workload so the benchmark runs in CI in a few seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from statistics import median
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from repro.bounds.alpha_crown import AlphaCrownAnalyzer
from repro.bounds.cache import BoundCache, LpCache
from repro.bounds.deeppoly import DeepPolyAnalyzer
from repro.bounds.splits import ACTIVE, INACTIVE, ReluSplit, SplitAssignment
from repro.core.abonn import AbonnVerifier
from repro.core.config import AbonnConfig
from repro.nn.zoo import MODEL_FAMILIES
from repro.specs.robustness import local_robustness_spec
from repro.utils.timing import Budget
from repro.verifiers.appver import ApproximateVerifier
from repro.verifiers.milp import (
    RowOptimum,
    _encode_problem,
    _objective_vector,
    _solve,
    solve_leaf_lp,
    solve_leaf_lp_batch,
)

OUTPUT_PATH = Path(__file__).resolve().parent / "output" / "BENCH_batching.json"
TESTS_PATH = Path(__file__).resolve().parent.parent / "tests"

#: Agreement ``--kernel`` requires between the kernel and the oracle.
KERNEL_TOLERANCE = 1e-9

FULL_FAMILIES = ("MNIST_L2", "MNIST_L4", "CIFAR_BASE", "CIFAR_DEEP")
SMOKE_FAMILIES = ("MNIST_L2",)
#: End-to-end frontier runs use the AppVer-dispatch-bound dense families.
FRONTIER_FAMILIES = ("MNIST_L2", "MNIST_L4")
SMOKE_FRONTIER_FAMILIES = ("MNIST_L2",)


def _smoke_mode(args: argparse.Namespace) -> bool:
    return args.smoke or os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")


def _make_problem(family_name: str, epsilon: float = 0.05):
    """An untrained seed-family network with a robustness spec (throughput
    does not depend on training, only on the architecture)."""
    family = MODEL_FAMILIES[family_name]
    dataset = family.build_dataset(0)
    network = family.build_network(dataset, 0)
    reference = dataset.inputs[0].reshape(-1)
    label = int(network.predict(reference.reshape(1, -1))[0])
    spec = local_robustness_spec(reference, epsilon, label, dataset.num_classes)
    return network, spec


def _make_frontier(network, spec, batch_size: int, seed: int
                   ) -> Tuple[List[SplitAssignment], List[SplitAssignment]]:
    """A BaB-expansion workload: parents plus their phase-split children.

    Parents carry 0-2 random splits (as mid-search sub-problems do); each
    contributes its two children on a fresh unstable neuron until
    ``batch_size`` children exist.
    """
    probe = ApproximateVerifier(network, spec, use_cache=False)
    unstable = probe.evaluate().report.unstable_neurons()
    assert unstable, "benchmark problem must have unstable neurons"
    rng = np.random.default_rng(seed)

    parents: List[SplitAssignment] = []
    children: List[SplitAssignment] = []
    while len(children) < batch_size:
        depth = int(rng.integers(0, 3))
        chosen = rng.choice(len(unstable), size=min(depth + 1, len(unstable)),
                            replace=False)
        parent = SplitAssignment.empty()
        for index in chosen[:-1]:
            layer, unit = unstable[int(index)]
            phase = ACTIVE if rng.random() < 0.5 else INACTIVE
            parent = parent.with_split(ReluSplit(layer, unit, phase))
        parents.append(parent)
        branch_layer, branch_unit = unstable[int(chosen[-1])]
        for phase in (ACTIVE, INACTIVE):
            if len(children) < batch_size:
                children.append(parent.with_split(
                    ReluSplit(branch_layer, branch_unit, phase)))
    return parents, children


def _branching_problem(family_name: str):
    """A robustness problem whose root raises a false alarm (needs splits).

    Searches a geometric epsilon ladder for the first radius at which the
    root DeepPoly bound neither verifies nor falsifies the untrained seed
    network — the regime where the BaB search (and hence the frontier) runs.
    """
    family = MODEL_FAMILIES[family_name]
    dataset = family.build_dataset(0)
    network = family.build_network(dataset, 0)
    for reference_index in range(8):
        reference = dataset.inputs[reference_index].reshape(-1)
        label = int(network.predict(reference.reshape(1, -1))[0])
        for epsilon in (0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.4):
            spec = local_robustness_spec(reference, epsilon,
                                         label, dataset.num_classes)
            outcome = ApproximateVerifier(network, spec,
                                          use_cache=False).evaluate()
            if outcome.needs_split:
                return network, spec, epsilon
    raise RuntimeError(f"no branching problem found for {family_name}")


def bench_frontier(family_name: str, frontier_sizes, max_nodes: int) -> List[Dict]:
    """End-to-end ABONN runs: verdict + realised batch sizes per frontier."""
    network, spec, epsilon = _branching_problem(family_name)
    rows = []
    for frontier_size in frontier_sizes:
        config = AbonnConfig(frontier_size=frontier_size)
        start = time.perf_counter()
        result = AbonnVerifier(config).verify(network, spec,
                                              Budget(max_nodes=max_nodes))
        elapsed = time.perf_counter() - start
        stats = result.extras["bound_cache"]
        rows.append({
            "network": family_name,
            "epsilon": epsilon,
            "frontier_size": frontier_size,
            "status": result.status.value,
            "nodes_explored": result.nodes_explored,
            "elapsed_seconds": elapsed,
            "nodes_per_sec": result.nodes_explored / elapsed if elapsed else 0.0,
            "mean_realised_batch": stats["mean_realised_batch"],
            "batch_histogram": stats["batch_histogram"],
        })
    return rows


def _decided_leaf_workload(network, spec, clusters: int, seed: int):
    """Fully phase-decided leaves, sibling-heavy as frontier rounds yield them.

    Each cluster fully decides the unstable neurons of one random base
    assignment and contributes the base leaf plus one sibling (a single
    flipped phase, so sibling leaves differ in one split row).  Returns
    ``[(splits, report), ...]`` with each report from the leaf's own bound
    analysis, exactly as the drivers hand them to the LP.
    """
    appver = ApproximateVerifier(network, spec, use_cache=False)
    rng = np.random.default_rng(seed)
    leaves = []
    for _ in range(clusters):
        splits = SplitAssignment.empty()
        outcome = appver.evaluate(splits)
        # Decide every unstable neuron (splitting can re-destabilise a
        # neuron in corner cases, so iterate until the leaf is decided).
        for _ in range(4):
            unstable = outcome.report.unstable_neurons(splits)
            if not unstable:
                break
            for layer, unit in unstable:
                phase = ACTIVE if rng.random() < 0.5 else INACTIVE
                splits = splits.with_split(ReluSplit(layer, unit, phase))
            outcome = appver.evaluate(splits)
        if outcome.report.unstable_neurons(splits):
            continue  # pragma: no cover - pathological family
        leaves.append((splits, outcome.report))
        # The sibling flips the last decided neuron's phase.
        decided = splits.decided_neurons()
        flip_layer, flip_unit = decided[-1]
        sibling = SplitAssignment(
            {neuron: (-splits.phase_of(*neuron) if neuron == (flip_layer, flip_unit)
                      else splits.phase_of(*neuron)) for neuron in decided})
        sibling_outcome = appver.evaluate(sibling)
        if not sibling_outcome.report.unstable_neurons(sibling):
            leaves.append((sibling, sibling_outcome.report))
    return appver.lowered, leaves


def _reference_leaf_lp(lowered, box, spec, splits, report) -> RowOptimum:
    """One leaf solved through the *independent* hidden-variable encoding.

    ``_encode_problem`` (the MILP verifier's row construction) keeps every
    hidden neuron as a variable: ``h = z`` rows for active neurons, a sign
    row per neuron and variable bounds from the report.  The input-space
    leaf LP must reproduce its feasibility and optimum.
    """
    encoding, builder, var_lower, var_upper, _ = _encode_problem(
        lowered, box, report, splits, with_binaries=False)
    constraints = builder.to_constraint()
    integrality = np.zeros(encoding.num_variables)
    best = RowOptimum(float("inf"), None, feasible=False)
    for row_index in range(spec.num_constraints):
        objective, constant = _objective_vector(lowered,
                                                spec.coefficients[row_index],
                                                encoding)
        constant += float(spec.offsets[row_index])
        optimum = _solve(objective, constant, constraints, var_lower, var_upper,
                         integrality, encoding.num_inputs, None)
        if not optimum.feasible:
            return optimum
        if optimum.value < best.value:
            best = optimum
    return best


def bench_lp(family_name: str, clusters: int, frontier_sizes,
             max_nodes: int) -> Dict:
    """Micro + end-to-end benchmark of batched, cached leaf-LP resolution."""
    network, spec, epsilon = _branching_problem(family_name)
    lowered, leaves = _decided_leaf_workload(network, spec, clusters, seed=17)

    start = time.perf_counter()
    sequential = [solve_leaf_lp(lowered, spec.input_box, spec.output_spec,
                                splits, report) for splits, report in leaves]
    sequential_seconds = time.perf_counter() - start

    cache = LpCache()
    start = time.perf_counter()
    batched = solve_leaf_lp_batch(lowered, spec.input_box, spec.output_spec,
                                  leaves, cache=cache)
    batched_seconds = time.perf_counter() - start

    start = time.perf_counter()
    warm = solve_leaf_lp_batch(lowered, spec.input_box, spec.output_spec,
                               leaves, cache=cache)
    warm_seconds = time.perf_counter() - start

    reference = [_reference_leaf_lp(lowered, spec.input_box, spec.output_spec,
                                    splits, report) for splits, report in leaves]

    def equal(a, b):
        if a.feasible != b.feasible:
            return False
        if a.feasible and abs(a.value - b.value) > 1e-6:
            return False
        return True

    optima_equal = (all(equal(a, b) for a, b in zip(sequential, batched))
                    and all(a is b for a, b in zip(batched, warm)))
    reference_optima_equal = all(equal(a, b) for a, b in zip(batched, reference))

    # End-to-end: one shared cache across the frontier sweep of the same
    # problem, so leaves re-visited at another K are hits, never re-solves.
    shared = LpCache()
    runs = []
    statuses = set()
    for frontier_size in frontier_sizes:
        config = AbonnConfig(frontier_size=frontier_size)
        result = AbonnVerifier(config, lp_cache=shared).verify(
            network, spec, Budget(max_nodes=max_nodes))
        statuses.add(result.status.value)
        runs.append({
            "frontier_size": frontier_size,
            "status": result.status.value,
            "lp_leaves_resolved": result.extras["lp_leaves_resolved"],
            "lp_cache": result.extras["lp_cache"],
        })
    return {
        "network": family_name,
        "epsilon": epsilon,
        "leaves": len(leaves),
        "sequential_seconds": sequential_seconds,
        "batched_seconds": batched_seconds,
        "warm_seconds": warm_seconds,
        "speedup_batched": (sequential_seconds / batched_seconds
                            if batched_seconds else 0.0),
        "speedup_warm": (sequential_seconds / warm_seconds
                         if warm_seconds else 0.0),
        "optima_equal": optima_equal,
        "reference_optima_equal": reference_optima_equal,
        "micro_cache": cache.stats.as_dict(),
        # Micro leaves closed by the emptiness certificate, never by HiGHS.
        "proven_empty": cache.stats.proven_empty,
        "verdicts_match": len(statuses) == 1,
        "shared_cache": shared.stats.as_dict(),
        "runs": runs,
    }


def _record_frontier_rounds(network, spec, max_nodes: int) -> List[Tuple]:
    """The (children, parents) of every K=8 frontier round of one ABONN run."""
    rounds: List[Tuple] = []
    original = ApproximateVerifier.evaluate_batch

    def recording(self, splits_list, method=None, parents=None):
        if len(splits_list) > 1:
            rounds.append((list(splits_list),
                           list(parents) if parents is not None else None))
        return original(self, splits_list, method=method, parents=parents)

    ApproximateVerifier.evaluate_batch = recording
    try:
        AbonnVerifier(AbonnConfig(frontier_size=8)).verify(
            network, spec, Budget(max_nodes=max_nodes))
    finally:
        ApproximateVerifier.evaluate_batch = original
    return rounds


def _replay_per_child_times(network, spec, rounds, incremental: bool
                            ) -> List[float]:
    """Per-child bound time of each round against a fresh verifier."""
    verifier = ApproximateVerifier(network, spec, incremental=incremental)
    verifier.evaluate()  # bound the root, as the real run does
    times = []
    for splits_list, parents in rounds:
        start = time.perf_counter()
        verifier.evaluate_batch(splits_list,
                                parents=parents if incremental else None)
        times.append((time.perf_counter() - start) / len(splits_list))
    return times


def bench_incremental(family_name: str, frontier_sizes, max_nodes: int,
                      repetitions: int) -> Dict:
    """Equality + per-child speedup of the incremental bound path.

    Verdicts, node charges and counterexamples must be identical with the
    incremental path on and off at every frontier size; the speedup is the
    ratio of median per-child bound times over the replayed ``K=8`` rounds
    (mode-interleaved repetitions, min per round, so scheduler noise hits
    both modes alike).
    """
    network, spec, epsilon = _branching_problem(family_name)

    equality_rows = []
    all_equal = True
    for frontier_size in frontier_sizes:
        results = {}
        for incremental in (False, True):
            config = AbonnConfig(frontier_size=frontier_size,
                                 incremental=incremental)
            results[incremental] = AbonnVerifier(config).verify(
                network, spec, Budget(max_nodes=max_nodes))
        baseline, observed = results[False], results[True]
        cex_equal = ((baseline.counterexample is None)
                     == (observed.counterexample is None)
                     and (baseline.counterexample is None
                          or np.array_equal(baseline.counterexample,
                                            observed.counterexample)))
        row_equal = (baseline.status == observed.status
                     and baseline.nodes_explored == observed.nodes_explored
                     and cex_equal)
        all_equal = all_equal and row_equal
        equality_rows.append({
            "frontier_size": frontier_size,
            "status": baseline.status.value,
            "nodes_explored": baseline.nodes_explored,
            "identical": row_equal,
        })

    rounds = _record_frontier_rounds(network, spec, max_nodes)
    best: Dict[bool, List[float]] = {False: None, True: None}
    for repetition in range(repetitions + 1):
        for incremental in (False, True):
            times = _replay_per_child_times(network, spec, rounds, incremental)
            if repetition == 0:
                continue  # warm-up pass: NumPy buffers, branch caches
            if best[incremental] is None:
                best[incremental] = times
            else:
                best[incremental] = [min(a, b) for a, b
                                     in zip(best[incremental], times)]
    median_baseline = median(best[False]) if rounds else 0.0
    median_incremental = median(best[True]) if rounds else 0.0

    # One instrumented replay for the reuse counters and phase breakdown.
    verifier = ApproximateVerifier(network, spec, incremental=True)
    verifier.evaluate()
    for splits_list, parents in rounds:
        verifier.evaluate_batch(splits_list, parents=parents)
    stats = verifier.cache_stats()
    return {
        "network": family_name,
        "epsilon": epsilon,
        "rounds": len(rounds),
        "children": sum(len(r[0]) for r in rounds),
        "identical_runs": all_equal,
        "equality_rows": equality_rows,
        "median_per_child_us_baseline": median_baseline * 1e6,
        "median_per_child_us_incremental": median_incremental * 1e6,
        "speedup_incremental": (median_baseline / median_incremental
                                if median_incremental else 0.0),
        "delta_corrections": stats["delta_corrections"],
        "candidate_hits": stats["candidate_hits"],
        "candidate_misses": stats["candidate_misses"],
        "timings": verifier.timings.as_dict(),
    }


def _best_time(run, repetitions: int) -> float:
    best = float("inf")
    for _ in range(repetitions):
        best = min(best, run())
    return best


def bench_family(family_name: str, batch_sizes, repetitions: int) -> List[Dict]:
    network, spec = _make_problem(family_name)
    rows = []
    for batch_size in batch_sizes:
        parents, children = _make_frontier(network, spec, batch_size,
                                           seed=batch_size)

        def time_sequential() -> float:
            verifier = ApproximateVerifier(network, spec, use_cache=False)
            verifier.evaluate()  # warm NumPy buffers
            start = time.perf_counter()
            for splits in children:
                verifier.evaluate(splits)
            return time.perf_counter() - start

        def time_batched() -> float:
            verifier = ApproximateVerifier(network, spec, use_cache=False)
            verifier.evaluate()
            start = time.perf_counter()
            verifier.evaluate_batch(children)
            return time.perf_counter() - start

        def time_engine() -> float:
            verifier = ApproximateVerifier(network, spec, use_cache=True)
            verifier.evaluate()
            verifier.evaluate_batch(parents)  # BaB bounded the parents already
            start = time.perf_counter()
            verifier.evaluate_batch(children)
            return time.perf_counter() - start

        sequential = _best_time(time_sequential, repetitions)
        batched = _best_time(time_batched, repetitions)
        engine = _best_time(time_engine, repetitions)
        rows.append({
            "network": family_name,
            "batch_size": batch_size,
            "sequential_calls_per_sec": batch_size / sequential,
            "batched_calls_per_sec": batch_size / batched,
            "engine_calls_per_sec": batch_size / engine,
            "speedup_batched": sequential / batched,
            "speedup_engine": sequential / engine,
        })
    return rows


def bench_alpha(family_name: str, repetitions: int) -> Dict:
    """Root ``p̂`` of DeepPoly and α-CROWN, and α-CROWN's time per call."""
    network, spec = _make_problem(family_name)
    lowered = network.lowered()
    box, output_spec = spec.input_box, spec.output_spec
    deeppoly = DeepPolyAnalyzer(lowered).analyze(box, spec=output_spec)
    analyzer = AlphaCrownAnalyzer(lowered)
    alpha = analyzer.analyze(box, spec=output_spec)

    def time_alpha() -> float:
        start = time.perf_counter()
        analyzer.analyze(box, spec=output_spec)
        return time.perf_counter() - start

    return {
        "network": family_name,
        "iterations": analyzer.config.iterations,
        "deeppoly_p_hat": deeppoly.p_hat,
        "alpha_p_hat": alpha.p_hat,
        "alpha_ms_per_call": 1e3 * _best_time(time_alpha, repetitions),
    }


def _max_report_difference(got, want) -> float:
    """Largest bound difference of two reports; ``inf`` when a flag, a
    corner or an infinite ``p̂`` disagrees."""
    if (got.infeasible != want.infeasible
            or not np.array_equal(got.candidate_input, want.candidate_input)):
        return float("inf")
    if not np.isfinite(want.p_hat) or not np.isfinite(got.p_hat):
        return 0.0 if got.p_hat == want.p_hat else float("inf")
    pairs = list(zip(got.pre_activation_bounds, want.pre_activation_bounds))
    pairs.append((got.output_bounds, want.output_bounds))
    differences = [abs(got.p_hat - want.p_hat),
                   float(np.max(np.abs(got.spec_row_lower - want.spec_row_lower)))]
    for got_bounds, want_bounds in pairs:
        differences.append(float(np.max(np.abs(got_bounds.lower - want_bounds.lower))))
        differences.append(float(np.max(np.abs(got_bounds.upper - want_bounds.upper))))
    return max(differences)


def _dead_column_fraction(reports) -> float:
    """Share of hidden columns dead in every row of one batch: stably or
    split inactive, so their whole relaxation is zero."""
    dead = total = 0
    for layer in range(len(reports[0].pre_activation_bounds)):
        lower = np.stack([r.pre_activation_bounds[layer].lower for r in reports])
        upper = np.stack([r.pre_activation_bounds[layer].upper for r in reports])
        dead += int(np.all((upper <= 0.0) & (lower < 0.0), axis=0).sum())
        total += lower.shape[1]
    return dead / total if total else 0.0


def bench_kernel(family_name: str, children_per_round: int) -> List[Dict]:
    """Kernel vs reference oracle on the root and its first frontier."""
    if str(TESTS_PATH) not in sys.path:
        sys.path.insert(0, str(TESTS_PATH))
    from reference_bounds import reference_deeppoly

    network, spec = _make_problem(family_name)
    lowered = network.lowered()
    box, output_spec = spec.input_box, spec.output_spec
    analyzer = DeepPolyAnalyzer(lowered)
    cache = BoundCache()
    root_splits = SplitAssignment.empty()
    root = analyzer.analyze(box, root_splits, spec=output_spec, cache=cache)
    unstable = root.unstable_neurons()[:children_per_round // 2]
    children = [root_splits.with_split(ReluSplit(layer, unit, phase))
                for layer, unit in unstable for phase in (ACTIVE, INACTIVE)]
    batches = [("root", [root_splits], [root])]
    if children:
        batches.append(("frontier", children, analyzer.analyze_batch(
            box, children, spec=output_spec, cache=cache,
            parents=[root_splits] * len(children))))
    rows = []
    for name, batch, reports in batches:
        difference = max(_max_report_difference(
            report, reference_deeppoly(lowered, box, splits, output_spec))
            for splits, report in zip(batch, reports))
        rows.append({
            "network": family_name,
            "batch": name,
            "batch_size": len(batch),
            "max_difference": difference,
            "dead_column_fraction": _dead_column_fraction(reports),
        })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny repetitions/batch sizes for CI")
    parser.add_argument("--frontier", action="store_true",
                        help="also run end-to-end ABONN frontier expansion and "
                             "report realised batch-size histograms")
    parser.add_argument("--lp", action="store_true",
                        help="also benchmark batched + cached leaf-LP "
                             "resolution (micro workload and an end-to-end "
                             "frontier sweep sharing one LpCache)")
    parser.add_argument("--incremental", action="store_true",
                        help="also measure the incremental (rank-1 "
                             "parent-pass reuse) bound path: per-child "
                             "speedup at K=8 plus verdict/charge equality "
                             "at K in {1, 2, 8}")
    parser.add_argument("--alpha", action="store_true",
                        help="also bound each family's root with DeepPoly "
                             "and α-CROWN: both p̂ and α-CROWN ms per call")
    parser.add_argument("--kernel", action="store_true",
                        help="also compare the DeepPoly kernel with the "
                             "reference oracle on each family's root and "
                             "first frontier, with the dead-column fraction")
    args = parser.parse_args(argv)
    smoke = _smoke_mode(args)

    batch_sizes = (1, 8) if smoke else (1, 2, 4, 8, 16, 32)
    repetitions = 3 if smoke else 9
    families = SMOKE_FAMILIES if smoke else FULL_FAMILIES

    rows: List[Dict] = []
    for family_name in families:
        rows.extend(bench_family(family_name, batch_sizes, repetitions))

    large_batches = [row for row in rows if row["batch_size"] >= 8]
    dense_rows = [row for row in large_batches
                  if row["network"].startswith("MNIST")]
    summary = {
        "smoke": smoke,
        # The dense seed families are AppVer-dispatch-bound; batching them is
        # the headline ≥2x win.  The conv-lowered families are single-core
        # GEMM-bound, where batching mainly helps via the split-aware cache —
        # their rows are reported for transparency.
        "min_speedup_batched_dense_at_batch_ge_8": min(
            row["speedup_batched"] for row in dense_rows),
        "min_speedup_engine_at_batch_ge_8": min(row["speedup_engine"]
                                                for row in large_batches),
        "max_speedup_engine_at_batch_ge_8": max(row["speedup_engine"]
                                                for row in large_batches),
        "min_speedup_batched_at_batch_ge_8": min(row["speedup_batched"]
                                                 for row in large_batches),
    }
    payload = {"benchmark": "appver_batching", "summary": summary, "rows": rows}

    if args.frontier:
        frontier_families = (SMOKE_FRONTIER_FAMILIES if smoke
                             else FRONTIER_FAMILIES)
        frontier_sizes = (1, 8) if smoke else (1, 2, 8)
        max_nodes = 64 if smoke else 512
        frontier_rows: List[Dict] = []
        for family_name in frontier_families:
            frontier_rows.extend(bench_frontier(family_name, frontier_sizes,
                                                max_nodes))
        by_family: Dict[str, Dict[int, Dict]] = {}
        for row in frontier_rows:
            by_family.setdefault(row["network"], {})[row["frontier_size"]] = row
        payload["frontier"] = {
            "max_nodes": max_nodes,
            "summary": {
                # Verdicts must not depend on the frontier size.
                "verdicts_match": all(
                    len({row["status"] for row in runs.values()}) == 1
                    for runs in by_family.values()),
                # Acceptance: mean realised evaluate_batch size at K=8 on the
                # dense families must reach the batched throughput regime.
                "min_mean_realised_batch_at_frontier_8": min(
                    runs[8]["mean_realised_batch"] for runs in by_family.values()
                    if 8 in runs),
            },
            "rows": frontier_rows,
        }
        summary["min_mean_realised_batch_at_frontier_8"] = \
            payload["frontier"]["summary"]["min_mean_realised_batch_at_frontier_8"]

    if args.lp:
        lp_families = SMOKE_FRONTIER_FAMILIES if smoke else FRONTIER_FAMILIES
        clusters = 3 if smoke else 10
        lp_frontier_sizes = (1, 2, 8)
        lp_max_nodes = 96 if smoke else 512
        lp_rows = [bench_lp(family_name, clusters, lp_frontier_sizes,
                            lp_max_nodes)
                   for family_name in lp_families]
        payload["lp"] = {
            "max_nodes": lp_max_nodes,
            "summary": {
                # Acceptance: re-visited leaves are served from the cache
                # (hit rate > 0), optima are bit-identical to the
                # one-at-a-time path and equal to the hidden-variable
                # reference encoding, and verdicts are independent of the
                # frontier size and of cache hits.
                "min_micro_hit_rate": min(row["micro_cache"]["hit_rate"]
                                          for row in lp_rows),
                "optima_equal": all(row["optima_equal"] for row in lp_rows),
                "reference_optima_equal": all(row["reference_optima_equal"]
                                              for row in lp_rows),
                "verdicts_match": all(row["verdicts_match"] for row in lp_rows),
                "total_shared_hits": sum(row["shared_cache"]["hits"]
                                         for row in lp_rows),
                "total_lp_solves": sum(row["shared_cache"]["solves"]
                                       for row in lp_rows),
                # > 0 keeps the exactness gates above covering leaves the
                # emptiness certificate closes before HiGHS.
                "total_proven_empty": sum(row["proven_empty"]
                                          for row in lp_rows),
            },
            "rows": lp_rows,
        }
        summary["lp_min_micro_hit_rate"] = payload["lp"]["summary"]["min_micro_hit_rate"]
        summary["lp_total_solves"] = payload["lp"]["summary"]["total_lp_solves"]

    if args.incremental:
        inc_families = SMOKE_FRONTIER_FAMILIES if smoke else FRONTIER_FAMILIES
        inc_sizes = (1, 2, 8)
        inc_max_nodes = 96 if smoke else 512
        inc_reps = 3 if smoke else 9
        inc_rows = [bench_incremental(family_name, inc_sizes, inc_max_nodes,
                                      inc_reps)
                    for family_name in inc_families]
        payload["incremental"] = {
            "max_nodes": inc_max_nodes,
            "summary": {
                # Acceptance: verdicts, node charges and counterexamples
                # identical with the incremental path on and off at K in
                # {1, 2, 8}; >= 1.5x median per-child bound-time speedup at
                # K=8 on the dense families (gated in full mode — smoke
                # rounds are too short for stable medians).
                "identical_runs": all(row["identical_runs"]
                                      for row in inc_rows),
                "min_speedup_incremental": min(row["speedup_incremental"]
                                               for row in inc_rows),
                "total_delta_corrections": sum(row["delta_corrections"]
                                               for row in inc_rows),
            },
            "rows": inc_rows,
        }
        summary["incremental_identical_runs"] = \
            payload["incremental"]["summary"]["identical_runs"]
        summary["min_speedup_incremental"] = \
            payload["incremental"]["summary"]["min_speedup_incremental"]
        summary["median_per_child_us"] = {
            row["network"]: {
                "baseline": row["median_per_child_us_baseline"],
                "incremental": row["median_per_child_us_incremental"],
            } for row in inc_rows}

    if args.alpha:
        alpha_rows = [bench_alpha(family_name, repetitions)
                      for family_name in families]
        payload["alpha"] = {
            "summary": {
                # Any slope in [0, 1] is sound and the ascent keeps its best
                # pass, which starts at DeepPoly's, so it is never looser.
                "alpha_never_looser": all(row["alpha_p_hat"] >= row["deeppoly_p_hat"]
                                          for row in alpha_rows),
            },
            "rows": alpha_rows,
        }

    if args.kernel:
        kernel_rows = [row for family_name in families
                       for row in bench_kernel(family_name, 8)]
        payload["kernel"] = {
            "tolerance": KERNEL_TOLERANCE,
            "summary": {
                "kernel_matches_reference": all(
                    row["max_difference"] <= KERNEL_TOLERANCE for row in kernel_rows),
                "dead_columns_skipped": any(
                    row["dead_column_fraction"] > 0.0 for row in kernel_rows),
            },
            "rows": kernel_rows,
        }

    text = json.dumps(payload, indent=2)
    print(text)
    OUTPUT_PATH.parent.mkdir(parents=True, exist_ok=True)
    OUTPUT_PATH.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
