"""Benchmark entry point: one workload, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` sets the workload up several times (reporting the median set-up
time), then runs whole passes over its problems — the workload's minimum, more
while they fit in ``--seconds`` — and prints the end-to-end metrics.  ``--trace 1`` sets
up once and runs one untraced and one traced pass, printing the per-layer
metrics and writing ``perfbench/out/trace-<workload>.json``.  The last line
of standard output is the result object; the line before it records the
environment and the run's provenance.  The exit code is 0 whenever a result
was printed, whether or not every problem passed the correctness check.
"""

import os

# Pinned before numpy is first imported: BLAS thread count alone moves suite
# time by about a tenth, and the workloads are single-threaded by design.
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

#: Set-ups per end-to-end run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _provenance(workload, seed: int, passes: int, records) -> dict:
    import numpy
    from perfbench import metrics, workloads
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": workload.name,
        "seed": seed,
        "suite_seed": workloads.SUITE_SEED,
        "families": list(workload.families),
        "instances_per_family": workload.instances_per_family,
        "max_nodes": workload.max_nodes,
        "hang_guard_seconds": workloads.HANG_GUARD_SECONDS,
        "passes": passes,
        "verdict_hash": metrics.verdict_hash(records),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _emit(provenance: dict, failures, attempted: int, values: dict, units: dict) -> None:
    for record, reason in failures[:10]:
        print(f"FAILED {record.key}: {reason}", file=sys.stderr)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": float(values[name]), "unit": units[name][0]}
                    for name in units},
    }))


def end_to_end_run(workload, seed: int, seconds: float) -> None:
    from perfbench import hostspeed, metrics, workloads
    setup_times = []
    raw_setup_times = []
    for _ in range(SETUP_REPEATS):
        probes = hostspeed.probes()
        began = workloads.clock()
        inputs = workloads.setup(workload, seed)
        raw_setup_times.append(workloads.clock() - began)
        probes += hostspeed.probes()
        setup_times.append(raw_setup_times[-1] * hostspeed.factor(probes))
    # Whole passes only, so every run measures the same problem mix; past
    # the minimum, another pass starts only when it should end within ``seconds``.
    passes = [workloads.run_pass(inputs) for _ in range(workload.min_passes)]
    while sum(p.wall for p in passes) + passes[-1].wall <= seconds:
        passes.append(workloads.run_pass(inputs))
    records = [record for p in passes for record in p.records]
    failures = metrics.check_records(records, inputs.lookup(), seed)
    values = metrics.end_to_end([(p.records, p.scaled_seconds) for p in passes],
                                len(failures), statistics.median(setup_times))
    raw = metrics.end_to_end([(p.records, p.seconds) for p in passes], len(failures),
                             statistics.median(raw_setup_times), scaled=False)
    provenance = _provenance(workload, seed, len(passes), records)
    provenance["host_factors"] = [round(p.scaled_seconds / p.seconds, 4) for p in passes]
    provenance["raw"] = raw
    _emit(provenance, failures, len(records), values, metrics.END_TO_END_UNITS)


def traced_run(workload, seed: int) -> None:
    from perfbench import layers, metrics, workloads
    from perfbench.tracer import Tracer
    tracer = Tracer(clock=workloads.clock)
    origin = tracer.clock()
    sites = layers.sites()
    with tracer.installed(sites):
        inputs = workloads.setup(workload, seed)
    untraced = workloads.run_pass(inputs)
    with tracer.installed(sites):
        traced = workloads.run_pass(inputs, tracer)
    records = untraced.records + traced.records
    failures = metrics.check_records(records, inputs.lookup(), seed)
    values = layers.per_layer(tracer.spans, traced.records, traced.service_stats,
                              (traced.start, traced.end),
                              traced.scaled_seconds / untraced.scaled_seconds)
    path = tracer.write_chrome(ROOT / "perfbench" / "out" / f"trace-{workload.name}.json",
                               origin)
    provenance = _provenance(workload, seed, 2, records)
    provenance["trace_file"] = str(path.relative_to(ROOT))
    provenance["traced_wall_s"] = traced.wall
    _emit(provenance, failures, len(records), values, layers.PER_LAYER_UNITS)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no library sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.trace:
        traced_run(workload, args.seed)
    else:
        end_to_end_run(workload, args.seed, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
