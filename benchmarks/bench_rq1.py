"""RQ1 (Table II, Fig. 6): what each verifier solves within a budget, and how soon.

Runs BaB-BFS, αβ-CROWN and ABONN, each at ``frontier_size`` K=8 and K=1 and
at node budgets of 300 and 2,000, on the same instances: the 55 of
perfbench's ``abcrown-suite`` workload (five families × 11, suite seed 0),
built through :func:`perfbench.workloads.setup` and sorted by key.

Before any verifier runs, every instance gets exactly one *stratum* from
verifier-neutral facts, checked in this order:

* ``root-bound`` — the DeepPoly root bound proves it;
* ``root-candidate`` — the root bound's candidate corner is a counterexample;
* ``pgd`` — αβ-CROWN's PGD attack configuration alone finds a
  counterexample, so a verifier that solves it may owe that to its attack;
* ``search`` — none of these: it needs branch and bound.

The suite keeps only instances the DeepPoly root leaves open, so the first
two strata are empty by construction; they are still reported.

Budgets are node budgets, so every verdict and node count is
deterministic: the ``node_budget`` section of the output is the same from
run to run.  Time-to-verdict comes from timing those same runs three
times, each run's seconds host-normalised with :mod:`perfbench.hostspeed`
as perfbench does; "solved within T s" is read from the timed 2,000-node
runs.

Ground truth is ``benchmarks/baselines/rq1_labels.json``, committed once
(``--write-labels``, about 11 minutes; never in CI): MILP at a fixed time
limit per row, plus counterexamples found by the verifiers where MILP
times out.  On load every stored counterexample is re-checked with a plain
forward pass.  The bench exits non-zero when a spec digest differs from
its label's, a conclusive verdict contradicts a label, a FALSIFIED result's
counterexample does not re-check, or a repetition changes a verdict or a
node count.

Usage (from the repository root)::

    python benchmarks/bench_rq1.py            # full run, about 15 minutes
    python benchmarks/bench_rq1.py --smoke    # 300 nodes, K=8, one repetition
    python benchmarks/bench_rq1.py --write-labels

The full run writes ``benchmarks/output/BENCH_rq1.json``,
``table2_rq1_overall.txt`` and ``fig6_violated_certified.txt``; the smoke
writes ``benchmarks/output/BENCH_rq1_smoke.json``, whose ``summary`` block
``tools/check_bench_regression.py`` gates "solved no lower" against
``benchmarks/baselines/BENCH_rq1_smoke.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import hostspeed, workloads  # noqa: E402
from repro.bab.baseline import BaBBaselineVerifier  # noqa: E402
from repro.baselines.alphabeta_crown import AlphaBetaCrownVerifier  # noqa: E402
from repro.core.abonn import AbonnVerifier  # noqa: E402
from repro.core.config import AbonnConfig  # noqa: E402
from repro.nn.network import Network  # noqa: E402
from repro.nn.zoo import FAMILY_ORDER  # noqa: E402
from repro.specs.properties import Specification  # noqa: E402
from repro.utils.timing import Budget  # noqa: E402
from repro.verifiers.appver import ApproximateVerifier  # noqa: E402
from repro.verifiers.attack import pgd_attack  # noqa: E402
from repro.verifiers.milp import MilpVerifier  # noqa: E402

OUTPUT_DIR = ROOT / "benchmarks" / "output"
LABELS_PATH = ROOT / "benchmarks" / "baselines" / "rq1_labels.json"
WORKLOAD = "abcrown-suite"

#: Verifiers in Table II's column order: name -> factory of ``frontier_size``.
VERIFIERS = {
    "bab_bfs": lambda k: BaBBaselineVerifier(exploration="bfs", frontier_size=k),
    "abcrown": lambda k: AlphaBetaCrownVerifier(frontier_size=k),
    "abonn": lambda k: AbonnVerifier(AbonnConfig(frontier_size=k)),
}
FRONTIER_SIZES = (8, 1)
NODE_BUDGETS = (300, 2000)
STRATA = ("root-bound", "root-candidate", "pgd", "search")
#: Timed repetitions of the full run (the smoke makes one).
TIMED_REPEATS = 3
#: Thresholds of "solved within T s" (reference-host seconds).
WITHIN_SECONDS = (0.1, 0.3, 1.0, 3.0, 10.0)
#: MILP's time limit per spec row when the labels were computed.
MILP_SECONDS_PER_ROW = 20.0

CONCLUSIVE = ("verified", "falsified")
clock = time.perf_counter


@dataclass(frozen=True)
class Instance:
    """One suite instance with the facts fixed before any verifier runs."""

    key: str
    family: str
    network: Network
    spec: Specification
    digest: str
    stratum: str


def config_name(verifier: str, k: int, nodes: int) -> str:
    return f"{verifier}_k{k}_n{nodes}"


def spec_digest(spec: Specification) -> str:
    """Digest of the input box and the output rows, as float64 bytes."""
    digest = hashlib.sha256()
    for array in (spec.input_box.lower, spec.input_box.upper,
                  spec.output_spec.coefficients, spec.output_spec.offsets):
        digest.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return digest.hexdigest()[:16]


def stratum_of(network: Network, spec: Specification) -> str:
    root = ApproximateVerifier(network, spec).evaluate()
    if root.verified:
        return "root-bound"
    if root.falsified:
        return "root-candidate"
    if pgd_attack(network, spec, AlphaBetaCrownVerifier().attack_config).is_counterexample:
        return "pgd"
    return "search"


def load_instances() -> List[Instance]:
    """The workload's instances, sorted by key, with digest and stratum."""
    inputs = workloads.setup(workloads.WORKLOADS[WORKLOAD], workloads.SUITE_SEED)
    families = {name.lower() + "_": name for name in FAMILY_ORDER}
    instances = []
    for problem in sorted(inputs.problems, key=lambda problem: problem.key):
        family = next(name for prefix, name in families.items()
                      if problem.key.startswith(prefix))
        instances.append(Instance(problem.key, family, problem.network, problem.spec,
                                  spec_digest(problem.spec),
                                  stratum_of(problem.network, problem.spec)))
    return instances


# -- labels -----------------------------------------------------------------------
def is_counterexample(instance: Instance, point: Sequence[float]) -> bool:
    """In the box, with a negative margin under a plain forward pass."""
    point = np.asarray(point, dtype=float).reshape(-1)
    return (point.shape == instance.spec.input_box.lower.shape
            and instance.spec.is_counterexample(instance.network, point))


def load_labels(instances: List[Instance]) -> tuple:
    """``(labels, errors)``: the committed labels, and every digest mismatch,
    missing label or stored counterexample that does not re-check."""
    labels = json.loads(LABELS_PATH.read_text())["labels"]
    errors = []
    for instance in instances:
        label = labels.get(instance.key)
        if label is None:
            errors.append(f"{instance.key}: no label")
        elif label["spec_digest"] != instance.digest:
            errors.append(f"{instance.key}: spec digest {instance.digest} differs "
                          f"from the label's {label['spec_digest']}")
        elif ("counterexample" in label
              and not is_counterexample(instance, label["counterexample"])):
            errors.append(f"{instance.key}: the stored counterexample does not re-check")
    return labels, errors


def write_labels(instances: List[Instance]) -> None:
    """MILP labels; where MILP times out, the first verifier counterexample
    at 2,000 nodes and K=8 (in :data:`VERIFIERS` order)."""
    labels = {}
    started = clock()
    for instance in instances:
        result = MilpVerifier(time_limit_per_row=MILP_SECONDS_PER_ROW).verify(
            instance.network, instance.spec, Budget(max_nodes=10_000))
        label = {"status": result.status.value, "spec_digest": instance.digest,
                 "source": "milp"}
        if result.status.value == "falsified":
            label["counterexample"] = result.counterexample.reshape(-1).tolist()
        elif not result.solved:
            for name, factory in VERIFIERS.items():
                found = factory(8).verify(instance.network, instance.spec,
                                          Budget(max_nodes=2000,
                                                 max_seconds=workloads.HANG_GUARD_SECONDS))
                if found.status.value == "falsified":
                    label = {"status": "falsified", "spec_digest": instance.digest,
                             "source": "counterexample", "found_by": config_name(name, 8, 2000),
                             "counterexample": found.counterexample.reshape(-1).tolist()}
                    break
        labels[instance.key] = label
        print(f"{instance.key}: {label['status']} ({label['source']})", file=sys.stderr)
    payload = {"workload": WORKLOAD, "suite_seed": workloads.SUITE_SEED,
               "milp_time_limit_per_row": MILP_SECONDS_PER_ROW,
               "milp_seconds_total": round(clock() - started, 1),
               "labels": labels}
    LABELS_PATH.write_text(json.dumps(payload, indent=1) + "\n")


# -- runs -------------------------------------------------------------------------
def run_config(instances: List[Instance], verifier: str, k: int, nodes: int) -> list:
    """One timed pass of one verifier configuration over every instance:
    ``(result, raw seconds, host-normalised seconds)`` per instance."""
    factory = VERIFIERS[verifier]
    runs, probes = [], []
    for instance in instances:
        probes.append(hostspeed.probe())
        began = clock()
        result = factory(k).verify(instance.network, instance.spec,
                                   Budget(max_nodes=nodes,
                                          max_seconds=workloads.HANG_GUARD_SECONDS))
        runs.append((result, clock() - began))
    probes.append(hostspeed.probe())
    return [(result, seconds, seconds * scale)
            for (result, seconds), scale in zip(runs, hostspeed.local_factors(probes))]


def quantile(values: Sequence[float], q: float) -> Optional[float]:
    return float(np.quantile(values, q)) if values else None


def rounded(value: Optional[float], digits: int = 4) -> Optional[float]:
    return None if value is None else round(value, digits)


def aggregate(instances: List[Instance], verdicts: dict, seconds: Optional[dict],
              configs: List[tuple]) -> list:
    """One row per configuration × stratum × family, with ``all`` rows."""
    rows = []
    for verifier, k, nodes in configs:
        name = config_name(verifier, k, nodes)
        for stratum in STRATA + ("all",):
            for family in tuple(FAMILY_ORDER) + ("all",):
                group = [instance for instance in instances
                         if stratum in ("all", instance.stratum)
                         and family in ("all", instance.family)]
                solved = [instance for instance in group
                          if verdicts[instance.key][name]["status"] in CONCLUSIVE]
                nodes_to_verdict = [verdicts[instance.key][name]["nodes"] for instance in solved]
                row = {"verifier": verifier, "k": k, "budget": nodes, "stratum": stratum,
                       "family": family, "instances": len(group), "solved": len(solved),
                       "verified": sum(verdicts[instance.key][name]["status"] == "verified"
                                       for instance in solved),
                       "nodes_median": quantile(nodes_to_verdict, 0.5),
                       "nodes_p90": quantile(nodes_to_verdict, 0.9)}
                row["falsified"] = row["solved"] - row["verified"]
                if seconds is not None:
                    times = [statistics.median(seconds[instance.key][name])
                             for instance in solved]
                    q1, q3 = quantile(times, 0.25), quantile(times, 0.75)
                    row["seconds_median"] = rounded(quantile(times, 0.5))
                    row["seconds_iqr"] = rounded(None if q1 is None else q3 - q1)
                rows.append(row)
    return rows


def contradictions(instances: List[Instance], verdicts: dict, labels: dict) -> list:
    found = []
    for instance in instances:
        label = labels[instance.key]["status"]
        for name, run in verdicts[instance.key].items():
            if label in CONCLUSIVE and run["status"] in CONCLUSIVE and run["status"] != label:
                found.append({"instance": instance.key, "config": name,
                              "verdict": run["status"], "label": label})
    return found


def run_bench(instances: List[Instance], labels: dict, configs: List[tuple],
              repeats: int) -> tuple:
    """``(payload, errors)`` for the given configurations and repetitions."""
    verdicts = {instance.key: {} for instance in instances}
    seconds = {instance.key: {} for instance in instances}
    raw_seconds = {instance.key: {} for instance in instances}
    errors = []
    for repetition in range(repeats):
        for verifier, k, nodes in configs:
            name = config_name(verifier, k, nodes)
            began = clock()
            for instance, (result, raw, scaled) in zip(
                    instances, run_config(instances, verifier, k, nodes)):
                run = {"status": result.status.value, "nodes": result.nodes_explored,
                       "tree_size": result.tree_size}
                previous = verdicts[instance.key].setdefault(name, run)
                if previous != run:
                    errors.append(f"{instance.key} {name}: repetition {repetition} gave "
                                  f"{run}, repetition 0 gave {previous}")
                if (result.status.value == "falsified"
                        and not is_counterexample(instance, result.counterexample)):
                    errors.append(f"{instance.key} {name}: counterexample does not re-check")
                seconds[instance.key].setdefault(name, []).append(scaled)
                raw_seconds[instance.key].setdefault(name, []).append(raw)
            print(f"repetition {repetition} {name}: {clock() - began:.1f} s", file=sys.stderr)
    conflicts = contradictions(instances, verdicts, labels)
    errors += [f"{c['instance']} {c['config']}: {c['verdict']} contradicts the label "
               f"{c['label']}" for c in conflicts]
    node_budget = {
        "instances": [{"key": instance.key, "family": instance.family,
                       "stratum": instance.stratum, "spec_digest": instance.digest,
                       "label": labels[instance.key]["status"],
                       "label_source": labels[instance.key]["source"],
                       "runs": verdicts[instance.key]} for instance in instances],
        "rows": aggregate(instances, verdicts, None, configs),
        "label_contradictions": conflicts,
    }
    names = [config_name(*config) for config in configs]
    within = {}
    for verifier, k, nodes in configs:
        if nodes != max(NODE_BUDGETS):
            continue
        name = config_name(verifier, k, nodes)
        times = [statistics.median(seconds[instance.key][name]) for instance in instances
                 if verdicts[instance.key][name]["status"] in CONCLUSIVE]
        within[name] = {f"{limit:g}": sum(t <= limit for t in times)
                        for limit in WITHIN_SECONDS}
    timing = {
        "repeats": repeats,
        "reference_probe_s": hostspeed.REFERENCE_PROBE_S,
        "rows": [{key: row[key] for key in ("verifier", "k", "budget", "stratum", "family",
                                            "solved", "seconds_median", "seconds_iqr")}
                 for row in aggregate(instances, verdicts, seconds, configs)],
        "solved_within_seconds": within,
        "instances": {instance.key: {name: {
            "seconds": [round(value, 5) for value in seconds[instance.key][name]],
            "raw_seconds": [round(value, 5) for value in raw_seconds[instance.key][name]]}
            for name in names} for instance in instances},
    }
    summary = {f"solved_{config_name(row['verifier'], row['k'], row['budget'])}": row["solved"]
               for row in node_budget["rows"] if row["stratum"] == row["family"] == "all"}
    summary["label_contradictions"] = len(conflicts)
    strata = {stratum: sum(instance.stratum == stratum for instance in instances)
              for stratum in STRATA}
    payload = {"workload": WORKLOAD, "suite_seed": workloads.SUITE_SEED,
               "instances": len(instances), "strata": strata,
               "configs": names, "summary": summary,
               "node_budget": node_budget, "timing": timing}
    return payload, errors


# -- rendering --------------------------------------------------------------------
def _table(headers: List[str], rows: List[List[str]]) -> List[str]:
    widths = [max(len(str(cell)) for cell in column) for column in zip(headers, *rows)]

    def line(cells) -> str:
        return " | ".join(str(cell).ljust(width) for cell, width in zip(cells, widths)).rstrip()

    return [line(headers), "-+-".join("-" * width for width in widths)] + [line(row) for row in rows]


def _key(row: dict) -> tuple:
    return row["verifier"], row["k"], row["budget"], row["stratum"], row["family"]


def render_table2(payload: dict) -> str:
    """Solved (V/F) per family and per stratum, with median time-to-verdict."""
    rows = {_key(row): row for row in payload["node_budget"]["rows"]}
    times = {_key(row): row["seconds_median"] for row in payload["timing"]["rows"]}
    groups = ([(family, "all", family) for family in FAMILY_ORDER]
              + [(f"stratum {stratum}", stratum, "all") for stratum in STRATA]
              + [("total", "all", "all")])
    headers = ["Group"] + [f"{verifier} {column}" for verifier in VERIFIERS
                           for column in ("Solved", "Time(s)")]
    lines = [f"Table II (RQ1): solved instances (verified/falsified) and median "
             f"time-to-verdict in reference-host seconds; {payload['instances']} "
             f"{payload['workload']} instances, suite seed {payload['suite_seed']}, "
             f"{payload['timing']['repeats']} timed repetitions."]
    for k, nodes in dict.fromkeys((row["k"], row["budget"]) for row in rows.values()):
        body = []
        for label, stratum, family in groups:
            cells = [f"{label} [{rows[(next(iter(VERIFIERS)), k, nodes, stratum, family)]['instances']}]"]
            for verifier in VERIFIERS:
                key = (verifier, k, nodes, stratum, family)
                row, median = rows[key], times[key]
                cells += [f"{row['solved']} ({row['verified']}/{row['falsified']})",
                          "-" if median is None else f"{median:.3f}"]
            body.append(cells)
        lines += ["", f"K={k}, {nodes} nodes"] + _table(headers, body)
    within = payload["timing"]["solved_within_seconds"]
    if within:
        limits = list(next(iter(within.values())))
        lines += ["", f"Solved within T reference-host seconds (the timed {max(NODE_BUDGETS)}"
                      f"-node runs)"]
        lines += _table(["Config"] + [f"T<={limit}" for limit in limits],
                        [[name] + [str(counts[limit]) for limit in limits]
                         for name, counts in within.items()])
    return "\n".join(lines)


def render_fig6(payload: dict) -> str:
    """Time-to-verdict five-number summaries on violated and certified instances."""
    instances = payload["node_budget"]["instances"]
    timing = payload["timing"]["instances"]
    nodes = max(int(name.rsplit("_n", 1)[1]) for name in payload["configs"])
    lines = [f"Fig. 6 (RQ3): time-to-verdict (reference-host seconds, median of "
             f"{payload['timing']['repeats']} repetitions) on violated and certified "
             f"instances, grouped by label; K=8, {nodes} nodes.  "
             f"min / q1 / median / q3 / max over the instances the verifier solved; "
             f"the {sum(i['label'] not in CONCLUSIVE for i in instances)} instances "
             f"without a conclusive label are left out."]
    body = []
    for family in tuple(FAMILY_ORDER) + ("all",):
        for group in CONCLUSIVE:
            members = [i for i in instances if i["label"] == group
                       and family in ("all", i["family"])]
            for verifier in VERIFIERS:
                name = config_name(verifier, 8, nodes)
                times = sorted(statistics.median(timing[i["key"]][name]["seconds"])
                               for i in members if i["runs"][name]["status"] == group)
                summary = (" / ".join(f"{quantile(times, q):.3f}"
                                      for q in (0, 0.25, 0.5, 0.75, 1)) if times else "-")
                body.append([family, "violated" if group == "falsified" else "certified",
                             verifier, f"{len(times)}/{len(members)}", summary])
    return "\n".join(lines + [""] + _table(["Family", "Group", "Verifier", "Solved",
                                            "Time(s) min/q1/med/q3/max"], body))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="300 nodes, K=8, one repetition; writes BENCH_rq1_smoke.json")
    parser.add_argument("--write-labels", action="store_true",
                        help="recompute rq1_labels.json with MILP (slow)")
    args = parser.parse_args(argv)

    began = clock()
    instances = load_instances()
    print(f"set-up and strata: {clock() - began:.1f} s", file=sys.stderr)
    if args.write_labels:
        write_labels(instances)
        return 0
    labels, errors = load_labels(instances)
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1
    if args.smoke:
        configs = [(verifier, 8, min(NODE_BUDGETS)) for verifier in VERIFIERS]
        repeats = 1
    else:
        configs = [(verifier, k, nodes) for k in FRONTIER_SIZES for nodes in NODE_BUDGETS
                   for verifier in VERIFIERS]
        repeats = TIMED_REPEATS
    payload, errors = run_bench(instances, labels, configs, repeats)
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    if args.smoke:
        (OUTPUT_DIR / "BENCH_rq1_smoke.json").write_text(json.dumps(payload, indent=1) + "\n")
    else:
        (OUTPUT_DIR / "BENCH_rq1.json").write_text(json.dumps(payload, indent=1) + "\n")
        (OUTPUT_DIR / "table2_rq1_overall.txt").write_text(render_table2(payload) + "\n")
        (OUTPUT_DIR / "fig6_violated_certified.txt").write_text(render_fig6(payload) + "\n")
    print(json.dumps(payload["summary"], indent=1))
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
