#!/usr/bin/env python3
"""Gate every perfbench instance's verdict against a committed ledger.

The ledger, ``benchmarks/baselines/verdicts.json``, holds one entry per
instance of the four perfbench workloads at seed 0: the instance's
``spec_digest`` (``benchmarks/bench_rq1.py``'s digest of its input box and
output rows), its verdict, ``nodes_explored`` and ``tree_size``.  The check
sets the workloads up and runs one pass of each through
:mod:`perfbench.workloads`, unchanged, and classifies every instance:

* ``identical`` — same digest, verdict and node counts: pass;
* ``solved`` — UNKNOWN or TIMEOUT became VERIFIED or FALSIFIED: pass, listed;
* ``moved`` — same verdict, other node counts: fails for VERIFIED (its
  node count is the size of the proof, which no search order may change),
  listed otherwise;
* ``changed`` — TIMEOUT and UNKNOWN swapped: pass, listed;
* ``lost`` — VERIFIED or FALSIFIED became TIMEOUT or UNKNOWN: fail;
* ``flipped`` — VERIFIED and FALSIFIED swapped: always fail (one of the
  two is unsound);
* ``digest`` — the instance's box or output rows moved: always fail, since
  a set-up change that moves an ε makes every other comparison meaningless;
* ``error``, ``missing``, ``new`` — a run raised, or the instance set
  changed: fail.

The service workload submits every instance twice; each copy is checked
against the same entry.  Budgets are node budgets, so a pass is
deterministic and any difference is real.  A change that moves the ledger
on purpose rewrites it with ``--write`` and states the listed differences
in CHANGES.md.

Usage (from the repository root)::

    python tools/check_verdicts.py            # check, exit 1 on a failing difference
    python tools/check_verdicts.py --write    # rewrite the ledger
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
LEDGER_PATH = ROOT / "benchmarks" / "baselines" / "verdicts.json"

#: The perfbench seed the ledger is written at.
SEED = 0
CONCLUSIVE = ("verified", "falsified")


def classify(expected: Optional[dict], actual: Optional[dict]) -> Tuple[str, bool]:
    """``(kind, fails)`` for one instance's ledger entry against a fresh run."""
    if expected is None:
        return "new", True
    if actual is None:
        return "missing", True
    if actual["spec_digest"] != expected["spec_digest"]:
        return "digest", True
    before, after = expected["verdict"], actual["verdict"]
    if "error" in (before, after):
        return "error", True
    if before == after:
        if all(actual[name] == expected[name] for name in ("nodes_explored", "tree_size")):
            return "identical", False
        return "moved", before == "verified"
    if before in CONCLUSIVE and after in CONCLUSIVE:
        return "flipped", True
    if after in CONCLUSIVE:
        return "solved", False
    if before in CONCLUSIVE:
        return "lost", True
    return "changed", False


def compare(ledger: Dict[str, Dict[str, dict]],
            observed: Dict[str, Dict[str, List[dict]]]) -> List[tuple]:
    """Every difference as ``(workload, key, kind, fails, before, after)``.

    ``ledger`` maps workload -> key -> entry; ``observed`` maps workload ->
    key -> the entries of every attempt at that instance.
    """
    differences = []
    for workload in sorted(set(ledger) | set(observed)):
        expected = ledger.get(workload, {})
        seen = observed.get(workload, {})
        for key in sorted(set(expected) | set(seen)):
            for actual in seen.get(key) or [None]:
                kind, fails = classify(expected.get(key), actual)
                if kind != "identical":
                    differences.append((workload, key, kind, fails,
                                        expected.get(key), actual))
    return differences


def _entry(result, digest: str) -> dict:
    if result is None:
        return {"spec_digest": digest, "verdict": "error", "nodes_explored": 0,
                "tree_size": 0}
    return {"spec_digest": digest, "verdict": result.status.value,
            "nodes_explored": int(result.nodes_explored),
            "tree_size": int(result.tree_size)}


def observe() -> Dict[str, Dict[str, List[dict]]]:
    """Set up and run one pass of every perfbench workload at :data:`SEED`."""
    # Pinned before numpy loads, as perfbench/run.py pins them.
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                     "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[variable] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(ROOT / "benchmarks")]
    from bench_rq1 import spec_digest
    from perfbench import workloads
    observed: Dict[str, Dict[str, List[dict]]] = {}
    for name, workload in workloads.WORKLOADS.items():
        inputs = workloads.setup(workload, SEED)
        digests = {problem.key: spec_digest(problem.spec) for problem in inputs.problems}
        entries: Dict[str, List[dict]] = {}
        for record in workloads.run_pass(inputs).records:
            entries.setdefault(record.key, []).append(
                _entry(record.result, digests[record.key]))
        observed[name] = entries
    return observed


def _describe(entry: Optional[dict]) -> str:
    if entry is None:
        return "-"
    return (f"{entry['verdict']} {entry['nodes_explored']}/{entry['tree_size']} "
            f"[{entry['spec_digest']}]")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="rewrite the ledger from this run instead of checking")
    args = parser.parse_args(argv)
    observed = observe()
    if args.write:
        ledger = {}
        for workload, entries in observed.items():
            ledger[workload] = {}
            for key, attempts in entries.items():
                if any(attempt != attempts[0] for attempt in attempts):
                    print(f"{workload} {key}: attempts disagree: {attempts}",
                          file=sys.stderr)
                    return 1
                ledger[workload][key] = attempts[0]
        LEDGER_PATH.write_text(json.dumps({"seed": SEED, "workloads": ledger},
                                          indent=1, sort_keys=True) + "\n")
        count = sum(len(entries) for entries in ledger.values())
        print(f"wrote {count} entries to {LEDGER_PATH.relative_to(ROOT)}")
        return 0
    ledger = json.loads(LEDGER_PATH.read_text())["workloads"]
    differences = compare(ledger, observed)
    for workload, key, kind, fails, before, after in differences:
        print(f"{'FAIL' if fails else 'list'} {workload} {key}: {kind}: "
              f"{_describe(before)} -> {_describe(after)}")
    failed = sum(1 for difference in differences if difference[3])
    checked = sum(len(attempts) for entries in observed.values()
                  for attempts in entries.values())
    print(f"{checked} attempts checked against {LEDGER_PATH.relative_to(ROOT)}: "
          f"{len(differences)} differences, {failed} failing")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
