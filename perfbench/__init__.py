"""End-to-end benchmark of the verifiers and the verification service.

Run one workload from the repository root::

    python3 perfbench/run.py --workload abonn-dense --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the workload
once untraced and once with spans recorded around the calls into each
layer, prints the per-layer metrics and writes the spans as Chrome
trace-event JSON under ``perfbench/out/``.  The last line of standard
output is always one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``BENCHMARK.json`` at the repository root
lists the workloads, the metrics and which layer should move which metric.

The helper tests run with ``PYTHONPATH=src python3 -m pytest perfbench``.
"""
