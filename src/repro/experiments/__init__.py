"""The trained benchmark suite (the analogue of the paper's problem set)."""

from repro.experiments.suite import (
    BenchmarkSuite,
    SuiteConfig,
    VerificationInstance,
    generate_suite,
    root_certified_radius,
    table1_rows,
)

__all__ = [
    "BenchmarkSuite",
    "SuiteConfig",
    "VerificationInstance",
    "generate_suite",
    "root_certified_radius",
    "table1_rows",
]
