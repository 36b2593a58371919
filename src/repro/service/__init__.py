"""Verification-as-a-service: a job scheduler over the frontier engine.

See :mod:`repro.service.scheduler` for the scheduling policy and execution
transports (cooperative / process), :mod:`repro.service.supervisor` and
:mod:`repro.service.process_transport` for worker-process supervision and
crash isolation, and :mod:`repro.service.pool` for the fingerprint-scoped
cache sharing model; ``docs/SERVICE.md`` documents the
subsystem end to end.
"""

from repro.service.jobs import JobError, JobRequest, JobResult, RetryPolicy
from repro.service.pool import CacheBundle, FingerprintCachePool
from repro.service.scheduler import (
    TRANSPORTS,
    ServiceConfig,
    VerificationService,
)
from repro.service.supervisor import (
    ProcessTransportUnavailable,
    WorkerCrashed,
    WorkerSupervisor,
)

__all__ = [
    "CacheBundle",
    "FingerprintCachePool",
    "JobError",
    "JobRequest",
    "JobResult",
    "ProcessTransportUnavailable",
    "RetryPolicy",
    "ServiceConfig",
    "TRANSPORTS",
    "VerificationService",
    "WorkerCrashed",
    "WorkerSupervisor",
]
