"""Serve a batch of robustness queries through the verification service.

Run with::

    python examples/serve_robustness.py [--transport cooperative|process]

The script plays a small verification "server": a mixed batch of local
robustness queries on one trained model — several references, several radii,
some radii queried twice (as bisection searches and dashboards do) — is
submitted to one :class:`repro.service.VerificationService` and the results
stream back in completion order.  Along the way it demonstrates

* **transport selection** — the same batch runs unchanged on the
  caller-driven cooperative loop or on supervised worker *processes*
  (``--transport``), with byte-identical verdicts;
* **priorities** — the urgent query (highest radius) is submitted last with
  high priority and still finishes among the first;
* **deadlines** — one query carries a tight wall-clock deadline and comes
  back TIMEOUT with ``deadline_exceeded`` when it cannot finish in time;
* **cross-request cache reuse** — repeated queries share their problem
  fingerprint's LP/bound caches, visible in the per-job cache deltas;
* **crash resilience** — a final section SIGKILLs a worker process
  mid-round on purpose and shows the supervised process transport restart
  the worker and retry the job to the same verdict, with the attempt
  count visible on the :class:`~repro.service.jobs.JobResult`;
* the :func:`repro.specs.robustness.robustness_radius_sweep_service`
  convenience, which runs a whole radius ladder as service jobs.
"""

import argparse
import functools
import os
import signal
import tempfile

import numpy as np

from repro import Budget
from repro.core.abonn import AbonnVerifier
from repro.nn import build_trained_model, dense_network
from repro.service import RetryPolicy, ServiceConfig, VerificationService
from repro.specs import local_robustness_spec, robustness_radius_sweep_service
from repro.verifiers.result import VerifierRun


class _CrashOnceRun(VerifierRun):
    """Delegates to a real run, but SIGKILLs its own process once.

    The marker file makes the crash once-per-path: the first ``step()``
    creates it and kills the worker process mid-round (no cleanup — the
    cheap stand-in for a segfault or an OOM kill); the retried job's fresh
    run sees the marker and delegates untouched.
    """

    def __init__(self, inner, marker):
        self.inner = inner
        self.marker = marker

    def step(self):
        if not os.path.exists(self.marker):
            with open(self.marker, "w"):
                pass
            os.kill(os.getpid(), signal.SIGKILL)
        return self.inner.step()

    def interrupt(self):
        return self.inner.interrupt()


class _CrashOnceVerifier:
    """A real cache-wired verifier whose first run kills its process."""

    def __init__(self, bundle, marker):
        self.inner = AbonnVerifier(lp_cache=bundle.lp_cache,
                                   bound_cache=bundle.bound_cache)
        self.marker = marker

    def start_run(self, network, spec, budget=None):
        return _CrashOnceRun(self.inner.start_run(network, spec, budget),
                             self.marker)


def _crash_once(marker, bundle):
    """Module-level (hence picklable) crash-once verifier factory."""
    return _CrashOnceVerifier(bundle, marker)


def demo_crash_resilience() -> None:
    """SIGKILL a worker process mid-round; watch the service recover."""
    print("\ncrash resilience (process transport):")
    network = dense_network([4, 8, 6, 3], seed=1)
    reference = np.array([0.45, 0.55, 0.5, 0.4])
    spec = local_robustness_spec(reference, 0.08, 0, 3)
    marker = os.path.join(tempfile.mkdtemp(prefix="serve-robustness-"),
                          "crashed-once")
    with VerificationService(ServiceConfig(
            pool_size=1, transport="process",
            retry=RetryPolicy(backoff_seconds=0.01))) as service:
        job_id = service.submit(
            network, spec, budget=Budget(max_nodes=60),
            verifier_factory=functools.partial(_crash_once, marker))
        done, = service.run_until_complete()
        assert done.job_id == job_id
        stats = service.stats()
    verdict = done.result.status.value if done.ok else done.error.kind
    print(f"  job {done.job_id}: verdict={verdict} after "
          f"attempts={done.attempts} (worker crashes seen by this job: "
          f"{done.worker_crashes})")
    print(f"  service: worker_crashes={stats['worker_crashes']}, "
          f"worker_restarts={stats['worker_restarts']}, "
          f"retries={stats['retries']}, "
          f"transport_downgrades={stats['transport_downgrades']}")
    assert done.ok and done.attempts == 2, "expected a survive-and-retry run"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--transport", default="cooperative",
                        choices=("cooperative", "process"),
                        help="execution transport for the query batch "
                             "(default: cooperative)")
    args = parser.parse_args()

    network, dataset = build_trained_model("MNIST_L2", seed=0)
    print(f"model: {network.name}, {network.num_relu_neurons} ReLU neurons")
    print(f"transport: {args.transport}\n")

    service = VerificationService(ServiceConfig(pool_size=2,
                                                rounds_per_slice=2,
                                                transport=args.transport))
    budget = Budget(max_nodes=300)

    # A mixed query batch: three references, two radii each, the middle
    # radius queried twice so its second query runs against warm caches.
    submitted = {}
    for index in range(3):
        image, label = dataset.sample(index)
        reference = image.reshape(-1)
        for epsilon in (0.01, 0.03, 0.03):
            spec = local_robustness_spec(reference, epsilon, label,
                                         dataset.num_classes)
            job_id = service.submit(network, spec, budget=budget.copy())
            submitted[job_id] = (index, epsilon)
    # The urgent query arrives last but runs at high priority, and one
    # query gets a (deliberately tight) deadline.
    image, label = dataset.sample(3)
    urgent_spec = local_robustness_spec(image.reshape(-1), 0.05, label,
                                        dataset.num_classes)
    job_id = service.submit(network, urgent_spec, budget=budget.copy(),
                            priority=10)
    submitted[job_id] = (3, 0.05)
    deadline_spec = local_robustness_spec(image.reshape(-1), 0.02, label,
                                          dataset.num_classes)
    job_id = service.submit(network, deadline_spec, budget=budget.copy(),
                            deadline_seconds=0.05)
    submitted[job_id] = (3, 0.02)

    print(f"{'job':>7} {'input':>5} {'eps':>6} {'verdict':>10} "
          f"{'slices':>6} {'lp hits':>8} {'bound hits':>10} {'note':>9}")
    for job in service.as_completed():
        index, epsilon = submitted[job.job_id]
        if job.ok:
            verdict = job.result.status.value
            note = "deadline" if job.deadline_exceeded else ""
        else:
            verdict = "error"
            note = job.error.kind
        lp_hits = job.cache_stats.get("lp_hits", 0)
        bound_hits = (job.cache_stats.get("bound_layer_hits", 0)
                      + job.cache_stats.get("bound_report_hits", 0))
        print(f"{job.job_id:>7} {index:>5} {epsilon:>6.3f} {verdict:>10} "
              f"{job.slices:>6} {lp_hits:>8} {bound_hits:>10} {note:>9}")

    stats = service.stats()
    pool = stats["pool"]
    print(f"\nservice: {stats['jobs_completed']} jobs in {stats['slices']} "
          f"slices over {stats['pool_size']} workers; "
          f"{pool['fingerprints']} problem fingerprints, "
          f"{pool['model_cache_hits']} warm-model digest hits")
    service.shutdown()

    # The radius-sweep helper runs a whole epsilon ladder as service jobs.
    image, label = dataset.sample(0)
    results, sweep_service = robustness_radius_sweep_service(
        network, image.reshape(-1), epsilons=np.linspace(0.005, 0.04, 4),
        label=label, num_classes=dataset.num_classes, budget=budget)
    print("\nradius sweep through the service:")
    for epsilon, result in results:
        print(f"  eps={epsilon:.4f}: {result.status.value} "
              f"({result.nodes_explored} nodes)")

    # Finally: kill a worker process mid-round and survive it.
    demo_crash_resilience()


if __name__ == "__main__":
    main()
