"""Persistent multi-tenant co-design job service.

The paper's flow is a one-shot search; this package is the
"co-design-as-a-service" tier from the ROADMAP: a long-running
coordinator that accepts many named sweep jobs from many clients and
drives them over the existing :mod:`repro.shard` lease protocol with a
shared, job-agnostic worker fleet.

* :mod:`repro.service.jobs` — :class:`JobQueue`: validated job admission
  (:class:`repro.sweep.SweepSpec`), one directory per job under the
  service root (``<root>/jobs/<uid>/`` with the PR 4/6 sidecar formats
  unchanged), and a fsynced ``_service.jsonl`` journal that survives
  SIGKILL (torn-tail-tolerant replay requeues unfinished jobs).
* :mod:`repro.service.coordinator` — :class:`ServiceCoordinator`: the
  shard tier's :class:`~repro.shard.LeaseCoordinator` made persistent and
  extended with ``/v1/jobs`` routes — fair interleaved leasing across
  concurrent jobs (one :class:`~repro.shard.LeaseBoard` per running
  job), one worker registry, shared-secret auth, and an estimator-cache
  exchange hub at ``<root>/cache``.
* :mod:`repro.service.client` — :class:`ServiceClient`: thin typed
  wrapper over the job routes for the CLI (`serve` / `submit` / `jobs` /
  `job status|cancel|result`).

Every job runs through a stock :class:`~repro.sweep.SweepRunner`, so
``--resume``, ``compare`` and ``telemetry report`` work on any job
directory verbatim, and a job's journals are byte-identical to a local
single-machine run of the same spec.
"""

from repro.service.client import ServiceClient
from repro.service.coordinator import ServiceCoordinator, ServiceStopped
from repro.service.jobs import (
    JOB_SPEC_FILENAME,
    JOB_STATES,
    JOBS_DIRNAME,
    SERVICE_LOG_FILENAME,
    TERMINAL_STATES,
    Job,
    JobQueue,
    load_service_log,
)

__all__ = [
    "Job",
    "JobQueue",
    "ServiceClient",
    "ServiceCoordinator",
    "ServiceStopped",
    "load_service_log",
    "JOB_SPEC_FILENAME",
    "JOBS_DIRNAME",
    "JOB_STATES",
    "SERVICE_LOG_FILENAME",
    "TERMINAL_STATES",
]
