"""Coordinator/worker characterization service over a shared run directory.

Every checkpointed library run goes through :mod:`repro.service`: the
job API (:func:`~repro.service.api.submit_library` →
``poll``/``stream`` → ``fetch_models``) materializes the job into a run
directory, a single-writer **coordinator**
(:func:`~repro.service.coordinator.serve`) owns every ledger
transition, lease reaping, the per-attempt ``cell_timeout`` and the
retry/quarantine budget, and any number of stateless **workers**
(:func:`~repro.service.worker.worker_loop`) — local processes the
coordinator spawns, or ``python -m repro worker`` on any machine that
sees the directory — lease pending cells via atomic claim files
(:mod:`~repro.service.lease`) and commit finished models through a
content-addressed store with an exclusive hardlink
(:func:`~repro.service.worker.commit_artifact`).

The contract, enforced by the chaos and property suites: the library
assembled from an N-worker run — even one with workers SIGKILLed
mid-lease, hung past their timeout, or resumed after a killed session
— equals the in-process :func:`repro.camodel.generate_library` models
byte for byte, and ``failures.json`` and ``metrics_total()`` do not
depend on the number of workers.
"""

from repro.service.api import (
    Job,
    JobManifest,
    JobStatus,
    submit_library,
)
from repro.service.coordinator import serve
from repro.service.lease import DEFAULT_TTL, Lease, LeaseStore
from repro.service.worker import commit_artifact, worker_loop

__all__ = [
    "DEFAULT_TTL",
    "Job",
    "JobManifest",
    "JobStatus",
    "Lease",
    "LeaseStore",
    "commit_artifact",
    "serve",
    "submit_library",
    "worker_loop",
]
