"""repro.experiments — the campaign engine.

Turns one-off simulations into declarative, cached, parallel campaigns:

* :mod:`repro.experiments.kinds` — the job-kind registry: pluggable
  workload handlers (``model`` single-image inference, ``batch``
  multi-image inference with per-image fan-out, ``synthetic`` NoC
  traffic), each owning its config schema, executor, and labels.
* :mod:`repro.experiments.spec` — :class:`SweepSpec` grids expand into
  deterministic :class:`JobSpec` lists with derived per-job seeds.
* :mod:`repro.experiments.cache` — content-addressed result cache keyed
  by job identity + code-version tag, with verify-on-read digests and
  corrupt-entry quarantine.
* :mod:`repro.experiments.book` — the :class:`~repro.experiments.book.
  JobBook`: journal/cache triage, seeded retry/backoff, poison-job
  quarantine and the grid-order result, shared by every transport.
* :mod:`repro.experiments.runner` — :class:`CampaignRunner`, the
  inline and process-per-job transports over the book (per-job
  failure capture, wall-clock timeouts), dispatching through the
  registry.
* :mod:`repro.experiments.faults` — deterministic fault injection
  (:class:`FaultPlan`) and error classification for chaos testing the
  real multiprocessing path.
* :mod:`repro.experiments.store` — append-only JSONL store + CSV export
  plus the crash-safe :class:`CampaignJournal` behind ``--resume``.
* :mod:`repro.experiments.report` — Fig. 12/13-style grids plus
  per-layer and per-link aggregations from persisted records, no
  re-simulation.

CLI: ``repro sweep --kind {model,batch,synthetic}`` runs a campaign,
``repro report --pivot {mesh,model,layer,link}`` re-renders its tables
from the store.
"""

from repro.experiments.cache import ResultCache, code_version_tag
from repro.experiments.faults import (
    FaultAction,
    FaultPlan,
    TransientFaultError,
    backoff_seconds,
    classify_error,
)
from repro.experiments.hashing import canonical_json, derive_seed
from repro.experiments.kinds import (
    JOB_KINDS,
    JobKind,
    ReplayJobConfig,
    SyntheticJobConfig,
    job_kind,
    register_job_kind,
)
from repro.experiments.report import (
    campaign_report,
    failures_report,
    fig12_report,
    layer_pivot,
    link_pivot,
    pivot,
    reduction_series,
)
from repro.experiments.runner import CampaignResult, CampaignRunner
from repro.experiments.spec import JobSpec, SweepSpec, campaign_id
from repro.experiments.store import CampaignJournal, ResultStore

__all__ = [
    "CampaignJournal",
    "CampaignResult",
    "CampaignRunner",
    "FaultAction",
    "FaultPlan",
    "JOB_KINDS",
    "JobKind",
    "JobSpec",
    "ReplayJobConfig",
    "ResultCache",
    "ResultStore",
    "SweepSpec",
    "SyntheticJobConfig",
    "TransientFaultError",
    "backoff_seconds",
    "campaign_id",
    "campaign_report",
    "canonical_json",
    "classify_error",
    "code_version_tag",
    "derive_seed",
    "failures_report",
    "fig12_report",
    "job_kind",
    "layer_pivot",
    "link_pivot",
    "pivot",
    "reduction_series",
    "register_job_kind",
]
