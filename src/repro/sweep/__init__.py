"""Parallel sweep infrastructure: job fan-out, result and trace caching.

See :mod:`repro.sweep.runner` for the process-pool runner,
:mod:`repro.sweep.cache` for the content-addressed result cache, and
:mod:`repro.sweep.trace_cache` for the packed binary trace cache.
"""

from repro.sweep.cache import (
    JSONCache,
    ResultCache,
    caching_disabled,
    code_version,
    config_digest,
    job_key,
)
from repro.sweep.trace_cache import (
    TraceCache,
    generator_version,
    trace_caching_disabled,
    trace_key,
)
from repro.sweep.runner import (
    SweepJob,
    SweepReport,
    cached_profile_trace,
    default_workers,
    run_jobs,
    run_matrix,
    run_tasks,
)

__all__ = [
    "JSONCache",
    "ResultCache",
    "SweepJob",
    "SweepReport",
    "TraceCache",
    "cached_profile_trace",
    "caching_disabled",
    "code_version",
    "config_digest",
    "default_workers",
    "generator_version",
    "job_key",
    "run_jobs",
    "run_matrix",
    "run_tasks",
    "trace_caching_disabled",
    "trace_key",
]
