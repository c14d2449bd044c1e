"""The batched engine's trace memos: shared across schemes, compact walks.

The functional prepass and the metadata script are memoized on the
trace, keyed on exactly what each is computed from.  Schemes that differ
only in *when* the BMT engine schedules an update replay the same
metadata accesses, so they share one script.  These tests run every
scheme batched on one shared trace, so later schemes hit the memos of
earlier ones, and check each result against the skip-ahead engine on a
fresh trace: a key that drops an input the replay reads hands a scheme
another scheme's script and fails here.
"""

from collections import defaultdict

import pytest

from repro.core.schemes import UpdateScheme
from repro.system.config import SystemConfig
from repro.system.timing import TraceSimulator
from repro.workloads.spec_profiles import profile_trace

from test_engine_differential import random_config

ALL_SCHEMES = list(UpdateScheme)
WORKLOAD = "gcc"
KI = 2


def _config(seed, scheme, protect_stack):
    base = SystemConfig(scheme=scheme) if seed is None else random_config(seed, scheme)
    return base.variant(protect_stack=protect_stack)


def _memo_keys(trace, kind):
    return [k for k in trace._stat_cache if isinstance(k, tuple) and k[0] == kind]


def _run_all_shared(seed, protect_stack):
    """Every scheme batched on one trace; returns the trace and results."""
    shared = profile_trace(WORKLOAD, KI)
    results = {}
    for scheme in ALL_SCHEMES:
        config = _config(seed, scheme, protect_stack).variant(engine="batched")
        results[scheme] = TraceSimulator(config).run(shared)
    return shared, results


@pytest.mark.parametrize("protect_stack", [False, True], ids=["stack_off", "stack_on"])
@pytest.mark.parametrize("seed", [None, 1, 2, 3], ids=["default", "s1", "s2", "s3"])
def test_shared_memos_match_fresh_skip_ahead(seed, protect_stack):
    shared, results = _run_all_shared(seed, protect_stack)
    for scheme in ALL_SCHEMES:
        config = _config(seed, scheme, protect_stack).variant(engine="skip_ahead")
        fresh = TraceSimulator(config).run(profile_trace(WORKLOAD, KI))
        assert results[scheme] == fresh, scheme.value
    # One prepass per persistency class (write-back, write-through,
    # epoch); one script each for secure_wb, o3 and coalescing, and one
    # shared by every write-through persistent scheme.
    assert len(_memo_keys(shared, "batched_prepass")) == 3
    assert len(_memo_keys(shared, "batched_mdscript")) == 4


def test_all_hit_walks_are_interned():
    # A 16 KiB BMT cache (seed 2's draw) keeps some walks missing.
    config = SystemConfig(scheme=UpdateScheme.SP, bmt_cache_bytes=16 * 1024)
    trace = profile_trace(WORKLOAD, KI)
    TraceSimulator(config).run(trace)
    (key,) = _memo_keys(trace, "batched_mdscript")
    walks = trace._stat_cache[key].walks
    mac, miss_cost = config.mac_latency, config.mac_latency + config.nvm.read_latency
    hits = defaultdict(set)
    missed = 0
    for costs, misses in walks:
        assert isinstance(costs, tuple)
        assert costs.count(miss_cost) == misses
        assert costs.count(mac) == len(costs) - misses
        if misses:
            missed += 1
        else:
            hits[len(costs)].add(id(costs))
    assert hits and missed
    assert all(len(ids) == 1 for ids in hits.values())
