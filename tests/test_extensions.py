"""Tests for the extension features: SGX-tree scheme, counter
organizations, and related config plumbing."""

import pytest

from repro.core.schedulers import make_scoreboard
from repro.core.schemes import UpdateScheme
from repro.crypto.bmt import BMTGeometry
from repro.system.config import SystemConfig
from repro.system.factory import run_trace
from repro.workloads.synthetic import sequential_stream


@pytest.fixture
def geometry():
    return BMTGeometry(num_leaves=64, arity=8)  # 3 levels


# ----------------------------------------------------------------------
# SGX-tree strict persistency
# ----------------------------------------------------------------------


def test_sgx_scheme_properties():
    sgx = UpdateScheme.SGX_SP
    assert sgx.persistency.orders_all_persists
    assert sgx.write_through
    assert sgx.crash_recoverable
    assert sgx.persists_whole_path
    assert not UpdateScheme.SP.persists_whole_path


def test_sgx_scoreboard_charges_path_persists(geometry):
    bmt = make_scoreboard(UpdateScheme.SP, geometry, mac_latency=40)
    sgx = make_scoreboard(UpdateScheme.SGX_SP, geometry, mac_latency=40)
    t_bmt = bmt.submit(0, 0, arrival=0)
    t_sgx = sgx.submit(0, 0, arrival=0)
    # Same MAC work plus serialized per-node persist cost.
    assert t_sgx.completion == t_bmt.completion + 3 * sgx.node_persist_cycles
    assert sgx.path_persists == 3


def test_sgx_scoreboard_serializes_like_sp(geometry):
    sgx = make_scoreboard(UpdateScheme.SGX_SP, geometry, mac_latency=40)
    t0 = sgx.submit(0, 0, arrival=0)
    t1 = sgx.submit(1, 1, arrival=0)
    assert t1.completion == 2 * t0.completion


def test_sgx_scheme_slower_than_sp_end_to_end():
    trace = sequential_stream(300, gap=8)
    config = SystemConfig(memory_bytes=64 * 1024 * 1024)
    sp = run_trace(trace, "sp", config, warmup_fraction=0.0)
    sgx = run_trace(trace, "sgx_sp", config, warmup_fraction=0.0)
    assert sgx.cycles > sp.cycles
    # Path-node persists also show up as extra NVM write traffic.
    assert sgx.stats["nvm.writes"] > sp.stats["nvm.writes"]


# ----------------------------------------------------------------------
# counter organizations
# ----------------------------------------------------------------------


def test_counter_organization_config():
    split = SystemConfig(counter_organization="split")
    mono = SystemConfig(counter_organization="monolithic")
    assert split.blocks_per_counter_block == 64
    assert mono.blocks_per_counter_block == 8
    assert split.counter_storage_overhead == pytest.approx(1 / 64)
    assert mono.counter_storage_overhead == pytest.approx(1 / 8)
    with pytest.raises(ValueError):
        SystemConfig(counter_organization="quantum")


def test_monolithic_tree_is_deeper_or_equal():
    """8x more counter blocks means a deeper (or equal, if padded) BMT."""
    split = SystemConfig(counter_organization="split", bmt_min_levels=1)
    mono = SystemConfig(counter_organization="monolithic", bmt_min_levels=1)
    assert mono.geometry().num_leaves == 8 * split.geometry().num_leaves
    assert mono.geometry().levels == split.geometry().levels + 1


def test_monolithic_counter_cache_reach_shrinks():
    trace = sequential_stream(500, gap=8)
    config = SystemConfig(memory_bytes=64 * 1024 * 1024, bmt_min_levels=1)
    split = run_trace(
        trace, "sp", config, warmup_fraction=0.0, counter_organization="split"
    )
    mono = run_trace(
        trace, "sp", config, warmup_fraction=0.0, counter_organization="monolithic"
    )
    assert mono.stats["ctr.misses"] > split.stats["ctr.misses"]


# ----------------------------------------------------------------------
# memory-size scaling (tree height)
# ----------------------------------------------------------------------


def test_tree_height_scales_with_memory():
    gb = 1 << 30
    levels = [
        SystemConfig(memory_bytes=size, bmt_min_levels=1).geometry().levels
        for size in (1 * gb, 8 * gb, 64 * gb, 512 * gb)
    ]
    assert levels == [7, 8, 9, 10]


def test_sp_cost_scales_with_tree_height():
    trace = sequential_stream(200, gap=8)
    small = run_trace(
        trace, "sp", SystemConfig(memory_bytes=1 << 30, bmt_min_levels=1),
        warmup_fraction=0.0,
    )
    large = run_trace(
        trace, "sp", SystemConfig(memory_bytes=512 << 30, bmt_min_levels=1),
        warmup_fraction=0.0,
    )
    assert large.cycles > small.cycles
    assert large.node_updates == 200 * 10
    assert small.node_updates == 200 * 7
