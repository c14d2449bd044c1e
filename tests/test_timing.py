"""Tests for the trace-driven timing simulator."""

import pytest

from repro.core.schemes import UpdateScheme
from repro.core.update_engine import EngineConfig
from repro.system.config import SystemConfig
from repro.system.factory import build_simulator, run_benchmark, run_trace
from repro.system.timing import TraceSimulator
from repro.workloads.synthetic import sequential_stream, uniform_random, zipfian
from repro.workloads.trace import MemoryTrace, OpKind, TraceRecord


def small_config(scheme=UpdateScheme.SP, **kwargs):
    defaults = dict(scheme=scheme, memory_bytes=64 * 1024 * 1024)
    defaults.update(kwargs)
    return SystemConfig(**defaults)


# ----------------------------------------------------------------------
# config
# ----------------------------------------------------------------------


def test_config_defaults_match_table_iii():
    cfg = SystemConfig()
    assert cfg.l3_bytes == 4 * 1024 * 1024
    assert cfg.wpq_entries == 32
    assert cfg.counter_cache_bytes == 128 * 1024
    assert cfg.mac_latency == 40
    assert cfg.epoch_size == 32
    # Table III's 64-entry PTT bounds only the cycle-accurate engine.
    assert EngineConfig().ptt_capacity == 64
    assert not hasattr(cfg, "ptt_entries")
    assert cfg.ett_entries == 2
    assert cfg.geometry().levels == 9


def test_config_variants():
    cfg = SystemConfig()
    v = cfg.variant(mac_latency=80)
    assert v.mac_latency == 80 and cfg.mac_latency == 40
    s = cfg.with_scheme(UpdateScheme.O3)
    assert s.scheme is UpdateScheme.O3


def test_config_validation():
    with pytest.raises(ValueError):
        SystemConfig(mac_latency=-1)
    with pytest.raises(ValueError):
        SystemConfig(memory_bytes=100)


def test_config_coerces_scheme_name():
    """Regression: a scheme name used to construct, then fail inside
    TraceSimulator with an AttributeError on the str."""
    cfg = SystemConfig(scheme="SP")
    assert cfg.scheme is UpdateScheme.SP
    assert cfg.variant(scheme="coalescing").scheme is UpdateScheme.COALESCING
    result = TraceSimulator(cfg).run(sequential_stream(50, gap=4), 0.0)
    assert result.scheme == "sp"


def test_config_rejects_unknown_scheme_name():
    with pytest.raises(ValueError, match="unknown scheme 'bogus'"):
        SystemConfig(scheme="bogus")


@pytest.mark.parametrize("value", [3, None, UpdateScheme])
def test_config_rejects_non_scheme_value(value):
    with pytest.raises(ValueError, match="scheme must be an UpdateScheme"):
        SystemConfig(scheme=value)


@pytest.mark.parametrize(
    "field",
    [
        "epoch_size",
        "wpq_entries",
        "ett_entries",
        "bmt_arity",
        "triad_persist_levels",
        "clock_ghz",
        "core_ipc",
        "load_mlp",
        "memory_bytes",
        "bmt_min_levels",
        "l1_assoc",
        "metadata_assoc",
        "l1_bytes",
        "l2_bytes",
        "counter_cache_bytes",
        "bmt_cache_bytes",
    ],
)
@pytest.mark.parametrize("value", [0, -1])
def test_config_rejects_degenerate_capacities(field, value):
    """Regression: epoch_size=0 used to slip through and fail only deep
    inside the simulator's EpochTracker; wpq_entries=0 could never
    admit a persist; core_ipc/load_mlp/l1_assoc=0 divided by zero,
    core_ipc=-1 simulated silently, clock_ghz=0 divided by zero in the
    recovery table, and zero-size memory or metadata caches failed only
    inside TraceSimulator.  The constructor must reject them."""
    with pytest.raises(ValueError, match=f"{field} must be positive"):
        SystemConfig(**{field: value})


@pytest.mark.parametrize(
    "field,value",
    [("l2_bytes", 1000), ("l1_bytes", 256), ("mac_cache_bytes", 64)],
)
def test_config_rejects_cache_smaller_than_one_set(field, value):
    """Regression: l2_bytes=1000 ran on the batched engine but raised
    on skip_ahead; every engine now sees the same rejection."""
    with pytest.raises(ValueError, match=f"{field}={value} is smaller than one set"):
        SystemConfig(**{field: value})


def test_config_variant_revalidates():
    """variant() re-runs __post_init__, so degenerate overrides are
    rejected on the copy path too."""
    cfg = SystemConfig()
    with pytest.raises(ValueError, match="epoch_size must be positive"):
        cfg.variant(epoch_size=0)
    with pytest.raises(ValueError, match="wpq_entries must be positive"):
        cfg.variant(wpq_entries=-4)


def test_config_variant_rejects_unknown_field():
    with pytest.raises(ValueError, match="unknown SystemConfig field.*warp_factor"):
        SystemConfig().variant(warp_factor=9)
    with pytest.raises(ValueError, match="num_pages"):
        SystemConfig().variant(num_pages=4)


def test_config_constructor_rejects_unknown_field():
    with pytest.raises(ValueError, match="unknown SystemConfig field.*foo"):
        SystemConfig(foo=1)
    with pytest.raises(ValueError, match="bar.*foo"):
        SystemConfig(wpq_entries=8, foo=1, bar=2)
    assert SystemConfig(wpq_entries=8).wpq_entries == 8


def test_config_leaves_per_page_by_organization():
    assert SystemConfig().leaves_per_page == 1
    assert SystemConfig(counter_organization="monolithic").leaves_per_page == 8


# ----------------------------------------------------------------------
# scheme behaviour in the simulator
# ----------------------------------------------------------------------


def test_sp_persists_every_persistent_store():
    trace = sequential_stream(200, gap=8)
    result = run_trace(trace, "sp", small_config(), warmup_fraction=0.0)
    assert result.persists == 200


def test_secure_wb_persists_only_writebacks():
    """secure_WB persists on dirty write-backs, not per store.

    A hot-set workload keeps its blocks resident (re-dirtied in the
    residency window), so write-backs — and hence BMT updates — are far
    rarer than stores.
    """
    trace = zipfian(400, span_blocks=64, skew=1.2, gap=8, seed=9)
    result = run_trace(
        trace, "secure_wb", small_config(UpdateScheme.SECURE_WB), warmup_fraction=0.0
    )
    assert result.persists < 400 * 0.5


def test_secure_wb_streaming_stores_write_back():
    """Streaming stores displace old dirty blocks one-for-one in steady
    state, so a pure store stream writes back at about its store rate."""
    trace = sequential_stream(200, gap=8)
    result = run_trace(
        trace, "secure_wb", small_config(UpdateScheme.SECURE_WB), warmup_fraction=0.0
    )
    assert result.persists == pytest.approx(200, rel=0.1)


def test_epoch_scheme_collapses_same_block_stores():
    records = [TraceRecord(OpKind.STORE, 0x1000, gap=8) for _ in range(64)]
    trace = MemoryTrace(records)
    result = run_trace(
        trace, "o3", small_config(UpdateScheme.O3, epoch_size=32), warmup_fraction=0.0
    )
    assert result.persists == 2  # one per epoch


def test_sfence_closes_epoch():
    records = [
        TraceRecord(OpKind.STORE, 0x1000, gap=4),
        TraceRecord(OpKind.SFENCE),
        TraceRecord(OpKind.STORE, 0x1000, gap=4),
    ]
    trace = MemoryTrace(records)
    result = run_trace(
        trace, "o3", small_config(UpdateScheme.O3, epoch_size=1000), warmup_fraction=0.0
    )
    assert result.persists == 2


def test_scheme_ordering_on_store_heavy_trace():
    """The paper's headline ordering: sp slowest, then pipeline, then
    the epoch schemes, with secure_wb fastest (no persistency).

    Needs a workload with store locality — epoch persistency's
    advantage comes partly from same-block collapse, which a pure
    uniform-random stream lacks.
    """
    trace = zipfian(600, span_blocks=512, skew=1.1, gap=8, seed=5)
    cycles = {}
    for scheme in ("secure_wb", "sp", "pipeline", "o3"):
        cycles[scheme] = run_trace(
            trace, scheme, small_config(), warmup_fraction=0.0
        ).cycles
    assert cycles["sp"] > cycles["pipeline"] > cycles["o3"]
    # o3 may even beat secure_WB (the paper's milc case): the baseline's
    # evicted dirty blocks update the BMT sequentially, while o3
    # overlaps them.  Sanity-bound it rather than forcing a minimum.
    assert cycles["o3"] >= cycles["secure_wb"] * 0.3


def test_unordered_close_to_baseline():
    trace = uniform_random(400, span_blocks=256, gap=8, seed=6)
    base = run_trace(trace, "secure_wb", small_config(), warmup_fraction=0.0)
    unordered = run_trace(trace, "unordered", small_config(), warmup_fraction=0.0)
    assert unordered.cycles < 2.0 * base.cycles


def test_protect_stack_increases_persists():
    records = [
        TraceRecord(OpKind.STORE, 0x1000 + 64 * i, gap=8, persistent=(i % 2 == 0))
        for i in range(100)
    ]
    trace = MemoryTrace(records)
    partial = run_trace(trace, "sp", small_config(), warmup_fraction=0.0)
    full = run_trace(
        trace, "sp", small_config(), warmup_fraction=0.0, protect_stack=True
    )
    assert full.persists == 2 * partial.persists


def test_mac_latency_scaling():
    trace = sequential_stream(300, gap=8)
    slow = run_trace(trace, "sp", small_config(), warmup_fraction=0.0, mac_latency=80)
    fast = run_trace(trace, "sp", small_config(), warmup_fraction=0.0, mac_latency=20)
    assert slow.cycles > fast.cycles


def test_zero_mac_latency_runs():
    trace = sequential_stream(100, gap=8)
    result = run_trace(trace, "sp", small_config(), warmup_fraction=0.0, mac_latency=0)
    assert result.cycles > 0


def test_result_metrics():
    trace = sequential_stream(100, gap=9)
    result = run_trace(trace, "sp", small_config(), warmup_fraction=0.0)
    assert result.instructions == trace.instruction_count
    assert result.ppki == pytest.approx(100.0, rel=0.01)
    assert 0 < result.ipc < 4
    assert result.node_updates == 100 * 9


def test_warmup_window_excludes_prefix():
    trace = sequential_stream(200, gap=9)
    full = run_trace(trace, "sp", small_config(), warmup_fraction=0.0)
    windowed = run_trace(trace, "sp", small_config(), warmup_fraction=0.5)
    assert windowed.instructions == pytest.approx(full.instructions / 2, rel=0.02)
    assert windowed.cycles < full.cycles


def test_invalid_warmup_fraction():
    trace = sequential_stream(10)
    sim = TraceSimulator(small_config())
    with pytest.raises(ValueError):
        sim.run(trace, warmup_fraction=1.0)


def test_slowdown_requires_same_trace():
    a = run_trace(sequential_stream(100, gap=8), "sp", small_config(), warmup_fraction=0.0)
    b = run_trace(sequential_stream(50, gap=8), "sp", small_config(), warmup_fraction=0.0)
    with pytest.raises(ValueError):
        a.slowdown_vs(b)


# ----------------------------------------------------------------------
# factory helpers
# ----------------------------------------------------------------------


def test_build_simulator_accepts_names_and_enums():
    assert build_simulator("coalescing").scheme is UpdateScheme.COALESCING
    assert build_simulator(UpdateScheme.SP).scheme is UpdateScheme.SP
    with pytest.raises(ValueError):
        build_simulator("bogus")


def test_run_benchmark_uses_profile_ipc():
    results = run_benchmark("gamess", ["secure_wb"], kilo_instructions=20)
    assert set(results) == {"secure_wb"}
    assert results["secure_wb"].ipc > 1.5  # gamess is a high-IPC profile


def test_scheme_registry_roundtrip():
    for scheme in UpdateScheme:
        assert UpdateScheme.from_name(scheme.value) is scheme
    assert UpdateScheme.from_name("SP") is UpdateScheme.SP
