"""Tests for the SPEC-calibrated workload profiles (Table V)."""

import pytest

from repro.persistency.epochs import EpochTracker
from repro.workloads.spec_profiles import (
    REFERENCE_EPOCH,
    SPEC_PROFILES,
    profile_trace,
)
from repro.workloads.trace import OpKind


def test_all_fifteen_benchmarks_present():
    assert len(SPEC_PROFILES) == 15
    assert "gamess" in SPEC_PROFILES
    assert "milc" in SPEC_PROFILES


def test_table_v_values_recorded():
    gamess = SPEC_PROFILES["gamess"]
    assert gamess.sp_full_ppki == pytest.approx(100.72)
    assert gamess.sp_ppki == pytest.approx(51.38)
    assert gamess.o3_ppki == pytest.approx(30.433)
    assert gamess.wb_full_ppki == 0.0


def test_derived_stack_fraction():
    sphinx3 = SPEC_PROFILES["sphinx3"]
    assert sphinx3.stack_store_fraction == pytest.approx(1 - 4.87 / 184.29)


def test_derived_new_block_rate():
    bwaves = SPEC_PROFILES["bwaves"]
    assert bwaves.new_block_rate == pytest.approx(8.70 / 61.60)


def test_epoch_unique_target():
    gamess = SPEC_PROFILES["gamess"]
    assert gamess.epoch_unique_target == pytest.approx(
        REFERENCE_EPOCH * 30.433 / 51.38
    )


def test_unknown_benchmark_raises():
    with pytest.raises(KeyError):
        profile_trace("nonexistent")


@pytest.mark.parametrize("name", ["gamess", "bwaves", "astar", "sphinx3", "milc"])
def test_trace_matches_paper_store_statistics(name):
    """Measured PPKI must track Table V within 15 %."""
    profile = SPEC_PROFILES[name]
    trace = profile_trace(name, kilo_instructions=20)
    assert trace.stores_per_kilo_instruction() == pytest.approx(
        profile.sp_full_ppki, rel=0.05
    )
    assert trace.stores_per_kilo_instruction(persistent_only=True) == pytest.approx(
        profile.sp_ppki, rel=0.15
    )
    tracker = EpochTracker(REFERENCE_EPOCH)
    for r in trace:
        if r.kind is OpKind.STORE and r.persistent:
            tracker.record_store(r.block)
    tracker.flush()
    measured_o3 = 1000.0 * tracker.total_persists() / trace.instruction_count
    # Relative tolerance, with an absolute floor for tiny-PPKI profiles
    # (sphinx3's 1.04 persists/KI is statistically noisy at 20 KI).
    assert measured_o3 == pytest.approx(profile.o3_ppki, rel=0.3, abs=0.6)


def test_trace_determinism():
    a = profile_trace("gcc", kilo_instructions=5, seed=7)
    b = profile_trace("gcc", kilo_instructions=5, seed=7)
    assert list(a) == list(b)


def test_trace_seed_variation():
    a = profile_trace("gcc", kilo_instructions=5, seed=7)
    b = profile_trace("gcc", kilo_instructions=5, seed=8)
    assert list(a) != list(b)


def test_load_reuse_fraction_bounds():
    for profile in SPEC_PROFILES.values():
        assert 0.0 <= profile.load_reuse_fraction <= 1.0
