"""Tests for the cycle-accurate PTT/ETT update engine."""

import pytest

from repro.core.invariants import check_root_order, completions_in_order
from repro.core.schemes import UpdateScheme
from repro.core.update_engine import CycleAccurateEngine, EngineConfig
from repro.crypto.bmt import BMTGeometry
from repro.persistency.models import PersistencyModel


def make_engine(scheme, geometry=None, mac=40, **kwargs):
    geometry = geometry or BMTGeometry(num_leaves=64, arity=8)  # 3 levels
    config = EngineConfig(scheme=scheme, mac_latency=mac, **kwargs)
    return CycleAccurateEngine(geometry, config)


def test_sp_sequential_latency():
    """One persist: levels x MAC latency (§III: 9 x 80 = 720 example)."""
    engine = make_engine(UpdateScheme.SP)
    engine.submit(0, leaf_index=0)
    engine.run_until_drained()
    assert engine.completions[0] == 3 * 40


def test_sp_serializes_persists():
    engine = make_engine(UpdateScheme.SP)
    for i in range(3):
        engine.submit(i, leaf_index=i)
    engine.run_until_drained()
    assert engine.completions == {0: 120, 1: 240, 2: 360}


@pytest.mark.parametrize("scheme", list(UpdateScheme), ids=lambda s: s.value)
def test_every_scheme_drains(scheme):
    """Regression: secure_wb and sgx_sp used to fall into the ETT
    authorization branch and deadlock ("failed to drain").  Each scheme
    schedules by its policy row's lane discipline; the serial-walk
    schemes share sp's one-at-a-time rule (node persists are
    timing-only, modelled by the scoreboards)."""

    def drained(scheme):
        engine = make_engine(scheme)
        for i in range(4):
            assert engine.submit(i, leaf_index=i)
        engine.run_until_drained()
        return engine.completions

    completions = drained(scheme)
    assert sorted(completions) == [0, 1, 2, 3]
    if scheme in (UpdateScheme.SECURE_WB, UpdateScheme.SGX_SP):
        assert completions == drained(UpdateScheme.SP)


def test_pipeline_overlaps_levels():
    """Pipelined updates: steady-state one persist per MAC latency."""
    engine = make_engine(UpdateScheme.PIPELINE)
    for i in range(4):
        engine.submit(i, leaf_index=i)
    engine.run_until_drained()
    assert engine.completions[0] == 120
    for i in range(1, 4):
        assert engine.completions[i] == 120 + 40 * i


def test_pipeline_keeps_root_updates_in_order():
    engine = make_engine(UpdateScheme.PIPELINE)
    for i in range(6):
        engine.submit(i, leaf_index=(i * 13) % 64)
    engine.run_until_drained()
    assert completions_in_order(engine.completions)
    assert not check_root_order(engine.events, PersistencyModel.STRICT)


def test_ptt_capacity_backpressure():
    engine = make_engine(UpdateScheme.SP, ptt_capacity=2)
    assert engine.submit(0, 0)
    assert engine.submit(1, 1)
    assert not engine.submit(2, 2)  # full: core must stall
    engine.run_until_drained()
    assert engine.submit(2, 2)


def test_o3_same_epoch_completes_out_of_order_allowed():
    engine = make_engine(UpdateScheme.O3)
    for i in range(4):
        engine.submit(i, leaf_index=i, epoch_id=0)
    engine.run_until_drained()
    # All four complete; throughput ~1/cycle after the pipeline fills.
    times = [engine.completions[i] for i in range(4)]
    assert times == sorted(times)
    assert times[3] - times[0] <= 10  # far less than 3 x 120 sequential


def test_o3_orders_across_epochs():
    engine = make_engine(UpdateScheme.O3)
    for i in range(3):
        engine.submit(i, leaf_index=i, epoch_id=0)
    for i in range(3, 6):
        engine.submit(i, leaf_index=i, epoch_id=1)
    engine.run_until_drained()
    assert not check_root_order(engine.events, PersistencyModel.EPOCH)
    epoch0_last = max(engine.completions[i] for i in range(3))
    epoch1_first = min(engine.completions[i] for i in range(3, 6))
    assert epoch1_first >= epoch0_last


def test_ett_capacity_rejects_third_epoch():
    engine = make_engine(UpdateScheme.O3, ett_capacity=2)
    assert engine.submit(0, 0, epoch_id=0)
    assert engine.submit(1, 1, epoch_id=1)
    assert not engine.submit(2, 2, epoch_id=2)  # barrier stall
    engine.run_until_drained()
    assert engine.submit(2, 2, epoch_id=2)


def test_o3_hides_miss_latency_of_one_persist():
    """Fig. 4: a BMT miss delays only the missing persist under OOO."""
    from repro.mem.metadata_cache import MetadataCaches

    geometry = BMTGeometry(num_leaves=64, arity=8)

    def run(scheme):
        metadata = MetadataCaches(geometry, 1024, 1024, 1024, assoc=2)
        # Prime the BMT cache with persist 1's path only.
        for label in geometry.update_path(32):
            metadata.access_bmt_node(label, is_write=True)
        config = EngineConfig(scheme=scheme, mac_latency=40, bmt_miss_latency=200)
        engine = CycleAccurateEngine(geometry, config, metadata=metadata)
        engine.submit(0, leaf_index=0, epoch_id=0)   # cold path: misses
        engine.submit(1, leaf_index=32, epoch_id=0)  # warm path
        engine.run_until_drained()
        return engine.completions

    o3 = run(UpdateScheme.O3)
    pipe = run(UpdateScheme.PIPELINE)
    # Under in-order pipelining the warm persist is stuck behind the
    # cold one's bubbles; OOO lets it finish far earlier.
    assert o3[1] < pipe[1]


def test_coalescing_reduces_node_updates():
    o3 = make_engine(UpdateScheme.O3)
    coal = make_engine(UpdateScheme.COALESCING)
    for engine in (o3, coal):
        for i in range(8):
            engine.submit(i, leaf_index=i, epoch_id=0)  # one subtree
        engine.run_until_drained()
    assert coal.node_update_count < o3.node_update_count
    assert set(coal.completions) == set(o3.completions)


def test_coalescing_delegated_persists_complete():
    engine = make_engine(UpdateScheme.COALESCING)
    for i in range(4):
        engine.submit(i, leaf_index=i, epoch_id=0)
    engine.run_until_drained()
    assert len(engine.completions) == 4


def test_unordered_ignores_ordering():
    engine = make_engine(UpdateScheme.UNORDERED)
    for i in range(4):
        engine.submit(i, leaf_index=i)
    engine.run_until_drained()
    assert len(engine.completions) == 4


def test_events_record_node_update_counts():
    engine = make_engine(UpdateScheme.SP)
    engine.submit(0, leaf_index=0)
    engine.run_until_drained()
    [event] = engine.events
    assert event.node_updates == 3
    assert event.root_ack_cycle == engine.completions[0]


def test_root_ack_callback():
    acks = []
    geometry = BMTGeometry(num_leaves=64, arity=8)
    engine = CycleAccurateEngine(
        geometry,
        EngineConfig(scheme=UpdateScheme.SP, mac_latency=10),
        on_root_ack=lambda pid, cycle: acks.append((pid, cycle)),
    )
    engine.submit(0, 0)
    engine.run_until_drained()
    assert acks == [(0, 30)]


def test_drain_guard_raises_on_deadlock_window():
    engine = make_engine(UpdateScheme.SP)
    engine.submit(0, 0)
    with pytest.raises(RuntimeError):
        engine.run_until_drained(max_cycles=5)
