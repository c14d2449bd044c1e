"""Tests for the cross-paper scheme zoo and its recovery-table axis.

The zoo (``triad_nvm``/``phoenix``/``secpm_wt``/``anubis``) rides the
existing config/trace interface; these tests cover the scheme registry
semantics, the per-scheme scoreboard timing shapes, the crash-campaign
classifications (including the documented Invariant-2 relaxation), and
the recovery-latency vs runtime-overhead table itself.  Three-engine
bit-identity is covered by ``test_engine_differential.py``, whose
``ALL_SCHEMES`` parametrization includes the zoo automatically.
"""

import pytest

from repro.analysis.campaign import summarize, verify_campaign
from repro.analysis.recovery import (
    RECOVERY_TABLE_SCHEMES,
    build_recovery_table,
    classification,
    recovery_rows,
    recovery_table,
)
from repro.campaign.engine import run_scenario
from repro.campaign.grid import (
    CAMPAIGN_SCHEMES,
    Scenario,
    enumerate_grid,
    semantics_for,
)
from repro.core.schedulers import make_scoreboard
from repro.core.schemes import UpdateScheme
from repro.crypto.bmt import BMTGeometry
from repro.persistency.models import PersistencyModel
from repro.system.config import SystemConfig
from repro.system.factory import run_benchmark

ZOO = (
    UpdateScheme.TRIAD_NVM,
    UpdateScheme.PHOENIX,
    UpdateScheme.SECPM_WT,
    UpdateScheme.ANUBIS,
)


# ----------------------------------------------------------------------
# registry semantics
# ----------------------------------------------------------------------


def test_zoo_schemes_are_strict_write_through():
    for scheme in ZOO:
        assert scheme.persistency is PersistencyModel.STRICT
        assert scheme.write_through
        assert not scheme.uses_epochs
        assert not scheme.persists_whole_path


def test_zoo_recoverability_split():
    assert UpdateScheme.SECPM_WT.crash_recoverable
    assert UpdateScheme.ANUBIS.crash_recoverable
    assert not UpdateScheme.TRIAD_NVM.crash_recoverable
    assert not UpdateScheme.PHOENIX.crash_recoverable
    assert UpdateScheme.TRIAD_NVM.relaxes_root_order
    assert UpdateScheme.PHOENIX.relaxes_root_order
    assert not UpdateScheme.SECPM_WT.relaxes_root_order
    assert not UpdateScheme.ANUBIS.relaxes_root_order


def test_zoo_schemes_resolve_by_name():
    for scheme in ZOO:
        assert UpdateScheme.from_name(scheme.value) is scheme


# ----------------------------------------------------------------------
# scoreboard timing shapes
# ----------------------------------------------------------------------


@pytest.fixture
def geometry():
    return BMTGeometry(num_leaves=64, arity=8)


def _submit_one(scheme, geometry, **kwargs):
    sb = make_scoreboard(scheme, geometry, mac_latency=40, **kwargs)
    return sb, sb.submit(0, leaf_index=5, arrival=0)


def test_secpm_adds_one_counter_persist_over_sp(geometry):
    _, sp = _submit_one(UpdateScheme.SP, geometry)
    sb, wt = _submit_one(UpdateScheme.SECPM_WT, geometry)
    assert wt.completion == sp.completion + sb.node_persist_cycles
    assert sb.path_persists == 1


def test_triad_acks_at_persisted_frontier(geometry):
    """The store is durable once the lowest N levels persisted; the
    relaxed upper walk continues occupying the engine."""
    sb, timing = _submit_one(UpdateScheme.TRIAD_NVM, geometry, triad_levels=2)
    _, sp = _submit_one(UpdateScheme.SP, geometry)
    # Ack covers 2 of 3 path nodes + 2 node persists — earlier than a
    # full sequential walk would finish, but the engine stays busy for
    # the remaining level.
    assert timing.completion < sp.completion + 2 * sb.node_persist_cycles
    assert sb.engine_busy_until() > timing.completion
    assert sb.path_persists == 2


def test_triad_persist_levels_config_reaches_scoreboard(geometry):
    shallow, _ = _submit_one(UpdateScheme.TRIAD_NVM, geometry, triad_levels=1)
    deep, _ = _submit_one(UpdateScheme.TRIAD_NVM, geometry, triad_levels=3)
    assert shallow.persist_levels == 1
    assert deep.persist_levels == 3


def test_phoenix_is_triad_with_one_level(geometry):
    sb, _ = _submit_one(UpdateScheme.PHOENIX, geometry)
    assert sb.persist_levels == 1


def test_anubis_pipelines_with_shadow_cost(geometry):
    """Anubis keeps PLP 1's pipelining; every level pays the shadow
    write, so back-to-back persists still overlap across levels."""
    sb = make_scoreboard(UpdateScheme.ANUBIS, geometry, mac_latency=40)
    pipe = make_scoreboard(UpdateScheme.PIPELINE, geometry, mac_latency=40)
    t1 = sb.submit(0, leaf_index=5, arrival=0)
    t2 = sb.submit(1, leaf_index=6, arrival=0)
    p1 = pipe.submit(0, leaf_index=5, arrival=0)
    p2 = pipe.submit(1, leaf_index=6, arrival=0)
    levels = geometry.levels
    assert t1.completion == p1.completion + levels * sb.stage_extra
    assert sb.stage_extra_writes == 2 * levels
    # Pipelining: the second persist finishes one stage (not one whole
    # walk) after the first, exactly as the plain pipeline does.
    assert t2.completion - t1.completion == (p2.completion - p1.completion) + (
        sb.stage_extra
    )


def test_zoo_runs_through_the_timing_simulator():
    results = run_benchmark(
        "milc",
        ZOO,
        kilo_instructions=3,
        config=SystemConfig(memory_bytes=64 * 1024 * 1024),
    )
    for scheme in ZOO:
        result = results[scheme.value]
        assert result.persists > 0
        assert result.cycles > 0


# ----------------------------------------------------------------------
# crash campaign
# ----------------------------------------------------------------------


def test_zoo_schemes_in_campaign_roster():
    for scheme in ZOO:
        assert scheme.value in CAMPAIGN_SCHEMES


def test_relaxed_semantics_flags():
    for name in ("triad_nvm", "phoenix"):
        sem = semantics_for(name)
        assert sem.rebuild_root and sem.relaxed and not sem.compliant
        assert not sem.ordered_root and sem.atomic and sem.persistent
    for name in ("secpm_wt", "anubis"):
        sem = semantics_for(name)
        assert sem.compliant and not sem.relaxed and not sem.rebuild_root


@pytest.mark.parametrize("scheme", ["triad_nvm", "phoenix"])
def test_relaxed_scheme_recovers_unordered_root_loss(scheme):
    """The defining cell: the older persist's root ack is lost, the
    younger completes — a non-prefix release that ordered schemes
    forbid.  Root adoption recovers it without silent corruption."""
    cell = run_scenario(
        Scenario(scheme, "ordered_pair", victim=0, drops=("root_ack",))
    )
    assert cell.relaxed and not cell.compliant
    assert cell.classification == "recovered"
    assert not cell.problems


@pytest.mark.parametrize("scheme", ["secpm_wt", "anubis"])
def test_compliant_zoo_scheme_keeps_prefix_release(scheme):
    cell = run_scenario(
        Scenario(scheme, "ordered_pair", victim=0, drops=("root_ack",))
    )
    assert cell.compliant and not cell.relaxed
    assert cell.classification == "recovered"
    # Ordered root: the younger persist cannot outlive the victim.
    assert cell.persisted == []


def test_zoo_campaign_grid_verifies():
    cells = [
        run_scenario(s)
        for s in enumerate_grid(
            schemes=[s.value for s in ZOO],
            workloads=["overwrite", "ordered_pair"],
        )
    ]
    verify_campaign(cells, require_tables=False)
    rendered = summarize(cells).render()
    assert "relaxed" in rendered and "compliant" in rendered


# ----------------------------------------------------------------------
# the recovery table
# ----------------------------------------------------------------------


def test_recovery_table_covers_acceptance_roster():
    values = {s.value for s in RECOVERY_TABLE_SCHEMES}
    assert {"sp", "pipeline", "o3", "coalescing"} <= values
    assert {s.value for s in ZOO} <= values


def test_classification_strings():
    assert classification(UpdateScheme.SP) == "invariants 1+2"
    assert classification(UpdateScheme.TRIAD_NVM) == "relaxed root order"
    assert classification(UpdateScheme.UNORDERED) == "not recoverable"


def test_recovery_rows_and_table():
    config = SystemConfig(memory_bytes=64 * 1024 * 1024)
    rows = recovery_rows(
        "milc",
        schemes=[UpdateScheme.SP, UpdateScheme.TRIAD_NVM, UpdateScheme.ANUBIS],
        kilo_instructions=3,
        config=config,
    )
    by_scheme = {row.scheme: row for row in rows}
    assert set(by_scheme) == {
        UpdateScheme.SP,
        UpdateScheme.TRIAD_NVM,
        UpdateScheme.ANUBIS,
    }
    assert by_scheme[UpdateScheme.TRIAD_NVM].recovery_cycles < (
        by_scheme[UpdateScheme.SP].recovery_cycles
    )
    assert all(row.slowdown > 0 for row in rows)
    rendered = recovery_table(rows, "milc").render()
    for name in ("sp", "triad_nvm", "anubis"):
        assert name in rendered
    assert "relaxed root order" in rendered


def test_build_recovery_table_markdown():
    table = build_recovery_table(
        "milc",
        schemes=[UpdateScheme.SP, UpdateScheme.PHOENIX],
        kilo_instructions=3,
        config=SystemConfig(memory_bytes=64 * 1024 * 1024),
    )
    markdown = table.to_markdown()
    assert markdown.splitlines()[2].startswith("| scheme |")
    assert "| phoenix |" in markdown
