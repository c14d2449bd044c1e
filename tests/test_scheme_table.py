"""Pins for the scheme policy table (``repro.core.schemes.SCHEME_TABLE``).

Every value a scheme's behaviour depends on is derived from its one
policy row.  These tables pin the derived values — registry properties,
crash-campaign semantics, extra NVM writes per persist, and scoreboard
discipline and timing — to the figures the per-scheme code produced
before the table existed, so a wrong row fails here by name.
"""

import pytest

from repro.analysis.recovery import RECOVERY_TABLE_SCHEMES
from repro.campaign.app_engine import APP_CAMPAIGN_SCHEMES
from repro.campaign.grid import CAMPAIGN_SCHEMES, semantics_for
from repro.core.schedulers import SCOREBOARDS, make_scoreboard
from repro.core.schemes import SCHEME_TABLE, UpdateScheme
from repro.crypto.bmt import BMTGeometry
from repro.system.config import SystemConfig
from repro.system.timing import TraceSimulator

# scheme: (persistency, write_through, crash_recoverable,
#          relaxes_root_order, uses_epochs, persists_whole_path)
PROPERTIES = {
    "secure_wb": ("none", False, False, False, False, False),
    "unordered": ("none", True, False, False, False, False),
    "sp": ("strict", True, True, False, False, False),
    "pipeline": ("strict", True, True, False, False, False),
    "o3": ("epoch", False, True, False, True, False),
    "coalescing": ("epoch", False, True, False, True, False),
    "sgx_sp": ("strict", True, True, False, False, True),
    "triad_nvm": ("strict", True, False, True, False, False),
    "phoenix": ("strict", True, False, True, False, False),
    "secpm_wt": ("strict", True, True, False, False, False),
    "anubis": ("strict", True, True, False, False, False),
}

# scheme: (model, persistent, atomic, ordered_root, coalesced, rebuild_root)
SEMANTICS = {
    "secure_wb": ("none", False, False, False, False, False),
    "unordered": ("strict", True, False, False, False, False),
    "sp": ("strict", True, True, True, False, False),
    "pipeline": ("strict", True, True, True, False, False),
    "o3": ("epoch", True, True, True, False, False),
    "coalescing": ("epoch", True, True, True, True, False),
    "triad_nvm": ("strict", True, True, False, False, True),
    "phoenix": ("strict", True, True, False, False, True),
    "secpm_wt": ("strict", True, True, True, False, False),
    "anubis": ("strict", True, True, True, False, False),
}

# The app campaign and the recovery table run the campaign schemes that
# recover (both invariants, or a documented relaxation).
RECOVERING = (
    "sp",
    "pipeline",
    "o3",
    "coalescing",
    "triad_nvm",
    "phoenix",
    "secpm_wt",
    "anubis",
)

# scheme: (discipline, extra NVM writes per persist on the 9-level tree,
#          completions of three persists (leaves 5, 6, 40) at cycle 0 on
#          a 3-level tree, engine busy-until, node updates)
TIMING = {
    "secure_wb": ("sequential", 0, (120, 240, 360), 360, 9),
    "unordered": ("unordered", 0, (0, 0, 0), 0, 9),
    "sp": ("sequential", 0, (120, 240, 360), 360, 9),
    "pipeline": ("pipeline", 0, (120, 160, 200), 120, 9),
    "o3": ("ooo", 0, (120, 121, 122), 0, 9),
    "coalescing": ("coalescing", 0, (121, 121, 122), 0, 7),
    "sgx_sp": ("sequential", 8, (144, 288, 432), 432, 9),
    "triad_nvm": ("sequential", 2, (96, 232, 368), 408, 9),
    "phoenix": ("sequential", 1, (48, 176, 304), 384, 9),
    "secpm_wt": ("sequential", 0, (128, 256, 384), 384, 9),
    "anubis": ("pipeline", 1, (132, 176, 220), 132, 9),
}


def test_every_scheme_has_exactly_one_row():
    schemes = [row.scheme for row in SCHEME_TABLE]
    assert sorted(schemes, key=lambda s: s.value) == sorted(
        UpdateScheme, key=lambda s: s.value
    )
    assert len(schemes) == len(set(schemes))
    for scheme in UpdateScheme:
        assert scheme.policy.scheme is scheme
        assert scheme.policy.discipline in SCOREBOARDS
    assert set(PROPERTIES) == set(TIMING) == {s.value for s in UpdateScheme}


@pytest.mark.parametrize("name", sorted(PROPERTIES))
def test_registry_properties_pinned(name):
    scheme = UpdateScheme.from_name(name)
    assert (
        scheme.persistency.value,
        scheme.write_through,
        scheme.crash_recoverable,
        scheme.relaxes_root_order,
        scheme.uses_epochs,
        scheme.persists_whole_path,
    ) == PROPERTIES[name]


def test_rosters_pinned():
    assert CAMPAIGN_SCHEMES == tuple(
        s.value for s in UpdateScheme if s.value in SEMANTICS
    )
    assert APP_CAMPAIGN_SCHEMES == RECOVERING
    assert tuple(s.value for s in RECOVERY_TABLE_SCHEMES) == RECOVERING


@pytest.mark.parametrize("name", CAMPAIGN_SCHEMES)
def test_campaign_semantics_pinned(name):
    sem = semantics_for(name)
    assert sem.scheme is UpdateScheme.from_name(name)
    assert (
        sem.model.value,
        sem.persistent,
        sem.atomic,
        sem.ordered_root,
        sem.coalesced,
        sem.rebuild_root,
    ) == SEMANTICS[name]


def test_sgx_is_outside_the_campaign():
    with pytest.raises(ValueError, match="not part of the crash campaign"):
        semantics_for("sgx_sp")


@pytest.mark.parametrize("name", sorted(TIMING))
def test_extra_nvm_writes_pinned(name):
    config = SystemConfig(scheme=name, memory_bytes=64 * 1024 * 1024)
    sim = TraceSimulator(config)
    assert sim.geometry.levels == 9
    assert sim._extra_persist_writes == TIMING[name][1]


@pytest.mark.parametrize("engine", ["skip_ahead", "stepped"])
@pytest.mark.parametrize("name", sorted(TIMING))
def test_scoreboard_discipline_and_timing_pinned(name, engine):
    scheme = UpdateScheme.from_name(name)
    discipline, _, completions, busy, updates = TIMING[name]
    geometry = BMTGeometry(num_leaves=64, arity=8)
    sb = make_scoreboard(scheme, geometry, mac_latency=40, engine=engine)
    assert type(sb) is SCOREBOARDS[discipline]
    persists = [(0, 5), (1, 6), (2, 40)]
    if scheme.uses_epochs:
        timings = sb.submit_epoch(persists, arrival=0)
    else:
        timings = [sb.submit(pid, leaf, arrival=0) for pid, leaf in persists]
    assert tuple(t.completion for t in timings) == completions
    assert sb.engine_busy_until() == busy
    assert sb.node_update_count == updates
