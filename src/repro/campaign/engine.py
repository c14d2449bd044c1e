"""Per-cell crash/recovery drive for the campaign.

For one :class:`~repro.campaign.grid.Scenario` the engine:

1. replays the workload on a fresh functional secure memory, producing
   the persist journal (the writer's intent);
2. derives each persist's delivered tuple components from the scheme's
   crash semantics (2SP locking, Invariant-2 ordering, EP epochs, LCA
   coalescing delegation) and the scenario's victim/drops;
3. drives a real :class:`~repro.mem.wpq.WritePendingQueue` through
   :meth:`~repro.mem.wpq.WritePendingQueue.crash_flush` to decide what
   reaches NVM, cross-checking the WPQ state against the paper's
   invariants;
4. converts the flush outcome into a :class:`CrashInjector`, crashes
   the memory, and runs :class:`~repro.recovery.checker.RecoveryChecker`
   differentially against the intent;
5. classifies the cell.

Outcome taxonomy:

* ``recovered`` — verification passes and every expected plaintext is
  back (vacuously, when nothing was expected durable).
* ``detected_failure`` — the integrity machinery (BMT root or a MAC)
  rejects the image: data was lost, but the loss is *visible*.
* ``silent_corruption`` — verification passes yet a recovered plaintext
  differs from the writer's intent: the worst outcome, invisible loss.
* ``invariant_violation`` — the scheme claims crash recoverability
  (2SP + ordered root) but the cell did not fully recover, or the WPQ
  drive itself broke a mechanical invariant (a complete entry missing
  items, a non-prefix release under ordered persists).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set

from repro.core.coalescing import CoalescingUnit
from repro.core.invariants import check_tuple_complete
from repro.core.schemes import SchemePolicy
from repro.crypto.bmt import BMTGeometry
from repro.mem.wpq import TupleItem, WritePendingQueue
from repro.recovery.checker import RecoveryChecker
from repro.recovery.crash import CrashInjector
from repro.campaign.grid import (
    Scenario,
    WORKLOADS,
    build_memory,
    replay,
    semantics_for,
)

OUTCOME_RECOVERED = "recovered"
OUTCOME_DETECTED = "detected_failure"
OUTCOME_SILENT_CORRUPTION = "silent_corruption"
OUTCOME_INVARIANT_VIOLATION = "invariant_violation"
OUTCOMES = (
    OUTCOME_RECOVERED,
    OUTCOME_DETECTED,
    OUTCOME_SILENT_CORRUPTION,
    OUTCOME_INVARIANT_VIOLATION,
)

_NVM_ITEMS = (TupleItem.DATA, TupleItem.COUNTER, TupleItem.MAC)


@dataclass
class CampaignCell:
    """One classified grid cell (JSON-primitive fields only, so cells
    round-trip bit-identically through the campaign cache)."""

    scheme: str
    workload: str
    victim: int
    drops: List[str]
    compliant: bool
    classification: str
    bmt_ok: bool
    consistent: bool
    intent_ok: bool
    vacuous: bool
    durable_persists: int
    total_persists: int
    relaxed: bool = False
    persisted: List[int] = field(default_factory=list)
    invalidated: List[int] = field(default_factory=list)
    epochs_complete: List[List[int]] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    blocks: List[Dict] = field(default_factory=list)

    def block_outcome(self, block: int) -> str:
        """Table-I-style outcome string for one checked block."""
        for entry in self.blocks:
            if entry["block"] == block:
                return entry["outcome"]
        raise KeyError(f"block {block} was not checked in this cell")


def root_delegates(
    sem: SchemePolicy, journal: Sequence, geometry: BMTGeometry
) -> List[int]:
    """``resolve[p]``: the persist whose BMT root work acks persist ``p``.

    The identity map, except that coalescing delegates a leading
    persist's root ack to the trailing persist of its pair — per epoch,
    in journal order.  Depends only on the journal, never on the crash
    point, so the plan pruner computes it once per plan set.
    """
    n = len(journal)
    resolve = list(range(n))
    if sem.coalesced and n:
        unit = CoalescingUnit(geometry, policy="paired")
        by_epoch: Dict[int, List[int]] = {}
        for p, record in enumerate(journal):
            by_epoch.setdefault(record.epoch_id, []).append(p)
        for indices in by_epoch.values():
            coalesced = unit.coalesce_epoch(
                [(p, journal[p].page) for p in indices]
            )
            finals = unit.resolve_delegates(coalesced)
            for p in indices:
                resolve[p] = finals[p]
    return resolve


def _delivery_plan(
    sem: SchemePolicy,
    journal: Sequence,
    victim: int,
    drops: Set[TupleItem],
    geometry: BMTGeometry,
) -> List[Set[TupleItem]]:
    """Which tuple components arrive at the WPQ for each persist.

    The WPQ is the serialization point of the functional model: under
    2SP an in-flight victim stalls younger gathers (EP's out-of-order
    freedom lives in the BMT update-engine timing, which the timing
    simulator models; functionally the persist release order is FIFO).
    The unordered strawman gathers everything with no locking, so every
    non-victim persist lands in full — Tables I & II.
    """
    n = len(journal)
    last_issued = n - 1 if victim == -1 else victim

    # Step 1: non-root components gathered per persist.
    gathered: List[Set[TupleItem]] = []
    for p in range(n):
        if sem.atomic and p > last_issued:
            gathered.append(set())
        elif p == victim:
            gathered.append(set(_NVM_ITEMS) - drops)
        else:
            gathered.append(set(_NVM_ITEMS))

    # Step 2: whose own BMT root work finished.
    root_done: List[bool] = []
    for p in range(n):
        if sem.atomic and p > last_issued:
            root_done.append(False)
        elif p == victim:
            root_done.append(TupleItem.ROOT_ACK not in drops)
        else:
            root_done.append(True)

    # Step 3: whose root work each persist's ack waits on.
    resolve = root_delegates(sem, journal, geometry)

    # Step 4: root acks, chained per Invariant 2 when the scheme orders
    # root updates.
    acked: List[bool] = []
    for p in range(n):
        ok = root_done[resolve[p]]
        if sem.ordered_root and p > 0:
            ok = ok and acked[p - 1]
        acked.append(ok)

    return [
        gathered[p] | ({TupleItem.ROOT_ACK} if acked[p] else set())
        for p in range(n)
    ]


@dataclass
class FlushOutcome:
    """What the WPQ power-failure flush decided for one crash cell.

    Shared between the memory-level and app-level engines (and reused
    without crypto by the crash-plan pruner in
    :mod:`repro.campaign.plans` for non-atomic schemes, whose classes
    are exact damage signatures).
    """

    persisted: List
    invalidated: List
    problems: List[str]
    epochs_complete: List[List[int]]

    @property
    def persisted_ids(self) -> List[int]:
        return sorted(e.persist_id for e in self.persisted)

    @property
    def invalidated_ids(self) -> List[int]:
        return sorted(e.persist_id for e in self.invalidated)


def drive_wpq(
    sem: SchemePolicy,
    journal: Sequence,
    victim: int,
    drops: Set[TupleItem],
    geometry: BMTGeometry,
    telemetry=None,
) -> FlushOutcome:
    """Drive a real WPQ through the power failure for one crash cell."""
    n = len(journal)
    wpq = WritePendingQueue(capacity=max(1, n), telemetry=telemetry)
    arrived = _delivery_plan(sem, journal, victim, drops, geometry)
    for p, record in enumerate(journal):
        wpq.allocate(p, epoch_id=record.epoch_id, locked=sem.atomic)
        for item in _NVM_ITEMS:
            if item in arrived[p]:
                wpq.deliver(p, item)
    for p in range(n):
        if TupleItem.ROOT_ACK in arrived[p]:
            wpq.ack_root(p)

    entries = [wpq.entry(p) for p in range(n)]
    problems = check_tuple_complete(entries)
    epochs_complete = [
        [epoch, int(wpq.epoch_complete(epoch))]
        for epoch in sorted({r.epoch_id for r in journal})
    ]
    persisted, invalidated = wpq.crash_flush()

    if sem.atomic:
        # Relaxed-root schemes legally release non-prefix sets: a
        # victim's unchained ack failure invalidates only the victim,
        # while younger complete persists still release.
        persisted_ids = sorted(e.persist_id for e in persisted)
        if sem.ordered_root and persisted_ids != list(range(len(persisted_ids))):
            problems.append(
                f"ordered release is not a journal prefix: {persisted_ids}"
            )
        for entry in invalidated:
            if entry.drained:
                drained = sorted(item.value for item in entry.drained)
                problems.append(
                    f"locked persist {entry.persist_id} invalidated with "
                    f"drained items: {drained}"
                )
    return FlushOutcome(persisted, invalidated, problems, epochs_complete)


def build_injector(sem: SchemePolicy, outcome: FlushOutcome) -> CrashInjector:
    """Convert a flush outcome into the fault injection it implies."""
    injector = CrashInjector()
    for entry in outcome.persisted:
        lost = [item for item in _NVM_ITEMS if item not in entry.drained]
        if TupleItem.ROOT_ACK not in entry.arrived:
            lost.append(TupleItem.ROOT_ACK)
        if lost:
            injector.drop(entry.persist_id, *lost)
    for entry in outcome.invalidated:
        lost = list(_NVM_ITEMS)
        # 2SP commits the durable-root register at entry release, so an
        # invalidated entry's root update is discarded with its tuple;
        # the unordered strawman's register races ahead of gathering.
        if sem.atomic or TupleItem.ROOT_ACK not in entry.arrived:
            lost.append(TupleItem.ROOT_ACK)
        injector.drop(entry.persist_id, *lost)
    return injector


def run_scenario(scenario: Scenario, telemetry=None) -> CampaignCell:
    """Crash, recover, and classify one grid cell.

    Args:
        scenario: The grid cell to run.
        telemetry: Optional :class:`~repro.telemetry.bus.Telemetry`; the
            campaign's WPQ records its enqueue/release/invalidate events
            against the bus's logical clock.
    """
    sem = semantics_for(scenario.scheme)
    mem = build_memory(sem)
    replay(mem, WORKLOADS[scenario.workload])
    journal = mem.journal
    n = len(journal)
    if scenario.victim >= n:
        raise ValueError(
            f"victim {scenario.victim} out of range: "
            f"({scenario.scheme}, {scenario.workload}) journals {n} persists"
        )
    drops = set(scenario.drop_items)

    # ---- drive a real WPQ through the power failure ------------------
    outcome = drive_wpq(
        sem, journal, scenario.victim, drops, mem.geometry, telemetry
    )
    problems = outcome.problems
    epochs_complete = outcome.epochs_complete
    persisted_ids = outcome.persisted_ids
    invalidated_ids = outcome.invalidated_ids

    # ---- flush outcome -> fault injection ----------------------------
    injector = build_injector(sem, outcome)

    # ---- writer's intent ---------------------------------------------
    intent: Dict[int, bytes] = {}
    if sem.persistent:
        guaranteed = (
            [journal[p] for p in persisted_ids] if sem.atomic else list(journal)
        )
        for record in guaranteed:
            intent[record.block] = record.plaintext

    # ---- crash, recover, classify ------------------------------------
    mem.crash(injector)
    if sem.rebuild_root:
        # The documented relaxation (triad_nvm/phoenix): recovery does
        # not trust the register's ordering — it re-derives the root
        # from the persisted, MAC-protected counters and adopts it, so
        # verification rests on the per-block MACs.
        checker = RecoveryChecker(mem.geometry, mem.keys)
        mem.durable_root.commit(checker.rebuild_root(mem.nvm))
    report = mem.recover(expected=intent)

    intent_ok = all(b.plaintext_correct for b in report.blocks)
    if problems or (
        (sem.compliant or sem.relaxed)
        and not (report.consistent and intent_ok)
    ):
        classification = OUTCOME_INVARIANT_VIOLATION
    elif not report.consistent:
        classification = OUTCOME_DETECTED
    elif not intent_ok:
        classification = OUTCOME_SILENT_CORRUPTION
    else:
        classification = OUTCOME_RECOVERED

    return CampaignCell(
        scheme=scenario.scheme,
        workload=scenario.workload,
        victim=scenario.victim,
        drops=list(scenario.drops),
        compliant=sem.compliant,
        classification=classification,
        relaxed=sem.relaxed,
        bmt_ok=report.bmt_ok,
        consistent=report.consistent,
        intent_ok=intent_ok,
        vacuous=report.vacuous,
        durable_persists=len(persisted_ids),
        total_persists=n,
        persisted=persisted_ids,
        invalidated=invalidated_ids,
        epochs_complete=epochs_complete,
        problems=problems,
        blocks=[
            {
                "block": b.block,
                "plaintext_correct": b.plaintext_correct,
                "mac_ok": b.mac_ok,
                "outcome": report.outcome_row(b.block),
            }
            for b in report.blocks
        ],
    )
