"""Silhouette-style crash-plan generation with mechanism pruning.

The exhaustive app crash space for one (scheme, idiom, workload) triple
is ``1 + 16 * n`` cells: the trailing boundary plus every journaled
persist as victim x every subset of its ``(C, γ, M, R)`` tuple.  Most
of those cells cannot change what the application recovers:

* Under 2SP (every ``atomic`` scheme row) a WPQ entry is released only
  when its whole tuple has arrived, so what survives a crash is fixed
  by one number: how many journal persists are complete.  Under an
  ordered root that is a journal *prefix* ``k``; relaxed-root rows
  (``triad_nvm``, ``phoenix``) may release a non-prefix set, but the
  count still decides the class.  All 16 drop subsets of a victim
  collapse onto at most a few distinct counts.
* Within one count, what recovery returns is decided by the idiom's
  *mechanism* at the first missing persist: which operation is in
  flight, the persist's protocol role (``snap_slot`` vs the
  ``snap_ptr`` commit point; ``log_rec``/``log_head``/``slot_write``
  vs ``log_commit``), and how many commits landed before it.  Two
  crash points with the same (op, role, commits-before) signature
  recover identically.

The pruner therefore computes each exhaustive cell's durable count in
*closed form* — one crypto replay to journal the workload, the
coalescing delegate map once per plan set, then an O(n) integer walk
per cell (:func:`durable_count`): no WPQ, no encryption, no recovery —
groups cells by equivalence class, and emits one representative plan
per class.  For non-atomic schemes (the opt-in ``unordered`` strawman)
the count argument does not hold, so each cell drives a real WPQ
(:func:`~repro.campaign.engine.drive_wpq`) and classes degrade to the
exact durable-damage signature: only genuinely identical outcomes
merge.  Representatives still run ``drive_wpq`` inside
:func:`~repro.campaign.app_engine.run_app_scenario`, so its tuple and
ordered-release checks are kept on every executed plan.

:func:`crosscheck_pruning` is the soundness instrument: it *runs* every
exhaustive cell through the real engine and verifies each one classifies
identically to its class representative — in particular, that no
mismatch-producing plan was pruned away — and that the closed-form
count equals the executed cell's WPQ-driven count.  The property test
in ``tests/test_app_campaign.py`` hammers this on hypothesis-generated
workloads; the bench gate and ``plp-repro app-campaign --exhaustive``
run it on the ``smoke`` trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, List, Optional, Sequence, Tuple

from repro.app.kvstore import COMMIT_ROLES, lower, replay_app
from repro.app.workloads import resolve_workload
from repro.campaign.app_engine import (
    AppScenario,
    PersistInfo,
    persist_map,
    run_app_scenario,
)
from repro.campaign.engine import build_injector, drive_wpq, root_delegates
from repro.campaign.grid import DROP_SUBSETS, build_memory, semantics_for
from repro.core.schemes import SchemePolicy
from repro.mem.wpq import TupleItem

_GATHER_ITEMS = frozenset({TupleItem.DATA, TupleItem.COUNTER, TupleItem.MAC})


@dataclass(frozen=True)
class CrashPlan:
    """One emitted crash plan: a representative of its equivalence class."""

    scheme: str
    idiom: str
    workload: str
    victim: int
    drops: Tuple[str, ...]
    class_key: str
    represented: int
    """How many exhaustive cells this plan stands for (including itself)."""

    @property
    def scenario(self) -> AppScenario:
        return AppScenario(
            self.scheme, self.idiom, self.workload, self.victim, self.drops
        )


@dataclass(frozen=True)
class PlanSet:
    """The pruned crash-plan set for one (scheme, idiom, workload)."""

    scheme: str
    idiom: str
    workload: str
    total_persists: int
    exhaustive_cells: int
    plans: Tuple[CrashPlan, ...]

    @property
    def skipped_cells(self) -> int:
        """Exhaustive cells the pruner proved redundant and skipped."""
        return self.exhaustive_cells - len(self.plans)

    @property
    def prune_ratio(self) -> float:
        """Fraction of the exhaustive space skipped (0.0 when empty)."""
        if not self.exhaustive_cells:
            return 0.0
        return self.skipped_cells / self.exhaustive_cells

    def as_dict(self) -> Dict:
        return {
            "scheme": self.scheme,
            "idiom": self.idiom,
            "workload": self.workload,
            "total_persists": self.total_persists,
            "exhaustive_cells": self.exhaustive_cells,
            "emitted_plans": len(self.plans),
            "skipped_cells": self.skipped_cells,
            "prune_ratio": self.prune_ratio,
        }


def exhaustive_cells(
    n: int, subsets: Sequence[Tuple[str, ...]]
) -> List[Tuple[int, Tuple[str, ...]]]:
    """The full crash space: boundary + every victim x drop subset."""
    cells: List[Tuple[int, Tuple[str, ...]]] = [(-1, ())]
    for victim in range(n):
        for subset in subsets:
            cells.append((victim, tuple(subset)))
    return cells


def durable_count(
    sem: SchemePolicy,
    resolve: Sequence[int],
    victim: int,
    drops: AbstractSet[TupleItem],
) -> int:
    """How many persists an ``atomic`` row releases at the crash.

    The closed form of ``len(drive_wpq(...).persisted_ids)``: a locked
    entry is released only when its whole tuple arrived, so persist
    ``p`` survives iff it was issued (``p <= victim``; every persist at
    the boundary ``victim == -1``), its gather was not dropped, and the
    root work of ``resolve[p]`` (:func:`~repro.campaign.engine.root_delegates`)
    finished.  Under an ordered root (Invariant 2) ``p``'s ack also
    needs ``p - 1``'s, so the first unacked persist ends the count.
    """
    if not sem.atomic:
        raise ValueError("durable_count needs an atomic (2SP) scheme row")
    last = len(resolve) - 1 if victim == -1 else victim
    gather_ok = _GATHER_ITEMS.isdisjoint(drops)
    root_ok = TupleItem.ROOT_ACK not in drops
    count = 0
    for p in range(last + 1):
        q = resolve[p]
        acked = q <= last and (q != victim or root_ok)
        if not acked:
            if sem.ordered_root:
                break
            continue
        if p != victim or gather_ok:
            count += 1
    return count


def _count_class_keys(pmap: Sequence[PersistInfo]) -> List[str]:
    """Class key of every durable count ``k`` in ``0..n``: the mechanism
    signature ``op{i}:{role}:c{commits}`` of the first missing persist,
    or ``end`` when all ``n`` survive."""
    keys = []
    commits = 0
    for info in pmap:
        keys.append(f"op{info.app_index}:{info.role}:c{commits}")
        if info.role in COMMIT_ROLES:
            commits += 1
    keys.append("end")
    return keys


def _damage_signature(n: int, injector) -> str:
    """Exact durable-damage signature (non-atomic fallback).

    Two cells merge only when the crash injector they imply is
    identical — the recovered image is a deterministic function of it.
    """
    parts = []
    for pid in range(n):
        dropped = injector.dropped_items(pid)
        if dropped:
            parts.append((pid, tuple(sorted(item.value for item in dropped))))
    return f"sig:{parts!r}"


@dataclass
class _Classified:
    """Every exhaustive cell of one plan set with its class key (and,
    under an atomic row, its closed-form durable count)."""

    workload: str
    total_persists: int
    cells: List[Tuple[int, Tuple[str, ...]]]
    keys: List[str]
    counts: Optional[List[int]]


def _classify(
    scheme: str,
    idiom: str,
    wl,
    subsets: Optional[Sequence[Tuple[str, ...]]],
) -> _Classified:
    """Journal the workload once and key every exhaustive cell."""
    sem = semantics_for(scheme)
    if not sem.persistent:
        raise ValueError(f"scheme {scheme!r} journals nothing; no crash plans")
    trace = lower(idiom, wl)
    mem = build_memory(sem)
    replay_app(mem, trace)
    journal = mem.journal
    n = len(journal)
    subset_list = list(subsets) if subsets is not None else list(DROP_SUBSETS)
    cells = exhaustive_cells(n, subset_list)

    if sem.atomic:
        resolve = root_delegates(sem, journal, mem.geometry)
        counts = [
            durable_count(sem, resolve, victim, {TupleItem(v) for v in drops})
            for victim, drops in cells
        ]
        by_count = _count_class_keys(persist_map(sem, trace))
        return _Classified(wl.name, n, cells, [by_count[k] for k in counts], counts)
    keys = []
    for victim, drops in cells:
        drop_items = {TupleItem(value) for value in drops}
        outcome = drive_wpq(sem, journal, victim, drop_items, mem.geometry)
        keys.append(_damage_signature(n, build_injector(sem, outcome)))
    return _Classified(wl.name, n, cells, keys, None)


def generate_plans(
    scheme: str,
    idiom: str,
    workload,
    subsets: Optional[Sequence[Tuple[str, ...]]] = None,
) -> PlanSet:
    """Prune the exhaustive crash space down to one plan per class.

    Args:
        scheme: Campaign scheme name.
        idiom: ``"snapshot"`` or ``"undolog"``.
        workload: Roster name or an :class:`~repro.app.kvstore.AppWorkload`.
        subsets: Drop subsets per victim (default: all 16).

    Returns:
        A :class:`PlanSet` whose plans are the first exhaustive cell of
        each equivalence class, in enumeration order, each annotated
        with how many cells it represents.
    """
    classified = _classify(scheme, idiom, resolve_workload(workload), subsets)
    classes: Dict[str, List[Tuple[int, Tuple[str, ...]]]] = {}
    for cell, key in zip(classified.cells, classified.keys):
        classes.setdefault(key, []).append(cell)
    plans = tuple(
        CrashPlan(
            scheme=scheme,
            idiom=idiom,
            workload=classified.workload,
            victim=members[0][0],
            drops=members[0][1],
            class_key=key,
            represented=len(members),
        )
        for key, members in classes.items()
    )
    return PlanSet(
        scheme=scheme,
        idiom=idiom,
        workload=classified.workload,
        total_persists=classified.total_persists,
        exhaustive_cells=len(classified.cells),
        plans=plans,
    )


def crosscheck_pruning(
    scheme: str,
    idiom: str,
    workload,
    subsets: Optional[Sequence[Tuple[str, ...]]] = None,
) -> Dict:
    """Prove pruning soundness by running the whole exhaustive space.

    Every exhaustive cell is run through the real crash/recovery engine
    and compared against its class representative's classification.  A
    sound pruner produces zero disagreements — in particular, zero
    mismatch-producing plans hiding in a class whose representative
    classified clean.  Under an atomic row each cell's closed-form
    :func:`durable_count` must also equal the count the executed cell's
    real WPQ drive released (its ``durable_persists``).

    Returns:
        A dict with ``cells``, ``plans``, ``skipped``, ``agree``,
        ``missed_mismatches``, the per-cell ``disagreements`` list and
        the per-cell ``count_disagreements`` list (both empty when
        sound).
    """
    wl = resolve_workload(workload)
    classified = _classify(scheme, idiom, wl, subsets)

    # Cells run in enumeration order, so each class's first cell — its
    # representative — runs before every cell it stands for.
    rep_class: Dict[str, str] = {}
    disagreements: List[Dict] = []
    count_disagreements: List[Dict] = []
    missed_mismatches = 0
    for index, ((victim, drops), key) in enumerate(
        zip(classified.cells, classified.keys)
    ):
        scenario = AppScenario(scheme, idiom, wl.name, victim, drops)
        cell = run_app_scenario(scenario, workload=wl)
        if classified.counts is not None:
            closed_form = classified.counts[index]
            if closed_form != cell.durable_persists:
                count_disagreements.append(
                    {
                        "victim": victim,
                        "drops": list(drops),
                        "closed_form": closed_form,
                        "driven": cell.durable_persists,
                    }
                )
        expected = rep_class.setdefault(key, cell.classification)
        if cell.classification != expected:
            disagreements.append(
                {
                    "victim": victim,
                    "drops": list(drops),
                    "class_key": key,
                    "expected": expected,
                    "actual": cell.classification,
                }
            )
            if cell.classification == "mismatch":
                missed_mismatches += 1
    cells = len(classified.cells)
    plans = len(rep_class)
    return {
        "scheme": scheme,
        "idiom": idiom,
        "workload": wl.name,
        "cells": cells,
        "plans": plans,
        "skipped": cells - plans,
        "prune_ratio": (cells - plans) / cells if cells else 0.0,
        "agree": not disagreements and not count_disagreements,
        "missed_mismatches": missed_mismatches,
        "disagreements": disagreements,
        "count_disagreements": count_disagreements,
    }
