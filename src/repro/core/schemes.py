"""The evaluated scheme registry (paper Table IV) and its policy table.

Every scheme differs from the others along two axes: the *update
discipline* of its BMT engine (sequential, pipelined, out-of-order,
coalesced, or the unordered strawman) and *what each store persists*
and how crash recovery treats the root.  Both live in one
:class:`SchemePolicy` row per scheme in :data:`SCHEME_TABLE`; the
scoreboards (:func:`repro.core.schedulers.make_scoreboard`), the trace
simulator, the cycle-accurate engine, the crash campaign and the
recovery model all read the row instead of branching on scheme
identity.  Adding a scheme means one enum member plus one row.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Tuple, Union

from repro.persistency.models import PersistencyModel

# BMT engine lane disciplines: one persist at a time walking leaf to
# root; in-order per-level pipelining (PLP 1); no root ordering at all;
# out-of-order within an epoch (PLP 2); and PLP 2 plus LCA coalescing
# (PLP 3).
SEQUENTIAL = "sequential"
PIPELINE = "pipeline"
UNORDERED = "unordered"
OOO = "ooo"
COALESCING = "coalescing"

PATH = "path"
"""Level count: every node of the leaf-to-root update path."""
BELOW_ROOT = "below_root"
"""Level count: the update path minus the root (held on chip)."""
TRIAD_N = "triad_n"
"""Level count: the lowest ``SystemConfig.triad_persist_levels`` path
nodes (Triad-NVM's N)."""

Levels = Union[int, str]


def resolve_levels(spec: Levels, levels: int, triad_levels: int) -> int:
    """Number of path nodes a row's level count names on a tree of
    ``levels`` levels (update paths are ``levels`` nodes long)."""
    if spec == PATH:
        return levels
    if spec == BELOW_ROOT:
        return levels - 1
    if spec == TRIAD_N:
        if triad_levels <= 0:
            raise ValueError("triad_persist_levels must be positive")
        return min(triad_levels, levels)
    return spec


class UpdateScheme(enum.Enum):
    """One of the evaluated secure-NVMM configurations.

    The first six are the paper's Table IV; the rest are the cross-paper
    *scheme zoo*: competing designs from the related work (see
    PAPERS.md) implemented behind the same config/trace interface, so
    they can be compared on the axis the PLP paper assumes away —
    post-crash recovery time (``repro.recovery.rebuild``).
    """

    SECURE_WB = "secure_wb"
    UNORDERED = "unordered"
    SP = "sp"
    PIPELINE = "pipeline"
    O3 = "o3"
    COALESCING = "coalescing"
    SGX_SP = "sgx_sp"
    """Extension (§IV-D): strict persistency over an SGX-style counter
    tree, where every node on the leaf-to-root update path must persist
    — not just the root.  Not part of the paper's Table IV; used by the
    ablation benchmarks to quantify why the paper focuses on the BMT."""
    TRIAD_NVM = "triad_nvm"
    """Triad-NVM (arXiv:1810.09438): selective persistence — the lowest
    N tree levels persist with each store, the upper levels (and the
    root register) are relaxed and rebuilt from the persisted frontier
    at recovery.  Trades Invariant-2 root ordering for bounded recovery
    time."""
    PHOENIX = "phoenix"
    """Phoenix (arXiv:1911.01922): persistently-secure counter tree —
    every counter (BMT leaf) write is persisted through, upper tree
    nodes are cached and lazily restored subtree-by-subtree after a
    crash.  Near-zero upfront recovery, relaxed root ordering."""
    SECPM_WT = "secpm_wt"
    """SecPM (arXiv:1901.00620): write-through counter persistence with
    the WPQ in the persistence domain; keeps both paper invariants, at
    the cost of one serialized counter persist per store."""
    ANUBIS = "anubis"
    """Anubis (arXiv:1912.04726): shadow-metadata fast recovery — every
    metadata-cache update is mirrored into a persisted shadow table, so
    recovery replays only the (cache-sized) shadow region.  Keeps both
    invariants; each tree-level update pays the shadow write."""

    @property
    def policy(self) -> "SchemePolicy":
        """The scheme's row in :data:`SCHEME_TABLE`."""
        return _POLICY[self]

    @property
    def persistency(self) -> PersistencyModel:
        """Persistency model the scheme provides.

        The row's crash model, provided the scheme recovers from a crash
        (both invariants, or a documented relaxation).  secure_WB
        supports no persistency model at all; unordered *claims* strict
        persistency but breaks Invariant 2, so it provides none that is
        crash-recoverable.
        """
        row = self.policy
        if row.compliant or row.relaxed:
            return row.model
        return PersistencyModel.NONE

    @property
    def write_through(self) -> bool:
        """Whether data/metadata caches behave write-through.

        Strict persistency forces write-through behaviour (every store
        is a persist); the unordered strawman mirrors prior work and is
        also write-through.
        """
        return self.policy.model is PersistencyModel.STRICT

    @property
    def crash_recoverable(self) -> bool:
        """Whether the scheme guarantees both paper invariants.

        ``triad_nvm`` and ``phoenix`` are *not* recoverable in this sense
        although they do recover: they relax Invariant 2's root ordering
        and instead rebuild/adopt the root from persisted metadata — the
        documented relaxation tracked by :attr:`relaxes_root_order`.
        """
        return self.policy.compliant

    @property
    def relaxes_root_order(self) -> bool:
        """True for the zoo schemes whose documented relaxation is
        per-persist durability without ordered root updates: recovery
        rebuilds the root from the persisted (MAC-protected) metadata
        instead of trusting the on-chip register."""
        return self.policy.relaxed

    @property
    def persists_whole_path(self) -> bool:
        """True if crash recovery needs the whole update path persisted
        (the SGX counter tree), not just the root."""
        return self.policy.persist_levels == PATH

    @property
    def uses_epochs(self) -> bool:
        return self.persistency is PersistencyModel.EPOCH

    @classmethod
    def from_name(cls, name: str) -> "UpdateScheme":
        """Look up a scheme by its Table IV name (case-insensitive)."""
        try:
            return cls(name.lower())
        except ValueError:
            valid = ", ".join(s.value for s in cls)
            raise ValueError(f"unknown scheme {name!r}; expected one of: {valid}") from None


@dataclass(frozen=True)
class SchemePolicy:
    """One scheme's persist policy: a row of :data:`SCHEME_TABLE`.

    Timing attributes:
        discipline: BMT engine lane discipline: ``"sequential"``,
            ``"pipeline"``, ``"unordered"``, ``"ooo"`` or ``"coalescing"``.
        ack_levels: Sequential engines: path levels (leaf upward) walked
            before the store is acknowledged; :data:`PATH` acks at the
            root, fewer leaves the relaxed upper walk to run on in the
            background (Triad-NVM, Phoenix).
        persist_levels: Sequential engines: path nodes (leaf upward)
            persisted with each store, each a serialized node persist.
        stage_extra: Pipelined engines: cycles each level stage adds on
            top of its node update (Anubis' shadow-table write).
        extra_nvm_writes: NVM writes per persist beyond the
            data/counter/MAC tuple (tree nodes or shadow entries).

    Crash attributes (the functional crash campaign):
        model: Persistency model the campaign memory runs under.
        atomic: 2SP locking — incomplete entries are invalidated
            wholesale at power failure, and the durable-root register
            only commits at entry release.
        ordered_root: Invariant 2 — a persist's root (and, with 2SP,
            its whole tuple) persists only after every older persist's.
        rebuild_root: The scheme's documented Invariant-2 relaxation
            (``triad_nvm``/``phoenix``): recovery does not trust the
            on-chip root register's ordering but re-derives the root
            from the persisted, MAC-protected metadata and adopts it
            before verification.
        recovery: Post-crash recovery procedure
            (:meth:`repro.recovery.rebuild.RecoveryTimeModel.estimate_for_scheme`):
            ``"rebuild"`` (the paper's counter-block tree rebuild),
            ``"triad_frontier"``, ``"lazy_path"``, ``"shadow_replay"``
            or ``"root_check"``.
    """

    scheme: UpdateScheme
    discipline: str
    model: PersistencyModel
    atomic: bool = True
    ordered_root: bool = True
    rebuild_root: bool = False
    ack_levels: Levels = PATH
    persist_levels: Levels = 0
    stage_extra: int = 0
    extra_nvm_writes: Levels = 0
    recovery: str = "rebuild"

    @property
    def persistent(self) -> bool:
        """Whether stores are persists at all (``secure_wb`` provides no
        persistency: its BMT updates ride natural LLC write-backs)."""
        return self.model is not PersistencyModel.NONE

    @property
    def coalesced(self) -> bool:
        """BMT updates coalesce at the LCA within an epoch; a leading
        persist's root ack is delegated to the trailing one."""
        return self.discipline == COALESCING

    @property
    def compliant(self) -> bool:
        """2SP + ordered root updates: both paper invariants hold."""
        return self.persistent and self.atomic and self.ordered_root

    @property
    def relaxed(self) -> bool:
        """Recovers via a documented relaxation instead of Invariant 2."""
        return self.rebuild_root and self.persistent and self.atomic


SCHEME_TABLE: Tuple[SchemePolicy, ...] = (
    # secure_WB updates the BMT sequentially for evicted dirty blocks
    # and guarantees nothing durable.
    SchemePolicy(
        UpdateScheme.SECURE_WB, SEQUENTIAL, PersistencyModel.NONE,
        atomic=False, ordered_root=False,
    ),
    # The strawman *claims* strict persistency (the memory journals every
    # store) but gathers without locking or ordering — Tables I & II.
    SchemePolicy(
        UpdateScheme.UNORDERED, UNORDERED, PersistencyModel.STRICT,
        atomic=False, ordered_root=False,
    ),
    SchemePolicy(UpdateScheme.SP, SEQUENTIAL, PersistencyModel.STRICT),
    SchemePolicy(UpdateScheme.PIPELINE, PIPELINE, PersistencyModel.STRICT),
    SchemePolicy(UpdateScheme.O3, OOO, PersistencyModel.EPOCH),
    SchemePolicy(UpdateScheme.COALESCING, COALESCING, PersistencyModel.EPOCH),
    # The SGX counter tree persists every path node (parent counters key
    # the child MACs); the root itself stays on chip.
    SchemePolicy(
        UpdateScheme.SGX_SP, SEQUENTIAL, PersistencyModel.STRICT,
        persist_levels=PATH, extra_nvm_writes=BELOW_ROOT, recovery="root_check",
    ),
    # The zoo.  triad_nvm and phoenix gather with 2SP locking but relax
    # root ordering: the store acks at its persisted frontier and
    # recovery rebuilds the root from the persisted metadata.
    SchemePolicy(
        UpdateScheme.TRIAD_NVM, SEQUENTIAL, PersistencyModel.STRICT,
        ordered_root=False, rebuild_root=True,
        ack_levels=TRIAD_N, persist_levels=TRIAD_N, extra_nvm_writes=TRIAD_N,
        recovery="triad_frontier",
    ),
    SchemePolicy(
        UpdateScheme.PHOENIX, SEQUENTIAL, PersistencyModel.STRICT,
        ordered_root=False, rebuild_root=True,
        ack_levels=1, persist_levels=1, extra_nvm_writes=1, recovery="lazy_path",
    ),
    # secpm_wt and anubis keep both invariants.  SecPM's counter persist
    # is the tuple's own counter write; Anubis writes one shadow entry.
    SchemePolicy(
        UpdateScheme.SECPM_WT, SEQUENTIAL, PersistencyModel.STRICT, persist_levels=1
    ),
    SchemePolicy(
        UpdateScheme.ANUBIS, PIPELINE, PersistencyModel.STRICT,
        stage_extra=4, extra_nvm_writes=1, recovery="shadow_replay",
    ),
)
"""One row per :class:`UpdateScheme`, in enum order."""

_POLICY: Dict[UpdateScheme, SchemePolicy] = {row.scheme: row for row in SCHEME_TABLE}
