"""Post-crash recovery-time estimation.

Recovering a secure NVMM means re-establishing the BMT: read the
persisted counter blocks, recompute the tree, and compare the root
against the on-chip register.  The paper assumes this procedure
(§III: "Recovering from a crash requires recomputing the BMT root and
validating it against the stored root") but does not evaluate its
latency; related work (Triad-NVM, Anubis) shows it dominates recovery.

This model estimates recovery time for two strategies:

* **full** — rebuild the whole tree from every counter block (no extra
  metadata, longest recovery);
* **touched** — rebuild only the subtrees of pages that were ever
  written (requires a persisted touched-page map, e.g. allocation
  bitmaps; sparse workloads recover much faster).

On top of those, :meth:`RecoveryTimeModel.estimate_for_scheme` maps
each :class:`~repro.core.schemes.UpdateScheme` to what its persisted
metadata leaves to rebuild — the recovery procedure named in its policy
row (``SchemePolicy.recovery``) — the cross-paper recovery-latency axis
the scheme zoo exists to compare (see PAPERS.md).

Costs: one NVM block read per counter block fetched, one MAC-unit pass
per recomputed node, with a configurable number of parallel MAC units.

Touched *pages* are 4 KB regions of protected memory, not BMT leaves:
one page covers ``leaves_per_page`` counter-block leaves (1 under the
split counter organization, 8 under monolithic), so the model must
expand pages to leaf labels before walking ancestor paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Set

from repro.core.schemes import UpdateScheme, resolve_levels
from repro.crypto.bmt import BMTGeometry, BonsaiMerkleTree

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.system.config import SystemConfig

STRATEGIES = ("full", "touched")


@dataclass
class RecoveryEstimate:
    """Breakdown of an estimated recovery."""

    strategy: str
    counter_blocks_read: int
    nodes_recomputed: int
    read_cycles: int
    hash_cycles: int

    @property
    def total_cycles(self) -> int:
        # Reads and hashing pipeline against each other; the longer
        # stream dominates, the shorter adds only its ramp.
        return max(self.read_cycles, self.hash_cycles) + min(
            self.read_cycles, self.hash_cycles
        ) // 8

    def total_seconds(self, clock_ghz: float = 4.0) -> float:
        return self.total_cycles / (clock_ghz * 1e9)


class RecoveryTimeModel:
    """Estimates BMT reconstruction latency after a crash."""

    def __init__(
        self,
        geometry: BMTGeometry,
        mac_latency: int = 40,
        nvm_read_cycles: int = 240,
        read_bandwidth_cycles: int = 8,
        hash_units: int = 4,
        leaves_per_page: int = 1,
    ) -> None:
        """Create a model.

        Args:
            geometry: Tree shape.
            mac_latency: Cycles per node hash.
            nvm_read_cycles: Latency of one counter-block read.
            read_bandwidth_cycles: Channel occupancy per block read
                (streams of reads are bandwidth-bound, not latency-bound).
            hash_units: Parallel MAC units available to the rebuild.
            leaves_per_page: Counter-block leaves covering one touched
                page (``SystemConfig.leaves_per_page``: 1 split,
                8 monolithic).
        """
        if hash_units <= 0:
            raise ValueError("hash_units must be positive")
        if leaves_per_page <= 0:
            raise ValueError("leaves_per_page must be positive")
        self.geometry = geometry
        self.mac_latency = mac_latency
        self.nvm_read_cycles = nvm_read_cycles
        self.read_bandwidth_cycles = read_bandwidth_cycles
        self.hash_units = hash_units
        self.leaves_per_page = leaves_per_page

    @classmethod
    def from_config(cls, config: "SystemConfig", **overrides) -> "RecoveryTimeModel":
        """Build a model matching a :class:`SystemConfig`.

        Picks up the geometry, MAC latency, NVM read latency, and —
        crucially — the counter organization's page→leaf fan-out, so
        touched-page estimates count monolithic leaves correctly.
        """
        params = dict(
            mac_latency=config.mac_latency,
            nvm_read_cycles=config.nvm.read_latency,
            leaves_per_page=config.leaves_per_page,
        )
        params.update(overrides)
        return cls(config.geometry(), **params)

    # ------------------------------------------------------------------
    # node counting
    # ------------------------------------------------------------------

    def touched_leaves(self, touched_pages: Iterable[int]) -> Set[int]:
        """Expand touched page indices to BMT leaf indices.

        A page covers ``leaves_per_page`` consecutive counter-block
        leaves; under the split organization the mapping is identity,
        under monolithic each page fans out to 8 leaves.  Pages beyond
        the tree's coverage clamp to no leaves.
        """
        per = self.leaves_per_page
        num_leaves = self.geometry.num_leaves
        leaves: Set[int] = set()
        for page in touched_pages:
            base = page * per
            for leaf in range(base, base + per):
                if 0 <= leaf < num_leaves:
                    leaves.add(leaf)
        return leaves

    def full_rebuild_nodes(self) -> int:
        """Nodes recomputed by a whole-tree rebuild."""
        return sum(
            self.geometry.nodes_at_level(level)
            for level in range(self.geometry.levels)
        )

    def touched_rebuild_nodes(self, touched_pages: Iterable[int]) -> int:
        """Nodes recomputed when only touched subtrees are rebuilt.

        Every leaf of every touched page is rehashed, then each
        distinct ancestor once.
        """
        labels: Set[int] = set()
        for leaf in self.touched_leaves(touched_pages):
            labels.update(self.geometry.update_path(leaf))
        return len(labels)

    # ------------------------------------------------------------------
    # estimates
    # ------------------------------------------------------------------

    def estimate(
        self,
        strategy: str = "full",
        touched_pages: Optional[Iterable[int]] = None,
    ) -> RecoveryEstimate:
        """Estimate recovery latency.

        Args:
            strategy: ``"full"`` or ``"touched"``.
            touched_pages: Required for the ``touched`` strategy.

        Returns:
            A :class:`RecoveryEstimate`.
        """
        if strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}")
        if strategy == "full":
            reads = self.geometry.num_leaves
            nodes = self.full_rebuild_nodes()
        else:
            if touched_pages is None:
                raise ValueError("touched strategy requires touched_pages")
            leaves = self.touched_leaves(touched_pages)
            reads = len(leaves)
            nodes = self.touched_rebuild_nodes(touched_pages)
        return self._estimate_from_counts(strategy, reads, nodes)

    def _estimate_from_counts(
        self, strategy: str, reads: int, nodes: int
    ) -> RecoveryEstimate:
        read_cycles = self.nvm_read_cycles + reads * self.read_bandwidth_cycles
        hash_cycles = math.ceil(nodes / self.hash_units) * self.mac_latency
        return RecoveryEstimate(
            strategy=strategy,
            counter_blocks_read=reads,
            nodes_recomputed=nodes,
            read_cycles=read_cycles,
            hash_cycles=hash_cycles,
        )

    def estimate_for_scheme(
        self,
        scheme: UpdateScheme,
        touched_pages: Optional[Iterable[int]] = None,
        triad_persist_levels: int = 2,
        shadow_entries: int = 2048,
    ) -> RecoveryEstimate:
        """Estimate recovery latency under a scheme's persisted metadata.

        What a crash leaves durable differs per design, and with it the
        post-crash work:

        * PLP schemes (``sp``/``pipeline``/``o3``/``coalescing``) and
          ``secpm_wt``/``secure_wb``/``unordered`` persist counters but
          no tree interior — recovery is the paper's whole-tree rebuild
          (``touched`` when a touched-page map survives, else ``full``).
        * ``triad_nvm`` persists the lowest N tree levels; only the
          relaxed levels above the frontier are recomputed, and only
          the frontier nodes (not the leaves) are re-read.
        * ``phoenix`` restores lazily: upfront recovery verifies one
          root path, the rest amortizes into execution.
        * ``anubis`` replays the (cache-sized) shadow table: reads and
          rehashes are bounded by ``shadow_entries``, not memory size.
        * ``sgx_sp`` persisted every path node already — recovery reads
          and checks the root block only.
        """
        geometry = self.geometry
        policy = scheme.policy
        recovery = policy.recovery
        if recovery == "triad_frontier":
            persisted = resolve_levels(
                policy.persist_levels, geometry.levels, triad_persist_levels
            )
            # Relaxed interior: every level above the persisted
            # frontier, rebuilt from the frontier level's nodes.
            frontier_level = geometry.levels - 1 - persisted
            if frontier_level < 0:
                return self._estimate_from_counts("triad_frontier", 1, 1)
            reads = geometry.nodes_at_level(frontier_level + 1)
            nodes = sum(
                geometry.nodes_at_level(level)
                for level in range(frontier_level + 1)
            )
            return self._estimate_from_counts("triad_frontier", reads, nodes)
        if recovery == "lazy_path":
            # Lazy restoration: upfront cost is one leaf-to-root path
            # verification; subtree restores overlap execution.
            depth = geometry.levels
            return self._estimate_from_counts("lazy_path", depth, depth)
        if recovery == "shadow_replay":
            if shadow_entries <= 0:
                raise ValueError("shadow_entries must be positive")
            # Shadow-table replay: bounded by the persisted shadow
            # region (metadata-cache sized), one read + rehash per
            # entry plus the ancestor paths of the replayed leaves.
            entries = min(shadow_entries, geometry.num_leaves)
            nodes = entries + geometry.levels - 1
            return self._estimate_from_counts("shadow_replay", entries, nodes)
        if recovery == "root_check":
            # The whole path persisted with each store: recovery only
            # validates the stored root.
            return self._estimate_from_counts("root_check", 1, 1)
        if touched_pages is not None:
            return self.estimate("touched", touched_pages)
        return self.estimate("full")

    def measure(
        self,
        mem,
        scheme: Optional[UpdateScheme] = None,
        triad_persist_levels: int = 2,
        shadow_entries: int = 2048,
    ) -> "MeasuredRecovery":
        """Convenience wrapper: :func:`measure_recovery` with this model."""
        return measure_recovery(
            mem,
            model=self,
            scheme=scheme,
            triad_persist_levels=triad_persist_levels,
            shadow_entries=shadow_entries,
        )

    def speedup_touched_vs_full(self, touched_pages: Iterable[int]) -> float:
        """How much faster touched-only recovery is for a workload.

        An empty touched set recovers "instantly" (nothing to rebuild
        beyond the first read's latency), reported as the full/touched
        ratio of total cycles — never a division by zero, since the
        fixed ``nvm_read_cycles`` term keeps both totals positive.
        """
        full = self.estimate("full")
        touched = self.estimate("touched", touched_pages)
        if touched.total_cycles == 0:
            return float("inf")
        return full.total_cycles / touched.total_cycles


# ----------------------------------------------------------------------
# measured recovery: the replay the analytic model predicts
# ----------------------------------------------------------------------


@dataclass
class MeasuredRecovery:
    """A recovery actually executed against a durable image.

    Where :meth:`RecoveryTimeModel.estimate_for_scheme` *predicts* how
    many counter blocks a recovery reads and how many tree nodes it
    rehashes, this records how many a real replay on the functional
    memory's NVM image performed — with the recomputed root checked
    against the persistent on-chip register, so the counted work is the
    work of a recovery that demonstrably succeeded.
    """

    strategy: str
    counter_blocks_read: int
    nodes_recomputed: int
    root_ok: bool
    estimate: RecoveryEstimate
    """Timing of the measured counts under the same cost model."""


class _CountingTree(BonsaiMerkleTree):
    """A functional BMT that counts every hash it computes."""

    def __init__(self, geometry: BMTGeometry, keys) -> None:
        self.hash_count = 0
        super().__init__(geometry, keys)
        # The per-level default hashes are precomputed constants, not
        # recovery work.
        self.hash_count = 0

    def _hash_leaf(self, counter_block: bytes) -> bytes:
        self.hash_count += 1
        return super()._hash_leaf(counter_block)

    def _hash_children(self, child_hashes) -> bytes:
        self.hash_count += 1
        return super()._hash_children(child_hashes)


def measure_recovery(
    mem,
    model: Optional[RecoveryTimeModel] = None,
    scheme: Optional[UpdateScheme] = None,
    triad_persist_levels: int = 2,
    shadow_entries: int = 2048,
) -> MeasuredRecovery:
    """Execute (and count) a real recovery on a functional memory image.

    Args:
        mem: A :class:`~repro.system.secure_memory.FunctionalSecureMemory`
            (or anything exposing ``geometry``, ``keys``, ``nvm``, and
            ``durable_root``), typically post-crash.
        model: Cost model used to turn the measured counts into cycles
            (default: a :class:`RecoveryTimeModel` over ``mem.geometry``).
        scheme: Replay the recovery procedure of this scheme's persisted
            metadata (see :meth:`RecoveryTimeModel.estimate_for_scheme`);
            ``None`` runs the paper's counter-block rebuild.
        triad_persist_levels: Persisted-frontier depth for Triad-NVM.
        shadow_entries: Shadow-table capacity for Anubis.

    Returns:
        A :class:`MeasuredRecovery` with exact read/hash counts and the
        root-validation verdict.

    The measured replay works on the *sparse* durable image: untouched
    subtrees hash to precomputed defaults and cost nothing, so schemes
    whose analytic estimate assumes dense levels (Triad-NVM's frontier,
    Anubis' cache-sized shadow region) measure below their estimates on
    small workloads — the regression test in ``tests/test_rebuild.py``
    documents the per-scheme tolerance.
    """
    geometry: BMTGeometry = mem.geometry
    model = model or RecoveryTimeModel(geometry)
    counters: Dict[int, bytes] = dict(mem.nvm.counters)
    durable = mem.durable_root.value
    recovery = scheme.policy.recovery if scheme is not None else "rebuild"

    if recovery == "root_check":
        # Every path node persisted in place: recovery reads the stored
        # root block and compares it to the on-chip register — no
        # recomputation at all.
        reference = BonsaiMerkleTree(geometry, mem.keys)
        reference.rebuild_from_counters(counters)
        return MeasuredRecovery(
            strategy="root_check",
            counter_blocks_read=1,
            nodes_recomputed=0,
            root_ok=reference.root == durable,
            estimate=model._estimate_from_counts("root_check", 1, 0),
        )

    if recovery == "triad_frontier":
        persisted = resolve_levels(
            scheme.policy.persist_levels, geometry.levels, triad_persist_levels
        )
        frontier_level = geometry.levels - 1 - persisted
        # What Triad-NVM left durable: the tree levels at and below the
        # frontier, reconstructed here from the counter blocks (in
        # hardware they were persisted eagerly, so this rebuild is not
        # counted as recovery work).
        reference = BonsaiMerkleTree(geometry, mem.keys)
        reference.rebuild_from_counters(counters)
        if frontier_level < 0:
            return MeasuredRecovery(
                strategy="triad_frontier",
                counter_blocks_read=1,
                nodes_recomputed=0,
                root_ok=reference.root == durable,
                estimate=model._estimate_from_counts("triad_frontier", 1, 0),
            )
        tree = _CountingTree(geometry, mem.keys)
        frontier_nodes = [
            label
            for label in reference.snapshot()
            if geometry.level_of(label) == frontier_level + 1
        ]
        for label in frontier_nodes:
            tree.set_node_hash(label, reference.node_hash(label))
        reads = len(frontier_nodes)
        dirty = {geometry.parent(label) for label in frontier_nodes}
        for level in range(frontier_level, -1, -1):
            next_dirty = set()
            for label in sorted(dirty):
                tree.set_node_hash(
                    label,
                    tree._hash_children(
                        [tree.node_hash(child) for child in geometry.children(label)]
                    ),
                )
                if label != geometry.ROOT_LABEL:
                    next_dirty.add(geometry.parent(label))
            dirty = next_dirty
        return MeasuredRecovery(
            strategy="triad_frontier",
            counter_blocks_read=reads,
            nodes_recomputed=tree.hash_count,
            root_ok=tree.root == durable,
            estimate=model._estimate_from_counts(
                "triad_frontier", reads, tree.hash_count
            ),
        )

    if recovery == "lazy_path":
        # Lazy restoration's upfront cost: verify one leaf-to-root path
        # against the on-chip register; everything else overlaps
        # execution.  Sibling hashes come from the persisted metadata
        # image (reconstructed reference tree).
        reference = BonsaiMerkleTree(geometry, mem.keys)
        reference.rebuild_from_counters(counters)
        leaf = min(counters) if counters else 0
        tree = _CountingTree(geometry, mem.keys)
        current = tree._hash_leaf(counters.get(leaf, bytes(64)))
        label = geometry.leaf_label(leaf)
        reads = 1
        while label != geometry.ROOT_LABEL:
            parent = geometry.parent(label)
            siblings = [
                current if child == label else reference.node_hash(child)
                for child in geometry.children(parent)
            ]
            current = tree._hash_children(siblings)
            reads += 1
            label = parent
        return MeasuredRecovery(
            strategy="lazy_path",
            counter_blocks_read=reads,
            nodes_recomputed=tree.hash_count,
            root_ok=current == durable,
            estimate=model._estimate_from_counts(
                "lazy_path", reads, tree.hash_count
            ),
        )

    if recovery == "shadow_replay":
        if shadow_entries <= 0:
            raise ValueError("shadow_entries must be positive")
        # Shadow-table replay: the shadow region records which metadata
        # lines were dirty — on the functional image, exactly the
        # touched counter pages (bounded by the table's capacity).
        entries = sorted(counters)[:shadow_entries]
        tree = _CountingTree(geometry, mem.keys)
        tree.rebuild_from_counters({page: counters[page] for page in entries})
        return MeasuredRecovery(
            strategy="shadow_replay",
            counter_blocks_read=len(entries),
            nodes_recomputed=tree.hash_count,
            root_ok=tree.root == durable and len(entries) == len(counters),
            estimate=model._estimate_from_counts(
                "shadow_replay", len(entries), tree.hash_count
            ),
        )

    # Default: the paper's counter-block rebuild, restricted to what is
    # actually durable (the measured twin of the "touched" strategy).
    tree = _CountingTree(geometry, mem.keys)
    tree.rebuild_from_counters(counters)
    return MeasuredRecovery(
        strategy="touched",
        counter_blocks_read=len(counters),
        nodes_recomputed=tree.hash_count,
        root_ok=tree.root == durable,
        estimate=model._estimate_from_counts(
            "touched", len(counters), tree.hash_count
        ),
    )
