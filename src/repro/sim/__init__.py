"""Simulation support shared by the timing models.

:mod:`repro.sim.stats` is the statistics registry (plus the
geometric-mean helper the figures use); :mod:`repro.sim.engine` holds
the :class:`~repro.sim.engine.CompletionHeap` the cycle-accurate update
engine advances its clock with; :mod:`repro.sim.batched` and
:mod:`repro.sim.stream` are the array-native timing engine over
materialized and chunked traces.  The heavy lifting (caches, BMT
update engines, the write pending queue) lives in the other
subpackages and is driven analytically through the scoreboard models
in :mod:`repro.core.schedulers`.
"""

from repro.sim.stats import Counter, Histogram, StatsRegistry

__all__ = ["Counter", "Histogram", "StatsRegistry"]
