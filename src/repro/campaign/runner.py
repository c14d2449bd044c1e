"""Parallel, cached execution of the campaign grid.

Cells fan out through the generic sweep engine
(:func:`repro.sweep.runner.run_tasks`): identical scenarios are
deduplicated, cached cells are loaded from the content-addressed
:class:`CampaignCache` (keyed by scenario + campaign format + code
version), and the rest run across a fork-based process pool.  Cells are
plain-JSON dataclasses, so parallel results are bit-identical to a
sequential run, cold or warm.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.campaign.app_engine import (
    AppCampaignCell,
    AppScenario,
    app_scenario_key,
    run_app_scenario,
)
from repro.campaign.engine import CampaignCell, run_scenario
from repro.campaign.grid import Scenario, scenario_key
from repro.sweep.cache import JSONCache, caching_disabled, code_version
from repro.sweep.runner import SweepReport, run_tasks


def default_campaign_cache_root() -> Path:
    env = os.environ.get("PLP_CAMPAIGN_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "plp-repro" / "campaign"


class CampaignCache(JSONCache):
    """Content-addressed store of :class:`CampaignCell` payloads."""

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        super().__init__(root if root is not None else default_campaign_cache_root())

    def _encode(self, value: CampaignCell) -> Dict:
        # Cells hold JSON primitives only, so the field dict encodes as
        # is; ``asdict`` would deep-copy every nested list first.
        return vars(value)

    def _decode(self, payload: Dict) -> CampaignCell:
        return CampaignCell(**payload)


def run_campaign(
    scenarios: Sequence[Scenario],
    workers: Optional[int] = None,
    cache: Union[CampaignCache, str, bool, None] = True,
) -> Tuple[List[CampaignCell], SweepReport]:
    """Run every scenario, in parallel, through the campaign cache.

    Args:
        scenarios: Grid cells, in output order.
        workers: Process count (``None``: ``PLP_SWEEP_JOBS`` or CPU
            count; ``1`` runs inline).
        cache: ``True`` for the default on-disk cache, ``False``/``None``
            to disable, or a :class:`CampaignCache`/path.
            ``PLP_NO_RESULT_CACHE=1`` forces caching off.

    Returns:
        ``(cells, report)`` with ``cells[i]`` the classified outcome of
        ``scenarios[i]`` — bit-identical to a sequential run.
    """
    cell_cache: Optional[CampaignCache] = None
    if not caching_disabled():
        if isinstance(cache, CampaignCache):
            cell_cache = cache
        elif cache is True:
            cell_cache = CampaignCache()
        elif isinstance(cache, (str, os.PathLike)):
            cell_cache = CampaignCache(cache)

    code = code_version()
    keys = [scenario_key(scenario, code) for scenario in scenarios]
    return run_tasks(
        list(scenarios), keys, run_scenario, workers=workers, cache=cell_cache
    )


class AppCampaignCache(JSONCache):
    """Content-addressed store of :class:`AppCampaignCell` payloads.

    Lives in an ``app/`` subdirectory of the campaign cache root so the
    two cell shapes never share a store.
    """

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        super().__init__(
            root if root is not None else default_campaign_cache_root() / "app"
        )

    def _encode(self, value: AppCampaignCell) -> Dict:
        return vars(value)

    def _decode(self, payload: Dict) -> AppCampaignCell:
        return AppCampaignCell(**payload)


def run_app_campaign(
    scenarios: Sequence[AppScenario],
    workers: Optional[int] = None,
    cache: Union[AppCampaignCache, str, bool, None] = True,
) -> Tuple[List[AppCampaignCell], SweepReport]:
    """Run app-campaign cells in parallel through the app cell cache.

    Mirrors :func:`run_campaign`; only roster workloads are cacheable
    (dynamic :class:`~repro.app.kvstore.AppWorkload` objects must go
    through :func:`~repro.campaign.app_engine.run_app_scenario`
    directly, as their content is not part of the scenario key).
    """
    cell_cache: Optional[AppCampaignCache] = None
    if not caching_disabled():
        if isinstance(cache, AppCampaignCache):
            cell_cache = cache
        elif cache is True:
            cell_cache = AppCampaignCache()
        elif isinstance(cache, (str, os.PathLike)):
            cell_cache = AppCampaignCache(cache)

    code = code_version()
    keys = [app_scenario_key(scenario, code) for scenario in scenarios]
    return run_tasks(
        list(scenarios), keys, run_app_scenario, workers=workers, cache=cell_cache
    )
