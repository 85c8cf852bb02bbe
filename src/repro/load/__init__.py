"""Open-workload population engine: arrivals, contention, tail metrics.

``repro.load`` answers the question the single-client stages cannot:
not "which service is fastest for one client" but "which service
survives a population".  An open arrival process
(:mod:`~repro.load.arrivals`) feeds sessions through a FIFO service
edge (:mod:`~repro.load.edge`) onto a shared link (:mod:`~repro.load.contention`)
whose capacity is split in fair shares on a tick lattice; the fluid engine
(:mod:`~repro.load.population`) turns 10^4–10^6 such sessions into
per-session completion times, queue waits and goodput in seconds, and
:mod:`~repro.load.metrics` reduces them to deterministic tail quantiles
(p95/p99/p999), Jain fairness and saturation ratios.

The campaign surface is the ``load`` stage: units are population sizes
(``1k``/``10k``/``100k``/``1M``), parameters live on ``CampaignConfig``
(and therefore in every cache key), and cells shard, sweep, resume and
merge byte-identically like the rest of the suite.
"""

from repro.load.arrivals import ARRIVAL_KINDS, arrival_times, diurnal_times, poisson_times
from repro.load.contention import DEFAULT_TICK, SharedLink
from repro.load.edge import ServiceEdge
from repro.load.metrics import TailSummary, jain_index
from repro.load.population import (
    HANDSHAKE_RTTS,
    AccessLane,
    LoadCellSummary,
    LoadParameters,
    LoadResult,
    LoadStageResult,
    lane_for,
    reduce_load,
    run_load_cell,
    simulate_population,
)

__all__ = [
    "ARRIVAL_KINDS",
    "DEFAULT_TICK",
    "HANDSHAKE_RTTS",
    "AccessLane",
    "LoadCellSummary",
    "LoadParameters",
    "LoadResult",
    "LoadStageResult",
    "ServiceEdge",
    "SharedLink",
    "TailSummary",
    "arrival_times",
    "diurnal_times",
    "jain_index",
    "lane_for",
    "poisson_times",
    "reduce_load",
    "run_load_cell",
    "simulate_population",
]
