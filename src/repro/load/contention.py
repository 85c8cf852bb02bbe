"""Shared-link bandwidth contention: the link and its allocation tick.

When an open population of client sessions uploads through one shared
link (a campus uplink, a service ingress), each session is limited both
by its own access rate and by its fair share of the common capacity.
All sessions of a load cell ride the same scenario-warped access path,
so the max-min ("water filling") share reduces to
``min(cap, capacity / active)`` — the population engine
(:mod:`repro.load.population`) computes it inline.

:class:`SharedLink` holds the capacity and the tick lattice: rates change
only at tick boundaries, so the engine may jump from one boundary where
the active set changed to the next without evaluating the identical
allocation at every tick in between.

Everything here is a pure function of its arguments — no clocks, no
global randomness — which is what lets load cells cache, shard and merge
byte-identically like every other campaign cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["DEFAULT_TICK", "SharedLink"]

#: Width of one allocation tick in simulated seconds.  A constant, not a
#: campaign knob: it is a discretization parameter of the contention
#: model, and changing it is a model change (bump STORE_SCHEMA_VERSION),
#: not an experiment parameter.
DEFAULT_TICK = 0.01

#: Relative slack when comparing a session's virtual-service tag against
#: the accumulated service: absorbs float accumulation error without ever
#: depending on platform or ordering (the comparison inputs are pure).
TAG_EPSILON = 1e-9


@dataclass(frozen=True)
class SharedLink:
    """One contended link: its capacity and the allocation tick.

    Rates are (re)computed only at tick boundaries; between boundaries
    every active session progresses at its last allocated rate.  A
    session finishing mid-tick frees its share at the *next* boundary —
    that is the tick model, and it is exactly what lets the engine skip
    boundaries where the active set provably did not change.
    """

    capacity_bps: float
    tick_s: float = DEFAULT_TICK

    def quantize_up(self, instant: float) -> float:
        """The first tick boundary at or after ``instant``.

        A tiny downward fuzz keeps an instant that *is* a boundary (up to
        float noise) from being pushed a whole tick late.
        """
        boundary = math.ceil(instant / self.tick_s - TAG_EPSILON)
        return boundary * self.tick_s
