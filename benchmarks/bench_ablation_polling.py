"""Ablation — Cloud Drive's per-poll connections vs. a persistent channel.

DESIGN.md design-choice #4: the paper calls Cloud Drive's 15-second polling
over fresh HTTPS connections "a bad implementation that will be fixed in
next releases" (§3.1).  This ablation quantifies the claim: the same polling
interval over a persistent notification channel cuts the idle footprint by
more than an order of magnitude.
"""

from __future__ import annotations

import dataclasses

from conftest import attach_rows, run_once

from repro.core.experiments.idle import IdleExperiment
from repro.services.registry import get_profile, register_service, temporary_services
from repro.units import minutes


def _register_persistent_clouddrive():
    def factory():
        profile = get_profile("clouddrive")
        profile.name = "clouddrive-persistent"
        profile.display_name = "Cloud Drive (persistent poll channel)"
        profile.polling = dataclasses.replace(
            profile.polling, new_connection_per_poll=False, request_bytes=300, response_bytes=400
        )
        return profile

    register_service("clouddrive-persistent", factory)


def test_ablation_polling_connection_reuse(benchmark):
    """Same 15 s polling interval, with and without a fresh HTTPS connection per poll."""
    with temporary_services():
        _register_persistent_clouddrive()
        experiment = IdleExperiment(["clouddrive", "clouddrive-persistent"], duration=minutes(16))
        result = run_once(benchmark, experiment.run)
        attach_rows(benchmark, "ablation_polling", result.rows())
        wasteful = result.services["clouddrive"]
        fixed = result.services["clouddrive-persistent"]
        assert wasteful.background_rate_bps > 8 * fixed.background_rate_bps
        assert fixed.connections_opened < wasteful.connections_opened / 10
