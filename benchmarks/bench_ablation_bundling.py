"""Ablation — how much of Dropbox's small-file win is due to bundling?

DESIGN.md design-choice #1: the paper attributes Dropbox's ×4 advantage on
the 100 × 10 kB workload to its bundling strategy (§4.2, §5.2).  This
ablation re-runs the workload with a Dropbox variant whose bundling is
switched off (everything else — chunking, compression, dedup, servers —
unchanged) and with a Google Drive variant that *gains* bundling and
connection reuse, to isolate the effect.
"""

from __future__ import annotations

import dataclasses

from conftest import attach_rows, run_once

from repro.core.experiments.performance import PerformanceExperiment
from repro.core.workloads import workload_by_name
from repro.services.registry import get_profile, register_service, temporary_services

WORKLOAD = workload_by_name("100x10kB")


def _register_variant(name, base_service, **capability_overrides):
    """Register a service variant with tweaked capabilities/connection policy."""

    def factory():
        profile = get_profile(base_service)
        profile.name = name
        profile.display_name = name
        if capability_overrides:
            profile.capabilities = dataclasses.replace(profile.capabilities, **capability_overrides)
        return profile

    register_service(name, factory)


def test_ablation_bundling(benchmark):
    """Completion time for 100 x 10 kB with bundling toggled on/off."""
    with temporary_services():
        _register_variant("dropbox-nobundle", "dropbox", bundling=False)
        _register_variant("googledrive-bundled", "googledrive", bundling=True)
        experiment = PerformanceExperiment(
            services=["dropbox", "dropbox-nobundle", "googledrive", "googledrive-bundled"],
            workloads=[WORKLOAD],
            repetitions=2,
            pause_between_runs=10.0,
        )
        result = run_once(benchmark, experiment.run)
        attach_rows(benchmark, "ablation_bundling", result.rows())
        completion = {service: values[WORKLOAD.name] for service, values in result.figure_series("completion").items()}

        # Removing bundling costs Dropbox most of its advantage.
        assert completion["dropbox-nobundle"] > 1.5 * completion["dropbox"]
        # Granting Google Drive bundling (and therefore connection reuse)
        # removes most of its per-file connection penalty.
        assert completion["googledrive-bundled"] < 0.5 * completion["googledrive"]
