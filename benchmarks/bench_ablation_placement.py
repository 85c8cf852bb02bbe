"""Ablation — data-center placement vs. client capabilities.

DESIGN.md design-choice #2: the paper concludes that for single files the
distance to the data center dominates, while for many small files the client
capabilities do (§5.2, §6).  This ablation moves Dropbox's storage to a
European site (Wuala's Nuremberg data center) and checks where that helps:
a lot for 1 × 1 MB, only marginally for 100 × 10 kB (where bundling and
per-file costs dominate).
"""

from __future__ import annotations

import dataclasses

from conftest import attach_rows, run_once

from repro.core.experiments.performance import PerformanceExperiment
from repro.core.workloads import workload_by_name
from repro.geo.datacenters import provider_datacenters
from repro.services.registry import get_profile, register_service, temporary_services


def _register_eu_dropbox():
    """A Dropbox variant whose storage servers sit in Europe."""

    def factory():
        profile = get_profile("dropbox")
        profile.name = "dropbox-eu"
        profile.display_name = "Dropbox (EU storage)"
        european_site = provider_datacenters("wuala")[0]
        profile.storage_servers = [
            dataclasses.replace(profile.storage_servers[0], datacenter=european_site)
        ]
        return profile

    register_service("dropbox-eu", factory)


def test_ablation_datacenter_placement(benchmark):
    """Move Dropbox's storage next to the testbed and compare both workloads."""
    with temporary_services():
        _register_eu_dropbox()
        experiment = PerformanceExperiment(
            services=["dropbox", "dropbox-eu"],
            workloads=[workload_by_name("1x1MB"), workload_by_name("100x10kB")],
            repetitions=2,
            pause_between_runs=10.0,
        )
        result = run_once(benchmark, experiment.run)
        attach_rows(benchmark, "ablation_placement", result.rows())
        completion = result.figure_series("completion")

        single_gain = completion["dropbox"]["1x1MB"] / completion["dropbox-eu"]["1x1MB"]
        batch_gain = completion["dropbox"]["100x10kB"] / completion["dropbox-eu"]["100x10kB"]

        # Single large file: closer storage is a clear win.
        assert single_gain > 1.15
        # Many small files: per-file/commit costs dominate, placement helps less.
        assert batch_gain < single_gain
