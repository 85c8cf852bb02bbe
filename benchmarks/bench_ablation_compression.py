"""Ablation — compression policy: never vs. always vs. smart.

DESIGN.md design-choice #3: §4.5 argues that compressing everything wastes
resources on already-compressed content while compressing nothing wastes
bandwidth on text.  This ablation runs the same client (Dropbox's engine)
under the three policies over the three content classes of Fig. 5 and
reports the uploaded volume for each combination.
"""

from __future__ import annotations

import dataclasses

from conftest import attach_rows, run_once

from repro.core.experiments.compression import CompressionExperiment
from repro.filegen.model import FileKind
from repro.services.registry import get_profile, register_service, temporary_services
from repro.sync.compression import CompressionPolicy
from repro.units import MB

_POLICIES = {
    "dropbox-nocompress": CompressionPolicy.NEVER,
    "dropbox-smart": CompressionPolicy.SMART,
}


def _register_variants():
    for name, policy in _POLICIES.items():
        def factory(policy=policy, name=name):
            profile = get_profile("dropbox")
            profile.name = name
            profile.display_name = name
            profile.capabilities = dataclasses.replace(profile.capabilities, compression=policy)
            return profile

        register_service(name, factory)


def test_ablation_compression_policy(benchmark):
    """Uploaded volume per content class under never/always/smart compression."""
    services = ["dropbox", *list(_POLICIES)]
    with temporary_services():
        _register_variants()
        experiment = CompressionExperiment(services, sizes=[1 * MB])
        result = run_once(benchmark, experiment.run)
        attach_rows(benchmark, "ablation_compression", result.rows())

        def uploaded(service, kind):
            return dict(result.series(kind)[service])[1 * MB]

        # Text: any compressing policy beats "never".
        assert uploaded("dropbox", FileKind.TEXT) < 0.5 * uploaded("dropbox-nocompress", FileKind.TEXT)
        assert uploaded("dropbox-smart", FileKind.TEXT) < 0.5 * uploaded("dropbox-nocompress", FileKind.TEXT)
        # Fake JPEGs: only the smart policy avoids the pointless work while
        # "always" still shrinks them (they are text inside); the *uploaded*
        # volume difference is what the fake-JPEG probe of Fig. 5c exposes.
        assert uploaded("dropbox-smart", FileKind.FAKE_JPEG) > 0.9
        assert uploaded("dropbox", FileKind.FAKE_JPEG) < 0.5
        # Random bytes: policy is irrelevant, nothing shrinks.
        for service in services:
            assert uploaded(service, FileKind.BINARY) > 0.9
