"""Simulated personal cloud storage services.

The five services studied in the paper are modelled as client/server pairs
whose behaviour is parameterised by a :class:`~repro.services.profile.ServiceProfile`:
which capabilities the client implements (Table 1), where its control and
storage servers sit (§3.2), how it manages TCP/TLS connections (§4.2), how it
polls its control plane while idle (§3.1) and how long its local processing
takes.  The profiles bundled here encode the paper's findings; the
benchmarking framework in :mod:`repro.core` never reads them — it measures
the traffic the clients generate, so the same probes can be pointed at any
new service model.
"""

from repro.services.profile import (
    ConnectionPolicy,
    LoginSpec,
    PollingSpec,
    ServerSpec,
    ServiceCapabilities,
    ServiceProfile,
    TimingSpec,
)
from repro.services.backend import StorageBackend, StoredFile
from repro.services.base import CloudStorageClient, SyncSummary, PreparedFile, ChunkUpload
from repro.services.registry import (
    SERVICE_NAMES,
    create_client,
    get_profile,
    get_spec,
    register_service,
    register_service_spec,
    register_services_from_file,
    registry_restore,
    registry_snapshot,
    spec_fingerprint,
    temporary_services,
    unregister_service,
)
from repro.services.spec import ServiceSpec, builtin_spec, load_service_specs

__all__ = [
    "ServiceProfile",
    "ServiceCapabilities",
    "ServerSpec",
    "PollingSpec",
    "LoginSpec",
    "TimingSpec",
    "ConnectionPolicy",
    "StorageBackend",
    "StoredFile",
    "CloudStorageClient",
    "SyncSummary",
    "PreparedFile",
    "ChunkUpload",
    "SERVICE_NAMES",
    "create_client",
    "get_profile",
    "register_service",
    "register_service_spec",
    "register_services_from_file",
    "unregister_service",
    "registry_snapshot",
    "registry_restore",
    "temporary_services",
    "spec_fingerprint",
    "get_spec",
    "ServiceSpec",
    "builtin_spec",
    "load_service_specs",
]
