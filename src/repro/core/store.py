"""Persistent, resumable campaign result store.

Reproducible cloud benchmarking needs *defined, repeatable, incrementally
re-runnable executions*: a campaign that dies (or is later extended with
more seeds, stages or repetitions) should pick up where it left off instead
of re-simulating every cell.  Because a campaign cell's payload is a pure
function of its identity — (stage, service, unit, seed,
:class:`~repro.core.campaign.CampaignConfig`) — that identity can serve as
a cache key: :class:`ResultStore` pickles each completed
:class:`~repro.core.campaign.CellResult` under a content hash of the
identity plus :data:`STORE_SCHEMA_VERSION`, and the campaign runner
consults the store before dispatching work.

Entries are written atomically (temp file + ``os.replace``), so a campaign
killed mid-save never leaves a truncated entry behind; an unreadable entry
(e.g. hand-truncated, or pickled by an incompatible library version) is
logged, deleted and treated as a cache miss, so a damaged store heals
itself instead of wedging every subsequent campaign.

The store is also the substrate for cross-machine sharding
(:mod:`repro.dist`): any number of runners pointed at a shared directory
compute disjoint cells and merge for free.  To support that, every entry
records which runner computed it (``runner`` provenance, surfaced by
:meth:`ResultStore.entries_with_meta` and the ``cloudbench cache ls`` /
``cloudbench merge`` accounting), and the sibling ``.claims`` directory
(managed by :class:`repro.dist.claims.ClaimBoard`) holds the work-stealing
lease files.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import pickle
import re
import tempfile
from typing import TYPE_CHECKING, Iterator, Optional

from repro import wallclock
from repro.errors import ConfigurationError
from repro.obs.tracer import current_tracer
from repro.specio import canonical_text

if TYPE_CHECKING:  # pragma: no cover - import cycle is type-only
    from repro.core.campaign import CampaignCell, CellResult

__all__ = [
    "STORE_SCHEMA_VERSION",
    "DEFAULT_CACHE_DIR",
    "CONFIG_KEY_FIELDS",
    "cache_key",
    "ResultStore",
    "StoreEntry",
]

logger = logging.getLogger(__name__)

#: Version of the on-disk entry layout *and* of the key material.  Bump it
#: whenever either changes: every existing entry then misses and is rebuilt.
#: (2: the key material gained the service-spec fingerprint and the
#: scenario-bearing campaign config.  3: CellResult grew failure/trace
#: fields — older pickles would break ``dataclasses.replace`` on load.
#: 4: the campaign config gained the ``load`` stage's population knobs and
#: the ``rep_cells`` plan axis — old keys did not cover them.)
STORE_SCHEMA_VERSION = 4

#: Where ``cloudbench all --resume`` keeps its store when no --cache-dir is given.
DEFAULT_CACHE_DIR = ".cloudbench-cache"

#: Characters allowed verbatim in store file names; the rest become ``_``.
_UNSAFE = re.compile(r"[^A-Za-z0-9._-]+")

#: Every :class:`~repro.core.campaign.CampaignConfig` field the key material
#: of :func:`cache_key` covers, in the sorted order the material serializes
#: them.  This manifest is the cache-key coverage contract: lint rule PUR001
#: cross-checks it against the dataclass, and :func:`cache_key` verifies it
#: at runtime — so adding a config field without extending the key (and
#: bumping :data:`STORE_SCHEMA_VERSION`) is an error, never a silent
#: cache-collision between campaigns that differ only in the new field.
CONFIG_KEY_FIELDS = (
    "idle_duration",
    "load_arrival",
    "load_edge_concurrency",
    "load_link_capacity_bps",
    "load_populations",
    "load_transfer_bytes",
    "load_window",
    "planetlab_count",
    "rep_cells",
    "repetitions",
    "resolver_count",
    "scenario",
)


def cache_key(cell: "CampaignCell") -> str:
    """Content hash of one cell's full identity.

    Covers everything the payload is a function of: the schema version, the
    (stage, service, unit) coordinates, the *content* of the service's
    declarative spec (its fingerprint — so editing a spec file invalidates
    exactly that service's cells), the campaign seed and every knob of the
    :class:`~repro.core.campaign.CampaignConfig` (by field name, so
    reordering fields does not silently alias keys) — including the network
    :class:`~repro.netsim.scenario.ScenarioSpec` the campaign runs under.
    """
    from repro.services.registry import spec_fingerprint  # deferred: registry imports are heavy

    config_items = sorted(dataclasses.asdict(cell.config).items())
    covered = tuple(name for name, _ in config_items)
    if covered != CONFIG_KEY_FIELDS:
        raise ConfigurationError(
            f"cache_key covers config fields {covered}, but CONFIG_KEY_FIELDS declares "
            f"{CONFIG_KEY_FIELDS}; extend the manifest (and bump STORE_SCHEMA_VERSION) "
            "so the new field cannot alias existing store entries"
        )
    material = repr(
        (
            STORE_SCHEMA_VERSION,
            cell.stage,
            cell.service,
            spec_fingerprint(cell.service),
            cell.unit,
            cell.seed,
            config_items,
        )
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


@dataclasses.dataclass(frozen=True)
class StoreEntry:
    """One store entry: the cell result plus its on-disk/provenance metadata.

    ``runner`` is the id of the shard worker that computed the payload
    (``None`` for entries written by a plain ``cloudbench all`` run).
    """

    result: "CellResult"
    path: str
    runner: Optional[str] = None

    @property
    def cell(self) -> "CampaignCell":
        return self.result.cell


class ResultStore:
    """Directory of pickled cell results, one file per cell identity.

    ``runner`` tags every entry this store instance saves with a runner id,
    so multi-runner campaigns (:mod:`repro.dist`) can report which machine
    computed which cell.
    """

    def __init__(self, root: str, *, runner: Optional[str] = None) -> None:
        self.root = str(root)
        self.runner = runner

    def path_for(self, cell: "CampaignCell") -> str:
        """Store file for one cell: ``<root>/<stage>/<service>.<unit>.<key>.pkl``."""
        name = ".".join(
            (
                _UNSAFE.sub("_", cell.service),
                _UNSAFE.sub("_", cell.unit),
                cache_key(cell)[:16],
            )
        )
        return os.path.join(self.root, _UNSAFE.sub("_", cell.stage), name + ".pkl")

    def trace_path_for(self, cell: "CampaignCell") -> str:
        """Flight-record sidecar for one cell: the entry path with ``.trace.json``."""
        path = self.path_for(cell)
        return path[: -len(".pkl")] + ".trace.json"

    def claims_root(self) -> str:
        """Directory holding the work-stealing lease files for this store."""
        return os.path.join(self.root, ".claims")

    def load(self, cell: "CampaignCell") -> Optional["CellResult"]:
        """The stored result for ``cell``, or ``None`` on any kind of miss."""
        entry = self.load_entry(cell)
        return None if entry is None else entry.result

    def load_entry(self, cell: "CampaignCell") -> Optional[StoreEntry]:
        """The stored entry (result + provenance) for ``cell``, or ``None``.

        A truncated or otherwise unreadable pickle (campaign killed
        mid-write before the atomic rename — should not happen, but belts
        and braces; or an entry written by an incompatible code version)
        reads as a miss, never as an error: it is logged and *deleted*, so
        the runner recomputes the cell and the store heals.  A structurally
        valid entry for a foreign schema or identity is left alone and
        simply misses.
        """
        path = self.path_for(cell)
        tracer = current_tracer()
        entry = self._read_entry(path)
        if entry is None or entry.get("schema") != STORE_SCHEMA_VERSION:
            tracer.count("store.misses")
            return None
        result = entry.get("result")
        if result is None or getattr(result, "cell", None) != cell:
            tracer.count("store.misses")
            return None
        tracer.count("store.hits")
        return StoreEntry(
            result=dataclasses.replace(result, cached=True, trace=self._load_trace(cell)),
            path=path,
            runner=entry.get("runner"),
        )

    def _load_trace(self, cell: "CampaignCell") -> Optional[dict]:
        """The cell's flight-record sidecar, if a traced run persisted one."""
        try:
            with open(self.trace_path_for(cell), "r", encoding="utf-8") as handle:
                record = json.load(handle)
        except (OSError, ValueError):
            return None
        return record if isinstance(record, dict) else None

    def _read_entry(self, path: str) -> Optional[dict]:
        """Parse one entry file; corrupt files are logged, deleted and miss.

        Only genuine corruption signals (torn/truncated pickle streams)
        trigger deletion.  AttributeError/ImportError mean the entry was
        pickled by a *different code version* — on a shared store with
        mixed-version runners, deleting those would let the versions
        destroy each other's completed work, so they miss but stay on
        disk; transient read errors (OSError) likewise just miss.
        """
        try:
            with open(path, "rb") as handle:
                entry = pickle.load(handle)
        except (pickle.UnpicklingError, EOFError, IndexError) as error:
            self._discard_corrupt(path, error)
            return None
        except (OSError, AttributeError, ImportError):
            return None
        if not isinstance(entry, dict):
            self._discard_corrupt(path, TypeError(f"entry is {type(entry).__name__}, not dict"))
            return None
        return entry

    def _is_schema_foreign(self, path: str) -> bool:
        """Whether an entry belongs to a different schema *or code* version.

        This is the explicit-GC classifier behind ``prune(schema_foreign=
        True)``.  Unlike the cache-miss path (:meth:`_read_entry`, which
        deliberately keeps version-skew pickles alive so mixed-version
        runners on a shared store cannot destroy each other's work), an
        operator asking for schema-foreign GC wants exactly those files
        gone: entries that unpickle to a foreign ``schema`` *and* entries
        whose pickle cannot load under this code version at all
        (AttributeError/ImportError).  Transient read errors stay off the
        kill list; genuinely corrupt files are healed as usual.
        """
        try:
            with open(path, "rb") as handle:
                entry = pickle.load(handle)
        except (AttributeError, ImportError):
            return True  # pickled by a different code version
        except (pickle.UnpicklingError, EOFError, IndexError) as error:
            self._discard_corrupt(path, error)
            return False  # already gone: healed, not pruned
        except OSError:
            return False
        return not isinstance(entry, dict) or entry.get("schema") != STORE_SCHEMA_VERSION

    def _entry_cell(self, path: str) -> Optional["CampaignCell"]:
        """The cell identity of one readable, current-schema entry file."""
        entry = self._read_entry(path)
        if entry is None or entry.get("schema") != STORE_SCHEMA_VERSION:
            return None
        return getattr(entry.get("result"), "cell", None)

    def _discard_corrupt(self, path: str, error: Exception) -> None:
        logger.warning("discarding corrupt store entry %s (%s: %s)", path, type(error).__name__, error)
        current_tracer().count("store.corrupt_healed")
        try:
            os.unlink(path)
        except OSError:  # pragma: no cover - racing deleters are fine
            pass

    def save(self, result: "CellResult") -> str:
        """Persist one cell result atomically; returns the entry's path.

        Saves are idempotent and last-writer-wins: because a cell's payload
        is a pure function of its identity, two runners racing to save the
        same cell write byte-equivalent results and the atomic rename keeps
        whichever landed last.

        A traced result's flight record is written to a JSON *sidecar* next
        to the entry (``<entry>.trace.json``, also atomic) and stripped
        from the pickle, so untraced loads never pay for trace payloads and
        the sidecar is inspectable without unpickling anything.
        """
        path = self.path_for(result.cell)
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        entry = {
            "schema": STORE_SCHEMA_VERSION,
            "key": cache_key(result.cell),
            "runner": self.runner,
            "result": dataclasses.replace(result, cached=False, trace=None),
        }
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(entry, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_path, path)
        finally:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
        if result.trace is not None:
            self._save_trace(result.cell, result.trace, directory)
        current_tracer().count("store.saves")
        return path

    def _save_trace(self, cell: "CampaignCell", record: dict, directory: str) -> None:
        """Atomically write one cell's flight-record sidecar."""
        trace_path = self.trace_path_for(cell)
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(canonical_text(record))
            os.replace(tmp_path, trace_path)
        finally:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
        logger.info("flight record written to %s", trace_path)

    def entries(self) -> Iterator[str]:
        """Paths of every entry currently in the store."""
        for dirpath, dirnames, filenames in os.walk(self.root):
            dirnames[:] = sorted(name for name in dirnames if name != ".claims")
            for filename in sorted(filenames):
                if filename.endswith(".pkl"):
                    yield os.path.join(dirpath, filename)

    def orphan_sidecars(self) -> Iterator[str]:
        """Flight-record sidecars whose entry pickle no longer exists.

        A sidecar lives and dies with its ``.pkl`` entry, but an entry can
        disappear without its sidecar — corrupt-entry healing and racing
        deleters unlink only the pickle.  Such orphans are unreachable (a
        trace is only ever loaded through its entry), so :meth:`prune`
        sweeps them.
        """
        for dirpath, dirnames, filenames in os.walk(self.root):
            dirnames[:] = sorted(name for name in dirnames if name != ".claims")
            for filename in sorted(filenames):
                if not filename.endswith(".trace.json"):
                    continue
                entry = filename[: -len(".trace.json")] + ".pkl"
                if not os.path.exists(os.path.join(dirpath, entry)):
                    yield os.path.join(dirpath, filename)

    def entries_with_meta(self) -> Iterator[StoreEntry]:
        """Every readable entry with its provenance, for store inspection.

        Corrupt files encountered along the way are logged and deleted
        (exactly as :meth:`load_entry` would); foreign-schema entries are
        skipped but kept on disk.
        """
        for path in list(self.entries()):
            entry = self._read_entry(path)
            if entry is None or entry.get("schema") != STORE_SCHEMA_VERSION:
                continue
            result = entry.get("result")
            if result is None or getattr(result, "cell", None) is None:
                continue
            yield StoreEntry(result=result, path=path, runner=entry.get("runner"))

    def prune(
        self,
        *,
        stage: Optional[str] = None,
        service: Optional[str] = None,
        older_than: Optional[float] = None,
        schema_foreign: bool = False,
    ) -> int:
        """Delete entries matching the given selectors; returns the count.

        ``older_than`` is a TTL in seconds: only entries whose file mtime
        (i.e. the moment their result last landed) is older than that age
        are removed — the store-compaction GC behind ``cloudbench cache rm
        --older-than 7d``.  The age filter runs *first* (a cheap ``stat``),
        so a TTL pass never unpickles — or heals — entries the cutoff
        excludes.  ``schema_foreign`` selects entries written under a
        *different* :data:`STORE_SCHEMA_VERSION` or an incompatible code
        version — the one class of file the ordinary selectors cannot
        address because their identity cannot be trusted; it therefore
        ignores ``stage``/``service`` but still honors ``older_than``.

        With no selector at all every entry file is removed (``cloudbench
        cache rm --all``) — including foreign-schema entries — along with
        any leftover work-stealing claim files.

        Every pass also sweeps orphaned flight-record sidecars (see
        :meth:`orphan_sidecars`), subject only to the ``older_than`` cutoff.
        """
        removed = 0
        wipe_all = stage is None and service is None and older_than is None and not schema_foreign
        paths = list(self.entries())
        if older_than is not None:
            cutoff = wallclock.now() - older_than
            aged = []
            for path in paths:
                try:
                    if os.stat(path).st_mtime <= cutoff:
                        aged.append(path)
                except OSError:  # pragma: no cover - racing deleters are fine
                    pass
            paths = aged
        if schema_foreign:
            paths = [path for path in paths if self._is_schema_foreign(path)]
        elif stage is not None or service is not None:
            selected = []
            for path in paths:
                cell = self._entry_cell(path)
                if cell is None:
                    continue
                if (stage is None or cell.stage == stage) and (service is None or cell.service == service):
                    selected.append(path)
            paths = selected
        for path in paths:
            try:
                os.unlink(path)
                removed += 1
            except OSError:  # pragma: no cover - racing deleters are fine
                pass
            # An entry's flight-record sidecar lives and dies with the entry.
            try:
                os.unlink(path[: -len(".pkl")] + ".trace.json")
            except OSError:
                pass
        # Orphaned sidecars (entry pickle already gone) are unreachable
        # garbage with no identity left to match selectors against, so any
        # GC pass sweeps them; only the TTL filter still applies.
        for sidecar in list(self.orphan_sidecars()):
            if older_than is not None:
                try:
                    if os.stat(sidecar).st_mtime > wallclock.now() - older_than:
                        continue
                except OSError:  # pragma: no cover - racing deleters are fine
                    continue
            try:
                os.unlink(sidecar)
                removed += 1
            except OSError:  # pragma: no cover - racing deleters are fine
                pass
        if wipe_all:
            claims = self.claims_root()
            if os.path.isdir(claims):
                # Sorted like every other walk (cf. ClaimBoard.leases): the
                # deletion outcome is order-free, but log/trace order is not.
                for name in sorted(os.listdir(claims)):
                    try:
                        os.unlink(os.path.join(claims, name))
                    except OSError:  # pragma: no cover
                        pass
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self.entries())
