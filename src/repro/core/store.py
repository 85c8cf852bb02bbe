"""Persistent, resumable campaign result store.

Reproducible cloud benchmarking needs *defined, repeatable, incrementally
re-runnable executions*: a campaign that dies (or is later extended with
more seeds, stages or repetitions) should pick up where it left off instead
of re-simulating every cell.  Because a campaign cell's payload is a pure
function of its identity — (stage, service, unit, seed,
:class:`~repro.core.campaign.CampaignConfig`) — that identity can serve as
a cache key: :class:`ResultStore` keeps each completed
:class:`~repro.core.campaign.CellResult` under a content hash of the
identity plus :data:`STORE_SCHEMA_VERSION`, and the campaign runner
consults the store before dispatching work.

Each cell is one self-contained canonical-JSON *record*,
``<stage>/<service>.<unit>.<key16>.json``, holding the ``schema``, the full
``key``, the ``cell`` identity (stage, service, unit, seed), the ``runner``
that computed it, ``wall_seconds``, the typed ``payload`` (through the
small dataclass codec :func:`to_json`/:func:`from_json`, driven by the
stage's payload type), the cell's flight record ``trace`` (or ``null``) and
a sha256 ``checksum`` over all of the rest.  A record is plain data: it is
inspectable with any JSON tool and readable by any Python version.

Records are written atomically (temp file + ``os.replace``).  Reading one
follows a single rule:

* unreadable file (``OSError``) — a miss; the file is kept;
* not parseable as a JSON object, or a checksum mismatch at the current
  schema — *corrupt*: logged, deleted (``store.corrupt_healed``) and a
  miss, so a damaged store heals itself instead of wedging every campaign;
* any other ``schema`` — *foreign*: a miss, kept on disk (on a shared store
  another code version may still want it; ``cloudbench cache rm
  --schema-foreign`` removes it);
* current schema with a valid checksum, but a ``key`` other than
  :func:`cache_key` of the cell or a payload that no longer decodes — a
  miss, kept.

Files not ending in ``.json`` (such as the ``.pkl`` entries of stores
written before records were JSON, or in-flight ``.tmp`` files) are not
entries at all; only ``cloudbench cache rm --all`` removes the ``.pkl``
ones.

The store is also the substrate for cross-machine sharding
(:mod:`repro.dist`): any number of runners pointed at a shared directory
compute disjoint cells and merge for free.  To support that, every record
names the runner that computed it (surfaced by :meth:`ResultStore.records`
and the ``cloudbench cache ls`` / ``cloudbench merge`` accounting), and the
sibling ``.claims`` directory (managed by
:class:`repro.dist.claims.ClaimBoard`) holds the work-stealing lease files.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
import logging
import os
import re
import tempfile
import typing
from typing import TYPE_CHECKING, Any, Iterator, Optional, Tuple

from repro import wallclock
from repro.errors import ConfigurationError
from repro.obs.tracer import current_tracer
from repro.specio import canonical_json, canonical_text

if TYPE_CHECKING:  # pragma: no cover - import cycle is type-only
    from repro.core.campaign import CampaignCell, CellResult

__all__ = [
    "STORE_SCHEMA_VERSION",
    "DEFAULT_CACHE_DIR",
    "CONFIG_KEY_FIELDS",
    "cache_key",
    "to_json",
    "from_json",
    "ResultStore",
    "StoreEntry",
]

logger = logging.getLogger(__name__)

#: Version of the on-disk record layout *and* of the key material.  Bump it
#: whenever either changes: every existing record then misses and is rebuilt.
#: (2: the key material gained the service-spec fingerprint and the
#: scenario-bearing campaign config.  3: CellResult grew failure/trace
#: fields.  4: the campaign config gained the ``load`` stage's population
#: knobs and the ``rep_cells`` plan axis — old keys did not cover them.
#: 5: one self-contained canonical-JSON record per cell, flight record inline.)
STORE_SCHEMA_VERSION = 5

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


# --------------------------------------------------------------------------- #
# Payload codec: typed dataclasses <-> plain JSON values
# --------------------------------------------------------------------------- #
@functools.lru_cache(maxsize=None)
def _field_hints(cls: type) -> tuple:
    """``(name, resolved type)`` for every field of a payload dataclass."""
    hints = typing.get_type_hints(cls)
    return tuple((field.name, hints[field.name]) for field in dataclasses.fields(cls))


def to_json(value: Any, hint: Any) -> Any:
    """Encode ``value`` (of type ``hint``) as plain JSON values.

    Dataclasses become objects, enums their ``value``, lists and tuples
    arrays, and dicts arrays of ``[key, value]`` pairs — so non-string keys
    and insertion order survive.  Scalars pass through unchanged.
    """
    origin = typing.get_origin(hint)
    args = typing.get_args(hint)
    if origin is typing.Union:  # Optional[X]
        return None if value is None else to_json(value, args[0])
    if origin is list:
        return [to_json(item, args[0]) for item in value]
    if origin is tuple:
        return [to_json(item, arg) for item, arg in zip(value, args)]
    if origin is dict:
        return [[to_json(key, args[0]), to_json(item, args[1])] for key, item in value.items()]
    if dataclasses.is_dataclass(hint):
        return {name: to_json(getattr(value, name), field) for name, field in _field_hints(hint)}
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return value.value
    return value


def from_json(data: Any, hint: Any) -> Any:
    """Inverse of :func:`to_json`; raises ``TypeError``/``ValueError`` on a shape mismatch."""
    origin = typing.get_origin(hint)
    args = typing.get_args(hint)
    if origin is typing.Union:  # Optional[X]
        return None if data is None else from_json(data, args[0])
    if origin in (list, tuple, dict) and not isinstance(data, list):
        raise TypeError(f"expected a JSON array for {hint}, got {type(data).__name__}")
    if origin is list:
        return [from_json(item, args[0]) for item in data]
    if origin is tuple:
        if len(data) != len(args):
            raise ValueError(f"expected {len(args)} items for {hint}, got {len(data)}")
        return tuple(from_json(item, arg) for item, arg in zip(data, args))
    if origin is dict:
        return {from_json(key, args[0]): from_json(item, args[1]) for key, item in data}
    if dataclasses.is_dataclass(hint):
        fields = _field_hints(hint)
        if not isinstance(data, dict) or set(data) != {name for name, _ in fields}:
            raise ValueError(f"record fields do not match {hint.__name__}")
        return hint(**{name: from_json(data[name], field) for name, field in fields})
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return hint(data)
    return data


def _checksum(record: dict) -> str:
    """sha256 over every record field except the checksum itself."""
    body = {name: value for name, value in record.items() if name != "checksum"}
    return hashlib.sha256(canonical_json(body).encode("utf-8")).hexdigest()


def _is_current(record: Optional[dict]) -> bool:
    return record is not None and record.get("schema") == STORE_SCHEMA_VERSION


@dataclasses.dataclass(frozen=True)
class StoreEntry:
    """One loaded record: the cell result plus its on-disk/provenance metadata.

    ``runner`` is the id of the shard worker that computed the payload
    (``None`` for records written by a plain ``cloudbench all`` run).
    """

    result: "CellResult"
    path: str
    runner: Optional[str] = None


class ResultStore:
    """Directory of canonical-JSON cell records, one file per cell identity.

    ``runner`` tags every record this store instance saves with a runner id,
    so multi-runner campaigns (:mod:`repro.dist`) can report which machine
    computed which cell.
    """

    def __init__(self, root: str, *, runner: Optional[str] = None) -> None:
        self.root = str(root)
        self.runner = runner

    def path_for(self, cell: "CampaignCell") -> str:
        """Record file for one cell: ``<root>/<stage>/<service>.<unit>.<key16>.json``."""
        return self._path(cell, cache_key(cell))

    def _path(self, cell: "CampaignCell", key: str) -> str:
        name = ".".join((_UNSAFE.sub("_", cell.service), _UNSAFE.sub("_", cell.unit), key[:16]))
        return os.path.join(self.root, _UNSAFE.sub("_", cell.stage), name + ".json")

    def claims_root(self) -> str:
        """Directory holding the work-stealing lease files for this store."""
        return os.path.join(self.root, ".claims")

    def load(self, cell: "CampaignCell") -> Optional["CellResult"]:
        """The stored result for ``cell``, or ``None`` on any kind of miss."""
        entry = self.load_entry(cell)
        return None if entry is None else entry.result

    def load_entry(self, cell: "CampaignCell") -> Optional[StoreEntry]:
        """The stored entry (result + provenance) for ``cell``, or ``None``.

        Misses follow the read rule of the module docstring.  A hit carries
        the record's flight record as ``trace`` whether or not the current
        run is traced.
        """
        from repro.core.campaign import CellResult, stage_payload_type

        key = cache_key(cell)
        path = self._path(cell, key)
        record = self._read(path)
        result = None
        if _is_current(record) and record.get("key") == key:
            try:
                result = CellResult(
                    cell=cell,
                    payload=from_json(record["payload"], stage_payload_type(cell.stage)),
                    wall_seconds=record["wall_seconds"],
                    cached=True,
                    trace=record["trace"],
                )
            except (KeyError, TypeError, ValueError) as error:
                logger.info("store record %s does not decode here (%s); recomputing", path, error)
        if result is None:
            current_tracer().count("store.misses")
            return None
        current_tracer().count("store.hits")
        return StoreEntry(result=result, path=path, runner=record.get("runner"))

    def _read(self, path: str) -> Optional[dict]:
        """Parse one record file: ``None`` if unreadable or corrupt (then deleted)."""
        try:
            with open(path, "rb") as handle:
                text = handle.read()
        except OSError:
            return None
        try:
            record = json.loads(text)
        except ValueError as error:
            self._discard_corrupt(path, error)
            return None
        if not isinstance(record, dict):
            self._discard_corrupt(path, ValueError(f"record is a JSON {type(record).__name__}, not an object"))
            return None
        if _is_current(record) and record.get("checksum") != _checksum(record):
            self._discard_corrupt(path, ValueError("checksum mismatch"))
            return None
        return record

    def _discard_corrupt(self, path: str, error: Exception) -> None:
        logger.warning("discarding corrupt store entry %s (%s: %s)", path, type(error).__name__, error)
        current_tracer().count("store.corrupt_healed")
        try:
            os.unlink(path)
        except OSError:  # pragma: no cover - racing deleters are fine
            pass

    def save(self, result: "CellResult") -> str:
        """Persist one cell result atomically; returns the record's path.

        Saves are idempotent and last-writer-wins: because a cell's payload
        is a pure function of its identity, two runners racing to save the
        same cell write equivalent records and the atomic rename keeps
        whichever landed last.  Failed cells have no payload to cache.
        """
        from repro.core.campaign import stage_payload_type

        cell = result.cell
        if result.failed:
            raise ValueError(f"cannot store failed cell {cell.key}: the store caches payloads only")
        key = cache_key(cell)
        record = {
            "schema": STORE_SCHEMA_VERSION,
            "key": key,
            "cell": {"stage": cell.stage, "service": cell.service, "unit": cell.unit, "seed": cell.seed},
            "runner": self.runner,
            "wall_seconds": result.wall_seconds,
            "payload": to_json(result.payload, stage_payload_type(cell.stage)),
            "trace": result.trace,
        }
        record["checksum"] = _checksum(record)
        path = self._path(cell, key)
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(canonical_text(record))
            os.replace(tmp_path, path)
        finally:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
        current_tracer().count("store.saves")
        return path

    def entries(self) -> Iterator[str]:
        """Paths of every record file (``*.json``) currently in the store."""
        return self._files((".json",))

    def _files(self, suffixes: Tuple[str, ...]) -> Iterator[str]:
        """Paths of the store's files ending in one of ``suffixes``, sorted."""
        for dirpath, dirnames, filenames in os.walk(self.root):
            dirnames[:] = sorted(name for name in dirnames if name != ".claims")
            for filename in sorted(filenames):
                if filename.endswith(suffixes):
                    yield os.path.join(dirpath, filename)

    def records(self) -> Iterator[dict]:
        """Every intact current-schema record, in :meth:`entries` order.

        For store inspection (``cloudbench cache ls``, ``cloudbench trace``):
        payloads stay undecoded.  Corrupt files met along the way are healed
        as :meth:`load_entry` would; foreign records are skipped but kept.
        """
        for path in list(self.entries()):
            record = self._read(path)
            if _is_current(record):
                yield record

    def prune(
        self,
        *,
        stage: Optional[str] = None,
        service: Optional[str] = None,
        older_than: Optional[float] = None,
        schema_foreign: bool = False,
    ) -> int:
        """Delete records matching the given selectors; returns the count.

        ``older_than`` is a TTL in seconds: only records whose file mtime
        (i.e. the moment their result last landed) is older than that age
        are removed — the store-compaction GC behind ``cloudbench cache rm
        --older-than 7d``.  The age filter runs *first* (a cheap ``stat``),
        so a TTL pass never parses — or heals — records the cutoff
        excludes.  ``schema_foreign`` selects records of a *different*
        :data:`STORE_SCHEMA_VERSION` — the one class of file the ordinary
        selectors cannot address because their identity cannot be trusted;
        it therefore ignores ``stage``/``service`` but still honors
        ``older_than``.

        With no selector at all every record file is removed (``cloudbench
        cache rm --all``) — including foreign-schema records and the
        ``.pkl`` records of stores written before schema 5, but not
        in-flight ``.tmp`` files — along with any leftover work-stealing
        claim files.
        """
        removed = 0
        wipe_all = stage is None and service is None and older_than is None and not schema_foreign
        paths = list(self._files((".json", ".pkl") if wipe_all else (".json",)))
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
        if schema_foreign or stage is not None or service is not None:
            paths = [path for path in paths if self._selected(self._read(path), stage, service, schema_foreign)]
        for path in paths:
            try:
                os.unlink(path)
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

    @staticmethod
    def _selected(record: Optional[dict], stage: Optional[str], service: Optional[str], foreign: bool) -> bool:
        """Whether one parsed record matches a selective :meth:`prune` pass."""
        if record is None:
            return False
        if foreign:
            return not _is_current(record)
        if not _is_current(record):
            return False
        cell = record["cell"]
        return (stage is None or cell["stage"] == stage) and (service is None or cell["service"] == service)

    def __len__(self) -> int:
        return sum(1 for _ in self.entries())
