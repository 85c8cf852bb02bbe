"""Tests for the persistent, resumable campaign result store."""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import shutil
from typing import Dict, List, Optional, Tuple

import pytest

import repro.core.campaign as campaign_module
import repro.core.store as store_module
from repro.core.campaign import CampaignCell, CampaignConfig, CampaignRunner, run_cell, suite_stage_rows
from repro.core.store import STORE_SCHEMA_VERSION, ResultStore, cache_key, from_json, to_json
from repro.filegen.model import FileKind
from repro.obs.tracer import Tracer, activate
from repro.specio import canonical_text

SERVICES = ["dropbox", "googledrive"]
STAGE_SUBSET = ["idle", "syn_series", "performance"]
CONFIG = CampaignConfig(repetitions=1, idle_duration=60.0, resolver_count=50)


def rewrite_record(path, edit, *, reseal=True):
    """Apply ``edit`` to the record at ``path``; ``reseal`` refreshes its checksum."""
    with open(path, "r", encoding="utf-8") as handle:
        record = json.load(handle)
    edit(record)
    if reseal:
        record["checksum"] = store_module._checksum(record)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(canonical_text(record))


def make_foreign(record):
    record["schema"] = STORE_SCHEMA_VERSION + 1


def truncate_half(text):
    return text[: len(text) // 2]


def make_runner(tmp_path, *, seed=42, jobs=1, stages=STAGE_SUBSET, config=CONFIG):
    return CampaignRunner(
        SERVICES, stages, seed=seed, jobs=jobs, config=config, store=ResultStore(str(tmp_path / "cache"))
    )


class TestCacheKey:
    def test_key_is_deterministic_and_identity_sensitive(self):
        cell = CampaignCell(stage="delta", service="dropbox", seed=1, unit="append", config=CONFIG)
        assert cache_key(cell) == cache_key(cell)
        for other in (
            dataclasses.replace(cell, seed=2),
            dataclasses.replace(cell, unit="random"),
            dataclasses.replace(cell, service="wuala"),
            dataclasses.replace(cell, stage="compression"),
            dataclasses.replace(cell, config=CampaignConfig(repetitions=9)),
        ):
            assert cache_key(other) != cache_key(cell)

    def test_key_covers_schema_version(self, monkeypatch):
        cell = CampaignCell(stage="delta", service="dropbox", seed=1, unit="append", config=CONFIG)
        before = cache_key(cell)
        monkeypatch.setattr(store_module, "STORE_SCHEMA_VERSION", STORE_SCHEMA_VERSION + 1)
        assert cache_key(cell) != before


class TestResultStoreRoundTrip:
    def test_save_then_load_returns_equal_payload_marked_cached(self, tmp_path):
        store = ResultStore(str(tmp_path))
        cell = CampaignCell(stage="syn_series", service="googledrive", seed=5, config=CONFIG)
        computed = run_cell(cell)
        store.save(computed)
        loaded = store.load(cell)
        assert loaded is not None
        assert loaded.cached is True and computed.cached is False
        assert loaded.payload == computed.payload
        assert loaded.wall_seconds == computed.wall_seconds
        assert loaded.rows() == computed.rows()

    def test_load_misses_for_unknown_or_foreign_identity(self, tmp_path):
        store = ResultStore(str(tmp_path))
        cell = CampaignCell(stage="syn_series", service="googledrive", seed=5, config=CONFIG)
        assert store.load(cell) is None
        store.save(run_cell(cell))
        assert store.load(dataclasses.replace(cell, seed=6)) is None
        assert store.load(dataclasses.replace(cell, config=CampaignConfig(repetitions=2))) is None

    def test_schema_bump_invalidates_existing_entries(self, tmp_path, monkeypatch):
        store = ResultStore(str(tmp_path))
        cell = CampaignCell(stage="syn_series", service="googledrive", seed=5, config=CONFIG)
        store.save(run_cell(cell))
        assert store.load(cell) is not None
        monkeypatch.setattr(store_module, "STORE_SCHEMA_VERSION", STORE_SCHEMA_VERSION + 1)
        assert store.load(cell) is None

    def test_corrupt_entry_reads_as_miss_and_is_deleted(self, tmp_path, caplog):
        store = ResultStore(str(tmp_path))
        cell = CampaignCell(stage="syn_series", service="googledrive", seed=5, config=CONFIG)
        path = store.save(run_cell(cell))
        for damage in (truncate_half, lambda text: b"\x80", lambda text: b"[]\n"):
            # A torn write, a non-JSON file, or JSON that is not an object.
            with open(path, "rb") as handle:
                text = handle.read()
            with open(path, "wb") as handle:
                handle.write(damage(text))
            tracer = Tracer(label="store")
            with caplog.at_level(logging.WARNING, logger="repro.core.store"), activate(tracer):
                assert store.load(cell) is None
            # The store heals: the damaged record is logged and removed, so
            # the next run recomputes and re-saves instead of tripping forever.
            assert not os.path.exists(path)
            assert tracer.metrics.snapshot()["counters"]["store.corrupt_healed"] == 1
            assert any("corrupt" in record.message for record in caplog.records)
            caplog.clear()
            store.save(run_cell(cell))
            assert store.load(cell) is not None

    def test_checksum_mismatch_is_corrupt(self, tmp_path):
        store = ResultStore(str(tmp_path))
        cell = CampaignCell(stage="syn_series", service="googledrive", seed=5, config=CONFIG)
        path = store.save(run_cell(cell))
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        # Flip one digit of the payload; the file is still valid JSON.
        at = text.index('"total_connections": ') + len('"total_connections": ')
        flipped = "1" if text[at] != "1" else "2"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text[:at] + flipped + text[at + 1 :])
        assert store.load(cell) is None
        assert not os.path.exists(path)

    def test_entry_with_wrong_payload_type_reads_as_miss(self, tmp_path):
        # An intact current-schema record whose payload does not decode as
        # the stage's payload type misses but stays on disk.
        store = ResultStore(str(tmp_path))
        cell = CampaignCell(stage="syn_series", service="googledrive", seed=5, config=CONFIG)
        path = store.save(run_cell(cell))
        rewrite_record(path, lambda record: record.update(payload=[1, 2, 3]))
        assert store.load(cell) is None
        assert os.path.exists(path)

    def test_version_skew_entry_misses_but_is_kept_on_disk(self, tmp_path):
        # A record written at this schema by a code version whose payload
        # dataclass had another field must NOT be deleted — on a shared
        # store, mixed-version runners would otherwise destroy each other's
        # completed work.  It just misses for this version.
        store = ResultStore(str(tmp_path))
        cell = CampaignCell(stage="syn_series", service="googledrive", seed=5, config=CONFIG)
        path = store.save(run_cell(cell))
        rewrite_record(path, lambda record: record["payload"].update(retired_field=0))
        assert store.load(cell) is None
        assert os.path.exists(path)

    def test_key_mismatch_misses_but_is_kept_on_disk(self, tmp_path):
        store = ResultStore(str(tmp_path))
        cell = CampaignCell(stage="syn_series", service="googledrive", seed=5, config=CONFIG)
        path = store.save(run_cell(cell))
        rewrite_record(path, lambda record: record.update(key="0" * 64))
        assert store.load(cell) is None
        assert os.path.exists(path)

    def test_unreadable_entry_misses_but_is_kept(self, tmp_path):
        store = ResultStore(str(tmp_path))
        cell = CampaignCell(stage="syn_series", service="googledrive", seed=5, config=CONFIG)
        path = store.path_for(cell)
        os.makedirs(path)  # opening a directory raises OSError
        assert store.load(cell) is None
        assert os.path.isdir(path)

    def test_foreign_schema_entry_is_kept_on_disk(self, tmp_path):
        # Unlike corruption, a record of another schema version just misses
        # — whatever its checksum, it is not this version's to judge.
        store = ResultStore(str(tmp_path))
        cell = CampaignCell(stage="syn_series", service="googledrive", seed=5, config=CONFIG)
        path = store.save(run_cell(cell))
        rewrite_record(path, make_foreign, reseal=False)
        assert store.load(cell) is None
        assert os.path.exists(path)

    def test_unit_cell_round_trips_with_enum_payload(self, tmp_path):
        # A compression unit cell carries FileKind enums in its points;
        # they must survive the JSON round-trip and compare equal.
        store = ResultStore(str(tmp_path))
        cell = CampaignCell(stage="compression", service="dropbox", seed=5, unit="fake_jpeg", config=CONFIG)
        computed = run_cell(cell)
        store.save(computed)
        loaded = store.load(cell)
        assert loaded is not None and loaded.payload == computed.payload
        assert loaded.rows() == computed.rows()

    def test_entries_and_len_enumerate_store(self, tmp_path):
        store = ResultStore(str(tmp_path))
        assert len(store) == 0
        store.save(run_cell(CampaignCell(stage="syn_series", service="googledrive", seed=5, config=CONFIG)))
        store.save(run_cell(CampaignCell(stage="idle", service="dropbox", seed=5, config=CONFIG)))
        assert len(store) == 2
        assert all(path.endswith(".json") for path in store.entries())

    def test_pickle_era_and_temp_files_are_not_entries(self, tmp_path):
        store = ResultStore(str(tmp_path))
        path = store.save(run_cell(CampaignCell(stage="idle", service="dropbox", seed=5, config=CONFIG)))
        stem = path[: -len(".json")]
        for leftover in (stem + ".pkl", stem + ".tmp"):
            with open(leftover, "wb") as handle:
                handle.write(b"\x80")
        assert list(store.entries()) == [path]
        assert len(store) == 1
        assert store.load(CampaignCell(stage="idle", service="dropbox", seed=5, config=CONFIG)) is not None

    def test_prune_all_removes_pickle_era_files_but_not_temp_files(self, tmp_path):
        # `cache rm --all` is the store's only GC, so it must also clear the
        # records of stores written before schema 5; an in-flight `.tmp`
        # belongs to a concurrent save and stays.
        store = ResultStore(str(tmp_path))
        path = store.save(run_cell(CampaignCell(stage="idle", service="dropbox", seed=5, config=CONFIG)))
        stem = path[: -len(".json")]
        for leftover in (stem + ".pkl", stem + ".tmp", os.path.join(str(tmp_path), "delta", "dropbox.0.0123.pkl")):
            os.makedirs(os.path.dirname(leftover), exist_ok=True)
            with open(leftover, "wb") as handle:
                handle.write(b"\x80")
        assert store.prune(stage="idle") == 1  # selectors never read pickles
        assert os.path.exists(stem + ".pkl")
        assert store.prune() == 2
        assert not os.path.exists(stem + ".pkl")
        assert not os.path.exists(os.path.join(str(tmp_path), "delta", "dropbox.0.0123.pkl"))
        assert os.path.exists(stem + ".tmp")

    def test_save_records_runner_provenance(self, tmp_path):
        store = ResultStore(str(tmp_path), runner="machine-7")
        cell = CampaignCell(stage="idle", service="dropbox", seed=5, config=CONFIG)
        store.save(run_cell(cell))
        entry = store.load_entry(cell)
        assert entry is not None and entry.runner == "machine-7"
        assert entry.result.cell == cell
        # An untagged store (plain `cloudbench all`) records no runner.
        untagged = ResultStore(str(tmp_path))
        untagged.save(run_cell(cell))
        assert untagged.load_entry(cell).runner is None

    def test_records_list_identities(self, tmp_path):
        store = ResultStore(str(tmp_path), runner="m1")
        cells = [
            CampaignCell(stage="idle", service="dropbox", seed=5, config=CONFIG),
            CampaignCell(stage="syn_series", service="googledrive", seed=5, config=CONFIG),
        ]
        for cell in cells:
            store.save(run_cell(cell))
        other = store.save(run_cell(CampaignCell(stage="idle", service="wuala", seed=5, config=CONFIG)))
        rewrite_record(other, make_foreign, reseal=False)
        meta = {(record["cell"]["stage"], record["cell"]["service"]): record["runner"] for record in store.records()}
        assert meta == {("idle", "dropbox"): "m1", ("syn_series", "googledrive"): "m1"}

    def test_prune_by_stage_service_and_all(self, tmp_path):
        store = ResultStore(str(tmp_path))
        for stage, service in (("idle", "dropbox"), ("idle", "wuala"), ("syn_series", "googledrive")):
            store.save(run_cell(CampaignCell(stage=stage, service=service, seed=5, config=CONFIG)))
        assert store.prune(stage="idle", service="dropbox") == 1
        assert len(store) == 2
        assert store.prune(stage="idle") == 1
        assert len(store) == 1
        assert store.prune() == 1
        assert len(store) == 0

    def test_prune_all_removes_foreign_schema_entries_too(self, tmp_path):
        # Selector-based rm can only address entries it can read, but
        # `cache rm --all` must clear stale-version files as well — it is
        # the only GC the store has.
        store = ResultStore(str(tmp_path))
        cell = CampaignCell(stage="idle", service="dropbox", seed=5, config=CONFIG)
        path = store.save(run_cell(cell))
        rewrite_record(path, make_foreign, reseal=False)
        assert store.prune(stage="idle") == 0  # unreadable by selectors
        assert store.prune() == 1
        assert len(store) == 0

    def test_prune_older_than_removes_only_aged_entries(self, tmp_path):
        store = ResultStore(str(tmp_path))
        old_cell = CampaignCell(stage="idle", service="dropbox", seed=5, config=CONFIG)
        new_cell = CampaignCell(stage="idle", service="wuala", seed=5, config=CONFIG)
        old_path = store.save(run_cell(old_cell))
        store.save(run_cell(new_cell))
        aged = os.stat(old_path).st_mtime - 7200.0
        os.utime(old_path, (aged, aged))
        assert store.prune(older_than=86400.0) == 0  # nothing is a day old
        assert store.prune(older_than=3600.0) == 1  # only the aged entry
        assert store.load(old_cell) is None
        assert store.load(new_cell) is not None

    def test_prune_older_than_combines_with_stage_selector(self, tmp_path):
        store = ResultStore(str(tmp_path))
        idle = CampaignCell(stage="idle", service="dropbox", seed=5, config=CONFIG)
        syn = CampaignCell(stage="syn_series", service="googledrive", seed=5, config=CONFIG)
        for cell in (idle, syn):
            path = store.save(run_cell(cell))
            aged = os.stat(path).st_mtime - 7200.0
            os.utime(path, (aged, aged))
        assert store.prune(stage="idle", older_than=3600.0) == 1
        assert store.load(idle) is None and store.load(syn) is not None

    def test_prune_schema_foreign_removes_only_foreign_entries(self, tmp_path):
        store = ResultStore(str(tmp_path))
        native = CampaignCell(stage="idle", service="dropbox", seed=5, config=CONFIG)
        foreign = CampaignCell(stage="idle", service="wuala", seed=5, config=CONFIG)
        store.save(run_cell(native))
        path = store.save(run_cell(foreign))
        rewrite_record(path, make_foreign, reseal=False)
        assert store.prune(schema_foreign=True) == 1
        assert not os.path.exists(path)
        assert store.load(native) is not None

    def test_prune_schema_foreign_removes_leftover_trace_sidecars(self, tmp_path):
        # Stores written before records were JSON kept flight records in
        # ``<entry>.trace.json`` sidecars.  Such a file parses as JSON but
        # carries no store schema: foreign, so loads skip it and it stays
        # until explicit --schema-foreign GC removes it.
        store = ResultStore(str(tmp_path))
        cell = CampaignCell(stage="idle", service="dropbox", seed=5, config=CONFIG)
        path = store.save(run_cell(cell))
        sidecar = path[: -len(".json")] + ".trace.json"
        with open(sidecar, "w", encoding="utf-8") as handle:
            handle.write('{"kind": "cloudbench-flight-record", "schema": 1}\n')
        assert store.load(cell) is not None
        assert [record["key"] for record in store.records()] == [cache_key(cell)]
        assert store.prune(stage="idle", service="wuala") == 0
        assert os.path.exists(sidecar)
        assert store.prune(schema_foreign=True) == 1
        assert not os.path.exists(sidecar)
        assert store.load(cell) is not None

    def test_prune_schema_foreign_honors_older_than(self, tmp_path):
        store = ResultStore(str(tmp_path))
        cell = CampaignCell(stage="idle", service="dropbox", seed=5, config=CONFIG)
        path = store.save(run_cell(cell))
        rewrite_record(path, make_foreign, reseal=False)
        assert store.prune(schema_foreign=True, older_than=3600.0) == 0  # too fresh
        aged = os.stat(path).st_mtime - 7200.0
        os.utime(path, (aged, aged))
        assert store.prune(schema_foreign=True, older_than=3600.0) == 1

    def test_ttl_pass_spares_fresh_corrupt_entries(self, tmp_path):
        # The age filter runs before classification: a TTL-limited
        # schema-foreign sweep must neither delete nor "heal" (discard) a
        # corrupt entry younger than the cutoff.
        store = ResultStore(str(tmp_path))
        cell = CampaignCell(stage="idle", service="dropbox", seed=5, config=CONFIG)
        path = store.save(run_cell(cell))
        with open(path, "wb") as handle:
            handle.write(b"\x80")  # not JSON, freshly written
        assert store.prune(schema_foreign=True, older_than=3600.0) == 0
        assert os.path.exists(path)  # untouched: younger than the cutoff

    def test_prune_all_clears_leftover_claim_files(self, tmp_path):
        store = ResultStore(str(tmp_path))
        claims = store.claims_root()
        os.makedirs(claims, exist_ok=True)
        with open(os.path.join(claims, "stale.claim"), "w", encoding="utf-8") as handle:
            handle.write("{}")
        store.save(run_cell(CampaignCell(stage="idle", service="dropbox", seed=5, config=CONFIG)))
        assert store.prune() == 1
        assert sorted(os.listdir(claims)) == []


@dataclasses.dataclass(frozen=True)
class Inner:
    kind: FileKind
    spans: Tuple[float, int]


@dataclasses.dataclass
class Outer:
    per_count: Dict[int, Dict[str, float]]
    inners: List[Inner]
    maybe: Optional[Inner]
    absent: Optional[int]


class TestPayloadCodec:
    def test_round_trip_keeps_types_keys_and_order(self):
        value = Outer(
            per_count={10: {"b": 2.5, "a": 1.0}, 1: {}},
            inners=[Inner(FileKind.TEXT, (0.5, 3))],
            maybe=Inner(FileKind.FAKE_JPEG, (1.0, 0)),
            absent=None,
        )
        encoded = json.loads(json.dumps(to_json(value, Outer), sort_keys=True))
        decoded = from_json(encoded, Outer)
        assert decoded == value
        assert list(decoded.per_count) == [10, 1]
        assert list(decoded.per_count[10]) == ["b", "a"]
        assert isinstance(decoded.inners[0].kind, FileKind) and decoded.inners[0].spans == (0.5, 3)

    def test_shape_mismatch_raises(self):
        for data, hint in (
            ({"value": 1}, CampaignCell),
            ("text", List[int]),
            ([1, 2, 3], Tuple[int, int]),
            ("no_such_kind", FileKind),
        ):
            with pytest.raises((TypeError, ValueError)):
                from_json(data, hint)

    @pytest.mark.parametrize(
        "stage, unit",
        [("idle", "-"), ("datacenters", "-"), ("delta", "append"), ("performance", "1x100kB"), ("load", "1k")],
    )
    def test_stage_payloads_round_trip(self, tmp_path, stage, unit):
        store = ResultStore(str(tmp_path))
        cell = CampaignCell(stage=stage, service="dropbox", seed=5, unit=unit, config=CONFIG)
        computed = run_cell(cell)
        store.save(computed)
        loaded = store.load(cell)
        assert loaded is not None and loaded.payload == computed.payload
        assert loaded.rows() == computed.rows()


#: One small cell's store record, pinned byte for byte.  Regenerate after a
#: deliberate layout change (and STORE_SCHEMA_VERSION bump) by saving
#: ``run_cell(GOLDEN_CELL)`` with ``wall_seconds=GOLDEN_WALL_SECONDS`` and
#: copying the written file over this one.
GOLDEN_RECORD = os.path.join(os.path.dirname(__file__), "data", "golden_store_record.json")
GOLDEN_CELL = CampaignCell(stage="syn_series", service="googledrive", seed=5, config=CONFIG)
GOLDEN_WALL_SECONDS = 1.5


class TestGoldenRecord:
    def test_save_reproduces_golden_bytes(self, tmp_path):
        computed = dataclasses.replace(run_cell(GOLDEN_CELL), wall_seconds=GOLDEN_WALL_SECONDS)
        path = ResultStore(str(tmp_path)).save(computed)
        with open(path, "rb") as produced, open(GOLDEN_RECORD, "rb") as golden:
            assert produced.read() == golden.read()

    def test_golden_record_loads_to_fresh_rows(self, tmp_path):
        store = ResultStore(str(tmp_path))
        path = store.path_for(GOLDEN_CELL)
        os.makedirs(os.path.dirname(path))
        shutil.copyfile(GOLDEN_RECORD, path)
        loaded = store.load(GOLDEN_CELL)
        assert loaded is not None and loaded.wall_seconds == GOLDEN_WALL_SECONDS
        assert loaded.rows() == run_cell(GOLDEN_CELL).rows()


class TestCampaignCaching:
    def test_cold_warm_and_uncached_runs_are_bit_identical(self, tmp_path):
        cold = make_runner(tmp_path).run()
        warm = make_runner(tmp_path).run()
        uncached = CampaignRunner(SERVICES, STAGE_SUBSET, seed=42, jobs=1, config=CONFIG).run()
        assert cold.cache_hits() == 0 and cold.cache_misses() == len(cold.cells)
        assert warm.cache_hits() == len(warm.cells) and warm.cache_misses() == 0
        for result in (warm, uncached):
            assert suite_stage_rows(result.suite) == suite_stage_rows(cold.suite)
            assert result.suite.summary_text() == cold.suite.summary_text()

    def test_parallel_run_fills_and_reads_the_same_store(self, tmp_path):
        cold = make_runner(tmp_path, jobs=4).run()
        warm = make_runner(tmp_path, jobs=4).run()
        assert cold.cache_misses() == len(cold.cells)
        assert warm.cache_hits() == len(warm.cells)
        assert suite_stage_rows(warm.suite) == suite_stage_rows(cold.suite)

    def test_seed_change_misses_the_whole_store(self, tmp_path):
        make_runner(tmp_path, seed=42).run()
        other_seed = make_runner(tmp_path, seed=43).run()
        assert other_seed.cache_hits() == 0

    def test_config_change_misses_the_whole_store(self, tmp_path):
        make_runner(tmp_path).run()
        bumped = make_runner(tmp_path, config=CampaignConfig(repetitions=2, idle_duration=60.0, resolver_count=50))
        assert bumped.run().cache_hits() == 0

    def test_extended_campaign_reuses_overlapping_cells(self, tmp_path):
        # Resume semantics for a *grown* campaign: add stages, keep the
        # rest; only the new stages' cells are computed.
        first = make_runner(tmp_path, stages=["performance"]).run()
        extended = make_runner(tmp_path, stages=STAGE_SUBSET).run()
        assert extended.cache_hits() == len(first.cells)
        assert extended.cache_misses() == len(extended.cells) - len(first.cells)
        scratch = CampaignRunner(SERVICES, STAGE_SUBSET, seed=42, jobs=1, config=CONFIG).run()
        assert suite_stage_rows(extended.suite) == suite_stage_rows(scratch.suite)

    def test_interrupted_campaign_resumes_from_cache(self, tmp_path, monkeypatch):
        # Kill the campaign mid-grid: the first K computed cells survive in
        # the store, and the re-run completes from them bit-identically.
        real_run_cell = campaign_module.run_cell
        budget = {"left": 4}

        def dying_run_cell(cell):
            if budget["left"] <= 0:
                raise KeyboardInterrupt
            budget["left"] -= 1
            return real_run_cell(cell)

        monkeypatch.setattr(campaign_module, "run_cell", dying_run_cell)
        with pytest.raises(KeyboardInterrupt):
            make_runner(tmp_path).run()
        monkeypatch.setattr(campaign_module, "run_cell", real_run_cell)

        resumed = make_runner(tmp_path).run()
        assert resumed.cache_hits() == 4
        assert resumed.cache_misses() == len(resumed.cells) - 4
        scratch = CampaignRunner(SERVICES, STAGE_SUBSET, seed=42, jobs=1, config=CONFIG).run()
        assert suite_stage_rows(resumed.suite) == suite_stage_rows(scratch.suite)
        assert resumed.suite.summary_text() == scratch.suite.summary_text()

    def test_cached_cells_keep_original_wall_seconds(self, tmp_path):
        cold = make_runner(tmp_path, stages=["syn_series"]).run()
        warm = make_runner(tmp_path, stages=["syn_series"]).run()
        assert [r.wall_seconds for r in warm.cells] == [r.wall_seconds for r in cold.cells]
        assert all(row["cached"] == "yes" for row in warm.timing_rows())

    def test_json_dict_reports_cache_accounting(self, tmp_path):
        make_runner(tmp_path, stages=["syn_series"]).run()
        warm = make_runner(tmp_path, stages=["syn_series"]).run()
        payload = warm.to_json_dict()
        assert payload["cache"] == {"hits": len(warm.cells), "misses": 0}
        assert all(cell["cached"] for cell in payload["cells"])
