"""Tests for the open-workload population engine (``repro.load``).

Covers the shared link's tick lattice, shuffle-bit-identity of the tail
reductions (hypothesis), engine sanity against closed-form expectations
(including the fair share draining the link at capacity), the campaign ``load`` stage (plan
order, caching, sweep aggregation) and end-to-end byte-identity of the
CLI documents across jobs and a 2-worker shard+merge.
"""

from __future__ import annotations

import json
import math
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.cli import main, store_listing_rows
from repro.core.campaign import CampaignCell, CampaignConfig, CampaignRunner, run_cell
from repro.core.store import CONFIG_KEY_FIELDS, ResultStore, cache_key
from repro.errors import ConfigurationError
from repro.load import (
    AccessLane,
    LoadParameters,
    SharedLink,
    TailSummary,
    arrival_times,
    diurnal_times,
    jain_index,
    poisson_times,
    run_load_cell,
    simulate_population,
)
from repro.load.edge import ServiceEdge
from repro.netsim.scenario import BASELINE
from repro.randomness import make_rng
from repro.units import (
    format_population,
    mbps,
    parse_population,
    parse_populations,
    unit_sort_key,
)


class TestAllocatorProperties:
    def test_quantize_up_lands_on_tick_lattice(self):
        link = SharedLink(capacity_bps=1.0, tick_s=0.01)
        assert link.quantize_up(0.0) == 0.0
        assert link.quantize_up(0.010000000000000002) == pytest.approx(0.01)
        assert link.quantize_up(0.0101) == pytest.approx(0.02)
        assert link.quantize_up(1.234) == pytest.approx(1.24, abs=1e-12)


class TestArrivals:
    def test_poisson_schedule_is_sorted_and_deterministic(self):
        first = poisson_times(500, 10.0, make_rng(7, "arrivals"))
        second = poisson_times(500, 10.0, make_rng(7, "arrivals"))
        assert first == second
        assert first == sorted(first)
        assert len(first) == 500

    def test_diurnal_schedule_is_sorted_and_deterministic(self):
        first = diurnal_times(500, 10.0, make_rng(7, "arrivals"), period=60.0)
        second = diurnal_times(500, 10.0, make_rng(7, "arrivals"), period=60.0)
        assert first == second
        assert first == sorted(first)
        assert len(first) == 500

    def test_dispatcher_validates_kind(self):
        with pytest.raises(ValueError):
            arrival_times("bursty", 10, 60.0, make_rng(7))

    def test_mean_rate_tracks_population_over_window(self):
        times = arrival_times("poisson", 5000, 50.0, make_rng(7, "rate"))
        # 5000 arrivals at rate 100/s should span roughly the 50 s window.
        assert times[-1] == pytest.approx(50.0, rel=0.2)


class TestTailReductions:
    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=200,
        ),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=100, deadline=None)
    def test_summary_bit_identical_under_shuffle(self, values, seed):
        shuffled = list(values)
        random.Random(seed).shuffle(shuffled)
        assert TailSummary.from_values(shuffled) == TailSummary.from_values(values)
        assert jain_index(shuffled) == jain_index(values)

    @given(
        values=st.lists(
            st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=100,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_jain_bounds(self, values):
        index = jain_index(values)
        assert 1.0 / len(values) - 1e-9 <= index <= 1.0 + 1e-9

    def test_jain_extremes(self):
        assert jain_index([5.0, 5.0, 5.0, 5.0]) == pytest.approx(1.0)
        assert jain_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_quantiles_match_metric_aggregate_convention(self):
        from repro.core.metrics import MetricAggregate

        values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        summary = TailSummary.from_values(values)
        aggregate = MetricAggregate.from_values(values)
        assert summary.p50 == aggregate.median
        assert summary.mean == pytest.approx(aggregate.mean)
        assert summary.minimum == aggregate.minimum and summary.maximum == aggregate.maximum


class TestServiceEdge:
    def test_fifo_admission_and_peaks(self):
        edge = ServiceEdge(2)
        assert edge.offer(0) and edge.offer(1)
        assert not edge.offer(2) and not edge.offer(3)
        assert edge.queued == 2 and edge.peak_queue == 2 and edge.peak_active == 2
        assert edge.release() == 2
        assert edge.release() == 3
        assert edge.release() is None
        assert edge.release() is None
        with pytest.raises(RuntimeError):
            edge.release()


class TestPopulationEngine:
    LANE = AccessLane(cap_bps=mbps(10.0), rtt=0.030, server_processing=0.015)

    def test_fair_share_binding_drains_at_link_capacity(self):
        # Access cap 100 Mb/s on a 10 Mb/s link: capacity / active is below
        # the cap at every active count, so the engine's inline share
        # min(cap, capacity / active) is always the fair share and the
        # fluid phase must drain the link at exactly its capacity.
        lane = AccessLane(cap_bps=mbps(100.0), rtt=0.0, server_processing=0.0)
        params = LoadParameters(population=50, window_s=0.001, link_capacity_bps=mbps(10.0))
        result = simulate_population(params, lane, make_rng(7, "fair-share"))
        assert result.peak_active == 50 and result.peak_queue == 0
        # Every arrival lands on the first tick boundary; with no fixed
        # latency, the makespan is where the last fluid phase ends.
        start = params.tick_s
        drain = result.total_bytes * 8.0 / mbps(10.0)
        elapsed = result.makespan_s - start
        assert elapsed >= drain * (1.0 - 1e-9)
        # A completion frees its share only at the next boundary: each of
        # the 50 completions idles at most one tick of a 1/active share.
        slack = params.tick_s * sum(1.0 / active for active in range(1, 51))
        assert elapsed <= drain + slack

    def test_uncontended_session_matches_closed_form(self):
        # One session on an idle 400 Mb/s link: the fluid phase is pure
        # serialization at its own cap, no queueing.
        params = LoadParameters(population=1, window_s=1.0, link_capacity_bps=mbps(400.0))
        result = simulate_population(params, self.LANE, make_rng(7, "solo"))
        assert result.queue_waits == [0.0]
        from repro.netsim.tcp import slow_start_penalty

        size = result.total_bytes
        latency = 3.0 * 0.030 + 0.015 + slow_start_penalty(size, mbps(10.0), 0.030)
        solo = latency + size * 8.0 / mbps(10.0)
        # Completion matches the closed form up to one tick of quantization.
        assert result.completions[0] == pytest.approx(solo, abs=2 * 0.01)

    def test_edge_concurrency_one_serializes(self):
        params = LoadParameters(
            population=20, window_s=0.1, edge_concurrency=1, link_capacity_bps=mbps(400.0)
        )
        result = simulate_population(params, self.LANE, make_rng(7, "serial"))
        assert result.peak_active == 1
        # Everyone after the first waits: with all 20 offered in 100 ms,
        # at least 18 sessions must see a positive queue wait.
        assert sum(1 for wait in result.queue_waits if wait > 0.0) >= 18

    def test_engine_is_deterministic(self):
        params = LoadParameters(population=2000)
        first = simulate_population(params, self.LANE, make_rng(11, "det"))
        second = simulate_population(params, self.LANE, make_rng(11, "det"))
        assert first == second

    def test_saturation_bounds(self):
        # 50k sessions * ~100 kB over 10 s >> 400 Mb/s: the link saturates
        # and utilization approaches (but never exceeds) 1.
        params = LoadParameters(population=50_000, window_s=10.0)
        result = simulate_population(params, self.LANE, make_rng(7, "sat"))
        utilization = result.total_bytes * 8.0 / (result.makespan_s * mbps(400.0))
        assert 0.5 < utilization <= 1.0 + 1e-9
        assert result.peak_active == 64
        summary_waits = TailSummary.from_values(result.queue_waits)
        assert summary_waits.p99 > 1.0

    def test_diurnal_cell_runs(self):
        params = LoadParameters(population=2000, arrival="diurnal")
        result = simulate_population(params, self.LANE, make_rng(7, "diurnal"))
        assert result.sessions == 2000

    def test_rejects_unknown_arrival(self):
        with pytest.raises(ValueError):
            LoadParameters(population=10, arrival="bursty")

    def test_run_load_cell_is_pure(self):
        params = LoadParameters(population=3000)
        first = run_load_cell("dropbox", params, seed=7, scenario=BASELINE)
        second = run_load_cell("dropbox", params, seed=7, scenario=BASELINE)
        assert first == second
        assert first.row()["population"] == "3k"
        assert first != run_load_cell("dropbox", params, seed=8, scenario=BASELINE)
        assert first != run_load_cell("googledrive", params, seed=7, scenario=BASELINE)


class TestPopulationGrammar:
    def test_parse_population(self):
        assert parse_population("1k") == 1000
        assert parse_population("10K") == 10_000
        assert parse_population("1M") == 1_000_000
        assert parse_population("500") == 500
        assert parse_population(2500) == 2500
        for bad in ("", "k", "1.5k", "-3", "0", True):
            with pytest.raises(ConfigurationError):
                parse_population(bad)

    def test_parse_populations_sorts_and_dedupes(self):
        assert parse_populations("1M,10k,1k,10k") == [1000, 10_000, 1_000_000]
        with pytest.raises(ConfigurationError):
            parse_populations(",,")

    def test_format_population_round_trips(self):
        for value in (1, 500, 1000, 2500, 10_000, 100_000, 1_000_000, 3_000_000):
            assert parse_population(format_population(value)) == value
        assert format_population(1_000_000) == "1M"
        assert format_population(100_000) == "100k"

    def test_unit_sort_key_orders_populations_numerically(self):
        labels = ["1M", "100k", "10k", "1k"]
        assert sorted(labels, key=unit_sort_key) == ["1k", "10k", "100k", "1M"]
        # Lexical sorting would interleave: exactly the bug this guards.
        assert sorted(labels) != sorted(labels, key=unit_sort_key)

    def test_unit_sort_key_orders_repetition_units(self):
        labels = ["upload#r10", "upload#r2", "upload#r0", "download#r1"]
        assert sorted(labels, key=unit_sort_key) == [
            "download#r1",
            "upload#r0",
            "upload#r2",
            "upload#r10",
        ]


class TestLoadStage:
    CONFIG = CampaignConfig(load_populations=(1000, 200), load_window=10.0)

    def test_plan_units_sort_numerically_ascending(self):
        runner = CampaignRunner(
            ["dropbox"], ["load"], seed=7,
            config=CampaignConfig(load_populations=(1_000_000, 100_000, 1000, 10_000)),
        )
        assert [cell.unit for cell in runner.cells()] == ["1k", "10k", "100k", "1M"]

    def test_stage_rows_report_tails_and_fairness(self):
        runner = CampaignRunner(["dropbox", "googledrive"], ["load"], seed=7, jobs=1, config=self.CONFIG)
        campaign = runner.run()
        rows = campaign.suite.load.rows()
        assert [(row["service"], row["population"]) for row in rows] == [
            ("dropbox", "200"),
            ("dropbox", "1k"),
            ("googledrive", "200"),
            ("googledrive", "1k"),
        ]
        for row in rows:
            for column in ("completion_p99_s", "completion_p999_s", "queue_p99_s", "jain"):
                assert column in row
            assert 0.0 < row["jain"] <= 1.0

    def test_cache_key_covers_load_parameters(self):
        base = CampaignCell(stage="load", service="dropbox", seed=7, unit="1k", config=CampaignConfig())
        assert cache_key(base) == cache_key(base)  # runtime guard passes
        for variant in (
            CampaignConfig(load_populations=(1000,)),
            CampaignConfig(load_window=30.0),
            CampaignConfig(load_arrival="diurnal"),
            CampaignConfig(load_edge_concurrency=8),
            CampaignConfig(load_link_capacity_bps=mbps(100.0)),
            CampaignConfig(load_transfer_bytes=50_000),
            CampaignConfig(rep_cells=True),
        ):
            cell = CampaignCell(stage="load", service="dropbox", seed=7, unit="1k", config=variant)
            assert cache_key(cell) != cache_key(base)

    def test_config_key_fields_match_dataclass(self):
        import dataclasses

        names = tuple(sorted(field.name for field in dataclasses.fields(CampaignConfig)))
        assert names == CONFIG_KEY_FIELDS

    def test_store_round_trip_and_listing_order(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        config = CampaignConfig(load_populations=(1000, 10_000, 100_000), load_window=5.0)
        for unit in ("1k", "10k", "100k"):
            store.save(
                run_cell(CampaignCell(stage="load", service="dropbox", seed=7, unit=unit, config=config))
            )
        listed = [row["unit"] for row in store_listing_rows(store)]
        assert listed == ["1k", "10k", "100k"]
        cell = CampaignCell(stage="load", service="dropbox", seed=7, unit="10k", config=config)
        hit = store.load(cell)
        assert hit is not None and hit.cached
        assert hit.payload == run_cell(cell).payload

    def test_sweep_aggregates_include_ci95(self):
        runner = CampaignRunner(["dropbox"], ["load"], seeds=[7, 8], jobs=1, config=self.CONFIG)
        sweep = runner.run_sweep()
        rows = sweep.aggregate_rows()["load"]
        assert rows, "load stage must aggregate across seeds"
        for row in rows:
            assert "ci95" in row and row["n"] == 2
        document = sweep.document()
        assert document["schema"] == 3


class TestRepetitionCells:
    def test_rep_cells_plan_and_merged_rows_identical(self):
        coarse = CampaignRunner(
            ["dropbox"], ["performance"], seed=7, jobs=1, config=CampaignConfig(repetitions=2)
        ).run()
        fine = CampaignRunner(
            ["dropbox"], ["performance"], seed=7, jobs=1,
            config=CampaignConfig(repetitions=2, rep_cells=True),
        ).run()
        assert len(fine.cells) == 2 * len(coarse.cells)
        assert {cell.cell.unit.rpartition("#r")[2] for cell in fine.cells} == {"0", "1"}
        assert fine.suite.performance.runs == coarse.suite.performance.runs
        assert fine.suite.performance.rows() == coarse.suite.performance.rows()


class TestLoadCLI:
    ARGS = ["--stages", "load", "--populations", "500,10k", "--seeds", "7,8"]

    def test_json_byte_identical_across_jobs(self, tmp_path, capsys):
        first, second = tmp_path / "j1.json", tmp_path / "j2.json"
        base = ["--services", "dropbox", "all", *self.ARGS]
        assert main(base + ["--jobs", "1", "--json", str(first)]) == 0
        assert main(base + ["--jobs", "2", "--json", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()
        payload = json.loads(first.read_text())
        rows = payload["per_seed"][0]["cells"][-1]["rows"]
        assert {row["population"] for row in rows} == {"10k"}

    def test_sharded_merge_byte_identical(self, tmp_path, capsys):
        sequential = tmp_path / "seq.json"
        base = ["--services", "dropbox"]
        assert main(base + ["all", *self.ARGS, "--jobs", "1", "--json", str(sequential)]) == 0
        store = str(tmp_path / "store")
        for shard in ("1/2", "2/2"):
            assert main(base + ["shard", *self.ARGS, "--store", store, "--shard", shard, "--jobs", "1"]) == 0
        merged = tmp_path / "merged.json"
        assert main(base + ["merge", *self.ARGS, "--store", store, "--json", str(merged)]) == 0
        capsys.readouterr()
        assert merged.read_bytes() == sequential.read_bytes()

    def test_rejects_bad_populations(self):
        with pytest.raises(SystemExit):
            main(["--services", "dropbox", "all", "--stages", "load", "--populations", "zero"])
