"""Command line interface: ``cloudbench``.

Sub-commands map one-to-one to the paper's artifacts::

    cloudbench capabilities                 # Table 1
    cloudbench idle --minutes 16            # Fig. 1
    cloudbench datacenters --resolvers 500  # Fig. 2 / §3.2
    cloudbench connections                  # Fig. 3
    cloudbench delta                        # Fig. 4
    cloudbench compression                  # Fig. 5
    cloudbench performance --repetitions 5  # Fig. 6
    cloudbench all                          # everything above
    cloudbench bench --compare BENCH.json   # perf metrics of the engine itself

Results are printed as ASCII tables; ``--csv PATH`` additionally writes the
raw rows to a CSV file.  For ``all``, every completed stage is written to
its own stage-tagged CSV (``results.csv`` becomes ``results.idle.csv``,
``results.performance.csv``, ...), not just the performance rows.

``cloudbench all`` runs through the parallel campaign engine
(:mod:`repro.core.campaign`): every (stage, service, unit) cell — e.g.
*performance × dropbox × 1x100kB* — is an independent simulation, fanned
out over ``--jobs N`` worker processes (default: one per CPU).  Results are
bit-identical for any ``--jobs`` value given the same ``--seed``; a
per-cell wall-clock table quantifies the speedup, ``--stages`` selects a
subset of campaign stages, and ``--json PATH`` writes the machine-readable
per-cell results and timings.

``--cache-dir DIR`` attaches the persistent result store
(:mod:`repro.core.store`): cells already computed for the same (stage,
service, unit, seed, config) identity are loaded instead of re-run, fresh
cells are saved as they complete, and the timing table reports per-cell
hits.  ``--resume`` continues an interrupted or extended campaign from the
store (defaulting ``--cache-dir`` to ``.cloudbench-cache``): more seeds,
stages or repetitions only compute the missing cells, and cached plus
fresh cells merge into a bit-identical summary.

Distributed campaigns (:mod:`repro.dist`) split one campaign across N
cooperating runners that share nothing but a store directory::

    cloudbench shard --store DIR --shard 1/2   # runner 1: static partition
    cloudbench shard --store DIR --shard 2/2   # runner 2 (any machine)
    cloudbench shard --store DIR --steal       # or: dynamic work stealing
    cloudbench merge --store DIR               # fold the store into one report

``merge`` re-plans the same deterministic grid (so the campaign flags must
match the workers'), reads every cell back and prints the same tables —
and writes the same ``--json``/``--csv`` — as ``cloudbench all``, byte for
byte.  ``cloudbench cache ls``/``cloudbench cache rm`` inspect and prune a
store directory.

``--json`` (for ``all`` and ``merge``) writes the *deterministic results
document*: per-cell rows only, no wall clocks or cache provenance, so any
two executions of the same campaign — sequential, parallel, or sharded
across machines — serialize byte-identically.  ``all --timings-json``
writes the run-specific execution record (timings, worker count, cache
hits) that ``--json`` used to include.

Seed sweeps (:mod:`repro.core.sweep`) make repetition a plan dimension:
``--seeds 7,8,10..12`` (on ``all``, ``shard`` and ``merge``) plans the
same campaign grid once per seed and reduces the per-seed results into
cross-seed statistics — mean, stddev, median, quartiles/IQR, extrema, n —
per (stage, service, unit, metric).  A multi-seed ``all`` prints one
aggregate table per stage, ``--csv`` writes per-stage aggregate CSVs and
``--json`` writes the deterministic *sweep document* (per-seed documents
plus aggregates), which shards and merges exactly like the single-seed
document: byte-identical across ``--jobs N``, multi-runner ``shard`` +
``merge`` and cache-resumed executions, and independent of seed order.
With a single seed everything stays byte-identical to the pre-sweep
output.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional, Sequence

from repro.core.campaign import (
    STAGES,
    CampaignConfig,
    CampaignRunner,
    default_jobs,
    suite_stage_rows,
    syn_series_services,
)
from repro.core.store import DEFAULT_CACHE_DIR, ResultStore
from repro.core.experiments.compression import CompressionExperiment
from repro.core.experiments.datacenters import DataCenterExperiment
from repro.core.experiments.delta import DeltaEncodingExperiment
from repro.core.experiments.idle import IdleExperiment
from repro.core.experiments.performance import PerformanceExperiment
from repro.core.experiments.synseries import SynSeriesExperiment
from repro.core.capabilities import CapabilityProber
from repro.core.report import render_grouped_bars, render_table, to_csv, write_json
from repro.core.workloads import PAPER_WORKLOADS
from repro.dist import DEFAULT_LEASE_TIMEOUT, CampaignMerger, ShardWorker, parse_shard_spec
from repro.errors import ConfigurationError, DistributionError
from repro.netsim.scenario import ScenarioSpec, get_scenario, register_scenarios_from_file, registered_scenarios
from repro.obs.logconfig import configure_logging
from repro.perf import (
    build_document,
    capture_environment,
    compare_documents,
    load_document,
    run_benchmarks,
    write_document,
)
from repro.randomness import DEFAULT_SEED
from repro.services.registry import SERVICE_NAMES, register_services_from_file
from repro.units import minutes, parse_duration, parse_populations, parse_seeds, unit_sort_key

__all__ = ["main", "build_parser"]


def _positive_count(text: str) -> int:
    """argparse type of ``--repetitions`` and ``--resolvers``: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _idle_minutes(text: str) -> float:
    """argparse type of ``--minutes``: a finite number of minutes >= 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number of minutes, got {text!r}") from None
    if not 0.0 <= value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Build the ``cloudbench`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="cloudbench",
        description="Benchmark (simulated) personal cloud storage services, reproducing IMC'13.",
    )
    parser.add_argument(
        "--services",
        default=None,
        help=(
            "comma-separated list of services to benchmark "
            f"(default: every registered service; the paper's five are {','.join(SERVICE_NAMES)})"
        ),
    )
    parser.add_argument(
        "--services-file",
        dest="services_file",
        default=None,
        help=(
            "register every service defined in this TOML/JSON spec file "
            "([[service]] tables) before running; spec-defined services are "
            "addressable via --services and join the default service list"
        ),
    )
    parser.add_argument(
        "--scenario",
        default="baseline",
        help=(
            "network scenario every path runs under (RTT/bandwidth/loss/jitter "
            f"overrides); built-ins: {', '.join(registered_scenarios())} "
            "(default: baseline, the paper's campus network)"
        ),
    )
    parser.add_argument(
        "--scenario-file",
        dest="scenario_file",
        default=None,
        help="register every scenario defined in this TOML/JSON spec file ([[scenario]] tables)",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="log INFO messages to stderr (repeat for DEBUG); default shows warnings only",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="count",
        default=0,
        help="silence warnings (errors still print)",
    )
    parser.add_argument("--csv", default=None, help="also write the result rows to this CSV file")
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"campaign seed; identical seeds reproduce identical results (default: {DEFAULT_SEED})",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("capabilities", help="Table 1: capability matrix")

    idle = subparsers.add_parser("idle", help="Fig. 1: background traffic while idle")
    idle.add_argument("--minutes", type=_idle_minutes, default=16.0, help="idle observation window (minutes)")

    datacenters = subparsers.add_parser("datacenters", help="Fig. 2 / Sec. 3.2: front-end discovery")
    datacenters.add_argument("--resolvers", type=_positive_count, default=500, help="number of open resolvers to fan out over")

    subparsers.add_parser("connections", help="Fig. 3: TCP connections for 100x10kB")

    subparsers.add_parser("delta", help="Fig. 4: delta encoding tests")

    subparsers.add_parser("compression", help="Fig. 5: compression tests")

    performance = subparsers.add_parser("performance", help="Fig. 6: start-up, completion, overhead")
    performance.add_argument("--repetitions", type=_positive_count, default=3, help="repetitions per (service, workload)")

    def add_campaign_options(sub: argparse.ArgumentParser) -> None:
        # Shared by all/shard/merge: flags that define the campaign *plan*.
        # Workers and the merger must agree on these (and on --services /
        # --seed) or they address different store keys.
        sub.add_argument("--repetitions", type=_positive_count, default=2, help="repetitions per (service, workload)")
        sub.add_argument("--minutes", type=_idle_minutes, default=16.0, help="idle observation window (minutes)")
        sub.add_argument("--resolvers", type=_positive_count, default=300, help="number of open resolvers to fan out over")
        sub.add_argument(
            "--stages",
            default=None,
            help=f"comma-separated subset of campaign stages to run (default: all of {','.join(STAGES)})",
        )
        sub.add_argument(
            "--seeds",
            default=None,
            help=(
                "seed sweep: run the campaign grid once per seed and aggregate across "
                "seeds; accepts comma lists and inclusive ranges, e.g. '7,8,10..12' "
                "(default: the single --seed)"
            ),
        )
        sub.add_argument(
            "--populations",
            default=None,
            help=(
                "population sizes the `load` stage plans one cell per, e.g. "
                "'1k,10k,100k' or '500,1M' (default: 1k,10k)"
            ),
        )
        sub.add_argument(
            "--rep-cells",
            dest="rep_cells",
            action="store_true",
            help=(
                "plan one performance cell per repetition (upload#r0, upload#r1, ...) "
                "instead of one per workload: finer shards and per-repetition caching, "
                "bit-identical merged results"
            ),
        )
        sub.add_argument(
            "--trace",
            dest="trace_path",
            metavar="FILE",
            default=None,
            help=(
                "record a flight recorder per cell and write the campaign trace "
                "document to FILE; inspect/convert it with `cloudbench trace`"
            ),
        )

    everything = subparsers.add_parser("all", help="run the whole campaign through the parallel engine")
    add_campaign_options(everything)
    everything.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for the campaign cells (default: one per CPU)",
    )
    everything.add_argument(
        "--json",
        dest="json_path",
        default=None,
        help=(
            "write the deterministic per-cell results document to this JSON file "
            "(byte-identical across --jobs values and across sharded runs merged "
            "with `cloudbench merge`)"
        ),
    )
    everything.add_argument(
        "--timings-json",
        dest="timings_json_path",
        default=None,
        help="write the run-specific execution record (wall clocks, cache hits) to this JSON file",
    )
    everything.add_argument(
        "--cache-dir",
        dest="cache_dir",
        default=None,
        help=(
            "persistent result store: cells already computed for the same "
            "(stage, service, unit, seed, config) are loaded instead of re-run, "
            "fresh cells are saved as they complete"
        ),
    )
    everything.add_argument(
        "--resume",
        action="store_true",
        help=(
            "resume an interrupted or extended campaign from the result store "
            f"(implies --cache-dir {DEFAULT_CACHE_DIR} when none is given)"
        ),
    )

    shard = subparsers.add_parser(
        "shard",
        help="run one shard of a distributed campaign against a shared result store",
    )
    add_campaign_options(shard)
    shard.add_argument("--store", required=True, help="shared result store directory (all runners point here)")
    mode = shard.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--shard",
        dest="shard_spec",
        metavar="I/N",
        default=None,
        help="static partition: this runner computes shard I of N (1-based), e.g. --shard 2/4",
    )
    mode.add_argument(
        "--steal",
        action="store_true",
        help="dynamic mode: claim any unowned cell via lease files, so stragglers never idle fast workers",
    )
    shard.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes inside this runner (default: one per CPU)",
    )
    shard.add_argument(
        "--runner-id",
        default=None,
        help="identity recorded on claims and store entries (default: <hostname>-<pid>)",
    )
    shard.add_argument(
        "--lease-timeout",
        type=float,
        default=DEFAULT_LEASE_TIMEOUT,
        help=f"seconds without a heartbeat before a claim counts as abandoned (default: {DEFAULT_LEASE_TIMEOUT:g})",
    )

    merge = subparsers.add_parser(
        "merge",
        help="merge a (possibly still filling) shared store into one campaign report",
    )
    add_campaign_options(merge)
    merge.add_argument("--store", required=True, help="shared result store directory to merge from")
    merge.add_argument(
        "--wait",
        action="store_true",
        help="poll the store until every campaign cell is present instead of failing fast",
    )
    merge.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="give up --wait after this many seconds (default: wait forever)",
    )
    merge.add_argument(
        "--json",
        dest="json_path",
        default=None,
        help="write the deterministic results document (byte-identical to `cloudbench all --json`)",
    )

    bench = subparsers.add_parser(
        "bench",
        help="benchmark the benchmark: deterministic perf metrics of the simulation engine",
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized run: same micro workloads, shrunken campaign macro-benchmark",
    )
    bench.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timed repetitions per micro-benchmark; the best rate is reported (default: 3)",
    )
    bench.add_argument(
        "--skip-campaign",
        dest="skip_campaign",
        action="store_true",
        help="skip the end-to-end campaign macro-benchmark (micro metrics only)",
    )
    bench.add_argument(
        "--json",
        dest="bench_json",
        default=None,
        help="write the canonical benchmark document (the BENCH_netsim.json format) to this file",
    )
    bench.add_argument(
        "--compare",
        dest="bench_compare",
        default=None,
        metavar="BASELINE",
        help="compare against a committed baseline document; exit nonzero on regression",
    )
    bench.add_argument(
        "--tolerance",
        type=float,
        default=25.0,
        help="allowed percentage slack per metric before --compare flags a regression (default: 25)",
    )

    lint = subparsers.add_parser(
        "lint",
        help="static determinism analysis: DET/PUR AST rules over Python, SPEC checks over spec files",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["."],
        help=(
            "files or directories to lint (default: the current directory); .py files "
            "run the AST rules, .toml/.json files under a 'specs' directory are "
            "linted as ServiceSpec/ScenarioSpec documents"
        ),
    )
    lint.add_argument(
        "--specs",
        dest="lint_specs",
        action="append",
        default=[],
        metavar="FILE",
        help="additionally lint this ServiceSpec/ScenarioSpec TOML/JSON document (repeatable)",
    )
    lint.add_argument(
        "--json",
        dest="lint_json",
        action="store_true",
        help="emit the findings as a canonical JSON document instead of text",
    )
    lint.add_argument(
        "--list-rules",
        dest="lint_list_rules",
        action="store_true",
        help="print every rule id and title, then exit",
    )

    trace = subparsers.add_parser(
        "trace",
        help="inspect flight recorder traces, or export them for Perfetto",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_ls = trace_sub.add_parser("ls", help="list the flight records held in a result store's cell records")
    trace_ls.add_argument("--store", default=DEFAULT_CACHE_DIR, help=f"store directory (default: {DEFAULT_CACHE_DIR})")
    trace_show = trace_sub.add_parser("show", help="summarize a trace file, a flight-record file, or a whole store")
    trace_show.add_argument(
        "target",
        help="a campaign trace file (--trace output), one flight-record file, or a store directory",
    )
    trace_export = trace_sub.add_parser(
        "export",
        help="convert a trace to Chrome trace-event JSON (Perfetto / chrome://tracing) or canonical JSON",
    )
    trace_export.add_argument(
        "--input",
        dest="trace_input",
        metavar="FILE",
        default=None,
        help="trace or flight-record JSON file to convert",
    )
    trace_export.add_argument(
        "--store",
        dest="trace_store",
        metavar="DIR",
        default=None,
        help="assemble the trace from the flight records in a store's cell records instead of a file",
    )
    trace_export.add_argument(
        "--output",
        dest="trace_output",
        metavar="FILE",
        default=None,
        help="write here instead of stdout",
    )
    trace_export.add_argument(
        "--format",
        dest="trace_format",
        choices=("chrome", "json"),
        default="chrome",
        help="chrome: trace-event form for Perfetto; json: canonical trace document (default: chrome)",
    )
    trace_export.add_argument(
        "--sim-only",
        dest="trace_sim_only",
        action="store_true",
        help="strip the run-specific wall half first (the byte-comparable deterministic form)",
    )

    cache = subparsers.add_parser("cache", help="inspect or prune a result store directory")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_ls = cache_sub.add_parser("ls", help="list the store's cells (stage/service/unit/seed/runner)")
    cache_ls.add_argument("--store", default=DEFAULT_CACHE_DIR, help=f"store directory (default: {DEFAULT_CACHE_DIR})")
    cache_rm = cache_sub.add_parser("rm", help="delete store entries by stage/service/age/schema, or everything")
    cache_rm.add_argument("--store", default=DEFAULT_CACHE_DIR, help=f"store directory (default: {DEFAULT_CACHE_DIR})")
    cache_rm.add_argument("--stage", default=None, help="only remove entries of this campaign stage")
    cache_rm.add_argument("--service", default=None, help="only remove entries of this service")
    cache_rm.add_argument(
        "--older-than",
        dest="older_than",
        metavar="AGE",
        default=None,
        help="TTL GC: only remove entries last written more than AGE ago (e.g. 45s, 30m, 12h, 7d)",
    )
    cache_rm.add_argument(
        "--schema-foreign",
        dest="schema_foreign",
        action="store_true",
        help="remove entries written under a different store schema version (not combinable with --stage/--service)",
    )
    cache_rm.add_argument("--all", action="store_true", help="remove every entry (and leftover claim files)")
    return parser


def _emit(rows: List[dict], text: str, csv_path: Optional[str]) -> None:
    print(text)
    if csv_path:
        with open(csv_path, "w", encoding="utf-8") as handle:
            handle.write(to_csv(rows) + "\n")
        print(f"\nCSV written to {csv_path}")


def _stage_csv_path(csv_path: str, stage: str) -> str:
    """Per-stage CSV file name: ``results.csv`` -> ``results.idle.csv``."""
    base, extension = os.path.splitext(csv_path)
    return f"{base}.{stage}{extension or '.csv'}"


def _write_stage_csvs(csv_path: str, stage_rows: Dict[str, List[dict]]) -> List[str]:
    """Write one CSV per completed stage; returns the paths written."""
    written = []
    for stage, rows in stage_rows.items():
        path = _stage_csv_path(csv_path, stage)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(to_csv(rows) + "\n")
        written.append(path)
    return written


def _parse_stages(parser: argparse.ArgumentParser, args: argparse.Namespace) -> Optional[List[str]]:
    """The --stages selection as a list, or None for all stages."""
    if args.stages is None:
        return None
    stages = [name.strip() for name in args.stages.split(",") if name.strip()]
    if not stages:
        parser.error(f"--stages selects no stage; valid stages: {', '.join(STAGES)}")
    return stages


def _campaign_seeds(parser: argparse.ArgumentParser, args: argparse.Namespace) -> List[int]:
    """The campaign's seed list: the --seeds sweep spec, or the single --seed.

    One shared grammar (:func:`repro.units.parse_seeds`) serves `all`,
    `shard` and `merge`, so cooperating runners cannot disagree on how a
    sweep spec expands.
    """
    if args.seeds is None:
        return [args.seed]
    try:
        return parse_seeds(args.seeds)
    except ConfigurationError as error:
        parser.error(str(error))


def _campaign_runner(
    parser: argparse.ArgumentParser,
    args: argparse.Namespace,
    services: List[str],
    scenario: ScenarioSpec,
    *,
    store: Optional[ResultStore],
    jobs: int,
    seeds: Optional[List[int]] = None,
    trace: bool = False,
) -> CampaignRunner:
    """A CampaignRunner matching what `cloudbench all` would plan.

    shard/merge rebuild the campaign *plan* from the same flags and
    defaults as `all`, so every cooperating runner (and the merger)
    addresses identical store keys — including the seed list of a sweep,
    the ``--scenario`` and any ``--services-file``/``--scenario-file``
    registrations.  ``seeds`` lets a caller that already parsed the spec
    pass it through instead of parsing twice.
    """
    try:
        config_kwargs = {}
        if getattr(args, "populations", None) is not None:
            config_kwargs["load_populations"] = tuple(parse_populations(args.populations))
        return CampaignRunner(
            services,
            _parse_stages(parser, args),
            seeds=seeds if seeds is not None else _campaign_seeds(parser, args),
            jobs=jobs,
            config=CampaignConfig(
                repetitions=args.repetitions,
                idle_duration=minutes(args.minutes),
                resolver_count=args.resolvers,
                scenario=scenario,
                rep_cells=getattr(args, "rep_cells", False),
                **config_kwargs,
            ),
            store=store,
            trace=trace,
        )
    except ConfigurationError as error:
        parser.error(str(error))


def store_listing_rows(store: ResultStore) -> List[dict]:
    """`cache ls` rows in deterministic order: (stage, service, unit, seed).

    Stages sort in campaign order (unknown stages last, alphabetically), so
    two listings of equal stores are byte-identical and diffable in CI like
    the results documents.  Units sort via
    :func:`repro.units.unit_sort_key`: the load stage's population labels
    compare numerically (1k < 10k < 100k < 1M, where lexical order would
    interleave them) and per-repetition performance units by repetition
    number.
    """
    rows = [
        {
            "stage": record["cell"]["stage"],
            "service": record["cell"]["service"],
            "unit": record["cell"]["unit"],
            "seed": record["cell"]["seed"],
            "runner": record["runner"] if record["runner"] is not None else "-",
            "wall_s": round(record["wall_seconds"], 3),
        }
        for record in store.records()
    ]
    rows.sort(
        key=lambda row: (
            (STAGES.index(row["stage"]), "") if row["stage"] in STAGES else (len(STAGES), row["stage"]),
            row["service"],
            unit_sort_key(row["unit"]),
            row["seed"],
        )
    )
    return rows


def _emit_sweep_artifacts(sweep, args: argparse.Namespace, csv_path: Optional[str]) -> None:
    """Shared sweep tail of `all --seeds` and `merge --seeds`: csv + json.

    ``--csv`` writes one CSV per stage: cross-seed aggregate statistics,
    or consensus rows for stages with no numeric metric — every planned
    stage gets a file.  ``--json`` writes the deterministic sweep document.
    """
    if csv_path:
        for path in _write_stage_csvs(csv_path, sweep.report_rows()):
            print(f"CSV written to {path}")
    if args.json_path:
        write_json(args.json_path, sweep.document())
        print(f"JSON written to {args.json_path}")


def _write_trace_file(path: Optional[str], document: Optional[dict]) -> None:
    """Write a campaign trace document for `--trace FILE`, if both exist."""
    if path is None:
        return
    if document is None:
        print(f"no trace recorded; {path} not written", file=sys.stderr)
        return
    from repro.obs.export import write_trace

    write_trace(path, document)
    print(f"trace written to {path}")


def _report_failures(failures: List) -> int:
    """Print per-cell failure summaries; nonzero when any cell failed."""
    if not failures:
        return 0
    print()
    for failure in failures:
        print(f"FAILED {failure.summary()}", file=sys.stderr)
    print(f"{len(failures)} campaign cell(s) failed", file=sys.stderr)
    return 1


def _print_merged(campaign, merged_rows: List[dict], args: argparse.Namespace, csv_path: Optional[str]) -> None:
    """Shared tail of the `merge` command: summary, accounting, csv, json."""
    print(campaign.suite.summary_text())
    print()
    print(render_table(merged_rows, title="Per-runner accounting"))
    print(
        f"merged {len(campaign.cells)} cell(s), {campaign.cpu_seconds():.2f} s of recorded cell work"
    )
    if csv_path:
        for path in _write_stage_csvs(csv_path, suite_stage_rows(campaign.suite)):
            print(f"CSV written to {path}")
    if args.json_path:
        write_json(args.json_path, campaign.results_json_dict())
        print(f"JSON written to {args.json_path}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``cloudbench`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(args.verbose - args.quiet)
    if args.command == "trace":
        # Trace inspection is read-only tooling over JSON artifacts: no
        # scenario/service resolution, no simulator imports.
        from repro.obs.cli import execute_export, execute_ls, execute_show

        if args.trace_command == "ls":
            return execute_ls(args.store)
        if args.trace_command == "show":
            return execute_show(args.target, error=parser.error)
        if args.trace_command == "export":
            return execute_export(
                input_path=args.trace_input,
                store_dir=args.trace_store,
                output=args.trace_output,
                fmt=args.trace_format,
                sim_only=args.trace_sim_only,
                error=parser.error,
            )
        parser.error(f"unknown trace command {args.trace_command!r}")  # pragma: no cover
    if args.command == "lint":
        # Lint is self-contained static analysis: no scenario/service
        # resolution, no simulator imports beyond what the spec linter needs.
        from repro.analysis.cli import execute as lint_execute

        return lint_execute(
            args.paths,
            args.lint_specs,
            as_json=args.lint_json,
            list_rules=args.lint_list_rules,
            error=parser.error,
        )
    try:
        # Register declarative specs first: spec-defined services and
        # scenarios are then first-class citizens of every flag below.
        if args.scenario_file is not None:
            register_scenarios_from_file(args.scenario_file)
        if args.services_file is not None:
            register_services_from_file(args.services_file)
        scenario = get_scenario(args.scenario)
    except ConfigurationError as error:
        parser.error(str(error))
    if args.services:
        services = [name.strip().lower() for name in args.services.split(",") if name.strip()]
        unknown = [name for name in services if name not in SERVICE_NAMES]
        if unknown:
            parser.error(f"unknown service(s): {', '.join(unknown)}; choose from {', '.join(SERVICE_NAMES)}")
    else:
        services = list(SERVICE_NAMES)

    if args.command == "capabilities":
        matrix = CapabilityProber(seed=args.seed, scenario=scenario).build_matrix(services)
        _emit(matrix.rows(), render_table(matrix.rows(), title="Table 1 - capabilities"), args.csv)
    elif args.command == "idle":
        result = IdleExperiment(services, duration=minutes(args.minutes), seed=args.seed, scenario=scenario).run()
        _emit(result.rows(), render_table(result.rows(), title="Fig. 1 - idle/background traffic"), args.csv)
    elif args.command == "datacenters":
        result = DataCenterExperiment(services, resolver_count=args.resolvers, seed=args.seed).run()
        text = render_table(result.rows(), title="Fig. 2 / Sec. 3.2 - data centers")
        edges = result.google_edge_sites()
        if edges:
            text += f"\n\nGoogle Drive edge locations discovered: {len(edges)}"
        _emit(result.rows(), text, args.csv)
    elif args.command == "connections":
        wanted = syn_series_services(services)
        result = SynSeriesExperiment(wanted, seed=args.seed, scenario=scenario).run()
        _emit(result.rows(), render_table(result.rows(), title="Fig. 3 - TCP connections (100x10kB)"), args.csv)
    elif args.command == "delta":
        result = DeltaEncodingExperiment(services, seed=args.seed, scenario=scenario).run()
        _emit(result.rows(), render_table(result.rows(), title="Fig. 4 - delta encoding"), args.csv)
    elif args.command == "compression":
        result = CompressionExperiment(services, seed=args.seed, scenario=scenario).run()
        _emit(result.rows(), render_table(result.rows(), title="Fig. 5 - compression"), args.csv)
    elif args.command == "performance":
        result = PerformanceExperiment(services, repetitions=args.repetitions, seed=args.seed, scenario=scenario).run()
        workload_order = [workload.name for workload in PAPER_WORKLOADS]
        text = "\n\n".join(
            [
                render_table(result.rows(), title="Fig. 6 - aggregated metrics"),
                render_grouped_bars(result.figure_series("startup"), group_order=workload_order, title="Fig. 6a - start-up (s)"),
                render_grouped_bars(result.figure_series("completion"), group_order=workload_order, title="Fig. 6b - completion (s)"),
                render_grouped_bars(
                    result.figure_series("overhead"), group_order=workload_order, value_format="{:.3f}", title="Fig. 6c - overhead"
                ),
            ]
        )
        _emit(result.rows(), text, args.csv)
    elif args.command == "bench":
        results = run_benchmarks(
            quick=args.quick,
            repeats=args.repeats,
            services=services,
            seed=args.seed,
            scenario=scenario,
            include_campaign=not args.skip_campaign,
        )
        document = build_document(results, environment=capture_environment())
        metric_rows = [
            {
                "metric": result.name,
                "value": f"{result.value:,.3f}",
                "unit": result.unit,
                "direction": "higher" if result.higher_is_better else "lower",
                "repeats": len(result.samples),
            }
            for result in sorted(results, key=lambda item: item.name)
        ]
        mode = "quick" if args.quick else "full"
        print(render_table(metric_rows, title=f"Engine benchmarks ({mode} suite)"))
        if args.bench_json:
            write_document(args.bench_json, document)
            print(f"Benchmark JSON written to {args.bench_json}")
        if args.bench_compare:
            try:
                baseline = load_document(args.bench_compare)
                report = compare_documents(document, baseline, tolerance_pct=args.tolerance)
            except ConfigurationError as error:
                parser.error(str(error))
            print()
            print(render_table(report.rows(), title=f"Baseline {args.bench_compare} (tolerance {args.tolerance:g}%)"))
            if not report.ok:
                names = ", ".join(delta.name for delta in report.regressions)
                print(f"PERFORMANCE REGRESSION: {names}", file=sys.stderr)
                return 1
            print("no regressions against the baseline")
    elif args.command == "all":
        jobs = args.jobs if args.jobs is not None else default_jobs()
        seeds = _campaign_seeds(parser, args)
        cache_dir = args.cache_dir
        if args.resume and cache_dir is None:
            cache_dir = DEFAULT_CACHE_DIR
        if len(seeds) > 1:
            # Seed sweep: the plan is grid x seeds, the report cross-seed
            # statistics.  (A single seed keeps the legacy campaign path —
            # and its byte-identical output — below.)
            store = ResultStore(cache_dir) if cache_dir is not None else None
            runner = _campaign_runner(
                parser, args, services, scenario, store=store, jobs=jobs, seeds=seeds,
                trace=args.trace_path is not None,
            )
            sweep = runner.run_sweep()
            print(sweep.summary_text())
            print()
            cells = sweep.cells()
            print(
                f"sweep wall-clock {sweep.wall_seconds:.2f} s for "
                f"{sweep.cpu_seconds():.2f} s of cell work over "
                f"{len(cells)} cell(s) = {len(seeds)} seed(s) x {len(cells) // len(seeds)} cell(s) "
                f"({sweep.cpu_seconds() / max(sweep.wall_seconds, 1e-9):.2f}x, jobs={runner.jobs})"
            )
            if cache_dir is not None:
                ratio = sweep.cache_hits() / len(cells) if cells else 0.0
                print(
                    f"result store {cache_dir}: {sweep.cache_hits()} hits, "
                    f"{sweep.cache_misses()} misses ({ratio:.0%} cached)"
                )
            _emit_sweep_artifacts(sweep, args, args.csv)
            if args.timings_json_path:
                write_json(args.timings_json_path, sweep.to_json_dict())
                print(f"Timings JSON written to {args.timings_json_path}")
            _write_trace_file(args.trace_path, sweep.trace)
            return _report_failures([f for campaign in sweep.campaigns for f in campaign.failures()])
        # Single seed: the same runner construction as the sweep/shard/merge
        # paths, so every plan-defining flag (--populations, --rep-cells,
        # --repetitions, ...) addresses identical store keys everywhere.
        store = ResultStore(cache_dir) if cache_dir is not None else None
        runner = _campaign_runner(
            parser, args, services, scenario, store=store, jobs=jobs,
            seeds=[seeds[0]], trace=args.trace_path is not None,
        )
        campaign = runner.run()
        result = campaign.suite
        print(result.summary_text())
        print()
        print(render_table(campaign.timing_rows(), title=f"Campaign timing (jobs={campaign.jobs})"))
        print(
            f"total wall-clock {campaign.wall_seconds:.2f} s for "
            f"{campaign.cpu_seconds():.2f} s of cell work "
            f"({campaign.cpu_seconds() / max(campaign.wall_seconds, 1e-9):.2f}x)"
        )
        if cache_dir is not None:
            total = len(campaign.cells)
            ratio = campaign.cache_hits() / total if total else 0.0
            print(
                f"result store {cache_dir}: {campaign.cache_hits()} hits, "
                f"{campaign.cache_misses()} misses ({ratio:.0%} cached)"
            )
        if args.csv:
            for path in _write_stage_csvs(args.csv, suite_stage_rows(result)):
                print(f"CSV written to {path}")
        if args.json_path:
            write_json(args.json_path, campaign.results_json_dict())
            print(f"JSON written to {args.json_path}")
        if args.timings_json_path:
            write_json(args.timings_json_path, campaign.to_json_dict())
            print(f"Timings JSON written to {args.timings_json_path}")
        _write_trace_file(args.trace_path, campaign.trace)
        return _report_failures(campaign.failures())
    elif args.command == "shard":
        jobs = args.jobs if args.jobs is not None else default_jobs()
        store = ResultStore(args.store)
        runner = _campaign_runner(
            parser, args, services, scenario, store=store, jobs=jobs, trace=args.trace_path is not None
        )
        try:
            spec = parse_shard_spec(args.shard_spec) if args.shard_spec is not None else None
            worker = ShardWorker(
                runner,
                shard=spec,
                steal=args.steal,
                runner_id=args.runner_id,
                lease_timeout=args.lease_timeout,
            )
            report = worker.run()
        except DistributionError as error:
            parser.error(str(error))
        print(render_table(report.rows(), title=f"Shard worker {report.runner} ({report.mode})"))
        if report.yielded:
            print(f"left to other live runners: {', '.join(report.yielded)}")
        print(
            f"store {args.store}: computed {len(report.computed)} cell(s), "
            f"{report.hits} already present; merge with `cloudbench merge --store {args.store}`"
        )
        if report.failed:
            print(f"FAILED cells (not stored): {', '.join(report.failed)}", file=sys.stderr)
        # A shard's per-cell flight records ride inline in its store records
        # (the merger reassembles them); the --trace file gets this worker's
        # harness half: claim/store counters and shard.cell wall spans.
        _write_trace_file(args.trace_path, runner.trace_document([]))
        if report.failed:
            return 1
    elif args.command == "merge":
        store = ResultStore(args.store)
        runner = _campaign_runner(
            parser, args, services, scenario, store=store, jobs=1, trace=args.trace_path is not None
        )
        merger = CampaignMerger(runner)
        try:
            merged = merger.collect(wait=args.wait, timeout=args.timeout)
        except DistributionError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        if len(runner.seeds) > 1:
            # A sweep merge reports cross-seed aggregates (and the sweep
            # document), not one mixed-seed suite.
            sweep = merged.sweep
            print(sweep.summary_text())
            print()
            print(render_table(merged.runner_rows(), title="Per-runner accounting"))
            print(
                f"merged {len(sweep.cells())} cell(s) across {len(runner.seeds)} seed(s), "
                f"{sweep.cpu_seconds():.2f} s of recorded cell work"
            )
            _emit_sweep_artifacts(sweep, args, args.csv)
            _write_trace_file(args.trace_path, sweep.trace)
        else:
            _print_merged(merged.campaign, merged.runner_rows(), args, args.csv)
            _write_trace_file(args.trace_path, merged.sweep.trace)
    elif args.command == "cache":
        store = ResultStore(args.store)
        if args.cache_command == "ls":
            rows = store_listing_rows(store)
            print(render_table(rows, title=f"Result store {args.store} ({len(rows)} cell(s))"))
        elif args.cache_command == "rm":
            selected = args.stage is not None or args.service is not None or args.older_than is not None or args.schema_foreign
            if args.all and selected:
                parser.error("cache rm: --all cannot be combined with --stage/--service/--older-than/--schema-foreign")
            if not args.all and not selected:
                parser.error("cache rm needs a selector: --stage, --service, --older-than, --schema-foreign or --all")
            if args.schema_foreign and (args.stage is not None or args.service is not None):
                parser.error(
                    "cache rm: --schema-foreign cannot be combined with --stage/--service "
                    "(a foreign entry's identity is not readable by this version)"
                )
            older_than = None
            if args.older_than is not None:
                try:
                    older_than = parse_duration(args.older_than)
                except ConfigurationError as error:
                    parser.error(str(error))
            removed = store.prune(
                stage=args.stage,
                service=args.service,
                older_than=older_than,
                schema_foreign=args.schema_foreign,
            )
            print(f"removed {removed} entr{'y' if removed == 1 else 'ies'} from {args.store}")
        else:  # pragma: no cover - argparse enforces the choices
            parser.error(f"unknown cache command {args.cache_command!r}")
    else:  # pragma: no cover - argparse enforces the choices
        parser.error(f"unknown command {args.command!r}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Downstream consumer (e.g. ``| head``) closed the pipe; exit
        # quietly like other Unix filters instead of dumping a traceback.
        # Point stdout at devnull so the interpreter's shutdown flush
        # does not raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
