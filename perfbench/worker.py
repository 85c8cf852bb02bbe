"""Measure one workload campaign in a fresh interpreter; spawned by ``run.py``.

    python3 perfbench/worker.py --workload NAME --seed N --dir DIR --mode setup|run [--trace] [--shrunken]

``--mode setup`` times a fresh ``import repro`` plus everything `cloudbench
all` does before it dispatches the first cell (argument parsing, registry
and spec install, plan construction, store pre-pass), then stops.

``--mode run`` drives `cloudbench all` (``repro.cli.main``) twice against
one store under ``DIR``: a cold run into the empty store, then a warm
resume that must be served entirely from the store.  With ``--trace`` the
layers' public entry points are wrapped (see ``tracing.py``) and the spans
are written to ``DIR/spans.json``.

The record of the run is written to ``DIR/record.json``.
"""

import time

# setup_s counts from here: before anything of the program is imported.
_STARTED = time.perf_counter()

import argparse
import contextlib
import hashlib
import json
import os
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import campaign_argv  # noqa: E402  (sibling module of this script)


class _Dispatched(Exception):
    """Raised at the first cell dispatch when only set-up is measured."""


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Probe:
    """Timestamps at the campaign's plan, first dispatch and result."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.plan_start = None
        self.cpu_start = None
        self.plan_s = None
        self.dispatch = None
        self.result = None

    def install(self, stop_at_dispatch: bool) -> None:
        from repro.core import campaign

        probe = self
        run = campaign.CampaignRunner.run
        cells = campaign.CampaignRunner.cells
        run_cell = campaign.run_cell

        def timed_run(self, *args, **kwargs):
            probe.plan_start = time.perf_counter()
            probe.cpu_start = _cpu_seconds()
            probe.result = run(self, *args, **kwargs)
            return probe.result

        def timed_cells(self):
            started = time.perf_counter()
            plan = cells(self)
            probe.plan_s = time.perf_counter() - started
            return plan

        def first_dispatch(cell, *args, **kwargs):
            if probe.dispatch is None:
                probe.dispatch = time.perf_counter()
                if stop_at_dispatch:
                    raise _Dispatched
            return run_cell(cell, *args, **kwargs)

        campaign.CampaignRunner.run = timed_run
        campaign.CampaignRunner.cells = timed_cells
        campaign.run_cell = first_dispatch


def _campaign(argv, main) -> int:
    """Run `cloudbench` with ``argv``; its report goes to /dev/null."""
    with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
        return main(argv)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--shrunken", action="store_true")
    args = parser.parse_args()
    work = Path(args.dir)
    store = work / "store"
    argv = campaign_argv(args.workload, args.seed, shrunken=args.shrunken) + ["--cache-dir", str(store)]

    import repro.cli

    imported = time.perf_counter()
    probe = Probe()
    probe.install(stop_at_dispatch=args.mode == "setup")
    record = {"import_s": imported - _STARTED}

    if args.mode == "setup":
        try:
            _campaign(argv, repro.cli.main)
        except _Dispatched:
            pass
        record["setup_s"] = probe.dispatch - _STARTED
        (work / "record.json").write_text(json.dumps(record, sort_keys=True))
        return 0

    recorder = None
    if args.trace:
        import tracing

        recorder = tracing.SpanRecorder()
        tracing.install(recorder)

    cold_doc = work / "cold.json"
    exit_code = _campaign(argv + ["--json", str(cold_doc)], repro.cli.main)
    ended = time.perf_counter()
    cold = probe.result
    record.update(
        setup_s=probe.dispatch - _STARTED,
        plan_s=probe.plan_s,
        wall_s=ended - probe.plan_start,
        cpu_s=_cpu_seconds() - probe.cpu_start,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        exit_code=exit_code,
        cold_sha256=_sha256(cold_doc),
        document_bytes=cold_doc.stat().st_size,
        cells=[[result.cell.stage, result.wall_seconds, result.failed] for result in cold.cells],
    )

    probe.reset()
    if recorder is not None:
        recorder.phase = "warm"
    warm_doc = work / "warm.json"
    warm_exit = _campaign(argv + ["--json", str(warm_doc)], repro.cli.main)
    warm = probe.result
    record.update(
        warm_exit_code=warm_exit,
        warm_sha256=_sha256(warm_doc),
        warm_cells=len(warm.cells),
        warm_hits=warm.cache_hits(),
    )

    if recorder is not None:
        record["self_s"] = recorder.self_times("cold")
        record["warm_self_s"] = recorder.self_times("warm")
        record["counts"] = dict(recorder.counts["cold"])
        record["warm_counts"] = dict(recorder.counts["warm"])
        recorder.write(str(work / "spans.json"))
    (work / "record.json").write_text(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
