"""cloudbench benchmark: end-to-end and per-layer metrics of `cloudbench all`.

    python3 perfbench/run.py --workload paper-grid --seed 20131023 --seconds 50 --trace 0
    python3 perfbench/run.py --self-check

Run from anywhere; the program is imported from ``src/`` next to this
directory.  Progress goes to stderr; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` measures the end-to-end metrics: a few set-up-only samples,
then cold campaigns (each followed by its warm resume) for as many as fit in
``--seconds``, always at least one, reporting medians.  ``--trace 1`` runs
one untraced and one traced campaign, whatever ``--seconds`` says, and
reports the per-layer metrics.
Every campaign passes the correctness gate (see ``README.md``) or counts
its cells as failed.  ``--self-check`` validates ``BENCHMARK.json`` and runs
the shrunken workloads through the gate.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import layers
from workloads import DEFAULT_SEED, WORKLOADS, digest_key

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"

#: Set-up-only interpreter starts per ``--trace 0`` run, on top of the one
#: each measured campaign contributes.
SETUP_SAMPLES = 5
#: Every worker of a run must end within this many seconds of the run's
#: start; a worker still running then is killed and the run fails.
RUN_DEADLINE_S = 170

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class BenchmarkError(Exception):
    """The benchmark could not measure (as opposed to a wrong program output)."""


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def expected_digest(workload: str, seed: int, shrunken: bool) -> Optional[str]:
    """The recorded default-seed document digest, or None for other seeds."""
    if seed != DEFAULT_SEED:
        return None
    digests = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    return digests[digest_key(workload, shrunken)]


def gate(record: dict, reference_sha: Optional[str]) -> List[str]:
    """Correctness problems of one worker ``run`` record (empty when correct).

    The cold document must equal the warm resume's, the resume must be all
    store hits, and the document must equal ``reference_sha`` when given
    (the recorded digest, or the first document of the run).
    """
    problems = []
    if record["exit_code"] != 0 or record["warm_exit_code"] != 0:
        problems.append(f"cloudbench exited {record['exit_code']} cold / {record['warm_exit_code']} warm")
    if record["cold_sha256"] != record["warm_sha256"]:
        problems.append("warm-resume document differs from the cold-run document")
    if record["warm_cells"] == 0 or record["warm_hits"] != record["warm_cells"]:
        problems.append(f"warm resume store.hit_ratio {record['warm_hits']}/{record['warm_cells']}, not 1.0")
    if reference_sha is not None and record["cold_sha256"] != reference_sha:
        problems.append(f"document sha256 {record['cold_sha256']} != expected {reference_sha}")
    return problems


class Run:
    """One benchmark run of one workload and seed: its workers and their tally."""

    def __init__(self, workload: str, seed: int, work: Path, *, shrunken: bool = False) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.shrunken = shrunken
        self.started = time.perf_counter()
        self.reference = expected_digest(workload, seed, shrunken)
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def worker(self, name: str, mode: str, *, trace: bool = False) -> dict:
        """Run ``worker.py`` in a fresh interpreter and return its record."""
        work = self.work / name
        work.mkdir(parents=True)
        command = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", self.workload, "--seed", str(self.seed), "--dir", str(work), "--mode", mode,
        ]
        if trace:
            command.append("--trace")
        if self.shrunken:
            command.append("--shrunken")
        remaining = RUN_DEADLINE_S - (time.perf_counter() - self.started)
        if remaining <= 0:
            raise BenchmarkError(f"run exceeded {RUN_DEADLINE_S} s")
        completed = subprocess.run(
            command, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=remaining
        )
        if completed.returncode != 0:
            raise BenchmarkError(f"worker {name} exited {completed.returncode}:\n{completed.stderr[-2000:]}")
        return json.loads((work / "record.json").read_text(encoding="utf-8"))

    def check(self, record: dict, extra_problems: Sequence[str] = ()) -> None:
        """Gate one campaign record and add its cells to the tally.

        The first document of a run becomes the reference for the others
        when no digest is recorded for the seed.
        """
        if self.reference is None:
            self.reference = record["cold_sha256"]
        problems = gate(record, self.reference) + list(extra_problems)
        cells = len(record["cells"])
        self.attempted += cells
        if problems:
            self.failed += cells  # a gate miss fails the whole campaign
            self.problems.extend(problems)
        else:
            self.failed += sum(1 for cell in record["cells"] if cell[2])

    def end_to_end(self, seconds: float) -> Dict[str, float]:
        """Set-up samples, then cold campaigns while the next one fits in ``seconds``."""
        setup = [self.worker(f"setup{index}", "setup")["setup_s"] for index in range(SETUP_SAMPLES)]
        records = []
        while True:
            began = time.perf_counter()
            record = self.worker(f"run{len(records)}", "run")
            self.check(record)
            records.append(record)
            setup.append(record["setup_s"])
            log(f"{self.workload} seed {self.seed}: campaign {len(records)} wall {record['wall_s']:.2f} s")
            now = time.perf_counter()
            if now - self.started + (now - began) > seconds:
                break
        return {
            "setup_s": statistics.median(setup),
            "campaign_wall_s": statistics.median(record["wall_s"] for record in records),
            "campaign_cpu_s": statistics.median(record["cpu_s"] for record in records),
            "peak_rss_mb": statistics.median(record["peak_rss_mb"] for record in records),
        }

    def per_layer(self) -> Dict[str, float]:
        """One untraced and one traced campaign; the per-layer metrics."""
        untraced = self.worker("untraced", "run")
        self.check(untraced)
        traced = self.worker("traced", "run", trace=True)
        metrics = layers.per_layer_metrics(untraced, traced)
        problems = []
        if metrics["trace.unattributed_s"] < -layers.TRACED_WALL_TOLERANCE_S:
            problems.append(f"layer self times exceed the traced wall by {-metrics['trace.unattributed_s']:.6f} s")
        self.check(traced, problems)
        suffix = "-shrunken" if self.shrunken else ""
        shutil.copyfile(self.work / "traced" / "spans.json", WORK / f"spans-{self.workload}{suffix}.json")
        return metrics

    def result(self, values: Dict[str, float], declared: List[dict]) -> str:
        """The result line: correctness, tally and the declared metrics."""
        missing = [metric["name"] for metric in declared if metric["name"] not in values]
        if missing:
            raise BenchmarkError(f"no value measured for {', '.join(missing)}")
        return json.dumps(
            {
                "correct": not self.problems,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
            },
            sort_keys=True,
        )


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def benchmark_problems(benchmark: dict) -> List[str]:
    """Static checks of ``BENCHMARK.json`` against the benchmark's own code."""
    problems = []
    workloads = [workload["name"] for workload in benchmark["workloads"]]
    end_to_end = benchmark["end_to_end"]
    per_layer = benchmark["per_layer"]
    names = workloads + [metric["name"] for metric in end_to_end + per_layer]
    problems += [f"bad name {name!r}" for name in names if not NAME.match(name)]
    problems += [f"name used twice: {name}" for name in sorted(set(names)) if names.count(name) > 1]
    problems += [f"bad unit {m['unit']!r} of {m['name']}" for m in end_to_end + per_layer if not UNIT.match(m["unit"])]
    if not 1 <= len(end_to_end) <= 16:
        problems.append(f"{len(end_to_end)} end-to-end metrics, allowed 1 to 16")
    if not 1 <= len(per_layer) <= 128:
        problems.append(f"{len(per_layer)} per-layer metrics, allowed 1 to 128")
    if sorted(workloads) != sorted(WORKLOADS):
        problems.append(f"workloads {workloads} do not match workloads.py {sorted(WORKLOADS)}")
    if not any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower" for m in end_to_end):
        problems.append("no setup_s end-to-end metric")
    problems += [f"bound of {m['name']} not in (0, 0.25]" for m in end_to_end if not 0 < m["bound"] <= 0.25]
    declared = sorted(metric["name"] for metric in per_layer)
    if declared != layers.metric_names():
        problems.append("per-layer metrics differ from layers.py: "
                        f"{sorted(set(declared) ^ set(layers.metric_names()))}")
    allowed_moves = {metric["name"] for metric in end_to_end} | {"failed", "none"}
    for name in declared:
        try:
            moves, targets = layers.expectation(name)
        except KeyError:
            problems.append(f"per-layer metric {name} names no end-to-end metric and workload")
            continue
        if not set(moves) <= allowed_moves or not set(targets) <= set(workloads):
            problems.append(f"per-layer metric {name}: unknown target {moves} on {targets}")
    return problems


def self_check(work: Path) -> int:
    """Validate BENCHMARK.json, then pass each shrunken workload through the gate."""
    problems = benchmark_problems(load_benchmark())
    for problem in problems:
        log(f"BENCHMARK.json: {problem}")
    for workload in sorted(WORKLOADS):
        run = Run(workload, DEFAULT_SEED, work / workload, shrunken=True)
        metrics = run.per_layer()
        log(
            f"{workload} (shrunken): {run.attempted} cells, {run.failed} failed, traced wall "
            f"{metrics['trace.overhead_ratio']:.2f}x untraced, unattributed {metrics['trace.unattributed_s']:.3f} s"
        )
        problems += [f"{workload} (shrunken): {problem}" for problem in run.problems]
    print(json.dumps({"ok": not problems, "problems": problems}, sort_keys=True))
    return 0 if not problems else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true", help="validate BENCHMARK.json and the gate, quickly")
    args = parser.parse_args(argv)
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        log(f"no cloudbench sources under {ROOT / 'src'}; run from a checkout of the repository")
        return 2
    work = WORK / f"{args.workload or 'self-check'}-{args.seed}-{time.time_ns()}"
    try:
        if args.self_check:
            return self_check(work)
        benchmark = load_benchmark()
        run = Run(args.workload, args.seed, work)
        if args.trace:
            values = run.per_layer()
            declared = benchmark["per_layer"]
        else:
            seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
            values = run.end_to_end(seconds)
            declared = benchmark["end_to_end"]
        for problem in run.problems:
            log(f"INCORRECT: {problem}")
        print(run.result(values, declared))
        return 0
    except (BenchmarkError, subprocess.TimeoutExpired) as error:
        log(f"error: {error}")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
