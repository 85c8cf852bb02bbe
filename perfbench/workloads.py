"""The benchmark's workloads: `cloudbench all` argument lists, full and shrunken.

Every workload is a cold `cloudbench all --jobs 1` run into a fresh result
store.  The benchmark seed becomes the campaign's ``--seed``, which is the
only source of the synthetic file content, DNS resolver sets and session
arrivals the campaign simulates.  ``--jobs 1`` keeps the numbers about the
simulation engine, not the process pool.
"""

from __future__ import annotations

from typing import Dict, List

#: Seed whose results-document digest is recorded in ``digests.json``.
DEFAULT_SEED = 20131023

#: Full workloads, as measured by ``run.py --workload NAME``.
WORKLOADS: Dict[str, List[str]] = {
    # The default plan a reproduction user runs: 5 services x 8 stages,
    # 72 cells.  Content layers (text synthesis, zlib, delta, chunking) do
    # most of the work, on compressible text, large files and delta edits.
    "paper-grid": [
        "all", "--jobs", "1",
        "--repetitions", "2", "--minutes", "16", "--resolvers", "300",
        "--populations", "1k,10k",
    ],
    # 147 cells of packet/flow simulation, capture analysis, geo discovery
    # and the fluid population engine.  Its files are many small
    # incompressible binaries with no delta, so it is the no-change control
    # for content-layer cuts and the main workload for netsim/load cuts.
    "netsim-load": [
        "all", "--jobs", "1",
        "--stages", "performance,idle,syn_series,datacenters,load",
        "--repetitions", "6", "--rep-cells",
        "--populations", "1k,10k,100k", "--resolvers", "500",
    ],
}

#: Shrunken versions for ``run.py --self-check``: same stages and layers,
#: one service and minimal sizes, a few seconds each.  Google Drive
#: compresses (smart policy), deltas and has per-file connections, so the
#: shrunken grid still reaches every content layer.
SHRUNKEN: Dict[str, List[str]] = {
    "paper-grid": [
        "--services", "googledrive",
        "all", "--jobs", "1",
        "--repetitions", "1", "--minutes", "1", "--resolvers", "20",
        "--populations", "1k",
    ],
    "netsim-load": [
        "--services", "googledrive",
        "all", "--jobs", "1",
        "--stages", "performance,idle,syn_series,datacenters,load",
        "--repetitions", "1", "--rep-cells",
        "--populations", "1k", "--resolvers", "20", "--minutes", "1",
    ],
}


def campaign_argv(workload: str, seed: int, *, shrunken: bool = False) -> List[str]:
    """The `cloudbench` argv (without store and output flags) of one workload."""
    table = SHRUNKEN if shrunken else WORKLOADS
    return ["--seed", str(seed), *table[workload]]


def digest_key(workload: str, shrunken: bool) -> str:
    """Key of a workload's default-seed document digest in ``digests.json``."""
    return f"{workload}@shrunken" if shrunken else workload
