"""Serving-layer benchmark: cache hit latency, fleet drain, lease cost.

Measures the three numbers the serving layer is sold on and writes them
to ``.bench-out/BENCH_serve.json`` (the committed ``BENCH_serve.json`` at
the repo root with ``REPRO_BENCH_UPDATE=1``, so reviewers can diff
serving-regression claims against the tree):

* **cache hit latency** — wall time for a daemon pass to fill an entire
  identical campaign from the content-addressed cache, per cell, versus
  the execution time it displaced;
* **drain throughput** — cells/second for a single daemon versus a
  three-daemon fleet leasing cells out of one store;
* **lease overhead** — raw claim/release round trips per second, plus
  the relative wall-time cost of running a drain with leasing enabled.

Run with ``pytest -m benchmarks benchmarks/test_serve_bench.py -s``.
"""

from __future__ import annotations

import json
import threading
import time

from repro.api import Session, campaign, drain_once
from repro.config import SamplingConfig
from repro.runtime import RunStore
from repro.serve.cache import ResultCache
from repro.serve.leases import LeaseManager

from conftest import bench_output, bench_scale


_SCALED = {
    "smoke": SamplingConfig(population_size=16, n_complexes=4, iterations=4),
    "default": SamplingConfig(population_size=32, n_complexes=8, iterations=10),
    "paper": SamplingConfig(population_size=64, n_complexes=16, iterations=30),
}

QUIET = lambda _line: None  # noqa: E731


def _grid(campaign_id: str, config: SamplingConfig):
    return campaign(
        campaign_id,
        ["1cex(40:51)", "1akz(181:192)"],
        {"bench": config},
        seeds=2,
        backends="gpu",
        base_seed=29,
        checkpoint_every=4,
        workers=1,
    )


def _drain_fleet(store, handle, n_daemons: int, cache=None) -> float:
    """Wall time for ``n_daemons`` leased threads to drain the store."""

    def run(daemon_id):
        manager = LeaseManager(store, daemon_id=daemon_id, ttl_seconds=30.0)
        while not handle.status().complete:
            drain_once(store, workers=1, progress=QUIET, leases=manager, cache=cache)
            time.sleep(0.005)

    threads = [
        threading.Thread(target=run, args=(f"bench-{i}",), daemon=True)
        for i in range(n_daemons)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=600)
    return time.perf_counter() - start


def test_serve_benchmarks(tmp_path, capsys):
    scale = bench_scale()
    config = _SCALED.get(scale, _SCALED["smoke"])
    cache = ResultCache(tmp_path / "cache")
    report: dict = {"scale": scale, "config": {
        "population_size": config.population_size,
        "n_complexes": config.n_complexes,
        "iterations": config.iterations,
        "n_cells": 4,
    }}

    # --- single-daemon execution (primes the cache) --------------------
    store_one = RunStore(str(tmp_path / "one"))
    handle = Session(store_one).submit(_grid("bench-exec", config))
    start = time.perf_counter()
    primed = drain_once(store_one, workers=1, progress=QUIET, cache=cache)
    exec_seconds = time.perf_counter() - start
    assert primed.executed == 4 and primed.failed == 0
    n_cells = primed.executed
    report["drain"] = {
        "n_cells": n_cells,
        "single_daemon_seconds": round(exec_seconds, 4),
        "single_daemon_cells_per_s": round(n_cells / exec_seconds, 3),
    }

    # --- cache hit latency: an identical campaign fills in O(ms) -------
    store_hit = RunStore(str(tmp_path / "hit"))
    hit_handle = Session(store_hit).submit(_grid("bench-hit", config))
    start = time.perf_counter()
    hits = drain_once(store_hit, workers=1, progress=QUIET, cache=cache)
    hit_seconds = time.perf_counter() - start
    assert hits.cache_hits == n_cells and hits.executed == 0
    assert hit_handle.status().complete
    per_cell_ms = 1000.0 * hit_seconds / n_cells
    report["cache"] = {
        "fill_pass_seconds": round(hit_seconds, 4),
        "hit_latency_ms_per_cell": round(per_cell_ms, 3),
        "speedup_vs_execution": round(exec_seconds / hit_seconds, 1),
    }
    # The headline property: a hit costs milliseconds, not sampler time.
    assert hit_seconds < exec_seconds / 5.0

    # --- three-daemon fleet drain over one store -----------------------
    store_fleet = RunStore(str(tmp_path / "fleet"))
    fleet_handle = Session(store_fleet).submit(_grid("bench-fleet", config))
    fleet_seconds = _drain_fleet(store_fleet, fleet_handle, n_daemons=3)
    assert fleet_handle.status().complete
    report["drain"]["three_daemon_seconds"] = round(fleet_seconds, 4)
    report["drain"]["three_daemon_cells_per_s"] = round(
        n_cells / fleet_seconds, 3
    )

    # --- lease protocol overhead ---------------------------------------
    store_lease = RunStore(str(tmp_path / "leases"))
    manager = LeaseManager(store_lease, daemon_id="bench", ttl_seconds=30.0)
    store_lease.create_run(_grid("bench-lease", config), exist_ok=True)
    rounds = 200
    start = time.perf_counter()
    for i in range(rounds):
        index = i % n_cells
        assert manager.claim("bench-lease", index)
        manager.renew("bench-lease", index)
        manager.release("bench-lease", index)
    lease_seconds = time.perf_counter() - start
    ops_per_s = 3 * rounds / lease_seconds
    report["leases"] = {
        "claim_renew_release_ops_per_s": round(ops_per_s, 1),
        "round_trip_ms": round(1000.0 * lease_seconds / rounds, 4),
    }

    # A leased single-daemon drain of the same workload: relative cost.
    store_rel = RunStore(str(tmp_path / "rel"))
    rel_handle = Session(store_rel).submit(_grid("bench-rel", config))
    rel_manager = LeaseManager(store_rel, daemon_id="rel", ttl_seconds=30.0)
    start = time.perf_counter()
    rel = drain_once(store_rel, workers=1, progress=QUIET, leases=rel_manager)
    leased_seconds = time.perf_counter() - start
    assert rel.executed == n_cells and rel_handle.status().complete
    report["leases"]["drain_overhead_fraction"] = round(
        max(0.0, leased_seconds / exec_seconds - 1.0), 4
    )

    output = bench_output("BENCH_serve.json")
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    with capsys.disabled():
        print(f"\nwrote {output}")
        print(json.dumps(report, indent=2, sort_keys=True))
