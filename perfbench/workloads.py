"""The benchmark's two workloads and the checks on their outputs.

Each workload is driven through the program's public API only.  Why each
one exists, and what choosing them found, is in ``perfbench/README.md``.

* ``paper-iteration`` -- one ``gpu`` cell at 128 members per complex with
  ``iterations=1`` (initialisation included), the paper's iteration at the
  largest population a run can repeat: population fitness is quadratic in
  the population, so this is where a fitness change shows.
* ``campaign-drain`` -- a 16-cell campaign submitted, drained through a
  fresh two-worker pool with leases and a cold result cache, then read
  back; then resubmitted into fresh stores, each filled purely from the
  cache the drain wrote.  A closed batch, not an open loop.
"""

from __future__ import annotations

import hashlib
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from perfbench.spans import RECORDER


#: Cells a sampler run repeats at least: the second checks the first's digests.
MIN_CELLS = 2


@dataclass(frozen=True)
class SamplerWorkload:
    """Repeated single cells, in this process, under one seed."""

    target: str
    config: Dict[str, int]


@dataclass(frozen=True)
class DrainWorkload:
    """One campaign drained through the program's pool, then resubmitted."""

    targets: Tuple[str, ...]
    seeds: int
    backends: Tuple[str, ...]
    config: Dict[str, int]
    checkpoint_every: int
    workers: int
    resubmissions: int


WORKLOADS = {
    "paper-iteration": SamplerWorkload(
        "1cex(40:51)", {"population_size": 2048, "n_complexes": 16, "iterations": 1}
    ),
    "campaign-drain": DrainWorkload(
        targets=("1cex(40:51)", "1akz(181:192)"),
        seeds=4,
        backends=("gpu", "xp"),
        config={"population_size": 64, "n_complexes": 4, "iterations": 8},
        checkpoint_every=1,
        workers=2,
        resubmissions=8,
    ),
}


@dataclass
class Outcome:
    """What one run measured and checked."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    unclosed_decoys: int = 0
    digests: Dict[str, str] = field(default_factory=dict)
    #: Digests of an earlier correct run of the same seed and source.
    reference: Dict[str, str] = field(default_factory=dict)
    samples: Dict[str, List[float]] = field(default_factory=dict)

    def record(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)

    def same_digests(self, digests: Dict[str, str]) -> bool:
        """Whether a unit's digests repeat the reference (or the run's first)."""
        if not self.digests:
            self.digests = dict(digests)
        return digests == (self.reference or self.digests)


def digest(*arrays: np.ndarray) -> str:
    """Short sha256 of the arrays' bytes (dtype and shape included)."""
    h = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        h.update(f"{array.dtype}{array.shape}".encode())
        h.update(array.tobytes())
    return h.hexdigest()[:16]


def unclosed_decoys(
    target, config, torsions: np.ndarray, initial: np.ndarray
) -> Tuple[int, int]:
    """Decoys that miss the closure tolerance, and those among them that
    are not untouched initial members.

    The Metropolis step admits only proposals within the closure tolerance;
    the initial population is not gated, so an initial member that CCD
    never closed can survive into the decoy set.  The first count reports
    that; the second must be zero.
    """
    _, closure = target.build_batch(torsions)
    limit = config.ccd_tolerance * config.closure_tolerance_factor
    unclosed = torsions[target.closure_error_batch(closure) > limit]
    initial_rows = {row.tobytes() for row in initial}
    return len(unclosed), sum(row.tobytes() not in initial_rows for row in unclosed)


# ---------------------------------------------------------------------------
# Sampler workloads
# ---------------------------------------------------------------------------


def run_cell(
    sampler, seed: int
) -> Tuple[float, List[float], Dict[str, str], Tuple[int, int]]:
    """One cell: initial state, iterations, finalize and decoy harvest."""
    steps: List[float] = []
    with RECORDER.span("bench.cell"):
        start = time.perf_counter()
        state = sampler.initial_state(seed=seed)
        initial = state.population.torsions.copy()
        while state.iteration < sampler.config.iterations:
            begin = time.perf_counter()
            sampler.step(state)
            steps.append(time.perf_counter() - begin)
        result = sampler.finalize_state(state)
        decoys = result.distinct_non_dominated()
        wall = time.perf_counter() - start
    torsions = np.array([d.torsions for d in decoys])
    digests = {"scores": digest(result.population.scores), "decoys": digest(torsions)}
    unclosed = unclosed_decoys(sampler.target, sampler.config, torsions, initial)
    return wall, steps, digests, unclosed


def sampler_phase(
    workload: SamplerWorkload,
    seed: int,
    seconds: float,
    cells: int,
    multi_score,
    outcome: Outcome,
    tag: str,
) -> Tuple[List[float], List[float]]:
    """Run cells until ``seconds`` pass (at least ``cells``); check each."""
    from perfbench.setup_probe import build_sampler

    walls: List[float] = []
    steps: List[float] = []
    start = time.perf_counter()
    while len(walls) < cells or time.perf_counter() - start < seconds:
        sampler = build_sampler(workload.target, workload.config, multi_score)
        wall, cell_steps, digests, (unclosed, admitted) = run_cell(sampler, seed)
        walls.append(wall)
        steps.extend(cell_steps)
        outcome.unclosed_decoys = unclosed
        same = outcome.same_digests(digests)
        outcome.record(
            admitted == 0 and same,
            f"{tag} cell {len(walls)}: {admitted} unclosed decoys were accepted "
            f"proposals; digests {digests} repeat: {same}",
        )
    return walls, steps


# ---------------------------------------------------------------------------
# Campaign drain
# ---------------------------------------------------------------------------


def _decoy_arrays(store, cell) -> Dict[str, np.ndarray]:
    with np.load(store.shard_dir(cell.run_id, cell.index) / "decoys.npz") as data:
        return {name: data[name] for name in ("torsions", "coords", "scores", "rmsd")}


def drain_unit(
    workload: DrainWorkload,
    seed: int,
    scratch: Path,
    outcome: Outcome,
) -> Tuple[float, List[float], List[float]]:
    """Submit, drain and read back the campaign, then resubmit it.

    Returns the drain wall time, the per-cell wall times the workers
    recorded, and the wall time of each cache-filled resubmission.
    """
    from repro.api import Session
    from repro.api.campaign import campaign
    from repro.api.daemon import drain_once
    from repro.api.session import CampaignIncomplete
    from repro.config import SamplingConfig
    from repro.runtime.executor import PersistentPool
    from repro.runtime.store import RunStore
    from repro.serve.cache import ResultCache
    from repro.serve.leases import LeaseManager

    camp = campaign(
        f"drain-{seed}",
        targets=list(workload.targets),
        configs=SamplingConfig(**workload.config),
        seeds=workload.seeds,
        backends=list(workload.backends),
        base_seed=seed,
        checkpoint_every=workload.checkpoint_every,
        workers=workload.workers,
    )
    cells = camp.cells()
    cache = ResultCache(scratch / "cache")
    store = RunStore(scratch / "store")
    pool = PersistentPool(workload.workers)
    try:
        with RECORDER.span("bench.drain"):
            start = time.perf_counter()
            handle = Session(store=store, cache=cache).submit(camp)
            with RECORDER.span("api.drain"):
                report = drain_once(
                    store,
                    workers=workload.workers,
                    pool=pool,
                    leases=LeaseManager(store, daemon_id="perfbench"),
                    cache=cache,
                )
            try:
                result = handle.result()
            except CampaignIncomplete as exc:
                result = None
                problem = f"drain incomplete: {exc} {report.errors}"
            wall = time.perf_counter() - start
    finally:
        pool.close()
    if result is None:
        for _ in cells:
            outcome.record(False, problem)
        return wall, [], []

    arrays = {cell.index: _decoy_arrays(store, cell) for cell in cells}
    by_coordinates: Dict[Tuple, List[int]] = {}
    for cell in cells:
        by_coordinates.setdefault(
            (cell.target, cell.config_name, cell.seed_index), []
        ).append(cell.index)
    mismatched = set()
    for indices in by_coordinates.values():
        first = arrays[indices[0]]
        for index in indices[1:]:
            if any(
                first[name].tobytes() != arrays[index][name].tobytes()
                for name in first
            ):
                mismatched.update(indices)
    journal = store.canonical_journal(camp.run_id)
    digests = {
        "drain_decoys": digest(*(a for c in cells for a in arrays[c.index].values())),
        "drain_journal": hashlib.sha256(journal).hexdigest()[:16],
    }
    same = outcome.same_digests(digests)
    for cell in cells:
        outcome.record(
            report.executed == len(cells)
            and cell.index not in mismatched
            and same,
            f"drain cell {cell.name}: {report.executed} of {len(cells)} cells "
            f"executed; gpu/xp identical: {cell.index not in mismatched}; "
            f"digests {digests} repeat: {same}",
        )
    decoy_bytes = {
        cell.index: (store.shard_dir(cell.run_id, cell.index) / "decoys.npz").read_bytes()
        for cell in cells
    }

    resubmits: List[float] = []
    for round_ in range(workload.resubmissions):
        fresh = RunStore(scratch / f"resubmit-{round_}")
        with RECORDER.span("bench.resubmit"):
            start = time.perf_counter()
            try:
                Session(store=fresh, cache=cache).submit(camp).result()
                complete = True
            except CampaignIncomplete:
                complete = False
            resubmits.append(time.perf_counter() - start)
        same_journal = fresh.canonical_journal(camp.run_id) == journal
        for cell in cells:
            path = fresh.shard_dir(cell.run_id, cell.index) / "decoys.npz"
            same_decoys = path.is_file() and path.read_bytes() == decoy_bytes[cell.index]
            outcome.record(
                complete and same_journal and same_decoys,
                f"resubmission {round_} cell {cell.name}: complete={complete} "
                f"journal={same_journal} decoys={same_decoys}",
            )
        shutil.rmtree(scratch / f"resubmit-{round_}", ignore_errors=True)
    return wall, [t.wall_seconds for t in result.trajectories], resubmits

