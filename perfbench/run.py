"""Run one workload of the loop-sampler benchmark and print its metrics.

    python3 perfbench/run.py --workload paper-iteration --seed 1 --seconds 20 --trace 0

Run from the root of a checkout (``src/`` beside ``perfbench/``).  With
``--trace 0`` the last line of standard output is a JSON object whose
``metrics`` are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` they are the per-layer metrics, from a traced run that also
repeats the workload untraced to measure the tracing overhead.  Earlier
lines print the run's digests and the path of its result document, which
holds the provenance and every raw sample.  The exit code is 0 only when
every output check passed and the run left tracked files alone.

Everything the run writes goes under ``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_SAMPLES = 3


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _git(*args: str) -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=60
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout if done.returncode == 0 else None


def tracked_state() -> Dict[str, Any]:
    """What a run must leave alone: git status, ``.repro-runs/``, BENCH files."""
    runs = ROOT / ".repro-runs"
    return {
        "git_status": _git("status", "--porcelain"),
        "repro_runs": sorted(
            (str(p.relative_to(ROOT)), p.stat().st_size, p.stat().st_mtime_ns)
            for p in runs.rglob("*")
        )
        if runs.is_dir()
        else None,
        "bench_files": {p.name: _sha256_file(p) for p in sorted(ROOT.glob("BENCH_*.json"))},
    }


def source_digest() -> str:
    """sha256 over every file under ``src/`` (the checkout may have no git)."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def provenance(seed: int, git_status: Optional[str]) -> Dict[str, Any]:
    import numpy

    try:
        import scipy

        scipy_version: Optional[str] = scipy.__version__
    except ImportError:
        scipy_version = None
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = _git("rev-parse", "HEAD")
    return {
        "git_sha": sha.strip() if sha else None,
        "git_dirty": bool(git_status.strip()) if git_status is not None else None,
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "seed": seed,
    }


def setup_samples(target: str, config: Dict[str, int]) -> List[float]:
    """Seconds from process start until a fresh interpreter's sampler is ready."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(
            [
                sys.executable,
                str(ROOT / "perfbench" / "setup_probe.py"),
                str(SRC),
                target,
                json.dumps(config),
            ],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return samples


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _median(values: List[float]) -> float:
    # A unit that failed outright leaves no samples; its run is reported
    # as incorrect, with every metric it could not measure at 0.
    return float(statistics.median(values)) if values else 0.0


def _mean(values: List[float]) -> float:
    # Cell and iteration times are averaged over the whole run, not taken
    # as medians: the host's speed drifts over tens of seconds, and the
    # drain's gpu and xp cells form two clusters a median falls between.
    return float(statistics.fmean(values)) if values else 0.0


def run_sampler(workload, args, outcome) -> Dict[str, float]:
    from perfbench.layers import layer_table
    from perfbench.setup_probe import build_sampler
    from perfbench.spans import RECORDER
    from perfbench.workloads import MIN_CELLS, sampler_phase

    RECORDER.enabled = bool(args.trace)
    with RECORDER.span("bench.setup"):
        multi_score = build_sampler(workload.target, workload.config).multi_score
    RECORDER.enabled = False
    walls, steps = sampler_phase(
        workload, args.seed, args.seconds, MIN_CELLS, multi_score, outcome, "untraced"
    )
    outcome.samples.update(cell_wall_s=walls, step_s=steps)
    if not args.trace:
        rss = peak_rss_mb()
        setups = setup_samples(workload.target, workload.config)
        outcome.samples["setup_s"] = setups
        return {
            "setup_s": _median(setups),
            "cell_wall_s": _mean(walls),
            "iteration_s": _mean(steps),
            "cells_per_s": len(walls) / sum(walls),
            "peak_rss_mb": rss,
        }
    RECORDER.enabled = True
    traced, _ = sampler_phase(
        workload, args.seed, 0.0, len(walls), multi_score, outcome, "traced"
    )
    RECORDER.enabled = False
    outcome.samples["traced_cell_wall_s"] = traced
    return layer_table(
        RECORDER.take(),
        units=len(traced),
        workers=1,
        resubmit_cells_per_s=0.0,
        trace_overhead=_median(traced) / _median(walls) - 1.0,
    )


def run_drain(workload, args, outcome, scratch, span_dir) -> Dict[str, float]:
    from perfbench.layers import layer_table
    from perfbench.spans import RECORDER, load_worker_spans
    from perfbench.workloads import drain_unit

    def phase(units: int, seconds: float, tag: str):
        drains, cell_walls, resubmits = [], [], []
        start = time.perf_counter()
        while len(drains) < units or time.perf_counter() - start < seconds:
            wall, cells, again = drain_unit(
                workload, args.seed, scratch / f"{tag}-{len(drains)}", outcome
            )
            drains.append(wall)
            cell_walls.extend(cells)
            resubmits.extend(again)
        return drains, cell_walls, resubmits

    drains, cell_walls, resubmits = phase(1, args.seconds, "untraced")
    n_cells = len(workload.targets) * workload.seeds * len(workload.backends)
    iterations = workload.config["iterations"]
    outcome.samples.update(drain_s=drains, cell_wall_s=cell_walls, resubmit_s=resubmits)
    resubmit_rate = n_cells / _median(resubmits) if resubmits else 0.0
    if not args.trace:
        rss = peak_rss_mb()
        setups = setup_samples(workload.targets[0], workload.config)
        outcome.samples["setup_s"] = setups
        return {
            "setup_s": _median(setups),
            "cell_wall_s": _mean(cell_walls),
            "iteration_s": _mean(cell_walls) / iterations,
            "cells_per_s": n_cells / _median(drains),
            "peak_rss_mb": rss,
        }
    RECORDER.enabled = True
    traced, _, _ = phase(len(drains), 0.0, "traced")
    RECORDER.enabled = False
    outcome.samples["traced_drain_s"] = traced
    return layer_table(
        RECORDER.take() + load_worker_spans(span_dir),
        units=len(traced),
        workers=workload.workers,
        resubmit_cells_per_s=resubmit_rate,
        trace_overhead=_median(traced) / _median(drains) - 1.0,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (SRC / "repro").is_dir():
        print(f"no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import spans
    from perfbench.workloads import WORKLOADS, DrainWorkload, Outcome

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    before = tracked_state()
    info = provenance(args.seed, before["git_status"])
    key = f"{args.workload}:{args.seed}:{info['src_sha256']}"
    digest_file = OUT / "digests.json"
    known = json.loads(digest_file.read_text()) if digest_file.is_file() else {}

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    span_dir = scratch / "spans"
    outcome = Outcome(reference=known.get(key, {}))
    try:
        if args.trace:
            spans.install(span_dir)
        if isinstance(workload, DrainWorkload):
            metrics = run_drain(workload, args, outcome, scratch, span_dir)
        else:
            metrics = run_sampler(workload, args, outcome)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if tracked_state() != before:
        outcome.problems.append("the run changed tracked files or .repro-runs/")
    correct = not outcome.problems
    if correct and key not in known:
        known[key] = outcome.digests
        tmp = digest_file.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, digest_file)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in declared}
    if sorted(units) != sorted(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    document = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": info,
        "digests": outcome.digests,
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "unclosed_decoys_per_cell": outcome.unclosed_decoys,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "samples": outcome.samples,
    }
    results = OUT / "results"
    results.mkdir(exist_ok=True)
    path = results / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-"
        f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json"
    )
    path.write_text(json.dumps(document, indent=1, sort_keys=True))
    for problem in outcome.problems:
        print(f"FAILED: {problem}")
    if outcome.unclosed_decoys:
        print(
            f"known defect: {outcome.unclosed_decoys} decoys per cell miss the "
            "closure tolerance (initial members CCD never closed)"
        )
    print(f"digests {json.dumps(outcome.digests, sort_keys=True)}")
    print(f"result document {path.relative_to(ROOT)}")
    print(json.dumps({k: document[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
