"""Span recording around the public functions of the loop sampler's layers.

The traced run (``--trace 1``) replaces selected module and class
attributes of ``repro`` with thin wrappers that record one span per call:
name, start, end, parent and process.  Nothing inside ``src/`` changes;
the wrappers are attribute patches made by the benchmark before any work
runs and before the campaign pool forks, so forked workers inherit them.
Each worker writes its own spans to a file when a cell task completes, and
the parent reads them back when the run ends.

A layer's self time is its span's duration minus the durations of its
child spans (children of one span never overlap: each process records from
one thread).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import numpy as np


class Recorder:
    """In-memory span store of one process (reset in a forked child)."""

    def __init__(self) -> None:
        self.enabled = False
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[Dict[str, Any]] = []
        self._next_id = 0

    def _own(self) -> None:
        # A forked worker starts with a copy of the parent's spans and open
        # stack; it must record only its own.
        if os.getpid() != self.pid:
            self._reset()

    def open(self, name: str) -> Dict[str, Any]:
        self._own()
        self._next_id += 1
        span = {
            "id": f"{self.pid}:{self._next_id}",
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "pid": self.pid,
            "start": time.perf_counter(),
            "end": None,
            "attrs": {},
        }
        self._stack.append(span)
        return span

    def close(self, span: Dict[str, Any]) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str):
        """Record a span around a block when recording is on."""
        if not self.enabled:
            yield {"attrs": {}}
            return
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def flush(self, directory: Path) -> None:
        """Write this process's finished spans to ``directory`` and forget them."""
        self._own()
        if not self.spans:
            return
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"spans-{self.pid}-{self._next_id}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.spans, sort_keys=True))
        os.replace(tmp, path)
        self.spans = []

    def take(self) -> List[Dict[str, Any]]:
        """This process's finished spans, forgotten by the recorder."""
        self._own()
        spans, self.spans = self.spans, []
        return spans


#: The process's recorder.  Wrappers are plain attribute patches, so they
#: reach it through this module rather than through a caller's argument.
RECORDER = Recorder()


def _wrap(name: str, fn: Callable, annotate: Optional[Callable] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not RECORDER.enabled:
            return fn(*args, **kwargs)
        span = RECORDER.open(name)
        try:
            result = fn(*args, **kwargs)
            if annotate is not None:
                annotate(span, args, kwargs, result)
            return result
        finally:
            RECORDER.close(span)

    return wrapper


# ---------------------------------------------------------------------------
# Annotations: exact counts recorded where the work happens
# ---------------------------------------------------------------------------


def _ccd_attrs(backend: str) -> Callable:
    def annotate(span, args, kwargs, result) -> None:
        tolerance = float(kwargs.get("tolerance", 0.25))
        stack_names = [s["name"] for s in RECORDER._stack]
        span["attrs"] = {
            "backend": backend,
            "members": int(result.closure_error.shape[0]),
            "sweeps": int(np.sum(result.iterations)),
            "closed": int(np.count_nonzero(result.closure_error <= tolerance)),
            "proposal": "moscem.step" in stack_names,
        }

    return annotate


def _fitness_attrs(span, args, kwargs, result) -> None:
    n = int(np.asarray(args[0]).shape[0])
    span["attrs"] = {
        "pairs": n * n,
        # Eq. (1): fitness < 1 exactly on the non-dominated front.
        "front": int(np.count_nonzero(np.asarray(result) < 1.0)),
    }


def _step_attrs(span, args, kwargs, result) -> None:
    span["attrs"] = {"acceptance": float(result)}


def _checkpoint_attrs(span, args, kwargs, result) -> None:
    from repro.runtime.checkpoint import checkpoint_paths

    paths = checkpoint_paths(args[0])
    span["attrs"] = {"bytes": sum(p.stat().st_size for p in paths.values())}


def _fill_attrs(span, args, kwargs, result) -> None:
    span["attrs"] = {"hit": result is not None}


#: (module, attribute path, span name, annotation).  A class attribute
#: patch reaches every instance; a module attribute patch reaches the call
#: sites that look the name up in that module at call time.
WRAPPED = (
    ("repro.scoring.knowledge", "default_library", "loops.library", None),
    ("repro.scoring.knowledge", "build_knowledge_base", "scoring.knowledge_base", None),
    ("repro.loops.targets", "make_target", "loops.target", None),
    ("repro.loops.ramachandran", "RamachandranModel.sample_population", "loops.ramachandran", None),
    ("repro.scoring.vdw", "SoftSphereVDW.evaluate_batch", "scoring.vdw", None),
    ("repro.scoring.distance", "DistanceScore.evaluate_batch", "scoring.dist", None),
    ("repro.scoring.triplet", "TripletScore.evaluate_batch", "scoring.trip", None),
    ("repro.backends.gpu", "ccd_close_batch", "closure.ccd", _ccd_attrs("gpu")),
    ("repro.backends.jax_backend", "ccd_close_batch", "closure.ccd", _ccd_attrs("xp")),
    ("repro.backends.gpu", "strength_fitness", "moscem.fitness_population", _fitness_attrs),
    ("repro.backends.jax_backend", "strength_fitness", "moscem.fitness_population", _fitness_attrs),
    ("repro.backends.gpu", "fitness_against", "moscem.fitness_complex", None),
    ("repro.backends.jax_backend", "fitness_against", "moscem.fitness_complex", None),
    ("repro.moscem.sampler", "mutate_population", "moscem.mutation", None),
    ("repro.moscem.sampler", "metropolis_accept", "moscem.metropolis", None),
    ("repro.moscem.sampler", "MOSCEMSampler.initial_state", "moscem.init", None),
    ("repro.moscem.sampler", "MOSCEMSampler.step", "moscem.step", _step_attrs),
    ("repro.moscem.sampler", "MOSCEMSampler.finalize_state", "moscem.finalize", None),
    ("repro.moscem.sampler", "SamplingResult.distinct_non_dominated", "moscem.harvest", None),
    ("repro.runtime.executor", "_build_sampler", "runtime.build_sampler", None),
    ("repro.runtime.executor", "save_checkpoint", "runtime.checkpoint", _checkpoint_attrs),
    ("repro.runtime.store", "RunStore.write_shard_status", "runtime.status_write", None),
    ("repro.runtime.store", "RunStore.append_journal", "runtime.journal_append", None),
    ("repro.runtime.store", "RunStore.save_shard_result", "runtime.result_save", None),
    ("repro.api.daemon", "parallel_map", "runtime.pool_wait", None),
    ("repro.serve.leases", "LeaseManager.claim", "serve.lease", None),
    ("repro.serve.leases", "LeaseManager.release", "serve.lease", None),
    ("repro.serve.leases", "LeaseManager.renew_all", "serve.lease", None),
    ("repro.serve.leases", "LeaseManager.release_all", "serve.lease", None),
    ("repro.serve.cache", "ResultCache.publish", "serve.cache_publish", None),
    ("repro.serve.cache", "ResultCache.fill", "serve.cache_fill", _fill_attrs),
    ("repro.api.session", "Session.submit", "api.submit", None),
    ("repro.api.session", "CampaignHandle.result", "api.result", None),
)


class CellTask:
    """Picklable stand-in for the drain's worker entry point.

    Runs the real task inside a ``runtime.cell_task`` root span, then
    writes the worker's spans to ``span_dir``, so the parent sees the work
    done in the pool.
    """

    def __init__(self, task: Callable, span_dir: str) -> None:
        self.task = task
        self.span_dir = span_dir

    def __call__(self, payload):
        with RECORDER.span("runtime.cell_task"):
            result = self.task(payload)
        RECORDER.flush(Path(self.span_dir))
        return result


def install(span_dir: Path) -> None:
    """Patch every wrapped attribute (recording stays off until enabled)."""
    for module_name, path, name, annotate in WRAPPED:
        owner = importlib.import_module(module_name)
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part)
        setattr(owner, attr, _wrap(name, getattr(owner, attr), annotate))
    daemon = importlib.import_module("repro.api.daemon")
    daemon._cell_task = CellTask(daemon._cell_task, str(span_dir))


def load_worker_spans(span_dir: Path) -> List[Dict[str, Any]]:
    """Every span the pool workers wrote to ``span_dir``."""
    spans: List[Dict[str, Any]] = []
    if span_dir.is_dir():
        for path in sorted(span_dir.glob("spans-*.json")):
            spans.extend(json.loads(path.read_text()))
    return spans


def self_times(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Self time of every span, keyed by span id."""
    child_time: Dict[str, float] = {}
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] = child_time.get(span["parent"], 0.0) + (
                span["end"] - span["start"]
            )
    return {
        span["id"]: (span["end"] - span["start"]) - child_time.get(span["id"], 0.0)
        for span in spans
    }
