"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper by running the
corresponding experiment driver at its ``smoke`` scale (seconds per
experiment rather than the hours of the paper-scale parameters) exactly once
under ``pytest-benchmark``, printing the same rows/series the paper reports,
and asserting the qualitative *shape* of the result (who wins, what
dominates, where the hard case is).

Run with::

    pytest benchmarks/ --benchmark-only

Set ``REPRO_BENCH_SCALE=default`` (or ``paper``) to rerun every benchmark at
a larger scale.

The benchmarks that write a ``BENCH_*.json`` report write it to the
gitignored ``.bench-out/`` directory, so a test run leaves the committed
reports alone.  Set ``REPRO_BENCH_UPDATE=1`` to overwrite the committed
file at the repo root instead (see :func:`bench_output`).

Every test collected from this directory carries the ``benchmarks`` marker
(registered in ``pytest.ini``), so CI can split fast unit-test feedback from
the experiment reruns: ``pytest -m "not benchmarks"`` for the former,
``pytest -m benchmarks`` for the latter.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.experiments import run_experiment

_BENCH_DIR = pathlib.Path(__file__).resolve().parent
_REPO_ROOT = _BENCH_DIR.parent

#: Scratch directory for benchmark reports (gitignored).
BENCH_OUT = _REPO_ROOT / ".bench-out"


def pytest_collection_modifyitems(items):
    """Tag every test under ``benchmarks/`` with the ``benchmarks`` marker."""
    for item in items:
        try:
            path = pathlib.Path(str(item.fspath)).resolve()
        except OSError:  # pragma: no cover - exotic collectors
            continue
        if _BENCH_DIR in path.parents:
            item.add_marker(pytest.mark.benchmarks)


def bench_scale() -> str:
    """Scale preset used by the benchmarks (``smoke`` unless overridden)."""
    return os.environ.get("REPRO_BENCH_SCALE", "smoke")


def bench_output(name: str) -> pathlib.Path:
    """Where a benchmark writes its ``name`` report.

    ``.bench-out/<name>`` by default; the committed ``<name>`` at the repo
    root only when ``REPRO_BENCH_UPDATE=1`` is set.
    """
    if os.environ.get("REPRO_BENCH_UPDATE") == "1":
        return _REPO_ROOT / name
    BENCH_OUT.mkdir(exist_ok=True)
    return BENCH_OUT / name


@pytest.fixture(scope="session")
def scale() -> str:
    return bench_scale()


@pytest.fixture
def run_paper_experiment(benchmark, scale):
    """Run one experiment driver exactly once under the benchmark timer.

    Returns the :class:`~repro.experiments.base.ExperimentResult`; the
    rendered tables are echoed so the benchmark log contains the same rows
    the paper's table/figure reports.
    """

    def _run(experiment_id: str, seed: int = 0):
        result = benchmark.pedantic(
            run_experiment,
            args=(experiment_id,),
            kwargs={"scale": scale, "seed": seed},
            rounds=1,
            iterations=1,
        )
        print()
        print(result.render())
        return result

    return _run
