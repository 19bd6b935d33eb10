"""The per-layer table of a traced run, computed from its spans.

Times are self times (a span minus its children), summed per layer.  On
``paper-iteration`` a *unit* is one cell; on ``campaign-drain`` it is
one drain of the whole campaign.  Set-up layers are per process that set
up (the benchmark itself on ``paper-iteration``, each pool worker on
the drain); the resubmission layers are per resubmission.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any, Dict, List

from perfbench.spans import self_times

#: The root span the benchmark opens around each cache-filled resubmission.
RESUBMIT_ROOT = "bench.resubmit"


def layer_table(
    spans: List[Dict[str, Any]],
    units: int,
    workers: int,
    resubmit_cells_per_s: float,
    trace_overhead: float,
) -> Dict[str, float]:
    """Every per-layer metric ``BENCHMARK.json`` lists, for one traced run."""
    by_id = {span["id"]: span for span in spans}
    own = self_times(spans)
    roots: Dict[str, str] = {}
    for span in spans:
        top = span
        while top["parent"] in by_id:
            top = by_id[top["parent"]]
        roots[span["id"]] = top["name"]

    named: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for span in spans:
        named[span["name"]].append(span)

    def pick(name: str, resubmit: bool = False, **attrs: Any) -> List[Dict[str, Any]]:
        return [
            span
            for span in named[name]
            if (roots[span["id"]] == RESUBMIT_ROOT) == resubmit
            and all(span["attrs"].get(k) == v for k, v in attrs.items())
        ]

    def seconds(chosen: List[Dict[str, Any]]) -> float:
        return sum(own[span["id"]] for span in chosen)

    def attr_sum(chosen: List[Dict[str, Any]], key: str) -> float:
        return float(sum(span["attrs"][key] for span in chosen))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    setups = max(1, len({span["pid"] for span in named["scoring.knowledge_base"]}))
    first_build: Dict[int, Dict[str, Any]] = {}
    for span in named["runtime.build_sampler"]:
        if span["pid"] not in first_build or span["start"] < first_build[span["pid"]]["start"]:
            first_build[span["pid"]] = span
    fitness = pick("moscem.fitness_population")
    ccd = pick("closure.ccd")
    proposals = pick("closure.ccd", proposal=True)
    steps = pick("moscem.step")
    checkpoints = pick("runtime.checkpoint")
    resubmissions = len(named[RESUBMIT_ROOT])
    fills = pick("serve.cache_fill", resubmit=True)
    drains = sum(span["end"] - span["start"] for span in named["api.drain"])
    cell_tasks = sum(span["end"] - span["start"] for span in named["runtime.cell_task"])
    root_spans = [span for span in spans if span["parent"] not in by_id]

    return {
        "loops.library_s": seconds(pick("loops.library")) / setups,
        "scoring.knowledge_base_s": seconds(pick("scoring.knowledge_base")) / setups,
        "loops.target_s": seconds(pick("loops.target")) / setups,
        "runtime.worker_setup_s": statistics.fmean(
            [span["end"] - span["start"] for span in first_build.values()]
        ) if first_build else 0.0,
        "moscem.fitness_population_s": seconds(fitness) / units,
        "moscem.fitness_population_calls": len(fitness) / units,
        "moscem.dominance_pairs": attr_sum(fitness, "pairs") / units,
        "moscem.front_size": ratio(attr_sum(fitness, "front"), len(fitness)),
        "loops.ramachandran_s": seconds(pick("loops.ramachandran")) / units,
        "closure.ccd_s": seconds(ccd) / units,
        "closure.ccd_calls": len(ccd) / units,
        "closure.member_sweeps": attr_sum(ccd, "sweeps") / units,
        "closure.closed_fraction": ratio(
            attr_sum(proposals, "closed"), attr_sum(proposals, "members")
        ),
        "scoring.vdw_s": seconds(pick("scoring.vdw")) / units,
        "scoring.dist_s": seconds(pick("scoring.dist")) / units,
        "scoring.trip_s": seconds(pick("scoring.trip")) / units,
        "moscem.fitness_complex_s": seconds(pick("moscem.fitness_complex")) / units,
        "moscem.mutation_s": seconds(pick("moscem.mutation")) / units,
        "moscem.metropolis_s": seconds(pick("moscem.metropolis")) / units,
        "moscem.init_self_s": seconds(pick("moscem.init")) / units,
        "moscem.step_self_s": seconds(steps) / units,
        "moscem.acceptance_rate": ratio(attr_sum(steps, "acceptance"), len(steps)),
        "moscem.finalize_s": seconds(pick("moscem.finalize")) / units,
        "moscem.harvest_s": seconds(pick("moscem.harvest")) / units,
        "runtime.checkpoint_s": seconds(checkpoints) / units,
        "runtime.checkpoints": len(checkpoints) / units,
        "runtime.checkpoint_bytes": attr_sum(checkpoints, "bytes") / units,
        "runtime.status_writes": len(pick("runtime.status_write")) / units,
        "runtime.journal_appends": len(pick("runtime.journal_append")) / units,
        "runtime.store_io_s": (
            seconds(pick("runtime.status_write")) + seconds(pick("runtime.journal_append"))
        ) / units,
        "runtime.result_save_s": seconds(pick("runtime.result_save")) / units,
        "runtime.worker_busy_fraction": ratio(cell_tasks, workers * drains),
        "serve.lease_s": seconds(pick("serve.lease")) / units,
        "serve.cache_publish_s": seconds(pick("serve.cache_publish")) / units,
        "closure.ccd_s.gpu": seconds(pick("closure.ccd", backend="gpu")) / units,
        "closure.ccd_s.xp": seconds(pick("closure.ccd", backend="xp")) / units,
        "serve.cache_fill_s": ratio(seconds(fills), resubmissions),
        "serve.cache_hit_ratio": ratio(
            sum(1 for span in fills if span["attrs"]["hit"]), len(fills)
        ),
        "api.submit_s": ratio(seconds(pick("api.submit", resubmit=True)), resubmissions),
        "api.result_s": ratio(seconds(pick("api.result", resubmit=True)), resubmissions),
        "serve.resubmit_cells_per_s": resubmit_cells_per_s,
        "unattributed_fraction": ratio(
            sum(own[span["id"]] for span in root_spans),
            sum(span["end"] - span["start"] for span in root_spans),
        ),
        "trace_overhead_fraction": trace_overhead,
    }
