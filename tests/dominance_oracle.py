"""All-pairs reference implementation of the Eq. (1) fitness kernels.

This is the streaming O(N^2) path that :mod:`repro.moscem.dominance` used
before its front-first core: every member is compared with every column
block of the population.  It is kept under ``tests/`` only, as the oracle
the production kernels must match byte for byte (``tobytes()`` equality),
for every block size.  Import it as ``from dominance_oracle import ...``;
``tests/`` is on ``sys.path`` through its ``conftest.py``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.scoring.pairwise import population_blocks


def _dominance(scores: np.ndarray, column_scores: np.ndarray) -> np.ndarray:
    """``(N, B)`` block: whether each of N members dominates each column."""
    leq = np.all(scores[:, None, :] <= column_scores[None, :, :], axis=-1)
    lt = np.any(scores[:, None, :] < column_scores[None, :, :], axis=-1)
    return leq & lt


def _strength_pass(
    scores: np.ndarray, block_size: Optional[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Non-dominated mask and integer domination counts (dominated -> 0)."""
    n = scores.shape[0]
    dominated = np.zeros(n, dtype=bool)
    counts = np.zeros(n, dtype=np.int64)
    for block in population_blocks(n, block_size):
        dom = _dominance(scores, scores[block])
        dominated[block] = np.any(dom, axis=0)
        counts += dom.sum(axis=1)
    nd_mask = ~dominated
    counts[dominated] = 0
    return nd_mask, counts


def non_dominated_mask(
    scores: np.ndarray, block_size: Optional[int] = None
) -> np.ndarray:
    """Reference non-dominated mask."""
    scores = np.asarray(scores, dtype=np.float64)
    return _strength_pass(scores, block_size)[0]


def strength_fitness(
    scores: np.ndarray, block_size: Optional[int] = None
) -> np.ndarray:
    """Reference Eq. (1) fitness of every member."""
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.float64)
    nd_mask, counts = _strength_pass(scores, block_size)
    fitness = np.empty(n, dtype=np.float64)
    fitness[nd_mask] = counts[nd_mask] / float(n)
    dominated_idx = np.where(~nd_mask)[0]
    for block in population_blocks(dominated_idx.size, block_size):
        cols = dominated_idx[block]
        dominators = _dominance(scores, scores[cols]) & nd_mask[:, None]
        count_sums = (counts[:, None] * dominators).sum(axis=0)
        fitness[cols] = 1.0 + count_sums / float(n)
    return fitness


def fitness_against(
    reference_scores: np.ndarray,
    query_scores: np.ndarray,
    block_size: Optional[int] = None,
) -> np.ndarray:
    """Reference fitness of queries scored against a reference set."""
    reference_scores = np.asarray(reference_scores, dtype=np.float64)
    query_scores = np.asarray(query_scores, dtype=np.float64)
    if query_scores.ndim == 1:
        query_scores = query_scores[None, :]
    n = reference_scores.shape[0]
    q = query_scores.shape[0]
    if n == 0:
        return np.zeros(q, dtype=np.float64)
    ref_nd, ref_counts = _strength_pass(reference_scores, block_size)
    fitness = np.empty(q, dtype=np.float64)
    for block in population_blocks(q, block_size):
        queries = query_scores[block]
        ref_dominates_query = _dominance(reference_scores, queries)
        query_nd = ~np.any(ref_dominates_query, axis=0)
        block_fitness = np.empty(queries.shape[0], dtype=np.float64)
        if np.any(query_nd):
            query_dominates_ref = _dominance(queries[query_nd], reference_scores)
            block_fitness[query_nd] = query_dominates_ref.sum(axis=1) / float(n)
        dominated = ~query_nd
        if np.any(dominated):
            dominators = ref_dominates_query[:, dominated] & ref_nd[:, None]
            count_sums = (ref_counts[:, None] * dominators).sum(axis=0)
            block_fitness[dominated] = 1.0 + count_sums / float(n)
        fitness[block] = block_fitness
    return fitness
