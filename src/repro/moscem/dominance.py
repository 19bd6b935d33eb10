"""Pareto dominance and the strength-based fitness assignment of Eq. (1).

All objectives are minimised.  A conformation ``a`` *dominates* ``b`` when
``a`` is no worse than ``b`` in every scoring function and strictly better
in at least one.  Following the paper:

* the *strength* ``s_i`` of a non-dominated conformation is the proportion
  of the population it dominates;
* the *fitness* of a non-dominated conformation is its strength (always
  < 1);
* the fitness of a dominated conformation is 1 plus the sum of the
  strengths of the non-dominated conformations that dominate it (always
  >= 1).

Hence "fitness < 1" identifies the current Pareto-optimal front, the
property the sampler uses when harvesting decoys.

Front-first algorithm
---------------------
Eq. (1) needs only the non-dominated mask and the dominance relation
between front members and everyone else, so the kernels never compare all
``N^2`` member pairs.  One core pass (:func:`_front_pass`) sorts the members
lexicographically (``np.lexsort``, column 0 first) and walks the sorted order
in blocks of ``B`` members (the population-chunking helpers of
:mod:`repro.scoring.pairwise`, sized by ``SamplingConfig.kernel_block_size``).
A candidate is compared with the front found so far and with its own block;
the front members of the block join the front.  This is the maxima filter of
Kung, Luccio & Preparata (JACM 1975).  It is exact:

* if ``a`` dominates ``b`` then ``a`` precedes ``b`` strictly in lex order,
  so only earlier members (the earlier blocks or the own block) can
  dominate a candidate;
* dominance is transitive and acyclic, so every dominated member is
  dominated by some front member — the earlier front suffices;
* the same comparisons see every member a front member dominates (all lie
  after it), so they also yield its integer domination count.

:func:`strength_fitness` then compares the front ``F`` with the dominated
members once more to sum, per dominated member, the integer counts of its
dominators; :func:`fitness_against` compares the queries with the reference
front only (a query dominated by any reference member is dominated by a
front member) and with the whole reference set only for the queries that
stay non-dominated.  Every accumulation is integer (domination counts,
count sums, any-reductions) and each fitness takes one division by ``n``, so
the results are bit-identical to the all-pairs definition for every block
size.

Cost: ``O(N log N)`` for the sort plus at most ``N·(2|F| + B)`` member
pairs compared for :func:`strength_fitness` (``N·(|F| + B)`` for
:func:`non_dominated_mask`); their peak temporary is one comparison block
of shape ``(max(|F|, B), B, K)``.  :func:`fitness_against` adds ``Q·|F|``
pairs for ``Q`` queries, plus ``N`` per query that stays non-dominated.

The per-block comparison itself — the only dense array math here — is the
generic :func:`_dominance_columns` kernel registered with the
:mod:`repro.xp` facade; the passes are host orchestration and take an
optional :class:`~repro.xp.dispatch.KernelBundle` to route the block
comparisons through a compiled namespace.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.scoring.pairwise import population_blocks
from repro.xp.dispatch import array_kernel
from repro.xp.xp import numpy_namespace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.xp.dispatch import KernelBundle

#: Numpy namespace the public wrappers bind the generic kernels to.
_XP = numpy_namespace()

__all__ = [
    "dominates",
    "dominance_matrix",
    "non_dominated_mask",
    "strength_fitness",
    "fitness_against",
]


def dominates(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether score vector ``a`` Pareto-dominates ``b`` (minimisation)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return bool(np.all(a <= b) and np.any(a < b))


def dominance_matrix(scores: np.ndarray) -> np.ndarray:
    """Boolean matrix ``D`` with ``D[i, j]`` true when member i dominates j.

    Parameters
    ----------
    scores:
        ``(N, K)`` score matrix (lower is better in every column).
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ValueError("scores must have shape (N, K)")
    return _dominance_columns(_XP, scores, scores)


@array_kernel("dominance_columns")
def _dominance_columns(xp, scores, column_scores):
    """``(N, B)`` block: whether each of N members dominates each column."""
    leq = xp.all(scores[:, None, :] <= column_scores[None, :, :], axis=-1)
    lt = xp.any(scores[:, None, :] < column_scores[None, :, :], axis=-1)
    return leq & lt


def _dominance_block(
    scores: np.ndarray,
    column_scores: np.ndarray,
    kernels: Optional["KernelBundle"],
) -> np.ndarray:
    """Host-side ``(N, B)`` dominance block, via the selected bundle."""
    if kernels is None:
        return _dominance_columns(_XP, scores, column_scores)
    return kernels.to_numpy(kernels.dominance_columns(scores, column_scores))


def _front_pass(
    scores: np.ndarray,
    block_size: Optional[int],
    kernels: Optional["KernelBundle"] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Non-dominated mask and integer domination counts of a score set.

    Walks the lexicographically sorted members block by block; a candidate
    is compared with the front found so far and with its own block, which
    is exact because only lex-earlier members can dominate it.  The same
    comparisons give every front member's full domination count.  Counts
    of dominated members are zero — they never contribute to fitness sums.
    """
    n, k = scores.shape
    # Column 0 is the primary key (lexsort sorts by its last key first).
    order = np.lexsort(scores.T[::-1]) if k else np.arange(n)
    ranked = scores[order]
    dominated = np.zeros(n, dtype=bool)
    counts = np.zeros(n, dtype=np.int64)
    # Sorted positions of the front found so far, in ascending order.
    front = np.empty(n, dtype=np.int64)
    n_front = 0
    for block in population_blocks(n, block_size):
        candidates = ranked[block]
        own = _dominance_block(candidates, candidates, kernels)
        hit = np.any(own, axis=0)
        if n_front:
            earlier = front[:n_front]
            prior = _dominance_block(ranked[earlier], candidates, kernels)
            hit |= np.any(prior, axis=0)
            counts[earlier] += prior.sum(axis=1)
        new = np.flatnonzero(~hit)
        counts[block.start + new] = own[new].sum(axis=1)
        front[n_front : n_front + new.size] = block.start + new
        n_front += new.size
        dominated[block] = hit
    nd_mask = np.empty(n, dtype=bool)
    nd_mask[order] = ~dominated
    member_counts = np.empty(n, dtype=np.int64)
    member_counts[order] = counts
    return nd_mask, member_counts


def non_dominated_mask(
    scores: np.ndarray,
    block_size: Optional[int] = None,
    kernels: Optional["KernelBundle"] = None,
) -> np.ndarray:
    """Boolean mask of the members not dominated by any other member.

    Parameters
    ----------
    scores:
        ``(N, K)`` score matrix.
    block_size:
        Member chunk size (see :func:`repro.scoring.pairwise.population_blocks`);
        the result is bit-identical for every value.
    kernels:
        Optional kernel bundle the block comparisons run through.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ValueError("scores must have shape (N, K)")
    return _front_pass(scores, block_size, kernels)[0]


def strength_fitness(
    scores: np.ndarray,
    block_size: Optional[int] = None,
    kernels: Optional["KernelBundle"] = None,
) -> np.ndarray:
    """Fitness of every member of a score set, per the paper's Eq. (1).

    Parameters
    ----------
    scores:
        ``(N, K)`` score matrix.
    block_size:
        Population chunk size bounding the dominance temporaries (``None``
        or ``0`` selects the engine default); the result is bit-identical
        for every value.
    kernels:
        Optional kernel bundle the block comparisons run through.

    Returns
    -------
    numpy.ndarray
        ``(N,)`` fitness values; values below 1 identify the non-dominated
        (Pareto-front) members.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ValueError("scores must have shape (N, K)")
    n = scores.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.float64)
    nd_mask, counts = _front_pass(scores, block_size, kernels)

    fitness = np.empty(n, dtype=np.float64)
    # Non-dominated: fitness equals own strength (< 1 by construction).
    fitness[nd_mask] = counts[nd_mask] / float(n)
    # Dominated: 1 + sum of strengths of the front members that dominate
    # them.  The strengths share the denominator n, so the sum is
    # accumulated on the integer domination counts and divided once —
    # exact, hence independent of the chunking.
    front, front_counts = scores[nd_mask], counts[nd_mask]
    dominated_idx = np.flatnonzero(~nd_mask)
    for block in population_blocks(dominated_idx.size, block_size):
        cols = dominated_idx[block]
        dominators = _dominance_block(front, scores[cols], kernels)
        count_sums = (front_counts[:, None] * dominators).sum(axis=0)
        fitness[cols] = 1.0 + count_sums / float(n)
    return fitness


def fitness_against(
    reference_scores: np.ndarray,
    query_scores: np.ndarray,
    block_size: Optional[int] = None,
    kernels: Optional["KernelBundle"] = None,
) -> np.ndarray:
    """Fitness of query conformations evaluated against a reference set.

    Used by the Metropolis step: the fitness of a proposed conformation (and
    of the conformation it would replace) is computed against the members of
    its complex.  Each query is scored independently, i.e. queries do not
    affect each other's fitness.

    Parameters
    ----------
    reference_scores:
        ``(N, K)`` scores of the reference set (the complex).
    query_scores:
        ``(Q, K)`` scores of the query conformations.
    block_size:
        Chunk size of the reference and query blocks (``None`` or ``0``
        selects the engine default); the result is bit-identical for every
        value.
    kernels:
        Optional kernel bundle the block comparisons run through.

    Returns
    -------
    numpy.ndarray
        ``(Q,)`` fitness values on the same scale as
        :func:`strength_fitness`.
    """
    reference_scores = np.asarray(reference_scores, dtype=np.float64)
    query_scores = np.asarray(query_scores, dtype=np.float64)
    if query_scores.ndim == 1:
        query_scores = query_scores[None, :]
    n = reference_scores.shape[0]
    q = query_scores.shape[0]
    if n == 0:
        return np.zeros(q, dtype=np.float64)

    # A query is dominated by some reference member exactly when it is
    # dominated by a member of the reference front (transitivity), and only
    # front members carry strength, so the queries meet the front alone.
    ref_nd, ref_counts = _front_pass(reference_scores, block_size, kernels)
    front, front_counts = reference_scores[ref_nd], ref_counts[ref_nd]

    fitness = np.empty(q, dtype=np.float64)
    for block in population_blocks(q, block_size):
        queries = query_scores[block]
        # (F, B): front member i dominates query j of the block.
        dominators = _dominance_block(front, queries, kernels)
        query_nd = ~np.any(dominators, axis=0)  # (B,)
        block_fitness = np.empty(queries.shape[0], dtype=np.float64)

        # Non-dominated queries: strength relative to the reference set
        # (integer domination counts over the full reference axis).
        if np.any(query_nd):
            # (B_nd, N): non-dominated query i dominates reference member j.
            query_dominates_ref = _dominance_block(
                queries[query_nd], reference_scores, kernels
            )
            block_fitness[query_nd] = query_dominates_ref.sum(axis=1) / float(n)
        # Dominated queries: 1 + sum of strengths of the dominating front
        # members (integer count accumulation, one division).
        dominated = ~query_nd
        if np.any(dominated):
            count_sums = (front_counts[:, None] * dominators[:, dominated]).sum(axis=0)
            block_fitness[dominated] = 1.0 + count_sums / float(n)
        fitness[block] = block_fitness
    return fitness
