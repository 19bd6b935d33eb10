"""Property: the front-first fitness kernels agree with the all-pairs oracle.

:mod:`repro.moscem.dominance` finds the Pareto front with a lexicographic
front filter and compares only front members with everyone else;
``tests/dominance_oracle.py`` keeps the streaming all-pairs path it
replaced.  The two implementations must agree **byte for byte**
(``tobytes()``) for :func:`non_dominated_mask`, :func:`strength_fitness` and
:func:`fitness_against`, on every block size and on the numpy
:class:`~repro.xp.dispatch.KernelBundle` route.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import dominance_oracle as oracle
from repro.moscem.dominance import (
    fitness_against,
    non_dominated_mask,
    strength_fitness,
)
from repro.xp import numpy_kernels


def _block_sizes(n):
    return [1, 7, 128, n + 1, 0, None]


def _assert_bytes_equal(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def _assert_population_matches(scores, kernels=None):
    for block_size in _block_sizes(scores.shape[0]):
        _assert_bytes_equal(
            non_dominated_mask(scores, block_size=block_size, kernels=kernels),
            oracle.non_dominated_mask(scores, block_size=block_size),
        )
        _assert_bytes_equal(
            strength_fitness(scores, block_size=block_size, kernels=kernels),
            oracle.strength_fitness(scores, block_size=block_size),
        )


def _assert_against_matches(reference, queries, kernels=None):
    for block_size in _block_sizes(max(reference.shape[0], 1)):
        _assert_bytes_equal(
            fitness_against(reference, queries, block_size=block_size, kernels=kernels),
            oracle.fitness_against(reference, queries, block_size=block_size),
        )


@st.composite
def tied_score_sets(draw, max_rows=40, k=None):
    """Score sets on coarse grids (ties) with repeated rows (duplicates)."""
    k = draw(st.integers(1, 4)) if k is None else k
    n = draw(st.integers(0, max_rows))
    step = draw(st.sampled_from([1.0, 0.5, 0.1]))
    grid = st.integers(-6, 6).map(lambda v: v * step)
    distinct = draw(arrays(np.float64, (max(1, n), k), elements=grid))
    picks = draw(
        st.lists(st.integers(0, distinct.shape[0] - 1), min_size=n, max_size=n)
    )
    return distinct[np.asarray(picks, dtype=np.int64)].reshape(n, k)


@st.composite
def reference_and_queries(draw):
    k = draw(st.integers(1, 4))
    reference = draw(tied_score_sets(max_rows=30, k=k))
    queries = draw(tied_score_sets(max_rows=20, k=k))
    return reference, queries


class TestPopulationKernels:
    @settings(max_examples=60, deadline=None)
    @given(tied_score_sets())
    def test_ties_and_duplicates(self, scores):
        _assert_population_matches(scores)

    @settings(max_examples=30, deadline=None)
    @given(tied_score_sets())
    def test_numpy_bundle_route(self, scores):
        _assert_population_matches(scores, kernels=numpy_kernels())

    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_tiny_populations(self, n, k):
        rng = np.random.default_rng(10 * n + k)
        _assert_population_matches(np.round(rng.normal(size=(n, k)), 0))

    def test_all_front_anticorrelated(self):
        a = np.linspace(0.0, 1.0, 300)
        scores = np.stack([a, 1.0 - a, np.zeros_like(a)], axis=1)
        assert non_dominated_mask(scores).all()
        _assert_population_matches(scores)
        _assert_population_matches(scores, kernels=numpy_kernels())

    def test_singleton_front(self):
        rng = np.random.default_rng(3)
        scores = rng.random((200, 3)) + 1.0
        scores[57] = 0.0
        assert np.flatnonzero(non_dominated_mask(scores)).tolist() == [57]
        _assert_population_matches(scores)

    def test_noisy_anticorrelated_front(self):
        rng = np.random.default_rng(5)
        a = rng.random(400)
        scores = np.stack([a, 1.0 - a + 0.02 * rng.random(400)], axis=1)
        _assert_population_matches(scores)

    def test_non_finite_scores(self):
        rng = np.random.default_rng(6)
        scores = np.round(rng.normal(size=(60, 3)), 0)
        scores[rng.random(scores.shape) < 0.1] = np.nan
        scores[rng.random(scores.shape) < 0.05] = np.inf
        scores[rng.random(scores.shape) < 0.05] = -0.0
        _assert_population_matches(scores)


class TestFitnessAgainst:
    @settings(max_examples=60, deadline=None)
    @given(reference_and_queries())
    def test_ties_and_duplicates(self, pair):
        _assert_against_matches(*pair)

    @settings(max_examples=30, deadline=None)
    @given(reference_and_queries())
    def test_numpy_bundle_route(self, pair):
        _assert_against_matches(*pair, kernels=numpy_kernels())

    def test_members_and_proposals_as_one_stack(self):
        rng = np.random.default_rng(8)
        reference = np.round(rng.normal(size=(128, 3)), 1)
        proposals = np.round(rng.normal(size=(128, 3)), 1)
        _assert_against_matches(reference, np.concatenate([reference, proposals]))

    def test_one_dimensional_query(self):
        reference = np.array([[1.0, 1.0], [2.0, 2.0], [0.5, 3.0]])
        for query in (np.array([0.5, 0.5]), np.array([2.0, 2.5]), np.array([1.0, 1.0])):
            _assert_against_matches(reference, query)
            _assert_against_matches(reference, query, kernels=numpy_kernels())

    def test_empty_reference(self):
        queries = np.array([[1.0, 2.0], [0.0, 0.0]])
        _assert_against_matches(np.zeros((0, 2)), queries)
        _assert_against_matches(np.zeros((0, 2)), queries, kernels=numpy_kernels())

    def test_empty_queries(self):
        reference = np.array([[1.0, 1.0], [2.0, 2.0]])
        _assert_against_matches(reference, np.zeros((0, 2)))
