"""Property: the ``bincount`` knowledge-base builder agrees with its oracle.

:func:`repro.scoring.knowledge.build_knowledge_base` histograms the whole
library with integer ``bincount``s and adds the pseudo-count once;
``tests/knowledge_oracle.py`` keeps the per-record loop it replaced, which
increments pre-filled float64 tables one count at a time.  Both tables
must agree **byte for byte** (``tobytes()``) on every library, including
edge cases the synthetic libraries never produce: one-residue loops,
pairs exactly on a squared bin edge and pairs beyond ``DISTANCE_MAX``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import knowledge_oracle as oracle
from repro.loops.library import LoopLibrary, LoopRecord, default_library
from repro.scoring.knowledge import (
    DISTANCE_BINS,
    DISTANCE_MAX,
    DISTANCE_SQ_EDGES,
    build_knowledge_base,
)

#: Sequence alphabet: the two special residue types plus generic ones.
ALPHABET = "GPAKLVDS"


def _assert_tables_equal(library):
    actual = build_knowledge_base(library)
    expected = oracle.build_knowledge_base(library)
    for field in ("triplet_neg_log", "distance_neg_log"):
        got = getattr(actual, field)
        want = getattr(expected, field)
        assert got.dtype == want.dtype, field
        assert got.shape == want.shape, field
        assert got.tobytes() == want.tobytes(), field
    assert actual.library_size == expected.library_size


def _record(sequence, coords, torsions=None):
    n = len(sequence)
    coords = np.asarray(coords, dtype=np.float64).reshape(n, 4, 3)
    if torsions is None:
        torsions = np.linspace(-np.pi, np.pi, 2 * n)
    return LoopRecord(sequence=sequence, torsions=np.asarray(torsions), coords=coords)


def test_tiny_library(tiny_library):
    _assert_tables_equal(tiny_library)


def test_default_library():
    _assert_tables_equal(default_library())


def test_single_residue_loop():
    _assert_tables_equal(LoopLibrary(records=[_record("G", np.arange(12.0))]))


def test_single_residue_loops_only_have_triplets():
    library = LoopLibrary(records=[_record("P", np.zeros(12)), _record("A", np.ones(12))])
    _assert_tables_equal(library)


def test_pairs_exactly_on_squared_edges():
    """Every bin edge is hit exactly: ``(0.5 k)^2`` is exact in float64."""
    records = []
    for k in range(DISTANCE_BINS + 1):
        offset = 0.5 * k
        assert offset * offset == DISTANCE_SQ_EDGES[k]
        coords = np.zeros((2, 4, 3))
        coords[1, :, 0] = offset
        records.append(_record("AG", coords))
    _assert_tables_equal(LoopLibrary(records=records))


def test_pairs_beyond_distance_max():
    coords = np.zeros((3, 4, 3))
    coords[1, :, 0] = DISTANCE_MAX
    coords[2, :, 0] = DISTANCE_MAX + 20.0
    coords[:, :, 1] = np.arange(4) * 0.3
    _assert_tables_equal(LoopLibrary(records=[_record("PAG", coords)]))


def test_torsions_at_and_beyond_pi():
    torsions = [np.pi, -np.pi, 3 * np.pi, -3 * np.pi, 7.5, -0.0]
    coords = np.arange(36.0).reshape(3, 4, 3)
    _assert_tables_equal(LoopLibrary(records=[_record("GPA", coords, torsions)]))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    lengths=st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=6),
    scale=st.sampled_from([1.0, 4.0, 12.0]),
)
def test_random_libraries(seed, lengths, scale):
    rng = np.random.default_rng(seed)
    records = []
    for n in lengths:
        sequence = "".join(rng.choice(list(ALPHABET), size=n))
        # A random walk spreads pair distances over the whole table and
        # past its last edge.
        coords = np.cumsum(rng.normal(0.0, scale, size=(n * 4, 3)), axis=0)
        torsions = rng.uniform(-4.0, 4.0, size=2 * n)
        records.append(_record(sequence, coords, torsions))
    _assert_tables_equal(LoopLibrary(records=records))
