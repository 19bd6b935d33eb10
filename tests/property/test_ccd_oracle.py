"""Property: the component-major CCD sweep agrees with the member-major oracle.

:func:`repro.closure.ccd.ccd_close_batch` runs its numpy path on a
``(3, n*4+3, P)`` layout over start-sorted member prefixes;
``tests/ccd_oracle.py`` keeps the member-major subset sweep it replaced.
The two must agree **byte for byte** (``tobytes()``) on all five
:class:`~repro.closure.ccd.CCDResult` fields, and so must the masked
:func:`~repro.closure.ccd._ccd_sweep` route taken with a numpy
:class:`~repro.xp.dispatch.KernelBundle`.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ccd_oracle as oracle
from repro.closure.ccd import ccd_close_batch
from repro.loops.targets import get_target, make_target
from repro.xp import numpy_kernels

#: The loop targets the benchmark's workloads sample.
BENCH_TARGETS = ("1cex(40:51)", "1akz(181:192)")

FIELDS = ("torsions", "coords", "closure", "closure_error", "iterations")


def _assert_bytes_equal(actual, expected):
    for field in FIELDS:
        got = np.asarray(getattr(actual, field))
        want = np.asarray(getattr(expected, field))
        assert got.dtype == want.dtype, field
        assert got.shape == want.shape, field
        assert got.tobytes() == want.tobytes(), field


def _assert_matches_oracle(torsions, target, starts, max_iterations, tolerance):
    """Check the direct and bundle routes against the oracle; return it."""
    kwargs = dict(
        start_indices=starts, max_iterations=max_iterations, tolerance=tolerance
    )
    expected = oracle.ccd_close_batch(torsions, target, **kwargs)
    _assert_bytes_equal(ccd_close_batch(torsions, target, **kwargs), expected)
    _assert_bytes_equal(
        ccd_close_batch(torsions, target, kernels=numpy_kernels(), **kwargs),
        expected,
    )
    return expected


def _open_torsions(target, pop, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-np.pi, np.pi, size=(pop, target.n_torsions))


def _edited(target, edit):
    """A copy of ``target`` whose built coordinates pass through ``edit``."""
    edited = copy.copy(target)

    def build_batch(torsions):
        coords, closure = target.build_batch(torsions)
        edit(coords, closure)
        return coords, closure

    edited.build_batch = build_batch
    return edited


@pytest.mark.parametrize("name", BENCH_TARGETS)
@pytest.mark.parametrize("pop", [0, 1, 2, 64, 300])
def test_population_sizes(name, pop):
    target = get_target(name)
    starts = np.random.default_rng(pop).integers(0, target.n_torsions, size=pop)
    _assert_matches_oracle(
        _open_torsions(target, pop, seed=pop), target, starts, 10, 0.25
    )


@pytest.mark.parametrize("name", BENCH_TARGETS)
@pytest.mark.parametrize("pattern", ["none", "unsorted", "all-equal", "all-last"])
def test_start_index_patterns(name, pattern):
    target = get_target(name)
    pop = 48
    two_n = target.n_torsions
    starts = {
        "none": None,
        "unsorted": np.random.default_rng(5).integers(0, two_n, size=pop)[::-1],
        "all-equal": np.full(pop, two_n // 2),
        "all-last": np.full(pop, two_n - 1),
    }[pattern]
    if starts is not None:
        assert pattern != "unsorted" or np.any(np.diff(starts) < 0)
    _assert_matches_oracle(
        _open_torsions(target, pop, seed=11), target, starts, 30, 0.25
    )


@pytest.mark.parametrize("name", BENCH_TARGETS)
def test_members_converge_at_start_and_mid_run(name):
    target = get_target(name)
    natives = np.tile(target.native_torsions, (3, 1))
    torsions = np.concatenate([_open_torsions(target, 40, seed=2), natives])
    torsions = np.random.default_rng(3).permutation(torsions)
    starts = np.random.default_rng(4).integers(0, 6, size=torsions.shape[0])
    max_iterations = 30
    expected = _assert_matches_oracle(torsions, target, starts, max_iterations, 0.3)
    assert np.any(expected.iterations == 0)
    assert np.any((expected.iterations > 0) & (expected.iterations < max_iterations))
    assert np.any(expected.iterations == max_iterations)


@pytest.mark.parametrize("name", BENCH_TARGETS)
def test_already_aligned_member_keeps_zero_angle(name):
    """A member whose closure atoms sit exactly on the anchors gets a zero
    angle at every pivot, so the sweep rotates a strict subset."""
    target = get_target(name)

    def align_first(coords, closure):
        if closure.shape[0]:
            closure[0] = target.c_anchor

    aligned = _edited(target, align_first)
    torsions = _open_torsions(target, 6, seed=8)
    # A negative tolerance keeps the aligned member active in every sweep.
    expected = _assert_matches_oracle(torsions, aligned, None, 4, -1.0)
    built, closure = aligned.build_batch(torsions)
    assert expected.coords[0].tobytes() == built[0].tobytes()
    assert expected.closure[0].tobytes() == closure[0].tobytes()
    assert not np.array_equal(expected.coords[1], built[1])


@pytest.mark.parametrize("name", BENCH_TARGETS)
def test_degenerate_pivot_axis(name):
    """A zero-length N-CA bond gives a zero pivot axis, which must not rotate.

    Member 1's phi axis of residue 2 (pivot 4, its start index) is collapsed
    and its closure atoms are the anchors reflected through that pivot, so
    the alignment angle there would be pi without the degenerate-axis guard.
    """
    target = get_target(name)

    def collapse_bond(coords, closure):
        if coords.shape[0] > 1:
            coords[1, 2, 1] = coords[1, 2, 0]
            closure[1] = 2.0 * coords[1, 2, 0] - target.c_anchor

    degenerate = _edited(target, collapse_bond)
    torsions = _open_torsions(target, 5, seed=9)
    starts = np.array([0, 4, 0, 2, 7])
    with np.errstate(invalid="ignore", divide="ignore"):
        expected = _assert_matches_oracle(torsions, degenerate, starts, 6, 0.25)
    assert np.all(np.isfinite(expected.coords))


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=8),
    st.floats(min_value=0.05, max_value=2.0),
)
def test_random_populations(pop, seed, max_iterations, tolerance):
    target = make_target("prop", 1, 5, seed=31)
    rng = np.random.default_rng(seed)
    starts = rng.integers(0, target.n_torsions, size=pop)
    _assert_matches_oracle(
        _open_torsions(target, pop, seed=seed), target, starts, max_iterations, tolerance
    )
