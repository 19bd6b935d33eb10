"""Property: the table-driven Ramachandran draws agree with their oracle.

:mod:`repro.loops.ramachandran` draws basins by bisecting a cached CDF
with one ``rng.random()`` double and wraps angles on the scalar path of
:func:`~repro.geometry.vectors.wrap_angle`; ``tests/ramachandran_oracle.py``
keeps the ``rng.choice(k, p=weights)`` draws and array-path wrapping they
replaced.  For every sequence and smoothness the torsions must agree
**byte for byte** (``tobytes()``) and the generator must end in the same
``bit_generator.state``, so everything drawn after them is unchanged too.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ramachandran_oracle as oracle
from repro.loops.ramachandran import (
    RamachandranModel,
    _basin_table,
    _draw_basin,
    sample_basin,
    sample_loop_torsions,
)
from repro.moscem import mutation
from repro.moscem.mutation import mutate_population

SEQUENCES = ("G", "P", "A", "GGGGGG", "PPPPPP", "AKLVDS", "GPAGPLKVGPSD")
SMOOTHNESS = (0.0, 0.3, 0.99)


def _pair(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def _assert_same(got, want, rng, oracle_rng):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("smoothness", SMOOTHNESS)
@pytest.mark.parametrize("sequence", SEQUENCES)
def test_loop_torsions(sequence, smoothness):
    rng, oracle_rng = _pair(len(sequence) * 1000 + int(smoothness * 100))
    for _ in range(200):
        _assert_same(
            sample_loop_torsions(sequence, rng, smoothness=smoothness),
            oracle.sample_loop_torsions(sequence, oracle_rng, smoothness=smoothness),
            rng,
            oracle_rng,
        )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_paper_population(seed):
    """A paper-iteration-sized draw: 2,048 members of a 12-residue loop."""
    sequence = "GPAGPLKVGPSD"
    rng, oracle_rng = _pair(seed)
    population = RamachandranModel().sample_population(sequence, 2048, rng)
    expected = np.stack(
        [oracle.sample_loop_torsions(sequence, oracle_rng, 0.3) for _ in range(2048)]
    )
    _assert_same(population, expected, rng, oracle_rng)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    sequence=st.text(alphabet="GPAKLV", min_size=1, max_size=14),
    smoothness=st.floats(min_value=0.0, max_value=0.999),
)
def test_random_sequences(seed, sequence, smoothness):
    rng, oracle_rng = _pair(seed)
    _assert_same(
        sample_loop_torsions(sequence, rng, smoothness=smoothness),
        oracle.sample_loop_torsions(sequence, oracle_rng, smoothness=smoothness),
        rng,
        oracle_rng,
    )


class _FixedDouble:
    """A generator stand-in whose ``random()`` returns one chosen double."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


@pytest.mark.parametrize("aa", ["G", "P", "A"])
def test_draw_on_cdf_entries(aa):
    """A double exactly on a CDF entry falls in the next basin, as in
    ``Generator.choice`` (``searchsorted(cdf, u, side="right")``); random
    doubles almost never land there, so the stream tests cannot tell."""
    _basins, cdf = _basin_table(aa)
    for u in (0.0, *cdf[:-1], np.nextafter(cdf[0], 0.0)):
        expected = int(np.searchsorted(np.array(cdf), u, side="right"))
        assert _draw_basin(cdf, _FixedDouble(u)) == expected


@pytest.mark.parametrize("aa", ["G", "P", "A", "W"])
def test_sample_basin(aa):
    rng, oracle_rng = _pair(7)
    for _ in range(500):
        got = sample_basin(aa, rng)
        want = oracle.sample_basin(aa, oracle_rng)
        assert all(isinstance(angle, float) for angle in got)
        _assert_same(got, want, rng, oracle_rng)


@pytest.mark.parametrize("aa", ["G", "P", "A"])
def test_sample_pairs(aa):
    rng, oracle_rng = _pair(11)
    pairs = RamachandranModel().sample_pairs(aa, 300, rng)
    expected = [oracle.sample_basin(aa, oracle_rng) for _ in range(300)]
    _assert_same(pairs, expected, rng, oracle_rng)


@pytest.mark.parametrize("basin_hop_probability", [0.3, 1.0])
def test_mutate_population(monkeypatch, basin_hop_probability):
    """Basin hops inside mutation draw through the same helper."""
    sequence = "GPAGPLKVGPSD"
    torsions = np.random.default_rng(3).uniform(-np.pi, np.pi, size=(256, 24))
    kwargs = dict(n_angles=4, basin_hop_probability=basin_hop_probability)
    rng, oracle_rng = _pair(5)
    mutated, starts = mutate_population(torsions, sequence, rng, **kwargs)
    monkeypatch.setattr(mutation, "sample_basin", oracle.sample_basin)
    want_mutated, want_starts = mutate_population(torsions, sequence, oracle_rng, **kwargs)
    _assert_same(mutated, want_mutated, rng, oracle_rng)
    assert starts.tobytes() == want_starts.tobytes()
