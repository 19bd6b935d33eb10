"""``Generator.choice`` reference implementation of the Ramachandran draws.

This is the path :mod:`repro.loops.ramachandran` ran before its basin
draws became table-driven: every draw normalises the basin weights and
calls ``rng.choice(k, p=weights)``, and every angle is wrapped through
the array path of :func:`~repro.geometry.vectors.wrap_angle`.  It is
kept under ``tests/`` only, as the oracle the production draws must
match byte for byte (``tobytes()`` equality of the torsions) while
leaving the generator in the same ``bit_generator.state``.  Import it as
``import ramachandran_oracle``; ``tests/`` is on ``sys.path`` through
its ``conftest.py``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro import constants
from repro.geometry.vectors import wrap_angle
from repro.protein.residue import validate_sequence


def _wrap(angle: float) -> float:
    """Wrap one angle through the array path (a 0-d array input)."""
    return wrap_angle(np.asarray(angle, dtype=np.float64))


def sample_basin(aa: str, rng: np.random.Generator) -> Tuple[float, float]:
    """Draw one (phi, psi) pair for residue type ``aa`` from its basin mixture."""
    basins = constants.ramachandran_basins(aa)
    weights = np.array([b[4] for b in basins])
    weights = weights / weights.sum()
    idx = rng.choice(len(basins), p=weights)
    phi_mean, psi_mean, phi_sigma, psi_sigma, _w = basins[idx]
    phi = _wrap(rng.normal(phi_mean, phi_sigma))
    psi = _wrap(rng.normal(psi_mean, psi_sigma))
    return float(phi), float(psi)


def sample_loop_torsions(
    sequence: str,
    rng: np.random.Generator,
    smoothness: float = 0.0,
) -> np.ndarray:
    """Sample a full loop torsion vector ``(phi_1, psi_1, ..., phi_n, psi_n)``."""
    seq = validate_sequence(sequence)
    if not (0.0 <= smoothness < 1.0):
        raise ValueError("smoothness must be in [0, 1)")
    torsions = np.zeros(2 * len(seq), dtype=np.float64)
    prev_basin: Optional[int] = None
    for i, aa in enumerate(seq):
        basins = constants.ramachandran_basins(aa)
        weights = np.array([b[4] for b in basins])
        weights = weights / weights.sum()
        if prev_basin is not None and prev_basin < len(basins) and rng.random() < smoothness:
            idx = prev_basin
        else:
            idx = int(rng.choice(len(basins), p=weights))
        phi_mean, psi_mean, phi_sigma, psi_sigma, _w = basins[idx]
        torsions[2 * i] = _wrap(rng.normal(phi_mean, phi_sigma))
        torsions[2 * i + 1] = _wrap(rng.normal(psi_mean, psi_sigma))
        prev_basin = idx
    return torsions
