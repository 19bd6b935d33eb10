"""Ramachandran-basin model of backbone torsion preferences.

Used in three places:

* generating the synthetic loop library from which the knowledge-based
  potentials (TRIPLET, DIST) are derived,
* generating native conformations for the synthetic benchmark targets,
* biasing the population initialisation and mutation proposals of the
  sampler towards physically plausible torsions.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from repro import constants
from repro.geometry.vectors import wrap_angle
from repro.protein.residue import validate_sequence

__all__ = ["RamachandranModel", "sample_basin", "sample_loop_torsions"]


#: One basin: (phi_mean, psi_mean, phi_sigma, psi_sigma, weight).
_Basin = Tuple[float, float, float, float, float]


@lru_cache(maxsize=None)
def _basin_table(aa: str) -> Tuple[Tuple[_Basin, ...], Tuple[float, ...]]:
    """The basin tuple of residue type ``aa`` and its basin-draw CDF.

    The CDF is built exactly as ``Generator.choice(k, p=weights)`` builds
    it from the normalised weights (cumulative sum, then divided by its
    last entry), so :func:`_draw_basin` returns the index ``choice`` would.
    """
    basins = constants.ramachandran_basins(aa)
    weights = np.array([b[4] for b in basins])
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return basins, tuple(cdf.tolist())


def _draw_basin(cdf: Tuple[float, ...], rng: np.random.Generator) -> int:
    """Draw a basin index from ``cdf``.

    Consumes one ``rng.random()`` double and picks the first bin whose
    cumulative weight exceeds it: the same draw and the same stream use as
    ``rng.choice(len(cdf), p=weights)``, without its per-call array set-up.
    """
    return bisect_right(cdf, rng.random())


def sample_basin(aa: str, rng: np.random.Generator) -> Tuple[float, float]:
    """Draw one (phi, psi) pair for residue type ``aa`` from its basin mixture."""
    basins, cdf = _basin_table(aa)
    phi_mean, psi_mean, phi_sigma, psi_sigma, _w = basins[_draw_basin(cdf, rng)]
    phi = wrap_angle(rng.normal(phi_mean, phi_sigma))
    psi = wrap_angle(rng.normal(psi_mean, psi_sigma))
    return phi, psi


def sample_loop_torsions(
    sequence: str,
    rng: np.random.Generator,
    smoothness: float = 0.0,
) -> np.ndarray:
    """Sample a full loop torsion vector ``(phi_1, psi_1, ..., phi_n, psi_n)``.

    Parameters
    ----------
    sequence:
        One-letter loop sequence.
    rng:
        Random generator.
    smoothness:
        In ``[0, 1)``: probability that a residue re-uses the basin of its
        predecessor, which produces runs of similar local structure (as real
        loops do) instead of independent per-residue draws.
    """
    seq = validate_sequence(sequence)
    if not (0.0 <= smoothness < 1.0):
        raise ValueError("smoothness must be in [0, 1)")
    torsions: List[float] = []
    prev_basin: Optional[int] = None
    for aa in seq:
        basins, cdf = _basin_table(aa)
        # The smoothness draw is taken only when the predecessor's basin
        # exists for this residue type.
        if prev_basin is not None and prev_basin < len(basins) and rng.random() < smoothness:
            idx = prev_basin
        else:
            idx = _draw_basin(cdf, rng)
        phi_mean, psi_mean, phi_sigma, psi_sigma, _w = basins[idx]
        torsions.append(wrap_angle(rng.normal(phi_mean, phi_sigma)))
        torsions.append(wrap_angle(rng.normal(psi_mean, psi_sigma)))
        prev_basin = idx
    return np.array(torsions, dtype=np.float64)


@dataclass
class RamachandranModel:
    """Callable wrapper bundling the basin tables with convenience methods."""

    smoothness: float = 0.3

    def sample_sequence(self, sequence: str, rng: np.random.Generator) -> np.ndarray:
        """Sample a loop torsion vector for ``sequence``."""
        return sample_loop_torsions(sequence, rng, smoothness=self.smoothness)

    def sample_population(
        self, sequence: str, population_size: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Sample a ``(P, 2n)`` population torsion matrix for ``sequence``."""
        if population_size <= 0:
            raise ValueError("population_size must be positive")
        return np.stack(
            [self.sample_sequence(sequence, rng) for _ in range(population_size)]
        )

    def log_density(self, aa: str, phi: float, psi: float) -> float:
        """Log of the (unnormalised) basin-mixture density at (phi, psi).

        Used by tests and by the mutation operator's optional bias.  The
        density is a wrapped-Gaussian mixture; wrapping is approximated by
        evaluating the nearest periodic image, which is accurate for the
        basin widths used here (sigma << pi).
        """
        basins = constants.ramachandran_basins(aa)
        total = 0.0
        for phi_mean, psi_mean, phi_sigma, psi_sigma, weight in basins:
            dphi = wrap_angle(phi - phi_mean)
            dpsi = wrap_angle(psi - psi_mean)
            z = (dphi / phi_sigma) ** 2 + (dpsi / psi_sigma) ** 2
            total += weight * np.exp(-0.5 * z) / (phi_sigma * psi_sigma)
        return float(np.log(max(total, 1e-300)))

    def sample_pairs(
        self, aa: str, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Sample ``count`` independent (phi, psi) pairs for residue type ``aa``."""
        out = np.zeros((count, 2), dtype=np.float64)
        for i in range(count):
            out[i] = sample_basin(aa, rng)
        return out
