"""Root-mean-square deviation between conformations.

Loop decoys are compared against the native loop.  Because the anchors of
the loop are fixed in the protein frame, the primary metric is the plain
*coordinate* RMSD (no superposition), exactly as used in loop-modelling
benchmarks; a Kabsch superposed RMSD is also provided for cluster analysis
of isolated loop fragments.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "coordinate_rmsd",
    "coordinate_rmsd_batch",
    "coordinate_rmsd_pairs",
    "rmsd_neighbor_mask",
    "kabsch_rotation",
    "superposed_rmsd",
]


def coordinate_rmsd(a: np.ndarray, b: np.ndarray) -> float:
    """Plain RMSD between two ``(m, 3)`` coordinate sets (no superposition)."""
    a = np.asarray(a, dtype=np.float64).reshape(-1, 3)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 3)
    if a.shape != b.shape:
        raise ValueError(f"coordinate sets differ in shape: {a.shape} vs {b.shape}")
    diff = a - b
    return float(np.sqrt(np.mean(np.sum(diff * diff, axis=-1))))


def coordinate_rmsd_batch(population: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """RMSD of each population member against a single reference.

    Parameters
    ----------
    population:
        ``(P, ..., 3)`` population coordinates; trailing structure is
        flattened to ``(P, m, 3)``.
    reference:
        ``(..., 3)`` reference coordinates with the same per-member layout.

    Returns
    -------
    numpy.ndarray
        ``(P,)`` RMSD values in Angstroms.
    """
    population = np.asarray(population, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    pop = population.shape[0]
    flat_ref = reference.reshape(-1, 3)
    # Explicit atom count: ``reshape(0, -1, 3)`` is ambiguous for P = 0.
    atoms = population[0].size // 3 if pop else flat_ref.shape[0]
    flat_pop = population.reshape(pop, atoms, 3)
    if flat_pop.shape[1] != flat_ref.shape[0]:
        raise ValueError(
            "population and reference have different numbers of atoms: "
            f"{flat_pop.shape[1]} vs {flat_ref.shape[0]}"
        )
    diff = flat_pop - flat_ref[None]
    return np.sqrt(np.mean(np.sum(diff * diff, axis=-1), axis=-1))


def _flatten_conformations(coords: np.ndarray, label: str) -> np.ndarray:
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim < 2 or coords.shape[-1] != 3:
        raise ValueError(f"{label} must have shape (D, ..., 3)")
    return coords.reshape(coords.shape[0], -1, 3)


def coordinate_rmsd_pairs(
    coords_a: np.ndarray,
    coords_b: np.ndarray,
    pairs_a: np.ndarray,
    pairs_b: np.ndarray,
) -> np.ndarray:
    """RMSD of indexed conformation pairs (the batch gather-reduce form).

    Pair ``k`` compares ``coords_a[pairs_a[k]]`` with
    ``coords_b[pairs_b[k]]``; the result has shape ``(len(pairs_a),)``.
    This is the RMSD analogue of the pairwise engine's indexed-pair
    kernels: callers enumerate whichever pair set they need (dense,
    cell-list pruned, ...) and the distance math stays in one place.
    """
    a = _flatten_conformations(coords_a, "coords_a")
    b = _flatten_conformations(coords_b, "coords_b")
    if a.shape[1:] != b.shape[1:]:
        raise ValueError(
            "conformation sets differ in per-member shape: "
            f"{a.shape[1:]} vs {b.shape[1:]}"
        )
    diff = a[np.asarray(pairs_a, dtype=np.int64)] - b[
        np.asarray(pairs_b, dtype=np.int64)
    ]
    return np.sqrt(np.mean(np.sum(diff * diff, axis=-1), axis=-1))


#: Candidate pairs evaluated per chunk by :func:`rmsd_neighbor_mask`, so the
#: gathered (pairs, atoms, 3) temporaries stay cache-resident.
_RMSD_PAIR_CHUNK = 4096


def rmsd_neighbor_mask(
    coords_a: np.ndarray,
    coords_b: np.ndarray,
    cutoff: float,
    prune: bool = True,
) -> np.ndarray:
    """For each conformation of A, whether some B is within RMSD ``cutoff``.

    The batch path behind structure-coverage checks.  Instead of the
    all-pairs ``D_A x D_B`` scan, each conformation is embedded as its
    centroid and B's centroids are indexed in an
    :class:`~repro.scoring.pairwise.EnvironmentGrid` cell list with edge
    ``cutoff``: by Jensen's inequality ``RMSD(a, b) >= |centroid(a) -
    centroid(b)|``, so every pair the grid prunes is guaranteed to be
    beyond the cutoff and the pruned mask is outcome-identical to the
    dense scan (``prune=False`` evaluates every pair through the same
    accumulation path as the reference).

    Parameters
    ----------
    coords_a / coords_b:
        ``(D, ..., 3)`` conformation sets with identical per-member layout.
    cutoff:
        Coordinate RMSD (A) below or at which two conformations match.
    prune:
        When false, run the dense reference scan.
    """
    if cutoff <= 0.0:
        raise ValueError("cutoff must be positive")
    a = _flatten_conformations(coords_a, "coords_a")
    b = _flatten_conformations(coords_b, "coords_b")
    if a.shape[1:] != b.shape[1:]:
        raise ValueError(
            "conformation sets differ in per-member shape: "
            f"{a.shape[1:]} vs {b.shape[1:]}"
        )
    matched = np.zeros(a.shape[0], dtype=bool)
    if a.shape[0] == 0 or b.shape[0] == 0:
        return matched

    if prune:
        # Imported here: repro.scoring imports repro.geometry modules, so a
        # module-level import would be circular.
        from repro.scoring.pairwise import EnvironmentGrid

        grid = EnvironmentGrid(b.mean(axis=1), cutoff)
        pairs_a, pairs_b = grid.candidate_neighbors(a.mean(axis=1))
    else:
        pairs_a = np.repeat(np.arange(a.shape[0], dtype=np.int64), b.shape[0])
        pairs_b = np.tile(np.arange(b.shape[0], dtype=np.int64), a.shape[0])

    for start in range(0, pairs_a.shape[0], _RMSD_PAIR_CHUNK):
        chunk = slice(start, start + _RMSD_PAIR_CHUNK)
        rmsds = coordinate_rmsd_pairs(a, b, pairs_a[chunk], pairs_b[chunk])
        hits = rmsds <= cutoff
        matched[pairs_a[chunk][hits]] = True
    return matched


def kabsch_rotation(mobile: np.ndarray, target: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Optimal rotation superimposing ``mobile`` onto ``target`` (Kabsch).

    Returns
    -------
    (rotation, mobile_centroid, target_centroid)
        The ``(3, 3)`` rotation matrix together with the centroids that were
        subtracted before the fit.  Apply as
        ``(mobile - mobile_centroid) @ rotation.T + target_centroid``.
    """
    mobile = np.asarray(mobile, dtype=np.float64).reshape(-1, 3)
    target = np.asarray(target, dtype=np.float64).reshape(-1, 3)
    if mobile.shape != target.shape:
        raise ValueError("mobile and target must have the same shape")

    mc = mobile.mean(axis=0)
    tc = target.mean(axis=0)
    p = mobile - mc
    q = target - tc

    h = p.T @ q
    u, _s, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    correction = np.diag([1.0, 1.0, d])
    rotation = vt.T @ correction @ u.T
    return rotation, mc, tc


def superposed_rmsd(mobile: np.ndarray, target: np.ndarray) -> float:
    """RMSD after optimal (Kabsch) superposition of ``mobile`` onto ``target``."""
    mobile = np.asarray(mobile, dtype=np.float64).reshape(-1, 3)
    target = np.asarray(target, dtype=np.float64).reshape(-1, 3)
    rotation, mc, tc = kabsch_rotation(mobile, target)
    moved = (mobile - mc) @ rotation.T + tc
    return coordinate_rmsd(moved, target)
