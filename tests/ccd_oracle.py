"""Member-major subset reference implementation of batched CCD closure.

This is the numpy path that :func:`repro.closure.ccd.ccd_close_batch` ran
before its component-major sweep: the loop is held as ``(P, n*4+3, 3)``,
converged members are sliced out of each sweep, and every pivot computes
its alignment terms for the whole active subset before rotating the
members that move.  It is kept under ``tests/`` only, as the oracle the
production kernel must match byte for byte (``tobytes()`` equality) on
all five :class:`~repro.closure.ccd.CCDResult` fields.  Import it as
``from ccd_oracle import ccd_close_batch``; ``tests/`` is on ``sys.path``
through its ``conftest.py``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import constants
from repro.closure.ccd import CCDResult, _pivot_indices
from repro.geometry.internal import backbone_torsions_batch
from repro.geometry.rmsd import coordinate_rmsd_batch
from repro.geometry.rotation import rotate_points_about_axes_batch
from repro.geometry.vectors import normalize
from repro.loops.loop import LoopTarget
from repro.scoring.pairwise import rotation_alignment_terms

_EPS = 1e-12
_ATOMS = constants.BACKBONE_ATOMS_PER_RESIDUE


def ccd_close_batch(
    torsions: np.ndarray,
    target: LoopTarget,
    start_indices: Optional[np.ndarray] = None,
    max_iterations: int = 30,
    tolerance: float = 0.25,
) -> CCDResult:
    """Close a population with the member-major subset sweep."""
    torsions = np.asarray(torsions, dtype=np.float64)
    n = target.n_residues
    pop = torsions.shape[0]
    if start_indices is None:
        start_indices = np.zeros(pop, dtype=np.int64)
    else:
        start_indices = np.asarray(start_indices, dtype=np.int64)

    coords, closure = target.build_batch(torsions)
    moving = np.concatenate([coords.reshape(pop, n * _ATOMS, 3), closure], axis=1)
    anchors = target.c_anchor

    errors = coordinate_rmsd_batch(moving[:, -3:, :], anchors)
    converged_at = np.where(errors <= tolerance, 0, max_iterations).astype(np.int64)

    for sweep in range(max_iterations):
        active = errors > tolerance
        if not np.any(active):
            break
        subset = not np.all(active)
        if subset:
            rows = np.where(active)[0]
            sub = moving[rows]
            sub_starts = start_indices[rows]
        else:
            sub = moving
            sub_starts = start_indices
        for j in range(2 * n):
            b_idx, c_idx, move_start = _pivot_indices(j)
            origins = sub[:, b_idx, :]
            raw_axes = sub[:, c_idx, :] - origins
            axes = normalize(raw_axes)
            a, b = rotation_alignment_terms(sub[:, -3:, :], anchors, origins, axes)
            angles = np.arctan2(b, a)
            angles = np.where(sub_starts <= j, angles, 0.0)
            angles = np.where((np.abs(a) < _EPS) & (np.abs(b) < _EPS), 0.0, angles)
            angles = np.where(
                np.einsum("pi,pi->p", raw_axes, raw_axes) < _EPS * _EPS, 0.0, angles
            )
            rotating = np.abs(angles) > 1e-10
            if not np.any(rotating):
                continue
            if np.all(rotating):
                sub[:, move_start:, :] = rotate_points_about_axes_batch(
                    sub[:, move_start:, :], origins, axes, angles, normalized=True
                )
            else:
                move = np.where(rotating)[0]
                sub[move, move_start:, :] = rotate_points_about_axes_batch(
                    sub[move, move_start:, :],
                    origins[move],
                    axes[move],
                    angles[move],
                    normalized=True,
                )
        if subset:
            moving[rows] = sub

        errors = coordinate_rmsd_batch(moving[:, -3:, :], anchors)
        newly = (errors <= tolerance) & (converged_at == max_iterations)
        converged_at[newly] = sweep + 1

    coords = moving[:, : n * _ATOMS, :].reshape(pop, n, _ATOMS, 3)
    closure = moving[:, n * _ATOMS:, :]
    closed_torsions = backbone_torsions_batch(coords, target.n_anchor, closure)
    return CCDResult(
        torsions=closed_torsions,
        coords=coords,
        closure=closure,
        closure_error=errors,
        iterations=converged_at,
    )
