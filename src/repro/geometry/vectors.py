"""Elementary vector operations: norms, bond angles, dihedral angles.

The dihedral angle convention follows the IUPAC definition used in protein
backbone torsions: looking along the B->C bond, the dihedral is the signed
angle from the plane (A, B, C) to the plane (B, C, D), positive clockwise,
in the range (-pi, pi].
"""

from __future__ import annotations

import math

import numpy as np

from repro.constants import TWO_PI

__all__ = [
    "normalize",
    "wrap_angle",
    "angle_between",
    "dihedral_angle",
    "dihedral_angles_batch",
    "angle_difference",
]

_EPS = 1e-12


def normalize(v: np.ndarray, axis: int = -1) -> np.ndarray:
    """Return ``v`` scaled to unit length along ``axis``.

    Zero-length vectors are returned unchanged (all zeros) rather than
    producing NaNs, which keeps the batched kernels free of invalid-value
    warnings when a degenerate conformation appears in the population.
    """
    v = np.asarray(v, dtype=np.float64)
    if axis == -1 or axis == v.ndim - 1:
        # Fast path for the ubiquitous last-axis case: one einsum instead
        # of np.linalg.norm's generic machinery (this sits inside the CCD
        # sweep, once per pivot).
        norm = np.sqrt(np.einsum("...i,...i->...", v, v))[..., None]
    else:
        norm = np.linalg.norm(v, axis=axis, keepdims=True)
    safe = np.where(norm < _EPS, 1.0, norm)
    return v / safe


def wrap_angle(angle):
    """Wrap angles into the interval (-pi, pi].

    Works element-wise on arrays of any shape and on Python scalars.
    """
    if isinstance(angle, float) and math.isfinite(angle):
        # Scalar fast path: the same IEEE operations as the array path
        # without its array round trip.  ``math.floor`` raises on nan/inf,
        # which the array path maps to nan, so those fall through.
        x = float(angle)
        wrapped = x - TWO_PI * float(math.floor((x + math.pi) / TWO_PI))
        return wrapped + TWO_PI if wrapped <= -math.pi else wrapped
    arr = np.asarray(angle, dtype=np.float64)
    wrapped = arr - TWO_PI * np.floor((arr + np.pi) / TWO_PI)
    # floor maps +pi to +pi (not -pi); enforce the half-open convention.
    wrapped = np.where(wrapped <= -np.pi, wrapped + TWO_PI, wrapped)
    if np.isscalar(angle) or np.ndim(angle) == 0:
        return float(wrapped)
    return wrapped


def angle_difference(a, b):
    """Smallest signed difference ``a - b`` between two angles (radians)."""
    return wrap_angle(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64))


def angle_between(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> float:
    """Bond angle at vertex ``b`` formed by points ``a``-``b``-``c`` (radians)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    u = a - b
    v = c - b
    cosang = np.dot(u, v) / max(np.linalg.norm(u) * np.linalg.norm(v), _EPS)
    return float(np.arccos(np.clip(cosang, -1.0, 1.0)))


def dihedral_angle(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> float:
    """Signed dihedral angle A-B-C-D in radians, in (-pi, pi]."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)

    b1 = b - a
    b2 = c - b
    b3 = d - c

    n1 = np.cross(b1, b2)
    n2 = np.cross(b2, b3)
    m1 = np.cross(n1, b2 / max(np.linalg.norm(b2), _EPS))

    x = np.dot(n1, n2)
    y = np.dot(m1, n2)
    return float(np.arctan2(y, x))


def dihedral_angles_batch(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray
) -> np.ndarray:
    """Vectorised dihedral angles for stacked point quadruples.

    Parameters
    ----------
    a, b, c, d:
        Arrays of shape ``(..., 3)``; the dihedral is computed independently
        for each leading index.

    Returns
    -------
    numpy.ndarray
        Array of shape ``(...,)`` of signed dihedral angles in (-pi, pi].
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)

    b1 = b - a
    b2 = c - b
    b3 = d - c

    n1 = np.cross(b1, b2)
    n2 = np.cross(b2, b3)
    b2n = normalize(b2)
    m1 = np.cross(n1, b2n)

    x = np.einsum("...i,...i->...", n1, n2)
    y = np.einsum("...i,...i->...", m1, n2)
    return np.arctan2(y, x)
