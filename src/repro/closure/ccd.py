"""Cyclic Coordinate Descent loop closure (scalar and batched).

For each pivot torsion (phi rotates about the N-CA bond, psi about the
CA-C bond) CCD computes, in closed form, the rotation angle that minimises
the summed squared distance between the three *moving* end atoms
(``N_{n+1}``, ``CA_{n+1}``, ``C_{n+1}`` as built from the current loop) and
their *fixed* anchor positions, then applies that rotation to every atom
downstream of the pivot.  Sweeps repeat until the closure RMSD drops below
tolerance or the iteration budget is exhausted.

Because the rotations are applied directly to Cartesian coordinates, the
final torsion vector is re-measured from the closed coordinates — the
round-trip property of :mod:`repro.geometry` guarantees the two
representations stay consistent.

The batched kernel has two execution paths.  The default (``kernels=None``)
is a numpy **component-major sweep**:

* *Layout.*  The population's atoms are held as one ``(3, n*4+3, P)``
  array, members last, so each coordinate component of a pivot's tail is
  a ``(m, P)`` block whose rows are contiguous over the members.  The
  tail is rotated in place with the Rodrigues expression tree of
  :func:`repro.geometry.rotation._rotate_points_about_axes`
  (``x*c + (ky*z - kz*y)*s + kx*t + ox`` with
  ``t = (x*kx + y*ky + z*kz)*(1-c)``); every operation is elementwise, so
  the layout cannot change a bit.
* *Start-sorted prefixes.*  Members are stably sorted by start index once
  per call, so at pivot ``j`` the members allowed to move (``start <= j``)
  are a contiguous prefix found with ``searchsorted``: members whose
  mutation point lies past the pivot cost nothing.  Members that converge
  leave the working array by a stable compaction, which keeps the
  remaining starts sorted; the caller's order is restored at the end.
* *Reductions unchanged.*  The axis normalisation, the degenerate-axis
  ``einsum`` and :func:`~repro.scoring.pairwise.rotation_alignment_terms`
  run on C-contiguous member-major ``(k, 3)``/``(k, 3, 3)`` gathers.  An
  ``einsum`` over three terms sums in an order that depends on the memory
  layout of its operands (``(x0²+x2²)+x1²`` on a C-ordered ``(k, 3)``, a
  different last bit on an F-ordered one), so these reductions must see
  the same layout the member-major path gave them.

When a :class:`~repro.xp.dispatch.KernelBundle` is supplied, each sweep
instead runs the generic :func:`_ccd_sweep` kernel: a full-population
masked sweep in which excluded members get a ``0.0`` angle and keep their
original coordinates through a ``where`` selection.  It computes
bit-identical coordinates to the component-major sweep while keeping
every array shape static, the property that lets the jax tier compile one
sweep as one ``jit`` unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro import constants
from repro.geometry.internal import backbone_torsions, backbone_torsions_batch
from repro.geometry.rmsd import coordinate_rmsd, coordinate_rmsd_batch
from repro.geometry.rotation import (
    _normalize_last_axis,
    _rotate_points_about_axes,
    rotate_about_axis,
)
from repro.geometry.vectors import normalize
from repro.loops.loop import LoopTarget
from repro.scoring.pairwise import (
    _rotation_alignment_terms,
    rotation_alignment_terms,
)
from repro.xp.dispatch import array_kernel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.xp.dispatch import KernelBundle

__all__ = ["CCDResult", "ccd_close", "ccd_close_batch"]

_EPS = 1e-12
_ATOMS = constants.BACKBONE_ATOMS_PER_RESIDUE


@dataclass
class CCDResult:
    """Outcome of a CCD closure call.

    Attributes
    ----------
    torsions:
        Closed torsion vector(s): ``(2n,)`` for the scalar call, ``(P, 2n)``
        for the batched call.
    coords:
        Closed loop coordinates, ``(n, 4, 3)`` or ``(P, n, 4, 3)``.
    closure:
        Built closure atoms, ``(3, 3)`` or ``(P, 3, 3)``.
    closure_error:
        Final closure RMSD (scalar or ``(P,)``).
    iterations:
        Number of CCD sweeps executed (scalar or ``(P,)``; for the batched
        call every member reports the sweep at which it converged, or the
        sweep budget if it never did).
    """

    torsions: np.ndarray
    coords: np.ndarray
    closure: np.ndarray
    closure_error: np.ndarray
    iterations: np.ndarray


def _pivot_indices(j: int) -> Tuple[int, int, int]:
    """Map torsion index ``j`` to (axis atom B, axis atom C, first moving atom).

    Indices are into the flattened per-conformation atom array of
    ``n * 4 + 3`` rows (N, CA, C, O per residue, then the three closure
    atoms).  Even ``j`` is a phi torsion of residue ``i = j // 2`` (axis
    N_i -> CA_i, moving atoms start at C_i); odd ``j`` is the psi torsion
    (axis CA_i -> C_i, moving atoms start at O_i).
    """
    i = j // 2
    if j % 2 == 0:
        return i * _ATOMS + 0, i * _ATOMS + 1, i * _ATOMS + 2
    return i * _ATOMS + 1, i * _ATOMS + 2, i * _ATOMS + 3


def _optimal_angle(
    end_atoms: np.ndarray, targets: np.ndarray, origin: np.ndarray, axis: np.ndarray
) -> float:
    """Closed-form optimal CCD rotation angle for one conformation.

    Uses the expanded forms ``r_perp . f_perp = r.f - (r.axis)(f.axis)`` and
    ``(axis x r_perp) . f_perp = axis . (r x f)``, which need no
    perpendicular-component vectors.
    """
    a = 0.0
    b = 0.0
    for k in range(end_atoms.shape[0]):
        r = end_atoms[k] - origin
        f = targets[k] - origin
        a += np.dot(r, f) - np.dot(r, axis) * np.dot(f, axis)
        b += np.dot(axis, np.cross(r, f))
    if abs(a) < _EPS and abs(b) < _EPS:
        return 0.0
    return float(np.arctan2(b, a))


def ccd_close(
    torsions: np.ndarray,
    target: LoopTarget,
    start_index: int = 0,
    max_iterations: int = 30,
    tolerance: float = 0.25,
) -> CCDResult:
    """Close a single loop conformation with CCD (scalar reference version).

    Parameters
    ----------
    torsions:
        ``(2n,)`` torsion vector of the open conformation.
    target:
        The loop target supplying anchors and geometry.
    start_index:
        First torsion index CCD is allowed to adjust.  The paper starts CCD
        at the torsion immediately following the mutated ones, leaving the
        freshly mutated angles untouched.
    max_iterations:
        Maximum number of CCD sweeps.
    tolerance:
        Closure RMSD (A) below which the loop counts as closed.
    """
    torsions = np.asarray(torsions, dtype=np.float64)
    n = target.n_residues
    if torsions.shape != (2 * n,):
        raise ValueError(f"torsions must have shape ({2 * n},)")
    if not (0 <= start_index < 2 * n):
        raise ValueError("start_index out of range")

    coords, closure = target.build(torsions)
    moving = np.concatenate([coords.reshape(-1, 3), closure])  # (n*4+3, 3)
    anchors = target.c_anchor

    error = coordinate_rmsd(moving[-3:], anchors)
    sweeps = 0
    for sweep in range(max_iterations):
        if error <= tolerance:
            break
        sweeps = sweep + 1
        for j in range(start_index, 2 * n):
            b_idx, c_idx, move_start = _pivot_indices(j)
            origin = moving[b_idx]
            axis = moving[c_idx] - origin
            norm = np.linalg.norm(axis)
            if norm < _EPS:
                continue
            axis = axis / norm
            angle = _optimal_angle(moving[-3:], anchors, origin, axis)
            if abs(angle) < 1e-10:
                continue
            moving[move_start:] = rotate_about_axis(
                moving[move_start:], origin, axis, angle
            )
        error = coordinate_rmsd(moving[-3:], anchors)

    coords = moving[: n * _ATOMS].reshape(n, _ATOMS, 3)
    closure = moving[n * _ATOMS:]
    closed_torsions = backbone_torsions(coords, target.n_anchor, closure)
    return CCDResult(
        torsions=closed_torsions,
        coords=coords,
        closure=closure,
        closure_error=np.float64(error),
        iterations=np.int64(sweeps),
    )


@array_kernel("ccd_sweep", static_argnums=(4,))
def _ccd_sweep(xp, moving, anchors, start_indices, active, n_torsions):
    """One full CCD sweep over every pivot, masked, shapes static.

    ``moving`` is the ``(P, n*4+3, 3)`` flattened atom array; ``active``
    the ``(P,)`` mask of members still converging; ``n_torsions`` (static
    under jit) the pivot count ``2n``.  Members excluded by the mask, the
    per-member start indices, the noise guard or a degenerate pivot axis
    get a ``0.0`` angle and their original coordinates are re-selected
    after the rotation, so this computes bit-identical coordinates to the
    component-major sweep of :func:`ccd_close_batch`.
    """
    for j in range(n_torsions):
        b_idx, c_idx, move_start = _pivot_indices(j)
        origins = moving[:, b_idx, :]
        raw_axes = moving[:, c_idx, :] - origins
        axes = _normalize_last_axis(xp, raw_axes)

        a, b = _rotation_alignment_terms(
            xp, moving[:, -3:, :], anchors, origins, axes
        )
        angles = xp.arctan2(b, a)
        # Same exclusions as the component-major sweep, expressed as masks:
        # pivots before a member's mutation point, pure-noise gradient
        # terms, degenerate axes, converged members, sub-threshold angles.
        angles = xp.where(start_indices <= j, angles, 0.0)
        angles = xp.where((xp.abs(a) < _EPS) & (xp.abs(b) < _EPS), 0.0, angles)
        angles = xp.where(
            xp.einsum("pi,pi->p", raw_axes, raw_axes) < _EPS * _EPS, 0.0, angles
        )
        angles = xp.where(active, angles, 0.0)

        # Rotations below the angle threshold are discarded by selection,
        # not by rotating with a zero angle: ``(p - origin) + origin`` is
        # a lossy round trip, so excluded members must keep their original
        # coordinates verbatim for the sweep to match the numpy path bit
        # for bit.
        rotating = xp.abs(angles) > 1e-10
        tail = moving[:, move_start:, :]
        rotated = _rotate_points_about_axes(
            xp, tail, origins, axes, angles, normalized=True
        )
        tail = xp.where(rotating[:, None, None], rotated, tail)
        moving = xp.concatenate((moving[:, :move_start, :], tail), axis=1)
    return moving


def _rotate_tail(tail, origin, axes, angles) -> None:
    """Rodrigues-rotate a component-major ``(3, m, k)`` tail in place.

    ``origin`` is the ``(3, k)`` pivot atom, ``axes`` the ``(k, 3)`` unit
    axes and ``angles`` the ``(k,)`` angles.  Each component is the same
    expression tree as :func:`~repro.geometry.rotation._rotate_points_about_axes`
    evaluates on member-major points, so the coordinates are bit-identical.
    """
    ox, oy, oz = origin
    kx, ky, kz = np.ascontiguousarray(axes.T)
    c = np.cos(angles)
    s = np.sin(angles)
    x = tail[0] - ox
    y = tail[1] - oy
    z = tail[2] - oz
    t = (x * kx + y * ky + z * kz) * (1.0 - c)
    tail[0] = x * c + (ky * z - kz * y) * s + kx * t + ox
    tail[1] = y * c + (kz * x - kx * z) * s + ky * t + oy
    tail[2] = z * c + (kx * y - ky * x) * s + kz * t + oz


def _closure_ends(loop) -> np.ndarray:
    """The ``(P, 3, 3)`` closure atoms of a component-major loop."""
    return np.ascontiguousarray(loop[:, -3:, :].transpose(2, 1, 0))


def _component_sweep(loop, starts, anchors, n_torsions) -> None:
    """One in-place CCD sweep over a component-major ``(3, n*4+3, P)`` loop.

    ``starts`` holds the members' start indices in ascending order, so the
    members a pivot may move are the prefix ``loop[..., :k]``.
    """
    prefixes = np.searchsorted(starts, np.arange(n_torsions), side="right")
    for j, k in enumerate(prefixes):
        if k == 0:
            continue
        b_idx, c_idx, move_start = _pivot_indices(j)
        live = loop[..., :k]
        origin = live[:, b_idx, :]
        # The reductions run on C-contiguous member-major gathers: einsum's
        # summation order depends on the memory layout of its operands.
        origins = np.ascontiguousarray(origin.T)
        raw_axes = np.ascontiguousarray((live[:, c_idx, :] - origin).T)
        axes = normalize(raw_axes)
        a, b = rotation_alignment_terms(_closure_ends(live), anchors, origins, axes)
        angles = np.arctan2(b, a)
        # Members whose gradient terms are pure noise keep the pivot fixed,
        # as do members with a degenerate (zero-length) pivot axis: the
        # scalar kernel skips the latter with its `norm < _EPS` guard, and
        # rotating about a near-zero axis would scale the tail.
        angles = np.where((np.abs(a) < _EPS) & (np.abs(b) < _EPS), 0.0, angles)
        angles = np.where(
            np.einsum("pi,pi->p", raw_axes, raw_axes) < _EPS * _EPS, 0.0, angles
        )
        rotating = np.abs(angles) > 1e-10
        if np.all(rotating):
            _rotate_tail(live[:, move_start:, :], origin, axes, angles)
        elif np.any(rotating):
            # Only rotate the members that actually move: a 0.0-angle
            # rotation is not a bit-exact identity.
            move = np.flatnonzero(rotating)
            tail = live[:, move_start:, move]
            _rotate_tail(tail, origin[:, move], axes[move], angles[move])
            live[:, move_start:, move] = tail


def ccd_close_batch(
    torsions: np.ndarray,
    target: LoopTarget,
    start_indices: Optional[np.ndarray] = None,
    max_iterations: int = 30,
    tolerance: float = 0.25,
    kernels: Optional["KernelBundle"] = None,
) -> CCDResult:
    """Close a whole population with CCD in lock-step (batched version).

    This is the simulated analogue of the paper's ``[CCD]`` GPU kernel: each
    population member corresponds to one GPU thread, and every pivot update
    is applied to all members simultaneously as a vectorised operation.

    Parameters
    ----------
    torsions:
        ``(P, 2n)`` population torsions.
    target:
        The loop target supplying anchors and geometry.
    start_indices:
        Optional ``(P,)`` integer array: the first torsion index CCD may
        adjust for each member (mirroring the per-thread mutation points).
        Pivots below a member's start index leave that member unchanged.
    max_iterations:
        Maximum number of CCD sweeps.
    tolerance:
        Closure RMSD below which a member stops being updated.
    kernels:
        Optional :class:`~repro.xp.dispatch.KernelBundle`: sweeps run as
        the masked full-population :func:`_ccd_sweep` kernel (one jit unit
        per sweep on a compiling namespace) instead of the numpy
        component-major sweep.  Both paths produce the same coordinates.
    """
    torsions = np.asarray(torsions, dtype=np.float64)
    n = target.n_residues
    if torsions.ndim != 2 or torsions.shape[1] != 2 * n:
        raise ValueError(f"torsions must have shape (P, {2 * n})")
    pop = torsions.shape[0]

    if start_indices is None:
        start_indices = np.zeros(pop, dtype=np.int64)
    else:
        start_indices = np.asarray(start_indices, dtype=np.int64)
        if start_indices.shape != (pop,):
            raise ValueError("start_indices must have shape (P,)")
        if np.any((start_indices < 0) | (start_indices >= 2 * n)):
            raise ValueError("start_indices out of range")

    coords, closure = target.build_batch(torsions)
    moving = np.concatenate(
        [coords.reshape(pop, n * _ATOMS, 3), closure], axis=1
    )  # (P, n*4+3, 3)
    anchors = target.c_anchor  # (3, 3)

    if kernels is None:
        moving, errors, converged_at = _close_component_major(
            moving, start_indices, anchors, max_iterations, tolerance, 2 * n
        )
    else:
        errors = coordinate_rmsd_batch(moving[:, -3:, :], anchors)
        converged_at = np.where(errors <= tolerance, 0, max_iterations).astype(np.int64)
        for sweep in range(max_iterations):
            active = errors > tolerance
            if not np.any(active):
                break
            moving = kernels.to_numpy(
                kernels.ccd_sweep(moving, anchors, start_indices, active, 2 * n)
            )
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


def _close_component_major(
    moving: np.ndarray,
    start_indices: np.ndarray,
    anchors: np.ndarray,
    max_iterations: int,
    tolerance: float,
    n_torsions: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The numpy sweep loop; returns ``(moving, errors, converged_at)``.

    Works in start-sorted member order on a ``(3, n*4+3, P)`` copy of
    ``moving``.  Members leave the working array once they converge (a
    stable compaction, so the remaining starts stay sorted); the caller's
    order is restored at the end.
    """
    order = np.argsort(start_indices, kind="stable")
    done = np.ascontiguousarray(moving[order].transpose(2, 1, 0))
    errors = coordinate_rmsd_batch(_closure_ends(done), anchors)
    converged_at = np.where(errors <= tolerance, 0, max_iterations).astype(np.int64)

    live = np.flatnonzero(errors > tolerance)
    loop = np.take(done, live, axis=2)
    starts = start_indices[order][live]
    for sweep in range(max_iterations):
        if live.size == 0:
            break
        _component_sweep(loop, starts, anchors, n_torsions)
        live_errors = coordinate_rmsd_batch(_closure_ends(loop), anchors)
        errors[live] = live_errors
        closed = live_errors <= tolerance
        if np.any(closed):
            converged_at[live[closed]] = sweep + 1
            done[..., live[closed]] = np.compress(closed, loop, axis=2)
            still_open = ~closed
            live = live[still_open]
            loop = np.compress(still_open, loop, axis=2)
            starts = starts[still_open]
    done[..., live] = loop

    restored = np.empty_like(moving)
    restored[order] = done.transpose(2, 1, 0)
    unsorted_errors = np.empty_like(errors)
    unsorted_errors[order] = errors
    unsorted_converged = np.empty_like(converged_at)
    unsorted_converged[order] = converged_at
    return restored, unsorted_errors, unsorted_converged
