"""NeRF (Natural Extension Reference Frame) backbone construction.

Loop conformations are represented by their backbone torsion angles
(phi_i, psi_i); the omega torsions are fixed at 180 degrees and bond
lengths/angles are ideal (Section III.A of the paper).  This module converts
a torsion vector into Cartesian backbone coordinates given the fixed
N-terminal anchor atoms, in both a scalar and a population-batched form.

Chain-building convention
-------------------------
The N-terminal anchor supplies three fixed atoms: the carbonyl carbon of the
residue preceding the loop (``C_prev``) and the ``N`` and ``CA`` atoms of the
first loop residue.  The torsion vector ``(phi_1, psi_1, ..., phi_n, psi_n)``
then determines, in order:

* ``C_i``  from ``phi_i``,
* ``O_i``  from ``psi_i`` (anti-planar to the following nitrogen),
* ``N_{i+1}`` from ``psi_i``,
* ``CA_{i+1}`` from the fixed omega torsion,

and finally the three *closure atoms* ``N_{n+1}, CA_{n+1}, C_{n+1}`` — the
moving copies of the C-terminal anchor backbone, which CCD tries to
superimpose onto their fixed target positions.

The batched variants are generic :mod:`repro.xp` kernels: the per-step
placement (:func:`place_atoms_batch`) and the whole chain build
(:func:`build_backbone_batch`, a functional rewrite whose residue loop
unrolls at trace time) compile under the jax tier; the numpy bindings
perform the same operations as the pre-facade code and are bit-identical.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro import constants
from repro.geometry.rotation import _normalize_last_axis
from repro.xp.dispatch import array_kernel
from repro.xp.xp import numpy_namespace

#: Numpy namespace the public wrappers bind the generic kernels to.
_XP = numpy_namespace()

__all__ = [
    "place_atom",
    "place_atoms_batch",
    "build_backbone",
    "build_backbone_batch",
    "loop_atom_count",
]

_EPS = 1e-12


def _cross3(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Cross product of two 3-vectors.

    The same ``u1*v2 - u2*v1`` arithmetic as ``np.cross``, without its
    axis-normalisation dispatch, which dominates on single vectors.
    """
    return np.array(
        [
            u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0],
        ]
    )


def place_atom(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    bond_length: float,
    bond_angle: float,
    torsion: float,
) -> np.ndarray:
    """Place atom D such that |C-D| = ``bond_length``, angle(B,C,D) =
    ``bond_angle`` and dihedral(A,B,C,D) = ``torsion``.

    This is the scalar NeRF step used by the reference CPU backend.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)

    bc = c - b
    bc /= max(np.linalg.norm(bc), _EPS)
    ab = b - a
    n = _cross3(ab, bc)
    n /= max(np.linalg.norm(n), _EPS)
    m = _cross3(n, bc)

    # The sign of the out-of-plane component is chosen so that the dihedral
    # measured by :func:`repro.geometry.vectors.dihedral_angle` on the placed
    # atom equals ``torsion`` exactly (round-trip property).
    d_local = np.array(
        [
            -bond_length * np.cos(bond_angle),
            bond_length * np.sin(bond_angle) * np.cos(torsion),
            -bond_length * np.sin(bond_angle) * np.sin(torsion),
        ]
    )
    return c + d_local[0] * bc + d_local[1] * m + d_local[2] * n


@array_kernel("place_atoms", static_argnums=(3, 4))
def _place_atoms(xp, a, b, c, bond_length, bond_angle, torsions):
    """Vectorised NeRF placement; ``bond_length``/``bond_angle`` are static.

    Replays :func:`place_atoms_batch` exactly — same normalisation fast
    path (:func:`repro.geometry.rotation._normalize_last_axis`), same
    local-frame arithmetic — so the numpy binding is bit-identical.
    """
    a = xp.asarray(a, dtype=xp.float64)
    b = xp.asarray(b, dtype=xp.float64)
    c = xp.asarray(c, dtype=xp.float64)
    torsions = xp.asarray(torsions, dtype=xp.float64)

    bc = _normalize_last_axis(xp, c - b)
    ab = b - a
    n = _normalize_last_axis(xp, xp.cross(ab, bc))
    m = xp.cross(n, bc)

    sin_t = xp.sin(bond_angle)
    d0 = -bond_length * xp.cos(bond_angle)
    d1 = bond_length * sin_t * xp.cos(torsions)
    d2 = -bond_length * sin_t * xp.sin(torsions)
    return c + d0 * bc + d1[:, None] * m + d2[:, None] * n


def place_atoms_batch(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    bond_length: float,
    bond_angle: float,
    torsions: np.ndarray,
) -> np.ndarray:
    """Vectorised NeRF placement: one atom per population member.

    Parameters
    ----------
    a, b, c:
        Arrays of shape ``(P, 3)`` holding the three reference atoms of each
        population member.
    bond_length, bond_angle:
        Scalars (ideal geometry shared by the whole population).
    torsions:
        Array of shape ``(P,)`` of per-member torsion angles.

    Returns
    -------
    numpy.ndarray
        ``(P, 3)`` coordinates of the newly placed atoms.
    """
    return _place_atoms(_XP, a, b, c, bond_length, bond_angle, torsions)


def loop_atom_count(n_residues: int) -> int:
    """Number of backbone atoms built for an ``n_residues`` loop (N,CA,C,O each)."""
    return constants.BACKBONE_ATOMS_PER_RESIDUE * n_residues


def build_backbone(
    torsions: np.ndarray,
    n_anchor: np.ndarray,
    end_phi: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Build loop backbone coordinates from a torsion vector (scalar version).

    Parameters
    ----------
    torsions:
        Shape ``(2n,)`` vector ``(phi_1, psi_1, ..., phi_n, psi_n)`` in radians.
    n_anchor:
        Shape ``(3, 3)`` fixed coordinates of ``C_prev``, ``N_1`` and ``CA_1``.
    end_phi:
        The (fixed) phi torsion of the first C-terminal anchor residue, used
        to place the third closure atom ``C_{n+1}``.

    Returns
    -------
    (coords, closure)
        ``coords`` has shape ``(n, 4, 3)`` with atoms ordered N, CA, C, O per
        residue; ``closure`` has shape ``(3, 3)`` holding the built positions
        of ``N_{n+1}``, ``CA_{n+1}``, ``C_{n+1}``.
    """
    torsions = np.asarray(torsions, dtype=np.float64)
    if torsions.ndim != 1 or torsions.size % 2 != 0:
        raise ValueError("torsions must be a flat vector of 2n angles")
    n = torsions.size // 2
    if n < 1:
        raise ValueError("the loop must contain at least one residue")
    n_anchor = np.asarray(n_anchor, dtype=np.float64)
    if n_anchor.shape != (3, 3):
        raise ValueError("n_anchor must have shape (3, 3): C_prev, N_1, CA_1")

    coords = np.zeros((n, constants.BACKBONE_ATOMS_PER_RESIDUE, 3), dtype=np.float64)
    c_prev = n_anchor[0]
    coords[0, 0] = n_anchor[1]  # N_1
    coords[0, 1] = n_anchor[2]  # CA_1

    prev_c = c_prev  # carbonyl C of the residue before residue i
    for i in range(n):
        phi = torsions[2 * i]
        psi = torsions[2 * i + 1]
        n_i = coords[i, 0]
        ca_i = coords[i, 1]

        # C_i from phi_i: dihedral(C_{i-1}, N_i, CA_i, C_i)
        c_i = place_atom(
            prev_c, n_i, ca_i,
            constants.BOND_CA_C, constants.ANGLE_N_CA_C, phi,
        )
        coords[i, 2] = c_i

        # O_i from psi_i: anti-planar to the next nitrogen.
        coords[i, 3] = place_atom(
            n_i, ca_i, c_i,
            constants.BOND_C_O, constants.ANGLE_CA_C_O, psi + np.pi,
        )

        # N_{i+1} from psi_i: dihedral(N_i, CA_i, C_i, N_{i+1})
        n_next = place_atom(
            n_i, ca_i, c_i,
            constants.BOND_C_N, constants.ANGLE_CA_C_N, psi,
        )
        # CA_{i+1} from omega (fixed trans): dihedral(CA_i, C_i, N_{i+1}, CA_{i+1})
        ca_next = place_atom(
            ca_i, c_i, n_next,
            constants.BOND_N_CA, constants.ANGLE_C_N_CA, constants.OMEGA_TRANS,
        )
        if i + 1 < n:
            coords[i + 1, 0] = n_next
            coords[i + 1, 1] = ca_next
        else:
            # Closure atoms: moving copy of the C-terminal anchor backbone.
            c_end = place_atom(
                c_i, n_next, ca_next,
                constants.BOND_CA_C, constants.ANGLE_N_CA_C, end_phi,
            )
            closure = np.stack([n_next, ca_next, c_end])
        prev_c = c_i

    return coords, closure


def build_backbone_batch(
    torsions: np.ndarray,
    n_anchor: np.ndarray,
    end_phi: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Population-batched backbone construction.

    This is the simulated-GPU analogue of :func:`build_backbone`: the chain
    is still built atom by atom along the loop (the dependency is inherent),
    but each step places the corresponding atom of *every* population member
    in one vectorised operation — one "thread" per conformation, exactly the
    SIMT work decomposition of the paper.

    Parameters
    ----------
    torsions:
        Shape ``(P, 2n)`` population torsion matrix.
    n_anchor:
        Shape ``(3, 3)`` fixed anchor coordinates, shared by all members.
    end_phi:
        Fixed phi torsion of the first C-terminal anchor residue.

    Returns
    -------
    (coords, closure)
        ``coords`` has shape ``(P, n, 4, 3)``; ``closure`` has shape
        ``(P, 3, 3)``.
    """
    torsions = np.asarray(torsions, dtype=np.float64)
    if torsions.ndim != 2 or torsions.shape[1] % 2 != 0:
        raise ValueError("torsions must have shape (P, 2n)")
    pop, two_n = torsions.shape
    n = two_n // 2
    if n < 1:
        raise ValueError("the loop must contain at least one residue")
    n_anchor = np.asarray(n_anchor, dtype=np.float64)
    if n_anchor.shape != (3, 3):
        raise ValueError("n_anchor must have shape (3, 3): C_prev, N_1, CA_1")

    coords, closure = _build_backbone_chain(_XP, torsions, n_anchor, end_phi)
    return coords, closure


@array_kernel("build_backbone_chain")
def _build_backbone_chain(xp, torsions, n_anchor, end_phi):
    """Generic batched chain build; the residue loop unrolls at trace time.

    A functional rewrite of the original buffer-writing loop: per-residue
    atom rows are collected and stacked instead of assigned into a
    preallocated array.  Every placed coordinate comes from the same
    :func:`_place_atoms` calls in the same order, so the stacked result
    is bit-identical to the buffer version.
    """
    torsions = xp.asarray(torsions, dtype=xp.float64)
    n_anchor = xp.asarray(n_anchor, dtype=xp.float64)
    pop, two_n = torsions.shape
    n = two_n // 2

    prev_c = xp.broadcast_to(n_anchor[0], (pop, 3))
    n_i = xp.broadcast_to(n_anchor[1], (pop, 3))
    ca_i = xp.broadcast_to(n_anchor[2], (pop, 3))

    residues = []
    closure = None
    for i in range(n):
        phi = torsions[:, 2 * i]
        psi = torsions[:, 2 * i + 1]

        c_i = _place_atoms(
            xp, prev_c, n_i, ca_i,
            constants.BOND_CA_C, constants.ANGLE_N_CA_C, phi,
        )
        o_i = _place_atoms(
            xp, n_i, ca_i, c_i,
            constants.BOND_C_O, constants.ANGLE_CA_C_O, psi + np.pi,
        )
        residues.append(xp.stack((n_i, ca_i, c_i, o_i), axis=1))

        n_next = _place_atoms(
            xp, n_i, ca_i, c_i,
            constants.BOND_C_N, constants.ANGLE_CA_C_N, psi,
        )
        ca_next = _place_atoms(
            xp, ca_i, c_i, n_next,
            constants.BOND_N_CA, constants.ANGLE_C_N_CA,
            xp.full(pop, constants.OMEGA_TRANS),
        )
        if i + 1 < n:
            n_i, ca_i = n_next, ca_next
        else:
            c_end = _place_atoms(
                xp, c_i, n_next, ca_next,
                constants.BOND_CA_C, constants.ANGLE_N_CA_C,
                xp.full(pop, end_phi),
            )
            closure = xp.stack((n_next, ca_next, c_end), axis=1)
        prev_c = c_i

    return xp.stack(residues, axis=1), closure
