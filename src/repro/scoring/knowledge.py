"""Knowledge-base tables for the TRIPLET and DIST potentials.

The paper's knowledge-based scoring functions are ``-log`` frequency tables
pre-computed from a structural database and loaded into GPU texture memory
at program start.  This module builds the equivalent tables from the
synthetic loop library (:mod:`repro.loops.library`):

* **Triplet tables** — for each of the 27 residue-type triplets
  (GENERIC/GLY/PRO for the previous, current and next residue), a 2-D
  histogram over (phi, psi) bins of the central residue.
* **Distance tables** — for each backbone atom-type pair (N/CA/C/O, 10
  unordered pairs) and sequence-separation class, a histogram over
  pair-distance bins, normalised by the pooled reference distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Dict, Tuple

import numpy as np

from repro import constants
from repro.loops.library import LoopLibrary, default_library
from repro.protein.residue import ResidueType, residue_type
from repro.scoring.pairwise import bin_squared_distances, squared_bin_edges

__all__ = [
    "KnowledgeBase",
    "build_knowledge_base",
    "default_knowledge_base",
    "TORSION_BINS",
    "DISTANCE_BINS",
    "DISTANCE_MAX",
    "DISTANCE_SQ_EDGES",
    "SEPARATION_CLASSES",
    "atom_pair_index",
    "separation_class",
    "triplet_class_index",
    "distance_bin",
    "distance_bin_sq",
]

#: Number of bins per torsion axis (15-degree bins).
TORSION_BINS: int = 24

#: Number of distance bins for the pairwise potential.
DISTANCE_BINS: int = 30

#: Maximum distance (A) covered by the pairwise histograms.
DISTANCE_MAX: float = 15.0

#: Squared edges of the distance histogram bins (for sqrt-free binning).
DISTANCE_SQ_EDGES: np.ndarray = squared_bin_edges(DISTANCE_MAX, DISTANCE_BINS)

#: Sequence-separation classes: |i-j| == 1, == 2, == 3, >= 4.
SEPARATION_CLASSES: int = 4

#: Pseudo-count added to every histogram bin before normalisation.
_PSEUDOCOUNT: float = 0.5

_N_ATOM_TYPES = len(constants.BACKBONE_ATOM_NAMES)
_PAIRS = list(combinations_with_replacement(range(_N_ATOM_TYPES), 2))
_PAIR_LOOKUP: Dict[Tuple[int, int], int] = {}
for _idx, (_a, _b) in enumerate(_PAIRS):
    _PAIR_LOOKUP[(_a, _b)] = _idx
    _PAIR_LOOKUP[(_b, _a)] = _idx

#: ``_ATOM_PAIR_GRID[a, b]`` is :func:`atom_pair_index` ``(a, b)``.
_ATOM_PAIR_GRID = np.array(
    [[_PAIR_LOOKUP[(a, b)] for b in range(_N_ATOM_TYPES)] for a in range(_N_ATOM_TYPES)],
    dtype=np.int64,
)

#: Number of unordered backbone atom-type pairs.
N_ATOM_PAIRS: int = len(_PAIRS)

#: Number of residue-type triplet classes (3 types ** 3 positions).
N_TRIPLET_CLASSES: int = len(ResidueType) ** 3


def atom_pair_index(a: int, b: int) -> int:
    """Index of the unordered backbone atom-type pair (N/CA/C/O indices)."""
    return _PAIR_LOOKUP[(a, b)]


def separation_class(sep: int) -> int:
    """Sequence-separation class for |i - j| = ``sep`` residues."""
    if sep < 1:
        raise ValueError("separation must be >= 1")
    return min(sep, SEPARATION_CLASSES) - 1


def triplet_class_index(prev_aa: str, cur_aa: str, next_aa: str) -> int:
    """Class index of a residue triplet from one-letter codes."""
    p = residue_type(prev_aa).value
    c = residue_type(cur_aa).value
    n = residue_type(next_aa).value
    base = len(ResidueType)
    return (p * base + c) * base + n


def torsion_bin(angles: np.ndarray) -> np.ndarray:
    """Map angles (radians, any range) to torsion histogram bins [0, TORSION_BINS)."""
    angles = np.asarray(angles, dtype=np.float64)
    frac = (angles + np.pi) / (2.0 * np.pi)
    bins = np.floor(frac * TORSION_BINS).astype(np.int64)
    return np.clip(bins, 0, TORSION_BINS - 1)


def distance_bin_sq(sq_distances: np.ndarray) -> np.ndarray:
    """Map *squared* distances (A^2) to distance histogram bins.

    In-range pairs map to ``[0, DISTANCE_BINS)``; pairs at or beyond
    ``DISTANCE_MAX`` map to the overflow bin ``DISTANCE_BINS``.  The tables
    carry no statistics past their last edge, so out-of-range pairs must be
    treated as neutral rather than silently scored as if they sat at the
    table edge.

    .. warning::
       The overflow bin is one past the last axis of
       ``KnowledgeBase.distance_neg_log``: callers indexing a table with
       these bins must either mask ``bins >= DISTANCE_BINS`` (as
       :func:`build_knowledge_base` does) or index a zero-padded table (as
       :class:`~repro.scoring.distance.DistanceScore` does).
    """
    sq_distances = np.asarray(sq_distances, dtype=np.float64)
    return bin_squared_distances(sq_distances, DISTANCE_SQ_EDGES)


def distance_bin(distances: np.ndarray) -> np.ndarray:
    """Map distances (A) to bins; out-of-range maps to ``DISTANCE_BINS``."""
    distances = np.asarray(distances, dtype=np.float64)
    return distance_bin_sq(distances * distances)


@dataclass(frozen=True)
class KnowledgeBase:
    """Pre-computed ``-log`` probability tables for TRIPLET and DIST.

    Attributes
    ----------
    triplet_neg_log:
        ``(N_TRIPLET_CLASSES, TORSION_BINS, TORSION_BINS)`` negative log
        probability of a (phi, psi) bin given the triplet class.
    distance_neg_log:
        ``(N_ATOM_PAIRS, SEPARATION_CLASSES, DISTANCE_BINS)`` negative log
        ratio of the observed pair-distance distribution to the pooled
        reference distribution.
    library_size:
        Number of loops in the library the tables were derived from.
    """

    triplet_neg_log: np.ndarray
    distance_neg_log: np.ndarray
    library_size: int

    def __post_init__(self) -> None:
        expected_t = (N_TRIPLET_CLASSES, TORSION_BINS, TORSION_BINS)
        expected_d = (N_ATOM_PAIRS, SEPARATION_CLASSES, DISTANCE_BINS)
        if self.triplet_neg_log.shape != expected_t:
            raise ValueError(f"triplet table shape {self.triplet_neg_log.shape} != {expected_t}")
        if self.distance_neg_log.shape != expected_d:
            raise ValueError(f"distance table shape {self.distance_neg_log.shape} != {expected_d}")

    @property
    def nbytes(self) -> int:
        """Total size of the tables in bytes (what the paper keeps in texture memory)."""
        return self.triplet_neg_log.nbytes + self.distance_neg_log.nbytes


def build_knowledge_base(library: LoopLibrary) -> KnowledgeBase:
    """Derive the TRIPLET and DIST tables from a loop library."""
    if len(library) == 0:
        raise ValueError("cannot build a knowledge base from an empty library")

    # ------------------------------------------------------------------
    # Triplet torsion histograms.  Every count is an integer, so the
    # histograms are integer ``bincount``s and the pseudo-count is added
    # once at the end: the same float64 values as incrementing a table
    # pre-filled with ``_PSEUDOCOUNT`` one residue at a time.
    # ------------------------------------------------------------------
    classes = []
    for record in library:
        seq = record.sequence
        # Terminal residues stand in for their missing neighbour.
        padded = seq[:1] + seq + seq[-1:]
        classes.extend(triplet_class_index(*padded[i : i + 3]) for i in range(len(seq)))
    torsions = np.concatenate([record.torsions for record in library])
    phi_bins, psi_bins = torsion_bin(torsions).reshape(-1, 2).T
    cells = (np.asarray(classes, dtype=np.int64) * TORSION_BINS + phi_bins) * TORSION_BINS
    triplet_hist = np.bincount(
        cells + psi_bins, minlength=N_TRIPLET_CLASSES * TORSION_BINS * TORSION_BINS
    )
    triplet_counts = (
        triplet_hist.reshape(N_TRIPLET_CLASSES, TORSION_BINS, TORSION_BINS) + _PSEUDOCOUNT
    )

    triplet_prob = triplet_counts / triplet_counts.sum(axis=(1, 2), keepdims=True)
    triplet_neg_log = -np.log(triplet_prob)

    # ------------------------------------------------------------------
    # Pairwise distance histograms: per record, all residue pairs i < j
    # at once, binned on the squared distances so histogram building and
    # the runtime kernels share one edge-exact binning.
    # ------------------------------------------------------------------
    n_dist_cells = N_ATOM_PAIRS * SEPARATION_CLASSES * DISTANCE_BINS
    dist_hist = np.zeros(n_dist_cells, dtype=np.int64)
    reference_hist = np.zeros(DISTANCE_BINS, dtype=np.int64)
    for record in library:
        coords = record.coords  # (n, 4, 3)
        first, second = np.triu_indices(coords.shape[0], k=1)
        diff = coords[first][:, :, None, :] - coords[second][:, None, :, :]
        bins = distance_bin_sq(np.sum(diff * diff, axis=-1))  # (pairs, 4, 4)
        sep_cls = np.minimum(second - first, SEPARATION_CLASSES) - 1
        rows = _ATOM_PAIR_GRID[None, :, :] * SEPARATION_CLASSES + sep_cls[:, None, None]
        in_range = bins < DISTANCE_BINS  # beyond the table edge: no statistics
        dist_hist += np.bincount(
            (rows * DISTANCE_BINS + bins)[in_range], minlength=n_dist_cells
        )
        reference_hist += np.bincount(bins[in_range], minlength=DISTANCE_BINS)
    dist_counts = (
        dist_hist.reshape(N_ATOM_PAIRS, SEPARATION_CLASSES, DISTANCE_BINS) + _PSEUDOCOUNT
    )
    reference_counts = reference_hist + _PSEUDOCOUNT

    dist_prob = dist_counts / dist_counts.sum(axis=2, keepdims=True)
    reference_prob = reference_counts / reference_counts.sum()
    distance_neg_log = -np.log(dist_prob / reference_prob[None, None, :])

    return KnowledgeBase(
        triplet_neg_log=triplet_neg_log,
        distance_neg_log=distance_neg_log,
        library_size=len(library),
    )


@lru_cache(maxsize=2)
def default_knowledge_base(seed: int = 2010, n_loops: int = 400) -> KnowledgeBase:
    """The knowledge base built from the default synthetic library (cached)."""
    return build_knowledge_base(default_library(seed=seed, n_loops=n_loops))
