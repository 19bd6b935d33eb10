"""Per-record loop reference implementation of the knowledge-base builder.

This is the path :func:`repro.scoring.knowledge.build_knowledge_base` ran
before its histograms became ``bincount``s: every residue and every
residue-pair atom pair increments a float64 table pre-filled with the
pseudo-count, one at a time.  It is kept under ``tests/`` only, as the
oracle the production builder must match byte for byte (``tobytes()``
equality on both tables).  Import it as
``from knowledge_oracle import build_knowledge_base``; ``tests/`` is on
``sys.path`` through its ``conftest.py``.
"""

from __future__ import annotations

import numpy as np

from repro.loops.library import LoopLibrary
from repro.scoring.knowledge import (
    _N_ATOM_TYPES,
    _PSEUDOCOUNT,
    DISTANCE_BINS,
    N_ATOM_PAIRS,
    N_TRIPLET_CLASSES,
    SEPARATION_CLASSES,
    TORSION_BINS,
    KnowledgeBase,
    atom_pair_index,
    distance_bin_sq,
    separation_class,
    torsion_bin,
    triplet_class_index,
)


def build_knowledge_base(library: LoopLibrary) -> KnowledgeBase:
    """Derive the TRIPLET and DIST tables one count at a time."""
    if len(library) == 0:
        raise ValueError("cannot build a knowledge base from an empty library")

    triplet_counts = np.full(
        (N_TRIPLET_CLASSES, TORSION_BINS, TORSION_BINS), _PSEUDOCOUNT, dtype=np.float64
    )
    for record in library:
        seq = record.sequence
        torsions = record.torsions
        n = len(seq)
        for i in range(n):
            prev_aa = seq[i - 1] if i > 0 else seq[i]
            next_aa = seq[i + 1] if i + 1 < n else seq[i]
            cls = triplet_class_index(prev_aa, seq[i], next_aa)
            pb = int(torsion_bin(np.array([torsions[2 * i]]))[0])
            sb = int(torsion_bin(np.array([torsions[2 * i + 1]]))[0])
            triplet_counts[cls, pb, sb] += 1.0

    triplet_prob = triplet_counts / triplet_counts.sum(axis=(1, 2), keepdims=True)
    triplet_neg_log = -np.log(triplet_prob)

    dist_counts = np.full(
        (N_ATOM_PAIRS, SEPARATION_CLASSES, DISTANCE_BINS), _PSEUDOCOUNT, dtype=np.float64
    )
    reference_counts = np.full(DISTANCE_BINS, _PSEUDOCOUNT, dtype=np.float64)

    for record in library:
        coords = record.coords  # (n, 4, 3)
        n = coords.shape[0]
        for i in range(n):
            for j in range(i + 1, n):
                sep_cls = separation_class(j - i)
                diff = coords[i][:, None, :] - coords[j][None, :, :]
                bins = distance_bin_sq(np.sum(diff * diff, axis=-1))  # (4, 4)
                for a in range(_N_ATOM_TYPES):
                    for b in range(_N_ATOM_TYPES):
                        if bins[a, b] >= DISTANCE_BINS:
                            continue  # beyond the table edge: no statistics
                        pair = atom_pair_index(a, b)
                        dist_counts[pair, sep_cls, bins[a, b]] += 1.0
                        reference_counts[bins[a, b]] += 1.0

    dist_prob = dist_counts / dist_counts.sum(axis=2, keepdims=True)
    reference_prob = reference_counts / reference_counts.sum()
    distance_neg_log = -np.log(dist_prob / reference_prob[None, None, :])

    return KnowledgeBase(
        triplet_neg_log=triplet_neg_log,
        distance_neg_log=distance_neg_log,
        library_size=len(library),
    )
