"""Migration policies of the island-model archipelago.

An island-model campaign treats the replicate trajectories of one workload
group (same target, same configuration, same backend — the campaign's
*seeds* axis) as islands of an archipelago: on a fixed cadence of
checkpoint epochs, every island emits its elite members as an *emigrant
packet* and absorbs the packets of its neighbours.  :class:`MigrationPolicy`
is the declarative description of that exchange — topology, cadence,
emigrant selection and replacement rule — and :class:`IslandPlan` is the
materialised per-cell view (which island a cell is, who its neighbours
are) that travels inside the :class:`~repro.runtime.spec.CellSpec`.

Everything here is deterministic by construction: emigrant selection is
either a deterministic ranking (crowding distance or non-dominated rank,
ties broken by member index) or a draw from a generator seeded by
:func:`migration_seed` — a pure function of the campaign base seed and the
event's *coordinates* (group, island, epoch).  Replaying a migration event
therefore reproduces it bit-identically, which is what lets a killed
campaign re-drain to the exact ledger of an uninterrupted one.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.analysis.pareto import crowding_distance
from repro.moscem.dominance import strength_fitness
from repro.utils.rng import stable_name_key

__all__ = [
    "MigrationPolicy",
    "IslandPlan",
    "TOPOLOGIES",
    "SELECTIONS",
    "REPLACEMENTS",
    "migration_seed",
    "select_emigrants",
]

#: Supported exchange topologies.  ``none`` disables migration entirely.
TOPOLOGIES: Tuple[str, ...] = ("none", "ring", "fully-connected", "star")

#: Supported emigrant-selection rules.
SELECTIONS: Tuple[str, ...] = ("crowding", "rank", "random")

#: Supported replacement rules (immigrants overwrite the worst residents).
REPLACEMENTS: Tuple[str, ...] = ("worst",)


def migration_seed(
    base_seed: int, group: str, island_index: int, epoch: int
) -> int:
    """Deterministic RNG seed of one migration event.

    Derived from the campaign base seed and the event's coordinates —
    *which* exchange this is (group, island, epoch) — never from wall
    clock, scheduling order or worker identity, so a re-drained campaign
    replays the identical draw.  The seed is journaled with every event.
    """
    low, high = stable_name_key(f"migration\x1f{group}")
    seq = np.random.SeedSequence(
        entropy=int(base_seed),
        spawn_key=(low, high, int(island_index), int(epoch)),
    )
    return int(seq.generate_state(1)[0])


@dataclasses.dataclass(frozen=True)
class MigrationPolicy:
    """Declarative description of the archipelago's exchange rule.

    Attributes
    ----------
    topology:
        ``none`` (independent cells, today's behaviour), ``ring`` (island
        *i* absorbs from island *i - 1*), ``fully-connected`` (absorbs
        from every other island) or ``star`` (hub island 0 absorbs from
        every spoke; spokes absorb from the hub).
    cadence:
        Checkpoint epochs between migrations: emigrants are exchanged
        every ``cadence * checkpoint_every`` sampler iterations.
    elite_k:
        Number of emigrants each island offers per exchange.
    selection:
        ``crowding`` (elite by NSGA-II crowding distance over the
        non-dominated front, falling back to fitness rank when the front
        is smaller than ``elite_k``), ``rank`` (lowest strength fitness)
        or ``random`` (seeded draw via :func:`migration_seed`).
    replacement:
        ``worst`` — accepted immigrants overwrite the residents with the
        highest (worst) strength fitness, after deduplication against the
        resident population via the torsion-grid distinctness check.
    distinctness_threshold:
        Radians of maximum torsion deviation below which an immigrant
        counts as a duplicate of a resident; ``None`` selects the paper's
        30-degree decoy threshold.
    """

    topology: str = "none"
    cadence: int = 1
    elite_k: int = 2
    selection: str = "crowding"
    replacement: str = "worst"
    distinctness_threshold: Optional[float] = None

    def __post_init__(self) -> None:
        if self.topology not in TOPOLOGIES:
            raise ValueError(
                f"unknown migration topology {self.topology!r}; "
                f"available: {', '.join(TOPOLOGIES)}"
            )
        if self.selection not in SELECTIONS:
            raise ValueError(
                f"unknown migration selection {self.selection!r}; "
                f"available: {', '.join(SELECTIONS)}"
            )
        if self.replacement not in REPLACEMENTS:
            raise ValueError(
                f"unknown migration replacement {self.replacement!r}; "
                f"available: {', '.join(REPLACEMENTS)}"
            )
        if self.cadence <= 0:
            raise ValueError("migration cadence must be positive")
        if self.elite_k <= 0:
            raise ValueError("migration elite_k must be positive")
        if self.distinctness_threshold is not None and not (
            self.distinctness_threshold > 0.0
        ):
            raise ValueError("migration distinctness_threshold must be positive")

    @classmethod
    def none(cls) -> "MigrationPolicy":
        """The disabled policy: cells stay fully independent."""
        return cls(topology="none")

    @property
    def enabled(self) -> bool:
        """Whether this policy exchanges anything at all."""
        return self.topology != "none"

    def sources(self, island_index: int, n_islands: int) -> Tuple[int, ...]:
        """Island indices ``island_index`` absorbs immigrants from."""
        if not self.enabled or n_islands < 2:
            return ()
        if not (0 <= island_index < n_islands):
            raise IndexError(
                f"island index {island_index} out of range for {n_islands} islands"
            )
        if self.topology == "ring":
            return ((island_index - 1) % n_islands,)
        if self.topology == "fully-connected":
            return tuple(i for i in range(n_islands) if i != island_index)
        if self.topology == "star":
            if island_index == 0:
                return tuple(range(1, n_islands))
            return (0,)
        raise AssertionError(f"unhandled topology {self.topology!r}")

    def max_in_degree(self, n_islands: int) -> int:
        """Largest number of source islands any island absorbs from."""
        if not self.enabled or n_islands < 2:
            return 0
        return max(
            len(self.sources(i, n_islands)) for i in range(n_islands)
        )

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-ready)."""
        return {
            "topology": self.topology,
            "cadence": self.cadence,
            "elite_k": self.elite_k,
            "selection": self.selection,
            "replacement": self.replacement,
            "distinctness_threshold": self.distinctness_threshold,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "MigrationPolicy":
        """Rebuild from :meth:`to_dict` output (or a TOML table)."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown migration keys: {sorted(unknown)}")
        threshold = payload.get("distinctness_threshold")
        return cls(
            topology=str(payload.get("topology", "none")),
            cadence=int(payload.get("cadence", 1)),
            elite_k=int(payload.get("elite_k", 2)),
            selection=str(payload.get("selection", "crowding")),
            replacement=str(payload.get("replacement", "worst")),
            distinctness_threshold=(
                None if threshold is None else float(threshold)
            ),
        )


@dataclasses.dataclass(frozen=True)
class IslandPlan:
    """The per-cell, materialised view of a campaign's migration policy.

    Carried by :class:`~repro.runtime.spec.CellSpec` so a worker process
    can run its cell's migration steps knowing nothing about the rest of
    the campaign grid: the policy, which island this cell is, the shard
    indices of every island of its group (in island order), and the
    campaign base seed the per-event migration seeds derive from.
    """

    policy: MigrationPolicy
    island_index: int
    n_islands: int
    group: str
    peers: Tuple[int, ...]
    base_seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "peers", tuple(int(p) for p in self.peers))
        if len(self.peers) != self.n_islands:
            raise ValueError(
                f"island plan lists {len(self.peers)} peers for "
                f"{self.n_islands} islands"
            )
        if not (0 <= self.island_index < self.n_islands):
            raise ValueError(
                f"island index {self.island_index} out of range for "
                f"{self.n_islands} islands"
            )

    @property
    def shard(self) -> int:
        """Shard index of this island's own cell."""
        return self.peers[self.island_index]

    def source_shards(self) -> Tuple[int, ...]:
        """Shard indices of the islands this cell absorbs immigrants from."""
        return tuple(
            self.peers[i]
            for i in self.policy.sources(self.island_index, self.n_islands)
        )

    def period(self, checkpoint_every: int) -> int:
        """Sampler iterations between migrations (0 when unmigratable)."""
        if checkpoint_every <= 0 or not self.policy.enabled:
            return 0
        return int(checkpoint_every) * self.policy.cadence

    def n_epochs(self, checkpoint_every: int, iterations: int) -> int:
        """Number of migration boundaries strictly inside the trajectory."""
        period = self.period(checkpoint_every)
        if period <= 0 or iterations <= period:
            return 0
        return (int(iterations) - 1) // period

    def event_seed(self, epoch: int) -> int:
        """The coordinate-derived seed of this island's event at ``epoch``."""
        return migration_seed(
            self.base_seed, self.group, self.island_index, epoch
        )

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-ready)."""
        return {
            "policy": self.policy.to_dict(),
            "island_index": self.island_index,
            "n_islands": self.n_islands,
            "group": self.group,
            "peers": list(self.peers),
            "base_seed": self.base_seed,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "IslandPlan":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            policy=MigrationPolicy.from_dict(payload["policy"]),
            island_index=int(payload["island_index"]),
            n_islands=int(payload["n_islands"]),
            group=str(payload["group"]),
            peers=tuple(payload["peers"]),
            base_seed=int(payload.get("base_seed", 0)),
        )


def select_emigrants(
    scores: np.ndarray,
    k: int,
    selection: str,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Indices of the ``k`` members an island offers as emigrants.

    Deterministic given ``scores`` (and, for ``random``, the generator):
    every ranking breaks ties by ascending member index via stable sorts.

    Parameters
    ----------
    scores:
        ``(N, K)`` score matrix of the island's population.
    k:
        Number of emigrants (clipped to the population size).
    selection:
        One of :data:`SELECTIONS`.
    rng:
        Generator consumed only by ``random`` selection; seed it with
        :func:`migration_seed` so replays draw identically.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.shape[0]
    k = min(int(k), n)
    if k <= 0:
        return np.zeros(0, dtype=np.int64)
    if selection == "random":
        if rng is None:
            raise ValueError("random selection needs a seeded generator")
        return np.asarray(rng.permutation(n)[:k], dtype=np.int64)
    if selection == "rank":
        fitness = strength_fitness(scores)
        return np.asarray(np.argsort(fitness, kind="stable")[:k], dtype=np.int64)
    if selection == "crowding":
        fitness = strength_fitness(scores)
        # Eq. (1): fitness < 1 exactly on the non-dominated front.
        front = np.flatnonzero(fitness < 1.0)
        # Most-isolated front members first (boundary members carry inf
        # crowding distance); stable sort keeps index order on ties.
        order = front[np.argsort(-crowding_distance(scores[front]), kind="stable")]
        if order.size >= k:
            return np.asarray(order[:k], dtype=np.int64)
        # Front smaller than k: top up with the best remaining by fitness.
        chosen = set(int(i) for i in order)
        rest = [
            int(i)
            for i in np.argsort(fitness, kind="stable")
            if int(i) not in chosen
        ]
        return np.asarray(
            list(order) + rest[: k - order.size], dtype=np.int64
        )
    raise ValueError(f"unknown migration selection {selection!r}")
