"""Topology partitioning for the window-sync runtime.

A :class:`Partition` splits a topology's processes into disjoint *shards*,
each simulated by one worker interpreter of
:class:`repro.net.cluster.ClusterSimulator` (``engine=sharded|cluster``).
Edges whose endpoints land in different shards become *cross-shard channels*,
synchronized by the conservative time-window protocol; everything else stays
worker-local.  Good partitions therefore minimize the cut.

Two strategies:

* **Cluster-aligned** (default): group processes by their arbitration
  cluster (:func:`repro.sim.topology.arbitration_clusters` — the unit ME
  arbitrates over, and the natural shard line of a
  :class:`~repro.sim.topology.Clustered` deployment).  With ``n_shards``
  given, the cluster groups are greedily packed into that many bins,
  balancing bin sizes.
* **Contiguous fallback**: when fewer cluster groups exist than requested
  shards (e.g. the complete graph is a single cluster), pids are cut into
  ``n_shards`` near-equal contiguous blocks in ascending order.

Both strategies are pure functions of the topology (no randomness), so every
worker — and the serial engine, for comparison harnesses — derives the same
partition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.sim.topology import Clustered, Topology, Weighted, arbitration_clusters

__all__ = ["Partition", "partition_topology"]


@dataclass(frozen=True)
class Partition:
    """A disjoint cover of a topology's pids by shards."""

    topology: Topology
    #: Shard member tuples, each sorted ascending; shards ordered by their
    #: smallest member.
    shards: tuple[tuple[int, ...], ...]
    shard_of: dict[int, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        seen: dict[int, int] = {}
        for index, members in enumerate(self.shards):
            if not members:
                raise SimulationError(f"shard {index} is empty")
            for pid in members:
                if pid in seen:
                    raise SimulationError(f"pid {pid} appears in two shards")
                seen[pid] = index
        if set(seen) != set(self.topology.pids):
            missing = sorted(set(self.topology.pids) - set(seen))
            raise SimulationError(f"partition misses pids {missing}")
        object.__setattr__(self, "shard_of", seen)

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def cross_edges(self) -> list[tuple[int, int]]:
        """Undirected edges whose endpoints live in different shards."""
        shard_of = self.shard_of
        return [
            (u, v) for u, v in self.topology.edges() if shard_of[u] != shard_of[v]
        ]

    def local_edges(self) -> list[tuple[int, int]]:
        """Undirected edges fully inside one shard."""
        shard_of = self.shard_of
        return [
            (u, v) for u, v in self.topology.edges() if shard_of[u] == shard_of[v]
        ]

    def peer_shards(self, shard: int) -> tuple[int, ...]:
        """Shards sharing at least one cross edge with ``shard``.

        These are exactly the shards a cluster worker must open directed
        channels to (and expect BARRIER frames from): messages between
        non-peer shards cannot exist, because every send travels a
        topology edge.
        """
        if not 0 <= shard < self.n_shards:
            raise SimulationError(
                f"shard must be in 0..{self.n_shards - 1}, got {shard}"
            )
        shard_of = self.shard_of
        peers = {
            shard_of[u] if shard_of[v] == shard else shard_of[v]
            for u, v in self.cross_edges()
            if shard in (shard_of[u], shard_of[v])
        }
        peers.discard(shard)
        return tuple(sorted(peers))

    def fully_peered(self) -> bool:
        """Whether every shard peers with every other one.

        A window-sync worker hears BARRIER frames from its peers only, so
        only then does each worker's minimum over the next-event bounds
        cover every shard — the same global bound everywhere, which the
        lookahead jump of :mod:`repro.net.grant` needs.
        """
        others = self.n_shards - 1
        return all(
            len(self.peer_shards(shard)) == others
            for shard in range(self.n_shards)
        )

    def latency_floor(self, default_lo: int) -> int:
        """The sharded engine's effective lookahead under this partition.

        Only *cross-shard* edges constrain the synchronization window:
        intra-shard messages never traverse a barrier, so the window may
        grow to the minimum latency lower bound over the cut — per-edge
        bounds (:meth:`~repro.sim.topology.Topology.edge_latency`, both
        directions of each cut edge) where the topology carries them,
        ``default_lo`` (the engine's global floor) elsewhere.  A partition
        with no cut (single shard) returns ``default_lo`` unchanged.
        """
        floor: int | None = None
        edge_latency = self.topology.edge_latency
        for u, v in self.cross_edges():
            for src, dst in ((u, v), (v, u)):
                bounds = edge_latency(src, dst)
                lo = bounds[0] if bounds is not None else default_lo
                if floor is None or lo < floor:
                    floor = lo
        return default_lo if floor is None else floor

    def describe(self) -> dict[str, object]:
        cut = len(self.cross_edges())
        edges = len(self.topology.edges())
        return {
            "shards": self.n_shards,
            "sizes": [len(s) for s in self.shards],
            "cross_edges": cut,
            "edges": edges,
            "cut_fraction": round(cut / edges, 3) if edges else 0.0,
        }


def _greedy_pack(
    groups: list[tuple[int, ...]], n_bins: int
) -> list[list[int]]:
    """Pack groups into ``n_bins`` bins, balancing total sizes (deterministic:
    largest group first, ties by smallest member; lightest bin first, ties by
    bin index)."""
    bins: list[list[int]] = [[] for _ in range(n_bins)]
    for group in sorted(groups, key=lambda g: (-len(g), g[0])):
        target = min(range(n_bins), key=lambda i: (len(bins[i]), i))
        bins[target].extend(group)
    return [b for b in bins if b]


def _contiguous_blocks(pids: tuple[int, ...], n_blocks: int) -> list[list[int]]:
    """Cut pids (ascending) into near-equal contiguous blocks."""
    n = len(pids)
    base, extra = divmod(n, n_blocks)
    blocks: list[list[int]] = []
    start = 0
    for i in range(n_blocks):
        size = base + (1 if i < extra else 0)
        blocks.append(list(pids[start:start + size]))
        start += size
    return [b for b in blocks if b]


def partition_topology(
    topology: Topology, n_shards: int | None = None
) -> Partition:
    """Partition ``topology`` into shards.

    With ``n_shards=None``, one shard per arbitration-cluster group.  With an
    explicit count, cluster groups are greedily packed into that many bins —
    falling back to contiguous pid blocks when the topology has fewer cluster
    groups than requested shards (a complete graph is one big cluster).
    """
    if n_shards is not None and not 1 <= n_shards <= topology.n:
        raise SimulationError(
            f"n_shards must be in 1..{topology.n}, got {n_shards}"
        )
    # Weight maps don't change the graph; shard along the base's structure
    # (a WAN-weighted Clustered still cuts only its bridge edges).
    base = topology.base if isinstance(topology, Weighted) else topology
    if isinstance(base, Clustered):
        # The topology knows its own cluster boundaries; use them directly.
        # (arbitration_clusters would pull bridge endpoints into the
        # neighbouring leader's group, fattening the cut from ~3% to ~20%.)
        members: list[list[int]] = [[] for _ in range(base.clusters)]
        for pid in base.pids:
            members[base.cluster_of(pid)].append(pid)
        groups: list[tuple[int, ...]] = [tuple(m) for m in members]
    else:
        clusters = arbitration_clusters(topology)
        groups = [clusters[leader] for leader in sorted(clusters)]
    if n_shards is None:
        raw = [list(g) for g in groups]
    elif len(groups) >= n_shards:
        raw = _greedy_pack(groups, n_shards)
    else:
        raw = _contiguous_blocks(topology.pids, n_shards)
    shards = tuple(
        tuple(sorted(members))
        for members in sorted(raw, key=lambda m: min(m))
    )
    return Partition(topology=topology, shards=shards)
