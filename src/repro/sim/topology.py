"""Pluggable communication topologies.

The paper (Section 2) assumes a *fully-connected* system where every process
numbers its incident channels ``1 .. n-1``.  This module generalizes that
assumption: a :class:`Topology` is an undirected connected graph over process
ids together with the *local channel numbering* every protocol in this repo
consumes (process ``p`` numbers its neighbours ``1 .. deg(p)`` in ascending
id order — on the complete graph this degenerates to the paper's numbering).

Provided families:

* :class:`Complete` — the paper's model (every pair adjacent);
* :class:`Ring` — a cycle in ascending id order;
* :class:`Star` — one hub adjacent to every leaf;
* :class:`Grid2D` — a rows × cols mesh (4-neighbourhood);
* :class:`RandomGnp` — an Erdős–Rényi G(n, p) draw, augmented with
  deterministic bridge edges when the draw is disconnected;
* :class:`Clustered` — complete clusters joined by bridge edges (the shape
  sharded deployments take);
* :class:`Weighted` — any of the above wrapped with per-edge ``(lo, hi)``
  latency bounds and per-edge channel capacities (directed or undirected
  maps), including the :meth:`Weighted.wan` preset: fast cluster-local
  links, slow cross-cluster bridges.

Protocol semantics on non-complete topologies: a PIF wave spans the
initiator's *neighbourhood*, IDL learns the ids of the *closed
neighbourhood*, and ME arbitrates mutual exclusion *per leader cluster*
(see :func:`arbitration_clusters`); on the complete graph all three collapse
to the paper's global guarantees.

Edge weights and the engines: the simulator resolves every channel's
latency bounds through :meth:`Topology.edge_latency` (falling back to its
global ``latency`` argument) and every channel's capacity through
:meth:`Topology.edge_capacity`.  Unweighted families return ``None`` for
every edge, so their runs — including every random draw — are byte-for-byte
what they were before edge weights existed.  The sharded engine reads the
weights through :meth:`repro.sim.partition.Partition.latency_floor` to
widen its synchronization window to the *cross-shard* latency floor.
"""

from __future__ import annotations

import abc
from collections import deque
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.errors import SimulationError, SpecError

__all__ = [
    "Topology",
    "Complete",
    "Ring",
    "Star",
    "Grid2D",
    "RandomGnp",
    "Clustered",
    "Weighted",
    "topology_from_spec",
    "parse_latency_map",
    "latency_spec",
    "arbitration_clusters",
    "TOPOLOGY_SPECS",
]


def _as_pids(pids_or_n: Sequence[int] | int) -> tuple[int, ...]:
    if isinstance(pids_or_n, int):
        pids: Sequence[int] = range(1, pids_or_n + 1)
    else:
        pids = pids_or_n
    result = tuple(sorted(pids))
    if len(result) < 2:
        raise SimulationError(f"need at least 2 processes, got {len(result)}")
    if len(set(result)) != len(result):
        raise SimulationError(f"duplicate process ids in {list(pids)!r}")
    return result


class Topology(abc.ABC):
    """An undirected connected graph plus local channel numbering."""

    #: Short family name, e.g. ``"ring"``; set by subclasses.
    kind: str = "topology"

    def __init__(self, pids_or_n: Sequence[int] | int) -> None:
        self.pids: tuple[int, ...] = _as_pids(pids_or_n)
        direct = self._direct_neighbors(self.pids)
        if direct is not None:
            #: Neighbours in ascending id order — the local channel numbering
            #: maps neighbour -> 1..deg(p) along this order.
            self._neighbors: dict[int, tuple[int, ...]] = direct
        else:
            adjacency: dict[int, set[int]] = {p: set() for p in self.pids}
            for u, v in self._edges(self.pids):
                if u == v:
                    raise SimulationError(f"self-loop at process {u}")
                if u not in adjacency or v not in adjacency:
                    raise SimulationError(f"edge ({u}, {v}) mentions unknown process")
                adjacency[u].add(v)
                adjacency[v].add(u)
            self._neighbors = {p: tuple(sorted(adjacency[p])) for p in self.pids}
        # Local numbering maps are built lazily per process: protocols that
        # never read channel numbers (PIF) skip the O(n^2) construction.
        self._chan_num: dict[int, dict[int, int]] = {}
        self._check_connected()
        self._diameter: int | None = None
        self._is_complete: bool | None = None

    @abc.abstractmethod
    def _edges(self, pids: tuple[int, ...]) -> Iterable[tuple[int, int]]:
        """Undirected edges of the topology (each pair listed once)."""

    def _direct_neighbors(
        self, pids: tuple[int, ...]
    ) -> dict[int, tuple[int, ...]] | None:
        """Optional fast path: the full neighbour map, already sorted.

        Subclasses with closed-form adjacency (the complete graph) override
        this to skip the generic per-edge accumulation.
        """
        return None

    # -- structure ---------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.pids)

    def neighbors(self, pid: int) -> tuple[int, ...]:
        """Neighbours of ``pid`` in local channel-number order."""
        self._require(pid)
        return self._neighbors[pid]

    def degree(self, pid: int) -> int:
        self._require(pid)
        return len(self._neighbors[pid])

    def adjacent(self, src: int, dst: int) -> bool:
        self._require(src)
        return dst in self._neighbors[src]

    def edges(self) -> list[tuple[int, int]]:
        """Every undirected edge once, as ``(min, max)`` pairs."""
        return [
            (p, q)
            for p in self.pids
            for q in self._neighbors[p]
            if p < q
        ]

    def directed_edges(self) -> list[tuple[int, int]]:
        """Every ordered adjacent pair (one unidirectional channel each)."""
        return [(p, q) for p in self.pids for q in self._neighbors[p]]

    # -- local channel numbering ------------------------------------------

    def _numbering(self, pid: int) -> dict[int, int]:
        numbering = self._chan_num.get(pid)
        if numbering is None:
            numbering = {q: i + 1 for i, q in enumerate(self._neighbors[pid])}
            self._chan_num[pid] = numbering
        return numbering

    def chan_num(self, pid: int, peer: int) -> int:
        """The local channel number (``1..deg(pid)``) of ``peer`` at ``pid``."""
        self._require(pid)
        try:
            return self._numbering(pid)[peer]
        except KeyError:
            raise SimulationError(f"{peer} is not a neighbour of {pid}") from None

    def peer_by_num(self, pid: int, num: int) -> int:
        """Inverse of :meth:`chan_num`."""
        neighbors = self.neighbors(pid)
        if not 1 <= num <= len(neighbors):
            raise SimulationError(
                f"channel number {num} out of range 1..{len(neighbors)} at {pid}"
            )
        return neighbors[num - 1]

    # -- edge weights ------------------------------------------------------

    def edge_latency(self, src: int, dst: int) -> tuple[int, int] | None:
        """Latency bounds ``(lo, hi)`` owned by the directed edge
        ``src -> dst``, or None to use the engine's global bounds.

        Unweighted families return None for **every** edge, so the engines
        keep drawing from their global bounds — behaviour (and random
        stream consumption) byte-for-byte unchanged.
        """
        return None

    def edge_capacity(self, src: int, dst: int) -> int | None:
        """Channel capacity owned by the directed edge ``src -> dst``, or
        None to use the engine's global capacity."""
        return None

    @property
    def is_weighted(self) -> bool:
        """True when some edge may carry its own latency/capacity weights.

        The engines consult this once at construction: a False here lets
        the send hot path skip per-edge resolution entirely.
        """
        return False

    def weight_stats(
        self,
        default_latency: tuple[int, int] = (1, 3),
        default_capacity: int = 1,
    ) -> dict[str, Any]:
        """Edge-weight summary over every directed edge (CLI tables).

        Defaults fill in for edges without explicit weights — pass the
        engine's global latency/capacity to see the bounds a run would
        actually use.
        """
        los: list[int] = []
        his: list[int] = []
        caps: list[int] = []
        weighted_edges = 0
        for src, dst in self.directed_edges():
            bounds = self.edge_latency(src, dst)
            cap = self.edge_capacity(src, dst)
            if bounds is not None or cap is not None:
                weighted_edges += 1
            lo, hi = bounds if bounds is not None else default_latency
            los.append(lo)
            his.append(hi)
            caps.append(cap if cap is not None else default_capacity)
        return {
            "directed_edges": len(los),
            "weighted_edges": weighted_edges,
            "latency_lo_min": min(los),
            "latency_lo_max": max(los),
            "latency_hi_min": min(his),
            "latency_hi_max": max(his),
            "capacity_min": min(caps),
            "capacity_max": max(caps),
        }

    # -- metadata ----------------------------------------------------------

    @property
    def is_complete(self) -> bool:
        if self._is_complete is None:
            n = self.n
            self._is_complete = all(
                len(self._neighbors[p]) == n - 1 for p in self.pids
            )
        return self._is_complete

    @property
    def max_degree(self) -> int:
        return max(len(self._neighbors[p]) for p in self.pids)

    @property
    def min_degree(self) -> int:
        return min(len(self._neighbors[p]) for p in self.pids)

    def diameter(self) -> int:
        """Longest shortest path (hops); computed once, then cached."""
        if self._diameter is None:
            self._diameter = max(
                max(self._bfs_depths(p).values()) for p in self.pids
            )
        return self._diameter

    def describe(self) -> dict[str, Any]:
        """Flat metadata row (for tables and benchmark reports)."""
        return {
            "topology": self.name,
            "n": self.n,
            "edges": len(self.edges()),
            "min_degree": self.min_degree,
            "max_degree": self.max_degree,
            "diameter": self.diameter(),
            "complete": self.is_complete,
        }

    @property
    def name(self) -> str:
        return f"{self.kind}({self.n})"

    # -- helpers -----------------------------------------------------------

    def _bfs_depths(self, start: int) -> dict[int, int]:
        depths = {start: 0}
        frontier = deque([start])
        while frontier:
            u = frontier.popleft()
            for v in self._neighbors[u]:
                if v not in depths:
                    depths[v] = depths[u] + 1
                    frontier.append(v)
        return depths

    def _check_connected(self) -> None:
        reached = self._bfs_depths(self.pids[0])
        if len(reached) != self.n:
            missing = sorted(set(self.pids) - set(reached))
            raise SimulationError(
                f"{self.name} is not connected: {missing} unreachable from "
                f"{self.pids[0]}"
            )

    def _require(self, pid: int) -> None:
        if pid not in self._neighbors:
            raise SimulationError(f"unknown process id {pid}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n={self.n})"


class Complete(Topology):
    """The paper's fully-connected system."""

    kind = "complete"

    def _edges(self, pids: tuple[int, ...]) -> Iterable[tuple[int, int]]:
        return (
            (pids[i], pids[j])
            for i in range(len(pids))
            for j in range(i + 1, len(pids))
        )

    def _direct_neighbors(
        self, pids: tuple[int, ...]
    ) -> dict[int, tuple[int, ...]]:
        return {p: tuple(q for q in pids if q != p) for p in pids}


class Ring(Topology):
    """A cycle in ascending id order (a single edge when n = 2)."""

    kind = "ring"

    def _edges(self, pids: tuple[int, ...]) -> Iterable[tuple[int, int]]:
        n = len(pids)
        edges = [(pids[i], pids[(i + 1) % n]) for i in range(n)]
        if n == 2:
            edges = edges[:1]
        return edges


class Star(Topology):
    """One hub adjacent to every other process (default hub: lowest id)."""

    kind = "star"

    def __init__(self, pids_or_n: Sequence[int] | int, hub: int | None = None) -> None:
        self._hub_arg = hub
        super().__init__(pids_or_n)
        self.hub = self._hub_arg if self._hub_arg is not None else self.pids[0]

    def _edges(self, pids: tuple[int, ...]) -> Iterable[tuple[int, int]]:
        hub = self._hub_arg if self._hub_arg is not None else pids[0]
        if hub not in pids:
            raise SimulationError(f"hub {hub} is not a process id")
        return ((hub, q) for q in pids if q != hub)


class Grid2D(Topology):
    """A rows × cols mesh with 4-neighbourhood; pids assigned row-major."""

    kind = "grid"

    def __init__(self, rows: int, cols: int) -> None:
        if rows < 1 or cols < 1 or rows * cols < 2:
            raise SimulationError(f"grid needs >= 2 cells, got {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        super().__init__(rows * cols)

    def _edges(self, pids: tuple[int, ...]) -> Iterable[tuple[int, int]]:
        rows, cols = self.rows, self.cols
        for r in range(rows):
            for c in range(cols):
                pid = r * cols + c + 1
                if c + 1 < cols:
                    yield (pid, pid + 1)
                if r + 1 < rows:
                    yield (pid, pid + cols)

    @property
    def name(self) -> str:
        return f"grid({self.rows}x{self.cols})"


class RandomGnp(Topology):
    """Erdős–Rényi G(n, p), made connected by deterministic bridge edges.

    The draw is seeded and therefore reproducible.  When the sampled graph
    is disconnected, consecutive components (ordered by smallest member) are
    joined through their smallest members; :attr:`augmented_edges` counts the
    bridges added this way.
    """

    kind = "gnp"

    def __init__(self, pids_or_n: Sequence[int] | int, p: float = 0.35, seed: int = 0) -> None:
        if not 0.0 <= p <= 1.0:
            raise SimulationError(f"edge probability must be in [0, 1], got {p}")
        self.p = p
        self.seed = seed
        self.augmented_edges = 0
        super().__init__(pids_or_n)

    def _edges(self, pids: tuple[int, ...]) -> Iterable[tuple[int, int]]:
        import random

        rng = random.Random(self.seed)
        edges = [
            (pids[i], pids[j])
            for i in range(len(pids))
            for j in range(i + 1, len(pids))
            if rng.random() < self.p
        ]
        # Union-find over the sampled edges; bridge disconnected components.
        parent = {p: p for p in pids}

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in edges:
            parent[find(u)] = find(v)
        components: dict[int, list[int]] = {}
        for p in pids:
            components.setdefault(find(p), []).append(p)
        roots = sorted(components.values(), key=lambda c: c[0])
        for prev, nxt in zip(roots, roots[1:]):
            edges.append((prev[0], nxt[0]))
            parent[find(prev[0])] = find(nxt[0])
            self.augmented_edges += 1
        return edges

    @property
    def name(self) -> str:
        return f"gnp({self.n},p={self.p})"


class Clustered(Topology):
    """Complete clusters of equal size joined by a ring of bridge edges.

    Cluster ``i`` holds pids ``i*size+1 .. (i+1)*size`` and is internally
    fully connected; consecutive clusters are bridged through their lowest
    members (with a wrap-around bridge when there are >= 3 clusters).  This
    is the shape a sharded deployment takes: dense intra-shard traffic over
    thin inter-shard links.
    """

    kind = "clustered"

    def __init__(self, clusters: int, cluster_size: int) -> None:
        if clusters < 2 or cluster_size < 1 or clusters * cluster_size < 2:
            raise SimulationError(
                f"need >= 2 clusters of >= 1 process, got {clusters}x{cluster_size}"
            )
        self.clusters = clusters
        self.cluster_size = cluster_size
        super().__init__(clusters * cluster_size)

    def _edges(self, pids: tuple[int, ...]) -> Iterable[tuple[int, int]]:
        size = self.cluster_size
        members = [
            [k * size + m + 1 for m in range(size)] for k in range(self.clusters)
        ]
        for group in members:
            for i in range(len(group)):
                for j in range(i + 1, len(group)):
                    yield (group[i], group[j])
        for k in range(self.clusters - 1):
            yield (members[k][0], members[k + 1][0])
        if self.clusters >= 3:
            yield (members[-1][0], members[0][0])

    def cluster_of(self, pid: int) -> int:
        self._require(pid)
        return (pid - 1) // self.cluster_size

    @property
    def name(self) -> str:
        return f"clustered({self.clusters}x{self.cluster_size})"


class Weighted(Topology):
    """Per-edge latency/capacity weights layered over a base topology.

    ``latency`` maps edges to ``(lo, hi)`` latency bounds, ``capacity``
    maps edges to channel capacities; edges absent from a map fall back to
    the engine's global setting.  Keys are ``(u, v)`` pid pairs; with
    ``directed=False`` (the default) each key weighs both directions of the
    edge, with ``directed=True`` keys name one unidirectional channel each
    (an asymmetric link is two entries).

    The graph itself — adjacency, channel numbering, diameter — is exactly
    the base topology's; only the weight lookups differ.  Per-channel
    random streams are keyed by ``(src, dst)``, not by the bounds, so a
    weighted run stays bit-identical across the serial, sharded and async
    engines (each channel draws from its own stream within its own
    bounds).
    """

    kind = "weighted"

    def __init__(
        self,
        base: Topology,
        *,
        latency: Mapping[tuple[int, int], tuple[int, int]] | None = None,
        capacity: Mapping[tuple[int, int], int] | None = None,
        directed: bool = False,
    ) -> None:
        if isinstance(base, Weighted):
            raise SimulationError("cannot wrap a Weighted topology again")
        self.base = base
        self.directed = directed
        self._latency = self._normalize(base, latency, directed)
        for edge, bounds in self._latency.items():
            try:
                lo, hi = bounds
            except (TypeError, ValueError):
                raise SimulationError(
                    f"edge {edge} latency must be a (lo, hi) pair, got {bounds!r}"
                ) from None
            if not 1 <= lo <= hi:
                raise SimulationError(
                    f"edge {edge} latency bounds must satisfy 1 <= lo <= hi, "
                    f"got {bounds}"
                )
        self._capacity = self._normalize(base, capacity, directed)
        for edge, cap in self._capacity.items():
            if not isinstance(cap, int) or cap < 1:
                raise SimulationError(
                    f"edge {edge} capacity must be an int >= 1, got {cap!r}"
                )
        super().__init__(base.pids)

    @staticmethod
    def _normalize(
        base: Topology, mapping: Mapping[tuple[int, int], Any] | None, directed: bool
    ) -> dict[tuple[int, int], Any]:
        """Expand a weight map to directed-edge keys, validating adjacency."""
        normalized: dict[tuple[int, int], Any] = {}
        if mapping is None:
            return normalized
        for (u, v), value in mapping.items():
            if not base.adjacent(u, v):
                raise SimulationError(
                    f"weight map names ({u}, {v}), not an edge of {base.name}"
                )
            normalized[(u, v)] = value
            if not directed:
                normalized[(v, u)] = value
        return normalized

    @classmethod
    def wan(
        cls,
        base: Topology,
        *,
        local: tuple[int, int] = (1, 3),
        remote: tuple[int, int] = (16, 32),
    ) -> "Weighted":
        """The WAN preset: fast intra-cluster links, slow cross-cluster ones.

        Every edge inside a cluster gets the ``local`` bounds, every edge
        between clusters the ``remote`` bounds (defaults model ~1-3 tick
        LAN hops vs ~16-32 tick WAN hops).  Clusters are the base's own
        (:class:`Clustered`) or its arbitration clusters otherwise.  The
        remote floor is what the sharded engine's cross-shard lookahead
        picks up on cluster-aligned partitions.
        """
        if isinstance(base, Clustered):
            group = {p: base.cluster_of(p) for p in base.pids}
        else:
            clusters = arbitration_clusters(base)
            group = {}
            for index, leader in enumerate(sorted(clusters)):
                for member in clusters[leader]:
                    group[member] = index
        latency = {
            (u, v): (local if group[u] == group[v] else remote)
            for u, v in base.edges()
        }
        weighted = cls(base, latency=latency)
        weighted.kind = "wan"
        weighted.local_latency = tuple(local)
        weighted.remote_latency = tuple(remote)
        return weighted

    def _edges(self, pids: tuple[int, ...]) -> Iterable[tuple[int, int]]:
        return self.base.edges()

    def edge_latency(self, src: int, dst: int) -> tuple[int, int] | None:
        return self._latency.get((src, dst))

    def edge_capacity(self, src: int, dst: int) -> int | None:
        return self._capacity.get((src, dst))

    @property
    def is_weighted(self) -> bool:
        return True

    @property
    def name(self) -> str:
        return f"{self.kind}[{self.base.name}]"


# -- spec strings (CLI / scenario matrix / trial specs) ---------------------

#: Accepted ``--topology`` spec strings (``name`` or ``name:arg``).
TOPOLOGY_SPECS = (
    "complete",
    "ring",
    "star",
    "grid (or grid:RxC)",
    "gnp:P@S (edge probability P, default 0.35; graph seed S, default 0)",
    "clustered:K (K clusters, n divisible by K)",
    "wan:K (clustered:K with fast intra-cluster and slow cross-cluster edges)",
    "BASE;SRC-DST=LO:HI;... (latency entries, each weighing both directions)",
)


def _grid_shape(n: int) -> tuple[int, int]:
    """Largest divisor of n that is <= sqrt(n) — the squarest grid."""
    rows = 1
    d = 1
    while d * d <= n:
        if n % d == 0:
            rows = d
        d += 1
    return rows, n // rows


def topology_from_spec(spec: str, n: int) -> Topology:
    """Build the graph a spec string names — family, graph seed, latency
    entries: ``ring``, ``gnp:0.3@7``, ``ring;1-2=16:32``.  The only place
    a string becomes a graph; a string it cannot build is a
    ``SpecError(field="topology")`` (``"latency_map"`` for an entry)."""
    (name, params), latency = parse_topology(spec, n)
    base = _FAMILIES[name](n, params)
    return Weighted(base, latency=latency) if latency else base


def parse_topology(
    spec: str, n: int,
) -> tuple[tuple[str, Any], dict[tuple[int, int], tuple[int, int]]]:
    """The graph a spec string names at ``n`` processes, parsed but not
    built: its family and parameters, and its latency entries.  Every
    refusal of :func:`topology_from_spec` is made here."""
    base_spec, *entries = spec.strip().lower().split(";")
    try:
        family = _family(base_spec, n)
    except ValueError:  # its P, S, K or RxC is not a number
        family = None
    if family is None:
        raise SpecError(f"unknown topology spec {base_spec!r}; one of: "
                        f"{', '.join(TOPOLOGY_SPECS)}", field="topology")
    return family, parse_latency_map(base_spec, entries) if entries else {}


def parse_latency_map(
    base: str, entries: Sequence[str],
) -> dict[tuple[int, int], tuple[int, int]]:
    """Parse ``SRC-DST=LO:HI`` entries layered over the ``base`` spec into
    an edge-latency map (an edge, both directions; keyed low id first)."""
    if base.strip().lower().partition(":")[0] == "wan":
        raise SpecError(
            f"latency entries cannot layer over the already-weighted spec "
            f"{base!r}; weigh the edges in one map", field="latency_map")
    mapping: dict[tuple[int, int], tuple[int, int]] = {}
    for entry in entries:
        edge, edge_sep, bounds = entry.partition("=")
        u, pid_sep, v = edge.partition("-")
        lo, bound_sep, hi = bounds.partition(":")
        try:
            if not (edge_sep and pid_sep and bound_sep):
                raise ValueError
            src, dst = int(u), int(v)
            mapping[(min(src, dst), max(src, dst))] = (int(lo), int(hi))
        except ValueError:
            raise SpecError(
                f"bad --latency-map entry {entry!r}; want SRC-DST=LO:HI "
                f"(e.g. 1-2=16:32)", field="latency_map") from None
    return mapping


def latency_spec(base: str, entries: Sequence[str]) -> str:
    """The canonical spec string of ``entries`` over the ``base`` spec."""
    return ";".join([base, *(f"{u}-{v}={lo}:{hi}" for (u, v), (lo, hi)
                             in sorted(parse_latency_map(base, entries).items()))])


def _family(spec: str, n: int) -> tuple[str, Any] | None:
    """The family and parameters of the base graph ``spec`` names, or
    None for an unknown family."""
    head, at, graph_seed = spec.partition("@")
    name, _, arg = head.partition(":")
    if at and name != "gnp":
        raise SpecError(
            f"graph seed in {spec!r}: only gnp draws its graph (gnp:P@S)",
            field="topology")
    if name in ("complete", "ring", "star"):
        return name, None
    if name == "grid":
        if arg:
            rows_s, _, cols_s = arg.partition("x")
            rows, cols = int(rows_s), int(cols_s)
            if rows * cols != n:
                raise SpecError(f"grid {rows}x{cols} does not hold n={n} processes",
                                field="topology")
        else:
            rows, cols = _grid_shape(n)
        return name, (rows, cols)
    if name == "gnp":
        return name, (float(arg) if arg else 0.35, int(graph_seed) if at else 0)
    if name in ("clustered", "wan"):
        k = int(arg) if arg else 2
        if k < 1 or n % k != 0:
            raise SpecError(f"n={n} is not divisible into {k} clusters",
                            field="topology")
        return name, k
    return None


#: Family name → the builder of its graph from ``n`` and the parameters
#: :func:`_family` parsed.
_FAMILIES: dict[str, Callable[[int, Any], Topology]] = {
    "complete": lambda n, _: Complete(n),
    "ring": lambda n, _: Ring(n),
    "star": lambda n, _: Star(n),
    "grid": lambda n, shape: Grid2D(*shape),
    "gnp": lambda n, p_seed: RandomGnp(n, p=p_seed[0], seed=p_seed[1]),
    "clustered": lambda n, k: Clustered(k, n // k),
    "wan": lambda n, k: Weighted.wan(Clustered(k, n // k)),
}


def arbitration_clusters(
    topology: Topology, idents: Mapping[int, int] | None = None
) -> dict[int, tuple[int, ...]]:
    """Partition processes by their local leader (ME's arbitration unit).

    Process ``p``'s leader is the process with the minimum identity in its
    *closed* neighbourhood — exactly the ``minID`` its IDL instance learns.
    Protocol ME guarantees mutual exclusion among processes that share a
    leader; on the complete graph there is a single leader (the global
    minimum), recovering the paper's global guarantee.  Returns
    ``leader pid -> processes arbitrated by it`` (a partition of the pids).
    """
    ids = dict(idents) if idents is not None else {p: p for p in topology.pids}
    clusters: dict[int, tuple[int, ...]] = {}
    by_leader: dict[int, list[int]] = {}
    for p in topology.pids:
        closed = (p,) + topology.neighbors(p)
        leader = min(closed, key=lambda q: ids[q])
        by_leader.setdefault(leader, []).append(p)
    for leader, members in by_leader.items():
        clusters[leader] = tuple(sorted(members))
    return clusters
