"""The guarded-action process model.

A *process* (Section 2 of the paper) is a sequential deterministic machine
executing a protocol given as a collection of actions
``label :: guard -> statement``.  Guards range over local variables; receive
actions fire on message arrival.  Actions execute atomically.

Here a process is a :class:`ProcessHost` carrying a stack of
:class:`Layer` objects.  Each layer

* declares guarded :class:`Action`\\ s, evaluated in text order on every
  (weakly fair) activation,
* consumes the messages whose ``tag`` equals the layer's tag,
* can be *scrambled* by the adversary (arbitrary initial configuration),
* names its algorithm's variables in :attr:`Layer.STATE`, which
  :meth:`Layer.snapshot` freezes into a tuple and :meth:`Layer.restore`
  writes back (configuration capture, Definition 2).

Layers compose: a layer may embed sub-layers (IDL embeds a PIF instance; ME
embeds an IDL and a PIF instance).  Registration flattens the stack
depth-first, sub-layers first, so service layers make progress before their
clients inspect them within the same activation.

The two per-message entry points are kept shallow on purpose (a dense
trial's cost is call depth).  On the send side a layer reaches the
channel's compiled link (:class:`repro.sim.runtime.Link`) through
:meth:`ProcessHost.link`: a send's fate is one frame (``link.claim(tag)``),
its admission a second (``link.put(msg)``), and a lost send builds
nothing — Protocol PIF builds its message only after a claim;
:meth:`ProcessHost.send` is a dict hit into ``link.send``, the two in a
row, for every other sender.  On the receive side the engine calls the
consuming layer's ``on_message`` directly — :meth:`ProcessHost.dispatch`
is the same lookup, kept for ``step_deliver``, busy-parked and hooked
deliveries.

Because guards read only local variables, an activation that executes
nothing is followed by activations that execute nothing until something
changes those variables: the engine then takes the process off its event
heap (*dormant*) and :meth:`ProcessHost.wake` puts it back
(:meth:`Simulator._make_activation <repro.sim.runtime.Simulator._make_activation>`).
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.errors import ProtocolError, SimulationError
from repro.sim.determinism import timer_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.channel import TaggedMessage
    from repro.sim.configuration import ProcessState
    from repro.sim.runtime import Link, Simulator
    from repro.sim.scheduler import EventHandle

__all__ = ["Action", "Layer", "ProcessHost"]


@dataclass(frozen=True)
class Action:
    """One guarded action ``label :: guard -> statement``."""

    name: str
    guard: Callable[[], bool]
    statement: Callable[[], None]


class Layer(abc.ABC):
    """A protocol layer hosted by a process.

    **The invariant the engine relies on:** a guard has no side effect and
    reads only variables of its own process (any layer of that host), so
    its value changes only when those variables do.  The variables change
    only in the process's own events — an activation, a delivery
    (``on_message``), a ``call_later`` timer — or from outside through a
    *wake point*: a driver's request (``RequestDriver``), the adversary's
    :meth:`ProcessHost.scramble`, a :meth:`ProcessHost.restore`.  An idle
    process is therefore dormant between two of these
    (:meth:`ProcessHost.wake`); code that writes a layer's variables
    mid-run by any other route calls ``host.wake()`` first.

    A layer whose guards read the clock (``host.now``) changes value as
    time passes and declares :attr:`guards_read_clock`, which keeps its
    process awake at every activation.

    **Local state.**  :attr:`STATE` names the algorithm's variables once;
    :meth:`snapshot` and :meth:`restore` are written here for every layer.
    A variable that holds a container keeps its type for the layer's
    lifetime (a dict stays a dict, a list a list), so :meth:`restore`
    rebuilds the container the live attribute holds.
    """

    #: True iff a guard of this layer reads ``host.now``.
    #: ``benchmarks/check_registry_integrity.py`` holds every layer of
    #: ``repro.core``, ``repro.baselines`` and ``repro.applications`` to it.
    guards_read_clock = False

    #: The algorithm's variables, as instance attributes: what a guard
    #: reads and ``scramble`` writes (``benchmarks/check_registry_integrity.py``
    #: holds every layer of the three packages to the second).  Caches and
    #: verification-only counters stay out.
    STATE: tuple[str, ...] = ()

    def __init__(self, tag: str) -> None:
        self.tag = tag
        self.host: "ProcessHost | None" = None

    # -- lifecycle ---------------------------------------------------------

    def attach(self, host: "ProcessHost") -> None:
        if self.host is not None:
            raise ProtocolError(f"layer {self.tag!r} already attached")
        self.host = host
        self.on_attach()

    def on_attach(self) -> None:
        """Initialize per-peer state; the host (and topology) is available."""

    def sublayers(self) -> Sequence["Layer"]:
        """Embedded service layers (registered before this layer)."""
        return ()

    # -- behaviour ---------------------------------------------------------

    def actions(self) -> Sequence[Action]:
        """The guarded actions, in the paper's text order.

        Called once, at registration: the host caches the flattened
        guard/statement table, so the action set must be stable for the
        layer's lifetime (every protocol here declares a fixed algorithm).
        """
        return ()

    def on_message(self, sender: int, msg: "TaggedMessage") -> None:
        """Receive action for a message carrying this layer's tag."""

    # -- adversary / configuration interface --------------------------------

    def scramble(self, rng: random.Random) -> None:
        """Overwrite every variable with an arbitrary value in its domain."""

    def garbage_message(self, rng: random.Random) -> "TaggedMessage | None":
        """An arbitrary in-flight message for this layer's tag, or None."""
        return None

    def snapshot(self) -> tuple[Any, ...]:
        """The :attr:`STATE` variables' values as an immutable tuple
        (Definition 3 projection).  A dict becomes its items in the dict's
        own order (a per-peer map is built in ``host.others`` order), a
        list a tuple."""
        variables = vars(self)
        frozen = []
        for name in self.STATE:
            value = variables[name]
            kind = type(value)
            frozen.append(tuple(value.items()) if kind is dict
                          else tuple(value) if kind is list else value)
        return tuple(frozen)

    def restore(self, state: tuple[Any, ...]) -> None:
        """Inverse of :meth:`snapshot` (see the class's type-stability rule)."""
        variables = vars(self)
        for name, value in zip(self.STATE, state):
            kind = type(variables[name])
            variables[name] = kind(value) if kind is dict or kind is list else value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        pid = self.host.pid if self.host is not None else "?"
        return f"{type(self).__name__}(tag={self.tag!r}, pid={pid})"


class ProcessHost:
    """A process: local layers plus input/output capabilities.

    The host exposes exactly what the paper's model grants a process: its
    id, the local channel numbering of its peers, message sending, and time
    (for the simulation harness only — the protocols themselves never read
    the clock).

    **Dormancy.**  A host whose activation executed nothing goes dormant:
    its next activation leaves the event heap and :attr:`_catch_up` holds
    what puts it back.  It stays awake instead while an activation hook is
    attached, while a layer declares :attr:`Layer.guards_read_clock`, and
    while a ``call_later`` timer of its own is pending — so every timer
    finds it awake.  The wake points are the events that can change its
    variables: both delivery paths (``Simulator._deliver``,
    ``Simulator._dispatch_arrival``), ``RequestDriver._issue``,
    :meth:`scramble`, :meth:`restore` and :meth:`set_busy_for`; and every
    scheduler run wakes all hosts as it returns.  See :meth:`wake`.
    """

    def __init__(self, sim: "Simulator", pid: int) -> None:
        self.sim = sim
        self.pid = pid
        #: Neighbour ids in local channel-number order (channels 1..deg).
        #: A plain attribute: the topology is immutable and every wave
        #: action walks this tuple.
        self.others: tuple[int, ...] = sim.network.peers_of(pid)
        self.layers: list[Layer] = []
        self._by_tag: dict[str, Layer] = {}
        # Flattened (guard, statement) table over all layers, cached at
        # registration — rebuilding per activation dominated the hot loop.
        self._action_table: list[tuple[Callable[[], bool], Callable[[], None]]] = []
        #: The process is busy (executing a durational critical section)
        #: until this tick; activations and message dispatches wait.
        self.busy_until: int = -1
        # Monotone counter keying call_later timers (canonical event order).
        self._timer_seq: int = 0
        # The pending call_later timer that fires last; the host does not
        # go dormant before it has fired.
        self._last_timer: EventHandle | None = None
        #: Any registered layer's Layer.guards_read_clock.
        self.guards_read_clock = False
        # Dormancy (repro.sim.runtime.Simulator._make_activation): the
        # catch-up that puts the next activation back on the heap, and
        # that activation's tick, while the host is dormant; None awake.
        self._catch_up: Callable[[int, float], None] | None = None
        self._next_activation: int = 0
        # dst -> the channel's compiled link, filled at the first send to
        # each peer.
        self._links: dict[int, Link] = {}

    # -- wiring -------------------------------------------------------------

    def register(self, layer: Layer) -> None:
        """Register ``layer`` and, recursively, its sub-layers first."""
        for sub in layer.sublayers():
            self.register(sub)
        if layer.tag in self._by_tag:
            raise ProtocolError(
                f"duplicate layer tag {layer.tag!r} at process {self.pid}"
            )
        layer.attach(self)
        self.layers.append(layer)
        self._by_tag[layer.tag] = layer
        self.guards_read_clock = self.guards_read_clock or layer.guards_read_clock
        self._action_table.extend(
            (action.guard, action.statement) for action in layer.actions()
        )

    def layer(self, tag: str) -> Layer:
        try:
            return self._by_tag[tag]
        except KeyError:
            raise ProtocolError(f"no layer {tag!r} at process {self.pid}") from None

    def has_layer(self, tag: str) -> bool:
        return tag in self._by_tag

    # -- topology -----------------------------------------------------------

    @property
    def n(self) -> int:
        """Total number of processes in the system (not the degree)."""
        return self.sim.network.n

    @property
    def degree(self) -> int:
        """Number of incident channels (= n - 1 on the complete graph)."""
        return self.sim.network.degree(self.pid)

    @property
    def topology_complete(self) -> bool:
        """True iff the system topology is the paper's complete graph."""
        return self.sim.network.topology.is_complete

    def chan_num(self, peer: int) -> int:
        return self.sim.network.chan_num(self.pid, peer)

    def peer_by_num(self, num: int) -> int:
        return self.sim.network.peer_by_num(self.pid, num)

    # -- input/output ---------------------------------------------------------

    def link(self, dst: int) -> "Link":
        """The compiled link of the channel to ``dst`` (compiled on first
        use; see repro.sim.runtime)."""
        try:
            return self._links[dst]
        except KeyError:
            link = self._links[dst] = self.sim.link(self.pid, dst)
            return link

    def send(self, dst: int, msg: "TaggedMessage") -> None:
        # Straight into the channel's compiled link: claim, then put (see
        # repro.sim.runtime).
        try:
            link = self._links[dst]
        except KeyError:
            link = self.link(dst)
        link.send(msg)

    def emit(self, kind: str, **data: Any) -> None:
        # The keyword dict is the row's payload: handed over, not re-expanded.
        self.sim.trace.append(self.sim.now, kind, self.pid, data)

    @property
    def now(self) -> int:
        return self.sim.now

    @property
    def rng(self) -> random.Random:
        return self.sim.rng

    def call_later(self, delay: int, fn: Callable[[], None]) -> EventHandle:
        self._timer_seq += 1
        handle = self.sim.scheduler.schedule_in(
            delay, fn, timer_key(self.pid, self._timer_seq)
        )
        # Timer keys grow with _timer_seq: of two timers due the same
        # tick, the later one fires last.
        last = self._last_timer
        if last is None or handle.time >= last.time:
            self._last_timer = handle
        return handle

    def set_busy_for(self, duration: int) -> None:
        """Mark the process busy (atomically occupied) for ``duration`` ticks."""
        if duration < 0:
            raise SimulationError(f"negative busy duration {duration}")
        if self._catch_up is not None:
            self.wake()
        self.busy_until = max(self.busy_until, self.now + duration)

    def wake(self) -> None:
        """Put a dormant host's activation back on the event heap.

        Its catch-up counts and draws every activation ordered before the
        schedule position — ``(now, key of the running event)``; outside
        an event the key is 0 — as the eager loop would have run it
        (executing nothing: the variables it read had not changed), then
        posts the first one at or after that position.  A no-op on an
        awake host.
        """
        catch_up = self._catch_up
        if catch_up is not None:
            scheduler = self.sim.scheduler
            catch_up(scheduler._now, scheduler.current_key)

    @property
    def busy(self) -> bool:
        # Reaches straight for the scheduler's clock: this predicate runs
        # before every activation and every delivery.
        return self.busy_until > self.sim.scheduler._now

    # -- execution ------------------------------------------------------------

    def activate(self) -> int:
        """Run every enabled guarded action once, in stack/text order.

        Returns the number of actions executed.  Guard evaluation and
        statement execution are atomic (the simulator is single-threaded and
        never interleaves within an activation).
        """
        executed = 0
        for guard, statement in self._action_table:
            if guard():
                statement()
                executed += 1
        return executed

    def dispatch(self, sender: int, msg: "TaggedMessage") -> None:
        """Deliver a received message to the consuming layer.

        Messages with a tag no layer consumes are dropped silently: the
        arbitrary initial configuration may contain messages of unknown
        protocols, and a real process ignores frames it cannot parse.
        """
        layer = self._by_tag.get(msg.tag)
        if layer is not None:
            layer.on_message(sender, msg)

    # -- adversary / configuration ---------------------------------------------

    def scramble(self, rng: random.Random) -> None:
        self.wake()
        for layer in self.layers:
            layer.scramble(rng)

    def snapshot(self) -> "ProcessState":
        return tuple([(layer.tag, layer.snapshot()) for layer in self.layers])

    def restore(self, state: "ProcessState") -> None:
        self.wake()
        for tag, layer_state in state:
            self.layer(tag).restore(layer_state)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProcessHost(pid={self.pid}, layers={[l.tag for l in self.layers]})"
