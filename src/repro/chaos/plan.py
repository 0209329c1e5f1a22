"""The FaultPlan DSL: deterministic runtime-fault schedules.

A *fault plan* is a tiny text program describing which runtime faults to
inject where, compiled once on the coordinator and sliced per worker.
Statements are separated by newlines or ``;``; ``#`` starts a comment:

.. code-block:: text

    crash worker 2 at barrier 5        # _exit(70) on entering round 5
    crash worker 1 at round 3          # _exit mid-round: after compute,
                                       #   before shipping round 3
    crash worker 0 at rendezvous       # die before REGISTER
    crash worker 0 at peering          # die before dialing peers
    cut link 1->3 at round 4 for 0.5s  # shard 1 withholds all frames to
                                       #   shard 3 from round 4, heals
                                       #   after 0.5 wall seconds
    cut link 1->3 for rounds 4..8      # sugar: duration scales with the
                                       #   round span
    drop ship from 5 to 9 round 2..6 count 2
                                       # leave two matching ships out of
                                       #   their link-round's SHIP frame
    duplicate ship to 9                # write one matching ship twice
    corrupt ship from 5 count 1        # truncate the frame that carries
                                       #   it (receiver counts + drops
                                       #   the frame: on a cluster link
                                       #   the link's whole round)
    stall worker 2 at round 3 for 1s   # sleep after shipping round 3
    stall registry 2s                  # every worker stalls after round 1

Semantics that keep the equivalence gates meaningful:

* ``crash`` faults are *recoverable* with coordinator-spawned workers:
  the coordinator stops the survivors, respawns the dead shard and runs
  the trial again
  (:mod:`repro.net.cluster`), so the finished run is the serial engine's.
  A crash point a shard has not reached when another shard's crash
  aborts the attempt stays armed for the re-run.
* ``cut`` faults are pure delay — the sender buffers frames in order and
  flushes after the wall-clock hold, so the virtual-time trace is
  untouched by construction.
* ``drop``/``corrupt`` ship faults are healed by the barrier ship-count
  NAK/resend protocol; ``duplicate`` is absorbed by receiver dedup.
  Budgets (``count``, default 1) are spent per matching ship and make
  every fault finite, so resends terminate.  (On async tcp/udp a frame
  carries one message, so the frame *is* the ship.)
* ``stall`` faults only delay a worker's next round (wall time), never
  virtual time.

``crash worker`` / ``cut link`` / ``stall worker`` name **shards**;
``from``/``to`` in ship faults name **pids**; ``round`` predicates are the
sender's barrier round (round 0 ships the scramble-era backlog).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.errors import ConfigurationError

__all__ = [
    "CrashWorker",
    "CutLink",
    "FaultPlan",
    "ShipFault",
    "StallWorker",
    "parse_fault_plan",
]

CRASH_PHASES = ("rendezvous", "peering", "barrier", "round")
SHIP_ACTIONS = ("drop", "duplicate", "corrupt")

#: ``cut link A->B for rounds X..Y`` sugar: wall-clock hold per round in
#: the span (cuts must heal on wall time — a round-count heal deadlocks,
#: because the receiver's stalled barrier stalls the very rounds that
#: would trigger the heal).
CUT_SECONDS_PER_ROUND = 0.25


@dataclass(frozen=True)
class CrashWorker:
    """``crash worker <shard> at <phase> [<round>]`` — the worker calls
    ``os._exit`` at the named lifecycle point."""

    shard: int
    phase: str
    round: int = 0

    def token(self) -> str:
        """argv encoding for the spawned worker (``--chaos``): crash faults
        must ride the command line because ``at rendezvous`` fires before
        the spec channel exists."""
        if self.phase in ("barrier", "round"):
            return f"{self.phase}:{self.round}"
        return self.phase


@dataclass(frozen=True)
class CutLink:
    """``cut link <src>-><dst> at round <r> for <s>s`` — shard ``src``
    withholds every frame to shard ``dst`` (ships *and* barriers, in
    order) starting at round ``start_round``, flushing after ``seconds``
    of wall time."""

    src_shard: int
    dst_shard: int
    start_round: int
    seconds: float


@dataclass(frozen=True)
class ShipFault:
    """``drop|duplicate|corrupt ship [from <pid>] [to <pid>]
    [round <r>[..<r2>]] [count <n>]`` — applied sender-side to the ships
    matching every given predicate, where their link-round is framed (a
    ship's place in the SHIP frame's list; on the async tcp engine, its
    MESSAGE frame)."""

    action: str
    src: int | None = None
    dst: int | None = None
    rounds: tuple[int, int] | None = None
    count: int = 1


@dataclass(frozen=True)
class StallWorker:
    """``stall worker <shard> at round <r> for <s>s`` (or
    ``stall registry <s>s`` = every shard, round 1) — the worker sleeps
    after shipping that round, before it starts the next."""

    shard: int | None
    round: int
    seconds: float


Fault = CrashWorker | CutLink | ShipFault | StallWorker


class FaultPlan:
    """A parsed, validated fault schedule.

    Immutable; :meth:`parse` is the entry point.  The coordinator keeps
    the full plan, delivers crash faults via worker argv
    (:meth:`crash_token`) and everything else via the picklable per-shard
    :meth:`worker_slice` in the trial spec.
    """

    def __init__(self, faults: Sequence[Fault], source: str = "") -> None:
        self.faults: tuple[Fault, ...] = tuple(faults)
        self.source = source

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan({list(self.faults)!r})"

    def __bool__(self) -> bool:
        return bool(self.faults)

    def __eq__(self, other: object) -> bool:
        # Plans are equal by schedule, not by surface text: a TrialSpec
        # provenance round-trip rebuilds the plan from its DSL source, and
        # whitespace/comments must not break the equality.
        if not isinstance(other, FaultPlan):
            return NotImplemented
        return self.faults == other.faults

    def __hash__(self) -> int:
        return hash(self.faults)

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        return cls(list(_parse_statements(text)), source=text)

    # -- queries -------------------------------------------------------

    def crashes(self) -> list[CrashWorker]:
        return [f for f in self.faults if isinstance(f, CrashWorker)]

    def crash_token(self, shard: int) -> str | None:
        for fault in self.crashes():
            if fault.shard == shard:
                return fault.token()
        return None

    def ship_faults(self) -> list[ShipFault]:
        return [f for f in self.faults if isinstance(f, ShipFault)]

    def requires_cluster(self) -> bool:
        """True if any fault needs the cluster runtime (worker processes,
        shard links, CONTROL channel, or round predicates)."""
        for fault in self.faults:
            if isinstance(fault, (CrashWorker, CutLink, StallWorker)):
                return True
            if isinstance(fault, ShipFault) and fault.rounds is not None:
                return True
        return False

    # -- per-worker slicing -------------------------------------------

    def worker_slice(self, shard: int, shard_of: dict[int, int]) -> dict | None:
        """The picklable non-crash fault slice shard ``shard`` enforces.

        Ship faults with a ``from`` pid belong to that pid's shard; with
        no ``from`` pid every sender applies them (``count`` is then a
        per-sender budget).  Crash faults never appear here — they travel
        via argv, and replacements are spawned without them.
        """
        cuts = [
            (f.dst_shard, f.start_round, f.seconds)
            for f in self.faults
            if isinstance(f, CutLink) and f.src_shard == shard
        ]
        ships = [
            (f.action, f.src, f.dst, f.rounds, f.count)
            for f in self.ship_faults()
            if f.src is None or shard_of.get(f.src) == shard
        ]
        stalls = [
            (f.round, f.seconds)
            for f in self.faults
            if isinstance(f, StallWorker) and f.shard in (None, shard)
        ]
        if not (cuts or ships or stalls):
            return None
        return {"cuts": cuts, "ships": ships, "stalls": stalls}

    # -- validation ----------------------------------------------------

    def validate_for_cluster(
        self, n_shards: int, pids: Sequence[int], *, spawned: bool
    ) -> None:
        pid_set = set(pids)
        crashed: set[int] = set()
        for fault in self.faults:
            if isinstance(fault, CrashWorker):
                _check_shard(fault.shard, n_shards, "crash worker")
                if fault.shard in crashed:
                    raise ConfigurationError(
                        f"fault plan crashes worker {fault.shard} twice; one "
                        "crash per shard is supported"
                    )
                crashed.add(fault.shard)
                if not spawned:
                    raise ConfigurationError(
                        "crash faults need coordinator-spawned workers "
                        "(listen=None); hand-launched workers cannot be "
                        "respawned"
                    )
            elif isinstance(fault, CutLink):
                _check_shard(fault.src_shard, n_shards, "cut link source")
                _check_shard(fault.dst_shard, n_shards, "cut link target")
                if fault.src_shard == fault.dst_shard:
                    raise ConfigurationError(
                        f"cut link {fault.src_shard}->{fault.dst_shard}: "
                        "a shard has no link to itself"
                    )
            elif isinstance(fault, ShipFault):
                for pid in (fault.src, fault.dst):
                    if pid is not None and pid not in pid_set:
                        raise ConfigurationError(
                            f"{fault.action} ship names pid {pid}, not in "
                            "the system"
                        )
            elif isinstance(fault, StallWorker):
                if fault.shard is not None:
                    _check_shard(fault.shard, n_shards, "stall worker")

    def validate_for_async(self, transport: str) -> None:
        if self.requires_cluster():
            raise ConfigurationError(
                "this fault plan needs engine='cluster': crash/cut/stall "
                "faults and round predicates have no meaning on the async "
                "engine (only drop/duplicate/corrupt ship faults keyed by "
                "pid apply there)"
            )
        from repro.net.transport import resolve_transport, transport_names

        if not resolve_transport(transport).frame_boundary:
            framed = tuple(
                name for name in transport_names()
                if resolve_transport(name).frame_boundary
            )
            raise ConfigurationError(
                f"fault plans on the async engine need a framed transport "
                f"{framed} ({transport!r} has no frame boundary to inject at)"
            )


def _check_shard(shard: int, n_shards: int, what: str) -> None:
    if not 0 <= shard < n_shards:
        raise ConfigurationError(
            f"{what} names shard {shard}, but the partition has "
            f"{n_shards} shard(s)"
        )


def parse_fault_plan(text: str) -> FaultPlan:
    """Module-level convenience mirroring :meth:`FaultPlan.parse`."""
    return FaultPlan.parse(text)


# -- parser ------------------------------------------------------------


def _parse_statements(text: str) -> Iterator[Fault]:
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0]
        for statement in line.split(";"):
            words = statement.split()
            if words:
                yield _parse_one(words, statement.strip())


def _parse_one(words: list[str], statement: str) -> Fault:
    head = words[0].lower()
    try:
        if head == "crash":
            return _parse_crash(words)
        if head == "cut":
            return _parse_cut(words)
        if head in SHIP_ACTIONS:
            return _parse_ship(words)
        if head == "stall":
            return _parse_stall(words)
    except (ConfigurationError, IndexError) as exc:
        detail = exc if isinstance(exc, ConfigurationError) else "truncated"
        raise ConfigurationError(
            f"bad fault statement {statement!r}: {detail}"
        ) from None
    raise ConfigurationError(
        f"bad fault statement {statement!r}: unknown fault "
        f"{head!r} (expected crash/cut/drop/duplicate/corrupt/stall)"
    )


def _parse_crash(words: list[str]) -> CrashWorker:
    # crash worker <shard> at <phase> [<round>]
    _expect(words, 1, "worker")
    shard = _int(words[2], "shard")
    _expect(words, 3, "at")
    phase = words[4].lower()
    if phase not in CRASH_PHASES:
        raise ConfigurationError(
            f"unknown crash phase {phase!r} (expected one of {CRASH_PHASES})"
        )
    round_no = 0
    if phase in ("barrier", "round"):
        round_no = _int(words[5], "round")
        _done(words, 6)
        if round_no < 1:
            raise ConfigurationError(
                "crash round must be >= 1 (rounds are 1-based; round 0 ships the scramble)"
            )
    else:
        _done(words, 5)
    return CrashWorker(shard=shard, phase=phase, round=round_no)


def _parse_cut(words: list[str]) -> CutLink:
    # cut link A->B at round R for Ss | cut link A->B for rounds X..Y
    _expect(words, 1, "link")
    src, dst = _link(words[2])
    if words[3].lower() == "at":
        _expect(words, 4, "round")
        start = _int(words[5], "round")
        _expect(words, 6, "for")
        seconds = _seconds(words[7])
        _done(words, 8)
    elif words[3].lower() == "for":
        _expect(words, 4, "rounds")
        lo, hi = _round_range(words[5])
        start, seconds = lo, (hi - lo + 1) * CUT_SECONDS_PER_ROUND
        _done(words, 6)
    else:
        raise ConfigurationError(
            f"expected 'at round R for Ss' or 'for rounds X..Y', got "
            f"{' '.join(words[3:])!r}"
        )
    if start < 0:
        raise ConfigurationError("cut round must be >= 0")
    if seconds <= 0:
        raise ConfigurationError("cut duration must be > 0")
    return CutLink(src_shard=src, dst_shard=dst, start_round=start,
                   seconds=seconds)


def _parse_ship(words: list[str]) -> ShipFault:
    # <action> ship [from P] [to P] [round R[..R2]] [count N]
    action = words[0].lower()
    _expect(words, 1, "ship")
    src = dst = rounds = None
    count = 1
    i = 2
    while i < len(words):
        key = words[i].lower()
        if key == "from":
            src = _int(words[i + 1], "from pid")
        elif key == "to":
            dst = _int(words[i + 1], "to pid")
        elif key == "round":
            rounds = _round_range(words[i + 1])
        elif key == "count":
            count = _int(words[i + 1], "count")
        else:
            raise ConfigurationError(
                f"unknown ship predicate {key!r} (expected "
                "from/to/round/count)"
            )
        i += 2
    if count < 1:
        raise ConfigurationError("ship fault count must be >= 1")
    return ShipFault(action=action, src=src, dst=dst, rounds=rounds,
                     count=count)


def _parse_stall(words: list[str]) -> StallWorker:
    # stall worker <shard> at round <r> for <s>s | stall registry <s>s
    kind = words[1].lower()
    if kind == "registry":
        seconds = _seconds(words[2])
        _done(words, 3)
        shard: int | None = None
        round_no = 1
    elif kind == "worker":
        shard = _int(words[2], "shard")
        _expect(words, 3, "at")
        _expect(words, 4, "round")
        round_no = _int(words[5], "round")
        _expect(words, 6, "for")
        seconds = _seconds(words[7])
        _done(words, 8)
    else:
        raise ConfigurationError(
            f"expected 'stall worker ...' or 'stall registry ...', got "
            f"{kind!r}"
        )
    if seconds <= 0:
        raise ConfigurationError("stall duration must be > 0")
    if round_no < 1:
        raise ConfigurationError("stall round must be >= 1")
    return StallWorker(shard=shard, round=round_no, seconds=seconds)


def _expect(words: list[str], index: int, keyword: str) -> None:
    if words[index].lower() != keyword:
        raise ConfigurationError(
            f"expected {keyword!r}, got {words[index]!r}"
        )


def _done(words: list[str], length: int) -> None:
    if len(words) > length:
        raise ConfigurationError(
            f"trailing words {' '.join(words[length:])!r}"
        )


def _int(token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ConfigurationError(f"{what} must be an integer, got {token!r}") \
            from None


def _seconds(token: str) -> float:
    token = token[:-1] if token.lower().endswith("s") else token
    try:
        return float(token)
    except ValueError:
        raise ConfigurationError(
            f"duration must look like '2s' or '0.5', got {token!r}"
        ) from None


def _link(token: str) -> tuple[int, int]:
    if "->" not in token:
        raise ConfigurationError(
            f"link must look like 'A->B', got {token!r}"
        )
    left, right = token.split("->", 1)
    return _int(left, "link source shard"), _int(right, "link target shard")


def _round_range(token: str) -> tuple[int, int]:
    if ".." in token:
        left, right = token.split("..", 1)
        lo, hi = _int(left, "round"), _int(right, "round")
    else:
        lo = hi = _int(token, "round")
    if lo < 0 or hi < lo:
        raise ConfigurationError(f"bad round range {token!r}")
    return lo, hi
