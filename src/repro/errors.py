"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all errors raised by this library."""


class SimulationError(ReproError):
    """The simulator was driven into an inconsistent state."""


class SpecError(SimulationError):
    """A :class:`~repro.engine.TrialSpec` cannot be executed as written.

    The uniform error for every axis/backend mismatch — ``--fault-plan``
    on serial, ``--window`` on async, ``--hosts`` on sharded, an unknown
    engine or transport name, an out-of-range axis value.  Carries the
    offending ``field`` and the ``backend`` that rejected it so callers
    (and tests) never have to pattern-match free-form prose.
    """

    def __init__(
        self,
        message: str,
        *,
        backend: str | None = None,
        field: str | None = None,
    ) -> None:
        super().__init__(message)
        self.backend = backend
        self.field = field


class SchedulerError(SimulationError):
    """Misuse of the discrete-event scheduler (e.g. scheduling in the past)."""


class ChannelError(SimulationError):
    """Misuse of a communication channel."""


class ConfigurationError(SimulationError):
    """A global configuration could not be captured or restored."""


class HorizonExceeded(SimulationError):
    """A driven trial did not complete within its time budget.

    Carries the partial progress so callers (and CI logs) can tell a
    genuinely stuck system from one that merely needs a bigger budget —
    e.g. ME on large rings, whose per-round cost grows with the ring
    diameter (see docs/engine.md).
    """

    def __init__(
        self,
        message: str,
        *,
        horizon: int,
        served: int | None = None,
        requested: int | None = None,
        rounds: int | None = None,
        window: int | None = None,
    ) -> None:
        parts = [message, f"horizon={horizon}"]
        if served is not None and requested is not None:
            parts.append(f"served {served}/{requested} requests")
        if rounds is not None:
            parts.append(f"{rounds} arbitration rounds granted")
        if window is not None:
            parts.append(f"sync window={window} ticks")
        super().__init__("; ".join(parts))
        self.horizon = horizon
        self.served = served
        self.requested = requested
        self.rounds = rounds
        self.window = window


class WorkerCrashed(SimulationError):
    """A worker process of a distributed engine died mid-trial.

    Raised by the coordinator's crash *detection* path (Popen polling +
    CONTROL-channel EOF, see :mod:`repro.net.coordinator`) within a poll
    interval of the death — never by timing out.  Carries the shard id,
    the barrier round being advanced when the death was noticed, the
    process exit code, and a tail of the worker's captured stderr so the
    diagnosis lands in the exception message rather than a hung CI job.
    """

    def __init__(
        self,
        message: str,
        *,
        shard: int,
        round: int | None = None,
        phase: str | None = None,
        exit_code: int | None = None,
        stderr_tail: str | None = None,
    ) -> None:
        parts = [f"{message} (shard {shard}"]
        if phase is not None:
            parts.append(f", during {phase}")
        if round is not None:
            parts.append(f", round {round}")
        if exit_code is not None:
            parts.append(f", exit code {exit_code}")
        parts.append(")")
        text = "".join(parts)
        if stderr_tail:
            text += "\n--- worker stderr tail ---\n" + stderr_tail
        super().__init__(text)
        self.shard = shard
        self.round = round
        self.phase = phase
        self.exit_code = exit_code
        self.stderr_tail = stderr_tail


class ProtocolError(ReproError):
    """A protocol layer was misused (bad wiring, bad request sequence)."""


class SpecificationViolation(ReproError):
    """A specification checker found a violated property.

    Checkers normally *return* verdict objects; this exception is raised only
    by the ``require_*`` convenience wrappers.
    """

    def __init__(self, property_name: str, detail: str) -> None:
        super().__init__(f"{property_name}: {detail}")
        self.property_name = property_name
        self.detail = detail


class ImpossibilityConstructionError(ReproError):
    """The Theorem-1 adversary construction could not be carried out.

    On bounded-capacity channels this is the *expected* outcome: the recorded
    message sequences do not fit into the channels, which is exactly the
    observation the paper uses to escape the impossibility result.
    """
