"""Host-speed calibration: how fast was this host *while* the trials ran?

The recorded host is a 2-vCPU virtual machine whose instruction rate is
set by its neighbours, not by its own load: with nothing else running in
the guest and no steal time reported, the fixed loop below takes between
18 and 40 ms from one call to the next, and its median over 20 s drifts
by 5-10 % within minutes.  Trial walls drift with it — ten 20 s runs of
``mutex_dense`` spread 12-14 % in a noisy quarter of an hour and 5 % in a
quiet one — so a raw wall cannot resolve a 10 % regression here however
long one run measures.

The end-to-end run therefore interleaves this loop with the trials (after
each trial, slices for :data:`SHARE` of that trial's wall, so the samples
cover the timed section evenly) and with the set-up launches (after each
launch, slices for as long as it lasted), and divides each timing metric
by the *slowdown* of its own section: mean slice wall over
:data:`REFERENCE_S`.  A section's wall is its work times the mean
slowdown while it ran, which is why the slices are averaged, not
medianed.  Ten-run sets spread 4-8 % scaled where they spread 4-28 % raw
(README.md, *Steadiness*); in quiet periods the two agree within a percent
or two.  Raw values and the slowdowns are kept beside the scaled ones in
every record.

The loop allocates nothing the cyclic collector tracks and touches no
memory beyond a few locals, so its own wall has no GC or cache component:
it tracks the rate at which the interpreter retires bytecode, nothing
else.  It never runs inside a timed trial.
"""

from __future__ import annotations

import time

__all__ = ["REFERENCE_S", "SHARE", "calibrate", "spin"]

#: Mean wall of one :func:`spin` on the recorded host in a quiet period.
#: Scaled metrics read as seconds on a host of that speed; the constant
#: cancels in every comparison.
REFERENCE_S = 0.0205

#: Share of each trial's wall spent calibrating after it.
SHARE = 0.25


def spin(n: int = 600_000) -> int:
    x = 0
    for i in range(n):
        x += i & 7
    return x


def calibrate(seconds: float) -> list[float]:
    """Slice walls of back-to-back :func:`spin` calls lasting at least
    ``seconds`` in all (always at least one slice)."""
    clock = time.perf_counter
    slices = []
    began = last = clock()
    while True:
        spin()
        now = clock()
        slices.append(now - last)
        last = now
        if now - began >= seconds:
            return slices
