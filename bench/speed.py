"""Speed probe: how fast this CPU runs right now, sampled during a timing.

The shared host this benchmark runs on changes speed by up to 2x over
seconds to minutes.  Other tenants load it, and the guest is not told:
steal time stays near 1 %.  Every timing carries that swing.  So every 50 ms,
while a worker sets up or runs its pass, a SIGALRM handler times a fixed
pure-Python loop.  ``normalized`` subtracts the handlers' own time from an
elapsed time and rescales the rest by ``REFERENCE_S`` over the median
sample.  The result is the time at the speed where the loop takes
``REFERENCE_S``, about the quiet speed of this machine.

Standard library only, and cheap to import: the worker starts the probe
before it imports anything else.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.05
#: Duration of one probe on this machine when nothing else loads it.
REFERENCE_S = 2.5e-4

_samples: list[float] = []


def sample() -> float:
    """Run the fixed loop once; return how long it took."""
    t0 = time.perf_counter()
    s = 0
    for i in range(3000):
        s += i * i % 7
    return time.perf_counter() - t0


def _tick(signum, frame) -> None:
    _samples.append(sample())


def start() -> None:
    signal.signal(signal.SIGALRM, _tick)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)


def stop() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)


def take() -> list[float]:
    """The samples taken since the last call."""
    out = _samples[:]
    del _samples[: len(out)]
    return out


def normalized(elapsed: float, inside: list[float], extra: list[float]) -> float:
    """``elapsed`` less the ``inside`` probes, at the reference speed.

    ``inside`` are the probes that ran within the timed span; ``extra`` are
    probes taken right next to it, so there is always a sample.
    """
    import statistics

    speed = REFERENCE_S / statistics.median(inside + extra)
    return (elapsed - sum(inside)) * speed
