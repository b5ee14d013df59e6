"""Host-speed probe: a fixed piece of work timed again and again during a body.

The benchmark runs on shared hosts whose speed changes by a third and more,
in spells from under a second to minutes long, while CPU time stays equal
to wall time.  A timed body therefore reads slow or fast with the host,
whatever the code does.  The probe measures the host's speed where the body
runs: every ``INTERVAL_S`` seconds of a timed body a SIGALRM handler, which
runs in the main thread between bytecodes, times one call of ``_work``.
The benchmark subtracts the probe calls from the body time and divides the
rest by the mean probe time, so a slow spell of the host slows both sides
of the ratio.

``_work`` is benchmark code that never changes with germsim: formatting 400
floats at round-trip precision and parsing them back with numpy, the same
kind of work as path CSV I/O.  ``REFERENCE_S`` fixes the scale: a body that
takes as long as ``x`` probe calls reads as ``x * REFERENCE_S`` seconds.
Never change ``_work``, ``INTERVAL_S`` or ``REFERENCE_S``, or figures stop
being comparable across commits.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# Short probes taken often follow the host better than long ones taken
# rarely: the host's slow spells are often shorter than a second.
INTERVAL_S = 0.1
# About the mean probe time on the 2-CPU host the benchmark was written on;
# only the scale of the figures depends on it.
REFERENCE_S = 0.00125
MIN_SAMPLES = 10

_VALUES = np.random.default_rng(20230929).standard_normal(400).cumsum()


def _work() -> None:
    text = "\n".join(f"{v!r},{v!r}" for v in _VALUES.tolist())
    parsed = np.array(text.replace("\n", ",").split(","), dtype=np.float64)
    if not np.array_equal(parsed[::2], _VALUES):
        raise AssertionError("probe round trip lost bits")


class Probe:
    """Times ``_work`` every ``INTERVAL_S`` seconds between ``start`` and ``stop``."""

    def __init__(self):
        self.samples: list[float] = []
        self._active = False
        # The handler stays installed for the life of the process: a SIGALRM
        # that is still pending after ``stop`` must not meet the default
        # action, which ends the process.
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        if self._active:
            t = time.perf_counter()
            _work()
            self.samples.append(time.perf_counter() - t)

    def start(self) -> None:
        self.samples = []
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._active = False

    def mean_s(self) -> float:
        """Mean probe time of the last body.  When the body was too short for
        ``MIN_SAMPLES`` readings, calls made right after it fill them up."""
        while len(self.samples) < MIN_SAMPLES:
            t = time.perf_counter()
            _work()
            self.samples.append(time.perf_counter() - t)
        return sum(self.samples) / len(self.samples)
