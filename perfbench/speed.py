"""Calibrated time: wall time scaled by how fast the machine runs at that moment.

On a shared host the same Python code can run at very different speeds
from one second to the next: a virtual CPU shares its core with other
tenants, and the share changes many times a second and, for minutes on
end, on average.  Wall times of the same code then differ by a factor of
up to two between runs, which hides any change to the program.

A `SpeedMeter` measures that speed while the benchmark runs.  A
periodic timer signal interrupts the program every PERIOD seconds, and
the handler runs a fixed piece of pure-Python work (`calibration_loop`,
about 0.2 ms; the same kind of work as the program's: small frozensets,
tuples and dicts) twice and times the second run.  The first run warms
the caches: timed cold, the loop took up to 11 % longer when it
interrupted one program than another at the same machine speed; timed
warm, the same to within 1 %.  The speed factor at a sample is
CALIBRATION_S divided by the loop's time there, so it is 1 where the
loop takes CALIBRATION_S.  That is about the loop's time on a 2-vCPU
Xeon VM while its vCPU runs at full speed, so there calibrated times
come out close to the wall times of a quiet machine.

`Clock` turns those samples into calibrated time.  Between two samples
the machine is taken to run at the mean speed factor of the nearest
2 * WINDOW samples, WINDOW on either side, and calibrated time advances
at that rate.  The speed changes quickly: over 200 s of repeated program
calls (of 30 ms to 2.7 s each), windows of two samples a side gave the
calls' calibrated times the smallest spread, and windows of 12 or 50
samples up to twice as much.  The calibrated length of an interval is
then the wall time it would have taken at the reference speed.  A change
to the program still changes it in full; a change in the machine's speed
mostly does not.

The handler's own time falls inside whatever the program was doing, at
about 2 % of it, the same for every program version.
"""

from __future__ import annotations

import bisect
import signal
import time

PERIOD = 0.02           # seconds between calibration samples
WINDOW = 2              # samples on either side that give the speed between two samples
CALIBRATION_S = 120e-6  # the loop's time at the reference speed

_SETS = [frozenset(range(i, i + 8)) for i in range(64)]


def calibration_loop() -> int:
    """A fixed piece of pure-Python work; only its time matters."""
    seen: dict = {}
    total = 0
    for r in range(2):
        for i, a in enumerate(_SETS):
            b = _SETS[(i * 7 + r) % 64]
            c = a & b
            key = (len(c), r)
            seen[key] = seen.get(key, 0) + len(a | b)
            total += len(c)
    return total


class SpeedMeter:
    """Samples the machine's speed on a timer signal while it is entered.

    Only one may be active at a time, and only in the main thread; the
    program it measures must leave SIGALRM and ITIMER_REAL alone.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (time, loop seconds)
        self._saved = None

    def _tick(self, signum, frame) -> None:
        calibration_loop()
        start = time.perf_counter()
        calibration_loop()
        self.samples.append((start, time.perf_counter() - start))

    def __enter__(self) -> SpeedMeter:
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)

    def clock(self) -> Clock:
        return Clock(self.samples)


class Clock:
    """Maps perf_counter times to calibrated seconds (see the module doc)."""

    def __init__(self, samples: list[tuple[float, float]]):
        if not samples:
            raise ValueError("no speed samples: the run was shorter than one PERIOD")
        self.times = [t for t, _ in samples]
        factors = [CALIBRATION_S / loop for _, loop in samples]
        n = len(factors)
        windows = [factors[max(0, i + 1 - WINDOW):i + 1 + WINDOW] for i in range(n)]
        self.rates = [sum(w) / len(w) for w in windows]  # from sample i to sample i + 1
        self.loop_s = sorted(loop for _, loop in samples)[n // 2]
        # Calibrated time at each sample; before the first sample and
        # after the last, the nearest sample's rate holds.
        self.at = [0.0] * n
        for i in range(1, n):
            self.at[i] = self.at[i - 1] + (self.times[i] - self.times[i - 1]) * self.rates[i - 1]

    def __call__(self, t: float) -> float:
        i = max(0, bisect.bisect_right(self.times, t) - 1)
        return self.at[i] + (t - self.times[i]) * self.rates[i]

    def seconds(self, start: float, end: float) -> float:
        """Calibrated length of the wall-time interval [start, end]."""
        return self(end) - self(start)
