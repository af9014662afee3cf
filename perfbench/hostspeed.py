"""Host speed, from a fixed pure-Python task that does not use pikaparse.

The development host's speed drifts by tens of per cent over seconds to
minutes, and pure-Python code slows down as a whole.  On assign-recover,
over 10 s windows, the calibration task below tracked the pipeline's time
with a correlation of 0.985.  The benchmark times the task between timed steps and multiplies each
step's time by

    scale = REFERENCE_NS / (mean calibration time around the step)

so that every reported time reads as it would at the reference speed.
HostSpeed calibrates between consecutive timed steps (set-ups and single
documents), so each step is scaled by the calibrations on either side.  The
task runs only the standard library, so a change to pikaparse cannot move
it.  The printed table also gives the raw figures.
"""
from __future__ import annotations

import tomllib
from time import perf_counter_ns

_DOC = "\n".join(
    '[table%d]\nname = "item %d"\nvalues = [1, 2, 3, 4.5, "x", 1979-05-27]\n'
    "flag = true\nnested = { a = 1, b = \"two\", c = [0x1f, 1e3] }\n" % (i, i)
    for i in range(12)
)

# The reference speed: one calibration parse takes exactly 1 ms.  On the
# development host (Intel Xeon at 2.1 GHz, two vCPUs, Python 3.11.7) it took
# between about 0.75 and 1.3 ms, depending on the moment.
REFERENCE_NS = 1_000_000


def calibrate(repeats: int = 2) -> int:
    """Fastest of `repeats` parses of a fixed TOML document, in ns.  The
    minimum drops the odd collection pause that lands inside one parse."""
    best = None
    for _ in range(repeats):
        t0 = perf_counter_ns()
        tomllib.loads(_DOC)
        dt = perf_counter_ns() - t0
        if best is None or dt < best:
            best = dt
    return best


class HostSpeed:
    """Chained calibrations: scale() closes the step since the previous
    call (or since construction) and returns its scale."""

    def __init__(self):
        self._last = calibrate()
        self.scales = []

    def scale(self) -> float:
        now = calibrate()
        s = 2 * REFERENCE_NS / (self._last + now)
        self._last = now
        self.scales.append(s)
        return s
