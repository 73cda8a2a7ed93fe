"""How fast the host is right now, from a fixed reference kernel.

On the shared 2-core Xeon host the benchmark was defined on, CPU speed
changed by up to 1.7x within seconds and stayed changed for seconds to
minutes, so two runs of the same code differed by a third in raw wall
time.  The benchmark times a small fixed kernel that uses no program
code: NumPy convolution, an FFT, a Python integer loop, and sorting
Python dicts.  It then scales timings to a host that runs the kernel in
:data:`REFERENCE_S`.  A faster program still reads faster, because the
kernel does not change with it.

One kernel run is a *probe*.  The benchmark probes between windows
(see :mod:`perfbench.workloads`) and scales each window by the probes
just before and after it: the host's speed changes from one second to
the next, and probes taken around a whole pass miss that.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: the kernel's time on the 2-core Xeon host the bounds were set on
REFERENCE_S = 0.005
#: kernel runs per :meth:`HostSpeed.seconds` by default; their median
#: is the reading
REPEATS = 9
#: between windows, one probe per this much window time, up to
#: :data:`MAX_PROBES`: the probes take a tenth of a run's wall time or less
PROBE_EVERY_S = 0.1
MAX_PROBES = 5


class HostSpeed:
    """Times the reference kernel; keeps its inputs between calls."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = (rng.standard_normal(50_000)
                   + 1j * rng.standard_normal(50_000)).astype(np.complex64)
        self._taps = self._x[:11].copy()
        self._keys = list(range(5_000))

    def _kernel(self) -> None:
        np.convolve(self._x, self._taps, mode="valid")
        np.fft.fft(self._x[:32_768])
        sum(i * i for i in range(15_000))
        sorted(({"a": k, "b": -k} for k in self._keys),
               key=lambda d: d["b"])

    def probe(self) -> float:
        """Seconds one kernel run takes."""
        t0 = time.perf_counter()
        self._kernel()
        return time.perf_counter() - t0

    def seconds(self, repeats: int = REPEATS) -> float:
        """Median kernel time over ``repeats`` runs."""
        return statistics.median(self.probe() for _ in range(repeats))


def probes_after(latency: float) -> int:
    """How many probes to take after a window that took ``latency``."""
    return min(1 + int(latency / PROBE_EVERY_S), MAX_PROBES)


def scale_of(probes) -> float:
    """Factor taking a wall time measured while ``probes`` (kernel
    seconds) were taken to the reference host."""
    return REFERENCE_S / statistics.median(probes)
