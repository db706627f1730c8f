"""Time at a fixed reference speed of the box, gauged while the work runs.

Other tenants of a shared box slow a process down by up to 2x, in episodes
from a fraction of a second to many minutes. While a Sampler is running, an
interval timer times a short fixed pure-Python loop every few milliseconds
and records (wall, CPU, loop time); the code being measured runs unchanged.
Each interval between samples is then scaled by how much slower than
REFERENCE_LOOP_S the loop ran around it, which removes the slowdown that the
work shared with the loop.

This module imports only the standard library until the samples are
analysed, so that a Sampler can time imports.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.002
LOOP_ITERATIONS = 400
# About the loop's undisturbed time on the 2-vCPU box (Python 3.11) that the
# benchmark was built on; every time is reported at this speed.
REFERENCE_LOOP_S = 5.0e-6
SMOOTHING = 15  # samples in the running median of the loop time


def _loop_seconds() -> float:
    t0 = time.perf_counter()
    for _ in range(LOOP_ITERATIONS):
        pass
    return time.perf_counter() - t0


def _sample():
    loop = _loop_seconds()
    return time.perf_counter(), time.process_time(), loop


class Sampler:
    """Samples (wall, cpu, loop seconds) from start() to stop()."""

    def __init__(self):
        self.samples = []
        self._previous = None

    def _on_timer(self, _signum, _frame):
        self.samples.append(_sample())

    def start(self):
        self.samples.append(_sample())
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(_sample())
        return self.samples


def sampled_run(sim):
    """Run `sim`; return its result and the samples taken while it ran."""
    sampler = Sampler()
    sampler.start()
    try:
        result = sim.run()
    finally:
        samples = sampler.stop()
    return result, samples


def reference_seconds(samples):
    """Wall and CPU seconds between the first and the last sample, without
    the loops' own time, at the speed at which the loop takes
    REFERENCE_LOOP_S."""
    import numpy as np
    from numpy.lib.stride_tricks import sliding_window_view

    wall, cpu, loop = np.array(samples).T
    spent = np.cumsum(loop)  # every clock reading follows its own loop
    padded = np.pad(loop, SMOOTHING // 2, mode="edge")
    slowdown = np.median(sliding_window_view(padded, SMOOTHING), axis=1) / REFERENCE_LOOP_S
    scale = slowdown[1:]
    return (float((np.diff(wall - spent) / scale).sum()),
            float((np.diff(cpu - spent) / scale).sum()))
