"""Wall time rescaled to a reference machine speed.

On a 2-vCPU Intel Xeon virtual machine the same code runs up to 2x slower
for stretches of several seconds, with no steal time reported: the core
itself slows, most likely under a neighbour on the host.  Raw wall times of
a 15-second run there spread by 20-30% from run to run.  The
benchmark times a fixed probe job (a small-matrix numpy loop, like lqrlab's
hot paths) between units of work and, through the trace-only cost oracle of
the zeroth-order loops, inside them, and counts a wall interval as

    (wall - probe time inside it) x (PROBE_REF_S / probe time) ** SENSITIVITY,

with the probe time interpolated across the interval.  The probe slows more
than lqrlab's code under the same interference: over 5-20 s windows the log
of a workload's time follows the log of the probe time with slope 0.5-0.7,
and over four sets of ten runs of the two API workloads, exponent 0.8 left
the least run-to-run spread (2-6%, against 16-17% raw and 3-7% at exponent
1).  Raw wall times go to the metadata.

Probes between units alone do not suffice: on the CLI workload, whose units
last 5-20 s, rescaling by them widened the run-to-run spread from 5% to 15%.
"""

from __future__ import annotations

import time

import numpy as np

PROBE_REF_S = 5e-4  # probe time at the reference speed (about the fast state of the VM above)
SENSITIVITY = 0.8  # d log(lqrlab time) / d log(probe time), measured as above


def _probe() -> float:
    a = np.full((3, 3), 0.1)
    s = 0.0
    t0 = time.perf_counter()
    for i in range(150):
        a = a @ a * 0.5 + 0.1
        s += i * 0.5
    return time.perf_counter() - t0


class SpeedLog:
    """Probe samples (start, end, probe seconds); pool threads may add them."""

    def __init__(self):
        self.samples: list[tuple] = []

    def sample(self, min_gap: float = 0.0) -> None:
        """Time the probe (best of three) unless the last sample is under min_gap old."""
        start = time.perf_counter()
        if self.samples and start - self.samples[-1][1] < min_gap:
            return
        p = min(_probe() for _ in range(3))
        self.samples.append((start, time.perf_counter(), p))

    def probe_seconds(self, start: float, end: float) -> float:
        """Time spent probing within [start, end]."""
        s = np.asarray(self.samples)
        return float(np.clip(np.minimum(s[:, 1], end) - np.maximum(s[:, 0], start), 0.0, None).sum())

    def ref_seconds(self, start: float, end: float) -> float:
        """Wall seconds of [start, end], less the probes in it, at the reference speed."""
        s = np.asarray(sorted(self.samples))
        probe = np.interp(np.linspace(start, end, 65), 0.5 * (s[:, 0] + s[:, 1]), s[:, 2])
        return (end - start - self.probe_seconds(start, end)) * float(np.mean((PROBE_REF_S / probe) ** SENSITIVITY))
