"""Rescaling of measured times to a machine of fixed speed.

This machine's speed drifts by 10-40% over seconds to minutes, in CPU time
as much as in wall time, and the drift is not steal time: the same pass of
the same inputs took 2.6 s in one run and 4.5 s in the next.  The harness
therefore cuts every timed pass into segments of at least SEGMENT seconds
and runs `probe_work` at each cut, outside every timed region.  Each
segment's time is scaled by PROBE_REF over the mean of the probe times on
either side of it: the time the segment would take on a machine where the
probe takes PROBE_REF seconds.  The probe never calls permahank, so it runs
the same on every version of the package and a change to the package moves
the scaled times as much as the unscaled ones.
"""

from __future__ import annotations

import random
from fractions import Fraction
from time import perf_counter, thread_time

SEGMENT = 0.1  # seconds of pass time between probes
PROBE_REF = 0.0025  # seconds the probe takes on the reference machine


def _probe_inputs():
    """A fixed reducer table and fixed polynomials on packed monomials."""
    rng = random.Random(20050512)
    nv, bits = 10, 16

    def mono(deg):
        m = [0] * nv
        for _ in range(deg):
            m[rng.randrange(nv)] += 1
        return sum(e << (bits * (nv - 1 - i)) for i, e in enumerate(m))

    reducers = []
    for _ in range(40):
        lead = mono(2)
        tail = tuple(
            (m, Fraction(rng.randint(1, 3) * rng.choice((-1, 1)), rng.randint(1, 3)))
            for m in {mono(2), mono(2)}
            if m < lead
        )
        reducers.append((lead, tail))
    polys = [
        {mono(rng.randint(2, 4)): Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(8)}
        for _ in range(12)
    ]
    guard = sum(1 << (bits * i + 15) for i in range(nv))
    return reducers, polys, guard


_PROBE = _probe_inputs()


def probe_work():
    """About 2 ms of pure-Python work shaped like the engine's inner loop:
    textbook multivariate division with exact fractions on packed integer
    monomials."""
    reducers, polys, guard = _PROBE
    steps = 0
    for p in polys:
        work = dict(p)
        while work and steps < 8000:
            m = max(work)
            c = work.pop(m)
            steps += 1
            for lead, tail in reducers:
                t = (m | guard) - lead
                if t & guard != guard:
                    continue
                q = t ^ guard
                for tm, tc in tail:
                    k = tm + q
                    v = work.get(k)
                    v = -c * tc if v is None else v - c * tc
                    if v:
                        work[k] = v
                    else:
                        work.pop(k, None)
                break
    return steps


class SpeedProbe:
    """The latest probe time, and scale factors for the segment it closes."""

    def __init__(self):
        self.last = self.take()

    def take(self):
        w0, c0 = perf_counter(), thread_time()
        probe_work()
        return perf_counter() - w0, thread_time() - c0

    def cut(self):
        """Probe; returns (wall, cpu) scale factors for the segment just ended."""
        prev, self.last = self.last, self.take()
        return (
            2 * PROBE_REF / (prev[0] + self.last[0]),
            2 * PROBE_REF / (prev[1] + self.last[1]),
        )
