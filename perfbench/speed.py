"""The machine's speed, sampled while a worker runs.

The measuring machine shares its cores with other tenants.  Their load
changes how fast this process runs, within seconds and by up to 2x, while
the process keeps its core: its CPU time equals its wall time, and the
kernel reports no steal.  Medians over rounds cannot remove that, because
it moves on the timescale of a round.

So the worker samples the speed as it goes.  Every SAMPLE_CPU_S of CPU
time a timer signal runs a fixed probe of plain interpreter work twice:
once to warm the caches after the library's work, then timed.  The probe
touches nothing of the library's and costs about 1% of the run.

The reference time of a stretch of wall time scales each part between two
probes by P_REF_S / (the timed probe of that part), and leaves the probes
out: it is the wall time the stretch takes on this machine when the probe
runs in P_REF_S, the probe's time when no other tenant slows it.  A part
after the last probe takes that probe's speed.
"""

from __future__ import annotations

import signal
import statistics
import time

SAMPLE_CPU_S = 0.02
P_REF_S = 0.000125  # the timed probe, Python 3.11 on the machine in README.md


def probe():
    """A fixed slice of interpreter work: tuples, dict look-ups, calls."""
    table = {}
    total = 0
    for i in range(512):
        key = (i & 15, i >> 4)
        table[key] = table.get(key, 0) + i
        total += len(table) ^ (i * 7 % 13)
    return total


class SpeedSampler:
    """Probe the machine's speed on a CPU-time timer while it is on."""

    def __init__(self):
        self.samples = []  # (tick start, timed probe start, tick end)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        probe()
        tm = time.perf_counter()
        probe()
        self.samples.append((t0, tm, time.perf_counter()))

    def start(self):
        signal.signal(signal.SIGVTALRM, self._tick)
        signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_CPU_S, SAMPLE_CPU_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, signal.SIG_DFL)

    def _ticks(self, start, end):
        return [s for s in self.samples if start <= s[0] and s[2] <= end]

    def reference_seconds(self, start, end):
        """Wall time of [start, end] at the reference speed, probes left
        out; plain wall time if no probe ran inside it."""
        ticks = self._ticks(start, end)
        if not ticks:
            return end - start
        ref = 0.0
        prev = start
        for t0, tm, t1 in ticks:
            ref += (t0 - prev) * P_REF_S / (t1 - tm)
            prev = t1
        return ref + (end - prev) * P_REF_S / (t1 - tm)

    def probe_median_s(self, start, end):
        """Median timed probe in [start, end], 0 if none ran."""
        return statistics.median(
            [t1 - tm for _, tm, t1 in self._ticks(start, end)] or [0.0])
