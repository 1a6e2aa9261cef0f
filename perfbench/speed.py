"""A fixed probe of the host's speed, and times scaled by it.

The hosts this benchmark runs on share their cores: for spells from under a
second to many minutes, the same single-threaded code runs up to about 1.6
times slower, and ten runs of a workload can all land in one kind of spell.
A run cannot choose its spell, so it measures the host's speed as it goes:
``probe`` runs a fixed mix of memory reads, plain Python and small numpy
calls (the mix the program's hot loops have) and returns its seconds.  The
run probes right before and after each short timed piece of work and scales
the piece's seconds by ``PROBE_REFERENCE_S`` over the probe's seconds: the
piece's time on a host as fast as the reference host.  A change to the
program moves the pieces and not the probe.
"""

from __future__ import annotations

import time

import numpy as np

# Seconds of one probe on the reference host (2-vCPU x86-64 VM, Python 3.11,
# numpy 2.4, one OpenBLAS thread), which read 0.6-1.5 ms with its load.  It
# only sets the scale of the reported figures; it must not change once
# figures are compared.
PROBE_REFERENCE_S = 1.0e-3

_rng = np.random.default_rng(20250917)
_TABLE = _rng.random(512 * 1024)                    # 4 MB: more than a core's own caches hold
_GATHER = _rng.integers(0, len(_TABLE), 40000)
_SMALL = np.ones(8)


def _mix():
    total = float(_TABLE[_GATHER].sum()) + float(_TABLE[_GATHER[::-1]].sum())
    counts = {}
    for i in range(1800):
        key = i % 97
        counts[key] = counts.get(key, 0) + i
    x = _SMALL
    for _ in range(140):
        x = np.add(x, _SMALL) * 0.5
    return total + x[0] + counts[0]


def probe():
    """Run the fixed probe and return its wall seconds.

    Three parts of about equal time: random reads from a 4 MB table, a
    plain-Python dict loop, and small-array numpy calls (the per-call
    overhead the program's autograd pays on every op).  An untimed first
    round brings the probe's data back into cache, so the timed round does
    not depend on what the program left there.
    """
    _mix()
    start = time.perf_counter()
    _mix()
    return time.perf_counter() - start


def warm_up(times=20):
    """Run the probe a few times, so the first timed probe is not a cold one."""
    for _ in range(times):
        probe()


def reference_seconds(pieces):
    """Total seconds of ``(seconds, probe seconds)`` pieces, each scaled to
    the reference host's speed."""
    return sum(seconds * PROBE_REFERENCE_S / probe_s for seconds, probe_s in pieces)
