"""Host-speed normalisation for timings taken on a shared machine.

The 2-vCPU host this benchmark was written on switches, within seconds and
on each vCPU independently, between a fast state and one about 1.5x slower;
the slow state comes from load outside the container, shows in CPU time as
much as in wall time, and can last for a whole 30 s run.  Raw wall times of
identical runs therefore spread by about 25%.  A fixed probe, timed on the
benchmark's own thread next to the work, tracks that state, provided it does
the same kind of work as the workload; the slow state hurts some kinds of
work more than others.  Measured between the two states:

* a session pass slowed 3% more than ``numpy_probe`` (a Python loop over
  small numpy operations, like the ring and modem code), 15% more than a
  pure-Python loop and 40% more than numpy arithmetic on 256 KiB arrays;
* a bignum convolution, the work of the failure table, slowed 5% more than
  ``bignum_probe`` (pack, multiply and unpack big integers) and 20% more
  than ``numpy_probe``.

``SpeedClock`` times its probe every ``PERIOD_S`` from a SIGALRM handler,
and ``scaled`` converts a wall-time interval into reference seconds: the
time the same work takes when the probe runs in its reference time (about
its time in the fast state of that host), with the probes' own time left
out.

Run as a script it is the set-up probe: it times ``import wkyber`` from the
given ``src`` directory in a fresh interpreter, runs ``numpy_probe`` right
after (numpy is part of what is being imported, so not before), and prints
the import time in reference seconds.
"""

import bisect
import signal
import sys
import time

PERIOD_S = 0.1

_MASK = (1 << 1024) - 1
_BIG_A = [(7 ** 365 * (i + 1)) & _MASK for i in range(64)]
_BIG_B = [(5 ** 441 * (i + 3)) & _MASK for i in range(64)]
_SLOT = 272  # bytes per packed product term


def numpy_probe() -> float:
    """Wall time of a fixed loop of small numpy operations."""
    import numpy as np  # late: the set-up probe times numpy's import
    base = np.arange(256, dtype=np.int64)
    start = time.perf_counter()
    acc = 0
    for i in range(1500):
        acc += int((base * (i + 1) % 3329)[i & 255])
    return time.perf_counter() - start


def bignum_probe() -> float:
    """Wall time of one fixed packed big-integer convolution."""
    start = time.perf_counter()
    a = int.from_bytes(b"".join(m.to_bytes(_SLOT, "little") for m in _BIG_A),
                       "little")
    b = int.from_bytes(b"".join(m.to_bytes(_SLOT, "little") for m in _BIG_B),
                       "little")
    raw = (a * b).to_bytes(128 * _SLOT, "little")
    [int.from_bytes  # unpacking is part of the measured work(raw[i * _SLOT:(i + 1) * _SLOT], "little") >> 512
     for i in range(127)]
    return time.perf_counter() - start


# probe -> its reference time
REF_S = {numpy_probe: 0.004, bignum_probe: 0.0035}


class SpeedClock:
    """Context manager sampling the host speed while the work runs."""

    def __init__(self, probe):
        self._probe = probe
        self._ref_s = REF_S[probe]
        self._probes = []      # (start, end, probe seconds), in time order
        self._previous = None
        self._sampling = False

    def _sample(self, *_):
        if self._sampling:  # an alarm that lands inside the handler
            return
        self._sampling = True
        start = time.perf_counter()
        took = self._probe()
        self._probes.append((start, time.perf_counter(), took))
        self._sampling = False

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def scaled(self, start: float, end: float) -> float:
        """Reference seconds of work done in the wall interval [start, end].

        Each gap between two probes runs at the speed their mean reports.
        """
        probes = self._probes
        first = max(bisect.bisect_right(probes, (start,)) - 1, 0)
        total = 0.0
        for (_, gap_start, before), (gap_end, _, after) in zip(
                probes[first:], probes[first + 1:]):
            if gap_start >= end:
                break
            overlap = min(gap_end, end) - max(gap_start, start)
            if overlap > 0:
                total += overlap * self._ref_s * 2 / (before + after)
        return total


def _time_import(src: str) -> float:
    start = time.perf_counter()
    sys.path.insert(0, src)
    import wkyber  # noqa: F401
    took = time.perf_counter() - start
    return took * REF_S[numpy_probe] / min(numpy_probe() for _ in range(3))


if __name__ == "__main__":
    print(_time_import(sys.argv[1]))
