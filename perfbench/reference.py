"""A fixed reference loop that measures how fast the machine is right now.

The timed metrics are meant to compare two versions of fracpow, but on
a shared virtual machine the same code runs at very different speeds
from one moment to the next: a pure-Python loop timed every few seconds
switched between about 2.1 and 3.8 ms within a minute, which moved the
medians of whole 30 s runs by 15 to 30 %.  The benchmark therefore runs
this loop right after every timed op (and around every set-up) and
scales the op's wall time by ``NOMINAL_MS / loop time``: the op's time
on the machine running at its nominal speed.  Both the op and the loop
are single-threaded pure Python, so a slow phase of the machine slows
both alike, and the ratio keeps what the fracpow code costs.

The loop imports nothing from fracpow and no change to fracpow can
change its work: integer convolution, ``Fraction`` arithmetic and dict
updates, the operations fracpow's own time is spent on.
"""

import statistics
import time
from fractions import Fraction

# Time of one loop on the machine that defined the benchmark (2-core
# virtual machine, Python 3.11.7), the median over a few minutes.  It
# only sets the scale of the normalised times; its value cancels out of
# every comparison between two runs of the benchmark.
NOMINAL_MS = 3.0

_VALUES = [(i * 7919) % 1000 - 500 for i in range(120)]


def _work():
    conv = [0] * (2 * len(_VALUES))
    for i, x in enumerate(_VALUES):
        for j, y in enumerate(_VALUES):
            conv[i + j] += x * y
    total = Fraction(0)
    for k in range(1, 150):
        total += Fraction(k % 13 + 1, k + 3) * Fraction(k, 7)
    buckets: dict = {}
    for k in range(3000):
        buckets[k % 97] = buckets.get(k % 97, 0) + k
    return conv, total, buckets


def seconds(repeats: int = 1) -> float:
    """Wall time of one reference loop, the median of `repeats` loops."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scale(elapsed: float, loop: float) -> float:
    """`elapsed` seconds measured while one reference loop took `loop`
    seconds, as the time at the nominal machine speed."""
    return elapsed * (NOMINAL_MS / 1000) / loop
