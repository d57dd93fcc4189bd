"""Host-speed calibration for the timing figures.

The benchmark shares its cores with other tenants of the host, and the
host's speed moves by up to 1.8x in spells of 10 to 40 s: the same op
took 0.7 or 1.35 times its typical time depending on the spell.  Runs of
a few tens of seconds cannot average that away, so two runs of one
commit a few minutes apart disagreed by a third.

So the benchmark times a fixed calibration kernel that never touches
weightlab through the run, at most ``TICK_EVERY_S`` apart, and scales
every timed sample by the kernel's reference time over its local time:
the median of the ``SMOOTH`` ticks on either side of the sample.  A figure
then reads as the time the op would take on a host where the kernel takes
its reference time; a change to weightlab moves it as it moves the raw
time, and a change of host speed moves the kernel with it.  The raw
figures are kept in the run's record.

There are two kernels, each shaped like the work it scales.  Warm library
calls are scaled by ``kernel``, small numpy calls in the same process: in
360 s trials of lib-numeric and lib-families it held the spread of the
p90 and ops/s of 30 s windows to 3-5 %, where the same calls after an
interpreter-bound loop left 5-7 %.  Cold CLI calls and cold imports,
which are mostly interpreter start-up, file reads and module execution,
are scaled by ``process_kernel``, a fresh interpreter that imports numpy:
in a 200 s trial it held the spread of 30 s windows of cli-cold figures
to 3-9 %, where the in-process kernel left 7-14 % and raw times 7-17 %.
A CLI call takes about a second, so it lies between two process-kernel
ticks and is scaled by those two alone (``PROCESS_SMOOTH``), which also
takes out slow spells shorter than the call: in a 600 s trial that cut
the spread of the p90 of 20-call windows from 0.10-0.11 of its median,
with three ticks on either side, to 0.06-0.09.

The scaling holds while a slowdown stretches all work alike.  It does not
when another process shares the benchmark's core: sub-millisecond ops are
seldom preempted while the 20 ms kernel is, so they read too fast.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

KERNEL_REF_S = 0.020            # reference times that define reference speed
PROCESS_KERNEL_REF_S = 0.180
TICK_EVERY_S = 0.25
SMOOTH = 3
PROCESS_SMOOTH = 1


def kernel() -> float:
    """Fixed work, about 20 ms: numpy calls on 201-point arrays, the
    grid size of weightlab's own numeric paths."""
    acc = 0.0
    t = np.linspace(1.0, 50.0, 201)
    for _ in range(1000):
        y = np.log1p(t) ** 1.5
        z = np.maximum.accumulate(np.exp(-y) * t)
        acc += float(np.interp(7.5, t, z)) + float(np.sum(y))
    return acc


def process_kernel() -> None:
    """Fixed work, about 180 ms: a fresh interpreter that imports numpy."""
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   capture_output=True, timeout=60.0)


class Clock:
    """Kernel times through one run; ``tick_if_due`` is called between
    timed samples and returns the index of the latest tick, which the
    sample keeps for ``scale``.  With ``fresh_process`` the clock times
    ``process_kernel``, else ``kernel``."""

    def __init__(self, fresh_process: bool = False):
        self._kernel = process_kernel if fresh_process else kernel
        self._ref_s = PROCESS_KERNEL_REF_S if fresh_process else KERNEL_REF_S
        self._smooth = PROCESS_SMOOTH if fresh_process else SMOOTH
        self.ticks: list[float] = []
        self._last = -math.inf

    def tick(self) -> int:
        t0 = perf_counter()
        self._kernel()
        t1 = perf_counter()
        self.ticks.append(t1 - t0)
        self._last = t1
        return len(self.ticks) - 1

    def tick_if_due(self) -> int:
        if perf_counter() - self._last >= TICK_EVERY_S:
            return self.tick()
        return len(self.ticks) - 1

    def scale(self, tick: int) -> float:
        """Factor that takes a sample timed after ``tick`` to reference speed."""
        near = self.ticks[max(0, tick - self._smooth + 1):tick + 1 + self._smooth]
        return self._ref_s / statistics.median(near)
