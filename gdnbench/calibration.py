"""Host times are calibrated against a reference loop.

The sandbox this benchmark runs on shares its cores, and what the
neighbours cost comes in bursts of milliseconds that thicken and thin
over minutes: the same drive takes 3.0 CPU seconds in a quiet spell
and 4.5 in a busy one, and a busy spell outlasts a whole run.  No
statistic over the drives of one run — minimum, median — removes a
slowdown they all share.

So every timed region is interleaved with a fixed piece of work that
has nothing to do with the program (:func:`reference_loop`), each pass
timed on the same CPU clock.  Whatever slows the region slows the
passes next to it, and the region's time is scaled by
``REFERENCE_S / mean(pass time)``.  A *calibrated* second is therefore
the work a box does in one second when a pass takes exactly
:data:`REFERENCE_S` on it — on the quiet sandbox, a second.  Measured
on the seed commit over the same 30 drives of ``long_tail``, the
quartiles of a single drive's time lie 14.5 % apart raw and 3.1 %
calibrated.

The loop is pure-Python standard-library code with a wide footprint
(``difflib``, ``pprint``, ``textwrap`` over small fixed inputs).  A
tight arithmetic loop was tried first and tracks the simulator only
half as well: the neighbours hurt code that misses its caches more
than code that lives in them.  The loop is not part of ``src/``, so no
change to the program can move it; the cyclic collector is off during
a pass, so the size of the program's heap cannot reach it either; and
a pass's own time is never counted as the region's.
"""

from __future__ import annotations

import difflib
import gc
import pprint
import signal
import textwrap
import time
from typing import List

#: The clock of every host time in this package: CPU seconds of the
#: interpreter's one thread.  Not ``time.process_time``: while a
#: profiling timer is armed (the traced drive's sampler) Linux answers
#: the process clock in whole scheduler ticks, 4 ms at a time, and a
#: reference pass is 3 ms.
cpu_clock = time.thread_time

#: What one pass of the reference loop takes between the slices of a
#: drive on the quiet 2-core sandbox, in CPU seconds: the unit that
#: calibrated times are expressed in.
REFERENCE_S = 0.0027

_TEXT_A = ["line %d of the reference text, %s" % (n, "ab" * (n % 7))
           for n in range(60)]
_TEXT_B = [line for n, line in enumerate(_TEXT_A) if n % 5] + ["tail"]
_NESTED = {"k%d" % n: [n, str(n), (n, n + 1), {"x": n % 3}]
           for n in range(120)}


def reference_loop() -> None:
    """One pass of the reference work (about :data:`REFERENCE_S`)."""
    difflib.SequenceMatcher(None, _TEXT_A, _TEXT_B).ratio()
    pprint.pformat(_NESTED, width=60)
    textwrap.wrap(" ".join(_TEXT_A), width=50)


class Calibrator:
    """Timed passes of the reference loop around and inside a region."""

    def __init__(self):
        self.passes: List[float] = []

    def sample(self, passes: int = 1) -> None:
        # Neither the cyclic collector nor the stack sampler of a
        # traced drive may run inside a pass: both would charge it
        # with work that is the program's.
        gc.disable()
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGPROF})
        try:
            for _ in range(passes):
                started = cpu_clock()
                reference_loop()
                self.passes.append(cpu_clock() - started)
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGPROF})
            gc.enable()

    @property
    def spent(self) -> float:
        """CPU seconds the passes took: not the region's."""
        return sum(self.passes)

    def factor(self) -> float:
        """Multiply a raw CPU time measured next to the passes by this."""
        return REFERENCE_S * len(self.passes) / self.spent
