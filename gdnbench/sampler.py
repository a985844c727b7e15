"""A SIGPROF stack sampler that charges host CPU time to layers.

Every ``interval`` seconds of *process CPU time* the kernel delivers
SIGPROF; the handler walks the interrupted Python stack and credits

* **self** time to the layer of the innermost frame, and
* **inclusive** time to every layer that has a frame on the stack
  (once per sample, however many frames it has there; the harness
  frames outside the simulator's run loop are not counted).

Self shares therefore sum to one; inclusive shares overlap and do not.
Nothing in the program is instrumented, and the sampler is only ever
armed for the one traced drive: the end-to-end numbers come from
untraced drives, and the difference between the two is reported as
``trace.overhead_ratio``.
"""

from __future__ import annotations

import signal
from typing import Dict, Optional

from . import calibration
from .layers import LAYERS, layer_of_file

#: 2 ms of CPU between samples.  The kernel rounds the period up to
#: its own tick (4 ms at CONFIG_HZ=250), so a 3 s drive yields 750 to
#: 1500 samples.
INTERVAL = 0.002

#: The layer whose run loop is the base of every stack worth sampling.
RUN_LOOP = "sim.kernel"


class StackSampler:
    """Arm with :meth:`start`, disarm with :meth:`stop`, read shares."""

    def __init__(self, interval: float = INTERVAL):
        self.interval = interval
        self.samples = 0
        self.self_samples: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.inclusive_samples: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        #: file name -> layer; None marks the reference loop.
        self._layer_of: Dict[str, Optional[str]] = {
            calibration.__file__: None}
        self._previous = None

    def _on_sample(self, _signum, frame) -> None:
        layer_of = self._layer_of
        stack = []  # innermost frame first
        while frame is not None:
            filename = frame.f_code.co_filename
            if filename not in layer_of:
                layer_of[filename] = layer_of_file(filename)
            stack.append(layer_of[filename])
            frame = frame.f_back
        if None in stack:
            return  # inside a reference pass: not the drive's time
        # Everything outside the simulator's run loop is the harness
        # (runpy, this package's drive, ``World.run_until``): on every
        # stack, so counting it would pin ``other`` and ``sim.transport``
        # at 100 % inclusive.  The run loop itself stays as the base.
        while len(stack) > 1 and stack[-1] != RUN_LOOP:
            stack.pop()
        self.samples += 1
        self.self_samples[stack[0]] += 1
        for layer in set(stack):
            self.inclusive_samples[layer] += 1

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._on_sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def shares(self) -> Dict[str, Dict[str, float]]:
        """``{"self": {layer: share}, "inclusive": {layer: share}}``."""
        total = max(1, self.samples)
        return {
            "self": {layer: count / total
                     for layer, count in self.self_samples.items()},
            "inclusive": {layer: count / total
                          for layer, count in self.inclusive_samples.items()},
        }
