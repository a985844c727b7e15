"""Unified telemetry: one registry of instruments, phase-scoped windows.

The paper's scalability claims rest on *measurements* — per-layer
request counts, lookup latency, traffic broken down by tree level.
Before this module every producer counted its own way (ad-hoc ints on
servers, sample lists in workloads, a byte-ledger in the network); a
question like "what was p95 latency *during* the partition, versus
after it healed?" required re-plumbing whichever counters happened to
be involved.  Now all of it goes through one :class:`MetricsRegistry`:

* **Instruments** — :class:`Counter` (monotone totals), :class:`Gauge`
  (point-in-time readings) and :class:`Histogram` (streaming
  log-bucketed distributions).  Counters and gauges can be *function
  backed*: a hot producer keeps its plain ``int`` field and registers
  ``fn=lambda: self._events`` — the registry reads it only when a
  snapshot is taken, so instrumentation costs the hot path nothing.
* **Histograms** are DDSketch-style: a value is recorded by bumping
  one bucket whose geometric bounds guarantee a bounded *relative*
  error on every quantile (default 1%).  Recording is O(1), memory is
  O(log(max/min)), histograms merge and subtract exactly — which is
  what makes phase windows work — and ``count``/``mean``/``sum`` stay
  exact.  This replaces sorting the full sample list per percentile
  call (O(n log n) each, unbounded memory) in every load run.
* **Phase windows** — ``registry.window("during-fault")`` snapshots
  every instrument; closing it yields per-instrument *deltas* (counter
  differences, histogram bucket differences, final gauge readings).
  ``registry.phase(label)`` chains consecutive non-overlapping windows
  so a soak can report throughput/latency/error-rate for warmup, fault
  and recovery separately; consecutive phase deltas sum exactly to the
  run totals.

The module is dependency-free (stdlib only) so every layer — the
simulation kernel included — can be bound to a registry without
import cycles.

Conventions: instrument names are dotted paths (``kernel.events``,
``net.bytes.WORLD``, ``load.latency``); producers expose a
``bind_metrics(registry, prefix=...)`` method registering their
instruments, and :class:`~repro.sim.world.World` owns the registry
(``world.metrics``) that a deployment's components bind to.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Instrument",
    "MetricsRegistry",
    "PhaseWindow",
    "TelemetryError",
]


class TelemetryError(Exception):
    """Raised for misuse of the telemetry registry."""


class Instrument:
    """Base class: a named, snapshottable measurement source."""

    kind = "instrument"

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    # Snapshots are opaque per-kind states consumed by PhaseWindow.
    def _state(self) -> Any:
        raise NotImplementedError

    def _zero_state(self) -> Any:
        raise NotImplementedError

    def _delta(self, start: Any, end: Any) -> Any:
        raise NotImplementedError

    def __repr__(self) -> str:
        return "%s(%r)" % (type(self).__name__, self.name)


class Counter(Instrument):
    """A monotonically increasing total.

    Either push-style (``counter.inc()``) or function-backed
    (``fn=lambda: producer.plain_int``) for hot paths that must not
    pay an attribute+method call per event.  A window delta is the
    difference between the end and start readings.
    """

    kind = "counter"

    __slots__ = ("_value", "_fn")

    def __init__(self, name: str, fn: Optional[Callable[[], float]] = None):
        super().__init__(name)
        self._value = 0
        self._fn = fn

    @property
    def value(self) -> float:
        return self._fn() if self._fn is not None else self._value

    def inc(self, amount: float = 1) -> None:
        if self._fn is not None:
            raise TelemetryError(
                "%r is function-backed; increment the source" % self.name)
        self._value += amount

    def _state(self) -> float:
        return self.value

    def _zero_state(self) -> float:
        return 0

    def _delta(self, start: float, end: float) -> float:
        return end - start


class Gauge(Instrument):
    """A point-in-time reading (queue depth, heap size, replica count).

    Push-style (``gauge.set(v)``) or function-backed.  A window
    "delta" is the reading at window close — gauges are not rates.
    """

    kind = "gauge"

    __slots__ = ("_value", "_fn")

    def __init__(self, name: str, fn: Optional[Callable[[], float]] = None):
        super().__init__(name)
        self._value = 0
        self._fn = fn

    @property
    def value(self) -> float:
        return self._fn() if self._fn is not None else self._value

    def set(self, value: float) -> None:
        if self._fn is not None:
            raise TelemetryError(
                "%r is function-backed; set the source" % self.name)
        self._value = value

    def _state(self) -> float:
        return self.value

    def _zero_state(self) -> float:
        return 0

    def _delta(self, start: float, end: float) -> float:
        return end


class Histogram(Instrument):
    """A streaming log-bucketed histogram with bounded-error quantiles.

    Values are assigned to geometric buckets ``(gamma**(i-1),
    gamma**i]`` with ``gamma`` chosen so any quantile read off the
    bucket midpoints is within ``max_error`` *relative* error of the
    true sample quantile (DDSketch's guarantee).  Recording is a log
    and a dict bump — O(1), no sample list — while ``count``, ``sum``,
    ``mean``, ``min`` and ``max`` stay exact.  Two histograms with the
    same accuracy merge (and subtract, for phase windows) bucket-wise.

    Non-positive values land in a dedicated zero bucket (a latency of
    exactly 0.0 is representable; negatives are clamped but tracked by
    ``minimum``).
    """

    kind = "histogram"

    __slots__ = ("max_error", "_gamma", "_log_gamma", "_rep_factor",
                 "_buckets", "_zero_count", "count", "sum", "_min", "_max")

    def __init__(self, name: str = "", max_error: float = 0.01):
        super().__init__(name)
        if not 0.0 < max_error < 1.0:
            raise TelemetryError("max_error must be in (0, 1)")
        self.max_error = max_error
        self._gamma = (1.0 + max_error) / (1.0 - max_error)
        self._log_gamma = math.log(self._gamma)
        # Bucket representative = gamma**i / sqrt(gamma), the geometric
        # midpoint of (gamma**(i-1), gamma**i]: at most max_error off
        # any value in the bucket.
        self._rep_factor = 1.0 / math.sqrt(self._gamma)
        self._buckets: Dict[int, int] = {}
        self._zero_count = 0
        self.count = 0
        self.sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    # -- recording -----------------------------------------------------

    def record(self, value: float) -> None:
        """O(1): bump the bucket covering ``value``."""
        self.count += 1
        self.sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if value <= 0.0:
            self._zero_count += 1
            return
        index = math.ceil(math.log(value) / self._log_gamma)
        self._buckets[index] = self._buckets.get(index, 0) + 1

    #: Series-compatible alias so histograms drop into old call sites.
    add = record

    def extend(self, values) -> None:
        for value in values:
            self.record(value)

    # -- exact summary statistics --------------------------------------

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    @property
    def minimum(self) -> float:
        return self._min if self.count else 0.0

    @property
    def maximum(self) -> float:
        return self._max if self.count else 0.0

    # -- quantiles ------------------------------------------------------

    def p(self, q: float) -> float:
        """The q-th percentile (0..100), within ``max_error`` relative
        error of the true sample percentile.  0.0 when empty."""
        if not 0 <= q <= 100:
            raise ValueError("percentile out of range")
        if self.count == 0:
            return 0.0
        if q == 0:
            return self.minimum    # tracked exactly
        if q == 100:
            return self.maximum    # tracked exactly
        need = max(1, math.ceil((q / 100.0) * self.count - 1e-9))
        cumulative = self._zero_count
        if cumulative >= need:
            value = 0.0
        else:
            value = self._max
            for index in sorted(self._buckets):
                cumulative += self._buckets[index]
                if cumulative >= need:
                    value = (self._gamma ** index) * self._rep_factor
                    break
        # Clamp: the extreme buckets cannot out-range the exact extremes.
        return min(max(value, self.minimum), self.maximum)

    def summary(self) -> Dict[str, float]:
        """Flat summary; all-zero (never raising) when empty."""
        return {"count": self.count, "mean": self.mean,
                "p50": self.p(50), "p95": self.p(95),
                "max": self.maximum}

    # -- merge / delta --------------------------------------------------

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other`` into this histogram (same accuracy required)."""
        if abs(other.max_error - self.max_error) > 1e-12:
            raise TelemetryError("cannot merge histograms with "
                                 "different accuracies")
        for index, bump in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + bump
        self._zero_count += other._zero_count
        self.count += other.count
        self.sum += other.sum
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        return self

    def state(self) -> Tuple:
        """Canonical, comparable state — the determinism fingerprint
        (same recorded multiset of values ⇒ equal state)."""
        return (self.count, self.sum, self._min, self._max,
                self._zero_count, tuple(sorted(self._buckets.items())))

    def _state(self) -> Tuple:
        return self.state()

    def _zero_state(self) -> Tuple:
        return (0, 0.0, math.inf, -math.inf, 0, ())

    def _delta(self, start: Tuple, end: Tuple) -> "Histogram":
        """The histogram of values recorded between two snapshots.

        Exact for counts/sum/buckets (recording only adds).  The
        window's min/max are not recoverable exactly — they are
        approximated from the populated delta buckets, which is within
        the same ``max_error`` bound.
        """
        delta = Histogram(self.name, self.max_error)
        start_buckets = dict(start[5])
        for index, total in end[5]:
            bump = total - start_buckets.get(index, 0)
            if bump:
                delta._buckets[index] = bump
        delta._zero_count = end[4] - start[4]
        delta.count = end[0] - start[0]
        delta.sum = end[1] - start[1]
        if delta.count:
            if delta._zero_count:
                delta._min = min(0.0, end[2])
            elif delta._buckets:
                low = min(delta._buckets)
                delta._min = (self._gamma ** low) * self._rep_factor
            if delta._buckets:
                high = max(delta._buckets)
                delta._max = (self._gamma ** high) * self._rep_factor
            else:
                delta._max = 0.0
        return delta


class PhaseWindow:
    """Deltas of every registry instrument between two instants.

    Opened with a snapshot of all instruments; :meth:`close` takes the
    end snapshot.  :meth:`delta` then answers "how much happened in
    this window": counter differences, the histogram of values
    recorded inside the window, or the gauge reading at close.
    Instruments created mid-window count from zero.
    """

    def __init__(self, registry: "MetricsRegistry", label: str,
                 now: Optional[float] = None):
        self.registry = registry
        self.label = label
        self.started_at = now
        self.ended_at: Optional[float] = None
        self._start = registry._snapshot_states()
        self._end: Optional[Dict[str, Any]] = None

    @property
    def closed(self) -> bool:
        return self._end is not None

    def close(self, now: Optional[float] = None) -> "PhaseWindow":
        if self._end is None:
            self.ended_at = now
            self._end = self.registry._snapshot_states()
        return self

    @property
    def duration(self) -> Optional[float]:
        """Seconds covered, when the caller supplied timestamps."""
        if self.started_at is None or self.ended_at is None:
            return None
        return self.ended_at - self.started_at

    def delta(self, name: str) -> Any:
        instrument = self.registry.get(name)
        end_states = (self._end if self._end is not None
                      else self.registry._snapshot_states())
        start = self._start.get(name, instrument._zero_state())
        end = end_states.get(name, instrument._zero_state())
        return instrument._delta(start, end)

    def summary(self) -> Dict[str, Any]:
        """Per-instrument deltas (histograms as their summary dicts)."""
        out: Dict[str, Any] = {}
        for name in self.registry.names():
            value = self.delta(name)
            out[name] = (value.summary() if isinstance(value, Histogram)
                         else value)
        return out

    def __repr__(self) -> str:
        span = ("%.3f..%s" % (self.started_at,
                              "open" if self.ended_at is None
                              else "%.3f" % self.ended_at)
                if self.started_at is not None else "untimed")
        return "PhaseWindow(%r, %s)" % (self.label, span)


class MetricsRegistry:
    """All instruments of one simulated world, plus its phase timeline.

    ``counter``/``gauge``/``histogram`` get-or-create by name (a name
    permanently keeps its first kind).  Phase windows come in two
    forms: free-standing :meth:`window` (may overlap anything) and the
    exclusive :meth:`phase` chain, where opening a phase closes the
    previous one — consecutive phases tile the run, so their deltas
    sum to the totals.
    """

    def __init__(self):
        self._instruments: Dict[str, Instrument] = {}
        self._prefixes: Dict[str, int] = {}
        #: Closed phase windows, in order.
        self.phases: List[PhaseWindow] = []
        self.current_phase: Optional[PhaseWindow] = None

    # -- instrument registration ---------------------------------------

    def _register(self, name: str, kind: type, **kwargs) -> Instrument:
        existing = self._instruments.get(name)
        if existing is not None:
            if type(existing) is not kind or kwargs.get("fn") is not None:
                raise TelemetryError(
                    "instrument %r already registered as %s"
                    % (name, existing.kind))
            return existing
        instrument = kind(name, **kwargs)
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str,
                fn: Optional[Callable[[], float]] = None) -> Counter:
        return self._register(name, Counter, fn=fn)

    def gauge(self, name: str,
              fn: Optional[Callable[[], float]] = None) -> Gauge:
        return self._register(name, Gauge, fn=fn)

    def histogram(self, name: str, max_error: float = 0.01) -> Histogram:
        return self._register(name, Histogram, max_error=max_error)

    def get(self, name: str) -> Instrument:
        try:
            return self._instruments[name]
        except KeyError:
            raise TelemetryError("no instrument named %r" % name) from None

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def names(self) -> List[str]:
        return list(self._instruments)

    def __iter__(self) -> Iterator[Instrument]:
        return iter(self._instruments.values())

    def unique_prefix(self, base: str) -> str:
        """A prefix no other caller was handed (``load``, ``load#2``,
        ...) so several stats bundles can share one registry."""
        serial = self._prefixes.get(base, 0) + 1
        self._prefixes[base] = serial
        return base if serial == 1 else "%s#%d" % (base, serial)

    # -- snapshots ------------------------------------------------------

    def _snapshot_states(self) -> Dict[str, Any]:
        return {name: instrument._state()
                for name, instrument in self._instruments.items()}

    def snapshot(self) -> Dict[str, Any]:
        """Current values (histograms as summary dicts) — the flat
        record shape benchmarks persist."""
        out: Dict[str, Any] = {}
        for name, instrument in self._instruments.items():
            out[name] = (instrument.summary()
                         if isinstance(instrument, Histogram)
                         else instrument.value)
        return out

    # -- windows and phases ---------------------------------------------

    def window(self, label: str, now: Optional[float] = None) -> PhaseWindow:
        """A free-standing delta window (caller closes it)."""
        return PhaseWindow(self, label, now)

    def phase(self, label: str, now: Optional[float] = None) -> PhaseWindow:
        """Close the current phase (if any) and open the next one."""
        self.end_phase(now)
        self.current_phase = PhaseWindow(self, label, now)
        return self.current_phase

    def end_phase(self, now: Optional[float] = None) -> Optional[PhaseWindow]:
        """Close the open phase, appending it to :attr:`phases`."""
        closed = self.current_phase
        if closed is not None:
            closed.close(now)
            self.phases.append(closed)
            self.current_phase = None
        return closed
