"""One metrics registry for the whole stack.

Counters, gauges and bucketed histograms live as *instruments* inside a
:class:`MetricsRegistry`.  Each component (daemon middleware, scheduling
service, cached backends) owns instruments in its own
registry; the daemon :meth:`~MetricsRegistry.attach`\\ es those child
registries to one root, so ``/metrics`` — JSON or Prometheus text — is a
single merged read with no component knowing about any other.

Instruments are keyed by ``(name, sorted(labels))``; getting an existing
key returns the same instrument, so call sites never pre-register.
Everything is picklable (the cached backends ship to process-pool
workers): locks are dropped and re-created, and attached child
registries are *not* carried along — the pickle is the owner's own
instruments only.

Design constraints: increments must stay cheap (one lock, one add), and
each component's legacy snapshot shape (``DaemonMetrics.snapshot()``,
``SchedulingService.stats()``, the backends' ``cache_info()``) must be
reconstructible bit-identically from its instruments.
"""

from __future__ import annotations

import threading
from bisect import bisect_left

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: dict) -> None:
        self.name = name
        self.labels = labels
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    def reset(self) -> None:
        """Zero the counter (cache-clear semantics of the legacy stores)."""
        with self._lock:
            self._value = 0

    @property
    def value(self):
        return self._value

    def __getstate__(self) -> dict:
        return {"name": self.name, "labels": self.labels, "value": self._value}

    def __setstate__(self, state: dict) -> None:
        self.name = state["name"]
        self.labels = state["labels"]
        self._value = state["value"]
        self._lock = threading.Lock()


class Gauge:
    """A value that goes up and down (set-only; no callback form).

    Callback gauges would capture their owner in a closure and break the
    picklability the process-pool backends rely on, so gauges here are
    plain set/add cells and "live" values are set at read time by the
    owner (e.g. the daemon sets ``inflight`` when building a payload).
    """

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: dict) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def add(self, amount: float) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self):
        return self._value

    def __getstate__(self) -> dict:
        return {"name": self.name, "labels": self.labels, "value": self._value}

    def __setstate__(self, state: dict) -> None:
        self.name = state["name"]
        self.labels = state["labels"]
        self._value = state["value"]
        self._lock = threading.Lock()


#: The latency buckets the daemon has always exposed (ms, roughly
#: log-spaced); the registry default.
DEFAULT_BUCKETS_MS = (
    0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000,
)


class Histogram:
    """A log-bucketed histogram (counts per upper-edge, plus sum/count).

    Cumulative ``buckets_le`` read shape over arbitrary bucket edges.
    """

    __slots__ = ("name", "labels", "buckets", "_counts", "_sum", "_count", "_lock")

    def __init__(self, name: str, labels: dict, buckets=DEFAULT_BUCKETS_MS) -> None:
        self.name = name
        self.labels = labels
        self.buckets = tuple(buckets)
        self._counts = [0] * (len(self.buckets) + 1)  # last = +Inf overflow
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def cumulative(self) -> dict:
        """Cumulative ``{edge: count_le_edge, "+Inf": total}`` mapping."""
        with self._lock:
            counts = list(self._counts)
            total = self._count
        out: dict = {}
        running = 0
        for edge, count in zip(self.buckets, counts):
            running += count
            out[edge] = running
        out["+Inf"] = total
        return out

    def __getstate__(self) -> dict:
        return {
            "name": self.name,
            "labels": self.labels,
            "buckets": self.buckets,
            "counts": list(self._counts),
            "sum": self._sum,
            "count": self._count,
        }

    def __setstate__(self, state: dict) -> None:
        self.name = state["name"]
        self.labels = state["labels"]
        self.buckets = state["buckets"]
        self._counts = state["counts"]
        self._sum = state["sum"]
        self._count = state["count"]
        self._lock = threading.Lock()


class MetricsRegistry:
    """Get-or-create home of instruments, mergeable into a root registry."""

    def __init__(self) -> None:
        self._instruments: dict = {}
        self._children: list[MetricsRegistry] = []
        self._lock = threading.Lock()

    # -------------------------------------------------------------- #
    # Instrument access (get-or-create)
    # -------------------------------------------------------------- #
    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, buckets=DEFAULT_BUCKETS_MS, **labels) -> Histogram:
        key = (name, _label_key(labels))
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = Histogram(name, labels, buckets)
                self._instruments[key] = instrument
            return instrument

    def _get(self, cls, name: str, labels: dict):
        key = (name, _label_key(labels))
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = cls(name, labels)
                self._instruments[key] = instrument
            return instrument

    # -------------------------------------------------------------- #
    # Composition and reads
    # -------------------------------------------------------------- #
    def attach(self, child: "MetricsRegistry") -> "MetricsRegistry":
        """Merge ``child``'s instruments into this registry's reads."""
        with self._lock:
            if child is not self and child not in self._children:
                self._children.append(child)
        return child

    def collect(self) -> list:
        """Every instrument, own then attached, in registration order."""
        with self._lock:
            instruments = list(self._instruments.values())
            children = list(self._children)
        for child in children:
            instruments.extend(child.collect())
        return instruments

    def family(self, name: str) -> list:
        """Every instrument of one metric name (across labels/children)."""
        return [inst for inst in self.collect() if inst.name == name]

    def to_prometheus(self) -> str:
        """Prometheus text exposition (version 0.0.4) of every instrument."""
        by_name: dict = {}
        for inst in self.collect():
            by_name.setdefault(inst.name, []).append(inst)
        lines = []
        for name in sorted(by_name):
            kind = by_name[name][0]
            if isinstance(kind, Histogram):
                lines.append(f"# TYPE {name} histogram")
            elif isinstance(kind, Gauge):
                lines.append(f"# TYPE {name} gauge")
            else:
                lines.append(f"# TYPE {name} counter")
            for inst in by_name[name]:
                if isinstance(inst, Histogram):
                    for edge, count in inst.cumulative().items():
                        le = "+Inf" if edge == "+Inf" else _format_value(edge)
                        labels = _prom_labels({**inst.labels, "le": le})
                        lines.append(f"{name}_bucket{labels} {count}")
                    labels = _prom_labels(inst.labels)
                    lines.append(f"{name}_sum{labels} {_format_value(inst.sum)}")
                    lines.append(f"{name}_count{labels} {inst.count}")
                else:
                    labels = _prom_labels(inst.labels)
                    lines.append(f"{name}{labels} {_format_value(inst.value)}")
        return "\n".join(lines) + "\n"

    def __getstate__(self) -> dict:
        # Child registries stay with their owners; a pickled registry
        # carries only the instruments it directly owns.
        with self._lock:
            return {"instruments": dict(self._instruments)}

    def __setstate__(self, state: dict) -> None:
        self._instruments = state["instruments"]
        self._children = []
        self._lock = threading.Lock()


def _prom_labels(labels: dict) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{key}="{_escape(str(value))}"' for key, value in sorted(labels.items())
    )
    return "{" + body + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value) -> str:
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return str(value)
