"""One metrics registry for the whole stack.

Counters, gauges and bucketed histograms live as *instruments* inside a
:class:`MetricsRegistry`.  Each component (daemon middleware, scheduling
service) owns instruments in its own registry; the daemon
:meth:`~MetricsRegistry.attach`\\ es those child registries to one root, so
``/metrics`` is a single merged read with no component knowing about any
other.  It has two forms, :meth:`~MetricsRegistry.to_json` and
:meth:`~MetricsRegistry.to_prometheus`, which group the same families the
same way.

Instruments are keyed by ``(name, sorted(labels))``; getting an existing
key returns the same instrument, so call sites never pre-register.
Increments must stay cheap: one lock, one add.
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

    @property
    def value(self):
        return self._value


class Gauge:
    """A value that goes up and down (set/add cells; no callback form).

    "Live" values are set at read time by their owner: the daemon sets
    ``daemon_inflight`` and ``daemon_uptime_seconds`` before each
    ``/metrics`` read.
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

    def _families(self) -> list[tuple[str, list]]:
        """``(name, instruments)`` per metric name, names sorted."""
        by_name: dict = {}
        for inst in self.collect():
            by_name.setdefault(inst.name, []).append(inst)
        return sorted(by_name.items())

    def to_json(self) -> dict:
        """``{name: [sample, ...]}`` of every instrument, JSON-ready.

        A counter or gauge sample is ``{"labels", "value"}``; a histogram
        sample is ``{"labels", "buckets", "sum", "count"}`` with cumulative
        ``buckets`` keyed by their Prometheus ``le`` label.
        """
        return {
            name: [_json_sample(inst) for inst in instruments]
            for name, instruments in self._families()
        }

    def to_prometheus(self) -> str:
        """Prometheus text exposition (version 0.0.4) of every instrument."""
        lines = []
        for name, instruments in self._families():
            kind = instruments[0]
            if isinstance(kind, Histogram):
                lines.append(f"# TYPE {name} histogram")
            elif isinstance(kind, Gauge):
                lines.append(f"# TYPE {name} gauge")
            else:
                lines.append(f"# TYPE {name} counter")
            for inst in instruments:
                if isinstance(inst, Histogram):
                    for edge, count in inst.cumulative().items():
                        labels = _prom_labels({**inst.labels, "le": _le(edge)})
                        lines.append(f"{name}_bucket{labels} {count}")
                    labels = _prom_labels(inst.labels)
                    lines.append(f"{name}_sum{labels} {_format_value(inst.sum)}")
                    lines.append(f"{name}_count{labels} {inst.count}")
                else:
                    labels = _prom_labels(inst.labels)
                    lines.append(f"{name}{labels} {_format_value(inst.value)}")
        return "\n".join(lines) + "\n"


def _json_sample(inst) -> dict:
    sample = {"labels": dict(inst.labels)}
    if isinstance(inst, Histogram):
        cumulative = inst.cumulative()
        sample["buckets"] = {_le(edge): count for edge, count in cumulative.items()}
        sample["sum"] = inst.sum
        sample["count"] = cumulative["+Inf"]
    else:
        sample["value"] = inst.value
    return sample


def _prom_labels(labels: dict) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{key}="{_escape(str(value))}"' for key, value in sorted(labels.items())
    )
    return "{" + body + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _le(edge) -> str:
    """A bucket edge as its ``le`` label (``"+Inf"`` for the overflow bucket)."""
    return "+Inf" if edge == "+Inf" else _format_value(edge)


def _format_value(value) -> str:
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return str(value)
