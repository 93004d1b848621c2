"""Process-wide metrics registry with Prometheus text exposition.

One :class:`MetricsRegistry` instance (the module-level default,
:func:`get_registry`) carries every cross-layer series the system
emits — kernel dispatch, cubeMasking pruning, runner/parallel
resilience events, storage I/O — so a single scrape of ``/metrics``
(or :meth:`MetricsRegistry.render` anywhere) sees the whole pipeline.
Its families are declared once, in :mod:`repro.obs.catalogue`.
The :class:`~repro.service.metrics.ServiceMetrics` request collector
is built on the same primitives with a private registry.

Three primitives, all stdlib and thread-safe:

* :class:`Counter` — monotonically increasing float, optional labels,
* :class:`Gauge` — settable value, optional labels, optionally backed
  by a callable sampled at render time (uptime, queue depths...),
* :class:`Histogram` — cumulative fixed buckets in the standard
  Prometheus layout (every observation lands in all buckets with
  ``le`` >= its value, plus ``+Inf``), with ``_sum``/``_count``.

Metric creation is *get-or-create*: asking twice for the same name
returns the same object (and raises :class:`ValueError` on a
kind/labelnames mismatch), so instrumentation sites never need import
ordering.  Label values are escaped per the exposition format
(``\\`` → ``\\\\``, ``"`` → ``\\"``, newline → ``\\n``) — the fix for
the unescaped interpolation the old request collector shipped with.
"""

from __future__ import annotations

import threading
from bisect import bisect_left

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "escape_label_value",
    "format_value",
    "get_registry",
]

#: Default histogram buckets (seconds) — latency-shaped.
DEFAULT_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)

_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n"}


def escape_label_value(value) -> str:
    """Escape a label value for the text exposition format."""
    text = str(value)
    if '"' in text or "\\" in text or "\n" in text:
        text = "".join(_ESCAPES.get(ch, ch) for ch in text)
    return text


def format_value(value: float) -> str:
    """Render a sample value the way Prometheus clients do."""
    if isinstance(value, float):
        if value != value:  # NaN
            return "NaN"
        if value in (float("inf"), float("-inf")):
            return "+Inf" if value > 0 else "-Inf"
        if value.is_integer():
            return str(int(value))
        return repr(value)
    return str(value)


def _label_pairs(labelnames: tuple[str, ...], labels: dict) -> tuple:
    if set(labels) != set(labelnames):
        raise ValueError(
            f"labels {sorted(labels)} do not match declared labelnames {sorted(labelnames)}"
        )
    return tuple(str(labels[name]) for name in labelnames)


def _render_labels(labelnames: tuple[str, ...], values: tuple, extra: str = "") -> str:
    parts = [
        f'{name}="{escape_label_value(value)}"'
        for name, value in zip(labelnames, values)
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class _Metric:
    """Shared bookkeeping: name, help text, declared labels, a lock."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str, labelnames: tuple[str, ...] = ()):
        self.name = name
        self.help = help_text
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()

    def _header(self) -> list[str]:
        return [f"# HELP {self.name} {self.help}", f"# TYPE {self.name} {self.kind}"]


class Counter(_Metric):
    """A monotonically increasing value (per label set)."""

    kind = "counter"

    def __init__(self, name: str, help_text: str, labelnames: tuple[str, ...] = ()):
        super().__init__(name, help_text, labelnames)
        self._values: dict[tuple, float] = {}

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        key = _label_pairs(self.labelnames, labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        key = _label_pairs(self.labelnames, labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def total(self) -> float:
        with self._lock:
            return sum(self._values.values())

    def items(self) -> list[tuple[dict, float]]:
        """``(labels, value)`` pairs for every live series."""
        with self._lock:
            return [
                (dict(zip(self.labelnames, key)), value)
                for key, value in sorted(self._values.items())
            ]

    def render(self) -> list[str]:
        lines = self._header()
        with self._lock:
            if not self._values and not self.labelnames:
                lines.append(f"{self.name} 0")
            for key in sorted(self._values):
                lines.append(
                    f"{self.name}{_render_labels(self.labelnames, key)} "
                    f"{format_value(self._values[key])}"
                )
        return lines

    def snapshot(self) -> dict:
        with self._lock:
            if not self.labelnames:
                return {"value": self._values.get((), 0.0)}
            return {
                "series": {
                    ",".join(f"{n}={v}" for n, v in zip(self.labelnames, key)): value
                    for key, value in sorted(self._values.items())
                }
            }


class Gauge(Counter):
    """A value that can go up, down, or be computed at render time."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str, labelnames: tuple[str, ...] = ()):
        super().__init__(name, help_text, labelnames)
        self._function = None

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = _label_pairs(self.labelnames, labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels) -> None:
        self.inc(-amount, **labels)

    def set(self, value: float, **labels) -> None:
        key = _label_pairs(self.labelnames, labels)
        with self._lock:
            self._values[key] = float(value)

    def set_function(self, function) -> None:
        """Sample ``function()`` at every render (unlabelled gauges only)."""
        if self.labelnames:
            raise ValueError(f"gauge {self.name}: set_function needs an unlabelled gauge")
        self._function = function

    def value(self, **labels) -> float:
        if self._function is not None and not labels:
            return float(self._function())
        return super().value(**labels)

    def render(self) -> list[str]:
        if self._function is not None:
            return self._header() + [f"{self.name} {format_value(float(self._function()))}"]
        return super().render()

    def snapshot(self) -> dict:
        if self._function is not None:
            return {"value": float(self._function())}
        return super().snapshot()


class Histogram(_Metric):
    """Cumulative fixed-bucket histogram with ``_sum`` and ``_count``."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        labelnames: tuple[str, ...] = (),
    ):
        super().__init__(name, help_text, labelnames)
        self.buckets = tuple(sorted(buckets))
        # key -> ([per-bucket counts..., +Inf count], sum, count)
        self._series: dict[tuple, list] = {}

    def observe(self, value: float, **labels) -> None:
        key = _label_pairs(self.labelnames, labels)
        with self._lock:
            state = self._series.get(key)
            if state is None:
                state = self._series[key] = [[0] * (len(self.buckets) + 1), 0.0, 0]
            state[0][bisect_left(self.buckets, value)] += 1
            state[1] += value
            state[2] += 1

    def count(self, **labels) -> int:
        key = _label_pairs(self.labelnames, labels)
        with self._lock:
            state = self._series.get(key)
            return state[2] if state is not None else 0

    def render(self) -> list[str]:
        lines = self._header()
        with self._lock:
            for key in sorted(self._series):
                counts, total, observations = self._series[key]
                cumulative = 0
                for bound, bucket_count in zip(self.buckets, counts):
                    cumulative += bucket_count
                    labels = _render_labels(
                        self.labelnames, key, f'le="{format_value(float(bound))}"'
                    )
                    lines.append(f"{self.name}_bucket{labels} {cumulative}")
                cumulative += counts[-1]
                labels = _render_labels(self.labelnames, key, 'le="+Inf"')
                lines.append(f"{self.name}_bucket{labels} {cumulative}")
                plain = _render_labels(self.labelnames, key)
                lines.append(f"{self.name}_sum{plain} {format_value(float(total))}")
                lines.append(f"{self.name}_count{plain} {observations}")
        return lines

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "series": {
                    ",".join(f"{n}={v}" for n, v in zip(self.labelnames, key)) or "_": {
                        "count": state[2],
                        "sum": state[1],
                    }
                    for key, state in sorted(self._series.items())
                }
            }


class MetricsRegistry:
    """A named collection of metrics with one exposition writer.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the
    first call registers, later calls return the same object so any
    module can name a metric without coordinating imports.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    # -- registration --------------------------------------------------
    def _get_or_create(self, cls, name: str, help_text: str, **kwargs) -> _Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls:
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                declared = kwargs.get("labelnames", ())
                if tuple(declared) != existing.labelnames:
                    raise ValueError(
                        f"metric {name!r} already registered with labels "
                        f"{existing.labelnames}, requested {tuple(declared)}"
                    )
                return existing
            metric = cls(name, help_text, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help_text: str = "", labelnames=()) -> Counter:
        return self._get_or_create(Counter, name, help_text, labelnames=tuple(labelnames))

    def gauge(self, name: str, help_text: str = "", labelnames=()) -> Gauge:
        return self._get_or_create(Gauge, name, help_text, labelnames=tuple(labelnames))

    def histogram(
        self, name: str, help_text: str = "", buckets=DEFAULT_BUCKETS, labelnames=()
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help_text, buckets=tuple(buckets), labelnames=tuple(labelnames)
        )

    def get(self, name: str) -> _Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    # -- output --------------------------------------------------------
    def render(self) -> str:
        """The full registry in Prometheus text exposition format."""
        with self._lock:
            metrics = [self._metrics[name] for name in sorted(self._metrics)]
        lines: list[str] = []
        for metric in metrics:
            lines.extend(metric.render())
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> dict:
        """A JSON-friendly dump (the ``/debug/vars`` payload)."""
        with self._lock:
            metrics = dict(self._metrics)
        return {
            name: {"kind": metric.kind, "help": metric.help, **metric.snapshot()}
            for name, metric in sorted(metrics.items())
        }

    def reset(self) -> None:
        """Drop every registered metric (test isolation only)."""
        with self._lock:
            self._metrics.clear()


# ----------------------------------------------------------------------
# The process-wide default registry.
# ----------------------------------------------------------------------
_DEFAULT = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry shared by every instrumented layer."""
    return _DEFAULT
