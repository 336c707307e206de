"""Unified runtime telemetry: the process-wide metrics registry.

TelegraphCQ's premise is that adaptive policies act only on *observed
online* evidence (Section 1.1) — eddies, QoS shedding, and Flux
balancing all consume runtime statistics.  Historically each subsystem
here kept private counters with inconsistent names; this module is the
single substrate they all publish through, so one snapshot shows the
whole engine at once.

Three metric kinds, each a *family* of labeled series:

* :class:`Counter` — monotonically increasing totals
  (``tcq_eddy_tuples_routed_total``);
* :class:`Gauge` — point-in-time levels (``tcq_fjords_queue_depth``);
* :class:`Histogram` — bucketed distributions
  (``tcq_executor_du_busy_ratio``).

Two publication styles, chosen per call site by cost:

* **direct** — low-frequency events increment a series handle inline
  (QoS drops, Flux moves, spill writes);
* **collected** — hot paths keep their existing cheap integer counters,
  and register a *collector* callback (held by weak reference) that
  copies them into the registry only when a snapshot is taken.  The
  per-tuple path pays nothing; dead components silently disappear
  because collected families are rebuilt on every snapshot.

Naming convention: ``tcq_<subsystem>_<what>[_total]`` where subsystem is
one of ``eddy``, ``stem``, ``executor``, ``fjords``, ``qos``, ``flux``,
``storage``, ``ingress``, ``egress``, ``cacq``, ``server``,
``telemetry``.

Snapshots (:class:`TelemetrySnapshot`) are typed, order-stable, and
round-trip through both exporters: :meth:`TelemetrySnapshot.to_json` /
:meth:`TelemetrySnapshot.from_json` and
:meth:`TelemetrySnapshot.to_prometheus` /
:meth:`TelemetrySnapshot.from_prometheus`.
"""

from __future__ import annotations

import json
import re
import weakref
from typing import (Any, Callable, Dict, List, Optional,
                    Sequence, Tuple as TypingTuple)

from repro.errors import TelemetryError


#: Default histogram bucket upper bounds (seconds-ish scale); +Inf is
#: implicit.
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0)


class _Series:
    """One labeled time series inside a family."""

    __slots__ = ("labels", "_reg")

    kind = "untyped"

    def __init__(self, labels: Dict[str, str], reg: "MetricRegistry"):
        self.labels = labels
        self._reg = reg


class Counter(_Series):
    """A monotonically increasing total."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self, labels: Dict[str, str], reg: "MetricRegistry"):
        super().__init__(labels, reg)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if not self._reg.enabled:
            return
        if amount < 0:
            raise TelemetryError("counters only go up; use a Gauge")
        self.value += amount

    def set_total(self, value: float) -> None:
        """Collector entry point: publish an absolute running total."""
        if self._reg.enabled:
            self.value = float(value)


class Gauge(_Series):
    """A level that can go up and down."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self, labels: Dict[str, str], reg: "MetricRegistry"):
        super().__init__(labels, reg)
        self.value = 0.0

    def set(self, value: float) -> None:
        if self._reg.enabled:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if self._reg.enabled:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        if self._reg.enabled:
            self.value -= amount


class Histogram(_Series):
    """Cumulative-bucket histogram (Prometheus semantics)."""

    __slots__ = ("bounds", "bucket_counts", "sum", "count")
    kind = "histogram"

    def __init__(self, labels: Dict[str, str], reg: "MetricRegistry",
                 bounds: Sequence[float] = DEFAULT_BUCKETS):
        super().__init__(labels, reg)
        self.bounds = tuple(bounds)
        self.bucket_counts = [0] * (len(self.bounds) + 1)  # last = +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        if not self._reg.enabled:
            return
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    def cumulative_buckets(self) -> List[TypingTuple[float, int]]:
        """``(le, cumulative_count)`` pairs ending with ``+Inf``."""
        out: List[TypingTuple[float, int]] = []
        running = 0
        for bound, n in zip(self.bounds, self.bucket_counts):
            running += n
            out.append((bound, running))
        out.append((float("inf"), running + self.bucket_counts[-1]))
        return out


class _NoopSeries:
    """Returned past the cardinality cap: absorbs writes silently."""

    kind = "noop"
    labels: Dict[str, str] = {}

    def inc(self, amount: float = 1.0) -> None: pass
    def dec(self, amount: float = 1.0) -> None: pass
    def set(self, value: float) -> None: pass
    def set_total(self, value: float) -> None: pass
    def observe(self, value: float) -> None: pass


_NOOP_SERIES = _NoopSeries()

_SERIES_CLASSES = {"counter": Counter, "gauge": Gauge,
                   "histogram": Histogram}


class MetricFamily:
    """All series sharing one name, kind, and label schema."""

    def __init__(self, name: str, kind: str, help: str,
                 labelnames: Sequence[str], reg: "MetricRegistry",
                 collected: bool = False,
                 buckets: Sequence[float] = DEFAULT_BUCKETS,
                 max_series: int = 128):
        if kind not in _SERIES_CLASSES:
            raise TelemetryError(f"unknown metric kind {kind!r}")
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames = tuple(labelnames)
        self.collected = collected
        self.buckets = tuple(buckets)
        self.max_series = max_series
        self._reg = reg
        self._children: Dict[TypingTuple[str, ...], _Series] = {}

    def labels(self, *values: Any, **by_name: Any) -> _Series:
        """The child series for one label-value assignment.

        Accepts positional values in ``labelnames`` order or keywords;
        values are stringified.  Past ``max_series`` distinct children
        the family stops allocating and hands back a shared no-op series
        (the drop is counted in ``tcq_telemetry_dropped_series_total``).
        """
        if by_name:
            if values:
                raise TelemetryError(
                    "pass label values positionally or by name, not both")
            try:
                values = tuple(by_name[n] for n in self.labelnames)
            except KeyError as exc:
                raise TelemetryError(
                    f"{self.name}: missing label {exc.args[0]!r}") from None
        if len(values) != len(self.labelnames):
            raise TelemetryError(
                f"{self.name} takes labels {self.labelnames}, "
                f"got {len(values)} value(s)")
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is None:
            if len(self._children) >= self.max_series:
                self._reg._note_dropped_series(self.name)
                return _NOOP_SERIES
            label_map = dict(zip(self.labelnames, key))
            cls = _SERIES_CLASSES[self.kind]
            if cls is Histogram:
                child = Histogram(label_map, self._reg, self.buckets)
            else:
                child = cls(label_map, self._reg)
            self._children[key] = child
        return child

    def clear(self) -> None:
        """Drop every child (collected families rebuild per snapshot)."""
        self._children.clear()

    # -- unlabeled convenience: delegate to the () child -------------------
    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)            # type: ignore[union-attr]

    def dec(self, amount: float = 1.0) -> None:
        self.labels().dec(amount)            # type: ignore[union-attr]

    def set(self, value: float) -> None:
        self.labels().set(value)             # type: ignore[union-attr]

    def set_total(self, value: float) -> None:
        self.labels().set_total(value)       # type: ignore[union-attr]

    def observe(self, value: float) -> None:
        self.labels().observe(value)         # type: ignore[union-attr]

    def series(self) -> List[_Series]:
        return [self._children[k] for k in sorted(self._children)]

    def __repr__(self) -> str:
        return (f"MetricFamily({self.name}, {self.kind}, "
                f"{len(self._children)} series)")


#: Collectors every registry runs at snapshot time, regardless of which
#: registry instance is current — used by module-scoped state (fjord
#: queue totals, spill I/O totals) that cannot bind a registry at
#: import time.
_GLOBAL_COLLECTORS: List[Callable[["MetricRegistry"], None]] = []


def register_global_collector(
        fn: Callable[["MetricRegistry"], None]) -> None:
    if fn not in _GLOBAL_COLLECTORS:
        _GLOBAL_COLLECTORS.append(fn)


class MetricRegistry:
    """The process-wide registry: declare families, take snapshots."""

    def __init__(self, max_series_per_family: int = 128):
        self.enabled = True
        self.max_series_per_family = max_series_per_family
        self._families: Dict[str, MetricFamily] = {}
        self._collectors: List[weakref.ReferenceType] = []
        self.snapshots_taken = 0
        self.dropped_by_family: Dict[str, int] = {}

    @property
    def dropped_series(self) -> int:
        """Total series refused past the cap, across every family."""
        return sum(self.dropped_by_family.values())

    # -- declaration --------------------------------------------------------
    def _family(self, name: str, kind: str, help: str,
                labels: Sequence[str], collected: bool,
                buckets: Sequence[float]) -> MetricFamily:
        fam = self._families.get(name)
        if fam is not None:
            if fam.kind != kind:
                raise TelemetryError(
                    f"{name} already declared as a {fam.kind}")
            if fam.labelnames != tuple(labels):
                raise TelemetryError(
                    f"{name} already declared with labels {fam.labelnames}")
            return fam
        fam = MetricFamily(name, kind, help, labels, self,
                           collected=collected, buckets=buckets,
                           max_series=self.max_series_per_family)
        self._families[name] = fam
        return fam

    def counter(self, name: str, help: str = "",
                labels: Sequence[str] = (),
                collected: bool = False) -> MetricFamily:
        return self._family(name, "counter", help, labels, collected, ())

    def gauge(self, name: str, help: str = "",
              labels: Sequence[str] = (),
              collected: bool = False) -> MetricFamily:
        return self._family(name, "gauge", help, labels, collected, ())

    def histogram(self, name: str, help: str = "",
                  labels: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS,
                  collected: bool = False) -> MetricFamily:
        return self._family(name, "histogram", help, labels, collected,
                            buckets)

    # -- collectors ---------------------------------------------------------
    def register_collector(self, fn: Callable[[], None]) -> None:
        """Register a zero-argument callback run before every snapshot.

        Bound methods are held by :class:`weakref.WeakMethod`, so a
        component's collector dies with the component.
        """
        try:
            ref: weakref.ReferenceType = weakref.WeakMethod(fn)  # type: ignore[arg-type]
        except TypeError:
            ref = weakref.ref(fn)
        self._collectors.append(ref)

    def _note_dropped_series(self, family: str) -> None:
        self.dropped_by_family[family] = \
            self.dropped_by_family.get(family, 0) + 1

    # -- on/off -------------------------------------------------------------
    def disable(self) -> None:
        self.enabled = False

    def enable(self) -> None:
        self.enabled = True

    # -- snapshotting -------------------------------------------------------
    def collect(self) -> None:
        """Run every live collector into the registry."""
        for fam in self._families.values():
            if fam.collected:
                fam.clear()
        live: List[weakref.ReferenceType] = []
        for ref in self._collectors:
            fn = ref()
            if fn is None:
                continue
            live.append(ref)
            fn()
        self._collectors = live
        for gfn in _GLOBAL_COLLECTORS:
            gfn(self)

    def snapshot(self) -> "TelemetrySnapshot":
        if self.enabled:
            self.collect()
        self.snapshots_taken += 1
        self._self_report()
        samples: List[SeriesSample] = []
        for name in sorted(self._families):
            fam = self._families[name]
            for child in fam.series():
                samples.append(SeriesSample.from_series(fam, child))
        return TelemetrySnapshot(samples)

    def _self_report(self) -> None:
        self.gauge("tcq_telemetry_collectors",
                   "Live registered snapshot collectors").set(
            len(self._collectors))
        self.counter("tcq_telemetry_snapshots_total",
                     "Snapshots taken").set_total(self.snapshots_taken)
        dropped = self.counter(
            "tcq_telemetry_dropped_series_total",
            "Series refused past the per-family cardinality cap",
            ("family",), collected=True)
        # Publishing can itself hit the cap (and note a drop) — iterate
        # over a copy so the dict is free to grow underneath.
        for family, n in list(self.dropped_by_family.items()):
            dropped.labels(family).set_total(n)

    def reset(self) -> None:
        """Forget every family and collector (tests)."""
        self._families.clear()
        self._collectors.clear()
        self.snapshots_taken = 0
        self.dropped_by_family.clear()


class SeriesSample:
    """One series' state inside a snapshot — plain, comparable data."""

    __slots__ = ("name", "kind", "help", "labels", "value", "buckets",
                 "sum", "count")

    def __init__(self, name: str, kind: str, help: str,
                 labels: Dict[str, str],
                 value: Optional[float] = None,
                 buckets: Optional[List[TypingTuple[float, int]]] = None,
                 sum: Optional[float] = None,
                 count: Optional[int] = None):
        self.name = name
        self.kind = kind
        self.help = help
        self.labels = dict(labels)
        self.value = value
        self.buckets = buckets
        self.sum = sum
        self.count = count

    @classmethod
    def from_series(cls, fam: MetricFamily, s: _Series) -> "SeriesSample":
        if isinstance(s, Histogram):
            return cls(fam.name, fam.kind, fam.help, s.labels,
                       buckets=s.cumulative_buckets(), sum=s.sum,
                       count=s.count)
        return cls(fam.name, fam.kind, fam.help, s.labels,
                   value=s.value)          # type: ignore[union-attr]

    @property
    def subsystem(self) -> str:
        """``tcq_eddy_tuples_routed_total`` -> ``eddy``."""
        parts = self.name.split("_", 2)
        return parts[1] if len(parts) > 1 else self.name

    def key(self) -> TypingTuple[str, TypingTuple[TypingTuple[str, str], ...]]:
        return (self.name, tuple(sorted(self.labels.items())))

    def _as_tuple(self) -> tuple:
        return (self.name, self.kind, self.help,
                tuple(sorted(self.labels.items())), self.value,
                tuple(self.buckets) if self.buckets is not None else None,
                self.sum, self.count)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, SeriesSample)
                and self._as_tuple() == other._as_tuple())

    def __hash__(self) -> int:
        return hash(self._as_tuple())

    def __repr__(self) -> str:
        if self.kind == "histogram":
            return (f"SeriesSample({self.name}{self.labels}, "
                    f"count={self.count}, sum={self.sum})")
        return f"SeriesSample({self.name}{self.labels} = {self.value})"


_LABEL_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n"}
_HELP_ESCAPES = {"\\": "\\\\", "\n": "\\n"}


def _escape(text: str, table: Dict[str, str]) -> str:
    for raw, esc in table.items():
        text = text.replace(raw, esc)
    return text


def _unescape(text: str) -> str:
    return (text.replace("\\n", "\n").replace('\\"', '"')
            .replace("\\\\", "\\"))


def _fmt_float(v: float) -> str:
    if v == float("inf"):
        return "+Inf"
    if v == float("-inf"):
        return "-Inf"
    return repr(v)


def _parse_float(text: str) -> float:
    if text == "+Inf":
        return float("inf")
    if text == "-Inf":
        return float("-inf")
    return float(text)


_SAMPLE_LINE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?:\{(?P<labels>.*)\})?\s+(?P<value>\S+)$')
_LABEL_PAIR = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


class TelemetrySnapshot:
    """An immutable, typed view of the whole engine at one instant."""

    def __init__(self, samples: Sequence[SeriesSample]):
        self.samples = sorted(samples, key=SeriesSample.key)

    # -- queries ------------------------------------------------------------
    def get(self, name: str, **labels: Any) -> Optional[SeriesSample]:
        """The sample matching ``name`` whose labels include ``labels``."""
        want = {k: str(v) for k, v in labels.items()}
        for s in self.samples:
            if s.name == name and all(s.labels.get(k) == v
                                      for k, v in want.items()):
                return s
        return None

    def value(self, name: str, default: float = 0.0,
              **labels: Any) -> float:
        s = self.get(name, **labels)
        if s is None or s.value is None:
            return default
        return s.value

    def series_names(self) -> List[str]:
        return sorted({s.name for s in self.samples})

    def subsystems(self) -> List[str]:
        return sorted({s.subsystem for s in self.samples})

    def by_subsystem(self, subsystem: str) -> List[SeriesSample]:
        return [s for s in self.samples if s.subsystem == subsystem]

    def __len__(self) -> int:
        return len(self.samples)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, TelemetrySnapshot)
                and self.samples == other.samples)

    def __repr__(self) -> str:
        return (f"TelemetrySnapshot({len(self.samples)} series over "
                f"{len(self.subsystems())} subsystems)")

    # -- JSON exporter ------------------------------------------------------
    def to_json(self, indent: Optional[int] = None) -> str:
        out = []
        for s in self.samples:
            entry: Dict[str, Any] = {"name": s.name, "kind": s.kind,
                                     "help": s.help, "labels": s.labels}
            if s.kind == "histogram":
                entry["buckets"] = [[_fmt_float(le), n]
                                    for le, n in (s.buckets or [])]
                entry["sum"] = s.sum
                entry["count"] = s.count
            else:
                entry["value"] = s.value
            out.append(entry)
        return json.dumps({"samples": out}, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "TelemetrySnapshot":
        try:
            doc = json.loads(text)
            samples = []
            for entry in doc["samples"]:
                if entry["kind"] == "histogram":
                    samples.append(SeriesSample(
                        entry["name"], entry["kind"], entry.get("help", ""),
                        entry.get("labels", {}),
                        buckets=[(_parse_float(le), n)
                                 for le, n in entry["buckets"]],
                        sum=entry["sum"], count=entry["count"]))
                else:
                    samples.append(SeriesSample(
                        entry["name"], entry["kind"], entry.get("help", ""),
                        entry.get("labels", {}), value=entry["value"]))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise TelemetryError(f"not a telemetry snapshot: {exc}") from exc
        return cls(samples)

    # -- Prometheus text exporter -------------------------------------------
    def to_prometheus(self) -> str:
        lines: List[str] = []
        seen_headers = set()
        for s in self.samples:
            if s.name not in seen_headers:
                seen_headers.add(s.name)
                if s.help:
                    lines.append(
                        f"# HELP {s.name} {_escape(s.help, _HELP_ESCAPES)}")
                lines.append(f"# TYPE {s.name} {s.kind}")
            if s.kind == "histogram":
                for le, n in s.buckets or []:
                    lines.append(self._sample_line(
                        s.name + "_bucket",
                        dict(s.labels, le=_fmt_float(le)), float(n)))
                lines.append(self._sample_line(s.name + "_sum", s.labels,
                                               s.sum or 0.0))
                lines.append(self._sample_line(s.name + "_count", s.labels,
                                               float(s.count or 0)))
            else:
                lines.append(self._sample_line(s.name, s.labels,
                                               s.value or 0.0))
        return "\n".join(lines) + "\n"

    @staticmethod
    def _sample_line(name: str, labels: Dict[str, str],
                     value: float) -> str:
        if labels:
            body = ",".join(
                f'{k}="{_escape(v, _LABEL_ESCAPES)}"'
                for k, v in sorted(labels.items()))
            return f"{name}{{{body}}} {_fmt_float(value)}"
        return f"{name} {_fmt_float(value)}"

    @classmethod
    def from_prometheus(cls, text: str) -> "TelemetrySnapshot":
        kinds: Dict[str, str] = {}
        helps: Dict[str, str] = {}
        # (name, labels-key) -> accumulating state
        plain: List[SeriesSample] = []
        hists: Dict[TypingTuple[str, TypingTuple[TypingTuple[str, str], ...]],
                    Dict[str, Any]] = {}
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            if line.startswith("# HELP "):
                _, _, rest = line.partition("# HELP ")
                name, _, help_text = rest.partition(" ")
                helps[name] = _unescape(help_text)
                continue
            if line.startswith("# TYPE "):
                _, _, rest = line.partition("# TYPE ")
                name, _, kind = rest.partition(" ")
                kinds[name] = kind.strip()
                continue
            if line.startswith("#"):
                continue
            m = _SAMPLE_LINE.match(line)
            if not m:
                raise TelemetryError(f"unparseable exposition line: {line!r}")
            name = m.group("name")
            labels = {k: _unescape(v) for k, v in
                      _LABEL_PAIR.findall(m.group("labels") or "")}
            value = _parse_float(m.group("value"))
            base = None
            for suffix in ("_bucket", "_sum", "_count"):
                root = name[:-len(suffix)] if name.endswith(suffix) else None
                if root and kinds.get(root) == "histogram":
                    base = (root, suffix)
                    break
            if base is None:
                plain.append(SeriesSample(
                    name, kinds.get(name, "gauge"), helps.get(name, ""),
                    labels, value=value))
                continue
            root, suffix = base
            bare = {k: v for k, v in labels.items() if k != "le"}
            key = (root, tuple(sorted(bare.items())))
            st = hists.setdefault(key, {"labels": bare, "buckets": [],
                                        "sum": 0.0, "count": 0})
            if suffix == "_bucket":
                st["buckets"].append((_parse_float(labels["le"]),
                                      int(value)))
            elif suffix == "_sum":
                st["sum"] = value
            else:
                st["count"] = int(value)
        samples = list(plain)
        for (root, _lk), st in hists.items():
            samples.append(SeriesSample(
                root, "histogram", helps.get(root, ""), st["labels"],
                buckets=sorted(st["buckets"]), sum=st["sum"],
                count=st["count"]))
        return cls(samples)


#: The process-wide default registry every subsystem binds at
#: construction time.
_DEFAULT_REGISTRY = MetricRegistry()


def get_registry() -> MetricRegistry:
    """The current process-wide registry."""
    return _DEFAULT_REGISTRY


def set_registry(registry: MetricRegistry) -> MetricRegistry:
    """Swap the process-wide registry; returns the previous one.

    Components bind the registry current at *their* construction time,
    so swap before building the engine under observation.
    """
    global _DEFAULT_REGISTRY
    previous = _DEFAULT_REGISTRY
    _DEFAULT_REGISTRY = registry
    return previous
