"""Prometheus text-exposition (version 0.0.4) parser, validator and
federation helpers.

A dependency-free re-implementation of the subset of the exposition
format the repro service emits, used four ways:

* imported by the test-suite (``tests/obs/test_exposition.py``) to
  golden-check :meth:`ServiceMetrics.render` output,
* imported by the cluster router to parse shard scrapes and re-render
  them as one federated exposition labelled by ``shard``/``replica``
  (:func:`federate`),
* imported by ``repro top`` to turn live scrapes into dashboard rows,
* invoked as a script by the CI metrics-smoke steps to validate a live
  ``/metrics`` scrape::

      python -m repro.obs.exposition metrics.txt \
          --require repro_build_info --min-series 15

The validator enforces the rules Prometheus itself enforces on ingest:
every sample is announced by a ``# TYPE`` line, no series (name plus
label set) appears twice in one scrape, histogram bucket counts are
cumulative and end with ``+Inf``, and ``_count`` matches the ``+Inf``
bucket.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field

__all__ = [
    "ExpositionError",
    "MetricFamily",
    "Sample",
    "federate",
    "parse_exposition",
    "render_families",
    "validate",
]

_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)"
    r"(?:\s+(?P<timestamp>-?\d+))?\s*$"
)


@dataclass
class Sample:
    """One series sample: ``name{labels} value``."""

    name: str
    labels: dict[str, str]
    value: float

    @property
    def key(self) -> tuple:
        return (self.name, tuple(sorted(self.labels.items())))


@dataclass
class MetricFamily:
    """All samples sharing a ``# TYPE`` declaration."""

    name: str
    kind: str
    help: str = ""
    samples: list[Sample] = field(default_factory=list)

    def sample_names(self) -> set[str]:
        return {sample.name for sample in self.samples}


class ExpositionError(ValueError):
    """A line the exposition grammar rejects."""


def _unescape(value: str) -> str:
    out: list[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            if nxt == "n":
                out.append("\n")
            elif nxt in ("\\", '"'):
                out.append(nxt)
            else:
                out.append(ch)
                out.append(nxt)
            i += 2
            continue
        out.append(ch)
        i += 1
    return "".join(out)


def _parse_labels(raw: str, lineno: int) -> dict[str, str]:
    labels: dict[str, str] = {}
    i = 0
    while i < len(raw):
        match = re.match(r'\s*([a-zA-Z_][a-zA-Z0-9_]*)\s*=\s*"', raw[i:])
        if match is None:
            raise ExpositionError(f"line {lineno}: bad label syntax in {raw!r}")
        name = match.group(1)
        i += match.end()
        start = i
        buf: list[str] = []
        while i < len(raw):
            ch = raw[i]
            if ch == "\\" and i + 1 < len(raw):
                buf.append(raw[i : i + 2])
                i += 2
                continue
            if ch == '"':
                break
            buf.append(ch)
            i += 1
        else:
            raise ExpositionError(f"line {lineno}: unterminated label value at {raw[start:]!r}")
        labels[name] = _unescape("".join(buf))
        i += 1  # closing quote
        rest = raw[i:].lstrip()
        if rest.startswith(","):
            i = len(raw) - len(rest) + 1
        elif rest:
            raise ExpositionError(f"line {lineno}: junk after label value: {rest!r}")
        else:
            break
    return labels


def _parse_value(token: str, lineno: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise ExpositionError(f"line {lineno}: unparseable value {token!r}") from None


def _family_for(name: str, families: dict[str, MetricFamily]) -> str | None:
    """The family a sample name belongs to (histogram suffixes strip)."""
    if name in families:
        return name
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix) and name[: -len(suffix)] in families:
            base = name[: -len(suffix)]
            if families[base].kind in ("histogram", "summary"):
                return base
    return None


def parse_exposition(text: str) -> dict[str, MetricFamily]:
    """Parse an exposition payload into metric families, validating
    grammar as it goes.  Raises :class:`ExpositionError` on malformed
    input."""
    families: dict[str, MetricFamily] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            rest = line[len("# HELP ") :]
            name, _, help_text = rest.partition(" ")
            if not _METRIC_NAME.match(name):
                raise ExpositionError(f"line {lineno}: bad metric name {name!r}")
            family = families.setdefault(name, MetricFamily(name, kind="untyped"))
            family.help = help_text
            continue
        if line.startswith("# TYPE "):
            rest = line[len("# TYPE ") :]
            name, _, kind = rest.partition(" ")
            kind = kind.strip()
            if not _METRIC_NAME.match(name):
                raise ExpositionError(f"line {lineno}: bad metric name {name!r}")
            if kind not in ("counter", "gauge", "histogram", "summary", "untyped"):
                raise ExpositionError(f"line {lineno}: bad metric type {kind!r}")
            family = families.setdefault(name, MetricFamily(name, kind=kind))
            family.kind = kind
            continue
        if line.startswith("#"):
            continue  # free comment
        match = _SAMPLE.match(line)
        if match is None:
            raise ExpositionError(f"line {lineno}: unparseable sample {line!r}")
        name = match.group("name")
        raw_labels = match.group("labels")
        labels = _parse_labels(raw_labels, lineno) if raw_labels else {}
        for label in labels:
            if not _LABEL_NAME.match(label):
                raise ExpositionError(f"line {lineno}: bad label name {label!r}")
        value = _parse_value(match.group("value"), lineno)
        base = _family_for(name, families)
        if base is None:
            raise ExpositionError(
                f"line {lineno}: sample {name!r} has no preceding # TYPE"
            )
        families[base].samples.append(Sample(name, labels, value))
    return families


def _check_histogram(family: MetricFamily, problems: list[str]) -> None:
    groups: dict[tuple, dict[str, object]] = {}
    for sample in family.samples:
        labels = {k: v for k, v in sample.labels.items() if k != "le"}
        key = tuple(sorted(labels.items()))
        group = groups.setdefault(key, {"buckets": [], "sum": None, "count": None})
        if sample.name == family.name + "_bucket":
            group["buckets"].append((sample.labels.get("le", ""), sample.value))
        elif sample.name == family.name + "_sum":
            group["sum"] = sample.value
        elif sample.name == family.name + "_count":
            group["count"] = sample.value
    for key, group in groups.items():
        buckets = group["buckets"]
        where = f"{family.name}{dict(key) or ''}"
        if not buckets:
            problems.append(f"{where}: histogram with no _bucket samples")
            continue
        if buckets[-1][0] != "+Inf":
            problems.append(f"{where}: last bucket le={buckets[-1][0]!r}, want +Inf")
        counts = [count for _, count in buckets]
        if any(b > a for b, a in zip(counts, counts[1:])):
            problems.append(f"{where}: bucket counts not cumulative: {counts}")
        if group["count"] is None:
            problems.append(f"{where}: missing _count")
        elif group["count"] != counts[-1]:
            problems.append(
                f"{where}: _count {group['count']} != +Inf bucket {counts[-1]}"
            )
        if group["sum"] is None:
            problems.append(f"{where}: missing _sum")


def validate(
    text: str,
    require: tuple[str, ...] = (),
    min_series: int = 0,
) -> list[str]:
    """All the problems with an exposition payload (empty == valid)."""
    problems: list[str] = []
    try:
        families = parse_exposition(text)
    except ExpositionError as exc:
        return [str(exc)]
    seen: set[tuple] = set()
    for family in families.values():
        for sample in family.samples:
            if sample.key in seen:
                problems.append(f"duplicate series {sample.name}{sample.labels}")
            seen.add(sample.key)
        if family.kind == "counter":
            for sample in family.samples:
                if sample.value < 0:
                    problems.append(
                        f"counter {sample.name}{sample.labels} is negative"
                    )
        if family.kind == "histogram":
            _check_histogram(family, problems)
    for name in require:
        if name not in families or not families[name].samples:
            problems.append(f"required metric {name!r} missing")
    if len(seen) < min_series:
        problems.append(f"only {len(seen)} series, require at least {min_series}")
    return problems


# ----------------------------------------------------------------------
# Rendering and federation


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer() and abs(value) < 2**53:
        return str(int(value))
    return repr(float(value))


def render_families(families: dict[str, MetricFamily]) -> str:
    """Re-render parsed families as one valid exposition payload.

    Families render in sorted-name order, one ``# HELP``/``# TYPE``
    header each, so merging parses of several scrapes round-trips
    through :func:`validate`.
    """
    lines: list[str] = []
    for name in sorted(families):
        family = families[name]
        if family.help:
            lines.append(f"# HELP {name} {family.help}")
        lines.append(f"# TYPE {name} {family.kind}")
        for sample in family.samples:
            if sample.labels:
                body = ",".join(
                    f'{key}="{_escape_label(value)}"'
                    for key, value in sample.labels.items()
                )
                lines.append(f"{sample.name}{{{body}}} {_format_value(sample.value)}")
            else:
                lines.append(f"{sample.name} {_format_value(sample.value)}")
    return "\n".join(lines) + "\n"


def federate(
    scrapes: list[tuple[dict[str, str], str]],
    base: str = "",
) -> tuple[str, list[str]]:
    """Merge several scrapes into one exposition with extra labels.

    ``scrapes`` is ``[(extra_labels, exposition_text), ...]`` — e.g.
    ``({"shard": "0", "replica": "1"}, <shard scrape>)``.  Every sample
    from a scrape gets that scrape's extra labels attached.  On
    collision the federation label wins and the scraped value is
    preserved as ``exported_<label>`` (Prometheus ``honor_labels:
    false`` semantics) — the federator knows which target it scraped,
    and two targets self-reporting the same label must not collapse
    into duplicate series.  ``base`` is an optional local exposition
    merged verbatim — the router's own series, distinguishable by
    their *absence* of the federation labels.

    Returns ``(text, problems)`` where ``problems`` lists scrapes that
    failed to parse (the rest still federate — a sick shard must not
    take down the scrape).
    """
    merged: dict[str, MetricFamily] = {}
    problems: list[str] = []

    def fold(families: dict[str, MetricFamily], extra: dict[str, str]) -> None:
        for name, family in families.items():
            target = merged.setdefault(
                name, MetricFamily(name, kind=family.kind, help=family.help)
            )
            if target.kind == "untyped" and family.kind != "untyped":
                target.kind = family.kind
            if not target.help:
                target.help = family.help
            for sample in family.samples:
                labels = dict(extra)
                for key, value in sample.labels.items():
                    if key not in extra:
                        labels[key] = value
                    elif value != extra[key]:
                        labels[f"exported_{key}"] = value
                target.samples.append(Sample(sample.name, labels, sample.value))

    if base:
        try:
            fold(parse_exposition(base), {})
        except ExpositionError as exc:
            problems.append(f"base: {exc}")
    for extra, text in scrapes:
        try:
            fold(parse_exposition(text), dict(extra))
        except ExpositionError as exc:
            where = ",".join(f"{k}={v}" for k, v in sorted(extra.items()))
            problems.append(f"{where or 'scrape'}: {exc}")
    return render_families(merged), problems


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Validate a Prometheus text-exposition payload."
    )
    parser.add_argument("path", help="file holding the scrape body ('-' for stdin)")
    parser.add_argument(
        "--require",
        action="append",
        default=[],
        metavar="NAME",
        help="metric family that must be present (repeatable)",
    )
    parser.add_argument(
        "--min-series",
        type=int,
        default=0,
        help="minimum number of distinct series",
    )
    args = parser.parse_args(argv)
    if args.path == "-":
        text = sys.stdin.read()
    else:
        with open(args.path, encoding="utf-8") as handle:
            text = handle.read()
    problems = validate(text, require=tuple(args.require), min_series=args.min_series)
    for problem in problems:
        print(f"exposition: {problem}", file=sys.stderr)
    if not problems:
        families = parse_exposition(text)
        series = sum(len(f.samples) for f in families.values())
        print(f"exposition OK: {len(families)} families, {series} series")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
