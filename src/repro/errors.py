"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class.  Sub-hierarchies follow the package
layout: RDF parsing, SPARQL, rules, cube-model and algorithm errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class RDFError(ReproError):
    """Base class for errors in the RDF substrate."""


class ParseError(RDFError):
    """A serialization (Turtle, N-Triples) could not be parsed.

    Carries the 1-based ``line`` and ``column`` of the offending input
    position when known.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        location = ""
        if line is not None:
            location = f" at line {line}"
            if column is not None:
                location += f", column {column}"
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class TermError(RDFError):
    """An RDF term was constructed with invalid content."""


class SPARQLError(ReproError):
    """Base class for SPARQL engine errors."""


class SPARQLSyntaxError(SPARQLError):
    """The query text is not valid in the supported SPARQL subset."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (near offset {position})"
        super().__init__(message)
        self.position = position


class SPARQLEvaluationError(SPARQLError):
    """The query is syntactically valid but cannot be evaluated."""


class RuleError(ReproError):
    """Base class for rule engine errors."""


class RuleSyntaxError(RuleError):
    """A rule definition could not be parsed."""


class RuleEvaluationError(RuleError):
    """Forward chaining failed, e.g. an unknown builtin was invoked."""


class CubeModelError(ReproError):
    """The QB model layer received inconsistent cube data."""


class HierarchyError(CubeModelError):
    """A code-list hierarchy is malformed (cycles, unknown codes...)."""


class AlignmentError(ReproError):
    """The alignment (interlinking) module was misconfigured."""


class AlgorithmError(ReproError):
    """A relationship-computation algorithm received invalid input."""


class ObservationConflictError(AlgorithmError):
    """An observation URI was re-declared with a different dataset,
    dimension values or measures than the row it already names."""


class ComputationError(ReproError):
    """Base class for failures *during* a relationship computation.

    Distinct from :class:`AlgorithmError` (bad input): these are
    runtime faults — crashed workers, timeouts, unusable checkpoints —
    that the resilience layer (:mod:`repro.core.runner`) can retry,
    degrade around, or resume past.
    """


class WorkerCrashError(ComputationError):
    """A worker process died (e.g. ``BrokenProcessPool``) and the
    failure persisted past the configured retries."""

    def __init__(self, message: str, unit: object = None, attempts: int | None = None):
        if unit is not None:
            message = f"{message} (unit {unit!r}"
            message += f", {attempts} attempt(s))" if attempts is not None else ")"
        super().__init__(message)
        self.unit = unit
        self.attempts = attempts


class UnitTimeoutError(ComputationError):
    """A work unit exceeded its wall-clock timeout on every attempt."""

    def __init__(self, message: str, unit: object = None, timeout: float | None = None):
        if unit is not None:
            message = f"{message} (unit {unit!r}"
            message += f", timeout {timeout}s)" if timeout is not None else ")"
        super().__init__(message)
        self.unit = unit
        self.timeout = timeout


class CheckpointError(ComputationError):
    """A materialisation checkpoint is missing, stale or inconsistent
    with the requested computation."""


class ServiceError(ReproError):
    """Base class for relationship-service (query/serving) errors."""


class UnknownObservationError(ServiceError):
    """A query referenced an observation the index does not know.

    Maps to HTTP 404 in the serving layer.
    """

    def __init__(self, uri: object):
        super().__init__(f"unknown observation: {uri}")
        self.uri = uri


class StorageError(ReproError):
    """A binary segment store, its manifest or its write-ahead log is
    missing, corrupt (bad magic/CRC) or of an unsupported version."""


class ResilienceError(ReproError):
    """Base class for the hardened serving path's refusal errors.

    These are *protective* failures: the system declined work to stay
    healthy (deadline blown, breaker open, queue full), as opposed to
    something actually breaking.
    """


class DeadlineExceededError(ResilienceError):
    """A request's deadline expired before the work finished.

    Maps to HTTP 504 in the serving layer.  ``site`` names the
    checkpoint that noticed the expiry (``engine.query``,
    ``segment.read``...).
    """

    def __init__(self, site: str = "", overrun_ms: float | None = None):
        message = "deadline exceeded"
        if site:
            message += f" at {site}"
        if overrun_ms is not None:
            message += f" (over by {overrun_ms:.0f}ms)"
        super().__init__(message)
        self.site = site
        self.overrun_ms = overrun_ms


class CircuitOpenError(ResilienceError):
    """The storage circuit breaker is open; reads fail fast.

    Maps to HTTP 503 with a ``Retry-After`` hint in the serving layer.
    """

    def __init__(self, message: str, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = retry_after


class OverloadedError(ResilienceError):
    """The request queue is full; the request was shed.

    Maps to HTTP 503 with a ``Retry-After`` hint in the serving layer.
    """

    def __init__(self, message: str, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = retry_after


class ShardUnavailableError(ReproError):
    """Every replica of a required cluster shard refused or failed.

    Maps to HTTP 503 with a ``Retry-After`` hint in the serving layer:
    an incomplete scatter fails loudly instead of answering partially.
    """

    def __init__(self, shard: int, detail: str, retry_after: float = 1.0):
        super().__init__(
            f"shard {shard} is unavailable ({detail}); the answer would be "
            "incomplete, failing instead"
        )
        self.shard = shard
        self.retry_after = retry_after
