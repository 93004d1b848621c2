"""Process-wide deterministic fault injection.

Resilience code that is only exercised by real crashes is untestable;
this module makes failure a first-class, *reproducible* input at two
granularities:

**Named injection sites** (:class:`FaultInjector`).  Hot paths across
the stack call :func:`inject` with a well-known site name; an installed
injector decides — deterministically, from a seeded RNG and per-rule
hit counters — whether that call errors, stalls, tears its write, or
kills the process.  The sites:

===================  ====================================================
site                 fired at
===================  ====================================================
``segment.read``     :meth:`SegmentStore._decode_file` entry (per file)
``mmap.attach``      immediately before a segment file is memory-mapped
``wal.append``       before a WAL record's bytes are written (torn-capable)
``wal.fsync``        between a WAL append's flush and its fsync
``segment.write``    per segment file written during a generation commit
``manifest.commit``  before the manifest's atomic replace (torn-capable)
``worker.start``     pool-worker initializer (parallel cubeMasking)
``http.handler``     the HTTP handler, before routing a request
``scrub.segment``    per-segment verification inside the scrubber
===================  ====================================================

Injectors are configured from a **chaos spec** — a comma-separated list
of ``site:mode[:key=value...]`` clauses (see :func:`parse_chaos_spec`)
— via ``repro serve --chaos``, the ``REPRO_CHAOS`` environment variable
(:func:`injector_from_env`, honoured by every entry point so child
processes inherit the chaos), or :func:`install_injector` in tests.
No monkeypatching anywhere: the sites are permanent, the injector is
swappable, and with none installed :func:`inject` is a near-free
dictionary miss.

**Unit-targeted plans** (:class:`FaultPlan`).  The materialisation
runner's original harness — "kill the worker processing unit 3",
"raise in unit 5, twice" — consulted at unit boundaries.  It moved
here unchanged from the superseded ``repro.core.faults`` so the whole
failure vocabulary lives in one module:

* ``before_unit(unit_id)`` runs at the start of every execution
  attempt of a unit, in whichever process executes it.  Matching
  faults fire at most ``times`` attempts each, then stop — so a plan
  with ``times=1`` models a transient fault that a retry survives.
* ``after_unit(completed_count)`` runs in the parent after a unit's
  delta is durably checkpointed, and implements the simulated SIGINT
  (``interrupt_after``) by raising :class:`KeyboardInterrupt` — the
  same exception a real Ctrl-C delivers, exercising the same
  flush-then-exit path.

Because worker processes do not share memory with the parent, attempt
counting for ``kill``/cross-process faults uses one-shot token files
in ``state_dir`` (created with ``O_EXCL``, so exactly one claimant
wins each token even across a respawned pool).  Purely in-process
plans may omit ``state_dir`` and count in memory.

:func:`truncate_file` completes the harness: it chops a checkpoint
mid-line to model a crash during an append, letting tests prove the
loader's torn-tail recovery.
"""

from __future__ import annotations

import os
import random
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from repro.errors import ComputationError
from repro.obs import catalogue

__all__ = [
    "Fault",
    "FaultAction",
    "FaultInjector",
    "FaultPlan",
    "InjectedFault",
    "SiteFault",
    "clear_injector",
    "get_injector",
    "inject",
    "injector_from_env",
    "install_injector",
    "parse_chaos_spec",
    "truncate_file",
    "CHAOS_ENV",
    "KILL_EXIT_CODE",
    "SITES",
]

#: Environment variable every entry point consults for a chaos spec.
CHAOS_ENV = "REPRO_CHAOS"

#: Exit status used by ``kill`` faults — distinctive, so a harness can
#: tell an injected death from a genuine crash.
KILL_EXIT_CODE = 23

#: The documented injection sites (open set — unknown sites are legal,
#: this tuple exists for docs, validation hints and preregistration).
SITES = (
    "segment.read",
    "mmap.attach",
    "wal.append",
    "wal.fsync",
    "segment.write",
    "manifest.commit",
    "worker.start",
    "http.handler",
    "scrub.segment",
)

_MODES = ("error", "delay", "torn", "kill")


class InjectedFault(ComputationError):
    """The error raised by a ``"raise"``/``"error"`` fault — retryable
    by design."""


# ----------------------------------------------------------------------
# Site-named injection
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SiteFault:
    """One chaos rule: what happens at ``site``, how often.

    ``mode`` is one of:

    ``"error"``
        Raise :class:`InjectedFault` at the site.
    ``"delay"``
        Sleep ``seconds`` before the site's work proceeds.
    ``"torn"``
        At a torn-capable write site (``wal.append``,
        ``manifest.commit``) the caller writes only a prefix of its
        payload and hard-exits — a crash mid-write.  At any other site
        it degrades to ``error``.
    ``"kill"``
        Hard-exit the process with ``os._exit(KILL_EXIT_CODE)`` —
        models SIGKILL/power loss at exactly this point.

    ``after`` skips the first N matching hits; ``times`` bounds the
    firings (``None`` = unlimited); ``probability`` gates each
    remaining hit through the injector's seeded RNG.
    """

    site: str
    mode: str = "error"
    times: int | None = 1
    after: int = 0
    probability: float = 1.0
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"unknown fault mode {self.mode!r} (want one of {_MODES})")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"fault probability must be in [0, 1], got {self.probability}")


class FaultAction:
    """What :func:`inject` decided should happen at a site.

    ``error``/``delay``/``kill`` are applied before the caller sees
    anything; ``torn`` is returned to the (torn-capable) caller, which
    writes ``fraction`` of its payload and then calls :meth:`die`.
    """

    __slots__ = ("site", "mode", "seconds", "fraction")

    def __init__(self, site: str, mode: str, seconds: float = 0.0, fraction: float = 0.5):
        self.site = site
        self.mode = mode
        self.seconds = seconds
        self.fraction = fraction

    def die(self) -> None:
        """The torn write happened; crash the process."""
        os._exit(KILL_EXIT_CODE)

    def __repr__(self) -> str:
        return f"FaultAction(site={self.site!r}, mode={self.mode!r})"


class FaultInjector:
    """Deterministic, seeded, thread-safe site-fault dispatcher.

    Determinism contract: given the same rules, seed and sequence of
    :meth:`fire` calls, the same calls fault the same way — which is
    what lets a crash-consistency trial be replayed from its seed.
    """

    def __init__(self, faults: Iterable[SiteFault] = (), seed: int = 0):
        self.faults = tuple(faults)
        self.seed = seed
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._hits: dict[int, int] = {}
        self._fired: dict[int, int] = {}

    # ------------------------------------------------------------------
    def _select(self, site: str) -> SiteFault | None:
        """The first matching rule that should fire for this hit."""
        for index, fault in enumerate(self.faults):
            if fault.site != site and fault.site != "*":
                continue
            hit = self._hits.get(index, 0)
            self._hits[index] = hit + 1
            if hit < fault.after:
                continue
            if fault.times is not None and self._fired.get(index, 0) >= fault.times:
                continue
            if fault.probability < 1.0 and self._rng.random() >= fault.probability:
                continue
            self._fired[index] = self._fired.get(index, 0) + 1
            return fault
        return None

    def fire(self, site: str, torn_capable: bool = False) -> FaultAction | None:
        """Apply any matching fault at ``site``.

        ``error`` raises, ``delay`` sleeps, ``kill`` exits — all right
        here.  ``torn`` is returned as a :class:`FaultAction` when the
        caller declared itself ``torn_capable`` (it must write a
        partial payload and call :meth:`FaultAction.die`); otherwise it
        degrades to ``error``.
        """
        with self._lock:
            fault = self._select(site)
        if fault is None:
            return None
        catalogue.FAULTS_INJECTED.inc(site=site, mode=fault.mode)
        if fault.mode == "delay":
            time.sleep(fault.seconds)
            return None
        if fault.mode == "kill":
            os._exit(KILL_EXIT_CODE)
        if fault.mode == "torn" and torn_capable:
            return FaultAction(site, "torn", seconds=fault.seconds)
        raise InjectedFault(f"injected fault at site {site!r} ({fault.mode})")

    def counts(self) -> dict[str, int]:
        """``{"site:mode": fired}`` — how often each rule fired."""
        with self._lock:
            return {
                f"{self.faults[i].site}:{self.faults[i].mode}": n
                for i, n in sorted(self._fired.items())
            }

    def __repr__(self) -> str:
        return f"FaultInjector({len(self.faults)} rule(s), seed={self.seed})"


# ----------------------------------------------------------------------
# Chaos-spec parsing and the process-wide injector
# ----------------------------------------------------------------------
def parse_chaos_spec(spec: str) -> FaultInjector:
    """Build an injector from a chaos spec string.

    Grammar: comma-separated clauses.  ``seed=N`` seeds the injector's
    RNG; every other clause is ``site:mode[:key=value...]`` with keys
    ``times`` (int, or ``inf`` for unlimited), ``after`` (int), ``p``
    (float probability) and ``seconds`` (float).  Examples::

        segment.read:error:times=2
        wal.append:torn:after=3
        seed=7,segment.read:delay:seconds=0.2:p=0.5:times=inf
        manifest.commit:kill

    Raises :class:`ValueError` on anything malformed, so a typo in
    ``--chaos`` is an immediate CLI error rather than silent calm.
    """
    faults: list[SiteFault] = []
    seed = 0
    for clause in spec.split(","):
        clause = clause.strip()
        if not clause:
            continue
        if clause.startswith("seed="):
            seed = int(clause[len("seed="):])
            continue
        parts = clause.split(":")
        if len(parts) < 2:
            raise ValueError(
                f"chaos clause {clause!r} must be site:mode[:key=value...]"
            )
        site, mode = parts[0], parts[1]
        kwargs: dict = {}
        for option in parts[2:]:
            key, sep, value = option.partition("=")
            if not sep:
                raise ValueError(f"chaos option {option!r} must be key=value")
            if key == "times":
                kwargs["times"] = None if value == "inf" else int(value)
            elif key == "after":
                kwargs["after"] = int(value)
            elif key == "p":
                kwargs["probability"] = float(value)
            elif key == "seconds":
                kwargs["seconds"] = float(value)
            else:
                raise ValueError(f"unknown chaos option {key!r} in {clause!r}")
        faults.append(SiteFault(site, mode, **kwargs))
    return FaultInjector(faults, seed=seed)


_INSTALLED: FaultInjector | None = None
_ENV_CHECKED = False


def install_injector(injector: FaultInjector | str | None) -> FaultInjector | None:
    """Install the process-wide injector (a spec string is parsed).

    Returns the installed injector; ``None`` uninstalls.
    """
    global _INSTALLED, _ENV_CHECKED
    if isinstance(injector, str):
        injector = parse_chaos_spec(injector)
    _INSTALLED = injector
    _ENV_CHECKED = True  # an explicit install wins over the environment
    return injector


def clear_injector() -> None:
    """Remove any installed injector (and re-arm env discovery)."""
    global _INSTALLED, _ENV_CHECKED
    _INSTALLED = None
    _ENV_CHECKED = False


def injector_from_env() -> FaultInjector | None:
    """The injector the ``REPRO_CHAOS`` environment variable asks for."""
    spec = os.environ.get(CHAOS_ENV)
    return parse_chaos_spec(spec) if spec else None


def get_injector() -> FaultInjector | None:
    """The currently-installed injector (env-activated on first call)."""
    global _INSTALLED, _ENV_CHECKED
    if not _ENV_CHECKED:
        _ENV_CHECKED = True
        _INSTALLED = injector_from_env()
    return _INSTALLED


def inject(site: str, torn_capable: bool = False) -> FaultAction | None:
    """The one-line site hook: fault here if an injector says so.

    With no injector installed (the overwhelmingly common case) this
    is two attribute loads and a ``None`` check.
    """
    injector = _INSTALLED if _ENV_CHECKED else get_injector()
    if injector is None:
        return None
    return injector.fire(site, torn_capable=torn_capable)


# ----------------------------------------------------------------------
# Unit-targeted plans (the materialisation runner's harness)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fault:
    """One deterministic unit-targeted fault.

    ``unit`` is the work-unit id the fault targets (an int range index,
    a ``"cluster-3"`` style string...).  ``action`` is one of:

    ``"raise"``
        Raise :class:`InjectedFault` in the executing process.
    ``"kill"``
        Hard-exit the executing process with ``os._exit`` — in a pool
        worker this surfaces as ``BrokenProcessPool`` in the parent.
        Ignored outside a worker: it models *worker* death, so the
        sequential degradation path (and plain sequential runs) are
        immune to it by design.
    ``"delay"``
        Sleep ``seconds`` before executing (drives timeout paths).

    ``times`` bounds how many *attempts* the fault affects; afterwards
    the unit executes normally, which is how retry recovery is modelled.
    """

    unit: int | str
    action: str = "raise"
    times: int = 1
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.action not in ("raise", "kill", "delay"):
            raise ValueError(f"unknown fault action {self.action!r}")


class FaultPlan:
    """A reproducible failure schedule consulted by the runner.

    Picklable, so the same plan travels into pool workers via the
    initializer.  ``state_dir`` (required when any ``kill`` fault is
    present) holds the cross-process one-shot claim tokens.
    """

    def __init__(
        self,
        faults: Iterable[Fault] = (),
        interrupt_after: int | None = None,
        state_dir: str | os.PathLike | None = None,
    ):
        self.faults = tuple(faults)
        self.interrupt_after = interrupt_after
        self.state_dir = os.fspath(state_dir) if state_dir is not None else None
        self._memory_claims = {}
        if self.state_dir is None and any(f.action == "kill" for f in self.faults):
            raise ValueError("kill faults need a state_dir for cross-process claim tokens")

    # ------------------------------------------------------------------
    def _claim(self, fault: Fault, index: int) -> bool:
        """Atomically claim one firing of ``fault``; True if this
        process (attempt) should be affected."""
        key = f"{fault.unit}-{fault.action}-{index}"
        for attempt in range(fault.times):
            token = f"{key}-{attempt}"
            if self.state_dir is not None:
                path = Path(self.state_dir) / f"fault-{token}"
                try:
                    fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                except FileExistsError:
                    continue
                os.close(fd)
                return True
            if not self._memory_claims.get(token):
                self._memory_claims[token] = True
                return True
        return False

    # ------------------------------------------------------------------
    def before_unit(self, unit_id: int | str, in_worker: bool = False) -> None:
        """Apply faults targeting ``unit_id`` for this attempt."""
        for index, fault in enumerate(self.faults):
            if fault.unit != unit_id:
                continue
            if fault.action == "kill" and not in_worker:
                continue  # kill models worker death; the parent is immune
            if not self._claim(fault, index):
                continue
            if fault.action == "delay":
                time.sleep(fault.seconds)
            elif fault.action == "kill":
                os._exit(17)
            else:
                raise InjectedFault(f"injected fault in unit {unit_id!r} (raise)")

    def after_unit(self, completed_count: int) -> None:
        """Simulated SIGINT: interrupt after N durably completed units."""
        if self.interrupt_after is not None and completed_count >= self.interrupt_after:
            raise KeyboardInterrupt(
                f"injected interrupt after {completed_count} completed unit(s)"
            )


def truncate_file(path: str | os.PathLike, keep_bytes: int | None = None, drop_bytes: int = 7) -> int:
    """Truncate ``path`` to model a crash mid-append.

    Keeps ``keep_bytes`` when given, otherwise drops ``drop_bytes``
    from the end (enough to tear the final JSONL record).  Returns the
    resulting size.
    """
    size = os.path.getsize(path)
    new_size = keep_bytes if keep_bytes is not None else max(0, size - drop_bytes)
    with open(path, "r+b") as handle:
        handle.truncate(new_size)
    return new_size
