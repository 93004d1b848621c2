"""A sampling wall-clock profiler (stdlib only).

A daemon thread snapshots the target thread's stack via
``sys._current_frames()`` every ``interval`` seconds and accumulates:

* **self** samples — the function on top of the stack (where wall time
  is actually being spent, GIL permitting), and
* **cumulative** samples — every function anywhere on the stack
  (deduplicated per sample, so recursion doesn't double-count).

Because sampling happens from a separate thread, the profiled code
runs unmodified — no ``sys.settrace`` overhead, which is what lets
``repro compute --profile`` report on a production-sized
materialisation without distorting it.  Numpy kernels and mmap I/O
that hold the GIL *are* attributed to the Python frame that entered
them, which is exactly the attribution the flat table needs.

Usage::

    with SamplingProfiler() as profiler:
        expensive()
    print(profiler.report())

:class:`ContinuousProfiler` is the always-on variant servers run: a
low-Hz sampler over *all* threads accumulating collapsed stacks
(``root;caller;leaf count`` — the flamegraph input format) into
rotating time windows, optionally dumped to rotating files, served on
``GET /debug/profile``.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from collections import deque
from pathlib import Path

from repro.obs import catalogue

__all__ = [
    "ContinuousProfiler",
    "SamplingProfiler",
    "get_continuous_profiler",
    "start_continuous_profiler",
    "stop_continuous_profiler",
]


class SamplingProfiler:
    """Samples one thread's stack; renders a flat self/cumulative table."""

    def __init__(self, interval: float = 0.002, thread_ident: int | None = None):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = interval
        self._target = thread_ident
        self._samples = 0
        self._self_counts: dict[tuple[str, str, int], int] = {}
        self._cumulative_counts: dict[tuple[str, str, int], int] = {}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._started_at: float | None = None
        self._elapsed = 0.0

    # ------------------------------------------------------------------
    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            raise RuntimeError("profiler already running")
        if self._target is None:
            self._target = threading.get_ident()
        self._stop.clear()
        self._started_at = time.perf_counter()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> "SamplingProfiler":
        if self._thread is None:
            return self
        self._stop.set()
        self._thread.join()
        self._thread = None
        if self._started_at is not None:
            self._elapsed += time.perf_counter() - self._started_at
            self._started_at = None
        return self

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            frame = sys._current_frames().get(self._target)
            if frame is None:
                continue
            self._samples += 1
            top = True
            seen: set[tuple[str, str, int]] = set()
            while frame is not None:
                code = frame.f_code
                key = (code.co_name, code.co_filename, code.co_firstlineno)
                if top:
                    self._self_counts[key] = self._self_counts.get(key, 0) + 1
                    top = False
                if key not in seen:
                    seen.add(key)
                    self._cumulative_counts[key] = (
                        self._cumulative_counts.get(key, 0) + 1
                    )
                frame = frame.f_back
            del frame

    # ------------------------------------------------------------------
    @property
    def samples(self) -> int:
        return self._samples

    @property
    def elapsed(self) -> float:
        if self._started_at is not None:
            return self._elapsed + (time.perf_counter() - self._started_at)
        return self._elapsed

    def as_dict(self, limit: int = 30) -> dict:
        """JSON-friendly profile: rows ranked by self samples."""
        rows = []
        for key, self_count in sorted(
            self._self_counts.items(), key=lambda item: -item[1]
        )[:limit]:
            name, filename, line = key
            rows.append(
                {
                    "function": name,
                    "location": f"{_short_path(filename)}:{line}",
                    "self_samples": self_count,
                    "cumulative_samples": self._cumulative_counts.get(key, self_count),
                }
            )
        return {
            "samples": self._samples,
            "interval_seconds": self.interval,
            "elapsed_seconds": self.elapsed,
            "rows": rows,
        }

    def report(self, limit: int = 30) -> str:
        """The flat self/cumulative table, ready to print."""
        profile = self.as_dict(limit)
        total = max(profile["samples"], 1)
        lines = [
            f"# wall-clock sampling profile: {profile['samples']} samples "
            f"@ {self.interval * 1000:.1f}ms over {profile['elapsed_seconds']:.2f}s",
            f"{'self%':>7} {'cum%':>7} {'self':>6} {'cum':>6}  function (location)",
        ]
        for row in profile["rows"]:
            lines.append(
                f"{100 * row['self_samples'] / total:6.1f}% "
                f"{100 * row['cumulative_samples'] / total:6.1f}% "
                f"{row['self_samples']:>6} {row['cumulative_samples']:>6}  "
                f"{row['function']} ({row['location']})"
            )
        if not profile["rows"]:
            lines.append("  (no samples — the run finished within one interval)")
        return "\n".join(lines)


def _short_path(filename: str) -> str:
    """Trim a source path to the informative tail (``repro/...``)."""
    for marker in ("/repro/", "\\repro\\"):
        index = filename.rfind(marker)
        if index >= 0:
            return "repro/" + filename[index + len(marker):].replace("\\", "/")
    parts = filename.replace("\\", "/").rsplit("/", 2)
    return "/".join(parts[-2:])


class ContinuousProfiler:
    """Always-on low-Hz sampler over all threads, collapsed-stack output.

    Samples every ``interval`` seconds (default 10 Hz — low enough
    that the sampling thread is invisible next to request work) and
    accumulates collapsed stacks per time window.  Windows rotate
    every ``window_seconds`` and the last ``windows`` are retained, so
    ``collapsed()`` always answers "where has this process spent the
    last few minutes" without unbounded growth.  With ``dump_dir``
    set, each rotated window is also written as a
    ``profile-<pid>-<seq>.collapsed`` file (``stack count`` lines —
    feed them straight to a flamegraph tool), keeping only the newest
    ``windows`` files.
    """

    def __init__(
        self,
        interval: float = 0.1,
        window_seconds: float = 60.0,
        windows: int = 5,
        dump_dir: str | os.PathLike | None = None,
        max_depth: int = 64,
    ):
        if interval <= 0:
            raise ValueError("interval must be positive")
        if windows < 1:
            raise ValueError("windows must be >= 1")
        self.interval = interval
        self.window_seconds = window_seconds
        self.windows = windows
        self.max_depth = max_depth
        self.dump_dir = Path(dump_dir) if dump_dir else None
        self._lock = threading.Lock()
        self._current: dict[str, int] = {}
        self._retained: deque[dict[str, int]] = deque(maxlen=max(1, windows - 1))
        self._samples = 0
        self._rotations = 0
        self._dump_seq = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._started_at: float | None = None
        if self.dump_dir is not None:
            self.dump_dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    def start(self) -> "ContinuousProfiler":
        if self._thread is not None:
            return self
        self._stop.clear()
        self._started_at = time.time()
        self._thread = threading.Thread(
            target=self._run, name="repro-cont-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> "ContinuousProfiler":
        if self._thread is None:
            return self
        self._stop.set()
        self._thread.join()
        self._thread = None
        return self

    @property
    def running(self) -> bool:
        return self._thread is not None

    # ------------------------------------------------------------------
    def _run(self) -> None:
        own_ident = threading.get_ident()
        window_start = time.monotonic()
        while not self._stop.wait(self.interval):
            now = time.monotonic()
            frames = sys._current_frames()
            stacks: list[str] = []
            for ident, frame in frames.items():
                if ident == own_ident:
                    continue
                parts: list[str] = []
                depth = 0
                while frame is not None and depth < self.max_depth:
                    code = frame.f_code
                    parts.append(f"{_short_path(code.co_filename)}:{code.co_name}")
                    frame = frame.f_back
                    depth += 1
                if parts:
                    stacks.append(";".join(reversed(parts)))
            del frames
            with self._lock:
                for stack in stacks:
                    self._current[stack] = self._current.get(stack, 0) + 1
                self._samples += len(stacks)
                if now - window_start >= self.window_seconds:
                    self._rotate_locked()
                    window_start = now
                    catalogue.OBS_PROFILER_WINDOWS.inc()
            catalogue.OBS_PROFILER_SAMPLES.inc(len(stacks))

    def _rotate_locked(self) -> None:
        window, self._current = self._current, {}
        self._retained.append(window)
        self._rotations += 1
        if self.dump_dir is not None and window:
            self._dump_seq += 1
            path = self.dump_dir / f"profile-{os.getpid()}-{self._dump_seq}.collapsed"
            try:
                with open(path, "w", encoding="utf-8") as handle:
                    for stack, count in sorted(window.items(), key=lambda kv: -kv[1]):
                        handle.write(f"{stack} {count}\n")
                dumps = sorted(
                    self.dump_dir.glob(f"profile-{os.getpid()}-*.collapsed"),
                    key=lambda p: int(p.stem.rsplit("-", 1)[1]),
                )
                if len(dumps) > self.windows:
                    for stale in dumps[: len(dumps) - self.windows]:
                        stale.unlink(missing_ok=True)
            except OSError:
                pass

    def rotate(self) -> None:
        """Force a window rotation (tests; shutdown flush)."""
        with self._lock:
            self._rotate_locked()

    # ------------------------------------------------------------------
    def collapsed(self) -> dict[str, int]:
        """Merged collapsed stacks over the retained windows + current."""
        merged: dict[str, int] = {}
        with self._lock:
            for window in list(self._retained) + [self._current]:
                for stack, count in window.items():
                    merged[stack] = merged.get(stack, 0) + count
        return merged

    def render(self, limit: int | None = None) -> str:
        """``stack count`` lines, hottest first (flamegraph input)."""
        rows = sorted(self.collapsed().items(), key=lambda kv: (-kv[1], kv[0]))
        if limit is not None:
            rows = rows[:limit]
        if not rows:
            return "(no samples yet)\n"
        return "\n".join(f"{stack} {count}" for stack, count in rows) + "\n"

    def as_dict(self, limit: int = 20) -> dict:
        rows = sorted(self.collapsed().items(), key=lambda kv: (-kv[1], kv[0]))[:limit]
        with self._lock:
            return {
                "interval_seconds": self.interval,
                "window_seconds": self.window_seconds,
                "windows_retained": len(self._retained),
                "samples": self._samples,
                "rotations": self._rotations,
                "running": self._thread is not None,
                "started_at": self._started_at,
                "hottest": [
                    {"stack": stack, "count": count} for stack, count in rows
                ],
            }


# ----------------------------------------------------------------------
# Process-wide continuous profiler

_CONTINUOUS: ContinuousProfiler | None = None
_CONTINUOUS_LOCK = threading.Lock()


def start_continuous_profiler(
    interval: float = 0.1,
    window_seconds: float = 60.0,
    windows: int = 5,
    dump_dir: str | os.PathLike | None = None,
) -> ContinuousProfiler:
    """Get-or-create-and-start the process-wide continuous profiler."""
    global _CONTINUOUS
    with _CONTINUOUS_LOCK:
        if _CONTINUOUS is None:
            _CONTINUOUS = ContinuousProfiler(
                interval=interval,
                window_seconds=window_seconds,
                windows=windows,
                dump_dir=dump_dir,
            )
        _CONTINUOUS.start()
        return _CONTINUOUS


def get_continuous_profiler() -> ContinuousProfiler | None:
    return _CONTINUOUS


def stop_continuous_profiler() -> None:
    global _CONTINUOUS
    with _CONTINUOUS_LOCK:
        if _CONTINUOUS is not None:
            _CONTINUOUS.stop()
            _CONTINUOUS = None
