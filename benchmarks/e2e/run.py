"""End-to-end benchmark: cube file → store → first answer → steady
queries → ingest, with a per-layer trace.

Two ways in, one pipeline:

* one measured run, as the benchmark driver calls it (last stdout line
  is one JSON object; ``--trace 0`` → every end-to-end metric,
  ``--trace 1`` → every per-layer metric)::

      python3 benchmarks/e2e/run.py --workload serve-mix --seed 7 --seconds 8 --trace 0

* the whole report, for people: every workload ``--reps`` times with
  tracing off (medians), then one traced run each::

      python3 benchmarks/e2e/run.py [--workload NAME] [--seed 42] [--reps 3] [--smoke] [--check-repeat]

Metric names, units and regression bounds live in ``BENCHMARK.json``
at the repo root and nowhere else; a run that emits a different set of
names fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
    sys.exit(f"benchmarks/e2e: no program to measure under {ROOT} (src/repro, BENCHMARK.json)")
# Run as a script, sys.path[0] is this directory, where trace.py would
# shadow the standard library's; import siblings as benchmarks.e2e.*.
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.e2e import layers, pipeline  # noqa: E402
from benchmarks.e2e import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_SECONDS = 2.0


def spec_metrics(kind: str) -> dict[str, dict]:
    return {m["name"]: m for m in SPEC[kind]}


def with_units(kind: str, values: dict[str, float]) -> dict:
    """Attach units; the emitted and the declared names must be equal."""
    declared = spec_metrics(kind)
    if set(values) != set(declared):
        raise pipeline.BenchmarkError(
            f"{kind}: emitted/declared metric names differ: "
            f"{sorted(set(values) ^ set(declared))}"
        )
    return {name: {"value": values[name], "unit": declared[name]["unit"]} for name in declared}


def host_facts(**extra) -> dict:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        **extra,
    }


class WorkDirs:
    """Fresh work dirs under one temp root inside the checkout, removed
    at exit."""

    def __enter__(self):
        OUT.mkdir(exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
        self.made = 0
        return self

    def fresh(self) -> Path:
        self.made += 1
        path = self.root / f"run-{self.made:03d}"
        path.mkdir()
        return path

    def __exit__(self, *exc):
        shutil.rmtree(self.root, ignore_errors=True)


# ----------------------------------------------------------------------
# One run (driver mode)
# ----------------------------------------------------------------------
def one_run(name: str, args, traced: bool, dirs: WorkDirs):
    """Returns ``(RunResult, per-layer dict or None)``; fails if the
    emitted metric names are not exactly the declared ones."""
    workload = wl.scaled(wl.WORKLOADS[name], args.smoke)
    workdir = dirs.fresh()
    layer = None
    try:
        if traced:
            run, layer, rec = layers.run_traced(workload, args.seed, args.seconds, workdir)
            rec.dump(OUT / f"trace-{name}.jsonl")
            with_units("per_layer", layer)
        else:
            run, _ = pipeline.run_pipeline(workload, args.seed, args.seconds, workdir)
        with_units("end_to_end", run.metrics)
        return run, layer
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def driver_line(run: pipeline.RunResult, layer: dict | None) -> str:
    metrics = with_units("per_layer", layer) if layer is not None else with_units("end_to_end", run.metrics)
    return json.dumps(
        {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    )


# ----------------------------------------------------------------------
# The report (suite mode)
# ----------------------------------------------------------------------
def _print_rows(kind: str, values: dict[str, float], notes: dict[str, str] | None = None) -> None:
    for name, meta in spec_metrics(kind).items():
        note = (notes or {}).get(name, "")
        print(f"  {name:<38} {values[name]:>16.6g} {meta['unit']:<6} {note}")


def _percentile_notes(facts: dict) -> dict[str, str]:
    """Sample counts, and a flag where the ten-beyond rule is not met."""
    counts = {"query_p90_ms": "query_samples", "insert_visible_p90_ms": "insert_samples",
              "read_under_write_p90_ms": "read_samples"}
    notes = {}
    for metric, key in counts.items():
        n = facts[key]
        short = "" if pipeline.percentile_supported(n, 90) else "  (< 10 samples beyond p90)"
        notes[metric] = f"n={n}{short}"
    return notes


def run_set(names: list[str], args, dirs: WorkDirs) -> dict:
    """Every named workload ``reps`` times untraced; medians per metric."""
    out = {}
    for name in names:
        runs = [one_run(name, args, False, dirs)[0] for _ in range(args.reps)]
        medians = {m: statistics.median(r.metrics[m] for r in runs) for m in spec_metrics("end_to_end")}
        out[name] = {
            "medians": medians,
            "runs": [r.metrics for r in runs],
            "attempted": sum(r.attempted for r in runs),
            "failed": sum(r.failed for r in runs),
            "reasons": [reason for r in runs for reason in r.reasons],
            "facts": runs[-1].facts,
        }
    return out


def print_set(results: dict) -> None:
    for name, entry in results.items():
        print(f"\n== {name}: end to end (median of {len(entry['runs'])}, tracing off) ==")
        _print_rows("end_to_end", entry["medians"], _percentile_notes(entry["facts"]))
        ratio = entry["failed"] / entry["attempted"]
        print(f"  {'failed_ops_ratio':<38} {ratio:>16.6g} {'':<6} {entry['failed']}/{entry['attempted']}")
        for reason in entry["reasons"]:
            print(f"    FAILED: {reason}")
        print(f"  pairs {entry['facts']['pairs']}  observations {entry['facts']['observations']}"
              f"  store {entry['facts']['store_bytes']} B / {entry['facts']['store_files']} files")


def check_repeat(first: dict, second: dict) -> bool:
    """Two sets of the same commit must agree within each metric's bound."""
    ok = True
    print("\n== repeat check: set 1 vs set 2, relative gap vs bound ==")
    for name in first:
        for metric, meta in spec_metrics("end_to_end").items():
            a, b = first[name]["medians"][metric], second[name]["medians"][metric]
            gap = abs(b - a) / abs(a)
            verdict = "PASS" if gap <= meta["bound"] else "UNRESOLVED"
            ok = ok and verdict == "PASS"
            print(f"  {name:<14} {metric:<26} {a:>12.5g} {b:>12.5g} {gap:>8.1%} / {meta['bound']:.0%}  {verdict}")
    return ok


def suite(args) -> int:
    names = [args.workload] if args.workload else list(wl.WORKLOADS)
    facts = host_facts(seed=args.seed, reps=args.reps, smoke=args.smoke)
    print("host:", json.dumps(facts))
    report = {"host": facts, "sets": [], "traced": {}}
    ok = True
    with WorkDirs() as dirs:
        for _ in range(2 if args.check_repeat else 1):
            results = run_set(names, args, dirs)
            print_set(results)
            report["sets"].append(results)
            ok = ok and all(entry["failed"] == 0 for entry in results.values())
        if args.check_repeat:
            ok = check_repeat(*report["sets"]) and ok
        for name in names:
            run, layer = one_run(name, args, True, dirs)
            print(f"\n== {name}: per layer (one traced run; spans in {OUT.name}/trace-{name}.jsonl) ==")
            _print_rows("per_layer", layer)
            if layer["trace.coverage_ratio"] < 0.90:
                print("    FAILED: trace.coverage_ratio < 0.90")
                ok = False
            ok = ok and run.failed == 0
            report["traced"][name] = {"per_layer": layer, "end_to_end": run.metrics, "facts": run.facts}
    (OUT / "report.json").write_text(json.dumps(report, indent=2, default=str))
    print(f"\n{'OK' if ok else 'FAILED'}: report in {OUT / 'report.json'}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=pipeline.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]),
                        help="measured seconds per run, split between the query and ingest loops")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver mode: one run, one JSON line (0 end-to-end, 1 per-layer)")
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--smoke", action="store_true", help="corpora ÷5, 2 s loops, 1 rep")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run two sets back to back; fail if any median moves more than its bound")
    args = parser.parse_args(argv)
    if args.smoke:
        args.reps, args.seconds = 1, SMOKE_SECONDS
    if args.trace is None:
        return suite(args)
    if args.workload is None:
        parser.error("--trace needs --workload")
    with WorkDirs() as dirs:
        run, layer = one_run(args.workload, args, bool(args.trace), dirs)
    for reason in run.reasons:
        print(f"FAILED: {reason}", file=sys.stderr)
    print(json.dumps(run.facts, default=str), file=sys.stderr)
    print(driver_line(run, layer))
    return 0


if __name__ == "__main__":
    sys.exit(main())
