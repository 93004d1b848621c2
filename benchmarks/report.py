"""Standalone harness: regenerate every table/figure series as text.

Prints the rows/series the paper reports (execution times per method
and input size, clustering recall, cube ratios, pre-fetch speed-up),
at laptop scale.  Used to produce EXPERIMENTS.md.

Run with::

    python benchmarks/report.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.core import CubeLattice, compute_baseline, compute_cubemask
from repro.paper.cluster_method import compute_clustering
from repro.paper.rules_method import compute_rules
from repro.paper.sparql_method import compute_sparql
from repro.core.space import ObservationSpace
from repro.data.realworld import REALWORLD_PROFILES, build_realworld_cubespace, standard_hierarchies
from repro.data.synthetic import build_synthetic_space


def timed(fn):
    started = time.perf_counter()
    result = fn()
    return time.perf_counter() - started, result


def header(title: str) -> None:
    print(f"\n=== {title} " + "=" * max(0, 60 - len(title)))


def figure_5abc(space: ObservationSpace, sizes, comparator_sizes, rules_sizes) -> None:
    # One merged size axis: the comparators' small sizes plus the native
    # methods' sweep, so every method shows its feasible range.
    all_sizes = sorted(set(sizes) | set(comparator_sizes) | set(rules_sizes))
    for figure, target in (("5a complementarity", "complementary"),
                           ("5b full containment", "full"),
                           ("5c partial containment", "partial")):
        header(f"Figure {figure}: execution time (s)")
        print(f"{'n':>6} {'baseline':>10} {'clustering':>11} {'cubeMasking':>12} {'SPARQL':>10} {'rules':>10}")
        for n in all_sizes:
            subset = space.subset(n)
            opts = {"targets": (target,), "collect_partial_dimensions": False}
            t_base, _ = timed(lambda: compute_baseline(subset, **opts))
            t_clus, _ = timed(lambda: compute_clustering(subset, seed=0, **opts))
            t_mask, _ = timed(lambda: compute_cubemask(subset, targets=(target,)))
            if n <= max(comparator_sizes):
                t_sparql, _ = timed(lambda: compute_sparql(subset, targets=(target,)))
                sparql_text = f"{t_sparql:>10.3f}"
            else:
                sparql_text = f"{'timeout':>10}"
            if n <= max(rules_sizes):
                t_rules, _ = timed(lambda: compute_rules(subset, targets=(target,)))
                rules_text = f"{t_rules:>10.3f}"
            else:
                rules_text = f"{'o/m':>10}"
            print(f"{n:>6} {t_base:>10.3f} {t_clus:>11.3f} {t_mask:>12.3f} {sparql_text} {rules_text}")


def figure_5d(space: ObservationSpace, sizes) -> None:
    header("Figure 5d: clustering recall (overall) vs input size")
    print(f"{'n':>6} {'x-means':>9} {'canopy':>9} {'hierarchical':>13}")
    for n in sizes:
        subset = space.subset(n)
        truth = compute_baseline(subset, collect_partial_dimensions=False)
        row = [f"{n:>6}"]
        for algorithm in ("xmeans", "canopy", "hierarchical"):
            result = compute_clustering(
                subset, algorithm=algorithm, sample_rate=0.1, seed=7,
                collect_partial_dimensions=False,
            )
            recall = result.recall_against(truth).overall
            row.append(f"{recall:>9.3f}" if algorithm != "hierarchical" else f"{recall:>13.3f}")
        print(" ".join(row))


def figure_5e(sizes) -> None:
    header("Figure 5e: log-log scalability (synthetic)")
    print(f"{'n':>6} {'baseline':>10} {'clustering':>11} {'cubeMasking':>12} {'mask comparisons':>17} {'vs n^2':>8}")
    times = {}
    for n in sizes:
        space = build_synthetic_space(n, dimension_count=4, seed=42)
        t_base, _ = timed(lambda: compute_baseline(space, targets=("full", "complementary")))
        t_clus, _ = timed(lambda: compute_clustering(space, targets=("full", "complementary"), seed=0))
        stats: dict = {}
        t_mask, _ = timed(
            lambda: compute_cubemask(space, targets=("full", "complementary"), stats=stats)
        )
        times[n] = (t_base, t_clus, t_mask)
        saving = stats["instance_comparisons"] / (n * n)
        print(
            f"{n:>6} {t_base:>10.3f} {t_clus:>11.3f} {t_mask:>12.3f} "
            f"{stats['instance_comparisons']:>17,} {saving:>8.2%}"
        )
    if len(sizes) >= 2:
        import math

        lo, hi = sizes[0], sizes[-1]
        print("\nEmpirical log-log slopes (paper: baseline ≈ 2):")
        for label, index in (("baseline", 0), ("clustering", 1), ("cubeMasking", 2)):
            slope = math.log(times[hi][index] / max(times[lo][index], 1e-9)) / math.log(hi / lo)
            print(f"  {label:<12} {slope:.2f}")


def figure_5f(space: ObservationSpace, sizes) -> None:
    header("Figure 5f: cubes per observation (decreasing)")
    print(f"{'n':>6} {'cubes':>7} {'ratio':>8}")
    for n in sizes:
        lattice = CubeLattice(space.subset(n))
        print(f"{n:>6} {len(lattice):>7} {lattice.cube_ratio:>8.4f}")


def figure_5g(space: ObservationSpace, sizes) -> None:
    header("Figure 5g: children pre-fetching vs normal (full containment)")
    print(f"{'n':>6} {'prefetch':>10} {'normal':>10} {'ratio':>7}")
    targets = ("full", "complementary")
    for n in sizes:
        subset = space.subset(n)
        t_pre = min(
            timed(lambda: compute_cubemask(subset, prefetch_children=True, targets=targets))[0]
            for _ in range(3)
        )
        t_norm = min(
            timed(lambda: compute_cubemask(subset, prefetch_children=False, targets=targets))[0]
            for _ in range(3)
        )
        print(f"{n:>6} {t_pre:>10.3f} {t_norm:>10.3f} {t_pre / max(t_norm, 1e-9):>7.2f}")


def ablations(space: ObservationSpace) -> None:
    from repro.paper.hybrid import compute_hybrid
    from repro.core.matrix import OccurrenceMatrix

    header("Ablation: bit-matrix backend (OCM at n=400)")
    subset = space.subset(400)
    for backend in ("numpy", "python"):
        matrix = OccurrenceMatrix(subset, backend=backend)
        t, _ = timed(lambda: matrix.compute_ocm(keep_cms=False))
        print(f"  {backend:<8} {t:.3f}s")

    header("Ablation: cube density (§4.2 caveat, synthetic n=800)")
    print(f"{'alpha':>6} {'cubes':>6} {'cubeMasking':>12} {'baseline':>10}")
    for alpha in (0.3, 0.55, 0.85):
        synthetic = build_synthetic_space(800, dimension_count=4, seed=7, alpha=alpha)
        stats: dict = {}
        t_mask, _ = timed(
            lambda: compute_cubemask(synthetic, targets=("full", "complementary"), stats=stats)
        )
        t_base, _ = timed(
            lambda: compute_baseline(synthetic, targets=("full", "complementary"))
        )
        print(f"{alpha:>6} {stats['cubes']:>6} {t_mask:>12.3f} {t_base:>10.3f}")

    header("Extension: hybrid vs pure methods (all targets, n=400)")
    truth = compute_baseline(subset, collect_partial_dimensions=False)
    for label, fn in (
        ("baseline", lambda: compute_baseline(subset, collect_partial_dimensions=False)),
        ("cubeMasking", lambda: compute_cubemask(subset)),
        ("clustering", lambda: compute_clustering(subset, seed=3, collect_partial_dimensions=False)),
        ("hybrid", lambda: compute_hybrid(subset, seed=3)),
    ):
        t, result = timed(fn)
        recall = result.recall_against(truth)
        print(
            f"  {label:<12} {t:>7.3f}s  recall full={recall.full:.2f} "
            f"partial={recall.partial:.2f} compl={recall.complementary:.2f}"
        )


def table_4() -> None:
    header("Table 4: dataset profile (emulated)")
    print(f"{'dataset':>8} {'paper #obs':>11} {'dims':>5} measure")
    for profile in REALWORLD_PROFILES:
        print(
            f"{profile.name:>8} {profile.observations:>11,} {len(profile.dimensions):>5} "
            f"{profile.measure.local_name()}"
        )
    total_codes = sum(len(h) for h in standard_hierarchies().values())
    print(f"\nDistinct hierarchical codes: {total_codes} (paper: ~2.6k)")


def cluster_serve_tier() -> None:
    """Serve-tier scaling rows, read from ``BENCH_service.json``.

    The cluster sweep spawns real worker processes, so it is recorded
    once by ``bench_service_throughput.py --json BENCH_service.json``
    and replayed here rather than re-run on every report.
    """
    header("Cluster serve tier: aggregate read throughput")
    bench_path = Path(__file__).resolve().parent.parent / "BENCH_service.json"
    try:
        payload = json.loads(bench_path.read_text())
    except (OSError, json.JSONDecodeError):
        print(
            "no BENCH_service.json — run "
            "`PYTHONPATH=src python benchmarks/bench_service_throughput.py "
            "--json BENCH_service.json` to record the sweep"
        )
        return
    cluster = payload.get("cluster")
    if not cluster:
        print("BENCH_service.json has no cluster sweep (recorded with --no-cluster)")
        return
    print(
        f"{cluster['clients']} clients x {cluster['per_client']} point lookups, "
        f"n={cluster['n']}, {cluster['cpus']} cpu"
    )
    print(f"{'tier':>10} {'qps':>9} {'p50 ms':>8} {'p99 ms':>8} {'vs single':>10}")
    base = cluster["tiers"].get("single", {}).get("qps") or 1.0
    for tier, row in cluster["tiers"].items():
        print(
            f"{tier:>10} {row['qps']:>9.0f} {row['p50_ms']:>8.2f} "
            f"{row['p99_ms']:>8.2f} {row['qps'] / base:>9.2f}x"
        )


def streaming_ingest() -> None:
    """Ingest-throughput rows, read from ``BENCH_stream.json``.

    The streaming benchmark drives a live server with concurrent
    readers, so it is recorded once by ``bench_stream.py --json
    BENCH_stream.json`` and replayed here rather than re-run on every
    report.
    """
    header("Streaming ingest: sustained obs/sec with concurrent reads")
    bench_path = Path(__file__).resolve().parent.parent / "BENCH_stream.json"
    try:
        payload = json.loads(bench_path.read_text())
    except (OSError, json.JSONDecodeError):
        print(
            "no BENCH_stream.json — run "
            "`PYTHONPATH=src python benchmarks/bench_stream.py "
            "--json BENCH_stream.json` to record the sweep"
        )
        return
    feed = payload.get("feed") or {}
    ingest = payload.get("ingest") or {}
    if feed:
        print(
            f"changefeed: {feed['publish_per_s']:>8.0f} publish/s (fsync per "
            f"append), {feed['replay_per_s']:>8.0f} replay/s over {feed['n']} records"
        )
    if ingest:
        print(
            f"{'base n':>8} {'streamed':>9} {'obs/s':>8} {'p50 ms':>8} "
            f"{'p99 ms':>8} {'readers':>8} {'read qps':>9}"
        )
        print(
            f"{ingest['n_base']:>8} {ingest['n_stream']:>9} "
            f"{ingest['obs_per_sec']:>8.0f} {ingest['batch_p50_ms']:>8.1f} "
            f"{ingest['batch_p99_ms']:>8.1f} {ingest['readers']:>8} "
            f"{ingest['reader_qps']:>9.0f}"
        )


def telemetry_overhead() -> None:
    """Telemetry-cost rows, read from ``BENCH_obs.json``.

    The overhead probe drives a live server and paired kernel runs,
    so it is recorded once by ``bench_obs_overhead.py --json
    BENCH_obs.json`` and replayed here.
    """
    header("Telemetry overhead: always-on observability cost")
    bench_path = Path(__file__).resolve().parent.parent / "BENCH_obs.json"
    try:
        payload = json.loads(bench_path.read_text())
    except (OSError, json.JSONDecodeError):
        print(
            "no BENCH_obs.json — run "
            "`PYTHONPATH=src python benchmarks/bench_obs_overhead.py "
            "--json BENCH_obs.json` to record it"
        )
        return
    kernel = payload.get("kernel") or {}
    service = payload.get("service") or {}
    budget = payload.get("budget_pct", 5.0)
    print(f"{'probe':>10} {'bare':>14} {'telemetry on':>14} {'overhead':>9}")
    if kernel:
        print(
            f"{'kernel':>10} {kernel['pairs_per_s_off']:>12.0f}/s "
            f"{kernel['pairs_per_s_on']:>12.0f}/s "
            f"{kernel['overhead_pct']:>+8.1f}%"
        )
    if service:
        print(
            f"{'service':>10} {service['requests_per_s_off']:>12.0f}/s "
            f"{service['requests_per_s_on']:>12.0f}/s "
            f"{service['overhead_pct']:>+8.1f}%"
        )
    verdict = "within" if payload.get("within_budget") else "EXCEEDS"
    print(f"({payload.get('cpus')} cpu; {verdict} the {budget:.0f}% budget)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="smaller sweeps")
    args = parser.parse_args(argv)

    if args.quick:
        sizes = (100, 200)
        synthetic_sizes = (250, 500)
        comparator_sizes = (25, 50)
        rules_sizes = (10,)
    else:
        sizes = (100, 200, 400, 800)
        synthetic_sizes = (500, 1000, 2000)
        comparator_sizes = (25, 50, 100)
        rules_sizes = (10, 20, 40)

    cube = build_realworld_cubespace(scale=0.005, seed=42)
    space = ObservationSpace.from_cubespace(cube)
    print(f"Real-world emulation corpus: {space}")

    table_4()
    figure_5abc(space, sizes, comparator_sizes, rules_sizes)
    figure_5d(space, sizes)
    figure_5e(synthetic_sizes)
    figure_5f(space, sizes)
    figure_5g(space, sizes)
    cluster_serve_tier()
    streaming_ingest()
    telemetry_overhead()
    if not args.quick:
        ablations(space)
    return 0


if __name__ == "__main__":
    sys.exit(main())
