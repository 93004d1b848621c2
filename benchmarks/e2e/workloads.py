"""The four workloads and the seeded inputs they are made of.

Every workload runs the whole pipeline — cube file → ``repro compute``
→ ``repro serve`` → first answer → steady queries → ingest beside
reads — because every end-to-end metric is reported on every workload.
They differ in where the weight falls: the shape of the corpus, the
relationship targets, the traffic mix, and how the measured seconds are
split between the query loop and the ingest loop.  ``BENCHMARK.json``
records why each one exists; ``README.md`` has the long form.

The corpus is the Table 4 emulation
(:func:`repro.data.realworld.build_realworld_cubespace`) because it is
the only generator whose Turtle output ``repro compute`` accepts; the
program under test only ever sees the files and requests made here.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from pathlib import Path
from urllib.parse import quote

from repro.data.realworld import build_realworld_cubespace
from repro.qb import CubeSpace, Dataset, Observation, cubespace_to_graph
from repro.rdf import serialize_turtle

ALL_TARGETS = ("full", "partial", "complementary")

#: ``(relation, query string, weight)`` — the six-relation serving mix.
SERVE_MIX = (
    ("containers", "", 30),
    ("contained", "", 20),
    ("complements", "", 10),
    ("related", "?k=10", 20),
    ("partial", "?k=10", 10),
    ("transitive", "?direction=up", 10),
)
POINT_MIX = (("containers", "", 50), ("contained", "", 30), ("complements", "", 20))

#: Size of the seeded hot set half the mixed requests go to; well under
#: the server's default 1024-entry cache, while the uniform half ranges
#: over every observation.
HOT_SET = 8


@dataclass(frozen=True)
class Workload:
    name: str
    scale: float
    targets: tuple[str, ...]
    holdout: int
    batch_size: int
    mix: tuple[tuple[str, str, int], ...]
    hot_share: float
    #: share of ``--seconds`` spent in the steady query loop; the rest
    #: goes to the ingest-beside-reads loop
    query_share: float
    #: passes of cube file → store → first answer per run (their
    #: timings are one-shot, so a run reports the median); fewer where
    #: one pass is long
    batch_repeats: int
    #: the ``--smoke`` variant (set by :func:`scaled`); selects its own pinned pair counts
    smoke: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("batch-wide", 0.03, ("full", "complementary"), 40, 1, POINT_MIX, 0.0, 0.3, 3),
        Workload("batch-partial", 0.006, ALL_TARGETS, 120, 1, POINT_MIX, 0.0, 0.3, 2),
        Workload("serve-mix", 0.004, ALL_TARGETS, 120, 1, SERVE_MIX, 0.5, 0.5, 3),
        Workload("ingest-read", 0.005, ALL_TARGETS, 300, 3, POINT_MIX, 0.0, 0.3, 3),
    )
}

#: The corpus generator's seed is fixed; ``--seed`` picks the hold-out,
#: the insert order, the request sequences, the hot set and the checked
#: pairs.  A corpus per seed was tried and measured as noise: the cube
#: structure moves one insert's cost by up to 3x per dataset, and the
#: server's 44 ms latency quanta turn that into 35 ms steps of the
#: insert median (spread over ten seeds 30 %, over the largest bound).
CORPUS_SEED = 42

#: ``--smoke`` shrinks every corpus by this factor (same code paths).
SMOKE_DIVISOR = 5


def scaled(workload: Workload, smoke: bool) -> Workload:
    if not smoke:
        return workload
    return replace(
        workload,
        scale=workload.scale / SMOKE_DIVISOR,
        holdout=max(workload.batch_size * 4, workload.holdout // SMOKE_DIVISOR),
        batch_repeats=1,
        smoke=True,
    )


@dataclass
class Corpus:
    """What set-up leaves behind for one run."""

    base: CubeSpace
    held: list[Observation]
    base_path: Path
    base_uris: list[str]
    setup_seconds: float


def split_holdout(cube: CubeSpace, count: int, seed: int) -> tuple[CubeSpace, list[Observation]]:
    """Seeded split: ``count`` observations leave the cube and come back
    later through ``POST /observations``."""
    observations = list(cube.observations())
    held = random.Random(seed).sample(observations, count)
    held_uris = {o.uri for o in held}
    base = CubeSpace(cube.hierarchies)
    for uri, dataset in cube.datasets.items():
        kept = Dataset(uri, dataset.schema, label=dataset.label)
        for observation in dataset:
            if observation.uri not in held_uris:
                kept.add(observation)
        base.add_dataset(kept)
    return base, held


def prepare(workload: Workload, seed: int, workdir: Path) -> Corpus:
    """Set-up: generate the corpus, split the seeded hold-out, write the
    base cube as Turtle.  Timed as ``setup_s``."""
    started = time.perf_counter()
    cube = build_realworld_cubespace(workload.scale, CORPUS_SEED)
    base, held = split_holdout(cube, workload.holdout, seed)
    base_path = workdir / "base.ttl"
    base_path.write_text(serialize_turtle(cubespace_to_graph(base)))
    elapsed = time.perf_counter() - started
    return Corpus(base, held, base_path, [str(o.uri) for o in base.observations()], elapsed)


def observation_payload(batch: list[Observation]) -> dict:
    """The ``POST /observations`` body for one batch."""
    return {
        "observations": [
            {
                "uri": str(o.uri),
                "dataset": str(o.dataset),
                "dimensions": {str(d): str(c) for d, c in o.dimensions.items()},
                "measures": [str(m) for m in o.measure_set],
            }
            for o in batch
        ]
    }


def batches(workload: Workload, corpus: Corpus) -> list[list[Observation]]:
    size = workload.batch_size
    return [corpus.held[i : i + size] for i in range(0, len(corpus.held), size)]


def request_stream(workload: Workload, uris: list[str], seed: int):
    """Endless seeded ``(relation, uri, query)`` requests: the relation
    by the mix's weights, the URI from the hot set with probability
    ``hot_share`` and uniformly otherwise."""
    rng = random.Random(seed)
    hot = random.Random(seed ^ 0x5EED).sample(uris, min(HOT_SET, len(uris)))
    relations = [(relation, query) for relation, query, _ in workload.mix]
    weights = [weight for _, _, weight in workload.mix]
    while True:
        relation, query = rng.choices(relations, weights)[0]
        pool = hot if rng.random() < workload.hot_share else uris
        yield relation, rng.choice(pool), query


def request_path(relation: str, uri: str, query: str) -> str:
    return f"/observations/{quote(uri, safe='')}/{relation}{query}"
