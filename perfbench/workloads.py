"""Workload and metric definitions of the semdisc stage benchmark.

Every workload is one generated dataset (lexicon, taxonomy, registry
shards, requirements outline, task stream) on which the benchmark runs
the three operations a user of semdisc performs: building an index, the
library ``discover`` call and the ``semdisc discover --requirements``
command.  Every result line carries every end-to-end metric, so each
workload runs all three operations; the datasets differ in shape so that
a different layer does most of the work on each, and the phase shares
give the operation a workload is named for most of the measured time.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --write-manifest``); the self-test checks
that the two agree.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

RUN_SECONDS = 12

# Sample floors: a p99 needs at least ten samples beyond it, a p90 too.
MIN_DISCOVER_CALLS = 1000
MIN_CLI_CALLS = 100
# Services per timed build (worker.Run.setup).
BUILD_CHUNK = 50
SETUP_LOADS = 5
ORACLE_SAMPLE = 20


@dataclass(frozen=True)
class Shape:
    """Generator parameters of one dataset."""

    concepts: int
    vocabulary: int
    zipf_s: float
    # Words placed in many lexical forms, so texts holding them have many
    # candidate concepts (the annotator's cost driver).
    hub_words: int
    hub_word_forms: int
    categories: int
    services: int
    shards: int
    # Concepts of which every service carries two, so their posting lists
    # hold half the services or more (the ranker's cost driver).
    hub_concepts: int
    forms_per_service: tuple[int, int]
    hub_words_per_service: tuple[int, int]
    filler_per_service: tuple[int, int]
    tasks: int
    # "fragment": a category-name fragment plus one or two forms;
    # "hub": two hub-concept forms plus one ordinary form.
    task_kind: str
    outline_tasks: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shape: Shape
    # Share of the run's seconds given to each timed phase.
    shares: dict[str, float]
    # Builds of every chunk the build phase makes at least.
    build_passes: int = 1
    # CLI calls made by the fixed-work traced run, which also makes one
    # discover call per task of the stream.
    traced_cli_calls: int = 30


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="interactive_short",
            why="4-8 word tasks, 60 categories, sparse index (800 concepts, 400 "
            "services): ISub category matching (strsim/taxonomy) does most of the work",
            shape=Shape(
                concepts=800, vocabulary=3000, zipf_s=0.6,
                hub_words=0, hub_word_forms=0,
                categories=60, services=400, shards=1, hub_concepts=0,
                forms_per_service=(2, 3), hub_words_per_service=(0, 0),
                filler_per_service=(4, 6),
                tasks=300, task_kind="fragment", outline_tasks=1,
            ),
            shares={"build": 0.1, "discover": 0.55, "cli": 0.35},
        ),
        Workload(
            name="hub_concepts",
            why="720 services each carrying two of 4 hub concepts (posting lists "
            "of 360), 12 categories: the ranker does most of the work",
            shape=Shape(
                concepts=800, vocabulary=3000, zipf_s=0.6,
                hub_words=0, hub_word_forms=0,
                categories=12, services=720, shards=1, hub_concepts=4,
                forms_per_service=(1, 2), hub_words_per_service=(0, 0),
                filler_per_service=(3, 6),
                tasks=300, task_kind="hub", outline_tasks=1,
            ),
            shares={"build": 0.1, "discover": 0.55, "cli": 0.35},
        ),
        Workload(
            name="index_build",
            why="8 disjoint shards of 40 services with 40-80 word descriptions rich "
            "in hub words, built, saved and loaded: the annotator does most of the work",
            shape=Shape(
                concepts=1500, vocabulary=3000, zipf_s=0.6,
                hub_words=12, hub_word_forms=40,
                categories=12, services=320, shards=8, hub_concepts=0,
                forms_per_service=(5, 7), hub_words_per_service=(8, 10),
                filler_per_service=(25, 35),
                tasks=1000, task_kind="fragment", outline_tasks=1,
            ),
            shares={"build": 0.6, "discover": 0.1, "cli": 0.3},
            build_passes=3,
            traced_cli_calls=20,
        ),
        Workload(
            name="cli_batch",
            why="2500-concept lexicon and 1000-service index behind a 4-task outline "
            "and 12 categories: lexicon and index loading dominate each CLI call",
            shape=Shape(
                concepts=2500, vocabulary=6000, zipf_s=0.6,
                hub_words=0, hub_word_forms=0,
                categories=12, services=1000, shards=1, hub_concepts=0,
                forms_per_service=(2, 3), hub_words_per_service=(0, 0),
                filler_per_service=(4, 6),
                tasks=1000, task_kind="fragment", outline_tasks=4,
            ),
            shares={"build": 0.1, "discover": 0.15, "cli": 0.75},
        ),
    )
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None


# error_rate is not listed: it is 0 on a correct commit, so it cannot be
# a bounded metric.  The result line carries it as ``failed``/``attempted``.
# Bounds: the spread between runs on the noisy 2-core VM the benchmark
# was tuned on left no room for tighter ones on the timings; sizes and
# memory repeat closely and take tighter bounds.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("discover_p50_ms", "ms", "lower", 0.25),
    Metric("discover_p99_ms", "ms", "lower", 0.25),
    Metric("discover_qps", "1/s", "higher", 0.25),
    Metric("build_services_per_s", "1/s", "higher", 0.25),
    Metric("index_bytes_per_service", "B", "lower", 0.15),
    Metric("cli_p50_ms", "ms", "lower", 0.25),
    Metric("cli_p90_ms", "ms", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
)

PER_LAYER = tuple(
    Metric(name, unit, better)
    for name, unit, better in (
        ("lexicon.load_ms", "ms", "lower"),
        ("lexicon.forms", "count", "lower"),
        ("annotator.calls", "count", "lower"),
        ("annotator.self_ms", "ms", "lower"),
        ("annotator.candidate_concepts", "count", "lower"),
        ("annotator.candidate_forms", "count", "lower"),
        ("annotator.accepted", "count", "higher"),
        ("annotator.accept_ratio", "ratio", "higher"),
        ("taxonomy.calls", "count", "lower"),
        ("taxonomy.self_ms", "ms", "lower"),
        ("taxonomy.categories_scored", "count", "lower"),
        ("strsim.char_pairs", "count", "lower"),
        ("taxonomy.match_ratio", "ratio", "higher"),
        ("ranker.self_ms", "ms", "lower"),
        ("ranker.concept_candidates", "count", "lower"),
        ("ranker.category_candidates", "count", "lower"),
        ("ranker.shared_concepts", "count", "lower"),
        ("ranker.returned_ratio", "ratio", "higher"),
        ("registry.ingest_ms", "ms", "lower"),
        ("registry.build_ms", "ms", "lower"),
        ("registry.save_ms", "ms", "lower"),
        ("registry.load_ms", "ms", "lower"),
        ("registry.index_bytes", "B", "lower"),
        ("registry.posting_entries", "count", "lower"),
        ("registry.empty_vectors", "count", "lower"),
        ("requirements.parse_ms", "ms", "lower"),
        ("requirements.tasks", "count", "lower"),
        ("cli.main_ms", "ms", "lower"),
        ("cli.self_ms", "ms", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    )
)

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def manifest() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
