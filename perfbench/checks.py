"""Output checks: the README reference ranking, a brute-force oracle and
the ranking digest.  Every check counts toward the run's failures."""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

from semdisc import ranker, strsim
from semdisc.annotator import annotate
from semdisc.lexicon import load_lexicon
from semdisc.registry import build_index, ingest_registry
from semdisc.taxonomy import DEFAULT_MIN_CSCORE, DEFAULT_TOP_K_CATEGORIES, load_taxonomy

REFERENCE_TASK = "Analyze domains in protein sequences"
# The ranking the README shows for the demo data: (service, score).
REFERENCE_RANKING = (
    ("GlobPlot", 0.5547),
    ("Uniprot", 0.5465),
    ("Genesilico", 0.4903),
    ("Emboss tmap", 0.4678),
    ("ELMdb", 0.4627),
)
REFERENCE_TOLERANCE = 1e-3
ORACLE_TOLERANCE = 1e-9


def reference_problems(data_dir: Path) -> list[str]:
    """Differences between ``discover`` on the demo data and the README."""
    lexicon = load_lexicon(data_dir / "lexicon.tsv")
    taxonomy = load_taxonomy(data_dir / "taxonomy.txt")
    index = build_index(ingest_registry(data_dir / "services.jsonl"), lexicon)
    got = [(r.service, r.score) for r in ranker.discover(REFERENCE_TASK, lexicon, taxonomy, index)]
    if [s for s, _ in got] != [s for s, _ in REFERENCE_RANKING]:
        return [f"reference order {[s for s, _ in got]}"]
    return [
        f"reference score {name}: {score:.5f} != {want}"
        for (name, score), (_, want) in zip(got, REFERENCE_RANKING)
        if abs(score - want) > REFERENCE_TOLERANCE
    ]


def oracle_ranking(text, lexicon, taxonomy, index) -> list[tuple[str, float, float, float]]:
    """Top-k by brute force: ISub against every category, cosine against
    every service, the default weights and tie rules of ``discover``."""
    scored = sorted(
        (-strsim.clamp_cscore(strsim.isub(text, name)), name) for name in taxonomy.names
    )
    matched = {
        strsim.normalize_string(name): -neg
        for neg, name in scored[:DEFAULT_TOP_K_CATEGORIES]
        if -neg >= DEFAULT_MIN_CSCORE
    }
    vector = annotate(text, lexicon)
    weights = ranker.Weights()
    rows = []
    for service in index.services:
        c_scores = [matched[c] for c in service.normalized_categories() if c in matched]
        c_score = max(c_scores, default=0.0)
        s_score = ranker.cosine(vector, service.vector)
        if c_scores or s_score > 0.0:
            score = c_score * weights.w1 + s_score * weights.w2
            rows.append((service.name, c_score, s_score, score))
    rows.sort(key=lambda r: (-r[3], -r[2], r[0]))
    return rows[: ranker.DEFAULT_TOP_K]


def oracle_agrees(results, expected) -> bool:
    if [r.service for r in results] != [e[0] for e in expected]:
        return False
    return all(
        abs(r.c_score - c) <= ORACLE_TOLERANCE
        and abs(r.s_score - s) <= ORACLE_TOLERANCE
        and abs(r.score - score) <= ORACLE_TOLERANCE
        for r, (_, c, s, score) in zip(results, expected)
    )


def ranking_digest(rankings, cli_output: str, index_hashes: list[str]) -> str:
    """SHA-256 over every task's ranking at full precision, the CLI output
    and the bytes of every index built."""
    digest = hashlib.sha256()
    for results in rankings:
        rows = [
            [r.service, sorted(r.shared_annotations), r.c_score, r.s_score, r.score]
            for r in results or ()
        ]
        digest.update(json.dumps(rows).encode())
    digest.update(cli_output.encode())
    for value in index_hashes:
        digest.update(value.encode())
    return digest.hexdigest()
