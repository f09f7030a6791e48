"""Acceptance checks for the whole pipeline, at pinned tolerances.

Each top-level test here is one acceptance criterion; the run summary
echoes one [PASS]/[FAIL] line per criterion together with the values the
test records (see conftest).  The randomized property suites are bundled
into a single criterion so they report as one line.
"""
from __future__ import annotations

import json
import math
import os
import tempfile
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import DATA, vector_of
from semdisc import (
    Weights,
    annotate,
    build_index,
    clamp_cscore,
    combine,
    cosine,
    discover,
    isub,
    load_index,
    match_categories,
    save_index,
)
from semdisc.annotator import ratio
from semdisc.cli import main
from semdisc.lexicon import Concept, Lexicon
from semdisc.registry import ServiceRecord, _index_payload
from semdisc.strsim import normalize_string
from semdisc.taxonomy import CategoryTaxonomy

TASK = "Analyze domains in protein sequences"

# Reference ranking the pipeline must reproduce:
# (service, c_score, s_score, combined score).
REFERENCE_TABLE = [
    ("GlobPlot", 0.0, 0.6934, 0.5547),
    ("Uniprot", 0.5586, 0.5427, 0.5459),
    ("Genesilico", 0.5586, 0.4725, 0.4897),
    ("Emboss tmap", 0.5586, 0.4443, 0.4671),
    ("ELMdb", 0.5586, 0.4379, 0.4621),
]


def test_score_combination_reproduces_reference_table(record_property):
    """Criterion 1: feeding the reference (c, s) pairs through the default
    combination weights reproduces the reference scores within 5e-4 and
    preserves their order."""
    weights = Weights(0.2, 0.8)
    achieved = [
        (name, combine(c_score, s_score, weights))
        for name, c_score, s_score, _ in REFERENCE_TABLE
    ]
    for (name, got), (_, _, _, want) in zip(achieved, REFERENCE_TABLE):
        assert got == pytest.approx(want, abs=5e-4), name
    scores = [value for _, value in achieved]
    assert scores == sorted(scores, reverse=True)
    record_property("scores", "; ".join(f"{n}={v:.5f}" for n, v in achieved))


def test_end_to_end_discovery_reproduces_reference_table(
    demo_index, tmp_path, capsys, monkeypatch, record_property
):
    """Criterion 2: the discover command on the calibrated demo dataset
    reproduces the full reference ranking within 1e-3 per combined score,
    in under one second."""
    for key in list(os.environ):
        if key.startswith("SEMDISC_"):
            monkeypatch.delenv(key)
    index_path = tmp_path / "demo.idx"
    save_index(demo_index, index_path)
    argv = [
        "discover",
        TASK,
        "--lexicon", str(DATA / "lexicon.tsv"),
        "--taxonomy", str(DATA / "taxonomy.txt"),
        "--index", str(index_path),
        "--format", "records",
    ]
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert elapsed < 1.0
    rows = [json.loads(line) for line in out.splitlines() if line]
    assert [r["service"] for r in rows] == [row[0] for row in REFERENCE_TABLE]
    for row, (_, _, _, want) in zip(rows, REFERENCE_TABLE):
        assert row["score"] == pytest.approx(want, abs=1e-3), row["service"]
    record_property(
        "scores", "; ".join(f"{r['service']}={r['score']:.5f}" for r in rows)
    )
    record_property("elapsed", f"{elapsed:.3f}s")


def test_worked_example_annotation(demo_lexicon, record_property):
    """Criterion 3: the example task annotates to exactly the two expected
    concepts, with weights 8 and 15 (integer word counts land the idf
    values within 0.01 of those targets)."""
    vector = annotate(TASK, demo_lexicon)
    assert vector.support() == frozenset({"C1513868", "D9000419"})
    assert vector.weights["C1513868"] == pytest.approx(8.0, abs=0.01)
    assert vector.weights["D9000419"] == pytest.approx(15.0, abs=0.01)
    assert vector.provenance["C1513868"].tf == 1
    assert vector.provenance["D9000419"].tf == 1
    record_property(
        "weights",
        f"C1513868={vector.weights['C1513868']:.6f}; "
        f"D9000419={vector.weights['D9000419']:.6f}",
    )


def test_category_match_soft_target(demo_taxonomy, record_property):
    """Criterion 4: string similarity of the example task against its best
    category lies in [0.45, 0.65] and that category ranks first; the
    achieved value is recorded rather than pinned."""
    value = isub(TASK, "Protein Sequence Analysis")
    assert 0.45 <= value <= 0.65
    matches = match_categories(TASK, demo_taxonomy)
    assert matches and matches[0].category == "Protein Sequence Analysis"
    record_property("isub", f"{value:.6f}")
    record_property("top_category", matches[0].category)


# --------------------------------------------------------------------------
# Criterion 5: randomized property suites (a)-(f).

WORD_POOL = [f"w{i}" for i in range(12)]
CATEGORY_POOL = ["Cat Alpha", "Cat Beta", "Cat Gamma", "Cat Delta"]

words_st = st.sampled_from(WORD_POOL)
word_sets_st = st.frozensets(words_st, min_size=1, max_size=5)
texts_st = st.lists(words_st, min_size=0, max_size=8).map(" ".join)
# A category name in another case, with punctuation and runs of whitespace
# for separators, plus lexicon words: normalization decides its c_score.
category_texts_st = st.builds(
    lambda name, case, sep, words: f" {sep.join(case(name).split())}{sep}{words}! ",
    st.sampled_from(CATEGORY_POOL),
    st.sampled_from([str.lower, str.upper, str.swapcase]),
    st.sampled_from([" ", "  ", "-", ", ", "\t", "_"]),
    texts_st,
)
form_st = st.lists(words_st, min_size=1, max_size=4, unique=True).map(" ".join)
concept_forms_st = st.frozensets(form_st, min_size=1, max_size=2)


def _lexicon_from(form_sets: list[frozenset[str]]) -> Lexicon:
    concepts = [Concept(f"C{i}", forms) for i, forms in enumerate(form_sets)]
    return Lexicon(concepts)


lexicon_st = st.lists(concept_forms_st, min_size=1, max_size=10).map(_lexicon_from)

free_text_st = st.text(alphabet="abcdefgh XY.,-", min_size=0, max_size=25)

vector_st = st.dictionaries(
    st.sampled_from([f"c{i}" for i in range(8)]),
    st.floats(min_value=0.1, max_value=10.0),
    min_size=1,
    max_size=6,
).map(vector_of)

record_st = st.builds(
    ServiceRecord,
    name=st.uuids().map(str),
    description=texts_st,
    tags=st.just(()),
    categories=st.lists(st.sampled_from(CATEGORY_POOL), max_size=2, unique=True).map(
        tuple
    ),
)
records_st = st.lists(record_st, min_size=1, max_size=20)

_SUITE_SETTINGS = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])
_SUITE_F_LEXICON = _lexicon_from([frozenset({"w0 w1"}), frozenset({"w2"})])


@given(lexicon=lexicon_st, form_words=word_sets_st, text_words=st.frozensets(words_st))
@settings(max_examples=1000, **_SUITE_SETTINGS)
def _suite_a_ratio_range_and_coverage(lexicon, form_words, text_words):
    value = ratio(form_words, text_words, lexicon)
    assert -1.0 <= value <= 1.0
    if form_words <= text_words:
        assert value == 1.0
    else:
        assert value < 1.0


@given(
    lexicon=lexicon_st,
    a=st.frozensets(words_st, max_size=6),
    b=st.frozensets(words_st, max_size=6),
)
@settings(max_examples=300, **_SUITE_SETTINGS)
def _suite_b_idf_additive_and_monotone(lexicon, a, b):
    b = b - a
    assert lexicon.idf(a | b) == pytest.approx(
        lexicon.idf(a) + lexicon.idf(b), rel=1e-9, abs=1e-9
    )
    assert lexicon.idf(a) <= lexicon.idf(a | b)


@given(s1=free_text_st, s2=free_text_st)
@settings(max_examples=1000, **_SUITE_SETTINGS)
def _suite_c_isub_symmetry_identity_range(s1, s2):
    value = isub(s1, s2)
    assert -1.0 <= value <= 1.0
    assert value == isub(s2, s1)
    assert isub(s1, s1) == 1.0


@given(a=vector_st, b=vector_st)
@settings(max_examples=300, **_SUITE_SETTINGS)
def _suite_d_cosine_self_and_orthogonal(a, b):
    assert cosine(a, a) == pytest.approx(1.0, abs=1e-9)
    value = cosine(a, b)
    assert 0.0 <= value <= 1.0 + 1e-9
    if not (a.support() & b.support()):
        assert value == 0.0


def _oracle_annotate(text: str, lexicon: Lexicon, threshold: float) -> dict[str, float]:
    """Exhaustive annotate: same arithmetic, no candidate prefilter."""
    words = lexicon.tokenizer(text)
    text_set = frozenset(words)
    counts = Counter(words)

    def idf(word_set) -> float:
        return math.fsum(-math.log(lexicon.probability(w)) for w in word_set)

    weights: dict[str, float] = {}
    for concept in lexicon.concepts:
        best = None
        best_form = None
        for form in sorted(
            concept.lexical_forms,
            key=lambda f: (-len(lexicon.form_words(concept.id, f)), f),
        ):
            form_words = lexicon.form_words(concept.id, form)
            form_idf = idf(form_words)
            value = (2.0 * idf(form_words & text_set) - form_idf) / form_idf
            value = min(1.0, max(-1.0, value))
            if best is None or value > best:
                best, best_form = value, form
        if best is None or best < threshold:
            continue
        form_words = lexicon.form_words(concept.id, best_form)
        tf = max(1, min((counts[w] for w in form_words), default=0))
        weights[concept.id] = tf * idf(form_words)
    return weights


def _oracle_match_categories(
    task_text: str, taxonomy: CategoryTaxonomy, min_cscore: float, top_k: int
) -> list[tuple[str, float]]:
    """Exhaustive category match: public ``isub`` against every name."""
    matches = [(name, clamp_cscore(isub(task_text, name))) for name in taxonomy.names]
    matches = [m for m in matches if m[1] >= min_cscore]
    matches.sort(key=lambda m: (-m[1], m[0]))
    return matches[:top_k]


def _oracle_discover(
    task_text: str,
    lexicon: Lexicon,
    taxonomy: CategoryTaxonomy,
    index,
    weights: Weights,
    threshold: float,
    min_cscore: float,
    top_k: int,
    top_k_categories: int,
) -> list[tuple[str, float, float, float]]:
    """Exhaustive discover: full scan over services, no posting tables."""
    task_weights = _oracle_annotate(task_text, lexicon, threshold)
    matches = _oracle_match_categories(task_text, taxonomy, min_cscore, top_k_categories)

    def norm(vec: dict[str, float]) -> float:
        return math.sqrt(math.fsum(w * w for w in vec.values()))

    rows = []
    for service in index.services:
        service_weights = dict(service.vector.weights)
        normalized = {normalize_string(c) for c in service.record.categories}
        matched = [
            score for name, score in matches if normalize_string(name) in normalized
        ]
        shared = sorted(set(task_weights) & set(service_weights))
        if not matched and not shared:
            continue
        c_score = max(matched) if matched else 0.0
        if shared:
            dot = math.fsum(task_weights[c] * service_weights[c] for c in shared)
            denom = norm(task_weights) * norm(service_weights)
            s_score = dot / denom if denom > 0.0 else 0.0
        else:
            s_score = 0.0
        rows.append(
            (service.name, c_score, s_score, c_score * weights.w1 + s_score * weights.w2)
        )
    rows.sort(key=lambda r: (-r[3], -r[2], r[0]))
    return rows[:top_k]


@given(
    lexicon=lexicon_st,
    records=records_st,
    text=st.one_of(texts_st, category_texts_st),
    threshold=st.sampled_from([-1.0, 0.0, 0.5, 0.8]),
    weight_pair=st.sampled_from([(0.2, 0.8), (0.5, 0.5), (0.0, 1.0), (1.0, 0.0)]),
)
@settings(max_examples=80, **_SUITE_SETTINGS)
def _suite_e_brute_force_equivalence(lexicon, records, text, threshold, weight_pair):
    index = build_index(records, lexicon, threshold=threshold)
    taxonomy = CategoryTaxonomy(CATEGORY_POOL)
    weights = Weights(*weight_pair)

    assert _oracle_annotate(text, lexicon, threshold) == dict(
        annotate(text, lexicon, threshold=threshold).weights
    )
    for min_cscore, top_k in ((0.0, 2), (0.4, 3)):
        assert [
            (m.category, m.c_score)
            for m in match_categories(text, taxonomy, min_cscore=min_cscore, top_k=top_k)
        ] == _oracle_match_categories(text, taxonomy, min_cscore, top_k)

    got = discover(
        text,
        lexicon,
        taxonomy,
        index,
        weights,
        min_cscore=0.0,
        top_k=25,
        top_k_categories=2,
    )
    want = _oracle_discover(
        text, lexicon, taxonomy, index, weights, threshold, 0.0, 25, 2
    )
    assert [(r.service, r.c_score, r.s_score, r.score) for r in got] == want


@given(records=records_st, data=st.data())
@settings(max_examples=50, **_SUITE_SETTINGS)
def _suite_f_index_round_trip_and_determinism(records, data):
    shuffled = data.draw(st.permutations(records))
    first = build_index(records, _SUITE_F_LEXICON)
    second = build_index(shuffled, _SUITE_F_LEXICON)
    assert _index_payload(first) == _index_payload(second)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "prop.idx"
        save_index(first, path)
        loaded = load_index(path)
        assert _index_payload(loaded) == _index_payload(first)
        assert loaded == first
        assert loaded.lexicon_fingerprint == first.lexicon_fingerprint


def test_property_suites(record_property):
    """Criterion 5: randomized invariants for the coverage ratio, idf,
    the string metric, cosine, brute-force pipeline equivalence, and
    index round-trip determinism, all within a 30 second budget."""
    start = time.perf_counter()
    _suite_a_ratio_range_and_coverage()
    _suite_b_idf_additive_and_monotone()
    _suite_c_isub_symmetry_identity_range()
    _suite_d_cosine_self_and_orthogonal()
    _suite_e_brute_force_equivalence()
    _suite_f_index_round_trip_and_determinism()
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    record_property("suites", "ratio, idf, isub, cosine, brute-force, round-trip")
    record_property("elapsed", f"{elapsed:.1f}s")


# --------------------------------------------------------------------------
# Criterion 6: threshold and weight monotonicity.


@given(
    lexicon=lexicon_st,
    text=texts_st,
    bounds=st.tuples(
        st.floats(min_value=-1.0, max_value=1.0),
        st.floats(min_value=-1.0, max_value=1.0),
    ),
)
@settings(max_examples=300, **_SUITE_SETTINGS)
def _raising_threshold_never_adds_concepts(lexicon, text, bounds):
    lo, hi = sorted(bounds)
    assert annotate(text, lexicon, threshold=hi).support() <= annotate(
        text, lexicon, threshold=lo
    ).support()


def test_threshold_and_weight_monotonicity(
    demo_lexicon, demo_taxonomy, demo_index, record_property
):
    """Criterion 6: raising the annotation threshold never adds concepts;
    w1=0 ranks purely by cosine, w1=1 purely by category score."""
    _raising_threshold_never_adds_concepts()

    cosine_order = discover(
        TASK, demo_lexicon, demo_taxonomy, demo_index, Weights(0.0, 1.0)
    )
    assert [r.service for r in cosine_order] == [
        r.service
        for r in sorted(cosine_order, key=lambda r: (-r.s_score, r.service))
    ]
    assert all(r.score == r.s_score for r in cosine_order)

    category_order = discover(
        TASK, demo_lexicon, demo_taxonomy, demo_index, Weights(1.0, 0.0)
    )
    assert [r.service for r in category_order] == [
        r.service
        for r in sorted(
            category_order, key=lambda r: (-r.c_score, -r.s_score, r.service)
        )
    ]
    assert all(r.score == r.c_score for r in category_order)
    record_property(
        "checks", "threshold monotone; w1=0 cosine order; w1=1 category order"
    )
