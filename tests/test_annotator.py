"""Annotation scoring: coverage ratio, form selection, semantic vectors."""
from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from semdisc.annotator import (
    DEFAULT_THRESHOLD,
    Annotation,
    SemanticVector,
    UndefinedScoreError,
    annotate,
    cw,
    missing,
    ratio,
    sim,
    term_frequency,
)
from semdisc.lexicon import Concept, Lexicon
from semdisc.registry import annotation_text
from semdisc.requirements import parse_requirements, tasks

from conftest import DATA


@pytest.fixture()
def toy_lexicon():
    """Two words with idf targets 3 and 1 (to float precision)."""
    return Lexicon(
        concepts=[Concept("X", frozenset({"alpha beta"}))],
        word_prob={"alpha": math.exp(-3.0), "beta": math.exp(-1.0)},
        unseen_prob=0.5,
    )


class TestRatio:
    def test_half_coverage_oracle(self, toy_lexicon):
        # idf(form) = 3 + 1 = 4, idf(shared) = 3 when only "alpha" is in
        # the text: ratio = (2*3 - 4) / 4 = 0.5.
        value = ratio({"alpha", "beta"}, {"alpha", "other"}, toy_lexicon)
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_full_coverage_is_exactly_one(self, mini_lexicon):
        assert ratio({"tree", "topology"}, {"tree", "topology", "x"}, mini_lexicon) == 1.0

    def test_no_coverage_is_exactly_minus_one(self, mini_lexicon):
        assert ratio({"tree"}, {"unrelated"}, mini_lexicon) == -1.0

    def test_zero_information_form_raises(self):
        lex = Lexicon(
            concepts=[Concept("X", frozenset({"the"}))],
            word_prob={"the": 1.0},
            unseen_prob=0.5,
        )
        with pytest.raises(UndefinedScoreError):
            ratio({"the"}, {"the"}, lex)

    def test_missing_never_negative(self, mini_lexicon):
        assert missing({"tree"}, {"tree"}, mini_lexicon) == 0.0
        assert missing({"tree", "topology"}, {"tree"}, mini_lexicon) > 0.0

    def test_cw_intersection(self):
        assert cw({"a", "b"}, {"b", "c"}) == frozenset({"b"})


class TestSim:
    def test_prefers_form_with_more_words_on_tie(self, mini_lexicon):
        concept = mini_lexicon.concept("C0000003")  # forms: tree, tree topology
        match = sim(concept, {"tree", "topology"}, mini_lexicon)
        assert match is not None
        assert match.form == "tree topology"
        assert match.similarity == 1.0

    def test_single_word_beats_partial_long_form(self, mini_lexicon):
        match = sim(mini_lexicon.concept("C0000003"), {"tree"}, mini_lexicon)
        assert match is not None
        assert match.form == "tree"
        assert match.similarity == 1.0
        assert match.matched_words == frozenset({"tree"})

    def test_lexicographic_tiebreak_on_equal_length(self):
        lex = Lexicon.from_concepts(
            [Concept("X", frozenset({"beta alpha", "alpha beta"}))]
        )
        # Both forms have the same word set, hence equal similarity; the
        # lexicographically smaller form wins.
        match = sim(lex.concept("X"), {"alpha", "beta"}, lex)
        assert match.form == "alpha beta"

    def test_returns_none_when_all_forms_unscoreable(self, caplog):
        lex = Lexicon(
            concepts=[Concept("X", frozenset({"the"}))],
            word_prob={"the": 1.0},
            unseen_prob=0.5,
        )
        with caplog.at_level("WARNING"):
            assert sim(lex.concept("X"), {"the"}, lex) is None
        assert "zero-information" in caplog.text


class TestTermFrequency:
    def test_counts_whole_set_containment(self):
        words = ["tree", "tree", "topology", "tree"]
        assert term_frequency({"tree", "topology"}, words) == 1
        assert term_frequency({"tree"}, words) == 3

    def test_floors_at_one(self):
        assert term_frequency({"tree"}, ["unrelated"]) == 1


class TestSemanticVector:
    def test_rejects_non_positive_weight(self):
        with pytest.raises(ValueError):
            SemanticVector(weights={"C1": 0.0})

    @pytest.mark.parametrize("weight", [math.nan, math.inf])
    def test_rejects_non_finite_weight(self, weight):
        with pytest.raises(ValueError, match="non-finite weight"):
            SemanticVector(weights={"C1": weight})

    def test_norm(self):
        vec = SemanticVector(weights={"a": 3.0, "b": 4.0})
        assert vec.norm() == pytest.approx(5.0, abs=0)

    def test_truthiness(self):
        assert not SemanticVector(weights={})
        assert SemanticVector(weights={"a": 1.0})

    def test_weight_property(self):
        entry = Annotation(
            concept_id="C1",
            lexical_form="tree",
            similarity=1.0,
            tf=2,
            idf_value=1.25,
            matched_words=frozenset({"tree"}),
        )
        assert entry.weight == 2.5


class TestAnnotate:
    def test_mini_oracle(self, mini_lexicon):
        # Hand-checked against the fixture counts (denominator 14):
        #   C0000002 "phylogenetic tree": ln(14/2) + ln(14/4)
        #   C0000003 best form "tree":    ln(14/4)
        vec = annotate("build a phylogenetic tree", mini_lexicon)
        assert vec.support() == frozenset({"C0000002", "C0000003"})
        assert vec.weights["C0000002"] == pytest.approx(
            math.log(14 / 2) + math.log(14 / 4), rel=1e-12
        )
        assert vec.weights["C0000003"] == pytest.approx(math.log(14 / 4), rel=1e-12)

    def test_term_frequency_scales_weight(self, mini_lexicon):
        vec = annotate("tree tree", mini_lexicon)
        assert vec.provenance["C0000003"].tf == 2
        assert vec.weights["C0000003"] == pytest.approx(2 * math.log(14 / 4), rel=1e-12)

    def test_word_order_invariant(self, mini_lexicon):
        a = annotate("phylogenetic tree topology", mini_lexicon)
        b = annotate("topology tree phylogenetic", mini_lexicon)
        assert a.weights == b.weights

    def test_empty_text(self, mini_lexicon):
        assert not annotate("", mini_lexicon)

    def test_unknown_text(self, mini_lexicon):
        assert not annotate("completely unrelated words", mini_lexicon)

    def test_threshold_validation(self, mini_lexicon):
        with pytest.raises(ValueError):
            annotate("tree", mini_lexicon, threshold=1.5)

    def test_threshold_boundary_inclusive(self, toy_lexicon):
        # The concept's only form scores 0.5 against this text.
        assert annotate("alpha other", toy_lexicon, threshold=0.49).support() == {"X"}
        assert not annotate("alpha other", toy_lexicon, threshold=0.51)

    def test_floor_threshold_scans_all_concepts(self, mini_lexicon):
        # At threshold -1 even concepts sharing no word are admitted,
        # each weighted by its best form's full information content.
        vec = annotate("nothing shared here", mini_lexicon, threshold=-1.0)
        assert vec.support() == frozenset({"C0000001", "C0000002", "C0000003"})
        assert all(a.similarity == -1.0 for a in vec.provenance.values())
        assert all(a.tf == 1 for a in vec.provenance.values())

    def test_provenance_records_winning_form(self, mini_lexicon):
        vec = annotate("sequence alignment data", mini_lexicon)
        entry = vec.provenance["C0000001"]
        assert entry.lexical_form == "sequence alignment"
        assert entry.matched_words == frozenset({"sequence", "alignment"})
        assert entry.similarity == 1.0

    def test_demo_worked_example(self, demo_lexicon):
        vec = annotate("Analyze domains in protein sequences", demo_lexicon)
        assert vec.support() == frozenset({"C1513868", "D9000419"})
        assert vec.weights["C1513868"] == pytest.approx(8.0, abs=0.01)
        assert vec.weights["D9000419"] == pytest.approx(15.0, abs=0.01)

    def test_tie_prefers_more_words_then_lexicographic(self):
        lex = Lexicon(
            concepts=[
                Concept("X", frozenset({"beta alpha", "alpha beta", "alpha"})),
                Concept("Y", frozenset({"beta", "alpha"})),
            ],
            word_prob={"alpha": 0.5, "beta": 0.5},
            unseen_prob=0.5,
        )
        vec = annotate("beta alpha", lex)
        assert vec.provenance["X"].lexical_form == "alpha beta"
        assert vec.provenance["Y"].lexical_form == "alpha"

    def test_zero_information_form_warns_once_per_lexicon(self, caplog):
        lex = Lexicon(
            concepts=[
                Concept("X", frozenset({"the"})),
                Concept("Y", frozenset({"the tree", "tree"})),
            ],
            word_prob={"the": 1.0, "tree": 0.5},
            unseen_prob=0.5,
        )
        with caplog.at_level("WARNING"):
            first = annotate("the tree", lex)
            second = annotate("the tree", lex)
        warnings = [r for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1
        assert "zero-information" in warnings[0].getMessage()
        assert first.provenance == second.provenance
        assert first.support() == {"Y"}


def _reference_provenance(
    text: str, lexicon: Lexicon, threshold: float = DEFAULT_THRESHOLD
) -> dict[str, tuple]:
    """annotate() rebuilt from sim(), term_frequency and Lexicon.idf."""
    words = lexicon.tokenizer(text)
    text_set = frozenset(words)
    out = {}
    for concept in lexicon.concepts:
        match = sim(concept, text_set, lexicon)
        if match is None or match.similarity < threshold:
            continue
        form_words = lexicon.form_words(concept.id, match.form)
        out[concept.id] = (
            match.form,
            match.similarity,
            term_frequency(form_words, words),
            lexicon.idf(form_words),
            match.matched_words,
        )
    return out


def _provenance_fields(text: str, lexicon: Lexicon, threshold: float) -> dict[str, tuple]:
    vec = annotate(text, lexicon, threshold=threshold)
    assert list(vec.weights) == sorted(vec.provenance)
    for cid, entry in vec.provenance.items():
        assert entry.concept_id == cid
        assert vec.weights[cid] == entry.tf * entry.idf_value
    return {
        cid: (a.lexical_form, a.similarity, a.tf, a.idf_value, a.matched_words)
        for cid, a in vec.provenance.items()
    }


def _demo_texts(demo_records) -> list[str]:
    outline = parse_requirements(DATA / "requirements.txt")
    return [annotation_text(r) for r in demo_records] + [
        t.description for t in tasks(outline)
    ]


class TestAnnotateMatchesSim:
    """annotate's provenance equals, field by field and bit for bit, a
    reference that scores every concept with sim()."""

    @pytest.mark.parametrize("threshold", [DEFAULT_THRESHOLD, 0.3])
    def test_demo_services_and_tasks(self, demo_lexicon, demo_records, threshold):
        texts = _demo_texts(demo_records)
        assert len(texts) > len(demo_records)
        for text in texts:
            assert _provenance_fields(text, demo_lexicon, threshold) == (
                _reference_provenance(text, demo_lexicon, threshold)
            ), text

    def test_demo_floor_threshold(self, demo_lexicon, demo_records):
        text = _demo_texts(demo_records)[0]
        assert _provenance_fields(text, demo_lexicon, -1.0) == (
            _reference_provenance(text, demo_lexicon, -1.0)
        )

    # Few words and small forms, so forms of one concept often tie:
    # permutations ("alpha beta" / "beta alpha"), and one-word and
    # two-word forms that the same text covers in full.
    _words = st.sampled_from(["alpha", "beta", "gamma", "delta"])
    _form = st.lists(_words, min_size=1, max_size=3, unique=True).map(" ".join)
    _concepts = st.lists(st.frozensets(_form, min_size=1, max_size=4), min_size=1, max_size=8)

    @given(
        form_sets=_concepts,
        # None estimates probabilities from the forms; otherwise one value
        # per word, where equal values force ties and 1.0 makes
        # zero-information forms.
        probs=st.none() | st.lists(st.sampled_from([0.5, 0.25, 1.0]), min_size=4, max_size=4),
        text=st.lists(_words | st.just("other"), max_size=6).map(" ".join),
        threshold=st.sampled_from([-1.0, 0.0, 0.5, DEFAULT_THRESHOLD, 1.0]),
    )
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_tie_prone_lexicons(self, form_sets, probs, text, threshold):
        concepts = [Concept(f"C{i}", forms) for i, forms in enumerate(form_sets)]
        if probs is None:
            lexicon = Lexicon.from_concepts(concepts)
        else:
            words = ["alpha", "beta", "gamma", "delta"]
            lexicon = Lexicon(concepts, dict(zip(words, probs)), unseen_prob=0.5)
        assert _provenance_fields(text, lexicon, threshold) == (
            _reference_provenance(text, lexicon, threshold)
        )
