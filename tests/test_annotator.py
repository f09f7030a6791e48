"""Annotation scoring: coverage ratio, form selection, semantic vectors."""
from __future__ import annotations

import ast
import copy
import math
import pickle
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from semdisc import annotator
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
from semdisc.lexicon import Concept, Lexicon, load_lexicon, normalize
from semdisc.registry import annotation_text
from semdisc.requirements import parse_requirements, tasks

from conftest import DATA, vector_of


@pytest.fixture()
def toy_lexicon():
    """Counts alpha 1 and beta 2 over 3 tokens and 2 words: denominator 6,
    so P(alpha) = 2/6 and P(beta) = 3/6, idf ln 3 and ln 2."""
    return Lexicon([Concept("X", frozenset({"alpha beta"})), Concept("Y", frozenset({"beta"}))])


# ratio of X's form "alpha beta" against a text holding only "alpha":
# idf(form) = ln 3 + ln 2 = ln 6 and idf(shared) = ln 3, so
# (2 ln 3 - ln 6) / ln 6 = ln(3/2) / ln 6.
TOY_HALF_COVERAGE = math.log(3 / 2) / math.log(6)


class TestRatio:
    def test_half_coverage_oracle(self, toy_lexicon):
        value = ratio({"alpha", "beta"}, {"alpha", "other"}, toy_lexicon)
        assert value == pytest.approx(TOY_HALF_COVERAGE, abs=1e-12)

    def test_full_coverage_is_exactly_one(self, mini_lexicon):
        assert ratio({"tree", "topology"}, {"tree", "topology", "x"}, mini_lexicon) == 1.0

    def test_no_coverage_is_exactly_minus_one(self, mini_lexicon):
        assert ratio({"tree"}, {"unrelated"}, mini_lexicon) == -1.0

    def test_zero_information_form_raises(self, mini_lexicon):
        # An empty word set is the one form with no information.
        with pytest.raises(UndefinedScoreError):
            ratio(frozenset(), {"tree"}, mini_lexicon)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_missing_never_negative(self, mini_lexicon, data):
        assert missing({"tree"}, {"tree"}, mini_lexicon) == 0.0
        assert missing({"tree", "topology"}, {"tree"}, mini_lexicon) > 0.0
        # No clamp keeps either value in range, so draw lexicons of 1- to
        # 30-word forms whose words repeat across forms, skewing their
        # probabilities, and texts that may hold words the lexicon lacks.
        vocab = [f"w{i}" for i in range(40)]
        forms = data.draw(st.lists(
            st.lists(st.sampled_from(vocab), min_size=1, max_size=30, unique=True),
            min_size=1, max_size=12,
        ))
        lexicon = Lexicon(
            [Concept(f"C{i}", frozenset({" ".join(form)})) for i, form in enumerate(forms)]
        )
        i = data.draw(st.integers(0, len(forms) - 1))
        form_words = lexicon.form_words(f"C{i}", " ".join(forms[i]))
        text_words = data.draw(st.sets(st.sampled_from([*vocab, "unknown"])))
        value = missing(form_words, text_words, lexicon)
        assert value >= 0.0
        if form_words <= text_words:
            assert value == 0.0
        assert -1.0 <= ratio(form_words, text_words, lexicon) <= 1.0

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
        lex = Lexicon([Concept("X", frozenset({"beta alpha", "alpha beta"}))])
        # Both forms have the same word set, hence equal similarity; the
        # lexicographically smaller form wins.
        match = sim(lex.concept("X"), {"alpha", "beta"}, lex)
        assert match.form == "alpha beta"


class TestTermFrequency:
    def test_counts_whole_set_containment(self):
        words = ["tree", "tree", "topology", "tree"]
        assert term_frequency({"tree", "topology"}, words) == 1
        assert term_frequency({"tree"}, words) == 3

    def test_floors_at_one(self):
        assert term_frequency({"tree"}, ["unrelated"]) == 1


class TestAnnotationWeight:
    """An annotation's weight, tf * idf_value, lies in [2**-255, 2**255]."""

    @staticmethod
    def annotation(weight: float) -> Annotation:
        return Annotation("C1", "c1", 1.0, 1, weight, frozenset())

    def test_rejects_non_positive_weight(self):
        with pytest.raises(ValueError):
            self.annotation(0.0)

    @pytest.mark.parametrize("weight", [math.nan, math.inf])
    def test_rejects_non_finite_weight(self, weight):
        with pytest.raises(ValueError, match="non-finite weight"):
            self.annotation(weight)

    @pytest.mark.parametrize(
        "weight",
        [
            1e-200,  # the square underflows to 0
            1e160,  # the square overflows to inf
            1e200,
            1e154,  # the square is finite, the sum of two squares is not
            math.nextafter(2.0**255, math.inf),
            math.nextafter(2.0**-255, 0.0),
        ],
    )
    def test_rejects_weight_outside_range(self, weight):
        with pytest.raises(ValueError, match="out-of-range weight .* outside"):
            self.annotation(weight)

    def test_admits_range_bounds(self):
        assert vector_of({"C1": 2.0**-255, "C2": 2.0**255})


class TestSemanticVector:
    def test_weights_are_tf_times_idf_value(self):
        entry = Annotation("C1", "tree", 1.0, 3, 1.25, frozenset({"tree"}))
        vec = SemanticVector({"C1": entry})
        assert vec.weights == {"C1": 3.75}
        assert vec.provenance == {"C1": entry}

    def test_weights_are_not_a_parameter(self):
        with pytest.raises(TypeError):
            SemanticVector(weights={"C1": 2.0})  # type: ignore[call-arg]

    def test_norm(self):
        vec = vector_of({"a": 3.0, "b": 4.0})
        assert vec.norm() == pytest.approx(5.0, abs=0)

    def test_truthiness(self):
        assert not SemanticVector({})
        assert vector_of({"a": 1.0})

    def test_repr_rebuilds_the_vector(self):
        entry = Annotation("C1", "tree", 1.0, 3, 1.25, frozenset({"tree"}))
        vec = SemanticVector({"C1": entry})
        assert repr(vec) == f"SemanticVector({{'C1': {entry!r}}})"
        namespace = {"SemanticVector": SemanticVector, "Annotation": Annotation}
        assert eval(repr(vec), namespace) == vec

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

    @pytest.mark.parametrize("value", [True, "0.5", None])
    def test_threshold_must_be_a_number(self, mini_lexicon, value):
        with pytest.raises(ValueError) as excinfo:
            annotate("tree", mini_lexicon, threshold=value)
        assert str(excinfo.value) == f"threshold {value!r} outside [-1, 1]"

    @pytest.mark.parametrize("text", [None, b"tree", 1])
    def test_text_must_be_a_str(self, mini_lexicon, text):
        with pytest.raises(ValueError) as excinfo:
            annotate(text, mini_lexicon)
        assert str(excinfo.value) == f"text must be a str, not {type(text).__name__}"

    def test_threshold_boundary_inclusive(self, toy_lexicon):
        # X's only form scores exactly TOY_HALF_COVERAGE against this
        # text, and Y's form scores -1.
        value = ratio({"alpha", "beta"}, {"alpha", "other"}, toy_lexicon)
        assert value == pytest.approx(TOY_HALF_COVERAGE, abs=1e-12)
        assert annotate("alpha other", toy_lexicon, threshold=value).support() == {"X"}
        above = math.nextafter(value, 1.0)
        assert not annotate("alpha other", toy_lexicon, threshold=above)

    def test_floor_threshold_scans_all_concepts(self, mini_lexicon):
        # At threshold -1 even concepts sharing no word are admitted, each
        # weighted by the full information content of its form of most
        # words; just above -1 a text sharing no word, or none, gets nothing.
        for text in ["nothing shared here", ""]:
            assert not annotate(text, mini_lexicon, threshold=-1.0 + 2**-52)
            vec = annotate(text, mini_lexicon, threshold=-1.0)
            assert {
                cid: (a.lexical_form, a.similarity, a.tf, a.matched_words, a.weight)
                for cid, a in vec.provenance.items()
            } == {
                cid: (form, -1.0, 1, frozenset(), mini_lexicon.idf(form.split()))
                for cid, form in [
                    ("C0000001", "sequence alignment"),
                    ("C0000002", "phylogenetic tree"),
                    ("C0000003", "tree topology"),
                ]
            }

    def test_floor_threshold_leaves_concept_view_unbuilt(self):
        lexicon = load_lexicon(DATA / "lexicon.tsv")
        vec = annotate("nothing shared here", lexicon, threshold=-1.0)
        assert len(vec.support()) == len(lexicon)
        assert not hasattr(lexicon, "__dict__")

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
        # alpha and beta occur 4 times each, so they are equally probable.
        lex = Lexicon(
            [
                Concept("X", frozenset({"beta alpha", "alpha beta", "alpha"})),
                Concept("Y", frozenset({"beta", "alpha"})),
                Concept("Z", frozenset({"beta"})),
            ]
        )
        assert lex.probability("alpha") == lex.probability("beta") == 5 / 11
        vec = annotate("beta alpha", lex)
        assert vec.provenance["X"].lexical_form == "alpha beta"
        assert vec.provenance["Y"].lexical_form == "alpha"


def _reference_provenance(
    text: str, lexicon: Lexicon, threshold: float = DEFAULT_THRESHOLD
) -> dict[str, tuple]:
    """annotate() rebuilt from sim(), term_frequency and Lexicon.idf."""
    words = lexicon.tokenizer(text)
    text_set = frozenset(words)
    out = {}
    for concept in lexicon.concepts:
        match = sim(concept, text_set, lexicon)
        if match.similarity < threshold:
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
        text=st.lists(_words | st.just("other"), max_size=6).map(" ".join),
        threshold=st.sampled_from([-1.0, 0.0, 0.5, DEFAULT_THRESHOLD, 1.0]),
    )
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_tie_prone_lexicons(self, form_sets, text, threshold):
        lexicon = Lexicon(Concept(f"C{i}", forms) for i, forms in enumerate(form_sets))
        assert _provenance_fields(text, lexicon, threshold) == (
            _reference_provenance(text, lexicon, threshold)
        )

    # Skewed draws (the smaller of two uniform indices), so some words are
    # common and others rare, and forms of up to 14 distinct words: at
    # most thresholds some prefixes hold more than one word, so a wrong
    # budget drops forms that reach the threshold.
    _skewed = st.builds(min, st.integers(0, 13), st.integers(0, 13)).map(lambda i: f"w{i}")
    _long_form = st.lists(_skewed, min_size=1, max_size=18).map(" ".join)

    @given(
        form_sets=st.lists(st.frozensets(_long_form, min_size=1, max_size=3), min_size=1, max_size=5),
        text=st.lists(_skewed | st.just("other"), max_size=12).map(" ".join),
        drawn=st.floats(-1.0, 1.0),
    )
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_prefix_filter_at_every_boundary(self, form_sets, text, drawn):
        lexicon = Lexicon(Concept(f"C{i}", forms) for i, forms in enumerate(form_sets))
        text_set = frozenset(normalize(text))
        # Each form's exact ratio and its float neighbours are the
        # thresholds where admitting the form flips.
        thresholds = {drawn}
        for key in lexicon.forms():
            value = ratio(lexicon.form_words(*key), text_set, lexicon)
            thresholds |= {math.nextafter(value, -2.0), value, math.nextafter(value, 2.0)}
        for threshold in sorted(t for t in thresholds if -1.0 <= t <= 1.0):
            assert _provenance_fields(text, lexicon, threshold) == (
                _reference_provenance(text, lexicon, threshold)
            ), threshold


class TestFullCoverage:
    """A form the text covers in full scores exactly 1 with tf its
    smallest word count; an accepted form covered in part has tf 1."""

    # filler is in 31 forms, so its information is small and a text
    # holding delta alone still gives "delta filler" a ratio above 0.5.
    @pytest.fixture(scope="class")
    def lexicon(self):
        return Lexicon([
            Concept("A", frozenset({"alpha beta"})),
            Concept("B", frozenset({"gamma"})),
            Concept("P", frozenset({"delta filler"})),
            *(Concept(f"F{i}", frozenset({f"filler w{i}"})) for i in range(30)),
        ])

    @pytest.mark.parametrize("threshold", [-1.0, 0.5, DEFAULT_THRESHOLD, 1.0])
    @pytest.mark.parametrize("repeats", [1, 2, 3])
    def test_covered_forms_against_the_reference(self, lexicon, threshold, repeats):
        text = " ".join(["beta alpha gamma"] * repeats + ["beta delta"])
        words = normalize(text)
        fields = _provenance_fields(text, lexicon, threshold)
        assert fields == _reference_provenance(text, lexicon, threshold)
        for cid, form in [("A", "alpha beta"), ("B", "gamma")]:
            _, similarity, tf, _, matched = fields[cid]
            assert similarity == 1.0
            assert tf == term_frequency(lexicon.form_words(cid, form), words) == repeats
            assert matched == lexicon.form_words(cid, form)
        partial = ratio(lexicon.form_words("P", "delta filler"), frozenset(words), lexicon)
        assert 0.5 < partial < DEFAULT_THRESHOLD
        if threshold <= 0.5:
            idf = lexicon.idf(lexicon.form_words("P", "delta filler"))
            assert fields["P"] == ("delta filler", partial, 1, idf, {"delta"})
        else:
            assert "P" not in fields


class TestPrefixMemo:
    """The lexicon's information memo, form entries and per-threshold
    prefix tables change no vector."""

    def test_thresholds_in_turn_match_fresh_lexicons(self, demo_records):
        texts = _demo_texts(demo_records)
        lexicon = load_lexicon(DATA / "lexicon.tsv")
        for threshold in (0.9, 0.3, 1.0, 0.8, -1.0):
            for text in texts:
                fresh = load_lexicon(DATA / "lexicon.tsv")
                assert annotate(text, lexicon, threshold=threshold) == (
                    annotate(text, fresh, threshold=threshold)
                ), (threshold, text)
            if threshold == -1:  # Every form is a candidate: no prefix table.
                assert threshold not in lexicon._prefix
            else:
                assert lexicon._prefix[threshold]
        # Every form scored at -1 has one entry, shared by every table.
        assert set(lexicon._entries) == set(lexicon.forms())
        for table in lexicon._prefix.values():
            for entries in table.values():
                assert all(lexicon._entries[entry[:2]] is entry for entry in entries)

    def test_threads_over_a_cold_lexicon_match_serial(self, demo_records):
        texts = _demo_texts(demo_records)
        thresholds = (0.8, 0.3, -1.0)
        reference = load_lexicon(DATA / "lexicon.tsv")
        serial = [annotate(text, reference, threshold=t) for t in thresholds for text in texts]
        lexicon = load_lexicon(DATA / "lexicon.tsv")
        start = threading.Barrier(4, timeout=60)

        def run(_):
            start.wait()
            return [annotate(text, lexicon, threshold=t) for t in thresholds for text in texts]

        # Threads switch often, so their memo fills interleave.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(run, range(4), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert results == [serial] * 4
        # The tables the threads filled hold what serial annotation filled.
        assert lexicon._information == reference._information
        assert lexicon._entries == reference._entries
        assert lexicon._prefix == reference._prefix
        assert set(lexicon._prefix) == {0.8, 0.3}

    def test_memo_is_not_part_of_the_value(self, demo_records):
        fresh = load_lexicon(DATA / "lexicon.tsv")
        used = load_lexicon(DATA / "lexicon.tsv")
        for text in _demo_texts(demo_records):
            for threshold in (0.8, 0.3):
                annotate(text, used, threshold=threshold)
        assert used._information and used._entries and used._prefix
        assert used == fresh
        assert pickle.dumps(used) == pickle.dumps(fresh)
        assert copy.copy(used) == copy.copy(fresh) == fresh


def test_annotator_reads_no_private_attribute():
    """annotator.py reads no attribute named with a leading ``_`` other
    than a dunder, so it reads a Lexicon through public names only."""
    with open(annotator.__file__, encoding="utf-8") as file:
        tree = ast.parse(file.read())
    private = [
        f"line {node.lineno}: .{node.attr}" for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and node.attr.startswith("_")
        and not (node.attr.startswith("__") and node.attr.endswith("__"))
    ]
    assert private == []
