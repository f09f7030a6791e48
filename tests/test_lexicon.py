"""Lexicon loading, normalization, and the smoothed word model."""
from __future__ import annotations

import copy
import gc
import hashlib
import math
import pickle
import re
import sys
from pathlib import Path

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from semdisc import lexicon as lexicon_module
from semdisc.annotator import annotate
from semdisc.cli import main
from semdisc.lexicon import Concept, Lexicon, _ConceptRow, gc_paused, load_lexicon, normalize
from semdisc.registry import ingest_registry, load_index
from semdisc.requirements import parse_requirements
from semdisc.taxonomy import load_taxonomy

from conftest import DATA


class TestNormalize:
    def test_lowercases_and_splits_on_punctuation(self):
        assert normalize("Protein-Sequence ANALYSIS!") == [
            "protein",
            "sequence",
            "analysis",
        ]

    def test_underscores_and_digits(self):
        assert normalize("tmap_v2 run") == ["tmap", "v2", "run"]

    def test_empty_and_whitespace(self):
        assert normalize("") == []
        assert normalize("  \t \n ") == []

    def test_collapses_runs_of_separators(self):
        assert normalize("a,,b  --  c") == ["a", "b", "c"]

    @staticmethod
    def reference(text: str) -> list[str]:
        """The substitute-and-split rule that finding words replaced."""
        return re.sub(r"[\W_]+", " ", text.lower()).split()

    # ASCII text is translated and split, other text searched by the
    # regular expression; U+212A KELVIN SIGN lowercases to an ASCII "k".
    @given(st.text() | st.text(st.characters(max_codepoint=127)))
    @example("\u2028x_y\x1c\u0130\u03a3 \u1680z\u00a0")
    @example("Tmap_V2 -- \u212aelvin")
    def test_equals_substitute_and_split(self, text):
        assert normalize(text) == self.reference(text)

    def test_equals_substitute_and_split_for_every_code_point(self):
        # Each ASCII code point between two letters, then each non-surrogate
        # code point, one text per Unicode plane.
        texts = ["a" + "a".join(map(chr, range(128))) + "a"]
        for plane in range(0, sys.maxunicode + 1, 0x10000):
            points = (i for i in range(plane, plane + 0x10000) if not 0xD800 <= i <= 0xDFFF)
            texts.append("a" + "a".join(map(chr, points)) + "a")
        for text in texts:
            assert normalize(text) == self.reference(text)

    def test_only_non_ascii_text_reaches_the_regex(self, monkeypatch):
        pattern = lexicon_module._WORD
        searched: list[str] = []

        class CountingPattern:
            def findall(self, text):
                searched.append(text)
                return pattern.findall(text)

        monkeypatch.setattr(lexicon_module, "_WORD", CountingPattern())
        for text in ["Tree_2 of LIFE", "\u212aelvin", "Caf\u00e9", "\u0394\u039d\u0391"]:
            assert normalize(text) == self.reference(text)
        assert searched == ["kelvin", "caf\u00e9", "\u03b4\u03bd\u03b1"]


class TestGcPaused:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_paused_inside_and_restored_after(self, enabled):
        inside: list[bool] = []
        (gc.enable if enabled else gc.disable)()
        try:
            with pytest.raises(KeyError):
                with gc_paused():
                    with gc_paused():
                        inside.append(gc.isenabled())
                    inside.append(gc.isenabled())
                    raise KeyError
            assert gc.isenabled() is enabled
        finally:
            gc.enable()
        assert inside == [False, False]


class TestConcept:
    def test_rejects_empty_form_set(self):
        with pytest.raises(ValueError):
            Concept(id="C1", lexical_forms=frozenset())

    def test_rejects_wordless_form(self):
        with pytest.raises(ValueError):
            Concept(id="C1", lexical_forms=frozenset({"!!!"}))

    @pytest.mark.parametrize(
        "args, message",
        [
            ((5, frozenset({"x"})), "field 'id' must be a string"),
            (("C\ud800", frozenset({"x"})), "field 'id' cannot be encoded as UTF-8"),
            (("C1", frozenset({"x"}), None), "field 'source' must be a string"),
            (("C1", frozenset({"x"}), "u\ud800"), "field 'source' cannot be encoded"),
            (("C1", "tree"), "field 'lexical_forms' must be a frozenset of strings"),
            (("C1", {"tree"}), "field 'lexical_forms' must be a frozenset of strings"),
            (("C1", frozenset({b"tree"})), "field 'lexical_forms' must be a string"),
            (("C1", frozenset({"tree\ud800"})), "field 'lexical_forms' cannot be encoded"),
            # load_lexicon strips each field and skips '#' lines and a
            # leading BOM, so no file holds these values.
            ((" C1", frozenset({"oak"})), "field 'id' must be non-empty without surrounding"),
            (("C1 ", frozenset({"oak"})), "field 'id' must be non-empty without surrounding"),
            (("", frozenset({"oak"})), "field 'id' must be non-empty without surrounding"),
            (("#C1", frozenset({"oak"})), "field 'id' must not start with '#' or U\\+FEFF"),
            (("\ufeffC1", frozenset({"oak"})), "field 'id' must not start with '#' or U\\+FEFF"),
            (("C1", frozenset({" oak "})), "field 'lexical_forms' must be non-empty without"),
            (("C1", frozenset({"oak"}), ""), "field 'source' must be non-empty without"),
            (("C1", frozenset({"oak"}), " umls"), "field 'source' must be non-empty without"),
            # Else this one-concept lexicon would print the two lines of
            # Concept("C1", {"oak"}) and Concept("C2", {"oak"}).
            (
                ("C1", frozenset({"oak"}), "umls\toak\nC2\tumls"),
                "field 'source' must be one line without a tab",
            ),
        ],
        ids=[
            "int_id", "surrogate_id", "none_source", "surrogate_source",
            "str_forms", "set_forms", "bytes_form", "surrogate_form",
            "leading_space_id", "trailing_space_id", "empty_id", "comment_id", "bom_id",
            "padded_form", "empty_source", "padded_source", "two_line_source",
        ],
    )
    def test_holds_only_what_a_lexicon_row_can(self, args, message):
        with pytest.raises(ValueError, match=message):
            Concept(*args)

    @pytest.mark.parametrize(
        "char", ["\t", "\n", "\r", "\x0b", "\x1c", "\x85", "\u2028", "\u2029"]
    )
    def test_id_and_forms_print_as_one_cell(self, char):
        with pytest.raises(ValueError, match="^field 'id' must be one line without a tab$"):
            Concept(f"C{char}1", frozenset({"tree"}))
        with pytest.raises(
            ValueError, match="^field 'lexical_forms' must be one line without a tab$"
        ):
            Concept("C1", frozenset({"tree", f"oak{char}tree"}))

    def test_id_holds_no_comma(self):
        # discover joins the shared concept ids of one cell with ','.
        with pytest.raises(ValueError, match="^field 'id' must not contain ','$"):
            Concept("C1513868,X", frozenset({"tree"}))
        assert Concept("C1", frozenset({"tree, oak"})).lexical_forms == {"tree, oak"}


class TestLaplaceModel:
    def test_single_form_probabilities(self):
        # One concept, one form, one word: 1 token, 1 distinct word, so
        # the denominator is 1 + 1 + 1 = 3; seen 2/3, unseen 1/3.
        lex = Lexicon([Concept("C1", frozenset({"alignment"}))])
        assert lex.probability("alignment") == pytest.approx(2 / 3, abs=0)
        assert lex.unseen_prob == pytest.approx(1 / 3, abs=0)

    def test_mini_fixture_counts(self, mini_lexicon):
        # 8 tokens over 5 distinct words: denominator 14.
        assert mini_lexicon.probability("tree") == 4 / 14
        assert mini_lexicon.probability("alignment") == 3 / 14
        assert mini_lexicon.probability("topology") == 2 / 14
        assert mini_lexicon.unseen_prob == 1 / 14
        assert mini_lexicon.vocabulary == frozenset(
            {"alignment", "sequence", "phylogenetic", "tree", "topology"}
        )

    def test_empty_lexicon_rejected(self):
        with pytest.raises(ValueError):
            Lexicon([])

    def test_repeated_concept_id_rejected(self):
        concept = Concept("C1", frozenset({"tree"}))
        with pytest.raises(ValueError, match="^duplicate concept id 'C1'$"):
            Lexicon([concept, concept])

    @pytest.mark.parametrize(
        "value",
        [
            ("C1", frozenset({"oak"}), "umls"),
            # Has the fields, but skipped every Concept check.
            _ConceptRow(" C1", frozenset({" oak "}), "a\tb"),
        ],
        ids=["tuple", "unchecked_row"],
    )
    def test_takes_only_concept_values(self, value):
        with pytest.raises(ValueError, match="a lexicon holds Concept values"):
            Lexicon([Concept("C0", frozenset({"tree"})), value])

    def test_copies_and_pickles_keep_the_model(self):
        lex = Lexicon([Concept("C2", frozenset({"tree"})), Concept("C1", frozenset({"a b"}))])
        for copied in (copy.copy(lex), copy.deepcopy(lex), pickle.loads(pickle.dumps(lex))):
            _assert_same_model(copied, lex)

    # Forms of up to 60 words from a small pool, so one word can make up
    # nearly the whole corpus.
    _form = st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=60).map(" ".join)

    @given(st.lists(st.frozensets(_form, min_size=1, max_size=3), min_size=1, max_size=6))
    def test_every_probability_below_one(self, form_sets):
        lex = Lexicon(Concept(f"C{i}", forms) for i, forms in enumerate(form_sets))
        assert 0.0 < lex.unseen_prob < 1.0
        for word in lex.vocabulary:
            assert 0.0 < lex.probability(word) < 1.0
        for entry in lex.prefix_entries((), -1.0):
            assert entry.idf > 0.0

    def test_fingerprint_follows_concept_lines(self):
        one = Concept("C1", frozenset({"alignment", "sequence alignment"}))
        two = Concept("C2", frozenset({"tree"}))
        fingerprint = Lexicon([one, two]).fingerprint
        assert Lexicon([two, one]).fingerprint == fingerprint
        assert Lexicon([one, Concept("C2", frozenset({"trees"}))]).fingerprint != fingerprint
        assert Lexicon([one, Concept("C2", frozenset({"tree"}), "mesh")]).fingerprint != (
            fingerprint
        )

    @given(
        st.dictionaries(
            st.text(st.characters(exclude_characters=","), min_size=1, max_size=4),
            st.tuples(st.sampled_from(["umls", "mesh", "μ"]), st.frozensets(_form, min_size=1)),
            min_size=1,
            max_size=5,
        )
    )
    # U+0001 sorts before the tab, so this id's line comes first.
    @example({"C": ("umls", frozenset({"b"})), "C\x01": ("umls", frozenset({"a"}))})
    def test_fingerprint_is_digest_of_sorted_concept_lines(self, concepts):
        try:
            built = [Concept(cid, forms, source) for cid, (source, forms) in concepts.items()]
        except ValueError:
            assume(False)
        lines = sorted(
            f"{concept.id}\t{concept.source}\t{form}\n"
            for concept in built
            for form in concept.lexical_forms
        )
        digest = hashlib.sha256("".join(lines).encode()).hexdigest()
        assert Lexicon(built).fingerprint == digest

    def test_concept_values_built_on_first_use(self):
        lex = Lexicon([Concept("C2", frozenset({"tree"})), Concept("C1", frozenset({"a b"}))])
        assert not hasattr(lex, "__dict__")
        assert len(lex) == 2 and "C1" in lex and "C3" not in lex
        assert lex.concepts == (
            Concept("C1", frozenset({"a b"})),
            Concept("C2", frozenset({"tree"})),
        )


class TestPrefixPostings:
    # X's twelve words and Y's one each occur once, so all are equally
    # informative and ties go by word.
    _WORDS = "a b c d e f g h i j k l"

    @pytest.fixture()
    def lexicon(self):
        return Lexicon([Concept("X", frozenset({self._WORDS})), Concept("Y", frozenset({"m"}))])

    @pytest.mark.parametrize(
        "threshold, prefix",
        [
            # The budget is a tenth of the form's information, 1.2 words:
            # a and b are taken, and b's sum exceeds it.
            (0.8, "a b"),
            (1.0, "a"),
            (0.0, "a b c d e f g"),
            # No sum exceeds the whole form's information and the margin.
            (-1.0, "a b c d e f g h i j k l"),
        ],
    )
    def test_words_taken_until_the_budget_is_exceeded(self, lexicon, threshold, prefix):
        form = ("X", self._WORDS)
        assert {
            word for word in normalize(self._WORDS)
            if form in {entry[:2] for entry in lexicon.prefix_entries([word], threshold)}
        } == set(prefix.split())

    def test_one_word_form_is_its_own_prefix(self, lexicon):
        assert [entry[:2] for entry in lexicon.prefix_entries(["m"], 1.0)] == [("Y", "m")]

    def test_unknown_word_is_in_no_form(self, lexicon):
        assert lexicon.prefix_entries(["zzz"], 0.8) == set()
        # At -1 every form is a candidate, whatever the words.
        for words in (["zzz"], []):
            entries = lexicon.prefix_entries(words, -1.0)
            assert sorted(entry[:2] for entry in entries) == sorted(lexicon.forms())
        assert list(lexicon._prefix) == [0.8]

    def test_filled_on_use_for_seen_words_only(self, lexicon):
        assert lexicon._prefix == {}
        lexicon.prefix_entries(["a"], 0.8)
        lexicon.prefix_entries(["zzz"], 0.8)
        lexicon.prefix_entries(["a", "zzz"], 0.3)
        assert {(t, w) for t, table in lexicon._prefix.items() for w in table} == {
            (0.8, "a"), (0.3, "a")
        }

    @pytest.mark.parametrize("threshold", [math.nan, 5.0, -1.5, "0.8", True, None])
    def test_threshold_outside_the_rule_is_rejected_unmemoised(self, lexicon, threshold):
        for _ in range(5):
            with pytest.raises(ValueError, match=r"outside \[-1, 1\]"):
                lexicon.prefix_entries(["a"], threshold)
        assert lexicon._prefix == {}


class TestScoringTables:
    """The information memo and the form entries annotation reads."""

    def test_information_is_minus_log_probability(self):
        lexicon = load_lexicon(DATA / "lexicon.tsv")
        for word in [*lexicon.vocabulary, "unseenword"]:
            expected = -math.log(lexicon.probability(word))
            assert lexicon.information(word).hex() == expected.hex(), word
        assert set(lexicon._information) == lexicon.vocabulary
        for word, value in lexicon._information.items():
            assert value.hex() == (-math.log(lexicon.probability(word))).hex()

    def test_unknown_words_never_grow_the_memo(self):
        lexicon = load_lexicon(DATA / "lexicon.tsv")
        for i in range(50):
            text = " ".join(f"unknown{i}x{j}" for j in range(20)) + " protein"
            annotate(text, lexicon)
            annotate(text, lexicon, threshold=0.3)
            lexicon.information(f"unknown{i}")
        assert set(lexicon._information) <= lexicon.vocabulary
        assert len(lexicon._information) <= len(lexicon.vocabulary)
        for table in lexicon._prefix.values():
            assert set(table) <= lexicon.vocabulary

    def test_entries_hold_the_form_words_and_idf(self):
        lexicon = load_lexicon(DATA / "lexicon.tsv")
        entries = lexicon.prefix_entries(lexicon.vocabulary, -1.0)
        assert {entry[:2] for entry in entries} == set(lexicon.forms())
        for entry in entries:
            words = lexicon.form_words(entry.concept_id, entry.form)
            assert entry.words == words
            assert entry.idf.hex() == lexicon.idf(words).hex()

    def test_each_form_entry_is_stored_once(self):
        lexicon = load_lexicon(DATA / "lexicon.tsv")
        by_key = {}
        for threshold in (0.8, 0.3, -1.0):
            for entry in lexicon.prefix_entries(lexicon.vocabulary, threshold):
                assert by_key.setdefault(entry[:2], entry) is entry
        for table in lexicon._prefix.values():
            for entries in table.values():
                for entry in entries:
                    assert by_key[entry[:2]] is entry


class TestConceptsWithWord:
    def test_words_are_matched_after_normalizing_forms(self):
        lexicon = Lexicon([
            Concept("X", frozenset({"Gamma-ray burst"})),
            Concept("Y", frozenset({"ray", "beta_2"})),
        ])
        assert lexicon.concepts_with_word("ray") == frozenset({"X", "Y"})
        assert lexicon.concepts_with_word("gamma") == frozenset({"X"})
        assert lexicon.concepts_with_word("2") == frozenset({"Y"})
        assert lexicon.concepts_with_word("Gamma") == frozenset()
        assert lexicon.concepts_with_word("gamma-ray") == frozenset()

    def test_every_demo_word_against_a_scan_of_the_forms(self, demo_lexicon):
        # The demo forms are lowercase words separated by spaces.
        expected: dict[str, set[str]] = {"zzz": set()}
        for concept in demo_lexicon.concepts:
            for form in concept.lexical_forms:
                for word in form.split(" "):
                    expected.setdefault(word, set()).add(concept.id)
        for word, ids in expected.items():
            assert demo_lexicon.concepts_with_word(word) == ids, word


class TestIdf:
    def test_unseen_word(self, mini_lexicon):
        assert mini_lexicon.idf(["zzz"]) == pytest.approx(math.log(14), rel=1e-15)

    def test_known_word(self, mini_lexicon):
        assert mini_lexicon.idf(["tree"]) == pytest.approx(math.log(14 / 4), rel=1e-15)

    def test_additive_over_disjoint_words(self, mini_lexicon):
        both = mini_lexicon.idf(["alignment", "tree"])
        parts = mini_lexicon.idf(["alignment"]) + mini_lexicon.idf(["tree"])
        assert both == pytest.approx(parts, rel=1e-12)

    def test_empty_is_zero(self, mini_lexicon):
        assert mini_lexicon.idf([]) == 0.0

    def test_order_independent(self, mini_lexicon):
        words = ["tree", "alignment", "topology"]
        assert mini_lexicon.idf(words) == mini_lexicon.idf(list(reversed(words)))


class TestLoadLexicon:
    def test_mini_fixture_concepts(self, mini_lexicon):
        assert len(mini_lexicon) == 3
        assert mini_lexicon.concept("C0000001").lexical_forms == frozenset(
            {"alignment", "sequence alignment"}
        )
        assert "C0000003" in mini_lexicon

    @pytest.mark.parametrize("name", ["lexicon.tsv", "mini_lexicon.tsv"])
    def test_fingerprint_is_that_of_its_concepts(self, name):
        lexicon = load_lexicon(DATA / name)
        assert Lexicon(lexicon.concepts).fingerprint == lexicon.fingerprint

    def test_fingerprint_ignores_line_order_comments_and_bom(self, mini_lexicon, tmp_path):
        # Edits that keep every concept line keep the fingerprint, so an
        # index built from the original does not warn of a mismatch.
        lines = (DATA / "mini_lexicon.tsv").read_text(encoding="utf-8").splitlines()
        records = [line for line in lines if line and not line.startswith("#")]
        edited = tmp_path / "edited.tsv"
        edited.write_text("# edited\n\n" + "\n".join(records[::-1]) + "\n", encoding="utf-8")
        bom = tmp_path / "bom.tsv"
        bom.write_bytes(b"\xef\xbb\xbf" + (DATA / "mini_lexicon.tsv").read_bytes())
        for path in (edited, bom):
            assert load_lexicon(path).fingerprint == mini_lexicon.fingerprint
        records[2] = records[2].replace("\tumls\t", "\tmesh\t")  # phylogenetic tree
        edited.write_text("\n".join(records) + "\n", encoding="utf-8")
        assert load_lexicon(edited).fingerprint != mini_lexicon.fingerprint

    def test_leading_bom_is_not_part_of_the_first_id(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_bytes("\ufeffC1\tumls\talpha\nC2\tumls\tbeta\n".encode())
        lexicon = load_lexicon(path)
        assert "C1" in lexicon and [c.id for c in lexicon.concepts] == ["C1", "C2"]

    def test_accumulates_forms_for_repeated_id(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("C1\tumls\talpha\nC1\tumls\tbeta gamma\n")
        lex = load_lexicon(path)
        assert lex.concept("C1").lexical_forms == frozenset({"alpha", "beta gamma"})

    def test_rejects_conflicting_source(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("C1\tumls\talpha\nC1\tmesh\tbeta\n")
        with pytest.raises(ValueError, match="line 2"):
            load_lexicon(path)

    def test_rejects_wrong_field_count(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("C1\tumls\n")
        with pytest.raises(ValueError, match="line 1"):
            load_lexicon(path)

    def test_rejects_empty_field(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("C1\t\talpha\n")
        with pytest.raises(ValueError, match="line 1"):
            load_lexicon(path)

    def test_rejects_comment_only_file(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("# no concepts\n\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: empty lexicon$"):
            load_lexicon(path)

    def test_rejects_wordless_form(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("C1\tumls\t...\n")
        with pytest.raises(ValueError, match="line 1"):
            load_lexicon(path)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("C1513868,X\tumls\tbeta", "field 'id' must not contain ','"),
            ("C\x0b2\tumls\tbeta", "field 'id' must be one line without a tab"),
            # Only a file's first U+FEFF is a byte order mark.
            ("\ufeffC2\tumls\tbeta", "field 'id' must not start with '#' or U+FEFF"),
        ],
        ids=["comma_id", "vertical_tab_id", "bom_id"],
    )
    def test_rejects_id_that_is_not_one_cell(self, tmp_path, capsys, line, message):
        path = tmp_path / "lex.tsv"
        path.write_text(f"C1\tumls\talpha\n{line}\n", encoding="utf-8")
        with pytest.raises(ValueError) as info:
            load_lexicon(path)
        assert str(info.value) == f"{path}: line 2: {message}"
        # index build fails on it as a data error and writes no index.
        index = tmp_path / "out.idx"
        code = main([
            "index", "build", f"--lexicon={path}",
            f"--registry={DATA / 'services.jsonl'}", f"--index={index}",
        ])
        assert (code, *capsys.readouterr()) == (1, "", f"error: {path}: line 2: {message}\n")
        assert not index.exists()

    def test_loaded_lexicon_holds_few_tracked_objects(self, tmp_path):
        # No per-concept container is kept, so a loaded lexicon adds almost
        # nothing for the cyclic collector to scan on every later pass.
        path = tmp_path / "lex.tsv"
        path.write_text("".join(f"C{i}\tumls\tword{i} shared\n" for i in range(1000)))
        gc.collect()
        before = len(gc.get_objects())
        lexicon = load_lexicon(path)
        gc.collect()
        assert len(gc.get_objects()) - before < 100
        assert len(lexicon) == 1000

    def test_load_triggers_no_collection(self, tmp_path):
        # The rows hold no reference cycles, so a collection during the
        # build could free nothing.  Once GC is enabled again, the next
        # allocation may start one pass over the new objects: that pass
        # runs after the loader's body and is not counted.
        path = tmp_path / "lex.tsv"
        path.write_text("".join(f"C{i}\tumls\tform {i} word{i % 97}\n" for i in range(3000)))
        body = getattr(load_lexicon, "__wrapped__", load_lexicon).__code__
        collections: list[int] = []

        def record(phase, info):
            frame = sys._getframe()
            while frame is not None and frame.f_code is not body:
                frame = frame.f_back
            if phase == "start" and frame is not None:
                collections.append(info["generation"])

        gc.callbacks.append(record)
        try:
            lexicon = load_lexicon(path)
        finally:
            gc.callbacks.remove(record)
        assert collections == []
        assert len(lexicon) == 3000

    def test_rejects_source_that_is_not_one_cell(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("C1\tumls\talpha\nC2\tum\u2028ls\tbeta\n", encoding="utf-8")
        with pytest.raises(ValueError) as info:
            load_lexicon(path)
        assert str(info.value) == f"{path}: line 2: field 'source' must be one line without a tab"

    def test_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("# header\n\nC1\tumls\talpha\n")
        assert len(load_lexicon(path)) == 1

    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85", "\r"])
    def test_only_line_feed_ends_a_line(self, tmp_path, char):
        # The form is rejected whole on line 1; a reader splitting at the
        # character would fail at line 2 on a one-field line instead.
        path = tmp_path / "lex.tsv"
        path.write_bytes(f"C1\tumls\tone{char}two\nC2\tumls\ttree\n".encode())
        with pytest.raises(ValueError) as info:
            load_lexicon(path)
        assert str(info.value) == (
            f"{path}: line 1: field 'lexical_forms' must be one line without a tab"
        )

    def test_crlf_file(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_bytes(b"# header\r\n\r\nC1\tumls\talpha\r\nC1\tumls\tbeta gamma\r\n")
        lf = tmp_path / "lf.tsv"
        lf.write_bytes(path.read_bytes().replace(b"\r\n", b"\n"))
        assert load_lexicon(path).concepts == load_lexicon(lf).concepts
        assert load_lexicon(path).concept("C1").lexical_forms == frozenset(
            {"alpha", "beta gamma"}
        )

    def test_undecodable_file_names_path(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_bytes(b"C1\tumls\talpha\nC2\tumls\tbeta \xff\n")
        with pytest.raises(ValueError) as info:
            load_lexicon(path)
        assert str(info.value).startswith(f"{path}: not valid UTF-8: ")

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_lexicon(tmp_path / "absent.tsv")

    def test_tokenizes_each_form_line_once(self, tmp_path):
        # Counted at calls of normalize's code, so a pass that reaches the
        # tokenizer through any name or default argument counts too.
        split: list[str] = []

        def count(frame, event, arg):
            if event == "call" and frame.f_code is normalize.__code__:
                split.append(frame.f_locals["text"])

        path = tmp_path / "lex.tsv"
        path.write_text(
            "C1\tumls\talpha\nC1\tumls\tBeta gamma\n"
            "C2\tumls\tgamma\nC3\tmesh\tgamma-gamma delta\n"
        )
        profile = sys.getprofile()
        sys.setprofile(count)
        try:
            lex = load_lexicon(path)
        finally:
            sys.setprofile(profile)
        assert len(split) == 4
        forms = lex.concept("C1").lexical_forms
        assert {form: lex.form_words("C1", form) for form in forms} == {
            "alpha": frozenset({"alpha"}),
            "Beta gamma": frozenset({"beta", "gamma"}),
        }
        # 4 occurrences of gamma among 7 words over a vocabulary of 4.
        assert lex.probability("gamma") == 5 / 12
        assert lex._postings["gamma"] == (
            ("C1", "Beta gamma"),
            ("C2", "gamma"),
            ("C3", "gamma-gamma delta"),
        )


def _assert_same_model(loaded: Lexicon, built: Lexicon) -> None:
    assert loaded.fingerprint == built.fingerprint
    assert loaded.concepts == built.concepts
    assert loaded.vocabulary == built.vocabulary
    assert loaded.unseen_prob == built.unseen_prob
    for word in [*loaded.vocabulary, "unseenword"]:
        assert loaded.probability(word) == built.probability(word)
        assert loaded.concepts_with_word(word) == built.concepts_with_word(word)
    for concept in loaded.concepts:
        for form in concept.lexical_forms:
            key = (concept.id, form)
            assert loaded.form_words(*key) == built.form_words(*key)
    assert set(loaded.prefix_entries((), -1.0)) == set(built.prefix_entries((), -1.0))


class TestLoaders:
    @pytest.mark.parametrize("load, message", [
        (load_lexicon, "not valid UTF-8"),
        (load_taxonomy, "not valid UTF-8"),
        (ingest_registry, "not valid UTF-8"),
        (parse_requirements, "not valid UTF-8"),
        (load_index, "not a service index file"),
    ])
    def test_named_by_path_with_gc_paused(self, load, message, tmp_path, monkeypatch):
        read_bytes = Path.read_bytes
        enabled: list[bool] = []

        def spy(self):
            enabled.append(gc.isenabled())
            return read_bytes(self)

        monkeypatch.setattr(Path, "read_bytes", spy)
        path = tmp_path / "input"
        path.write_bytes(b"\xff\n")
        before = gc.isenabled()
        with pytest.raises(ValueError) as info:
            load(str(path))
        assert enabled == [False]
        assert gc.isenabled() is before
        assert str(info.value).startswith(f"{path}: {message}")


class TestEntryPointsAgree:
    """``load_lexicon`` and ``Lexicon(concepts)`` build one model."""

    def test_demo_lexicon(self, demo_lexicon):
        _assert_same_model(demo_lexicon, Lexicon(demo_lexicon.concepts))

    # Forms with case, punctuation and repeated words; lines of one
    # concept may repeat or come apart.
    _form = st.lists(
        st.sampled_from(["Alpha", "beta", "beta", "gamma-ray", "x_1", "Δέλτα"]),
        min_size=1,
        max_size=4,
    ).map(" ".join)
    # Text rich in what a line could lose or split at: surrounding
    # whitespace, '#', U+FEFF, ',', tabs and line breaks.
    _text = st.text(
        st.sampled_from(" \t\n\r#\ufeff,\u2028") | st.characters(codec="utf-8"),
        min_size=1,
        max_size=5,
    )

    @given(
        drawn=st.lists(
            st.tuples(
                st.sampled_from(["C1", "C2", "C3", "D4"]) | _text,
                st.sampled_from(["umls", "mesh"]) | _text,
                st.frozensets(_form | _text, min_size=1, max_size=3),
            ),
            min_size=2,
            max_size=6,
        ),
        data=st.data(),
    )
    def test_drawn_lexicons(self, tmp_path_factory, drawn, data):
        # Every lexicon the API builds loads back from its lines, written
        # in any order, repeated, among comments and blank lines, with LF or
        # CRLF ends and with or without a byte order mark.
        concepts: dict[str, Concept] = {}
        for cid, source, forms in drawn:
            try:
                concepts.setdefault(cid, Concept(cid, forms, source))
            except ValueError:
                pass
        assume(concepts)
        lines = [
            f"{c.id}\t{c.source}\t{form}" for c in concepts.values() for form in c.lexical_forms
        ]
        noise = st.sampled_from(["", " \t", "# edited", f"#{lines[0]}", f"  #{lines[-1]}"])
        lines = data.draw(st.permutations(lines + data.draw(st.lists(st.sampled_from(lines) | noise))))
        end = data.draw(st.sampled_from(["\n", "\r\n"]))
        bom = data.draw(st.sampled_from(["", "\ufeff"]))
        path = tmp_path_factory.getbasetemp() / "drawn.tsv"
        path.write_bytes((bom + "".join(line + end for line in lines)).encode())
        _assert_same_model(load_lexicon(path), Lexicon(concepts.values()))


class TestDemoLexicon:
    def test_designed_information_content(self, demo_lexicon):
        # The demo corpus is sized so these two idf values land on 8 and
        # 15; integer word counts cannot hit the irrational targets
        # exactly, so the check allows a 0.01 window.
        assert demo_lexicon.idf(["domains"]) == pytest.approx(8.0, abs=0.01)
        assert demo_lexicon.idf(["protein", "sequences"]) == pytest.approx(
            15.0, abs=0.01
        )

    def test_laplace_denominator(self):
        # Recount the corpus directly from the file, independently of the
        # Lexicon implementation: denominator = tokens + vocab + 1.
        tokens = 0
        vocab: set[str] = set()
        for line in (DATA / "lexicon.tsv").read_text().splitlines():
            if not line or line.startswith("#"):
                continue
            words = line.split("\t")[2].split()
            tokens += len(words)
            vocab.update(words)
        assert tokens + len(vocab) + 1 == 17886
