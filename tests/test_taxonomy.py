"""Category taxonomy loading and task-to-category matching."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semdisc.cli import main
from semdisc.strsim import clamp_cscore, isub
from semdisc.taxonomy import (
    CategoryMatch,
    CategoryTaxonomy,
    load_taxonomy,
    match_categories,
)

from conftest import DATA

TASK = "Analyze domains in protein sequences"


class TestCategoryTaxonomy:
    def test_names_sorted_and_deduplicated(self):
        tax = CategoryTaxonomy(["Text Mining", "Data Retrieval", "Text Mining"])
        assert tax.names == ("Data Retrieval", "Text Mining")
        assert len(tax) == 2

    def test_contains_normalizes(self):
        tax = CategoryTaxonomy(["Text Mining"])
        assert "text mining" in tax
        assert "TEXT-MINING!" in tax
        assert "data retrieval" not in tax

    @pytest.mark.parametrize("value", [5, None, b"text mining", ("Text Mining",)])
    def test_contains_is_false_for_a_non_string(self, value):
        assert value not in CategoryTaxonomy(["Text Mining"])

    def test_conflicting_display_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            CategoryTaxonomy(["Text Mining", "text mining"])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            CategoryTaxonomy([])
        with pytest.raises(ValueError):
            CategoryTaxonomy(["..."])

    @pytest.mark.parametrize("char", ["\t", "\n", "\r", "\x0b", "\x1c", "\x85", "\u2028"])
    def test_name_prints_as_one_cell(self, char):
        # annotate prints a category as one field of one row.
        name = f"Protein{char}Sequence Analysis"
        with pytest.raises(ValueError) as info:
            CategoryTaxonomy(["Text Mining", name])
        assert str(info.value) == (
            f"category {name!r}: field 'name' must be one line without a tab"
        )

    @pytest.mark.parametrize(
        "name, message",
        [
            (5, "category 5: field 'name' must be a string"),
            (
                "Protein Sequence Analysis\ud800",
                "category 'Protein Sequence Analysis\\ud800': "
                "field 'name' cannot be encoded as UTF-8: surrogates not allowed",
            ),
        ],
        ids=["int", "surrogate"],
    )
    def test_name_is_text(self, name, message):
        with pytest.raises(ValueError) as info:
            CategoryTaxonomy(["Text Mining", name])
        assert str(info.value) == message

    def test_load_large_fixture(self):
        tax = load_taxonomy(DATA / "taxonomy_large.txt")
        assert len(tax) == 60
        assert "Protein Sequence Analysis" in tax

    def test_load_rejects_empty_file(self, tmp_path):
        path = tmp_path / "tax.txt"
        path.write_text("# only a comment\n")
        with pytest.raises(ValueError):
            load_taxonomy(path)

    @pytest.mark.parametrize(
        "content, detail",
        [
            (
                "Protein analysis\nprotein-analysis\n",
                "duplicate category after normalization: 'protein-analysis'",
            ),
            ("Protein analysis\n---\n", "category '---' has no words"),
            ("# only a comment\n", "empty taxonomy"),
            (
                "Protein\tSequence Analysis\n",
                "category 'Protein\\tSequence Analysis': "
                "field 'name' must be one line without a tab",
            ),
        ],
        ids=["duplicate_after_normalization", "no_words", "empty", "tab_in_name"],
    )
    def test_load_error_names_path(self, tmp_path, capsys, content, detail):
        path = tmp_path / "tax.txt"
        path.write_text(content)
        with pytest.raises(ValueError) as info:
            load_taxonomy(path)
        assert str(info.value) == f"{path}: {detail}"
        # The CLI reports it as a data error, on one line.
        code = main(
            ["annotate", "protein", f"--lexicon={DATA / 'lexicon.tsv'}", f"--taxonomy={path}"]
        )
        assert (code, *capsys.readouterr()) == (1, "", f"error: {path}: {detail}\n")

    @pytest.mark.parametrize("char", ["\x85", "\u2028", "\r"])
    def test_load_only_line_feed_ends_a_line(self, tmp_path, char):
        # The whole name is rejected; a reader splitting at the character
        # would load two names instead.
        path = tmp_path / "tax.txt"
        path.write_bytes(f"Protein{char}Analysis\nSequence Search\n".encode())
        with pytest.raises(ValueError) as info:
            load_taxonomy(path)
        assert str(info.value) == (
            f"{path}: category {f'Protein{char}Analysis'!r}: "
            "field 'name' must be one line without a tab"
        )

    def test_load_crlf_file(self, tmp_path):
        path = tmp_path / "tax.txt"
        path.write_bytes((DATA / "taxonomy.txt").read_bytes().replace(b"\n", b"\r\n"))
        assert load_taxonomy(path).names == load_taxonomy(DATA / "taxonomy.txt").names

    def test_load_skips_leading_bom(self, tmp_path):
        path = tmp_path / "tax.txt"
        path.write_text("\ufeffProtein analysis\nSequence search\n", encoding="utf-8")
        assert load_taxonomy(path).names == ("Protein analysis", "Sequence search")

    def test_name_starting_with_bom_rejected(self, tmp_path):
        # Only a file's first U+FEFF is a byte order mark; on a later line
        # it would be kept as an invisible part of the printed name.
        name = "\ufeffProtein analysis"
        message = f"category {name!r}: field 'name' must not start with U+FEFF"
        with pytest.raises(ValueError) as info:
            CategoryTaxonomy([name])
        assert str(info.value) == message
        path = tmp_path / "tax.txt"
        path.write_text(f"Sequence search\n{name}\n", encoding="utf-8")
        with pytest.raises(ValueError) as info:
            load_taxonomy(path)
        assert str(info.value) == f"{path}: {message}"

    def test_name_starting_with_hash_rejected(self, tmp_path):
        # Written one name per line, it would be skipped as a comment.
        name = " #Protein analysis"
        with pytest.raises(ValueError) as info:
            CategoryTaxonomy(["Sequence search", name])
        assert str(info.value) == f"category {name!r}: field 'name' must not start with '#'"
        path = tmp_path / "tax.txt"
        path.write_text(f"Sequence search\n{name}\n", encoding="utf-8")
        assert load_taxonomy(path).names == ("Sequence search",)

    def test_load_undecodable_file_names_path(self, tmp_path):
        path = tmp_path / "tax.txt"
        path.write_bytes(b"Sequence Analysis\nCaf\xe9 Search\n")
        with pytest.raises(ValueError) as info:
            load_taxonomy(path)
        assert str(info.value).startswith(f"{path}: not valid UTF-8: ")


# Names that often start with a character a file would read differently.
_NAME = st.builds(
    str.__add__,
    st.sampled_from(["", "", "#", " #", "\ufeff", " ", "\r"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=8),
)


@settings(max_examples=300, deadline=None)
@given(names=st.lists(_NAME, max_size=5))
def test_built_taxonomy_round_trips(tmp_path_factory, names):
    """Every taxonomy the constructor admits, written one name per line,
    loads back with equal names."""
    try:
        taxonomy = CategoryTaxonomy(names)
    except ValueError:
        return
    path = tmp_path_factory.getbasetemp() / "taxonomy_property.txt"
    path.write_text("".join(f"{name}\n" for name in taxonomy.names), "utf-8")
    assert load_taxonomy(path).names == taxonomy.names


class TestCategoryMatch:
    def test_normalized_property(self):
        match = CategoryMatch("Text-Mining", 0.5)
        assert match.normalized == "text mining"


class TestMatchCategories:
    def test_top_match_on_demo_taxonomy(self, demo_taxonomy):
        matches = match_categories(TASK, demo_taxonomy)
        assert matches
        assert matches[0].category == "Protein Sequence Analysis"
        assert matches[0].c_score > matches[-1].c_score or len(matches) == 1

    def test_default_floor_keeps_two_demo_categories(self, demo_taxonomy):
        matches = match_categories(TASK, demo_taxonomy)
        assert [m.category for m in matches] == [
            "Protein Sequence Analysis",
            "Protein Sequences Analysis DB",
        ]

    def test_min_cscore_filters(self, demo_taxonomy):
        strict = match_categories(TASK, demo_taxonomy, min_cscore=0.99)
        assert strict == []

    def test_scores_never_negative(self, demo_taxonomy):
        matches = match_categories(TASK, demo_taxonomy, min_cscore=0.0, top_k=100)
        assert len(matches) == len(demo_taxonomy)
        assert all(m.c_score >= 0.0 for m in matches)

    def test_top_k_truncates(self, demo_taxonomy):
        assert len(match_categories(TASK, demo_taxonomy, min_cscore=0.0, top_k=1)) == 1

    def test_sorted_by_score_then_name(self):
        tax = CategoryTaxonomy(["b twin", "a twin", "unrelated zzz"])
        matches = match_categories("twin", tax, min_cscore=0.0, top_k=10)
        names = [m.category for m in matches]
        # The two "twin" categories tie exactly and fall back to name order.
        assert names.index("a twin") < names.index("b twin")
        scores = [m.c_score for m in matches]
        assert scores == sorted(scores, reverse=True)

    def test_parameter_validation(self, demo_taxonomy):
        with pytest.raises(ValueError):
            match_categories(TASK, demo_taxonomy, min_cscore=-0.1)
        with pytest.raises(ValueError):
            match_categories(TASK, demo_taxonomy, top_k=0)
        # Exact types only, as for the annotation threshold: no bool, no
        # string, no fractional count; the message names the value.
        for value in (True, "0.4", None, float("nan"), 1.5):
            with pytest.raises(ValueError, match=rf"^min_cscore {value!r} outside \[0, 1\]$"):
                match_categories(TASK, demo_taxonomy, min_cscore=value)
        for value in (True, 2.5, 2.0, "2", None, 0, -1):
            with pytest.raises(ValueError, match=rf"^top_k {value!r} is not an integer >= 1$"):
                match_categories(TASK, demo_taxonomy, top_k=value)
        assert match_categories(TASK, demo_taxonomy, min_cscore=0, top_k=1) == (
            match_categories(TASK, demo_taxonomy, min_cscore=0.0, top_k=1)
        )
        for text in (None, b"protein", 1):
            message = rf"^task_text must be a str, not {type(text).__name__}$"
            with pytest.raises(ValueError, match=message):
                match_categories(text, demo_taxonomy)

    def test_empty_text_keeps_every_name_at_zero_in_name_order(self, demo_taxonomy):
        matches = match_categories("!!!", demo_taxonomy, min_cscore=0, top_k=100)
        assert matches == [CategoryMatch(name, 0.0) for name in demo_taxonomy.names]
        assert match_categories("!!!", demo_taxonomy, min_cscore=0.1) == []

    def test_text_equal_to_a_key_scores_one(self, demo_taxonomy):
        matches = match_categories("protein-SEQUENCE analysis", demo_taxonomy, min_cscore=1.0)
        assert matches == [CategoryMatch("Protein Sequence Analysis", 1.0)]

    def test_key_shorter_than_a_block_equal_to_text_scores_one(self):
        # "ab" has no 3-character block, so it shares none with any text;
        # only its equality with the text keeps it from scoring 0.
        tax = CategoryTaxonomy(["ab", "abc q"])
        assert match_categories("AB", tax, min_cscore=1.0) == [CategoryMatch("ab", 1.0)]
        assert match_categories("AB", tax, min_cscore=0.0) == [
            CategoryMatch("ab", 1.0),
            CategoryMatch("abc q", 0.0),
        ]


def _reference_matches(text, taxonomy, min_cscore, top_k):
    """Every name scored with the full metric, then filtered and cut."""
    scored = sorted((-clamp_cscore(isub(text, name)), name) for name in taxonomy.names)
    return [CategoryMatch(name, -neg) for neg, name in scored if -neg >= min_cscore][:top_k]


# Words over four letters share many characters and substrings, so scores
# crowd around any floor.
_WORDS = st.lists(st.text(alphabet="abcq", min_size=1, max_size=5), min_size=1, max_size=4)


@settings(max_examples=500, deadline=None)
@given(
    names=st.lists(_WORDS.map(" ".join), min_size=1, max_size=8),
    # "!!!" normalizes to an empty text, which shares no block with any
    # name; None stands for the picked name in capitals.
    text=_WORDS.map(" ".join) | st.just("!!!") | st.none(),
    floor=st.sampled_from([0.0, 0.4, None]),
    pick=st.integers(0, 7),
)
def test_match_equals_scoring_every_name(names, text, floor, pick):
    """Skipping names that cannot reach the floor changes no result, also
    at a floor (None) equal to the picked name's own score and for a text
    (None) equal to the picked name."""
    taxonomy = CategoryTaxonomy(names)
    if text is None:
        text = taxonomy.names[pick % len(taxonomy)].upper()
    if floor is None:
        floor = clamp_cscore(isub(text, taxonomy.names[pick % len(taxonomy)]))
    assert match_categories(text, taxonomy, min_cscore=floor, top_k=10) == (
        _reference_matches(text, taxonomy, floor, 10)
    )
