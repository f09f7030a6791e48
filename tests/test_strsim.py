"""String similarity metric: normalization, commonality, difference, prefix."""
from __future__ import annotations

from collections import Counter
from difflib import SequenceMatcher

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semdisc.strsim import (
    WINKLER_PREFIX_CAP,
    _isub_normalized,
    _isub_score,
    _isub_upper_bound,
    _longest_common_substring,
    _matched_total,
    blocks,
    char_occurrences,
    clamp_cscore,
    isub,
    normalize_string,
)

TASK = "Analyze domains in protein sequences"


def _oracle_longest_common_substring(s1: str, s2: str) -> tuple[int, int, int]:
    """O(len1 * len2) dynamic program: the longest common substring,
    leftmost in s1, then in s2."""
    best_len = 0
    best_i = best_j = 0
    previous = [0] * (len(s2) + 1)
    for i in range(1, len(s1) + 1):
        current = [0] * (len(s2) + 1)
        c1 = s1[i - 1]
        for j in range(1, len(s2) + 1):
            if c1 == s2[j - 1]:
                length = previous[j - 1] + 1
                current[j] = length
                if length > best_len:
                    best_len = length
                    best_i = i - length
                    best_j = j - length
        previous = current
    return best_len, best_i, best_j


def _oracle_matched_total(s1: str, s2: str, min_len: int) -> int:
    total = 0
    while s1 and s2:
        length, i, j = _oracle_longest_common_substring(s1, s2)
        if length < min_len:
            break
        total += length
        s1 = s1[:i] + s1[i + length :]
        s2 = s2[:j] + s2[j + length :]
    return total


# A three-letter alphabet plus space makes repeated and tied substrings common.
tie_prone_st = st.text(alphabet="ab c", max_size=14)


class TestNormalizeString:
    def test_folds_case_and_punctuation(self):
        assert normalize_string("Protein-Sequence  Analysis!") == (
            "protein sequence analysis"
        )

    def test_empty(self):
        assert normalize_string("!!!") == ""


class TestLongestCommonSubstring:
    def test_basic(self):
        length, start1, start2 = _longest_common_substring("xxabcdyy", "zabcdz")
        assert (length, start1, start2) == (4, 2, 1)

    def test_tie_prefers_leftmost_in_first_string(self):
        # "abc" and "def" are both 3 long; "abc" starts earlier in s1.
        length, start1, start2 = _longest_common_substring("abcXdef", "ZZdefZabc")
        assert length == 3
        assert start1 == 0
        assert start2 == 6

    def test_no_overlap(self):
        assert _longest_common_substring("abc", "xyz")[0] == 0

    @given(s1=tie_prone_st, s2=tie_prone_st)
    @settings(max_examples=500, deadline=None)
    def test_matches_dynamic_program(self, s1, s2):
        assert _longest_common_substring(s1, s2) == _oracle_longest_common_substring(
            s1, s2
        )

    @given(s1=tie_prone_st, s2=tie_prone_st)
    @settings(max_examples=500, deadline=None)
    def test_matches_difflib(self, s1, s2):
        # The reference: difflib's longest match on strings without junk.
        matcher = SequenceMatcher(None, s1, s2, autojunk=False)
        i, j, length = matcher.find_longest_match(0, len(s1), 0, len(s2))
        assert _longest_common_substring(s1, s2) == (length, i, j)

    @given(s1=tie_prone_st, s2=tie_prone_st, floor=st.integers(0, 4))
    @settings(max_examples=500, deadline=None)
    def test_floored_matches_difflib(self, s1, s2, floor):
        # Longer than the floor, the longest match is difflib's; no longer,
        # it reads (0, 0, 0), which ends _matched_total's removal.
        matcher = SequenceMatcher(None, s1, s2, autojunk=False)
        i, j, length = matcher.find_longest_match(0, len(s1), 0, len(s2))
        expected = (length, i, j) if length > floor else (0, 0, 0)
        assert _longest_common_substring(s1, s2, floor) == expected


class TestMatchedTotal:
    def test_iterates_until_blocks_too_short(self):
        # "protein " (8) is removed first, then "x"/"y" are below the
        # minimum block length and stop the iteration.
        assert _matched_total("protein x", "protein y", 3) == 8

    def test_respects_min_len(self):
        assert _matched_total("ab", "ab", 3) == 0
        assert _matched_total("ab", "ab", 2) == 2

    @given(s1=tie_prone_st, s2=tie_prone_st, min_len=st.integers(1, 4))
    @settings(max_examples=500, deadline=None)
    def test_matches_dynamic_program(self, s1, s2, min_len):
        assert _matched_total(s1, s2, min_len) == _oracle_matched_total(s1, s2, min_len)


class TestMatchedBound:
    """The shared character multiset bounds the matched total, which
    category matching relies on to skip the full metric."""

    @given(s1=tie_prone_st, s2=tie_prone_st)
    @settings(max_examples=500, deadline=None)
    def test_shared_characters_bound_matched_total_and_score(self, s1, s2):
        chars1, chars2 = char_occurrences(s1), char_occurrences(s2)
        assert len(chars1 & chars2) == (Counter(s1) & Counter(s2)).total()
        assert _matched_total(s1, s2, 3) <= len(chars1 & chars2)
        if s1 and s2:
            assert _isub_upper_bound(s1, s2, chars1, chars2) >= _isub_normalized(s1, s2)

    def test_matched_block_can_span_a_junction(self):
        # Removing "QQQ" from both joins a, b and c into the common "abc",
        # though no 3-gram of the original strings but "QQQ" is shared:
        # a bound counting shared 3-grams would say 3, under the true 6.
        assert _matched_total("abQQQc", "aQQQbc", 3) == 6
        assert len(char_occurrences("abQQQc") & char_occurrences("aQQQbc")) == 6

    @given(s1=tie_prone_st, s2=tie_prone_st)
    @settings(max_examples=500, deadline=None)
    def test_no_shared_block_scores_zero(self, s1, s2):
        # Nothing is removed, so no junction forms: unlike the counting
        # bound above, disjoint blocks are exact.
        shared = any(s1[i : i + 3] in s2 for i in range(len(s1) - 2))
        assert blocks(s1).isdisjoint(blocks(s2)) is not shared
        if s1 != s2 and not shared:
            assert _matched_total(s1, s2, 3) == 0
            assert _isub_normalized(s1, s2) <= -0.6
            assert clamp_cscore(_isub_normalized(s1, s2)) == 0.0

    @pytest.mark.parametrize(
        "s1, s2", [("ab", "ba"), ("a", "ab"), ("ab", "abc"), ("ab", "ab q"), ("x", "xyz")]
    )
    def test_unequal_strings_shorter_than_a_block(self, s1, s2):
        assert blocks(s1) == frozenset()
        assert _matched_total(s1, s2, 3) == 0
        assert _isub_normalized(s1, s2) <= -0.6
        assert clamp_cscore(_isub_normalized(s1, s2)) == 0.0

    def test_score_strictly_increasing_in_matched_and_symmetric(self):
        for len_a in range(1, 61):
            for len_b in range(len_a, 61):
                for prefix in range(WINKLER_PREFIX_CAP + 1):
                    scores = [
                        _isub_score(len_a, len_b, matched, prefix)
                        for matched in range(len_a + 1)
                    ]
                    assert all(low < high for low, high in zip(scores, scores[1:]))
                    assert scores == [
                        _isub_score(len_b, len_a, matched, prefix)
                        for matched in range(len_a + 1)
                    ]


class TestIsub:
    def test_identical_strings(self):
        assert isub("protein", "protein") == 1.0

    def test_equal_after_normalization(self):
        assert isub("Tree!", "tree") == 1.0

    def test_both_empty_after_normalization(self):
        assert isub("!!!", "???") == 1.0

    def test_one_empty_is_floor(self):
        assert isub("protein", "...") == -1.0
        assert isub("", "protein") == -1.0

    def test_disjoint_strings_are_negative(self):
        assert isub("abc", "xyz") < 0.0

    def test_symmetry(self):
        pairs = [
            (TASK, "Protein Sequence Analysis"),
            ("alpha beta", "beta alpha"),
            ("short", "a much longer string entirely"),
        ]
        for s1, s2 in pairs:
            assert isub(s1, s2) == isub(s2, s1)

    def test_range(self):
        pairs = [
            ("a", "b"),
            ("protein sequences", "protein sequence analysis"),
            ("x" * 30, "x" * 29 + "y"),
        ]
        for s1, s2 in pairs:
            assert -1.0 <= isub(s1, s2) <= 1.0

    def test_worked_pair(self):
        # Hand decomposition at min block length 3, after normalization
        # to "analyze domains in protein sequences" (36 chars) and
        # "protein sequence analysis" (25 chars):
        #   blocks "protein sequence" (16) and "analy" (5), total 21
        #   comm     = 42/61
        #   unmatched fractions 15/36 and 4/25, product p' = 1/15
        #   diff     = p' / (0.6 + 0.4*(15/36 + 4/25 - p')) = 0.082918...
        #   prefix   = 0, so no Winkler bonus
        #   isub     = 0.688524... - 0.082918... = 0.605605...
        value = isub(TASK, "Protein Sequence Analysis")
        assert value == pytest.approx(0.6056058505287769, abs=1e-12)

    def test_prefix_bonus(self):
        # "protein x" / "protein y": common "protein " (8 of 9+9 chars),
        # comm = 16/18; unmatched 1/9 each side gives diff 0.018051...;
        # shared prefix of 4+ chars adds 4 * 0.1 * (1 - comm) = 0.04444...
        value = isub("protein x", "protein y")
        assert value == pytest.approx(0.9152827918170878, abs=1e-12)

    def test_block_transposition_not_identity(self):
        # Reordered word blocks stay below 1: the metric sees them as
        # common substrings but still charges the difference term.
        value = isub("abc def", "def abc")
        assert 0.0 < value < 1.0


class TestClampCscore:
    def test_negative_clamped(self):
        assert clamp_cscore(-0.3) == 0.0

    def test_positive_passthrough(self):
        assert clamp_cscore(0.3) == 0.3
