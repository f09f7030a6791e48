"""String similarity for category matching.

Implements the ISub metric (Stoilos, Stamou & Kollias, ISWC 2005):
similarity is commonality minus difference plus a Winkler-style prefix
reward.  Commonality sums iteratively removed longest common substrings;
difference combines the unmatched fractions of both strings through a
Hamacher product; the prefix reward scales with the unmatched
commonality.  The constants are the metric's published ones: substrings
shorter than 3 characters are ignored, the Hamacher parameter p is 0.6,
and the prefix reward is 0.1 per shared leading character, up to 4.
Since 0.1 * 4 <= 1, scores live in [-1, 1].

The longest common substring is found by substring search rather than a
dynamic program: scanning the first string left to right, each start
only has to beat the best length found so far, so every step is one
``in`` test on the second string, done in C.  It returns what
:meth:`difflib.SequenceMatcher.find_longest_match` returns for two
strings without junk, tie rule included.  ISub removes only substrings
of at least 3 characters, so its scan starts with a best length of 2:
it tests no shorter substring, and finding none longer ends the removal
as a match of 2 characters or fewer would.

The score is computed from the two lengths, the matched total and the
shared prefix alone (:func:`_isub_score`), and rises with the matched
total.  The matched total never exceeds the characters the two strings
share, counted with multiplicity (:func:`char_occurrences`), so scoring
that count instead bounds the score from above without searching for a
substring (:func:`_isub_upper_bound`).

Two unequal strings that share no substring of 3 characters
(:func:`blocks`) have a matched total of 0: the first longest common
substring is already too short, so nothing is removed and no junction
forms.  Their score is then at most -1 + 0.1 * 4 = -0.6, and their
clamped score exactly 0.  Counting the shared 3-character substrings
would still not bound the matched total: once a block is removed, the
characters on each side of it join, and a longer common substring can
span the junction (``"abQQQc"`` and ``"aQQQbc"`` share only ``"QQQ"``,
yet match 6 characters; ``test_matched_block_can_span_a_junction`` in
``tests/test_strsim.py``).
"""
from __future__ import annotations

from .lexicon import normalize

MIN_SUBSTRING_LEN = 3
HAMACHER_P = 0.6
WINKLER_SCALE = 0.1
WINKLER_PREFIX_CAP = 4


def normalize_string(text: str) -> str:
    """Normalization used before scoring: the words of :func:`normalize`
    joined by single spaces."""
    return " ".join(normalize(text))


def _longest_common_substring(s1: str, s2: str, floor: int = 0) -> tuple[int, int, int]:
    """Length and start offsets of the longest common substring.

    Ties take the leftmost occurrence in s1, then in s2: the tie rule of
    :meth:`difflib.SequenceMatcher.find_longest_match`.  At most
    ``len(s1) + length`` substring tests; pass the shorter string as s1.
    The scan only looks for substrings longer than ``floor``; when the
    longest is no longer, the result is ``(0, 0, 0)``.
    """
    best = floor
    start = i = 0
    while i + best < len(s1):
        if s1[i : i + best + 1] in s2:
            best += 1
            while i + best < len(s1) and s1[i : i + best + 1] in s2:
                best += 1
            start = i
        i += 1
    if best == floor:
        return 0, 0, 0
    return best, start, s2.find(s1[start : start + best])


def _matched_total(s1: str, s2: str, min_len: int) -> int:
    """Total length of iteratively removed common substrings."""
    total = 0
    while s1 and s2:
        # Only substrings of min_len or more are removed, so the scan
        # skips the shorter ones.
        length, i, j = _longest_common_substring(s1, s2, min_len - 1)
        if length < min_len:
            break
        total += length
        s1 = s1[:i] + s1[i + length :]
        s2 = s2[:j] + s2[j + length :]
    return total


def isub(s1: str, s2: str) -> float:
    """ISub similarity of two strings, in [-1, 1].

    Both inputs are normalized first; equal normalized strings (including
    two empty ones) score exactly 1, and an empty string against a
    non-empty one scores -1.  The metric is symmetric: arguments are
    ordered canonically before scoring so ties in substring selection
    cannot depend on argument order.
    """
    return _isub_normalized(normalize_string(s1), normalize_string(s2))


def _isub_normalized(a: str, b: str) -> float:
    """ISub of two strings already passed through :func:`normalize_string`."""
    if a == b:
        return 1.0
    if not a or not b:
        return -1.0
    if (len(a), a) > (len(b), b):
        a, b = b, a
    matched = _matched_total(a, b, MIN_SUBSTRING_LEN)
    return _isub_score(len(a), len(b), matched, _prefix_len(a, b))


def _isub_score(len_a: int, len_b: int, matched: int, prefix: int) -> float:
    """ISub of two non-empty strings of these lengths from their matched
    total and their capped shared prefix (:func:`_prefix_len`).

    Symmetric in the two lengths, bit for bit, and strictly increasing in
    ``matched``: so a ``matched`` that can only exceed the true one gives
    a score that can only exceed the true score.
    """
    commonality = 2.0 * matched / (len_a + len_b)
    unmatched_a = (len_a - matched) / len_a
    unmatched_b = (len_b - matched) / len_b
    product = unmatched_a * unmatched_b
    difference = product / (
        HAMACHER_P + (1.0 - HAMACHER_P) * (unmatched_a + unmatched_b - product)
    )
    winkler = prefix * WINKLER_SCALE * (1.0 - commonality)
    return commonality - difference + winkler


def _prefix_len(a: str, b: str) -> int:
    """Length of the shared leading characters, up to the Winkler cap."""
    prefix = 0
    for ca, cb in zip(a[:WINKLER_PREFIX_CAP], b):
        if ca != cb:
            break
        prefix += 1
    return prefix


def _isub_upper_bound(a: str, b: str, chars_a: frozenset[str], chars_b: frozenset[str]) -> float:
    """A score at least :func:`_isub_normalized` of two non-empty
    normalized strings, from their :func:`char_occurrences` and without a
    substring search; equal to it when every shared character is matched."""
    return _isub_score(len(a), len(b), len(chars_a & chars_b), _prefix_len(a, b))


def char_occurrences(text: str) -> frozenset[str]:
    """The characters of ``text`` as a set, the k-th occurrence of a
    character c written as c repeated k times.

    The size of the intersection of two such sets is the size of the
    shared character multiset, sum over c of the smaller count.  Every
    removed common substring matches character for character, so that
    size bounds :func:`_matched_total` from above.
    """
    occurrences = set()
    last: dict[str, str] = {}
    for c in text:
        last[c] = occurrence = last.get(c, "") + c
        occurrences.add(occurrence)
    return frozenset(occurrences)


def blocks(text: str) -> frozenset[str]:
    """The substrings of ``text`` of length :data:`MIN_SUBSTRING_LEN`.

    Two unequal strings whose sets are disjoint score at most -0.6, so
    their clamped score is 0.
    """
    n = MIN_SUBSTRING_LEN
    return frozenset(text[i : i + n] for i in range(len(text) - n + 1))


def clamp_cscore(value: float) -> float:
    """Map a similarity onto the category-score scale [0, 1]."""
    return max(0.0, value)
