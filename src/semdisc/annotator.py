"""Concept annotation: score lexicon concepts against free text.

A lexical form S is scored against a text T through the information
content of their shared words:

    missing(S, T) = idf(S) - idf(cw(S, T))
    ratio(S, T)   = (idf(cw(S, T)) - missing(S, T)) / idf(S)

which collapses to (2 * idf(cw) - idf(S)) / idf(S), a value in [-1, 1]
that reaches 1 exactly when the text covers every word of the form.  A
concept's similarity is the best ratio over its forms; concepts at or
above the acceptance threshold enter a sparse semantic vector weighted
by tf * idf of the winning form.

Scoring works on distinct words: a form and a text are compared as word
sets, and a form's information content here is the idf of its distinct
words.

:func:`annotate` finds its candidates by prefix filtering, the
candidate step of set-similarity joins (Chaudhuri, Ganti & Kaushik, ICDE
2006; Bayardo, Ma & Srikant, WWW 2007), here weighted by -log P(w).  As
ratio = 1 - 2 * missing / idf(S), a form reaches threshold t only if its
missing information is at most (1 - t) / 2 * idf(S).  The form's prefix
at t is its distinct words by -log P(w), largest first (ties by word),
taken until their sum exceeds that budget times (1 + 1e-9).  A text
holding no prefix word misses all of them, more than the budget, so
only forms sharing a prefix word with the text are scored.  At t = 0.8
the budget is a tenth of idf(S), so a form of fewer than ten distinct
words has one prefix word: its rarest.

The filter is exact.  Rounding moves a computed ratio by under 1e-15,
and the margin makes rounding widen a prefix, never shrink it: where
the budget is at least 5e-7 of idf(S), the margin exceeds that error;
where it is smaller, the first prefix word alone carries at least 1/n
of the information of an n-word form, far beyond the budget.  Each
candidate is then scored as :func:`ratio` scores it, ``math.fsum`` over
all its shared words, and counted as :func:`term_frequency` counts it,
so :func:`sim`, :func:`ratio` and :func:`term_frequency`, which score
one concept or form directly, remain the reference for :func:`annotate`.
A form the text covers in full scores exactly 1: ``math.fsum`` of its
own words is its idf, and (2x - x) / x == 1.0.  At t = -1 every form
reaches the threshold and every form is a candidate.  A concept enters
the vector only through a form reaching the threshold, so a candidate
below it is dropped before the tie rules.

:func:`annotate` reads what it scores by from the lexicon's tables,
filled on first use and kept (see :class:`~semdisc.lexicon.Lexicon`),
through public names only: the candidates' FormEntry values (each a
form's concept id, distinct words and idf) from one
:meth:`~semdisc.lexicon.Lexicon.prefix_entries` call at every threshold,
and each shared word's -log P(w) from
:attr:`~semdisc.lexicon.Lexicon.entry_information`, the information
memo, which making an entry fills for every word of its form.

:class:`Annotation` is a checked tuple type (a ``typing.NamedTuple``
subclass whose constructor checks every field), so it compares equal to
a plain tuple of its fields; :class:`SemanticVector` is a slotted
:class:`~semdisc.lexicon.Frozen` value, equal to another vector with
equal provenance.
"""
from __future__ import annotations

import math
from collections import Counter
from typing import AbstractSet, Iterable, Mapping, NamedTuple

from .lexicon import (  # check_threshold is re-exported for registry
    Checked,
    Concept,
    FormEntry,
    Frozen,
    Lexicon,
    check_str,
    check_threshold,
    normalize,
)

DEFAULT_THRESHOLD = 0.8
# The range of annotation weights: their squares and pairwise products
# are normal floats.
_MIN_WEIGHT, _MAX_WEIGHT = 2.0**-255, 2.0**255


class UndefinedScoreError(ValueError):
    """A form word set is empty, so it carries no information and its
    ratio is undefined."""


def cw(form_words: AbstractSet[str], text_words: AbstractSet[str]) -> frozenset[str]:
    """Distinct words shared by a lexical form and a text."""
    return frozenset(form_words & text_words)


def missing(
    form_words: AbstractSet[str],
    text_words: AbstractSet[str],
    lexicon: Lexicon,
) -> float:
    """Information the text fails to cover: idf(form) - idf(shared words),
    never negative in floats either, for the reason :func:`ratio` gives."""
    return lexicon.idf(form_words) - lexicon.idf(cw(form_words, text_words))


def ratio(
    form_words: AbstractSet[str],
    text_words: AbstractSet[str],
    lexicon: Lexicon,
) -> float:
    """Coverage score in [-1, 1]; 1 iff the text covers the whole form.

    Every word has probability below 1, so any non-empty form has idf > 0.
    Raises UndefinedScoreError for the one input with no information, an
    empty form word set, since coverage of it is meaningless.  No clamp is
    needed: the shared words are a subset of the form's, each -log P(w) is
    positive and ``math.fsum`` correctly rounded, so 0 <= idf(shared) <=
    idf(form) holds in floats, and rounding 2s - f and the quotient is monotone.
    """
    if not form_words:
        raise UndefinedScoreError("an empty form word set carries no information")
    form_idf = lexicon.idf(form_words)
    return (2.0 * lexicon.idf(cw(form_words, text_words)) - form_idf) / form_idf


class FormMatch(NamedTuple):
    """Winning lexical form for one concept against one text."""

    form: str
    similarity: float
    matched_words: frozenset[str]


def sim(concept: Concept, text_words: AbstractSet[str], lexicon: Lexicon) -> FormMatch:
    """Best ratio over the concept's lexical forms, every one of which
    has words and so a ratio.

    Ties prefer the form with the most words, then the lexicographically
    smallest.
    """
    forms = sorted(
        concept.lexical_forms,
        key=lambda f: (-len(lexicon.form_words(concept.id, f)), f),
    )
    # max keeps the first of equal values, so forms go in tie-break order.
    form = max(
        forms, key=lambda f: ratio(lexicon.form_words(concept.id, f), text_words, lexicon)
    )
    words = lexicon.form_words(concept.id, form)
    return FormMatch(form, ratio(words, text_words, lexicon), cw(words, text_words))


class _AnnotationRow(NamedTuple):
    concept_id: str
    lexical_form: str
    similarity: float
    tf: int
    idf_value: float
    matched_words: frozenset[str]


class Annotation(Checked, _AnnotationRow):
    """One vector entry, a checked tuple of the fields an index file holds
    for it; tf is at least 1, and the weight, tf * idf_value, lies in
    [2**-255, 2**255].  ValueError names the field a value does not fit."""

    __slots__ = ()

    def __new__(
        cls,
        concept_id: str,
        lexical_form: str,
        similarity: float,
        tf: int,
        idf_value: float,
        matched_words: frozenset[str],
    ) -> Annotation:
        # Exact types, so a bool is no number.
        if type(concept_id) is not str:
            raise ValueError(f"field 'concept_id' has type {type(concept_id).__name__}")
        if type(lexical_form) is not str:
            raise ValueError(f"field 'lexical_form' has type {type(lexical_form).__name__}")
        if type(similarity) is not float and type(similarity) is not int:
            raise ValueError(f"field 'similarity' has type {type(similarity).__name__}")
        if type(tf) is not int:
            raise ValueError(f"field 'tf' has type {type(tf).__name__}")
        if type(idf_value) is not float and type(idf_value) is not int:
            raise ValueError(f"field 'idf_value' has type {type(idf_value).__name__}")
        if type(matched_words) is not frozenset:
            raise ValueError(f"field 'matched_words' has type {type(matched_words).__name__}")
        if not -1.0 <= similarity <= 1.0:
            raise ValueError(f"similarity {similarity} outside [-1, 1]")
        for word in matched_words:
            if type(word) is not str:
                raise ValueError("field 'matched_words' must be a frozenset of strings")
        try:
            weight = float(tf * idf_value)
        except OverflowError as exc:
            raise ValueError(f"field 'tf': {exc}") from None
        if not _MIN_WEIGHT <= weight <= _MAX_WEIGHT:
            kind = (
                "non-positive" if weight <= 0.0
                else "out-of-range" if weight < math.inf
                else "non-finite"
            )
            raise ValueError(f"field 'tf': {kind} weight {weight} outside [2**-255, 2**255]")
        if tf < 1:
            raise ValueError(f"field 'tf': {tf} is below 1")
        return tuple.__new__(
            cls, (concept_id, lexical_form, similarity, tf, idf_value, matched_words)
        )

    @property
    def weight(self) -> float:
        return self.tf * self.idf_value


class SemanticVector(Frozen):
    """Sparse concept vector: one :class:`Annotation` per concept, keyed by
    its concept id.  ``weights`` maps each concept to its annotation's
    weight, tf * idf_value, which lies in [2**-255, 2**255], so no norm or
    cosine underflows or overflows.  A :class:`~semdisc.lexicon.Frozen`
    value whose ``_args()`` are its provenance: it keeps its own copy of
    the mapping it is given."""

    __slots__ = ("provenance", "weights")
    provenance: Mapping[str, Annotation]
    weights: Mapping[str, float]

    def __init__(self, provenance: Mapping[str, Annotation]) -> None:
        provenance = dict(provenance)
        weights = {}
        for cid, entry in provenance.items():
            if not isinstance(entry, Annotation):
                raise ValueError(f"concept {cid}: {type(entry).__name__} is not an Annotation")
            if entry.concept_id != cid:
                raise ValueError(f"concept {cid}: provenance names {entry.concept_id!r}")
            weights[cid] = entry.weight
        object.__setattr__(self, "provenance", provenance)
        object.__setattr__(self, "weights", weights)

    def _args(self) -> tuple:
        return (self.provenance,)

    def __repr__(self) -> str:
        return f"SemanticVector({self.provenance!r})"

    def support(self) -> frozenset[str]:
        return frozenset(self.weights)

    def norm(self) -> float:
        return math.sqrt(math.fsum(w * w for w in self.weights.values()))

    def __bool__(self) -> bool:
        return bool(self.weights)


def term_frequency(form_words: AbstractSet[str], text_words: Iterable[str]) -> int:
    """Occurrences of a form's word set in a text, floored at 1.

    Counted as whole-set containment: each occurrence needs one instance
    of every form word, so the count is the minimum per-word multiplicity.
    Word order is deliberately ignored.  A form that passed the similarity
    threshold without full coverage still counts once.
    """
    counts = Counter(text_words)
    return max(1, min((counts[w] for w in form_words), default=0))


def annotate(
    text: str,
    lexicon: Lexicon,
    *,
    threshold: float = DEFAULT_THRESHOLD,
) -> SemanticVector:
    """Annotate free text into a semantic vector over lexicon concepts.

    Every concept whose similarity reaches ``threshold`` contributes one
    entry weighted tf * idf of its winning form; word order does not
    matter.  A text sharing no word with the lexicon (or empty) scores -1
    on every form: an empty vector above threshold -1, every concept with
    tf 1 at -1.  Text that is not a ``str``, or a ``lexicon`` that is not
    a :class:`~semdisc.lexicon.Lexicon`, raises ValueError.
    """
    check_str(text, "text")
    if not isinstance(lexicon, Lexicon):
        raise ValueError(f"lexicon {lexicon!r} is not a Lexicon")
    words = normalize(text)
    text_set = frozenset(words)
    candidates = lexicon.prefix_entries(text_set, threshold)
    information = lexicon.entry_information
    # Per concept, the winner among forms reaching the threshold as
    # (similarity, entry, shared words): highest similarity, then the
    # form with more words, then the lexicographically smaller.
    best: dict[str, tuple[float, FormEntry, frozenset[str]]] = {}
    for entry in candidates:
        cid, form, form_words, form_idf = entry
        shared = form_words & text_set
        value = (2.0 * math.fsum(map(information, shared)) - form_idf) / form_idf
        if value < threshold:
            continue
        current = best.get(cid)
        if current is None or value > current[0] or value == current[0] and (
            (n := len(form_words)) > (m := len(current[1].words))
            or n == m and form < current[1].form
        ):
            best[cid] = (value, entry, shared)
    counts = Counter(words)
    provenance: dict[str, Annotation] = {}
    for cid in sorted(best):
        value, (_, form, form_words, form_idf), shared = best[cid]
        tf = max(1, min(map(counts.__getitem__, form_words)))
        provenance[cid] = Annotation(cid, form, value, tf, form_idf, shared)
    return SemanticVector(provenance)
