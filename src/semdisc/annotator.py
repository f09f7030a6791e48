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

:func:`annotate` scores every candidate from one pass over the postings
of the text's words (ScanCount; Li, Lu & Lu, ICDE 2008): each form that
shares a word collects that word's -log P(w), in sorted word order, so
the collected values sum to exactly the idf of the shared words that
:func:`ratio` computes.  :func:`sim` and :func:`ratio` score one concept
or form directly and serve as the reference for that pass.
"""
from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import AbstractSet, Iterable, Mapping

from .lexicon import Concept, Lexicon

log = logging.getLogger(__name__)

DEFAULT_THRESHOLD = 0.8


class UndefinedScoreError(ValueError):
    """A form carries no information (idf 0), so its ratio is undefined."""


def cw(form_words: AbstractSet[str], text_words: AbstractSet[str]) -> frozenset[str]:
    """Distinct words shared by a lexical form and a text."""
    return frozenset(form_words & text_words)


def missing(
    form_words: AbstractSet[str],
    text_words: AbstractSet[str],
    lexicon: Lexicon,
) -> float:
    """Information the text fails to cover: idf(form) - idf(shared words).

    Clamped at 0 to absorb float rounding; mathematically never negative
    because the shared words are a subset of the form.
    """
    return max(0.0, lexicon.idf(form_words) - lexicon.idf(cw(form_words, text_words)))


def ratio(
    form_words: AbstractSet[str],
    text_words: AbstractSet[str],
    lexicon: Lexicon,
) -> float:
    """Coverage score in [-1, 1]; 1 iff the text covers the whole form.

    Raises UndefinedScoreError when idf(form) is 0 (every word has
    probability 1), since coverage of zero information is meaningless.
    """
    form_idf = lexicon.idf(form_words)
    if form_idf <= 0.0:
        raise UndefinedScoreError(f"form words {sorted(form_words)} carry no information")
    value = (2.0 * lexicon.idf(cw(form_words, text_words)) - form_idf) / form_idf
    return min(1.0, max(-1.0, value))


@dataclass(frozen=True)
class FormMatch:
    """Winning lexical form for one concept against one text."""

    form: str
    similarity: float
    matched_words: frozenset[str]


def sim(concept: Concept, text_words: AbstractSet[str], lexicon: Lexicon) -> FormMatch | None:
    """Best ratio over the concept's lexical forms.

    Ties prefer the form with the most words, then the lexicographically
    smallest.  Returns None when every form is unscoreable (idf 0); those
    forms are skipped with a log message.
    """
    best: FormMatch | None = None
    forms = sorted(
        concept.lexical_forms,
        key=lambda f: (-len(lexicon.form_words(concept.id, f)), f),
    )
    for form in forms:
        words = lexicon.form_words(concept.id, form)
        try:
            value = ratio(words, text_words, lexicon)
        except UndefinedScoreError:
            log.warning("concept %s: skipping zero-information form %r", concept.id, form)
            continue
        if best is None or value > best.similarity:
            best = FormMatch(form, value, cw(words, text_words))
    return best


@dataclass(frozen=True)
class Annotation:
    """Provenance for one vector entry; the weight is tf * idf_value."""

    concept_id: str
    lexical_form: str
    similarity: float
    tf: int
    idf_value: float
    matched_words: frozenset[str]

    @property
    def weight(self) -> float:
        return self.tf * self.idf_value


@dataclass(frozen=True)
class SemanticVector:
    """Sparse concept vector with per-entry provenance."""

    weights: Mapping[str, float]
    provenance: Mapping[str, Annotation] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for cid, weight in self.weights.items():
            if not 0.0 < weight < math.inf:
                kind = "non-positive" if weight <= 0.0 else "non-finite"
                raise ValueError(f"concept {cid}: {kind} weight {weight}")

    def support(self) -> frozenset[str]:
        return frozenset(self.weights)

    def norm(self) -> float:
        # Sorted accumulation keeps equal vectors bit-identical.
        return sum(self.weights[c] ** 2 for c in sorted(self.weights)) ** 0.5

    def __bool__(self) -> bool:
        return bool(self.weights)


def term_frequency(form_words: AbstractSet[str], text_words: Iterable[str]) -> int:
    """Occurrences of a form's word set in a text, floored at 1.

    Counted as whole-set containment: each occurrence needs one instance
    of every form word, so the count is the minimum per-word multiplicity.
    Word order is deliberately ignored.  A form that passed the similarity
    threshold without full coverage still counts once.
    """
    return _contained(form_words, Counter(text_words))


def _contained(form_words: AbstractSet[str], counts: Mapping[str, int]) -> int:
    return max(1, min((counts.get(w, 0) for w in form_words), default=0))


def annotate(
    text: str,
    lexicon: Lexicon,
    *,
    threshold: float = DEFAULT_THRESHOLD,
) -> SemanticVector:
    """Annotate free text into a semantic vector over lexicon concepts.

    Every concept whose similarity reaches ``threshold`` contributes one
    entry weighted tf * idf of its winning form.  Invariant under word
    reordering of the text.  An empty or fully-unknown text yields an
    empty vector.
    """
    if not -1.0 <= threshold <= 1.0:
        raise ValueError(f"threshold {threshold} outside [-1, 1]")
    words = lexicon.tokenizer(text)
    text_set = frozenset(words)
    # Per form, the -log P(w) of each shared word, in sorted word order.
    shared: dict[tuple[str, str], list[float]] = {}
    for word in sorted(text_set):
        postings = lexicon.forms_with_word(word)
        if not postings:
            continue
        information = -math.log(lexicon.probability(word))
        for key in postings:
            infos = shared.get(key)
            if infos is None:
                shared[key] = [information]
            else:
                infos.append(information)
    if threshold > -1.0:
        # Only forms sharing a word can score above -1.
        candidates: Iterable[tuple[tuple[str, str], list[float]]] = shared.items()
    else:
        candidates = (
            ((c.id, form), shared.get((c.id, form), []))
            for c in lexicon.concepts
            for form in c.lexical_forms
        )
    # Per concept, the winning (similarity, form): highest similarity,
    # then the form with more words, then the lexicographically smaller.
    best: dict[str, tuple[float, str]] = {}
    for (cid, form), infos in candidates:
        form_idf = lexicon.form_idf(cid, form)
        if form_idf <= 0.0:
            continue
        value = min(1.0, max(-1.0, (2.0 * sum(infos) - form_idf) / form_idf))
        current = best.get(cid)
        if current is None or value > current[0] or (
            value == current[0] and _wins_tie(lexicon, cid, form, current[1])
        ):
            best[cid] = (value, form)
    counts = Counter(words)
    weights: dict[str, float] = {}
    provenance: dict[str, Annotation] = {}
    for cid in sorted(best):
        value, form = best[cid]
        if value < threshold:
            continue
        form_words = lexicon.form_words(cid, form)
        entry = Annotation(
            concept_id=cid,
            lexical_form=form,
            similarity=value,
            tf=_contained(form_words, counts),
            idf_value=lexicon.form_idf(cid, form),
            matched_words=cw(form_words, text_set),
        )
        weights[cid] = entry.weight
        provenance[cid] = entry
    return SemanticVector(weights=weights, provenance=provenance)


def _wins_tie(lexicon: Lexicon, concept_id: str, form: str, other: str) -> bool:
    """Whether ``form`` beats ``other`` at equal similarity."""
    n = len(lexicon.form_words(concept_id, form))
    m = len(lexicon.form_words(concept_id, other))
    return n > m or (n == m and form < other)
