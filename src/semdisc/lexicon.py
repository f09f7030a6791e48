"""Concept lexicon and information-content scoring.

A lexicon maps concept identifiers to their lexical forms and carries a
word-probability model estimated from those forms.  The information content
(idf) of a word collection is the sum of -log P(w) over its words, so rare
words weigh more than common ones.  A :class:`Lexicon` estimates the
probabilities itself, with Laplace add-one smoothing over the corpus of
its lexical forms; words never seen in any form fall back to a shared
floor probability.  Every probability is below 1, so every form carries
information.

Instances are immutable after construction and safe to share across
threads; the only table filled later, each form's idf, is a memo of
values that do not depend on which thread computes them.
"""
from __future__ import annotations

import hashlib
import math
import re
from collections import Counter
from dataclasses import InitVar, dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

_NON_WORD = re.compile(r"[\W_]+", re.UNICODE)


def normalize(text: str) -> list[str]:
    """Lowercase, replace punctuation with spaces, and split into words.

    Word order and multiplicity are preserved; no stopword removal and no
    stemming.  The function is idempotent on its own space-joined output.
    """
    return _NON_WORD.sub(" ", text.lower()).split()


@dataclass(frozen=True)
class Concept:
    """One ontology concept: an identifier plus its lexical forms.

    ``form_words`` maps each form to its :func:`normalize` words, derived
    on construction; every form needs at least one word.
    """

    id: str
    lexical_forms: frozenset[str]
    source: str = "umls"
    form_words: Mapping[str, tuple[str, ...]] = field(
        init=False, repr=False, compare=False
    )
    # Words a loader already computed for these forms, so they are not
    # tokenized a second time.
    _words: InitVar[Mapping[str, tuple[str, ...]] | None] = None

    def __post_init__(self, _words: Mapping[str, tuple[str, ...]] | None) -> None:
        if not self.id:
            raise ValueError("concept id must be non-empty")
        if not self.lexical_forms:
            raise ValueError(f"concept {self.id}: at least one lexical form required")
        if _words is None:
            _words = {form: tuple(normalize(form)) for form in self.lexical_forms}
        for form in self.lexical_forms:
            if not _words.get(form):
                raise ValueError(f"concept {self.id}: form {form!r} has no words")
        object.__setattr__(self, "form_words", _words)


class Lexicon:
    """Immutable concept collection with the word-probability model its
    forms estimate.

    Laplace add-one smoothing: P(w) = (count(w) + 1) / (total + vocab + 1),
    where counts run over every lexical form of every concept, repeated
    words counting once per occurrence; ``unseen_prob``, 1 / (total +
    vocab + 1), is the floor for words outside the model.  The denominator
    exceeds every numerator, so every probability is below 1 (as floats,
    while total < 2**52) and every form carries information: idf > 0.

    Each form's idf is memoised the first time :meth:`form_idf` asks for
    it, not at load time, so loading pays nothing for forms no text ever
    touches.  A memoised value is a pure function of the form, so two
    threads filling the same entry store equal floats and sharing an
    instance across threads stays safe.
    """

    #: Splits forms and texts into words: always :func:`normalize`.
    tokenizer = staticmethod(normalize)

    def __init__(
        self, concepts: Iterable[Concept], *, fingerprint: str | None = None
    ) -> None:
        by_id: dict[str, Concept] = {}
        for concept in concepts:
            if concept.id in by_id:
                raise ValueError(f"duplicate concept id {concept.id!r}")
            by_id[concept.id] = concept
        self._by_id = by_id
        self._concepts = tuple(by_id[cid] for cid in sorted(by_id))
        # Count every word occurrence, and post every form under each of
        # its words; annotation is read-heavy.
        counts: Counter[str] = Counter()
        self._form_words: dict[tuple[str, str], frozenset[str]] = {}
        self._postings: dict[str, list[tuple[str, str]]] = {}
        for concept in self._concepts:
            for form in concept.lexical_forms:
                words = concept.form_words[form]
                counts.update(words)
                key = (concept.id, form)
                distinct = self._form_words[key] = frozenset(words)
                for word in distinct:
                    self._postings.setdefault(word, []).append(key)
        if not counts:
            raise ValueError("empty lexicon: no lexical forms to estimate from")
        denom = sum(counts.values()) + len(counts) + 1
        self._word_prob = {w: (c + 1) / denom for w, c in counts.items()}
        self.unseen_prob = 1.0 / denom
        self._form_idf: dict[tuple[str, str], float] = {}
        self.fingerprint = fingerprint or self._content_fingerprint()

    def _content_fingerprint(self) -> str:
        """SHA-256 of the concept lines; the probabilities follow from them."""
        digest = hashlib.sha256()
        for concept in self._concepts:
            for form in sorted(concept.lexical_forms):
                digest.update(f"{concept.id}\t{concept.source}\t{form}\n".encode())
        return digest.hexdigest()

    @property
    def concepts(self) -> tuple[Concept, ...]:
        """All concepts in ascending id order."""
        return self._concepts

    def concept(self, concept_id: str) -> Concept:
        return self._by_id[concept_id]

    def __len__(self) -> int:
        return len(self._concepts)

    def __contains__(self, concept_id: str) -> bool:
        return concept_id in self._by_id

    @property
    def vocabulary(self) -> frozenset[str]:
        return frozenset(self._word_prob)

    def probability(self, word: str) -> float:
        return self._word_prob.get(word, self.unseen_prob)

    def idf(self, words: Iterable[str]) -> float:
        """Information content of a word collection: sum of -log P(w).

        Additive over multiset union: a repeated word contributes once per
        occurrence.  ``math.fsum`` is correctly rounded, so equal
        collections give bit-identical floats in any order.  Always >= 0.
        """
        return math.fsum(-math.log(self.probability(w)) for w in words)

    def form_words(self, concept_id: str, form: str) -> frozenset[str]:
        """Distinct normalized words of one lexical form (precomputed)."""
        return self._form_words[concept_id, form]

    def form_idf(self, concept_id: str, form: str) -> float:
        """idf of one lexical form's distinct words, memoised; always > 0,
        since a form has words and every probability is below 1."""
        key = (concept_id, form)
        value = self._form_idf.get(key)
        if value is None:
            value = self._form_idf[key] = self.idf(self._form_words[key])
        return value

    def forms_with_word(self, word: str) -> Sequence[tuple[str, str]]:
        """``(concept_id, form)`` of every form having ``word``; do not mutate."""
        return self._postings.get(word, ())

    def concepts_with_word(self, word: str) -> frozenset[str]:
        """Ids of concepts having ``word`` in at least one form."""
        return frozenset(cid for cid, _ in self.forms_with_word(word))


def load_lexicon(path: str | Path) -> Lexicon:
    """Load a tab-separated lexicon file.

    Each record line is ``concept_id<TAB>source<TAB>lexical form``, and
    only a line feed (U+000A) ends a line; lines starting with ``#`` and
    blank lines are skipped.  Repeated concept_id lines accumulate lexical
    forms; the same id under two different sources is rejected.  The
    lexicon fingerprint is the SHA-256 of the file bytes.
    """
    path = Path(path)
    raw = path.read_bytes()
    try:
        content = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not valid UTF-8: {exc}") from exc
    sources: dict[str, str] = {}
    forms: dict[str, dict[str, tuple[str, ...]]] = {}
    for lineno, line in enumerate(content.split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise ValueError(
                f"{path}: line {lineno}: expected 3 tab-separated fields, "
                f"got {len(fields)}"
            )
        concept_id, source, form = (f.strip() for f in fields)
        if not concept_id or not source or not form:
            raise ValueError(f"{path}: line {lineno}: empty field")
        words = tuple(normalize(form))
        if not words:
            raise ValueError(f"{path}: line {lineno}: form {form!r} has no words")
        if concept_id in sources and sources[concept_id] != source:
            raise ValueError(
                f"{path}: line {lineno}: concept {concept_id} already declared "
                f"with source {sources[concept_id]!r}, got {source!r}"
            )
        sources[concept_id] = source
        forms.setdefault(concept_id, {})[form] = words
    if not forms:
        raise ValueError(f"{path}: empty lexicon")
    concepts = [
        Concept(cid, frozenset(forms[cid]), sources[cid], forms[cid])
        for cid in sorted(forms)
    ]
    return Lexicon(concepts, fingerprint=hashlib.sha256(raw).hexdigest())
