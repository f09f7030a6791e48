"""Concept lexicon and information-content scoring.

A lexicon maps concept identifiers to their lexical forms and carries a
word-probability model estimated from those forms.  The information content
(idf) of a word collection is the sum of -log P(w) over its words, so rare
words weigh more than common ones.  A :class:`Lexicon` estimates the
probabilities itself, with Laplace add-one smoothing over the corpus of
its lexical forms; words never seen in any form fall back to a shared
floor probability.  Every probability is below 1, so every form carries
information.

:class:`Concept` is a checked tuple type (:class:`Checked`) admitting
exactly what a lexicon line can hold.  :func:`load_lexicon` and
``Lexicon(concepts)`` build the model and its fingerprint with one
routine from ``(concept_id, form, words)`` rows and an id -> source
table, so both give the same lexicon for the same concepts.

A :class:`Lexicon` is a :class:`Frozen` value, equal to a lexicon of the
same concepts, and safe to share across threads: the only tables filled
later (word information, form entries, prefix entries per threshold and
concepts by id) are memos of values that do not depend on which thread
computes them.  :func:`check_threshold` owns the rule for a threshold.

:func:`read_rows`, :func:`check_text`, :func:`check_texts`,
:func:`check_cell` and :func:`has_line_break` own the package's
text-input rules, and :func:`duplicates` its rule for repeated names.
:func:`loader` owns the loaders' error rule: a ValueError starts with
the file's path, then ``line N:`` (from :func:`read_rows`) when one line
is at fault.

:func:`gc_paused` pauses cyclic GC while a loader or CLI command builds
its object graph.
"""
from __future__ import annotations

import contextlib
import gc
import hashlib
import math
import re
from collections import Counter
from functools import wraps
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import Callable, Collection, Iterable, Iterator, KeysView, NamedTuple, TypeVar

_WORD = re.compile(r"[^\W_]+")
# Indexed by ASCII code: a letter or digit in lowercase, else a space.
_ASCII_WORDS = "".join(c.lower() if c.isalnum() else " " for c in map(chr, range(128)))
T = TypeVar("T")
_Row = tuple[str, str, tuple[str, ...]]  # (concept_id, form, words)


def read_rows(path: Path, row: Callable[[str], T], *, comments: bool = True) -> list[T]:
    """``row(line)`` for each non-blank line of file ``path``, UTF-8 (else
    ValueError) where a leading byte order mark is skipped and only a line
    feed ends a line; lines starting with ``#`` are skipped too unless
    ``comments`` is false.  A ValueError from ``row`` gains the prefix
    ``line N: ``."""
    try:
        content = path.read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ValueError(f"not valid UTF-8: {exc}") from exc
    rows = []
    for lineno, line in enumerate(content.split("\n"), start=1):
        stripped = line.strip()
        if stripped and not (comments and stripped[0] == "#"):
            try:
                rows.append(row(line))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
    return rows


@contextlib.contextmanager
def gc_paused() -> Iterator[None]:
    """Cyclic GC disabled for the ``with`` block or decorated call, then
    enabled again, also on an exception; nothing at all if it was already
    disabled, so nested uses leave the caller's state alone.

    Loaders build large trees of tuples, frozensets and dicts without
    reference cycles, so no collection during the build can free any of
    them, and each one would walk them all.  Caveat: GC state is global to
    the process, so a thread that calls ``gc.disable()`` while a load is
    running has GC enabled again when that load ends.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def loader(load: Callable[[Path], T]) -> Callable[[str | Path], T]:
    """The file loader ``load`` taking its path as a string too, run with
    cyclic GC paused (:func:`gc_paused`); a ValueError it raises gains the
    prefix ``"{path}: "``.  ``__wrapped__`` is ``load``."""

    @wraps(load)
    def load_path(path: str | Path) -> T:
        path = Path(path)
        try:
            with gc_paused():
                return load(path)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc

    return load_path


def has_line_break(text: str) -> bool:
    """Whether ``text`` holds a line boundary by ``str.splitlines``."""
    return text.splitlines() not in ([], [text])


def check_cell(text: str, field: str) -> None:
    """ValueError naming ``field`` unless ``text`` prints as one cell of one
    tab-separated row: no tab and no line break by ``str.splitlines``."""
    # A tab and every line break are unprintable, so most text skips the scan.
    if not text.isprintable() and ("\t" in text or has_line_break(text)):
        raise ValueError(f"field {field!r} must be one line without a tab")


def check_str(value: object, name: str) -> None:
    """ValueError naming ``name`` unless ``value`` is a ``str``."""
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a str, not {type(value).__name__}")


def check_threshold(threshold: float) -> None:
    """ValueError unless ``threshold`` is an ``int`` or ``float`` (not a
    bool) in [-1, 1]."""
    if type(threshold) not in (int, float) or not -1.0 <= threshold <= 1.0:
        raise ValueError(f"threshold {threshold!r} outside [-1, 1]")


def check_text(value: object, field: str) -> None:
    """ValueError naming ``field`` unless ``value`` is a string that UTF-8
    can encode (JSON escapes can spell lone surrogates, which it cannot)."""
    if not isinstance(value, str):
        raise ValueError(f"field {field!r} must be a string")
    try:
        value.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ValueError(f"field {field!r} cannot be encoded as UTF-8: {exc.reason}") from None


def check_texts(values: object, field: str) -> None:
    """ValueError naming ``field`` unless ``values`` is a tuple of such strings."""
    if not isinstance(values, tuple):
        raise ValueError(f"field {field!r} must be a tuple of strings")
    # A plain loop: a generator here costs ServiceRecord 2-3x its time.
    for value in values:
        if not isinstance(value, str):
            raise ValueError(f"field {field!r} must be a tuple of strings")
        try:
            value.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ValueError(f"field {field!r} cannot be encoded as UTF-8: {exc.reason}") from None


class Checked:
    """Base of the checked tuple types: ``typing.NamedTuple`` subclasses
    whose ``__new__`` checks the fields, so construction, copies, unpickling
    and (through this ``_make``) ``_replace`` all run the checks.  Like any
    tuple, a value compares equal to a plain tuple of its fields."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable: Iterable) -> tuple:
        return cls(*iterable)


class Frozen:
    """Base of the immutable types that are not tuples, whose subclasses
    declare ``__slots__`` (no instance has a ``__dict__``): a value refuses
    assignment, is unhashable, equals a value of its type with equal
    ``_args()`` (the arguments its constructor takes) and is copied and
    unpickled through that constructor, so its checks run again."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._args() == other._args()

    __hash__ = None  # type: ignore[assignment]

    def __reduce__(self) -> tuple:
        return type(self), self._args()


def duplicates(values: Iterable[str]) -> list[str]:
    """Each value occurring more than once, in order of first occurrence."""
    return [value for value, n in Counter(values).items() if n > 1]


def _check_field(text: object, field: str) -> None:
    """ValueError naming ``field`` unless ``text`` can be a stripped lexicon field."""
    check_text(text, field)
    if not text or text.strip() != text:
        raise ValueError(f"field {field!r} must be non-empty without surrounding whitespace")
    check_cell(text, field)


def _check_id(concept_id: str) -> None:
    """ValueError unless ``concept_id`` is such a field without a ``,`` (it joins
    ids in one cell), starting with neither ``#`` (a comment) nor U+FEFF (a BOM)."""
    _check_field(concept_id, "id")
    if "," in concept_id:
        raise ValueError("field 'id' must not contain ','")
    if concept_id[0] in "#\ufeff":
        raise ValueError("field 'id' must not start with '#' or U+FEFF")


def normalize(text: str) -> list[str]:
    """Lowercase and split into words: the maximal runs of letters and
    digits (word characters other than ``_``), so punctuation, ``_`` and
    whitespace all separate words.

    Word order and multiplicity are preserved; no stopword removal and no
    stemming.  The function is idempotent on its own space-joined output.

    ASCII text takes one ``str.translate`` through a 128-entry table that
    lowercases ``A-Z``, keeps ``a-z`` and ``0-9`` and turns every other
    code into a space, then a whitespace split: on ASCII those are exactly
    the runs the regular expression finds, at a fraction of its cost.
    Other text is lowercased and searched with the regular expression: a
    translate table over every code point (a dict filled on first sight)
    measured 1.2-2x slower than it on non-ASCII text.
    """
    if text.isascii():
        return text.translate(_ASCII_WORDS).split()
    return _WORD.findall(text.lower())


class _ConceptRow(NamedTuple):
    id: str
    lexical_forms: frozenset[str]
    source: str


class Concept(Checked, _ConceptRow):
    """One ontology concept, a checked tuple: an identifier, a non-empty
    frozenset of lexical forms and a source, all strings UTF-8 can encode.
    Each is non-empty without surrounding whitespace and prints as one
    table cell (:func:`check_cell`); the id holds no ``,`` and starts with
    neither ``#`` nor U+FEFF; each form has a :func:`normalize` word.
    ValueError names the field otherwise."""

    __slots__ = ()

    def __new__(
        cls, id: str, lexical_forms: frozenset[str], source: str = "umls"
    ) -> Concept:
        _check_id(id)
        _check_field(source, "source")
        if not isinstance(lexical_forms, frozenset):
            raise ValueError("field 'lexical_forms' must be a frozenset of strings")
        if not lexical_forms:
            raise ValueError(f"concept {id}: at least one lexical form required")
        for form in lexical_forms:
            _check_field(form, "lexical_forms")
            if not normalize(form):
                raise ValueError(f"concept {id}: form {form!r} has no words")
        return tuple.__new__(cls, (id, lexical_forms, source))


class FormEntry(NamedTuple):
    """What annotation scores one lexical form by: its concept id, the
    form, its distinct :func:`normalize` words and their idf."""

    concept_id: str
    form: str
    words: frozenset[str]
    idf: float


class Lexicon(Frozen):
    """Immutable collection of :class:`Concept` values (else ValueError)
    with the word-probability model their forms estimate; ``fingerprint``
    is the SHA-256 of the sorted ``id<TAB>source<TAB>form<LF>`` lines.
    A :class:`Frozen` value whose ``_args()`` are its :attr:`concepts`.

    Laplace add-one smoothing: P(w) = (count(w) + 1) / (total + vocab + 1),
    where counts run over every lexical form of every concept, repeated
    words counting once per occurrence; ``unseen_prob``, 1 / (total +
    vocab + 1), is the floor for words outside the model.  The denominator
    exceeds every numerator, so every probability is below 1 (as floats,
    while total < 2**52) and every form carries information: idf > 0.

    Four tables are filled on first use, not at load time, so loading
    pays nothing for what no text ever touches: each vocabulary word's
    information, -log P(w) (:meth:`information`, :attr:`entry_information`);
    each form's :class:`FormEntry`, holding its distinct words and idf;
    per threshold above -1, each vocabulary word's prefix entries, the
    entries of the forms having the word in their prefix (annotation reads
    both through :meth:`prefix_entries`, which at -1 gives every form's
    entry); and the concepts by id (:meth:`concept`).  A word outside the
    vocabulary enters none of them.  :attr:`concepts` is built on each
    call, since annotation reads only the tables.  A memoised value is a
    pure function of the lexicon's rows (and the threshold), so two
    threads filling the same entry store equal values and sharing an
    instance across threads stays safe.  No memo is part of the value:
    equality, copies and pickles see only the concepts.
    """

    __slots__ = (
        "_sources", "_form_words", "_information", "_entries", "_prefix", "_by_id",
        "_postings", "_word_prob", "unseen_prob", "fingerprint",
    )

    #: Splits forms and texts into words: always :func:`normalize`.
    tokenizer = staticmethod(normalize)

    def __new__(cls, concepts: Iterable[Concept]) -> Lexicon:
        by_id: dict[str, Concept] = {}
        for concept in concepts:
            if not isinstance(concept, Concept):
                raise ValueError(f"a lexicon holds Concept values, not {type(concept).__name__}")
            if concept.id in by_id:
                raise ValueError(f"duplicate concept id {concept.id!r}")
            by_id[concept.id] = concept
        return cls._from_rows(
            ((concept.id, form, tuple(normalize(form)))
             for concept in by_id.values() for form in concept.lexical_forms),
            {cid: concept.source for cid, concept in by_id.items()},
        )

    def _args(self) -> tuple:
        return (self.concepts,)

    @classmethod
    def _from_rows(cls, rows: Iterable[_Row], sources: dict[str, str]) -> Lexicon:
        """The lexicon of ``(concept_id, form, words)`` rows, ``words`` being
        the form's :func:`normalize` words, and ``sources`` mapping each row's
        concept id, and no other, to its source.  Repeated rows count once."""
        form_words: dict[tuple[str, str], tuple[str, ...]] = {}
        postings: dict[str, list[tuple[str, str]]] = {}
        tokens: list[str] = []
        for concept_id, form, words in rows:
            key = (concept_id, form)
            if key in form_words:
                continue
            form_words[key] = words
            tokens += words
            for word in words:
                keys = postings.get(word)
                if keys is None:
                    postings[word] = [key]
                # A word repeated in this form was just posted under key.
                elif keys[-1] is not key:
                    keys.append(key)
        if not tokens:
            raise ValueError("empty lexicon: no lexical forms to estimate from")
        counts = Counter(tokens)
        denom = len(tokens) + len(counts) + 1
        # The model follows from these lines; no field holds a tab or line break.
        lines = sorted([f"{cid}\t{sources[cid]}\t{form}\n" for cid, form in form_words])
        self = object.__new__(cls)
        for name, value in {
            "_sources": sources, "_form_words": form_words,
            "_information": {}, "_entries": {}, "_prefix": {}, "_by_id": {},
            "_postings": {word: tuple(keys) for word, keys in postings.items()},
            "_word_prob": {w: (c + 1) / denom for w, c in counts.items()},
            "unseen_prob": 1.0 / denom,
            "fingerprint": hashlib.sha256("".join(lines).encode()).hexdigest(),
        }.items():
            object.__setattr__(self, name, value)
        return self

    @property
    def concepts(self) -> tuple[Concept, ...]:
        """All concepts in ascending id order, built on each call."""
        # Every row passed the Concept checks.
        return tuple(
            tuple.__new__(Concept, (cid, frozenset(f for _, f in keys), self._sources[cid]))
            for cid, keys in groupby(sorted(self._form_words), key=itemgetter(0))
        )

    def concept(self, concept_id: str) -> Concept:
        if not self._by_id:  # One update fills it whole: no thread sees it half full.
            self._by_id.update({concept.id: concept for concept in self.concepts})
        return self._by_id[concept_id]

    def __len__(self) -> int:
        return len(self._sources)

    def __contains__(self, concept_id: str) -> bool:
        return concept_id in self._sources

    @property
    def vocabulary(self) -> KeysView[str]:
        return self._word_prob.keys()

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
        """Distinct normalized words of one lexical form."""
        return frozenset(self._form_words[concept_id, form])

    def information(self, word: str) -> float:
        """-log P(w), memoised for vocabulary words only, so words outside
        the model never grow the memo; always > 0."""
        value = self._information.get(word)
        if value is None:
            value = -math.log(self.probability(word))
            if word in self._word_prob:
                self._information[word] = value
        return value

    def _entry(self, key: tuple[str, str]) -> FormEntry:
        entry = self._entries.get(key)
        if entry is None:
            words = frozenset(self._form_words[key])
            entry = FormEntry(*key, words, math.fsum(map(self.information, words)))
            # Every thread then shares the first entry stored.
            entry = self._entries.setdefault(key, entry)
        return entry

    def forms(self) -> KeysView[tuple[str, str]]:
        """``(concept_id, form)`` of every lexical form."""
        return self._form_words.keys()

    @property
    def entry_information(self) -> Callable[[str], float]:
        """The information memo's bound ``__getitem__`` (one C-level call
        per word): -log P(w) of any word of a :class:`FormEntry` the
        lexicon has returned; another word may raise KeyError."""
        return self._information.__getitem__

    def prefix_entries(self, words: Iterable[str], threshold: float) -> Collection[FormEntry]:
        """The :class:`FormEntry` of every form that a text of distinct
        words ``words`` can reach ``threshold`` against.  At -1 every form
        can: this is the entries memo's value view, filled whole on the
        first such call, with no prefix table or sum.  Once full the memo
        gains no key, so threads can share the view.  Above -1, the set of
        the entries of the forms having one of ``words`` in their prefix
        at ``threshold``, each vocabulary word's entries memoised in the
        threshold's table.  A form's prefix is its distinct words by
        -log P(w), largest first (ties by word), taken until their sum
        exceeds ``(1 - threshold) / 2 * form_idf * (1 + 1e-9)``, or all of
        them; a text sharing no prefix word with a form has ratio below
        ``threshold`` against it (see :mod:`semdisc.annotator`).
        ValueError unless :func:`check_threshold` admits ``threshold``."""
        check_threshold(threshold)
        if threshold == -1:
            if len(self._entries) < len(self._form_words):
                for key in self._form_words:
                    self._entry(key)
            return self._entries.values()
        table = self._prefix.get(threshold)
        if table is None:
            table = self._prefix.setdefault(threshold, {})
        entries: set[FormEntry] = set()
        # A word outside the vocabulary is in no form and enters no table.
        for word in self._postings.keys() & words:
            found = table.get(word)
            if found is None:
                found = table[word] = self._prefix_of(word, threshold)
            entries.update(found)
        return entries

    def _prefix_of(self, word: str, threshold: float) -> tuple[FormEntry, ...]:
        """The entries of the forms having vocabulary word ``word`` in
        their prefix at ``threshold``: those whose words ranked before
        ``word`` hold at most the budget."""
        share = (1.0 - threshold) / 2.0 * (1.0 + 1e-9)
        information = self.information
        mine = information(word)
        found = []
        for key in self._postings[word]:
            entry = self._entry(key)
            before = math.fsum(
                v for w in entry.words if (v := information(w)) > mine or (v == mine and w < word)
            )
            if before <= share * entry.idf:
                found.append(entry)
        return tuple(found)

    def concepts_with_word(self, word: str) -> frozenset[str]:
        """Ids of concepts having ``word`` in at least one form."""
        return frozenset(cid for cid, _ in self._postings.get(word, ()))


@loader
def load_lexicon(path: Path) -> Lexicon:
    """Load a tab-separated lexicon file.

    Each record line (see :func:`read_rows`) is
    ``concept_id<TAB>source<TAB>lexical form``, fields stripped.  Repeated
    concept_id lines accumulate lexical forms; the same id under two
    different sources is rejected.  The fingerprint is that of
    ``Lexicon(concepts)``, so line order, repeats and comments leave it be.
    """
    sources: dict[str, str] = {}

    def row(line: str) -> _Row:
        fields = line.split("\t")
        if len(fields) != 3:
            raise ValueError(f"expected 3 tab-separated fields, got {len(fields)}")
        concept_id, source, form = fields
        concept_id, source, form = concept_id.strip(), source.strip(), form.strip()
        if not concept_id or not source or not form:
            raise ValueError("empty field")
        # On stripped fields the checks fail only on unprintable text or a ','.
        if "," in concept_id or not (
            concept_id.isprintable() and source.isprintable() and form.isprintable()
        ):
            _check_id(concept_id)
            check_cell(source, "source")
            check_cell(form, "lexical_forms")
        words = tuple(normalize(form))
        if not words:
            raise ValueError(f"form {form!r} has no words")
        known = sources.setdefault(concept_id, source)
        if known != source:
            raise ValueError(
                f"concept {concept_id} already declared with source {known!r}, got {source!r}"
            )
        return concept_id, form, words

    rows = read_rows(path, row)
    if not rows:
        raise ValueError("empty lexicon")
    return Lexicon._from_rows(rows, sources)
