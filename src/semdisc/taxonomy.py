"""Category taxonomy and task-to-category matching.

A taxonomy is a flat list of category names, one per line read by
:func:`semdisc.lexicon.read_rows`, so no name starts with ``#``.
Matching scores the full task text against each category name with the
ISub metric, keeps categories at or above a minimum score, and returns
the best ones first, each a :class:`CategoryMatch` (a ``NamedTuple``).
Two rules spare the full ISub, and the result equals scoring every
name (:mod:`semdisc.strsim`):

- A name that differs from the text and shares no 3-character substring
  with it scores exactly 0: no common block is long enough to remove, so
  no junction can form a longer one.  An empty normalized text shares
  none, so every name takes this rule.  Counting shared 3-character
  substrings would not be a valid bound, since a block can span a
  junction left by a removal (``test_matched_block_can_span_a_junction``
  in ``tests/test_strsim.py``).
- Any other name whose score cannot reach the minimum, even if every
  character it shares with the text were matched, is dropped.  At a zero
  floor this drops nothing.
"""
from __future__ import annotations

from pathlib import Path
from typing import Iterable, NamedTuple

from .lexicon import Frozen, check_cell, check_str, check_text, loader, read_rows
from .strsim import (
    _isub_normalized,
    _isub_upper_bound,
    blocks,
    char_occurrences,
    clamp_cscore,
    normalize_string,
)

DEFAULT_MIN_CSCORE = 0.4
DEFAULT_TOP_K_CATEGORIES = 3


class CategoryTaxonomy(Frozen):
    """Immutable set of category names, unique after normalization, each
    text printing as one table cell (:func:`semdisc.lexicon.check_cell`)
    and starting with neither ``#`` (a comment) nor U+FEFF (a byte order
    mark), which :func:`load_taxonomy` would skip or drop.  :attr:`names`
    holds the display names in sorted order and is the ``_args()`` of this
    :class:`~semdisc.lexicon.Frozen` value.  The normalized keys, their
    characters (:func:`semdisc.strsim.char_occurrences`) and their
    3-character substrings (:func:`semdisc.strsim.blocks`), in the same
    order, are derived from the names once and are not part of the value."""

    __slots__ = ("names", "_keys", "_chars", "_blocks")

    def __init__(self, names: Iterable[str]) -> None:
        display: dict[str, str] = {}
        for name in names:
            try:
                check_text(name, "name")
                check_cell(name, "name")
                mark = {"#": "'#'", "\ufeff": "U+FEFF"}.get(name.strip()[:1])
                if mark:
                    raise ValueError(f"field 'name' must not start with {mark}")
            except ValueError as exc:
                raise ValueError(f"category {name!r}: {exc}") from None
            key = normalize_string(name)
            if not key:
                raise ValueError(f"category {name!r} has no words")
            if key in display and display[key] != name.strip():
                raise ValueError(f"duplicate category after normalization: {name!r}")
            display.setdefault(key, name.strip())
        if not display:
            raise ValueError("empty taxonomy")
        # Normalized keys are kept in names order, so queries need not redo them.
        sorted_names, keys = zip(*sorted((n, k) for k, n in display.items()))
        object.__setattr__(self, "names", sorted_names)
        object.__setattr__(self, "_keys", keys)
        object.__setattr__(self, "_chars", tuple(map(char_occurrences, keys)))
        object.__setattr__(self, "_blocks", tuple(map(blocks, keys)))

    def _args(self) -> tuple:
        return (self.names,)

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: object) -> bool:
        # A value that is not a str names no category.
        return isinstance(name, str) and normalize_string(name) in self._keys


@loader
def load_taxonomy(path: Path) -> CategoryTaxonomy:
    """Load one category name per record line."""
    return CategoryTaxonomy(read_rows(path, str.strip))


class CategoryMatch(NamedTuple):
    """One matched category; c_score is the clamped ISub similarity."""

    category: str
    c_score: float

    @property
    def normalized(self) -> str:
        return normalize_string(self.category)


def check_top_k(top_k: int) -> None:
    """ValueError unless ``top_k`` is an ``int`` (not a bool) >= 1."""
    if type(top_k) is not int or top_k < 1:
        raise ValueError(f"top_k {top_k!r} is not an integer >= 1")


def match_categories(
    task_text: str,
    taxonomy: CategoryTaxonomy,
    *,
    min_cscore: float = DEFAULT_MIN_CSCORE,
    top_k: int = DEFAULT_TOP_K_CATEGORIES,
) -> list[CategoryMatch]:
    """Best-matching categories for a task, highest score first.

    Scores below ``min_cscore`` (an int or float in [0, 1]) are dropped; at
    most ``top_k`` (:func:`check_top_k`) are returned.  Ties break on name.
    Task text that is not a ``str`` raises ValueError.
    """
    if type(min_cscore) not in (int, float) or not 0.0 <= min_cscore <= 1.0:
        raise ValueError(f"min_cscore {min_cscore!r} outside [0, 1]")
    check_top_k(top_k)
    check_str(task_text, "task_text")
    text = normalize_string(task_text)
    chars = char_occurrences(text)
    text_blocks = blocks(text)
    matches = []
    for name, key, key_chars, key_blocks in zip(
        taxonomy.names, taxonomy._keys, taxonomy._chars, taxonomy._blocks
    ):
        # An unequal key sharing no 3-character block scores at most -0.6.
        # An empty text shares none, so the bound, which divides by the
        # text's length, never sees one.  A key whose upper bound is below
        # the floor cannot reach it.
        if key != text and text_blocks.isdisjoint(key_blocks):
            c_score = 0.0
        elif clamp_cscore(_isub_upper_bound(text, key, chars, key_chars)) < min_cscore:
            continue
        else:
            c_score = clamp_cscore(_isub_normalized(text, key))
        if c_score >= min_cscore:
            matches.append(CategoryMatch(name, c_score))
    matches.sort(key=lambda m: (-m.c_score, m.category))
    return matches[:top_k]
