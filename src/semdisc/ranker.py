"""Service ranking: two independent searches and a weighted combination.

A task reaches services along two routes.  The category route carries
the string-match score of each matched category onto every service
holding it; the concept route scores the cosine between the task's
semantic vector and each service vector sharing at least one concept.
The final score is the convex combination c_score * w1 + s_score * w2;
a service missed by one route contributes 0 on that side.

The concept route is one accumulator pass over the concept postings
(term-at-a-time; ScanCount in Li, Lu & Lu, ICDE 2008).  Each posting of
each task concept gives the product ``task_weight * service_weight``,
the service weight read from the index's per-concept weight mappings.
The first non-empty posting list seeds the accumulator with its
products.  After that a service's first product is kept as one float;
only a service reached again gets a list, which starts with that float
and takes each later product.  After the pass each such list is
replaced by its ``math.fsum``, and a service's score is its sum over the
task norm (computed once per query) times the service norm the index
keeps.  A sum of one term is that term, and ``fsum`` of two or more is
correctly rounded whatever their order, so every score equals
``cosine(task_vector, service.vector)`` bit for bit.

:func:`rank` selects on bare floats before it touches anything else (as
accumulator-based top-k retrieval does; Turtle & Flood, IPM 1995): it
needs only a cut no higher than the ``top_k``-th largest score, and builds
sort keys, names and results only for the services scoring at or above
it.  Every one tied at the cut is kept, so the tie rules order them
exactly as sorting every reached service would.  The cut is ``w2`` times
the ``top_k``-th largest cosine, found by :func:`heapq.nlargest` on the
cosines of every service the concept route reached (no cut when fewer
than ``top_k`` were).  Every reached service scores at least
``s_score * w2``: ``c_score * w1 >= 0``, and rounding ``a + b`` with
``a >= 0`` never gives less than ``b``.  Rounding ``x * w2`` never
decreases as ``x`` grows (``w2 >= 0``), so the services of the ``top_k``
largest cosines all score at or above the cut.  A service only the
concept route reached scores exactly ``s_score * w2``, :func:`combine`'s
score bit for bit (``0.0 * w1 + x`` is ``x``).

:class:`Weights` is a checked tuple type
(:class:`semdisc.lexicon.Checked`) and :class:`RankedResult` a plain
``typing.NamedTuple``, so each compares equal to a tuple of its fields.
"""
from __future__ import annotations

import heapq
import math
from typing import NamedTuple, Sequence

from .annotator import SemanticVector, annotate
from .lexicon import Checked, Lexicon
from .registry import ServiceIndex
from .taxonomy import (
    DEFAULT_MIN_CSCORE,
    DEFAULT_TOP_K_CATEGORIES,
    CategoryMatch,
    CategoryTaxonomy,
    check_top_k,
    match_categories,
)

DEFAULT_W1 = 0.2
DEFAULT_W2 = 0.8
DEFAULT_TOP_K = 10


class _WeightsRow(NamedTuple):
    w1: float
    w2: float


class Weights(Checked, _WeightsRow):
    """Combination weights, a checked tuple: each exactly an int or float
    (so not a bool), finite and non-negative, the two summing to 1."""

    __slots__ = ()

    def __new__(cls, w1: float = DEFAULT_W1, w2: float = DEFAULT_W2) -> Weights:
        for field, value in (("w1", w1), ("w2", w2)):
            if type(value) is not float and type(value) is not int:
                raise ValueError(f"field {field!r} has type {type(value).__name__}")
            try:
                float(value)
            except OverflowError as exc:
                raise ValueError(f"field {field!r}: {exc}") from None
        if not (math.isfinite(w1) and math.isfinite(w2)):
            raise ValueError(f"weights must be finite, got {w1}, {w2}")
        if w1 < 0.0 or w2 < 0.0:
            raise ValueError(f"weights must be non-negative, got {w1}, {w2}")
        if abs(w1 + w2 - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {w1} + {w2}")
        return tuple.__new__(cls, (w1, w2))


def cosine(a: SemanticVector, b: SemanticVector) -> float:
    """Cosine similarity of two sparse vectors; 0 when they share no
    concept.  Sharing one, both norms are positive (see
    :func:`search_by_concepts`)."""
    shared = a.support() & b.support()
    if not shared:
        return 0.0
    return math.fsum(a.weights[c] * b.weights[c] for c in shared) / (a.norm() * b.norm())


def search_by_category(
    matches: Sequence[CategoryMatch],
    index: ServiceIndex,
) -> dict[int, float]:
    """Category-route scores: service position -> best matched c_score.

    ``matches`` must be a list or tuple of
    :class:`~semdisc.taxonomy.CategoryMatch` values and ``index`` a
    :class:`ServiceIndex` (else ValueError).
    """
    if not isinstance(matches, (list, tuple)) or not all(
        isinstance(match, CategoryMatch) for match in matches
    ):
        raise ValueError(f"category_matches {matches!r} is not a list or tuple of CategoryMatch")
    check_index(index)
    scores: dict[int, float] = {}
    for match in matches:
        for pos in index.category_postings.get(match.normalized, ()):
            current = scores.get(pos)
            if current is None or match.c_score > current:
                scores[pos] = match.c_score
    return scores


def _dot_products(task_vector: SemanticVector, index: ServiceIndex) -> dict[int, float]:
    """The accumulator: service position -> the numerator of
    ``cosine(task_vector, index.services[pos].vector)``, for every service
    sharing at least one concept with the task vector."""
    concept_weights = index.concept_weights
    # Per reached service, task_weight * service_weight of each shared
    # concept, the terms cosine() sums: the one product of a service
    # reached once, and the list of them for a service reached again.
    sums: dict[int, float] = {}
    terms: dict[int, list[float]] = {}
    for concept, task_weight in task_vector.weights.items():
        weights = concept_weights.get(concept)
        if not weights:
            continue
        if not sums:
            sums = {pos: task_weight * weight for pos, weight in weights.items()}
            continue
        for pos, weight in weights.items():
            product = task_weight * weight
            if pos not in sums:
                sums[pos] = product
            elif pos in terms:
                terms[pos].append(product)
            else:
                terms[pos] = [sums[pos], product]
    for pos, products in terms.items():
        sums[pos] = math.fsum(products)
    return sums


def search_by_concepts(
    task_vector: SemanticVector,
    index: ServiceIndex,
) -> dict[int, float]:
    """Concept-route scores: service position -> cosine similarity.

    Only services sharing at least one concept with the task vector are
    scored; every returned score is > 0 and equals
    ``cosine(task_vector, index.services[pos].vector)``.  ``task_vector``
    must be a :class:`SemanticVector` and ``index`` a :class:`ServiceIndex`
    (else ValueError).  Every weight lies
    in [2**-255, 2**255] (:class:`~semdisc.annotator.Annotation`), so every
    norm, and the product of two, is positive and finite: no denominator
    is zero.  :func:`rank` divides the same sums (:func:`_dot_products`)
    by the same norms.
    """
    check_task_vector(task_vector)
    check_index(index)
    sums = _dot_products(task_vector, index)
    task_norm = task_vector.norm()
    norms = index.norms
    return {pos: total / (task_norm * norms[pos]) for pos, total in sums.items()}


def combine(c_score: float, s_score: float, weights: Weights) -> float:
    """Weighted combination of the two route scores."""
    return c_score * weights.w1 + s_score * weights.w2


def check_weights(weights: Weights) -> None:
    """ValueError unless ``weights`` is a :class:`Weights`, whose constructor
    checks them; a plain tuple could hold weights that do not sum to 1."""
    if not isinstance(weights, Weights):
        raise ValueError(f"weights {weights!r} is not a Weights")


def check_index(index: ServiceIndex) -> None:
    """ValueError unless ``index`` is a :class:`ServiceIndex`."""
    if not isinstance(index, ServiceIndex):
        raise ValueError(f"index {index!r} is not a ServiceIndex")


def check_task_vector(task_vector: SemanticVector) -> None:
    """ValueError unless ``task_vector`` is a :class:`SemanticVector`."""
    if not isinstance(task_vector, SemanticVector):
        raise ValueError(f"task_vector {task_vector!r} is not a SemanticVector")


class RankedResult(NamedTuple):
    """One discovered service with both route scores."""

    service: str
    shared_annotations: frozenset[str]
    c_score: float
    s_score: float
    score: float


def rank(
    task_vector: SemanticVector,
    category_matches: Sequence[CategoryMatch],
    index: ServiceIndex,
    weights: Weights = Weights(),
    *,
    top_k: int = DEFAULT_TOP_K,
) -> list[RankedResult]:
    """Rank every service reached by either route, best first.

    Ties break on s_score (descending), then service name.  At most
    ``top_k``, an int >= 1 (else ValueError), results are returned.
    ``weights`` must be a :class:`Weights`, ``task_vector`` a
    :class:`SemanticVector`, ``category_matches`` a list or tuple of
    :class:`~semdisc.taxonomy.CategoryMatch` values and ``index`` a
    :class:`ServiceIndex` (else ValueError).  Scores are
    :func:`combine`'s.  Every reached service scores at least
    ``s_score * w2``, so ``w2`` times the ``top_k``-th largest cosine is a
    cut no higher than the ``top_k``-th largest score (see the module
    docstring); only services at or above it are ordered by the full tie
    rules.
    """
    check_top_k(top_k)
    check_weights(weights)
    check_task_vector(task_vector)
    # Checks category_matches and index.
    c_scores = search_by_category(category_matches, index)
    sums = _dot_products(task_vector, index)
    task_norm = task_vector.norm()
    norms = index.norms
    w1, w2 = weights
    # Cosines of every service the concept route reached, aligned with sums.
    cosines = [total / (task_norm * norms[pos]) for pos, total in sums.items()]
    top = heapq.nlargest(top_k, cosines)
    # At least top_k services score at or above the cut, so every service
    # ranking among the top_k does; keeping every one tied at it keeps the
    # tie rules exact.
    cut = top[-1] * w2 if len(top) == top_k else -math.inf
    services = index.services
    # Names are unique, so the key is a total order and pos never compares.
    keys = [
        (-(s_score * w2), -s_score, services[pos].name, pos)
        for pos, s_score in zip(sums, cosines)
        if s_score * w2 >= cut and pos not in c_scores
    ]
    for pos, c_score in c_scores.items():
        s_score = sums[pos] / (task_norm * norms[pos]) if pos in sums else 0.0
        score = c_score * w1 + s_score * w2
        if score >= cut:
            keys.append((-score, -s_score, services[pos].name, pos))
    task_support = task_vector.support()
    return [
        RankedResult(
            service=name,
            shared_annotations=task_support.intersection(services[pos].vector.weights),
            c_score=c_scores.get(pos, 0.0),
            s_score=-neg_s_score,
            score=-neg_score,
        )
        for neg_score, neg_s_score, name, pos in heapq.nsmallest(top_k, keys)
    ]


def discover(
    task_text: str,
    lexicon: Lexicon,
    taxonomy: CategoryTaxonomy,
    index: ServiceIndex,
    weights: Weights = Weights(),
    *,
    min_cscore: float = DEFAULT_MIN_CSCORE,
    top_k: int = DEFAULT_TOP_K,
    top_k_categories: int = DEFAULT_TOP_K_CATEGORIES,
) -> list[RankedResult]:
    """Full pipeline for one task: check options, match categories, annotate, rank.

    The task is annotated at ``index.threshold``, the threshold its
    services were annotated with, so both sides of the cosine admit
    concepts alike.
    """
    check_top_k(top_k)
    check_weights(weights)
    check_index(index)
    matches = match_categories(
        task_text, taxonomy, min_cscore=min_cscore, top_k=top_k_categories
    )
    task_vector = annotate(task_text, lexicon, threshold=index.threshold)
    return rank(task_vector, matches, index, weights, top_k=top_k)
