"""Two-route search, score combination, and ranking."""
from __future__ import annotations

import math
import pickle
import re
from collections.abc import KeysView

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from semdisc.annotator import annotate
from semdisc.lexicon import Concept, Lexicon
from semdisc.ranker import (
    RankedResult,
    Weights,
    combine,
    cosine,
    discover,
    rank,
    search_by_category,
    search_by_concepts,
)
from semdisc.registry import (
    AnnotatedService,
    ServiceIndex,
    ServiceRecord,
    build_index,
    load_index,
    save_index,
)
from semdisc.requirements import parse_requirements, tasks
from semdisc.taxonomy import CategoryMatch, CategoryTaxonomy

from conftest import DATA, vector_of


@pytest.fixture()
def route_lexicon():
    return Lexicon(
        [
            Concept("C1", frozenset({"alignment"})),
            Concept("C2", frozenset({"tree"})),
        ]
    )


@pytest.fixture()
def route_index(route_lexicon):
    records = [
        # Concept route only: mentions a lexicon word, no categories.
        ServiceRecord(name="ConceptOnly", description="alignment helper"),
        # Category route only: no lexicon words at all.
        ServiceRecord(name="CategoryOnly", description="opaque", categories=("Cat A",)),
        # Both routes.
        ServiceRecord(name="BothRoutes", description="alignment", categories=("Cat A",)),
        # Unreachable by either route.
        ServiceRecord(name="Unreachable", description="opaque too"),
    ]
    return build_index(records, route_lexicon)


@pytest.fixture()
def tie_index(route_lexicon):
    """Groups of three services with the same text and categories.

    Within a group score and s_score tie and only the name orders them.
    Positions run against name order, so position order cannot pass for
    the name tie-break.
    """
    groups = [
        ("alignment tree", ("Cat A",)),
        ("alignment", ("Cat A",)),
        ("alignment", ()),
        ("tree", ("Cat B",)),
        ("opaque", ("Cat A",)),
        ("opaque", ()),
    ]
    records = [
        ServiceRecord(name=f"S{g}{suffix}", description=text, categories=categories)
        for g, (text, categories) in enumerate(groups)
        for suffix in "cab"
    ]
    built = build_index(records, route_lexicon)
    return ServiceIndex(
        services=built.services[::-1], lexicon_fingerprint=built.lexicon_fingerprint
    )


def cosine_scores(task_vector, index):
    """Concept-route reference: cosine against every service sharing a concept."""
    return {
        pos: cosine(task_vector, service.vector)
        for pos, service in enumerate(index.services)
        if task_vector.support() & service.vector.support()
    }


def reference_rank(task_vector, matches, index, weights, top_k):
    """Score every reached service with cosine, sort all, then truncate."""
    c_scores = search_by_category(matches, index)
    results = []
    for pos, service in enumerate(index.services):
        shared = task_vector.support() & service.vector.support()
        if not shared and pos not in c_scores:
            continue
        c_score = c_scores.get(pos, 0.0)
        s_score = cosine(task_vector, service.vector)
        results.append(
            RankedResult(
                service.name, shared, c_score, s_score, combine(c_score, s_score, weights)
            )
        )
    results.sort(key=lambda r: (-r.score, -r.s_score, r.service))
    return results[:top_k]


# The weight range's two ends, so norms and their products reach theirs.
vector_st = st.dictionaries(
    st.sampled_from([f"c{i}" for i in range(6)]),
    st.floats(min_value=1e-3, max_value=1e3) | st.sampled_from([2.0**-255, 2.0**255]),
    max_size=6,
).map(vector_of)

_CATEGORIES = ["Cat A", "cat-a", "Cat B", "Cat C"]
# Few concepts and few weights, so distinct vectors often score alike.
_tie_vector_st = st.dictionaries(
    st.sampled_from(["c0", "c1", "c2"]), st.sampled_from([0.5, 1.0, 2.0, 3.0]), max_size=3
)


@st.composite
def tie_prone_index_st(draw):
    """A small index whose services repeat a few vectors and category
    sets, so scores tie, with positions in no particular name order."""
    vectors = draw(st.lists(_tie_vector_st, min_size=1, max_size=3))
    category_sets = draw(
        st.lists(st.lists(st.sampled_from(_CATEGORIES), max_size=2), min_size=1, max_size=3)
    )
    n = draw(st.integers(min_value=1, max_value=9))
    names = draw(st.permutations([f"S{i}" for i in range(n)]))
    services = tuple(
        AnnotatedService(
            ServiceRecord(name, categories=tuple(draw(st.sampled_from(category_sets)))),
            vector_of(draw(st.sampled_from(vectors))),
        )
        for name in names
    )
    return ServiceIndex(services=services, lexicon_fingerprint="f")


weights_st = st.one_of(
    st.sampled_from([Weights(), Weights(0.5, 0.5), Weights(1, 0), Weights(0.0, 1.0)]),
    st.floats(min_value=0.0, max_value=1.0).map(lambda w1: Weights(w1, 1.0 - w1)),
)
matches_st = st.lists(
    st.builds(
        CategoryMatch,
        st.sampled_from(_CATEGORIES),
        st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
    ),
    max_size=3,
)


# Hub concepts h0 and h1 are carried by most services and c2 by some;
# services holding both hubs, or a hub and c2, are reached more than once.
_HUB_CONCEPT_SETS = [("h0",), ("h1",), ("h0", "h1"), ("h0", "c2"), ("h1", "c2"), ("c2",), ("c3",)]
# A few shared weights make equal cosines, so scores tie at the cut.
_hub_weight_st = st.sampled_from([0.5, 1.0, 2.0]) | st.floats(min_value=1e-3, max_value=1e3)


@st.composite
def hub_index_st(draw):
    """50 to 200 services carrying one or two hub concepts and a few
    category sets, positions in no particular name order."""
    n = draw(st.integers(min_value=50, max_value=200))
    order = draw(st.permutations(range(n)))
    category_sets = draw(
        st.lists(st.lists(st.sampled_from(_CATEGORIES), max_size=2), min_size=1, max_size=3)
    )
    services = tuple(
        AnnotatedService(
            ServiceRecord(f"S{i:03d}", categories=tuple(draw(st.sampled_from(category_sets)))),
            vector_of(
                {c: draw(_hub_weight_st) for c in draw(st.sampled_from(_HUB_CONCEPT_SETS))}
            ),
        )
        for i in order
    )
    return ServiceIndex(services=services, lexicon_fingerprint="f")


hub_task_st = st.fixed_dictionaries(
    {"h0": _hub_weight_st, "h1": _hub_weight_st}, optional={"c2": _hub_weight_st}
).map(vector_of)


def score_bits(results):
    return [tuple(map(float.hex, (r.c_score, r.s_score, r.score))) for r in results]


class TestWeights:
    def test_defaults(self):
        weights = Weights()
        assert (weights.w1, weights.w2) == (0.2, 0.8)

    def test_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Weights(0.5, 0.8)

    def test_must_be_non_negative(self):
        with pytest.raises(ValueError):
            Weights(-0.2, 1.2)

    @pytest.mark.parametrize("w1, w2", [(math.nan, math.nan), (math.inf, 0.0)])
    def test_must_be_finite(self, w1, w2):
        with pytest.raises(ValueError, match="finite"):
            Weights(w1, w2)

    def test_pure_extremes_allowed(self):
        assert Weights(0.0, 1.0).w1 == 0.0
        assert Weights(1.0, 0.0).w2 == 0.0

    @pytest.mark.parametrize(
        "w1, w2, detail",
        [
            ("a", 0.8, "field 'w1' has type str"),
            (True, False, "field 'w1' has type bool"),
            (0.2, None, "field 'w2' has type NoneType"),
            (1, False, "field 'w2' has type bool"),
        ],
    )
    def test_only_int_or_float(self, w1, w2, detail):
        with pytest.raises(ValueError) as info:
            Weights(w1, w2)
        assert str(info.value) == detail

    def test_ints_allowed(self):
        assert Weights(1, 0) == (1, 0)

    @pytest.mark.parametrize(
        "w1, w2, field", [(10**400, 0, "w1"), (0, 10**400, "w2")], ids=["w1", "w2"]
    )
    def test_int_too_large_for_a_float(self, w1, w2, field):
        with pytest.raises(ValueError) as info:
            Weights(w1, w2)
        assert str(info.value) == f"field {field!r}: int too large to convert to float"


class TestCosine:
    def test_partial_overlap_oracle(self):
        # Shared support {q}: dot = 16, norms 5 * 5, cosine = 0.64.
        a = vector_of({"p": 3.0, "q": 4.0})
        b = vector_of({"q": 4.0, "r": 3.0})
        assert cosine(a, b) == pytest.approx(16 / 25, abs=1e-15)

    def test_self_similarity(self):
        vec = vector_of({"a": 1.7, "b": 2.9, "c": 0.4})
        assert cosine(vec, vec) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_supports(self):
        a = vector_of({"a": 1.0})
        b = vector_of({"b": 1.0})
        assert cosine(a, b) == 0.0

    def test_empty_vector(self):
        a = vector_of({})
        b = vector_of({"b": 1.0})
        assert cosine(a, b) == 0.0

    def test_symmetry(self):
        a = vector_of({"x": 0.3, "y": 2.0})
        b = vector_of({"y": 1.1, "z": 4.0})
        assert cosine(a, b) == cosine(b, a)

    @settings(max_examples=300, deadline=None)
    @given(
        weights=st.dictionaries(
            st.text(max_size=3), st.floats(2.0**-255, 2.0**255), min_size=1, max_size=20
        ),
        data=st.data(),
    )
    def test_scale_free_on_admitted_vectors(self, weights, data):
        """Every vector the constructor admits has cosine 1 with itself,
        and scaling it by a power of two that keeps it admitted changes
        no cosine bit."""
        vec = vector_of(weights)
        itself = cosine(vec, vec)
        assert itself == pytest.approx(1.0, abs=1e-15)
        # w in [2**(e-1), 2**e) for e = frexp(w)[1], so these exponents
        # keep every scaled weight in [2**-255, 2**255].
        lowest = -254 - math.frexp(min(weights.values()))[1]
        highest = 255 - math.frexp(max(weights.values()))[1]
        exponent = data.draw(st.integers(lowest, max(lowest, highest)), label="exponent")
        scaled = vector_of({c: math.ldexp(w, exponent) for c, w in weights.items()})
        assert cosine(scaled, vec) == itself


class TestSearchRoutes:
    def test_category_route_takes_best_score(self, route_lexicon):
        records = [
            ServiceRecord(name="S", description="x", categories=("Cat A", "Cat B")),
        ]
        index = build_index(records, route_lexicon)
        scores = search_by_category(
            [CategoryMatch("Cat A", 0.5), CategoryMatch("Cat B", 0.9)], index
        )
        assert scores == {0: 0.9}

    def test_category_route_normalizes_names(self, route_index):
        scores = search_by_category([CategoryMatch("CAT-A!", 0.7)], route_index)
        positions = {s.name: i for i, s in enumerate(route_index.services)}
        assert scores == {
            positions["CategoryOnly"]: 0.7,
            positions["BothRoutes"]: 0.7,
        }

    def test_concept_route_scores_sharing_services(self, route_lexicon, route_index):
        from semdisc import annotate

        task_vector = annotate("alignment task", route_lexicon)
        scores = search_by_concepts(task_vector, route_index)
        positions = {s.name: i for i, s in enumerate(route_index.services)}
        assert set(scores) == {positions["ConceptOnly"], positions["BothRoutes"]}
        assert all(value > 0.0 for value in scores.values())

    def test_concept_route_empty_task(self, route_index):
        assert search_by_concepts(vector_of({}), route_index) == {}

    def test_concept_route_is_cosine_on_demo(self, demo_lexicon, demo_index):
        model = parse_requirements(DATA / "requirements.txt")
        for task in tasks(model):
            task_vector = annotate(task.description, demo_lexicon)
            expected = cosine_scores(task_vector, demo_index)
            assert search_by_concepts(task_vector, demo_index) == expected

    @given(task_vector=vector_st, vectors=st.lists(vector_st, max_size=8))
    # Services sharing one, two and three concepts with the task, so a
    # single product, a list of two and a longer list are summed on every
    # run.  Added left to right, the three products 1 + 2**-53 + 2**-53
    # give 1.0, not the correctly rounded 1 + 2**-52.
    @example(
        task_vector=vector_of({"c0": 1.0, "c1": 1.0, "c2": 1.0}),
        vectors=[
            vector_of({"c0": 0.5}),
            vector_of({"c0": 0.1, "c1": 0.2, "c3": 1.0}),
            vector_of({"c0": 1.0, "c1": 2.0**-53, "c2": 2.0**-53}),
        ],
    )
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_concept_route_is_cosine(self, task_vector, vectors):
        # Bit for bit: the pass sums cosine's products, one or through fsum.
        index = ServiceIndex(
            services=tuple(
                AnnotatedService(record=ServiceRecord(name=f"S{i}"), vector=vector)
                for i, vector in enumerate(vectors)
            ),
            lexicon_fingerprint="f",
        )
        got = search_by_concepts(task_vector, index)
        expected = cosine_scores(task_vector, index)
        assert got.keys() == expected.keys()
        assert {pos: s.hex() for pos, s in got.items()} == {
            pos: s.hex() for pos, s in expected.items()
        }


class TestCombine:
    def test_linear_blend(self):
        weights = Weights(0.2, 0.8)
        assert combine(0.5586, 0.5427, weights) == 0.2 * 0.5586 + 0.8 * 0.5427

    def test_extremes(self):
        assert combine(0.3, 0.9, Weights(1.0, 0.0)) == 0.3
        assert combine(0.3, 0.9, Weights(0.0, 1.0)) == 0.9


class TestRank:
    def test_missing_route_scores_zero(self, route_lexicon, route_index):
        from semdisc import annotate

        task_vector = annotate("alignment task", route_lexicon)
        matches = [CategoryMatch("Cat A", 0.6)]
        results = {r.service: r for r in rank(task_vector, matches, route_index)}
        assert results["ConceptOnly"].c_score == 0.0
        assert results["ConceptOnly"].s_score > 0.0
        assert results["CategoryOnly"].c_score == 0.6
        assert results["CategoryOnly"].s_score == 0.0
        assert "Unreachable" not in results

    def test_equal_scores_break_on_s_score(self, route_lexicon, route_index):
        from semdisc import annotate

        # ConceptOnly gets cosine 1.0 (identical single-concept vectors);
        # CategoryOnly gets c_score 1.0.  With equal weights both combine
        # to 0.5 and the higher s_score must come first.
        task_vector = annotate("alignment", route_lexicon)
        matches = [CategoryMatch("Cat A", 1.0)]
        results = rank(task_vector, matches, route_index, Weights(0.5, 0.5), top_k=10)
        concept_pos = [r.service for r in results].index("ConceptOnly")
        category_pos = [r.service for r in results].index("CategoryOnly")
        assert results[concept_pos].score == results[category_pos].score
        assert concept_pos < category_pos

    def test_name_tiebreak(self, route_lexicon):
        records = [
            ServiceRecord(name="Beta", description="x", categories=("Cat A",)),
            ServiceRecord(name="Alpha", description="y", categories=("Cat A",)),
        ]
        index = build_index(records, route_lexicon)
        results = rank(
            vector_of({}), [CategoryMatch("Cat A", 0.5)], index
        )
        assert [r.service for r in results] == ["Alpha", "Beta"]

    def test_top_k_truncates(self, route_lexicon, route_index):
        from semdisc import annotate

        task_vector = annotate("alignment", route_lexicon)
        matches = [CategoryMatch("Cat A", 1.0)]
        results = rank(task_vector, matches, route_index, top_k=1)
        assert len(results) == 1

    @pytest.mark.parametrize("weights", [Weights(), Weights(0.5, 0.5)])
    @pytest.mark.parametrize("text", ["alignment tree", "alignment", "tree", ""])
    def test_every_top_k_matches_full_sort(self, route_lexicon, tie_index, text, weights):
        task_vector = annotate(text, route_lexicon)
        matches = [CategoryMatch("Cat A", 0.6), CategoryMatch("Cat B", 1.0)]
        for top_k in range(1, len(tie_index) + 2):
            expected = reference_rank(task_vector, matches, tie_index, weights, top_k)
            got = rank(task_vector, matches, tie_index, weights, top_k=top_k)
            assert got == expected, top_k

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        index=tie_prone_index_st(),
        task=_tie_vector_st.map(vector_of),
        matches=matches_st,
        weights=weights_st,
    )
    def test_every_top_k_matches_full_sort_on_ties(self, index, task, matches, weights):
        """Scores tie at the cut: every top_k still ranks as a full sort
        does, every score bit for bit."""
        for top_k in range(1, len(index) + 2):
            expected = reference_rank(task, matches, index, weights, top_k)
            got = rank(task, matches, index, weights, top_k=top_k)
            assert got == expected, top_k
            assert score_bits(got) == score_bits(expected), top_k

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        index=hub_index_st(),
        task=hub_task_st,
        matches=matches_st,
        weights=weights_st,
    )
    def test_hub_scale_top_k_matches_full_sort(self, index, task, matches, weights):
        """The hub concepts reach most services, some once and some more
        than once; matched categories reach some of them too, and some
        services only by category, so category scores can lift the
        top_k-th score above w2 times the top_k-th cosine."""
        for top_k in (1, 10, len(index) + 1):
            expected = reference_rank(task, matches, index, weights, top_k)
            got = rank(task, matches, index, weights, top_k=top_k)
            assert got == expected, top_k
            assert score_bits(got) == score_bits(expected), top_k

    def test_rounding_collapse_ties_at_the_cut(self, monkeypatch):
        """Two cosines one ulp apart give the same score at w2 = 0.8, as
        does a category-only service at w1 = 0.2: the three tie at the
        cut, and s_score, not the name, orders them."""
        high = 0.175
        low = math.nextafter(high, 0.0)
        c_score = 0.7
        score = c_score * 0.2
        assert low < high and low * 0.8 == high * 0.8 == score
        # Unit-norm vectors, so each cosine is the patched dot product.
        index = ServiceIndex(
            services=(
                AnnotatedService(ServiceRecord("S1", categories=("Cat A",)), vector_of({})),
                AnnotatedService(ServiceRecord("S2"), vector_of({"c": 1.0})),
                AnnotatedService(ServiceRecord("S3"), vector_of({"c": 1.0})),
            ),
            lexicon_fingerprint="f",
        )
        monkeypatch.setattr(
            "semdisc.ranker._dot_products", lambda task_vector, index: {1: low, 2: high}
        )
        task = vector_of({"c": 1.0})
        shared = frozenset({"c"})
        high_result = RankedResult("S3", shared, 0.0, high, score)
        low_result = RankedResult("S2", shared, 0.0, low, score)
        category_result = RankedResult("S1", frozenset(), c_score, 0.0, score)
        # Concept route only: the higher s_score first at every top_k.
        for top_k, expected in [(1, [high_result]), (2, [high_result, low_result])]:
            got = rank(task, [], index, Weights(0.2, 0.8), top_k=top_k)
            assert got == expected, top_k
            assert score_bits(got) == score_bits(expected), top_k
        # Both routes: the category-only service ties with both at the cut.
        matches = [CategoryMatch("Cat A", c_score)]
        everything = [high_result, low_result, category_result]
        for top_k in (1, 2, 3, 4):
            got = rank(task, matches, index, Weights(0.2, 0.8), top_k=top_k)
            assert got == everything[:top_k], top_k
            assert score_bits(got) == score_bits(everything[:top_k]), top_k

    @pytest.mark.parametrize("weights", [Weights(1, 0), Weights(1.0, 0.0)])
    def test_zero_w2_orders_by_s_score_then_name(self, weights, monkeypatch):
        # Every concept-only score is 0.0, so every service ties at the cut.
        cosines = [0.5, math.nextafter(0.7, 0.0), 0.7, 0.5]
        index = ServiceIndex(
            services=tuple(
                AnnotatedService(ServiceRecord(name), vector_of({"c": 1.0}))
                for name in ("S4", "S1", "S2", "S3")
            ),
            lexicon_fingerprint="f",
        )
        monkeypatch.setattr(
            "semdisc.ranker._dot_products", lambda task_vector, index: dict(enumerate(cosines))
        )
        order = [("S2", 0.7), ("S1", math.nextafter(0.7, 0.0)), ("S3", 0.5), ("S4", 0.5)]
        for top_k in range(1, 6):
            got = rank(vector_of({"c": 1.0}), [], index, weights, top_k=top_k)
            assert [(r.service, r.s_score) for r in got] == order[:top_k], top_k
            assert all(r.score.hex() == "0x0.0p+0" for r in got), top_k

    @pytest.mark.parametrize("weights", [(0.5, 0.8), (0.2, 0.8), None])
    def test_weights_must_be_weights(self, route_index, weights):
        # A plain tuple skips the constructor's checks, so it is refused
        # even when it would pass them.
        with pytest.raises(ValueError, match=r"^weights .* is not a Weights$"):
            rank(vector_of({}), [], route_index, weights)

    def test_top_k_validation(
        self, route_index, demo_lexicon, demo_taxonomy, demo_index, monkeypatch
    ):
        with pytest.raises(ValueError):
            rank(vector_of({}), [], route_index, top_k=0)
        for value in (True, 2.5, 2.0, "2", None, -1):
            with pytest.raises(ValueError, match=rf"^top_k {value!r} is not an integer >= 1$"):
                rank(vector_of({}), [], route_index, top_k=value)
        # discover checks every option before it annotates the task.
        annotated = []
        monkeypatch.setattr(
            "semdisc.ranker.annotate", lambda *args, **kwargs: annotated.append(args)
        )
        inputs = ("Analyze domains in protein sequences", demo_lexicon, demo_taxonomy, demo_index)
        for option, value, message in [
            ("top_k", 2.5, r"^top_k 2\.5 is not an integer >= 1$"),
            ("top_k", True, r"^top_k True is not an integer >= 1$"),
            ("top_k_categories", 2.5, r"^top_k 2\.5 is not an integer >= 1$"),
            ("top_k_categories", True, r"^top_k True is not an integer >= 1$"),
            ("min_cscore", "0.4", r"^min_cscore '0\.4' outside \[0, 1\]$"),
            ("min_cscore", True, r"^min_cscore True outside \[0, 1\]$"),
            ("weights", (0.5, 0.8), r"^weights \(0\.5, 0\.8\) is not a Weights$"),
            ("weights", None, r"^weights None is not a Weights$"),
        ]:
            with pytest.raises(ValueError, match=message):
                discover(*inputs, **{option: value})
            assert annotated == [], option
        for text in (None, b"protein", 1):
            with pytest.raises(ValueError, match=r"^task_text must be a str, not "):
                discover(text, *inputs[1:])
            assert annotated == [], text

    def test_argument_types(
        self, route_index, demo_lexicon, demo_taxonomy, demo_index, monkeypatch
    ):
        # rank checks as the two searches it is built from do.
        def rank_concepts(task_vector, index):
            return rank(task_vector, [], index)

        def rank_categories(matches, index):
            return rank(vector_of({}), matches, index)

        for search in (rank_concepts, search_by_concepts):
            for task_vector in ("text", None, {"C1": 1.0}):
                message = f"task_vector {task_vector!r} is not a SemanticVector"
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    search(task_vector, route_index)
        for search, first in [
            (rank_concepts, vector_of({})),
            (search_by_concepts, vector_of({})),
            (rank_categories, []),
            (search_by_category, []),
        ]:
            for index in ("idx", None, route_index.services):
                with pytest.raises(ValueError, match=r"^index .* is not a ServiceIndex$"):
                    search(first, index)
        for search in (rank_categories, search_by_category):
            for matches in (
                [("Sequence analysis", 1.0)],
                (CategoryMatch("Cat A", 1.0), "Cat B"),
                None,
                "Cat A",
                {CategoryMatch("Cat A", 1.0)},
            ):
                message = f"category_matches {matches!r} is not a list or tuple of CategoryMatch"
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    search(matches, route_index)
        # discover checks the index before it matches categories or
        # annotates the task.
        called = []
        for stage in ("match_categories", "annotate"):
            monkeypatch.setattr(
                f"semdisc.ranker.{stage}", lambda *args, _s=stage, **kw: called.append(_s)
            )
        for index in ("idx", None):
            with pytest.raises(ValueError, match=rf"^index {index!r} is not a ServiceIndex$"):
                discover("protein sequences", demo_lexicon, demo_taxonomy, index)
        assert called == []

    def test_shared_annotations(self, route_lexicon, route_index):
        from semdisc import annotate

        task_vector = annotate("alignment tree", route_lexicon)
        results = {r.service: r for r in rank(task_vector, [], route_index)}
        assert results["ConceptOnly"].shared_annotations == frozenset({"C1"})


class TestDiscover:
    def test_demo_pipeline_smoke(self, demo_lexicon, demo_taxonomy, demo_index):
        results = discover(
            "Analyze domains in protein sequences",
            demo_lexicon,
            demo_taxonomy,
            demo_index,
        )
        assert len(results) == 5
        assert results[0].service == "GlobPlot"
        assert all(isinstance(r, RankedResult) for r in results)
        assert all(-1.0 <= r.score <= 1.0 for r in results)

    def test_reference_values_pinned(self, demo_lexicon, demo_taxonomy, demo_index):
        # Exact bits, so every supported Python version must agree on them.
        task = "Analyze domains in protein sequences"
        assert annotate(task, demo_lexicon).norm().hex() == "0x1.0ffae4d698eb9p+4"
        results = discover(task, demo_lexicon, demo_taxonomy, demo_index)
        assert [(r.service, r.s_score.hex(), r.score.hex()) for r in results] == [
            ("GlobPlot", "0x1.630571099d6b2p-1", "0x1.1c045a6e1788fp-1"),
            ("Uniprot", "0x1.15dca3bded85bp-1", "0x1.17ce4cac52adap-1"),
            ("Genesilico", "0x1.e3d752926e56dp-2", "0x1.f61b089de7fe0p-2"),
            ("Emboss tmap", "0x1.c6f672d589fe8p-2", "0x1.df00bc06caea9p-2"),
            ("ELMdb", "0x1.c068c4030e30bp-2", "0x1.d9c296919b12cp-2"),
        ]

    def test_unknown_task_returns_nothing(self, demo_lexicon, demo_taxonomy, demo_index):
        results = discover(
            "entirely unrelated quantum billiards",
            demo_lexicon,
            demo_taxonomy,
            demo_index,
        )
        assert results == []

    def test_pure_category_weights(self, demo_lexicon, demo_taxonomy, demo_index):
        results = discover(
            "Analyze domains in protein sequences",
            demo_lexicon,
            demo_taxonomy,
            demo_index,
            Weights(1.0, 0.0),
        )
        scores = [r.score for r in results]
        assert scores == sorted(scores, reverse=True)
        # GlobPlot carries no matched category, so it drops to the bottom.
        assert results[-1].service == "GlobPlot"
        assert results[-1].score == 0.0


def test_weights_are_frozen():
    weights = Weights()
    with pytest.raises(Exception):
        weights.w1 = 0.5  # type: ignore[misc]


def test_cosine_norm_consistency():
    # The cosine denominator uses the same fsum accumulation as
    # SemanticVector.norm, so a vector against itself stays at 1 even
    # with many entries.
    weights = {f"c{i}": math.sqrt(i + 1) for i in range(50)}
    vec = vector_of(weights)
    assert cosine(vec, vec) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(index=tie_prone_index_st())
def test_concept_weights_are_derived(tmp_path_factory, index):
    """The per-concept weight mappings hold each vector's own weights, are
    viewed by the concept postings, are rebuilt on load and unpickling,
    and take no part in ==, repr or the file."""

    def own_weights(value):
        expected = {}
        for pos, service in enumerate(value.services):
            for concept, weight in service.vector.weights.items():
                expected.setdefault(concept, {})[pos] = weight
        return (
            value.concept_weights == expected
            and all(
                value.concept_weights[c][pos] is w
                for c, by_pos in expected.items()
                for pos, w in by_pos.items()
            )
            and value.concept_postings.keys() == value.concept_weights.keys()
            and all(
                isinstance(view, KeysView) and view.mapping == value.concept_weights[c]
                for c, view in value.concept_postings.items()
            )
        )

    assert own_weights(index)
    assert index.__reduce__() == (
        ServiceIndex, (index.services, index.lexicon_fingerprint, index.threshold)
    )
    assert own_weights(pickle.loads(pickle.dumps(index)))
    path = tmp_path_factory.getbasetemp() / "derived.idx"
    save_index(index, path)
    saved = path.read_bytes()
    loaded = load_index(path)
    assert own_weights(loaded)
    assert loaded.concept_weights == index.concept_weights
    # The benchmark's tracer and checks use the key views as they used
    # frozensets of positions: |= into a set, len, == and != of tables.
    for concept, view in loaded.concept_postings.items():
        positions = frozenset(
            pos for pos, s in enumerate(index.services) if concept in s.vector.weights
        )
        union = {-1}
        union |= view
        assert union == positions | {-1}
        assert len(view) == len(positions)
        assert view == positions and positions == view
        assert view != positions | {-1}
    assert not loaded.concept_postings != index.concept_postings
    # Without its weight mappings an index still equals, prints and saves
    # as before.
    object.__setattr__(loaded, "concept_weights", {})
    assert loaded == index
    assert repr(loaded) == repr(index)
    save_index(loaded, path)
    assert path.read_bytes() == saved
