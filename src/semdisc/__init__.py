"""semdisc: requirement-driven discovery of annotated web services.

The pipeline has three stages: free text is annotated into sparse
concept vectors using an information-content score over a lexicon;
category names are matched with the ISub string metric; and services are
ranked by a weighted combination of the category score and the cosine
between concept vectors.
"""
from .annotator import (
    Annotation,
    SemanticVector,
    UndefinedScoreError,
    annotate,
    cw,
    missing,
    ratio,
    sim,
)
from .lexicon import Concept, Lexicon, load_lexicon, normalize
from .ranker import (
    RankedResult,
    Weights,
    combine,
    cosine,
    discover,
    rank,
    search_by_category,
    search_by_concepts,
)
from .registry import (
    AnnotatedService,
    ServiceIndex,
    ServiceRecord,
    annotation_text,
    build_index,
    ingest_registry,
    load_index,
    save_index,
)
from .requirements import (
    Goal,
    RequirementsModel,
    Subgoal,
    TaskRequirement,
    parse_requirements,
    serialize_requirements,
    tasks,
)
from .strsim import clamp_cscore, isub
from .taxonomy import CategoryMatch, CategoryTaxonomy, load_taxonomy, match_categories

__version__ = "0.1.0"

__all__ = [
    "Annotation",
    "AnnotatedService",
    "CategoryMatch",
    "CategoryTaxonomy",
    "Concept",
    "Goal",
    "Lexicon",
    "RankedResult",
    "RequirementsModel",
    "SemanticVector",
    "ServiceIndex",
    "ServiceRecord",
    "Subgoal",
    "TaskRequirement",
    "UndefinedScoreError",
    "Weights",
    "annotate",
    "annotation_text",
    "build_index",
    "clamp_cscore",
    "combine",
    "cosine",
    "cw",
    "discover",
    "ingest_registry",
    "isub",
    "load_index",
    "load_lexicon",
    "load_taxonomy",
    "match_categories",
    "missing",
    "normalize",
    "parse_requirements",
    "rank",
    "ratio",
    "save_index",
    "search_by_category",
    "search_by_concepts",
    "serialize_requirements",
    "sim",
    "tasks",
]
