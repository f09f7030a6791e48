"""Regenerate the bundled demo dataset.

The dataset is reverse-engineered so the pipeline produces known round
numbers: the example task annotates to concept weights 8 and 15, and the
five demo services come out of ``discover`` with predetermined scores.
Word counts in the lexicon are solved so the Laplace-smoothed model hits
the designed idf values; each service description carries a private set
of filler words whose counts are factorized to land the service's cosine
score on its target.

Everything is deterministic: running this script twice produces
byte-identical files.  Usage::

    python tests/data/make_demo_data.py [--out DIR]
"""
from __future__ import annotations

import argparse
import heapq
import json
import math
from pathlib import Path

from semdisc import (
    Weights,
    annotate,
    build_index,
    discover,
    ingest_registry,
    isub,
    load_lexicon,
    load_taxonomy,
)

# ---------------------------------------------------------------- targets

TASK = "Analyze domains in protein sequences"
CONCEPT_DOMAINS = "C1513868"
CONCEPT_PROTSEQ = "D9000419"

# Laplace denominator N = total + vocab + 1.  With counts 5/6/13 for
# domains/protein/sequences this gives idf("domains") = ln(N/6) ~ 8 and
# idf("protein") + idf("sequences") = ln(N/7) + ln(N/14) ~ 15.
DENOM = 17886
COUNT_DOMAINS = 5
COUNT_PROTEIN = 6
COUNT_SEQUENCES = 13

# Ranking targets: (service, shares_domains, cosine target).
SERVICES = [
    ("GlobPlot", True, 0.6934),
    ("Uniprot", False, 0.5427),
    ("Genesilico", True, 0.4725),
    ("Emboss tmap", False, 0.4443),
    ("ELMdb", False, 0.4379),
]

# Per-service filler vocabulary (first w words are used, w solved below).
FILLER_POOL = {
    "GlobPlot": ["globularity", "propensity", "smoothing", "curvature", "windows"],
    "Uniprot": ["curated", "knowledgebase", "crossreferences", "isoforms", "accessions"],
    "Genesilico": ["structural", "recombination", "templates", "assembly", "modeling"],
    "Emboss tmap": ["transmembrane", "topology", "segments", "profiles", "hydropathy"],
    "ELMdb": ["linear", "motif", "instances", "evidence", "contexts"],
}

FILLER_CONCEPTS = {
    "GlobPlot": "C8200001",
    "Uniprot": "C8200002",
    "Genesilico": "C8200003",
    "Emboss tmap": "C8200004",
    "ELMdb": "C8200005",
}

MATCHED_CATEGORY = "Protein Sequences Analysis DB"

TAXONOMY = [
    "Protein Sequence Analysis",
    MATCHED_CATEGORY,
    "Disorder Prediction",
    "Sequence Alignment",
    "Pathway Analysis",
    "Gene Expression",
    "Text Mining",
    "Phylogenetics",
    "Structure Prediction",
    "Mass Spectrometry",
    "Data Retrieval",
    "Ontology Lookup",
]

PURE_WORD_TARGET = 600
FACTOR_ERR_MAX = 2.5e-4
FACTOR_MAX = 2000

REQUIREMENTS = """\
# Demo requirements outline.
goal: Characterize a protein family
  subgoal: Describe domain architecture
    task: Analyze domains in protein sequences
    task: Compare domains across family members
goal: Annotate regulatory features
  task: Collect sequences for the target family
  subgoal: Find candidate motifs
    task: Rank linear motif candidates
    task: Check disorder context for motifs
goal: Publish the analysis
  task: Export ranked service shortlists
  task: Document the analysis workflow
"""


def idf_for_count(count: int) -> float:
    return math.log(DENOM / (count + 1))


def search_factors(product: float, err_max: float) -> tuple[int, ...]:
    """Integer factors >= 2 whose product is within exp(+-err_max) of the
    per-word-count product implied by the target filler idf.

    ``product`` is N**w * exp(-idf_target) for w words; we try w = 3..5
    and keep the cheapest solution, cost being the summed word counts.
    """
    best: tuple[int, float, tuple[int, ...]] | None = None  # (cost, err, factors)

    def consider(factors: tuple[int, ...], target: float) -> None:
        nonlocal best
        prod = math.prod(factors)
        if prod <= 0:
            return
        err = abs(math.log(prod / target))
        if err > err_max:
            return
        cost = sum(f - 1 for f in factors)
        candidate = (cost, err, tuple(sorted(factors)))
        if best is None or candidate < best:
            best = candidate

    for extra_words in range(3):  # w = 3, 4, 5
        width = 3 + extra_words
        target = product * DENOM**extra_words
        if not 2**width <= target <= FACTOR_MAX**width:
            continue

        def descend(prefix: tuple[int, ...], remaining: int, lo: int) -> None:
            rest = target / math.prod(prefix)
            if best is not None:
                # Balanced factors minimize the summed cost of the rest.
                bound = sum(f - 1 for f in prefix)
                bound += remaining * (rest ** (1.0 / remaining) - 1.0)
                if bound > best[0] + 1e-9:
                    return
            if remaining == 1:
                for f in (math.floor(rest), math.ceil(rest)):
                    if lo <= f <= FACTOR_MAX:
                        consider(prefix + (f,), target)
                return
            # Ascending factors: each is at most the balanced root, and at
            # least large enough that the rest stays under FACTOR_MAX each.
            hi = min(math.ceil(rest ** (1.0 / remaining)) + 1, FACTOR_MAX)
            floor_f = math.ceil(rest / FACTOR_MAX ** (remaining - 1))
            # Descending order reaches cheap balanced candidates first so
            # the cost bound prunes the lopsided part of the search.
            for f in range(hi, max(lo, floor_f) - 1, -1):
                descend(prefix + (f,), remaining - 1, f)

        descend((), width, 2)
    if best is None:
        raise RuntimeError(f"no factorization within {err_max} for {product}")
    return best[2]


def solve_fillers() -> dict[str, tuple[list[str], list[int]]]:
    """Pick filler words and word counts per service.

    Returns service -> (filler words, lexical-form word counts).
    """
    a = idf_for_count(COUNT_DOMAINS)
    b = idf_for_count(COUNT_PROTEIN) + idf_for_count(COUNT_SEQUENCES)
    task_norm = math.hypot(a, b)
    out: dict[str, tuple[list[str], list[int]]] = {}
    for name, shares_domains, target in SERVICES:
        if shares_domains:
            # cosine = |t| / sqrt(|t|^2 + g^2)
            gamma = math.sqrt((task_norm / target) ** 2 - task_norm**2)
        else:
            # cosine = b^2 / (|t| * sqrt(b^2 + g^2))
            gamma = math.sqrt((b * b / (task_norm * target)) ** 2 - b * b)
        factors = search_factors(DENOM**3 * math.exp(-gamma), FACTOR_ERR_MAX)
        words = FILLER_POOL[name][: len(factors)]
        counts = [f - 1 for f in factors]
        out[name] = (words, counts)
    return out


def pure_words() -> list[str]:
    roots = ["gly", "myo", "lipo", "oxo", "cyto", "ribo", "keto", "neuro", "hemo", "fibro"]
    mids = ["cat", "dol", "fen", "gor", "lum", "pex"]
    tails = ["ase", "ide", "ome", "gen", "tin", "mere", "vin", "sol", "pod", "zist"]
    words = [r + m + t for r in roots for m in mids for t in tails]
    assert len(set(words)) == len(words) >= PURE_WORD_TARGET
    return words[:PURE_WORD_TARGET]


def build_lexicon_lines(fillers: dict[str, tuple[list[str], list[int]]]) -> list[str]:
    lines = [
        "# Demo concept lexicon.  Fields: concept_id<TAB>source<TAB>lexical form.",
        f"{CONCEPT_DOMAINS}\tumls\tdomains",
        f"{CONCEPT_PROTSEQ}\tmesh\tprotein sequences",
    ]
    # Remaining occurrences each calibrated word needs from ballast forms.
    remaining: dict[str, int] = {
        "domains": COUNT_DOMAINS - 1,
        "protein": COUNT_PROTEIN - 1,
        "sequences": COUNT_SEQUENCES - 1,
    }
    for name, _, _ in SERVICES:
        words, counts = fillers[name]
        lines.append(f"{FILLER_CONCEPTS[name]}\tumls\t{' '.join(words)}")
        for word, count in zip(words, counts):
            remaining[word] = count - 1

    calibrated_tokens = 3 + sum(len(fillers[n][0]) for n, _, _ in SERVICES)
    placements = sum(remaining.values())
    vocab = 3 + sum(len(fillers[n][0]) for n, _, _ in SERVICES) + PURE_WORD_TARGET
    total_tokens = DENOM - 1 - vocab
    pure_tokens = total_tokens - calibrated_tokens - placements
    chaperones_needed = 4 * placements
    assert pure_tokens >= chaperones_needed, "not enough pure-token budget"

    words = pure_words()
    base, extra = divmod(pure_tokens, PURE_WORD_TARGET)
    assert base >= 1
    pure_counts = {
        w: base + (1 if i < extra else 0) for i, w in enumerate(words)
    }

    # Emit ballast forms.  Each form holding a calibrated word gets four
    # pure chaperone words so no ballast concept can score near any text
    # that mentions the calibrated word.  Words are drawn highest-count
    # first so per-form words stay distinct.
    heap = [(-count, word) for word, count in pure_counts.items()]
    heapq.heapify(heap)

    def draw(k: int) -> list[str]:
        drawn = []
        while len(drawn) < k and heap:
            neg, word = heapq.heappop(heap)
            drawn.append((neg, word))
        result = [w for _, w in drawn]
        for neg, word in drawn:
            if neg + 1 < 0:
                heapq.heappush(heap, (neg + 1, word))
        return result

    ballast_id = 0
    for cal_word in sorted(remaining):
        for _ in range(remaining[cal_word]):
            ballast_id += 1
            form = [cal_word] + draw(4)
            lines.append(f"C83{ballast_id:05d}\tumls\t{' '.join(form)}")
    while heap:
        ballast_id += 1
        form = draw(8)
        lines.append(f"C83{ballast_id:05d}\tumls\t{' '.join(form)}")
    return lines


def build_services(fillers: dict[str, tuple[list[str], list[int]]]) -> list[dict]:
    def filler_text(name: str) -> str:
        return " ".join(fillers[name][0])

    return [
        {
            "name": "GlobPlot",
            "description": (
                "GlobPlot finds domains in protein sequences by "
                f"{filler_text('GlobPlot')} scoring."
            ),
            "documentation": "Submit one sequence per request; output is plain text.",
            "tags": ["disorder"],
            "categories": ["Disorder Prediction"],
        },
        {
            "name": "Uniprot",
            "description": (
                f"Uniprot serves a {filler_text('Uniprot')} resource for each entry."
            ),
            "documentation": "REST endpoints return entries in several formats.",
            "tags": ["proteins"],
            "categories": [MATCHED_CATEGORY],
        },
        {
            "name": "Genesilico",
            "description": (
                f"Genesilico builds domains through {filler_text('Genesilico')} "
                "pipelines."
            ),
            "tags": [],
            "categories": [MATCHED_CATEGORY],
        },
        {
            "name": "Emboss tmap",
            "description": (
                f"Emboss tmap maps {filler_text('Emboss tmap')} for query entries."
            ),
            "tags": ["membrane"],
            "categories": [MATCHED_CATEGORY],
        },
        {
            "name": "ELMdb",
            "description": (
                f"ELMdb lists {filler_text('ELMdb')} for signaling study."
            ),
            "documentation": None,
            "tags": [],
            "categories": [MATCHED_CATEGORY],
        },
    ]


def verify(out_dir: Path) -> None:
    lexicon = load_lexicon(out_dir / "lexicon.tsv")
    taxonomy = load_taxonomy(out_dir / "taxonomy.txt")
    records = ingest_registry(out_dir / "services.jsonl")

    a = idf_for_count(COUNT_DOMAINS)
    b = idf_for_count(COUNT_PROTEIN) + idf_for_count(COUNT_SEQUENCES)
    assert abs(a - 8.0) < 1e-4, a
    assert abs(b - 15.0) < 2e-3, b
    got_a = lexicon.idf(["domains"])
    got_b = lexicon.idf(["protein", "sequences"])
    assert abs(got_a - a) < 1e-12 and abs(got_b - b) < 1e-12, (got_a, got_b)

    vector = annotate(TASK, lexicon)
    assert vector.support() == {CONCEPT_DOMAINS, CONCEPT_PROTSEQ}, vector.weights
    print(f"task weights: {vector.weights[CONCEPT_DOMAINS]:.6f} "
          f"{vector.weights[CONCEPT_PROTSEQ]:.6f}")

    scores = {name: isub(TASK, name) for name in TAXONOMY}
    ranked = sorted(scores, key=lambda n: -scores[n])
    assert ranked[0] == "Protein Sequence Analysis", scores
    assert ranked[1] == MATCHED_CATEGORY, scores
    assert scores[MATCHED_CATEGORY] >= 0.45
    for name in ranked[2:]:
        assert scores[name] < 0.35, (name, scores[name])
    print(f"category scores: top={scores[ranked[0]]:.6f} "
          f"matched={scores[MATCHED_CATEGORY]:.6f}")

    index = build_index(records, lexicon)
    for name, shares_domains, _ in SERVICES:
        service = next(s for s in index.services if s.name == name)
        expected = {CONCEPT_PROTSEQ, FILLER_CONCEPTS[name]}
        if shares_domains:
            expected.add(CONCEPT_DOMAINS)
        assert service.vector.support() == expected, (name, service.vector.weights)

    results = discover(TASK, lexicon, taxonomy, index, Weights(0.2, 0.8))
    expected_order = [
        ("GlobPlot", 0.5547),
        ("Uniprot", 0.5459),
        ("Genesilico", 0.4897),
        ("Emboss tmap", 0.4671),
        ("ELMdb", 0.4621),
    ]
    assert [r.service for r in results] == [n for n, _ in expected_order]
    for result, (_, target_score), (_, _, target_s) in zip(
        results, expected_order, SERVICES
    ):
        assert abs(result.s_score - target_s) < 2e-4, result
        assert abs(result.score - target_score) < 1e-3, (result, target_score)
        print(f"{result.service:12s} c={result.c_score:.4f} "
              f"s={result.s_score:.4f} score={result.score:.4f} "
              f"(target {target_score:.4f})")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=str(Path(__file__).parent))
    args = parser.parse_args()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    fillers = solve_fillers()
    for name, (words, counts) in fillers.items():
        print(f"{name}: fillers {list(zip(words, counts))}")

    lines = build_lexicon_lines(fillers)
    (out_dir / "lexicon.tsv").write_text("\n".join(lines) + "\n", "utf-8")
    (out_dir / "taxonomy.txt").write_text(
        "# Demo category taxonomy.\n" + "\n".join(TAXONOMY) + "\n", "utf-8"
    )
    (out_dir / "services.jsonl").write_text(
        "\n".join(json.dumps(s, sort_keys=True) for s in build_services(fillers))
        + "\n",
        "utf-8",
    )
    (out_dir / "requirements.txt").write_text(REQUIREMENTS, "utf-8")

    verify(out_dir)
    print(f"demo dataset written to {out_dir}")


if __name__ == "__main__":
    main()
