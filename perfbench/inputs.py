"""Seeded input generator for the stage benchmark.

``generate(workload, seed, out_dir)`` writes the files a workload runs
on: ``lexicon.tsv``, ``taxonomy.txt``, ``registry-<k>.jsonl`` (one per
shard), ``requirements.txt`` and ``tasks.txt``.  The same workload and
seed give byte-identical files.  The generator uses the standard library
only and never imports semdisc, so a change to the program cannot change
its inputs.

Lexicon words are synthetic and drawn with Zipf-like frequencies; hub
words are placed in many lexical forms on purpose.  Category names use a
separate, English vocabulary so category matching and annotation do not
interfere.  Service descriptions and tasks are composed from lexical
forms and category names so that both ranking routes fire.
"""
from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

from workloads import WORKLOADS, Shape

_ONSETS = ("b", "c", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t",
           "v", "z", "br", "cl", "dr", "gr", "pl", "st", "tr")
_VOWELS = ("a", "e", "i", "o", "u", "ae", "io", "ou")
_CODAS = ("", "", "", "n", "r", "s", "x", "l", "m")

CATEGORY_WORDS = (
    "sequence", "alignment", "protein", "structure", "prediction", "gene",
    "expression", "analysis", "pathway", "network", "genome", "annotation",
    "variant", "mapping", "assembly", "phylogenetic", "tree", "domain",
    "motif", "search", "retrieval", "database", "ontology", "lookup", "text",
    "mining", "mass", "spectrometry", "peptide", "identification", "rna",
    "secondary", "binding", "site", "transcription", "regulation", "promoter",
    "microarray", "clustering", "visualization", "metabolic", "model",
    "simulation", "docking", "ligand", "drug", "target", "disorder",
    "interaction", "comparative", "population", "genetics", "evolution",
    "splicing", "methylation", "chromatin", "imaging", "cell", "tissue",
    "clinical", "literature", "workflow", "format", "conversion", "quality",
    "control", "statistics", "enrichment", "taxonomy", "sample", "metadata",
)


def _word(rng: random.Random) -> str:
    syllables = rng.choice((2, 2, 2, 3))
    return "".join(
        rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS)
        for _ in range(syllables)
    )


def _distinct_words(rng: random.Random, count: int, taken: set[str]) -> list[str]:
    words: list[str] = []
    while len(words) < count:
        word = _word(rng)
        if word not in taken and len(word) >= 4:
            taken.add(word)
            words.append(word)
    return words


class _Zipf:
    """Draws words with probability proportional to 1 / rank**s."""

    def __init__(self, rng: random.Random, words: list[str], s: float) -> None:
        self.rng = rng
        self.words = words
        self.cum = list(itertools.accumulate(1.0 / (r + 1) ** s for r in range(len(words))))

    def draw(self, count: int) -> list[str]:
        chosen: list[str] = []
        while len(chosen) < count:
            (word,) = self.rng.choices(self.words, cum_weights=self.cum)
            if word not in chosen:
                chosen.append(word)
        return chosen


def _form(rng: random.Random, zipf: _Zipf) -> str:
    # A one-word form matches every text holding its word.  Drawing those
    # words uniformly keeps frequent words from turning random concepts
    # into hubs whose number would vary from seed to seed.
    n_words = rng.choices((1, 2, 3), weights=(20, 50, 30))[0]
    if n_words == 1:
        return rng.choice(zipf.words)
    return " ".join(zipf.draw(n_words))


def _spread(low: int, high: int, i: int) -> int:
    """The i-th value of a cycle through low..high.

    Sizes cycle instead of being drawn, so that totals over a dataset,
    and with them the cost of a run, differ little from seed to seed.
    """
    return low + i % (high - low + 1)


def _categories(rng: random.Random, count: int) -> list[str]:
    names: set[str] = set()
    while len(names) < count:
        words = rng.sample(CATEGORY_WORDS, (2, 2, 3)[len(names) % 3])
        names.add(" ".join(w.capitalize() for w in words))
    return sorted(names)


def _sentence(chunks: list[str]) -> str:
    text = " ".join(chunks)
    return text[0].upper() + text[1:] + "."


def generate(workload: str, seed: int, out_dir: str | Path, shape: Shape | None = None) -> dict:
    """Write the workload's input files into ``out_dir``; return their names.

    ``shape`` replaces the workload's sizes (the self-test runs tiny ones).
    """
    shape = shape or WORKLOADS[workload].shape
    rng = random.Random(f"semdisc-bench:{workload}:{seed}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    taken: set[str] = set(CATEGORY_WORDS)
    vocab = _distinct_words(rng, shape.vocabulary, taken)
    hub_words = vocab[: shape.hub_words]
    zipf = _Zipf(rng, vocab[shape.hub_words :], shape.zipf_s)
    fillers = _distinct_words(rng, 2000, taken)
    hub_forms = [
        " ".join(_distinct_words(rng, 2, taken)) for _ in range(shape.hub_concepts)
    ]

    # Lexicon.  The first hub_concepts concepts are the hub concepts, each
    # with one form of two words found nowhere else.
    forms: dict[str, set[str]] = {}
    for i in range(shape.concepts):
        cid = f"C{i:07d}"
        if i < shape.hub_concepts:
            forms[cid] = {hub_forms[i]}
            continue
        n_forms = rng.choices((1, 2, 3), weights=(50, 35, 15))[0]
        forms[cid] = {_form(rng, zipf) for _ in range(n_forms)}
    ordinary = sorted(forms)[shape.hub_concepts :]
    for word in hub_words:
        for cid in rng.sample(ordinary, shape.hub_word_forms):
            forms[cid].add(f"{word} {zipf.draw(1)[0]}")
    with open(out / "lexicon.tsv", "w", encoding="utf-8") as fh:
        fh.write("# concept_id\tsource\tlexical form\n")
        for cid in sorted(forms):
            for form in sorted(forms[cid]):
                fh.write(f"{cid}\tumls\t{form}\n")

    categories = _categories(rng, shape.categories)
    (out / "taxonomy.txt").write_text("\n".join(categories) + "\n", "utf-8")

    def some_form(cid: str) -> str:
        return rng.choice(sorted(forms[cid]))

    # Registry shards.
    shard0: set[str] = set()
    shard_files: list[str] = []
    per_shard = shape.services // shape.shards
    hub_pairs = list(itertools.combinations(range(shape.hub_concepts), 2))
    for shard in range(shape.shards):
        lines = []
        for j in range(per_shard):
            pos = shard * per_shard + j
            picked = rng.sample(ordinary, _spread(*shape.forms_per_service, pos))
            if shard == 0:
                shard0.update(picked)
            chunks = [some_form(cid) for cid in picked]
            if hub_pairs:
                chunks += [hub_forms[h] for h in hub_pairs[pos % len(hub_pairs)]]
            chunks += rng.sample(hub_words, _spread(*shape.hub_words_per_service, pos))
            chunks += rng.sample(fillers, _spread(*shape.filler_per_service, pos))
            rng.shuffle(chunks)
            record = {
                "name": f"S{pos:06d}",
                "description": _sentence(chunks),
                "tags": rng.sample(fillers, _spread(0, 2, pos)),
                "categories": rng.sample(categories, _spread(1, 2, pos)),
            }
            if pos % 10 < 3:
                record["documentation"] = _sentence(rng.sample(fillers, 6))
            lines.append(json.dumps(record, sort_keys=True))
        name = f"registry-{shard}.jsonl"
        (out / name).write_text("\n".join(lines) + "\n", "utf-8")
        shard_files.append(name)

    # Task stream: concepts held by services of shard 0, so the concept
    # route reaches the query index.
    query_concepts = sorted(shard0)
    tasks = []
    for t in range(shape.tasks):
        if shape.task_kind == "hub":
            chunks = rng.sample(hub_forms, 2) + [some_form(rng.choice(query_concepts))]
        else:
            words = rng.choice(categories).split()
            start = rng.randrange(max(1, len(words) - 1))
            chunks = [" ".join(words[start : start + _spread(1, 2, t)]).lower()]
            chunks += [some_form(cid) for cid in rng.sample(query_concepts, _spread(1, 2, t // 2))]
            while sum(len(c.split()) for c in chunks) < 4:
                chunks.append(rng.choice(fillers))
        tasks.append(_sentence(chunks)[:-1])
    (out / "tasks.txt").write_text("\n".join(tasks) + "\n", "utf-8")

    outline = ["goal: Benchmark outline", "  subgoal: Discover services"]
    outline += [f"    task: {t}" for t in tasks[: shape.outline_tasks]]
    (out / "requirements.txt").write_text("\n".join(outline) + "\n", "utf-8")

    return {
        "lexicon": "lexicon.tsv",
        "taxonomy": "taxonomy.txt",
        "registry": shard_files,
        "requirements": "requirements.txt",
        "tasks": "tasks.txt",
    }
