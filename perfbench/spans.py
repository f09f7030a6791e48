"""Span recording around calls into semdisc's layers.

The tracer replaces the module globals that callers look up (for
example ``semdisc.ranker.annotate``, which ``discover`` calls, or
``semdisc.cli.load_index``) with wrappers that record one span per call:
name, start, end, parent span and request id.  Spans stay in memory
until the run ends.  Untraced runs never install the wrappers.

Work counters are computed in the wrappers from public data
(``Lexicon.concepts_with_word``, ``ServiceIndex.concept_postings``, ...)
right after the wrapped call returns.  The time that takes is paused on
every open span, so counting adds nothing to any span's duration; and
no call argument or result is kept, so tracing does not grow the heap
that the garbage collector scans.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import Counter
from pathlib import Path

from semdisc.requirements import tasks as outline_tasks
from semdisc.strsim import normalize_string

# (module, global, span name).  A span's layer is the part before the dot.
PATCHES = (
    ("semdisc.lexicon", "load_lexicon", "lexicon.load"),
    ("semdisc.cli", "load_lexicon", "lexicon.load"),
    ("semdisc.taxonomy", "load_taxonomy", "taxonomy.load"),
    ("semdisc.cli", "load_taxonomy", "taxonomy.load"),
    ("semdisc.registry", "ingest_registry", "registry.ingest"),
    ("semdisc.registry", "build_index", "registry.build"),
    ("semdisc.registry", "save_index", "registry.save"),
    ("semdisc.registry", "load_index", "registry.load"),
    ("semdisc.cli", "load_index", "registry.load"),
    ("semdisc.registry", "annotate", "annotator.annotate"),
    ("semdisc.ranker", "annotate", "annotator.annotate"),
    ("semdisc.ranker", "match_categories", "taxonomy.match"),
    ("semdisc.ranker", "rank", "ranker.rank"),
    ("semdisc.ranker", "discover", "ranker.discover"),
    ("semdisc.cli", "discover", "ranker.discover"),
    ("semdisc.cli", "parse_requirements", "requirements.parse"),
    ("semdisc.cli", "main", "cli.main"),
)


def _count_lexicon(c: Counter, args, result) -> None:
    c["lexicon.forms"] = sum(len(concept.lexical_forms) for concept in result.concepts)


def _count_annotate(c: Counter, args, result) -> None:
    text, lexicon = args[0], args[1]
    candidates: set[str] = set()
    for word in set(lexicon.tokenizer(text)):
        candidates |= lexicon.concepts_with_word(word)
    c["annotator.candidate_concepts"] += len(candidates)
    c["annotator.candidate_forms"] += sum(
        len(lexicon.concept(cid).lexical_forms) for cid in candidates
    )
    c["annotator.accepted"] += len(result.weights)


def _count_match(c: Counter, args, result) -> None:
    text, taxonomy = args[0], args[1]
    c["taxonomy.categories_scored"] += len(taxonomy)
    c["strsim.char_pairs"] += len(normalize_string(text)) * sum(
        len(normalize_string(name)) for name in taxonomy.names
    )
    c["taxonomy.matched"] += len(result)


def _count_rank(c: Counter, args, result) -> None:
    vector, matches, index = args[0], args[1], args[2]
    by_concept: set[int] = set()
    for concept in vector.support():
        postings = index.concept_postings.get(concept, frozenset())
        by_concept |= postings
        c["ranker.shared_concepts"] += len(postings)
    by_category: set[int] = set()
    for match in matches:
        by_category |= index.category_postings.get(match.normalized, frozenset())
    c["ranker.concept_candidates"] += len(by_concept)
    c["ranker.category_candidates"] += len(by_category)
    c["ranker.reached"] += len(by_concept | by_category)
    c["ranker.returned"] += len(result)


def _count_build(c: Counter, args, result) -> None:
    c["registry.posting_entries"] += sum(
        len(p) for p in result.concept_postings.values()
    ) + sum(len(p) for p in result.category_postings.values())
    c["registry.empty_vectors"] += sum(1 for s in result.services if not s.vector)


def _count_save(c: Counter, args, result) -> None:
    c["registry.index_bytes"] += Path(args[1]).stat().st_size


def _count_parse(c: Counter, args, result) -> None:
    c["requirements.tasks"] += len(outline_tasks(result))


COUNTERS = {
    "lexicon.load": _count_lexicon,
    "annotator.annotate": _count_annotate,
    "taxonomy.match": _count_match,
    "ranker.rank": _count_rank,
    "registry.build": _count_build,
    "registry.save": _count_save,
    "requirements.parse": _count_parse,
}


class Tracer:
    def __init__(self) -> None:
        # (name, start_ns, end_ns, parent index or -1, request id, paused ns)
        self.spans: list[tuple[str, int, int, int, int, int]] = []
        self.counts: Counter = Counter()
        self.request = 0
        self._stack: list[int] = []
        self._paused: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the ``with`` body (a benchmark request)."""
        index = self._open()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(index, name, start)

    def _open(self) -> int:
        index = len(self.spans)
        self.spans.append(("", 0, 0, -1, 0, 0))
        self._paused.append(0)
        self._stack.append(index)
        return index

    def _close(self, index: int, name: str, start: int) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[index] = (name, start, end, parent, self.request, self._paused[index])

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open()
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index, name, start)
            if count is not None:
                begin = time.perf_counter_ns()
                count(self.counts, args, result)
                spent = time.perf_counter_ns() - begin
                for open_index in self._stack:
                    self._paused[open_index] += spent
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, span_name in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def times(self) -> dict[str, tuple[int, int, int]]:
        """Span name -> (count, total ns, self ns).

        A span's duration leaves out the paused time; its self time is
        that duration minus the durations of its direct children, which
        never overlap (one thread).
        """
        durations = [end - start - paused for _, start, end, _, _, paused in self.spans]
        child_ns = [0] * len(self.spans)
        for i, span in enumerate(self.spans):
            if span[3] >= 0:
                child_ns[span[3]] += durations[i]
        out: dict[str, list[int]] = {}
        for i, span in enumerate(self.spans):
            entry = out.setdefault(span[0], [0, 0, 0])
            entry[0] += 1
            entry[1] += durations[i]
            entry[2] += durations[i] - child_ns[i]
        return {name: tuple(v) for name, v in out.items()}

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, request, paused) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "name": name, "start_ns": start, "end_ns": end,
                    "paused_ns": paused, "parent": parent, "request": request,
                }) + "\n")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the recorded spans and counters.

    Every ``*_ms`` figure is a sum over the run; all but ``cli.main_ms``
    are self time.
    """
    times = tracer.times()
    c = tracer.counts

    def calls(name: str) -> int:
        return times.get(name, (0, 0, 0))[0]

    def self_ms(*names: str) -> float:
        return sum(times.get(n, (0, 0, 0))[2] for n in names) / 1e6

    return {
        "lexicon.load_ms": self_ms("lexicon.load"),
        "lexicon.forms": c["lexicon.forms"],
        "annotator.calls": calls("annotator.annotate"),
        "annotator.self_ms": self_ms("annotator.annotate"),
        "annotator.candidate_concepts": c["annotator.candidate_concepts"],
        "annotator.candidate_forms": c["annotator.candidate_forms"],
        "annotator.accepted": c["annotator.accepted"],
        "annotator.accept_ratio": _ratio(
            c["annotator.accepted"], c["annotator.candidate_concepts"]
        ),
        "taxonomy.calls": calls("taxonomy.match"),
        "taxonomy.self_ms": self_ms("taxonomy.match", "taxonomy.load"),
        "taxonomy.categories_scored": c["taxonomy.categories_scored"],
        "strsim.char_pairs": c["strsim.char_pairs"],
        "taxonomy.match_ratio": _ratio(c["taxonomy.matched"], c["taxonomy.categories_scored"]),
        "ranker.self_ms": self_ms("ranker.discover", "ranker.rank"),
        "ranker.concept_candidates": c["ranker.concept_candidates"],
        "ranker.category_candidates": c["ranker.category_candidates"],
        "ranker.shared_concepts": c["ranker.shared_concepts"],
        "ranker.returned_ratio": _ratio(c["ranker.returned"], c["ranker.reached"]),
        "registry.ingest_ms": self_ms("registry.ingest"),
        "registry.build_ms": self_ms("registry.build"),
        "registry.save_ms": self_ms("registry.save"),
        "registry.load_ms": self_ms("registry.load"),
        "registry.index_bytes": c["registry.index_bytes"],
        "registry.posting_entries": c["registry.posting_entries"],
        "registry.empty_vectors": c["registry.empty_vectors"],
        "requirements.parse_ms": self_ms("requirements.parse"),
        "requirements.tasks": c["requirements.tasks"],
        "cli.main_ms": times.get("cli.main", (0, 0, 0))[1] / 1e6,
        "cli.self_ms": self_ms("cli.main"),
    }


def layer_self_ms(metrics: dict[str, float]) -> dict[str, float]:
    """Self time of each layer, for naming the dominant one."""
    return {
        "lexicon": metrics["lexicon.load_ms"],
        "annotator": metrics["annotator.self_ms"],
        "taxonomy": metrics["taxonomy.self_ms"],
        "ranker": metrics["ranker.self_ms"],
        "registry": sum(
            metrics[f"registry.{k}_ms"] for k in ("ingest", "build", "save", "load")
        ),
        "requirements": metrics["requirements.parse_ms"],
        "cli": metrics["cli.self_ms"],
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
