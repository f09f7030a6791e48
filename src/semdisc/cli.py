"""Command-line interface.

Three commands: ``semdisc index build`` turns a lexicon and a registry
dump into an index file; ``semdisc annotate`` shows the semantic vector
(and category matches) for task text; ``semdisc discover`` ranks indexed
services for task text or for every task in a requirements outline.

Settings resolve in precedence order: command-line flags, then
``SEMDISC_*`` environment variables, then a JSON config file (--config
or ``SEMDISC_CONFIG``), then built-in defaults.  Output is deterministic
for identical inputs; table mode prints scores to 4 decimal places,
records mode prints one JSON object per line at full precision.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

from .annotator import DEFAULT_THRESHOLD, SemanticVector, annotate
from .lexicon import Lexicon, load_lexicon
from .ranker import (
    DEFAULT_TOP_K,
    DEFAULT_W1,
    DEFAULT_W2,
    RankedResult,
    Weights,
    discover,
)
from .registry import ServiceIndex, build_index, ingest_registry, load_index, save_index
from .requirements import parse_requirements, tasks
from .taxonomy import (
    DEFAULT_MIN_CSCORE,
    DEFAULT_TOP_K_CATEGORIES,
    CategoryTaxonomy,
    load_taxonomy,
    match_categories,
)

ENV_PREFIX = "SEMDISC_"

_PATH_SETTINGS = ("lexicon", "taxonomy", "registry", "index", "requirements")


@dataclass
class Settings:
    lexicon: str | None = None
    taxonomy: str | None = None
    registry: str | None = None
    index: str | None = None
    requirements: str | None = None
    w1: float = DEFAULT_W1
    w2: float = DEFAULT_W2
    threshold: float = DEFAULT_THRESHOLD
    min_cscore: float = DEFAULT_MIN_CSCORE
    top_k: int = DEFAULT_TOP_K
    top_k_categories: int = DEFAULT_TOP_K_CATEGORIES
    format: str = "table"


class CliError(Exception):
    """User-facing failure; carries the process exit code."""

    def __init__(self, message: str, exit_code: int = 1) -> None:
        super().__init__(message)
        self.exit_code = exit_code


def resolve_settings(args: argparse.Namespace) -> Settings:
    """Merge flags, environment, config file and defaults."""
    settings = Settings()
    config_path = getattr(args, "config", None) or os.environ.get(
        ENV_PREFIX + "CONFIG"
    )
    file_values: dict = {}
    if config_path:
        path = Path(config_path)
        if not path.is_file():
            raise CliError(f"config file not found: {path}", exit_code=2)
        try:
            file_values = json.loads(path.read_text("utf-8"))
        except (json.JSONDecodeError, RecursionError) as exc:
            raise CliError(f"config file {path}: invalid JSON: {exc}", exit_code=2)
        if not isinstance(file_values, dict):
            raise CliError(f"config file {path}: expected a JSON object", exit_code=2)
    for field in fields(Settings):
        name = field.name
        flag_value = getattr(args, name, None)
        env_value = os.environ.get(ENV_PREFIX + name.upper())
        if flag_value is not None:
            value = flag_value
        elif env_value is not None:
            value = env_value
        elif name in file_values and file_values[name] is not None:
            value = file_values[name]
        else:
            continue
        try:
            if name in ("w1", "w2", "threshold", "min_cscore"):
                value = float(value)
            elif name in ("top_k", "top_k_categories"):
                value = int(value)
        except (TypeError, ValueError):
            raise CliError(f"invalid value for {name}: {value!r}", exit_code=2)
        setattr(settings, name, value)
    if settings.format not in ("table", "records"):
        raise CliError(
            f"invalid format {settings.format!r} (expected 'table' or 'records')",
            exit_code=2,
        )
    return settings


def _require_path(settings: Settings, name: str) -> Path:
    value = getattr(settings, name)
    if not value:
        raise CliError(f"missing required setting: --{name.replace('_', '-')}", 2)
    path = Path(value)
    if not path.is_file():
        raise CliError(f"{name} not found: {path}", exit_code=2)
    return path


def _load_inputs(settings: Settings, *names: str):
    loaders = {
        "lexicon": load_lexicon,
        "taxonomy": load_taxonomy,
        "registry": ingest_registry,
        "index": load_index,
        "requirements": parse_requirements,
    }
    out = []
    for name in names:
        path = _require_path(settings, name)
        try:
            out.append(loaders[name](path))
        except ValueError as exc:
            raise CliError(str(exc), exit_code=1)
    return out


def _task_list(settings: Settings, text: str | None) -> list[tuple[str, str]]:
    """(task id, task text) pairs from the positional text or the outline."""
    if text is not None and settings.requirements:
        raise CliError("give either task text or --requirements, not both", 2)
    if text is not None:
        return [("query", text)]
    if settings.requirements:
        (model,) = _load_inputs(settings, "requirements")
        pairs = [(t.id, t.description) for t in tasks(model)]
        if not pairs:
            raise CliError("requirements file contains no tasks", exit_code=1)
        return pairs
    raise CliError("task text or --requirements required", exit_code=2)


def _weights(settings: Settings) -> Weights:
    try:
        return Weights(settings.w1, settings.w2)
    except ValueError as exc:
        raise CliError(str(exc), exit_code=2)


def cmd_index_build(args: argparse.Namespace) -> int:
    settings = resolve_settings(args)
    lexicon, records = _load_inputs(settings, "lexicon", "registry")
    if not settings.index:
        raise CliError("missing required setting: --index", exit_code=2)
    index = build_index(records, lexicon, threshold=settings.threshold)
    save_index(index, settings.index)
    empty = sum(1 for s in index.services if not s.vector)
    print(f"services\t{len(index)}")
    print(f"annotated\t{len(index) - empty}")
    print(f"empty_vectors\t{empty}")
    print(f"lexicon_fingerprint\t{index.lexicon_fingerprint}")
    print(f"index\t{settings.index}")
    return 0


def _vector_lines(
    task_id: str,
    text: str,
    vector: SemanticVector,
    categories,
    fmt: str,
) -> list[str]:
    if fmt == "records":
        record = {
            "task": task_id,
            "text": text,
            "vector": {c: vector.weights[c] for c in sorted(vector.weights)},
            "provenance": {
                c: {
                    "form": a.lexical_form,
                    "similarity": a.similarity,
                    "tf": a.tf,
                    "idf": a.idf_value,
                    "matched_words": sorted(a.matched_words),
                }
                for c, a in sorted(vector.provenance.items())
            },
            "categories": [
                {"category": m.category, "c_score": m.c_score}
                for m in (categories or [])
            ],
        }
        return [json.dumps(record, sort_keys=True)]
    lines = [f"# task {task_id}: {text}"]
    lines.append("concept\tweight\ttf\tidf\tsimilarity\tform")
    order = sorted(vector.weights, key=lambda c: (-vector.weights[c], c))
    for cid in order:
        entry = vector.provenance[cid]
        lines.append(
            f"{cid}\t{vector.weights[cid]:.4f}\t{entry.tf}\t"
            f"{entry.idf_value:.4f}\t{entry.similarity:.4f}\t{entry.lexical_form}"
        )
    if categories is not None:
        lines.append("category\tc_score")
        for match in categories:
            lines.append(f"{match.category}\t{match.c_score:.4f}")
    return lines


def cmd_annotate(args: argparse.Namespace) -> int:
    settings = resolve_settings(args)
    (lexicon,) = _load_inputs(settings, "lexicon")
    taxonomy: CategoryTaxonomy | None = None
    if settings.taxonomy:
        (taxonomy,) = _load_inputs(settings, "taxonomy")
    blocks: list[str] = []
    for task_id, text in _task_list(settings, args.text):
        vector = annotate(text, lexicon, threshold=settings.threshold)
        categories = None
        if taxonomy is not None:
            categories = match_categories(
                text,
                taxonomy,
                min_cscore=settings.min_cscore,
                top_k=settings.top_k_categories,
            )
        blocks.append(
            "\n".join(
                _vector_lines(task_id, text, vector, categories, settings.format)
            )
        )
    separator = "\n\n" if settings.format == "table" else "\n"
    print(separator.join(blocks))
    return 0


def _result_lines(task_id: str, results: list[RankedResult], fmt: str) -> list[str]:
    if fmt == "records":
        return [
            json.dumps(
                {
                    "task": task_id,
                    "service": r.service,
                    "shared_annotations": sorted(r.shared_annotations),
                    "c_score": r.c_score,
                    "s_score": r.s_score,
                    "score": r.score,
                },
                sort_keys=True,
            )
            for r in results
        ]
    lines = [f"service\tshared_annotations\tc_score\ts_score\tscore"]
    for r in results:
        lines.append(
            f"{r.service}\t{','.join(sorted(r.shared_annotations))}\t"
            f"{r.c_score:.4f}\t{r.s_score:.4f}\t{r.score:.4f}"
        )
    return lines


def cmd_discover(args: argparse.Namespace) -> int:
    settings = resolve_settings(args)
    lexicon, taxonomy, index = _load_inputs(settings, "lexicon", "taxonomy", "index")
    if index.lexicon_fingerprint != lexicon.fingerprint:
        print(
            "warning: index was built from a different lexicon "
            "(fingerprint mismatch)",
            file=sys.stderr,
        )
    weights = _weights(settings)
    blocks: list[str] = []
    for task_id, text in _task_list(settings, args.text):
        results = discover(
            text,
            lexicon,
            taxonomy,
            index,
            weights,
            threshold=settings.threshold,
            min_cscore=settings.min_cscore,
            top_k=settings.top_k,
            top_k_categories=settings.top_k_categories,
        )
        lines = _result_lines(task_id, results, settings.format)
        if settings.format == "table":
            lines.insert(0, f"# task {task_id}: {text}")
        blocks.append("\n".join(lines))
    separator = "\n\n" if settings.format == "table" else "\n"
    print(separator.join(blocks))
    return 0


def _add_common_flags(parser: argparse.ArgumentParser, *names: str) -> None:
    flags = {
        "lexicon": dict(help="lexicon TSV file"),
        "taxonomy": dict(help="category taxonomy file"),
        "registry": dict(help="registry dump (JSON lines)"),
        "index": dict(help="service index file"),
        "requirements": dict(help="requirements outline file"),
        "w1": dict(type=float, help="category score weight"),
        "w2": dict(type=float, help="concept score weight"),
        "threshold": dict(type=float, help="annotation similarity threshold"),
        "min_cscore": dict(type=float, help="minimum category match score"),
        "top_k": dict(type=int, help="maximum ranked services"),
        "top_k_categories": dict(type=int, help="maximum matched categories"),
        "format": dict(choices=["table", "records"], help="output format"),
    }
    parser.add_argument("--config", help="JSON config file")
    for name in names:
        kwargs = dict(flags[name])
        parser.add_argument(
            "--" + name.replace("_", "-"), dest=name, default=None, **kwargs
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semdisc",
        description="Rank annotated web services against task requirements.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    index_parser = commands.add_parser("index", help="index maintenance")
    index_commands = index_parser.add_subparsers(dest="subcommand", required=True)
    build = index_commands.add_parser("build", help="annotate a registry dump")
    _add_common_flags(build, "lexicon", "registry", "index", "threshold")
    build.set_defaults(handler=cmd_index_build)

    annotate_parser = commands.add_parser("annotate", help="annotate task text")
    annotate_parser.add_argument("text", nargs="?", help="task text")
    _add_common_flags(
        annotate_parser,
        "lexicon",
        "taxonomy",
        "requirements",
        "threshold",
        "min_cscore",
        "top_k_categories",
        "format",
    )
    annotate_parser.set_defaults(handler=cmd_annotate)

    discover_parser = commands.add_parser("discover", help="rank services for a task")
    discover_parser.add_argument("text", nargs="?", help="task text")
    _add_common_flags(
        discover_parser,
        "lexicon",
        "taxonomy",
        "index",
        "requirements",
        "w1",
        "w2",
        "threshold",
        "min_cscore",
        "top_k",
        "top_k_categories",
        "format",
    )
    discover_parser.set_defaults(handler=cmd_discover)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
