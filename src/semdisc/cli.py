"""Command-line interface.

Three commands: ``semdisc index build`` turns a lexicon and a registry
dump into an index file; ``semdisc annotate`` shows the semantic vector
(and category matches) for task text; ``semdisc discover`` ranks indexed
services for task text or for every task in a requirements outline,
annotated at the index's threshold.  Every usage rule is checked before
any input file is loaded.

Each setting is one row of ``SETTINGS``: its type, default, valid range
and flag help.  A command reads only the settings it has flags for, each
in precedence order: command-line flag, then ``SEMDISC_*`` environment
variable, then a JSON config file (--config or ``SEMDISC_CONFIG``), then
the default; a value for another command's setting is never read.  One
function reads a value from any of these sources, so a flag is read
exactly like an environment value; a flag given twice is a usage error.
Output is deterministic for identical inputs; table mode prints scores
to 4 decimal places, records mode prints one JSON object per line at
full precision.  The library writes nothing: ``index build`` prints a
warning per registry record with no :func:`~semdisc.registry.primary_text`
and ``discover`` one for an index built from another lexicon.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from .annotator import DEFAULT_THRESHOLD, SemanticVector, annotate
from .lexicon import gc_paused, has_line_break, load_lexicon
from .ranker import (
    DEFAULT_TOP_K,
    DEFAULT_W1,
    DEFAULT_W2,
    RankedResult,
    Weights,
    discover,
)
from .registry import build_index, ingest_registry, load_index, primary_text, save_index
from .requirements import parse_requirements, tasks
from .taxonomy import (
    DEFAULT_MIN_CSCORE,
    DEFAULT_TOP_K_CATEGORIES,
    load_taxonomy,
    match_categories,
)

ENV_PREFIX = "SEMDISC_"


class Setting(NamedTuple):
    """A setting's type (str, float or int), default and flag help, and its
    range: ``valid`` admits what ``expected`` describes."""

    type: type
    default: object
    help: str
    valid: Callable[[object], bool] = lambda value: True
    expected: str = ""


# Ranges are checked before any input is loaded.  NaN compares false, so
# it is in no range.  Weights checks w1 and w2 together.
SETTINGS = {
    "lexicon": Setting(str, None, "lexicon TSV file"),
    "taxonomy": Setting(str, None, "category taxonomy file"),
    "registry": Setting(str, None, "registry dump (JSON lines)"),
    "index": Setting(str, None, "service index file"),
    "requirements": Setting(str, None, "requirements outline file"),
    "w1": Setting(float, DEFAULT_W1, "category score weight"),
    "w2": Setting(float, DEFAULT_W2, "concept score weight"),
    "threshold": Setting(float, DEFAULT_THRESHOLD, "annotation similarity threshold",
                         lambda v: -1 <= v <= 1, "a number in [-1, 1]"),
    "min_cscore": Setting(float, DEFAULT_MIN_CSCORE, "minimum category match score",
                          lambda v: 0 <= v <= 1, "a number in [0, 1]"),
    "top_k": Setting(int, DEFAULT_TOP_K, "maximum ranked services",
                     lambda v: v >= 1, "an integer >= 1"),
    "top_k_categories": Setting(int, DEFAULT_TOP_K_CATEGORIES, "maximum matched categories",
                                lambda v: v >= 1, "an integer >= 1"),
    "format": Setting(str, "table", "output format", lambda v: v in ("table", "records"),
                      "'table' or 'records'"),
}


class CliError(Exception):
    """User-facing failure; carries the process exit code."""

    def __init__(self, message: str, exit_code: int = 1) -> None:
        super().__init__(message)
        self.exit_code = exit_code


def _read_setting(name: str, value: object) -> object:
    """``value`` as setting ``name``: a string from a flag or the
    environment, or any JSON value from a config file."""
    setting = SETTINGS[name]
    try:
        # No setting is a JSON true/false, and a count has no fraction.
        if isinstance(value, bool) or (setting.type is str and not isinstance(value, str)):
            raise TypeError
        if setting.type is int and isinstance(value, float) and not value.is_integer():
            raise ValueError
        converted = setting.type(value)
    except (TypeError, ValueError, OverflowError):
        raise CliError(f"invalid value for {name}: {value!r}", exit_code=2) from None
    if not setting.valid(converted):
        message = f"invalid value for {name}: {converted!r}"
        raise CliError(f"{message} (expected {setting.expected})", exit_code=2)
    return converted


def resolve_settings(args: argparse.Namespace) -> argparse.Namespace:
    """Each setting the command has a flag for, from that flag, its
    environment variable, config file entry or default, whichever comes
    first."""
    config_path = getattr(args, "config", None) or os.environ.get(ENV_PREFIX + "CONFIG")
    file_values: dict = {}
    if config_path:
        path = Path(config_path)
        if not path.is_file():
            raise CliError(f"config file not found: {path}", exit_code=2)
        try:
            file_values = json.loads(path.read_text("utf-8-sig"))
        except UnicodeDecodeError as exc:
            raise CliError(f"config file {path}: not valid UTF-8: {exc}", exit_code=2)
        except (ValueError, RecursionError) as exc:
            # ValueError covers JSONDecodeError and integers too long to read.
            raise CliError(f"config file {path}: invalid JSON: {exc}", exit_code=2)
        if not isinstance(file_values, dict):
            raise CliError(f"config file {path}: expected a JSON object", exit_code=2)
    values = {}
    for name in args.settings:
        given = (getattr(args, name), os.environ.get(ENV_PREFIX + name.upper()),
                 file_values.get(name))
        value = next((v for v in given if v is not None), None)
        values[name] = SETTINGS[name].default if value is None else _read_setting(name, value)
    return argparse.Namespace(**values)


def _required(settings: argparse.Namespace, name: str) -> str:
    value = getattr(settings, name)
    if not value:
        raise CliError(f"missing required setting: --{name.replace('_', '-')}", 2)
    return value


def _load_inputs(settings: argparse.Namespace, *names: str) -> dict:
    """Each named input loaded from its file, in order, once every file
    is known to exist."""
    paths = {}
    for name in names:
        paths[name] = Path(_required(settings, name))
        if not paths[name].is_file():
            raise CliError(f"{name} not found: {paths[name]}", exit_code=2)
    # Looked up per call, so that the module's loaders can be replaced.
    loaders = {
        "lexicon": load_lexicon,
        "taxonomy": load_taxonomy,
        "registry": ingest_registry,
        "index": load_index,
        "requirements": parse_requirements,
    }
    return {name: loaders[name](path) for name, path in paths.items()}


def _task_inputs(settings: argparse.Namespace, text: str | None) -> tuple[str, ...]:
    """The inputs the task source needs: the outline, or none for task
    text.  A usage error unless exactly one source is given, or if the
    task text is not one line that UTF-8 can encode."""
    if text is not None and settings.requirements:
        raise CliError("give either task text or --requirements, not both", 2)
    if text is None and not settings.requirements:
        raise CliError("task text or --requirements required", exit_code=2)
    if text is None:
        return ("requirements",)
    try:
        # Undecodable argv bytes arrive as lone surrogates.
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise CliError("task text cannot be encoded as UTF-8", exit_code=2) from None
    # Output prints the task on one line, so a break could forge rows.
    if has_line_break(text):
        raise CliError("task text must be one line", exit_code=2)
    return ()


def _print_tasks(text: str | None, inputs: dict, fmt: str, lines_for: Callable) -> None:
    """Print ``lines_for(task id, task text)`` for the positional text or each
    outline task: in table format one block per task under its ``# task``
    line, blank-line separated; in records format one JSON object a line."""
    if text is not None:
        pairs = [("query", text)]
    else:
        pairs = [(t.id, t.description) for t in tasks(inputs["requirements"])]
        if not pairs:
            raise CliError("requirements file contains no tasks", exit_code=1)
    blocks: list[str] = []
    for task_id, task_text in pairs:
        lines = lines_for(task_id, task_text)
        if fmt == "table":
            blocks.append("\n".join([f"# task {task_id}: {task_text}", *lines]))
        else:
            blocks.extend(lines)
    if blocks:
        print(("\n\n" if fmt == "table" else "\n").join(blocks))


def cmd_index_build(args: argparse.Namespace, settings: argparse.Namespace) -> int:
    index_path = _required(settings, "index")
    directory = Path(index_path).parent
    if not directory.is_dir():
        raise CliError(f"index directory not found: {directory}", exit_code=2)
    if Path(index_path).is_dir():
        raise CliError(f"index is a directory: {index_path}", exit_code=2)
    inputs = _load_inputs(settings, "lexicon", "registry")
    for record in inputs["registry"]:
        if not primary_text(record):
            print(f"{Path(settings.registry)}: service {record.name!r} has no description "
                  "or documentation", file=sys.stderr)
    index = build_index(inputs["registry"], inputs["lexicon"], threshold=settings.threshold)
    save_index(index, index_path)
    empty = sum(1 for s in index.services if not s.vector)
    print(f"services\t{len(index)}")
    print(f"annotated\t{len(index) - empty}")
    print(f"empty_vectors\t{empty}")
    print(f"lexicon_fingerprint\t{index.lexicon_fingerprint}")
    print(f"index\t{index_path}")
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
    lines = ["concept\tweight\ttf\tidf\tsimilarity\tform"]
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


def cmd_annotate(args: argparse.Namespace, settings: argparse.Namespace) -> int:
    optional = ("taxonomy",) if settings.taxonomy else ()
    inputs = _load_inputs(settings, "lexicon", *optional, *_task_inputs(settings, args.text))
    lexicon, taxonomy = inputs["lexicon"], inputs.get("taxonomy")

    def lines_for(task_id: str, text: str) -> list[str]:
        vector = annotate(text, lexicon, threshold=settings.threshold)
        categories = None
        if taxonomy is not None:
            categories = match_categories(text, taxonomy, min_cscore=settings.min_cscore,
                                          top_k=settings.top_k_categories)
        return _vector_lines(task_id, text, vector, categories, settings.format)

    _print_tasks(args.text, inputs, settings.format, lines_for)
    return 0


def _result_lines(task_id: str, results: list[RankedResult], fmt: str) -> list[str]:
    if fmt == "records":
        return [
            json.dumps(
                {**r._asdict(), "task": task_id, "shared_annotations": sorted(r.shared_annotations)},
                sort_keys=True,
            )
            for r in results
        ]
    lines = ["service\tshared_annotations\tc_score\ts_score\tscore"]
    for r in results:
        lines.append(
            f"{r.service}\t{','.join(sorted(r.shared_annotations))}\t"
            f"{r.c_score:.4f}\t{r.s_score:.4f}\t{r.score:.4f}"
        )
    return lines


def cmd_discover(args: argparse.Namespace, settings: argparse.Namespace) -> int:
    try:
        weights = Weights(settings.w1, settings.w2)
    except ValueError as exc:
        raise CliError(str(exc), exit_code=2)
    task_inputs = _task_inputs(settings, args.text)
    inputs = _load_inputs(settings, "lexicon", "taxonomy", "index", *task_inputs)
    lexicon, index = inputs["lexicon"], inputs["index"]
    if index.lexicon_fingerprint != lexicon.fingerprint:
        print(
            "warning: index was built from a different lexicon "
            "(fingerprint mismatch)",
            file=sys.stderr,
        )

    def lines_for(task_id: str, text: str) -> list[str]:
        results = discover(
            text,
            lexicon,
            inputs["taxonomy"],
            index,
            weights,
            min_cscore=settings.min_cscore,
            top_k=settings.top_k,
            top_k_categories=settings.top_k_categories,
        )
        return _result_lines(task_id, results, settings.format)

    _print_tasks(args.text, inputs, settings.format, lines_for)
    return 0


class _StoreOnce(argparse.Action):
    """Store a flag's value as given; a second occurrence is a usage error."""

    def __call__(self, parser, namespace, values, option_string=None) -> None:
        if getattr(namespace, self.dest) is not None:
            raise argparse.ArgumentError(self, "given more than once")
        setattr(namespace, self.dest, values)


def _add_common_flags(parser: argparse.ArgumentParser, *names: str) -> None:
    """Flags for the settings ``names``, the only ones the command reads."""
    parser.add_argument("--config", action=_StoreOnce, help="JSON config file")
    parser.set_defaults(settings=names)
    for name in names:
        flag = "--" + name.replace("_", "-")
        parser.add_argument(flag, dest=name, action=_StoreOnce, help=SETTINGS[name].help)


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
        # The loaded inputs hold no reference cycles for GC to free.
        with gc_paused():
            return args.handler(args, resolve_settings(args))
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    # Malformed input, output stdout cannot encode (UnicodeEncodeError), failed I/O.
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
