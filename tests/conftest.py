"""Shared fixtures and the acceptance summary report.

Every test in test_acceptance.py is echoed at the end of the run as one
``[PASS]``/``[FAIL]`` line, together with any values the test recorded
through the ``record_property`` fixture.

``HYPOTHESIS_PROFILE=ci`` loads a profile that draws the same examples on
every run and interpreter and prints a reproduction blob on failure, so a
failure on one CI leg alone points at the interpreter, not at the draw.
"""
from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Callable, Mapping

import pytest
from hypothesis import settings

from semdisc import (
    Annotation,
    SemanticVector,
    build_index,
    ingest_registry,
    load_lexicon,
    load_taxonomy,
)

DATA = Path(__file__).parent / "data"

settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")

_ACCEPTANCE: list[tuple[str, str, str]] = []


def vector_of(weights: Mapping[str, float]) -> SemanticVector:
    """A vector with exactly these weights: each concept's annotation has
    tf 1 and the weight as its idf_value."""
    return SemanticVector(
        {c: Annotation(c, c, 1.0, 1, w, frozenset()) for c, w in weights.items()}
    )


def write_index_body(path: Path, body: bytes) -> None:
    """Write an index file from its body, appending a matching checksum."""
    path.write_bytes(body + hashlib.sha256(body).digest())


def replace_index_payload(path: Path, blob: bytes) -> None:
    """Replace an index file's payload bytes, keeping magic and version.

    The trailing checksum is recomputed, so the file passes the envelope
    checks and only payload validation can reject it.
    """
    write_index_body(path, path.read_bytes()[:8] + blob)


def read_index_payload(path: Path) -> bytes:
    """The payload bytes of an index file."""
    return path.read_bytes()[8:-32]


def rewrite_index_payload(path: Path, edit: Callable[[object], object]) -> None:
    """Replace an index file's JSON payload with ``edit(payload)``."""
    payload = json.loads(read_index_payload(path))
    blob = json.dumps(edit(payload), separators=(",", ":")).encode()
    replace_index_payload(path, blob)


@pytest.fixture(scope="session")
def demo_lexicon():
    return load_lexicon(DATA / "lexicon.tsv")


@pytest.fixture(scope="session")
def demo_taxonomy():
    return load_taxonomy(DATA / "taxonomy.txt")


@pytest.fixture(scope="session")
def demo_records():
    return ingest_registry(DATA / "services.jsonl")


@pytest.fixture(scope="session")
def demo_index(demo_records, demo_lexicon):
    return build_index(demo_records, demo_lexicon)


@pytest.fixture(scope="session")
def mini_lexicon():
    return load_lexicon(DATA / "mini_lexicon.tsv")


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    if report.passed:
        status = "PASS"
    elif report.skipped:
        status = "SKIP"
    else:
        status = "FAIL"
    notes = "; ".join(f"{key}={value}" for key, value in report.user_properties)
    _ACCEPTANCE.append((report.nodeid.split("::")[-1], status, notes))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for name, status, notes in _ACCEPTANCE:
        line = f"[{status}] {name}"
        if notes:
            line += f"  ({notes})"
        terminalreporter.write_line(line)
