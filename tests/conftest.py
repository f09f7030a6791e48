"""Shared fixtures and the acceptance summary report.

Every test in test_acceptance.py is echoed at the end of the run as one
``[PASS]``/``[FAIL]`` line, together with any values the test recorded
through the ``record_property`` fixture.
"""
from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path
from typing import Callable

import pytest

from semdisc import build_index, ingest_registry, load_lexicon, load_taxonomy

DATA = Path(__file__).parent / "data"

_ACCEPTANCE: list[tuple[str, str, str]] = []


def write_index_body(path: Path, body: bytes) -> None:
    """Write an index file from its body, appending a matching checksum."""
    path.write_bytes(body + hashlib.sha256(body).digest())


def replace_index_payload(path: Path, blob: bytes) -> None:
    """Replace an index file's payload bytes, keeping its header.

    The payload length and the trailing checksum are recomputed, so the
    file passes the envelope checks and only payload validation can
    reject it.
    """
    raw = path.read_bytes()
    (fp_len,) = struct.unpack_from(">H", raw, 8)
    write_index_body(path, raw[: 10 + fp_len] + struct.pack(">Q", len(blob)) + blob)


def read_index_payload(path: Path) -> bytes:
    """The payload bytes of an index file."""
    raw = path.read_bytes()
    (fp_len,) = struct.unpack_from(">H", raw, 8)
    return raw[18 + fp_len : -32]


def rewrite_index_payload(path: Path, edit: Callable[[object], object]) -> None:
    """Replace an index file's JSON payload with ``edit(payload)``."""
    payload = json.loads(read_index_payload(path))
    blob = json.dumps(edit(payload), sort_keys=True, separators=(",", ":")).encode()
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
