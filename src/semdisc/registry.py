"""Service registry ingestion and the annotated service index.

Registry dumps are JSON-lines files: one JSON object per line with the
fields ``name``, ``description``, ``documentation``, ``tags`` and
``categories``.  Absent fields stay absent (None) and are distinguished
from empty strings.

An index annotates every service once and keeps the resulting vectors
with two posting tables (concept -> services, category -> services) so
queries never rescan raw text.  On disk the index is a small binary
envelope: ``SDIX`` magic, format version, the fingerprint of the lexicon
it was built from, a JSON payload in canonical service order, and a
trailing SHA-256 checksum.  Format version 2 stores only what cannot be
derived: each service's record fields and the provenance of its vector
entries.  Loading rebuilds every weight as ``tf * idf_value`` and the
index derives its posting tables from the services, so stored postings
can never disagree with the vectors.  Files of any other version are
rejected with a message to rebuild the index.

Index instances are immutable after construction; build, save and load
are pure functions of their inputs, so concurrent readers need no
locking.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import logging
import operator
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from .annotator import DEFAULT_THRESHOLD, Annotation, SemanticVector, annotate
from .lexicon import Lexicon
from .strsim import normalize_string

log = logging.getLogger(__name__)

MAGIC = b"SDIX"
FORMAT_VERSION = 2


@dataclass(frozen=True)
class ServiceRecord:
    """One registry entry as ingested, field presence preserved."""

    name: str
    description: str | None = None
    documentation: str | None = None
    tags: tuple[str, ...] = ()
    categories: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name or not self.name.strip():
            raise ValueError("service name must be non-empty")


def annotation_text(record: ServiceRecord) -> str:
    """Text a service is annotated from.

    The description when available, otherwise the documentation, followed
    by the tags and the category names.  A present-but-blank description
    counts as unavailable.  Empty result means nothing to annotate.
    """
    primary = (record.description or "").strip()
    if not primary:
        primary = (record.documentation or "").strip()
    parts = [primary, *record.tags, *record.categories]
    return " ".join(p for p in parts if p).strip()


def ingest_registry(path: str | Path) -> list[ServiceRecord]:
    """Parse a JSON-lines registry dump.

    Raises on malformed JSON or wrong field types (naming the line) and
    on duplicate service names (naming every duplicate).  Records missing
    both description and documentation are accepted but logged.
    """
    path = Path(path)
    records: list[ServiceRecord] = []
    for lineno, line in enumerate(path.read_text("utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ValueError(f"{path}: line {lineno}: invalid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise ValueError(f"{path}: line {lineno}: record must be an object")
        try:
            record = _record_from_object(obj)
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from exc
        if record.description is None and record.documentation is None:
            log.warning(
                "%s: line %d: service %r has no description or documentation",
                path, lineno, record.name,
            )
        records.append(record)
    duplicates = _duplicate_names(records)
    if duplicates:
        raise ValueError(f"{path}: duplicate service names: {', '.join(duplicates)}")
    return records


def _record_from_object(obj: dict) -> ServiceRecord:
    name = obj.get("name")
    if not isinstance(name, str):
        raise ValueError("field 'name' must be a string")
    for key in ("description", "documentation"):
        if key in obj and obj[key] is not None and not isinstance(obj[key], str):
            raise ValueError(f"field {key!r} must be a string")
    lists: dict[str, tuple[str, ...]] = {}
    for key in ("tags", "categories"):
        value = obj.get(key, [])
        if value is None:
            value = []
        if not isinstance(value, list) or any(not isinstance(v, str) for v in value):
            raise ValueError(f"field {key!r} must be a list of strings")
        lists[key] = tuple(value)
    return ServiceRecord(
        name=name,
        description=obj.get("description"),
        documentation=obj.get("documentation"),
        tags=lists["tags"],
        categories=lists["categories"],
    )


def _duplicate_names(records: Iterable[ServiceRecord]) -> list[str]:
    seen: set[str] = set()
    duplicates: list[str] = []
    for record in records:
        if record.name in seen and record.name not in duplicates:
            duplicates.append(record.name)
        seen.add(record.name)
    return duplicates


@dataclass(frozen=True)
class AnnotatedService:
    """A service record plus its semantic vector."""

    record: ServiceRecord
    vector: SemanticVector

    @property
    def name(self) -> str:
        return self.record.name

    def normalized_categories(self) -> tuple[str, ...]:
        return tuple(normalize_string(c) for c in self.record.categories)


@dataclass(frozen=True)
class ServiceIndex:
    """Annotated services in canonical (name) order plus posting tables.

    Postings map concept ids and normalized category names to positions
    in :attr:`services`; they are derived from the services on
    construction.
    """

    services: tuple[AnnotatedService, ...]
    lexicon_fingerprint: str
    concept_postings: Mapping[str, frozenset[int]] = field(init=False)
    category_postings: Mapping[str, frozenset[int]] = field(init=False)

    def __post_init__(self) -> None:
        concept_postings: dict[str, set[int]] = {}
        category_postings: dict[str, set[int]] = {}
        # Services share a few category names; normalize each name once.
        normalized: dict[str, str] = {}
        for pos, service in enumerate(self.services):
            for concept in service.vector.weights:
                concept_postings.setdefault(concept, set()).add(pos)
            for category in service.record.categories:
                if category not in normalized:
                    normalized[category] = normalize_string(category)
                category_postings.setdefault(normalized[category], set()).add(pos)
        object.__setattr__(
            self,
            "concept_postings",
            {c: frozenset(p) for c, p in concept_postings.items()},
        )
        object.__setattr__(
            self,
            "category_postings",
            {c: frozenset(p) for c, p in category_postings.items()},
        )

    def __len__(self) -> int:
        return len(self.services)


def build_index(
    records: Iterable[ServiceRecord],
    lexicon: Lexicon,
    *,
    threshold: float = DEFAULT_THRESHOLD,
) -> ServiceIndex:
    """Annotate every record into an index.

    Records are sorted by name before positions are assigned, so the
    result does not depend on input order.
    """
    ordered = sorted(records, key=lambda r: r.name)
    duplicates = _duplicate_names(ordered)
    if duplicates:
        raise ValueError(f"duplicate service names: {', '.join(duplicates)}")
    services = tuple(
        AnnotatedService(
            record=r, vector=annotate(annotation_text(r), lexicon, threshold=threshold)
        )
        for r in ordered
    )
    return ServiceIndex(services=services, lexicon_fingerprint=lexicon.fingerprint)


def _index_payload(index: ServiceIndex) -> bytes:
    services = []
    for service in index.services:
        record = service.record
        vector = service.vector
        if vector.weights != {c: a.weight for c, a in vector.provenance.items()}:
            raise ValueError(
                f"service {record.name!r}: weights are not tf * idf_value of "
                "its provenance, so the index cannot store them"
            )
        services.append(
            {
                "name": record.name,
                "description": record.description,
                "documentation": record.documentation,
                "tags": list(record.tags),
                "categories": list(record.categories),
                "provenance": {
                    c: {
                        "lexical_form": a.lexical_form,
                        "similarity": a.similarity,
                        "tf": a.tf,
                        "idf_value": a.idf_value,
                        "matched_words": sorted(a.matched_words),
                    }
                    for c, a in sorted(vector.provenance.items())
                },
            }
        )
    return json.dumps(
        {"services": services}, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")


def save_index(index: ServiceIndex, path: str | Path) -> None:
    """Write the binary index file; byte-identical for equal indexes.

    Raises ValueError when a vector's weights are not ``tf * idf_value``
    of its provenance or a number is not finite, since loading could not
    reproduce them.
    """
    payload = _index_payload(index)
    fingerprint = index.lexicon_fingerprint.encode("ascii")
    body = (
        MAGIC
        + struct.pack(">I", FORMAT_VERSION)
        + struct.pack(">H", len(fingerprint))
        + fingerprint
        + struct.pack(">Q", len(payload))
        + payload
    )
    Path(path).write_bytes(body + hashlib.sha256(body).digest())


def load_index(path: str | Path) -> ServiceIndex:
    """Read an index file, verifying magic, version, checksum and payload.

    A checksum-valid file with a malformed header, a payload length that
    does not end at the checksum, or a payload with missing or mis-typed
    keys or non-finite numbers raises ValueError naming the file.  So
    does a file of another format version, with a message to rebuild it.
    """
    path = Path(path)
    raw = path.read_bytes()
    if raw[:4] != MAGIC:
        raise ValueError(f"{path}: not a service index file")
    body = raw[:-32]
    if len(raw) < 32 or hashlib.sha256(body).digest() != raw[-32:]:
        raise ValueError(f"{path}: checksum mismatch, file corrupt or truncated")
    try:
        version, fp_len = struct.unpack_from(">IH", body, 4)
        fingerprint = body[10 : 10 + fp_len].decode("ascii")
        (payload_len,) = struct.unpack_from(">Q", body, 10 + fp_len)
    except (struct.error, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: malformed index header: {exc}") from exc
    if version != FORMAT_VERSION:
        raise ValueError(
            f"{path}: index format version {version} is not supported (expected "
            f"{FORMAT_VERSION}); rebuild the index with 'semdisc index build'"
        )
    payload = body[18 + fp_len :]
    if len(payload) != payload_len:
        raise ValueError(
            f"{path}: malformed index header: payload length {payload_len}, "
            f"but {len(payload)} bytes precede the checksum"
        )
    try:
        (entries,) = _PAYLOAD.values(
            json.loads(payload.decode("utf-8"), parse_constant=_reject_constant)
        )
        services = tuple(_services(entries))
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: malformed index payload: {exc}") from exc
    return ServiceIndex(services=services, lexicon_fingerprint=fingerprint)


def _reject_constant(name: str) -> float:
    raise ValueError(f"non-finite number {name}")


class _Shape:
    """Required keys of a JSON object and the exact types each may hold.

    Exact types, so a JSON true/false (a bool) is no number.  The check
    runs once per object of a large payload, so its fast path is one
    lookup of the object's tuple of value types.
    """

    def __init__(self, **kinds: tuple[type, ...]) -> None:
        self._kinds = kinds
        get = operator.itemgetter(*kinds)
        # itemgetter of a single key returns the bare value, not a 1-tuple.
        self._get = get if len(kinds) > 1 else lambda obj: (get(obj),)
        self._allowed = frozenset(itertools.product(*kinds.values()))

    def values(self, obj: object) -> tuple:
        """The values of the keys, in declaration order; ValueError if not valid."""
        try:
            values = self._get(obj)
            if tuple(map(type, values)) in self._allowed:
                return values
        except (KeyError, TypeError):
            pass
        if type(obj) is not dict:
            raise ValueError("expected an object")
        for key, kinds in self._kinds.items():
            if key not in obj:
                raise ValueError(f"missing key {key!r}")
            if type(obj[key]) not in kinds:
                raise ValueError(f"key {key!r} has type {type(obj[key]).__name__}")
        raise AssertionError("unreachable")


_NUMBER = (int, float)
_OPTIONAL_STR = (str, type(None))
# Element types of JSON lists, checked with issuperset(map(type, ...)).
_STRS = frozenset({str})
_PAYLOAD = _Shape(services=(list,))
_SERVICE = _Shape(
    name=(str,),
    description=_OPTIONAL_STR,
    documentation=_OPTIONAL_STR,
    tags=(list,),
    categories=(list,),
    provenance=(dict,),
)
_ANNOTATION = _Shape(
    lexical_form=(str,),
    similarity=_NUMBER,
    tf=(int,),
    idf_value=_NUMBER,
    matched_words=(list,),
)


def _services(entries: list) -> Iterator[AnnotatedService]:
    for pos, entry in enumerate(entries):
        try:
            yield _service(entry)
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"service {pos}: {exc}") from None


def _service(entry: object) -> AnnotatedService:
    name, description, documentation, tags, categories, provenance = _SERVICE.values(
        entry
    )
    if not _STRS.issuperset(map(type, tags)):
        raise ValueError("key 'tags' must be a list of strings")
    if not _STRS.issuperset(map(type, categories)):
        raise ValueError("key 'categories' must be a list of strings")
    weights = {}
    annotations = {}
    for cid, p in provenance.items():
        try:
            form, similarity, tf, idf_value, matched = _ANNOTATION.values(p)
            if not _STRS.issuperset(map(type, matched)):
                raise ValueError("key 'matched_words' must be a list of strings")
            if not -1.0 <= similarity <= 1.0:
                raise ValueError(f"similarity {similarity} outside [-1, 1]")
        except ValueError as exc:
            raise ValueError(f"provenance {cid!r}: {exc}") from None
        annotation = Annotation(
            concept_id=cid,
            lexical_form=form,
            similarity=similarity,
            tf=tf,
            idf_value=idf_value,
            matched_words=frozenset(matched),
        )
        annotations[cid] = annotation
        weights[cid] = annotation.weight
    return AnnotatedService(
        record=ServiceRecord(
            name=name,
            description=description,
            documentation=documentation,
            tags=tuple(tags),
            categories=tuple(categories),
        ),
        vector=SemanticVector(weights=weights, provenance=annotations),
    )
