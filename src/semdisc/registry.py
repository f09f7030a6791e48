"""Service registry ingestion and the annotated service index.

Registry dumps are JSON-lines files: one JSON object per line, read by
the shared rules of :func:`semdisc.lexicon.read_rows` except that a
``#`` line is not skipped (it is not JSON), with the fields ``name``,
``description``, ``documentation``, ``tags`` and ``categories``.  Absent
fields stay absent (None), distinct from empty strings.  Ingestion
writes and logs nothing, and keeps a record with no :func:`primary_text`.

An index annotates every service once and keeps the resulting vectors
with two posting tables (concept -> services, category -> services) so
queries never rescan raw text.  On disk the index is ``SDIX`` magic, a
4-byte big-endian format version, a compact JSON payload and the
SHA-256 of everything before it.  Format version 6's payload holds
arrays only, and only what cannot be derived::

    [lexicon_fingerprint, threshold, annotations, services]
    annotation: [concept_id, lexical_form, similarity, tf, idf_value, matched_words]
    service:    [name, description, documentation, tags, categories, references]

Popular concepts annotate many services with the same winning form, so
each distinct annotation is one row of the ``annotations`` table
(dictionary encoding), numbered from 0 in order of first use, and a
service's ``references`` are the numbers of its annotations, ascending
by concept.  Rows are told apart by what is written, so annotations that
compare equal but print differently (a similarity of ``1`` and ``1.0``,
``0.0`` and ``-0.0``) keep rows of their own.  Services are in canonical
(name) order and matched words are sorted.  A vector derives each weight
from its annotation as ``tf * idf_value`` and the index derives its
posting tables from the services, so neither weights nor postings are
stored, and neither can disagree with the annotations.  Files of any
other version, versions 1 to 5 included, are rejected with a message to
rebuild.

:class:`ServiceRecord` and :class:`AnnotatedService`, like
:class:`~semdisc.annotator.Annotation`, are checked tuple types
(``typing.NamedTuple`` subclasses), so a value compares equal to a plain
tuple of its fields.  The constructors of :class:`ServiceRecord`,
:class:`ServiceIndex` and :class:`~semdisc.annotator.Annotation` admit
only values the format holds, so every index the library builds loads
back equal; an index holds each service name once.  The loader hands
each row's items straight to them, building one
:class:`~semdisc.annotator.Annotation` per table row, which every
service referring to the row shares: it is an immutable checked tuple.
Beyond the constructors it checks only that each row is a JSON list of
the right length, that each array it converts to a tuple or frozenset
is a list, and that the references are table row numbers ascending by
concept that leave no row unused.  :func:`ingest_registry` and
:func:`load_index` are :func:`semdisc.lexicon.loader` functions: they
build with cyclic GC paused, and a ValueError names the file.

:class:`ServiceIndex` is a :class:`semdisc.lexicon.Frozen` value; build,
save and load are pure functions of their inputs, so concurrent readers
need no locking.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
from collections import defaultdict
from pathlib import Path
from typing import Iterable, KeysView, Mapping, NamedTuple

from .annotator import DEFAULT_THRESHOLD, Annotation, SemanticVector, annotate, check_threshold
from .lexicon import Checked, Frozen, Lexicon, check_cell, check_text, check_texts, duplicates
from .lexicon import loader, read_rows
from .strsim import normalize_string

MAGIC = b"SDIX"
FORMAT_VERSION = 6


class _ServiceRow(NamedTuple):
    name: str
    description: str | None
    documentation: str | None
    tags: tuple[str, ...]
    categories: tuple[str, ...]


class ServiceRecord(Checked, _ServiceRow):
    """One registry entry as ingested, field presence preserved: a checked
    tuple whose fields hold strings (description and documentation may be
    None) or tuples of strings, all encodable as UTF-8, and whose name is
    one non-empty line without a tab; ValueError names the field otherwise."""

    __slots__ = ()

    def __new__(
        cls,
        name: str,
        description: str | None = None,
        documentation: str | None = None,
        tags: tuple[str, ...] = (),
        categories: tuple[str, ...] = (),
    ) -> ServiceRecord:
        check_text(name, "name")
        if description is not None:
            check_text(description, "description")
        if documentation is not None:
            check_text(documentation, "documentation")
        check_texts(tags, "tags")
        check_texts(categories, "categories")
        if not name.strip():
            raise ValueError("service name must be non-empty")
        # Output prints a name as one field of one row, so it could forge rows.
        check_cell(name, "name")
        return tuple.__new__(cls, (name, description, documentation, tags, categories))


def primary_text(record: ServiceRecord) -> str:
    """The description, or the documentation when the description is None
    or blank, stripped; empty when neither holds text."""
    return (record.description or "").strip() or (record.documentation or "").strip()


def annotation_text(record: ServiceRecord) -> str:
    """Text a service is annotated from: its :func:`primary_text`, then its
    tags and category names.  Empty result means nothing to annotate."""
    parts = [primary_text(record), *record.tags, *record.categories]
    return " ".join(p for p in parts if p).strip()


@loader
def ingest_registry(path: Path) -> list[ServiceRecord]:
    """Parse a JSON-lines registry dump.

    Raises on malformed JSON, wrong field types or strings that cannot be
    encoded as UTF-8 (naming the line) and on duplicate service names
    (naming every duplicate).  Writes and logs nothing.
    """
    records = read_rows(path, _record_from_line, comments=False)
    repeated = duplicates(record.name for record in records)
    if repeated:
        raise ValueError(f"duplicate service names: {', '.join(repeated)}")
    return records


def _record_from_line(line: str) -> ServiceRecord:
    """The record a registry line spells; absent or null lists are empty."""
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integers too long to read.
        raise ValueError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError("record must be an object")
    lists = []
    for key in ("tags", "categories"):
        value = obj.get(key)
        if not isinstance(value, (list, type(None))):
            raise ValueError(f"field {key!r} must be a list of strings")
        lists.append(tuple(value or ()))
    texts = (obj.get(key) for key in ("name", "description", "documentation"))
    return ServiceRecord(*texts, *lists)


class AnnotatedService(NamedTuple):
    """A service record plus its semantic vector."""

    record: ServiceRecord
    vector: SemanticVector

    @property
    def name(self) -> str:
        return self.record.name

    def normalized_categories(self) -> tuple[str, ...]:
        return tuple(normalize_string(c) for c in self.record.categories)


class ServiceIndex(Frozen):
    """Annotated services, each name held once (else ValueError), plus
    posting tables.  :func:`build_index` puts them in canonical (name)
    order; the constructor does not require it.

    :attr:`threshold` is the annotation threshold the services were
    annotated with, in [-1, 1].  :attr:`concept_weights` maps each
    concept id to {position in :attr:`services`: that service's weight},
    each weight the vector's own float object, and :attr:`norms` holds
    each vector's ``norm()`` at the same positions, so ranking neither
    recomputes a norm nor goes through a service for each posting.
    :attr:`concept_postings` maps each concept to its weight mapping's
    key view, so the two cannot disagree, and :attr:`category_postings`
    each normalized category name to a frozenset of positions.  All four
    are derived from the services on construction, never stored in the
    index file, and take no part in ``==``, ``repr``, copies or pickles:
    this :class:`~semdisc.lexicon.Frozen` value's ``_args()`` are its
    services, fingerprint and threshold.  The services of a loaded index
    share :class:`~semdisc.annotator.Annotation` values: services whose
    file rows refer to one annotation row hold the one value built from
    it.
    """

    __slots__ = (
        "services", "lexicon_fingerprint", "threshold",
        "concept_postings", "category_postings", "norms", "concept_weights",
    )
    services: tuple[AnnotatedService, ...]
    lexicon_fingerprint: str
    threshold: float
    concept_postings: Mapping[str, KeysView[int]]
    category_postings: Mapping[str, frozenset[int]]
    norms: tuple[float, ...]
    concept_weights: Mapping[str, Mapping[int, float]]

    def __init__(
        self,
        services: tuple[AnnotatedService, ...],
        lexicon_fingerprint: str,
        threshold: float = DEFAULT_THRESHOLD,
    ) -> None:
        # Only values the file format holds, so every index loads back.
        if not isinstance(services, tuple) or not all(
            isinstance(s, AnnotatedService) for s in services
        ):
            raise ValueError("services must be a tuple of AnnotatedService")
        if not isinstance(lexicon_fingerprint, str):
            raise ValueError("lexicon_fingerprint must be a string")
        check_threshold(threshold)
        concept_weights: defaultdict[str, dict[int, float]] = defaultdict(dict)
        category_postings: defaultdict[str, list[int]] = defaultdict(list)
        norms: list[float] = []
        # Services share a few category names; normalize each name once.
        normalized: dict[str, str] = {}
        for pos, service in enumerate(services):
            if not isinstance(service.record, ServiceRecord) or not isinstance(
                service.vector, SemanticVector
            ):
                raise ValueError(
                    f"service {pos}: record must be a ServiceRecord, vector a SemanticVector"
                )
            norms.append(service.vector.norm())
            for concept, weight in service.vector.weights.items():
                concept_weights[concept][pos] = weight
            for category in service.record.categories:
                if category not in normalized:
                    normalized[category] = normalize_string(category)
                category_postings[normalized[category]].append(pos)
        repeated = duplicates(service.record.name for service in services)
        if repeated:
            raise ValueError(f"duplicate service names: {', '.join(repeated)}")
        for name, value in {
            "services": services,
            "lexicon_fingerprint": lexicon_fingerprint,
            "threshold": threshold,
            "concept_postings": {c: w.keys() for c, w in concept_weights.items()},
            "category_postings": {c: frozenset(p) for c, p in category_postings.items()},
            "norms": tuple(norms),
            "concept_weights": dict(concept_weights),
        }.items():
            object.__setattr__(self, name, value)

    def _args(self) -> tuple:
        return self.services, self.lexicon_fingerprint, self.threshold

    def __repr__(self) -> str:
        return (
            f"ServiceIndex(<{len(self.services)} services>, "
            f"lexicon_fingerprint={self.lexicon_fingerprint!r}, threshold={self.threshold!r})"
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
    result does not depend on input order; repeated names are rejected
    by :class:`ServiceIndex`.  A ``lexicon`` that is not a
    :class:`~semdisc.lexicon.Lexicon` raises ValueError, even with no records.
    """
    if not isinstance(lexicon, Lexicon):
        raise ValueError(f"lexicon {lexicon!r} is not a Lexicon")
    ordered = sorted(records, key=lambda r: r.name)
    services = tuple(
        AnnotatedService(
            record=r, vector=annotate(annotation_text(r), lexicon, threshold=threshold)
        )
        for r in ordered
    )
    return ServiceIndex(
        services=services, lexicon_fingerprint=lexicon.fingerprint, threshold=threshold
    )


def _index_payload(index: ServiceIndex) -> bytes:
    # Records and annotations are tuples of their row's items, in row
    # order; a service's annotations sort by concept id, which is unique
    # in a vector.  Annotation rows are numbered in order of first use, one
    # per distinct written row.  Equal values are written alike but for an
    # int and a float (1 and 1.0) and the two zeros, so the key adds the
    # number types and the sign of the similarity; an idf_value is never
    # zero, since the weight tf * idf_value is positive.
    numbers: dict[tuple, int] = {}
    services = [
        [*service.record, [
            # A new key takes the next number: len is read before the insert.
            numbers.setdefault(
                (a, type(a.similarity), type(a.idf_value), math.copysign(1.0, a.similarity)),
                len(numbers),
            )
            for a in sorted(service.vector.provenance.values())
        ]]
        for service in index.services
    ]
    # A dict keeps its keys in insertion order, so rows are in number order.
    annotations = [[*a[:5], sorted(a.matched_words)] for a, *_ in numbers]
    payload = [index.lexicon_fingerprint, index.threshold, annotations, services]
    # Built just above from fresh lists, so it holds no cycle to look for.
    return json.dumps(
        payload, separators=(",", ":"), allow_nan=False, check_circular=False
    ).encode("utf-8")


def save_index(index: ServiceIndex, path: str | Path) -> None:
    """Write the binary index file; byte-identical for equal indexes.

    The file is replaced atomically, so a failed or interrupted save
    leaves any previous index intact.
    """
    body = MAGIC + FORMAT_VERSION.to_bytes(4, "big") + _index_payload(index)
    _write_atomic(Path(path), body + hashlib.sha256(body).digest())


def _write_atomic(path: Path, data: bytes) -> None:
    """Replace ``path`` with ``data`` in one step: write a temp file in the
    same directory, then rename it over the target.  A failed write leaves
    the previous file as it was and no temp file behind.  The new file
    gets the permissions a plain ``open`` would give it."""
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


@loader
def load_index(path: Path) -> ServiceIndex:
    """Read an index file, verifying magic, checksum, version and payload.

    A file that does not start with the magic ``SDIX``, one under 4 bytes
    included, is "not a service index file"; one that does but is under
    40 bytes, too short for version and checksum, fails the checksum
    check.  A checksum-valid payload that is not JSON, holds a row of the
    wrong length, a reference that is no row number of the annotations
    table, references not ascending by concept, an annotation row no
    service refers to, or a value the index constructors reject raises
    ValueError naming the file.  So does a file of another version, with
    a message to rebuild.
    """
    raw = path.read_bytes()
    if raw[:4] != MAGIC:
        raise ValueError("not a service index file")
    body = raw[:-32]
    if len(raw) < 40 or hashlib.sha256(body).digest() != raw[-32:]:
        raise ValueError("checksum mismatch, file corrupt or truncated")
    version = int.from_bytes(body[4:8], "big")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"index format version {version} is not supported (expected "
            f"{FORMAT_VERSION}); rebuild the index with 'semdisc index build'"
        )
    try:
        fingerprint, threshold, annotations, services = _row(
            json.loads(body[8:].decode("utf-8"), parse_constant=_reject_constant), 4
        )
        table = _annotations(annotations)
        return ServiceIndex(_services(services, table), fingerprint, threshold)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"malformed index payload: {exc}") from exc


def _reject_constant(name: str) -> float:
    raise ValueError(f"non-finite number {name}")


def _row(value: object, length: int | None = None) -> list:
    """``value`` if it is a JSON list of ``length`` items, or of any
    length when ``length`` is None; ValueError otherwise.  The loader
    checks nothing else: the constructors check every value."""
    if type(value) is not list:
        raise ValueError(f"expected a list, got {type(value).__name__}")
    if length is not None and len(value) != length:
        raise ValueError(f"expected a list of {length} items, got {len(value)}")
    return value


def _annotations(rows: object) -> list[Annotation]:
    """The annotations table: one Annotation per row, in row order."""
    table = []
    for pos, row in enumerate(_row(rows)):
        try:
            cid, form, similarity, tf, idf_value, matched = _row(row, 6)
            try:
                words = frozenset(_row(matched))
            except TypeError as exc:  # a JSON list or object among the words
                raise ValueError(str(exc)) from None
            table.append(Annotation(cid, form, similarity, tf, idf_value, words))
        except ValueError as exc:
            raise ValueError(f"annotation {pos}: {exc}") from None
    return table


def _services(rows: object, table: list[Annotation]) -> tuple[AnnotatedService, ...]:
    """The services of the service rows, each holding the table's
    Annotation values it refers to; every table row must be referred to."""
    services = []
    used: set[int] = set()
    for pos, row in enumerate(_row(rows)):
        try:
            name, description, documentation, tags, categories, references = _row(row, 6)
            provenance = _provenance(_row(references), table)
            used.update(references)
            record = ServiceRecord(
                name, description, documentation, tuple(_row(tags)), tuple(_row(categories))
            )
        except ValueError as exc:
            raise ValueError(f"service {pos}: {exc}") from None
        services.append(AnnotatedService(record, SemanticVector(provenance)))
    if len(used) < len(table):
        unused = min(set(range(len(table))) - used)
        raise ValueError(f"annotation {unused}: no service refers to it")
    return tuple(services)


def _provenance(references: list, table: list[Annotation]) -> dict[str, Annotation]:
    """The table rows ``references`` numbers, keyed by concept id; the
    numbers must be ints naming rows whose concepts ascend."""
    provenance: dict[str, Annotation] = {}
    last = None
    for pos, number in enumerate(references):
        # Exact type, so a bool is no number; a negative one is no row.
        if type(number) is not int:
            raise ValueError(f"reference {pos} has type {type(number).__name__}")
        if not 0 <= number < len(table):
            raise ValueError(f"reference {pos}: annotation {number} outside [0, {len(table)})")
        annotation = table[number]
        cid = annotation.concept_id
        if last is not None and cid <= last:
            raise ValueError(
                f"reference {pos}: concept {cid!r} after {last!r}: references must ascend "
                "by concept"
            )
        provenance[cid] = annotation
        last = cid
    return provenance
