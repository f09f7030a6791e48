"""Registry ingestion, index construction, and index persistence."""
from __future__ import annotations

import hashlib
import json
import math

import pytest

from semdisc.annotator import Annotation, SemanticVector
from semdisc.lexicon import Concept, Lexicon
from semdisc.registry import (
    AnnotatedService,
    ServiceIndex,
    ServiceRecord,
    annotation_text,
    build_index,
    ingest_registry,
    load_index,
    save_index,
)
from semdisc.registry import FORMAT_VERSION, _index_payload

from conftest import (
    DATA,
    read_index_payload,
    replace_index_payload,
    rewrite_index_payload,
    write_index_body,
)


class TestServiceRecord:
    def test_rejects_blank_name(self):
        with pytest.raises(ValueError):
            ServiceRecord(name="   ")


class TestAnnotationText:
    def test_description_with_tags_and_categories(self):
        record = ServiceRecord(
            name="X",
            description="Aligns things.",
            tags=("fast",),
            categories=("Sequence Alignment",),
        )
        assert annotation_text(record) == "Aligns things. fast Sequence Alignment"

    def test_blank_description_falls_back_to_documentation(self):
        record = ServiceRecord(name="X", description="  ", documentation="Docs here.")
        assert annotation_text(record).startswith("Docs here.")

    def test_no_text_sources(self):
        record = ServiceRecord(name="X", tags=("t",))
        assert annotation_text(record) == "t"


class TestIngestRegistry:
    def test_misc_fixture(self, caplog):
        with caplog.at_level("WARNING"):
            records = ingest_registry(DATA / "registry_misc.jsonl")
        assert len(records) == 20
        assert "LegacyPing" in caplog.text  # no description or documentation
        by_name = {r.name: r for r in records}
        assert by_name["BlastSearch"].categories == (
            "Sequence Similarity Search",
            "Database Search",
        )
        assert by_name["SignalCheck"].documentation is None
        assert by_name["TreeBuilder"].tags == ()

    def test_field_presence_recount(self):
        # Recount straight from the file, independent of the parser.
        raw = [
            json.loads(line)
            for line in (DATA / "registry_misc.jsonl").read_text().splitlines()
        ]
        records = ingest_registry(DATA / "registry_misc.jsonl")
        assert sum(1 for o in raw if o.get("description")) == sum(
            1 for r in records if r.description
        )
        assert sum(1 for o in raw if o.get("documentation")) == sum(
            1 for r in records if r.documentation
        )

    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "reg.jsonl"
        path.write_text('{"name": "A"}\nnot json\n')
        with pytest.raises(ValueError, match="line 2"):
            ingest_registry(path)

    def test_rejects_non_object_line(self, tmp_path):
        path = tmp_path / "reg.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(ValueError, match="line 1"):
            ingest_registry(path)

    def test_rejects_missing_name(self, tmp_path):
        path = tmp_path / "reg.jsonl"
        path.write_text('{"description": "anonymous"}\n')
        with pytest.raises(ValueError, match="name"):
            ingest_registry(path)

    def test_rejects_wrong_types(self, tmp_path):
        path = tmp_path / "reg.jsonl"
        path.write_text('{"name": "A", "tags": "oops"}\n')
        with pytest.raises(ValueError):
            ingest_registry(path)

    def test_rejects_duplicate_names(self, tmp_path):
        path = tmp_path / "reg.jsonl"
        path.write_text('{"name": "A"}\n{"name": "B"}\n{"name": "A"}\n')
        with pytest.raises(ValueError, match="A"):
            ingest_registry(path)

    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "reg.jsonl"
        path.write_text('{"name": "A", "description": "x"}\n\n')
        assert len(ingest_registry(path)) == 1


class TestBuildIndex:
    def test_demo_postings(self, demo_index):
        names = [s.name for s in demo_index.services]
        assert names == ["ELMdb", "Emboss tmap", "Genesilico", "GlobPlot", "Uniprot"]
        # Every demo service mentions "protein sequences"; only two
        # mention "domains".
        assert demo_index.concept_postings["D9000419"] == frozenset(range(5))
        assert demo_index.concept_postings["C1513868"] == frozenset(
            {names.index("Genesilico"), names.index("GlobPlot")}
        )
        assert demo_index.category_postings["protein sequences analysis db"] == (
            frozenset(names.index(n) for n in ["ELMdb", "Emboss tmap", "Genesilico", "Uniprot"])
        )

    def test_input_order_does_not_matter(self, demo_records, demo_lexicon):
        forward = build_index(demo_records, demo_lexicon)
        backward = build_index(list(reversed(demo_records)), demo_lexicon)
        assert _index_payload(forward) == _index_payload(backward)
        assert forward == backward

    def test_duplicate_names_rejected(self, demo_lexicon):
        records = [ServiceRecord(name="A"), ServiceRecord(name="A")]
        with pytest.raises(ValueError, match="duplicate"):
            build_index(records, demo_lexicon)

    def test_unannotatable_service_keeps_empty_vector(self, mini_lexicon):
        records = [ServiceRecord(name="A", description="nothing relevant")]
        index = build_index(records, mini_lexicon)
        assert not index.services[0].vector
        assert index.concept_postings == {}


@pytest.fixture()
def index_path(demo_index, tmp_path):
    path = tmp_path / "demo.idx"
    save_index(demo_index, path)
    return path


class TestPersistence:
    def test_round_trip_preserves_everything(self, demo_index, index_path):
        loaded = load_index(index_path)
        # Records, weights, provenance, both posting tables, fingerprint.
        assert loaded == demo_index

    def test_save_is_deterministic(self, demo_index, tmp_path):
        first = tmp_path / "a.idx"
        second = tmp_path / "b.idx"
        save_index(demo_index, first)
        save_index(demo_index, second)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize(
        "vector",
        [
            SemanticVector(weights={"C1": 2.0}),
            SemanticVector(
                weights={"C1": 2.0},
                provenance={"C1": Annotation("C1", "x", math.nan, 1, 2.0, frozenset())},
            ),
        ],
        ids=["weights_without_provenance", "non_finite_similarity"],
    )
    def test_vector_the_format_cannot_hold_is_not_saved(self, tmp_path, vector):
        service = AnnotatedService(record=ServiceRecord(name="A"), vector=vector)
        index = ServiceIndex(services=(service,), lexicon_fingerprint="f")
        with pytest.raises(ValueError):
            save_index(index, tmp_path / "a.idx")
        assert not (tmp_path / "a.idx").exists()

    def test_corrupted_payload_detected(self, index_path):
        blob = bytearray(index_path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        index_path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="checksum"):
            load_index(index_path)

    def test_wrong_magic_detected(self, index_path):
        blob = bytearray(index_path.read_bytes())
        blob[:4] = b"NOPE"
        index_path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="magic|not a"):
            load_index(index_path)

    def test_truncated_file_detected(self, index_path):
        blob = index_path.read_bytes()
        index_path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ValueError):
            load_index(index_path)

    def test_unsupported_version_detected(self, index_path):
        # Patch the version field and recompute the trailing digest so
        # the version check is what fires, not the checksum.
        body = bytearray(index_path.read_bytes()[:-32])
        body[4:8] = (99).to_bytes(4, "big")
        index_path.write_bytes(bytes(body) + hashlib.sha256(bytes(body)).digest())
        with pytest.raises(ValueError, match="version"):
            load_index(index_path)

    def test_previous_format_asks_for_rebuild(self, index_path):
        body = bytearray(index_path.read_bytes()[:-32])
        body[4:8] = (FORMAT_VERSION - 1).to_bytes(4, "big")
        write_index_body(index_path, bytes(body))
        with pytest.raises(ValueError) as excinfo:
            load_index(index_path)
        message = str(excinfo.value)
        assert message.startswith(f"{index_path}: index format version 1 ")
        assert "rebuild the index with 'semdisc index build'" in message

    def test_non_ascii_fingerprint_names_file(self, index_path):
        body = bytearray(index_path.read_bytes()[:-32])
        body[10] = 0xFF
        write_index_body(index_path, bytes(body))
        with pytest.raises(ValueError, match="malformed index header") as excinfo:
            load_index(index_path)
        assert str(excinfo.value).startswith(str(index_path))

    def test_bytes_between_payload_and_checksum_detected(self, index_path):
        write_index_body(index_path, index_path.read_bytes()[:-32] + b"\0" * 8)
        with pytest.raises(ValueError, match="malformed index header") as excinfo:
            load_index(index_path)
        assert str(excinfo.value).startswith(str(index_path))


def _edit_service(key: str, value):
    def edit(payload):
        payload["services"][0][key] = value
        return payload

    return edit


def _edit_provenance(key: str, value):
    def edit(payload):
        entry = next(s for s in payload["services"] if s["provenance"])
        next(iter(entry["provenance"].values()))[key] = value
        return payload

    return edit


class TestMalformedPayload:
    """Checksum-valid files whose payload does not match the format."""

    def test_missing_provenance_key(self, index_path):
        def drop_provenance(payload):
            del payload["services"][0]["provenance"]
            return payload

        rewrite_index_payload(index_path, drop_provenance)
        with pytest.raises(ValueError) as excinfo:
            load_index(index_path)
        message = str(excinfo.value)
        assert message.startswith(str(index_path))
        assert "service 0: missing key 'provenance'" in message

    def test_concept_posting_past_service_list(self, index_path, demo_index):
        """Postings are derived from the services, never read from the file."""
        rewrite_index_payload(
            index_path,
            lambda payload: {
                **payload,
                "concept_postings": {"D9000419": [len(demo_index)]},
                "category_postings": {},
            },
        )
        assert load_index(index_path) == demo_index

    @pytest.mark.parametrize(
        "key, detail",
        [("idf_value", "non-finite weight inf"), ("similarity", "similarity inf outside")],
    )
    def test_overflowing_number_rejected(self, index_path, key, detail):
        payload = read_index_payload(index_path)
        start = payload.index(f'"{key}":'.encode()) + len(key) + 3
        end = payload.index(b",", start)
        replace_index_payload(index_path, payload[:start] + b"1e999" + payload[end:])
        with pytest.raises(ValueError, match=detail) as excinfo:
            load_index(index_path)
        assert str(excinfo.value).startswith(str(index_path))

    @pytest.mark.parametrize(
        "edit, detail",
        [
            (lambda payload: [payload], "expected an object"),
            (lambda payload: {**payload, "services": {}}, "'services' has type dict"),
            (_edit_service("name", 7), "'name' has type int"),
            (_edit_service("name", " "), "service name must be non-empty"),
            (_edit_service("description", ["x"]), "'description' has type list"),
            (_edit_service("tags", "protein"), "'tags' has type str"),
            (_edit_service("categories", [1]), "'categories' must be a list of strings"),
            (_edit_provenance("idf_value", "8.0"), "'idf_value' has type str"),
            (_edit_provenance("idf_value", -1.0), "non-positive weight"),
            (_edit_provenance("idf_value", math.nan), "non-finite number NaN"),
            (_edit_provenance("similarity", -math.inf), "non-finite number -Infinity"),
            (_edit_provenance("tf", 10**400), "int too large to convert to float"),
            (_edit_provenance("tf", "1"), "'tf' has type str"),
            (_edit_provenance("similarity", True), "'similarity' has type bool"),
            (_edit_provenance("similarity", 1.5), "similarity 1.5 outside [-1, 1]"),
            (_edit_provenance("matched_words", "tree"), "'matched_words' has type str"),
        ],
    )
    def test_rejected_with_file_name(self, index_path, edit, detail):
        rewrite_index_payload(index_path, edit)
        with pytest.raises(ValueError, match="malformed index payload") as excinfo:
            load_index(index_path)
        assert str(index_path) in str(excinfo.value)
        assert detail in str(excinfo.value)

    def test_unchanged_payload_still_loads(self, index_path, demo_index):
        rewrite_index_payload(index_path, lambda payload: payload)
        assert load_index(index_path) == demo_index


class TestEmptyVectorHandling:
    def test_build_with_synthetic_lexicon(self):
        lex = Lexicon.from_concepts([Concept("C1", frozenset({"alignment"}))])
        records = [
            ServiceRecord(name="Hit", description="alignment provider"),
            ServiceRecord(name="Miss", description="unrelated"),
        ]
        index = build_index(records, lex)
        assert index.concept_postings == {"C1": frozenset({0})}
        assert index.services[0].name == "Hit"
