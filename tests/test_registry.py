"""Registry ingestion, index construction, and index persistence."""
from __future__ import annotations

import contextlib
import copy
import errno
import hashlib
import io
import json
import math
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semdisc import cli, registry
from semdisc.annotator import DEFAULT_THRESHOLD, Annotation, SemanticVector
from semdisc.lexicon import Concept, Lexicon
from semdisc.ranker import Weights
from semdisc.registry import (
    AnnotatedService,
    ServiceIndex,
    ServiceRecord,
    annotation_text,
    build_index,
    ingest_registry,
    load_index,
    primary_text,
    save_index,
)
from semdisc.registry import FORMAT_VERSION, MAGIC, _index_payload
from semdisc.requirements import (
    Goal,
    RequirementsModel,
    Subgoal,
    TaskRequirement,
    parse_requirements,
    tasks,
)

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

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"name": 7}, "field 'name' must be a string"),
            ({"name": None}, "field 'name' must be a string"),
            ({"description": b"protein"}, "field 'description' must be a string"),
            ({"documentation": 1.0}, "field 'documentation' must be a string"),
            # A string is no tuple: it would be annotated letter by letter.
            ({"tags": "domains"}, "field 'tags' must be a tuple of strings"),
            ({"tags": ["domains"]}, "field 'tags' must be a tuple of strings"),
            ({"categories": ("Cat A", 1)}, "field 'categories' must be a tuple of strings"),
            # Output prints a name as one field of one tab-separated row.
            *(
                ({"name": f"Glob{char}Plot"}, "field 'name' must be one line without a tab")
                for char in ("\t", "\n", "\r", "\u2028")
            ),
        ],
    )
    def test_rejects_wrong_field_types(self, fields, message):
        with pytest.raises(ValueError) as excinfo:
            ServiceRecord(**{"name": "A", "description": "protein sequences", **fields})
        assert str(excinfo.value) == message


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

    @pytest.mark.parametrize(
        "description, documentation, primary",
        [
            (None, None, ""),
            ("  ", None, ""),
            (None, "", ""),
            (" \t", "\n", ""),
            ("", " Docs. ", "Docs."),
            (" Text. ", "Docs.", "Text."),
        ],
    )
    def test_primary_text_leads_the_annotation_text(self, description, documentation, primary):
        """The one rule for "no text": a blank field counts as absent, for
        annotation and for the warning ``index build`` prints."""
        record = ServiceRecord("X", description, documentation, ("t",))
        assert primary_text(record) == primary
        assert annotation_text(record) == " ".join(filter(None, [primary, "t"]))


# Text UTF-8 can encode.
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)


def _admitted_name(name: str) -> bool:
    try:
        ServiceRecord(name)
    except ValueError:
        return False
    return True


_ADMITTED_RECORD = st.builds(
    ServiceRecord,
    _TEXT.filter(_admitted_name),
    st.none() | _TEXT,
    st.none() | _TEXT,
    st.lists(_TEXT, max_size=3).map(tuple),
    st.lists(_TEXT, max_size=3).map(tuple),
)


class TestIngestRegistry:
    def test_misc_fixture(self, caplog, capsys):
        with caplog.at_level("DEBUG"):
            records = ingest_registry(DATA / "registry_misc.jsonl")
        # LegacyPing has no description or documentation: it is kept, and
        # reported by nothing but its fields.
        assert caplog.records == []
        assert capsys.readouterr() == ("", "")
        assert len(records) == 20
        by_name = {r.name: r for r in records}
        legacy = by_name["LegacyPing"]
        assert (legacy.description, legacy.documentation, primary_text(legacy)) == (None, None, "")
        assert by_name["BlastSearch"].categories == (
            "Sequence Similarity Search",
            "Database Search",
        )
        assert by_name["SignalCheck"].documentation is None
        assert by_name["TreeBuilder"].tags == ()

    def test_missing_text_neither_logged_nor_printed(self, tmp_path, caplog, capsys):
        path = tmp_path / "reg.jsonl"
        path.write_text(
            '{"name": "A"}\n{"name": "B", "description": "x"}\n'
            '{"name": "C", "description": "  "}\n{"name": "D", "documentation": ""}\n'
        )
        with caplog.at_level("DEBUG"):
            records = ingest_registry(str(path))
        assert [primary_text(r) for r in records] == ["", "x", "", ""]
        path.write_text('{"name": "A"}\n{"name": "A"}\n')
        with caplog.at_level("DEBUG"), pytest.raises(ValueError, match="duplicate"):
            ingest_registry(path)
        assert caplog.records == []
        assert capsys.readouterr() == ("", "")

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

    def test_duplicate_names_in_first_occurrence_order(self, tmp_path):
        path = tmp_path / "reg.jsonl"
        path.write_text('{"name": "A"}\n{"name": "B"}\n{"name": "B"}\n{"name": "A"}\n')
        with pytest.raises(ValueError, match="duplicate service names: A, B$"):
            ingest_registry(path)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_ADMITTED_RECORD, max_size=4, unique_by=lambda r: r.name), st.data())
    def test_admitted_records_load_back_equal(self, tmp_path_factory, records, data):
        """Each record written as one ``json.dumps`` line, ASCII-escaped or
        not, its keys in any order, a None field written as null or left
        out and an empty list written as [] or null or left out."""
        lines = []
        for record in records:
            obj = {}
            for key, value in record._asdict().items():
                if value is None or value == ():
                    spellings = ["absent", None, *([[]] if value == () else [])]
                    value = data.draw(st.sampled_from(spellings))
                    if value == "absent":
                        continue
                obj[key] = list(value) if isinstance(value, tuple) else value
            keys = data.draw(st.permutations(list(obj)))
            ascii_only = data.draw(st.booleans())
            lines.append(json.dumps({k: obj[k] for k in keys}, ensure_ascii=ascii_only))
        path = tmp_path_factory.getbasetemp() / "drawn.jsonl"
        path.write_bytes("".join(line + "\n" for line in lines).encode("utf-8"))
        assert ingest_registry(path) == records

    def test_rejects_integer_too_long_to_read(self, tmp_path):
        path = tmp_path / "reg.jsonl"
        path.write_text('{"name": "A"}\n{"name": "B", "x": ' + "9" * 5000 + "}\n")
        with pytest.raises(ValueError) as info:
            ingest_registry(path)
        assert str(info.value).startswith(f"{path}: line 2: invalid JSON: ")

    def test_comment_line_is_invalid_json(self, tmp_path):
        # Only blank lines are skipped: a '#' line is a record, and no JSON.
        path = tmp_path / "reg.jsonl"
        path.write_text('{"name": "A"}\n# note\n{"name": "B"}\n')
        with pytest.raises(ValueError, match=": line 2: invalid JSON"):
            ingest_registry(path)

    def test_forged_row_in_name_names_line_and_field(self, tmp_path):
        path = tmp_path / "reg.jsonl"
        path.write_text(
            '{"name": "A"}\n' + json.dumps({"name": "Glob\tPlot\nFAKE\t1\t2\t3"}) + "\n"
        )
        with pytest.raises(ValueError) as info:
            ingest_registry(path)
        assert str(info.value) == (
            f"{path}: line 2: field 'name' must be one line without a tab"
        )

    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "reg.jsonl"
        path.write_text('{"name": "A", "description": "x"}\n\n')
        assert len(ingest_registry(path)) == 1

    @pytest.mark.parametrize("field", ["name", "description", "tags"])
    def test_rejects_lone_surrogate(self, tmp_path, field):
        # A JSON escape can spell a surrogate that UTF-8 cannot encode.
        value = '["\\udc80"]' if field == "tags" else '"Bad\\ud800"'
        path = tmp_path / "reg.jsonl"
        path.write_text(f'{{"name": "A"}}\n{{"name": "B", "{field}": {value}}}\n')
        with pytest.raises(ValueError) as info:
            ingest_registry(path)
        assert str(info.value).startswith(
            f"{path}: line 2: field {field!r} cannot be encoded as UTF-8"
        )

    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85"])
    def test_only_line_feed_ends_a_line(self, tmp_path, char):
        # json.dumps(..., ensure_ascii=False) writes these characters raw.
        objects = [{"name": "A", "description": f"one{char}two"}, {"name": "B"}]
        text = "".join(json.dumps(o, ensure_ascii=False) + "\n" for o in objects)
        path = tmp_path / "reg.jsonl"
        path.write_text(text, encoding="utf-8")
        records = ingest_registry(path)
        assert [(r.name, r.description) for r in records] == [
            ("A", f"one{char}two"),
            ("B", None),
        ]
        path.write_text(text + '{"name": 5}\n', encoding="utf-8")
        with pytest.raises(ValueError, match=": line 3: field 'name'"):
            ingest_registry(path)

    def test_lone_carriage_return_does_not_end_a_line(self, tmp_path):
        path = tmp_path / "reg.jsonl"
        path.write_bytes(b'{"name": "A"}\r{"name": "B"}\n')
        with pytest.raises(ValueError, match=": line 1: invalid JSON: Extra data"):
            ingest_registry(path)

    def test_crlf_file(self, tmp_path):
        path = tmp_path / "reg.jsonl"
        path.write_bytes((DATA / "services.jsonl").read_bytes().replace(b"\n", b"\r\n"))
        assert ingest_registry(path) == ingest_registry(DATA / "services.jsonl")

    def test_leading_bom_is_skipped(self, tmp_path):
        path = tmp_path / "reg.jsonl"
        path.write_bytes(b"\xef\xbb\xbf" + (DATA / "services.jsonl").read_bytes())
        assert ingest_registry(path) == ingest_registry(DATA / "services.jsonl")

    def test_undecodable_file_names_path(self, tmp_path):
        path = tmp_path / "reg.jsonl"
        path.write_bytes(b'{"name": "A", "description": "\xff"}\n')
        with pytest.raises(ValueError) as info:
            ingest_registry(path)
        assert str(info.value).startswith(f"{path}: not valid UTF-8: ")


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

    def test_normalized_categories_are_the_category_posting_keys(self, demo_index):
        odd = ServiceRecord("Odd", categories=("Protein  Sequences/Analysis_DB", "DB", "db"))
        index = ServiceIndex(
            (*demo_index.services, AnnotatedService(odd, SemanticVector({}))), "f"
        )
        # Lowercased, each run of spaces, '/' and '_' one space.
        assert index.services[-1].normalized_categories() == (
            "protein sequences analysis db", "db", "db"
        )
        for pos, service in enumerate(index.services):
            expected = tuple(
                " ".join(re.split(r"[\s/_]+", c.lower())) for c in service.record.categories
            )
            assert service.normalized_categories() == expected
            assert {k for k, p in index.category_postings.items() if pos in p} == set(expected)

    def test_repr_shows_count_fingerprint_and_threshold(self, demo_index):
        assert repr(demo_index) == (
            f"ServiceIndex(<5 services>, lexicon_fingerprint="
            f"{demo_index.lexicon_fingerprint!r}, threshold={DEFAULT_THRESHOLD!r})"
        )

    @pytest.mark.parametrize("value", [True, "0.5", None])
    @pytest.mark.parametrize("count", [0, 5])
    def test_threshold_must_be_a_number(self, demo_records, demo_lexicon, value, count):
        # With records, the first annotate call rejects the value; without,
        # ServiceIndex does, by the same rule.
        with pytest.raises(ValueError) as excinfo:
            build_index(demo_records[:count], demo_lexicon, threshold=value)
        assert str(excinfo.value) == f"threshold {value!r} outside [-1, 1]"

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


_VALID_ANNOTATION = {
    "concept_id": "C1",
    "lexical_form": "x",
    "similarity": 1.0,
    "tf": 1,
    "idf_value": 2.0,
    "matched_words": frozenset({"x"}),
}
_VALID_FIELDS = {
    "concept_id": st.text(),
    "lexical_form": st.text(),
    "similarity": st.floats(-1.0, 1.0),
    "tf": st.integers(1, 50),
    "idf_value": st.floats(0.001, 100.0),
    "matched_words": st.frozensets(st.text()),
}
# Values of every kind, most of which no Annotation field may hold.
_ANY_VALUE = st.one_of(
    st.text(),
    st.integers(),
    st.floats(),
    st.booleans(),
    st.none(),
    st.lists(st.text()),
    st.frozensets(st.text()),
    st.frozensets(st.integers()),
)


class TestPersistence:
    def test_round_trip_preserves_everything(self, demo_index, index_path):
        loaded = load_index(index_path)
        # Records, weights, provenance, both posting tables, fingerprint.
        assert loaded == demo_index

    def test_norms_derived_from_vectors(self, demo_index, index_path):
        loaded = load_index(index_path)
        expected = tuple(s.vector.norm() for s in demo_index.services)
        assert demo_index.norms == expected
        assert loaded.norms == expected
        assert loaded == demo_index

    def test_save_is_deterministic(self, demo_index, tmp_path):
        first = tmp_path / "a.idx"
        second = tmp_path / "b.idx"
        save_index(demo_index, first)
        save_index(demo_index, second)
        assert first.read_bytes() == second.read_bytes()
        # Pinned so every supported Python version must write these bytes.
        assert hashlib.sha256(first.read_bytes()).hexdigest() == (
            "2645f0cc492a83794899da1668b5b78e34df8199a8f951bb80965618a0df984b"
        )

    def test_vector_keeps_a_copy_of_its_provenance(self, tmp_path):
        a1 = Annotation("C1", "tree", 1.0, 1, 1.5, frozenset({"tree"}))
        a2 = Annotation("C2", "leaf", 1.0, 1, 2.5, frozenset({"leaf"}))
        provenance = {"C1": a1}
        vector = SemanticVector(provenance)
        provenance["C2"] = a2
        assert vector == SemanticVector({"C1": a1})
        assert vector.weights == {"C1": 1.5}
        assert vector.support() == frozenset({"C1"})
        index = ServiceIndex((AnnotatedService(ServiceRecord("A"), vector),), "f")
        save_index(index, tmp_path / "a.idx")
        loaded = load_index(tmp_path / "a.idx")
        assert loaded == index
        assert loaded.concept_postings == index.concept_postings == {"C1": frozenset({0})}

    @pytest.mark.parametrize("threshold", [DEFAULT_THRESHOLD, -1.0, 0.25, 1.0])
    def test_threshold_round_trip(self, demo_records, demo_lexicon, tmp_path, threshold):
        index = build_index(demo_records, demo_lexicon, threshold=threshold)
        assert index.threshold == threshold
        save_index(index, tmp_path / "a.idx")
        loaded = load_index(tmp_path / "a.idx")
        assert loaded.threshold == threshold
        assert loaded == index

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"threshold": 1.5}, "threshold 1.5 outside [-1, 1]"),
            ({"threshold": -1.01}, "threshold -1.01 outside [-1, 1]"),
            ({"threshold": math.nan}, "threshold nan outside [-1, 1]"),
            ({"threshold": True}, "threshold True outside [-1, 1]"),
            ({"threshold": "0.8"}, "threshold '0.8' outside [-1, 1]"),
            ({"lexicon_fingerprint": b"f"}, "lexicon_fingerprint must be a string"),
            # A list would load back as a tuple, so not equal.
            (
                {"services": [AnnotatedService(ServiceRecord(name="A"), SemanticVector({}))]},
                "services must be a tuple of AnnotatedService",
            ),
            # discover would print the one name twice.
            (
                {"services": (AnnotatedService(ServiceRecord(name="A"), SemanticVector({})),) * 2},
                "duplicate service names: A",
            ),
        ],
    )
    def test_index_the_format_cannot_hold_is_not_built(self, fields, message):
        with pytest.raises(ValueError) as excinfo:
            ServiceIndex(**{"services": (), "lexicon_fingerprint": "f", **fields})
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "service",
        [
            AnnotatedService("A", "B"),
            AnnotatedService(("A", None, None, (), ()), SemanticVector({})),
            AnnotatedService(ServiceRecord("A"), {}),
        ],
        ids=["strings", "plain_tuple_record", "dict_vector"],
    )
    def test_service_of_the_wrong_shape_is_not_built(self, service):
        good = AnnotatedService(ServiceRecord("B"), SemanticVector({}))
        with pytest.raises(ValueError) as excinfo:
            ServiceIndex((good, service), "f")
        assert str(excinfo.value) == (
            "service 1: record must be a ServiceRecord, vector a SemanticVector"
        )

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"similarity": 1.5}, "similarity 1.5 outside [-1, 1]"),
            ({"similarity": True}, "field 'similarity' has type bool"),
            ({"similarity": math.nan}, "similarity nan outside [-1, 1]"),
            ({"tf": 1.0}, "field 'tf' has type float"),
            ({"tf": True}, "field 'tf' has type bool"),
            ({"lexical_form": 5}, "field 'lexical_form' has type int"),
            (
                {"matched_words": frozenset({1})},
                "field 'matched_words' must be a frozenset of strings",
            ),
            ({"matched_words": ["x"]}, "field 'matched_words' has type list"),
            # Weights are tf * idf_value and must lie in [2**-255, 2**255].
            ({"tf": 10**400}, "field 'tf': int too large to convert to float"),
            (
                {"tf": 10**3000, "idf_value": 10**3000},
                "field 'tf': int too large to convert to float",
            ),
            ({"tf": 0}, "field 'tf': non-positive weight 0.0 outside [2**-255, 2**255]"),
            ({"tf": -1}, "field 'tf': non-positive weight -2.0 outside [2**-255, 2**255]"),
            (
                {"idf_value": 0.0},
                "field 'tf': non-positive weight 0.0 outside [2**-255, 2**255]",
            ),
            (
                {"idf_value": -1.0},
                "field 'tf': non-positive weight -1.0 outside [2**-255, 2**255]",
            ),
            (
                {"tf": 2, "idf_value": 2.0**255},
                "field 'tf': out-of-range weight 1.157920892373162e+77 outside "
                "[2**-255, 2**255]",
            ),
        ],
        ids=[
            "similarity_above_one",
            "bool_similarity",
            "non_finite_similarity",
            "float_tf",
            "bool_tf",
            "int_lexical_form",
            "int_matched_word",
            "matched_words_list",
            "tf_too_large_for_float",
            "weight_too_large_for_float",
            "zero_tf",
            "negative_tf",
            "zero_idf_value",
            "negative_idf_value",
            "weight_above_range",
        ],
    )
    def test_annotation_the_format_cannot_hold_is_not_built(self, fields, message):
        with pytest.raises(ValueError) as excinfo:
            Annotation(**{**_VALID_ANNOTATION, **fields})
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("key", ["c1", "X"])
    def test_provenance_key_other_than_concept_is_not_built(self, key):
        # Loading keys each annotation by its concept id.
        with pytest.raises(ValueError, match=f"concept {key}: provenance names 'C1'"):
            SemanticVector({key: Annotation(**_VALID_ANNOTATION)})

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), keyed_by_concept=st.booleans())
    def test_built_index_loads_back_equal(self, tmp_path_factory, data, keyed_by_concept):
        """Whatever the Annotation fields hold, construction rejects the
        index or it saves and loads back equal."""
        wild = data.draw(st.sets(st.sampled_from(sorted(_VALID_FIELDS)), max_size=3))
        fields = {
            key: data.draw(_ANY_VALUE if key in wild else valid, label=key)
            for key, valid in _VALID_FIELDS.items()
        }
        try:
            annotation = Annotation(**fields)
            key = annotation.concept_id if keyed_by_concept else "X"
            vector = SemanticVector({key: annotation})
            service = AnnotatedService(ServiceRecord(name="A"), vector)
            index = ServiceIndex(services=(service,), lexicon_fingerprint="f")
        except ValueError:
            return
        path = tmp_path_factory.getbasetemp() / "property.idx"
        save_index(index, path)
        assert load_index(path) == index

    @pytest.mark.parametrize(
        "provenance",
        [{"C1": 2.0}, {"C1": ("C1", "x", 1.0, 1, 2.0, frozenset())}],
        ids=["weights_without_provenance", "annotation_fields_as_tuple"],
    )
    def test_vector_the_format_cannot_hold_is_not_built(self, provenance):
        # Every weight is its annotation's tf * idf_value, so a vector
        # holds nothing the index file cannot store.
        with pytest.raises(ValueError, match="concept C1: .* is not an Annotation"):
            SemanticVector(provenance)

    @pytest.mark.parametrize("fail_at", ["write", "replace"])
    def test_failed_save_keeps_previous_index(
        self, demo_index, mini_lexicon, index_path, monkeypatch, fail_at
    ):
        before = index_path.read_bytes()
        other = build_index([ServiceRecord(name="A", description="x")], mini_lexicon)

        @contextlib.contextmanager
        def disk_full(file, mode):
            with open(file, mode) as fh:
                fh.write(b"partial")
            raise OSError(errno.ENOSPC, "No space left on device")
            yield

        def failing_replace(src, dst):
            raise OSError(errno.EIO, "I/O error")

        if fail_at == "write":
            monkeypatch.setattr(registry, "open", disk_full, raising=False)
        else:
            monkeypatch.setattr(registry.os, "replace", failing_replace)
        with pytest.raises(OSError):
            save_index(other, index_path)
        monkeypatch.undo()
        assert index_path.read_bytes() == before
        assert load_index(index_path) == demo_index
        assert list(index_path.parent.iterdir()) == [index_path]

    def test_save_replaces_existing_file(self, demo_index, mini_lexicon, index_path):
        other = build_index([ServiceRecord(name="A", description="x")], mini_lexicon)
        save_index(other, index_path)
        assert load_index(index_path) == other
        assert list(index_path.parent.iterdir()) == [index_path]

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

    def test_file_shorter_than_envelope_is_checksum_mismatch(self, index_path):
        # Magic, version field and checksum take 40 bytes; 39 that carry a
        # valid checksum of their first 7 still cannot be an index.
        body = MAGIC + bytes(3)
        write_index_body(index_path, body)
        assert len(index_path.read_bytes()) == 39
        with pytest.raises(ValueError, match="checksum mismatch"):
            load_index(index_path)

    @pytest.mark.parametrize("raw", [b"", b"SDI", b"SDIx" + bytes(60)])
    def test_file_without_magic_is_not_an_index(self, index_path, raw):
        index_path.write_bytes(raw)
        with pytest.raises(ValueError, match="not a service index file$"):
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
        raw = index_path.read_bytes()
        for version in range(1, FORMAT_VERSION):
            body = bytearray(raw[:-32])
            body[4:8] = version.to_bytes(4, "big")
            write_index_body(index_path, bytes(body))
            with pytest.raises(ValueError) as excinfo:
                load_index(index_path)
            message = str(excinfo.value)
            assert message.startswith(f"{index_path}: index format version {version} ")
            assert "rebuild the index with 'semdisc index build'" in message

    def test_bytes_between_payload_and_checksum_detected(self, index_path):
        write_index_body(index_path, index_path.read_bytes()[:-32] + b"\0" * 8)
        with pytest.raises(ValueError, match="malformed index payload") as excinfo:
            load_index(index_path)
        assert str(excinfo.value).startswith(str(index_path))


# Item positions in the payload row, in a service row and in a
# provenance row.
_FINGERPRINT, _THRESHOLD, _SERVICES = range(3)
_NAME, _DESCRIPTION, _DOCUMENTATION, _TAGS, _CATEGORIES, _PROVENANCE = range(6)
_CONCEPT_ID, _FORM, _SIMILARITY, _TF, _IDF_VALUE, _MATCHED_WORDS = range(6)


def _edit_payload(pos: int, value):
    """Set a payload item; None deletes it."""

    def edit(payload):
        payload[pos] = value
        if value is None:
            del payload[pos]
        return payload

    return edit


def _edit_service(pos: int, value):
    def edit(payload):
        payload[_SERVICES][0][pos] = value
        return payload

    return edit


def _edit_provenance(pos: int, value):
    def edit(payload):
        service = next(s for s in payload[_SERVICES] if s[_PROVENANCE])
        service[_PROVENANCE][0][pos] = value
        return payload

    return edit


def _resize_service(resize):
    def edit(payload):
        payload[_SERVICES][0] = resize(payload[_SERVICES][0])
        return payload

    return edit


def _reorder_provenance(reorder):
    """Replace the first service's provenance rows with ``reorder(rows)``."""

    def edit(payload):
        rows = payload[_SERVICES][0][_PROVENANCE]
        payload[_SERVICES][0][_PROVENANCE] = reorder(rows)
        return payload

    return edit


def _resize_provenance(resize):
    def edit(payload):
        service = next(s for s in payload[_SERVICES] if s[_PROVENANCE])
        service[_PROVENANCE][0] = resize(service[_PROVENANCE][0])
        return payload

    return edit


class TestMalformedPayload:
    """Checksum-valid files whose payload does not match the format."""

    def test_missing_provenance_key(self, index_path):
        def drop_provenance(payload):
            del payload[_SERVICES][0][_PROVENANCE]
            return payload

        rewrite_index_payload(index_path, drop_provenance)
        with pytest.raises(ValueError) as excinfo:
            load_index(index_path)
        message = str(excinfo.value)
        assert message.startswith(str(index_path))
        assert "service 0: expected a list of 6 items, got 5" in message

    def test_concept_posting_past_service_list(self, index_path, demo_index):
        """Postings are derived from the services, never read from the file:
        the payload row has no place for them."""
        rewrite_index_payload(
            index_path, lambda payload: [*payload, {"D9000419": [len(demo_index)]}]
        )
        with pytest.raises(ValueError, match="expected a list of 3 items, got 4"):
            load_index(index_path)

    @pytest.mark.parametrize(
        "key, detail",
        [("idf_value", "non-finite weight inf"), ("similarity", "similarity inf outside")],
    )
    def test_overflowing_number_rejected(self, index_path, key, detail):
        pos = {"idf_value": _IDF_VALUE, "similarity": _SIMILARITY}[key]
        payload = json.loads(read_index_payload(index_path))
        service = next(s for s in payload[_SERVICES] if s[_PROVENANCE])
        # JSON has no infinity; 1e999 is a number literal that overflows.
        service[_PROVENANCE][0][pos] = "OVERFLOW"
        blob = json.dumps(payload, separators=(",", ":")).encode()
        replace_index_payload(index_path, blob.replace(b'"OVERFLOW"', b"1e999"))
        with pytest.raises(ValueError, match=detail) as excinfo:
            load_index(index_path)
        assert str(excinfo.value).startswith(str(index_path))

    # An explicit id names the defect rather than the message, so the case
    # keeps its name when the message changes.
    @pytest.mark.parametrize(
        "edit, detail",
        [
            pytest.param(
                lambda payload: [payload],
                ": malformed index payload: expected a list of 3 items, got 1",
                id="payload_nested_in_a_list",
            ),
            pytest.param(
                lambda payload: dict(zip(("lexicon_fingerprint", "threshold", "services"), payload)),
                ": malformed index payload: expected a list, got dict",
                id="payload_as_object",
            ),
            pytest.param(
                lambda payload: [*payload[:_SERVICES], {}],
                ": malformed index payload: expected a list, got dict",
                id="<lambda>-'services' has type dict",
            ),
            (_resize_service(lambda row: row[1:]), "service 0: expected a list of 6 items, got 5"),
            (
                _resize_service(lambda row: [*row, None]),
                "service 0: expected a list of 6 items, got 7",
            ),
            (_edit_service(_NAME, 7), "field 'name' must be a string"),
            pytest.param(
                lambda payload: [
                    *payload[:_SERVICES], [*payload[_SERVICES], payload[_SERVICES][0]]
                ],
                ": malformed index payload: duplicate service names: ELMdb",
                id="service_row_repeated",
            ),
            (_edit_service(_NAME, " "), "service name must be non-empty"),
            pytest.param(
                _edit_service(_NAME, "A\tB"),
                ": malformed index payload: service 0: field 'name' must be one line "
                "without a tab",
                id="name_with_tab",
            ),
            # json.dumps writes a lone surrogate as an escape that loads back.
            (
                _edit_service(_NAME, "Bad\ud800"),
                ": malformed index payload: service 0: field 'name' cannot be "
                "encoded as UTF-8",
            ),
            (_edit_service(_DESCRIPTION, ["x"]), "field 'description' must be a string"),
            # A string is no list: it must not be split into characters.
            pytest.param(
                _edit_service(_TAGS, "protein"),
                "service 0: expected a list, got str",
                id="edit-'tags' has type str",
            ),
            (
                _edit_service(_CATEGORIES, [1]),
                "field 'categories' must be a tuple of strings",
            ),
            (
                _resize_provenance(lambda row: row[:-1]),
                "provenance 0: expected a list of 6 items, got 5",
            ),
            # ELMdb's rows are C8200005 then D9000419.  A repeated row
            # would otherwise load, the later copy replacing the first.
            pytest.param(
                _reorder_provenance(lambda rows: [*rows, rows[-1]]),
                "service 0: provenance 2: concept 'D9000419' after 'D9000419': rows must ascend",
                id="provenance_row_repeated",
            ),
            pytest.param(
                _reorder_provenance(lambda rows: rows[::-1]),
                "service 0: provenance 1: concept 'C8200005' after 'D9000419': rows must ascend",
                id="provenance_rows_swapped",
            ),
            (_edit_provenance(_IDF_VALUE, "8.0"), "'idf_value' has type str"),
            (_edit_provenance(_IDF_VALUE, -1.0), "non-positive weight"),
            (_edit_provenance(_IDF_VALUE, math.nan), "non-finite number NaN"),
            (_edit_provenance(_SIMILARITY, -math.inf), "non-finite number -Infinity"),
            (_edit_provenance(_TF, 10**400), "int too large to convert to float"),
            (_edit_provenance(_TF, "1"), "'tf' has type str"),
            (_edit_provenance(_SIMILARITY, True), "'similarity' has type bool"),
            (_edit_provenance(_SIMILARITY, 1.5), "similarity 1.5 outside [-1, 1]"),
            pytest.param(
                _edit_provenance(_MATCHED_WORDS, "tree"),
                "provenance 0: expected a list, got str",
                id="edit-'matched_words' has type str",
            ),
            (
                _edit_provenance(_MATCHED_WORDS, [1]),
                "field 'matched_words' must be a frozenset of strings",
            ),
            (_edit_provenance(_MATCHED_WORDS, [["x"]]), "unhashable type: 'list'"),
            (_edit_payload(_FINGERPRINT, 7), "lexicon_fingerprint must be a string"),
            pytest.param(
                _edit_payload(_FINGERPRINT, None),
                "expected a list of 3 items, got 2",
                id="edit-missing key 'lexicon_fingerprint'",
            ),
            pytest.param(
                _edit_payload(_THRESHOLD, None),
                "expected a list of 3 items, got 2",
                id="edit-missing key 'threshold'",
            ),
            (_edit_payload(_THRESHOLD, "0.8"), "threshold '0.8' outside [-1, 1]"),
            (_edit_payload(_THRESHOLD, False), "threshold False outside [-1, 1]"),
            (_edit_payload(_THRESHOLD, 1.5), "threshold 1.5 outside [-1, 1]"),
            (_edit_payload(_THRESHOLD, -2), "threshold -2 outside [-1, 1]"),
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

    def test_services_out_of_name_order_load(self, index_path, demo_index):
        rewrite_index_payload(
            index_path, lambda payload: [*payload[:_SERVICES], payload[_SERVICES][::-1]]
        )
        assert load_index(index_path).services == demo_index.services[::-1]


class TestValueTypes:
    """Records, annotations, concepts, weights and the outline model are
    checked tuple types."""

    def test_replace_and_make_run_the_checks(self):
        with pytest.raises(ValueError, match="non-positive weight"):
            Annotation(**_VALID_ANNOTATION)._replace(tf=0)
        with pytest.raises(ValueError, match="service name must be non-empty"):
            ServiceRecord._make([" "])
        with pytest.raises(ValueError, match="at least one lexical form required"):
            Concept("C1", frozenset({"x"}))._replace(lexical_forms=frozenset())
        with pytest.raises(ValueError, match="weights must sum to 1"):
            Weights()._replace(w1=0.5)
        with pytest.raises(ValueError, match="field 'w2' has type bool"):
            Weights._make([1, False])
        task = TaskRequirement("t1", "x")
        with pytest.raises(ValueError, match="field 'id' must not contain"):
            task._replace(id="a]b")
        with pytest.raises(ValueError, match="field 'description' must be one"):
            TaskRequirement._make(["t1", " x"])
        with pytest.raises(ValueError, match="field 'tasks' must be a tuple"):
            Subgoal("S")._replace(tasks=[task])
        with pytest.raises(ValueError, match="field 'name' must be a string"):
            Subgoal._make([None, ()])
        with pytest.raises(ValueError, match="field 'subgoals' must be a tuple of Subgoal"):
            Goal("G")._replace(subgoals=(Goal("H"),))
        with pytest.raises(ValueError, match="field 'name' must be one"):
            Goal._make(["", (), ()])
        with pytest.raises(ValueError, match="duplicate task id 't1'"):
            RequirementsModel()._replace(goals=(Goal("G", (task, task)),))
        with pytest.raises(ValueError, match="field 'goals' must be a tuple"):
            RequirementsModel._make([[Goal("G")]])

    def test_equal_to_a_plain_tuple_of_fields(self):
        assert ServiceRecord("A") == ("A", None, None, (), ())
        assert Annotation(**_VALID_ANNOTATION) == tuple(_VALID_ANNOTATION.values())
        assert Weights() == (0.2, 0.8)
        task = TaskRequirement("t1", "x")
        assert task == ("t1", "x")
        assert Subgoal("S", (task,)) == ("S", (("t1", "x"),))
        assert Goal("G", (task,)) == ("G", (("t1", "x"),), ())
        assert RequirementsModel((Goal("G"),)) == ((("G", (), ()),),)

    def test_copies_and_pickles_equal_the_original(self, demo_index):
        service = demo_index.services[0]
        model = parse_requirements(DATA / "requirements.txt")
        goal = next(goal for goal in model.goals if goal.tasks and goal.subgoals)
        values = (demo_index, service, service.vector, Weights(0.5, 0.5))
        for value in (*values, model, goal, goal.subgoals[0], tasks(model)[0]):
            assert copy.deepcopy(value) == value
            assert pickle.loads(pickle.dumps(value)) == value


class TestFrozenTypes:
    """The four value types that are not tuples share ``lexicon.Frozen``."""

    @pytest.mark.parametrize(
        "kind, field",
        [("vector", "provenance"), ("index", "services"), ("lexicon", "fingerprint"),
         ("taxonomy", "names")],
    )
    def test_immutable_unhashable_and_copied_through_the_constructor(
        self, demo_index, demo_lexicon, demo_taxonomy, monkeypatch, kind, field
    ):
        values = {
            "vector": demo_index.services[0].vector,
            "index": demo_index,
            "lexicon": demo_lexicon,
            "taxonomy": demo_taxonomy,
        }
        value = values.pop(kind)
        before = getattr(value, field)
        for name in (field, "extra"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(value, name, before)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(value, field)
        assert getattr(value, field) is before
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
        for other in (None, field, (before,), *values.values()):
            assert (value == other) is False and (value != other) is True
        # Every copy is built by one call of the constructor.
        cls = type(value)
        constructor = "__new__" if "__new__" in vars(cls) else "__init__"
        original, calls = getattr(cls, constructor), []

        def counted(*args, **kwargs):
            calls.append(constructor)
            return original(*args, **kwargs)

        monkeypatch.setattr(cls, constructor, counted)
        copies = []
        for copy_of in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
            copied = copy_of(value)
            assert type(copied) is cls and copied is not value and copied == value
            assert calls == [constructor]
            calls.clear()
            copies.append(copied)
        # Slotted: comparing, copying or reading views gives no value a __dict__.
        if kind == "lexicon":
            for lexicon in (value, *copies):
                assert lexicon.concept(lexicon.concepts[0].id) == lexicon.concepts[0]
        assert not any(hasattr(v, "__dict__") for v in (value, *copies))


# JSON values of every kind a payload item can hold.
_JSON_KINDS = {
    "string": st.text(max_size=8),
    "int": st.integers(),
    "float": st.floats(),
    "bool": st.booleans(),
    "null": st.none(),
    "list": st.lists(st.text(max_size=4), max_size=3),
    "object": st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
    "list of lists": st.lists(st.lists(st.text(max_size=4), max_size=2), min_size=1, max_size=2),
}


def _read_rows(rows: list) -> tuple[AnnotatedService, ...]:
    """The services the constructors make of well-formed service rows."""
    return tuple(
        AnnotatedService(
            ServiceRecord(name, description, documentation, tuple(tags), tuple(categories)),
            SemanticVector(
                {row[0]: Annotation(*row[:5], frozenset(row[5])) for row in provenance}
            ),
        )
        for name, description, documentation, tags, categories, provenance in rows
    )


class TestMutatedPayload:
    """Checksum-valid payloads with one service or provenance row changed:
    one item replaced by a JSON value of another type, or the row made
    one item short or long."""

    @pytest.mark.parametrize("change", ["short", "long", *_JSON_KINDS])
    @pytest.mark.parametrize("pos", range(6))
    @pytest.mark.parametrize("row_kind", ["service", "provenance"])
    @settings(max_examples=3, deadline=None)
    @given(data=st.data())
    def test_loads_as_read_or_names_the_file(
        self, tmp_path_factory, demo_index, row_kind, pos, change, data
    ):
        payload = json.loads(_index_payload(demo_index))
        row = payload[_SERVICES][data.draw(st.integers(0, len(demo_index) - 1))]
        if row_kind == "provenance":
            row = row[_PROVENANCE][data.draw(st.integers(0, len(row[_PROVENANCE]) - 1))]
        if change == "short":
            del row[pos]
        elif change == "long":
            row.insert(pos, data.draw(st.one_of(*_JSON_KINDS.values())))
        else:
            row[pos] = data.draw(_JSON_KINDS[change])
        path = tmp_path_factory.getbasetemp() / "mutated.idx"
        write_index_body(path, MAGIC + FORMAT_VERSION.to_bytes(4, "big") + json.dumps(
            payload, separators=(",", ":")
        ).encode())
        try:
            loaded = load_index(path)
        except ValueError as exc:
            loaded = None
            assert str(exc).startswith(f"{path}: malformed index payload: ")
        else:
            assert loaded.services == _read_rows(payload[_SERVICES])
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main([
                "discover",
                "Analyze domains in protein sequences",
                f"--lexicon={DATA / 'mini_lexicon.tsv'}",
                f"--taxonomy={DATA / 'taxonomy.txt'}",
                f"--index={path}",
            ])
        assert "Traceback" not in stderr.getvalue()
        if loaded is None:
            assert code == 1
            assert stderr.getvalue().startswith(f"error: {path}: malformed index payload: ")
        else:
            assert code == 0


class TestEmptyVectorHandling:
    def test_build_with_synthetic_lexicon(self):
        lex = Lexicon([Concept("C1", frozenset({"alignment"}))])
        records = [
            ServiceRecord(name="Hit", description="alignment provider"),
            ServiceRecord(name="Miss", description="unrelated"),
        ]
        index = build_index(records, lex)
        assert index.concept_postings == {"C1": frozenset({0})}
        assert index.services[0].name == "Hit"
