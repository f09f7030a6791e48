"""Command-line behavior: commands, formats, precedence, exit codes."""
from __future__ import annotations

import contextlib
import errno
import gc
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import semdisc
from semdisc import build_index, discover, load_lexicon
from semdisc.cli import main
from semdisc.lexicon import Concept
from semdisc.registry import FORMAT_VERSION, ServiceRecord, save_index
from semdisc.taxonomy import CategoryTaxonomy, match_categories

from conftest import DATA, replace_index_payload, rewrite_index_payload, write_index_body

TASK = "Analyze domains in protein sequences"


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv: str | bytes, **env: str) -> subprocess.CompletedProcess:
    """``python -m semdisc.cli *argv`` in a new interpreter that imports
    this ``semdisc``, with no ``SEMDISC_*`` variable and ``env`` added."""
    src = str(Path(semdisc.__file__).resolve().parent.parent)
    env = {**{k: v for k, v in os.environ.items() if not k.startswith("SEMDISC_")}, **env}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "semdisc.cli", *argv], env=env, capture_output=True, timeout=120
    )


@pytest.fixture()
def built_index(tmp_path, capsys):
    path = tmp_path / "demo.idx"
    code, out, _ = run(
        capsys,
        "index",
        "build",
        "--lexicon",
        str(DATA / "lexicon.tsv"),
        "--registry",
        str(DATA / "services.jsonl"),
        "--index",
        str(path),
    )
    assert code == 0, out
    return path


class TestIndexBuild:
    def test_summary_output(self, tmp_path, capsys):
        path = tmp_path / "demo.idx"
        code, out, err = run(
            capsys,
            "index",
            "build",
            "--lexicon",
            str(DATA / "lexicon.tsv"),
            "--registry",
            str(DATA / "services.jsonl"),
            "--index",
            str(path),
        )
        assert code == 0
        assert path.is_file()
        lines = dict(
            line.split("\t", 1) for line in out.strip().splitlines()
        )
        assert lines["services"] == "5"
        assert lines["annotated"] == "5"
        assert lines["empty_vectors"] == "0"
        lexicon = load_lexicon(DATA / "lexicon.tsv")
        assert lines["lexicon_fingerprint"] == lexicon.fingerprint

    def test_registry_without_text_warns_on_stderr(self, tmp_path, capsys):
        registry = DATA / "registry_misc.jsonl"
        argv = ["index", "build", f"--lexicon={DATA / 'lexicon.tsv'}", f"--registry={registry}"]
        code, out, err = run(capsys, *argv, f"--index={tmp_path / 'misc.idx'}")
        assert code == 0
        assert out.startswith("services\t20\n")
        assert err == f"{registry}: service 'LegacyPing' has no description or documentation\n"
        # Blank text counts as none, as it does for annotation.
        blank = tmp_path / "blank.jsonl"
        blank.write_text(
            '{"name": "A", "description": "  "}\n{"name": "B", "documentation": ""}\n'
            '{"name": "C", "description": " ", "documentation": "Docs."}\n'
        )
        argv[-1] = f"--registry={blank}"
        code, _, err = run(capsys, *argv, f"--index={tmp_path / 'blank.idx'}")
        assert code == 0
        assert err == "".join(
            f"{blank}: service {name!r} has no description or documentation\n" for name in "AB"
        )

    def test_missing_index_flag(self, capsys):
        code, _, err = run(
            capsys,
            "index",
            "build",
            "--lexicon",
            str(DATA / "lexicon.tsv"),
            "--registry",
            str(DATA / "services.jsonl"),
        )
        assert code == 2
        assert "--index" in err

    def test_missing_index_flag_checked_before_loading(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        code, out, err = run(
            capsys,
            "index",
            "build",
            f"--lexicon={DATA / 'lexicon.tsv'}",
            f"--registry={bad}",
        )
        assert (code, out) == (2, "")
        assert err == "error: missing required setting: --index\n"

    def test_repeated_registry_flag_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "out.idx"
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "index",
                    "build",
                    f"--lexicon={DATA / 'lexicon.tsv'}",
                    f"--registry={DATA / 'services.jsonl'}",
                    f"--registry={DATA / 'registry_misc.jsonl'}",
                    f"--index={path}",
                ]
            )
        captured = capsys.readouterr()
        assert excinfo.value.code == 2
        assert captured.out == ""
        assert "argument --registry: given more than once" in captured.err
        assert not path.exists()

    def test_missing_lexicon_file(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "index",
            "build",
            "--lexicon",
            str(tmp_path / "absent.tsv"),
            "--registry",
            str(DATA / "services.jsonl"),
            "--index",
            str(tmp_path / "out.idx"),
        )
        assert code == 2
        assert "lexicon not found" in err

    def test_malformed_registry_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        code, _, err = run(
            capsys,
            "index",
            "build",
            "--lexicon",
            str(DATA / "lexicon.tsv"),
            "--registry",
            str(bad),
            "--index",
            str(tmp_path / "out.idx"),
        )
        assert code == 1
        assert "line 1" in err

    def test_deeply_nested_registry_line_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "nested.jsonl"
        bad.write_text("[" * 200_000 + "\n")
        code, _, err = run(
            capsys,
            "index",
            "build",
            "--lexicon",
            str(DATA / "lexicon.tsv"),
            "--registry",
            str(bad),
            "--index",
            str(tmp_path / "out.idx"),
        )
        assert code == 1
        assert f"{bad}: line 1: invalid JSON" in err
        assert "Traceback" not in err

    def test_integer_too_long_in_registry_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "big.jsonl"
        bad.write_text('{"name": "a"}\n{"name": "b", "x": ' + "9" * 5000 + "}\n")
        code, _, err = run(
            capsys,
            "index",
            "build",
            "--lexicon",
            str(DATA / "lexicon.tsv"),
            "--registry",
            str(bad),
            "--index",
            str(tmp_path / "out.idx"),
        )
        assert code == 1
        assert err.startswith(f"error: {bad}: line 2: invalid JSON: ")
        assert "Traceback" not in err

    def test_undecodable_registry_names_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b'{"name": "B", "description": "\xff"}\n')
        code, _, err = run(
            capsys,
            "index",
            "build",
            "--lexicon",
            str(DATA / "lexicon.tsv"),
            "--registry",
            str(bad),
            "--index",
            str(tmp_path / "out.idx"),
        )
        assert code == 1
        assert err.startswith(f"error: {bad}: not valid UTF-8: ")
        assert "Traceback" not in err
        assert not (tmp_path / "out.idx").exists()

    def test_lone_surrogate_in_registry_builds_nothing(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"name": "Bad\\ud800", "description": "protein sequences"}\n')
        code, out, err = run(
            capsys,
            "index",
            "build",
            "--lexicon",
            str(DATA / "lexicon.tsv"),
            "--registry",
            str(bad),
            "--index",
            str(tmp_path / "out.idx"),
        )
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {bad}: line 1: field 'name' cannot be encoded")
        assert not (tmp_path / "out.idx").exists()

    def test_forged_row_in_registry_name_builds_nothing(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        forged = {"name": "Glob\tPlot\nFAKE\t1\t2\t3", "description": TASK}
        bad.write_text('{"name": "A", "description": "x"}\n' + json.dumps(forged) + "\n")
        code, out, err = run(
            capsys,
            "index",
            "build",
            f"--lexicon={DATA / 'lexicon.tsv'}",
            f"--registry={bad}",
            f"--index={tmp_path / 'out.idx'}",
        )
        assert (code, out) == (1, "")
        assert err == f"error: {bad}: line 2: field 'name' must be one line without a tab\n"
        assert not (tmp_path / "out.idx").exists()


class TestAnnotateCommand:
    def test_table_output(self, capsys):
        code, out, _ = run(
            capsys,
            "annotate",
            TASK,
            "--lexicon",
            str(DATA / "lexicon.tsv"),
            "--taxonomy",
            str(DATA / "taxonomy.txt"),
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == f"# task query: {TASK}"
        assert lines[1] == "concept\tweight\ttf\tidf\tsimilarity\tform"
        # Heaviest concept first.
        assert lines[2] == "D9000419\t14.9986\t1\t14.9986\t1.0000\tprotein sequences"
        assert lines[3] == "C1513868\t8.0000\t1\t8.0000\t1.0000\tdomains"
        assert "category\tc_score" in lines
        assert "Protein Sequence Analysis\t0.6056" in lines
        assert "Protein Sequences Analysis DB\t0.5617" in lines

    def test_records_output(self, capsys):
        code, out, _ = run(
            capsys,
            "annotate",
            TASK,
            "--lexicon",
            str(DATA / "lexicon.tsv"),
            "--format",
            "records",
        )
        assert code == 0
        record = json.loads(out.strip())
        assert record["task"] == "query"
        assert set(record["vector"]) == {"C1513868", "D9000419"}
        assert record["vector"]["C1513868"] == pytest.approx(8.0, abs=0.01)
        assert record["provenance"]["D9000419"]["form"] == "protein sequences"
        assert record["categories"] == []

    def test_records_categories_at_full_precision(self, demo_taxonomy, capsys):
        code, out, _ = run(
            capsys,
            "annotate",
            TASK,
            "--lexicon",
            str(DATA / "lexicon.tsv"),
            "--taxonomy",
            str(DATA / "taxonomy.txt"),
            "--format",
            "records",
        )
        assert code == 0
        expected = [
            {"category": m.category, "c_score": m.c_score}
            for m in match_categories(TASK, demo_taxonomy)
        ]
        assert expected
        assert json.loads(out)["categories"] == expected

    def test_requirements_batch(self, capsys):
        code, out, _ = run(
            capsys,
            "annotate",
            "--lexicon",
            str(DATA / "lexicon.tsv"),
            "--requirements",
            str(DATA / "requirements.txt"),
        )
        assert code == 0
        headers = [l for l in out.splitlines() if l.startswith("# task ")]
        assert len(headers) == 7
        assert headers[0] == f"# task t1: {TASK}"

    def test_text_and_requirements_conflict(self, capsys):
        code, _, err = run(
            capsys,
            "annotate",
            "some text",
            "--lexicon",
            str(DATA / "lexicon.tsv"),
            "--requirements",
            str(DATA / "requirements.txt"),
        )
        assert code == 2
        assert "not both" in err

    def test_no_task_source(self, capsys):
        code, _, err = run(
            capsys, "annotate", "--lexicon", str(DATA / "lexicon.tsv")
        )
        assert code == 2
        assert "task text or --requirements" in err


class TestDiscoverCommand:
    def test_table_matches_expected_ranking(self, built_index, capsys):
        code, out, _ = run(
            capsys,
            "discover",
            TASK,
            "--lexicon",
            str(DATA / "lexicon.tsv"),
            "--taxonomy",
            str(DATA / "taxonomy.txt"),
            "--index",
            str(built_index),
        )
        assert code == 0
        expected = "\n".join(
            [
                f"# task query: {TASK}",
                "service\tshared_annotations\tc_score\ts_score\tscore",
                "GlobPlot\tC1513868,D9000419\t0.0000\t0.6934\t0.5547",
                "Uniprot\tD9000419\t0.5617\t0.5427\t0.5465",
                "Genesilico\tC1513868,D9000419\t0.5617\t0.4725\t0.4903",
                "Emboss tmap\tD9000419\t0.5617\t0.4443\t0.4678",
                "ELMdb\tD9000419\t0.5617\t0.4379\t0.4627",
            ]
        )
        assert out.strip() == expected

    def test_records_output_full_precision(self, built_index, capsys):
        code, out, _ = run(
            capsys,
            "discover",
            TASK,
            "--lexicon",
            str(DATA / "lexicon.tsv"),
            "--taxonomy",
            str(DATA / "taxonomy.txt"),
            "--index",
            str(built_index),
            "--format",
            "records",
        )
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert [r["service"] for r in rows] == [
            "GlobPlot",
            "Uniprot",
            "Genesilico",
            "Emboss tmap",
            "ELMdb",
        ]
        top = rows[0]
        assert top["task"] == "query"
        assert top["shared_annotations"] == ["C1513868", "D9000419"]
        assert top["c_score"] == 0.0
        # Full precision: more digits than the table's 4.
        assert abs(top["score"] - 0.8 * top["s_score"]) < 1e-15

    def test_deterministic_output(self, built_index, capsys):
        argv = (
            "discover",
            TASK,
            "--lexicon",
            str(DATA / "lexicon.tsv"),
            "--taxonomy",
            str(DATA / "taxonomy.txt"),
            "--index",
            str(built_index),
        )
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_requirements_batch(self, built_index, capsys):
        code, out, _ = run(
            capsys,
            "discover",
            "--lexicon",
            str(DATA / "lexicon.tsv"),
            "--taxonomy",
            str(DATA / "taxonomy.txt"),
            "--index",
            str(built_index),
            "--requirements",
            str(DATA / "requirements.txt"),
        )
        assert code == 0
        assert out.count("# task ") == 7

    def test_records_every_line_is_json(self, built_index, capsys):
        # Five of the seven outline tasks have no results; they print no line.
        code, out, _ = run(
            capsys,
            "discover",
            "--lexicon",
            str(DATA / "lexicon.tsv"),
            "--taxonomy",
            str(DATA / "taxonomy.txt"),
            "--index",
            str(built_index),
            "--requirements",
            str(DATA / "requirements.txt"),
            "--format",
            "records",
        )
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 7
        assert {row["task"] for row in rows} == {"t1", "t2"}
        assert (rows[0]["task"], rows[0]["service"]) == ("t1", "GlobPlot")
        assert out.endswith("}\n")

    def test_records_task_without_results_prints_nothing(self, built_index, capsys):
        code, out, _ = run(
            capsys,
            "discover",
            "zzzz qqqq",
            "--lexicon",
            str(DATA / "lexicon.tsv"),
            "--taxonomy",
            str(DATA / "taxonomy.txt"),
            "--index",
            str(built_index),
            "--format",
            "records",
        )
        assert code == 0
        assert out == ""

    def test_output_independent_of_hash_seed(self, built_index):
        # Ranking walks sets and dicts; a new interpreter with another
        # hash seed must still print the same bytes.
        argv = [
            "discover",
            "--lexicon",
            str(DATA / "lexicon.tsv"),
            "--taxonomy",
            str(DATA / "taxonomy.txt"),
            "--index",
            str(built_index),
            "--requirements",
            str(DATA / "requirements.txt"),
            "--format",
            "records",
        ]
        outputs = []
        for seed in ("0", "1"):
            proc = run_process(*argv, PYTHONHASHSEED=seed)
            assert proc.returncode == 0, proc.stderr.decode()
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        rows = [json.loads(line) for line in outputs[0].splitlines()]
        assert {row["task"] for row in rows} == {"t1", "t2"}

    def test_fingerprint_mismatch_warns(self, tmp_path, capsys):
        other_index = tmp_path / "mini.idx"
        code, _, _ = run(
            capsys,
            "index",
            "build",
            "--lexicon",
            str(DATA / "mini_lexicon.tsv"),
            "--registry",
            str(DATA / "services.jsonl"),
            "--index",
            str(other_index),
        )
        assert code == 0
        code, _, err = run(
            capsys,
            "discover",
            TASK,
            "--lexicon",
            str(DATA / "lexicon.tsv"),
            "--taxonomy",
            str(DATA / "taxonomy.txt"),
            "--index",
            str(other_index),
        )
        assert code == 0
        assert "fingerprint mismatch" in err

    def test_edited_lexicon_file_with_same_lines_does_not_warn(
        self, built_index, tmp_path, capsys
    ):
        # The fingerprint follows the concept lines, not the file bytes.
        lines = (DATA / "lexicon.tsv").read_text(encoding="utf-8").splitlines()
        records = [line for line in lines if line and not line.startswith("#")]
        edited = tmp_path / "edited.tsv"
        edited.write_text("# edited\n" + "\n".join(records[::-1]) + "\n", encoding="utf-8")
        outputs = []
        for lexicon in (DATA / "lexicon.tsv", edited):
            code, out, err = run(
                capsys,
                "discover",
                TASK,
                f"--lexicon={lexicon}",
                f"--taxonomy={DATA / 'taxonomy.txt'}",
                f"--index={built_index}",
            )
            assert (code, err) == (0, "")
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_tasks_annotated_at_index_threshold(
        self, tmp_path, capsys, demo_lexicon, demo_taxonomy, demo_records
    ):
        # Covers C8200004 only partly: a concept at 0.5, none at 0.8.
        task = "Find transmembrane topology segments in protein sequences"
        path = tmp_path / "half.idx"
        code, _, _ = run(
            capsys,
            "index",
            "build",
            f"--lexicon={DATA / 'lexicon.tsv'}",
            f"--registry={DATA / 'services.jsonl'}",
            f"--index={path}",
            "--threshold=0.5",
        )
        assert code == 0
        code, out, err = run(
            capsys,
            "discover",
            task,
            f"--lexicon={DATA / 'lexicon.tsv'}",
            f"--taxonomy={DATA / 'taxonomy.txt'}",
            f"--index={path}",
            "--format=records",
        )
        assert (code, err) == (0, "")
        index = build_index(demo_records, demo_lexicon, threshold=0.5)
        expected = [
            {
                "task": "query",
                "service": r.service,
                "shared_annotations": sorted(r.shared_annotations),
                "c_score": r.c_score,
                "s_score": r.s_score,
                "score": r.score,
            }
            for r in discover(task, demo_lexicon, demo_taxonomy, index)
        ]
        assert [json.loads(line) for line in out.splitlines()] == expected
        # Annotated at 0.8, the task shares no concept with Emboss tmap.
        assert expected[0]["service"] == "Emboss tmap"
        assert "C8200004" in expected[0]["shared_annotations"]

    def test_threshold_flag_is_usage_error(self, built_index, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "discover",
                    TASK,
                    f"--lexicon={DATA / 'lexicon.tsv'}",
                    f"--taxonomy={DATA / 'taxonomy.txt'}",
                    f"--index={built_index}",
                    "--threshold=0.9",
                ]
            )
        captured = capsys.readouterr()
        assert excinfo.value.code == 2
        assert captured.out == ""
        assert "unrecognized arguments: --threshold=0.9" in captured.err

    def test_previous_format_is_data_error(self, built_index, capsys):
        raw = built_index.read_bytes()
        for version in range(1, FORMAT_VERSION):
            body = bytearray(raw[:-32])
            body[4:8] = version.to_bytes(4, "big")
            write_index_body(built_index, bytes(body))
            code, out, err = run(
                capsys,
                "discover",
                TASK,
                f"--lexicon={DATA / 'lexicon.tsv'}",
                f"--taxonomy={DATA / 'taxonomy.txt'}",
                f"--index={built_index}",
            )
            assert (code, out) == (1, ""), version
            assert err.startswith(f"error: {built_index}: index format version {version} ")
            assert "rebuild the index with 'semdisc index build'" in err

    @pytest.mark.parametrize(
        "damage", ["missing_provenance", "non_finite_number", "deeply_nested"]
    )
    def test_malformed_index_is_data_error(self, built_index, capsys, damage):
        def edit(payload):
            service = payload[2][0]  # provenance is a service row's last item
            if damage == "missing_provenance":
                del service[5]
            else:
                row = next(r for r in service[5] if r[0] == "D9000419")
                row[4] = float("nan")  # idf_value
            return payload

        if damage == "deeply_nested":
            replace_index_payload(built_index, b"[" * 200_000)
        else:
            rewrite_index_payload(built_index, edit)
        code, out, err = run(
            capsys,
            "discover",
            TASK,
            "--lexicon",
            str(DATA / "lexicon.tsv"),
            "--taxonomy",
            str(DATA / "taxonomy.txt"),
            "--index",
            str(built_index),
        )
        assert code == 1
        assert out == ""
        assert str(built_index) in err
        assert "malformed index payload" in err
        assert "Traceback" not in err

    def test_overflowing_vector_norm_is_data_error(self, built_index, capsys):
        # Each weight is finite, but the sum of two squares is not, so such
        # weights are out of range.
        def inflate(payload):
            service = next(s for s in payload[2] if len(s[5]) > 1)
            for row in service[5]:
                row[3:5] = [1, 1e154]  # tf, idf_value
            return payload

        rewrite_index_payload(built_index, inflate)
        code, out, err = run(
            capsys,
            "discover",
            TASK,
            "--lexicon",
            str(DATA / "lexicon.tsv"),
            "--taxonomy",
            str(DATA / "taxonomy.txt"),
            "--index",
            str(built_index),
        )
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {built_index}: malformed index payload: service ")
        assert "provenance 0: field 'tf': out-of-range weight 1e+154 outside" in err
        assert "Traceback" not in err

    def test_lone_surrogate_in_index_is_data_error(self, built_index, capsys):
        def rename(payload):
            payload[2][0][0] = "Bad\ud800"  # the first service's name
            return payload

        rewrite_index_payload(built_index, rename)
        code, out, err = run(
            capsys,
            "discover",
            TASK,
            "--lexicon",
            str(DATA / "lexicon.tsv"),
            "--taxonomy",
            str(DATA / "taxonomy.txt"),
            "--index",
            str(built_index),
        )
        assert (code, out) == (1, "")
        assert err.startswith(
            f"error: {built_index}: malformed index payload: service 0: field 'name' "
        )
        assert "Traceback" not in err

    def test_invalid_weights(self, built_index, capsys):
        code, _, err = run(
            capsys,
            "discover",
            TASK,
            "--lexicon",
            str(DATA / "lexicon.tsv"),
            "--taxonomy",
            str(DATA / "taxonomy.txt"),
            "--index",
            str(built_index),
            "--w1",
            "0.5",
            "--w2",
            "0.8",
        )
        assert code == 2
        assert "error" in err

    def test_nan_weights_rejected(self, built_index, capsys):
        code, out, err = run(
            capsys,
            "discover",
            TASK,
            "--lexicon",
            str(DATA / "lexicon.tsv"),
            "--taxonomy",
            str(DATA / "taxonomy.txt"),
            "--index",
            str(built_index),
            "--w1",
            "nan",
            "--w2",
            "nan",
        )
        assert code == 2
        assert out == ""
        assert err == "error: weights must be finite, got nan, nan\n"


class TestSettingsPrecedence:
    def base_argv(self, built_index):
        return [
            "discover",
            TASK,
            "--lexicon",
            str(DATA / "lexicon.tsv"),
            "--taxonomy",
            str(DATA / "taxonomy.txt"),
            "--index",
            str(built_index),
        ]

    @staticmethod
    def result_count(out: str) -> int:
        return sum(
            1 for line in out.splitlines() if line and "\t" in line and "#" not in line
        ) - 1  # header row

    def test_config_file_applies(self, built_index, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        # A leading UTF-8 byte order mark is skipped, as in every input file.
        for bom in (b"", b"\xef\xbb\xbf"):
            config.write_bytes(bom + json.dumps({"top_k": 2}).encode())
            code, out, err = run(capsys, *self.base_argv(built_index), "--config", str(config))
            assert (code, err) == (0, "")
            assert self.result_count(out) == 2

    def test_env_overrides_config(self, built_index, tmp_path, capsys, monkeypatch):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"top_k": 2}))
        monkeypatch.setenv("SEMDISC_TOP_K", "3")
        code, out, _ = run(capsys, *self.base_argv(built_index), "--config", str(config))
        assert code == 0
        assert self.result_count(out) == 3

    def test_flag_overrides_env(self, built_index, capsys, monkeypatch):
        monkeypatch.setenv("SEMDISC_TOP_K", "3")
        code, out, _ = run(capsys, *self.base_argv(built_index), "--top-k", "1")
        assert code == 0
        assert self.result_count(out) == 1

    def test_config_via_environment(self, built_index, tmp_path, capsys, monkeypatch):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"top_k": 4}))
        monkeypatch.setenv("SEMDISC_CONFIG", str(config))
        code, out, _ = run(capsys, *self.base_argv(built_index))
        assert code == 0
        assert self.result_count(out) == 4

    def test_invalid_config_json(self, built_index, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text("{broken")
        code, _, err = run(capsys, *self.base_argv(built_index), "--config", str(config))
        assert code == 2
        assert "invalid JSON" in err

    def test_deeply_nested_config_json(self, built_index, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text("[" * 200_000)
        code, _, err = run(capsys, *self.base_argv(built_index), "--config", str(config))
        assert code == 2
        assert f"config file {config}: invalid JSON" in err
        assert "Traceback" not in err

    def test_undecodable_config(self, built_index, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_bytes(b'{"top_k": 2, "format": "\xff"}')
        code, _, err = run(capsys, *self.base_argv(built_index), "--config", str(config))
        assert code == 2
        assert err.startswith(f"error: config file {config}: not valid UTF-8: ")
        assert "Traceback" not in err

    def test_config_must_be_object(self, built_index, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text("[1, 2]")
        code, _, err = run(capsys, *self.base_argv(built_index), "--config", str(config))
        assert code == 2
        assert "JSON object" in err

    def test_missing_config_file(self, built_index, tmp_path, capsys):
        code, _, err = run(
            capsys,
            *self.base_argv(built_index),
            "--config",
            str(tmp_path / "absent.json"),
        )
        assert code == 2
        assert "config file not found" in err

    def test_invalid_env_number(self, built_index, capsys, monkeypatch):
        monkeypatch.setenv("SEMDISC_W1", "not-a-number")
        code, _, err = run(capsys, *self.base_argv(built_index))
        assert code == 2
        assert "invalid value for w1" in err

    def test_repeated_flag_is_usage_error(self, built_index, capsys):
        argv = [*self.base_argv(built_index), "--top-k", "1", "--top-k", "2"]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        captured = capsys.readouterr()
        assert excinfo.value.code == 2
        assert captured.out == ""
        assert "argument --top-k: given more than once" in captured.err

    def test_invalid_format_via_env(self, built_index, capsys, monkeypatch):
        monkeypatch.setenv("SEMDISC_FORMAT", "yaml")
        code, _, err = run(capsys, *self.base_argv(built_index))
        assert code == 2
        assert err == (
            "error: invalid value for format: 'yaml' (expected 'table' or 'records')\n"
        )


class TestSettingRanges:
    """Out-of-range settings are usage errors, found before any input loads."""

    @staticmethod
    def argv(command: str, tmp_path) -> list[str]:
        # Input paths that do not exist: a range error must come first.
        inputs = {
            "index build": ("lexicon", "registry", "index"),
            "annotate": ("lexicon", "taxonomy"),
            "discover": ("lexicon", "taxonomy", "index"),
        }[command]
        absent = [f"--{name}={tmp_path / name}" for name in inputs]
        if command == "index build":
            return ["index", "build", *absent]
        return [command, TASK, *absent]

    @pytest.mark.parametrize(
        "command, name, value",
        [
            ("index build", "threshold", "5"),
            ("index build", "threshold", "-1.5"),
            ("annotate", "threshold", "nan"),
            ("discover", "min_cscore", "1.5"),
            ("annotate", "min_cscore", "-0.1"),
            ("discover", "top_k", "0"),
            ("discover", "top_k_categories", "0"),
            ("annotate", "top_k_categories", "-3"),
        ],
    )
    def test_flag(self, tmp_path, capsys, command, name, value):
        flag = f"--{name.replace('_', '-')}={value}"
        code, out, err = run(capsys, *self.argv(command, tmp_path), flag)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: invalid value for {name}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "name, value",
        [
            ("top_k", "2.0"),
            ("w1", "abc"),
            ("threshold", "nan"),
            ("top_k_categories", "0"),
            ("format", "yaml"),
        ],
    )
    def test_same_error_from_every_source(self, tmp_path, capsys, monkeypatch, name, value):
        # discover annotates at its index's threshold, so has no flag for it.
        argv = self.argv("annotate" if name == "threshold" else "discover", tmp_path)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({name: value}))
        results = {}
        for source in ("flag", "environment", "config"):
            with monkeypatch.context() as patch:
                extra = []
                if source == "flag":
                    extra = [f"--{name.replace('_', '-')}", value]
                elif source == "environment":
                    patch.setenv(f"SEMDISC_{name.upper()}", value)
                else:
                    extra = [f"--config={config}"]
                results[source] = run(capsys, *argv, *extra)
        assert results["flag"] == results["environment"] == results["config"]
        code, out, err = results["flag"]
        assert (code, out) == (2, "")
        assert err.startswith(f"error: invalid value for {name}: ")
        assert err.count("\n") == 1

    def test_environment(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SEMDISC_TOP_K", "0")
        code, _, err = run(capsys, *self.argv("discover", tmp_path))
        assert code == 2
        assert err == "error: invalid value for top_k: 0 (expected an integer >= 1)\n"

    def test_config(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text('{"threshold": NaN}')
        argv = self.argv("index build", tmp_path)
        code, _, err = run(capsys, *argv, "--config", str(config))
        assert code == 2
        assert err.startswith("error: invalid value for threshold: nan ")

    @pytest.mark.parametrize(
        "values, message",
        [
            ({"top_k_categories": "1e999"}, "invalid value for top_k_categories: "),
            ({"min_cscore": "9" * 400}, "invalid value for min_cscore: "),
            ({"top_k": "true"}, "invalid value for top_k: "),
            ({"top_k": "2.7"}, "invalid value for top_k: "),
            ({"w1": "false", "w2": "1"}, "invalid value for w1: "),
            ({"requirements": "5"}, "invalid value for requirements: "),
            ({"format": '["table"]'}, "invalid value for format: "),
            # Past the interpreter's limit on digits in an integer literal.
            ({"threshold": "9" * 5000}, "config file {config}: invalid JSON: "),
        ],
    )
    def test_config_wrong_json_value(self, tmp_path, capsys, values, message):
        config = tmp_path / "cfg.json"
        config.write_text("{" + ", ".join(f'"{k}": {v}' for k, v in values.items()) + "}")
        code, out, err = run(capsys, *self.argv("discover", tmp_path), f"--config={config}")
        assert (code, out) == (2, "")
        assert err.startswith("error: " + message.format(config=config))
        assert "Traceback" not in err

    def test_config_integral_float_count(self, built_index, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text('{"top_k": 2.0}')
        code, out, err = run(
            capsys,
            "discover",
            TASK,
            f"--lexicon={DATA / 'lexicon.tsv'}",
            f"--taxonomy={DATA / 'taxonomy.txt'}",
            f"--index={built_index}",
            f"--config={config}",
        )
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 4

    @pytest.mark.parametrize("command", ["annotate", "discover"])
    def test_task_text_not_utf8(self, tmp_path, capsys, command):
        # Argument bytes that are not UTF-8 reach argv as lone surrogates.
        argv = self.argv(command, tmp_path)
        argv[1] = "prot\udcffein"
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: task text cannot be encoded as UTF-8\n"
        # A new interpreter in UTF-8 mode decodes the byte itself that way.
        argv[1] = b"prot\xffein"
        proc = run_process(*argv, PYTHONUTF8="1")
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr == err.encode()

    @pytest.mark.parametrize("command", ["annotate", "discover"])
    @pytest.mark.parametrize(
        "text",
        [f"{TASK}\nFAKE\t1\t2\t3\t4", f"{TASK}\n", f"{TASK}\r", f"{TASK}\u2028x"],
        ids=["forged_row", "trailing_line_feed", "carriage_return", "line_separator"],
    )
    def test_task_text_with_line_break(self, tmp_path, capsys, command, text):
        # Table output prints the task on one line, so a break could
        # forge result rows under it.
        argv = self.argv(command, tmp_path)
        argv[1] = text
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: task text must be one line\n"

    @pytest.mark.parametrize(
        "name, value", [("threshold", "-1"), ("min_cscore", "1"), ("top_k", "1")]
    )
    def test_bounds_are_inclusive(self, built_index, capsys, name, value):
        flag = f"--{name.replace('_', '-')}={value}"
        inputs = [f"--lexicon={DATA / 'lexicon.tsv'}", f"--taxonomy={DATA / 'taxonomy.txt'}"]
        if name == "threshold":
            # discover annotates at its index's threshold, so has no flag for it.
            argv = ["annotate", TASK, *inputs, flag]
        else:
            argv = ["discover", TASK, *inputs, f"--index={built_index}", flag]
        code, _, err = run(capsys, *argv)
        assert (code, err) == (0, "")


class TestOnlyOwnSettingsRead:
    """A command reads only the settings it has flags for, so a value
    another command would reject changes nothing."""

    @staticmethod
    def argv(command: str, built_index, tmp_path) -> list[str]:
        lexicon = f"--lexicon={DATA / 'lexicon.tsv'}"
        taxonomy = f"--taxonomy={DATA / 'taxonomy.txt'}"
        if command == "index build":
            registry = f"--registry={DATA / 'services.jsonl'}"
            return ["index", "build", lexicon, registry, f"--index={tmp_path / 'out.idx'}"]
        if command == "annotate":
            return ["annotate", TASK, lexicon, taxonomy]
        return ["discover", TASK, lexicon, taxonomy, f"--index={built_index}"]

    @pytest.mark.parametrize(
        "command, name, value",
        [
            ("discover", "threshold", "nan"),
            ("annotate", "w1", "abc"),
            ("index build", "format", "yaml"),
        ],
    )
    def test_environment(self, built_index, tmp_path, capsys, monkeypatch, command, name, value):
        argv = self.argv(command, built_index, tmp_path)
        code, out, err = expected = run(capsys, *argv)
        assert (code, err) == (0, "") and out
        monkeypatch.setenv(f"SEMDISC_{name.upper()}", value)
        assert run(capsys, *argv) == expected

    def test_config(self, built_index, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text('{"top_k": 0}')
        argv = self.argv("index build", built_index, tmp_path)
        code, out, err = expected = run(capsys, *argv)
        assert (code, err) == (0, "") and out
        assert run(capsys, *argv, f"--config={config}") == expected


class TestUsageCheckedBeforeLoading:
    """Usage errors exit 2 before any input file loads, so a malformed
    lexicon cannot hide them behind its own error."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["discover", TASK, "--index={absent}"], "index not found: {absent}"),
            (["discover", "--index={index}"], "task text or --requirements required"),
            (
                ["discover", TASK, "--index={index}", "--requirements={outline}"],
                "give either task text or --requirements, not both",
            ),
            (
                ["discover", "--index={index}", "--requirements={absent}"],
                "requirements not found: {absent}",
            ),
            (["annotate"], "task text or --requirements required"),
            (
                ["annotate", TASK, "--requirements={outline}"],
                "give either task text or --requirements, not both",
            ),
        ],
        ids=[
            "discover_absent_index",
            "discover_no_task_source",
            "discover_text_and_requirements",
            "discover_absent_requirements",
            "annotate_no_task_source",
            "annotate_text_and_requirements",
        ],
    )
    def test_with_malformed_lexicon(self, built_index, tmp_path, capsys, argv, message):
        lexicon = tmp_path / "bad.tsv"
        lexicon.write_text("C1\tumls\n")
        paths = {
            "absent": tmp_path / "absent",
            "index": built_index,
            "outline": DATA / "requirements.txt",
        }
        argv = [arg.format(**paths) for arg in argv]
        extra = [f"--lexicon={lexicon}", f"--taxonomy={DATA / 'taxonomy.txt'}"]
        code, out, err = run(capsys, *argv, *extra)
        assert (code, out) == (2, "")
        assert err == f"error: {message.format(**paths)}\n"

    def test_index_directory_with_malformed_lexicon(self, tmp_path, capsys):
        lexicon = tmp_path / "bad.tsv"
        lexicon.write_text("C1\tumls\n")
        directory = tmp_path / "absent"
        code, out, err = run(
            capsys,
            "index",
            "build",
            f"--lexicon={lexicon}",
            f"--registry={DATA / 'services.jsonl'}",
            f"--index={directory / 'x.idx'}",
        )
        assert (code, out) == (2, "")
        assert err == f"error: index directory not found: {directory}\n"
        assert not directory.exists()


    def test_index_that_is_a_directory_with_malformed_lexicon(self, tmp_path, capsys):
        lexicon = tmp_path / "bad.tsv"
        lexicon.write_text("C1\tumls\n")
        directory = tmp_path / "existing"
        directory.mkdir()
        code, out, err = run(
            capsys,
            "index",
            "build",
            f"--lexicon={lexicon}",
            f"--registry={DATA / 'services.jsonl'}",
            f"--index={directory}",
        )
        assert (code, out) == (2, "")
        assert err == f"error: index is a directory: {directory}\n"
        assert list(directory.iterdir()) == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.tsv", "existing"]


class TestServiceNamesInTable:
    """A service name, concept id, lexical form or category name prints as
    one field of one table row, whatever it holds, so none can forge rows."""

    @settings(max_examples=60, deadline=None)
    @given(names=st.lists(st.text(min_size=1, max_size=12), min_size=1, max_size=4))
    def test_one_row_of_five_fields_per_result(
        self, tmp_path_factory, demo_lexicon, demo_taxonomy, names
    ):
        try:
            records = [
                ServiceRecord(name, TASK, None, (), ("Protein Sequence Analysis",))
                for name in names
            ]
            index = build_index(records, demo_lexicon)
        except ValueError:
            assume(False)
        path = tmp_path_factory.getbasetemp() / "names.idx"
        save_index(index, path)
        results = discover(TASK, demo_lexicon, demo_taxonomy, index)
        assert results
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main([
                "discover",
                TASK,
                f"--lexicon={DATA / 'lexicon.tsv'}",
                f"--taxonomy={DATA / 'taxonomy.txt'}",
                f"--index={path}",
            ])
        assert code == 0
        lines = stdout.getvalue().splitlines()
        assert len(lines) == 2 + len(results)
        assert all(len(line.split("\t")) == 5 for line in lines[2:])

    # Text rich in what could break a row: tabs, line breaks of every kind
    # and the ',' that joins the concept ids of one cell.
    _piece = st.text(
        st.sampled_from("\t\n\r\x0b\x1c\x85\u2028\u2029,") | st.characters(), max_size=4
    )

    @staticmethod
    def _or_plain(make, value: str, plain: str) -> str:
        """``value``, or ``plain`` where ``make(value)`` rejects it."""
        try:
            make(value)
        except ValueError:
            return plain
        return value

    @settings(max_examples=60, deadline=None)
    @given(cid=_piece, form=_piece, category=_piece)
    def test_drawn_concepts_and_categories_print_as_cells(
        self, tmp_path_factory, cid, form, category
    ):
        # A drawn value the API rejects is replaced by a plain one.
        cid = self._or_plain(lambda v: Concept(v, frozenset({"x"})), f"X{cid}", "X")
        form = self._or_plain(
            lambda v: Concept("X", frozenset({v})), f"{form} protein", "protein"
        )
        name = self._or_plain(
            lambda v: CategoryTaxonomy([v]), f"Protein{category}Search", "Protein Search"
        )
        base = tmp_path_factory.getbasetemp()
        lexicon_path, taxonomy_path = base / "cells.tsv", base / "cells.txt"
        lexicon_path.write_text(
            f"{cid}\tumls\t{form}\nC1\tumls\tprotein sequences\nC2\tumls\tdomains\n",
            encoding="utf-8",
        )
        taxonomy_path.write_text(f"{name}\nSequence Analysis\n", encoding="utf-8")
        lexicon = load_lexicon(lexicon_path)
        index_path = base / "cells.idx"
        record = ServiceRecord("A", "protein sequences domains", None, (), (name,))
        save_index(build_index([record], lexicon, threshold=-1.0), index_path)
        inputs = [f"--lexicon={lexicon_path}", f"--taxonomy={taxonomy_path}"]

        def stdout_lines(*argv: str) -> list[str]:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                assert main(list(argv)) == 0
            return stdout.getvalue().splitlines()

        # Every concept shares a task word, so at threshold -1 all three
        # print, and at min c_score 0 both categories do.
        lines = stdout_lines("annotate", TASK, *inputs, "--threshold=-1", "--min-cscore=0")
        assert [len(line.split("\t")) for line in lines[1:]] == [6, 6, 6, 6, 2, 2, 2]
        lines = stdout_lines("discover", TASK, *inputs, f"--index={index_path}")
        assert len(lines) == 3
        assert len(lines[2].split("\t")) == 5
        assert set(lines[2].split("\t")[1].split(",")) == {c.id for c in lexicon.concepts}


class TestEmptyRequirements:
    def test_no_tasks_is_data_error(self, tmp_path, capsys):
        outline = tmp_path / "empty.txt"
        outline.write_text("goal: Nothing concrete yet\n")
        code, _, err = run(
            capsys,
            "annotate",
            "--lexicon",
            str(DATA / "lexicon.tsv"),
            "--requirements",
            str(outline),
        )
        assert code == 1
        assert "no tasks" in err

    def test_comment_only_outline_reported_once(self, built_index, tmp_path, capsys, caplog):
        outline = tmp_path / "empty.txt"
        outline.write_text("# nothing planned yet\n")
        with caplog.at_level("DEBUG"):
            code, out, err = run(
                capsys,
                "discover",
                f"--lexicon={DATA / 'lexicon.tsv'}",
                f"--taxonomy={DATA / 'taxonomy.txt'}",
                f"--index={built_index}",
                f"--requirements={outline}",
            )
        assert (code, out) == (1, "")
        assert err == "error: requirements file contains no tasks\n"
        assert caplog.records == []


class TestGcStateRestored:
    """The loaders and ``main`` pause cyclic GC while they build, and leave
    it as they found it, whether they return or raise."""

    @pytest.fixture()
    def inputs(self, tmp_path, built_index):
        bad_lexicon = tmp_path / "bad.tsv"
        bad_lexicon.write_text("C1\tumls\n")
        bad_registry = tmp_path / "bad.jsonl"
        bad_registry.write_text('{"name": 5}\n')
        repeated = tmp_path / "repeated.idx"
        repeated.write_bytes(built_index.read_bytes())
        rewrite_index_payload(
            repeated, lambda payload: [*payload[:2], [*payload[2], payload[2][0]]]
        )
        return {
            "load_lexicon": (DATA / "lexicon.tsv", bad_lexicon),
            "ingest_registry": (DATA / "services.jsonl", bad_registry),
            "load_index": (built_index, repeated),
        }

    @pytest.fixture(params=[True, False], ids=["gc_on", "gc_off"])
    def gc_enabled(self, request):
        (gc.enable if request.param else gc.disable)()
        yield request.param
        gc.enable()

    @pytest.mark.parametrize("malformed", [False, True], ids=["valid", "malformed"])
    @pytest.mark.parametrize("loader", ["load_lexicon", "ingest_registry", "load_index"])
    def test_loader(self, inputs, gc_enabled, loader, malformed):
        with pytest.raises(ValueError) if malformed else contextlib.nullcontext():
            getattr(semdisc, loader)(inputs[loader][malformed])
        assert gc.isenabled() is gc_enabled

    @pytest.mark.parametrize("malformed", [False, True], ids=["valid", "malformed"])
    def test_main(self, inputs, gc_enabled, capsys, malformed):
        code, out, err = run(
            capsys,
            "discover",
            TASK,
            f"--lexicon={DATA / 'lexicon.tsv'}",
            f"--taxonomy={DATA / 'taxonomy.txt'}",
            f"--index={inputs['load_index'][malformed]}",
        )
        assert gc.isenabled() is gc_enabled
        if malformed:
            assert (code, out) == (1, "")
            assert "malformed index payload: duplicate service names: " in err
        else:
            assert code == 0 and "GlobPlot" in out


class TestReadFailure:
    def test_os_error_is_one_error_line(self, capsys, monkeypatch):
        path = DATA / "lexicon.tsv"

        def failing(lexicon_path):
            raise OSError(errno.EIO, os.strerror(errno.EIO), str(lexicon_path))

        monkeypatch.setattr("semdisc.cli.load_lexicon", failing)
        code, out, err = run(
            capsys, "annotate", TASK, f"--lexicon={path}", f"--taxonomy={DATA / 'taxonomy.txt'}"
        )
        assert (code, out) == (1, "")
        assert err == f"error: [Errno {errno.EIO}] {os.strerror(errno.EIO)}: {str(path)!r}\n"


class TestUnencodableOutput:
    """Output that stdout's encoding cannot encode is a data error: exit 1
    and one error line, not a traceback."""

    @staticmethod
    def run_encoded(capsys, monkeypatch, encoding: str, *argv: str) -> tuple[int, str]:
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(io.BytesIO(), encoding=encoding))
        code = main(list(argv))
        return code, capsys.readouterr().err

    @staticmethod
    def assert_one_error_line(err: str) -> None:
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err

    def test_non_ascii_task_text_in_an_ascii_table(self, capsys, monkeypatch):
        argv = ["annotate", "protéine domains", "--lexicon", str(DATA / "lexicon.tsv")]
        code, err = self.run_encoded(capsys, monkeypatch, "ascii", *argv)
        assert code == 1
        self.assert_one_error_line(err)
        assert "'ascii' codec can't encode" in err
        # The same from a new interpreter whose stdout is ASCII.
        proc = run_process(*argv, PYTHONIOENCODING="ascii")
        assert (proc.returncode, proc.stdout, proc.stderr.decode()) == (1, b"", err)

    def test_undecodable_index_path_under_strict_utf8(self, tmp_path, capsys, monkeypatch):
        # An undecodable argv byte arrives as a lone surrogate.
        index = tmp_path / "demo\udcff.idx"
        code, err = self.run_encoded(
            capsys, monkeypatch, "utf-8",
            "index", "build", "--lexicon", str(DATA / "lexicon.tsv"),
            "--registry", str(DATA / "services.jsonl"), "--index", str(index),
        )
        assert code == 1
        self.assert_one_error_line(err)
        assert "surrogates not allowed" in err
        # The summary follows the write.
        assert index.is_file()


# Bytes that matter to some input format, including broken UTF-8, a byte
# order mark and U+2028.
_PIECES = [
    b"\x00", b"\t", b"\n", b"\r", b" ", b"#", b",", b'"', b"\\", b"[", b"]", b"{", b"}",
    b":", b"-", b"0", b"9", b"e", b"\xc3", b"\xff", b"\xef\xbb\xbf", b"\xe2\x80\xa8",
]


def _mutate(rng: random.Random, blob: bytes) -> bytes:
    """``blob`` with one to three spans deleted, inserted, overwritten or repeated."""
    for _ in range(rng.randint(1, 3)):
        pos = rng.randrange(len(blob) + 1)
        end = min(len(blob), pos + rng.randint(1, 8))
        kind = rng.choice(["delete", "insert", "overwrite", "repeat"])
        if kind == "delete":
            blob = blob[:pos] + blob[end:]
        elif kind == "insert":
            blob = blob[:pos] + rng.choice(_PIECES) + blob[pos:]
        elif kind == "overwrite":
            blob = blob[:pos] + rng.choice(_PIECES) + blob[pos + 1:]
        else:
            blob = blob[:end] + blob[pos:end] + blob[end:]
    return blob


class TestMutatedInputs:
    """A seeded byte-mutation fuzz of ``main``: one input mutated at a time,
    then ``index build``, ``annotate`` and ``discover`` run on it."""

    MUTATIONS = 66  # three calls each

    def test_every_call_exits_with_a_code_and_one_error_line(self, tmp_path, built_index, capsys):
        config = {"threshold": 0.8, "min_cscore": 0.4, "top_k": 3, "top_k_categories": 2,
                  "w1": 0.2, "w2": 0.8, "format": "table"}
        raw = built_index.read_bytes()
        originals = {
            "lexicon": (DATA / "lexicon.tsv").read_bytes(),
            "taxonomy": (DATA / "taxonomy.txt").read_bytes(),
            "requirements": (DATA / "requirements.txt").read_bytes(),
            "registry": (DATA / "services.jsonl").read_bytes(),
            "config": json.dumps(config).encode(),
            "index": raw[8:-32],  # the payload; the checksum is recomputed
        }
        paths = {name: tmp_path / name for name in originals}
        flags = {name: f"--{name}={path}" for name, path in paths.items()}
        commands = [
            ["index", "build", flags["lexicon"], flags["registry"],
             f"--index={tmp_path / 'built.idx'}"],
            ["annotate", flags["requirements"], flags["lexicon"], flags["taxonomy"]],
            ["discover", flags["requirements"], flags["lexicon"], flags["taxonomy"],
             flags["index"]],
        ]
        rng = random.Random(22)
        for trial in range(self.MUTATIONS):
            target = rng.choice(sorted(originals))
            for name, blob in originals.items():
                if name == target:
                    blob = _mutate(rng, blob)
                if name == "index":
                    write_index_body(paths[name], raw[:8] + blob)
                else:
                    paths[name].write_bytes(blob)
            for argv in commands:
                where = f"trial {trial}, {target} mutated, {argv[0]}"
                try:
                    code, _, err = run(capsys, *argv, flags["config"])
                except (Exception, SystemExit) as exc:
                    pytest.fail(f"{where}: raised {exc!r}")
                errors = [line for line in err.splitlines() if line.startswith("error:")]
                assert code in (0, 1, 2), where
                if code:
                    assert err.endswith("\n") and errors == err.splitlines()[-1:], where
                else:
                    assert errors == [], where


def test_cli_import_loads_neither_dataclasses_nor_inspect_nor_logging():
    src = str(Path(semdisc.__file__).resolve().parent.parent)
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import semdisc.cli; "
        "print(sorted({'dataclasses', 'inspect', 'logging'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, src], capture_output=True, text=True, timeout=120
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
