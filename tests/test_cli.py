"""Command-line behavior: commands, formats, precedence, exit codes."""
from __future__ import annotations

import json

import pytest

from semdisc import load_lexicon
from semdisc.cli import main

from conftest import DATA, replace_index_payload, rewrite_index_payload

TASK = "Analyze domains in protein sequences"


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    @pytest.mark.parametrize(
        "damage", ["missing_provenance", "non_finite_number", "deeply_nested"]
    )
    def test_malformed_index_is_data_error(self, built_index, capsys, damage):
        def edit(payload):
            if damage == "missing_provenance":
                del payload["services"][0]["provenance"]
            else:
                provenance = payload["services"][0]["provenance"]
                provenance["D9000419"]["idf_value"] = float("nan")
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
        config.write_text(json.dumps({"top_k": 2}))
        code, out, _ = run(capsys, *self.base_argv(built_index), "--config", str(config))
        assert code == 0
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

    def test_invalid_format_via_env(self, built_index, capsys, monkeypatch):
        monkeypatch.setenv("SEMDISC_FORMAT", "yaml")
        code, _, err = run(capsys, *self.base_argv(built_index))
        assert code == 2
        assert "invalid format" in err


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
