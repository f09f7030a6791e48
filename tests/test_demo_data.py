"""The demo-data generator still reproduces the committed dataset."""
from __future__ import annotations

import runpy
import sys

from conftest import DATA

FILES = ("lexicon.tsv", "services.jsonl", "taxonomy.txt", "requirements.txt")


def test_generator_writes_committed_files(tmp_path, monkeypatch):
    script = DATA / "make_demo_data.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--out", str(tmp_path)])
    runpy.run_path(str(script), run_name="__main__")
    for name in FILES:
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name
