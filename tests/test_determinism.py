"""Byte-for-byte determinism at benchmark scale.

A seeded workload is generated here, calling only the ``random.Random``
draws that give the same values on every supported Python: ``choice``,
``choices``, ``sample``, ``shuffle`` and an int ``randrange``.  It holds
hub words found in many forms and every service text, services sharing
one text (so their scores tie and only names order them), and a few
categories shared by many services.  The CLI then builds an index,
discovers the outline and annotates it at threshold -1 in fresh
interpreters under two hash seeds.  Three SHA-256 values are pinned: the
inputs (a change here means the generator drifted), the index bytes and
the two stdouts (a change there means semdisc did).
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import semdisc

SYLLABLES = "ba ce di fo gu ha ki lo mu ne pi ro su ta ve wi xo yu za".split()
CATEGORY_WORDS = "sequence protein gene analysis alignment structure motif domain".split()

INPUTS_SHA256 = "ab5b6015741b0b9cd82988a5b79130c4714232ace5ba9453223e3d3056b3a6bc"
INDEX_SHA256 = "2162fb6e1fd6237558e7ebc1ae44a17a5de57d0f22296ff793f281d56c992ee7"
OUTPUT_SHA256 = "cc4869d10498352967f22ebffc034f168f01aaa5b108b7433066aeb9ff065dc3"


def _words(rng: random.Random, count: int) -> list[str]:
    words: set[str] = set()
    while len(words) < count:
        words.add("".join(rng.choices(SYLLABLES, k=rng.randrange(2, 5))))
    return sorted(words)


def generate(out: Path) -> dict[str, Path]:
    """Write the workload's four input files into ``out``; return their paths."""
    rng = random.Random("semdisc-determinism")
    vocab = _words(rng, 400)
    rng.shuffle(vocab)
    hubs, common, rare = vocab[:4], vocab[4:40], vocab[40:]

    def form() -> str:
        pool = rng.choice((common, rare, rare))
        return " ".join(rng.sample(pool, rng.choice((1, 2, 2, 3))))

    forms = {f"C{i:04d}": {form() for _ in range(rng.randrange(1, 4))} for i in range(300)}
    for hub in hubs:
        for cid in rng.sample(sorted(forms), 60):
            forms[cid].add(f"{hub} {rng.choice(common)}")
    categories = sorted(
        {" ".join(rng.sample(CATEGORY_WORDS, rng.choice((2, 3)))).title() for _ in range(20)}
    )
    services, description = [], ""
    for pos in range(200):
        # Every fifth service repeats the text before it, so scores tie.
        if pos % 5 != 1:
            chunks = [rng.choice(sorted(forms[cid])) for cid in rng.sample(sorted(forms), 4)]
            chunks += rng.sample(hubs, 2) + rng.sample(rare, 3)
            rng.shuffle(chunks)
            description = " ".join(chunks).capitalize() + "."
        services.append({
            "name": f"S{pos:04d}",
            "description": description,
            "categories": rng.sample(categories[:6], rng.choice((1, 2))),
        })
    outline = ["goal: Survey the family"]
    for t in range(12):
        if t % 4 == 0:
            outline.append(f"  subgoal: Step {t // 4}")
        words = rng.choice(categories).lower().split()
        chunks = words[rng.randrange(len(words)) :] + [rng.choice(hubs)]
        chunks += [rng.choice(sorted(forms[cid])) for cid in rng.sample(sorted(forms), 2)]
        outline.append("    task: " + " ".join(chunks).capitalize())
    files = {
        "lexicon": "".join(
            f"{cid}\tumls\t{f}\n" for cid in sorted(forms) for f in sorted(forms[cid])
        ),
        "taxonomy": "".join(f"{name}\n" for name in categories),
        "registry": "".join(json.dumps(s, sort_keys=True) + "\n" for s in services),
        "requirements": "\n".join(outline) + "\n",
    }
    paths = {}
    for name, text in files.items():
        paths[name] = out / f"{name}.txt"
        paths[name].write_text(text, encoding="utf-8")
    return paths


def _sha256(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(len(chunk).to_bytes(8, "big") + chunk)
    return digest.hexdigest()


def _semdisc(hash_seed: str, *argv: object) -> bytes:
    src = str(Path(semdisc.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if not k.startswith("SEMDISC_")}
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "semdisc.cli", *map(str, argv)]
    proc = subprocess.run(command, env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_benchmark_scale_outputs_pinned_under_two_hash_seeds(tmp_path):
    paths = generate(tmp_path)
    assert _sha256(*(paths[name].read_bytes() for name in sorted(paths))) == INPUTS_SHA256
    lexicon, taxonomy, outline = paths["lexicon"], paths["taxonomy"], paths["requirements"]
    for hash_seed in ("0", "1"):
        index = tmp_path / f"index-{hash_seed}.idx"
        _semdisc(
            hash_seed, "index", "build", "--lexicon", lexicon,
            "--registry", paths["registry"], "--index", index,
        )
        assert _sha256(index.read_bytes()) == INDEX_SHA256, hash_seed
        discovered = _semdisc(
            hash_seed, "discover", "--requirements", outline, "--format", "records",
            "--lexicon", lexicon, "--taxonomy", taxonomy, "--index", index,
        )
        annotated = _semdisc(
            hash_seed, "annotate", "--requirements", outline, "--format", "records",
            "--threshold", "-1", "--lexicon", lexicon, "--taxonomy", taxonomy,
        )
        assert _sha256(discovered, annotated) == OUTPUT_SHA256, hash_seed
