"""Stage benchmark for semdisc.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        One run of one workload.  The last line of stdout is one JSON
        object: {"correct", "attempted", "failed", "metrics"}; with
        --trace 0 the metrics are the end-to-end ones, with --trace 1 the
        per-layer ones.
    python3 perfbench/run.py [--workload all] [--seed N] [--repeat R] [--out FILE]
        Every workload (R runs each, seeds N..N+R-1) as a table of
        workload, metric, value and unit, including error_rate and the
        ranking digest.  --out saves the runs for --compare.
    python3 perfbench/run.py --compare BEFORE.json AFTER.json
        One row per workload and metric: each side's median and quartiles
        and a verdict (improved, unchanged, worse or unresolved).
    python3 perfbench/run.py --write-manifest
        Regenerate BENCHMARK.json from perfbench/workloads.py.

Inputs are generated from the seed into .perfbench_work/ under the
repository root and removed afterwards (--keep leaves them, with the
spans of a traced run).  Every run measures in a fresh interpreter
(perfbench/worker.py).  Exit status is 0 when every run printed a
result, 1 when a run failed and 2 for usage errors or a tree without
semdisc's sources and demo data.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKER = HERE / "worker.py"
# A run must end within 180 s; keep a margin for generation and exit.
WORKER_TIMEOUT_S = 165.0

import compare  # noqa: E402
import inputs  # noqa: E402
from workloads import RUN_SECONDS, WORKLOADS, manifest  # noqa: E402

REQUIRED = ("src/semdisc/__init__.py", "tests/data/lexicon.tsv", "tests/data/services.jsonl")


def _worker_env() -> dict[str, str]:
    # SEMDISC_* settings would change what the CLI does; a fixed hash seed
    # keeps set and dict layouts, and so timings, alike across runs.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SEMDISC_")}
    env["PYTHONHASHSEED"] = "0"
    return env


def run_once(
    workload: str, seed: int, seconds: float, trace: int, keep: bool, shape=None
) -> dict:
    """Generate the inputs, run the worker; return its parsed result.

    ``shape`` replaces the workload's sizes (see inputs.generate).
    Raises RuntimeError when the worker fails or prints no result.
    """
    started = time.monotonic()
    work = WORK / f"{workload}-{seed}-{trace}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    try:
        names = inputs.generate(workload, seed, work, shape)
        (work / "inputs.json").write_text(
            json.dumps({"workload": workload, "seed": seed, **names}, indent=1), "utf-8"
        )
        env = _worker_env()
        subprocess.run(
            [sys.executable, str(WORKER), str(work), "--prepare"],
            env=env, check=True, timeout=WORKER_TIMEOUT_S,
        )
        remaining = WORKER_TIMEOUT_S - (time.monotonic() - started)
        proc = subprocess.run(
            [sys.executable, str(WORKER), str(work),
             "--seconds", str(seconds), "--trace", str(trace)],
            env=env, stdout=subprocess.PIPE, text=True, timeout=max(remaining, 1.0),
        )
    except (OSError, subprocess.SubprocessError) as exc:
        raise RuntimeError(f"{workload}: {exc}") from exc
    finally:
        if not keep:
            shutil.rmtree(work, ignore_errors=True)
            with contextlib.suppress(OSError):
                WORK.rmdir()
    lines = proc.stdout.splitlines()
    try:
        if proc.returncode != 0 or not lines:
            raise ValueError(f"worker exited with status {proc.returncode}")
        result = json.loads(lines[-1])
    except ValueError as exc:
        sys.stderr.write(proc.stdout)
        raise RuntimeError(f"{workload}: {exc}") from exc
    digest = next((ln.split("sha256=")[1] for ln in lines if ln.startswith("digest ")), "")
    return {"workload": workload, "seed": seed, "trace": trace, "digest": digest,
            "info": lines[:-1], **result}


def _print_table(runs: list[dict]) -> None:
    print(f"{'workload':<18} {'seed':>4}  {'metric':<28} {'value':>14}  unit")
    for run in runs:
        rows = [(k, v["value"], v["unit"]) for k, v in run["metrics"].items()]
        rows.append(("error_rate", run["failed"] / run["attempted"], "ratio"))
        for name, value, unit in rows:
            print(f"{run['workload']:<18} {run['seed']:>4}  {name:<28} {value:>14.6g}  {unit}")
        print(f"{run['workload']:<18} {run['seed']:>4}  {'digest':<28} {run['digest'][:14]:>14}  sha256")
        for line in run["info"]:
            if not line.startswith("digest "):
                print(f"{run['workload']:<18} {run['seed']:>4}  {line}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Stage benchmark for semdisc.",
        epilog="See the module docstring of perfbench/run.py for the modes.",
    )
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--keep", action="store_true")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BEFORE", "AFTER"))
    parser.add_argument("--write-manifest", action="store_true")
    args = parser.parse_args(argv)

    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n", "utf-8")
        return 0
    if args.compare:
        before, after = (json.loads(p.read_text("utf-8"))["runs"] for p in args.compare)
        compare.print_report(before, after)
        return 0
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a semdisc checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.repeat < 1 or args.seconds <= 0:
        parser.error("--repeat and --seconds must be positive")

    if args.workload != "all":
        try:
            result = run_once(args.workload, args.seed, args.seconds, args.trace, args.keep)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        for line in result["info"]:
            print(line)
        print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
        return 0

    runs = []
    status = 0
    for name in WORKLOADS:
        for seed in range(args.seed, args.seed + args.repeat):
            try:
                runs.append(run_once(name, seed, args.seconds, args.trace, args.keep))
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                status = 1
    _print_table(runs)
    if args.out:
        args.out.write_text(json.dumps({"runs": runs}, indent=1) + "\n", "utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
