"""Measure one workload in a fresh interpreter.

    python3 perfbench/worker.py DIR --prepare
    python3 perfbench/worker.py DIR --seconds S --trace 0|1

DIR holds the inputs ``inputs.generate`` wrote.  ``--prepare`` builds the
query index ``DIR/index.idx`` from the first registry shard; that is
input generation and is not timed.  Otherwise the worker runs the
workload as a closed loop with one client and no think time, checks
every output, and prints one JSON object as the last line of stdout.

Untraced (``--trace 0``) the worker loads the inputs SETUP_LOADS times,
then runs the build, discover and CLI phases in turn, each for its share
of S seconds and at least until its sample floor is met; every timing is
corrected for the host's speed (see hostspeed.py) and the result holds
the end-to-end metrics.  Traced (``--trace 1``) a fixed amount of work
(set-up, one pass over the build chunks, one pass over the task stream and a
fixed number of CLI calls) runs once untraced and once with spans
recorded, so work counters repeat exactly for a seed; the result holds
the per-layer metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import spans  # noqa: E402
from semdisc import cli, lexicon, ranker, registry, taxonomy  # noqa: E402
from workloads import (  # noqa: E402
    BUILD_CHUNK,
    END_TO_END,
    MIN_CLI_CALLS,
    MIN_DISCOVER_CALLS,
    ORACLE_SAMPLE,
    PER_LAYER,
    SETUP_LOADS,
    WORKLOADS,
)

# A phase that has not met its sample floor by then stops anyway, so a
# run ends within the time its caller allows.
PHASE_CAP_S = 40.0
# Largest change in the host's speed across a call that still lets the
# call count as a sample (see Run.op).
STEADY_TOLERANCE = 0.2


class Run:
    """State of one workload run: loaded inputs, outputs seen, failures."""

    def __init__(self, directory: Path, correct_speed: bool) -> None:
        self.dir = directory
        self.correct_speed = correct_speed
        self.inputs = json.loads((directory / "inputs.json").read_text("utf-8"))
        self.workload = WORKLOADS[self.inputs["workload"]]
        self.tasks = (directory / "tasks.txt").read_text("utf-8").splitlines()
        self.tracer: spans.Tracer | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.rankings: list = [None] * len(self.tasks)
        self.cli_output: str | None = None
        self.chunk_bytes: dict[int, bytes] = {}
        self.reset_measurements()
        self.cli_argv = [
            "discover",
            "--requirements", str(directory / self.inputs["requirements"]),
            "--lexicon", str(directory / self.inputs["lexicon"]),
            "--taxonomy", str(directory / self.inputs["taxonomy"]),
            "--index", str(directory / "index.idx"),
            "--format", "records",
        ]

    def reset_measurements(self) -> None:
        self.reading: float | None = None
        self.slowdowns: list[float] = []
        self.setup_times: list[float] = []
        self.builds = 0
        self.build_samples = 0
        self.built_services = 0
        self.build_seconds = 0.0
        self.discover_calls = 0
        self.discover_latencies: list[float] = []
        self.cli_calls = 0
        self.cli_latencies: list[float] = []

    # ------------------------------------------------------------ helpers

    def fail(self, problem: str) -> None:
        """Count one failed operation or output check."""
        self.failed += 1
        self.problems.append(problem)

    def op(self, fn):
        """Run one operation; return (seconds, result), result None on error.

        The seconds are divided by the host's slowdown, the mean of the
        readings just before and just after the call (see hostspeed); in
        a loop of calls one reading serves as the after of one call and
        the before of the next.
        They are None when those readings differ by more than
        STEADY_TOLERANCE: the host changed speed during the call, so no
        single correction fits it, and the call is not a sample.  Without
        ``correct_speed`` (traced runs) they are the plain wall time.
        """
        self.attempted += 1
        if self.correct_speed and self.reading is None:
            self.reading = hostspeed.slowdown()
        before = self.reading
        span = contextlib.nullcontext()
        if self.tracer is not None:
            self.tracer.request += 1
            span = self.tracer.span("bench.request")
        try:
            with span:
                start = time.perf_counter()
                result = fn()
                elapsed = time.perf_counter() - start
        except Exception:
            self.fail(traceback.format_exc())
            return 0.0, None
        if not self.correct_speed:
            return elapsed, result
        after = self.reading = hostspeed.slowdown()
        self.slowdowns.append(after)
        if max(before, after) > min(before, after) * (1 + STEADY_TOLERANCE):
            return None, result
        return elapsed * 2 / (before + after), result

    # ------------------------------------------------------------- phases
    # Each phase method runs its operation until ``budget`` seconds have
    # passed and it has run ``target`` times.

    def setup(self) -> None:
        """Load every input (lexicon, taxonomy, query index, registry) once."""
        d, names = self.dir, self.inputs

        def load():
            return (
                lexicon.load_lexicon(d / names["lexicon"]),
                taxonomy.load_taxonomy(d / names["taxonomy"]),
                registry.load_index(d / "index.idx"),
                [registry.ingest_registry(d / r) for r in names["registry"]],
            )

        gc.collect()
        self.reading = None
        seconds, loaded = self.op(load)
        if loaded is None:
            if not hasattr(self, "lexicon"):
                raise RuntimeError("set-up failed:\n" + "\n".join(self.problems))
            return
        self.lexicon, self.taxonomy, self.index, shards = loaded
        # Builds take at most BUILD_CHUNK services of one shard, so each
        # timed build is short and the host-speed correction stays close.
        self.chunks = [
            shard[i : i + BUILD_CHUNK] for shard in shards for i in range(0, len(shard), BUILD_CHUNK)
        ]
        if seconds is not None:
            self.setup_times.append(seconds)
        # Full collections would otherwise rescan the loaded inputs, and
        # those pauses, set by the benchmark's heap rather than by the
        # call, would decide the p99.
        gc.collect()
        gc.freeze()

    def build(self, budget: float, target: int) -> None:
        """build_index + save_index, cycling over the build chunks."""
        self.reading = None
        start = time.perf_counter()
        while True:
            k = self.builds % len(self.chunks)
            path = self.dir / f"built-{k}.idx"

            def build_and_save():
                index = registry.build_index(self.chunks[k], self.lexicon)
                registry.save_index(index, path)
                return index

            seconds, index = self.op(build_and_save)
            if index is not None:
                if seconds is not None:
                    self.build_samples += 1
                    self.built_services += len(index)
                    self.build_seconds += seconds
                self._check_built(k, path, index)
            self.builds += 1
            if _done(start, budget, self.build_samples, target):
                return

    def _check_built(self, k: int, path: Path, index) -> None:
        data = path.read_bytes()
        if k not in self.chunk_bytes:
            self.chunk_bytes[k] = data
        elif data != self.chunk_bytes[k]:
            self.fail(f"chunk {k}: rebuilding gave different index bytes")
        _, loaded = self.op(lambda: registry.load_index(path))
        if loaded is not None and (
            loaded.services != index.services
            or loaded.concept_postings != index.concept_postings
            or loaded.category_postings != index.category_postings
        ):
            self.fail(f"chunk {k}: index changed through save/load")

    def discover(self, budget: float, target: int) -> None:
        """Library ``discover`` calls, cycling over the task stream."""
        self.reading = None
        start = time.perf_counter()
        while True:
            j = self.discover_calls % len(self.tasks)
            self.discover_calls += 1
            seconds, results = self.op(
                lambda: ranker.discover(self.tasks[j], self.lexicon, self.taxonomy, self.index)
            )
            if results is not None:
                if seconds is not None:
                    self.discover_latencies.append(seconds)
                if self.rankings[j] is None:
                    self.rankings[j] = results
                elif results != self.rankings[j]:
                    self.fail(f"task {j}: ranking changed between calls")
            if _done(start, budget, len(self.discover_latencies), target):
                return

    def cli(self, budget: float, target: int) -> None:
        """In-process ``semdisc discover --requirements`` calls."""
        self.reading = None
        start = time.perf_counter()
        while True:
            out = io.StringIO()

            def call():
                with contextlib.redirect_stdout(out):
                    return cli.main(self.cli_argv)

            seconds, code = self.op(call)
            self.cli_calls += 1
            if code is not None:
                if seconds is not None:
                    self.cli_latencies.append(seconds)
                if code != 0:
                    self.fail(f"cli exit code {code}")
                elif self.cli_output is None:
                    self._check_cli(out.getvalue())
                    self.cli_output = out.getvalue()
                elif out.getvalue() != self.cli_output:
                    self.fail("cli output changed between calls")
            if _done(start, budget, len(self.cli_latencies), target):
                return

    def _check_cli(self, output: str) -> None:
        """The outline holds the first tasks of the stream, numbered t1, t2,
        ...; the CLI must rank each exactly as the library did."""
        want = []
        for n in range(self.workload.shape.outline_tasks):
            want += [
                (f"t{n + 1}", r.service, r.c_score, r.s_score, r.score)
                for r in self.rankings[n] or ()
            ]
        rows = [json.loads(line) for line in output.splitlines() if line]
        got = [(r["task"], r["service"], r["c_score"], r["s_score"], r["score"]) for r in rows]
        if got != want:
            self.fail("cli ranking differs from the library ranking")

    # ------------------------------------------------------------- checks

    def check_outputs(self) -> str:
        """Reference and oracle checks; return the ranking digest."""
        _, problems = self.op(lambda: checks.reference_problems(ROOT / "tests" / "data"))
        if problems:
            self.fail("; ".join(problems))
        step = max(1, len(self.tasks) // ORACLE_SAMPLE)
        for j in range(0, len(self.tasks), step)[:ORACLE_SAMPLE]:
            _, expected = self.op(
                lambda: checks.oracle_ranking(self.tasks[j], self.lexicon, self.taxonomy, self.index)
            )
            if expected is not None and not checks.oracle_agrees(self.rankings[j] or [], expected):
                self.fail(f"task {j}: discover disagrees with the brute-force oracle")
        hashes = [hashlib.sha256(self.chunk_bytes.get(k, b"")).hexdigest() for k in range(len(self.chunks))]
        return checks.ranking_digest(self.rankings, self.cli_output or "", hashes)


def _done(start: float, budget: float, count: int, target: int) -> bool:
    elapsed = time.perf_counter() - start
    return elapsed > PHASE_CAP_S or (count >= target and elapsed >= budget)


def phases(run: Run, seconds: float, passes: int, discover_calls: int, cli_calls: int) -> None:
    """Set-up (SETUP_LOADS loads; the first precedes every timed operation),
    then ``passes`` builds of every chunk, ``discover_calls`` discover calls
    and ``cli_calls`` CLI calls, each phase running at least its share of
    ``seconds``.  The counts are of samples (see Run.op)."""
    run.reset_measurements()
    shares = run.workload.shares
    for _ in range(3 * SETUP_LOADS):
        run.setup()
        if len(run.setup_times) == SETUP_LOADS:
            break
    run.build(shares["build"] * seconds, passes * len(run.chunks))
    run.discover(shares["discover"] * seconds, discover_calls)
    run.cli(shares["cli"] * seconds, cli_calls)


def untraced(run: Run, seconds: float) -> tuple[dict, str]:
    phases(run, seconds, run.workload.build_passes, MIN_DISCOVER_CALLS, MIN_CLI_CALLS)
    digest = run.check_outputs()
    latencies, cli_latencies = run.discover_latencies, run.cli_latencies
    q = statistics.quantiles(run.slowdowns, n=4)
    print(
        f"samples discover={len(latencies)} of {run.discover_calls} calls, cli="
        f"{len(cli_latencies)} of {run.cli_calls}, builds={run.build_samples} of {run.builds}, "
        f"setup={len(run.setup_times)}; host slowdown q1/median/q3 "
        f"{q[0]:.2f}/{q[1]:.2f}/{q[2]:.2f}"
    )
    values = {
        "setup_s": statistics.median(run.setup_times),
        "discover_p50_ms": statistics.median(latencies) * 1e3,
        "discover_p99_ms": statistics.quantiles(latencies, n=100)[98] * 1e3,
        "discover_qps": len(latencies) / sum(latencies),
        "build_services_per_s": run.built_services / run.build_seconds,
        "index_bytes_per_service": sum(map(len, run.chunk_bytes.values()))
        / sum(map(len, run.chunks)),
        "cli_p50_ms": statistics.median(cli_latencies) * 1e3,
        "cli_p90_ms": statistics.quantiles(cli_latencies, n=10)[8] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    units = {m.name: m.unit for m in END_TO_END}
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}, digest


def traced(run: Run) -> tuple[dict, str]:
    def fixed_work() -> float:
        start = time.perf_counter()
        phases(run, 0.0, 1, len(run.tasks), run.workload.traced_cli_calls)
        return time.perf_counter() - start

    plain = fixed_work()
    tracer = spans.Tracer()
    run.tracer = tracer
    tracer.install()
    try:
        with_spans = fixed_work()
    finally:
        tracer.uninstall()
        run.tracer = None
    tracer.write(run.dir / "spans.jsonl")
    values = spans.layer_metrics(tracer)
    values["trace.overhead_ratio"] = with_spans / plain
    layers = spans.layer_self_ms(values)
    total = sum(layers.values())
    dominant = max(layers, key=layers.get)
    print(f"dominant_layer {dominant} {layers[dominant] / total:.3f} of traced self time")
    print("layer_self_ms " + " ".join(f"{k}={v:.1f}" for k, v in layers.items()))
    digest = run.check_outputs()
    units = {m.name: m.unit for m in PER_LAYER}
    return {m.name: {"value": values[m.name], "unit": units[m.name]} for m in PER_LAYER}, digest


def prepare(directory: Path) -> None:
    inputs = json.loads((directory / "inputs.json").read_text("utf-8"))
    lex = lexicon.load_lexicon(directory / inputs["lexicon"])
    records = registry.ingest_registry(directory / inputs["registry"][0])
    registry.save_index(registry.build_index(records, lex), directory / "index.idx")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", type=Path)
    parser.add_argument("--prepare", action="store_true")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.prepare:
        prepare(args.dir)
        return 0
    run = Run(args.dir, correct_speed=not args.trace)
    metrics, digest = traced(run) if args.trace else untraced(run, args.seconds)
    print(f"digest {run.inputs['workload']} seed={run.inputs['seed']} sha256={digest}")
    for problem in run.problems[:5]:
        print(problem, file=sys.stderr)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
