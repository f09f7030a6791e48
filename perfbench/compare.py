"""Compare two result sets of ``run.py --out``.

Runs are paired by workload and seed.  A metric improved when the
second side wins at least nine tenths of the pairs (ties count for
neither) and the medians differ by more than the first side's
interquartile distance.  It is worse when its median is worse than the
first side's by more than the metric's bound, or, for a metric without
a bound, when the first side wins the pairs by the same rule.  When
either side's spread (interquartile distance over median) exceeds the
bound, the metric is unresolved unless every run of the second side
reads better than every run of the first.  Otherwise it is unchanged.
"""
from __future__ import annotations

import statistics

from workloads import END_TO_END, PER_LAYER, Metric

ERROR_RATE = Metric("error_rate", "ratio", "lower", 0.0)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric: Metric, pairs: list[tuple[float, float]]) -> str:
    before = [a for a, _ in pairs]
    after = [b for _, b in pairs]
    sign = 1.0 if metric.better == "higher" else -1.0
    q1a, ma, q3a = quartiles(before)
    q1b, mb, q3b = quartiles(after)
    gap = abs(mb - ma) > q3a - q1a
    wins = sum(sign * (b - a) > 0 for a, b in pairs)
    losses = sum(sign * (a - b) > 0 for a, b in pairs)
    if wins >= 0.9 * len(pairs) and gap:
        return "improved"
    if metric.bound is None:
        if losses >= 0.9 * len(pairs) and gap:
            return "worse"
        return "unchanged" if not gap else "unresolved"
    if ma == 0.0:
        return "worse" if sign * (ma - mb) > 0 else "unchanged"
    if sign * (ma - mb) / abs(ma) > metric.bound:
        return "worse"
    spread = max((q3a - q1a) / abs(ma), (q3b - q1b) / abs(mb) if mb else 0.0)
    if spread > metric.bound and not all(sign * (b - a) > 0 for a in before for b in after):
        return "unresolved"
    return "unchanged"


def _values(run: dict) -> dict[str, float]:
    values = {k: v["value"] for k, v in run["metrics"].items()}
    values["error_rate"] = run["failed"] / run["attempted"]
    return values


def rows(before: list[dict], after: list[dict]) -> list[tuple]:
    """(workload, trace, metric, before quartiles, after quartiles, verdict)."""
    index = {(r["workload"], r["trace"], r["seed"]): _values(r) for r in after}
    grouped: dict[tuple[str, int], list[tuple[dict, dict]]] = {}
    for run in before:
        key = (run["workload"], run["trace"], run["seed"])
        if key in index:
            grouped.setdefault(key[:2], []).append((_values(run), index[key]))
    out = []
    for (workload, trace), matched in grouped.items():
        metrics = (*PER_LAYER, ERROR_RATE) if trace else (*END_TO_END, ERROR_RATE)
        for metric in metrics:
            pairs = [(a[metric.name], b[metric.name]) for a, b in matched
                     if metric.name in a and metric.name in b]
            if pairs:
                out.append((
                    workload, trace, metric.name,
                    quartiles([a for a, _ in pairs]), quartiles([b for _, b in pairs]),
                    verdict(metric, pairs),
                ))
    return out


def print_report(before: list[dict], after: list[dict]) -> None:
    print(f"{'workload':<18} {'metric':<28} {'before q1/med/q3':>32} "
          f"{'after q1/med/q3':>32}  verdict")
    for workload, _, name, qa, qb, result in rows(before, after):
        fa = "/".join(f"{v:.4g}" for v in qa)
        fb = "/".join(f"{v:.4g}" for v in qb)
        print(f"{workload:<18} {name:<28} {fa:>32} {fb:>32}  {result}")
