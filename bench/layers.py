"""Per-layer metrics from the span table a traced pass writes.

A span's self time is its duration minus the time its direct children
cover. A layer is the part of a span name before the dot. Calls and busy
time count only spans whose parent belongs to another layer, so a layer
calling itself is not counted twice.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path


def read_spans(path: Path) -> list[tuple]:
    spans = []
    with path.open(encoding="utf-8") as handle:
        for line in handle:
            name, start, end, parent, work, error = line.rstrip("\n").split("\t")
            spans.append((name, float(start), float(end), int(parent), int(work), error))
    return spans


def layer_metrics(spans: list[tuple], traced_wall: float, untraced_wall: float) -> dict:
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    count = defaultdict(int)  # span name -> calls not nested in the same name
    total = defaultdict(float)  # span name -> duration of those calls
    own = defaultdict(float)  # span name -> self time of every call
    work = defaultdict(int)
    errors = defaultdict(int)  # (span name, exception type) -> count
    for i, (name, start, end, parent, units, error) in enumerate(spans):
        own[name] += end - start - child_time[i]
        work[name] += units
        if error:
            errors[(name, error)] += 1
        if parent < 0 or spans[parent][0] != name:
            count[name] += 1
            total[name] += end - start

    def per(numerator, denominator, factor=1.0):
        return numerator / denominator * factor if denominator else 0.0

    rows = work["datasets.parse"]
    reps = work["simulation.experiment"]
    integrate_calls = count["numerics.integrate"]
    evals = work["numerics.integrate"]
    return {
        "cli.calls": count["cli.run"],
        "cli.self_s": own["cli.run"],
        "datasets.rows": rows,
        "datasets.parse_s": total["datasets.parse"],
        "datasets.parse_us_per_row": per(total["datasets.parse"], rows, 1e6),
        "datasets.validate_calls": count["datasets.validate"],
        "datasets.validate_s": total["datasets.validate"],
        "sums_of_squares.calls": count["sums_of_squares.ss"],
        "sums_of_squares.busy_s": total["sums_of_squares.ss"],
        "sums_of_squares.us_per_call": per(
            total["sums_of_squares.ss"], count["sums_of_squares.ss"], 1e6
        ),
        "bayes_factors.calls": count["bayes_factors.score"],
        "bayes_factors.busy_s": total["bayes_factors.score"],
        "simulation.reps": reps,
        "simulation.us_per_rep": per(total["simulation.experiment"], reps, 1e6),
        "simulation.stream_s": total["simulation.stream"],
        "simulation.draw_s": own["simulation.draw"],
        "simulation.self_s": own["simulation.experiment"],
        "prior.quad_calls": count["prior.quadrature"],
        "prior.quad_busy_s": total["prior.quadrature"],
        "prior.scan_s": own["prior.quadrature"],
        "prior.overflow_errors": errors[("prior.quadrature", "OverflowError")],
        "prior.convergence_errors": errors[("prior.quadrature", "ConvergenceError")],
        "numerics.integrate_calls": integrate_calls,
        "numerics.integrate_s": total["numerics.integrate"],
        "numerics.integrand_evals": evals,
        "numerics.evals_per_call": per(evals, integrate_calls),
        "trace.overhead_frac": per(traced_wall - untraced_wall, untraced_wall),
        "trace.unattributed_frac": per(traced_wall - sum(own.values()), traced_wall),
    }
