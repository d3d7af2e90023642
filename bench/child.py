"""Work that runs inside a benchmark child process, against the package.

Usage: ``python bench/child.py JOB.json`` with ``src`` on PYTHONPATH.
The job names a mode:

* ``sweep``: run the oracle checks through the library API, whole passes
  until the time budget is spent, timing each check, under a Pacer that
  converts each pass's CPU time to reference seconds (see pace.py). The
  sweep is single-threaded, so its CPU time is its wall time less the
  time the process waited for a core on a shared host.
* ``trace``: one untraced in-process pass of the workload's operations,
  then the same pass again with every layer boundary wrapped in a span
  recorder. Spans are written to ``spans.tsv`` next to the job file.

Results go to ``result.json`` next to the job file.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
import time
import traceback
from pathlib import Path

import pace

# (consumer module, name it looks up, span name). Each function is wrapped
# where its consumer finds it, because the package binds names with
# ``from ... import``. The oracle sweep below is the consumer of the
# ``anovabf.prior`` and ``anovabf.bayes_factors`` entries.
WRAPPED = (
    ("anovabf.cli", "run", "cli.run"),
    ("anovabf.cli", "parse_one_way", "datasets.parse"),
    ("anovabf.cli", "parse_two_way", "datasets.parse"),
    ("anovabf.cli", "one_way_ss", "sums_of_squares.ss"),
    ("anovabf.cli", "two_way_ss", "sums_of_squares.ss"),
    ("anovabf.cli", "one_way_report", "bayes_factors.score"),
    ("anovabf.cli", "two_way_report", "bayes_factors.score"),
    ("anovabf.cli", "rank_two_way_models", "bayes_factors.score"),
    ("anovabf.cli", "run_frequency_experiment", "simulation.experiment"),
    ("anovabf.simulation", "_replication_stream", "simulation.stream"),
    ("anovabf.simulation", "simulate_one_way", "simulation.draw"),
    ("anovabf.simulation", "OneWayDataset", "datasets.validate"),
    ("anovabf.simulation", "one_way_ss", "sums_of_squares.ss"),
    ("anovabf.simulation", "log_bf_fb_one_way", "bayes_factors.score"),
    ("anovabf.simulation", "log_bf_bic_one_way", "bayes_factors.score"),
    ("anovabf.simulation", "choose_model", "bayes_factors.score"),
    ("anovabf.bayes_factors", "log_bf_fb_one_way", "bayes_factors.score"),
    ("anovabf.prior", "bf_quadrature", "prior.quadrature"),
    ("anovabf.prior", "integrate_unit_interval", "numerics.integrate"),
)


class Recorder:
    """Spans kept in memory as [name, start, end, parent, work, error]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name, fn, work=None):
        """Wrap fn in a span; ``work(args, kwargs)`` counts the work it is given."""
        spans, stack, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            units = work(args, kwargs) if work else 0
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, units, ""]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                record[5] = type(exc).__name__
                raise
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    def wrap_integrator(self, name, fn):
        """Wrap an integrator so its span also counts integrand evaluations."""
        spans = self.spans

        def counted_call(f, *args, **kwargs):
            evals = 0

            def counted(t):
                nonlocal evals
                evals += 1
                return f(t)

            index = len(spans) - 1  # the span opened by the outer wrapper
            try:
                return fn(counted, *args, **kwargs)
            finally:
                spans[index][4] = evals

        return self.wrap(name, counted_call)

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as handle:
            for name, start, end, parent, work, error in self.spans:
                handle.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{work}\t{error}\n")


def _rows(args, kwargs):
    text = args[0] if args else kwargs["text"]
    return max(text.count("\n", 0, len(text) - 1), 0)


def _reps(args, kwargs):
    cfg = args[0] if args else kwargs["cfg"]
    return len(cfg.p_list) * len(cfg.r_list) * cfg.replications


def install(recorder: Recorder) -> list[str]:
    """Replace every wrapped name with its traced version; return those absent."""
    counters = {"datasets.parse": _rows, "simulation.experiment": _reps}
    absent = []
    for module_name, attr, span in WRAPPED:
        try:
            module = importlib.import_module(module_name)
        except ModuleNotFoundError:
            module = None
        original = getattr(module, attr, None)
        if original is None:
            absent.append(f"{module_name}.{attr}")
            continue
        if span == "numerics.integrate":
            traced = recorder.wrap_integrator(span, original)
        else:
            traced = recorder.wrap(span, original, counters.get(span))
        setattr(module, attr, traced)
    return absent


# --- workload passes --------------------------------------------------------


def cli_pass(ops: list[list[str]]) -> tuple[float, list[dict]]:
    """Call ``anovabf.cli.run`` on each argv in turn, capturing its streams."""
    import anovabf.cli

    outcomes = []
    start = time.perf_counter()
    for argv in ops:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = anovabf.cli.run(argv)
            except Exception:  # a crash is an outcome to record, not to stop on
                code = None
                err.write(traceback.format_exc())
        outcomes.append({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()})
    return time.perf_counter() - start, outcomes


def oracle_pass(checks: list[list], pacer: pace.Pacer | None = None) -> tuple[float, list[list]]:
    """One closed-form-plus-quadrature check per entry: [seconds, log closed, BF, error].

    A check's seconds leave out the time the pacer's probe took during it.
    """
    import anovabf.bayes_factors as bayes_factors
    import anovabf.prior as prior
    from anovabf.sums_of_squares import OneWaySS

    clock = time.perf_counter
    probed = (lambda: pacer.spent) if pacer else (lambda: 0.0)
    outcomes = []
    start = clock()
    for p, r, ratio, hyper_g_a in checks:
        began, probe_before = clock(), probed()
        try:
            log_closed = bayes_factors.log_bf_fb_one_way(
                OneWaySS(w_t=1.0, w_e=ratio, w_h=1.0 - ratio), p, r
            )
            if hyper_g_a is None:
                mixing = prior.BetaPrimePrior.for_closed_form(p * r, p)
            else:
                mixing = prior.BetaPrimePrior.hyper_g(hyper_g_a)
            value = prior.bf_quadrature(p * r, p, ratio, mixing)
            outcome = [0.0, log_closed, value, None]
        except Exception as exc:  # each failure is recorded with its cause
            outcome = [0.0, None, None, f"{type(exc).__name__}: {exc}"]
        outcome[0] = clock() - began - (probed() - probe_before)
        outcomes.append(outcome)
    return clock() - start, outcomes


def run_pass(job: dict):
    if job["workload"] == "oracle":
        return oracle_pass(job["checks"])
    return cli_pass(job["ops"])


def main(job_path: Path) -> None:
    job = json.loads(job_path.read_text())
    directory = job_path.parent
    import anovabf

    result = {"package": anovabf.__file__}
    if job["mode"] == "sweep":
        passes, walls, cpus, reference_walls, speeds = [], [], [], [], []
        pacer = pace.Pacer()
        pacer.start()
        deadline = time.perf_counter() + job["seconds"]
        while not walls or time.perf_counter() < deadline:
            mark, cpu = pacer.mark(), time.process_time()
            wall, outcomes = oracle_pass(job["checks"], pacer)
            cpu = time.process_time() - cpu
            spent, speed = pacer.since(mark)
            walls.append(wall)
            cpus.append(cpu)
            reference_walls.append(pace.reference_seconds(cpu, spent, speed))
            speeds.append(speed)
            passes.append(outcomes)
        pacer.stop()
        result.update(
            walls=walls, cpus=cpus, reference_walls=reference_walls, speeds=speeds, passes=passes
        )
    else:
        untraced_wall, untraced = run_pass(job)
        recorder = Recorder()
        absent = install(recorder)
        traced_wall, traced = run_pass(job)
        recorder.write(directory / "spans.tsv")
        result.update(
            untraced_wall=untraced_wall,
            traced_wall=traced_wall,
            passes=[untraced, traced],
            absent=absent,
        )
    (directory / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main(Path(sys.argv[1]))
