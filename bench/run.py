"""Benchmark runner for anovabf.

Run from the root of a source checkout:

    python3 bench/run.py --workload {ingest,simulate,oracle} --seed N \
        --seconds S --trace {0,1}

Every workload runs in fresh child processes, one at a time, with
``src`` on PYTHONPATH; the program only sees inputs generated here from
the seed. With ``--trace 0`` the operations run in a closed loop of whole
passes until S seconds are spent, and the end-to-end metrics of
BENCHMARK.json are reported, with times in reference seconds (pace.py),
which take the drifting speed of a shared host out of them. With
``--trace 1`` one in-process pass runs untraced and then traced, and the
per-layer metrics are reported. Every output is checked against an
independent reference (see checks.py).
The last line of stdout is the result object; the lines before it give
the details: inputs, sample counts, failure causes and the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import checks
import inputs
import layers
import pace

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORKLOADS = ("ingest", "simulate", "oracle")
SETUP_SAMPLES = 7
IMPORT_SAMPLES = 3
MAX_CAUSES_SHOWN = 40
RUN_LIMIT_S = 170.0  # every child is killed before the run would pass this
PYTHON = sys.executable
PACED_CLI = [PYTHON, str(BENCH / "paced_cli.py")]


class Tally:
    """Attempted and failed operations, with the cause of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.causes: dict[str, dict] = {}

    def record(self, op: str, reason: str | None, known: bool = False) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.problem(f"{op}: {reason}", known)

    def problem(self, cause: str, known: bool = False) -> None:
        """Note a cause; one that is not a known failure makes the run incorrect."""
        cause = " ".join(cause.split())[:240]
        entry = self.causes.setdefault(cause, {"count": 0, "known": known})
        entry["count"] += 1

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and all(c["known"] for c in self.causes.values())


@dataclass
class Spawned:
    wall: float
    code: int | None
    rss_mb: float
    stdout: str
    stderr: str
    reference_s: float | None = None  # wall in reference seconds (pace.py)


class Runner:
    """Starts one child at a time and waits for it, with its resource usage."""

    def __init__(self, work: Path):
        self.work = work
        self.started = time.monotonic()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def cli(self, args: list[str]) -> Spawned:
        """Run ``anovabf ARGS`` under a Pacer and convert its wall time."""
        pace_path = self.work / "pace.json"
        pace_path.unlink(missing_ok=True)
        child = self.spawn([*PACED_CLI, str(pace_path), *args])
        if pace_path.exists():
            sampled = json.loads(pace_path.read_text())
            if sampled["ratio"] is not None:
                child.reference_s = pace.reference_seconds(child.wall, sampled["spent"], sampled["ratio"])
        return child

    def spawn(self, argv: list[str]) -> Spawned:
        remaining = RUN_LIMIT_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise TimeoutError("run time limit reached")
        out_path, err_path = self.work / "child.out", self.work / "child.err"
        with out_path.open("wb") as out, err_path.open("wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=self.env)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        return Spawned(
            wall,
            code,
            usage.ru_maxrss / 1024.0,
            out_path.read_text(encoding="utf-8", errors="replace"),
            err_path.read_text(encoding="utf-8", errors="replace"),
        )


# --- operations ------------------------------------------------------------


@dataclass
class Op:
    """One CLI invocation, the work it carries and how to check its output."""

    name: str
    argv: list[str]
    units: int  # rows or replications
    check: Callable[[str], str | None]
    may_fail: bool = False  # a known failure when the benchmark was defined


def judge(op: Op, code: int | None, stdout: str, stderr: str) -> tuple[str | None, bool]:
    """(reason the operation failed or None, whether that failure is known)."""
    last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
    if code is None or "Traceback" in stderr:
        return f"traceback: {last}", False
    if code != 0:
        return f"exit {code}: {last}", op.may_fail
    return op.check(stdout), False


def ingest_ops(seed: int, work: Path) -> tuple[Callable[[int], list[Op]], dict]:
    files = inputs.ingest_inputs(seed, work)
    ops = []
    for item in files:
        path = str(item.path.relative_to(ROOT))
        check = partial(checks.check_ingest, item, checks.ingest_reference(item))
        ops.append(
            Op(f"bf {item.layout} {item.name}", ["bf", item.layout, "--input", path],
               item.rows, check, may_fail=item.scale != 1.0)
        )
    described = {f.name: {"rows": f.rows, "bytes": f.bytes, "scale": f.scale} for f in files}
    return (lambda index: ops), {"files": described}


def simulate_ops(seed: int, work: Path) -> tuple[Callable[[int], list[Op]], dict]:
    grid = []
    for p in inputs.SIMULATE_P:
        grid += ["--p", str(p)]
    for r in inputs.SIMULATE_R:
        grid += ["--r", str(r)]
    ca_args = []
    for ca in inputs.SIMULATE_CA:
        ca_args += ["--ca", repr(ca)]
    truths = [
        ("ma1", "A+1", inputs.SIMULATE_CA, ca_args),
        ("m1", "1", (0.0,), []),
    ]
    expected = {truth: checks.simulate_expectations(label, cas) for truth, label, cas, _ in truths}

    def make(index: int) -> list[Op]:
        program_seed = inputs.simulate_seed(seed, index)
        ops = []
        for truth, label, cas, extra in truths:
            cells = expected[truth]
            reps = inputs.SIMULATE_REPS * len(cells) // 2  # two criteria per cell
            argv = ["simulate", "--truth", truth, *grid, *extra,
                    "--reps", str(inputs.SIMULATE_REPS), "--seed", str(program_seed)]
            check = partial(checks.check_simulate, label, cells, program_seed)
            ops.append(Op(f"simulate --truth {truth}", argv, reps, check))
        return ops

    return make, {"replications_per_pass": sum(op.units for op in make(0))}


def cli_loop(runner: Runner, tally: Tally, make_ops, seconds: float) -> dict | None:
    """Closed loop of whole passes over the operations until seconds are spent.

    Goodput is in reference seconds; the wall-clock figure is kept beside it.
    """
    good_units, cli_wall, cli_reference, rss, passes = 0, 0.0, 0.0, 0.0, 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        for op in make_ops(passes):
            child = runner.cli(op.argv)
            if child.reference_s is None:
                tally.problem(f"{op.name}: no speed samples (exit {child.code})")
                return None
            cli_wall += child.wall
            cli_reference += child.reference_s
            rss = max(rss, child.rss_mb)
            reason, known = judge(op, child.code, child.stdout, child.stderr)
            tally.record(op.name, reason, known)
            if reason is None:
                good_units += op.units
        passes += 1
    return {
        "goodput": good_units / cli_reference,
        "wall_goodput": good_units / cli_wall,
        "rss": rss,
        "passes": passes,
        "cli_wall_s": cli_wall,
        "cli_reference_s": cli_reference,
    }


# --- oracle ----------------------------------------------------------------


def oracle_job(seed: int) -> tuple[list, list]:
    sweep = inputs.oracle_checks(seed)
    refs = [checks.oracle_reference(c) for c in sweep]
    return [[c.p, c.r, c.ratio, c.hyper_g_a] for c in sweep], refs


def judge_oracle(tally: Tally, refs: list, outcomes: list) -> int:
    """Judge one pass of the sweep; returns the number of checks that agree."""
    agree = misses = 0
    for index, (ref, outcome) in enumerate(zip(refs, outcomes)):
        reason, known = checks.check_oracle(ref, outcome)
        scan_miss = reason is not None and reason.startswith(checks.SCAN_MISS)
        if scan_miss:
            misses += 1
            known = misses <= checks.SCAN_MISSES_PER_PASS
        if scan_miss or (reason is not None and not known):
            reason = f"check {index}: {reason}"  # other known causes are grouped
        tally.record("oracle check", reason, known)
        agree += reason is None
    return agree


def run_child(runner: Runner, tally: Tally, job: dict) -> tuple[dict | None, Spawned]:
    job_path = runner.work / "job.json"
    job_path.write_text(json.dumps(job))
    child = runner.spawn([PYTHON, str(BENCH / "child.py"), str(job_path)])
    result_path = runner.work / "result.json"
    if child.code != 0 or not result_path.exists():
        last = child.stderr.strip().splitlines()[-1] if child.stderr.strip() else ""
        tally.problem(f"benchmark child exited {child.code}: {last}")
        return None, child
    result = json.loads(result_path.read_text())
    if Path(result["package"]).resolve().parent.parent != SRC.resolve():
        tally.problem(f"child imported anovabf from {result['package']}, not from ./src")
    return result, child


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(math.ceil(q / 100 * len(sorted_values)) - 1, 0)]


# --- untraced and traced runs ----------------------------------------------


def setup_time(runner: Runner, tally: Tally) -> tuple[float | None, dict]:
    """Median time of a fresh ``anovabf --help``, in reference seconds.

    One unmeasured call first byte-compiles a fresh checkout, a cost a
    user pays once per install, not per run.
    """
    runner.cli(["--help"])
    samples, walls = [], []
    for _ in range(SETUP_SAMPLES):
        child = runner.cli(["--help"])
        if child.code != 0 or not child.stdout.startswith("usage: anovabf"):
            tally.problem(f"--help exited {child.code}")
        if child.reference_s is None:
            tally.problem(f"--help: no speed samples (exit {child.code})")
            return None, {}
        samples.append(child.reference_s)
        walls.append(child.wall)
    return statistics.median(samples), {"setup_s_samples": samples, "setup_wall_s_samples": walls}


def measure(workload: str, seed: int, seconds: float, runner: Runner, tally: Tally):
    setup_s, details = setup_time(runner, tally)
    if setup_s is None:
        return None, details
    if workload == "oracle":
        sweep, refs = oracle_job(seed)
        job = {"mode": "sweep", "workload": workload, "seconds": seconds, "checks": sweep}
        result, child = run_child(runner, tally, job)
        if result is None:
            return None, details
        walls, reference_walls, passes = result["walls"], result["reference_walls"], result["passes"]
        agree = [judge_oracle(tally, refs, outcomes) for outcomes in passes]
        times = sorted(o[0] for outcomes in passes for o in outcomes)
        sweep_wall = sum(walls)
        sweep_reference = sum(reference_walls)
        # Every pass runs the same checks, so the median pass drops a pass
        # that a burst on the host slowed beyond what the pacer corrects.
        goodput = statistics.median(a / t for a, t in zip(agree, reference_walls))
        rss = child.rss_mb
        named = {
            "checks_per_s": (goodput, "checks/s"),
            "check_s_p50": (statistics.median(times), "s"),
            "check_s_p99": (percentile(times, 99), "s"),
        }
        details.update(
            checks_per_pass=len(sweep), passes=len(walls), sweep_wall_s=sweep_wall,
            sweep_cpu_s=sum(result["cpus"]),
            sweep_reference_s=sweep_reference, wall_goodput_per_s=sum(agree) / sweep_wall,
            pass_goodput_per_s=[a / t for a, t in zip(agree, reference_walls)],
            speed_ratio=result["speeds"], check_time_samples=len(times),
            samples_beyond_p99=len(times) - math.ceil(0.99 * len(times)),
        )
    else:
        make_ops, described = (ingest_ops if workload == "ingest" else simulate_ops)(seed, runner.work)
        loop = cli_loop(runner, tally, make_ops, seconds)
        if loop is None:
            return None, details
        goodput, rss = loop["goodput"], loop["rss"]
        unit = "rows/s" if workload == "ingest" else "replications/s"
        named = {"rows_per_s" if workload == "ingest" else "reps_per_s": (goodput, unit)}
        details.update(
            described, passes=loop["passes"], cli_wall_s=loop["cli_wall_s"],
            cli_reference_s=loop["cli_reference_s"], wall_goodput_per_s=loop["wall_goodput"],
        )
    failed_frac = tally.failed / tally.attempted
    named = {"setup_s": (setup_s, "s"), **named,
             "failed_frac": (failed_frac, "ratio"), "peak_rss_mb": (rss, "MB")}
    details["named_metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in named.items()}
    metrics = {
        "setup_s": setup_s,
        "goodput_per_s": goodput,
        "ok_frac": 1.0 - failed_frac,
        "peak_rss_mb": rss,
    }
    return metrics, details


def import_times(runner: Runner) -> dict:
    """Import times from ``python -X importtime``, median of a few samples.

    A package's time is the cumulative time of its shallowest entries:
    the package itself, or, where it is loaded lazily through its parent's
    ``__getattr__`` and so has no entry, its top-level submodules.
    """
    wanted = {"anovabf": [], "numpy": [], "scipy.integrate": []}
    for _ in range(IMPORT_SAMPLES):
        child = runner.spawn([PYTHON, "-X", "importtime", "-c", "import anovabf.cli"])
        entries = []  # (depth, name, cumulative seconds)
        for line in child.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                name = fields[2].strip()
                depth = len(fields[2]) - len(fields[2].lstrip())
                entries.append((depth, name, int(fields[1]) / 1e6))
        for package, samples in wanted.items():
            found = [e for e in entries if e[1] == package or e[1].startswith(package + ".")]
            top = min((e[0] for e in found), default=None)
            samples.append(sum(e[2] for e in found if e[0] == top))
    return {
        f"import.{name.replace('.', '_')}_s": statistics.median(samples)
        for name, samples in wanted.items()
    }


def trace(workload: str, seed: int, runner: Runner, tally: Tally):
    metrics = import_times(runner)
    if workload == "oracle":
        sweep, refs = oracle_job(seed)
        job = {"mode": "trace", "workload": workload, "checks": sweep}
        details = {"checks_per_pass": len(sweep)}
    else:
        make_ops, details = (ingest_ops if workload == "ingest" else simulate_ops)(seed, runner.work)
        ops = make_ops(0)
        job = {"mode": "trace", "workload": workload, "ops": [op.argv for op in ops]}
    result, _ = run_child(runner, tally, job)
    if result is None:
        return None, details
    agree = 0
    for outcomes in result["passes"]:
        if workload == "oracle":
            agree = judge_oracle(tally, refs, outcomes)
        else:
            for op, outcome in zip(ops, outcomes):
                reason, known = judge(op, outcome["code"], outcome["stdout"], outcome["stderr"])
                tally.record(op.name, reason, known)
    spans = layers.read_spans(runner.work / "spans.tsv")
    metrics.update(layers.layer_metrics(spans, result["traced_wall"], result["untraced_wall"]))
    metrics["prior.agree_ratio"] = agree / len(refs) if workload == "oracle" else 0.0
    details.update(
        spans=len(spans), absent=result["absent"],
        untraced_wall_s=result["untraced_wall"], traced_wall_s=result["traced_wall"],
    )
    return metrics, details


# --- environment and output -------------------------------------------------


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            models = [ln.split(":", 1)[1].strip() for ln in handle if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError):
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            commit = done.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "git_commit": commit,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file() or not (SRC / "anovabf" / "__init__.py").is_file():
        print("error: run from the root of an anovabf checkout (needs BENCHMARK.json and "
              "src/anovabf)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))

    # On SIGTERM, unwind as on an error: the running child is killed and
    # waited for, and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    tally = Tally()
    try:
        runner = Runner(work)
        if args.trace:
            values, details = trace(args.workload, args.seed, runner, tally)
        else:
            values, details = measure(args.workload, args.seed, args.seconds, runner, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still be using it
            work.parent.rmdir()
    if values is None:
        print("error: the benchmark child failed: " + "; ".join(tally.causes), file=sys.stderr)
        return 1

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **details,
        "failures": dict(list(tally.causes.items())[:MAX_CAUSES_SHOWN]),
        "failure_causes_not_shown": max(len(tally.causes) - MAX_CAUSES_SHOWN, 0),
        "environment": environment(),
    }
    print(json.dumps(report, indent=1))
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
