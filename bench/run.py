"""momenta benchmark: one process, one client, closed loop.

Usage (from the repository root)::

    python3 bench/run.py --workload campaign --seed 1 --seconds 30 --trace 0

Each op is one call of ``momenta.cli.main(argv)``, the code path of the
``momenta`` command. A pass runs the workload's fixed op table once; the run
repeats passes while another one fits in ``--seconds`` (at least one pass).

``--trace 0`` measures the end-to-end metrics with tracing off, in reference
seconds: each op's time is scaled by the machine speed measured just before
and after it with a fixed yardstick (``calibration.py``). ``--trace 1``
alternates untraced and traced passes and reports per-layer metrics from the
traced ones, plus the tracing overhead. The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it records provenance and the exact check counts. ``--smoke`` runs a
tiny version of the workload for the self-test.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".bench_work"

#: Fresh interpreters timed for ``setup_s``, each after a baseline one; the
#: median is reported.
SETUP_SPAWNS = 12

#: Ops that must lie beyond the percentile reported as ``op_tail_s`` in the
#: ``workloads.MIN_PASSES`` passes every run makes. The percentile is thus
#: fixed per workload, whatever the number of passes that fit in ``--seconds``.
TAIL_OPS_BEYOND = 10

VERSION_SNIPPET = ("import sys; from momenta.cli import main; "
                   "sys.exit(main(['--version']))")


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _git_commit() -> str | None:
    """Commit of the checkout, read from ``.git`` files; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas_name(np) -> str | None:
    try:
        config = np.show_config(mode="dicts")
        return config["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return None


def measure_setup(spawns: int, env: dict[str, str], version: str,
                  calibration) -> tuple[float, float, float]:
    """Median time of a fresh interpreter running ``momenta --version``.

    Each one alternates with a baseline interpreter that only imports numpy
    (``calibration.BASELINE_SNIPPET``). Returns the median in reference
    seconds, the median in raw seconds and the baseline's median.
    """
    raw, base = [], []
    for _ in range(spawns):
        base.append(_spawn(calibration.BASELINE_SNIPPET, env)[0])
        elapsed, proc = _spawn(VERSION_SNIPPET, env)
        raw.append(elapsed)
        if proc.returncode != 0 or proc.stdout.strip() != version:
            raise RuntimeError(
                f"momenta --version failed: exit {proc.returncode}, "
                f"stdout {proc.stdout!r}, stderr {proc.stderr[-500:]!r}")
    setup, baseline = statistics.median(raw), statistics.median(base)
    return calibration.scale_setup(setup, baseline), setup, baseline


def _spawn(snippet: str, env: dict[str, str]):
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", snippet], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    return time.perf_counter() - t0, proc


def tail_percentile(count: int) -> float:
    """Highest percentile with at least ``TAIL_OPS_BEYOND`` ops beyond it."""
    return max(0.0, 100.0 * (count - TAIL_OPS_BEYOND) / count)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with q% at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


class Runner:
    """Runs passes of one workload's ops and keeps their outcomes."""

    def __init__(self, cli, workloads, calibration, ops, min_passes):
        self.cli = cli
        self.workloads = workloads
        self.calibration = calibration
        self.ops = ops
        self.min_passes = min_passes
        # Per op, over the passes: reference seconds and raw seconds.
        self.latencies: list[list[float]] = [[] for _ in ops]
        self.raw_latencies: list[list[float]] = [[] for _ in ops]
        self.cal_points: list[float] = []
        self.checks = 0
        self.check_failures = 0
        self.errors = 0
        self.failed_ops = 0
        self.attempted = 0
        self.problems: list[str] = []

    def call(self, op) -> tuple[int | None, str, str | None, float]:
        """One timed CLI call: exit code, captured stdout, error, seconds.

        Output is captured; an exception or argument rejection is an error.
        """
        with contextlib.suppress(FileNotFoundError):
            os.remove(op.report)
        out = io.StringIO()
        code, error = None, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            try:
                code = self.cli.main(op.argv)
            except SystemExit as exc:
                error = f"argument error (exit {exc.code})"
            except Exception as exc:  # noqa: BLE001 - every failure is counted
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
        return code, out.getvalue(), error, elapsed

    def run_pass(self, tracer=None) -> float:
        """Runs the op table once; returns the raw seconds of its ops."""
        raw, points = [], [self.calibration.point()]
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.begin_op(i)
            code, stdout, error, elapsed = self.call(op)
            points.append(self.calibration.point())
            raw.append(elapsed)
            self.attempted += 1
            if error is None:
                outcome = self.workloads.check(op, code, stdout)
            else:
                outcome = self.workloads.Outcome(error=error)
            self.checks += outcome.checks
            self.check_failures += outcome.check_failures
            self.errors += outcome.error is not None
            if outcome.failed:
                self.failed_ops += 1
                if len(self.problems) < 20:
                    detail = outcome.error or "; ".join(outcome.invalid)
                    self.problems.append(f"op {i} {' '.join(op.argv[:2])}: {detail}")
        scaled = self.calibration.scale_between(raw, points)
        for i, (t, s) in enumerate(zip(raw, scaled)):
            self.raw_latencies[i].append(t)
            self.latencies[i].append(s)
        self.cal_points.extend(points)
        return sum(raw)


def _end_to_end(runner: Runner, setup_s: float, matrices: int) -> tuple[dict, dict]:
    # One pass of the op table, each op at its median over the passes.
    wall = sum(statistics.median(op) for op in runner.latencies)
    latencies = [t for op in runner.latencies for t in op]
    raw = [t for op in runner.raw_latencies for t in op]
    q = tail_percentile(runner.min_passes * len(runner.ops))
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "matrices_per_s": (matrices / wall, "1/s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_tail_s": (percentile(latencies, q), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
    }
    raw_metrics = {
        "wall_s": sum(statistics.median(op) for op in runner.raw_latencies),
        "op_p50_s": statistics.median(raw),
        "op_tail_s": percentile(raw, q),
        "calibration_s": statistics.median(runner.cal_points),
    }
    return metrics, {"op_tail_percentile": q, "op_tail_ops": len(latencies),
                     "raw_seconds": raw_metrics}


def _is_timing(name: str) -> bool:
    """Whether a metric is a time or a ratio of times, rather than a count."""
    return name.endswith(("_s", "_per_s", "overhead_frac"))


def _per_layer(tracer_mod, traced: list[dict], overhead: float) -> dict:
    """Counts from the first traced pass; timings as medians over passes."""
    metrics = {}
    for layer in tracer_mod.LAYERS:
        stats = (("calls", "count"), ("self_s", "s"), ("total_s", "s"))
        for stat, unit in stats + tracer_mod.EXTRA_STATS.get(layer, ()):
            key = f"{layer}.{stat}"
            if _is_timing(key):
                value = statistics.median(t[key] for t in traced)
            else:
                value = traced[0][key]
            metrics[key] = (value, unit)
    metrics["trace.overhead_frac"] = (overhead, "frac")
    return metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the self-test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "momenta" / "__init__.py").is_file():
        print(f"error: no momenta sources under {SRC}", file=sys.stderr)
        return 2
    # Cap BLAS threads before numpy loads; the CLI's seed comes from argv only.
    nproc = _nproc()
    os.environ.update(dict.fromkeys(THREAD_VARS, str(nproc)))
    os.environ.pop("MOMENTA_SEED", None)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import numpy as np
    import momenta
    import momenta.cli
    import tracer as tracer_mod
    import workloads
    import calibration

    if Path(momenta.__file__).resolve().parent != (SRC / "momenta").resolve():
        print(f"error: imported momenta from {momenta.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    WORK_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK_DIR)
    try:
        ops = workloads.build(args.workload, args.seed, workdir,
                              "smoke" if args.smoke else "full")
        result, extra = _measure(args, ops, env, np, momenta, tracer_mod,
                                 workloads, calibration)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    provenance = {
        "git_commit": _git_commit(),
        "momenta_version": momenta.__version__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas_name(np),
        "blas_threads": nproc,
        "nproc": nproc,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops_per_pass": len(ops),
        **extra,
    }
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    print(json.dumps(result))
    return 0


def _measure(args, ops, env, np, momenta, tracer_mod, workloads, calibration):
    runner = Runner(momenta.cli, workloads, calibration, ops,
                    workloads.MIN_PASSES[args.workload])
    setup_s = raw_setup_s = baseline_s = None
    if not args.trace:
        setup_s, raw_setup_s, baseline_s = measure_setup(
            3 if args.smoke else SETUP_SPAWNS, env, momenta.__version__,
            calibration)
    # Warm-up: one untimed op lets imports and first-call set-up finish.
    runner.call(ops[0])

    traced: list[dict] = []
    untraced_walls: list[float] = []
    traced_walls: list[float] = []
    tr = tracer_mod.Tracer(momenta) if args.trace else None
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        untraced_walls.append(runner.run_pass())
        if tr is not None:
            tr.begin_pass()
            tr.install()
            try:
                traced_walls.append(runner.run_pass(tr))
            finally:
                tr.uninstall()
            traced.append(tr.pass_stats())
        step = time.perf_counter() - t0
        done = len(untraced_walls) >= (1 if tr is not None else runner.min_passes)
        if done and time.perf_counter() - start + step > args.seconds:
            break

    extra = {
        "passes": len(untraced_walls),
        "pass_walls_s": untraced_walls,
        "ops_measured": runner.attempted,
        "checks": runner.checks,
        "check_failures": runner.check_failures,
        "op_errors": runner.errors,
        "check_fail_frac": runner.check_failures / max(1, runner.checks),
        "op_error_frac": runner.errors / runner.attempted,
        "problems": runner.problems,
    }
    if tr is None:
        matrices = sum(op.matrices for op in ops)
        metrics, tail = _end_to_end(runner, setup_s, matrices)
        tail["raw_seconds"]["setup_s"] = raw_setup_s
        tail["raw_seconds"]["setup_baseline_s"] = baseline_s
        extra.update(tail)
    else:
        overhead = statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
        metrics = _per_layer(tracer_mod, traced, overhead)
        metrics["check_fail_frac"] = (extra["check_fail_frac"], "frac")
        metrics["op_error_frac"] = (extra["op_error_frac"], "frac")
        extra["counts_repeat"] = all(
            t[k] == traced[0][k] for t in traced for k in t
            if not _is_timing(k))
        spans = WORK_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        tr.dump(str(spans))
        extra["spans_file"] = str(spans.relative_to(ROOT))
    result = {
        "correct": runner.failed_ops == 0,
        "attempted": runner.attempted,
        "failed": runner.failed_ops,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, extra


if __name__ == "__main__":
    sys.exit(main())
