"""``momenta`` verdicts under one BLAS thread and under one per core.

Starts two child processes of this script, one under
``OPENBLAS_NUM_THREADS=1`` and one at ``nproc`` threads (``OMP_NUM_THREADS``
and ``MKL_NUM_THREADS`` set alike); only the children's environment is set.
Each child runs ``momenta.cli.main`` in process, in a temporary directory, on

- every op of the ``verify-file`` and ``bounds-large`` benchmark workloads
  (``bench/workloads.py``) at workload seeds 1 and 2: 80 runs;
- ``verify FILE --seed 1`` under trace, vector-state and ``compression:8``,
  and ``bounds FILE``, on ``random_hermitian(n, 1)`` at n = 64, 128 and 256,
  and ``verify FILE --seed 1`` under identity and pinching at n = 64: 14
  runs. Identity and pinching at n >= 128 take about 6 s a run and are left
  out.

and prints one tab-separated line per run: the argv, the exit code, the
sha256 of the stdout count lines (each ``check: p/t passed`` line and the
final ``N checks, P passed`` line without its worst margin; none for
``bounds``), of the JSON report and of the report's verdicts, as
``tests/equivalence_runs.py`` prints them.

The summed rounding of a threaded BLAS depends on its thread count, so
margins, and with them report bytes, may differ between the children; the
script names the runs whose report digests do, and counts them. It exits 1
unless both children exit 0 and every run has the same argv, exit code,
count-line digest and verdict digest in both. pytest does not collect it;
run it from the repository root as

    PYTHONPATH=src python tests/thread_runs.py
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

from momenta import cli, linalg

from equivalence_runs import digest, verdicts

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402
from run import THREAD_VARS, _nproc  # noqa: E402

_COUNT_LINE = re.compile(r"^\S+: \d+/\d+ passed(, \d+ skipped)?$")
_TOTAL_LINE = re.compile(r"^(\d+ checks, \d+ passed), worst margin ")


def _count_lines(stdout: str) -> str:
    """The lines of a run's stdout that count checks, margins cut."""
    out = []
    for line in stdout.splitlines():
        total = _TOTAL_LINE.match(line)
        if total:
            out.append(total.group(1))
        elif _COUNT_LINE.match(line):
            out.append(line)
    return "\n".join(out)


def runs():
    """``(argv, report path)`` of every run, writing its inputs first."""
    for seed in (1, 2):
        for name in ("verify-file", "bounds-large"):
            for op in workloads.build(name, seed, "."):
                yield op.argv, op.report
    report = "report.json"
    for n in (64, 128, 256):
        name = f"h{n}.json"
        Path(name).write_text(cli.write_matrix_json(
            linalg.random_hermitian(n, 1)))
        specs = ["trace", "vector-state", "compression:8"]
        if n == 64:
            specs += ["identity", "pinching"]
        for spec in specs:
            yield ["verify", name, "--map", spec, "--seed", "1",
                   "--out", report], report
        yield ["bounds", name, "--out", report], report


def child() -> int:
    """Run every op in a temporary directory; one digest line each."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for argv, report in runs():
                if os.path.exists(report):
                    os.remove(report)
                out = io.StringIO()
                with (contextlib.redirect_stdout(out),
                      contextlib.redirect_stderr(io.StringIO())):
                    code = cli.main(argv)
                data = (Path(report).read_bytes() if os.path.exists(report)
                        else b"")
                print("\t".join([" ".join(argv), str(code),
                                 digest(_count_lines(out.getvalue()).encode()),
                                 digest(data), digest(verdicts(data))]))
        finally:
            os.chdir(cwd)
    return 0


def _child_lines(threads: int) -> list[list[str]] | None:
    """The digest lines of one child at ``threads`` BLAS threads, split into
    fields; None (after its stderr) if it fails."""
    env = dict(os.environ, **dict.fromkeys(THREAD_VARS, str(threads)))
    proc = subprocess.run([sys.executable, __file__, "--child"], env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"child at {threads} threads exited {proc.returncode}",
              file=sys.stderr)
        return None
    return [line.split("\t") for line in proc.stdout.splitlines()]


def main() -> int:
    nproc = _nproc()
    one, many = _child_lines(1), _child_lines(nproc)
    if one is None or many is None:
        return 1
    if len(one) != len(many):
        print(f"{len(one)} runs at 1 thread, {len(many)} at {nproc}",
              file=sys.stderr)
        return 1
    mismatched = reports = 0
    for a, b in zip(one, many):
        argv, code, counts, report, verdict = a
        if (argv, code, counts, verdict) != (b[0], b[1], b[2], b[4]):
            mismatched += 1
            print("mismatch\t" + "\t".join(a) + "\t" + "\t".join(b[1:]))
        if report != b[3]:
            reports += 1
            print(f"report differs\t{argv}")
    print(f"{len(one)} runs at 1 and {nproc} BLAS threads: {mismatched} "
          f"differ in exit code, count lines or verdicts, {reports} in "
          f"report bytes")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(child() if sys.argv[1:] == ["--child"] else main())
