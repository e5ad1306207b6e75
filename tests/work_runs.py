"""LAPACK eigensolver work of the three benchmark workloads, per pass.

Builds the seed-1 op table of each workload of ``bench/workloads.py``
(loaded by ``conftest.load_bench``, which writes nothing under ``bench/``)
and runs it twice in process, each op one ``momenta.cli.main(argv)`` call
with its output discarded, in a temporary directory. Around the runs it
wraps ``numpy.linalg.eigh`` and ``numpy.linalg.eigvalsh``, the two LAPACK
routines the package solves with, and counts per pass each one's calls and
its work ``sum n^3`` over the matrices it solved (a stack of matrices counts
each). Unlike the tracer's eigensolve requests, which a memo hit also
counts, these are the solves that ran. The reference spectra that
``workloads.build`` solves for, one per file op, are outside the counts. It
prints one line per workload and routine:

    workload  routine  calls  sum n^3

and exits 1 if the two passes of a workload differ in any count. pytest does
not collect it; run it from the repository root as

    PYTHONPATH=src python tests/work_runs.py
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import sys
import tempfile

import numpy as np

from momenta import cli

from conftest import load_bench

ROUTINES = ("eigh", "eigvalsh")


@contextlib.contextmanager
def counting(counts: dict):
    """Count the calls and ``sum n^3`` of each routine into ``counts``."""
    originals = {name: getattr(np.linalg, name) for name in ROUTINES}

    def wrap(name):
        solve = originals[name]

        def counted(a, *args, **kwargs):
            shape = np.shape(a)
            calls, work = counts[name]
            counts[name] = (calls + 1,
                            work + math.prod(shape[:-2]) * shape[-1] ** 3)
            return solve(a, *args, **kwargs)
        return counted

    for name in ROUTINES:
        setattr(np.linalg, name, wrap(name))
    try:
        yield counts
    finally:
        for name, solve in originals.items():
            setattr(np.linalg, name, solve)


def run_pass(ops) -> dict:
    """One pass of an op table: ``{routine: (calls, sum n^3)}``."""
    counts = dict.fromkeys(ROUTINES, (0, 0))
    with counting(counts):
        for op in ops:
            with (contextlib.redirect_stdout(io.StringIO()),
                  contextlib.redirect_stderr(io.StringIO())):
                cli.main(op.argv)
    return counts


def main() -> int:
    workloads = load_bench("workloads")
    differ = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name in workloads.WORKLOADS:
                ops = workloads.build(name, 1, ".")
                first, second = run_pass(ops), run_pass(ops)
                for routine in ROUTINES:
                    calls, work = first[routine]
                    print(f"{name}\t{routine}\t{calls}\t{work}")
                if first != second:
                    differ.append(f"{name}: {first} then {second}")
        finally:
            os.chdir(cwd)
    for line in differ:
        print(f"FAIL passes differ, {line}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
