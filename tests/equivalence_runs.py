"""Digest of 250 ``momenta`` runs, for checking that a change alters no output.

Runs ``momenta.cli.main`` in process, in a temporary directory, on

- every op of the three benchmark workloads (``bench/workloads.py``) at
  workload seeds 1 and 2: 164 runs;
- ``verify --random --instances 200 --seed 42``;
- ``verify`` and ``moments`` at ``--seed 3`` on ``random_hermitian(n, 1)``
  and ``random_psd(n, 2) + I`` at n = 8 and 24, under each of the five
  ``--map`` values: 40 runs;
- ``verify`` on the normal ``random_normal_matrix(6, 5)``, on a normal
  matrix with the clustered spectrum {1, 1, i, i, -1} and on the non-normal
  ``triu(random_hermitian(4, 7))`` under trace, ``compression:2`` and
  vector-state: 9 runs; and on the normal ``random_normal_matrix(64, 5)``
  under trace and ``compression:2``, where its joint eigensolve costs most:
  2 runs;
- ``moments --k-min -1`` on the four files of the second item: 4 runs;
- the settings and error paths of the command line: the bare
  ``--map compression``, ``bounds`` under vector-state, ``verify --random``
  with ``--n-range``, ``--r-max`` and ``--tol`` given, ``moments --r-max 0``,
  seven runs that exit 1 (a flag of the other ``verify`` mode, ``bounds``
  under a map that is not a functional, ``--n-range 3:2``, ``--tol 0``, no
  input, and ``--out`` into a missing directory), four malformed ``--map``
  values and three malformed ``--n-range`` values: 19 runs;
- ``bounds`` on a Hermitian JSON file with a string entry and on one with a
  boolean entry, which exit 1, as neither is a JSON number: 2 runs;
- ``verify`` under identity and trace on the positive definite
  ``hermitian_with_spectrum([d, 0.5, 1, 2], 3)`` at d = 1e-8 and 1e-10,
  condition numbers 2e8 and 2e10: 4 runs;
- ``verify`` under trace and ``compression:4`` on ``random_hermitian(8, 1)``
  with 1e-12 added to entry (0, 1), Hermitian up to rounding: 2 runs;
- ``bounds`` on a JSON file with a null entry, which exits 1: 1 run;
- ``verify --map identity --seed -1`` and ``moments --k-min 5`` on the
  Hermitian n = 8 file, two settings that ``RunConfig`` rejects with one
  error line: 2 runs.

It prints one tab-separated line per run: the argv, the exit code, the
sha256 of stdout, of stderr and of the JSON report, and the sha256 of the
report's verdicts: its ``(check, seed, passed)`` triples and its summary
counts, without margins. Every path is relative to the temporary directory,
so two checkouts print the same lines exactly when their runs give the same
bytes; diff the two outputs to check a change that should alter none. A
change that moves margins only, by rounding, keeps the verdict digests. It
exits 1 if a run raises a numpy warning. pytest does not collect it; run it
from the repository root as

    PYTHONPATH=src python tests/equivalence_runs.py > runs.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from momenta import cli, linalg

from conftest import load_bench, random_psd

workloads = load_bench("workloads")

MAPS = ["trace", "vector-state", "compression:4", "pinching", "identity"]
NORMAL_MAPS = ["trace", "compression:2", "vector-state"]
REPORT = "report.json"


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv: list[str], report: str) -> tuple[str, int]:
    """One in-process run: its digest line and its numpy warning count."""
    if os.path.exists(report):
        os.remove(report)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    data = Path(report).read_bytes() if os.path.exists(report) else b""
    line = "\t".join([" ".join(argv), str(code),
                      digest(out.getvalue().encode()),
                      digest(err.getvalue().encode()), digest(data),
                      digest(verdicts(data))])
    return line, len(caught)


def verdicts(data: bytes) -> bytes:
    """A report's ``(check, seed, passed)`` triples and summary counts, as
    JSON; empty for no report."""
    if not data:
        return b""
    report = json.loads(data)
    summary = report["summary"]
    return json.dumps([[[r["check"], r["seed"], r["passed"]]
                        for r in report["records"]],
                       [summary[k] for k in ("total", "passed", "skipped")]
                       ]).encode()


def runs():
    """``(argv, report path)`` of every run, writing its inputs first."""
    for seed in (1, 2):
        for name in workloads.WORKLOADS:
            for op in workloads.build(name, seed, "."):
                yield op.argv, op.report
    yield ["verify", "--random", "--instances", "200", "--seed", "42",
           "--out", REPORT], REPORT
    files = []
    for n in (8, 24):
        for name, matrix in ((f"h{n}.json", linalg.random_hermitian(n, 1)),
                             (f"pd{n}.json",
                              random_psd(n, 2) + np.eye(n))):
            Path(name).write_text(cli.write_matrix_json(matrix))
            files.append(name)
            for command in ("verify", "moments"):
                for spec in MAPS:
                    yield [command, name, "--map", spec, "--seed", "3",
                           "--out", REPORT], REPORT
    Path("normal6.json").write_text(
        cli.write_matrix_json(linalg.random_normal_matrix(6, 5)))
    Path("triu4.json").write_text(
        cli.write_matrix_json(np.triu(linalg.random_hermitian(4, 7))))
    u = linalg.random_unitary(5, 9)
    Path("cluster5.json").write_text(cli.write_matrix_json(
        (u * np.array([1, 1, 1j, 1j, -1])) @ u.conj().T))
    for name in ("normal6.json", "triu4.json", "cluster5.json"):
        for spec in NORMAL_MAPS:
            yield ["verify", name, "--map", spec, "--out", REPORT], REPORT
    Path("normal64.json").write_text(
        cli.write_matrix_json(linalg.random_normal_matrix(64, 5)))
    for spec in NORMAL_MAPS[:2]:
        yield ["verify", "normal64.json", "--map", spec, "--out", REPORT], REPORT
    for name in files:
        yield ["moments", name, "--k-min", "-1", "--out", REPORT], REPORT
    for argv in (["verify", "h8.json", "--map", "compression"],
                 ["moments", "pd8.json", "--map", "compression"],
                 ["bounds", "h24.json", "--map", "vector-state", "--seed", "3"],
                 ["verify", "--random", "--instances", "20", "--seed", "7",
                  "--n-range", "3:5", "--r-max", "2", "--tol", "1e-7"],
                 ["moments", "h8.json", "--r-max", "0"],
                 ["verify", "--random", "--map", "trace"],
                 ["verify", "h8.json", "--instances", "5"],
                 ["bounds", "h8.json", "--map", "pinching"],
                 ["verify", "--random", "--n-range", "3:2"],
                 ["moments", "h8.json", "--tol", "0"],
                 ["verify", "--seed", "3"],
                 *(["verify", "h8.json", "--map", spec]
                   for spec in ("compressionXYZ", "compressionXYZ:3",
                                "compression:abc", "compression:")),
                 *(["verify", "--random", "--n-range", value]
                   for value in ("abc", "2:x", "3:"))):
        yield argv + ["--out", REPORT], REPORT
    missing = os.path.join("missing", REPORT)
    yield ["verify", "h8.json", "--out", missing], missing
    for name, entries in (("string2.json", '[2,0],["1.5",0],["1.5",0],[3,0]'),
                          ("bool2.json", "[true,0],[0,0],[0,0],[1,0]")):
        Path(name).write_text(
            f'{{"rows": 2, "cols": 2, "entries": [{entries}]}}\n')
        yield ["bounds", name, "--out", REPORT], REPORT
    for d in ("1e-8", "1e-10"):
        Path(f"pd{d}.json").write_text(cli.write_matrix_json(
            linalg.hermitian_with_spectrum([float(d), 0.5, 1.0, 2.0], 3)))
        for spec in ("identity", "trace"):
            yield ["verify", f"pd{d}.json", "--map", spec, "--out", REPORT], REPORT
    nearly = linalg.random_hermitian(8, 1)
    nearly[0, 1] += 1e-12
    Path("nearly8.json").write_text(cli.write_matrix_json(nearly))
    for spec in ("trace", "compression:4"):
        yield ["verify", "nearly8.json", "--map", spec, "--out", REPORT], REPORT
    Path("null2.json").write_text(
        '{"rows": 2, "cols": 2, "entries": [[1,0],[0,0],[0,0],[null,0]]}\n')
    yield ["bounds", "null2.json", "--out", REPORT], REPORT
    for argv in (["verify", "h8.json", "--map", "identity", "--seed", "-1"],
                 ["moments", "h8.json", "--k-min", "5"]):
        yield argv + ["--out", REPORT], REPORT


def main() -> int:
    count = warned = 0
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            # a generator: each workload's inputs are written just before
            # its ops run, so seed 2's files replace seed 1's after use
            for argv, report in runs():
                line, warns = run(argv, report)
                print(line)
                count += 1
                warned += warns > 0
        finally:
            os.chdir(cwd)
    print(f"{count} runs, {warned} with numpy warnings", file=sys.stderr)
    return 1 if warned else 0


if __name__ == "__main__":
    sys.exit(main())
