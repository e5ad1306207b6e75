"""Overflow sweep of ``momenta verify`` across scales, maps and block orders.

Runs ``verify`` in process at ``--seed 3`` on ``c * M`` for six matrices M,
at c = 10^k for k = -330..-30 step 20 and k = 10..154 step 6, under four maps
at ``--r-max`` 0 and 3: 1,968 runs. It prints one tab-separated line per
run: matrix, c, map, r-max, exit code, first stderr line and the number of
numpy warnings. Then it checks that

- no run prints a numpy warning;
- every exit 1 has exactly one ``error:`` line, and that line names an
  overflow;
- every run at c in {1e22, 1e28, 1e34} exits 0: every entry of every block
  is finite there, although the Frobenius norms of the high blocks are not.

It exits 1 if a check fails. pytest does not collect it; run it as

    PYTHONPATH=src python tests/overflow_sweep.py
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
import warnings

import numpy as np

from momenta import cli, linalg

from conftest import random_psd

MATRICES = {
    "diag3": np.diag([-1.0, 0.5, 2.0]),
    "psd3": random_psd(3, 2),
    "normal2": np.diag([1j, -1j]),
    "herm8": linalg.random_hermitian(8, 1),
    "pd8": random_psd(8, 2) + np.eye(8),
    "normal6": linalg.random_normal_matrix(6, 5),
}
EXPONENTS = [*range(-330, -29, 20), *range(10, 155, 6)]
MAPS = ["trace", "compression:2", "identity", "vector-state"]
R_MAX = ["0", "3"]

#: Scales at which every run must verify.
MUST_PASS = {22, 28, 34}


def run(path: str, matrix, c: float, spec: str, r_max: str):
    """``verify`` on ``c * matrix``: exit code, stdout, stderr and the
    numpy warnings it raised."""
    with open(path, "w") as f:
        f.write(cli.write_matrix_json(c * matrix))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["verify", path, "--map", spec, "--r-max", r_max,
                             "--seed", "3"])
    return code, out.getvalue(), err.getvalue(), caught


def violations(k: int, code: int, err: str, caught) -> list[str]:
    """What is wrong with one run, if anything."""
    problems = []
    if caught:
        problems.append(f"{len(caught)} numpy warnings")
    if code != 0:
        lines = err.splitlines()
        if not (code == 1 and len(lines) == 1
                and lines[0].startswith("error: ") and "overflow" in lines[0]):
            problems.append("not one error line naming an overflow")
    if k in MUST_PASS and code != 0:
        problems.append("exit code not 0")
    return problems


def main() -> int:
    bad = []
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "a.json")
        for name, matrix in MATRICES.items():
            for k in EXPONENTS:
                c = float(f"1e{k}")
                for spec in MAPS:
                    for r_max in R_MAX:
                        code, _, err, caught = run(path, matrix, c, spec,
                                                   r_max)
                        first = err.partition("\n")[0]
                        print(f"{name}\t1e{k}\t{spec}\t{r_max}\t{code}\t"
                              f"{first}\t{len(caught)}")
                        codes[code] = codes.get(code, 0) + 1
                        for problem in violations(k, code, err, caught):
                            bad.append(f"{name} 1e{k} {spec} r_max={r_max}: "
                                       f"{problem}")
    total = sum(codes.values())
    print(f"{total} runs, exit codes "
          + ", ".join(f"{c}: {n}" for c, n in sorted(codes.items())),
          file=sys.stderr)
    for line in bad:
        print(f"FAIL {line}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
