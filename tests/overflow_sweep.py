"""Scale sweep of ``momenta verify`` across scales, maps and block orders.

Runs ``verify`` in process at ``--seed 3`` on ``c * M`` for six matrices M,
at c = 10^k for k = -330..-30 step 20 and k = 10..154 step 6, under four maps
at ``--r-max`` 0 and 3: 1,968 runs, and on each M at c = 1 under the same
maps and orders: 48 reference runs. It prints one tab-separated line per
sweep run: matrix, c, map, r-max, exit code, first stderr line, the number
of numpy warnings and whether its verdicts are those of c = 1. Then it
checks that every sweep run

- exits 0 and prints no numpy warning;
- judges every check as its reference run does, the same ``(check,
  passed)`` list, unless ``c * M`` is the zero matrix (at c = 1e-330 every
  entry underflows to 0).

A file is scaled by a power of two where it enters, and that scaling is
exact, so each check sees the same matrix at every scale where no entry
underflows. It exits 1 if a check fails. pytest does not collect it; run it
as

    PYTHONPATH=src python tests/overflow_sweep.py
"""

from __future__ import annotations

import contextlib
import io
import json
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


def run(tmp: str, matrix, c: float, spec: str, r_max: str):
    """``verify`` on ``c * matrix``: exit code, stderr, the numpy warnings it
    raised and its report's ``(check, passed)`` list (None for no report)."""
    path, report = os.path.join(tmp, "a.json"), os.path.join(tmp, "r.json")
    if os.path.exists(report):
        os.remove(report)
    with open(path, "w") as f:
        f.write(cli.write_matrix_json(c * matrix))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["verify", path, "--map", spec, "--r-max", r_max,
                             "--seed", "3", "--out", report])
    verdicts = None
    if os.path.exists(report):
        with open(report) as f:
            verdicts = [(r["check"], r["passed"])
                        for r in json.load(f)["records"]]
    return code, err.getvalue(), caught, verdicts


def main() -> int:
    bad = []
    codes = {}
    same = compared = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, matrix in MATRICES.items():
            for spec in MAPS:
                for r_max in R_MAX:
                    code, err, caught, reference = run(tmp, matrix, 1.0,
                                                       spec, r_max)
                    if code != 0 or caught:
                        bad.append(f"{name} 1 {spec} r_max={r_max}: "
                                   f"reference run exits {code}")
                    for k in EXPONENTS:
                        c = float(f"1e{k}")
                        code, err, caught, verdicts = run(tmp, matrix, c,
                                                          spec, r_max)
                        zero = not np.any(c * matrix)
                        match = verdicts == reference
                        first = err.partition("\n")[0]
                        print(f"{name}\t1e{k}\t{spec}\t{r_max}\t{code}\t"
                              f"{first}\t{len(caught)}\t"
                              f"{'zero' if zero else match}")
                        codes[code] = codes.get(code, 0) + 1
                        problems = []
                        if caught:
                            problems.append(f"{len(caught)} numpy warnings")
                        if code != 0:
                            problems.append(f"exit code {code}")
                        if not zero:
                            compared += 1
                            same += match
                            if not match:
                                problems.append("verdicts differ from c = 1")
                        bad += [f"{name} 1e{k} {spec} r_max={r_max}: "
                                f"{problem}" for problem in problems]
    total = sum(codes.values())
    print(f"{total} runs, exit codes "
          + ", ".join(f"{c}: {n}" for c, n in sorted(codes.items()))
          + f"; verdicts of c = 1 on {same} of {compared} nonzero matrices",
          file=sys.stderr)
    for line in bad:
        print(f"FAIL {line}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
