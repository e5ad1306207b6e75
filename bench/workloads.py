"""Benchmark workloads: seeded inputs, op argument lists and output checks.

Every op is one ``momenta.cli.main(argv)`` call. The op table of a workload
is fixed (sizes, map kinds, formats); the workload seed draws the matrix
entries, spectra and per-op program seeds. Reference spectra come from
``numpy.linalg.eigvalsh`` and are computed here, outside the timed region.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("campaign", "verify-file", "bounds-large")

#: Instances per ``verify --random`` op: one full cycle of the six map kinds,
#: which also covers n = 2..6 and r = 0..3.
CAMPAIGN_INSTANCES = 6

#: Validity tolerance of a cubic bound, relative to the spectral radius.
BOUND_RTOL = 1e-8

#: Exactness tolerance of a cubic bound on a three-atom spectrum.
EXACT_RTOL = 1e-6

_NON_FINITE = re.compile(r"(?<![A-Za-z])(inf|nan)(?![A-Za-z])", re.IGNORECASE)

# Op tables. A pass runs its workload's table once, in order. The file
# workloads group ops into cost tiers (4 cheap, 8 middle, 6 upper, 2 largest).
# The median and the tail percentile fall inside the middle and upper tiers,
# which hold like ops only, rather than on the seam between two kinds.
_CAMPAIGN_OPS = {"full": 42, "smoke": 2}

#: Passes every untraced run makes, however long they take. The work of a
#: ``verify --random`` op varies with its program seed by about 15%, so
#: ``campaign`` runs many distinct ops once rather than a few ops three
#: times; the file workloads' work is set by their fixed tables.
MIN_PASSES = {"campaign": 1, "verify-file": 3, "bounds-large": 3}

_VERIFY_TABLE = {
    "full": ((6, "pinching"),) * 4
    + ((16, "trace"), (16, "vector-state")) * 4
    + ((18, "trace"), (18, "vector-state")) * 3
    + ((16, "compression:4"),) * 2,
    "smoke": ((6, "trace"), (6, "pinching"), (8, "compression:3"),
              (8, "vector-state")),
}

# (n, format, three-atom spectrum)
_BOUNDS_TABLE = {
    "full": ((32, "json", True), (32, "csv", True)) * 2
    + ((48, "json", False), (48, "csv", False)) * 4
    + ((56, "json", False), (56, "csv", False)) * 3
    + ((80, "json", False), (80, "csv", False)),
    "smoke": ((8, "json", False), (8, "csv", True),
              (12, "json", True), (12, "csv", False)),
}


@dataclass
class Op:
    """One CLI call plus what its output is checked against."""

    argv: list[str]
    kind: str                   # "verify" or "bounds"
    matrices: int               # input matrices the op completes
    report: str                 # path of the JSON report the op writes
    ref: np.ndarray | None = None   # reference eigenvalues, ascending
    three_atom: bool = False


@dataclass
class Outcome:
    """Checks of one op: program checks, benchmark validation, errors."""

    checks: int = 0             # applicable checks
    check_failures: int = 0     # failed program checks or rejected bounds
    error: str | None = None    # raised, bad exit code or non-finite bound
    invalid: list[str] = field(default_factory=list)  # output inconsistencies

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.invalid)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_json(path: str, m: np.ndarray) -> None:
    rows, cols = m.shape
    entries = ", ".join(f"[{_fmt(v.real)}, {_fmt(v.imag)}]" for v in m.flat)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"rows": {rows}, "cols": {cols}, "entries": [{entries}]}}\n')


def _write_csv(path: str, m: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in m.real:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _random_hermitian(rng, n: int, real: bool) -> np.ndarray:
    g = rng.standard_normal((n, n))
    if not real:
        g = g + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2.0


def _three_atom(rng, n: int, real: bool) -> np.ndarray:
    """Hermitian matrix whose spectrum has exactly three distinct values."""
    atoms = np.sort(rng.uniform(-2.0, 2.0, 3))
    while np.min(np.diff(atoms)) < 0.5:
        atoms = np.sort(rng.uniform(-2.0, 2.0, 3))
    cuts = np.sort(rng.choice(np.arange(1, n), size=2, replace=False))
    lam = np.repeat(atoms, np.diff(np.concatenate(([0], cuts, [n]))))
    g = rng.standard_normal((n, n))
    if not real:
        g = g + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(g)
    a = (q * lam) @ q.conj().T
    return (a + a.conj().T) / 2.0


def _program_seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def build(name: str, seed: int, workdir: str, size: str = "full") -> list[Op]:
    """The op table of workload ``name``, with inputs written to ``workdir``."""
    if name == "campaign":
        return _campaign(seed, workdir, _CAMPAIGN_OPS[size])
    if name == "verify-file":
        return _verify_file(seed, workdir, _VERIFY_TABLE[size])
    if name == "bounds-large":
        return _bounds_large(seed, workdir, _BOUNDS_TABLE[size])
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")


def _campaign(seed: int, workdir: str, count: int) -> list[Op]:
    rng = np.random.default_rng([seed, 0])
    ops = []
    for i in range(count):
        report = os.path.join(workdir, f"report-{i}.json")
        argv = ["verify", "--random", "--instances", str(CAMPAIGN_INSTANCES),
                "--seed", str(_program_seed(rng)), "--out", report]
        # Each op verifies the Hermitian corpus and the normal corpus.
        ops.append(Op(argv, "verify", 2 * CAMPAIGN_INSTANCES, report))
    return ops


def _verify_file(seed: int, workdir: str, table) -> list[Op]:
    ops = []
    for i, (n, spec) in enumerate(table):
        rng = np.random.default_rng([seed, 1, i])
        h = _random_hermitian(rng, n, real=False)
        path = os.path.join(workdir, f"verify-{i}.json")
        _write_json(path, h)
        report = os.path.join(workdir, f"report-{i}.json")
        argv = ["verify", path, "--map", spec,
                "--seed", str(_program_seed(rng)), "--out", report]
        ops.append(Op(argv, "verify", 1, report, ref=np.linalg.eigvalsh(h)))
    return ops


def _bounds_large(seed: int, workdir: str, table) -> list[Op]:
    ops = []
    for i, (n, fmt, three) in enumerate(table):
        rng = np.random.default_rng([seed, 2, i])
        real = fmt == "csv"
        h = _three_atom(rng, n, real) if three else _random_hermitian(rng, n, real)
        path = os.path.join(workdir, f"bounds-{i}.{fmt}")
        (_write_csv if real else _write_json)(path, h)
        report = os.path.join(workdir, f"report-{i}.json")
        ops.append(Op(["bounds", path, "--out", report], "bounds", 1, report,
                      ref=np.linalg.eigvalsh(h), three_atom=three))
    return ops


def _load_report(op: Op, out: Outcome) -> dict | None:
    try:
        with open(op.report, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        out.error = f"no readable report ({exc})"
        return None


def check(op: Op, code: int, stdout: str) -> Outcome:
    """Check one op's exit code, stdout and report; hide no failure."""
    out = Outcome()
    report = _load_report(op, out)
    if report is None:
        return out
    (_check_verify if op.kind == "verify" else _check_bounds)(
        op, code, stdout, report, out)
    return out


def _check_verify(op: Op, code: int, stdout: str, report: dict,
                  out: Outcome) -> None:
    records = report["records"]
    applicable = [r for r in records if r["passed"] is not None]
    failed = [r for r in applicable if not r["passed"]]
    out.checks = len(applicable)
    out.check_failures = len(failed)
    expected = 1 if failed else 0
    if code != expected:
        if code != 0 and not failed:
            out.error = f"exit {code} with no failing check"
        else:
            out.invalid.append(f"exit {code}, expected {expected}")
    summary = report["summary"]
    want = {
        "total": len(records),
        "passed": len(applicable) - len(failed),
        "skipped": len(records) - len(applicable),
        "worst_margin": min((r["margin"] for r in applicable), default=0.0),
    }
    for key, value in want.items():
        if summary.get(key) != value:
            out.invalid.append(f"summary {key} {summary.get(key)!r} != {value!r}")
    if op.ref is not None:
        # The positive definite checks apply exactly when the input is PD.
        pd_records = [r for r in records if r["check"] == "psd_lower_shift_inv"]
        pd = bool(op.ref[0] > 0.0)
        if not pd_records or (pd_records[0]["passed"] is not None) != pd:
            out.invalid.append("positive definite checks disagree with reference")


def _check_bounds(op: Op, code: int, stdout: str, report: dict,
                  out: Outcome) -> None:
    values = {r["check"]: r["margin"] for r in report["records"]}
    if code != 0:
        out.error = f"exit {code}"
        return
    if _NON_FINITE.search(stdout) or not all(
            math.isfinite(v) for v in values.values()):
        out.error = "non-finite bound"
        return
    lo, hi = float(op.ref[0]), float(op.ref[-1])
    scale = max(abs(lo), abs(hi))
    tol, exact = BOUND_RTOL * scale, EXACT_RTOL * scale
    out.checks = 2
    for name, ref, valid in (("lambda_min_upper", lo, lambda b: lo <= b + tol),
                             ("lambda_max_lower", hi, lambda b: hi >= b - tol)):
        bound = values.get(name)
        if (bound is None or not valid(bound)
                or (op.three_atom and abs(bound - ref) > exact)):
            out.invalid.append(f"{name} {bound!r} rejected, reference {ref!r}")
    out.check_failures = len(out.invalid)
