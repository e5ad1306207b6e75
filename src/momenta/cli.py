"""Command line interface: matrix ingestion, verification runs, reports.

Three subcommands:

``momenta bounds MATRIX``
    Extreme-eigenvalue bounds from the central-moment cubic, with the
    trace-moment comparator.

``momenta verify [MATRIX | --random]``
    Run the inequality catalog against one matrix or a seeded random
    campaign; exit status 0 exactly when no applicable check failed.

``momenta moments MATRIX``
    Print the moment blocks ``Phi(A^k)`` and the Hankel PSD verdicts.

Matrices are read from JSON (``{"rows": n, "cols": n, "entries": [[re, im],
...]}`` row-major) or CSV (``n`` lines of ``n`` comma-separated reals, for
real symmetric matrices). Serialization uses 17 significant digits, so a
write/parse round trip is exact and repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__, campaign, eigenbounds, moments
from .errors import DomainError, ShapeError
from .linalg import is_psd
from .maps import (
    Identity,
    NormalizedTrace,
    PositiveUnitalMap,
    random_map,
)

#: Environment variable that overrides the default seed.
SEED_ENV_VAR = "MOMENTA_SEED"

MAP_SPEC_HELP = "trace | vector-state | compression:k | pinching | identity"


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters shared by the subcommands."""

    tolerance: float = 1e-9
    r_max: int = 3
    map_spec: str = "trace"
    seed: int = 0
    instances: int = 200
    n_lo: int = 2
    n_hi: int = 6
    k_min: int = 0

    def __post_init__(self):
        if not self.tolerance > 0.0:
            raise ValueError("tolerance must be positive")
        if self.r_max < 0:
            raise ValueError("r-max must be non-negative")
        if self.instances < 1:
            raise ValueError("instances must be at least 1")
        if self.n_lo < 1 or self.n_hi < self.n_lo:
            raise ValueError("n-range must satisfy 1 <= lo <= hi")
        if self.k_min not in (-1, 0):
            raise ValueError("k-min must be -1 or 0")


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


def parse_matrix(path: str) -> np.ndarray:
    """Load a complex matrix from a JSON or CSV file.

    The format is chosen by content: files whose first non-space character
    is ``{`` are treated as JSON, everything else as CSV.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _matrix_from_json(text, path)
    return _matrix_from_csv(text, path)


def _matrix_from_json(text: str, path: str) -> np.ndarray:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: malformed JSON ({exc})") from None
    try:
        rows, cols = int(payload["rows"]), int(payload["cols"])
        entries = payload["entries"]
    except (KeyError, TypeError, ValueError):
        raise ValueError(
            f"{path}: expected keys rows, cols, entries"
        ) from None
    if rows != cols:
        raise ValueError(f"{path}: matrix is not square ({rows}x{cols})")
    if len(entries) != rows * cols:
        raise ValueError(
            f"{path}: expected {rows * cols} entries, found {len(entries)}"
        )
    flat = []
    for i, pair in enumerate(entries):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError(f"{path}: entry {i} is not a [re, im] pair")
        flat.append(complex(float(pair[0]), float(pair[1])))
    m = np.array(flat, dtype=np.complex128).reshape(rows, cols)
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{path}: matrix contains non-finite entries")
    return m


def _matrix_from_csv(text: str, path: str) -> np.ndarray:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty matrix file")
    rows = []
    for i, line in enumerate(lines):
        cells = [c.strip() for c in line.split(",")]
        try:
            rows.append([float(c) for c in cells])
        except ValueError:
            raise ValueError(f"{path}: row {i + 1} has a non-numeric cell") from None
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(
                f"{path}: row {i + 1} has {len(row)} columns, row 1 has {width}"
            )
    if len(rows) != width:
        raise ValueError(
            f"{path}: matrix is not square ({len(rows)} rows x {width} columns)"
        )
    m = np.array(rows, dtype=np.float64).astype(np.complex128)
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{path}: matrix contains non-finite entries")
    return m


def write_matrix_json(m: np.ndarray) -> str:
    """Serialize a matrix to the JSON wire format, 17 significant digits."""
    a = np.asarray(m, dtype=np.complex128)
    rows, cols = a.shape
    entries = ", ".join(
        f"[{_fmt17(v.real)}, {_fmt17(v.imag)}]" for v in a.flat
    )
    return f'{{"rows": {rows}, "cols": {cols}, "entries": [{entries}]}}\n'


def write_matrix_csv(m: np.ndarray) -> str:
    """Serialize a real matrix to CSV, 17 significant digits."""
    a = np.asarray(m, dtype=np.complex128)
    if np.any(a.imag != 0.0):
        raise ValueError("CSV holds real matrices only; entries have imaginary parts")
    return "\n".join(
        ",".join(_fmt17(v) for v in row) for row in a.real
    ) + "\n"


def build_map(spec: str, n: int, seed: int) -> PositiveUnitalMap:
    """Instantiate the map named by a CLI descriptor for dimension ``n``."""
    if spec == "trace":
        return NormalizedTrace(n)
    if spec == "identity":
        return Identity(n)
    if spec == "vector-state":
        return random_map("vector_state", n, seed=seed)
    if spec == "pinching":
        return random_map("pinching", n, seed=seed)
    if spec.startswith("compression"):
        _, _, arg = spec.partition(":")
        k = int(arg) if arg else max(1, n // 2)
        return random_map("compression", n, k, seed=seed)
    raise ValueError(f"unknown map descriptor {spec!r}; expected {MAP_SPEC_HELP}")


def _config_dict(config: RunConfig, source: str) -> dict:
    return {
        "input": source,
        "tolerance": config.tolerance,
        "r_max": config.r_max,
        "map": config.map_spec,
        "seed": config.seed,
        "instances": config.instances,
        "n_range": [config.n_lo, config.n_hi],
        "k_min": config.k_min,
    }


def make_report(config: RunConfig, source: str,
                records: list[moments.CheckRecord]) -> dict:
    """Assemble the JSON report structure, deterministically ordered."""
    ordered = sorted(records, key=lambda r: (r.check, r.seed))
    applicable = [r for r in ordered if r.passed is not None]
    return {
        "config": _config_dict(config, source),
        "records": [
            {
                "check": r.check,
                "citation": r.citation,
                "passed": r.passed,
                "margin": r.margin,
                "seed": r.seed,
            }
            for r in ordered
        ],
        "summary": {
            "total": len(ordered),
            "passed": sum(1 for r in applicable if r.passed),
            "skipped": len(ordered) - len(applicable),
            "worst_margin": min((r.margin for r in applicable), default=0.0),
        },
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _write_out(out_path: str | None, report: dict) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(report_to_json(report))


def _resolve_seed(arg_seed: int | None) -> int:
    if arg_seed is not None:
        return arg_seed
    env = os.environ.get(SEED_ENV_VAR)
    return int(env) if env else 0


def _config_from_args(args) -> RunConfig:
    lo, _, hi = args.n_range.partition(":")
    return RunConfig(
        tolerance=args.tol,
        r_max=args.r_max,
        map_spec=args.map,
        seed=_resolve_seed(args.seed),
        instances=args.instances,
        n_lo=int(lo),
        n_hi=int(hi) if hi else int(lo),
        k_min=args.k_min,
    )


def cmd_bounds(args) -> int:
    config = _config_from_args(args)
    m = parse_matrix(args.matrix)
    functional = build_map(config.map_spec, m.shape[0], config.seed)
    if not functional.is_functional:
        raise ValueError(
            f"bounds needs a functional map (trace or vector-state), "
            f"got {config.map_spec!r}"
        )
    report = eigenbounds.spectral_bounds(functional, m)
    values = []
    if report.degenerate:
        print("degenerate moment data: the functional sees at most two "
              "spectral atoms; no cubic bounds")
        print(f"gamma: {report.gamma:.12g}")
    else:
        c2, c1, c0 = report.cubic
        print(f"cubic coefficients: c2={c2:.12g} c1={c1:.12g} c0={c0:.12g}")
        print(f"gamma: {report.gamma:.12g}")
        print("roots:", " ".join(f"{r:.12g}" for r in report.roots))
        print(f"lambda_min <= {report.lambda_min_upper:.12g}")
        print(f"lambda_max >= {report.lambda_max_lower:.12g}")
        values += [("cubic_c2", c2), ("cubic_c1", c1), ("cubic_c0", c0),
                   ("lambda_min_upper", report.lambda_min_upper),
                   ("lambda_max_lower", report.lambda_max_lower)]
        values += [(f"root_{i}", r) for i, r in enumerate(report.roots)]
    values.append(("gamma", report.gamma))
    if report.ws_min_upper is not None:
        print(f"comparator (trace moments): lambda_min <= "
              f"{report.ws_min_upper:.12g}, lambda_max >= "
              f"{report.ws_max_lower:.12g}")
        values += [("ws_min_upper", report.ws_min_upper),
                   ("ws_max_lower", report.ws_max_lower)]
    records = [moments.record(name, config.seed, True, value)
               for name, value in values]
    _write_out(args.out, make_report(config, args.matrix, records))
    return 0


def cmd_moments(args) -> int:
    config = _config_from_args(args)
    m = parse_matrix(args.matrix)
    pulm = build_map(config.map_spec, m.shape[0], config.seed)
    k_max = 2 * config.r_max + 1
    table = moments.moment_table(pulm, m, config.k_min, k_max)
    records = []
    for k in range(config.k_min, k_max + 1):
        block = table.power(k)
        if pulm.is_functional:
            print(f"Phi(A^{k}) = {block[0, 0].real:.12g}")
        else:
            print(f"Phi(A^{k}) =")
            print(np.array_str(block, precision=10, suppress_small=True))
    for r in range(config.r_max + 1):
        block = moments.build_block("hankel", table, r)
        verdict = is_psd(block.assembled, config.tolerance, block.scale)
        status = "PASS" if verdict.passed else "FAIL"
        print(f"hankel r={r}: {status} (min eigenvalue {verdict.min_eigenvalue:.6g})")
        records.append(moments.record("psd_hankel", config.seed,
                                      verdict.passed, verdict.min_eigenvalue))
    _write_out(args.out, make_report(config, args.matrix, records))
    return 0 if all(r.passed for r in records) else 1


def cmd_verify(args) -> int:
    config = _config_from_args(args)
    if args.random:
        source = "random"
        records = campaign.run_campaign(
            count=config.instances, seed=config.seed,
            n_range=(config.n_lo, config.n_hi), r_max=config.r_max,
            tol=config.tolerance)
    else:
        if not args.matrix:
            raise ValueError("verify needs a matrix file or --random")
        source = args.matrix
        m = parse_matrix(args.matrix)
        pulm = build_map(config.map_spec, m.shape[0], config.seed)
        records = campaign.single_matrix_records(
            m, pulm, config.seed, config.r_max, config.tolerance)

    by_check: dict[str, list[moments.CheckRecord]] = {}
    for r in records:
        by_check.setdefault(r.check, []).append(r)
    for check in sorted(by_check):
        group = by_check[check]
        done = [r for r in group if r.passed is not None]
        failed = [r for r in done if not r.passed]
        line = f"{check}: {len(done) - len(failed)}/{len(done)} passed"
        if len(group) > len(done):
            line += f", {len(group) - len(done)} skipped"
        if failed:
            worst = min(r.margin for r in failed)
            seeds = ", ".join(str(r.seed) for r in failed[:5])
            line += f"  FAILED (worst margin {worst:.3e}; seeds {seeds})"
        print(line)

    applicable = [r for r in records if r.passed is not None]
    n_passed = sum(1 for r in applicable if r.passed)
    worst = min((r.margin for r in applicable), default=0.0)
    print(f"{len(records)} checks, {n_passed} passed, worst margin {worst:.6g}")
    _write_out(args.out, make_report(config, source, records))
    return 0 if n_passed == len(applicable) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momenta",
        description="Moment matrices of positive unital maps and eigenvalue "
                    "bounds for Hermitian matrices.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_matrix=True, matrix_optional=False):
        if needs_matrix:
            nargs = "?" if matrix_optional else None
            p.add_argument("matrix", nargs=nargs,
                           help="matrix file (JSON or CSV)")
        p.add_argument("--tol", type=float, default=1e-9,
                       help="relative tolerance of every PSD and scalar "
                            "verdict, at its operands' scale (default 1e-9)")
        p.add_argument("--r-max", type=int, default=3, dest="r_max",
                       help="largest block order (default 3)")
        p.add_argument("--map", default="trace", help=MAP_SPEC_HELP)
        p.add_argument("--seed", type=int, default=None,
                       help=f"seed (default: ${SEED_ENV_VAR} or 0)")
        p.add_argument("--instances", type=int, default=200,
                       help="random-mode instance count (default 200)")
        p.add_argument("--n-range", default="2:6", dest="n_range",
                       help="random-mode dimension range lo:hi (default 2:6)")
        p.add_argument("--k-min", type=int, default=0, dest="k_min",
                       choices=(-1, 0), help="lowest tabulated power")
        p.add_argument("--out", default=None, help="write a JSON report here")

    p_bounds = sub.add_parser(
        "bounds", help="extreme-eigenvalue bounds from central moments")
    common(p_bounds)
    p_bounds.set_defaults(func=cmd_bounds)

    p_verify = sub.add_parser(
        "verify", help="run the inequality catalog and report")
    common(p_verify, matrix_optional=True)
    p_verify.add_argument("--random", action="store_true",
                          help="verify a seeded random campaign instead of a file")
    p_verify.set_defaults(func=cmd_verify)

    p_moments = sub.add_parser(
        "moments", help="print moment blocks and Hankel verdicts")
    common(p_moments)
    p_moments.set_defaults(func=cmd_moments)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing never mutates it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, DomainError, ShapeError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
