"""Command line interface: matrix ingestion, verification runs, reports.

Three subcommands:

``momenta bounds MATRIX``
    Extreme-eigenvalue bounds from the central-moment cubic, with the
    trace-moment comparator.

``momenta verify [MATRIX | --random]``
    Run the inequality catalog against one matrix or a seeded random
    campaign.

``momenta moments MATRIX``
    Print the moment blocks ``Phi(A^k)`` and the Hankel PSD verdicts.

Each exits 0 exactly when no applicable check of its report failed.

Matrices are read from JSON (``{"rows": n, "cols": n, "entries": [[re, im],
...]}`` row-major) or CSV (``n`` lines of ``n`` comma-separated reals, for
real symmetric matrices). Serialization uses 17 significant digits, so a
write/parse round trip is exact and repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__, campaign, eigenbounds, moments
from .linalg import DEFAULT_PSD_TOL
from .maps import MAP_KINDS, PositiveUnitalMap, random_map

MAP_SPEC_HELP = "trace | vector-state | compression:k | pinching | identity"


@dataclass(frozen=True)
class RunConfig:
    """Validated run settings, named as in a report's ``config``, and the one
    declaration of their defaults; a subcommand sets those it has flags for."""

    tolerance: float = DEFAULT_PSD_TOL
    r_max: int = 3
    map: str = "trace"
    seed: int = 0
    instances: int = 200
    n_range: tuple[int, int] = (2, 6)
    k_min: int = 0

    def __post_init__(self):
        if not 0.0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be positive and finite")
        if self.r_max < 0:
            raise ValueError("r-max must be non-negative")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.instances < 1:
            raise ValueError("instances must be at least 1")
        lo, hi = self.n_range
        if lo < 1 or hi < lo:
            raise ValueError("n-range must satisfy 1 <= lo <= hi")
        if self.k_min not in (-1, 0):
            raise ValueError("k-min must be -1 or 0")


def integer(text: str) -> int:
    """An optional ``-`` and ASCII digits as an int: the one rule for every
    integer on the command line. ``int()`` would also read ``+3``, `` 3``,
    ``1_0`` and non-ASCII digits."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


#: Every option flag; each subcommand takes the ones it reads. A flag sets
#: the RunConfig field of its dest, and one left at None keeps the default.
_FLAGS = {
    "--tol": dict(type=float, dest="tolerance", help=(
        "relative tolerance of every PSD and scalar verdict, at its operands' "
        "scale (default " + np.format_float_scientific(
            RunConfig.tolerance, trim="-", exp_digits=1) + ")")),
    "--r-max": dict(type=integer,
                    help=f"largest block order (default {RunConfig.r_max})"),
    "--map": dict(metavar="MAP_SPEC",
                  help=f"{MAP_SPEC_HELP} (default {RunConfig.map})"),
    "--seed": dict(type=integer, help=f"seed (default {RunConfig.seed})"),
    "--instances": dict(type=integer, help="random-mode instance count "
                                           f"(default {RunConfig.instances})"),
    "--n-range": dict(help="random-mode dimension range lo:hi "
                           "(default {}:{})".format(*RunConfig.n_range)),
    "--k-min": dict(type=integer, help="lowest tabulated power, -1 or 0 "
                                       f"(default {RunConfig.k_min})"),
    "--out": dict(help="write a JSON report here"),
}


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


def parse_matrix(path: str) -> np.ndarray:
    """Load a complex matrix from a JSON or CSV file.

    The format is chosen by content: files whose first non-space character
    is ``{`` are treated as JSON, everything else as CSV. A UTF-8 byte order
    mark at the start of the file is dropped.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        m = _matrix_from_json(text, path)
    else:
        m = _matrix_from_csv(text, path)
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{path}: matrix contains non-finite entries")
    return m


#: The types ``json`` decodes a number to; not ``bool``, though it
#: subclasses ``int``, nor the ``None`` of a null.
_JSON_NUMBER_TYPES = {int, float}


def _matrix_from_json(text: str, path: str) -> np.ndarray:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: malformed JSON ({exc})") from None
    try:
        rows, cols, entries = payload["rows"], payload["cols"], payload["entries"]
    except (KeyError, TypeError):
        raise ValueError(
            f"{path}: expected keys rows, cols, entries"
        ) from None
    # int() would truncate 1.5 and read "1" or true; bool subclasses int
    if type(rows) is not int or type(cols) is not int:
        raise ValueError(f"{path}: rows and cols must be JSON integers")
    if rows < 1 or cols < 1:
        raise ValueError(f"{path}: rows and cols must be at least 1")
    if rows != cols:
        raise ValueError(f"{path}: matrix is not square ({rows}x{cols})")
    count, pairs = rows * cols, None
    try:  # one float per JSON number
        flat = list(itertools.chain.from_iterable(entries))
        if (len(flat) == 2 * count and set(map(len, entries)) == {2}
                and set(map(type, flat)) <= _JSON_NUMBER_TYPES):
            pairs = np.fromiter(flat, np.float64, 2 * count)
    except (TypeError, OverflowError):
        pass
    if pairs is None:
        # float() would read a string ("1_0" as 10) or a boolean, and numpy
        # a null as nan; the shape numpy reads names any other fault
        try:
            shape = np.array(entries, dtype=np.float64).shape
        except (TypeError, ValueError, OverflowError):
            shape = None
        if shape is not None and shape != (count, 2):
            raise ValueError(f"{path}: expected {count} [re, im] entries, "
                             f"found an array of shape {shape}")
        raise ValueError(f"{path}: entries must be [re, im] number pairs")
    # (re, im) float pairs are the memory layout of complex128: exact
    return pairs.view(np.complex128).reshape(rows, cols)


def _matrix_from_csv(text: str, path: str) -> np.ndarray:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty matrix file")
    rows = []
    for i, line in enumerate(lines):
        try:  # float() strips each cell, but would read 1_0 as 10
            if "_" in line:
                raise ValueError
            rows.append([float(c) for c in line.split(",")])
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
    return np.array(rows, dtype=np.float64).astype(np.complex128)


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
    """Instantiate the map named by a CLI descriptor for dimension ``n``: a
    ``MAP_KINDS`` name but ``mixture``, and ``:k`` after a compression."""
    name, colon, arg = spec.partition(":")
    if (name in MAP_KINDS and name != "mixture"
            and (not colon or name == "compression")):
        try:
            k = integer(arg) if colon else None
        except ValueError:
            pass
        else:
            return random_map(name, n, k, seed=seed)
    raise ValueError(f"unknown map descriptor {spec!r}; expected {MAP_SPEC_HELP}")


def make_report(config: RunConfig, source: str,
                records: list[moments.CheckRecord]) -> dict:
    """Assemble the JSON report structure, deterministically ordered."""
    ordered = sorted(records, key=lambda r: (r.check, r.seed))
    applicable = [r for r in ordered if r.passed is not None]
    return {
        "config": {"input": source, **asdict(config)},
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


#: One record as ``json.dumps(..., indent=2, sort_keys=True)`` lays it out
#: inside a report: keys sorted, at depth 2.
_RECORD_TEMPLATE = """    {{
      "check": {},
      "citation": {},
      "margin": {},
      "passed": {},
      "seed": {}
    }}"""

_JSON_CONSTANTS = {True: "true", False: "false", None: "null"}


def _json_float(x: float) -> str:
    """A float as ``json`` writes it: its repr, or NaN and +-Infinity."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _nested_json(value) -> str:
    """``value`` as ``json.dumps`` lays it out one level down."""
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")


def report_to_json(report: dict) -> str:
    """A :func:`make_report` report as JSON, byte for byte
    ``json.dumps(report, indent=2, sort_keys=True) + "\\n"``.

    Each record is written from one template, since that encoder spends a
    Python call per item; ``json.dumps`` lays out ``config`` and
    ``summary``.
    """
    text = encode_basestring_ascii
    records = ",\n".join(_RECORD_TEMPLATE.format(
        text(r["check"]), text(r["citation"]), _json_float(r["margin"]),
        _JSON_CONSTANTS[r["passed"]], int.__repr__(r["seed"]))
        for r in report["records"])
    records = f"[\n{records}\n  ]" if report["records"] else "[]"
    return (f'{{\n  "config": {_nested_json(report["config"])},\n'
            f'  "records": {records},\n'
            f'  "summary": {_nested_json(report["summary"])}\n}}\n')


def _config_from_args(args) -> RunConfig:
    """The run's config from the flags given, once they fit ``verify``'s
    mode; defaults for the others."""
    given = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    random = getattr(args, "random", False)
    if random and (args.matrix or given["map"] is not None):
        raise ValueError("--random takes no matrix file and no --map")
    if not random and (given["instances"], given["n_range"]) != (None, None):
        raise ValueError("--instances and --n-range apply to --random only")
    if given["n_range"] is not None:
        lo, colon, hi = given["n_range"].partition(":")
        try:
            given["n_range"] = integer(lo), integer(hi if colon else lo)
        except ValueError:
            raise ValueError(f"--n-range takes lo or lo:hi in integers, "
                             f"got {given['n_range']!r}") from None
    return RunConfig(**{k: v for k, v in given.items() if v is not None})


def _load(args, config: RunConfig) -> tuple[np.ndarray, PositiveUnitalMap]:
    """The matrix file of the run and its ``--map`` map at that dimension."""
    m = parse_matrix(args.matrix)
    return m, build_map(config.map, m.shape[0], config.seed)


def cmd_bounds(args, config: RunConfig) -> dict:
    m, functional = _load(args, config)
    if not functional.is_functional:
        raise ValueError("bounds needs a functional map (trace or "
                         f"vector-state), got {config.map!r}")
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
    return make_report(config, args.matrix, records)


def cmd_moments(args, config: RunConfig) -> dict:
    m, pulm = _load(args, config)
    k_max = 2 * config.r_max + 1
    table = moments.moment_table(pulm, m, config.k_min, k_max)
    for k in range(config.k_min, k_max + 1):
        block = table.power(k)
        if pulm.is_functional:
            print(f"Phi(A^{k}) = {block[0, 0].real:.12g}")
        else:
            print(f"Phi(A^{k}) =")
            print(np.array_str(block, precision=10, suppress_small=True))
    records = moments.psd_records(
        [("hankel", moments.build_block("hankel", table, r))
         for r in range(config.r_max + 1)],
        config.seed, config.tolerance, "psd_")
    for r, rec in enumerate(records):
        status = "PASS" if rec.passed else "FAIL"
        print(f"hankel r={r}: {status} (min eigenvalue {rec.margin:.6g})")
    return make_report(config, args.matrix, records)


def cmd_verify(args, config: RunConfig) -> dict:
    if args.random:
        records = campaign.run_campaign(
            count=config.instances, seed=config.seed, n_range=config.n_range,
            r_max=config.r_max, tol=config.tolerance)
    elif args.matrix:
        m, pulm = _load(args, config)
        records = campaign.single_matrix_records(
            m, pulm, config.seed, config.r_max, config.tolerance)
    else:
        raise ValueError("verify needs a matrix file or --random")

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

    report = make_report(config, args.matrix or "random", records)
    summary = report["summary"]
    print(f"{summary['total']} checks, {summary['passed']} passed, "
          f"worst margin {summary['worst_margin']:.6g}")
    return report


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing never mutates it."""
    parser = argparse.ArgumentParser(
        prog="momenta",
        description="Moment matrices of positive unital maps and eigenvalue "
                    "bounds for Hermitian matrices.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def options(p, *names):
        for name in names:
            p.add_argument(name, **_FLAGS[name])

    p_bounds = sub.add_parser(
        "bounds", help="extreme-eigenvalue bounds from central moments")
    p_bounds.add_argument("matrix", help="matrix file (JSON or CSV)")
    options(p_bounds, "--map", "--seed", "--out")
    p_bounds.set_defaults(func=cmd_bounds)

    p_verify = sub.add_parser(
        "verify", help="run the inequality catalog and report")
    p_verify.add_argument("matrix", nargs="?", help="matrix file (JSON or CSV)")
    p_verify.add_argument("--random", action="store_true",
                          help="verify a seeded random campaign instead of a file")
    options(p_verify, "--tol", "--r-max", "--map", "--seed", "--instances",
            "--n-range", "--out")
    p_verify.set_defaults(func=cmd_verify)

    p_moments = sub.add_parser(
        "moments", help="print moment blocks and Hankel verdicts")
    p_moments.add_argument("matrix", help="matrix file (JSON or CSV)")
    options(p_moments, "--tol", "--r-max", "--map", "--seed", "--k-min",
            "--out")
    p_moments.set_defaults(func=cmd_moments)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        report = args.func(args, _config_from_args(args))
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(report_to_json(report))
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary = report["summary"]
    return 0 if summary["passed"] + summary["skipped"] == summary["total"] else 1


if __name__ == "__main__":
    sys.exit(main())
