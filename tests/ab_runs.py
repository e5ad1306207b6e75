"""Paired A/B runs of the benchmark on two trees, with one verdict per metric.

Runs the unchanged ``bench/run.py`` of each of two trees, a parent and a
change, in fresh subprocesses with ``PYTHONDONTWRITEBYTECODE=1``, so
neither side reads bytecode the other compiled. Pair ``i`` runs both sides
on workload seed ``--seed + i``, the parent first in even pairs and the
change first in odd ones. Every end-to-end metric that ``BENCHMARK.json``
names is compared pair by pair, and the raw pairs, each side's median and
quartiles (``statistics.quantiles``, inclusive), the parent's
interquartile distance, the win counts and the verdicts are written to the
``--out`` JSON file, for example ``BENCH_<pr>.json``.

The one rule: a metric is "better" or "worse" when there are at least
``MIN_PAIRS`` pairs, one side wins at least nine in ten of them (ties count
for neither) and the two medians lie further apart than the parent's
interquartile distance; "better" is the direction ``BENCHMARK.json`` gives
the metric (lower time, higher throughput). Anything else is "no change".
Each verdict is printed as one line, ``workload<TAB>metric<TAB>verdict``.

An A/A run, one tree against itself, must print "no change" for every
metric. It exits 1 if a benchmark run exits nonzero. Run it from the
repository root as

    python tests/ab_runs.py PARENT CHANGE --out BENCH_37.json
    python tests/ab_runs.py . . --workload campaign --pairs 2 --smoke \\
        --out aa.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Fewest pairs on which a verdict other than "no change" may rest.
MIN_PAIRS = 10

#: Share of the pairs one side must win for a verdict.
WIN_SHARE = 0.9

SIDES = ("parent", "change")

#: The provenance keys that say what machine the runs were made on.
MACHINE = ("nproc", "python", "numpy", "blas", "blas_threads")


def bench_run(tree: Path, workload: str, seed: int, seconds: float,
              smoke: bool) -> tuple[dict, dict]:
    """The provenance and result lines of one untraced ``bench/run.py`` run
    in ``tree``."""
    argv = [sys.executable, "bench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    if smoke:
        argv.append("--smoke")
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True,
                          text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} in {tree} exited "
                           f"{done.returncode}:\n{done.stderr}")
    provenance, result = done.stdout.splitlines()[-2:]
    return json.loads(provenance)["provenance"], json.loads(result)


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(pairs: list[tuple[float, float]], better: str) -> dict:
    """Summary and verdict of one metric's ``(parent, change)`` pairs."""
    sign = 1.0 if better == "lower" else -1.0
    wins = {"parent": 0, "change": 0, "ties": 0}
    for parent, change in pairs:
        gain = sign * (parent - change)  # > 0: the change is better
        wins["change" if gain > 0 else "parent" if gain < 0 else "ties"] += 1
    parent = quartiles([p for p, _ in pairs])
    change = quartiles([c for _, c in pairs])
    iqr = parent["q3"] - parent["q1"]
    gain = sign * (parent["median"] - change["median"])
    verdict = "no change"
    if len(pairs) >= MIN_PAIRS and abs(gain) > iqr:
        if gain > 0 and wins["change"] >= WIN_SHARE * len(pairs):
            verdict = "better"
        elif gain < 0 and wins["parent"] >= WIN_SHARE * len(pairs):
            verdict = "worse"
    return {"pairs": [list(p) for p in pairs], "parent": parent,
            "change": change, "parent_iqr": iqr, "wins": wins,
            "median_change_frac": ((change["median"] - parent["median"])
                                   / parent["median"]
                                   if parent["median"] else None),
            "verdict": verdict}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the parent's tree")
    parser.add_argument("change", type=Path, help="the change's tree")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--workload", action="append",
                        help="a workload to run (default: all of them)")
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed of the first pair")
    parser.add_argument("--seconds", type=float,
                        help="run length (default: BENCHMARK.json's)")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    trees = dict(zip(SIDES, (args.parent.resolve(), args.change.resolve())))
    command = (f"python3 bench/run.py --workload W --seed S --seconds "
               f"{seconds:g} --trace 0" + " --smoke" * args.smoke)
    report = {"command": command, "pairs": args.pairs,
              "rule": __doc__.split("\n\n")[2].replace("\n", " "),
              "machine": None, "workloads": {}}
    for workload in workloads:
        runs = []
        for i in range(args.pairs):
            seed = args.seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            result = {}
            for side in order:
                provenance, result[side] = bench_run(
                    trees[side], workload, seed, seconds, args.smoke)
            report["machine"] = {key: provenance[key] for key in MACHINE}
            runs.append({"seed": seed, "first": order[0], **result})
            print(f"{workload}\tpair {i + 1}/{args.pairs}\tseed {seed}",
                  file=sys.stderr)
        metrics = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            pairs = [tuple(run[side]["metrics"][name]["value"]
                           for side in SIDES) for run in runs]
            metrics[name] = {"unit": metric["unit"],
                             "better": metric["better"],
                             "bound": metric.get("bound"),
                             **compare(pairs, metric["better"])}
            print(f"{workload}\t{name}\t{metrics[name]['verdict']}")
        report["workloads"][workload] = {"runs": runs, "metrics": metrics}
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
