"""FAIL counts of the random campaign under five single-line mutants.

Each mutant is installed with ``unittest.mock.patch`` on the module
attribute that the package reads, so no source file is edited:

- ``jacobi_e2``: ``eigenbounds._jacobi_matrix`` with its ``e2`` scaled by
  0.9;
- ``passes_tol``: ``passes`` with its tolerance times 1e6, in ``linalg``,
  ``moments`` and ``campaign``;
- ``is_psd_max``: ``moments.is_psd`` reading the largest eigenvalue;
- ``middle_node``: ``eigenbounds.spectral_bounds`` reporting the middle
  Gauss node as ``lambda_min_upper``;
- ``half_schur``: ``moments._third_moment`` with half the Schur term in the
  bound of ``third_moment_lower``.

For the unmutated package and then for each mutant it runs
``campaign.run_campaign(200, 42)`` and prints one line: the name, the
number of FAILs and the FAIL count per check. A mutant with a FAIL is
killed; one without survives. It exits 1 if the unmutated campaign FAILs,
if a mutant in :data:`KILLED` survives, or if a run raises a numpy warning;
the other mutants are printed as survivors, targets for checks that can
still fail on the input. pytest does not collect it; run it from the
repository root as

    PYTHONPATH=src python tests/mutant_runs.py
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import itertools
import sys
import warnings
from unittest import mock

from momenta import campaign, eigenbounds, linalg, moments

#: The mutants that ``run_campaign(200, 42)`` must kill.
KILLED = ("jacobi_e2",)

_jacobi_matrix = eigenbounds._jacobi_matrix
_passes = linalg.passes
_spectral_bounds = eigenbounds.spectral_bounds
_third_moment = moments._third_moment


def _short_e2(x, weights):
    jacobi = _jacobi_matrix(x, weights)
    jacobi[1, 2] *= 0.9
    jacobi[2, 1] *= 0.9
    return jacobi


def _loose_passes(slack, scale, rtol):
    return _passes(slack, scale, rtol * 1e6)


def _is_psd_max(m, tol, scale):
    lam = linalg.hermitian_eig(m, vectors=False).max
    return _passes(lam, scale, tol), lam


def _middle_node(functional, a):
    report = _spectral_bounds(functional, a)
    if report.degenerate:
        return report
    return dataclasses.replace(report,
                               lambda_min_upper=report.mean + report.roots[1])


def _half_schur_lower():
    # scalar_checks forms the lower third-moment block first, then the upper
    calls = itertools.count()

    def third_moment(gap, x, rho, size, bound):
        if next(calls) % 2 == 0:
            return _third_moment(gap, x, rho, size,
                                 lambda schur: bound(schur / 2.0))
        return _third_moment(gap, x, rho, size, bound)
    return third_moment


#: ``name -> () -> [(target, replacement)]``, the patches of each mutant.
MUTANTS = {
    "jacobi_e2": lambda: [("momenta.eigenbounds._jacobi_matrix", _short_e2)],
    "passes_tol": lambda: [(f"momenta.{module}.passes", _loose_passes)
                           for module in ("linalg", "moments", "campaign")],
    "is_psd_max": lambda: [("momenta.moments.is_psd", _is_psd_max)],
    "middle_node": lambda: [("momenta.eigenbounds.spectral_bounds",
                             _middle_node)],
    "half_schur": lambda: [("momenta.moments._third_moment",
                            _half_schur_lower())],
}


@contextlib.contextmanager
def installed(name: str):
    """The package with mutant ``name`` patched in, for the block's span."""
    with contextlib.ExitStack() as stack:
        for target, replacement in MUTANTS[name]():
            stack.enter_context(mock.patch(target, replacement))
        yield


def failures(records) -> collections.Counter:
    """FAIL count per check."""
    return collections.Counter(r.check for r in records if r.passed is False)


def main() -> int:
    status = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for name in (None, *MUTANTS):
            with installed(name) if name else contextlib.nullcontext():
                failed = failures(campaign.run_campaign(200, 42))
            counts = ", ".join(f"{check} {count}"
                               for check, count in sorted(failed.items()))
            label = name or "unmutated"
            verdict = ("killed" if failed else "survived") if name else ""
            print(f"{label}\t{verdict}\t{sum(failed.values())} FAILs"
                  f"\t{counts}".rstrip())
            if name is None and failed:
                status = 1
            if name in KILLED and not failed:
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
