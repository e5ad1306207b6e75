"""Verdicts of five probes under seven single-line mutants.

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
  bound of ``third_moment_lower``;
- ``gamma_sign``: ``eigenbounds.spectral_bounds`` reporting ``gamma`` with
  its sign flipped;
- ``apply_first_factor``: the shared ``apply`` of ``maps.Compression``,
  ``maps.Mixture`` and ``maps.VectorState``, each class's own binding of
  ``PositiveUnitalMap.apply``, summing over the first Kraus operator only.

The probes are:

- the random campaign ``campaign.run_campaign(200, 42)``, which FAILs
  nowhere;
- negative controls: ``campaign.psd_suite`` on ``random_hermitian(4, s)``,
  s = 1..10, at r = 2 under ``conftest.ReflectedTrace(4)``, a unital map
  that is not positive, so some blocks FAIL;
- near-positive controls: ``campaign.psd_suite`` on the diagonal matrices
  ``diag(sort(default_rng(s).uniform(-1.5, 1.5, 4)))``, s = 0..9, at r = 3
  under ``conftest.Blend(NormalizedTrace(4), ReflectedState(4), eps)`` with
  ``eps = (1 + 1e-3) / 3``, a unital functional that sends ``e_0 e_0*`` to
  -2.5e-4, so some blocks FAIL, though a tolerance 1e6 times looser passes
  them all;
- equality witnesses: ``spectral_bounds`` under the normalized trace on
  ``hermitian_with_spectrum`` of three atoms -1.3, 0.4 and 1.9 (multiplicities
  2, 3, 2), seeds 0..9, where the three-node Gauss rule is exact and
  ``lambda_min_upper`` is the smallest eigenvalue: a miss is an error above
  ``WITNESS_RTOL`` times the spectral radius; a gamma miss is a reported
  ``gamma`` off ``conftest.gamma_value`` of the central moments by more
  than ``GAMMA_RTOL`` of it;
- Schur equality witnesses: ``moments.scalar_checks`` under the normalized
  trace on ``hermitian_with_spectrum`` of two atoms -0.7 and 1.6
  (multiplicities 2, 3), seeds 0..9, where the third-moment Schur bound is
  attained: a miss is a ``third_moment_lower`` margin above
  ``SCHUR_RTOL`` times the cube of the spectral radius.

For the unmutated package and then for each mutant it prints one line: the
name, the number of campaign FAILs, control FAILs, near-positive control
FAILs, witness misses, gamma misses and Schur-witness misses, and the
campaign's FAIL count per check. A mutant is killed when any probe differs
from the unmutated run; otherwise it survives. It exits 1 if the unmutated
campaign FAILs, if no unmutated control or no unmutated near-positive
control FAILs, if an unmutated witness of any kind misses, if a mutant in
:data:`KILLED` survives, or if a run raises a numpy warning; a mutant not
in :data:`KILLED` that survives is printed as a survivor, a target for a
check that can still fail on the input. pytest does not collect it; run it
from the repository root as

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

import numpy as np

from conftest import Blend, ReflectedState, ReflectedTrace, gamma_value
from momenta import campaign, eigenbounds, linalg, maps, moments

#: The mutants that the probes must kill.
KILLED = ("jacobi_e2", "passes_tol", "is_psd_max", "middle_node",
          "half_schur", "gamma_sign", "apply_first_factor")

#: Largest error of a witness's ``lambda_min_upper``, relative to the
#: spectral radius.
WITNESS_RTOL = 1e-6

#: The witnesses' spectrum: three atoms, so the Gauss rule is exact.
WITNESS_SPECTRUM = np.repeat([-1.3, 0.4, 1.9], [2, 3, 2])

#: Largest error of a witness's reported ``gamma``, relative to its value.
GAMMA_RTOL = 1e-12

#: The Schur witnesses' spectrum: two atoms, so the third-moment Schur
#: bound is attained.
SCHUR_SPECTRUM = np.repeat([-0.7, 1.6], [2, 3])

#: Largest ``third_moment_lower`` margin of a Schur witness, relative to
#: the cube of the spectral radius.
SCHUR_RTOL = 1e-8

#: Weight of the negative control in the near-positive controls' blend:
#: a third would send ``e_0 e_0*`` to 0.
NEAR_EPS = (1.0 + 1e-3) / 3.0

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


def _gamma_sign(functional, a):
    report = _spectral_bounds(functional, a)
    return dataclasses.replace(report, gamma=-report.gamma)


def _apply_first_factor(self, a):
    k = self.factors[0]
    return k.conj().T @ self._check_input(a) @ k


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
    "gamma_sign": lambda: [("momenta.eigenbounds.spectral_bounds",
                            _gamma_sign)],
    # patched where it is bound: each class holds the base apply itself
    "apply_first_factor": lambda: [(f"momenta.maps.{cls}.apply",
                                    _apply_first_factor)
                                   for cls in ("Compression", "Mixture",
                                               "VectorState")],
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


def controls() -> list[campaign.Instance]:
    """The negative controls: instances under a map that is not positive."""
    return [campaign.Instance(seed=s, n=4, r=2, kind="control",
                              matrix=linalg.random_hermitian(4, s),
                              matrix_pd=None, pulm=ReflectedTrace(4))
            for s in range(1, 11)]


def near_positive_controls() -> list[campaign.Instance]:
    """The near-positive controls: diagonal instances under a unital
    functional just past positivity."""
    functional = Blend(maps.NormalizedTrace(4), ReflectedState(4), NEAR_EPS)
    return [campaign.Instance(
                seed=s, n=4, r=3, kind="near-positive",
                matrix=np.diag(np.sort(
                    np.random.default_rng(s).uniform(-1.5, 1.5, 4))),
                matrix_pd=None, pulm=functional)
            for s in range(10)]


def witnesses(spectrum) -> list[np.ndarray]:
    """The equality witnesses of one spectrum, at seeds 0..9."""
    return [linalg.hermitian_with_spectrum(spectrum, s) for s in range(10)]


def control_failures(instances) -> int:
    """The number of FAILs of ``psd_suite`` on the instances."""
    return sum(sum(failures(campaign.psd_suite(inst)).values())
               for inst in instances)


def probes():
    """The campaign's FAIL count per check, the number of control FAILs and
    near-positive control FAILs, and the number of witness, gamma and
    Schur-witness misses."""
    failed = failures(campaign.run_campaign(200, 42))
    lam_min, rho = WITNESS_SPECTRUM[0], np.max(np.abs(WITNESS_SPECTRUM))
    misses = gamma_misses = 0
    for a in witnesses(WITNESS_SPECTRUM):
        trace = maps.NormalizedTrace(a.shape[0])
        report = eigenbounds.spectral_bounds(trace, a)
        misses += not (abs(report.lambda_min_upper - lam_min)
                       <= WITNESS_RTOL * rho)
        gamma = gamma_value(eigenbounds.central_moments(trace, a))
        gamma_misses += not (abs(report.gamma - gamma)
                             <= GAMMA_RTOL * abs(gamma))
    rho3 = np.max(np.abs(SCHUR_SPECTRUM)) ** 3
    schur_misses = 0
    for s, a in enumerate(witnesses(SCHUR_SPECTRUM)):
        (margin,) = [r.margin for r in moments.scalar_checks(
                         maps.NormalizedTrace(a.shape[0]), a, 1e-9, s)
                     if r.check == "third_moment_lower"]
        schur_misses += not abs(margin) <= SCHUR_RTOL * rho3
    return (failed, control_failures(controls()),
            control_failures(near_positive_controls()), misses, gamma_misses,
            schur_misses)


def main() -> int:
    status = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for name in (None, *MUTANTS):
            with installed(name) if name else contextlib.nullcontext():
                result = probes()
            (failed, control_fails, near_fails, misses, gamma_misses,
             schur_misses) = result
            counts = ", ".join(f"{check} {count}"
                               for check, count in sorted(failed.items()))
            if name is None:
                unmutated = result
                label, verdict = "unmutated", ""
                if (failed or not control_fails or not near_fails or misses
                        or gamma_misses or schur_misses):
                    status = 1
            else:
                label = name
                killed = result != unmutated
                verdict = "killed" if killed else "survived"
                if name in KILLED and not killed:
                    status = 1
            print(f"{label}\t{verdict}\t{sum(failed.values())} campaign FAILs"
                  f"\t{control_fails} control FAILs"
                  f"\t{near_fails} near-positive FAILs"
                  f"\t{misses} witness misses\t{gamma_misses} gamma misses"
                  f"\t{schur_misses} Schur misses\t{counts}".rstrip())
    return status


if __name__ == "__main__":
    sys.exit(main())
