"""The benchmark tracer's contract with the package.

``bench/tracer.py`` wraps the package's layers by name: the functions of
its ``FUNCTIONS`` pairs at every module-level binding, and ``apply`` in the
own ``__dict__`` of each ``MAP_CLASSES`` class. A rename in the package
breaks a traced benchmark run; these tests name it. The tracer is loaded
from its file and nothing under ``bench/`` is written.
"""

from __future__ import annotations

import sys

import pytest

import momenta
from momenta import cli

from conftest import load_bench

tracer = load_bench("tracer")


def _bindings() -> dict:
    """Every module-level binding of the package's modules and the ``apply``
    of every traced map class, by owner and name."""
    out = {(name, attr): value
           for name, mod in sys.modules.items()
           if mod is not None and name.split(".")[0] == "momenta"
           for attr, value in vars(mod).items()}
    for cls_name in tracer.MAP_CLASSES:
        out[(cls_name, "apply")] = vars(getattr(momenta.maps, cls_name))["apply"]
    return out


@pytest.mark.parametrize("module, name", tracer.FUNCTIONS)
def test_every_traced_function_resolves(module, name):
    assert callable(getattr(getattr(momenta, module), name))


@pytest.mark.parametrize("cls_name", tracer.MAP_CLASSES)
def test_every_traced_map_class_defines_its_own_apply(cls_name):
    assert callable(vars(getattr(momenta.maps, cls_name)).get("apply"))


def test_a_traced_run_counts_eigensolves_and_restores_every_binding(capsys):
    before = _bindings()
    spans = tracer.Tracer(momenta)
    spans.install()
    try:
        status = cli.main(["verify", "--random", "--instances", "6",
                           "--seed", "1"])
    finally:
        spans.uninstall()
    capsys.readouterr()
    assert status == 0
    assert spans.counters.calls["linalg.hermitian_eig"] > 0
    assert spans.counters.calls["maps.apply"] > 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
