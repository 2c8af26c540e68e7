"""The benchmark's layer tracer still finds every name it wraps.

benchmarks/tracing.py looks functions up by module attribute and wraps the
``value`` method of each envelope class by name; a rename or a dropped
re-export in qubitdyn would otherwise only show when ``run_bench.py
--trace 1`` fails.
"""

import importlib
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    return importlib.import_module("tracing")


def test_every_traced_name_resolves(tracing):
    for module, attr, _ in tracing.FUNCTIONS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
    for cls in tracing.ENVELOPES:
        assert isinstance(cls, type) and callable(cls.value), cls


def test_install_then_uninstall_restores_originals(tracing):
    targets = [(module, attr) for module, attr, _ in tracing.FUNCTIONS]
    targets += [(cls, "value") for cls in tracing.ENVELOPES]
    originals = [getattr(obj, attr) for obj, attr in targets]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(getattr(obj, attr) is not f for (obj, attr), f in zip(targets, originals))
        # an installed envelope wrapper counts the calls made through it
        tracing.pulses.SoftSquarePulse(0.0, 1.0, 0.1).value(0.5)
        assert tracer.aggs[tracing.ENVELOPE_LAYER][0] == 1
    finally:
        tracer.uninstall()
    assert all(getattr(obj, attr) is f for (obj, attr), f in zip(targets, originals))
