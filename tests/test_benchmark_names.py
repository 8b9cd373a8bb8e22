"""Every name the benchmark patches by name still exists in the package.

``perfbench/tracing.py`` wraps its ``TRACE_POINTS`` and ``perfbench/run.py``
wraps each workload's ``marks``, all looked up as dotted attributes below
``ifpw``.  A deleted or renamed one fails only the benchmark's traced runs,
so this imports both files (running nothing in them) and looks every name
up.
"""

import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load("tracing")
workloads = load("workloads")
TARGETS = sorted({target for target, _ in tracing.TRACE_POINTS}
                 | {mark for wl in workloads.WORKLOADS.values() for mark in wl.marks})


@pytest.mark.parametrize("target", TARGETS)
def test_name_resolves(target):
    owner, attr = tracing.resolve(target)
    assert callable(getattr(owner, attr))
