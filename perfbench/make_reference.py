"""Regenerate the stored reference outputs of the coupled workloads.

    python3 perfbench/make_reference.py

Runs every injection variant of the three coupled workloads on the
current source tree and writes ``perfbench/reference/<workload>.npz``.
The committed files were made on the commit that added the benchmark;
regenerate them only in a change whose purpose is to alter the model's
results, and say so in that change.
"""

from __future__ import annotations

import os
import shutil
import sys
from contextlib import ExitStack

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

from tracing import patched  # noqa: E402
from workloads import (  # noqa: E402
    NUM_VARIANTS, REFERENCE_DIR, Corridor, Incident, Sweep, reference_fields,
)


def _cells(num_cells, count):
    """``count`` evenly spaced cells, both ends included."""
    return np.unique(np.linspace(0, num_cells - 1, count).round()).astype(int)


# stored snapshot times and sampled cells; the field means over every cell
# are stored as well, so a change anywhere on the grid shows.  The corridor
# stores only the means, at every snapshot: its cells are chaotic in rounding.
SAMPLING = {
    Corridor: (np.arange(0.0, 601.0, 10.0), None),
    Incident: (np.arange(60.0, 301.0, 60.0), _cells(600, 151)),
}


def run_full(wl):
    wl.prepare()
    wl.before_call()
    with ExitStack() as stack:
        for target, make in wl.probes():
            stack.enter_context(patched(target, make))
        return wl.call(True)


def main():
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    scratch = os.path.join(os.path.dirname(HERE), ".perfbench_out", "reference")
    for cls, (times, cells) in SAMPLING.items():
        data = {"times": times} if cells is None else {"times": times, "cells": cells}
        for v in range(NUM_VARIANTS):
            wl = cls(v, scratch)
            result = run_full(wl)
            out = result if cls is Corridor else wl.capture.runs[0]
            samples, data[f"v{v}_means"] = reference_fields(out, times, cells)
            if samples is not None:
                data[f"v{v}_samples"] = samples
        np.savez_compressed(os.path.join(REFERENCE_DIR, f"{cls.name}.npz"), **data)
    data = {}
    for v in range(NUM_VARIANTS):
        data[f"v{v}_rows"] = Sweep.row_values(run_full(Sweep(v, scratch)))
    np.savez_compressed(os.path.join(REFERENCE_DIR, f"{Sweep.name}.npz"), **data)
    shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    main()
