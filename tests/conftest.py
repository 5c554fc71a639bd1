"""Pin BLAS to one thread before any test module imports numpy.

The test modules import numpy before scoopgp, and the acceptance battery
runs the CLI in this process, so the package's pin (see scoopgp) has to
load first. If numpy were already loaded the pin would do nothing and
the results would depend on the machine's core count.
"""
import sys

assert "numpy" not in sys.modules, "numpy loaded before scoopgp could pin BLAS to one thread"
import scoopgp  # noqa: E402,F401  pins BLAS before numpy loads
import os  # noqa: E402

import pytest  # noqa: E402


@pytest.fixture(params=["worker", "in-process"])
def distance_path(request, monkeypatch):
    """Distance rows computed by the forked worker, which two usable CPUs
    select, and in-process, which one usable CPU selects."""
    cpus = {0, 1} if request.param == "worker" else {0}
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    return request.param
