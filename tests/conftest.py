"""Pin BLAS to one thread before any test module imports numpy.

The test modules import numpy before scoopgp, and the acceptance battery
runs the CLI in this process, so the package's pin (see scoopgp) has to
load first. If numpy were already loaded the pin would do nothing and
the results would depend on the machine's core count.
"""
import sys

assert "numpy" not in sys.modules, "numpy loaded before scoopgp could pin BLAS to one thread"
import scoopgp  # noqa: E402,F401  pins BLAS before numpy loads
