"""Settings for the test run that must be in place before numpy is imported.

One BLAS thread per process: the suite's eigenvalue calls are small, and a
thread pool sized to the machine slows them down badly whenever another
process is busy.  Subprocesses (the demos, the benchmark self-test) inherit
the setting.  An explicit value in the environment wins.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
