"""Test-session set-up shared by tests/ and perfbench/tests/.

BLAS reads its thread count when numpy is first imported, which happens
after this file is loaded.  One thread is what CI and the benchmark use:
the solver's many small dense products run about twice as slow with two
OpenBLAS threads on a 2-CPU machine, and a different thread count rounds
the step-V solve differently.  A thread count already set in the
environment is kept.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
