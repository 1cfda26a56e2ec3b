"""Suite-wide setup.

Pin OpenBLAS to one thread before numpy is first imported (conftest loads
ahead of the test modules).  The package's matrices are small, and on them a
multi-threaded BLAS spends more time synchronizing than computing: the full
suite runs about twice as long.  An explicit ``OPENBLAS_NUM_THREADS`` in the
environment still wins.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
