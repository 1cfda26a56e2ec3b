"""Suite-wide setup.

Pin OpenBLAS to one thread before numpy is first imported (conftest loads
ahead of the test modules).  The package's matrices are small, and on them a
multi-threaded BLAS spends more time synchronizing than computing: the full
suite runs about twice as long.  An explicit ``OPENBLAS_NUM_THREADS`` in the
environment still wins.

Hypothesis caches the constants it reads from the package's sources in its
storage directory even with no example database; keep that directory in the
system's temporary directory, out of the working tree, unless
``HYPOTHESIS_STORAGE_DIRECTORY`` is already set.
"""

import os
import tempfile

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY",
                      os.path.join(tempfile.gettempdir(), "qimet-hypothesis"))
