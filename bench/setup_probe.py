"""Set-up probe: a fresh interpreter imports qimet and runs one warm-up op.

    python3 bench/setup_probe.py cli <qimet command-line arguments...>
    python3 bench/setup_probe.py trial <theorem_id> <trial_seed> <D> <E>

``D`` and ``E`` may be ``None`` for the theorem's defaults.  ``run.py`` times
this process from start to exit and reports the median as ``setup_s``, so
lazy costs (BLAS start-up, the oracle's cached bases) are counted there.
Exits 0 only if the op succeeded.
"""

from __future__ import annotations

import sys
from pathlib import Path


def warm_up(argv) -> int:
    """Run one op given as ``cli ...`` or ``trial ...``; 0 on success."""
    import qimet.cli
    import qimet.verify

    kind, rest = argv[0], list(argv[1:])
    if kind == "cli":
        return qimet.cli.main(rest)
    theorem, seed, d, e = rest
    record = qimet.verify.run_trial(
        theorem, int(seed), None if d == "None" else int(d),
        None if e == "None" else int(e))
    return 0 if record.passed else 1


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.exit(warm_up(sys.argv[1:]))
