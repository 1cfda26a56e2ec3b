"""Regenerate ``bench/reference.json``, the stored values the checks use.

    python3 bench/make_reference.py

For every pooled oracle input it stores the certified bracket
``[primal_bound, dual_bound]`` from a solve asking for ``REFERENCE_TOL``
(the bracket of an ``Unconverged`` stop is certified too); for every
pooled report model it stores the ``qimet metrics`` report.  Takes about a
minute on one core.  Only rerun it when qimet's results are meant to change.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
REFERENCE_TOL = 1e-9


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    import qimet.cli
    from qimet.errors import Unconverged
    from qimet.oracle import diamond_norm

    import workloads as w

    def bracket(choi):
        try:
            result = diamond_norm(choi, tol=REFERENCE_TOL)
        except Unconverged as exc:
            result = exc.result
        print(result, flush=True)
        return [result.primal_bound, result.dual_bound]

    oracle = {
        "instrument": {str(s): bracket(w.instrument_delta(s)[1])
                       for s in w.INSTRUMENT_POOL},
        "random": {str(s): bracket(w.random_map(s)) for s in w.RANDOM_POOL},
    }

    reports = {}
    (HERE / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / ".work") as work:
        out = os.path.join(work, "out.json")
        for kind in w.REPORT_KINDS:
            for d, e in w.REPORT_DIMS:
                for s in w.REPORT_POOL:
                    path = w.write_model(work, kind, d, e, s)
                    if qimet.cli.main(["metrics", path, "--out", out]) != 0:
                        raise SystemExit(f"qimet metrics failed on {path}")
                    with open(out, encoding="utf-8") as fh:
                        reports[w.report_key(kind, d, e, s)] = json.load(fh)

    reference = {"oracle-dense": oracle, "report-cli": reports}
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
