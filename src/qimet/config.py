"""Centralized numerical tolerances.

Every validation threshold used by the package lives in one frozen record,
``TOL``, which the validating functions read directly.  The defaults are
chosen for double precision at the matrix sizes the package handles.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Validation thresholds shared across the package.

    :param herm: max-abs deviation allowed between ``A`` and ``A†``.
    :param psd_clamp: eigenvalues in ``[-psd_clamp * max(1, ||A||_2), 0)``
        are clamped to zero; anything lower raises ``NotPSD``.
    :param rank_rel: singular values below ``rank_rel * s_max`` count as zero.
    :param trace_preserving: allowed max-abs deviation of ``sum_k K_k† K_k``
        from the identity.
    :param trace_one: allowed deviation of a density matrix trace from 1.
    :param weight_sum: allowed deviation of stochastic-channel weight sums
        from the stored total.
    """

    herm: float = 1e-10
    psd_clamp: float = 1e-9
    rank_rel: float = 1e-10
    trace_preserving: float = 1e-9
    trace_one: float = 1e-9
    weight_sum: float = 1e-9


#: The tolerances every validating function in the package reads.
TOL = Tolerances()
