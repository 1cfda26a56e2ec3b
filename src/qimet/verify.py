"""Randomized verification runners for the package's central identities.

Each runner draws one random instance from a trial seed, evaluates the same
quantity along two *independent* routes — a closed form or bound from the
metrics module versus a direct numerical computation (SDP oracle,
Kraus-factor process fidelity of the expanded instrument, plain trace norms)
— and reports the discrepancy as a :class:`VerificationRecord`.  ``passed``
means the absolute error is within the per-check tolerance below.

For bracket-style checks (instrument sandwich, Fuchs-van de Graaf chain) the
record stores the two outer values and ``abs_error`` is the total amount by
which the bracket is violated (zero when the chain holds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import metrics
from .channels import (ChoiMatrix, KrausChannel, StochasticChannel,
                       choi_from_kraus, kraus_rank, random_stochastic_channel)
from .errors import UnsupportedDimension
from .instruments import (NonUniformStochasticModel, branch_differences,
                          expand_nonuniform, expand_uniform,
                          random_general_implementation,
                          random_nonuniform_model, random_uniform_model)
from .linalg import (_is_integer, random_density, random_pure_states, rng,
                     trace_norm)
from .oracle import MAX_CHOI_SIDE, diamond_norm

__all__ = [
    "THEOREM_IDS",
    "VerificationRecord",
    "run_trial",
    "run_trials",
    "shipped_counterexample_model",
    "summarize",
]


@dataclass(frozen=True, slots=True)
class VerificationRecord:
    """One trial's outcome; slotted, since ``run_trials`` and the
    ``verify`` command keep every record of a run."""

    theorem_id: str
    trial_seed: int
    closed_form: float
    oracle_value: float
    abs_error: float
    passed: bool


def _phi_plus_bound(blocks: np.ndarray, E: int) -> float:
    """Probe bound of branch 0 at ``Phi+ ⊗ |0><0|`` on (reference E) ⊗ E ⊗ D
    from a :func:`branch_differences` stack: ``(id ⊗ Delta_0)(Phi+ ⊗ |0><0|)
    = D*R`` with ``R`` block 0 on inputs ``(e, 0)``, so it is
    ``D * (||R||_1 - tr R)``."""
    D = len(blocks)
    r = blocks[0].reshape(E, D, E * D, E, D, E * D)[:, 0, :, :, 0]
    r = r.reshape(E * E * D, -1)
    return D * (trace_norm(r) - np.trace(r).real)


def _stack_diamond(blocks: np.ndarray, tol: float) -> float:
    """Certified diamond norm of a :func:`branch_differences` stack."""
    side = math.isqrt(blocks.shape[-1])  # D*E
    return diamond_norm([ChoiMatrix(side, side, b) for b in blocks],
                        tol=tol).value


def _trace_fidelity(impl) -> float:
    """Process fidelity of ``impl`` to the ideal from its Kraus operators,
    ``F = (sum_j ||(tr(pi_j B_jk))_k||_2 / (D*E))**2``: ``||A_j† B_j||_1``
    (Gilchrist et al., PRA 71, 062310) with the ideal's ``A_j = pi_j``."""
    root = sum(np.linalg.norm(np.trace(
        branch.kraus_ops[:, j::impl.D, j::impl.D], axis1=1, axis2=2))
        for j, branch in enumerate(impl.branches)) / (impl.D * impl.E)
    return root * root


# ------------------------------------------------------------------
# individual checks: each maps (seed, D, E) to (closed, oracle, abs_error)
# ------------------------------------------------------------------

def _check_stochastic_diamond(seed, D, E):
    # halved diamond distance of T to the identity: closed form vs SDP
    identity = choi_from_kraus(  # checks E before the draw
        StochasticChannel(E, 1.0, {(0, 0): 1.0}).as_channel())
    gen = rng(seed)
    nu = 0.2 + 0.8 * float(gen.uniform())
    t = random_stochastic_channel(E, nu=nu, seed=seed)
    closed = metrics.diamond_identity_stochastic(t)
    delta = t.choi() - identity
    oracle = 0.5 * diamond_norm(delta, tol=1e-7).value
    return closed, oracle, abs(closed - oracle)


def _check_fidelity(generate, closed_form, expand, seed, D, E):
    # closed-form model fidelity vs the Kraus route on the expanded model
    model = generate(D, E, seed=seed)
    closed = closed_form(model)
    oracle = _trace_fidelity(expand(model))
    return closed, oracle, abs(closed - oracle)


def _check_instrument_bounds(seed, D, E):
    # sandwich: lower_max <= ||Delta||_dia <= upper; abs_error = violation.
    # The bounds come from the Kraus operators, the SDP from the stack.
    impl = random_general_implementation(D, E, seed=seed)
    lower = metrics.instrument_diamond_lower_max(impl, 8, seed)
    upper = metrics.instrument_diamond_upper(impl)
    oracle = _stack_diamond(branch_differences(impl), 1e-7)
    return lower, oracle, max(lower - oracle, 0.0) + max(oracle - upper, 0.0)


def _check_uniform_diamond(seed, D, E):
    # closed form 2(1 - nu00*lambda00) vs SDP, plus saturation of the probe
    # lower bound at Phi+ on (reference x E), by covariance the optimal input
    # of T00, a mixture of shift-and-phase unitaries
    model = random_uniform_model(D, E, seed=seed)
    closed = 2.0 * metrics.uniform_diamond_exact(model)
    blocks = branch_differences(expand_uniform(model))
    oracle = _stack_diamond(blocks, 1e-6)
    saturated = _phi_plus_bound(blocks, E)
    return closed, oracle, max(abs(closed - oracle), abs(saturated - oracle))


def shipped_counterexample_model() -> NonUniformStochasticModel:
    """Outcome-dependent qubit-dephasing model: clean on outcome 0, phase
    flip with probability 0.2 on outcome 1."""
    t0 = StochasticChannel(2, 1.0, {(0, 0): 1.0})
    t1 = StochasticChannel(2, 1.0, {(0, 0): 0.8, (0, 1): 0.2})
    return NonUniformStochasticModel(2, 2, {(0, 0, 0): t0, (0, 0, 1): t1})


def _check_sec7(seed, D, E):
    # fixed counterexample: outcome-resolved closed form vs SDP, and the
    # uniform-theory fidelity route must disagree by at least 0.01 (else
    # the error is infinite, which fails at every finite tolerance)
    model = shipped_counterexample_model()
    closed = metrics.nonuniform_outcome_diamond(model)
    blocks = branch_differences(expand_nonuniform(model))
    oracle = _stack_diamond(blocks, 1e-6)
    fidelity_route = 1.0 - metrics.fidelity_nonuniform_closed(model)
    separated = abs(0.5 * closed - fidelity_route) >= 0.01
    return closed, oracle, abs(closed - oracle) if separated else math.inf


def _check_fvg(seed, D, E):
    # chain lower <= middle <= upper; abs_error = total violation
    gen = rng(seed)
    dim = 2 + int(gen.integers(3))
    if seed % 5 == 0:
        psi = random_pure_states(dim, 1, gen)[0]
        rho = np.outer(psi, psi.conj())
    else:
        rho = random_density(dim, gen, rank=1 + int(gen.integers(dim)))
    sigma = random_density(dim, gen)
    lo, mid, up = metrics.fvg_bounds(rho, sigma)
    return lo, up, max(lo - mid, 0.0) + max(mid - up, 0.0)


def _check_orthogonality(seed, D, E):
    # Hermitian blocks with orthogonal supports: ||sum|| _1 == sum ||.||_1
    gen = rng(seed)
    dim = max(E, 2)
    q, _ = np.linalg.qr(gen.normal(size=(dim, dim))
                        + 1j * gen.normal(size=(dim, dim)))
    cut = 1 + int(gen.integers(dim - 1))
    parts = []
    for block in (q[:, :cut], q[:, cut:]):
        k = block.shape[1]
        h = gen.normal(size=(k, k)) + 1j * gen.normal(size=(k, k))
        h = h + h.conj().T
        parts.append(block @ h @ block.conj().T)
    closed = sum(trace_norm(p) for p in parts)
    oracle = trace_norm(sum(parts))
    return closed, oracle, abs(closed - oracle)


def _check_kraus_rank(seed, D, E):
    # generic channels: number of independent Kraus operators == Choi rank
    gen = rng(seed)
    din, dout = D, E
    r = 1 + int(gen.integers(min(din * dout, 4)))
    g = gen.normal(size=(r, 2, dout, din))  # per operator: real, imaginary
    channel = KrausChannel(din, dout, g[:, 0] + 1j * g[:, 1])
    measured = kraus_rank(channel)
    return r, measured, abs(r - measured)


#: The SDP checks pass the oracle D blocks of Choi side (D*E)**2; with the
#: model bound D <= 5 their D*(D*E)**6 Woodbury entries fit its cap too.
_SDP_LIMIT = (f"D*E <= {math.isqrt(MAX_CHOI_SIDE)}",
              lambda D, E: (D * E) ** 2 <= MAX_CHOI_SIDE)

#: theorem id -> (runner, pass tolerance, default (D, E), dimension limit);
#: the tolerances are the acceptance thresholds.  A limit is ``(text,
#: test)``, checked before any draw.  One kraus-rank trial takes 0.007 s
#: at D*E = 144 and 0.2 s at 576; one lemma-orthogonality trial 0.08 s at
#: E = 256 and 3.7 s at 1024 (2 cores, one OpenBLAS thread).  The model
#: bound holds the other checks' D and E, or they draw their own sizes.
_CHECKS = {
    "t-stochastic-diamond-identity":
        (_check_stochastic_diamond, 1e-5, (2, 2), None),
    "cor-uniform-fidelity":
        (partial(_check_fidelity, random_uniform_model,
                 metrics.fidelity_uniform_closed, expand_uniform),
         1e-8, (2, 2), None),
    "cor-nonuniform-fidelity":
        (partial(_check_fidelity, random_nonuniform_model,
                 metrics.fidelity_nonuniform_closed, expand_nonuniform),
         1e-8, (2, 2), None),
    "thm-instrument-bounds":
        (_check_instrument_bounds, 1e-6, (2, 2), _SDP_LIMIT),
    "thm-uniform-diamond": (_check_uniform_diamond, 1e-4, (2, 2), _SDP_LIMIT),
    "sec7-counterexample": (_check_sec7, 1e-4, (2, 2), None),
    "fvg-appendix": (_check_fvg, 1e-10, (2, 3), None),
    "lemma-orthogonality":
        (_check_orthogonality, 1e-10, (2, 6),
         ("1 <= E <= 256", lambda D, E: 1 <= E <= 256)),
    "kraus-rank":
        (_check_kraus_rank, 0.0, (2, 3),
         ("D, E >= 1 and D*E <= 144",
          lambda D, E: min(D, E) >= 1 and D * E <= 144)),
}

THEOREM_IDS = tuple(_CHECKS)


# ------------------------------------------------------------------
# driving
# ------------------------------------------------------------------

def run_trial(theorem_id: str, trial_seed: int, dim_d: int | None = None,
              dim_e: int | None = None,
              tol: float | None = None) -> VerificationRecord:
    """Run a single randomized check of ``theorem_id`` at ``trial_seed``.

    :raises ValueError: for an unknown id, or a ``tol`` that is not a
        number ``>= 0``.
    :raises UnsupportedDimension: for dimensions outside the check's limit
        (see ``qimet verify --help``), before anything is drawn.
    """
    if theorem_id not in _CHECKS:
        raise ValueError(f"unknown theorem id {theorem_id!r}; "
                         f"choose one of {', '.join(THEOREM_IDS)}")
    if tol is not None and not tol >= 0:
        raise ValueError(f"tol must be a number >= 0, got {tol!r}")
    runner, default_tol, (D, E), limit = _CHECKS[theorem_id]
    D = D if dim_d is None else dim_d
    E = E if dim_e is None else dim_e
    if limit is not None and not limit[1](D, E):
        raise UnsupportedDimension(
            f"{theorem_id} needs {limit[0]}, got D={D!r}, E={E!r}")
    closed, oracle, err = runner(trial_seed, D, E)
    return VerificationRecord(
        theorem_id, trial_seed, float(closed), float(oracle), float(err),
        bool(err <= (default_tol if tol is None else tol)))


def run_trials(theorem_id: str, trials: int, seed: int,
               dim_d: int | None = None, dim_e: int | None = None,
               tol: float | None = None) -> list:
    """Run ``trials`` independent checks seeded ``seed + i``, in that order."""
    if not (_is_integer(trials) and trials >= 1):
        raise ValueError(f"trials must be >= 1 and an integer, got {trials!r}")
    return [run_trial(theorem_id, seed + i, dim_d, dim_e, tol)
            for i in range(trials)]


def summarize(records) -> dict:
    records = list(records)
    return {
        "trials": len(records),
        "passed": sum(1 for r in records if r.passed),
        "max_abs_error": max((r.abs_error for r in records), default=0.0),
    }
