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

from dataclasses import asdict, dataclass

import numpy as np

from . import metrics
from .channels import (ChoiMatrix, KrausChannel, StochasticChannel,
                       choi_from_kraus, identity_channel, kraus_rank,
                       random_stochastic_channel)
from .instruments import (NonUniformStochasticModel, branch_differences,
                          expand_nonuniform, expand_uniform,
                          random_general_implementation,
                          random_nonuniform_model, random_uniform_model)
from .linalg import (_is_integer, random_density, random_pure, rng,
                     support_projector, trace_norm)
from .oracle import diamond_norm

__all__ = [
    "THEOREM_IDS",
    "VerificationRecord",
    "record_to_json",
    "run_trial",
    "run_trials",
    "shipped_counterexample_model",
    "summarize",
]

@dataclass(frozen=True)
class VerificationRecord:
    theorem_id: str
    trial_seed: int
    closed_form: float
    oracle_value: float
    abs_error: float
    passed: bool


def record_to_json(record: VerificationRecord) -> dict:
    return asdict(record)


def _make(theorem_id, seed, closed, oracle, err, tol) -> VerificationRecord:
    return VerificationRecord(theorem_id, seed, float(closed), float(oracle),
                              float(err), bool(err <= tol))


def _phi_plus_bound(blocks: np.ndarray, E: int) -> float:
    """Probe bound of branch 0 at ``Phi+ ⊗ |0><0|`` on (reference E) ⊗ E ⊗ D
    from a :func:`branch_differences` stack: ``(id ⊗ Delta_0)(Phi+ ⊗ |0><0|)
    = D*R`` with ``R`` block 0 on inputs ``(e, 0)``, so it is
    ``D * (||R||_1 - tr R)``."""
    D = len(blocks)
    r = blocks[0].reshape(E, D, E * D, E, D, E * D)[:, 0, :, :, 0]
    r = r.reshape(E * E * D, -1)
    return D * (trace_norm(r) - np.trace(r).real)


def _trace_fidelity(impl) -> float:
    """Process fidelity of ``impl`` to the ideal from its Kraus operators,
    ``F = (sum_j ||(tr(pi_j B_jk))_k||_2 / (D*E))**2``: ``||A_j† B_j||_1``
    (Gilchrist et al., PRA 71, 062310) with the ideal's ``A_j = pi_j``."""
    root = sum(np.linalg.norm(np.trace(
        branch.kraus_ops[:, j::impl.D, j::impl.D], axis1=1, axis2=2))
        for j, branch in enumerate(impl.branches)) / (impl.D * impl.E)
    return root * root


# ------------------------------------------------------------------
# individual checks
# ------------------------------------------------------------------

def _check_stochastic_diamond(seed, D, E, tol):
    # halved diamond distance of T to the identity: closed form vs SDP
    gen = rng(seed)
    nu = 0.2 + 0.8 * float(gen.uniform())
    t = random_stochastic_channel(E, nu=nu, seed=seed)
    closed = metrics.diamond_identity_stochastic(t)
    delta = t.choi() - choi_from_kraus(identity_channel(E))
    oracle = 0.5 * diamond_norm(delta, tol=1e-7).value
    return _make("t-stochastic-diamond-identity", seed, closed, oracle,
                 abs(closed - oracle), tol)


def _check_fidelity(theorem_id, generate, closed_form, expand,
                    seed, D, E, tol):
    # closed-form model fidelity vs the Kraus route on the expanded model
    model = generate(D, E, seed=seed)
    closed = closed_form(model)
    oracle = _trace_fidelity(expand(model))
    return _make(theorem_id, seed, closed, oracle, abs(closed - oracle), tol)


def _check_uniform_fidelity(seed, D, E, tol):
    return _check_fidelity("cor-uniform-fidelity", random_uniform_model,
                           metrics.fidelity_uniform_closed, expand_uniform,
                           seed, D, E, tol)


def _check_nonuniform_fidelity(seed, D, E, tol):
    return _check_fidelity("cor-nonuniform-fidelity", random_nonuniform_model,
                           metrics.fidelity_nonuniform_closed,
                           expand_nonuniform, seed, D, E, tol)


def _check_instrument_bounds(seed, D, E, tol):
    # sandwich: lower_max <= ||Delta||_dia <= upper; abs_error = violation
    impl = random_general_implementation(D, E, seed=seed)
    lower = metrics.instrument_diamond_lower_max(impl, restarts=8, seed=seed)
    upper = metrics.instrument_diamond_upper(impl)
    oracle = diamond_norm([ChoiMatrix(D * E, D * E, b)
                           for b in branch_differences(impl)], tol=1e-7).value
    violation = max(lower - oracle, 0.0) + max(oracle - upper, 0.0)
    return _make("thm-instrument-bounds", seed, lower, oracle, violation, tol)


def _check_uniform_diamond(seed, D, E, tol):
    # closed form 2(1 - nu00*lambda00) vs SDP, plus saturation of the probe
    # lower bound at Phi+ on (reference x E), by covariance the optimal input
    # of T00, a mixture of shift-and-phase unitaries
    model = random_uniform_model(D, E, seed=seed)
    closed = 2.0 * metrics.uniform_diamond_exact(model)
    blocks = branch_differences(expand_uniform(model))
    oracle = diamond_norm([ChoiMatrix(D * E, D * E, b) for b in blocks],
                          tol=1e-6).value
    saturated = _phi_plus_bound(blocks, E)
    err = max(abs(closed - oracle), abs(saturated - oracle))
    return _make("thm-uniform-diamond", seed, closed, oracle, err, tol)


def shipped_counterexample_model() -> NonUniformStochasticModel:
    """Outcome-dependent qubit-dephasing model: clean on outcome 0, phase
    flip with probability 0.2 on outcome 1."""
    t0 = StochasticChannel(2, 1.0, {(0, 0): 1.0})
    t1 = StochasticChannel(2, 1.0, {(0, 0): 0.8, (0, 1): 0.2})
    return NonUniformStochasticModel(2, 2, {(0, 0, 0): t0, (0, 0, 1): t1})


def _check_sec7(seed, D, E, tol):
    # fixed counterexample: outcome-resolved closed form vs SDP, and the
    # uniform-theory fidelity route must disagree by at least 0.01
    model = shipped_counterexample_model()
    closed = metrics.nonuniform_outcome_diamond(model)
    blocks = branch_differences(expand_nonuniform(model))
    side = model.D * model.E
    oracle = diamond_norm([ChoiMatrix(side, side, b) for b in blocks],
                          tol=1e-6).value
    err = abs(closed - oracle)
    fidelity_route = 1.0 - metrics.fidelity_nonuniform_closed(model)
    separated = abs(0.5 * closed - fidelity_route) >= 0.01
    return VerificationRecord("sec7-counterexample", seed, closed, oracle,
                              float(err), bool(err <= tol and separated))


def _check_fvg(seed, D, E, tol):
    # chain lower <= middle <= upper; abs_error = total violation
    gen = rng(seed)
    dim = 2 + int(gen.integers(3))
    if seed % 5 == 0:
        psi = random_pure(dim, gen)
        rho = np.outer(psi, psi.conj())
    else:
        rho = random_density(dim, gen, rank=1 + int(gen.integers(dim)))
    sigma = random_density(dim, gen)
    lo, mid, up = metrics.fvg_bounds(rho, sigma, support_projector(rho))
    violation = max(lo - mid, 0.0) + max(mid - up, 0.0)
    return _make("fvg-appendix", seed, lo, up, violation, tol)


def _check_orthogonality(seed, D, E, tol):
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
    return _make("lemma-orthogonality", seed, closed, oracle,
                 abs(closed - oracle), tol)


def _check_kraus_rank(seed, D, E, tol):
    # generic channels: number of independent Kraus operators == Choi rank
    gen = rng(seed)
    din, dout = D, E
    r = 1 + int(gen.integers(min(din * dout, 4)))
    g = gen.normal(size=(r, 2, dout, din))  # per operator: real, imaginary
    channel = KrausChannel(din, dout, g[:, 0] + 1j * g[:, 1])
    measured = kraus_rank(channel)
    return _make("kraus-rank", seed, float(r), float(measured),
                 abs(r - measured), tol)


#: theorem id -> (runner, pass tolerance, default (D, E)); the tolerances
#: are the acceptance thresholds.
_CHECKS = {
    "t-stochastic-diamond-identity": (_check_stochastic_diamond, 1e-5, (2, 2)),
    "cor-uniform-fidelity": (_check_uniform_fidelity, 1e-8, (2, 2)),
    "cor-nonuniform-fidelity": (_check_nonuniform_fidelity, 1e-8, (2, 2)),
    "thm-instrument-bounds": (_check_instrument_bounds, 1e-6, (2, 2)),
    "thm-uniform-diamond": (_check_uniform_diamond, 1e-4, (2, 2)),
    "sec7-counterexample": (_check_sec7, 1e-4, (2, 2)),
    "fvg-appendix": (_check_fvg, 1e-10, (2, 3)),
    "lemma-orthogonality": (_check_orthogonality, 1e-10, (2, 6)),
    "kraus-rank": (_check_kraus_rank, 0.0, (2, 3)),
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
    """
    if theorem_id not in _CHECKS:
        raise ValueError(f"unknown theorem id {theorem_id!r}; "
                         f"choose one of {', '.join(THEOREM_IDS)}")
    if tol is not None and not tol >= 0:
        raise ValueError(f"tol must be a number >= 0, got {tol!r}")
    runner, default_tol, (d_default, e_default) = _CHECKS[theorem_id]
    return runner(
        trial_seed,
        d_default if dim_d is None else dim_d,
        e_default if dim_e is None else dim_e,
        default_tol if tol is None else tol,
    )


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
