"""Figures of merit for noisy subsystem measurements.

Closed-form process fidelities and diamond distances for stochastic
instrument implementations, certified bounds for general implementations,
and sharpened Fuchs-van de Graaf inequalities.

Diamond-norm conventions in this module:

* :func:`diamond_identity_stochastic` and :func:`uniform_diamond_exact`
  return the *halved* norm ``(1/2)||.||_diamond`` (the natural [0, 1]
  error rate);
* :func:`instrument_diamond_lower`, :func:`instrument_diamond_lower_max`,
  :func:`instrument_diamond_upper`, :func:`nonuniform_outcome_diamond`
  and every field of :class:`MetricsReport` use the *full* norm.

Each docstring restates the convention of its function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (ChoiMatrix, StochasticChannel, choi_from_kraus,
                       nu_lambda)
from .config import TOL
from .errors import DimensionMismatch, InvalidModel
from .instruments import (InstrumentImplementation, NonUniformStochasticModel,
                          UniformStochasticModel, branch_differences,
                          expand_nonuniform, expand_uniform, ideal_instrument)
from .linalg import (_is_integer, check_density, psd_sqrt, random_pure_states,
                     rng, support_projector, trace_norm)

__all__ = [
    "MetricsReport",
    "process_fidelity",
    "instrument_fidelity_branchwise",
    "fidelity_uniform_closed",
    "fidelity_nonuniform_closed",
    "diamond_identity_stochastic",
    "instrument_diamond_lower",
    "instrument_diamond_lower_max",
    "instrument_diamond_upper",
    "uniform_diamond_exact",
    "nonuniform_outcome_diamond",
    "fvg_bounds",
    "build_report",
    "report_to_json",
]


# ==================================================================
# fidelities
# ==================================================================

def process_fidelity(ja: ChoiMatrix, jb: ChoiMatrix) -> float:
    """Process fidelity ``F = ||sqrt(JA) sqrt(JB)||_1^2`` between Choi states.

    Accepts subnormalized Choi states (trace-decreasing maps); symmetric in
    its arguments.

    :raises DimensionMismatch: on unequal dimensions.
    :raises NotPSD: if either matrix has a genuinely negative eigenvalue.
    """
    if (ja.dim_in, ja.dim_out) != (jb.dim_in, jb.dim_out):
        raise DimensionMismatch(
            f"Choi dimensions ({ja.dim_in}, {ja.dim_out}) vs "
            f"({jb.dim_in}, {jb.dim_out})")
    root = trace_norm(psd_sqrt(ja.matrix) @ psd_sqrt(jb.matrix))
    return root * root


def instrument_fidelity_branchwise(a: InstrumentImplementation,
                                   b: InstrumentImplementation) -> float:
    """Process fidelity between two instruments from their branches.

    Because branch outputs land in orthogonal outcome sectors, the square
    root of the full-channel fidelity splits into a sum over outcomes:
    ``F(A, B) = (sum_j sqrt(F(J(A_j), J(B_j))))**2``.
    """
    if (a.D, a.E) != (b.D, b.E):
        raise DimensionMismatch(
            f"instrument dimensions ({a.D}, {a.E}) vs ({b.D}, {b.E})")
    total = 0.0
    for ma, mb in zip(a.branches, b.branches):
        total += np.sqrt(max(process_fidelity(choi_from_kraus(ma),
                                              choi_from_kraus(mb)), 0.0))
    return total * total


def fidelity_uniform_closed(model: UniformStochasticModel) -> float:
    """Fidelity of a uniform stochastic implementation to the ideal
    measurement: ``nu_00 * lambda_00`` of the dressing channel ``T_(0,0)``.

    Returns 0 when the model has no ``(0, 0)`` entry.
    """
    t00 = model.table.get((0, 0))
    if t00 is None:
        return 0.0
    nu, lam = nu_lambda(t00)
    return nu * lam


def fidelity_nonuniform_closed(model: NonUniformStochasticModel) -> float:
    """Fidelity of an outcome-dependent stochastic implementation:
    ``((1/D) sum_j sqrt(nu_00j * lambda_00j))**2``.

    Outcomes with no ``(0, 0, j)`` entry contribute zero.
    """
    acc = 0.0
    for j in range(model.D):
        t = model.table.get((0, 0, j))
        if t is not None:
            nu, lam = nu_lambda(t)
            acc += np.sqrt(max(nu * lam, 0.0))
    val = acc / model.D
    return val * val


# ==================================================================
# diamond distances: closed forms
# ==================================================================

def diamond_identity_stochastic(t: StochasticChannel) -> float:
    """Halved diamond distance of an unnormalized stochastic channel to the
    identity: ``(1/2)||T - I||_diamond = (1 + nu)/2 - nu*lambda``."""
    nu, lam = nu_lambda(t)
    return (1.0 + nu) / 2.0 - nu * lam


def uniform_diamond_exact(model: UniformStochasticModel) -> float:
    """Halved diamond distance of a uniform stochastic implementation to the
    ideal measurement: ``(1/2)||Delta||_diamond = 1 - nu_00*lambda_00``.

    Degenerate models with ``nu_00 = 0`` return 1.
    """
    return 1.0 - fidelity_uniform_closed(model)


def nonuniform_outcome_diamond(model: NonUniformStochasticModel) -> float:
    """Full diamond distance for purely outcome-dependent unmeasured-register
    errors: ``||Delta||_diamond = max_j ||T_j - I_E||_diamond
    = max_j 2*(1 - lambda_j)``.

    Only models whose table has nothing but trace-preserving ``(0, 0, j)``
    entries qualify.  Note the outcome-resolved error is *not* ``2*(1 - F)``
    of the fidelity closed form; see :func:`fidelity_nonuniform_closed`.

    :raises InvalidModel: if off-``(0, 0)`` entries are present or a branch
        channel is not trace preserving.
    """
    worst = 0.0
    for (a, b, j), t in model.table.items():
        if (a, b) != (0, 0):
            raise InvalidModel(
                f"entry {(a, b, j)}: only (0, 0, j) errors are supported")
        nu, lam = nu_lambda(t)
        if abs(nu - 1.0) > TOL.weight_sum:
            raise InvalidModel(f"branch {j} has weight {nu!r}, expected 1")
        worst = max(worst, 2.0 * (1.0 - lam))
    return worst


# ==================================================================
# diamond distances: general bounds
# ==================================================================

def _probe_values(stack: np.ndarray, sigmas: np.ndarray, j: int) -> np.ndarray:
    """``||Delta_j(sigma_j)||_1 - tr Delta_j(sigma_j)``, which is
    ``1 - tr M_j(sigma_j) + ||M_j(sigma_j) - sigma_j||_1``, for each state
    ``sigma`` of a stack, ``sigma_j = sigma ⊗ |j><j|``, from block ``B_j`` of
    a branch-difference stack: ``Delta_j(sigma_j) = E*D * sum_ab sigma_ab
    B_j[(a,j), :, (b,j), :]``.  The stacked SVD acts slice by slice, so no
    value depends on the others."""
    D, E = len(stack), sigmas.shape[-1]
    rows = stack[j].reshape(E, D, E * D, E, D, E * D)[:, j, :, :, j]
    out = E * D * np.tensordot(sigmas, rows, axes=([1, 2], [0, 2]))
    return (np.sum(np.linalg.svd(out, compute_uv=False), axis=1)
            - np.trace(out, axis1=1, axis2=2).real)


def instrument_diamond_lower(impl: InstrumentImplementation,
                             sigma: np.ndarray, j: int) -> float:
    """Lower bound on the full diamond distance between an implementation and
    the ideal measurement, from a single probe state:
    ``1 - tr M_j(sigma_j) + ||M_j(sigma_j) - sigma_j||_1`` with
    ``sigma_j = sigma ⊗ |j><j|``.

    :param sigma: density matrix on the unmeasured register (dimension E).
    :param j: outcome whose branch is probed, an integer in ``0..D-1``
        (else ``ValueError``).
    """
    if not (_is_integer(j) and 0 <= j < impl.D):
        raise ValueError(f"outcome index {j!r} must be an integer in "
                         f"0..{impl.D - 1}")
    sigma = check_density(sigma, impl.E)
    return float(_probe_values(branch_differences(impl), sigma[None], j)[0])


def _lower_max(stack: np.ndarray, E: int, restarts: int, seed: int) -> float:
    """:func:`instrument_diamond_lower_max` over a branch-difference stack."""
    eye = np.eye(E, dtype=complex)
    psi = random_pure_states(E, restarts, rng(seed))
    sigmas = np.concatenate([eye[None] / E,
                             eye[:, :, None] * eye[:, None, :],
                             psi[:, :, None] * psi[:, None, :].conj()])
    return max(float(np.max(_probe_values(stack, sigmas, j)))
               for j in range(len(stack)))


def instrument_diamond_lower_max(impl: InstrumentImplementation,
                                 restarts: int = 20, seed: int = 0) -> float:
    """Best probe-state lower bound over all outcomes and a candidate set of
    states: the maximally mixed state, every computational basis state, and
    ``restarts`` random pure states.  Full-norm convention.

    Deterministic per seed and monotone nondecreasing in ``restarts``.
    """
    if not (_is_integer(restarts) and restarts >= 0):
        raise ValueError(f"restarts must be an integer >= 0, got {restarts!r}")
    return _lower_max(branch_differences(impl), impl.E, restarts, seed)


def _upper_bound(stack: np.ndarray, E: int) -> tuple:
    """``(D*E * sum_k d_k, (d_k)_k)`` over a branch-difference stack,
    d_k = ``||J(M_k) - J(ad_pi_k)||_1``."""
    distances = tuple(trace_norm(block) for block in stack)
    return len(stack) * E * sum(distances), distances


def instrument_diamond_upper(impl: InstrumentImplementation) -> float:
    """Upper bound on the full diamond distance to the ideal measurement:
    ``D*E * sum_k ||J(M_k) - J(ad_pi_k)||_1``."""
    return _upper_bound(branch_differences(impl), impl.E)[0]


# ==================================================================
# Fuchs-van de Graaf bounds
# ==================================================================

def fvg_bounds(rho: np.ndarray, sigma: np.ndarray) -> tuple:
    """Sharpened Fuchs-van de Graaf bracket around the trace distance.

    Returns ``(lower, middle, upper)`` with ``lower = 1 - tr(Pi sigma)``,
    ``middle = (1/2)||rho - sigma||_1`` and
    ``upper = sqrt(1 - ||sqrt(rho) sqrt(sigma)||_1^2)``, where ``Pi`` is the
    support projector of ``rho``; every other projector fixing ``rho``
    contains it, so gives a lower bound no larger.  The chain ``lower <=
    middle <= upper`` holds for every valid input.

    :raises DimensionMismatch: if ``sigma`` does not match ``rho``.
    """
    rho = check_density(rho)
    sigma = check_density(sigma, rho.shape[0])
    pi = support_projector(rho)
    lower = 1.0 - float(np.trace(pi @ sigma).real)
    middle = 0.5 * trace_norm(rho - sigma)
    root = trace_norm(psd_sqrt(rho) @ psd_sqrt(sigma))
    upper = float(np.sqrt(max(1.0 - root * root, 0.0)))
    return lower, middle, upper


# ==================================================================
# aggregated report
# ==================================================================

@dataclass(frozen=True)
class MetricsReport:
    """Bundle of figures of merit for one implementation.

    All diamond-distance fields use the full norm ``||Delta||_diamond``;
    ``diamond_exact``, ``nu00`` and ``lambda00`` are model properties that
    only exist for uniform stochastic models and are ``None`` otherwise.
    """

    fidelity: float
    diamond_lower: float
    diamond_upper: float
    diamond_exact: float | None
    nu00: float | None
    lambda00: float | None
    per_branch_trace_distances: tuple

    def __post_init__(self):
        if self.diamond_lower > self.diamond_upper + 1e-9:
            raise ValueError(
                f"lower bound {self.diamond_lower!r} exceeds upper bound "
                f"{self.diamond_upper!r}")
        if self.diamond_exact is not None:
            if not (self.diamond_lower - 1e-9 <= self.diamond_exact
                    <= self.diamond_upper + 1e-9):
                raise ValueError(
                    f"exact value {self.diamond_exact!r} outside bracket "
                    f"[{self.diamond_lower!r}, {self.diamond_upper!r}]")
        object.__setattr__(self, "per_branch_trace_distances",
                           tuple(float(x) for x in
                                 self.per_branch_trace_distances))


def report_to_json(report: MetricsReport) -> dict:
    return {
        "fidelity": report.fidelity,
        "diamond_lower": report.diamond_lower,
        "diamond_upper": report.diamond_upper,
        "diamond_exact": report.diamond_exact,
        "nu00": report.nu00,
        "lambda00": report.lambda00,
        "per_branch_trace_distances": list(report.per_branch_trace_distances),
        "conventions": {"diamond": "full-norm"},
    }


def build_report(obj, seed: int = 0) -> MetricsReport:
    """Compute a :class:`MetricsReport` for a stochastic model or a general
    implementation.

    Stochastic models are expanded to implementations for the bound
    computations; closed forms supply the fidelity (and, for uniform models,
    the exact diamond distance ``2*(1 - nu00*lambda00)``).  The bounds are
    read from one branch-difference stack; ``seed`` seeds the lower bound's
    probe-state search (20 restarts, as in :func:`instrument_diamond_lower_max`).
    """
    diamond_exact = nu00 = lambda00 = None
    if isinstance(obj, UniformStochasticModel):
        impl = expand_uniform(obj)
        fidelity = fidelity_uniform_closed(obj)
        diamond_exact = 2.0 * uniform_diamond_exact(obj)
        t00 = obj.table.get((0, 0))
        nu00, lambda00 = nu_lambda(t00) if t00 is not None else (0.0, 1.0)
    elif isinstance(obj, NonUniformStochasticModel):
        impl = expand_nonuniform(obj)
        fidelity = fidelity_nonuniform_closed(obj)
    elif isinstance(obj, InstrumentImplementation):
        impl = obj
        fidelity = instrument_fidelity_branchwise(
            ideal_instrument(impl.D, impl.E), impl)
    else:
        raise TypeError(
            f"expected a stochastic model or an implementation, "
            f"got {type(obj).__name__}")
    stack = branch_differences(impl)
    upper, distances = _upper_bound(stack, impl.E)
    return MetricsReport(
        fidelity=float(fidelity),
        diamond_lower=_lower_max(stack, impl.E, 20, seed),
        diamond_upper=upper,
        diamond_exact=diamond_exact,
        nu00=nu00,
        lambda00=lambda00,
        per_branch_trace_distances=distances,
    )
