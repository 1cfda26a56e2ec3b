"""Figures of merit for noisy subsystem measurements.

Closed-form process fidelities and diamond distances for stochastic
instrument implementations, certified bounds for general implementations,
and sharpened Fuchs-van de Graaf inequalities.

Diamond-norm conventions in this module, which each docstring restates:

* :func:`diamond_identity_stochastic` and :func:`uniform_diamond_exact`
  return the *halved* norm ``(1/2)||.||_diamond`` (the natural [0, 1]
  error rate);
* :func:`instrument_diamond_lower_max`, :func:`instrument_diamond_upper`,
  :func:`nonuniform_outcome_diamond` and every field of
  :class:`MetricsReport` use the *full* norm.

Exact distances of stochastic models: with ``w_j`` the identity weight of
``T_(0,0,j)`` (of ``T_(0,0)`` if uniform), ``||Delta||_diamond = max_j
2(1 - w_j)``.  Pinching over the measured value splits ``Delta`` into
sectors; each is Weyl covariant on E, so the maximally entangled input is
optimal (Watrous, arXiv:1207.5726); orthogonal Kraus vectors and trace
preservation give sector ``j`` the norm ``2(1 - w_j)``.  The uniform case
is the paper's (arXiv:2306.07418); see :func:`nonuniform_outcome_diamond`.

:func:`build_report` gives each report field's route, from the model's own
structure; :func:`instrument_diamond_lower_max` and
:func:`instrument_diamond_upper` take the same, so each quantity has one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channels import (ChoiMatrix, StochasticChannel, choi_from_kraus,
                       nu_lambda, weyl_operators)
from .config import TOL
from .errors import DimensionMismatch
from .instruments import (InstrumentImplementation, NonUniformStochasticModel,
                          UniformStochasticModel, ideal_instrument)
from .linalg import (_is_integer, _psd_root, check_density, psd_sqrt,
                     random_pure_states, rng, trace_norm)

__all__ = [
    "MetricsReport",
    "process_fidelity",
    "instrument_fidelity_branchwise",
    "fidelity_uniform_closed",
    "fidelity_nonuniform_closed",
    "diamond_identity_stochastic",
    "instrument_diamond_lower_max",
    "instrument_diamond_upper",
    "uniform_diamond_exact",
    "nonuniform_outcome_diamond",
    "fvg_bounds",
    "build_report",
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
    return _branchwise_fidelity(
        (psd_sqrt(choi_from_kraus(m).matrix) for m in a.branches), b)


def _branchwise_fidelity(roots, b: InstrumentImplementation) -> float:
    """``(sum_j sqrt(F_j))**2`` with ``sqrt(F_j) = ||R_j sqrt(J(B_j))||_1``,
    from the roots ``R_j = sqrt(J(A_j))`` of the first instrument's branch
    Choi states, in outcome order."""
    total = 0.0
    for root, mb in zip(roots, b.branches):
        f = trace_norm(root @ psd_sqrt(choi_from_kraus(mb).matrix))
        total += f
    return total * total


@lru_cache(maxsize=None)
def _ideal_roots(D: int, E: int) -> tuple:
    """The read-only roots ``sqrt(J(ad_pi_j))`` of the ideal measurement's
    branch Choi states, built once per model dimensions ``(D, E)``: ``D``
    matrices of side ``(D*E)**2``, 0.3 MB at (3, 3) and 30 MiB at (5, 5)."""
    roots = tuple(psd_sqrt(choi_from_kraus(m).matrix)
                  for m in ideal_instrument(D, E).branches)
    for root in roots:
        root.setflags(write=False)
    return roots


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
    """Full diamond distance of an outcome-dependent stochastic model to the
    ideal measurement, ``||Delta||_diamond = max_j 2(1 - w_j) = D * max_j
    d_j``: ``w_j`` is the identity weight of ``T_(0,0,j)`` and ``d_j`` the
    per-branch trace distance of :func:`build_report`.

    Proof sketch: every Kraus operator ``B ⊗ |j+a><j+b|`` and every ``pi_j``
    reads one measured value ``c = j + b``, so pinching over ``c`` gives
    ``||Delta||_diamond = max_c ||Delta P_c||_diamond``; each sector is
    covariant under the irreducible Weyl group on E, so the maximally
    entangled input on E is optimal (Watrous, arXiv:1207.5726); its Kraus
    vectors are Hilbert-Schmidt orthogonal, with weights that sum to 1 by
    trace preservation, so its norm is ``2(1 - w_c)``.  The uniform case,
    every ``w_j = nu_00*lambda_00``, is arXiv:2306.07418.

    Every table the constructor accepts qualifies, entries off ``(0, 0, j)``
    included (these were once refused).  This is *not* ``2*(1 - F)`` of
    :func:`fidelity_nonuniform_closed`.

    :raises TypeError: unless ``model`` is nonuniform: a uniform model has
        :func:`uniform_diamond_exact`, and for an implementation ``D * max_j
        d_j`` is not the distance.
    """
    if not isinstance(model, NonUniformStochasticModel):
        raise TypeError(f"expected a nonuniform stochastic model, got "
                        f"{type(model).__name__}")
    return model.D * max(_branch_distances(model))


# ==================================================================
# diamond distances: general bounds
# ==================================================================

def _branch_distances(obj) -> tuple:
    """``d_j = ||J(M_j) - J(ad_pi_j)||_1`` for each outcome ``j``.

    Stochastic model: the ``vec(U ⊗ |j+a><j+b|)`` of branch ``j``'s Kraus
    operators are Hilbert-Schmidt orthogonal, and ``vec(pi_j)`` is the one
    with ``(U, a, b) = (I, 0, 0)``, so the difference is diagonal in that
    basis: ``d_j = (nu_j - w_j + |1 - w_j|)/D``, with ``nu_j`` the branch's
    total weight and ``w_j`` the identity weight of ``T_(0,0,j)`` (of
    ``T_(0,0)`` if uniform); that is ``2(1 - w_j)/D``, as ``nu_j = 1``.

    Implementation: block ``j`` is ``W S W†``, with columns ``vec(K_jk)``
    and ``vec(pi_j)`` of ``W``, scaled by ``1/sqrt(D*E)``, and ``S =
    diag(1, ..., 1, -1)``; its trace norm is ``sum |eig(R S R†)|`` with
    ``R`` the triangular factor of ``W``.
    """
    D, E = obj.D, obj.E
    if not isinstance(obj, InstrumentImplementation):
        uniform = isinstance(obj, UniformStochasticModel)
        nus, ws = [0.0] * D, [0.0] * D
        for key, t in obj.table.items():
            for j in range(D) if uniform else key[2:]:
                nus[j] += sum(t.weights.values())
                if key[:2] == (0, 0):
                    ws[j] = t.weights.get((0, 0), 0.0)
        return tuple((nu - w + abs(1.0 - w)) / D for nu, w in zip(nus, ws))
    side = D * E
    diag = np.arange(side) * (side + 1)  # col_vec position of each |i><i|
    out = []
    for j, branch in enumerate(obj.branches):
        ops = branch.kraus_ops
        w = np.zeros((side * side, len(ops) + 1), dtype=complex)
        w[:, :-1] = ops.swapaxes(1, 2).reshape(len(ops), -1).T
        w[diag[j::D], -1] = 1.0
        r = np.linalg.qr(w / np.sqrt(side), mode="r")
        signs = np.ones(len(ops) + 1)
        signs[-1] = -1.0
        out.append(float(np.sum(np.abs(
            np.linalg.eigvalsh((r * signs) @ r.conj().T)))))
    return tuple(out)


def _probes(obj, sigmas: np.ndarray) -> np.ndarray:
    """Probe values ``||Delta_j(sigma_j)||_1 - tr Delta_j(sigma_j)``, which
    is ``1 - tr M_j(sigma_j) + ||M_j(sigma_j) - sigma_j||_1``, for each
    outcome ``j`` (rows) and each state ``sigma`` of a stack (columns),
    ``sigma_j = sigma ⊗ |j><j|``.

    Stochastic model: only the ``b = 0`` operators see ``sigma_j``, so
    ``Delta_j(sigma_j)`` is block diagonal over the shift ``a``, with blocks
    ``T_(a,0,j)(sigma) - delta_a0 sigma`` (``T_(a,0)`` if uniform, the
    same for every ``j``).  Implementation: ``Delta_j(sigma_j) = sum_k
    K_k sigma K_k† - sigma_j`` with ``K_k`` the ``E`` input columns of
    branch ``j`` at measured index ``j``.
    """
    D, E = obj.D, obj.E
    if isinstance(obj, InstrumentImplementation):
        deltas = []
        for j, branch in enumerate(obj.branches):
            cols = branch.kraus_ops[:, None, :, j::D]
            out = np.sum(cols @ sigmas @ cols.conj().swapaxes(-1, -2), axis=0)
            out[:, j::D, j::D] -= sigmas
            deltas.append(out)
        deltas = np.stack(deltas)
    else:
        # weights[j, a] of T_(a,0,j) over the Weyl labels, times the labels'
        # superoperators U ⊗ conj(U) (row-major vec), act on every sigma in
        # one product
        uniform = isinstance(obj, UniformStochasticModel)
        weights = np.zeros((1 if uniform else D, D, E * E))
        for key, t in obj.table.items():
            if key[1] == 0:
                row = weights[0 if uniform else key[2], key[0]]
                for (x, y), w in t.weights.items():
                    row[x * E + y] = w
        u = weyl_operators(E)
        supers = np.einsum("kab,kcd->kacbd", u, u.conj()).reshape(E * E, -1)
        maps = (weights @ supers).reshape(*weights.shape[:2], E * E, E * E)
        n = len(sigmas)
        deltas = (maps @ sigmas.reshape(n, -1).T).reshape(-1, D, E, E, n)
        deltas = deltas.transpose(0, 4, 1, 2, 3)  # (j, sigma, a, E, E)
        deltas[:, :, 0] -= sigmas
    norms = np.sum(np.linalg.svd(deltas, compute_uv=False), axis=-1)
    traces = np.trace(deltas, axis1=-2, axis2=-1).real
    if deltas.ndim == 5:
        norms, traces = norms.sum(axis=-1), traces.sum(axis=-1)
    return np.broadcast_to(norms - traces, (D, len(sigmas)))


def instrument_diamond_lower_max(impl, restarts: int = 20,
                                 seed: int = 0) -> float:
    """Lower bound on the full diamond distance between an implementation and
    the ideal measurement: the largest probe value ``1 - tr M_j(sigma_j) +
    ||M_j(sigma_j) - sigma_j||_1``, ``sigma_j = sigma ⊗ |j><j|``, over all
    outcomes ``j`` and a candidate set of states ``sigma``: the maximally
    mixed state, every computational basis state, and ``restarts`` random
    pure states.

    ``impl`` is an :class:`InstrumentImplementation`, or a stochastic model,
    whose probe values are read from its table (see :func:`build_report`).
    Deterministic per seed and monotone nondecreasing in ``restarts``.
    """
    if not (_is_integer(restarts) and restarts >= 0):
        raise ValueError(f"restarts must be an integer >= 0, got {restarts!r}")
    E = impl.E
    eye = np.eye(E, dtype=complex)
    psi = random_pure_states(E, restarts, rng(seed))
    sigmas = np.concatenate([eye[None] / E,
                             eye[:, :, None] * eye[:, None, :],
                             psi[:, :, None] * psi[:, None, :].conj()])
    return float(np.max(_probes(impl, sigmas)))


def instrument_diamond_upper(impl) -> float:
    """Upper bound on the full diamond distance to the ideal measurement:
    ``D*E * sum_k ||J(M_k) - J(ad_pi_k)||_1``, for an implementation or a
    stochastic model (see :func:`build_report`)."""
    return impl.D * impl.E * sum(_branch_distances(impl))


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
    rho, rho_vals, rho_vecs = check_density(rho)
    sigma, sigma_vals, sigma_vecs = check_density(sigma, rho.shape[0])
    # the support of rho: eigenvalues above rank_rel * w_max (w_max > 0,
    # since the clamped eigenvalues of a unit-trace state sum to about 1)
    cols = rho_vecs[:, rho_vals > TOL.rank_rel * rho_vals[-1]]
    lower = 1.0 - float(np.trace((cols @ cols.conj().T) @ sigma).real)
    middle = 0.5 * trace_norm(rho - sigma)
    root = trace_norm(_psd_root(rho_vals, rho_vecs)
                      @ _psd_root(sigma_vals, sigma_vecs))
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


def build_report(obj, seed: int = 0) -> MetricsReport:
    """Compute a :class:`MetricsReport` for a stochastic model or a general
    implementation, from the model's own structure; nothing is expanded.

    * ``fidelity``: the closed forms of a stochastic model; for an
      implementation, the branch Choi states
      (:func:`instrument_fidelity_branchwise` against the ideal, on the
      same arithmetic).  The ideal measurement's branch roots depend only
      on ``(D, E)``, so they are built once per pair and kept for the
      process; each report computes only its own branches' roots.
    * ``diamond_exact``, ``nu00``, ``lambda00`` (uniform models only): from
      ``T_(0,0)``, with ``diamond_exact = 2*(1 - nu00*lambda00)``.
    * ``per_branch_trace_distances`` and ``diamond_upper = D*E * sum_j
      d_j``: for a stochastic model the closed form ``d_j = 2(1 - w_j)/D``,
      ``w_j`` the identity weight of ``T_(0,0,j)`` (of ``T_(0,0)`` if
      uniform), so on a uniform model the upper bound is exactly ``D*E``
      times the exact distance; for an implementation, from the branch
      Kraus operators.
    * ``diamond_lower``: :func:`instrument_diamond_lower_max` with 20
      restarts seeded by ``seed``; a stochastic model's probe values come
      from its table, an implementation's from its branch Kraus operators.
    """
    diamond_exact = nu00 = lambda00 = None
    if isinstance(obj, UniformStochasticModel):
        fidelity = fidelity_uniform_closed(obj)
        diamond_exact = 2.0 * uniform_diamond_exact(obj)
        t00 = obj.table.get((0, 0))
        nu00, lambda00 = nu_lambda(t00) if t00 is not None else (0.0, 1.0)
    elif isinstance(obj, NonUniformStochasticModel):
        fidelity = fidelity_nonuniform_closed(obj)
    elif isinstance(obj, InstrumentImplementation):
        fidelity = _branchwise_fidelity(_ideal_roots(obj.D, obj.E), obj)
    else:
        raise TypeError(
            f"expected a stochastic model or an implementation, "
            f"got {type(obj).__name__}")
    distances = _branch_distances(obj)
    return MetricsReport(
        fidelity=float(fidelity),
        diamond_lower=instrument_diamond_lower_max(obj, 20, seed),
        diamond_upper=obj.D * obj.E * sum(distances),
        diamond_exact=diamond_exact,
        nu00=nu00,
        lambda00=lambda00,
        per_branch_trace_distances=distances,
    )
