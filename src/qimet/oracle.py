"""Certified diamond-norm computation for Hermiticity-preserving maps.

The diamond norm of a Hermiticity-preserving map with (unnormalized) Choi
operator ``C = dim_in * J`` is the optimum of the standard semidefinite
program

    minimize   (1/2)||Tr_out Y0||_inf + (1/2)||Tr_out Y1||_inf
    subject to [[Y0, -C], [-C†, Y1]] >= 0.

For Hermitian ``C`` (the only case this package needs: differences of Choi
states, which :class:`~qimet.channels.ChoiMatrix` stores exactly Hermitian)
the program is invariant under swapping the two blocks, so an optimal
point has ``Y0 = Y1 = Y`` and the block constraint splits under the rotation
``(u, v) -> ((u+v)/sqrt(2), (u-v)/sqrt(2))`` into ``Y >= C`` and ``Y >= -C``.
This module therefore solves the reduced program

    minimize   t
    subject to Y - C >= 0,   Y + C >= 0,   t*I - Tr_out(Y) >= 0

with a primal-dual path-following interior-point method using the
Nesterov-Todd scaling, specialized to the three diagonal blocks above.
Each iteration is a Mehrotra predictor-corrector step (Mehrotra 1992; in the
Nesterov-Todd form of Todd, Toh and Tütüncü 1998): an affine-scaling
predictor gives the centering parameter ``sigma = (mu_aff / mu)**3`` and
directions ``(dS, dZ)``, and the corrector aims each cone at ``sigma*mu*S⁻¹
- c`` with the predictor's second-order term

    c = M [(D_x D_z + D_z D_x)_ij / (v_i + v_j)] M†,
    D_x = M† dS M,   D_z = M⁻¹ dZ M⁻†,

where ``M`` is the cone's scaling factor, ``M† S M = M⁻¹ Z M⁻† = diag(v)``;
the divide is the exact solve of ``diag(v) X + X diag(v) = D_x D_z + D_z
D_x``.
The Newton system is solved on ``n x n`` matrices (``n = dim_in * dim_out``):
its operator ``X -> W1 X W1 + W2 X W2 + P*(W3 P(X) W3)`` with
``P = Tr_out`` is an entrywise divide in the generalized eigenbasis of
``(W2, W1 + W2)`` plus a rank-``dim_in**2`` correction added back by a
Woodbury step, and the ``t`` row is eliminated by a scalar Schur step, at
``O(dim_in**2 * n**3)`` per iteration.

Certification does not trust convergence.  Each iteration Cholesky-factorizes
its slacks and duals first, then reads two *exactly feasible* bounds:

* upper bound — once ``Y ∓ C`` have factorized, ``Y >= ±C``, and then
  ``<C, X> <= lambda_max(Tr_out Y)`` for any primal-feasible pair;
* lower bound — for *any* density ``rho`` on the input factor,
  ``max { <C, X> : -rho ⊗ I <= X <= rho ⊗ I } = || (sqrt(rho) ⊗ I) C
  (sqrt(rho) ⊗ I) ||_1``, which is a valid lower bound on the diamond norm;
  at ``rho = Z3 / tr Z3``, with ``Z3 = L L†`` the dual's input block, the
  factor ``L†`` stands in for ``sqrt(Z3)`` (the two differ by a unitary).

The reported value is the midpoint of the best bounds; the call succeeds
when their gap is at most the requested tolerance.

A see-saw hill climb over pure reference-assisted inputs provides an
independent lower bound used as a solver sanity check.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import zpotrf, ztrtri

from .channels import ChoiMatrix
from .errors import DimensionTooLarge, Unconverged
from .linalg import (_is_integer, col_vec, hermitize, partial_trace,
                     random_pure_states, rng, trace_norm)

__all__ = [
    "DiamondNormResult",
    "diamond_norm",
    "diamond_lower_hillclimb",
    "result_to_json",
]

#: Hard cap on the Choi side dimension accepted by the solver.
MAX_CHOI_SIDE = 144
#: Hard cap on ``dim_in`` times the side: the Newton solve's Woodbury factor
#: has ``(dim_in * side)**2`` complex entries (635 MB peak for 24 x 6).
MAX_DIM_IN_TIMES_SIDE = 3456


@dataclass(frozen=True)
class DiamondNormResult:
    """Certified diamond-norm value.

    ``primal_bound <= value <= dual_bound`` always holds, with both bounds
    produced by exactly feasible points of the underlying semidefinite
    program; ``gap = dual_bound - primal_bound``.
    """

    value: float
    primal_bound: float
    dual_bound: float
    gap: float
    iterations: int


def result_to_json(result: DiamondNormResult) -> dict:
    return asdict(result)


# ==================================================================
# interior-point machinery
# ==================================================================

def _cholesky_inverse(m: np.ndarray):
    """``(L, L⁻¹)`` with ``m = L L†``; raises ``LinAlgError`` unless m > 0.

    Calls LAPACK directly: at the sides of the verify checks the argument
    handling of the generic wrappers costs more than the factorization."""
    chol, info = zpotrf(m, lower=True)
    if info == 0:
        chol_inv, info = ztrtri(chol, lower=True)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"Cholesky factorization or inversion failed (info {info})")
    return chol, chol_inv


def _nt_scaling(chol: np.ndarray, chol_inv: np.ndarray, z: np.ndarray):
    """Nesterov-Todd scaling of the pair ``(S, Z)`` from the Cholesky factor
    ``S = L L†``: with ``L† Z L = U Λ U†``, ``M = L⁻† U Λ^{1/4}`` maps both
    to the same diagonal point, ``M† S M = M⁻¹ Z M⁻† = diag(v)``, ``v =
    λ^{1/2}``.  Returns ``(W⁻¹, M, M⁻¹, v)``, where ``W⁻¹ = M M† = L⁻† (L† Z
    L)^{1/2} L⁻¹`` solves ``W Z W = S`` and ``M⁻¹ = Λ^{-1/4} U† L†``.  The
    Mehrotra predictor-corrector's second-order term is read in this scaled
    frame: ``c = M [(D_x D_z + D_z D_x)_ij / (v_i + v_j)] M†`` with ``D_x = M†
    dS M`` and ``D_z = M⁻¹ dZ M⁻†`` (:func:`_second_order`)."""
    wg, ug = np.linalg.eigh(hermitize(chol.conj().T @ z @ chol))
    quarter = np.maximum(wg, 1e-300) ** 0.25
    half = chol_inv.conj().T @ (ug * quarter)
    half_inv = (chol @ (ug / quarter)).conj().T
    return hermitize(half @ half.conj().T), half, half_inv, quarter * quarter


def _max_step(chol_inv: np.ndarray, d: np.ndarray) -> float:
    """Largest alpha with ``L L† + alpha*d`` positive definite (inf if
    unbounded), given ``L⁻¹``: ``-1 / lambda_min(L⁻¹ d L⁻†)``.  Both may be
    stacks, which share one ``eigvalsh`` call and one bound."""
    lam = float(np.linalg.eigvalsh(
        hermitize(chol_inv @ d @ chol_inv.conj().swapaxes(-1, -2))).min())
    if lam >= -1e-14:
        return np.inf
    return -1.0 / lam


def _second_order(m: np.ndarray, m_inv: np.ndarray, v: np.ndarray,
                  ds: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """Mehrotra's second-order correction ``M X M†`` of one cone, from the
    predictor's directions ``ds``, ``dz`` and the scaling ``(M, M⁻¹, v)`` of
    :func:`_nt_scaling`: with ``D_x = M† ds M`` and ``D_z = M⁻¹ dz M⁻†``, ``X``
    solves ``diag(v) X + X diag(v) = D_x D_z + D_z D_x``, an entrywise
    divide by ``v_i + v_j``."""
    prod = (m.conj().T @ ds @ m) @ (m_inv @ dz @ m_inv.conj().T)
    return hermitize(m @ ((prod + prod.conj().T) / (v[:, None] + v))
                     @ m.conj().T)


def _lifted(c: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """``(Ψ ⊗ I) C (Ψ ⊗ I)†`` for each ``dim_in``-square ``Ψ`` of a stack,
    by multiplying the input indices of ``C`` in place."""
    n, dim_in, stack = len(c), psi.shape[-1], psi.shape[:-2]
    left = (psi @ c.reshape(dim_in, -1)).reshape(*stack, n, dim_in, -1)
    return (psi.conj()[..., None, :, :] @ left).reshape(*stack, n, n)


def _certificates(c: np.ndarray, ty: np.ndarray, z3_chol: np.ndarray):
    """Bounds certified by the current iterate, given ``Tr_out Y`` and the
    Cholesky factor ``Z3 = L L†`` of the dual's input block.

    Upper: ``lambda_max(Tr_out Y)``, valid once ``Y ∓ C`` have factorized.
    Lower: ``||(Ψ ⊗ I) C (Ψ ⊗ I)†||_1 / ||Ψ||_F²``, the value of the unit
    pure input ``Ψ / ||Ψ||_F`` for any nonzero ``Ψ``; ``Ψ = L†`` gives
    ``||(sqrt(rho) ⊗ I) C (sqrt(rho) ⊗ I)||_1`` at ``rho = Z3 / tr Z3``.
    """
    psi = z3_chol.conj().T
    lower = trace_norm(_lifted(c, psi)) / np.vdot(psi, psi).real
    return lower, float(np.linalg.eigvalsh(ty).max())


def _newton_solver(wi1: np.ndarray, wi2: np.ndarray, m3: np.ndarray,
                   dim_in: int, dim_out: int):
    """Factorize the Newton system of one iteration; return its solver.

    With ``P = Tr_out``, ``W3 = M M†`` (``M = m3``) and
    ``G = P*(W3²) = W3² ⊗ I``, the system is

        L(dY) - dt * G = R_y,    -<G, dY> + dt * tr(W3²) = r_t,
        L(X) = W1 X W1 + W2 X W2 + P*(W3 P(X) W3).

    In the generalized eigenbasis ``V† (W1 + W2) V = I``, ``V† W2 V = diag(λ)``
    the two Kronecker terms ``L0`` are an entrywise divide by
    ``(1-λp)(1-λq) + λp λq``.  The partial-trace term is ``U U*`` with
    ``U(A) = P*(M A M†)``, and is added back by the Woodbury identity with
    the Hermitian capacitance ``I + H``, ``H = U* L0⁻¹ U`` (``dim_in**2``
    square, Cholesky-factorized); the ``t`` row is a scalar Schur step with
    ``G = U(M†M)``.  The returned ``solve(r_y, r_t)`` gives ``(dY, dt)``.

    :raises numpy.linalg.LinAlgError: if a factorization fails.
    """
    n = dim_in * dim_out
    lam, v = scipy.linalg.eigh(wi2, wi1 + wi2, check_finite=False)
    root = np.sqrt(np.outer(1.0 - lam, 1.0 - lam)
                   + np.outer(lam, lam)).reshape(-1)
    # row (k, l) of f is V† U(E_kl) V = Vm_k† Vm_l divided by root, where
    # Vm_k is row block k of (M† ⊗ I) V; then H = conj(f) @ f.T
    vm = (m3.conj().T @ v.reshape(dim_in, dim_out * n)).reshape(
        dim_in, dim_out, n)
    f = (vm.conj().transpose(0, 2, 1)[:, None] @ vm[None, :]).reshape(
        dim_in * dim_in, n * n) / root
    cap = scipy.linalg.cho_factor(np.eye(dim_in * dim_in) + f.conj() @ f.T,
                                  check_finite=False)

    def l_inv(b):
        g = (v.conj().T @ b @ v).reshape(-1) / root
        g = g - scipy.linalg.cho_solve(cap, f.conj() @ g,
                                       check_finite=False) @ f
        return v @ (g / root).reshape(n, n) @ v.conj().T

    # with A = M†M, by push-through L⁻¹ G = L0⁻¹ U (I + H)⁻¹ A and the
    # Schur complement tr(W3²) - <G, L⁻¹ G> is <A, (I + H)⁻¹ A>
    a = (m3.conj().T @ m3).reshape(-1)
    c3 = scipy.linalg.cho_solve(cap, a, check_finite=False)
    l_g = v @ ((c3 @ f) / root).reshape(n, n) @ v.conj().T
    schur = np.vdot(a, c3).real

    def solve(r_y, r_t):
        l_y = l_inv(r_y)
        dt = (r_t + np.vdot(l_g, r_y).real) / schur
        return hermitize(l_y + dt * l_g), dt

    return solve


def _solve_sdp(c: np.ndarray, dim_in: int, dim_out: int, tol: float,
               max_iterations: int):
    """Mehrotra predictor-corrector solve of the reduced program (see the
    module docstring for the correction ``c``); returns
    ``(lower, upper, iterations, reason)`` with certified bounds and
    ``reason`` one of ``converged``, ``max_iterations``, ``step_collapse``
    (the complementarity measure or the step length fell to zero) or
    ``linalg_error`` (a factorization failed).  Each iteration factorizes
    every slack ``s_k`` and dual ``z_k`` once, then reads the certificates
    and the Newton step from those factors."""
    n = dim_in * dim_out
    n_total = 2 * n + dim_in
    eye_in = np.eye(dim_in, dtype=complex)
    eye_out = np.eye(dim_out, dtype=complex)

    def tr_out(x):
        return partial_trace(x, [dim_in, dim_out], [0])

    # exactly feasible start: scaled identity blocks
    eta = 1.25  # > ||C||_2 = 1 after normalization
    y = eta * np.eye(n, dtype=complex)
    t = eta * dim_out + 1.0
    z = [np.eye(n, dtype=complex) / (2.0 * dim_in),
         np.eye(n, dtype=complex) / (2.0 * dim_in), eye_in / dim_in]

    best_lower, best_upper = 0.0, np.inf
    reason = "max_iterations"

    # C and every iterate stay exactly Hermitian without symmetrizing: sums,
    # differences, real scalings and partial traces of exactly Hermitian
    # matrices round the (i, j) and (j, i) entries alike.  Only results of
    # matrix products and eigen-reconstructions are passed through hermitize.
    for iterations in range(max_iterations + 1):
        ty = tr_out(y)
        s = [y - c, y + c, t * eye_in - ty]
        try:
            chols, chol_invs = zip(*map(_cholesky_inverse, s))
            z_chols, z_chol_invs = zip(*map(_cholesky_inverse, z))

            lower, upper = _certificates(c, ty, z_chols[2])
            best_lower = max(best_lower, lower)
            best_upper = min(best_upper, upper)
            if best_upper - best_lower <= tol:
                return best_lower, best_upper, iterations, "converged"
            if iterations == max_iterations:
                break

            mu = sum(np.vdot(sk, zk).real for sk, zk in zip(s, z)) / n_total
            if mu <= 0:
                reason = "step_collapse"
                break

            w_invs, ms, m_invs, vs = zip(*map(_nt_scaling, chols, chol_invs,
                                              z))
            s_invs = [hermitize(l_inv.conj().T @ l_inv) for l_inv in chol_invs]
            solve = _newton_solver(w_invs[0], w_invs[1], ms[2], dim_in, dim_out)
            # cones 1 and 2 share their side: one stacked step-length search
            pair_invs = np.stack(chol_invs[:2])
            z_pair_invs = np.stack(z_chol_invs[:2])

            def step(targets, tau):
                # Newton step with dZ_k + W_k⁻¹ dS_k W_k⁻¹ = r_k - Z_k for
                # the per-cone targets r_k, cut back to a fraction tau of the
                # distance to each cone's boundary; the dual stays feasible
                # through R_y = r1 + r2 - r3 ⊗ I (the identity factor
                # broadcast) and r_t = tr r3 - 1
                r_y = ((targets[0] + targets[1]).reshape(dim_in, dim_out,
                                                         dim_in, dim_out)
                       - targets[2][:, None, :, None] * eye_out[:, None, :])
                dy, dt = solve(r_y.reshape(n, n),
                               float(np.trace(targets[2]).real) - 1.0)
                ds = [dy, dy, dt * eye_in - tr_out(dy)]
                dz = [hermitize(r - zk - w_inv @ d @ w_inv)
                      for r, zk, w_inv, d in zip(targets, z, w_invs, ds)]
                alpha_p = min(1.0, tau * min(
                    _max_step(pair_invs, dy), _max_step(chol_invs[2], ds[2])))
                alpha_d = min(1.0, tau * min(
                    _max_step(z_pair_invs, np.stack(dz[:2])),
                    _max_step(z_chol_invs[2], dz[2])))
                return dy, dt, ds, dz, alpha_p, alpha_d

            # affine-scaling predictor, toward S Z = 0, sets the centering
            # parameter and the second-order term
            _, _, ds, dz, alpha_p, alpha_d = step(
                [np.zeros_like(zk) for zk in z], 0.99)
            mu_affine = sum(np.vdot(sk + alpha_p * d, zk + alpha_d * e).real
                            for sk, d, zk, e in zip(s, ds, z, dz)) / n_total
            sigma = min(max((max(mu_affine, 0.0) / mu) ** 3, 1e-6), 1.0 - 1e-6)

            # Mehrotra corrector toward sigma * mu, less the predictor's
            # second-order term: target_k = sigma mu S_k⁻¹ - c_k
            targets = [sigma * mu * s_inv - _second_order(m, m_inv, v, d, e)
                       for s_inv, m, m_inv, v, d, e
                       in zip(s_invs, ms, m_invs, vs, ds, dz)]
            dy, dt, _, dz, alpha_p, alpha_d = step(
                targets, 0.9 if mu > 1e-4 else 0.98)
            if min(alpha_p, alpha_d) < 1e-12:
                reason = "step_collapse"
                break

            y = y + alpha_p * dy
            t = t + alpha_p * dt
            z = [zk + alpha_d * d for zk, d in zip(z, dz)]
        except np.linalg.LinAlgError:
            reason = "linalg_error"
            break

    # a stop inside the step from iterate k counts as iteration k + 1
    return best_lower, best_upper, min(iterations + 1, max_iterations), reason


def diamond_norm(delta: ChoiMatrix, tol: float = 1e-6,
                 max_iterations: int = 200) -> DiamondNormResult:
    """Diamond norm of the Hermiticity-preserving map with Choi state ``delta``.

    :param delta: Choi state (exactly Hermitian, as every ``ChoiMatrix``
        stores it; typically a difference of channel Choi states).
    :param tol: requested absolute certification gap on the returned value.
    :param max_iterations: Newton steps allowed; with 0 the result is the
        bracket of the starting point.
    :return: result with ``gap <= tol`` on success.
    :raises ValueError: if ``tol`` is not positive or ``max_iterations`` is
        not a nonnegative integer.
    :raises DimensionTooLarge: if the Choi side exceeds ``MAX_CHOI_SIDE`` or
        ``dim_in`` times the side exceeds ``MAX_DIM_IN_TIMES_SIDE``.
    :raises Unconverged: if the certified gap is still above ``tol`` when
        the solver stops; the message names the reason it stopped and the
        partial result rides on the exception.
    """
    n = delta.dim_in * delta.dim_out
    if n > MAX_CHOI_SIDE:
        raise DimensionTooLarge(
            f"Choi side {n} exceeds the solver limit {MAX_CHOI_SIDE}")
    if delta.dim_in * n > MAX_DIM_IN_TIMES_SIDE:
        raise DimensionTooLarge(
            f"input dimension {delta.dim_in} times Choi side {n} exceeds "
            f"the solver limit {MAX_DIM_IN_TIMES_SIDE}")
    if not tol > 0:  # also rejects NaN
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    if not _is_integer(max_iterations) or max_iterations < 0:
        raise ValueError(f"max_iterations must be an integer >= 0, "
                         f"got {max_iterations!r}")
    c = delta.matrix * delta.dim_in

    if n == 1:
        v = abs(float(c[0, 0].real))
        return DiamondNormResult(v, v, v, 0.0, 0)
    singular = np.linalg.svd(c, compute_uv=False)
    scale = float(singular.max())
    if scale == 0.0:
        return DiamondNormResult(0.0, 0.0, 0.0, 0.0, 0)

    lower, upper, iterations, reason = _solve_sdp(
        c / scale, delta.dim_in, delta.dim_out, tol / scale, max_iterations)
    lower *= scale
    # ||Delta||_diamond <= ||C||_1 always holds; one SVD gives it and the scale
    upper = min(upper * scale, float(np.sum(singular)))
    lower = min(lower, upper)  # roundoff guard; bounds stay ordered
    gap = max(upper - lower, 0.0)
    result = DiamondNormResult(0.5 * (lower + upper), lower, upper,
                               gap, iterations)
    if gap > tol:
        raise Unconverged(
            f"certified gap {gap:.3e} exceeds tolerance {tol:.1e} "
            f"after {iterations} iterations (stopped: {reason})", result)
    return result


# ==================================================================
# hill-climbing lower bound
# ==================================================================

def _hillclimb(delta: ChoiMatrix, restarts: int, seed: int):
    """:func:`diamond_lower_hillclimb`'s value and the best pure input ``psi``
    it found on (reference ⊗ input), reference dimension ``dim_in``."""
    if not (_is_integer(restarts) and restarts >= 1):
        raise ValueError(f"restarts must be an integer >= 1, got {restarts!r}")
    din, dout = delta.dim_in, delta.dim_out
    c = delta.matrix * din
    c_by_out = c.reshape(din, dout, din, dout).transpose(3, 1, 2, 0).reshape(
        dout * dout, din * din)  # [(p, o), (j, i)]

    psi = np.concatenate([col_vec(np.eye(din, dtype=complex))[None]
                          / np.sqrt(din),
                          random_pure_states(din * din, restarts, rng(seed))])
    value = np.full(len(psi), -np.inf)
    live = np.arange(len(psi))
    for _ in range(200):
        vals, vecs = np.linalg.eigh(
            hermitize(_lifted(c, psi[live].reshape(-1, din, din))))
        new = np.sum(np.abs(vals), axis=1)
        done = new - value[live] <= 1e-13 * np.maximum(1.0, np.abs(new))
        value[live] = np.where(done, np.maximum(value[live], new), new)
        live, vals, vecs = live[~done], vals[~done], vecs[~done]
        if not live.size:
            break
        p = ((vecs * np.where(vals >= 0.0, 1.0, -1.0)[:, None, :])
             @ vecs.conj().swapaxes(1, 2))
        # [(s, r), (p, o)] @ [(p, o), (j, i)], then reorder to [(s, j), (r, i)]
        g = (p.reshape(-1, din, dout, din, dout).transpose(0, 1, 3, 2, 4)
             .reshape(-1, din * din, dout * dout) @ c_by_out)
        g = g.reshape(-1, din, din, din, din).transpose(0, 1, 3, 2, 4).reshape(
            -1, din * din, din * din)
        psi[live] = np.linalg.eigh(hermitize(g))[1][:, :, -1]
    best = int(np.argmax(value))
    return max(float(value[best]), 0.0), psi[best]


def diamond_lower_hillclimb(delta: ChoiMatrix, restarts: int = 20,
                            seed: int = 0) -> float:
    """Lower bound on ``||Delta||_diamond`` by see-saw over pure inputs on
    (reference ⊗ input), reference dimension equal to the input dimension.

    A see-saw from the maximally entangled state and ``restarts`` random
    states, climbing together: with ``Psi`` a start as reference × input and
    ``C = dim_in * J``, a round evaluates ``omega = (Psi ⊗ I) C (Psi ⊗ I)†``
    and moves to the top eigenvector of ``g[(s,j),(r,i)] = sum_(o,p)
    P[(s,p),(r,o)] C[(i,o),(j,p)]``, ``P`` the sign projector of ``omega``.
    A start leaves the batch once its value stops rising; stacked ``@`` and
    ``eigh`` act slice by slice, so no start's path depends on the others.

    The value is always a true lower bound; it is monotone nondecreasing in
    ``restarts`` for a fixed seed and deterministic per seed.
    """
    return _hillclimb(delta, restarts, seed)[0]
