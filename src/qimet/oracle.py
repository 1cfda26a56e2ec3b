"""Certified diamond-norm computation for Hermiticity-preserving maps.

The diamond norm of a Hermiticity-preserving map with (unnormalized) Choi
operator ``C = dim_in * J`` is the optimum of the standard semidefinite
program

    minimize   (1/2)||Tr_out Y0||_inf + (1/2)||Tr_out Y1||_inf
    subject to [[Y0, -C], [-C†, Y1]] >= 0.

For Hermitian ``C`` (the only case this package needs: differences of Choi
states) the program is invariant under swapping the two blocks, so an optimal
point has ``Y0 = Y1 = Y`` and the block constraint splits under the rotation
``(u, v) -> ((u+v)/sqrt(2), (u-v)/sqrt(2))`` into ``Y >= C`` and ``Y >= -C``.
This module therefore solves the reduced program

    minimize   t
    subject to Y - C >= 0,   Y + C >= 0,   t*I - Tr_out(Y) >= 0

with a primal-dual path-following interior-point method using the
Nesterov-Todd scaling, specialized to the three diagonal blocks above.
The Newton system is solved on ``n x n`` matrices (``n = dim_in * dim_out``):
its operator ``X -> W1 X W1 + W2 X W2 + P*(W3 P(X) W3)`` with
``P = Tr_out`` is an entrywise divide in the generalized eigenbasis of
``(W2, W1 + W2)`` plus a rank-``dim_in**2`` correction added back by a
Woodbury step, and the ``t`` row is eliminated by a scalar Schur step, at
``O(dim_in**2 * n**3)`` per iteration.

Certification does not trust convergence.  At every iterate two *exactly
feasible* bounds are extracted:

* upper bound — the iterate ``Y`` satisfies ``Y >= ±C`` by construction
  (line searches keep the slacks positive definite), and for any such ``Y``
  and any primal-feasible pair, ``<C, X> <= lambda_max(Tr_out Y)``;
* lower bound — for *any* density ``rho`` on the input factor,
  ``max { <C, X> : -rho ⊗ I <= X <= rho ⊗ I } = || (sqrt(rho) ⊗ I) C
  (sqrt(rho) ⊗ I) ||_1``, which is a valid lower bound on the diamond norm;
  ``rho`` is taken as the input-factor block of the dual iterate, repaired
  to an exact density.

The reported value is the midpoint of the best bounds; the call succeeds
when their gap is at most the requested tolerance.

A see-saw hill climb over pure reference-assisted inputs provides an
independent lower bound used as a solver sanity check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .channels import ChoiMatrix
from .errors import DimensionTooLarge, Unconverged
from .linalg import (col_vec, hermitize, kron, nearest_density,
                     partial_trace, psd_sqrt, rng, trace_norm, uncol)

__all__ = [
    "DiamondNormResult",
    "diamond_norm",
    "diamond_lower_hillclimb",
    "diamond_lower_hillclimb_state",
    "result_to_json",
]

#: Hard cap on the Choi side dimension accepted by the solver.
MAX_CHOI_SIDE = 144


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
    return {
        "value": result.value,
        "primal_bound": result.primal_bound,
        "dual_bound": result.dual_bound,
        "gap": result.gap,
        "iterations": result.iterations,
    }


# ==================================================================
# interior-point machinery
# ==================================================================

def _nt_scaling(s: np.ndarray, z: np.ndarray):
    """Inverse Nesterov-Todd scaling point: W^{-1} with W Z W = S."""
    ws, us = np.linalg.eigh(hermitize(s))
    ws = np.maximum(ws, 1e-300)
    root = (us * np.sqrt(ws)) @ us.conj().T
    inv_root = (us * (1.0 / np.sqrt(ws))) @ us.conj().T
    g = hermitize(root @ z @ root)
    wg, ug = np.linalg.eigh(g)
    wg = np.maximum(wg, 1e-300)
    w_inv = inv_root @ (ug * np.sqrt(wg)) @ ug.conj().T @ inv_root
    return hermitize(w_inv)


def _max_step(s: np.ndarray, ds: np.ndarray) -> float:
    """Largest alpha with S + alpha*dS positive definite (inf if unbounded)."""
    chol = np.linalg.cholesky(hermitize(s))
    t = scipy.linalg.solve_triangular(chol, ds, lower=True)
    t = scipy.linalg.solve_triangular(chol, t.conj().T, lower=True)
    lam = float(np.linalg.eigvalsh(hermitize(t)).min())
    if lam >= -1e-14:
        return np.inf
    return -1.0 / lam


def _certificates(c: np.ndarray, y: np.ndarray, z3: np.ndarray,
                  dim_in: int, dim_out: int):
    """Exactly feasible bounds from the current iterate.

    Upper: ``lambda_max(Tr_out Y)`` is valid whenever ``Y >= ±C``, which the
    line search maintains.  Lower: ``||(sqrt(rho) ⊗ I) C (sqrt(rho) ⊗ I)||_1``
    is valid for any density ``rho``.
    """
    upper = float(np.linalg.eigvalsh(
        hermitize(partial_trace(y, [dim_in, dim_out], [0]))).max())
    rho = nearest_density(hermitize(z3))
    g = kron(psd_sqrt(rho), np.eye(dim_out))
    lower = trace_norm(g @ c @ g)
    return lower, upper


def _newton_solver(wi1: np.ndarray, wi2: np.ndarray, wi3: np.ndarray,
                   dim_in: int, dim_out: int):
    """Factorize the Newton system of one iteration; return its solver.

    With ``P = Tr_out`` and ``G = P*(W3²) = W3² ⊗ I``, the system is

        L(dY) - dt * G = R_y,    -<G, dY> + dt * tr(W3²) = r_t,
        L(X) = W1 X W1 + W2 X W2 + P*(W3 P(X) W3).

    In the generalized eigenbasis ``V† (W1 + W2) V = I``, ``V† W2 V = diag(λ)``
    the two Kronecker terms ``L0`` are an entrywise divide by
    ``(1-λp)(1-λq) + λp λq``.  The partial-trace term is ``U U*`` with
    ``U(A) = P*(h A h)``, ``h = W3^{1/2}``, and is added back by the Woodbury
    identity with the Hermitian capacitance ``I + H``, ``H = U* L0⁻¹ U``
    (``dim_in**2`` square, Cholesky-factorized); the ``t`` row is a scalar
    Schur step.  The returned ``solve(r_y, r_t)`` gives ``(dY, dt)``.

    :raises numpy.linalg.LinAlgError: if a factorization fails.
    """
    n = dim_in * dim_out
    lam, v = scipy.linalg.eigh(wi2, wi1 + wi2, check_finite=False)
    root = np.sqrt(np.outer(1.0 - lam, 1.0 - lam)
                   + np.outer(lam, lam)).reshape(-1)
    w, u = np.linalg.eigh(wi3)
    h = (u * np.sqrt(np.maximum(w, 0.0))) @ u.conj().T
    # row (k, l) of f is V† U(E_kl) V = Vh_k† Vh_l divided by root, where
    # Vh_k is row block k of (h ⊗ I) V; then H = conj(f) @ f.T
    vh = (h @ v.reshape(dim_in, dim_out * n)).reshape(dim_in, dim_out, n)
    f = (vh.conj().transpose(0, 2, 1)[:, None] @ vh[None, :]).reshape(
        dim_in * dim_in, n * n) / root
    cap = scipy.linalg.cho_factor(np.eye(dim_in * dim_in) + f.conj() @ f.T,
                                  check_finite=False)

    def l_inv(b):
        g = (v.conj().T @ b @ v).reshape(-1) / root
        g = g - scipy.linalg.cho_solve(cap, f.conj() @ g,
                                       check_finite=False) @ f
        return v @ (g / root).reshape(n, n) @ v.conj().T

    # G = U(W3), so by push-through L⁻¹ G = L0⁻¹ U (I + H)⁻¹ W3 and the
    # Schur complement tr(W3²) - <G, L⁻¹ G> is <W3, (I + H)⁻¹ W3>
    c3 = scipy.linalg.cho_solve(cap, wi3.reshape(-1), check_finite=False)
    l_g = v @ ((c3 @ f) / root).reshape(n, n) @ v.conj().T
    schur = np.vdot(wi3, c3).real

    def solve(r_y, r_t):
        l_y = l_inv(r_y)
        dt = (r_t + np.vdot(l_g, r_y).real) / schur
        return hermitize(l_y + dt * l_g), dt

    return solve


def _solve_sdp(c: np.ndarray, dim_in: int, dim_out: int, tol: float,
               max_iterations: int):
    """Path-following solve of the reduced program; returns
    ``(lower, upper, iterations, reason)`` with certified bounds and
    ``reason`` one of ``converged``, ``max_iterations``, ``step_collapse``
    (the complementarity measure or the step length fell to zero) or
    ``linalg_error`` (a factorization failed)."""
    n = dim_in * dim_out
    n_total = 2 * n + dim_in
    eye_in = np.eye(dim_in, dtype=complex)
    eye_out = np.eye(dim_out, dtype=complex)

    # exactly feasible start: scaled identity blocks
    eta = 1.25  # > ||C||_2 = 1 after normalization
    y = eta * np.eye(n, dtype=complex)
    t = eta * dim_out + 1.0
    z1 = np.eye(n, dtype=complex) / (2.0 * dim_in)
    z2 = z1.copy()
    z3 = eye_in / dim_in

    best_lower, best_upper = 0.0, np.inf
    iterations = 0
    reason = "max_iterations"

    def record(lo, up):
        nonlocal best_lower, best_upper
        best_lower = max(best_lower, lo)
        best_upper = min(best_upper, up)

    def slack_steps(dy, dt):
        return dy, dy, dt * eye_in - partial_trace(dy, [dim_in, dim_out], [0])

    for iterations in range(1, max_iterations + 1):
        s1 = hermitize(y - c)
        s2 = hermitize(y + c)
        s3 = hermitize(t * eye_in - partial_trace(y, [dim_in, dim_out], [0]))

        record(*_certificates(c, y, z3, dim_in, dim_out))
        if best_upper - best_lower <= tol:
            return best_lower, best_upper, iterations - 1, "converged"

        try:
            mu = (np.vdot(s1, z1).real + np.vdot(s2, z2).real
                  + np.vdot(s3, z3).real) / n_total
            if mu <= 0:
                reason = "step_collapse"
                break

            wi1, wi2, wi3 = (_nt_scaling(s1, z1), _nt_scaling(s2, z2),
                             _nt_scaling(s3, z3))
            solve = _newton_solver(wi1, wi2, wi3, dim_in, dim_out)

            ds_a = slack_steps(*solve(np.zeros((n, n), dtype=complex), -1.0))
            dz_a = tuple(hermitize(-z - wi @ ds @ wi) for z, wi, ds in
                         ((z1, wi1, ds_a[0]), (z2, wi2, ds_a[1]),
                          (z3, wi3, ds_a[2])))
            alpha_p = min(1.0, 0.99 * min(_max_step(s, ds)
                                          for s, ds in zip((s1, s2, s3), ds_a)))
            alpha_d = min(1.0, 0.99 * min(_max_step(z, dz)
                                          for z, dz in zip((z1, z2, z3), dz_a)))
            mu_affine = sum(np.vdot(s + alpha_p * ds, z + alpha_d * dz).real
                            for s, ds, z, dz in
                            ((s1, ds_a[0], z1, dz_a[0]),
                             (s2, ds_a[1], z2, dz_a[1]),
                             (s3, ds_a[2], z3, dz_a[2]))) / n_total
            sigma = min(max((max(mu_affine, 0.0) / mu) ** 3, 1e-6), 1.0 - 1e-6)

            # centering-corrector step toward sigma * mu
            s_invs = []
            for s in (s1, s2, s3):
                ch = np.linalg.cholesky(s)
                inv = scipy.linalg.solve_triangular(
                    ch, np.eye(s.shape[0], dtype=complex), lower=True)
                s_invs.append(hermitize(inv.conj().T @ inv))
            dy, dt = solve(
                sigma * mu * (s_invs[0] + s_invs[1]
                              - kron(s_invs[2], eye_out)),
                sigma * mu * float(np.trace(s_invs[2]).real) - 1.0)
            ds = slack_steps(dy, dt)
            dz = tuple(hermitize(sigma * mu * si - z - wi @ d @ wi)
                       for si, z, wi, d in
                       ((s_invs[0], z1, wi1, ds[0]),
                        (s_invs[1], z2, wi2, ds[1]),
                        (s_invs[2], z3, wi3, ds[2])))

            tau = 0.9 if mu > 1e-4 else 0.98
            alpha_p = min(1.0, tau * min(_max_step(s, d)
                                         for s, d in zip((s1, s2, s3), ds)))
            alpha_d = min(1.0, tau * min(_max_step(z, d)
                                         for z, d in zip((z1, z2, z3), dz)))
            if min(alpha_p, alpha_d) < 1e-12:
                reason = "step_collapse"
                break

            y = hermitize(y + alpha_p * dy)
            t = t + alpha_p * dt
            z1 = hermitize(z1 + alpha_d * dz[0])
            z2 = hermitize(z2 + alpha_d * dz[1])
            z3 = hermitize(z3 + alpha_d * dz[2])
        except np.linalg.LinAlgError:
            reason = "linalg_error"
            break

    # final certificates from the last completed state
    record(*_certificates(c, y, z3, dim_in, dim_out))
    return best_lower, best_upper, iterations, reason


def diamond_norm(delta: ChoiMatrix, tol: float = 1e-6,
                 max_iterations: int = 200) -> DiamondNormResult:
    """Diamond norm of the Hermiticity-preserving map with Choi state ``delta``.

    :param delta: Choi state (Hermitian; typically a difference of channel
        Choi states).
    :param tol: requested absolute certification gap on the returned value.
    :return: result with ``gap <= tol`` on success.
    :raises DimensionTooLarge: if the Choi side exceeds ``MAX_CHOI_SIDE``.
    :raises Unconverged: if the certified gap is still above ``tol`` when
        the solver stops; the message names the reason it stopped and the
        partial result rides on the exception.
    """
    n = delta.dim_in * delta.dim_out
    if n > MAX_CHOI_SIDE:
        raise DimensionTooLarge(
            f"Choi side {n} exceeds the solver limit {MAX_CHOI_SIDE}")
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    # ChoiMatrix guarantees Hermiticity; symmetrize residual roundoff
    c = hermitize(np.asarray(delta.matrix, dtype=complex)) * delta.dim_in

    scale = float(np.linalg.norm(c, 2)) if n > 1 else abs(float(c[0, 0].real))
    if scale == 0.0:
        return DiamondNormResult(0.0, 0.0, 0.0, 0.0, 0)
    if n == 1:
        v = abs(float(c[0, 0].real))
        return DiamondNormResult(v, v, v, 0.0, 0)

    lower, upper, iterations, reason = _solve_sdp(
        c / scale, delta.dim_in, delta.dim_out, tol / scale, max_iterations)
    lower *= scale
    upper = min(upper * scale, _trivial_upper(c))
    lower = min(lower, upper)  # roundoff guard; bounds stay ordered
    gap = max(upper - lower, 0.0)
    result = DiamondNormResult(0.5 * (lower + upper), lower, upper,
                               gap, iterations)
    if gap > tol:
        raise Unconverged(
            f"certified gap {gap:.3e} exceeds tolerance {tol:.1e} "
            f"after {iterations} iterations (stopped: {reason})", result)
    return result


def _trivial_upper(c: np.ndarray) -> float:
    """Cheap always-valid upper bound: ||Delta||_diamond <= ||C||_1."""
    return trace_norm(c)


# ==================================================================
# hill-climbing lower bound
# ==================================================================

def _signed_kraus(delta: ChoiMatrix):
    """Decompose a Hermitian Choi state as a signed sum of Kraus actions:
    ``Delta(rho) = sum_k s_k L_k rho L_k†`` with ``s_k = ±1``."""
    vals, vecs = np.linalg.eigh(hermitize(np.asarray(delta.matrix)))
    top = float(np.max(np.abs(vals))) if vals.size else 0.0
    ops, signs = [], []
    for w, v in zip(vals, vecs.T):
        if abs(w) > 1e-14 * max(top, 1.0):
            ops.append(np.sqrt(delta.dim_in * abs(w))
                       * uncol(v, delta.dim_out, delta.dim_in))
            signs.append(1.0 if w >= 0 else -1.0)
    return ops, signs


def _hillclimb_from(psi, lifted, signs, dim_in, dim_out, max_rounds=200):
    """Locally maximize ``||(I ⊗ Delta)(psi psi†)||_1`` by alternating the
    optimal distinguishing observable and the optimal input state."""
    value = -np.inf
    for _ in range(max_rounds):
        cols = [op @ psi for op in lifted]
        omega = np.zeros((dim_in * dim_out, dim_in * dim_out), dtype=complex)
        for s, col in zip(signs, cols):
            omega += s * np.outer(col, col.conj())
        vals, vecs = np.linalg.eigh(hermitize(omega))
        new_value = float(np.sum(np.abs(vals)))
        if new_value - value <= 1e-13 * max(1.0, abs(new_value)):
            value = max(value, new_value)
            break
        value = new_value
        p = (vecs * np.where(vals >= 0.0, 1.0, -1.0)) @ vecs.conj().T
        g = np.zeros((dim_in * dim_in, dim_in * dim_in), dtype=complex)
        for s, op in zip(signs, lifted):
            g += s * (op.conj().T @ p @ op)
        gvals, gvecs = np.linalg.eigh(hermitize(g))
        psi = gvecs[:, -1]
    return value, psi


def diamond_lower_hillclimb_state(delta: ChoiMatrix, restarts: int = 20,
                                  seed: int = 0):
    """Hill-climbed lower bound on the diamond norm, returning
    ``(value, psi)`` with ``psi`` the best pure input found on
    (reference ⊗ input), reference dimension equal to the input dimension.

    The value is always a true lower bound; it is monotone nondecreasing in
    ``restarts`` for a fixed seed and deterministic per seed.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    din, dout = delta.dim_in, delta.dim_out
    ops, signs = _signed_kraus(delta)
    if not ops:
        return 0.0, col_vec(np.eye(din, dtype=complex)) / np.sqrt(din)
    eye_ref = np.eye(din, dtype=complex)
    lifted = [kron(eye_ref, op) for op in ops]

    gen = rng(seed)
    starts = [col_vec(eye_ref) / np.sqrt(din)]
    for _ in range(restarts):
        v = gen.normal(size=din * din) + 1j * gen.normal(size=din * din)
        starts.append(v / np.linalg.norm(v))

    best_value, best_psi = -np.inf, starts[0]
    for psi in starts:
        value, opt = _hillclimb_from(psi, lifted, signs, din, dout)
        if value > best_value:
            best_value, best_psi = value, opt
    return max(best_value, 0.0), best_psi


def diamond_lower_hillclimb(delta: ChoiMatrix, restarts: int = 20,
                            seed: int = 0) -> float:
    """Lower bound on ``||Delta||_diamond`` by see-saw over pure inputs."""
    value, _ = diamond_lower_hillclimb_state(delta, restarts, seed)
    return value
