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
``(u, v) -> ((u+v)/sqrt(2), (u-v)/sqrt(2))`` into ``Y >= ±C``.  When
``C = ⊕_j C_j`` is block-diagonal over an output register (an instrument's
outcome), pinching ``Y`` onto the blocks keeps ``Y >= ±C`` and ``Tr_out Y``
(Watrous, arXiv:1207.5726).  The blocks are found, not assumed: exactly zero
blocks and outputs are dropped (a zero principal block of ``Y`` leaves
``Tr_out Y`` alone), and the rest of the output register splits into the
connected components of the pattern ``C[(i,o),(j,p)] != 0``; when they are
of one size (they may interleave) each becomes a block.  This module
therefore solves, over a stack of ``B`` blocks of one shape,

    minimize   t
    subject to Y_j - C_j >= 0,  Y_j + C_j >= 0,  t*I - Tr_out(sum_j Y_j) >= 0

with a primal-dual path-following interior-point method; the cones ``Y_j ∓
C_j`` form one ``(2, B, n, n)`` stack.  Each iteration is a Mehrotra
predictor-corrector step (Mehrotra 1992) in the Nesterov-Todd scaled frame
(Todd, Toh and Tütüncü 1998) ``M† S M = M⁻¹ Z M⁻† = V = diag(v)``: a
direction ``D_x = M† dS M`` gives its dual ``D_z`` without further
products, and the step bounds are eigenvalues of ``V^{-1/2} D V^{-1/2}``.
The predictor sets the centering ``sigma = (mu_aff / mu)**3``; the corrector
aims at ``sigma*mu*V⁻¹ - X2``, ``X2`` the second-order term.  The Newton
system is solved on the ``n x n`` blocks (``n = dim_in * dim_out``) by an
entrywise divide in each block's generalized eigenbasis, a Woodbury step
for the partial trace they share and a scalar Schur step for ``t``
(:func:`_newton_solver`), at ``O(dim_in**2 * B * n**3)`` per iteration.
Each factorization is one call of NumPy's batched ``linalg`` per stack.

Certification does not trust convergence.  Each iterate Cholesky-factorizes
its slacks and scales every cone, then reads two *exactly feasible* bounds:

* upper bound — ``lambda_max(Tr_out sum_j Y_j)``, once every ``Y_j ∓ C_j``
  has factorized;
* lower bound — for *any* density ``rho`` on the input factor,
  ``max { <C, X> : -rho ⊗ I <= X <= rho ⊗ I } = sum_j || (sqrt(rho) ⊗ I)
  C_j (sqrt(rho) ⊗ I) ||_1``; at ``rho = Z3 / tr Z3`` for the dual's input
  block ``Z3 = M3 V3 M3†``, where ``Ψ = V3^{1/2} M3†`` is ``sqrt(Z3)`` up to
  a unitary.

The reported value is the midpoint of the best bounds; the call succeeds
when their gap is at most the requested tolerance.

A see-saw hill climb over pure reference-assisted inputs provides an
independent lower bound used as a solver sanity check.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .channels import ChoiMatrix
from .errors import DimensionMismatch, DimensionTooLarge, Unconverged
from .linalg import (_is_integer, col_vec, hermitize, random_pure_states, rng,
                     trace_norm)

__all__ = [
    "DiamondNormResult",
    "diamond_norm",
    "diamond_lower_hillclimb",
    "result_to_json",
]

#: Hard cap on the Choi side of each block accepted by the solver.
MAX_CHOI_SIDE = 144
#: Hard cap on the ``B * (dim_in * side)**2`` entries of the Newton solve's
#: Woodbury factor for ``B`` blocks (671 MB peak for four 12 x 12 blocks).
MAX_WOODBURY_ENTRIES = 3456 ** 2


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

def _adjoint(m: np.ndarray) -> np.ndarray:
    """``m†`` of each matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def _cholesky(m: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor ``L``, ``m = L L†``, of each matrix in a stack."""
    chol = np.linalg.cholesky(m)  # raises LinAlgError unless m > 0
    if not np.isfinite(chol).all():  # LAPACK passes a NaN without an error
        raise np.linalg.LinAlgError("Cholesky factor is not finite")
    return chol


def _cholesky_inverse(m: np.ndarray):
    """``(L, L⁻¹)`` of each matrix in a stack, both exactly lower triangular:
    the LU inverse of the upper triangular ``L†`` never swaps a row."""
    chol = _cholesky(m)
    return chol, _adjoint(np.linalg.inv(_adjoint(chol)))


def _nt_scaling(chol: np.ndarray, z: np.ndarray):
    """Nesterov-Todd scaling of each pair ``(S, Z)`` from the Cholesky factor
    ``S = L L†``: with ``L† Z L = U Λ U†``, ``M = L⁻† U Λ^{1/4}`` (solved with
    ``L†``) maps both to one diagonal point, ``M† S M = M⁻¹ Z M⁻† = diag(v)``,
    ``v = λ^{1/2}``.  Returns ``(W⁻¹, M, v)``, ``W⁻¹ = M M† = L⁻† (L† Z
    L)^{1/2} L⁻¹`` solving ``W Z W = S``; raises ``LinAlgError`` unless Z>0."""
    wg, ug = np.linalg.eigh(_adjoint(chol) @ z @ chol)  # reads one triangle
    if not wg.min() > 0:
        raise np.linalg.LinAlgError("dual iterate is not positive definite")
    quarter = wg ** 0.25
    m = np.linalg.solve(_adjoint(chol), ug * quarter[..., None, :])
    return hermitize(m @ _adjoint(m)), m, quarter * quarter


def _scaled_eigvalsh(v: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Eigenvalues of ``V^{-1/2} D V^{-1/2}``, ``V = diag(v)``, for each matrix
    of a stack: ``V + alpha*D``, and so ``S + alpha*dS`` for ``D = M† dS M``,
    stays positive definite up to ``alpha = -1 / lambda_min``."""
    return np.linalg.eigvalsh(d / np.sqrt(v[..., :, None] * v[..., None, :]))


def _second_order(v: np.ndarray, d_x: np.ndarray,
                  d_z: np.ndarray) -> np.ndarray:
    """Mehrotra's second-order term ``X`` of each cone in the scaled frame,
    from the predictor's scaled directions: ``diag(v) X + X diag(v) = D_x D_z
    + D_z D_x``, an entrywise divide by ``v_i + v_j``."""
    prod = d_x @ d_z
    return (prod + _adjoint(prod)) / (v[..., :, None] + v[..., None, :])


def _lifted(c: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """``(Ψ ⊗ I) C (Ψ ⊗ I)†`` for ``dim_in``-square ``Ψ``, by multiplying the
    input indices of ``C`` in place; ``C`` and ``Ψ`` may each be a stack."""
    n, dim_in = c.shape[-1], psi.shape[-1]
    left = psi @ c.reshape(*c.shape[:-2], dim_in, -1)
    left = left.reshape(*left.shape[:-2], n, dim_in, -1)
    return (psi.conj()[..., None, :, :] @ left).reshape(*left.shape[:-3], n, n)


def _certificates(c: np.ndarray, ty: np.ndarray, m3: np.ndarray,
                  v3: np.ndarray):
    """Bounds certified by the current iterate, given the blocks ``C_j``,
    ``Tr_out sum_j Y_j`` and the input block's scaling ``Z3 = M diag(v) M†``.

    Upper: ``lambda_max(Tr_out sum_j Y_j)``, valid once ``Y_j ∓ C_j`` have
    factorized.  Lower: ``sum_j ||(Ψ ⊗ I) C_j (Ψ ⊗ I)†||_1 / ||Ψ||_F²``, the
    value of the unit pure input ``Ψ / ||Ψ||_F`` for any nonzero ``Ψ``; ``Ψ
    = diag(√v) M†`` (``Ψ†Ψ = Z3``) gives it at ``rho = Z3 / tr Z3``."""
    psi = np.sqrt(v3)[:, None] * _adjoint(m3)
    lower = trace_norm(_lifted(c, psi)) / np.vdot(psi, psi).real
    return lower, float(np.linalg.eigvalsh(ty).max())


def _newton_solver(wi1: np.ndarray, wi2: np.ndarray, m3: np.ndarray,
                   dim_in: int, dim_out: int):
    """Factorize one iteration's Newton system on B blocks; return its solver.

    With ``P = Tr_out``, ``W3 = M M†`` (``M = m3``) and
    ``G = P*(W3²) = W3² ⊗ I``, the system on the blocks ``dY_j`` is

        L(dY)_j - dt * G = R_j,    -sum_j <G, dY_j> + dt * tr(W3²) = r_t,
        L(X)_j = W1_j X_j W1_j + W2_j X_j W2_j + P*(W3 P(sum_k X_k) W3).

    In block ``j``'s generalized eigenbasis ``V† (W1_j + W2_j) V = I``,
    ``V† W2_j V = diag(λ)`` (``W1_j + W2_j = K K†``, ``K⁻¹ W2_j K⁻† = Q
    diag(λ) Q†``, ``V = K⁻† Q``) its two Kronecker terms ``L0`` are an
    entrywise divide by ``(1-λp)(1-λq) + λp λq``.  The partial-trace term is
    ``U U*`` with ``U(A)_j = P*(M A M†)`` in every block, and is added back by
    the Woodbury identity with the Hermitian capacitance ``I + H``, ``H = U*
    L0⁻¹ U`` (``dim_in**2`` square for any ``B``; with ``I + H = R R†``,
    ``(I + H)⁻¹ b = R⁻† (R⁻¹ b)``); the ``t`` row is a scalar Schur step with
    ``G = U(M†M)``.  The returned ``solve(r_y, r_t)`` gives ``(dY, dt)``;
    ``r_y = None`` stands for zero.

    :raises numpy.linalg.LinAlgError: if a factorization fails.
    """
    n = dim_in * dim_out
    _, k_inv = _cholesky_inverse(wi1 + wi2)
    lam, q = np.linalg.eigh(k_inv @ wi2 @ _adjoint(k_inv))
    v = _adjoint(k_inv) @ q
    rest = 1.0 - lam
    root = np.sqrt(rest[..., :, None] * rest[..., None, :]
                   + lam[..., :, None] * lam[..., None, :]).reshape(-1)
    # row (k, l) of f is V† U(E_kl) V = Vm_k† Vm_l over the blocks, divided
    # by root, where Vm_k is row block k of (M† ⊗ I) V; then H = conj(f) @ f.T
    vm = (_adjoint(m3) @ v.reshape(-1, dim_in, dim_out * n)).reshape(
        -1, dim_in, dim_out, n).swapaxes(0, 1)
    f = (_adjoint(vm)[:, None] @ vm[None]).reshape(dim_in * dim_in, -1) / root
    _, cap = _cholesky_inverse(hermitize(np.eye(len(f)) + f.conj() @ f.T))

    def l_inv(b):
        g = (_adjoint(v) @ b @ v).reshape(-1) / root
        g = g - _adjoint(cap) @ (cap @ (f @ g.conj()).conj()) @ f
        return v @ (g / root).reshape(v.shape) @ _adjoint(v)

    # with A = M†M, by push-through L⁻¹ G = L0⁻¹ U (I + H)⁻¹ A and the
    # Schur complement tr(W3²) - sum_j <G, (L⁻¹ G)_j> is <A, (I + H)⁻¹ A>
    a = (_adjoint(m3) @ m3).reshape(-1)
    c3 = _adjoint(cap) @ (cap @ a)
    l_g = v @ ((c3 @ f) / root).reshape(v.shape) @ _adjoint(v)
    schur = np.vdot(a, c3).real

    def solve(r_y, r_t):
        if r_y is None:
            return hermitize(r_t / schur * l_g), r_t / schur
        dt = (r_t + np.vdot(l_g, r_y).real) / schur
        return hermitize(l_inv(r_y) + dt * l_g), dt

    return solve


def _solve_sdp(c: np.ndarray, dim_in: int, dim_out: int, tol: float,
               max_iterations: int):
    """Mehrotra predictor-corrector solve of the reduced program over the
    ``(B, n, n)`` stack ``c``: certified ``(lower, upper, iterations,
    reason)``, ``reason`` one of ``converged``, ``max_iterations``,
    ``step_collapse`` (the complementarity measure or the step length fell
    to zero) or ``linalg_error`` (a slack, a pencil or the capacitance did
    not factorize, a dual has a nonpositive Nesterov-Todd eigenvalue, or a
    factor or a step bound is not finite).
    Each iterate factorizes and scales every cone once, reads the bounds,
    and steps in the scaled frame: ``D_x = M† dS M``, ``D_z = M⁻¹ dZ M⁻†``."""
    n = dim_in * dim_out
    n_total = 2 * len(c) * n + dim_in
    eye_in = np.eye(dim_in, dtype=complex)

    def tr_out(x):  # of the block sum
        return np.trace(x.sum(0).reshape(dim_in, dim_out, dim_in, dim_out),
                        axis1=1, axis2=3)

    def step(bounds, tau):  # tau times the way to the boundary, at most 1
        if not np.isfinite(lam_min := np.min(bounds)):  # min() drops a NaN
            raise np.linalg.LinAlgError("step bound is not finite")
        return 1.0 if lam_min >= -1e-14 else min(1.0, -tau / lam_min)

    # exactly feasible start: scaled identity blocks
    eta = 1.25  # > ||C||_2 = 1 after normalization
    y = np.tile(eta * np.eye(n, dtype=complex), (len(c), 1, 1))
    t = eta * dim_out * len(c) + 1.0
    z = [np.tile(np.eye(n, dtype=complex) / (2.0 * dim_in), (2, len(c), 1, 1)),
         eye_in / dim_in]

    best_lower, best_upper = 0.0, np.inf
    reason = "max_iterations"

    # C and every iterate stay exactly Hermitian without symmetrizing: sums,
    # differences, real scalings and partial traces of exactly Hermitian
    # matrices round the (i, j) and (j, i) entries alike.  Only results of
    # matrix products and eigen-reconstructions are passed through hermitize.
    for iterations in range(max_iterations + 1):
        ty = tr_out(y)
        s = [np.stack([y - c, y + c]), t * eye_in - ty]
        try:
            w_invs, ms, vs = zip(*(_nt_scaling(_cholesky(sk), zk)
                                   for sk, zk in zip(s, z)))
            lower, upper = _certificates(c, ty, ms[1], vs[1])
            best_lower = max(best_lower, lower)
            best_upper = min(best_upper, upper)
            if best_upper - best_lower <= tol:
                return best_lower, best_upper, iterations, "converged"
            if iterations == max_iterations:
                break

            mu = sum(np.dot(v.ravel(), v.ravel()) for v in vs) / n_total
            if mu <= 0:
                reason = "step_collapse"
                break

            solve = _newton_solver(*w_invs[0], ms[1], dim_in, dim_out)
            eyes = [np.eye(v.shape[-1]) for v in vs]
            diag_v = [v[..., None] * e for v, e in zip(vs, eyes)]

            def newton(r_y, r_t):  # dY, dt and D_x = M† dS M per cone
                # with dZ_k + W_k⁻¹ dS_k W_k⁻¹ = r_k - Z_k, so that D_z =
                # M⁻¹ r_k M⁻† - V - D_x; both Y_j ∓ C_j move by dY_j
                dy, dt = solve(r_y, r_t)
                ds = [dy, dt * eye_in - tr_out(dy)]
                return dy, dt, [_adjoint(m) @ d @ m for m, d in zip(ms, ds)]

            # affine predictor (r = 0): one spectrum bounds both steps
            _, _, d_x = newton(None, -1.0)
            d_z = [-dv - dx for dv, dx in zip(diag_v, d_x)]
            lams = [_scaled_eigvalsh(v, dx) for v, dx in zip(vs, d_x)]
            alpha_p = step([lam.min() for lam in lams], 0.99)
            alpha_d = step([-1.0 - lam.max() for lam in lams], 0.99)
            mu_affine = sum(np.vdot(dv + alpha_p * dx, dv + alpha_d * dz).real
                            for dv, dx, dz in zip(diag_v, d_x, d_z)) / n_total
            sigma = min(max((max(mu_affine, 0.0) / mu) ** 3, 1e-6), 1.0 - 1e-6)

            # Mehrotra corrector toward r_k = M (sigma mu V⁻¹ - X2_k) M†;
            # R_j = r1_j + r2_j - r3 ⊗ I, r_t = tr r3 - 1 keep Z feasible
            targets = [(sigma * mu / v)[..., None] * e
                       - _second_order(v, dx, dz)
                       for v, e, dx, dz in zip(vs, eyes, d_x, d_z)]
            r = [hermitize(m @ tk @ _adjoint(m)) for m, tk in zip(ms, targets)]
            dy, dt, d_x = newton(r[0].sum(0) - np.kron(r[1], np.eye(dim_out)),
                                 float(np.trace(r[1]).real) - 1.0)
            d_z = [tk - dv - dx for tk, dv, dx in zip(targets, diag_v, d_x)]
            lams = [_scaled_eigvalsh(v, np.stack([dx, dz]))
                    for v, dx, dz in zip(vs, d_x, d_z)]
            tau = 0.9 if mu > 1e-4 else 0.98
            alpha_p, alpha_d = (step([lam[k].min() for lam in lams], tau)
                                for k in (0, 1))
            if min(alpha_p, alpha_d) < 1e-12:
                reason = "step_collapse"
                break

            y = y + alpha_p * dy
            t = t + alpha_p * dt
            z = [zk + alpha_d * hermitize(m @ dz @ _adjoint(m))
                 for zk, m, dz in zip(z, ms, d_z)]
        except np.linalg.LinAlgError:
            reason = "linalg_error"
            break

    # a stop inside the step from iterate k counts as iteration k + 1
    return best_lower, best_upper, min(iterations + 1, max_iterations), reason


def _split_sectors(c: np.ndarray, dim_in: int, dim_out: int):
    """``(c, dim_out)`` of the ``(B, n, n)`` stack ``c`` less its exactly zero
    blocks and the outputs no block touches, split over its output sectors,
    the connected components of the pattern ``C_b[(i,o),(j,p)] != 0``, in
    order of their first output, when they all have one size.  An all-zero
    stack is returned as given."""
    c5 = c.reshape(len(c), dim_in, dim_out, dim_in, dim_out)
    reach = np.any(c5 != 0, axis=(0, 1, 3))
    used = reach.any(0) | reach.any(1)
    if not used.any():
        return c, dim_out
    c5 = c5[np.any(c != 0, axis=(1, 2))][:, :, used][..., used]
    reach = reach[used][:, used]
    reach = reach | reach.T | np.eye(len(reach), dtype=bool)
    while not np.array_equal(reach, grown := reach @ reach):
        reach = grown  # boolean closure: paths double in length each round
    sectors = reach[np.unique(reach.argmax(1))]
    size = sectors.sum(1)
    if (size != size[0]).any():  # unequal sectors solve as one
        sectors = sectors.any(0, keepdims=True)
    m = int(sectors[0].sum())
    members = np.nonzero(sectors)[1].reshape(-1, m)  # ascending per sector
    c = np.concatenate([c5[:, :, s][..., s] for s in members])
    return c.reshape(-1, dim_in * m, dim_in * m), m


def diamond_norm(delta, tol: float = 1e-6,
                 max_iterations: int = 200) -> DiamondNormResult:
    """Diamond norm of the Hermiticity-preserving map with Choi state ``delta``.

    :param delta: Choi state (exactly Hermitian, as every ``ChoiMatrix``
        stores it), or a nonempty list or tuple of such blocks of one shape,
        whose direct sum over an output register is the map.  Exactly zero
        blocks and outputs are dropped; the other outputs fall into sectors
        that no block couples by a nonzero entry, and sectors of one size
        split every block, with the same norm.
    :param tol: requested absolute certification gap on the returned value.
    :param max_iterations: Newton steps allowed; with 0 the result is the
        bracket of the starting point.
    :return: result with ``gap <= tol`` on success.
    :raises DimensionMismatch: if ``delta`` is not of either form.
    :raises ValueError: if ``tol`` is not positive or ``max_iterations`` is
        not a nonnegative integer.
    :raises DimensionTooLarge: if the Choi side exceeds ``MAX_CHOI_SIDE`` or
        ``B`` blocks times ``(dim_in * side)**2`` exceed the Woodbury limit,
        both checked on the input as given, before any sector split.
    :raises Unconverged: if the certified gap is still above ``tol`` when
        the solver stops; the message names the reason it stopped and the
        partial result rides on the exception.
    """
    blocks = tuple(delta) if isinstance(delta, (list, tuple)) else (delta,)
    shapes = {(b.dim_in, b.dim_out) if isinstance(b, ChoiMatrix) else None
              for b in blocks}
    if len(shapes) != 1 or None in shapes:
        raise DimensionMismatch("expected ChoiMatrix blocks of one shape")
    (dim_in, dim_out), = shapes
    n = dim_in * dim_out
    if n > MAX_CHOI_SIDE:
        raise DimensionTooLarge(
            f"Choi side {n} exceeds the solver limit {MAX_CHOI_SIDE}")
    if len(blocks) * (dim_in * n) ** 2 > MAX_WOODBURY_ENTRIES:
        raise DimensionTooLarge(
            f"{len(blocks)} block(s) at dim_in {dim_in}, side {n} exceed the "
            f"solver limit of {MAX_WOODBURY_ENTRIES} Woodbury entries")
    if not tol > 0:  # also rejects NaN
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    if not _is_integer(max_iterations) or max_iterations < 0:
        raise ValueError(f"max_iterations must be an integer >= 0, "
                         f"got {max_iterations!r}")
    c, dim_out = _split_sectors(np.stack([b.matrix for b in blocks]) * dim_in,
                                dim_in, dim_out)

    singular = np.linalg.svd(c, compute_uv=False)
    scale = float(singular.max())
    if c.shape[-1] == 1 or scale == 0.0:  # the norm is ||C||_1 = sum_j |c_j|
        v = float(np.sum(singular))
        return DiamondNormResult(v, v, v, 0.0, 0)

    lower, upper, iterations, reason = _solve_sdp(
        c / scale, dim_in, dim_out, tol / scale, max_iterations)
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
    if not isinstance(delta, ChoiMatrix):
        raise DimensionMismatch("expected a ChoiMatrix")
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
