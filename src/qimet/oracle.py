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
C_j`` form one ``(2, B, n, n)`` stack.

Low-rank blocks are solved on their range.  Write ``C_j = V_j Λ_j V_j† +
E_j``, where the ``n x r`` isometry ``V_j`` holds the eigenvectors of the
``r`` largest ``|λ|`` of ``C_j``, ``r`` being the fewest, one for the whole
stack, whose dropped tail ``sum_j ||E_j||_1`` is at most ``tol / 8``.  When
``r <= n / 2``, a property of the input and ``tol`` and not an option, the
iteration runs on the ``r x r`` blocks instead,

    minimize   t
    subject to Y_j - Λ_j >= 0,  Y_j + Λ_j >= 0,  t*I - sum_j Φ_j*(Y_j) >= 0

with ``Φ_j*(Y) = Tr_out(V_j Y V_j†)``; its dual reads ``Z1_j + Z2_j =
Φ_j(Z3) = V_j† (Z3 ⊗ I) V_j``.  It has the value of the full program on
``C_j - E_j``: for a density ``rho`` and ``A_j = V_j† (rho ⊗ I) V_j`` the
nonzero spectra of ``(sqrt(rho) ⊗ I) V_j Λ_j V_j† (sqrt(rho) ⊗ I)`` and of
``A_j^{1/2} Λ_j A_j^{1/2}`` coincide, so both programs are ``max_rho sum_j
||.||_1`` (the lower bound below); and dropping ``E_j`` moves that value by
at most ``sum_j ||E_j||_1``.  A general (2,2) instrument's outcome blocks
have rank 3 of 16, and a (3,3) one's 3 of 81.  Full-rank inputs, such as
random maps and the rank-3-of-4 blocks of a (2,1) instrument, keep the
program on the full blocks, with ``V_j = I``.

Each iteration is a Mehrotra predictor-corrector step (Mehrotra 1992) in
the Nesterov-Todd scaled frame (Todd, Toh and Tütüncü 1998) ``M† S M = M⁻¹
Z M⁻† = V = diag(v)``.  The scaling is inverse-free, the SDPT3 form with
the roles of ``S`` and ``Z`` swapped: with the dual's Cholesky factor ``Z =
R R†`` and ``R† S R = U Λ U†``, ``M = R U Λ^{-1/4}`` and ``v = λ^{1/2}``,
so no triangular solve is made.  A direction ``D_x = M† dS M`` gives its
dual ``D_z`` without further products, and the step bounds are eigenvalues
of ``V^{-1/2} D V^{-1/2}``.
The predictor sets the centering ``sigma = (mu_aff / mu)**3``; the corrector
aims at ``sigma*mu*V⁻¹ - X2``, ``X2`` the second-order term.  The Newton
system is solved on the ``r x r`` blocks (``r = n = dim_in * dim_out`` on
the full blocks) by an entrywise divide in each block's generalized
eigenbasis, a Woodbury step for the partial trace they share and a scalar
Schur step for ``t`` (:func:`_newton_solver`), at ``O(dim_in**2 * B * r**2
* (r + n))`` per iteration; only that build forms ``W⁻¹ = M M†``, and only
for the block stack.  Each factorization is one call of NumPy's batched
``linalg`` per stack.

Certification does not trust convergence, nor the cut, and reads the full
stack.  Each iterate certifies its point, scales the input block, reads two
*exactly feasible* bounds and tests their gap; only an iterate that goes on
to step scales the block stack:

* upper bound — ``lambda_max(Tr_out sum_j Y_j)``, read by one routine
  (:func:`_upper_bound`) only once the ``(2, B, n, n)`` stack ``Y_j ∓ C_j``
  has Cholesky-factorized; an iterate ``Ỹ_j`` on the range is lifted to
  ``Y_j = V_j Ỹ_j V_j† + |E_j| + δI``, with the start certificate's shift
  ``δ`` (below), whose slacks ``V_j (Ỹ_j ∓ Λ_j) V_j† + (|E_j| ∓ E_j) + δI``
  are checked like any other, so a cut can slow a solve but cannot certify
  a wrong value;
* lower bound — for *any* density ``rho`` on the input factor,
  ``max { <C, X> : -rho ⊗ I <= X <= rho ⊗ I } = sum_j || (sqrt(rho) ⊗ I)
  C_j (sqrt(rho) ⊗ I) ||_1``; at ``rho = Z3 / tr Z3`` for the dual's input
  block ``Z3 = M3 V3 M3†``, where ``Ψ = V3^{1/2} M3†`` is ``sqrt(Z3)`` up to
  a unitary.

Before the first iterate, a second dual point is tried.  With ``C``
normalized to ``||C||_2 = 1``, the one ``eigh`` of the stack that gives the
scale and the cap ``||C||_1`` also gives ``Y_j = |C_j| + δI``, ``δ = 64 n
u`` for the unit roundoff ``u``.  Its slacks ``Y_j ∓ C_j = 2 C_j^∓ + δI``
are positive semidefinite plus the shift, which covers the roundoff of
``|C_j|``; once the same routine has factorized them, its bound seeds the
best upper bound, and otherwise the point is dropped.  The first iterate's
lower bound, at ``rho = I / dim_in``, is the Choi trace norm ``sum_j
||C_j||_1 / dim_in``, so the two meet, up to the shift, exactly when
``Tr_out sum_j |C_j| ∝ I``.  That holds for every Weyl-stochastic ``T - I``
and for the branch stack of every uniform stochastic instrument, whose
diamond norm is reached at the maximally entangled input (Watrous,
arXiv:1207.5726): these solves certify at iteration 0.  Every other solve
steps from ``Y_j = 1.25 I`` and ``t`` one above ``lambda_max(sum_j
Φ_j*(Y_j))``.

The reported value is the midpoint of the best bounds; the call succeeds
when their gap is at most the requested tolerance.

A see-saw hill climb over pure reference-assisted inputs provides an
independent lower bound used as a solver sanity check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ChoiMatrix
from .errors import DimensionMismatch, Unconverged, UnsupportedDimension
from .linalg import _is_integer, col_vec, hermitize, random_pure_states, rng

__all__ = [
    "DiamondNormResult",
    "diamond_norm",
    "diamond_lower_hillclimb",
]

#: Hard cap on the Choi side of each block accepted by the solver.
MAX_CHOI_SIDE = 144
#: Hard cap on the ``B * (dim_in * side)**2`` entries of the Newton solve's
#: Woodbury factor for ``B`` blocks (two iterations peak at about 450 MB RSS
#: for four 12 x 12 blocks, 430 MB for one 24 x 6 map).
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


def _cholesky_inverse(m: np.ndarray) -> np.ndarray:
    """``L⁻¹`` for the Cholesky factor ``L`` of each matrix in a stack,
    exactly lower triangular: the LU inverse of the upper triangular ``L†``
    never swaps a row."""
    return _adjoint(np.linalg.inv(_adjoint(_cholesky(m))))


def _nt_scaling(s: np.ndarray, z: np.ndarray):
    """Nesterov-Todd scaling of each pair ``(S, Z)``, inverse-free from the
    dual's Cholesky factor ``Z = R R†``: with ``R† S R = U Λ U†``, ``M = R U
    Λ^{-1/4}`` maps both to one diagonal point, ``M† S M = M⁻¹ Z M⁻† =
    diag(v)``, ``v = λ^{1/2}``, and ``W⁻¹ = M M†`` solves ``W Z W = S``.
    Returns ``(M, M†, v)``; raises ``LinAlgError`` unless ``Z > 0`` and ``S >
    0``."""
    r = _cholesky(z)
    wg, ug = np.linalg.eigh(_adjoint(r) @ s @ r)  # reads one triangle
    if not wg.min() > 0:
        raise np.linalg.LinAlgError("slack iterate is not positive definite")
    m = r @ (ug * wg[..., None, :] ** -0.25)
    return m, _adjoint(m), np.sqrt(wg)


def _step_scale(v: np.ndarray) -> np.ndarray:
    """``(v_i v_j)^{-1/2}`` of each ``v`` in a stack, the entrywise factor of
    ``V^{-1/2} D V^{-1/2}``, ``V = diag(v)``."""
    return 1.0 / np.sqrt(v[..., :, None] * v[..., None, :])


def _scaled_eigvalsh(scale: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Eigenvalues of ``V^{-1/2} D V^{-1/2}`` for each matrix of a stack, given
    ``scale = _step_scale(v)``: ``V + alpha*D``, and so ``S + alpha*dS`` for
    ``D = M† dS M``, stays positive definite up to ``alpha = -1 /
    lambda_min``."""
    return np.linalg.eigvalsh(d * scale)


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


def _tr_out(x: np.ndarray, dim_in: int) -> np.ndarray:
    """``Tr_out sum_j X_j`` of a ``(B, n, n)`` stack, ``n = dim_in *
    dim_out``."""
    dim_out = x.shape[-1] // dim_in
    return np.trace(x.sum(0).reshape(dim_in, dim_out, dim_in, dim_out),
                    axis1=1, axis2=3)


def _upper_bound(c: np.ndarray, y: np.ndarray, dim_in: int) -> float:
    """``lambda_max(Tr_out sum_j Y_j)`` of the dual point ``y``, a ``(B, n,
    n)`` stack like the blocks ``c``: returned only once the ``(2, B, n, n)``
    stack of its slacks ``Y_j ∓ C_j`` has Cholesky-factorized, so it bounds
    the norm of ``C`` from above.

    :raises numpy.linalg.LinAlgError: if a slack does not factorize."""
    _cholesky(np.stack([y - c, y + c]))
    return float(np.linalg.eigvalsh(_tr_out(y, dim_in)).max())


def _lower_bound(c: np.ndarray, mh3: np.ndarray, v3: np.ndarray) -> float:
    """``sum_j ||(Ψ ⊗ I) C_j (Ψ ⊗ I)†||_1 / ||Ψ||_F²`` for the blocks ``C_j``
    and the input block's scaling ``Z3 = M diag(v) M†``, given as ``M† =
    mh3`` and ``v = v3``: the value of the unit pure input ``Ψ / ||Ψ||_F``
    for any nonzero ``Ψ``; ``Ψ = diag(√v) M†`` (``Ψ†Ψ = Z3``) gives it at
    ``rho = Z3 / tr Z3``.  The lifted blocks are Hermitian, so their trace
    norm is the sum of the absolute eigenvalues."""
    psi = np.sqrt(v3)[:, None] * mh3
    spectra = np.linalg.eigvalsh(_lifted(c, psi))  # reads one triangle
    return float(np.abs(spectra).sum() / np.vdot(psi, psi).real)


def _newton_solver(m: np.ndarray, m3: np.ndarray, dim_in: int, dim_out: int,
                   lift: np.ndarray | None = None):
    """Factorize one iteration's Newton system on B blocks; return its solver.

    With ``P = Tr_out``, ``W1_j, W2_j = M M†`` for the NT factors ``M = m``
    of the block stack, ``W3 = M3 M3†`` (``M3 = m3``) and ``G = P*(W3²) = W3²
    ⊗ I``, the system on the blocks ``dY_j`` is

        L(dY)_j - dt * G = R_j,    -sum_j <G, dY_j> + dt * tr(W3²) = r_t,
        L(X)_j = W1_j X_j W1_j + W2_j X_j W2_j + P*(W3 P(sum_k X_k) W3).

    In block ``j``'s generalized eigenbasis ``V† (W1_j + W2_j) V = I``,
    ``V† W2_j V = diag(λ)`` (``W1_j + W2_j = K K†``, ``K⁻¹ W2_j K⁻† = Q
    diag(λ) Q†``, ``V = K⁻† Q``) its two Kronecker terms ``L0`` are an
    entrywise divide by ``root² = (1-λp)(1-λq) + λp λq``, with ``λ`` kept in
    its exact range ``[0, 1]``.  The partial-trace term is ``U U*`` with
    ``U(A)_j = P*(M3 A M3†)`` in every block, and is added back by the
    Woodbury identity with the Hermitian capacitance ``I + H``, ``H = U*
    L0⁻¹ U`` (``dim_in**2`` square for any ``B``; with ``I + H = R R†``,
    ``(I + H)⁻¹ b = R⁻† (R⁻¹ b)``); the ``t`` row is a scalar Schur step with
    ``G = U(M3†M3)``.  The returned ``solve(r_y, r_t)`` gives ``(dY, dt)``;
    ``r_y = None`` stands for zero.

    On the range of the blocks, ``lift`` is the ``(B, n, r)`` stack of the
    ``V_j``, the blocks are ``r x r``, ``P(X) = Tr_out sum_j V_j X_j V_j†``
    and ``P*(A)_j = V_j† (A ⊗ I) V_j``; only the ``U(E_kl)`` images change,
    read through ``V_j V`` instead of ``V``.

    :raises numpy.linalg.LinAlgError: if a factorization fails or a pencil
        gives ``root² <= 0``.
    """
    wi1, wi2 = hermitize(m @ _adjoint(m))
    k_inv = _cholesky_inverse(wi1 + wi2)
    k_inv_h = _adjoint(k_inv)
    lam, q = np.linalg.eigh(k_inv @ wi2 @ k_inv_h)
    lam = np.clip(lam, 0.0, 1.0)
    rest = 1.0 - lam
    root2 = (rest[..., :, None] * rest[..., None, :]
             + lam[..., :, None] * lam[..., None, :])
    if not root2.min() > 0:  # {λp, λq} = {0, 1}, or a NaN
        raise np.linalg.LinAlgError("pencil is singular")
    inv_root = (1.0 / np.sqrt(root2)).reshape(-1)
    v = k_inv_h @ q
    vh = _adjoint(v)
    m3h = _adjoint(m3)
    # row (k, l) of f is V† U(E_kl) V = Vm_k† Vm_l over the blocks, divided
    # by root, where Vm_k is row block k of (M† ⊗ I) V, or of (M† ⊗ I) V_j V
    # on the range; then H = conj(f) @ f.T
    side = v.shape[-1]
    vm = (m3h @ (v if lift is None else lift @ v).reshape(
        -1, dim_in, dim_out * side)).reshape(
        -1, dim_in, dim_out, side).swapaxes(0, 1)
    f = (_adjoint(vm)[:, None] @ vm[None]).reshape(dim_in * dim_in, -1)
    f *= inv_root
    cap = _cholesky_inverse(hermitize(np.eye(len(f)) + f.conj() @ f.T))
    cap_h = _adjoint(cap)

    def l_inv(b):
        g = (vh @ b @ v).reshape(-1) * inv_root
        g -= cap_h @ (cap @ (f @ g.conj()).conj()) @ f
        return v @ (g * inv_root).reshape(v.shape) @ vh

    # with A = M3†M3, by push-through L⁻¹ G = L0⁻¹ U (I + H)⁻¹ A and the
    # Schur complement tr(W3²) - sum_j <G, (L⁻¹ G)_j> is <A, (I + H)⁻¹ A>
    a = (m3h @ m3).reshape(-1)
    c3 = cap_h @ (cap @ a)
    l_g = v @ ((c3 @ f) * inv_root).reshape(v.shape) @ vh
    schur = np.vdot(a, c3).real

    def solve(r_y, r_t):
        if r_y is None:
            return hermitize(r_t / schur * l_g), r_t / schur
        dt = (r_t + np.vdot(l_g, r_y).real) / schur
        return hermitize(l_inv(r_y) + dt * l_g), dt

    return solve


def _solve_sdp(c: np.ndarray, eigvals: np.ndarray, vecs: np.ndarray,
               dim_in: int, dim_out: int, tol: float, max_iterations: int):
    """Mehrotra predictor-corrector solve of the reduced program over the
    ``(B, n, n)`` stack ``c`` of spectral norm 1, given its eigenvalues
    ``eigvals`` and eigenvectors ``vecs``: certified ``(lower, upper,
    iterations, reason)``, ``reason`` one of ``converged``,
    ``max_iterations``, ``step_collapse`` (the complementarity measure or
    the step length fell to zero) or ``linalg_error`` (a slack, a dual, a
    pencil or the capacitance did not factorize, a slack has a nonpositive
    Nesterov-Todd eigenvalue, a pencil is singular, or a factor or a step
    bound is not finite).
    One routine, :func:`_upper_bound`, certifies the start point ``Y_j =
    |C_j| + δI`` and every iterate, full or lifted; the start point seeds the
    best upper bound if its ``Y_j ∓ C_j`` factorize, and is otherwise left
    unset.  When the ``r`` largest ``|λ|`` of every block leave a trace-norm
    tail of at most ``tol / 8`` over the stack and ``r <= n / 2``, the
    iteration runs on the ``r x r`` blocks ``Λ_j`` of the range ``V_j``
    instead.  The two programs differ only in their setup: the blocks, an
    ``embed`` and a ``tail`` that lift an iterate ``Ỹ_j`` to the point
    ``embed(Ỹ)_j + tail_j`` it is certified at (``V_j Ỹ_j V_j† + |E_j| +
    δI`` on the range, ``Ỹ_j + 0`` on the full blocks), the start's ``load``
    and ``less_kron``.  Each iterate has its point certified and scales the
    input block, reads the lower bound and tests the gap; only then does it
    scale the block stack, so the converged iterate scales no block.  It
    steps in the scaled frame, ``D_x = M† dS M``, ``D_z = M⁻¹ dZ M⁻†``, by
    an inner function, so nothing of a step outlives it."""
    blocks, n = c.shape[:2]
    eye_in = np.eye(dim_in, dtype=complex)
    eye_out = np.eye(dim_out)
    shift = 64 * n * np.finfo(float).eps * np.eye(n)

    def shifted_abs(vectors, values):  # |X_j| + δI from eigenpairs of X_j
        return hermitize((vectors * np.abs(values)[..., None, :])
                         @ _adjoint(vectors)) + shift

    # the range: the fewest r largest |λ| per block whose dropped tail
    # sum_j ||E_j||_1 stays within tol / 8; dropped[k] drops the k + 1 least
    dropped = np.sort(np.abs(eigvals), -1).cumsum(-1).sum(0)
    side = max(n - int(np.count_nonzero(dropped <= tol / 8)), 1)
    if 2 * side > n:  # the program on the full blocks
        lift, program, side, tail = None, c, n, 0.0
        load = dim_out * blocks  # lambda_max(Tr_out sum_j I)

        def embed(x):
            return x

        def less_kron(x, a):  # x_j - a ⊗ I
            return (x.reshape(-1, dim_in, dim_out, dim_in, dim_out)
                    - a[:, None, :, None] * eye_out[:, None]).reshape(-1, n, n)
    else:  # the program on the range, Φ_j*(X) = Tr_out V_j X V_j†
        order = np.argsort(-np.abs(eigvals), -1, kind="stable")
        ranked = np.take_along_axis(eigvals, order, -1)  # largest |λ| first
        basis = np.take_along_axis(vecs, order[:, None, :], -1)
        lift, rest = basis[..., :side], basis[..., side:]
        lift_h = _adjoint(lift)
        program = ranked[:, :side, None] * np.eye(side)  # Λ_j
        tail = shifted_abs(rest, ranked[:, side:])  # |E_j| + δI
        load = float(np.linalg.eigvalsh(_tr_out(lift @ lift_h, dim_in)).max())

        def embed(x):  # V_j X_j V_j†
            return hermitize(lift @ x @ lift_h)

        def less_kron(x, a):  # x_j - Φ_j(a), Φ_j(a) = V_j† (a ⊗ I) V_j
            return x - hermitize(lift_h @ (a @ lift.reshape(
                blocks, dim_in, -1)).reshape(lift.shape))

    def tr_out(x):  # of the block sum
        return _tr_out(embed(x), dim_in)

    n_total = 2 * blocks * side + dim_in
    eyes = [np.eye(side), np.eye(dim_in)]

    def step(bounds, tau):  # tau times the way to the boundary, at most 1
        if not np.isfinite(lam_min := np.min(bounds)):  # min() drops a NaN
            raise np.linalg.LinAlgError("step bound is not finite")
        return 1.0 if lam_min >= -1e-14 else min(1.0, -tau / lam_min)

    def predictor_corrector(y, t, z, ms, mhs, vs):
        """The iterate after one step from ``(y, t, z)``, whose cones ``M_k``
        (``ms``; ``mhs = M_k†``) scale to ``diag(v_k)`` (``vs``); ``None``
        if ``mu`` or a step length collapses."""
        mu = sum(np.dot(v.ravel(), v.ravel()) for v in vs) / n_total
        if mu <= 0:
            return None
        solve = _newton_solver(ms[0], ms[1], dim_in, dim_out, lift)
        diag_v = [v[..., None] * e for v, e in zip(vs, eyes)]
        scales = [_step_scale(v) for v in vs]

        def newton(r_y, r_t):  # dY, dt and D_x = M† dS M per cone
            # with dZ_k + W_k⁻¹ dS_k W_k⁻¹ = r_k - Z_k, so that D_z =
            # M⁻¹ r_k M⁻† - V - D_x; both Y_j ∓ C_j move by dY_j
            dy, dt = solve(r_y, r_t)
            ds = [dy, dt * eye_in - tr_out(dy)]
            return dy, dt, [mh @ d @ m for m, mh, d in zip(ms, mhs, ds)]

        # affine predictor (r = 0): one spectrum bounds both steps
        _, _, d_x = newton(None, -1.0)
        d_z = [-dv - dx for dv, dx in zip(diag_v, d_x)]
        lams = [_scaled_eigvalsh(sc, dx) for sc, dx in zip(scales, d_x)]
        alpha_p = step([lam.min() for lam in lams], 0.99)
        alpha_d = step([-1.0 - lam.max() for lam in lams], 0.99)
        mu_affine = sum(np.vdot(dv + alpha_p * dx, dv + alpha_d * dz).real
                        for dv, dx, dz in zip(diag_v, d_x, d_z)) / n_total
        sigma = min(max((max(mu_affine, 0.0) / mu) ** 3, 1e-6), 1.0 - 1e-6)

        # Mehrotra corrector toward r_k = M (sigma mu V⁻¹ - X2_k) M†;
        # R_j = r1_j + r2_j - r3 ⊗ I, r_t = tr r3 - 1 keep Z feasible
        targets = [(sigma * mu / v)[..., None] * e - _second_order(v, dx, dz)
                   for v, e, dx, dz in zip(vs, eyes, d_x, d_z)]
        r = [hermitize(m @ tk @ mh) for m, mh, tk in zip(ms, mhs, targets)]
        dy, dt, d_x = newton(less_kron(r[0].sum(0), r[1]),
                             float(np.trace(r[1]).real) - 1.0)
        d_z = [tk - dv - dx for tk, dv, dx in zip(targets, diag_v, d_x)]
        lams = [_scaled_eigvalsh(sc, np.stack([dx, dz]))
                for sc, dx, dz in zip(scales, d_x, d_z)]
        tau = 0.9 if mu > 1e-4 else 0.98
        alpha_p, alpha_d = (step([lam[k].min() for lam in lams], tau)
                            for k in (0, 1))
        if min(alpha_p, alpha_d) < 1e-12:
            return None
        return (y + alpha_p * dy, t + alpha_p * dt,
                [zk + alpha_d * hermitize(m @ dz @ mh)
                 for zk, m, mh, dz in zip(z, ms, mhs, d_z)])

    # exactly feasible start: scaled identity blocks
    eta = 1.25  # > ||C||_2 = 1 after normalization
    y = np.tile(eta * np.eye(side, dtype=complex), (blocks, 1, 1))
    t = eta * load + 1.0  # t*I - Tr_out sum_j Φ_j*(Y_j) >= I
    z = [np.tile(np.eye(side, dtype=complex) / (2.0 * dim_in),
                 (2, blocks, 1, 1)),
         eye_in / dim_in]

    # the start certificate: Y_j ∓ C_j = 2 C_j^∓ + δI, whose shift covers
    # the roundoff of |C_j|
    try:
        best_upper = _upper_bound(c, shifted_abs(vecs, eigvals), dim_in)
    except np.linalg.LinAlgError:
        best_upper = np.inf
    best_lower = 0.0
    reason = "max_iterations"

    # C and every iterate stay exactly Hermitian without symmetrizing: sums,
    # differences, real scalings and partial traces of exactly Hermitian
    # matrices round the (i, j) and (j, i) entries alike.  Only results of
    # matrix products and eigen-reconstructions are passed through hermitize.
    for iterations in range(max_iterations + 1):
        y_full = embed(y)
        try:
            # the iterate's bounds count once its input block has scaled
            upper = _upper_bound(c, y_full + tail, dim_in)
            scaled3 = _nt_scaling(t * eye_in - _tr_out(y_full, dim_in), z[1])
            best_lower = max(best_lower, _lower_bound(c, *scaled3[1:]))
            best_upper = min(best_upper, upper)
            if best_upper - best_lower <= tol:
                return best_lower, best_upper, iterations, "converged"
            if iterations == max_iterations:
                break

            stepped = predictor_corrector(y, t, z, *zip(_nt_scaling(
                np.stack([y - program, y + program]), z[0]), scaled3))
            if stepped is None:
                reason = "step_collapse"
                break
            y, t, z = stepped
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
    # the rows that are their sector's first output, one per sector in
    # order (np.unique of argmax gives the same, but loads numpy.ma)
    sectors = reach[reach.argmax(1) == np.arange(len(reach))]
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
        starting bracket: the Choi trace norm from below and, from above,
        the least of the start iterate's bound (``lambda_max(Tr_out sum_j
        Y_j)`` at ``Y_j = 1.25 I``, or on a low-rank stack at the lift
        ``1.25 V_j V_j† + |E_j| + δI`` of the range ``V_j`` that the solve
        steps on), the start certificate's ``lambda_max(Tr_out sum_j
        |C_j|)`` plus its shift, and ``||C||_1``.
    :return: result with ``gap <= tol`` on success.
    :raises DimensionMismatch: if ``delta`` is not of either form.
    :raises ValueError: if ``tol`` is not positive, ``max_iterations`` is
        not a nonnegative integer, or ``dim_in * delta`` overflows.
    :raises UnsupportedDimension: if the Choi side exceeds ``MAX_CHOI_SIDE`` or
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
        raise UnsupportedDimension(
            f"Choi side {n} exceeds the solver limit {MAX_CHOI_SIDE}")
    if len(blocks) * (dim_in * n) ** 2 > MAX_WOODBURY_ENTRIES:
        raise UnsupportedDimension(
            f"{len(blocks)} block(s) at dim_in {dim_in}, side {n} exceed the "
            f"solver limit of {MAX_WOODBURY_ENTRIES} Woodbury entries")
    if not tol > 0:  # also rejects NaN
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    if not _is_integer(max_iterations) or max_iterations < 0:
        raise ValueError(f"max_iterations must be an integer >= 0, "
                         f"got {max_iterations!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        c = np.stack([b.matrix for b in blocks]) * dim_in
    if not np.isfinite(c).all():
        raise ValueError("Choi entries too large: dim_in * delta overflows")
    c, dim_out = _split_sectors(c, dim_in, dim_out)

    # C is Hermitian: one eigh gives its singular values |λ|, so the scale
    # and ||C||_1, and the |C_j| of the start certificate
    eigvals, vecs = np.linalg.eigh(c)
    singular = np.abs(eigvals)
    scale = float(singular.max())
    if c.shape[-1] == 1 or scale == 0.0:  # the norm is ||C||_1 = sum_j |c_j|
        v = float(np.sum(singular))
        return DiamondNormResult(v, v, v, 0.0, 0)

    lower, upper, iterations, reason = _solve_sdp(
        c / scale, eigvals / scale, vecs, dim_in, dim_out, tol / scale,
        max_iterations)
    lower *= scale
    # ||Delta||_diamond <= ||C||_1 always holds; the eigh gives it too
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
