"""Quantum channels: Kraus and Choi representations, stochastic mixtures.

A channel's Kraus operators ``{K_j}`` are stored as one read-only array of
shape ``(rank, dim_out, dim_in)``.  Its Choi state is

    J = (1/dim_in) * sum_j col_vec(K_j) col_vec(K_j)† = V^T conj(V) / dim_in

with ``V`` the ``rank × (dim_in·dim_out)`` matrix whose rows are the
``col_vec(K_j)``, living on (input copy) ⊗ (output), with the input factor
carrying the slow index.  ``trace(J) = 1`` exactly when the channel is
trace preserving; for general completely positive maps ``trace(J)`` equals
the trace of the map's normalization.

A *stochastic* channel is a nonnegative mixture of pairwise Hilbert-Schmidt
orthogonal unitaries, one of which is the identity:

    T(rho) = sum_k w_k U_k rho U_k†,   trace(U_j† U_k) = dim * delta_jk.

Its two scalar invariants are ``nu = sum_k w_k`` (the trace of the Choi
state) and ``nu * lambda = w_identity`` (the identity component's weight,
equal to the entanglement fidelity with the identity scaled by ``nu``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

from .config import TOL
from .errors import DimensionMismatch, InvalidModel, UnsupportedDimension
from .linalg import (_as_float, _checked_hermitian, _is_integer, _json_float,
                     _json_int, matrix_from_json, matrix_to_json,
                     numerical_rank, rng)

__all__ = [
    "KrausChannel",
    "ChoiMatrix",
    "StochasticChannel",
    "identity_channel",
    "choi_from_kraus",
    "kraus_rank",
    "weyl_operators",
    "nu_lambda",
    "random_stochastic_channel",
    "channel_to_json",
    "channel_from_json",
    "choi_to_json",
    "choi_from_json",
    "stochastic_to_json",
    "stochastic_from_json",
]


# ==================================================================
# core types
# ==================================================================

def _store_dims(obj, names, error):
    """Store the dimension fields ``names`` of ``obj`` as ``int``s; each must
    be a positive ``int`` or NumPy integer (never a ``bool`` or float)."""
    dims = tuple(getattr(obj, name) for name in names)
    if not all(_is_integer(d) and d >= 1 for d in dims):
        raise error(f"dimensions must be positive integers, got {dims}")
    for name, dim in zip(names, dims):
        object.__setattr__(obj, name, int(dim))


@dataclass(frozen=True)
class KrausChannel:
    """A completely positive map given by its Kraus operators.

    ``kraus_ops`` accepts any nonempty sequence of operators of shape
    ``(dim_out, dim_in)`` and is stored as one read-only complex array of
    shape ``(rank, dim_out, dim_in)``.  The map need not be trace
    preserving: subnormalized branches of instruments are represented this
    way too.
    """

    dim_in: int
    dim_out: int
    kraus_ops: np.ndarray

    def __post_init__(self):
        _store_dims(self, ("dim_in", "dim_out"), DimensionMismatch)
        try:
            ops = np.stack(self.kraus_ops, dtype=complex)  # a fresh array
        except ValueError as exc:  # empty, or operators of unequal shapes
            raise DimensionMismatch(
                f"Kraus operators must be a nonempty set of one shape: {exc}"
            ) from exc
        if ops.shape[1:] != (self.dim_out, self.dim_in):
            raise DimensionMismatch(
                f"Kraus operator shape {ops.shape[1:]} does not match "
                f"({self.dim_out}, {self.dim_in})")
        if not np.isfinite(ops).all():
            raise ValueError("matrix entries must be finite numbers")
        ops.setflags(write=False)
        object.__setattr__(self, "kraus_ops", ops)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Evaluate ``sum_j K_j rho K_j†``."""
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (self.dim_in, self.dim_in):
            raise DimensionMismatch(
                f"state shape {rho.shape} does not match dim_in {self.dim_in}")
        ops = self.kraus_ops
        return np.sum(ops @ rho @ ops.conj().swapaxes(1, 2), axis=0)


@dataclass(frozen=True)
class ChoiMatrix:
    """Choi state of a map, on (input copy) ⊗ (output).

    ``matrix`` is the exact Hermitian part ``(A + A†)/2`` of the input,
    read-only, so no caller symmetrizes it again; the input must be finite
    and within ``TOL.herm`` of Hermitian (else ``NotHermitian``).  It is
    positive semidefinite exactly for completely positive maps, but
    differences of Choi states (Hermiticity preserving maps) are first-class
    values here as well.
    """

    dim_in: int
    dim_out: int
    matrix: np.ndarray

    def __post_init__(self):
        _store_dims(self, ("dim_in", "dim_out"), DimensionMismatch)
        side = self.dim_in * self.dim_out
        shape = np.shape(self.matrix)
        if shape != (side, side):
            raise DimensionMismatch(f"Choi matrix shape {shape} does not fit "
                                    f"dimensions ({self.dim_in}, {self.dim_out})")
        mat = _checked_hermitian(self.matrix)
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    def __sub__(self, other: "ChoiMatrix") -> "ChoiMatrix":
        if (self.dim_in, self.dim_out) != (other.dim_in, other.dim_out):
            raise DimensionMismatch(
                f"Choi matrices on different spaces: "
                f"({self.dim_in},{self.dim_out}) vs ({other.dim_in},{other.dim_out})")
        return ChoiMatrix(self.dim_in, self.dim_out, self.matrix - other.matrix)


def identity_channel(dim: int) -> KrausChannel:
    """The identity map on a ``dim``-dimensional system."""
    return KrausChannel(dim, dim, (np.eye(dim, dtype=complex),))


# ==================================================================
# conversions
# ==================================================================

def choi_from_kraus(channel: KrausChannel) -> ChoiMatrix:
    """Choi state ``(1/dim_in) sum_j col_vec(K_j) col_vec(K_j)†``, as the
    single product ``V^T conj(V) / dim_in`` with rows ``V_j = col_vec(K_j)``
    (``ChoiMatrix`` keeps the exact Hermitian part of its rounding)."""
    ops = channel.kraus_ops
    v = ops.swapaxes(1, 2).reshape(len(ops), -1)
    return ChoiMatrix(channel.dim_in, channel.dim_out,
                      v.T @ v.conj() / channel.dim_in)


def kraus_rank(channel: KrausChannel) -> int:
    """Minimal number of Kraus operators: the rank of the Choi state."""
    return numerical_rank(choi_from_kraus(channel).matrix)


# ==================================================================
# stochastic channels
# ==================================================================

def weyl_operators(dim: int) -> np.ndarray:
    """Shift-and-phase unitary basis ``U_(a,b) = X^a Z^b`` on ``dim`` levels.

    ``X`` is the cyclic shift ``|k> -> |k+1 mod dim>``, ``Z`` the phase
    ``|k> -> exp(2 pi i k / dim)|k>``.  The ``dim**2`` operators are pairwise
    Hilbert-Schmidt orthogonal with ``trace(U† U) = dim`` and ``U_(0,0) = I``.

    :return: one read-only ``(dim**2, dim, dim)`` array with ``U_(a,b)`` at
        index ``a * dim + b``; built once per ``dim``.
    :raises UnsupportedDimension: unless ``dim`` is a positive integer,
        checked before the cache (where ``2.0`` and ``2`` are one key).
    """
    if not (_is_integer(dim) and dim >= 1):
        raise UnsupportedDimension(
            f"dimension must be an integer >= 1, got {dim!r}")
    return _weyl_operators(int(dim))


@lru_cache(maxsize=None)
def _weyl_operators(dim: int) -> np.ndarray:
    shift = np.roll(np.eye(dim, dtype=complex), 1, axis=0)
    phases = np.exp(2j * np.pi * np.arange(dim) / dim)
    ops = np.empty((dim * dim, dim, dim), dtype=complex)
    x_pow = np.eye(dim, dtype=complex)
    for a in range(dim):
        z_pow = np.ones(dim, dtype=complex)
        for b in range(dim):
            ops[a * dim + b] = x_pow * z_pow  # X^a followed by diag phase Z^b
            z_pow = z_pow * phases
        x_pow = shift @ x_pow
    ops.setflags(write=False)
    return ops


def _label(value) -> int:
    """A basis or outcome label: an ``int`` or NumPy integer, as ``int``; a
    ``bool``, float or string raises :class:`InvalidModel` instead of being
    truncated."""
    if not _is_integer(value):
        raise InvalidModel(f"label {value!r} must be an integer")
    return int(value)


def _real(value, what: str) -> float:
    """A finite ``int``, ``float`` or NumPy real as ``float``; else raise."""
    if isinstance(value, (float, np.floating)) or _is_integer(value):
        if math.isfinite(real := _as_float(value)):
            return real
        value = real  # an int beyond the float range shows as inf
    raise InvalidModel(f"{what} must be a finite real number: {value!r}")


@dataclass(frozen=True)
class StochasticChannel:
    """Nonnegative mixture of shift-and-phase unitaries.

    ``weights`` maps ``(a, b)`` basis labels to weights ``w >= 0`` with
    ``sum w = nu``, each a finite ``int``, ``float`` or NumPy real (never a
    ``bool`` or string), stored as ``float``; absent labels mean weight
    zero.  It may also be an iterable of ``(label, weight)`` pairs, in which
    a repeated label is an error.  The map acts as ``rho -> sum w_(a,b)
    U_(a,b) rho U_(a,b)†`` and is trace preserving exactly when ``nu = 1``.
    """

    dim: int
    nu: float
    weights: Mapping

    def __post_init__(self):
        _store_dims(self, ("dim",), UnsupportedDimension)
        object.__setattr__(self, "nu", _real(self.nu, "nu"))
        pairs = self.weights.items() if isinstance(self.weights, Mapping) \
            else self.weights
        clean = {}
        for key, w in pairs:
            if len(key) != 2:
                raise InvalidModel(f"weight label {key} must have 2 indices")
            a, b = map(_label, key)
            if not (0 <= a < self.dim and 0 <= b < self.dim):
                raise InvalidModel(f"weight label {key} out of range for "
                                   f"dimension {self.dim}")
            w = _real(w, f"weight at {key}")
            if w < 0.0:
                raise InvalidModel(f"negative weight {w!r} at {key}")
            if (a, b) in clean:
                raise InvalidModel(f"duplicate weight label {(a, b)}")
            clean[(a, b)] = w
        total = sum(clean.values())
        if abs(total - self.nu) > TOL.weight_sum:
            raise InvalidModel(
                f"weights sum to {total!r}, but nu = {self.nu!r}")
        object.__setattr__(self, "weights", dict(sorted(clean.items())))

    @classmethod
    def from_weights(cls, dim: int, weights: Mapping) -> "StochasticChannel":
        """Build a mixture with ``nu`` derived from the weight sum."""
        total = sum(_real(w, "weight") for w in dict(weights).values())
        return cls(dim, total, weights)

    def kraus_ops(self) -> np.ndarray:
        """Kraus operators ``sqrt(w) U_(a,b)`` for the nonzero weights, as
        one ``(rank, dim, dim)`` array (``rank = 0`` for the zero map)."""
        live = {a * self.dim + b: w
                for (a, b), w in self.weights.items() if w > 0.0}
        return (np.sqrt(np.fromiter(live.values(), float))[:, None, None]
                * weyl_operators(self.dim)[list(live)])

    def as_channel(self) -> KrausChannel:
        ops = self.kraus_ops()
        if not len(ops):
            ops = np.zeros((1, self.dim, self.dim), dtype=complex)
        return KrausChannel(self.dim, self.dim, ops)

    def choi(self) -> ChoiMatrix:
        return choi_from_kraus(self.as_channel())


def nu_lambda(channel: StochasticChannel) -> tuple:
    """``(nu, lambda)`` of a stochastic channel, read from its weights.

    ``nu = sum_k w_k`` is the trace of the Choi state ``J`` and
    ``nu * lambda = w_(0,0)`` is ``(1/dim) col_vec(I)† J col_vec(I)`` (the
    weight of the identity component, i.e. ``nu`` times the entanglement
    fidelity with the identity), as every other basis unitary is traceless.
    By convention ``lambda = 1`` when ``nu = 0``.
    """
    if not isinstance(channel, StochasticChannel):
        raise TypeError(
            f"cannot extract nu/lambda from {type(channel).__name__}")
    nu = float(sum(channel.weights.values()))
    if nu <= TOL.weight_sum:
        return nu, 1.0
    return nu, channel.weights.get((0, 0), 0.0) / nu


def random_stochastic_channel(dim: int, nu: float,
                              seed: int) -> StochasticChannel:
    """Random mixture over the full shift-and-phase basis.

    Weights are ``nu`` times a flat Dirichlet draw (uniform on the simplex)
    over all ``dim**2`` labels.  Deterministic in ``seed`` (counter-based
    generator).

    :raises UnsupportedDimension: unless ``dim`` is an integer in 1..4.
    """
    if not (_is_integer(dim) and 1 <= dim <= 4):
        raise UnsupportedDimension(
            f"random stochastic channels support dimensions 1..4, got {dim!r}")
    if _real(nu, "nu") < 0.0:
        raise InvalidModel(f"nu must be nonnegative, got {nu!r}")
    gen = rng(seed)
    probs = gen.dirichlet(np.ones(dim * dim))
    weights = {(a, b): nu * probs[a * dim + b]
               for a in range(dim) for b in range(dim)}
    return StochasticChannel(dim, nu, weights)


# ==================================================================
# serialization
# ==================================================================

def channel_to_json(channel: KrausChannel) -> dict:
    return {
        "dim_in": channel.dim_in,
        "dim_out": channel.dim_out,
        "kraus": [matrix_to_json(k) for k in channel.kraus_ops],
    }


def channel_from_json(obj: dict) -> KrausChannel:
    try:
        dim_in, dim_out = _json_int(obj, "dim_in"), _json_int(obj, "dim_out")
        kraus = tuple(matrix_from_json(k) for k in obj["kraus"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed channel object: {exc}") from exc
    return KrausChannel(dim_in, dim_out, kraus)


def choi_to_json(choi: ChoiMatrix) -> dict:
    return {
        "dim_in": choi.dim_in,
        "dim_out": choi.dim_out,
        "matrix": matrix_to_json(choi.matrix),
    }


def choi_from_json(obj: dict) -> ChoiMatrix:
    try:
        dim_in, dim_out = _json_int(obj, "dim_in"), _json_int(obj, "dim_out")
        mat = matrix_from_json(obj["matrix"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed Choi object: {exc}") from exc
    return ChoiMatrix(dim_in, dim_out, mat)


def stochastic_to_json(channel: StochasticChannel) -> dict:
    return {
        "dim": channel.dim,
        "nu": channel.nu,
        "weights": [{"a": a, "b": b, "w": w}
                    for (a, b), w in channel.weights.items()],
    }


def stochastic_from_json(obj: dict) -> StochasticChannel:
    try:
        dim = _json_int(obj, "dim")
        nu = _json_float(obj, "nu")
        weights = [((_json_int(e, "a"), _json_int(e, "b")),
                    _json_float(e, "w")) for e in obj["weights"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed stochastic channel object: {exc}") from exc
    return StochasticChannel(dim, nu, weights)
