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
from itertools import product
from typing import Mapping

import numpy as np

from .config import TOL
from .errors import DimensionMismatch, InvalidModel, UnsupportedDimension
from .linalg import (_checked_hermitian, _is_integer, matrix_from_json,
                     matrix_to_json, numerical_rank, rng)

__all__ = [
    "KrausChannel",
    "ChoiMatrix",
    "StochasticChannel",
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

#: Largest model register, stochastic channel and Weyl basis dimension.  A
#: report on a (5, 5) model takes 0.02-0.04 s and 38 MB peak RSS (uniform
#: or nonuniform) or 3.2 s and 111 MB in a fresh process (general, nearly
#: all of it the Choi route of its fidelity, with the ideal roots that
#: ``metrics`` keeps), 2 cores, one OpenBLAS thread.
_MAX_MODEL_DIM = 5


def _model_dims(what: str, **dims) -> tuple:
    """The values of ``dims``, a name -> ``(value, low)`` map, as ``int``s:
    each must be an ``int`` or NumPy integer (never a ``bool`` or float) in
    ``low.._MAX_MODEL_DIM``, checked before anything draws, loops over or
    allocates by it; else :class:`UnsupportedDimension` names ``what``."""
    if all(_is_integer(v) and low <= v <= _MAX_MODEL_DIM
           for v, low in dims.values()):
        return tuple(int(v) for v, _ in dims.values())
    need = " and ".join(f"{name} >= {low}" for name, (_, low) in dims.items())
    got = ", ".join(f"{name}={v!r}" for name, (v, _) in dims.items())
    raise UnsupportedDimension(
        f"{what} need {need} as integers up to {_MAX_MODEL_DIM}; got {got}")


def _store_dims(obj, names):
    """Store the dimension fields ``names`` of ``obj`` as ``int``s; each must
    be a positive ``int`` or NumPy integer (never a ``bool`` or float)."""
    dims = tuple(getattr(obj, name) for name in names)
    if not all(_is_integer(d) and d >= 1 for d in dims):
        raise DimensionMismatch(
            f"dimensions must be positive integers, got {dims}")
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
        _store_dims(self, ("dim_in", "dim_out"))
        try:
            # one copy, from one array or a sequence alike; the same_kind
            # cast below refuses strings and objects, which an unsafe
            # complex cast would read as numbers
            ops = np.array(self.kraus_ops)
            if not (ops.ndim and len(ops)):
                raise ValueError(f"got an array of shape {ops.shape}")
        except ValueError as exc:  # empty, or operators of unequal shapes
            raise DimensionMismatch(
                f"Kraus operators must be a nonempty set of one shape: {exc}"
            ) from exc
        ops = ops.astype(complex, casting="same_kind", copy=False)
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
        _store_dims(self, ("dim_in", "dim_out"))
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
    :raises UnsupportedDimension: unless ``_model_dims`` accepts ``dim``,
        checked before the cache (where ``2.0`` and ``2`` are one key).
    """
    return _weyl_operators(*_model_dims("Weyl bases", dim=(dim, 1)))


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


def _entries(entries, arity: int, bound: int, what: str, where: str,
             value) -> dict:
    """The ``(label, item)`` pairs of a mapping or an iterable of pairs, as a
    dict sorted by label.  A label is ``arity`` integers (:func:`_label`) in
    ``0..bound-1`` and is not repeated; ``value(label, item)`` checks and
    returns each item.  A failure raises :class:`InvalidModel`, naming the
    label as ``what`` and the bound as ``where``."""
    pairs = entries.items() if isinstance(entries, Mapping) else entries
    clean = {}
    for key, item in pairs:
        if len(key) != arity:
            raise InvalidModel(f"{what} {key} must have {arity} indices")
        key = tuple([k if type(k) is int else _label(k) for k in key])
        for k in key:  # a loop: min() and max() cost 4x as much
            if not 0 <= k < bound:
                raise InvalidModel(f"{what} {key} out of range for {where}")
        item = value(key, item)
        if key in clean:
            raise InvalidModel(f"duplicate {what} {key}")
        clean[key] = item
    return dict(sorted(clean.items()))


def _weight(key, w) -> float:
    """A mixture weight: a finite real number ``>= 0``, as ``float``."""
    if type(w) is float and 0.0 <= w < math.inf:  # before the message
        return w
    w = _real(w, f"weight at {key}")
    if w < 0.0:
        raise InvalidModel(f"negative weight {w!r} at {key}")
    return w


def _real(value, what: str) -> float:
    """A finite ``int``, ``float`` or NumPy real as ``float``; else raise."""
    if type(value) is float and abs(value) < math.inf:
        return value
    if isinstance(value, (float, np.floating)) or _is_integer(value):
        try:
            value = float(value)
        except OverflowError:  # shown as inf, as json reads 1e400
            value = math.inf if value > 0 else -math.inf
        if math.isfinite(value):
            return value
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
        dim, = _model_dims("stochastic channels", dim=(self.dim, 1))
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "nu", _real(self.nu, "nu"))
        weights = _entries(self.weights, 2, self.dim, "weight label",
                           f"dimension {self.dim}", _weight)
        total = sum(weights.values())
        if abs(total - self.nu) > TOL.weight_sum:
            raise InvalidModel(
                f"weights sum to {total!r}, but nu = {self.nu!r}")
        object.__setattr__(self, "weights", weights)

    @classmethod
    def from_weights(cls, dim: int, weights: Mapping) -> "StochasticChannel":
        """Build a mixture with ``nu`` derived from the weight sum; each
        weight is read once, so ``weights`` may be a one-shot iterable of
        ``(label, weight)`` pairs."""
        pairs = list(weights.items() if isinstance(weights, Mapping)
                     else weights)
        return cls(dim, sum(_real(w, "weight") for _, w in pairs), pairs)

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
    if nu == 0.0:
        return nu, 1.0
    return nu, channel.weights.get((0, 0), 0.0) / nu


def random_stochastic_channel(dim: int, nu: float,
                              seed: int) -> StochasticChannel:
    """Random mixture over the full shift-and-phase basis.

    Weights are ``nu`` times a flat Dirichlet draw (uniform on the simplex)
    over all ``dim**2`` labels.  Deterministic in ``seed`` (counter-based
    generator).

    :raises UnsupportedDimension: unless ``dim`` is an integer in
        ``1.._MAX_MODEL_DIM``, checked before the draw.
    """
    dim, = _model_dims("stochastic channels", dim=(dim, 1))
    if _real(nu, "nu") < 0.0:
        raise InvalidModel(f"nu must be nonnegative, got {nu!r}")
    return StochasticChannel(dim, nu, _mixture_weights(rng(seed), dim, nu))


def _mixture_weights(gen, dim: int, nu) -> dict:
    """``nu`` times a flat Dirichlet draw from ``gen`` (uniform on the
    simplex) over the ``dim**2`` labels ``(a, b)``."""
    probs = gen.dirichlet(np.ones(dim * dim))
    return dict(zip(product(range(dim), repeat=2), (nu * probs).tolist()))


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
    """Decode :func:`channel_to_json` output.  A missing key or a wrong
    container raises ``ValueError("malformed channel object: ...")``;
    ``KrausChannel`` checks every value, and its error passes through."""
    try:
        dim_in, dim_out = obj["dim_in"], obj["dim_out"]
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
    """Decode :func:`choi_to_json` output.  A missing key or a wrong
    container raises ``ValueError("malformed Choi object: ...")``;
    ``ChoiMatrix`` checks every value, and its error passes through."""
    try:
        dim_in, dim_out = obj["dim_in"], obj["dim_out"]
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
    """Decode :func:`stochastic_to_json` output.  A missing key or a wrong
    container raises ``ValueError("malformed stochastic channel object:
    ...")``; ``StochasticChannel`` checks every value and raises
    :class:`InvalidModel` (``UnsupportedDimension`` for ``dim``)."""
    try:
        dim, nu = obj["dim"], obj["nu"]
        weights = [((e["a"], e["b"]), e["w"]) for e in obj["weights"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed stochastic channel object: {exc}") from exc
    return StochasticChannel(dim, nu, weights)
