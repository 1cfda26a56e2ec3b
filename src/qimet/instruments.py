"""Subsystem measurements and their noisy implementations.

An ideal subsystem measurement reads out a ``D``-dimensional register in the
computational basis while an ``E``-dimensional register idles.  The global
tensor order is fixed as

    (unmeasured E) ⊗ (measured D) ⊗ (outcome register D)

so the ideal instrument has branch maps ``ad_{pi_j}`` with
``pi_j = I_E ⊗ |j><j|``, and a noisy implementation is any collection of D
completely positive branch maps on H_{ED} whose sum is trace preserving.

Structured error models:

* uniform stochastic — branch ``j`` has Kraus operators
  ``B ⊗ |j+a><j+b|`` over all ``(a, b)`` and Kraus operators ``B`` of
  outcome-independent stochastic channels ``T_(a,b)`` on the unmeasured
  register (index arithmetic mod D);
* non-uniform stochastic — the same construction with channels ``T_(a,b,j)``
  that may depend on the observed outcome ``j``.

Normalization of the non-uniform weights: this package enforces
``sum_(a,b) nu_(a,b,j) = 1`` for every outcome ``j``.  Per-outcome
normalization alone does not make the total channel trace preserving when
weight sits on off-diagonal report flips ``b != 0`` non-uniformly in ``j``:
the expansion has ``sum_k K_k† K_k = ⊕_c (sum_(a,b,j): j+b = c nu_(a,b,j))
I_E`` over basis columns ``c``, so the ``NonUniformStochasticModel``
constructor also checks that every basis column gets weight 1, in the same
pass over the table.  No report expands a model, so the check cannot wait
for the ``InstrumentImplementation`` constructor.  The random model generator
samples tables whose ``b``-marginals are outcome independent, which
satisfies both conditions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .channels import (KrausChannel, StochasticChannel, _entries,
                       _mixture_weights, _model_dims, channel_from_json,
                       channel_to_json, choi_from_kraus, stochastic_from_json,
                       stochastic_to_json)
from .config import TOL
from .errors import DimensionMismatch, InvalidModel, UnsupportedDimension
from .linalg import hermitize, rng

__all__ = [
    "InstrumentImplementation",
    "UniformStochasticModel",
    "NonUniformStochasticModel",
    "ideal_instrument",
    "expand_uniform",
    "expand_nonuniform",
    "full_channel",
    "branch_differences",
    "random_uniform_model",
    "random_nonuniform_model",
    "random_general_implementation",
    "model_to_json",
    "model_from_json",
]


# ==================================================================
# measurement and implementation types
# ==================================================================

def _check_dims(D, E) -> tuple:
    """A model's dimensions ``(D, E)`` as ``int``s, by ``_model_dims``."""
    return _model_dims("models", D=(D, 2), E=(E, 1))


def _store_model_dims(obj):
    for name, dim in zip("DE", _check_dims(obj.D, obj.E)):
        object.__setattr__(obj, name, dim)


@dataclass(frozen=True)
class InstrumentImplementation:
    """Noisy instrument: D completely positive branch maps on H_{ED}.

    The branch maps are CP by construction (Kraus form); the constructor
    additionally checks that their sum is trace preserving.
    """

    D: int
    E: int
    branches: tuple

    def __post_init__(self):
        _store_model_dims(self)
        branches = tuple(self.branches)
        if len(branches) != self.D:
            raise InvalidModel(
                f"expected {self.D} branch maps, got {len(branches)}")
        side = self.E * self.D
        for m in branches:
            if not isinstance(m, KrausChannel):
                raise InvalidModel("branches must be KrausChannel values")
            if m.dim_in != side or m.dim_out != side:
                raise DimensionMismatch(
                    f"branch dims ({m.dim_in}, {m.dim_out}) do not match E*D = {side}")
        rows = np.concatenate([m.kraus_ops for m in branches]).reshape(-1, side)
        with np.errstate(over="ignore", invalid="ignore"):  # huge entries
            dev = float(np.max(np.abs(rows.conj().T @ rows - np.eye(side))))
        if not dev <= TOL.trace_preserving:  # a NaN dev is refused too
            raise InvalidModel(
                f"total channel is not trace preserving: max |sum K†K - I| = {dev:.3e}")
        object.__setattr__(self, "branches", branches)


# ==================================================================
# structured error models
# ==================================================================

def _validate_table(table, D: int, E: int, labels: int) -> dict:
    """``table`` (a mapping or an iterable of ``(key, channel)`` pairs) as a
    sorted dict: keys of ``labels`` indices in ``0..D-1``, no key repeated,
    and each entry a stochastic channel on the E-dimensional register."""
    def channel_at(key, channel):
        if not isinstance(channel, StochasticChannel):
            raise InvalidModel(f"table entry {key} is not a StochasticChannel")
        if channel.dim != E:
            raise InvalidModel(
                f"table entry {key} acts on dimension {channel.dim}, expected E={E}")
        return channel
    return _entries(table, labels, D, "table key", f"D={D}", channel_at)


@dataclass(frozen=True)
class UniformStochasticModel:
    """Outcome-independent error table ``(a, b) -> T_(a,b)`` with total
    weight ``sum nu_(a,b) = 1``.  Absent keys mean weight zero."""

    D: int
    E: int
    table: Mapping

    def __post_init__(self):
        _store_model_dims(self)
        table = _validate_table(self.table, self.D, self.E, labels=2)
        total = sum(t.nu for t in table.values())
        if abs(total - 1.0) > TOL.weight_sum:
            raise InvalidModel(
                f"total weight sum_(a,b) nu = {total!r} must be 1")
        object.__setattr__(self, "table", table)


@dataclass(frozen=True)
class NonUniformStochasticModel:
    """Outcome-dependent error table ``(a, b, j) -> T_(a,b,j)`` normalized
    per outcome, ``sum_(a,b) nu_(a,b,j) = 1`` for each ``j``, and per basis
    column, ``sum_(a,b,j): j+b = c nu_(a,b,j) = 1`` for each ``c`` (mod D),
    which makes its expansion trace preserving; both in one pass."""

    D: int
    E: int
    table: Mapping

    def __post_init__(self):
        _store_model_dims(self)
        table = _validate_table(self.table, self.D, self.E, labels=3)
        outcomes, columns = [0] * self.D, [0.0] * self.D
        for (a, b, j), t in table.items():
            outcomes[j] += t.nu
            columns[(j + b) % self.D] += sum(t.weights.values())
        for j, total in enumerate(outcomes):
            if abs(total - 1.0) > TOL.weight_sum:
                raise InvalidModel(
                    f"outcome {j}: sum_(a,b) nu = {total!r} must be 1")
        for c, total in enumerate(columns):
            if abs(total - 1.0) > TOL.trace_preserving:
                raise InvalidModel(
                    f"not trace preserving: basis column {c} gets weight "
                    f"{total!r} from the entries with j + b = {c} mod D, "
                    f"expected 1")
        object.__setattr__(self, "table", table)


def ideal_instrument(D: int, E: int) -> InstrumentImplementation:
    """The ideal subsystem measurement as an implementation: branch ``j`` is
    the single-Kraus map ``ad_{pi_j}`` with ``pi_j = I_E ⊗ |j><j|``, the
    expansion of the uniform model whose one entry is ``T_(0,0) = id_E``."""
    D, E = _check_dims(D, E)
    side = E * D
    diag = np.arange(side)
    pis = np.zeros((D, 1, side, side), dtype=complex)
    pis[diag % D, 0, diag, diag] = 1.0
    return InstrumentImplementation(
        D, E, tuple(KrausChannel(side, side, ops) for ops in pis))


def _expand_branches(D: int, E: int, kraus_at) -> tuple:
    """Branch Kraus sets ``B ⊗ |j+a><j+b|`` for ``B`` in ``kraus_at(a, b, j)``,
    each written as the ``(j+a, j+b)`` block of an ``(E, D, E, D)`` zero
    operator; a branch with no Kraus operators gets one zero operator."""
    side = E * D
    branches = []
    for j in range(D):
        blocks = [((j + a) % D, (j + b) % D, kraus)
                  for a in range(D) for b in range(D)
                  if (kraus := kraus_at(a, b, j)) is not None]
        ops = np.zeros((max(1, sum(len(kraus) for _, _, kraus in blocks)),
                        E, D, E, D), dtype=complex)
        start = 0
        for row, col, kraus in blocks:
            ops[start:start + len(kraus), :, row, :, col] = kraus
            start += len(kraus)
        branches.append(KrausChannel(side, side, ops.reshape(-1, side, side)))
    return tuple(branches)


def expand_uniform(model: UniformStochasticModel) -> InstrumentImplementation:
    """Build the instrument with branch-``j`` Kraus operators
    ``B ⊗ |j+a><j+b|`` over all table entries ``(a, b)`` (mod-D arithmetic)."""
    kraus = {key: t.kraus_ops() for key, t in model.table.items()}
    return InstrumentImplementation(
        model.D, model.E,
        _expand_branches(model.D, model.E,
                         lambda a, b, j: kraus.get((a, b))))


def expand_nonuniform(model: NonUniformStochasticModel) -> InstrumentImplementation:
    """Same construction with outcome-dependent channels ``T_(a,b,j)``;
    the model's constructor has checked that the result is trace
    preserving."""
    kraus = {key: t.kraus_ops() for key, t in model.table.items()}
    return InstrumentImplementation(
        model.D, model.E,
        _expand_branches(model.D, model.E,
                         lambda a, b, j: kraus.get((a, b, j))))


# ==================================================================
# derived channels
# ==================================================================

def full_channel(impl: InstrumentImplementation) -> KrausChannel:
    """The implementation as one channel H_{ED} -> H_{ED} ⊗ H_D, appending
    the outcome register: each Kraus ``K`` of branch ``j`` becomes ``K ⊗ |j>``,
    the row block ``j`` of a ``(side, D, side)`` zero operator."""
    side = impl.E * impl.D
    kraus = np.concatenate([branch.kraus_ops for branch in impl.branches])
    outcome = np.repeat(np.arange(impl.D),
                        [len(branch.kraus_ops) for branch in impl.branches])
    ops = np.zeros((len(kraus), side, impl.D, side), dtype=complex)
    ops[np.arange(len(kraus)), :, outcome] = kraus
    return KrausChannel(side, side * impl.D, ops.reshape(-1, side * impl.D, side))


def branch_differences(impl: InstrumentImplementation) -> np.ndarray:
    """``J(M_j) - J(ad_pi_j)`` per outcome ``j`` as one read-only ``(D, s, s)``
    stack, ``s = (E*D)**2``; the ideal rank-one term ``col_vec(pi_j)
    col_vec(pi_j)† / (E*D)`` is subtracted in place on its support."""
    side = impl.E * impl.D
    stack = np.stack([choi_from_kraus(m).matrix for m in impl.branches])
    diag = np.arange(side) * (side + 1)  # col_vec position of each |i><i|
    for j, block in enumerate(stack):
        block[np.ix_(diag[j::impl.D], diag[j::impl.D])] -= 1.0 / side
    stack.setflags(write=False)
    return stack


# ==================================================================
# random model generation
# ==================================================================

def random_uniform_model(D: int, E: int, seed: int) -> UniformStochasticModel:
    """Random uniform model: flat Dirichlet weights ``nu`` over the D² table
    slots and an independent random stochastic channel in each slot."""
    _check_dims(D, E)
    gen = rng(seed)
    nus = gen.dirichlet(np.ones(D * D))
    table = {}
    for a in range(D):
        for b in range(D):
            table[(a, b)] = StochasticChannel.from_weights(
                E, _mixture_weights(gen, E, nus[a * D + b]))
    return UniformStochasticModel(D, E, table)


def random_nonuniform_model(D: int, E: int, seed: int) -> NonUniformStochasticModel:
    """Random non-uniform model with outcome-independent report-flip
    marginals: ``sum_a nu_(a,b,j) = mu_b`` for every ``j``, which makes the
    expanded instrument trace preserving while the channels and the
    ``a``-splits remain outcome dependent."""
    _check_dims(D, E)
    gen = rng(seed)
    mu = gen.dirichlet(np.ones(D))  # report-flip marginal over b
    table = {}
    for j in range(D):
        for b in range(D):
            splits = gen.dirichlet(np.ones(D))  # over a
            for a in range(D):
                table[(a, b, j)] = StochasticChannel.from_weights(
                    E, _mixture_weights(gen, E, mu[b] * splits[a]))
    return NonUniformStochasticModel(D, E, table)


def random_general_implementation(D: int, E: int,
                                  seed: int) -> InstrumentImplementation:
    """Random unstructured implementation near the ideal instrument.

    Each branch gets the ideal projector perturbed by a random operator plus
    one extra random low-weight Kraus operator, both Gaussian with entries of
    scale ``0.15 / sqrt(E*D)``; the collection is then
    normalized globally (right multiplication by ``(sum K†K)^{-1/2}``) so the
    total channel is exactly trace preserving.
    """
    _check_dims(D, E)
    gen = rng(seed)
    side = E * D
    # per branch j, in draw order: Re g0, Im g0, Re g1, Im g1
    g = gen.normal(size=(D, 2, 2, side, side))
    raw = 0.15 * (g[:, :, 0] + 1j * g[:, :, 1]) / np.sqrt(side)
    diag = np.arange(side)
    raw[diag % D, 0, diag, diag] += 1.0  # pi_j = I_E ⊗ |j><j| on operator 0
    # sum K†K operator by operator in draw order: one GEMM over the stacked
    # rows would round differently and change the generated models' bytes
    acc = np.sum((raw.conj().swapaxes(-1, -2) @ raw).reshape(-1, side, side),
                 axis=0)
    vals, vecs = np.linalg.eigh(hermitize(acc))
    inv_root = (vecs * (1.0 / np.sqrt(vals))) @ vecs.conj().T
    branches = tuple(KrausChannel(side, side, ops) for ops in raw @ inv_root)
    return InstrumentImplementation(D, E, branches)


# ==================================================================
# serialization
# ==================================================================

def model_to_json(model) -> dict:
    """Encode a model or general implementation as the shared model JSON."""
    if isinstance(model, UniformStochasticModel):
        return {
            "type": "uniform", "D": model.D, "E": model.E,
            "table": [{"a": a, "b": b, "channel": stochastic_to_json(t)}
                      for (a, b), t in model.table.items()],
        }
    if isinstance(model, NonUniformStochasticModel):
        return {
            "type": "nonuniform", "D": model.D, "E": model.E,
            "table": [{"a": a, "b": b, "j": j, "channel": stochastic_to_json(t)}
                      for (a, b, j), t in model.table.items()],
        }
    if isinstance(model, InstrumentImplementation):
        return {
            "type": "general", "D": model.D, "E": model.E,
            "branches": [channel_to_json(m) for m in model.branches],
        }
    raise TypeError(f"cannot serialize {type(model).__name__} as a model")


def model_from_json(obj: dict):
    """Decode a model JSON object; the constructors check every value.

    ``ValueError`` means a malformed document: a missing key, a wrong
    container, an unknown type or a bad matrix.  :class:`InvalidModel`
    wraps the first refusal of a constructor: its message follows the prefix
    ``model validation failed: ``, and the refusal is the ``__cause__``.
    """
    try:
        kind = obj["type"]
        D, E = obj["D"], obj["E"]
        if kind == "general":
            return InstrumentImplementation(D, E, tuple(
                channel_from_json(b) for b in obj["branches"]))
        if kind in ("uniform", "nonuniform"):
            labels = ("a", "b") if kind == "uniform" else ("a", "b", "j")
            cls = UniformStochasticModel if kind == "uniform" \
                else NonUniformStochasticModel
            return cls(D, E, [(tuple(entry[k] for k in labels),
                               stochastic_from_json(entry["channel"]))
                              for entry in obj["table"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed model object: {exc}") from exc
    except (InvalidModel, DimensionMismatch, UnsupportedDimension) as exc:
        raise InvalidModel(f"model validation failed: {exc}") from exc
    raise ValueError(f"unknown model type {kind!r}")
