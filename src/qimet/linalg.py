"""Dense linear algebra helpers shared by the rest of the package.

Conventions (fixed once here, relied on everywhere else):

* ``col_vec`` stacks *columns*: ``col_vec(A)[c * rows + r] == A[r, c]``.
  With this choice ``col_vec(A @ B @ C) == kron(C.T, A) @ col_vec(B)`` and
  ``col_vec(A).conj() @ col_vec(B) == trace(A† B)``.
* ``kron`` follows numpy: the *first* factor owns the slow (most significant)
  index.  ``partial_trace`` uses the same subsystem ordering.

All functions accept array-likes and return plain ``numpy`` arrays.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .config import TOL
from .errors import DimensionMismatch, NotHermitian, NotPSD

__all__ = [
    "col_vec",
    "kron",
    "trace_norm",
    "numerical_rank",
    "hermitize",
    "psd_sqrt",
    "partial_trace",
    "check_density",
    "random_pure_states",
    "random_density",
    "rng",
    "matrix_to_json",
    "matrix_from_json",
]


# ==================================================================
# vectorization
# ==================================================================

def col_vec(mat: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization of a matrix.

    ``col_vec(A)[c * rows + r] == A[r, c]`` — the column index is the slow
    (most significant) index of the output vector.
    """
    mat = np.asarray(mat)
    if mat.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got shape {mat.shape}")
    return mat.reshape(-1, order="F")


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; the first factor carries the slow index."""
    return np.kron(np.asarray(a), np.asarray(b))


# ==================================================================
# norms, spectra
# ==================================================================

def trace_norm(mat: np.ndarray) -> float:
    """Trace norm (Schatten 1-norm): the sum of singular values."""
    return float(np.sum(np.linalg.svd(np.asarray(mat), compute_uv=False)))


def numerical_rank(mat: np.ndarray) -> int:
    """Number of singular values above ``rank_rel * s_max``."""
    s = np.linalg.svd(np.asarray(mat), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > TOL.rank_rel * s[0]))


# ==================================================================
# Hermitian / PSD machinery
# ==================================================================

def hermitize(mat: np.ndarray) -> np.ndarray:
    """Return the Hermitian part ``(A + A†)/2`` of each matrix in a stack."""
    mat = np.asarray(mat)
    return 0.5 * (mat + mat.conj().swapaxes(-1, -2))


def _checked_hermitian(mat: np.ndarray) -> np.ndarray:
    """The exactly Hermitian part ``hermitize(A)`` of a finite, square,
    nearly Hermitian complex matrix ``A``; finite too, even where ``A + A†``
    would overflow.

    :raises DimensionMismatch: if ``A`` is not a square matrix.
    :raises ValueError: if an entry is not finite.
    :raises NotHermitian: if ``max |A - A†| > TOL.herm``.
    """
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got {mat.shape}")
    if not np.isfinite(mat).all():
        raise ValueError("matrix entries must be finite numbers")
    with np.errstate(over="ignore", invalid="ignore"):  # handled below
        dev = float(np.max(np.abs(mat - mat.conj().T))) if mat.size else 0.0
        if dev > TOL.herm:
            raise NotHermitian(
                f"max |A - A†| = {dev:.3e} exceeds {TOL.herm:.1e}")
        herm = hermitize(mat)
    if np.isfinite(herm).all():
        return herm
    # A + A† overflowed; halving first is exact for entries this large
    return 0.5 * mat + 0.5 * mat.conj().T


def _clamped_psd_eig(mat: np.ndarray):
    """Eigendecomposition of a Hermitian matrix with small negative
    eigenvalues clamped to zero.

    The input is validated and symmetrized by :func:`_checked_hermitian`
    before the solve.  Eigenvalues come out in ascending order (numpy
    convention).  The clamp threshold scales with the matrix:
    ``psd_clamp * max(1, |w|_max)``.

    :return: ``(eigenvalues, eigenvectors)`` with columns as eigenvectors.
    :raises NotPSD: if an eigenvalue lies below the clamp threshold.
    """
    vals, vecs = np.linalg.eigh(_checked_hermitian(mat))
    scale = max(1.0, float(np.max(np.abs(vals))) if vals.size else 0.0)
    floor = -TOL.psd_clamp * scale
    if vals.size and vals[0] < floor:
        raise NotPSD(
            f"eigenvalue {vals[0]:.3e} below clamp threshold {floor:.3e}")
    return np.maximum(vals, 0.0), vecs


def psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Principal square root of a PSD matrix.

    Symmetrizes the input, clamps eigenvalues in the roundoff band
    ``[-psd_clamp * max(1, ||A||), 0)`` to zero, and raises ``NotPSD`` for
    anything genuinely negative.
    """
    return _psd_root(*_clamped_psd_eig(mat))


def _psd_root(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """``V diag(sqrt(w)) V†`` from a clamped eigendecomposition ``(w, V)``."""
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


# ==================================================================
# subsystems
# ==================================================================

def partial_trace(mat: np.ndarray, dims: Sequence[int],
                  keep: Iterable[int]) -> np.ndarray:
    """Trace out all subsystems except those in ``keep``.

    :param mat: square matrix on the tensor product of subsystems with the
        given ``dims``, ordered as in :func:`kron` (first factor slow).
    :param dims: subsystem dimensions.
    :param keep: indices (into ``dims``) of the subsystems to keep; the kept
        factors stay in their original relative order.
    """
    mat = np.asarray(mat)
    dims = [int(d) for d in dims]
    total = int(np.prod(dims))
    if mat.shape != (total, total):
        raise DimensionMismatch(
            f"matrix shape {mat.shape} does not match dims {dims}")
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= len(dims) for k in keep):
        raise DimensionMismatch(f"keep indices {keep} out of range")

    n = len(dims)
    tensor = mat.reshape(dims + dims)
    # trace out the complement, highest index first so positions stay valid
    for idx in reversed(range(n)):
        if idx not in keep:
            tensor = np.trace(tensor, axis1=idx, axis2=idx + n)
            n -= 1
    kept = int(np.prod([dims[k] for k in keep])) if keep else 1
    return tensor.reshape((kept, kept))


# ==================================================================
# states
# ==================================================================

def check_density(rho: np.ndarray, dim: int | None = None) -> tuple:
    """Validate a density matrix.

    Checks Hermiticity (``TOL.herm``), positivity up to the clamp band, and
    unit trace (``TOL.trace_one``).

    :return: ``(rho, vals, vecs)``: the input as a complex array, and the
        clamped eigendecomposition of its Hermitian part that the positivity
        check computed (:func:`_clamped_psd_eig`: ascending eigenvalues,
        eigenvectors as columns), so no caller decomposes it again.
    """
    rho = np.asarray(rho, dtype=complex)
    vals, vecs = _clamped_psd_eig(rho)  # square, Hermitian, PSD, or raise
    if dim is not None and rho.shape[0] != dim:
        raise DimensionMismatch(
            f"expected a {dim}x{dim} density matrix, got {rho.shape}")
    tr = float(rho.trace().real)
    if abs(tr - 1.0) > TOL.trace_one:
        raise ValueError(f"trace {tr!r} deviates from 1 beyond {TOL.trace_one}")
    return rho, vals, vecs


# ==================================================================
# randomness
# ==================================================================

def rng(seed: int) -> np.random.Generator:
    """Counter-based generator (Philox) for reproducible, splittable streams.

    Every random operation in the package takes an explicit seed and derives
    its stream through this function, so identical seeds give bit-identical
    results regardless of call order elsewhere.
    """
    return np.random.Generator(np.random.Philox(seed))


def random_pure_states(dim: int, count: int,
                       gen: np.random.Generator) -> np.ndarray:
    """``count`` Haar-random pure states of the given dimension, one per
    row; row ``k`` has the same bits for every ``count``."""
    draws = gen.normal(size=(count, 2, 1, dim))
    v = draws[:, 0] + 1j * draws[:, 1]
    # np.linalg.norm's sum: dots of the strided real and imaginary views
    re, im = v.real, v.imag
    return (v / np.sqrt(re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2)))[:, 0]


def random_density(dim: int, gen: np.random.Generator,
                   rank: int | None = None) -> np.ndarray:
    """Random density matrix (Hilbert-Schmidt-like ensemble of given rank)."""
    if rank is None:
        rank = dim
    g = gen.normal(size=(dim, rank)) + 1j * gen.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return rho / rho.trace().real


# ==================================================================
# serialization
# ==================================================================

def matrix_to_json(mat: np.ndarray) -> dict:
    """Encode a complex matrix as ``{"rows", "cols", "re", "im"}``."""
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got shape {mat.shape}")
    return {
        "rows": int(mat.shape[0]),
        "cols": int(mat.shape[1]),
        "re": mat.real.tolist(),
        "im": mat.imag.tolist(),
    }


def _is_integer(value) -> bool:
    """Whether ``value`` is an ``int`` or NumPy integer; a ``bool`` is not."""
    return (isinstance(value, (int, np.integer))
            and not isinstance(value, bool))


def _json_int(obj: dict, key: str) -> int:
    """``obj[key]`` if it is a JSON integer; a float, string or boolean
    raises ``TypeError`` instead of being converted.  Only a matrix's
    ``rows`` and ``cols`` need it: no constructor sees them, and a ``True``
    would pass the shape comparison, as ``(1, n) == (True, n)``."""
    value = obj[key]
    if not _is_integer(value):
        raise TypeError(f"{key!r} must be an integer, got {value!r}")
    return value


#: Python types of the numbers ``json.load`` returns (``bool`` is not one)
_JSON_NUMBERS = frozenset((int, float))


def _json_rows(obj: dict, key: str) -> np.ndarray:
    """``obj[key]`` as a float array if it is a list of rows of JSON numbers;
    a string, boolean or null in a row raises ``TypeError``, and an integer
    beyond the float range ``ValueError``."""
    rows = obj[key]
    if not (isinstance(rows, list) and all(
            isinstance(row, list) and _JSON_NUMBERS.issuperset(map(type, row))
            for row in rows)):
        raise TypeError(f"{key!r} must be a list of rows of numbers")
    try:
        return np.array(rows, dtype=float)
    except OverflowError:
        raise ValueError("matrix entries must be finite numbers") from None


def matrix_from_json(obj: dict) -> np.ndarray:
    """Decode a matrix produced by :func:`matrix_to_json`.

    A missing key, a size that is not a JSON integer or an entry that is
    not a JSON number raises ``ValueError("malformed matrix object: ...")``,
    and entries that do not fill ``rows x cols`` a plain ``ValueError``.
    Entries may be ``inf`` or ``nan``: the ``KrausChannel`` and
    ``ChoiMatrix`` constructors refuse them."""
    try:
        rows, cols = _json_int(obj, "rows"), _json_int(obj, "cols")
        re, im = _json_rows(obj, "re"), _json_rows(obj, "im")
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc
    if re.shape != (rows, cols) or im.shape != (rows, cols):
        raise ValueError(
            f"matrix entries have shape {re.shape}/{im.shape}, "
            f"expected ({rows}, {cols})")
    with np.errstate(invalid="ignore"):  # 1j * inf is nan+infj, quietly
        return re + 1j * im
