"""Dense complex matrix primitives.

Everything in this package manipulates plain ``numpy.ndarray`` objects of
dtype complex128.  This module owns the validation helpers (including the
one operand-pair gate ``square_pair`` and the one admissible-metric gate
``require_positive_metric``), the biorthogonal eigendecomposition,
inversion, the package's one matrix exponential and the JSON interchange
format used by every other module and the CLI.

All functions are pure: inputs are never mutated and no module state exists,
so concurrent calls from independent tasks are safe.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    DefectiveMatrix,
    DimensionMismatch,
    ExponentialOverflow,
    InputFormatError,
    NotHermitian,
    NotPositiveDefinite,
    SingularMatrix,
)

#: raw left/right overlap below which a matrix is declared non-diagonalizable
DEFECT_OVERLAP_TOL = 1e-12
#: pivots below this fraction of the max-entry norm abort the elimination
PIVOT_RTOL = 1e-14


def as_square_matrix(A, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex128 array with finite entries."""
    M = np.asarray(A, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {M.shape}")
    if not np.all(np.isfinite(M.real)) or not np.all(np.isfinite(M.imag)):
        raise InputFormatError(f"{name} contains non-finite entries")
    return M


def square_pair(A, B, name_a: str, name_b: str) -> tuple[np.ndarray, np.ndarray]:
    """Coerce two operands with ``as_square_matrix`` and require equal shapes."""
    Am = as_square_matrix(A, name_a)
    Bm = as_square_matrix(B, name_b)
    if Am.shape != Bm.shape:
        raise DimensionMismatch(f"{name_a} {Am.shape} vs {name_b} {Bm.shape}")
    return Am, Bm


def as_vector(v, dim: int | None = None, name: str = "vector") -> np.ndarray:
    """Coerce to a 1-D complex128 array, optionally of prescribed length."""
    x = np.asarray(v, dtype=complex).reshape(-1)
    if dim is not None and x.shape[0] != dim:
        raise DimensionMismatch(f"{name} has length {x.shape[0]}, expected {dim}")
    if not np.all(np.isfinite(x.real)) or not np.all(np.isfinite(x.imag)):
        raise InputFormatError(f"{name} contains non-finite entries")
    return x


def entry_norm(A) -> float:
    """Largest entry magnitude (the norm used for Hermitian defects and pivots)."""
    A = np.asarray(A)
    return float(np.abs(A).max()) if A.size else 0.0


def fro(A) -> float:
    """Frobenius norm (the norm used for all relative residuals).

    A norm outside (1e-140, 1e140) is recomputed on a copy scaled by the
    power of two that brings the largest real or imaginary part into
    [0.5, 1), so squares neither overflow nor underflow.  ``ldexp`` scales
    the parts exactly, which a float factor ``2**e`` cannot do once it
    overflows.
    """
    A = np.asarray(A)
    with np.errstate(over="ignore"):  # an overflow is rescaled below
        norm = float(np.linalg.norm(A))
    if 1e-140 < norm < 1e140 or not np.all(np.isfinite(A)):
        return norm
    e = -int(np.frexp(np.max(np.abs([A.real, A.imag]), initial=0.0))[1])
    scaled = np.ldexp(A.real, e)
    if np.iscomplexobj(A):
        scaled = scaled + 1j * np.ldexp(A.imag, e)
    return float(np.ldexp(np.linalg.norm(scaled), -e))


def rel_residual(diff, *operands) -> float:
    """Relative residual ``||diff|| / prod_k ||operands[k]||`` in Frobenius norms.

    Zero when ``diff`` vanishes and ``inf`` when only the denominator does,
    so a zero operand fails its relation instead of dividing by zero.
    """
    num = fro(diff)
    denom = math.prod(fro(A) for A in operands)
    if num == 0.0:
        return 0.0
    return np.inf if denom == 0.0 else num / denom


def hermitian_defect(A) -> float:
    """Max-entry norm of ``A - A^dagger``; zero iff A is exactly Hermitian."""
    M = as_square_matrix(A)
    return entry_norm(M - M.conj().T)


@dataclass(frozen=True)
class SpectralData:
    """Eigendecomposition with a biorthonormal left/right vector pair.

    ``right_vectors`` holds the right eigenvectors as columns ``|R_n>`` with
    unit 2-norm; ``left_vectors`` holds columns ``|L_n>`` scaled so that
    ``<L_m|R_n> = delta_mn``.  ``condition_estimate`` is ``max_n ||L_n||``,
    the largest Wilkinson eigenvalue condition number: the reciprocal of the
    smallest raw overlap that ``eig``'s defect gate tests.  With unit right
    columns it lies in ``[cond_2(R)/dim, cond_2(R)]`` and is 1 for a normal
    matrix.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray
    condition_estimate: float

    def reconstruct(self) -> np.ndarray:
        """Reassemble ``sum_n lambda_n |R_n><L_n|``."""
        return (self.right_vectors * self.eigenvalues) @ self.left_vectors.conj().T


def eig(A) -> SpectralData:
    """Eigendecompose with deterministic ordering and biorthonormal bases.

    Eigenvalues are sorted ascending by (real, imaginary) part.  Right
    eigenvectors get unit 2-norm and a fixed gauge (largest-magnitude entry
    real positive); left vectors are the rows of the inverted right basis,
    so biorthonormality holds to rounding by construction.

    Raises
    ------
    DefectiveMatrix
        When the raw overlap ``<L_n|R_n>`` of the unit-normalized pair falls
        below ``DEFECT_OVERLAP_TOL``, which signals a (numerically)
        non-diagonalizable input such as an exceptional point.
    """
    M = as_square_matrix(A)
    w, R = np.linalg.eig(M)
    order = np.lexsort((w.imag, w.real))
    w = w[order]
    R = R[:, order]
    R = R / np.linalg.norm(R, axis=0)
    pivot = R[np.abs(R).argmax(axis=0), np.arange(M.shape[0])]
    # hypot, not np.abs: it rounds |pivot| as the scalar abs() does
    R = R * (pivot.conj() / np.hypot(pivot.real, pivot.imag))
    try:
        Rinv = inverse(R)
    except SingularMatrix as exc:
        raise DefectiveMatrix(
            "right eigenvector basis is numerically singular"
        ) from exc
    # Unit-normalized left/right overlaps are 1/||row_n(R^-1)||; a vanishing
    # overlap before rescaling marks a collapsing eigenvector pair.
    raw_overlap = 1.0 / np.linalg.norm(Rinv, axis=1)
    if np.any(raw_overlap < DEFECT_OVERLAP_TOL):
        raise DefectiveMatrix(
            f"left/right overlap {raw_overlap.min():.3e} below "
            f"{DEFECT_OVERLAP_TOL:.0e}: input is defective"
        )
    return SpectralData(w, R, Rinv.conj().T, float(1.0 / raw_overlap.min()))


def spectrum_imag(eigenvalues, scale: float) -> tuple[float, float]:
    """``(max |Im lambda|, max |Im lambda| / max(scale, 1e-300))`` of computed eigenvalues.

    The one spectral-reality measure: with ``scale = fro(H)``, the spectrum
    counts as real when the ratio is at most the caller's tolerance.
    """
    max_imag = float(np.abs(np.asarray(eigenvalues).imag).max())
    return max_imag, max_imag / max(scale, 1e-300)


def is_positive_definite(A, tol: float) -> tuple[bool, float]:
    """Test positive definiteness of a Hermitian matrix.

    Returns ``(flag, lambda_min)`` where ``lambda_min`` is the smallest
    eigenvalue of the Hermitian symmetrization ``(A + A^dagger)/2`` and the
    flag is true iff it exceeds ``tol``.

    Raises NotHermitian when the Hermitian defect of A itself exceeds ``tol``.
    """
    M = as_square_matrix(A)
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    defect = hermitian_defect(M)
    if defect > tol:
        raise NotHermitian(f"Hermitian defect {defect:.3e} exceeds tol {tol:.1e}")
    lam_min = float(np.linalg.eigvalsh((M + M.conj().T) / 2.0)[0])
    return lam_min > tol, lam_min


def positive_metric(Theta) -> tuple[bool, float]:
    """``is_positive_definite`` at the admissible-metric gate.

    The gate is 1e-12 times ``max(1, entry_norm(Theta))``; every check of a
    metric's positivity in the package goes through here.
    """
    return is_positive_definite(Theta, 1e-12 * max(1.0, entry_norm(Theta)))


def require_positive_metric(Theta) -> None:
    """Raise NotPositiveDefinite when ``positive_metric`` refuses Theta."""
    positive, lam_min = positive_metric(Theta)
    if not positive:
        raise NotPositiveDefinite(f"metric has smallest eigenvalue {lam_min:.3e}")


def mat_exp(A) -> np.ndarray:
    """Matrix exponential ``exp(A)``: the package's one exponential.

    Scaling-and-squaring Pade evaluation (``scipy.linalg.expm``, Higham
    2005), which needs no eigenbasis and so holds at defective and
    ill-conditioned inputs alike.

    Raises ExponentialOverflow when the result has a non-finite entry.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        E = scipy.linalg.expm(as_square_matrix(A))
    if not np.all(np.isfinite(E)):
        raise ExponentialOverflow("exp(A) has non-finite entries: A is too large")
    return E


def inverse(A) -> np.ndarray:
    """Invert by LU elimination with partial pivoting.

    Raises SingularMatrix when any pivot magnitude falls below
    ``PIVOT_RTOL`` times the max-entry norm of A.
    """
    M = as_square_matrix(A)
    scale = entry_norm(M)
    with warnings.catch_warnings():
        # exact zero pivots are reported by our own check below
        warnings.simplefilter("ignore")
        lu, piv = scipy.linalg.lu_factor(M, check_finite=False)
    pivots = np.abs(np.diag(lu))
    if pivots.size == 0 or pivots.min() <= PIVOT_RTOL * scale:
        raise SingularMatrix(
            f"pivot {pivots.min() if pivots.size else 0.0:.3e} below "
            f"{PIVOT_RTOL:.0e} * {scale:.3e}"
        )
    ident = np.eye(M.shape[0], dtype=complex)
    return scipy.linalg.lu_solve((lu, piv), ident, check_finite=False)


# ---------------------------------------------------------------------------
# JSON interchange: {"dim": n, "re": [n*n reals], "im": [n*n reals]} row-major.
# Round-trips bit-exactly for every finite 64-bit float.
# ---------------------------------------------------------------------------

def _to_json(x: np.ndarray) -> dict:
    return {
        "dim": int(x.shape[0]),
        "re": x.real.ravel().tolist(),
        "im": x.imag.ravel().tolist(),
    }


def _from_json(obj, what: str, rank: int) -> np.ndarray:
    """Entries of an interchange dict holding ``dim**rank`` values."""
    try:
        dim = int(obj["dim"])
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"bad {what} object: {exc}") from exc
    if dim <= 0 or re.shape != (dim**rank,) or im.shape != (dim**rank,):
        raise InputFormatError(
            f"{what} object dim {dim} inconsistent with array lengths "
            f"{re.size}/{im.size}"
        )
    return (re + 1j * im).reshape((dim,) * rank)


def matrix_to_json(A) -> dict:
    """Serialize a square complex matrix to the shared interchange dict."""
    return _to_json(as_square_matrix(A))


def matrix_from_json(obj) -> np.ndarray:
    """Parse the shared interchange dict back into a complex matrix."""
    return as_square_matrix(_from_json(obj, "matrix", 2))


def vector_to_json(v) -> dict:
    """Serialize a complex vector ({"dim": n, "re": [...], "im": [...]})."""
    return _to_json(as_vector(v))


def vector_from_json(obj) -> np.ndarray:
    return as_vector(_from_json(obj, "vector", 1))


def read_json(path, what: str):
    """Parse a JSON file, mapping I/O and syntax errors to InputFormatError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputFormatError(f"cannot read {what} file {path}: {exc}") from exc


def load_matrix(path) -> np.ndarray:
    """Read a matrix interchange JSON file."""
    return matrix_from_json(read_json(path, "matrix"))


def load_vector(path) -> np.ndarray:
    """Read a vector interchange JSON file."""
    return vector_from_json(read_json(path, "vector"))
