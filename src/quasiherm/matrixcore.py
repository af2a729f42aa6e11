"""Dense complex matrix primitives.

Everything in this package manipulates plain ``numpy.ndarray`` objects of
dtype complex128.  This module owns the validation helpers (including the
one operand-pair gate ``square_pair``, the one Hermitian gate
``require_hermitian`` and the one admissible-metric gate
``is_positive_definite``), the biorthogonal eigendecomposition,
inversion, the package's one matrix exponential (its Pade routine is
imported on the first call, so importing this module loads numpy alone),
the JSON interchange format used by every other module and the CLI, and the
one CSV encoder behind every CSV report.

All functions are pure: inputs are never mutated and no module state exists,
so concurrent calls from independent tasks are safe.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadRange,
    DefectiveMatrix,
    DimensionMismatch,
    ExponentialOverflow,
    InputFormatError,
    NotHermitian,
    NotPositiveDefinite,
    SingularMatrix,
)

#: raw left/right overlap below which a matrix is declared non-diagonalizable
DEFECT_OVERLAP_TOL = 1e-7
#: reciprocal 1-norm condition number an invertible matrix must exceed
PIVOT_RTOL = 1e-14
#: Hermitian defect, relative to the largest entry, above which a matrix is refused
HERM_RTOL = 1e-12
#: smallest eigenvalue, relative to the largest entry, an admissible metric must exceed
PD_RTOL = 1e-12


def as_square_matrix(A, name: str = "matrix", ndim: int = 2) -> np.ndarray:
    """Coerce to a square complex128 array with finite entries.

    ``ndim=3`` asks for a ``(k, n, n)`` stack of k square matrices instead.
    """
    M = np.asarray(A, dtype=complex)
    if M.ndim != ndim or M.shape[-1] != M.shape[-2]:
        raise DimensionMismatch(f"{name} must be square, got shape {M.shape}")
    if not np.isfinite(M).all():  # a complex entry is finite iff both parts are
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
    if not np.isfinite(x).all():
        raise InputFormatError(f"{name} contains non-finite entries")
    return x


def as_tolerance(tol) -> float:
    """The one check of a tolerance: ``float(tol)`` if positive and finite, else BadRange."""
    if not 0.0 < tol < math.inf:
        raise BadRange(f"tol must be positive and finite, got {tol}")
    return float(tol)


def entry_norm(A) -> float:
    """Largest entry magnitude (the norm used for Hermitian defects and gates)."""
    A = np.asarray(A)
    return float(np.abs(A).max()) if A.size else 0.0


def fro(A) -> float:
    """Frobenius norm (the norm used for all relative residuals).

    A norm outside (1e-140, 1e140) is recomputed on the ``_unit_scaled``
    copy, so squares neither overflow nor underflow.
    """
    A = np.asarray(A)
    with np.errstate(over="ignore"):  # an overflow is rescaled below
        norm = float(np.linalg.norm(A))
    if 1e-140 < norm < 1e140 or not np.all(np.isfinite(A)):
        return norm
    scaled, e = _unit_scaled(A)
    return float(np.ldexp(np.linalg.norm(scaled), -e.item()))


def _unit_scaled(A, axis=None) -> tuple[np.ndarray, np.ndarray]:
    """``(A * 2**e, e)`` with the largest real or imaginary part in [0.5, 1),
    exact (signed zeros included) even where the float ``2.0**e`` overflows.

    The largest part is taken over ``axis`` (all of A by default; ``(-2, -1)``
    scales each matrix of a stack on its own); ``e`` keeps the reduced axes.
    """
    A = np.ascontiguousarray(A, dtype=np.result_type(A, np.float64))
    peak = np.max(np.abs(A.view(np.float64)), axis=axis, keepdims=True, initial=0.0)
    e = -np.frexp(peak)[1]
    return np.ldexp(A.view(np.float64), e).view(A.dtype), e


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
    so biorthonormality holds to rounding by construction.  This is
    ``eig_stack`` on a stack of one.

    Raises
    ------
    DefectiveMatrix
        When the raw overlap ``<L_n|R_n>`` of the unit-normalized pair falls
        below ``DEFECT_OVERLAP_TOL``, which signals a (numerically)
        non-diagonalizable input such as an exceptional point.
    """
    (w,), (R,), (L,), (overlap,), (defective,) = _eig_stack(as_square_matrix(A)[None])
    if defective:
        raise DefectiveMatrix(
            "right eigenvector basis is numerically singular" if np.isnan(overlap) else
            f"left/right overlap {overlap:.3e} below "
            f"{DEFECT_OVERLAP_TOL:.0e}: input is defective"
        )
    return SpectralData(w, R, L, float(1.0 / overlap))


def eig_stack(A) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``eig`` over a ``(k, n, n)`` stack, flagging defective members instead of raising.

    Returns ``(eigenvalues, right_vectors, left_vectors, overlap, defective)``
    of shapes ``(k, n)``, ``(k, n, n)``, ``(k, n, n)``, ``(k,)`` and ``(k,)``:
    per member, the arrays ``eig`` returns (bit for bit), the smallest raw
    left/right overlap (NaN where the right basis fails ``inverse``'s gate)
    and the flag on which ``eig`` raises DefectiveMatrix.  The left vectors
    of a defective member are meaningless.
    """
    return _eig_stack(as_square_matrix(A, "(k, n, n) stack", ndim=3))


def _eig_stack(M):
    """``eig_stack`` on a validated stack."""
    w, R = np.linalg.eig(M)
    member, n = np.arange(len(M))[:, None], M.shape[-1]
    order = np.lexsort((w.imag, w.real), axis=-1)
    w = w[member, order]
    # The sorted columns as contiguous rows: the norm then sums each one
    # pairwise in memory order, so its rounding is the same in any stack.
    columns = R.swapaxes(-1, -2)[member, order]
    R = (columns / np.linalg.norm(columns, axis=-1, keepdims=True)).swapaxes(-1, -2)
    pivot = R[member, np.abs(R).argmax(axis=-2), np.arange(n)][:, None, :]
    # hypot, not np.abs: it rounds |pivot| as the scalar abs() does
    R = R * (pivot.conj() / np.hypot(pivot.real, pivot.imag))
    Rinv, _, invertible = _scaled_inverse(R)
    # Unit-normalized left/right overlaps are 1/||row_n(R^-1)||; a vanishing
    # overlap before rescaling marks a collapsing eigenvector pair.  Only a
    # member that failed the inverse gate can overflow here, and it reads NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        overlap = np.where(invertible, (1.0 / np.linalg.norm(Rinv, axis=-1)).min(axis=-1), np.nan)
    defective = ~invertible | (overlap < DEFECT_OVERLAP_TOL)
    return w, R, Rinv.conj().swapaxes(-1, -2), overlap, defective


def spectrum_imag(eigenvalues, scale):
    """``(max |Im lambda|, max |Im lambda| / scale)`` of computed eigenvalues.

    The one spectral-reality measure: with ``scale = fro(H)``, the spectrum
    counts as real when the ratio is at most the caller's tolerance.  It
    divides like ``rel_residual`` (0 for a real spectrum, inf for a zero
    scale alone); a ``(k, n)`` stack of spectra with k scales gives k of each.
    """
    max_imag = np.abs(np.asarray(eigenvalues).imag).max(axis=-1)
    with np.errstate(divide="ignore"):  # a zero scale under a nonzero part reads inf
        ratio = max_imag / np.where(max_imag > 0.0, scale, 1.0)
    return max_imag, ratio


def require_hermitian(M, what: str, error=NotHermitian) -> None:
    """The one Hermitian gate: raise ``error`` unless the Hermitian defect
    of M is at most ``HERM_RTOL * entry_norm(M)`` (a NaN defect fails)."""
    defect = hermitian_defect(M)
    if not defect <= HERM_RTOL * entry_norm(M):
        raise error(f"{what} has Hermitian defect {defect:.3e} above "
                    f"{HERM_RTOL:.0e} times its largest entry")


def is_positive_definite(Theta) -> tuple[bool, float]:
    """The admissible-metric gate: ``(flag, lambda_min)``.

    Theta must pass ``require_hermitian`` (NotHermitian otherwise).
    ``lambda_min`` is the smallest eigenvalue of ``(Theta + Theta^dagger)/2``,
    and the flag is true iff it exceeds ``PD_RTOL * entry_norm(Theta)``.
    Both gates are relative, so ``c * Theta`` gets Theta's verdict for every
    c > 0: a metric is fixed only up to a positive factor.
    """
    M = as_square_matrix(Theta, "Theta")
    require_hermitian(M, "metric")
    lam_min = float(np.linalg.eigvalsh((M + M.conj().T) / 2.0)[0])
    return lam_min > PD_RTOL * entry_norm(M), lam_min


def require_positive_metric(Theta) -> None:
    """Raise NotPositiveDefinite when ``is_positive_definite`` refuses Theta."""
    positive, lam_min = is_positive_definite(Theta)
    if not positive:
        raise NotPositiveDefinite(f"metric has smallest eigenvalue {lam_min:.3e}")


def mat_exp(A) -> np.ndarray:
    """Matrix exponential ``exp(A)``: the package's one exponential.

    Scaling-and-squaring Pade evaluation (``scipy.linalg.expm``, Higham
    2005), which needs no eigenbasis and so holds at defective and
    ill-conditioned inputs alike.  scipy is imported on the first call.

    Raises ExponentialOverflow when the result has a non-finite entry.
    """
    import scipy.linalg
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        E = scipy.linalg.expm(as_square_matrix(A))
    if not np.all(np.isfinite(E)):
        raise ExponentialOverflow("exp(A) has non-finite entries: A is too large")
    return E


def inverse(A) -> np.ndarray:
    """Invert the ``_unit_scaled`` copy S by ``np.linalg.inv`` and scale back.

    Raises SingularMatrix on an empty, exactly singular or overflowing case
    and unless ``1 / (||S||_1 ||S^-1||_1) > PIVOT_RTOL`` (scale-free rcond).
    """
    M = as_square_matrix(A)
    if M.size == 0:
        raise SingularMatrix("an empty matrix has no inverse")
    inv, rcond, invertible = _scaled_inverse(M[None])
    if invertible[0]:
        return inv[0]
    if np.isnan(rcond[0]):
        raise SingularMatrix("matrix is exactly singular")
    if np.isfinite(inv).all():
        raise SingularMatrix(f"reciprocal condition {rcond[0]:.3e} not above {PIVOT_RTOL:.0e}")
    raise SingularMatrix(f"inverse overflows: largest matrix entry {entry_norm(M):.3e}")


def _scaled_inverse(M) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(inverse, rcond, invertible)`` of each member of a ``(k, n, n)`` stack.

    Each member is inverted as its ``_unit_scaled`` copy S and scaled back.
    It is invertible iff ``rcond = 1 / (||S||_1 ||S^-1||_1) > PIVOT_RTOL`` and
    its inverse is finite; an exactly singular member gets NaN entries and a
    NaN rcond, which fail the gate without sinking the rest of the stack.
    """
    S, e = _unit_scaled(M, axis=(-2, -1))
    Sinv = _inv_or_nan(S)
    with np.errstate(over="ignore"):  # an overflow fails the gate below
        rcond = 1.0 / (_norm1(S) * _norm1(Sinv))
        inv = np.ldexp(Sinv.view(np.float64), e).view(complex)
    invertible = (rcond > PIVOT_RTOL) & np.isfinite(inv).all(axis=(-2, -1))
    return inv, rcond, invertible


def _norm1(S) -> np.ndarray:
    """Matrix 1-norm of each member of a stack."""
    return np.abs(S).sum(axis=-2).max(axis=-1)


def _inv_or_nan(S) -> np.ndarray:
    """``np.linalg.inv`` of a stack, with NaN entries for an exactly singular member."""
    try:
        return np.linalg.inv(S)
    except np.linalg.LinAlgError:
        if S.ndim == 2:
            return np.full_like(S, np.nan)
        return np.stack([_inv_or_nan(member) for member in S])


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


def json_int(value, what: str) -> int:
    """A JSON integer; any other value (``2.5``, ``"2"``, ``true``) is refused."""
    if type(value) is not int:
        raise InputFormatError(f"{what} must be a JSON integer, got {value!r}")
    return value


def _from_json(obj, what: str, rank: int) -> np.ndarray:
    """Entries of an interchange dict holding ``dim**rank`` values."""
    try:
        dim = json_int(obj["dim"], f"{what} dim")
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


def csv_text(header, rows) -> str:
    """CSV text of a header row and ``rows``, with ``\\n`` line ends.

    A Python ``int`` cell (a 0/1 flag) is written as it is; every other cell
    as ``repr(float(x))``, the shortest text that reads back to the same
    64-bit float, so each cell equals the JSON report's value bit for bit.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([x if type(x) is int else repr(float(x)) for x in row] for row in rows)
    return buf.getvalue()
