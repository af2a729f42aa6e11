"""Antilinear-symmetry residuals.

Time reversal acts as entrywise complex conjugation in the computational
basis, which turns every antilinear commutation relation into a linear
matrix identity with a single explicit conjugation.  All checks return
relative residuals (Frobenius norms) and never enforce their preconditions
beyond dimension agreement; generalized parities in particular need not be
involutive, so ``involution_defect`` reports that property separately.
"""

from __future__ import annotations

import numpy as np

from . import matrixcore as mc
from .dieudonne import check_quasi_hermitian


def check_pt_symmetry(H, P) -> float:
    """Residual of ``H (P K) = (P K) H`` with K the entrywise conjugation.

    Evaluated as ``||H P - P conj(H)|| / (||H|| ||P||)``; zero iff the
    antilinear commutator vanishes on every vector.
    """
    Hm, Pm = mc.in_range(*mc.square_pair(H, P, "H", "P"))
    return mc.rel_residual(Hm @ Pm - Pm @ np.conj(Hm), Hm, Pm)


def check_pct_symmetry(H, P, C) -> float:
    """Residual of the conjugate-form relation ``H^dagger P C = P C H``.

    Zero iff the product PC intertwines H with its adjoint; when PC equals an
    admissible metric this is exactly the hidden-Hermiticity condition, but
    the check itself requires no positivity of PC.
    """
    Hm, Pm = mc.square_pair(H, P, "H", "P")
    _, Cm = mc.square_pair(Hm, C, "H", "C")
    return check_quasi_hermitian(Hm, Pm @ Cm)


def check_pseudo_hermiticity(H, P) -> float:
    """Residual of ``H^dagger P = P H``.

    The depth-2 chain formalism never requires this condition; the parity
    there is a free parameter with no prescribed relation to H.  The check is
    provided for comparing model families against the literature.
    """
    return check_quasi_hermitian(*mc.square_pair(H, P, "H", "P"))


def involution_defect(P) -> float:
    """Relative residual of ``P^2 = I`` (reported, never enforced)."""
    Pm = mc.as_square_matrix(P, "P")
    return mc.rel_residual(Pm @ Pm - np.eye(Pm.shape[0]), Pm, Pm)
