"""Symmetric tridiagonal eigensolver: LAPACK ``?stemr`` through scipy.

Every invariant block of the coupled molecule-field Hamiltonian is a
real symmetric tridiagonal matrix.  Both entry points call LAPACK's
MRRR routine (Dhillon & Parlett, "Multiple representations to compute
orthogonal eigenvectors of symmetric tridiagonal matrices", LAA 387,
2004), named explicitly so the algorithm does not follow scipy's
``lapack_driver="auto"`` default from one release to the next.
"""

import numpy as np
from scipy.linalg import LinAlgError, eigh_tridiagonal, eigvalsh_tridiagonal

_DRIVER = "stemr"


class ConvergenceError(RuntimeError):
    """An iterative solve hit its iteration cap before converging."""


def tridiag_eigh(diagonal, offdiagonal):
    """Full eigendecomposition of a real symmetric tridiagonal matrix.

    Returns (eigenvalues ascending, eigenvector matrix with column k the
    k-th eigenvector).  Eigenvector signs follow a fixed convention: the
    first component whose magnitude exceeds 1e-12 of the column maximum
    is made positive, so repeated runs are bit-reproducible.

    Raises ConvergenceError if LAPACK reports that it did not converge.
    """
    try:
        values, vectors = eigh_tridiagonal(diagonal, offdiagonal, lapack_driver=_DRIVER)
    except LinAlgError as exc:
        raise ConvergenceError(str(exc)) from exc
    _fix_signs(vectors)
    return values, vectors


def tridiag_eigvalsh(diagonal, offdiagonal):
    """Ascending eigenvalues only; same solver and errors as ``tridiag_eigh``."""
    try:
        return eigvalsh_tridiagonal(diagonal, offdiagonal, lapack_driver=_DRIVER)
    except LinAlgError as exc:
        raise ConvergenceError(str(exc)) from exc


def _fix_signs(vectors) -> None:
    magnitude = np.abs(vectors)
    lead = np.argmax(magnitude > 1e-12 * magnitude.max(axis=0), axis=0)
    vectors *= np.where(vectors[lead, np.arange(vectors.shape[1])] < 0.0, -1.0, 1.0)
