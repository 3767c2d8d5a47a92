"""Dense complex linear algebra for 2x2 and 4x4 Hermitian problems.

Everything a two-qubit density-matrix calculation needs and nothing more:
Kronecker products, partial traces, a Hermitian eigendecomposition with a
deterministic ordering convention, and the PSD matrix square root.  All
functions are pure and operate on plain ``numpy`` arrays (``complex`` dtype).

``hermitian_defect``, ``eig_hermitian`` and ``sqrt_psd`` take one ``(4, 4)``
matrix or a stack of shape ``(..., 4, 4)`` and treat every matrix of a stack
exactly as they treat it alone, bit for bit: one batched ``eigh`` replaces a
Python loop over matrices.  A check that fails for any matrix of a stack
raises for the whole stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotHermitianError, NotPSDError

# Tolerances used throughout the package.
HERMITICITY_TOL = 1e-10
# Eigenvalues in [-EIG_CLAMP, 0) are floating-point drift and are clamped to 0.
EIG_CLAMP = 1e-12
# Eigenvalues below -PSD_REJECT mean the input is genuinely not PSD.
PSD_REJECT = 1e-8

_COLUMNS = np.arange(4)


def _as_square(m: np.ndarray, dim: int, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.shape != (dim, dim):
        raise DomainError(f"{name} must be {dim}x{dim}, got shape {m.shape}")
    return m


def as_stack(m: np.ndarray, name: str = "m") -> np.ndarray:
    """``m`` as a complex array of shape ``(..., 4, 4)``; raises ``DomainError`` otherwise."""
    m = np.asarray(m, dtype=complex)
    if m.shape[-2:] != (4, 4):
        raise DomainError(f"{name} must be 4x4 or a stack of 4x4 matrices, got shape {m.shape}")
    return m


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return m.conj().swapaxes(-1, -2)


def hermitian_defect(m: np.ndarray) -> float:
    """Largest entrywise deviation of ``m``, or of any matrix of a stack, from
    its conjugate transpose."""
    m = np.asarray(m, dtype=complex)
    return float(np.abs(m - dagger(m)).max())


def kron2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two single-qubit operators, (A x B)[2i+k, 2j+l] = A[i,j] B[k,l]."""
    a = _as_square(a, 2, "a")
    b = _as_square(b, 2, "b")
    return np.kron(a, b)


def partial_trace(rho: np.ndarray, keep: str) -> np.ndarray:
    """Trace out one qubit of a two-qubit operator.

    Parameters
    ----------
    rho : (4, 4) array
        Two-qubit operator in the |00>,|01>,|10>,|11> product basis.
    keep : {"first", "second"}
        Which subsystem survives.

    Returns
    -------
    (2, 2) array.  Unit trace and Hermiticity are inherited from the input.
    """
    rho = _as_square(rho, 4, "rho")
    r = rho.reshape(2, 2, 2, 2)
    if keep == "first":
        return np.einsum("ikjk->ij", r)
    if keep == "second":
        return np.einsum("kikj->ij", r)
    raise DomainError(f"keep must be 'first' or 'second', got {keep!r}")


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (descending) and matching orthonormal eigenvector columns.

    For a stack, ``eigenvalues`` has shape ``(..., 4)`` and ``eigenvectors``
    ``(..., 4, 4)``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """Sum of lambda_i |v_i><v_i|; equals the decomposed matrix up to round-off."""
        v = self.eigenvectors
        return (v * self.eigenvalues[..., None, :]) @ dagger(v)


def _canonical_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column of each (4, 4) matrix of an (N, 4, 4) stack so its
    largest-magnitude component is real and positive.

    The columns are unit vectors, so that component is at least 1/2 in size.
    """
    rows = np.abs(vectors).argmax(axis=1)
    a = vectors[np.arange(len(vectors))[:, None], rows, _COLUMNS]
    # hypot rounds as the scalar abs() of one component does; np.abs on a
    # complex array may differ from it in the last bit.
    return vectors * (np.conj(a) / np.hypot(a.real, a.imag))[:, None, :]


def _order_ties(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Order eigenvector columns inside each run of exactly equal eigenvalues.

    ``w`` is (N, 4) and descending, ``v`` the (N, 4, 4) eigenvectors.  Columns
    of a run are sorted by their components rounded to 12 digits, negated
    real parts first, then negated imaginary parts; columns of different runs
    keep their places.
    """
    tied = w[:, 1:] == w[:, :-1]
    if not tied.any():
        return v
    run = np.concatenate([np.zeros_like(tied[:, :1]), ~tied], axis=1).cumsum(axis=1)
    real = np.round(-v.real, 12).swapaxes(0, 1)
    imag = np.round(-v.imag, 12).swapaxes(0, 1)
    # np.lexsort sorts by its last key first: run, then real rows 0..3, then imag rows 0..3.
    order = np.lexsort([*imag[::-1], *real[::-1], run], axis=-1)
    return np.take_along_axis(v, order[:, None, :], axis=-1)


def eig_hermitian(m: np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian 4x4 matrix, or of each matrix of a
    ``(..., 4, 4)`` stack, with deterministic ordering.

    Eigenvalues are sorted descending; exact ties are broken by comparing the
    phase-canonicalized eigenvector components so that repeated runs (and
    regression files) always see the same layout.

    Raises
    ------
    NotHermitianError
        If the asymmetry of ``m`` (of any matrix of a stack) exceeds
        ``HERMITICITY_TOL``.
    """
    m = as_stack(m)
    flat = m.reshape(-1, 4, 4)
    flat_dagger = dagger(flat)
    defect = float(np.abs(flat - flat_dagger).max())
    if defect > HERMITICITY_TOL:
        raise NotHermitianError(f"asymmetry {defect:.3e} exceeds {HERMITICITY_TOL:.0e}")
    w, v = np.linalg.eigh((flat + flat_dagger) / 2)
    # eigh sorts ascending; exact ties are reordered by _order_ties.
    w, v = w[:, ::-1], _canonical_phases(v[:, :, ::-1])
    return SpectralDecomposition(
        eigenvalues=w.reshape(m.shape[:-1]),
        eigenvectors=_order_ties(w, v).reshape(m.shape),
    )


def sqrt_psd(m: np.ndarray) -> np.ndarray:
    """Hermitian square root of a positive-semidefinite 4x4 matrix, or of each
    matrix of a ``(..., 4, 4)`` stack.

    Eigenvalues in [-PSD_REJECT, 0) are treated as round-off and clamped to
    zero; anything more negative, in any matrix of a stack, raises
    ``NotPSDError``.
    """
    dec = eig_hermitian(m)
    w = dec.eigenvalues
    if w.min() < -PSD_REJECT:
        raise NotPSDError(f"minimum eigenvalue {w.min():.3e} below -{PSD_REJECT:.0e}")
    w = np.clip(w, 0.0, None)
    v = dec.eigenvectors
    return (v * np.sqrt(w)[..., None, :]) @ dagger(v)


def is_density_matrix(rho: np.ndarray, tol: float = 1e-10) -> bool:
    """True when ``rho`` is Hermitian, unit-trace and PSD within ``tol``."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[0] != rho.shape[1]:
        return False
    if hermitian_defect(rho) > tol:
        return False
    if abs(np.trace(rho).real - 1.0) > tol:
        return False
    return bool(np.linalg.eigvalsh((rho + rho.conj().T) / 2).min() >= -tol)
