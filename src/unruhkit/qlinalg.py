"""Dense linear algebra for 2x2 and 4x4 Hermitian problems.

Everything a two-qubit density-matrix calculation needs and nothing more:
Kronecker products, partial traces, a Hermitian eigendecomposition with
descending eigenvalues and LAPACK's eigenvector layout, and the PSD matrix
square root.  All functions are pure and operate on plain ``numpy`` arrays.
A real input stays real: float64 in gives float64 out, so a real symmetric
state goes through LAPACK's real symmetric driver (``dsyevd``), and only a
complex input is computed in complex128.  Integer input becomes float64.

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
# Eigenvalues below -PSD_REJECT mean the input is genuinely not PSD.
PSD_REJECT = 1e-8


def _as_inexact(m) -> np.ndarray:
    """``m`` as a float64 array, or as complex128 if it is complex."""
    m = np.asarray(m)
    return m.astype(complex if np.iscomplexobj(m) else float, copy=False)


def as_stack(m: np.ndarray, name: str = "m") -> np.ndarray:
    """``m`` as a float64 (complex128 if complex) array of shape ``(..., 4, 4)``;
    raises ``DomainError`` otherwise."""
    m = _as_inexact(m)
    if m.shape[-2:] != (4, 4):
        raise DomainError(f"{name} must be 4x4 or a stack of 4x4 matrices, got shape {m.shape}")
    return m


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return m.conj().swapaxes(-1, -2)


def hermitian_defect(m: np.ndarray) -> float:
    """Largest entrywise deviation of ``m``, or of any matrix of a stack, from
    its conjugate transpose."""
    m = _as_inexact(m)
    return float(np.abs(m - dagger(m)).max(initial=0.0))


def kron2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two single-qubit operators, (A x B)[2i+k, 2j+l] = A[i,j] B[k,l]."""
    a, b = _as_inexact(a), _as_inexact(b)
    for name, m in (("a", a), ("b", b)):
        if m.shape != (2, 2):
            raise DomainError(f"{name} must be 2x2, got shape {m.shape}")
    return np.kron(a, b)


def partial_trace(rho: np.ndarray, keep: str) -> np.ndarray:
    """Trace out one qubit of a two-qubit operator.

    Parameters
    ----------
    rho : (..., 4, 4) array
        Two-qubit operator(s) in the |00>,|01>,|10>,|11> product basis.
    keep : {"first", "second"}
        Which subsystem survives.

    Returns
    -------
    (..., 2, 2) array.  Unit trace and Hermiticity are inherited from the input.
    """
    rho = as_stack(rho, "rho")
    r = rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))
    if keep == "first":
        return np.einsum("...ikjk->...ij", r)
    if keep == "second":
        return np.einsum("...kikj->...ij", r)
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


def eig_hermitian(m: np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian 4x4 matrix, or of each matrix of a
    ``(..., 4, 4)`` stack.

    Eigenvalues come back descending.  The eigenvector layout (phases, and
    the basis chosen inside a degenerate eigenspace) is LAPACK's, the same on
    every run with a given build.

    Raises
    ------
    NotHermitianError
        If the asymmetry of ``m`` (of any matrix of a stack) exceeds
        ``HERMITICITY_TOL``.
    """
    m = as_stack(m)
    defect = hermitian_defect(m)
    if defect > HERMITICITY_TOL:
        raise NotHermitianError(f"asymmetry {defect:.3e} exceeds {HERMITICITY_TOL:.0e}")
    w, v = np.linalg.eigh((m + dagger(m)) / 2)
    return SpectralDecomposition(eigenvalues=w[..., ::-1], eigenvectors=v[..., ::-1])


def sqrt_psd(m: np.ndarray) -> np.ndarray:
    """Hermitian square root of a positive-semidefinite 4x4 matrix, or of each
    matrix of a ``(..., 4, 4)`` stack.

    Eigenvalues in [-PSD_REJECT, 0) are treated as round-off and clamped to
    zero; anything more negative, in any matrix of a stack, raises
    ``NotPSDError``.  Positive round-off eigenvalues are kept, so the root of
    a rank-deficient matrix carries null-space entries of about 1e-8 (the
    square root of ~1e-16); two routes to such a root agree in its square,
    not entrywise.
    """
    dec = eig_hermitian(m)
    w = dec.eigenvalues
    if w.min(initial=0.0) < -PSD_REJECT:
        raise NotPSDError(f"minimum eigenvalue {w.min():.3e} below -{PSD_REJECT:.0e}")
    w = np.clip(w, 0.0, None)
    v = dec.eigenvectors
    return (v * np.sqrt(w)[..., None, :]) @ dagger(v)


def clip_at_zero(value):
    """Python's ``max(0.0, value)`` as a float, or entrywise as a float64 array,
    except that NaN stays NaN (``np.maximum(0.0, -0.0)`` would give -0.0)."""
    value = np.asarray(value, dtype=float)
    value = np.where(value <= 0.0, 0.0, value)
    return float(value) if value.ndim == 0 else value


def is_density_matrix(rho: np.ndarray, tol: float = 1e-10) -> bool:
    """True when ``rho`` is one square matrix that is Hermitian, unit-trace
    and PSD within ``tol``; False for anything else, stacks included."""
    rho = _as_inexact(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        return False
    if hermitian_defect(rho) > tol:
        return False
    if abs(np.trace(rho).real - 1.0) > tol:
        return False
    return bool(np.linalg.eigvalsh((rho + rho.conj().T) / 2).min() >= -tol)
