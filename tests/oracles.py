"""Independent oracles used by the test suite.

Each function here deliberately takes a different computational route from
the package code it checks, so agreement is evidence rather than tautology.
"""

import math

import mpmath
import numpy as np

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_FLIP = np.kron(_SIGMA_Y, _SIGMA_Y).real


def oracle_concurrence(rho: np.ndarray) -> float:
    """Brute-force concurrence via the non-Hermitian product's eigenvalues.

    The package route goes through PSD square roots and singular values;
    this one feeds rho @ rho~ straight to a general eigensolver.
    """
    rho = np.asarray(rho, dtype=complex)
    rho_tilde = _FLIP @ rho.conj() @ _FLIP
    lam = np.linalg.eigvals(rho @ rho_tilde)
    lam = np.sort(np.abs(lam.real))[::-1]
    roots = np.sqrt(lam)
    return max(0.0, float(roots[0] - roots[1] - roots[2] - roots[3]))


def oracle_concurrence_mp(rho: np.ndarray, dps: int = 40) -> float:
    """Concurrence of a real state from rho @ rho~ eigenvalues at ``dps`` digits.

    The double-precision oracle's square roots turn round-off in the
    eigenvalues near zero into errors of about 1e-8 at rank-deficient states.
    Here the float entries are taken exactly and the general eigensolve runs
    in mpmath at 40 digits, so the result is the float matrix's concurrence
    to far below double precision.
    """
    rho = np.asarray(rho)
    if np.iscomplexobj(rho):
        raise ValueError("oracle_concurrence_mp takes real states")
    with mpmath.workdps(dps):
        m = mpmath.matrix(rho.tolist())
        flip = mpmath.matrix(_FLIP.tolist())
        lam = mpmath.eig(m * flip * m * flip, left=False, right=False)
        roots = sorted((mpmath.sqrt(max(mpmath.re(v), 0)) for v in lam), reverse=True)
        return max(0.0, float(roots[0] - roots[1] - roots[2] - roots[3]))


def werner_concurrence(p: float) -> float:
    """Exact concurrence of ``p * (singlet projector) + (1-p) I/4``."""
    return max(0.0, (3.0 * p - 1.0) / 2.0)


def pure_ket_concurrence(x: float) -> float:
    """Concurrence of the pure ket sqrt(1-x^2)|01> + x|10>.

    For a pure two-qubit state C = 2 |ad - bc| on amplitudes (a, b, c, d);
    here only b, c are nonzero.
    """
    return 2.0 * x * math.sqrt(1.0 - x * x)


def manual_partial_trace(rho: np.ndarray, keep: str) -> np.ndarray:
    """Index-loop partial trace, independent of the package's einsum route."""
    rho = np.asarray(rho, dtype=complex)
    out = np.zeros((2, 2), dtype=complex)
    for a in range(2):
        for b in range(2):
            for k in range(2):
                if keep == "first":
                    out[a, b] += rho[2 * a + k, 2 * b + k]
                else:
                    out[a, b] += rho[2 * k + a, 2 * k + b]
    return out


def random_density(rng: np.random.Generator, dim: int = 4) -> np.ndarray:
    """Full-rank random density matrix (Ginibre construction)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    """Haar-ish random unitary from a QR decomposition."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def central_difference(f, theta: float, h: float = 1e-6) -> float:
    """Two-point central difference derivative oracle."""
    return (f(theta + h) - f(theta - h)) / (2.0 * h)
