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


def _surd(value):
    """Square root of a radicand that is exactly 0 where it is within 50-digit
    round-off below it."""
    return mpmath.sqrt(max(value, 0))


def printed_concurrence_white(x: float, p: float, r: float, k: float = 0.5, dps: int = 50) -> float:
    """The white-noise closed form as printed, at ``dps`` digits, with final
    surd coefficient k (printed 4, corrected 1/2)."""
    with mpmath.workdps(dps):
        x, p, r = map(mpmath.mpf, (x, p, r))
        cr, x2 = mpmath.cos(r), x * x
        w1 = (5 + 6 * p - 11 * p**2 + 4 * p * (1 + 31 * p) * x2 - 128 * p**2 * x2**2) * cr
        w2 = 16 * mpmath.sqrt(2) * p * x * cr * _surd(
            (1 - x2) * (1 - p + 4 * p * x2) * (3 + 5 * p - 8 * p * x2 - (1 - p) * mpmath.cos(2 * r))
        )
        w3 = (p - 1) * (1 - p + 4 * p * x2) * mpmath.cos(3 * r)
        w4 = cr**2 * (1 - p) * (1 - p + (1 + p * (4 * x2 - 1)) * mpmath.sin(r) ** 2)
        value = (_surd(cr * (w1 + w2 + w3)) - _surd(cr * (w1 - w2 + w3))) / 8 - k * _surd(w4)
        return float(max(value, 0))


def printed_concurrence_color(x: float, q: float, r: float, dps: int = 50) -> float:
    """The color-noise closed form as printed, at ``dps`` digits."""
    with mpmath.workdps(dps):
        x, q, r = map(mpmath.mpf, (x, q, r))
        cr, x2 = mpmath.cos(r), x * x
        c1 = cr - q**2 * cr * (1 - 8 * x2 + 8 * x2**2)
        c2 = 4 * q * x * cr * _surd((1 - x2) * (1 - q**2 * (1 - 2 * x2) ** 2))
        return float(max((_surd(cr * (c1 + c2)) - _surd(cr * (c1 - c2))) / 2, 0))


def printed_concurrence_whitecolor(
    x: float, p: float, q: float, r: float, cos_r_weighted: bool = False, dps: int = 50
) -> float:
    """The combined white+color closed form as printed, or its cos-r reading,
    at ``dps`` digits.  g = 1-p-q is taken in doubles as the state builder
    takes it, so it is exactly 0 on the edge q = 1.0 - p."""
    g = (1.0 - p) - q
    with mpmath.workdps(dps):
        x, p, q, r, g = map(mpmath.mpf, (x, p, q, r, g))
        cr, x2 = mpmath.cos(r), x * x
        eta1 = 1 - p + q
        a1 = (
            5 + 6 * p - 11 * p**2 + 8 * q + 8 * p * q + 3 * q**2
            + 4 * p * (1 + 31 * p - q) * x2 - 128 * p**2 * x2**2
        )
        a2 = 16 * mpmath.sqrt(2) * _surd(
            -(p**2) * x2 * (x2 - 1) * (eta1 + 4 * p * x2) * cr**2
            * (3 + 5 * p + q - 8 * p * x2 - g * mpmath.cos(2 * r))
        )
        a3 = -g * (eta1 + 4 * p * x2) * mpmath.cos(3 * r)
        a4 = g * cr**2 * (g + (1 + q + p * (4 * x2 - 1)) * mpmath.sin(r) ** 2)
        weight = cr if cos_r_weighted else 1
        low = weight * (a1 * weight - a2 + a3)
        high = weight * (a1 * weight + a2 + a3)
        return float(max((_surd(high) - _surd(low)) / 8 - _surd(a4) / 2, 0))


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


def _xstate_mp(cp, cq, g, x, r):
    """The accelerated state's entries (d00, d11, d22, d33, rho12), in mpmath.

    The initial mixture cp P_phi + (cq/2)(|01><01| + |10><10|) + g I/4, with
    g = 1 - cp - cq, goes through the Kraus pair diag(cos r, 1), sin r |1><0|
    on the second qubit; rho12 is the |01>,|10> coherence.
    """
    c, s = mpmath.cos(r), mpmath.sin(r)
    g = g / 4
    a01 = cp * (1 - x**2) + cq / 2 + g
    a10 = cp * x**2 + cq / 2 + g
    return c**2 * g, a01 + s**2 * g, c**2 * a10, a10 * s**2 + g, cp * x * mpmath.sqrt(1 - x**2) * c


def oracle_concurrence_xstate_mp(channel: str, x: float, p: float = 0.0, q: float = 0.0, r: float = 0.0,
                                 dps: int = 50) -> float:
    """Concurrence of the accelerated state at ``dps`` digits from the X-state
    formula C = 2 max(0, |rho12| - sqrt(rho00 rho33)) (Yu and Eberly, Quantum
    Inf. Comput. 7, 459 (2007)) rather than from Wootters' eigenvalues.

    The entries are ``_xstate_mp``'s, from the float arguments taken exactly.
    The combined strengths and 1 - p - q are taken in doubles, as the state
    builder takes them, so 1 - p - q is exactly 0 on the color channel and on
    the edge q = 1.0 - p.
    """
    cp, cq = {"white": (p, 0.0), "color": (q, 1.0 - q), "whitecolor": (p, q)}[channel]
    with mpmath.workdps(dps):
        d00, _, _, d33, rho12 = _xstate_mp(*map(mpmath.mpf, (cp, cq, (1.0 - cp) - cq, x, r)))
        return float(max(0, 2 * (abs(rho12) - mpmath.sqrt(d00 * d33))))


def oracle_qfi_xstate_mp(channel: str, param: str, x: float, p: float = 0.0, q: float = 0.0, r: float = 0.0,
                         dps: int = 50) -> float:
    """Two-qubit QFI of the accelerated state in ``param`` at ``dps`` digits,
    from the X-state block formula rather than an eigendecomposition.

    The state is ``_xstate_mp``'s at the combined strengths of ``channel``
    (color of strength q is (q, 1 - q)), all in mpmath.  It is
    diag(d00, d33) plus a real 2x2 block on {|01>, |10>} of trace t and Bloch
    vector s, and the QFI is additive over the orthogonal parts (Liu et al.,
    J. Phys. A 53, 023001 (2020)):
    F = sum_k (d dkk)^2/dkk + (dt)^2/t + t [|ds|^2 + (s.ds)^2/(1 - |s|^2)].
    The float arguments are taken exactly; derivatives are ``mpmath.diff``.
    A population that is 0 with zero slope adds nothing.
    """
    with mpmath.workdps(dps):
        point = {name: mpmath.mpf(value) for name, value in (("x", x), ("p", p), ("q", q), ("r", r))}

        def parts(theta):
            v = {**point, param: theta}
            cp, cq = {"white": (v["p"], 0), "color": (v["q"], 1 - v["q"]), "whitecolor": (v["p"], v["q"])}[channel]
            d00, d11, d22, d33, rho12 = _xstate_mp(cp, cq, 1 - cp - cq, v["x"], v["r"])
            t = d11 + d22
            return d00, d33, t, 2 * rho12 / t, (d11 - d22) / t

        values = parts(point[param])
        primes = [mpmath.diff(lambda th, k=k: parts(th)[k], point[param]) for k in range(5)]
        d00, d33, t, sx, sz = values
        d00_, d33_, t_, sx_, sz_ = primes
        total = mpmath.mpf(0)
        for d, d_ in ((d00, d00_), (d33, d33_), (t, t_)):
            if d != 0:
                total += d_**2 / d
            elif abs(d_) > mpmath.mpf(10) ** (-dps // 2):
                return math.inf
        total += t * (sx_**2 + sz_**2 + (sx * sx_ + sz * sz_) ** 2 / (1 - sx**2 - sz**2))
        return float(total)
