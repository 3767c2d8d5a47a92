"""Wootters concurrence: general numerical engine plus closed-form evaluators.

The general engine is ground truth; the closed forms for the three noise
channels are treated as hypotheses and cross-checked against it (see
``unruhkit.verify``).  Two corrections to the published expressions are
carried here:

* the white-noise form's final surd coefficient is 1/2, not the printed 4
  (the printed value contradicts the exactly known isotropic-mixing line
  C = max(0, (3p-1)/2), the corrected one reproduces it everywhere);
* the combined white+color form is evaluated both as printed and under the
  same cos(r) weighting the white form uses, because the two printed
  conventions disagree; the verification harness reports which one matches.

Closed forms are evaluated in extended precision: their printed polynomial
groupings cancel almost completely near entanglement-death points, and plain
double arithmetic there leaves ~1e-8 noise, which would drown the 1e-8
engine-agreement contract.
"""

from __future__ import annotations

import numpy as np

from .channels import RINDLER_R_MAX, Channel, ModelParams
from .errors import NegativeRadicandError
from .qlinalg import as_stack, sqrt_psd

# Surd arguments in [-RADICAND_CLAMP, 0) are round-off and are clamped to 0.
RADICAND_CLAMP = 1e-10

# (sigma_y x sigma_y) is the real antidiagonal (-1, 1, 1, -1), so conjugating
# by it reverses both indices and multiplies entry (i, j) by s_i s_j.
_FLIP_SIGNS = np.outer([-1.0, 1.0, 1.0, -1.0], [-1.0, 1.0, 1.0, -1.0])

_LD = np.longdouble


def spin_flip(rho: np.ndarray) -> np.ndarray:
    """Time-reversed companion state (sigma_y x sigma_y) rho* (sigma_y x sigma_y).

    ``rho`` is one 4x4 matrix or a ``(..., 4, 4)`` stack.
    """
    rho = as_stack(rho, "rho")
    return _FLIP_SIGNS * rho.conj()[..., ::-1, ::-1]


def concurrence(rho: np.ndarray) -> float | np.ndarray:
    """Wootters concurrence of a two-qubit density matrix, or of each matrix
    of a ``(..., 4, 4)`` stack.

    A single matrix gives a float, a stack an array of shape ``(...)``; each
    entry equals, bit for bit, the value of its matrix alone.

    C = max(0, sqrt(l1) - sqrt(l2) - sqrt(l3) - sqrt(l4)) with l_i the
    descending eigenvalues of rho @ spin_flip(rho).  Those eigenvalues equal
    the eigenvalues of the Hermitian product sqrt(rho) rho~ sqrt(rho); their
    square roots are computed here as the singular values of
    sqrt(rho~) @ sqrt(rho), whose Gram matrix is exactly that Hermitian
    product.  Singular values carry absolute round-off ~1e-16 even at zero,
    unlike sqrt(eigenvalue) which amplifies noise at rank-deficient points.
    """
    root = sqrt_psd(rho)
    root_flipped = sqrt_psd(spin_flip(rho))
    s = np.linalg.svd(root_flipped @ root, compute_uv=False)
    value = np.maximum(0.0, s[..., 0] - s[..., 1] - s[..., 2] - s[..., 3])
    return float(value) if value.ndim == 0 else value


def _sqrt_clamped(value):
    """Square root with the round-off clamp window; raises on real negatives."""
    if value < 0.0:
        if value < -RADICAND_CLAMP:
            raise NegativeRadicandError(f"surd argument {float(value):.3e}")
        return _LD(0.0)
    return np.sqrt(_LD(value))


def concurrence_white_closed(
    x: float,
    p: float,
    r: float,
    w4_coefficient: float = 0.5,
    r_max: float = RINDLER_R_MAX,
) -> float:
    """Closed-form concurrence in the presence of white noise.

    ``w4_coefficient`` is the coefficient of the final surd; 0.5 is the
    corrected value, 4.0 reproduces the printed (wrong) form for comparison.
    """
    ModelParams(x=x, p=p, r=r, channel=Channel.WHITE).validate(r_max)
    xl, pl, rl = _LD(x), _LD(p), _LD(r)
    cr, c2r, c3r = np.cos(rl), np.cos(2 * rl), np.cos(3 * rl)
    sr2 = np.sin(rl) ** 2
    x2 = xl * xl
    w1 = (5 + 6 * pl - 11 * pl * pl + 4 * pl * (1 + 31 * pl) * x2 - 128 * pl * pl * x2 * x2) * cr
    w2 = (
        16
        * np.sqrt(_LD(2))
        * pl
        * xl
        * cr
        * _sqrt_clamped((1 - x2) * (1 - pl + 4 * pl * x2) * (3 + 5 * pl - 8 * pl * x2 - (1 - pl) * c2r))
    )
    w3 = (pl - 1) * (1 - pl + 4 * pl * x2) * c3r
    w4 = cr * cr * (1 - pl) * (1 - pl + (1 + pl * (4 * x2 - 1)) * sr2)
    value = (
        -_sqrt_clamped(cr * (w1 - w2 + w3)) / 8
        + _sqrt_clamped(cr * (w1 + w2 + w3)) / 8
        - _LD(w4_coefficient) * _sqrt_clamped(w4)
    )
    return max(0.0, float(value))


def concurrence_color_closed(
    x: float, q: float, r: float, r_max: float = RINDLER_R_MAX
) -> float:
    """Closed-form concurrence in the presence of color noise (strength q)."""
    ModelParams(x=x, q=q, r=r, channel=Channel.COLOR).validate(r_max)
    xl, ql, rl = _LD(x), _LD(q), _LD(r)
    cr = np.cos(rl)
    x2 = xl * xl
    c1 = cr - ql * ql * cr * (1 - 8 * x2 + 8 * x2 * x2)
    c2 = 4 * ql * xl * cr * _sqrt_clamped((1 - x2) * (1 - ql * ql * (1 - 2 * x2) ** 2))
    value = (_sqrt_clamped(cr * (c1 + c2)) - _sqrt_clamped(cr * (c1 - c2))) / 2
    return max(0.0, float(value))


def _whitecolor_terms(x: float, p: float, q: float, r: float):
    """Extended-precision building blocks of the combined-channel closed form."""
    xl, pl, ql, rl = _LD(x), _LD(p), _LD(q), _LD(r)
    cr, c2r, c3r = np.cos(rl), np.cos(2 * rl), np.cos(3 * rl)
    x2 = xl * xl
    eta1 = 1 - pl + ql
    eta2 = -1 + pl + ql
    a1 = (
        5 + 6 * pl - 11 * pl * pl + 8 * ql + 8 * pl * ql + 3 * ql * ql
        + 4 * pl * (1 + 31 * pl - ql) * x2
        - 128 * pl * pl * x2 * x2
    )
    a2 = 16 * np.sqrt(_LD(2)) * _sqrt_clamped(
        -pl * pl * x2 * (x2 - 1) * (eta1 + 4 * pl * x2) * cr * cr
        * (3 + 5 * pl + ql - 8 * pl * x2 + eta2 * c2r)
    )
    a3 = eta2 * (eta1 + 4 * pl * x2) * c3r
    a4 = -eta2 * cr * cr * (1 - pl - ql + (1 + ql + pl * (4 * x2 - 1)) * np.sin(rl) ** 2)
    return a1, a2, a3, a4


def whitecolor_surd_terms(x: float, p: float, q: float, r: float):
    """The four building blocks of the combined-channel closed form.

    Returned as plain floats (a1, a2, a3, a4); a4's prefactor vanishes when
    p + q = 1.
    """
    return tuple(float(term) for term in _whitecolor_terms(x, p, q, r))


def concurrence_whitecolor_closed(
    x: float,
    p: float,
    q: float,
    r: float,
    cos_r_weighted: bool = False,
    r_max: float = RINDLER_R_MAX,
) -> float:
    """Closed-form concurrence for the combined white+color channel.

    With ``cos_r_weighted=False`` the expression is evaluated exactly as
    printed.  With ``True`` the leading polynomial block picks up a cos(r)
    factor and the outer surds another, mirroring the white-noise form's
    convention; the two readings coincide at r=0 and the verification
    harness reports which one agrees with the numerical engine.
    """
    ModelParams(x=x, p=p, q=q, r=r, channel=Channel.WHITE_COLOR).validate(r_max)
    a1, a2, a3, a4 = _whitecolor_terms(x, p, q, r)
    cr = np.cos(_LD(r))
    if cos_r_weighted:
        low = cr * (a1 * cr - a2 + a3)
        high = cr * (a1 * cr + a2 + a3)
    else:
        low = a1 - a2 + a3
        high = a1 + a2 + a3
    value = -_sqrt_clamped(low) / 8 + _sqrt_clamped(high) / 8 - _sqrt_clamped(a4) / 2
    return max(0.0, float(value))


def concurrence_closed(params: ModelParams, r_max: float = RINDLER_R_MAX) -> float:
    """Channel-dispatching wrapper over the three closed forms."""
    if params.channel is Channel.WHITE:
        return concurrence_white_closed(params.x, params.p, params.r, r_max=r_max)
    if params.channel is Channel.COLOR:
        return concurrence_color_closed(params.x, params.q, params.r, r_max=r_max)
    return concurrence_whitecolor_closed(params.x, params.p, params.q, params.r, r_max=r_max)
