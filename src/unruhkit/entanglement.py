"""Wootters concurrence: general numerical engine plus closed-form evaluators.

The general engine is ground truth; the closed forms for the three noise
channels are treated as hypotheses and cross-checked against it (see
``unruhkit.verify``).  For a real state, every state of the model, the engine
is one PSD square root and one real symmetric eigenvalue solve per matrix; a
complex state takes an SVD in place of the eigenvalue solve.

Two corrections to the published expressions are carried here:

* the white-noise form's final surd coefficient is 1/2, not the printed 4
  (the printed value contradicts the exactly known isotropic-mixing line
  C = max(0, (3p-1)/2), the corrected one reproduces it everywhere);
* the combined white+color form is evaluated both as printed and under the
  same cos(r) weighting the white form uses, because the two printed
  conventions disagree; the verification harness reports which one matches.

The white and color forms are edges of the combined form's cos-r reading,
which ``_closed`` evaluates in float64 without a difference of surds.
The closed forms take floats or broadcast arrays of parameter values through
one code path: each entry of an array result equals its own float call.
"""

from __future__ import annotations

import numpy as np

from .channels import RINDLER_R_MAX, Channel, ModelParams, _validate_points, combined_strengths
from .errors import NegativeRadicandError
from .qlinalg import as_stack, clip_at_zero, sqrt_psd

# Surd arguments in [-RADICAND_CLAMP, 0) are round-off and are clamped to 0.
RADICAND_CLAMP = 1e-10

# (sigma_y x sigma_y) is the real antidiagonal s = (-1, 1, 1, -1): multiplying
# by it reverses the rows and multiplies row i by s_i, and conjugating by it
# reverses both indices and multiplies entry (i, j) by s_i s_j.
_FLIP = np.array([-1.0, 1.0, 1.0, -1.0])
_FLIP_SIGNS = np.outer(_FLIP, _FLIP)


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
    descending eigenvalues of rho @ spin_flip(rho).  Their square roots are
    the singular values of spin_flip(R) @ R with R = sqrt(rho), whose Gram
    matrix R rho~ R has the l_i as eigenvalues; spin_flip(R) stands for
    sqrt(rho~), as the spin flip is complex conjugation and a real orthogonal
    similarity, and the PSD square root commutes with both, so one eigensolve
    per matrix serves both roots.

    A real R makes this one symmetric eigenvalue solve: with F = sigma_y x
    sigma_y, spin_flip(R) @ R = F S for the real symmetric S = R F R, and F is
    orthogonal, so the singular values are the |mu_i| of S's eigenvalues and
    C = max(0, 2 max|mu| - sum|mu|).  A complex R keeps the SVD.  Either way
    the values carry absolute round-off ~1e-16 even at zero (Weyl's bound for
    the eigenvalues), unlike sqrt(eigenvalue), which amplifies noise at
    rank-deficient points.
    """
    root = sqrt_psd(rho)
    if np.iscomplexobj(root):
        s = np.linalg.svd(spin_flip(root) @ root, compute_uv=False)
        value = np.maximum(0.0, s[..., 0] - s[..., 1] - s[..., 2] - s[..., 3])
    else:
        mu = np.abs(np.linalg.eigvalsh(root @ (_FLIP[:, None] * root[..., ::-1, :])))
        value = np.maximum(0.0, 2.0 * mu.max(axis=-1) - mu.sum(axis=-1))
    return float(value) if value.ndim == 0 else value


def _sqrt_clamped(value):
    """Square root with the round-off clamp window; raises on real negatives."""
    value = np.asarray(value)
    too_negative = value < -RADICAND_CLAMP
    if too_negative.any():
        raise NegativeRadicandError(f"surd argument {float(value[too_negative].flat[0]):.3e}")
    return np.sqrt(np.maximum(value, 0.0))


def _terms(x, p, q, r):
    """The combined form's shared pieces, each from nonnegative terms: g =
    1-p-q taken as the builder takes it, cos r, sin^2 r, x^2, 1-x^2, e =
    1-p+q+4px^2, the small surd a2 (as printed, with its last factor
    (3+5p+q-8px^2-g cos 2r)/2 written 1-p+q+4p(1-x^2)+g sin^2 r) and the
    final radicand a4 = g cos^2 r (g + e sin^2 r)."""
    g = (1.0 - p) - q
    c = np.cos(r)
    s2 = np.sin(r) ** 2
    xx = x * x
    yy = (1.0 - x) * (1.0 + x)
    e = (1.0 - p) + q + 4.0 * p * xx
    a2 = 32.0 * p * x * c * _sqrt_clamped(yy * e * ((1.0 - p) + q + 4.0 * p * yy + g * s2))
    return g, c, s2, xx, yy, e, a2, g * c * c * (g + e * s2)


def _closed(x, p, q, r, k):
    """The combined form's cos-r reading with final surd coefficient k.

    Its sqrt(high)/8 - sqrt(low)/8 is c D / (8 h), h = sqrt(high), as
    high * low = (4 P c^2)^2, with D = 128 c p^2 x^2 (1-x^2) + a2 and
    P = (1-p)(1+3p) + q(2+2p+q) + g e sin^2 r.  No surd difference is taken.
    White is the q=0 line (k=1/2 corrected, 4 printed); color of strength q
    is (p, q) = (q, 1-q), where g and a4 are 0.0.  h is 0 only where D is.
    """
    g, c, s2, xx, yy, e, a2, a4 = _terms(x, p, q, r)
    d = 128.0 * c * p * p * xx * yy + a2
    big_p = (1.0 - p) * (1.0 + 3.0 * p) + q * (2.0 + 2.0 * p + q) + g * e * s2
    h = _sqrt_clamped(c * (4.0 * big_p * c + d))
    return clip_at_zero(c * d / np.where(h > 0.0, 8.0 * h, 1.0) - k * _sqrt_clamped(a4))


def _printed(x, p, q, r):
    """The combined form as printed: surds of a1 -/+ a2 + a3, no cos r weight."""
    g, _, _, xx, _, e, a2, a4 = _terms(x, p, q, r)
    a1 = (
        5.0 + 6.0 * p - 11.0 * p * p + 8.0 * q + 8.0 * p * q + 3.0 * q * q
        + 4.0 * p * (1.0 + 31.0 * p - q) * xx
        - 128.0 * p * p * xx * xx
    )
    a3 = -g * e * np.cos(3.0 * r)
    value = (_sqrt_clamped(a1 + a2 + a3) - _sqrt_clamped(a1 - a2 + a3)) / 8 - _sqrt_clamped(a4) / 2
    return clip_at_zero(value)


def concurrence_white_closed(
    x,
    p,
    r,
    w4_coefficient: float = 0.5,
    r_max: float = RINDLER_R_MAX,
):
    """Closed-form concurrence in the presence of white noise.

    ``w4_coefficient`` is the coefficient of the final surd; 0.5 is the
    corrected value, 4.0 reproduces the printed (wrong) form for comparison.
    """
    _validate_points(r_max, x, p, 0.0, r, Channel.WHITE)
    return _closed(x, p, 0.0, r, w4_coefficient)


def concurrence_color_closed(x, q, r, r_max: float = RINDLER_R_MAX):
    """Closed-form concurrence in the presence of color noise (strength q)."""
    _validate_points(r_max, x, 0.0, q, r, Channel.COLOR)
    return _closed(x, *combined_strengths(Channel.COLOR, 0.0, q), r, 0.5)


def concurrence_whitecolor_closed(
    x,
    p,
    q,
    r,
    cos_r_weighted: bool = False,
    r_max: float = RINDLER_R_MAX,
):
    """Closed-form concurrence for the combined white+color channel.

    With ``cos_r_weighted=False`` the expression is evaluated exactly as
    printed.  With ``True`` the leading polynomial block picks up a cos(r)
    factor and the outer surds another, mirroring the white-noise form's
    convention; the two readings coincide at r=0 and the verification
    harness reports which one agrees with the numerical engine.
    """
    _validate_points(r_max, x, p, q, r)
    return _closed(x, p, q, r, 0.5) if cos_r_weighted else _printed(x, p, q, r)


def concurrence_closed(params: ModelParams, r_max: float = RINDLER_R_MAX):
    """The closed form of ``params``'s channel: the combined form as printed,
    or its cos-r reading at ``combined_strengths`` on the white line
    (corrected) and the color edge."""
    params.validate(r_max)
    if params.channel is Channel.WHITE_COLOR:
        return _printed(params.x, params.p, params.q, params.r)
    return _closed(params.x, *combined_strengths(params.channel, params.p, params.q), params.r, 0.5)
