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

Closed forms are evaluated in extended precision: their printed polynomial
groupings cancel almost completely near entanglement-death points, and plain
double arithmetic there leaves ~1e-8 noise, which would drown the 1e-8
engine-agreement contract.
The closed forms take floats or broadcast arrays of parameter values through
one code path: each entry of an array result equals its own float call.
"""

from __future__ import annotations

import numpy as np

from .channels import RINDLER_R_MAX, Channel, ModelParams, _validate_points
from .errors import NegativeRadicandError
from .qlinalg import as_stack, clip_at_zero, sqrt_psd

# Surd arguments in [-RADICAND_CLAMP, 0) are round-off and are clamped to 0.
RADICAND_CLAMP = 1e-10

# (sigma_y x sigma_y) is the real antidiagonal s = (-1, 1, 1, -1): multiplying
# by it reverses the rows and multiplies row i by s_i, and conjugating by it
# reverses both indices and multiplies entry (i, j) by s_i s_j.
_FLIP = np.array([-1.0, 1.0, 1.0, -1.0])
_FLIP_SIGNS = np.outer(_FLIP, _FLIP)

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
    too_negative = value < -RADICAND_CLAMP
    if np.any(too_negative):
        first = np.asarray(value)[too_negative].flat[0]
        raise NegativeRadicandError(f"surd argument {float(first):.3e}")
    return np.sqrt(np.where(value < 0.0, _LD(0.0), _LD(value)))


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
    xl, pl, rl = _LD(x), _LD(p), _LD(r)
    cr, c2r, c3r = np.cos(rl), np.cos(2 * rl), np.cos(3 * rl)
    sr = np.sin(rl)
    sr2 = sr * sr
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
    return clip_at_zero(value)


def concurrence_color_closed(x, q, r, r_max: float = RINDLER_R_MAX):
    """Closed-form concurrence in the presence of color noise (strength q)."""
    _validate_points(r_max, x, 0.0, q, r, Channel.COLOR)
    xl, ql, rl = _LD(x), _LD(q), _LD(r)
    cr = np.cos(rl)
    x2 = xl * xl
    c1 = cr - ql * ql * cr * (1 - 8 * x2 + 8 * x2 * x2)
    tilt = 1 - 2 * x2
    c2 = 4 * ql * xl * cr * _sqrt_clamped((1 - x2) * (1 - ql * ql * (tilt * tilt)))
    value = (_sqrt_clamped(cr * (c1 + c2)) - _sqrt_clamped(cr * (c1 - c2))) / 2
    return clip_at_zero(value)


def _whitecolor_terms(x, p, q, r):
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
    sr = np.sin(rl)
    a4 = -eta2 * cr * cr * (1 - pl - ql + (1 + ql + pl * (4 * x2 - 1)) * (sr * sr))
    return a1, a2, a3, a4


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
    a1, a2, a3, a4 = _whitecolor_terms(x, p, q, r)
    cr = np.cos(_LD(r))
    if cos_r_weighted:
        low = cr * (a1 * cr - a2 + a3)
        high = cr * (a1 * cr + a2 + a3)
    else:
        low = a1 - a2 + a3
        high = a1 + a2 + a3
    value = -_sqrt_clamped(low) / 8 + _sqrt_clamped(high) / 8 - _sqrt_clamped(a4) / 2
    return clip_at_zero(value)


def concurrence_closed(params: ModelParams, r_max: float = RINDLER_R_MAX):
    """Channel-dispatching wrapper over the three closed forms."""
    if params.channel is Channel.WHITE:
        return concurrence_white_closed(params.x, params.p, params.r, r_max=r_max)
    if params.channel is Channel.COLOR:
        return concurrence_color_closed(params.x, params.q, params.r, r_max=r_max)
    return concurrence_whitecolor_closed(params.x, params.p, params.q, params.r, r_max=r_max)
