"""Quantum Fisher information engines and the white-channel closed forms.

Two generic numerical engines cover every channel and every estimated
parameter:

* ``qfi_single_bloch``: the single-qubit form driven by the Bloch vector of
  a 2x2 state family, F = (s . ds)^2/(1-|s|^2) + |ds|^2 for mixed states and
  |ds|^2 for pure ones;
* ``qfi_two_qubit_spectral``: the symmetric-logarithmic-derivative (SLD)
  form on a 4x4 family, F = 2 sum_{i,j} |<V_i|drho|V_j>|^2/(l_i+l_j), also
  reported as the spectral-form decomposition F = term_classical +
  term_quantum - term_pairs.

Derivatives are taken by complex step: every family is real-analytic in its
parameter, so one evaluation at theta + ih gives rho = Re and drho = Im/h,
exact to round-off (Squire & Trapp, SIAM Rev. 40, 110 (1998)).  The SLD form
needs one eigendecomposition of rho, so no eigenvector is differentiated and
no eigenvector gauge has to be fixed (Braunstein & Caves, PRL 72, 3439
(1994); Liu et al., J. Phys. A 53, 023001 (2020)).

Both engines take a float or an array of parameter values.  An array theta
evaluates the family once, as one ``shape(theta) + (dim, dim)`` stack, and
gives arrays of the same shape; the SLD engine runs one batched ``eigh``.  A
float theta runs as a one-element array and gives floats, so each entry of an
array result equals, bit for bit, the value of its own float.  Where a float
call raises ``FamilyEvalError`` because the family is not finite at theta +
ih (at x = 1 the step reaches the branch point of sqrt(1 - x^2)), an array
gives NaN for the value and for each term of the decomposition.

The closed forms published for the white channel (single-qubit expressions
for each parameter and the spectral-form building blocks kappa_i, b_i, mu_i)
are implemented with their primes read as partial derivatives with respect
to the estimated parameter; the verification harness compares them against
the engines and records residuals.  They take floats or broadcast arrays of
(x, p, r) through one code path: each entry of an array result equals its own
float call, and is NaN where that call raises ``SingularPointError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .channels import (
    CHANNEL_PARAMS,
    RINDLER_R_MAX,
    Channel,
    ModelParams,
    _validate_points,
    _whitecolor_state,
    accelerated_state,
    combined_strengths,
    white_coeffs,
)
from .errors import DomainError, FamilyEvalError, SingularPointError
from .qlinalg import HERMITICITY_TOL, clip_at_zero, partial_trace

# Imaginary step of the complex-step derivative; its O(h^2) error is nil.
COMPLEX_STEP = 1e-30
# Branch threshold: |s| at or above 1 - PURE_MARGIN uses the pure-state form.
PURE_MARGIN = 1e-9
# Eigenvalue pairs summing below this are dropped from the two-qubit QFI.
EIG_FLOOR = 1e-12

FORM_SINGLE_BLOCH = "single-bloch"
FORM_TWO_SPECTRAL = "two-spectral"
FORM_CLOSED = "closed"

_PARAM_INDEX = {"p": 0, "x": 1, "r": 2}
_EYE4 = np.eye(4, dtype=bool)


@dataclass(frozen=True)
class QfiValue:
    """A Fisher information value, its originating form, and (for the
    spectral form) the classical/quantum/pair-term decomposition."""

    value: float
    form: str
    decomposition: Optional[tuple[float, float, float]] = None


@dataclass(frozen=True)
class KappaMuTerms:
    """Building blocks of the white-channel spectral closed form.

    (kappa1 -+ kappa2)/16 are the two eigenvalues of the coherent
    |01>/|10> block of the accelerated white state; mu1, mu2 parametrize that
    block's eigenvector angles and are undefined where the coherence
    vanishes (p=0 or x in {0, 1}).
    """

    kappa1: float
    kappa2: float
    kappa3: float
    b1: float
    b2: float
    b3: float
    mu1: Optional[float]
    mu2: Optional[float]


@dataclass(frozen=True)
class StateFamily:
    """A one-parameter family of states: theta -> density matrix.

    ``evaluate`` must be side-effect free and real-analytic, and real symmetric
    at real theta; ``param`` names the estimated parameter (p, q, x or r).  The
    engines call it once, at the complex array theta + ih, and expect a matrix
    of shape ``shape(theta) + (dim, dim)``.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    param: str
    dim: int = 4
    label: str = ""


def _family_stencil(family: StateFamily, theta) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """rho and drho/dtheta, both real, from one evaluation of the family at
    theta + ih, and the mask of shape ``shape(theta)`` of its non-finite cells.

    A float theta is evaluated as a one-element array, so it rounds as an array
    entry does.  At a non-finite cell (where the step reaches a branch point) a
    float theta raises ``FamilyEvalError``; an array sets rho = I/dim and
    drho = 0 there, so the batched eigensolve sees only finite input, and the
    engines give NaN at the mask.  An exception or a wrong shape from
    ``family.evaluate`` raises ``FamilyEvalError``; a matrix that is not
    symmetric raises ``DomainError``, as Im/h of a complex family is no
    derivative.
    """
    shape = np.shape(theta) + (family.dim, family.dim)
    name = family.label or family.param
    scalar = np.ndim(theta) == 0
    t = (np.reshape(theta, 1) if scalar else theta) + 1j * COMPLEX_STEP
    with np.errstate(invalid="ignore"):
        try:
            m = np.asarray(family.evaluate(t), dtype=complex)
        except Exception as exc:  # noqa: BLE001 - family code is caller-supplied
            raise FamilyEvalError(f"family {name} failed at {theta}: {exc}") from exc
    if scalar and m.shape == (1,) + shape:  # else a theta-free (dim, dim) matrix
        m = m[0]
    if m.shape != shape:
        raise FamilyEvalError(f"family {name} returned shape {m.shape} at {theta}, not {shape}")
    # A NaN cell compares False, so it is left to the mask.
    if (np.abs(m - m.swapaxes(-1, -2)) > HERMITICITY_TOL).any():
        raise DomainError(f"family {name} is not real symmetric at {theta}")
    bad = ~np.isfinite(m).all(axis=(-2, -1))
    if bad.any():
        if scalar:
            raise FamilyEvalError(f"family {name} returned a non-finite matrix near {theta}")
        m = np.where(bad[..., None, None], np.eye(family.dim) / family.dim, m)
    return m.real, m.imag / COMPLEX_STEP, bad


def _as_result(value):
    """A float for a 0-d value, else the array."""
    return float(value) if np.ndim(value) == 0 else value


def _results(bad: np.ndarray, *values) -> list:
    """Each of ``values`` through ``_as_result``, NaN at the ``bad`` cells."""
    if bad.any():
        values = [np.where(bad, np.nan, value) for value in values]
    return [_as_result(value) for value in values]


# ---------------------------------------------------------------------------
# Single-qubit (Bloch) form
# ---------------------------------------------------------------------------

def bloch_vector(rho: np.ndarray) -> np.ndarray:
    """Bloch vector s with rho = (I + s . sigma)/2 for a single-qubit state.

    A ``(..., 2, 2)`` stack gives a ``(..., 3)`` stack of vectors.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (2, 2):
        raise DomainError(f"rho must be 2x2, got {rho.shape}")
    s = np.empty(rho.shape[:-2] + (3,))
    s[..., 0] = 2.0 * rho[..., 0, 1].real
    s[..., 1] = -2.0 * rho[..., 0, 1].imag
    s[..., 2] = (rho[..., 0, 0] - rho[..., 1, 1]).real
    return s


def qfi_single_bloch(family: StateFamily, theta) -> QfiValue:
    """Single-qubit QFI of a 2x2 family at ``theta`` via its complex step.

    An array ``theta`` gives an array ``value`` of its shape, NaN at the cells
    where the family is not finite at theta + ih.
    """
    rho, d_rho, bad = _family_stencil(family, theta)
    s, ds = bloch_vector(rho), bloch_vector(d_rho)
    ds_sq = (ds * ds).sum(axis=-1)
    norm_sq = (s * s).sum(axis=-1)
    pure = np.sqrt(norm_sq) >= 1.0 - PURE_MARGIN
    mixed = (s * ds).sum(axis=-1) ** 2 / np.where(pure, 1.0, 1.0 - norm_sq) + ds_sq
    (value,) = _results(bad, np.maximum(0.0, np.where(pure, ds_sq, mixed)))
    return QfiValue(value=value, form=FORM_SINGLE_BLOCH)


def reduced_accelerated_qubit(params: ModelParams) -> np.ndarray:
    """Reduced state of the accelerated (second) qubit.

    For every state in this model the reduction is diagonal: the only
    coherence lives between |01> and |10>, which traces to zero.
    """
    return partial_trace(accelerated_state(params), keep="second")


def _reduced_state(x, p, q, r) -> np.ndarray:
    # top is the combined builder's d00 + d22, where q cancels.  Polynomial in
    # x (no square root), so its complex step is finite at x = 0 and 1 too.
    a = 1.0 - 2.0 * x * x
    cr = np.cos(r)
    top = (1.0 - a * p) * (cr * cr) / 2.0
    m = np.zeros(np.shape(top) + (2, 2), dtype=complex)
    m[..., 0, 0] = top
    m[..., 1, 1] = 1.0 - top
    return m


# ---------------------------------------------------------------------------
# Families over the model's parameters
# ---------------------------------------------------------------------------

def state_family(
    channel: Channel,
    param: str,
    x: float = 0.0,
    p: float = 0.0,
    q: float = 0.0,
    r: float = 0.0,
    reduced: bool = False,
) -> StateFamily:
    """Family theta -> accelerated state with ``param`` freed and the rest fixed.

    The family evaluates the combined builder at the mapped strengths, without
    domain checks, so the engines can evaluate it at complex theta + ih; it is
    real symmetric and real-analytic, as ``StateFamily`` requires.
    ``reduced=True`` gives the 2x2 reduction of the accelerated qubit instead
    of the full state.  Fixed parameters may be arrays; they broadcast against
    theta, so the engines need a theta of the broadcast shape.
    """
    channel = Channel(channel)
    if param not in CHANNEL_PARAMS[channel]:
        raise DomainError(f"parameter {param!r} is not part of the {channel.value} channel")

    build = _reduced_state if reduced else _whitecolor_state
    cp, cq = combined_strengths(channel, p, q)
    evaluate = {
        "x": lambda t: build(t, cp, cq, r),
        "p": lambda t: build(x, t, cq, r),
        "q": lambda t: build(x, cp, t, r),
        "r": lambda t: build(x, cp, cq, t),
    }[param]
    if channel is Channel.COLOR and param == "q":  # a color q moves both: (q, 1 - q)
        evaluate = lambda t: build(x, t, 1.0 - t, r)

    label = f"{channel.value}:{param}" + (":reduced" if reduced else "")
    return StateFamily(evaluate=evaluate, param=param, dim=2 if reduced else 4, label=label)


# ---------------------------------------------------------------------------
# Closed single-qubit forms (white channel)
# ---------------------------------------------------------------------------

def qfi_single_white_closed(param: str, x, p, r, r_max: float = RINDLER_R_MAX) -> QfiValue:
    """Closed-form single-qubit QFI of the accelerated white channel.

    The reduced qubit's Bloch vector is (0, 0, (1-a p) cos^2 r - 1) with
    a = 1 - 2 x^2; the mixed/pure branch is selected from |s| exactly as the
    numerical engine does.  Singular where the mixed branch's denominator
    vanishes.
    """
    if param not in ("p", "x", "r"):
        raise DomainError(f"parameter must be one of p, x, r; got {param!r}")
    _validate_points(r_max, x, p, 0.0, r, Channel.WHITE)
    a = 1.0 - 2.0 * x * x
    lin = 1.0 - a * p
    cr, sr, s2r = np.cos(r), np.sin(r), np.sin(2.0 * r)
    cr2 = cr * cr
    sz = lin * cr2 - 1.0
    pure = np.abs(sz) >= 1.0 - PURE_MARGIN
    bracket = 3.0 + a * p - lin * np.cos(2.0 * r)
    denom = lin * bracket
    singular = ~pure & (np.abs(denom if param != "r" else bracket) < 1e-14)
    if np.ndim(singular) == 0 and singular:
        raise SingularPointError(f"mixed-branch denominator vanishes at x={x}, p={p}, r={r}")
    with np.errstate(divide="ignore", invalid="ignore"):
        mixed = {
            "p": 2.0 * a * a * cr2 / denom,
            "x": 32.0 * p * p * x * x * cr2 / denom,
            "r": 8.0 * lin * (sr * sr) / bracket,
        }[param]
    value = {
        "p": a * a * cr2 * cr2,
        "x": 16.0 * p * p * x * x * cr2 * cr2,
        "r": lin * lin * (s2r * s2r),
    }[param]
    value = np.where(singular, np.nan, np.where(pure, value, mixed))
    return QfiValue(value=clip_at_zero(value), form=FORM_CLOSED)


# ---------------------------------------------------------------------------
# Two-qubit spectral engine
# ---------------------------------------------------------------------------

def _masked_sum(mask: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Sum of ``values`` over the last two axes where ``mask`` holds."""
    return np.where(mask, values, 0.0).sum(axis=(-2, -1))


def qfi_two_qubit_spectral(family: StateFamily, theta) -> QfiValue:
    """SLD-form QFI of a 4x4 family at ``theta`` via its complex step.

    With rho = sum_i l_i |V_i><V_i| at ``theta`` and the real D = V^T (drho) V,
    F = 2 sum_{i,j} D_ij^2/(l_i + l_j) over pairs whose eigenvalue sum is at
    least ``EIG_FLOOR``.  The decomposition splits the same sum into the
    classical term D_ii^2/l_i and the quantum and pair terms of the spectral
    form, with <V_i|dV_j> = D_ij/(l_j - l_i); an exactly tied pair, whose
    eigenvectors are not defined, puts its whole share 4 D_ij^2/(l_i + l_j)
    into the quantum term, so value = classical + quantum - pairs throughout.

    An array ``theta`` gives arrays of its shape for the value and for each
    term of the decomposition, NaN at the cells where the family is not
    finite at theta + ih.
    """
    rho, d_rho, bad = _family_stencil(family, theta)
    lam, v = np.linalg.eigh(rho)
    weight = (v.swapaxes(-1, -2) @ d_rho @ v) ** 2

    lam_i, lam_j = lam[..., :, None], lam[..., None, :]
    pair_sum = lam_i + lam_j
    keep = pair_sum >= EIG_FLOOR
    # Divisors are swapped for 1 outside their masks, so nothing divides by 0.
    kept_sum = np.where(keep, pair_sum, 1.0)
    value = 2.0 * _masked_sum(keep, weight / kept_sum)

    # The diagonal of ``keep``: l_i + l_i >= EIG_FLOOR.
    classical = _EYE4 & (lam_i >= EIG_FLOOR / 2.0)
    term_classical = _masked_sum(classical, weight / np.where(classical, lam_i, 1.0))
    gap_sq = (lam_i - lam_j) ** 2
    off_diagonal = keep & ~_EYE4
    tied = off_diagonal & (gap_sq == 0.0)
    split = off_diagonal & ~tied
    mixing = weight / np.where(split, gap_sq, 1.0)  # |<V_i|dV_j>|^2 where split
    term_quantum = 2.0 * _masked_sum(split, pair_sum * mixing) + 2.0 * _masked_sum(
        tied, weight / kept_sum
    )
    term_pairs = 8.0 * _masked_sum(split, lam_i * lam_j / kept_sum * mixing)
    value, *terms = _results(bad, value, term_classical, term_quantum, term_pairs)
    return QfiValue(value=value, form=FORM_TWO_SPECTRAL, decomposition=tuple(terms))


def qfi_two_qubit_spectral_retry(family: StateFamily, theta) -> QfiValue:
    """Same as ``qfi_two_qubit_spectral``; the SLD form needs no retries.

    Kept under this name because the benchmark's tracer looks it up in
    ``fisher`` and ``verify`` and counts the engine calls made through it;
    sweep and verify call it for that reason.
    """
    return qfi_two_qubit_spectral(family, theta)


# ---------------------------------------------------------------------------
# Closed two-qubit form (white channel)
# ---------------------------------------------------------------------------

def _grad(d_p, d_x, d_r) -> np.ndarray:
    """A gradient d/d(p, x, r), its components on a trailing axis."""
    # The sum has the broadcast shape of the components.
    grad = np.empty(np.shape(d_p + d_x + d_r) + (3,))
    grad[..., 0], grad[..., 1], grad[..., 2] = d_p, d_x, d_r
    return grad


def _kappa_bundle(x, p, r):
    """(kappa_i, d kappa_i) for i = 1, 2, 3, then (b1, b2, b3).  The gradients
    d/d(p, x, r) lie on a trailing axis; d kappa2 is NaN where the coherent
    block is degenerate (kappa2 <= 1e-12)."""
    x2 = x * x
    c2r, c4r = np.cos(2.0 * r), np.cos(4.0 * r)
    s2r, s4r = np.sin(2.0 * r), np.sin(4.0 * r)

    kappa1 = 4.0 + 4.0 * p - 4.0 * p * x2 + 4.0 * p * x2 * c2r
    d_kappa1 = _grad(
        4.0 - 4.0 * x2 + 4.0 * x2 * c2r,
        -8.0 * p * x + 8.0 * p * x * c2r,
        -8.0 * p * x2 * s2r,
    )

    b1 = 6.0 + 20.0 * p + 38.0 * p * p - 40.0 * p * x2 - 24.0 * p * p * x2 + 24.0 * p * p * x2 * x2
    d_b1 = _grad(
        20.0 + 76.0 * p - 40.0 * x2 - 48.0 * p * x2 + 48.0 * p * x2 * x2,
        -80.0 * p * x - 48.0 * p * p * x + 96.0 * p * p * x * x2,
        0.0,
    )

    poly = 1.0 + p * (2.0 - 4.0 * x2) + p * p * (-3.0 - 4.0 * x2 + 4.0 * x2 * x2)
    d_poly_p = 2.0 - 4.0 * x2 + 2.0 * p * (-3.0 - 4.0 * x2 + 4.0 * x2 * x2)
    d_poly_x = -8.0 * p * x - 8.0 * p * p * x + 16.0 * p * p * x * x2
    b2 = 8.0 * poly * c2r
    d_b2 = _grad(8.0 * d_poly_p * c2r, 8.0 * d_poly_x * c2r, -16.0 * poly * s2r)

    lin = -1.0 + p - 2.0 * p * x2
    b3 = 2.0 * c4r * lin * lin
    d_b3 = _grad(
        4.0 * c4r * lin * (1.0 - 2.0 * x2),
        -16.0 * p * x * c4r * lin,
        -8.0 * s4r * lin * lin,
    )

    kappa2 = np.sqrt(clip_at_zero(b1 - b2 + b3))
    degenerate = (kappa2 <= 1e-12)[..., None]
    d_radicand = d_b1 - d_b2 + d_b3
    d_kappa2 = np.where(
        degenerate, np.nan, d_radicand / (2.0 * np.where(degenerate, 1.0, kappa2[..., None]))
    )

    kappa3 = 2.0 + 6.0 * p - 12.0 * p * x2 - (2.0 - 2.0 * p + 4.0 * p * x2) * c2r
    d_kappa3 = _grad(
        6.0 - 12.0 * x2 + (2.0 - 4.0 * x2) * c2r,
        -24.0 * p * x - 8.0 * p * x * c2r,
        (4.0 - 4.0 * p + 8.0 * p * x2) * s2r,
    )
    return (kappa1, d_kappa1), (kappa2, d_kappa2), (kappa3, d_kappa3), (b1, b2, b3)


def kappa_mu_terms(x: float, p: float, r: float, require_mu: bool = True) -> KappaMuTerms:
    """Evaluate the spectral closed form's building blocks at (x, p, r).

    mu1, mu2 require a nondegenerate block with a nonvanishing coherence
    coefficient; where that is zero (p=0 or x in {0, 1}) this raises
    ``SingularPointError`` unless ``require_mu=False``, which gives ``None``.
    """
    ModelParams(x=x, p=p, r=r, channel=Channel.WHITE).validate()
    bundle = _kappa_bundle(x, p, r)
    (kappa1, _), (kappa2, _), (kappa3, _), (b1, b2, b3) = bundle
    mu1 = mu2 = None
    if require_mu or white_coeffs(x, p).epsilon != 0.0:
        mu1, mu2 = (float(mu) for mu in _mu_bundle(x, p, r, bundle)[::2])
    return KappaMuTerms(
        kappa1=kappa1, kappa2=kappa2, kappa3=kappa3, b1=b1, b2=b2, b3=b3, mu1=mu1, mu2=mu2
    )


def _mu_bundle(x, p, r, bundle):
    """mu1, d mu1, mu2, d mu2 from ``bundle = _kappa_bundle(x, p, r)``, the
    gradients d/d(p, x, r) on a trailing axis; singular (NaN, or
    ``SingularPointError`` for a float call) where the block coherence
    vanishes or the block is degenerate."""
    epsilon = white_coeffs(x, p).epsilon
    _, (kappa2, d_kappa2), (kappa3, d_kappa3), _ = bundle
    incoherent = epsilon == 0.0
    degenerate = np.isnan(d_kappa2[..., 0])
    if np.ndim(kappa2) == 0:
        if incoherent:
            raise SingularPointError(f"coherence coefficient vanishes at x={x}, p={p}")
        if degenerate:
            raise SingularPointError(f"coherent block degenerate at x={x}, p={p}, r={r}")
    singular = incoherent | degenerate
    out = []
    with np.errstate(divide="ignore", invalid="ignore"):
        root = np.sqrt(1.0 - x * x)
        d_epsilon = _grad(x * root, p * (1.0 - 2.0 * x * x) / root, 0.0)
        sec_r, tan_r = 1.0 / np.cos(r), np.tan(r)
        eps = np.asarray(epsilon)[..., None]
        pairs = ((kappa3 - kappa2, d_kappa3 - d_kappa2), (kappa3 + kappa2, d_kappa3 + d_kappa2))
        for kappa, d_kappa in pairs:
            mu = sec_r * kappa / (16.0 * epsilon)
            d_mu = sec_r[..., None] * (d_kappa - kappa[..., None] * d_epsilon / eps) / (16.0 * eps)
            d_mu = d_mu + _grad(0.0, 0.0, tan_r * mu)
            out += [np.where(singular, np.nan, mu), np.where(singular[..., None], np.nan, d_mu)]
    return tuple(out)


def qfi_two_white_closed(param: str, x, p, r, r_max: float = RINDLER_R_MAX) -> QfiValue:
    """Closed-form spectral QFI of the accelerated white channel.

    Assembled from the published building blocks with primes read as partial
    derivatives with respect to the estimated parameter and the pair-term
    eigenvalues taken as (kappa1 -+ kappa2)/16, i.e. the coherent block's
    eigenvalue pair.  Singular where the block coherence vanishes (p=0,
    x in {0, 1}) or the block is degenerate.
    """
    if param not in ("p", "x", "r"):
        raise DomainError(f"parameter must be one of p, x, r; got {param!r}")
    _validate_points(r_max, x, p, 0.0, r, Channel.WHITE)
    idx = _PARAM_INDEX[param]

    coeffs = white_coeffs(x, p)
    bundle = _kappa_bundle(x, p, r)
    (kappa1, d_kappa1), (kappa2, d_kappa2), _, _ = bundle
    mu1, d_mu1, mu2, d_mu2 = _mu_bundle(x, p, r, bundle)
    # Only the estimated parameter's component of each gradient is needed.
    d_kappa1, d_kappa2, d_mu1, d_mu2 = (g[..., idx] for g in (d_kappa1, d_kappa2, d_mu1, d_mu2))

    gamma, beta = coeffs.gamma, coeffs.beta
    d_gamma = (-0.25, 0.0, 0.0)[idx]
    d_beta = ((-1.0 + 4.0 * x * x) / 4.0, 2.0 * p * x, 0.0)[idx]
    cr, sr = np.cos(r), np.sin(r)
    cr2, sr2 = cr * cr, sr * sr
    s2r = np.sin(2.0 * r)

    eig_low = gamma * cr2
    d_eig_low = d_gamma * cr2 + (0.0, 0.0, -gamma * s2r)[idx]
    eig_high = gamma + beta * sr2
    d_eig_high = d_gamma + d_beta * sr2 + (0.0, 0.0, beta * s2r)[idx]
    lam2 = (kappa1 - kappa2) / 16.0
    lam3 = (kappa1 + kappa2) / 16.0
    d_lam2 = (d_kappa1 - d_kappa2) / 16.0
    d_lam3 = (d_kappa1 + d_kappa2) / 16.0

    term_classical = 0.0
    for lam, grad in (
        (eig_low, d_eig_low),
        (eig_high, d_eig_high),
        (lam2, d_lam2),
        (lam3, d_lam3),
    ):
        kept = lam >= EIG_FLOOR
        kept_lam = np.where(kept, lam, 1.0)
        term_classical = term_classical + np.where(kept, grad * grad / kept_lam, 0.0)
    term_classical = np.where(np.isnan(mu1), np.nan, term_classical)

    one1 = 1.0 + mu1 * mu1
    one2 = 1.0 + mu2 * mu2
    term_quantum = 0.25 * (
        (kappa1 - kappa2) * (d_mu1 * d_mu1) / (one1 * one1)
        + (kappa1 + kappa2) * (d_mu2 * d_mu2) / (one2 * one2)
    )
    mu_gap = mu1 - mu2
    term_pairs = (
        8.0
        * (lam2 * lam3 / (lam2 + lam3))
        * (mu_gap * mu_gap / (one1 * one2))
        * (d_mu1 * d_mu1 / (one1 * one1) + d_mu2 * d_mu2 / (one2 * one2))
    )
    value = term_classical + term_quantum - term_pairs
    return QfiValue(
        value=clip_at_zero(value),
        form=FORM_CLOSED,
        decomposition=tuple(_as_result(t) for t in (term_classical, term_quantum, term_pairs)),
    )
