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

Derivatives are central finite differences.  The SLD form differences the
density matrix itself and needs one eigendecomposition at the center, so no
eigenvector is differenced and no eigenvector gauge has to be fixed
(Braunstein & Caves, PRL 72, 3439 (1994); Liu et al., J. Phys. A 53, 023001
(2020)).

The closed forms published for the white channel (single-qubit expressions
for each parameter and the spectral-form building blocks kappa_i, b_i, mu_i)
are implemented with their primes read as partial derivatives with respect
to the estimated parameter; the verification harness compares them against
the engines and records residuals.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .channels import (
    CHANNEL_PARAMS,
    RINDLER_R_MAX,
    Channel,
    ModelParams,
    _color_state,
    _white_state,
    _whitecolor_state,
    accelerated_state,
    white_coeffs,
)
from .errors import DomainError, FamilyEvalError, SingularPointError
from .qlinalg import partial_trace

# Default finite-difference step, in the parameter's natural units.
FD_STEP = 1e-5
# Branch threshold: |s| at or above 1 - PURE_MARGIN uses the pure-state form.
PURE_MARGIN = 1e-9
# Eigenvalue pairs summing below this are dropped from the two-qubit QFI.
EIG_FLOOR = 1e-12

FORM_SINGLE_BLOCH = "single-bloch"
FORM_TWO_SPECTRAL = "two-spectral"
FORM_CLOSED = "closed"

_PARAM_INDEX = {"p": 0, "x": 1, "r": 2}

# Unvalidated builders, taking the parameters in CHANNEL_PARAMS order.
_STATE_BUILDERS = {
    Channel.WHITE: _white_state,
    Channel.COLOR: _color_state,
    Channel.WHITE_COLOR: _whitecolor_state,
}


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

    ``evaluate`` must be side-effect free and twice differentiable on the
    probed interval; ``param`` names the estimated parameter (p, q, x or r).
    """

    evaluate: Callable[[float], np.ndarray]
    param: str
    dim: int = 4
    label: str = ""


def _family_matrix(family: StateFamily, theta: float) -> np.ndarray:
    try:
        m = np.asarray(family.evaluate(theta), dtype=complex)
    except Exception as exc:  # noqa: BLE001 - family code is caller-supplied
        raise FamilyEvalError(f"family {family.label or family.param} failed at {theta}: {exc}") from exc
    if m.shape != (family.dim, family.dim) or not np.isfinite(m).all():
        raise FamilyEvalError(
            f"family {family.label or family.param} returned an unusable matrix at {theta}"
        )
    return m


# ---------------------------------------------------------------------------
# Single-qubit (Bloch) form
# ---------------------------------------------------------------------------

def bloch_vector(rho: np.ndarray) -> np.ndarray:
    """Bloch vector s with rho = (I + s . sigma)/2 for a single-qubit state."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise DomainError(f"rho must be 2x2, got {rho.shape}")
    return np.array(
        [
            2.0 * rho[0, 1].real,
            -2.0 * rho[0, 1].imag,
            (rho[0, 0] - rho[1, 1]).real,
        ]
    )


def qfi_single_bloch(family: StateFamily, theta: float, h: float = FD_STEP) -> QfiValue:
    """Single-qubit QFI of a 2x2 family at ``theta`` via central differences."""
    if h <= 0.0:
        raise DomainError("h must be positive")
    s_minus = bloch_vector(_family_matrix(family, theta - h))
    s_center = bloch_vector(_family_matrix(family, theta))
    s_plus = bloch_vector(_family_matrix(family, theta + h))
    ds = (s_plus - s_minus) / (2.0 * h)
    norm = float(np.linalg.norm(s_center))
    if norm >= 1.0 - PURE_MARGIN:
        value = float(ds @ ds)
    else:
        value = float((s_center @ ds) ** 2 / (1.0 - norm * norm) + ds @ ds)
    return QfiValue(value=max(0.0, value), form=FORM_SINGLE_BLOCH)


def reduced_accelerated_qubit(params: ModelParams) -> np.ndarray:
    """Reduced state of the accelerated (second) qubit.

    For every state in this model the reduction is diagonal: the only
    coherence lives between |01> and |10>, which traces to zero.
    """
    return partial_trace(accelerated_state(params), keep="second")


def _reduced_entries(channel: Channel, x: float, p: float, q: float, r: float) -> np.ndarray:
    # Polynomial in x (no square root), so stencils may cross x = 0 or 1.
    a = 1.0 - 2.0 * x * x
    strength = q if channel is Channel.COLOR else p
    top = (1.0 - a * strength) * math.cos(r) ** 2 / 2.0
    return np.array([[top, 0.0], [0.0, 1.0 - top]], dtype=complex)


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

    The evaluators use the closed-form coefficient expressions without domain
    checks, so finite-difference stencils may poke slightly past the
    parameter boundaries.  ``reduced=True`` gives the 2x2 reduction of the
    accelerated qubit instead of the full state.
    """
    channel = Channel(channel)
    if param not in CHANNEL_PARAMS[channel]:
        raise DomainError(f"parameter {param!r} is not part of the {channel.value} channel")

    base = {"x": x, "p": p, "q": q, "r": r}
    if reduced:
        builder, names = functools.partial(_reduced_entries, channel), ("x", "p", "q", "r")
    else:
        builder, names = _STATE_BUILDERS[channel], CHANNEL_PARAMS[channel]
    slot = names.index(param)
    before = [base[name] for name in names[:slot]]
    after = [base[name] for name in names[slot + 1 :]]

    def evaluate(theta: float) -> np.ndarray:
        return builder(*before, theta, *after)

    label = f"{channel.value}:{param}" + (":reduced" if reduced else "")
    return StateFamily(evaluate=evaluate, param=param, dim=2 if reduced else 4, label=label)


# ---------------------------------------------------------------------------
# Closed single-qubit forms (white channel)
# ---------------------------------------------------------------------------

def qfi_single_white_closed(
    param: str, x: float, p: float, r: float, r_max: float = RINDLER_R_MAX
) -> QfiValue:
    """Closed-form single-qubit QFI of the accelerated white channel.

    The reduced qubit's Bloch vector is (0, 0, (1-a p) cos^2 r - 1) with
    a = 1 - 2 x^2; the mixed/pure branch is selected from |s| exactly as the
    numerical engine does.
    """
    if param not in ("p", "x", "r"):
        raise DomainError(f"parameter must be one of p, x, r; got {param!r}")
    ModelParams(x=x, p=p, r=r, channel=Channel.WHITE).validate(r_max)
    a = 1.0 - 2.0 * x * x
    cr2 = math.cos(r) ** 2
    sz = (1.0 - a * p) * cr2 - 1.0
    if abs(sz) >= 1.0 - PURE_MARGIN:
        value = {
            "p": a * a * cr2 * cr2,
            "x": 16.0 * p * p * x * x * cr2 * cr2,
            "r": (1.0 - a * p) ** 2 * math.sin(2.0 * r) ** 2,
        }[param]
        return QfiValue(value=value, form=FORM_CLOSED)
    bracket = 3.0 + a * p - (1.0 - a * p) * math.cos(2.0 * r)
    denom = (1.0 - a * p) * bracket
    if abs(denom if param != "r" else bracket) < 1e-14:
        raise SingularPointError(f"mixed-branch denominator vanishes at x={x}, p={p}, r={r}")
    value = {
        "p": 2.0 * a * a * cr2 / denom,
        "x": 32.0 * p * p * x * x * cr2 / denom,
        "r": 8.0 * (1.0 - a * p) * math.sin(r) ** 2 / bracket,
    }[param]
    return QfiValue(value=max(0.0, value), form=FORM_CLOSED)


# ---------------------------------------------------------------------------
# Two-qubit spectral engine
# ---------------------------------------------------------------------------

def qfi_two_qubit_spectral(family: StateFamily, theta: float, h: float = FD_STEP) -> QfiValue:
    """SLD-form QFI of a 4x4 family at ``theta`` via a central difference.

    With rho = sum_i l_i |V_i><V_i| at ``theta`` and D = V^dagger (drho) V,
    F = 2 sum_{i,j} |D_ij|^2/(l_i + l_j) over pairs whose eigenvalue sum is at
    least ``EIG_FLOOR``.  The decomposition splits the same sum into the
    classical term D_ii^2/l_i and the quantum and pair terms of the spectral
    form, with <V_i|dV_j> = D_ij/(l_j - l_i); an exactly tied pair, whose
    eigenvectors are not defined, puts its whole share 4|D_ij|^2/(l_i + l_j)
    into the quantum term, so value = classical + quantum - pairs throughout.
    """
    if h <= 0.0:
        raise DomainError("h must be positive")
    stack = np.stack(
        [
            _family_matrix(family, theta - h),
            _family_matrix(family, theta),
            _family_matrix(family, theta + h),
        ]
    )
    stack = (stack + np.conj(np.transpose(stack, (0, 2, 1)))) / 2.0
    lam, vc = np.linalg.eigh(stack[1])
    d_rho = (stack[2] - stack[0]) / (2.0 * h)
    weight = np.abs(vc.conj().T @ d_rho @ vc) ** 2

    lam_i, lam_j = lam[:, None], lam[None, :]
    pair_sum = lam_i + lam_j
    keep = pair_sum >= EIG_FLOOR
    value = float(2.0 * np.sum(weight[keep] / pair_sum[keep]))

    classical = np.diag(keep)
    term_classical = float(np.sum(np.diag(weight)[classical] / lam[classical]))
    gap_sq = (lam_i - lam_j) ** 2
    off_diagonal = keep & ~np.eye(len(lam), dtype=bool)
    tied = off_diagonal & (gap_sq == 0.0)
    split = off_diagonal & ~tied
    mixing = weight[split] / gap_sq[split]  # |<V_i|dV_j>|^2
    term_quantum = float(
        2.0 * np.sum(pair_sum[split] * mixing) + 2.0 * np.sum(weight[tied] / pair_sum[tied])
    )
    term_pairs = float(8.0 * np.sum((lam_i * lam_j)[split] / pair_sum[split] * mixing))
    return QfiValue(
        value=value,
        form=FORM_TWO_SPECTRAL,
        decomposition=(term_classical, term_quantum, term_pairs),
    )


def qfi_two_qubit_spectral_retry(family: StateFamily, theta: float, h: float = FD_STEP) -> QfiValue:
    """Same as ``qfi_two_qubit_spectral``; the SLD form needs no retries.

    Kept under this name because the benchmark's tracer looks it up in
    ``fisher`` and ``verify`` and counts the engine calls made through it;
    sweep and verify call it for that reason.
    """
    return qfi_two_qubit_spectral(family, theta, h)


# ---------------------------------------------------------------------------
# Closed two-qubit form (white channel)
# ---------------------------------------------------------------------------

def _kappa_bundle(x: float, p: float, r: float):
    """kappa/b values and their gradients d/d(p, x, r) as length-3 arrays."""
    x2 = x * x
    c2r, c4r = math.cos(2.0 * r), math.cos(4.0 * r)
    s2r, s4r = math.sin(2.0 * r), math.sin(4.0 * r)

    kappa1 = 4.0 + 4.0 * p - 4.0 * p * x2 + 4.0 * p * x2 * c2r
    d_kappa1 = np.array(
        [
            4.0 - 4.0 * x2 + 4.0 * x2 * c2r,
            -8.0 * p * x + 8.0 * p * x * c2r,
            -8.0 * p * x2 * s2r,
        ]
    )

    b1 = 6.0 + 20.0 * p + 38.0 * p * p - 40.0 * p * x2 - 24.0 * p * p * x2 + 24.0 * p * p * x2 * x2
    d_b1 = np.array(
        [
            20.0 + 76.0 * p - 40.0 * x2 - 48.0 * p * x2 + 48.0 * p * x2 * x2,
            -80.0 * p * x - 48.0 * p * p * x + 96.0 * p * p * x * x2,
            0.0,
        ]
    )

    poly = 1.0 + p * (2.0 - 4.0 * x2) + p * p * (-3.0 - 4.0 * x2 + 4.0 * x2 * x2)
    d_poly_p = 2.0 - 4.0 * x2 + 2.0 * p * (-3.0 - 4.0 * x2 + 4.0 * x2 * x2)
    d_poly_x = -8.0 * p * x - 8.0 * p * p * x + 16.0 * p * p * x * x2
    b2 = 8.0 * poly * c2r
    d_b2 = np.array([8.0 * d_poly_p * c2r, 8.0 * d_poly_x * c2r, -16.0 * poly * s2r])

    lin = -1.0 + p - 2.0 * p * x2
    b3 = 2.0 * c4r * lin * lin
    d_b3 = np.array(
        [
            4.0 * c4r * lin * (1.0 - 2.0 * x2),
            -16.0 * p * x * c4r * lin,
            -8.0 * s4r * lin * lin,
        ]
    )

    radicand = b1 - b2 + b3
    kappa2 = math.sqrt(max(0.0, radicand))
    d_radicand = d_b1 - d_b2 + d_b3
    d_kappa2 = d_radicand / (2.0 * kappa2) if kappa2 > 1e-12 else None

    kappa3 = 2.0 + 6.0 * p - 12.0 * p * x2 - (2.0 - 2.0 * p + 4.0 * p * x2) * c2r
    d_kappa3 = np.array(
        [
            6.0 - 12.0 * x2 + (2.0 - 4.0 * x2) * c2r,
            -24.0 * p * x - 8.0 * p * x * c2r,
            (4.0 - 4.0 * p + 8.0 * p * x2) * s2r,
        ]
    )

    return {
        "kappa1": (kappa1, d_kappa1),
        "kappa2": (kappa2, d_kappa2),
        "kappa3": (kappa3, d_kappa3),
        "b": (b1, b2, b3),
        "db": (d_b1, d_b2, d_b3),
    }


def kappa_mu_terms(x: float, p: float, r: float, require_mu: bool = True) -> KappaMuTerms:
    """Evaluate the spectral closed form's building blocks at (x, p, r).

    mu1, mu2 require a nonvanishing coherence coefficient; where it is zero
    (p=0 or x in {0, 1}) this raises ``SingularPointError`` unless
    ``require_mu=False``, in which case the mu fields come back as ``None``.
    """
    ModelParams(x=x, p=p, r=r, channel=Channel.WHITE).validate()
    bundle = _kappa_bundle(x, p, r)
    kappa1, _ = bundle["kappa1"]
    kappa2, _ = bundle["kappa2"]
    kappa3, _ = bundle["kappa3"]
    b1, b2, b3 = bundle["b"]
    epsilon = white_coeffs(x, p).epsilon
    if epsilon == 0.0:
        if require_mu:
            raise SingularPointError(
                f"coherence coefficient vanishes at x={x}, p={p}; mu terms undefined"
            )
        mu1 = mu2 = None
    else:
        sec_r = 1.0 / math.cos(r)
        mu1 = sec_r * (kappa3 - kappa2) / (16.0 * epsilon)
        mu2 = sec_r * (kappa3 + kappa2) / (16.0 * epsilon)
    return KappaMuTerms(
        kappa1=kappa1, kappa2=kappa2, kappa3=kappa3, b1=b1, b2=b2, b3=b3, mu1=mu1, mu2=mu2
    )


def _mu_bundle(x: float, p: float, r: float):
    """mu1, mu2 and their gradients d/d(p, x, r); singular where the block
    coherence vanishes."""
    epsilon = white_coeffs(x, p).epsilon
    if epsilon == 0.0:
        raise SingularPointError(f"coherence coefficient vanishes at x={x}, p={p}")
    bundle = _kappa_bundle(x, p, r)
    kappa2, d_kappa2 = bundle["kappa2"]
    kappa3, d_kappa3 = bundle["kappa3"]
    if d_kappa2 is None:
        raise SingularPointError(f"coherent block degenerate at x={x}, p={p}, r={r}")
    d_epsilon = np.array(
        [
            x * math.sqrt(1.0 - x * x),
            p * (1.0 - 2.0 * x * x) / math.sqrt(1.0 - x * x),
            0.0,
        ]
    )
    sec_r, tan_r = 1.0 / math.cos(r), math.tan(r)
    mu1 = sec_r * (kappa3 - kappa2) / (16.0 * epsilon)
    mu2 = sec_r * (kappa3 + kappa2) / (16.0 * epsilon)
    d_mu1 = sec_r * ((d_kappa3 - d_kappa2) - (kappa3 - kappa2) * d_epsilon / epsilon) / (16.0 * epsilon)
    d_mu2 = sec_r * ((d_kappa3 + d_kappa2) - (kappa3 + kappa2) * d_epsilon / epsilon) / (16.0 * epsilon)
    d_mu1 = d_mu1 + np.array([0.0, 0.0, tan_r * mu1])
    d_mu2 = d_mu2 + np.array([0.0, 0.0, tan_r * mu2])
    return mu1, d_mu1, mu2, d_mu2


def qfi_two_white_closed(
    param: str, x: float, p: float, r: float, r_max: float = RINDLER_R_MAX
) -> QfiValue:
    """Closed-form spectral QFI of the accelerated white channel.

    Assembled from the published building blocks with primes read as partial
    derivatives with respect to the estimated parameter and the pair-term
    eigenvalues taken as (kappa1 -+ kappa2)/16, i.e. the coherent block's
    eigenvalue pair.  Singular where the block coherence vanishes (p=0,
    x in {0, 1}) or the block is degenerate.
    """
    if param not in ("p", "x", "r"):
        raise DomainError(f"parameter must be one of p, x, r; got {param!r}")
    ModelParams(x=x, p=p, r=r, channel=Channel.WHITE).validate(r_max)
    idx = _PARAM_INDEX[param]

    coeffs = white_coeffs(x, p)
    bundle = _kappa_bundle(x, p, r)
    kappa1, d_kappa1 = bundle["kappa1"]
    kappa2, d_kappa2 = bundle["kappa2"]
    mu1, d_mu1, mu2, d_mu2 = _mu_bundle(x, p, r)

    gamma, beta = coeffs.gamma, coeffs.beta
    d_gamma = np.array([-0.25, 0.0, 0.0])
    d_beta = np.array([(-1.0 + 4.0 * x * x) / 4.0, 2.0 * p * x, 0.0])
    cr2, sr2 = math.cos(r) ** 2, math.sin(r) ** 2
    s2r = math.sin(2.0 * r)

    eig_low = gamma * cr2
    d_eig_low = d_gamma * cr2 + np.array([0.0, 0.0, -gamma * s2r])
    eig_high = gamma + beta * sr2
    d_eig_high = d_gamma + d_beta * sr2 + np.array([0.0, 0.0, beta * s2r])
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
        if lam >= EIG_FLOOR:
            term_classical += grad[idx] ** 2 / lam

    one1 = 1.0 + mu1 * mu1
    one2 = 1.0 + mu2 * mu2
    term_quantum = 0.25 * (
        (kappa1 - kappa2) * d_mu1[idx] ** 2 / one1**2
        + (kappa1 + kappa2) * d_mu2[idx] ** 2 / one2**2
    )
    term_pairs = (
        8.0
        * (lam2 * lam3 / (lam2 + lam3))
        * ((mu1 - mu2) ** 2 / (one1 * one2))
        * (d_mu1[idx] ** 2 / one1**2 + d_mu2[idx] ** 2 / one2**2)
    )
    value = term_classical + term_quantum - term_pairs
    return QfiValue(
        value=max(0.0, value),
        form=FORM_CLOSED,
        decomposition=(float(term_classical), float(term_quantum), float(term_pairs)),
    )
