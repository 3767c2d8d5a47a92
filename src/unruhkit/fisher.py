"""Quantum Fisher information engines and the white-channel closed forms.

Two generic numerical engines cover every channel and every estimated
parameter:

* ``qfi_single_bloch``: the single-qubit form driven by the Bloch vector of
  a 2x2 state family, F = (s . ds)^2/(1-|s|^2) + |ds|^2 for mixed states and
  |ds|^2 for pure ones;
* ``qfi_two_qubit_spectral``: the symmetric-logarithmic-derivative (SLD)
  form on a 4x4 family, F = 2 sum_{i,j} |<V_i|drho|V_j>|^2/(l_i+l_j).

Both two-qubit routes, the SLD engine and the closed form, follow one rule:
a value function never computes the decomposition F = term_classical +
term_quantum - term_pairs.  ``qfi_two_qubit_terms`` and ``qfi_two_white_terms``
give it on request, with the value bit for bit from the same private parts
(``_sld``, ``_white_closed``).

Derivatives are taken by complex step: every family is real-analytic in its
parameter, so one evaluation at theta + ih gives rho = Re and drho = Im/h,
exact to round-off (Squire & Trapp, SIAM Rev. 40, 110 (1998)).  The SLD form
needs one eigendecomposition of rho, so no eigenvector is differentiated and
no eigenvector gauge has to be fixed (Braunstein & Caves, PRL 72, 3439
(1994); Liu et al., J. Phys. A 53, 023001 (2020)).

Every function computes on arrays only.  An engine evaluates the family once
per estimated parameter, at the array theta + ih, as one stack that broadcasts
to ``shape(theta) + (dim, dim)``, and gives arrays of theta's shape; the SLD
engine runs one batched ``eigh``.  Where the family is not finite at theta + ih
(at x = 1 the step reaches the branch point of sqrt(1 - x^2)), the value and
each term of the decomposition are NaN.

A family may free several parameters at once (``state_family`` with a tuple
of names).  The engines then take one theta per parameter, step each in turn,
and give every parameter's QFI from the one state rho: one eigendecomposition
serves every direction of the SLD form (Liu et al., sec. 3).  The closed
forms take a tuple of names likewise and give every parameter from one set of
building blocks.  Each output then has a leading axis over the parameters, and
each of its entries equals the one-parameter call bit for bit: inside, every
computation carries that axis, one entry long for a single name, and only the
output drops it.

The closed forms published for the white channel (single-qubit expressions
for each parameter and the spectral-form building blocks kappa_i, b_i, mu_i)
are implemented as printed; only the two-qubit value restates quantum -
pairs without its cancellation (``_white_closed``).  Its primes, partial
derivatives in the estimated parameter, come from one complex-step
evaluation of the published blocks, so no gradient is derived by hand and it
stays independent of the SLD engine, which steps the state.  The closed forms
take broadcast arrays of (x, p, r) and give NaN where a term is undefined;
the verification harness compares them against the engines.

Floats cross one boundary, ``_float_boundary``: a float call runs as a
one-element array and returns floats, so it equals its array entry bit for
bit, and where that entry is NaN it raises the exception ``NAN_ERRORS`` names
for its form.  Sweeps read the same table to name each empty cell's reason.
"""

from __future__ import annotations

import functools
import inspect
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

# The exception a float call raises where its array call gives NaN, by form:
# an engine's family is not finite at theta + ih, a closed form's term is undefined.
NAN_ERRORS = {
    FORM_SINGLE_BLOCH: FamilyEvalError,
    FORM_TWO_SPECTRAL: FamilyEvalError,
    FORM_CLOSED: SingularPointError,
}

_EYE4 = np.eye(4, dtype=bool)
# A closed form's message for a name that is not one of the white channel's.
_CLOSED_UNKNOWN = "parameter must be one of p, x, r; got {param!r}"


@dataclass(frozen=True)
class QfiValue:
    """A Fisher information value, its originating form, and the
    classical/quantum/pair-term decomposition, which only
    ``qfi_two_qubit_terms`` and ``qfi_two_white_terms`` give (else None)."""

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
    mu1: float
    mu2: float


@dataclass(frozen=True)
class StateFamily:
    """A family of states: theta -> density matrix.

    ``param`` names the estimated parameter (p, q, x or r), or is a tuple of
    names, one per positional argument of ``evaluate``.  ``evaluate`` must be
    side-effect free and real-analytic, and real symmetric at real theta.  The
    engines call it once per parameter, with that parameter's argument at the
    complex array theta + ih and the others real, and expect a matrix that
    broadcasts to the thetas' broadcast shape + (dim, dim); a matrix free of
    theta has zero derivative at every cell.

    The engines do not enforce that the family is real.  Their symmetry test
    catches only a family whose imaginary part is nonzero at theta itself.
    For rho(theta) = I/2 + 0.1 theta sigma_y, the matrix at 0 + ih is
    asymmetric by only 2e-31, so ``qfi_single_bloch`` at theta = 0 returns
    0.0 where the true QFI is 0.04; at theta = 0.3 it raises ``DomainError``.
    """

    evaluate: Callable[..., np.ndarray]
    param: str | tuple[str, ...]
    dim: int = 4
    label: str = ""


def _family_stencil(family: StateFamily, theta) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """rho, drho/dtheta_k for each parameter k, all real, and the mask of the
    cells where direction k is not finite, of ``shape``, the broadcast shape
    of the thetas.  drho and the mask have a leading axis over the parameters,
    one entry for a single name; the engines drop it there (``_per_name``).

    Direction k is one evaluation of the family with theta_k + ih in its slot:
    Im/h is drho/dtheta_k and Re is rho.  The family's result must broadcast
    to ``shape + (dim, dim)``; any other shape, or an exception from
    ``family.evaluate``, raises ``FamilyEvalError``.  A matrix that is not
    symmetric raises ``DomainError``, as Im/h of a complex family is no
    derivative.  That test sees only the asymmetry at theta + ih, so a complex
    Hermitian family whose imaginary part vanishes at theta passes it with a
    wrong derivative (see ``StateFamily``): families must be real.  At a cell
    where direction k is not finite (its step reaches a branch point) it holds
    rho = I/dim and drho = 0, so the batched eigensolve sees only finite
    input, and the engines give NaN at the mask.  So rho is taken, cell by
    cell, from the first direction finite there: at x = 1 the x direction is
    NaN and the others are not.
    """
    thetas = _leaves(theta)
    shape = np.broadcast(*thetas).shape + (family.dim, family.dim)
    name = family.label or family.param
    rho = unset = None
    d_rho = np.empty((len(thetas),) + shape)
    bad = np.empty(d_rho.shape[:-2], dtype=bool)
    for k, theta_k in enumerate(thetas):
        step = thetas[:k] + (theta_k + 1j * COMPLEX_STEP,) + thetas[k + 1 :]
        with np.errstate(invalid="ignore"):
            try:
                m = np.asarray(family.evaluate(*step), dtype=complex)
            except Exception as exc:  # noqa: BLE001 - family code is caller-supplied
                raise FamilyEvalError(f"family {name} failed at {theta}: {exc}") from exc
        if m.shape != shape:
            try:
                m = np.broadcast_to(m, shape)
            except ValueError:
                raise FamilyEvalError(f"family {name} returned shape {m.shape} at {theta}, not {shape}") from None
        # A NaN cell compares False, so it is left to the mask.
        if (np.abs(m - m.swapaxes(-1, -2)) > HERMITICITY_TOL).any():
            raise DomainError(f"family {name} is not real symmetric at {theta}")
        bad_k = ~np.isfinite(m).all(axis=(-2, -1))
        if bad_k.any():
            m = np.where(bad_k[..., None, None], np.eye(family.dim) / family.dim, m)
        if rho is None:
            rho, unset = m.real, bad_k
        elif unset.any():
            rho, unset = np.where(unset[..., None, None], m.real, rho), unset & bad_k
        np.divide(m.imag, COMPLEX_STEP, out=d_rho[k])
        bad[k] = bad_k
    return rho, d_rho, bad


def _leaves(value) -> tuple:
    """The entries of a tuple (one theta or name per parameter), or the one
    value as a tuple."""
    return value if isinstance(value, tuple) else (value,)


def _per_name(param: str | tuple[str, ...], value):
    """``value``, whose leading axis runs over the parameters of ``param``,
    without that axis for a single name."""
    return value if isinstance(param, tuple) else value[0]


def _param_names(param, channel: Channel, unknown: str = "parameter {name!r} is not part of the {channel} channel"):
    """The names of ``param``: each a parameter of ``channel`` (else the
    ``DomainError`` ``unknown``, formatted with name, channel and param), at
    least one and none twice, as a family's thetas fill one slot per name."""
    names = _leaves(param)
    for name in names:
        if name not in CHANNEL_PARAMS[channel]:
            raise DomainError(unknown.format(name=name, channel=channel.value, param=param))
    if not names or len(set(names)) < len(names):
        raise DomainError(f"parameters must be named once each, at least one; got {param!r}")
    return names


def _one_element(value):
    """A point argument as one-element arrays, and so through a tuple."""
    return tuple(map(_one_element, value)) if isinstance(value, tuple) else np.array([value])


def _item(value):
    """A result computed at one-element points, with the point axis dropped: a
    float, or an array over the parameters; and so through a tuple."""
    if isinstance(value, tuple):
        return tuple(map(_item, value))
    if not isinstance(value, np.ndarray):
        return value
    value = value[..., 0]
    return value if value.ndim else value.item()


def _float_boundary(form: str, *point: str):
    """Decorate an array function of ``form`` so that it takes floats too: a
    call whose ``point`` arguments are all 0-d (a tuple of thetas counts by
    its entries) runs them as one-element arrays, returns its result with each
    array as a float (an array over the parameters for a tuple of them), and
    raises ``NAN_ERRORS[form]`` where one is NaN.  Other calls pass through."""

    def decorate(compute):
        signature = inspect.signature(compute)
        slots = [(list(signature.parameters).index(name), name) for name in point]

        @functools.wraps(compute)
        def call(*args, **kwargs):
            values = [args[i] if i < len(args) else kwargs[name] for i, name in slots]
            if any(np.ndim(leaf) for value in values for leaf in _leaves(value)):
                return compute(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            bound.arguments.update((name, _one_element(value)) for name, value in zip(point, values))
            result = compute(*bound.args, **bound.kwargs)
            floats = {name: _item(value) for name, value in vars(result).items()}
            if any(np.isnan(v).any() for v in floats.values() if isinstance(v, (float, tuple, np.ndarray))):
                where = ", ".join(f"{name}={value}" for name, value in zip(point, values))
                raise NAN_ERRORS[form](f"{compute.__name__} is undefined at {where}")
            return type(result)(**floats)

        return call

    return decorate


# ---------------------------------------------------------------------------
# Single-qubit (Bloch) form
# ---------------------------------------------------------------------------

def bloch_vector(rho: np.ndarray) -> np.ndarray:
    """Bloch vector s with rho = (I + s . sigma)/2 for a single-qubit state.

    A ``(..., 2, 2)`` stack gives a ``(..., 3)`` stack of vectors.
    """
    rho = np.asarray(rho)
    if rho.shape[-2:] != (2, 2):
        raise DomainError(f"rho must be 2x2, got {rho.shape}")
    s = np.empty(rho.shape[:-2] + (3,))
    s[..., 0] = 2.0 * rho[..., 0, 1].real
    s[..., 1] = -2.0 * rho[..., 0, 1].imag
    s[..., 2] = (rho[..., 0, 0] - rho[..., 1, 1]).real
    return s


@_float_boundary(FORM_SINGLE_BLOCH, "theta")
def qfi_single_bloch(family: StateFamily, theta) -> QfiValue:
    """Single-qubit QFI of a 2x2 family at ``theta`` via its complex step.

    An array ``theta`` gives an array ``value`` of its shape, NaN at the cells
    where the family is not finite at theta + ih.  For a family of several
    parameters ``theta`` is a tuple, one theta per parameter, and ``value``
    has a leading axis over the parameters.
    """
    rho, d_rho, bad = _family_stencil(family, theta)
    s, ds = bloch_vector(rho), bloch_vector(d_rho)
    ds_sq = (ds * ds).sum(axis=-1)
    norm_sq = (s * s).sum(axis=-1)
    pure = np.sqrt(norm_sq) >= 1.0 - PURE_MARGIN
    mixed = (s * ds).sum(axis=-1) ** 2 / np.where(pure, 1.0, 1.0 - norm_sq) + ds_sq
    value = np.where(bad, np.nan, np.maximum(0.0, np.where(pure, ds_sq, mixed)))
    return QfiValue(value=_per_name(family.param, value), form=FORM_SINGLE_BLOCH)


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
    m = np.zeros(np.shape(top) + (2, 2), dtype=np.result_type(float, top))
    m[..., 0, 0] = top
    m[..., 1, 1] = 1.0 - top
    return m


# ---------------------------------------------------------------------------
# Families over the model's parameters
# ---------------------------------------------------------------------------

def state_family(
    channel: Channel,
    param: str | tuple[str, ...],
    x: float = 0.0,
    p: float = 0.0,
    q: float = 0.0,
    r: float = 0.0,
    reduced: bool = False,
) -> StateFamily:
    """Family theta -> accelerated state with ``param`` freed and the rest fixed.

    ``param`` is one parameter of the channel or a tuple of them; the family's
    ``evaluate`` takes one theta per name, in that order.  It evaluates the
    combined builder at the mapped strengths, without domain checks, so the
    engines can evaluate it at complex theta + ih; it is real symmetric and
    real-analytic, as ``StateFamily`` requires.  ``reduced=True`` gives the
    2x2 reduction of the accelerated qubit instead of the full state.  Fixed
    parameters may be arrays; they broadcast against theta, so the engines
    need a theta of the broadcast shape.
    """
    channel = Channel(channel)
    names = _param_names(param, channel)

    build = _reduced_state if reduced else _whitecolor_state
    fixed = {"x": x, "p": p, "q": q, "r": r}

    def evaluate(*thetas):
        point = {**fixed, **dict(zip(names, thetas))}
        # A color q moves both combined strengths: (q, 1 - q).
        cp, cq = combined_strengths(channel, point["p"], point["q"])
        return build(point["x"], cp, cq, point["r"])

    label = f"{channel.value}:{','.join(names)}" + (":reduced" if reduced else "")
    return StateFamily(evaluate=evaluate, param=param, dim=2 if reduced else 4, label=label)


# ---------------------------------------------------------------------------
# Closed single-qubit forms (white channel)
# ---------------------------------------------------------------------------

@_float_boundary(FORM_CLOSED, "x", "p", "r")
def qfi_single_white_closed(param: str | tuple[str, ...], x, p, r, r_max: float = RINDLER_R_MAX) -> QfiValue:
    """Closed-form single-qubit QFI of the accelerated white channel.

    The reduced qubit's Bloch vector is (0, 0, (1-a p) cos^2 r - 1) with
    a = 1 - 2 x^2; the mixed/pure branch is selected from |s| exactly as the
    numerical engine does.  NaN where the mixed branch's denominator
    vanishes.  A tuple ``param`` gives a leading axis over its names.
    """
    names = _param_names(param, Channel.WHITE, _CLOSED_UNKNOWN)
    _validate_points(r_max, x, p, 0.0, r, Channel.WHITE)
    a = 1.0 - 2.0 * x * x
    lin = 1.0 - a * p
    cr = np.cos(r)
    cr2 = cr * cr
    sz = lin * cr2 - 1.0
    pure = np.abs(sz) >= 1.0 - PURE_MARGIN
    bracket = 3.0 + a * p - lin * np.cos(2.0 * r)

    def form(name):
        """The pure branch, then the mixed branch's numerator and divisor."""
        if name == "p":
            return a * a * cr2 * cr2, 2.0 * a * a * cr2, lin * bracket
        if name == "x":
            return 16.0 * p * p * x * x * cr2 * cr2, 32.0 * p * p * x * x * cr2, lin * bracket
        s2r, sr = np.sin(2.0 * r), np.sin(r)
        return lin * lin * (s2r * s2r), 8.0 * lin * (sr * sr), bracket

    value = np.empty((len(names),) + np.shape(sz))  # sz has the points' broadcast shape
    for k, name in enumerate(names):
        pure_value, numerator, divisor = form(name)
        with np.errstate(divide="ignore", invalid="ignore"):
            mixed = numerator / divisor
        value[k] = np.where(~pure & (np.abs(divisor) < 1e-14), np.nan, np.where(pure, pure_value, mixed))
    return QfiValue(value=clip_at_zero(_per_name(param, value)), form=FORM_CLOSED)


# ---------------------------------------------------------------------------
# Two-qubit spectral engine
# ---------------------------------------------------------------------------

def _masked_sum(mask: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Sum of ``values`` over the last two axes where ``mask`` holds."""
    return np.where(mask, values, 0.0).sum(axis=(-2, -1))


def _sld(family: StateFamily, theta):
    """The SLD sum's parts at ``theta``: the eigenvalues lam of rho, the
    squared entries weight = D_ij^2 of D = V^T (drho) V, the mask ``keep`` of
    the pairs whose eigenvalue sum is at least ``EIG_FLOOR``, those sums with
    1 outside the mask, the value F = 2 sum_{keep} D_ij^2/(l_i + l_j), and the
    mask of the cells where the family is not finite at theta + ih."""
    rho, d_rho, bad = _family_stencil(family, theta)
    lam, v = np.linalg.eigh(rho)
    weight = (v.swapaxes(-1, -2) @ d_rho @ v) ** 2
    pair_sum = lam[..., :, None] + lam[..., None, :]
    keep = pair_sum >= EIG_FLOOR
    # Divisors are swapped for 1 outside their masks, so nothing divides by 0.
    kept_sum = np.where(keep, pair_sum, 1.0)
    value = 2.0 * _masked_sum(keep, weight / kept_sum)
    return lam, weight, keep, kept_sum, value, bad


@_float_boundary(FORM_TWO_SPECTRAL, "theta")
def qfi_two_qubit_spectral(family: StateFamily, theta) -> QfiValue:
    """SLD-form QFI of a 4x4 family at ``theta`` via its complex step.

    With rho = sum_i l_i |V_i><V_i| at ``theta`` and the real D = V^T (drho) V,
    F = 2 sum_{i,j} D_ij^2/(l_i + l_j) over pairs whose eigenvalue sum is at
    least ``EIG_FLOOR``.  The decomposition is None: ``qfi_two_qubit_terms``
    gives the same value with it.

    An array ``theta`` gives a value of its shape, NaN at the cells where the
    family is not finite at theta + ih.  For a family of several parameters
    ``theta`` is a tuple, one theta per parameter; one ``eigh`` of rho serves
    them all, and the value has a leading axis over the parameters.
    """
    *_, value, bad = _sld(family, theta)
    return QfiValue(value=_per_name(family.param, np.where(bad, np.nan, value)), form=FORM_TWO_SPECTRAL)


@_float_boundary(FORM_TWO_SPECTRAL, "theta")
def qfi_two_qubit_terms(family: StateFamily, theta) -> QfiValue:
    """``qfi_two_qubit_spectral``'s value, bit for bit, with its spectral-form
    decomposition (term_classical, term_quantum, term_pairs).

    The classical term is sum_i D_ii^2/l_i, and the quantum and pair terms
    are those of the spectral form, with <V_i|dV_j> = D_ij/(l_j - l_i).  An
    exactly tied pair, whose eigenvectors are not defined, puts its whole
    share 4 D_ij^2/(l_i + l_j) into the quantum term, so value = classical +
    quantum - pairs throughout.  Each term has the value's shape and its NaN
    cells.
    """
    lam, weight, keep, kept_sum, value, bad = _sld(family, theta)
    lam_i, lam_j = lam[..., :, None], lam[..., None, :]
    # The diagonal of ``keep``: l_i + l_i >= EIG_FLOOR.
    classical = _EYE4 & (lam_i >= EIG_FLOOR / 2.0)
    term_classical = _masked_sum(classical, weight / np.where(classical, lam_i, 1.0))
    gap_sq = (lam_i - lam_j) ** 2
    off_diagonal = keep & ~_EYE4
    tied = off_diagonal & (gap_sq == 0.0)
    split = off_diagonal & ~tied
    mixing = weight / np.where(split, gap_sq, 1.0)  # |<V_i|dV_j>|^2 where split
    term_quantum = 2.0 * _masked_sum(split, (lam_i + lam_j) * mixing) + 2.0 * _masked_sum(
        tied, weight / kept_sum
    )
    term_pairs = 8.0 * _masked_sum(split, lam_i * lam_j / kept_sum * mixing)
    value, *terms = (
        _per_name(family.param, np.where(bad, np.nan, t))
        for t in (value, term_classical, term_quantum, term_pairs)
    )
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

def _white_blocks(x, p, r) -> tuple:
    """The published building blocks at array (x, p, r): kappa1, kappa2,
    kappa3, mu1, mu2, then the populations gamma cos^2 r and gamma + beta
    sin^2 r of the two incoherent levels.

    kappa2's radicand b1 - b2 + b3 is kappa3^2 + 256 (epsilon cos r)^2, and
    mu1 mu2 = -1: the mu of kappa3's sign takes no difference, the other is
    -1/it.  Every block is analytic in (x, p, r), so complex input gives the
    values at theta + ih, whose Im/h are their primes; branches test the real
    part.  mu1, mu2 are NaN where epsilon vanishes or the block is degenerate.
    """
    coeffs = white_coeffs(x, p)
    x2 = x * x
    c2r = np.cos(2.0 * r)
    cr, sr = np.cos(r), np.sin(r)
    coherence = coeffs.epsilon * cr
    kappa1 = 4.0 + 4.0 * p - 4.0 * p * x2 + 4.0 * p * x2 * c2r
    kappa3 = 2.0 + 6.0 * p - 12.0 * p * x2 - (2.0 - 2.0 * p + 4.0 * p * x2) * c2r
    radicand = kappa3 * kappa3 + 256.0 * coherence * coherence
    kappa2 = np.sqrt(np.where(radicand.real <= 0.0, 0.0, radicand))
    singular = (coeffs.epsilon.real == 0.0) | (kappa2.real <= 1e-12)
    negative = kappa3.real < 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        big = np.where(negative, kappa3 - kappa2, kappa3 + kappa2) / (16.0 * coherence)
        small = -1.0 / big
    mu1 = np.where(singular, np.nan, np.where(negative, big, small))
    mu2 = np.where(singular, np.nan, np.where(negative, small, big))
    eig_low, eig_high = coeffs.gamma * (cr * cr), coeffs.gamma + coeffs.beta * (sr * sr)
    return kappa1, kappa2, kappa3, mu1, mu2, eig_low, eig_high


def _white_stepped(names: tuple[str, ...], x, p, r) -> tuple[list, list]:
    """``_white_blocks`` and their primes at arrays (x, p, r) of one shape, in
    one evaluation: row k of a complex stack steps the k-th of ``names`` to
    theta + ih.  The values are row 0's real parts: a step moves a real part
    by O(h^2), far below its rounding, so they are the blocks at the real
    point to rounding (complex division rounds mu apart by an ulp).  The
    primes, Im/h of each row, have a leading axis over ``names``.  All three
    parameters are complex in every row, so each row is computed alike
    whatever the other names, bit for bit."""
    point = np.array([x, p, r], dtype=complex)[:, None].repeat(len(names), axis=1)
    for k, name in enumerate(names):
        point["xpr".index(name), k] += 1j * COMPLEX_STEP
    blocks = _white_blocks(*point)
    return [block[0].real for block in blocks], [block.imag / COMPLEX_STEP for block in blocks]


@_float_boundary(FORM_CLOSED, "x", "p", "r")
def kappa_mu_terms(x, p, r) -> KappaMuTerms:
    """Evaluate the spectral closed form's building blocks at (x, p, r).

    mu1, mu2 require a nondegenerate block with a nonvanishing coherence
    coefficient; where that is zero (p=0 or x in {0, 1}) they are NaN, so a
    float call raises ``SingularPointError``.  b1, b2, b3 are the published
    terms of kappa2's radicand b1 - b2 + b3; the closed QFI takes that
    radicand as the sum of squares ``_white_blocks`` names.
    """
    _validate_points(RINDLER_R_MAX, x, p, 0.0, r, Channel.WHITE)
    kappa1, kappa2, kappa3, mu1, mu2, *_ = _white_blocks(x, p, r)
    x2 = x * x
    b1 = 6.0 + 20.0 * p + 38.0 * p * p - 40.0 * p * x2 - 24.0 * p * p * x2 + 24.0 * p * p * x2 * x2
    poly = 1.0 + p * (2.0 - 4.0 * x2) + p * p * (-3.0 - 4.0 * x2 + 4.0 * x2 * x2)
    b2 = 8.0 * poly * np.cos(2.0 * r)
    lin = -1.0 + p - 2.0 * p * x2
    b3 = 2.0 * np.cos(4.0 * r) * lin * lin
    return KappaMuTerms(kappa1, kappa2, kappa3, b1, b2, b3, mu1, mu2)


def _white_closed(param: str | tuple[str, ...], x, p, r, r_max: float) -> tuple:
    """The closed two-qubit form's shared parts, each with a leading axis
    over the names of ``param``: the value before its clip at zero,
    term_classical, kappa1, kappa2, mu1, mu2, mu1' and mu2'.

    Primes (``_white_stepped``) are partial derivatives in the estimated
    parameter.  The classical term sums prime^2/lam over the eigenvalues, the
    coherent pair's as (kappa1 -+ kappa2)/16; it is NaN where mu is.  As
    mu1 mu2 = -1, both roots give one angle prime theta' = mu'/(1 + mu^2),
    and the published quantum - pairs is exactly kappa2^2/(2 kappa1) theta'^2,
    with theta' from the root with |mu| <= 1: the value takes that, as the
    float difference of the two terms, each of size kappa1 theta'^2, loses
    every digit where the coherent block is near-degenerate (small p and r).
    """
    names = _param_names(param, Channel.WHITE, _CLOSED_UNKNOWN)
    _validate_points(r_max, x, p, 0.0, r, Channel.WHITE)
    (kappa1, kappa2, _, mu1, mu2, eig_low, eig_high), primes = _white_stepped(names, *np.broadcast_arrays(x, p, r))
    kappa1_prime, kappa2_prime, _, mu1_prime, mu2_prime, eig_low_prime, eig_high_prime = primes

    lams = (eig_low, eig_high, (kappa1 - kappa2) / 16.0, (kappa1 + kappa2) / 16.0)
    d_lams = (eig_low_prime, eig_high_prime, (kappa1_prime - kappa2_prime) / 16.0, (kappa1_prime + kappa2_prime) / 16.0)
    term_classical = 0.0
    for lam, prime in zip(lams, d_lams):
        kept = lam + lam >= EIG_FLOOR  # the engine's rule for a diagonal pair
        term_classical = term_classical + np.where(kept, prime * prime / np.where(kept, lam, 1.0), 0.0)
    term_classical = np.where(np.isnan(mu1), np.nan, term_classical)

    inner = np.abs(mu1) <= 1.0
    theta_prime = np.where(inner, mu1_prime, mu2_prime) / np.where(inner, 1.0 + mu1 * mu1, 1.0 + mu2 * mu2)
    value = term_classical + kappa2 * kappa2 / (2.0 * kappa1) * (theta_prime * theta_prime)
    return value, term_classical, kappa1, kappa2, mu1, mu2, mu1_prime, mu2_prime


@_float_boundary(FORM_CLOSED, "x", "p", "r")
def qfi_two_white_closed(param: str | tuple[str, ...], x, p, r, r_max: float = RINDLER_R_MAX) -> QfiValue:
    """Closed-form spectral QFI of the accelerated white channel.

    Assembled from the published building blocks (``_white_closed``).  NaN
    where the block coherence vanishes (p=0, x in {0, 1}) or the block is
    degenerate.  A tuple ``param`` gives a leading axis over its names, all
    from one set of building blocks.  The decomposition is None:
    ``qfi_two_white_terms`` gives the same value with it.
    """
    value = _white_closed(param, x, p, r, r_max)[0]
    return QfiValue(value=clip_at_zero(_per_name(param, value)), form=FORM_CLOSED)


@_float_boundary(FORM_CLOSED, "x", "p", "r")
def qfi_two_white_terms(param: str | tuple[str, ...], x, p, r, r_max: float = RINDLER_R_MAX) -> QfiValue:
    """``qfi_two_white_closed``'s value, bit for bit, with the published
    decomposition (term_classical, term_quantum, term_pairs).

    The value is not the float sum classical + quantum - pairs, whose
    difference cancels near degeneracy (``_white_closed``).  Each term has
    the value's shape; the classical one is NaN where the value is.
    """
    value, term_classical, kappa1, kappa2, mu1, mu2, mu1_prime, mu2_prime = _white_closed(param, x, p, r, r_max)
    lam2, lam3 = (kappa1 - kappa2) / 16.0, (kappa1 + kappa2) / 16.0
    one1, one2, mu_gap = 1.0 + mu1 * mu1, 1.0 + mu2 * mu2, mu1 - mu2
    slope1, slope2 = mu1_prime * mu1_prime, mu2_prime * mu2_prime
    term_quantum = 0.25 * ((kappa1 - kappa2) * slope1 / (one1 * one1) + (kappa1 + kappa2) * slope2 / (one2 * one2))
    term_pairs = (8.0 * (lam2 * lam3 / (lam2 + lam3)) * (mu_gap * mu_gap / (one1 * one2))
                  * (slope1 / (one1 * one1) + slope2 / (one2 * one2)))
    value, *terms = (_per_name(param, t) for t in (value, term_classical, term_quantum, term_pairs))
    return QfiValue(value=clip_at_zero(value), form=FORM_CLOSED, decomposition=tuple(terms))
