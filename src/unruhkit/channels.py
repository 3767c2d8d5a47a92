"""Noisy two-qubit initial states and the single-mode Unruh acceleration channel.

The model: two qubits start in a noisy mixture built around the partially
entangled ket ``sqrt(1-x^2)|01> + x|10>``, the second qubit is uniformly
accelerated, and the acceleration acts as a channel parametrized by
``r = arctan(exp(-pi*omega*c/a))`` with ``0 <= r <= pi/4``.  In the fermionic
single-mode treatment the accelerated qubit's ``|0>`` populates a pair of
Rindler-wedge modes (``cos r``/``sin r`` split) while ``|1>`` is unaffected;
tracing out the causally disconnected wedge leaves a simple two-Kraus map on
the accelerated qubit.

Every engine builds its states with the combined white+color closed form at
the strengths ``combined_strengths`` gives; the hand-simplified white and
color states are hypotheses, checked against it and the channel route.

The closed-form builders and the channel route (``initial_state``,
``unruh_second_qubit``) take floats or numpy arrays of parameter values.
Arrays broadcast together into a stack of states of shape ``(..., 4, 4)``,
each equal, bit for bit, to the state built from its own floats, and every
point of an array is validated with the message its float would raise.
Every state of the model is real symmetric, and real parameters give float64
states: the builders, ``phi_ket``, ``initial_state`` and
``unruh_second_qubit`` (of a real ``rho``) never upcast to complex.  A
builder gives complex128 only for complex entries, as a family evaluated at
theta + ih has.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .qlinalg import HERMITICITY_TOL, as_stack, hermitian_defect

# Physical upper bound of the acceleration parameter (infinite acceleration).
RINDLER_R_MAX = math.pi / 4

# Basis order |00>, |01>, |10>, |11> everywhere in this package.
KET_00, KET_01, KET_10, KET_11 = 0, 1, 2, 3
# Cells per state stack: per block of each of ``verify``'s three grid passes,
# and per call of a sweep.  A pass takes about blocks x F + cells x c, F
# (some 30 library calls) being about 1 ms per cube block and 0.5 ms per
# interior block and channel; peak memory is about 3 KB per cell of the
# largest blocks of two passes at once (the cube pass runs beside the
# others), 47 MB at grid 21.  4096 runs grid 11 in 4 blocks and grid 21 in 10.
BLOCK_CELLS = 4096


class Channel(str, Enum):
    """Which noise is mixed into the initial state."""

    WHITE = "white"
    COLOR = "color"
    WHITE_COLOR = "whitecolor"


# The model parameters each channel depends on, in canonical order.
CHANNEL_PARAMS = {
    Channel.WHITE: ("x", "p", "r"),
    Channel.COLOR: ("x", "q", "r"),
    Channel.WHITE_COLOR: ("x", "p", "q", "r"),
}


def combined_strengths(channel: Channel, p, q):
    """The combined (p, q) whose state is ``channel``'s at strengths p, q: white
    is the line q=0, color of strength q the edge p+q=1, where 1-p-q is 0.0."""
    if channel is Channel.WHITE:
        return p, 0.0
    if channel is Channel.COLOR:
        return q, 1.0 - q
    return p, q


@dataclass(frozen=True)
class ModelParams:
    """Knobs indexing one state of the model, or a stack of them: each field
    is a float or an array, and the arrays broadcast together.
    ``_validate_points`` holds their domain rules.

    x : amplitude of the initial ket (0 and 1 are product states, 1/sqrt(2)
        is maximally entangled)
    p : white-noise strength
    q : color-noise strength
    r : acceleration parameter, radians
    channel : a ``Channel`` or its name
    """

    x: float
    p: float = 0.0
    q: float = 0.0
    r: float = 0.0
    channel: Channel = Channel.WHITE

    def __post_init__(self) -> None:
        object.__setattr__(self, "channel", Channel(self.channel))

    def validate(self, r_max: float = RINDLER_R_MAX) -> None:
        """``_validate_points`` of the fields; ``r_max`` widens the r bound."""
        _validate_points(r_max, self.x, self.p, self.q, self.r, self.channel)


class WhiteCoeffs(NamedTuple):
    """Populations/coherence coefficients of the accelerated white-noise state."""

    alpha: float
    beta: float
    gamma: float
    epsilon: float


class ColorCoeffs(NamedTuple):
    """Populations/coherence coefficients of the accelerated color-noise state."""

    alpha_c: float
    beta_c: float
    epsilon_c: float


# A radicand u + iv is NaN unless u >= |v|: a complex step within reach of
# the branch point has no value.
def _sqrt(v):
    return np.where(v.real >= np.abs(v.imag), np.sqrt(v), np.nan)


def _validate_points(r_max: float, x, p, q, r, channel: Channel = Channel.WHITE_COLOR) -> None:
    """The model's domain, the one place its rules are written: raise
    ``DomainError`` unless every point of the broadcast float or array values
    is inside ``channel``'s domain, naming the first failing point's first
    failing rule.  Of floats each rule is a bool, so they combine in plain
    Python; of arrays it is a boolean array.  ``r_max`` widens the acceleration
    bound, as figure presets do for curves printed slightly past pi/4."""
    in_x = (0.0 <= x) & (x <= 1.0)
    in_p = (0.0 <= p) & (p <= 1.0)
    in_q = (0.0 <= q) & (q <= 1.0)
    in_pq = channel is not Channel.WHITE_COLOR or p + q <= 1.0 + 1e-12
    in_r = (0.0 <= r) & (r <= r_max + 1e-12)
    # Rules of floats lead, so they combine without a ufunc; floats give a
    # bool, numpy values an array or a numpy bool.
    ok = in_pq & in_q & in_p & in_x & in_r
    if ok is True or ok is not False and ok.all():
        return
    if np.ndim(ok):  # the first failing point, validated alone, raises
        first = int(np.argmin(ok))
        point = (np.broadcast_to(v, ok.shape).flat[first] for v in (x, p, q, r))
        _validate_points(r_max, *point, channel)
    rules = (
        (in_x, "x={x} outside [0, 1]"),
        (in_p, "p={p} outside [0, 1]"),
        (in_q, "q={q} outside [0, 1]"),
        (in_pq, "p+q={pq} exceeds 1 for the combined channel"),
        (in_r, "r={r} outside [0, {r_max}]"),
    )
    message = next(text for good, text in rules if not good)
    raise DomainError(message.format(x=x, p=p, q=q, r=r, pq=p + q, r_max=r_max))


def phi_ket(x) -> np.ndarray:
    """The initial ket sqrt(1-x^2)|01> + x|10> as a real length-4 amplitude
    vector.

    An array of x gives a ``(..., 4)`` stack of kets.
    """
    _validate_points(RINDLER_R_MAX, x, 0.0, 0.0, 0.0)
    x = np.asarray(x, dtype=float)
    v = np.zeros(x.shape + (4,))
    v[..., KET_01] = np.sqrt((1.0 - x) * (1.0 + x))
    v[..., KET_10] = x
    return v


def initial_state(params: ModelParams) -> np.ndarray:
    """Noisy initial two-qubit density matrix before acceleration.

    White noise mixes toward the maximally mixed state; color noise mixes
    toward the classical equal mixture of |01> and |10| (the only reading of
    the color branch that is a valid density operator).  The combined channel
    spends strength p on white noise, q on color noise, and leaves the
    remaining 1-p-q as the entangled projector's complement budget:
    ``p*P_phi + (q/2)(|01><01| + |10><10|) + ((1-p-q)/4) I``.  White is its
    q=0 line and color its p+q=1 edge (``combined_strengths``).

    Array-valued fields broadcast into a ``(..., 4, 4)`` stack, real (float64)
    like the ket.
    """
    _validate_points(RINDLER_R_MAX, params.x, params.p, params.q, params.r, params.channel)
    ket = phi_ket(params.x)
    proj = ket[..., :, None] * ket.conj()[..., None, :]
    p, q = (
        np.asarray(v, dtype=float)[..., None, None]
        for v in combined_strengths(params.channel, params.p, params.q)
    )
    flip_mix = np.diag([0.0, 0.5, 0.5, 0.0])
    return p * proj + q * flip_mix + (1.0 - p - q) / 4.0 * np.eye(4)


def unruh_second_qubit(rho: np.ndarray, r, r_max: float = RINDLER_R_MAX) -> np.ndarray:
    """Accelerate the second qubit and trace out the hidden Rindler wedge.

    Acting on the second qubit only: |0> -> cos r |0>|0_II> + sin r |1>|1_II>,
    |1> -> |1>|0_II>; discarding the wedge modes leaves the Kraus pair
    K0 = diag(cos r, 1), K1 = sin r |1><0|.  The map is linear, trace
    preserving and completely positive.

    ``rho`` may be a ``(..., 4, 4)`` stack and ``r`` an array that broadcasts
    against its leading axes.  The Kraus pair acts entrywise: K0 rho K0^dagger
    scales entry (i, j) by k_i k_j with k = (cos r, 1, cos r, 1), and
    K1 rho K1^dagger moves sin^2 r times the second-qubit |0><0| block into
    the |1><1| block.  A real ``rho`` gives a real image; a complex one a
    complex image.
    """
    rho = as_stack(rho, "rho")
    if hermitian_defect(rho) > HERMITICITY_TOL:
        raise DomainError("rho is not Hermitian within tolerance")
    if np.abs(np.trace(rho, axis1=-2, axis2=-1).real - 1.0).max(initial=0.0) > 1e-9:
        raise DomainError("rho does not have unit trace")
    _validate_points(r_max, 0.0, 0.0, 0.0, r)
    c, s = np.cos(r), np.sin(r)
    k = np.stack(np.broadcast_arrays(c, 1.0, c, 1.0), axis=-1)
    out = k[..., :, None] * rho * k[..., None, :]
    s = np.asarray(s)[..., None, None]
    out[..., 1::2, 1::2] += s * rho[..., ::2, ::2] * s
    return out


def white_coeffs(x, p) -> WhiteCoeffs:
    """Hand-simplified coefficients of the accelerated white-noise state.

    alpha + beta + 2*gamma = 1, which is exactly the unit-trace condition of
    the assembled matrix.
    """
    return WhiteCoeffs(
        alpha=(1.0 + p * (3.0 - 4.0 * x * x)) / 4.0,
        beta=(1.0 - p * (1.0 - 4.0 * x * x)) / 4.0,
        gamma=(1.0 - p) / 4.0,
        epsilon=p * x * _sqrt((1.0 - x) * (1.0 + x)),
    )


def color_coeffs(x, q) -> ColorCoeffs:
    """Hand-simplified coefficients of the accelerated color-noise state.

    The color strength is q throughout; alpha_c + beta_c = 1.
    """
    return ColorCoeffs(
        alpha_c=(1.0 + q * (1.0 - 2.0 * x * x)) / 2.0,
        beta_c=(1.0 - q * (1.0 - 2.0 * x * x)) / 2.0,
        epsilon_c=q * x * _sqrt((1.0 - x) * (1.0 + x)),
    )


def _x_state(d00, d11, d22, d33, coherence) -> np.ndarray:
    """Real X-shaped state: diagonal (d00, d11, d22, d33) plus the |01>,|10> coherence.

    Float entries give one (4, 4) matrix; entries that broadcast to shape S
    give an S + (4, 4) stack.  The matrix has the entries' result type, at
    least float64: real for real entries, complex only when an entry is
    complex (a family evaluated at theta + ih).
    """
    # The sum has the broadcast shape and the result type of the entries.
    total = d00 + d11 + d22 + d33 + coherence
    m = np.zeros(np.shape(total) + (4, 4), dtype=np.result_type(float, total))
    m[..., 0, 0] = d00
    m[..., 1, 1] = d11
    m[..., 2, 2] = d22
    m[..., 3, 3] = d33
    m[..., 1, 2] = m[..., 2, 1] = coherence
    return m


def _white_state(x, p, r) -> np.ndarray:
    c = white_coeffs(x, p)
    cr, sr = np.cos(r), np.sin(r)
    c2, s2 = cr * cr, sr * sr
    return _x_state(
        c.gamma * c2, c.alpha + c.gamma * s2, c.beta * c2, c.beta * s2 + c.gamma, c.epsilon * cr
    )


def _color_state(x, q, r) -> np.ndarray:
    c = color_coeffs(x, q)
    cr, sr = np.cos(r), np.sin(r)
    c2, s2 = cr * cr, sr * sr
    return _x_state(0.0, c.alpha_c, c.beta_c * c2, c.beta_c * s2, c.epsilon_c * cr)


def _whitecolor_state(x, p, q, r) -> np.ndarray:
    # Linear combination of the channel images of the three mixture parts.
    # No domain checks: the QFI engines evaluate it at complex theta + ih.
    g = (1.0 - p - q) / 4.0
    b = p * x * x + q / 2.0 + g
    y2 = (1.0 - x) * (1.0 + x)  # 1 - x^2, the |01> weight, with no cancellation near x = 1
    cr, sr = np.cos(r), np.sin(r)
    c2, s2 = cr * cr, sr * sr
    return _x_state(
        g * c2,
        p * y2 + q / 2.0 + g * (1.0 + s2),
        b * c2,
        b * s2 + g,
        p * x * _sqrt(y2) * cr,
    )


def accelerated_white(x, p, r, r_max: float = RINDLER_R_MAX) -> np.ndarray:
    """Closed-form accelerated white-noise state.

    Entrywise equal (to 1e-12) to ``unruh_second_qubit(initial_state(...))``
    with the matching white-channel parameters.  Array arguments give a
    stack; every point is validated.
    """
    _validate_points(r_max, x, p, 0.0, r)
    return _white_state(x, p, r)


def accelerated_color(x, q, r, r_max: float = RINDLER_R_MAX) -> np.ndarray:
    """Closed-form accelerated color-noise state (strength q).

    Array arguments give a stack; every point is validated.
    """
    _validate_points(r_max, x, 0.0, q, r)
    return _color_state(x, q, r)


def accelerated_whitecolor(x, p, q, r, r_max: float = RINDLER_R_MAX) -> np.ndarray:
    """Accelerated combined white+color state, the builder behind every engine.

    No independent closed form exists for this channel; the state is the
    channel image of the combined initial mixture.  At the strengths
    ``combined_strengths`` gives, it is the white or the color state.  Array
    arguments give a stack; every point is validated.
    """
    _validate_points(r_max, x, p, q, r)
    return _whitecolor_state(x, p, q, r)


def accelerated_state(params: ModelParams, r_max: float = RINDLER_R_MAX) -> np.ndarray:
    """Accelerated state of ``params``'s channel, built by the combined builder."""
    p, q = combined_strengths(params.channel, params.p, params.q)
    return accelerated_whitecolor(params.x, p, q, params.r, r_max)


def r_from_acceleration(acceleration: float, omega_c: float) -> float:
    """Map a proper acceleration to the channel parameter r.

    ``tan r = exp(-pi * omega_c / acceleration)`` where ``omega_c`` bundles
    the mode frequency and the speed of light; r runs from 0 (no
    acceleration) to pi/4 (infinite acceleration).
    """
    if not acceleration > 0.0:
        raise DomainError(f"acceleration must be positive, got {acceleration}")
    if not omega_c > 0.0:
        raise DomainError(f"omega_c must be positive, got {omega_c}")
    return math.atan(math.exp(-math.pi * omega_c / acceleration))
