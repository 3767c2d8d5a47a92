"""The closed forms take arrays: each entry of an array call is its float call.
An empty array gives an empty result, here and in the builders and engines."""

import numpy as np
import pytest

from unruhkit import (
    Channel,
    DomainError,
    ModelParams,
    NegativeRadicandError,
    SingularPointError,
    accelerated_color,
    accelerated_state,
    accelerated_white,
    accelerated_whitecolor,
    concurrence,
    concurrence_color_closed,
    concurrence_white_closed,
    concurrence_whitecolor_closed,
    initial_state,
    phi_ket,
    qfi_single_bloch,
    qfi_single_white_closed,
    qfi_two_qubit_spectral,
    qfi_two_qubit_terms,
    qfi_two_white_closed,
    qfi_two_white_terms,
    state_family,
    unruh_second_qubit,
)
from unruhkit import entanglement


def _concurrence(form, **kwargs):
    return lambda x, p, q, r: (form(x, p, r, **kwargs),)


def _qfi(form, param):
    def call(x, p, q, r):
        got = form(param, x, p, r)
        return (got.value, *(got.decomposition or ()))

    return call


# Each variant maps broadcast (x, p, q, r) to a tuple of outputs; a form
# ignores the strengths its channel does not have.
VARIANTS = {
    "concurrence-white": _concurrence(concurrence_white_closed),
    "concurrence-white(printed-coef-4)": _concurrence(concurrence_white_closed, w4_coefficient=4.0),
    "concurrence-color": lambda x, p, q, r: (concurrence_color_closed(x, q, r),),
    "concurrence-whitecolor": lambda x, p, q, r: (concurrence_whitecolor_closed(x, p, q, r),),
    "concurrence-whitecolor(cos-r)": lambda x, p, q, r: (
        concurrence_whitecolor_closed(x, p, q, r, cos_r_weighted=True),
    ),
    **{f"qfi-single-{param}": _qfi(qfi_single_white_closed, param) for param in "pxr"},
    **{f"qfi-two-{param}": _qfi(qfi_two_white_closed, param) for param in "pxr"},
    **{f"qfi-two-terms-{param}": _qfi(qfi_two_white_terms, param) for param in "pxr"},
}


def _grid():
    """Broadcastable (x, p, q, r) with x in {0, 1}, p = 0 and r = 0 on it,
    and p + q <= 1 everywhere."""
    x = np.linspace(0.0, 1.0, 6)[:, None, None, None]
    p = np.linspace(0.0, 1.0, 5)[None, :, None, None]
    q = (1.0 - p) * np.array([0.0, 0.5, 1.0])[None, None, :, None]
    r = np.array([0.0, 0.3, np.pi / 4])
    return x, p, q, r


def _float_call(variant, point):
    """The float call's outputs at ``point``, or the exception it raises."""
    try:
        return VARIANTS[variant](*(float(v) for v in point))
    except (SingularPointError, NegativeRadicandError, DomainError) as exc:
        return exc


def _points(*arrays):
    return list(zip(*(a.ravel() for a in np.broadcast_arrays(*arrays))))


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_array_call_equals_float_calls(variant, monkeypatch):
    x, p, q, r = _grid()
    shape = np.broadcast_shapes(x.shape, p.shape, q.shape, r.shape)
    # A white form ignores q, so its outputs lack that axis.
    got = [np.broadcast_to(out, shape) for out in VARIANTS[variant](x, p, q, r)]
    singular = 0
    for index, point in zip(np.ndindex(shape), _points(x, p, q, r)):
        want = _float_call(variant, point)
        if isinstance(want, SingularPointError):
            singular += 1
            assert all(np.isnan(out[index]) for out in got), point
            continue
        assert not isinstance(want, Exception), (point, want)
        for out, one in zip(got, want):
            assert type(one) is float
            # Bit for bit: equal values of the same sign, no NaN.
            assert np.asarray(out[index]).tobytes() == np.float64(one).tobytes(), point
    if variant.startswith("qfi-two"):
        assert singular > 0

    # A point outside the domain: the array raises the first failing point's message.
    bad_x, bad_r = np.array([0.5, 0.5, 1.5]), np.array([0.3, 0.9, 0.3])
    with pytest.raises(DomainError) as raised:
        VARIANTS[variant](bad_x, 0.3, 0.2, bad_r)
    assert str(raised.value) == str(_float_call(variant, (0.5, 0.3, 0.2, 0.9)))

    # No point in the domain has a surd argument below the round-off window,
    # so widen the window's edge into the positives to make some points raise.
    # Exact zeros stay clear of it: the color edge's final surd argument is
    # 0.0 at every point, and a window over it would leave no point fine.
    if variant.startswith("concurrence"):
        clamped = entanglement._sqrt_clamped
        monkeypatch.setattr(entanglement, "RADICAND_CLAMP", -1.0)
        monkeypatch.setattr(
            entanglement, "_sqrt_clamped", lambda v: clamped(np.where(v == 0.0, 1.0, v)) * (v != 0.0)
        )
        points = _points(x, p, q, r)
        errors = {point: _float_call(variant, point) for point in points}
        messages = {str(e) for e in errors.values() if isinstance(e, NegativeRadicandError)}
        fine = [point for point, e in errors.items() if not isinstance(e, Exception)]
        assert messages and fine
        with pytest.raises(NegativeRadicandError) as raised:
            VARIANTS[variant](x, p, q, r)
        assert str(raised.value) in messages
        VARIANTS[variant](*map(np.array, zip(*fine)))  # the points that do not raise


EMPTY = np.empty((2, 0))


def _engine(engine, reduced):
    def call():
        got = engine(state_family(Channel.WHITE, "x", p=0.3, r=0.2, reduced=reduced), EMPTY)
        return (got.value, *(got.decomposition or ()))

    return call


# Each case maps to (its outputs on EMPTY, the trailing shape of each).
EMPTY_CASES = {
    "accelerated_white": (lambda: (accelerated_white(EMPTY, 0.3, 0.2),), (4, 4)),
    "accelerated_color": (lambda: (accelerated_color(EMPTY, 0.3, 0.2),), (4, 4)),
    "accelerated_whitecolor": (lambda: (accelerated_whitecolor(EMPTY, 0.3, 0.2, 0.1),), (4, 4)),
    "accelerated_state": (lambda: (accelerated_state(ModelParams(x=EMPTY, p=0.3, r=0.2)),), (4, 4)),
    "initial_state": (lambda: (initial_state(ModelParams(x=EMPTY, p=0.3)),), (4, 4)),
    "phi_ket": (lambda: (phi_ket(EMPTY),), (4,)),
    "unruh_second_qubit": (lambda: (unruh_second_qubit(np.zeros((2, 0, 4, 4), complex), 0.2),), (4, 4)),
    "concurrence": (lambda: (concurrence(np.zeros((2, 0, 4, 4), complex)),), ()),
    **{name: (lambda f=f: f(EMPTY, 0.3, 0.2, 0.1), ()) for name, f in VARIANTS.items()},
    "qfi_two_qubit_spectral": (_engine(qfi_two_qubit_spectral, False), ()),
    "qfi_two_qubit_terms": (_engine(qfi_two_qubit_terms, False), ()),
    "qfi_single_bloch": (_engine(qfi_single_bloch, True), ()),
}


@pytest.mark.parametrize("case", list(EMPTY_CASES))
def test_empty_input_gives_empty_result(case):
    call, trailing = EMPTY_CASES[case]
    for out in call():
        assert np.shape(out) == EMPTY.shape + trailing
