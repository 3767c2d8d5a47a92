import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unruhkit import (
    Channel,
    DomainError,
    ModelParams,
    RINDLER_R_MAX,
    accelerated_color,
    accelerated_state,
    accelerated_white,
    accelerated_whitecolor,
    color_coeffs,
    concurrence_closed,
    initial_state,
    is_density_matrix,
    phi_ket,
    r_from_acceleration,
    unruh_second_qubit,
    white_coeffs,
)
from oracles import random_density

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def basis_state(index: int) -> np.ndarray:
    rho = np.zeros((4, 4), dtype=complex)
    rho[index, index] = 1.0
    return rho


class TestPhiKet:
    def test_product_endpoint(self):
        assert np.allclose(phi_ket(0.0), [0, 1, 0, 0], atol=0)

    def test_singlet_point(self):
        want = np.array([0, 1, 1, 0]) / math.sqrt(2.0)
        assert np.allclose(phi_ket(1.0 / math.sqrt(2.0)), want, atol=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(unit)
    def test_unit_norm(self, x):
        assert abs(np.linalg.norm(phi_ket(x)) - 1.0) < 1e-12

    @pytest.mark.parametrize("x", [-0.1, 1.1])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            phi_ket(x)


class TestCoeffs:
    @settings(max_examples=60, deadline=None)
    @given(unit, unit)
    def test_white_trace_identity(self, x, p):
        c = white_coeffs(x, p)
        assert abs(c.alpha + c.beta + 2 * c.gamma - 1.0) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(unit, unit)
    def test_color_trace_identity(self, x, q):
        c = color_coeffs(x, q)
        assert abs(c.alpha_c + c.beta_c - 1.0) < 1e-12


class TestInitialState:
    def test_white_pure_noise(self):
        rho = initial_state(ModelParams(x=0.3, p=0.0, channel=Channel.WHITE))
        assert np.allclose(rho, np.eye(4) / 4.0, atol=0)

    def test_color_noiseless_singlet(self):
        x = 1.0 / math.sqrt(2.0)
        rho = initial_state(ModelParams(x=x, q=1.0, channel=Channel.COLOR))
        ket = phi_ket(x)
        assert np.allclose(rho, np.outer(ket, ket.conj()), atol=1e-15)

    def test_combined_reduces_to_white(self, rng):
        for _ in range(20):
            x, p = rng.uniform(0, 1), rng.uniform(0, 1)
            combined = initial_state(ModelParams(x=x, p=p, q=0.0, channel=Channel.WHITE_COLOR))
            white = initial_state(ModelParams(x=x, p=p, channel=Channel.WHITE))
            assert np.abs(combined - white).max() < 1e-15

    def test_validity_on_grid(self):
        for channel in Channel:
            for x in np.linspace(0, 1, 6):
                for s in np.linspace(0, 1, 6):
                    params = ModelParams(
                        x=x,
                        p=s if channel is not Channel.COLOR else 0.0,
                        q=s if channel is Channel.COLOR else 0.0,
                        channel=channel,
                    )
                    if channel is Channel.WHITE_COLOR:
                        params = ModelParams(x=x, p=s, q=1.0 - s, channel=channel)
                    assert is_density_matrix(initial_state(params), tol=1e-12)

    def test_invariant_violation(self):
        with pytest.raises(DomainError):
            initial_state(ModelParams(x=0.2, p=0.7, q=0.5, channel=Channel.WHITE_COLOR))


class TestUnruhChannel:
    def test_zero_acceleration_is_identity(self, rng):
        rho = random_density(rng)
        assert np.abs(unruh_second_qubit(rho, 0.0) - rho).max() < 1e-15

    def test_one_one_invariant(self):
        for r in np.linspace(0, RINDLER_R_MAX, 7):
            got = unruh_second_qubit(basis_state(3), r)
            assert np.abs(got - basis_state(3)).max() < 1e-15

    def test_one_zero_splits(self):
        # Second-qubit |0> populates the hidden wedge: hand application of
        # the mode transformation gives cos^2 |10><10| + sin^2 |11><11|.
        for r in (0.2, 0.5, RINDLER_R_MAX):
            got = unruh_second_qubit(basis_state(2), r)
            want = math.cos(r) ** 2 * basis_state(2) + math.sin(r) ** 2 * basis_state(3)
            assert np.abs(got - want).max() < 1e-15

    def test_linearity(self, rng):
        for _ in range(20):
            a = rng.uniform(0, 1)
            rho1, rho2 = random_density(rng), random_density(rng)
            r = rng.uniform(0, RINDLER_R_MAX)
            mixed = unruh_second_qubit(a * rho1 + (1 - a) * rho2, r)
            parts = a * unruh_second_qubit(rho1, r) + (1 - a) * unruh_second_qubit(rho2, r)
            assert np.abs(mixed - parts).max() < 1e-12

    def test_trace_and_positivity_preserved(self, rng):
        for _ in range(20):
            rho = random_density(rng)
            out = unruh_second_qubit(rho, rng.uniform(0, RINDLER_R_MAX))
            assert is_density_matrix(out, tol=1e-10)

    def test_r_out_of_range(self, rng):
        with pytest.raises(DomainError):
            unruh_second_qubit(random_density(rng), 1.0)

    def test_non_finite_state_rejected(self, non_finite_state):
        # NaN compares False, so each check is written for it to fail.
        with pytest.raises(DomainError, match="not Hermitian"):
            unruh_second_qubit(non_finite_state, 0.3)

    def test_r_limit_can_be_widened(self, rng):
        out = unruh_second_qubit(random_density(rng), 0.8, r_max=0.8)
        assert is_density_matrix(out, tol=1e-10)


class TestAcceleratedStates:
    @pytest.mark.parametrize("channel", list(Channel))
    def test_channel_name_builds_that_channels_state(self, channel):
        point = dict(x=0.3, p=0.3, q=0.4, r=0.2)
        named = ModelParams(**point, channel=channel.value)
        member = ModelParams(**point, channel=channel)
        assert named.channel is channel
        assert np.array_equal(accelerated_state(named), accelerated_state(member))
        assert concurrence_closed(named) == concurrence_closed(member)

    def test_unknown_channel_name_raises(self):
        with pytest.raises(ValueError, match="'bogus' is not a valid Channel"):
            ModelParams(x=0.3, channel="bogus")

    def test_white_matches_channel_route(self):
        for x in np.linspace(0, 1, 9):
            for p in np.linspace(0, 1, 9):
                for r in np.linspace(0, RINDLER_R_MAX, 9):
                    closed = accelerated_white(x, p, r)
                    image = unruh_second_qubit(
                        initial_state(ModelParams(x=x, p=p, channel=Channel.WHITE)), r
                    )
                    assert np.abs(closed - image).max() < 1e-12

    def test_color_matches_channel_route(self):
        for x in np.linspace(0, 1, 9):
            for q in np.linspace(0, 1, 9):
                for r in np.linspace(0, RINDLER_R_MAX, 9):
                    closed = accelerated_color(x, q, r)
                    image = unruh_second_qubit(
                        initial_state(ModelParams(x=x, q=q, channel=Channel.COLOR)), r
                    )
                    assert np.abs(closed - image).max() < 1e-12

    def test_whitecolor_matches_channel_route(self):
        for x in np.linspace(0, 1, 7):
            for p in np.linspace(0, 1, 7):
                for q in np.linspace(0, 1 - p, 5):
                    for r in np.linspace(0, RINDLER_R_MAX, 5):
                        closed = accelerated_whitecolor(x, p, q, r)
                        params = ModelParams(x=x, p=p, q=q, channel=Channel.WHITE_COLOR)
                        image = unruh_second_qubit(initial_state(params), r)
                        assert np.abs(closed - image).max() < 1e-12

    def test_white_noiseless_unaccelerated_singlet(self):
        x = 1.0 / math.sqrt(2.0)
        ket = phi_ket(x)
        got = accelerated_white(x, 1.0, 0.0)
        assert np.abs(got - np.outer(ket, ket.conj())).max() < 1e-15

    def test_white_pure_noise_image(self):
        # Channel image of the maximally mixed state, computed by hand from
        # the two Kraus operators.
        for r in (0.0, 0.3, RINDLER_R_MAX):
            c2, s2 = math.cos(r) ** 2, math.sin(r) ** 2
            want = np.diag([c2, 1 + s2, c2, 1 + s2]) / 4.0
            assert np.abs(accelerated_white(0.37, 0.0, r) - want).max() < 1e-15

    def test_color_classical_mixture(self):
        got = accelerated_color(0.5, 0.0, 0.0)
        assert np.allclose(got, np.diag([0.0, 0.5, 0.5, 0.0]), atol=1e-15)

    def test_whitecolor_white_edge(self, rng):
        for _ in range(20):
            x, p, r = rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, RINDLER_R_MAX)
            got = accelerated_whitecolor(x, p, 0.0, r)
            assert np.abs(got - accelerated_white(x, p, r)).max() < 1e-15

    def test_whitecolor_color_edge(self, rng):
        # The color channel sits on the p+q=1 edge of the combined family,
        # where the isotropic component's budget vanishes.
        points = [(0.6, 0.4, 0.3)] + [
            (rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, RINDLER_R_MAX)) for _ in range(20)
        ]
        for x, s, r in points:
            got = accelerated_whitecolor(x, s, 1.0 - s, r)
            assert np.abs(got - accelerated_color(x, s, r)).max() < 1e-12
        # p=0 alone is not the color edge: the isotropic part is still there.
        off_edge = accelerated_whitecolor(0.6, 0.0, 0.4, 0.3) - accelerated_color(0.6, 0.4, 0.3)
        assert np.abs(off_edge).max() > 0.1

    def test_whitecolor_both_off(self):
        for r in (0.0, 0.4):
            got = accelerated_whitecolor(0.6, 0.0, 0.0, r)
            image = unruh_second_qubit(np.eye(4, dtype=complex) / 4.0, r)
            assert np.abs(got - image).max() < 1e-15

    def test_grid_validity(self):
        for x in np.linspace(0, 1, 7):
            for s in np.linspace(0, 1, 7):
                for r in np.linspace(0, RINDLER_R_MAX, 7):
                    assert is_density_matrix(accelerated_white(x, s, r), tol=1e-12)
                    assert is_density_matrix(accelerated_color(x, s, r), tol=1e-12)
                    assert is_density_matrix(accelerated_whitecolor(x, s, 1 - s, r), tol=1e-12)

    def test_dispatch_matches_named_constructors(self):
        params = ModelParams(x=0.4, p=0.3, q=0.2, r=0.5, channel=Channel.WHITE_COLOR)
        assert np.array_equal(accelerated_state(params), accelerated_whitecolor(0.4, 0.3, 0.2, 0.5))

    def test_r_domain_enforced_and_widened(self):
        with pytest.raises(DomainError):
            accelerated_white(0.2, 0.5, 0.8)
        assert is_density_matrix(accelerated_white(0.2, 0.5, 0.8, r_max=0.8), tol=1e-12)


class TestStackedStates:
    GRID = np.linspace(0.0, 1.0, 11)
    R_GRID = np.linspace(0.0, RINDLER_R_MAX, 5)

    def assert_matches_points(self, stack, build, *columns):
        assert stack.shape == (len(columns[0]), 4, 4)
        for i, point in enumerate(zip(*columns)):
            assert stack[i].tobytes() == build(*(float(v) for v in point)).tobytes()

    def test_white_stack_matches_each_point_bitwise(self):
        n = len(self.GRID)
        for r in self.R_GRID:
            stack = accelerated_white(self.GRID, 0.6, r)
            self.assert_matches_points(stack, accelerated_white, self.GRID, [0.6] * n, [r] * n)
        for p in (0.0, 0.5):  # p=0 and r=0 give exactly tied spectra
            stack = accelerated_white(0.3, p, self.R_GRID)
            self.assert_matches_points(stack, accelerated_white, [0.3] * 5, [p] * 5, self.R_GRID)

    def test_color_stack_matches_each_point_bitwise(self):
        n = len(self.GRID)
        for r in self.R_GRID:
            stack = accelerated_color(0.4, self.GRID, r)
            self.assert_matches_points(stack, accelerated_color, [0.4] * n, self.GRID, [r] * n)

    def test_whitecolor_stack_matches_each_point_bitwise(self):
        q = 0.5 * (1.0 - self.GRID)
        stack = accelerated_whitecolor(self.GRID, 0.5, q, 0.3)
        n = len(self.GRID)
        self.assert_matches_points(
            stack, accelerated_whitecolor, self.GRID, [0.5] * n, q, [0.3] * n
        )

    def test_broadcast_grid(self):
        stack = accelerated_white(self.GRID[:, None], 0.6, self.R_GRID[None, :])
        assert stack.shape == (11, 5, 4, 4)
        assert stack[3, 2].tobytes() == accelerated_white(self.GRID[3], 0.6, self.R_GRID[2]).tobytes()

    def test_every_point_is_validated(self):
        with pytest.raises(DomainError, match="x=1.2"):
            accelerated_white(np.array([0.2, 1.2]), 0.3, 0.1)
        with pytest.raises(DomainError, match="p\\+q"):
            accelerated_whitecolor(0.5, np.array([0.2, 0.7]), 0.4, 0.1)
        with pytest.raises(DomainError):
            accelerated_color(0.5, 0.2, np.array([0.0, 0.8]))
        with pytest.raises(DomainError, match="p=nan"):
            accelerated_white(0.5, np.array([0.2, np.nan]), 0.1)
        assert accelerated_color(0.5, 0.2, np.array([0.0, 0.8]), r_max=0.8).shape == (2, 4, 4)

    # One case per domain rule: the fields it sets at the first point, the
    # r bound, and the message a float call raises.
    BASE = {"x": 0.4, "p": 0.2, "q": 0.3, "r": 0.5}
    DOMAIN_CASES = {
        "x": ({"x": 1.5}, RINDLER_R_MAX, "x=1.5 outside [0, 1]"),
        "p": ({"p": -0.2}, RINDLER_R_MAX, "p=-0.2 outside [0, 1]"),
        "q": ({"q": 1.5}, RINDLER_R_MAX, "q=1.5 outside [0, 1]"),
        "p+q": ({"p": 0.6, "q": 0.5}, RINDLER_R_MAX, "p+q=1.1 exceeds 1 for the combined channel"),
        "r": ({"r": 0.8}, RINDLER_R_MAX, "r=0.8 outside [0, 0.7853981633974483]"),
        "r-widened": ({"r": 0.85}, 0.8, "r=0.85 outside [0, 0.8]"),
        "x-nan": ({"x": math.nan}, RINDLER_R_MAX, "x=nan outside [0, 1]"),
        "p-nan": ({"p": math.nan}, RINDLER_R_MAX, "p=nan outside [0, 1]"),
        "q-nan": ({"q": math.nan}, RINDLER_R_MAX, "q=nan outside [0, 1]"),
        "r-nan": ({"r": math.nan}, RINDLER_R_MAX, "r=nan outside [0, 0.7853981633974483]"),
    }

    @pytest.mark.parametrize("case", DOMAIN_CASES)
    def test_first_failing_point_raises_its_float_message(self, case):
        bad, r_max, message = self.DOMAIN_CASES[case]
        point = {**self.BASE, **bad}
        # A valid point, then a different violation after the failing one.
        later = {"q": -1.0} if "x" in bad else {"x": -1.0}
        stacked = {
            name: np.array([point[name], value, later.get(name, value)])
            for name, value in self.BASE.items()
        }
        one = {name: np.array([value]) for name, value in point.items()}
        for values in (point, one, stacked):
            with pytest.raises(DomainError) as caught:
                accelerated_whitecolor(**values, r_max=r_max)
            assert str(caught.value) == message

    def test_valid_and_empty_arrays_raise_nothing(self):
        assert accelerated_white(self.GRID, 0.3, self.R_GRID[:, None]).shape == (5, 11, 4, 4)
        assert accelerated_whitecolor(0.5, np.array([0.2]), 0.8, 0.1).shape == (1, 4, 4)
        assert accelerated_whitecolor(np.empty(0), 0.2, 0.3, 0.1).shape == (0, 4, 4)
        # p+q is a rule of the combined channel only.
        ModelParams(0.4, 0.6, 0.5, 0.5, Channel.WHITE).validate()


class TestRealStates:
    """Real parameters give float64 states on every route; only a complex
    entry, as a family evaluated at theta + ih has, gives complex128."""

    @pytest.mark.parametrize("shape", [(), (3,), (2, 3)])
    def test_builders_and_route_stay_real(self, shape):
        x, s, r = (np.full(shape, v) if shape else v for v in (0.4, 0.3, 0.5))
        assert phi_ket(x).dtype == np.float64
        for state in (
            accelerated_white(x, s, r),
            accelerated_color(x, s, r),
            accelerated_whitecolor(x, s / 2, s, r),
            accelerated_state(ModelParams(x=x, p=s, r=r)),
        ):
            assert state.dtype == np.float64 and state.shape == shape + (4, 4)
        for channel in Channel:
            params = ModelParams(x=x, p=s, q=s / 2, r=r, channel=channel)
            assert initial_state(params).dtype == np.float64
            assert unruh_second_qubit(initial_state(params), r).dtype == np.float64
        # An integer state is read as float64, a complex one stays complex.
        assert unruh_second_qubit(np.diag([1, 0, 0, 0]), 0.2).dtype == np.float64
        assert unruh_second_qubit(basis_state(0), 0.2).dtype == np.complex128

    @pytest.mark.parametrize("reduced", [False, True])
    def test_family_is_complex_only_at_a_complex_step(self, reduced):
        from unruhkit import state_family

        names = ("x", "p", "q", "r")
        family = state_family(Channel.WHITE_COLOR, names, reduced=reduced)
        thetas = [np.array([0.4, 0.6]), np.array([0.3, 0.1]), np.array([0.2, 0.5]), np.array([0.5, 0.1])]
        real = family.evaluate(*thetas)
        assert real.dtype == np.float64
        for k, name in enumerate(names):
            step = family.evaluate(*thetas[:k], thetas[k] + 1e-30j, *thetas[k + 1 :])
            # The reduced state does not depend on q, so its q step stays real.
            free = reduced and name == "q"
            assert step.dtype == (np.float64 if free else np.complex128)
            assert np.array_equal(step.real, real)


class TestRFromAcceleration:
    def test_reference_value(self):
        # Oracle: direct evaluation of arctan(exp(-pi * omega_c / a)) at
        # a = pi * omega_c, i.e. arctan(1/e).
        want = math.atan(math.exp(-1.0))
        got = r_from_acceleration(math.pi * 2.0, 2.0)
        assert got == pytest.approx(want, abs=1e-15)
        assert got == pytest.approx(0.352513421777619, abs=1e-12)

    def test_limits(self):
        assert r_from_acceleration(1e12, 1.0) == pytest.approx(RINDLER_R_MAX, abs=1e-9)
        assert r_from_acceleration(1e-9, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_monotone_in_acceleration(self):
        values = [r_from_acceleration(a, 1.0) for a in np.geomspace(0.1, 100, 25)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(0.0 < v < RINDLER_R_MAX for v in values)

    @pytest.mark.parametrize(
        "a,w", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0), (math.nan, 1.0), (1.0, math.nan)]
    )
    def test_domain(self, a, w):
        with pytest.raises(DomainError, match="must be positive"):
            r_from_acceleration(a, w)
