import math

import numpy as np
import pytest

from unruhkit import (
    Channel,
    ModelParams,
    NegativeRadicandError,
    NotHermitianError,
    NotPSDError,
    accelerated_color,
    accelerated_state,
    accelerated_white,
    accelerated_whitecolor,
    concurrence,
    concurrence_color_closed,
    concurrence_white_closed,
    concurrence_whitecolor_closed,
    kron2,
    phi_ket,
    spin_flip,
    sqrt_psd,
)
from unruhkit.entanglement import _sqrt_clamped
from oracles import (
    oracle_concurrence,
    oracle_concurrence_xstate_mp,
    printed_concurrence_color,
    printed_concurrence_white,
    printed_concurrence_whitecolor,
    pure_ket_concurrence,
    random_density,
    random_unitary,
    werner_concurrence,
)

SINGLET_X = 1.0 / math.sqrt(2.0)


def singlet_projector() -> np.ndarray:
    ket = phi_ket(SINGLET_X)
    return np.outer(ket, ket.conj())


class TestSpinFlip:
    def test_maximally_mixed_invariant(self):
        assert np.allclose(spin_flip(np.eye(4) / 4), np.eye(4) / 4, atol=0)

    def test_singlet_invariant(self):
        proj = singlet_projector()
        assert np.abs(spin_flip(proj) - proj).max() < 1e-15

    def test_ground_maps_to_top(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        want = np.zeros((4, 4), dtype=complex)
        want[3, 3] = 1.0
        assert np.allclose(spin_flip(rho), want, atol=0)

    def test_signed_reversal_matches_product_definition(self, rng):
        sigma_y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
        flip = kron2(sigma_y, sigma_y)
        for _ in range(20):
            rho = random_density(rng)
            assert np.array_equal(spin_flip(rho), flip @ rho.conj() @ flip)

    def test_stack_matches_each_matrix_bitwise(self, state_stack):
        flipped = spin_flip(state_stack)
        for i, rho in enumerate(state_stack):
            assert flipped[i].tobytes() == spin_flip(rho).tobytes()


class TestConcurrenceEngine:
    def test_stack_matches_each_matrix_bitwise(self, state_stack):
        values = concurrence(state_stack)
        assert values.shape == (len(state_stack),)
        for i, rho in enumerate(state_stack):
            one = concurrence(rho)
            assert isinstance(one, float)
            assert values[i] == one

    def test_one_non_psd_matrix_rejects_the_stack(self, state_stack):
        bad = state_stack.copy()
        bad[3] = np.diag([1.0, -1e-3, 0.5, -0.5])
        with pytest.raises(NotPSDError):
            concurrence(bad)

    def test_non_finite_matrix_rejected(self, non_finite_state):
        with pytest.raises(NotHermitianError):
            concurrence(non_finite_state)

    def test_singlet_is_maximal(self):
        assert concurrence(singlet_projector()) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("p", [0.2, 1.0 / 3.0, 0.6, 0.9])
    def test_werner_line(self, p):
        rho = p * singlet_projector() + (1 - p) * np.eye(4) / 4
        want = werner_concurrence(p)
        # The independent eigensolver route agrees with the exact line,
        # which qualifies it as an oracle for the engine.
        assert oracle_concurrence(rho) == pytest.approx(want, abs=1e-10)
        assert concurrence(rho) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("x", [0.1, 0.25, 0.5, SINGLET_X, 0.9])
    def test_pure_ket(self, x):
        ket = phi_ket(x)
        rho = np.outer(ket, ket.conj())
        assert concurrence(rho) == pytest.approx(pure_ket_concurrence(x), abs=1e-12)

    def test_agrees_with_bruteforce_oracle(self, rng):
        for _ in range(200):
            rho = random_density(rng)
            assert concurrence(rho) == pytest.approx(oracle_concurrence(rho), abs=1e-10)

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_one_root_equals_two_root_form(self, rng, rank):
        # The engine takes sqrt(spin_flip(rho)) as spin_flip(sqrt(rho)); the
        # reference takes the second PSD root directly.
        g = rng.normal(size=(100, 4, rank)) + 1j * rng.normal(size=(100, 4, rank))
        rho = g @ g.conj().swapaxes(-1, -2)
        rho /= np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]
        s = np.linalg.svd(sqrt_psd(spin_flip(rho)) @ sqrt_psd(rho), compute_uv=False)
        two_root = np.maximum(0.0, s[:, 0] - s[:, 1] - s[:, 2] - s[:, 3])
        np.testing.assert_allclose(concurrence(rho), two_root, rtol=0, atol=1e-13)

    def test_local_unitary_invariance(self, rng):
        for _ in range(40):
            rho = random_density(rng)
            u = kron2(random_unitary(rng), random_unitary(rng))
            rotated = u @ rho @ u.conj().T
            assert concurrence(rotated) == pytest.approx(concurrence(rho), abs=1e-10)

    def test_diagonal_states_are_separable(self, rng):
        for _ in range(25):
            w = rng.dirichlet(np.ones(4))
            assert concurrence(np.diag(w).astype(complex)) == 0.0


class TestWhiteClosedForm:
    def test_matches_engine_on_grid(self):
        for x in np.linspace(0, 1, 9):
            for p in np.linspace(0, 1, 9):
                for r in np.linspace(0, math.pi / 4, 9):
                    closed = concurrence_white_closed(x, p, r)
                    engine = concurrence(accelerated_white(x, p, r))
                    assert closed == pytest.approx(engine, abs=1e-8)

    def test_known_points_on_mixing_line(self):
        assert concurrence_white_closed(SINGLET_X, 1.0, 0.0) == pytest.approx(1.0, abs=1e-9)
        assert concurrence_white_closed(SINGLET_X, 1 / 3, 0.0) == pytest.approx(0.0, abs=1e-9)
        assert concurrence_white_closed(SINGLET_X, 0.9, 0.0) == pytest.approx(0.85, abs=1e-9)

    def test_printed_coefficient_fails(self):
        printed = concurrence_white_closed(SINGLET_X, 0.9, 0.0, w4_coefficient=4.0)
        engine = concurrence(accelerated_white(SINGLET_X, 0.9, 0.0))
        assert abs(printed - engine) >= 0.3

    def test_monotone_in_strength_after_revival(self):
        values = [
            concurrence_white_closed(SINGLET_X, p, 0.0) for p in np.linspace(1 / 3, 1.0, 101)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


class TestColorClosedForm:
    def test_matches_engine_on_grid(self):
        for x in np.linspace(0, 1, 9):
            for q in np.linspace(0, 1, 9):
                for r in np.linspace(0, math.pi / 4, 9):
                    closed = concurrence_color_closed(x, q, r)
                    engine = concurrence(accelerated_color(x, q, r))
                    assert closed == pytest.approx(engine, abs=1e-8)

    def test_singlet_line_equals_strength(self):
        # At x = 1/sqrt(2), r = 0 the surds collapse to (1+q)/2 - (1-q)/2.
        for q in np.linspace(0, 1, 11):
            assert concurrence_color_closed(SINGLET_X, q, 0.0) == pytest.approx(q, abs=1e-12)

    def test_zero_strength_is_separable(self):
        for x in np.linspace(0, 1, 7):
            assert concurrence_color_closed(x, 0.0, 0.3) == 0.0

    def test_vanishes_at_product_endpoint(self):
        for q in np.linspace(0, 1, 7):
            for r in (0.0, 0.5):
                assert concurrence_color_closed(1.0, q, r) == 0.0

    def test_monotone_in_strength(self):
        for r in (0.0, 0.5):
            values = [
                concurrence_color_closed(SINGLET_X, q, r, r_max=0.8)
                for q in np.linspace(0, 1, 101)
            ]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


class TestWhiteColorClosedForm:
    def test_edges_are_the_white_and_color_forms(self):
        # On the color edge p+q=1 the cos-r reading is the color form of
        # strength p, and on the q=0 line it is the white form, bit for bit.
        for x in np.linspace(0, 1, 7):
            for s in np.linspace(0, 1, 7):
                for r in (0.0, 0.3, math.pi / 4):
                    edge = concurrence_whitecolor_closed(x, s, 1.0 - s, r, cos_r_weighted=True)
                    assert edge == concurrence_color_closed(x, s, r)
                    line = concurrence_whitecolor_closed(x, s, 0.0, r, cos_r_weighted=True)
                    assert line == concurrence_white_closed(x, s, r)

    def test_readings_coincide_at_zero_acceleration(self, rng):
        for _ in range(20):
            x, p = rng.uniform(0, 1), rng.uniform(0, 1)
            q = rng.uniform(0, 1 - p)
            printed = concurrence_whitecolor_closed(x, p, q, 0.0)
            weighted = concurrence_whitecolor_closed(x, p, q, 0.0, cos_r_weighted=True)
            assert printed == pytest.approx(weighted, abs=1e-12)

    def test_engine_value_at_reference_point(self):
        # Ground truth from the numerical engine at r=0, where both
        # printed conventions agree with it.
        rho = accelerated_whitecolor(0.4, 0.5, 0.2, 0.0)
        engine = concurrence(rho)
        assert engine == pytest.approx(oracle_concurrence(rho), abs=1e-10)
        assert concurrence_whitecolor_closed(0.4, 0.5, 0.2, 0.0) == pytest.approx(engine, abs=1e-9)

    def test_weighted_reading_matches_engine_off_axis(self, rng):
        worst_weighted, worst_printed = 0.0, 0.0
        for _ in range(60):
            x, p = rng.uniform(0, 1), rng.uniform(0, 1)
            q = rng.uniform(0, 1 - p)
            r = rng.uniform(0.05, math.pi / 4)
            engine = concurrence(accelerated_whitecolor(x, p, q, r))
            worst_weighted = max(
                worst_weighted,
                abs(concurrence_whitecolor_closed(x, p, q, r, cos_r_weighted=True) - engine),
            )
            worst_printed = max(
                worst_printed, abs(concurrence_whitecolor_closed(x, p, q, r) - engine)
            )
        assert worst_weighted < 1e-8
        # The printed reading drifts once acceleration is on; recording the
        # gap documents which convention the engine vindicates.
        assert worst_printed > worst_weighted

    def test_white_edge_matches_white_closed_under_weighting(self, rng):
        for _ in range(20):
            x, p, r = rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, math.pi / 4)
            weighted = concurrence_whitecolor_closed(x, p, 0.0, r, cos_r_weighted=True)
            white = concurrence_white_closed(x, p, r)
            assert weighted == pytest.approx(white, abs=1e-10)


def _crowded_points(n=60, seed=26):
    """Seeded (x, p, q, r) arrays with p+q <= 1 and r <= pi/4, crowded to
    x->0, x->1, p->1 and q->1, and on the builder's edges q=0 and q=1.0-p."""
    rng = np.random.default_rng(seed)

    def near():  # distances from an end, from 1e-12 to 0.1
        return 10.0 ** rng.uniform(-12.0, -1.0, n)

    def anywhere():
        return rng.uniform(0.0, 1.0, n)

    # (x, p, the fraction of 1-p that q takes)
    blocks = [
        (near(), anywhere(), anywhere()),
        (1.0 - near(), anywhere(), anywhere()),
        (anywhere(), 1.0 - near(), anywhere()),
        (anywhere(), near(), 1.0 - near()),
        (anywhere(), anywhere(), np.zeros(n)),
        (anywhere(), anywhere(), np.ones(n)),
    ]
    x, p, fraction = (np.concatenate(column) for column in zip(*blocks))
    q = np.where(fraction == 1.0, 1.0 - p, (1.0 - p) * fraction)
    return x, p, q, rng.uniform(0.0, math.pi / 4, x.size)


class TestPrintedFormsOracle:
    """The closed forms equal the printed expressions at 50 digits."""

    X, P, Q, R = _crowded_points()

    def oracle(self, form, *args, **kwargs):
        return np.array([form(*point, **kwargs) for point in zip(*args)])

    def test_white_and_color_forms(self):
        for s in (self.P, self.Q):
            for k in (0.5, 4.0):
                np.testing.assert_allclose(
                    concurrence_white_closed(self.X, s, self.R, w4_coefficient=k),
                    self.oracle(printed_concurrence_white, self.X, s, self.R, k=k),
                    rtol=0,
                    atol=1e-13,
                )
            np.testing.assert_allclose(
                concurrence_color_closed(self.X, s, self.R),
                self.oracle(printed_concurrence_color, self.X, s, self.R),
                rtol=0,
                atol=1e-13,
            )

    def test_combined_readings(self):
        point = (self.X, self.P, self.Q, self.R)
        np.testing.assert_allclose(
            concurrence_whitecolor_closed(*point, cos_r_weighted=True),
            self.oracle(printed_concurrence_whitecolor, *point, cos_r_weighted=True),
            rtol=0,
            atol=1e-13,
        )
        # The printed reading keeps its surd difference, so float64 loses
        # digits where it cancels; the reading is ledgered, 0.168 off the engine.
        np.testing.assert_allclose(
            concurrence_whitecolor_closed(*point),
            self.oracle(printed_concurrence_whitecolor, *point),
            rtol=0,
            atol=1e-9,
        )


def _channel_points(channel, n=40, seed=33):
    """Seeded (x, p, q, r) arrays of ``channel``, crowded to x->0, x->1, the
    strength (p, or q for color) ->0 and ->1, r->0 and r->pi/4, each block
    opening with its exact end.  On the combined channel q takes a seeded
    fraction of 1-p, with the edges q=0 and q=1.0-p among them."""
    rng = np.random.default_rng(seed)

    def near():  # distances from an end: 0, then from 1e-12 to 0.1
        return np.concatenate([[0.0], 10.0 ** rng.uniform(-12.0, -1.0, n - 1)])

    def anywhere(high=1.0):
        return rng.uniform(0.0, high, n)

    quarter = math.pi / 4
    blocks = [
        (near(), anywhere(), anywhere(quarter)),
        (1.0 - near(), anywhere(), anywhere(quarter)),
        (anywhere(), near(), anywhere(quarter)),
        (anywhere(), 1.0 - near(), anywhere(quarter)),
        (anywhere(), anywhere(), near()),
        (anywhere(), anywhere(), quarter - near()),
    ]
    x, strength, r = (np.concatenate(column) for column in zip(*blocks))
    zeros = np.zeros_like(x)
    if channel is Channel.WHITE:
        return x, strength, zeros, r
    if channel is Channel.COLOR:
        return x, zeros, strength, r
    fraction = rng.uniform(0.0, 1.0, x.size)
    fraction[::5], fraction[1::5] = 0.0, 1.0
    return x, strength, np.where(fraction == 1.0, 1.0 - strength, (1.0 - strength) * fraction), r


class TestXStateOracle:
    """The concurrence engine and the corrected closed forms equal the
    50-digit X-state concurrence 2 max(0, |rho12| - sqrt(rho00 rho33)).

    Measured worst residual over these 240 points per channel: 7.8e-16 for
    the engine and 3.3e-16 for the closed forms (8.9e-16 and 3.3e-16 over
    seeds 1-5 of the same draw); the gates are 2e-15 and 1e-15.
    """

    CLOSED = {
        Channel.WHITE: lambda x, p, q, r: concurrence_white_closed(x, p, r),
        Channel.COLOR: lambda x, p, q, r: concurrence_color_closed(x, q, r),
        Channel.WHITE_COLOR: lambda x, p, q, r: concurrence_whitecolor_closed(x, p, q, r, cos_r_weighted=True),
    }

    @pytest.mark.parametrize("channel", list(Channel), ids=lambda channel: channel.value)
    def test_engine_and_closed_form_meet_the_oracle(self, channel):
        x, p, q, r = _channel_points(channel)
        oracle = np.array([oracle_concurrence_xstate_mp(channel.value, *point) for point in zip(x, p, q, r)])
        engine = concurrence(accelerated_state(ModelParams(x=x, p=p, q=q, r=r, channel=channel)))
        np.testing.assert_allclose(engine, oracle, rtol=0, atol=2e-15)
        np.testing.assert_allclose(self.CLOSED[channel](x, p, q, r), oracle, rtol=0, atol=1e-15)
        # The points reach both sides of the entanglement boundary.
        assert 0 < np.count_nonzero(oracle) < oracle.size

    def test_oracle_on_known_lines(self):
        # The pure ket (p=1, r=0) and the Werner line (x=1/sqrt(2), r=0).
        for x in (0.0, 0.3, SINGLET_X, 1.0):
            want = pure_ket_concurrence(x)
            assert oracle_concurrence_xstate_mp("white", x, p=1.0) == pytest.approx(want, abs=1e-15)
        for p in (0.0, 0.2, 1 / 3, 0.6, 1.0):
            want = werner_concurrence(p)
            assert oracle_concurrence_xstate_mp("white", SINGLET_X, p=p) == pytest.approx(want, abs=1e-15)


class TestRadicandClamp:
    def test_round_off_window_clamps(self):
        assert _sqrt_clamped(-1e-11) == 0.0

    def test_real_negative_raises(self):
        with pytest.raises(NegativeRadicandError):
            _sqrt_clamped(-1e-9)
