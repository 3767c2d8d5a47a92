import math

import numpy as np
import pytest

from unruhkit import (
    NegativeRadicandError,
    NotPSDError,
    accelerated_color,
    accelerated_white,
    accelerated_whitecolor,
    concurrence,
    concurrence_color_closed,
    concurrence_white_closed,
    concurrence_whitecolor_closed,
    kron2,
    phi_ket,
    spin_flip,
    whitecolor_surd_terms,
)
from unruhkit.entanglement import _sqrt_clamped
from oracles import (
    oracle_concurrence,
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
    def test_final_term_vanishes_on_color_edge(self):
        for p in np.linspace(0, 1, 7):
            _, _, _, a4 = whitecolor_surd_terms(0.4, p, 1.0 - p, 0.3)
            assert a4 == pytest.approx(0.0, abs=1e-15)

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


class TestRadicandClamp:
    def test_round_off_window_clamps(self):
        assert _sqrt_clamped(-1e-11) == 0.0

    def test_real_negative_raises(self):
        with pytest.raises(NegativeRadicandError):
            _sqrt_clamped(-1e-9)
