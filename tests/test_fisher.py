import math
import warnings

import numpy as np
import pytest

from unruhkit import (
    Channel,
    DomainError,
    FamilyEvalError,
    ModelParams,
    RINDLER_R_MAX,
    SingularPointError,
    StateFamily,
    accelerated_color,
    accelerated_state,
    accelerated_white,
    accelerated_whitecolor,
    bloch_vector,
    figure_preset,
    kappa_mu_terms,
    partial_trace,
    qfi_single_bloch,
    qfi_single_white_closed,
    qfi_two_qubit_spectral,
    qfi_two_qubit_spectral_retry,
    qfi_two_qubit_terms,
    qfi_two_white_closed,
    qfi_two_white_terms,
    reduced_accelerated_qubit,
    run_sweep,
    state_family,
    white_coeffs,
)
from unruhkit.channels import CHANNEL_PARAMS
from unruhkit import fisher as fisher_module
from unruhkit.fisher import _white_stepped
from unruhkit.verify import QFI_REL_TOL
from oracles import central_difference, oracle_qfi_xstate_mp


def constant_family(matrix: np.ndarray, param: str = "p") -> StateFamily:
    return StateFamily(evaluate=lambda _t: matrix, param=param, dim=matrix.shape[0])


class TestBlochVector:
    def test_maximally_mixed(self):
        assert np.allclose(bloch_vector(np.eye(2) / 2), [0, 0, 0], atol=0)

    def test_pole(self):
        assert np.allclose(bloch_vector(np.diag([1.0, 0.0])), [0, 0, 1], atol=0)

    def test_equator(self):
        plus = np.full((2, 2), 0.5, dtype=complex)
        assert np.allclose(bloch_vector(plus), [1, 0, 0], atol=0)

    def test_reconstruction(self, rng):
        paulis = [
            np.array([[0, 1], [1, 0]], dtype=complex),
            np.array([[0, -1j], [1j, 0]]),
            np.array([[1, 0], [0, -1]], dtype=complex),
        ]
        for _ in range(25):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            s = bloch_vector(rho)
            rebuilt = (np.eye(2) + sum(si * pi for si, pi in zip(s, paulis))) / 2
            assert np.abs(rebuilt - rho).max() < 1e-12
            assert np.linalg.norm(s) <= 1 + 1e-10


class TestReducedQubit:
    def test_white_pure_noise(self):
        params = ModelParams(x=0.5, p=0.0, r=0.0, channel=Channel.WHITE)
        assert np.allclose(reduced_accelerated_qubit(params), np.eye(2) / 2, atol=1e-15)

    @pytest.mark.parametrize("x,p,r", [(0.2, 0.6, 0.3), (0.8, 0.9, 0.7), (0.5, 0.1, 0.0)])
    def test_white_generic_formula(self, x, p, r):
        # Hand partial trace of the closed accelerated state:
        # top population (1 - a p) cos^2(r) / 2 with a = 1 - 2 x^2.
        a = 1 - 2 * x * x
        top = (1 - a * p) * math.cos(r) ** 2 / 2
        params = ModelParams(x=x, p=p, r=r, channel=Channel.WHITE)
        got = reduced_accelerated_qubit(params)
        assert np.allclose(got, np.diag([top, 1 - top]), atol=1e-14)

    def test_color_maximally_entangled(self):
        params = ModelParams(x=1 / math.sqrt(2), q=1.0, r=0.0, channel=Channel.COLOR)
        assert np.allclose(reduced_accelerated_qubit(params), np.eye(2) / 2, atol=1e-14)

    def test_stack_matches_each_point_bitwise(self):
        xs = np.array([0.2, 0.3, 0.9])
        got = reduced_accelerated_qubit(ModelParams(x=xs, p=0.5, r=0.1))
        assert got.shape == (3, 2, 2)
        for x, reduced in zip(xs, got):
            assert np.array_equal(reduced, reduced_accelerated_qubit(ModelParams(x=float(x), p=0.5, r=0.1)))

    def test_family_fast_path_matches_partial_trace(self):
        for channel in Channel:
            for x in np.linspace(0.1, 0.9, 5):
                for s in np.linspace(0.1, 0.9, 5):
                    for r in np.linspace(0, RINDLER_R_MAX, 5):
                        kwargs = {"p": s} if channel is not Channel.COLOR else {"q": s}
                        if channel is Channel.WHITE_COLOR:
                            kwargs = {"p": s, "q": (1 - s) / 2}
                        family = state_family(
                            channel, "x", x=x, r=r, reduced=True, **kwargs
                        )
                        params = ModelParams(x=x, r=r, channel=channel, **kwargs)
                        direct = partial_trace(accelerated_state(params), keep="second")
                        assert np.abs(family.evaluate(x) - direct).max() < 1e-12


class TestStateFamily:
    PRINTED = {
        Channel.WHITE: lambda x, p, q, r: accelerated_white(x, p, r),
        Channel.COLOR: lambda x, p, q, r: accelerated_color(x, q, r),
        Channel.WHITE_COLOR: accelerated_whitecolor,
    }

    def test_families_equal_printed_states(self):
        # Every family runs the combined builder; the printed white and color
        # states agree with it to round-off.  A color q moves both combined
        # strengths.
        for channel, printed in self.PRINTED.items():
            for x in (0.0, 0.3, 0.8, 1.0):
                for s in (0.0, 0.25, 0.6, 1.0):
                    for r in (0.0, 0.5, RINDLER_R_MAX):
                        point = {"x": x, "p": s, "q": (1 - s) / 2, "r": r}
                        if channel is Channel.COLOR:
                            point["q"] = s
                        want = printed(**point)
                        for param in CHANNEL_PARAMS[channel]:
                            others = {k: v for k, v in point.items() if k != param}
                            family = state_family(channel, param, **others)
                            got = family.evaluate(point[param])
                            assert np.abs(got - want).max() < 1e-15

    def test_reduced_family_steps_past_x_one(self):
        # The reduced family is polynomial in x, so its complex step at x=1 is
        # finite and the fig9a cells there stay filled.
        family = state_family(Channel.WHITE, "x", p=0.2, r=0.0, reduced=True)
        assert math.isfinite(qfi_single_bloch(family, 1.0).value)
        table = run_sweep(figure_preset("fig9a"))
        edge = [row for row in table.rows if row[0] == 1.0]
        assert len(edge) == 1 and len(edge[0]) == 7
        assert None not in edge[0]


class TestSingleQubitEngine:
    def test_constant_family_is_zero(self):
        value = qfi_single_bloch(constant_family(np.eye(2, dtype=complex) / 2), 0.5)
        assert value.value == 0.0

    def test_white_strength_at_reference_point(self):
        # Hand oracle: the reduced trajectory gives F = 1/(1 - p^2) at
        # x = 0, r = 0, hence 4/3 at p = 0.5.
        family = state_family(Channel.WHITE, "p", x=0.0, r=0.0, reduced=True)
        got = qfi_single_bloch(family, 0.5)
        assert got.value == pytest.approx(4.0 / 3.0, rel=1e-6)
        assert got.form == "single-bloch"

    def test_acceleration_stationary_at_zero(self):
        family = state_family(Channel.WHITE, "r", x=0.3, p=0.6, reduced=True)
        assert qfi_single_bloch(family, 0.0).value == 0.0


class TestSingleQubitClosedForms:
    def test_acceleration_information_vanishes_at_rest(self):
        for x in (0.1, 0.5, 0.9):
            for p in (0.2, 0.7):
                assert qfi_single_white_closed("r", x, p, 0.0).value == 0.0

    def test_strength_reference_value(self):
        assert qfi_single_white_closed("p", 0.0, 0.5, 0.0).value == pytest.approx(4 / 3, abs=1e-15)

    def test_amplitude_information_vanishes_without_noise(self):
        for x in (0.2, 0.8):
            assert qfi_single_white_closed("x", x, 0.0, 0.4).value == 0.0

    def test_pure_branch(self):
        # At p=1, x=0 the reduced qubit is pure and the pure-branch value
        # a^2 cos^4 r applies.
        assert qfi_single_white_closed("p", 0.0, 1.0, 0.0).value == pytest.approx(1.0, abs=1e-15)

    def test_matches_engine_on_grid(self):
        worst = 0.0
        for x in np.linspace(0, 1, 7):
            for p in np.linspace(0, 1, 7):
                for r in np.linspace(0, RINDLER_R_MAX, 7):
                    a = 1 - 2 * x * x
                    if abs((1 - a * p) * math.cos(r) ** 2 - 1) >= 1 - 1e-6:
                        continue
                    for param, theta in (("p", p), ("x", x), ("r", r)):
                        family = state_family(Channel.WHITE, param, x=x, p=p, r=r, reduced=True)
                        engine = qfi_single_bloch(family, theta).value
                        closed = qfi_single_white_closed(param, x, p, r).value
                        worst = max(worst, abs(closed - engine) / max(abs(closed), 1e-12))
        assert worst < 1e-6

    def test_unknown_parameter(self):
        with pytest.raises(DomainError):
            qfi_single_white_closed("q", 0.2, 0.5, 0.1)


class TestSpectralEngine:
    def test_constant_family_is_zero(self):
        rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        got = qfi_two_qubit_spectral(constant_family(rho), 0.5)
        assert got.value == 0.0
        assert got.decomposition is None
        terms = qfi_two_qubit_terms(constant_family(rho), 0.5)
        assert terms.value == 0.0
        assert terms.decomposition == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("x", [0.3, 0.5, 1 / math.sqrt(2)])
    def test_pure_family(self, x):
        # Rank-1 oracle: 4(<d_psi|d_psi> - |<psi|d_psi>|^2) = 4/(1-x^2).
        family = state_family(Channel.WHITE, "x", p=1.0, r=0.0)
        got = qfi_two_qubit_spectral_retry(family, x)
        assert got.value == pytest.approx(4.0 / (1.0 - x * x), rel=1e-13)

    def test_diagonal_family_classical_information(self):
        # Two-outcome distribution (theta, 1-theta): classical Fisher
        # information 1/theta + 1/(1-theta).
        def evaluate(t):
            m = np.zeros(np.shape(t) + (4, 4), dtype=complex)
            m[..., 0, 0] = t
            m[..., 1, 1] = 1 - t
            return m

        got = qfi_two_qubit_terms(StateFamily(evaluate=evaluate, param="p"), 0.3)
        want = 1 / 0.3 + 1 / 0.7
        assert got.value == pytest.approx(want, rel=1e-13)
        classical, quantum, pairs = got.decomposition
        assert classical == pytest.approx(want, rel=1e-13)
        assert quantum == pytest.approx(0.0, abs=1e-12)
        assert pairs == pytest.approx(0.0, abs=1e-12)

    def test_engine_and_closed_form_match_the_oracle_near_x_one(self):
        # 1 - x^2 is 2e-9 here; written as 1.0 - x * x it keeps only 8 digits,
        # an error the engine and the closed form would share.
        x, p, r = 1.0 - 1e-9, 0.0237, 0.217
        point = {"x": x, "p": p, "r": r}
        for param in "xpr":
            oracle = oracle_qfi_xstate_mp("white", param, **point)
            engine = qfi_two_qubit_spectral(state_family(Channel.WHITE, param, **point), point[param]).value
            closed = qfi_two_white_closed(param, x, p, r).value
            assert engine == pytest.approx(oracle, rel=1e-12, abs=0), param
            assert closed == pytest.approx(oracle, rel=1e-12, abs=0), param

    def test_oracle_matches_the_engine_at_scattered_points(self, rng):
        # The oracle's route (X-state blocks at 50 digits) against the SLD
        # engine's, on all three channels.
        for channel in Channel:
            names = CHANNEL_PARAMS[channel]
            for _ in range(3):
                point = dict(zip("xpqr", rng.uniform((0.05, 0.05, 0.05, 0.0), (0.95, 0.45, 0.45, RINDLER_R_MAX))))
                for param in names:
                    fixed = {k: point[k] for k in names if k != param}
                    engine = qfi_two_qubit_spectral(state_family(channel, param, **fixed), point[param]).value
                    oracle = oracle_qfi_xstate_mp(channel.value, param, **point)
                    assert engine == pytest.approx(oracle, rel=1e-13), (channel, param)

    @pytest.mark.parametrize("r", [0.0, 3e-6, 1e-3])
    def test_engine_matches_the_oracle_beside_a_rising_population(self, r):
        # The color state's d33 = beta_c sin^2 r is 0 at r = 0 with zero slope.
        family = state_family(Channel.COLOR, "r", x=0.4, q=0.2)
        oracle = oracle_qfi_xstate_mp("color", "r", x=0.4, q=0.2, r=r)
        assert qfi_two_qubit_spectral(family, r).value == pytest.approx(oracle, rel=1e-9, abs=1e-12)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 4: a population under EIG_FLOOR loses its share")
    @pytest.mark.parametrize("r", [1e-9, 1e-7, 1e-6])
    def test_engine_keeps_a_population_under_the_floor(self, r):
        # Here d33 = beta_c sin^2 r is below EIG_FLOOR, so the engine drops
        # its pair sums: F_r reads 1.7e-18, 1.7e-14 and 1.7e-12 where the
        # 50-digit X-state route reads 4 beta_c = 1.728 at each r.
        family = state_family(Channel.COLOR, "r", x=0.4, q=0.2)
        oracle = oracle_qfi_xstate_mp("color", "r", x=0.4, q=0.2, r=r)
        assert oracle == pytest.approx(1.728, rel=1e-12)
        assert qfi_two_qubit_spectral(family, r).value == pytest.approx(oracle, rel=1e-9)

    def test_decomposition_identity(self):
        # At r=0 three eigenvalues tie exactly, exercising the tied-pair branch.
        for fixed, theta in ((dict(x=0.3, r=0.4), 0.6), (dict(x=0.2, r=0.0), 0.5)):
            family = state_family(Channel.WHITE, "p", **fixed)
            got = qfi_two_qubit_terms(family, theta)
            classical, quantum, pairs = got.decomposition
            assert got.value == pytest.approx(classical + quantum - pairs, abs=1e-10)

    def test_branch_tracking_through_full_degeneracy(self):
        # At p=0, r=0 the state is maximally mixed; the value at this full
        # degeneracy must connect continuously to nearby points.
        family = state_family(Channel.WHITE, "p", x=0.9, r=0.0)
        at_corner = qfi_two_qubit_spectral(family, 0.0).value
        nearby = qfi_two_qubit_spectral(family, 1e-3).value
        assert at_corner == pytest.approx(nearby, rel=5e-2)

    def test_degenerate_crossing_detected(self):
        # A three-way-mixing perturbation of the maximally mixed state: no
        # eigenbasis follows the perturbation, but the SLD form needs none.  At
        # rho = I/4, F = 2 sum |drho_ij|^2/(1/2) = 4 * 6 = 24, all of it in
        # the tied-pair share of the quantum term.
        mix = np.zeros((4, 4), dtype=complex)
        mix[:3, :3] = 1.0 - np.eye(3)
        family = StateFamily(
            evaluate=lambda t: np.eye(4, dtype=complex) / 4.0 + t * mix, param="p"
        )
        got = qfi_two_qubit_spectral_retry(family, 0.0)
        assert got.value == pytest.approx(24.0, rel=1e-12)
        terms = qfi_two_qubit_terms(family, 0.0)
        assert terms.decomposition == pytest.approx((0.0, 24.0, 0.0), rel=1e-12, abs=1e-12)

    def test_exact_outer_degeneracy_is_handled(self):
        # At r=0 the two wedge-free populations tie exactly for every p; the
        # value at the tie must be finite and consistent with a slightly
        # off-tie evaluation.
        family = state_family(Channel.WHITE, "p", x=0.2, r=0.0)
        at_tie = qfi_two_qubit_spectral(family, 0.5).value
        family_near = state_family(Channel.WHITE, "p", x=0.2, r=1e-4)
        near_tie = qfi_two_qubit_spectral(family_near, 0.5).value
        assert at_tie == pytest.approx(near_tie, rel=1e-3)

    def test_step_halving_stability(self, monkeypatch):
        # The complex step has no truncation error to halve: any step far
        # below the parameters' scale gives the same derivative.
        points = [
            (Channel.WHITE, "p", dict(x=0.3, r=0.4), 0.55),
            (Channel.WHITE, "x", dict(p=0.7, r=0.2), 0.45),
            (Channel.COLOR, "q", dict(x=0.6, r=0.5), 0.35),
            (Channel.COLOR, "r", dict(x=0.4, q=0.8), 0.3),
        ]
        assert fisher_module.COMPLEX_STEP == 1e-30
        for channel, param, fixed, theta in points:
            family = state_family(channel, param, **fixed)
            reduced = state_family(channel, param, reduced=True, **fixed)
            with monkeypatch.context() as patch:
                patch.setattr(fisher_module, "COMPLEX_STEP", 1e-20)
                wide = qfi_two_qubit_spectral(family, theta).value
                wide_s = qfi_single_bloch(reduced, theta).value
            narrow = qfi_two_qubit_spectral(family, theta).value
            narrow_s = qfi_single_bloch(reduced, theta).value
            assert abs(wide - narrow) <= 1e-14 * narrow
            assert abs(wide_s - narrow_s) <= 1e-14 * narrow_s


class TestKappaMuTerms:
    def test_zero_noise_values(self):
        # Direct substitution at r=0, p=0, where the coherence vanishes: the
        # kappa and b blocks are finite and mu is NaN.
        terms = kappa_mu_terms(np.array([0.3]), np.array([0.0]), np.array([0.0]))
        assert terms.kappa1 == pytest.approx([4.0], abs=1e-15)
        assert terms.b1 == pytest.approx([6.0], abs=1e-15)
        assert terms.b2 == pytest.approx([8.0], abs=1e-15)
        assert terms.b3 == pytest.approx([2.0], abs=1e-15)
        assert terms.kappa2 == pytest.approx([0.0], abs=1e-15)
        assert np.isfinite(terms.kappa3).all()
        assert np.isnan(terms.mu1).all() and np.isnan(terms.mu2).all()

    def test_singular_where_coherence_vanishes(self):
        for x, p in ((0.0, 0.5), (1.0, 0.5), (0.4, 0.0)):
            with pytest.raises(SingularPointError):
                kappa_mu_terms(x, p, 0.3)

    def test_block_eigenvalue_oracle(self, rng):
        # (kappa1 -+ kappa2)/16 must be the eigenvalue pair of the coherent
        # |01>/|10> block; the block itself is assembled independently here.
        for _ in range(100):
            x, p = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)
            r = rng.uniform(0.0, RINDLER_R_MAX)
            c = white_coeffs(x, p)
            d2 = c.alpha + c.gamma * math.sin(r) ** 2
            d3 = c.beta * math.cos(r) ** 2
            z = c.epsilon * math.cos(r)
            low, high = np.linalg.eigvalsh(np.array([[d2, z], [z, d3]]))
            terms = kappa_mu_terms(x, p, r)
            assert (terms.kappa1 - terms.kappa2) / 16 == pytest.approx(low, abs=1e-12)
            assert (terms.kappa1 + terms.kappa2) / 16 == pytest.approx(high, abs=1e-12)
            # kappa1/16 is half the block trace.
            assert terms.kappa1 / 16 == pytest.approx((d2 + d3) / 2, abs=1e-12)

    def test_radicand_never_negative(self, rng):
        x, p, r = rng.uniform((0, 0, 0), (1, 1, RINDLER_R_MAX), size=(200, 3)).T
        terms = kappa_mu_terms(x, p, r)
        radicand = terms.b1 - terms.b2 + terms.b3
        assert (radicand >= -1e-10).all()
        # It is the sum of squares kappa3^2 + 256 c^2, c the block coherence.
        coherence = white_coeffs(x, p).epsilon * np.cos(r)
        squares = terms.kappa3**2 + 256.0 * coherence**2
        np.testing.assert_allclose(radicand, squares, rtol=0, atol=1e-12)

    def test_derivative_oracle(self, rng):
        # Primes are partial derivatives: the complex-step primes the closed
        # form reads from its one pass over the stepped stack must match
        # central differences of the blocks' values, and the pass's values
        # must be the blocks at the real point.
        names = ("kappa1", "kappa2", "kappa3", "mu1", "mu2")
        for _ in range(40):
            x, p = rng.uniform(0.15, 0.85), rng.uniform(0.15, 0.85)
            r = rng.uniform(0.05, RINDLER_R_MAX - 0.05)
            point = {"x": x, "p": p, "r": r}
            arrays = (np.array([point[name]]) for name in "xpr")
            values, primes = (dict(zip(names, blocks)) for blocks in _white_stepped(("p", "x", "r"), *arrays))
            terms = kappa_mu_terms(x, p, r)
            for name in names:
                assert values[name].shape == (1,)
                assert values[name][0] == pytest.approx(getattr(terms, name), rel=1e-14)
            for idx, slot in enumerate("pxr"):
                def block(name):
                    return lambda t: getattr(kappa_mu_terms(**{**point, slot: t}), name)

                for name in ("kappa1", "kappa2", "kappa3"):
                    fd = central_difference(block(name), point[slot])
                    assert primes[name].shape == (3, 1)
                    assert primes[name][idx, 0] == pytest.approx(fd, rel=1e-6, abs=1e-6)
                for name in ("mu1", "mu2"):
                    fd = central_difference(block(name), point[slot])
                    assert primes[name][idx, 0] == pytest.approx(fd, rel=1e-5, abs=1e-5)


class TestTwoQubitClosedForm:
    def test_matches_engine_near_product_edge(self):
        # The block coherence here is 1.04e-6, where the published radicand
        # b1 - b2 + b3 and mu = (kappa3 -+ kappa2)/(16c) cancel.
        x, p, r = 1.0 - 1e-9, 0.0237, 0.217
        point = {"x": x, "p": p, "r": r}
        for param in "xpr":
            engine = qfi_two_qubit_spectral(state_family(Channel.WHITE, param, **point), point[param]).value
            closed = qfi_two_white_closed(param, x, p, r).value
            assert abs(closed - engine) <= QFI_REL_TOL * max(abs(closed), abs(engine), 1e-9), param

    def test_matches_engine_at_vanishing_coherence(self, rng):
        # The block coherence p x sqrt(1 - x^2) cos r crowded to 1e-14 ... 1e-4
        # by a small p, a small x or an x near 1: there the coherent block is
        # near-degenerate, and the published quantum - pairs difference
        # cancels to its last digit.
        n = 600
        target = 10.0 ** rng.uniform(-14.0, -4.0, n)
        x, p, r = rng.uniform((0.05, 0.05, 0.0), (0.95, 0.95, RINDLER_R_MAX), (n, 3)).T
        way = np.arange(n) % 3
        p = np.where(way == 0, target / (x * np.sqrt(1.0 - x * x) * np.cos(r)), p)
        x = np.where(way == 1, target / (p * np.cos(r)), x)
        x = np.where(way == 2, 1.0 - 10.0 ** rng.uniform(-15.0, -8.0, n), x)
        coherence = p * x * np.sqrt((1.0 - x) * (1.0 + x)) * np.cos(r)
        assert 0.0 < coherence.min() < 1e-13 and coherence.max() < 1e-3
        params = ("p", "x", "r")
        engine = qfi_two_qubit_spectral(state_family(Channel.WHITE, params), (p, x, r)).value
        closed = qfi_two_white_closed(params, x, p, r).value
        scale = np.maximum(np.maximum(np.abs(closed), np.abs(engine)), 1e-9)
        assert (np.abs(closed - engine) / scale).max() <= 1e-10

    def test_matches_spectral_engine(self, rng):
        worst = 0.0
        for _ in range(60):
            x, p = rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)
            r = rng.uniform(0.05, RINDLER_R_MAX)
            for param, theta in (("p", p), ("x", x), ("r", r)):
                family = state_family(Channel.WHITE, param, x=x, p=p, r=r)
                engine = qfi_two_qubit_spectral_retry(family, theta).value
                closed = qfi_two_white_closed(param, x, p, r).value
                worst = max(worst, abs(closed - engine) / max(closed, engine, 1e-9))
        assert worst < 1e-10

    def test_floors_the_eigenvalues_the_engine_floors(self):
        # Near p = 1 the low white eigenvalue, 6.8e-13 here, lies in
        # [EIG_FLOOR/2, EIG_FLOOR): the engine keeps it (its pair sum 2 lam
        # reaches the floor), and so must the closed form.  The bound is
        # sized from the largest gap in this band, 1.2e-5 at p = 1 - 1e-11,
        # where both routes lose digits to a rank-1 coherent block.
        x, p, r = 0.5, 1.0 - 3e-12, 0.3
        low = _white_stepped(("p",), np.array(x), np.array(p), np.array(r))[0][5]
        assert fisher_module.EIG_FLOOR / 2.0 <= low < fisher_module.EIG_FLOOR
        engine = qfi_two_qubit_spectral(state_family(Channel.WHITE, "p", x=x, r=r), p).value
        closed = qfi_two_white_closed("p", x, p, r).value
        assert abs(closed - engine) <= 1e-4 * engine

    def test_decomposition_identity(self):
        got = qfi_two_white_terms("x", 0.4, 0.6, 0.3)
        classical, quantum, pairs = got.decomposition
        assert got.value == pytest.approx(classical + quantum - pairs, abs=1e-12)
        # The value function computes no split, as the SLD engine's does not.
        closed = qfi_two_white_closed("x", 0.4, 0.6, 0.3)
        assert closed.decomposition is None
        assert closed.value == got.value

    def test_singular_without_coherence(self):
        for x, p in ((0.0, 0.4), (1.0, 0.4), (0.3, 0.0)):
            with pytest.raises(SingularPointError):
                qfi_two_white_closed("p", x, p, 0.2)


class TestDataProcessing:
    def test_reduction_never_beats_full_state(self):
        for channel in (Channel.WHITE, Channel.COLOR):
            strength_name = "p" if channel is Channel.WHITE else "q"
            for x in np.linspace(0.15, 0.85, 5):
                for s in np.linspace(0.15, 0.85, 5):
                    for r in np.linspace(0, RINDLER_R_MAX, 5):
                        point = {"x": x, strength_name: s, "r": r}
                        for param in (strength_name, "x", "r"):
                            theta = point[param]
                            rest = {k: v for k, v in point.items() if k != param}
                            full = state_family(channel, param, **rest)
                            reduced = state_family(channel, param, reduced=True, **rest)
                            two = qfi_two_qubit_spectral_retry(full, theta).value
                            single = qfi_single_bloch(reduced, theta).value
                            assert two >= single - 1e-6


class TestArrayEngines:
    """An array theta runs the engines once over the whole array."""

    @staticmethod
    def grid_points(channel):
        """A broadcast (x, strength, r) grid of one channel, as point arrays."""
        x, s, r = np.meshgrid(
            np.linspace(0.05, 0.95, 5),
            np.linspace(0.0, 1.0, 5),
            np.linspace(0.0, RINDLER_R_MAX, 4),
            indexing="ij",
        )
        if channel is Channel.WHITE:
            return {"x": x, "p": s, "r": r}
        if channel is Channel.COLOR:
            return {"x": x, "q": s, "r": r}
        return {"x": x, "p": s / 2, "q": (1 - s) / 3, "r": r}

    @staticmethod
    def scalar_family(channel, param, point, index, reduced=False):
        others = {k: float(v[index]) for k, v in point.items() if k != param}
        return state_family(channel, param, reduced=reduced, **others)

    @pytest.mark.parametrize("channel", list(Channel))
    def test_spectral_engine_equals_scalar_calls_bitwise(self, channel):
        point = self.grid_points(channel)
        for engine in (qfi_two_qubit_spectral, qfi_two_qubit_terms):
            for param in CHANNEL_PARAMS[channel]:
                others = {k: v for k, v in point.items() if k != param}
                got = engine(state_family(channel, param, **others), point[param])
                assert got.value.shape == point[param].shape
                for index in np.ndindex(point[param].shape):
                    family = self.scalar_family(channel, param, point, index)
                    want = engine(family, float(point[param][index]))
                    assert isinstance(want.value, float)
                    assert got.value[index] == want.value, (param, index)
                    terms = tuple(term[index] for term in got.decomposition or ())
                    assert terms == (want.decomposition or ())

    def test_terms_value_is_the_engine_value_bitwise(self):
        # The split is computed only on request, from the engine's own
        # arithmetic, so its value is the engine's to the bit; the engine
        # itself gives no split.
        point = self.grid_points(Channel.WHITE_COLOR)
        for param in CHANNEL_PARAMS[Channel.WHITE_COLOR]:
            others = {k: v for k, v in point.items() if k != param}
            family = state_family(Channel.WHITE_COLOR, param, **others)
            engine = qfi_two_qubit_spectral(family, point[param])
            terms = qfi_two_qubit_terms(family, point[param])
            assert engine.decomposition is None
            assert engine.value.tobytes() == terms.value.tobytes(), param
            assert len(terms.decomposition) == 3

    @pytest.mark.parametrize("channel", list(Channel))
    def test_bloch_engine_agrees_with_scalar_calls(self, channel):
        point = self.grid_points(channel)
        for param in CHANNEL_PARAMS[channel]:
            others = {k: v for k, v in point.items() if k != param}
            family = state_family(channel, param, reduced=True, **others)
            got = qfi_single_bloch(family, point[param]).value
            for index in np.ndindex(point[param].shape):
                family = self.scalar_family(channel, param, point, index, reduced=True)
                want = qfi_single_bloch(family, float(point[param][index])).value
                assert abs(got[index] - want) <= 1e-9 * abs(want), (param, index)

    @pytest.mark.parametrize("reduced", [False, True])
    def test_array_fixed_parameters_equal_per_point_families(self, reduced):
        point = self.grid_points(Channel.WHITE_COLOR)
        for param in CHANNEL_PARAMS[Channel.WHITE_COLOR]:
            others = {k: v for k, v in point.items() if k != param}
            family = state_family(Channel.WHITE_COLOR, param, reduced=reduced, **others)
            stack = family.evaluate(point[param])
            assert stack.shape == point[param].shape + ((2, 2) if reduced else (4, 4))
            for index in np.ndindex(point[param].shape):
                one = self.scalar_family(Channel.WHITE_COLOR, param, point, index, reduced)
                assert stack[index].tobytes() == one.evaluate(float(point[param][index])).tobytes()

    @staticmethod
    def assert_nan_only_at_bad_cells(engine, family, theta, bad):
        """An array call is NaN, value and decomposition alike, exactly at the
        ``bad`` cells, whose float calls raise; elsewhere it is bit for bit
        the float call.  No warning escapes."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = engine(family, theta)
            outputs = (got.value, *(got.decomposition or ()))
            for i, t in enumerate(theta):
                if bad[i]:
                    assert all(np.isnan(out[i]) for out in outputs), t
                    with pytest.raises(FamilyEvalError):
                        engine(family, float(t))
                    continue
                want = engine(family, float(t))
                ones = (want.value, *(want.decomposition or ()))
                assert len(ones) == len(outputs)
                for out, one in zip(outputs, ones):
                    assert np.float64(out[i]).tobytes() == np.float64(one).tobytes(), t

    def test_column_past_x_one_is_nan_only_at_x_one(self):
        # At x=1 the complex step reaches the branch point of sqrt(1 - x^2).
        family = state_family(Channel.COLOR, "x", q=0.2, r=0.0)
        theta = np.array([0.5, 0.9, 1.0])
        for engine in (qfi_two_qubit_spectral, qfi_two_qubit_terms):
            self.assert_nan_only_at_bad_cells(engine, family, theta, theta == 1.0)

    def test_bloch_column_is_nan_only_at_non_finite_cells(self):
        # The model's reduced families are polynomial in x and stay finite, so
        # a caller-built one has the square root.  It is NaN where its branch
        # point is within reach of the step, as the model's builders are.
        def evaluate(t):
            radicand = 1.0 - t * t
            z = 0.5 * np.where(radicand.real >= np.abs(radicand.imag), np.sqrt(radicand), np.nan)
            m = np.zeros(np.shape(t) + (2, 2), dtype=complex)
            m[..., 0, 0] = (1.0 + z) / 2.0
            m[..., 1, 1] = (1.0 - z) / 2.0
            return m

        family = StateFamily(evaluate=evaluate, param="x", dim=2, label="root")
        theta = np.array([0.5, 0.9, 1.0])
        self.assert_nan_only_at_bad_cells(qfi_single_bloch, family, theta, theta == 1.0)

    @pytest.mark.parametrize("engine", [qfi_two_qubit_spectral, qfi_single_bloch])
    def test_complex_hermitian_family_is_rejected(self, engine):
        # Im rho(theta + ih)/h is the derivative only for a real family; a
        # complex Hermitian one would give a wrong QFI without this check.
        dim = 2 if engine is qfi_single_bloch else 4

        def evaluate(t):
            m = np.zeros(np.shape(t) + (dim, dim), dtype=complex)
            m[..., 0, 0] = t
            m[..., 1, 1] = 1 - t
            m[..., 0, 1], m[..., 1, 0] = 0.1j, -0.1j
            return m

        family = StateFamily(evaluate=evaluate, param="p", dim=dim, label="hermitian")
        for theta in (0.5, np.array([0.4, 0.5])):
            with pytest.raises(DomainError, match="not real symmetric"):
                engine(family, theta)

    def test_failing_or_misshapen_family_raises_for_float_and_array(self):
        def evaluate(t):
            raise ValueError("broken")

        failing = StateFamily(evaluate=evaluate, param="p")
        state = accelerated_white(0.3, 0.4, 0.2)
        two_states = constant_family(np.stack([state, state]))
        for theta in (0.5, np.array([0.4, 0.5])):
            with pytest.raises(FamilyEvalError, match="broken"):
                qfi_two_qubit_spectral(failing, theta)
            # A theta-free matrix broadcasts over theta: zero information.
            got = qfi_two_qubit_spectral(constant_family(state), theta)
            assert np.array_equal(got.value, np.zeros(np.shape(theta)))
        # A stack of two states broadcasts to no other number of cells.
        for theta in (0.5, np.array([0.5]), np.full(3, 0.5)):
            with pytest.raises(FamilyEvalError, match="returned shape"):
                qfi_two_qubit_spectral(two_states, theta)

    def test_theta_must_have_the_broadcast_shape(self):
        family = state_family(Channel.WHITE, "p", x=np.array([0.2, 0.4]), r=0.3)
        with pytest.raises(FamilyEvalError):
            qfi_two_qubit_spectral(family, 0.5)
        assert qfi_two_qubit_spectral(family, np.full(2, 0.5)).value.shape == (2,)

    def test_x_past_its_domain_is_nan_in_arrays_and_raises_for_floats(self):
        # sqrt(1 - x^2) is NaN past x = 1, for a float x as for an array.
        theta = np.array([0.2, 0.3])
        for x, nan_cells in ((1.5, [True, True]), (np.array([1.5, 0.4]), [True, False])):
            value = qfi_two_qubit_spectral(state_family(Channel.WHITE, "p", x=x), theta).value
            assert np.isnan(value).tolist() == nan_cells
        with pytest.raises(FamilyEvalError, match="undefined at theta=0.2"):
            qfi_two_qubit_spectral(state_family(Channel.WHITE, "p", x=1.5), 0.2)

    @pytest.mark.parametrize("name", ["fig9b", "fig11b", "fig8b:closed", "fig9b:closed"])
    def test_fallback_column_keeps_per_cell_reasons(self, name):
        # At x=1 the complex step reaches a branch point, so each numeric
        # column is NaN there and only its x=1 cell is empty.  A closed column
        # is NaN at its singular cells (p=0, or x in {0, 1}).  Each empty
        # cell's reason is the one its float call raises, read from the
        # NaN mask and the column's form.
        preset, _, variant = name.partition(":")
        table = run_sweep(figure_preset(preset))
        suffix = ":" + (variant or "numeric")
        columns = [i for i, c in enumerate(table.columns) if c.endswith(suffix)]
        assert len(columns) == 3
        empty_at = {"fig8b:closed": (0.0,), "fig9b:closed": (0.0, 1.0)}.get(name, (1.0,))
        for row in table.rows:
            empty = [row[i] is None for i in columns]
            assert empty == [row[0] in empty_at] * 3, row[0]
        want = {
            "fig8b": {"SingularPointError": 3},
            "fig9b": {"FamilyEvalError": 3, "SingularPointError": 6},
            "fig11b": {"FamilyEvalError": 3},
        }
        assert table.warnings == want[preset]


class TestMultiParameter:
    """A tuple of parameters gives each one's QFI, bit for bit its own call."""

    @staticmethod
    def edge_grid(channel):
        """A channel's points on x in {0, 1/sqrt(2), 1}, zero noise and r=0,
        with x first among the estimated parameters."""
        x, s, r = np.meshgrid(
            [0.0, 0.3, 1.0 / math.sqrt(2.0), 0.9, 1.0],
            [0.0, 0.5, 1.0],
            [0.0, 0.4, RINDLER_R_MAX],
            indexing="ij",
        )
        point = {Channel.WHITE: {"p": s}, Channel.COLOR: {"q": s}}.get(
            channel, {"p": s / 2, "q": (1 - s) / 3}
        )
        return {"x": x, **point, "r": r}

    @staticmethod
    def assert_entry_bitwise(got, k, want):
        """Entry k of a tuple call's value and decomposition is ``want``'s."""
        outputs = (got.value, *(got.decomposition or ()))
        ones = (want.value, *(want.decomposition or ()))
        assert len(outputs) == len(ones)
        for out, one in zip(outputs, ones):
            assert out[k].tobytes() == one.tobytes()

    @pytest.mark.parametrize("reduced", [False, True])
    @pytest.mark.parametrize("channel", list(Channel))
    def test_engine_equals_one_parameter_calls(self, channel, reduced):
        # rho must come from a direction finite at the cell: at x=1 the x
        # direction, first here, is NaN, and the others are not.
        engines = [qfi_single_bloch] if reduced else [qfi_two_qubit_spectral, qfi_two_qubit_terms]
        point = self.edge_grid(channel)
        names = tuple(point)
        assert names[0] == "x"
        for engine in engines:
            got = engine(state_family(channel, names, reduced=reduced), tuple(point.values()))
            for k, name in enumerate(names):
                others = {n: v for n, v in point.items() if n != name}
                want = engine(state_family(channel, name, reduced=reduced, **others), point[name])
                self.assert_entry_bitwise(got, k, want)
            # Only the x step of the full state reaches a branch point, at x=1.
            nan_at = np.isnan(got.value)
            assert np.array_equal(nan_at[0], (point["x"] == 1.0) & (not reduced))
            assert not nan_at[1:].any()

    @pytest.mark.parametrize("closed", [qfi_two_white_closed, qfi_two_white_terms, qfi_single_white_closed])
    def test_closed_form_equals_one_parameter_calls(self, closed):
        point = self.edge_grid(Channel.WHITE)
        names = ("x", "p", "r")
        got = closed(names, point["x"], point["p"], point["r"])
        for k, name in enumerate(names):
            self.assert_entry_bitwise(got, k, closed(name, point["x"], point["p"], point["r"]))
        if closed is not qfi_single_white_closed:
            assert np.isnan(got.value).any()
        if closed is qfi_two_white_terms:
            assert got.value.tobytes() == qfi_two_white_closed(names, point["x"], point["p"], point["r"]).value.tobytes()

    def test_float_call_gives_an_array_over_the_parameters(self):
        family = state_family(Channel.WHITE, ("x", "r"), p=0.4)
        for engine in (qfi_two_qubit_spectral, qfi_two_qubit_terms):
            got = engine(family, (0.3, 0.2))
            want = [
                engine(state_family(Channel.WHITE, "x", p=0.4, r=0.2), 0.3),
                engine(state_family(Channel.WHITE, "r", x=0.3, p=0.4), 0.2),
            ]
            assert got.value.tolist() == [one.value for one in want]
            with pytest.raises(FamilyEvalError):
                engine(family, (1.0, 0.2))
        assert [t.tolist() for t in got.decomposition] == [list(ts) for ts in zip(*(one.decomposition for one in want))]
        for form in (qfi_two_white_closed, qfi_two_white_terms):
            closed = form(("p", "r"), 0.3, 0.4, 0.2)
            want = [form(n, 0.3, 0.4, 0.2) for n in "pr"]
            assert closed.value.tolist() == [one.value for one in want]
            with pytest.raises(SingularPointError):
                form(("p", "r"), 0.3, 0.0, 0.2)
        assert [t.tolist() for t in closed.decomposition] == [list(ts) for ts in zip(*(one.decomposition for one in want))]
        assert closed.value.tolist() == qfi_two_white_closed(("p", "r"), 0.3, 0.4, 0.2).value.tolist()
        with pytest.raises(DomainError):
            state_family(Channel.COLOR, ("x", "p"))

    @pytest.mark.parametrize("param", [("p", "p"), ("x", "r", "x"), ()])
    def test_a_name_given_twice_or_none_is_refused(self, param):
        # A family's thetas fill one slot per name: a repeated name once
        # dropped its first theta (F = [0, 2.2058] at ("p", "p")), and no
        # name failed in a different way in every form.
        for reduced in (False, True):
            with pytest.raises(DomainError, match="once each"):
                state_family(Channel.WHITE, param, x=0.3, r=0.2, reduced=reduced)
        for closed in (qfi_two_white_closed, qfi_two_white_terms, qfi_single_white_closed):
            with pytest.raises(DomainError, match="once each"):
                closed(param, 0.3, 0.4, 0.2)
            with pytest.raises(DomainError, match="once each"):
                closed(param, np.array([0.3]), 0.4, 0.2)

    def test_an_unknown_name_keeps_its_message(self):
        with pytest.raises(DomainError, match="parameter 'q' is not part of the white channel"):
            state_family(Channel.WHITE, ("p", "q"))
        for closed in (qfi_two_white_closed, qfi_two_white_terms, qfi_single_white_closed):
            with pytest.raises(DomainError, match=r"must be one of p, x, r; got \('p', 'q'\)"):
                closed(("p", "q"), 0.3, 0.4, 0.2)
