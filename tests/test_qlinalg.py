import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unruhkit import (
    DomainError,
    NotHermitianError,
    NotPSDError,
    eig_hermitian,
    is_density_matrix,
    kron2,
    partial_trace,
    sqrt_psd,
)
from oracles import manual_partial_trace, random_density

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])


class TestKron2:
    def test_identity(self):
        assert np.array_equal(kron2(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal_expansion(self):
        got = kron2(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
        assert np.array_equal(got, np.diag([3.0, 4.0, 6.0, 8.0]))

    def test_pauli_y_square(self):
        got = kron2(SIGMA_Y, SIGMA_Y)
        want = np.zeros((4, 4), dtype=complex)
        want[0, 3], want[1, 2], want[2, 1], want[3, 0] = -1.0, 1.0, 1.0, -1.0
        assert np.allclose(got, want, atol=0)

    def test_entry_formula(self, rng):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        got = kron2(a, b)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for L in range(2):
                        # last-ulp slack: vectorized complex multiply may
                        # round differently from the scalar product
                        assert abs(got[2 * i + k, 2 * j + L] - a[i, j] * b[k, L]) < 1e-15

    def test_shape_rejected(self):
        with pytest.raises(DomainError):
            kron2(np.eye(3), np.eye(2))


class TestPartialTrace:
    def test_maximally_mixed(self):
        got = partial_trace(np.eye(4) / 4.0, keep="second")
        assert np.allclose(got, np.eye(2) / 2.0, atol=1e-15)

    def test_maximally_entangled_reduces_to_mixed(self):
        ket = np.zeros(4, dtype=complex)
        ket[1] = ket[2] = 1.0 / math.sqrt(2.0)
        proj = np.outer(ket, ket.conj())
        for keep in ("first", "second"):
            assert np.allclose(partial_trace(proj, keep), np.eye(2) / 2.0, atol=1e-15)

    @pytest.mark.parametrize("x,p,r", [(0.3, 0.7, 0.2), (0.9, 0.4, 0.6), (0.5, 1.0, 0.0)])
    def test_coherent_block_traces_out(self, x, p, r):
        # Independent construction of the accelerated-state shape: diagonal
        # (g c^2, al + g s^2, be c^2, be s^2 + g) plus a real |01><10| block.
        g = (1 - p) / 4
        al = (1 + p * (3 - 4 * x * x)) / 4
        be = (1 - p * (1 - 4 * x * x)) / 4
        ep = p * x * math.sqrt(1 - x * x)
        c2, s2 = math.cos(r) ** 2, math.sin(r) ** 2
        m = np.diag([g * c2, al + g * s2, be * c2, be * s2 + g]).astype(complex)
        m[1, 2] = m[2, 1] = ep * math.cos(r)
        got = partial_trace(m, keep="second")
        # Hand result: the coherence is off-diagonal in the first qubit's
        # index, so the reduction is diagonal.
        want = np.diag([(g + be) * c2, 1 - (g + be) * c2])
        assert np.allclose(got, want, atol=1e-14)
        assert np.allclose(got, manual_partial_trace(m, "second"), atol=1e-15)

    def test_product_state_property(self, rng):
        for _ in range(50):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            ab = kron2(a, b)
            assert np.allclose(partial_trace(ab, "first"), a * np.trace(b), atol=1e-12)
            assert np.allclose(partial_trace(ab, "second"), b * np.trace(a), atol=1e-12)

    def test_matches_manual_loop_on_random_input(self, rng):
        for _ in range(25):
            rho = random_density(rng)
            for keep in ("first", "second"):
                assert np.allclose(
                    partial_trace(rho, keep), manual_partial_trace(rho, keep), atol=1e-15
                )

    def test_bad_keep(self):
        with pytest.raises(DomainError):
            partial_trace(np.eye(4) / 4, keep="third")


class TestEigHermitian:
    def test_diagonal(self):
        dec = eig_hermitian(np.diag([4.0, 3.0, 2.0, 1.0]))
        assert np.allclose(dec.eigenvalues, [4.0, 3.0, 2.0, 1.0], atol=0)
        assert np.allclose(np.abs(dec.eigenvectors), np.eye(4), atol=1e-14)

    def test_rank_one_projector(self):
        ket = np.zeros(4, dtype=complex)
        ket[1] = ket[2] = 1.0 / math.sqrt(2.0)
        dec = eig_hermitian(np.outer(ket, ket.conj()))
        assert np.allclose(dec.eigenvalues, [1.0, 0.0, 0.0, 0.0], atol=1e-14)
        overlap = abs(np.vdot(dec.eigenvectors[:, 0], ket))
        assert abs(overlap - 1.0) < 1e-12

    def test_reconstruction_property(self, rng):
        for _ in range(100):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            h = (g + g.conj().T) / 2
            dec = eig_hermitian(h)
            assert np.abs(dec.reconstruct() - h).max() < 1e-10
            gram = dec.eigenvectors.conj().T @ dec.eigenvectors
            assert np.abs(gram - np.eye(4)).max() < 1e-10
            assert np.all(np.diff(dec.eigenvalues) <= 0)

    def test_density_eigenvalues_sum_to_one(self, rng):
        for _ in range(25):
            dec = eig_hermitian(random_density(rng))
            assert abs(dec.eigenvalues.sum() - 1.0) < 1e-10

    def test_not_hermitian_rejected(self):
        m = np.eye(4, dtype=complex)
        m[0, 1] = 1e-6
        with pytest.raises(NotHermitianError):
            eig_hermitian(m)

    def test_deterministic_on_repeats(self, rng):
        h = random_density(rng)
        first = eig_hermitian(h)
        second = eig_hermitian(h.copy())
        assert np.array_equal(first.eigenvalues, second.eigenvalues)
        assert np.array_equal(first.eigenvectors, second.eigenvectors)


class TestSqrtPsd:
    def test_identity(self):
        assert np.allclose(sqrt_psd(np.eye(4)), np.eye(4), atol=1e-14)

    def test_diagonal(self):
        got = sqrt_psd(np.diag([4.0, 1.0, 0.0, 9.0]))
        assert np.allclose(got, np.diag([2.0, 1.0, 0.0, 3.0]), atol=1e-14)

    def test_square_property(self, rng):
        for _ in range(50):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            psd = g @ g.conj().T / 4.0
            root = sqrt_psd(psd)
            assert np.abs(root @ root - psd).max() < 1e-9

    def test_fourth_root_composition(self, rng):
        for _ in range(20):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            psd = g @ g.conj().T / 4.0
            fourth = sqrt_psd(sqrt_psd(psd))
            assert np.abs(np.linalg.matrix_power(fourth, 4) - psd).max() < 1e-8

    def test_small_negative_clamped(self):
        got = sqrt_psd(np.diag([1.0, -1e-13, 0.5, 0.25]))
        assert got[1, 1].real == 0.0

    def test_not_psd_rejected(self):
        with pytest.raises(NotPSDError):
            sqrt_psd(np.diag([1.0, -1e-3, 0.5, 0.25]))


class TestStacks:
    def test_stack_has_exact_ties(self, state_stack):
        w = eig_hermitian(state_stack).eigenvalues
        assert (w[:, 1:] == w[:, :-1]).any(axis=1).sum() >= 10

    def test_eig_hermitian_matches_each_matrix_bitwise(self, state_stack):
        dec = eig_hermitian(state_stack)
        assert dec.eigenvalues.shape == (len(state_stack), 4)
        for i, m in enumerate(state_stack):
            one = eig_hermitian(m)
            assert dec.eigenvalues[i].tobytes() == one.eigenvalues.tobytes()
            assert dec.eigenvectors[i].tobytes() == one.eigenvectors.tobytes()

    def test_sqrt_psd_matches_each_matrix_bitwise(self, state_stack):
        roots = sqrt_psd(state_stack)
        for i, m in enumerate(state_stack):
            assert roots[i].tobytes() == sqrt_psd(m).tobytes()

    def test_nested_stack_shape(self, state_stack):
        nested = state_stack[:12].reshape(3, 4, 4, 4)
        dec = eig_hermitian(nested)
        assert dec.eigenvalues.shape == (3, 4, 4)
        assert dec.eigenvectors.tobytes() == eig_hermitian(state_stack[:12]).eigenvectors.tobytes()
        assert np.abs(dec.reconstruct() - nested).max() < 1e-12

    def test_one_non_hermitian_matrix_rejects_the_stack(self, state_stack):
        bad = state_stack.copy()
        bad[7, 0, 1] += 1e-6
        with pytest.raises(NotHermitianError):
            eig_hermitian(bad)
        with pytest.raises(NotHermitianError):
            sqrt_psd(bad)

    def test_one_non_psd_matrix_rejects_the_stack(self, state_stack):
        bad = state_stack.copy()
        bad[7] = np.diag([1.0, -1e-3, 0.5, 0.25])
        with pytest.raises(NotPSDError):
            sqrt_psd(bad)

    def test_wrong_trailing_shape_rejected(self):
        with pytest.raises(DomainError):
            eig_hermitian(np.zeros((2, 3, 3)))


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_is_density_matrix_accepts_valid_diagonal(w):
    rho = np.diag([w / 2, (1 - w) / 2, w / 2, (1 - w) / 2])
    assert is_density_matrix(rho)


def test_is_density_matrix_rejects_traceless():
    assert not is_density_matrix(np.eye(4))
