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
from oracles import manual_partial_trace, oracle_concurrence, oracle_concurrence_mp, random_density

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

    @pytest.mark.parametrize("keep", ["first", "second"])
    def test_stack_matches_each_matrix_bitwise(self, rng, keep):
        stack = np.array([random_density(rng) for _ in range(6)]).reshape(2, 3, 4, 4)
        got = partial_trace(stack, keep)
        assert got.shape == (2, 3, 2, 2)
        for index in np.ndindex(2, 3):
            assert np.array_equal(got[index], partial_trace(stack[index], keep))

    def test_rejects_a_non_4x4_shape(self):
        with pytest.raises(DomainError, match="rho must be 4x4"):
            partial_trace(np.eye(2), keep="first")


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

    def test_square_root_and_reconstruction_on_tied_spectra(self, state_stack):
        # The stack holds exactly tied spectra, where the eigenvector basis of
        # an eigenspace is LAPACK's choice; neither result may depend on it.
        root = sqrt_psd(state_stack)
        assert np.abs(root @ root - state_stack).max() < 1e-14
        assert np.abs(eig_hermitian(state_stack).reconstruct() - state_stack).max() < 1e-14

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
    # Nor is anything but one square matrix a density matrix.
    assert not is_density_matrix(np.zeros(4))
    for count in (2, 4):
        assert not is_density_matrix(np.stack([np.eye(4) / 4] * count))


class TestRealArithmetic:
    """A real input stays real from the builder to LAPACK, and the real route
    agrees with the complex one."""

    @staticmethod
    def _real_states(rng, rank: int) -> np.ndarray:
        g = rng.normal(size=(200, 4, rank))
        rho = g @ g.swapaxes(-1, -2)
        return rho / np.trace(rho, axis1=-2, axis2=-1)[:, None, None]

    def test_dtypes(self):
        from unruhkit.qlinalg import as_stack, hermitian_defect

        real, complex_ = np.eye(4) / 4.0, np.eye(4, dtype=complex) / 4.0
        assert as_stack(real).dtype == np.float64
        assert as_stack(np.eye(4, dtype=int)).dtype == np.float64
        assert as_stack(np.eye(4, dtype=np.float32)).dtype == np.float64
        assert as_stack(complex_).dtype == np.complex128
        assert as_stack(np.eye(4, dtype=np.complex64)).dtype == np.complex128
        assert hermitian_defect(np.eye(4, dtype=int)) == 0.0
        assert is_density_matrix(real) and is_density_matrix(complex_)
        for m, kind in ((real, np.float64), (complex_, np.complex128)):
            dec = eig_hermitian(m)
            assert dec.eigenvalues.dtype == np.float64
            assert dec.eigenvectors.dtype == kind
            assert sqrt_psd(m).dtype == kind

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_real_route_matches_complex_route(self, rng, rank):
        from unruhkit import concurrence

        rho = self._real_states(rng, rank)
        assert rho.dtype == np.float64
        as_complex = rho.astype(complex)
        real_dec, complex_dec = eig_hermitian(rho), eig_hermitian(as_complex)
        assert np.abs(real_dec.eigenvalues - complex_dec.eigenvalues).max() <= 1e-14
        assert np.abs(real_dec.reconstruct() - complex_dec.reconstruct()).max() <= 1e-14
        # Below full rank each route's root carries the square root of its own
        # round-off in the null space (about 1e-8), so the roots are compared
        # by their squares, and the concurrence, which takes singular values
        # of a product of roots, to 1e-12 (7.7e-13 at most over 5,000 states
        # per rank).
        real_root, complex_root = sqrt_psd(rho), sqrt_psd(as_complex)
        assert np.abs(real_root @ real_root - complex_root @ complex_root).max() <= 1e-14
        assert np.abs(concurrence(rho) - concurrence(as_complex)).max() <= 1e-12
        # The real route's symmetric eigenvalue solve against a 40-digit
        # general eigensolve of rho @ rho~, which keeps the square roots of
        # eigenvalues near zero exact (a double-precision oracle errs there by
        # about 1e-8).  The largest gap is 2.7e-15 over ranks 1-4; 25 states
        # per rank, as each solve takes about 8 ms.
        want = np.array([oracle_concurrence_mp(m) for m in rho[:25]])
        assert np.abs(concurrence(rho[:25]) - want).max() <= 1e-12
        assert (want > 0.01).any()

    def test_real_route_matches_complex_route_on_model_states(self):
        # The model's X states, pure (rank 1) to full rank, agree to 1e-14
        # on every route, roots included.
        from unruhkit import accelerated_color, accelerated_white, concurrence

        x, s, r = np.meshgrid(*(np.linspace(0.0, 1.0, 21),) * 2, np.linspace(0.0, np.pi / 4, 21))
        rho = np.stack([accelerated_white(x, s, r), accelerated_color(x, s, r)])
        assert rho.dtype == np.float64
        ranks = np.linalg.matrix_rank(rho.reshape(-1, 4, 4), tol=1e-12)
        assert set(ranks.tolist()) == {1, 2, 3, 4}
        as_complex = rho.astype(complex)
        real_dec, complex_dec = eig_hermitian(rho), eig_hermitian(as_complex)
        assert np.abs(real_dec.eigenvalues - complex_dec.eigenvalues).max() <= 1e-14
        assert np.abs(real_dec.reconstruct() - complex_dec.reconstruct()).max() <= 1e-14
        assert np.abs(sqrt_psd(rho) - sqrt_psd(as_complex)).max() <= 1e-14
        assert np.abs(concurrence(rho) - concurrence(as_complex)).max() <= 1e-14

    def test_non_real_state_matches_its_oracle(self, rng):
        from unruhkit import concurrence

        for _ in range(50):
            rho = random_density(rng)
            assert np.abs(rho.imag).max() > 0.01
            assert sqrt_psd(rho).dtype == np.complex128
            assert concurrence(rho) == pytest.approx(oracle_concurrence(rho), abs=1e-10)
            for keep in ("first", "second"):
                assert np.allclose(partial_trace(rho, keep), manual_partial_trace(rho, keep), atol=1e-15)
