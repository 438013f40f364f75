"""Unit and property tests for the dense linear-algebra core."""

import numpy as np
import pytest

from ipsim import qcore
from ipsim.qcore import (
    DensityMatrix,
    DimensionError,
    InvariantError,
    PureState,
    UnitaryOp,
    basis_state,
    eig_sorted,
    fidelity_pure,
    maximally_mixed,
    one_norm_distance,
    purity,
    sample_haar_unitaries,
    sample_haar_unitary,
    sample_state,
    schatten_norm,
    truncate_rank_k,
)


def rng(seed=0):
    return np.random.default_rng(seed)


class TestTypes:
    def test_pure_state_normalization_enforced(self):
        with pytest.raises(InvariantError):
            PureState(np.array([1.0, 1.0]))

    def test_density_matrix_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(InvariantError):
            DensityMatrix(m)

    def test_density_matrix_rejects_negative_eigenvalue(self):
        m = np.diag([1.2, -0.2]).astype(complex)
        with pytest.raises(InvariantError):
            DensityMatrix(m)

    def test_subnormalized_relaxes_only_trace(self):
        half = qcore.SubnormalizedPSD(np.diag([0.3, 0.2]).astype(complex))
        assert half.dim == 2
        with pytest.raises(InvariantError):
            qcore.SubnormalizedPSD(np.diag([1.3, 0.2]).astype(complex))

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf - inf
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_non_finite_entries_rejected(self, bad, where):
        m = np.eye(2, dtype=complex) / 2
        m[where] = bad
        for kind in (DensityMatrix, qcore.SubnormalizedPSD):
            with pytest.raises(InvariantError, match="not Hermitian"):
                kind(m)

    def test_unitary_residual_checked(self):
        with pytest.raises(InvariantError):
            UnitaryOp(np.array([[1.0, 0.0], [0.0, 1.0 + 1e-6]]))


class TestSchattenNorm:
    def test_zero_matrix(self):
        assert schatten_norm(np.zeros((3, 3)), 1) == 0.0

    def test_orthogonal_pure_difference(self):
        a = basis_state(2, 0).density().entries - basis_state(2, 1).density().entries
        assert abs(schatten_norm(a, 1) - 2.0) < 1e-12

    def test_p2_matches_trace_formula(self):
        g = rng(1)
        for _ in range(20):
            m = g.standard_normal((4, 4)) + 1j * g.standard_normal((4, 4))
            h = (m + m.conj().T) / 2
            ref = np.sqrt(np.real(np.trace(h.conj().T @ h)))
            assert abs(schatten_norm(h, 2) - ref) < 1e-9

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            schatten_norm(np.zeros((2, 3)), 1)

    def test_unitary_invariance(self):
        g = rng(2)
        m = g.standard_normal((5, 5)) + 1j * g.standard_normal((5, 5))
        u = sample_haar_unitary(5, g).entries
        for p in (1, 2, np.inf):
            assert abs(schatten_norm(m, p) - schatten_norm(u @ m @ u.conj().T, p)) < 1e-8


class TestFidelityPurity:
    def test_fidelity_identical(self):
        psi = basis_state(2, 0)
        assert fidelity_pure(psi, psi.density()) == pytest.approx(1.0)

    def test_fidelity_orthogonal(self):
        assert fidelity_pure(basis_state(2, 0), basis_state(2, 1).density()) == pytest.approx(0.0)

    def test_fidelity_maximally_mixed(self):
        assert fidelity_pure(basis_state(2, 0), maximally_mixed(2)) == pytest.approx(0.5)

    def test_fidelity_dim_mismatch(self):
        with pytest.raises(DimensionError):
            fidelity_pure(basis_state(2, 0), maximally_mixed(4))

    def test_purity_values(self):
        assert purity(maximally_mixed(4)) == pytest.approx(0.25)
        assert purity(basis_state(2, 0).density()) == pytest.approx(1.0)
        mix = DensityMatrix(np.diag([0.5, 0.5]).astype(complex))
        assert purity(mix) == pytest.approx(0.5)


class TestEigAndTruncation:
    def test_sorted_reordering(self):
        spec = eig_sorted(np.diag([0.1, 0.9]).astype(complex))
        assert np.allclose(spec.values, [0.9, 0.1])

    def test_degenerate_maximally_mixed(self):
        spec = eig_sorted(maximally_mixed(3))
        assert np.allclose(spec.values, [1 / 3] * 3)

    def test_reconstruction_residual(self):
        g = rng(3)
        for _ in range(25):
            sigma = sample_state(6, 6, g)
            spec = eig_sorted(sigma)
            u = spec.basis.entries
            assert np.abs((u * spec.values) @ u.conj().T - sigma.entries).max() < 1e-8

    def test_truncate_examples(self):
        sigma = DensityMatrix(np.diag([0.5, 0.3, 0.2]).astype(complex))
        t2 = truncate_rank_k(sigma, 2)
        assert np.allclose(sorted(np.linalg.eigvalsh(t2.entries))[::-1], [0.5, 0.3, 0.0], atol=1e-10)
        t2n = truncate_rank_k(sigma, 2, normalize=True)
        assert np.allclose(sorted(np.linalg.eigvalsh(t2n.entries))[::-1], [0.625, 0.375, 0.0], atol=1e-10)

    def test_truncate_pure_rank1_identity(self):
        psi = qcore.sample_pure_state(4, rng(4)).density()
        t = truncate_rank_k(psi, 1)
        assert np.abs(t.entries - psi.entries).max() < 1e-10

    def test_truncate_full_rank_is_identity(self):
        g = rng(5)
        sigma = sample_state(5, 5, g)
        t = truncate_rank_k(sigma, 5)
        assert np.abs(t.entries - sigma.entries).max() < 1e-10

    def test_truncate_k_out_of_range(self):
        with pytest.raises(DimensionError):
            truncate_rank_k(maximally_mixed(2), 3)


class TestSampling:
    def test_haar_deterministic_for_seed(self):
        u1 = sample_haar_unitary(2, rng(11))
        u2 = sample_haar_unitary(2, rng(11))
        assert np.array_equal(u1.entries, u2.entries)

    def test_haar_first_entry_moment(self):
        g = rng(12)
        vals = [abs(sample_haar_unitary(2, g).entries[0, 0]) ** 2 for _ in range(10_000)]
        mean = np.mean(vals)
        se = np.std(vals) / np.sqrt(len(vals))
        assert abs(mean - 0.5) < 3 * se + 1e-3

    @staticmethod
    def _reference_haar_unitary(d, g):
        """The one-matrix-at-a-time formula the batched draw replaced."""
        z = (g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))) / np.sqrt(2)
        q, r = np.linalg.qr(z)
        return q * (np.diag(r) / np.abs(np.diag(r)))

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
    def test_haar_matches_reference_draw_for_draw(self, d):
        for seed in range(20):
            g_new, g_ref = rng(seed), rng(seed)
            for _ in range(3):
                u = sample_haar_unitary(d, g_new).entries
                assert np.array_equal(u, self._reference_haar_unitary(d, g_ref))
            assert g_new.bit_generator.state == g_ref.bit_generator.state

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
    def test_batched_haar_equals_single_draws(self, d):
        for seed in range(20):
            for n in (0, 3 * d):
                g_batch, g_single = rng(seed), rng(seed)
                stack = sample_haar_unitaries(n, d, g_batch)
                assert stack.shape == (n, d, d)
                for u in stack:
                    assert np.array_equal(u, sample_haar_unitary(d, g_single).entries)
                assert g_batch.bit_generator.state == g_single.bit_generator.state

    def test_batched_haar_checks_unitarity(self, monkeypatch):
        stack = sample_haar_unitaries(3, 4, rng(9))
        stack[1, 0, 0] *= 1.001
        monkeypatch.setattr(qcore, "_haar_factors", lambda g: stack)
        with pytest.raises(InvariantError, match="unitarity residual"):
            sample_haar_unitaries(3, 4, rng(9))

    @pytest.mark.parametrize("d", [2, 3, 8, 16, 129, 256])
    def test_one_column_factor_is_the_full_first_column_bit_for_bit(self, d):
        """The d x 1 QR a pure-test round takes gives, byte for byte, column 0
        of the d x d factor of the same Gaussians: LAPACK's first reflector
        reads only that column, here on both sides of its blocking size."""
        g = rng(d).standard_normal((200 if d <= 16 else 2, 2, d, d))
        full, first = qcore.haar_factors(g), qcore.haar_factors(g[..., :1])
        assert first.shape == (len(g), d, 1)
        assert first.tobytes() == np.ascontiguousarray(full[..., :1]).tobytes()

    def test_one_column_factor_held_to_unit_norm(self, monkeypatch):
        g = rng(4).standard_normal((3, 2, 4, 1))
        column = qcore._haar_factors(g)
        column[1] *= 1 + 1e-6
        monkeypatch.setattr(qcore, "_haar_factors", lambda g: column)
        with pytest.raises(InvariantError, match="unitarity residual"):
            qcore.haar_factors(g)

    def test_haar_rejects_d_below_two(self):
        with pytest.raises(DimensionError):
            sample_haar_unitary(1, rng())
        with pytest.raises(DimensionError):
            sample_haar_unitaries(4, 1, rng())

    def test_sample_state_rank(self):
        g = rng(13)
        pure = sample_state(4, 1, g)
        assert purity(pure) == pytest.approx(1.0, abs=1e-9)
        full = sample_state(4, 4, g)
        assert np.linalg.matrix_rank(full.entries, tol=1e-10) == 4

    def test_sample_state_reproducible(self):
        a = sample_state(4, 2, rng(14))
        b = sample_state(4, 2, rng(14))
        assert np.array_equal(a.entries, b.entries)


class TestNormProperties:
    def test_one_norm_range_and_orthogonal_supports(self):
        g = rng(21)
        for _ in range(200):
            d = int(g.integers(2, 9))
            a, b = sample_state(d, int(g.integers(1, d + 1)), g), sample_state(d, int(g.integers(1, d + 1)), g)
            dist = one_norm_distance(a, b)
            assert -1e-12 <= dist <= 2 + 1e-9
        # orthogonal supports hit 2 exactly
        assert one_norm_distance(basis_state(4, 0).density(), basis_state(4, 1).density()) == pytest.approx(2.0)

    def test_norm_ordering_1000_pairs(self):
        g = rng(22)
        for _ in range(1000):
            d = int(g.integers(2, 9))
            a = sample_state(d, d, g).entries - sample_state(d, d, g).entries
            n1, n2, ninf = (schatten_norm(a, p) for p in (1, 2, np.inf))
            assert n1 >= n2 - 1e-12 >= ninf - 2e-12

    def test_mirsky_1000_pairs(self):
        # ||A-B||_p >= ||diag(sva - svb)||_p with sorted singular values
        g = rng(23)
        for _ in range(1000):
            d = int(g.integers(2, 9))
            a = g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))
            b = g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))
            a = (a + a.conj().T) / 2
            b = (b + b.conj().T) / 2
            sva = np.sort(np.linalg.svd(a, compute_uv=False))[::-1]
            svb = np.sort(np.linalg.svd(b, compute_uv=False))[::-1]
            for p in (1, 2, np.inf):
                lhs = schatten_norm(a - b, p)
                rhs = schatten_norm(np.diag(sva - svb).astype(complex), p)
                assert lhs >= rhs - 1e-9
