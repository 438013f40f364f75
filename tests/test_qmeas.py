"""Tests for measurement primitives: Born-rule laws, SWAP test, Bell sampling,
Pauli moments and uniform Clifford sampling."""

import ast
import warnings
from pathlib import Path

import numpy as np
import pytest

from ipsim import qcore, qmeas, stab_ip
from ipsim.qcore import InvariantError, UnitaryOp, basis_state, maximally_mixed
from ipsim.qmeas import (
    PauliLabel,
    bell_difference_labels,
    bell_difference_sample,
    characteristic_distribution,
    dense_pauli,
    num_qubits,
    pauli_expectations,
    pauli_moment_bits,
    pauli_moment_sample,
    sample_uniform_clifford,
    swap_test,
)


def rng(seed=0):
    return np.random.default_rng(seed)


def t_state():
    return qcore.PureState(np.array([1.0, np.exp(1j * np.pi / 4)]) / np.sqrt(2))


from statutil import chi_square_pvalue


class TestPauliMachinery:
    def test_dense_paulis_single_qubit(self):
        X = dense_pauli(PauliLabel(1, 1, 0))
        Z = dense_pauli(PauliLabel(1, 0, 1))
        Y = dense_pauli(PauliLabel(1, 1, 1))
        assert np.allclose(X, [[0, 1], [1, 0]])
        assert np.allclose(Z, [[1, 0], [0, -1]])
        assert np.allclose(Y, [[0, -1j], [1j, 0]])

    def test_paulis_hermitian_involutions(self):
        g = rng(1)
        for _ in range(30):
            n = int(g.integers(1, 4))
            lab = PauliLabel.from_index(n, int(g.integers(0, 4**n)))
            W = dense_pauli(lab)
            assert np.allclose(W, W.conj().T)
            assert np.allclose(W @ W, np.eye(2**n))

    def test_expectations_match_dense_oracle(self):
        g = rng(2)
        for n in (1, 2, 3):
            psi = qcore.sample_pure_state(2**n, g)
            exps = pauli_expectations(psi)
            for idx in range(4**n):
                W = dense_pauli(PauliLabel.from_index(n, idx))
                ref = float(np.vdot(psi.amplitudes, W @ psi.amplitudes).real)
                assert abs(exps[idx] - ref) < 1e-11

    def test_characteristic_distribution_normalized(self):
        g = rng(3)
        for n in (1, 2):
            p = characteristic_distribution(qcore.sample_pure_state(2**n, g))
            assert abs(p.sum() - 1.0) < 1e-12
            assert p.min() >= 0


def _reference_pauli_expectations(psi) -> np.ndarray:
    """The per-x loop that ``pauli_expectations`` replaced: one Hadamard
    product and one bit-by-bit phase per value of x."""
    rho = psi if isinstance(psi, np.ndarray) else None
    n = num_qubits(psi)
    d = 1 << n
    h = qmeas.hadamard_sign_matrix(n)
    j = np.arange(d)
    out = np.empty(d * d)
    for x in range(d):
        v = rho[j, j ^ x] if rho is not None else psi.amplitudes * psi.amplitudes[j ^ x].conj()
        vals = h @ v
        popcount = np.array([bin(x & z).count("1") for z in range(d)])
        phases = 1j ** (popcount % 4)
        out[x + (np.arange(d) << n)] = np.real(phases * vals)
    return out


def _expectation_inputs(n: int, g: np.random.Generator) -> list:
    """Haar states, near-stabilizer session instances, enumerated stabilizer
    states, and mixed density matrices of rank 2..d."""
    d = 1 << n
    states = stab_ip.enumerate_stabilizers(n)
    config = stab_ip.StabConfig(n=n)
    out = [qcore.sample_pure_state(d, g) for _ in range(8)]
    out += [config.sample_instance("accept", g) for _ in range(8)]
    out += [states[int(i)].dense for i in g.integers(0, len(states), size=8)]
    out += [qcore.sample_state(d, int(r), g).entries for r in g.integers(2, d + 1, size=8)]
    out += [psi.density().entries for psi in out[:2]]
    return out


class TestPauliExpectationsAgainstReference:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_loop_reference(self, n):
        for psi in _expectation_inputs(n, rng(40 + n)):
            assert np.abs(pauli_expectations(psi) - _reference_pauli_expectations(psi)).max() < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_same_bits_as_loop_reference(self, n):
        """Each row goes through the matrix-vector product the loop made, so
        the sums, and the moment draws that read them, keep every bit."""
        for psi in _expectation_inputs(n, rng(50 + n)):
            assert pauli_expectations(psi).tobytes() == _reference_pauli_expectations(psi).tobytes()

    def test_tables_read_only(self):
        for n in (1, 4):
            for table in (qmeas.hadamard_sign_matrix(n), *qmeas._expectation_tables(n)):
                assert not table.flags.writeable
                with pytest.raises(ValueError):
                    table[0, 0] = 0

    def test_alternating_pure_states_keep_their_own_values(self):
        """The one-slot cache hands each state its own vector, also when two
        states take turns and when a density matrix comes in between."""
        a, b = qcore.sample_pure_state(8, rng(3)), qcore.sample_pure_state(8, rng(4))
        for psi in (a, b, a, a, b, a.density().entries, a, b):
            assert pauli_expectations(psi).tobytes() == _reference_pauli_expectations(psi).tobytes()

    def test_equal_amplitudes_share_one_vector(self):
        a = qcore.sample_pure_state(4, rng(5))
        assert pauli_expectations(a) is pauli_expectations(qcore.PureState(a.amplitudes.copy()))

    def test_pure_state_vector_read_only(self):
        exps = pauli_expectations(qcore.sample_pure_state(4, rng(6)))
        with pytest.raises(ValueError):
            exps[0] = 0.5


class TestNumQubits:
    @pytest.mark.parametrize("d", [1, 2, 8, 64])
    def test_powers_of_two(self, d):
        assert num_qubits(np.eye(d)) == d.bit_length() - 1
        assert num_qubits(basis_state(d, 0)) == d.bit_length() - 1

    def test_empty_array_is_a_dimension_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(qcore.DimensionError, match="dimension 0"):
                num_qubits(np.zeros((0, 0)))

    @pytest.mark.parametrize("d", [3, 6, 12])
    def test_other_dimensions_are_dimension_errors(self, d):
        with pytest.raises(qcore.DimensionError, match=f"dimension {d} is not a power of two"):
            num_qubits(np.eye(d))


class TestMeasureInBasis:
    def test_uniform_chi_square(self):
        g = rng(5)
        u = qcore.sample_haar_unitary(4, g)
        probs = qmeas.basis_probabilities(maximally_mixed(4).entries, u)
        shots = 100_000
        counts = np.bincount(g.choice(4, size=shots, p=probs), minlength=4)
        assert chi_square_pvalue(counts, [shots / 4] * 4) > 0.01

    @staticmethod
    def _reference_probabilities(mat, ue):
        """The one-basis Born table the stacked one replaced."""
        probs = np.clip(np.real(np.einsum("ji,jk,ki->i", ue.conj(), mat, ue)), 0.0, None)
        return probs / probs.sum()

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
    def test_stacked_probabilities_match_per_basis(self, d):
        g = rng(7)
        for _ in range(20):
            rho = qcore.sample_state(d, int(g.integers(1, d + 1)), g).entries
            bases = qcore.sample_haar_unitaries(3 * d, d, g)
            table = qmeas.basis_probabilities(rho, bases)
            assert table.shape == (3 * d, d)
            for row, ue in zip(table, bases):
                assert np.array_equal(row, self._reference_probabilities(rho, ue))
                assert np.array_equal(row, qmeas.basis_probabilities(rho, UnitaryOp(ue)))

    def test_stacked_probabilities_check_every_row(self):
        bases = qcore.sample_haar_unitaries(4, 2, rng(8))
        with pytest.raises(InvariantError, match="sum to"):
            qmeas.basis_probabilities(np.eye(2) * 0.6, bases)


class TestSwapTest:
    def test_identical_pure_always_accepts(self):
        g = rng(10)
        rho = basis_state(2, 0).density()
        assert all(swap_test(rho, rho, g) for _ in range(50))

    def test_orthogonal_accept_half(self):
        g = rng(11)
        a, b = basis_state(2, 0).density(), basis_state(2, 1).density()
        hits = sum(swap_test(a, b, g) for _ in range(10_000))
        assert abs(hits / 10_000 - 0.5) < 0.02

    def test_maximally_mixed_three_quarters(self):
        g = rng(12)
        m = maximally_mixed(2)
        hits = sum(swap_test(m, m, g) for _ in range(10_000))
        assert abs(hits / 10_000 - 0.75) < 0.02

    def test_law_on_random_pairs(self):
        g = rng(13)
        trials = 10_000
        for _ in range(50):
            d = int(g.integers(2, 9))
            a = qcore.sample_state(d, int(g.integers(1, d + 1)), g)
            b = qcore.sample_state(d, int(g.integers(1, d + 1)), g)
            p = (1 + np.vdot(a.entries, b.entries).real) / 2
            hits = np.count_nonzero(g.random(trials) < p)  # exact-law shortcut
            hits_direct = sum(swap_test(a, b, g) for _ in range(200))
            sigma = np.sqrt(p * (1 - p) / 200) + 1e-6
            assert abs(hits_direct / 200 - p) < 4 * sigma + 0.02
            assert abs(hits / trials - p) < 4 * np.sqrt(p * (1 - p) / trials) + 0.01


class TestBellDifference:
    def test_zero_state_stays_in_z_group(self):
        g = rng(14)
        psi = basis_state(4, 0)  # |00>
        for _ in range(200):
            lab = bell_difference_sample(psi, g)
            assert lab.x == 0  # Z-only group {I, Z}^n

    def test_t_state_matches_convolution(self):
        g = rng(15)
        psi = t_state()
        p = characteristic_distribution(psi)
        q = np.zeros(4)
        for a in range(4):
            for b in range(4):
                q[a ^ b] += p[a] * p[b]
        samples = 100_000
        counts = np.zeros(4)
        for _ in range(samples):
            counts[bell_difference_sample(psi, g, char_dist=p).index] += 1
        tv = 0.5 * np.abs(counts / samples - q).sum()
        assert tv < 0.02

    def test_identity_probability_is_collision(self):
        g = rng(16)
        psi = qcore.sample_pure_state(4, g)
        p = characteristic_distribution(psi)
        target = float((p**2).sum())
        samples = 60_000
        hits = sum(
            bell_difference_sample(psi, g, char_dist=p).index == 0 for _ in range(samples)
        )
        sigma = np.sqrt(target * (1 - target) / samples)
        assert abs(hits / samples - target) < 4 * sigma + 0.01

    def test_random_two_qubit_states_tv(self):
        g = rng(17)
        for _ in range(20):
            psi = qcore.sample_pure_state(4, g)
            p = characteristic_distribution(psi)
            q = np.zeros(16)
            for a in range(16):
                q[a ^ np.arange(16)] += p[a] * p
            counts = np.bincount(bell_difference_labels(p, 100_000, g), minlength=16)
            tv = 0.5 * np.abs(counts / 100_000 - q).sum()
            assert tv < 0.03


class TestPauliMoment:
    def test_eigenstate_deterministic(self):
        g = rng(18)
        psi = basis_state(2, 0)
        z = PauliLabel(1, 0, 1)
        assert all(pauli_moment_sample(psi, z, g) == 1 for _ in range(30))

    def test_x_on_zero_product_mean(self):
        g = rng(19)
        psi = basis_state(2, 0)
        x = PauliLabel(1, 1, 0)
        prods = [2 * pauli_moment_sample(psi, x, g) - 1 for _ in range(10_000)]
        assert abs(np.mean(prods)) < 3 / np.sqrt(10_000) + 0.01

    def test_t_state_product_mean(self):
        g = rng(20)
        psi = t_state()
        x = PauliLabel(1, 1, 0)
        prods = [2 * pauli_moment_sample(psi, x, g) - 1 for _ in range(10_000)]
        assert abs(np.mean(prods) - 0.5) < 3 * np.sqrt(0.75) / np.sqrt(10_000) + 0.01

    def test_unbiased_on_random_pairs(self):
        g = rng(21)
        shots = 4000
        for _ in range(50):
            n = int(g.integers(1, 3))
            psi = qcore.sample_pure_state(2**n, g)
            lab = PauliLabel.from_index(n, int(g.integers(0, 4**n)))
            e = float(pauli_expectations(psi)[lab.index])
            prods = [
                2 * pauli_moment_sample(psi, lab, g, expectation=e) - 1 for _ in range(shots)
            ]
            sigma = np.sqrt(max(1 - e**4, 1e-4) / shots)
            assert abs(np.mean(prods) - e**2) < 4 * sigma + 0.02


def _reference_bell_difference_sample(psi, rng, char_dist=None):
    """The scalar Bell-difference draw that ``bell_difference_labels`` replaced."""
    n = num_qubits(psi)
    p = characteristic_distribution(psi) if char_dist is None else char_dist
    a1, a2 = rng.choice(p.size, size=2, p=p)
    return PauliLabel.from_index(n, int(a1) ^ int(a2))


def _reference_pauli_moment_sample(psi, label, rng, expectation=None):
    """The scalar Pauli-moment draw that ``pauli_moment_bits`` replaced."""
    if expectation is None:
        expectation = float(pauli_expectations(psi)[label.index])
    p_plus = (1.0 + expectation) / 2.0
    z1 = 1 if rng.random() < p_plus else -1
    z2 = 1 if rng.random() < p_plus else -1
    return (z1 * z2 + 1) // 2


def _reference_block(p, exps, size, rng):
    """The block draw ``stab_ip.estimate_A3`` made inline: Bell-difference
    labels by ``choice``, then z1 and z2 blocks, as (labels, bits)."""
    idx = rng.choice(p.size, size=(size, 2), p=p)
    labels = idx[:, 0] ^ idx[:, 1]
    p_plus = (1.0 + exps[labels]) / 2.0
    z1 = np.where(rng.random(size) < p_plus, 1.0, -1.0)
    z2 = np.where(rng.random(size) < p_plus, 1.0, -1.0)
    return labels, (z1 * z2 + 1) / 2


class TestBatchedLawsAgainstReferences:
    """The batched laws against the routines they replaced, draw for draw and
    down to the generator's end state."""

    @pytest.mark.parametrize("size", [1, 7, 5000])
    def test_block_draws_match_reference(self, size):
        for seed in range(12):
            n = 1 + seed % 3
            psi = qcore.sample_pure_state(1 << n, rng(900 + seed))
            p, exps = characteristic_distribution(psi), pauli_expectations(psi)
            assert np.array_equal(characteristic_distribution(psi, exps), p)
            a, b = rng(seed), rng(seed)
            want_labels, want_bits = _reference_block(p, exps, size, a)
            labels = bell_difference_labels(p, size, b)
            bits = pauli_moment_bits(exps[labels], b)
            assert np.array_equal(labels, want_labels)
            assert np.array_equal(bits, want_bits)
            assert a.bit_generator.state == b.bit_generator.state

    def test_scalar_bell_matches_reference(self):
        for seed in range(200):
            n = 1 + seed % 3
            psi = qcore.sample_pure_state(1 << n, rng(1000 + seed))
            p = characteristic_distribution(psi) if seed % 2 else None
            a, b = rng(seed), rng(seed)
            for _ in range(3):
                want = _reference_bell_difference_sample(psi, a, char_dist=p)
                assert bell_difference_sample(psi, b, char_dist=p) == want
            assert a.bit_generator.state == b.bit_generator.state

    def test_scalar_moment_matches_reference(self):
        for seed in range(200):
            n = 1 + seed % 3
            psi = qcore.sample_pure_state(1 << n, rng(1200 + seed))
            lab = PauliLabel.from_index(n, seed % (4**n))
            e = float(pauli_expectations(psi)[lab.index]) if seed % 2 else None
            a, b = rng(seed), rng(seed)
            for _ in range(3):
                want = _reference_pauli_moment_sample(psi, lab, a, expectation=e)
                got = pauli_moment_sample(psi, lab, b, expectation=e)
                assert got == want and type(got) is int
            assert a.bit_generator.state == b.bit_generator.state

    def test_labels_reject_negative_entry(self):
        p = np.array([0.6, -0.1, 0.5])
        with pytest.raises(InvariantError, match="negative"):
            bell_difference_labels(p, 4, rng(0))

    @pytest.mark.parametrize("total", [0.9, 1.0 + 1e-6, np.nan])
    def test_labels_reject_off_sum(self, total):
        p = np.full(4, total / 4)
        with pytest.raises(InvariantError, match="sums to"):
            bell_difference_labels(p, 4, rng(0))

    def test_characteristic_distribution_of_density_matrices(self):
        g = rng(40)
        for n in (1, 2, 3):
            psi = qcore.sample_pure_state(1 << n, g)
            rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
            assert np.allclose(characteristic_distribution(rho), characteristic_distribution(psi))
        with pytest.raises(InvariantError, match="sums to"):
            characteristic_distribution(maximally_mixed(4).entries)


class TestCliffordSampling:
    def test_determinism(self):
        a = sample_uniform_clifford(2, rng(30)).entries
        b = sample_uniform_clifford(2, rng(30)).entries
        assert np.array_equal(a, b)

    def test_pauli_conjugation_property(self):
        g = rng(31)
        for n in (1, 2, 3):
            for _ in range(10):
                u = sample_uniform_clifford(n, g).entries
                for idx in range(1, 4**n):
                    w = dense_pauli(PauliLabel.from_index(n, idx))
                    m = u @ w @ u.conj().T
                    overlaps = [
                        np.vdot(dense_pauli(PauliLabel.from_index(n, j)), m).real / 2**n
                        for j in range(4**n)
                    ]
                    best = max(abs(o) for o in overlaps)
                    assert abs(best - 1.0) < 1e-9

    def test_symplectic_samples_preserve_form(self):
        g = rng(32)
        for n in (1, 2, 3):
            omega = np.zeros((2 * n, 2 * n), dtype=np.int8)
            for i in range(n):
                omega[2 * i, 2 * i + 1] = omega[2 * i + 1, 2 * i] = 1
            for _ in range(20):
                s = qmeas.sample_symplectic(n, g)
                assert np.array_equal((s @ omega @ s.T) % 2, omega)

    def test_single_qubit_uniform_chi_square(self):
        g = rng(33)
        x_mat, z_mat = dense_pauli(PauliLabel(1, 1, 0)), dense_pauli(PauliLabel(1, 0, 1))
        paulis = [dense_pauli(PauliLabel.from_index(1, j)) for j in range(4)]

        def key(u):
            out = []
            for w in (x_mat, z_mat):
                m = u @ w @ u.conj().T
                for j in range(1, 4):
                    c = np.vdot(paulis[j], m).real / 2
                    if abs(abs(c) - 1) < 1e-9:
                        out.append((j, c > 0))
                        break
            return tuple(out)

        samples = 100_000
        counts = {}
        for _ in range(samples):
            k = key(sample_uniform_clifford(1, g).entries)
            counts[k] = counts.get(k, 0) + 1
        assert len(counts) == 24
        assert chi_square_pvalue(list(counts.values()), [samples / 24] * 24) > 0.01


# The int8 vector sampler that the int form replaced, kept as the reference:
# the same routine, with the sampler renamed.


def _symplectic_inner(v: np.ndarray, w: np.ndarray) -> int:
    t = 0
    for i in range(v.size >> 1):
        t += v[2 * i] * w[2 * i + 1] + w[2 * i] * v[2 * i + 1]
    return t % 2


def _transvection(k: np.ndarray, v: np.ndarray) -> np.ndarray:
    return (v + _symplectic_inner(k, v) * k) % 2


def _int_to_bits(i: int, n: int) -> np.ndarray:
    return np.array([(i >> j) & 1 for j in range(n)], dtype=np.int8)


def _find_transvection(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pair (h1, h2) of transvections with y = Z_h1 Z_h2 x; rows may be zero."""
    nn = x.size
    out = np.zeros((2, nn), dtype=np.int8)
    if np.array_equal(x, y):
        return out
    if _symplectic_inner(x, y) == 1:
        out[0] = (x + y) % 2
        return out
    z = np.zeros(nn, dtype=np.int8)
    for i in range(nn >> 1):
        ii = 2 * i
        if (x[ii] + x[ii + 1]) != 0 and (y[ii] + y[ii + 1]) != 0:
            z[ii] = (x[ii] + y[ii]) % 2
            z[ii + 1] = (x[ii + 1] + y[ii + 1]) % 2
            if z[ii] + z[ii + 1] == 0:
                z[ii + 1] = 1
                if x[ii] != x[ii + 1]:
                    z[ii] = 1
            out[0] = (x + z) % 2
            out[1] = (y + z) % 2
            return out
    for i in range(nn >> 1):
        ii = 2 * i
        if (x[ii] + x[ii + 1]) != 0 and (y[ii] + y[ii + 1]) == 0:
            if x[ii] == x[ii + 1]:
                z[ii + 1] = 1
            else:
                z[ii + 1] = x[ii]
                z[ii] = x[ii + 1]
            break
    for i in range(nn >> 1):
        ii = 2 * i
        if (x[ii] + x[ii + 1]) == 0 and (y[ii] + y[ii + 1]) != 0:
            if y[ii] == y[ii + 1]:
                z[ii + 1] = 1
            else:
                z[ii + 1] = y[ii]
                z[ii] = y[ii + 1]
            break
    out[0] = (x + z) % 2
    out[1] = (y + z) % 2
    return out


def _reference_sample_symplectic(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform 2n x 2n symplectic matrix over GF(2), interleaved (x1,z1,...) layout.

    Per-level uniform sub-indices replace the single canonical index of the
    published construction; the decomposition is a bijection, so uniformity
    is preserved.
    """
    nn = 2 * n
    k = int(rng.integers(1, 1 << nn))
    f1 = _int_to_bits(k, nn)
    e1 = np.zeros(nn, dtype=np.int8)
    e1[0] = 1
    t_pair = _find_transvection(e1, f1)
    bits = rng.integers(0, 2, size=nn - 1).astype(np.int8)
    eprime = e1.copy()
    for j in range(2, nn):
        eprime[j] = bits[j - 1]
    h0 = _transvection(t_pair[0], eprime)
    h0 = _transvection(t_pair[1], h0)
    if bits[0] == 1:
        f1 = np.zeros(nn, dtype=np.int8)
    if n == 1:
        g = np.eye(2, dtype=np.int8)
    else:
        g = np.zeros((nn, nn), dtype=np.int8)
        g[:2, :2] = np.eye(2, dtype=np.int8)
        g[2:, 2:] = _reference_sample_symplectic(n - 1, rng)
    for j in range(nn):
        row = g[j]
        row = _transvection(t_pair[0], row)
        row = _transvection(t_pair[1], row)
        row = _transvection(h0, row)
        row = _transvection(f1, row)
        g[j] = row
    return g


class TestSymplecticAgainstReference:
    @pytest.mark.parametrize("n, seeds", [(1, 2000), (2, 2000), (3, 2000), (4, 300), (5, 300), (6, 300)])
    def test_same_matrix_and_generator_state(self, n, seeds):
        for seed in range(seeds):
            ref_rng, rng_ = rng(seed), rng(seed)
            expected = _reference_sample_symplectic(n, ref_rng)
            got = qmeas.sample_symplectic(n, rng_)
            assert got.dtype == np.int8
            assert np.array_equal(got, expected), (n, seed)
            assert rng_.bit_generator.state == ref_rng.bit_generator.state, (n, seed)

    def test_clifford_cap_draws_nothing(self):
        g = rng(34)
        before = g.bit_generator.state
        with pytest.raises(qcore.DimensionError, match="n = 6"):
            sample_uniform_clifford(7, g)
        with pytest.raises(qcore.DimensionError, match="n = 512"):
            qmeas.sample_symplectic(513, g)
        assert g.bit_generator.state == before

    def test_popcount_table(self):
        for n in (0, 1, 4, 8):
            table = qmeas.popcount_table(n)
            assert table.tolist() == [bin(w).count("1") for w in range(1 << n)]
            assert table is qmeas.popcount_table(n)
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 1


def test_only_qmeas_draws_by_choice():
    """``Generator.choice`` draws belong to qmeas's sampling laws; a module
    that calls ``.choice(`` itself holds a copy of one of them."""
    offenders = []
    for path in sorted(Path(qmeas.__file__).parent.glob("*.py")):
        if path.name == "qmeas.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr == "choice":
                    offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
