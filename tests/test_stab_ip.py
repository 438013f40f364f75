"""Stabilizer-learning IP: exact moment values, loss bounds, enumeration,
brute-force prover, estimator calibration, verdict rule, sessions."""

import gc
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from references import projector_factors

import ipsim
from ipsim import qcore, qmeas, stab_ip
from ipsim.harness import CopyOracle, ProtocolAbort, batch_rates, delegated_measure
from ipsim.stab_ip import (
    STABILIZER_COUNTS,
    HonestBruteForceProver,
    StabConfig,
    all_fidelities,
    brute_force_best_stabilizer,
    enumerate_stabilizers,
    estimate_A3,
    estimate_stab_loss,
    exact_A3,
    optimal_stab_loss,
    stab_bounds,
    stab_verdict,
    validate_candidate,
)


def t_state():
    return qcore.PureState(np.array([1.0, np.exp(1j * np.pi / 4)]) / np.sqrt(2))


class TestExactMoment:
    def test_computational_basis_states(self):
        for n in (1, 2, 3):
            assert exact_A3(qcore.basis_state(1 << n, 0)) == pytest.approx(1.0, abs=1e-12)

    def test_t_state_exact(self):
        assert exact_A3(t_state()) == pytest.approx(0.625, abs=1e-12)

    def test_range_on_haar_states(self):
        rng = np.random.default_rng(0)
        prev_means = []
        for n in (2, 3):
            vals = [exact_A3(qcore.sample_pure_state(1 << n, rng)) for _ in range(30)]
            assert all(0 < v <= 1 for v in vals)
            prev_means.append(np.mean(vals))
        assert prev_means[1] < prev_means[0]  # decreasing with n on average


class TestBounds:
    def test_exact_stabilizer_bounds(self):
        assert stab_bounds(1.0) == (0.0, 0.0)

    def test_t_state_bounds(self):
        ub, lb = stab_bounds(0.625)
        assert ub == pytest.approx(0.5)
        assert lb == pytest.approx(0.07534, abs=1e-4)
        assert ub / lb <= 8

    def test_ratio_bounded_by_8_full_sweep(self):
        for a in np.linspace(0.001, 0.999, 999):
            ub, lb = stab_bounds(a)
            assert ub / lb <= 8 + 1e-9

    def test_sandwich_on_random_states(self):
        rng = np.random.default_rng(1)
        for n in (2, 3):
            for _ in range(40):
                psi = qcore.sample_pure_state(1 << n, rng)
                ub, lb = stab_bounds(exact_A3(psi))
                l_star, _ = optimal_stab_loss(psi)
                assert lb - 1e-9 <= l_star <= ub + 1e-9


# The per-state enumeration the batched one replaced, kept as the reference.


def _reference_symp(n, a, b):
    mask = (1 << n) - 1
    xa, za = a & mask, a >> n
    xb, zb = b & mask, b >> n
    return (bin(xa & zb).count("1") + bin(xb & za).count("1")) & 1


def _reference_subspaces(n):
    frontier = {(0,): []}
    for _level in range(n):
        nxt = {}
        for elements, gens in frontier.items():
            elem_set = set(elements)
            for v in range(1, 1 << (2 * n)):
                if v in elem_set:
                    continue
                if any(_reference_symp(n, v, g) for g in gens):
                    continue
                new_elems = tuple(sorted(elem_set | {e ^ v for e in elements}))
                if new_elems not in nxt:
                    nxt[new_elems] = gens + [v]
        frontier = nxt
    return list(frontier.values())


def _reference_render_dense(n, signed_rows):
    d = 1 << n
    mask = (1 << n) - 1
    proj = np.eye(d, dtype=complex)
    for packed, sign in signed_rows:
        w = qmeas.dense_pauli(qmeas.PauliLabel(n, packed & mask, packed >> n))
        proj = proj @ (np.eye(d) + (-1) ** sign * w) / 2
    norms = np.linalg.norm(proj, axis=0)
    col = int(np.argmax(norms))
    v = proj[:, col] / norms[col]
    k = int(np.argmax(np.abs(v) > 1e-8))
    v = v * (v[k].conj() / abs(v[k]))
    return v


def _reference_generators(n, gens, signs):
    rows = np.zeros((n, 2 * n + 1), dtype=np.int8)
    mask = (1 << n) - 1
    for i, g in enumerate(gens):
        x, z = g & mask, g >> n
        for b in range(n):
            rows[i, b] = (x >> b) & 1
            rows[i, n + b] = (z >> b) & 1
        rows[i, 2 * n] = (signs >> i) & 1
    return rows


def _reference_enumeration(n):
    """(generators, amplitude table) of the per-state enumeration."""
    generators, table = [], []
    for gens in _reference_subspaces(n):
        for signs in range(1 << n):
            generators.append(_reference_generators(n, gens, signs))
            signed_rows = [(g, (signs >> i) & 1) for i, g in enumerate(gens)]
            table.append(_reference_render_dense(n, signed_rows))
    return np.stack(generators), np.stack(table)


# sha256 of the n = 4 generator arrays and amplitude table of the per-state
# enumeration, which takes about 18 s to run
N4_GENERATORS_SHA256 = "d26da0d016a90810d2637cbe93059c7d71bf46bcc6c4cb7b8794e43aef8975c4"
N4_TABLE_SHA256 = "ebc02b157f89c4a5fe6d27f55b4058b32de92fbe2de5d269a9b3f6195bd80166"


@lru_cache(maxsize=None)
def _amplitude_table(n):
    """(num_states, 2^n) dense renderings of ``enumerate_stabilizers(n)``,
    built once per n and read-only."""
    table = np.stack([s.dense.amplitudes for s in enumerate_stabilizers(n)])
    table.setflags(write=False)
    return table


class TestEnumeration:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_counts(self, n):
        assert len(enumerate_stabilizers(n)) == STABILIZER_COUNTS[n]

    def test_count_formula(self):
        for n in (1, 2, 3, 4):
            expected = (1 << n) * math.prod((1 << j) + 1 for j in range(1, n + 1))
            assert STABILIZER_COUNTS[n] == expected

    def test_states_distinct(self):
        tab = _amplitude_table(2)
        overlaps = np.abs(tab.conj() @ tab.T) ** 2
        off = overlaps - np.eye(len(tab))
        assert off.max() < 1 - 1e-9  # no duplicated state

    def test_pairwise_fidelity_spectrum_n2(self):
        tab = _amplitude_table(2)
        vals = np.unique(np.round(np.abs(tab.conj() @ tab.T) ** 2, 9))
        assert set(vals.tolist()) == {0.0, 0.25, 0.5, 1.0}

    def test_dense_is_plus_one_eigenstate_of_generators(self):
        rng = np.random.default_rng(2)
        states = enumerate_stabilizers(2)
        for idx in rng.choice(len(states), size=25, replace=False):
            desc = states[idx]
            amps = desc.dense.amplitudes
            for packed, sign in desc.packed_rows():
                w = qmeas.dense_pauli(qmeas.PauliLabel.from_index(2, packed))
                signed = (-1) ** sign * w
                assert np.abs(signed @ amps - amps).max() < 1e-9

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_reference_enumeration(self, n):
        generators, table = _reference_enumeration(n)
        states = enumerate_stabilizers(n)
        assert np.array_equal(np.stack([s.generators for s in states]), generators)
        assert _amplitude_table(n).tobytes() == table.tobytes()

    def test_n4_matches_pinned_digests(self):
        states = enumerate_stabilizers(4)
        generators = np.stack([s.generators for s in states]).tobytes()
        assert hashlib.sha256(generators).hexdigest() == N4_GENERATORS_SHA256
        table = _amplitude_table(4)
        assert hashlib.sha256(table.tobytes()).hexdigest() == N4_TABLE_SHA256

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_table_rows_are_the_dense_renderings(self, n):
        table = _amplitude_table(n)
        assert table.dtype == complex
        assert table.shape == (STABILIZER_COUNTS[n], 1 << n)
        for desc, row in zip(enumerate_stabilizers(n), table):
            fresh = stab_ip.StabilizerStateDesc(n, desc.generators.copy())
            assert np.array_equal(fresh.dense.amplitudes, row)

    def test_lazy_render_matches_table(self):
        table = _amplitude_table(3)
        for i, desc in enumerate(enumerate_stabilizers(3)[::37]):
            fresh = validate_candidate(desc.generators, 3)
            assert fresh.dense.amplitudes.tobytes() == table[37 * i].tobytes()

    def test_cold_enumeration_renders_nothing(self):
        """A cold n = 4 enumeration keeps generators and descriptions only:
        the 36 720 rendered states alone would take 9.4 MB."""
        code = (
            "import gc, tracemalloc\n"
            "from ipsim import stab_ip\n"
            "tracemalloc.start()\n"
            "stab_ip.enumerate_stabilizers(4)\n"
            "gc.collect()\n"
            "print(tracemalloc.get_traced_memory()[0])\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(ipsim.__file__).parents[1]))
        run = subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True)
        assert int(run.stdout) < 12 << 20

    def test_descriptions_share_one_generator_table(self):
        """The n = 4 descriptions index one shared generator table: an array
        view per state would add about 3.4 MB."""
        stab_ip._maximal_isotropic_subspaces(4)
        tracemalloc.start()
        try:
            states = enumerate_stabilizers.__wrapped__(4)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(states) == STABILIZER_COUNTS[4]
        assert held < 6 << 20

    def test_cold_subspace_search_peak_memory(self):
        """The array passes run over fixed blocks of frontier rows. The Python
        bitmask search they replaced traced a 5.82 MB peak, and unblocked
        passes, with a frontier x 256 candidate array, trace 5.74 MB."""
        stab_ip._commute_masks(4)
        tracemalloc.start()
        try:
            stab_ip._maximal_isotropic_subspaces.__wrapped__(4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 << 20

    def test_states_are_a_sequence(self):
        """A state is described when read, and read again while that
        description is alive it is the same object, as in a tuple."""
        states = enumerate_stabilizers(3)
        last = states[-1]
        assert last is states[len(states) - 1] is states[np.int64(-1)]
        assert not last.generators.flags.writeable
        picked = states[5:50:9]
        assert len(picked) == 5
        for desc, i in zip(picked, range(5, 50, 9)):
            assert np.array_equal(desc.generators, states[i].generators)
        with pytest.raises(IndexError):
            states[len(states)]

    def test_wrong_count_raises_invariant_error(self, monkeypatch):
        monkeypatch.setitem(STABILIZER_COUNTS, 2, 61)
        enumerate_stabilizers.cache_clear()
        with pytest.raises(qcore.InvariantError, match="60 stabilizer states at n = 2, not 61"):
            enumerate_stabilizers(2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_projector_factors_match_reference(self, n):
        factors = stab_ip._projector_factors(n)
        assert factors.tobytes() == projector_factors(n).tobytes() and not factors.flags.writeable

    def test_more_than_four_qubits_rejected(self):
        with pytest.raises(ValueError, match="1..4"):
            enumerate_stabilizers(5)
        with pytest.raises(ValueError, match="1..4"):
            all_fidelities(qcore.basis_state(1 << 5, 0))

    def test_non_bit_entries_rejected(self):
        bad = enumerate_stabilizers(2)[7].generators.copy()
        bad[0, 0] = 2
        with pytest.raises(ProtocolAbort, match="bits"):
            validate_candidate(bad, 2)

    def test_generator_validation(self):
        desc = enumerate_stabilizers(2)[7]
        desc.validate_group()
        bad = desc.generators.copy()
        bad[1] = bad[0]  # dependent rows
        with pytest.raises(ProtocolAbort):
            validate_candidate(bad, 2)


def _extensions(n, gens, elements):
    """The v outside the span ``elements`` that commute with every generator."""
    return [v for v in range(1, 1 << (2 * n)) if v not in elements and not any(_reference_symp(n, v, g) for g in gens)]


def _grown(gens, elements, v):
    """E + <v> as (generators, elements), its new generator the least of the
    coset v + E by brute force."""
    coset = {e ^ v for e in elements}
    return gens + [min(coset)], elements | coset


def _isotropic_subspaces(n):
    """Every isotropic subspace of F_2^{2n} of dimension 1..n once, as
    (generators, elements), each generator the least of its coset over the
    span of the earlier ones."""
    found, level = [], [([], {0})]
    for _dim in range(n):
        grown = {}
        for gens, elements in level:
            for v in _extensions(n, gens, elements):
                child = _grown(gens, elements, v)
                grown.setdefault(frozenset(child[1]), child)
        level = list(grown.values())
        found += level
    return found


class TestCosetMinimumRule:
    """The subspace search keeps v exactly when v is the least of v + E: no
    bit at a generator's top bit (pivot), that is, v < v ^ g for every
    generator g."""

    @staticmethod
    def _check(n, gens, elements):
        pivots = sum(1 << (g.bit_length() - 1) for g in gens)
        assert pivots.bit_count() == len(gens)
        for v in range(1 << (2 * n)):
            least = v == min(v ^ e for e in elements)
            assert (v & pivots == 0) == least
            assert all(v < v ^ g for g in gens) == least

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_isotropic_subspace(self, n):
        subspaces = _isotropic_subspaces(n)
        assert len(subspaces) == {1: 3, 2: 30, 3: 513}[n]
        for gens, elements in subspaces:
            self._check(n, gens, elements)

    def test_seeded_sample_at_n4(self):
        rng = np.random.default_rng(44)
        for _chain in range(24):
            gens, elements = [], {0}
            for _dim in range(4):
                gens, elements = _grown(gens, elements, int(rng.choice(_extensions(4, gens, elements))))
                self._check(4, gens, elements)


def _signed_rows(n, rows):
    """n x (2n+1) generator array of the packed labels ``rows``, every sign +1."""
    out = np.zeros((n, 2 * n + 1), dtype=np.int8)
    for i, packed in enumerate(rows):
        out[i, : 2 * n] = [(packed >> j) & 1 for j in range(2 * n)]
    return out


class TestCandidateRejections:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_anticommuting_rows(self, n):
        """X_0 and Z_0, then Z_2 .. Z_(n-1): independent, but not commuting.
        At n = 1 the one generator row commutes with itself, so no case."""
        rows = [1, 1 << n] + [1 << (n + i) for i in range(2, n)]
        with pytest.raises(ProtocolAbort, match="do not commute"):
            validate_candidate(_signed_rows(n, rows), n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_dependent_rows(self, n):
        """Z_0 .. Z_(n-2), then their product: commuting, but dependent
        (the identity row at n = 1)."""
        rows = [1 << (n + i) for i in range(n - 1)]
        rows.append(sum(rows))
        with pytest.raises(ProtocolAbort, match="not independent"):
            validate_candidate(_signed_rows(n, rows), n)

    @pytest.mark.parametrize("n", [2, 3])
    def test_render_cache_hit_still_aborts(self, n):
        """Dependent rows render to a state, so their bytes can sit in the
        render cache; the candidate is still validated and the session aborts."""
        rows = [1 << (n + i) for i in range(n - 1)]
        bad = _signed_rows(n, rows + [sum(rows)])
        stab_ip.StabilizerStateDesc(n, bad).dense
        hits = stab_ip._rendered.cache_info().hits
        stab_ip.StabilizerStateDesc(n, bad.copy()).dense
        assert stab_ip._rendered.cache_info().hits == hits + 1
        with pytest.raises(ProtocolAbort, match="not independent"):
            validate_candidate(bad, n)

        class CachedLiar(HonestBruteForceProver):
            def produce_candidate(self, oracle_p, cfg, rng):
                return bad.copy()

        cfg = StabConfig(n=n)
        res = cfg.run_one(cfg.sample_instance("x", np.random.default_rng(n)), CachedLiar(), seed=5)
        assert not res.accepted
        assert res.abort_reason.startswith("malformed stabilizer candidate")

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_commute_masks_match_reference(self, n):
        commute = stab_ip._commute_masks(n)
        assert isinstance(commute, tuple) and commute is stab_ip._commute_masks(n)
        labels = range(1 << (2 * n))
        for u in labels:
            assert [(commute[u] >> v) & 1 for v in labels] == [1 - _reference_symp(n, u, v) for v in labels]


def _reference_all_fidelities(psi):
    """The amplitude-table product that ``all_fidelities`` replaced."""
    table = _amplitude_table(qmeas.num_qubits(psi))
    return np.abs(table @ psi.amplitudes.conj()) ** 2


def _fidelity_inputs(n, rng):
    """Haar states, near-stabilizer session instances and enumerated
    stabilizer states."""
    states = enumerate_stabilizers(n)
    cfg = StabConfig(n=n)
    out = [qcore.sample_pure_state(1 << n, rng) for _ in range(8)]
    out += [cfg.sample_instance("x", rng) for _ in range(8)]
    out += [states[int(i)].dense for i in rng.integers(0, len(states), size=8)]
    return out


class TestWalshFidelities:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_amplitude_reference(self, n):
        for psi in _fidelity_inputs(n, np.random.default_rng(60 + n)):
            fids = all_fidelities(psi)
            assert fids.shape == (STABILIZER_COUNTS[n],)
            assert np.abs(fids - _reference_all_fidelities(psi)).max() < 1e-12

    @pytest.mark.parametrize("n", [2, 4])
    def test_alternating_states_keep_their_own_fidelities(self, n):
        """The one-slot cache hands each state its own vector when two states
        take turns, bit for bit the uncached computation's."""
        cfg = StabConfig(n=n)
        rng = np.random.default_rng(80 + n)
        a, b = cfg.sample_instance("x", rng), cfg.sample_instance("x", rng)
        for psi in (a, b, a, a, b, a):
            fids = all_fidelities(psi)
            assert fids.tobytes() == all_fidelities.__wrapped__(psi).tobytes()
            assert np.abs(fids - _reference_all_fidelities(psi)).max() < 1e-12

    @pytest.mark.parametrize("n", [2, 4])
    def test_alternating_states_keep_their_own_best_index(self, n):
        """The best index is cached beside the fidelities, on the same key:
        each state gets the argmax of its own vector, and the judge's loss
        reads that index."""
        cfg = StabConfig(n=n)
        rng = np.random.default_rng(90 + n)
        a, b = cfg.sample_instance("x", rng), cfg.sample_instance("x", rng)
        for psi in (a, b, a, a, b, a):
            best = stab_ip.best_stabilizer_index(psi)
            assert best == int(np.argmax(all_fidelities.__wrapped__(psi)))
            assert optimal_stab_loss(psi) == (float(1.0 - all_fidelities(psi)[best]), best)

    def test_fidelities_read_only(self):
        fids = all_fidelities(StabConfig(n=2).sample_instance("x", np.random.default_rng(8)))
        with pytest.raises(ValueError):
            fids[0] = 1.0

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_argmax_agrees_on_session_instances(self, n):
        cfg = StabConfig(n=n)
        rng = np.random.default_rng(70 + n)
        for _ in range(200):
            psi = cfg.sample_instance("x", rng)
            assert np.argmax(all_fidelities(psi)) == np.argmax(_reference_all_fidelities(psi))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_each_state_has_fidelity_one_with_itself(self, n):
        states = enumerate_stabilizers(n)
        stride = 1 if n < 4 else 7  # 5246 of the 36 720 states at n = 4
        for i in range(0, len(states), stride):
            assert all_fidelities(states[i].dense)[i] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_sign_patterns_of_a_subspace_sum_to_one(self, n):
        """The 2^n states of one subspace form an orthonormal basis."""
        rng = np.random.default_rng(80 + n)
        for psi in _fidelity_inputs(n, rng):
            sums = all_fidelities(psi).reshape(-1, 1 << n).sum(axis=1)
            assert np.abs(sums - 1.0).max() < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_group_index_is_the_dense_generator_products(self, n):
        """Entry k decodes to c_k = +-1 and l_k with c_k W_(l_k) equal to the
        product of the subspace's generators in the bit set k."""
        index = stab_ip.stabilizer_group_index(n)
        assert index.shape == (STABILIZER_COUNTS[n] >> n, 1 << n)
        assert not index.flags.writeable
        assert index.min() >= 0 and index.max() < 2 << (2 * n)
        labels, negative = index % (1 << (2 * n)), index >> (2 * n)
        assert np.all(labels[:, 0] == 0) and not negative[:, 0].any()
        states = enumerate_stabilizers(n)
        step = 1 if n < 4 else 17
        for sub in range(0, len(index), step):
            gens = [p for p, _ in states[sub << n].packed_rows()]
            for k in range(1 << n):
                prod = np.eye(1 << n, dtype=complex)
                for i in range(n):
                    if (k >> i) & 1:
                        prod = prod @ qmeas.dense_pauli(qmeas.PauliLabel.from_index(n, gens[i]))
                c = 1 - 2 * int(negative[sub, k])
                w = qmeas.dense_pauli(qmeas.PauliLabel.from_index(n, int(labels[sub, k])))
                assert np.abs(prod - c * w).max() < 1e-12

    def test_group_index_rejects_anticommuting_generators(self):
        # X and Z on qubit 0 multiply to -i W_Y
        with pytest.raises(qcore.InvariantError, match="commute"):
            stab_ip._group_index(2, [[0b0001, 0b0100]])

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_group_index_read_only(self, n):
        with pytest.raises(ValueError):
            stab_ip.stabilizer_group_index(n)[0, 0] = 0

    def test_tables_stay_small_at_n4(self):
        assert stab_ip.stabilizer_group_index(4).nbytes < 1 << 20


class TestFarthestState:
    def test_first_index_within_tolerance(self):
        fids = np.array([0.5, 1e-13, 0.0, 3e-13, 0.2])
        assert stab_ip.farthest_index(fids) == 1
        assert stab_ip.farthest_index(np.array([0.3, 0.1, 0.2])) == 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_liars_pick_the_first_orthogonal_state(self, n):
        """On exact stabilizer instances both farthest-state provers send the
        first state within 1e-12 of the least reference fidelity."""
        states = enumerate_stabilizers(n)
        rng = np.random.default_rng(90 + n)
        params = StabConfig(epsilon=0.4, delta=1 / 3, n=n)
        for i in rng.integers(0, len(states), size=25):
            psi = states[int(i)].dense
            ref = _reference_all_fidelities(psi)
            first = int(np.flatnonzero(ref <= ref.min() + 1e-12)[0])
            oracle = CopyOracle(psi, ideal_access=True)
            sent = stab_ip.WorstStabilizerLiar().produce_candidate(oracle, params, rng)
            assert np.array_equal(sent, states[first].generators)
            assert stab_ip.TrivialGarbage().solve(oracle, rng) is states[first]


class TestBruteForce:
    def test_stabilizer_input_returns_itself(self):
        rng = np.random.default_rng(3)
        states = enumerate_stabilizers(2)
        psi = states[17].dense
        oracle = CopyOracle(psi, ideal_access=True)
        best = brute_force_best_stabilizer(oracle, StabConfig(epsilon=0.4, delta=1 / 3, n=2), rng)
        assert abs(qcore.fidelity_pure(psi, best.projector()) - 1.0) < 1e-9

    def test_t_state_best_loss(self):
        oracle = CopyOracle(t_state(), ideal_access=True)
        best = brute_force_best_stabilizer(oracle, StabConfig(epsilon=0.4, delta=1 / 3, n=1), np.random.default_rng(0))
        loss = 1 - qcore.fidelity_pure(t_state(), best.projector())
        assert loss == pytest.approx(1 - (2 + math.sqrt(2)) / 4, abs=1e-9)

    def test_random_state_matches_exhaustive_judge(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            psi = qcore.sample_pure_state(4, rng)
            oracle = CopyOracle(psi, ideal_access=True)
            best = brute_force_best_stabilizer(oracle, StabConfig(epsilon=0.4, delta=1 / 3, n=2), rng)
            loss = 1 - qcore.fidelity_pure(psi, best.projector())
            l_star, _ = optimal_stab_loss(psi)
            assert loss == pytest.approx(l_star, abs=1e-9)

    def test_sampled_mode_near_optimal(self):
        p = StabConfig(epsilon=0.4, delta=1 / 3, n=2, mode="sampled")
        rng = np.random.default_rng(5)
        hits = 0
        for i in range(30):
            psi = qcore.sample_pure_state(4, rng)
            oracle = CopyOracle(psi, ideal_access=True)
            best = brute_force_best_stabilizer(oracle, p, np.random.default_rng(i))
            loss = 1 - qcore.fidelity_pure(psi, best.projector())
            l_star, _ = optimal_stab_loss(psi)
            if loss <= l_star + p.eps1:
                hits += 1
        assert hits / 30 >= 1 - p.delta1


class TestEstimators:
    def test_loss_shots_formula(self):
        # spec example: eps2 = 0.1, delta2 = 1/9 -> ceil(ln 18 / 0.02) = 145
        p = StabConfig(epsilon=0.5, delta=1 / 3, n=2)
        assert p.eps2 == pytest.approx(0.1)
        assert p.delta2 == pytest.approx(1 / 9)
        assert p.loss_shots() == 145

    def test_loss_estimate_concentrates(self):
        p = StabConfig(epsilon=0.4, delta=1 / 3, n=2)
        states = enumerate_stabilizers(2)
        psi = states[3].dense
        oracle = CopyOracle(psi)
        l_hat = estimate_stab_loss(oracle, states[3], p.loss_shots(), np.random.default_rng(0))
        assert l_hat <= p.eps2 + 0.05
        assert oracle.meter.total == p.loss_shots()
        # orthogonal candidate: loss near 1
        fids = all_fidelities(psi)
        worst = states[int(np.argmin(fids))]
        l_hat = estimate_stab_loss(CopyOracle(psi), worst, p.loss_shots(), np.random.default_rng(1))
        assert l_hat >= 1 - fids.min() - 0.05

    def test_primitive_estimator_identity_calibration(self):
        """The Bell-difference composition mean equals the exact moment."""
        rng = np.random.default_rng(6)
        for n in (1, 2):
            for _ in range(10):
                psi = qcore.sample_pure_state(1 << n, rng)
                exps = qmeas.pauli_expectations(psi)
                p_char = qmeas.characteristic_distribution(psi)
                q = np.zeros_like(p_char)
                for a in range(p_char.size):
                    q[a ^ np.arange(p_char.size)] += p_char[a] * p_char
                composed_mean = float((q * exps**2).sum())
                assert composed_mean == pytest.approx(exact_A3(psi), abs=1e-12)

    def test_sampled_a3_estimate_concentrates(self):
        p = StabConfig(epsilon=0.4, delta=1 / 3, n=2, mode="sampled")
        hits = 0
        runs = 50
        for i in range(runs):
            rng = np.random.default_rng(700 + i)
            psi = qcore.sample_pure_state(4, rng)
            oracle = CopyOracle(psi, ideal_access=True)
            a_hat = estimate_A3(oracle, p, rng)
            assert oracle.meter.total == 6 * p.a3_samples()
            if abs(a_hat - exact_A3(psi)) <= p.eps3:
                hits += 1
        assert hits / runs >= (1 - p.delta3) - 0.05

    @staticmethod
    def _reference_estimate_A3(oracle_v, params, rng, tamper=None):
        """The sampled moment estimator with the inline copy of the Bell and
        Pauli-moment laws it ran before it called qmeas."""
        samples = params.a3_samples()

        def measurement(states, r):
            exps = qmeas.pauli_expectations(states[0])
            p_char = exps**2 / (1 << params.n)
            p_char = np.clip(p_char, 0, None)
            p_char /= p_char.sum()
            idx = r.choice(p_char.size, size=(samples, 2), p=p_char)
            labels = idx[:, 0] ^ idx[:, 1]
            p_plus = (1.0 + exps[labels]) / 2.0
            z1 = np.where(r.random(samples) < p_plus, 1.0, -1.0)
            z2 = np.where(r.random(samples) < p_plus, 1.0, -1.0)
            return float(np.mean(z1 * z2))

        copies = oracle_v.stream(6 * samples, "a3-bell")
        return delegated_measure(measurement, copies, tamper=tamper, delta=2 * params.delta3, rng=rng)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("tampered", [False, True], ids=["honest", "tamper"])
    def test_sampled_a3_matches_inline_reference(self, n, tampered):
        """Same estimate to the last bit (the tamper sees it before the trap
        check), same meter and same generator end state as the inline law,
        on near-stabilizer and Haar instances."""
        p = StabConfig(epsilon=0.4, delta=1 / 3, n=n, mode="sampled")
        cfg = StabConfig(n=n)
        for seed in range(6):
            g = np.random.default_rng(500 + seed)
            psi = cfg.sample_instance("x", g) if seed % 2 else qcore.sample_pure_state(1 << n, g)
            runs = []
            for estimate in (self._reference_estimate_A3, estimate_A3):
                r = np.random.default_rng(seed)
                oracle = CopyOracle(psi)
                measured = []
                tamper = (lambda a: measured.append(a) or a + 0.5) if tampered else None
                try:
                    outcome = estimate(oracle, p, r, tamper=tamper)
                except ProtocolAbort as err:
                    outcome = str(err)
                runs.append((outcome, measured, oracle.meter.total, r.bit_generator.state))
            assert runs[0] == runs[1]

    def test_ideal_a3_meter(self):
        p = StabConfig(epsilon=0.4, delta=1 / 3, n=2)
        assert p.eps3 == pytest.approx(0.06)
        oracle = CopyOracle(t_state(), ideal_access=True)
        # t-state has n=1; rebuild params accordingly
        p1 = StabConfig(epsilon=0.4, delta=1 / 3, n=1)
        estimate_A3(oracle, p1, np.random.default_rng(0))
        assert oracle.meter.total == 6 * p1.a3_samples()


class TestVerdict:
    def test_trivial_accept(self):
        assert stab_verdict(0.0, 1.0, 0.5)

    def test_bad_loss_rejected(self):
        assert not stab_verdict(1.0, 1.0, 0.4)  # 1 > 0 + 0.24

    def test_zero_moment_accepts_anything(self):
        assert stab_verdict(1.0, 0.0, 0.1)  # u_hat = 1, always accepted


class TestSessions:
    def test_honest_completeness(self):
        cfg = StabConfig()
        rec, results = batch_rates(
            cfg.run_one,
            cfg.judge,
            lambda r: cfg.sample_instance("x", r),
            HonestBruteForceProver(),
            trials=60,
            seed=71,
        )
        assert rec.accept_and_valid / 60 >= 2 / 3
        assert rec.accept_and_invalid == 0

    def test_adversaries(self):
        cfg = StabConfig()
        for name, cls in stab_ip.ADVERSARIES.items():
            rec, _ = batch_rates(
                cfg.run_one,
                cfg.judge,
                lambda r: cfg.sample_instance("x", r),
                cls(),
                trials=40,
                seed=72,
            )
            assert rec.accept_and_invalid / 40 < 1 / 3, name

    @pytest.mark.parametrize("n", [2, 4])
    def test_foreign_best_judged_as_fresh(self, n):
        """A foreign-best trial ranks another state's fidelities between the
        instance's honest ranking and its judging; the judge still reads the
        instance's own."""

        class Recording(stab_ip.ForeignBestLiar):
            def produce_candidate(self, oracle_p, cfg, rng):
                self.sent = super().produce_candidate(oracle_p, cfg, rng)
                return self.sent

        cfg = StabConfig(n=n)
        for i in range(12):
            hidden = cfg.sample_instance("x", np.random.default_rng(300 + i))
            all_fidelities(hidden)
            prover = Recording()
            cfg.run_one(hidden, prover, seed=400 + i)
            output = validate_candidate(prover.sent, n)
            loss = 1.0 - qcore.fidelity_pure(hidden, output.projector())
            ref = _reference_all_fidelities(hidden)
            assert cfg.judge(output, hidden) == (loss <= 8 * (1.0 - ref.max()) + cfg.epsilon + 1e-9)
            assert np.abs(all_fidelities(hidden) - ref).max() < 1e-12

    def test_soundness_chain_on_accepted_runs(self):
        """Accepted runs with in-tolerance estimates satisfy l <= 8 l* + eps."""
        cfg = StabConfig(n=2)
        checked = 0
        for i in range(60):
            rng = np.random.default_rng(7000 + i)
            hidden = cfg.sample_instance("x", rng)
            res = cfg.run_one(hidden, HonestBruteForceProver(), seed=9000 + i)
            if not res.accepted:
                continue
            est = res.extras["estimates"]
            loss = 1 - qcore.fidelity_pure(hidden, res.output.projector())
            l_star, _ = optimal_stab_loss(hidden)
            if abs(est["a_hat"] - exact_A3(hidden)) <= cfg.eps3 and abs(est["l_hat"] - loss) <= cfg.eps2:
                assert loss <= 8 * l_star + cfg.epsilon + 1e-9
                checked += 1
        assert checked >= 30

    def test_sampled_mode_session(self):
        cfg = StabConfig(n=2, mode="sampled")
        res = cfg.run_one(cfg.sample_instance("x", np.random.default_rng(1)), HonestBruteForceProver(), seed=11)
        assert res.accepted

    def test_sampled_session_sends_its_delegated_copies(self):
        """The 6 * a3_samples copies of the delegated Bell sampling go v->p."""
        cfg = StabConfig(n=2, mode="sampled", record_transcript=True)
        res = cfg.run_one(cfg.sample_instance("x", np.random.default_rng(1)), HonestBruteForceProver(), seed=11)
        sent = 6 * cfg.a3_samples()
        assert res.verifier_breakdown["a3-bell"] == sent
        assert res.channel_counters["qudits_v_to_p"] == sent
        assert sum('"qudits"' in line for line in res.transcript_lines) == sent

    def test_sampled_session_reads_only_its_copies(self, monkeypatch):
        """The sampled verifier takes the moment's law from the delegated
        copies, never from the judge's view of the hidden state."""

        def no_peek(self):
            raise AssertionError("the sampled verifier read the hidden state")

        monkeypatch.setattr(CopyOracle, "judge_peek", no_peek)
        cfg = StabConfig(n=2, mode="sampled")
        res = cfg.run_one(cfg.sample_instance("x", np.random.default_rng(1)), HonestBruteForceProver(), seed=11)
        assert res.accepted
        assert np.isfinite(res.extras["estimates"]["a_hat"])
