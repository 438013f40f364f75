"""Tomography IP: accounting formulas, ideal contract behavior, sampled-mode
tomography and certification, adversaries, rank-k variant."""

import numpy as np
import pytest

from ipsim import qcore, qmeas, tomo_ip
from ipsim.harness import CopyOracle, LiveCopyTracker, batch_rates
from ipsim.tomo_ip import (
    CLOSE,
    FAR,
    HonestTomographyProver,
    TomoConfig,
    TomoConfig,
    certify_closeness,
    perturbed_state_at_distance,
    prover_tomography,
    validate_hypothesis,
)
from ipsim.harness import ProtocolAbort


class TestParams:
    def test_accounting_formulas_frozen(self):
        p = TomoConfig(epsilon=0.5, delta=1 / 3, d=4)
        # ceil(16 ln6 / 0.495^2): exact value 117.0009... -> 118
        assert p.prover_query_budget() == 118
        assert p.verifier_query_budget() == 29

    def test_verifier_budget_linear_in_d(self):
        for d in (2, 4, 8, 16):
            a = TomoConfig(epsilon=0.5, delta=1 / 3, d=d).verifier_query_budget()
            b = TomoConfig(epsilon=0.5, delta=1 / 3, d=2 * d).verifier_query_budget()
            assert abs(b - 2 * a) <= 1  # factor 2 within rounding

    def test_prover_budget_quadratic_in_d(self):
        for d in (2, 4, 8):
            a = TomoConfig(epsilon=0.5, delta=1 / 3, d=d).prover_query_budget()
            b = TomoConfig(epsilon=0.5, delta=1 / 3, d=2 * d).prover_query_budget()
            assert abs(b - 4 * a) <= 3

    def test_verifier_cheaper_than_prover(self):
        for d in (2, 4, 8, 16):
            p = TomoConfig(epsilon=0.5, delta=1 / 3, d=d)
            assert p.verifier_query_budget() < p.prover_query_budget()

    def test_rank_k_budgets(self):
        p = TomoConfig(epsilon=0.5, delta=1 / 3, d=8, rank_k=2)
        import math

        assert p.prover_query_budget() == math.ceil(2 * 8 * math.log(6) / (0.99 * 0.5) ** 2)
        assert p.verifier_query_budget() == math.ceil(2 * math.log(6) / 0.5**2)


class TestIdealProver:
    def test_distance_bound_holds_exactly(self):
        rng = np.random.default_rng(0)
        p = TomoConfig(epsilon=0.4, delta=1 / 3, d=4)
        for i in range(25):
            hidden = qcore.sample_state(4, int(rng.integers(1, 5)), rng)
            oracle = CopyOracle(hidden, ideal_access=True)
            hyp = prover_tomography(oracle, p, np.random.default_rng(i))
            assert qcore.one_norm_distance(hyp, hidden) <= p.prover_target + 1e-9
            assert oracle.meter.total == p.prover_query_budget()

    def test_maximally_mixed_target(self):
        p = TomoConfig(epsilon=0.2, delta=1 / 3, d=4)
        oracle = CopyOracle(qcore.maximally_mixed(4), ideal_access=True)
        hyp = prover_tomography(oracle, p, np.random.default_rng(3))
        assert qcore.one_norm_distance(hyp, qcore.maximally_mixed(4)) <= 0.99 * 0.2


class TestExactOffset:
    def test_offset_hits_target_distance(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            rho = qcore.sample_state(4, 4, rng)
            off = perturbed_state_at_distance(rho, 0.75, rng, exact=True)
            assert qcore.one_norm_distance(off, rho) == pytest.approx(0.75, abs=1e-6)


class TestCertify:
    def test_exact_hypothesis_mostly_close(self):
        rng = np.random.default_rng(2)
        p = TomoConfig(epsilon=0.5, delta=1 / 3, d=4)
        hidden = qcore.sample_state(4, 4, rng)
        hyp = validate_hypothesis(hidden.entries, 4)
        hits = sum(
            certify_closeness(CopyOracle(hidden), hyp, p, np.random.default_rng(i)) == CLOSE
            for i in range(300)
        )
        assert hits / 300 >= 1 - p.delta_v - 0.07

    def test_far_hypothesis_mostly_far(self):
        rng = np.random.default_rng(3)
        p = TomoConfig(epsilon=0.5, delta=1 / 3, d=4)
        hidden = qcore.sample_state(4, 4, rng)
        far = perturbed_state_at_distance(hidden, 1.5 * p.epsilon, rng, exact=True)
        hyp = validate_hypothesis(far.entries, 4)
        fars = sum(
            certify_closeness(CopyOracle(hidden), hyp, p, np.random.default_rng(i)) == FAR
            for i in range(300)
        )
        assert fars / 300 >= 1 - p.delta_v - 0.07

    def test_malformed_hypothesis_aborts_before_certification(self):
        with pytest.raises(ProtocolAbort):
            validate_hypothesis(np.eye(4) * 0.5, 4)  # trace 2
        with pytest.raises(ProtocolAbort):
            validate_hypothesis(np.array([[0.5, 0.3], [0.1, 0.5]]), 2)  # not hermitian


class TestSampledMode:
    def test_sampled_prover_meets_target_on_pure_states(self):
        p = TomoConfig(epsilon=0.8, delta=1 / 3, d=2, mode="sampled")
        hits = 0
        runs = 60
        for i in range(runs):
            rng = np.random.default_rng(100 + i)
            hidden = qcore.sample_pure_state(2, rng).density()
            oracle = CopyOracle(hidden, ideal_access=True)
            hyp = prover_tomography(oracle, p, rng)
            if qcore.one_norm_distance(hyp, hidden) <= p.prover_target:
                hits += 1
        assert hits / runs >= 1 - p.delta_p

    def test_sampled_certify_both_sides(self):
        p = TomoConfig(epsilon=0.8, delta=1 / 3, d=2, mode="sampled")
        rng = np.random.default_rng(7)
        hidden = qcore.sample_pure_state(2, rng).density()
        exact_hyp = validate_hypothesis(hidden.entries, 2)
        close_hits = sum(
            certify_closeness(CopyOracle(hidden), exact_hyp, p, np.random.default_rng(i)) == CLOSE
            for i in range(20)
        )
        assert close_hits >= 16
        far_state = perturbed_state_at_distance(hidden, 1.2 * p.epsilon, rng, exact=True)
        far_hyp = validate_hypothesis(far_state.entries, 2)
        far_hits = sum(
            certify_closeness(CopyOracle(hidden), far_hyp, p, np.random.default_rng(i)) == FAR
            for i in range(20)
        )
        assert far_hits >= 16


def _reference_linear_inversion(bases, freqs, d):
    """Per-basis design matrix, one np.outer per basis column."""
    rows, y = [], []
    for u, f in zip(bases, freqs):
        ue = u.entries
        for j in range(d):
            e = np.outer(ue[:, j], ue[:, j].conj())
            rows.append(e.conj().reshape(-1))
            y.append(f[j])
    sol, *_ = np.linalg.lstsq(np.array(rows), np.array(y), rcond=None)
    return qcore.project_to_density(sol.reshape(d, d))


def _reference_sampled_tomography(oracle_p, params, rng):
    """The per-basis prover: a Haar draw, a Born table and a design matrix
    per basis, and one design matrix per solve."""
    target = params.prover_target
    d = params.d
    n_bases = 3 * d
    shots = max(64, 8 * d)
    for _ in range(14):
        bases = [qcore.sample_haar_unitary(d, rng) for _ in range(n_bases)]
        halves, all_freqs = [], []
        for half in range(2):
            freqs = []
            for u in bases:
                copy_state = oracle_p.stream(shots, "tomography")[0]
                probs = qmeas.basis_probabilities(copy_state, u)
                freqs.append(rng.multinomial(shots, probs) / shots)
            halves.append(_reference_linear_inversion(bases, freqs, d))
            all_freqs.extend(freqs)
        if qcore.one_norm_distance(halves[0], halves[1]) * 0.9 <= target:
            return _reference_linear_inversion(bases + bases, all_freqs, d)
        shots *= 2
    raise ProtocolAbort("sampled tomography failed to certify its target")


class TestSampledReference:
    # at d = 8 the two-column solve of the halves rounds differently from
    # two one-column solves; the hypothesis and the draws must not move
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
    def test_batched_prover_matches_reference_draw_for_draw(self, d):
        p = TomoConfig(epsilon=0.5, delta=1 / 3, d=d, mode="sampled")
        attempts = []
        for seed in range(6):
            hidden = qcore.sample_state(d, 1 + seed % d, np.random.default_rng(seed))
            runs = []
            for prover in (prover_tomography, _reference_sampled_tomography):
                oracle, rng = CopyOracle(hidden), np.random.default_rng(100 + seed)
                hyp = prover(oracle, p, rng)
                runs.append((hyp.entries, oracle.meter.by_kind, rng.bit_generator.state))
            (new, new_meter, new_state), (ref, ref_meter, ref_state) = runs
            assert np.array_equal(new, ref)
            assert new_meter == ref_meter
            assert new_state == ref_state
            # copies per attempt are 2 * 3d * shots, and shots double
            per_first = 6 * d * max(64, 8 * d)
            attempts.append(int(np.log2(new_meter["tomography"] // per_first + 1)))
        assert max(attempts) >= 2  # sessions that double their shots are covered


def _per_basis_stream_tomography(oracle_p, target, d, rng):
    """``tomo_ip._sampled_tomography`` with one stream and one multinomial
    draw per basis and half: the loop its one stream and one draw replaced."""
    n_bases = 3 * d
    shots = max(64, 8 * d)
    for _ in range(14):
        bases = qcore.sample_haar_unitaries(n_bases, d, rng)
        # design-matrix row (b, j) is the flattened conjugate of the
        # projector onto column j of basis b, so row . vec(rho) = p_bj
        cols = bases.swapaxes(1, 2)
        a = (cols[:, :, :, None] * cols[:, :, None, :].conj()).conj().reshape(-1, d * d)
        freqs = np.empty((2, n_bases, d))
        probs = None
        for half in range(2):
            for b in range(n_bases):
                copy_state = oracle_p.stream(shots, "tomography")[0]
                if probs is None:
                    # every copy has the hidden state's one description, so
                    # one table of Born probabilities serves the attempt
                    probs = qmeas.basis_probabilities(copy_state, bases)
                freqs[half, b] = rng.multinomial(shots, probs[b]) / shots
        freqs = freqs.reshape(2, -1)
        # both halves in one solve; its last bits can differ from those of two
        # one-column solves, but only the test below reads the halves
        sols, *_ = np.linalg.lstsq(a, freqs.T, rcond=None)
        halves = [qcore.project_to_density(sol.reshape(d, d)) for sol in sols.T]
        split_dist = qcore.one_norm_distance(halves[0], halves[1])
        # split halves are independent estimates, so their gap is roughly
        # twice the pooled error; certify with a safety margin
        if split_dist * 0.9 <= target:
            pooled, *_ = np.linalg.lstsq(np.vstack([a, a]), freqs.reshape(-1), rcond=None)
            return qcore.project_to_density(pooled.reshape(d, d))
        shots *= 2
    raise ProtocolAbort("sampled tomography failed to certify its target")


class TestOneStream:
    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_one_stream_matches_per_basis_loop(self, d):
        # same hypothesis, meter, generator state and peak of one live copy;
        # sampled lowrank runs the same function at its own target
        attempts = []
        for seed in range(6):
            hidden = qcore.sample_state(d, 1 + seed % d, np.random.default_rng(seed))
            for target in (TomoConfig(d=d, mode="sampled").prover_target, 0.1):
                runs = []
                for tomography in (tomo_ip._sampled_tomography, _per_basis_stream_tomography):
                    tracker = LiveCopyTracker()
                    oracle, rng = CopyOracle(hidden, tracker=tracker), np.random.default_rng(200 + seed)
                    hyp = tomography(oracle, target, d, rng)
                    runs.append((hyp.entries, oracle.meter.by_kind, rng.bit_generator.state, tracker.peak))
                (new, new_meter, new_state, new_peak), (ref, *ref_rest) = runs
                assert np.array_equal(new, ref)
                assert [new_meter, new_state, new_peak] == ref_rest and new_peak == 1
                # copies per attempt are 2 * 3d * shots, and shots double
                attempts.append(int(np.log2(new_meter["tomography"] // (6 * d * max(64, 8 * d)) + 1)))
        assert max(attempts) >= 2  # attempts that double their shots are covered


class TestSessions:
    def test_honest_completeness_small_batch(self):
        cfg = TomoConfig()
        rec, _ = batch_rates(
            cfg.run_one,
            cfg.judge,
            lambda r: cfg.sample_instance("learning", r),
            HonestTomographyProver(),
            trials=60,
            seed=11,
        )
        assert rec.accept_and_valid / 60 >= 2 / 3
        assert rec.accept_and_invalid == 0

    def test_adversaries_small_batch(self):
        cfg = TomoConfig()
        for name, cls in tomo_ip.ADVERSARIES.items():
            rec, _ = batch_rates(
                cfg.run_one,
                cfg.judge,
                lambda r: cfg.sample_instance("learning", r),
                cls(),
                trials=40,
                seed=13,
            )
            assert rec.accept_and_invalid / 40 < 1 / 3, name

    def test_rank_k_session(self):
        cfg = TomoConfig(d=4, rank_k=2)
        rng = np.random.default_rng(5)
        hidden = cfg.sample_instance("learning", rng)
        assert np.linalg.matrix_rank(hidden.entries, tol=1e-9) <= 2
        res = cfg.run_one(hidden, HonestTomographyProver(), seed=19)
        assert res.prover_queries == cfg.prover_query_budget()
        assert res.verifier_queries == cfg.verifier_query_budget()
