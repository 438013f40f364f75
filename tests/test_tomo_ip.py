"""Tomography IP: accounting formulas, ideal contract behavior, sampled-mode
tomography and certification, adversaries, rank-k variant."""

import numpy as np
import pytest

from ipsim import cli, qcore, qmeas, tomo_ip
from ipsim.harness import CopyOracle, LiveCopyTracker, batch_rates
from ipsim.lowrank_ip import LowRankConfig
from ipsim.tomo_ip import (
    CLOSE,
    FAR,
    HonestTomographyProver,
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


def _per_basis_tomography(oracle_p, target, d, delta, rng):
    """``tomo_ip._sampled_tomography`` basis by basis: the Haar draws, then a
    stream, a Born table, a multinomial draw and d design rows (one np.outer
    per column) per basis, and one solve."""
    shots = tomo_ip.sampled_tomography_shots(target, d, delta)
    bases = [qcore.sample_haar_unitary(d, rng) for _ in range(3 * d)]
    rows, freqs = [], []
    for u in bases:
        copy_state = oracle_p.stream(shots, "tomography")[0]
        freqs.extend(rng.multinomial(shots, qmeas.basis_probabilities(copy_state, u)) / shots)
        ue = u.entries
        rows.extend(np.outer(ue[:, j], ue[:, j].conj()).conj().reshape(-1) for j in range(d))
    sol, *_ = np.linalg.lstsq(np.array(rows), np.array(freqs), rcond=None)
    return qcore.project_to_density(sol.reshape(d, d))


class TestSampledReference:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
    def test_one_attempt_matches_per_basis_reference(self, d):
        # same hypothesis, meter, generator state and peak of one live copy,
        # at tomo's target and at lowrank's eps2, which runs the same attempt
        targets = [
            (TomoConfig(d=d, mode="sampled").prover_target, TomoConfig().delta_p),
            (LowRankConfig(d=d).eps2, LowRankConfig().delta_tilde),
        ]
        for seed in range(4):
            hidden = qcore.sample_state(d, 1 + seed % d, np.random.default_rng(seed))
            for target, delta in targets:
                runs = []
                for tomography in (tomo_ip._sampled_tomography, _per_basis_tomography):
                    tracker = LiveCopyTracker()
                    oracle, rng = CopyOracle(hidden, tracker=tracker), np.random.default_rng(200 + seed)
                    hyp = tomography(oracle, target, d, delta, rng)
                    runs.append((hyp.entries, oracle.meter.by_kind, rng.bit_generator.state, tracker.peak))
                (new, meter, state, peak), (ref, *ref_rest) = runs
                assert np.array_equal(new, ref)
                assert [meter, state, peak] == ref_rest
                assert meter == {"tomography": 3 * d * tomo_ip.sampled_tomography_shots(target, d, delta)}
                assert peak == 1


class TestShotBound:
    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_frame_factor_within_its_bound(self, d):
        # step 3 of sampled_tomography_shots: over Haar bases, the mean of
        # E||X - rho||_2^2 given the bases, in units of (d+1)^2 (d-1) / (d N),
        # is at most 3(d-1)/(2d-3), at the maximally mixed state and at
        # random pure and rank-2 states
        g = np.random.default_rng(40 + d)
        states = [qcore.maximally_mixed(d), qcore.sample_state(d, 1, g), qcore.sample_state(d, 2, g)]
        factors = np.empty((len(states), 200))
        for t in range(factors.shape[1]):
            bases = qcore.sample_haar_unitaries(3 * d, d, g)
            cols = bases.swapaxes(1, 2)
            a = (cols[:, :, :, None] * cols[:, :, None, :].conj()).conj().reshape(-1, d * d)
            pinv = np.linalg.solve(a.conj().T @ a, a.conj().T)  # the solve's map from frequencies to X
            # the columns of the solve, by basis: (d^2, 3d, d)
            by_basis = pinv.reshape(d * d, 3 * d, d)
            col_norms = (np.abs(by_basis) ** 2).sum(axis=0)
            for i, rho in enumerate(states):
                # tr[pinv cov pinv^+] at one shot per basis, cov = diag(p) - p p^T in each basis
                p = qmeas.basis_probabilities(rho.entries, bases)
                variance = (col_norms * p).sum() - (np.abs(np.einsum("xbj,bj->xb", by_basis, p)) ** 2).sum()
                factors[i, t] = variance * 3 * d * d / ((d + 1) ** 2 * (d - 1))
        assert (factors.mean(axis=1) <= 3 * (d - 1) / (2 * d - 3)).all()
        assert factors.mean(axis=1).argmax() == 0  # the maximally mixed state is the worst

    @pytest.mark.parametrize(
        "cfg",
        [
            TomoConfig(d=2, mode="sampled"),
            TomoConfig(d=4, mode="sampled"),
            LowRankConfig(d=2, mode="sampled"),
            LowRankConfig(d=4, mode="sampled"),
            LowRankConfig(d=4, mode="sampled", variant="wide"),
        ],
        ids=["tomo-d2", "tomo-d4", "lowrank-d2", "lowrank-d4", "lowrank-wide"],
    )
    def test_meter_equals_closed_form(self, cfg):
        budget = cfg.formula()["prover_budget"]
        _, results = batch_rates(
            cfg.run_one, cfg.judge, lambda r: cfg.sample_instance("learning", r), cfg.make_prover("honest"), 6, 17
        )
        for res in results:
            assert res.prover_breakdown == {"tomography": budget}
            assert res.prover_queries == budget

    def test_shots_closed_form(self):
        # m = ceil((d-1)^2 (d+1)^2 / (d (2d-3) delta target^2)); sampled tomo at
        # d = 4 (target 0.125, delta_p = 1/6) and a case with round numbers
        assert tomo_ip.sampled_tomography_shots(0.125, 4, 1 / 6) == 4320
        assert TomoConfig(d=4, mode="sampled").prover_query_budget() == 12 * 4320
        assert tomo_ip.sampled_tomography_shots(0.5, 2, 0.5) == 36


# honest sampled sessions through the CLI's runner, 40 trials at seed 7
CENSUS = [
    ("tomo", {"d": 2}),
    ("tomo", {"d": 4}),
    ("tomo", {"d": 8}),
    ("lowrank", {"d": 2}),
    ("lowrank", {"d": 3}),
    ("lowrank", {"d": 4}),
    ("lowrank", {"d": 4, "k": 2}),
    ("lowrank", {"variant": "wide"}),
    ("lowrank", {"variant": "state"}),
]
CERTIFICATION_ABORTS = {"certification returned far", "rank-k certification inequality failed"}


class TestSampledCensus:
    @pytest.mark.parametrize(
        ("protocol", "keys"), CENSUS, ids=[f"{p}-" + "-".join(f"{k}{v}" for k, v in keys.items()) for p, keys in CENSUS]
    )
    def test_honest_completeness(self, protocol, keys):
        delta = cli.PROTOCOLS[protocol](mode="sampled", **keys).delta
        report, results = cli.run_experiment(
            cli.ExperimentConfig(protocol, trials=40, seed=7, mode="sampled", protocol_keys=keys)
        )
        accepted_valid = report.rates["accept_and_valid"]
        assert accepted_valid["wilson95"][1] >= 1 - delta, accepted_valid["count"]
        # every abort is the verifier's certification; none is the tomography's
        assert {res.abort_reason for res in results if not res.accepted} <= CERTIFICATION_ABORTS


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
