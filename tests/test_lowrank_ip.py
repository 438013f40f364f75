"""Low-rank agnostic tomography IP: parameter formulas, sub-estimate
contracts, the check rule, the truncation bound oracles and session batches."""

import math

import numpy as np
import pytest

from ipsim import lowrank_ip, qcore, qmeas
from ipsim.harness import CopyOracle, ProtocolAbort, batch_rates
from ipsim.lowrank_ip import (
    HonestSpectralProver,
    LowRankConfig,
    LowRankConfig,
    delegated_purity_estimate,
    lowrank_check,
    prover_spectral_tomography,
    topk_spectrum_estimate,
    truncation_approx_margin,
    truncation_lower_bound_margin,
    validate_spectral_hypothesis,
    verifier_basis_estimates,
)


def params(eps=0.6, delta=1 / 3, k=1, d=4, **kw):
    return LowRankConfig(epsilon=eps, delta=delta, k=k, d=d, **kw)


class TestParams:
    def test_spec_example_values(self):
        p = params()
        assert p.eps1 == pytest.approx(0.06)
        assert p.eps2 == pytest.approx(0.00375)
        assert p.f == pytest.approx(0.27375)
        assert p.delta_tilde == pytest.approx(1 / 15)

    def test_eps2_halves_in_k(self):
        assert params(k=2).eps2 == pytest.approx(0.001875)

    def test_budgets(self):
        p = params()
        assert p.purity_pairs_budget() == 753
        assert p.topk_budget() == 753
        assert p.basis_shots() == 120_932
        assert p.prover_budget() == math.ceil(16 * math.log(15) / 0.00375**2)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            params(k=5, d=4)
        with pytest.raises(ValueError):
            params(eps=1.2)


class TestSubEstimates:
    def test_ideal_purity_estimate_within_eps1(self):
        p = params()
        rng = np.random.default_rng(0)
        for i in range(30):
            hidden = qcore.sample_state(4, 4, rng)
            oracle = CopyOracle(hidden)
            est = delegated_purity_estimate(oracle, p, np.random.default_rng(i))
            assert abs(est - qcore.purity(hidden)) <= p.eps1
            assert oracle.meter.total == 2 * p.purity_pairs_budget()

    def test_sampled_purity_estimate_with_explicit_pairs(self):
        p = params(mode="sampled")
        hidden = qcore.maximally_mixed(4)
        hits = 0
        for i in range(60):
            oracle = CopyOracle(hidden)
            est = qmeas.swap_purity_estimate(
                oracle.stream(2 * 10_000, "purity-swap"), np.random.default_rng(i)
            )
            assert oracle.meter.total == 2 * 10_000
            if abs(est - 0.25) <= p.eps1:
                hits += 1
        assert hits / 60 >= 1 - p.delta_tilde

    def test_topk_estimate_tv_bound(self):
        p = params(k=2)
        rng = np.random.default_rng(1)
        for i in range(30):
            hidden = qcore.sample_state(4, 4, rng)
            alpha = qcore.eig_sorted(hidden).values[:2]
            oracle = CopyOracle(hidden)
            est = topk_spectrum_estimate(oracle, p, np.random.default_rng(i))
            assert np.abs(est - alpha).sum() <= p.eps1 + 1e-12
            assert oracle.meter.total == p.topk_budget()

    def test_prover_meets_both_conditions(self):
        p = params()
        rng = np.random.default_rng(2)
        for i in range(15):
            hidden = qcore.sample_state(4, 4, rng)
            oracle = CopyOracle(hidden, ideal_access=True)
            u_raw, alpha = prover_spectral_tomography(oracle, p, np.random.default_rng(i))
            hyp = validate_spectral_hypothesis(u_raw, alpha, 4)
            rho_p = hyp.state_matrix()
            true_alpha = qcore.eig_sorted(hidden).values
            dist1 = qcore.schatten_norm(rho_p - hidden.entries, 1)
            dist2 = qcore.schatten_norm(rho_p - hidden.entries, 2)
            u = hyp.u_prime.entries
            proj = u[: p.k].conj().T @ u[: p.k]
            p_val = float(np.real(np.vdot(proj, hidden.entries)))
            lhs = math.sqrt(2 * p.k) * dist2 + 1 - p_val - (1 - true_alpha[: p.k].sum())
            assert dist1 <= p.eps2 + 1e-12
            assert lhs <= p.eps2 + 1e-12

    def test_basis_estimates_pure_state_exact_hypothesis(self):
        p = params()
        rng = np.random.default_rng(3)
        psi = qcore.sample_pure_state(4, rng).density()
        spec = qcore.eig_sorted(psi)
        hyp = validate_spectral_hypothesis(
            spec.basis.entries.conj().T, np.clip(spec.values, 0, 1), 4
        )
        o_hat, p_hat = verifier_basis_estimates(CopyOracle(psi), hyp, p, rng)
        assert o_hat == pytest.approx(1.0, abs=5 * p.eps2)
        assert p_hat == pytest.approx(1.0, abs=5 * p.eps2)

    def test_basis_estimates_maximally_mixed_means(self):
        p = params()
        rng = np.random.default_rng(4)
        mixed = qcore.maximally_mixed(4)
        hyp = validate_spectral_hypothesis(np.eye(4), np.full(4, 0.25), 4)
        o_hat, p_hat = verifier_basis_estimates(CopyOracle(mixed), hyp, p, rng)
        assert o_hat == pytest.approx(0.25, abs=5 * p.eps2)
        assert p_hat == pytest.approx(0.25, abs=5 * p.eps2)


class TestValidation:
    def test_accepts_honest_shape(self):
        hyp = validate_spectral_hypothesis(np.eye(4), np.array([0.6, 0.4, 0.0, 0.0]), 4)
        assert hyp.alpha_prime[0] == 0.6

    def test_rejects_non_unitary(self):
        with pytest.raises(ProtocolAbort):
            validate_spectral_hypothesis(np.eye(4) * 1.01, np.array([1.0, 0, 0, 0]), 4)

    def test_rejects_unsorted(self):
        with pytest.raises(ProtocolAbort):
            validate_spectral_hypothesis(np.eye(4), np.array([0.3, 0.7, 0, 0]), 4)

    def test_rejects_super_unit_sum(self):
        with pytest.raises(ProtocolAbort):
            validate_spectral_hypothesis(np.eye(4), np.array([0.9, 0.4, 0, 0]), 4)


class TestCheckRule:
    def test_exact_pure_case_passes(self):
        p = params()
        assert lowrank_check(1.0, 1.0, 1.0, 1.0, np.array([1.0]), p)

    def test_depressed_overlap_fails(self):
        p = params()
        # o shifted down by 2f makes the lhs sqrt(4kf) > f for f < 4k
        assert not lowrank_check(1.0, 1.0, 1.0 - 2 * p.f, 1.0, np.array([1.0]), p)

    def test_negative_radicand_clamped(self):
        p = params()
        assert lowrank_check(1.0, 1.0, 1.2, 1.0, np.array([1.0]), p)

    def test_output_truncation_values(self):
        hyp = validate_spectral_hypothesis(np.eye(2), np.array([0.6, 0.4]), 2)
        sub = hyp.truncated(1, normalize=False)
        assert np.allclose(sorted(np.linalg.eigvalsh(sub.entries))[::-1], [0.6, 0.0])
        norm = hyp.truncated(1, normalize=True)
        assert np.allclose(sorted(np.linalg.eigvalsh(norm.entries))[::-1], [1.0, 0.0])

    def test_full_k_reconstructs(self):
        rng = np.random.default_rng(5)
        hidden = qcore.sample_state(3, 3, rng)
        spec = qcore.eig_sorted(hidden)
        hyp = validate_spectral_hypothesis(
            spec.basis.entries.conj().T, np.clip(spec.values, 0, 1), 3
        )
        rebuilt = hyp.truncated(3, normalize=False)
        assert np.abs(rebuilt.entries - hidden.entries).max() < 1e-8


class TestTruncationOracles:
    def test_tightness_at_rank_k_truncation(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            d = int(rng.integers(2, 9))
            k = int(rng.integers(1, d + 1))
            rho = qcore.sample_state(d, d, rng)
            a = qcore.truncate_rank_k(rho, k).entries
            assert abs(truncation_lower_bound_margin(rho, a, k, 1)) < 1e-9

    def test_lower_bound_margins_random_psd(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            d = int(rng.integers(2, 9))
            k = int(rng.integers(1, d + 1))
            rho = qcore.sample_state(d, d, rng)
            g = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
            a = g @ g.conj().T
            a = (a + a.conj().T) / 2 / max(1.0, np.trace(a).real)
            for p in (1, 2, np.inf):
                assert truncation_lower_bound_margin(rho, a, k, p) >= -1e-9

    def test_approx_margins_random_sigma(self):
        rng = np.random.default_rng(8)
        from ipsim.tomo_ip import perturbed_state_at_distance

        for _ in range(100):
            d = int(rng.integers(2, 9))
            k = int(rng.integers(1, d + 1))
            rho = qcore.sample_state(d, d, rng)
            eps = 0.3
            sigma = perturbed_state_at_distance(rho, eps, rng)
            for p in (1, 2, np.inf):
                dist = qcore.schatten_norm(sigma.entries - rho.entries, p)
                assert truncation_approx_margin(rho, sigma, k, p, max(dist, 1e-12)) >= -1e-9

    def test_sigma_equals_rho_reduces_to_tail(self):
        rng = np.random.default_rng(9)
        rho = qcore.sample_state(4, 4, rng)
        assert truncation_approx_margin(rho, rho, 2, 1, 0.0) >= -1e-9


class TestSessions:
    def test_honest_completeness(self):
        cfg = LowRankConfig()
        rec, results = batch_rates(
            cfg.run_one,
            cfg.judge,
            lambda r: cfg.sample_instance("x", r),
            HonestSpectralProver(),
            trials=50,
            seed=61,
        )
        assert rec.accept_and_valid / 50 >= 1 - cfg.delta
        assert rec.accept_and_invalid == 0

    def test_malformed_adversaries_abort_deterministically(self):
        cfg = LowRankConfig()
        for name in ("non-unitary-liar", "unsorted-spectrum-liar"):
            rec, _ = batch_rates(
                cfg.run_one,
                cfg.judge,
                lambda r: cfg.sample_instance("x", r),
                lowrank_ip.ADVERSARIES[name](),
                trials=15,
                seed=62,
            )
            assert rec.abort == 15, name

    def test_content_adversaries_never_accept_invalid(self):
        cfg = LowRankConfig()
        for name in ("random-basis-liar", "foreign-spectrum-liar"):
            rec, _ = batch_rates(
                cfg.run_one,
                cfg.judge,
                lambda r: cfg.sample_instance("x", r),
                lowrank_ip.ADVERSARIES[name](),
                trials=40,
                seed=63,
            )
            assert rec.accept_and_invalid / 40 < 1 / 3, name

    def test_state_and_wide_variants(self):
        for variant in ("state", "wide"):
            cfg = LowRankConfig(variant=variant)
            rec, results = batch_rates(
                cfg.run_one,
                cfg.judge,
                lambda r: cfg.sample_instance("x", r),
                HonestSpectralProver(),
                trials=30,
                seed=64,
            )
            assert rec.accept_and_valid / 30 >= 1 - cfg.delta, variant
            for res in results:
                if res.accepted:
                    assert isinstance(res.output, qcore.DensityMatrix)
