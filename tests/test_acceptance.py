"""Acceptance suite: one test per criterion, each printing a pass line.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every expected constant below was computed with an independent
oracle (direct formula evaluation, brute-force enumeration, exhaustive
judges) before being frozen here.
"""

import math
import time

import numpy as np
import pytest

from ipsim import lowrank_ip, purity_ip, qcore, qmeas, stab_ip, stream_ip, tomo_ip
from ipsim.harness import CopyOracle, NogoDistinguisher, batch_rates, derive_rng


def _report(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


# ---------------------------------------------------------------------------
# 1. Purity IP
# ---------------------------------------------------------------------------


class TestCriterion1Purity:
    def test_criterion_1(self):
        t0 = time.time()
        params = purity_ip.PurityConfig(delta=1 / 3, d=8)
        assert params.N == 209
        assert params.m == 26

        cfg = purity_ip.PurityConfig(d=8)
        honest = purity_ip.HonestSwapProver()
        # completeness on both instance types, 200 sessions each
        for which in ("accept", "reject"):
            rec, results = batch_rates(
                cfg.run_one,
                cfg.judge,
                lambda r, w=which: cfg.sample_instance(w, r),
                honest,
                trials=200,
                seed=101,
            )
            assert rec.accept_and_valid / 200 >= 2 / 3, which
            for res in results:
                assert res.verifier_queries == params.m * res.extras["compute_rounds"]
                assert res.peak_live_copies <= 1
        # each adversary: accept-and-wrong < 1/3 on both instance types mixed
        for name, cls in purity_ip.ADVERSARIES.items():
            rec, results = batch_rates(
                cfg.run_one,
                cfg.judge,
                lambda r: cfg.sample_instance("accept" if r.random() < 0.5 else "reject", r),
                cls(),
                trials=200,
                seed=103,
            )
            assert rec.accept_and_invalid / 200 < 1 / 3, name
            for res in results:
                assert res.verifier_queries == params.m * res.extras["compute_rounds"]
        # compute-round structure identical across d under shared kind seeds
        for kind_seed in (11, 12, 13, 14, 15):
            signature = set()
            for d in (2, 4, 8, 16):
                c = purity_ip.PurityConfig(d=d, kind_seed=kind_seed)
                res = c.run_one(qcore.maximally_mixed(d), honest, seed=55)
                assert res.verifier_queries == c.m * res.extras["compute_rounds"]
                signature.add(res.extras["compute_rounds"])
            assert len(signature) == 1
        dt = time.time() - t0
        assert dt < 300
        _report(1, f"purity IP: N=209 m=26, completeness/soundness at 200 sessions ({dt:.0f}s)")


# ---------------------------------------------------------------------------
# 2. No-go distinguisher transformation
# ---------------------------------------------------------------------------


class TestCriterion2Nogo:
    def test_criterion_2(self):
        t0 = time.time()
        delta = 1 / 3
        cfg = purity_ip.PurityConfig(d=8, delta=delta)
        task = cfg.task()
        dist = NogoDistinguisher(task, cfg.run_one, purity_ip.HonestSwapProver())
        trials = 400
        floor = 1 - delta - 0.05
        for which, want in (("accept", "accept"), ("reject", "reject")):
            ok = 0
            for t in range(trials):
                rng = derive_rng(201, which, t)
                hidden = cfg.sample_instance(which, rng)
                seed = int(derive_rng(202, which, t).integers(0, 2**63 - 1))
                answer, _ = dist.run(hidden, seed)
                ok += answer == want
            assert ok / trials >= floor, (which, ok / trials)
        # meter identity against the directly-run wrapped verifier
        for t in range(10):
            hidden = cfg.sample_instance("reject", derive_rng(203, t))
            seed = 7000 + t
            _, res_d = dist.run(hidden, seed)
            res_direct = cfg.run_one(
                hidden, purity_ip.HonestSwapProver(), seed, prover_hidden=task.accept_instance
            )
            assert res_d.verifier_queries == res_direct.verifier_queries
        # the classical-channel-compatible protocol (uniformity) also admits
        # the transformation; mechanics scale
        ucfg = stream_ip.UniformityConfig(k=256, epsilon=0.9, allow_small_epsilon=True)
        utask = ucfg.task()

        def urunner(hidden, prover, seed, prover_hidden=None):
            return ucfg.run_one(hidden, stream_ip.HonestStreamProver(), seed, prover_hidden)

        udist = NogoDistinguisher(utask, urunner, stream_ip.HonestStreamProver())
        for which, want in (("uniform", "accept"), ("support_fraction", "reject")):
            ok = 0
            for t in range(400):
                answer, _ = udist.run(ucfg.make_distribution(which), seed=8000 + t)
                ok += answer == want
            assert ok / 400 >= floor, which
        dt = time.time() - t0
        assert dt < 300
        _report(2, f"no-go distinguisher >= {floor:.3f} success both sides at 400 trials ({dt:.0f}s)")


# ---------------------------------------------------------------------------
# 3. Tomography IP
# ---------------------------------------------------------------------------


class TestCriterion3Tomo:
    def test_criterion_3(self):
        t0 = time.time()
        cfg = tomo_ip.TomoConfig(d=4, epsilon=0.5, delta=1 / 3, mode="ideal")
        rec, results = batch_rates(
            cfg.run_one,
            cfg.judge,
            lambda r: cfg.sample_instance("learning", r),
            tomo_ip.HonestTomographyProver(),
            trials=200,
            seed=301,
        )
        assert rec.accept_and_valid / 200 >= 2 / 3
        for name, cls in tomo_ip.ADVERSARIES.items():
            rec, _ = batch_rates(
                cfg.run_one,
                cfg.judge,
                lambda r: cfg.sample_instance("learning", r),
                cls(),
                trials=200,
                seed=303,
            )
            assert rec.accept_and_invalid / 200 < 1 / 3, name
        # accounting scaling: verifier linear in d, prover quadratic
        for d in (2, 4, 8, 16):
            a = tomo_ip.TomoConfig(epsilon=0.5, delta=1 / 3, d=d)
            b = tomo_ip.TomoConfig(epsilon=0.5, delta=1 / 3, d=2 * d)
            assert abs(b.verifier_query_budget() - 2 * a.verifier_query_budget()) <= 1
            assert abs(b.prover_query_budget() - 4 * a.prover_query_budget()) <= 3
        dt = time.time() - t0
        assert dt < 120
        _report(3, f"tomography IP completeness/soundness and d-scaling ({dt:.0f}s)")


# ---------------------------------------------------------------------------
# 4. Lemma suites (unitarily invariant norms, rank-k truncation bounds)
# ---------------------------------------------------------------------------


class TestCriterion4Lemmas:
    def test_criterion_4(self):
        t0 = time.time()
        rng = np.random.default_rng(401)
        # Mirsky-style singular-value bound, 1000 random Hermitian pairs
        for _ in range(1000):
            d = int(rng.integers(2, 9))
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            a, b = (a + a.conj().T) / 2, (b + b.conj().T) / 2
            sva = np.sort(np.linalg.svd(a, compute_uv=False))[::-1]
            svb = np.sort(np.linalg.svd(b, compute_uv=False))[::-1]
            for p in (1, 2, np.inf):
                margin = qcore.schatten_norm(a - b, p) - qcore.schatten_norm(
                    np.diag(sva - svb).astype(complex), p
                )
                assert margin >= -1e-9
        # rank-k truncation bounds, 1000 instances each form
        for _ in range(1000):
            d = int(rng.integers(2, 9))
            k = int(rng.integers(1, d + 1))
            rho = qcore.sample_state(d, d, rng)
            g = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
            a_psd = g @ g.conj().T
            a_psd = (a_psd + a_psd.conj().T) / 2 / max(1.0, np.trace(a_psd).real)
            for p in (1, 2, np.inf):
                assert lowrank_ip.truncation_lower_bound_margin(rho, a_psd, k, p) >= -1e-9
        from ipsim.tomo_ip import perturbed_state_at_distance

        for _ in range(1000):
            d = int(rng.integers(2, 9))
            k = int(rng.integers(1, d + 1))
            rho = qcore.sample_state(d, d, rng)
            sigma = perturbed_state_at_distance(rho, 0.4, rng)
            for p in (1, 2, np.inf):
                eps_p = qcore.schatten_norm(sigma.entries - rho.entries, p)
                margin = lowrank_ip.truncation_approx_margin(rho, sigma, k, p, max(eps_p, 1e-12))
                assert margin >= -1e-9
        # tightness at the rank-k truncation for p = 1
        for _ in range(200):
            d = int(rng.integers(2, 9))
            k = int(rng.integers(1, d + 1))
            rho = qcore.sample_state(d, d, rng)
            a_opt = qcore.truncate_rank_k(rho, k).entries
            assert abs(lowrank_ip.truncation_lower_bound_margin(rho, a_opt, k, 1)) <= 1e-9
        dt = time.time() - t0
        assert dt < 60
        _report(4, f"norm and truncation lemma suites, 1000 instances each ({dt:.0f}s)")


# ---------------------------------------------------------------------------
# 5. Low-rank agnostic tomography IP
# ---------------------------------------------------------------------------


class TestCriterion5LowRank:
    def test_criterion_5(self):
        t0 = time.time()
        cfg = lowrank_ip.LowRankConfig(d=4, k=1, epsilon=0.6, delta=1 / 3)
        honest = lowrank_ip.HonestSpectralProver()
        rec, results = batch_rates(
            cfg.run_one,
            cfg.judge,
            lambda r: cfg.sample_instance("x", r),
            honest,
            trials=200,
            seed=501,
        )
        assert rec.accept_and_valid / 200 >= 1 - cfg.delta
        assert rec.accept_and_invalid == 0  # every accepted output meets the bound exactly
        # adversaries
        for name, cls in lowrank_ip.ADVERSARIES.items():
            rec, res_list = batch_rates(
                cfg.run_one,
                cfg.judge,
                lambda r: cfg.sample_instance("x", r),
                cls(),
                trials=200,
                seed=503,
            )
            assert rec.accept_and_invalid / 200 < 1 / 3, name
            if name in ("non-unitary-liar", "unsorted-spectrum-liar"):
                assert rec.abort == 200, name  # line-5 validation is deterministic
        # exact-value soundness chain on >= 500 accepted instances
        p = cfg
        rng = np.random.default_rng(505)
        accepted_checked = 0
        attempts = 0
        while accepted_checked < 500 and attempts < 3000:
            attempts += 1
            rho = qcore.sample_state(4, 4, rng)
            oracle = CopyOracle(rho, ideal_access=True)
            u_raw, alpha = lowrank_ip.prover_spectral_tomography(oracle, p, rng)
            if rng.random() < 0.5:  # stress the check with corrupted hypotheses
                rot = qcore.sample_haar_unitary(4, rng).entries
                blend = float(rng.uniform(0, 0.4))
                u_raw = np.linalg.qr(u_raw + blend * rot)[0]
            hyp = lowrank_ip.validate_spectral_hypothesis(u_raw, alpha, 4)
            alpha_true = qcore.eig_sorted(rho).values
            rho_prime = hyp.state_matrix()
            pur_prime = float((hyp.alpha_prime**2).sum())
            pur_exact = qcore.purity(rho)
            o_exact = float(np.real(np.vdot(rho_prime, rho.entries)))
            u = hyp.u_prime.entries
            proj = u[: p.k].conj().T @ u[: p.k]
            p_exact = float(np.real(np.vdot(proj, rho.entries)))
            if lowrank_ip.lowrank_check(
                pur_prime, pur_exact, o_exact, p_exact, alpha_true[: p.k], p
            ):
                out = hyp.truncated(p.k, normalize=False)
                tail = float(alpha_true[p.k :].sum())
                assert qcore.one_norm_distance(out, rho) <= tail + p.epsilon + 1e-9
                accepted_checked += 1
        assert accepted_checked >= 500
        # state version: 2 * tail + eps bound with the normalized output
        state_cfg = lowrank_ip.LowRankConfig(variant="state")
        rec, res_list = batch_rates(
            state_cfg.run_one,
            state_cfg.judge,
            lambda r: state_cfg.sample_instance("x", r),
            honest,
            trials=200,
            seed=507,
        )
        assert rec.accept_and_valid / 200 >= 1 - state_cfg.delta
        assert rec.accept_and_invalid == 0
        # wide variant: 2(sqrt(2k)+1) l* + eps
        wide_cfg = lowrank_ip.LowRankConfig(variant="wide")
        rec, _ = batch_rates(
            wide_cfg.run_one,
            wide_cfg.judge,
            lambda r: wide_cfg.sample_instance("x", r),
            honest,
            trials=200,
            seed=509,
        )
        assert rec.accept_and_valid / 200 >= 1 - wide_cfg.delta
        assert rec.accept_and_invalid == 0
        dt = time.time() - t0
        assert dt < 300
        _report(5, f"low-rank IP: completeness, chain on {accepted_checked} accepted, variants ({dt:.0f}s)")


# ---------------------------------------------------------------------------
# 6. Stabilizer learning IP
# ---------------------------------------------------------------------------


class TestCriterion6Stab:
    def test_criterion_6(self):
        t0 = time.time()
        # UB/LB <= 8 across the sweep
        for a in np.linspace(0.001, 0.999, 999):
            ub, lb = stab_ip.stab_bounds(a)
            assert ub / lb <= 8 + 1e-9
        # exact moment of the T state
        t_state = qcore.PureState(np.array([1.0, np.exp(1j * np.pi / 4)]) / np.sqrt(2))
        assert abs(stab_ip.exact_A3(t_state) - 0.625) <= 1e-12
        # sandwich on 200 random states at n in {2, 3} against exhaustive judges
        rng = np.random.default_rng(601)
        for n in (2, 3):
            for _ in range(100):
                psi = qcore.sample_pure_state(1 << n, rng)
                ub, lb = stab_ip.stab_bounds(stab_ip.exact_A3(psi))
                l_star, _ = stab_ip.optimal_stab_loss(psi)
                assert lb - 1e-9 <= l_star <= ub + 1e-9
        # completeness and soundness at n=3, eps=0.4 over 200 sessions
        cfg = stab_ip.StabConfig(n=3, epsilon=0.4, delta=1 / 3)
        rec, results = batch_rates(
            cfg.run_one,
            cfg.judge,
            lambda r: cfg.sample_instance("x", r),
            stab_ip.HonestBruteForceProver(),
            trials=200,
            seed=603,
        )
        assert rec.accept_and_valid / 200 >= 2 / 3
        for res in results:
            assert res.peak_live_copies <= 1
        for name, cls in stab_ip.ADVERSARIES.items():
            rec, _ = batch_rates(
                cfg.run_one,
                cfg.judge,
                lambda r: cfg.sample_instance("x", r),
                cls(),
                trials=200,
                seed=605,
            )
            assert rec.accept_and_invalid / 200 < 1 / 3, name
        dt = time.time() - t0
        assert dt < 600
        _report(6, f"stabilizer IP: sweep, sandwich, rates at n=3 ({dt:.0f}s)")


# ---------------------------------------------------------------------------
# 7. Streaming uniformity IP
# ---------------------------------------------------------------------------


class TestCriterion7Streaming:
    def test_criterion_7(self):
        t0 = time.time()
        p = stream_ip.UniformityConfig(k=1 << 16, epsilon=0.75)
        assert p.n == 63_716
        # exact formula evaluation gives n*tau = 19744.45; the spec's quoted
        # ~19743 is the same formula under coarser rounding
        assert 19_743.0 <= p.threshold_count <= 19_746.0
        cfg = stream_ip.UniformityConfig(k=1 << 16, epsilon=0.75)
        honest_ok = 0
        peak_ok = True
        comm_max = 0
        for t in range(50):
            res = cfg.run_one(
                cfg.make_distribution("uniform"), stream_ip.HonestStreamProver(), seed=7100 + t
            )
            honest_ok += res.accepted and res.output == "uniform"
            peak_ok &= res.extras["peak_field_elements"] <= 4 * p.b + 16
            comm_max = max(comm_max, res.extras["prover_field_elements"])
        assert honest_ok / 50 >= 2 / 3
        far_ok = 0
        for t in range(50):
            res = cfg.run_one(
                cfg.make_distribution("support_fraction"),
                stream_ip.HonestStreamProver(),
                seed=7200 + t,
            )
            far_ok += res.accepted and res.output == "not uniform"
            peak_ok &= res.extras["peak_field_elements"] <= 4 * p.b + 16
            comm_max = max(comm_max, res.extras["prover_field_elements"])
        assert far_ok / 50 >= 2 / 3
        flip_wrong = 0
        for t in range(50):
            which = "uniform" if t % 2 == 0 else "support_fraction"
            hidden = cfg.make_distribution(which)
            res = cfg.run_one(hidden, cfg.make_prover("decision-flip"), seed=7300 + t)
            if res.accepted and not cfg.judge(res.output, hidden):
                flip_wrong += 1
        assert flip_wrong / 50 <= 1 / 3
        assert peak_ok
        assert comm_max <= 1200
        # sum-check totals equal brute-force Z on 100 small mechanics streams
        mcfg = stream_ip.UniformityConfig(k=256, epsilon=0.9, allow_small_epsilon=True)
        for t in range(100):
            res = mcfg.run_one(
                mcfg.make_distribution("uniform"), stream_ip.HonestStreamProver(), seed=7400 + t
            )
            assert res.accepted
            # the verifier reads one stream, whatever cap it ends at
            samples = mcfg.make_distribution("uniform").draw_batch(derive_rng(res.seed, "stream"), mcfg.n)
            z_brute = int((np.bincount(samples, minlength=256) == 1).sum())
            assert res.extras["z_verified"] == z_brute
        dt = time.time() - t0
        assert dt < 600
        _report(
            7,
            f"streaming IP: n=63716, thr~19744, rates, mem<=4b+16, comm<={comm_max} fe ({dt:.0f}s)",
        )


# ---------------------------------------------------------------------------
# 8. Primitive calibration
# ---------------------------------------------------------------------------


class TestCriterion8Calibration:
    def test_criterion_8(self):
        t0 = time.time()
        rng = np.random.default_rng(801)
        # SWAP test law: 50 random pairs, 1e4 trials, within 4 sigma
        trials = 10_000
        for _ in range(50):
            d = int(rng.integers(2, 9))
            a = qcore.sample_state(d, int(rng.integers(1, d + 1)), rng)
            b = qcore.sample_state(d, int(rng.integers(1, d + 1)), rng)
            target = (1 + float(np.real(np.vdot(a.entries, b.entries)))) / 2
            hits = sum(qmeas.swap_test(a, b, rng) for _ in range(trials))
            sigma = math.sqrt(max(target * (1 - target), 1e-12) / trials)
            assert abs(hits / trials - target) <= 4 * sigma + 1e-9
        # Bell-difference sampling: 20 random 2-qubit states, TV <= 0.03 at 1e5
        for _ in range(20):
            psi = qcore.sample_pure_state(4, rng)
            p_char = qmeas.characteristic_distribution(psi)
            q = np.zeros(16)
            for a_idx in range(16):
                q[a_idx ^ np.arange(16)] += p_char[a_idx] * p_char
            counts = np.zeros(16)
            for _ in range(100_000):
                counts[qmeas.bell_difference_sample(psi, rng, char_dist=p_char).index] += 1
            tv = 0.5 * np.abs(counts / 100_000 - q).sum()
            assert tv <= 0.03
        # Pauli-moment unbiasedness: 50 random (psi, x) within 4 sigma
        shots = 10_000
        for _ in range(50):
            n = int(rng.integers(1, 3))
            psi = qcore.sample_pure_state(1 << n, rng)
            lab = qmeas.PauliLabel.from_index(n, int(rng.integers(0, 4**n)))
            e = float(qmeas.pauli_expectations(psi)[lab.index])
            prods = [
                2 * qmeas.pauli_moment_sample(psi, lab, rng, expectation=e) - 1
                for _ in range(shots)
            ]
            sigma = math.sqrt(max(1 - e**4, 1e-8) / shots)
            assert abs(float(np.mean(prods)) - e**2) <= 4 * sigma + 1e-9
        # A3 estimator calibration: 50 random 2-qubit states
        p = stab_ip.StabConfig(epsilon=0.4, delta=1 / 3, n=2, mode="sampled")
        hits = 0
        for i in range(50):
            g = np.random.default_rng(810 + i)
            psi = qcore.sample_pure_state(4, g)
            oracle = CopyOracle(psi, ideal_access=True)
            a_hat = stab_ip.estimate_A3(oracle, p, g)
            hits += abs(a_hat - stab_ip.exact_A3(psi)) <= p.eps3
        assert hits / 50 >= (1 - p.delta3) - 0.05
        dt = time.time() - t0
        assert dt < 300
        _report(8, f"primitive calibration vs exact oracles ({dt:.0f}s)")


# ---------------------------------------------------------------------------
# 9. Infrastructure invariants
# ---------------------------------------------------------------------------


class TestCriterion9Infrastructure:
    def test_criterion_9(self):
        t0 = time.time()
        # zero qudit messages on classical channels (the uniformity IP is the
        # classical-channel protocol; the channel type also hard-rejects)
        mcfg = stream_ip.UniformityConfig(k=256, epsilon=0.9, allow_small_epsilon=True)
        for t in range(10):
            res = mcfg.run_one(
                mcfg.make_distribution("uniform"), stream_ip.HonestStreamProver(), seed=9100 + t
            )
            ch = res.channel_counters
            assert ch["qudits_v_to_p"] == 0 and ch["qudits_p_to_v"] == 0
        from ipsim.harness import Channel, ChannelTypeError, Copy

        with pytest.raises(ChannelTypeError):
            Channel("classical").send_qudits("v->p", [Copy(np.eye(2) / 2, None)])
        # single-copy memory policy across quantum protocol suites
        rng = np.random.default_rng(901)
        probes = [
            purity_ip.PurityConfig(d=4).run_one(
                qcore.maximally_mixed(4), purity_ip.HonestSwapProver(), seed=1
            ),
            tomo_ip.TomoConfig().run_one(
                qcore.sample_state(4, 4, rng), tomo_ip.HonestTomographyProver(), seed=2
            ),
            lowrank_ip.LowRankConfig().run_one(
                qcore.sample_state(4, 4, rng), lowrank_ip.HonestSpectralProver(), seed=3
            ),
            stab_ip.StabConfig(n=2).run_one(
                stab_ip.StabConfig(n=2).sample_instance("x", rng),
                stab_ip.HonestBruteForceProver(),
                seed=4,
            ),
            tomo_ip.TomoConfig(d=2, epsilon=0.8, mode="sampled").run_one(
                qcore.sample_pure_state(2, rng).density(),
                tomo_ip.HonestTomographyProver(),
                seed=5,
            ),
            stab_ip.StabConfig(n=2, mode="sampled").run_one(
                stab_ip.StabConfig(n=2).sample_instance("x", rng),
                stab_ip.HonestBruteForceProver(),
                seed=6,
            ),
        ]
        for res in probes:
            assert res.peak_live_copies <= 1
            assert sum(res.verifier_breakdown.values()) == res.verifier_queries
            assert sum(res.prover_breakdown.values()) == res.prover_queries
        # byte-identical reports for repeated (config, seed)
        from ipsim.cli import ExperimentConfig, run_experiment

        for proto, keys in (
            ("purity", {"d": 4}),
            ("tomo", {"d": 4}),
            (
                "uniformity",
                {"k": 256, "epsilon": 0.9, "allow_small_epsilon": True, "degree_cap": 32},
            ),
        ):
            cfg = ExperimentConfig(protocol=proto, trials=3, seed=99, protocol_keys=keys)
            r1, _ = run_experiment(cfg)
            r2, _ = run_experiment(cfg)
            assert r1.to_json() == r2.to_json(), proto
        dt = time.time() - t0
        _report(9, f"channel typing, memory policy, accounting, determinism ({dt:.0f}s)")
