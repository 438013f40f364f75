"""Streaming uniformity IP: field arithmetic cross-checks, multilinear
extension updates, interpolation, the batched sum-check's polynomial and
engine, completeness and soundness of the one sum-check,
memory/communication instrumentation."""

import hashlib
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipsim import m61, stream_ip
from ipsim.harness import derive_rng
from ipsim.m61 import Q, fadd, fmul, fsub, lagrange_weights
from ipsim.stream_ip import (
    COLLISION_POLYNOMIAL,
    BatchedPolynomial,
    DecisionFlipProver,
    HonestStreamProver,
    StreamVerifierState,
    UniformityConfig,
    chi_table_for_point,
    collision_verdict,
    engine_rounds,
    poly_value,
    range_polynomial,
    unique_polynomial,
    uniformity_verdict,
)
from references import ClosingEngine, SequentialState, doubling_chi_table, lagrange_eval


def rng(seed=0):
    return np.random.default_rng(seed)


class TestFieldArithmetic:
    def test_vector_ops_match_scalar_reference(self):
        g = rng(1)
        a = np.array([m61.rand_fe(g) for _ in range(512)], dtype=np.uint64)
        b = np.array([m61.rand_fe(g) for _ in range(512)], dtype=np.uint64)
        vm, va, vs = m61.vmul(a, b), m61.vadd(a, b), m61.vsub(a, b)
        for i in range(0, 512, 13):
            x, y = int(a[i]), int(b[i])
            assert int(vm[i]) == (x * y) % Q
            assert int(va[i]) == (x + y) % Q
            assert int(vs[i]) == (x - y) % Q

    def test_edge_values(self):
        edge = [0, 1, 2, Q - 1, Q - 2, (1 << 31) - 1, 1 << 31, (1 << 60) + 7]
        arr = np.array(edge, dtype=np.uint64)
        for y in edge:
            out = m61.vmul(arr, np.uint64(y))
            for i, x in enumerate(edge):
                assert int(out[i]) == (x * y) % Q

    def test_vsum_matches_int_sum(self):
        g = rng(2)
        for size in (1, 2, 5, 63, 64, 1000):
            a = np.array([m61.rand_fe(g) for _ in range(size)], dtype=np.uint64)
            assert m61.vsum(a) == sum(int(x) for x in a) % Q

    def test_inverse(self):
        g = rng(3)
        for _ in range(20):
            x = m61.rand_fe(g)
            if x:
                assert fmul(x, m61.finv(x)) == 1


class TestLagrange:
    def test_node_values(self):
        vals = [1 if i == 1 else 0 for i in range(5)]
        w = lagrange_weights(5)
        assert lagrange_eval(vals, 1, w) == 1
        assert lagrange_eval(vals, 3, w) == 0

    def test_matches_naive_interpolation(self):
        g = rng(4)
        for _ in range(10):
            length = int(g.integers(3, 9))
            vals = [m61.rand_fe(g) for _ in range(length)]
            t = m61.rand_fe(g)
            w = lagrange_weights(length)
            naive = 0
            for j, y in enumerate(vals):
                term = y
                for i in range(length):
                    if i != j:
                        term = fmul(term, fmul(fsub(t, i), m61.finv(fsub(j, i))))
                naive = fadd(naive, term)
            assert lagrange_eval(vals, t, w) == naive

    def test_weights_equal_their_product_definition(self):
        for num_nodes in range(1, 70):
            want = [m61.finv(math.prod(j - i for i in range(num_nodes) if i != j) % Q) for j in range(num_nodes)]
            assert lagrange_weights(num_nodes) == want, num_nodes

    def test_degree_d_interpolant_at_d_plus_values(self):
        # D=4, integer point 7 beyond the nodes
        vals = [1 if i == 1 else 0 for i in range(5)]
        w = lagrange_weights(5)
        direct = lagrange_eval(vals, 7, w)
        # ell_1(7) = prod_{i != 1(7-i)} / prod_{i != 1}(1-i)
        num = 1
        den = 1
        for i in (0, 2, 3, 4):
            num = fmul(num, fsub(7, i))
            den = fmul(den, fsub(1, i))
        assert direct == fmul(num, m61.finv(den))


CAPS = [1, 2, 7, 8, 32, 33, 128]


def _points(g, count):
    """Field points: random, the small integers and a few larger ones, and Q - 1."""
    larger = [int(x) for x in g.integers(count, 1 << 20, 5)]
    return [m61.rand_fe(g) for _ in range(20)] + list(range(count + 6)) + larger + [Q - 1]


def _coefficient_parts(polynomial):
    """The counted and weighted polynomials' monomial coefficients from their
    definitions, U_D + rho' y(y-1)/2 and rho R_D."""
    D = polynomial.degree_cap
    pairs = itertools.zip_longest(unique_polynomial(D), COLLISION_POLYNOMIAL, fillvalue=0)
    counted = [(u + polynomial.rho_collisions * h) % Q for u, h in pairs]
    return counted, [polynomial.rho * c % Q for c in range_polynomial(D)]


class TestPolynomials:
    """The three polynomials against their node values and products, and
    the batched polynomial's shared-product parts against its coefficients."""

    @pytest.mark.parametrize("degree_cap", CAPS)
    def test_unique_is_the_interpolant_of_its_node_values(self, degree_cap):
        values = [int(i == 1) for i in range(degree_cap + 1)]
        coefficients = unique_polynomial(degree_cap)
        assert len(coefficients) == degree_cap + 1
        weights = lagrange_weights(degree_cap + 1)
        for y in _points(rng(degree_cap), degree_cap + 1):
            assert poly_value(coefficients, y) == lagrange_eval(values, y, weights), y

    @pytest.mark.parametrize("degree_cap", CAPS)
    def test_range_is_the_vanishing_product(self, degree_cap):
        coefficients = range_polynomial(degree_cap)
        assert len(coefficients) == degree_cap + 2
        for y in _points(rng(degree_cap), degree_cap + 1):
            assert poly_value(coefficients, y) == math.prod(y - i for i in range(degree_cap + 1)) % Q

    def test_collision_polynomial_on_integers(self):
        for y in range(12):
            assert poly_value(COLLISION_POLYNOMIAL, y) == y * (y - 1) // 2
        assert poly_value(COLLISION_POLYNOMIAL, Q - 1) == 1  # h(-1) = 1

    @pytest.mark.parametrize("degree_cap", CAPS)
    @pytest.mark.parametrize("collisions", [False, True])
    def test_parts_and_value_equal_the_coefficients(self, degree_cap, collisions):
        g = rng(degree_cap + collisions)
        rho, rho_collisions = m61.rand_fe(g), m61.rand_fe(g) if collisions else 0
        polynomial = BatchedPolynomial(degree_cap, rho, rho_collisions)
        counted, weighted = _coefficient_parts(polynomial)
        assert polynomial.num_nodes == len(weighted) + 1 == degree_cap + 3
        for y in _points(g, degree_cap + 1):
            parts = [x % Q for x in polynomial.parts(y)]
            assert parts == [poly_value(counted, y), poly_value(weighted, y)], y
            eq = m61.rand_fe(g)
            assert polynomial.value(y, eq) == (parts[0] + eq * parts[1]) % Q

    @pytest.mark.parametrize("degree_cap", [1, 2, 7, 8, 9, 33, 110])
    def test_triangles_equal_their_definition(self, degree_cap):
        # each polynomial's coefficients times binomials, padded to n = D + 2
        # powers, and the batched pair scaled by its coefficients
        n = degree_cap + 2
        polys = (unique_polynomial(degree_cap), COLLISION_POLYNOMIAL, range_polynomial(degree_cap))
        want = []
        for poly in polys:
            coeffs = [*poly] + [0] * (n - len(poly))
            rows = [[coeffs[a + p] * math.comb(a + p, a) % Q if a + p < n else 0 for p in range(n)] for a in range(n)]
            want.append(rows)
        assert stream_ip._unit_triangles(degree_cap).tolist() == want
        g = rng(degree_cap)
        rho, rho_collisions = m61.rand_fe(g), m61.rand_fe(g)
        stacked = BatchedPolynomial(degree_cap, rho, rho_collisions).triangles().tolist()
        unique, collisions, vanishing = (np.array(t, dtype=object) for t in want)
        assert stacked == ((unique + rho_collisions * collisions) % Q).tolist() + (rho * vanishing % Q).tolist()
        nodes = n + 1
        assert stream_ip._vandermonde(nodes).tolist() == [[pow(t, a, Q) for a in range(nodes)] for t in range(nodes)]


class TestTableTotal:
    """``DistinctTable.totals``, the provers' claim formula, against brute force."""

    def _tables(self):
        g = rng(50)
        for k in (16, 256, 4096):
            freq = g.integers(0, 6, size=k)
            freq[g.integers(0, k, size=3)] = g.integers(40, 1000, size=3)  # a few heavy entries
            yield freq.astype(np.uint64)

    def test_unique_total_within_the_cap_is_the_unique_count(self):
        for freq in self._tables():
            top = int(freq.max())
            for cap in (top, top + 7):
                (total,) = stream_ip.DistinctTable.of(freq).totals(unique_polynomial(cap))
                assert type(total) is int and total == int((freq == 1).sum())

    def test_collision_total_is_the_pair_count(self):
        for freq in self._tables():
            f = freq.astype(np.int64)
            assert stream_ip.DistinctTable.of(freq).totals(COLLISION_POLYNOMIAL) == [int((f * (f - 1) // 2).sum())]

    def test_over_cap_total_sums_the_capped_interpolant(self):
        for freq in self._tables():
            for cap in (2, 8, 32):
                assert int(freq.max()) > cap
                brute = sum(poly_value(unique_polynomial(cap), int(y)) for y in freq) % Q
                assert stream_ip.DistinctTable.of(freq).totals(unique_polynomial(cap)) == [brute]

    def test_honest_claims_are_the_exact_counts(self):
        for freq in self._tables():
            prover = HonestStreamProver()
            prover.ingest(np.repeat(np.arange(freq.size), freq.astype(np.int64)), freq.size)
            f = freq.astype(np.int64)
            cap = prover.announced_cap(4)
            assert cap == int(freq.max())
            assert prover.claims(cap) == (int((f == 1).sum()), int((f * (f - 1) // 2).sum()))


class TestVerifierState:
    def test_empty_stream_is_zero(self):
        st = StreamVerifierState(16, rng(5))
        st.update_batch(np.zeros(0, dtype=np.int64))
        assert st.a_at_r == 0 and st.sample_count == 0

    def test_single_sample_all_zero_point(self):
        st = SequentialState(16, rng(6))
        st.r = [0, 0, 0, 0]
        st.update(0)
        assert st.a_at_r == 1  # chi_0(0) = 1

    def test_points_are_r_then_zeta(self):
        # two b-element points from one generator; the collision rule only
        # adds registers (its claim and coefficient), not points
        st = StreamVerifierState(256, rng(9))
        g = rng(9)
        assert st.r == [m61.rand_fe(g) for _ in range(8)]
        assert st.zeta == [m61.rand_fe(g) for _ in range(8)]
        with_collisions = StreamVerifierState(256, rng(9), collisions=True)
        assert (with_collisions.r, with_collisions.zeta) == (st.r, st.zeta)
        assert (st.register_count, with_collisions.register_count) == (2 * 8 + 12, 2 * 8 + 14)

    def test_matches_dense_extension_oracle(self):
        g = rng(7)
        k = 256
        st = SequentialState(k, g)
        samples = g.integers(0, k, size=1000)
        for s in samples:
            st.update(int(s))
        freq = np.bincount(samples, minlength=k)
        # dense oracle: sum_i freq_i chi_i(r) using the chi table
        table = chi_table_for_point(k, st.r)
        expected = 0
        for i in range(k):
            if freq[i]:
                expected = fadd(expected, fmul(int(freq[i]), int(table[i])))
        assert st.a_at_r == expected

    @pytest.mark.parametrize("k", [2, 8, 64, 128])
    def test_batch_equals_sequential(self, k):
        # b = 1, 3, 6, 7: h = b // 2 low bits, so the halves differ in size
        # where b is odd; three update_batch chunks
        samples = rng(k).integers(0, k, size=2 * m61.CHUNK + 5)
        seq, bat = SequentialState(k, rng(9)), StreamVerifierState(k, rng(9))
        for s in samples:
            seq.update(int(s))
        bat.update_batch(samples)
        assert (seq.a_at_r, seq.sample_count, seq.register_count) == (bat.a_at_r, bat.sample_count, bat.register_count)

    @pytest.mark.parametrize("b", [1, 3, 7, 16])
    def test_chi_table_splits_into_halves(self, b):
        g = rng(b)
        p = [m61.rand_fe(g) for _ in range(b)]
        h = b // 2
        low = chi_table_for_point(1 << h, p[:h])
        high = chi_table_for_point(1 << (b - h), p[h:])
        x = np.arange(1 << b)
        assert np.array_equal(chi_table_for_point(1 << b, p), m61.vmul(low[x % (1 << h)], high[x >> h]))

    @given(st.integers(0, 15), st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=60)
    def test_chi_table_equals_the_doubling_build(self, b, seed, edges):
        # byte-equal to the doubling loop it replaced, on random points and on
        # coordinates 0, 1 and Q - 1
        g = rng(seed)
        point = [int(x) for x in g.choice([0, 1, Q - 1], b)] if edges else [m61.rand_fe(g) for _ in range(b)]
        table = chi_table_for_point(1 << b, point)
        assert table.dtype == np.uint64 and table.tobytes() == doubling_chi_table(1 << b, point).tobytes()

    def test_out_of_range_rejected(self):
        st = SequentialState(16, rng(10))
        with pytest.raises(ValueError):
            st.update(16)
        with pytest.raises(ValueError):
            StreamVerifierState(16, rng(10)).update_batch(np.array([3, 16]))


class TestParams:
    def test_full_scale_values(self):
        p = UniformityConfig(k=1 << 16, epsilon=0.75)
        assert p.n == 63_716
        assert p.tau == pytest.approx(0.30988, abs=2e-5)
        assert p.threshold_count == pytest.approx(19_744.4, abs=1.0)

    def test_epsilon_boundary_accepted(self):
        UniformityConfig(k=1 << 16, epsilon=12 / (1 << 16) ** 0.25)  # exactly the bound

    def test_epsilon_below_bound_rejected(self):
        with pytest.raises(ValueError):
            UniformityConfig(k=1 << 16, epsilon=0.7)

    def test_mechanics_waiver(self):
        p = UniformityConfig(k=256, epsilon=0.5, allow_small_epsilon=True)
        assert p.n == math.ceil(140 * 16 / 0.25)

    def test_point_mass_draws_int64_zeros(self):
        cfg = UniformityConfig(k=64, epsilon=0.9, allow_small_epsilon=True)
        samples = cfg.make_distribution("point_mass").draw_batch(rng(3), 1000)
        assert samples.dtype == np.int64 and samples.shape == (1000,) and not samples.any()

    def test_verdict_rule(self):
        assert uniformity_verdict(24_000, 19_744.4) == "uniform"
        assert uniformity_verdict(27, 19_744.4) == "not uniform"

    def test_collision_verdict_rule(self):
        assert collision_verdict(15_000, 39_136.2) == "uniform"
        assert collision_verdict(39_136, 39_136.2) == "uniform"
        assert collision_verdict(39_137, 39_136.2) == "not uniform"
        assert collision_verdict(119_000, 39_136.2) == "not uniform"

    def test_regime_and_decision_statistic(self):
        full = UniformityConfig(k=1 << 16, epsilon=0.75)
        assert full.in_regime and full.tau > 0
        assert full.decision_statistic == "unique"
        small = UniformityConfig(k=256, epsilon=0.9, allow_small_epsilon=True)
        assert not small.in_regime
        assert small.n == 2766 and small.tau == pytest.approx(-1.09395, abs=1e-4)
        assert small.decision_statistic == "collisions"
        # C(n,2) (1 + 2 eps^2) / k
        assert small.collision_threshold == pytest.approx(2766 * 2765 / 2 * 2.62 / 256)
        assert small.collision_threshold == pytest.approx(39_136.2, abs=0.1)
        # out of regime but tau > 0: the appendix's rule still decides
        mid = UniformityConfig(k=1 << 14, epsilon=1.0, allow_small_epsilon=True)
        assert not mid.in_regime and mid.tau > 0
        assert mid.decision_statistic == "unique"


def _stream_of(freq):
    """A stream whose frequency table is ``freq``."""
    return np.repeat(np.arange(freq.size), np.asarray(freq, dtype=np.int64))


def _batched_sumcheck(freq, degree_cap, g, collisions=False, claims=None):
    """One batched sum-check of an honest engine on ``freq`` against
    ``claims`` (Z, C), default the table's own totals, batched with rho';
    closed by the verifier's extension of ``freq`` at r. Points and
    coefficients are drawn from ``g``."""
    st = StreamVerifierState(freq.size, g)
    st.update_batch(_stream_of(freq))
    rho, rho_collisions = m61.rand_fe(g), m61.rand_fe(g) if collisions else 0
    polynomial = BatchedPolynomial(degree_cap, rho, rho_collisions)
    if claims is None:
        claims = stream_ip.DistinctTable.of(freq).totals(unique_polynomial(degree_cap), COLLISION_POLYNOMIAL)
    eng = stream_ip._SumcheckEngine(stream_ip.DistinctTable.of(freq), polynomial, st.zeta)
    final = lambda: polynomial.value(st.a_at_r, st.chi_pair(st.r, st.zeta))  # noqa: E731
    claim = claims[0] + rho_collisions * claims[1]
    return stream_ip.run_sumcheck(claim, engine_rounds(eng), st.r, polynomial.num_nodes, final)


def _exact_counts(cfg, res, which):
    """(Z, C) of the session's one stream, replayed from its derived rng."""
    samples = cfg.make_distribution(which).draw_batch(derive_rng(res.seed, "stream"), cfg.n)
    f = np.bincount(samples, minlength=cfg.k)
    return int((f == 1).sum()), int((f * (f - 1) // 2).sum())


class TestCompleteness:
    @pytest.mark.parametrize("k,epsilon", [(64, 0.9), (256, 0.9), (4096, 1.0)])
    def test_verified_counts_are_the_exact_counts(self, k, epsilon):
        cfg = UniformityConfig(k=k, epsilon=epsilon, allow_small_epsilon=True)
        assert cfg.decision_statistic == "collisions"  # tau <= 0 at every k <= 4096
        for which in ("uniform", "support_fraction"):
            for i in range(10):
                res = cfg.run_one(cfg.make_distribution(which), HonestStreamProver(), seed=3000 + i)
                assert res.accepted, res.abort_reason
                z, c = _exact_counts(cfg, res, which)
                assert (res.extras["z_verified"], res.extras["c_verified"]) == (z, c)
                assert res.output == collision_verdict(c, cfg.collision_threshold)

    def test_unique_rule_session_verifies_the_unique_count(self):
        cfg = UniformityConfig(k=1 << 14, epsilon=1.0, allow_small_epsilon=True)
        for which in ("uniform", "support_fraction"):
            res = cfg.run_one(cfg.make_distribution(which), HonestStreamProver(), seed=3)
            assert res.accepted and "c_verified" not in res.extras
            z, _ = _exact_counts(cfg, res, which)
            assert res.extras["z_verified"] == z
            assert res.output == uniformity_verdict(z, cfg.threshold_count)

    def test_in_cap_tables_pass(self):
        # the honest engine's claim verifies on tables within the cap, with
        # and without the collision term, and at D = n, with no cap at all
        g = rng(13)
        for k, top, degree_cap in ((64, 4, 8), (64, 4, 4), (256, 9, 9), (16, 1, 8)):
            freq = g.integers(0, top + 1, size=k).astype(np.uint64)
            freq[0] = top
            for collisions in (False, True):
                assert _batched_sumcheck(freq, degree_cap, g, collisions).verified
        freq = np.bincount(g.integers(0, 16, 8), minlength=16).astype(np.uint64)
        assert _batched_sumcheck(freq, 8, g, True).verified

    def test_zero_length_stream_claim_zero(self):
        out = _batched_sumcheck(np.zeros(16, dtype=np.uint64), 4, rng(11), True, (0, 0))
        assert out.verified and out.rounds == 4

    def test_engine_bucketed_equals_direct(self):
        g = rng(12)
        freq = g.integers(0, 5, size=2048).astype(np.uint64)
        zeta = [m61.rand_fe(g) for _ in range(11)]
        a = stream_ip._SumcheckEngine(stream_ip.DistinctTable.of(freq.copy()), BatchedPolynomial(8, m61.rand_fe(g), m61.rand_fe(g)), zeta)
        msg_bucketed = a.round_message()
        assert len(a.pairs) <= 25 < freq.size // 2  # 1024 column pairs of 5 x 5 values
        # every column pair on its own, count 1, in table order
        u, d = freq[0::2], m61.vsub(freq[1::2], freq[0::2])
        a.dense = True
        direct = a._evaluate(u, d, None, chi_table_for_point(1024, zeta[1:]), a._line())
        assert list(msg_bucketed) == direct
        assert len(msg_bucketed) == a.num_nodes == 8 + 3


class _CapLiar(HonestStreamProver):
    """Announces the config's cap whatever its table holds and answers
    honestly from the true table: claims of the unique count ``z`` (the
    exact count, or the table's total of U_D) and the exact collision
    count, with messages from folding the true table."""

    name = "cap-liar"

    def __init__(self, z="exact"):
        super().__init__()
        self.z = z

    def announced_cap(self, degree_cap):
        return degree_cap

    def claims(self, degree_cap):
        f = self.freq.astype(np.int64)
        z = int((f == 1).sum()) if self.z == "exact" else super().claims(degree_cap)[0]
        return z, int((f * (f - 1) // 2).sum())


class _CollisionOffsetProver(HonestStreamProver):
    name = "collision-offset"

    def __init__(self, offset):
        super().__init__()
        self.offset = offset

    def claims(self, degree_cap):
        z, c = super().claims(degree_cap)
        return z, c + self.offset


class TestSoundness:
    def test_shift_liar_rejected_every_time(self):
        cfg = UniformityConfig(k=16, epsilon=0.9, degree_cap=8, allow_small_epsilon=True)
        for i in range(200):
            res = cfg.run_one(cfg.make_distribution("uniform"), stream_ip.ShiftClaimProver(), seed=4000 + i)
            assert not res.accepted
            assert res.abort_reason == "batched sum-check rejected: round-consistency check failed"

    @pytest.mark.parametrize("z", ["exact", "table total"])
    def test_one_over_cap_frequency_with_honest_looking_claims(self, z):
        # one frequency above the cap and claims that look honest: the exact
        # counts, or the table's own U_D total with the exact C; the messages
        # fold the true table, whose range certificate is not zero, so the
        # batched claim misses the table's total at round 0 but for one rho
        g = rng(5300 + len(z))
        rejected = 0
        for _ in range(200):
            freq = g.integers(0, 5, size=64).astype(np.uint64)
            freq[g.integers(0, 64)] = 5 + g.integers(0, 40)  # the one entry over the cap of 4
            f = freq.astype(np.int64)
            claims = (int((f == 1).sum()), int((f * (f - 1) // 2).sum())) if z == "exact" else None
            out = _batched_sumcheck(freq, 4, g, True, claims)
            rejected += not out.verified and out.rounds == 0
        assert rejected >= 199

    def test_cap_liar_sessions_rejected_at_round_zero(self):
        # a point mass puts all n samples in one cell, far above the cap of 4
        # the liar announces
        cfg = UniformityConfig(k=64, epsilon=0.9, degree_cap=4, distribution="point_mass", allow_small_epsilon=True)
        for z in ("exact", "table total"):
            for i in range(50):
                res = cfg.run_one(cfg.make_distribution("point_mass"), _CapLiar(z), seed=5500 + i)
                assert not res.accepted and res.extras["final_degree_cap"] == 4
                assert res.abort_reason == "batched sum-check rejected: round-consistency check failed"

    def test_range_clamp_caught_at_the_final_check(self):
        # a one-table adversary: honest messages on the table clamped at the
        # cap, whose certificate is zero, and claims of that table; the
        # verifier's a(r) of the true table exposes it in every trial
        cfg = UniformityConfig(k=64, epsilon=0.9, degree_cap=4, distribution="point_mass", allow_small_epsilon=True)
        for i in range(300):
            prover = stream_ip.RangeClampProver()
            res = cfg.run_one(cfg.make_distribution("point_mass"), prover, seed=5000 + i)
            assert not res.accepted and res.extras["final_degree_cap"] == 4
            assert res.abort_reason == "batched sum-check rejected: final evaluation mismatch"
            assert prover.claims(4) == (0, 6)  # one entry of 4 = the cap: no unique entry, C(4, 2) pairs

    @pytest.mark.parametrize("offset", [1, -1])
    def test_off_by_one_collision_claim_rejected_every_time(self, offset):
        cfg = UniformityConfig(k=16, epsilon=0.9, degree_cap=64, allow_small_epsilon=True)
        assert cfg.decision_statistic == "collisions"
        for i in range(100):
            res = cfg.run_one(cfg.make_distribution("uniform"), _CollisionOffsetProver(offset), seed=9000 + i)
            assert not res.accepted
            assert res.abort_reason == "batched sum-check rejected: round-consistency check failed"

    @pytest.mark.parametrize("k,epsilon", [(256, 0.9), (1 << 14, 1.0)])
    def test_decision_flip_caught_at_the_final_check(self, k, epsilon):
        # the adversary doctors its one table so that the deciding count
        # crosses its threshold, and answers consistently from it
        cfg = UniformityConfig(k=k, epsilon=epsilon, allow_small_epsilon=True)
        for t in range(20 if k == 256 else 4):
            which = "uniform" if t % 2 == 0 else "support_fraction"
            prover = cfg.make_prover("decision-flip")
            assert isinstance(prover, DecisionFlipProver)
            res = cfg.run_one(cfg.make_distribution(which), prover, seed=9300 + t)
            f = prover.freq.astype(np.int64)
            true_z, true_c = int((f == 1).sum()), int((f * (f - 1) // 2).sum())
            claimed_z, claimed_c = prover.claims(res.extras["final_degree_cap"])
            if cfg.decision_statistic == "collisions":
                threshold = cfg.collision_threshold
                assert (true_c > threshold) != (claimed_c > threshold)
            else:
                threshold = cfg.threshold_count
                assert (true_z <= threshold) != (claimed_z <= threshold)
            assert not res.accepted
            assert res.abort_reason == "batched sum-check rejected: final evaluation mismatch"


def _int_segment_sums(values, starts, counts=None):
    """Python-int sums mod Q of each row's segments, each element times its count."""
    m = values.shape[-1]
    ends = [*starts[1:].tolist(), m]
    c = [1] * m if counts is None else counts.tolist()
    return [
        [sum(row[i] * c[i] for i in range(lo, hi)) % Q for lo, hi in zip(starts.tolist(), ends)]
        for row in values.reshape(-1, m).tolist()
    ]


class TestSegmentSums:
    """``_segment_sums_mod`` against Python-int sums mod Q: runs of one
    element copied through, short runs summed directly, long or counted
    runs through the split halves."""

    LAYOUTS = {
        "mixed": [1, 3, 1, 1, 2, 8, 1, 9, 1, 5, 1],
        "short and single": [2, 1, 8, 3, 1, 1, 7],
        "all single": [1] * 12,
        "one run": [40],
    }

    @staticmethod
    def _check(values, starts, counts):
        before = values.copy()
        want = _int_segment_sums(values, starts, counts)
        assert stream_ip._segment_sums_mod(values, starts, counts).reshape(-1, starts.size).tolist() == want
        out = np.empty(values.shape[:-1] + starts.shape, dtype=np.uint64)
        work = np.full(2 * values.size, Q + 5, dtype=np.uint64)  # stale scratch must not leak in
        assert stream_ip._segment_sums_mod(values, starts, counts, out=out, work=work) is out
        assert out.reshape(-1, starts.size).tolist() == want
        assert np.array_equal(values, before)

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("rows", [None, 3])
    @pytest.mark.parametrize("weighting", ["none", "ones", "zeros and ones", "counts", "most"])
    @pytest.mark.parametrize("top", [False, True])
    def test_matches_int_sums(self, layout, rows, weighting, top):
        sizes = np.array(self.LAYOUTS[layout])
        starts = np.cumsum(sizes) - sizes
        m = int(sizes.sum())
        g = rng(m)
        shape = (m,) if rows is None else (rows, m)
        values = np.full(shape, Q - 1, dtype=np.uint64) if top else g.integers(0, Q, shape, dtype=np.uint64)
        values[..., 1::4] = Q - 1
        counts = None
        if weighting == "ones":
            counts = np.ones(m, dtype=np.uint64)
        elif weighting == "zeros and ones":
            counts = np.ones(m, dtype=np.uint64)
            counts[::3] = 0  # not all ones: summed with its counts, not dropped
        elif weighting == "counts":
            counts = g.integers(1, 1 << 20, m).astype(np.uint64)
            single = starts[sizes == 1]
            counts[single] = 2 + np.arange(single.size) % 3  # single runs with counts other than 1
        elif weighting == "most":
            counts = np.full(m, (1 << 32) // m, dtype=np.uint64)  # all counts add up to just under 2^32
        self._check(values, starts, counts)

    @given(
        st.lists(st.integers(1, 12), min_size=1, max_size=24),
        st.sampled_from([None, 2, 5]),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_random_layouts(self, sizes, rows, counted, seed):
        sizes = np.array(sizes)
        starts = np.cumsum(sizes) - sizes
        m = int(sizes.sum())
        g = rng(seed)
        values = g.integers(0, Q, (m,) if rows is None else (rows, m), dtype=np.uint64)
        values[..., g.random(m) < 0.3] = Q - 1
        counts = g.integers(0, 4, m).astype(np.uint64) if counted else None
        self._check(values, starts, counts)


class TestDistinctTable:
    def test_counting_and_sorting_agree_with_unique(self):
        g = rng(70)
        for table in (
            g.poisson(1.0, 4096).astype(np.uint64),  # small entries: ranked by counting
            np.full(8, 7, dtype=np.uint64),  # entries above the size: sorted
            g.integers(0, Q, 300, dtype=np.uint64),
            np.array([0, 5, 3, 5], dtype=np.uint64),
        ):
            values, ids = stream_ip.DistinctTable.of(table)
            uniq, inverse, counts = np.unique(table, return_inverse=True, return_counts=True)
            assert np.array_equal(values, uniq) and values.dtype == np.uint64
            assert np.array_equal(ids, inverse.reshape(-1))
            polys = (unique_polynomial(4), range_polynomial(7), COLLISION_POLYNOMIAL)
            brute = [sum(poly_value(p, int(y)) for y in table) % Q for p in polys]
            assert stream_ip.DistinctTable.of(table).totals(*polys) == brute

    def test_small_entries_rank_by_counting_into_int32_ids(self, monkeypatch):
        # entries below the table's size are ranked by counting, into the
        # int32 ids an engine holds for its first round; one entry at or
        # above the size sends the table to _runs, whose ids are int64
        sorted_keys = []
        runs = stream_ip._runs
        monkeypatch.setattr(stream_ip, "_runs", lambda keys: sorted_keys.append(keys) or runs(keys))
        freq = rng(71).poisson(1.0, 4096).astype(np.uint64)
        assert int(freq.max()) < freq.size
        assert stream_ip.DistinctTable.of(freq).ids.dtype == np.int32 and not sorted_keys
        zeta = [m61.rand_fe(rng(72)) for _ in range(12)]
        assert stream_ip._SumcheckEngine(stream_ip.DistinctTable.of(freq), BatchedPolynomial(4, 3), zeta).ids.dtype == np.int32
        sorted_keys.clear()  # the engine's first round sorts its column pairs
        for top in (freq.size, Q - 1):
            table = freq.copy()
            table[5] = top
            values, ids = stream_ip.DistinctTable.of(table)
            assert len(sorted_keys) == 1 and np.array_equal(sorted_keys.pop(), table)
            assert ids.dtype == np.int64 and np.array_equal(values[ids], table)


class TestRankedTables:
    """The claims and the engine share one ranking of the table that
    ``table(degree_cap)`` returns: the honest prover's frequency table, or a
    lying prover's clamped or doctored one."""

    @staticmethod
    def _ranked_tables(monkeypatch, cfg, prover, which):
        """The session's result and the tables ranked after the prover
        ingested the stream (a doctoring prover may total a table there)."""
        tables = []
        rank = stream_ip.DistinctTable.of
        monkeypatch.setattr(stream_ip.DistinctTable, "of", lambda table: tables.append(table) or rank(table))
        ingest = prover.ingest
        monkeypatch.setattr(prover, "ingest", lambda *args: (ingest(*args), tables.clear()))
        res = cfg.run_one(cfg.make_distribution(which), prover, seed=91)
        return res, tables

    def _cfg(self, **keys):
        return UniformityConfig(k=256, epsilon=0.9, allow_small_epsilon=True, **keys)

    def test_honest_claims_and_engine_rank_the_frequency_table(self, monkeypatch):
        cfg = self._cfg()
        assert cfg.decision_statistic == "collisions"  # both claims and the rho' term
        prover = HonestStreamProver()
        res, tables = self._ranked_tables(monkeypatch, cfg, prover, "uniform")
        assert res.accepted, res.abort_reason
        assert len(tables) == 1 and tables[0] is prover.freq

    def test_range_clamp_ranks_its_clamped_table(self, monkeypatch):
        cfg = self._cfg(degree_cap=4, distribution="point_mass")
        prover = stream_ip.RangeClampProver()
        res, tables = self._ranked_tables(monkeypatch, cfg, prover, "point_mass")
        assert not res.accepted and res.abort_reason.endswith("final evaluation mismatch")
        assert len(tables) == 1
        assert tables[0] is not prover.freq and np.array_equal(tables[0], np.minimum(prover.freq, np.uint64(4)))

    def test_decision_flip_ranks_its_doctored_table(self, monkeypatch):
        cfg = self._cfg()
        prover = DecisionFlipProver(cfg)
        res, tables = self._ranked_tables(monkeypatch, cfg, prover, "uniform")
        assert not res.accepted and res.abort_reason.endswith("final evaluation mismatch")
        assert len(tables) == 1 and tables[0] is prover.doctored
        assert not np.array_equal(prover.doctored, prover.freq)


def _horner(coefficients, y):
    """The polynomial of monomial ``coefficients`` at every element of y."""
    acc = np.zeros_like(y)
    for c in reversed(coefficients):
        acc = m61.vadd(m61.vmul(acc, y), np.uint64(c))
    return acc


def _reference_evaluate(polynomial, u, d, chi_u, chi_d, counts=None):
    """The direct round evaluation: at every node t, every pair's
    c counted(y) + (chi_u + t chi_d) weighted(y) at y = u + t d, from the
    monomial coefficients of ``_coefficient_parts``, every node's blend in
    one array, with no pairing, blocks or moments."""
    counted, weighted = _coefficient_parts(polynomial)
    nodes = np.arange(polynomial.num_nodes, dtype=np.uint64)[:, None]
    y = m61.vadd(m61.vmul(np.broadcast_to(d, (nodes.size, u.size)), nodes), u).reshape(-1)
    e = m61.vadd(m61.vmul(np.broadcast_to(chi_d, (nodes.size, u.size)), nodes), chi_u).reshape(-1)
    c = _horner(counted, y)
    if counts is not None:
        c = m61.vmul(c, np.broadcast_to(counts, (nodes.size, u.size)).reshape(-1))
    acc = m61.vadd(c, m61.vmul(_horner(weighted, y), e)).reshape(nodes.size, u.size)
    return [m61.vsum(row) for row in acc]


def _chi_parts(chi):
    """chi's u and d parts on a round's column pairs."""
    return chi[0::2], m61.vsub(chi[1::2], chi[0::2])


def _polynomial(g, degree_cap, collisions):
    return BatchedPolynomial(degree_cap, m61.rand_fe(g), m61.rand_fe(g) if collisions else 0)


def _engine(polynomial, table=None, g=None):
    """An engine of ``polynomial`` on ``table`` (default two zeros), at a zeta drawn from g."""
    table = np.zeros(2, dtype=np.uint64) if table is None else table
    g = rng(0) if g is None else g
    return stream_ip._SumcheckEngine(stream_ip.DistinctTable.of(table), polynomial, [m61.rand_fe(g) for _ in range(table.size.bit_length() - 1)])


ENGINE_CASES = [(D, collisions) for D in (2, 7, 8, 32, 33, 128) for collisions in (False, True)] + [(1, True)]


def _weights(g, m, value=None, count=None):
    """The weightings a round passes, as (``_evaluate`` arguments,
    ``_reference_evaluate`` arguments): every count 1 or bucket counts, each
    with eq weights w times a line alpha + beta t, which is chi with u and d
    parts alpha w and beta w."""
    if value is not None:
        counts = np.full(m, count, dtype=np.uint64)
        w = np.full(m, value, dtype=np.uint64)
        alpha = beta = value
    else:
        counts = g.integers(1, 1 << 20, m).astype(np.uint64)
        w = g.integers(0, Q, m, dtype=np.uint64)
        alpha, beta = m61.rand_fe(g), m61.rand_fe(g)
    chi = (m61.vmul(w, alpha), m61.vmul(w, beta))
    return [
        ((None, w, (alpha, beta)), (*chi, None)),
        ((counts, w, (alpha, beta)), (*chi, counts)),
    ]


class TestEngineAgainstReference:
    """The pair-blocked moment evaluation and the pair bucketing against the
    direct formula; exact arithmetic, so equal to the last bit."""

    @pytest.mark.parametrize("degree_cap,collisions", ENGINE_CASES)
    @pytest.mark.parametrize("dense", [False, True])
    def test_evaluate_equals_reference(self, degree_cap, collisions, dense):
        g = rng(degree_cap + collisions)
        eng = _engine(_polynomial(g, degree_cap, collisions))
        eng.dense = dense
        n = eng.n
        # blocks, the switch at n runs between the narrow and wide GEMMs, and a
        # wide GEMM of more than GEMM_BLOCK runs
        sizes = {eng.block - 1, eng.block, 2 * eng.block + 5, n - 1, n, min(m61.GEMM_BLOCK + 3, 3 * eng.block)}
        for m in sorted(sizes):
            u, d = (g.integers(0, Q, m, dtype=np.uint64) for _ in range(2))
            if not dense:  # runs of equal u, some cut by a block's end
                u = np.sort(g.choice(u[: max(1, m // 3)], m))
            u[:3] = [0, 1, Q - 1][:m]  # blends through 0, small integers and the wrap at Q
            for args, ref in _weights(g, m):
                assert eng._evaluate(u, d, *args) == _reference_evaluate(eng.polynomial, u, d, *ref), m

    @pytest.mark.parametrize("degree_cap,collisions", ENGINE_CASES)
    def test_full_block_of_maximal_elements(self, degree_cap, collisions):
        # every pair and field weight Q - 1: the largest limbs the GEMMs see,
        # on one full block of each weighting; the pairs form one run of
        # equal u whose counts add up to 2^32, the most its segment sums hold
        eng = _engine(_polynomial(rng(degree_cap), degree_cap, collisions))
        eng.dense = False
        m = eng.block
        u = np.full(m, Q - 1, dtype=np.uint64)
        for args, ref in _weights(None, m, Q - 1, (1 << 32) // m):
            assert eng._evaluate(u, u, *args) == _reference_evaluate(eng.polynomial, u, u, *ref)

    def test_widened_cap_on_small_table(self):
        # D = 512, the widest cap a D0 = 32 session can reach, on 64 entries
        g = rng(512)
        table = g.integers(0, Q, 64, dtype=np.uint64)
        eng = _engine(_polynomial(g, 512, True), table, g)
        chi = chi_table_for_point(64, eng.zeta)
        want = _reference_evaluate(eng.polynomial, table[0::2], m61.vsub(table[1::2], table[0::2]), *_chi_parts(chi))
        assert list(eng.round_message()) == want

    def test_gemm_block_keeps_limb_sums_exact(self):
        # a GEMM dot product of GEMM_BLOCK limb products stays below 2^53
        assert m61.GEMM_BLOCK * ((1 << 21) - 1) ** 2 < 1 << 53

    @pytest.mark.parametrize("n", [3, 4, 10, 11, 12, 35, 130, 514])
    def test_blocks_fit_the_scratch(self, n):
        # ladder n (m + runs), two moment sets 2 n runs, and the larger of the
        # segment sums' 2 n m halves and the wide GEMM's limbs, runs <= m
        m = stream_ip._block_pairs(n)
        assert 1 <= m <= stream_ip._LADDER_ELEMS // (2 * n)
        need = 4 * n * m + max(2 * n * m, 9 * n * min(m, m61.GEMM_BLOCK))
        assert need <= 13 * n * m <= stream_ip._SCRATCH_ELEMS

    @pytest.mark.parametrize("degree_cap,collisions", ENGINE_CASES)
    def test_round_message_equals_reference(self, degree_cap, collisions):
        g = rng(100 + degree_cap)
        for table in (
            g.integers(0, min(degree_cap, 4) + 1, 4096).astype(np.uint64),  # buckets
            g.integers(0, Q, 256, dtype=np.uint64),  # every pair distinct
        ):
            eng = _engine(_polynomial(g, degree_cap, collisions), table, g)
            u = table[0::2]
            d = m61.vsub(table[1::2], u)
            assert (len(eng.pairs) < u.size) == (table.size == 4096)
            chi = chi_table_for_point(table.size, eng.zeta)
            assert list(eng.round_message()) == _reference_evaluate(eng.polynomial, u, d, *_chi_parts(chi))

    def test_group_matches_row_unique(self):
        # the first round's pairs are the distinct (u, v) column pairs in
        # row-unique order, with their counts, eq weights, and each column's
        # pair index
        g = rng(30)
        for u_vals, d_vals in ((3, 5), (40, 2), (600, 600)):
            u = g.integers(0, u_vals, 4096).astype(np.uint64) * np.uint64(1 << 40)
            d = g.integers(Q - d_vals, Q, 4096, dtype=np.uint64)
            columns = np.stack([u, m61.vadd(u, d)], axis=1)
            eng = _engine(_polynomial(g, 2, True), columns.reshape(-1), g)
            uniq, inverse, counts = np.unique(columns, axis=0, return_inverse=True, return_counts=True)
            assert np.array_equal(eng.values[eng.pairs], uniq)
            assert np.array_equal(eng.pair_of_column, inverse.reshape(-1))
            assert np.array_equal(np.ones_like(counts) if eng.counts is None else eng.counts, counts)
            suffix = chi_table_for_point(4096, eng.zeta[1:])
            sums = [sum(int(x) for x in suffix[inverse.reshape(-1) == s]) % Q for s in range(uniq.shape[0])]
            assert eng.weight.tolist() == sums
        # bucketing runs at every size
        for pairs in (2, 1023, 1024):
            eng = _engine(_polynomial(g, 2, True), np.zeros(2 * pairs, dtype=np.uint64), g)
            assert eng.pairs.tolist() == [[0, 0]] and eng.counts.tolist() == [pairs]

    @pytest.mark.parametrize(
        "k,degree_cap,grouped",
        [(4096, 2, True), (4096, 32, True), (256, 2, False), (256, 32, False), (64, 512, False)]
        + [(2, D, False) for D in (2, 32, 512)],
    )
    def test_factored_rounds_equal_folded_chi(self, k, degree_cap, grouped, monkeypatch):
        # the engine keeps chi factored; the reference folds the full chi
        # table with the frequency table each round and takes chi's u and d
        # parts from it
        g = rng(k + degree_cap)
        if grouped:
            freq = g.poisson(1.0, size=k).astype(np.uint64)
        else:
            freq = g.integers(0, Q, k, dtype=np.uint64)
        st = StreamVerifierState(k, g)
        builds = []
        build = lambda n, p: builds.append(n) or chi_table_for_point(n, p)  # noqa: E731
        monkeypatch.setattr(stream_ip, "chi_table_for_point", build)
        polynomial = _polynomial(g, degree_cap, True)
        eng = ClosingEngine(stream_ip.DistinctTable.of(freq), polynomial, st.zeta)
        table, chi = freq, chi_table_for_point(k, st.zeta)
        for j, r in enumerate(st.r):
            # the eq suffix, built once and folded by every bind
            assert np.array_equal(eng.suffix, chi_table_for_point(table.size // 2, st.zeta[j + 1 :]))
            u, d = table[0::2], m61.vsub(table[1::2], table[0::2])
            if j == 0:
                assert (len(eng.pairs) < u.size) == grouped
            assert list(eng.round_message()) == _reference_evaluate(polynomial, u, d, *_chi_parts(chi))
            eng.bind(r)
            table, chi = (stream_ip._SumcheckEngine._fold(x, r) for x in (table, chi))
            assert np.array_equal(eng.values[eng.ids], table)
        assert builds == [k // 2]
        a_at_r = m61.vsum(m61.vmul(freq, chi_table_for_point(k, st.r)))
        want = polynomial.value(a_at_r, st.chi_pair(st.r, st.zeta))
        assert eng.final_value() == want == polynomial.value(int(table[0]), int(chi[0]))

    @pytest.mark.parametrize("pairs_per_block", [None, 16])
    def test_factored_path_on_few_distinct_u(self, pairs_per_block):
        # Poisson(1) at k = 2^14: rounds 1-3 have far fewer distinct u than
        # pairs. Every round's message equals the direct formula on the
        # folded table, and the sum over the round's distinct pairs with
        # their counts and eq weights equals it too. Round 3 at the default
        # block, and rounds 2 and 3 at 16 pairs per block, have runs of
        # equal u cut by a block boundary; at 16 pairs some runs span whole
        # blocks.
        g = rng(60)
        freq = g.poisson(1.0, size=1 << 14).astype(np.uint64)
        st = StreamVerifierState(freq.size, g)
        eng = stream_ip._SumcheckEngine(stream_ip.DistinctTable.of(freq), _polynomial(g, 32, True), st.zeta)
        if pairs_per_block is not None:
            eng.block = pairs_per_block
        table, chi = freq, chi_table_for_point(freq.size, st.zeta)
        segmented = cut = 0
        for j, r in enumerate(st.r):
            u = eng.values[eng.pairs[:, 0]]
            d = m61.vsub(eng.values[eng.pairs[:, 1]], u)
            segmented += np.unique(u).size < u.size
            cut += any(u[b - 1] == u[b] for b in range(eng.block, u.size, eng.block))
            chi_u, chi_d = _chi_parts(chi)
            want = _reference_evaluate(eng.polynomial, table[0::2], m61.vsub(table[1::2], table[0::2]), chi_u, chi_d)
            assert list(eng.round_message()) == want, j
            alpha, beta = eng._line()
            pair_chi = m61.vmul(eng.weight, alpha), m61.vmul(eng.weight, beta)
            assert _reference_evaluate(eng.polynomial, u, d, *pair_chi, eng.counts) == want, j
            eng.bind(r)
            table, chi = (stream_ip._SumcheckEngine._fold(x, r) for x in (table, chi))
        assert segmented >= 3 and cut >= 1

    # computed with the direct, unpaired and unblocked evaluation
    # (``_reference_transcript_sha256``)
    PINNED = {
        (4096, 3.0, 7, False): "57bf2472e07af5fb4decbb98c252fb23e9f8418172e49941086c2dc8c5ddc190",
        (4096, 3.0, 7, True): "3b089ec17a94481381f1d013ab485ca63f5a11965791527ed265891f34519042",
        (256, 10.0, 33, False): "bc251da2921fa8e526f22909765c79968f7635d3a77d6640ca71f148746105d4",
        (256, 10.0, 33, True): "3808a216f2a2685de32ee3131d20c719cf9e53b0793b0d794003af79ba7a241b",
        (2048, 1.0, 2, False): "2398d27e2edf471bb4e3041451b17b91512d1f1bbac12719dc0e4ee3958b2bb5",
        (2048, 1.0, 2, True): "28b64e319a444f20e75a40d23ea38d074d61d0eb3987c9bbe910ef47b831451d",
    }

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_pinned_transcripts(self, case):
        assert _transcript_sha256(*case, seed=11) == self.PINNED[case]


def _transcript_case(k, lam, degree_cap, collisions, seed):
    """A Poisson(lam) table capped at degree_cap, StreamVerifierState points
    and the batched polynomial, all drawn from ``seed``."""
    g = rng(seed)
    freq = np.minimum(g.poisson(lam, size=k), degree_cap).astype(np.uint64)
    st = StreamVerifierState(k, g)
    return freq, st, _polynomial(g, degree_cap, collisions)


def _transcript_sha256(k, lam, degree_cap, collisions, seed):
    """sha256 over every round message and the final value of one engine
    run on ``_transcript_case``."""
    freq, st, polynomial = _transcript_case(k, lam, degree_cap, collisions, seed)
    eng = ClosingEngine(stream_ip.DistinctTable.of(freq), polynomial, st.zeta)
    h = hashlib.sha256()
    for j in range(len(st.r)):
        if j:
            eng.bind(st.r[j - 1])
        h.update(repr(eng.round_message()).encode())
    eng.bind(st.r[-1])
    h.update(repr(eng.final_value()).encode())
    return h.hexdigest()


def _reference_transcript_sha256(k, lam, degree_cap, collisions, seed):
    """``_transcript_sha256`` from ``_reference_evaluate`` on the table and
    the chi table folded whole each round, which the pins were computed with."""
    table, st, polynomial = _transcript_case(k, lam, degree_cap, collisions, seed)
    chi = chi_table_for_point(k, st.zeta)
    h = hashlib.sha256()
    for r in st.r:
        message = _reference_evaluate(polynomial, table[0::2], m61.vsub(table[1::2], table[0::2]), *_chi_parts(chi))
        h.update(repr(tuple(message)).encode())
        table, chi = (stream_ip._SumcheckEngine._fold(x, r) for x in (table, chi))
    h.update(repr(polynomial.value(int(table[0]), int(chi[0]))).encode())
    return h.hexdigest()


def test_reference_transcript_matches_a_pin():
    # the pins' own derivation, on the smallest case
    case = (2048, 1.0, 2, True)
    assert _reference_transcript_sha256(*case, seed=11) == TestEngineAgainstReference.PINNED[case]


def _rounds_against_folded_table(polynomial, table, g):
    """Runs an engine of ``polynomial`` on ``table`` through every round, at
    StreamVerifierState points drawn from ``g``, checking each message
    against ``_reference_evaluate`` on the folded table and chi, and, after
    each bind, ``values[ids]`` against the table folded in Python ints.
    Returns each round's path: (dense, ranked by counting, message in
    Python ints, GEMMs: "wide" and/or "narrow")."""
    points = StreamVerifierState(table.size, g)
    eng = stream_ip._SumcheckEngine(stream_ip.DistinctTable.of(table), polynomial, points.zeta)
    int_messages, gemms = [], []
    int_message = eng._int_message
    eng._int_message = lambda *args: int_messages.append(args) or int_message(*args)
    matmul = m61.matmul
    chi = chi_table_for_point(table.size, points.zeta)
    paths = []
    try:
        def traced(a, b, limbs=None):
            gemms.append("narrow" if a.dtype == np.float64 else "wide")  # the narrow GEMM's triangles come split
            return matmul(a, b, limbs)

        m61.matmul = traced
        for j, r in enumerate(points.r):
            counted = eng.pair_of_column.dtype == np.int32  # ranked by _rank's counting, not sorted or dense
            u, d = table[0::2], m61.vsub(table[1::2], table[0::2])
            before = len(int_messages)
            gemms.clear()
            assert list(eng.round_message()) == _reference_evaluate(polynomial, u, d, *_chi_parts(chi)), j
            paths.append((eng.dense, counted, len(int_messages) > before, frozenset(gemms)))
            eng.bind(r)
            table, chi = (
                np.array([(a + r * (b - a)) % Q for a, b in x.reshape(-1, 2).tolist()], dtype=np.uint64)
                for x in (table, chi)
            )
            assert np.array_equal(eng.values[eng.ids], table), j
    finally:
        m61.matmul = matmul
    return paths


def _spread_pairs(g, bits, spread):
    """A 2^bits-entry table whose columns hold ``spread`` distinct pairs of
    field elements, each in at least one column, in random column order."""
    pairs = g.integers(0, Q, (spread, 2), dtype=np.uint64)
    return pairs[g.permutation(np.arange(1 << (bits - 1)) % spread)].reshape(-1)


def _table(g, style, bits, spread):
    """"field": random field elements, every pair distinct from round 0;
    "small": entries below ``spread``, bucketed like a frequency table;
    "pairs": ``spread`` distinct column pairs of field elements."""
    if style == "field":
        return g.integers(0, Q, 1 << bits, dtype=np.uint64)
    if style == "small":
        return g.integers(0, spread, 1 << bits).astype(np.uint64)
    return _spread_pairs(g, bits, min(spread, 1 << (bits - 1)))


class TestEngineRounds:
    """Engines through every round of random tables against the direct
    formula on the folded table: pairs ranked by sorting or by counting,
    dense rounds, the wide and narrow GEMMs, and messages and binds in
    Python ints, with and without the collision term."""

    CAPS = [1, 2, 8, 33, 128]
    # the largest table (log2 of its entries) that keeps a cap's reference evaluation quick
    MAX_BITS = {1: 12, 2: 12, 8: 12, 33: 9, 128: 7}

    @given(
        st.sampled_from(CAPS),
        st.booleans(),
        st.integers(1, 12),
        st.sampled_from(["field", "small", "pairs"]),
        st.integers(1, 80),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_tables(self, degree_cap, collisions, bits, style, spread, seed):
        g = rng(seed)
        table = _table(g, style, min(bits, self.MAX_BITS[degree_cap]), spread)
        _rounds_against_folded_table(_polynomial(g, degree_cap, collisions), table, g)

    @pytest.mark.parametrize("collisions", [False, True])
    def test_every_path_is_taken(self, collisions):
        # the tables of the random test at a few fixed draws, whose rounds
        # between them take every path
        g = rng(8 + collisions)
        paths = set()
        cases = ((8, "small", 12, 3), (8, "field", 10, 1), (2, "pairs", 12, 40), (33, "small", 9, 60))
        for degree_cap, style, bits, spread in cases:
            table = _table(g, style, bits, spread)
            paths |= set(_rounds_against_folded_table(_polynomial(g, degree_cap, collisions), table, g))
        assert {path[0] for path in paths} == {False, True}  # ranked and dense rounds
        assert any(path[1] for path in paths) and any(not path[0] and not path[1] for path in paths)  # counted, sorted
        assert {path[2] for path in paths} == {False, True}  # numpy and Python-int messages
        assert set().union(*(path[3] for path in paths)) == {"wide", "narrow"}

    @pytest.mark.parametrize("distinct", [3, 4, 5])
    def test_counting_at_values_squared_equal_to_columns(self, distinct):
        # 16 columns of entries below ``distinct``, one of them (distinct - 1,
        # distinct - 1): the largest key is distinct^2 - 1, so round 0 ranks
        # its pairs by counting exactly when distinct^2 <= 16
        g = rng(distinct)
        table = g.integers(0, distinct, 32).astype(np.uint64)
        table[:2] = distinct - 1
        for degree_cap, collisions in ((8, False), (8, True), (2, True)):
            paths = _rounds_against_folded_table(_polynomial(g, degree_cap, collisions), table, g)
            assert paths[0][1] == (distinct**2 <= 16)

    @pytest.mark.parametrize("degree_cap,collisions", [(8, False), (8, True), (2, True), (1, False)])
    @pytest.mark.parametrize("above", [0, 1])
    def test_python_ints_up_to_the_work_bound(self, degree_cap, collisions, above):
        # round 0 has as many distinct pairs as the work bound allows, or one
        # more, and more columns than pairs, so it is not dense
        g = rng(degree_cap)
        polynomial = _polynomial(g, degree_cap, collisions)
        pairs = stream_ip._TAIL_WORK // _engine(polynomial).pair_work + above
        paths = _rounds_against_folded_table(polynomial, _spread_pairs(g, pairs.bit_length() + 1, pairs), g)
        assert paths[0][:3] == (False, False, not above)

    def test_dense_from_different_rounds(self):
        # an engine turns dense at the first round whose column pairs are
        # all distinct, and stays dense
        g = rng(7)
        first = []
        for table in (
            g.integers(0, Q, 64, dtype=np.uint64),  # from round 0
            g.integers(0, 3, 1 << 12).astype(np.uint64),  # a few rounds in
            _spread_pairs(g, 6, 1),  # one pair in every column: the last round, of one column
        ):
            dense = [path[0] for path in _rounds_against_folded_table(_polynomial(g, 8, True), table, g)]
            assert dense == sorted(dense)
            first.append(dense.index(True))
        assert first[0] == 0 < first[1] < first[2] == 5


def _v_to_p_bits(cfg, completed=True):
    """The bits a session sends the prover: the stream, then, if the
    sum-check ran, zeta, the batching coefficients and b - 1 challenges."""
    bits = cfg.n * cfg.b
    if completed:
        bits += stream_ip.FIELD_BITS * (cfg.b + 1 + (cfg.decision_statistic == "collisions") + cfg.b - 1)
    return bits


def _assert_one_stream(res, cfg, completed=True):
    """The session metered one pass of n samples and sent them once."""
    assert res.verifier_queries == cfg.n
    assert res.channel_counters["bits_v_to_p"] == _v_to_p_bits(cfg, completed)


class TestCapAnnouncement:
    CFG = UniformityConfig(k=256, epsilon=0.9, distribution="support_fraction", allow_small_epsilon=True)
    CEILING = 32 << stream_ip.MAX_WIDENINGS  # 512 < n = 2766

    def test_widening_path(self):
        # max frequency slightly above the initial cap: the honest prover
        # announces D = max f after the one pass and the session completes
        cfg = UniformityConfig(
            k=256, epsilon=1.0, degree_cap=8, distribution="support_fraction", support_fraction=0.5,
            allow_small_epsilon=True,
        )
        for i in range(10):
            res = cfg.run_one(cfg.sample_instance("x", rng(i)), HonestStreamProver(), seed=6000 + i)
            assert res.accepted
            samples = cfg.sample_instance("x", rng(i)).draw_batch(derive_rng(res.seed, "stream"), cfg.n)
            # lambda = 17.5 per cell always exceeds the cap of 8
            assert res.extras["final_degree_cap"] == np.bincount(samples).max() > cfg.degree_cap
            _assert_one_stream(res, cfg)

    def test_too_many_widenings_abort_after_one_stream(self):
        # a point mass puts all n = 1383 samples in one cell: the cap it needs
        # is above the ceiling 4 * 2^MAX_WIDENINGS = 64, and the 7-bit cap
        # message can say no more than 127
        cfg = UniformityConfig(k=64, epsilon=0.9, degree_cap=4, distribution="point_mass", allow_small_epsilon=True)
        prover = HonestStreamProver()
        res = cfg.run_one(cfg.make_distribution("point_mass"), prover, seed=6100)
        assert prover.announced_cap(4) == cfg.n == 1383 > 4 << stream_ip.MAX_WIDENINGS == 64
        assert not res.accepted
        assert res.abort_reason == "prover announced degree cap 127, outside 1..64"
        _assert_one_stream(res, cfg, completed=False)

    @pytest.mark.parametrize("cap", [0, CEILING + 1])
    def test_cap_outside_the_range_aborts_after_one_stream(self, cap):
        cfg = self.CFG
        res = cfg.run_one(cfg.make_distribution("uniform"), _FixedCapProver(cap), seed=6200)
        assert not res.accepted
        assert res.abort_reason == f"prover announced degree cap {cap}, outside 1..{self.CEILING}"
        _assert_one_stream(res, cfg, completed=False)

    def test_ceiling_itself_is_accepted(self):
        cfg = self.CFG
        res = cfg.run_one(cfg.make_distribution("uniform"), _FixedCapProver(self.CEILING), seed=6201)
        assert res.accepted and res.extras["final_degree_cap"] == self.CEILING

    @pytest.mark.parametrize("which", ["uniform", "support_fraction"])
    def test_honest_announcement_takes_the_ceilings_width(self, which):
        cfg = UniformityConfig(k=256, epsilon=0.9, distribution=which, allow_small_epsilon=True, record_transcript=True)
        res = cfg.run_one(cfg.make_distribution(which), HonestStreamProver(), seed=6202)
        assert res.accepted
        lines = [json.loads(line) for line in res.transcript_lines]
        bits = [line for line in lines if line["payload_kind"] == "bits"]
        assert [(line["direction"], line["size_bits_or_qudits"]) for line in bits] == [
            ("p->v", self.CEILING.bit_length())
        ]

    @pytest.mark.parametrize("which", ["uniform", "support_fraction"])
    def test_verdicts_match_the_power_of_two_cap(self, which):
        cfg = self.CFG
        hidden = cfg.make_distribution(which)
        for seed in range(40):
            tight = cfg.run_one(hidden, HonestStreamProver(), seed=seed)
            old = cfg.run_one(hidden, _PowerOfTwoCapProver(cfg), seed=seed)
            assert (tight.output, tight.accepted) == (old.output, old.accepted)
            assert tight.accepted
            assert tight.extras["final_degree_cap"] <= old.extras["final_degree_cap"]


class _StreamShoppingProver(HonestStreamProver):
    """Announces a cap one above the one it needs whenever its honest verdict
    is not "uniform", as if a wider cap could buy a fresh stream."""

    name = "stream-shopping"

    def announced_cap(self, degree_cap):
        cap = super().announced_cap(degree_cap)
        verdict = collision_verdict(self.claims(cap)[1], self.cfg.collision_threshold)
        return cap + (verdict != "uniform")


class TestStreamShopping:
    def test_wider_cap_does_not_change_the_verdict(self):
        # 98 of 256 values: near the collision threshold, so both verdicts occur
        cfg = UniformityConfig(
            k=256, epsilon=0.9, distribution="support_fraction", support_fraction=0.385, allow_small_epsilon=True
        )
        hidden = cfg.make_distribution("support_fraction")
        assert hidden.support == 98
        shopped = set()
        for i in range(40):
            honest = cfg.run_one(hidden, HonestStreamProver(), seed=10_000 + i)
            shopper = cfg.run_one(hidden, _StreamShoppingProver(cfg), seed=10_000 + i)
            assert honest.accepted and shopper.accepted
            assert shopper.output == honest.output
            extra = shopper.extras["final_degree_cap"] - honest.extras["final_degree_cap"]
            assert extra == (honest.output != "uniform")
            shopped.add(extra)
            _assert_one_stream(shopper, cfg)
        assert shopped == {0, 1}  # both verdicts were seen


class _FixedCapProver(HonestStreamProver):
    """Honest, except that it announces ``cap`` as its degree cap."""

    def __init__(self, cap):
        super().__init__()
        self.cap = cap

    def announced_cap(self, degree_cap):
        return self.cap


class _PowerOfTwoCapProver(HonestStreamProver):
    """Announces the cap the unary widening protocol ended at: the config's
    cap doubled the fewest times to cover every frequency, at most n."""

    def announced_cap(self, degree_cap):
        cap = degree_cap
        while cap < super().announced_cap(degree_cap):
            cap *= 2
        return min(cap, self.cfg.n)


class TestTransientMemory:
    """tracemalloc peaks of the verifier's stream pass and of the prover's
    rounds at k = 2^16, guards against whole-stream or whole-table scratch."""

    def test_update_batch_peak(self):
        cfg = UniformityConfig(k=1 << 16, epsilon=0.75)
        samples = rng(40).integers(0, cfg.k, size=cfg.n)
        st = StreamVerifierState(cfg.k, rng(41))
        tracemalloc.start()
        try:
            st.update_batch(samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20

    def test_round_message_peak_on_bound_table(self):
        g = rng(43)
        freq = g.poisson(1.0, size=1 << 15).astype(np.uint64)
        eng = stream_ip._SumcheckEngine(stream_ip.DistinctTable.of(freq), _polynomial(g, 32, True), [m61.rand_fe(g) for _ in range(15)])
        eng.bind(m61.rand_fe(g))
        assert eng.ids.size == 1 << 14
        tracemalloc.start()
        try:
            eng.round_message()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 << 20

    def test_batched_sumcheck_peak(self):
        # one whole batched sum-check at k = 2^16, D = 33, on a Poisson table
        # of the default config's n = 63716 samples: the engine's values and
        # ids, each round's pair buckets and the pair blocks of its message.
        # 3.8 MiB is 1.5 times the 2.56 MiB the column-blocked range engine
        # peaked at; it guards the uniformity-k65536 benchmark's peak_rss_mb,
        # which may grow by at most 5%
        cfg = UniformityConfig(k=1 << 16, epsilon=0.75)
        g = rng(44)
        freq = g.poisson(cfg.n / cfg.k, size=cfg.k).astype(np.uint64)
        st = StreamVerifierState(cfg.k, g)
        tracemalloc.start()
        try:
            eng = stream_ip._SumcheckEngine(stream_ip.DistinctTable.of(freq), _polynomial(g, 33, True), st.zeta)
            for message in map(engine_rounds(eng), range(cfg.b), [None, *st.r[:-1]]):
                assert len(message) == 33 + 3  # deg g + 1 nodes, deg g = D + 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.8 * (1 << 20)


class TestInstrumentation:
    def test_memory_budget(self):
        for k in (16, 256, 1 << 16):
            b = k.bit_length() - 1
            for collisions in (False, True):
                st = StreamVerifierState(k, rng(17), collisions)
                assert st.peak_field_elements == 2 * b + 12 + 2 * collisions <= 4 * b + 16
        cfg = UniformityConfig(k=256, epsilon=0.9, allow_small_epsilon=True)
        res = cfg.run_one(cfg.make_distribution("uniform"), HonestStreamProver(), seed=2)
        assert res.accepted and "c_verified" in res.extras
        assert res.extras["peak_field_elements"] == 2 * 8 + 14

    def test_positive_tau_session_has_no_collision_registers(self):
        cfg = UniformityConfig(k=1 << 14, epsilon=1.0, allow_small_epsilon=True)
        assert cfg.decision_statistic == "unique"
        res = cfg.run_one(cfg.make_distribution("uniform"), HonestStreamProver(), seed=3)
        assert res.accepted
        assert "c_verified" not in res.extras
        assert res.extras["peak_field_elements"] == 2 * 14 + 12

    def test_communication_budget_full_scale(self):
        cfg = UniformityConfig()
        res = cfg.run_one(cfg.make_distribution("uniform"), HonestStreamProver(), seed=77)
        assert res.accepted
        assert res.extras["prover_field_elements"] <= 1200
        cap = res.extras["final_degree_cap"]
        samples = cfg.make_distribution("uniform").draw_batch(derive_rng(res.seed, "stream"), cfg.n)
        assert cap == np.bincount(samples).max()
        assert res.extras["prover_field_elements"] == 16 * (cap + 3) + 1
        _assert_one_stream(res, cfg)

    @pytest.mark.parametrize("k,epsilon", [(256, 0.9), (1 << 14, 1.0)])
    def test_challenges_are_metered_in_their_rounds(self, k, epsilon):
        # zeta and the batching coefficients after the claims, then one round
        # per sum-check round: the challenge the prover receives (none in the
        # first) and the message
        cfg = UniformityConfig(k=k, epsilon=epsilon, allow_small_epsilon=True, record_transcript=True)
        collisions = cfg.decision_statistic == "collisions"
        res = cfg.run_one(cfg.make_distribution("uniform"), HonestStreamProver(), seed=12)
        assert res.accepted
        lines = [json.loads(line) for line in res.transcript_lines]
        keys = ("round", "direction", "payload_kind", "size_bits_or_qudits")
        shape = [tuple(line[key] for key in keys) for line in lines]
        nodes, bits = res.extras["final_degree_cap"] + 3, stream_ip.FIELD_BITS
        claims = [(2, "p->v", "structured", shape[2 + i][3]) for i in range(1 + collisions)]
        reveal = [(3, "v->p", "zeta", bits * cfg.b), (3, "v->p", "batching-coefficients", bits * (1 + collisions))]
        rounds = []
        for j in range(cfg.b):
            rounds += [(4 + j, "v->p", "sumcheck-challenge", bits)] if j else []
            rounds += [(4 + j, "p->v", "sumcheck-msg", bits * nodes)]
        assert shape[:2] == [(0, "v->p", "sample-stream", cfg.n * cfg.b), (1, "p->v", "bits", shape[1][3])]
        assert shape[2:] == claims + reveal + rounds
        counters = res.channel_counters
        assert counters["bits_v_to_p"] == sum(size for _, direction, _, size in shape if direction == "v->p")
        assert counters["bits_p_to_v"] == sum(size for _, direction, _, size in shape if direction == "p->v")
        _assert_one_stream(res, cfg)

    def test_classical_channel_no_qudits(self):
        cfg = UniformityConfig(k=256, epsilon=0.9, allow_small_epsilon=True, degree_cap=16)
        res = cfg.run_one(cfg.make_distribution("uniform"), HonestStreamProver(), seed=1)
        ch = res.channel_counters
        assert ch["qudits_v_to_p"] == 0 and ch["qudits_p_to_v"] == 0
