"""Streaming uniformity IP: field arithmetic cross-checks, multilinear
extension updates, interpolation, sum-check mechanics, range certificate,
memory/communication instrumentation."""

import hashlib
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
    DecisionFlipProver,
    HonestStreamProver,
    StreamVerifierState,
    UniformityConfig,
    chi_table_for_point,
    collision_verdict,
    composed_factors,
    composed_value,
    engine_rounds,
    table_total,
    uniformity_verdict,
    verify_sumcheck,
)
from references import ClosingEngine, SequentialState, lagrange_eval


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


def _node_values(kind, degree_cap):
    """Each sum-check polynomial's values on the nodes 0..deg, from its
    definition: [y == 1] below the cap, the vanishing product over 0..D,
    and y(y-1)/2."""
    if kind == "unique":
        return [int(i == 1) for i in range(degree_cap + 1)]
    if kind == "range":
        return [math.prod(i - j for j in range(degree_cap + 1)) % Q for i in range(degree_cap + 2)]
    return [i * (i - 1) // 2 for i in range(3)]


class TestComposedPolynomials:
    """composed_value against the Lagrange interpolant of the node values,
    the verifier's closing check before the polynomials had one definition."""

    @pytest.mark.parametrize("kind", ["unique", "range", "collisions"])
    @pytest.mark.parametrize("degree_cap", [1, 2, 7, 8, 32, 33, 128])
    def test_equals_lagrange_of_node_values(self, kind, degree_cap):
        values = _node_values(kind, degree_cap)
        factors, _ = composed_factors(kind, degree_cap)
        assert len(factors) + 1 == len(values)  # degree len(factors), so len(factors) + 2 message nodes
        g = rng(degree_cap)
        points = [m61.rand_fe(g) for _ in range(20)]
        points += list(range(len(values) + 6))  # the nodes and integers past them
        points += [int(x) for x in g.integers(len(values), 1 << 20, 5)] + [Q - 1]
        weights = lagrange_weights(len(values))
        for y in points:
            assert composed_value(kind, degree_cap, y) == lagrange_eval(values, y, weights), y

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            composed_factors("median", 4)

    @pytest.mark.parametrize("kind", ["unique", "range", "collisions"])
    @pytest.mark.parametrize("degree_cap", [1, 2, 7, 8, 9, 33, 110])
    def test_moment_tables_equal_their_definition(self, kind, degree_cap):
        # g's coefficients times binomials, and powers of the nodes, in Python ints
        factors, constant = composed_factors(kind, degree_cap)
        coeffs = [constant]
        for i in factors:
            coeffs = [(prev - i * same) % Q for prev, same in zip([0, *coeffs], [*coeffs, 0])]
        n = len(coeffs)
        triangle, vandermonde = stream_ip._moment_tables(factors, constant)
        assert triangle.tolist() == [
            [coeffs[a + p] * math.comb(a + p, a) % Q if a + p < n else 0 for p in range(n)] for a in range(n)
        ]
        assert vandermonde.tolist() == [[pow(t, a, Q) for a in range(n + 1)] for t in range(n + 1)]

    def test_collision_tables_are_shared_by_every_cap(self):
        assert composed_factors("collisions", 2) is composed_factors("collisions", 64)
        table = np.zeros(2, dtype=np.uint64)
        engines = [stream_ip._SumcheckEngine(table, cap, "collisions") for cap in (2, 64)]
        assert engines[0].triangle is engines[1].triangle


class TestTableTotal:
    """table_total, the provers' one claim formula, against brute force."""

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
                total = table_total("unique", cap, freq)
                assert type(total) is int and total == int((freq == 1).sum())

    def test_collision_total_is_the_pair_count(self):
        for freq in self._tables():
            f = freq.astype(np.int64)
            for cap in (1, 2, 32):
                assert table_total("collisions", cap, freq) == int((f * (f - 1) // 2).sum())

    def test_over_cap_total_sums_the_capped_interpolant(self):
        # the claim of RangeClampProver, whose table has entries above the cap
        for freq in self._tables():
            for cap in (2, 8, 32):
                assert int(freq.max()) > cap
                brute = sum(composed_value("unique", cap, int(y)) for y in freq) % Q
                assert table_total("unique", cap, freq) == brute


class TestVerifierState:
    def test_empty_stream_is_zero(self):
        st = StreamVerifierState(16, rng(5))
        assert st.a_at_r == 0 and st.a_at_r2 == 0

    def test_single_sample_all_zero_point(self):
        st = SequentialState(16, rng(6))
        st.r = [0, 0, 0, 0]
        st.update(0)
        assert st.a_at_r == 1  # chi_0(0) = 1

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

    def test_batch_equals_sequential(self):
        g = rng(8)
        k = 64
        samples = g.integers(0, k, size=2 * m61.CHUNK + 5)  # three update_batch chunks
        seq = SequentialState(k, rng(9))
        bat = StreamVerifierState(k, rng(9))
        for s in samples:
            seq.update(int(s))
        bat.update_batch(samples)
        assert (seq.a_at_r, seq.a_at_r2) == (bat.a_at_r, bat.a_at_r2)
        assert seq.sample_count == bat.sample_count
        assert seq.register_count == bat.register_count

    def test_batch_equals_sequential_with_collision_point(self):
        g = rng(18)
        k = 64
        samples = g.integers(0, k, size=2 * m61.CHUNK + 5)
        seq = SequentialState(k, rng(9), rng(19))
        bat = StreamVerifierState(k, rng(9), rng(19))
        for s in samples:
            seq.update(int(s))
        bat.update_batch(samples)
        assert (seq.a_at_r, seq.a_at_r2, seq.a_at_r3) == (bat.a_at_r, bat.a_at_r2, bat.a_at_r3)
        # the first three points come from the same draws as without r3
        plain = StreamVerifierState(k, rng(9))
        assert (plain.r, plain.r2, plain.zeta) == (bat.r, bat.r2, bat.zeta)
        assert plain.r3 is None

    @pytest.mark.parametrize("collision", [False, True])
    @pytest.mark.parametrize("k", [2, 8, 128])
    def test_batch_equals_sequential_on_uneven_splits(self, k, collision):
        # b = 1, 3, 7: h = b // 2 = 0, 1, 3 low bits, so the halves differ in size
        samples = rng(k).integers(0, k, size=2 * m61.CHUNK + 5)
        seq, bat = (SequentialState(k, rng(9), rng(19) if collision else None) for _ in range(2))
        for s in samples:
            seq.update(int(s))
        bat.update_batch(samples)
        values = [value for _, value in seq.maintained]
        assert len(values) == 2 + collision
        assert [getattr(seq, v) for v in values] == [getattr(bat, v) for v in values]

    @pytest.mark.parametrize("b", [1, 3, 7, 16])
    def test_chi_table_splits_into_halves(self, b):
        g = rng(b)
        p = [m61.rand_fe(g) for _ in range(b)]
        h = b // 2
        low = chi_table_for_point(1 << h, p[:h])
        high = chi_table_for_point(1 << (b - h), p[h:])
        x = np.arange(1 << b)
        assert np.array_equal(chi_table_for_point(1 << b, p), m61.vmul(low[x % (1 << h)], high[x >> h]))

    def test_out_of_range_rejected(self):
        st = SequentialState(16, rng(10))
        with pytest.raises(ValueError):
            st.update(16)


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


class TestSumcheckMechanics:
    def _cfg(self):
        return UniformityConfig(k=256, epsilon=0.9, degree_cap=32, allow_small_epsilon=True)

    def test_totals_equal_brute_force_on_random_streams(self):
        cfg = self._cfg()
        for i in range(100):
            res = cfg.run_one(cfg.make_distribution("uniform"), HonestStreamProver(), seed=3000 + i)
            assert res.accepted, res.abort_reason
            # claimed-and-verified Z equals the brute-force unique count of
            # the session's one stream (replayed from the same derived rng)
            from ipsim.harness import derive_rng

            samples = cfg.make_distribution("uniform").draw_batch(derive_rng(res.seed, "stream"), cfg.n)
            z_brute = int((np.bincount(samples, minlength=cfg.k) == 1).sum())
            assert res.extras["z_verified"] == z_brute

    def test_zero_length_stream_claim_zero(self):
        # engine-level: empty table sums to 0 and verifies against claim 0
        freq = np.zeros(16, dtype=np.uint64)
        st = StreamVerifierState(16, rng(11))
        eng = stream_ip._SumcheckEngine(freq, 4, "unique")

        def rounds(j, r_prev):
            if r_prev is not None:
                eng.bind(r_prev)
            return eng.round_message()

        out = stream_ip.run_sumcheck(0, rounds, st.r, 6, lambda: composed_value("unique", 4, st.a_at_r))
        assert out.verified
        eng = stream_ip._SumcheckEngine(freq, 4, "unique")
        assert verify_sumcheck("unique", 0, eng, st.r, 4, st.a_at_r).verified

    def test_shift_liar_rejected_every_time(self):
        cfg = UniformityConfig(k=16, epsilon=0.9, degree_cap=8, allow_small_epsilon=True)
        for i in range(200):
            res = cfg.run_one(
                cfg.make_distribution("uniform"), stream_ip.ShiftClaimProver(), seed=4000 + i
            )
            assert not res.accepted
            assert "sum-check rejected" in res.abort_reason

    def test_engine_bucketed_equals_direct(self):
        g = rng(12)
        freq = g.integers(0, 5, size=2048).astype(np.uint64)
        a = stream_ip._SumcheckEngine(freq.copy(), 8, "unique")
        msg_bucketed = a.round_message()
        assert len(a.pairs) <= 25 < freq.size // 2  # 1024 column pairs of 5 x 5 values
        # every column pair on its own, count 1, in table order
        u, d = freq[0::2], m61.vsub(freq[1::2], freq[0::2])
        direct = a._evaluate(u, d, np.ones(u.size, dtype=np.uint64))
        assert list(msg_bucketed) == direct
        assert len(msg_bucketed) == a.num_nodes == 8 + 2


def _reference_evaluate(engine, u, d, counts=None, chi_u=None, chi_d=None):
    """The direct round evaluation: every node's blend in one array, one
    factor (y - i) at a time, no pairing and no column blocks."""
    factors, constant = composed_factors(engine.kind, engine.degree_cap)
    L = len(factors) + 2
    blends = np.empty((L, u.size), dtype=np.uint64)
    blends[0] = u
    for t in range(1, L):
        blends[t] = m61.vadd(blends[t - 1], d)
    flat = blends.reshape(-1)
    acc = np.ones_like(flat)
    for i in factors:
        acc = m61.vmul(acc, m61.vsub(flat, i % Q))
    if chi_u is not None:
        chib = np.empty((L, u.size), dtype=np.uint64)
        chib[0] = chi_u
        for t in range(1, L):
            chib[t] = m61.vadd(chib[t - 1], chi_d)
        acc = m61.vmul(acc, chib.reshape(-1))
    if counts is not None:
        acc = m61.vmul(acc, np.broadcast_to(counts, (L, u.size)).reshape(-1))
    acc = acc.reshape(L, u.size)
    out = [m61.vsum(acc[t]) for t in range(L)]
    if constant != 1:
        out = [fmul(constant, v) for v in out]
    return out


def _chi_parts(chi):
    """chi's u and d parts on a round's pairs, as ``_reference_evaluate`` takes them."""
    return {"chi_u": chi[0::2], "chi_d": m61.vsub(chi[1::2], chi[0::2])}


def _transcript_sha256(k, lam, degree_cap, kind, seed):
    """sha256 over every round message and the final value of one engine run
    on a Poisson(lam) table capped at degree_cap, bound at StreamVerifierState
    points drawn from ``seed``."""
    g = rng(seed)
    freq = np.minimum(g.poisson(lam, size=k), degree_cap).astype(np.uint64)
    st = StreamVerifierState(k, g)
    eng = ClosingEngine(freq, degree_cap, kind, chi_point=st.zeta if kind == "range" else None)
    h = hashlib.sha256()
    for j in range(len(st.r)):
        if j:
            eng.bind(st.r[j - 1])
        h.update(repr(eng.round_message()).encode())
    eng.bind(st.r[-1])
    h.update(repr(eng.final_value()).encode())
    return h.hexdigest()


ENGINE_CASES = [(kind, D) for kind in ("unique", "range") for D in (2, 7, 8, 32, 33, 128)] + [("collisions", 2)]


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
            for kind, cap in (("unique", 4), ("range", 7), ("collisions", 2)):
                assert stream_ip.DistinctTable.of(table).total(kind, cap) == table_total(kind, cap, table)

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
        assert stream_ip._SumcheckEngine(freq, 4, "unique").ids.dtype == np.int32
        sorted_keys.clear()  # the engine's first round sorts its column pairs
        for top in (freq.size, Q - 1):
            table = freq.copy()
            table[5] = top
            values, ids = stream_ip.DistinctTable.of(table)
            assert len(sorted_keys) == 1 and np.array_equal(sorted_keys.pop(), table)
            assert ids.dtype == np.int64 and np.array_equal(values[ids], table)


class TestRankedTables:
    """Every claim and engine ranks the table that ``table(kind, degree_cap)``
    returns: the honest prover's frequency table, or a lying prover's
    clamped or doctored one."""

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

    def test_honest_sumchecks_rank_the_frequency_table(self, monkeypatch):
        cfg = self._cfg()
        assert cfg.decision_statistic == "collisions"  # unique, range and collision sum-checks all run
        prover = HonestStreamProver()
        res, tables = self._ranked_tables(monkeypatch, cfg, prover, "uniform")
        assert res.accepted, res.abort_reason
        # the unique claim and engine, the range engine, the collision claim and engine
        assert len(tables) == 5 and all(table is prover.freq for table in tables)
        zeta = [m61.rand_fe(rng(1)) for _ in range(cfg.b)]
        prover.engine("unique", 32)
        prover.engine("range", 32, zeta)
        prover.claim("collisions", 32)
        assert len(tables) == 8 and all(table is prover.freq for table in tables)

    def test_range_clamp_ranks_its_clamped_table(self, monkeypatch):
        cfg = self._cfg(degree_cap=4, distribution="point_mass")
        prover = stream_ip.RangeClampProver()
        res, tables = self._ranked_tables(monkeypatch, cfg, prover, "point_mass")
        assert not res.accepted and "range certificate rejected" in res.abort_reason
        # the unique claim and engine, then the range engine
        assert [table is prover.freq for table in tables] == [True, True, False]
        assert np.array_equal(tables[2], np.minimum(prover.freq, np.uint64(4)))

    def test_decision_flip_ranks_its_doctored_collision_table(self, monkeypatch):
        cfg = self._cfg()
        prover = DecisionFlipProver(cfg)
        res, tables = self._ranked_tables(monkeypatch, cfg, prover, "uniform")
        assert not res.accepted and "collision-count sum-check rejected" in res.abort_reason
        assert [table is prover.freq for table in tables] == [True] * 3 + [False] * 2
        assert all(table is prover.doctored for table in tables[3:])
        assert not np.array_equal(prover.doctored, prover.freq)


class TestEngineAgainstReference:
    """The pair-blocked moment evaluation and the pair bucketing against the
    direct formula; exact arithmetic, so equal to the last bit."""

    @staticmethod
    def _weights(g, m, value=None, count=None):
        """The three weightings a round passes, as (``_evaluate`` arguments,
        ``_reference_evaluate`` arguments): none (every count 1), bucket
        counts, and a weight w times a line alpha + beta t, which is chi with
        u and d parts alpha w and beta w."""
        ones = np.ones(m, dtype=np.uint64)
        if value is not None:
            counts = np.full(m, count, dtype=np.uint64)
            w = np.full(m, value, dtype=np.uint64)
            alpha = beta = value
        else:
            counts = g.integers(1, 1 << 20, m).astype(np.uint64)
            w = g.integers(0, Q, m, dtype=np.uint64)
            alpha, beta = m61.rand_fe(g), m61.rand_fe(g)
        chi = {"chi_u": m61.vmul(w, alpha), "chi_d": m61.vmul(w, beta)}
        return [
            ({"weight": ones}, {}),
            ({"weight": counts}, {"counts": counts}),
            ({"weight": w, "line": (alpha, beta)}, chi),
        ]

    @pytest.mark.parametrize("kind,degree_cap", ENGINE_CASES)
    def test_evaluate_equals_reference(self, kind, degree_cap):
        eng = stream_ip._SumcheckEngine(np.zeros(2, dtype=np.uint64), degree_cap, kind)
        n = eng.num_nodes - 1  # powers 0..deg g
        g = rng(degree_cap)
        # the column block of the paired-factor evaluation this kernel replaced
        old_block = max(1, m61.CHUNK // eng.num_nodes)
        block = stream_ip._LADDER_ELEMS // (2 * n)  # pairs per block
        switch = n  # blocks of fewer distinct u contract the powers first
        sizes = {old_block - 1, old_block, 2 * old_block + 5, block - 1, block, 2 * block + 5, switch - 1, switch}
        for case in range(3):
            for m in sorted(sizes):
                u, d = (g.integers(0, Q, m, dtype=np.uint64) for _ in range(2))
                u[:3] = [0, 1, Q - 1][:m]  # blends through 0, small integers and the wrap at Q
                extra, ref = self._weights(g, m)[case]
                assert eng._evaluate(u, d, **extra) == _reference_evaluate(eng, u, d, **ref), (case, m)

    @pytest.mark.parametrize("kind,degree_cap", ENGINE_CASES)
    def test_full_block_of_maximal_elements(self, kind, degree_cap):
        # every pair and field weight Q - 1: the largest limbs the GEMMs see,
        # on one full block of each weighting; the pairs form one run of
        # equal u whose counts add up to 2^32, the most its segment sums hold
        eng = stream_ip._SumcheckEngine(np.zeros(2, dtype=np.uint64), degree_cap, kind)
        n = eng.num_nodes - 1
        m = stream_ip._LADDER_ELEMS // (2 * n)
        u = np.full(m, Q - 1, dtype=np.uint64)
        for case in range(3):
            extra, ref = self._weights(None, m, Q - 1, (1 << 32) // m)[case]
            assert eng._evaluate(u, u, **extra) == _reference_evaluate(eng, u, u, **ref), case

    @pytest.mark.parametrize("kind", ["unique", "range"])
    def test_widened_cap_on_small_table(self, kind):
        # D = 512, the widest cap a D0 = 32 session can reach, on 64 entries
        g = rng(512)
        table = g.integers(0, Q, 64, dtype=np.uint64)
        zeta = [m61.rand_fe(g) for _ in range(6)] if kind == "range" else None
        eng = stream_ip._SumcheckEngine(table, 512, kind, chi_point=zeta)
        extra = {} if zeta is None else _chi_parts(chi_table_for_point(64, zeta))
        want = _reference_evaluate(eng, table[0::2], m61.vsub(table[1::2], table[0::2]), **extra)
        assert list(eng.round_message()) == want

    def test_gemm_block_keeps_limb_sums_exact(self):
        # a GEMM dot product of GEMM_BLOCK limb products stays below 2^53
        assert m61.GEMM_BLOCK * ((1 << 21) - 1) ** 2 < 1 << 53

    @pytest.mark.parametrize("kind,degree_cap", ENGINE_CASES)
    def test_round_message_equals_reference(self, kind, degree_cap):
        g = rng(100 + degree_cap)
        for table in (
            g.integers(0, min(degree_cap, 4) + 1, 4096).astype(np.uint64),  # buckets
            # every pair distinct; a range table spans a cube, as chi does
            g.integers(0, Q, 256 if kind == "range" else 300, dtype=np.uint64),
        ):
            zeta = [m61.rand_fe(g) for _ in range(table.size.bit_length() - 1)] if kind == "range" else None
            eng = stream_ip._SumcheckEngine(table, degree_cap, kind, chi_point=zeta)
            u = table[0::2]
            d = m61.vsub(table[1::2], u)
            assert (len(eng.pairs) < u.size) == (table.size == 4096)
            extra = {} if zeta is None else _chi_parts(chi_table_for_point(table.size, zeta))
            want = _reference_evaluate(eng, u, d, **extra)
            assert list(eng.round_message()) == want

    def test_group_matches_row_unique(self):
        # the first round's pairs are the distinct (u, v) column pairs in
        # row-unique order, with their counts, and each column's pair index
        g = rng(30)
        for u_vals, d_vals in ((3, 5), (40, 2), (600, 600)):
            u = g.integers(0, u_vals, 5000).astype(np.uint64) * np.uint64(1 << 40)
            d = g.integers(Q - d_vals, Q, 5000, dtype=np.uint64)
            columns = np.stack([u, m61.vadd(u, d)], axis=1)
            eng = stream_ip._SumcheckEngine(columns.reshape(-1), 2, "collisions")
            uniq, inverse, counts = np.unique(columns, axis=0, return_inverse=True, return_counts=True)
            assert np.array_equal(eng.values[eng.pairs], uniq)
            assert np.array_equal(eng.pair_of_column, inverse.reshape(-1))
            assert np.array_equal(eng.weight, counts)
        # bucketing runs at every size, below the 1024 pairs where it once began
        for pairs in (1, 1023, 1024):
            eng = stream_ip._SumcheckEngine(np.zeros(2 * pairs, dtype=np.uint64), 2, "collisions")
            assert eng.pairs.tolist() == [[0, 0]] and eng.weight.tolist() == [pairs]

    @pytest.mark.parametrize(
        "k,degree_cap,grouped",
        [(4096, 2, True), (4096, 32, True), (256, 2, False), (256, 32, False), (64, 512, False)]
        + [(2, D, False) for D in (2, 32, 512)],
    )
    def test_factored_range_rounds_equal_folded_chi(self, k, degree_cap, grouped, monkeypatch):
        # the range engine keeps chi factored; the reference folds the full
        # chi table with the frequency table each round and takes chi's u and
        # d parts from it
        g = rng(k + degree_cap)
        if grouped:
            freq = g.poisson(1.0, size=k).astype(np.uint64)
        else:
            freq = g.integers(0, Q, k, dtype=np.uint64)
        st = StreamVerifierState(k, g)
        builds = []
        monkeypatch.setattr(
            stream_ip, "chi_table_for_point", lambda n, p: builds.append(n) or chi_table_for_point(n, p)
        )
        eng = ClosingEngine(freq, degree_cap, "range", chi_point=st.zeta)
        table, chi = freq, chi_table_for_point(k, st.zeta)
        for j, r in enumerate(st.r):
            # the eq suffix, built once and folded by every bind
            assert np.array_equal(eng.suffix, chi_table_for_point(table.size // 2, st.zeta[j + 1 :]))
            u, d = table[0::2], m61.vsub(table[1::2], table[0::2])
            if j == 0:
                assert (len(eng.pairs) < u.size) == grouped
            assert list(eng.round_message()) == _reference_evaluate(eng, u, d, **_chi_parts(chi))
            eng.bind(r)
            table, chi = (stream_ip._SumcheckEngine._fold(x, r) for x in (table, chi))
            assert np.array_equal(eng.values[eng.ids], table)
        assert builds == [k // 2]
        a_at_r = m61.vsum(m61.vmul(freq, chi_table_for_point(k, st.r)))
        want = fmul(st.chi_pair(st.r, st.zeta), composed_value("range", degree_cap, a_at_r))
        assert eng.final_value() == want == fmul(int(chi[0]), composed_value("range", degree_cap, int(table[0])))

    @pytest.mark.parametrize("kind", ["unique", "range"])
    @pytest.mark.parametrize("pairs_per_block", [None, 16])
    def test_factored_path_on_few_distinct_u(self, kind, pairs_per_block, monkeypatch):
        # Poisson(1) at k = 2^14: rounds 1-3 have far fewer distinct u than
        # pairs. Every round's message equals the direct formula on the
        # folded table (bucket counts for "unique", eq suffix and line for
        # "range"), and the unweighted sum over the round's distinct pairs
        # equals it too. Round 3 at the default block, and rounds 2 and 3 at
        # 16 pairs per block, have runs of equal u cut by a block boundary;
        # at 16 pairs some runs span whole blocks.
        g = rng(60)
        freq = g.poisson(1.0, size=1 << 14).astype(np.uint64)
        st = StreamVerifierState(freq.size, g)
        zeta = st.zeta if kind == "range" else None
        eng = stream_ip._SumcheckEngine(freq, 32, kind, chi_point=zeta)
        n = eng.num_nodes - 1
        if pairs_per_block is not None:
            monkeypatch.setattr(stream_ip, "_LADDER_ELEMS", 2 * n * pairs_per_block)
        block = stream_ip._LADDER_ELEMS // (2 * n)
        table, chi = freq, None if zeta is None else chi_table_for_point(freq.size, zeta)
        segmented = cut = 0
        for j, r in enumerate(st.r):
            u = eng.values[eng.pairs[:, 0]]
            d = m61.vsub(eng.values[eng.pairs[:, 1]], u)
            segmented += np.unique(u).size < u.size
            cut += any(u[b - 1] == u[b] for b in range(block, u.size, block))
            extra = {} if chi is None else _chi_parts(chi)
            want = _reference_evaluate(eng, table[0::2], m61.vsub(table[1::2], table[0::2]), **extra)
            assert list(eng.round_message()) == want, j
            ones = np.ones(u.size, dtype=np.uint64)
            assert eng._evaluate(u, d, ones) == _reference_evaluate(eng, u, d), j
            eng.bind(r)
            table = stream_ip._SumcheckEngine._fold(table, r)
            if chi is not None:
                chi = stream_ip._SumcheckEngine._fold(chi, r)
        assert segmented >= 3 and cut >= 1

    # computed with the direct, unpaired and unblocked evaluation
    PINNED = {
        (4096, 3.0, 7, "unique"): "44b05898ee2a77fdd2b4bf8b1b164b4910303f4d3d717cb1023f7abf4e64cdbb",
        (4096, 3.0, 7, "range"): "7a2ffd7df9e8486490bdaebca02011d70cae77e8681f919bea1915b39e89ef0a",
        (4096, 3.0, 7, "collisions"): "eacfaeff5b47b935cd9a3f9c46e1a55e0aaa1f107e18074c00d477c5fd6a8fac",
        (256, 10.0, 33, "unique"): "43216661599c3d2b53c10b2ae45b606c9b7ca21f54c1c8ef6783cb5cbbdf66b8",
        (256, 10.0, 33, "range"): "866972bb0644c2a6193cc5c2aec6bc578d06a5f9f8184dd74710bdcb78450b98",
        (2048, 1.0, 2, "unique"): "62533c3e4b62e744409f4d8dbb9efce6d930dc46ed61fb1859d4283a01c217df",
        (2048, 1.0, 2, "range"): "1b6411a6034074310a6149aa63c1db3c3880c22b7fa398ac368576894c40f00c",
    }

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_pinned_transcripts(self, case):
        assert _transcript_sha256(*case, seed=11) == self.PINNED[case]


def _rounds_against_folded_table(kind, degree_cap, table, g):
    """Runs an engine on ``table`` through every round, at StreamVerifierState
    points drawn from ``g``, checking each message against
    ``_reference_evaluate`` on the folded table and, after each bind,
    ``values[ids]`` against the table folded in Python ints. Returns each
    round's (dense, ranked by counting, message in Python ints)."""
    points = StreamVerifierState(table.size, g)
    zeta = points.zeta if kind == "range" else None
    eng = stream_ip._SumcheckEngine(table, degree_cap, kind, chi_point=zeta)
    int_messages = []
    int_message = eng._int_message
    eng._int_message = lambda *args: int_messages.append(args) or int_message(*args)
    chi = None if zeta is None else chi_table_for_point(table.size, zeta)
    paths = []
    for j, r in enumerate(points.r):
        counted = eng.pair_of_column.dtype == np.int32  # ranked by _rank's counting, not sorted or dense
        u, d = table[0::2], m61.vsub(table[1::2], table[0::2])
        extra = {} if chi is None else _chi_parts(chi)
        before = len(int_messages)
        assert list(eng.round_message()) == _reference_evaluate(eng, u, d, **extra), j
        paths.append((eng.dense, counted, len(int_messages) > before))
        eng.bind(r)
        table, chi = (
            None if x is None else np.array([(a + r * (b - a)) % Q for a, b in x.reshape(-1, 2).tolist()], dtype=np.uint64)
            for x in (table, chi)
        )
        assert np.array_equal(eng.values[eng.ids], table), j
    return paths


def _spread_pairs(g, bits, spread):
    """A 2^bits-entry table whose columns hold ``spread`` distinct pairs of
    field elements, each in at least one column, in random column order."""
    pairs = g.integers(0, Q, (spread, 2), dtype=np.uint64)
    return pairs[g.permutation(np.arange(1 << (bits - 1)) % spread)].reshape(-1)


class TestEngineRounds:
    """Engines through every round of random tables against the direct
    formula on the folded table: pairs ranked by sorting or by counting,
    dense rounds, and messages and binds in Python ints."""

    KINDS = [(kind, D) for kind in ("unique", "range") for D in (1, 2, 8, 33, 128)] + [("collisions", 2)]
    # the largest table (log2 of its entries) that keeps a cap's reference evaluation quick
    MAX_BITS = {1: 12, 2: 12, 8: 12, 33: 9, 128: 7}

    @given(
        st.sampled_from(KINDS),
        st.integers(1, 12),
        st.sampled_from(["field", "small", "pairs"]),
        st.integers(1, 80),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150)
    def test_random_tables(self, case, bits, style, spread, seed):
        # "field": random field elements, every pair distinct from round 0;
        # "small": entries below ``spread``, bucketed like a frequency table;
        # "pairs": ``spread`` distinct column pairs of field elements
        kind, degree_cap = case
        bits = min(bits, self.MAX_BITS[degree_cap])
        g = rng(seed)
        if style == "field":
            table = g.integers(0, Q, 1 << bits, dtype=np.uint64)
        elif style == "small":
            table = g.integers(0, spread, 1 << bits).astype(np.uint64)
        else:
            table = _spread_pairs(g, bits, min(spread, 1 << (bits - 1)))
        _rounds_against_folded_table(kind, degree_cap, table, g)

    @pytest.mark.parametrize("distinct", [3, 4, 5])
    def test_counting_at_values_squared_equal_to_columns(self, distinct):
        # 16 columns of entries below ``distinct``, one of them (distinct - 1,
        # distinct - 1): the largest key is distinct^2 - 1, so round 0 ranks
        # its pairs by counting exactly when distinct^2 <= 16
        g = rng(distinct)
        table = g.integers(0, distinct, 32).astype(np.uint64)
        table[:2] = distinct - 1
        for kind, degree_cap in (("unique", 8), ("range", 8), ("collisions", 2)):
            paths = _rounds_against_folded_table(kind, degree_cap, table, g)
            assert paths[0][1] == (distinct**2 <= 16)

    @pytest.mark.parametrize("kind,degree_cap", [("unique", 8), ("range", 8), ("collisions", 2), ("unique", 1)])
    @pytest.mark.parametrize("above", [0, 1])
    def test_python_ints_up_to_the_work_bound(self, kind, degree_cap, above):
        # round 0 has as many distinct pairs as the work bound allows, or one
        # more, and more columns than pairs, so it is not dense
        pair_work = stream_ip._SumcheckEngine(np.zeros(2, dtype=np.uint64), degree_cap, kind).pair_work
        pairs = stream_ip._TAIL_WORK // pair_work + above
        g = rng(pairs)
        paths = _rounds_against_folded_table(kind, degree_cap, _spread_pairs(g, pairs.bit_length() + 1, pairs), g)
        assert paths[0] == (False, False, not above)

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
            dense = [path[0] for path in _rounds_against_folded_table("unique", 8, table, g)]
            assert dense == sorted(dense)
            first.append(dense.index(True))
        assert first[0] == 0 < first[1] < first[2] == 5


class _CollisionOffsetProver(HonestStreamProver):
    name = "collision-offset"

    def __init__(self, offset):
        self.offset = offset

    def claim(self, kind, degree_cap):
        return super().claim(kind, degree_cap) + self.offset * (kind == "collisions")


class TestCollisionSumcheck:
    def _run_engine(self, freq, st):
        """Full sum-check of the collision engine against the brute-force
        total, closed by the dense extension of ``freq`` at st.r."""
        k = freq.size
        brute = int((freq.astype(np.int64) * (freq.astype(np.int64) - 1) // 2).sum())
        chi = chi_table_for_point(k, st.r)
        a_at_r = m61.vsum(m61.vmul(freq.astype(np.uint64), chi))
        eng = stream_ip._SumcheckEngine(freq.astype(np.uint64), 2, "collisions")
        out = stream_ip.run_sumcheck(
            brute % Q,
            engine_rounds(eng),
            st.r,
            4,
            lambda: composed_value("collisions", 2, a_at_r),
        )
        return brute, out

    @pytest.mark.parametrize("k", [64, 256, 4096])
    def test_engine_total_equals_brute_force(self, k):
        g = rng(20 + k)
        for trial in range(5):
            freq = g.integers(0, 6, size=k)
            freq[g.integers(0, k, size=3)] = 1000 + trial  # a few heavy hitters
            st = StreamVerifierState(k, rng(trial))
            eng = stream_ip._SumcheckEngine(freq.astype(np.uint64), 2, "collisions")
            # the first round buckets at every k: one pair per distinct (value, value) column pair
            assert len(eng.pairs) == np.unique(freq.reshape(-1, 2), axis=0).shape[0] < k // 2
            first = eng.round_message()
            brute, out = self._run_engine(freq, st)
            assert fadd(first[0], first[1]) == brute % Q
            assert out.verified, out.reason

    def test_collision_h_on_integers(self):
        for y in range(12):
            assert composed_value("collisions", 2, y) == y * (y - 1) // 2
        assert composed_value("collisions", 2, Q - 1) == 1  # h(-1) = 1

    def test_verified_count_equals_brute_force(self):
        cfg = UniformityConfig(k=256, epsilon=0.9, allow_small_epsilon=True)
        from ipsim.harness import derive_rng

        for which in ("uniform", "support_fraction"):
            for i in range(3):
                res = cfg.run_one(cfg.make_distribution(which), HonestStreamProver(), seed=8100 + i)
                assert res.accepted, res.abort_reason
                assert res.extras["decision_statistic"] == "collisions"
                assert not res.extras["in_regime"]
                stream_rng = derive_rng(res.seed, "stream")
                samples = cfg.make_distribution(which).draw_batch(stream_rng, cfg.n)
                f = np.bincount(samples, minlength=cfg.k)
                assert res.extras["c_verified"] == int((f * (f - 1) // 2).sum())
                want = "uniform" if which == "uniform" else "not uniform"
                assert res.output == want

    @pytest.mark.parametrize("offset", [1, -1])
    def test_off_by_one_claim_rejected_every_time(self, offset):
        cfg = UniformityConfig(k=16, epsilon=0.9, degree_cap=64, allow_small_epsilon=True)
        assert cfg.decision_statistic == "collisions"
        for i in range(100):
            res = cfg.run_one(
                cfg.make_distribution("uniform"), _CollisionOffsetProver(offset), seed=9000 + i
            )
            assert not res.accepted
            assert res.abort_reason.startswith("collision-count sum-check rejected")

    def test_decision_flip_caught_at_collision_final_check(self):
        # tau <= 0: the adversary doctors only the collision table, pushing its
        # count across the collision threshold, and keeps the unique count and
        # the range certificate honest
        cfg = UniformityConfig(k=256, epsilon=0.9, allow_small_epsilon=True)
        threshold = cfg.collision_threshold
        for t in range(20):
            which = "uniform" if t % 2 == 0 else "support_fraction"
            prover = cfg.make_prover("decision-flip")
            assert isinstance(prover, DecisionFlipProver)
            res = cfg.run_one(cfg.make_distribution(which), prover, seed=9300 + t)
            f = prover.freq.astype(np.int64)  # honest: only the collision table is doctored
            true_c = int((f * (f - 1) // 2).sum())
            claimed_c = prover.claim("collisions", 2)
            assert (true_c > threshold) != (claimed_c > threshold)
            assert not res.accepted
            assert res.abort_reason == "collision-count sum-check rejected: final evaluation mismatch"

    def test_positive_tau_session_has_no_collision_registers(self):
        cfg = UniformityConfig(k=1 << 14, epsilon=1.0, allow_small_epsilon=True)
        assert cfg.decision_statistic == "unique"
        res = cfg.run_one(cfg.make_distribution("uniform"), HonestStreamProver(), seed=3)
        assert res.accepted
        assert "c_verified" not in res.extras
        assert res.extras["peak_field_elements"] == 3 * 14 + 12


def _range_certificate(freq, degree_cap, st):
    """The range certificate of an honest table, closed by st's registers."""
    eng = stream_ip._SumcheckEngine(freq, degree_cap, "range", chi_point=st.zeta)
    return verify_sumcheck("range", 0, eng, st.r2, degree_cap, st.a_at_r2, st.chi_pair(st.r2, st.zeta))


class TestRangeCertificate:
    def test_in_cap_table_passes(self):
        g = rng(13)
        k = 64
        freq = g.integers(0, 4, size=k).astype(np.uint64)
        st = StreamVerifierState(k, rng(14))
        samples = np.repeat(np.arange(k), freq.astype(np.int64))
        st.update_batch(samples)
        assert _range_certificate(freq, 8, st).verified

    def test_planted_over_cap_frequency_rejected(self):
        # honest-looking prover clamps the planted frequency and claims 0;
        # rejected in every one of many trials
        cfg = UniformityConfig(
            k=64, epsilon=0.9, degree_cap=4, distribution="point_mass", allow_small_epsilon=True
        )
        rejected = 0
        trials = 300
        for i in range(trials):
            res = cfg.run_one(
                cfg.make_distribution("point_mass"), stream_ip.RangeClampProver(), seed=5000 + i
            )
            if not res.accepted:
                rejected += 1
        assert rejected == trials

    def test_cap_liar_with_true_range_table_rejected(self):
        # passes the main sum-check like RangeClampProver, but runs the
        # certificate on the true table, whose total is not zero: the verifier
        # fixes the claimed total at zero, so round one fails every time
        class CapLiar(stream_ip.RangeClampProver):
            def table(self, kind, degree_cap):
                return self.freq

        cfg = UniformityConfig(
            k=64, epsilon=0.9, degree_cap=4, distribution="point_mass", allow_small_epsilon=True
        )
        for i in range(50):
            res = cfg.run_one(cfg.make_distribution("point_mass"), CapLiar(), seed=5500 + i)
            assert not res.accepted
            assert "range certificate rejected" in res.abort_reason

    def test_no_cap_passes_trivially(self):
        g = rng(15)
        k = 16
        n_small = 8
        samples = g.integers(0, k, size=n_small)
        freq = np.bincount(samples, minlength=k).astype(np.uint64)
        st = StreamVerifierState(k, rng(16))
        st.update_batch(samples)
        assert _range_certificate(freq, n_small, st).verified  # D = n

    def test_widening_path(self):
        # max frequency slightly above the initial cap: the honest prover
        # announces D = max f after the one pass and the session completes
        cfg = UniformityConfig(
            k=256,
            epsilon=1.0,
            degree_cap=8,
            distribution="support_fraction",
            support_fraction=0.5,
            allow_small_epsilon=True,
        )
        completed = 0
        widened = 0
        for i in range(10):
            res = cfg.run_one(
                cfg.sample_instance("x", rng(i)), HonestStreamProver(), seed=6000 + i
            )
            if res.accepted:
                completed += 1
                samples = cfg.sample_instance("x", rng(i)).draw_batch(derive_rng(res.seed, "stream"), cfg.n)
                assert res.extras["final_degree_cap"] == np.bincount(samples).max()
                if res.extras["final_degree_cap"] > cfg.degree_cap:
                    widened += 1
            _assert_one_stream(res, cfg)
        assert completed == 10
        assert widened == 10  # lambda = 17.5 per cell always exceeds cap 8

    def test_too_many_widenings_abort_after_one_stream(self):
        # a point mass puts all n = 1383 samples in one cell: the cap it needs
        # is above the ceiling 4 * 2^MAX_WIDENINGS = 64, and the 7-bit cap
        # message can say no more than 127
        cfg = UniformityConfig(
            k=64, epsilon=0.9, degree_cap=4, distribution="point_mass", allow_small_epsilon=True
        )
        prover = HonestStreamProver()
        res = cfg.run_one(cfg.make_distribution("point_mass"), prover, seed=6100)
        assert prover.announced_cap(4) == cfg.n == 1383 > 4 << stream_ip.MAX_WIDENINGS == 64
        assert not res.accepted
        assert res.abort_reason == "prover announced degree cap 127, outside 1..64"
        _assert_one_stream(res, cfg)


def _assert_one_stream(res, cfg):
    """The session metered one pass of n samples and sent them once."""
    assert res.verifier_queries == cfg.n
    assert res.channel_counters["bits_v_to_p"] == cfg.n * cfg.b


class _StreamShoppingProver(HonestStreamProver):
    """Announces a cap one above the one it needs whenever its honest verdict
    is not "uniform", as if a wider cap could buy a fresh stream."""

    name = "stream-shopping"

    def announced_cap(self, degree_cap):
        verdict = collision_verdict(self.claim("collisions", degree_cap), self.cfg.collision_threshold)
        return super().announced_cap(degree_cap) + (verdict != "uniform")


class TestStreamShopping:
    def test_wider_cap_does_not_change_the_verdict(self):
        # 98 of 256 values: near the collision threshold, so both verdicts occur
        cfg = UniformityConfig(
            k=256,
            epsilon=0.9,
            distribution="support_fraction",
            support_fraction=0.385,
            allow_small_epsilon=True,
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


class TestCapAnnouncement:
    CFG = UniformityConfig(k=256, epsilon=0.9, distribution="support_fraction", allow_small_epsilon=True)
    CEILING = 32 << stream_ip.MAX_WIDENINGS  # 512 < n = 2766

    @pytest.mark.parametrize("cap", [0, CEILING + 1])
    def test_cap_outside_the_range_aborts_after_one_stream(self, cap):
        cfg = self.CFG
        res = cfg.run_one(cfg.make_distribution("uniform"), _FixedCapProver(cap), seed=6200)
        assert not res.accepted
        assert res.abort_reason == f"prover announced degree cap {cap}, outside 1..{self.CEILING}"
        _assert_one_stream(res, cfg)

    def test_ceiling_itself_is_accepted(self):
        cfg = self.CFG
        res = cfg.run_one(cfg.make_distribution("uniform"), _FixedCapProver(self.CEILING), seed=6201)
        assert res.accepted and res.extras["final_degree_cap"] == self.CEILING

    @pytest.mark.parametrize("which", ["uniform", "support_fraction"])
    def test_honest_announcement_takes_the_ceilings_width(self, which):
        cfg = UniformityConfig(
            k=256, epsilon=0.9, distribution=which, allow_small_epsilon=True, record_transcript=True
        )
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


class TestTransientMemory:
    """tracemalloc peaks of the verifier's stream pass and one prover round
    at k = 2^16, guards against whole-stream or whole-table scratch."""

    def test_update_batch_peak(self):
        cfg = UniformityConfig(k=1 << 16, epsilon=0.75)
        samples = rng(40).integers(0, cfg.k, size=cfg.n)
        st = StreamVerifierState(cfg.k, rng(41), rng(42))
        tracemalloc.start()
        try:
            st.update_batch(samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 << 20

    @pytest.mark.parametrize("kind", ["unique", "range"])
    def test_round_message_peak_on_bound_table(self, kind):
        g = rng(43)
        freq = g.poisson(1.0, size=1 << 15).astype(np.uint64)
        zeta = [m61.rand_fe(g) for _ in range(15)] if kind == "range" else None
        eng = stream_ip._SumcheckEngine(freq, 32, kind, chi_point=zeta)
        eng.bind(m61.rand_fe(g))
        assert eng.ids.size == 1 << 14
        tracemalloc.start()
        try:
            eng.round_message()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 << 20

    def test_range_sumcheck_peak(self):
        # one whole range certificate at k = 2^16, D = 33, on a Poisson table
        # of the default config's n = 63716 samples: the engine's values and
        # ids, each round's pair buckets and the pair blocks of its message.
        # 3.8 MiB is 1.5 times the 2.56 MiB the column-blocked engine this one
        # replaced peaked at; it guards the uniformity-k65536 benchmark's
        # peak_rss_mb, which may grow by at most 5%
        cfg = UniformityConfig(k=1 << 16, epsilon=0.75)
        g = rng(44)
        freq = g.poisson(cfg.n / cfg.k, size=cfg.k).astype(np.uint64)
        st = StreamVerifierState(cfg.k, g)
        tracemalloc.start()
        try:
            eng = stream_ip._SumcheckEngine(freq, 33, "range", chi_point=st.zeta)
            for message in map(engine_rounds(eng), range(cfg.b), [None, *st.r[:-1]]):
                assert len(message) == 33 + 3  # deg g + 2 nodes, deg g = D + 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.8 * (1 << 20)


class TestInstrumentation:
    def test_memory_budget(self):
        for k in (16, 256, 1 << 16):
            st = StreamVerifierState(k, rng(17))
            b = k.bit_length() - 1
            assert st.peak_field_elements <= 4 * b + 16

    def test_memory_budget_with_collision_registers(self):
        for k in (16, 256, 1 << 16):
            st = StreamVerifierState(k, rng(17), rng(18))
            b = k.bit_length() - 1
            assert st.peak_field_elements == 4 * b + 13
            assert st.peak_field_elements <= 4 * b + 16
        cfg = UniformityConfig(k=256, epsilon=0.9, allow_small_epsilon=True)
        res = cfg.run_one(cfg.make_distribution("uniform"), HonestStreamProver(), seed=2)
        assert res.accepted and "c_verified" in res.extras
        assert res.extras["peak_field_elements"] <= 4 * 8 + 16

    def test_communication_budget_full_scale(self):
        cfg = UniformityConfig()
        res = cfg.run_one(cfg.make_distribution("uniform"), HonestStreamProver(), seed=77)
        assert res.accepted
        assert res.extras["prover_field_elements"] <= 1200
        cap = res.extras["final_degree_cap"]
        samples = cfg.make_distribution("uniform").draw_batch(derive_rng(res.seed, "stream"), cfg.n)
        assert cap == np.bincount(samples).max()
        expected = 16 * (cap + 2) + 16 * (cap + 3) + 1
        assert res.extras["prover_field_elements"] == expected

    def test_classical_channel_no_qudits(self):
        cfg = UniformityConfig(k=256, epsilon=0.9, allow_small_epsilon=True, degree_cap=16)
        res = cfg.run_one(cfg.make_distribution("uniform"), HonestStreamProver(), seed=1)
        ch = res.channel_counters
        assert ch["qudits_v_to_p"] == 0 and ch["qudits_p_to_v"] == 0
