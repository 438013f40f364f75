"""Purity-testing IP: parameter formulas, round preparation, honest answers,
verdict rule and small-batch session behavior."""

import math
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from ipsim import purity_ip, qcore, qmeas
from ipsim.harness import (
    Channel,
    ChannelTypeError,
    CopyOracle,
    CopyStream,
    LiveCopyTracker,
    NogoDistinguisher,
    ProtocolAbort,
    SessionResult,
    batch_rates,
    derive_rng,
    run_session,
)
from ipsim.purity_ip import (
    ADVERSARIES,
    MIXED,
    PURE,
    BestEffortLiar,
    HonestSwapProver,
    NogoConfig,
    PurityConfig,
    PurityVerifier,
    RoundRecord,
    honest_purity_answer,
    purity_verdict,
    sample_masks,
)


def prepare_round_state(
    kind: str,
    oracle_v: CopyOracle,
    cfg: PurityConfig,
    mask: np.ndarray | None,
    channel: Channel,
    round_index: int,
) -> CopyStream:
    """Sends one round's m copies v->p, one at a time, in round
    ``round_index``, the channel's current round; returns the copies the
    prover received.

    Mixed test rounds cost no oracle queries and carry no mask; pure test
    rounds mask |0><0|; compute rounds mask m fresh oracle copies.
    """
    d = cfg.d
    if kind == "m":
        state = np.eye(d, dtype=complex) / d
        return channel.send_stream("v->p", state, cfg.m, round_index)
    if kind == "p":
        state = np.outer(mask[:, 0], mask[:, 0].conj())
        return channel.send_stream("v->p", state, cfg.m, round_index)
    if kind == "c":
        return oracle_v.stream(cfg.m, "compute-round", channel=channel, unitary=mask)
    raise ValueError(f"unknown round kind {kind}")


class ReferenceVerifier(PurityVerifier):
    """The per-round session loop that ``PurityVerifier.run`` replaced, with
    ``prepare_round_state`` above: one round prepared, sent, answered through
    ``answer_round`` and recorded at a time."""

    def run(self, session, prover) -> str:
        cfg = self.cfg
        kind_seed = cfg.kind_seed
        rng_kinds = session.rng("round-kinds") if kind_seed is None else derive_rng(kind_seed, "round-kinds")
        kinds = ("m", "p", "c")
        # all kinds first: that generator draws nothing else, so the values are the per-round ones
        round_kinds = [kinds[i] for i in rng_kinds.integers(0, 3, size=cfg.N)]
        rng_masks, rng_prover = session.rng("masks"), session.rng("prover")
        records: list[RoundRecord] = []
        for kind in round_kinds:
            round_idx = session.next_round()
            mask = None if kind == "m" else _reference_mask(cfg.mask_ensemble, cfg.d, rng_masks).entries
            received = prepare_round_state(kind, session.oracle_v, cfg, mask, session.channel, round_idx)
            answer = int(prover.answer_round(received, cfg, rng_prover))
            session.channel.send_bits("p->v", [answer], round_idx)
            records.append(RoundRecord(kind, answer))
        self.extras["compute_rounds"] = round_kinds.count("c")
        self.extras["round_kind_counts"] = {k: round_kinds.count(k) for k in kinds}
        return purity_verdict(records)


class TestParams:
    def test_spec_values_at_delta_third(self):
        p = PurityConfig(delta=1 / 3, d=8)
        assert p.N == 209
        assert p.delta_tilde == pytest.approx(1 / 1254)
        assert p.m == 26

    def test_m_even_and_grows_with_confidence(self):
        for d in (2, 4, 8, 16):
            for delta in (0.4, 1 / 3, 0.1, 0.02):
                p = PurityConfig(delta=delta, d=d)
                assert p.m % 2 == 0
                tests = p.m // 2
                # SWAP budget: mixed copies pass all tests w.p. <= delta_tilde
                assert ((1 + 1 / d) / 2) ** tests <= p.delta_tilde + 1e-15

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            PurityConfig(delta=1.5, d=4)
        with pytest.raises(ValueError):
            PurityConfig(delta=0.3, d=1)
        with pytest.raises(ValueError):
            PurityConfig(delta=0.3, d=4, mask_ensemble="fourier")


class TestPrepareRoundState:
    def _params(self, d=4):
        return PurityConfig(delta=1 / 3, d=d)

    @staticmethod
    def _send(kind, oracle, p, seed):
        channel = Channel("quantum")
        mask = None if kind == "m" else _full_masks(p.mask_ensemble, p.d, 1, np.random.default_rng(seed))[0]
        copies = prepare_round_state(kind, oracle, p, mask, channel, 0)
        assert channel.qudits_v_to_p == len(copies) == p.m
        return copies, mask

    def test_mixed_round_no_queries_no_mask(self):
        oracle = CopyOracle(qcore.maximally_mixed(4))
        copies, mask = self._send("m", oracle, self._params(), 0)
        assert oracle.meter.total == 0
        assert mask is None
        assert np.allclose(copies[0], np.eye(4) / 4)

    def test_compute_round_queries_exactly_m(self):
        p = self._params()
        tracker = LiveCopyTracker(1)
        oracle = CopyOracle(qcore.maximally_mixed(4), tracker=tracker)
        _, mask = self._send("c", oracle, p, 1)
        assert oracle.meter.total == p.m
        assert (tracker.live, tracker.peak) == (0, 1)  # one copy at a time
        assert mask is not None

    def test_pure_round_ignores_oracle(self):
        p = self._params()
        oracle = CopyOracle(qcore.maximally_mixed(4))
        copies, _ = self._send("p", oracle, p, 2)
        first = copies[0]
        assert oracle.meter.total == 0
        assert abs(np.trace(first @ first).real - 1.0) < 1e-9  # pure regardless of rho

    def test_pauli_and_clifford_masks(self):
        for ensemble in ("pauli", "clifford"):
            p = PurityConfig(delta=1 / 3, d=4, mask_ensemble=ensemble)
            oracle = CopyOracle(qcore.maximally_mixed(4))
            _, mask = self._send("p", oracle, p, 3)
            assert mask.shape == (4, 4)


class TestPrepareRounds:
    @pytest.mark.parametrize("ensemble", ["haar", "clifford", "pauli"])
    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    def test_rounds_equal_per_round_preparation(self, ensemble, d):
        cfg = PurityConfig(d=d, mask_ensemble=ensemble)
        kinds = [("m", "p", "c")[i] for i in np.random.default_rng(d).integers(0, 3, size=60)]
        masks = _full_masks(ensemble, d, 60 - kinds.count("m"), np.random.default_rng(1))
        hidden = qcore.sample_state(d, 2, np.random.default_rng(2))
        oracle, ref_oracle = (CopyOracle(hidden, tracker=LiveCopyTracker(1)) for _ in range(2))
        drawn = sample_masks(ensemble, d, kinds, np.random.default_rng(1))  # the same draws, as a session reads them
        rounds = purity_ip.prepare_rounds(kinds, *drawn, oracle, cfg)
        rest, channel = iter(masks), Channel("quantum")
        for kind, state in zip(kinds, rounds, strict=True):
            mask = None if kind == "m" else next(rest)
            assert np.array_equal(state, prepare_round_state(kind, ref_oracle, cfg, mask, channel, 0)[0])
        assert (oracle.meter.total, oracle.meter.by_kind) == (ref_oracle.meter.total, ref_oracle.meter.by_kind)
        assert (oracle.tracker.live, oracle.tracker.peak) == (ref_oracle.tracker.live, ref_oracle.tracker.peak)
        assert len({id(state) for kind, state in zip(kinds, rounds) if kind == "m"}) == 1  # one shared I/d

    def test_rounds_without_compute_rounds_query_nothing(self):
        cfg = PurityConfig(d=4)
        oracle = CopyOracle(qcore.maximally_mixed(4), tracker=LiveCopyTracker(1))
        kinds = ["m", "p", "m", "p"]
        columns, masks = sample_masks("haar", 4, kinds, np.random.default_rng(0))
        assert (columns.shape, masks.shape) == ((2, 4), (0, 4, 4))
        rounds = purity_ip.prepare_rounds(kinds, columns, masks, oracle, cfg)
        assert len(rounds) == 4 and rounds[0] is rounds[2]
        assert np.array_equal(rounds[3], np.outer(columns[1], columns[1].conj()))
        assert (oracle.meter.total, oracle.tracker.peak) == (0, 0)


def _full_masks(ensemble, d, n, rng):
    """n whole masks in draw order: the masks of n compute rounds."""
    return sample_masks(ensemble, d, ["c"] * n, rng)[1]


def _reference_mask(ensemble, d, rng):
    """The one-mask-per-round draw the stacked session draw replaced."""
    if ensemble == "haar":
        return qcore.sample_haar_unitary(d, rng)
    n = int(round(math.log2(d)))
    if ensemble == "clifford":
        return qmeas.sample_uniform_clifford(n, rng)
    label = qmeas.PauliLabel.from_index(n, int(rng.integers(0, 4**n)))
    return qcore.UnitaryOp(qmeas.dense_pauli(label))


class TestSessionMasks:
    """The kinds and masks drawn up front are those the per-round loop drew."""

    @staticmethod
    def _reference_rounds(p, seed, kind_seed):
        rng_kinds = derive_rng(seed if kind_seed is None else kind_seed, "round-kinds")
        rng_mask = derive_rng(seed, "masks")
        rounds = []
        for _ in range(p.N):
            kind = ("m", "p", "c")[int(rng_kinds.integers(0, 3))]
            rounds.append((kind, None if kind == "m" else _reference_mask(p.mask_ensemble, p.d, rng_mask)))
        return rounds, rng_mask

    @pytest.mark.parametrize("ensemble", ["haar", "clifford", "pauli"])
    @pytest.mark.parametrize("d", [2, 4, 8])
    @pytest.mark.parametrize("kind_seed", [None, 991])
    def test_session_draws_match_per_round_draws(self, ensemble, d, kind_seed, monkeypatch):
        draws = []
        real_sample = purity_ip.sample_masks

        def sample(ensemble, d, kinds, rng):
            draws.append((list(kinds), rng, real_sample(ensemble, d, kinds, rng)))
            return draws[-1][2]

        monkeypatch.setattr(purity_ip, "sample_masks", sample)
        cfg = PurityConfig(d=d, mask_ensemble=ensemble, kind_seed=kind_seed)
        for seed in (3, 17):
            draws.clear()
            cfg.run_one(cfg.sample_instance("reject", np.random.default_rng(seed)), HonestSwapProver(), seed)
            want, ref_rng = self._reference_rounds(cfg, seed, kind_seed)
            [(kinds, mask_rng, (columns, masks))] = draws
            assert kinds == [kind for kind, _ in want]
            # a compute round reads its whole mask, a pure-test round its mask's first column
            assert np.array_equal(masks, np.array([ref.entries for kind, ref in want if kind == "c"]).reshape(-1, d, d))
            assert np.array_equal(columns, np.array([ref.entries[:, 0] for kind, ref in want if kind == "p"]))
            assert mask_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_kinds_drawn_as_one_block_equal_single_draws(self):
        for seed in range(50):
            block, single = np.random.default_rng(seed), np.random.default_rng(seed)
            kinds = block.integers(0, 3, size=209)
            assert kinds.tolist() == [int(single.integers(0, 3)) for _ in range(209)]
            assert block.bit_generator.state == single.bit_generator.state

    def test_corrupted_haar_stack_raises_through_the_session(self, monkeypatch):
        real = qcore._haar_factors
        cfg = PurityConfig(d=4)
        for width in (cfg.d, 1):  # the compute rounds' masks, then the pure-test rounds' columns

            def corrupt(g, width=width):
                stack = real(g)
                if stack.shape[-1] == width:
                    stack[-1] *= 1 + 1e-6
                return stack

            monkeypatch.setattr(qcore, "_haar_factors", corrupt)
            with pytest.raises(qcore.InvariantError, match="unitarity residual"):
                cfg.run_one(qcore.maximally_mixed(4), HonestSwapProver(), seed=5)

    def test_clifford_and_pauli_masks_need_a_power_of_two(self):
        for ensemble in ("clifford", "pauli"):
            with pytest.raises(ValueError, match="power-of-two"):
                sample_masks(ensemble, 6, ["p", "c", "m"], np.random.default_rng(0))


class TestHonestAnswer:
    def test_pure_copies_always_pure(self):
        rng = np.random.default_rng(4)
        psi = qcore.sample_pure_state(4, rng).density().entries
        for _ in range(30):
            assert honest_purity_answer([psi] * 8, rng) == PURE

    def test_mixed_copies_error_rate_within_budget(self):
        rng = np.random.default_rng(5)
        p = PurityConfig(delta=1 / 3, d=8)
        mixed = [np.eye(8) / 8] * p.m
        wrong = sum(honest_purity_answer(mixed, rng) == PURE for _ in range(20_000))
        budget = ((1 + 1 / 8) / 2) ** (p.m // 2)
        assert budget <= p.delta_tilde
        assert wrong / 20_000 <= budget + 4 * np.sqrt(budget / 20_000) + 1e-3

    def test_odd_m_rejected(self):
        with pytest.raises(ValueError):
            honest_purity_answer([np.eye(2) / 2] * 3, np.random.default_rng(0))

    @staticmethod
    def _reference_answer(states, rng):
        """The per-pair loop: one swap_test per pair, stopping at the first rejection."""
        for a, b in zip(states[0::2], states[1::2]):
            if not qmeas.swap_test(a, b, rng):
                return MIXED
        return PURE

    @staticmethod
    def _round_lists(d=4, m=26):
        g = np.random.default_rng(8)
        mixed = np.eye(d, dtype=complex) / d
        pure = qcore.sample_pure_state(d, g).density().entries
        distinct = [qcore.sample_state(d, int(g.integers(1, d + 1)), g).entries for _ in range(m)]
        return {
            "shared-mixed": [mixed] * m,
            "shared-pure": [pure] * m,
            "stream-mixed": CopyStream(mixed, m),
            "distinct": distinct,
            "distinct-equal-values": [mixed.copy() for _ in range(m)],
            "alternating": [mixed, pure] * (m // 2),
        }

    def test_same_answer_and_rng_state_as_per_pair_loop(self):
        for name, states in self._round_lists().items():
            for seed in range(40):
                ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
                want = self._reference_answer(states, ref_rng)
                assert honest_purity_answer(states, rng) == want, name
                assert rng.bit_generator.state == ref_rng.bit_generator.state, name

    def test_one_overlap_per_distinct_pair(self, monkeypatch):
        calls = []
        real = qmeas.swap_probability
        monkeypatch.setattr(qmeas, "swap_probability", lambda a, b: calls.append(1) or real(a, b))
        lists = self._round_lists()
        assert honest_purity_answer(lists["shared-pure"], np.random.default_rng(0)) == PURE
        assert len(calls) == 1  # 13 tests drawn, one overlap computed
        calls.clear()
        BestEffortLiar().answer_round(lists["distinct"], PurityConfig(delta=1 / 3, d=4), np.random.default_rng(0))
        assert len(calls) == 13

    def test_best_effort_liar_same_answer_and_rng_state(self):
        params = PurityConfig(delta=1 / 3, d=4)
        for name, states in self._round_lists().items():
            for seed in range(20):
                ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
                accepts = sum(qmeas.swap_test(a, b, ref_rng) for a, b in zip(states[0::2], states[1::2]))
                want = BestEffortLiar().answer_round(states, params, rng)
                honest = PURE if accepts == len(states) // 2 else MIXED
                frac = accepts / (len(states) // 2)
                believes_compute = abs(frac - (1 + 1 / 4) / 2) <= abs(frac - 1.0)
                assert want == (1 - honest if believes_compute else honest), name
                assert rng.bit_generator.state == ref_rng.bit_generator.state, name


class TestBatchedHonestAnswers:
    """``HonestSwapProver.answer_rounds`` against ``honest_purity_answer`` run
    round by round on each round's copies."""

    @staticmethod
    def _rounds(d, n, seed):
        """n round descriptions: the shared I/d (p = (1+1/d)/2), |0><0| (p = 1),
        and random pure and mixed states."""
        g = np.random.default_rng(seed)
        mixed, basis = np.eye(d, dtype=complex) / d, np.zeros((d, d), dtype=complex)
        basis[0, 0] = 1
        pool = [mixed, basis]
        pool += [qcore.sample_pure_state(d, g).density().entries for _ in range(3)]
        pool += [qcore.sample_state(d, int(g.integers(2, d + 1)), g).entries for _ in range(3)]
        # I/d and |0><0| are shared, as a session shares I/d; each other round is its own array
        return [pool[i] if i < 2 else pool[i].copy() for i in g.integers(0, len(pool), size=n)]

    @staticmethod
    def _compare(rounds, tests, d, seed):
        cfg = SimpleNamespace(d=d, m=2 * tests)
        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = [honest_purity_answer(CopyStream(state, 2 * tests), ref_rng) for state in rounds]
        assert HonestSwapProver().answer_rounds(rounds, cfg, rng) == want
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        return want, rng

    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    @pytest.mark.parametrize("n", [1, 2, 209])
    @pytest.mark.parametrize("tests", [1, 13])
    def test_same_answers_and_rng_state_as_per_round_answers(self, d, n, tests):
        for seed in range(12):
            self._compare(self._rounds(d, n, seed), tests, d, seed)

    def test_rng_with_a_buffered_half_word(self):
        rounds = self._rounds(4, 209, 0)
        ref_rng, rng = np.random.default_rng(3), np.random.default_rng(3)
        for g in (ref_rng, rng):
            g.integers(0, 2, dtype=np.uint32)  # leaves a 32-bit half of a draw buffered
        assert rng.bit_generator.state["has_uint32"] == 1
        cfg = PurityConfig(d=4)
        want = [honest_purity_answer(CopyStream(state, cfg.m), ref_rng) for state in rounds]
        assert HonestSwapProver().answer_rounds(rounds, cfg, rng) == want
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    def test_accept_probabilities_are_swap_probability_bits(self, d, monkeypatch):
        rounds = self._rounds(d, 209, d)
        seen = []
        real = qmeas.swap_accept

        def record(overlap):
            seen.append(real(overlap))
            return seen[-1]

        monkeypatch.setattr(qmeas, "swap_accept", record)
        HonestSwapProver().answer_rounds(rounds, PurityConfig(d=d), np.random.default_rng(0))
        got, distinct = list(seen), list({id(state): state for state in rounds}.values())
        assert len(got) == len(distinct) < len(rounds)  # the shared I/d once
        want = [qmeas.swap_probability(state, state) for state in distinct]
        assert got == want
        assert (1 + 1 / d) / 2 in want and 1.0 in want  # the shared I/d and |0><0|

    @pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
    def test_stacked_overlaps_are_vdot_bit_for_bit(self, d, monkeypatch):
        """The one stacked product gives each distinct description's overlap
        with itself byte for byte as ``np.vdot`` does."""
        seen = []
        monkeypatch.setattr(qmeas, "swap_accept", lambda overlap: seen.append(overlap) or 0.5)
        for seed in range(5):
            rounds = self._rounds(d, 209, seed)
            seen.clear()
            HonestSwapProver().answer_rounds(rounds, PurityConfig(d=d), np.random.default_rng(seed))
            distinct = {id(state): state for state in rounds}.values()
            assert [x.tobytes() for x in seen] == [np.vdot(state, state).tobytes() for state in distinct]

    def test_no_round_rejects(self):
        d, tests = 4, 13
        basis = np.zeros((d, d), dtype=complex)
        basis[0, 0] = 1
        start = np.random.default_rng(5)
        want, rng = self._compare([basis] * 209, tests, d, 5)
        assert want == [PURE] * 209
        assert rng.bit_generator.state == start.bit_generator.advance(209 * tests).state

    def test_every_round_rejects_on_its_first_draw(self, monkeypatch):
        monkeypatch.setattr(qmeas, "swap_accept", lambda overlap: 0.0)
        start = np.random.default_rng(6)
        want, rng = self._compare(self._rounds(8, 209, 6), 13, 8, 6)
        assert want == [MIXED] * 209
        assert rng.bit_generator.state == start.bit_generator.advance(209).state


class TestRoundAccounting:
    """``Channel.send_rounds`` against a ``send_stream`` and a ``send_bits``
    per round, the loop a session ran before."""

    @pytest.mark.parametrize("transcript", [False, True])
    def test_counters_and_transcript_equal_per_round_sends(self, transcript):
        cfg, g = PurityConfig(d=4), np.random.default_rng(0)
        kinds = [("m", "p", "c")[i] for i in g.integers(0, 3, size=40)]
        oracle = CopyOracle(qcore.sample_state(4, 2, g), tracker=LiveCopyTracker(1))
        rounds = purity_ip.prepare_rounds(kinds, *sample_masks("haar", 4, kinds, g), oracle, cfg)
        answers = g.integers(0, 2, size=len(rounds)).tolist()
        bulk, ref = (Channel("quantum", record_transcript=transcript) for _ in range(2))
        for channel in (bulk, ref):
            channel.send_bits("v->p", [1, 0], 0)  # earlier traffic
        bulk.send_rounds(rounds, cfg.m, answers, 3)
        for r, (state, answer) in enumerate(zip(rounds, answers), 3):
            ref.send_stream("v->p", state, cfg.m, r)
            ref.send_bits("p->v", [answer], r)
        assert bulk.counters() == ref.counters()
        assert bulk.transcript == ref.transcript
        assert len(bulk.transcript) == (1 + 40 * (cfg.m + 1) if transcript else 0)

    def test_classical_channel_rejects_the_rounds(self):
        channel = Channel("classical")
        with pytest.raises(ChannelTypeError, match="classical channel rejects qudit payloads"):
            channel.send_rounds([np.eye(2) / 2], 2, [0], 1)
        assert channel.counters() == Channel("classical").counters()
        assert channel.transcript == []


class TestVerdict:
    def test_all_pass_consistent_pure(self):
        records = [
            RoundRecord("m", MIXED),
            RoundRecord("c", PURE),
            RoundRecord("p", PURE),
            RoundRecord("c", PURE),
        ]
        assert purity_verdict(records) == "pure"

    def test_failed_test_round_aborts(self):
        records = [RoundRecord("m", PURE), RoundRecord("c", PURE)]
        with pytest.raises(ProtocolAbort):
            purity_verdict(records)

    def test_failed_pure_test_round_aborts_first(self):
        records = [RoundRecord("c", PURE), RoundRecord("p", MIXED), RoundRecord("m", PURE)]
        with pytest.raises(ProtocolAbort, match="^failed p-test round$"):
            purity_verdict(records)

    def test_inconsistent_compute_answers_abort(self):
        records = [
            RoundRecord("c", PURE),
            RoundRecord("c", MIXED),
        ]
        with pytest.raises(ProtocolAbort):
            purity_verdict(records)

    def test_no_compute_round_aborts(self):
        with pytest.raises(ProtocolAbort):
            purity_verdict([RoundRecord("m", MIXED)])


class TestSessions:
    def test_verifier_meter_is_m_times_compute_rounds(self):
        cfg = PurityConfig(d=4)
        for seed in range(5):
            res = cfg.run_one(qcore.maximally_mixed(4), HonestSwapProver(), seed=seed)
            assert res.verifier_queries == cfg.m * res.extras["compute_rounds"]

    def test_compute_round_structure_shared_across_d(self):
        # identical round-kind seeds => identical compute-round counts for all d
        counts = {}
        for d in (2, 4, 8, 16):
            cfg = PurityConfig(d=d, kind_seed=991)
            res = cfg.run_one(qcore.maximally_mixed(d), HonestSwapProver(), seed=17)
            counts[d] = res.extras["compute_rounds"]
            assert res.verifier_queries == cfg.m * counts[d]
        assert len(set(counts.values())) == 1

    def test_round_kind_frequencies(self):
        cfg = PurityConfig(d=2)
        res = cfg.run_one(qcore.maximally_mixed(2), HonestSwapProver(), seed=23)
        kinds = res.extras["round_kind_counts"]
        n_rounds = cfg.N
        assert sum(kinds.values()) == n_rounds
        for k in ("m", "p", "c"):
            assert kinds[k] >= n_rounds / 4  # the Hoeffding event, whp per session

    def test_round_kind_concentration_empirical(self):
        # every kind appears >= N/4 times with probability >= 1 - delta/2
        cfg = PurityConfig(d=2)
        n_rounds = cfg.N
        bad = 0
        sessions = 100
        for seed in range(sessions):
            res = cfg.run_one(qcore.maximally_mixed(2), HonestSwapProver(), seed=seed)
            kinds = res.extras["round_kind_counts"]
            if any(kinds[k] < n_rounds / 4 for k in ("m", "p", "c")):
                bad += 1
        assert bad / sessions <= cfg.delta / 2

    def test_memory_policy_peak_is_one(self):
        cfg = PurityConfig(d=4)
        res = cfg.run_one(qcore.maximally_mixed(4), HonestSwapProver(), seed=3)
        assert res.peak_live_copies == 1

    def test_small_batch_completeness_both_instances(self):
        cfg = PurityConfig(d=8)
        for which in ("accept", "reject"):
            rec, _ = batch_rates(
                cfg.run_one,
                cfg.judge,
                lambda r, w=which: cfg.sample_instance(w, r),
                HonestSwapProver(),
                trials=30,
                seed=41,
            )
            assert rec.accept_and_valid / 30 >= 2 / 3

    def test_blunt_adversaries_caught(self):
        cfg = PurityConfig(d=8)
        for name in ("always-pure", "always-mixed"):
            rec, _ = batch_rates(
                cfg.run_one,
                cfg.judge,
                lambda r: cfg.sample_instance("accept", r),
                purity_ip.ADVERSARIES[name](),
                trials=20,
                seed=42,
            )
            assert rec.accept_and_invalid == 0

    @pytest.mark.parametrize("offset", [0.0, 1e-10, 1e-8, 1e-6, 1e-3])
    def test_judge_accept_side_is_the_task_accept_instance(self, offset):
        cfg = PurityConfig(d=4)
        hidden = qcore.DensityMatrix(np.eye(4) / 4 + np.diag([offset, -offset, 0.0, 0.0]))
        on_accept_side = not cfg.judge(purity_ip.OUTPUT_PURE, hidden)
        assert on_accept_side == cfg.task().is_accept(hidden)
        assert on_accept_side == (offset <= 1e-9)  # entrywise, with no tolerance relative to 1/d
        assert cfg.judge(purity_ip.OUTPUT_MIXED, hidden)

    def test_pauli_mask_mode_runs(self):
        cfg = PurityConfig(d=4, mask_ensemble="pauli")
        res = cfg.run_one(qcore.maximally_mixed(4), HonestSwapProver(), seed=9)
        assert res.accepted and res.output == "maximally mixed"


def _fields(res):
    return {f.name: getattr(res, f.name) for f in fields(SessionResult) if f.name != "wall_time"}


class TestReferenceSession:
    """Whole sessions, transcripts on, against ``ReferenceVerifier``'s per-round loop."""

    @pytest.mark.parametrize("prover", ["honest", *ADVERSARIES])
    @pytest.mark.parametrize("ensemble", ["haar", "clifford", "pauli"])
    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_every_field_equals_the_per_round_loop(self, prover, ensemble, d):
        cfg = PurityConfig(d=d, mask_ensemble=ensemble, record_transcript=True)
        for seed, instance in ((11, "accept"), (12, "reject")):
            hidden = cfg.sample_instance(instance, np.random.default_rng(seed))
            res = cfg.run_one(hidden, cfg.make_prover(prover), seed)
            ref = run_session(ReferenceVerifier(cfg), cfg.make_prover(prover), hidden, seed, record_transcript=True)
            assert _fields(res) == _fields(ref)
            assert len(res.transcript_lines) == cfg.N * (cfg.m + 1)
            assert res.peak_live_copies <= 1
            assert res.verifier_queries == cfg.m * res.extras["compute_rounds"]

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_nogo_sessions_equal_the_per_round_loop(self, d):
        cfg = NogoConfig(d=d, record_transcript=True)

        def reference_ip(hidden, prover, seed, prover_hidden=None):
            verifier = ReferenceVerifier(cfg.ip)
            return run_session(verifier, prover, hidden, seed, record_transcript=True, prover_hidden=prover_hidden)

        for seed, instance in ((21, "accept"), (22, "reject"), (23, "reject")):
            hidden = cfg.sample_instance(instance, np.random.default_rng(seed))
            res = cfg.run_one(hidden, cfg.make_prover("honest"), seed)
            answer, ref = NogoDistinguisher(cfg.task, reference_ip, cfg.make_prover("honest")).run(hidden, seed)
            assert res.output == answer
            assert _fields(res) == _fields(replace(ref, output=answer))
