"""Harness tests: meters, memory policy, channels, delegation contract,
distinguisher transformation, trivial validation IP, the protocol interface,
determinism."""

import hashlib
import json
from dataclasses import fields, replace

import numpy as np
import pytest

from ipsim import cli, harness, qcore
from ipsim.harness import (
    Channel,
    ChannelTypeError,
    Copy,
    CopyOracle,
    CopyStream,
    LiveCopyTracker,
    ManyVsOneTask,
    MemoryPolicyError,
    ProtocolAbort,
    QueryMeter,
    canonical_bytes,
    delegated_measure,
    delegation_security,
    derive_rng,
    wilson_interval,
)
from ipsim.purity_ip import sample_masks
from ipsim.stab_ip import TrivialConfig, enumerate_stabilizers


class TestMeterAndTracker:
    def test_meter_monotone_and_breakdown(self):
        m = QueryMeter()
        m.charge(3, "a")
        m.charge(2, "b")
        m.charge(1, "a")
        assert m.total == 6
        assert m.by_kind == {"a": 4, "b": 2}
        with pytest.raises(ValueError):
            m.charge(-1)

    def test_breakdown_sums_to_total(self):
        m = QueryMeter()
        rng = np.random.default_rng(0)
        for _ in range(50):
            m.charge(int(rng.integers(1, 10)), f"k{rng.integers(3)}")
        assert sum(m.by_kind.values()) == m.total

    def test_single_copy_policy_enforced(self):
        tr = LiveCopyTracker(limit=1)
        tr.acquire()
        with pytest.raises(MemoryPolicyError):
            tr.acquire()

    def test_acquire_release_cycles(self):
        tr = LiveCopyTracker(limit=1)
        for _ in range(5):
            tr.acquire()
            tr.release()
        assert tr.peak == 1

    def test_oracle_copy_lifecycle(self):
        oracle = CopyOracle(qcore.maximally_mixed(2), tracker=LiveCopyTracker(1))
        c = oracle.query()
        assert oracle.meter.total == 1
        c2 = c.with_unitary(qcore.sample_haar_unitary(2, np.random.default_rng(0)))
        with pytest.raises(MemoryPolicyError):
            c.consume()  # original handle is dead after masking
        c2.consume()
        c3 = oracle.query()  # slot free again
        c3.consume()

    def test_ideal_peek_guarded(self):
        oracle = CopyOracle(qcore.maximally_mixed(2))
        with pytest.raises(PermissionError):
            oracle.ideal_peek()
        assert CopyOracle(qcore.maximally_mixed(2), ideal_access=True).ideal_peek() is not None


def _reference_stream(oracle, n, kind, channel=None, unitary=None):
    """The per-copy loop ``CopyOracle.stream`` replaces: query, mask, then send
    in the channel's current round or consume, one copy at a time."""
    states = []
    for _ in range(n):
        c = oracle.query(kind)
        if unitary is not None:
            c = c.with_unitary(unitary)
        if channel is not None:
            states.extend(channel.send_qudits("v->p", [c], channel.round))
        else:
            states.append(c.consume())
    return states


def _stream_setup(transcript):
    """An oracle with a fresh tracker, and a channel (None, recording or not)
    in round 7."""
    oracle = CopyOracle(qcore.sample_state(4, 2, np.random.default_rng(11)), tracker=LiveCopyTracker(1))
    oracle.meter.charge(3, "earlier")  # the stream adds to an existing meter
    channel = None if transcript is None else Channel("quantum", record_transcript=transcript)
    if channel is not None:
        channel.round = 7
    return oracle, channel


class TestCopyStream:
    @pytest.mark.parametrize("n", [1, 2, 26, 1000])
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("transcript", [None, False, True])
    def test_matches_per_copy_loop(self, n, masked, transcript):
        u = qcore.sample_haar_unitary(4, np.random.default_rng(12)) if masked else None
        runs = []
        for streamed in (False, True):
            oracle, channel = _stream_setup(transcript)
            if streamed:
                states = oracle.stream(n, "swap", channel=channel, unitary=u)
            else:
                states = _reference_stream(oracle, n, "swap", channel=channel, unitary=u)
            runs.append((oracle, channel, states))
        (ref_oracle, ref_channel, ref_states), (oracle, channel, states) = runs
        assert isinstance(states, CopyStream)
        assert (oracle.meter.total, oracle.meter.by_kind) == (ref_oracle.meter.total, ref_oracle.meter.by_kind)
        assert (oracle.tracker.live, oracle.tracker.peak) == (ref_oracle.tracker.live, ref_oracle.tracker.peak)
        assert len(states) == len(ref_states) == n
        assert all(np.array_equal(a, b) for a, b in zip(states, ref_states))
        if channel is not None:
            assert channel.counters() == ref_channel.counters()
            assert channel.transcript == ref_channel.transcript
            assert len(channel.transcript) == (n if transcript else 0)

    def test_test_round_send_matches_per_copy_sends(self):
        state = np.eye(4, dtype=complex) / 4
        ref, ch = Channel("quantum"), Channel("quantum")
        for _ in range(26):
            ref.send_qudits("v->p", [Copy(state, None)], 3)
        ch.round = 3
        sent = ch.send_stream("v->p", state, 26)
        assert sent.state is state and len(sent) == 26
        assert ch.counters() == ref.counters()
        assert ch.transcript == ref.transcript

    def test_stream_while_a_copy_is_live_violates_policy(self):
        oracle = CopyOracle(qcore.maximally_mixed(2), tracker=LiveCopyTracker(1))
        held = oracle.query()
        with pytest.raises(MemoryPolicyError):
            oracle.stream(5, "swap")
        held.consume()

    def test_classical_channel_rejects_a_stream(self):
        oracle = CopyOracle(qcore.maximally_mixed(2), tracker=LiveCopyTracker(1))
        with pytest.raises(ChannelTypeError):
            oracle.stream(5, "swap", channel=Channel("classical"))

    def test_empty_stream_charges_nothing(self):
        oracle, channel = _stream_setup(True)
        states = oracle.stream(0, "swap", channel=channel, unitary=np.eye(4))
        assert len(states) == 0 and list(states) == []
        assert (oracle.meter.total, oracle.meter.by_kind) == (3, {"earlier": 3})
        assert (oracle.tracker.live, oracle.tracker.peak) == (0, 0)
        assert channel.counters()["qudits_v_to_p"] == 0 and channel.transcript == []
        with pytest.raises(ValueError):
            oracle.stream(-1, "swap")

    def test_sequence_view(self):
        state = np.eye(2) / 2
        copies = CopyStream(state, 5)
        assert copies[0] is state and copies[-5] is state
        with pytest.raises(IndexError):
            copies[5]
        assert len(copies[0::2]) == 3 and len(copies[1::2]) == 2
        assert copies[1::2][1] is state
        assert all(x is state for x in copies)

    @staticmethod
    def _mask_stack(ensemble, d, k):
        return sample_masks(ensemble, d, np.full(k, 2), np.random.default_rng(d))[1]  # k compute rounds' masks

    @pytest.mark.parametrize("ensemble", ["haar", "clifford", "pauli"])
    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    def test_stacked_masks_equal_per_matrix_masking(self, ensemble, d):
        masks = self._mask_stack(ensemble, d, 40)
        rho = qcore.sample_state(d, 2, np.random.default_rng(5)).entries
        masked = Copy(rho, None).with_unitary(masks).consume()
        assert masked.shape == (40, d, d)
        for u, got in zip(masks, masked):
            assert np.array_equal(got, u @ rho @ u.conj().T)
            assert np.array_equal(got, Copy(rho, None).with_unitary(u).consume())

    @pytest.mark.parametrize("ensemble", ["haar", "clifford", "pauli"])
    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    @pytest.mark.parametrize("transcript", [False, True])
    def test_stacked_stream_matches_per_round_loop(self, ensemble, d, transcript):
        masks, n = self._mask_stack(ensemble, d, 7), 26
        runs = []
        for stacked in (False, True):
            oracle = CopyOracle(qcore.sample_state(d, 2, np.random.default_rng(11)), tracker=LiveCopyTracker(1))
            oracle.meter.charge(3, "earlier")
            channel = Channel("quantum", record_transcript=transcript)
            if stacked:
                states = oracle.stream(n, "compute-round", unitary=masks).state
                for r, state in enumerate(states, 1):
                    channel.round = r
                    channel.send_stream("v->p", state, n)
            else:
                states = []
                for r, u in enumerate(masks, 1):
                    channel.round = r
                    states.append(_reference_stream(oracle, n, "compute-round", channel=channel, unitary=u)[0])
            runs.append((oracle, channel, states))
        (ref_oracle, ref_channel, ref_states), (oracle, channel, states) = runs
        assert (oracle.meter.total, oracle.meter.by_kind) == (ref_oracle.meter.total, ref_oracle.meter.by_kind)
        assert oracle.meter.by_kind["compute-round"] == n * len(masks)
        assert (oracle.tracker.live, oracle.tracker.peak) == (ref_oracle.tracker.live, ref_oracle.tracker.peak) == (0, 1)
        assert all(np.array_equal(a, b) for a, b in zip(states, ref_states, strict=True))
        assert channel.counters() == ref_channel.counters()
        assert channel.transcript == ref_channel.transcript
        assert len(channel.transcript) == (n * len(masks) if transcript else 0)

    def test_empty_mask_stack_queries_nothing(self):
        oracle, _ = _stream_setup(None)
        states = oracle.stream(26, "compute-round", unitary=np.empty((0, 4, 4), dtype=complex))
        assert len(states) == 0
        assert (oracle.meter.total, oracle.tracker.peak) == (3, 0)

    def test_a_mask_stack_is_not_sent(self):
        oracle, channel = _stream_setup(True)
        with pytest.raises(ValueError, match="not copies to send"):
            oracle.stream(26, "compute-round", channel=channel, unitary=self._mask_stack("haar", 4, 2))
        assert (oracle.meter.total, oracle.tracker.peak) == (3, 0)

    def test_masking_a_consumed_copy_with_a_stack_raises(self):
        masks = self._mask_stack("haar", 4, 3)
        c = CopyOracle(qcore.maximally_mixed(4), tracker=LiveCopyTracker(1)).query()
        c.consume()
        with pytest.raises(MemoryPolicyError):
            c.with_unitary(masks)

    def test_delegated_measure_reads_the_stream_without_copying(self):
        copies = CopyStream(np.eye(2) / 2, 10_000)
        out = delegated_measure(lambda states, r: states, copies, delta=1 / 3, rng=np.random.default_rng(0))
        assert out is copies


class TestChannel:
    def test_classical_channel_rejects_qudits(self):
        ch = Channel("classical")
        with pytest.raises(ChannelTypeError):
            ch.send_qudits("v->p", [Copy(np.eye(2) / 2, None)])

    def test_counters_per_direction(self):
        ch = Channel("quantum")
        ch.send_bits("p->v", [1, 0, 1])
        ch.send_qudits("v->p", [Copy(np.eye(2) / 2, None) for _ in range(4)])
        ch.send_structured("p->v", {"x": 1})
        assert ch.bits_p_to_v > 3  # structured payload adds its serialized size
        assert ch.qudits_v_to_p == 4
        assert ch.qudits_p_to_v == 0

    def test_transcript_lines_schema(self):
        ch = Channel("quantum", record_transcript=True)
        ch.send_bits("p->v", [1], round_index=3)
        line = json.loads(ch.transcript[0])
        assert set(line) == {"round", "direction", "payload_kind", "size_bits_or_qudits", "digest"}

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("record", [False, True])
    def test_every_send_kind_matches_a_per_message_model(self, seed, record):
        """Mixed sends of every kind in both directions against a model in
        which each message adds its size to one counter and, when recording,
        is one line stamped with its round (by default the current one)."""
        g = np.random.default_rng(seed)
        ch = Channel("quantum", record_transcript=record)
        tracker = LiveCopyTracker(None)
        want, lines = dict.fromkeys(ch.counters(), 0), []

        def message(round_index, direction, kind, size, payload):
            unit = "qudits" if kind == "qudits" else "bits"
            want[f"{unit}_{direction.replace('->', '_to_')}"] += size
            digest = "-" if payload is None else hashlib.sha256(canonical_bytes(payload)).hexdigest()[:16]
            line = {"round": round_index, "direction": direction, "payload_kind": kind}
            lines.append(json.dumps({**line, "size_bits_or_qudits": size, "digest": digest}, sort_keys=True))

        def copy(state):
            tracker.acquire()
            return Copy(state, tracker)

        states = [qcore.sample_state(2, 1 + i % 2, g).entries for i in range(3)]
        for _ in range(30):
            if g.random() < 0.3:
                ch.round += 1
            direction = ("v->p", "p->v")[g.integers(2)]
            named = None if g.random() < 0.5 else int(g.integers(100))
            stamp = ch.round if named is None else named
            op = g.integers(6)
            if op == 0:
                bits = g.integers(0, 2, size=g.integers(0, 5)).tolist()
                assert ch.send_bits(direction, bits, named) == bits
                message(stamp, direction, "bits", len(bits), bits)
            elif op == 1:
                obj = {"x": int(g.integers(1000)), "u": states[g.integers(3)]}
                assert ch.send_structured(direction, obj, named) is obj
                message(stamp, direction, "structured", 8 * len(canonical_bytes(obj)), canonical_bytes(obj))
            elif op == 2:
                nbits, note = int(g.integers(0, 500)), ("stream", "zeta")[g.integers(2)]
                ch.count_raw_bits(direction, nbits, note=note)
                message(ch.round, direction, note, nbits, None)
            elif op == 3:
                sent = [states[i] for i in g.integers(0, 3, size=g.integers(0, 4))]
                got = ch.send_qudits(direction, [copy(s) for s in sent], named)
                assert all(a is b for a, b in zip(got, sent, strict=True))
                message(stamp, direction, "qudits", len(sent), sent)
            elif op == 4:
                n, state = int(g.integers(0, 4)), states[g.integers(3)]
                got = ch.send_stream(direction, copy(state), n)
                assert got.state is state and len(got) == n
                for _ in range(n):
                    message(ch.round, direction, "qudits", 1, [state])
            else:
                index = g.integers(0, 3, size=g.integers(0, 4))
                n, answers = int(g.integers(0, 4)), g.integers(0, 2, size=len(index)).tolist()
                first = ch.round + 1
                ch.round += len(index)
                ch.send_rounds(np.array(states), index, n, answers, first)
                for r, (i, answer) in enumerate(zip(index, answers), first):
                    for _ in range(n):
                        message(r, "v->p", "qudits", 1, [states[i]])
                    message(r, "p->v", "bits", 1, [answer])
            assert ch.counters() == want
            assert ch.transcript == (lines if record else [])
        assert tracker.live == 0

    @pytest.mark.parametrize("send", ["qudits", "stream", "rounds"])
    def test_classical_channel_refuses_qudits_before_consuming(self, send):
        ch = Channel("classical", record_transcript=True)
        tracker = LiveCopyTracker(1)
        tracker.acquire()
        held = Copy(np.eye(2) / 2, tracker)
        with pytest.raises(ChannelTypeError, match="classical channel rejects qudit payloads"):
            if send == "qudits":
                ch.send_qudits("v->p", [held])
            elif send == "stream":
                ch.send_stream("v->p", held, 3)
            else:
                ch.send_rounds(np.eye(2)[None] / 2, [0], 2, [1], 1)
        assert held.alive and tracker.live == 1
        assert ch.counters() == Channel().counters() and ch.transcript == []


class TestCanonicalBytes:
    def test_scalars_encode_as_their_repr(self):
        for obj in ("ab", 3, -2.5, True, None, np.int64(7), np.float64(0.25)):
            assert canonical_bytes(obj) == repr(obj).encode()

    def test_stabilizer_state_encodes_by_its_generators(self):
        desc = enumerate_stabilizers(2)[11]
        assert canonical_bytes(desc) == canonical_bytes(desc.generators)
        assert canonical_bytes(desc).startswith(b"nd:int8:(2, 5):")

    def test_unknown_type_raises(self):
        with pytest.raises(TypeError, match="object"):
            canonical_bytes(object())
        with pytest.raises(TypeError, match="set"):
            canonical_bytes({"x": {1, 2}})


class TestDelegation:
    def test_security_parameter_formula(self):
        d_sec, escape = delegation_security(1 / 3)
        assert d_sec == 25
        assert abs(escape - (5 / 6) ** 10) < 1e-15
        assert escape <= 1 / 6

    def test_honest_mode_swap_outcome_law(self):
        rng = np.random.default_rng(1)
        rho = qcore.maximally_mixed(2).entries
        hits = 0
        trials = 4000
        from ipsim.qmeas import swap_probability

        for _ in range(trials):
            out = delegated_measure(
                lambda states, r: int(r.random() < swap_probability(states[0], states[1])),
                [Copy(rho, None), Copy(rho, None)],
                delta=1 / 3,
                rng=rng,
            )
            hits += out
        assert abs(hits / trials - 0.75) < 0.03  # (1 + Tr[rho sigma]) / 2 = 3/4

    def test_cheat_mode_catch_rate(self):
        rng = np.random.default_rng(2)
        trials = 10_000
        undetected = 0
        for _ in range(trials):
            try:
                delegated_measure(
                    lambda states, r: 0,
                    [],
                    tamper=lambda o: 1,
                    delta=1 / 3,
                    rng=rng,
                )
                undetected += 1
            except ProtocolAbort as abort:
                assert abort.reason == "delegation trap check failed"
        bound = (5 / 6) ** 10
        sigma = np.sqrt(bound * (1 - bound) / trials)
        assert undetected / trials <= bound + 3 * sigma


class TestTask:
    def test_reject_sampler_cannot_hit_accept(self):
        with pytest.raises(ValueError):
            ManyVsOneTask(
                accept_instance=qcore.maximally_mixed(2),
                reject_sampler=lambda rng: qcore.maximally_mixed(2),
            )

    def test_classify(self):
        task = ManyVsOneTask(
            accept_instance=qcore.maximally_mixed(2),
            reject_sampler=lambda rng: qcore.sample_pure_state(2, rng).density(),
            accept_output="maximally mixed",
        )
        assert task.classify_output("maximally mixed") == "accept"
        assert task.classify_output("pure") == "reject"


class TestWilson:
    def test_single_trial_interval_well_formed(self):
        lo, hi = wilson_interval(1, 1)
        assert 0.0 <= lo < hi <= 1.0
        lo, hi = wilson_interval(0, 0)
        assert (lo, hi) == (0.0, 1.0)

    def test_coverage_shape(self):
        lo, hi = wilson_interval(50, 100)
        assert lo < 0.5 < hi
        assert hi - lo < 0.25


class TestDeriveRng:
    def test_label_separation(self):
        a = derive_rng(7, "x").integers(0, 2**31)
        b = derive_rng(7, "y").integers(0, 2**31)
        c = derive_rng(7, "x").integers(0, 2**31)
        assert a == c and a != b

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63 - 2, 2**64 - 1, -3, 2**70])
    @pytest.mark.parametrize("labels", [(), ("x",), ("instance", 3)])
    def test_states_of_the_spawn_key_construction(self, seed, labels):
        """Pinned to the seeding every report was made with: the seed's low 64
        bits as entropy and four sha256 words as the spawn key."""
        h = hashlib.sha256(repr((int(seed),) + labels).encode()).digest()
        words = tuple(int.from_bytes(h[i : i + 4], "little") for i in range(0, 16, 4))
        reference = np.random.default_rng(
            np.random.SeedSequence(entropy=int(seed) & ((1 << 64) - 1), spawn_key=words)
        )
        assert derive_rng(seed, *labels).bit_generator.state == reference.bit_generator.state


class TestTrivialValidationIP:
    def _run(self, checker, adversary, seed):
        cfg = TrivialConfig(n=2, epsilon=0.3, delta=1 / 3, checker=checker)
        rng = derive_rng(seed, "inst")
        states = enumerate_stabilizers(2)
        hidden = states[int(rng.integers(0, len(states)))].dense
        return cfg.run_one(hidden, cfg.make_prover(adversary), seed)

    def test_completeness_sampled(self):
        ok = sum(self._run("sampled", "honest", 100 + i).accepted for i in range(40))
        assert ok / 40 >= 2 / 3

    def test_garbage_prover_aborts(self):
        aborted = sum(not self._run("sampled", "garbage", 200 + i).accepted for i in range(40))
        assert aborted / 40 >= 2 / 3

    def test_exact_checker_zero_queries(self):
        res = self._run("exact-test", "honest", 5)
        assert res.accepted
        assert res.verifier_queries == 0


class _SessionProbe:
    """A verifier that keeps the session it was handed."""

    memory_limit = 1
    channel_kind = "classical"

    def run(self, session, prover):
        self.session = session
        return "done"


class TestRunSession:
    def test_builds_oracles_channel_and_tracker(self):
        hidden, prover_hidden = qcore.maximally_mixed(2), qcore.maximally_mixed(4)
        probe = _SessionProbe()
        res = harness.run_session(probe, harness.ProverStrategy(), hidden, 3, prover_hidden=prover_hidden)
        session = probe.session
        assert res.accepted and res.output == "done" and res.seed == 3
        assert session.oracle_p.ideal_peek() is prover_hidden
        with pytest.raises(PermissionError):
            session.oracle_v.ideal_peek()
        assert session.oracle_v.judge_peek() is hidden
        assert session.channel.kind == "classical" and not session.channel.record_transcript
        assert session.oracle_v.tracker.limit == 1 and session.oracle_p.tracker is None

    def test_prover_shares_the_instance_by_default(self):
        probe = _SessionProbe()
        hidden = qcore.maximally_mixed(2)
        harness.run_session(probe, harness.ProverStrategy(), hidden, 3, record_transcript=True)
        assert probe.session.oracle_p.ideal_peek() is hidden
        assert probe.session.channel.record_transcript

    def test_transcript_lines_encode_every_entry(self):
        class Sender(_SessionProbe):
            channel_kind = "quantum"

            def run(self, session, prover):
                ch = session.channel
                ch.round = 1
                ch.send_stream("v->p", np.eye(2) / 2, 3)
                ch.send_bits("p->v", [1], 1)
                ch.round = 2
                ch.send_stream("v->p", np.eye(2) / 2, 2)
                return super().run(session, prover)

        probe = Sender()
        res = harness.run_session(probe, harness.ProverStrategy(), qcore.maximally_mixed(2), 3, record_transcript=True)
        assert res.transcript_lines == tuple(probe.session.channel.transcript)
        assert len(res.transcript_lines) == 6 and len(set(res.transcript_lines)) == 3

    def test_distribution_oracle_samples_and_never_copies(self):
        from ipsim.stream_ip import SupportDistribution

        oracle = CopyOracle(SupportDistribution(8, 8, "uniform"))
        assert oracle.sample_batch(np.random.default_rng(0), 5).shape == (5,)
        assert oracle.meter.total == 5
        with pytest.raises(TypeError):
            oracle.query()
        with pytest.raises(TypeError):
            CopyOracle(qcore.maximally_mixed(2)).sample_batch(np.random.default_rng(0), 5)


class TestSessionDeterminism:
    def test_byte_identical_serialization(self):
        from ipsim import purity_ip

        cfg = purity_ip.PurityConfig(d=4, record_transcript=True)
        hidden = qcore.maximally_mixed(4)
        a = cfg.run_one(hidden, purity_ip.HonestSwapProver(), seed=123)
        b = cfg.run_one(hidden, purity_ip.HonestSwapProver(), seed=123)
        assert replace(a, wall_time=0.0) == replace(b, wall_time=0.0)
        assert a.transcript_lines == b.transcript_lines

    def test_query_accounting_sums(self):
        from ipsim import purity_ip

        cfg = purity_ip.PurityConfig(d=4)
        res = cfg.run_one(qcore.maximally_mixed(4), purity_ip.HonestSwapProver(), seed=5)
        assert sum(res.verifier_breakdown.values()) == res.verifier_queries


class TestNogoDistinguisher:
    def test_meter_identity_and_classification(self):
        from ipsim import purity_ip

        cfg = purity_ip.PurityConfig(d=4)
        task = cfg.task()
        d = harness.NogoDistinguisher(task, cfg.run_one, purity_ip.HonestSwapProver())
        hidden = qcore.maximally_mixed(4)
        answer, res = d.run(hidden, seed=77)
        # identical seed, direct session with prover oracle = accept instance
        direct = cfg.run_one(hidden, purity_ip.HonestSwapProver(), seed=77, prover_hidden=task.accept_instance)
        assert res.verifier_queries == direct.verifier_queries
        assert answer in ("accept", "reject")


# keys for one short session of each protocol
SMALL_KEYS = {
    "purity": {"d": 2},
    "tomo": {"d": 2},
    "lowrank": {"d": 2},
    "stab": {"n": 2},
    "uniformity": {"k": 256, "epsilon": 0.9, "allow_small_epsilon": True},
    "nogo": {"d": 2},
    "trivial": {"n": 2},
}

# every protocol in each of its modes
MODES = [
    (name, mode)
    for name, cls in sorted(cli.PROTOCOLS.items())
    for mode in (("ideal", "sampled") if "mode" in {f.name for f in fields(cls)} else ("ideal",))
]

# the shared range rules, with out-of-range values and their messages
OUT_OF_RANGE = {
    "d": ((1, 0), "d must be >= 2"),
    "epsilon": ((0, 1, 1.5, -0.2), "epsilon must be in (0, 1)"),
    "delta": ((0, 1, 1.5, -0.2), "delta must be in (0, 1)"),
    "mode": (("quantum", "Ideal"), "mode must be ideal or sampled"),
}
RULES_APPLIED = {
    "purity": ("d", "delta"),
    "nogo": ("d", "delta"),
    "tomo": ("d", "epsilon", "delta", "mode"),
    "lowrank": ("d", "epsilon", "delta", "mode"),
    "stab": ("epsilon", "delta", "mode"),
    "trivial": ("epsilon", "delta"),
}
RANGE_CASES = [
    (name, key, value, OUT_OF_RANGE[key][1])
    for name, keys in RULES_APPLIED.items()
    for key in keys
    for value in OUT_OF_RANGE[key][0]
]


class TestProtocolInterface:
    def test_small_keys_cover_every_protocol(self):
        assert set(SMALL_KEYS) == set(cli.PROTOCOLS)

    @pytest.mark.parametrize("name", sorted(set(cli.PROTOCOLS) - {"nogo"}))
    def test_run_one_takes_prover_hidden(self, name):
        """Every protocol's session takes the prover's own instance; given
        the hidden instance itself, it is the plain session."""
        experiment = cli.ExperimentConfig(protocol=name, transcripts=True, protocol_keys=SMALL_KEYS[name])
        protocol, prover, which = cli.build_protocol(experiment)
        hidden = protocol.sample_instance(which, derive_rng(4, "instance", 0))
        plain = protocol.run_one(hidden, prover, 11)
        shared = protocol.run_one(hidden, prover, 11, prover_hidden=hidden)
        assert plain.transcript_lines
        assert canonical_bytes(shared.output) == canonical_bytes(plain.output)
        assert replace(shared, wall_time=0.0, output=None) == replace(plain, wall_time=0.0, output=None)

    @pytest.mark.parametrize("name", sorted(cli.PROTOCOLS))
    def test_every_prover_builds_from_its_config(self, name):
        """Each name in a config's ``provers`` builds through the CLI into
        that class, holding the config it was built from (nogo takes no
        adversary and runs the honest prover)."""
        cls = cli.PROTOCOLS[name]
        names = list(cls.provers) if "adversary" in cls.trial_keys else ["honest"]
        for adversary in names:
            keys = dict(SMALL_KEYS[name])
            if "adversary" in cls.trial_keys:
                keys["adversary"] = adversary
            protocol, prover, _ = cli.build_protocol(cli.ExperimentConfig(protocol=name, protocol_keys=keys))
            assert type(prover) is cls.provers[adversary]
            assert prover.cfg is protocol

    @pytest.mark.parametrize("name", sorted(cli.PROTOCOLS))
    def test_each_config_binds_the_harness_session(self, name):
        """Each config is a ``harness.Protocol``: it inherits the prover
        factory and the transcript flag, and holds ``run_one`` in its own
        namespace, where the benchmark times and traces it. That is the one
        harness session with the config's own verifier (nogo: the
        distinguisher)."""
        cls = cli.PROTOCOLS[name]
        assert issubclass(cls, harness.Protocol)
        assert "make_prover" not in cls.__dict__
        assert "record_transcript" not in cls.__dict__
        assert "record_transcript" not in cls.__dict__.get("__annotations__", {})
        if name == "nogo":
            assert cls.__dict__["run_one"] is harness.run_distinguisher
        else:
            assert issubclass(cls.verifier, harness.Verifier)
            assert cls.__dict__["run_one"] is harness.Protocol.run_one

    @pytest.mark.parametrize("name, key, value, message", RANGE_CASES)
    def test_shared_range_rules(self, name, key, value, message):
        """Each shared range rule a config applies rejects an out-of-range
        value with its one message (nogo applies purity's)."""
        with pytest.raises(ValueError) as err:
            cli.PROTOCOLS[name](**{key: value})
        assert str(err.value) == message

    @pytest.mark.parametrize("name, mode", MODES)
    def test_transcript_rounds_never_decrease(self, name, mode):
        """A stream or raw bit count is stamped with the round the session
        opened last, so no transcript line names an earlier round."""
        experiment = cli.ExperimentConfig(
            protocol=name, trials=2, seed=3, mode=mode, transcripts=True, protocol_keys=SMALL_KEYS[name]
        )
        _, results = cli.run_experiment(experiment)
        for res in results:
            rounds = [json.loads(line)["round"] for line in res.transcript_lines]
            assert rounds and rounds == sorted(rounds)
